//! The SNN → RESPARC mapper.
//!
//! Maps a [`Topology`] (or weighted [`Network`]) onto the machine: each
//! layer's connectivity matrix is partitioned into crossbar tiles
//! ([`partition`]), tiles are placed onto mPEs and NeuroCells
//! ([`placement`]), and the result is summarised in a [`Mapping`] the
//! simulator and the report generators consume. Every mapping is placed
//! at NeuroCell origin 0; a [`FabricPool`](crate::fabric::FabricPool)
//! moves it into pool coordinates with [`Placement::translated_to`].
//!
//! The mapper is *technology-aware* (paper abstract): it can rank the
//! candidate MCA sizes the device technology supports by mapped device
//! footprint via [`Mapper::recommend_mca_size`], and it warns when the
//! configured size exceeds what the technology supports reliably.

pub mod optimize;
pub mod partition;
pub mod placement;

use std::sync::{Arc, OnceLock};

use resparc_device::nonideal::combined_error;
use resparc_device::sizing::max_feasible_size;
use resparc_neuro::network::Network;
use resparc_neuro::topology::Topology;

use crate::config::ResparcConfig;
pub use optimize::{BatchPlacement, PlacementRequest, PlacementStrategy};
pub use partition::{LayerPartition, PartitionOptions, Tile, TileColumnDetail, TileDetail};
pub use placement::{place, place_with_origin, LayerSpan, Placement};

/// Error from mapping a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// The per-layer mean weight magnitudes do not match the topology.
    WeightCount {
        /// Layers in the topology.
        expected: usize,
        /// Magnitudes supplied.
        got: usize,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MapError::WeightCount { expected, got } => write!(
                f,
                "need one mean weight magnitude per layer: the topology has {expected} layers, \
                 got {got} magnitudes"
            ),
        }
    }
}

impl std::error::Error for MapError {}

/// The SNN → hardware mapper.
#[derive(Debug, Clone)]
pub struct Mapper {
    config: ResparcConfig,
    input_sharing: bool,
    record_details: bool,
    /// Non-ideality error budget used for technology warnings.
    error_budget: f64,
}

impl Mapper {
    /// Creates a mapper for the given machine configuration.
    pub fn new(config: ResparcConfig) -> Self {
        Self {
            config,
            input_sharing: true,
            record_details: false,
            error_budget: 0.15,
        }
    }

    /// Disables input-sharing packing (the §3.1.1 ablation).
    pub fn without_input_sharing(mut self) -> Self {
        self.input_sharing = false;
        self
    }

    /// Records full tile assignments (for hardware cosimulation of small
    /// networks).
    pub fn with_details(mut self) -> Self {
        self.record_details = true;
        self
    }

    /// The machine configuration.
    pub fn config(&self) -> &ResparcConfig {
        &self.config
    }

    /// Maps a topology with an assumed mean |weight| of 0.5 per layer.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn map(&self, topology: &Topology) -> Result<Mapping, MapError> {
        self.map_with_weights(topology, &vec![0.5f64; topology.layer_count()])
    }

    /// Maps a trained network, deriving per-layer mean |weight|
    /// magnitudes from its actual weights (used by the crossbar energy
    /// model).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn map_network(&self, network: &Network) -> Result<Mapping, MapError> {
        self.map_with_weights(network.topology(), network.mean_weight_magnitudes())
    }

    /// Maps a topology with explicit per-layer mean normalized-|weight|
    /// magnitudes.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidConfig`] if the configuration fails
    /// validation, or [`MapError::WeightCount`] if `mean_weight_mags`
    /// does not hold one magnitude per layer.
    pub fn map_with_weights(
        &self,
        topology: &Topology,
        mean_weight_mags: &[f64],
    ) -> Result<Mapping, MapError> {
        self.config.validate().map_err(MapError::InvalidConfig)?;
        if mean_weight_mags.len() != topology.layer_count() {
            return Err(MapError::WeightCount {
                expected: topology.layer_count(),
                got: mean_weight_mags.len(),
            });
        }

        let opts = {
            let mut o = PartitionOptions::new(self.config.mca_size);
            o.input_sharing = self.input_sharing;
            o.record_details = self.record_details;
            o
        };
        let partitions: Vec<LayerPartition> = topology
            .layers()
            .iter()
            .enumerate()
            .map(|(i, spec)| partition::partition_spec(spec, i, &opts))
            .collect();
        let placement = place(&partitions, &self.config);

        let technology_warning = match max_feasible_size(&self.config.device, self.error_budget) {
            Some(max) if self.config.mca_size <= max => None,
            Some(max) => Some(format!(
                "MCA size {} exceeds the technology's reliable maximum of {max} \
                 (error budget {})",
                self.config.mca_size, self.error_budget
            )),
            None => Some(format!(
                "device technology supports no candidate MCA size at error budget {}",
                self.error_budget
            )),
        };

        Ok(Mapping {
            config: self.config.clone(),
            partitions: partitions.into(),
            placement,
            mean_weight_mags: mean_weight_mags.to_vec(),
            technology_warning,
            replay_plan: OnceLock::new(),
        })
    }

    /// Technology-aware size recommendation: maps `topology` with this
    /// mapper's options at every candidate size whose combined
    /// non-ideality error stays within the mapper's error budget (the rule
    /// of [`feasible_sizes`](resparc_device::sizing::feasible_sizes)) and
    /// returns `(size, device footprint)` pairs, smallest footprint first.
    /// The footprint is the memristor pairs of the mapped crossbars
    /// ([`device_footprint`](crate::sim::cost::device_footprint)). The full
    /// energy ranking lives in the simulator; this structural ranking is
    /// the mapper-level proxy (fewer, fuller crossbars). A device that
    /// supports no candidate yields an empty ranking.
    pub fn recommend_mca_size(
        &self,
        topology: &Topology,
        candidates: &[usize],
    ) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = candidates
            .iter()
            .filter(|&&size| combined_error(&self.config.device, size) <= self.error_budget)
            .filter_map(|&size| {
                let mut config = self.config.clone();
                config.mca_size = size;
                // A size the configuration rejects is skipped, not fatal.
                let m = Mapper { config, ..*self }.map(topology).ok()?;
                // Footprint proxy shared with the simulators' cost math.
                Some((size, crate::sim::cost::device_footprint(&m.placement, size)))
            })
            .collect();
        out.sort_by_key(|&(_, devices)| devices);
        out
    }
}

/// A mapped network: partitions + placement + the statistics the
/// simulator needs.
///
/// A clone shares its tiles: it copies the configuration, placement and
/// weight magnitudes, and takes one more reference to the partitions. A
/// tenant is thus its class's shared tiles plus its own placement, which
/// is all a pool translation or defragmentation rewrites.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Machine configuration used.
    pub config: ResparcConfig,
    /// Per-layer tile partitions, built once by the mapper and shared by
    /// every clone.
    pub partitions: Arc<[LayerPartition]>,
    /// Tile placement over mPEs/NeuroCells.
    pub placement: Placement,
    /// Per-layer mean normalized |weight| (crossbar energy input).
    pub mean_weight_mags: Vec<f64>,
    /// Advisory warning when the MCA size exceeds the technology's
    /// reliable range.
    pub technology_warning: Option<String>,
    /// Lazily-compiled word-level replay plan (see
    /// [`crate::sim::plan::ReplayPlan`]). Cloning a mapping shares the
    /// already-compiled plan; the plan reads only `partitions` and
    /// `config.packet_bits`, so placement translation (pool compaction)
    /// never invalidates it.
    replay_plan: OnceLock<Arc<crate::sim::plan::ReplayPlan>>,
}

impl Mapping {
    /// Number of layers mapped.
    pub fn layer_count(&self) -> usize {
        self.partitions.len()
    }

    /// The compiled word-level replay plan for this mapping, compiling it
    /// on first use (thread-safe, compiled at most once per mapping).
    pub fn replay_plan(&self) -> Arc<crate::sim::plan::ReplayPlan> {
        Arc::clone(
            self.replay_plan
                .get_or_init(|| Arc::new(crate::sim::plan::ReplayPlan::compile(self))),
        )
    }

    /// Summarises the mapping (the report behind Fig. 12's utilization
    /// story).
    pub fn report(&self) -> MappingReport {
        MappingReport {
            mca_size: self.config.mca_size,
            mcas_used: self.placement.mcas_used,
            mpes_used: self.placement.mpes_used,
            ncs_used: self.placement.ncs_used,
            layers: self
                .partitions
                .iter()
                .zip(&self.placement.layers)
                .map(|(p, s)| LayerReport {
                    layer: p.layer,
                    tiles: p.tile_count(),
                    max_degree: p.max_degree,
                    mean_degree: p.mean_degree,
                    mean_utilization: p.mean_utilization(self.config.mca_size),
                    mean_row_occupancy: p.mean_row_occupancy(self.config.mca_size),
                    mean_col_occupancy: p.mean_col_occupancy(self.config.mca_size),
                    mpes: s.mpe_count(),
                    ncs: s.nc_count(),
                })
                .collect(),
        }
    }

    /// Mean device utilization across every mapped tile.
    pub fn overall_utilization(&self) -> f64 {
        let total_tiles: usize = self.partitions.iter().map(|p| p.tile_count()).sum();
        if total_tiles == 0 {
            return 0.0;
        }
        let total_syn: u64 = self.partitions.iter().map(|p| p.total_synapses).sum();
        total_syn as f64 / (total_tiles * self.config.mca_capacity()) as f64
    }
}

/// Human-readable mapping summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingReport {
    /// Crossbar edge length used.
    pub mca_size: usize,
    /// Crossbars consumed.
    pub mcas_used: usize,
    /// mPEs consumed.
    pub mpes_used: usize,
    /// NeuroCells consumed.
    pub ncs_used: usize,
    /// Per-layer details.
    pub layers: Vec<LayerReport>,
}

/// Per-layer mapping summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer index.
    pub layer: usize,
    /// Tiles used.
    pub tiles: usize,
    /// Maximum time-multiplexing degree.
    pub max_degree: u32,
    /// Mean time-multiplexing degree.
    pub mean_degree: f64,
    /// Mean device utilization.
    pub mean_utilization: f64,
    /// Mean row occupancy.
    pub mean_row_occupancy: f64,
    /// Mean column occupancy.
    pub mean_col_occupancy: f64,
    /// mPEs occupied.
    pub mpes: usize,
    /// NeuroCells touched.
    pub ncs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use resparc_device::memristor::MemristorSpec;
    use resparc_neuro::topology::{ChannelTable, Padding, Shape};

    #[test]
    fn maps_small_mlp() {
        let t = Topology::mlp(784, &[800, 10]);
        let m = Mapper::new(ResparcConfig::resparc_64()).map(&t).unwrap();
        assert_eq!(m.layer_count(), 2);
        let r = m.report();
        assert_eq!(r.layers[0].tiles, 13 * 13);
        assert_eq!(r.layers[0].max_degree, 13);
        assert!(r.layers[0].mean_utilization > 0.9);
        assert!(m.technology_warning.is_none());
    }

    #[test]
    fn a_clone_shares_its_tiles() {
        let m = Mapper::new(ResparcConfig::resparc_64())
            .map(&Topology::mlp(96, &[64, 10]))
            .unwrap();
        assert!(Arc::ptr_eq(&m.partitions, &m.clone().partitions));
    }

    #[test]
    fn map_network_sees_weights_edited_through_layers_mut() {
        // The first map fills the network's weight-magnitude cache; an
        // edit through `layers_mut` must clear it, so the next map
        // agrees with a network built fresh from the edited layers.
        let mapper = Mapper::new(ResparcConfig::resparc_64());
        let mut net = Network::random(Topology::mlp(96, &[64, 10]), 3, 1.0);
        let before = mapper.map_network(&net).unwrap().mean_weight_mags;
        net.layers_mut()[0].weights_mut()[0] = 50.0;
        let edited = mapper.map_network(&net).unwrap().mean_weight_mags;
        let fresh = Network::new(net.input_count(), net.layers().to_vec());
        assert_eq!(edited, mapper.map_network(&fresh).unwrap().mean_weight_mags);
        assert_ne!(edited, before);
    }

    #[test]
    fn cnn_utilization_lower_than_mlp() {
        let cnn = Topology::builder(Shape::new(16, 16, 1))
            .conv(8, 5, Padding::Valid, ChannelTable::Full)
            .pool(2)
            .dense(10)
            .build()
            .unwrap();
        let mlp = Topology::mlp(256, &[256, 10]);
        let mapper = Mapper::new(ResparcConfig::resparc_64());
        let um = mapper.map(&mlp).unwrap().overall_utilization();
        let uc = mapper.map(&cnn).unwrap().overall_utilization();
        assert!(uc < um, "cnn {uc} vs mlp {um}");
    }

    #[test]
    fn oversize_mca_triggers_technology_warning() {
        let t = Topology::mlp(64, &[10]);
        let cfg = ResparcConfig::with_mca_size(256);
        let m = Mapper::new(cfg).map(&t).unwrap();
        assert!(m.technology_warning.is_some());
    }

    #[test]
    fn wrong_weight_count_is_a_typed_error() {
        let t = Topology::mlp(32, &[16, 4]);
        let mapper = Mapper::new(ResparcConfig::resparc_64());
        let err = mapper.map_with_weights(&t, &[0.5]).unwrap_err();
        assert_eq!(
            err,
            MapError::WeightCount {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "need one mean weight magnitude per layer: the topology has 2 layers, got 1 magnitudes"
        );
        assert!(mapper.map_with_weights(&t, &[0.5, 0.5, 0.5]).is_err());
        assert!(mapper.map_with_weights(&t, &[0.5, 0.5]).is_ok());
    }

    #[test]
    fn network_weights_set_magnitudes() {
        let net = Network::random(Topology::mlp(32, &[16, 4]), 3, 1.0);
        let m = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        assert_eq!(m.mean_weight_mags.len(), 2);
        assert!(m.mean_weight_mags.iter().all(|&w| (0.0..=1.0).contains(&w)));
        assert!(m.mean_weight_mags[0] > 0.0);
    }

    #[test]
    fn recommendation_prefers_small_arrays_for_sparse_nets() {
        let cnn = Topology::builder(Shape::new(16, 16, 1))
            .conv(8, 5, Padding::Valid, ChannelTable::Full)
            .pool(2)
            .dense(10)
            .build()
            .unwrap();
        let mapper = Mapper::new(ResparcConfig::resparc_64());
        let ranking = mapper.recommend_mca_size(&cnn, &[32, 64, 128]);
        // Smallest device footprint first; for sparse nets that is the
        // smallest array.
        assert_eq!(ranking.first().map(|r| r.0), Some(32));
    }

    #[test]
    fn recommendation_skips_sizes_the_technology_does_not_support() {
        let cnn = Topology::builder(Shape::new(12, 12, 1))
            .conv(4, 5, Padding::Valid, ChannelTable::Full)
            .dense(10)
            .build()
            .unwrap();
        let candidates = [16, 32, 64, 128, 256];
        // The paper's device supports up to 64 at the 0.15 budget.
        let paper = Mapper::new(ResparcConfig::resparc_64()).recommend_mca_size(&cnn, &candidates);
        let mut sizes: Vec<usize> = paper.iter().map(|&(size, _)| size).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [16, 32, 64]);
        // The spintronic device supports none.
        let mut cfg = ResparcConfig::resparc_64();
        cfg.device = MemristorSpec::spintronic();
        assert!(Mapper::new(cfg)
            .recommend_mca_size(&cnn, &candidates)
            .is_empty());
    }

    #[test]
    fn ablation_without_sharing_uses_more_mcas() {
        let cnn = Topology::builder(Shape::new(12, 12, 1))
            .conv(6, 5, Padding::Valid, ChannelTable::Full)
            .pool(2)
            .dense(10)
            .build()
            .unwrap();
        let with = Mapper::new(ResparcConfig::resparc_64())
            .map(&cnn)
            .unwrap()
            .placement
            .mcas_used;
        let without = Mapper::new(ResparcConfig::resparc_64())
            .without_input_sharing()
            .map(&cnn)
            .unwrap()
            .placement
            .mcas_used;
        assert!(without > with, "without {without} vs with {with}");

        // The size ranking maps each candidate under the ablated mapper's
        // own options, not a default mapper's.
        let ranking = Mapper::new(ResparcConfig::resparc_64())
            .without_input_sharing()
            .recommend_mca_size(&cnn, &[16, 32, 64]);
        assert_eq!(ranking.len(), 3);
        for (size, footprint) in ranking {
            let direct = Mapper::new(ResparcConfig::with_mca_size(size))
                .without_input_sharing()
                .map(&cnn)
                .unwrap();
            assert_eq!(
                footprint,
                crate::sim::cost::device_footprint(&direct.placement, size),
                "MCA {size}"
            );
        }
    }
}
