//! Functional hardware cosimulation: a spike-accurate RESPARC built from
//! *real* crossbars.
//!
//! [`HwCore`] instantiates every mapped tile as an explicit
//! [`Crossbar`] (programmed conductances, quantization, optional device
//! variation), wires columns to IF neurons and executes a network
//! timestep-by-timestep. It exists to validate the whole mapping chain:
//! on small networks its output spikes must match the algorithm-level
//! [`resparc_neuro::network::SnnRunner`] exactly when quantization is
//! fine enough — a property the integration tests assert.
//!
//! It also counts the event-driven statistics (crossbar reads skipped
//! because their entire input window was silent) that the analytic
//! simulator models statistically.

use resparc_device::crossbar::Crossbar;
use resparc_neuro::network::Network;
use resparc_neuro::neuron::Membrane;
use resparc_neuro::spike::{AsSpikeView, SpikeVector};

use crate::map::Mapping;

/// Error from building a hardware cosimulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwBuildError {
    /// The mapping was produced without tile details
    /// (`Mapper::with_details`).
    MissingDetails,
    /// The mapping and network disagree on layer count.
    LayerMismatch {
        /// Layers in the mapping.
        mapping: usize,
        /// Layers in the network.
        network: usize,
    },
}

impl std::fmt::Display for HwBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwBuildError::MissingDetails => {
                write!(f, "mapping lacks tile details; use Mapper::with_details()")
            }
            HwBuildError::LayerMismatch { mapping, network } => {
                write!(f, "mapping has {mapping} layers but network has {network}")
            }
        }
    }
}

impl std::error::Error for HwBuildError {}

/// One instantiated crossbar tile.
#[derive(Debug, Clone)]
struct HwTile {
    crossbar: Crossbar,
    /// Global input-neuron id per occupied row.
    row_inputs: Vec<u32>,
    /// Global output-neuron id per occupied column.
    col_outputs: Vec<u32>,
}

/// One layer of the hardware model: its tiles plus the IF neuron bank.
#[derive(Debug, Clone)]
struct HwLayer {
    tiles: Vec<HwTile>,
    membranes: Vec<Membrane>,
    /// The layer's threshold over its weight scale, `threshold / wmax`.
    threshold: f32,
}

/// The functional hardware model of a mapped network.
#[derive(Debug, Clone)]
pub struct HwCore {
    input_count: usize,
    layers: Vec<HwLayer>,
    /// Crossbar reads performed.
    pub reads_performed: u64,
    /// Crossbar reads skipped because the input window was silent
    /// (event-driven zero-check).
    pub reads_skipped: u64,
    event_driven: bool,
}

impl HwCore {
    /// Builds the hardware model from a detailed mapping and the weighted
    /// network it maps. Weights are normalized per layer (crossbars store
    /// `w / max|w|`) and thresholds rescaled to preserve IF dynamics.
    ///
    /// # Errors
    ///
    /// Returns [`HwBuildError`] if the mapping lacks details or disagrees
    /// with the network.
    pub fn build(network: &Network, mapping: &Mapping) -> Result<Self, HwBuildError> {
        if mapping.layer_count() != network.layers().len() {
            return Err(HwBuildError::LayerMismatch {
                mapping: mapping.layer_count(),
                network: network.layers().len(),
            });
        }
        let size = mapping.config.mca_size;
        let levels = mapping.config.mca_levels;
        let mut layers = Vec::with_capacity(mapping.layer_count());

        for (part, net_layer) in mapping.partitions.iter().zip(network.layers()) {
            let details = part.details.as_ref().ok_or(HwBuildError::MissingDetails)?;
            let weights = net_layer.weights();
            let wmax = weights
                .iter()
                .fold(0.0f32, |m, &w| m.max(w.abs()))
                .max(1e-12);

            let mut tiles = Vec::with_capacity(details.len());
            for det in details {
                let mut xbar = Crossbar::new(size, mapping.config.device, levels);
                let mut synapses = Vec::new();
                let mut col_outputs = Vec::with_capacity(det.columns.len());
                for (c, col) in det.columns.iter().enumerate() {
                    col_outputs.push(col.output);
                    for &(row_slot, wid) in &col.synapses {
                        let w = weights[wid as usize] / wmax;
                        synapses.push((row_slot as usize, c, f64::from(w)));
                    }
                }
                // resparc-lint: allow(no-panic, reason = "partitioner invariant: every emitted tile fits its crossbar by construction")
                xbar.program(&synapses).expect("tile fits its crossbar");
                tiles.push(HwTile {
                    crossbar: xbar,
                    row_inputs: det.row_inputs.clone(),
                    col_outputs,
                });
            }
            layers.push(HwLayer {
                tiles,
                membranes: vec![Membrane::new(); net_layer.spec().output_count()],
                threshold: net_layer.threshold() / wmax,
            });
        }

        Ok(Self {
            input_count: network.input_count(),
            layers,
            reads_performed: 0,
            reads_skipped: 0,
            event_driven: mapping.config.event_driven,
        })
    }

    /// Applies device variation to every crossbar (deterministic per
    /// seed), for non-ideality studies.
    pub fn apply_variation(&mut self, seed: u64) {
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (ti, tile) in layer.tiles.iter_mut().enumerate() {
                tile.crossbar
                    .apply_variation(seed ^ ((li as u64) << 32) ^ ti as u64);
            }
        }
    }

    /// Number of input neurons.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Advances one timestep; returns the output layer's spikes.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != input_count()`.
    pub fn step(&mut self, input: impl AsSpikeView) -> SpikeVector {
        let input = input.as_view();
        assert_eq!(input.len(), self.input_count, "input size mismatch");
        let mut current_spikes = input.to_vector();
        for layer in &mut self.layers {
            let mut currents = vec![0.0f64; layer.membranes.len()];
            for tile in &layer.tiles {
                // Gather this tile's row window.
                let mut rows = vec![false; tile.crossbar.size()];
                let mut any = false;
                for (slot, &inp) in tile.row_inputs.iter().enumerate() {
                    let s = current_spikes.get(inp as usize);
                    rows[slot] = s;
                    any |= s;
                }
                if self.event_driven && !any {
                    self.reads_skipped += 1;
                    continue;
                }
                self.reads_performed += 1;
                let cols = tile.crossbar.read(&rows);
                for (c, &out) in tile.col_outputs.iter().enumerate() {
                    currents[out as usize] += cols[c];
                }
            }
            let mut spikes = SpikeVector::new(layer.membranes.len());
            for (o, m) in layer.membranes.iter_mut().enumerate() {
                if m.step(currents[o] as f32, layer.threshold) {
                    spikes.set(o, true);
                }
            }
            current_spikes = spikes;
        }
        current_spikes
    }

    /// Resets membranes and statistics.
    pub fn reset(&mut self) {
        for layer in &mut self.layers {
            for m in &mut layer.membranes {
                m.reset();
            }
        }
        self.reads_performed = 0;
        self.reads_skipped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResparcConfig;
    use crate::map::Mapper;
    use resparc_neuro::encoding::{RegularEncoder, TtfsEncoder};
    use resparc_neuro::network::Network;
    use resparc_neuro::topology::Topology;

    fn high_precision_cfg() -> ResparcConfig {
        // Fine conductance quantization so the analog path matches the
        // float functional simulator tightly.
        let mut cfg = ResparcConfig::with_mca_size(16);
        cfg.mca_levels = 1 << 14;
        cfg
    }

    fn build_pair(seed: u64) -> (Network, HwCore) {
        let mut net = Network::random(Topology::mlp(24, &[18, 6]), seed, 1.0);
        // Keep activity in a healthy range for the test.
        for layer in net.layers_mut() {
            layer.set_threshold(0.8);
        }
        let mapping = Mapper::new(high_precision_cfg())
            .with_details()
            .map_network(&net)
            .unwrap();
        let hw = HwCore::build(&net, &mapping).unwrap();
        (net, hw)
    }

    #[test]
    fn hardware_matches_functional_simulator() {
        let stimulus: Vec<f32> = (0..24).map(|i| (i as f32) / 24.0).collect();
        // A rate raster, and a TTFS raster with a long silent tail on a
        // network whose armed residues keep firing after the input goes
        // quiet: this full walk checks the functional runner's skip of
        // silent layer-steps.
        let cases = [
            (11, RegularEncoder::new(1.0).encode(&stimulus, 60)),
            (5, TtfsEncoder::with_window(2).encode(&stimulus, 60)),
        ];
        for (seed, raster) in &cases {
            let (net, mut hw) = build_pair(*seed);
            let mut runner = net.spiking();
            for (t, step) in raster.iter().enumerate() {
                let sw = runner.step(step).clone();
                let hwout = hw.step(step);
                assert_eq!(sw, hwout, "output spikes diverged at timestep {t}");
            }
        }
    }

    #[test]
    fn event_driven_skips_silent_windows() {
        let (_, mut hw) = build_pair(5);
        // An all-silent input step must skip every layer-0 read.
        let silent = SpikeVector::new(24);
        hw.step(&silent);
        assert_eq!(hw.reads_performed, 0);
        assert!(hw.reads_skipped > 0);
    }

    #[test]
    fn reads_resume_on_activity() {
        let (_, mut hw) = build_pair(5);
        let mut v = SpikeVector::new(24);
        v.set(3, true);
        hw.step(&v);
        assert!(hw.reads_performed > 0);
    }

    #[test]
    fn build_requires_details() {
        let net = Network::random(Topology::mlp(8, &[4]), 0, 1.0);
        let mapping = Mapper::new(high_precision_cfg()).map_network(&net).unwrap();
        assert_eq!(
            HwCore::build(&net, &mapping).unwrap_err(),
            HwBuildError::MissingDetails
        );
    }

    #[test]
    fn reset_clears_counters() {
        let (_, mut hw) = build_pair(7);
        let mut v = SpikeVector::new(24);
        v.set(0, true);
        hw.step(&v);
        hw.reset();
        assert_eq!(hw.reads_performed, 0);
        assert_eq!(hw.reads_skipped, 0);
    }

    #[test]
    fn variation_changes_behaviour_without_crashing() {
        let (_, mut hw) = build_pair(13);
        hw.apply_variation(42);
        let mut v = SpikeVector::new(24);
        for i in 0..24 {
            v.set(i, i % 2 == 0);
        }
        let _ = hw.step(&v);
    }
}
