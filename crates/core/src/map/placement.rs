//! Tile placement: assigning tiles to MCA slots, mPEs and NeuroCells.
//!
//! Placement follows the paper's spatial-scaling story (§3.1.3, Fig. 7):
//! tiles fill mPEs four at a time, mPEs fill NeuroCells sixteen at a
//! time, and a layer that outgrows a NeuroCell spills into the next one.
//! Layers are placed contiguously, so intra-layer and adjacent-layer
//! traffic stays on the switch network wherever the two layers share a
//! NeuroCell, and crosses the global bus (through the input SRAM)
//! otherwise.
//!
//! Placement also derives the Current-Control-Unit (CCU) traffic: an
//! output whose fan-in chunks span more mPEs than one mPE's MCA count
//! must receive analog partial currents from neighbouring mPEs over the
//! gated wires (§3.1.2, Fig. 4).

use crate::config::ResparcConfig;
use crate::map::partition::LayerPartition;

/// Where one layer's tiles landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpan {
    /// Layer index.
    pub layer: usize,
    /// First global mPE index used.
    pub first_mpe: usize,
    /// One past the last global mPE index used.
    pub end_mpe: usize,
    /// First NeuroCell index used.
    pub first_nc: usize,
    /// One past the last NeuroCell index used.
    pub end_nc: usize,
    /// Tiles (MCAs) used by this layer.
    pub tiles: usize,
    /// Expected analog CCU current transfers per timestep (outputs whose
    /// chunk tiles span multiple mPEs).
    pub ccu_transfers_per_step: u64,
}

impl LayerSpan {
    /// Number of mPEs this layer occupies.
    pub fn mpe_count(&self) -> usize {
        self.end_mpe - self.first_mpe
    }

    /// Number of NeuroCells this layer touches.
    pub fn nc_count(&self) -> usize {
        self.end_nc - self.first_nc
    }
}

/// The full placement of a network.
///
/// All mPE / NeuroCell indices are **pool coordinates**: a placement at
/// `origin_nc == 0` owns the fabric from NC 0 (the historical
/// single-tenant view), while a tenant admitted to a
/// [`FabricPool`](crate::fabric::FabricPool) is placed at the first NC of
/// its allocated run and every span carries that offset. Counts
/// (`mpes_used`, `ncs_used`, span widths) are origin-independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Per-layer spans, in layer order (pool coordinates).
    pub layers: Vec<LayerSpan>,
    /// First NeuroCell this placement occupies (0 for a dedicated
    /// fabric).
    pub origin_nc: usize,
    /// Total mPEs used.
    pub mpes_used: usize,
    /// Total NeuroCells used.
    pub ncs_used: usize,
    /// Total MCA slots used.
    pub mcas_used: usize,
}

impl Placement {
    /// First mPE index this placement occupies (pool coordinates).
    pub fn origin_mpe(&self, config: &ResparcConfig) -> usize {
        self.origin_nc * config.mpes_per_nc()
    }

    /// One past the last NeuroCell this placement occupies.
    pub fn end_nc(&self) -> usize {
        self.origin_nc + self.ncs_used
    }

    /// This placement re-anchored at `new_origin_nc`, left or right. A
    /// [`FabricPool`](crate::fabric::FabricPool) moves an origin-0 probe
    /// into its allocated run with it, and a defragmenting compaction
    /// slides resident tenants toward NC 0 with it. It is a whole-NC
    /// coordinate shift with no re-partitioning, so every span width,
    /// tile assignment and boundary-crossing classification — and
    /// therefore every replayed energy/cycle charge — is preserved
    /// bit-for-bit.
    ///
    /// [`place_with_origin`] is its oracle: placement packs contiguously
    /// from its origin, so translating equals re-placing the same
    /// partitions at `new_origin_nc` (unit- and property-tested in
    /// `tests/proptests.rs`).
    pub fn translated_to(&self, new_origin_nc: usize, config: &ResparcConfig) -> Placement {
        let mpes_per_nc = config.mpes_per_nc();
        let old_mpe = self.origin_nc * mpes_per_nc;
        let new_mpe = new_origin_nc * mpes_per_nc;
        let layers = self
            .layers
            .iter()
            .map(|s| LayerSpan {
                first_mpe: s.first_mpe - old_mpe + new_mpe,
                end_mpe: s.end_mpe - old_mpe + new_mpe,
                first_nc: s.first_nc - self.origin_nc + new_origin_nc,
                end_nc: s.end_nc - self.origin_nc + new_origin_nc,
                ..s.clone()
            })
            .collect();
        Placement {
            layers,
            origin_nc: new_origin_nc,
            ..self.clone()
        }
    }

    /// Whether the boundary feeding `layer` crosses NeuroCells (layer 0's
    /// boundary is the input SRAM and always uses the bus).
    pub fn boundary_crosses_nc(&self, layer: usize) -> bool {
        if layer == 0 {
            return true;
        }
        let producer = &self.layers[layer - 1];
        let consumer = &self.layers[layer];
        // The boundary stays on the switch network only when both ends
        // live entirely inside the same single NeuroCell.
        !(producer.nc_count() == 1
            && consumer.nc_count() == 1
            && producer.first_nc == consumer.first_nc)
    }
}

/// Places layer partitions onto the machine described by `config`.
///
/// Tiles are assigned in order: the chunk tiles of an output group are
/// interleaved by the partitioner in chunk-major order, so placement
/// groups an output's chunks into the same mPE where capacity allows
/// (`mcas_per_mpe` chunks locally, the paper's Fig. 5 configuration).
pub fn place(partitions: &[LayerPartition], config: &ResparcConfig) -> Placement {
    place_with_origin(partitions, config, 0)
}

/// Places layer partitions starting at NeuroCell `origin_nc` — the
/// pool-coordinate view a [`FabricPool`](crate::fabric::FabricPool)
/// tenant is expressed in, and the oracle
/// [`Placement::translated_to`] is tested against. `place` is exactly
/// `place_with_origin(.., 0)`, so the dedicated-fabric path is unchanged
/// bit-for-bit.
pub fn place_with_origin(
    partitions: &[LayerPartition],
    config: &ResparcConfig,
    origin_nc: usize,
) -> Placement {
    let mcas_per_mpe = config.mcas_per_mpe;
    let mpes_per_nc = config.mpes_per_nc();
    let origin_mpe = origin_nc * mpes_per_nc;

    let mut layers = Vec::with_capacity(partitions.len());
    let mut next_mpe = origin_mpe;

    for part in partitions {
        let tiles = part.tile_count();
        // Each layer starts on a fresh mPE (layers do not share mPEs:
        // their neurons and control are distinct).
        let first_mpe = next_mpe;
        let mpes = tiles.div_ceil(mcas_per_mpe).max(usize::from(tiles > 0));
        next_mpe += mpes;

        let first_nc = first_mpe / mpes_per_nc;
        let end_nc = (next_mpe - 1) / mpes_per_nc + 1;

        // CCU traffic: an output of degree d integrates currents from d
        // chunk tiles; one mPE hosts up to `mcas_per_mpe` of them, so
        // ceil(d / mcas_per_mpe) - 1 inter-mPE transfers per output per
        // timestep.
        let mut ccu = 0u64;
        let d = part.max_degree as usize;
        if d > mcas_per_mpe {
            let remote_mpes = d.div_ceil(mcas_per_mpe) - 1;
            ccu = part.outputs as u64 * remote_mpes as u64;
        }

        layers.push(LayerSpan {
            layer: part.layer,
            first_mpe,
            end_mpe: next_mpe,
            first_nc,
            end_nc,
            tiles,
            ccu_transfers_per_step: ccu,
        });
    }

    let ncs_used = layers
        .last()
        .map_or(0, |_| next_mpe.div_ceil(mpes_per_nc) - origin_nc);
    Placement {
        mcas_used: partitions.iter().map(|p| p.tile_count()).sum(),
        origin_nc,
        mpes_used: next_mpe - origin_mpe,
        ncs_used,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::partition::{partition_layer, PartitionOptions};
    use resparc_neuro::connectivity::ConnectivityMatrix;
    use resparc_neuro::topology::LayerSpec;

    fn dense_partition(inputs: usize, outputs: usize, n: usize, layer: usize) -> LayerPartition {
        let c = ConnectivityMatrix::from_layer(&LayerSpec::Dense { inputs, outputs });
        partition_layer(&c, layer, &PartitionOptions::new(n))
    }

    #[test]
    fn small_net_fits_one_neurocell() {
        let cfg = ResparcConfig::resparc_64();
        let parts = vec![
            dense_partition(64, 64, 64, 0),
            dense_partition(64, 10, 64, 1),
        ];
        let p = place(&parts, &cfg);
        assert_eq!(p.mcas_used, 2);
        assert_eq!(p.mpes_used, 2);
        assert_eq!(p.ncs_used, 1);
        assert!(!p.boundary_crosses_nc(1));
        assert!(p.boundary_crosses_nc(0)); // input always via SRAM/bus
    }

    #[test]
    fn big_layer_spans_neurocells() {
        let cfg = ResparcConfig::resparc_64();
        // 784×800 dense: 13 chunks × 13 col-tiles = 169 tiles → 43 mPEs
        // → 3 NCs.
        let parts = vec![dense_partition(784, 800, 64, 0)];
        let p = place(&parts, &cfg);
        assert_eq!(p.layers[0].tiles, 13 * 13);
        assert_eq!(p.mpes_used, 169usize.div_ceil(4));
        assert_eq!(p.ncs_used, p.mpes_used.div_ceil(16));
        assert!(p.layers[0].nc_count() >= 2);
    }

    #[test]
    fn ccu_transfers_appear_beyond_local_multiplexing() {
        let cfg = ResparcConfig::resparc_64();
        // Fan-in 784 on 64 ⇒ degree 13 > 4 MCAs/mPE ⇒ ceil(13/4)-1 = 3
        // remote transfers per output per step.
        let parts = vec![dense_partition(784, 100, 64, 0)];
        let p = place(&parts, &cfg);
        assert_eq!(p.layers[0].ccu_transfers_per_step, 100 * 3);

        // Fan-in 64 ⇒ degree 1 ⇒ no CCU traffic.
        let parts2 = vec![dense_partition(64, 100, 64, 0)];
        let p2 = place(&parts2, &cfg);
        assert_eq!(p2.layers[0].ccu_transfers_per_step, 0);
    }

    #[test]
    fn layers_do_not_share_mpes() {
        let cfg = ResparcConfig::resparc_64();
        let parts = vec![
            dense_partition(64, 30, 64, 0), // 1 tile
            dense_partition(30, 20, 64, 1), // 1 tile
        ];
        let p = place(&parts, &cfg);
        assert_eq!(p.layers[0].end_mpe, p.layers[1].first_mpe);
        assert_eq!(p.mpes_used, 2);
    }

    #[test]
    fn origin_shifts_coordinates_but_not_counts() {
        let cfg = ResparcConfig::resparc_64();
        let parts = vec![
            dense_partition(784, 800, 64, 0),
            dense_partition(800, 10, 64, 1),
        ];
        let base = place(&parts, &cfg);
        let shifted = place_with_origin(&parts, &cfg, 5);
        assert_eq!(shifted.origin_nc, 5);
        assert_eq!(shifted.mpes_used, base.mpes_used);
        assert_eq!(shifted.ncs_used, base.ncs_used);
        assert_eq!(shifted.mcas_used, base.mcas_used);
        assert_eq!(shifted.end_nc(), 5 + base.ncs_used);
        assert_eq!(shifted.origin_mpe(&cfg), 5 * cfg.mpes_per_nc());
        let shift = 5 * cfg.mpes_per_nc();
        for (b, s) in base.layers.iter().zip(&shifted.layers) {
            assert_eq!(s.first_mpe, b.first_mpe + shift);
            assert_eq!(s.end_mpe, b.end_mpe + shift);
            assert_eq!(s.first_nc, b.first_nc + 5);
            assert_eq!(s.end_nc, b.end_nc + 5);
            assert_eq!(s.tiles, b.tiles);
            assert_eq!(s.ccu_transfers_per_step, b.ccu_transfers_per_step);
        }
        // Connectivity classification is origin-invariant.
        for l in 0..parts.len() {
            assert_eq!(shifted.boundary_crosses_nc(l), base.boundary_crosses_nc(l));
        }
    }

    #[test]
    fn translated_to_equals_placing_at_the_origin() {
        let cfg = ResparcConfig::resparc_64();
        let parts = vec![
            dense_partition(784, 800, 64, 0),
            dense_partition(800, 10, 64, 1),
        ];
        let base = place(&parts, &cfg);
        assert_eq!(
            base.translated_to(5, &cfg),
            place_with_origin(&parts, &cfg, 5)
        );
        assert_eq!(base.translated_to(0, &cfg), base);
    }

    #[test]
    fn translated_to_moves_left_as_well_as_right() {
        let cfg = ResparcConfig::resparc_64();
        let parts = vec![
            dense_partition(784, 800, 64, 0),
            dense_partition(800, 10, 64, 1),
        ];
        let at7 = place_with_origin(&parts, &cfg, 7);
        // Leftward re-anchoring (the defragmentation move) is exactly
        // re-placing at the lower origin.
        assert_eq!(
            at7.translated_to(2, &cfg),
            place_with_origin(&parts, &cfg, 2)
        );
        assert_eq!(at7.translated_to(0, &cfg), place(&parts, &cfg));
        // Round trip is the identity.
        assert_eq!(at7.translated_to(3, &cfg).translated_to(7, &cfg), at7);
        assert_eq!(at7.translated_to(7, &cfg), at7);
    }

    #[test]
    fn place_is_place_with_origin_zero() {
        let cfg = ResparcConfig::resparc_64();
        let parts = vec![
            dense_partition(64, 64, 64, 0),
            dense_partition(64, 10, 64, 1),
        ];
        assert_eq!(place(&parts, &cfg), place_with_origin(&parts, &cfg, 0));
        assert_eq!(place(&parts, &cfg).origin_nc, 0);
    }

    #[test]
    fn boundary_crossing_detection() {
        let cfg = ResparcConfig::resparc_64();
        // Layer 0 occupies >1 NC; boundary 1 must cross.
        let parts = vec![
            dense_partition(784, 800, 64, 0),
            dense_partition(800, 10, 64, 1),
        ];
        let p = place(&parts, &cfg);
        assert!(p.boundary_crosses_nc(1));
    }
}
