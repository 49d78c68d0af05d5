//! Golden digests of the mapper's partitions on the six Fig. 10
//! benchmarks.
//!
//! Each digest is FNV-1a over every layer's tiles, tile rows,
//! multiplexing degrees and sparsity flag at one MCA size. The values were
//! recorded from the ordered-map partitioner that the current routes were
//! checked against before it was removed, so they pin the general
//! connectivity-matrix path (the oracle of the dense grid tiler and of the
//! conv/pool packer streamed from layer geometry) and the mapper's
//! per-kind routes to that output.

use resparc_suite::prelude::*;
use resparc_suite::resparc_core::map::partition::{partition_layer, LayerPartition};

/// `(benchmark, MCA size, digest)`.
const GOLDEN: [(&str, usize, u64); 18] = [
    ("SVHN-MLP", 32, 0x214b_73b6_ba9f_9190),
    ("SVHN-MLP", 64, 0x6673_653e_318d_4adc),
    ("SVHN-MLP", 128, 0xcfe4_e6b7_635d_6d29),
    ("SVHN-CNN", 32, 0xe38f_2561_73b4_2812),
    ("SVHN-CNN", 64, 0xfcd6_a33a_35b9_ea70),
    ("SVHN-CNN", 128, 0x37b1_e47f_f945_abbd),
    ("MNIST-MLP", 32, 0x6410_3e79_52e1_1474),
    ("MNIST-MLP", 64, 0xef91_9d08_0b63_1245),
    ("MNIST-MLP", 128, 0x16bb_0255_a592_3cbe),
    ("MNIST-CNN", 32, 0xd169_b1e1_9989_da59),
    ("MNIST-CNN", 64, 0x6bf6_c1dd_9439_7006),
    ("MNIST-CNN", 128, 0x90f3_1953_decb_3d4a),
    ("CIFAR10-MLP", 32, 0xf186_61fe_d699_be18),
    ("CIFAR10-MLP", 64, 0x9f04_4d6d_96b5_457a),
    ("CIFAR10-MLP", 128, 0xef68_a10f_79d7_8008),
    ("CIFAR10-CNN", 32, 0x5016_9551_be4a_d3fd),
    ("CIFAR10-CNN", 64, 0xb9e6_0d43_bca1_acb4),
    ("CIFAR10-CNN", 128, 0xba1d_8498_ef40_37af),
];

/// 64-bit FNV-1a, fed little-endian `u64` words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(partitions: &[LayerPartition]) -> u64 {
    let mut h = Fnv1a::new();
    for p in partitions {
        h.word(p.tiles.len() as u64);
        for t in &p.tiles {
            for v in [
                t.layer as u64,
                t.chunk.into(),
                t.rows.into(),
                t.cols.into(),
                t.synapses.into(),
            ] {
                h.word(v);
            }
        }
        for rows in &p.tile_rows {
            h.word(rows.len() as u64);
            for &r in rows {
                h.word(r.into());
            }
        }
        h.word(p.max_degree.into());
        h.word(p.mean_degree.to_bits());
        h.word(p.sparse.into());
    }
    h.0
}

#[test]
fn partitions_match_golden_digests() {
    let benchmarks = resparc_suite::resparc_workloads::all_benchmarks();
    assert_eq!(benchmarks.len() * 3, GOLDEN.len());
    for b in &benchmarks {
        let conns: Vec<ConnectivityMatrix> = b
            .topology
            .layers()
            .iter()
            .map(ConnectivityMatrix::from_layer)
            .collect();
        for n in [32usize, 64, 128] {
            let &(_, _, want) = GOLDEN
                .iter()
                .find(|&&(name, size, _)| name == b.name && size == n)
                .expect("a golden digest for every benchmark and size");
            let general: Vec<LayerPartition> = conns
                .iter()
                .enumerate()
                .map(|(l, c)| partition_layer(c, l, &PartitionOptions::new(n)))
                .collect();
            assert_eq!(
                digest(&general),
                want,
                "{} at MCA {n}: general path",
                b.name
            );
            let mapped = Mapper::new(ResparcConfig::with_mca_size(n))
                .map(&b.topology)
                .unwrap();
            assert_eq!(
                digest(&mapped.partitions),
                want,
                "{} at MCA {n}: mapper",
                b.name
            );
        }
    }
}
