//! Offline supervised training.
//!
//! The paper assumes its SNNs "have been trained offline using supervised
//! training algorithms" (Diehl et al. \[4\]: train a conventional ANN, then
//! convert). This module provides the offline side: a small but complete
//! mini-batch SGD trainer for MLPs (ReLU hidden layers, softmax
//! cross-entropy output) plus a fixed-random convolutional frontend for
//! CNN-shaped experiments, where only the dense head is trained — a
//! standard random-features substitution documented in DESIGN.md.
//!
//! Networks are trained **without bias terms**, exactly as the Diehl
//! conversion flow requires (biases have no natural crossbar realisation
//! and break rate-based conversion). Consequently classes must be
//! *direction*-separable in input space — true for images, and for the
//! synthetic datasets in `resparc-workloads`.
//!
//! # Examples
//!
//! ```
//! use resparc_neuro::train::{train_mlp, TrainConfig};
//!
//! // Learn the "is the first input bigger?" task.
//! let samples: Vec<(Vec<f32>, usize)> = (0..64)
//!     .map(|i| {
//!         let a = (i % 8) as f32 / 8.0;
//!         let b = ((i / 8) % 8) as f32 / 8.0;
//!         (vec![a, b], usize::from(a > b))
//!     })
//!     .collect();
//! let net = train_mlp(2, &[8, 2], &samples, &TrainConfig::quick_test());
//! let acc = samples
//!     .iter()
//!     .filter(|(x, y)| net.classify_analog(x) == *y)
//!     .count() as f64
//!     / samples.len() as f64;
//! assert!(acc > 0.8, "accuracy {acc}");
//! ```

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;

use crate::network::{Layer, Network};
use crate::topology::{ChannelTable, LayerSpec, Padding, Shape, Topology};

/// Hyper-parameters for [`train_mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl TrainConfig {
    /// A fast configuration for unit tests and doc examples.
    pub fn quick_test() -> Self {
        Self {
            learning_rate: 0.1,
            epochs: 60,
            batch_size: 16,
            weight_decay: 0.0,
            seed: 7,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            epochs: 25,
            batch_size: 32,
            weight_decay: 1e-5,
            seed: 42,
        }
    }
}

/// Trains an MLP (`input -> hidden... -> classes`, all dense) with
/// mini-batch SGD, ReLU hidden activations and softmax cross-entropy loss.
///
/// Returns a [`Network`] with thresholds 1.0 (normalise with
/// [`crate::convert::normalize_for_snn`] before spiking use).
///
/// # Panics
///
/// Panics if `samples` is empty, `layer_sizes` is empty, or any sample's
/// input length differs from `input_dim`.
pub fn train_mlp(
    input_dim: usize,
    layer_sizes: &[usize],
    samples: &[(Vec<f32>, usize)],
    cfg: &TrainConfig,
) -> Network {
    assert!(!samples.is_empty(), "training set must be non-empty");
    assert!(!layer_sizes.is_empty(), "need at least an output layer");
    for (x, _) in samples {
        assert_eq!(x.len(), input_dim, "sample input size mismatch");
    }
    let classes = *layer_sizes.last().expect("non-empty");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // He-initialised dense weight matrices, stored output-major
    // (w[o * inputs + i]) to match LayerSpec::Dense weight ids.
    let mut dims = Vec::with_capacity(layer_sizes.len() + 1);
    dims.push(input_dim);
    dims.extend_from_slice(layer_sizes);
    let mut weights: Vec<Vec<f32>> = dims
        .windows(2)
        .map(|d| {
            let (fan_in, fan_out) = (d[0], d[1]);
            let std = (2.0 / fan_in as f32).sqrt();
            (0..fan_in * fan_out)
                .map(|_| gaussian(&mut rng) * std)
                .collect()
        })
        .collect();

    let n_layers = weights.len();
    let mut order: Vec<usize> = (0..samples.len()).collect();

    for _epoch in 0..cfg.epochs {
        shuffle(&mut order, &mut rng);
        for batch in order.chunks(cfg.batch_size) {
            let mut grads: Vec<Vec<f32>> = weights.iter().map(|w| vec![0.0f32; w.len()]).collect();
            for &si in batch {
                let (x, y) = &samples[si];
                // Forward, keeping activations.
                let mut acts: Vec<Vec<f32>> = Vec::with_capacity(n_layers + 1);
                acts.push(x.clone());
                for (li, w) in weights.iter().enumerate() {
                    let (fan_in, fan_out) = (dims[li], dims[li + 1]);
                    let prev = &acts[li];
                    let mut out = vec![0.0f32; fan_out];
                    for o in 0..fan_out {
                        let row = &w[o * fan_in..(o + 1) * fan_in];
                        out[o] = row.iter().zip(prev).map(|(a, b)| a * b).sum();
                    }
                    if li + 1 < n_layers {
                        for v in &mut out {
                            *v = v.max(0.0);
                        }
                    }
                    acts.push(out);
                }
                // Softmax cross-entropy gradient at the output.
                let logits = acts.last().expect("output");
                let mut delta = softmax(logits);
                delta[*y] -= 1.0;
                // Backward.
                let mut deltas = delta;
                for li in (0..n_layers).rev() {
                    let (fan_in, fan_out) = (dims[li], dims[li + 1]);
                    let prev = &acts[li];
                    let g = &mut grads[li];
                    for o in 0..fan_out {
                        let d = deltas[o];
                        if d == 0.0 {
                            continue;
                        }
                        let row = &mut g[o * fan_in..(o + 1) * fan_in];
                        for (gi, &p) in row.iter_mut().zip(prev) {
                            *gi += d * p;
                        }
                    }
                    if li > 0 {
                        let w = &weights[li];
                        let mut next = vec![0.0f32; fan_in];
                        for o in 0..fan_out {
                            let d = deltas[o];
                            if d == 0.0 {
                                continue;
                            }
                            let row = &w[o * fan_in..(o + 1) * fan_in];
                            for (n, &wv) in next.iter_mut().zip(row) {
                                *n += d * wv;
                            }
                        }
                        // ReLU derivative gate.
                        for (n, &a) in next.iter_mut().zip(&acts[li]) {
                            if a <= 0.0 {
                                *n = 0.0;
                            }
                        }
                        deltas = next;
                    }
                }
            }
            let scale = cfg.learning_rate / batch.len() as f32;
            for (w, g) in weights.iter_mut().zip(&grads) {
                for (wv, &gv) in w.iter_mut().zip(g) {
                    *wv -= scale * gv + cfg.weight_decay * *wv;
                }
            }
        }
    }

    let layers = dims
        .windows(2)
        .zip(weights)
        .map(|(d, w)| {
            Layer::new(
                LayerSpec::Dense {
                    inputs: d[0],
                    outputs: d[1],
                },
                w,
                1.0,
            )
        })
        .collect();
    let net = Network::new(input_dim, layers);
    debug_assert_eq!(net.output_count(), classes);
    net
}

/// Builds a CNN-shaped network whose convolutional frontend uses *fixed
/// random* filters (He-scaled) and whose dense head is trained on the
/// frontend's features.
///
/// This is the documented substitution for full CNN backprop: the paper
/// only needs trained-looking weight distributions and an
/// accuracy-vs-precision trend, which random convolutional features plus a
/// trained head deliver.
///
/// # Panics
///
/// Panics if `head_sizes` is empty, `samples` is empty, or a frontend
/// layer is degenerate
/// ([`TopologyError::InvalidLayer`](crate::topology::TopologyError::InvalidLayer)).
pub fn train_cnn_with_random_frontend(
    input: Shape,
    frontend: &[FrontendLayer],
    head_sizes: &[usize],
    samples: &[(Vec<f32>, usize)],
    cfg: &TrainConfig,
) -> Network {
    assert!(!head_sizes.is_empty(), "need at least an output layer");
    // Build the frontend topology.
    let mut builder = Topology::builder(input);
    for fl in frontend {
        builder = match *fl {
            FrontendLayer::Conv { maps, kernel, fan } => builder.conv(
                maps,
                kernel,
                Padding::Valid,
                match fan {
                    0 => ChannelTable::Full,
                    f => ChannelTable::Banded { fan: f },
                },
            ),
            FrontendLayer::Pool { window } => builder.pool(window),
        };
    }
    let front_topology = builder
        .clone()
        .dense(*head_sizes.last().expect("non-empty"))
        .build()
        .expect("frontend layers are well formed");
    let front_layer_count = front_topology.layer_count() - 1;
    let front_net = Network::random(
        Topology::new(
            input.count(),
            front_topology.layers()[..front_layer_count].to_vec(),
        )
        .expect("frontend prefix is consistent"),
        cfg.seed ^ 0x5eed,
        1.2,
    );

    // Extract features for every sample on the frontend's compiled
    // kernels (one enumeration of the conv geometry for the whole set),
    // in parallel across samples.
    let feat_dim = front_net
        .layers()
        .last()
        .expect("frontend")
        .spec()
        .output_count();
    let kernels = front_net.compiled();
    let feats: Vec<(Vec<f32>, usize)> = samples
        .par_iter()
        .map(|(x, y)| {
            let f = kernels.forward(x);
            // Frontend outputs feed the head post-ReLU.
            (f.iter().map(|v| v.max(0.0)).collect(), *y)
        })
        .collect();
    let head = train_mlp(feat_dim, head_sizes, &feats, cfg);

    // Stitch frontend + head into one network.
    let mut layers: Vec<Layer> = front_net.layers().to_vec();
    layers.extend(head.layers().iter().cloned());
    Network::new(input.count(), layers)
}

/// One frontend layer description for
/// [`train_cnn_with_random_frontend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendLayer {
    /// Valid-padded convolution; `fan == 0` means a full channel table.
    Conv {
        /// Output feature maps.
        maps: usize,
        /// Square kernel edge.
        kernel: usize,
        /// Banded channel-table fan (0 = full).
        fan: usize,
    },
    /// Non-overlapping average pooling.
    Pool {
        /// Window edge.
        window: usize,
    },
}

fn softmax(logits: &[f32]) -> Vec<f32> {
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

fn shuffle(xs: &mut [usize], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two direction-separable Gaussian blobs in 4-D. Note the networks
    /// (like Diehl-converted SNNs) have no bias terms, so classes must
    /// differ in *direction*, not just magnitude.
    fn blob_samples(n: usize, seed: u64) -> Vec<(Vec<f32>, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let class = i % 2;
                let x = (0..4)
                    .map(|d| {
                        let center = if d % 2 == class { 0.8 } else { 0.2 };
                        (center + 0.08 * gaussian(&mut rng)).clamp(0.0, 1.0)
                    })
                    .collect();
                (x, class)
            })
            .collect()
    }

    #[test]
    fn mlp_learns_separable_blobs() {
        let train = blob_samples(200, 1);
        let test = blob_samples(60, 2);
        let net = train_mlp(4, &[16, 2], &train, &TrainConfig::quick_test());
        let acc = test
            .iter()
            .filter(|(x, y)| net.classify_analog(x) == *y)
            .count() as f64
            / test.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let train = blob_samples(50, 3);
        let cfg = TrainConfig::quick_test();
        let a = train_mlp(4, &[8, 2], &train, &cfg);
        let b = train_mlp(4, &[8, 2], &train, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn cnn_random_frontend_trains_head() {
        // 8x8 inputs, 2 classes: left-half bright vs right-half bright.
        let mut samples = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..120 {
            let class = i % 2;
            let mut img = vec![0.0f32; 64];
            for y in 0..8 {
                for x in 0..8 {
                    let bright = if class == 0 { x < 4 } else { x >= 4 };
                    img[y * 8 + x] = if bright {
                        0.7 + 0.3 * rng.random::<f32>()
                    } else {
                        0.1 * rng.random::<f32>()
                    };
                }
            }
            samples.push((img, class));
        }
        let net = train_cnn_with_random_frontend(
            Shape::new(8, 8, 1),
            &[
                FrontendLayer::Conv {
                    maps: 4,
                    kernel: 3,
                    fan: 0,
                },
                FrontendLayer::Pool { window: 2 },
            ],
            &[8, 2],
            &samples,
            &TrainConfig::quick_test(),
        );
        // Network shape: conv, pool, dense, dense.
        assert_eq!(net.layers().len(), 4);
        let acc = samples
            .iter()
            .filter(|(x, y)| net.classify_analog(x) == *y)
            .count() as f64
            / samples.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_panics() {
        let _ = train_mlp(4, &[2], &[], &TrainConfig::quick_test());
    }
}
