//! Spiking-neural-network substrate for the RESPARC reproduction.
//!
//! RESPARC (DAC 2017) accelerates *deep spiking neural networks*; this
//! crate is the complete algorithm-level substrate the architecture runs:
//!
//! * [`neuron`] — the Integrate-and-Fire neuron with subtractive reset,
//! * [`spike`] — bit-packed spike vectors/rasters and the zero-packet
//!   statistics behind the paper's event-driven optimisation,
//! * [`encoding`] — spike coding schemes selected by [`encoding::Encoding`]:
//!   Poisson/regular rate codes plus temporal TTFS and burst codes, with
//!   matching [`encoding::Readout`] rules,
//! * [`topology`] — MLP/CNN layer structures with a single synapse
//!   enumeration shared by simulator and hardware mapper,
//! * [`connectivity`] — per-layer sparse connectivity matrices,
//! * [`network`] — weighted networks, analog (ANN) forward pass and the
//!   event-driven functional SNN simulator (single-stimulus and batched),
//! * [`kernel`] — compiled synapse kernels: resolved-weight execution
//!   planes materialized once per network and shared by every path,
//! * [`train`] — offline SGD training (MLPs; random-feature frontends for
//!   CNNs),
//! * [`convert`] — Diehl-style ANN→SNN weight/threshold balancing,
//! * [`quantize`] — `2^bits`-level weight discretization (paper Fig. 14),
//! * [`stats`] — activity profiles consumed by the architecture and
//!   baseline simulators.
//!
//! # Examples
//!
//! End-to-end: train, convert, quantize, run spiking inference.
//!
//! ```
//! use resparc_neuro::prelude::*;
//!
//! // 1. Offline training on a toy task.
//! let samples: Vec<(Vec<f32>, usize)> = (0..60)
//!     .map(|i| {
//!         let v = (i % 10) as f32 / 10.0;
//!         (vec![v, 1.0 - v], usize::from(v > 0.5))
//!     })
//!     .collect();
//! let mut net = train_mlp(2, &[8, 2], &samples, &TrainConfig::quick_test());
//!
//! // 2. Balance for spiking operation and quantize to the paper's 4 bits.
//! let calib: Vec<Vec<f32>> = samples.iter().take(16).map(|(x, _)| x.clone()).collect();
//! normalize_for_snn(&mut net, &calib, 0.99);
//! let (net, _) = quantize_network(&net, Precision::paper_default());
//!
//! // 3. Rate-encode an input and classify with spikes.
//! let mut enc = PoissonEncoder::new(0.9, 1);
//! let raster = enc.encode(&[0.9, 0.1], 100);
//! let outcome = net.spiking().run(&raster);
//! assert_eq!(outcome.predicted, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod connectivity;
pub mod convert;
pub mod encoding;
pub mod kernel;
pub mod network;
pub mod neuron;
pub mod quantize;
pub mod spike;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod train;

pub use connectivity::ConnectivityMatrix;
pub use convert::{
    normalize_for_snn, rebalance_thresholds_for_ttfs, NormalizationReport, TtfsRebalanceReport,
};
pub use encoding::{BurstEncoder, Encoding, PoissonEncoder, Readout, RegularEncoder, TtfsEncoder};
pub use kernel::{CompiledLayer, CompiledNetwork};
pub use network::{Classification, Layer, Network, SnnRunner};
pub use neuron::Membrane;
pub use quantize::{quantize_network, Precision};
pub use spike::{SpikeRaster, SpikeVector};
pub use stats::{ActivityProfile, BoundaryStats};
pub use topology::{ChannelTable, LayerSpec, Padding, Shape, Topology, TopologyError};
pub use trace::SpikeTrace;
pub use train::{train_cnn_with_random_frontend, train_mlp, FrontendLayer, TrainConfig};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::connectivity::ConnectivityMatrix;
    pub use crate::convert::{
        normalize_for_snn, rebalance_thresholds_for_ttfs, NormalizationReport, TtfsRebalanceReport,
    };
    pub use crate::encoding::{
        BurstEncoder, Encoding, PoissonEncoder, Readout, RegularEncoder, TtfsEncoder,
    };
    pub use crate::kernel::{CompiledLayer, CompiledNetwork};
    pub use crate::network::{Classification, Layer, Network, SnnRunner};
    pub use crate::neuron::Membrane;
    pub use crate::quantize::{quantize_network, Precision};
    pub use crate::spike::{SpikeRaster, SpikeVector};
    pub use crate::stats::{ActivityProfile, BoundaryStats};
    pub use crate::topology::{ChannelTable, LayerSpec, Padding, Shape, Topology, TopologyError};
    pub use crate::trace::SpikeTrace;
    pub use crate::train::{train_cnn_with_random_frontend, train_mlp, FrontendLayer, TrainConfig};
}
