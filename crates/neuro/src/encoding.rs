//! Input spike coding: converting analog stimulus intensities into spike
//! trains, and the matching readout rules for classifying the output.
//!
//! SNNs "require the input to be encoded as spike trains" (paper §2.1).
//! This module provides every coding scheme the suite knows as an encoder
//! struct, plus the [`Encoding`] value type that selects one: the workload
//! sweeps thread it through their configurations and call
//! [`Encoding::encode`]:
//!
//! * [`PoissonEncoder`] — stochastic Bernoulli/Poisson **rate coding**: a
//!   pixel of intensity `p ∈ [0, 1]` spikes with probability
//!   `p · max_rate` in each timestep. The scheme the Diehl et al.
//!   conversion flow the paper trains with assumes; accuracy degrades
//!   gracefully, spike traffic scales with `steps`.
//! * [`RegularEncoder`] — deterministic evenly-spaced spikes at the same
//!   mean rate (noise-free rate coding for exact tests).
//! * [`TtfsEncoder`] — **time-to-first-spike** coding: each input emits at
//!   most one spike over the whole window, earlier for higher intensity.
//!   The sparsest code possible (≤ 1 spike/input/inference); the natural
//!   readout is first-spike latency, not rate.
//! * [`BurstEncoder`] — **burst coding**: intensity-proportional burst
//!   length at a configurable inter-spike gap, all bursts onset-aligned
//!   at `t = 0`. Mean traffic is bounded by `max_burst`, independent of
//!   the timestep budget.
//!
//! ## When each code applies
//!
//! Rate coding is the robust default — it is what ANN→SNN conversion
//! preserves — but its spike count (and therefore RESPARC's event-driven
//! energy) grows linearly with the presentation window. TTFS and burst
//! codes decouple traffic from the window: a TTFS presentation moves at
//! most one spike per input, a burst presentation at most `max_burst`.
//! On the event-driven fabric (paper §3.2) that translates directly into
//! fewer packets past the zero-check, fewer crossbar reads, and silent
//! tail steps that cost only the clocked minimum — trade-offs only the
//! trace-driven [`EventSimulator`] can price, which is exactly what
//! [`encoding_energy_sweep`] measures.
//!
//! The decoder side lives in [`Readout`]: rate codes are read out by
//! max-spike-count, TTFS by earliest first spike
//! ([`Classification::decode`]).
//!
//! [`EventSimulator`]: ../../resparc_core/sim/event/struct.EventSimulator.html
//! [`encoding_energy_sweep`]: ../../resparc_workloads/sweep/fn.encoding_energy_sweep.html
//! [`Classification::decode`]: crate::network::Classification::decode

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::spike::SpikeRaster;

/// How a spiking classification outcome should be read out — the decoder
/// half of a coding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Readout {
    /// Max-spike-count over the window (rate and burst codes).
    Rate,
    /// Earliest first output spike wins (TTFS; ties broken by spike
    /// count, then index; falls back to the rate readout when no output
    /// spiked at all).
    FirstSpike,
}

/// Stochastic rate encoder: intensity `p` spikes with probability
/// `p × max_rate` per timestep, independently across steps and neurons.
#[derive(Debug)]
pub struct PoissonEncoder {
    max_rate: f64,
    rng: StdRng,
}

impl PoissonEncoder {
    /// Creates an encoder with the given peak per-step spike probability
    /// and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate` is outside `(0, 1]`.
    pub fn new(max_rate: f64, seed: u64) -> Self {
        assert!(
            max_rate > 0.0 && max_rate <= 1.0,
            "max_rate must be in (0, 1], got {max_rate}"
        );
        Self {
            max_rate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Peak per-step spike probability.
    pub fn max_rate(&self) -> f64 {
        self.max_rate
    }

    /// Encodes intensities (`[0, 1]`, clamped) into a raster of `steps`
    /// timesteps, advancing the encoder's own RNG.
    ///
    /// Each step draws once per lit input (spike probability above zero;
    /// a NaN intensity counts as dark), in ascending input order, so the
    /// draws follow the lit inputs, not the input width.
    pub fn encode(&mut self, intensities: &[f32], steps: usize) -> SpikeRaster {
        let lit: Vec<(usize, f64)> = intensities
            .iter()
            .map(|&p| (p.clamp(0.0, 1.0) as f64) * self.max_rate)
            .enumerate()
            .filter(|&(_, prob)| prob > 0.0)
            .collect();
        let mut raster = SpikeRaster::zeroed(intensities.len(), steps);
        for t in 0..steps {
            for &(i, prob) in &lit {
                #[cfg(test)]
                tests::VISITS.with(|v| v.set(v.get() + 1));
                if self.rng.random_bool(prob) {
                    raster.set(t, i, true);
                }
            }
        }
        raster
    }
}

/// Deterministic rate encoder: intensity `p` produces evenly spaced spikes
/// with mean rate `p × max_rate` using per-neuron phase accumulators.
#[derive(Debug, Clone)]
pub struct RegularEncoder {
    max_rate: f64,
}

impl RegularEncoder {
    /// Creates an encoder with the given peak per-step rate.
    ///
    /// # Panics
    ///
    /// Panics if `max_rate` is outside `(0, 1]`.
    pub fn new(max_rate: f64) -> Self {
        assert!(
            max_rate > 0.0 && max_rate <= 1.0,
            "max_rate must be in (0, 1], got {max_rate}"
        );
        Self { max_rate }
    }

    /// Encodes intensities into a deterministic raster of `steps`
    /// timesteps.
    pub fn encode(&self, intensities: &[f32], steps: usize) -> SpikeRaster {
        let mut raster = SpikeRaster::zeroed(intensities.len(), steps);
        let mut phase = vec![0.0f64; intensities.len()];
        for t in 0..steps {
            for (i, &p) in intensities.iter().enumerate() {
                phase[i] += (p.clamp(0.0, 1.0) as f64) * self.max_rate;
                if phase[i] >= 1.0 {
                    phase[i] -= 1.0;
                    raster.set(t, i, true);
                }
            }
        }
        raster
    }
}

/// Time-to-first-spike encoder: each input emits **exactly one spike** if
/// its intensity is positive (none otherwise), at a latency that decreases
/// with intensity — intensity `1` fires at step `0`, intensity `→ 0⁺`
/// fires at the end of the coding window.
///
/// Latency is `round((1 − p) · (window − 1))` with `p` clamped to
/// `[0, 1]` and `window` defaulting to the full presentation; latencies
/// are therefore monotone non-increasing in intensity, and the whole
/// raster carries at most one spike per input regardless of `steps`.
#[derive(Debug, Clone, Default)]
pub struct TtfsEncoder {
    window: Option<usize>,
}

impl TtfsEncoder {
    /// Creates a TTFS encoder whose coding window is the full
    /// presentation.
    pub fn new() -> Self {
        Self { window: None }
    }

    /// Creates a TTFS encoder that compresses all first-spike latencies
    /// into the first `window` timesteps (the tail of the presentation
    /// stays silent — the early-exit-friendly shape).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(window: usize) -> Self {
        assert!(window > 0, "TTFS window must be non-zero");
        Self {
            window: Some(window),
        }
    }

    /// Encodes intensities into a raster of `steps` timesteps
    /// (deterministic).
    pub fn encode(&self, intensities: &[f32], steps: usize) -> SpikeRaster {
        let window = self.window.unwrap_or(steps).min(steps);
        let mut raster = SpikeRaster::zeroed(intensities.len(), steps);
        if window > 0 {
            for (i, &p) in intensities.iter().enumerate() {
                let p = p.clamp(0.0, 1.0);
                if p > 0.0 {
                    let t = ((1.0 - p as f64) * (window - 1) as f64).round() as usize;
                    raster.set(t, i, true);
                }
            }
        }
        raster
    }
}

/// Burst encoder: each input emits a burst of `round(p · max_burst)`
/// spikes starting at step `0`, spaced `gap` timesteps apart (and
/// truncated by the presentation window) — intensity is carried by burst
/// *length*, so total traffic is bounded by `max_burst` per input however
/// long the presentation runs.
#[derive(Debug, Clone)]
pub struct BurstEncoder {
    max_burst: usize,
    gap: usize,
}

impl BurstEncoder {
    /// Creates a burst encoder with the given peak burst length and
    /// inter-spike gap (in timesteps; `1` means consecutive steps).
    ///
    /// # Panics
    ///
    /// Panics if `max_burst` or `gap` is zero.
    pub fn new(max_burst: usize, gap: usize) -> Self {
        assert!(max_burst > 0, "max_burst must be non-zero");
        assert!(gap > 0, "inter-spike gap must be non-zero");
        Self { max_burst, gap }
    }

    /// Peak burst length (spike count at intensity 1).
    pub fn max_burst(&self) -> usize {
        self.max_burst
    }

    /// Inter-spike gap in timesteps.
    pub fn gap(&self) -> usize {
        self.gap
    }

    /// Encodes intensities into a raster of `steps` timesteps
    /// (deterministic).
    pub fn encode(&self, intensities: &[f32], steps: usize) -> SpikeRaster {
        let mut raster = SpikeRaster::zeroed(intensities.len(), steps);
        for (i, &p) in intensities.iter().enumerate() {
            let p = p.clamp(0.0, 1.0);
            let burst = ((p as f64) * self.max_burst as f64).round() as usize;
            for k in 0..burst {
                let t = k * self.gap;
                if t >= steps {
                    break;
                }
                raster.set(t, i, true);
            }
        }
        raster
    }
}

/// Value-level selection of a coding scheme — the form workload
/// configurations carry (it is `Copy`, hashable and threadable through
/// parallel sweeps, unlike a boxed encoder).
///
/// Rate variants take their peak rate from the caller at encode time
/// (sweeps hold it as `SweepConfig::peak_rate`); temporal variants carry
/// their own parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Stochastic Poisson rate coding ([`PoissonEncoder`]).
    Rate,
    /// Deterministic evenly-spaced rate coding ([`RegularEncoder`]).
    RegularRate,
    /// Time-to-first-spike coding ([`TtfsEncoder`], full-window latency).
    Ttfs,
    /// Burst coding ([`BurstEncoder`]).
    Burst {
        /// Spike count at intensity 1.
        max_burst: usize,
        /// Inter-spike gap in timesteps.
        gap: usize,
    },
}

impl Encoding {
    /// Encodes a stimulus under this scheme: rate variants run at
    /// `peak_rate`, temporal variants ignore it. Deterministic per
    /// `(stimulus, steps, seed)`: only [`Encoding::Rate`] draws random
    /// numbers, from a fresh RNG seeded with `seed`, and the other codes
    /// ignore the seed. A silent stimulus (all intensities `<= 0`) yields
    /// a silent raster.
    ///
    /// # Panics
    ///
    /// Panics if a rate variant is selected with `peak_rate` outside
    /// `(0, 1]`, or a burst variant carries a zero `max_burst`/`gap`.
    pub fn encode(
        &self,
        peak_rate: f64,
        intensities: &[f32],
        steps: usize,
        seed: u64,
    ) -> SpikeRaster {
        match *self {
            Encoding::Rate => PoissonEncoder::new(peak_rate, seed).encode(intensities, steps),
            Encoding::RegularRate => RegularEncoder::new(peak_rate).encode(intensities, steps),
            Encoding::Ttfs => TtfsEncoder::new().encode(intensities, steps),
            Encoding::Burst { max_burst, gap } => {
                BurstEncoder::new(max_burst, gap).encode(intensities, steps)
            }
        }
    }

    /// The readout rule matching this code.
    pub fn readout(&self) -> Readout {
        match self {
            Encoding::Rate | Encoding::RegularRate | Encoding::Burst { .. } => Readout::Rate,
            Encoding::Ttfs => Readout::FirstSpike,
        }
    }

    /// Short scheme label (stable across parameter choices).
    pub fn label(&self) -> &'static str {
        match self {
            Encoding::Rate => "rate",
            Encoding::RegularRate => "regular-rate",
            Encoding::Ttfs => "ttfs",
            Encoding::Burst { .. } => "burst",
        }
    }
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Encoding::Burst { max_burst, gap } => write!(f, "burst(max {max_burst}, gap {gap})"),
            other => f.write_str(other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spike::SpikeVector;
    use std::cell::Cell;

    thread_local! {
        /// Inner-loop visits of `PoissonEncoder::encode` on this thread,
        /// one RNG draw each (each test runs on its own thread).
        pub(super) static VISITS: Cell<u64> = const { Cell::new(0) };
    }

    /// The per-input scan that `PoissonEncoder::encode` replaced, kept as
    /// its oracle: every input on every step, drawing for each input whose
    /// probability is above zero.
    fn encode_per_input(
        max_rate: f64,
        rng: &mut StdRng,
        intensities: &[f32],
        steps: usize,
    ) -> SpikeRaster {
        let mut raster = SpikeRaster::new(intensities.len());
        for _ in 0..steps {
            let mut v = SpikeVector::new(intensities.len());
            for (i, &p) in intensities.iter().enumerate() {
                let prob = (p.clamp(0.0, 1.0) as f64) * max_rate;
                if prob > 0.0 && rng.random_bool(prob) {
                    v.set(i, true);
                }
            }
            raster.push(v);
        }
        raster
    }

    #[test]
    fn poisson_draws_only_for_lit_inputs_in_the_per_input_order() {
        let mix = [
            0.0,
            -0.0,
            -0.5,
            1.5,
            f32::NAN,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            0.3,
            1.0,
            f32::NEG_INFINITY,
            f32::INFINITY,
            0.999,
            f32::EPSILON,
        ];
        let mixed: Vec<f32> = (0..100).map(|i| mix[(i * 7) % mix.len()]).collect();
        let dark: Vec<f32> = (0..70).map(|i| mix[[0, 1, 2, 4, 9][i % 5]]).collect();
        for (stimulus, lit) in [(&mixed, 60), (&dark, 0)] {
            assert_eq!(stimulus.iter().filter(|&&p| p > 0.0).count(), lit);
            for max_rate in [1e-3, 0.5, 1.0] {
                for steps in [0, 1, 20] {
                    let mut enc = PoissonEncoder::new(max_rate, 9);
                    let mut rng = StdRng::seed_from_u64(9);
                    // Twice on one encoder: the RNG stream carries over.
                    for call in 0..2 {
                        VISITS.with(|v| v.set(0));
                        let got = enc.encode(stimulus, steps);
                        let want = encode_per_input(max_rate, &mut rng, stimulus, steps);
                        let at = format!("rate {max_rate}, {steps} steps, call {call}");
                        assert_eq!(got, want, "{at}");
                        assert_eq!(VISITS.with(Cell::get), (lit * steps) as u64, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn poisson_rate_tracks_intensity() {
        let mut enc = PoissonEncoder::new(1.0, 7);
        let raster = enc.encode(&[0.5; 64], 2_000);
        let rate = raster.mean_rate();
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = PoissonEncoder::new(0.8, 42).encode(&[0.3; 32], 50);
        let b = PoissonEncoder::new(0.8, 42).encode(&[0.3; 32], 50);
        assert_eq!(a, b);
        let c = PoissonEncoder::new(0.8, 43).encode(&[0.3; 32], 50);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_intensity_is_silent() {
        let mut enc = PoissonEncoder::new(1.0, 1);
        let raster = enc.encode(&[0.0; 16], 100);
        assert_eq!(raster.total_spikes(), 0);
    }

    #[test]
    fn regular_rate_is_exact() {
        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[0.25], 400);
        assert_eq!(raster.total_spikes(), 100);
    }

    #[test]
    fn regular_spikes_are_evenly_spaced() {
        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[0.5], 10);
        // Rate 0.5: spike every other step — read straight from the set
        // bits instead of collecting per-bit booleans.
        let spike_steps: Vec<usize> = (0..raster.len())
            .filter(|&t| raster.step(t).iter_ones().next() == Some(0))
            .collect();
        assert_eq!(spike_steps, vec![1, 3, 5, 7, 9]);
        assert_eq!(raster.total_spikes(), 5);
    }

    #[test]
    fn intensities_above_one_are_clamped() {
        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[5.0], 10);
        assert_eq!(raster.total_spikes(), 10);
    }

    #[test]
    #[should_panic(expected = "max_rate must be in (0, 1]")]
    fn invalid_rate_panics() {
        let _ = PoissonEncoder::new(1.5, 0);
    }

    fn first_spike(raster: &SpikeRaster, i: usize) -> Option<usize> {
        raster.iter().position(|v| v.get(i))
    }

    #[test]
    fn ttfs_emits_exactly_one_spike_per_positive_input() {
        let enc = TtfsEncoder::new();
        let raster = enc.encode(&[1.0, 0.7, 0.3, 0.01, 0.0, -2.0], 20);
        let counts = raster.spike_counts();
        assert_eq!(counts, vec![1, 1, 1, 1, 0, 0]);
        // Intensity 1 fires immediately; near-zero fires at the window end.
        assert_eq!(first_spike(&raster, 0), Some(0));
        assert_eq!(first_spike(&raster, 3), Some(19));
    }

    #[test]
    fn ttfs_latency_is_monotone_in_intensity() {
        let intensities: Vec<f32> = (1..=50).map(|i| i as f32 / 50.0).collect();
        let raster = TtfsEncoder::new().encode(&intensities, 64);
        let times: Vec<usize> = (0..intensities.len())
            .map(|i| first_spike(&raster, i).expect("positive intensity must spike"))
            .collect();
        for pair in times.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "higher intensity must not spike later: {times:?}"
            );
        }
    }

    #[test]
    fn ttfs_window_compresses_latencies() {
        let enc = TtfsEncoder::with_window(5);
        let raster = enc.encode(&[0.01, 0.5, 1.0], 40);
        for i in 0..3 {
            assert!(first_spike(&raster, i).expect("spikes") < 5);
        }
        // The tail is fully silent.
        assert!(raster.iter().skip(5).all(|v| v.is_silent()));
    }

    #[test]
    fn burst_length_tracks_intensity() {
        let enc = BurstEncoder::new(8, 2);
        let raster = enc.encode(&[1.0, 0.5, 0.0], 40);
        let counts = raster.spike_counts();
        assert_eq!(counts, vec![8, 4, 0]);
        // Burst spikes are gap-spaced from t = 0.
        for k in 0..8 {
            assert!(raster.step(k * 2).get(0));
        }
        assert!(raster.step(1).is_silent());
    }

    #[test]
    fn burst_is_truncated_by_the_window() {
        let enc = BurstEncoder::new(10, 3);
        let raster = enc.encode(&[1.0], 8);
        // Only k*3 < 8 fits: k = 0, 1, 2.
        assert_eq!(raster.total_spikes(), 3);
    }

    #[test]
    fn encoding_enum_dispatches_and_labels() {
        let x = vec![0.9f32, 0.2, 0.0];
        for (enc, label) in [
            (Encoding::Rate, "rate"),
            (Encoding::RegularRate, "regular-rate"),
            (Encoding::Ttfs, "ttfs"),
            (
                Encoding::Burst {
                    max_burst: 4,
                    gap: 1,
                },
                "burst",
            ),
        ] {
            assert_eq!(enc.label(), label);
            let a = enc.encode(0.8, &x, 16, 3);
            let b = enc.encode(0.8, &x, 16, 3);
            assert_eq!(a, b, "{enc} must be deterministic per seed");
            assert_eq!(a.len(), 16);
            assert_eq!(a.neurons(), 3);
        }
        // Rate coding draws from a fresh RNG seeded per call.
        assert_eq!(
            Encoding::Rate.encode(0.8, &[0.4; 24], 30, 5),
            PoissonEncoder::new(0.8, 5).encode(&[0.4; 24], 30)
        );
        assert_eq!(Encoding::Ttfs.readout(), Readout::FirstSpike);
        assert_eq!(Encoding::Rate.readout(), Readout::Rate);
        assert_eq!(
            Encoding::Burst {
                max_burst: 4,
                gap: 2
            }
            .to_string(),
            "burst(max 4, gap 2)"
        );
    }

    #[test]
    #[should_panic(expected = "gap must be non-zero")]
    fn burst_zero_gap_panics() {
        let _ = BurstEncoder::new(4, 0);
    }
}
