//! Spike-activity statistics consumed by the architectural simulators.
//!
//! The RESPARC and CMOS-baseline simulators are *activity-driven*: given a
//! network topology and how often each layer spikes, they compute cycles
//! and energy. An [`ActivityProfile`] carries exactly that — per-boundary
//! firing rates plus (optionally) measured zero-packet probabilities, the
//! statistic the event-driven zero-check hardware exploits (paper §3.2,
//! Fig. 13).
//!
//! "Boundary" indexing: boundary `0` is the network input, boundary `l`
//! (1-based) is the output of layer `l-1`. A network with `L` layers has
//! `L + 1` boundaries.
//!
//! Profiles can be *measured* from functional-simulation rasters
//! ([`ActivityProfile::measure`]) or built analytically from assumed rates
//! ([`ActivityProfile::uniform`]); measured profiles capture the spatial
//! clustering of activity (e.g. MNIST's black background) that makes real
//! zero-packet fractions much higher than the independence assumption
//! predicts.

use std::collections::BTreeMap;

use crate::spike::SpikeRaster;

/// Spike statistics at one layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryStats {
    /// Number of neurons at this boundary.
    pub neurons: usize,
    /// Mean per-neuron, per-timestep firing probability.
    pub rate: f64,
    /// Measured P(all-zero) for specific packet widths; if absent, the
    /// independence estimate `(1 - rate)^width` is used.
    pub measured_zero: BTreeMap<u32, f64>,
}

impl BoundaryStats {
    /// Creates analytic stats with no measurements.
    pub fn analytic(neurons: usize, rate: f64) -> Self {
        Self {
            neurons,
            rate: rate.clamp(0.0, 1.0),
            measured_zero: BTreeMap::new(),
        }
    }

    /// Probability that a `width`-bit spike packet at this boundary is
    /// all-zero. Uses the measurement for `width` if present, otherwise
    /// the nearest measured width rescaled, otherwise `(1-rate)^width`.
    pub fn zero_packet_prob(&self, width: u32) -> f64 {
        if let Some(&p) = self.measured_zero.get(&width) {
            return p;
        }
        if let Some((&w0, &p0)) = self
            .measured_zero
            .iter()
            .min_by_key(|(&w, _)| w.abs_diff(width))
        {
            // Rescale assuming per-window independence: a width-w packet is
            // w/w0 windows of width w0.
            if p0 <= 0.0 {
                return 0.0;
            }
            return p0.powf(width as f64 / w0 as f64).clamp(0.0, 1.0);
        }
        (1.0 - self.rate).powi(width as i32).clamp(0.0, 1.0)
    }
}

/// Per-boundary activity statistics for a whole network.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityProfile {
    boundaries: Vec<BoundaryStats>,
}

impl ActivityProfile {
    /// Builds a profile from explicit boundary stats.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` is empty (a profile needs at least the input
    /// boundary).
    pub fn new(boundaries: Vec<BoundaryStats>) -> Self {
        assert!(
            !boundaries.is_empty(),
            "profile needs at least one boundary"
        );
        Self { boundaries }
    }

    /// Builds an analytic profile: the input boundary at `input_rate`,
    /// every layer boundary at `layer_rate`.
    pub fn uniform(neuron_counts: &[usize], input_rate: f64, layer_rate: f64) -> Self {
        assert!(
            !neuron_counts.is_empty(),
            "need at least the input boundary"
        );
        let boundaries = neuron_counts
            .iter()
            .enumerate()
            .map(|(i, &n)| BoundaryStats::analytic(n, if i == 0 { input_rate } else { layer_rate }))
            .collect();
        Self { boundaries }
    }

    /// Measures a profile from rasters: `input` plus one raster per layer
    /// (the boundaries of a [`SnnRunner::run_traced`] trace). Zero-packet
    /// fractions are measured at the given packet widths.
    ///
    /// [`SnnRunner::run_traced`]: crate::network::SnnRunner::run_traced
    pub fn measure(input: &SpikeRaster, layers: &[SpikeRaster], widths: &[u32]) -> Self {
        let mut boundaries = Vec::with_capacity(layers.len() + 1);
        for raster in std::iter::once(input).chain(layers.iter()) {
            let mut measured_zero = BTreeMap::new();
            for &w in widths {
                measured_zero.insert(w, raster.zero_packet_fraction(w as usize));
            }
            boundaries.push(BoundaryStats {
                neurons: raster.neurons(),
                rate: raster.mean_rate(),
                measured_zero,
            });
        }
        Self { boundaries }
    }

    /// Number of boundaries (`layers + 1`).
    pub fn boundary_count(&self) -> usize {
        self.boundaries.len()
    }

    /// Stats at boundary `b` (0 = network input).
    pub fn boundary(&self, b: usize) -> &BoundaryStats {
        &self.boundaries[b]
    }

    /// Mean firing rate at boundary `b`.
    pub fn rate(&self, b: usize) -> f64 {
        self.boundaries[b].rate
    }

    /// Zero-packet probability at boundary `b` for packets of `width`
    /// bits.
    pub fn zero_packet_prob(&self, b: usize, width: u32) -> f64 {
        self.boundaries[b].zero_packet_prob(width)
    }

    /// Merges another profile measured on a different stimulus by
    /// averaging rates and measured zero fractions (boundary-wise).
    ///
    /// # Panics
    ///
    /// Panics if the profiles' boundary structures differ.
    pub fn average_with(&mut self, other: &ActivityProfile) {
        assert_eq!(
            self.boundaries.len(),
            other.boundaries.len(),
            "profile shapes differ"
        );
        for (a, b) in self.boundaries.iter_mut().zip(&other.boundaries) {
            assert_eq!(a.neurons, b.neurons, "boundary sizes differ");
            a.rate = (a.rate + b.rate) / 2.0;
            for (&w, &p) in &b.measured_zero {
                let entry = a.measured_zero.entry(w).or_insert(p);
                *entry = (*entry + p) / 2.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spike::SpikeVector;

    #[test]
    fn analytic_zero_prob_is_independence_power() {
        let b = BoundaryStats::analytic(100, 0.1);
        let p = b.zero_packet_prob(32);
        assert!((p - 0.9f64.powi(32)).abs() < 1e-12);
    }

    #[test]
    fn measured_zero_prob_overrides_analytic() {
        let mut b = BoundaryStats::analytic(100, 0.1);
        b.measured_zero.insert(32, 0.5);
        assert_eq!(b.zero_packet_prob(32), 0.5);
        // Width 64 rescales from the width-32 measurement: 0.5^2.
        assert!((b.zero_packet_prob(64) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn uniform_profile_shapes() {
        let p = ActivityProfile::uniform(&[784, 800, 10], 0.3, 0.1);
        assert_eq!(p.boundary_count(), 3);
        assert_eq!(p.rate(0), 0.3);
        assert_eq!(p.rate(2), 0.1);
        assert_eq!(p.boundary(1).neurons, 800);
    }

    #[test]
    fn measured_profile_from_rasters() {
        let mut input = SpikeRaster::new(64);
        let mut v = SpikeVector::new(64);
        v.set(3, true);
        input.push(v);
        input.push(SpikeVector::new(64));

        let mut l0 = SpikeRaster::new(32);
        l0.push(SpikeVector::new(32));
        l0.push(SpikeVector::from_bools(&[true; 32]));

        let p = ActivityProfile::measure(&input, &[l0], &[16, 32]);
        assert_eq!(p.boundary_count(), 2);
        assert!((p.rate(0) - 1.0 / 128.0).abs() < 1e-12);
        assert_eq!(p.rate(1), 0.5);
        // Input: 8 windows of 16 bits, 1 non-zero.
        assert!((p.zero_packet_prob(0, 16) - 7.0 / 8.0).abs() < 1e-12);
        // Layer 0 at width 32: half the windows all-zero... step 1 is all
        // ones, step 0 all zero → 1/2.
        assert!((p.zero_packet_prob(1, 32) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn averaging_combines_profiles() {
        let mut a = ActivityProfile::uniform(&[10, 5], 0.2, 0.4);
        let b = ActivityProfile::uniform(&[10, 5], 0.4, 0.2);
        a.average_with(&b);
        assert!((a.rate(0) - 0.3).abs() < 1e-12);
        assert!((a.rate(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "profile shapes differ")]
    fn averaging_rejects_mismatched_shapes() {
        let mut a = ActivityProfile::uniform(&[10, 5], 0.2, 0.4);
        let b = ActivityProfile::uniform(&[10, 5, 2], 0.4, 0.2);
        a.average_with(&b);
    }
}
