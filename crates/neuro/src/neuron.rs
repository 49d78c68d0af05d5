//! The spiking neuron.
//!
//! RESPARC interfaces its crossbar columns with Integrate-and-Fire (IF)
//! neurons (paper §2.1): the column current accumulates onto a membrane
//! potential and the neuron emits a spike when the potential reaches a
//! threshold. The reset subtracts the threshold and keeps the residue,
//! the reset of rate-faithful ANN→SNN conversion (Diehl et al. \[4\]).
//! There is no leak and no refractory period, so a zero input leaves the
//! potential exactly where it is.
//!
//! # Examples
//!
//! ```
//! use resparc_neuro::neuron::Membrane;
//!
//! let mut m = Membrane::new();
//! assert!(!m.step(0.6, 1.0)); // 0.6 < threshold
//! assert!(m.step(0.6, 1.0));  // 1.2 ≥ threshold → spike
//! ```

/// The state of one Integrate-and-Fire neuron.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Membrane {
    potential: f32,
}

impl Membrane {
    /// A fresh membrane at resting potential.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current membrane potential.
    pub fn potential(&self) -> f32 {
        self.potential
    }

    /// Advances one timestep: adds `input` to the potential and, if the
    /// potential reaches `threshold`, subtracts the threshold and returns
    /// `true` (the neuron fires).
    ///
    /// The threshold is not checked here; thresholds are checked where
    /// they enter a [`Layer`](crate::network::Layer).
    pub fn step(&mut self, input: f32, threshold: f32) -> bool {
        self.potential += input;
        if self.potential >= threshold {
            self.potential -= threshold;
            true
        } else {
            false
        }
    }

    /// Resets the membrane to the resting state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn if_neuron_fires_at_threshold() {
        let mut m = Membrane::new();
        assert!(!m.step(0.5, 1.0));
        assert!(m.step(0.5, 1.0)); // exactly at threshold fires
    }

    #[test]
    fn subtract_reset_preserves_residue() {
        let mut m = Membrane::new();
        assert!(m.step(1.3, 1.0));
        assert!((m.potential() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn subtract_reset_rate_tracks_input() {
        // With subtractive reset and constant drive I < threshold, the
        // long-run firing rate approaches I / threshold.
        let mut m = Membrane::new();
        let drive = 0.24;
        let steps = 10_000;
        let mut fired = 0u32;
        for _ in 0..steps {
            if m.step(drive, 1.0) {
                fired += 1;
            }
        }
        let rate = fired as f64 / steps as f64;
        assert!((rate - 0.24).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn negative_input_inhibits() {
        let mut m = Membrane::new();
        m.step(0.8, 1.0);
        m.step(-0.5, 1.0);
        assert!((m.potential() - 0.3).abs() < 1e-6);
        assert!(!m.step(0.6, 1.0));
    }
}
