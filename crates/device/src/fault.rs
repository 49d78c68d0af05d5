//! Seeded, reproducible device-fault injection for compiled weights.
//!
//! RESPARC's reconfigurability pitch rests on small crossbars tolerating
//! the non-idealities that break large arrays — but the [`nonideal`]
//! models only *size* the arrays analytically; nothing actually fails.
//! A [`FaultPlan`] makes faults a first-class, sweepable dimension: it
//! describes a deterministic per-cell defect population (stuck-at
//! cells, conductance drift, per-device log-normal variation) that
//! downstream kernels apply to resolved weights as a **pure transform**
//! (`resparc_neuro::kernel::CompiledNetwork::with_faults`).
//!
//! Determinism contract: every cell's draws are keyed on its physical
//! cross-point coordinate through a counter-based splitmix64 stream
//! (the same mixing `resparc_workloads` uses for per-sample encoder
//! seeds), so
//!
//! * two applications of the same plan are bit-identical,
//! * plans with different seeds share no per-cell draw streams (no
//!   `seed ^ i`-style correlation),
//! * the same synapse receives the same fault in *every* plane it is
//!   materialized in (forward and transposed), because the draw depends
//!   only on `(plan, layer, cell)` — never on traversal order.
//!
//! An **empty** plan ([`FaultPlan::none`], or any plan whose knobs are
//! all zero) is the fault-free path: callers are expected to skip the
//! transform entirely ([`FaultPlan::is_empty`]), keeping the clean plan
//! bit-identical to today's unfaulted weights.
//!
//! [`nonideal`]: crate::nonideal

/// splitmix64 increment ("golden gamma"); same constant the workloads
/// crate seeds its per-sample encoder streams with.
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output mix: finalizes one stream state into a seed.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th output of a splitmix64 stream seeded with `seed`.
fn stream_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed.wrapping_add(i.wrapping_mul(SPLITMIX64_GAMMA)))
}

/// A uniform draw in `[0, 1)` from the top 53 bits of a mixed seed.
fn unit(seed: u64) -> f64 {
    (seed >> 11) as f64 / (1u64 << 53) as f64
}

/// One standard-normal draw (Box–Muller) from two counter-derived
/// uniforms of `seed`'s stream.
fn standard_normal(seed: u64) -> f64 {
    let u1 = unit(stream_seed(seed, 0)).max(f64::MIN_POSITIVE);
    let u2 = unit(stream_seed(seed, 1));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A seeded, reproducible population of device faults, applied to
/// resolved weights cell-by-cell.
///
/// Weights are interpreted as programmed differential-pair conductances:
/// a cell's magnitude lives in the window `[0, full_scale]` where
/// `full_scale` is the largest |weight| of the layer (the conductance
/// range the layer is programmed onto). Three defect mechanisms compose,
/// in physical order:
///
/// 1. **Stuck-at cells** — with probability [`stuck_rate`], a cell is
///    stuck: at `G_max` (magnitude pinned to `full_scale`, sign
///    preserved) with probability [`stuck_at_max_share`], else at
///    `G_min` (weight 0). Stuck cells ignore drift and variation.
/// 2. **Conductance drift** — every healthy cell's magnitude decays by
///    the deterministic factor `1 - drift` (retention loss toward
///    `G_min`).
/// 3. **Device variation** — every healthy cell's magnitude is scaled
///    by a log-normal factor `exp(σ·z)`, `z ~ N(0,1)` drawn per cell.
///
/// The result is clamped to the `[0, full_scale]` conductance window.
///
/// [`stuck_rate`]: FaultPlan::stuck_rate
/// [`stuck_at_max_share`]: FaultPlan::stuck_at_max_share
///
/// # Examples
///
/// ```
/// use resparc_device::FaultPlan;
///
/// let plan = FaultPlan::stuck_at(42, 0.05).with_variation(0.1);
/// let ls = plan.layer_seed(0);
/// // Same plan, same cell: bit-identical outcome.
/// assert_eq!(plan.cell_weight(ls, 7, 0.3, 1.0), plan.cell_weight(ls, 7, 0.3, 1.0));
/// // The empty plan is the fault-free path.
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Base seed every per-cell draw stream is derived from.
    pub seed: u64,
    /// Probability a cell is stuck (at `G_min` or `G_max`).
    pub stuck_rate: f64,
    /// Fraction of stuck cells pinned at `G_max` (the rest at `G_min`).
    pub stuck_at_max_share: f64,
    /// Deterministic fractional conductance decay of healthy cells
    /// (`0.1` = every magnitude loses 10 %).
    pub drift: f64,
    /// Log-normal σ of the per-cell variation factor `exp(σ·z)`.
    pub variation_sigma: f64,
}

impl FaultPlan {
    /// The empty plan: no stuck cells, no drift, no variation. Kernels
    /// skip the transform entirely for it, so it is bit-identical to
    /// the unfaulted path.
    pub fn none() -> Self {
        Self {
            seed: 0,
            stuck_rate: 0.0,
            stuck_at_max_share: 0.0,
            drift: 0.0,
            variation_sigma: 0.0,
        }
    }

    /// A stuck-at-only plan: cells stick with probability `stuck_rate`,
    /// half at `G_min`, half at `G_max`.
    pub fn stuck_at(seed: u64, stuck_rate: f64) -> Self {
        Self {
            seed,
            stuck_rate,
            stuck_at_max_share: 0.5,
            ..Self::none()
        }
    }

    /// The same plan with deterministic conductance drift.
    pub fn with_drift(mut self, drift: f64) -> Self {
        self.drift = drift;
        self
    }

    /// The same plan with per-cell log-normal variation.
    pub fn with_variation(mut self, sigma: f64) -> Self {
        self.variation_sigma = sigma;
        self
    }

    /// Whether the plan perturbs nothing — callers skip the transform
    /// entirely, guaranteeing bit-identity with the fault-free path.
    pub fn is_empty(&self) -> bool {
        self.stuck_rate <= 0.0 && self.drift <= 0.0 && self.variation_sigma <= 0.0
    }

    /// The draw-stream seed of layer `layer` — one decorrelated stream
    /// per layer, so identical layer shapes do not repeat fault
    /// patterns.
    pub fn layer_seed(&self, layer: usize) -> u64 {
        stream_seed(self.seed, layer as u64)
    }

    /// The faulted weight of one cell.
    ///
    /// `cell` is the physical cross-point coordinate (`output · inputs
    /// + input` for a layer with `inputs` input lines): every plane
    /// that materializes the same synapse must key its draw on the same
    /// `cell`, which is what keeps forward and transposed planes
    /// consistent. `full_scale` is the layer's conductance window
    /// (largest |weight|); the returned magnitude is clamped into
    /// `[0, full_scale]`.
    ///
    /// The per-cell draws are counter-based (purpose-indexed outputs of
    /// the cell's splitmix64 stream), so whether a mechanism is enabled
    /// never shifts another mechanism's draws — adding drift to a plan
    /// does not reshuffle which cells stick.
    pub fn cell_weight(&self, layer_seed: u64, cell: u64, weight: f32, full_scale: f32) -> f32 {
        if self.is_empty() {
            return weight;
        }
        let s = stream_seed(layer_seed, cell);
        if self.stuck_rate > 0.0 && unit(stream_seed(s, 0)) < self.stuck_rate {
            return if unit(stream_seed(s, 1)) < self.stuck_at_max_share {
                // Stuck at G_max: full-window magnitude, sign preserved
                // (`signum` maps +0.0 to +1.0: a zero weight saturates
                // positive).
                weight.signum() * full_scale
            } else {
                // Stuck at G_min.
                0.0
            };
        }
        let mut magnitude = weight.abs() as f64;
        if self.drift > 0.0 {
            magnitude *= 1.0 - self.drift;
        }
        if self.variation_sigma > 0.0 {
            magnitude *= (self.variation_sigma * standard_normal(stream_seed(s, 2))).exp();
        }
        let clamped = magnitude.clamp(0.0, full_scale as f64) as f32;
        if weight < 0.0 {
            -clamped
        } else {
            clamped
        }
    }

    /// The fraction of `cells` draws the plan would stick — a quick
    /// expected-defect check for sweeps and tests.
    pub fn sampled_stuck_fraction(&self, layer: usize, cells: u64) -> f64 {
        if cells == 0 || self.stuck_rate <= 0.0 {
            return 0.0;
        }
        let ls = self.layer_seed(layer);
        let stuck = (0..cells)
            .filter(|&c| unit(stream_seed(stream_seed(ls, c), 0)) < self.stuck_rate)
            .count();
        stuck as f64 / cells as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let ls = plan.layer_seed(3);
        for (cell, w) in [(0u64, 0.25f32), (7, -1.5), (100, 0.0)] {
            assert_eq!(plan.cell_weight(ls, cell, w, 2.0).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn same_seed_is_bit_identical_different_seeds_decorrelate() {
        let a = FaultPlan::stuck_at(7, 0.2)
            .with_drift(0.1)
            .with_variation(0.2);
        let b = FaultPlan { seed: 6, ..a };
        let ls_a = a.layer_seed(0);
        let ls_b = b.layer_seed(0);
        let weights: Vec<f32> = (0..512).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect();
        let out_a: Vec<u32> = weights
            .iter()
            .enumerate()
            .map(|(c, &w)| a.cell_weight(ls_a, c as u64, w, 1.0).to_bits())
            .collect();
        let again: Vec<u32> = weights
            .iter()
            .enumerate()
            .map(|(c, &w)| a.cell_weight(ls_a, c as u64, w, 1.0).to_bits())
            .collect();
        assert_eq!(out_a, again, "same plan must be bit-identical");
        let out_b: Vec<u32> = weights
            .iter()
            .enumerate()
            .map(|(c, &w)| b.cell_weight(ls_b, c as u64, w, 1.0).to_bits())
            .collect();
        assert_ne!(out_a, out_b, "nearby seeds must not share draw streams");
    }

    #[test]
    fn layer_streams_are_decorrelated() {
        let plan = FaultPlan::stuck_at(11, 0.5);
        let a: BTreeSet<u64> = (0..256)
            .map(|c| stream_seed(plan.layer_seed(0), c))
            .collect();
        let b: BTreeSet<u64> = (0..256)
            .map(|c| stream_seed(plan.layer_seed(1), c))
            .collect();
        assert_eq!(a.len(), 256);
        assert!(a.is_disjoint(&b), "layers must not repeat fault patterns");
    }

    #[test]
    fn stuck_fraction_tracks_rate_and_splits_polarity() {
        let plan = FaultPlan::stuck_at(3, 0.25);
        let frac = plan.sampled_stuck_fraction(0, 20_000);
        assert!((frac - 0.25).abs() < 0.02, "stuck fraction {frac}");
        // Stuck cells split between G_min (0) and G_max (full scale).
        let ls = plan.layer_seed(0);
        let mut at_min = 0usize;
        let mut at_max = 0usize;
        for c in 0..20_000u64 {
            let w = plan.cell_weight(ls, c, 0.5, 1.0);
            if w == 0.0 {
                at_min += 1;
            } else if w == 1.0 {
                at_max += 1;
            }
        }
        let total = (at_min + at_max) as f64;
        assert!((total / 20_000.0 - 0.25).abs() < 0.02);
        let max_share = at_max as f64 / total;
        assert!((max_share - 0.5).abs() < 0.05, "G_max share {max_share}");
    }

    #[test]
    fn drift_decays_and_variation_spreads_within_the_window() {
        let drift = FaultPlan {
            seed: 5,
            drift: 0.2,
            ..FaultPlan::none()
        };
        let ls = drift.layer_seed(0);
        let w = drift.cell_weight(ls, 0, -0.5, 1.0);
        assert!((w - -0.4).abs() < 1e-6, "20% drift on -0.5 gave {w}");

        let var = FaultPlan {
            seed: 5,
            variation_sigma: 0.3,
            ..FaultPlan::none()
        };
        let ls = var.layer_seed(0);
        let draws: Vec<f32> = (0..4_000)
            .map(|c| var.cell_weight(ls, c, 0.5, 1.0))
            .collect();
        assert!(draws.iter().all(|&w| (0.0..=1.0).contains(&w)));
        let distinct: BTreeSet<u32> = draws.iter().map(|w| w.to_bits()).collect();
        assert!(distinct.len() > 3_000, "variation must spread per cell");
        let mean = draws.iter().map(|&w| w as f64).sum::<f64>() / draws.len() as f64;
        // Log-normal with σ=0.3 has mean exp(σ²/2) ≈ 1.046 × the base.
        assert!(
            (mean / 0.5 - 1.046).abs() < 0.05,
            "mean factor {}",
            mean / 0.5
        );
    }

    #[test]
    fn enabling_one_mechanism_does_not_reshuffle_another() {
        // Counter-based draws: the stuck population of a plan must not
        // change when drift/variation are switched on — every cell the
        // bare plan sticks lands on the identical stuck value under the
        // loaded plan (stuck cells ignore drift and variation).
        let bare = FaultPlan::stuck_at(9, 0.3);
        let loaded = bare.with_drift(0.1).with_variation(0.2);
        let (lb, ll) = (bare.layer_seed(0), loaded.layer_seed(0));
        let mut stuck_cells = 0usize;
        for c in 0..2_000u64 {
            let wb = bare.cell_weight(lb, c, 0.5, 1.0);
            if wb == 0.0 || wb == 1.0 {
                stuck_cells += 1;
                let wl = loaded.cell_weight(ll, c, 0.5, 1.0);
                assert_eq!(wb.to_bits(), wl.to_bits(), "cell {c} changed stuck value");
            }
        }
        assert!(
            stuck_cells > 400,
            "expected ~600 stuck cells, got {stuck_cells}"
        );
    }
}
