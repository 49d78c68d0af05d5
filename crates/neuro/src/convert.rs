//! ANN → SNN conversion by data-based weight/threshold balancing.
//!
//! The paper's benchmarks are "trained using the supervised learning
//! algorithm proposed in \[4\]" (Diehl et al., IJCNN 2015): train a ReLU ANN,
//! then rescale each layer so that an Integrate-and-Fire network with unit
//! thresholds reproduces the ANN's activation ratios as firing rates. The
//! balancing used here is the data-based variant: for each layer, find the
//! `percentile`-th largest activation over a calibration set and scale
//! weights by the ratio of consecutive layer percentiles.
//!
//! # Examples
//!
//! ```
//! use resparc_neuro::convert::{normalize_for_snn, NormalizationReport};
//! use resparc_neuro::network::Network;
//! use resparc_neuro::topology::Topology;
//!
//! let mut net = Network::random(Topology::mlp(8, &[6, 3]), 5, 1.0);
//! let calib: Vec<Vec<f32>> = (0..16).map(|i| vec![(i as f32) / 16.0; 8]).collect();
//! let report: NormalizationReport = normalize_for_snn(&mut net, &calib, 0.99);
//! assert_eq!(report.scale_factors.len(), 2);
//! ```

use crate::network::Network;

/// Outcome of a normalisation pass: the per-layer activation percentiles
/// observed and the scale factor applied to each layer's weights.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizationReport {
    /// Observed per-layer activation percentile before scaling.
    pub activation_percentiles: Vec<f32>,
    /// Multiplicative factor applied to each layer's weights.
    pub scale_factors: Vec<f32>,
}

/// Rescales `net`'s weights in place (Diehl-style data-based
/// normalisation) so spiking inference with unit thresholds tracks the
/// analog activations. Returns what was measured and applied.
///
/// `percentile` selects the activation quantile used as "max" (`0.99` in
/// the original paper; `1.0` = strict max).
///
/// # Panics
///
/// Panics if `calibration` is empty or `percentile` is outside `(0, 1]`.
pub fn normalize_for_snn(
    net: &mut Network,
    calibration: &[Vec<f32>],
    percentile: f64,
) -> NormalizationReport {
    assert!(!calibration.is_empty(), "calibration set must be non-empty");
    assert!(
        percentile > 0.0 && percentile <= 1.0,
        "percentile must be in (0, 1], got {percentile}"
    );

    let n_layers = net.layers().len();
    // Gather all activations per layer across the calibration set. The
    // batched forward runs every stimulus on the shared compiled kernels
    // (one synapse enumeration for the whole pass), in parallel across the
    // batch; per-stimulus results are identical to the serial loop.
    // Chunking bounds transient memory: only one chunk's full per-layer
    // activations are live at a time, whatever the calibration size.
    const CALIBRATION_CHUNK: usize = 64;
    let mut per_layer: Vec<Vec<f32>> = vec![Vec::new(); n_layers];
    for chunk in calibration.chunks(CALIBRATION_CHUNK) {
        for acts in net.forward_analog_all_batch(chunk) {
            for (li, a) in acts.into_iter().enumerate() {
                per_layer[li].extend(a.into_iter().filter(|v| *v > 0.0));
            }
        }
    }

    let percentiles: Vec<f32> = per_layer
        .iter()
        .map(|acts| quantile(acts, percentile))
        .collect();

    // Scale layer l by prev_p / p_l, where prev_p is the previous layer's
    // percentile (1.0 for the input, which is already in [0, 1]).
    let mut scale_factors = Vec::with_capacity(n_layers);
    let mut prev_p = 1.0f32;
    for (li, &p) in percentiles.iter().enumerate() {
        let p = if p <= 0.0 { 1.0 } else { p };
        let factor = prev_p / p;
        for w in net.layers_mut()[li].weights_mut() {
            *w *= factor;
        }
        scale_factors.push(factor);
        // After scaling, this layer's activations peak near 1.0.
        prev_p = 1.0;
    }

    NormalizationReport {
        activation_percentiles: percentiles,
        scale_factors,
    }
}

/// Outcome of a TTFS threshold re-balance: the per-layer cumulative-drive
/// percentiles observed and the thresholds installed.
#[derive(Debug, Clone, PartialEq)]
pub struct TtfsRebalanceReport {
    /// Observed per-layer positive-activation percentile (the total
    /// charge a one-spike-per-input presentation deposits).
    pub drive_percentiles: Vec<f32>,
    /// Threshold installed on each layer.
    pub thresholds: Vec<f32>,
}

/// Re-balances a rate-normalized network's **thresholds** for
/// time-to-first-spike input.
///
/// [`normalize_for_snn`] balances weights so per-*timestep* drive tracks
/// analog activations — correct for rate codes, where a neuron of
/// activation `a` is driven `≈ a` every step. A TTFS presentation
/// delivers each input's weight exactly **once** over the whole window,
/// so the *total* charge a neuron ever integrates is its analog
/// pre-activation (`≤ 1` after normalisation) and unit thresholds leave
/// the network almost silent — the accuracy collapse ROADMAP.md records.
///
/// The fix is latency-targeting: keep the weights (they encode the
/// function) and lower each layer's threshold to the fraction of the
/// layer's typical single-presentation drive that must accumulate before
/// the neuron fires. With threshold
/// `τ_l = latency_target × percentile(positive activations of layer l)`,
/// a strongly-driven neuron crosses `τ_l` after seeing roughly
/// `latency_target` of its input charge — early in the window, because
/// TTFS delivers high-intensity spikes first — while weakly-driven
/// neurons cross late or never: first-spike *order* carries the analog
/// ordering, which is exactly what [`Readout::FirstSpike`] decodes.
///
/// Smaller `latency_target` fires earlier (better latency/energy under
/// [early exit](crate::network::SnnRunner::run_traced_early_exit), noisier
/// ordering); larger waits for more evidence. `0.25`–`0.5` is a good
/// range for Diehl-normalized MLPs.
///
/// Returns what was measured and installed. The weights are untouched,
/// so rate-coded behaviour can be restored by re-setting unit
/// thresholds.
///
/// [`Readout::FirstSpike`]: crate::encoding::Readout::FirstSpike
///
/// # Panics
///
/// Panics if `calibration` is empty, `percentile` is outside `(0, 1]` or
/// `latency_target` is outside `(0, 1]`.
pub fn rebalance_thresholds_for_ttfs(
    net: &mut Network,
    calibration: &[Vec<f32>],
    percentile: f64,
    latency_target: f32,
) -> TtfsRebalanceReport {
    assert!(!calibration.is_empty(), "calibration set must be non-empty");
    assert!(
        percentile > 0.0 && percentile <= 1.0,
        "percentile must be in (0, 1], got {percentile}"
    );
    assert!(
        latency_target > 0.0 && latency_target <= 1.0,
        "latency_target must be in (0, 1], got {latency_target}"
    );

    let n_layers = net.layers().len();
    const CALIBRATION_CHUNK: usize = 64;
    let mut per_layer: Vec<Vec<f32>> = vec![Vec::new(); n_layers];
    for chunk in calibration.chunks(CALIBRATION_CHUNK) {
        for acts in net.forward_analog_all_batch(chunk) {
            for (li, a) in acts.into_iter().enumerate() {
                per_layer[li].extend(a.into_iter().filter(|v| *v > 0.0));
            }
        }
    }

    let drive_percentiles: Vec<f32> = per_layer
        .iter()
        .map(|acts| quantile(acts, percentile))
        .collect();
    let mut thresholds = Vec::with_capacity(n_layers);
    for (li, &p) in drive_percentiles.iter().enumerate() {
        // A layer whose calibration drive is degenerate keeps a sane
        // positive threshold rather than a zero one.
        let p = if p <= 0.0 { 1.0 } else { p };
        let tau = (p * latency_target).max(f32::MIN_POSITIVE);
        net.layers_mut()[li].set_threshold(tau);
        thresholds.push(tau);
    }

    TtfsRebalanceReport {
        drive_percentiles,
        thresholds,
    }
}

/// The `q`-th quantile of a sample (0 < q ≤ 1); 0 if the sample is empty.
fn quantile(xs: &[f32], q: f64) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f32> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite activations"));
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::RegularEncoder;
    use crate::network::{Layer, Network};
    use crate::topology::{LayerSpec, Topology};

    #[test]
    fn quantile_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn normalization_caps_activations_near_one() {
        let mut net = Network::random(Topology::mlp(16, &[12, 4]), 11, 3.0);
        let calib: Vec<Vec<f32>> = (0..32)
            .map(|i| {
                (0..16)
                    .map(|j| ((i * 7 + j * 3) % 10) as f32 / 10.0)
                    .collect()
            })
            .collect();
        normalize_for_snn(&mut net, &calib, 1.0);
        // After normalisation, re-measured max activations are ≤ ~1.
        let mut max_act = 0.0f32;
        for x in &calib {
            for a in net.forward_analog_all(x) {
                for v in a {
                    max_act = max_act.max(v);
                }
            }
        }
        assert!(max_act <= 1.0 + 1e-4, "max activation {max_act}");
    }

    #[test]
    fn normalized_snn_tracks_analog_ratios() {
        // A hand-built net with large weights; after normalisation the
        // spiking rates should reproduce the analog output ordering.
        let l0 = Layer::new(
            LayerSpec::Dense {
                inputs: 2,
                outputs: 2,
            },
            vec![4.0, 0.0, 0.0, 2.0],
            1.0,
        );
        let mut net = Network::new(2, vec![l0]);
        let calib = vec![vec![1.0, 1.0], vec![0.5, 0.8]];
        normalize_for_snn(&mut net, &calib, 1.0);

        let enc = RegularEncoder::new(1.0);
        let raster = enc.encode(&[0.9, 0.9], 300);
        let mut runner = net.spiking();
        let out = runner.run(&raster);
        // Analog outputs are (4·0.9, 2·0.9): neuron 0 should fire about
        // twice as often as neuron 1.
        let ratio = out.output_counts[0] as f64 / out.output_counts[1].max(1) as f64;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn report_shapes_match_layers() {
        let mut net = Network::random(Topology::mlp(4, &[3, 2]), 0, 1.0);
        let report = normalize_for_snn(&mut net, &[vec![0.5; 4]], 0.99);
        assert_eq!(report.scale_factors.len(), 2);
        assert_eq!(report.activation_percentiles.len(), 2);
        assert!(report
            .scale_factors
            .iter()
            .all(|f| f.is_finite() && *f > 0.0));
    }

    #[test]
    #[should_panic(expected = "calibration set must be non-empty")]
    fn empty_calibration_panics() {
        let mut net = Network::random(Topology::mlp(4, &[2]), 0, 1.0);
        normalize_for_snn(&mut net, &[], 0.99);
    }

    #[test]
    fn ttfs_rebalance_revives_a_silent_ttfs_net() {
        use crate::encoding::{Readout, TtfsEncoder};

        // A half-gain identity pair: rate-normalized thresholds of 1.0
        // can never be reached by a single TTFS spike (0.5 < 1), so the
        // net is silent under TTFS — the collapse the rebalance fixes.
        let l0 = Layer::new(
            LayerSpec::Dense {
                inputs: 2,
                outputs: 2,
            },
            vec![0.5, 0.0, 0.0, 0.5],
            1.0,
        );
        let mut net = Network::new(2, vec![l0]);
        let raster = TtfsEncoder::new().encode(&[0.4, 0.9], 16);
        let before = net.spiking().run(&raster);
        assert!(
            before.output_counts.iter().all(|&c| c == 0),
            "unit thresholds must stay silent under TTFS"
        );

        let calib = vec![vec![1.0, 1.0], vec![0.6, 0.9]];
        let report = rebalance_thresholds_for_ttfs(&mut net, &calib, 1.0, 0.5);
        assert_eq!(report.thresholds.len(), 1);
        assert!(report.thresholds[0] <= 0.5 * report.drive_percentiles[0] + 1e-6);
        assert_eq!(net.layers()[0].threshold(), report.thresholds[0]);

        let after = net.spiking().run(&raster);
        assert!(after.output_counts.iter().sum::<u32>() > 0);
        // The brighter input spikes earlier and wins the first-spike
        // readout.
        assert_eq!(after.decode(Readout::FirstSpike), 1);
        let t0 = after.first_spike_steps[0].expect("fires after rebalance");
        let t1 = after.first_spike_steps[1].expect("fires after rebalance");
        assert!(t1 < t0, "brighter input must fire first ({t1} vs {t0})");
    }

    #[test]
    fn ttfs_rebalance_keeps_weights_untouched() {
        let mut net = Network::random(Topology::mlp(12, &[8, 4]), 3, 1.0);
        let weights_before: Vec<Vec<f32>> =
            net.layers().iter().map(|l| l.weights().to_vec()).collect();
        let calib: Vec<Vec<f32>> = (0..8).map(|i| vec![(i as f32) / 8.0; 12]).collect();
        let report = rebalance_thresholds_for_ttfs(&mut net, &calib, 0.99, 0.3);
        assert_eq!(report.thresholds.len(), 2);
        assert!(report.thresholds.iter().all(|t| *t > 0.0));
        for (l, before) in net.layers().iter().zip(&weights_before) {
            assert_eq!(l.weights(), &before[..]);
        }
    }

    #[test]
    #[should_panic(expected = "latency_target")]
    fn ttfs_rebalance_rejects_bad_latency_target() {
        let mut net = Network::random(Topology::mlp(4, &[2]), 0, 1.0);
        rebalance_thresholds_for_ttfs(&mut net, &[vec![0.5; 4]], 0.99, 0.0);
    }
}
