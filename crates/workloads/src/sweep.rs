//! Batched accuracy and energy sweeps over labelled stimulus sets.
//!
//! The paper's evaluation (Figs. 11–14) repeatedly classifies whole test
//! sets on the functional SNN — the hot loop of every accuracy/activity
//! experiment. This module runs such sweeps on a network's [compiled
//! kernels](resparc_neuro::kernel): the synapse structure is enumerated
//! once for the entire sweep and stimuli are encoded + classified in
//! parallel across the batch. Per-sample results are identical to the
//! serial encode-then-run loop (same per-sample encoder seeds, same
//! runner semantics).
//!
//! Sweeps are **encoding-generic**: [`SweepConfig`] carries an
//! [`Encoding`] (rate, regular-rate, TTFS or burst), stimuli are encoded
//! through it, and outcomes are decoded with the readout rule that
//! matches the code (max-spike-count for rate codes, first-spike latency
//! for TTFS).
//!
//! [`trace_energy_sweep`] additionally captures each stimulus's
//! [`SpikeTrace`] and replays it through
//! the mapped fabric's trace-driven
//! [`EventSimulator`], so one
//! batched, rayon-parallel pass yields *accuracy and per-inference
//! energy* from the very same spike trains. [`encoding_energy_sweep`]
//! runs that pass once per coding scheme over the same labelled set —
//! the accuracy-vs-energy-per-code comparison only the event path can
//! price (the stationary simulator assumes rate-stationary activity).

use std::sync::Arc;

use rayon::prelude::*;
use resparc_core::fabric::{pool_leakage_power, AdmitError, FabricPool, SharedEventSimulator};
use resparc_core::map::Mapping;
use resparc_core::sim::cost::safe_throughput;
use resparc_core::sim::event::{EventReport, EventSimulator};
use resparc_core::ResparcConfig;
use resparc_energy::accounting::{Category, EnergyBreakdown};
use resparc_energy::units::{Energy, Time};
use resparc_neuro::encoding::{Encoding, Readout};
use resparc_neuro::kernel::CompiledNetwork;
use resparc_neuro::network::{Network, SnnRunner};
use resparc_neuro::spike::SpikeRaster;
use resparc_neuro::trace::SpikeTrace;

/// Configuration of a spiking accuracy sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Timesteps each stimulus is presented for.
    pub steps: usize,
    /// Peak per-timestep spike probability of the rate encoders
    /// (temporal encodings carry their own parameters and ignore it).
    pub peak_rate: f64,
    /// Base seed; sample `i` is encoded with the decorrelated per-sample
    /// seed [`SweepConfig::sample_seed`].
    pub seed: u64,
    /// Input coding scheme (and, implicitly, the matching readout).
    pub encoding: Encoding,
}

impl SweepConfig {
    /// Poisson rate-coded sweep — the paper's default scheme.
    pub fn rate(steps: usize, peak_rate: f64, seed: u64) -> Self {
        Self {
            steps,
            peak_rate,
            seed,
            encoding: Encoding::Rate,
        }
    }

    /// The settings the Fig. 14(a) reproduction uses.
    pub fn fig14a() -> Self {
        Self::rate(80, 0.8, 7)
    }

    /// The same sweep under a different coding scheme.
    pub fn with_encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// The RNG seed sample `i` is encoded with: the `i`-th output of a
    /// splitmix64 stream seeded with `self.seed`.
    ///
    /// The mix guarantees two properties a plain `seed ^ i` cannot:
    /// sample `i == seed` does not collapse to RNG seed 0, and sweeps
    /// whose base seeds differ only in low bits share no per-sample
    /// spike streams.
    pub fn sample_seed(&self, i: usize) -> u64 {
        crate::seed::stream_seed(self.seed, i as u64)
    }

    /// Encodes sample `i` of a sweep under the configured [`Encoding`]
    /// for `steps` timesteps, seeded [`Self::sample_seed`]. Every sweep
    /// flavour encodes through this one method, so the per-sample seeding
    /// contract cannot diverge between them.
    pub fn encode_sample(&self, i: usize, stimulus: &[f32]) -> SpikeRaster {
        self.encoding
            .encode(self.peak_rate, stimulus, self.steps, self.sample_seed(i))
    }

    /// The readout rule matching the configured encoding.
    pub fn readout(&self) -> Readout {
        self.encoding.readout()
    }
}

/// Fraction of correct classifications, guarded for the empty sweep.
/// Every report type's `accuracy()` routes through here (the churn
/// sweep included) so the zero-total behaviour cannot diverge between
/// them.
pub(crate) fn accuracy_fraction(correct: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Outcome of one accuracy sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Predicted class per sample, in input order.
    pub predictions: Vec<usize>,
    /// Number of correct classifications.
    pub correct: usize,
    /// Number of samples evaluated.
    pub total: usize,
}

impl SweepReport {
    /// Fraction of samples classified correctly.
    pub fn accuracy(&self) -> f64 {
        accuracy_fraction(self.correct, self.total)
    }
}

/// Classifies every `(stimulus, label)` pair with the spiking simulator:
/// encodes sample `i` under `cfg.encoding` with seed `cfg.sample_seed(i)`,
/// runs it for `cfg.steps` timesteps and decodes with the readout
/// matching the code. Runs on the network's shared compiled kernels,
/// parallel across samples.
///
/// # Panics
///
/// Panics if any stimulus length differs from `net.input_count()`.
pub fn spiking_accuracy_sweep(
    net: &Network,
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
) -> SweepReport {
    let kernels = net.compiled();
    let readout = cfg.readout();
    let predictions: Vec<usize> = samples
        .par_iter()
        .enumerate()
        .map(|(i, (x, _))| {
            let raster = cfg.encode_sample(i, x);
            let mut runner = SnnRunner::from_compiled(kernels.clone());
            runner.run(&raster).decode(readout)
        })
        .collect();
    score(predictions, samples)
}

/// Classifies every sample with the analog (ANN-mode) forward pass on the
/// compiled kernels, parallel across samples (stimuli are borrowed, never
/// copied).
///
/// # Panics
///
/// Panics if any stimulus length differs from `net.input_count()`.
pub fn analog_accuracy_sweep(net: &Network, samples: &[(Vec<f32>, usize)]) -> SweepReport {
    let kernels = net.compiled();
    let predictions: Vec<usize> = samples
        .par_iter()
        .map(|(x, _)| kernels.classify(x))
        .collect();
    score(predictions, samples)
}

/// Outcome of one trace-driven energy sweep: accuracy plus per-inference
/// energy/latency measured by replaying each stimulus's actual spike
/// trace through the mapped fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEnergyReport {
    /// Predicted class per sample, in input order.
    pub predictions: Vec<usize>,
    /// Number of correct classifications.
    pub correct: usize,
    /// Number of samples evaluated.
    pub total: usize,
    /// Per-sample total energy, in input order.
    pub per_sample_energy: Vec<Energy>,
    /// Mean per-inference energy ledger across the set.
    pub mean_energy: EnergyBreakdown,
    /// Mean per-inference latency across the set.
    pub mean_latency: Time,
}

impl TraceEnergyReport {
    /// Fraction of samples classified correctly (same zero-total guard
    /// as [`SweepReport::accuracy`] — both route through one shared
    /// implementation).
    pub fn accuracy(&self) -> f64 {
        accuracy_fraction(self.correct, self.total)
    }

    /// Mean per-inference total energy.
    pub fn mean_total_energy(&self) -> Energy {
        self.mean_energy.total()
    }

    /// Mean per-inference communication + crossbar energy — the groups
    /// the event-driven zero-check saves on, and the axis the
    /// rate-vs-temporal coding comparison is judged by.
    pub fn mean_comm_crossbar_energy(&self) -> Energy {
        self.mean_energy.get(Category::Communication) + self.mean_energy.get(Category::Crossbar)
    }
}

/// Classifies every `(stimulus, label)` pair with the spiking simulator
/// *and* meters the mapped fabric on each stimulus's actual spike trace:
/// sample `i` is encoded under `cfg.encoding` with seed
/// `cfg.sample_seed(i)`, run for `cfg.steps` timesteps on the network's
/// shared compiled kernels with trace recording on, and its trace is
/// replayed through `mapping`'s [`EventSimulator`]. Parallel across
/// samples; predictions are identical to [`spiking_accuracy_sweep`] at
/// the same configuration.
///
/// # Panics
///
/// Panics if a stimulus length differs from `net.input_count()` or the
/// mapping's layer shapes disagree with the network's.
pub fn trace_energy_sweep(
    net: &Network,
    mapping: &Mapping,
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
) -> TraceEnergyReport {
    trace_energy_sweep_compiled(&net.compiled(), mapping, samples, cfg)
}

/// [`trace_energy_sweep`] on explicit compiled kernels — the core the
/// network-taking wrapper delegates to. Callers that transform the
/// kernels before sweeping (fault injection via
/// [`CompiledNetwork::with_faults`], quantization experiments) use this
/// entry point so the sweep never silently recompiles the clean
/// network.
///
/// # Panics
///
/// Panics under the same conditions as [`trace_energy_sweep`].
pub fn trace_energy_sweep_compiled(
    kernels: &Arc<CompiledNetwork>,
    mapping: &Mapping,
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
) -> TraceEnergyReport {
    let readout = cfg.readout();
    let per_sample: Vec<(usize, EventReport)> = samples
        .par_iter()
        .enumerate()
        .map(|(i, (x, _))| {
            let raster = cfg.encode_sample(i, x);
            let mut runner = SnnRunner::from_compiled(kernels.clone());
            let (outcome, trace) = runner.run_traced(&raster);
            let report = EventSimulator::new(mapping).run(&trace);
            (outcome.decode(readout), report)
        })
        .collect();

    let mut mean_energy = EnergyBreakdown::new();
    let mut latency_ns = 0.0f64;
    let mut per_sample_energy = Vec::with_capacity(per_sample.len());
    let mut predictions = Vec::with_capacity(per_sample.len());
    for (predicted, report) in &per_sample {
        mean_energy.merge(&report.energy);
        latency_ns += report.latency.nanoseconds();
        per_sample_energy.push(report.total_energy());
        predictions.push(*predicted);
    }
    let n = per_sample.len().max(1) as f64;
    let scored = score(predictions, samples);
    TraceEnergyReport {
        predictions: scored.predictions,
        correct: scored.correct,
        total: scored.total,
        per_sample_energy,
        mean_energy: mean_energy.scaled(1.0 / n),
        mean_latency: Time::from_nanos(latency_ns / n),
    }
}

/// Runs [`trace_energy_sweep`] once per coding scheme over the same
/// labelled set — same network, same mapping, same per-sample seeds and
/// timestep budget — and returns one `(encoding, report)` pair per
/// scheme, in input order.
///
/// This is the accuracy-vs-energy-per-inference comparison across spike
/// codes that only the trace-driven event path can make: the stationary
/// simulator's per-timestep expectations cannot represent a TTFS train's
/// single-spike sparsity or a burst's silent tail. The rate-coded entry
/// reproduces a plain [`trace_energy_sweep`] at the same configuration
/// exactly (same predictions, same energies).
///
/// # Panics
///
/// Panics under the same conditions as [`trace_energy_sweep`].
pub fn encoding_energy_sweep(
    net: &Network,
    mapping: &Mapping,
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
    encodings: &[Encoding],
) -> Vec<(Encoding, TraceEnergyReport)> {
    encodings
        .iter()
        .map(|&encoding| {
            let report = trace_energy_sweep(net, mapping, samples, &cfg.with_encoding(encoding));
            (encoding, report)
        })
        .collect()
}

/// Wall-clock + energy metrics of one execution discipline in the
/// serial-vs-co-resident comparison of [`multi_tenant_sweep`].
///
/// Both disciplines bill the **whole powered pool**: dynamic (per-event)
/// energy plus the full chip's leakage
/// ([`pool_leakage_power`]) over the discipline's wall-clock. Dynamic
/// energy is identical by construction (same traces, same per-event
/// charges); what changes is how long the chip leaks and how many
/// inferences that window produces.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancyMetrics {
    /// Per-event energy summed over every inference (leakage excluded).
    pub dynamic_energy: Energy,
    /// Dynamic energy plus whole-pool leakage over `latency`.
    pub pool_energy: Energy,
    /// Wall-clock for the whole batch (sum of runs for serial, sum of
    /// overlapped makespans for co-resident).
    pub latency: Time,
    /// Inferences completed (tenants × rounds).
    pub inferences: usize,
}

impl TenancyMetrics {
    /// Mean all-in (leakage-amortized) energy per inference.
    pub fn energy_per_inference(&self) -> Energy {
        if self.inferences == 0 {
            return Energy::ZERO;
        }
        self.pool_energy * (1.0 / self.inferences as f64)
    }

    /// Batch energy-delay product (pJ·ns); `0.0` when not finite.
    pub fn energy_delay_product(&self) -> f64 {
        let edp = self.pool_energy.picojoules() * self.latency.nanoseconds();
        if edp.is_finite() {
            edp
        } else {
            0.0
        }
    }

    /// Inferences per second.
    pub fn throughput(&self) -> f64 {
        safe_throughput(self.latency) * self.inferences as f64
    }
}

/// Outcome of a [`multi_tenant_sweep`]: the same networks, traces and
/// per-event costs under two execution disciplines.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantReport {
    /// Networks co-resident on the pool.
    pub tenants: usize,
    /// Presentations per tenant.
    pub rounds: usize,
    /// Fraction of the pool's NeuroCells the tenants occupy.
    pub pool_utilization: f64,
    /// Mean fraction of shared-replay cycles the global bus was busy —
    /// the contention co-residency pays for its overlap.
    pub mean_bus_occupancy: f64,
    /// Per-tenant classification accuracy (identical under both
    /// disciplines: co-residency shares the fabric, not the spikes).
    pub per_tenant_accuracy: Vec<f64>,
    /// One tenant at a time on the powered pool.
    pub serial: TenancyMetrics,
    /// All tenants co-resident, traces interleaved per timestep.
    pub shared: TenancyMetrics,
}

impl MultiTenantReport {
    /// Serial ÷ shared energy per inference (> 1 = co-residency wins).
    pub fn energy_per_inference_gain(&self) -> f64 {
        self.serial.energy_per_inference().picojoules()
            / self.shared.energy_per_inference().picojoules()
    }

    /// Serial ÷ shared batch EDP (> 1 = co-residency wins).
    pub fn edp_gain(&self) -> f64 {
        self.serial.energy_delay_product() / self.shared.energy_delay_product()
    }
}

/// Compares N networks run **serially on a dedicated fabric** against
/// the same N **co-resident on one [`FabricPool`]**, on identical spike
/// traces.
///
/// Every network classifies every sample (sample `j` is encoded once
/// under `cfg` with seed [`SweepConfig::sample_seed`]`(j)` and presented
/// to all tenants — functional results are therefore identical in both
/// disciplines). Serial execution replays each trace alone through a
/// dedicated [`EventSimulator`] and bills the whole powered pool's
/// leakage for the *sum* of the latencies; co-resident execution admits
/// every network to one pool and replays each round's traces through the
/// [`SharedEventSimulator`], billing the same pool over the overlapped
/// makespans. The report carries both [`TenancyMetrics`] plus the
/// contention stats (bus occupancy) only the shared path has.
///
/// # Errors
///
/// Returns the pool's [`AdmitError`] if the networks do not fit
/// co-resident on `pool_config`'s physical NeuroCells.
///
/// # Panics
///
/// Panics if `nets` or `samples` is empty, or a stimulus length differs
/// from a network's input count.
pub fn multi_tenant_sweep(
    nets: &[Network],
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
    pool_config: &ResparcConfig,
) -> Result<MultiTenantReport, AdmitError> {
    assert!(!nets.is_empty(), "need at least one tenant network");
    assert!(!samples.is_empty(), "need at least one sample");

    let mut pool = FabricPool::new(pool_config.clone());
    for (i, net) in nets.iter().enumerate() {
        pool.admit(net, &format!("tenant{i}"))?;
    }
    let tenant_ids: Vec<_> = pool.tenants().iter().map(|t| t.id).collect();

    // Encode each sample once; every tenant sees the identical raster.
    let rasters: Vec<SpikeRaster> = samples
        .par_iter()
        .enumerate()
        .map(|(j, (x, _))| cfg.encode_sample(j, x))
        .collect();
    let readout = cfg.readout();

    // Per tenant: run every round on the shared compiled kernels,
    // capturing the trace the architectural replays consume.
    let per_tenant: Vec<Vec<(usize, SpikeTrace)>> = nets
        .iter()
        .map(|net| {
            let kernels = net.compiled();
            rasters
                .par_iter()
                .map(|raster| {
                    let mut runner = SnnRunner::from_compiled(kernels.clone());
                    let (outcome, trace) = runner.run_traced(raster);
                    (outcome.decode(readout), trace)
                })
                .collect()
        })
        .collect();
    let per_tenant_accuracy: Vec<f64> = per_tenant
        .iter()
        .map(|runs| {
            let correct = runs
                .iter()
                .zip(samples)
                .filter(|((p, _), (_, y))| p == y)
                .count();
            accuracy_fraction(correct, samples.len())
        })
        .collect();

    let pool_leak = pool_leakage_power(pool_config);
    let inferences = nets.len() * samples.len();

    // --- Serial discipline: one tenant at a time on the powered pool.
    // The admitted mappings serve directly: every event-simulator charge
    // and cycle count is origin-invariant (span widths and NC counts,
    // never absolute coordinates), so a pool-placed mapping replays
    // identically to a dedicated origin-0 one.
    let mappings: Vec<&Mapping> = pool.tenants().iter().map(|t| &t.mapping).collect();
    let serial_jobs: Vec<(usize, &SpikeTrace)> = per_tenant
        .iter()
        .enumerate()
        .flat_map(|(i, runs)| runs.iter().map(move |(_, trace)| (i, trace)))
        .collect();
    let serial_runs: Vec<EventReport> = serial_jobs
        .par_iter()
        .map(|&(i, trace)| EventSimulator::new(mappings[i]).run(trace))
        .collect();
    let serial_latency = Time::from_nanos(
        serial_runs
            .iter()
            .map(|r| r.latency.nanoseconds())
            .sum::<f64>(),
    );
    let serial_dynamic: Energy = serial_runs
        .iter()
        .map(|r| {
            r.total_energy()
                - r.energy.get(Category::LogicLeakage)
                - r.energy.get(Category::MemoryLeakage)
        })
        .sum();
    let serial = TenancyMetrics {
        dynamic_energy: serial_dynamic,
        pool_energy: serial_dynamic + pool_leak * serial_latency,
        latency: serial_latency,
        inferences,
    };

    // --- Co-resident discipline: every round's traces interleaved.
    let sim = SharedEventSimulator::new(&pool);
    let rounds: Vec<usize> = (0..samples.len()).collect();
    let shared_rounds: Vec<_> = rounds
        .par_iter()
        .map(|&j| {
            let pairs: Vec<_> = tenant_ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, &per_tenant[i][j].1))
                .collect();
            sim.run_weighted(&pairs, &vec![1; pairs.len()])
        })
        .collect();
    let shared_latency = Time::from_nanos(
        shared_rounds
            .iter()
            .map(|r| r.latency.nanoseconds())
            .sum::<f64>(),
    );
    let shared_dynamic: Energy = shared_rounds
        .iter()
        .flat_map(|r| r.tenants.iter().map(|t| t.energy.total()))
        .sum();
    let shared = TenancyMetrics {
        dynamic_energy: shared_dynamic,
        pool_energy: shared_dynamic + pool_leak * shared_latency,
        latency: shared_latency,
        inferences,
    };
    let mean_bus_occupancy =
        shared_rounds.iter().map(|r| r.bus_occupancy()).sum::<f64>() / shared_rounds.len() as f64;

    Ok(MultiTenantReport {
        tenants: nets.len(),
        rounds: samples.len(),
        pool_utilization: pool.utilization(),
        mean_bus_occupancy,
        per_tenant_accuracy,
        serial,
        shared,
    })
}

/// Tallies predictions against labels into a report (shared by both sweep
/// flavours so scoring can never diverge between them).
fn score(predictions: Vec<usize>, samples: &[(Vec<f32>, usize)]) -> SweepReport {
    let correct = predictions
        .iter()
        .zip(samples)
        .filter(|(&p, (_, y))| p == *y)
        .count();
    SweepReport {
        predictions,
        correct,
        total: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, SyntheticImages};
    use resparc_neuro::prelude::*;
    use std::collections::BTreeSet;

    fn trained_toy_net() -> (Network, Vec<(Vec<f32>, usize)>) {
        let gen = SyntheticImages::new(DatasetKind::Mnist, 12, 3);
        let train = gen.labelled_set(120, 0);
        let mut cfg = TrainConfig::quick_test();
        cfg.epochs = 10;
        let mut net = train_mlp(144, &[24, 10], &train, &cfg);
        let calib: Vec<Vec<f32>> = train.iter().take(16).map(|(x, _)| x.clone()).collect();
        normalize_for_snn(&mut net, &calib, 0.99);
        let test = gen.labelled_set(40, 9_000);
        (net, test)
    }

    #[test]
    fn sweep_matches_serial_loop_exactly() {
        let (net, test) = trained_toy_net();
        let cfg = SweepConfig::rate(30, 0.8, 7);
        let report = spiking_accuracy_sweep(&net, &test, &cfg);
        assert_eq!(report.total, test.len());
        let mut correct = 0usize;
        for (i, (x, y)) in test.iter().enumerate() {
            let mut enc = PoissonEncoder::new(cfg.peak_rate, cfg.sample_seed(i));
            let raster = enc.encode(x, cfg.steps);
            let predicted = net.spiking().run(&raster).predicted;
            assert_eq!(predicted, report.predictions[i], "sample {i}");
            if predicted == *y {
                correct += 1;
            }
        }
        assert_eq!(report.correct, correct);
    }

    #[test]
    fn sample_seeds_are_decorrelated() {
        // The seed ^ i scheme collapsed sample i == seed to RNG seed 0
        // and made nearby base seeds share most per-sample streams; the
        // splitmix64 mix must do neither.
        let a = SweepConfig::rate(10, 0.8, 7);
        assert_ne!(a.sample_seed(7), 0, "sample i == seed must not zero out");

        let b = SweepConfig::rate(10, 0.8, 6);
        let a_seeds: BTreeSet<u64> = (0..64).map(|i| a.sample_seed(i)).collect();
        let b_seeds: BTreeSet<u64> = (0..64).map(|i| b.sample_seed(i)).collect();
        assert_eq!(a_seeds.len(), 64, "per-sample seeds must be distinct");
        assert!(
            a_seeds.is_disjoint(&b_seeds),
            "base seeds 6 and 7 must not share per-sample spike streams"
        );
    }

    #[test]
    fn analog_sweep_matches_classify() {
        let (net, test) = trained_toy_net();
        let report = analog_accuracy_sweep(&net, &test);
        for (i, (x, _)) in test.iter().enumerate() {
            assert_eq!(report.predictions[i], net.classify_analog(x));
        }
        // The trained net should beat chance comfortably in analog mode.
        assert!(report.accuracy() > 0.3, "accuracy {}", report.accuracy());
    }

    #[test]
    fn trace_energy_sweep_meters_every_sample() {
        use resparc_core::map::Mapper;
        use resparc_core::ResparcConfig;

        let (net, test) = trained_toy_net();
        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        let cfg = SweepConfig::rate(20, 0.8, 7);
        let subset = &test[..8];
        let report = trace_energy_sweep(&net, &mapping, subset, &cfg);
        assert_eq!(report.total, 8);
        assert_eq!(report.per_sample_energy.len(), 8);
        assert!(report
            .per_sample_energy
            .iter()
            .all(|e| e.picojoules() > 0.0));
        assert!(report.mean_total_energy().picojoules() > 0.0);
        assert!(report.mean_latency.nanoseconds() > 0.0);

        // Predictions match the accuracy sweep at the same configuration.
        let acc = spiking_accuracy_sweep(&net, subset, &cfg);
        assert_eq!(report.predictions, acc.predictions);
        assert_eq!(report.correct, acc.correct);

        // The mean ledger is the category-wise mean of the samples.
        let mean_total: f64 = report
            .per_sample_energy
            .iter()
            .map(|e| e.picojoules())
            .sum::<f64>()
            / 8.0;
        assert!((report.mean_total_energy().picojoules() / mean_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn encoding_sweeps_share_seeds_and_decode_appropriately() {
        use resparc_core::map::Mapper;
        use resparc_core::ResparcConfig;

        let (net, test) = trained_toy_net();
        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        let cfg = SweepConfig::rate(20, 0.8, 7);
        let subset = &test[..4];
        let reports = encoding_energy_sweep(
            &net,
            &mapping,
            subset,
            &cfg,
            &[
                Encoding::Rate,
                Encoding::Ttfs,
                Encoding::Burst {
                    max_burst: 5,
                    gap: 2,
                },
            ],
        );
        assert_eq!(reports.len(), 3);
        // The rate entry is exactly a plain trace_energy_sweep.
        let direct = trace_energy_sweep(&net, &mapping, subset, &cfg);
        assert_eq!(reports[0].0, Encoding::Rate);
        assert_eq!(reports[0].1, direct);
        // Temporal codes move far fewer input spikes at matched steps.
        for (enc, report) in &reports[1..] {
            assert_eq!(report.total, 4);
            assert!(
                report.mean_comm_crossbar_energy() < direct.mean_comm_crossbar_energy(),
                "{enc} should beat rate coding on comm+crossbar"
            );
        }
    }

    #[test]
    fn multi_tenant_sweep_amortizes_leakage_and_edp() {
        use resparc_core::ResparcConfig;
        use resparc_neuro::topology::Topology;

        let nets: Vec<Network> = (0..3)
            .map(|s| Network::random(Topology::mlp(144, &[96, 10]), 20 + s, 1.0))
            .collect();
        let gen = SyntheticImages::new(DatasetKind::Mnist, 12, 3);
        let samples = gen.labelled_set(4, 100);
        let cfg = SweepConfig::rate(20, 0.7, 9);
        let report = multi_tenant_sweep(&nets, &samples, &cfg, &ResparcConfig::resparc_64())
            .expect("three small MLPs fit one pool");

        assert_eq!(report.tenants, 3);
        assert_eq!(report.rounds, 4);
        assert_eq!(report.serial.inferences, 12);
        assert_eq!(report.shared.inferences, 12);
        assert!(report.pool_utilization > 0.0 && report.pool_utilization <= 1.0);
        assert!(report.mean_bus_occupancy >= 0.0 && report.mean_bus_occupancy <= 1.0);
        assert_eq!(report.per_tenant_accuracy.len(), 3);

        // Same traces, same per-event charges: dynamic energy is
        // identical under both disciplines.
        assert!(
            (report.serial.dynamic_energy.picojoules() / report.shared.dynamic_energy.picojoules()
                - 1.0)
                .abs()
                < 1e-9,
            "serial {} vs shared {} dynamic",
            report.serial.dynamic_energy,
            report.shared.dynamic_energy
        );
        // Co-residency overlaps the makespan, amortizing the powered
        // pool's leakage: shorter wall-clock, lower all-in energy per
        // inference, lower batch EDP.
        assert!(report.shared.latency < report.serial.latency);
        assert!(
            report.shared.energy_per_inference() < report.serial.energy_per_inference(),
            "shared {} vs serial {}",
            report.shared.energy_per_inference(),
            report.serial.energy_per_inference()
        );
        assert!(report.energy_per_inference_gain() > 1.0);
        assert!(report.edp_gain() > 1.0);
        assert!(report.shared.throughput() > report.serial.throughput());
    }

    #[test]
    fn multi_tenant_sweep_rejects_overfull_pools() {
        use resparc_core::fabric::AdmitError;
        use resparc_core::ResparcConfig;
        use resparc_neuro::topology::Topology;

        // Three copies of the paper's MNIST MLP (8 NCs each) cannot
        // co-reside on a 16-NC pool.
        let nets: Vec<Network> = (0..3)
            .map(|s| Network::random(Topology::mlp(784, &[800, 800, 10]), s, 1.0))
            .collect();
        let samples = vec![(vec![0.5f32; 784], 0usize)];
        let cfg = SweepConfig::rate(5, 0.5, 1);
        let err = multi_tenant_sweep(&nets, &samples, &cfg, &ResparcConfig::resparc_64())
            .expect_err("must not fit");
        assert!(matches!(err, AdmitError::CapacityExhausted { .. }));
    }

    #[test]
    fn ttfs_rebalance_recovers_sweep_accuracy() {
        use resparc_neuro::convert::rebalance_thresholds_for_ttfs;

        // A rate-normalized net collapses under TTFS input (single
        // spikes underdrive rate-balanced thresholds); the
        // latency-targeting rebalance must recover a usable accuracy at
        // the same sweep configuration.
        let (net, test) = trained_toy_net();
        let cfg = SweepConfig::rate(30, 0.8, 7).with_encoding(Encoding::Ttfs);
        let rate_cfg = SweepConfig::rate(30, 0.8, 7);
        let before = spiking_accuracy_sweep(&net, &test, &cfg);
        let rate_before = spiking_accuracy_sweep(&net, &test, &rate_cfg);

        let mut rebalanced = net.clone();
        let calib: Vec<Vec<f32>> = test.iter().take(16).map(|(x, _)| x.clone()).collect();
        rebalance_thresholds_for_ttfs(&mut rebalanced, &calib, 0.99, 0.35);
        let after = spiking_accuracy_sweep(&rebalanced, &test, &cfg);

        assert!(
            after.accuracy() > before.accuracy(),
            "rebalanced TTFS {} must beat collapsed TTFS {}",
            after.accuracy(),
            before.accuracy()
        );
        // And land in the same regime as the rate-coded readout rather
        // than at chance.
        assert!(
            after.accuracy() >= rate_before.accuracy() * 0.5,
            "rebalanced TTFS {} vs rate {}",
            after.accuracy(),
            rate_before.accuracy()
        );
    }

    #[test]
    fn empty_sweep_reports_zero() {
        let (net, _) = trained_toy_net();
        let report = spiking_accuracy_sweep(&net, &[], &SweepConfig::fig14a());
        assert_eq!(report.total, 0);
        assert_eq!(report.accuracy(), 0.0);
    }
}
