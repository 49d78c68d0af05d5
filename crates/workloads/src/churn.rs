//! Mid-replay tenant churn: a dynamically scheduled fabric vs the
//! static co-resident baseline.
//!
//! [`multi_tenant_sweep`](crate::sweep::multi_tenant_sweep) fixed the
//! tenant set for a whole replay batch — PR 4's static realisation of
//! RESPARC's reconfigurability. [`churn_sweep`] measures the dynamic
//! half: requests **arrive over rounds**, are admitted by a
//! [`FabricScheduler`](resparc_core::fabric::FabricScheduler) when the
//! pool's [`PackingPolicy`] finds capacity
//! (first-fit, best-fit, or defragmenting compaction), queue FIFO
//! otherwise, and **depart** when their service completes — freeing
//! NeuroCells for the next arrival while other tenants keep replaying.
//! The dynamic half runs the [serving loop](crate::serving) on its round
//! clock: each request is its own service class with an infinite SLO.
//!
//! The baseline runs the *same* requests, traces and per-event charges
//! the static way: tenants are packed into co-resident batches in
//! arrival order, and a batch stays provisioned until its
//! longest-running member finishes — early finishers idle on powered
//! silicon, and later arrivals wait for the whole batch to drain. The
//! difference between the two disciplines is pure scheduling: dynamic
//! churn compresses the schedule (fewer, fuller rounds), so the powered
//! pool's leakage is amortized over more inferences per unit time.

use rayon::prelude::*;
use resparc_core::fabric::{
    pool_leakage_power, AdmitError, FabricPool, PackingPolicy, SharedEventSimulator, TenantId,
};
use resparc_core::map::Mapping;
use resparc_core::ResparcConfig;
use resparc_energy::units::{Energy, Time};
use resparc_neuro::network::{Network, SnnRunner};
use resparc_neuro::trace::SpikeTrace;

use crate::fault::FaultEvent;
use crate::serving::{map_probes, serve, Discipline, Served, ServiceClass};
use crate::sweep::{accuracy_fraction, SweepConfig, TenancyMetrics};

/// One request in a churn schedule, paired index-wise with the network
/// list [`churn_sweep`] receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Round the request is submitted in.
    pub arrival_round: usize,
    /// Replay rounds of service the request needs before departing
    /// (each round presents one sample; sample `r % samples.len()` on
    /// the request's `r`-th service round).
    pub service_rounds: usize,
    /// Bus-arbitration weight for the request's shared replays.
    pub weight: u32,
}

impl ChurnSpec {
    /// A fair-weight request.
    pub fn new(arrival_round: usize, service_rounds: usize) -> Self {
        Self {
            arrival_round,
            service_rounds,
            weight: 1,
        }
    }

    /// The same request at a different bus-arbitration weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// Scheduling metrics of one execution discipline in a [`ChurnReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnMetrics {
    /// Energy/latency/inference totals, billed like every other tenancy
    /// comparison: dynamic per-event energy plus the whole powered
    /// pool's leakage over the discipline's busy wall-clock.
    pub tenancy: TenancyMetrics,
    /// Rounds from round 0 until the schedule drained — idle gaps
    /// before and between arrivals included, so a schedule whose first
    /// request arrives late counts the leading idle rounds too (they
    /// are free energy-wise; see [`busy_rounds`](Self::busy_rounds)).
    pub rounds: usize,
    /// Rounds in which at least one tenant replayed.
    pub busy_rounds: usize,
    /// Mean fraction of the pool's NeuroCells owned by tenants that
    /// *replayed* in a busy round — statically provisioned tenants
    /// idling past their service do not count, which is exactly the
    /// waste the dynamic discipline reclaims.
    pub mean_active_utilization: f64,
    /// Mean rounds a request waited between submission and admission.
    pub mean_queue_wait: f64,
    /// Worst-case queue wait in rounds.
    pub max_queue_wait: usize,
}

/// Outcome of a [`churn_sweep`]: the same arrival/departure schedule,
/// traces and per-event charges under dynamic scheduling and under
/// static batch provisioning.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Packing policy the dynamic scheduler admitted with.
    pub policy: PackingPolicy,
    /// Requests in the schedule.
    pub tenants: usize,
    /// Per-request classification accuracy over its service rounds
    /// (identical under both disciplines: scheduling shares the fabric,
    /// not the spikes).
    pub per_tenant_accuracy: Vec<f64>,
    /// The dynamically scheduled discipline
    /// ([`FabricScheduler`](resparc_core::fabric::FabricScheduler)).
    pub churned: ChurnMetrics,
    /// The static baseline: co-resident batches in arrival order, each
    /// provisioned until its longest member departs.
    pub static_baseline: ChurnMetrics,
}

impl ChurnReport {
    /// Static ÷ churned energy per inference (> 1 = churn wins).
    pub fn energy_per_inference_gain(&self) -> f64 {
        self.static_baseline
            .tenancy
            .energy_per_inference()
            .picojoules()
            / self.churned.tenancy.energy_per_inference().picojoules()
    }

    /// Static ÷ churned busy wall-clock (> 1 = churn drains the same
    /// work sooner).
    pub fn makespan_gain(&self) -> f64 {
        self.static_baseline.tenancy.latency.nanoseconds()
            / self.churned.tenancy.latency.nanoseconds()
    }

    /// Static ÷ churned batch EDP (> 1 = churn wins).
    pub fn edp_gain(&self) -> f64 {
        self.static_baseline.tenancy.energy_delay_product()
            / self.churned.tenancy.energy_delay_product()
    }

    /// Churned − static mean active utilization (> 0 = churn keeps the
    /// powered silicon busier).
    pub fn utilization_gain(&self) -> f64 {
        self.churned.mean_active_utilization - self.static_baseline.mean_active_utilization
    }
}

/// Runs an arrival/departure schedule of `nets` through a dynamically
/// scheduled [`FabricPool`] and through the static co-resident baseline,
/// on identical spike traces.
///
/// Request `i` (network `nets[i]`, schedule `specs[i]`) classifies
/// sample `r % samples.len()` on its `r`-th service round; sample `j`
/// is encoded once under `cfg` with seed
/// [`SweepConfig::sample_seed`]`(j)`, so functional results are
/// identical in both disciplines *and* across requests presenting the
/// same sample. The dynamic discipline drives a
/// [`FabricScheduler`](resparc_core::fabric::FabricScheduler)
/// over the pool (admit when `policy` finds capacity — including
/// defragmentation for [`PackingPolicy::Defragment`] — queue FIFO
/// otherwise, evict on departure) and interleaves each round's replays
/// through [`SharedEventSimulator::interleave`] at the requests' weights
/// (each distinct (request, sample) trace is replayed once per sweep).
/// The static baseline packs requests into co-resident batches in
/// arrival order; a batch is admitted whole, runs until its longest
/// member's service completes (early finishers idle resident, their
/// silicon still powered), and only then is the next batch admitted.
///
/// Both disciplines bill dynamic per-event energy plus the whole
/// powered pool's leakage over their busy wall-clock; idle rounds
/// waiting for future arrivals are free in both.
///
/// # Errors
///
/// Returns [`AdmitError::Map`] if a network cannot be mapped and
/// [`AdmitError::CapacityExhausted`] if a single request exceeds the
/// whole pool (it could never be admitted).
///
/// # Panics
///
/// Panics if `nets`/`specs` lengths differ or are empty, `samples` is
/// empty, any `service_rounds`/`weight` is zero, or a stimulus length
/// differs from a network's input count.
pub fn churn_sweep(
    nets: &[Network],
    specs: &[ChurnSpec],
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
    pool_config: &ResparcConfig,
    policy: PackingPolicy,
) -> Result<ChurnReport, AdmitError> {
    let (served, (probes, traces, per_tenant_accuracy, order)) =
        run_schedule(nets, specs, samples, cfg, pool_config, policy, &[])?;
    let pool_leak = pool_leakage_power(pool_config);

    // --- Dynamic discipline: the service loop's rounds and records.
    let dyn_latency = Time::from_nanos(served.busy_ns);
    let records = served.sched.completed();
    let dyn_waits: Vec<usize> = records.iter().map(|r| r.wait_rounds()).collect();
    let churned = ChurnMetrics {
        tenancy: TenancyMetrics {
            dynamic_energy: served.dynamic_energy,
            pool_energy: served.dynamic_energy + pool_leak * dyn_latency,
            latency: dyn_latency,
            inferences: records.iter().map(|r| r.rounds_served).sum(),
        },
        rounds: served.sched.round(),
        busy_rounds: served.shares.len(),
        mean_active_utilization: served.mean_share(|_| true),
        mean_queue_wait: dyn_waits.iter().sum::<usize>() as f64 / dyn_waits.len().max(1) as f64,
        max_queue_wait: dyn_waits.iter().copied().max().unwrap_or(0),
    };

    // --- Static baseline: co-resident batches in arrival order, each
    // provisioned until its longest member departs.
    let mut batches: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_ncs = 0usize;
    for &i in &order {
        let ncs = probes[i].placement.ncs_used.max(1);
        if current_ncs + ncs > pool_config.physical_ncs && !current.is_empty() {
            batches.push(std::mem::take(&mut current));
            current_ncs = 0;
        }
        current.push(i);
        current_ncs += ncs;
    }
    if !current.is_empty() {
        batches.push(current);
    }

    let mut stat_energy = Energy::ZERO;
    let mut stat_latency_ns = 0.0f64;
    let mut stat_busy = 0usize;
    let mut stat_util = 0.0f64;
    let mut stat_inferences = 0usize;
    let mut stat_waits: Vec<usize> = Vec::new();
    let mut round_cursor = 0usize;
    for batch in &batches {
        let arrival = batch
            .iter()
            .map(|&i| specs[i].arrival_round)
            .max()
            .unwrap_or(0);
        let start = round_cursor.max(arrival);
        for &i in batch {
            stat_waits.push(start - specs[i].arrival_round);
        }
        let duration = batch
            .iter()
            .map(|&i| specs[i].service_rounds)
            .max()
            .unwrap_or(0);
        let mut pool = FabricPool::new(pool_config.clone());
        let ids: Vec<(usize, TenantId)> = batch
            .iter()
            .filter_map(|&i| {
                // Batches are sized to fit the empty pool; a refusal
                // would be a batching bug, and skipping the member
                // (under-counting the static baseline) is strictly
                // safer than panicking mid-sweep.
                let id = pool
                    .admit_mapped(probes[i].clone(), &format!("tenant{i}"))
                    .ok()?;
                Some((i, id))
            })
            .collect();
        let sim = SharedEventSimulator::new(&pool);
        // `k` is a service-round index into several tenants' trace
        // lists at once, not a single iterable.
        #[allow(clippy::needless_range_loop)]
        for k in 0..duration {
            // Members whose service already completed stay resident
            // (statically provisioned) but have nothing to replay.
            let active: Vec<&(usize, TenantId)> = ids
                .iter()
                .filter(|(i, _)| specs[*i].service_rounds > k)
                .collect();
            let pairs: Vec<(TenantId, &SpikeTrace)> = active
                .iter()
                .map(|&&(i, id)| (id, &traces[i][k % samples.len()]))
                .collect();
            let report = sim.run_weighted(&pairs, &vec![1; pairs.len()]);
            stat_energy += report
                .tenants
                .iter()
                .map(|t| t.energy.total())
                .sum::<Energy>();
            stat_latency_ns += report.latency.nanoseconds();
            let active_ncs: usize = active
                .iter()
                .filter_map(|&&(_, id)| pool.tenant(id))
                .map(|t| t.nc_count())
                .sum();
            stat_util += active_ncs as f64 / pool_config.physical_ncs as f64;
            stat_busy += 1;
            stat_inferences += pairs.len();
        }
        round_cursor = start + duration;
    }
    let stat_latency = Time::from_nanos(stat_latency_ns);
    let static_baseline = ChurnMetrics {
        tenancy: TenancyMetrics {
            dynamic_energy: stat_energy,
            pool_energy: stat_energy + pool_leak * stat_latency,
            latency: stat_latency,
            inferences: stat_inferences,
        },
        rounds: round_cursor,
        busy_rounds: stat_busy,
        mean_active_utilization: stat_util / stat_busy.max(1) as f64,
        mean_queue_wait: stat_waits.iter().sum::<usize>() as f64 / stat_waits.len().max(1) as f64,
        max_queue_wait: stat_waits.iter().copied().max().unwrap_or(0),
    };

    debug_assert_eq!(
        churned.tenancy.inferences,
        static_baseline.tenancy.inferences
    );
    Ok(ChurnReport {
        policy,
        tenants: nets.len(),
        per_tenant_accuracy,
        churned,
        static_baseline,
    })
}

/// Per-request probes, traces and accuracy of a churn schedule, and its
/// submission order (arrival round, ties in input order). Request `i`
/// replays `traces[i][r % traces[i].len()]` on its service round `r`.
type Traced = (Vec<Mapping>, Vec<Vec<SpikeTrace>>, Vec<f64>, Vec<usize>);

/// Validates a churn schedule, maps every request, traces each distinct
/// (request, sample) presentation once, and serves the schedule on the
/// round clock of the [serving loop](crate::serving) with `faults`
/// striking mid-stream. Request `i` is its own service class `tenant{i}`
/// with an infinite SLO.
pub(crate) fn run_schedule(
    nets: &[Network],
    specs: &[ChurnSpec],
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
    pool_config: &ResparcConfig,
    policy: PackingPolicy,
    faults: &[FaultEvent],
) -> Result<(Served, Traced), AdmitError> {
    assert_eq!(nets.len(), specs.len(), "one ChurnSpec per network");
    assert!(!nets.is_empty(), "need at least one request");
    assert!(!samples.is_empty(), "need at least one sample");
    assert!(
        specs.iter().all(|s| s.service_rounds > 0 && s.weight > 0),
        "service rounds and weights must be positive"
    );
    let probes = map_probes(nets, pool_config)?;

    // A request whose service outlasts the sample set wraps (round r
    // presents sample r % samples.len()), and the run is deterministic
    // per (network, sample, seed), so wrapped rounds replay the
    // identical trace rather than re-simulating it.
    let readout = cfg.readout();
    let jobs: Vec<(usize, usize)> = (0..nets.len())
        .flat_map(|i| (0..specs[i].service_rounds.min(samples.len())).map(move |j| (i, j)))
        .collect();
    let runs: Vec<(usize, SpikeTrace)> = jobs
        .par_iter()
        .map(|&(i, j)| {
            let raster = cfg.encode_sample(j, &samples[j].0);
            let mut runner = SnnRunner::from_compiled(nets[i].compiled().clone());
            let (outcome, trace) = runner.run_traced(&raster);
            (outcome.decode(readout), trace)
        })
        .collect();
    let mut traces: Vec<Vec<SpikeTrace>> = (0..nets.len()).map(|_| Vec::new()).collect();
    let mut per_tenant_correct = vec![0usize; nets.len()];
    for (&(i, j), (predicted, trace)) in jobs.iter().zip(runs) {
        if predicted == samples[j].1 {
            // Sample j is presented on every service round that wraps
            // onto it.
            per_tenant_correct[i] += specs[i].service_rounds / samples.len()
                + usize::from(j < specs[i].service_rounds % samples.len());
        }
        traces[i].push(trace);
    }
    let per_tenant_accuracy: Vec<f64> = per_tenant_correct
        .iter()
        .zip(specs)
        .map(|(&c, s)| accuracy_fraction(c, s.service_rounds))
        .collect();

    let classes: Vec<ServiceClass> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            ServiceClass::new(&format!("tenant{i}"), s.service_rounds, f64::INFINITY)
                .with_weight(s.weight)
        })
        .collect();
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| specs[i].arrival_round);
    let arrivals: Vec<(f64, usize)> = order
        .iter()
        .map(|&i| (specs[i].arrival_round as f64, i))
        .collect();
    let served = serve(
        pool_config,
        policy,
        &probes,
        &classes,
        &traces,
        &arrivals,
        |k, r| r % traces[order[k]].len(),
        Discipline::Rounds(faults),
    );
    Ok((served, (probes, traces, per_tenant_accuracy, order)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use resparc_neuro::topology::Topology;

    /// 1, 2, 4 and 5-NC networks on RESPARC-64 (footprints asserted in
    /// `resparc_core::fabric::pool` tests).
    fn sized_net(ncs: usize, seed: u64) -> Network {
        let hiddens: &[usize] = match ncs {
            1 => &[96, 10],
            2 => &[576, 576, 10],
            4 => &[576, 576, 576, 10],
            5 => &[576, 576, 576, 576, 10],
            other => panic!("no sized net for {other} NCs"),
        };
        Network::random(Topology::mlp(144, hiddens), seed, 1.0)
    }

    fn samples() -> Vec<(Vec<f32>, usize)> {
        (0..3)
            .map(|s| {
                let x: Vec<f32> = (0..144).map(|i| ((s * 5 + i) % 9) as f32 / 9.0).collect();
                (x, s % 10)
            })
            .collect()
    }

    #[test]
    fn churn_beats_static_batching_on_a_heterogeneous_schedule() {
        // Batch 1 = three 5-NC requests; two finish after 1 round but
        // the batch stays provisioned for 6. Dynamic churn evicts the
        // short ones and backfills the fourth request immediately.
        let nets: Vec<Network> = (0..4).map(|s| sized_net(5, 30 + s)).collect();
        let specs = vec![
            ChurnSpec::new(0, 1),
            ChurnSpec::new(0, 6),
            ChurnSpec::new(0, 1),
            ChurnSpec::new(0, 6),
        ];
        let cfg = SweepConfig::rate(12, 0.7, 9);
        let report = churn_sweep(
            &nets,
            &specs,
            &samples(),
            &cfg,
            &ResparcConfig::resparc_64(),
            PackingPolicy::FirstFit,
        )
        .expect("every request fits the pool alone");

        assert_eq!(report.tenants, 4);
        assert_eq!(report.churned.tenancy.inferences, 14);
        assert_eq!(report.static_baseline.tenancy.inferences, 14);
        // Static: batch {0,1,2} runs 6 rounds, then {3} runs 6 more.
        assert_eq!(report.static_baseline.rounds, 12);
        assert_eq!(report.static_baseline.busy_rounds, 12);
        // Dynamic: requests 0 and 2 depart after round 0, request 3
        // backfills in round 1 and the schedule drains in 7 rounds.
        assert_eq!(report.churned.rounds, 7);
        assert_eq!(report.churned.busy_rounds, 7);
        assert_eq!(report.churned.max_queue_wait, 1);
        // Same work, same spikes: dynamic per-event energy matches.
        let rel = report.churned.tenancy.dynamic_energy.picojoules()
            / report.static_baseline.tenancy.dynamic_energy.picojoules()
            - 1.0;
        assert!(rel.abs() < 1e-9, "dynamic energies diverged by {rel}");
        // The headline: churn drains sooner, keeps the silicon busier
        // and amortizes leakage over the same inferences.
        assert!(
            report.makespan_gain() > 1.0,
            "gain {}",
            report.makespan_gain()
        );
        assert!(report.utilization_gain() > 0.0);
        assert!(
            report.energy_per_inference_gain() > 1.0,
            "gain {}",
            report.energy_per_inference_gain()
        );
        assert!(report.edp_gain() > 1.0);
        assert!(report.churned.mean_queue_wait <= report.static_baseline.mean_queue_wait);
    }

    #[test]
    fn defragmentation_cuts_queue_wait_under_fragmenting_churn() {
        // Eight 2-NC requests fill the pool; two depart after round 0,
        // leaving non-adjacent 2-NC holes. The ninth request needs 4
        // contiguous NCs: first-fit keeps it queued until the pool
        // drains, defragmentation admits it in round 1.
        let mut nets: Vec<Network> = (0..8).map(|s| sized_net(2, 40 + s)).collect();
        nets.push(sized_net(4, 50));
        let mut specs: Vec<ChurnSpec> = (0..8)
            .map(|i| ChurnSpec::new(0, if i == 0 || i == 2 { 1 } else { 4 }))
            .collect();
        specs.push(ChurnSpec::new(0, 1));
        let cfg = SweepConfig::rate(10, 0.7, 11);

        let run = |policy| {
            churn_sweep(
                &nets,
                &specs,
                &samples(),
                &cfg,
                &ResparcConfig::resparc_64(),
                policy,
            )
            .expect("every request fits the pool alone")
        };
        let defrag = run(PackingPolicy::Defragment);
        let first = run(PackingPolicy::FirstFit);

        assert!(defrag.churned.max_queue_wait < first.churned.max_queue_wait);
        assert!(defrag.churned.rounds <= first.churned.rounds);
        // Identical functional results and total work either way.
        assert_eq!(defrag.per_tenant_accuracy, first.per_tenant_accuracy);
        assert_eq!(
            defrag.churned.tenancy.inferences,
            first.churned.tenancy.inferences
        );
    }

    #[test]
    fn oversized_request_is_rejected_up_front() {
        let nets = vec![Network::random(
            Topology::mlp(144, &[2048, 2048, 10]), // 18 NCs > 16
            1,
            1.0,
        )];
        let specs = vec![ChurnSpec::new(0, 1)];
        let err = churn_sweep(
            &nets,
            &specs,
            &samples(),
            &SweepConfig::rate(5, 0.5, 1),
            &ResparcConfig::resparc_64(),
            PackingPolicy::Defragment,
        )
        .expect_err("cannot ever fit");
        assert!(matches!(err, AdmitError::CapacityExhausted { .. }));
    }
}
