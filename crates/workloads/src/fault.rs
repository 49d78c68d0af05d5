//! Resilience workloads: device-fault accuracy/energy sweeps and
//! NeuroCell-failure recovery drills.
//!
//! The paper's crossbars are built from real memristive devices, and
//! real devices break: cells stick at a conductance rail, drift toward
//! `G_min`, and spread log-normally around their programmed value
//! (modelled by [`FaultPlan`] in `resparc_device`). This module turns
//! those models into workloads:
//!
//! * [`fault_sweep`] applies a grid of [`FaultPlan`]s to a network's
//!   compiled kernels (via
//!   [`CompiledNetwork::with_faults`](resparc_neuro::kernel::CompiledNetwork::with_faults)
//!   — a pure transform, the clean kernels are never touched) and runs
//!   the trace-driven accuracy/energy sweep once per (plan, encoding)
//!   cell. This is the stuck-at-rate-vs-accuracy and drift-vs-accuracy
//!   degradation surface, priced per coding scheme — TTFS's
//!   single-spike code and rate coding's redundancy degrade very
//!   differently under the same silicon damage.
//! * [`fault_recovery_drill`] injects **NeuroCell failures mid-replay**
//!   into a dynamically scheduled fabric ([`FaultEvent`]), running the
//!   [serving loop](crate::serving) on its round clock: the scheduler's
//!   recovery path ([`FabricScheduler::fail_nc`]) evicts the victim,
//!   re-queues it at the head, and re-admits it wherever healthy
//!   capacity remains. The [`FaultDrillReport`] measures what
//!   resilience costs — voided replays, recovery rounds, utilization
//!   before/after the failures — and what it saves: interrupted
//!   requests still complete.
//!
//! [`FabricScheduler::fail_nc`]: resparc_core::fabric::FabricScheduler::fail_nc

use std::sync::Arc;

use resparc_core::fabric::{AdmitError, PackingPolicy, ServiceRecord};
use resparc_core::map::Mapping;
use resparc_core::ResparcConfig;
use resparc_device::fault::FaultPlan;
use resparc_energy::units::{Energy, Time};
use resparc_neuro::encoding::Encoding;
use resparc_neuro::network::Network;

use crate::churn::{run_schedule, ChurnSpec};
use crate::sweep::{trace_energy_sweep_compiled, SweepConfig, TraceEnergyReport};

/// One `(fault plan, encoding)` cell of a [`fault_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepPoint {
    /// The injected fault plan.
    pub plan: FaultPlan,
    /// The input coding scheme this cell ran under.
    pub encoding: Encoding,
    /// Accuracy and per-inference energy on the faulted kernels.
    pub report: TraceEnergyReport,
}

/// Runs the trace-driven accuracy/energy sweep once per
/// `(plan, encoding)` pair: each [`FaultPlan`] is applied to the
/// network's compiled kernels exactly once (a pure transform — the
/// clean kernels survive unchanged, and [`FaultPlan::none`] reproduces
/// the clean sweep bit-identically), then every requested encoding
/// sweeps the same labelled set on those faulted kernels. Cells are
/// returned in `plans`-major order.
///
/// # Panics
///
/// Panics under the same conditions as
/// [`trace_energy_sweep`](crate::sweep::trace_energy_sweep).
pub fn fault_sweep(
    net: &Network,
    mapping: &Mapping,
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
    plans: &[FaultPlan],
    encodings: &[Encoding],
) -> Vec<FaultSweepPoint> {
    let clean = net.compiled();
    plans
        .iter()
        .flat_map(|plan| {
            let kernels = Arc::new(clean.with_faults(plan));
            encodings
                .iter()
                .map(|&encoding| {
                    let report = trace_energy_sweep_compiled(
                        &kernels,
                        mapping,
                        samples,
                        &cfg.with_encoding(encoding),
                    );
                    FaultSweepPoint {
                        plan: *plan,
                        encoding,
                        report,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// One NeuroCell failure injected into a [`fault_recovery_drill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Replay round the failure strikes in (after that round's
    /// admissions, before its replay — a resident victim loses the
    /// in-flight round).
    pub round: usize,
    /// The NeuroCell that fails (permanently).
    pub nc: usize,
}

impl FaultEvent {
    /// A failure of `nc` in `round`.
    pub fn new(round: usize, nc: usize) -> Self {
        Self { round, nc }
    }
}

/// Outcome of a [`fault_recovery_drill`]: how a dynamically scheduled
/// fabric absorbs mid-replay NeuroCell failures.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDrillReport {
    /// Rounds until the schedule drained.
    pub rounds: usize,
    /// Requests that completed their full service.
    pub completed: usize,
    /// Requests retired unserved because no healthy segment could ever
    /// hold them again.
    pub aborted: usize,
    /// Requests interrupted at least once by a failure.
    pub interrupted_requests: usize,
    /// Fault evictions summed over all requests.
    pub total_interruptions: usize,
    /// Mean rounds between a fault eviction and the victim's
    /// re-admission, over interrupted requests that completed (the
    /// recovery latency of the self-healing loop).
    pub mean_recovery_rounds: f64,
    /// Replays voided by failures: each resident victim loses the round
    /// it was evicted in (the lost work resilience pays for).
    pub lost_replays: usize,
    /// Mean active NC utilization over busy rounds before the first
    /// fault round.
    pub utilization_before: f64,
    /// Mean active NC utilization over busy rounds from the first fault
    /// round on — the pool is smaller *and* recovery re-packs it.
    pub utilization_after: f64,
    /// NeuroCells permanently failed by the end of the drill.
    pub failed_ncs: usize,
    /// Per-event energy summed over every replayed round.
    pub dynamic_energy: Energy,
    /// Busy wall-clock summed over every replayed round.
    pub latency: Time,
    /// Replays that actually ran (interrupted rounds excluded).
    pub inferences: usize,
    /// The scheduler's full life-cycle log, in departure order.
    pub records: Vec<ServiceRecord>,
}

/// Replays an arrival/departure schedule (the dynamic half of
/// [`churn_sweep`](crate::churn::churn_sweep), on the round clock of the
/// [serving loop](crate::serving)) while permanently failing NeuroCells
/// mid-stream, and measures the recovery.
///
/// Request `i` (network `nets[i]`, schedule `specs[i]`) presents sample
/// `r % samples.len()` on its `r`-th *credited* service round. Each
/// [`FaultEvent`] fires in its round after admissions and **before**
/// the replay: a resident victim is evicted through
/// [`FabricScheduler::fail_nc`] (losing the in-flight round — counted
/// in [`FaultDrillReport::lost_replays`]), re-queued at the head, and
/// re-admitted on the next round with healthy room. Requests wider than
/// the largest surviving healthy segment are retired as aborted.
/// Events scheduled after the drill drains never fire. With no faults
/// the drill reports exactly the dynamic half of `churn_sweep`.
///
/// # Errors
///
/// Returns [`AdmitError::Map`] if a network cannot be mapped and
/// [`AdmitError::CapacityExhausted`] if a request exceeds the whole
/// (pre-fault) pool.
///
/// # Panics
///
/// Panics if `nets`/`specs` lengths differ or are empty, `samples` is
/// empty, any `service_rounds`/`weight` is zero, an event names a
/// NeuroCell outside the pool, or a stimulus length differs from a
/// network's input count.
///
/// [`FabricScheduler::fail_nc`]: resparc_core::fabric::FabricScheduler::fail_nc
pub fn fault_recovery_drill(
    nets: &[Network],
    specs: &[ChurnSpec],
    samples: &[(Vec<f32>, usize)],
    cfg: &SweepConfig,
    pool_config: &ResparcConfig,
    policy: PackingPolicy,
    faults: &[FaultEvent],
) -> Result<FaultDrillReport, AdmitError> {
    assert!(
        faults.iter().all(|f| f.nc < pool_config.physical_ncs),
        "fault events must name NeuroCells inside the pool"
    );
    let (served, _) = run_schedule(nets, specs, samples, cfg, pool_config, policy, faults)?;

    let records = served.sched.completed().to_vec();
    let interrupted: Vec<&ServiceRecord> = records.iter().filter(|r| r.interruptions > 0).collect();
    let recovered: Vec<&ServiceRecord> =
        interrupted.iter().copied().filter(|r| !r.aborted).collect();
    let mean_recovery_rounds = if recovered.is_empty() {
        0.0
    } else {
        recovered
            .iter()
            .map(|r| r.recovery_rounds as f64 / r.interruptions as f64)
            .sum::<f64>()
            / recovered.len() as f64
    };
    // Each fault eviction voids exactly one in-flight replay and counts
    // one interruption.
    let total_interruptions = records.iter().map(|r| r.interruptions).sum();
    let first_fault_round = faults.iter().map(|f| f.round).min();
    let after_fault = |round: usize| first_fault_round.is_some_and(|first| round >= first);
    Ok(FaultDrillReport {
        rounds: served.sched.round(),
        completed: records.iter().filter(|r| !r.aborted).count(),
        aborted: records.iter().filter(|r| r.aborted).count(),
        interrupted_requests: interrupted.len(),
        total_interruptions,
        mean_recovery_rounds,
        lost_replays: total_interruptions,
        utilization_before: served.mean_share(|round| !after_fault(round)),
        utilization_after: served.mean_share(after_fault),
        failed_ncs: served.sched.pool().failed_ncs(),
        dynamic_energy: served.dynamic_energy,
        latency: Time::from_nanos(served.busy_ns),
        inferences: records.iter().map(|r| r.rounds_served).sum(),
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, SyntheticImages};
    use resparc_core::map::Mapper;
    use resparc_neuro::topology::Topology;

    /// 2 and 5-NC networks on RESPARC-64 (footprints asserted in
    /// `resparc_core::fabric::pool` tests).
    fn sized_net(ncs: usize, seed: u64) -> Network {
        let hiddens: &[usize] = match ncs {
            2 => &[576, 576, 10],
            5 => &[576, 576, 576, 576, 10],
            other => panic!("no sized net for {other} NCs"),
        };
        Network::random(Topology::mlp(144, hiddens), seed, 1.0)
    }

    fn samples() -> Vec<(Vec<f32>, usize)> {
        let gen = SyntheticImages::new(DatasetKind::Mnist, 12, 3);
        gen.labelled_set(6, 0)
    }

    #[test]
    fn empty_plan_cell_reproduces_the_clean_sweep_bit_identically() {
        use crate::sweep::trace_energy_sweep;

        let net = Network::random(Topology::mlp(144, &[48, 10]), 3, 1.0);
        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        let cfg = SweepConfig::rate(15, 0.7, 9);
        let set = samples();

        let points = fault_sweep(
            &net,
            &mapping,
            &set,
            &cfg,
            &[FaultPlan::none(), FaultPlan::stuck_at(11, 0.3)],
            &[Encoding::Rate],
        );
        assert_eq!(points.len(), 2);
        let clean = trace_energy_sweep(&net, &mapping, &set, &cfg);
        assert_eq!(
            points[0].report, clean,
            "FaultPlan::none() must reproduce the clean sweep exactly"
        );
        // A heavy stuck-at plan changes the replayed spike traffic.
        assert_ne!(points[1].report.per_sample_energy, clean.per_sample_energy);
    }

    #[test]
    fn stuck_at_degrades_accuracy_monotonically_in_the_limit() {
        // Accuracy under total destruction (every cell stuck) collapses
        // to (at or below) chance while the clean plan keeps the
        // network's accuracy; mild damage sits in between or equal.
        let gen = SyntheticImages::new(DatasetKind::Mnist, 12, 3);
        let train = gen.labelled_set(120, 0);
        let mut tc = resparc_neuro::train::TrainConfig::quick_test();
        tc.epochs = 10;
        let mut net = resparc_neuro::train::train_mlp(144, &[24, 10], &train, &tc);
        let calib: Vec<Vec<f32>> = train.iter().take(16).map(|(x, _)| x.clone()).collect();
        resparc_neuro::convert::normalize_for_snn(&mut net, &calib, 0.99);
        let test = gen.labelled_set(30, 9_000);
        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        let cfg = SweepConfig::rate(30, 0.8, 7);

        let points = fault_sweep(
            &net,
            &mapping,
            &test,
            &cfg,
            &[
                FaultPlan::none(),
                FaultPlan::stuck_at(5, 0.05),
                FaultPlan::stuck_at(5, 1.0),
            ],
            &[Encoding::Rate],
        );
        let acc: Vec<f64> = points.iter().map(|p| p.report.accuracy()).collect();
        assert!(acc[0] > 0.3, "clean accuracy {}", acc[0]);
        assert!(acc[2] < acc[0], "total destruction must cost accuracy");
        assert!(acc[1] >= acc[2], "mild damage beats total destruction");
    }

    #[test]
    fn recovery_drill_readmits_victims_and_completes_the_schedule() {
        // Two 5-NC requests serving 4 rounds; NC 0 fails in round 1.
        // The victim is evicted (losing round 1), re-admitted in round
        // 2 on the surviving cells, and still completes all 4 rounds.
        let nets: Vec<Network> = (0..2).map(|s| sized_net(5, 30 + s)).collect();
        let specs = vec![ChurnSpec::new(0, 4), ChurnSpec::new(0, 4)];
        let cfg = SweepConfig::rate(10, 0.7, 9);
        let report = fault_recovery_drill(
            &nets,
            &specs,
            &samples(),
            &cfg,
            &ResparcConfig::resparc_64(),
            PackingPolicy::FirstFit,
            &[FaultEvent::new(1, 0)],
        )
        .expect("both requests fit");

        assert_eq!(report.completed, 2);
        assert_eq!(report.aborted, 0);
        assert_eq!(report.interrupted_requests, 1);
        assert_eq!(report.total_interruptions, 1);
        assert_eq!(report.lost_replays, 1, "the in-flight round was voided");
        assert_eq!(report.mean_recovery_rounds, 1.0);
        assert_eq!(report.failed_ncs, 1);
        // 2 tenants × 4 rounds = 8 credited replays despite the fault.
        assert_eq!(report.inferences, 8);
        assert_eq!(report.rounds, 5, "one round lost to recovery");
        assert!(report.utilization_before > 0.0);
        assert!(report.utilization_after > 0.0);
        let victim = report
            .records
            .iter()
            .find(|r| r.interruptions > 0)
            .expect("one interrupted record");
        assert_eq!(victim.rounds_served, 4, "full service despite the fault");
        assert!(!victim.aborted);
    }

    #[test]
    fn drill_aborts_requests_no_healthy_segment_can_hold() {
        // Killing NCs 4, 9 and 14 in round 0 caps healthy segments at 4
        // cells: the 5-NC request is interrupted and then aborted, the
        // 2-NC request completes.
        let nets = vec![sized_net(5, 1), sized_net(2, 2)];
        let specs = vec![ChurnSpec::new(0, 3), ChurnSpec::new(0, 3)];
        let cfg = SweepConfig::rate(10, 0.7, 9);
        let report = fault_recovery_drill(
            &nets,
            &specs,
            &samples(),
            &cfg,
            &ResparcConfig::resparc_64(),
            PackingPolicy::FirstFit,
            &[
                FaultEvent::new(0, 4),
                FaultEvent::new(0, 9),
                FaultEvent::new(0, 14),
            ],
        )
        .expect("both requests fit the pre-fault pool");

        assert_eq!(report.completed, 1);
        assert_eq!(report.aborted, 1);
        assert_eq!(report.failed_ncs, 3);
        let aborted = report.records.iter().find(|r| r.aborted).unwrap();
        assert_eq!(aborted.ncs, 5);
        assert!(aborted.rounds_served < 3);
        let done = report.records.iter().find(|r| !r.aborted).unwrap();
        assert_eq!(done.rounds_served, 3);
    }
}
