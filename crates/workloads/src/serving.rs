//! Online serving: open-loop traffic, tail latency and SLO-adaptive
//! QoS over the dynamically scheduled fabric.
//!
//! One service loop drives every dynamically scheduled workload.
//! [`churn_sweep`](crate::churn::churn_sweep) and
//! [`fault_recovery_drill`](crate::fault::fault_recovery_drill) run it on
//! a *round* clock: requests arrive at round indices, an idle fabric
//! steps through empty rounds, NeuroCell faults strike between admission
//! and replay, and the metric is makespan. A service is measured
//! differently: requests arrive on a **wall clock** the service does not
//! control (open loop — arrivals keep coming whether or not the fabric
//! keeps up), and the figures of merit are the latency distribution
//! (p50/p95/p99), goodput (SLO-meeting completions per second) and the
//! SLO-violation rate. [`serving_sweep`] runs the loop on that event
//! clock:
//!
//! * an [`ArrivalProcess`] generates seeded, reproducible arrival
//!   timestamps (memoryless Poisson, on/off bursts, or a diurnal rate
//!   cycle) for requests drawn round-robin from a set of
//!   [`ServiceClass`]es, each with its own network, service length,
//!   latency SLO and base bus weight;
//! * **admission control** bounds the queue: an arrival that finds
//!   [`ServingSpec::max_queue`] requests already waiting is rejected at
//!   the door (counted against the SLO, not silently dropped);
//! * admitted requests flow through a
//!   [`FabricScheduler`] with **backfilling** enabled
//!   ([`FabricScheduler::with_backfill`]): small requests overtake a
//!   blocked wide head for at most
//!   [`ServingSpec::backfill_window`] rounds, which bounds head-of-line
//!   starvation;
//! * each (class, sample) trace is replayed once per run, on the
//!   class's origin-0 probe, the first time a round needs it
//!   ([`EventSimulator::replay`]); each round interleaves the residents'
//!   cached replays at that round's weights
//!   ([`SharedEventSimulator::interleave`], bit-identical to
//!   [`SharedEventSimulator::run_weighted`] on the resident tenants,
//!   because a replay does not depend on where its tenant sits); the
//!   event clock advances by the round's makespan, and a request's
//!   end-to-end latency is its queue wait plus every round it was
//!   resident, finishing at its own perceived bus-arbitration latency
//!   inside its last round;
//! * requests still incomplete [`ServingSpec::preempt_after`] SLOs
//!   after arrival are **preempted** ([`FabricScheduler::cancel`]) —
//!   over-budget tenants stop consuming NeuroCells that SLO-meeting
//!   work could use;
//! * a [`QosPolicy::Adaptive`] feedback controller closes the PR-5 QoS
//!   gap: per class, the bus weight doubles (up to a cap) every round
//!   that completes a request past its SLO and decays by one toward the
//!   static base every clean round — tightening tail latency for the
//!   SLO-pressed class at the expense of the slack ones, while the
//!   work-conserving bus keeps every aggregate (cycles, energy,
//!   makespan) unchanged;
//! * idle silicon is billed at the pool's
//!   [`idle_gating`](resparc_core::fabric::FabricPool::idle_gating)
//!   factor, both inside rounds (NCs no tenant owns) and across the
//!   empty gaps between arrivals — the report carries the gated and
//!   ungated bills side by side so the gating win is explicit.
//!
//! The whole run is deterministic per seed: identical
//! ([`PartialEq`]-equal) [`ServingReport`]s for identical inputs,
//! property-tested in `tests/proptests.rs`.
//!
//! # Examples
//!
//! A one-class Poisson service on a gated pool:
//!
//! ```
//! use resparc_core::fabric::PackingPolicy;
//! use resparc_core::ResparcConfig;
//! use resparc_neuro::network::Network;
//! use resparc_neuro::topology::Topology;
//! use resparc_workloads::serving::{
//!     serving_sweep, ArrivalProcess, QosPolicy, ServiceClass, ServingSpec,
//! };
//! use resparc_workloads::sweep::SweepConfig;
//!
//! let net = Network::random(Topology::mlp(96, &[64, 10]), 7, 1.0);
//! let classes = vec![ServiceClass::new("kws", 2, 40_000.0)];
//! let spec = ServingSpec::new(8, 6_000.0, ArrivalProcess::Poisson, 7);
//! let report = serving_sweep(
//!     &[net],
//!     &classes,
//!     &spec,
//!     &SweepConfig::rate(6, 0.8, 7),
//!     &ResparcConfig::resparc_64(),
//!     PackingPolicy::FirstFit,
//! )
//! .unwrap();
//! assert_eq!(report.arrivals, 8);
//! assert_eq!(
//!     report.completed + report.rejected + report.preempted,
//!     report.arrivals
//! );
//! assert!(report.p50 <= report.p95 && report.p95 <= report.p99);
//! // The default spec gates idle NCs at 10%: the gated idle bill is
//! // well under the always-powered one.
//! assert!(report.gated_idle_leakage < report.ungated_idle_leakage);
//! ```

use std::cell::OnceCell;

use rayon::prelude::*;
use resparc_core::fabric::{
    pool_leakage_power, AdmitError, FabricPool, FabricScheduler, PackingPolicy, RequestId,
    SharedEventSimulator, TenantId,
};
use resparc_core::map::{Mapper, Mapping};
use resparc_core::{EventSimulator, ReplayEngine, ResparcConfig, TraceReplay};
use resparc_energy::accounting::Category;
use resparc_energy::sram::SramSpec;
use resparc_energy::units::{Energy, Time};
use resparc_neuro::network::{Network, SnnRunner};
use resparc_neuro::trace::SpikeTrace;

use crate::fault::FaultEvent;
use crate::seed::stream_seed;
use crate::sweep::SweepConfig;

/// How request arrival timestamps are generated — all three are seeded
/// and reproducible, with the same long-run mean rate
/// (1 / [`ServingSpec::mean_gap_ns`]); they differ in *clumping*.
///
/// # Examples
///
/// ```
/// use resparc_workloads::serving::ArrivalProcess;
///
/// let poisson = ArrivalProcess::Poisson.arrival_times(200, 100.0, 42);
/// assert_eq!(poisson.len(), 200);
/// assert!(poisson.windows(2).all(|w| w[0] <= w[1]), "monotone");
/// // Same seed — bit-identical trace; different seed — a different one.
/// assert_eq!(poisson, ArrivalProcess::Poisson.arrival_times(200, 100.0, 42));
/// assert_ne!(poisson, ArrivalProcess::Poisson.arrival_times(200, 100.0, 43));
///
/// // Bursts arrive back to back: many gaps are (near) zero while the
/// // mean gap stays ~100ns.
/// let bursty = ArrivalProcess::Bursty { burst: 4 }.arrival_times(200, 100.0, 42);
/// let tiny = bursty.windows(2).filter(|w| w[1] - w[0] < 1.0).count();
/// assert!(tiny >= 100, "3 of every 4 gaps are intra-burst");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: i.i.d. exponential inter-arrival gaps.
    Poisson,
    /// On/off traffic: `burst` requests arrive back to back, then the
    /// line goes quiet for an exponential gap of `burst ×` the mean —
    /// the long-run rate matches [`Poisson`](Self::Poisson) but the
    /// instantaneous load slams the queue.
    Bursty {
        /// Requests per burst (≥ 1; `1` degenerates to Poisson).
        burst: usize,
    },
    /// A Poisson process whose rate swings sinusoidally around the mean
    /// — a compressed day/night load cycle. Peaks oversubscribe the
    /// fabric, troughs leave it idle (where power gating earns its
    /// keep).
    Diurnal {
        /// Full cycle length in nanoseconds.
        period_ns: f64,
        /// Rate swing as a fraction of the mean rate, in `[0, 1)`.
        amplitude: f64,
    },
}

impl ArrivalProcess {
    /// Generates `n` monotone arrival timestamps (nanoseconds from 0)
    /// with mean inter-arrival gap `mean_gap_ns`, deterministically per
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap_ns` is not positive, a `Bursty` burst is
    /// zero, or a `Diurnal` amplitude is outside `[0, 1)`.
    pub fn arrival_times(&self, n: usize, mean_gap_ns: f64, seed: u64) -> Vec<f64> {
        assert!(mean_gap_ns > 0.0, "mean gap must be positive");
        let mut times = Vec::with_capacity(n);
        let mut t = 0.0f64;
        for i in 0..n {
            let u = unit_open(stream_seed(seed, i as u64));
            let gap = match *self {
                ArrivalProcess::Poisson => -u.ln() * mean_gap_ns,
                ArrivalProcess::Bursty { burst } => {
                    assert!(burst > 0, "bursts must hold at least one request");
                    if i % burst == 0 {
                        // The off period carries the whole burst's gap
                        // budget, keeping the long-run rate at the mean.
                        -u.ln() * mean_gap_ns * burst as f64
                    } else {
                        0.0
                    }
                }
                ArrivalProcess::Diurnal {
                    period_ns,
                    amplitude,
                } => {
                    assert!(period_ns > 0.0, "the diurnal period must be positive");
                    assert!(
                        (0.0..1.0).contains(&amplitude),
                        "diurnal amplitude must be in [0, 1)"
                    );
                    let rate = (1.0 + amplitude * (std::f64::consts::TAU * t / period_ns).sin())
                        / mean_gap_ns;
                    -u.ln() / rate
                }
            };
            t += gap;
            times.push(t);
        }
        times
    }

    /// Short label for tables and figures.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }
}

/// A uniform draw in `(0, 1]` from one splitmix64 output — never 0, so
/// `ln` is always finite.
fn unit_open(x: u64) -> f64 {
    ((x >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// How per-class bus weights evolve across serving rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosPolicy {
    /// Each class keeps its static [`ServiceClass::weight`] forever —
    /// the PR-5 discipline.
    Static,
    /// AIMD feedback toward the latency SLOs: a class's weight
    /// **doubles** (capped at `max_weight`) every round in which one of
    /// its requests completed past its SLO, and **decays by one**
    /// toward the static base every round without a violation. The bus
    /// stays work-conserving, so adaptation redistributes waiting — it
    /// never costs aggregate cycles or energy (property-tested).
    Adaptive {
        /// Upper bound on any adapted weight.
        max_weight: u32,
    },
}

/// One class of requests in a serving mix: a network, how long each
/// request replays, its latency SLO and its base bus weight.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceClass {
    /// Class label, used in reports.
    pub name: String,
    /// Shared replay rounds each request of this class needs.
    pub service_rounds: usize,
    /// End-to-end latency SLO (arrival → completion), nanoseconds.
    pub slo_ns: f64,
    /// Static bus-arbitration weight (the [`QosPolicy::Adaptive`]
    /// controller's floor and starting point).
    pub weight: u32,
}

impl ServiceClass {
    /// A class at fair (weight-1) arbitration.
    pub fn new(name: &str, service_rounds: usize, slo_ns: f64) -> Self {
        Self {
            name: name.to_string(),
            service_rounds,
            slo_ns,
            weight: 1,
        }
    }

    /// The same class at a different static bus weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }
}

/// The open-loop traffic and service discipline of one
/// [`serving_sweep`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSpec {
    /// Total arrivals to generate (assigned to classes round-robin).
    pub requests: usize,
    /// Mean inter-arrival gap in nanoseconds (open-loop offered load =
    /// `1 / mean_gap_ns` requests per nanosecond).
    pub mean_gap_ns: f64,
    /// The arrival process shaping the gaps.
    pub arrivals: ArrivalProcess,
    /// Seed for the arrival trace (and nothing else: traces are
    /// encoded under the [`SweepConfig`]'s own seed).
    pub seed: u64,
    /// Admission control: an arrival that finds this many requests
    /// already queued is rejected. `usize::MAX` disables rejection.
    pub max_queue: usize,
    /// Backfill starvation window in rounds
    /// ([`FabricScheduler::with_backfill`]); `0` keeps strict FIFO.
    pub backfill_window: usize,
    /// Idle-NC leakage factor
    /// ([`FabricPool::with_idle_gating`](resparc_core::fabric::FabricPool::with_idle_gating));
    /// `1.0` is the historical always-powered pool.
    pub idle_gating: f64,
    /// Preemption budget: a request still incomplete this many SLOs
    /// after arrival is cancelled. `None` never preempts.
    pub preempt_after: Option<f64>,
    /// How bus weights evolve.
    pub qos: QosPolicy,
    /// Distinct stimulus samples per class (service rounds wrap over
    /// them, like [`churn_sweep`](crate::churn::churn_sweep)).
    pub samples: usize,
    /// Replay engine for service rounds. Both engines are bit-identical
    /// in every report; this knob exists for differential testing and
    /// the benchmark barometer.
    pub replay_engine: ReplayEngine,
}

impl ServingSpec {
    /// A spec with the defaults the figures use: unbounded queue,
    /// backfill window of 4 rounds, idle gating at 10%, no preemption,
    /// static weights, 3 samples per class.
    pub fn new(requests: usize, mean_gap_ns: f64, arrivals: ArrivalProcess, seed: u64) -> Self {
        Self {
            requests,
            mean_gap_ns,
            arrivals,
            seed,
            max_queue: usize::MAX,
            backfill_window: 4,
            idle_gating: 0.1,
            preempt_after: None,
            qos: QosPolicy::Static,
            samples: 3,
            replay_engine: ReplayEngine::default(),
        }
    }

    /// Bounds the admission queue.
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    /// Sets the idle-gating factor (`1.0` = ungated).
    pub fn with_idle_gating(mut self, factor: f64) -> Self {
        self.idle_gating = factor;
        self
    }

    /// Enables preemption of requests `budget` SLOs over their arrival.
    pub fn with_preemption(mut self, budget: f64) -> Self {
        self.preempt_after = Some(budget);
        self
    }

    /// Sets the QoS policy.
    pub fn with_qos(mut self, qos: QosPolicy) -> Self {
        self.qos = qos;
        self
    }

    /// Sets the backfill starvation window (`0` = strict FIFO).
    pub fn with_backfill_window(mut self, window: usize) -> Self {
        self.backfill_window = window;
        self
    }

    /// Pins the replay engine used for service rounds.
    pub fn with_replay_engine(mut self, engine: ReplayEngine) -> Self {
        self.replay_engine = engine;
        self
    }
}

/// What happened to one arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestOutcome {
    /// Served to completion; end-to-end latency in nanoseconds and
    /// whether it met the class SLO.
    Completed {
        /// Arrival → completion, nanoseconds.
        latency_ns: f64,
        /// `latency_ns <= slo_ns`.
        met_slo: bool,
    },
    /// Rejected at admission (queue full).
    Rejected,
    /// Preempted after exceeding the [`ServingSpec::preempt_after`]
    /// budget.
    Preempted,
    /// Retired unserved: wider than the pool's largest healthy segment.
    Aborted,
}

/// Per-class slice of a [`ServingReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// Class label.
    pub name: String,
    /// Arrivals assigned to this class.
    pub arrivals: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected at admission.
    pub rejected: usize,
    /// Requests preempted over budget.
    pub preempted: usize,
    /// Completions past the class SLO.
    pub slo_violations: usize,
    /// Median completion latency.
    pub p50: Time,
    /// 99th-percentile completion latency.
    pub p99: Time,
    /// The class's bus weight when the run ended (equals the static
    /// weight under [`QosPolicy::Static`]).
    pub final_weight: u32,
}

impl ClassReport {
    /// Fraction of this class's arrivals that missed their SLO
    /// (violations + preemptions + rejections over arrivals).
    pub fn violation_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        (self.slo_violations + self.preempted + self.rejected) as f64 / self.arrivals as f64
    }
}

/// Outcome of a [`serving_sweep`]: the service-level view (tail
/// latency, goodput, SLO violations) plus the energy bill with and
/// without idle-NC power gating.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Packing policy the scheduler admitted with.
    pub policy: PackingPolicy,
    /// Arrival-process label (`poisson` / `bursty` / `diurnal`).
    pub trace: &'static str,
    /// Arrivals generated.
    pub arrivals: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected at admission (queue full).
    pub rejected: usize,
    /// Requests preempted over budget.
    pub preempted: usize,
    /// Completions that missed their class SLO.
    pub slo_violations: usize,
    /// Median end-to-end latency over completions.
    pub p50: Time,
    /// 95th-percentile end-to-end latency.
    pub p95: Time,
    /// 99th-percentile end-to-end latency.
    pub p99: Time,
    /// Mean end-to-end latency.
    pub mean_latency: Time,
    /// Event-clock time from 0 to the last completion (idle gaps
    /// between arrivals included).
    pub makespan: Time,
    /// Time the fabric actually replayed rounds (`makespan − busy` is
    /// the idle-gap time gating reclaims).
    pub busy_time: Time,
    /// Replay rounds driven.
    pub rounds: usize,
    /// SLO-meeting completions per second of makespan.
    pub goodput: f64,
    /// Offered load: arrivals per second of makespan.
    pub offered_load: f64,
    /// Dynamic (per-event) energy across all rounds.
    pub dynamic_energy: Energy,
    /// Leakage of the occupied fabric domains over busy time (always
    /// billed at full rate — gating never touches powered tenants).
    pub occupied_leakage: Energy,
    /// Idle-domain leakage actually billed, at the pool's gating factor
    /// — idle NCs inside rounds plus the whole logic fabric across
    /// empty inter-arrival gaps (SRAM always leaks at full rate).
    pub gated_idle_leakage: Energy,
    /// What the same idle silicon would have leaked ungated — the
    /// counterfactual always-powered bill. With
    /// [`ServingSpec::idle_gating`]` == 1.0` this equals
    /// [`gated_idle_leakage`](Self::gated_idle_leakage) bit-identically.
    pub ungated_idle_leakage: Energy,
    /// Per-class slices, in class order.
    pub classes: Vec<ClassReport>,
    /// Outcome of every arrival, in arrival order.
    pub outcomes: Vec<RequestOutcome>,
}

impl ServingReport {
    /// The all-in bill: dynamic + occupied leakage + gated idle.
    pub fn pool_energy(&self) -> Energy {
        self.dynamic_energy + self.occupied_leakage + self.gated_idle_leakage
    }

    /// What the bill would have been on an always-powered pool.
    pub fn ungated_pool_energy(&self) -> Energy {
        self.dynamic_energy + self.occupied_leakage + self.ungated_idle_leakage
    }

    /// Energy the gating saved, as a fraction of the ungated bill.
    pub fn gating_saving(&self) -> f64 {
        let ungated = self.ungated_pool_energy().picojoules();
        if ungated == 0.0 {
            return 0.0;
        }
        1.0 - self.pool_energy().picojoules() / ungated
    }

    /// Fraction of all arrivals that missed their SLO (violations +
    /// preemptions + rejections over arrivals).
    pub fn violation_rate(&self) -> f64 {
        if self.arrivals == 0 {
            return 0.0;
        }
        (self.slo_violations + self.preempted + self.rejected) as f64 / self.arrivals as f64
    }
}

/// Nearest-rank percentile of a **sorted** latency list (ns → [`Time`]).
fn percentile(sorted_ns: &[f64], p: f64) -> Time {
    if sorted_ns.is_empty() {
        return Time::ZERO;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    Time::from_nanos(sorted_ns[rank.clamp(1, sorted_ns.len()) - 1])
}

/// Maps every network once against the pool's configuration and checks
/// that each footprint fits the whole pool.
///
/// # Errors
///
/// [`AdmitError::Map`] if a network cannot be mapped and
/// [`AdmitError::CapacityExhausted`] for the first one wider than the pool.
pub(crate) fn map_probes(
    nets: &[Network],
    pool_config: &ResparcConfig,
) -> Result<Vec<Mapping>, AdmitError> {
    let mapper = Mapper::new(pool_config.clone());
    let probes: Vec<Mapping> = nets
        .iter()
        .map(|n| mapper.map_network(n))
        .collect::<Result<_, _>>()
        .map_err(AdmitError::Map)?;
    for probe in &probes {
        let needed = probe.placement.ncs_used.max(1);
        if needed > pool_config.physical_ncs {
            return Err(AdmitError::CapacityExhausted {
                needed_ncs: needed,
                free_ncs: pool_config.physical_ncs,
                largest_free_run: pool_config.physical_ncs,
            });
        }
    }
    Ok(probes)
}

/// How [`serve`] keeps time; the workload that calls it picks one.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Discipline<'a> {
    /// The round clock of churn and the fault drill: arrivals name
    /// round indices, an idle fabric steps through empty rounds, and
    /// each fault strikes in its round after admission, before the
    /// replay. The queue is unbounded, admission strict FIFO, the pool
    /// ungated and the weights static.
    Rounds(&'a [FaultEvent]),
    /// The spec's nanosecond event clock, admission control, backfill,
    /// gating, preemption, QoS policy and replay engine. An idle fabric
    /// jumps to the next arrival.
    Serving(&'a ServingSpec),
}

/// What one [`serve`] run measured.
pub(crate) struct Served {
    /// The drained scheduler: round counter, records, pool health.
    pub(crate) sched: FabricScheduler,
    /// `(round, share of the pool's NCs owned by the tenants that
    /// replayed)` of every replayed round, in order.
    pub(crate) shares: Vec<(usize, f64)>,
    pub(crate) outcomes: Vec<RequestOutcome>,
    /// Per-class bus weights when the run ended.
    pub(crate) weights: Vec<u32>,
    pub(crate) makespan_ns: f64,
    pub(crate) busy_ns: f64,
    pub(crate) dynamic_energy: Energy,
    pub(crate) occupied_leakage: Energy,
    pub(crate) gated_idle: Energy,
    pub(crate) ungated_idle: Energy,
}

impl Served {
    /// Mean share over the replayed rounds `keep` selects (0 if none).
    pub(crate) fn mean_share(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let (sum, n) = self
            .shares
            .iter()
            .filter(|&&(round, _)| keep(round))
            .fold((0.0, 0usize), |(sum, n), &(_, share)| (sum + share, n + 1));
        sum / n.max(1) as f64
    }
}

/// Book-keeping for one submitted (not rejected) request.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    request: RequestId,
    arrival_index: usize,
    class: usize,
    arrival_ns: f64,
    done: bool,
}

/// The service loop every dynamic workload runs ([module docs](self)).
/// `arrivals` lists `(instant on the discipline's clock, class)` in
/// order; `probes`, `classes` and `traces` are indexed by class, and
/// arrival `i` of class `c` replays `traces[c][sample(i, r)]` on its
/// `r`-th service round: `sample` returns a slot in the class's trace
/// list, which holds only the traces some arrival presents.
///
/// Each (class, sample) trace is replayed once, on the class's origin-0
/// probe, the first time a round needs it. Every round then interleaves
/// the residents' cached replays at that round's weights. This is exact:
/// a tenant's pool mapping is its class probe translated into its NC
/// run, and a replay does not depend on the origin, so the cached replay
/// is the one the tenant's own mapping would produce in any round, after
/// any requeue or defragmentation move.
// The per-class inputs (probes, classes, traces) and the per-arrival
// inputs (arrivals, sample) are separate lists both callers already
// hold; bundling them would only add a wrapper type.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve(
    pool_config: &ResparcConfig,
    policy: PackingPolicy,
    probes: &[Mapping],
    classes: &[ServiceClass],
    traces: &[Vec<SpikeTrace>],
    arrivals: &[(f64, usize)],
    sample: impl Fn(usize, usize) -> usize,
    discipline: Discipline<'_>,
) -> Served {
    let (spec, faults) = match discipline {
        Discipline::Rounds(faults) => (None, faults),
        Discipline::Serving(spec) => (Some(spec), &[][..]),
    };
    let pool = FabricPool::new(pool_config.clone())
        .with_policy(policy)
        .with_idle_gating(spec.map_or(1.0, |s| s.idle_gating));
    let mut sched = FabricScheduler::new(pool);
    if let Some(window) = spec.map(|s| s.backfill_window).filter(|&w| w > 0) {
        sched = sched.with_backfill(window);
    }
    let max_queue = spec.map_or(usize::MAX, |s| s.max_queue);
    let engine = spec.map_or(ReplayEngine::default(), |s| s.replay_engine);

    let sram_leak = SramSpec::new(pool_config.input_sram_bytes, pool_config.packet_bits)
        .build()
        .leakage();
    let pool_leak = pool_leakage_power(pool_config);
    let logic_leak = pool_leak - sram_leak;

    // One replay per (class, sample), filled on first use.
    let replays: Vec<Vec<OnceCell<TraceReplay>>> = traces
        .iter()
        .map(|samples| samples.iter().map(|_| OnceCell::new()).collect())
        .collect();

    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; arrivals.len()];
    // Request book-keeping, indexed by RequestId::index().
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut weights: Vec<u32> = classes.iter().map(|c| c.weight).collect();
    let mut shares: Vec<(usize, f64)> = Vec::new();
    let mut now = 0.0f64;
    let mut last_completion = 0.0f64;
    let mut busy_ns = 0.0f64;
    let mut idle_gap_ns = 0.0f64;
    let mut dynamic_energy = Energy::ZERO;
    let mut occupied_leakage = Energy::ZERO;
    let mut gated_idle = Energy::ZERO;
    let mut ungated_idle = Energy::ZERO;
    let mut next_arrival = 0usize;

    while next_arrival < arrivals.len() || !sched.is_idle() {
        // Open-loop admission: every arrival due on the discipline's
        // clock either joins the queue or is rejected at the door.
        let clock = spec.map_or(sched.round() as f64, |_| now);
        while let Some(&(at, c)) = arrivals.get(next_arrival).filter(|a| a.0 <= clock) {
            if sched.queue_len() >= max_queue {
                outcomes[next_arrival] = Some(RequestOutcome::Rejected);
            } else {
                let request = sched.submit_mapped(
                    probes[c].clone(),
                    &classes[c].name,
                    classes[c].service_rounds,
                    classes[c].weight,
                );
                debug_assert_eq!(request.index() as usize, in_flight.len());
                in_flight.push(InFlight {
                    request,
                    arrival_index: next_arrival,
                    class: c,
                    // A round-clock arrival arrives as its round opens.
                    arrival_ns: spec.map_or(now, |_| at),
                    done: false,
                });
            }
            next_arrival += 1;
        }
        if sched.is_idle() && spec.is_some() {
            // Nothing to run: the fabric idles (gated) until the next
            // arrival. (The round clock steps through an empty round.)
            let Some(&(next, _)) = arrivals.get(next_arrival) else {
                break;
            };
            let gap = next - now;
            if gap > 0.0 {
                idle_gap_ns += gap;
            }
            now = next.max(now);
            continue;
        }

        let round = sched.round();
        let mut residents = sched.begin_round();
        // Failures strike after admission, before the replay: resident
        // victims lose this round and re-enter the queue.
        for fault in faults.iter().filter(|f| f.round == round) {
            if let Some(victim) = sched.fail_nc(fault.nc) {
                residents.retain(|st| st.request != victim);
            }
        }
        if residents.is_empty() {
            // An idle round, or the whole queue retired as unservable.
            sched.end_round();
            continue;
        }
        let pairs: Vec<(TenantId, &TraceReplay)> = residents
            .iter()
            .map(|st| {
                let f = in_flight[st.request.index() as usize];
                let s = sample(f.arrival_index, st.rounds_served);
                let replay = replays[f.class][s].get_or_init(|| {
                    EventSimulator::with_engine(&probes[f.class], engine)
                        .replay(&traces[f.class][s])
                });
                (st.tenant, replay)
            })
            .collect();
        let round_weights: Vec<u32> = residents
            .iter()
            .map(|st| weights[in_flight[st.request.index() as usize].class])
            .collect();
        let report = SharedEventSimulator::new(sched.pool()).interleave(&pairs, &round_weights);

        dynamic_energy += report
            .tenants
            .iter()
            .map(|t| t.energy.total())
            .sum::<Energy>();
        occupied_leakage +=
            report.energy.get(Category::LogicLeakage) + report.energy.get(Category::MemoryLeakage);
        gated_idle += report.idle_leakage;
        // The counterfactual ungated idle bill: whole-pool leakage
        // minus what the ledger already charged the occupied domains.
        ungated_idle += pool_leak * report.latency
            - (report.energy.get(Category::LogicLeakage)
                + report.energy.get(Category::MemoryLeakage));
        let active_ncs: usize = residents
            .iter()
            .filter_map(|st| sched.pool().tenant(st.tenant))
            .map(|t| t.nc_count())
            .sum();
        shares.push((round, active_ncs as f64 / pool_config.physical_ncs as f64));

        // Completions: a request finishing its service this round
        // completes at its own perceived latency inside the round.
        let makespan_ns = report.latency.nanoseconds();
        let mut violated = vec![false; classes.len()];
        let mut clean = vec![false; classes.len()];
        for (st, tr) in residents.iter().zip(&report.tenants) {
            let f = &mut in_flight[st.request.index() as usize];
            if st.rounds_served + 1 == classes[f.class].service_rounds {
                let latency_ns = now + tr.latency.nanoseconds() - f.arrival_ns;
                let met = latency_ns <= classes[f.class].slo_ns;
                outcomes[f.arrival_index] = Some(RequestOutcome::Completed {
                    latency_ns,
                    met_slo: met,
                });
                f.done = true;
                last_completion = last_completion.max(now + tr.latency.nanoseconds());
                if met {
                    clean[f.class] = true;
                } else {
                    violated[f.class] = true;
                }
            }
        }
        now += makespan_ns;
        busy_ns += makespan_ns;
        sched.end_round();

        // Preemption: cancel whatever is over its budget, queued or
        // resident.
        if let Some(budget) = spec.and_then(|s| s.preempt_after) {
            for f in in_flight.iter_mut() {
                if !f.done
                    && now - f.arrival_ns > budget * classes[f.class].slo_ns
                    && sched.cancel(f.request)
                {
                    outcomes[f.arrival_index] = Some(RequestOutcome::Preempted);
                    f.done = true;
                }
            }
        }

        // SLO feedback: adapt weights for the next round.
        if let Some(QosPolicy::Adaptive { max_weight }) = spec.map(|s| s.qos) {
            for c in 0..classes.len() {
                if violated[c] {
                    weights[c] = (weights[c].saturating_mul(2)).min(max_weight);
                } else if clean[c] {
                    weights[c] = weights[c].saturating_sub(1).max(classes[c].weight);
                }
            }
        }
    }

    // Inter-arrival idle gaps: the logic fabric leaks at the gated
    // rate, the shared SRAM at full rate (it holds the door open for
    // the next packet).
    let gap = Time::from_nanos(idle_gap_ns);
    gated_idle += logic_leak * gap * sched.pool().idle_gating() + sram_leak * gap;
    ungated_idle += logic_leak * gap + sram_leak * gap;

    // Anything still un-outcomed retired as aborted (unservable).
    for rec in sched.completed() {
        let f = in_flight[rec.request.index() as usize];
        if outcomes[f.arrival_index].is_none() {
            debug_assert!(rec.aborted);
            outcomes[f.arrival_index] = Some(RequestOutcome::Aborted);
        }
    }
    let outcomes: Vec<RequestOutcome> = outcomes
        .into_iter()
        .map(|o| {
            debug_assert!(o.is_some(), "every arrival has an outcome");
            o.unwrap_or(RequestOutcome::Aborted)
        })
        .collect();
    Served {
        sched,
        shares,
        outcomes,
        weights,
        makespan_ns: last_completion.max(now),
        busy_ns,
        dynamic_energy,
        occupied_leakage,
        gated_idle,
        ungated_idle,
    }
}

/// The slot of a (class, sample) pair that no arrival presents.
const NOT_PRESENTED: usize = usize::MAX;

/// The (class, sample) pairs that [`serving_sweep`]'s arrivals present,
/// as a slot table: `slots[c][s]` is sample `s`'s position in class `c`'s
/// traces (numbered 0, 1, … in sample order), or [`NOT_PRESENTED`].
/// Arrival `i` belongs to class `i % service_rounds.len()` and presents
/// sample `(i + r) % samples` on each service round `r`, the same `(i, r)`
/// domain the serve loop visits. The walk stops once every pair is
/// marked.
fn presented_slots(requests: usize, service_rounds: &[usize], samples: usize) -> Vec<Vec<usize>> {
    let classes = service_rounds.len();
    let mut slots = vec![vec![NOT_PRESENTED; samples]; classes];
    let mut unmarked = classes * samples;
    for i in 0..requests {
        if unmarked == 0 {
            break;
        }
        let c = i % classes;
        for r in 0..service_rounds[c].min(samples) {
            let slot = &mut slots[c][(i + r) % samples];
            if *slot == NOT_PRESENTED {
                *slot = 0;
                unmarked -= 1;
            }
        }
    }
    for row in &mut slots {
        for (next, slot) in row.iter_mut().filter(|s| **s != NOT_PRESENTED).enumerate() {
            *slot = next;
        }
    }
    slots
}

/// Runs an open-loop arrival trace against a dynamically scheduled,
/// optionally power-gated [`FabricPool`] and reports the service-level
/// metrics; see the [module docs](self) for the loop. Arrival `i` is
/// assigned class `i % classes.len()` (networks are paired index-wise
/// with `classes`); its service round `r` presents sample
/// `(i + r) % spec.samples`. Each (class, sample) pair that some arrival
/// presents is encoded and traced once under `cfg`; a pair no arrival
/// presents (a class serving fewer rounds than there are samples, when
/// the class and sample counts share a factor) is never traced.
///
/// # Errors
///
/// Returns [`AdmitError::Map`] if a network cannot be mapped and
/// [`AdmitError::CapacityExhausted`] if a class's footprint exceeds the
/// whole pool (no request of it could ever be admitted).
///
/// # Panics
///
/// Panics if `nets`/`classes` lengths differ or are empty, any
/// `service_rounds`/`weight` is zero, `spec.requests` or `spec.samples`
/// is zero, or the spec's gating factor is outside `[0, 1]`.
pub fn serving_sweep(
    nets: &[Network],
    classes: &[ServiceClass],
    spec: &ServingSpec,
    cfg: &SweepConfig,
    pool_config: &ResparcConfig,
    policy: PackingPolicy,
) -> Result<ServingReport, AdmitError> {
    assert_eq!(nets.len(), classes.len(), "one network per ServiceClass");
    assert!(!classes.is_empty(), "need at least one class");
    assert!(spec.requests > 0, "need at least one arrival");
    assert!(spec.samples > 0, "need at least one sample per class");
    assert!(
        classes.iter().all(|c| c.service_rounds > 0 && c.weight > 0),
        "service rounds and weights must be positive"
    );
    let probes = map_probes(nets, pool_config)?;

    // --- Traces: every (class, sample) pair some arrival presents,
    // traced once, in parallel, in (class, sample) order; service rounds
    // wrap over the sample set.
    let rounds: Vec<usize> = classes.iter().map(|c| c.service_rounds).collect();
    let slots = presented_slots(spec.requests, &rounds, spec.samples);
    let jobs: Vec<(usize, usize)> = (0..classes.len())
        .flat_map(|c| (0..spec.samples).map(move |j| (c, j)))
        .filter(|&(c, j)| slots[c][j] != NOT_PRESENTED)
        .collect();
    let runs: Vec<SpikeTrace> = jobs
        .par_iter()
        .map(|&(c, j)| {
            let inputs = nets[c].input_count();
            let stimulus: Vec<f32> = (0..inputs)
                .map(|i| ((i * 31 + j * 7 + c) % 10) as f32 / 10.0)
                .collect();
            let raster = cfg.encode_sample(j, &stimulus);
            let mut runner = SnnRunner::from_compiled(nets[c].compiled().clone());
            runner.run_traced(&raster).1
        })
        .collect();
    let mut traces: Vec<Vec<SpikeTrace>> = (0..classes.len()).map(|_| Vec::new()).collect();
    for (&(c, _), trace) in jobs.iter().zip(runs) {
        traces[c].push(trace);
    }

    // --- Arrival trace and the event-clock loop.
    let arrivals: Vec<(f64, usize)> = spec
        .arrivals
        .arrival_times(spec.requests, spec.mean_gap_ns, spec.seed)
        .into_iter()
        .enumerate()
        .map(|(i, at)| (at, i % classes.len()))
        .collect();
    let served = serve(
        pool_config,
        policy,
        &probes,
        classes,
        &traces,
        &arrivals,
        |i, r| {
            let slot = slots[i % classes.len()][(i + r) % spec.samples];
            debug_assert_ne!(slot, NOT_PRESENTED, "arrival {i} round {r} has no trace");
            slot
        },
        Discipline::Serving(spec),
    );

    // --- Aggregate the service-level view.
    let mut all_lat: Vec<f64> = Vec::new();
    let mut class_lat: Vec<Vec<f64>> = vec![Vec::new(); classes.len()];
    let mut class_rep: Vec<ClassReport> = classes
        .iter()
        .zip(&served.weights)
        .map(|(c, &w)| ClassReport {
            name: c.name.clone(),
            arrivals: 0,
            completed: 0,
            rejected: 0,
            preempted: 0,
            slo_violations: 0,
            p50: Time::ZERO,
            p99: Time::ZERO,
            final_weight: w,
        })
        .collect();
    let (mut completed, mut rejected, mut preempted, mut violations, mut met) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for (i, outcome) in served.outcomes.iter().enumerate() {
        let c = i % classes.len();
        class_rep[c].arrivals += 1;
        match *outcome {
            RequestOutcome::Completed {
                latency_ns,
                met_slo,
            } => {
                completed += 1;
                class_rep[c].completed += 1;
                all_lat.push(latency_ns);
                class_lat[c].push(latency_ns);
                if met_slo {
                    met += 1;
                } else {
                    violations += 1;
                    class_rep[c].slo_violations += 1;
                }
            }
            RequestOutcome::Rejected => {
                rejected += 1;
                class_rep[c].rejected += 1;
            }
            RequestOutcome::Preempted | RequestOutcome::Aborted => {
                preempted += 1;
                class_rep[c].preempted += 1;
            }
        }
    }
    all_lat.sort_by(f64::total_cmp);
    for (rep, lat) in class_rep.iter_mut().zip(&mut class_lat) {
        lat.sort_by(f64::total_cmp);
        rep.p50 = percentile(lat, 50.0);
        rep.p99 = percentile(lat, 99.0);
    }
    let mean_ns = all_lat.iter().sum::<f64>() / all_lat.len().max(1) as f64;
    let seconds = served.makespan_ns * 1e-9;
    let per_second = |n: usize| {
        if seconds > 0.0 {
            n as f64 / seconds
        } else {
            0.0
        }
    };

    Ok(ServingReport {
        policy,
        trace: spec.arrivals.label(),
        arrivals: spec.requests,
        completed,
        rejected,
        preempted,
        slo_violations: violations,
        p50: percentile(&all_lat, 50.0),
        p95: percentile(&all_lat, 95.0),
        p99: percentile(&all_lat, 99.0),
        mean_latency: Time::from_nanos(mean_ns),
        makespan: Time::from_nanos(served.makespan_ns),
        busy_time: Time::from_nanos(served.busy_ns),
        rounds: served.shares.len(),
        goodput: per_second(met),
        offered_load: per_second(spec.requests),
        dynamic_energy: served.dynamic_energy,
        occupied_leakage: served.occupied_leakage,
        gated_idle_leakage: served.gated_idle,
        ungated_idle_leakage: served.ungated_idle,
        classes: class_rep,
        outcomes: served.outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use resparc_neuro::topology::Topology;

    fn small_net(seed: u64) -> Network {
        Network::random(Topology::mlp(96, &[64, 10]), seed, 1.0)
    }

    /// 5 NCs on RESPARC-64 (see `fabric::pool` sized-topology tests).
    fn five_nc_net(seed: u64) -> Network {
        Network::random(Topology::mlp(144, &[576, 576, 576, 576, 10]), seed, 1.0)
    }

    fn cfg() -> SweepConfig {
        SweepConfig::rate(6, 0.8, 5)
    }

    #[test]
    fn presented_slots_number_exactly_the_presented_pairs() {
        for classes in 1..=4usize {
            // Every per-class round count in 1..=6.
            for code in 0..6usize.pow(classes as u32) {
                let rounds: Vec<usize> = (0..classes)
                    .map(|c| code / 6usize.pow(c as u32) % 6 + 1)
                    .collect();
                for samples in 1..=5 {
                    for requests in 1..=12 {
                        let slots = presented_slots(requests, &rounds, samples);
                        let mut presented = vec![vec![false; samples]; classes];
                        for i in 0..requests {
                            for r in 0..rounds[i % classes] {
                                presented[i % classes][(i + r) % samples] = true;
                            }
                        }
                        let case =
                            format!("{requests} requests, rounds {rounds:?}, {samples} samples");
                        for (row, want) in slots.iter().zip(&presented) {
                            let has: Vec<bool> = row.iter().map(|&s| s != NOT_PRESENTED).collect();
                            assert_eq!(&has, want, "{case}");
                            let numbered: Vec<usize> = row
                                .iter()
                                .copied()
                                .filter(|&s| s != NOT_PRESENTED)
                                .collect();
                            assert!(numbered.iter().copied().eq(0..numbered.len()), "{case}");
                        }
                    }
                }
            }
        }
        // The resbench mix: premium arrivals (i ≡ 0 mod 3) serve two
        // rounds of three samples and never present sample 2.
        let slots = presented_slots(72, &[2, 3, 4], 3);
        assert_eq!(slots[0], [0, 1, NOT_PRESENTED]);
        assert_eq!(slots[1], [0, 1, 2]);
        assert_eq!(slots[2], [0, 1, 2]);
    }

    #[test]
    fn serving_conserves_arrivals_and_orders_percentiles() {
        let nets = vec![small_net(1), small_net(2)];
        let classes = vec![
            ServiceClass::new("latency", 1, 30_000.0).with_weight(4),
            ServiceClass::new("batch", 2, 300_000.0),
        ];
        let spec = ServingSpec::new(12, 4_000.0, ArrivalProcess::Poisson, 11);
        let report = serving_sweep(
            &nets,
            &classes,
            &spec,
            &cfg(),
            &ResparcConfig::resparc_64(),
            PackingPolicy::BestFit,
        )
        .unwrap();

        assert_eq!(report.arrivals, 12);
        assert_eq!(report.outcomes.len(), 12);
        assert_eq!(
            report.completed + report.rejected + report.preempted,
            report.arrivals
        );
        assert_eq!(report.completed, 12, "an unbounded queue rejects nobody");
        assert!(report.p50 <= report.p95 && report.p95 <= report.p99);
        assert!(report.p99 <= report.makespan);
        assert!(report.busy_time <= report.makespan);
        assert!(report.rounds > 0);
        assert!(report.goodput > 0.0);
        assert_eq!(report.classes.iter().map(|c| c.arrivals).sum::<usize>(), 12);
        // Energy: gated idle strictly under the ungated counterfactual
        // (the pool idles sometimes), occupied billed at full rate.
        assert!(report.gated_idle_leakage < report.ungated_idle_leakage);
        assert!(report.pool_energy() < report.ungated_pool_energy());
        assert!(report.gating_saving() > 0.0);
    }

    #[test]
    fn same_seed_reproduces_the_report_bit_identically() {
        let nets = vec![small_net(3)];
        let classes = vec![ServiceClass::new("only", 2, 60_000.0)];
        let spec = ServingSpec::new(8, 5_000.0, ArrivalProcess::Bursty { burst: 3 }, 21)
            .with_qos(QosPolicy::Adaptive { max_weight: 16 })
            .with_preemption(64.0);
        let run = || {
            serving_sweep(
                &nets,
                &classes,
                &spec,
                &cfg(),
                &ResparcConfig::resparc_64(),
                PackingPolicy::FirstFit,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn admission_control_rejects_when_the_queue_is_full() {
        // One 5-NC class: at most 3 resident at once; a burst of 12
        // overwhelms a 2-deep queue.
        let nets = vec![five_nc_net(4)];
        let classes = vec![ServiceClass::new("wide", 2, 1e9)];
        let spec =
            ServingSpec::new(12, 100.0, ArrivalProcess::Bursty { burst: 12 }, 9).with_max_queue(2);
        let report = serving_sweep(
            &nets,
            &classes,
            &spec,
            &cfg(),
            &ResparcConfig::resparc_64(),
            PackingPolicy::FirstFit,
        )
        .unwrap();
        assert!(report.rejected > 0, "the burst must overflow the queue");
        assert_eq!(report.completed + report.rejected, 12);
        assert!(report.violation_rate() > 0.0);
        assert_eq!(
            report
                .outcomes
                .iter()
                .filter(|o| matches!(o, RequestOutcome::Rejected))
                .count(),
            report.rejected
        );
    }

    #[test]
    fn rejecting_every_arrival_ends_on_an_idle_fabric() {
        // A zero-depth queue rejects every arrival, so the fabric never
        // runs a round: the loop must end when no arrival is left.
        let nets = vec![small_net(12)];
        let classes = vec![ServiceClass::new("only", 1, 1e9)];
        let spec = ServingSpec::new(4, 1_000.0, ArrivalProcess::Poisson, 3).with_max_queue(0);
        let report = serving_sweep(
            &nets,
            &classes,
            &spec,
            &cfg(),
            &ResparcConfig::resparc_64(),
            PackingPolicy::FirstFit,
        )
        .unwrap();
        assert_eq!(report.rejected, spec.requests);
        assert_eq!(report.completed, 0);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn preemption_cancels_over_budget_requests() {
        // A hopeless SLO (1ns) with a tight budget: whatever cannot
        // finish within one round gets preempted; every preempted
        // arrival is accounted.
        let nets = vec![five_nc_net(6)];
        let classes = vec![ServiceClass::new("doomed", 50, 1.0)];
        let spec = ServingSpec::new(6, 50.0, ArrivalProcess::Poisson, 13).with_preemption(2.0);
        let report = serving_sweep(
            &nets,
            &classes,
            &spec,
            &cfg(),
            &ResparcConfig::resparc_64(),
            PackingPolicy::FirstFit,
        )
        .unwrap();
        assert!(report.preempted > 0, "the 1ns SLO is unmeetable");
        assert_eq!(report.completed + report.preempted + report.rejected, 6);
        // Preempted requests freed their NCs: the schedule drained.
        assert!(report.makespan > Time::ZERO);
    }

    #[test]
    fn adaptive_controller_holds_aggregates_and_helps_the_pressed_class() {
        // Two classes contending on the bus: "premium" has a tight SLO,
        // "bulk" a loose one. The adaptive controller must not change
        // any aggregate (work-conserving bus) while improving premium's
        // tail vs the same run at static equal weights.
        // Arrivals every ~100ns against ~300ns rounds: requests queue
        // multi-round deep, so premium's 800ns SLO keeps violating and
        // the controller must keep its weight pinned high.
        let nets = vec![small_net(7), small_net(8)];
        let classes = vec![
            ServiceClass::new("premium", 2, 800.0),
            ServiceClass::new("bulk", 4, 10_000_000.0),
        ];
        let mk = |qos| {
            ServingSpec::new(24, 100.0, ArrivalProcess::Bursty { burst: 8 }, 17).with_qos(qos)
        };
        let run = |spec: &ServingSpec| {
            serving_sweep(
                &nets,
                &classes,
                spec,
                &cfg(),
                &ResparcConfig::resparc_64(),
                PackingPolicy::FirstFit,
            )
            .unwrap()
        };
        let adaptive = run(&mk(QosPolicy::Adaptive { max_weight: 64 }));
        let static_run = run(&mk(QosPolicy::Static));

        // Work conservation: identical schedule, energy and clock.
        assert_eq!(adaptive.rounds, static_run.rounds);
        assert_eq!(adaptive.dynamic_energy, static_run.dynamic_energy);
        assert_eq!(adaptive.occupied_leakage, static_run.occupied_leakage);
        assert_eq!(adaptive.makespan, static_run.makespan);
        assert_eq!(adaptive.busy_time, static_run.busy_time);
        // The controller engaged (premium's weight rose off its base)…
        assert!(adaptive.classes[0].final_weight > classes[0].weight);
        // …and premium's tail is no worse than under static weights.
        assert!(adaptive.classes[0].p99 <= static_run.classes[0].p99);
    }

    #[test]
    fn ungated_spec_reproduces_always_powered_billing() {
        let nets = vec![small_net(9)];
        let classes = vec![ServiceClass::new("only", 2, 1e9)];
        let base = ServingSpec::new(6, 3_000.0, ArrivalProcess::Poisson, 23);
        let run = |gating: f64| {
            serving_sweep(
                &nets,
                &classes,
                &base.clone().with_idle_gating(gating),
                &cfg(),
                &ResparcConfig::resparc_64(),
                PackingPolicy::FirstFit,
            )
            .unwrap()
        };
        let ungated = run(1.0);
        let gated = run(0.1);

        // Ungated: the billed idle equals the counterfactual exactly —
        // PR-4/5 always-powered accounting, bit for bit.
        assert_eq!(ungated.gated_idle_leakage, ungated.ungated_idle_leakage);
        assert_eq!(ungated.pool_energy(), ungated.ungated_pool_energy());
        assert_eq!(ungated.gating_saving(), 0.0);
        // Gating changes nothing about the schedule or dynamic work.
        assert_eq!(gated.rounds, ungated.rounds);
        assert_eq!(gated.dynamic_energy, ungated.dynamic_energy);
        assert_eq!(gated.makespan, ungated.makespan);
        assert_eq!(gated.outcomes, ungated.outcomes);
        // Both runs agree on the counterfactual; the gated bill is
        // strictly smaller.
        assert_eq!(gated.ungated_idle_leakage, ungated.ungated_idle_leakage);
        assert!(gated.gated_idle_leakage < ungated.gated_idle_leakage);
        assert!(gated.gating_saving() > 0.0);
    }

    #[test]
    fn oversized_class_is_rejected_up_front() {
        let nets = vec![Network::random(
            Topology::mlp(144, &[2048, 2048, 10]), // 18 NCs > 16
            1,
            1.0,
        )];
        let classes = vec![ServiceClass::new("huge", 1, 1e9)];
        let err = serving_sweep(
            &nets,
            &classes,
            &ServingSpec::new(2, 100.0, ArrivalProcess::Poisson, 1),
            &cfg(),
            &ResparcConfig::resparc_64(),
            PackingPolicy::Defragment,
        )
        .expect_err("cannot ever fit");
        assert!(matches!(err, AdmitError::CapacityExhausted { .. }));
    }

    #[test]
    fn diurnal_troughs_make_gating_matter_more() {
        // A diurnal trace with deep troughs leaves the pool idle far
        // longer than a steady Poisson trace at the same mean rate —
        // the gating saving must be larger.
        let nets = vec![small_net(10)];
        let classes = vec![ServiceClass::new("only", 1, 1e9)];
        let run = |arrivals| {
            serving_sweep(
                &nets,
                &classes,
                &ServingSpec::new(10, 2_000.0, arrivals, 31).with_idle_gating(0.05),
                &cfg(),
                &ResparcConfig::resparc_64(),
                PackingPolicy::FirstFit,
            )
            .unwrap()
        };
        let diurnal = run(ArrivalProcess::Diurnal {
            period_ns: 40_000.0,
            amplitude: 0.9,
        });
        assert!(diurnal.gating_saving() > 0.0);
        assert!(diurnal.makespan >= diurnal.busy_time);
    }
}
