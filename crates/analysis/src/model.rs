//! Bounded exhaustive model checking of the fabric scheduling stack.
//!
//! The `FabricScheduler` × NC-health × admission state machine is the
//! part of the repo where a silent invariant break turns directly into
//! wrong energy numbers (a lost tenant stops being billed; a
//! double-occupied NeuroCell is billed twice). Proptests sample that
//! space; this module **enumerates** it: every interleaving of a small
//! event vocabulary — submit / cancel / fail / drain / restore / round
//! — over a 2–4 NeuroCell pool with 2–3 tenants, checking six
//! invariants after every single transition:
//!
//! 1. **NC conservation** — free + occupied + unhealthy cells equal the
//!    physical pool, and no unhealthy cell is occupied.
//! 2. **No double-occupancy** — every resident tenant owns exactly its
//!    contiguous run, every occupied cell belongs to exactly one
//!    resident, and footprints sum to the occupied count. On
//!    heterogeneous inventories the run is additionally uniform in the
//!    mapping's size class and every partition tile physically fits
//!    that class's crossbar (an over-capacity admit — a 16-wide tile on
//!    8×8 cells — is a violation).
//! 3. **Request conservation** — queued ∪ active ∪ completed is
//!    exactly the submitted set, with no duplicates (via
//!    [`FabricScheduler::check_consistency`]): evict–requeue–readmit
//!    never loses or duplicates a request.
//! 4. **Abort legitimacy** — a request retires aborted only if the
//!    harness cancelled it or it was wider than the pool's largest
//!    healthy segment when retired.
//! 5. **Service accounting** — departures served exactly their
//!    requested rounds; aborts never over-serve; nothing departs in the
//!    future.
//! 6. **Energy sanity** (on `Round` transitions of energy-checking
//!    configs) — the shared-replay ledger is identical gated vs
//!    ungated, gated idle leakage never exceeds ungated, bus aggregates
//!    are arbitration-weight independent (work conservation), and the
//!    cumulative pool bill is non-negative and monotone.
//!
//! [`check`] explores one [`ModelConfig`]; [`suite`] is the CI
//! configuration set (≥ 10⁴ states). [`InjectedBug`] seeds a deliberate
//! scheduler misuse so tests can demonstrate the checker actually
//! catches violations.

use std::collections::BTreeSet;

use resparc_core::config::ResparcConfig;
use resparc_core::fabric::{
    FabricPool, FabricScheduler, NcHealth, PackingPolicy, RequestId, SharedEventSimulator, TenantId,
};
use resparc_core::map::{Mapper, Mapping};
use resparc_neuro::encoding::RegularEncoder;
use resparc_neuro::network::Network;
use resparc_neuro::topology::Topology;
use resparc_neuro::trace::SpikeTrace;

/// A deliberately wrong harness behaviour, used to prove the checker
/// detects broken scheduling (never enabled in CI configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// On a NeuroCell fault, silently retire the evicted request
    /// instead of letting the scheduler's requeue-at-head recovery
    /// re-admit it — the classic "skip requeue on evict" bug. Detected
    /// by invariant 4: the abort is neither harness-cancelled nor
    /// unservable.
    DropEvictedOnFail,
    /// On `Submit`, relabel the probe's `config.mca_size` to the
    /// smallest *other* inventory class without re-partitioning — the
    /// heterogeneous over-capacity admit: the pool allocates a run of
    /// cells whose crossbars are smaller than the probe's tiles.
    /// Detected by invariant 2's class-capacity check (a tile wider
    /// than the crossbars of its run). No-op on homogeneous pools.
    MislabelProbeClass,
}

/// One bounded exploration: pool shape, tenant footprints and the
/// interleaving depth.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Label for reports.
    pub name: &'static str,
    /// Physical NeuroCells in the pool (2–4 keeps exhaustion cheap).
    pub physical_ncs: usize,
    /// Per-NC MCA size classes for a heterogeneous inventory (length
    /// must equal `physical_ncs`); `None` = uniform 8×8 machine.
    pub nc_sizes: Option<Vec<usize>>,
    /// Per-tenant footprint in NeuroCells.
    pub tenant_ncs: Vec<usize>,
    /// Per-tenant MCA size class, parallel to `tenant_ncs`; tenants
    /// past its end (and all tenants of homogeneous configs) use the
    /// machine's base class.
    pub tenant_classes: Vec<usize>,
    /// Service rounds each request asks for.
    pub service_rounds: usize,
    /// Maximum events per interleaving.
    pub depth: usize,
    /// Pool packing policy.
    pub policy: PackingPolicy,
    /// Scheduler backfill window (`None` = strict FIFO).
    pub backfill: Option<usize>,
    /// Replay residents through [`SharedEventSimulator`] on every
    /// `Round` and check the energy invariants (slower; use small
    /// depths).
    pub check_energy: bool,
    /// Optional deliberate bug (test-only).
    pub bug: Option<InjectedBug>,
}

/// Result of one [`check`] run.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Transitions explored (every event application of every
    /// interleaving counts once).
    pub states: usize,
    /// First invariant violation found, with its event history; `None`
    /// when the whole bounded space is clean.
    pub violation: Option<String>,
}

/// The event vocabulary the checker interleaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Submit tenant `k`'s request (once per interleaving).
    Submit(usize),
    /// Cancel tenant `k`'s request while queued or active.
    Cancel(usize),
    /// Permanently fail NeuroCell `nc`.
    FailNc(usize),
    /// Quarantine NeuroCell `nc`.
    DrainNc(usize),
    /// Restore quarantined NeuroCell `nc`.
    RestoreNc(usize),
    /// One full scheduling round (`begin_round` … `end_round`).
    Round,
}

/// Immutable per-config fixtures: one sized probe (+ spike trace when
/// energy checking) per tenant.
struct Setup {
    probes: Vec<Mapping>,
    traces: Vec<SpikeTrace>,
}

/// The small machine the model pools are built on: 8×8 crossbars so a
/// NeuroCell holds few synapses and tiny MLPs span 1–2 cells, and a
/// short timestep window so energy replays stay cheap.
fn machine_config(physical_ncs: usize) -> ResparcConfig {
    let mut cfg = ResparcConfig::with_mca_size(8).with_timesteps(6);
    cfg.physical_ncs = physical_ncs;
    cfg
}

/// Builds the config's pool: homogeneous on the 8×8 machine, or the
/// declared mixed inventory.
fn pool_for(cfg: &ModelConfig) -> FabricPool {
    let machine = machine_config(cfg.physical_ncs);
    let pool = match &cfg.nc_sizes {
        Some(sizes) => {
            assert_eq!(
                sizes.len(),
                cfg.physical_ncs,
                "{}: nc_sizes must cover the pool",
                cfg.name
            );
            FabricPool::heterogeneous(machine, sizes)
        }
        None => FabricPool::new(machine),
    };
    pool.with_policy(cfg.policy)
}

/// Finds an MLP whose mapping occupies exactly `target_ncs` NeuroCells
/// on `cfg` by sweeping the hidden width.
fn sized_net(cfg: &ResparcConfig, target_ncs: usize, seed: u64) -> (Network, Mapping) {
    let mut h = 4usize;
    while h <= 4096 {
        let net = Network::random(Topology::mlp(16, &[h, 4]), seed, 1.0);
        if let Ok(m) = Mapper::new(cfg.clone()).map_network(&net) {
            match m.placement.ncs_used.max(1).cmp(&target_ncs) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => return (net, m),
                std::cmp::Ordering::Greater => break,
            }
        }
        h += 4;
    }
    unreachable!("no MLP occupies {target_ncs} NCs on this machine")
}

impl Setup {
    fn build(cfg: &ModelConfig) -> Setup {
        let pool = pool_for(cfg);
        let mut probes = Vec::new();
        let mut traces = Vec::new();
        for (k, &ncs) in cfg.tenant_ncs.iter().enumerate() {
            // Each tenant is partitioned for its declared size class
            // (the base machine when unclassed or homogeneous).
            let class_cfg = match (&cfg.nc_sizes, cfg.tenant_classes.get(k)) {
                (Some(_), Some(&class)) => pool.class_config(class),
                _ => pool.config().clone(),
            };
            let (net, probe) = sized_net(&class_cfg, ncs, 100 + k as u64);
            if cfg.check_energy {
                let stimulus: Vec<f32> = (0..16)
                    .map(|i| 0.25 + 0.25 * ((i + k) % 4) as f32)
                    .collect();
                let raster = RegularEncoder::new(1.0).encode(&stimulus, 6);
                let (_, trace) = net.spiking().run_traced(&raster);
                traces.push(trace);
            }
            probes.push(probe);
        }
        Setup { probes, traces }
    }
}

/// One explored scheduler state plus the harness bookkeeping the
/// invariants compare against.
#[derive(Clone)]
struct Harness {
    sched: FabricScheduler,
    /// Per tenant slot: the request id once submitted.
    submitted: Vec<Option<RequestId>>,
    /// Requests the harness itself cancelled (legitimate aborts).
    cancelled: BTreeSet<RequestId>,
    /// Completed records already validated by invariant 4/5 (records
    /// are append-only, so a cursor suffices).
    checked_completed: usize,
    /// Running pool bill in picojoules (invariant 6 monotonicity).
    cumulative_pj: f64,
    /// Events applied so far (diagnostics).
    history: Vec<Event>,
}

impl Harness {
    fn new(cfg: &ModelConfig) -> Harness {
        let pool = pool_for(cfg);
        let sched = match cfg.backfill {
            Some(w) => FabricScheduler::new(pool).with_backfill(w),
            None => FabricScheduler::new(pool),
        };
        Harness {
            sched,
            submitted: vec![None; cfg.tenant_ncs.len()],
            cancelled: BTreeSet::new(),
            checked_completed: 0,
            cumulative_pj: 0.0,
            history: Vec::new(),
        }
    }

    /// Events applicable in this state, in deterministic order.
    fn enabled_events(&self) -> Vec<Event> {
        let mut events = Vec::new();
        let live: BTreeSet<RequestId> = self
            .sched
            .queued_requests()
            .chain(self.sched.active_requests().map(|(r, _)| r))
            .collect();
        for (k, slot) in self.submitted.iter().enumerate() {
            match slot {
                None => events.push(Event::Submit(k)),
                Some(r) if live.contains(r) => events.push(Event::Cancel(k)),
                Some(_) => {}
            }
        }
        for (nc, health) in self.sched.pool().nc_health().iter().enumerate() {
            match health {
                NcHealth::Healthy => {
                    events.push(Event::FailNc(nc));
                    events.push(Event::DrainNc(nc));
                }
                NcHealth::Quarantined => events.push(Event::RestoreNc(nc)),
                NcHealth::Failed => {}
            }
        }
        events.push(Event::Round);
        events
    }

    /// Applies one event, then re-checks every invariant.
    fn apply(&mut self, ev: Event, cfg: &ModelConfig, setup: &Setup) -> Result<(), String> {
        self.history.push(ev);
        match ev {
            Event::Submit(k) => {
                let mut probe = setup.probes[k].clone();
                if cfg.bug == Some(InjectedBug::MislabelProbeClass) {
                    // The seeded bug: lie about the probe's size class
                    // (smallest other class in the inventory) without
                    // re-partitioning, so its tiles land on crossbars
                    // too small to hold them.
                    if let Some(&wrong) = self
                        .sched
                        .pool()
                        .size_classes()
                        .iter()
                        .find(|&&c| c != probe.config.mca_size)
                    {
                        probe.config.mca_size = wrong;
                    }
                }
                let request = self.sched.submit_mapped(
                    probe,
                    &format!("t{k}"),
                    cfg.service_rounds,
                    (k + 1) as u32,
                );
                self.submitted[k] = Some(request);
            }
            Event::Cancel(k) => {
                if let Some(request) = self.submitted[k] {
                    self.sched.cancel(request);
                    self.cancelled.insert(request);
                }
            }
            Event::FailNc(nc) => {
                let requeued = self.sched.fail_nc(nc);
                if self.sched.pool().nc_health()[nc] == NcHealth::Failed
                    && cfg.bug == Some(InjectedBug::DropEvictedOnFail)
                {
                    // The seeded bug: throw the recovered request away
                    // instead of letting the head-requeue re-admit it.
                    // Deliberately NOT recorded in `cancelled`.
                    if let Some(request) = requeued {
                        self.sched.cancel(request);
                    }
                }
            }
            Event::DrainNc(nc) => {
                self.sched.drain_nc(nc);
            }
            Event::RestoreNc(nc) => {
                self.sched.restore_nc(nc);
            }
            Event::Round => {
                let residents = self.sched.begin_round();
                if cfg.check_energy && !residents.is_empty() {
                    self.check_energy_invariants(&residents, setup)?;
                }
                self.sched.end_round();
            }
        }
        self.check_invariants(cfg, setup)
    }

    /// Invariants 1–5 (structural; checked after every event).
    fn check_invariants(&mut self, cfg: &ModelConfig, setup: &Setup) -> Result<(), String> {
        let pool = self.sched.pool();
        let occupancy = pool.occupancy();
        let health = pool.nc_health();

        // 1. NC conservation.
        let unhealthy = pool.quarantined_ncs() + pool.failed_ncs();
        if pool.free_ncs() + pool.occupied_ncs() + unhealthy != pool.physical_ncs() {
            return self.violated("NC conservation: free + occupied + unhealthy != physical");
        }
        for (nc, (slot, h)) in occupancy.iter().zip(health).enumerate() {
            if *h != NcHealth::Healthy && slot.is_some() {
                return self.violated(&format!("unhealthy NC {nc} is still occupied"));
            }
        }

        // 2. No double-occupancy.
        let mut owned = 0usize;
        let mut ids: BTreeSet<TenantId> = BTreeSet::new();
        for t in pool.tenants() {
            if !ids.insert(t.id) {
                return self.violated("duplicate tenant id in the pool");
            }
            if t.end_nc() > pool.physical_ncs() {
                return self.violated("tenant run exceeds the pool");
            }
            for (nc, slot) in occupancy
                .iter()
                .enumerate()
                .take(t.end_nc())
                .skip(t.first_nc())
            {
                if *slot != Some(t.id) {
                    return self.violated(&format!(
                        "NC {nc} not owned by the tenant whose run covers it"
                    ));
                }
            }
            owned += t.nc_count();
        }
        if owned != pool.occupied_ncs() {
            return self.violated("occupied NCs not exactly covered by tenant runs");
        }
        // 2b. Class capacity: a resident's run is uniformly of its
        // mapping's size class, and every partition tile physically
        // fits that class's crossbar. (Trivially true on homogeneous
        // pools; this is what catches an over-capacity heterogeneous
        // admit.)
        let sizes = pool.nc_sizes();
        for t in pool.tenants() {
            let class = t.mapping.config.mca_size;
            for (nc, &size) in sizes.iter().enumerate().take(t.end_nc()).skip(t.first_nc()) {
                if size != class {
                    return self.violated(&format!(
                        "NC {nc} (class {size}) hosts a class-{class} tenant"
                    ));
                }
            }
            for part in t.mapping.partitions.iter() {
                for tile in &part.tiles {
                    if tile.rows as usize > class || tile.cols as usize > class {
                        return self.violated(&format!(
                            "tile {}x{} exceeds the {class}-wide crossbars of its run",
                            tile.rows, tile.cols
                        ));
                    }
                }
            }
        }
        for (nc, slot) in occupancy.iter().enumerate() {
            if let Some(id) = slot {
                if !ids.contains(id) {
                    return self.violated(&format!("NC {nc} owned by a non-resident tenant"));
                }
            }
        }

        // 3. Request conservation (+ internal consistency).
        if let Err(e) = self.sched.check_consistency() {
            return self.violated(&format!("scheduler inconsistency: {e}"));
        }
        let tracked: BTreeSet<RequestId> = self
            .sched
            .queued_requests()
            .chain(self.sched.active_requests().map(|(r, _)| r))
            .chain(self.sched.completed().iter().map(|r| r.request))
            .collect();
        let submitted: BTreeSet<RequestId> = self.submitted.iter().flatten().copied().collect();
        if tracked != submitted {
            return self
                .violated("request lost or invented (queued ∪ active ∪ completed ≠ submitted)");
        }

        // 4 & 5. Newly retired records: abort legitimacy and service
        // accounting. Health did not change since the records appeared
        // (aborts happen inside rounds/cancels, never health events),
        // so the current largest healthy segment is the one they were
        // retired under.
        let completed = self.sched.completed();
        for rec in &completed[self.checked_completed..] {
            if rec.aborted {
                // Servability is per size class: a 2-run of free
                // 8-cells is no capacity at all for a 16-class
                // request. The record carries no class, so recover it
                // from the harness's fixture (invariant 3 already rules
                // out a record that was never submitted).
                let Some(k) = self.submitted.iter().position(|s| *s == Some(rec.request)) else {
                    return self.violated(&format!("aborted {} was never submitted", rec.request));
                };
                let unservable =
                    rec.ncs > pool.max_admissible_run_for(setup.probes[k].config.mca_size);
                if !unservable && !self.cancelled.contains(&rec.request) {
                    return self.violated(&format!(
                        "{} aborted while servable and never cancelled",
                        rec.request
                    ));
                }
                if rec.rounds_served >= cfg.service_rounds {
                    return self.violated(&format!("{} over-served before abort", rec.request));
                }
            } else if rec.rounds_served != cfg.service_rounds {
                return self.violated(&format!(
                    "{} departed with {} of {} rounds served",
                    rec.request, rec.rounds_served, cfg.service_rounds
                ));
            }
            match rec.departed_round {
                Some(r) if r <= self.sched.round() => {}
                _ => return self.violated(&format!("{} departed in the future", rec.request)),
            }
        }
        self.checked_completed = completed.len();
        Ok(())
    }

    /// Invariant 6: the energy claims, re-proved on this round's
    /// resident set.
    fn check_energy_invariants(
        &mut self,
        residents: &[resparc_core::fabric::ScheduledTenant],
        setup: &Setup,
    ) -> Result<(), String> {
        let mut pairs: Vec<(TenantId, &SpikeTrace)> = Vec::with_capacity(residents.len());
        for st in residents {
            let Some(k) = self.submitted.iter().position(|s| *s == Some(st.request)) else {
                return self.violated(&format!("resident {} was never submitted", st.request));
            };
            pairs.push((st.tenant, &setup.traces[k]));
        }
        let weights: Vec<u32> = residents.iter().map(|st| st.weight).collect();
        let ungated = SharedEventSimulator::new(self.sched.pool()).run_weighted(&pairs, &weights);
        let gated_pool = self.sched.pool().clone().with_idle_gating(0.25);
        let gated = SharedEventSimulator::new(&gated_pool).run_weighted(&pairs, &weights);

        if gated.energy.total().picojoules() != ungated.energy.total().picojoules() {
            return self.violated("gating changed the occupied-fabric ledger");
        }
        if gated.idle_leakage.picojoules() > ungated.idle_leakage.picojoules() {
            return self.violated("gated idle leakage exceeds ungated");
        }
        let equal_weights = vec![1u32; pairs.len()];
        let flat =
            SharedEventSimulator::new(self.sched.pool()).run_weighted(&pairs, &equal_weights);
        if flat.bus_busy_cycles != ungated.bus_busy_cycles
            || flat.total_bus_stall_cycles() != ungated.total_bus_stall_cycles()
        {
            return self.violated("bus aggregates depend on arbitration weights");
        }
        let bill = ungated.pool_energy().picojoules();
        if bill.is_nan() || bill < 0.0 {
            return self.violated("negative round energy bill");
        }
        let next = self.cumulative_pj + bill;
        if next < self.cumulative_pj {
            return self.violated("cumulative energy bill regressed");
        }
        self.cumulative_pj = next;
        Ok(())
    }

    fn violated(&self, what: &str) -> Result<(), String> {
        Err(format!("{what}; events: {:?}", self.history))
    }
}

/// Exhaustively explores every interleaving of `cfg`'s event vocabulary
/// up to `cfg.depth` events, checking all invariants after each
/// transition. Returns the transition count and the first violation (if
/// any).
pub fn check(cfg: &ModelConfig) -> CheckOutcome {
    let setup = Setup::build(cfg);
    let mut states = 0usize;
    let root = Harness::new(cfg);
    let violation = dfs(&root, cfg.depth, cfg, &setup, &mut states);
    CheckOutcome { states, violation }
}

fn dfs(
    h: &Harness,
    depth: usize,
    cfg: &ModelConfig,
    setup: &Setup,
    states: &mut usize,
) -> Option<String> {
    if depth == 0 {
        return None;
    }
    for ev in h.enabled_events() {
        let mut child = h.clone();
        *states += 1;
        if let Err(v) = child.apply(ev, cfg, setup) {
            return Some(v);
        }
        if let Some(v) = dfs(&child, depth - 1, cfg, setup, states) {
            return Some(v);
        }
    }
    None
}

/// The CI configuration suite: structural configs that exhaust a
/// deeper interleaving space (homogeneous and mixed-inventory), plus
/// energy-checking configs that re-prove the gating/work-conservation
/// claims on every explored round — the heterogeneous one on a mixed
/// 8/16 inventory. Together they exceed 10⁴ transitions.
pub fn suite() -> Vec<ModelConfig> {
    vec![
        ModelConfig {
            name: "structural-3nc-3t",
            physical_ncs: 3,
            nc_sizes: None,
            tenant_ncs: vec![1, 1, 2],
            tenant_classes: vec![],
            service_rounds: 2,
            depth: 5,
            policy: PackingPolicy::BestFit,
            backfill: Some(2),
            check_energy: false,
            bug: None,
        },
        ModelConfig {
            name: "structural-4nc-defrag",
            physical_ncs: 4,
            nc_sizes: None,
            tenant_ncs: vec![2, 2],
            tenant_classes: vec![],
            service_rounds: 2,
            depth: 5,
            policy: PackingPolicy::Defragment,
            backfill: None,
            check_energy: false,
            bug: None,
        },
        ModelConfig {
            name: "structural-het-3nc-2t",
            physical_ncs: 3,
            nc_sizes: Some(vec![8, 8, 16]),
            tenant_ncs: vec![1, 1],
            tenant_classes: vec![8, 16],
            service_rounds: 2,
            depth: 4,
            policy: PackingPolicy::FirstFit,
            backfill: None,
            check_energy: false,
            bug: None,
        },
        ModelConfig {
            name: "structural-het-4nc-defrag",
            physical_ncs: 4,
            nc_sizes: Some(vec![16, 8, 8, 16]),
            tenant_ncs: vec![2, 1],
            tenant_classes: vec![8, 16],
            service_rounds: 2,
            depth: 4,
            policy: PackingPolicy::Defragment,
            backfill: Some(2),
            check_energy: false,
            bug: None,
        },
        ModelConfig {
            name: "energy-2nc-2t",
            physical_ncs: 2,
            nc_sizes: None,
            tenant_ncs: vec![1, 1],
            tenant_classes: vec![],
            service_rounds: 2,
            depth: 4,
            policy: PackingPolicy::FirstFit,
            backfill: None,
            check_energy: true,
            bug: None,
        },
        ModelConfig {
            name: "energy-het-3nc-2t",
            physical_ncs: 3,
            nc_sizes: Some(vec![8, 16, 16]),
            tenant_ncs: vec![1, 1],
            tenant_classes: vec![8, 16],
            service_rounds: 2,
            depth: 3,
            policy: PackingPolicy::FirstFit,
            backfill: None,
            check_energy: true,
            bug: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_nets_hit_their_footprints() {
        let machine = machine_config(4);
        for target in 1..=2 {
            let (_, m) = sized_net(&machine, target, 42);
            assert_eq!(m.placement.ncs_used.max(1), target);
        }
    }

    #[test]
    fn suite_explores_enough_states_with_no_violation() {
        let mut total = 0usize;
        for cfg in suite() {
            let outcome = check(&cfg);
            assert!(
                outcome.violation.is_none(),
                "{}: {}",
                cfg.name,
                outcome.violation.unwrap_or_default()
            );
            total += outcome.states;
        }
        assert!(
            total >= 10_000,
            "suite must exhaust at least 10^4 transitions, got {total}"
        );
    }

    #[test]
    fn injected_requeue_skip_bug_is_caught() {
        let cfg = ModelConfig {
            name: "bug-drop-evicted",
            physical_ncs: 3,
            nc_sizes: None,
            tenant_ncs: vec![1, 1],
            tenant_classes: vec![],
            service_rounds: 2,
            depth: 4,
            policy: PackingPolicy::FirstFit,
            backfill: None,
            check_energy: false,
            bug: Some(InjectedBug::DropEvictedOnFail),
        };
        let outcome = check(&cfg);
        let v = outcome
            .violation
            .expect("the seeded requeue-skip bug must be detected");
        assert!(
            v.contains("aborted while servable"),
            "unexpected violation: {v}"
        );
    }

    #[test]
    fn injected_class_mislabel_bug_is_caught() {
        // The heterogeneous over-capacity admit: a tenant partitioned
        // for 16×16 crossbars is submitted labelled as class 8, so the
        // pool parks its 16-wide tiles on 8×8 cells. The class-capacity
        // invariant must flag it the moment it lands.
        let cfg = ModelConfig {
            name: "bug-mislabel-class",
            physical_ncs: 3,
            nc_sizes: Some(vec![8, 8, 16]),
            tenant_ncs: vec![1],
            tenant_classes: vec![16],
            // Two rounds keep the mislabeled tenant resident past the
            // round that admits it, where the post-event check sees it.
            service_rounds: 2,
            depth: 3,
            policy: PackingPolicy::FirstFit,
            backfill: None,
            check_energy: false,
            bug: Some(InjectedBug::MislabelProbeClass),
        };
        let outcome = check(&cfg);
        let v = outcome
            .violation
            .expect("the seeded over-capacity heterogeneous admit must be detected");
        assert!(
            v.contains("exceeds") && v.contains("crossbars"),
            "unexpected violation: {v}"
        );
    }

    #[test]
    fn cancel_is_a_legitimate_abort() {
        // Same shape as the bug config but with honest cancels only —
        // the checker must stay quiet.
        let cfg = ModelConfig {
            name: "honest-cancels",
            physical_ncs: 2,
            nc_sizes: None,
            tenant_ncs: vec![1, 1],
            tenant_classes: vec![],
            service_rounds: 1,
            depth: 4,
            policy: PackingPolicy::FirstFit,
            backfill: None,
            check_energy: false,
            bug: None,
        };
        let outcome = check(&cfg);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.states > 0);
    }
}
