//! Dynamic admission across replay rounds: arrivals queue, departures
//! free capacity mid-stream.
//!
//! PR 4's [`FabricPool`] realised reconfigurability *statically*: the
//! tenant set was fixed before a replay round and never changed while
//! traffic was in flight. [`FabricScheduler`] closes the loop — it owns
//! a pool and drives an arrival/departure schedule over **rounds** (one
//! round = one interleaved shared replay of the currently-resident
//! tenants):
//!
//! * [`submit`](FabricScheduler::submit) maps a request once per size
//!   class, as the pool's own admission does, and appends it with its
//!   probes to a FIFO queue (cached, never re-partitioned);
//! * [`begin_round`](FabricScheduler::begin_round) admits from the
//!   queue head while the pool's [`PackingPolicy`] finds capacity in
//!   one of the request's classes (the first with room, in the greedy
//!   order [`FabricPool::admit`] uses) — including room a
//!   [`PackingPolicy::Defragment`] compaction can create — and
//!   returns the round's residents with their
//!   bus-arbitration weights (by default head-of-line blocking keeps
//!   admission strictly FIFO: no request starves behind a later,
//!   smaller one);
//! * [`with_backfill`](FabricScheduler::with_backfill) relaxes strict
//!   FIFO: while the head is blocked on capacity, later requests that
//!   fit are admitted out of order — but only for a bounded
//!   **starvation window** of rounds per blocked head. When the window
//!   expires, backfilling stops, so the head's total wait is bounded by
//!   the window plus the residual service of the tenants resident at
//!   expiry — a wide request is delayed, never starved (tested in
//!   `backfill_window_bounds_head_starvation`);
//! * [`cancel`](FabricScheduler::cancel) preempts a request wherever it
//!   is (evicting it mid-service or dropping it from the queue),
//!   retiring it as an [`ServiceRecord::aborted`] record — the hook
//!   `resparc_workloads::serving` uses to evict over-budget tenants;
//! * the caller replays the round (e.g.
//!   [`SharedEventSimulator::run_weighted`](crate::fabric::SharedEventSimulator::run_weighted));
//! * [`end_round`](FabricScheduler::end_round) retires one service
//!   round per resident and **evicts** tenants whose service completed,
//!   freeing their NC runs for the next round's admissions.
//!
//! The scheduler is also the **recovery loop** for NeuroCell faults:
//! [`fail_nc`](FabricScheduler::fail_nc) /
//! [`drain_nc`](FabricScheduler::drain_nc) forward to the pool's health
//! transitions, and when the sick cell evicts a resident tenant the
//! scheduler re-queues that request at the **head** of the queue (its
//! cached probes are reused — no re-partitioning) so the next
//! [`begin_round`](FabricScheduler::begin_round) re-admits it wherever
//! healthy capacity remains. The interrupted round is voided (the
//! victim earns no service credit for it); the rounds between
//! interruption and re-admission are counted as
//! [`ServiceRecord::recovery_rounds`]. A queued request wider, in every
//! class it was mapped for, than that class's largest healthy segment
//! can never be admitted again — `begin_round` retires it with
//! [`ServiceRecord::aborted`] set instead of letting it block the queue
//! forever.
//!
//! Every request's life cycle is recorded as a [`ServiceRecord`]
//! (submission, admission, interruptions and departure rounds), so
//! queue-wait, recovery and utilization statistics fall out of the log
//! — `resparc_workloads::churn::churn_sweep` builds the
//! dynamic-vs-static comparison on top.
//!
//! [`PackingPolicy`]: crate::fabric::PackingPolicy
//! [`PackingPolicy::Defragment`]: crate::fabric::PackingPolicy::Defragment

use std::collections::VecDeque;
use std::fmt;

use resparc_neuro::network::Network;

use crate::fabric::pool::footprint;
use crate::fabric::{FabricPool, TenantId};
use crate::map::{MapError, Mapping};

/// Handle of one submitted service request (stable from submission
/// through departure, unlike the [`TenantId`] that only exists while
/// the request is resident).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(u32);

impl RequestId {
    /// The raw submission index (monotone per scheduler).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request#{}", self.0)
    }
}

/// A violation of the scheduler's cross-structure invariants, surfaced
/// by [`FabricScheduler::check_consistency`]. These are bugs, not
/// operational conditions: a healthy scheduler never returns one. The
/// bounded model checker in `resparc-analysis` calls the check after
/// every transition of every explored interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// An active record's tenant is unknown to the pool, or resident
    /// with a different NeuroCell footprint than the scheduler recorded.
    TenantNotResident {
        /// The request whose residency is inconsistent.
        request: RequestId,
        /// The stale (or mismatched) pool handle.
        tenant: TenantId,
    },
    /// A request id appears more than once across queue, active set and
    /// completed log — a request was duplicated instead of moved.
    DuplicateRequest {
        /// The duplicated id.
        request: RequestId,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::TenantNotResident { request, tenant } => write!(
                f,
                "{request} is active as tenant {tenant:?} but the pool disagrees"
            ),
            ScheduleError::DuplicateRequest { request } => {
                write!(f, "{request} appears in more than one scheduler structure")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One resident tenant in the round [`FabricScheduler::begin_round`]
/// planned: what to replay and at which bus-arbitration weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledTenant {
    /// The originating request.
    pub request: RequestId,
    /// The pool residency handle (valid until the request departs).
    pub tenant: TenantId,
    /// The request's label.
    pub name: String,
    /// Bus-arbitration weight for this round's shared replay.
    pub weight: u32,
    /// Service rounds already completed (0 on the admission round) —
    /// the index of the presentation this round should replay.
    pub rounds_served: usize,
}

/// The recorded life cycle of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRecord {
    /// The request this record describes.
    pub request: RequestId,
    /// The request's label.
    pub name: String,
    /// NeuroCells the request's mapping occupies while resident (for a
    /// request never admitted, its preferred class's footprint).
    pub ncs: usize,
    /// Bus-arbitration weight.
    pub weight: u32,
    /// Round the request was submitted in.
    pub submitted_round: usize,
    /// Round the request was *first* admitted in (it replayed that
    /// round). An aborted request that was never admitted records the
    /// abort round here.
    pub admitted_round: usize,
    /// Round the request's final service round ran in (or the round an
    /// aborted request was retired in); `None` while still resident.
    pub departed_round: Option<usize>,
    /// Service rounds completed so far.
    pub rounds_served: usize,
    /// Times a NeuroCell fault ([`FabricScheduler::fail_nc`] /
    /// [`FabricScheduler::drain_nc`]) evicted this request mid-service.
    pub interruptions: usize,
    /// Rounds lost to fault recovery: for each interruption, the rounds
    /// between the eviction and the re-admission (the voided interrupted
    /// round included).
    pub recovery_rounds: usize,
    /// The request was retired *unserved to completion* because it
    /// needs more NeuroCells than the pool's largest healthy segment —
    /// it could never be admitted again. Fault-free pools never abort.
    pub aborted: bool,
}

impl ServiceRecord {
    /// Rounds the request waited in the queue before first admission.
    pub fn wait_rounds(&self) -> usize {
        self.admitted_round - self.submitted_round
    }
}

/// One submitted request as the scheduler drives it: its life-cycle
/// record, filled in as it moves, plus what the record does not show.
/// The queue holds it alone, and the active set holds it with its pool
/// tenant id. A fault-evicted request re-enters the queue with its
/// progress, its interruption history and the mapping it ran with back
/// among its probes.
///
/// A queued request with no interruptions has never been admitted: only
/// a fault eviction sends an admitted request back to the queue. Until
/// its first admission, `record.admitted_round` is a placeholder and
/// `record.ncs` is the footprint of its preferred probe.
#[derive(Debug, Clone)]
struct Request {
    record: ServiceRecord,
    /// Rounds of service the request asked for.
    service_rounds: usize,
    /// Round of the latest fault eviction (the recovery clock's start).
    interrupted_round: usize,
    /// Probes mapped once at submission, one per size class, in greedy
    /// preference order (see [`footprint`]). While the request is
    /// resident, the probes of the classes it does not occupy.
    probes: Vec<Mapping>,
}

/// Where a queued request stands against the pool's current state.
enum Fit {
    /// The probe at this index can be admitted now.
    Now(usize),
    /// Some class could serve the request, but none has room now.
    Later,
    /// No class has a healthy segment wide enough: it can never run.
    Never,
}

/// Drives dynamic admission/eviction of a [`FabricPool`] across replay
/// rounds; see the [module docs](self) for the round protocol.
#[derive(Debug, Clone)]
pub struct FabricScheduler {
    pool: FabricPool,
    round: usize,
    next_request: u32,
    queue: VecDeque<Request>,
    active: Vec<(Request, TenantId)>,
    completed: Vec<ServiceRecord>,
    /// `Some(window)` enables backfilling behind a blocked head for at
    /// most `window` rounds; `None` is the strict-FIFO PR-5 behaviour.
    backfill_window: Option<usize>,
    /// The queue head currently blocked on capacity and the round it
    /// first failed admission — the starvation clock backfilling is
    /// bounded by. Cleared whenever the head changes or admits.
    blocked_head: Option<(RequestId, usize)>,
}

impl FabricScheduler {
    /// Creates a scheduler owning `pool`. Tenants already resident in
    /// the pool are left untouched (they occupy capacity but never
    /// depart — static residents under a dynamic workload).
    pub fn new(pool: FabricPool) -> Self {
        Self {
            pool,
            round: 0,
            next_request: 0,
            queue: VecDeque::new(),
            active: Vec::new(),
            completed: Vec::new(),
            backfill_window: None,
            blocked_head: None,
        }
    }

    /// Enables **backfilling** with a bounded starvation window: when
    /// the queue head does not fit the pool, later queued requests that
    /// *do* fit may be admitted out of order — but only while the head
    /// has been blocked for fewer than `window` rounds. Once the window
    /// expires, backfilling stops and residents drain until the head
    /// admits, which bounds head-of-line starvation at `window` plus
    /// the residual service of the tenants already resident when the
    /// window closed (no new work is admitted past it). The blocked
    /// clock restarts whenever the head changes.
    ///
    /// Without this (the default), admission is strictly FIFO — a
    /// blocked head stalls everything behind it (PR-5 semantics,
    /// asserted by `head_of_line_blocking_is_strictly_fifo`).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (that would be strict FIFO spelled
    /// confusingly — use [`new`](Self::new)).
    pub fn with_backfill(mut self, window: usize) -> Self {
        assert!(window > 0, "a zero backfill window is strict FIFO");
        self.backfill_window = Some(window);
        self
    }

    /// The backfill starvation window, if backfilling is enabled.
    pub fn backfill_window(&self) -> Option<usize> {
        self.backfill_window
    }

    /// The scheduled pool (its policy decides how admissions pack).
    pub fn pool(&self) -> &FabricPool {
        &self.pool
    }

    /// The current round index (0 before the first
    /// [`begin_round`](Self::begin_round)).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Requests waiting for capacity, in FIFO order.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no request is queued or resident (future submissions may
    /// still arrive — the *caller* owns the arrival schedule).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty()
    }

    /// Life-cycle records of departed requests, in departure order.
    pub fn completed(&self) -> &[ServiceRecord] {
        &self.completed
    }

    /// Request ids waiting for capacity, head first.
    pub fn queued_requests(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.queue.iter().map(|r| r.record.request)
    }

    /// Resident requests with their pool residency handles, in
    /// admission order.
    pub fn active_requests(&self) -> impl Iterator<Item = (RequestId, TenantId)> + '_ {
        self.active
            .iter()
            .map(|(r, tenant)| (r.record.request, *tenant))
    }

    /// Validates the scheduler's cross-structure invariants: every
    /// active record's tenant is resident in the pool with the recorded
    /// NeuroCell footprint, and no request id appears in more than one
    /// of queue / active set / completed log. Cheap (linear in the
    /// request population); a healthy scheduler always returns `Ok`.
    ///
    /// # Errors
    ///
    /// The first [`ScheduleError`] violation found, if any.
    pub fn check_consistency(&self) -> Result<(), ScheduleError> {
        for (r, tenant) in &self.active {
            match self.pool.tenant(*tenant) {
                Some(t) if t.nc_count() == r.record.ncs => {}
                _ => {
                    return Err(ScheduleError::TenantNotResident {
                        request: r.record.request,
                        tenant: *tenant,
                    })
                }
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        let completed = self.completed.iter().map(|r| r.request);
        let active = self.active_requests().map(|(request, _)| request);
        for request in self.queued_requests().chain(active).chain(completed) {
            if !seen.insert(request) {
                return Err(ScheduleError::DuplicateRequest { request });
            }
        }
        Ok(())
    }

    /// Submits a request: the network is mapped once per size class of
    /// the pool, exactly as [`FabricPool::admit`] probes it, and queued
    /// FIFO with every class's probe for `service_rounds` replay rounds
    /// at bus-arbitration weight `weight`. Admission happens in
    /// [`begin_round`](Self::begin_round), into the first class in
    /// greedy order (smallest NC footprint, ties to the smaller
    /// crossbar) that has room; a request submitted before a round
    /// begins can be admitted into that same round (wait 0).
    ///
    /// # Errors
    ///
    /// [`MapError`] if no size class can map the network. A network
    /// too large for every class of the pool maps fine but is retired as
    /// [aborted](ServiceRecord::aborted) at the next
    /// [`begin_round`](Self::begin_round); size requests with
    /// [`FabricPool::physical_ncs`] in mind.
    ///
    /// # Panics
    ///
    /// Panics if `service_rounds` or `weight` is zero.
    pub fn submit(
        &mut self,
        network: &Network,
        name: &str,
        service_rounds: usize,
        weight: u32,
    ) -> Result<RequestId, MapError> {
        let (preferred, others) = self
            .pool
            .class_probes(|mapper| mapper.map_network(network))?;
        Ok(self.enqueue(preferred, others, name, service_rounds, weight))
    }

    /// Submits an already-mapped probe (produced against the pool's
    /// [`class_config`](FabricPool::class_config) for its size class);
    /// the request is admitted in that class only. Callers that already
    /// sized a request (e.g. `resparc_workloads::churn_sweep` validating
    /// footprints up front) use this to avoid partitioning the same
    /// network twice.
    ///
    /// # Panics
    ///
    /// Panics if `service_rounds` or `weight` is zero.
    pub fn submit_mapped(
        &mut self,
        probe: Mapping,
        name: &str,
        service_rounds: usize,
        weight: u32,
    ) -> RequestId {
        self.enqueue(probe, Vec::new(), name, service_rounds, weight)
    }

    /// The queueing core [`submit`](Self::submit) and
    /// [`submit_mapped`](Self::submit_mapped) share: `preferred` and
    /// `others` are the request's probes in greedy class order.
    fn enqueue(
        &mut self,
        preferred: Mapping,
        others: Vec<Mapping>,
        name: &str,
        service_rounds: usize,
        weight: u32,
    ) -> RequestId {
        assert!(
            service_rounds > 0,
            "a request must serve at least one round"
        );
        assert!(weight > 0, "arbitration weights must be positive");
        let request = RequestId(self.next_request);
        self.next_request += 1;
        let record = ServiceRecord {
            request,
            name: name.to_string(),
            ncs: footprint(&preferred).0,
            weight,
            submitted_round: self.round,
            admitted_round: self.round,
            departed_round: None,
            rounds_served: 0,
            interruptions: 0,
            recovery_rounds: 0,
            aborted: false,
        };
        self.queue.push_back(Request {
            record,
            service_rounds,
            interrupted_round: 0,
            probes: std::iter::once(preferred).chain(others).collect(),
        });
        request
    }

    /// Marks NeuroCell `nc` permanently [`Failed`](crate::fabric::NcHealth::Failed)
    /// via [`FabricPool::fail_nc`]. If the cell was occupied by a
    /// scheduled tenant, that request is evicted and re-queued at the
    /// **head** of the queue for re-admission (returning its id): its
    /// in-flight round is voided, its completed service rounds are kept,
    /// and [`ServiceRecord::interruptions`] /
    /// [`ServiceRecord::recovery_rounds`] account the disruption.
    /// Returns `None` when the cell was free (or held a non-scheduled
    /// static resident, which is simply evicted).
    pub fn fail_nc(&mut self, nc: usize) -> Option<RequestId> {
        let evicted = self.pool.fail_nc(nc);
        self.requeue_interrupted(evicted)
    }

    /// Quarantines NeuroCell `nc` via [`FabricPool::drain_nc`] —
    /// identical to [`fail_nc`](Self::fail_nc) for the occupant (evicted
    /// and re-queued at the head), but the cell is restorable with
    /// [`restore_nc`](Self::restore_nc).
    pub fn drain_nc(&mut self, nc: usize) -> Option<RequestId> {
        let evicted = self.pool.drain_nc(nc);
        self.requeue_interrupted(evicted)
    }

    /// Returns a quarantined NeuroCell to service
    /// ([`FabricPool::restore_nc`]); `true` if the cell transitioned
    /// back to healthy.
    pub fn restore_nc(&mut self, nc: usize) -> bool {
        self.pool.restore_nc(nc)
    }

    /// Moves a fault-evicted tenant back to the queue head, carrying its
    /// service progress; its mapping rejoins its other classes' probes
    /// in greedy order. Non-scheduled tenants (admitted directly on the
    /// pool before scheduling started) have no request to recover.
    fn requeue_interrupted(&mut self, evicted: Option<crate::fabric::Tenant>) -> Option<RequestId> {
        let evicted = evicted?;
        let at = self.active.iter().position(|(_, t)| *t == evicted.id)?;
        let (mut request, _) = self.active.remove(at);
        request.record.interruptions += 1;
        request.interrupted_round = self.round;
        request.probes.push(evicted.mapping);
        request.probes.sort_by_key(footprint);
        let id = request.record.request;
        self.queue.push_front(request);
        Some(id)
    }

    /// Opens the next round: admits queued requests from the head while
    /// the pool's policy finds capacity in one of the request's classes
    /// (stopping at the first that does not fit — strict FIFO), then
    /// returns every resident tenant the caller should replay this
    /// round, in admission order.
    ///
    /// A head request wider, in every class it was mapped for, than
    /// the pool's largest **healthy** segment of that class
    /// ([`FabricPool::max_admissible_run_for`] — on a heterogeneous
    /// pool a long healthy run of the *wrong* class is not servable
    /// capacity) can never be admitted, not even by compaction on an
    /// otherwise-empty pool — it is retired immediately as an
    /// [aborted](ServiceRecord::aborted) record rather than
    /// head-of-line-blocking the queue forever. Fault-evicted requests
    /// re-admitted here resume at their recorded
    /// [`ScheduledTenant::rounds_served`] presentation.
    pub fn begin_round(&mut self) -> Vec<ScheduledTenant> {
        while let Some(head) = self.queue.front() {
            let fit = self.fit(head);
            if matches!(fit, Fit::Later) {
                break;
            }
            let Some(head) = self.queue.pop_front() else {
                break;
            };
            match fit {
                Fit::Now(probe) => self.admit(head, probe),
                Fit::Later | Fit::Never => self.retire(head, None),
            }
        }
        // The head (if any) is now blocked on capacity. Track how long
        // it has been *this* head waiting — the starvation clock — and
        // backfill behind it only while the window is open.
        match self.queue.front() {
            None => self.blocked_head = None,
            Some(head) => {
                let request = head.record.request;
                let since = match self.blocked_head {
                    Some((req, since)) if req == request => since,
                    _ => self.round,
                };
                self.blocked_head = Some((request, since));
                if self.backfill_window.is_some_and(|w| self.round - since < w) {
                    // FIFO scan of the queue behind the head, admitting
                    // whatever fits right now. Unservable requests are
                    // skipped, never aborted here: aborting stays a
                    // head-only decision so the blocked head keeps its
                    // place and records retire in FIFO order.
                    let mut i = 1;
                    while i < self.queue.len() {
                        if let Fit::Now(probe) = self.fit(&self.queue[i]) {
                            match self.queue.remove(i) {
                                Some(request) => self.admit(request, probe),
                                None => break,
                            }
                        } else {
                            i += 1;
                        }
                    }
                }
            }
        }
        self.active
            .iter()
            .map(|(r, tenant)| ScheduledTenant {
                request: r.record.request,
                tenant: *tenant,
                name: r.record.name.clone(),
                weight: r.record.weight,
                rounds_served: r.record.rounds_served,
            })
            .collect()
    }

    /// The first of `request`'s probes the pool can admit now, in
    /// greedy class order, or whether any class could ever serve it.
    fn fit(&self, request: &Request) -> Fit {
        let mut fit = Fit::Never;
        for (i, probe) in request.probes.iter().enumerate() {
            let (needed, class) = footprint(probe);
            if needed <= self.pool.max_admissible_run_for(class) {
                if self.pool.can_admit_sized(needed, class) {
                    return Fit::Now(i);
                }
                fit = Fit::Later;
            }
        }
        fit
    }

    /// Admits one queued request into the pool with its probe at index
    /// `probe` (capacity was probed by the caller) and activates it for
    /// this round. Should the pool refuse despite the probe — a
    /// probe/allocator disagreement that would be a bug — the request is
    /// retired as aborted rather than panicking or silently dropping it
    /// (the request-conservation invariant the `resparc-analysis` model
    /// checker asserts).
    fn admit(&mut self, mut request: Request, probe: usize) {
        let probe = request.probes.remove(probe);
        let (ncs, _) = footprint(&probe);
        match self.pool.admit_mapped(probe, &request.record.name) {
            Ok(tenant) => {
                request.record.ncs = ncs;
                if request.record.interruptions == 0 {
                    request.record.admitted_round = self.round;
                } else {
                    request.record.recovery_rounds += self.round - request.interrupted_round;
                }
                self.active.push((request, tenant));
            }
            Err(_) => {
                debug_assert!(false, "can_admit_sized probed this admission");
                self.retire(request, None);
            }
        }
    }

    /// Every departure, logged in the current round: completion,
    /// cancellation (active or queued), abort of an unservable head and
    /// allocator refusal. A resident request (`tenant` set) is evicted
    /// from the pool; a queued one that never ran records this round as
    /// its admission. A request retires complete only once it has served
    /// every round it asked for — any earlier departure is an abort.
    fn retire(&mut self, mut request: Request, tenant: Option<TenantId>) {
        match tenant {
            Some(tenant) => {
                let evicted = self.pool.evict(tenant);
                debug_assert!(evicted.is_some(), "active tenant was resident");
            }
            None if request.record.interruptions == 0 => {
                request.record.admitted_round = self.round;
            }
            None => {}
        }
        let record = &mut request.record;
        record.departed_round = Some(self.round);
        record.aborted = record.rounds_served < request.service_rounds;
        self.completed.push(request.record);
    }

    /// Cancels a request wherever it currently is — the preemption hook
    /// serving layers use to evict over-budget work. An **active**
    /// request is evicted from the pool immediately (its NC run frees
    /// for the next round's admissions; service credit for an in-flight
    /// round is forfeit); a **queued** request is removed from the
    /// queue. Either way the request retires as an
    /// [aborted](ServiceRecord::aborted) record in the current round,
    /// keeping whatever service it already earned. Returns `false` if
    /// no such request is queued or active (e.g. it already departed).
    pub fn cancel(&mut self, request: RequestId) -> bool {
        let active = self.active_requests().position(|(r, _)| r == request);
        if let Some(at) = active {
            let (r, tenant) = self.active.remove(at);
            self.retire(r, Some(tenant));
            return true;
        }
        let queued = self.queued_requests().position(|r| r == request);
        match queued.and_then(|at| self.queue.remove(at)) {
            Some(r) => {
                self.retire(r, None);
                true
            }
            None => false,
        }
    }

    /// Closes the round: every resident retires one service round,
    /// requests whose service completed are evicted (their NC runs are
    /// free for the next round's admissions) and logged, and the round
    /// counter advances.
    pub fn end_round(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            let request = &mut self.active[i].0;
            request.record.rounds_served += 1;
            if request.record.rounds_served == request.service_rounds {
                let (done, tenant) = self.active.remove(i);
                self.retire(done, Some(tenant));
            } else {
                i += 1;
            }
        }
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResparcConfig;
    use crate::fabric::PackingPolicy;
    use resparc_neuro::topology::Topology;

    fn net(seed: u64, hiddens: &[usize]) -> Network {
        Network::random(Topology::mlp(144, hiddens), seed, 1.0)
    }

    /// 2 NCs on RESPARC-64 (see `pool::tests::sized_topologies_*`).
    fn two_nc_net(seed: u64) -> Network {
        net(seed, &[576, 576, 10])
    }

    #[test]
    fn admits_immediately_when_capacity_allows() {
        let mut sched = FabricScheduler::new(FabricPool::new(ResparcConfig::resparc_64()));
        let a = sched.submit(&net(1, &[96, 10]), "a", 2, 1).unwrap();
        let b = sched.submit(&net(2, &[96, 10]), "b", 1, 3).unwrap();
        assert_ne!(a, b);

        let round0 = sched.begin_round();
        assert_eq!(round0.len(), 2);
        assert_eq!(round0[0].request, a);
        assert_eq!(round0[0].weight, 1);
        assert_eq!(round0[1].weight, 3);
        assert_eq!(sched.queue_len(), 0);
        sched.end_round();

        // b's single service round is done; a serves one more.
        let round1 = sched.begin_round();
        assert_eq!(round1.len(), 1);
        assert_eq!(round1[0].request, a);
        assert_eq!(round1[0].rounds_served, 1);
        sched.end_round();
        assert!(sched.is_idle());

        let records = sched.completed();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].request, b);
        assert_eq!(records[0].departed_round, Some(0));
        assert_eq!(records[0].wait_rounds(), 0);
        assert_eq!(records[1].request, a);
        assert_eq!(records[1].departed_round, Some(1));
        assert_eq!(records[1].rounds_served, 2);
    }

    #[test]
    fn queues_fifo_and_backfills_on_departure() {
        // 16-NC pool; four 5-NC requests: three fit (15 NCs), the
        // fourth waits for the first departure.
        let five_nc = |seed| net(seed, &[576, 576, 576, 576, 10]);
        let mut sched = FabricScheduler::new(FabricPool::new(ResparcConfig::resparc_64()));
        let ids: Vec<RequestId> = (0..4)
            .map(|i| {
                sched
                    .submit(&five_nc(i), &format!("t{i}"), if i == 0 { 1 } else { 3 }, 1)
                    .unwrap()
            })
            .collect();

        let round0 = sched.begin_round();
        assert_eq!(round0.len(), 3, "three 5-NC tenants fill 15 of 16 NCs");
        assert_eq!(sched.queue_len(), 1);
        sched.end_round(); // t0 (1 service round) departs

        let round1 = sched.begin_round();
        assert_eq!(round1.len(), 3, "t3 backfills t0's freed run");
        assert!(round1.iter().any(|t| t.request == ids[3]));
        sched.end_round();

        // Drain the rest.
        while !sched.is_idle() {
            sched.begin_round();
            sched.end_round();
        }
        let t3 = sched
            .completed()
            .iter()
            .find(|r| r.request == ids[3])
            .unwrap();
        assert_eq!(t3.submitted_round, 0);
        assert_eq!(t3.admitted_round, 1);
        assert_eq!(t3.wait_rounds(), 1);
        assert_eq!(t3.ncs, 5);
    }

    #[test]
    fn defragmenting_scheduler_admits_through_fragmentation() {
        // Eight 2-NC residents fill the 16-NC pool; #0 and #2 depart
        // after round 0, leaving two 2-NC holes. A queued 4-NC request
        // needs compaction: the first-fit scheduler keeps it waiting,
        // the defragmenting one admits it in round 1.
        let run = |policy: PackingPolicy| {
            let pool = FabricPool::new(ResparcConfig::resparc_64()).with_policy(policy);
            let mut sched = FabricScheduler::new(pool);
            for i in 0..8u64 {
                let rounds = if i == 0 || i == 2 { 1 } else { 4 };
                sched
                    .submit(&two_nc_net(i), &format!("t{i}"), rounds, 1)
                    .unwrap();
            }
            let wide = net(9, &[576, 576, 576, 10]); // 4 NCs
            let wide_id = sched.submit(&wide, "wide", 1, 1).unwrap();
            assert_eq!(sched.begin_round().len(), 8);
            sched.end_round();
            let round1: Vec<RequestId> = sched.begin_round().iter().map(|t| t.request).collect();
            (round1.contains(&wide_id), sched.pool().utilization())
        };

        let (admitted, util) = run(PackingPolicy::Defragment);
        assert!(
            admitted,
            "defragmentation must make room for the wide tenant"
        );
        assert!(util > 0.8, "utilization {util}");
        let (admitted, _) = run(PackingPolicy::FirstFit);
        assert!(!admitted, "first-fit cannot admit through fragmentation");
    }

    #[test]
    fn head_of_line_blocking_is_strictly_fifo() {
        // A wide request at the queue head must not be overtaken by a
        // narrow one behind it, even though the narrow one would fit.
        let mut sched = FabricScheduler::new(FabricPool::new(ResparcConfig::resparc_64()));
        for i in 0..8u64 {
            sched
                .submit(&two_nc_net(i), &format!("t{i}"), 2, 1)
                .unwrap();
        }
        let wide = sched
            .submit(&net(9, &[576, 576, 576, 576, 10]), "wide", 1, 1)
            .unwrap();
        let narrow = sched.submit(&net(10, &[96, 10]), "narrow", 1, 1).unwrap();

        // All eight 2-NC tenants fit (16/16 NCs); the 5-NC head of the
        // remaining queue does not, and the 1-NC request behind it must
        // not jump the line.
        let round0: Vec<RequestId> = sched.begin_round().iter().map(|t| t.request).collect();
        assert_eq!(round0.len(), 8);
        assert!(!round0.contains(&wide));
        assert!(
            !round0.contains(&narrow),
            "narrow must wait behind the wide head-of-line request"
        );
    }

    #[test]
    fn a_requeued_tenant_readmits_on_the_probes_tiles() {
        use crate::map::Mapper;
        use std::sync::Arc;
        let probe = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net(1, &[576, 10]))
            .unwrap();
        let shares = |sched: &FabricScheduler| {
            let tenants = sched.pool().tenants();
            tenants.len() == 1 && Arc::ptr_eq(&tenants[0].mapping.partitions, &probe.partitions)
        };
        let mut sched = FabricScheduler::new(FabricPool::new(ResparcConfig::resparc_64()));
        let a = sched.submit_mapped(probe.clone(), "a", 2, 1);
        sched.begin_round();
        assert!(shares(&sched));
        let victim_nc = sched.pool().tenants()[0].first_nc();
        assert_eq!(sched.fail_nc(victim_nc), Some(a));
        sched.end_round();
        sched.begin_round();
        assert!(
            sched.pool().tenants()[0].first_nc() > victim_nc,
            "moved off the dead cell"
        );
        assert!(shares(&sched));
        while !sched.is_idle() {
            sched.end_round();
            sched.begin_round();
        }
        assert!(!sched.completed()[0].aborted);
        assert_eq!(
            Arc::strong_count(&probe.partitions),
            1,
            "no copy left behind"
        );
    }

    #[test]
    fn mid_replay_failure_requeues_and_recovers() {
        // Two 5-NC tenants serving 3 rounds each; NC 0 (inside a's run)
        // fails mid-round 0. a is evicted with its in-flight round
        // voided, re-queued at the head, re-admitted in round 1 on the
        // remaining healthy run, and still completes all 3 rounds.
        let five_nc = |seed| net(seed, &[576, 576, 576, 576, 10]);
        let mut sched = FabricScheduler::new(FabricPool::new(ResparcConfig::resparc_64()));
        let a = sched.submit(&five_nc(1), "a", 3, 1).unwrap();
        let b = sched.submit(&five_nc(2), "b", 3, 1).unwrap();

        assert_eq!(sched.begin_round().len(), 2);
        let victim_nc = sched.pool().tenants()[0].first_nc();
        assert_eq!(sched.fail_nc(victim_nc), Some(a), "a occupied NC 0");
        assert_eq!(sched.queue_len(), 1);
        sched.end_round(); // only b earns credit for round 0

        let round1 = sched.begin_round();
        assert_eq!(round1.len(), 2, "a re-admitted beside b");
        let ra = round1.iter().find(|t| t.request == a).unwrap();
        assert_eq!(ra.rounds_served, 0, "the interrupted round was voided");
        let ta = sched.pool().tenant(ra.tenant).unwrap();
        assert!(ta.first_nc() > victim_nc, "remapped off the dead cell");

        while !sched.is_idle() {
            sched.begin_round();
            sched.end_round();
        }
        let rec = |id| {
            sched
                .completed()
                .iter()
                .find(|r| r.request == id)
                .unwrap()
                .clone()
        };
        let (rec_a, rec_b) = (rec(a), rec(b));
        assert_eq!(rec_b.departed_round, Some(2));
        assert_eq!((rec_b.interruptions, rec_b.recovery_rounds), (0, 0));
        assert!(!rec_b.aborted);
        assert_eq!(rec_a.rounds_served, 3, "full service despite the fault");
        assert_eq!(rec_a.departed_round, Some(3), "one round lost to recovery");
        assert_eq!(rec_a.admitted_round, 0, "first admission is kept");
        assert_eq!(rec_a.interruptions, 1);
        assert_eq!(rec_a.recovery_rounds, 1);
        assert!(!rec_a.aborted);
    }

    #[test]
    fn drain_requeues_and_restore_reopens_the_cell() {
        let mut sched = FabricScheduler::new(FabricPool::new(ResparcConfig::resparc_64()));
        let a = sched.submit(&two_nc_net(1), "a", 2, 1).unwrap();
        assert_eq!(sched.begin_round().len(), 1);
        let nc = sched.pool().tenants()[0].first_nc();

        assert_eq!(sched.drain_nc(nc), Some(a));
        assert_eq!(sched.pool().quarantined_ncs(), 1);
        assert!(sched.restore_nc(nc));
        assert_eq!(sched.pool().quarantined_ncs(), 0);
        sched.end_round();

        // Fully-healthy pool again: a resumes and completes.
        assert_eq!(sched.begin_round().len(), 1);
        sched.end_round();
        sched.begin_round();
        sched.end_round();
        assert!(sched.is_idle());
        let rec = &sched.completed()[0];
        assert_eq!(rec.rounds_served, 2);
        assert_eq!(rec.interruptions, 1);

        // Faulting a free cell interrupts nobody.
        assert_eq!(sched.fail_nc(15), None);
    }

    #[test]
    fn backfill_admits_behind_a_blocked_head_within_the_window() {
        // Same shape as `head_of_line_blocking_is_strictly_fifo`, but
        // with backfilling: the 1-NC request behind the blocked 5-NC
        // head IS admitted, while the head keeps its place and admits
        // first once capacity frees.
        let pool = FabricPool::new(ResparcConfig::resparc_64());
        let mut sched = FabricScheduler::new(pool).with_backfill(4);
        assert_eq!(sched.backfill_window(), Some(4));
        for i in 0..7u64 {
            sched
                .submit(&two_nc_net(i), &format!("t{i}"), 2, 1)
                .unwrap();
        }
        let wide = sched
            .submit(&net(9, &[576, 576, 576, 576, 10]), "wide", 2, 1)
            .unwrap();
        let narrow = sched.submit(&net(10, &[96, 10]), "narrow", 1, 1).unwrap();

        // Seven 2-NC tenants leave 2 free NCs: the 5-NC head blocks,
        // the 1-NC request backfills into the hole.
        let round0: Vec<RequestId> = sched.begin_round().iter().map(|t| t.request).collect();
        assert_eq!(round0.len(), 8);
        assert!(!round0.contains(&wide));
        assert!(round0.contains(&narrow), "narrow backfills the free hole");
        sched.end_round();

        // Round 1: everyone departs at its end; round 2 admits the head.
        sched.begin_round();
        sched.end_round();
        let round2: Vec<RequestId> = sched.begin_round().iter().map(|t| t.request).collect();
        assert_eq!(round2, vec![wide], "the head admits first after the drain");
    }

    #[test]
    fn backfill_window_bounds_head_starvation() {
        // An adversarial open-loop stream: six long 2-NC residents pin
        // 12 NCs, and two fresh 2-NC, 1-round requests arrive every
        // round — enough to keep the 4 free NCs perpetually backfilled.
        // Under an *unbounded* backfill the 5-NC head would starve
        // forever (free capacity never reaches 5 at a round boundary).
        // The window of 3 closes backfilling after round 2; the long
        // residents drain by the end of round 3; the head admits in
        // round 4 = window + residual service, the documented bound.
        let pool = FabricPool::new(ResparcConfig::resparc_64());
        let mut sched = FabricScheduler::new(pool).with_backfill(3);
        for i in 0..6u64 {
            sched
                .submit(&two_nc_net(i), &format!("fill{i}"), 4, 1)
                .unwrap();
        }
        let wide = sched
            .submit(&net(99, &[576, 576, 576, 576, 10]), "wide", 1, 1)
            .unwrap();
        let mut admitted_round = None;
        let mut backfilled_rounds = 0usize;
        for round in 0..32usize {
            for k in 0..2u64 {
                sched
                    .submit(
                        &two_nc_net(100 + 2 * round as u64 + k),
                        &format!("s{round}.{k}"),
                        1,
                        1,
                    )
                    .unwrap();
            }
            let residents = sched.begin_round();
            if residents.iter().any(|t| t.request == wide) {
                admitted_round = Some(round);
                break;
            }
            if residents.iter().any(|t| t.name.starts_with('s')) {
                backfilled_rounds += 1;
            }
            sched.end_round();
        }
        let admitted = admitted_round.expect("the wide head must not starve");
        assert_eq!(
            backfilled_rounds, 3,
            "adversary requests overtake the head exactly while the window is open"
        );
        assert_eq!(
            admitted, 4,
            "head admits at window (3) + residual drain (1), not later"
        );
    }

    #[test]
    fn aborted_head_does_not_disturb_backfill() {
        // Regression for the PR-6 abort path interacting with backfill.
        // NCs 4, 9 and 14 are dead (largest healthy segment: 4 NCs), so
        // a 5-NC request is permanently unservable. While it sits
        // *behind* a blocked-but-servable head, backfill scans must
        // skip it — never abort it (aborting is a head-only decision) —
        // while still admitting servable requests around it; it aborts
        // only once it reaches the head itself.
        let pool = FabricPool::new(ResparcConfig::resparc_64());
        let mut sched = FabricScheduler::new(pool).with_backfill(4);
        for nc in [4, 9, 14] {
            assert_eq!(sched.fail_nc(nc), None);
        }
        // Five 2-NC fillers leave holes of 2+1 NCs; the 4-NC head
        // blocks; behind it queue the unservable 5-NC request and a
        // servable 2-NC one.
        let fillers: Vec<RequestId> = (0..5)
            .map(|i| {
                sched
                    .submit(&two_nc_net(i), &format!("fill{i}"), 2, 1)
                    .unwrap()
            })
            .collect();
        let blocked = sched
            .submit(&net(20, &[576, 576, 576, 10]), "blocked4", 1, 1)
            .unwrap();
        let unservable = sched
            .submit(&net(21, &[576, 576, 576, 576, 10]), "unservable5", 1, 1)
            .unwrap();
        let small = sched.submit(&two_nc_net(22), "small", 1, 1).unwrap();

        // Round 0: fillers admit, `blocked4` blocks (no 4-wide healthy
        // hole left), the backfill scan skips `unservable5` and admits
        // `small` behind it. Nothing has aborted yet.
        let round0: Vec<RequestId> = sched.begin_round().iter().map(|t| t.request).collect();
        assert!(fillers.iter().all(|f| round0.contains(f)));
        assert!(!round0.contains(&blocked));
        assert!(
            round0.contains(&small),
            "small backfills past the unservable"
        );
        assert!(
            sched.completed().is_empty(),
            "the unservable request must not be aborted from mid-queue"
        );
        sched.end_round();

        // Round 1: still blocked, nothing to backfill. Round 2: the
        // fillers drained, the head admits, and the unservable request
        // — now the head — aborts.
        sched.begin_round();
        sched.end_round();
        let round2: Vec<RequestId> = sched.begin_round().iter().map(|t| t.request).collect();
        assert_eq!(round2, vec![blocked]);
        let aborted: Vec<&ServiceRecord> = sched.completed().iter().filter(|r| r.aborted).collect();
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].request, unservable);
        assert_eq!(aborted[0].departed_round, Some(2));

        // Drain: nobody is left behind.
        while !sched.is_idle() {
            sched.begin_round();
            sched.end_round();
        }
        assert_eq!(sched.completed().len(), 8);
        assert!(sched
            .completed()
            .iter()
            .filter(|r| r.request != unservable)
            .all(|r| !r.aborted && r.rounds_served > 0));
    }

    #[test]
    fn cancel_preempts_active_and_queued_requests() {
        let mut sched = FabricScheduler::new(FabricPool::new(ResparcConfig::resparc_64()));
        let a = sched.submit(&two_nc_net(1), "a", 4, 1).unwrap();
        let b = sched.submit(&two_nc_net(2), "b", 4, 1).unwrap();
        assert_eq!(sched.begin_round().len(), 2);
        sched.end_round();
        sched.begin_round();
        sched.end_round();

        // a is mid-service (2 of 4 rounds): cancel evicts it now.
        assert!(sched.cancel(a));
        assert_eq!(sched.pool().occupied_ncs(), 2, "a's NCs freed");
        let rec_a = sched
            .completed()
            .iter()
            .find(|r| r.request == a)
            .expect("cancelled requests retire immediately");
        assert!(rec_a.aborted);
        assert_eq!(rec_a.rounds_served, 2, "earned service is kept");
        assert_eq!(rec_a.departed_round, Some(2));

        // A queued request cancels without ever running.
        let c = sched.submit(&two_nc_net(3), "c", 4, 1).unwrap();
        assert!(sched.cancel(c));
        assert_eq!(sched.queue_len(), 0);
        let rec_c = sched.completed().iter().find(|r| r.request == c).unwrap();
        assert!(rec_c.aborted);
        assert_eq!(rec_c.rounds_served, 0);

        // Unknown / already-departed requests: no-op.
        assert!(!sched.cancel(a));
        while !sched.is_idle() {
            sched.begin_round();
            sched.end_round();
        }
        assert!(!sched.cancel(b), "b departed normally");
        let rec_b = sched.completed().iter().find(|r| r.request == b).unwrap();
        assert!(!rec_b.aborted);
        assert_eq!(rec_b.rounds_served, 4);
    }

    #[test]
    fn unservable_class_requests_abort_on_heterogeneous_pools() {
        // Regression for the class-blind servability probe: the two
        // 32-class cells form a contiguous healthy run of 2, but that
        // is no capacity at all for a 2-NC 64-class request — the
        // scheduler must judge servability per class and abort it
        // instead of blocking the queue forever.
        use crate::fabric::FabricPool;
        let pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[32, 32, 64]);
        let probe64 = crate::map::Mapper::new(pool.class_config(64))
            .map(&Topology::mlp(144, &[576, 576, 10]))
            .unwrap();
        assert_eq!(probe64.placement.ncs_used, 2);
        assert_eq!(pool.max_admissible_run_for(32), 2, "two 32-class cells");
        assert_eq!(pool.max_admissible_run_for(64), 1, "but none of it is 64");
        let probe32 = crate::map::Mapper::new(pool.class_config(32))
            .map(&Topology::mlp(96, &[64, 10]))
            .unwrap();
        assert_eq!(probe32.placement.ncs_used, 1);

        let mut sched = FabricScheduler::new(pool);
        let wide = sched.submit_mapped(probe64, "wide64", 1, 1);
        let narrow = sched.submit_mapped(probe32, "narrow32", 1, 1);
        let round0 = sched.begin_round();
        assert_eq!(round0.len(), 1);
        assert_eq!(round0[0].request, narrow);
        let rec = &sched.completed()[0];
        assert_eq!(rec.request, wide);
        assert!(rec.aborted);
        sched.end_round();
        assert!(sched.is_idle());
    }

    #[test]
    fn submit_queues_the_class_a_mixed_pool_can_serve() {
        // The inventory has no cell of the base class (64). `submit`
        // must queue the class `FabricPool::admit` prefers, the 32-class
        // pair, so the request runs in round 0 instead of aborting.
        let pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[32, 32, 128, 128]);
        let network = Network::random(Topology::mlp(96, &[64, 10]), 7, 1.0);
        let mut direct = pool.clone();
        let id = direct.admit(&network, "direct").unwrap();
        assert_eq!(direct.tenant(id).unwrap().mapping.config.mca_size, 32);

        let mut sched = FabricScheduler::new(pool);
        let request = sched.submit(&network, "queued", 1, 1).unwrap();
        let round0 = sched.begin_round();
        assert_eq!(round0.len(), 1, "admitted in round 0");
        assert_eq!(round0[0].request, request);
        let tenant = sched.pool().tenant(round0[0].tenant).unwrap();
        assert_eq!(tenant.mapping.config.mca_size, 32);
        assert!(sched.completed().is_empty(), "nothing aborted");
        sched.end_round();
        assert!(!sched.completed()[0].aborted);
    }

    /// One 32-class cell beside three 64-class cells.
    fn one_small_cell_pool() -> FabricPool {
        FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[32, 64, 64, 64])
    }

    /// 1 NC in either class of [`one_small_cell_pool`]; the footprint
    /// tie prefers class 32.
    fn tiny(seed: u64) -> Network {
        Network::random(Topology::mlp(96, &[64, 10]), seed, 1.0)
    }

    fn class_of(sched: &FabricScheduler, t: &ScheduledTenant) -> usize {
        sched
            .pool()
            .tenant(t.tenant)
            .unwrap()
            .mapping
            .config
            .mca_size
    }

    #[test]
    fn submit_runs_in_another_class_when_the_preferred_one_is_dead() {
        // The 32-class cell is dead before the request arrives: it must
        // run at class 64 in round 0, as `FabricPool::admit` places it.
        let mut sched = FabricScheduler::new(one_small_cell_pool());
        assert_eq!(sched.fail_nc(0), None);
        let r = sched.submit(&tiny(1), "r", 1, 1).unwrap();
        let round0 = sched.begin_round();
        assert_eq!(round0.len(), 1, "admitted in round 0");
        assert_eq!(round0[0].request, r);
        assert_eq!(class_of(&sched, &round0[0]), 64);
        assert!(sched.completed().is_empty(), "nothing aborted");
    }

    #[test]
    fn queued_requests_fall_through_to_a_class_with_room() {
        // The 32-class cell is taken: the second request runs beside the
        // first at class 64. When that cell then fails, its tenant
        // resumes at class 64 instead of aborting.
        let mut sched = FabricScheduler::new(one_small_cell_pool());
        let a = sched.submit(&tiny(1), "a", 2, 1).unwrap();
        let b = sched.submit(&tiny(2), "b", 2, 1).unwrap();
        let round0 = sched.begin_round();
        let classes: Vec<usize> = round0.iter().map(|t| class_of(&sched, t)).collect();
        assert_eq!(classes, vec![32, 64]);
        assert_eq!(sched.fail_nc(0), Some(a));
        sched.end_round();
        let round1 = sched.begin_round();
        assert_eq!(round1.len(), 2, "a recovered beside b");
        let ra = round1.iter().find(|t| t.request == a).unwrap();
        assert_eq!(class_of(&sched, ra), 64);
        assert_eq!(sched.check_consistency(), Ok(()));
        while !sched.is_idle() {
            sched.begin_round();
            sched.end_round();
        }
        assert!(sched.completed().iter().all(|r| !r.aborted));
        assert!(sched.completed().iter().any(|r| r.request == b));
    }

    #[test]
    fn fallback_class_admission_records_its_footprint() {
        // The request needs 1 NC at class 64 and more at class 32. With
        // the lone 64-class cell taken it falls through to class 32, and
        // its record must carry the footprint it actually occupies.
        let pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[32, 32, 32, 32, 64]);
        let network = net(3, &[576, 10]);
        let mut sched = FabricScheduler::new(pool);
        let first = sched.submit(&network, "first", 2, 1).unwrap();
        let second = sched.submit(&network, "second", 1, 1).unwrap();
        assert_eq!(sched.begin_round().len(), 2);
        assert_eq!(sched.check_consistency(), Ok(()));
        let ncs: Vec<usize> = sched
            .active_requests()
            .map(|(_, t)| sched.pool().tenant(t).unwrap().nc_count())
            .collect();
        assert_eq!(ncs[0], 1, "first takes the 64-class cell");
        assert!(ncs[1] > 1, "second spans several 32-class cells");
        sched.end_round();
        let rec = sched
            .completed()
            .iter()
            .find(|r| r.request == second)
            .unwrap();
        assert_eq!(rec.ncs, ncs[1]);
        assert!(sched.active_requests().any(|(r, _)| r == first));
    }

    #[test]
    fn unservable_requests_abort_instead_of_blocking() {
        // Kill NCs 4, 9 and 14: the largest healthy segment is 4 wide,
        // so a 5-NC request can never run — it must retire as aborted
        // and let the 2-NC request behind it through.
        let mut sched = FabricScheduler::new(FabricPool::new(ResparcConfig::resparc_64()));
        for nc in [4, 9, 14] {
            assert_eq!(sched.fail_nc(nc), None);
        }
        let wide = sched
            .submit(&net(1, &[576, 576, 576, 576, 10]), "wide", 1, 1)
            .unwrap();
        let narrow = sched.submit(&two_nc_net(2), "narrow", 1, 1).unwrap();

        let round0 = sched.begin_round();
        assert_eq!(round0.len(), 1);
        assert_eq!(round0[0].request, narrow);
        let rec = &sched.completed()[0];
        assert_eq!(rec.request, wide);
        assert!(rec.aborted);
        assert_eq!(rec.rounds_served, 0);
        assert_eq!(rec.departed_round, Some(0));
        sched.end_round();
        assert!(sched.is_idle());
    }
}
