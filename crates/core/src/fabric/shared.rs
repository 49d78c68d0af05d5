//! Interleaved shared-fabric replay with weighted bus arbitration.
//!
//! The interleave model, per timestep: tenants occupy disjoint NC runs,
//! so their compute phases and switch traffic proceed concurrently and
//! the step pays the **maximum** of the tenants' local cycles; the
//! global bus and input SRAM are shared and serialise, so the step pays
//! the **sum** of every tenant's bus transactions on top. The bus is
//! work-conserving — the summed cycles (and therefore the makespan, the
//! ledger and every aggregate of [`SharedReport`]) are the same whatever
//! the arbitration order — but *who waits* is not: weighted round-robin
//! grants each tenant its weight in bus cycles per round, and the report
//! carries each tenant's
//! [`bus_stall_cycles`](TenantReport::bus_stall_cycles) (cycles its
//! transactions queued behind other tenants) and perceived
//! [`latency`](TenantReport::latency). Weights are ratios: they are
//! normalised by their gcd, so `[2, 2]` is the same fair arbitration as
//! `[1, 1]`, and any single-tenant replay reproduces the dedicated-fabric
//! [`EventSimulator`] bit-identically.
//!
//! A shared round has two parts. Each tenant's trace is replayed on its
//! own mapping ([`EventSimulator::replay`]), then
//! [`SharedEventSimulator::interleave`] — a pure function of those
//! replays, the weights and the pool's residency — builds the shared
//! timeline and bills leakage. [`SharedEventSimulator::run_weighted`]
//! does both. A replay does not depend on where its tenant sits, so a
//! caller that presents the same trace to the same network shape in many
//! rounds (the serving loop in `resparc_workloads`) replays it once and
//! calls `interleave` each round.

use resparc_energy::accounting::{Category, EnergyBreakdown};
use resparc_energy::sram::SramSpec;
use resparc_energy::units::{Energy, Time};
use resparc_neuro::trace::SpikeTrace;

use crate::fabric::{logic_leakage_power, FabricPool, Tenant, TenantId};
use crate::sim::cost;
use crate::sim::event::{fold_factor, EventLayerStats, EventSimulator, TraceReplay};

/// One tenant's slice of a shared replay.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Which tenant.
    pub tenant: TenantId,
    /// The tenant's label at admission.
    pub name: String,
    /// The tenant's bus-arbitration weight, gcd-normalised (equal
    /// weights always report as 1).
    pub weight: u32,
    /// Dynamic energy this tenant's trace charged (no leakage).
    pub energy: EnergyBreakdown,
    /// This tenant's amortized share of the whole pool's leakage over
    /// the shared makespan (occupied + idle NCs + SRAM), split
    /// proportionally to mapped NC count across the pool's *residents*.
    /// Shares of resident tenants absent from this replay round are not
    /// reported, so the reported shares sum to the full pool leakage
    /// only when every resident ran.
    pub leakage_share: Energy,
    /// Timesteps in the tenant's trace.
    pub steps: usize,
    /// Steps in which the tenant fired at least one crossbar read.
    pub active_steps: usize,
    /// Cycles of the shared timeline this tenant's own work spanned:
    /// per step, its local (compute + switch) cycles plus the cycle at
    /// which the arbitrated bus finished serving its transactions.
    /// Always ≤ the round's total cycles.
    pub tenant_cycles: u64,
    /// Bus cycles this tenant's transactions spent queued behind other
    /// tenants under the weighted round-robin arbiter (0 with one
    /// tenant: an uncontended bus never stalls).
    pub bus_stall_cycles: u64,
    /// The tenant's perceived completion time
    /// ([`tenant_cycles`](Self::tenant_cycles) at the pool clock) —
    /// what this tenant's inference latency looks like from inside the
    /// shared round. Never exceeds [`SharedReport::latency`].
    pub latency: Time,
    /// Per-layer event tallies (identical to a dedicated-fabric replay).
    pub layers: Vec<EventLayerStats>,
}

/// Report of one shared replay round: every tenant's trace interleaved
/// through the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedReport {
    /// The pool-wide ledger: every tenant's dynamic charges plus the
    /// *occupied*-fabric leakage over the makespan — category-compatible
    /// with a single-tenant [`EventReport`](crate::sim::event::EventReport)
    /// (a one-tenant pool reproduces it exactly).
    pub energy: EnergyBreakdown,
    /// Leakage of the NeuroCells no resident tenant owns, over the
    /// makespan — the cost of owning a bigger chip than the resident
    /// tenants need, billed at the pool's
    /// [`idle_gating`](crate::fabric::FabricPool::idle_gating) factor.
    /// On an ungated pool (factor `1.0`, the default) ledger leakage
    /// plus this always equals
    /// [`pool_leakage_power`](crate::fabric::pool_leakage_power)` ×
    /// latency`; gating scales only this idle term.
    pub idle_leakage: Energy,
    /// Makespan in timesteps (longest tenant trace).
    pub steps: usize,
    /// Steps in which at least one tenant fired a crossbar read.
    pub active_steps: usize,
    /// Total cycles of the shared timeline.
    pub total_cycles: u64,
    /// Cycles the shared global bus was busy (summed tenant
    /// transactions — the contention signal). Arbitration-weight
    /// independent: the bus is work-conserving.
    pub bus_busy_cycles: u64,
    /// Wall-clock makespan.
    pub latency: Time,
    /// Classifications per second: every tenant finishes one inference
    /// in one makespan.
    pub throughput: f64,
    /// Per-tenant splits, in input order.
    pub tenants: Vec<TenantReport>,
}

impl SharedReport {
    /// Total ledger energy (dynamic + occupied leakage, no idle).
    pub fn total_energy(&self) -> Energy {
        self.energy.total()
    }

    /// Whole-powered-pool energy: ledger plus idle-NC leakage. Equals
    /// `Σ tenant dynamic + pool_leakage_power × latency`.
    pub fn pool_energy(&self) -> Energy {
        self.energy.total() + self.idle_leakage
    }

    /// Pool-energy × makespan (pJ·ns); `0.0` when not finite.
    pub fn energy_delay_product(&self) -> f64 {
        let edp = self.pool_energy().picojoules() * self.latency.nanoseconds();
        if edp.is_finite() {
            edp
        } else {
            0.0
        }
    }

    /// Fraction of the makespan's cycles the shared bus was busy.
    pub fn bus_occupancy(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.bus_busy_cycles as f64 / self.total_cycles as f64
    }

    /// Total bus cycles tenants spent queued behind each other — the
    /// whole round's arbitration cost, however the weights split it.
    pub fn total_bus_stall_cycles(&self) -> u64 {
        self.tenants.iter().map(|t| t.bus_stall_cycles).sum()
    }
}

/// Trace-driven event simulator over a [`FabricPool`]: replays one trace
/// per tenant ([`run_weighted`](Self::run_weighted)), or takes
/// precomputed replays ([`interleave`](Self::interleave)), interleaved
/// per timestep through the shared fabric.
#[derive(Debug, Clone)]
pub struct SharedEventSimulator<'p> {
    pool: &'p FabricPool,
}

impl<'p> SharedEventSimulator<'p> {
    /// Creates a simulator over the pool's resident tenants.
    pub fn new(pool: &'p FabricPool) -> Self {
        Self { pool }
    }

    /// Replays one trace per tenant through the shared fabric,
    /// apportioning the serialised bus by **weighted round-robin**.
    ///
    /// Per timestep, tenants on their disjoint NC runs compute and
    /// switch concurrently (the step pays the maximum of their local
    /// cycles) while their global-bus transactions serialise on the
    /// shared bus/SRAM (the step sums them). The arbiter grants tenant
    /// `i` up to `weights[i] / gcd(weights)` bus cycles per round-robin
    /// round; a tenant's transactions therefore finish earlier the
    /// heavier its weight, which the report exposes as per-tenant
    /// [`bus_stall_cycles`](TenantReport::bus_stall_cycles) and
    /// perceived [`latency`](TenantReport::latency). The bus is
    /// work-conserving, so every aggregate (ledger, makespan, bus
    /// occupancy) is weight-independent, and equal weights of any
    /// magnitude are the same fair arbitration as all-1 weights.
    ///
    /// Dynamic energy is charged through the same replay core as the
    /// single-tenant [`EventSimulator`]; leakage of the occupied fabric
    /// goes to the ledger and the idle remainder of the pool is reported
    /// separately, amortized across tenants in
    /// [`TenantReport::leakage_share`]. This is each tenant's
    /// [`EventSimulator::replay`] on its own mapping followed by
    /// [`interleave`](Self::interleave).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty, names a tenant not resident in the
    /// pool, lists a tenant twice, or a trace's boundary structure does
    /// not match its tenant's mapping; if `weights.len() !=
    /// traces.len()`; or if any weight is zero.
    pub fn run_weighted(
        &self,
        traces: &[(TenantId, &SpikeTrace)],
        weights: &[u32],
    ) -> SharedReport {
        let replays: Vec<TraceReplay> = traces
            .iter()
            .map(|&(id, trace)| EventSimulator::new(&self.resident(id).mapping).replay(trace))
            .collect();
        let pairs: Vec<(TenantId, &TraceReplay)> =
            traces.iter().map(|&(id, _)| id).zip(&replays).collect();
        self.interleave(&pairs, weights)
    }

    /// Interleaves precomputed per-tenant replays through the shared
    /// fabric at the given bus weights — the shared timeline, the
    /// weighted round-robin stalls and the residency-dependent leakage
    /// of [`run_weighted`](Self::run_weighted), without replaying
    /// anything. `replays[i]` is tenant `replays[i].0`'s
    /// [`EventSimulator::replay`] on a mapping of the same shape as its
    /// pool mapping (its origin-0 probe works as well as the translated
    /// mapping: a replay does not depend on the origin), so
    /// `interleave` over those replays is bit-identical to
    /// `run_weighted` over the traces they came from.
    ///
    /// # Panics
    ///
    /// Panics if `replays` is empty, names a tenant not resident in the
    /// pool or lists one twice; if `weights.len() != replays.len()` or
    /// any weight is zero; or if a replay's layer count or per-layer tile
    /// counts differ from its tenant's mapping (a replay of another
    /// network).
    pub fn interleave(
        &self,
        replays: &[(TenantId, &TraceReplay)],
        weights: &[u32],
    ) -> SharedReport {
        assert!(
            !replays.is_empty(),
            "shared replay needs at least one tenant trace"
        );
        assert_eq!(
            weights.len(),
            replays.len(),
            "one arbitration weight per tenant trace"
        );
        assert!(
            weights.iter().all(|&w| w > 0),
            "arbitration weights must be positive"
        );
        let mut entries: Vec<&Tenant> = Vec::with_capacity(replays.len());
        for &(id, replay) in replays {
            let tenant = self.resident(id);
            assert!(
                entries.iter().all(|t| t.id != id),
                "{id} listed twice in one shared replay"
            );
            let partitions = &tenant.mapping.partitions;
            assert!(
                replay.layers.len() == partitions.len()
                    && replay
                        .layers
                        .iter()
                        .zip(partitions.iter())
                        .all(|(layer, part)| layer.tiles == part.tile_count()),
                "{id}: replay does not match the tenant's mapping"
            );
            entries.push(tenant);
        }
        // Weights are ratios: gcd-normalise so [2, 2] and [1, 1] run the
        // identical arbitration schedule (asserted in tests).
        let g = weights.iter().copied().fold(0, gcd);
        let quanta: Vec<u64> = weights.iter().map(|&w| u64::from(w / g)).collect();

        let cfg = self.pool.config();
        let folds: Vec<u64> = entries
            .iter()
            .map(|tenant| fold_factor(&tenant.mapping))
            .collect();
        let steps = replays
            .iter()
            .map(|(_, r)| r.compute_cycles.len())
            .max()
            .unwrap_or(0);

        // --- Shared timeline: max over disjoint NC runs, sum on the
        // bus, weighted round-robin deciding who waits for whom.
        let n = entries.len();
        let mut total_cycles = 0u64;
        let mut bus_busy_cycles = 0u64;
        let mut active_steps = 0usize;
        let mut tenant_cycles = vec![0u64; n];
        let mut stall_cycles = vec![0u64; n];
        let mut pending = vec![0u64; n];
        let mut finish = vec![0u64; n];
        for t in 0..steps {
            let mut local = 0u64;
            let mut bus = 0u64;
            let mut any_active = false;
            for (i, (&(_, replay), &fold)) in replays.iter().zip(&folds).enumerate() {
                pending[i] = 0;
                if t < replay.compute_cycles.len() {
                    local = local.max((replay.compute_cycles[t] + replay.comm_cycles[t]) * fold);
                    pending[i] = replay.bus_cycles[t];
                    bus += replay.bus_cycles[t];
                    any_active |= replay.compute_cycles[t] > 0;
                }
            }
            // Work-conserving WRR service of this step's bus
            // transactions, in tenant order: tenant i is granted up to
            // quanta[i] cycles per round until its backlog drains, and
            // its finish time is the arbitration cycle its last
            // transaction was served at. Full rounds in which nobody
            // drains are batched (no per-tenant finish can land inside
            // them and elapsed only accumulates whole grants, so the
            // skip is bit-identical to iterating them), keeping the
            // arbiter O(drain events × tenants) per step instead of
            // O(bus cycles × tenants).
            finish[..n].fill(0);
            let mut elapsed = 0u64;
            loop {
                let rounds_to_drain = pending
                    .iter()
                    .zip(&quanta)
                    .filter(|(&p, _)| p > 0)
                    .map(|(&p, &q)| p.div_ceil(q))
                    .min();
                let Some(rounds) = rounds_to_drain else { break };
                if rounds > 1 {
                    let whole = rounds - 1;
                    for (p, &q) in pending.iter_mut().zip(&quanta) {
                        if *p > 0 {
                            *p -= whole * q;
                            elapsed += whole * q;
                        }
                    }
                }
                // One explicit round in tenant order — at least one
                // tenant drains here and records its finish time.
                for i in 0..n {
                    if pending[i] > 0 {
                        let served = pending[i].min(quanta[i]);
                        pending[i] -= served;
                        elapsed += served;
                        if pending[i] == 0 {
                            finish[i] = elapsed;
                        }
                    }
                }
            }
            for (i, &(_, replay)) in replays.iter().enumerate() {
                if t < replay.compute_cycles.len() {
                    let own_local = (replay.compute_cycles[t] + replay.comm_cycles[t]) * folds[i];
                    stall_cycles[i] += finish[i] - replay.bus_cycles[t];
                    tenant_cycles[i] += (own_local + finish[i]).max(1);
                }
            }
            total_cycles += (local + bus).max(1);
            bus_busy_cycles += bus;
            if any_active {
                active_steps += 1;
            }
        }
        let latency = cfg.frequency.cycles_to_time(total_cycles);

        // --- Ledger: every replayed tenant's dynamic charges, then
        // leakage of the occupied fabric. "Occupied" is a property of
        // pool *residency*, not of this round's trace set: a resident
        // tenant's silicon is powered whether or not it ran this round.
        // The domain is the same min-of-physical-and-mapped one the
        // single-tenant simulator charges, so a pool whose only resident
        // is the one replayed tenant reproduces it exactly.
        let mut energy = EnergyBreakdown::new();
        for (_, replay) in replays {
            energy.merge(&replay.energy);
        }
        let sram = SramSpec::new(cfg.input_sram_bytes, cfg.packet_bits).build();
        let physical_mpes_cap = cfg.physical_ncs * cfg.mpes_per_nc();
        let resident_mpes: usize = self
            .pool
            .tenants()
            .iter()
            .map(|tenant| tenant.mapping.placement.mpes_used)
            .sum();
        let resident_ncs: usize = self
            .pool
            .tenants()
            .iter()
            .map(|tenant| tenant.mapping.placement.ncs_used)
            .sum();
        let occupied_mpes = physical_mpes_cap.min(resident_mpes.max(1));
        let occupied_switch_ncs = cfg.physical_ncs.min(resident_ncs.max(1));
        let logic_leak = logic_leakage_power(cfg, occupied_mpes, occupied_switch_ncs);
        energy.charge(Category::LogicLeakage, logic_leak * latency);
        energy.charge(Category::MemoryLeakage, sram.leakage() * latency);

        // --- Idle remainder of the pool + per-tenant amortization. The
        // occupied and idle domains partition the physical pool, so on
        // an ungated pool ledger leakage + idle_leakage equals
        // `pool_leakage_power(cfg) × latency` by construction; the
        // idle-gating factor scales only this idle term (× 1.0 is
        // IEEE-exact, keeping the default bit-identical to PR 4/5).
        let idle_mpes = physical_mpes_cap - occupied_mpes;
        let idle_switch_ncs = cfg.physical_ncs - occupied_switch_ncs;
        let idle_leakage = logic_leakage_power(cfg, idle_mpes, idle_switch_ncs)
            * latency
            * self.pool.idle_gating();
        let pool_leakage =
            energy.get(Category::LogicLeakage) + energy.get(Category::MemoryLeakage) + idle_leakage;

        let tenants = entries
            .iter()
            .zip(replays)
            .enumerate()
            .map(|(i, (tenant, (_, replay)))| {
                // NC-proportional amortization over *residents*: replaying
                // a subset of the pool bills each replayed tenant its own
                // floorplan share and leaves the absent residents' shares
                // unreported rather than shifting them onto this round.
                let nc_share =
                    tenant.mapping.placement.ncs_used as f64 / resident_ncs.max(1) as f64;
                TenantReport {
                    tenant: tenant.id,
                    name: tenant.name.clone(),
                    weight: (quanta[i] as u32),
                    leakage_share: pool_leakage * nc_share,
                    steps: replay.compute_cycles.len(),
                    active_steps: replay.compute_cycles.iter().filter(|&&c| c > 0).count(),
                    tenant_cycles: tenant_cycles[i],
                    bus_stall_cycles: stall_cycles[i],
                    latency: cfg.frequency.cycles_to_time(tenant_cycles[i]),
                    energy: replay.energy.clone(),
                    layers: replay.layers.clone(),
                }
            })
            .collect();

        SharedReport {
            energy,
            idle_leakage,
            steps,
            active_steps,
            total_cycles,
            bus_busy_cycles,
            latency,
            throughput: cost::safe_throughput(latency) * replays.len() as f64,
            tenants,
        }
    }

    /// The resident tenant `id`.
    fn resident(&self, id: TenantId) -> &Tenant {
        self.pool
            .tenant(id)
            // resparc-lint: allow(no-panic, reason = "documented panic contract: shared replays take ids the caller obtained from this pool")
            .unwrap_or_else(|| panic!("{id} is not resident in the pool"))
    }
}

/// Greatest common divisor (`gcd(0, x) == x`, so a fold seeded with 0
/// yields the gcd of the whole weight list).
fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResparcConfig;
    use crate::map::Mapper;
    use resparc_energy::units::Energy;
    use resparc_neuro::encoding::RegularEncoder;
    use resparc_neuro::network::Network;
    use resparc_neuro::topology::Topology;

    use crate::fabric::pool_leakage_power;

    fn small_net(seed: u64) -> Network {
        Network::random(Topology::mlp(96, &[64, 10]), seed, 1.0)
    }

    fn traced(net: &Network, rate: f32, steps: usize) -> SpikeTrace {
        let inputs = net.input_count();
        let stimulus: Vec<f32> = (0..inputs).map(|i| rate * ((i % 5) as f32 / 4.0)).collect();
        let raster = RegularEncoder::new(1.0).encode(&stimulus, steps);
        let (_, trace) = net.spiking().run_traced(&raster);
        trace
    }

    #[test]
    fn single_tenant_shared_replay_is_bit_identical_to_dedicated() {
        let net = small_net(7);
        let trace = traced(&net, 0.8, 18);
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let id = pool.admit(&net, "solo").unwrap();

        let dedicated = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        let single = EventSimulator::new(&dedicated).run(&trace);
        let shared = SharedEventSimulator::new(&pool).run_weighted(&[(id, &trace)], &[1]);

        assert_eq!(shared.energy, single.energy, "ledger must be bit-identical");
        assert_eq!(shared.total_cycles, single.total_cycles);
        assert_eq!(shared.latency, single.latency);
        assert_eq!(shared.steps, single.steps);
        assert_eq!(shared.active_steps, single.active_steps);
        assert_eq!(shared.throughput, single.throughput);
        assert_eq!(shared.tenants[0].layers, single.layers);
        // An uncontended bus never stalls, and a lone tenant's perceived
        // latency is the makespan.
        assert_eq!(shared.tenants[0].bus_stall_cycles, 0);
        assert_eq!(shared.tenants[0].tenant_cycles, single.total_cycles);
        assert_eq!(shared.tenants[0].latency, single.latency);
    }

    #[test]
    fn shared_replay_sums_dynamic_and_overlaps_makespan() {
        let nets: Vec<Network> = (0..3).map(small_net).collect();
        let traces: Vec<SpikeTrace> = nets.iter().map(|n| traced(n, 0.7, 20)).collect();
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let ids: Vec<TenantId> = nets
            .iter()
            .enumerate()
            .map(|(i, n)| pool.admit(n, &format!("t{i}")).unwrap())
            .collect();
        let pairs: Vec<(TenantId, &SpikeTrace)> = ids.iter().copied().zip(traces.iter()).collect();
        let shared = SharedEventSimulator::new(&pool).run_weighted(&pairs, &[1, 1, 1]);

        // Per-tenant dynamic energy and tallies match a dedicated run.
        let mapper = Mapper::new(ResparcConfig::resparc_64());
        let mut serial_cycles = 0u64;
        for (net, (trace, tr)) in nets.iter().zip(traces.iter().zip(&shared.tenants)) {
            let dedicated = mapper.map_network(net).unwrap();
            let single = EventSimulator::new(&dedicated).run(trace);
            assert_eq!(tr.layers, single.layers);
            for cat in Category::ALL {
                if matches!(cat, Category::LogicLeakage | Category::MemoryLeakage) {
                    continue;
                }
                assert_eq!(tr.energy.get(cat), single.energy.get(cat), "{cat}");
            }
            serial_cycles += single.total_cycles;
        }

        // The overlapped makespan beats serial execution, even with bus
        // contention.
        assert!(
            shared.total_cycles < serial_cycles,
            "shared {} vs serial {}",
            shared.total_cycles,
            serial_cycles
        );
        assert!(shared.bus_occupancy() > 0.0 && shared.bus_occupancy() <= 1.0);
        // Contention is real: somebody waited for the bus, and every
        // tenant's perceived latency fits inside the makespan.
        assert!(shared.total_bus_stall_cycles() > 0);
        for t in &shared.tenants {
            assert!(t.tenant_cycles <= shared.total_cycles);
            assert!(t.latency <= shared.latency);
        }
        // Leakage shares amortize the entire powered pool.
        let shares: Energy = shared.tenants.iter().map(|t| t.leakage_share).sum();
        let pool_leak = pool_leakage_power(pool.config()) * shared.latency;
        assert!(
            (shares.picojoules() / pool_leak.picojoules() - 1.0).abs() < 1e-9,
            "shares {shares} vs pool {pool_leak}"
        );
        assert!(
            (shared.pool_energy().picojoules()
                / (shared
                    .tenants
                    .iter()
                    .map(|t| t.energy.total())
                    .sum::<Energy>()
                    + pool_leak)
                    .picojoules()
                - 1.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn equal_weights_of_any_magnitude_match_the_fair_run_bit_identically() {
        let nets: Vec<Network> = (0..3).map(small_net).collect();
        let traces: Vec<SpikeTrace> = nets.iter().map(|n| traced(n, 0.7, 16)).collect();
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let ids: Vec<TenantId> = nets
            .iter()
            .enumerate()
            .map(|(i, n)| pool.admit(n, &format!("t{i}")).unwrap())
            .collect();
        let pairs: Vec<(TenantId, &SpikeTrace)> = ids.iter().copied().zip(traces.iter()).collect();

        let sim = SharedEventSimulator::new(&pool);
        let fair = sim.run_weighted(&pairs, &[1, 1, 1]);
        // gcd normalisation: [5, 5, 5] is the same schedule as [1, 1, 1]
        // — the whole report (stall and latency accounting included) is
        // bit-identical, not merely the aggregates.
        assert_eq!(sim.run_weighted(&pairs, &[5, 5, 5]), fair);
        assert_eq!(sim.run_weighted(&pairs, &[2, 2, 2]), fair);
        for t in &fair.tenants {
            assert_eq!(t.weight, 1);
        }
    }

    #[test]
    fn weights_shift_stalls_but_never_the_aggregates() {
        let nets: Vec<Network> = (0..2).map(small_net).collect();
        let traces: Vec<SpikeTrace> = nets.iter().map(|n| traced(n, 0.9, 16)).collect();
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let ids: Vec<TenantId> = nets
            .iter()
            .enumerate()
            .map(|(i, n)| pool.admit(n, &format!("t{i}")).unwrap())
            .collect();
        let pairs: Vec<(TenantId, &SpikeTrace)> = ids.iter().copied().zip(traces.iter()).collect();

        let sim = SharedEventSimulator::new(&pool);
        let fair = sim.run_weighted(&pairs, &[1, 1]);
        let favoured = sim.run_weighted(&pairs, &[6, 1]);

        // The bus is work-conserving: every aggregate is
        // weight-independent.
        assert_eq!(favoured.energy, fair.energy);
        assert_eq!(favoured.total_cycles, fair.total_cycles);
        assert_eq!(favoured.bus_busy_cycles, fair.bus_busy_cycles);
        assert_eq!(favoured.latency, fair.latency);
        assert_eq!(favoured.idle_leakage, fair.idle_leakage);
        // QoS is zero-sum: the favoured tenant waits less than under
        // fair arbitration, the other at least as much.
        assert!(
            favoured.tenants[0].bus_stall_cycles < fair.tenants[0].bus_stall_cycles,
            "favoured stall {} vs fair {}",
            favoured.tenants[0].bus_stall_cycles,
            fair.tenants[0].bus_stall_cycles
        );
        assert!(favoured.tenants[1].bus_stall_cycles >= fair.tenants[1].bus_stall_cycles);
        assert!(favoured.tenants[0].tenant_cycles <= fair.tenants[0].tenant_cycles);
        assert!(favoured.tenants[0].latency <= fair.tenants[0].latency);
        assert_eq!(favoured.tenants[0].weight, 6);
        assert_eq!(favoured.tenants[1].weight, 1);
    }

    #[test]
    fn subset_replay_bills_residency_not_the_trace_set() {
        // Leakage domains follow pool residency: replaying one of two
        // resident tenants must still treat the absent resident's
        // silicon as occupied (not idle), and must not shift its
        // floorplan share of the pool leakage onto the tenant that ran.
        let cfg = ResparcConfig::resparc_64();
        let a = small_net(1);
        let b = small_net(2);
        let trace = traced(&a, 0.8, 12);

        let mut solo = FabricPool::new(cfg.clone());
        let solo_id = solo.admit(&a, "a").unwrap();
        let solo_run = SharedEventSimulator::new(&solo).run_weighted(&[(solo_id, &trace)], &[1]);

        let mut pool = FabricPool::new(cfg);
        let id_a = pool.admit(&a, "a").unwrap();
        pool.admit(&b, "b").unwrap();
        let shared = SharedEventSimulator::new(&pool).run_weighted(&[(id_a, &trace)], &[1]);

        // Same trace, same timeline — but the two-resident pool's
        // occupied-leakage domain includes b's NCs.
        assert_eq!(shared.latency, solo_run.latency);
        assert!(
            shared.energy.get(Category::LogicLeakage) > solo_run.energy.get(Category::LogicLeakage)
        );
        assert!(shared.idle_leakage < solo_run.idle_leakage);
        // a pays its own NC-proportional share of the pool, strictly
        // less than the whole pool's leakage (b's share goes unreported,
        // not onto a).
        let pool_leak = pool_leakage_power(pool.config()) * shared.latency;
        assert!(shared.tenants[0].leakage_share < pool_leak);
        assert!(shared.tenants[0].leakage_share < solo_run.tenants[0].leakage_share);
        // Occupied + idle still partitions the full powered pool.
        let accounted = shared.energy.get(Category::LogicLeakage)
            + shared.energy.get(Category::MemoryLeakage)
            + shared.idle_leakage;
        assert!((accounted.picojoules() / pool_leak.picojoules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ungated_factor_reproduces_default_billing_bit_identically() {
        // `with_idle_gating(1.0)` must be a bit-identical no-op: the
        // whole SharedReport (idle term, shares, aggregates) matches a
        // pool that never heard of gating.
        let nets: Vec<Network> = (0..2).map(small_net).collect();
        let traces: Vec<SpikeTrace> = nets.iter().map(|n| traced(n, 0.7, 14)).collect();
        let run = |pool: FabricPool| {
            let mut pool = pool;
            let ids: Vec<TenantId> = nets
                .iter()
                .enumerate()
                .map(|(i, n)| pool.admit(n, &format!("t{i}")).unwrap())
                .collect();
            let pairs: Vec<(TenantId, &SpikeTrace)> =
                ids.iter().copied().zip(traces.iter()).collect();
            SharedEventSimulator::new(&pool).run_weighted(&pairs, &[4, 1])
        };
        let default = run(FabricPool::new(ResparcConfig::resparc_64()));
        let ungated = run(FabricPool::new(ResparcConfig::resparc_64()).with_idle_gating(1.0));
        assert_eq!(ungated, default);
    }

    #[test]
    fn idle_gating_scales_only_the_idle_domain() {
        let net = small_net(5);
        let trace = traced(&net, 0.8, 12);
        let run = |factor: f64| {
            let mut pool = FabricPool::new(ResparcConfig::resparc_64()).with_idle_gating(factor);
            let id = pool.admit(&net, "solo").unwrap();
            SharedEventSimulator::new(&pool).run_weighted(&[(id, &trace)], &[1])
        };
        let full = run(1.0);
        let quarter = run(0.25);
        let off = run(0.0);

        // The replay and the occupied-domain ledger never move.
        assert_eq!(quarter.energy, full.energy);
        assert_eq!(quarter.latency, full.latency);
        assert_eq!(quarter.total_cycles, full.total_cycles);
        assert_eq!(off.energy, full.energy);

        // The idle term scales linearly with the factor; perfect gating
        // zeroes it and the pool bill collapses onto the ledger.
        assert!(full.idle_leakage > Energy::ZERO);
        assert!(
            (quarter.idle_leakage.picojoules() / full.idle_leakage.picojoules() - 0.25).abs()
                < 1e-12
        );
        assert!(off.idle_leakage.is_zero());
        assert_eq!(off.pool_energy(), off.total_energy());
        assert!(quarter.pool_energy() < full.pool_energy());
        // Tenant amortization follows: the gated pool bills its tenant
        // a smaller leakage share.
        assert!(quarter.tenants[0].leakage_share < full.tenants[0].leakage_share);
    }

    #[test]
    fn out_of_range_gating_factor_panics() {
        for bad in [-0.1, 1.5, f64::NAN] {
            let result = std::panic::catch_unwind(|| {
                FabricPool::new(ResparcConfig::resparc_64()).with_idle_gating(bad)
            });
            assert!(result.is_err(), "factor {bad} must be rejected");
        }
    }

    #[test]
    fn mismatched_tenant_trace_panics() {
        let net = small_net(3);
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let id = pool.admit(&net, "a").unwrap();
        let bad = SpikeTrace::silent(&[96, 10], 4);
        let result = std::panic::catch_unwind(|| {
            SharedEventSimulator::new(&pool).run_weighted(&[(id, &bad)], &[1]);
        });
        assert!(result.is_err());
    }

    /// A resident `a` and a replay of `other` on its own mapping.
    fn replay_of_another_network(other: &Network) -> (FabricPool, TenantId, TraceReplay) {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let id = pool.admit(&small_net(3), "a").unwrap();
        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map_network(other)
            .unwrap();
        let replay = EventSimulator::new(&mapping).replay(&traced(other, 0.5, 6));
        (pool, id, replay)
    }

    #[test]
    #[should_panic(expected = "replay does not match")]
    fn replay_with_another_layer_count_panics() {
        let deeper = Network::random(Topology::mlp(96, &[64, 64, 10]), 4, 1.0);
        let (pool, id, replay) = replay_of_another_network(&deeper);
        SharedEventSimulator::new(&pool).interleave(&[(id, &replay)], &[1]);
    }

    #[test]
    #[should_panic(expected = "replay does not match")]
    fn replay_with_other_tile_counts_panics() {
        // Same two layers, but 200 inputs need four row tiles where the
        // resident's 96 need two.
        let wider = Network::random(Topology::mlp(200, &[64, 10]), 4, 1.0);
        let (pool, id, replay) = replay_of_another_network(&wider);
        SharedEventSimulator::new(&pool).interleave(&[(id, &replay)], &[1]);
    }

    #[test]
    fn zero_or_mismatched_weights_panic() {
        let net = small_net(3);
        let trace = traced(&net, 0.5, 6);
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let id = pool.admit(&net, "a").unwrap();
        let sim = SharedEventSimulator::new(&pool);
        assert!(std::panic::catch_unwind(|| sim.run_weighted(&[(id, &trace)], &[0])).is_err());
        assert!(std::panic::catch_unwind(|| sim.run_weighted(&[(id, &trace)], &[1, 1])).is_err());
    }
}
