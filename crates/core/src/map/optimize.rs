//! Search-based batch placement: `PlacementStrategy::{Greedy, Optimized}`.
//!
//! Greedy admission (the [`FabricPool`] entry points) places each
//! tenant the moment it arrives, in arrival order, at whatever run the
//! pool's [`PackingPolicy`](crate::fabric::PackingPolicy) picks. That
//! is the *oracle*: simple, online, and the baseline every figure
//! reports. But when a **batch** of requests is known up front, the
//! admission order and — on a heterogeneous pool — each request's MCA
//! size class are free variables, and first-fit over a fragmented pool
//! is famously sensitive to both. [`BatchPlacer`] searches that space
//! with deterministic simulated annealing over the existing
//! probe/[`can_admit_sized`](FabricPool::can_admit_sized)/
//! [`admit_mapped`](FabricPool::admit_mapped) API — no external
//! solver, no re-partitioning (every probe is mapped once per class,
//! then only *translated*), and no wall-clock or entropy inputs, so a
//! given `(pool, requests, seed)` always returns the same placement.
//!
//! # Cost model
//!
//! Candidate placements are ranked lexicographically:
//!
//! 1. **admitted tenants** (more is better) — capacity is the product;
//! 2. **bus trips** (fewer is better): the number of layer boundaries
//!    that leave the switch network and cross onto the shared C-mesh
//!    bus ([`Placement::boundary_crosses_nc`]), summed over the batch's
//!    admitted tenants. Choosing a class that maps a network into one
//!    NeuroCell keeps its traffic local;
//! 3. **fragmentation** (fewer is better): the pool's count of maximal
//!    free fragments ([`FabricPool::free_fragments`]) after the batch —
//!    fewer, larger holes keep the pool admissible for future tenants.
//!
//! # Oracle contract
//!
//! [`PlacementStrategy::Greedy`] decodes the identity schedule —
//! arrival order, preferred classes — and reproduces sequential
//! [`FabricPool::admit`] exactly (unit-tested). The
//! [`PlacementStrategy::Optimized`] search *starts* from that greedy
//! incumbent and only ever replaces it with a strictly better
//! placement, so on any batch:
//!
//! ```text
//! optimized.admitted ≥ greedy.admitted
//! ```
//!
//! and, at equal admits, bus trips and fragmentation are no worse —
//! by construction, property-tested in `tests/proptests.rs`.

use resparc_neuro::network::Network;
use resparc_neuro::topology::Topology;

use crate::fabric::{FabricPool, TenantId};
use crate::map::{MapError, Mapping, Placement};

/// How a batch of admission requests is placed onto a [`FabricPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Sequential admission in arrival order, preferred size classes —
    /// exactly [`FabricPool::admit`] per request. The oracle the
    /// optimizer is measured against.
    #[default]
    Greedy,
    /// Deterministic simulated annealing over admission order and
    /// per-request size class, seeded with the greedy schedule and
    /// keeping the best placement found — never worse than
    /// [`Greedy`](Self::Greedy) on the cost model above.
    Optimized,
}

/// One admission request in a batch: a name plus its pre-mapped probes,
/// one per MCA size class of the target pool that can map it, in the
/// greedy preference order `(nc_footprint, mca_size)` ascending — the
/// same probes, in the same order, that [`FabricPool::admit`] tries.
#[derive(Debug, Clone)]
pub struct PlacementRequest {
    /// The tenant label an admission will carry.
    pub name: String,
    probes: Vec<Mapping>,
}

impl PlacementRequest {
    /// Builds a request for a bare topology (mean |weight| 0.5 per
    /// layer, as [`Mapper::map`]), probing every size class of `pool`.
    ///
    /// # Errors
    ///
    /// The last [`MapError`] when *no* class of the pool can map the
    /// topology (classes that individually fail are skipped). A zero-NC
    /// pool reports its configuration's validation error.
    ///
    /// [`Mapper::map`]: crate::map::Mapper::map
    pub fn from_topology(
        pool: &FabricPool,
        topology: &Topology,
        name: &str,
    ) -> Result<Self, MapError> {
        let (preferred, others) = pool.class_probes(|mapper| mapper.map(topology))?;
        Ok(Self {
            name: name.to_string(),
            probes: std::iter::once(preferred).chain(others).collect(),
        })
    }

    /// Builds a request for a trained network (weight magnitudes from
    /// its actual weights, as [`Mapper::map_network`]), probing every
    /// size class of `pool`.
    ///
    /// # Errors
    ///
    /// The last [`MapError`] when *no* class of the pool can map the
    /// network.
    ///
    /// [`Mapper::map_network`]: crate::map::Mapper::map_network
    pub fn from_network(
        pool: &FabricPool,
        network: &Network,
        name: &str,
    ) -> Result<Self, MapError> {
        let (preferred, others) = pool.class_probes(|mapper| mapper.map_network(network))?;
        Ok(Self {
            name: name.to_string(),
            probes: std::iter::once(preferred).chain(others).collect(),
        })
    }

    /// The pre-mapped probes, preferred class first.
    pub fn probes(&self) -> &[Mapping] {
        &self.probes
    }
}

/// The result of placing a batch: the pool with the chosen admissions
/// applied, plus the cost-model metrics of the final layout.
#[derive(Debug, Clone)]
pub struct BatchPlacement {
    /// The input pool with every admitted request resident.
    pub pool: FabricPool,
    /// Per-request outcome, in the batch's arrival order: the tenant id
    /// an admitted request received, `None` for requests that did not
    /// fit under the chosen schedule.
    pub admitted: Vec<Option<TenantId>>,
    /// Layer boundaries crossing the shared bus, summed over the
    /// batch's admitted tenants (cost term 2).
    pub bus_trips: usize,
    /// Maximal free fragments left in the pool (cost term 3).
    pub fragments: usize,
    /// Candidate schedules evaluated (1 for greedy; search telemetry
    /// for the optimizer).
    pub evaluations: usize,
}

impl BatchPlacement {
    /// Requests admitted by the chosen schedule.
    pub fn admitted_count(&self) -> usize {
        self.admitted.iter().filter(|t| t.is_some()).count()
    }

    /// The lexicographic cost-model key (bigger is better).
    fn key(&self) -> PlacementKey {
        (
            self.admitted_count(),
            std::cmp::Reverse(self.bus_trips),
            std::cmp::Reverse(self.fragments),
        )
    }
}

/// Lexicographic score: admitted ↑, bus trips ↓, fragments ↓.
type PlacementKey = (usize, std::cmp::Reverse<usize>, std::cmp::Reverse<usize>);

/// Bus-boundary crossings of one placement (cost term 2).
fn bus_crossings(placement: &Placement) -> usize {
    (0..placement.layers.len())
        .filter(|&l| placement.boundary_crosses_nc(l))
        .count()
}

/// Weyl-sequence splitmix64 — the repo's deterministic RNG idiom (no
/// `thread_rng`, no time seeds; the linter enforces this).
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, n)` (callers guarantee `n > 0`).
fn draw(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n.max(1) as u64) as usize
}

/// A uniform draw in `[0, 1)`.
fn draw_unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Places a batch of [`PlacementRequest`]s onto a pool snapshot under a
/// [`PlacementStrategy`]; see the [module docs](self) for the cost
/// model and the oracle contract.
///
/// # Examples
///
/// Optimized batch placement is never worse than greedy, and on a
/// fragmented pool it can be strictly better:
///
/// ```
/// use resparc_core::fabric::FabricPool;
/// use resparc_core::map::{BatchPlacer, PlacementRequest, PlacementStrategy};
/// use resparc_core::ResparcConfig;
/// use resparc_neuro::topology::Topology;
///
/// let pool = FabricPool::new(ResparcConfig::resparc_64());
/// let reqs: Vec<PlacementRequest> = (0..3)
///     .map(|i| {
///         PlacementRequest::from_topology(&pool, &Topology::mlp(144, &[576, 10]), &format!("t{i}"))
///     })
///     .collect::<Result<_, _>>()?;
/// let greedy = BatchPlacer::new(PlacementStrategy::Greedy).place(&pool, &reqs);
/// let optimized = BatchPlacer::new(PlacementStrategy::Optimized).place(&pool, &reqs);
/// assert!(optimized.admitted_count() >= greedy.admitted_count());
/// # Ok::<(), resparc_core::map::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchPlacer {
    strategy: PlacementStrategy,
    seed: u64,
    iterations: usize,
}

impl BatchPlacer {
    /// Creates a placer with the default deterministic seed and search
    /// budget (400 candidate schedules).
    pub fn new(strategy: PlacementStrategy) -> Self {
        Self {
            strategy,
            seed: 0x5EED_CAB5,
            iterations: 400,
        }
    }

    /// Sets the annealing seed (the search is deterministic per seed;
    /// ignored by [`PlacementStrategy::Greedy`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the search budget in candidate schedules (ignored by
    /// [`PlacementStrategy::Greedy`]).
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// The strategy this placer decodes with.
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// Places `requests` onto a clone of `pool` (the input pool is
    /// untouched — resident tenants and unhealthy cells are respected
    /// as fixed obstacles). Admission inside the schedule goes through
    /// [`FabricPool::admit_mapped`] under the pool's own
    /// [`PackingPolicy`](crate::fabric::PackingPolicy), so every
    /// invariant the pool enforces (capacity, disjointness, health,
    /// size classes) holds for every candidate evaluated.
    pub fn place(&self, pool: &FabricPool, requests: &[PlacementRequest]) -> BatchPlacement {
        let n = requests.len();
        let identity: Vec<usize> = (0..n).collect();
        let no_shift = vec![0usize; n];
        let mut best = decode(pool, requests, &identity, &no_shift);
        best.evaluations = 1;
        if self.strategy == PlacementStrategy::Greedy || n == 0 {
            return best;
        }

        // Simulated annealing from the greedy incumbent. The *current*
        // schedule walks (accepting some downhill moves early), but
        // `best` only ever improves — the oracle contract.
        let mut state = self.seed;
        let mut cur_order = identity;
        let mut cur_shift = no_shift;
        let mut cur_key = best.key();
        let mut best_key = cur_key;
        let mut best_order = cur_order.clone();
        let mut best_shift = cur_shift.clone();
        let total = self.iterations.max(1);
        for it in 0..total {
            let mut order = cur_order.clone();
            let mut shift = cur_shift.clone();
            mutate(&mut state, &mut order, &mut shift, requests);
            let cand = decode(pool, requests, &order, &shift);
            let cand_key = cand.key();
            if cand_key > best_key {
                best_key = cand_key;
                best_order = order.clone();
                best_shift = shift.clone();
            }
            let accept = if cand_key >= cur_key {
                true
            } else {
                // Downhill acceptance on a scalarised gap, cooling
                // linearly: early on the walk escapes local packings,
                // later it converges.
                let gap = scalar(cur_key) - scalar(cand_key);
                let temp = 2_000.0 * (1.0 - it as f64 / total as f64).max(1e-3);
                draw_unit(&mut state) < (-gap / temp).exp()
            };
            if accept {
                cur_order = order;
                cur_shift = shift;
                cur_key = cand_key;
            }
        }
        let mut final_best = decode(pool, requests, &best_order, &best_shift);
        final_best.evaluations = total + 2;
        final_best
    }
}

/// Scalarises a key for annealing acceptance (lexicographic weights).
fn scalar(key: PlacementKey) -> f64 {
    key.0 as f64 * 1e9 - key.1 .0 as f64 * 1e3 - key.2 .0 as f64
}

/// One random schedule mutation: transpose two admission positions or
/// rotate one request's class preference.
fn mutate(
    state: &mut u64,
    order: &mut [usize],
    shift: &mut [usize],
    requests: &[PlacementRequest],
) {
    let n = order.len();
    let swap_move =
        n > 1 && (splitmix64(state) & 1 == 0 || requests.iter().all(|r| r.probes.len() < 2));
    if swap_move {
        let i = draw(state, n);
        let j = draw(state, n);
        order.swap(i, j);
    } else {
        let k = draw(state, n);
        let classes = requests[order[k]].probes.len();
        if classes > 1 {
            shift[order[k]] = (shift[order[k]] + 1 + draw(state, classes - 1)) % classes;
        } else if n > 1 {
            let j = draw(state, n);
            order.swap(k, j);
        }
    }
}

/// Evaluates one schedule: sequential `admit_mapped` on a pool clone,
/// requests in `order`, each trying its classes starting from
/// `shift[r]` in preference rotation. The identity schedule *is*
/// greedy admission.
fn decode(
    pool: &FabricPool,
    requests: &[PlacementRequest],
    order: &[usize],
    shift: &[usize],
) -> BatchPlacement {
    let mut pool = pool.clone();
    let mut admitted: Vec<Option<TenantId>> = vec![None; requests.len()];
    for &r in order {
        let req = &requests[r];
        let classes = req.probes.len();
        for j in 0..classes {
            let probe = &req.probes[(j + shift[r]) % classes];
            let needed = probe.placement.ncs_used.max(1);
            if pool.can_admit_sized(needed, probe.config.mca_size) {
                admitted[r] = pool.admit_mapped(probe.clone(), &req.name).ok();
                break;
            }
        }
    }
    let bus_trips = admitted
        .iter()
        .flatten()
        .filter_map(|&id| pool.tenant(id))
        .map(|t| bus_crossings(&t.mapping.placement))
        .sum();
    let fragments = pool.free_fragments();
    BatchPlacement {
        pool,
        admitted,
        bus_trips,
        fragments,
        evaluations: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResparcConfig;
    use crate::fabric::PackingPolicy;

    /// `ncs` NeuroCells on RESPARC-64 (see `fabric::pool::tests`).
    fn sized_topology(ncs: usize) -> Topology {
        match ncs {
            1 => Topology::mlp(144, &[576, 10]),
            2 => Topology::mlp(144, &[576, 576, 10]),
            4 => Topology::mlp(144, &[576, 576, 576, 10]),
            5 => Topology::mlp(144, &[576, 576, 576, 576, 10]),
            other => panic!("no sized topology for {other} NCs"),
        }
    }

    #[test]
    fn greedy_strategy_reproduces_sequential_admission_exactly() {
        let base = FabricPool::new(ResparcConfig::resparc_64()).with_policy(PackingPolicy::BestFit);
        let widths = [2usize, 5, 1, 4, 2];
        let reqs: Vec<PlacementRequest> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                PlacementRequest::from_topology(&base, &sized_topology(w), &format!("t{i}"))
                    .unwrap()
            })
            .collect();

        let batch = BatchPlacer::new(PlacementStrategy::Greedy).place(&base, &reqs);
        assert_eq!(batch.evaluations, 1);

        let mut oracle = base.clone();
        for (i, &w) in widths.iter().enumerate() {
            let outcome = oracle.admit_topology(&sized_topology(w), &format!("t{i}"));
            assert_eq!(outcome.is_ok(), batch.admitted[i].is_some());
        }
        // Same tenants at the same origins — the batch pool IS the
        // sequential pool.
        assert_eq!(oracle.occupancy(), batch.pool.occupancy());
        assert_eq!(oracle.tenants().len(), batch.admitted_count());
    }

    #[test]
    fn optimized_beats_greedy_on_an_order_sensitive_batch() {
        // Fragment the pool first: admit five tenants back-to-back,
        // then evict two interior ones, leaving holes of 4 NCs (2..6)
        // and 2 NCs (11..13, plus the 2-NC tail 14..16). A first-fit
        // arrival order [2-NC, 4-NC] drops the 2 into the 4-hole,
        // splitting it so the 4 no longer fits anywhere — the classic
        // order sensitivity the batch optimizer exists to repair.
        let mut base = FabricPool::new(ResparcConfig::resparc_64());
        base.admit_topology(&sized_topology(2), "r0").unwrap();
        let hole = base.admit_topology(&sized_topology(4), "hole4").unwrap();
        base.admit_topology(&sized_topology(5), "r1").unwrap();
        let hole2 = base.admit_topology(&sized_topology(2), "hole2").unwrap();
        base.admit_topology(&sized_topology(1), "r2").unwrap();
        base.evict(hole);
        base.evict(hole2);
        assert_eq!(base.largest_free_run(), 4);

        let reqs: Vec<PlacementRequest> = [2usize, 4]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                PlacementRequest::from_topology(&base, &sized_topology(w), &format!("b{i}"))
                    .unwrap()
            })
            .collect();
        let greedy = BatchPlacer::new(PlacementStrategy::Greedy).place(&base, &reqs);
        assert_eq!(greedy.admitted_count(), 1, "first-fit splits the 4-hole");
        let optimized = BatchPlacer::new(PlacementStrategy::Optimized).place(&base, &reqs);
        assert_eq!(optimized.admitted_count(), 2, "reordering packs both");
        assert!(optimized.evaluations > 1);
    }

    #[test]
    fn optimized_exploits_class_choice_on_heterogeneous_pools() {
        // Four 64-class cells and one 32-class pair. The 2-NC tenants
        // (P, R) only *fit* on the 64 class — at MCA 32 their footprint
        // exceeds the two 32-cells. The 1-NC tenant Q fits either way
        // (1 NC at 64, the whole 32-pair at 32) but greedily prefers
        // the smaller footprint, parking on a 64 cell. Arrival [P, Q,
        // R] then leaves the 64 class with no 2-run for R — greedy
        // admits two and its class fall-through cannot save R (32 is
        // infeasible for it). The optimizer diverts Q to the idle
        // 32-pair and admits all three.
        let base =
            FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[64, 64, 64, 64, 32, 32]);
        let wide = sized_topology(2);
        let narrow = sized_topology(1);
        let p = PlacementRequest::from_topology(&base, &wide, "P").unwrap();
        let q = PlacementRequest::from_topology(&base, &narrow, "Q").unwrap();
        let r = PlacementRequest::from_topology(&base, &wide, "R").unwrap();
        // Preconditions the scenario rests on.
        assert_eq!(q.probes().len(), 2, "one probe per class");
        assert_eq!(q.probes()[0].config.mca_size, 64, "preferred: 1 NC at 64");
        assert_eq!(q.probes()[0].placement.ncs_used, 1);
        assert_eq!(q.probes()[1].placement.ncs_used, 2, "fits the 32-pair");
        assert_eq!(p.probes()[0].config.mca_size, 64);
        assert_eq!(p.probes()[0].placement.ncs_used, 2);
        assert!(
            p.probes()
                .iter()
                .all(|m| m.config.mca_size == 64 || m.placement.ncs_used > 2),
            "the wide tenant must be infeasible on the 32-pair"
        );
        let reqs = vec![p, q, r];

        let greedy = BatchPlacer::new(PlacementStrategy::Greedy).place(&base, &reqs);
        assert_eq!(greedy.admitted_count(), 2);
        let optimized = BatchPlacer::new(PlacementStrategy::Optimized).place(&base, &reqs);
        assert_eq!(optimized.admitted_count(), 3);
        // Every admitted tenant sits on cells of its own class.
        for id in optimized.admitted.iter().flatten() {
            let t = optimized.pool.tenant(*id).unwrap();
            for nc in t.first_nc()..t.end_nc() {
                assert_eq!(optimized.pool.nc_sizes()[nc], t.mapping.config.mca_size);
            }
        }
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let base = FabricPool::new(ResparcConfig::resparc_64());
        let reqs: Vec<PlacementRequest> = [2usize, 5, 4, 2, 1]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                PlacementRequest::from_topology(&base, &sized_topology(w), &format!("t{i}"))
                    .unwrap()
            })
            .collect();
        let a = BatchPlacer::new(PlacementStrategy::Optimized)
            .with_seed(7)
            .place(&base, &reqs);
        let b = BatchPlacer::new(PlacementStrategy::Optimized)
            .with_seed(7)
            .place(&base, &reqs);
        assert_eq!(a.pool.occupancy(), b.pool.occupancy());
        assert_eq!(a.admitted, b.admitted);
        assert_eq!((a.bus_trips, a.fragments), (b.bus_trips, b.fragments));
    }
}
