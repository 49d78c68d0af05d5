//! Search-based batch placement: `PlacementStrategy::{Greedy, Optimized}`.
//!
//! Greedy admission (the [`FabricPool`] entry points) places each
//! tenant the moment it arrives, in arrival order, at whatever run the
//! pool's [`PackingPolicy`] picks. That
//! is the *oracle*: simple, online, and the baseline every figure
//! reports. But when a **batch** of requests is known up front, the
//! admission order and — on a heterogeneous pool — each request's MCA
//! size class are free variables, and first-fit over a fragmented pool
//! is famously sensitive to both. [`PlacementStrategy::Optimized`]
//! searches that space exactly, depth first, over the existing
//! probe/[`can_admit_sized`](FabricPool::can_admit_sized)/
//! [`admit_mapped`](FabricPool::admit_mapped) API — no external
//! solver, no re-partitioning (every probe is mapped once per class,
//! then only *translated*), and no wall-clock or entropy inputs, so a
//! given `(pool, requests)` always returns the same placement.
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
//! # The search and the oracle contract
//!
//! [`PlacementStrategy::Greedy`] is the plain sequential loop — arrival
//! order, first class with room in preference order — and reproduces
//! sequential [`FabricPool::admit`] exactly (unit-tested). It is also
//! the first incumbent of [`PlacementStrategy::Optimized`], a depth-first
//! search that tries every unplaced request that fits now, in request
//! order, at every class with room, in preference order. A node where no
//! unplaced request fits is a leaf. Every leaf is a layout some admission
//! order × class rotation reaches, and a schedule's layout that is no
//! leaf still has room for a request it skipped, so some leaf admits
//! more; the search thus returns the best key over that space (tested
//! against brute force in `tests/proptests.rs`).
//!
//! Under `FirstFit` and `BestFit` a request with no room is dropped for
//! its subtree, because an admission only shrinks the free runs, and a
//! subtree is cut when its admitted plus remaining requests fall short
//! of the incumbent's admits. Under [`Defragment`](PackingPolicy::Defragment)
//! an admission can change how compaction packs a class of several
//! healthy segments and so make room for a request that had none, so
//! every unplaced request is probed again at every node and nothing is
//! cut.
//!
//! **Tie-break:** only a strictly larger key replaces the incumbent, so
//! ties keep the earliest schedule and greedy wins every tie: by
//! construction, `optimized.admitted ≥ greedy.admitted`, with bus trips
//! and fragmentation no worse at equal admits.

use resparc_neuro::network::Network;
use resparc_neuro::topology::Topology;

use crate::fabric::pool::footprint;
use crate::fabric::{FabricPool, PackingPolicy, TenantId};
use crate::map::{MapError, Mapping, Placement};

/// How a batch of admission requests is placed onto a [`FabricPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Sequential admission in arrival order, preferred size classes —
    /// exactly [`FabricPool::admit`] per request. The oracle the
    /// optimizer is measured against.
    #[default]
    Greedy,
    /// Exact depth-first search over admission order and per-request
    /// size class, starting from the greedy schedule and keeping the
    /// first placement with the best key — never worse than
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
    /// Layouts scored: 1 for greedy; for the optimizer, the greedy
    /// incumbent plus every leaf the search scored (its first leaf
    /// repeats greedy's schedule unless an admission made room for a
    /// request greedy skipped).
    pub evaluations: usize,
}

impl BatchPlacement {
    /// Scores the layout `pool` holds after a schedule admitted
    /// `admitted`: one evaluation.
    fn scored(pool: FabricPool, admitted: Vec<Option<TenantId>>) -> Self {
        let bus_trips = admitted
            .iter()
            .flatten()
            .filter_map(|&id| pool.tenant(id))
            .map(|t| bus_crossings(&t.mapping.placement))
            .sum();
        let fragments = pool.free_fragments();
        Self {
            pool,
            admitted,
            bus_trips,
            fragments,
            evaluations: 1,
        }
    }

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

impl PlacementStrategy {
    /// Places `requests` onto a clone of `pool`, whose residents and
    /// unhealthy cells stay fixed obstacles; see the [module docs](self).
    /// Every admission goes through [`FabricPool::admit_mapped`] under
    /// the pool's own packing policy, so every layout scored keeps the
    /// pool's invariants (capacity, disjointness, health, size classes).
    ///
    /// # Cost
    ///
    /// `Greedy` scores one schedule; `Optimized` scores up to n!·Πclasses
    /// leaves for n requests, one pool clone per search node, with no
    /// budget or cut-off (no caller places more than four requests).
    /// Worst cases, where nothing is cut, on n copies of a 1-NC MLP
    /// (144-576-10, 2 NCs at MCA 32); release build, one pinned CPU of a
    /// 2-vCPU VM, best of 2–5 calls, range over four runs:
    ///
    /// | n | 16×64 pool: n! leaves | time | 16×64 + 16×32 pool: n!·2ⁿ leaves | time |
    /// |---|---|---|---|---|
    /// | 4 | 24 | 0.08–0.11 ms | 384 | 0.7–1.2 ms |
    /// | 5 | 120 | 0.4–0.6 ms | 3,840 | 8–14 ms |
    /// | 6 | 720 | 2.9–4.5 ms | 46,080 | 118–205 ms |
    /// | 7 | 5,040 | 22–40 ms | 645,120 | 1.8–2.4 s |
    /// | 8 | 40,320 | 204–350 ms | 10,321,920 | 43 s (one run) |
    ///
    /// # Examples
    ///
    /// On an uncontended pool every schedule admits the whole batch, and
    /// the search keeps greedy's layout:
    ///
    /// ```
    /// use resparc_core::fabric::FabricPool;
    /// use resparc_core::map::{PlacementRequest, PlacementStrategy};
    /// use resparc_core::ResparcConfig;
    /// use resparc_neuro::topology::Topology;
    ///
    /// let pool = FabricPool::new(ResparcConfig::resparc_64());
    /// let mlp = Topology::mlp(144, &[576, 10]);
    /// let reqs = vec![PlacementRequest::from_topology(&pool, &mlp, "t")?; 3];
    /// let greedy = PlacementStrategy::Greedy.place(&pool, &reqs);
    /// let optimized = PlacementStrategy::Optimized.place(&pool, &reqs);
    /// assert_eq!(optimized.admitted_count(), 3);
    /// assert_eq!(optimized.pool.occupancy(), greedy.pool.occupancy());
    /// # Ok::<(), resparc_core::map::MapError>(())
    /// ```
    pub fn place(self, pool: &FabricPool, requests: &[PlacementRequest]) -> BatchPlacement {
        let greedy = greedy(pool, requests);
        if self == PlacementStrategy::Greedy {
            return greedy;
        }
        let mut search = Search {
            requests,
            admitted: vec![None; requests.len()],
            best: greedy,
            leaves: 0,
        };
        search.visit(pool.clone(), &(0..requests.len()).collect::<Vec<_>>(), 0);
        BatchPlacement {
            evaluations: 1 + search.leaves,
            ..search.best
        }
    }
}

/// Whether `probe`'s class has room for it in `pool` right now.
fn has_room(pool: &FabricPool, probe: &Mapping) -> bool {
    let (needed, class) = footprint(probe);
    pool.can_admit_sized(needed, class)
}

/// Sequential admission in arrival order, each request at its first
/// class with room — [`FabricPool::admit`] per request.
fn greedy(pool: &FabricPool, requests: &[PlacementRequest]) -> BatchPlacement {
    let mut pool = pool.clone();
    let admitted = requests
        .iter()
        .map(|req| {
            let probe = req.probes.iter().find(|p| has_room(&pool, p))?;
            pool.admit_mapped(probe.clone(), &req.name).ok()
        })
        .collect();
    BatchPlacement::scored(pool, admitted)
}

/// The depth-first search: the requests, the admissions on the current
/// path, the incumbent and the leaves scored so far.
struct Search<'a> {
    requests: &'a [PlacementRequest],
    admitted: Vec<Option<TenantId>>,
    best: BatchPlacement,
    leaves: usize,
}

impl Search<'_> {
    /// Searches below the node `pool`, where `placed` requests are
    /// admitted and `open` lists the unplaced ones still in play.
    fn visit(&mut self, pool: FabricPool, open: &[usize], placed: usize) {
        let requests = self.requests;
        let fits: Vec<(usize, Vec<&Mapping>)> = open
            .iter()
            .map(|&r| {
                let probes = requests[r].probes.iter();
                (r, probes.filter(|p| has_room(&pool, p)).collect::<Vec<_>>())
            })
            .filter(|(_, probes)| !probes.is_empty())
            .collect();
        // Only `Defragment` can make room for a request that had none (see
        // the module docs), so only there does every open request stay.
        let open: Vec<usize> = match pool.policy() {
            PackingPolicy::Defragment => open.to_vec(),
            PackingPolicy::FirstFit | PackingPolicy::BestFit => {
                fits.iter().map(|&(r, _)| r).collect()
            }
        };
        // `<`, not `≤`: a subtree that can only tie on admits may still
        // win on bus trips or fragments.
        if placed + open.len() < self.best.admitted_count() {
            return;
        }
        if fits.is_empty() {
            self.leaves += 1;
            let leaf = BatchPlacement::scored(pool, self.admitted.clone());
            // Strictly larger: ties keep the earliest schedule, greedy's.
            if leaf.key() > self.best.key() {
                self.best = leaf;
            }
            return;
        }
        for (r, probes) in fits {
            let rest: Vec<usize> = open.iter().copied().filter(|&o| o != r).collect();
            for probe in probes {
                let mut child = pool.clone();
                self.admitted[r] = child.admit_mapped(probe.clone(), &requests[r].name).ok();
                self.visit(child, &rest, placed + 1);
            }
            self.admitted[r] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResparcConfig;
    use crate::fabric::pool::tests::sized_topology;

    /// One request per entry of `widths`, each a topology of that many
    /// NeuroCells on RESPARC-64.
    fn requests(pool: &FabricPool, widths: &[usize]) -> Vec<PlacementRequest> {
        widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                PlacementRequest::from_topology(pool, &sized_topology(w), &format!("t{i}")).unwrap()
            })
            .collect()
    }

    #[test]
    fn greedy_strategy_reproduces_sequential_admission_exactly() {
        let base = FabricPool::new(ResparcConfig::resparc_64()).with_policy(PackingPolicy::BestFit);
        let widths = [2usize, 5, 1, 4, 2];
        let reqs = requests(&base, &widths);

        let batch = PlacementStrategy::Greedy.place(&base, &reqs);
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

        let reqs = requests(&base, &[2, 4]);
        let greedy = PlacementStrategy::Greedy.place(&base, &reqs);
        assert_eq!(greedy.admitted_count(), 1, "first-fit splits the 4-hole");
        let optimized = PlacementStrategy::Optimized.place(&base, &reqs);
        assert_eq!(optimized.admitted_count(), 2, "reordering packs both");
        // `fig_packing`'s fragmented shape: the greedy incumbent plus one
        // leaf per admission order.
        assert_eq!(optimized.evaluations, 3);
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

        let greedy = PlacementStrategy::Greedy.place(&base, &reqs);
        assert_eq!(greedy.admitted_count(), 2);
        let optimized = PlacementStrategy::Optimized.place(&base, &reqs);
        assert_eq!(optimized.admitted_count(), 3);
        // `fig_packing`'s mixed shape: greedy plus seven leaves. Once a
        // leaf admits three, the cut skips the two leaves that admit two.
        assert_eq!(optimized.evaluations, 8);
        // Every admitted tenant sits on cells of its own class.
        for id in optimized.admitted.iter().flatten() {
            let t = optimized.pool.tenant(*id).unwrap();
            for nc in t.first_nc()..t.end_nc() {
                assert_eq!(optimized.pool.nc_sizes()[nc], t.mapping.config.mca_size);
            }
        }
    }

    /// `fig_packing`'s uncontended shape: each of the 4! admission orders
    /// admits all four requests, so nothing is cut (greedy plus 24
    /// leaves), every leaf ties, and greedy's layout is kept. With the
    /// other two shapes' counts, this catches a lost cut or a search that
    /// revisits leaves.
    #[test]
    fn optimized_scores_every_order_and_keeps_greedy_on_a_tie() {
        let base = FabricPool::new(ResparcConfig::resparc_64()).with_policy(PackingPolicy::BestFit);
        let reqs = requests(&base, &[4, 2, 1, 2]);
        let greedy = PlacementStrategy::Greedy.place(&base, &reqs);
        let optimized = PlacementStrategy::Optimized.place(&base, &reqs);
        assert_eq!(optimized.evaluations, 25);
        assert_eq!(optimized.admitted, greedy.admitted);
        assert_eq!(optimized.pool.occupancy(), greedy.pool.occupancy());
    }

    /// Under `Defragment` an admission can make room for a request that
    /// had none. Two failed cells split one class into segments of 6, 7
    /// and 11 NCs holding [free, A:1, free ×4], [b1:1, b2:4, free ×2] and
    /// [c1:5, c2:3, c3:3]. Compaction leaves tails of 0, 2 and 5, so a
    /// 6-NC request r has no room. A 1-NC request n best-fits cell 0;
    /// then compaction sends b2 to the second segment, c2 to the first
    /// and c3 to the second, the tails become 0, 0 and 6, and r fits.
    #[test]
    fn optimized_reprobes_requests_an_admission_makes_room_for() {
        let mut base = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[64; 26]);
        base.fail_nc(6);
        base.fail_nc(14);
        let residents: Vec<TenantId> = [1usize, 1, 4, 1, 4, 2, 5, 3, 3]
            .iter()
            .map(|&w| base.admit_topology(&sized_topology(w), "resident").unwrap())
            .collect();
        for k in [0, 2, 5] {
            base.evict(residents[k]);
        }
        let base = base.with_policy(PackingPolicy::Defragment);
        assert!(!base.can_admit_sized(6, 64));

        let reqs = requests(&base, &[6, 1]);
        let greedy = PlacementStrategy::Greedy.place(&base, &reqs);
        assert_eq!(greedy.admitted_count(), 1, "r comes first");
        assert!(greedy.pool.can_admit_sized(6, 64), "n made room");
        let optimized = PlacementStrategy::Optimized.place(&base, &reqs);
        assert_eq!(optimized.admitted_count(), 2);
    }

    #[test]
    fn placement_is_deterministic() {
        let base = FabricPool::new(ResparcConfig::resparc_64());
        let reqs: Vec<PlacementRequest> = [2usize, 5, 4, 2, 1]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                PlacementRequest::from_topology(&base, &sized_topology(w), &format!("t{i}"))
                    .unwrap()
            })
            .collect();
        let a = PlacementStrategy::Optimized.place(&base, &reqs);
        let b = PlacementStrategy::Optimized.place(&base, &reqs);
        assert_eq!(a.pool.occupancy(), b.pool.occupancy());
        assert_eq!(a.admitted, b.admitted);
        assert_eq!((a.bus_trips, a.fragments), (b.bus_trips, b.fragments));
    }
}
