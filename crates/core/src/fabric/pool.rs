//! The physical NeuroCell inventory and its admission policies.
//!
//! A [`FabricPool`] tracks per-NC ownership of one chip. Admission maps
//! the candidate network at origin 0 once per size class of the
//! inventory (the *probes*), asks the configured [`PackingPolicy`] for a
//! contiguous free run of each probe's NC footprint in greedy class
//! order, and translates the first probe that gets one into its run — a
//! pure coordinate shift, so the expensive partitioning runs exactly
//! once per class. A
//! homogeneous pool is the one-class case: one probe, one partitioning.
//! Eviction restores the free list exactly (property-tested in
//! `tests/proptests.rs`).
//!
//! Every NC additionally carries an [`NcHealth`] state. A *free* NC is
//! one that is both unoccupied **and** healthy: quarantined
//! ([`FabricPool::drain_nc`]) and failed ([`FabricPool::fail_nc`])
//! cells are invisible to free-run admission and to
//! [`FabricPool::largest_free_run`], and
//! [`FabricPool::defragment`] compacts resident tenants *around* them
//! (tenants pack into the earliest healthy segments instead of one
//! leftmost prefix). Taking out an **occupied** cell evicts the
//! resident tenant — its whole run frees — and returns it so a
//! scheduler can re-queue it for recovery.
//!
//! # Heterogeneous inventories
//!
//! A pool built with [`FabricPool::heterogeneous`] carries a per-NC
//! **size class** — the MCA dimension its crossbars were fabricated at
//! (mixed 32/64/128 inventories in the paper's design space). A tenant
//! mapped at class `s` only fits a contiguous free run of class-`s`
//! cells: runs never span a size boundary, exactly as they never span
//! an unhealthy cell. All run accounting is therefore *size-aware* —
//! [`FabricPool::largest_free_run`] reports the longest
//! **uniform-class** free run (a long run of small cells is not
//! admissible capacity for a large-class tenant), and the admission
//! queries are per class ([`FabricPool::largest_free_run_for`],
//! [`FabricPool::max_admissible_run_for`],
//! [`FabricPool::can_admit_sized`]).
//! On a homogeneous pool every cell shares one class and all of this
//! degenerates bit-identically to the historical behaviour.

use resparc_neuro::network::Network;
use resparc_neuro::topology::Topology;

use crate::config::ResparcConfig;
use crate::fabric::{AdmitError, Tenant, TenantId};
use crate::map::{MapError, Mapper, Mapping};

/// A contiguous uniform-class NC run as `(start_nc, len, mca_size)`:
/// every cell in the run shares the MCA size class `mca_size`.
type ClassRun = (usize, usize, usize);

/// A probe's NeuroCell footprint and size class. Greedy admission
/// prefers probes in ascending order of this key: the smallest
/// footprint first, ties to the smaller (cheaper) crossbar.
pub(crate) fn footprint(probe: &Mapping) -> (usize, usize) {
    (probe.placement.ncs_used.max(1), probe.config.mca_size)
}

/// Health of one physical NeuroCell.
///
/// Lifecycle: `Healthy ⇄ Quarantined` via [`FabricPool::drain_nc`] /
/// [`FabricPool::restore_nc`] (maintenance that is expected to end),
/// and `Healthy | Quarantined → Failed` via [`FabricPool::fail_nc`]
/// (permanent — there is no way back from `Failed`). Only `Healthy`
/// cells participate in admission; an occupied cell is always
/// `Healthy`, because taking a cell out of service evicts its tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum NcHealth {
    /// In service: admissible when unoccupied.
    #[default]
    Healthy,
    /// Drained for maintenance: not admissible, restorable.
    Quarantined,
    /// Permanently dead: never admissible again.
    Failed,
}

impl std::fmt::Display for NcHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NcHealth::Healthy => "healthy",
            NcHealth::Quarantined => "quarantined",
            NcHealth::Failed => "failed",
        })
    }
}

/// How a [`FabricPool`] chooses the free NC run an admission receives.
///
/// The policy only picks *where* a tenant lands — the tenant's footprint
/// (its probe mapping) is policy-independent, so switching policies never
/// changes what a tenant costs to replay, only whether and where it fits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PackingPolicy {
    /// The leftmost contiguous free run that fits — the cheapest probe
    /// and the historical default.
    #[default]
    FirstFit,
    /// The smallest contiguous free run that fits (leftmost on ties):
    /// small tenants fill holes instead of splitting the large runs big
    /// tenants will need.
    BestFit,
    /// Best-fit, falling back to **compaction**: when no contiguous run
    /// fits but the pool's *total* free capacity does,
    /// [`FabricPool::defragment`] slides every resident tenant toward
    /// NC 0 (pure whole-NC translation, no re-partitioning) and the
    /// admission retries on the now-contiguous free tail — turning a
    /// fragmented [`AdmitError::CapacityExhausted`] into a successful
    /// admit.
    Defragment,
}

/// The physical NC/mPE inventory of one chip, shared by many tenants.
///
/// # Examples
///
/// Admission hands out disjoint contiguous NC runs and eviction returns
/// them:
///
/// ```
/// use resparc_core::fabric::FabricPool;
/// use resparc_core::ResparcConfig;
/// use resparc_neuro::topology::Topology;
///
/// let mut pool = FabricPool::new(ResparcConfig::resparc_64());
/// let a = pool.admit_topology(&Topology::mlp(96, &[64, 10]), "kws")?;
/// let b = pool.admit_topology(&Topology::mlp(144, &[96, 10]), "mnist")?;
/// let (ta, tb) = (pool.tenant(a).unwrap(), pool.tenant(b).unwrap());
/// assert!(ta.end_nc() <= tb.first_nc()); // disjoint pool coordinates
/// assert_eq!(pool.occupied_ncs(), ta.nc_count() + tb.nc_count());
///
/// let evicted = pool.evict(a).expect("a was resident");
/// assert_eq!(evicted.id, a);
/// assert_eq!(pool.occupied_ncs(), pool.tenant(b).unwrap().nc_count());
/// # Ok::<(), resparc_core::fabric::AdmitError>(())
/// ```
///
/// A defragmenting pool admits through fragmentation a first-fit pool
/// rejects — compare the two policies on the same admission sequence:
///
/// ```
/// use resparc_core::fabric::{AdmitError, FabricPool, PackingPolicy};
/// use resparc_core::ResparcConfig;
/// use resparc_neuro::topology::Topology;
///
/// let two_nc = Topology::mlp(144, &[576, 576, 10]); // 2 NCs on RESPARC-64
/// let wide = Topology::mlp(144, &[576, 576, 576, 10]); // 4 NCs: wider than any hole
/// let fragment = |pool: &mut FabricPool| {
///     // Fill the 16-NC pool with 2-NC tenants, then evict every other
///     // one: 8 NCs free, but only 2-NC holes remain.
///     let ids: Vec<_> = (0..8)
///         .map(|i| pool.admit_topology(&two_nc, &format!("t{i}")).unwrap())
///         .collect();
///     for id in ids.iter().step_by(2) {
///         pool.evict(*id);
///     }
/// };
///
/// let mut first_fit = FabricPool::new(ResparcConfig::resparc_64());
/// fragment(&mut first_fit);
/// assert!(matches!(
///     first_fit.admit_topology(&wide, "wide"),
///     Err(AdmitError::CapacityExhausted { .. })
/// ));
///
/// let mut defrag = FabricPool::new(ResparcConfig::resparc_64())
///     .with_policy(PackingPolicy::Defragment);
/// fragment(&mut defrag);
/// let id = defrag.admit_topology(&wide, "wide")?; // compaction made room
/// assert!(defrag.tenant(id).is_some());
/// # Ok::<(), resparc_core::fabric::AdmitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FabricPool {
    config: ResparcConfig,
    policy: PackingPolicy,
    /// Per-physical-NC owner; `None` = unoccupied. Together with
    /// `health` this *is* the free list (free = unoccupied **and**
    /// healthy): eviction must restore it exactly (property-tested).
    occupancy: Vec<Option<TenantId>>,
    /// Per-physical-NC health, parallel to `occupancy`. Invariant: an
    /// occupied cell is `Healthy` — `fail_nc`/`drain_nc` evict the
    /// occupant and admission only lands on healthy runs.
    health: Vec<NcHealth>,
    /// Per-physical-NC MCA size class, parallel to `occupancy`. A
    /// homogeneous pool repeats `config.mca_size`; admission runs never
    /// cross a class boundary.
    nc_sizes: Vec<usize>,
    tenants: Vec<Tenant>,
    next_id: u32,
    /// Fraction of full leakage power the *idle* (unowned) NC domain
    /// draws; `1.0` = ungated (the historical always-powered pool).
    idle_gating: f64,
}

impl FabricPool {
    /// Creates an empty pool over the machine's `physical_ncs`
    /// NeuroCells, packing with [`PackingPolicy::FirstFit`] and idle
    /// NCs ungated (billed at full leakage rate).
    pub fn new(config: ResparcConfig) -> Self {
        let nc_sizes = vec![config.mca_size; config.physical_ncs];
        Self::with_inventory(config, nc_sizes)
    }

    /// Creates an empty pool over a **heterogeneous** NC inventory:
    /// `nc_sizes[i]` is the MCA dimension NC `i` was fabricated at
    /// (e.g. `&[32, 32, 64, 64, 128]` for a mixed chip). The machine
    /// shape otherwise follows `config` — `config.physical_ncs` is
    /// overridden to `nc_sizes.len()`, and `config.mca_size` remains
    /// the *default class*: the one callers mapping against
    /// [`config`](Self::config) use.
    ///
    /// A tenant admitted onto a heterogeneous pool lands on a
    /// contiguous run of cells **all of its own class** (the class its
    /// probe was mapped at — `probe.config.mca_size`). The convenience
    /// entry points [`admit`](Self::admit) /
    /// [`admit_topology`](Self::admit_topology) map the candidate once
    /// per class present in the inventory and greedily admit into the
    /// class with the smallest NC footprint (ties to the smaller MCA);
    /// [`admit_mapped`](Self::admit_mapped) trusts the caller's class
    /// choice.
    ///
    /// # Examples
    ///
    /// ```
    /// use resparc_core::fabric::FabricPool;
    /// use resparc_core::ResparcConfig;
    ///
    /// let pool =
    ///     FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[32, 32, 64, 64, 64, 128]);
    /// assert_eq!(pool.physical_ncs(), 6);
    /// assert_eq!(pool.size_classes(), vec![32, 64, 128]);
    /// // The longest *uniform-class* free run is the three 64s, even
    /// // though all six cells are free and contiguous.
    /// assert_eq!(pool.largest_free_run(), 3);
    /// assert_eq!(pool.largest_free_run_for(128), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `nc_sizes` is empty or contains a zero size.
    pub fn heterogeneous(mut config: ResparcConfig, nc_sizes: &[usize]) -> Self {
        assert!(
            !nc_sizes.is_empty(),
            "a heterogeneous pool needs at least one NC"
        );
        assert!(
            nc_sizes.iter().all(|&s| s > 0),
            "every NC size class must be positive, got {nc_sizes:?}"
        );
        config.physical_ncs = nc_sizes.len();
        // A uniform inventory is just a homogeneous pool of that class:
        // anchor the base config to it so callers mapping against
        // `config()` use the right crossbar.
        if nc_sizes.windows(2).all(|w| w[0] == w[1]) {
            config.mca_size = nc_sizes[0];
        }
        Self::with_inventory(config, nc_sizes.to_vec())
    }

    /// The constructor body [`new`](Self::new) and
    /// [`heterogeneous`](Self::heterogeneous) share: an empty,
    /// all-healthy, first-fit, ungated pool over `nc_sizes`.
    fn with_inventory(config: ResparcConfig, nc_sizes: Vec<usize>) -> Self {
        let slots = nc_sizes.len();
        Self {
            config,
            policy: PackingPolicy::FirstFit,
            occupancy: vec![None; slots],
            health: vec![NcHealth::Healthy; slots],
            nc_sizes,
            tenants: Vec::new(),
            next_id: 0,
            idle_gating: 1.0,
        }
    }

    /// Sets the packing policy future admissions use (resident tenants
    /// are not moved until a [`PackingPolicy::Defragment`] admission
    /// needs the room).
    pub fn with_policy(mut self, policy: PackingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Power-gates the pool's *idle* NC domain: NeuroCells (and their
    /// mPEs/switches) no resident tenant owns are billed at `factor` ×
    /// full leakage power instead of full rate. The occupied domain and
    /// the shared input SRAM always leak at full rate — gating is
    /// partial-pool, per the floorplan, not per-round.
    ///
    /// The default `1.0` reproduces the historical always-powered
    /// accounting bit-identically (`x × 1.0 ≡ x` in IEEE-754), which is
    /// asserted in tests; `0.0` models perfect gating where an unowned
    /// NC costs nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use resparc_core::fabric::{FabricPool, SharedEventSimulator};
    /// use resparc_core::ResparcConfig;
    /// use resparc_neuro::encoding::RegularEncoder;
    /// use resparc_neuro::network::Network;
    /// use resparc_neuro::topology::Topology;
    ///
    /// let net = Network::random(Topology::mlp(96, &[64, 10]), 7, 1.0);
    /// let raster = RegularEncoder::new(0.9).encode(&vec![0.5; 96], 6);
    /// let (_, trace) = net.spiking().run_traced(&raster);
    ///
    /// let run = |factor: f64| {
    ///     let mut pool =
    ///         FabricPool::new(ResparcConfig::resparc_64()).with_idle_gating(factor);
    ///     let id = pool.admit(&net, "solo").unwrap();
    ///     SharedEventSimulator::new(&pool).run_weighted(&[(id, &trace)], &[1])
    /// };
    /// let (gated, ungated) = (run(0.1), run(1.0));
    /// // Same replay, same ledger — only the idle domain's bill shrinks.
    /// assert_eq!(gated.energy, ungated.energy);
    /// assert!(gated.idle_leakage < ungated.idle_leakage);
    /// assert!((gated.idle_leakage.picojoules()
    ///     / ungated.idle_leakage.picojoules()
    ///     - 0.1).abs() < 1e-12);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= factor <= 1.0`.
    pub fn with_idle_gating(mut self, factor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&factor),
            "idle-gating factor must be in [0, 1], got {factor}"
        );
        self.idle_gating = factor;
        self
    }

    /// The idle-domain leakage factor (`1.0` = ungated; see
    /// [`with_idle_gating`](Self::with_idle_gating)).
    pub fn idle_gating(&self) -> f64 {
        self.idle_gating
    }

    /// The packing policy admissions use.
    pub fn policy(&self) -> PackingPolicy {
        self.policy
    }

    /// The machine configuration every tenant is mapped against.
    pub fn config(&self) -> &ResparcConfig {
        &self.config
    }

    /// Physical NeuroCells on the chip.
    pub fn physical_ncs(&self) -> usize {
        self.occupancy.len()
    }

    /// Per-NC ownership (`None` = free), in NC order.
    pub fn occupancy(&self) -> &[Option<TenantId>] {
        &self.occupancy
    }

    /// Per-NC health, in NC order (parallel to
    /// [`occupancy`](Self::occupancy)).
    pub fn nc_health(&self) -> &[NcHealth] {
        &self.health
    }

    /// Per-NC MCA size class, in NC order (parallel to
    /// [`occupancy`](Self::occupancy)). Homogeneous pools repeat
    /// `config().mca_size`.
    pub fn nc_sizes(&self) -> &[usize] {
        &self.nc_sizes
    }

    /// The distinct MCA size classes present in the inventory, sorted
    /// ascending. A homogeneous pool has exactly one.
    pub fn size_classes(&self) -> Vec<usize> {
        let mut classes = self.nc_sizes.clone();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// The machine configuration for mapping a tenant onto class
    /// `mca_size` cells: [`config`](Self::config) with its `mca_size`
    /// swapped. Probes handed to [`admit_mapped`](Self::admit_mapped)
    /// for a given class must be produced against this.
    pub fn class_config(&self, mca_size: usize) -> ResparcConfig {
        let mut cfg = self.config.clone();
        cfg.mca_size = mca_size;
        cfg
    }

    /// Free NeuroCells (any position): unoccupied **and** healthy — the
    /// capacity admission can actually use. Quarantined and failed
    /// cells are not free.
    pub fn free_ncs(&self) -> usize {
        self.occupancy
            .iter()
            .zip(&self.health)
            .filter(|(s, h)| s.is_none() && **h == NcHealth::Healthy)
            .count()
    }

    /// NeuroCells currently owned by tenants.
    pub fn occupied_ncs(&self) -> usize {
        self.occupancy.iter().filter(|s| s.is_some()).count()
    }

    /// NeuroCells currently quarantined (drained, restorable).
    pub fn quarantined_ncs(&self) -> usize {
        self.health
            .iter()
            .filter(|h| **h == NcHealth::Quarantined)
            .count()
    }

    /// NeuroCells permanently failed.
    pub fn failed_ncs(&self) -> usize {
        self.health
            .iter()
            .filter(|h| **h == NcHealth::Failed)
            .count()
    }

    /// Fraction of the pool's NeuroCells owned by tenants.
    pub fn utilization(&self) -> f64 {
        if self.occupancy.is_empty() {
            return 0.0;
        }
        self.occupied_ncs() as f64 / self.physical_ncs() as f64
    }

    /// Longest contiguous free NC run (what the next admission can get
    /// without compaction). Runs never span unhealthy cells **or size
    /// class boundaries** — on a heterogeneous pool this is the longest
    /// *uniform-class* free run, since a run of mixed-size cells is not
    /// usable capacity for any single tenant.
    pub fn largest_free_run(&self) -> usize {
        self.free_runs()
            .into_iter()
            .map(|(_, len, _)| len)
            .max()
            .unwrap_or(0)
    }

    /// Longest contiguous free run of class-`mca_size` NCs — what the
    /// next admission *of that class* can get without compaction.
    pub fn largest_free_run_for(&self, mca_size: usize) -> usize {
        self.free_runs_for(mca_size)
            .into_iter()
            .map(|(_, len, _)| len)
            .max()
            .unwrap_or(0)
    }

    /// Longest contiguous healthy run of class-`mca_size` NCs, occupied
    /// or not — the hard ceiling on what any future admission of that
    /// class could ever receive, however many tenants depart and however
    /// the pool compacts. A request needing more can never be served
    /// while the unhealthy cells stay out (a [`FabricScheduler`] uses
    /// this to abort unservable queued requests instead of waiting
    /// forever). Healthy runs never span a size class boundary, so on a
    /// heterogeneous pool a long healthy stretch of *small* cells gives
    /// a *large* class nothing.
    ///
    /// [`FabricScheduler`]: crate::fabric::FabricScheduler
    pub fn max_admissible_run_for(&self, mca_size: usize) -> usize {
        self.healthy_segments_for(mca_size)
            .into_iter()
            .map(|(_, len, _)| len)
            .max()
            .unwrap_or(0)
    }

    /// Number of maximal free fragments (uniform-class free runs): the
    /// fragmentation signal an optimizing placer minimises — fewer,
    /// larger holes admit wider future tenants.
    pub fn free_fragments(&self) -> usize {
        self.free_runs().len()
    }

    /// Resident tenants, in admission order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Looks up a resident tenant by id.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Whether an admission needing `needed_ncs` contiguous NeuroCells
    /// of class `mca_size` would currently succeed under the pool's
    /// policy (counting the room a [`PackingPolicy::Defragment`]
    /// compaction would free, but performing no mutation).
    /// [`FabricScheduler`] probes with it before committing a queued
    /// request.
    ///
    /// [`FabricScheduler`]: crate::fabric::FabricScheduler
    pub fn can_admit_sized(&self, needed_ncs: usize, mca_size: usize) -> bool {
        let needed = needed_ncs.max(1);
        match self.policy {
            PackingPolicy::FirstFit | PackingPolicy::BestFit => {
                self.find_run(needed, mca_size).is_some()
            }
            // Compaction packs tenants into healthy segments: the
            // admissible room is the largest *post-compaction* free
            // tail of this class, not the raw free total (free cells
            // split across dead-NC or class boundaries cannot be
            // fused).
            PackingPolicy::Defragment => {
                self.find_run(needed, mca_size).is_some()
                    || self.post_defrag_largest_run(mca_size) >= needed
            }
        }
    }

    /// Admits a trained network: maps it once per size class, allocates
    /// the free NC run the pool's [`PackingPolicy`] selects for the
    /// preferred class that has room and places the mapping there in
    /// pool coordinates.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Map`] if mapping fails,
    /// [`AdmitError::CapacityExhausted`] if the policy finds no run
    /// (even after defragmentation, when the policy compacts), or
    /// [`AdmitError::NoHealthyCapacity`] when the rejection exists only
    /// because quarantined/failed NCs hold the capacity the request
    /// needs.
    pub fn admit(&mut self, network: &Network, name: &str) -> Result<TenantId, AdmitError> {
        self.admit_choosing_class(|mapper| mapper.map_network(network), name)
    }

    /// Admits a bare topology (mean |weight| 0.5 per layer, as
    /// [`Mapper::map`]); see [`FabricPool::admit`].
    ///
    /// # Errors
    ///
    /// Same as [`FabricPool::admit`].
    pub fn admit_topology(
        &mut self,
        topology: &Topology,
        name: &str,
    ) -> Result<TenantId, AdmitError> {
        self.admit_choosing_class(|mapper| mapper.map(topology), name)
    }

    /// The candidate mapped at origin 0 once per size class of the
    /// inventory, in greedy preference order (see [`footprint`]): the
    /// preferred probe, then the other classes' probes. Classes that
    /// fail to map are skipped. Pool admission, [`PlacementRequest`] and
    /// [`FabricScheduler::submit`] all probe through here, so they agree
    /// on which class a network prefers. A zero-NC pool has no class and
    /// maps against its base configuration, which fails validation.
    ///
    /// # Errors
    ///
    /// The last class's [`MapError`] when no class maps the candidate.
    ///
    /// [`PlacementRequest`]: crate::map::PlacementRequest
    /// [`FabricScheduler::submit`]: crate::fabric::FabricScheduler::submit
    pub(crate) fn class_probes<F>(&self, probe_for: F) -> Result<(Mapping, Vec<Mapping>), MapError>
    where
        F: Fn(&Mapper) -> Result<Mapping, MapError>,
    {
        let mut classes = self.size_classes().into_iter();
        let first = classes.next().unwrap_or(self.config.mca_size);
        let probe = |size| probe_for(&Mapper::new(self.class_config(size)));
        // The smallest-key probe is kept apart; the rest sort once at the
        // end.
        let mut probes = probe(first).map(|p| (p, Vec::new()));
        for size in classes {
            probes = match (probes, probe(size)) {
                (Ok((mut preferred, mut others)), Ok(mut p)) => {
                    if footprint(&p) < footprint(&preferred) {
                        std::mem::swap(&mut p, &mut preferred);
                    }
                    others.push(p);
                    Ok((preferred, others))
                }
                (Ok(probes), Err(_)) => Ok(probes),
                (Err(_), next) => next.map(|p| (p, Vec::new())),
            };
        }
        let (preferred, mut others) = probes?;
        others.sort_by_key(footprint);
        Ok((preferred, others))
    }

    /// The greedy class choice [`admit`] and [`admit_topology`] share,
    /// and the *greedy oracle* an optimizing placer is measured against:
    /// admit the first [`class_probes`](Self::class_probes) probe whose
    /// class has room.
    ///
    /// [`admit`]: Self::admit
    /// [`admit_topology`]: Self::admit_topology
    fn admit_choosing_class<F>(&mut self, probe_for: F, name: &str) -> Result<TenantId, AdmitError>
    where
        F: Fn(&Mapper) -> Result<Mapping, MapError>,
    {
        let (preferred, others) = self.class_probes(probe_for).map_err(AdmitError::Map)?;
        let (needed, class) = footprint(&preferred);
        let fit = std::iter::once(preferred).chain(others).find(|p| {
            let (needed, class) = footprint(p);
            self.can_admit_sized(needed, class)
        });
        match fit {
            Some(probe) => self.admit_mapped(probe, name),
            // No class fits: report the rejection for the preferred
            // class (the one greedy admission would have chosen).
            None => Err(self.capacity_error(needed, class)),
        }
    }

    /// Admits an already-mapped probe (any origin; it is re-anchored
    /// into the allocated run). This is the allocation core `admit` and
    /// `admit_topology` share, and what a [`FabricScheduler`] uses to
    /// avoid re-mapping a queued request on every admission attempt.
    ///
    /// The probe must have been produced against [`FabricPool::config`]
    /// (same machine shape) — on a heterogeneous pool, against
    /// [`class_config`](Self::class_config) for its size class — or the
    /// resulting placement is meaningless. The probe's
    /// `config.mca_size` *is* its class: the allocated run holds only
    /// cells of that class.
    ///
    /// # Errors
    ///
    /// [`AdmitError::CapacityExhausted`] if the policy finds no run (on
    /// a heterogeneous pool its `free_ncs`/`largest_free_run` count the
    /// probe's class only — see [`AdmitError::CapacityExhausted`]), or
    /// [`AdmitError::NoHealthyCapacity`] when only unhealthy NCs stand
    /// between the request and the capacity it needs.
    ///
    /// [`FabricScheduler`]: crate::fabric::FabricScheduler
    pub fn admit_mapped(&mut self, probe: Mapping, name: &str) -> Result<TenantId, AdmitError> {
        // The probe sizes the tenant; translating it into the allocated
        // run is a pure coordinate shift (identical to re-placing there —
        // property-tested), so the expensive partitioning runs exactly
        // once per admission.
        let (needed, class) = footprint(&probe);
        let origin = match self.find_run(needed, class) {
            Some(origin) => origin,
            None if self.policy == PackingPolicy::Defragment
                && self.post_defrag_largest_run(class) >= needed =>
            {
                self.defragment();
                match self.find_run(needed, class) {
                    Some(origin) => origin,
                    // The compaction plan guaranteed a fitting free
                    // run; tolerate a miss as plain exhaustion rather
                    // than panicking mid-admission.
                    None => return Err(self.capacity_error(needed, class)),
                }
            }
            None => return Err(self.capacity_error(needed, class)),
        };
        let mut mapping = probe;
        if origin != mapping.placement.origin_nc {
            mapping.placement = mapping.placement.translated_to(origin, &self.config);
        }
        let id = TenantId(self.next_id);
        self.next_id += 1;
        for slot in &mut self.occupancy[origin..origin + needed] {
            *slot = Some(id);
        }
        self.tenants.push(Tenant {
            id,
            name: name.to_string(),
            mapping,
        });
        Ok(id)
    }

    /// Evicts a tenant, freeing its NC run; returns it (with its
    /// pool-coordinate mapping) or `None` if the id is not resident.
    pub fn evict(&mut self, id: TenantId) -> Option<Tenant> {
        let at = self.tenants.iter().position(|t| t.id == id)?;
        let tenant = self.tenants.remove(at);
        for slot in &mut self.occupancy {
            if *slot == Some(id) {
                *slot = None;
            }
        }
        Some(tenant)
    }

    /// Marks NC `nc` permanently [`NcHealth::Failed`]. If the cell is
    /// occupied, the resident tenant is **evicted** (its whole run
    /// frees — the failure costs the tenant its residency, not just one
    /// cell) and returned so the caller can re-queue it for recovery.
    /// Failing an already-unhealthy or free cell returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if `nc` is out of range.
    pub fn fail_nc(&mut self, nc: usize) -> Option<Tenant> {
        assert!(nc < self.physical_ncs(), "NC {nc} out of range");
        self.health[nc] = NcHealth::Failed;
        self.occupancy[nc].and_then(|id| self.evict(id))
    }

    /// Quarantines NC `nc` ([`NcHealth::Quarantined`]): the cell leaves
    /// service — evicting and returning the occupant tenant like
    /// [`fail_nc`](Self::fail_nc) — but can re-enter it via
    /// [`restore_nc`](Self::restore_nc). Draining a failed cell is a
    /// no-op (`Failed` is permanent) and returns `None`.
    ///
    /// # Panics
    ///
    /// Panics if `nc` is out of range.
    pub fn drain_nc(&mut self, nc: usize) -> Option<Tenant> {
        assert!(nc < self.physical_ncs(), "NC {nc} out of range");
        if self.health[nc] == NcHealth::Failed {
            return None;
        }
        self.health[nc] = NcHealth::Quarantined;
        self.occupancy[nc].and_then(|id| self.evict(id))
    }

    /// Returns a quarantined NC to service (`Quarantined → Healthy`);
    /// `false` if the cell was not quarantined (healthy cells have
    /// nothing to restore, failed cells are permanent).
    ///
    /// # Panics
    ///
    /// Panics if `nc` is out of range.
    pub fn restore_nc(&mut self, nc: usize) -> bool {
        assert!(nc < self.physical_ncs(), "NC {nc} out of range");
        if self.health[nc] == NcHealth::Quarantined {
            self.health[nc] = NcHealth::Healthy;
            true
        } else {
            false
        }
    }

    /// Compacts every resident tenant leftward into the earliest
    /// contiguous run of **healthy** NCs with room, in NC order (on an
    /// all-healthy pool this is the classic pack-into-one-prefix; with
    /// unhealthy cells, tenants pack *around* them). Tenants move via
    /// [`Placement::translated_to`](crate::map::Placement::translated_to)
    /// — a pure whole-NC coordinate shift, with **no re-partitioning**:
    /// replaying any trace through a moved tenant charges bit-identical
    /// dynamic energy and cycles (property-tested in
    /// `tests/proptests.rs`). Returns the number of tenants that moved.
    pub fn defragment(&mut self) -> usize {
        let (assignments, _) = self.compaction_plan();
        let mut moved = 0usize;
        for (i, origin) in assignments {
            let tenant = &mut self.tenants[i];
            if tenant.first_nc() != origin {
                tenant.mapping.placement =
                    tenant.mapping.placement.translated_to(origin, &self.config);
                moved += 1;
            }
        }
        for slot in &mut self.occupancy {
            *slot = None;
        }
        for tenant in &self.tenants {
            let (first, end) = (tenant.first_nc(), tenant.end_nc());
            for slot in &mut self.occupancy[first..end] {
                *slot = Some(tenant.id);
            }
        }
        moved
    }

    /// Every maximal contiguous run of cells satisfying `keep`, broken
    /// additionally at size class boundaries, as `(start_nc, len,
    /// mca_size)` in NC order. On a homogeneous pool the class never
    /// changes, so the runs are exactly the historical health/occupancy
    /// runs.
    fn class_runs<F>(&self, keep: F) -> Vec<ClassRun>
    where
        F: Fn(usize) -> bool,
    {
        let mut runs = Vec::new();
        let mut start = 0usize;
        let mut len = 0usize;
        let mut class = 0usize;
        for i in 0..self.nc_sizes.len() {
            let size = self.nc_sizes[i];
            if keep(i) && (len == 0 || size == class) {
                if len == 0 {
                    start = i;
                    class = size;
                }
                len += 1;
            } else {
                if len > 0 {
                    runs.push((start, len, class));
                    len = 0;
                }
                if keep(i) {
                    start = i;
                    class = size;
                    len = 1;
                }
            }
        }
        if len > 0 {
            runs.push((start, len, class));
        }
        runs
    }

    /// Every maximal contiguous free run (unoccupied **healthy** cells
    /// of one class), as `(start_nc, len, mca_size)` in NC order.
    /// Unhealthy cells and class boundaries break runs.
    fn free_runs(&self) -> Vec<ClassRun> {
        self.class_runs(|i| self.occupancy[i].is_none() && self.health[i] == NcHealth::Healthy)
    }

    /// The free runs of one size class only.
    fn free_runs_for(&self, mca_size: usize) -> Vec<ClassRun> {
        let mut runs = self.free_runs();
        runs.retain(|&(_, _, class)| class == mca_size);
        runs
    }

    /// Every maximal contiguous run of healthy NCs of one class
    /// (occupied or not), as `(start_nc, len, mca_size)` in NC order —
    /// the segments compaction packs tenants into.
    fn healthy_segments(&self) -> Vec<ClassRun> {
        self.class_runs(|i| self.health[i] == NcHealth::Healthy)
    }

    /// The healthy segments of one size class only.
    fn healthy_segments_for(&self, mca_size: usize) -> Vec<ClassRun> {
        let mut segments = self.healthy_segments();
        segments.retain(|&(_, _, class)| class == mca_size);
        segments
    }

    /// The greedy compaction assignment [`defragment`](Self::defragment)
    /// applies: tenants in `first_nc` order, each packed into the
    /// earliest healthy segment **of its own size class** with
    /// contiguous room. Returns the `(tenant_index, new_origin)`
    /// assignments plus each segment's leftover free tail as
    /// `(start_nc, len, mca_size)`.
    fn compaction_plan(&self) -> (Vec<(usize, usize)>, Vec<ClassRun>) {
        let segments = self.healthy_segments();
        let mut used = vec![0usize; segments.len()];
        let mut order: Vec<usize> = (0..self.tenants.len()).collect();
        order.sort_by_key(|&i| self.tenants[i].first_nc());
        let mut assignments = Vec::with_capacity(order.len());
        for i in order {
            let size = self.tenants[i].nc_count();
            let tenant_class = self.tenants[i].mapping.config.mca_size;
            // Invariant, not a reachable failure: when the tenants of
            // the k-th healthy segment are processed (first_nc order),
            // every same-class tenant from segments ≤ k has already
            // been packed into segment k or earlier, so segment k never
            // holds more than the current (valid) layout already fits —
            // first-fit always finds room for every resident. Classes
            // cannot interfere: each tenant only competes for segments
            // of its own class.
            let Some(s) = segments
                .iter()
                .zip(&used)
                .position(|(&(_, len, class), &u)| class == tenant_class && len - u >= size)
            else {
                // Unreachable per the invariant above; degrade to
                // keep-in-place so a broken plan never tears a layout.
                debug_assert!(false, "greedy compaction re-fits every resident tenant");
                assignments.push((i, self.tenants[i].first_nc()));
                continue;
            };
            assignments.push((i, segments[s].0 + used[s]));
            used[s] += size;
        }
        let tails = segments
            .iter()
            .zip(&used)
            .filter(|(&(_, len, _), &u)| len > u)
            .map(|(&(start, len, class), &u)| (start + u, len - u, class))
            .collect();
        (assignments, tails)
    }

    /// The largest contiguous class-`mca_size` free run a
    /// [`defragment`](Self::defragment) compaction would leave (pure
    /// probe, no mutation).
    fn post_defrag_largest_run(&self, mca_size: usize) -> usize {
        self.compaction_plan()
            .1
            .into_iter()
            .filter(|&(_, _, class)| class == mca_size)
            .map(|(_, len, _)| len)
            .max()
            .unwrap_or(0)
    }

    /// The typed rejection for a `needed`-NC class-`mca_size` admission
    /// the policy found no run for: [`AdmitError::NoHealthyCapacity`]
    /// when restoring the class's unhealthy cells to healthy free
    /// capacity would cover the request (the sickness is the cause), a
    /// plain [`AdmitError::CapacityExhausted`] otherwise. All counts
    /// are **size-aware** — they tally class-`mca_size` cells only, so
    /// a long run of smaller cells never masquerades as admissible
    /// capacity in the error. On a homogeneous pool every cell is the
    /// one class and the counts match the historical pool-wide values.
    fn capacity_error(&self, needed: usize, mca_size: usize) -> AdmitError {
        let class_cells = |pred: &dyn Fn(usize) -> bool| {
            (0..self.nc_sizes.len())
                .filter(|&i| self.nc_sizes[i] == mca_size && pred(i))
                .count()
        };
        let quarantined = class_cells(&|i| self.health[i] == NcHealth::Quarantined);
        let failed = class_cells(&|i| self.health[i] == NcHealth::Failed);
        let free =
            class_cells(&|i| self.occupancy[i].is_none() && self.health[i] == NcHealth::Healthy);
        if quarantined + failed > 0 && needed <= free + quarantined + failed {
            AdmitError::NoHealthyCapacity {
                needed_ncs: needed,
                quarantined,
                failed,
            }
        } else {
            AdmitError::CapacityExhausted {
                needed_ncs: needed,
                free_ncs: free,
                largest_free_run: self.largest_free_run_for(mca_size),
            }
        }
    }

    /// The free-run start the pool's policy selects for a `len`-NC
    /// class-`mca_size` tenant, or `None` when no run of that class
    /// fits (defragmentation is the caller's fallback, not this
    /// probe's).
    fn find_run(&self, len: usize, mca_size: usize) -> Option<usize> {
        let runs = self.free_runs_for(mca_size);
        let candidates = runs.into_iter().filter(|&(_, run, _)| run >= len);
        match self.policy {
            PackingPolicy::FirstFit => candidates.map(|(start, _, _)| start).next(),
            // Smallest fitting run; leftmost on ties. Defragment packs
            // best-fit first and only compacts when that fails.
            PackingPolicy::BestFit | PackingPolicy::Defragment => candidates
                .min_by_key(|&(start, run, _)| (run, start))
                .map(|(start, _, _)| start),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ResparcConfig;

    fn small_net(seed: u64) -> Network {
        Network::random(Topology::mlp(96, &[64, 10]), seed, 1.0)
    }

    /// A topology occupying exactly `ncs` NeuroCells on RESPARC-64
    /// (verified by the tests that use it).
    pub(crate) fn sized_topology(ncs: usize) -> Topology {
        // Each extra 576-wide hidden layer adds ~21 mPEs, and one
        // 784-input layer takes ~13 mPEs per 256 outputs; the measured
        // footprints below are asserted by the next test.
        match ncs {
            1 => Topology::mlp(144, &[576, 10]),
            2 => Topology::mlp(144, &[576, 576, 10]),
            3 => Topology::mlp(784, &[800]),
            4 => Topology::mlp(144, &[576, 576, 576, 10]),
            5 => Topology::mlp(144, &[576, 576, 576, 576, 10]),
            6 => Topology::mlp(784, &[1728]),
            other => panic!("no sized topology for {other} NCs"),
        }
    }

    #[test]
    fn sized_topologies_have_the_advertised_footprint() {
        let mapper = Mapper::new(ResparcConfig::resparc_64());
        for ncs in 1..=6 {
            let mapping = mapper.map(&sized_topology(ncs)).unwrap();
            assert_eq!(mapping.placement.ncs_used, ncs, "{ncs}-NC topology");
        }
    }

    #[test]
    fn translated_and_moved_tenants_share_the_probes_tiles() {
        use std::sync::Arc;
        let probe = Mapper::new(ResparcConfig::resparc_64())
            .map(&sized_topology(1))
            .unwrap();
        let shares = |pool: &FabricPool, id| {
            Arc::ptr_eq(
                &pool.tenant(id).unwrap().mapping.partitions,
                &probe.partitions,
            )
        };
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let a = pool.admit_mapped(probe.clone(), "a").unwrap();
        let b = pool.admit_mapped(probe.clone(), "b").unwrap();
        assert_eq!(pool.tenant(b).unwrap().first_nc(), 1, "b sits off origin 0");
        assert!(shares(&pool, a) && shares(&pool, b));
        pool.evict(a);
        assert_eq!(pool.defragment(), 1);
        assert_eq!(pool.tenant(b).unwrap().first_nc(), 0, "b moved to NC 0");
        assert!(shares(&pool, b));
        pool.evict(b);
        assert_eq!(
            Arc::strong_count(&probe.partitions),
            1,
            "no copy left behind"
        );
    }

    #[test]
    fn admits_tenants_on_disjoint_nc_runs() {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let a = pool.admit(&small_net(1), "a").unwrap();
        let b = pool.admit(&small_net(2), "b").unwrap();
        assert_ne!(a, b);
        let ta = pool.tenant(a).unwrap();
        let tb = pool.tenant(b).unwrap();
        assert!(ta.end_nc() <= tb.first_nc() || tb.end_nc() <= ta.first_nc());
        assert_eq!(pool.occupied_ncs(), ta.nc_count() + tb.nc_count());
        assert!(pool.utilization() > 0.0);
    }

    #[test]
    fn admission_rejects_when_capacity_exhausted() {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        // The paper's MNIST MLP occupies 8 NCs on RESPARC-64; a third
        // copy cannot fit the 16-NC pool.
        let big = Topology::mlp(784, &[800, 800, 10]);
        pool.admit_topology(&big, "one").unwrap();
        pool.admit_topology(&big, "two").unwrap();
        let err = pool.admit_topology(&big, "three").unwrap_err();
        match err {
            AdmitError::CapacityExhausted {
                needed_ncs,
                free_ncs,
                largest_free_run,
            } => {
                assert!(needed_ncs > largest_free_run);
                assert!(largest_free_run <= free_ncs);
            }
            other => panic!("expected CapacityExhausted, got {other}"),
        }
    }

    #[test]
    fn evict_restores_free_list_exactly() {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let a = pool.admit(&small_net(1), "a").unwrap();
        let before = pool.occupancy().to_vec();
        let b = pool.admit(&small_net(2), "b").unwrap();
        let evicted = pool.evict(b).expect("b resident");
        assert_eq!(evicted.id, b);
        assert_eq!(pool.occupancy(), &before[..]);
        assert!(pool.tenant(b).is_none());
        assert!(pool.tenant(a).is_some());
        assert!(pool.evict(b).is_none(), "double evict must be None");
    }

    #[test]
    fn best_fit_fills_the_smallest_hole_first_fit_the_leftmost() {
        // Layout a(2)@0..2 b(5)@2..7 c(1)@7..8 d(5)@8..13, tail 13..16;
        // evicting a and c leaves holes of width 2 (NC 0) and 1 (NC 7).
        // A 1-NC admission must land at NC 7 under best-fit but NC 0
        // under first-fit.
        let fragment = |pool: &mut FabricPool| {
            let a = pool.admit_topology(&sized_topology(2), "a").unwrap();
            pool.admit_topology(&sized_topology(5), "b").unwrap();
            let c = pool.admit_topology(&sized_topology(1), "c").unwrap();
            pool.admit_topology(&sized_topology(5), "d").unwrap();
            pool.evict(a);
            pool.evict(c);
        };

        let mut best =
            FabricPool::new(ResparcConfig::resparc_64()).with_policy(PackingPolicy::BestFit);
        fragment(&mut best);
        assert_eq!(best.largest_free_run(), 3);
        let id = best.admit_topology(&sized_topology(1), "snug").unwrap();
        assert_eq!(best.tenant(id).unwrap().first_nc(), 7, "smallest hole");
        // The 2-NC hole survives intact for a 2-NC tenant.
        let id2 = best.admit_topology(&sized_topology(2), "pair").unwrap();
        assert_eq!(best.tenant(id2).unwrap().first_nc(), 0);

        let mut first = FabricPool::new(ResparcConfig::resparc_64());
        fragment(&mut first);
        let id = first.admit_topology(&sized_topology(1), "snug").unwrap();
        assert_eq!(first.tenant(id).unwrap().first_nc(), 0, "leftmost hole");
    }

    #[test]
    fn defragment_admits_where_first_fit_exhausts() {
        // The acceptance-criterion scenario: enough total free NCs but
        // no contiguous run. Five 2-NC tenants plus one 5-NC tenant
        // fill 15 of 16 NCs; evicting 2-NC tenants #1 and #3 frees two
        // 2-NC holes (+1 tail). A 4-NC tenant cannot fit any hole —
        // first-fit (and best-fit) reject, the defragmenting pool
        // compacts and admits.
        let fragment = |pool: &mut FabricPool| {
            let ids: Vec<TenantId> = (0..5)
                .map(|i| {
                    pool.admit_topology(&sized_topology(2), &format!("t{i}"))
                        .unwrap()
                })
                .collect();
            pool.admit_topology(&sized_topology(5), "big").unwrap();
            pool.evict(ids[1]);
            pool.evict(ids[3]);
        };

        let mut first = FabricPool::new(ResparcConfig::resparc_64());
        fragment(&mut first);
        assert_eq!(first.free_ncs(), 5);
        assert_eq!(first.largest_free_run(), 2);
        let err = first
            .admit_topology(&sized_topology(4), "wide")
            .unwrap_err();
        assert!(
            matches!(
                err,
                AdmitError::CapacityExhausted {
                    needed_ncs: 4,
                    free_ncs: 5,
                    largest_free_run: 2,
                }
            ),
            "got {err}"
        );

        let mut defrag =
            FabricPool::new(ResparcConfig::resparc_64()).with_policy(PackingPolicy::Defragment);
        fragment(&mut defrag);
        let before: Vec<(TenantId, usize)> = defrag
            .tenants()
            .iter()
            .map(|t| (t.id, t.nc_count()))
            .collect();
        let id = defrag.admit_topology(&sized_topology(4), "wide").unwrap();
        let tenant = defrag.tenant(id).unwrap();
        // Residents were compacted to NCs 0..11; the new tenant fills
        // the reunified tail.
        assert_eq!(tenant.first_nc(), 11);
        assert_eq!(tenant.end_nc(), 15);
        assert_eq!(defrag.free_ncs(), 1);
        // Every pre-defrag resident survived with its footprint intact
        // and the occupancy map agrees with the placements.
        for (id, ncs) in before {
            let t = defrag.tenant(id).expect("resident survived compaction");
            assert_eq!(t.nc_count(), ncs);
            for nc in t.first_nc()..t.end_nc() {
                assert_eq!(defrag.occupancy()[nc], Some(id));
            }
        }
    }

    #[test]
    fn defragment_is_a_no_op_on_a_compact_pool() {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        pool.admit(&small_net(1), "a").unwrap();
        pool.admit(&small_net(2), "b").unwrap();
        let before = pool.occupancy().to_vec();
        assert_eq!(pool.defragment(), 0);
        assert_eq!(pool.occupancy(), &before[..]);
        // And on an empty pool.
        let mut empty = FabricPool::new(ResparcConfig::resparc_64());
        assert_eq!(empty.defragment(), 0);
    }

    #[test]
    fn can_admit_sized_matches_admission_outcomes() {
        let fragment = |pool: &mut FabricPool| {
            let ids: Vec<TenantId> = (0..5)
                .map(|i| {
                    pool.admit_topology(&sized_topology(2), &format!("t{i}"))
                        .unwrap()
                })
                .collect();
            pool.admit_topology(&sized_topology(5), "big").unwrap();
            pool.evict(ids[1]);
            pool.evict(ids[3]);
        };

        let mut pool =
            FabricPool::new(ResparcConfig::resparc_64()).with_policy(PackingPolicy::Defragment);
        fragment(&mut pool);
        // 5 free NCs in 2-NC holes (+1 tail): a 4-NC tenant is
        // admissible only via compaction, a 6-NC one not at all.
        assert!(pool.can_admit_sized(4, 64));
        assert!(!pool.can_admit_sized(6, 64));
        assert!(pool.can_admit_sized(0, 64), "zero NCs round up to one");

        let mut first = FabricPool::new(ResparcConfig::resparc_64());
        fragment(&mut first);
        assert!(first.can_admit_sized(2, 64));
        assert!(!first.can_admit_sized(4, 64), "first-fit does not compact");
    }

    #[test]
    fn fail_nc_evicts_the_occupant_and_blocks_the_cell() {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let a = pool.admit_topology(&sized_topology(2), "a").unwrap();
        let b = pool.admit_topology(&sized_topology(2), "b").unwrap();
        let victim_nc = pool.tenant(a).unwrap().first_nc();

        let evicted = pool.fail_nc(victim_nc).expect("NC was occupied");
        assert_eq!(evicted.id, a);
        assert!(pool.tenant(a).is_none());
        assert!(pool.tenant(b).is_some(), "bystander survives");
        assert_eq!(pool.nc_health()[victim_nc], NcHealth::Failed);
        assert_eq!(pool.failed_ncs(), 1);
        // The dead cell is not free capacity and never re-admitted into.
        assert_eq!(pool.free_ncs(), 16 - pool.occupied_ncs() - 1);
        let c = pool.admit_topology(&sized_topology(5), "c").unwrap();
        let tc = pool.tenant(c).unwrap();
        assert!(victim_nc < tc.first_nc() || victim_nc >= tc.end_nc());
        // Failing a free cell evicts nobody; restore does not resurrect.
        assert!(pool.fail_nc(15).is_none());
        assert!(!pool.restore_nc(15), "failed cells are permanent");
        assert_eq!(pool.nc_health()[15], NcHealth::Failed);
    }

    #[test]
    fn drain_and_restore_round_trip() {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let a = pool.admit_topology(&sized_topology(2), "a").unwrap();
        let free_before = pool.free_ncs();
        let nc = pool.tenant(a).unwrap().first_nc();

        let evicted = pool.drain_nc(nc).expect("NC was occupied");
        assert_eq!(evicted.id, a);
        assert_eq!(pool.nc_health()[nc], NcHealth::Quarantined);
        assert_eq!(pool.quarantined_ncs(), 1);
        // Draining freed the tenant's other cell but quarantined this one.
        assert_eq!(pool.free_ncs(), free_before + 1);

        assert!(pool.restore_nc(nc));
        assert_eq!(pool.nc_health()[nc], NcHealth::Healthy);
        assert_eq!(pool.free_ncs(), free_before + 2);
        assert!(!pool.restore_nc(nc), "already healthy");
        // Draining a failed cell is a no-op.
        pool.fail_nc(nc);
        assert!(pool.drain_nc(nc).is_none());
        assert_eq!(pool.nc_health()[nc], NcHealth::Failed);
    }

    #[test]
    fn free_runs_and_admission_route_around_unhealthy_cells() {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        // Kill NC 5: the 16-cell free space splits into runs of 5 and 10.
        pool.fail_nc(5);
        assert_eq!(pool.free_ncs(), 15);
        assert_eq!(pool.largest_free_run(), 10);
        assert_eq!(pool.max_admissible_run_for(64), 10);
        let a = pool.admit_topology(&sized_topology(5), "a").unwrap();
        assert_eq!(pool.tenant(a).unwrap().first_nc(), 0, "fills 0..5");
        let b = pool.admit_topology(&sized_topology(5), "b").unwrap();
        assert_eq!(pool.tenant(b).unwrap().first_nc(), 6, "skips NC 5");
    }

    #[test]
    fn defragment_compacts_around_dead_cells() {
        let mut pool =
            FabricPool::new(ResparcConfig::resparc_64()).with_policy(PackingPolicy::Defragment);
        // a(2)@0..2 b(2)@2..4 c(2)@4..6 d(5)@6..11; kill NC 12 in the
        // tail, then evict a and c: free = {0..2, 4..6, 11..12, 13..16},
        // largest run 3. A 4-NC tenant only fits after compaction packs
        // b and d into 0..7 *around* the dead NC 12.
        let a = pool.admit_topology(&sized_topology(2), "a").unwrap();
        let b = pool.admit_topology(&sized_topology(2), "b").unwrap();
        let c = pool.admit_topology(&sized_topology(2), "c").unwrap();
        let d = pool.admit_topology(&sized_topology(5), "d").unwrap();
        assert!(pool.fail_nc(12).is_none(), "NC 12 was free");
        pool.evict(a);
        pool.evict(c);
        assert_eq!(pool.largest_free_run(), 3);

        assert!(pool.can_admit_sized(4, 64));
        let wide = pool.admit_topology(&sized_topology(4), "wide").unwrap();
        let tw = pool.tenant(wide).unwrap();
        // Survivors packed into 0..7; the new tenant fills the hole
        // before the dead cell — nobody landed on NC 12.
        assert_eq!((tw.first_nc(), tw.end_nc()), (7, 11));
        assert_eq!(pool.tenant(b).unwrap().first_nc(), 0);
        assert_eq!(pool.tenant(d).unwrap().first_nc(), 2);
        assert_eq!(pool.occupancy()[12], None);
        assert_eq!(pool.nc_health()[12], NcHealth::Failed);
    }

    #[test]
    fn heterogeneous_runs_break_at_class_boundaries() {
        let mut pool =
            FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[64, 64, 64, 32, 32, 64]);
        assert_eq!(pool.size_classes(), vec![32, 64]);
        assert_eq!(pool.physical_ncs(), 6, "physical_ncs follows the inventory");
        assert_eq!(pool.free_ncs(), 6);
        // All six cells are free and contiguous, but runs never span a
        // class boundary: the pool-wide maxima are uniform-class runs.
        assert_eq!(pool.largest_free_run(), 3);
        assert_eq!(pool.largest_free_run_for(64), 3);
        assert_eq!(pool.largest_free_run_for(32), 2);
        assert_eq!(pool.largest_free_run_for(128), 0, "class absent");
        assert_eq!(pool.max_admissible_run_for(64), 3);
        assert_eq!(pool.max_admissible_run_for(32), 2);
        assert_eq!(pool.free_fragments(), 3);
        // Health still breaks runs inside a class.
        pool.fail_nc(1);
        assert_eq!(pool.largest_free_run_for(64), 1);
        assert_eq!(pool.max_admissible_run_for(64), 1);
        assert_eq!(pool.max_admissible_run_for(32), 2);
        // A homogeneous pool has one class.
        assert_eq!(
            FabricPool::new(ResparcConfig::resparc_64()).size_classes(),
            [64]
        );
    }

    #[test]
    fn uniform_nonbase_inventory_admits_as_that_class() {
        // Regression: `heterogeneous` with a uniform inventory whose
        // class differs from the base config used to leave
        // `config.mca_size` at the base value, so the homogeneous
        // admission path probed a class the pool had zero cells of and
        // rejected everything.
        let mut pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[32, 32, 32, 32]);
        assert_eq!(pool.size_classes(), vec![32]);
        assert_eq!(
            pool.config().mca_size,
            32,
            "base config anchored to the class"
        );
        let id = pool
            .admit_topology(&Topology::mlp(96, &[64, 10]), "t")
            .expect("a uniform 32-class pool admits a 32-class tenant");
        let t = pool.tenant(id).unwrap();
        assert_eq!(t.mapping.config.mca_size, 32);
        for nc in t.first_nc()..t.end_nc() {
            assert_eq!(pool.nc_sizes()[nc], 32);
        }
    }

    #[test]
    fn heterogeneous_admission_reports_size_aware_errors() {
        // Regression for the misleading class-blind error: the 32-class
        // cells are free and contiguous, yet they are no capacity at
        // all for a 64-class tenant — the rejection must count the
        // probe's class only.
        let mut pool =
            FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[64, 64, 32, 32, 32, 64]);
        let probe64 = Mapper::new(pool.class_config(64))
            .map(&sized_topology(2))
            .unwrap();
        let a = pool.admit_mapped(probe64.clone(), "a").unwrap();
        let ta = pool.tenant(a).unwrap();
        assert_eq!((ta.first_nc(), ta.end_nc()), (0, 2));
        assert_eq!(ta.mapping.config.mca_size, 64);
        // 4 cells free in one contiguous stretch 2..6, but only one is
        // 64-class: the error must say 1 free / largest run 1, not 4.
        assert_eq!(pool.free_ncs(), 4);
        let err = pool.admit_mapped(probe64, "b").unwrap_err();
        assert_eq!(
            err,
            AdmitError::CapacityExhausted {
                needed_ncs: 2,
                free_ncs: 1,
                largest_free_run: 1,
            },
            "got {err}"
        );
    }

    #[test]
    fn heterogeneous_capacity_errors_count_the_probe_class_only() {
        let mut pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[64, 64, 32]);
        pool.fail_nc(0);
        // One healthy + one failed 64-class cell: restoring the class's
        // sick cell would cover the 2-NC request, so the rejection
        // blames the sickness — with class-filtered counts (the healthy
        // 32-class cell is not part of the story).
        let probe64 = Mapper::new(pool.class_config(64))
            .map(&sized_topology(2))
            .unwrap();
        let err = pool.admit_mapped(probe64, "t").unwrap_err();
        assert_eq!(
            err,
            AdmitError::NoHealthyCapacity {
                needed_ncs: 2,
                quarantined: 0,
                failed: 1,
            },
            "got {err}"
        );
        // A class absent from the inventory is plain exhaustion with
        // zero class capacity.
        let probe128 = Mapper::new(pool.class_config(128))
            .map(&Topology::mlp(96, &[64, 10]))
            .unwrap();
        let err = pool.admit_mapped(probe128, "t").unwrap_err();
        assert_eq!(
            err,
            AdmitError::CapacityExhausted {
                needed_ncs: 1,
                free_ncs: 0,
                largest_free_run: 0,
            },
            "got {err}"
        );
    }

    #[test]
    fn heterogeneous_admit_chooses_the_smallest_footprint_class() {
        let pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[32, 32, 32, 64]);
        // Preconditions that make the choices below meaningful: the
        // 1-NC-at-64 topology widens at MCA 32, the small one does not.
        let at64 = Mapper::new(pool.class_config(64))
            .map(&sized_topology(1))
            .unwrap();
        let at32 = Mapper::new(pool.class_config(32))
            .map(&sized_topology(1))
            .unwrap();
        assert_eq!(at64.placement.ncs_used, 1);
        assert!(at32.placement.ncs_used > 1);
        let small = Topology::mlp(96, &[64, 10]);
        for class in [32usize, 64] {
            let probe = Mapper::new(pool.class_config(class)).map(&small).unwrap();
            assert_eq!(probe.placement.ncs_used, 1, "1 NC at MCA {class}");
        }

        let mut pool = pool;
        // Smaller footprint wins: 1 NC at 64 beats >1 NC at 32.
        let id = pool.admit_topology(&sized_topology(1), "t").unwrap();
        let t = pool.tenant(id).unwrap();
        assert_eq!(t.mapping.config.mca_size, 64);
        assert_eq!(t.first_nc(), 3);
        // On a footprint tie the smaller (cheaper) crossbar class wins.
        let id = pool.admit_topology(&small, "s").unwrap();
        let s = pool.tenant(id).unwrap();
        assert_eq!(s.mapping.config.mca_size, 32);
        assert_eq!(s.first_nc(), 0);
        // When the preferred class is full, admission falls through to
        // the next class that fits rather than rejecting.
        let id = pool.admit_topology(&small, "s2").unwrap();
        let id2 = pool.admit_topology(&small, "s3").unwrap();
        assert_eq!(pool.tenant(id).unwrap().first_nc(), 1);
        assert_eq!(pool.tenant(id2).unwrap().first_nc(), 2);
        let err = pool.admit_topology(&small, "s4").unwrap_err();
        assert!(
            matches!(err, AdmitError::CapacityExhausted { .. }),
            "every class full: {err}"
        );
    }

    #[test]
    fn heterogeneous_defragment_compacts_within_classes() {
        let mut pool =
            FabricPool::heterogeneous(ResparcConfig::resparc_64(), &[64, 64, 64, 64, 64, 64, 32])
                .with_policy(PackingPolicy::Defragment);
        let p2 = Mapper::new(pool.class_config(64))
            .map(&sized_topology(2))
            .unwrap();
        let a = pool.admit_mapped(p2.clone(), "a").unwrap();
        let b = pool.admit_mapped(p2, "b").unwrap();
        let p32 = Mapper::new(pool.class_config(32))
            .map(&Topology::mlp(96, &[64, 10]))
            .unwrap();
        let s = pool.admit_mapped(p32, "s").unwrap();
        assert_eq!(pool.tenant(s).unwrap().first_nc(), 6, "32-class cell");
        pool.evict(a);
        // Free 64-class runs {0..2} and {4..6}: a 4-NC 64-class tenant
        // needs compaction. It must slide b leftward within the 64
        // segment and leave the 32-class resident alone.
        assert!(pool.can_admit_sized(4, 64));
        let p4 = Mapper::new(pool.class_config(64))
            .map(&sized_topology(4))
            .unwrap();
        let w = pool.admit_mapped(p4, "w").unwrap();
        assert_eq!(pool.tenant(b).unwrap().first_nc(), 0);
        let tw = pool.tenant(w).unwrap();
        assert_eq!((tw.first_nc(), tw.end_nc()), (2, 6));
        assert_eq!(pool.tenant(s).unwrap().first_nc(), 6, "never moved");
    }

    #[test]
    fn zero_nc_pools_report_the_config_error() {
        use crate::fabric::FabricScheduler;
        use crate::map::PlacementRequest;
        // `ResparcConfig::validate` rejects a chip without NeuroCells.
        // Such a pool has no size class, so every caller of
        // `class_probes` maps against the base configuration and reports
        // its validation error.
        let mut cfg = ResparcConfig::resparc_64();
        cfg.physical_ncs = 0;
        let mut pool = FabricPool::new(cfg);
        let invalid = MapError::InvalidConfig("need at least one physical NeuroCell".into());
        let t = Topology::mlp(96, &[64, 10]);
        let rejected = Err(AdmitError::Map(invalid.clone()));
        assert_eq!(pool.admit(&small_net(1), "a"), rejected);
        assert_eq!(pool.admit_topology(&t, "t"), rejected);
        let request = PlacementRequest::from_topology(&pool, &t, "t");
        assert_eq!(request.err(), Some(invalid.clone()));
        let request = PlacementRequest::from_network(&pool, &small_net(1), "n");
        assert_eq!(request.err(), Some(invalid.clone()));
        let mut sched = FabricScheduler::new(pool);
        assert_eq!(sched.submit(&small_net(1), "s", 1, 1), Err(invalid));
    }

    #[test]
    fn sick_pools_report_no_healthy_capacity() {
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        // 12 of 16 cells out of service: a 5-NC request would fit a
        // healthy pool, so the rejection must blame the sickness.
        for nc in 0..10 {
            pool.fail_nc(nc);
        }
        pool.drain_nc(10);
        pool.drain_nc(11);
        let err = pool.admit_topology(&sized_topology(5), "t").unwrap_err();
        assert_eq!(
            err,
            AdmitError::NoHealthyCapacity {
                needed_ncs: 5,
                quarantined: 2,
                failed: 10,
            },
            "got {err}"
        );

        // A request even a fully-restored pool could not hold stays a
        // plain capacity error: three 5-NC tenants plus one dead cell
        // leave 0 free + 1 sick, short of the MNIST MLP's footprint
        // even if the dead cell were revived.
        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        pool.admit_topology(&sized_topology(5), "a").unwrap();
        pool.admit_topology(&sized_topology(5), "b").unwrap();
        pool.admit_topology(&sized_topology(5), "c").unwrap();
        pool.fail_nc(15);
        let big = Topology::mlp(784, &[800, 800, 10]);
        let err = pool.admit_topology(&big, "mnist").unwrap_err();
        assert!(
            matches!(err, AdmitError::CapacityExhausted { free_ncs: 0, .. }),
            "got {err}"
        );
    }
}
