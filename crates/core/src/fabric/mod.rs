//! Multi-tenant fabric: several mapped networks co-resident on one
//! physical NeuroCell pool, their event traces interleaved per timestep,
//! with dynamic admission, packing policies and per-tenant bus QoS.
//!
//! RESPARC's reconfigurability pitch is that one mPE fabric serves many
//! SNN topologies. The mapper and simulators elsewhere in this crate are
//! single-tenant — every [`Mapping`] assumes it owns NC `0..N` and every
//! replay assumes an idle fabric. This module hosts the shared view,
//! split across three layers:
//!
//! * [`FabricPool`] ([`pool`]) owns the physical NC inventory of a
//!   [`ResparcConfig`] and admits mappings at NeuroCell granularity: a
//!   tenant receives a contiguous run of free NCs chosen by the pool's
//!   [`PackingPolicy`] — leftmost fit ([`PackingPolicy::FirstFit`]),
//!   smallest fit ([`PackingPolicy::BestFit`]), or best-fit with a
//!   compacting fallback ([`PackingPolicy::Defragment`]) that slides
//!   resident tenants toward NC 0 via
//!   [`Placement::translated_to`](crate::map::Placement::translated_to)
//!   when no contiguous run fits but the total free capacity does.
//!   The tenant's [`Placement`](crate::map::Placement) is expressed in
//!   pool coordinates (the origin-0 probe is translated into the
//!   allocated run — identical to
//!   [`place_with_origin`](crate::map::place_with_origin) there, without
//!   re-partitioning), and admission fails with a typed
//!   [`AdmitError`] when the policy finds no run. Evicting a tenant
//!   restores the free list exactly. Every NC also carries an
//!   [`NcHealth`] state: [`FabricPool::fail_nc`] /
//!   [`FabricPool::drain_nc`] take cells out of service (evicting the
//!   occupant tenant), admission and defragmentation route around
//!   unhealthy cells, and [`AdmitError::NoHealthyCapacity`] reports
//!   rejections that only exist because cells are sick.
//! * [`SharedEventSimulator`] ([`shared`]) replays one
//!   [`SpikeTrace`](resparc_neuro::trace::SpikeTrace) per tenant
//!   through the pool **concurrently**.
//!   The interleave model: tenants sit on disjoint NC runs, so per
//!   timestep their compute phases and switch traffic overlap — the step
//!   costs the *maximum* of the tenants' local cycles — while the global
//!   bus and input SRAM are shared and serialise — the step *sums* every
//!   tenant's bus transactions. The serialised bus cycles are
//!   apportioned by **weighted round-robin** ([`SharedEventSimulator::
//!   run_weighted`]): a tenant with arbitration weight `w` is served `w`
//!   bus cycles per grant round, and the cycles its transactions spend
//!   waiting behind other tenants are reported as
//!   [`TenantReport::bus_stall_cycles`] along with the tenant's own
//!   perceived [`TenantReport::latency`]. Equal weights (any magnitude —
//!   weights are normalised by their gcd) are the fair arbitration of
//!   all-1 weights, and a pool with one tenant reproduces the
//!   dedicated-fabric
//!   [`EventSimulator`](crate::sim::event::EventSimulator) report
//!   *bit-identically* (every per-event charge goes through the exact
//!   same replay core). A shared round is two steps: each tenant's
//!   [`EventSimulator::replay`](crate::sim::event::EventSimulator::replay)
//!   on its own mapping, then [`SharedEventSimulator::interleave`], a
//!   pure function of those replays, the weights and the pool's
//!   residency. A replay does not depend on the tenant's NC origin, so a
//!   serving loop replays each (network, trace) pair once and calls
//!   `interleave` every round.
//! * [`FabricScheduler`] ([`scheduler`]) makes tenancy **dynamic across
//!   replay rounds**: requests arrive over time
//!   ([`FabricScheduler::submit`]), are admitted when the pool's policy
//!   finds capacity (possibly after defragmentation), queue FIFO
//!   otherwise, and are evicted when their service completes — so the
//!   fabric is re-partitioned *while a workload stream is in flight*
//!   instead of once per batch. `resparc_workloads::churn` builds the
//!   `churn_sweep` comparison (dynamic churn vs a static co-resident
//!   baseline) on top.
//!
//! The economics of co-residency are leakage and occupancy: a pool
//! executing tenants serially bills the whole powered chip's leakage for
//! the *sum* of their latencies, while co-resident tenants amortize it
//! over one overlapped makespan. [`SharedReport`] exposes the split —
//! per-tenant dynamic energy, the occupied-fabric leakage charged to the
//! ledger, the [`idle-NC leakage`](SharedReport::idle_leakage) of the
//! pool remainder, and bus occupancy — and
//! `resparc_workloads::sweep::multi_tenant_sweep` turns it into the
//! serial-vs-co-resident comparison.

use std::fmt;

use resparc_energy::sram::SramSpec;
use resparc_energy::units::Power;

use crate::config::ResparcConfig;
use crate::map::{MapError, Mapping};

pub mod pool;
pub mod scheduler;
pub mod shared;

pub use pool::{FabricPool, NcHealth, PackingPolicy};
pub use scheduler::{FabricScheduler, RequestId, ScheduleError, ScheduledTenant, ServiceRecord};
pub use shared::{SharedEventSimulator, SharedReport, TenantReport};

/// Handle of one admitted tenant (stable across evictions of others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub(crate) u32);

impl TenantId {
    /// The raw admission index (monotone per pool).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Why the pool rejected an admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The network could not be mapped at all (invalid configuration).
    Map(MapError),
    /// No contiguous run of free NeuroCells is large enough (after
    /// defragmentation, if the pool's [`PackingPolicy`] compacts).
    ///
    /// All counts are **size-aware**: on a heterogeneous pool
    /// ([`FabricPool::heterogeneous`]) they tally cells of the
    /// rejected probe's MCA size class only, so a long free run of
    /// *smaller* crossbars is never reported as capacity the tenant
    /// could have used. On a homogeneous pool every cell is the one
    /// class and the counts are the historical pool-wide values.
    CapacityExhausted {
        /// NeuroCells the tenant needs (contiguously, all of its own
        /// size class).
        needed_ncs: usize,
        /// Free NeuroCells of the tenant's size class (any position).
        free_ncs: usize,
        /// Longest contiguous free run of the tenant's size class
        /// currently available.
        largest_free_run: usize,
    },
    /// Admission failed *because of unhealthy NeuroCells*: the pool's
    /// healthy free capacity cannot cover the request, but restoring
    /// the quarantined/failed cells to healthy free capacity would.
    /// Pools without faults never return this variant. Like
    /// [`CapacityExhausted`](Self::CapacityExhausted), the counts are
    /// size-aware — they tally the rejected probe's class only.
    NoHealthyCapacity {
        /// NeuroCells the tenant needs (contiguously, all of its own
        /// size class).
        needed_ncs: usize,
        /// Same-class NeuroCells currently quarantined (drained,
        /// restorable).
        quarantined: usize,
        /// Same-class NeuroCells permanently failed.
        failed: usize,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Map(e) => write!(f, "mapping failed: {e}"),
            AdmitError::CapacityExhausted {
                needed_ncs,
                free_ncs,
                largest_free_run,
            } => write!(
                f,
                "capacity exhausted: tenant needs {needed_ncs} contiguous NeuroCell(s), pool has \
                 {free_ncs} free ({largest_free_run} contiguous)"
            ),
            AdmitError::NoHealthyCapacity {
                needed_ncs,
                quarantined,
                failed,
            } => write!(
                f,
                "no healthy capacity: tenant needs {needed_ncs} NeuroCell(s) the pool could \
                 cover if its {quarantined} quarantined and {failed} failed NeuroCell(s) were \
                 healthy"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// One network resident on the pool: its mapping is placed in pool
/// coordinates (spans carry the NC-run offset the pool allocated).
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Admission handle.
    pub id: TenantId,
    /// Caller-supplied label (reports, figures).
    pub name: String,
    /// The tenant's mapping, placed at its allocated NC origin.
    pub mapping: Mapping,
}

impl Tenant {
    /// First NeuroCell this tenant occupies.
    pub fn first_nc(&self) -> usize {
        self.mapping.placement.origin_nc
    }

    /// One past the last NeuroCell this tenant occupies.
    pub fn end_nc(&self) -> usize {
        self.mapping.placement.end_nc()
    }

    /// NeuroCells this tenant occupies.
    pub fn nc_count(&self) -> usize {
        self.mapping.placement.ncs_used
    }
}

/// Leakage power of `mpes` mPEs plus the switch fabric of `switch_ncs`
/// NeuroCells — the one composition every leakage domain (dedicated
/// chip, occupied pool, idle remainder, whole pool) is built from, so
/// the domains can never drift apart term-by-term.
pub(crate) fn logic_leakage_power(config: &ResparcConfig, mpes: usize, switch_ncs: usize) -> Power {
    config.catalog.mpe_leakage * mpes as f64
        + config.catalog.switch_leakage * (switch_ncs * config.switches_per_nc()) as f64
}

/// Leakage power of the whole powered pool: every physical mPE and
/// switch plus the shared input SRAM. This is what a serially-executed
/// tenant bills for its entire latency — and what co-residency amortizes.
pub fn pool_leakage_power(config: &ResparcConfig) -> Power {
    let sram = SramSpec::new(config.input_sram_bytes, config.packet_bits).build();
    logic_leakage_power(
        config,
        config.physical_ncs * config.mpes_per_nc(),
        config.physical_ncs,
    ) + sram.leakage()
}
