//! RESPARC: the reconfigurable memristive-crossbar architecture for deep
//! spiking neural networks (DAC 2017) — architecture model, mapper and
//! simulators.
//!
//! The crate implements the paper's three-tier reconfigurable hierarchy
//! and everything needed to evaluate it:
//!
//! * [`config`] — machine parameterisation ([`ResparcConfig`], the Fig. 8
//!   presets RESPARC-32/64/128),
//! * [`map`] — the SNN → hardware mapper: connectivity-matrix
//!   partitioning into crossbar tiles with time-multiplexed fan-in and
//!   input-sharing column packing (§3.1.1), and placement over
//!   mPEs / NeuroCells (§3.1.2–3.1.3),
//! * [`sim`] — the activity-driven energy/latency simulator whose
//!   breakdowns reproduce Fig. 11–13, plus the trace-driven event
//!   simulator ([`sim::event`]) that replays measured spike traces
//!   through the fabric packet-by-packet. The digital shell is priced,
//!   not modelled structurally: mPE buffer accesses and CCU transfers
//!   (Fig. 4), switch hops and zero-checks (Fig. 6), and global bus/SRAM
//!   transactions (Fig. 3) are per-event charges, shared with the
//!   closed-form arithmetic in [`sim::cost`],
//! * [`fabric`] — the multi-tenant view: a [`FabricPool`] admitting many
//!   mapped networks onto one physical NeuroCell pool (NC-granular
//!   free-list, first-fit/best-fit/defragmenting [`PackingPolicy`],
//!   typed admission errors), the [`SharedEventSimulator`] interleaving
//!   their traces per timestep through the shared switches/bus/SRAM
//!   with weighted-round-robin bus QoS, and the [`FabricScheduler`]
//!   churning tenants mid-stream (FIFO admission queue, departure-driven
//!   eviction),
//! * [`hw`] — a spike-accurate functional cosimulation built from real
//!   crossbars, validated against the algorithm-level SNN simulator.
//!
//! # Examples
//!
//! Map a small MLP onto RESPARC-64 and estimate per-classification cost:
//!
//! ```
//! use resparc_core::prelude::*;
//! use resparc_neuro::stats::ActivityProfile;
//! use resparc_neuro::topology::Topology;
//!
//! let topology = Topology::mlp(784, &[800, 10]);
//! let mapping = Mapper::new(ResparcConfig::resparc_64()).map(&topology)?;
//! let profile = ActivityProfile::uniform(&[784, 800, 10], 0.15, 0.1);
//! let report = Simulator::new(&mapping).run(&profile);
//! assert!(report.total_energy().picojoules() > 0.0);
//! # Ok::<(), resparc_core::map::MapError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod fabric;
pub mod hw;
pub mod map;
pub mod sim;

pub use config::ResparcConfig;
pub use fabric::{
    AdmitError, FabricPool, FabricScheduler, PackingPolicy, RequestId, ScheduledTenant,
    ServiceRecord, SharedEventSimulator, SharedReport, Tenant, TenantId, TenantReport,
};
pub use hw::{HwBuildError, HwCore};
pub use map::{
    BatchPlacement, LayerPartition, LayerReport, MapError, Mapper, Mapping, MappingReport,
    PartitionOptions, Placement, PlacementRequest, PlacementStrategy, Tile,
};
pub use sim::event::{EventLayerStats, EventReport, EventSimulator, ReplayEngine, TraceReplay};
pub use sim::plan::ReplayPlan;
pub use sim::{ExecutionReport, LayerExecStats, Simulator};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::config::ResparcConfig;
    pub use crate::fabric::{
        AdmitError, FabricPool, FabricScheduler, NcHealth, PackingPolicy, RequestId,
        ScheduledTenant, ServiceRecord, SharedEventSimulator, SharedReport, Tenant, TenantId,
        TenantReport,
    };
    pub use crate::hw::{HwBuildError, HwCore};
    pub use crate::map::{
        BatchPlacement, LayerPartition, LayerReport, MapError, Mapper, Mapping, MappingReport,
        PartitionOptions, Placement, PlacementRequest, PlacementStrategy, Tile,
    };
    pub use crate::sim::event::{
        EventLayerStats, EventReport, EventSimulator, ReplayEngine, TraceReplay,
    };
    pub use crate::sim::plan::ReplayPlan;
    pub use crate::sim::{ExecutionReport, LayerExecStats, Simulator};
}
