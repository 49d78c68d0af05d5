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
//!   through the fabric packet-by-packet,
//! * [`fabric`] — the multi-tenant view: a [`FabricPool`] admitting many
//!   mapped networks onto one physical NeuroCell pool (NC-granular
//!   free-list, first-fit/best-fit/defragmenting [`PackingPolicy`],
//!   typed admission errors), the [`SharedEventSimulator`] interleaving
//!   their traces per timestep through the shared switches/bus/SRAM
//!   with weighted-round-robin bus QoS, and the [`FabricScheduler`]
//!   churning tenants mid-stream (FIFO admission queue, departure-driven
//!   eviction),
//! * [`mpe`] — the macro Processing Engine's digital shell: per-MCA
//!   buffers (iBUFF/oBUFF/tBUFF), phase scheduling and the CCU
//!   request/wait handshake (Fig. 4),
//! * [`switch`] — the programmable switch with hierarchical packet
//!   addressing and zero-check (Fig. 6),
//! * [`bus`] — the global IO bus, SRAM broadcast with zero-check and
//!   per-NeuroCell event flags (Fig. 3),
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

pub mod bus;
pub mod config;
pub mod fabric;
pub mod hw;
pub mod map;
pub mod mpe;
pub mod sim;
pub mod switch;

pub use bus::{BroadcastOutcome, GlobalBus, NcTag};
pub use config::ResparcConfig;
pub use fabric::{
    AdmitError, FabricPool, FabricScheduler, PackingPolicy, RequestId, ScheduledTenant,
    ServiceRecord, SharedEventSimulator, SharedReport, Tenant, TenantId, TenantReport,
};
pub use hw::{HwBuildError, HwCore};
pub use map::{
    BatchPlacement, BatchPlacer, LayerPartition, LayerReport, MapError, Mapper, Mapping,
    MappingReport, PartitionOptions, Placement, PlacementRequest, PlacementStrategy, Tile,
};
pub use mpe::{CcuLink, CurrentControlUnit, MacroProcessingEngine, McaBuffers, PhaseSchedule};
pub use sim::event::{EventLayerStats, EventReport, EventSimulator, ReplayEngine, TraceReplay};
pub use sim::plan::ReplayPlan;
pub use sim::{ExecutionReport, LayerExecStats, Simulator};
pub use switch::{PacketAddress, ProgrammableSwitch, SpikePacket, SwitchCoord, SwitchOutput};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::bus::{BroadcastOutcome, GlobalBus, NcTag};
    pub use crate::config::ResparcConfig;
    pub use crate::fabric::{
        AdmitError, FabricPool, FabricScheduler, NcHealth, PackingPolicy, RequestId,
        ScheduledTenant, ServiceRecord, SharedEventSimulator, SharedReport, Tenant, TenantId,
        TenantReport,
    };
    pub use crate::hw::{HwBuildError, HwCore};
    pub use crate::map::{
        BatchPlacement, BatchPlacer, LayerPartition, LayerReport, MapError, Mapper, Mapping,
        MappingReport, PartitionOptions, Placement, PlacementRequest, PlacementStrategy, Tile,
    };
    pub use crate::mpe::{
        CcuLink, CurrentControlUnit, MacroProcessingEngine, McaBuffers, PhaseSchedule,
    };
    pub use crate::sim::event::{
        EventLayerStats, EventReport, EventSimulator, ReplayEngine, TraceReplay,
    };
    pub use crate::sim::plan::ReplayPlan;
    pub use crate::sim::{ExecutionReport, LayerExecStats, Simulator};
    pub use crate::switch::{
        PacketAddress, ProgrammableSwitch, SpikePacket, SwitchCoord, SwitchOutput,
    };
}
