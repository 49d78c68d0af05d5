//! Benchmark workloads for the RESPARC reproduction.
//!
//! Provides the paper's evaluation inputs:
//!
//! * [`dataset`] — deterministic synthetic stand-ins for MNIST, SVHN and
//!   CIFAR-10 with matched sparsity statistics (the real datasets are not
//!   available offline; see DESIGN.md §4),
//! * [`benchmarks`] — the six Fig. 10 SNNs (MLP + CNN per dataset) with
//!   neuron/layer counts matching the paper exactly, plus measured-input
//!   activity profiles for the architectural simulators,
//! * [`sweep`] — batched accuracy sweeps running whole test sets on a
//!   network's compiled kernels, parallel across stimuli, plus the
//!   trace-driven energy sweep that meters the mapped fabric on each
//!   stimulus's actual spike trace,
//! * [`churn`] — the dynamic-fabric comparison: an arrival/departure
//!   schedule of tenant requests run through a `FabricScheduler`
//!   (admit / queue / evict mid-stream, any packing policy) against the
//!   static co-resident batching baseline, on identical spike traces,
//! * [`packing`] — batch placement quality: the same admission batch
//!   placed by greedy first-fit and by the exact placement search
//!   (`PlacementStrategy::Optimized`; ties keep greedy's schedule)
//!   across fabric shapes (fragmented, heterogeneous MCA inventories),
//!   metered for admits, utilization and energy per inference,
//! * [`fault`] — resilience workloads: device-fault grids (stuck-at
//!   rate / drift / variation vs accuracy and energy per coding scheme)
//!   and mid-replay NeuroCell-failure drills measuring the scheduler's
//!   evict-requeue-readmit recovery loop,
//! * [`serving`] — the online-service view: open-loop arrival traces
//!   (Poisson / bursty / diurnal) driven through an event-clock loop
//!   with admission control, backfilling, preemption and an
//!   SLO-adaptive bus-weight controller, reporting p50/p95/p99 latency,
//!   goodput, SLO violations and the gated-vs-ungated idle-energy bill.
//!
//! # Examples
//!
//! ```
//! use resparc_workloads::benchmarks::all_benchmarks;
//!
//! let suite = all_benchmarks();
//! assert_eq!(suite.len(), 6);
//! let mnist_mlp = suite.iter().find(|b| b.name == "MNIST-MLP").unwrap();
//! assert_eq!(mnist_mlp.topology.neuron_count(), 2_378);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchmarks;
pub mod churn;
pub mod dataset;
pub mod fault;
pub mod packing;
pub(crate) mod seed;
pub mod serving;
pub mod sweep;

pub use benchmarks::{
    all_benchmarks, cifar10_cnn, cifar10_mlp, cnn_benchmarks, mlp_benchmarks, mnist_cnn, mnist_mlp,
    svhn_cnn, svhn_mlp, Benchmark, NetStyle, PaperSpec,
};
pub use churn::{churn_sweep, ChurnMetrics, ChurnReport, ChurnSpec};
pub use dataset::{DatasetKind, SyntheticImages, CLASSES};
pub use fault::{fault_recovery_drill, fault_sweep, FaultDrillReport, FaultEvent, FaultSweepPoint};
pub use packing::{
    packing_scenario, packing_sweep, PackingOutcome, PackingReport, PackingRow, PackingShape,
};
pub use serving::{
    serving_sweep, ArrivalProcess, ClassReport, QosPolicy, RequestOutcome, ServiceClass,
    ServingReport, ServingSpec,
};
pub use sweep::{
    analog_accuracy_sweep, encoding_energy_sweep, multi_tenant_sweep, spiking_accuracy_sweep,
    trace_energy_sweep, trace_energy_sweep_compiled, MultiTenantReport, SweepConfig, SweepReport,
    TenancyMetrics, TraceEnergyReport,
};

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::benchmarks::{
        all_benchmarks, cifar10_cnn, cifar10_mlp, cnn_benchmarks, mlp_benchmarks, mnist_cnn,
        mnist_mlp, svhn_cnn, svhn_mlp, Benchmark, NetStyle, PaperSpec,
    };
    pub use crate::churn::{churn_sweep, ChurnMetrics, ChurnReport, ChurnSpec};
    pub use crate::dataset::{DatasetKind, SyntheticImages, CLASSES};
    pub use crate::fault::{
        fault_recovery_drill, fault_sweep, FaultDrillReport, FaultEvent, FaultSweepPoint,
    };
    pub use crate::packing::{
        packing_scenario, packing_sweep, PackingOutcome, PackingReport, PackingRow, PackingShape,
    };
    pub use crate::serving::{
        serving_sweep, ArrivalProcess, ClassReport, QosPolicy, RequestOutcome, ServiceClass,
        ServingReport, ServingSpec,
    };
    pub use crate::sweep::{
        analog_accuracy_sweep, encoding_energy_sweep, multi_tenant_sweep, spiking_accuracy_sweep,
        trace_energy_sweep, trace_energy_sweep_compiled, MultiTenantReport, SweepConfig,
        SweepReport, TenancyMetrics, TraceEnergyReport,
    };
}
