//! Trace-driven event simulation: replaying a measured [`SpikeTrace`]
//! through a mapped RESPARC fabric, packet by packet.
//!
//! The stationary simulator ([`super::Simulator`]) charges *expected*
//! per-timestep quantities from an activity profile — correct for
//! rate-coded, statistically-stationary workloads, blind to everything
//! else. This module walks the same [`Mapping`] tile-by-tile and
//! timestep-by-timestep over the *actual* spike trains the functional SNN
//! produced, exercising the mPE digital shell per real packet:
//!
//! * **spike distribution** — each tile's occupied rows are scanned per
//!   timestep in packet windows; a window with no spike is dropped at the
//!   zero-check (§3.2) and never pays oBUFF/switch/iBUFF costs,
//! * **analog compute** — a tile whose entire input window is silent
//!   skips its crossbar read (and its columns' neuron integrations); an
//!   active tile pays the shared linearised cost of
//!   [`cost::tile_read_cost`] at its true active-row count,
//! * **bus transactions** — inter-NeuroCell boundaries move only the
//!   non-zero packets of the producing boundary through the input SRAM,
//! * **CCU handshakes** — gated-wire partial-current transfers fire only
//!   for the phases whose tiles actually read,
//! * **latency** — per-timestep switch serialisation and bus occupancy
//!   follow the step's real packet counts, and a layer's compute phases
//!   are only charged in timesteps where the layer actually fired a
//!   crossbar read — a silent step costs the clocked minimum (one
//!   cycle), so sparse/early-exit traces (TTFS tails, bursts) finish in
//!   proportion to their *active* steps, not the raw window.
//!
//! Every charge goes to the same fine-grained
//! [`Category`] ledger as the stationary path, so the two reports are
//! directly comparable: on a rate-coded stationary workload they converge
//! (see `tests/trace_event.rs` — within 15 % on MNIST-MLP), while on
//! bursty or silent stimuli the event report is the truth the stationary
//! model cannot represent.
//!
//! # The replay core and the multi-tenant contract
//!
//! The per-event walk lives in one place — [`EventSimulator::replay`] —
//! which returns a [`TraceReplay`]: the dynamic ledger plus
//! *per-timestep* compute/switch/bus cycle vectors. [`EventSimulator::run`]
//! folds those into a dedicated-fabric timeline (`(compute + comm) × fold
//! + bus` per step, floor one cycle); the multi-tenant
//! [`SharedEventSimulator`](crate::fabric::SharedEventSimulator)
//! interleaves several tenants' replays instead — the **maximum** of the
//! local (compute + switch) cycles across the disjoint NC runs, plus the
//! **sum** of the serialised shared-bus cycles, apportioned by weighted
//! round-robin. Because both simulators consume the identical per-event
//! charges, a pool with a single tenant is guaranteed to reproduce this
//! module's [`EventReport`] bit-for-bit — the regression contract
//! `tests/multi_tenant.rs` pins.
//!
//! A replay reads only the mapping's partitions, replay plan, span
//! widths, NC counts and NC-boundary crossings, all of which survive
//! [`Placement::translated_to`](crate::map::Placement::translated_to).
//! So it depends on the (mapping, trace, engine) triple and not on where
//! a tenant sits in a pool: a serving loop replays each distinct trace
//! once and interleaves the same [`TraceReplay`] in every round.
//!
//! # Replay engines
//!
//! The only hot decision inside the walk is *which packet windows are
//! counted against the step's input spikes, and how*. [`ReplayEngine`]
//! selects the implementation:
//!
//! * [`ReplayEngine::Reference`] — the scalar row walk: every tile, every
//!   window, one bit test per occupied row (`rows.chunks(packet_bits)`
//!   over `tile_rows`). Simple, obviously correct, and the oracle the
//!   fast path is checked against. Its cost does not depend on activity.
//! * [`ReplayEngine::Plan`] (default) — the compiled word-level plan
//!   ([`ReplayPlan`](crate::sim::plan::ReplayPlan), cached on the
//!   [`Mapping`]): each window is pre-lowered to word/mask operations on
//!   the trace's packed words, so counting a window is an AND + popcount
//!   (or two shifted words for contiguous runs) instead of up to
//!   `packet_bits` bit probes. It counts once per **tile class** (a run of
//!   consecutive tiles with identical rows, one per fan-in chunk under
//!   dense grid tiling), since every tile of a class sees the same counts.
//!   Its cost follows spikes: a step with no input packet skips the walk,
//!   and any other step visits only the windows the plan's inverse index
//!   lists under a non-zero input word, counting each once (a per-step
//!   stamp). A delivered window is charged to its class through the
//!   plan's class table, and each class reads at most once per step; the
//!   step's delivered and read counts are weighted by class size, so they
//!   are the per-tile counts. Every window it does not visit counts zero,
//!   so the walk tallies those in closed form: each tile has
//!   `steps × windows` candidates, a step skips the reads of every class
//!   it did not read, and with event-driven operation off every window
//!   is delivered and every tile reads, silent steps included. A class is
//!   expanded to its tiles only where the crossbar loop prices them.
//!
//! Both engines feed the *identical* accounting body with the integer
//! tallies they derive (the reference engine's classes hold one tile
//! each), and the body's per-step shortcuts are exact: a silent input
//! step moves no bus packet, a silent output step emits no packet, and a
//! tile that never read is not priced (it would add +0.0). Each
//! boundary's non-zero packets are counted once per step and serve both
//! the bus traffic of the layer it feeds and the tBUFF lookups of the
//! layer that emits it.
//! Since every count is an integer and the f64 charges keep their order,
//! the two engines produce **bit-identical** [`EventReport`]s (and,
//! through the shared/fault/serving layers built on
//! [`EventSimulator::replay`], bit-identical reports everywhere) — a
//! contract the unit tests here and the `tests/proptests.rs` and
//! `tests/trace_event.rs` proptests pin.
//!
//! [`SpikeTrace`]: resparc_neuro::trace::SpikeTrace

use resparc_device::energy_model::McaEnergyModel;
use resparc_energy::accounting::{Category, EnergyBreakdown};
use resparc_energy::sram::SramSpec;
use resparc_energy::units::{Energy, Time};
use resparc_neuro::spike::{SpikeRaster, SpikeView};
use resparc_neuro::trace::SpikeTrace;

use crate::map::Mapping;
use crate::sim::cost::{self, AVG_SWITCH_HOPS, CCU_TRANSFER_BITS, TARGET_ADDRESS_BITS};
use crate::sim::plan::LayerPlan;

/// Which window-counting implementation the replay core uses. Both
/// engines are bit-identical in every report they produce (see the
/// module docs); `Plan` is the fast default, `Reference` the scalar
/// oracle kept for differential testing and benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayEngine {
    /// Scalar row walk: one bit test per occupied row per timestep.
    Reference,
    /// Compiled word-level plan: AND + popcount over the trace's packed
    /// words, with a shifted-word fast path for contiguous row runs.
    #[default]
    Plan,
}

impl ReplayEngine {
    /// Stable lowercase name (used by the benchmark barometer's JSON
    /// rows).
    pub fn name(self) -> &'static str {
        match self {
            ReplayEngine::Reference => "reference-replay",
            ReplayEngine::Plan => "plan-replay",
        }
    }
}

impl std::fmt::Display for ReplayEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-trace execution report of the event simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct EventReport {
    /// Energy for the whole replayed trace, by fine-grained category.
    pub energy: EnergyBreakdown,
    /// Timesteps replayed.
    pub steps: usize,
    /// Timesteps in which at least one tile fired a crossbar read (the
    /// steps that pay compute latency; the rest cost the clocked
    /// minimum).
    pub active_steps: usize,
    /// Total cycles across all timesteps.
    pub total_cycles: u64,
    /// Wall-clock latency of the trace.
    pub latency: Time,
    /// Classifications per second (one trace = one classification);
    /// `0.0` for a zero-latency (zero-step) trace, never `inf`/NaN.
    pub throughput: f64,
    /// Per-layer event tallies.
    pub layers: Vec<EventLayerStats>,
}

impl EventReport {
    /// Total energy of the trace.
    pub fn total_energy(&self) -> Energy {
        self.energy.total()
    }

    /// Energy-delay product (pJ·ns); `0.0` whenever the product would
    /// not be finite (zero-latency traces cannot poison downstream
    /// figure-of-merit aggregation with NaN/inf).
    pub fn energy_delay_product(&self) -> f64 {
        let edp = self.energy.total().picojoules() * self.latency.nanoseconds();
        if edp.is_finite() {
            edp
        } else {
            0.0
        }
    }
}

/// Event tallies of one layer over the whole trace.
///
/// Conservation invariant (property-tested): every candidate packet is a
/// window of exactly one tile, so
/// `candidate_packets == steps × Σ_tiles ceil(rows / packet_bits)` and
/// `packets_delivered ≤ candidate_packets`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLayerStats {
    /// Layer index.
    pub layer: usize,
    /// Tiles mapped.
    pub tiles: usize,
    /// Packet windows zero-checked (delivery opportunities).
    pub candidate_packets: u64,
    /// Packet windows actually delivered (non-zero, or all of them with
    /// event-driven operation disabled).
    pub packets_delivered: u64,
    /// Crossbar reads performed.
    pub reads_performed: u64,
    /// Crossbar reads skipped by the zero-check (whole input window
    /// silent).
    pub reads_skipped: u64,
    /// Total spiking-row events across performed reads.
    pub active_row_events: u64,
    /// Bus packets moved across the inter-NeuroCell boundary.
    pub bus_packets: u64,
    /// Spikes emitted by the layer.
    pub spikes_out: u64,
}

/// Trace-driven event simulator over a [`Mapping`].
///
/// # Examples
///
/// Capture a functional run's spike trace and price it on the mapped
/// fabric — the sparser the trace, the less it costs:
///
/// ```
/// use resparc_core::map::Mapper;
/// use resparc_core::sim::event::EventSimulator;
/// use resparc_core::ResparcConfig;
/// use resparc_neuro::encoding::RegularEncoder;
/// use resparc_neuro::network::Network;
/// use resparc_neuro::topology::Topology;
///
/// let net = Network::random(Topology::mlp(96, &[64, 10]), 7, 1.0);
/// let stimulus: Vec<f32> = (0..96).map(|i| (i % 5) as f32 / 4.0).collect();
/// let raster = RegularEncoder::new(0.8).encode(&stimulus, 12);
/// let (_, trace) = net.spiking().run_traced(&raster);
///
/// let mapping = Mapper::new(ResparcConfig::resparc_64()).map_network(&net)?;
/// let report = EventSimulator::new(&mapping).run(&trace);
/// assert_eq!(report.steps, 12);
/// assert!(report.total_energy().picojoules() > 0.0);
/// assert!(report.active_steps <= report.steps);
/// # Ok::<(), resparc_core::map::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EventSimulator<'m> {
    mapping: &'m Mapping,
    engine: ReplayEngine,
}

impl<'m> EventSimulator<'m> {
    /// Creates an event simulator for a mapped network using the default
    /// (plan) replay engine.
    pub fn new(mapping: &'m Mapping) -> Self {
        Self::with_engine(mapping, ReplayEngine::default())
    }

    /// Creates an event simulator pinned to a specific replay engine.
    pub fn with_engine(mapping: &'m Mapping, engine: ReplayEngine) -> Self {
        Self { mapping, engine }
    }

    /// Replays `trace` through the fabric and returns the report.
    ///
    /// The trace's timestep count is the classification window (the
    /// configured `timesteps` budget is ignored — the trace *is* the
    /// workload).
    ///
    /// # Panics
    ///
    /// Panics if the trace's boundary structure does not match the
    /// mapping (boundary count `layers + 1`, per-boundary neuron counts
    /// equal to the mapped layer shapes).
    pub fn run(&self, trace: &SpikeTrace) -> EventReport {
        let cfg = &self.mapping.config;
        let TraceReplay {
            mut energy,
            comm_cycles,
            bus_cycles,
            compute_cycles,
            layers: layer_stats,
        } = self.replay(trace);
        let steps = trace.steps();
        let sram = SramSpec::new(cfg.input_sram_bytes, cfg.packet_bits).build();

        // Fabric time-multiplexing fold, identical to the stationary
        // model: mapped NeuroCells beyond the physical pool serialise
        // every timestep.
        let fold = fold_factor(self.mapping);
        let total_cycles: u64 = (0..steps)
            .map(|t| ((compute_cycles[t] + comm_cycles[t]) * fold + bus_cycles[t]).max(1))
            .sum();
        let active_steps = compute_cycles.iter().filter(|&&c| c > 0).count();
        let latency = cfg.frequency.cycles_to_time(total_cycles);

        // Leakage accrues on the physical chip over the trace's window.
        let physical_mpes =
            (cfg.physical_ncs * cfg.mpes_per_nc()).min(self.mapping.placement.mpes_used.max(1));
        let physical_switch_ncs = cfg.physical_ncs.min(self.mapping.placement.ncs_used.max(1));
        let logic_leak =
            crate::fabric::logic_leakage_power(cfg, physical_mpes, physical_switch_ncs);
        energy.charge(Category::LogicLeakage, logic_leak * latency);
        energy.charge(Category::MemoryLeakage, sram.leakage() * latency);

        EventReport {
            energy,
            steps,
            active_steps,
            total_cycles,
            latency,
            throughput: cost::safe_throughput(latency),
            layers: layer_stats,
        }
    }

    /// Replays `trace` through the fabric and returns its dynamic charges
    /// and per-step cycle contributions, before any leakage or timeline:
    /// the body [`run`](Self::run) finishes and
    /// [`SharedEventSimulator::interleave`](crate::fabric::SharedEventSimulator::interleave)
    /// interleaves. The replay depends only on the mapping's shape (not
    /// on its pool origin), the trace and the engine.
    ///
    /// # Panics
    ///
    /// Panics if the trace's boundary structure does not match the
    /// mapping, as [`run`](Self::run) does.
    pub fn replay(&self, trace: &SpikeTrace) -> TraceReplay {
        replay_trace(self.mapping, trace, self.engine)
    }
}

/// Serialisation factor of a mapping that overflows the physical
/// NeuroCell pool (1 for anything that fits — every admitted
/// [`FabricPool`](crate::fabric::FabricPool) tenant does by
/// construction).
pub(crate) fn fold_factor(mapping: &Mapping) -> u64 {
    mapping
        .placement
        .ncs_used
        .div_ceil(mapping.config.physical_ncs)
        .max(1) as u64
}

/// Asserts that a trace's boundary structure matches a mapping.
fn validate_trace(mapping: &Mapping, trace: &SpikeTrace) {
    assert_eq!(
        trace.boundary_count(),
        mapping.layer_count() + 1,
        "trace must have layers + 1 boundaries"
    );
    for (l, part) in mapping.partitions.iter().enumerate() {
        assert_eq!(
            trace.boundary(l).neurons(),
            part.inputs as usize,
            "layer {l}: trace input boundary size mismatch"
        );
        assert_eq!(
            trace.boundary(l + 1).neurons(),
            part.outputs as usize,
            "layer {l}: trace output boundary size mismatch"
        );
    }
}

/// Dynamic (per-event) outcome of replaying one trace through one mapped
/// network ([`EventSimulator::replay`]): the charged ledger *before*
/// leakage, per-timestep cycle contributions, and per-layer tallies.
///
/// This is the unit of work the single-tenant [`EventSimulator`] and the
/// multi-tenant
/// [`SharedEventSimulator`](crate::fabric::SharedEventSimulator) share
/// verbatim — the two paths charge identical per-event costs by
/// construction, so a one-tenant pool reproduces the dedicated-fabric
/// report exactly. The type is opaque: its only use is to be finished
/// into a report, so one replay can serve every round that presents the
/// same trace to the same network shape.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    /// Dynamic energy (no leakage yet).
    pub(crate) energy: EnergyBreakdown,
    /// Per-step switch-serialisation cycles.
    pub(crate) comm_cycles: Vec<u64>,
    /// Per-step global-bus cycles.
    pub(crate) bus_cycles: Vec<u64>,
    /// Per-step compute-phase cycles (0 on silent steps).
    pub(crate) compute_cycles: Vec<u64>,
    /// Per-layer event tallies.
    pub(crate) layers: Vec<EventLayerStats>,
}

/// One tile's packet-window scan for one timestep in the reference walk:
/// the integer counts it reduces to before the shared accounting body
/// runs.
struct TileScan {
    /// Packet windows examined (zero-check opportunities).
    windows: u64,
    /// Windows delivered (non-zero, or all with event-driven off).
    delivered: u64,
    /// Total active rows across the tile's windows.
    active: u64,
}

/// Reference engine: scalar bit test per occupied row.
#[inline]
fn scan_tile_reference(
    rows: &[u32],
    pkt: usize,
    in_spikes: SpikeView<'_>,
    event_driven: bool,
) -> TileScan {
    let mut scan = TileScan {
        windows: 0,
        delivered: 0,
        active: 0,
    };
    for window in rows.chunks(pkt) {
        let window_active = window
            .iter()
            .filter(|&&gi| in_spikes.get(gi as usize))
            .count() as u64;
        scan.windows += 1;
        scan.active += window_active;
        if window_active > 0 || !event_driven {
            scan.delivered += 1;
        }
    }
    scan
}

/// Plan engine's walk over one layer: per step, only the windows the
/// inverse index lists under a non-zero input word, once per tile class.
/// Each window and each class keeps the last step (plus one) that reached
/// it, so a step counts a window once however many of its words spike,
/// and reads a class once however many of its windows are delivered.
struct PlanWalk<'p> {
    plan: &'p LayerPlan,
    event_driven: bool,
    window_seen: Vec<usize>,
    class_seen: Vec<usize>,
}

impl<'p> PlanWalk<'p> {
    fn new(plan: &'p LayerPlan, event_driven: bool) -> Self {
        Self {
            plan,
            event_driven,
            window_seen: vec![0; plan.windows().len()],
            class_seen: vec![0; plan.class_count()],
        }
    }

    /// Counts step `t`'s windows against its input `words` (none when
    /// the step is `silent`), adds each non-zero window's active rows to
    /// its class and, when event-driven, delivers it and reads its class.
    /// Returns the step's `(delivered windows, tile reads)`, each class
    /// counting once per tile; with event-driven operation off that is
    /// every window and every tile, and the caller tallies the per-class
    /// reads in closed form.
    fn step(
        &mut self,
        t: usize,
        words: &[u64],
        silent: bool,
        reads: &mut [u64],
        active_rows: &mut [u64],
    ) -> (u64, u64) {
        let lp = self.plan;
        let undriven = (lp.tile_window_count(), lp.tile_count() as u64);
        if silent {
            return if self.event_driven { (0, 0) } else { undriven };
        }
        let stamp = t + 1;
        let (mut delivered_step, mut reads_step) = (0u64, 0u64);
        for (w, _) in words.iter().enumerate().filter(|&(_, &bits)| bits != 0) {
            for &wi in lp.word_windows(w) {
                let wi = wi as usize;
                if self.window_seen[wi] == stamp {
                    continue;
                }
                self.window_seen[wi] = stamp;
                #[cfg(test)]
                tests::EVALUATIONS.with(|e| e.set(e.get() + 1));
                let active = lp.windows()[wi].count(words, lp.masks());
                if active == 0 {
                    continue;
                }
                let c = lp.owner(wi);
                active_rows[c] += active;
                if self.event_driven {
                    let size = lp.class_size(c);
                    delivered_step += size;
                    if self.class_seen[c] != stamp {
                        self.class_seen[c] = stamp;
                        reads[c] += 1;
                        reads_step += size;
                    }
                }
            }
        }
        if self.event_driven {
            (delivered_step, reads_step)
        } else {
            undriven
        }
    }
}

/// Replays `trace` through `mapping` and returns the dynamic charges and
/// cycle contributions (the body shared by both simulators).
///
/// # Panics
///
/// Panics if the trace's boundary structure does not match the mapping.
fn replay_trace(mapping: &Mapping, trace: &SpikeTrace, engine: ReplayEngine) -> TraceReplay {
    let cfg = &mapping.config;
    validate_trace(mapping, trace);
    let plan = match engine {
        ReplayEngine::Plan => Some(mapping.replay_plan()),
        ReplayEngine::Reference => None,
    };

    let cat = &cfg.catalog;
    let n = cfg.mca_size;
    let pkt = cfg.packet_bits as usize;
    let steps = trace.steps();
    let mca = McaEnergyModel::new(cfg.device, n);
    let sram = SramSpec::new(cfg.input_sram_bytes, cfg.packet_bits).build();

    let mut energy = EnergyBreakdown::new();
    let mut layer_stats = Vec::with_capacity(mapping.layer_count());
    // Per-step latency contributions across layers. Compute cycles
    // are event-driven too: a layer only pays its multiplexing
    // phases in steps where it actually fired a read, so a trace's
    // silent tail (TTFS, bursts) costs the clocked minimum per step.
    let mut comm_cycles = vec![0u64; steps];
    let mut bus_cycles = vec![0u64; steps];
    let mut compute_cycles = vec![0u64; steps];
    // Non-zero packets per step at the boundary feeding layer `l`.
    let mut in_packets = boundary_packets(trace.boundary(0), pkt);

    for (l, part) in mapping.partitions.iter().enumerate() {
        let layer_plan = plan.as_deref().map(|p| p.layer(l));
        debug_assert!(
            layer_plan.is_none_or(|lp| lp.tile_count() == part.tile_count()),
            "plan/partition tile count mismatch at layer {l}"
        );
        let span = &mapping.placement.layers[l];
        let mag = mapping.mean_weight_mags[l];
        let in_raster = trace.boundary(l);
        let out_packets = boundary_packets(trace.boundary(l + 1), pkt);
        let switch_capacity = (cfg.switches_per_nc() * span.nc_count().max(1)) as f64;
        let crosses = mapping.placement.boundary_crosses_nc(l) && (l == 0 || part.max_degree > 1);

        let layer_compute = part.max_degree as u64 + u64::from(span.ccu_transfers_per_step > 0);
        let tiles = part.tile_count();
        // Crossbar tallies per tile class: class `c` is tiles
        // `class_tiles[c]..class_tiles[c + 1]`, each of which read
        // `class_reads[c]` times and saw `class_active_rows[c]` spiking
        // rows. The reference engine's classes hold one tile each.
        let singletons: Vec<u32>;
        let class_tiles = match layer_plan {
            Some(lp) => lp.class_tiles(),
            None => {
                singletons = (0..=tiles as u32).collect();
                &singletons
            }
        };
        let mut class_reads = vec![0u64; class_tiles.len() - 1];
        let mut class_active_rows = class_reads.clone();
        let mut candidates = 0u64;
        let mut delivered = 0u64;
        let mut reads_performed = 0u64;
        let mut reads_skipped = 0u64;
        let mut bus_packets_total = 0u64;
        let mut plan_walk = layer_plan.map(|lp| PlanWalk::new(lp, cfg.event_driven));

        for (t, in_spikes) in in_raster.iter().enumerate() {
            let (deliveries_step, reads_step) = match plan_walk.as_mut() {
                Some(walk) => walk.step(
                    t,
                    in_spikes.words(),
                    in_packets[t] == 0,
                    &mut class_reads,
                    &mut class_active_rows,
                ),
                None => {
                    let (mut deliveries_step, mut reads_step) = (0u64, 0u64);
                    for (ti, rows) in part.tile_rows.iter().enumerate() {
                        let scan = scan_tile_reference(rows, pkt, in_spikes, cfg.event_driven);
                        candidates += scan.windows;
                        deliveries_step += scan.delivered;
                        if scan.active > 0 || !cfg.event_driven {
                            class_reads[ti] += 1;
                            class_active_rows[ti] += scan.active;
                            reads_step += 1;
                        }
                    }
                    (deliveries_step, reads_step)
                }
            };
            delivered += deliveries_step;
            reads_performed += reads_step;
            reads_skipped += tiles as u64 - reads_step;
            comm_cycles[t] =
                comm_cycles[t].max((deliveries_step as f64 / switch_capacity).ceil() as u64);
            if reads_step > 0 {
                compute_cycles[t] = compute_cycles[t].max(layer_compute);
            }

            // --- Bus + input SRAM (inter-NC boundary) ---------------
            if crosses {
                let windows = (part.inputs as usize).div_ceil(pkt) as u64;
                let moved = if cfg.event_driven {
                    in_packets[t]
                } else {
                    windows
                };
                let trips = if l == 0 { 1u64 } else { 2 };
                energy.charge(
                    Category::Communication,
                    cat.bus_transfer(cfg.packet_bits) * (moved * trips) as f64,
                );
                energy.charge(
                    Category::MemoryAccess,
                    sram.read_energy() * moved as f64
                        + if l == 0 {
                            Energy::ZERO
                        } else {
                            sram.write_energy() * moved as f64
                        },
                );
                if cfg.event_driven {
                    energy.charge(
                        Category::Communication,
                        cat.zero_check(cfg.packet_bits) * windows as f64,
                    );
                }
                bus_packets_total += moved;
                bus_cycles[t] += moved * trips;
            }
        }

        // The plan walk never visits a window no spike reaches: every
        // window is a candidate each step, and with event-driven
        // operation off every tile reads every step.
        if let Some(lp) = layer_plan {
            candidates = steps as u64 * lp.tile_window_count();
            if !cfg.event_driven {
                class_reads.fill(steps as u64);
            }
        }

        // --- Spike distribution (switch network + buffers) ----------
        energy.charge(
            Category::Communication,
            cat.switch_hop(cfg.packet_bits) * (delivered as f64 * AVG_SWITCH_HOPS),
        );
        if cfg.event_driven {
            energy.charge(
                Category::Communication,
                cat.zero_check(cfg.packet_bits) * candidates as f64,
            );
        }
        // oBUFF read at the producer, iBUFF write + read at the
        // consuming mPE — occupancy follows delivered packets only.
        energy.charge(
            Category::Buffer,
            cat.buffer_access(cfg.packet_bits) * (3.0 * delivered as f64),
        );

        // --- Crossbar reads + neuron integration --------------------
        // A class that never read has no active rows, and each of its
        // tiles would add +0.0, so only reading classes are priced: tile
        // by tile, in tile order. Within a layer a tile's read cost
        // depends only on its synapse count.
        let mut crossbar_e = Energy::ZERO;
        let mut integrations = 0u64;
        let mut active_row_events = 0u64;
        let mut priced: Option<(u32, cost::TileReadCost)> = None;
        let tallies = class_reads.iter().zip(&class_active_rows);
        for (c, (&reads, &active)) in tallies.enumerate() {
            if reads == 0 {
                continue;
            }
            let class = &part.tiles[class_tiles[c] as usize..class_tiles[c + 1] as usize];
            active_row_events += class.len() as u64 * active;
            for tile in class {
                let cost = match priced {
                    Some((synapses, cost)) if synapses == tile.synapses => cost,
                    _ => {
                        let cost = cost::tile_read_cost(&mca, tile, n, mag);
                        priced = Some((tile.synapses, cost));
                        cost
                    }
                };
                crossbar_e += cost.fixed * reads as f64 + cost.per_active_row * active as f64;
                integrations += tile.cols as u64 * reads;
            }
        }
        energy.charge(Category::Crossbar, crossbar_e);

        let spikes_out = trace.boundary(l + 1).total_spikes();
        energy.charge(
            Category::Neuron,
            cat.neuron_integrate * integrations as f64 + cat.neuron_spike * spikes_out as f64,
        );
        // --- tBUFF target lookups for emitted spike packets ---------
        let out_packets_delivered: u64 = out_packets.iter().sum();
        energy.charge(
            Category::Buffer,
            cat.buffer_access(TARGET_ADDRESS_BITS) * out_packets_delivered as f64,
        );

        // --- CCU analog transfers -----------------------------------
        if tiles > 0 {
            let mean_reads = reads_performed as f64 / tiles as f64;
            energy.charge(
                Category::Communication,
                cat.switch_hop(CCU_TRANSFER_BITS)
                    * (span.ccu_transfers_per_step as f64 * mean_reads),
            );
        }

        // --- Control ------------------------------------------------
        let local_phases = cost::local_phases(part, cfg);
        energy.charge(
            Category::Control,
            cat.control_cycle * (span.mpe_count() as f64 * local_phases as f64 * steps as f64)
                + cat.control_cycle * delivered as f64,
        );

        layer_stats.push(EventLayerStats {
            layer: l,
            tiles,
            candidate_packets: candidates,
            packets_delivered: delivered,
            reads_performed,
            reads_skipped,
            active_row_events,
            bus_packets: bus_packets_total,
            spikes_out,
        });
        in_packets = out_packets;
    }

    TraceReplay {
        energy,
        comm_cycles,
        bus_cycles,
        compute_cycles,
        layers: layer_stats,
    }
}

/// Number of non-zero `width`-bit windows in each step of one boundary —
/// the spike packets it actually emits per timestep. Word-masked (one
/// zero test per touched word), identical for both replay engines.
fn boundary_packets(raster: &SpikeRaster, width: usize) -> Vec<u64> {
    let windows = raster.neurons().div_ceil(width);
    raster
        .iter()
        .map(|spikes| {
            if spikes.is_silent() {
                return 0;
            }
            (0..windows)
                .filter(|&w| !spikes.window_is_zero(w * width, width))
                .count() as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResparcConfig;
    use crate::map::Mapper;
    use resparc_neuro::encoding::RegularEncoder;
    use resparc_neuro::network::Network;
    use resparc_neuro::topology::Topology;
    use std::cell::Cell;

    fn traced_net(rate: f32, steps: usize) -> (Network, SpikeTrace) {
        let t = Topology::mlp(128, &[96, 10]);
        let net = Network::random(t, 11, 1.0);
        let enc = RegularEncoder::new(1.0);
        let stimulus: Vec<f32> = (0..128).map(|i| rate * ((i % 5) as f32 / 4.0)).collect();
        let raster = enc.encode(&stimulus, steps);
        let (_, trace) = net.spiking().run_traced(&raster);
        (net, trace)
    }

    fn traced_mlp(rate: f32, steps: usize) -> (Mapping, SpikeTrace) {
        let (net, trace) = traced_net(rate, steps);
        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        (mapping, trace)
    }

    use crate::map::Mapping;

    thread_local! {
        /// Windows `PlanWalk::step` has counted on this thread (each test
        /// runs on its own thread).
        pub(super) static EVALUATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The plan walk counts each window once per tile class, not once per
    /// tile: a count, so unlike the replay timing gates it tells a class
    /// walk from a per-tile one on any machine.
    #[test]
    fn plan_walk_counts_each_class_window_once() {
        // The paper's MNIST-MLP: at MCA 64 each fan-in chunk's 12-13
        // column tiles share one 64-row window, and 64-bit packets align
        // every window to one trace word.
        let net = Network::random(Topology::mlp(784, &[800, 800, 768, 10]), 3, 1.0);
        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        let tiles: usize = mapping.partitions.iter().map(|p| p.tile_count()).sum();
        assert_eq!((mapping.replay_plan().window_count(), tiles), (51, 506));

        let sim = EventSimulator::new(&mapping);
        let boundaries = [784, 800, 800, 768, 10];
        EVALUATIONS.with(|e| e.set(0));
        sim.run(&SpikeTrace::silent(&boundaries, 20));
        assert_eq!(EVALUATIONS.with(Cell::get), 0, "silent trace");

        let stimulus: Vec<f32> = (0..784).map(|i| (i % 9) as f32 / 9.0).collect();
        let raster = RegularEncoder::new(0.8).encode(&stimulus, 20);
        let (_, trace) = net.spiking().run_traced(&raster);
        let spiking_words: u64 = (0..4)
            .flat_map(|b| trace.boundary(b).iter())
            .map(|step| step.words().iter().filter(|&&w| w != 0).count() as u64)
            .sum();
        assert!(spiking_words > 0);
        EVALUATIONS.with(|e| e.set(0));
        sim.run(&trace);
        assert_eq!(EVALUATIONS.with(Cell::get), spiking_words, "rate trace");
    }

    #[test]
    fn report_has_positive_energy_and_latency() {
        let (mapping, trace) = traced_mlp(0.6, 20);
        let r = EventSimulator::new(&mapping).run(&trace);
        assert!(r.total_energy() > Energy::ZERO);
        assert!(r.latency.nanoseconds() > 0.0);
        assert!(r.throughput > 0.0);
        assert_eq!(r.steps, 20);
        assert_eq!(r.layers.len(), 2);
    }

    #[test]
    fn silent_trace_charges_no_crossbar_or_neuron_energy() {
        let (mapping, _) = traced_mlp(0.6, 4);
        let silent = SpikeTrace::silent(&[128, 96, 10], 4);
        let r = EventSimulator::new(&mapping).run(&silent);
        assert_eq!(r.energy.get(Category::Crossbar), Energy::ZERO);
        assert_eq!(r.energy.get(Category::Neuron), Energy::ZERO);
        // Zero-checks still run, so communication is non-zero.
        assert!(r.energy.get(Category::Communication) > Energy::ZERO);
        for ls in &r.layers {
            assert_eq!(ls.packets_delivered, 0);
            assert_eq!(ls.reads_performed, 0);
            assert_eq!(ls.reads_skipped as usize, ls.tiles * 4);
        }
    }

    #[test]
    fn packet_conservation_across_tiles() {
        let (mapping, trace) = traced_mlp(0.6, 12);
        let r = EventSimulator::new(&mapping).run(&trace);
        let pkt = mapping.config.packet_bits as usize;
        for (ls, part) in r.layers.iter().zip(mapping.partitions.iter()) {
            let expected: u64 = part
                .tile_rows
                .iter()
                .map(|rows| rows.len().div_ceil(pkt) as u64)
                .sum::<u64>()
                * trace.steps() as u64;
            assert_eq!(ls.tiles, part.tile_count());
            assert_eq!(ls.candidate_packets, expected);
            assert!(ls.packets_delivered <= ls.candidate_packets);
        }
    }

    #[test]
    fn event_driven_never_costs_more_than_undriven_replay() {
        let (net, trace) = traced_net(0.3, 16);
        let with = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        let without = Mapper::new(ResparcConfig::resparc_64().with_event_driven(false))
            .map_network(&net)
            .unwrap();
        let with = EventSimulator::new(&with).run(&trace);
        let without = EventSimulator::new(&without).run(&trace);
        assert!(
            with.total_energy().picojoules() <= without.total_energy().picojoules() * 1.001,
            "with {} vs without {}",
            with.total_energy(),
            without.total_energy()
        );
    }

    #[test]
    fn silent_trace_is_finite_and_costs_clocked_minimum() {
        let (mapping, _) = traced_mlp(0.6, 6);
        let silent = SpikeTrace::silent(&[128, 96, 10], 6);
        let r = EventSimulator::new(&mapping).run(&silent);
        assert_eq!(r.active_steps, 0);
        // A fully silent step costs exactly the clocked minimum cycle.
        assert_eq!(r.total_cycles, 6);
        assert!(r.throughput.is_finite());
        assert!(r.energy_delay_product().is_finite());
    }

    #[test]
    fn zero_step_trace_reports_zero_throughput_not_nan() {
        let (mapping, _) = traced_mlp(0.6, 2);
        let empty = SpikeTrace::silent(&[128, 96, 10], 0);
        let r = EventSimulator::new(&mapping).run(&empty);
        assert_eq!(r.steps, 0);
        assert_eq!(r.active_steps, 0);
        assert_eq!(r.total_cycles, 0);
        assert!(r.throughput.is_finite());
        assert_eq!(r.throughput, 0.0);
        assert!(r.energy_delay_product().is_finite());
        assert_eq!(r.energy_delay_product(), 0.0);
    }

    #[test]
    fn sparse_tail_pays_clocked_minimum_latency() {
        use resparc_neuro::spike::{SpikeRaster, SpikeVector};

        // Same network, same mean input: activity compressed into the
        // first 4 of 16 steps vs spread uniformly. The bursty trace's
        // silent tail must cost only the clocked minimum, making it
        // strictly faster than the uniform presentation.
        let t = Topology::mlp(128, &[96, 10]);
        let net = Network::random(t, 11, 1.0);
        let stimulus: Vec<f32> = (0..128).map(|i| (i % 5) as f32 / 4.0).collect();
        let dense = RegularEncoder::new(1.0).encode(&stimulus, 4);
        let mut raster = SpikeRaster::new(128);
        for s in dense.iter() {
            raster.push_view(s);
        }
        for _ in 4..16 {
            raster.push(SpikeVector::new(128));
        }
        let (_, bursty) = net.spiking().run_traced(&raster);
        // Same expected spike count spread across the whole window.
        let uniform_raster =
            resparc_neuro::encoding::PoissonEncoder::new(0.25, 5).encode(&stimulus, 16);
        let (_, uniform) = net.spiking().run_traced(&uniform_raster);

        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map_network(&net)
            .unwrap();
        let sim = EventSimulator::new(&mapping);
        let rb = sim.run(&bursty);
        let ru = sim.run(&uniform);
        // Input stops at step 4; residual membrane potential lets deeper
        // layers coast a few more steps, but well short of the window.
        assert!(rb.active_steps < 12, "active {}", rb.active_steps);
        assert!(ru.active_steps > rb.active_steps);
        assert!(
            rb.total_cycles < ru.total_cycles,
            "bursty {} cycles vs uniform {}",
            rb.total_cycles,
            ru.total_cycles
        );
    }

    #[test]
    fn busier_trace_costs_more() {
        let (mapping, quiet) = traced_mlp(0.15, 16);
        let (_, busy) = traced_mlp(0.9, 16);
        let sim = EventSimulator::new(&mapping);
        assert!(sim.run(&busy).total_energy() > sim.run(&quiet).total_energy());
    }

    #[test]
    #[should_panic(expected = "boundaries")]
    fn wrong_trace_shape_panics() {
        let (mapping, _) = traced_mlp(0.5, 2);
        let bad = SpikeTrace::silent(&[128, 10], 2);
        let _ = EventSimulator::new(&mapping).run(&bad);
    }

    #[test]
    fn plan_engine_is_bit_identical_to_reference() {
        // The tentpole contract: the word-level plan engine must
        // reproduce the scalar reference engine's report exactly —
        // every f64 in the ledger, every cycle, every tally.
        for rate in [0.0f32, 0.15, 0.6, 1.0] {
            let (mapping, trace) = traced_mlp(rate, 16);
            let reference =
                EventSimulator::with_engine(&mapping, ReplayEngine::Reference).run(&trace);
            let plan = EventSimulator::with_engine(&mapping, ReplayEngine::Plan).run(&trace);
            assert_eq!(reference, plan, "rate {rate}");
        }
    }

    #[test]
    fn plan_engine_is_bit_identical_on_conv_and_undriven_fabrics() {
        use resparc_neuro::topology::{ChannelTable, Padding, Shape};

        // Conv layers under input-sharing produce scattered (Masks)
        // windows; event_driven=false exercises the deliver-everything
        // arm. Both must stay bit-identical.
        let t = Topology::builder(Shape::new(10, 10, 1))
            .conv(5, 3, Padding::Same, ChannelTable::Full)
            .pool(2)
            .dense(10)
            .build()
            .unwrap();
        let net = Network::random(t, 23, 1.0);
        let stimulus: Vec<f32> = (0..100).map(|i| ((i % 7) as f32) / 6.0).collect();
        let raster = RegularEncoder::new(0.7).encode(&stimulus, 12);
        let (_, trace) = net.spiking().run_traced(&raster);
        for event_driven in [true, false] {
            let cfg = ResparcConfig::resparc_32().with_event_driven(event_driven);
            let mapping = Mapper::new(cfg).map_network(&net).unwrap();
            let reference =
                EventSimulator::with_engine(&mapping, ReplayEngine::Reference).run(&trace);
            let plan = EventSimulator::with_engine(&mapping, ReplayEngine::Plan).run(&trace);
            assert_eq!(reference, plan, "event_driven {event_driven}");
        }
    }

    #[test]
    fn default_engine_is_plan() {
        assert_eq!(ReplayEngine::default(), ReplayEngine::Plan);
        assert_eq!(ReplayEngine::Plan.name(), "plan-replay");
        assert_eq!(ReplayEngine::Reference.to_string(), "reference-replay");
    }
}
