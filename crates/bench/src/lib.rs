//! Benchmark harness regenerating every table and figure of the RESPARC
//! paper's evaluation (Figs. 8–14).
//!
//! Each `figNN` function renders one figure's data as text; the matching
//! binaries (`cargo run -p resparc-bench --release --bin fig11`, or
//! `--bin all_figures` for the lot) print them and `all_figures` also
//! writes `results/figNN.txt`. Absolute joules and seconds come from our
//! calibrated analytic models, not the authors' Synopsys flow — the
//! reproduction targets the *shape* of each result (who wins, by what
//! order, where the crossovers fall). The committed `results/*.txt`
//! hold every figure as measured, and CI fails when a fresh
//! `all_figures` run differs from them.
//!
//! Wall-clock performance of the simulators themselves is tracked by the
//! criterion benches in `benches/simulator.rs` (`cargo bench -p
//! resparc-bench`), including the compiled-kernel vs closure-walk
//! `snn_step` / `forward_batch` / `accuracy_sweep` groups; see the
//! repository's `BENCHMARKS.md` for how to run them and read the emitted
//! `BENCH_*.json`.

use std::fmt::Write as _;

use resparc_suite::compare::{compare_benchmark, compare_many, Comparison};
use resparc_suite::prelude::*;
use resparc_suite::resparc_workloads::{all_benchmarks, cnn_benchmarks, mlp_benchmarks};

/// Packet widths measured into every activity profile.
pub const WIDTHS: [u32; 4] = [16, 32, 64, 128];
/// Seed used by every generator (full determinism).
pub const SEED: u64 = 7;

fn fmt_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(out, "| {:<w$} ", c, w = widths[i]);
        }
        out.push_str("|\n");
    };
    line(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let mut sep = String::new();
    for w in &widths {
        let _ = write!(sep, "|{}", "-".repeat(w + 2));
    }
    sep.push_str("|\n");
    out.push_str(&sep);
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Runs one benchmark on both machines at the given MCA size.
///
/// # Panics
///
/// Panics only on an invalid internal configuration (a bug, not input).
pub fn run_pair(bench: &Benchmark, mca: usize, event_driven: bool) -> Comparison {
    compare_benchmark(
        bench,
        &ResparcConfig::with_mca_size(mca).with_event_driven(event_driven),
        &CmosConfig::paper_baseline(),
        SEED,
    )
    .expect("benchmark configs are valid")
}

/// Fig. 8: RESPARC micro-architectural parameters and implementation
/// metrics.
pub fn fig08() -> String {
    let cfg = ResparcConfig::resparc_64();
    let m = cfg.reported_metrics();
    let rows = vec![
        vec!["Architecture".into(), format!("{} bit", cfg.packet_bits)],
        vec![
            "NC Dimension".into(),
            format!("{}x{}", cfg.nc_dim, cfg.nc_dim),
        ],
        vec![
            "No. of mPE (Switches)".into(),
            format!("{} ({})", cfg.mpes_per_nc(), cfg.switches_per_nc()),
        ],
        vec![
            "No. of MCAs per mPE".into(),
            format!("{}", cfg.mcas_per_mpe),
        ],
        vec!["Feature Size".into(), "45nm".into()],
        vec![
            "Area".into(),
            format!("{:.2} mm^2", m.area.square_millimeters()),
        ],
        vec!["Power".into(), format!("{:.1} mW", m.power.milliwatts())],
        vec!["Gate Count".into(), format!("{}", m.gate_count)],
        vec!["Frequency".into(), format!("{}", m.frequency)],
    ];
    format!(
        "Fig. 8 — RESPARC parameters and metrics (one NeuroCell)\n{}",
        fmt_table(&["Parameter", "Value"], &rows)
    )
}

/// Fig. 9: CMOS baseline parameters and implementation metrics.
pub fn fig09() -> String {
    let cfg = CmosConfig::paper_baseline();
    let m = cfg.reported_metrics();
    let rows = vec![
        vec!["NU count".into(), format!("{}", cfg.nu_count)],
        vec![
            "FIFO(s): Input (Weight)".into(),
            format!("{} (1)", cfg.input_fifos),
        ],
        vec!["FIFO depth".into(), format!("{}", cfg.fifo_depth)],
        vec![
            "Width: FIFO (NU)".into(),
            format!("{0} ({0})", cfg.datapath_bits),
        ],
        vec!["Feature Size".into(), "45nm".into()],
        vec![
            "Area".into(),
            format!("{:.2} mm^2", m.area.square_millimeters()),
        ],
        vec!["Power".into(), format!("{:.1} mW", m.power.milliwatts())],
        vec!["Gate Count".into(), format!("{}", m.gate_count)],
        vec!["Frequency".into(), format!("{}", m.frequency)],
    ];
    format!(
        "Fig. 9 — CMOS baseline parameters and metrics\n{}",
        fmt_table(&["Parameter", "Value"], &rows)
    )
}

/// Fig. 10: the six SNN benchmarks (paper numbers next to our concrete
/// topologies).
pub fn fig10() -> String {
    let rows: Vec<Vec<String>> = all_benchmarks()
        .iter()
        .map(|b| {
            vec![
                b.dataset.name().into(),
                b.style.name().into(),
                format!("{}", b.paper.layers),
                format!("{}", b.topology.layer_count()),
                format!("{}", b.paper.neurons),
                format!("{}", b.topology.neuron_count()),
                format!("{}", b.paper.synapses),
                format!("{}", b.topology.synapse_count()),
                format!("{:+.1}%", 100.0 * b.synapse_delta()),
            ]
        })
        .collect();
    format!(
        "Fig. 10 — SNN benchmarks (paper vs this reproduction)\n{}",
        fmt_table(
            &[
                "Dataset",
                "Net",
                "Layers(p)",
                "Layers",
                "Neurons(p)",
                "Neurons",
                "Synapses(p)",
                "Synapses",
                "dSyn"
            ],
            &rows
        )
    )
}

/// Fig. 11: per-classification energy benefits and speedups of RESPARC-64
/// over the CMOS baseline, for the CNN and MLP benchmark groups.
pub fn fig11() -> String {
    let mut out = String::new();
    for (tag, group, paper_gain, paper_speedup) in [
        (
            "CNN (Fig. 11 a/c)",
            cnn_benchmarks(),
            [11.0, 15.0, 10.0],
            [33.0, 52.0, 95.0],
        ),
        (
            "MLP (Fig. 11 b/d)",
            mlp_benchmarks(),
            [331.0, 659.0, 549.0],
            [360.0, 371.0, 415.0],
        ),
    ] {
        let mut rows = Vec::new();
        let cmps = compare_many(
            &group,
            &ResparcConfig::with_mca_size(64).with_event_driven(true),
            &CmosConfig::paper_baseline(),
            SEED,
        )
        .expect("benchmark configs are valid");
        for (i, (b, cmp)) in group.iter().zip(&cmps).enumerate() {
            rows.push(vec![
                b.name.clone(),
                format!("{:.1}x", cmp.energy_gain),
                format!("{:.0}x", paper_gain[i]),
                format!("{:.1}x", cmp.speedup),
                format!("{:.0}x", paper_speedup[i]),
                format!("{:.2} uJ", cmp.resparc.total_energy().microjoules()),
                format!("{:.1} uJ", cmp.cmos.total_energy().microjoules()),
            ]);
        }
        let _ = write!(
            out,
            "{tag}\n{}\n",
            fmt_table(
                &[
                    "Benchmark",
                    "Energy gain",
                    "(paper)",
                    "Speedup",
                    "(paper)",
                    "RESPARC E",
                    "CMOS E"
                ],
                &rows
            )
        );
    }
    format!("Fig. 11 — RESPARC-64 vs CMOS baseline, per classification\n{out}")
}

/// Fig. 12: energy breakdowns across MCA sizes (RESPARC) and the CMOS
/// baseline's core/memory split, for both benchmark groups.
pub fn fig12() -> String {
    let mut out = String::new();
    for (tag, group) in [
        ("MLP (Fig. 12 a/b)", mlp_benchmarks()),
        ("CNN (Fig. 12 c/d)", cnn_benchmarks()),
    ] {
        let mut rows = Vec::new();
        for b in &group {
            for mca in [32usize, 64, 128] {
                let cmp = run_pair(b, mca, true);
                let groups = cmp.resparc.energy.resparc_groups();
                let total = cmp.resparc.total_energy();
                rows.push(vec![
                    format!("{} @ {mca}", b.name),
                    format!("{:.2} uJ", total.microjoules()),
                    format!("{:.1}%", 100.0 * (groups[0].1 / total)),
                    format!("{:.1}%", 100.0 * (groups[1].1 / total)),
                    format!("{:.1}%", 100.0 * (groups[2].1 / total)),
                ]);
            }
        }
        let _ = write!(
            out,
            "RESPARC breakdown — {tag}\n{}\n",
            fmt_table(
                &[
                    "Benchmark @ MCA",
                    "Total",
                    "Neuron",
                    "Crossbar",
                    "Peripherals"
                ],
                &rows
            )
        );

        let mut rows = Vec::new();
        for b in &group {
            let cmp = run_pair(b, 64, true);
            let groups = cmp.cmos.energy.cmos_groups();
            let total = cmp.cmos.total_energy();
            rows.push(vec![
                b.name.clone(),
                format!("{:.1} uJ", total.microjoules()),
                format!("{:.1}%", 100.0 * (groups[0].1 / total)),
                format!("{:.1}%", 100.0 * (groups[1].1 / total)),
                format!("{:.1}%", 100.0 * (groups[2].1 / total)),
            ]);
        }
        let _ = write!(
            out,
            "CMOS breakdown — {tag}\n{}\n",
            fmt_table(
                &["Benchmark", "Total", "Core", "Mem Access", "Mem Leakage"],
                &rows
            )
        );
    }
    format!("Fig. 12 — energy breakdowns vs MCA size\n{out}")
}

/// Fig. 13: effect of event-drivenness (MNIST, MLP and CNN, MCA sizes
/// 32/64/128, with vs without zero-check).
pub fn fig13() -> String {
    let mut out = String::new();
    for b in [
        resparc_suite::resparc_workloads::mnist_mlp(),
        resparc_suite::resparc_workloads::mnist_cnn(),
    ] {
        let mut rows = Vec::new();
        for mca in [128usize, 64, 32] {
            let with = run_pair(&b, mca, true);
            let without = run_pair(&b, mca, false);
            let saving = 1.0
                - with.resparc.total_energy().picojoules()
                    / without.resparc.total_energy().picojoules();
            rows.push(vec![
                format!("RESPARC-{mca}"),
                format!("{:.2} uJ", without.resparc.total_energy().microjoules()),
                format!("{:.2} uJ", with.resparc.total_energy().microjoules()),
                format!("{:.1}%", 100.0 * saving),
            ]);
        }
        let _ = write!(
            out,
            "{} (w/o vs w/ event-drivenness)\n{}\n",
            b.name,
            fmt_table(&["Machine", "w/o", "w/", "Saving"], &rows)
        );
    }
    format!("Fig. 13 — event-driven energy savings on MNIST\n{out}")
}

/// Fig. 14(a): classification accuracy vs weight bit-discretization on
/// scaled-down trained SNNs for the three datasets.
pub fn fig14a() -> String {
    let mut rows = Vec::new();
    for kind in [DatasetKind::Mnist, DatasetKind::Svhn, DatasetKind::Cifar10] {
        let side = 16usize;
        let gen = SyntheticImages::new(kind, side, SEED);
        let train = gen.labelled_set(400, 0);
        let test = gen.labelled_set(100, 50_000);
        let mut cfg = TrainConfig::quick_test();
        cfg.epochs = 30;
        let mut net = train_mlp(side * side, &[64, 10], &train, &cfg);
        let calib: Vec<Vec<f32>> = train.iter().take(32).map(|(x, _)| x.clone()).collect();
        normalize_for_snn(&mut net, &calib, 0.99);

        let mut cells = vec![kind.name().to_string()];
        for bits in [1u8, 2, 4, 8] {
            let (qnet, _) = quantize_network(&net, Precision::new(bits));
            // Batched sweep on the quantized net's compiled kernels:
            // identical per-sample seeds/steps to the original serial
            // loop (SweepConfig::fig14a() == 80 steps, 0.8 peak, seed 7).
            let report = spiking_accuracy_sweep(&qnet, &test, &SweepConfig::fig14a());
            cells.push(format!("{:.1}%", 100.0 * report.accuracy()));
        }
        rows.push(cells);
    }
    format!(
        "Fig. 14(a) — spiking accuracy vs weight bit-discretization\n\
         (scaled-down 16x16 synthetic sets, trained MLP 256-64-10; the paper's\n\
         observation is that 4-bit accuracy ~= 8-bit accuracy)\n{}",
        fmt_table(&["Dataset", "1 bit", "2 bit", "4 bit", "8 bit"], &rows)
    )
}

/// Fig. 14(b): energy vs weight bit-discretization — RESPARC is
/// insensitive, the CMOS baseline grows with precision.
pub fn fig14b() -> String {
    let b = resparc_suite::resparc_workloads::mnist_mlp();
    let profile = b.activity_profile(&WIDTHS, SEED);
    let mut rows = Vec::new();
    let base_resparc = {
        let mapping = Mapper::new(ResparcConfig::resparc_64())
            .map(&b.topology)
            .expect("valid config");
        Simulator::new(&mapping).run(&profile).total_energy()
    };
    let base_cmos = CmosSimulator::new(CmosConfig::paper_baseline().with_weight_bits(4))
        .run(&b.topology, &profile)
        .total_energy();
    for bits in [1u32, 2, 4, 8] {
        // RESPARC: conductance levels change, the analog read does not.
        let mut rcfg = ResparcConfig::resparc_64();
        rcfg.mca_levels = 1 << bits;
        let mapping = Mapper::new(rcfg).map(&b.topology).expect("valid config");
        let r = Simulator::new(&mapping).run(&profile).total_energy();
        let c = CmosSimulator::new(CmosConfig::paper_baseline().with_weight_bits(bits))
            .run(&b.topology, &profile)
            .total_energy();
        rows.push(vec![
            format!("{bits}"),
            format!("{:.3}", r / base_resparc),
            format!("{:.3}", c / base_cmos),
        ]);
    }
    format!(
        "Fig. 14(b) — normalized energy vs bit-discretization (MNIST MLP;\n\
         RESPARC normalized to itself, CMOS to its 4-bit point)\n{}",
        fmt_table(&["Bits", "RESPARC (norm)", "CMOS (norm)"], &rows)
    )
}

/// Extension figure (beyond the paper's evaluation): accuracy vs
/// energy-per-inference across spike codings — Poisson rate, regular
/// rate, TTFS and burst — on a trained MNIST-style MLP, priced by the
/// trace-driven event simulator at a matched timestep budget. The
/// stationary simulator structurally cannot run this comparison: a TTFS
/// train's single-spike sparsity and a burst's silent tail violate its
/// rate-stationarity assumption, so every number here comes from
/// replaying each stimulus's actual spike trace.
pub fn fig_encoding() -> String {
    let steps = 30usize;
    let gen = SyntheticImages::new(DatasetKind::Mnist, 16, SEED);
    let train = gen.labelled_set(400, 0);
    let test = gen.labelled_set(60, 50_000);
    let mut cfg = TrainConfig::quick_test();
    cfg.epochs = 30;
    let mut net = train_mlp(256, &[64, 10], &train, &cfg);
    let calib: Vec<Vec<f32>> = train.iter().take(32).map(|(x, _)| x.clone()).collect();
    normalize_for_snn(&mut net, &calib, 0.99);
    let mapping = Mapper::new(ResparcConfig::resparc_64().with_timesteps(steps as u32))
        .map_network(&net)
        .expect("valid config");

    let sweep = SweepConfig::rate(steps, 0.8, SEED);
    let encodings = [
        Encoding::Rate,
        Encoding::RegularRate,
        Encoding::Ttfs,
        Encoding::Burst {
            max_burst: 6,
            gap: 2,
        },
    ];
    let reports = encoding_energy_sweep(&net, &mapping, &test, &sweep, &encodings);
    let base = reports[0].1.mean_total_energy();
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(enc, r)| {
            vec![
                enc.to_string(),
                format!("{:.1}%", 100.0 * r.accuracy()),
                format!("{:.1}", r.mean_total_energy().nanojoules()),
                format!("{:.1}", r.mean_comm_crossbar_energy().nanojoules()),
                format!("{:.2}", r.mean_latency.microseconds()),
                format!("{:.2}x", base / r.mean_total_energy()),
            ]
        })
        .collect();
    format!(
        "Encoding comparison — accuracy vs energy per inference across spike codes\n\
         (trained 256-64-10 MLP on the 16x16 synthetic MNIST set, RESPARC-64,\n\
         {steps} timesteps per presentation, trace-driven event simulation)\n{}",
        fmt_table(
            &[
                "Encoding",
                "Accuracy",
                "E/inf (nJ)",
                "comm+xbar (nJ)",
                "Latency (us)",
                "Gain vs rate"
            ],
            &rows
        )
    )
}

/// Multi-tenancy comparison (beyond the paper): N networks sharing one
/// NeuroCell pool vs taking turns on it — identical spike traces,
/// identical per-event charges, so the whole difference is how long the
/// powered pool leaks and how its shared bus serialises. This is the
/// reconfigurability story of §3 priced end-to-end: co-residency
/// amortizes idle-NC leakage across tenants and overlaps their
/// makespans, at the cost of measurable bus contention. The follow-up
/// sections price the *dynamic* half: weighted bus QoS (who absorbs the
/// contention) and mid-replay tenant churn under the three packing
/// policies vs static batch provisioning.
pub fn fig_tenancy() -> String {
    use resparc_suite::resparc_workloads::multi_tenant_sweep;

    let pool_cfg = ResparcConfig::resparc_64();
    let gen = SyntheticImages::new(DatasetKind::Mnist, 12, SEED);
    let samples = gen.labelled_set(4, 900);
    let sweep = SweepConfig::rate(25, 0.7, SEED);

    let mut rows = Vec::new();
    for tenants in [2usize, 3, 4] {
        let nets: Vec<Network> = (0..tenants as u64)
            .map(|s| Network::random(Topology::mlp(144, &[96, 10]), 60 + s, 1.0))
            .collect();
        let r = multi_tenant_sweep(&nets, &samples, &sweep, &pool_cfg).expect("tenants fit");
        rows.push(vec![
            format!("{tenants}"),
            format!("{:.0}%", 100.0 * r.pool_utilization),
            format!(
                "{:.2} / {:.2}",
                r.serial.latency.microseconds(),
                r.shared.latency.microseconds()
            ),
            format!(
                "{:.1} / {:.1}",
                r.serial.energy_per_inference().nanojoules(),
                r.shared.energy_per_inference().nanojoules()
            ),
            format!("{:.2}x", r.energy_per_inference_gain()),
            format!("{:.2}x", r.edp_gain()),
            format!("{:.0}%", 100.0 * r.mean_bus_occupancy),
        ]);
    }
    format!(
        "Multi-tenant fabric — serial vs co-resident execution on one RESPARC-64 pool\n\
         (random 144-96-10 MLP tenants, 4 rounds x 25 steps, trace-driven shared replay;\n\
         E/inference bills the whole powered pool's leakage to its resident tenants)\n{}\n\
         {}\n{}",
        fmt_table(
            &[
                "Tenants",
                "NC util",
                "Wall-clock us (ser/co)",
                "E/inf nJ (ser/co)",
                "E/inf gain",
                "EDP gain",
                "Bus busy"
            ],
            &rows
        ),
        fig_tenancy_qos(),
        fig_tenancy_churn()
    )
}

/// Weighted bus QoS: the same three-tenant shared replay under fair and
/// under 4:2:1 weighted round-robin arbitration. The bus is
/// work-conserving — makespan, ledger and bus occupancy are
/// bit-identical in both runs — so the table isolates what the weights
/// actually move: which tenant's packets wait, and what each tenant's
/// perceived inference latency becomes.
fn fig_tenancy_qos() -> String {
    let pool_cfg = ResparcConfig::resparc_64();
    let nets: Vec<Network> = (0..3u64)
        .map(|s| Network::random(Topology::mlp(144, &[96, 10]), 60 + s, 1.0))
        .collect();
    let traces: Vec<SpikeTrace> = nets
        .iter()
        .map(|net| {
            let stimulus: Vec<f32> = (0..144).map(|i| (i % 7) as f32 / 7.0).collect();
            let raster = RegularEncoder::new(0.8).encode(&stimulus, 25);
            net.spiking().run_traced(&raster).1
        })
        .collect();
    let mut pool = FabricPool::new(pool_cfg);
    let ids: Vec<TenantId> = nets
        .iter()
        .enumerate()
        .map(|(i, n)| pool.admit(n, &format!("tenant{i}")).expect("fits"))
        .collect();
    let pairs: Vec<(TenantId, &SpikeTrace)> = ids.iter().copied().zip(traces.iter()).collect();
    let sim = SharedEventSimulator::new(&pool);
    let fair = sim.run_weighted(&pairs, &[1, 1, 1]);
    let weighted = sim.run_weighted(&pairs, &[4, 2, 1]);
    assert_eq!(weighted.latency, fair.latency, "the bus is work-conserving");

    let rows: Vec<Vec<String>> = fair
        .tenants
        .iter()
        .zip(&weighted.tenants)
        .map(|(f, w)| {
            vec![
                f.name.clone(),
                format!("{}", w.weight),
                format!("{}", f.bus_stall_cycles),
                format!("{}", w.bus_stall_cycles),
                format!("{:.3}", f.latency.microseconds()),
                format!("{:.3}", w.latency.microseconds()),
            ]
        })
        .collect();
    format!(
        "Weighted bus QoS — fair vs 4:2:1 weighted round-robin, same traces\n\
         (3 co-resident 144-96-10 tenants, 25 steps; makespan {:.2} us and ledger are\n\
         weight-independent — the weights only choose who absorbs the bus contention)\n{}",
        fair.latency.microseconds(),
        fmt_table(
            &[
                "Tenant",
                "Weight",
                "Stall cyc (fair)",
                "Stall cyc (wrr)",
                "Latency us (fair)",
                "Latency us (wrr)"
            ],
            &rows
        )
    )
}

/// Mid-replay churn: an arrival/departure schedule through the
/// `FabricScheduler` under each packing policy, against the static
/// co-resident batching baseline — same networks, same traces, same
/// per-event charges, so every delta is scheduling.
fn fig_tenancy_churn() -> String {
    use resparc_suite::resparc_workloads::{churn_sweep, ChurnSpec};

    let pool_cfg = ResparcConfig::resparc_64();
    let gen = SyntheticImages::new(DatasetKind::Mnist, 12, SEED);
    let samples = gen.labelled_set(3, 900);
    let sweep = SweepConfig::rate(20, 0.7, SEED);

    // Eight 2-NC tenants fill the 16-NC pool at round 0; two depart
    // after one round, fragmenting the free list. A 4-NC tenant and a
    // late 2-NC arrival must be scheduled into the churn.
    let mut nets: Vec<Network> = (0..8u64)
        .map(|s| Network::random(Topology::mlp(144, &[576, 576, 10]), 70 + s, 1.0))
        .collect();
    nets.push(Network::random(
        Topology::mlp(144, &[576, 576, 576, 10]),
        80,
        1.0,
    ));
    nets.push(Network::random(
        Topology::mlp(144, &[576, 576, 10]),
        81,
        1.0,
    ));
    let mut specs: Vec<ChurnSpec> = (0..8)
        .map(|i| ChurnSpec::new(0, if i == 0 || i == 2 { 1 } else { 5 }))
        .collect();
    specs.push(ChurnSpec::new(0, 3)); // the 4-NC request
    specs.push(ChurnSpec::new(2, 2)); // late arrival

    let mut rows = Vec::new();
    for policy in [
        PackingPolicy::FirstFit,
        PackingPolicy::BestFit,
        PackingPolicy::Defragment,
    ] {
        let r = churn_sweep(&nets, &specs, &samples, &sweep, &pool_cfg, policy)
            .expect("every request fits the pool alone");
        rows.push(vec![
            format!("{policy:?}"),
            format!("{} / {}", r.churned.rounds, r.static_baseline.rounds),
            format!(
                "{:.0}% / {:.0}%",
                100.0 * r.churned.mean_active_utilization,
                100.0 * r.static_baseline.mean_active_utilization
            ),
            format!(
                "{:.1} ({})",
                r.churned.mean_queue_wait, r.churned.max_queue_wait
            ),
            format!(
                "{:.1} / {:.1}",
                r.churned.tenancy.energy_per_inference().nanojoules(),
                r.static_baseline
                    .tenancy
                    .energy_per_inference()
                    .nanojoules()
            ),
            format!("{:.2}x", r.energy_per_inference_gain()),
            format!("{:.2}x", r.makespan_gain()),
        ]);
    }
    format!(
        "Mid-replay churn — dynamic scheduling vs static co-resident batches\n\
         (10 requests: 8x 2-NC + 1x 4-NC + 1 late 2-NC on RESPARC-64, 20 steps/round;\n\
         two early departures fragment the pool, so the 4-NC request needs compaction)\n{}",
        fmt_table(
            &[
                "Policy",
                "Rounds (dyn/static)",
                "Active util",
                "Wait mean (max)",
                "E/inf nJ (dyn/static)",
                "E/inf gain",
                "Makespan gain"
            ],
            &rows
        )
    )
}

/// The packing scenario behind `fig_packing` and the CI packing-quality
/// gate: the default `packing_scenario` shapes, with traces encoded at
/// the harness seed. Fully deterministic — every count in the report is
/// machine-independent.
fn packing_report() -> resparc_suite::resparc_workloads::PackingReport {
    use resparc_suite::resparc_workloads::{packing_scenario, packing_sweep};

    let (nets, shapes) = packing_scenario();
    let samples: Vec<Vec<f32>> = (0..2)
        .map(|s| (0..144).map(|i| ((s * 5 + i) % 9) as f32 / 9.0).collect())
        .collect();
    packing_sweep(
        &nets,
        &shapes,
        &samples,
        &SweepConfig::rate(20, 0.7, SEED),
        &ResparcConfig::resparc_64(),
    )
    .expect("the default scenario maps on every shape")
}

/// Packing figure (beyond the paper): the same admission batch placed
/// by greedy first-fit and by the exact placement search
/// (`PlacementStrategy::Optimized`), across a fragmented homogeneous
/// pool, a heterogeneous 64/32 inventory and an uncontended control.
/// Greedy is the oracle and the search's first incumbent; only a
/// strictly better layout replaces it, so greedy wins every tie and the
/// search is never worse on admits. The fragmented/heterogeneous rows
/// are where the search buys real capacity back.
pub fn fig_packing() -> String {
    let report = packing_report();
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.shape.clone(),
                format!("{}", r.requests),
                format!("{} / {}", r.greedy.admitted, r.optimized.admitted),
                format!(
                    "{:.0}% / {:.0}%",
                    100.0 * r.greedy.utilization,
                    100.0 * r.optimized.utilization
                ),
                format!("{} / {}", r.greedy.bus_trips, r.optimized.bus_trips),
                format!("{} / {}", r.greedy.fragments, r.optimized.fragments),
                format!(
                    "{:.1} / {:.1}",
                    r.greedy.tenancy.energy_per_inference().nanojoules(),
                    r.optimized.tenancy.energy_per_inference().nanojoules()
                ),
                format!("{:+}", r.admit_gain()),
            ]
        })
        .collect();
    format!(
        "Batch packing — greedy first-fit vs exact placement search, per fabric shape\n\
         (1/2/4/5-NC MLP tenants on RESPARC-64 inventories; the search tries every\n\
         admission order and MCA size class over the same probe/admit API, starting\n\
         from the greedy schedule and keeping it on ties, so it is never worse on\n\
         admits; one shared replay round meters each layout)\n{}",
        fmt_table(
            &[
                "Shape",
                "Reqs",
                "Admit (g/o)",
                "NC util (g/o)",
                "Bus trips (g/o)",
                "Frags (g/o)",
                "E/inf nJ (g/o)",
                "Gain"
            ],
            &rows
        )
    )
}

/// The packing-quality counters in the `BENCH_*.json` shape
/// `bench_gate` consumes — admitted-tenant counts, not timings, so the
/// `packing_quality/greedy_admitted=packing_quality/optimized_admitted`
/// ratio gate is exact on any machine.
pub fn packing_quality_json() -> String {
    let report = packing_report();
    format!(
        "{{\"group\":\"packing_quality\",\"results\":[\
         {{\"id\":\"packing_quality/greedy_admitted\",\"median_ns\":{}.0}},\
         {{\"id\":\"packing_quality/optimized_admitted\",\"median_ns\":{}.0}}]}}\n",
        report.greedy_admitted(),
        report.optimized_admitted()
    )
}

/// Resilience figure (beyond the paper): what silicon damage costs and
/// what the self-healing fabric gets back. The first table is the
/// device-fault degradation surface — stuck-at rate, conductance drift
/// and log-normal variation applied to a trained MLP's kernels via
/// [`FaultPlan`], swept per coding scheme, because rate coding's
/// redundancy and TTFS's single-spike code absorb the same damage very
/// differently. The second table injects permanent NeuroCell failures
/// mid-replay into a dynamically scheduled pool and measures the
/// evict-requeue-readmit recovery loop under each packing policy.
pub fn fig_resilience() -> String {
    let steps = 30usize;
    let gen = SyntheticImages::new(DatasetKind::Mnist, 16, SEED);
    let train = gen.labelled_set(400, 0);
    let test = gen.labelled_set(40, 50_000);
    let mut cfg = TrainConfig::quick_test();
    cfg.epochs = 30;
    let mut net = train_mlp(256, &[64, 10], &train, &cfg);
    let calib: Vec<Vec<f32>> = train.iter().take(32).map(|(x, _)| x.clone()).collect();
    normalize_for_snn(&mut net, &calib, 0.99);
    let mapping = Mapper::new(ResparcConfig::resparc_64().with_timesteps(steps as u32))
        .map_network(&net)
        .expect("valid config");
    let sweep = SweepConfig::rate(steps, 0.8, SEED);

    let plans = [
        ("clean", FaultPlan::none()),
        ("stuck 2%", FaultPlan::stuck_at(SEED, 0.02)),
        ("stuck 5%", FaultPlan::stuck_at(SEED, 0.05)),
        ("stuck 10%", FaultPlan::stuck_at(SEED, 0.10)),
        ("drift 20%", FaultPlan::none().with_drift(0.2)),
        (
            "stuck 5% + var 0.3",
            FaultPlan::stuck_at(SEED, 0.05).with_variation(0.3),
        ),
    ];
    let encodings = [
        Encoding::Rate,
        Encoding::Ttfs,
        Encoding::Burst {
            max_burst: 6,
            gap: 2,
        },
    ];
    let only_plans: Vec<FaultPlan> = plans.iter().map(|(_, p)| *p).collect();
    let points = fault_sweep(&net, &mapping, &test, &sweep, &only_plans, &encodings);
    let rows: Vec<Vec<String>> = plans
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            let cell = |e: usize| &points[i * encodings.len() + e].report;
            vec![
                (*label).to_string(),
                format!("{:.1}%", 100.0 * cell(0).accuracy()),
                format!("{:.1}%", 100.0 * cell(1).accuracy()),
                format!("{:.1}%", 100.0 * cell(2).accuracy()),
                format!("{:.1}", cell(0).mean_total_energy().nanojoules()),
                format!("{:.1}", cell(2).mean_total_energy().nanojoules()),
            ]
        })
        .collect();
    format!(
        "Device-fault degradation — accuracy per coding scheme vs injected damage\n\
         (trained 256-64-10 MLP on the 16x16 synthetic MNIST set, RESPARC-64,\n\
         {steps} timesteps, trace-driven replay of the faulted kernels; the clean\n\
         plan is bit-identical to the fault-free path)\n{}\n{}",
        fmt_table(
            &[
                "Fault plan",
                "Rate acc",
                "TTFS acc",
                "Burst acc",
                "Rate E/inf (nJ)",
                "Burst E/inf (nJ)"
            ],
            &rows
        ),
        fig_resilience_drill()
    )
}

/// NC-failure recovery drill: five tenants churn through a RESPARC-64
/// pool while two NeuroCells die mid-replay; the scheduler evicts each
/// victim, re-queues it at the head and re-admits it on surviving
/// cells. Rows compare the packing policies on the same schedule and
/// fault sequence.
fn fig_resilience_drill() -> String {
    use resparc_suite::resparc_workloads::{fault_recovery_drill, ChurnSpec, FaultEvent};

    let pool_cfg = ResparcConfig::resparc_64();
    let gen = SyntheticImages::new(DatasetKind::Mnist, 12, SEED);
    let samples = gen.labelled_set(4, 900);
    let sweep = SweepConfig::rate(15, 0.7, SEED);

    // Four 2-NC tenants and one 5-NC tenant (13 of 16 cells busy);
    // NC 0 dies in round 1 (a 2-NC victim) and NC 10 in round 2 (the
    // wide tenant's territory under first-fit placement).
    let mut nets: Vec<Network> = (0..4u64)
        .map(|s| Network::random(Topology::mlp(144, &[576, 576, 10]), 50 + s, 1.0))
        .collect();
    nets.push(Network::random(
        Topology::mlp(144, &[576, 576, 576, 576, 10]),
        60,
        1.0,
    ));
    let specs: Vec<ChurnSpec> = (0..nets.len()).map(|_| ChurnSpec::new(0, 4)).collect();
    let faults = [FaultEvent::new(1, 0), FaultEvent::new(2, 10)];

    let mut rows = Vec::new();
    for policy in [
        PackingPolicy::FirstFit,
        PackingPolicy::BestFit,
        PackingPolicy::Defragment,
    ] {
        let r = fault_recovery_drill(&nets, &specs, &samples, &sweep, &pool_cfg, policy, &faults)
            .expect("every request fits the pre-fault pool");
        rows.push(vec![
            format!("{policy:?}"),
            format!("{}", r.rounds),
            format!("{} / {}", r.completed, r.aborted),
            format!("{}", r.total_interruptions),
            format!("{:.1}", r.mean_recovery_rounds),
            format!("{}", r.lost_replays),
            format!(
                "{:.0}% / {:.0}%",
                100.0 * r.utilization_before,
                100.0 * r.utilization_after
            ),
            format!(
                "{:.1}",
                r.dynamic_energy.nanojoules() / r.inferences.max(1) as f64
            ),
        ]);
    }
    format!(
        "NC-failure recovery — mid-replay faults into a scheduled pool, per policy\n\
         (4x 2-NC + 1x 5-NC tenants, 4 service rounds each on RESPARC-64; NC 0 dies\n\
         in round 1 and NC 10 in round 2; victims lose the in-flight round, re-queue\n\
         at the head and re-admit wherever healthy capacity remains)\n{}",
        fmt_table(
            &[
                "Policy",
                "Rounds",
                "Done/abort",
                "Interrupts",
                "Recovery (rds)",
                "Lost replays",
                "Util pre/post",
                "E/inf (nJ)"
            ],
            &rows
        )
    )
}

/// The serving workload shared by every `fig_serving` table: three
/// 1-NC classes with a 4:2:1 weight split and SLOs spanning tight
/// (premium) to indifferent (bulk), offered at ~3x the fabric's
/// round rate so queues form and the tail is real.
fn serving_workload() -> (Vec<Network>, Vec<ServiceClass>) {
    let nets = vec![
        Network::random(Topology::mlp(144, &[576, 576, 10]), 90, 1.0), // 2 NCs
        Network::random(Topology::mlp(144, &[96, 10]), 91, 1.0),       // 1 NC
        Network::random(Topology::mlp(144, &[576, 576, 576, 10]), 92, 1.0), // 4 NCs
    ];
    let classes = vec![
        ServiceClass::new("premium", 2, 35_000.0).with_weight(4),
        ServiceClass::new("standard", 3, 250_000.0).with_weight(2),
        ServiceClass::new("bulk", 4, 1_000_000.0).with_weight(1),
    ];
    (nets, classes)
}

/// The three arrival traces the serving tables sweep.
fn serving_traces() -> [ArrivalProcess; 3] {
    [
        ArrivalProcess::Poisson,
        ArrivalProcess::Bursty { burst: 6 },
        ArrivalProcess::Diurnal {
            period_ns: 60_000.0,
            amplitude: 0.9,
        },
    ]
}

/// Serving figure (beyond the paper): the fabric priced as an online
/// SNN inference *service* — open-loop Poisson/bursty/diurnal arrival
/// traces through the event-clock serving loop (admission control,
/// bounded-window backfilling, preemption), reporting the latency
/// distribution, goodput and SLO violations per packing policy; then
/// the SLO-adaptive bus-weight controller against the static 4:2:1
/// split on the same trace; then the partial-pool power-gating bill
/// against the always-powered baseline.
pub fn fig_serving() -> String {
    let (nets, classes) = serving_workload();
    let pool_cfg = ResparcConfig::resparc_64();
    let sweep = SweepConfig::rate(20, 0.7, SEED);
    let spec = |arrivals| ServingSpec::new(18, 3_000.0, arrivals, SEED);
    let run = |spec: &ServingSpec, policy| {
        serving_sweep(&nets, &classes, spec, &sweep, &pool_cfg, policy)
            .expect("every class fits the pool")
    };

    // --- Table 1: tail latency / goodput / SLO violations per trace
    // and packing policy.
    let mut rows = Vec::new();
    for arrivals in serving_traces() {
        for policy in [
            PackingPolicy::FirstFit,
            PackingPolicy::BestFit,
            PackingPolicy::Defragment,
        ] {
            let r = run(&spec(arrivals), policy);
            rows.push(vec![
                r.trace.into(),
                format!("{policy:?}"),
                format!("{:.2}", r.p50.microseconds()),
                format!("{:.2}", r.p95.microseconds()),
                format!("{:.2}", r.p99.microseconds()),
                format!("{:.0}", 1e-3 * r.goodput),
                format!("{:.0}%", 100.0 * r.violation_rate()),
                format!("{}", r.rounds),
            ]);
        }
    }
    let slos = fmt_table(
        &[
            "Trace", "Policy", "p50 us", "p95 us", "p99 us", "Good/ms", "Viol", "Rounds",
        ],
        &rows,
    );

    // --- Table 2: the SLO-adaptive controller vs the static 4:2:1
    // weights on the identical bursty trace. The bus is
    // work-conserving, so rounds/energy match bit for bit and the
    // controller can only redistribute waiting toward the SLO.
    let bursty = spec(ArrivalProcess::Bursty { burst: 6 });
    let static_run = run(&bursty, PackingPolicy::FirstFit);
    let adaptive_run = run(
        &bursty
            .clone()
            .with_qos(QosPolicy::Adaptive { max_weight: 64 }),
        PackingPolicy::FirstFit,
    );
    let rows: Vec<Vec<String>> = static_run
        .classes
        .iter()
        .zip(&adaptive_run.classes)
        .map(|(s, a)| {
            vec![
                s.name.clone(),
                format!("{} -> {}", s.final_weight, a.final_weight),
                format!("{:.2}", s.p99.microseconds()),
                format!("{:.2}", a.p99.microseconds()),
                format!("{}", s.slo_violations),
                format!("{}", a.slo_violations),
            ]
        })
        .collect();
    let controller = format!(
        "SLO-adaptive QoS — static 4:2:1 weights vs the feedback controller, same\n\
         bursty trace (work-conserving bus: both runs take {} rounds and the same\n\
         energy; the controller only moves who waits)\n{}",
        static_run.rounds,
        fmt_table(
            &[
                "Class",
                "Weight (static -> adaptive)",
                "p99 us (static)",
                "p99 us (adaptive)",
                "Viol (static)",
                "Viol (adaptive)"
            ],
            &rows
        )
    );

    // --- Table 3: partial-pool power gating vs the always-powered
    // pool, per trace (deeper idle troughs -> bigger saving).
    let mut rows = Vec::new();
    for arrivals in serving_traces() {
        let gated = run(&spec(arrivals), PackingPolicy::FirstFit);
        rows.push(vec![
            gated.trace.into(),
            format!(
                "{:.0}%",
                100.0 * gated.busy_time.nanoseconds() / gated.makespan.nanoseconds()
            ),
            format!("{:.1}", gated.gated_idle_leakage.nanojoules()),
            format!("{:.1}", gated.ungated_idle_leakage.nanojoules()),
            format!("{:.1}", gated.pool_energy().nanojoules()),
            format!("{:.1}", gated.ungated_pool_energy().nanojoules()),
            format!("{:.0}%", 100.0 * gated.gating_saving()),
        ]);
    }
    let gating = format!(
        "Partial-pool power gating — idle NCs billed at 10% leakage vs always-on\n\
         (identical schedules and dynamic energy; the ungated column is the same\n\
         run's counterfactual always-powered bill, and a gating factor of 1.0\n\
         reproduces it bit-identically)\n{}",
        fmt_table(
            &[
                "Trace",
                "Busy",
                "Idle leak nJ (gated)",
                "Idle leak nJ (ungated)",
                "Bill nJ (gated)",
                "Bill nJ (ungated)",
                "Saving"
            ],
            &rows
        )
    );

    format!(
        "Online serving — open-loop traffic on one RESPARC-64 pool\n\
         (premium/standard/bulk classes of 2/1/4-NC MLPs at 4:2:1 weights, SLOs\n\
         35/250/1000 us, 18 requests at a ~3 us mean gap, 20-step rounds,\n\
         event-clock loop with a 4-round backfill window; seeds fixed,\n\
         bit-reproducible)\n{slos}\n{controller}\n{gating}"
    )
}

/// Every figure in order, as `(name, text)` pairs.
pub fn all_figures() -> Vec<(&'static str, String)> {
    vec![
        ("fig08", fig08()),
        ("fig09", fig09()),
        ("fig10", fig10()),
        ("fig11", fig11()),
        ("fig12", fig12()),
        ("fig13", fig13()),
        ("fig14a", fig14a()),
        ("fig14b", fig14b()),
        ("fig_encoding", fig_encoding()),
        ("fig_tenancy", fig_tenancy()),
        ("fig_packing", fig_packing()),
        ("fig_resilience", fig_resilience()),
        ("fig_serving", fig_serving()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig08_reports_paper_metrics() {
        let s = fig08();
        assert!(s.contains("0.29 mm^2"));
        assert!(s.contains("53.2 mW"));
        assert!(s.contains("200 MHz"));
        assert!(s.contains("16 (9)"));
    }

    #[test]
    fn fig09_reports_paper_metrics() {
        let s = fig09();
        assert!(s.contains("0.19 mm^2"));
        assert!(s.contains("35.1 mW"));
        assert!(s.contains("1 GHz"));
    }

    #[test]
    fn fig10_has_all_six_benchmarks() {
        let s = fig10();
        for name in ["MNIST", "SVHN", "CIFAR-10"] {
            assert!(s.contains(name), "{name} missing");
        }
        assert!(s.contains("66778"));
        assert!(s.contains("231066"));
    }

    #[test]
    fn fig11_shape_mlp_beats_cnn() {
        // The headline result: MLP gains far exceed CNN gains on both
        // axes.
        let mlp = run_pair(&resparc_suite::resparc_workloads::mnist_mlp(), 64, true);
        let cnn = run_pair(&resparc_suite::resparc_workloads::mnist_cnn(), 64, true);
        assert!(mlp.energy_gain > 100.0, "MLP gain {}", mlp.energy_gain);
        assert!(
            (3.0..60.0).contains(&cnn.energy_gain),
            "CNN gain {}",
            cnn.energy_gain
        );
        assert!(mlp.energy_gain > 5.0 * cnn.energy_gain);
        assert!(mlp.speedup > cnn.speedup);
        assert!(cnn.speedup > 10.0);
    }

    #[test]
    fn fig12_shape_mlp_monotone_cnn_flattens_past_64() {
        // Fig. 12(a): MLP energy falls monotonically with MCA size, with
        // a substantial gain at every step. Fig. 12(c): CNNs gain a lot
        // from 32->64 but "an increase in MCA size from 64 to 128 does
        // not result in a corresponding decrease" -- under-utilization
        // eats the benefit (our activity-gated device model flattens
        // rather than upticks at 128: in `results/fig12.txt` each CNN's
        // 64 -> 128 step saves far less than its 32 -> 64 step).
        let b = resparc_suite::resparc_workloads::mnist_mlp();
        let e: Vec<f64> = [32usize, 64, 128]
            .iter()
            .map(|&m| run_pair(&b, m, true).resparc.total_energy().picojoules())
            .collect();
        assert!(e[0] > e[1] && e[1] > e[2], "MLP energies {e:?}");
        let mlp_step2_gain = 1.0 - e[2] / e[1];
        assert!(mlp_step2_gain > 0.3, "MLP 64->128 gain {mlp_step2_gain}");

        let c = resparc_suite::resparc_workloads::mnist_cnn();
        let e: Vec<f64> = [32usize, 64, 128]
            .iter()
            .map(|&m| run_pair(&c, m, true).resparc.total_energy().picojoules())
            .collect();
        assert!(e[1] < 0.6 * e[0], "CNN 64 must strongly beat 32: {e:?}");
        let cnn_step2_gain = 1.0 - e[2] / e[1];
        assert!(
            cnn_step2_gain < mlp_step2_gain,
            "CNN 64->128 gain {cnn_step2_gain} must flatten vs MLP {mlp_step2_gain}"
        );
    }

    #[test]
    fn fig13_shape_event_driven_saves_more_on_small_mcas_and_mlp() {
        let saving = |b: &Benchmark, mca: usize| {
            let w = run_pair(b, mca, true).resparc.total_energy().picojoules();
            let wo = run_pair(b, mca, false).resparc.total_energy().picojoules();
            1.0 - w / wo
        };
        let mlp = resparc_suite::resparc_workloads::mnist_mlp();
        let cnn = resparc_suite::resparc_workloads::mnist_cnn();
        let s32 = saving(&mlp, 32);
        let s128 = saving(&mlp, 128);
        assert!(s32 > s128, "MLP: 32 saves {s32}, 128 saves {s128}");
        assert!(
            saving(&mlp, 64) > saving(&cnn, 64),
            "MLP should save more than CNN"
        );
        assert!(s32 > 0.0);
    }

    #[test]
    fn fig_serving_controller_beats_static_for_premium() {
        // The acceptance bar for the SLO controller: on the identical
        // bursty trace it must demonstrably reduce p99 or the violation
        // count for the prioritized class vs the static 4:2:1 weights,
        // while the work-conserving bus keeps the schedule and energy
        // bit-identical.
        let (nets, classes) = serving_workload();
        let pool_cfg = ResparcConfig::resparc_64();
        let sweep = SweepConfig::rate(20, 0.7, SEED);
        let spec = ServingSpec::new(18, 3_000.0, ArrivalProcess::Bursty { burst: 6 }, SEED);
        let run = |spec: &ServingSpec| {
            serving_sweep(
                &nets,
                &classes,
                spec,
                &sweep,
                &pool_cfg,
                PackingPolicy::FirstFit,
            )
            .expect("classes fit")
        };
        let static_run = run(&spec);
        let adaptive = run(&spec
            .clone()
            .with_qos(QosPolicy::Adaptive { max_weight: 64 }));

        assert_eq!(adaptive.rounds, static_run.rounds);
        assert_eq!(adaptive.dynamic_energy, static_run.dynamic_energy);
        assert_eq!(adaptive.makespan, static_run.makespan);
        let s = &static_run.classes[0];
        let a = &adaptive.classes[0];
        assert!(a.p99 <= s.p99 && a.slo_violations <= s.slo_violations);
        assert!(
            a.p99 < s.p99 || a.slo_violations < s.slo_violations,
            "controller must improve premium: static p99 {:?} viol {} vs adaptive p99 {:?} viol {}",
            s.p99,
            s.slo_violations,
            a.p99,
            a.slo_violations
        );
    }

    #[test]
    fn fig_packing_optimizer_strictly_wins_and_gates_cleanly() {
        // The acceptance bar: at least one fragmented/heterogeneous
        // shape where Optimized strictly beats Greedy on admits or
        // utilization, surfaced as exact machine-independent counters
        // for the CI ratio gate.
        let report = packing_report();
        assert!(report.has_strict_win());
        assert!(report.optimized_admitted() > report.greedy_admitted());
        for row in &report.rows {
            assert!(
                row.optimized.admitted >= row.greedy.admitted,
                "{}",
                row.shape
            );
        }
        let json = packing_quality_json();
        assert!(json.contains("packing_quality/greedy_admitted"));
        assert!(json.contains("packing_quality/optimized_admitted"));
        let rendered = fig_packing();
        assert!(rendered.contains("16x64 fragmented"));
        assert!(rendered.contains("4x64+2x32 mixed"));
    }

    #[test]
    fn fig14b_shape_resparc_flat_cmos_growing() {
        let b = resparc_suite::resparc_workloads::mnist_mlp();
        let profile = b.activity_profile(&WIDTHS, SEED);
        let cmos = |bits: u32| {
            CmosSimulator::new(CmosConfig::paper_baseline().with_weight_bits(bits))
                .run(&b.topology, &profile)
                .total_energy()
                .picojoules()
        };
        assert!(cmos(8) > cmos(4) && cmos(4) > cmos(2) && cmos(2) > cmos(1));
        // RESPARC: level count does not change analog read energy.
        let resparc = |bits: u32| {
            let mut cfg = ResparcConfig::resparc_64();
            cfg.mca_levels = 1 << bits;
            let m = Mapper::new(cfg).map(&b.topology).unwrap();
            Simulator::new(&m).run(&profile).total_energy().picojoules()
        };
        let r1 = resparc(1);
        let r8 = resparc(8);
        assert!(
            (r1 / r8 - 1.0).abs() < 0.01,
            "RESPARC not flat: {r1} vs {r8}"
        );
    }
}
