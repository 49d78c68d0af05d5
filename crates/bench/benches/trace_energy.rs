//! Criterion benches of the trace-driven energy path: capturing a
//! [`SpikeTrace`] from the functional SNN, replaying it through the
//! mapped fabric's event simulator, and the combined
//! accuracy-plus-energy sweep — with the stationary analytic simulator
//! alongside as the fast-path reference. Emits `BENCH_trace_energy.json`
//! (see `BENCHMARKS.md`), which the `bench_gate` binary compares against
//! `bench/baseline.json` in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use resparc_suite::prelude::*;

const STEPS: usize = 20;

/// The paper's MNIST MLP (784-800-800-768-10) with random weights — the
/// same workload as the `snn_step`/`accuracy_sweep` groups.
fn mnist_mlp_net() -> Network {
    Network::random(
        resparc_suite::resparc_workloads::mnist_mlp().topology,
        3,
        1.0,
    )
}

fn mnist_stimulus() -> Vec<f32> {
    (0..784).map(|i| (i % 9) as f32 / 9.0).collect()
}

/// Capturing a 20-step trace on the compiled kernels: the whole
/// `run_traced` call, spiking run and recording together. `mnist_mlp_20steps`
/// captures a Poisson rate raster; `mnist_mlp_silent_20steps` captures an
/// all-silent one, where every layer-step is skipped, so its cost is the
/// runner and the recorder alone. CI gates their ratio.
/// `encode_poisson_mnist_20steps` times the stage before capture: Poisson
/// encoding of one synthetic MNIST digit (peak rate 0.8, as the `dense`
/// sweeps use), which draws only for the digit's lit pixels.
fn bench_capture_trace(c: &mut Criterion) {
    let net = mnist_mlp_net();
    let mut enc = PoissonEncoder::new(0.4, 5);
    let raster = enc.encode(&mnist_stimulus(), STEPS);
    let silent = SpikeRaster::zeroed(784, STEPS);
    let mut group = c.benchmark_group("trace_capture");
    group.sample_size(10);
    let digit = DatasetKind::Mnist.generator(5).sample(0, 0);
    let mut digit_enc = PoissonEncoder::new(0.8, 5);
    group.bench_function("encode_poisson_mnist_20steps", |b| {
        b.iter(|| black_box(digit_enc.encode(black_box(&digit), STEPS)))
    });
    for (id, raster) in [
        ("mnist_mlp_20steps", &raster),
        ("mnist_mlp_silent_20steps", &silent),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut runner = net.spiking();
                black_box(runner.run_traced(black_box(raster)))
            })
        });
    }
    group.finish();
}

/// Replaying a captured trace through the event simulator vs one
/// stationary analytic run on the same mapping — the cost of per-packet
/// fidelity over the closed-form expectation.
///
/// `event_mnist_mlp_20steps` is pinned to the scalar **reference**
/// engine: it is the denominator of the machine-independent
/// `event_replay_plan/... = event_replay/...` CI ratio gate, so it must
/// keep measuring the row-walk whatever the library default is.
fn bench_event_replay(c: &mut Criterion) {
    let net = mnist_mlp_net();
    let mut enc = PoissonEncoder::new(0.4, 5);
    let raster = enc.encode(&mnist_stimulus(), STEPS);
    let (_, trace) = net.spiking().run_traced(&raster);
    let mapping = Mapper::new(ResparcConfig::resparc_64().with_timesteps(STEPS as u32))
        .map_network(&net)
        .unwrap();
    let profile = trace.to_profile(&[16, 32, 64, 128]);

    let mut group = c.benchmark_group("event_replay");
    group.sample_size(10);
    group.bench_function("event_mnist_mlp_20steps", |b| {
        b.iter(|| {
            black_box(
                EventSimulator::with_engine(black_box(&mapping), ReplayEngine::Reference)
                    .run(black_box(&trace)),
            )
        })
    });
    group.bench_function("stationary_mnist_mlp", |b| {
        b.iter(|| black_box(Simulator::new(black_box(&mapping)).run(black_box(&profile))))
    });
    group.finish();

    // The compiled word-level plan engine on the identical trace and
    // mapping. The plan is compiled (and cached on the mapping) before
    // timing starts, mirroring how a long-lived mapping amortises it.
    let _ = mapping.replay_plan();
    let mut group = c.benchmark_group("event_replay_plan");
    group.sample_size(10);
    group.bench_function("event_mnist_mlp_20steps", |b| {
        b.iter(|| {
            black_box(
                EventSimulator::with_engine(black_box(&mapping), ReplayEngine::Plan)
                    .run(black_box(&trace)),
            )
        })
    });
    group.finish();
}

/// The rebar-style engine barometer's criterion face: every replay
/// engine (stationary analytic, scalar reference, word-level plan) over
/// three points of the shared corpus — the dense rate trace, the sparse
/// TTFS trace and the all-silent trace. One comparable id per
/// engine×workload; the plan engine's cost follows spikes, so CI gates
/// its TTFS and silent ids against its dense one. The full five-trace
/// corpus with JSON rows lives in the `barometer` binary
/// (`cargo run --release -p resparc-bench --bin barometer`).
fn bench_barometer(c: &mut Criterion) {
    let net = mnist_mlp_net();
    let mapping = Mapper::new(ResparcConfig::resparc_64().with_timesteps(STEPS as u32))
        .map_network(&net)
        .unwrap();
    let _ = mapping.replay_plan();
    let stimulus = mnist_stimulus();
    let dense_raster = PoissonEncoder::new(0.8, 5).encode(&stimulus, STEPS);
    let ttfs_raster = TtfsEncoder::new().encode(&stimulus, STEPS);
    let dense = net.spiking().run_traced(&dense_raster).1;
    let boundary_sizes: Vec<usize> = (0..dense.boundary_count())
        .map(|b| dense.boundary(b).neurons())
        .collect();
    let corpus = [
        ("dense_rate", dense),
        ("ttfs", net.spiking().run_traced(&ttfs_raster).1),
        ("silent", SpikeTrace::silent(&boundary_sizes, STEPS)),
    ];

    let mut group = c.benchmark_group("barometer");
    group.sample_size(10);
    for (workload, trace) in &corpus {
        let profile = trace.to_profile(&[16, 32, 64, 128]);
        group.bench_function(format!("stationary_{workload}").as_str(), |b| {
            b.iter(|| black_box(Simulator::new(black_box(&mapping)).run(black_box(&profile))))
        });
        for engine in [ReplayEngine::Reference, ReplayEngine::Plan] {
            group.bench_function(format!("{}_{workload}", engine.name()).as_str(), |b| {
                b.iter(|| {
                    black_box(
                        EventSimulator::with_engine(black_box(&mapping), engine)
                            .run(black_box(trace)),
                    )
                })
            });
        }
    }
    group.finish();
}

/// The full workloads-API sweep: 8 stimuli encoded, traced and replayed
/// in one batched rayon-parallel call (accuracy + energy per inference).
fn bench_trace_energy_sweep(c: &mut Criterion) {
    let net = mnist_mlp_net();
    let mapping = Mapper::new(ResparcConfig::resparc_64().with_timesteps(STEPS as u32))
        .map_network(&net)
        .unwrap();
    let samples: Vec<(Vec<f32>, usize)> = (0..8)
        .map(|s| {
            let x: Vec<f32> = (0..784).map(|i| ((s * 7 + i) % 13) as f32 / 13.0).collect();
            (x, s % 10)
        })
        .collect();
    let cfg = SweepConfig::rate(STEPS, 0.4, 11);
    let mut group = c.benchmark_group("energy_sweep");
    group.sample_size(10);
    group.bench_function("mnist_mlp_8x20", |b| {
        b.iter(|| {
            black_box(trace_energy_sweep(
                black_box(&net),
                black_box(&mapping),
                black_box(&samples),
                &cfg,
            ))
        })
    });
    group.finish();
}

/// The encoding comparison sweep: the same 4 labelled stimuli encoded,
/// traced and replayed under rate, TTFS and burst coding — one id per
/// scheme, so the per-code event-replay cost (TTFS traces are far
/// sparser than rate traces) is tracked individually.
fn bench_encoding_sweep(c: &mut Criterion) {
    let net = mnist_mlp_net();
    let mapping = Mapper::new(ResparcConfig::resparc_64().with_timesteps(STEPS as u32))
        .map_network(&net)
        .unwrap();
    let samples: Vec<(Vec<f32>, usize)> = (0..4)
        .map(|s| {
            let x: Vec<f32> = (0..784).map(|i| ((s * 7 + i) % 13) as f32 / 13.0).collect();
            (x, s % 10)
        })
        .collect();
    let cfg = SweepConfig::rate(STEPS, 0.4, 11);
    let mut group = c.benchmark_group("encoding_sweep");
    group.sample_size(10);
    for encoding in [
        Encoding::Rate,
        Encoding::Ttfs,
        Encoding::Burst {
            max_burst: 5,
            gap: 2,
        },
    ] {
        group.bench_function(format!("{}_4x{STEPS}", encoding.label()).as_str(), |b| {
            b.iter(|| {
                black_box(trace_energy_sweep(
                    black_box(&net),
                    black_box(&mapping),
                    black_box(&samples),
                    &cfg.with_encoding(encoding),
                ))
            })
        });
    }
    group.finish();
}

/// Multi-tenant replay: three small MLP tenants' traces through one
/// shared pool (`shared_replay`, one all-1-weight
/// `SharedEventSimulator::run_weighted`) vs the
/// same three traces replayed one-by-one on dedicated mappings
/// (`serial_replay`). The pair feeds the machine-independent
/// `shared_replay=serial_replay` ratio gate in CI: shared replay does
/// strictly more bookkeeping per call (per-tenant splits, contention
/// interleave), so its cost must stay a bounded multiple of the serial
/// walk whatever the runner hardware.
fn bench_multi_tenant(c: &mut Criterion) {
    let nets: Vec<Network> = (0..3)
        .map(|s| Network::random(Topology::mlp(144, &[96, 10]), 70 + s, 1.0))
        .collect();
    let stimulus: Vec<f32> = (0..144).map(|i| (i % 9) as f32 / 9.0).collect();
    let traces: Vec<SpikeTrace> = nets
        .iter()
        .map(|net| {
            let mut enc = PoissonEncoder::new(0.5, 7);
            let raster = enc.encode(&stimulus, STEPS);
            net.spiking().run_traced(&raster).1
        })
        .collect();

    let cfg = ResparcConfig::resparc_64().with_timesteps(STEPS as u32);
    let mut pool = FabricPool::new(cfg.clone());
    let ids: Vec<TenantId> = nets
        .iter()
        .enumerate()
        .map(|(i, net)| pool.admit(net, &format!("t{i}")).expect("fits"))
        .collect();
    let pairs: Vec<(TenantId, &SpikeTrace)> = ids.iter().copied().zip(traces.iter()).collect();
    let mappings: Vec<Mapping> = nets
        .iter()
        .map(|net| Mapper::new(cfg.clone()).map_network(net).expect("valid"))
        .collect();

    let mut group = c.benchmark_group("multi_tenant");
    group.sample_size(10);
    group.bench_function("shared_replay", |b| {
        b.iter(|| {
            black_box(
                SharedEventSimulator::new(black_box(&pool))
                    .run_weighted(black_box(&pairs), &[1, 1, 1]),
            )
        })
    });
    // The weighted-QoS path: same pool and traces, 3:2:1 arbitration.
    // Gated against shared_replay as a ratio in CI — the per-tenant
    // stall/latency bookkeeping must stay a bounded multiple of the
    // fair replay whatever the runner hardware.
    group.bench_function("weighted_replay", |b| {
        b.iter(|| {
            black_box(
                SharedEventSimulator::new(black_box(&pool))
                    .run_weighted(black_box(&pairs), &[3, 2, 1]),
            )
        })
    });
    group.bench_function("serial_replay", |b| {
        b.iter(|| {
            for (mapping, trace) in mappings.iter().zip(&traces) {
                black_box(EventSimulator::new(black_box(mapping)).run(black_box(trace)));
            }
        })
    });
    // Scheduler-driven churn: the same three tenants submitted to a
    // FabricScheduler and drained over two service rounds each —
    // admission (placement translation), weighted replay, and
    // departure-driven eviction per round. The base scheduler is built
    // once (probes mapped at submit); each iteration clones it so the
    // measured loop is the churn machinery, not the mapper.
    let mut base = FabricScheduler::new(FabricPool::new(cfg.clone()));
    for (i, net) in nets.iter().enumerate() {
        base.submit(net, &format!("t{i}"), 2, (i + 1) as u32)
            .expect("maps");
    }
    group.bench_function("churn_replay", |b| {
        b.iter(|| {
            let mut sched = base.clone();
            while !sched.is_idle() {
                let residents = sched.begin_round();
                let round_pairs: Vec<(TenantId, &SpikeTrace)> = residents
                    .iter()
                    .map(|st| (st.tenant, &traces[st.request.index() as usize]))
                    .collect();
                let weights: Vec<u32> = residents.iter().map(|st| st.weight).collect();
                black_box(
                    SharedEventSimulator::new(sched.pool()).run_weighted(&round_pairs, &weights),
                );
                sched.end_round();
            }
            black_box(sched.completed().len())
        })
    });
    group.finish();
}

/// One whole `serving_sweep` per iteration: mapping the classes (their
/// weight-magnitude pass is cached on the networks after the first
/// iteration), tracing every (class, sample) pair some arrival presents,
/// and the event-clock loop (admission, backfill, one replay per (class,
/// sample), the per-round interleave, gated idle billing).
/// `poisson_light` is three 1-NC classes under a steady trace; CI gates
/// it as a ratio against `multi_tenant/churn_replay`, so the whole sweep
/// — trace capture included, not only the loop's bookkeeping — stays a
/// bounded multiple of the scheduling core. `bursty_heavy` is the mixed
/// 2/1/4-NC workload under a 6-deep burst trace with the adaptive
/// controller and preemption enabled: 18 arrivals serve up to 54
/// tenant-rounds from 8 distinct replays (premium arrivals serve two
/// rounds and never present the third sample). CI gates it as a ratio
/// against `multi_tenant/shared_replay` (one three-tenant replay), so
/// replaying every tenant-round again instead of reusing the (class,
/// sample) replays trips the gate.
fn bench_serving(c: &mut Criterion) {
    let pool_cfg = ResparcConfig::resparc_64();
    let sweep = SweepConfig::rate(STEPS, 0.7, 7);

    let light_nets: Vec<Network> = (0..3)
        .map(|s| Network::random(Topology::mlp(144, &[96, 10]), 70 + s, 1.0))
        .collect();
    let light_classes = vec![
        ServiceClass::new("a", 2, 50_000.0).with_weight(4),
        ServiceClass::new("b", 2, 100_000.0).with_weight(2),
        ServiceClass::new("c", 2, 200_000.0),
    ];
    let light_spec = ServingSpec::new(9, 3_000.0, ArrivalProcess::Poisson, 7);

    let heavy_nets = vec![
        Network::random(Topology::mlp(144, &[576, 576, 10]), 90, 1.0),
        Network::random(Topology::mlp(144, &[96, 10]), 91, 1.0),
        Network::random(Topology::mlp(144, &[576, 576, 576, 10]), 92, 1.0),
    ];
    let heavy_classes = vec![
        ServiceClass::new("premium", 2, 35_000.0).with_weight(4),
        ServiceClass::new("standard", 3, 250_000.0).with_weight(2),
        ServiceClass::new("bulk", 4, 1_000_000.0),
    ];
    let heavy_spec = ServingSpec::new(18, 3_000.0, ArrivalProcess::Bursty { burst: 6 }, 7)
        .with_qos(QosPolicy::Adaptive { max_weight: 64 })
        .with_preemption(8.0);

    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    group.bench_function("poisson_light", |b| {
        b.iter(|| {
            black_box(serving_sweep(
                black_box(&light_nets),
                &light_classes,
                &light_spec,
                &sweep,
                &pool_cfg,
                PackingPolicy::FirstFit,
            ))
        })
    });
    group.bench_function("bursty_heavy", |b| {
        b.iter(|| {
            black_box(serving_sweep(
                black_box(&heavy_nets),
                &heavy_classes,
                &heavy_spec,
                &sweep,
                &pool_cfg,
                PackingPolicy::BestFit,
            ))
        })
    });
    group.finish();
}

/// Fault-injected replay: `clean_plan` replays the trace captured from
/// kernels passed through an *empty* [`FaultPlan`] — by the bit-identity
/// contract that trace equals the plain one, so CI gates
/// `fault_replay/clean_plan = event_replay/event_mnist_mlp_20steps`
/// at a tight (<5%) ratio threshold: the fault path must cost nothing
/// when no fault is configured. `stuck_at_2pct` replays the trace from a
/// 2% stuck-at plan — damaged weights change spike traffic, so this id
/// tracks the faulted replay's cost without a tight gate.
fn bench_fault_replay(c: &mut Criterion) {
    use std::sync::Arc;

    let net = mnist_mlp_net();
    let mut enc = PoissonEncoder::new(0.4, 5);
    let raster = enc.encode(&mnist_stimulus(), STEPS);
    let mapping = Mapper::new(ResparcConfig::resparc_64().with_timesteps(STEPS as u32))
        .map_network(&net)
        .unwrap();
    let clean = Arc::new(net.compiled().with_faults(&FaultPlan::none()));
    let (_, clean_trace) = SnnRunner::from_compiled(clean).run_traced(&raster);
    let damaged = Arc::new(net.compiled().with_faults(&FaultPlan::stuck_at(13, 0.02)));
    let (_, damaged_trace) = SnnRunner::from_compiled(damaged).run_traced(&raster);

    let mut group = c.benchmark_group("fault_replay");
    group.sample_size(10);
    group.bench_function("clean_plan", |b| {
        b.iter(|| black_box(EventSimulator::new(black_box(&mapping)).run(black_box(&clean_trace))))
    });
    group.bench_function("stuck_at_2pct", |b| {
        b.iter(|| {
            black_box(EventSimulator::new(black_box(&mapping)).run(black_box(&damaged_trace)))
        })
    });
    group.finish();
}

criterion_group! {
    name = trace_energy;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_capture_trace, bench_event_replay, bench_barometer, bench_trace_energy_sweep, bench_encoding_sweep, bench_multi_tenant, bench_serving, bench_fault_replay
}
criterion_main!(trace_energy);
