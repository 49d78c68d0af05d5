//! Criterion benches over the hot paths of the reproduction: crossbar
//! analog reads, mapping, both architecture simulators, the functional
//! SNN and the spike-accurate hardware cosim — plus the compiled-kernel
//! vs closure-walk groups (`snn_step`, `forward_batch`, `accuracy_sweep`)
//! that track the batched-inference speedup. See the repository's
//! `BENCHMARKS.md` for how to run them and read the emitted
//! `BENCH_*.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use resparc_suite::prelude::*;
use resparc_suite::resparc_core::map::{partition::partition_layer, place};
use resparc_suite::resparc_neuro::network::reference;

fn bench_crossbar_mvm(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossbar_mvm");
    for size in [32usize, 64, 128] {
        let mut xbar = Crossbar::new(size, MemristorSpec::paper_default(), 16);
        let synapses: Vec<(usize, usize, f64)> = (0..size * size)
            .map(|i| (i / size, i % size, ((i % 13) as f64 / 13.0) - 0.5))
            .collect();
        xbar.program(&synapses).unwrap();
        let spikes: Vec<bool> = (0..size).map(|i| i % 3 == 0).collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| black_box(xbar.read(black_box(&spikes))))
        });
    }
    group.finish();
}

fn bench_mapper(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper");
    group.sample_size(10);
    let mlp = resparc_suite::resparc_workloads::mnist_mlp().topology;
    group.bench_function("mnist_mlp_64", |b| {
        b.iter(|| {
            Mapper::new(ResparcConfig::resparc_64())
                .map(black_box(&mlp))
                .unwrap()
        })
    });
    // The general path (connectivity matrix + column packing, then
    // placement) on the same layers: the ratio gates' denominators for
    // the routes `Mapper::map` takes instead — the dense grid tiler for
    // every MLP layer, the geometry-streamed packer for conv/pool layers.
    let config = ResparcConfig::resparc_64();
    let options = PartitionOptions::new(config.mca_size);
    let general = |topology: &Topology| {
        let partitions: Vec<_> = topology
            .layers()
            .iter()
            .enumerate()
            .map(|(i, spec)| partition_layer(&ConnectivityMatrix::from_layer(spec), i, &options))
            .collect();
        place(&partitions, &config)
    };
    group.bench_function("mnist_mlp_64_general", |b| {
        b.iter(|| general(black_box(&mlp)))
    });
    for (name, cnn) in [
        (
            "mnist_cnn",
            resparc_suite::resparc_workloads::mnist_cnn().topology,
        ),
        (
            "cifar10_cnn",
            resparc_suite::resparc_workloads::cifar10_cnn().topology,
        ),
    ] {
        group.bench_function(format!("{name}_64").as_str(), |b| {
            b.iter(|| {
                Mapper::new(ResparcConfig::resparc_64())
                    .map(black_box(&cnn))
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}_64_general").as_str(), |b| {
            b.iter(|| general(black_box(&cnn)))
        });
    }
    group.finish();
}

fn bench_resparc_sim(c: &mut Criterion) {
    let bench = resparc_suite::resparc_workloads::mnist_mlp();
    let mapping = Mapper::new(ResparcConfig::resparc_64())
        .map(&bench.topology)
        .unwrap();
    let profile = bench.activity_profile(&[16, 32, 64, 128], 7);
    c.bench_function("resparc_sim_mnist_mlp", |b| {
        b.iter(|| Simulator::new(black_box(&mapping)).run(black_box(&profile)))
    });
}

fn bench_cmos_sim(c: &mut Criterion) {
    let bench = resparc_suite::resparc_workloads::mnist_mlp();
    let profile = bench.activity_profile(&[16, 32, 64, 128], 7);
    let sim = CmosSimulator::new(CmosConfig::paper_baseline());
    c.bench_function("cmos_sim_mnist_mlp", |b| {
        b.iter(|| sim.run(black_box(&bench.topology), black_box(&profile)))
    });
}

fn bench_functional_snn(c: &mut Criterion) {
    let net = Network::random(Topology::mlp(256, &[128, 10]), 3, 1.0);
    let enc = RegularEncoder::new(0.5);
    let stimulus: Vec<f32> = (0..256).map(|i| (i % 11) as f32 / 11.0).collect();
    let raster = enc.encode(&stimulus, 20);
    c.bench_function("functional_snn_20steps", |b| {
        b.iter(|| {
            let mut runner = net.spiking();
            black_box(runner.run(black_box(&raster)))
        })
    });
}

fn bench_hw_cosim(c: &mut Criterion) {
    let net = Network::random(Topology::mlp(64, &[32, 8]), 5, 1.0);
    let mut cfg = ResparcConfig::with_mca_size(32);
    cfg.mca_levels = 1 << 12;
    let mapping = Mapper::new(cfg).with_details().map_network(&net).unwrap();
    let mut enc = PoissonEncoder::new(0.3, 1);
    let stimulus: Vec<f32> = (0..64).map(|i| (i % 5) as f32 / 5.0).collect();
    let raster = enc.encode(&stimulus, 10);
    c.bench_function("hw_cosim_10steps", |b| {
        b.iter(|| {
            let mut hw = HwCore::build(&net, &mapping).unwrap();
            for step in raster.iter() {
                black_box(hw.step(step));
            }
        })
    });
}

/// The paper's MNIST MLP (784-800-800-768-10) with random weights: the
/// workload of the compiled-kernel vs closure-walk groups below.
fn mnist_mlp_net() -> Network {
    Network::random(
        resparc_suite::resparc_workloads::mnist_mlp().topology,
        3,
        1.0,
    )
}

/// One spiking timestep on the full MNIST MLP: compiled kernels (dense
/// transposed weight rows) vs the seed's closure-walk CSR with weight-id
/// indirection.
fn bench_snn_step(c: &mut Criterion) {
    let net = mnist_mlp_net();
    let stimulus: Vec<f32> = (0..784).map(|i| (i % 9) as f32 / 9.0).collect();
    let mut enc = PoissonEncoder::new(0.3, 5);
    let raster = enc.encode(&stimulus, 1);
    let step = raster.step(0);

    let mut group = c.benchmark_group("snn_step");
    group.sample_size(10);
    let mut compiled = net.spiking();
    group.bench_function("compiled", |b| {
        b.iter(|| black_box(compiled.step(black_box(step)).count_ones()))
    });
    let mut oracle = reference::RefSnnRunner::new(&net);
    group.bench_function("reference", |b| {
        b.iter(|| black_box(oracle.step(black_box(step)).count_ones()))
    });
    group.finish();
}

/// 64-stimulus analog forward on the MNIST MLP: one batched call on the
/// shared compiled kernels vs looping the closure-walk single-stimulus
/// path.
fn bench_forward_batch(c: &mut Criterion) {
    let net = mnist_mlp_net();
    let stimuli: Vec<Vec<f32>> = (0..64)
        .map(|s| {
            (0..784)
                .map(|i| ((s * 13 + i) % 11) as f32 / 11.0)
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("forward_batch");
    group.sample_size(10);
    group.bench_function("batched_compiled_64", |b| {
        b.iter(|| black_box(net.forward_analog_batch(black_box(&stimuli))))
    });
    group.bench_function("looped_reference_64", |b| {
        b.iter(|| {
            for x in &stimuli {
                black_box(reference::forward_analog(&net, black_box(x)));
            }
        })
    });
    group.finish();
}

/// The acceptance workload: a 64-stimulus MNIST-MLP spiking accuracy
/// sweep. `batched_compiled` runs `Network::spiking_batch` (one synapse
/// enumeration shared by every stimulus); `looped_reference` re-creates
/// the seed's runner — re-enumerating the whole synapse structure — per
/// stimulus, exactly as the pre-compiled-kernel code had to.
fn bench_accuracy_sweep(c: &mut Criterion) {
    let net = mnist_mlp_net();
    let mut enc = PoissonEncoder::new(0.4, 11);
    let rasters: Vec<SpikeRaster> = (0..64)
        .map(|s| {
            let x: Vec<f32> = (0..784).map(|i| ((s * 7 + i) % 13) as f32 / 13.0).collect();
            enc.encode(&x, 20)
        })
        .collect();

    let mut group = c.benchmark_group("accuracy_sweep");
    group.sample_size(10);
    group.bench_function("batched_compiled_64x20", |b| {
        b.iter(|| black_box(net.spiking_batch(black_box(&rasters))))
    });
    group.bench_function("looped_reference_64x20", |b| {
        b.iter(|| {
            for raster in &rasters {
                let mut runner = reference::RefSnnRunner::new(&net);
                black_box(runner.run(black_box(raster)));
            }
        })
    });
    group.finish();
}

/// Batch placement on the fragmented fig_packing shape: greedy (one
/// sequential admit pass) vs the exact search (the greedy incumbent plus
/// two leaves, one per admission order). Probes are pre-mapped — this
/// times placement, not partitioning.
fn bench_packing(c: &mut Criterion) {
    let sized = |layers: usize| {
        let mut hidden = vec![576usize; layers];
        hidden.push(10);
        Topology::mlp(144, &hidden)
    };
    // Residents pin runs so evicting two leaves holes of 4 and 2 NCs.
    let mut pool = FabricPool::new(ResparcConfig::resparc_64());
    let plan = [(2usize, true), (3, false), (4, true), (2, false), (1, true)];
    let mut evictions = Vec::new();
    for (k, &(layers, keep)) in plan.iter().enumerate() {
        let id = pool
            .admit_topology(&sized(layers), &format!("r{k}"))
            .unwrap();
        if !keep {
            evictions.push(id);
        }
    }
    for id in evictions {
        pool.evict(id);
    }
    let requests: Vec<PlacementRequest> = [2usize, 3]
        .iter()
        .enumerate()
        .map(|(k, &layers)| {
            PlacementRequest::from_topology(&pool, &sized(layers), &format!("b{k}")).unwrap()
        })
        .collect();

    let mut group = c.benchmark_group("packing");
    group.sample_size(10);
    group.bench_function("greedy", |b| {
        b.iter(|| {
            black_box(PlacementStrategy::Greedy.place(black_box(&pool), black_box(&requests)))
        })
    });
    group.bench_function("optimized", |b| {
        b.iter(|| {
            black_box(PlacementStrategy::Optimized.place(black_box(&pool), black_box(&requests)))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_crossbar_mvm, bench_mapper, bench_resparc_sim, bench_cmos_sim, bench_functional_snn, bench_hw_cosim, bench_snn_step, bench_forward_batch, bench_accuracy_sweep, bench_packing
}
criterion_main!(benches);
