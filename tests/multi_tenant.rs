//! Multi-tenant fabric: single-tenant regression proof, co-residency
//! economics, and the early-exit runner's truncated-trace contract.
//!
//! The acceptance bar for the fabric refactor is that sharing must be
//! free when unused: a [`FabricPool`] hosting exactly one tenant replays
//! a trace through the *same* code path as the dedicated-fabric
//! [`EventSimulator`] and must reproduce its report bit-for-bit — same
//! ledger, same cycles, same latency. Only with two or more tenants may
//! the reports diverge (bus contention, shared leakage amortization).

use resparc_suite::prelude::*;
use resparc_suite::resparc_core::fabric::pool_leakage_power;
use resparc_suite::resparc_workloads::multi_tenant_sweep;

/// Rate-coded trace on the paper's MNIST MLP — the same workload the
/// existing `trace_event.rs` agreement tests replay.
fn mnist_mlp_trace(steps: usize) -> (Network, SpikeTrace) {
    let bench = resparc_suite::resparc_workloads::mnist_mlp();
    let net = Network::random(bench.topology.clone(), 3, 1.0);
    let gen = SyntheticImages::new(DatasetKind::Mnist, 28, 7);
    let img = gen.sample(3, 1);
    let mut enc = PoissonEncoder::new(0.6, 11);
    let raster = enc.encode(&img, steps);
    let (_, trace) = net.spiking().run_traced(&raster);
    (net, trace)
}

#[test]
fn one_tenant_pool_reproduces_dedicated_event_simulator_bit_identically() {
    let steps = 40;
    let (net, trace) = mnist_mlp_trace(steps);
    let cfg = ResparcConfig::resparc_64().with_timesteps(steps as u32);

    let dedicated = Mapper::new(cfg.clone()).map_network(&net).unwrap();
    let single = EventSimulator::new(&dedicated).run(&trace);

    let mut pool = FabricPool::new(cfg);
    let id = pool.admit(&net, "mnist-mlp").unwrap();
    let shared = SharedEventSimulator::new(&pool).run_weighted(&[(id, &trace)], &[1]);

    // Bit-identical, not approximately equal: same ledger (every
    // category), same cycle count, same latency, same per-layer tallies.
    assert_eq!(shared.energy, single.energy);
    for cat in Category::ALL {
        assert_eq!(shared.energy.get(cat), single.energy.get(cat), "{cat}");
    }
    assert_eq!(shared.total_cycles, single.total_cycles);
    assert_eq!(shared.latency, single.latency);
    assert_eq!(shared.steps, single.steps);
    assert_eq!(shared.active_steps, single.active_steps);
    assert_eq!(shared.throughput, single.throughput);
    assert_eq!(shared.tenants.len(), 1);
    assert_eq!(shared.tenants[0].layers, single.layers);
    assert_eq!(shared.tenants[0].active_steps, single.active_steps);
}

#[test]
fn tenant_placement_origin_does_not_change_its_energy() {
    // Admit a filler tenant first so the second tenant lands at a
    // non-zero NC origin; its dynamic energy must match a dedicated
    // origin-0 replay exactly (all charge arithmetic is span-width
    // based, never absolute-coordinate based).
    let cfg = ResparcConfig::resparc_64();
    let filler = Network::random(Topology::mlp(96, &[64, 10]), 1, 1.0);
    let net = Network::random(Topology::mlp(144, &[96, 10]), 2, 1.0);
    let stimulus: Vec<f32> = (0..144).map(|i| (i % 5) as f32 / 4.0).collect();
    let raster = RegularEncoder::new(1.0).encode(&stimulus, 16);
    let (_, trace) = net.spiking().run_traced(&raster);

    let mut pool = FabricPool::new(cfg.clone());
    pool.admit(&filler, "filler").unwrap();
    let id = pool.admit(&net, "shifted").unwrap();
    let tenant = pool.tenant(id).unwrap();
    assert!(tenant.first_nc() > 0, "second tenant must be NC-shifted");

    let dedicated = Mapper::new(cfg).map_network(&net).unwrap();
    let single = EventSimulator::new(&dedicated).run(&trace);
    let shared = SharedEventSimulator::new(&pool).run_weighted(&[(id, &trace)], &[1]);
    for cat in Category::ALL {
        if matches!(cat, Category::LogicLeakage | Category::MemoryLeakage) {
            continue; // leakage domain differs with a co-resident filler
        }
        assert_eq!(
            shared.tenants[0].energy.get(cat),
            single.energy.get(cat),
            "{cat}"
        );
    }
    assert_eq!(shared.tenants[0].layers, single.layers);
}

#[test]
fn co_residency_beats_serial_execution_on_pool_energy_and_edp() {
    // The acceptance-criterion comparison, end to end through the
    // workloads API: N networks, identical traces, serial-on-the-pool vs
    // co-resident.
    let nets: Vec<Network> = (0..4)
        .map(|s| Network::random(Topology::mlp(144, &[96, 10]), 30 + s, 1.0))
        .collect();
    let gen = SyntheticImages::new(DatasetKind::Mnist, 12, 3);
    let samples = gen.labelled_set(3, 500);
    let cfg = SweepConfig::rate(25, 0.7, 13);
    let pool_cfg = ResparcConfig::resparc_64();
    let report = multi_tenant_sweep(&nets, &samples, &cfg, &pool_cfg).unwrap();

    assert!(report.shared.latency < report.serial.latency);
    assert!(report.energy_per_inference_gain() > 1.0);
    assert!(report.edp_gain() > 1.0);
    // The win comes from leakage amortization, not from charging fewer
    // events: dynamic energy is identical.
    let rel =
        report.serial.dynamic_energy.picojoules() / report.shared.dynamic_energy.picojoules() - 1.0;
    assert!(rel.abs() < 1e-9, "dynamic energies diverged by {rel}");
    // Both disciplines bill the full powered pool over their wall-clock.
    let pool_leak = pool_leakage_power(&pool_cfg);
    let expect_serial = report.serial.dynamic_energy + pool_leak * report.serial.latency;
    assert!(
        (report.serial.pool_energy.picojoules() / expect_serial.picojoules() - 1.0).abs() < 1e-9
    );
}

#[test]
fn weighted_qos_with_one_tenant_or_equal_weights_matches_pr4_replay_bit_identically() {
    // The acceptance criterion for the QoS refactor: weighted
    // arbitration must be free when unused. One tenant at any weight
    // reproduces the dedicated-fabric EventSimulator (the PR-4
    // contract), and equal weights of any magnitude reproduce the fair
    // all-1 arbitration — full-report equality, stall/latency fields
    // included.
    let steps = 30;
    let (net, trace) = mnist_mlp_trace(steps);
    let cfg = ResparcConfig::resparc_64().with_timesteps(steps as u32);

    let dedicated = Mapper::new(cfg.clone()).map_network(&net).unwrap();
    let single = EventSimulator::new(&dedicated).run(&trace);

    let mut pool = FabricPool::new(cfg.clone());
    let id = pool.admit(&net, "mnist-mlp").unwrap();
    let sim = SharedEventSimulator::new(&pool);
    let weighted = sim.run_weighted(&[(id, &trace)], &[7]);
    assert_eq!(weighted.energy, single.energy);
    assert_eq!(weighted.total_cycles, single.total_cycles);
    assert_eq!(weighted.latency, single.latency);
    assert_eq!(weighted.tenants[0].layers, single.layers);
    assert_eq!(weighted.tenants[0].bus_stall_cycles, 0);
    assert_eq!(weighted.tenants[0].latency, single.latency);
    assert_eq!(weighted, sim.run_weighted(&[(id, &trace)], &[1]));

    // Two co-resident tenants, equal weights at different magnitudes.
    let other = Network::random(Topology::mlp(144, &[96, 10]), 9, 1.0);
    let stimulus: Vec<f32> = (0..144).map(|i| (i % 5) as f32 / 4.0).collect();
    let raster = RegularEncoder::new(1.0).encode(&stimulus, 16);
    let (_, other_trace) = other.spiking().run_traced(&raster);
    let mut duo = FabricPool::new(ResparcConfig::resparc_64());
    let a = duo.admit(&net, "a").unwrap();
    let b = duo.admit(&other, "b").unwrap();
    let duo_sim = SharedEventSimulator::new(&duo);
    let pairs = [(a, &trace), (b, &other_trace)];
    let fair = duo_sim.run_weighted(&pairs, &[1, 1]);
    assert_eq!(duo_sim.run_weighted(&pairs, &[4, 4]), fair);
    assert_eq!(duo_sim.run_weighted(&pairs, &[3, 3]), fair);
}

#[test]
fn defragmenting_admission_succeeds_where_first_fit_exhausts() {
    // The acceptance criterion for the packing refactor, end to end
    // through the public API: a fragmented pool with enough total — but
    // not contiguous — capacity rejects under first-fit and admits
    // under `PackingPolicy::Defragment`, and the compacted tenants
    // replay bit-identically to their pre-compaction placements.
    let two_nc = Topology::mlp(144, &[576, 576, 10]);
    let wide = Topology::mlp(144, &[576, 576, 576, 10]);
    let fragment = |pool: &mut FabricPool| {
        let ids: Vec<TenantId> = (0..8)
            .map(|i| pool.admit_topology(&two_nc, &format!("t{i}")).unwrap())
            .collect();
        for id in ids.iter().step_by(2) {
            pool.evict(*id);
        }
    };

    let mut first_fit = FabricPool::new(ResparcConfig::resparc_64());
    fragment(&mut first_fit);
    let err = first_fit.admit_topology(&wide, "wide").unwrap_err();
    match err {
        AdmitError::CapacityExhausted {
            needed_ncs,
            free_ncs,
            largest_free_run,
        } => {
            assert!(free_ncs >= needed_ncs, "total capacity suffices");
            assert!(largest_free_run < needed_ncs, "but no contiguous run does");
        }
        other => panic!("expected CapacityExhausted, got {other}"),
    }

    let mut pool =
        FabricPool::new(ResparcConfig::resparc_64()).with_policy(PackingPolicy::Defragment);
    fragment(&mut pool);
    // Replay one survivor before compaction...
    let survivor = pool.tenants()[0].id;
    let survivor_net = Network::random(two_nc.clone(), 5, 1.0);
    // (the pool mapped a bare topology; rebuild the matching trace shape)
    let stimulus: Vec<f32> = (0..144).map(|i| (i % 5) as f32 / 4.0).collect();
    let raster = RegularEncoder::new(0.9).encode(&stimulus, 10);
    let (_, trace) = survivor_net.spiking().run_traced(&raster);
    let before = SharedEventSimulator::new(&pool).run_weighted(&[(survivor, &trace)], &[1]);

    let id = pool
        .admit_topology(&wide, "wide")
        .expect("defrag makes room");
    let wide_tenant = pool.tenant(id).unwrap();
    assert_eq!(wide_tenant.nc_count(), 4);
    assert_eq!(pool.free_ncs(), 4);

    // ...and after: admission via compaction moved the survivor to a
    // new origin, but dynamic charges, tallies and cycles are
    // untouched (leakage now includes the new resident, so compare the
    // per-tenant dynamic slice).
    let after = SharedEventSimulator::new(&pool).run_weighted(&[(survivor, &trace)], &[1]);
    assert_eq!(after.tenants[0].energy, before.tenants[0].energy);
    assert_eq!(after.tenants[0].layers, before.tenants[0].layers);
    assert_eq!(after.total_cycles, before.total_cycles);
    assert_eq!(
        after.tenants[0].tenant_cycles,
        before.tenants[0].tenant_cycles
    );
}

#[test]
fn optimized_placement_and_defragmentation_replay_bit_identically() {
    // The acceptance criterion for the optimizing placer: *where* a
    // tenant lands — greedy first-fit, the exact search's class
    // diversion, or a post-defragment translation — must be invisible
    // to replay. Same network, same trace, byte-identical ledgers.
    //
    // Shape: four 64-class cells + two 32-class cells. P and R are
    // 2-NC tenants only the 64 class can host; Q is flexible (1 NC at
    // 64, 2 NCs at 32). Greedy parks Q on a 64 cell and strands R;
    // the optimizer diverts Q to the 32 pair and admits all three.
    let base = ResparcConfig::resparc_64();
    let shape = [64usize, 64, 64, 64, 32, 32];
    let pool = FabricPool::heterogeneous(base, &shape).with_policy(PackingPolicy::Defragment);

    let wide = Topology::mlp(144, &[576, 576, 10]);
    let narrow = Topology::mlp(144, &[576, 10]);
    let nets: Vec<Network> = [(&wide, 41u64), (&narrow, 42), (&wide, 43)]
        .iter()
        .map(|&(t, seed)| Network::random(t.clone(), seed, 1.0))
        .collect();
    let stimulus: Vec<f32> = (0..144).map(|i| (i % 5) as f32 / 4.0).collect();
    let raster = RegularEncoder::new(0.9).encode(&stimulus, 8);
    let traces: Vec<SpikeTrace> = nets
        .iter()
        .map(|net| net.spiking().run_traced(&raster).1)
        .collect();

    let requests: Vec<PlacementRequest> = nets
        .iter()
        .enumerate()
        .map(|(k, net)| PlacementRequest::from_network(&pool, net, &format!("t{k}")).unwrap())
        .collect();
    let greedy = PlacementStrategy::Greedy.place(&pool, &requests);
    let optimized = PlacementStrategy::Optimized.place(&pool, &requests);
    assert_eq!(
        greedy.admitted_count(),
        2,
        "greedy strands the second wide tenant"
    );
    assert_eq!(optimized.admitted_count(), 3, "the search admits all three");

    // P (request 0) landed in both pools, necessarily on the 64 class.
    let p_greedy = greedy.admitted[0].expect("greedy admits P");
    let p_opt = optimized.admitted[0].expect("optimized admits P");
    for (pool, id) in [(&greedy.pool, p_greedy), (&optimized.pool, p_opt)] {
        assert_eq!(pool.tenant(id).unwrap().mapping.config.mca_size, 64);
    }

    // P's replay is placement-strategy-invariant: every non-leakage
    // category and per-layer tally matches across the two layouts
    // (leakage domains differ — the optimized pool hosts one more
    // resident).
    let g_pairs = [
        (p_greedy, &traces[0]),
        (greedy.admitted[1].unwrap(), &traces[1]),
    ];
    let g_report = SharedEventSimulator::new(&greedy.pool).run_weighted(&g_pairs, &[1, 1]);
    let o_pairs = [
        (p_opt, &traces[0]),
        (optimized.admitted[1].unwrap(), &traces[1]),
        (optimized.admitted[2].unwrap(), &traces[2]),
    ];
    let o_report = SharedEventSimulator::new(&optimized.pool).run_weighted(&o_pairs, &[1, 1, 1]);
    for cat in Category::ALL {
        if matches!(cat, Category::LogicLeakage | Category::MemoryLeakage) {
            continue;
        }
        assert_eq!(
            o_report.tenants[0].energy.get(cat),
            g_report.tenants[0].energy.get(cat),
            "{cat}"
        );
    }
    assert_eq!(o_report.tenants[0].layers, g_report.tenants[0].layers);

    // Defragment translation is equally invisible: evict P from the
    // optimized layout (opening a hole before R's run), compact, and
    // the surviving pair's whole SharedReport — compared field-wise
    // *and* as rendered bytes — is unchanged.
    let mut pool = optimized.pool.clone();
    assert!(pool.evict(p_opt).is_some());
    let pairs = [
        (optimized.admitted[1].unwrap(), &traces[1]),
        (optimized.admitted[2].unwrap(), &traces[2]),
    ];
    let before = SharedEventSimulator::new(&pool).run_weighted(&pairs, &[1, 1]);
    assert!(
        pool.defragment() >= 1,
        "the hole P left must be compacted away"
    );
    let after = SharedEventSimulator::new(&pool).run_weighted(&pairs, &[1, 1]);
    assert_eq!(before, after);
    assert_eq!(
        format!("{before:?}"),
        format!("{after:?}"),
        "byte-identical ledgers"
    );
}

#[test]
fn early_exit_trace_prices_exactly_the_truncated_presentation() {
    // The temporal-coding early exit: stop at the first output spike,
    // decode by first spike, and pay the event simulator only for the
    // steps actually run.
    let gen = SyntheticImages::new(DatasetKind::Mnist, 12, 3);
    let train = gen.labelled_set(120, 0);
    let mut tcfg = TrainConfig::quick_test();
    tcfg.epochs = 10;
    let mut net = train_mlp(144, &[24, 10], &train, &tcfg);
    let calib: Vec<Vec<f32>> = train.iter().take(16).map(|(x, _)| x.clone()).collect();
    normalize_for_snn(&mut net, &calib, 0.99);
    rebalance_thresholds_for_ttfs(&mut net, &calib, 0.99, 0.35);

    let mapping = Mapper::new(ResparcConfig::resparc_64())
        .map_network(&net)
        .unwrap();
    let sim = EventSimulator::new(&mapping);
    let steps = 40usize;
    let (x, _) = &train[0];
    let raster = TtfsEncoder::new().encode(x, steps);

    let (full, full_trace) = net.spiking().run_traced(&raster);
    let (early, early_trace) = net.spiking().run_traced_early_exit(&raster);
    assert!(
        (early.steps as usize) < steps,
        "rebalanced TTFS net must fire an output before the window ends"
    );

    // The early-exit trace IS the truncated full trace, so the decoded
    // label and the event-sim energy match it exactly.
    let truncated = full_trace.truncated(early.steps as usize);
    assert_eq!(early_trace, truncated);
    assert_eq!(
        early.decode(Readout::FirstSpike),
        full.decode(Readout::FirstSpike)
    );
    let early_report = sim.run(&early_trace);
    let truncated_report = sim.run(&truncated);
    assert_eq!(early_report, truncated_report);
    // And the truncation is worth paying for: strictly cheaper and
    // faster than replaying the full presentation.
    let full_report = sim.run(&full_trace);
    assert!(early_report.total_energy() < full_report.total_energy());
    assert!(early_report.total_cycles < full_report.total_cycles);
}
