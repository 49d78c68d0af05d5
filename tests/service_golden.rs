//! Golden digests of churn, fault-drill and serving reports and of the
//! scheduler's request life cycle.
//!
//! Each digest is 64-bit FNV-1a over the bytes of a report's `{:?}`
//! rendering. Debug prints floats shortest-round-trip, so equal bytes mean
//! equal bits. The cases pin the round-clock service loop that
//! `churn_sweep` and `fault_recovery_drill` run on: the `fig_tenancy`
//! churn schedule and the `fig_resilience` drill under every packing
//! policy, idle rounds between arrivals (with a fault striking an idle
//! round), a request aborted because no healthy segment can hold it, and
//! weighted requests whose service outlasts the sample set. A last case
//! drives `FabricScheduler` directly through seeded submit, round,
//! fault, drain, restore and cancel sequences, with and without
//! backfill, so every kind of departure record is pinned.
//!
//! The serving cases pin the event-clock path of the same loop. Their
//! arrival times go through the platform's `ln`/`sin`, so a committed
//! float digest could differ between math libraries: those digests were
//! recorded on glibc and the case runs only there. The churn and drill
//! cases only meet `ln`/`cos` in `Network::random`'s Box–Muller draws,
//! which are rounded to `f32`, so a last-bit difference in the platform's
//! math library almost never reaches them.

use resparc_suite::prelude::*;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(report: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

const POLICIES: [PackingPolicy; 3] = [
    PackingPolicy::FirstFit,
    PackingPolicy::BestFit,
    PackingPolicy::Defragment,
];

/// A random MLP of 1, 2, 4 or 5 NeuroCells on RESPARC-64.
fn sized_net(ncs: usize, seed: u64) -> Network {
    let hiddens: &[usize] = match ncs {
        1 => &[96, 10],
        2 => &[576, 576, 10],
        4 => &[576, 576, 576, 10],
        5 => &[576, 576, 576, 576, 10],
        other => panic!("no sized net for {other} NCs"),
    };
    Network::random(Topology::mlp(144, hiddens), seed, 1.0)
}

fn mnist(samples: usize, seed: u64, offset: u64) -> Vec<(Vec<f32>, usize)> {
    SyntheticImages::new(DatasetKind::Mnist, 12, seed).labelled_set(samples, offset)
}

fn check(case: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{case}: digest {got:#018x}");
}

#[test]
fn fig_tenancy_churn_matches_golden_digests() {
    // The `fig_tenancy` churn schedule: eight 2-NC tenants fill the
    // pool, two depart after one round, a 4-NC request and a late 2-NC
    // arrival are scheduled into the churn.
    const GOLDEN: [u64; 3] = [
        0x2391_3d70_1e18_a289,
        0x76c3_b05e_b616_37b9,
        0x6a46_e395_af81_b0a0,
    ];
    let mut nets: Vec<Network> = (0..8u64).map(|s| sized_net(2, 70 + s)).collect();
    nets.push(sized_net(4, 80));
    nets.push(sized_net(2, 81));
    let mut specs: Vec<ChurnSpec> = (0..8)
        .map(|i| ChurnSpec::new(0, if i == 0 || i == 2 { 1 } else { 5 }))
        .collect();
    specs.push(ChurnSpec::new(0, 3));
    specs.push(ChurnSpec::new(2, 2));
    let samples = mnist(3, 7, 900);
    let cfg = SweepConfig::rate(20, 0.7, 7);
    for (policy, want) in POLICIES.into_iter().zip(GOLDEN) {
        let report = churn_sweep(
            &nets,
            &specs,
            &samples,
            &cfg,
            &ResparcConfig::resparc_64(),
            policy,
        )
        .unwrap();
        check(&format!("fig_tenancy {policy:?}"), digest(&report), want);
    }
}

#[test]
fn fig_resilience_drill_matches_golden_digests() {
    // The `fig_resilience` drill: four 2-NC tenants and one 5-NC tenant;
    // NC 0 dies in round 1 and NC 10 in round 2. The report does not
    // name its policy, and first-fit and best-fit place alike here.
    const GOLDEN: [u64; 3] = [
        0xeebd_d568_c505_a238,
        0xeebd_d568_c505_a238,
        0xe0b8_502a_b736_f319,
    ];
    let mut nets: Vec<Network> = (0..4u64).map(|s| sized_net(2, 50 + s)).collect();
    nets.push(sized_net(5, 60));
    let specs: Vec<ChurnSpec> = (0..nets.len()).map(|_| ChurnSpec::new(0, 4)).collect();
    let faults = [FaultEvent::new(1, 0), FaultEvent::new(2, 10)];
    let samples = mnist(4, 7, 900);
    let cfg = SweepConfig::rate(15, 0.7, 7);
    for (policy, want) in POLICIES.into_iter().zip(GOLDEN) {
        let report = fault_recovery_drill(
            &nets,
            &specs,
            &samples,
            &cfg,
            &ResparcConfig::resparc_64(),
            policy,
            &faults,
        )
        .unwrap();
        check(&format!("fig_resilience {policy:?}"), digest(&report), want);
    }
}

#[test]
fn idle_rounds_and_idle_round_faults_match_golden_digests() {
    // Request 0 departs after round 1; rounds 2-4 are idle until
    // requests 1 and 2 arrive. NC 3 fails in idle round 3 and NC 0 in
    // round 6, under a resident.
    const GOLDEN: [u64; 2] = [0x0e59_53dd_17d2_8f3c, 0x9bc1_87aa_47df_84d1];
    let nets = vec![sized_net(2, 11), sized_net(5, 12), sized_net(1, 13)];
    let specs = vec![
        ChurnSpec::new(0, 2),
        ChurnSpec::new(5, 3),
        ChurnSpec::new(6, 2).with_weight(2),
    ];
    let faults = [FaultEvent::new(3, 3), FaultEvent::new(6, 0)];
    let samples = mnist(3, 5, 40);
    let cfg = SweepConfig::rate(10, 0.7, 5);
    let pool = ResparcConfig::resparc_64();
    let churn = churn_sweep(
        &nets,
        &specs,
        &samples,
        &cfg,
        &pool,
        PackingPolicy::FirstFit,
    )
    .unwrap();
    assert!(
        churn.churned.rounds > churn.churned.busy_rounds,
        "idle rounds"
    );
    check("idle churn", digest(&churn), GOLDEN[0]);
    let drill = fault_recovery_drill(
        &nets,
        &specs,
        &samples,
        &cfg,
        &pool,
        PackingPolicy::FirstFit,
        &faults,
    )
    .unwrap();
    assert_eq!(drill.failed_ncs, 2);
    assert_eq!(
        drill.total_interruptions, 1,
        "only the round-6 fault evicts"
    );
    check("idle drill", digest(&drill), GOLDEN[1]);
}

#[test]
fn aborted_request_matches_golden_digest() {
    // Killing NCs 4, 9 and 14 in round 0 caps healthy segments at 4
    // cells: the 5-NC request is interrupted and then aborted.
    const GOLDEN: u64 = 0x181e_b7b0_c870_ac39;
    let nets = vec![sized_net(5, 1), sized_net(2, 2)];
    let specs = vec![ChurnSpec::new(0, 3), ChurnSpec::new(0, 3)];
    let faults = [
        FaultEvent::new(0, 4),
        FaultEvent::new(0, 9),
        FaultEvent::new(0, 14),
    ];
    let report = fault_recovery_drill(
        &nets,
        &specs,
        &mnist(6, 3, 0),
        &SweepConfig::rate(10, 0.7, 9),
        &ResparcConfig::resparc_64(),
        PackingPolicy::FirstFit,
        &faults,
    )
    .unwrap();
    assert_eq!(report.aborted, 1);
    check("abort drill", digest(&report), GOLDEN);
}

#[test]
fn weighted_wrapping_service_matches_golden_digests() {
    // Weights above 1 and service rounds beyond the two samples, so
    // wrapped rounds replay the same traces.
    const GOLDEN: [u64; 2] = [0xfd32_8650_3982_80c7, 0x37ac_d105_ce6b_7392];
    let nets = vec![sized_net(4, 21), sized_net(2, 22), sized_net(5, 23)];
    let specs = vec![
        ChurnSpec::new(0, 5).with_weight(3),
        ChurnSpec::new(1, 4).with_weight(2),
        ChurnSpec::new(1, 3).with_weight(4),
    ];
    let faults = [FaultEvent::new(2, 7)];
    let samples = mnist(2, 9, 300);
    let cfg = SweepConfig::rate(12, 0.8, 3);
    let pool = ResparcConfig::resparc_64();
    let churn = churn_sweep(
        &nets,
        &specs,
        &samples,
        &cfg,
        &pool,
        PackingPolicy::Defragment,
    )
    .unwrap();
    check("weighted churn", digest(&churn), GOLDEN[0]);
    let drill = fault_recovery_drill(
        &nets,
        &specs,
        &samples,
        &cfg,
        &pool,
        PackingPolicy::BestFit,
        &faults,
    )
    .unwrap();
    check("weighted drill", digest(&drill), GOLDEN[1]);
}

/// Weyl-sequence splitmix64: the step source of the life-cycle cases.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One seeded 40-step scheduler run, appending `{:?}` of every return
/// value, the final occupancy and the completed records to `log`.
fn life_cycle(pool: FabricPool, probes: &[Mapping], seed: u64, log: &mut String) {
    let mut sched = FabricScheduler::new(pool);
    if seed % 2 == 1 {
        sched = sched.with_backfill(2);
    }
    let ncs = sched.pool().physical_ncs() as u64;
    let mut state = seed;
    let mut draw = |n: u64| splitmix64(&mut state) % n;
    let mut submitted: Vec<RequestId> = Vec::new();
    for _ in 0..40 {
        let line = match draw(6) {
            0 | 1 => {
                let probe = probes[draw(probes.len() as u64) as usize].clone();
                let rounds = 1 + draw(4) as usize;
                let weight = 1 + draw(3) as u32;
                let name = format!("r{}", submitted.len());
                let id = sched.submit_mapped(probe, &name, rounds, weight);
                submitted.push(id);
                format!("submit {id:?}")
            }
            2 => {
                let mut line = format!("begin {:?}", sched.begin_round());
                match draw(4) {
                    0 => line += &format!(" fail {:?}", sched.fail_nc(draw(ncs) as usize)),
                    1 if !submitted.is_empty() => {
                        let id = submitted[draw(submitted.len() as u64) as usize];
                        line += &format!(" cancel {:?}", sched.cancel(id));
                    }
                    _ => {}
                }
                sched.end_round();
                line
            }
            3 => format!("drain {:?}", sched.drain_nc(draw(ncs) as usize)),
            4 => {
                let quarantined: Vec<usize> = (0..ncs as usize)
                    .filter(|&nc| sched.pool().nc_health()[nc] == NcHealth::Quarantined)
                    .collect();
                let nc = match quarantined.len() {
                    0 => draw(ncs) as usize,
                    n => quarantined[draw(n as u64) as usize],
                };
                format!("restore {:?}", sched.restore_nc(nc))
            }
            _ if submitted.is_empty() => String::new(),
            _ => {
                let id = submitted[draw(submitted.len() as u64) as usize];
                format!("cancel {:?}", sched.cancel(id))
            }
        };
        log.push_str(&line);
        log.push('\n');
    }
    log.push_str(&format!(
        "occupancy {:?}\ncompleted {:?}\n",
        sched.pool().occupancy(),
        sched.completed()
    ));
}

#[test]
fn scheduler_life_cycle_matches_golden_digests() {
    // Seeded submit / round / drain / restore / cancel sequences, with a
    // fault or a cancel striking some rounds after admission, on a
    // homogeneous 16-NC pool and a mixed 32/64 inventory under every
    // packing policy; odd seeds backfill. The mixed class regions are
    // four and eight cells wide, so the policies choose different runs.
    // Probes are mapped once per size class and queued with
    // `submit_mapped`. Every logged value is an integer or a name, so
    // the digests hold on any machine.
    const GOLDEN: [[u64; 3]; 2] = [
        [
            0xd47e_9624_903d_537b,
            0xd6d3_003a_c094_a283,
            0xb1e3_b225_4bde_4208,
        ],
        [
            0xf5e4_bf64_5211_f690,
            0x0c49_3e7e_6690_a1f8,
            0x4e2f_e490_b7c9_9b47,
        ],
    ];
    let topologies = [
        Topology::mlp(96, &[64, 10]),
        Topology::mlp(144, &[576, 10]),
        Topology::mlp(144, &[576, 576, 10]),
        Topology::mlp(144, &[576, 576, 576, 10]),
        Topology::mlp(144, &[576, 576, 576, 576, 10]),
    ];
    let pools = [
        FabricPool::new(ResparcConfig::resparc_64()),
        FabricPool::heterogeneous(
            ResparcConfig::resparc_64(),
            &[32, 32, 32, 32, 64, 64, 64, 64, 64, 64, 64, 64],
        ),
    ];
    for (pool, want) in pools.iter().zip(GOLDEN) {
        let probes: Vec<Mapping> = pool
            .size_classes()
            .into_iter()
            .flat_map(|class| {
                let mapper = Mapper::new(pool.class_config(class));
                topologies.iter().map(move |t| mapper.map(t).unwrap())
            })
            .collect();
        for (policy, want) in POLICIES.into_iter().zip(want) {
            let mut log = String::new();
            for seed in 0..20 {
                life_cycle(pool.clone().with_policy(policy), &probes, seed, &mut log);
            }
            let case = format!("life cycle {:?} {policy:?}", pool.size_classes());
            check(&case, fnv1a(log.as_bytes()), want);
        }
    }
}

/// The resbench `serving` classes: 2-, 1- and 4-NC MLPs at bus weights
/// 4:2:1 with tight, medium and loose SLOs.
fn serving_mix() -> (Vec<Network>, Vec<ServiceClass>) {
    let nets = vec![sized_net(2, 31), sized_net(1, 32), sized_net(4, 33)];
    let classes = vec![
        ServiceClass::new("premium", 2, 35_000.0).with_weight(4),
        ServiceClass::new("standard", 3, 250_000.0).with_weight(2),
        ServiceClass::new("bulk", 4, 1_000_000.0),
    ];
    (nets, classes)
}

/// The resbench `serving` spec at 24 arrivals: bursts of 6, the
/// adaptive controller and preemption at 8 SLOs.
fn bursty_spec(seed: u64) -> ServingSpec {
    ServingSpec::new(24, 3_000.0, ArrivalProcess::Bursty { burst: 6 }, seed)
        .with_qos(QosPolicy::Adaptive { max_weight: 64 })
        .with_preemption(8.0)
}

#[test]
#[cfg_attr(
    not(all(target_os = "linux", target_env = "gnu")),
    ignore = "arrival times go through the platform's ln/sin; digests recorded on glibc"
)]
fn serving_runs_match_golden_digests() {
    // The event-clock path: the resbench shape under every packing
    // policy, a Poisson run that rejects at a 2-deep strict-FIFO queue
    // and preempts at one SLO, a diurnal run on a pool gated to 5 %,
    // and the bursty run again on the reference replay engine (whose
    // report, by the engines' bit-identity contract, is the plan
    // engine's).
    const GOLDEN: [u64; 6] = [
        0x99cc_bba8_91f8_77b0,
        0x68d3_7dd8_b781_4660,
        0x44eb_e5c2_f654_f766,
        0xb73a_8c92_d9a4_1d67,
        0x3f4c_09a7_3f39_df30,
        0x99cc_bba8_91f8_77b0,
    ];
    let (nets, classes) = serving_mix();
    let cfg = SweepConfig::rate(16, 0.7, 7);
    let pool = ResparcConfig::resparc_64();
    let run = |spec: &ServingSpec, policy| {
        serving_sweep(&nets, &classes, spec, &cfg, &pool, policy).unwrap()
    };
    for (policy, want) in POLICIES.into_iter().zip(GOLDEN) {
        let report = run(&bursty_spec(5), policy);
        assert_eq!(report.completed, 24);
        check(&format!("bursty {policy:?}"), digest(&report), want);
    }
    let poisson = ServingSpec::new(20, 1_000.0, ArrivalProcess::Poisson, 9)
        .with_max_queue(2)
        .with_backfill_window(0)
        .with_preemption(1.0);
    let report = run(&poisson, PackingPolicy::FirstFit);
    assert!(report.rejected > 0 && report.preempted > 0);
    check("poisson", digest(&report), GOLDEN[3]);
    let diurnal = ServingSpec::new(
        18,
        4_000.0,
        ArrivalProcess::Diurnal {
            period_ns: 40_000.0,
            amplitude: 0.9,
        },
        13,
    )
    .with_idle_gating(0.05);
    let report = run(&diurnal, PackingPolicy::BestFit);
    assert!(report.gating_saving() > 0.0);
    check("diurnal", digest(&report), GOLDEN[4]);
    let reference = bursty_spec(5).with_replay_engine(ReplayEngine::Reference);
    let report = run(&reference, PackingPolicy::FirstFit);
    check("bursty reference", digest(&report), GOLDEN[5]);
}
