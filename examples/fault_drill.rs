//! Fault injection and self-healing walkthrough: silicon damage on the
//! compiled kernels, NeuroCell failures mid-replay, and the scheduler's
//! evict-requeue-readmit recovery loop.
//!
//! Part 1 applies seeded [`FaultPlan`]s — stuck-at cells, conductance
//! drift — to a network's compiled kernels as a pure transform and shows
//! what each plan does to the spike traffic (the empty plan is
//! bit-identical to the fault-free path, asserted here). Part 2 drives a
//! `FabricScheduler` round by round while a NeuroCell dies under a
//! resident tenant: the victim is evicted, re-queued at the head and
//! re-admitted on surviving cells, and the pool's health map shows the
//! dead cell routed around. `fault_recovery_drill` then runs the same
//! shape of scenario end to end and prices the recovery.
//!
//! Run with: `cargo run --release --example fault_drill`

use std::sync::Arc;

use resparc_suite::prelude::*;
use resparc_suite::resparc_workloads::{fault_recovery_drill, ChurnSpec, FaultEvent};

/// One row of the 16-cell pool rendered as a health/occupancy map:
/// `#` occupied, `.` healthy free, `x` failed, `q` quarantined.
fn health_map(pool: &FabricPool) -> String {
    let mut cells: Vec<char> = pool
        .nc_health()
        .iter()
        .map(|h| match h {
            NcHealth::Healthy => '.',
            NcHealth::Quarantined => 'q',
            NcHealth::Failed => 'x',
        })
        .collect();
    for t in pool.tenants() {
        for c in cells.iter_mut().skip(t.first_nc()).take(t.nc_count()) {
            *c = '#';
        }
    }
    cells.into_iter().collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: device faults on the compiled kernels ----------------
    let net = Network::random(Topology::mlp(144, &[96, 10]), 7, 1.0);
    let stimulus: Vec<f32> = (0..144).map(|i| (i % 7) as f32 / 7.0).collect();
    let raster = RegularEncoder::new(0.8).encode(&stimulus, 20);

    assert!(
        net.compiled().with_faults(&FaultPlan::none()) == *net.compiled(),
        "the empty plan must leave the kernels bit-identical"
    );
    println!("device faults on a 144-96-10 MLP (20-step regular-rate stimulus):");
    for (label, plan) in [
        ("clean", FaultPlan::none()),
        ("stuck 5%", FaultPlan::stuck_at(7, 0.05)),
        ("stuck 25%", FaultPlan::stuck_at(7, 0.25)),
        ("drift 30%", FaultPlan::none().with_drift(0.3)),
    ] {
        let kernels = Arc::new(net.compiled().with_faults(&plan));
        let (out, trace) = SnnRunner::from_compiled(kernels).run_traced(&raster);
        println!(
            "  {:<9} -> predicted class {}, {:>5} spikes in the trace",
            label,
            out.predicted,
            trace.total_spikes()
        );
    }

    // --- Part 2: a NeuroCell dies under a scheduled tenant ------------
    let cfg = ResparcConfig::resparc_64();
    println!(
        "\nscheduler recovery on RESPARC-64 ({} NeuroCells); NC 0 fails in round 1:",
        cfg.physical_ncs
    );
    let nets = [
        Network::random(Topology::mlp(144, &[576, 576, 576, 576, 10]), 21, 1.0), // 5 NCs
        Network::random(Topology::mlp(144, &[576, 576, 10]), 22, 1.0),           // 2 NCs
        Network::random(Topology::mlp(144, &[576, 576, 10]), 23, 1.0),           // 2 NCs
    ];
    let traces: Vec<SpikeTrace> = nets
        .iter()
        .map(|net| {
            let raster = RegularEncoder::new(0.8).encode(&stimulus, 15);
            net.spiking().run_traced(&raster).1
        })
        .collect();
    let mut sched = FabricScheduler::new(FabricPool::new(cfg.clone()));
    for (i, net) in nets.iter().enumerate() {
        sched.submit(net, &format!("t{i}"), 3, 1)?;
    }
    while !sched.is_idle() {
        let round = sched.round();
        let mut residents = sched.begin_round();
        if round == 1 {
            let victim = sched.fail_nc(0).expect("NC 0 is occupied in round 1");
            residents.retain(|st| st.request != victim);
            println!(
                "    !! NC 0 failed: request {} evicted, re-queued at the head \
                 (its in-flight round is void)",
                victim.index()
            );
        }
        let pairs: Vec<(TenantId, &SpikeTrace)> = residents
            .iter()
            .map(|st| (st.tenant, &traces[st.request.index() as usize]))
            .collect();
        let report =
            SharedEventSimulator::new(sched.pool()).run_weighted(&pairs, &vec![1; pairs.len()]);
        println!(
            "  round {round}: [{}] {} resident, {} queued, makespan {:.2} us",
            health_map(sched.pool()),
            residents.len(),
            sched.queue_len(),
            report.latency.microseconds(),
        );
        sched.end_round();
    }
    println!("\ncompleted requests (interruptions -> recovery rounds):");
    for r in sched.completed() {
        println!(
            "  t{} {} NCs  served {} round(s), interrupted {}x, {} recovery round(s){}",
            r.request.index(),
            r.ncs,
            r.rounds_served,
            r.interruptions,
            r.recovery_rounds,
            if r.aborted { "  [aborted]" } else { "" },
        );
    }

    // --- Part 3: the end-to-end drill ---------------------------------
    let gen = SyntheticImages::new(DatasetKind::Mnist, 12, 3);
    let samples = gen.labelled_set(4, 700);
    let mut drill_nets: Vec<Network> = (0..4u64)
        .map(|s| Network::random(Topology::mlp(144, &[576, 576, 10]), 50 + s, 1.0))
        .collect();
    drill_nets.push(Network::random(
        Topology::mlp(144, &[576, 576, 576, 576, 10]),
        60,
        1.0,
    ));
    let specs: Vec<ChurnSpec> = (0..drill_nets.len())
        .map(|_| ChurnSpec::new(0, 4))
        .collect();
    let r = fault_recovery_drill(
        &drill_nets,
        &specs,
        &samples,
        &SweepConfig::rate(15, 0.7, 13),
        &cfg,
        PackingPolicy::Defragment,
        &[FaultEvent::new(1, 0), FaultEvent::new(2, 10)],
    )?;
    println!(
        "\nfault_recovery_drill (4x 2-NC + 1x 5-NC, 4 rounds each; NCs 0 and 10 die):\n  \
         {} rounds, {} completed / {} aborted, {} interruption(s), mean recovery \
         {:.1} round(s),\n  {} replay(s) lost, utilization {:.0}% before -> {:.0}% after \
         the first fault,\n  {:.1} nJ/inference over {} credited replays",
        r.rounds,
        r.completed,
        r.aborted,
        r.total_interruptions,
        r.mean_recovery_rounds,
        r.lost_replays,
        100.0 * r.utilization_before,
        100.0 * r.utilization_after,
        r.dynamic_energy.nanojoules() / r.inferences.max(1) as f64,
        r.inferences,
    );
    println!(
        "\nthe fabric self-heals: dead cells are fenced out of the free list, resident\n\
         victims lose only their in-flight round, and the defragmenting admission path\n\
         re-packs the survivors around the damage."
    );
    Ok(())
}
