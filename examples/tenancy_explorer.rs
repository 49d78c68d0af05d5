//! Multi-tenant fabric exploration: several mapped SNNs co-resident on
//! one physical NeuroCell pool, their event traces interleaved per
//! timestep — RESPARC's reconfigurability pitch made measurable.
//!
//! The walk-through admits a mixed set of networks to a `FabricPool`
//! (watching the NC free-list fill until admission is rejected with a
//! typed error), replays one round of traces through the
//! `SharedEventSimulator`, and then runs the serial-vs-co-resident
//! comparison `multi_tenant_sweep` builds on top: identical spike
//! traces, identical per-event charges, but the powered pool's leakage
//! amortized over one overlapped makespan instead of a sum of dedicated
//! runs.
//!
//! Run with: `cargo run --release --example tenancy_explorer`

use resparc_suite::prelude::*;
use resparc_suite::resparc_workloads::multi_tenant_sweep;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ResparcConfig::resparc_64();
    println!(
        "FabricPool over RESPARC-64: {} physical NeuroCells\n",
        cfg.physical_ncs
    );

    // --- Admission: a mixed set of tenants until the pool is full -----
    let mut pool = FabricPool::new(cfg.clone());
    let tenants: Vec<(&str, Topology)> = vec![
        ("mnist-mlp-small", Topology::mlp(144, &[96, 10])),
        ("svhn-mlp-slice", Topology::mlp(256, &[128, 10])),
        ("keyword-spotter", Topology::mlp(64, &[48, 12])),
        ("mnist-mlp-paper", Topology::mlp(784, &[800, 800, 10])),
        ("anomaly-head", Topology::mlp(96, &[64, 2])),
        ("mnist-mlp-paper-2", Topology::mlp(784, &[800, 800, 10])),
    ];
    for (name, topology) in &tenants {
        match pool.admit_topology(topology, name) {
            Ok(id) => {
                let t = pool.tenant(id).expect("just admitted");
                println!(
                    "  admitted {name:<18} -> NCs {:>2}..{:<2} ({} mPEs, {} MCAs)   free: {}/{}",
                    t.first_nc(),
                    t.end_nc(),
                    t.mapping.placement.mpes_used,
                    t.mapping.placement.mcas_used,
                    pool.free_ncs(),
                    pool.physical_ncs(),
                );
            }
            Err(e) => println!("  rejected {name:<18} -- {e}"),
        }
    }
    println!(
        "\npool utilization: {:.0}% of NCs, largest free run {}\n",
        100.0 * pool.utilization(),
        pool.largest_free_run()
    );

    // --- One shared replay round --------------------------------------
    let steps = 30usize;
    let resident: Vec<_> = pool.tenants().to_vec();
    let nets: Vec<Network> = resident
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let counts: Vec<usize> = t
                .mapping
                .partitions
                .iter()
                .map(|p| p.outputs as usize)
                .collect();
            let inputs = t.mapping.partitions[0].inputs as usize;
            Network::random(Topology::mlp(inputs, &counts), 40 + i as u64, 1.0)
        })
        .collect();
    let traces: Vec<SpikeTrace> = nets
        .iter()
        .map(|net| {
            let stimulus: Vec<f32> = (0..net.input_count())
                .map(|i| (i % 7) as f32 / 7.0)
                .collect();
            let raster = RegularEncoder::new(0.8).encode(&stimulus, steps);
            net.spiking().run_traced(&raster).1
        })
        .collect();
    let pairs: Vec<(TenantId, &SpikeTrace)> =
        resident.iter().map(|t| t.id).zip(traces.iter()).collect();
    let shared = SharedEventSimulator::new(&pool).run_weighted(&pairs, &vec![1; pairs.len()]);
    println!(
        "shared replay: {} tenants x {} steps  ->  {:.2} us makespan, bus busy {:.1}% of cycles",
        shared.tenants.len(),
        shared.steps,
        shared.latency.microseconds(),
        100.0 * shared.bus_occupancy(),
    );
    for t in &shared.tenants {
        println!(
            "  {:<18} dynamic {:>9.2} nJ  + leakage share {:>8.2} nJ  ({} active steps)",
            t.name,
            t.energy.total().nanojoules(),
            t.leakage_share.nanojoules(),
            t.active_steps,
        );
    }

    // --- Weighted bus QoS: same replay, tenant 0 gets a 6x bus weight.
    let mut weights = vec![1u32; pairs.len()];
    weights[0] = 6;
    let weighted = SharedEventSimulator::new(&pool).run_weighted(&pairs, &weights);
    assert_eq!(
        weighted.latency, shared.latency,
        "the bus is work-conserving"
    );
    println!(
        "\nweighted bus QoS (tenant0 at weight 6, makespan unchanged at {:.2} us):",
        weighted.latency.microseconds()
    );
    for (fair, qos) in shared.tenants.iter().zip(&weighted.tenants) {
        println!(
            "  {:<18} weight {} -> bus stall {:>5} cycles (fair: {:>5}), perceived latency \
             {:.2} us (fair: {:.2})",
            qos.name,
            qos.weight,
            qos.bus_stall_cycles,
            fair.bus_stall_cycles,
            qos.latency.microseconds(),
            fair.latency.microseconds(),
        );
    }

    // --- Defragmenting admission: evict to fragment, admit through it.
    // The three 1-NC tenants at NCs 0..3 and the one at NC 9 leave, so
    // the two big residents pin a 3-NC hole and a 1-NC hole apart.
    let mut frag = pool.clone().with_policy(PackingPolicy::Defragment);
    let leavers: Vec<TenantId> = [0usize, 1, 2, 4]
        .iter()
        .map(|&i| frag.tenants()[i].id)
        .collect();
    for id in leavers {
        frag.evict(id);
    }
    println!(
        "\nafter four departures: {} NCs free but largest contiguous run is {}",
        frag.free_ncs(),
        frag.largest_free_run()
    );
    let wide = Topology::mlp(144, &[576, 576, 576, 10]); // 4 NCs
    match frag
        .clone()
        .with_policy(PackingPolicy::FirstFit)
        .admit_topology(&wide, "wide")
    {
        Err(e) => println!("  first-fit rejects the 4-NC tenant -- {e}"),
        Ok(_) => println!("  first-fit unexpectedly admitted"),
    }
    let residents = frag.tenants().len();
    match frag.admit_topology(&wide, "wide") {
        Ok(id) => {
            let t = frag.tenant(id).expect("admitted");
            println!(
                "  defragmenting pool compacts the {} big resident(s) and admits it at NCs \
                 {}..{}",
                residents,
                t.first_nc(),
                t.end_nc()
            );
        }
        Err(e) => println!("  defragmentation could not help -- {e}"),
    }

    // --- Serial vs co-resident, end to end ----------------------------
    let gen = SyntheticImages::new(DatasetKind::Mnist, 12, 3);
    let samples = gen.labelled_set(4, 700);
    let sweep_nets: Vec<Network> = (0..3)
        .map(|s| Network::random(Topology::mlp(144, &[96, 10]), 50 + s, 1.0))
        .collect();
    let report = multi_tenant_sweep(&sweep_nets, &samples, &SweepConfig::rate(25, 0.7, 13), &cfg)?;
    println!(
        "\nserial vs co-resident ({} tenants x {} rounds, {:.0}% NC utilization):",
        report.tenants,
        report.rounds,
        100.0 * report.pool_utilization
    );
    println!(
        "  {:<14} {:>12} {:>14} {:>14} {:>12}",
        "discipline", "wall-clock", "pool energy", "E/inference", "EDP (nJ.us)"
    );
    for (name, m) in [("serial", &report.serial), ("co-resident", &report.shared)] {
        println!(
            "  {:<14} {:>9.2} us {:>11.2} nJ {:>11.2} nJ {:>12.4}",
            name,
            m.latency.microseconds(),
            m.pool_energy.nanojoules(),
            m.energy_per_inference().nanojoules(),
            m.energy_delay_product() * 1e-6,
        );
    }
    println!(
        "\nco-residency amortizes the powered pool's idle-NC leakage: {:.2}x lower energy per \
         inference,\n{:.2}x lower batch EDP, at {:.1}% shared-bus occupancy — same spikes, same \
         per-event charges.",
        report.energy_per_inference_gain(),
        report.edp_gain(),
        100.0 * report.mean_bus_occupancy
    );
    Ok(())
}
