//! Property-based tests over the core cross-crate invariants.

use proptest::prelude::*;
use resparc_suite::prelude::*;
use std::cmp::Reverse;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The crossbar's analog read equals the dense matrix-vector product
    /// of its programmed (quantized) weights.
    #[test]
    fn crossbar_read_is_inner_product(
        weights in proptest::collection::vec(-1.0f64..1.0, 16),
        spikes in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let mut xbar = Crossbar::new(4, MemristorSpec::paper_default(), 1 << 12);
        let synapses: Vec<(usize, usize, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i / 4, i % 4, w))
            .collect();
        xbar.program(&synapses).unwrap();
        let out = xbar.read(&spikes);
        for c in 0..4 {
            let expected: f64 = (0..4)
                .filter(|&r| spikes[r])
                .map(|r| weights[r * 4 + c])
                .sum();
            prop_assert!((out[c] - expected).abs() < 2e-3, "col {c}: {} vs {expected}", out[c]);
        }
    }

    /// Partitioning covers every synapse exactly once and never overflows
    /// a tile, and both routes the mapper takes — the dense grid tiler and
    /// the conv/pool packer streamed from layer geometry — equal the
    /// general connectivity-matrix path at every MCA size under every
    /// option set. Recording details changes nothing else: details-on
    /// packs a run of identical fields column by column, details-off with
    /// input sharing by counts per tile. Layers are dense (zero-width
    /// included), conv or pool (see [`spatial_spec`]). Up to 23 maps, so a
    /// run of one position's repeated fields can outgrow an MCA's columns.
    #[test]
    fn partition_spec_matches_general_path(
        kind in 0usize..3,
        dense in (0usize..600, 0usize..600),
        input in (1usize..14, 1usize..14, 0usize..5),
        conv in (0usize..24, 1usize..6, 1usize..4, any::<bool>()),
        banded in any::<bool>(),
        fan in 0usize..6,
    ) {
        use resparc_suite::resparc_core::map::partition::{partition_layer, partition_spec};

        let spec = match kind {
            0 => LayerSpec::Dense { inputs: dense.0, outputs: dense.1 },
            _ => spatial_spec(kind == 2, input, conv, banded, fan),
        };
        let conn = ConnectivityMatrix::from_layer(&spec);
        for mca in [8usize, 16, 24, 32, 64, 100, 128] {
            for (input_sharing, record_details) in
                [(true, false), (true, true), (false, false), (false, true)]
            {
                let opts = PartitionOptions { mca_size: mca, input_sharing, record_details };
                let part = partition_layer(&conn, 3, &opts);
                let direct = partition_spec(&spec, 3, &opts);
                prop_assert!(
                    direct == part,
                    "{} route differs from the general path: {spec:?}, {opts:?}",
                    spec.kind()
                );
                if record_details {
                    let plain = PartitionOptions { record_details: false, ..opts };
                    let pairs = [
                        ("general", part.clone(), partition_layer(&conn, 3, &plain)),
                        ("direct", direct.clone(), partition_spec(&spec, 3, &plain)),
                    ];
                    for (source, mut detailed, without) in pairs {
                        detailed.details = None;
                        prop_assert!(
                            detailed == without,
                            "{source} {} route packs differently with details: {spec:?}, {opts:?}",
                            spec.kind()
                        );
                        prop_assert_eq!(detailed.mean_degree.to_bits(), without.mean_degree.to_bits());
                    }
                }
                prop_assert_eq!(direct.mean_degree.to_bits(), part.mean_degree.to_bits());
                prop_assert_eq!(part.total_synapses, spec.synapse_count() as u64);
                prop_assert!(part.tiles.iter().all(|t| t.rows as usize <= mca && t.cols as usize <= mca));
                let degree = if spec.output_count() == 0 {
                    0
                } else {
                    conn.max_fan_in().div_ceil(mca).max(1)
                };
                prop_assert_eq!(part.max_degree as usize, degree);
            }
        }
    }

    /// The closed-form receptive fields list every conv/pool output with a
    /// non-empty field exactly once, in (first input, output id) order, as
    /// maximal runs of consecutive outputs whose sorted `for_each_synapse`
    /// inputs are equal. Each output's field, read in two pieces split
    /// anywhere, is its sorted entries, weight ids included, and the run's
    /// fan-in is its length. The closed-form synapse count and largest
    /// fan-in equal the enumeration's.
    #[test]
    fn receptive_fields_match_sorted_enumeration(
        pool in any::<bool>(),
        input in (1usize..14, 1usize..14, 0usize..5),
        conv in (0usize..7, 1usize..6, 1usize..4, any::<bool>()),
        banded in any::<bool>(),
        fan in 0usize..6,
        split in 0.0f64..1.0,
    ) {
        let spec = spatial_spec(pool, input, conv, banded, fan);
        let mut entries = vec![Vec::new(); spec.output_count()];
        spec.for_each_synapse(|o, i, w| entries[o].push((i as u32, w as u32)));
        for want in &mut entries {
            want.sort_unstable();
        }
        prop_assert_eq!(spec.synapse_count(), entries.iter().map(Vec::len).sum::<usize>());
        let fields = spec.receptive_fields().expect("a spatial layer");
        prop_assert_eq!(fields.synapse_count(), spec.synapse_count());
        prop_assert_eq!(fields.max_fan_in(), entries.iter().map(Vec::len).max().unwrap_or(0));

        // Each run's output count, and each of its outputs with the
        // shared field zipped to the output's weight ids.
        let mut runs = Vec::new();
        fields.for_each_run(|run| {
            let fan_in = run.fan_in();
            let cut = (split * fan_in as f64) as usize;
            let mut inputs = Vec::new();
            run.extend_inputs(0..cut, &mut inputs);
            run.extend_inputs(cut..fan_in, &mut inputs);
            let outputs: Vec<(usize, Vec<(u32, u32)>)> = run
                .outputs()
                .map(|out| {
                    let mut weight_ids = Vec::new();
                    out.extend_weight_ids(0..cut, &mut weight_ids);
                    out.extend_weight_ids(cut..fan_in, &mut weight_ids);
                    (out.id(), inputs.iter().copied().zip(weight_ids).collect())
                })
                .collect();
            runs.push((run.output_count(), outputs));
        });
        for (count, outputs) in &runs {
            prop_assert_eq!(*count, outputs.len());
            for (o, got) in outputs {
                prop_assert!(got == &entries[*o], "output {o} of {spec:?}: {got:?} != {:?}", entries[*o]);
            }
        }

        let order: Vec<usize> = runs.iter().flat_map(|(_, outs)| outs.iter().map(|&(o, _)| o)).collect();
        let mut want: Vec<usize> = (0..entries.len()).filter(|&o| !entries[o].is_empty()).collect();
        want.sort_by_key(|&o| (entries[o][0].0, o));
        prop_assert!(order == want, "{spec:?}: order {order:?} != {want:?}");
        let inputs = |o: usize| entries[o].iter().map(|&(i, _)| i).collect::<Vec<_>>();
        for pair in runs.windows(2) {
            let (a, b) = (pair[0].1[0].0, pair[1].1[0].0);
            prop_assert!(inputs(a) != inputs(b), "{spec:?}: runs of {a} and {b} read the same inputs");
        }
    }

    /// Quantization error is bounded by half a step at every precision.
    #[test]
    fn quantization_error_bounded(
        weights in proptest::collection::vec(-5.0f32..5.0, 1..64),
        bits in 1u8..9,
    ) {
        let p = Precision::new(bits);
        let (q, _) = p.quantize_values(&weights);
        let max = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        if max > 0.0 {
            let step = 2.0 * max / (p.levels() as f32 - 1.0);
            for (&w, &d) in weights.iter().zip(&q) {
                prop_assert!((w - d).abs() <= step / 2.0 + 1e-5);
            }
        }
    }

    /// Energy breakdowns always partition their total, whatever was
    /// charged.
    #[test]
    fn breakdown_groups_partition_total(
        charges in proptest::collection::vec((0usize..9, 0.0f64..1e6), 1..40),
    ) {
        let mut bd = EnergyBreakdown::new();
        for (idx, pj) in charges {
            bd.charge(Category::ALL[idx], Energy::from_picojoules(pj));
        }
        let total = bd.total();
        let rsum: Energy = bd.resparc_groups().iter().map(|(_, e)| *e).sum();
        let csum: Energy = bd.cmos_groups().iter().map(|(_, e)| *e).sum();
        prop_assert!((rsum.picojoules() - total.picojoules()).abs() <= 1e-6 * total.picojoules().max(1.0));
        prop_assert!((csum.picojoules() - total.picojoules()).abs() <= 1e-6 * total.picojoules().max(1.0));
    }

    /// The zero-packet statistic matches a naive per-window scan.
    #[test]
    fn zero_packet_fraction_matches_naive(
        steps in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 50), 1..6),
        width in 1usize..16,
    ) {
        let mut raster = SpikeRaster::new(50);
        for s in &steps {
            raster.push(SpikeVector::from_bools(s));
        }
        let fast = raster.zero_packet_fraction(width);
        let mut zero = 0u64;
        let mut total = 0u64;
        for s in &steps {
            for start in (0..50).step_by(width) {
                total += 1;
                if s[start..(start + width).min(50)].iter().all(|&b| !b) {
                    zero += 1;
                }
            }
        }
        prop_assert!((fast - zero as f64 / total as f64).abs() < 1e-12);
    }

    /// Compiled kernels reproduce the closure-walk reference path exactly
    /// (bit-identical activations, spike-identical outputs) on random MLP
    /// and CNN topologies with random weights. The rasters are rate, TTFS,
    /// TTFS with a silent tail, and all-silent, and the weights are scaled
    /// up to leave residues at or above threshold, so the runner's silent
    /// layer-steps meet armed membranes. Both traced runs, which share one
    /// capture loop, agree with the stepped runner: the full trace records
    /// the raster and every output step, and the early exit is the full
    /// trace cut one step past the first output spike (or the whole raster
    /// when no output spikes).
    #[test]
    fn compiled_kernels_match_reference_on_random_topologies(
        sizes in proptest::collection::vec(1usize..9, 1..4),
        seed in 0u64..1_000_000,
        side in 8usize..12,
        kind in prop_oneof![Just(0usize), Just(1)],
        encoding in 0usize..4,
        scale in prop_oneof![Just(1.0f32), Just(3.0)],
    ) {
        use resparc_suite::resparc_neuro::network::reference;

        let topology = if kind == 0 {
            Topology::mlp(sizes[0] + 4, &sizes)
        } else {
            let maps = sizes[0].min(4);
            Topology::builder(Shape::new(side, side, 1))
                .conv(maps, 3, Padding::Same, ChannelTable::Full)
                .pool(2)
                .dense(*sizes.last().unwrap())
                .build()
                .expect("consistent")
        };
        let inputs = topology.input_count();
        let net = Network::random(topology, seed, scale);
        let x: Vec<f32> = (0..inputs)
            .map(|i| ((i as u64 * 13 + seed) % 17) as f32 / 17.0)
            .collect();
        prop_assert_eq!(
            net.forward_analog_all(&x),
            reference::forward_analog_all(&net, &x)
        );

        let raster = match encoding {
            0 => RegularEncoder::new(1.0).encode(&x, 8),
            1 => TtfsEncoder::new().encode(&x, 8),
            2 => TtfsEncoder::with_window(2).encode(&x, 8),
            _ => SpikeRaster::zeroed(inputs, 8),
        };
        let (outcome, trace) = net.spiking().run_traced(&raster);
        let output = trace.layer_output(trace.boundary_count() - 2);
        let mut compiled = net.spiking();
        let mut oracle = reference::RefSnnRunner::new(&net);
        let mut first_fire = None;
        for (t, step) in raster.iter().enumerate() {
            let c = compiled.step(step).clone();
            prop_assert_eq!(&c, oracle.step(step));
            prop_assert_eq!(output.step(t), c.view());
            if first_fire.is_none() && !c.is_silent() {
                first_fire = Some(t);
            }
        }
        prop_assert_eq!(compiled.outcome(), oracle.outcome());
        prop_assert_eq!(&outcome, &compiled.outcome());
        prop_assert_eq!(trace.input(), &raster);

        let (early, early_trace) = net.spiking().run_traced_early_exit(&raster);
        prop_assert_eq!(early.steps as usize, first_fire.map_or(raster.len(), |t| t + 1));
        prop_assert_eq!(early_trace, trace.truncated(early.steps as usize));
    }

    /// The dense spiking kernel adds a step's active inputs four rows per
    /// pass over the currents, yet every current must still sum one row
    /// at a time in ascending input order. Against a scalar row-at-a-time
    /// sum, `accumulate_spikes` returns the same event count and currents
    /// with the same bits, for every active-set size from none to all
    /// inputs, so every remainder mod 4 occurs. Weights and starting
    /// currents mix ±0.0, subnormals, ±1e30 (large rows that cancel) and
    /// ordinary values, so a regrouped sum such as
    /// `(c + (w_a + w_b)) + (w_c + w_d)` changes bits, which spike-level
    /// tests need not see.
    #[test]
    fn dense_spike_accumulation_sums_rows_in_input_order(
        inputs in 1usize..71,
        outputs in 1usize..71,
        seed in any::<u64>(),
    ) {
        let mut state = seed;
        let weights: Vec<f32> = (0..inputs * outputs)
            .map(|_| edge_weight(splitmix64(&mut state)))
            .collect();
        let start: Vec<f32> = (0..outputs).map(|_| edge_weight(splitmix64(&mut state))).collect();
        let spec = LayerSpec::Dense { inputs, outputs };
        let layer = CompiledLayer::compile(&Layer::new(spec, weights.clone(), 1.0));
        let bits = |v: &[f32]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        let mut order: Vec<usize> = (0..inputs).collect();
        for active in 0..=inputs {
            for k in (1..inputs).rev() {
                order.swap(k, (splitmix64(&mut state) % (k as u64 + 1)) as usize);
            }
            let mut on = order[..active].to_vec();
            on.sort_unstable();
            let mut spikes = SpikeVector::new(inputs);
            let mut expected = start.clone();
            for &i in &on {
                spikes.set(i, true);
                for (o, c) in expected.iter_mut().enumerate() {
                    *c += weights[o * inputs + i];
                }
            }
            let mut currents = start.clone();
            let events = layer.accumulate_spikes(spikes.view(), &mut currents);
            prop_assert_eq!(events, (active * outputs) as u64);
            prop_assert_eq!(bits(&currents), bits(&expected), "{} of {} inputs active", active, inputs);
        }
    }

    /// Replaying an all-silent trace charges zero Crossbar and Neuron
    /// energy, whatever the topology or MCA size — nothing spikes, so no
    /// read fires and no membrane integrates (the event-driven contract
    /// of paper §3.2 taken to its limit).
    #[test]
    fn silent_trace_charges_no_crossbar_or_neuron(
        sizes in proptest::collection::vec(1usize..40, 1..4),
        inputs in 8usize..200,
        steps in 1usize..6,
        mca in prop_oneof![Just(16usize), Just(32), Just(64)],
    ) {
        use resparc_suite::resparc_core::sim::event::EventSimulator;
        use resparc_suite::resparc_neuro::trace::SpikeTrace;

        let topology = Topology::mlp(inputs, &sizes);
        let mapping = Mapper::new(ResparcConfig::with_mca_size(mca))
            .map(&topology)
            .unwrap();
        let mut counts = vec![inputs];
        counts.extend(sizes.iter().copied());
        let trace = SpikeTrace::silent(&counts, steps);
        let report = EventSimulator::new(&mapping).run(&trace);
        prop_assert!(report.energy.get(Category::Crossbar).is_zero());
        prop_assert!(report.energy.get(Category::Neuron).is_zero());
        prop_assert!(report.layers.iter().all(|l| l.packets_delivered == 0));
        prop_assert!(report.layers.iter().all(|l| l.reads_performed == 0));
    }

    /// Packet conservation: every packet window the event simulator
    /// zero-checks is a window of exactly one tile of the mapping, so the
    /// candidate count is exactly `steps × Σ_tiles ceil(rows / packet_bits)`
    /// (mirroring the partitioner's every-synapse-in-exactly-one-tile
    /// invariant at packet granularity), and no more packets are delivered
    /// than were zero-checked.
    #[test]
    fn event_packets_map_to_exactly_one_tile(
        inputs in 8usize..180,
        hidden in 1usize..100,
        steps in 1usize..5,
        seed in 0u64..1_000,
        rate in 0.0f64..1.0,
        mca in prop_oneof![Just(16usize), Just(32), Just(64)],
    ) {
        use resparc_suite::resparc_core::sim::event::EventSimulator;

        let topology = Topology::mlp(inputs, &[hidden]);
        let net = Network::random(topology, seed, 1.0);
        let stimulus: Vec<f32> = (0..inputs)
            .map(|i| (((i as u64 * 31 + seed) % 10) as f32 / 10.0) * rate as f32)
            .collect();
        let mut enc = PoissonEncoder::new(0.9, seed);
        let raster = enc.encode(&stimulus, steps);
        let (_, trace) = net.spiking().run_traced(&raster);
        let mapping = Mapper::new(ResparcConfig::with_mca_size(mca))
            .map_network(&net)
            .unwrap();
        let report = EventSimulator::new(&mapping).run(&trace);
        let pkt = mapping.config.packet_bits as usize;
        for (ls, part) in report.layers.iter().zip(mapping.partitions.iter()) {
            prop_assert_eq!(ls.tiles, part.tile_count());
            let windows: usize = part.tile_rows.iter().map(|rows| rows.len().div_ceil(pkt)).sum();
            prop_assert_eq!(ls.candidate_packets, (windows * steps) as u64);
            prop_assert!(ls.packets_delivered <= ls.candidate_packets);
        }
    }

    /// The rate codes of [`Encoding`]: the raster's mean rate tracks the
    /// stimulus intensity (stochastically for Poisson, to within one spike
    /// per neuron for the phase-accumulator regular encoder).
    #[test]
    fn rate_encoder_mean_rate_tracks_intensity(
        p in 0.05f32..0.95,
        seed in 0u64..1_000,
    ) {
        let steps = 800usize;
        let poisson = Encoding::Rate.encode(1.0, &[p; 32], steps, seed);
        prop_assert!(
            (poisson.mean_rate() - p as f64).abs() < 0.06,
            "poisson rate {} vs intensity {p}", poisson.mean_rate()
        );
        let regular = Encoding::RegularRate.encode(1.0, &[p; 8], steps, seed);
        prop_assert!(
            (regular.mean_rate() - p as f64).abs() <= 1.0 / steps as f64 + 1e-9,
            "regular rate {} vs intensity {p}", regular.mean_rate()
        );
    }

    /// TTFS invariants: exactly one spike per positive input, none for
    /// silent inputs, and first-spike latency monotone non-increasing in
    /// intensity. The encoder is deterministic (the seed is ignored).
    #[test]
    fn ttfs_encoder_invariants(
        intensities in proptest::collection::vec(0.0f32..1.0, 1..40),
        steps in 1usize..48,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let raster = Encoding::Ttfs.encode(1.0, &intensities, steps, seed);
        prop_assert_eq!(raster.len(), steps);
        let counts = raster.spike_counts();
        let first: Vec<Option<usize>> = (0..intensities.len())
            .map(|i| raster.iter().position(|v| v.get(i)))
            .collect();
        for (i, &p) in intensities.iter().enumerate() {
            prop_assert_eq!(counts[i], u32::from(p > 0.0), "input {i} intensity {p}");
        }
        for i in 0..intensities.len() {
            for j in 0..intensities.len() {
                if let (Some(ti), Some(tj)) = (first[i], first[j]) {
                    if intensities[i] > intensities[j] {
                        prop_assert!(
                            ti <= tj,
                            "intensity {} (t={ti}) vs {} (t={tj})",
                            intensities[i], intensities[j]
                        );
                    }
                }
            }
        }
        prop_assert_eq!(
            &raster,
            &Encoding::Ttfs.encode(1.0, &intensities, steps, seed.wrapping_add(1)),
            "TTFS is deterministic regardless of seed"
        );
    }

    /// Burst invariants: burst length is `round(p × max_burst)` truncated
    /// by the window, spikes land only on gap-aligned steps, silent
    /// inputs stay silent.
    #[test]
    fn burst_encoder_invariants(
        intensities in proptest::collection::vec(0.0f32..1.0, 1..32),
        steps in 1usize..40,
        max_burst in 1usize..10,
        gap in 1usize..5,
    ) {
        let enc = BurstEncoder::new(max_burst, gap);
        let raster = enc.encode(&intensities, steps);
        let counts = raster.spike_counts();
        let fit = steps.div_ceil(gap);
        for (i, &p) in intensities.iter().enumerate() {
            let expected = ((p as f64) * max_burst as f64).round() as usize;
            prop_assert_eq!(counts[i] as usize, expected.min(fit), "input {i} intensity {p}");
            for (t, v) in raster.iter().enumerate() {
                if v.get(i) {
                    prop_assert_eq!(t % gap, 0, "spike off the gap grid at t={t}");
                }
            }
        }
    }

    /// Every encoding behind the enum: a silent stimulus yields a silent
    /// raster, and encoding is deterministic per `(stimulus, steps,
    /// seed)`.
    #[test]
    fn encodings_are_silent_on_silence_and_deterministic(
        steps in 1usize..30,
        seed in proptest::prelude::any::<u64>(),
        n in 1usize..50,
    ) {
        for encoding in [
            Encoding::Rate,
            Encoding::RegularRate,
            Encoding::Ttfs,
            Encoding::Burst { max_burst: 4, gap: 2 },
        ] {
            let silent = encoding.encode(0.9, &vec![0.0; n], steps, seed);
            prop_assert_eq!(silent.total_spikes(), 0, "{} must stay silent", encoding);
            let xs: Vec<f32> = (0..n).map(|i| (i % 7) as f32 / 7.0).collect();
            let a = encoding.encode(0.9, &xs, steps, seed);
            let b = encoding.encode(0.9, &xs, steps, seed);
            prop_assert_eq!(&a, &b, "{} must be deterministic per seed", encoding);
            prop_assert_eq!(a.len(), steps);
        }
    }

    /// Placing at a NeuroCell origin shifts pool coordinates only: every
    /// span moves by exactly `origin` NCs and all counts (mPEs, NCs,
    /// MCAs, CCU traffic) and boundary classifications are unchanged.
    /// `Placement::translated_to` — the only way a mapping reaches pool
    /// coordinates — equals re-placing at the target origin, both ways.
    #[test]
    fn placement_origin_shifts_coordinates_only(
        inputs in 8usize..300,
        hidden in 1usize..200,
        origin in 0usize..12,
        mca in prop_oneof![Just(32usize), Just(64)],
    ) {
        use resparc_suite::resparc_core::map::{place, place_with_origin, PartitionOptions};
        use resparc_suite::resparc_core::map::partition::partition_layer;

        let cfg = ResparcConfig::with_mca_size(mca);
        let parts: Vec<_> = [
            LayerSpec::Dense { inputs, outputs: hidden },
            LayerSpec::Dense { inputs: hidden, outputs: 10 },
        ]
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            partition_layer(&ConnectivityMatrix::from_layer(spec), i, &PartitionOptions::new(mca))
        })
        .collect();
        let base = place(&parts, &cfg);
        let shifted = place_with_origin(&parts, &cfg, origin);
        prop_assert_eq!(shifted.origin_nc, origin);
        prop_assert_eq!(shifted.mpes_used, base.mpes_used);
        prop_assert_eq!(shifted.ncs_used, base.ncs_used);
        prop_assert_eq!(shifted.mcas_used, base.mcas_used);
        prop_assert_eq!(shifted.end_nc(), origin + base.ncs_used);
        let mpe_shift = origin * cfg.mpes_per_nc();
        for (b, s) in base.layers.iter().zip(&shifted.layers) {
            prop_assert_eq!(s.first_mpe, b.first_mpe + mpe_shift);
            prop_assert_eq!(s.end_mpe, b.end_mpe + mpe_shift);
            prop_assert_eq!(s.first_nc, b.first_nc + origin);
            prop_assert_eq!(s.end_nc, b.end_nc + origin);
            prop_assert_eq!(s.tiles, b.tiles);
            prop_assert_eq!(s.ccu_transfers_per_step, b.ccu_transfers_per_step);
        }
        for l in 0..parts.len() {
            prop_assert_eq!(shifted.boundary_crosses_nc(l), base.boundary_crosses_nc(l));
        }
        prop_assert_eq!(&base.translated_to(origin, &cfg), &shifted);
        prop_assert_eq!(&shifted.translated_to(0, &cfg), &base);
    }

    /// FabricPool invariants under arbitrary admission sequences: no NC
    /// is ever over-committed (each belongs to at most one tenant, in
    /// bounds), tenants occupy disjoint contiguous runs (so they can
    /// never share an mPE or a tile), rejection is exactly the
    /// no-fitting-run condition, and evicting every tenant restores the
    /// free list to its pristine state.
    #[test]
    fn fabric_pool_admission_invariants(
        hiddens in proptest::collection::vec(8usize..260, 1..7),
        inputs in 16usize..200,
        evict_first in proptest::prelude::any::<bool>(),
    ) {
        use resparc_suite::resparc_core::fabric::{AdmitError, FabricPool};

        let cfg = ResparcConfig::resparc_64();
        let mut pool = FabricPool::new(cfg.clone());
        let pristine = pool.occupancy().to_vec();
        prop_assert!(pristine.iter().all(|s| s.is_none()));

        let mut admitted = Vec::new();
        for (k, &h) in hiddens.iter().enumerate() {
            let t = Topology::mlp(inputs, &[h, 10]);
            match pool.admit_topology(&t, &format!("t{k}")) {
                Ok(id) => admitted.push(id),
                Err(AdmitError::CapacityExhausted { needed_ncs, free_ncs, largest_free_run }) => {
                    prop_assert!(needed_ncs > largest_free_run);
                    prop_assert!(largest_free_run <= free_ncs);
                    prop_assert_eq!(largest_free_run, pool.largest_free_run());
                }
                Err(e) => prop_assert!(false, "unexpected admit error: {e}"),
            }
        }

        // Occupancy bookkeeping: every tenant owns exactly its
        // contiguous NC run, runs are in bounds and pairwise disjoint.
        let mut owned = 0usize;
        for tenant in pool.tenants() {
            prop_assert!(tenant.end_nc() <= pool.physical_ncs(), "tenant out of bounds");
            prop_assert!(tenant.nc_count() >= 1);
            for nc in tenant.first_nc()..tenant.end_nc() {
                prop_assert_eq!(pool.occupancy()[nc], Some(tenant.id), "NC {nc} over-committed");
            }
            // The mapping's spans stay inside the tenant's run (no tile
            // can land on another tenant's mPEs).
            let origin_mpe = tenant.first_nc() * cfg.mpes_per_nc();
            let end_mpe = tenant.end_nc() * cfg.mpes_per_nc();
            for span in &tenant.mapping.placement.layers {
                prop_assert!(span.first_mpe >= origin_mpe && span.end_mpe <= end_mpe);
            }
            owned += tenant.nc_count();
        }
        prop_assert_eq!(owned, pool.occupied_ncs());
        prop_assert!(owned <= pool.physical_ncs(), "pool over NC capacity");

        // Evicting every tenant (in either order) restores the free
        // list exactly.
        if evict_first {
            admitted.reverse();
        }
        for id in admitted {
            prop_assert!(pool.evict(id).is_some());
        }
        prop_assert_eq!(pool.occupancy(), &pristine[..]);
        prop_assert_eq!(pool.free_ncs(), pool.physical_ncs());
    }

    /// Defragmenting compaction is invisible to replay: with the same
    /// residents (so the same leakage domains), the whole
    /// [`SharedReport`] — per-tenant dynamic ledgers, per-layer event
    /// tallies (the quantities decoded labels and billing are built
    /// from), cycles, latency, leakage shares — is **bit-identical**
    /// before and after `defragment()` moves tenants to new NC origins.
    /// Compaction itself must leave every resident's footprint intact,
    /// pack the occupancy into a contiguous prefix and fuse all free
    /// NCs into one run.
    #[test]
    fn defragmentation_preserves_replay_bit_identically(
        hiddens in proptest::collection::vec(8usize..200, 3..6),
        inputs in 16usize..120,
        evict_mask in 1u8..15,
        steps in 3usize..9,
    ) {
        use resparc_suite::resparc_core::fabric::PackingPolicy;

        let cfg = ResparcConfig::resparc_64();
        let mut pool = FabricPool::new(cfg.clone()).with_policy(PackingPolicy::Defragment);
        let mut admitted: Vec<(TenantId, Network)> = Vec::new();
        for (k, &h) in hiddens.iter().enumerate() {
            let net = Network::random(Topology::mlp(inputs, &[h, 10]), 100 + k as u64, 1.0);
            match pool.admit(&net, &format!("t{k}")) {
                Ok(id) => admitted.push((id, net)),
                Err(_) => break,
            }
        }
        // Evict the masked subset, keeping at least one resident.
        let mut resident: Vec<(TenantId, Network)> = Vec::new();
        for (k, (id, net)) in admitted.into_iter().enumerate() {
            if evict_mask & (1 << (k % 4)) != 0 && pool.tenants().len() > 1 {
                prop_assert!(pool.evict(id).is_some());
            } else {
                resident.push((id, net));
            }
        }
        let footprints: Vec<(TenantId, usize)> = pool
            .tenants()
            .iter()
            .map(|t| (t.id, t.nc_count()))
            .collect();

        let traces: Vec<SpikeTrace> = resident
            .iter()
            .map(|(_, net)| {
                let stimulus: Vec<f32> =
                    (0..inputs).map(|i| (i % 5) as f32 / 4.0).collect();
                let raster = RegularEncoder::new(0.9).encode(&stimulus, steps);
                net.spiking().run_traced(&raster).1
            })
            .collect();
        let pairs: Vec<(TenantId, &SpikeTrace)> = resident
            .iter()
            .map(|(id, _)| *id)
            .zip(traces.iter())
            .collect();

        let before = SharedEventSimulator::new(&pool).run_weighted(&pairs, &vec![1; pairs.len()]);
        pool.defragment();
        let after = SharedEventSimulator::new(&pool).run_weighted(&pairs, &vec![1; pairs.len()]);
        prop_assert_eq!(before, after);

        // Compaction invariants: footprints preserved, occupancy is a
        // packed prefix, all free NCs fused into one contiguous run.
        for (id, ncs) in footprints {
            let t = pool.tenant(id).expect("resident survived compaction");
            prop_assert_eq!(t.nc_count(), ncs);
        }
        prop_assert_eq!(pool.largest_free_run(), pool.free_ncs());
        let occupied = pool.occupied_ncs();
        prop_assert!(pool.occupancy()[..occupied].iter().all(|s| s.is_some()));
        prop_assert!(pool.occupancy()[occupied..].iter().all(|s| s.is_none()));
    }

    /// The serving loop's replay reuse is exact: interleaving replays of
    /// each tenant's origin-0 probe equals `run_weighted` over the
    /// resident, translated tenants, bit for bit — after evictions and a
    /// `defragment` moved them, under every packing policy, at any
    /// weights, and whichever engine replayed the probes.
    #[test]
    fn probe_replays_interleave_like_resident_replays(
        shapes in proptest::collection::vec(0usize..3, 1..5),
        policy in 0usize..3,
        evict_mask in 0u8..16,
        weights in proptest::collection::vec(1u32..9, 4),
        steps in 3usize..7,
        reference in any::<bool>(),
    ) {
        // 1-, 2- and 4-NC MLPs on RESPARC-64.
        const HIDDENS: [&[usize]; 3] = [&[96, 10], &[576, 576, 10], &[576, 576, 576, 10]];
        let policy = [PackingPolicy::FirstFit, PackingPolicy::BestFit, PackingPolicy::Defragment]
            [policy];
        let engine = if reference { ReplayEngine::Reference } else { ReplayEngine::Plan };
        let cfg = ResparcConfig::resparc_64();
        let mapper = Mapper::new(cfg.clone());
        let mut pool = FabricPool::new(cfg).with_policy(policy);
        let mut tenants: Vec<(TenantId, Mapping, SpikeTrace)> = Vec::new();
        for (k, &shape) in shapes.iter().enumerate() {
            let net = Network::random(Topology::mlp(144, HIDDENS[shape]), 40 + k as u64, 1.0);
            let probe = mapper.map_network(&net).expect("maps");
            let stimulus: Vec<f32> = (0..144).map(|i| ((i + k) % 5) as f32 / 4.0).collect();
            let raster = RegularEncoder::new(0.9).encode(&stimulus, steps);
            let trace = net.spiking().run_traced(&raster).1;
            let id = pool.admit_mapped(probe.clone(), &format!("t{k}")).expect("fits");
            tenants.push((id, probe, trace));
        }
        // Evict the masked subset, keeping at least one resident, then
        // compact the survivors toward NC 0.
        let mut k = 0;
        tenants.retain(|(id, _, _)| {
            k += 1;
            let evict = evict_mask & (1 << (k - 1)) != 0 && pool.tenants().len() > 1;
            if evict {
                pool.evict(*id);
            }
            !evict
        });
        pool.defragment();

        let weights = &weights[..tenants.len()];
        let sim = SharedEventSimulator::new(&pool);
        let traces: Vec<(TenantId, &SpikeTrace)> =
            tenants.iter().map(|(id, _, trace)| (*id, trace)).collect();
        let replays: Vec<TraceReplay> = tenants
            .iter()
            .map(|(_, probe, trace)| EventSimulator::with_engine(probe, engine).replay(trace))
            .collect();
        let reused: Vec<(TenantId, &TraceReplay)> = tenants
            .iter()
            .zip(&replays)
            .map(|((id, _, _), replay)| (*id, replay))
            .collect();
        prop_assert_eq!(sim.interleave(&reused, weights), sim.run_weighted(&traces, weights));
    }

    /// Weighted-QoS arbitration at *equal* weights — whatever their
    /// magnitude — reproduces the fair all-1 arbitration (the PR-4
    /// `SharedEventSimulator` semantics) bit-identically: same ledger,
    /// cycles, latency, and per-tenant stall/latency accounting.
    #[test]
    fn equal_weight_qos_reproduces_fair_arbitration_bit_identically(
        count in 1usize..4,
        weight in 1u32..64,
        hidden in 8usize..150,
        steps in 3usize..9,
    ) {
        let cfg = ResparcConfig::resparc_64();
        let mut pool = FabricPool::new(cfg);
        let nets: Vec<Network> = (0..count)
            .map(|k| Network::random(Topology::mlp(96, &[hidden, 10]), 200 + k as u64, 1.0))
            .collect();
        let ids: Vec<TenantId> = nets
            .iter()
            .enumerate()
            .map(|(k, n)| pool.admit(n, &format!("t{k}")).expect("small tenants fit"))
            .collect();
        let traces: Vec<SpikeTrace> = nets
            .iter()
            .map(|net| {
                let stimulus: Vec<f32> = (0..96).map(|i| (i % 5) as f32 / 4.0).collect();
                let raster = RegularEncoder::new(0.8).encode(&stimulus, steps);
                net.spiking().run_traced(&raster).1
            })
            .collect();
        let pairs: Vec<(TenantId, &SpikeTrace)> =
            ids.iter().copied().zip(traces.iter()).collect();

        let sim = SharedEventSimulator::new(&pool);
        let fair = sim.run_weighted(&pairs, &vec![1; count]);
        let weighted = sim.run_weighted(&pairs, &vec![weight; count]);
        prop_assert_eq!(&weighted, &fair);
        // A lone tenant never stalls on an uncontended bus.
        if count == 1 {
            prop_assert_eq!(weighted.tenants[0].bus_stall_cycles, 0);
            prop_assert_eq!(weighted.tenants[0].tenant_cycles, weighted.total_cycles);
        }
    }

    /// NC health invariants under arbitrary admission + fault sequences:
    /// occupied cells are always healthy, the health partition (free +
    /// occupied + quarantined + failed) always covers the pool exactly,
    /// failing an occupied cell evicts exactly its tenant (the rest of
    /// the run returns to the free list), recovery re-admission never
    /// lands on an unhealthy cell, and restoring every quarantined cell
    /// returns the pool's capacity to (physical − failed).
    #[test]
    fn fabric_pool_health_invariants(
        hiddens in proptest::collection::vec(8usize..260, 1..6),
        inputs in 16usize..200,
        fault_ncs in proptest::collection::vec(0usize..16, 1..5),
        drain_instead in proptest::prelude::any::<bool>(),
    ) {
        use resparc_suite::resparc_core::fabric::NcHealth;

        let cfg = ResparcConfig::resparc_64();
        let mut pool = FabricPool::new(cfg);
        for (k, &h) in hiddens.iter().enumerate() {
            let t = Topology::mlp(inputs, &[h, 10]);
            let _ = pool.admit_topology(&t, &format!("t{k}"));
        }

        for &nc in &fault_ncs {
            let occupant = pool.occupancy()[nc];
            let was_failed = pool.nc_health()[nc] == NcHealth::Failed;
            let resident_before = pool.tenants().len();
            let evicted = if drain_instead { pool.drain_nc(nc) } else { pool.fail_nc(nc) };
            match occupant {
                Some(id) if !was_failed => {
                    let t = evicted.expect("occupied cell must evict its tenant");
                    prop_assert_eq!(t.id, id);
                    prop_assert!(pool.tenant(id).is_none());
                    prop_assert_eq!(pool.tenants().len(), resident_before - 1);
                }
                _ => prop_assert!(evicted.is_none(), "free/dead cell evicts nobody"),
            }

            // The health partition covers the pool exactly, and
            // occupied cells are always healthy.
            prop_assert_eq!(
                pool.free_ncs() + pool.occupied_ncs() + pool.quarantined_ncs()
                    + pool.failed_ncs(),
                pool.physical_ncs()
            );
            for (slot, health) in pool.occupancy().iter().zip(pool.nc_health()) {
                if slot.is_some() {
                    prop_assert_eq!(*health, NcHealth::Healthy, "occupied cell must be healthy");
                }
            }
        }

        // Recovery re-admission routes around unhealthy cells.
        if let Ok(id) = pool.admit_topology(&Topology::mlp(inputs, &[hiddens[0], 10]), "re") {
            let t = pool.tenant(id).expect("admitted");
            for nc in t.first_nc()..t.end_nc() {
                prop_assert_eq!(pool.nc_health()[nc], NcHealth::Healthy);
            }
        }

        // Restoring every quarantined cell leaves only permanent
        // failures out of the capacity.
        for nc in 0..pool.physical_ncs() {
            if pool.nc_health()[nc] == NcHealth::Quarantined {
                prop_assert!(pool.restore_nc(nc));
            }
        }
        prop_assert_eq!(pool.quarantined_ncs(), 0);
        prop_assert_eq!(
            pool.free_ncs() + pool.occupied_ncs() + pool.failed_ncs(),
            pool.physical_ncs()
        );
    }

    /// An empty `FaultPlan` is a bit-identical no-op end to end: the
    /// transformed kernels equal the clean ones, the spiking replay
    /// produces the identical trace, and the shared-fabric report built
    /// from that trace is bit-identical — while any stuck-at plan with a
    /// positive sampled fraction changes the kernels.
    #[test]
    fn empty_fault_plan_replays_bit_identically(
        hidden in 8usize..120,
        inputs in 16usize..120,
        steps in 3usize..9,
        seed in 0u64..1_000_000,
    ) {
        use resparc_suite::resparc_neuro::network::SnnRunner;
        use std::sync::Arc;

        let net = Network::random(Topology::mlp(inputs, &[hidden, 10]), seed, 1.0);
        let clean = net.compiled();
        let faultless = Arc::new(clean.with_faults(&FaultPlan::none()));
        prop_assert_eq!(&*faultless, &*clean, "empty plan must be the identity");

        let stimulus: Vec<f32> = (0..inputs).map(|i| (i % 5) as f32 / 4.0).collect();
        let raster = RegularEncoder::new(0.9).encode(&stimulus, steps);
        let (out_a, trace_a) = SnnRunner::from_compiled(clean.clone()).run_traced(&raster);
        let (out_b, trace_b) = SnnRunner::from_compiled(faultless).run_traced(&raster);
        prop_assert_eq!(out_a.predicted, out_b.predicted);
        prop_assert_eq!(&trace_a, &trace_b);

        let mut pool = FabricPool::new(ResparcConfig::resparc_64());
        let id = pool.admit(&net, "t").expect("one small tenant fits");
        let sim = SharedEventSimulator::new(&pool);
        let report_a = sim.run_weighted(&[(id, &trace_a)], &[1]);
        let report_b = sim.run_weighted(&[(id, &trace_b)], &[1]);
        prop_assert_eq!(report_a, report_b, "SharedReport must be bit-identical");

        // Sanity: a saturating stuck-at plan is NOT the identity.
        let wrecked = clean.with_faults(&FaultPlan::stuck_at(seed, 1.0));
        prop_assert!(wrecked != *clean, "saturating stuck-at must change the kernels");
    }

    /// A fault-free recovery drill is the dynamic half of a churn sweep:
    /// on any schedule — idle rounds between arrivals included — it
    /// reports the same rounds, inferences, dynamic energy, busy latency,
    /// queue waits and utilization bit for bit, with nothing measured
    /// after a fault and no replay lost.
    #[test]
    fn fault_free_drill_matches_churn_dynamic_half(
        requests in proptest::collection::vec(
            (0usize..12, 1usize..6, 1u32..5, 1usize..4), 1..7),
        policy in prop_oneof![
            Just(PackingPolicy::FirstFit),
            Just(PackingPolicy::BestFit),
            Just(PackingPolicy::Defragment),
        ],
        seed in 0u64..1_000,
    ) {
        let nets: Vec<Network> = requests
            .iter()
            .enumerate()
            .map(|(k, &(_, _, _, layers))| {
                let mut hidden = vec![576usize; layers];
                hidden.push(10);
                Network::random(Topology::mlp(144, &hidden), seed + k as u64, 1.0)
            })
            .collect();
        let specs: Vec<ChurnSpec> = requests
            .iter()
            .map(|&(arrival, service, weight, _)| {
                ChurnSpec::new(arrival, service).with_weight(weight)
            })
            .collect();
        let samples = SyntheticImages::new(DatasetKind::Mnist, 12, seed).labelled_set(2, seed);
        let cfg = SweepConfig::rate(5, 0.8, seed);
        let pool = ResparcConfig::resparc_64();
        let churn = churn_sweep(&nets, &specs, &samples, &cfg, &pool, policy)
            .expect("every request fits the pool alone");
        let drill = fault_recovery_drill(&nets, &specs, &samples, &cfg, &pool, policy, &[])
            .expect("every request fits the pool alone");

        let dynamic = &churn.churned;
        let waits: Vec<usize> = drill.records.iter().map(|r| r.wait_rounds()).collect();
        let mean_wait = waits.iter().sum::<usize>() as f64 / waits.len().max(1) as f64;
        prop_assert_eq!(drill.rounds, dynamic.rounds);
        prop_assert_eq!(drill.inferences, dynamic.tenancy.inferences);
        prop_assert_eq!(
            drill.dynamic_energy.picojoules().to_bits(),
            dynamic.tenancy.dynamic_energy.picojoules().to_bits()
        );
        prop_assert_eq!(
            drill.latency.nanoseconds().to_bits(),
            dynamic.tenancy.latency.nanoseconds().to_bits()
        );
        prop_assert_eq!(mean_wait.to_bits(), dynamic.mean_queue_wait.to_bits());
        prop_assert_eq!(waits.iter().copied().max().unwrap_or(0), dynamic.max_queue_wait);
        prop_assert_eq!(
            drill.utilization_before.to_bits(),
            dynamic.mean_active_utilization.to_bits()
        );
        prop_assert_eq!(drill.utilization_after.to_bits(), 0.0f64.to_bits());
        prop_assert_eq!(drill.lost_replays, 0);
    }

    /// Open-loop serving is deterministic per seed: the identical
    /// inputs reproduce the whole [`ServingReport`] bit for bit —
    /// every latency, every energy term, every outcome — across all
    /// three arrival processes, while a different arrival seed
    /// produces a different arrival trace.
    #[test]
    fn serving_replay_is_bit_identical_per_seed(
        hidden in 16usize..100,
        requests in 3usize..9,
        gap in 300.0f64..4_000.0,
        process_kind in 0usize..3,
        burst in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let arrivals = match process_kind {
            0 => ArrivalProcess::Poisson,
            1 => ArrivalProcess::Bursty { burst },
            _ => ArrivalProcess::Diurnal { period_ns: 20_000.0, amplitude: 0.7 },
        };
        let nets = vec![Network::random(Topology::mlp(96, &[hidden, 10]), seed, 1.0)];
        let classes = vec![ServiceClass::new("only", 2, 5_000.0).with_weight(2)];
        let mut spec = ServingSpec::new(requests, gap, arrivals, seed)
            .with_qos(QosPolicy::Adaptive { max_weight: 16 })
            .with_preemption(32.0);
        spec.samples = 2;
        let cfg = SweepConfig::rate(5, 0.8, seed);
        let run = || serving_sweep(
            &nets, &classes, &spec, &cfg,
            &ResparcConfig::resparc_64(), PackingPolicy::BestFit,
        ).expect("one small class always fits");
        prop_assert_eq!(run(), run(), "same seed must reproduce the report");

        let times = arrivals.arrival_times(requests, gap, seed);
        prop_assert!(
            times != arrivals.arrival_times(requests, gap, seed ^ 0x9e37_79b9),
            "a different arrival seed must produce a different trace"
        );
    }

    /// The SLO-adaptive controller is work-conserving (the PR-5
    /// invariant extended to serving): with preemption off, adapting
    /// bus weights round over round changes *who waits inside a
    /// round*, never the schedule — rounds, makespan, busy time,
    /// dynamic energy, leakage and every admission outcome match the
    /// static run bit for bit.
    #[test]
    fn adaptive_serving_controller_is_work_conserving(
        hidden_a in 16usize..100,
        hidden_b in 16usize..100,
        requests in 4usize..10,
        gap in 200.0f64..2_000.0,
        slo in 500.0f64..20_000.0,
        max_queue in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let nets = vec![
            Network::random(Topology::mlp(96, &[hidden_a, 10]), seed, 1.0),
            Network::random(Topology::mlp(96, &[hidden_b, 10]), seed + 1, 1.0),
        ];
        let classes = vec![
            ServiceClass::new("tight", 2, slo).with_weight(3),
            ServiceClass::new("loose", 3, 1e9),
        ];
        let mut spec = ServingSpec::new(
            requests, gap, ArrivalProcess::Bursty { burst: 3 }, seed,
        ).with_max_queue(max_queue);
        spec.samples = 2;
        let cfg = SweepConfig::rate(5, 0.8, seed);
        let run = |spec: &ServingSpec| serving_sweep(
            &nets, &classes, spec, &cfg,
            &ResparcConfig::resparc_64(), PackingPolicy::FirstFit,
        ).expect("small classes always fit");
        let s = run(&spec);
        let a = run(&spec.clone().with_qos(QosPolicy::Adaptive { max_weight: 32 }));

        prop_assert_eq!(a.rounds, s.rounds);
        prop_assert_eq!(a.makespan, s.makespan);
        prop_assert_eq!(a.busy_time, s.busy_time);
        prop_assert_eq!(a.dynamic_energy, s.dynamic_energy);
        prop_assert_eq!(a.occupied_leakage, s.occupied_leakage);
        prop_assert_eq!(a.gated_idle_leakage, s.gated_idle_leakage);
        prop_assert_eq!(a.completed, s.completed);
        prop_assert_eq!(a.rejected, s.rejected);
    }

    /// Power gating only ever shrinks the bill: for every schedule and
    /// every gating factor in [0, 1], the billed idle leakage never
    /// exceeds the same run's ungated counterfactual, the counterfactual
    /// itself is gating-independent, and a factor of exactly 1.0
    /// reproduces the always-powered report bit for bit.
    #[test]
    fn gated_idle_leakage_never_exceeds_ungated(
        hidden in 16usize..100,
        requests in 3usize..8,
        gap in 300.0f64..5_000.0,
        factor in 0.0f64..1.0,
        service in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let nets = vec![Network::random(Topology::mlp(96, &[hidden, 10]), seed, 1.0)];
        let classes = vec![ServiceClass::new("only", service, 1e9)];
        let mut spec = ServingSpec::new(requests, gap, ArrivalProcess::Poisson, seed);
        spec.samples = 2;
        let cfg = SweepConfig::rate(5, 0.8, seed);
        let run = |factor: f64| serving_sweep(
            &nets, &classes, &spec.clone().with_idle_gating(factor), &cfg,
            &ResparcConfig::resparc_64(), PackingPolicy::Defragment,
        ).expect("one small class always fits");
        let gated = run(factor);
        let ungated = run(1.0);

        prop_assert!(gated.gated_idle_leakage <= gated.ungated_idle_leakage);
        prop_assert!(gated.pool_energy() <= gated.ungated_pool_energy());
        // Gating never reschedules: same rounds, clock and outcomes.
        prop_assert_eq!(gated.rounds, ungated.rounds);
        prop_assert_eq!(gated.makespan, ungated.makespan);
        prop_assert_eq!(&gated.outcomes, &ungated.outcomes);
        // The counterfactual is gating-independent, and factor 1.0
        // reproduces the always-powered billing exactly.
        prop_assert_eq!(gated.ungated_idle_leakage, ungated.ungated_idle_leakage);
        prop_assert_eq!(ungated.gated_idle_leakage, ungated.ungated_idle_leakage);
        prop_assert_eq!(ungated.pool_energy(), ungated.ungated_pool_energy());
    }

    /// Reports serialize byte-identically across same-seed runs, not
    /// just compare equal: the Debug rendering of a [`ServingReport`]
    /// and a [`SweepReport`] is the same byte string both times. Rust's
    /// f64 Debug format is shortest-roundtrip, so byte-identical text
    /// means bit-identical floats — any iteration-order or timing
    /// nondeterminism that PartialEq on aggregates could mask (e.g. a
    /// reordered per-request vector) shows up here.
    #[test]
    fn reports_serialize_byte_identically_per_seed(
        hidden in 16usize..64,
        requests in 3usize..7,
        gap in 300.0f64..3_000.0,
        seed in 0u64..1_000_000,
    ) {
        let nets = vec![Network::random(Topology::mlp(96, &[hidden, 10]), seed, 1.0)];
        let classes = vec![ServiceClass::new("only", 2, 5_000.0).with_weight(2)];
        let mut spec = ServingSpec::new(requests, gap, ArrivalProcess::Poisson, seed)
            .with_qos(QosPolicy::Adaptive { max_weight: 16 });
        spec.samples = 2;
        let cfg = SweepConfig::rate(5, 0.8, seed);
        let serve = || serving_sweep(
            &nets, &classes, &spec, &cfg,
            &ResparcConfig::resparc_64(), PackingPolicy::BestFit,
        ).expect("one small class always fits");
        prop_assert_eq!(
            format!("{:?}", serve()), format!("{:?}", serve()),
            "same-seed serving reports must render identically"
        );

        let images = SyntheticImages::new(DatasetKind::Mnist, 12, seed);
        let samples = images.labelled_set(8, seed);
        let net = Network::random(Topology::mlp(144, &[hidden, 10]), seed, 1.0);
        let sweep = || spiking_accuracy_sweep(&net, &samples, &cfg);
        prop_assert_eq!(
            format!("{:?}", sweep()), format!("{:?}", sweep()),
            "same-seed sweep reports must render identically"
        );
    }

    /// Spiking IF rate tracks drive/threshold for constant input.
    #[test]
    fn if_rate_tracks_drive(drive in 0.01f32..0.99) {
        let mut m = Membrane::new();
        let steps = 4000u32;
        let mut fired = 0u32;
        for _ in 0..steps {
            if m.step(drive, 1.0) {
                fired += 1;
            }
        }
        let rate = fired as f64 / steps as f64;
        prop_assert!((rate - drive as f64).abs() < 0.02, "rate {rate} vs drive {drive}");
    }

    /// The word-masked window operations agree with a scalar per-bit
    /// reference for arbitrary vectors and window alignments, including
    /// windows that start past the end or hang over it.
    #[test]
    fn spike_window_ops_match_scalar_reference(
        bits in proptest::collection::vec(any::<bool>(), 1..300),
        start in 0usize..350,
        width in 0usize..200,
    ) {
        use resparc_suite::resparc_neuro::spike::SpikeVector;

        let mut v = SpikeVector::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        let end = (start + width).min(bits.len());
        let naive: u64 = if start >= end {
            0
        } else {
            bits[start..end].iter().filter(|&&b| b).count() as u64
        };
        prop_assert_eq!(v.window_count_ones(start, width), naive);
        prop_assert_eq!(v.window_is_zero(start, width), naive == 0);
        // The borrowed view answers identically.
        prop_assert_eq!(v.view().window_count_ones(start, width), naive);
        prop_assert_eq!(v.view().window_is_zero(start, width), naive == 0);
    }

    /// The PR-4/PR-6 admission invariants extended to heterogeneous
    /// inventories: on a pool of mixed MCA size classes (with an
    /// optional failed cell), every resident occupies an in-bounds,
    /// disjoint, *class-uniform* run of healthy NCs whose mapping was
    /// produced for exactly that class, a capacity rejection really
    /// means no size class can host the request, and evicting every
    /// tenant restores the pristine occupancy.
    #[test]
    fn heterogeneous_pool_admission_invariants(
        nc_sizes in proptest::collection::vec(
            prop_oneof![Just(32usize), Just(64), Just(128)], 4..12),
        hiddens in proptest::collection::vec(8usize..260, 1..7),
        inputs in 16usize..200,
        fault_nc in 0usize..12,
        evict_first in proptest::prelude::any::<bool>(),
    ) {
        use resparc_suite::resparc_core::fabric::{AdmitError, FabricPool, NcHealth};

        let mut pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &nc_sizes);
        if fault_nc < nc_sizes.len() {
            pool.fail_nc(fault_nc);
        }
        let pristine = pool.occupancy().to_vec();
        prop_assert!(pristine.iter().all(|s| s.is_none()));

        let mut admitted = Vec::new();
        for (k, &h) in hiddens.iter().enumerate() {
            let t = Topology::mlp(inputs, &[h, 10]);
            match pool.admit_topology(&t, &format!("t{k}")) {
                Ok(id) => admitted.push(id),
                Err(AdmitError::CapacityExhausted { needed_ncs, free_ncs, largest_free_run }) => {
                    // Size-aware counts: the error reports the best
                    // class's footprint and free space, and class-bound
                    // runs can never exceed the pool-wide maximum run.
                    prop_assert!(needed_ncs > largest_free_run);
                    prop_assert!(largest_free_run <= free_ncs);
                    prop_assert!(largest_free_run <= pool.largest_free_run());
                    // Rejection is honest: no size class can host it.
                    for &c in &pool.size_classes() {
                        if let Ok(m) = Mapper::new(pool.class_config(c)).map(&t) {
                            prop_assert!(
                                !pool.can_admit_sized(m.placement.ncs_used.max(1), c),
                                "rejected request would fit class {c}"
                            );
                        }
                    }
                }
                Err(AdmitError::NoHealthyCapacity { .. }) => {}
                Err(e) => prop_assert!(false, "unexpected admit error: {e}"),
            }
        }

        // Every resident: in-bounds disjoint run, all cells healthy and
        // of the one class its mapping was partitioned for, spans
        // inside the run.
        let mut owned = 0usize;
        for tenant in pool.tenants() {
            prop_assert!(tenant.end_nc() <= pool.physical_ncs(), "tenant out of bounds");
            let class = tenant.mapping.config.mca_size;
            prop_assert!(pool.size_classes().contains(&class));
            for nc in tenant.first_nc()..tenant.end_nc() {
                prop_assert_eq!(pool.occupancy()[nc], Some(tenant.id), "NC {nc} over-committed");
                prop_assert_eq!(pool.nc_sizes()[nc], class, "NC {nc} wrong size class");
                prop_assert_eq!(pool.nc_health()[nc], NcHealth::Healthy, "occupied NC {nc} sick");
            }
            let cfg_c = pool.class_config(class);
            let origin_mpe = tenant.first_nc() * cfg_c.mpes_per_nc();
            let end_mpe = tenant.end_nc() * cfg_c.mpes_per_nc();
            for span in &tenant.mapping.placement.layers {
                prop_assert!(span.first_mpe >= origin_mpe && span.end_mpe <= end_mpe);
            }
            owned += tenant.nc_count();
        }
        prop_assert_eq!(owned, pool.occupied_ncs());
        prop_assert!(owned <= pool.physical_ncs(), "pool over NC capacity");

        if evict_first {
            admitted.reverse();
        }
        for id in admitted {
            prop_assert!(pool.evict(id).is_some());
        }
        prop_assert_eq!(pool.occupancy(), &pristine[..]);
        let failed = pool.nc_health().iter().filter(|h| **h == NcHealth::Failed).count();
        prop_assert_eq!(pool.free_ncs() + failed, pool.physical_ncs());
    }

    /// The optimizing placer's oracle contract, on arbitrary
    /// heterogeneous pools and identical churn schedules: after the
    /// same admit/evict fragmentation prefix, `Optimized` batch
    /// placement admits at least as many tenants as `Greedy`, never
    /// does worse on the (admitted, bus trips, fragments) key, and
    /// both resulting pools satisfy the capacity / disjointness /
    /// class-uniformity / health invariants.
    #[test]
    fn optimized_batch_placement_never_loses_to_greedy(
        nc_sizes in proptest::collection::vec(prop_oneof![Just(32usize), Just(64)], 4..10),
        prefix in proptest::collection::vec(
            (1usize..4, proptest::prelude::any::<bool>()), 0..5),
        batch_layers in proptest::collection::vec(1usize..4, 1..5),
    ) {
        use resparc_suite::resparc_core::fabric::{FabricPool, NcHealth};

        // One churn prefix, shared by both strategies.
        let pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &nc_sizes);
        let (pool, requests) = churned_batch(pool, &prefix, &batch_layers);

        let greedy = PlacementStrategy::Greedy.place(&pool, &requests);
        let optimized = PlacementStrategy::Optimized.place(&pool, &requests);

        // Oracle contract: the search never loses to its greedy seed.
        prop_assert!(
            optimized.admitted_count() >= greedy.admitted_count(),
            "optimized admitted {} < greedy {}",
            optimized.admitted_count(),
            greedy.admitted_count()
        );
        if optimized.admitted_count() == greedy.admitted_count() {
            prop_assert!(optimized.bus_trips <= greedy.bus_trips);
            if optimized.bus_trips == greedy.bus_trips {
                prop_assert!(optimized.fragments <= greedy.fragments);
            }
        }

        // Both placements obey the heterogeneous pool invariants.
        for placed in [&greedy.pool, &optimized.pool] {
            let mut owned = 0usize;
            for tenant in placed.tenants() {
                prop_assert!(tenant.end_nc() <= placed.physical_ncs());
                let class = tenant.mapping.config.mca_size;
                for nc in tenant.first_nc()..tenant.end_nc() {
                    prop_assert_eq!(placed.occupancy()[nc], Some(tenant.id));
                    prop_assert_eq!(placed.nc_sizes()[nc], class);
                    prop_assert_eq!(placed.nc_health()[nc], NcHealth::Healthy);
                }
                owned += tenant.nc_count();
            }
            prop_assert_eq!(owned, placed.occupied_ncs());
        }
    }
}

proptest! {
    // Brute force admits each batch n!·Πclasses times over, so this
    // block draws fewer cases than the replay contract below.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Optimized` placement is exact: its (admitted, bus trips,
    /// fragments) key is the best over every admission order × class
    /// rotation, enumerated through the public probe/admit API, for up
    /// to five requests under every packing policy. Inventories are
    /// block-shaped, all 64-cells then all 32-cells as in `fig_packing`'s
    /// mixed shape; about half lose one cell, which can split a class into
    /// two segments, and a churn prefix punches holes first.
    #[test]
    fn optimized_placement_matches_brute_force_enumeration(
        cells in (2usize..7, 2usize..5),
        dead in 0usize..14,
        policy in prop_oneof![
            Just(PackingPolicy::FirstFit),
            Just(PackingPolicy::BestFit),
            Just(PackingPolicy::Defragment),
        ],
        prefix in proptest::collection::vec((1usize..4, any::<bool>()), 0..5),
        batch_layers in proptest::collection::vec(1usize..4, 1..6),
    ) {
        let mut nc_sizes = vec![64usize; cells.0];
        nc_sizes.resize(cells.0 + cells.1, 32);
        let mut pool = FabricPool::heterogeneous(ResparcConfig::resparc_64(), &nc_sizes)
            .with_policy(policy);
        if dead < nc_sizes.len() {
            pool.fail_nc(dead);
        }
        let (pool, requests) = churned_batch(pool, &prefix, &batch_layers);

        let placed = PlacementStrategy::Optimized.place(&pool, &requests);
        let key = (placed.admitted_count(), Reverse(placed.bus_trips), Reverse(placed.fragments));
        let every = (0..requests.len()).collect::<Vec<_>>();
        prop_assert_eq!(key, brute_force_placement_key(&pool, &requests, &every, &[]));
    }
}

proptest! {
    // Only a few MCA size × packet width pairs make windows straddle two
    // trace words, so the plan/reference contract draws more cases.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The replay-engine contract end to end: the compiled word-level plan
    /// engine reproduces the scalar reference engine bit for bit — the
    /// dedicated [`EventReport`], and the weighted multi-tenant
    /// [`SharedReport`] interleaved from a reference replay against
    /// `run_weighted`, which replays on the plan engine — on random MLP
    /// and small conv/pool networks, MCA sizes, packet widths (windows
    /// that straddle two words, and windows wider than 64) and
    /// event-driven settings. The shapes cover the tile classes the plan
    /// engine counts once: dense grid tiling with and without input
    /// sharing (unshared tiles repeat their window, the last column group
    /// fewer times), full and banded conv channel tables, and conv runs of
    /// up to 39 maps, which span several identical tiles at MCA 24 and 32.
    /// Each trace chains TTFS, bursty-head, silent and regular-rate
    /// segments, so one trace mixes silent, sparse and dense steps; traces
    /// come from clean and stuck-at-faulted kernels alike, and an
    /// all-silent trace is replayed too.
    #[test]
    fn plan_replay_engine_is_bit_identical_to_reference(
        conv in any::<bool>(),
        hidden in 8usize..150,
        inputs in 16usize..200,
        side in 4usize..13,
        channels in 1usize..4,
        maps in 1usize..40,
        banded in any::<bool>(),
        same_padding in any::<bool>(),
        input_sharing in any::<bool>(),
        segments in proptest::collection::vec((0u8..4, 1usize..6, 0u32..256), 1..4),
        rate in 0.0f32..1.0,
        mca in prop_oneof![Just(24usize), Just(32), Just(64), Just(100), Just(128)],
        packet_bits in prop_oneof![Just(8u32), Just(24), Just(64), Just(100), Just(128)],
        event_driven in any::<bool>(),
        fault_fraction in 0.0f64..0.3,
        weight in 1u32..8,
        seed in 0u64..1_000_000,
    ) {
        use resparc_suite::resparc_core::sim::event::{EventSimulator, ReplayEngine};
        use resparc_suite::resparc_neuro::network::SnnRunner;
        use resparc_suite::resparc_neuro::trace::SpikeTrace;

        let topology = if conv {
            let padding = if same_padding { Padding::Same } else { Padding::Valid };
            let table = if banded { ChannelTable::Banded { fan: 2 } } else { ChannelTable::Full };
            Topology::builder(Shape::new(side, side, channels))
                .conv(maps, 3, padding, table)
                .pool(2)
                .dense(10)
                .build()
                .expect("consistent")
        } else {
            Topology::mlp(inputs, &[hidden, 10])
        };
        let n_in = topology.input_count();
        let net = Network::random(topology, seed, 1.0);
        let mut raster = SpikeRaster::new(n_in);
        for &(kind, len, lit_words) in &segments {
            // Light a random subset of the (at most eight) input words, so
            // silent words sit next to spiking ones.
            let stimulus: Vec<f32> = (0..n_in)
                .map(|i| {
                    let lit = (lit_words >> (i / 64)) & 1 == 1;
                    if lit { rate * ((i % 5) as f32 / 4.0) } else { 0.0 }
                })
                .collect();
            let segment = match kind {
                0 => TtfsEncoder::new().encode(&stimulus, len),
                1 => {
                    // Dense head, silent tail.
                    let head = len.div_ceil(4);
                    let mut burst = RegularEncoder::new(1.0).encode(&stimulus, head);
                    for _ in head..len {
                        burst.push(SpikeVector::new(n_in));
                    }
                    burst
                }
                2 => SpikeRaster::zeroed(n_in, len),
                _ => RegularEncoder::new(1.0).encode(&stimulus, len),
            };
            for step in segment.iter() {
                raster.push_view(step);
            }
        }
        // Replay a trace from the faulted kernels too: fault plans only
        // change *what* the trace records, never how it is counted.
        let faulted = net.compiled().with_faults(&FaultPlan::stuck_at(seed, fault_fraction));
        let (_, trace) = SnnRunner::from_compiled(std::sync::Arc::new(faulted)).run_traced(&raster);
        let boundaries: Vec<usize> =
            (0..trace.boundary_count()).map(|b| trace.boundary(b).neurons()).collect();
        let silent = SpikeTrace::silent(&boundaries, trace.steps());

        let mut cfg = ResparcConfig::with_mca_size(mca).with_event_driven(event_driven);
        cfg.packet_bits = packet_bits;
        let mapper = Mapper::new(cfg.clone());
        let mapper = if input_sharing { mapper } else { mapper.without_input_sharing() };
        let mapping = mapper.map_network(&net).expect("small networks map");
        for (name, trace) in [("mixed", &trace), ("silent", &silent)] {
            let reference = EventSimulator::with_engine(&mapping, ReplayEngine::Reference).run(trace);
            let plan = EventSimulator::with_engine(&mapping, ReplayEngine::Plan).run(trace);
            prop_assert_eq!(&reference, &plan, "{} trace: dedicated EventReport must be bit-identical", name);
        }

        let mut pool = FabricPool::new(cfg);
        let id = pool.admit(&net, "t").expect("one small tenant fits");
        let sim = SharedEventSimulator::new(&pool);
        let resident = &pool.tenant(id).expect("admitted").mapping;
        let reference = EventSimulator::with_engine(resident, ReplayEngine::Reference).replay(&trace);
        let shared_ref = sim.interleave(&[(id, &reference)], &[weight]);
        let shared_plan = sim.run_weighted(&[(id, &trace)], &[weight]);
        prop_assert_eq!(&shared_ref, &shared_plan, "weighted SharedReport must be bit-identical");
    }
}

/// A well-formed conv or pool layer from generated parameters: an
/// `input` of (height, width, channels), with channels possibly 0;
/// `conv` = (maps, kernel, stride, Same padding). A conv reads a full
/// channel table, or a banded one of `fan` maps (0 included) that wraps
/// around the input maps; a `Valid` kernel and a pool window are clipped
/// to fit the input.
fn spatial_spec(
    pool: bool,
    input: (usize, usize, usize),
    conv: (usize, usize, usize, bool),
    banded: bool,
    fan: usize,
) -> LayerSpec {
    let (height, width, channels) = input;
    let (maps, kernel, stride, same) = conv;
    let input = Shape::new(height, width, channels);
    let fitted = kernel.min(height).min(width);
    if pool {
        return LayerSpec::AvgPool {
            input,
            window: fitted,
        };
    }
    LayerSpec::Conv2d {
        input,
        maps,
        kernel: if same { kernel } else { fitted },
        stride,
        padding: if same { Padding::Same } else { Padding::Valid },
        table: if banded {
            ChannelTable::Banded { fan }
        } else {
            ChannelTable::Full
        },
    }
}

/// Weyl-sequence splitmix64: the draw source of the kernel bit-order test.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A weight or current drawn from `code`, signed by its low bit: ±0.0, a
/// subnormal, ±1e30 (two such rows cancel to within rounding of the
/// rest) or an ordinary value below 1e3 in magnitude, at one of seven
/// decimal scales.
fn edge_weight(code: u64) -> f32 {
    let sign = if code & 1 == 0 { 1.0 } else { -1.0 };
    let body = code >> 3;
    sign * match (code >> 1) % 4 {
        0 => 0.0,
        1 => f32::from_bits(1 + (body % 0x7f_ffff) as u32),
        2 => 1e30,
        _ => (body % 1_000_000) as f32 / 1e6 * 10f32.powi((body % 7) as i32 - 3),
    }
}

/// An MLP of `layers` 576-wide hidden layers on 144 inputs: 1, 2 and 4
/// NeuroCells on RESPARC-64 for 1, 2 and 3 layers.
fn sized_mlp(layers: usize) -> Topology {
    let mut hidden = vec![576usize; layers];
    hidden.push(10);
    Topology::mlp(144, &hidden)
}

/// `pool` after a churn prefix, which admits each entry's `sized_mlp`
/// that fits and then evicts those flagged `false` to carve holes, plus
/// a request for each batch entry that some class of the pool can map.
fn churned_batch(
    mut pool: FabricPool,
    prefix: &[(usize, bool)],
    batch_layers: &[usize],
) -> (FabricPool, Vec<PlacementRequest>) {
    let evictions: Vec<TenantId> = prefix
        .iter()
        .enumerate()
        .filter_map(|(k, &(layers, keep))| {
            let id = pool
                .admit_topology(&sized_mlp(layers), &format!("r{k}"))
                .ok()?;
            (!keep).then_some(id)
        })
        .collect();
    for id in evictions {
        pool.evict(id);
    }
    let requests = batch_layers
        .iter()
        .enumerate()
        .filter_map(|(k, &layers)| {
            PlacementRequest::from_topology(&pool, &sized_mlp(layers), &format!("b{k}")).ok()
        })
        .collect();
    (pool, requests)
}

/// The best (admitted, bus trips, fragments) key, bigger is better, over
/// every admission order × class rotation of the requests `left` on
/// `pool`, where `ids` holds the batch tenants admitted so far. A
/// schedule admits the requests in its order, each at the first class
/// with room from its rotation on.
fn brute_force_placement_key(
    pool: &FabricPool,
    requests: &[PlacementRequest],
    left: &[usize],
    ids: &[TenantId],
) -> (usize, Reverse<usize>, Reverse<usize>) {
    if left.is_empty() {
        let bus_trips = ids
            .iter()
            .map(|&id| {
                let p = &pool.tenant(id).unwrap().mapping.placement;
                (0..p.layers.len())
                    .filter(|&l| p.boundary_crosses_nc(l))
                    .count()
            })
            .sum();
        return (
            ids.len(),
            Reverse(bus_trips),
            Reverse(pool.free_fragments()),
        );
    }
    let mut best = (0, Reverse(usize::MAX), Reverse(usize::MAX));
    for (k, &r) in left.iter().enumerate() {
        let rest = [&left[..k], &left[k + 1..]].concat();
        let probes = requests[r].probes();
        for shift in 0..probes.len() {
            let (mut placed, mut ids) = (pool.clone(), ids.to_vec());
            let fit = (0..probes.len())
                .map(|j| &probes[(shift + j) % probes.len()])
                .find(|p| placed.can_admit_sized(p.placement.ncs_used.max(1), p.config.mca_size));
            ids.extend(fit.map(|p| placed.admit_mapped(p.clone(), &requests[r].name).unwrap()));
            best = best.max(brute_force_placement_key(&placed, requests, &rest, &ids));
        }
    }
    best
}
