//! The benchmark's workloads. Each builds its inputs from the run's seed,
//! runs one operation at a time through the library's public entry
//! points, checks every output, and can run the same operation traced:
//! split into the calls of each layer, each timed as a span.
//!
//! Three layers are timed on every workload, one span per call:
//!
//! * `map` — the mapper (`Mapper::map*`: connectivity, partition, place);
//! * `activity` — producing one stimulus's spike activity: encoding plus
//!   trace capture on the compiled kernels (sizing: the benchmark's
//!   activity-profile measurement, which encodes probe stimuli);
//! * `fabric` — one run of a fabric model: a trace replay (sweeps), the
//!   scheduling and replay loop of a serving run, or the stationary
//!   RESPARC and CMOS simulators (sizing).

use std::hint::black_box;

use resparc_suite::compare::{compare_benchmark, compare_with_profile, Comparison};
use resparc_suite::prelude::*;
use resparc_suite::resparc_workloads::{cnn_benchmarks, mlp_benchmarks};

use crate::spans::Spans;

/// Timesteps per stimulus presentation.
const STEPS: usize = 20;
/// Packet widths measured into every activity profile (as the figures use).
const WIDTHS: [u32; 4] = [16, 32, 64, 128];

/// The `i`-th output of a splitmix64 stream seeded with `seed`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn positive(e: Energy) -> bool {
    let pj = e.picojoules();
    pj.is_finite() && pj > 0.0
}

fn tiles(mapping: &Mapping) -> f64 {
    mapping
        .partitions
        .iter()
        .map(|p| p.tile_count())
        .sum::<usize>() as f64
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// What one operation returns.
    type Output;

    /// Distinct operation inputs; a run makes whole passes over them.
    fn inputs(&self) -> usize;

    /// Runs the operation on input `i` through the library's public entry
    /// point.
    fn run(&self, i: usize) -> Self::Output;

    /// Checks the output for input `i`.
    fn check(&self, i: usize, out: &Self::Output) -> Result<(), String>;

    /// Runs the operation on input `i` split into the calls of each layer,
    /// timed as spans, and checks what it computed.
    fn run_traced(&self, i: usize, spans: &mut Spans) -> Result<(), String>;

    /// Checks the operation on input 0 against the library's oracles.
    fn verify(&self) -> Result<(), String>;
}

// ---------------------------------------------------------------------
// serving
// ---------------------------------------------------------------------

/// Arrivals per serving run.
const SERVING_REQUESTS: usize = 72;
/// Distinct arrival schedules (operation inputs).
const SERVING_RUNS: usize = 24;
/// Distinct stimulus samples per class (the serving spec's default).
const SERVING_SAMPLES: usize = 3;

/// Open-loop serving runs: three classes of 2/1/4-NeuroCell MLPs at 4:2:1
/// bus weights under bursty arrivals, with the SLO-adaptive controller and
/// preemption on. Each operation is one `serving_sweep` with its own
/// arrival seed.
pub struct Serving {
    nets: Vec<Network>,
    classes: Vec<ServiceClass>,
    pool: ResparcConfig,
    sweep: SweepConfig,
    seed: u64,
}

impl Serving {
    pub fn setup(seed: u64) -> Self {
        let topologies = [
            Topology::mlp(144, &[576, 576, 10]),
            Topology::mlp(144, &[96, 10]),
            Topology::mlp(144, &[576, 576, 576, 10]),
        ];
        let nets: Vec<Network> = topologies
            .into_iter()
            .enumerate()
            .map(|(k, t)| Network::random(t, mix(seed, k as u64), 1.0))
            .collect();
        for net in &nets {
            black_box(net.compiled());
        }
        Self {
            nets,
            classes: vec![
                ServiceClass::new("premium", 2, 35_000.0).with_weight(4),
                ServiceClass::new("standard", 3, 250_000.0).with_weight(2),
                ServiceClass::new("bulk", 4, 1_000_000.0),
            ],
            pool: ResparcConfig::resparc_64(),
            sweep: SweepConfig::rate(STEPS, 0.7, mix(seed, 100)),
            seed,
        }
    }

    fn spec(&self, i: usize) -> ServingSpec {
        ServingSpec::new(
            SERVING_REQUESTS,
            3_000.0,
            ArrivalProcess::Bursty { burst: 6 },
            mix(self.seed, 1_000 + i as u64),
        )
        .with_qos(QosPolicy::Adaptive { max_weight: 64 })
        .with_preemption(8.0)
    }

    fn serve(&self, spec: &ServingSpec) -> Result<ServingReport, AdmitError> {
        serving_sweep(
            &self.nets,
            &self.classes,
            spec,
            &self.sweep,
            &self.pool,
            PackingPolicy::FirstFit,
        )
    }
}

impl Workload for Serving {
    type Output = Result<ServingReport, AdmitError>;

    fn inputs(&self) -> usize {
        SERVING_RUNS
    }

    fn run(&self, i: usize) -> Self::Output {
        self.serve(&self.spec(i))
    }

    fn check(&self, _i: usize, out: &Self::Output) -> Result<(), String> {
        let r = out
            .as_ref()
            .map_err(|e| format!("serving run refused: {e}"))?;
        ensure(r.arrivals == SERVING_REQUESTS, || {
            format!("{} arrivals, expected {SERVING_REQUESTS}", r.arrivals)
        })?;
        ensure(r.outcomes.len() == r.arrivals, || {
            "one outcome per arrival".into()
        })?;
        ensure(r.completed + r.rejected + r.preempted == r.arrivals, || {
            "completed + rejected + preempted != arrivals".into()
        })?;
        ensure(
            r.classes.iter().map(|c| c.arrivals).sum::<usize>() == r.arrivals,
            || "class arrivals do not sum to the total".into(),
        )?;
        ensure(r.completed > 0 && r.rounds > 0, || {
            "no request completed".into()
        })?;
        ensure(r.p50 <= r.p95 && r.p95 <= r.p99, || {
            "latency percentiles out of order".into()
        })?;
        ensure(r.busy_time <= r.makespan, || {
            "busy time exceeds makespan".into()
        })?;
        ensure(
            positive(r.pool_energy()) && r.pool_energy() <= r.ungated_pool_energy(),
            || "gated bill not positive or above the ungated bill".into(),
        )
    }

    fn run_traced(&self, i: usize, spans: &mut Spans) -> Result<(), String> {
        // The preparation `serving_sweep` does before its loop, as the same
        // library calls: map each class, then trace each (class, sample).
        let mapper = Mapper::new(self.pool.clone());
        for net in &self.nets {
            let probe = spans
                .time("map", || mapper.map_network(net))
                .map_err(|e| format!("class does not map: {e}"))?;
            spans.count("tiles", tiles(&probe));
        }
        for (c, net) in self.nets.iter().enumerate() {
            for j in 0..SERVING_SAMPLES {
                let stimulus: Vec<f32> = (0..net.input_count())
                    .map(|x| ((x * 31 + j * 7 + c) % 10) as f32 / 10.0)
                    .collect();
                let trace = spans.time("activity", || {
                    let raster = self.sweep.encode_sample(j, &stimulus);
                    SnnRunner::from_compiled(net.compiled())
                        .run_traced(&raster)
                        .1
                });
                spans.count("spikes", trace.total_spikes() as f64);
            }
        }
        let report = spans.time("serve", || self.run(i));
        // The loop's self time: the whole run less its preparation.
        let loop_time = spans
            .op_total("serve")
            .saturating_sub(spans.op_total("map") + spans.op_total("activity"));
        spans.derive("fabric", loop_time);
        if let Ok(r) = &report {
            spans.count("rounds", r.rounds as f64);
        }
        self.check(i, &report)
    }

    fn verify(&self) -> Result<(), String> {
        let spec = self.spec(0);
        let plan = self.serve(&spec);
        self.check(0, &plan)?;
        let again = self.serve(&spec);
        ensure(plan == again, || "serving run is not deterministic".into())?;
        let reference = self.serve(&spec.clone().with_replay_engine(ReplayEngine::Reference));
        ensure(plan == reference, || {
            "plan and reference replay engines disagree on a serving run".into()
        })
    }
}

// ---------------------------------------------------------------------
// dense / sparse trace sweeps
// ---------------------------------------------------------------------

/// Stimuli per sweep.
const SWEEP_BATCH: usize = 16;
/// Distinct stimulus batches (operation inputs).
const SWEEP_BATCHES: usize = 32;
/// Peak per-step spike probability of rate coding (TTFS ignores it).
const SWEEP_PEAK_RATE: f64 = 0.8;

/// Trace-driven energy sweeps on the paper's MNIST MLP (784-800-800-768-10,
/// random weights) mapped on RESPARC-64: each operation encodes, traces
/// and replays one batch of synthetic MNIST stimuli.
pub struct Sweep {
    net: Network,
    mapping: Mapping,
    batches: Vec<Vec<(Vec<f32>, usize)>>,
    encoding: Encoding,
    seed: u64,
}

impl Sweep {
    pub fn setup(seed: u64, encoding: Encoding, spans: &mut Spans) -> Result<Self, String> {
        let net = Network::random(
            resparc_suite::resparc_workloads::mnist_mlp().topology,
            mix(seed, 0),
            1.0,
        );
        black_box(net.compiled());
        let mapper = Mapper::new(ResparcConfig::resparc_64().with_timesteps(STEPS as u32));
        let mapping = spans
            .time("map", || mapper.map_network(&net))
            .map_err(|e| format!("MNIST-MLP does not map: {e}"))?;
        spans.count("tiles", tiles(&mapping));
        black_box(mapping.replay_plan());
        let images = DatasetKind::Mnist
            .generator(mix(seed, 1))
            .labelled_set(SWEEP_BATCH * SWEEP_BATCHES, 0);
        let batches = images.chunks(SWEEP_BATCH).map(<[_]>::to_vec).collect();
        Ok(Self {
            net,
            mapping,
            batches,
            encoding,
            seed,
        })
    }

    fn config(&self, i: usize) -> SweepConfig {
        SweepConfig::rate(STEPS, SWEEP_PEAK_RATE, mix(self.seed, 1_000 + i as u64))
            .with_encoding(self.encoding)
    }

    /// The sweep's per-sample work as separate calls: encode and capture,
    /// then replay on `engine`. Returns (prediction, energy) per sample.
    fn per_sample(
        &self,
        i: usize,
        engine: ReplayEngine,
        spans: &mut Spans,
    ) -> Vec<(usize, Energy)> {
        let cfg = self.config(i);
        let kernels = self.net.compiled();
        self.batches[i]
            .iter()
            .enumerate()
            .map(|(k, (x, _))| {
                let (outcome, trace) = spans.time("activity", || {
                    let raster = cfg.encode_sample(k, x);
                    SnnRunner::from_compiled(kernels.clone()).run_traced(&raster)
                });
                let report = spans.time("fabric", || {
                    EventSimulator::with_engine(&self.mapping, engine).run(&trace)
                });
                spans.count("spikes", trace.total_spikes() as f64);
                let windows: u64 = report.layers.iter().map(|l| l.candidate_packets).sum();
                let delivered: u64 = report.layers.iter().map(|l| l.packets_delivered).sum();
                spans.count("windows", windows as f64);
                spans.count("delivered", delivered as f64);
                (outcome.decode(cfg.readout()), report.total_energy())
            })
            .collect()
    }
}

impl Workload for Sweep {
    type Output = TraceEnergyReport;

    fn inputs(&self) -> usize {
        self.batches.len()
    }

    fn run(&self, i: usize) -> Self::Output {
        trace_energy_sweep(&self.net, &self.mapping, &self.batches[i], &self.config(i))
    }

    fn check(&self, _i: usize, r: &Self::Output) -> Result<(), String> {
        ensure(
            r.total == SWEEP_BATCH && r.predictions.len() == SWEEP_BATCH,
            || format!("{} samples swept, expected {SWEEP_BATCH}", r.total),
        )?;
        ensure(r.predictions.iter().all(|&p| p < CLASSES), || {
            "prediction outside the class range".into()
        })?;
        ensure(r.per_sample_energy.iter().copied().all(positive), || {
            "per-sample energy not positive".into()
        })?;
        ensure(r.mean_latency.nanoseconds() > 0.0, || {
            "zero mean latency".into()
        })
    }

    fn run_traced(&self, i: usize, spans: &mut Spans) -> Result<(), String> {
        let samples = self.per_sample(i, ReplayEngine::default(), spans);
        ensure(samples.len() == SWEEP_BATCH, || "short batch".into())?;
        ensure(
            samples.iter().all(|&(p, e)| p < CLASSES && positive(e)),
            || "traced sample out of range".into(),
        )
    }

    fn verify(&self) -> Result<(), String> {
        let lib = self.run(0);
        self.check(0, &lib)?;
        // The same sweep as separate calls on the scalar reference replay
        // engine must match the library sweep bit for bit.
        let reference = self.per_sample(0, ReplayEngine::Reference, &mut Spans::off());
        let lib_pairs: Vec<(usize, Energy)> = lib
            .predictions
            .iter()
            .copied()
            .zip(lib.per_sample_energy.iter().copied())
            .collect();
        ensure(reference == lib_pairs, || {
            "reference replay disagrees with the library sweep".into()
        })
    }
}

// ---------------------------------------------------------------------
// sizing (Fig. 12)
// ---------------------------------------------------------------------

/// MCA sizes of the Fig. 12 sweep.
const MCA_SIZES: [usize; 3] = [32, 64, 128];

/// The Fig. 12 sizing sweep: the six Fig. 10 benchmarks (MLP group, then
/// CNN group) at MCA sizes 32/64/128. Set-up measures each benchmark's
/// activity profile once; each operation is one point: the benchmark
/// mapped at that size and priced by the RESPARC and CMOS simulators.
pub struct Sizing {
    benches: Vec<(Benchmark, ActivityProfile)>,
    /// (index into `benches`, MCA size), in figure order.
    points: Vec<(usize, usize)>,
    seed: u64,
}

impl Sizing {
    pub fn setup(seed: u64, spans: &mut Spans) -> Self {
        let benches: Vec<(Benchmark, ActivityProfile)> = mlp_benchmarks()
            .into_iter()
            .chain(cnn_benchmarks())
            .enumerate()
            .map(|(k, b)| {
                let profile = spans.time("activity", || {
                    b.activity_profile(&WIDTHS, mix(seed, k as u64))
                });
                (b, profile)
            })
            .collect();
        let points = (0..benches.len())
            .flat_map(|k| MCA_SIZES.map(|mca| (k, mca)))
            .collect();
        Self {
            benches,
            points,
            seed,
        }
    }

    fn point(&self, i: usize) -> (&Benchmark, &ActivityProfile, ResparcConfig) {
        let (k, mca) = self.points[i];
        let (bench, profile) = &self.benches[k];
        let cfg = ResparcConfig::with_mca_size(mca).with_event_driven(true);
        (bench, profile, cfg)
    }

    fn check_point(
        &self,
        i: usize,
        mapping: &Mapping,
        resparc: &ExecutionReport,
        cmos: &CmosReport,
    ) -> Result<(), String> {
        let (bench, _, cfg) = self.point(i);
        let name = format!("{} @ {}", bench.name, cfg.mca_size);
        let utilization = mapping.overall_utilization();
        ensure(utilization > 0.0 && utilization <= 1.0, || {
            format!("{name}: utilization {utilization} outside (0, 1]")
        })?;
        let total = resparc.total_energy();
        ensure(positive(total) && positive(cmos.total_energy()), || {
            format!("{name}: energy not positive")
        })?;
        let groups: f64 = resparc
            .energy
            .resparc_groups()
            .iter()
            .map(|(_, e)| e.picojoules())
            .sum();
        ensure(
            (groups - total.picojoules()).abs() <= 1e-9 * total.picojoules(),
            || format!("{name}: breakdown groups do not sum to the total"),
        )?;
        ensure(
            cmos.total_energy() > total && cmos.latency > resparc.latency,
            || format!("{name}: RESPARC does not beat the CMOS baseline"),
        )
    }
}

impl Workload for Sizing {
    type Output = Result<Comparison, MapError>;

    fn inputs(&self) -> usize {
        self.points.len()
    }

    fn run(&self, i: usize) -> Self::Output {
        let (bench, profile, cfg) = self.point(i);
        compare_with_profile(bench, profile, &cfg, &CmosConfig::paper_baseline())
    }

    fn check(&self, i: usize, out: &Self::Output) -> Result<(), String> {
        let cmp = out.as_ref().map_err(|e| format!("mapping failed: {e}"))?;
        self.check_point(i, &cmp.mapping, &cmp.resparc, &cmp.cmos)
    }

    fn run_traced(&self, i: usize, spans: &mut Spans) -> Result<(), String> {
        let (bench, profile, cfg) = self.point(i);
        let mapping = spans
            .time("map", || Mapper::new(cfg).map(&bench.topology))
            .map_err(|e| format!("mapping failed: {e}"))?;
        spans.count("tiles", tiles(&mapping));
        let (resparc, cmos) = spans.time("fabric", || {
            (
                Simulator::new(&mapping).run(profile),
                CmosSimulator::new(CmosConfig::paper_baseline()).run(&bench.topology, profile),
            )
        });
        self.check_point(i, &mapping, &resparc, &cmos)
    }

    fn verify(&self) -> Result<(), String> {
        let op = self.run(0);
        self.check(0, &op)?;
        let op = op.map_err(|e| e.to_string())?;
        // The figure measures the profile inside every point; measuring it
        // once in set-up must price the point identically.
        let (bench, _, cfg) = self.point(0);
        let figure = compare_benchmark(
            bench,
            &cfg,
            &CmosConfig::paper_baseline(),
            mix(self.seed, 0),
        )
        .map_err(|e| e.to_string())?;
        ensure(
            figure.resparc == op.resparc && figure.cmos.energy == op.cmos.energy,
            || "set-up profile prices the point differently from compare_benchmark".into(),
        )
    }
}
