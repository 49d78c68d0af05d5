//! End-to-end and per-layer benchmark of the RESPARC reproduction.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path resbench/Cargo.toml -- \
//!     --workload serving --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads (closed loop: one operation at a time, back to back):
//!
//! * `serving` — one open-loop serving run per operation;
//! * `dense` — one rate-coded trace-driven energy sweep per operation;
//! * `sparse` — the same sweep under time-to-first-spike coding;
//! * `sizing` — one Fig. 12 point (benchmark × MCA size) per operation.
//!
//! Inputs come from `--seed` alone: each workload builds a fixed list of
//! operation inputs. Set-up runs [`SETUP_REPS`] times; operation 0 is
//! then checked against the library's oracles; then whole passes over the
//! input list run until `--seconds` have passed, and every output is
//! checked.
//!
//! Host speed on a shared virtual machine drifts by tens of percent over
//! seconds, and a second virtual CPU can vanish for whole seconds, which
//! doubles the time of any operation split across two threads. So the
//! process pins itself to one CPU before it starts a thread (the
//! library's parallel sweeps then run serially), and each input keeps its
//! fastest time over the run's passes, which lie seconds apart.
//!
//! The last line of stdout is one JSON object. With `--trace 0` it holds
//! the end-to-end metrics: the median over inputs of those times, their
//! sum (one pass over every input), and the median set-up time. With
//! `--trace 1` the operations run split into the calls of each layer,
//! timed as spans, and it holds the per-layer metrics; the spans are
//! written to `.resbench/<workload>-seed<seed>.jsonl`.

mod spans;
mod workloads;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use resparc_suite::prelude::Encoding;

use spans::Spans;
use workloads::{Serving, Sizing, Sweep, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Where the traced run writes its spans, relative to the working directory.
const SPANS_DIR: &str = ".resbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?.max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a run prints.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// (name, value, unit)
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the middle two for an even count).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn execute<W: Workload>(
    args: &Args,
    setup: impl Fn(u64, &mut Spans) -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut spans = if args.trace {
        Spans::on()
    } else {
        Spans::off()
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = setup(args.seed, &mut spans)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(w);
    }
    let w = built.ok_or("no set-up ran")?;

    let verified = w.verify();
    if let Err(e) = &verified {
        eprintln!("resbench: verification failed: {e}");
    }

    let deadline = Duration::from_secs(args.seconds);
    let inputs = w.inputs();
    let mut best_ms = vec![f64::INFINITY; inputs];
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let start = Instant::now();
    while attempted == 0 || start.elapsed() < deadline {
        for (i, best) in best_ms.iter_mut().enumerate() {
            let checked = if spans.is_on() {
                spans.set_op(attempted);
                w.run_traced(i, &mut spans)
            } else {
                let t0 = Instant::now();
                let out = black_box(w.run(i));
                *best = best.min(ms(t0.elapsed()));
                w.check(i, &out)
            };
            if let Err(e) = checked {
                failed += 1;
                eprintln!("resbench: operation {attempted} (input {i}) failed: {e}");
            }
            attempted += 1;
        }
    }
    let wall = start.elapsed();

    let metrics = if spans.is_on() {
        write_spans(args, &spans);
        layer_metrics(&spans)
    } else {
        vec![
            ("op_ms", median(&best_ms), "ms"),
            ("pass_s", best_ms.iter().sum::<f64>() / 1e3, "s"),
            ("setup_s", median(&setup_s), "s"),
        ]
    };
    eprintln!(
        "resbench: workload {} seed {}: {attempted} operations over {inputs} inputs \
         in {:.2} s on {} threads{}",
        args.workload,
        args.seed,
        wall.as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if args.trace { " (traced)" } else { "" },
    );
    Ok(Outcome {
        correct: verified.is_ok() && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Per-layer metrics from the traced run's spans and counters.
fn layer_metrics(spans: &Spans) -> Vec<(&'static str, f64, &'static str)> {
    let per_call_ms = |layer| {
        let calls: Vec<f64> = spans.calls(layer).into_iter().map(ms).collect();
        median(&calls)
    };
    let mean = |counter| {
        let (sum, n) = spans.counter(counter);
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    let (windows, _) = spans.counter("windows");
    let (delivered, _) = spans.counter("delivered");
    vec![
        ("map_ms", per_call_ms("map"), "ms"),
        ("activity_ms", per_call_ms("activity"), "ms"),
        ("fabric_ms", per_call_ms("fabric"), "ms"),
        ("tiles", mean("tiles"), "count"),
        ("spikes", mean("spikes"), "count"),
        ("windows", mean("windows"), "count"),
        (
            "delivered_pct",
            if windows > 0.0 {
                100.0 * delivered / windows
            } else {
                0.0
            },
            "%",
        ),
        ("rounds", mean("rounds"), "count"),
    ]
}

fn write_spans(args: &Args, spans: &Spans) {
    let path = format!("{SPANS_DIR}/{}-seed{}.jsonl", args.workload, args.seed);
    let written = std::fs::create_dir_all(SPANS_DIR)
        .and_then(|()| std::fs::write(&path, spans.to_json_lines()));
    match written {
        Ok(()) => eprintln!("resbench: spans written to {path}"),
        Err(e) => eprintln!("resbench: could not write {path}: {e}"),
    }
}

/// Restricts this process to the lowest CPU it may run on and returns
/// that CPU. Must run before any thread is spawned.
fn pin_to_one_cpu() -> Result<usize, String> {
    // glibc's wrappers; the mask is a `cpu_set_t` (1024 bits).
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed, and pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte size passed, and
    // pid 0 names the calling thread, the only thread of the process.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if set != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

fn main() -> ExitCode {
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!("resbench: pinned to CPU {cpu}"),
        Err(e) => eprintln!("resbench: could not pin to one CPU, timings will be noisier: {e}"),
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("resbench: {e}");
            eprintln!(
                "usage: resbench --workload serving|dense|sparse|sizing \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "serving" => execute(&args, |seed, _| Ok(Serving::setup(seed))),
        "dense" => execute(&args, |seed, spans| {
            Sweep::setup(seed, Encoding::Rate, spans)
        }),
        "sparse" => execute(&args, |seed, spans| {
            Sweep::setup(seed, Encoding::Ttfs, spans)
        }),
        "sizing" => execute(&args, |seed, spans| Ok(Sizing::setup(seed, spans))),
        other => Err(format!("unknown workload {other}")),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("resbench: {e}");
            ExitCode::FAILURE
        }
    }
}
