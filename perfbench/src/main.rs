//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload` it runs that one workload in this process and prints
//! its metrics, one per line with unit and sample count, then one JSON
//! object as the last line of standard output. `--trace 1` runs the traced
//! variant instead: the benchmark's own code times the calls into each
//! layer's public functions and reports the per-layer metrics as a tree.
//! Without `--workload` it runs every workload, untraced and then traced,
//! each in a child process, and prints one row per workload.
//!
//! Workloads (see `BENCHMARK.json` for why each is there):
//! - `serve_distinct` — through `serve_loop`, one request at a time, each a
//!   distinct (window, seed) at all nodes and 10 MC samples; solo server,
//!   batch 1, cache off. Dominated by the MC forward.
//! - `serve_cached` — through `serve_loop`, rounds of eight requests for
//!   the current tick's window with node subsets and horizon prefixes;
//!   batch 8, cache on. Dominated by admission, parsing, cache lookup,
//!   slicing and rendering, with one model run per tick.
//! - `train_fit` — `DeepStuq::fit` (pre-train, AWA, calibration),
//!   alternating with `deepstuq::eval::evaluate` on the test split.
//! - `serve_cluster` — the `serve_distinct` requests through `router_loop`
//!   over two in-process shards.
//!
//! End-to-end metrics, reported by every workload. Times are expressed at
//! a nominal host speed: each is scaled by a bench-owned reference
//! computation timed next to it on the same thread (see `hostspeed`), as
//! the shared host this was defined on changes speed by half again for
//! minutes at a time. As-measured figures are printed beside them.
//! - `setup_s` — median thread CPU time to ready: server (or router and
//!   shards) construction including artifact loads; for `train_fit` the
//!   dataset load plus model initialisation. Constructions are timed
//!   throughout the run, each right after a reference on the same thread
//!   (between serving rounds, or between `evaluate` forecasts).
//! - `cpu_ms_per_op` — process CPU per request served (median over rounds,
//!   or over one tick's rounds for `serve_cached`), or thread CPU per
//!   training window of a fit (median over fits).
//! - `peak_rss_mb` — the process's `VmHWM`.
//! - `test_mae`, `test_mnll`, `test_interval_score` — quality on the test
//!   split of frozen fixtures: served forecasts against ground truth, or the
//!   fixture-seed fit's first `evaluate` pass. The interval score (width
//!   plus 40× any miss, for the 95 % interval) stands in for |PICP − 0.95|,
//!   which sits near 0 where a relative bound means nothing; PICP is
//!   printed with each run. Untrained serving fixtures make these a guard
//!   on bytes, not a statement about accuracy.
//!
//! Request latency (serve-loop rounds, or `evaluate`'s per-window forecast)
//! is printed as measured and at nominal speed but is not among the
//! bounded metrics: wall time also carries the host's scheduling delays,
//! which the reference cannot cancel, and its run-to-run spread stayed
//! above any usable bound. The traced run reports open-loop queue wait and
//! service time per layer.

mod fixture;
mod hostspeed;
mod load;
mod serving;
mod stats;
mod traced;
mod train;

use std::process::ExitCode;

/// Workload names, in run order.
const WORKLOADS: [&str; 4] = ["serve_distinct", "serve_cached", "train_fit", "serve_cluster"];

/// The serving workloads. Serve-loop rounds are one request, or for the
/// cached shape one full batch (a dashboard refreshing eight panels at
/// once; a lone request would wait out the batcher's gather window). The
/// traced run's open-loop stream runs at about a quarter of each
/// workload's capacity. A target construction for `setup_s` follows every
/// fourth round (once per tick for the cached shape), which costs about a
/// twentieth of the run.
fn serving_spec(name: &str) -> Option<serving::Spec> {
    use serving::{Kind, Spec, TICK_REQS};
    let spec = |kind, round, group, keep_every, setup_every, stream_rps| Spec {
        kind,
        round,
        group,
        keep_every,
        setup_every,
        stream_rps,
    };
    match name {
        "serve_distinct" => Some(spec(Kind::Distinct, 1, 1, 20, 4, 10.0)),
        "serve_cached" => Some(spec(Kind::Cached, 8, TICK_REQS / 8, 997, TICK_REQS / 8, 400.0)),
        "serve_cluster" => Some(spec(Kind::Cluster, 1, 1, 20, 4, 4.5)),
        _ => None,
    }
}

/// Threads of the compute pool (`STUQ_THREADS`), fixed so runs compare.
/// One, not the host's two: on a 2-vCPU shared VM the pool's per-kernel
/// fork-join waits on the other vCPU, and with two threads
/// `serve_distinct` was both slower (capacity 31/s against 39/s) and far
/// less steady (p50 spread 0.24 against 0.04 over five seeds); the serving
/// loop's reader, the load generator and the sink use the second vCPU. The
/// traced run measures the pool's own fan-out cost and 2-thread speed-up.
const POOL_THREADS: &str = "1";

/// Fixes the environment the library reads: the pool size, the real clock
/// and the default replay engine. Runs before any other thread exists.
fn pin_environment() {
    std::env::set_var("STUQ_THREADS", POOL_THREADS);
    for var in ["STUQ_NUM_THREADS", "STUQ_FAKE_CLOCK", "STUQ_REPLAY"] {
        std::env::remove_var(var);
    }
}

/// One run's result: metrics with units and sample counts, plus notes.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str, usize)>,
    notes: Vec<String>,
}

impl Report {
    fn new(attempted: u64, failed: u64, correct: bool) -> Report {
        Report { correct, attempted, failed, metrics: Vec::new(), notes: Vec::new() }
    }

    /// Records a metric measured over `n` samples.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push((name.to_string(), value, unit, n));
    }

    /// Records the quality metrics over `n` scored forecasts.
    fn quality(&mut self, q: &fixture::Scores, n: usize) {
        self.metric("test_mae", q.mae, "flow", n);
        self.metric("test_mnll", q.mnll, "nats", n);
        self.metric("test_interval_score", q.interval_score, "flow", n);
    }

    /// Records a human-readable line printed before the result.
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit, _)| {
                format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit; non-finite values (never expected)
/// become `null` so the line stays parseable.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 1, seconds: 20.0, trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&val.as_str()) {
                    return Err(format!("unknown workload {val:?} (one of {WORKLOADS:?})"));
                }
                a.workload = Some(val.clone());
            }
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| bad())?;
                if a.seconds.is_nan() || a.seconds < 1.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn run_one(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let spec = serving_spec(name);
    if trace {
        let distinct =
            serving_spec("serve_distinct").expect("serve_distinct is a serving workload");
        return traced::run(spec, distinct, seed, seconds);
    }
    match spec {
        Some(spec) => serving::run(&spec, seed, seconds),
        None => train::run(seed, seconds),
    }
}

/// Runs every workload, untraced then traced, each in a child process,
/// and prints each run's notes and then one row: the workload and every
/// metric with its unit and sample count. Fails if any run fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate the benchmark executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    for trace in ["0", "1"] {
        for name in WORKLOADS {
            let out = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: {name}: {e}");
                    ok = false;
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            let prefix = format!("{name} ");
            let mut cells = Vec::new();
            for line in text.lines() {
                match line.strip_prefix(&prefix) {
                    Some(cell) => cells.push(cell),
                    None if line.starts_with('#') => println!("{line}"),
                    None => {}
                }
            }
            let run = if trace == "1" { "traced" } else { "end-to-end" };
            println!("{name} ({run}) | {}", cells.join(" | "));
            ok &= out.status.success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload.clone() else {
        return run_all(&args);
    };
    match run_one(&name, args.seed, args.seconds, args.trace) {
        Ok(rep) => {
            for n in &rep.notes {
                println!("# {n}");
            }
            for (m, v, unit, n) in &rep.metrics {
                println!("{name} {m} = {v:.6} {unit} (n={n})");
            }
            println!("{}", rep.json());
            if rep.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output check failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            ExitCode::from(1)
        }
    }
}
