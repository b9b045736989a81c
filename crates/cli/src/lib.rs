//! Implementation of the `stuq` command-line tool.
//!
//! Subcommands (see [`run`]):
//!
//! * `simulate` — generate a synthetic PEMS-like dataset and save it;
//! * `train` — train the three-stage DeepSTUQ pipeline on a dataset file
//!   and save the model;
//! * `evaluate` — compute all paper metrics (plus CRPS, interval score and
//!   the reliability curve) for a saved model on a dataset's test split;
//! * `forecast` — print one window's probabilistic forecast;
//! * `info` — inspect a dataset or model file.
//!
//! The library entry point [`run`] takes the argument list and a writer so
//! the whole CLI is testable without spawning processes.

use std::io::Write;
use std::path::PathBuf;

use deepstuq::eval::{evaluate, evaluate_faulted, RawForecast};
use deepstuq::pipeline::{DeepStuq, DeepStuqConfig, FitOptions, FitOutcome};
use deepstuq::{AwaConfig, CalibConfig, Stage, TrainConfig};
use stuq_artifact::json::Json;
use stuq_metrics::{ProperScoreAccumulator, ReliabilityDiagram};
use stuq_models::Forecaster;
use stuq_tensor::StuqRng;
use stuq_traffic::{FaultPlan, FaultProfile, Preset, Split, SplitDataset};

/// Top-level CLI error type: a message for the user.
pub type CliError = String;

/// Entry point: parses `args` (without the program name) and executes.
pub fn run(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let cmd = match args.first().map(String::as_str) {
        Some("telemetry") => return cmd_telemetry(&args[1..], out),
        Some("trace") => return cmd_trace(&args[1..], out),
        Some("help") | None => {
            let _ = writeln!(out, "{USAGE}");
            return Ok(());
        }
        Some(
            cmd @ ("simulate" | "train" | "evaluate" | "forecast" | "info" | "serve"
            | "gen-requests"),
        ) => cmd,
        Some(other) => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    let telem = TelemetryRun::start(cmd, args)?;
    let result = match cmd {
        "simulate" => cmd_simulate(&args[1..], out),
        "train" => cmd_train(&args[1..], out),
        "evaluate" => cmd_evaluate(&args[1..], out),
        "forecast" => cmd_forecast(&args[1..], out),
        "info" => cmd_info(&args[1..], out),
        "serve" => cmd_serve(&args[1..], out),
        "gen-requests" => cmd_gen_requests(&args[1..], out),
        _ => unreachable!("matched above"),
    };
    match result {
        Ok(()) => {
            telem.finish(out);
            Ok(())
        }
        Err(e) => {
            // Fatal errors land in the event log with exit-code context (the
            // binary exits 1) before being reported to the user.
            stuq_obs::emit_fatal(&e, 1);
            Err(e)
        }
    }
}

/// Per-invocation telemetry lifecycle: [`stuq_obs::init`] from the
/// `--telemetry-dir` / `--telemetry-level` flags, a `run_start` event, and —
/// on success — the `run_end` event, run manifest, sink flush and the
/// end-of-run phase table.
struct TelemetryRun {
    cmd: &'static str,
    seed: u64,
    /// Full argument list — hashed into the manifest's `config_hash`.
    argv: String,
    t0: std::time::Instant,
}

impl TelemetryRun {
    fn start(cmd: &str, args: &[String]) -> Result<TelemetryRun, CliError> {
        // `args` includes the command word; flag parse errors are left to the
        // command's own `Args::parse` so messages stay consistent.
        let a = Args::parse(&args[1..]).unwrap_or(Args { pairs: Vec::new() });
        let level = match a.get("telemetry-level") {
            None => stuq_obs::Level::Summary,
            Some(v) => stuq_obs::Level::parse(v).ok_or_else(|| {
                format!("bad value for --telemetry-level: {v:?} (off|summary|trace)")
            })?,
        };
        let dir = a.get("telemetry-dir").map(PathBuf::from);
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)
                .map_err(|e| format!("--telemetry-dir {}: {e}", d.display()))?;
        }
        stuq_obs::init(dir.as_deref(), level);
        // --telemetry-max-mb N bounds the live event log: once it would grow
        // past N MiB it is sealed into checksummed events-NNNNN.jsonl
        // segments (stuq trace / telemetry validate read segments + tail).
        if let Some(v) = a.get("telemetry-max-mb") {
            let mb: u64 =
                v.parse().map_err(|_| format!("bad value for --telemetry-max-mb: {v:?}"))?;
            if mb == 0 {
                return Err("--telemetry-max-mb must be at least 1".into());
            }
            stuq_obs::set_events_roll_bytes(Some(mb * 1024 * 1024));
        }
        // Informational context for the manifest; each command still parses
        // its own seed with its own default.
        let seed: u64 = a.parse_or("seed", 42u64).unwrap_or(42);
        let cmd = match cmd {
            "simulate" => "simulate",
            "train" => "train",
            "evaluate" => "evaluate",
            "forecast" => "forecast",
            "serve" => "serve",
            "gen-requests" => "gen-requests",
            _ => "info",
        };
        stuq_obs::emit(
            stuq_obs::Event::new("run_start")
                .str("cmd", cmd)
                .str("level", level.as_str())
                .uint("seed", seed)
                .uint("threads", stuq_parallel::num_threads() as u64),
        );
        Ok(TelemetryRun { cmd, seed, argv: args.join(" "), t0: std::time::Instant::now() })
    }

    fn finish(self, out: &mut impl Write) {
        if !stuq_obs::summary_enabled() {
            return;
        }
        let wall = self.t0.elapsed().as_secs_f64();
        stuq_obs::emit(stuq_obs::Event::new("run_end").num("wall_seconds", wall));
        let phases = stuq_obs::span_timings();
        if stuq_obs::telemetry_dir().is_some() {
            let m = stuq_obs::metrics();
            let mut manifest = stuq_obs::RunManifest::new(
                self.cmd,
                self.seed,
                self.argv.as_bytes(),
                stuq_parallel::num_threads(),
            );
            manifest.wall_seconds = wall;
            manifest.phases = phases.clone();
            manifest.final_metrics = vec![
                ("train_loss".into(), m.train_loss.get()),
                ("calib_temperature".into(), m.calib_temperature.get()),
                ("guard_trips".into(), m.guard_trips.get() as f64),
                ("mc_samples".into(), m.mc_samples.get() as f64),
                ("eval_windows".into(), m.eval_windows.get() as f64),
            ];
            if let Err(e) = stuq_obs::write_manifest(&manifest) {
                let _ = writeln!(out, "telemetry: failed to write manifest: {e}");
            }
            if let Err(e) = stuq_obs::flush() {
                let _ = writeln!(out, "telemetry: failed to flush sinks: {e}");
            }
        }
        if !phases.is_empty() {
            let mut table = String::new();
            table.push_str(&format!("\ntelemetry: phase timings ({wall:.2}s wall)\n"));
            table.push_str(&format!(
                "  {:<24} {:>6} {:>10} {:>10}\n",
                "phase", "count", "total_s", "max_s"
            ));
            for p in &phases {
                table.push_str(&format!(
                    "  {:<24} {:>6} {:>10.3} {:>10.3}\n",
                    p.path, p.count, p.total_s, p.max_s
                ));
            }
            if self.cmd == "serve" {
                // serve's stdout is the NDJSON response stream; keep the
                // human-facing table off the protocol.
                eprint!("{table}");
            } else {
                let _ = write!(out, "{table}");
            }
        }
    }
}

/// `stuq telemetry dump|validate --dir DIR` — inspect a run's sink directory.
fn cmd_telemetry(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let action = args.first().map(String::as_str);
    let a = Args::parse(args.get(1..).unwrap_or(&[]))?;
    match action {
        Some("dump") => {
            let dir = PathBuf::from(a.required("dir")?);
            let manifest = dir.join(stuq_obs::MANIFEST_FILE);
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                let _ = writeln!(out, "# {}", manifest.display());
                let _ = write!(out, "{text}");
            }
            let prom = dir.join(stuq_obs::METRICS_FILE);
            let text =
                std::fs::read_to_string(&prom).map_err(|e| format!("{}: {e}", prom.display()))?;
            let _ = writeln!(out, "# {}", prom.display());
            let _ = write!(out, "{text}");
            Ok(())
        }
        Some("validate") => {
            let dir = PathBuf::from(a.required("dir")?);
            // Rolled segments first, then the live tail — the same order the
            // recorder sealed them, so seq stays monotonic across the join.
            let (text, files) = read_event_log(&dir)?;
            let n =
                stuq_obs::validate_events(&text).map_err(|e| format!("{}: {e}", dir.display()))?;
            let _ = writeln!(
                out,
                "{}: {n} events in {} file(s), checksum and schema OK",
                dir.display(),
                files
            );
            Ok(())
        }
        _ => Err("usage: stuq telemetry dump|validate --dir DIR".into()),
    }
}

/// Joins a telemetry directory's checksummed event log — rolled
/// `events-NNNNN.jsonl` segments in seal order, then the `events.jsonl`
/// tail — into one payload. Returns the text and the file count.
fn read_event_log(dir: &std::path::Path) -> Result<(String, usize), CliError> {
    let mut text = String::new();
    let mut files = 0usize;
    let mut paths = stuq_obs::segment_files(dir);
    paths.push(dir.join(stuq_obs::EVENTS_FILE));
    for path in paths {
        if !path.is_file() {
            continue;
        }
        let payload =
            stuq_artifact::read_verified(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        text.push_str(
            std::str::from_utf8(&payload)
                .map_err(|_| format!("{}: not valid UTF-8", path.display()))?,
        );
        files += 1;
    }
    if files == 0 {
        return Err(format!("{}: no event log found", dir.join(stuq_obs::EVENTS_FILE).display()));
    }
    Ok((text, files))
}

/// One span reconstructed from its `span_start`/`span_end` event pair.
struct TraceSpan {
    trace: String,
    span: String,
    parent: String,
    phase: String,
    /// Duration from `span_end`; `None` means the span never closed
    /// (crash evidence — the process died mid-request).
    secs: Option<f64>,
    shard: Option<u64>,
    status: Option<String>,
    reason: Option<String>,
    /// (source index, line index) — the deterministic ordering key.
    order: (usize, usize),
}

/// `stuq trace DIR... [--tree] [--no-times] [--strict]` — join router and
/// worker event logs into per-request span timelines (DESIGN.md §15).
///
/// Every `DIR` is read as a telemetry directory (segments + tail) and any
/// `worker-N` subdirectories with event logs are auto-discovered, so a
/// router run with per-worker telemetry needs only the router's directory
/// on the command line. `--tree` prints the span tree of every request;
/// `--no-times` suppresses all wall-clock numbers so the output is a pure
/// structural fingerprint (byte-stable across reruns of a seeded workload);
/// `--strict` exits nonzero on orphaned spans, unclosed spans or malformed
/// trace events.
fn cmd_trace(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    const TRACE_USAGE: &str = "usage: stuq trace DIR... [--tree] [--no-times] [--strict]";
    let (mut tree, mut strict, mut no_times) = (false, false, false);
    let mut dirs: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            "--tree" => tree = true,
            "--strict" => strict = true,
            "--no-times" => no_times = true,
            s if s.starts_with("--") => return Err(format!("unknown flag {s:?}\n{TRACE_USAGE}")),
            s => dirs.push(PathBuf::from(s)),
        }
    }
    if dirs.is_empty() {
        return Err(TRACE_USAGE.into());
    }

    // Expand each directory with its worker-N subdirectories, in shard order.
    let mut sources: Vec<PathBuf> = Vec::new();
    for d in &dirs {
        sources.push(d.clone());
        let mut subs: Vec<PathBuf> = std::fs::read_dir(d)
            .map_err(|e| format!("{}: {e}", d.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("worker-"))
                    && p.join(stuq_obs::EVENTS_FILE).is_file()
            })
            .collect();
        subs.sort();
        sources.extend(subs);
    }

    // Collect spans keyed by (trace, span) and exemplar counts per source.
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut index: std::collections::HashMap<(String, String), usize> =
        std::collections::HashMap::new();
    let mut malformed = 0usize;
    let mut exemplars = 0usize;
    let mut worst_exemplar: Option<(String, f64)> = None;
    for (src, dir) in sources.iter().enumerate() {
        let (text, _) = read_event_log(dir)?;
        for (line_no, line) in text.lines().enumerate() {
            let Ok(pairs) = stuq_obs::parse_line(line) else {
                malformed += 1;
                continue;
            };
            let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
            let get_str = |k: &str| get(k).and_then(Json::as_str).map(str::to_owned);
            let get_num = |k: &str| match get(k) {
                Some(Json::Num(n, _)) => Some(*n),
                _ => None,
            };
            match get_str("type").as_deref() {
                Some("span_start") => {
                    let (Some(trace), Some(span), Some(parent), Some(phase)) =
                        (get_str("trace"), get_str("span"), get_str("parent"), get_str("phase"))
                    else {
                        malformed += 1;
                        continue;
                    };
                    let key = (trace.clone(), span.clone());
                    if index.contains_key(&key) {
                        malformed += 1; // duplicate start
                        continue;
                    }
                    index.insert(key, spans.len());
                    spans.push(TraceSpan {
                        trace,
                        span,
                        parent,
                        phase,
                        secs: None,
                        shard: get_num("shard").map(|n| n as u64),
                        status: None,
                        reason: None,
                        order: (src, line_no),
                    });
                }
                Some("span_end") => {
                    let (Some(trace), Some(span), Some(secs)) =
                        (get_str("trace"), get_str("span"), get_num("seconds"))
                    else {
                        malformed += 1;
                        continue;
                    };
                    match index.get(&(trace, span)) {
                        None => malformed += 1, // end without start
                        Some(&i) => {
                            let s = &mut spans[i];
                            s.secs = Some(secs);
                            if let Some(n) = get_num("shard") {
                                s.shard = Some(n as u64);
                            }
                            s.status = get_str("status").or(s.status.take());
                            s.reason = get_str("reason").or(s.reason.take());
                        }
                    }
                }
                Some("trace_exemplar") => {
                    exemplars += 1;
                    if let (Some(t), Some(secs)) = (get_str("trace"), get_num("seconds")) {
                        if worst_exemplar.as_ref().is_none_or(|(_, w)| secs > *w) {
                            worst_exemplar = Some((t, secs));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Group spans per trace; roots are spans whose parent is the trace id.
    let mut traces: Vec<(String, Vec<usize>)> = Vec::new();
    let mut by_trace: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let slot = *by_trace.entry(&s.trace).or_insert_with(|| {
            traces.push((s.trace.clone(), Vec::new()));
            traces.len() - 1
        });
        traces[slot].1.push(i);
    }

    let mut orphans = 0usize;
    let mut unclosed = 0usize;
    let mut phase_secs: std::collections::BTreeMap<String, Vec<f64>> =
        std::collections::BTreeMap::new();
    let fmt_ms = |s: f64| format!("{:.3} ms", s * 1e3);
    for (trace_id, members) in &traces {
        let known: std::collections::HashSet<&str> =
            members.iter().map(|&i| spans[i].span.as_str()).collect();
        let roots: Vec<usize> =
            members.iter().copied().filter(|&i| spans[i].parent == *trace_id).collect();
        let total: f64 = roots.iter().filter_map(|&i| spans[i].secs).fold(0.0f64, f64::max);
        let mut line = format!("trace {trace_id} — {} span(s)", members.len());
        for &i in members {
            let s = &spans[i];
            match s.secs {
                None => unclosed += 1,
                Some(secs) => phase_secs.entry(s.phase.clone()).or_default().push(secs),
            }
            if s.parent != *trace_id && !known.contains(s.parent.as_str()) {
                orphans += 1;
            }
        }
        if !no_times {
            line.push_str(&format!(", {}", fmt_ms(total)));
        }
        let _ = writeln!(out, "{line}");
        if tree {
            // Depth-first from each root; children in deterministic
            // (source, line) order. A stack of (span index, depth).
            let mut children: std::collections::HashMap<&str, Vec<usize>> =
                std::collections::HashMap::new();
            for &i in members {
                children.entry(spans[i].parent.as_str()).or_default().push(i);
            }
            for v in children.values_mut() {
                v.sort_by_key(|&i| spans[i].order);
            }
            let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 1)).collect();
            let mut printed: std::collections::HashSet<usize> = std::collections::HashSet::new();
            while let Some((i, depth)) = stack.pop() {
                if !printed.insert(i) {
                    continue; // defensive: a parent cycle would loop forever
                }
                let s = &spans[i];
                let mut row = format!("{:indent$}{}", "", s.phase, indent = depth * 2);
                if let Some(shard) = s.shard {
                    row.push_str(&format!(" shard={shard}"));
                }
                if let Some(st) = &s.status {
                    row.push_str(&format!(" status={st}"));
                }
                if let Some(r) = &s.reason {
                    row.push_str(&format!(" reason={r}"));
                }
                match s.secs {
                    None => row.push_str(" [unclosed]"),
                    Some(secs) if !no_times => {
                        row.push_str(&format!("  {}", fmt_ms(secs)));
                    }
                    Some(_) => {}
                }
                let _ = writeln!(out, "{row}");
                if let Some(kids) = children.get(s.span.as_str()) {
                    for &k in kids.iter().rev() {
                        stack.push((k, depth + 1));
                    }
                }
            }
            // Orphans are unreachable from any root — list them flat so the
            // tree never silently hides a span.
            let mut lost: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| {
                    spans[i].parent != *trace_id && !known.contains(spans[i].parent.as_str())
                })
                .collect();
            lost.sort_by_key(|&i| spans[i].order);
            for i in lost {
                let s = &spans[i];
                let _ = writeln!(out, "  {} [orphan: parent {} unknown]", s.phase, s.parent);
            }
        }
    }

    // Per-phase latency distribution across every closed span.
    if !no_times && !phase_secs.is_empty() {
        let pct = |sorted: &[f64], p: f64| {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        let _ = writeln!(
            out,
            "\n{:<16} {:>6} {:>10} {:>10} {:>10}",
            "phase", "count", "p50_ms", "p95_ms", "p99_ms"
        );
        for (phase, secs) in &mut phase_secs {
            secs.sort_by(f64::total_cmp);
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>10.3} {:>10.3} {:>10.3}",
                phase,
                secs.len(),
                pct(secs, 0.50) * 1e3,
                pct(secs, 0.95) * 1e3,
                pct(secs, 0.99) * 1e3,
            );
        }
    }
    if !no_times && exemplars > 0 {
        let (t, w) = worst_exemplar.expect("exemplars counted");
        let _ = writeln!(out, "\nexemplars: {exemplars} recorded, worst {} (trace {t})", fmt_ms(w));
    }
    let _ = writeln!(
        out,
        "\n{} trace(s), {} span(s); {orphans} orphan(s), {unclosed} unclosed, {malformed} malformed",
        traces.len(),
        spans.len(),
    );
    if strict && (orphans > 0 || unclosed > 0 || malformed > 0) {
        return Err(format!(
            "trace --strict: {orphans} orphan(s), {unclosed} unclosed span(s), {malformed} malformed event(s)"
        ));
    }
    Ok(())
}

const USAGE: &str = "\
stuq — uncertainty-quantified traffic forecasting (DeepSTUQ, ICDE 2023)

USAGE:
  stuq simulate --preset pems03|pems04|pems07|pems08 [--node-frac F] [--step-frac F]
                    [--seed N] --out data.stuqd
  stuq train    --data data.stuqd [--epochs N] [--batch N] [--awa-epochs N]
                    [--mc N] [--seed N] --out model.stuq
                    [--checkpoint-dir DIR] [--checkpoint-every N]
                    [--epoch-budget N] [--resume true|false]
  stuq evaluate --model model.stuq --data data.stuqd [--stride N] [--seed N]
                    [--fault-profile none|light|moderate|severe] [--fault-seed N]
  stuq forecast --model model.stuq --data data.stuqd [--window N] [--sensor N] [--seed N]
  stuq info     --path file.stuqd|file.stuq
  stuq serve    --model model.stuq [--data data.stuqd] [--socket PATH]
                    [--max-queue N] [--mc N] [--floor N] [--deadline-ms N]
                    [--breaker-threshold N] [--breaker-cooldown-ms N]
                    [--breaker-cooldown-max-ms N] [--max-abs-output X]
                    [--widen-factor X] [--reload-poll-ms N] [--health-dir DIR]
                    [--seed N] [--batch-max N] [--batch-wait-ms N]
                    [--cache-ttl-ms N] [--cache-cap N]
                    [--role router|worker] [--shards N] [--replicas N]
                    [--worker-dir DIR] [--rpc-timeout-ms N] [--ping-interval-ms N]
                    [--restart-backoff-ms N] [--restart-backoff-max-ms N]
                    [--connect-timeout-ms N]
                    [--faultnet off|drop|delay|flaky|blackhole]
  stuq gen-requests --data data.stuqd [--count N] [--deadline-ms N] [--mc N]
                    [--nan-frac F] [--seed N] [--out FILE]
                    [--burst K] [--hot-nodes H]
  stuq telemetry dump|validate --dir DIR
  stuq trace DIR... [--tree] [--no-times] [--strict]

Every command also accepts [--telemetry-dir DIR] [--telemetry-level off|summary|trace]
(default summary) and [--telemetry-max-mb N]. With a directory, the run writes
events.jsonl (checksummed JSONL event log), metrics.prom (Prometheus text
exposition) and manifest.json (seed, config hash, thread count, phase
timings); past N MiB the event log rolls into checksummed events-NNNNN.jsonl
segments. `stuq telemetry dump` pretty-prints them and `stuq telemetry
validate` checks the joined segment+tail log. Telemetry is a pure observer —
any level produces bit-identical models.

Tracing (DESIGN.md §15): at --telemetry-level trace every request carries a
deterministic trace id; the router, its workers (one telemetry subdirectory
worker-N each) and solo servers emit span events for admission, batching,
cache, compute, per-shard sample-range RPCs and merge. `stuq trace DIR` joins the logs
into per-request timelines: --tree prints each request's span tree with
per-shard status/reason attribution, --no-times strips wall-clock numbers
(the remaining structure is byte-stable across reruns of a seeded workload)
and --strict exits nonzero on orphaned, unclosed or malformed spans. A
router answers {\"type\":\"cluster-metrics\"} with counters merged across
itself and every live worker, and writes cluster_metrics.prom.

Fault tolerance (DESIGN.md §8): with --checkpoint-dir, train writes crash-safe
checkpoints every --checkpoint-every epochs; --epoch-budget pauses after N
epochs and --resume true continues a paused or interrupted run bit-for-bit.
--fault-profile evaluates the model on sensor-degraded input (seeded by
--fault-seed) while scoring against the clean ground truth.

Serving (DESIGN.md §11): `stuq serve` answers newline-delimited JSON forecast
requests on stdin/stdout (or a Unix socket with --socket). Requests carry
deadline budgets driving anytime MC-dropout degradation; the runtime sheds
load past --max-queue, breaks the circuit on consecutive model faults, and
hot-reloads the model artifact when it changes on disk. With --batch-max > 1
co-arriving forecasts coalesce into one batch and identical requests share a
single MC run (DESIGN.md §12); --cache-ttl-ms enables the per-tick forecast
cache (TTL = the data cadence). `stuq gen-requests` emits a request stream
from a dataset's test split for load tests; --burst K groups requests into
same-tick storms of K (declaring `tick`, seedless, so they batch and cache),
and --hot-nodes H adds overlapping node subsets drawn from the first H
sensors.

Cluster serving (DESIGN.md §13): `stuq serve --role router --shards N` spawns
N supervised worker processes (this binary with --role worker, one Unix
socket each) and answers every forecast with the solo serving pipeline,
running each request's MC passes on the workers: shard s of N runs the
sample range [s*mc/N, (s+1)*mc/N). Responses are byte-identical to a solo
server's. A dead shard contributes no passes — the response is degraded
(samples_used below samples_requested, widened intervals), and fewer passes
than --floor serve the solo widened-persistence fallback. Workers are
restarted with exponential backoff (seed-jittered so replicas never restart
in lock-step); `reload` runs a two-phase commit across all workers
(unanimous ack or cluster-wide abort — no mixed-version window).

Replication (DESIGN.md §16): --replicas R runs R supervised workers per
shard. Each sample range goes to a seed-derived primary replica and fails
over along the chain on any fault (`worker_down`, `rpc_timeout`,
`version_skew`, `worker_error`; counted and logged as cluster_failover);
only an exhausted chain loses the range's passes.
--faultnet drop|delay|flaky|blackhole splices a deterministic, seeded fault
plan into one victim replica per shard for chaos drills — every injected
fault is counted (faultnet_injected_total) and logged (faultnet_inject).";

/// A minimal `--key value` argument map.
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
            let value = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?.clone();
            pairs.push((key.to_string(), value));
            i += 2;
        }
        Ok(Self { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> Result<&str, CliError> {
        self.get(key).ok_or_else(|| format!("missing required --{key}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }
}

fn preset_by_name(name: &str) -> Result<Preset, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "pems03" => Ok(Preset::Pems03Like),
        "pems04" => Ok(Preset::Pems04Like),
        "pems07" => Ok(Preset::Pems07Like),
        "pems08" => Ok(Preset::Pems08Like),
        other => Err(format!("unknown preset {other:?} (pems03|pems04|pems07|pems08)")),
    }
}

fn cmd_simulate(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let a = Args::parse(args)?;
    let preset = preset_by_name(a.required("preset")?)?;
    let node_frac: f64 = a.parse_or("node-frac", 0.1)?;
    let step_frac: f64 = a.parse_or("step-frac", 0.05)?;
    let seed: u64 = a.parse_or("seed", 42u64)?;
    let out_path = PathBuf::from(a.required("out")?);

    let spec = if (node_frac - 1.0).abs() < 1e-12 && (step_frac - 1.0).abs() < 1e-12 {
        preset.spec()
    } else {
        preset.spec().scaled(node_frac, step_frac)
    };
    let ds = spec.generate(seed ^ preset.seed_offset());
    stuq_traffic::save_dataset(ds.data(), &out_path).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "wrote {} — {} sensors, {} segments, {} steps",
        out_path.display(),
        ds.n_nodes(),
        ds.data().network().n_edges(),
        ds.data().n_steps()
    );
    Ok(())
}

fn cmd_train(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let a = Args::parse(args)?;
    let data_path = a.required("data")?.to_string();
    let out_path = a.required("out")?.to_string();
    let epochs: usize = a.parse_or("epochs", 4usize)?;
    let batch: usize = a.parse_or("batch", 16usize)?;
    let awa_epochs: usize = a.parse_or("awa-epochs", 4usize)?;
    let mc: usize = a.parse_or("mc", 10usize)?;
    let seed: u64 = a.parse_or("seed", 42u64)?;
    let checkpoint_dir = a.get("checkpoint-dir").map(PathBuf::from);
    let checkpoint_every: usize = a.parse_or("checkpoint-every", 1usize)?;
    let resume: bool = a.parse_or("resume", false)?;
    let epoch_budget: Option<usize> = match a.get("epoch-budget") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --epoch-budget: {v:?}"))?),
    };
    if !awa_epochs.is_multiple_of(2) {
        return Err("--awa-epochs must be even (AWA cycles are 2 epochs)".into());
    }
    if (resume || epoch_budget.is_some()) && checkpoint_dir.is_none() {
        return Err("--resume/--epoch-budget require --checkpoint-dir".into());
    }

    let ds = stuq_traffic::load_split_dataset(&data_path).map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "training on {} ({} sensors, {} steps), {} epochs + {} AWA epochs…",
        ds.data().name(),
        ds.n_nodes(),
        ds.data().n_steps(),
        epochs,
        awa_epochs
    );
    // The paper's model and stages, at the requested length and batch.
    let mut cfg = DeepStuqConfig::paper(ds.n_nodes(), ds.horizon());
    cfg.train = TrainConfig { epochs, batch_size: batch, ..cfg.train };
    cfg.awa = (awa_epochs > 0).then(|| AwaConfig {
        epochs: awa_epochs,
        batch_size: batch,
        ..Default::default()
    });
    cfg.calib = Some(CalibConfig { mc_samples: mc.min(10), max_iters: 500, stride: 3 });
    cfg.mc_samples = mc;
    let (pretrain_epochs, total_epochs) = (cfg.train.epochs, cfg.total_epochs());
    let opts =
        FitOptions { checkpoint_dir, checkpoint_every, resume, epoch_budget, ..Default::default() };
    match DeepStuq::fit(&ds, cfg, seed, &opts).map_err(|e| e.to_string())? {
        FitOutcome::Paused { stage, epochs_done, .. } => {
            // `epochs_done` counts the paused stage's epochs; AWA follows
            // the whole of pre-training.
            let run_wide = match stage {
                Stage::Awa => pretrain_epochs + epochs_done,
                _ => epochs_done,
            };
            let _ = writeln!(
                out,
                "paused in {stage} after {run_wide}/{total_epochs} training epochs — \
                 checkpoint written; rerun with --resume true to continue"
            );
            Ok(())
        }
        FitOutcome::Complete { model, guard } => {
            deepstuq::save_model(&model, &out_path).map_err(|e| e.to_string())?;
            if !guard.is_clean() {
                let _ = writeln!(
                    out,
                    "divergence guard: {} trip(s), {} batch(es) skipped, {} rewind(s)",
                    guard.trips, guard.skipped, guard.rewinds_used
                );
            }
            let _ = writeln!(
                out,
                "wrote {out_path} (temperature T = {:.4}, {} MC samples)",
                model.temperature(),
                model.mc_samples()
            );
            Ok(())
        }
    }
}

fn load_pair(a: &Args) -> Result<(DeepStuq, SplitDataset), CliError> {
    let model = deepstuq::load_model(a.required("model")?).map_err(|e| e.to_string())?;
    let ds = stuq_traffic::load_split_dataset(a.required("data")?).map_err(|e| e.to_string())?;
    if model.model().config().n_nodes != ds.n_nodes() {
        return Err(format!(
            "model expects {} sensors but dataset has {}",
            model.model().config().n_nodes,
            ds.n_nodes()
        ));
    }
    Ok((model, ds))
}

fn cmd_evaluate(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let a = Args::parse(args)?;
    let (model, ds) = load_pair(&a)?;
    let stride: usize = a.parse_or("stride", 3usize)?;
    let seed: u64 = a.parse_or("seed", 7u64)?;
    let fault_profile = match a.get("fault-profile") {
        None | Some("none") => None,
        Some(name) => Some(FaultProfile::by_name(name).ok_or_else(|| {
            format!("unknown fault profile {name:?} (none|light|moderate|severe)")
        })?),
    };
    let fault_seed: u64 = a.parse_or("fault-seed", 1u64)?;

    let scaler = *ds.scaler();
    let mut rng = StuqRng::new(seed);
    let mut proper = ProperScoreAccumulator::new();
    let mut reliability = ReliabilityDiagram::standard();
    let mut predict = |x: &stuq_tensor::Tensor, start: usize| {
        let f = model.forecast_normalized(x, model.mc_samples(), &mut rng);
        let mu = f.mu.map(|v| scaler.inverse(v));
        let sigma = f.sigma_total(model.temperature()).scale(scaler.std() as f32);
        // Targets always come from the *clean* window, even under faults.
        let w = ds.window(start);
        for i in 0..ds.n_nodes() {
            for h in 0..ds.horizon() {
                let (m, s, y) =
                    (mu.get(i, h) as f64, sigma.get(i, h) as f64, w.y_raw.get(h, i) as f64);
                proper.update(m, s, y);
                reliability.update(m, s, y);
            }
        }
        RawForecast { mu, sigma: Some(sigma), bounds: None }
    };
    let result = match fault_profile {
        None => evaluate(&ds, Split::Test, stride, predict),
        Some(profile) => {
            let data = ds.data();
            let plan = FaultPlan::generate(data.n_steps(), data.n_nodes(), profile, fault_seed);
            let fs = plan.apply(data.values());
            let _ = writeln!(
                out,
                "fault profile {}: {} events, {:.2}% of readings corrupted (seed {})",
                profile.name(),
                plan.events().len(),
                100.0 * fs.corrupted_fraction(),
                fault_seed
            );
            evaluate_faulted(&ds, Split::Test, stride, &fs, &mut predict)
        }
    };

    let uq = result.uq.expect("gaussian model");
    let _ = writeln!(out, "test windows: {}", result.n_windows);
    let _ = writeln!(out, "MAE   {:>10.3}", result.point.mae);
    let _ = writeln!(out, "RMSE  {:>10.3}", result.point.rmse);
    let _ = writeln!(out, "MAPE  {:>9.2}%", result.point.mape);
    let _ = writeln!(out, "MNLL  {:>10.3}", uq.mnll);
    let _ = writeln!(out, "PICP  {:>9.2}%", uq.picp);
    let _ = writeln!(out, "MPIW  {:>10.3}", uq.mpiw);
    let _ = writeln!(out, "CRPS  {:>10.3}", proper.mean_crps());
    let _ = writeln!(out, "Winkler(95%) {:>7.3}", proper.mean_interval_score());
    let _ = writeln!(out, "calibration error {:>6.4}", reliability.calibration_error());
    let _ = writeln!(out, "\nreliability (nominal → observed coverage):");
    for (nom, obs) in reliability.curve() {
        let _ = writeln!(out, "  {:>4.0}% → {:>5.1}%", nom * 100.0, obs * 100.0);
    }
    Ok(())
}

fn cmd_forecast(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let a = Args::parse(args)?;
    let (model, ds) = load_pair(&a)?;
    let seed: u64 = a.parse_or("seed", 7u64)?;
    let sensor: usize = a.parse_or("sensor", 0usize)?;
    let starts = ds.window_starts(Split::Test);
    let window: usize = a.parse_or("window", starts.len() / 2)?;
    if sensor >= ds.n_nodes() {
        return Err(format!("sensor {sensor} out of range (0..{})", ds.n_nodes()));
    }
    let start = *starts
        .get(window)
        .ok_or_else(|| format!("window {window} out of range (0..{})", starts.len()))?;

    let w = ds.window(start);
    let mut rng = StuqRng::new(seed);
    let f = model.predict(&w.x, ds.scaler(), &mut rng);
    let _ = writeln!(
        out,
        "window {window} (t = {start}), sensor {sensor}, T = {:.3}:",
        model.temperature()
    );
    let _ = writeln!(
        out,
        "{:>4} {:>9} {:>9} {:>8} {:>8} {:>8}  95% interval",
        "step", "truth", "mean", "σ_alea", "σ_epis", "σ_tot"
    );
    for h in 0..ds.horizon() {
        let _ = writeln!(
            out,
            "{:>4} {:>9.2} {:>9.2} {:>8.2} {:>8.2} {:>8.2}  [{:>8.2}, {:>8.2}]",
            h + 1,
            w.y_raw.get(h, sensor),
            f.mu.get(sensor, h),
            f.sigma_aleatoric.get(sensor, h),
            f.sigma_epistemic.get(sensor, h),
            f.sigma_total.get(sensor, h),
            f.lower.get(sensor, h),
            f.upper.get(sensor, h),
        );
    }
    Ok(())
}

fn cmd_info(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let a = Args::parse(args)?;
    let path = a.required("path")?;
    if let Ok(data) = stuq_traffic::load_dataset(path) {
        let net = data.network();
        let _ = writeln!(out, "dataset: {}", data.name());
        let _ = writeln!(out, "  sensors    {}", data.n_nodes());
        let _ = writeln!(out, "  segments   {}", net.n_edges());
        let _ = writeln!(out, "  steps      {}", data.n_steps());
        let _ = writeln!(out, "  components {}", net.n_components());
        return Ok(());
    }
    if let Ok(model) = deepstuq::load_model(path) {
        let cfg = model.model().config();
        let _ = writeln!(out, "model: DeepSTUQ");
        let _ = writeln!(out, "  sensors     {}", cfg.n_nodes);
        let _ = writeln!(out, "  horizon     {}", cfg.horizon);
        let _ = writeln!(out, "  hidden      {}", cfg.hidden);
        let _ = writeln!(out, "  embed dim   {}", cfg.embed_dim);
        let _ = writeln!(out, "  layers      {}", cfg.n_layers);
        let _ = writeln!(out, "  dropout     {}/{}", cfg.encoder_dropout, cfg.decoder_dropout);
        let _ = writeln!(out, "  temperature {:.4}", model.temperature());
        let _ = writeln!(out, "  MC samples  {}", model.mc_samples());
        let _ = writeln!(out, "  parameters  {}", model.model().params().n_scalars());
        return Ok(());
    }
    Err(format!("{path}: neither a dataset (.stuqd) nor a model (.stuq) file"))
}

/// Builds a [`stuq_serve::ServeConfig`] from `--flag value` pairs.
fn serve_config(a: &Args) -> Result<stuq_serve::ServeConfig, CliError> {
    let mut cfg = stuq_serve::ServeConfig::new(a.required("model")?);
    cfg.data_path = a.get("data").map(PathBuf::from);
    cfg.max_queue = a.parse_or("max-queue", cfg.max_queue)?;
    cfg.mc_samples = match a.get("mc") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --mc: {v:?}"))?),
    };
    cfg.floor = a.parse_or("floor", cfg.floor)?;
    cfg.default_deadline_ms = match a.get("deadline-ms") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --deadline-ms: {v:?}"))?),
    };
    cfg.breaker_threshold = a.parse_or("breaker-threshold", cfg.breaker_threshold)?;
    cfg.breaker_cooldown_ms = a.parse_or("breaker-cooldown-ms", cfg.breaker_cooldown_ms)?;
    cfg.breaker_cooldown_max_ms =
        a.parse_or("breaker-cooldown-max-ms", cfg.breaker_cooldown_max_ms)?;
    cfg.max_abs_output = a.parse_or("max-abs-output", cfg.max_abs_output)?;
    cfg.widen_factor = a.parse_or("widen-factor", cfg.widen_factor)?;
    cfg.health_dir = a.get("health-dir").map(PathBuf::from);
    if let Some(d) = &cfg.health_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("--health-dir {}: {e}", d.display()))?;
    }
    cfg.reload_poll_ms = a.parse_or("reload-poll-ms", cfg.reload_poll_ms)?;
    cfg.seed = a.parse_or("seed", cfg.seed)?;
    cfg.batch_max = a.parse_or("batch-max", cfg.batch_max)?;
    cfg.batch_wait_ms = a.parse_or("batch-wait-ms", cfg.batch_wait_ms)?;
    cfg.cache_ttl_ms = a.parse_or("cache-ttl-ms", cfg.cache_ttl_ms)?;
    cfg.cache_cap = a.parse_or("cache-cap", cfg.cache_cap)?;
    if cfg.batch_max == 0 {
        return Err("--batch-max must be at least 1".into());
    }
    Ok(cfg)
}

fn cmd_serve(args: &[String], _out: &mut impl Write) -> Result<(), CliError> {
    let a = Args::parse(args)?;
    stuq_obs::set_stage("serve");
    match a.get("role") {
        Some("router") => return cmd_serve_router(&a),
        None | Some("worker") => {}
        Some(other) => return Err(format!("bad value for --role: {other:?} (router|worker)")),
    }
    let cfg = serve_config(&a)?;
    let socket = a.get("socket").map(PathBuf::from);
    let mut server = stuq_serve::Server::new(cfg)?;
    match socket {
        None => {
            // stdout carries the NDJSON protocol; all human-facing output
            // (including the telemetry phase table) goes to stderr.
            let reader = std::io::BufReader::new(std::io::stdin());
            let summary = stuq_serve::serve_loop(&mut server, reader, std::io::stdout());
            eprintln!(
                "serve: {} request(s), {} shed, {} response line(s)",
                summary.requests, summary.shed, summary.responses
            );
            Ok(())
        }
        Some(path) => serve_socket(&path, |reader, conn| {
            (stuq_serve::serve_loop(&mut server, reader, conn), server.draining())
        }),
    }
}

/// `stuq serve --role router`: spawn one supervised worker process per shard
/// (the same binary with `--role worker --socket …`), then run the router
/// loop on stdin/stdout or `--socket` (DESIGN.md §13).
fn cmd_serve_router(a: &Args) -> Result<(), CliError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use stuq_serve::faultnet::{self, FaultNet};
    use stuq_serve::router::{Router, RouterConfig, ShardWorker};
    use stuq_serve::supervisor::{ProcWorker, WorkerSpec};

    let serve_cfg = serve_config(a)?;
    let mut cfg = RouterConfig::new(serve_cfg);
    cfg.shards = a.parse_or("shards", cfg.shards)?;
    if cfg.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    cfg.replicas = a.parse_or("replicas", 1usize)?;
    if cfg.replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    let fault_profile = match a.get("faultnet") {
        Some(p) => faultnet::Profile::parse(p).map_err(|e| format!("--faultnet: {e}"))?,
        None => faultnet::Profile::Off,
    };
    cfg.rpc_timeout_ms = a.parse_or("rpc-timeout-ms", cfg.rpc_timeout_ms)?;
    let ping_interval_ms: u64 = a.parse_or("ping-interval-ms", 500u64)?;
    let backoff_ms: u64 = a.parse_or("restart-backoff-ms", 200u64)?;
    let backoff_max_ms: u64 = a.parse_or("restart-backoff-max-ms", 3200u64)?;
    let connect_timeout_ms: u64 = a.parse_or("connect-timeout-ms", 10_000u64)?;
    let worker_dir = match a.get("worker-dir") {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("stuq-cluster-{}", std::process::id())),
    };
    std::fs::create_dir_all(&worker_dir)
        .map_err(|e| format!("--worker-dir {}: {e}", worker_dir.display()))?;

    let shards = cfg.shards;
    // One reply cap shared by every worker, set from the router's own model
    // once `Router::new` has loaded it; no RPC runs before then.
    let max_reply_bytes = Arc::new(AtomicUsize::new(0));

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // A worker answers only `passes` and control lines, so it takes no
    // forecast knob (batching, cache, queue, breaker, floor, deadline,
    // widening, output ceiling, --mc, --seed). It never runs the reload
    // watcher (the two-phase protocol owns reloads; a per-worker watcher
    // would reopen the mixed-version window) and never gets --health-dir
    // (workers would all clobber the router's health.json). The telemetry
    // directory itself is per-worker (below) so event logs never
    // interleave and `stuq trace` can attribute spans to shards.
    let mut base_args: Vec<String> = ["serve", "--role", "worker", "--reload-poll-ms", "0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    base_args.push("--model".into());
    base_args.push(cfg.serve.model_path.display().to_string());
    for key in ["data", "telemetry-level", "telemetry-max-mb"] {
        if let Some(v) = a.get(key) {
            base_args.push(format!("--{key}"));
            base_args.push(v.to_string());
        }
    }
    let telemetry_dir = a.get("telemetry-dir").map(PathBuf::from);
    // Shard-major worker layout (worker = shard * R + replica). With one
    // replica the socket/telemetry names keep their historical single-replica
    // shapes (`worker-{s}`), so existing tooling that greps for them — and
    // old chaos harness runs — keep working unchanged.
    let replicas = cfg.replicas;
    let session_seed = cfg.serve.seed;
    // Restart jitter seeds fork off the session seed per flat worker index:
    // replicas of one shard never share a backoff schedule (no thundering
    // herd), yet a rerun with the same --seed replays the same schedule.
    let mut jitter_rng = stuq_tensor::StuqRng::new(session_seed ^ 0x0ff5_e7b4_c0ff);
    let workers: Vec<Box<dyn ShardWorker>> = (0..shards * replicas)
        .map(|w| {
            let (s, r) = (w / replicas, w % replicas);
            let stem =
                if replicas == 1 { format!("worker-{s}") } else { format!("worker-{s}-{r}") };
            let socket = worker_dir.join(format!("{stem}.sock"));
            let mut args = base_args.clone();
            args.push("--socket".into());
            args.push(socket.display().to_string());
            if let Some(d) = &telemetry_dir {
                args.push("--telemetry-dir".into());
                args.push(d.join(&stem).display().to_string());
            }
            let proc = Box::new(ProcWorker::spawn(WorkerSpec {
                shard: s,
                replica: r,
                exe: exe.clone(),
                args,
                socket,
                ping_interval_ms,
                backoff_ms,
                backoff_max_ms,
                connect_timeout_ms,
                max_reply_bytes: Arc::clone(&max_reply_bytes),
                jitter_seed: jitter_rng.fork(w as u64).next_u64(),
            })) as Box<dyn ShardWorker>;
            // The fault harness wraps exactly one seed-chosen victim replica
            // per shard; everything else goes to the wire untouched.
            if fault_profile != faultnet::Profile::Off
                && r == faultnet::victim_replica(session_seed, s, replicas)
            {
                // Announce the victim so chaos harnesses can target it.
                eprintln!(
                    "serve: faultnet {} victim shard={s} replica={r}",
                    fault_profile.as_str()
                );
                Box::new(FaultNet::wrap(proc, fault_profile, session_seed, s, r))
                    as Box<dyn ShardWorker>
            } else {
                proc
            }
        })
        .collect();

    let mut router = Router::new(cfg, workers)?;
    max_reply_bytes.store(router.max_worker_reply_bytes(), Ordering::Relaxed);
    match a.get("socket").map(PathBuf::from) {
        None => {
            let reader = std::io::BufReader::new(std::io::stdin());
            let summary = stuq_serve::router::router_loop(&mut router, reader, std::io::stdout());
            eprintln!(
                "serve: router — {} request(s), {} shed, {} response line(s)",
                summary.requests, summary.shed, summary.responses
            );
            Ok(())
        }
        Some(path) => serve_socket(&path, |reader, conn| {
            (stuq_serve::router::router_loop(&mut router, reader, conn), router.draining())
        }),
    }
}

/// Accept loop on a Unix socket: one connection at a time, each driven by
/// `serve` (the serve or router loop), which also reports whether the
/// server is now draining — a `shutdown` request ends the process.
fn serve_socket(
    path: &std::path::Path,
    mut serve: impl FnMut(
        std::io::BufReader<std::os::unix::net::UnixStream>,
        std::os::unix::net::UnixStream,
    ) -> (stuq_serve::ServeSummary, bool),
) -> Result<(), CliError> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).map_err(|e| format!("--socket {}: {e}", path.display()))?;
    eprintln!("serve: listening on {}", path.display());
    for conn in listener.incoming() {
        let conn = conn.map_err(|e| format!("accept: {e}"))?;
        let reader =
            std::io::BufReader::new(conn.try_clone().map_err(|e| format!("socket clone: {e}"))?);
        let (summary, draining) = serve(reader, conn);
        eprintln!(
            "serve: connection closed — {} request(s), {} shed",
            summary.requests, summary.shed
        );
        if draining {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Emits a forecast-request stream from a dataset's test windows — the load
/// generator for the serving runtime (and the chaos CI job).
fn cmd_gen_requests(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let a = Args::parse(args)?;
    let ds = stuq_traffic::load_split_dataset(a.required("data")?).map_err(|e| e.to_string())?;
    let count: usize = a.parse_or("count", 32usize)?;
    let deadline_ms: Option<u64> = match a.get("deadline-ms") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --deadline-ms: {v:?}"))?),
    };
    let mc: Option<usize> = match a.get("mc") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --mc: {v:?}"))?),
    };
    let nan_frac: f64 = a.parse_or("nan-frac", 0.0)?;
    let seed: u64 = a.parse_or("seed", 7u64)?;
    let out_path = a.get("out").map(PathBuf::from);
    // --burst K: same-tick storms of K requests sharing one window. They
    // declare `tick` and carry no per-request seed, so the server derives
    // one RNG per tick — exactly the shape the batcher coalesces and the
    // forecast cache answers.
    let burst: Option<usize> = match a.get("burst") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --burst: {v:?}"))?),
    };
    if burst == Some(0) {
        return Err("--burst must be at least 1".into());
    }
    // --hot-nodes H: overlapping node subsets drawn from the first H
    // sensors, index-derived (no RNG) so the stream is reproducible.
    let hot_nodes: Option<usize> = match a.get("hot-nodes") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("bad value for --hot-nodes: {v:?}"))?),
    };
    if let Some(h) = hot_nodes {
        if h == 0 || h > ds.n_nodes() {
            return Err(format!(
                "--hot-nodes must be in 1..={} (dataset sensors), got {h}",
                ds.n_nodes()
            ));
        }
    }
    let starts = ds.window_starts(Split::Test);
    if starts.is_empty() {
        return Err("dataset has no test windows".into());
    }
    let mut rng = StuqRng::new(seed);
    let mut buf = String::new();
    for i in 0..count {
        let (start, tick) = match burst {
            Some(k) => {
                let g = i / k;
                (starts[g % starts.len()], Some(g as u64))
            }
            None => (starts[i % starts.len()], None),
        };
        buf.push_str(&format!("{{\"type\":\"forecast\",\"id\":\"r{i}\""));
        match tick {
            Some(g) => buf.push_str(&format!(",\"tick\":{g}")),
            None => buf.push_str(&format!(",\"seed\":{}", seed + i as u64)),
        }
        let node_sel: Option<Vec<usize>> = if let Some(h) = hot_nodes {
            let width = (1 + i % 3).min(h);
            Some((0..width).map(|j| (i + j) % h).collect())
        } else {
            None
        };
        if let Some(mut nodes) = node_sel {
            nodes.sort_unstable();
            nodes.dedup();
            buf.push_str(",\"nodes\":[");
            for (j, node) in nodes.iter().enumerate() {
                if j > 0 {
                    buf.push(',');
                }
                buf.push_str(&node.to_string());
            }
            buf.push(']');
        }
        if let Some(d) = deadline_ms {
            buf.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        if let Some(m) = mc {
            buf.push_str(&format!(",\"mc\":{m}"));
        }
        buf.push_str(",\"x\":[");
        for (t_i, t) in (start..start + ds.t_h()).enumerate() {
            if t_i > 0 {
                buf.push(',');
            }
            buf.push('[');
            for node in 0..ds.n_nodes() {
                if node > 0 {
                    buf.push(',');
                }
                if nan_frac > 0.0 && rng.bernoulli(nan_frac) {
                    buf.push_str("\"NaN\"");
                } else {
                    buf.push_str(&format!("{}", ds.data().get(t, node)));
                }
            }
            buf.push(']');
        }
        buf.push_str("]}\n");
    }
    match out_path {
        Some(p) => {
            std::fs::write(&p, buf.as_bytes()).map_err(|e| format!("{}: {e}", p.display()))?;
            let _ = writeln!(out, "wrote {count} request(s) to {}", p.display());
        }
        None => {
            let _ = out.write_all(buf.as_bytes());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&owned, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join("deepstuq_cli_test").join(name)
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run_str(&["frobnicate"]).is_err());
    }

    #[test]
    fn missing_required_flag_errors() {
        let err = run_str(&["simulate", "--preset", "pems08"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn bad_preset_errors() {
        let err = run_str(&["simulate", "--preset", "pems99", "--out", "/tmp/x"]).unwrap_err();
        assert!(err.contains("unknown preset"), "{err}");
    }

    #[test]
    fn full_cli_workflow() {
        let data = tmp("flow.stuqd");
        let model = tmp("model.stuq");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();

        // simulate → info
        let out = run_str(&[
            "simulate",
            "--preset",
            "pems08",
            "--node-frac",
            "0.08",
            "--step-frac",
            "0.02",
            "--seed",
            "5",
            "--out",
            data_s,
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let info = run_str(&["info", "--path", data_s]).unwrap();
        assert!(info.contains("dataset:"), "{info}");

        // train → info
        let out = run_str(&[
            "train",
            "--data",
            data_s,
            "--epochs",
            "1",
            "--batch",
            "8",
            "--awa-epochs",
            "2",
            "--mc",
            "3",
            "--seed",
            "5",
            "--out",
            model_s,
        ])
        .unwrap();
        assert!(out.contains("temperature"), "{out}");
        let info = run_str(&["info", "--path", model_s]).unwrap();
        assert!(info.contains("model: DeepSTUQ"), "{info}");

        // evaluate
        let out =
            run_str(&["evaluate", "--model", model_s, "--data", data_s, "--stride", "11"]).unwrap();
        assert!(out.contains("MNLL") && out.contains("CRPS") && out.contains("reliability"));

        // forecast
        let out = run_str(&[
            "forecast", "--model", model_s, "--data", data_s, "--sensor", "1", "--window", "0",
        ])
        .unwrap();
        assert!(out.contains("95% interval"), "{out}");

        std::fs::remove_dir_all(std::env::temp_dir().join("deepstuq_cli_test")).ok();
    }

    #[test]
    fn pause_resume_matches_straight_run() {
        let dir = std::env::temp_dir().join("deepstuq_cli_resume_test");
        let data = dir.join("flow.stuqd");
        let ckpt = dir.join("ckpt");
        let m_straight = dir.join("straight.stuq");
        let m_resumed = dir.join("resumed.stuq");
        let data_s = data.to_str().unwrap().to_string();

        run_str(&[
            "simulate",
            "--preset",
            "pems08",
            "--node-frac",
            "0.08",
            "--step-frac",
            "0.02",
            "--seed",
            "9",
            "--out",
            &data_s,
        ])
        .unwrap();

        let train = |extra: &[&str], out_path: &std::path::Path| {
            let mut args = vec![
                "train",
                "--data",
                &data_s,
                "--epochs",
                "2",
                "--batch",
                "8",
                "--awa-epochs",
                "2",
                "--mc",
                "3",
                "--seed",
                "9",
            ];
            args.extend_from_slice(extra);
            let out_s = out_path.to_str().unwrap().to_string();
            args.extend_from_slice(&["--out"]);
            let mut owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            owned.push(out_s);
            let mut buf = Vec::new();
            run(&owned, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        };

        // One uninterrupted run.
        let straight = train(&[], &m_straight);
        assert!(straight.contains("temperature"), "{straight}");

        // The same run split across a pause/resume process boundary.
        let ckpt_s = ckpt.to_str().unwrap().to_string();
        let paused = train(&["--checkpoint-dir", &ckpt_s, "--epoch-budget", "1"], &m_resumed);
        assert!(paused.contains("paused in pretrain after 1/4 training epochs"), "{paused}");
        assert!(!m_resumed.exists(), "paused run must not write a model");
        // The second leg finishes pre-training and pauses one epoch into
        // AWA: three of the run's four epochs.
        let paused = train(
            &["--checkpoint-dir", &ckpt_s, "--resume", "true", "--epoch-budget", "2"],
            &m_resumed,
        );
        assert!(paused.contains("paused in awa after 3/4 training epochs"), "{paused}");
        assert!(!m_resumed.exists(), "paused run must not write a model");
        let resumed = train(&["--checkpoint-dir", &ckpt_s, "--resume", "true"], &m_resumed);
        assert!(resumed.contains("temperature"), "{resumed}");

        // Identical artefacts: resume is bit-for-bit.
        let a = std::fs::read(&m_straight).unwrap();
        let b = std::fs::read(&m_resumed).unwrap();
        assert_eq!(a, b, "resumed model must match the uninterrupted one byte-for-byte");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faulted_evaluate_reports_corruption() {
        let dir = std::env::temp_dir().join("deepstuq_cli_fault_test");
        let data = dir.join("flow.stuqd");
        let model = dir.join("model.stuq");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();

        run_str(&[
            "simulate",
            "--preset",
            "pems08",
            "--node-frac",
            "0.08",
            "--step-frac",
            "0.02",
            "--seed",
            "11",
            "--out",
            data_s,
        ])
        .unwrap();
        run_str(&[
            "train",
            "--data",
            data_s,
            "--epochs",
            "1",
            "--batch",
            "8",
            "--awa-epochs",
            "0",
            "--mc",
            "3",
            "--seed",
            "11",
            "--out",
            model_s,
        ])
        .unwrap();

        let out = run_str(&[
            "evaluate",
            "--model",
            model_s,
            "--data",
            data_s,
            "--stride",
            "11",
            "--fault-profile",
            "severe",
            "--fault-seed",
            "4",
        ])
        .unwrap();
        assert!(out.contains("fault profile severe"), "{out}");
        assert!(out.contains("corrupted"), "{out}");
        assert!(out.contains("MNLL"), "{out}");

        let err = run_str(&[
            "evaluate",
            "--model",
            model_s,
            "--data",
            data_s,
            "--fault-profile",
            "bogus",
        ])
        .unwrap_err();
        assert!(err.contains("unknown fault profile"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_checkpoint_dir_rejected() {
        let err =
            run_str(&["train", "--data", "/nonexistent", "--resume", "true", "--out", "/tmp/x"])
                .unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
    }

    #[test]
    fn odd_awa_epochs_rejected() {
        let err =
            run_str(&["train", "--data", "/nonexistent", "--awa-epochs", "3", "--out", "/tmp/x"])
                .unwrap_err();
        assert!(err.contains("even"), "{err}");
    }
}
