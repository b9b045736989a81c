//! `stuq-obs` — observability substrate for the DeepSTUQ workspace.
//!
//! One crate, three concerns (DESIGN.md §10):
//!
//! * **metrics** ([`metrics()`], [`Metrics`]) — a fixed catalog of atomic
//!   counters/gauges/histograms. Hot paths pay one relaxed atomic load to
//!   check the level plus one relaxed RMW per recorded value; nothing
//!   allocates, nothing locks.
//! * **spans** ([`span!`], [`SpanGuard`]) — hierarchical wall-clock timing
//!   (`train/awa/epoch`) aggregated per path; at `trace` each span close
//!   also emits an event. Spans are for phase/epoch granularity, not inner
//!   loops.
//! * **events** ([`emit`], [`Event`], [`flush`]) — structured JSONL records
//!   buffered in memory and flushed *whole-file* through
//!   `stuq_artifact::write_atomic_checksummed`, so the on-disk log is always
//!   complete and checksummed: a crash loses at most the events since the
//!   last flush, never yields a torn file.
//!
//! **Determinism contract**: this crate observes, it never participates.
//! No function here consumes RNG state, reorders computation, or returns a
//! value instrumented code branches on (recording APIs return `()`/`bool`
//! for tests only). Enabling `trace` therefore cannot change a single model
//! byte — CI proves it with a byte-identity cmp at `STUQ_THREADS=1/2/4`.
//!
//! Levels: `off` (everything short-circuits), `summary` (counters, gauges,
//! phase spans, epoch events — the default, <2% epoch overhead), `trace`
//! (adds per-batch/per-fan-out timing histograms and span events).

pub mod events;
pub mod manifest;
pub mod metrics;
pub mod trace;

pub use events::{parse_line, validate_events, validate_line, Event};
pub use manifest::{git_describe, PhaseTiming, RunManifest};
pub use metrics::{Counter, Gauge, Histogram, Metrics};

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Event log file name inside the telemetry directory.
pub const EVENTS_FILE: &str = "events.jsonl";
/// Prometheus exposition file name inside the telemetry directory.
pub const METRICS_FILE: &str = "metrics.prom";
/// Run manifest file name inside the telemetry directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Telemetry verbosity. Ordering matters: `Trace` implies `Summary`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Everything short-circuits; zero work beyond one atomic load.
    Off = 0,
    /// Counters, gauges, phase spans, epoch-granularity events (default).
    Summary = 1,
    /// Adds per-batch / per-fan-out timing histograms and span events.
    Trace = 2,
}

impl Level {
    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "off" => Some(Level::Off),
            "summary" => Some(Level::Summary),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Trace => "trace",
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Summary as u8);

/// Sets the global telemetry level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Current global telemetry level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Summary,
        _ => Level::Trace,
    }
}

/// Whether telemetry at `l` (or higher verbosity) is enabled. This is the
/// single hot-path gate: one relaxed atomic load.
#[inline]
pub fn enabled(l: Level) -> bool {
    LEVEL.load(Ordering::Relaxed) >= l as u8
}

/// Shorthand for `enabled(Level::Summary)`.
#[inline]
pub fn summary_enabled() -> bool {
    enabled(Level::Summary)
}

/// Shorthand for `enabled(Level::Trace)`.
#[inline]
pub fn trace_enabled() -> bool {
    enabled(Level::Trace)
}

static METRICS: Metrics = Metrics::new();

/// The global metric catalog.
#[inline]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

// --- recorder ---------------------------------------------------------------

struct Recorder {
    dir: Option<PathBuf>,
    lines: Vec<String>,
    seq: u64,
    t0: Instant,
    stage: &'static str,
    epoch: u64,
    /// Buffered-event byte bound; exceeding it seals the buffer into a
    /// checksummed `events-NNNNN.jsonl` segment (None = unbounded).
    roll_bytes: Option<u64>,
    /// Bytes currently buffered in `lines`.
    bytes: u64,
    /// Next segment number to seal.
    segment: u64,
}

fn recorder() -> MutexGuard<'static, Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER
        .get_or_init(|| {
            Mutex::new(Recorder {
                dir: None,
                lines: Vec::new(),
                seq: 0,
                t0: Instant::now(),
                stage: "init",
                epoch: 0,
                roll_bytes: None,
                bytes: 0,
                segment: 1,
            })
        })
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// (Re)initialises the recorder for a run: sets the level, points the sinks
/// at `dir` (None = in-memory only, events are dropped), clears buffered
/// events and any stale rolled segments, resets all metrics, span
/// aggregates and exemplar state, and restarts the clock.
pub fn init(dir: Option<&Path>, level: Level) {
    set_level(level);
    let mut r = recorder();
    r.dir = dir.map(Path::to_path_buf);
    r.lines.clear();
    r.seq = 0;
    r.t0 = Instant::now();
    r.stage = "init";
    r.epoch = 0;
    r.roll_bytes = None;
    r.bytes = 0;
    r.segment = 1;
    drop(r);
    if let Some(dir) = dir {
        for seg in segment_files(dir) {
            let _ = std::fs::remove_file(seg);
        }
    }
    METRICS.reset();
    spans().clear();
    trace::reset();
}

/// Bounds the in-memory event buffer: once the buffered lines exceed
/// `bytes`, they are sealed to a checksummed `events-NNNNN.jsonl` segment in
/// the sink directory and the buffer restarts (seq continues). `None`
/// removes the bound. Long-running serve loops use this so the event log
/// cannot grow without limit.
pub fn set_events_roll_bytes(bytes: Option<u64>) {
    recorder().roll_bytes = bytes.map(|b| b.max(1));
}

/// Rolled event-log segments in `dir`, in seal order (the live tail is
/// [`EVENTS_FILE`]; readers consume segments first, then the tail).
pub fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("events-") && n.ends_with(".jsonl"))
                })
                .collect()
        })
        .unwrap_or_default();
    segs.sort();
    segs
}

/// Telemetry sink directory, if one was configured via [`init`].
pub fn telemetry_dir() -> Option<PathBuf> {
    recorder().dir.clone()
}

/// Sets the stage stamped onto subsequent events (e.g. `pretrain`).
pub fn set_stage(stage: &'static str) {
    recorder().stage = stage;
}

/// Sets the epoch stamped onto subsequent events.
pub fn set_epoch(epoch: u64) {
    recorder().epoch = epoch;
}

/// Records `ev` into the event buffer (no-op when the level is `Off` or no
/// sink directory is configured). Context (`t_ms`, `seq`, `stage`, `epoch`)
/// is stamped here.
pub fn emit(ev: Event) {
    if !enabled(Level::Summary) {
        return;
    }
    let mut r = recorder();
    if r.dir.is_none() {
        return;
    }
    let t_ms = r.t0.elapsed().as_millis() as u64;
    let seq = r.seq;
    let line = ev.render(t_ms, seq, r.stage, r.epoch);
    r.seq += 1;
    r.bytes += line.len() as u64;
    r.lines.push(line);
    if r.roll_bytes.is_some_and(|max| r.bytes >= max) {
        roll_segment(&mut r);
    }
}

/// Seals the buffered lines into the next checksummed segment file. On a
/// write failure the buffer is kept (and retried on the next emit) so
/// events are never dropped silently.
fn roll_segment(r: &mut Recorder) {
    let Some(dir) = r.dir.clone() else {
        return;
    };
    let path = dir.join(format!("events-{:05}.jsonl", r.segment));
    let payload: String = r.lines.concat();
    if stuq_artifact::write_atomic_checksummed(path, payload.as_bytes()).is_ok() {
        r.segment += 1;
        r.lines.clear();
        r.bytes = 0;
    }
}

/// Flushes the buffered event log and the metric exposition to the sink
/// directory. The event log is written whole-file with a checksum trailer
/// (`stuq_artifact::write_atomic_checksummed`), so readers always see a
/// complete, verifiable file. No-op without a sink directory.
pub fn flush() -> io::Result<()> {
    trace::flush_exemplars();
    let r = recorder();
    let Some(dir) = r.dir.clone() else {
        return Ok(());
    };
    let payload: String = r.lines.concat();
    drop(r);
    stuq_artifact::write_atomic_checksummed(dir.join(EVENTS_FILE), payload.as_bytes())?;
    stuq_artifact::write_atomic(dir.join(METRICS_FILE), METRICS.expose().as_bytes())
}

/// Records a fatal error (with the process exit code about to be used) and
/// flushes, so the failure reaches the event log before the process dies.
/// Flush errors are swallowed — there is nowhere left to report them.
pub fn emit_fatal(message: &str, exit_code: i32) {
    emit(Event::new("fatal").str("message", message).uint("exit_code", exit_code as u64));
    let _ = flush();
}

/// Writes `manifest` as `manifest.json` in the sink directory (no-op
/// without one).
pub fn write_manifest(manifest: &RunManifest) -> io::Result<()> {
    let Some(dir) = telemetry_dir() else {
        return Ok(());
    };
    stuq_artifact::write_atomic(dir.join(MANIFEST_FILE), manifest.to_json().as_bytes())
}

/// Renders the current metric catalog in Prometheus text format.
pub fn expose() -> String {
    METRICS.expose()
}

// --- spans ------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SpanAgg {
    path: String,
    count: u64,
    total_s: f64,
    max_s: f64,
}

fn spans() -> MutexGuard<'static, Vec<SpanAgg>> {
    static SPANS: OnceLock<Mutex<Vec<SpanAgg>>> = OnceLock::new();
    SPANS
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one span; created by [`span!`]. Timing runs from creation
/// to drop. Nested guards on the same thread build hierarchical paths
/// (`train/awa/epoch`).
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Enters span `name` (a no-op guard when telemetry is `off`).
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled(Level::Summary) {
            return SpanGuard { name, start: None };
        }
        SPAN_STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard { name, start: Some(Instant::now()) }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let seconds = start.elapsed().as_secs_f64();
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            // Defensive: only pop our own frame (a leaked guard dropped out
            // of order must not corrupt sibling paths).
            if stack.last() == Some(&self.name) {
                stack.pop();
            }
            path
        });
        {
            let mut aggs = spans();
            match aggs.iter_mut().find(|a| a.path == path) {
                Some(a) => {
                    a.count += 1;
                    a.total_s += seconds;
                    a.max_s = a.max_s.max(seconds);
                }
                None => aggs.push(SpanAgg {
                    path: path.clone(),
                    count: 1,
                    total_s: seconds,
                    max_s: seconds,
                }),
            }
        }
        if enabled(Level::Trace) {
            emit(Event::new("span").str("path", path).num("seconds", seconds));
        }
    }
}

/// Opens a timed span: `let _span = span!("pretrain");`. The span closes
/// when the guard drops. Hierarchy comes from nesting, not the name.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Span aggregates in first-entered order — the phase table for the run
/// manifest and the end-of-run summary.
pub fn span_timings() -> Vec<PhaseTiming> {
    spans()
        .iter()
        .map(|a| PhaseTiming {
            path: a.path.clone(),
            count: a.count,
            total_s: a.total_s,
            max_s: a.max_s,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Obs globals (recorder, metrics, spans) are process-wide; tests that
    /// touch them serialise on this lock.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("stuq_obs_test").join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn off_level_drops_everything() {
        let _l = test_lock();
        let dir = tmpdir("off");
        std::fs::remove_file(dir.join(EVENTS_FILE)).ok();
        init(Some(&dir), Level::Off);
        emit(Event::new("calibrate").num("temperature", 1.0));
        {
            let _span = span!("ignored");
        }
        assert_eq!(recorder().lines.len(), 0);
        assert!(span_timings().is_empty());
        init(None, Level::Summary);
    }

    #[test]
    fn events_flush_checksummed_and_validate() {
        let _l = test_lock();
        let dir = tmpdir("flush");
        init(Some(&dir), Level::Summary);
        set_stage("pretrain");
        set_epoch(2);
        emit(
            Event::new("run_start")
                .str("cmd", "train")
                .str("level", "summary")
                .uint("seed", 7)
                .uint("threads", 2),
        );
        emit(Event::new("epoch_end").num("loss", 0.5).num("seconds", 0.01));
        flush().unwrap();
        let payload = stuq_artifact::read_verified(dir.join(EVENTS_FILE)).unwrap();
        let text = String::from_utf8(payload).unwrap();
        assert_eq!(validate_events(&text).unwrap(), 2);
        assert!(text.contains("\"stage\":\"pretrain\""));
        assert!(text.contains("\"epoch\":2"));
        let prom = std::fs::read_to_string(dir.join(METRICS_FILE)).unwrap();
        assert!(prom.contains("stuq_opt_steps_total"));
        init(None, Level::Summary);
    }

    #[test]
    fn sink_survives_mid_write_abort() {
        let _l = test_lock();
        let dir = tmpdir("abort");
        init(Some(&dir), Level::Summary);
        emit(Event::new("calibrate").num("temperature", 0.9));
        flush().unwrap();
        let good = std::fs::read(dir.join(EVENTS_FILE)).unwrap();

        // Simulate a crash mid-write: a torn file (truncated before the
        // checksum trailer) must be *detected*, not half-parsed.
        std::fs::write(dir.join(EVENTS_FILE), &good[..good.len() / 2]).unwrap();
        let err = stuq_artifact::read_verified(dir.join(EVENTS_FILE)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // The atomic writer itself never produces that state: re-flush
        // replaces the file wholesale and it verifies again.
        emit(Event::new("mc_forecast").uint("samples", 8));
        flush().unwrap();
        let payload = stuq_artifact::read_verified(dir.join(EVENTS_FILE)).unwrap();
        assert_eq!(validate_events(std::str::from_utf8(&payload).unwrap()).unwrap(), 2);
        init(None, Level::Summary);
    }

    #[test]
    fn event_log_rolls_into_checksummed_segments() {
        let _l = test_lock();
        let dir = tmpdir("roll");
        std::fs::remove_file(dir.join(EVENTS_FILE)).ok();
        init(Some(&dir), Level::Summary);
        set_events_roll_bytes(Some(256));
        for _ in 0..24 {
            emit(Event::new("eval").uint("windows", 1));
        }
        flush().unwrap();
        let segs = segment_files(&dir);
        assert!(segs.len() >= 2, "24 events over a 256-byte bound must roll");
        // Segments then the live tail concatenate into one valid stream —
        // seq stays strictly increasing across the roll boundaries.
        let mut files = segs.clone();
        files.push(dir.join(EVENTS_FILE));
        let mut text = String::new();
        for p in &files {
            text.push_str(&String::from_utf8(stuq_artifact::read_verified(p).unwrap()).unwrap());
        }
        assert_eq!(validate_events(&text).unwrap(), 24);
        // Re-init clears stale segments so a new run cannot mix with them.
        init(Some(&dir), Level::Summary);
        assert!(segment_files(&dir).is_empty());
        init(None, Level::Summary);
    }

    #[test]
    fn exemplar_events_flush_for_partial_windows() {
        let _l = test_lock();
        let dir = tmpdir("exemplar");
        init(Some(&dir), Level::Trace);
        for i in 0..7u64 {
            trace::note_request(trace::derive_trace_id(3, i), 0.001 * (i + 1) as f64);
        }
        flush().unwrap();
        let text = String::from_utf8(stuq_artifact::read_verified(dir.join(EVENTS_FILE)).unwrap())
            .unwrap();
        let n = text.matches("\"type\":\"trace_exemplar\"").count();
        assert_eq!(n, 4, "partial window keeps only the worst-N: {text}");
        // The slowest request of the window is among the exemplars.
        assert!(text.contains(&trace::fmt_id(trace::derive_trace_id(3, 6))), "{text}");
        validate_events(&text).unwrap();
        assert_eq!(metrics().trace_exemplars.get(), 4);
        init(None, Level::Summary);
    }

    #[test]
    fn nested_spans_build_hierarchical_paths() {
        let _l = test_lock();
        init(None, Level::Summary);
        {
            let _outer = span!("train");
            {
                let _inner = span!("epoch");
            }
            {
                let _inner = span!("epoch");
            }
        }
        let timings = span_timings();
        let epoch = timings.iter().find(|t| t.path == "train/epoch").expect("train/epoch");
        assert_eq!(epoch.count, 2);
        let train = timings.iter().find(|t| t.path == "train").expect("train");
        assert_eq!(train.count, 1);
        assert!(train.total_s >= epoch.total_s);
        init(None, Level::Summary);
    }

    #[test]
    fn emit_without_dir_is_dropped() {
        let _l = test_lock();
        init(None, Level::Summary);
        emit(Event::new("eval").uint("windows", 3));
        assert_eq!(recorder().lines.len(), 0, "no sink dir -> no buffering");
    }

    #[test]
    fn fatal_reaches_disk() {
        let _l = test_lock();
        let dir = tmpdir("fatal");
        init(Some(&dir), Level::Summary);
        emit_fatal("model file corrupt", 1);
        let payload = stuq_artifact::read_verified(dir.join(EVENTS_FILE)).unwrap();
        let text = String::from_utf8(payload).unwrap();
        assert_eq!(validate_events(&text).unwrap(), 1);
        assert!(text.contains("\"type\":\"fatal\""));
        assert!(text.contains("\"exit_code\":1"));
        init(None, Level::Summary);
    }
}
