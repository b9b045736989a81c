//! Load generation: one generator thread writing request lines into a pipe
//! that the serve loop reads, and a sink that timestamps every response
//! line.
//!
//! Two shapes:
//! - closed loop ([`run_rounds`]): the generator sends a round of requests
//!   at once and waits for all of their answers before the next round;
//! - open loop ([`run_stream`]): requests go out on a seeded arrival
//!   schedule, and latency is measured from each request's *intended* send
//!   time, so a stall in the server also charges the requests the generator
//!   would have sent during it (no coordinated omission). The schedule
//!   depends only on the seed, never on responses.

use std::io::{BufReader, PipeReader, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use stuq_serve::ServeSummary;

use crate::hostspeed::HostRef;
use crate::stats::process_cpu_s;
use stuq_tensor::StuqRng;

/// Poisson arrival offsets (seconds) at `rate` over `[start, start + secs)`.
///
/// The arrival count is fixed at `rate · secs` and the gaps are stratified
/// exponential draws — one per equal-probability stratum, in seeded random
/// order, rescaled to span the phase exactly. Each gap is still exponential;
/// what the seed no longer moves is the realised rate and the gap mix, which
/// would otherwise dominate the run-to-run spread of the latency tail.
pub fn poisson(rng: &mut StuqRng, rate: f64, start: f64, secs: f64) -> Vec<f64> {
    let n = (rate * secs).round().max(1.0) as usize;
    let mut gaps: Vec<f64> = (0..n)
        .map(|j| {
            let q = (j as f64 + rng.uniform_f64()) / n as f64;
            -(1.0 - q).max(1e-12).ln()
        })
        .collect();
    rng.shuffle(&mut gaps);
    let scale = secs / gaps.iter().sum::<f64>();
    let mut t = start;
    gaps.iter()
        .map(|g| {
            let at = t;
            t += g * scale;
            at
        })
        .collect()
}

/// One response line as the sink saw it.
pub struct Resp {
    /// Completion offset (seconds since the sink's time origin).
    pub at: f64,
    /// The request it answers (`"id":"r<i>"`).
    pub idx: Option<usize>,
    /// True for a `forecast` response.
    pub forecast: bool,
    /// The `cache_hit` annotation.
    pub cache_hit: bool,
    /// The `batch_size` annotation (0 when absent).
    pub batch_size: usize,
    /// Line length in bytes, newline included.
    pub bytes: usize,
    /// The full line, kept for every `keep_every`-th request only.
    pub line: Option<String>,
    /// The host reference the serving thread ran right after writing this
    /// line, if it ran one.
    pub mark: Option<Mark>,
}

/// A host reference timed on the serving thread, with the process's CPU
/// time just before and just after it (and after any side work).
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Wall and thread CPU seconds the reference took.
    pub ref_wall_s: f64,
    pub ref_cpu_s: f64,
    /// Thread CPU seconds of the side work run right after the reference,
    /// if this mark ran it.
    pub side_cpu_s: Option<f64>,
    /// Process CPU seconds before the reference and after the side work.
    pub cpu_before: f64,
    pub cpu_after: f64,
}

/// Work the serving thread runs inside some marks, right after the
/// reference; returns its thread CPU seconds (NaN if it failed).
pub type SideWork = Box<dyn FnMut() -> f64 + Send>;

impl Resp {
    fn parse(at: f64, line: String, keep_every: usize) -> Resp {
        let idx = field(&line, "\"id\":\"r", '"').and_then(|v| v.parse().ok());
        let batch_size = field(&line, "\"batch_size\":", ',').and_then(|v| v.parse().ok());
        Resp {
            at,
            idx,
            forecast: line.starts_with("{\"type\":\"forecast\""),
            cache_hit: line.contains("\"cache_hit\":true"),
            batch_size: batch_size.unwrap_or(0),
            bytes: line.len() + 1,
            line: idx.filter(|i| i % keep_every == 0).map(|_| line),
            mark: None,
        }
    }
}

/// The text between `key` and the next `end` in `line`.
fn field<'a>(line: &'a str, key: &str, end: char) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let len = line[start..].find(end)?;
    Some(&line[start..start + len])
}

/// A `Write` sink that splits the server's output into lines, stamps each
/// one when its newline arrives and hands it to the generator's side.
///
/// The serve loop writes from the thread that answers requests, so a host
/// reference timed here runs under the same conditions as the requests:
/// with `host`, after every `n`-th line (once the line is stamped), and
/// with `side`, the side work after every `m`-th reference.
struct Sink {
    t0: Instant,
    pending: Vec<u8>,
    tx: Sender<Resp>,
    keep_every: usize,
    host: Option<(HostRef, usize)>,
    side: Option<(SideWork, usize)>,
    lines: usize,
    marks: usize,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
            let at = self.t0.elapsed().as_secs_f64();
            let rest = self.pending.split_off(pos + 1);
            let mut line = std::mem::replace(&mut self.pending, rest);
            line.pop();
            let line = String::from_utf8(line).expect("responses are UTF-8");
            let mut resp = Resp::parse(at, line, self.keep_every);
            self.lines += 1;
            if let Some((host, n)) = &mut self.host {
                if self.lines.is_multiple_of(*n) {
                    let cpu_before = process_cpu_s();
                    let (ref_wall_s, ref_cpu_s) = host.time_both();
                    self.marks += 1;
                    let side_cpu_s = match &mut self.side {
                        Some((work, m)) if self.marks.is_multiple_of(*m) => Some(work()),
                        _ => None,
                    };
                    let cpu_after = process_cpu_s();
                    resp.mark =
                        Some(Mark { ref_wall_s, ref_cpu_s, side_cpu_s, cpu_before, cpu_after });
                }
            }
            // The receiver outlives the serve loop; a send cannot fail.
            let _ = self.tx.send(resp);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The serve-loop side of a stream: reads request lines until the pipe
/// closes, answers each into the sink, and returns its exit counters.
pub type Serve<'a> =
    dyn FnOnce(BufReader<PipeReader>, Box<dyn Write + Send>) -> ServeSummary + Send + 'a;

/// A pipe into `serve` running on its own thread, and a channel of the
/// response lines it writes; with `ref_every`, the serving thread times the
/// host reference after every that many lines, and runs `side` as the
/// sink's side work.
fn with_server<'s, T>(
    t0: Instant,
    keep_every: usize,
    ref_every: Option<usize>,
    side: Option<(SideWork, usize)>,
    serve: Box<Serve<'s>>,
    drive: impl FnOnce(&mut std::io::PipeWriter, &Receiver<Resp>) -> T,
) -> (T, Vec<Resp>, ServeSummary) {
    let (reader, mut writer) = std::io::pipe().expect("create pipe");
    let (tx, rx) = channel();
    let sink = Sink {
        t0,
        pending: Vec::new(),
        tx,
        keep_every: keep_every.max(1),
        host: ref_every.map(|n| (HostRef::default(), n.max(1))),
        side: side.map(|(work, m)| (work, m.max(1))),
        lines: 0,
        marks: 0,
    };
    std::thread::scope(|s| {
        let server = s.spawn(move || serve(BufReader::new(reader), Box::new(sink)));
        let out = drive(&mut writer, &rx);
        drop(writer);
        let summary = server.join().expect("serve thread panicked");
        // Every line was written before the loop returned.
        (out, rx.try_iter().collect(), summary)
    })
}

/// What one closed-loop segment produced.
pub struct ClosedOut {
    /// Send offset of every request.
    pub sent: Vec<f64>,
    /// Every response line, in output order.
    pub responses: Vec<Resp>,
}

/// Sends requests `0, 1, …` through `serve` in rounds of `round` requests
/// written at once, each round after every answer of the previous one, for
/// `seconds`. Request `i`'s line (with
/// newline) is `line(i, buf)`; a round's requests share the send offset of
/// its first. The serving thread times the host reference after each
/// round's last answer, and runs `side`'s work after every that many
/// references.
pub fn run_rounds(
    round: usize,
    seconds: f64,
    keep_every: usize,
    side: (SideWork, usize),
    mut line: impl FnMut(usize, &mut Vec<u8>),
    serve: Box<Serve<'_>>,
) -> ClosedOut {
    let t0 = Instant::now();
    let drive = |writer: &mut std::io::PipeWriter, rx: &Receiver<Resp>| {
        let (mut sent, mut responses) = (Vec::new(), Vec::new());
        let mut buf = Vec::with_capacity(8192);
        while t0.elapsed().as_secs_f64() < seconds {
            buf.clear();
            let at = t0.elapsed().as_secs_f64();
            for _ in 0..round {
                line(sent.len(), &mut buf);
                sent.push(at);
            }
            writer.write_all(&buf).expect("write request lines");
            for _ in 0..round {
                responses.push(rx.recv().expect("the serve loop answers every request"));
            }
        }
        (sent, responses)
    };
    let ((sent, mut responses), rest, _) =
        with_server(t0, keep_every, Some(round), Some(side), serve, drive);
    responses.extend(rest);
    ClosedOut { sent, responses }
}

/// What one open-loop stream produced.
pub struct StreamOut {
    /// Actual send offset of every request, in schedule order.
    pub sent: Vec<f64>,
    /// Every response line, in output order.
    pub responses: Vec<Resp>,
    /// Process CPU seconds the stream used.
    pub cpu_s: f64,
    /// The serve loop's exit counters.
    pub summary: ServeSummary,
}

/// Drives `serve` with the requests `line(i)` due at offsets `due[i]`;
/// returns once the pipe closes and every admitted request is answered.
/// The generator runs on the calling thread, `serve` on its own.
pub fn run_stream(
    due: &[f64],
    mut line: impl FnMut(usize, &mut Vec<u8>),
    serve: Box<Serve<'_>>,
) -> StreamOut {
    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let drive = |writer: &mut std::io::PipeWriter, _: &Receiver<Resp>| {
        let mut sent = Vec::with_capacity(due.len());
        let mut buf = Vec::with_capacity(8192);
        for (i, &d) in due.iter().enumerate() {
            buf.clear();
            line(i, &mut buf);
            sleep_until(t0, d);
            sent.push(t0.elapsed().as_secs_f64());
            writer.write_all(&buf).expect("write request line");
        }
        sent
    };
    let (sent, responses, summary) = with_server(t0, usize::MAX, None, None, serve, drive);
    StreamOut { sent, responses, cpu_s: process_cpu_s() - cpu0, summary }
}

fn sleep_until(t0: Instant, offset: f64) {
    let due = t0 + Duration::from_secs_f64(offset);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}
