//! Worker-process supervision for the cluster router (DESIGN.md §13).
//!
//! [`ProcWorker`] owns one worker end to end: it spawns the `stuq serve
//! --role worker` child, connects to its Unix socket, and implements the
//! [`ShardWorker`] transport the
//! [`Router`](crate::router::Router) drives. Supervision is deliberately
//! *wall-clock*: crash detection (EOF/timeout on an RPC, failed liveness
//! ping) and exponentially backed-off restarts are real-time concerns, and
//! the determinism contract covers only the response byte stream — which
//! depends on *which* workers are up, never on when the supervisor noticed.
//!
//! Restart protocol: kill → back off ([`Backoff`], doubling to a cap, with
//! seeded bounded jitter so R replicas killed together don't restart in
//! lock-step) → respawn → reconnect. Workers hold no shard state — every
//! `passes` request names its sample range — so a rejoining worker serves
//! the next range it is sent. A worker that was mid-`prepare_reload` when
//! it died simply rejoins unstaged; the router's two-phase commit already
//! treats any non-acking worker as an abort.
//!
//! With replicated shards (DESIGN.md §16) one `ProcWorker` supervises one
//! *(shard, replica)* pair; replicas are identical except for their socket
//! and telemetry paths.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::router::{ShardWorker, SupEvent, WorkerState};
use stuq_obs::Event;
use stuq_tensor::StuqRng;

/// Exponential backoff with a cap: `base, 2·base, 4·base, … , max` — plus
/// optional seeded jitter of up to +25% per delay, so workers that die
/// together don't hammer the supervisor with synchronized restart storms.
#[derive(Clone, Debug)]
pub struct Backoff {
    base_ms: u64,
    max_ms: u64,
    cur_ms: u64,
    jitter: Option<StuqRng>,
}

impl Backoff {
    /// Starts at `base_ms` (clamped ≥ 1), capped at `max_ms`. No jitter:
    /// delays are the exact doubling sequence.
    pub fn new(base_ms: u64, max_ms: u64) -> Self {
        let base_ms = base_ms.max(1);
        Backoff { base_ms, max_ms: max_ms.max(base_ms), cur_ms: base_ms, jitter: None }
    }

    /// Like [`Backoff::new`], with deterministic jitter drawn from `seed`.
    /// Each delay is stretched by a seeded draw in `[0, delay/4]` — bounded,
    /// so the cap is exceeded by at most 25%, and reproducible, so a rerun
    /// with the same seed restarts on the same schedule.
    pub fn seeded(base_ms: u64, max_ms: u64, seed: u64) -> Self {
        Backoff { jitter: Some(StuqRng::new(seed)), ..Self::new(base_ms, max_ms) }
    }

    /// The delay to wait *now*; doubles the next one (up to the cap).
    pub fn next_delay(&mut self) -> u64 {
        let d = self.cur_ms;
        self.cur_ms = (self.cur_ms.saturating_mul(2)).min(self.max_ms);
        match &mut self.jitter {
            Some(rng) => d + rng.next_u64() % (d / 4 + 1),
            None => d,
        }
    }

    /// Back to the base delay (called after a successful restart). The
    /// jitter stream is deliberately *not* rewound: two workers that have
    /// restarted different numbers of times stay desynchronized.
    pub fn reset(&mut self) {
        self.cur_ms = self.base_ms;
    }
}

/// Everything needed to (re)spawn one worker process.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// Shard index this worker serves.
    pub shard: usize,
    /// Replica index within the shard (0 for single-replica clusters).
    pub replica: usize,
    /// Seed for restart-backoff jitter — derived per worker so replicas
    /// killed together back off on distinct schedules.
    pub jitter_seed: u64,
    /// Worker executable (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Full argument list after the executable (`serve --role worker …`).
    pub args: Vec<String>,
    /// The Unix socket the worker listens on.
    pub socket: PathBuf,
    /// Liveness ping cadence while idle.
    pub ping_interval_ms: u64,
    /// Initial restart backoff.
    pub backoff_ms: u64,
    /// Backoff cap.
    pub backoff_max_ms: u64,
    /// How long to wait for the freshly spawned worker's socket.
    pub connect_timeout_ms: u64,
}

/// A connected worker socket with line-framing state that survives read
/// timeouts: bytes of a response that arrived before a deadline fired stay
/// in `partial` instead of being silently discarded, so the next receive
/// resumes mid-line rather than desynchronizing the stream.
pub(crate) struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    /// Bytes of the current response line read so far, not yet
    /// newline-terminated.
    partial: Vec<u8>,
}

/// Per-poll read-timeout slice. Short enough that `recv_line` re-checks its
/// overall deadline promptly even when the kernel timeout rounds up; long
/// enough to stay off the scheduler's back.
const POLL_SLICE_MS: u64 = 50;

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("socket clone: {e}"))?);
        Ok(Conn { stream, reader, partial: Vec::new() })
    }

    fn send_line(&mut self, line: &str) -> Result<(), String> {
        self.stream.write_all(line.as_bytes()).map_err(|e| format!("write: {e}"))?;
        self.stream.write_all(b"\n").map_err(|e| format!("write: {e}"))
    }

    /// One bounded read attempt: `Ok(Some(line))` on a complete line,
    /// `Ok(None)` if the timeout fired first (partial bytes retained),
    /// `Err` on EOF or a transport error.
    fn poll_line(&mut self, timeout_ms: u64) -> Result<Option<String>, String> {
        self.stream
            .set_read_timeout(Some(Duration::from_millis(timeout_ms.max(1))))
            .map_err(|e| format!("set timeout: {e}"))?;
        let mut buf = std::mem::take(&mut self.partial);
        match self.reader.read_until(b'\n', &mut buf) {
            // Ok without a trailing newline means EOF — the peer closed
            // mid-line (or idle); either way the stream is dead.
            Ok(_) if buf.last() == Some(&b'\n') => {
                // The buffer becomes the line; only non-UTF-8 bytes (which
                // then fail to parse as a reply) take the lossy copy.
                let mut line = String::from_utf8(buf)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
                line.truncate(line.trim_end().len());
                Ok(Some(line))
            }
            Ok(_) => Err("eof".into()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // read_until appends whatever arrived before the timeout;
                // keep it for the next poll.
                self.partial = buf;
                Ok(None)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Blocks until a complete line or the deadline. A timeout mid-line
    /// leaves the partial bytes buffered for a later attempt.
    fn recv_line(&mut self, timeout_ms: u64) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_millis(timeout_ms.max(1));
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("rpc_timeout".into());
            }
            let slice = (left.as_millis() as u64).clamp(1, POLL_SLICE_MS);
            if let Some(line) = self.poll_line(slice)? {
                return Ok(line);
            }
        }
    }
}

/// One supervised worker process behind a Unix socket.
pub struct ProcWorker {
    spec: WorkerSpec,
    backoff: Backoff,
    child: Option<Child>,
    conn: Option<Conn>,
    state: WorkerState,
    restarts: u64,
    /// Earliest wall-clock instant the next restart attempt may run.
    next_restart_at: Option<Instant>,
    /// Last successful round-trip (any RPC counts as liveness).
    last_ok: Instant,
    /// When the most recent successful restart completed.
    last_restart: Option<Instant>,
}

impl ProcWorker {
    /// Spawns the worker and connects. A failed first start leaves the
    /// worker `Down` with a restart scheduled — the supervisor retries on
    /// subsequent ticks rather than failing the whole cluster.
    pub fn spawn(spec: WorkerSpec) -> ProcWorker {
        let backoff = Backoff::seeded(spec.backoff_ms, spec.backoff_max_ms, spec.jitter_seed);
        let mut w = ProcWorker {
            spec,
            backoff,
            child: None,
            conn: None,
            state: WorkerState::Down,
            restarts: 0,
            next_restart_at: None,
            last_ok: Instant::now(),
            last_restart: None,
        };
        if let Err(e) = w.start_process() {
            eprintln!("serve: worker {}/{} failed to start: {e}", w.spec.shard, w.spec.replica);
            let delay = w.backoff.next_delay();
            w.next_restart_at = Some(Instant::now() + Duration::from_millis(delay));
        }
        w
    }

    /// Kill (if needed), spawn, wait for the socket, connect. The worker
    /// binds its socket only once its model is loaded, so a connection
    /// means it is ready: the worker is `Up` with backoff reset.
    fn start_process(&mut self) -> Result<(), String> {
        self.kill_child();
        // A stale socket from the previous incarnation must not satisfy the
        // connect loop below.
        let _ = std::fs::remove_file(&self.spec.socket);
        let child = Command::new(&self.spec.exe)
            .args(&self.spec.args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.spec.exe.display()))?;
        self.child = Some(child);
        stuq_obs::emit(
            Event::new("worker_spawn")
                .uint("shard", self.spec.shard as u64)
                .uint("replica", self.spec.replica as u64),
        );

        let deadline = Instant::now() + Duration::from_millis(self.spec.connect_timeout_ms.max(1));
        let stream = loop {
            match UnixStream::connect(&self.spec.socket) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    // A child that died before binding will never bind.
                    if let Some(c) = &mut self.child {
                        if let Ok(Some(status)) = c.try_wait() {
                            self.child = None;
                            return Err(format!("worker exited during startup: {status}"));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    self.kill_child();
                    return Err(format!("connect {}: {e}", self.spec.socket.display()));
                }
            }
        };
        self.conn = Some(Conn::new(stream)?);
        self.state = WorkerState::Up;
        self.last_ok = Instant::now();
        self.next_restart_at = None;
        self.backoff.reset();
        Ok(())
    }

    /// One raw round-trip on the socket with a real-time read deadline.
    /// The receive loops on the deadline until a full line arrives — a
    /// timeout mid-line keeps the partial bytes buffered rather than
    /// silently discarding them.
    fn rpc(&mut self, line: &str, timeout_ms: u64) -> Result<String, String> {
        let Some(conn) = &mut self.conn else {
            return Err("worker_down".into());
        };
        conn.send_line(line)?;
        let resp = conn.recv_line(timeout_ms)?;
        self.last_ok = Instant::now();
        Ok(resp)
    }

    /// Transition to `Down`: drop the connection, kill the process, and
    /// schedule the next (backed-off) restart attempt. Idempotent.
    fn mark_down(&mut self) {
        if self.state == WorkerState::Down && self.conn.is_none() {
            return;
        }
        self.state = WorkerState::Down;
        self.conn = None;
        self.kill_child();
        let delay = self.backoff.next_delay();
        self.next_restart_at = Some(Instant::now() + Duration::from_millis(delay));
    }

    fn kill_child(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

impl ShardWorker for ProcWorker {
    fn call(&mut self, line: &str, timeout_ms: u64) -> Result<String, String> {
        if self.state == WorkerState::Down {
            return Err("worker_down".into());
        }
        match self.rpc(line, timeout_ms) {
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.mark_down();
                Err(e)
            }
        }
    }

    fn state(&self) -> WorkerState {
        self.state
    }

    fn fail(&mut self, _reason: &str) {
        self.mark_down();
    }

    fn tick(&mut self) -> Vec<SupEvent> {
        let mut evs = Vec::new();
        match self.state {
            WorkerState::Up => {
                // Liveness ping when idle: a worker that answered an RPC
                // within the interval does not need one.
                let interval = Duration::from_millis(self.spec.ping_interval_ms.max(1));
                if self.last_ok.elapsed() >= interval {
                    let timeout = self.spec.ping_interval_ms.max(250);
                    if let Err(e) = self.rpc("{\"type\":\"ping\"}", timeout) {
                        self.mark_down();
                        evs.push(SupEvent::Down { reason: e });
                    }
                }
            }
            WorkerState::Down => {
                let due = self.next_restart_at.is_none_or(|t| Instant::now() >= t);
                if due {
                    match self.start_process() {
                        Ok(()) => {
                            self.restarts += 1;
                            self.last_restart = Some(Instant::now());
                            evs.push(SupEvent::Restarted { restarts: self.restarts });
                        }
                        Err(reason) => {
                            let backoff_ms = self.backoff.next_delay();
                            self.next_restart_at =
                                Some(Instant::now() + Duration::from_millis(backoff_ms));
                            evs.push(SupEvent::RestartFailed { backoff_ms, reason });
                        }
                    }
                }
            }
        }
        evs
    }

    fn restarts(&self) -> u64 {
        self.restarts
    }

    fn last_restart_ms(&self) -> Option<u64> {
        self.last_restart.map(|t| t.elapsed().as_millis() as u64)
    }

    fn settle(&mut self, grace_ms: u64) {
        // After a shutdown RPC the child exits on its own once it has
        // flushed its telemetry sinks; give it that window before Drop's
        // unconditional kill. Closing our connection first unblocks a
        // child waiting on the next request line.
        self.conn = None;
        let deadline = Instant::now() + Duration::from_millis(grace_ms);
        while let Some(c) = &mut self.child {
            match c.try_wait() {
                Ok(Some(_)) => {
                    self.child = None;
                    break;
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => break,
            }
        }
    }
}

impl Drop for ProcWorker {
    fn drop(&mut self) {
        self.kill_child();
        let _ = std::fs::remove_file(&self.spec.socket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_cap() {
        let mut b = Backoff::new(100, 750);
        assert_eq!(b.next_delay(), 100);
        assert_eq!(b.next_delay(), 200);
        assert_eq!(b.next_delay(), 400);
        assert_eq!(b.next_delay(), 750, "capped, not 800");
        assert_eq!(b.next_delay(), 750, "stays at the cap");
    }

    #[test]
    fn backoff_reset_returns_to_base() {
        let mut b = Backoff::new(50, 1000);
        let _ = b.next_delay();
        let _ = b.next_delay();
        b.reset();
        assert_eq!(b.next_delay(), 50);
    }

    #[test]
    fn backoff_clamps_degenerate_inputs() {
        let mut b = Backoff::new(0, 0);
        assert_eq!(b.next_delay(), 1, "base clamps to 1ms");
        assert_eq!(b.next_delay(), 1, "cap clamps to base");
    }

    #[test]
    fn jitter_is_bounded_by_a_quarter_of_the_delay() {
        for seed in 0..32u64 {
            let mut b = Backoff::seeded(100, 750, seed);
            for base in [100u64, 200, 400, 750, 750, 750] {
                let d = b.next_delay();
                assert!(
                    (base..=base + base / 4).contains(&d),
                    "seed {seed}: delay {d} outside [{base}, {}]",
                    base + base / 4
                );
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let seq = |seed: u64| {
            let mut b = Backoff::seeded(100, 750, seed);
            (0..6).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7), "same seed replays the same schedule");
        // Replicas killed together must not restart in lock-step: some
        // pair of seeds has to disagree somewhere.
        let distinct: std::collections::HashSet<Vec<u64>> = (0..8).map(seq).collect();
        assert!(distinct.len() > 1, "every seed produced the same schedule");
    }

    #[test]
    fn jitter_reset_keeps_the_stream_position() {
        let mut a = Backoff::seeded(100, 750, 3);
        let mut b = Backoff::seeded(100, 750, 3);
        let _ = a.next_delay();
        let _ = b.next_delay();
        a.reset();
        // Same base delay after reset, but the jitter draw continues the
        // stream — it must match b's next draw scaled to b's larger base
        // only in the RNG sense, so just check the bound.
        let d = a.next_delay();
        assert!((100..=125).contains(&d), "reset returns to base (+jitter): {d}");
    }

    #[test]
    fn recv_line_survives_a_mid_line_stall() {
        use std::io::Write as _;
        let (a, b) = UnixStream::pair().unwrap();
        let mut conn = Conn::new(a).unwrap();
        let writer = std::thread::spawn(move || {
            let mut b = b;
            b.write_all(b"{\"type\":\"ack\",").unwrap();
            b.flush().unwrap();
            // Stall long enough that at least one poll slice times out
            // mid-line, then finish the line.
            std::thread::sleep(Duration::from_millis(3 * POLL_SLICE_MS));
            b.write_all(b"\"ok\":true}\n").unwrap();
            b
        });
        let line = conn.recv_line(5_000).expect("stalled line must still arrive");
        assert_eq!(line, "{\"type\":\"ack\",\"ok\":true}");
        let _keep_alive = writer.join().unwrap();
    }

    #[test]
    fn a_timed_out_read_keeps_partial_bytes_for_the_next_attempt() {
        use std::io::Write as _;
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut conn = Conn::new(a).unwrap();
        b.write_all(b"{\"type\":\"ack\",").unwrap();
        b.flush().unwrap();
        // The regression: the old transport discarded these bytes on
        // timeout, so the next read returned the tail of the line as
        // garbage and desynchronized the stream.
        assert_eq!(conn.recv_line(60), Err("rpc_timeout".to_string()));
        b.write_all(b"\"ok\":true}\n").unwrap();
        let line = conn.recv_line(5_000).unwrap();
        assert_eq!(line, "{\"type\":\"ack\",\"ok\":true}", "partial bytes were dropped");
    }

    #[test]
    fn lines_are_trimmed_and_non_utf8_bytes_arrive_lossy() {
        use std::io::Write as _;
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut conn = Conn::new(a).unwrap();
        b.write_all(b"{\"type\":\"pa\xffes\"} \r\n{\"type\":\"ack\"}\t\n").unwrap();
        let bad = conn.recv_line(5_000).unwrap();
        assert_eq!(bad, "{\"type\":\"pa\u{fffd}es\"}");
        // The router classifies it as a garbled reply (`worker_error`).
        assert!(crate::proto::parse_worker_resp(&bad).is_err());
        assert_eq!(conn.recv_line(5_000).unwrap(), "{\"type\":\"ack\"}");
    }
}
