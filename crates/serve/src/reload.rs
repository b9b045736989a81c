//! Hot model reload: validation off the request path, atomic swap on it.
//!
//! A watcher thread polls the model artifact for content changes (FNV-1a
//! checksum of the raw file bytes — the same hash the artifact trailer
//! uses). When the bytes change it runs the *expensive* work right there:
//! checksum verification, a full parse into a candidate [`DeepStuq`] and
//! the check that the server can answer for it (no covariate models).
//! Only the finished [`Validated`] result crosses the channel; the serve
//! worker picks it up between requests, performs the *cheap* work
//! (shape-compatibility check + pointer swap) and emits `reload_ok` /
//! `reload_rollback`. A failed validation never touches the serving model —
//! the rollback is "keep what you have", logged.
//!
//! The watcher remembers the last checksum it inspected, so a corrupt
//! artifact is reported once, not on every poll.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use deepstuq::DeepStuq;

/// A fully validated (or failed) reload candidate.
#[derive(Debug)]
pub struct Validated {
    /// The watched artifact path.
    pub path: PathBuf,
    /// FNV-1a 64 of the file bytes, as 16 hex digits.
    pub checksum: String,
    /// The parsed candidate, or why validation failed.
    pub result: Result<DeepStuq, String>,
}

/// Checksum of a file's raw bytes, as stamped on events and health output.
pub fn file_checksum(bytes: &[u8]) -> String {
    format!("{:016x}", stuq_artifact::fnv1a64(bytes))
}

/// Parses a model artifact and checks that this server can answer for it:
/// a model that reads covariates is refused, because requests carry no
/// weather and it would be fed a zeroed channel. Shared by
/// [`crate::Server::new`], [`validate`] and the [`Watcher`].
pub(crate) fn load_servable(bytes: &[u8]) -> Result<DeepStuq, String> {
    let model = deepstuq::load_model_bytes(bytes).map_err(|e| e.to_string())?;
    let c = model.model().config().n_covariates;
    if c > 0 {
        return Err(format!(
            "the model reads {c} covariate channel(s), but serving requests carry no \
             weather, so it would forecast from zeroed covariates"
        ));
    }
    Ok(model)
}

/// Reads and validates `path` right now (the synchronous `reload` request).
pub fn validate(path: &Path) -> Validated {
    match std::fs::read(path) {
        Err(e) => Validated {
            path: path.to_path_buf(),
            checksum: "0".repeat(16),
            result: Err(format!("read failed: {e}")),
        },
        Ok(bytes) => {
            let checksum = file_checksum(&bytes);
            Validated { path: path.to_path_buf(), checksum, result: load_servable(&bytes) }
        }
    }
}

/// The polling watcher thread handle.
#[derive(Debug)]
pub struct Watcher {
    rx: Receiver<Validated>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watcher {
    /// Spawns a watcher polling `path` every `poll_ms` milliseconds.
    /// `initial_checksum` is the checksum of the currently served artifact,
    /// so an unchanged file is never re-validated.
    pub fn spawn(path: PathBuf, poll_ms: u64, initial_checksum: String) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let (tx, rx): (Sender<Validated>, Receiver<Validated>) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut last_seen = initial_checksum;
            let poll = Duration::from_millis(poll_ms.max(1));
            while !stop_flag.load(Ordering::Relaxed) {
                // Sleep in short slices so drop() returns promptly.
                let mut slept = Duration::ZERO;
                while slept < poll && !stop_flag.load(Ordering::Relaxed) {
                    let slice = Duration::from_millis(20).min(poll - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(bytes) = std::fs::read(&path) else {
                    continue; // transient: mid-rename or deleted
                };
                let checksum = file_checksum(&bytes);
                if checksum == last_seen {
                    continue;
                }
                last_seen = checksum.clone();
                let result = load_servable(&bytes);
                if tx.send(Validated { path: path.clone(), checksum, result }).is_err() {
                    break; // server gone
                }
            }
        });
        Self { rx, stop, handle: Some(handle) }
    }

    /// The next validated candidate, if one is waiting. Non-blocking — this
    /// is the only reload call on the request path.
    pub fn try_recv(&self) -> Option<Validated> {
        self.rx.try_recv().ok()
    }
}

impl Drop for Watcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_reports_missing_and_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("stuq_serve_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = validate(&dir.join("nope.stuq"));
        assert!(missing.result.is_err());
        let bad = dir.join("garbage.stuq");
        std::fs::write(&bad, b"definitely not a model").unwrap();
        let v = validate(&bad);
        assert!(v.result.is_err(), "corrupt bytes must be a typed failure");
        assert_eq!(v.checksum.len(), 16);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watcher_reports_content_changes_once() {
        let dir = std::env::temp_dir().join(format!("stuq_serve_watch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.stuq");
        std::fs::write(&path, b"v1").unwrap();
        let initial = file_checksum(b"v1");
        let w = Watcher::spawn(path.clone(), 5, initial);
        assert!(w.try_recv().is_none(), "unchanged file must not be reported");
        std::fs::write(&path, b"v2-corrupt").unwrap();
        let mut got = None;
        for _ in 0..200 {
            if let Some(v) = w.try_recv() {
                got = Some(v);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let v = got.expect("watcher must report the change");
        assert_eq!(v.checksum, file_checksum(b"v2-corrupt"));
        assert!(v.result.is_err());
        // Same bytes again: no duplicate report.
        std::thread::sleep(Duration::from_millis(30));
        assert!(w.try_recv().is_none());
        drop(w);
        std::fs::remove_dir_all(&dir).ok();
    }
}
