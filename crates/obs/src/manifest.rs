//! Per-run manifest: everything needed to reproduce (or refuse to trust)
//! a set of reported numbers.
//!
//! The manifest captures the inputs that determine a run bit-for-bit (seed,
//! config hash, thread count, code version) next to its outputs (phase
//! timings, final metrics), so a BENCH_*.json or EXPERIMENTS.md figure can
//! be traced back to the exact run that produced it. Written once at run
//! end as `manifest.json` beside the event log.

use std::time::{SystemTime, UNIX_EPOCH};
use stuq_artifact::json;

/// Aggregate timing for one span path (e.g. `train/pretrain/epoch`).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    /// Span path.
    pub path: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total wall-clock seconds across entries.
    pub total_s: f64,
    /// Longest single entry in seconds.
    pub max_s: f64,
}

/// The run manifest; see module docs. Build with [`RunManifest::new`], fill
/// the output fields as the run progresses, render with
/// [`RunManifest::to_json`].
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Subcommand that ran (`train`, `evaluate`, …).
    pub cmd: String,
    /// RNG seed for the run.
    pub seed: u64,
    /// FNV-1a 64 digest of the rendered run configuration (16 hex digits).
    pub config_hash: String,
    /// Worker threads (resolved `STUQ_THREADS` / available parallelism).
    pub threads: usize,
    /// `git describe --always --dirty` of the working tree, or `unknown`.
    pub git: String,
    /// Telemetry level the run recorded at.
    pub telemetry_level: String,
    /// Unix epoch milliseconds at which the run started.
    pub started_unix_ms: u64,
    /// Total wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Span-derived phase timings, in first-entered order.
    pub phases: Vec<PhaseTiming>,
    /// Final scalar metrics (name, value), e.g. final loss, temperature.
    pub final_metrics: Vec<(String, f64)>,
}

impl RunManifest {
    /// Starts a manifest stamped with the current wall-clock time.
    pub fn new(cmd: impl Into<String>, seed: u64, config_bytes: &[u8], threads: usize) -> Self {
        Self {
            cmd: cmd.into(),
            seed,
            config_hash: format!("{:016x}", stuq_artifact::fnv1a64(config_bytes)),
            threads,
            git: git_describe(),
            telemetry_level: crate::level().as_str().to_string(),
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            wall_seconds: 0.0,
            phases: Vec::new(),
            final_metrics: Vec::new(),
        }
    }

    /// Renders the manifest as pretty-ish JSON (one field per line, phases
    /// and metrics one entry per line — diff-friendly).
    pub fn to_json(&self) -> String {
        let num = |v: f64| {
            let mut s = String::new();
            json::push_f64(&mut s, v);
            s
        };
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"stuq-run-manifest-v1\",\n");
        out.push_str(&format!("  \"cmd\": {},\n", json::escape(&self.cmd)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"config_hash\": {},\n", json::escape(&self.config_hash)));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"git\": {},\n", json::escape(&self.git)));
        out.push_str(&format!("  \"telemetry_level\": {},\n", json::escape(&self.telemetry_level)));
        out.push_str(&format!("  \"started_unix_ms\": {},\n", self.started_unix_ms));
        out.push_str(&format!("  \"wall_seconds\": {},\n", num(self.wall_seconds)));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"path\": {}, \"count\": {}, \"total_s\": {}, \"max_s\": {}}}{}\n",
                json::escape(&p.path),
                p.count,
                num(p.total_s),
                num(p.max_s),
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"final_metrics\": {\n");
        for (i, (k, v)) in self.final_metrics.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {}{}\n",
                json::escape(k),
                num(*v),
                if i + 1 < self.final_metrics.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// `git describe --always --dirty` of the current working tree, single
/// line, or `"unknown"` when git or the repo is unavailable (e.g. running
/// from an exported tarball).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_renders_and_hashes_config() {
        let mut m = RunManifest::new("train", 17, b"epochs=1", 4);
        m.wall_seconds = 1.25;
        m.phases.push(PhaseTiming {
            path: "train/pretrain".into(),
            count: 2,
            total_s: 1.0,
            max_s: 0.6,
        });
        m.final_metrics.push(("loss".into(), 0.5));
        m.final_metrics.push(("temperature".into(), f64::NAN));
        let json = m.to_json();
        assert!(json.contains("\"schema\": \"stuq-run-manifest-v1\""));
        assert!(json.contains("\"seed\": 17"));
        assert!(json.contains(&format!(
            "\"config_hash\": \"{:016x}\"",
            stuq_artifact::fnv1a64(b"epochs=1")
        )));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"path\": \"train/pretrain\", \"count\": 2"));
        assert!(json.contains("\"temperature\": \"NaN\""), "{json}");
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }
}
