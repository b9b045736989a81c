//! Structured event log: builder, JSONL rendering, and schema validation.
//!
//! Every event is one flat JSON object on one line — no nesting. Lines are
//! rendered and parsed with the workspace's one JSON codec,
//! [`stuq_artifact::json`], so the validator (and `ci/validate_events.sh`,
//! which shells out to it) reads strings exactly as every other JSON
//! surface writes them. The recorder stamps `t_ms` (milliseconds since
//! recorder init), `seq` (strictly increasing), `stage` and `epoch` onto
//! every event so consumers never have to reconstruct context from
//! ordering.
//!
//! Non-finite floats cannot be represented in JSON; they are rendered as
//! the strings `"NaN"`, `"inf"`, `"-inf"` ([`json::push_f64`]) — important
//! because a guard-trip event exists precisely to record a NaN loss.
//!
//! The schema ([`validate_line`]) is a closed set of event types with
//! required fields per type; unknown types, missing fields, duplicate keys
//! and malformed JSON are all hard errors, and [`validate_events`]
//! additionally enforces `seq` monotonicity across the file.

use stuq_artifact::json::{self, Json};

/// Builder for one event line. Construct with [`Event::new`], attach fields
/// with the typed setters, then hand to `stuq_obs::emit`.
#[derive(Debug, Clone)]
pub struct Event {
    ty: &'static str,
    /// `(name, value already rendered as JSON)`, in attach order.
    fields: Vec<(&'static str, String)>,
}

impl Event {
    /// Starts an event of type `ty` (must be a type known to the schema for
    /// the line to validate).
    pub fn new(ty: &'static str) -> Self {
        Self { ty, fields: Vec::with_capacity(6) }
    }

    /// Event type name.
    pub fn ty(&self) -> &'static str {
        self.ty
    }

    /// Whether a field named `k` was attached.
    pub fn has(&self, k: &str) -> bool {
        self.fields.iter().any(|(name, _)| *name == k)
    }

    /// Attaches a string field.
    pub fn str(mut self, k: &'static str, v: impl AsRef<str>) -> Self {
        self.fields.push((k, json::escape(v.as_ref())));
        self
    }

    /// Attaches a float field (non-finite values become marker strings).
    pub fn num(mut self, k: &'static str, v: f64) -> Self {
        let mut rendered = String::new();
        json::push_f64(&mut rendered, v);
        self.fields.push((k, rendered));
        self
    }

    /// Attaches an unsigned-integer field.
    pub fn uint(mut self, k: &'static str, v: u64) -> Self {
        self.fields.push((k, v.to_string()));
        self
    }

    /// Attaches a boolean field.
    pub fn flag(mut self, k: &'static str, v: bool) -> Self {
        self.fields.push((k, v.to_string()));
        self
    }

    /// Renders the event as one JSON line (with trailing newline), stamping
    /// the recorder context. `stage`/`epoch` are only stamped when the event
    /// did not set them itself (e.g. `stage_start` carries its own).
    pub(crate) fn render(&self, t_ms: u64, seq: u64, stage: &str, epoch: u64) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!("{{\"t_ms\":{t_ms},\"seq\":{seq},\"type\":"));
        json::push_string(&mut out, self.ty);
        if !self.has("stage") {
            out.push_str(",\"stage\":");
            json::push_string(&mut out, stage);
        }
        if !self.has("epoch") {
            out.push_str(&format!(",\"epoch\":{epoch}"));
        }
        for (k, v) in &self.fields {
            out.push(',');
            json::push_string(&mut out, k);
            out.push(':');
            out.push_str(v);
        }
        out.push_str("}\n");
        out
    }
}

/// Parses one flat JSON object line into its key/value pairs, in order.
///
/// Any value [`json::parse`] accepts except arrays and objects (the event
/// format is flat); duplicate keys are rejected.
pub fn parse_line(line: &str) -> Result<Vec<(String, Json)>, String> {
    let Json::Obj(pairs) = json::parse(line.trim())? else {
        return Err("an event line must be a JSON object".into());
    };
    for (i, (k, v)) in pairs.iter().enumerate() {
        if matches!(v, Json::Arr(_) | Json::Obj(_)) {
            return Err(format!("field {k:?}: nested values are not part of the event schema"));
        }
        if pairs[..i].iter().any(|(prev, _)| prev == k) {
            return Err(format!("duplicate key {k:?}"));
        }
    }
    Ok(pairs)
}

/// The closed event schema: type name → required fields beyond the stamped
/// `t_ms`/`seq`/`type`/`stage`/`epoch` quintet.
pub const SCHEMA: &[(&str, &[&str])] = &[
    ("run_start", &["cmd", "level", "seed", "threads"]),
    ("run_end", &["wall_seconds"]),
    ("stage_start", &["stage"]),
    ("stage_end", &["stage", "seconds"]),
    ("epoch_end", &["loss", "seconds"]),
    ("guard_skip", &["loss", "grad_norm", "max_abs_loss", "max_grad_norm", "consecutive_skips"]),
    (
        "guard_rewind",
        &["loss", "grad_norm", "max_abs_loss", "max_grad_norm", "lr_scale", "rewinds_used"],
    ),
    ("checkpoint", &["path"]),
    ("resume", &["path"]),
    ("calibrate", &["temperature"]),
    ("mc_forecast", &["samples"]),
    ("eval", &["windows"]),
    ("span", &["path", "seconds"]),
    ("fatal", &["message", "exit_code"]),
    // Serving runtime (DESIGN.md §11).
    ("serve_start", &["path", "queue_capacity", "mc_samples", "floor"]),
    ("serve_stop", &["requests", "shed"]),
    ("serve_rejected", &["reason"]),
    ("serve_degraded", &["samples_used", "samples_requested"]),
    ("breaker_open", &["consecutive_faults", "cooldown_ms"]),
    ("breaker_half_open", &["cooldown_ms"]),
    ("breaker_close", &["cooldown_ms"]),
    ("reload_ok", &["path", "checksum"]),
    ("reload_rollback", &["path", "reason"]),
    // Request coalescing + forecast cache (DESIGN.md §12).
    ("serve_batch", &["size", "groups", "cache_hits"]),
    ("cache_invalidate", &["reason", "entries"]),
    // Sample-sharded cluster (DESIGN.md §13). Breaker events gain extra
    // `shard`/`replica` fields when emitted by the router's worker breakers.
    ("cluster_start", &["shards", "nodes"]),
    ("worker_spawn", &["shard"]),
    ("worker_down", &["shard", "reason"]),
    ("worker_restart", &["shard", "restarts"]),
    ("worker_restart_failed", &["shard", "backoff_ms", "reason"]),
    // Replicated shards (DESIGN.md §16). `cluster_failover` marks one hop:
    // the attempt on `from_replica` failed with the typed `reason` and the
    // router moved the sample range to `to_replica`. `faultnet_inject` is
    // the harness trail: `rpc` is the per-channel pass-RPC index the seeded
    // plan keyed the fault on, `reason` the fault kind (drop/delay/…).
    ("cluster_failover", &["shard", "from_replica", "to_replica", "reason"]),
    ("faultnet_inject", &["shard", "replica", "rpc", "reason"]),
    ("reload_stage", &["path", "checksum"]),
    ("reload_abort", &["reason", "staged"]),
    ("cluster_reload_prepare", &["checksum", "acks"]),
    ("cluster_reload_commit", &["checksum"]),
    ("cluster_reload_abort", &["checksum", "reason"]),
    // Distributed request tracing (DESIGN.md §15). `trace`/`span`/`parent`
    // are 16-hex-digit ids; a root span's parent is its trace id, and a
    // scatter-RPC child span on a worker carries the router's span id.
    ("span_start", &["trace", "span", "parent", "phase"]),
    ("span_end", &["trace", "span", "seconds"]),
    ("trace_exemplar", &["trace", "seconds"]),
    ("cluster_scrape", &["workers", "scraped"]),
];

/// Fields that must be strings; every other schema field must be numeric
/// (where the non-finite markers "NaN"/"inf"/"-inf" count as numeric).
const STRING_FIELDS: &[&str] = &[
    "type", "stage", "cmd", "level", "path", "message", "reason", "checksum", "trace", "span",
    "parent", "phase", "status", "req",
];

/// A well-formed trace/span id: exactly 16 lowercase hex digits (the
/// rendering of a nonzero `u64` by `crate::trace::fmt_id`).
fn is_span_id(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Validates one event line against the schema.
pub fn validate_line(line: &str) -> Result<(), String> {
    checked_line(line).map(drop)
}

/// [`validate_line`], returning the validated pairs.
fn checked_line(line: &str) -> Result<Vec<(String, Json)>, String> {
    let pairs = parse_line(line)?;
    let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    // Stamped quintet.
    for k in ["t_ms", "seq", "epoch"] {
        match get(k) {
            Some(Json::Num(..)) => {}
            Some(v) => return Err(format!("field {k:?} must be a number, got {v:?}")),
            None => return Err(format!("missing stamped field {k:?}")),
        }
    }
    let ty = match get("type") {
        Some(Json::Str(s)) => s.clone(),
        Some(v) => return Err(format!("field \"type\" must be a string, got {v:?}")),
        None => return Err("missing stamped field \"type\"".into()),
    };
    if !matches!(get("stage"), Some(Json::Str(_))) {
        return Err("missing or non-string stamped field \"stage\"".into());
    }
    let required = SCHEMA
        .iter()
        .find(|(name, _)| *name == ty)
        .map(|(_, req)| *req)
        .ok_or_else(|| format!("unknown event type {ty:?}"))?;
    for k in required {
        let v = get(k).ok_or_else(|| format!("event {ty:?} missing required field {k:?}"))?;
        let want_string = STRING_FIELDS.contains(k);
        let ok = if want_string { matches!(v, Json::Str(_)) } else { v.as_f64().is_some() };
        if !ok {
            return Err(format!(
                "event {ty:?} field {k:?} has wrong type: {v:?} (expected {})",
                if want_string { "string" } else { "number" }
            ));
        }
    }
    // Span ids must be well-formed hex wherever they appear on trace events.
    if matches!(ty.as_str(), "span_start" | "span_end" | "trace_exemplar") {
        for k in ["trace", "span", "parent"] {
            if let Some(Json::Str(s)) = get(k) {
                if !is_span_id(s) {
                    return Err(format!("event {ty:?} field {k:?} is not a 16-hex id: {s:?}"));
                }
            }
        }
    }
    Ok(pairs)
}

/// Validates a whole event-log payload (checksum trailer already stripped by
/// `stuq_artifact::read_verified`). Returns the number of validated events.
/// Enforces strictly increasing `seq` across the file, and span pairing:
/// a `span_end` must follow the `span_start` with the same `(trace, span)`
/// (so starts always precede ends), and a span id may start only once.
/// Unclosed spans are allowed — they are the crash evidence a SIGKILL'd
/// worker leaves behind, and `stuq trace` reports them.
pub fn validate_events(payload: &str) -> Result<u64, String> {
    let mut n = 0u64;
    let mut last_seq: Option<f64> = None;
    // (trace, span) → closed yet? Insertion means a span_start was seen.
    let mut spans: Vec<((String, String), bool)> = Vec::new();
    for (i, line) in payload.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let pairs = checked_line(line).map_err(|e| format!("line {}: {e}: {line}", i + 1))?;
        let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let span_key = || {
            let id = |k| get(k).and_then(Json::as_str).expect("validated span id").to_owned();
            (id("trace"), id("span"))
        };
        let seq = get("seq").and_then(Json::as_f64).expect("validated line has seq");
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!("line {}: seq {seq} not greater than previous {prev}", i + 1));
            }
        }
        last_seq = Some(seq);
        match get("type").and_then(Json::as_str) {
            Some("span_start") => {
                let key = span_key();
                if spans.iter().any(|(k, _)| *k == key) {
                    return Err(format!("line {}: span {} started twice", i + 1, key.1));
                }
                spans.push((key, false));
            }
            Some("span_end") => {
                let key = span_key();
                match spans.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, closed @ false)) => *closed = true,
                    Some(_) => {
                        return Err(format!("line {}: span {} ended twice", i + 1, key.1));
                    }
                    None => {
                        return Err(format!(
                            "line {}: span_end for {} without a prior span_start",
                            i + 1,
                            key.1
                        ));
                    }
                }
            }
            _ => {}
        }
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_stamps_context_and_escapes() {
        let line = Event::new("fatal")
            .str("message", "bad \"path\"\n")
            .uint("exit_code", 1)
            .render(42, 7, "awa", 3);
        assert_eq!(
            line,
            "{\"t_ms\":42,\"seq\":7,\"type\":\"fatal\",\"stage\":\"awa\",\"epoch\":3,\
             \"message\":\"bad \\\"path\\\"\\n\",\"exit_code\":1}\n"
        );
        assert!(validate_line(&line).is_ok(), "{:?}", validate_line(&line));
    }

    #[test]
    fn explicit_stage_suppresses_stamp() {
        let line = Event::new("stage_start").str("stage", "calibrate").render(1, 0, "awa", 9);
        let pairs = parse_line(&line).unwrap();
        let stages: Vec<_> = pairs.iter().filter(|(k, _)| k == "stage").collect();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].1, Json::Str("calibrate".into()));
    }

    #[test]
    fn non_finite_floats_become_markers() {
        let line = Event::new("epoch_end")
            .num("loss", f64::NAN)
            .num("seconds", f64::INFINITY)
            .render(0, 0, "pretrain", 0);
        assert!(line.contains("\"loss\":\"NaN\""));
        assert!(line.contains("\"seconds\":\"inf\""));
        validate_line(&line).unwrap();
    }

    #[test]
    fn parser_roundtrips_types() {
        let pairs =
            parse_line("{\"a\":1.5,\"b\":\"x\\u0041\",\"c\":true,\"d\":null,\"e\":-2e-3}").unwrap();
        assert_eq!(pairs[0].1, Json::Num(1.5, 1.5));
        assert_eq!(pairs[1].1, Json::Str("xA".into()));
        assert_eq!(pairs[2].1, Json::Bool(true));
        assert_eq!(pairs[3].1, Json::Null);
        assert_eq!(pairs[4].1, Json::Num(-0.002, -0.002));
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"a\":1,\"a\":2}").is_err(), "duplicate keys");
        assert!(parse_line("{\"a\":{\"n\":1}}").is_err(), "nested objects");
        assert!(parse_line("{\"a\":1} extra").is_err(), "trailing bytes");
        assert!(parse_line("{\"a\":1e}").is_err(), "malformed number");
    }

    #[test]
    fn validator_reads_strings_like_every_other_json_surface() {
        let line = Event::new("fatal").str("message", "\u{1F600}").uint("exit_code", 1);
        let line = line.render(0, 0, "x", 0);
        let paired = line.replace("\u{1F600}", "\\ud83d\\ude00");
        validate_line(&paired).unwrap();
        assert_eq!(parse_line(&paired).unwrap(), parse_line(&line).unwrap());
        for bad in ["\\ud83d", "\\ude00", "raw\u{1}control"] {
            let bad_line = line.replace("\u{1F600}", bad);
            assert!(validate_line(&bad_line).is_err(), "must reject {bad_line}");
        }
        assert!(validate_line(&line.replace("\"exit_code\":1", "\"exit_code\":1e999")).is_err());
    }

    #[test]
    fn schema_rejects_unknown_and_incomplete() {
        let unknown = Event::new("mystery").render(0, 0, "x", 0);
        assert!(validate_line(&unknown).unwrap_err().contains("unknown event type"));
        let incomplete = Event::new("guard_skip").num("loss", 1.0).render(0, 0, "x", 0);
        assert!(validate_line(&incomplete).unwrap_err().contains("missing required field"));
        let wrong_type =
            Event::new("fatal").num("message", 3.0).uint("exit_code", 1).render(0, 0, "x", 0);
        assert!(validate_line(&wrong_type).unwrap_err().contains("wrong type"));
    }

    fn start(trace: &str, span: &str, parent: &str, t: u64, seq: u64) -> String {
        Event::new("span_start")
            .str("trace", trace)
            .str("span", span)
            .str("parent", parent)
            .str("phase", "request")
            .render(t, seq, "serve", 0)
    }

    fn end(trace: &str, span: &str, t: u64, seq: u64) -> String {
        Event::new("span_end")
            .str("trace", trace)
            .str("span", span)
            .num("seconds", 0.001)
            .render(t, seq, "serve", 0)
    }

    #[test]
    fn span_events_validate_and_require_hex_ids() {
        const T: &str = "00000000deadbeef";
        const S: &str = "00000000cafef00d";
        validate_line(&start(T, S, T, 0, 0)).unwrap();
        validate_line(&end(T, S, 1, 1)).unwrap();
        let bad = Event::new("span_start")
            .str("trace", "not-hex")
            .str("span", S)
            .str("parent", T)
            .str("phase", "request")
            .render(0, 0, "serve", 0);
        assert!(validate_line(&bad).unwrap_err().contains("16-hex"));
        let missing_parent = Event::new("span_start")
            .str("trace", T)
            .str("span", S)
            .str("phase", "request")
            .render(0, 0, "serve", 0);
        assert!(validate_line(&missing_parent).unwrap_err().contains("parent"));
    }

    #[test]
    fn span_pairing_is_enforced_across_the_file() {
        const T: &str = "00000000deadbeef";
        const S: &str = "00000000cafef00d";
        let ok = format!("{}{}", start(T, S, T, 0, 0), end(T, S, 1, 1));
        assert_eq!(validate_events(&ok).unwrap(), 2);
        // An unclosed span is crash evidence, not an error.
        let unclosed = start(T, S, T, 0, 0);
        assert_eq!(validate_events(&unclosed).unwrap(), 1);
        // An end before (or without) its start is an error.
        let orphan_end = end(T, S, 0, 0);
        assert!(validate_events(&orphan_end).unwrap_err().contains("without a prior span_start"));
        let swapped = format!("{}{}", end(T, S, 0, 0), start(T, S, T, 1, 1));
        assert!(validate_events(&swapped).is_err());
        // Restarting or re-ending one span id is an error.
        let twice = format!("{}{}", start(T, S, T, 0, 0), start(T, S, T, 1, 1));
        assert!(validate_events(&twice).unwrap_err().contains("started twice"));
        let double_end = format!("{}{}{}", start(T, S, T, 0, 0), end(T, S, 1, 1), end(T, S, 2, 2));
        assert!(validate_events(&double_end).unwrap_err().contains("ended twice"));
    }

    #[test]
    fn file_validation_enforces_seq_order() {
        let a = Event::new("run_start")
            .str("cmd", "train")
            .str("level", "trace")
            .uint("seed", 1)
            .uint("threads", 2)
            .render(0, 0, "init", 0);
        let b = Event::new("run_end").num("wall_seconds", 0.5).render(10, 1, "done", 0);
        let good = format!("{a}{b}");
        assert_eq!(validate_events(&good).unwrap(), 2);
        let bad = format!("{b}{a}");
        assert!(validate_events(&bad).unwrap_err().contains("seq"));
    }
}
