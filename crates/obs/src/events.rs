//! Structured event log: builder, JSONL rendering, and schema validation.
//!
//! Every event is one flat JSON object on one line — no nesting, so the
//! validator (and `ci/validate_events.sh`, which shells out to it) needs
//! only the tiny parser in this module, not a JSON library. The recorder
//! stamps `t_ms` (milliseconds since recorder init), `seq` (strictly
//! increasing), `stage` and `epoch` onto every event so consumers never
//! have to reconstruct context from ordering.
//!
//! Non-finite floats cannot be represented in JSON; they are rendered as
//! the strings `"NaN"`, `"inf"`, `"-inf"` — important because a guard-trip
//! event exists precisely to record a NaN loss.
//!
//! The schema ([`validate_line`]) is a closed set of event types with
//! required fields per type; unknown types, missing fields, duplicate keys
//! and malformed JSON are all hard errors, and [`validate_events`]
//! additionally enforces `seq` monotonicity across the file.

/// A single event value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A string (also used for non-finite floats: "NaN", "inf", "-inf").
    S(String),
    /// A finite float.
    F(f64),
    /// An unsigned integer (epochs, counts, exit codes).
    U(u64),
    /// A boolean.
    B(bool),
}

/// Builder for one event line. Construct with [`Event::new`], attach fields
/// with the typed setters, then hand to `stuq_obs::emit`.
#[derive(Debug, Clone)]
pub struct Event {
    ty: &'static str,
    fields: Vec<(&'static str, Val)>,
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
    pub fn str(mut self, k: &'static str, v: impl Into<String>) -> Self {
        self.fields.push((k, Val::S(v.into())));
        self
    }

    /// Attaches a float field (non-finite values become marker strings).
    pub fn num(mut self, k: &'static str, v: f64) -> Self {
        let val = if v.is_nan() {
            Val::S("NaN".into())
        } else if v == f64::INFINITY {
            Val::S("inf".into())
        } else if v == f64::NEG_INFINITY {
            Val::S("-inf".into())
        } else {
            Val::F(v)
        };
        self.fields.push((k, val));
        self
    }

    /// Attaches an unsigned-integer field.
    pub fn uint(mut self, k: &'static str, v: u64) -> Self {
        self.fields.push((k, Val::U(v)));
        self
    }

    /// Attaches a boolean field.
    pub fn flag(mut self, k: &'static str, v: bool) -> Self {
        self.fields.push((k, Val::B(v)));
        self
    }

    /// Renders the event as one JSON line (with trailing newline), stamping
    /// the recorder context. `stage`/`epoch` are only stamped when the event
    /// did not set them itself (e.g. `stage_start` carries its own).
    pub(crate) fn render(&self, t_ms: u64, seq: u64, stage: &str, epoch: u64) -> String {
        let mut out = String::with_capacity(128);
        out.push_str(&format!("{{\"t_ms\":{t_ms},\"seq\":{seq},\"type\":"));
        push_json_str(&mut out, self.ty);
        if !self.has("stage") {
            out.push_str(",\"stage\":");
            push_json_str(&mut out, stage);
        }
        if !self.has("epoch") {
            out.push_str(&format!(",\"epoch\":{epoch}"));
        }
        for (k, v) in &self.fields {
            out.push(',');
            push_json_str(&mut out, k);
            out.push(':');
            match v {
                Val::S(s) => push_json_str(&mut out, s),
                Val::F(f) => out.push_str(&fmt_f64(*f)),
                Val::U(u) => out.push_str(&u.to_string()),
                Val::B(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Formats a finite f64 so it round-trips and is valid JSON (no bare `1e3`
/// surprises from `{:?}`, no trailing garbage).
fn fmt_f64(v: f64) -> String {
    // `{}` on a finite f64 always yields a valid JSON number ("1", "0.5",
    // "1e-7"); non-finite values were already converted to marker strings.
    format!("{v}")
}

/// Appends `s` to `out` as a JSON string literal with escaping.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON scalar (the event format is flat, so scalars suffice).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// String.
    Str(String),
    /// Number.
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

/// Parses one flat JSON object line into ordered key/value pairs.
///
/// Supports exactly the subset the renderer emits (strings with standard
/// escapes incl. `\uXXXX`, numbers, booleans, null); nested objects/arrays
/// are rejected. Duplicate keys are rejected.
pub fn parse_line(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut p = Parser { bytes: line.trim().as_bytes(), pos: 0 };
    p.expect(b'{')?;
    let mut pairs: Vec<(String, JsonVal)> = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.parse_value()?;
            pairs.push((key, val));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".into());
    }
    Ok(pairs)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.next() {
            Some(got) if got == b => Ok(()),
            got => Err(format!("expected {:?}, got {got:?}", b as char)),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.next() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad hex in \\u escape")?;
                        }
                        s.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                // The renderer emits UTF-8; collect continuation bytes as-is.
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<JsonVal, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonVal::Str(self.parse_string()?)),
            Some(b't') => self.keyword("true", JsonVal::Bool(true)),
            Some(b'f') => self.keyword("false", JsonVal::Bool(false)),
            Some(b'n') => self.keyword("null", JsonVal::Null),
            Some(b'{' | b'[') => Err("nested values are not part of the event schema".into()),
            Some(_) => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                text.parse::<f64>()
                    .map(JsonVal::Num)
                    .map_err(|_| format!("malformed number {text:?}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn keyword(&mut self, kw: &str, val: JsonVal) -> Result<JsonVal, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(val)
        } else {
            Err(format!("malformed keyword (expected {kw})"))
        }
    }
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

fn is_numericish(v: &JsonVal) -> bool {
    match v {
        JsonVal::Num(_) => true,
        JsonVal::Str(s) => matches!(s.as_str(), "NaN" | "inf" | "-inf"),
        _ => false,
    }
}

/// Validates one event line against the schema.
pub fn validate_line(line: &str) -> Result<(), String> {
    let pairs = parse_line(line)?;
    let get = |k: &str| pairs.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    // Stamped quintet.
    for k in ["t_ms", "seq", "epoch"] {
        match get(k) {
            Some(JsonVal::Num(_)) => {}
            Some(v) => return Err(format!("field {k:?} must be a number, got {v:?}")),
            None => return Err(format!("missing stamped field {k:?}")),
        }
    }
    let ty = match get("type") {
        Some(JsonVal::Str(s)) => s.clone(),
        Some(v) => return Err(format!("field \"type\" must be a string, got {v:?}")),
        None => return Err("missing stamped field \"type\"".into()),
    };
    if !matches!(get("stage"), Some(JsonVal::Str(_))) {
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
        let ok = if want_string { matches!(v, JsonVal::Str(_)) } else { is_numericish(v) };
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
            if let Some(JsonVal::Str(s)) = get(k) {
                if !is_span_id(s) {
                    return Err(format!("event {ty:?} field {k:?} is not a 16-hex id: {s:?}"));
                }
            }
        }
    }
    Ok(())
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
        validate_line(line).map_err(|e| format!("line {}: {e}: {line}", i + 1))?;
        let pairs = parse_line(line).expect("validated line reparses");
        let get = |k: &str| {
            pairs.iter().find_map(|(key, v)| match v {
                JsonVal::Str(s) if key == k => Some(s.clone()),
                _ => None,
            })
        };
        let seq = pairs
            .iter()
            .find_map(|(k, v)| match (k.as_str(), v) {
                ("seq", JsonVal::Num(n)) => Some(*n),
                _ => None,
            })
            .expect("validated line has seq");
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!("line {}: seq {seq} not greater than previous {prev}", i + 1));
            }
        }
        last_seq = Some(seq);
        match get("type").as_deref() {
            Some("span_start") => {
                let key = (get("trace").unwrap(), get("span").unwrap());
                if spans.iter().any(|(k, _)| *k == key) {
                    return Err(format!("line {}: span {} started twice", i + 1, key.1));
                }
                spans.push((key, false));
            }
            Some("span_end") => {
                let key = (get("trace").unwrap(), get("span").unwrap());
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
        assert_eq!(stages[0].1, JsonVal::Str("calibrate".into()));
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
        assert_eq!(pairs[0].1, JsonVal::Num(1.5));
        assert_eq!(pairs[1].1, JsonVal::Str("xA".into()));
        assert_eq!(pairs[2].1, JsonVal::Bool(true));
        assert_eq!(pairs[3].1, JsonVal::Null);
        assert_eq!(pairs[4].1, JsonVal::Num(-0.002));
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
