//! The workspace's one JSON reader and writer.
//!
//! Three text surfaces speak JSON: the serving wire protocol (forecast
//! requests carry a nested `[t_h][N]` matrix), the event log (one flat
//! object per line) and the run manifest. All of them parse with [`parse`]
//! and escape strings with [`push_string`]/[`escape`], so a string written by
//! any of them reads back the same everywhere. Std-only, hardened for
//! untrusted input: depth-limited recursion, hard errors on trailing
//! garbage, raw control characters, lone UTF-16 surrogates and numbers
//! that overflow f64; duplicate-tolerant object access (first key wins —
//! the event validator rejects duplicates at its own layer).
//!
//! JSON cannot represent non-finite floats; every writer uses the marker
//! strings `"NaN"`, `"inf"`, `"-inf"` ([`push_f32`]/[`push_f64`]), and
//! [`Json::as_f64`]/[`Json::as_f32`] resolve them so callers see the actual
//! values.

use std::fmt::Write as _;

/// Maximum nesting depth accepted from the wire. Forecast requests need 3
/// (object → matrix → row); anything deeper is hostile or corrupt.
const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number: its value parsed as f64 and, separately from the
    /// same text, as f32. Rounding the f64 to f32 would round twice and
    /// can miss the nearest f32, so f32 payloads read the second field.
    Num(f64, f32),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// First value under `key` (objects only).
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value; resolves the `"NaN"`/`"inf"`/`"-inf"` markers.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n, _) => Some(*n),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The nearest f32 to the number's text (exact for any f32 rendered in
    /// shortest round-trip form); resolves the markers like
    /// [`Json::as_f64`].
    #[inline]
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Json::Num(_, f) => Some(*f),
            _ => self.as_f64().map(|v| v as f32),
        }
    }

    /// The value as a non-negative integer (rejects fractions and negatives).
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n, _) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[inline]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an error.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos, depth),
        Some(b'[') => parse_arr(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    let n: f64 = text.parse().map_err(|_| format!("invalid number {text:?} at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("number {text:?} overflows f64"));
    }
    Ok(Json::Num(n, nearest_f32(n, text)))
}

/// The f32 nearest to the number `text`, given its nearest f64 `n`.
/// Rounding is monotone and every midpoint between adjacent f32 values is
/// an f64, so `n as f32` is the text's own rounding unless `n` landed
/// exactly on such a midpoint. In the normal f32 range that shows in the
/// bits: an f32 keeps the top 24 of the f64's 53 significand bits, and a
/// midpoint leaves exactly the half-ulp bit set below them. Midpoints and
/// the rare subnormal-range values are parsed again, as f32.
fn nearest_f32(n: f64, text: &str) -> f32 {
    const BELOW_F32: u64 = (1 << 29) - 1;
    const HALF_ULP: u64 = 1 << 28;
    let normal = n.abs() >= f64::from(f32::MIN_POSITIVE);
    if n == 0.0 || (normal && n.to_bits() & BELOW_F32 != HALF_ULP) {
        n as f32
    } else {
        // The text was accepted as an f64 above, so it parses as f32 too.
        text.parse().unwrap_or(n as f32)
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote, escape or control byte whole:
        // it ends on an ASCII byte, so on a char boundary.
        let start = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\' | 0..=0x1f) {
            *pos += 1;
        }
        out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-utf8 string content")?);
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                out.push(match b.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'b') => '\u{0008}',
                    Some(b'f') => '\u{000C}',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'u') => unicode_escape(b, pos)?,
                    _ => return Err("invalid escape".into()),
                });
                *pos += 1;
            }
            Some(_) => return Err("raw control character in string".into()),
        }
    }
}

/// The scalar value of the `\uXXXX` escape whose `u` is at `b[*pos]`. A
/// UTF-16 high surrogate must be followed by an escaped low surrogate and
/// the pair decodes to one scalar (Python's `json.dumps` writes U+1F600 as
/// `\ud83d\ude00`); a lone surrogate is an error. Leaves `pos` on the
/// escape's last hex digit.
fn unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    const LONE: &str = "lone UTF-16 surrogate in \\u escape";
    let hi = hex4(b, *pos + 1)?;
    *pos += 4;
    let code = match hi {
        0xD800..=0xDBFF => {
            if b.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                return Err(LONE.into());
            }
            let lo = hex4(b, *pos + 3)?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(LONE.into());
            }
            *pos += 6;
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(LONE.into()),
        c => c,
    };
    Ok(char::from_u32(code).expect("surrogates were paired above"))
}

/// The four hex digits at `b[at..at + 4]`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0, |acc, &d| {
        Ok(acc * 16 + char::from(d).to_digit(16).ok_or("invalid \\u escape")?)
    })
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let val = parse_value(b, pos, depth + 1)?;
        pairs.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (with surrounding
/// quotes): `"`, `\` and control characters are escaped, everything else
/// is copied as UTF-8.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal (with surrounding quotes); see
/// [`push_string`].
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends `v` as a JSON number in shortest round-trip form, or as its
/// marker string when non-finite.
pub fn push_f32(out: &mut String, v: f32) {
    push_num(out, f64::from(v), v);
}

/// [`push_f32`] for an f64.
pub fn push_f64(out: &mut String, v: f64) {
    push_num(out, v, v);
}

/// Appends `shown`, or the marker for `v` when `v` is non-finite.
fn push_num(out: &mut String, v: f64, shown: impl std::fmt::Display) {
    let _ = match v {
        _ if v.is_nan() => write!(out, "\"NaN\""),
        f64::INFINITY => write!(out, "\"inf\""),
        f64::NEG_INFINITY => write!(out, "\"-inf\""),
        _ => write!(out, "{shown}"),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_cells_round_from_their_text() {
        let f32_of = |text: &str| parse(text).unwrap().as_f32().unwrap();
        // Just above / below the midpoint between 1 and its successor: both
        // round to that midpoint as f64, whose f32 cast is a tie.
        assert_eq!(f32_of("1.0000000596046447753906251"), 1.0f32.next_up());
        assert_eq!(f32_of("1.0000000596046447753906249"), 1.0);
        assert_eq!(f32_of("3.4028235677973366e38"), f32::MAX, "below the overflow tie");
        assert_eq!(f32_of("1e39"), f32::INFINITY);
        // Shortest round-trip renderings come back bit-exact.
        for i in 0..100_000u32 {
            let v = f32::from_bits(i.wrapping_mul(0x9e37_79b9).rotate_left(i % 32));
            if v.is_finite() {
                assert_eq!(f32_of(&format!("{v}")).to_bits(), v.to_bits(), "{v:e}");
            }
        }
    }

    #[test]
    fn parses_forecast_shaped_payloads() {
        let v =
            parse(r#"{"type":"forecast","id":"r1","x":[[1.5,-2e1],["NaN",0]],"mc":8}"#).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("forecast"));
        assert_eq!(v.get("mc").and_then(Json::as_u64), Some(8));
        let x = v.get("x").and_then(Json::as_arr).unwrap();
        assert_eq!(x.len(), 2);
        assert_eq!(x[0].as_arr().unwrap()[1].as_f64(), Some(-20.0));
        assert!(x[1].as_arr().unwrap()[0].as_f64().unwrap().is_nan());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn depth_limit_stops_hostile_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err(), "deep nesting must be a typed error, not a stack overflow");
        let ok = "[".repeat(4) + "1" + &"]".repeat(4);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(parse(&escape("x\"y\nz")).unwrap().as_str(), Some("x\"y\nz"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        let v = parse(r#""\ud83d\ude00 \uD834\uDD1E""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} \u{1D11E}"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83d x""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ud83d""#,
            r#""\ud83d\u""#,
        ] {
            assert!(parse(lone).is_err(), "must reject {lone}");
        }
        assert!(parse(r#""\u+041""#).is_err(), "hex digits only");
        assert_eq!(escape("\u{1F600}"), "\"\u{1F600}\"");
    }

    #[test]
    fn nonfinite_markers_resolve() {
        let v = parse(r#"["NaN","inf","-inf","other"]"#).unwrap();
        let a = v.as_arr().unwrap();
        assert!(a[0].as_f64().unwrap().is_nan());
        assert_eq!(a[1].as_f64(), Some(f64::INFINITY));
        assert_eq!(a[2].as_f64(), Some(f64::NEG_INFINITY));
        assert_eq!(a[3].as_f64(), None);
    }
}
