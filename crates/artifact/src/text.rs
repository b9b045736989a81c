//! The line-oriented hex text codec behind every artifact format.
//!
//! The params, model, checkpoint and dataset formats are plain text: one
//! `key value` field per line, and every f32 stored as the 8 lowercase hex
//! digits of its IEEE-754 bit pattern, so a round trip is bit-exact (NaN
//! payloads, −0.0 and subnormals included) while the files stay diffable.
//! A tensor is a header line `<tag> <ndim> <d0> … <dk>` followed by a body
//! of [`WORDS_PER_LINE`] words per line:
//!
//! ```text
//! param agcrn.embedding 2 34 4
//! 3d4ccccd bd4ccccd …
//! ```
//!
//! The serving cluster's `passes` RPC carries the same words packed with no
//! separators ([`push_words`] / [`read_words`]), with the dims sent beside
//! them.
//!
//! Readers take the payload as a byte-slice cursor (`&mut &[u8]`, already
//! checksum-verified) and advance it line by line without allocating per
//! line or per word. Every malformed input is an [`io::ErrorKind::InvalidData`]
//! error from [`invalid`], never a panic.

use std::io::{self, BufRead, Write};
use std::str::{FromStr, SplitWhitespace};

/// Hex words per tensor body line (keeps lines short for diffing).
pub const WORDS_PER_LINE: usize = 16;

/// An [`io::ErrorKind::InvalidData`] error: the bytes are readable but are
/// not the format they claim to be.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one line, without its line ending or trailing whitespace, and
/// advances `r` past it. Errors at end of input.
pub fn line<'a>(r: &mut &'a [u8]) -> io::Result<&'a str> {
    let start = *r;
    // `skip_until` finds the newline with the standard library's memchr.
    let n = r.skip_until(b'\n')?;
    if n == 0 {
        return Err(invalid("unexpected end of file"));
    }
    let line = std::str::from_utf8(&start[..n]).map_err(|_| invalid("line is not UTF-8"))?;
    Ok(line.trim_end())
}

/// Reads a `key value` line and returns the trimmed value.
pub fn field<'a>(r: &mut &'a [u8], key: &str) -> io::Result<&'a str> {
    let l = line(r)?;
    l.strip_prefix(key)
        .map(str::trim)
        .ok_or_else(|| invalid(format!("expected field {key:?}, got {l:?}")))
}

/// Reads a `key value` line whose value parses as `T`.
pub fn parse_field<T: FromStr>(r: &mut &[u8], key: &str) -> io::Result<T> {
    let v = field(r, key)?;
    v.parse().map_err(|_| invalid(format!("bad {key} value {v:?}")))
}

/// Reads a `key value` line whose value is one hex word.
pub fn word_field(r: &mut &[u8], key: &str) -> io::Result<f32> {
    word(field(r, key)?)
}

/// The f32 whose bit pattern the hex word `s` spells: exactly 8 lowercase
/// hex digits.
pub fn word(s: &str) -> io::Result<f32> {
    word_bits(s.as_bytes())
        .map(f32::from_bits)
        .ok_or_else(|| invalid(format!("bad hex word {s:?}")))
}

/// The bit pattern spelled by `b`, or `None` unless `b` is exactly 8
/// digits of `[0-9a-f]`.
#[inline]
fn word_bits(b: &[u8]) -> Option<u32> {
    if b.len() != 8 {
        return None;
    }
    // Digit values, with bit 4 set for every byte outside `[0-9a-f]`.
    const DIGIT: [u8; 256] = {
        let mut t = [0x10u8; 256];
        let mut i = 0;
        while i < 16 {
            t[b"0123456789abcdef"[i] as usize] = i as u8;
            i += 1;
        }
        t
    };
    let (mut bits, mut bad) = (0u32, 0u8);
    for &c in b {
        let d = DIGIT[c as usize];
        bad |= d;
        bits = bits << 4 | u32::from(d & 0xf);
    }
    (bad & 0x10 == 0).then_some(bits)
}

/// Appends each value's hex word to `out`, packed with no separators: the
/// inverse of [`read_words`].
pub fn push_words(out: &mut String, values: &[f32]) {
    let mut buf = Vec::with_capacity(values.len() * 8);
    for &v in values {
        buf.extend_from_slice(&hex_word(v));
    }
    out.push_str(std::str::from_utf8(&buf).expect("hex digits are ASCII"));
}

/// The hex word of `v`: the 8 lowercase hex digits of its bit pattern.
#[inline]
fn hex_word(v: f32) -> [u8; 8] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bits = v.to_bits();
    std::array::from_fn(|i| HEX[(bits >> (28 - 4 * i)) as usize & 0xf])
}

/// Decodes a [`push_words`] string holding a tensor of shape `dims`: all
/// dims nonzero and exactly `8·∏dims` bytes of `[0-9a-f]`. The length is
/// checked before anything is allocated, so a lying `dims` costs nothing.
pub fn read_words(s: &str, dims: &[usize]) -> io::Result<Vec<f32>> {
    if dims.contains(&0) {
        return Err(invalid(format!("word dims {dims:?} must be nonzero")));
    }
    let bytes = dims
        .iter()
        .try_fold(8usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| invalid(format!("word dims {dims:?} overflow")))?;
    if s.len() != bytes {
        return Err(invalid(format!("word dims {dims:?} need {bytes} bytes, got {}", s.len())));
    }
    let mut out = Vec::with_capacity(bytes / 8);
    for w in s.as_bytes().chunks_exact(8) {
        let bits = word_bits(w)
            .ok_or_else(|| invalid(format!("bad hex word {:?}", String::from_utf8_lossy(w))))?;
        out.push(f32::from_bits(bits));
    }
    Ok(out)
}

/// Writes one line of space-separated hex words.
pub fn write_row(w: &mut impl Write, words: impl IntoIterator<Item = f32>) -> io::Result<()> {
    for (i, v) in words.into_iter().enumerate() {
        if i > 0 {
            w.write_all(b" ")?;
        }
        w.write_all(&hex_word(v))?;
    }
    writeln!(w)
}

/// Reads one line of hex words, appending them to `out`.
pub fn read_row(r: &mut &[u8], out: &mut Vec<f32>) -> io::Result<()> {
    for s in line(r)?.split_ascii_whitespace() {
        out.push(word(s)?);
    }
    Ok(())
}

/// Writes a tensor: the header line `<tag> <ndim> <d0> … <dk>`, then
/// `data` at [`WORDS_PER_LINE`] words per line.
pub fn write_tensor(w: &mut impl Write, tag: &str, dims: &[usize], data: &[f32]) -> io::Result<()> {
    write!(w, "{tag} {}", dims.len())?;
    for d in dims {
        write!(w, " {d}")?;
    }
    writeln!(w)?;
    for chunk in data.chunks(WORDS_PER_LINE) {
        write_row(w, chunk.iter().copied())?;
    }
    Ok(())
}

/// Reads a tensor written by [`write_tensor`]. `header` holds the header
/// line's tokens after the tag (`<ndim> <d0> … <dk>`); the body is read
/// from `r`. Returns the dims and the values.
pub fn read_tensor(
    r: &mut &[u8],
    header: &mut SplitWhitespace,
) -> io::Result<(Vec<usize>, Vec<f32>)> {
    let mut count = || -> io::Result<usize> {
        let tok = header.next().ok_or_else(|| invalid("short tensor header"))?;
        tok.parse().map_err(|_| invalid(format!("bad tensor dimension {tok:?}")))
    };
    let ndim = count()?;
    let dims = (0..ndim).map(|_| count()).collect::<io::Result<Vec<_>>>()?;
    let numel = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| invalid(format!("tensor dims {dims:?} overflow")))?;
    // Every word takes at least 9 bytes, which bounds a lying header's
    // allocation by the payload actually present.
    let mut data = Vec::with_capacity(numel.min(r.len() / 9 + 1));
    while data.len() < numel {
        read_row(r, &mut data)?;
    }
    if data.len() != numel {
        return Err(invalid(format!(
            "tensor {dims:?}: expected {numel} values, read {}",
            data.len()
        )));
    }
    Ok((dims, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensors_wrap_at_sixteen_words_and_read_back() {
        let data: Vec<f32> = (0..35).map(|i| f32::from_bits(0x7fc0_0000 | i)).collect();
        let mut payload = Vec::new();
        write_tensor(&mut payload, "slot tensor", &[5, 7], &data).unwrap();
        let text = std::str::from_utf8(&payload).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "slot tensor 2 5 7");
        assert_eq!(lines.len(), 4, "header + 16 + 16 + 3 words");
        assert_eq!(lines[3].split(' ').count(), 3);

        let mut r = payload.as_slice();
        let header = field(&mut r, "slot").unwrap();
        let mut toks = header.split_whitespace();
        assert_eq!(toks.next(), Some("tensor"));
        let (dims, back) = read_tensor(&mut r, &mut toks).unwrap();
        assert_eq!(dims, [5, 7]);
        assert!(back.iter().zip(&data).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(r.is_empty());
    }

    #[test]
    fn fields_parse_and_malformed_input_is_invalid_data() {
        let mut r: &[u8] = b"epochs 12\nlr_bits 3f800000\nname a b \r\n";
        assert_eq!(parse_field::<usize>(&mut r, "epochs").unwrap(), 12);
        assert_eq!(word_field(&mut r, "lr_bits").unwrap(), 1.0);
        assert_eq!(field(&mut r, "name").unwrap(), "a b");
        let err = line(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        for bad in [&b"epochs x\n"[..], b"other 1\n", b"\xff\n"] {
            let err = parse_field::<usize>(&mut &bad[..], "epochs").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        for header in ["", "2 3", "2 3 x", "3 4294967296 4294967296 4294967296"] {
            let mut body: &[u8] = b"00000000\n";
            let err = read_tensor(&mut body, &mut header.split_whitespace()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{header:?}: {err}");
        }
        // Too many words on the last body line is a length error.
        let mut body: &[u8] = b"00000000 00000000 00000000\n";
        assert!(read_tensor(&mut body, &mut "1 2".split_whitespace()).is_err());
        // A word is exactly 8 lowercase hex digits: no sign, no uppercase,
        // no short or long forms, even where `from_str_radix` would agree.
        assert_eq!(word("abcdef12").unwrap().to_bits(), 0xabcd_ef12);
        for bad in
            ["zz", "+1", "+0000001", "1", "ABCDEF12", "abcdeF12", "000000000", "", " 0000000"]
        {
            let err = word(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
        assert!(word_field(&mut &b"lr_bits 3F800000\n"[..], "lr_bits").is_err());
        let mut body: &[u8] = b"0000000 3f800000\n";
        assert!(read_tensor(&mut body, &mut "1 2".split_whitespace()).is_err());
    }

    #[test]
    fn packed_words_roundtrip_and_refuse_malformed_input() {
        let values: Vec<f32> =
            [0x7fc0_0001u32, 0x8000_0000, 0, 1, 0x807f_ffff, 0x7f80_0000, 0xff80_0000, 0x3f80_0000]
                .map(f32::from_bits)
                .to_vec();
        let mut s = String::from("prefix:");
        push_words(&mut s, &values);
        let packed = s.strip_prefix("prefix:").unwrap();
        assert_eq!(&packed[..16], "7fc0000180000000");
        let back = read_words(packed, &[2, 4]).unwrap();
        assert!(back.iter().zip(&values).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(read_words(packed, &[8]).unwrap().len(), 8);

        let upper = packed.to_uppercase();
        let signed = format!("+{}", &packed[1..]);
        let spaced = format!("{} ", &packed[..63]);
        let non_hex = format!("{}g", &packed[..63]);
        for (text, dims) in [
            (packed, &[3, 4][..]),
            (packed, &[2, 0, 4]),
            (packed, &[]),
            (&packed[..63], &[2, 4]),
            (upper.as_str(), &[2, 4]),
            (signed.as_str(), &[2, 4]),
            (spaced.as_str(), &[2, 4]),
            (non_hex.as_str(), &[2, 4]),
            ("", &[4294967296, 4294967296, 1]),
            ("00000000", &[usize::MAX, 2]),
        ] {
            let err = read_words(text, dims).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{dims:?}: {err}");
        }
        // A non-ASCII byte inside a word is refused without splitting a char.
        let err = read_words("0000000é0000000", &[2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
