//! Crash-safe artifact I/O and the text codecs shared by every on-disk and
//! on-wire format in the workspace.
//!
//! * [`json`] is the one JSON reader and writer: the serving protocol, the
//!   event log and the run manifest all go through it.
//! * [`text`] is the one line-oriented hex codec: the params, model,
//!   checkpoint and dataset formats all store their f32 values through it.
//! * This module writes any payload crash-safely and seals it.
//!
//! Two failure modes threaten a long training run's artifacts:
//!
//! 1. **partial writes** — the process (or machine) dies mid-`write`, leaving
//!    a truncated file that a later load misparses or, worse, half-parses;
//! 2. **silent corruption** — a flipped bit anywhere in the payload changes a
//!    hex-encoded float without breaking the line structure, so the artifact
//!    still *loads* but the model it describes is garbage.
//!
//! [`write_atomic`] defeats the first: the payload goes to a temporary file in
//! the *same directory* (same filesystem, so `rename` is atomic), is fsynced,
//! and only then renamed over the destination. Readers therefore observe
//! either the old complete file or the new complete file, never a mixture.
//!
//! [`write_atomic_checksummed`] / [`read_verified`] defeat the second: the
//! payload is terminated by a `checksum fnv1a64 <16 hex digits>` trailer line
//! covering every preceding byte. [`read_verified`] distinguishes a missing
//! trailer (truncation) from a mismatching digest (corruption) so tests and
//! operators can tell the failure modes apart.
//!
//! The digest is FNV-1a 64 — not cryptographic, but implemented in ~5 lines
//! with no dependencies (the build environment is offline; DESIGN.md §5) and
//! more than strong enough to catch truncation, bit flips and editor mangling.

pub mod json;
pub mod text;

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use text::invalid;

/// The trailer-line prefix appended by [`write_atomic_checksummed`].
pub const CHECKSUM_PREFIX: &str = "checksum fnv1a64 ";

/// The FNV-1a 64 offset basis: the digest of no bytes, and the state every
/// [`fnv1a64_fold`] chain starts from.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 fold: continues the digest `h` over `bytes`, so
/// `fnv1a64_fold(fnv1a64_fold(FNV1A64_OFFSET, a), b)` is the digest of
/// `a` followed by `b`.
#[inline]
pub fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a 64-bit digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV1A64_OFFSET, bytes)
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename, best-effort directory fsync. Creates parent directories.
///
/// A reader racing this call sees either the previous file content or the
/// full new content — never a torn write. A crash mid-call leaves at worst a
/// stale `.tmp` file beside the (untouched) destination.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            fs::create_dir_all(p)?;
            p.to_path_buf()
        }
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| invalid(format!("cannot write to {path:?}: no file name")))?;
    // Suffix with the pid so concurrent writers in tests don't clobber each
    // other's temp files; the final rename still serialises correctly.
    let tmp = parent.join(format!(".{}.tmp.{}", file_name.to_string_lossy(), std::process::id()));
    let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
    let result = (|| {
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Persist the rename itself. Directory fsync is not supported on every
    // platform/filesystem, so failures here are tolerated.
    if let Ok(dir) = File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Atomically writes `payload` followed by a checksum trailer line covering
/// every payload byte. Read it back with [`read_verified`].
pub fn write_atomic_checksummed(path: impl AsRef<Path>, payload: &[u8]) -> io::Result<()> {
    write_atomic(path, &seal(payload))
}

/// Appends a checksum trailer to an in-memory payload (for callers that need
/// to stage bytes without touching disk, e.g. corruption tests).
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + CHECKSUM_PREFIX.len() + 17);
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(format!("{CHECKSUM_PREFIX}{:016x}\n", fnv1a64(payload)).as_bytes());
    bytes
}

/// Verifies the checksum trailer of `bytes` and returns the payload slice.
///
/// Errors are distinct per failure mode: a file with no trailer (truncated
/// before the final line) reports `missing checksum trailer`; a trailer whose
/// digest disagrees with the payload reports `checksum mismatch`.
pub fn verify(bytes: &[u8]) -> io::Result<&[u8]> {
    // The trailer is the final newline-terminated line.
    let without_nl = match bytes.last() {
        Some(b'\n') => &bytes[..bytes.len() - 1],
        _ => return Err(invalid("missing checksum trailer (file truncated?)")),
    };
    let line_start = without_nl.iter().rposition(|&b| b == b'\n').map(|p| p + 1).unwrap_or(0);
    let trailer = std::str::from_utf8(&without_nl[line_start..])
        .map_err(|_| invalid("missing checksum trailer (file truncated?)"))?;
    let digest_hex = trailer
        .strip_prefix(CHECKSUM_PREFIX)
        .ok_or_else(|| invalid("missing checksum trailer (file truncated?)"))?;
    let expected = u64::from_str_radix(digest_hex.trim(), 16)
        .map_err(|_| invalid(format!("malformed checksum trailer {trailer:?}")))?;
    let payload = &bytes[..line_start];
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(invalid(format!(
            "checksum mismatch: file says {expected:016x}, payload hashes to {actual:016x}"
        )));
    }
    Ok(payload)
}

/// Reads `path` and verifies its checksum trailer, returning the payload.
pub fn read_verified(path: impl AsRef<Path>) -> io::Result<Vec<u8>> {
    let path = path.as_ref();
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let payload = verify(&bytes).map_err(|e| invalid(format!("{}: {e}", path.display())))?;
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join("stuq_artifact_test").join(name)
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Folding in pieces equals folding the concatenation.
        assert_eq!(fnv1a64_fold(fnv1a64_fold(FNV1A64_OFFSET, b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn atomic_write_roundtrip() {
        let p = tmp("plain.txt");
        write_atomic(&p, b"hello\nworld\n").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"hello\nworld\n");
        // Overwrite is also atomic and replaces content fully.
        write_atomic(&p, b"second\n").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"second\n");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn no_temp_file_survives() {
        let p = tmp("clean.txt");
        write_atomic(&p, b"x").unwrap();
        let dir = p.parent().unwrap();
        let leftovers: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("clean.txt.tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn checksummed_roundtrip() {
        let p = tmp("sealed.txt");
        let payload = b"line one\nline two\n";
        write_atomic_checksummed(&p, payload).unwrap();
        let back = read_verified(&p).unwrap();
        assert_eq!(back, payload);
        fs::remove_file(&p).ok();
    }

    #[test]
    fn truncation_reports_missing_trailer() {
        let p = tmp("trunc.txt");
        write_atomic_checksummed(&p, b"payload line\n").unwrap();
        let bytes = fs::read(&p).unwrap();
        // Drop the trailer line entirely — simulates a crash before the
        // final write (pre-atomic-write behaviour).
        fs::write(&p, &bytes[..bytes.len() - (CHECKSUM_PREFIX.len() + 17)]).unwrap();
        let err = read_verified(&p).unwrap_err();
        assert!(err.to_string().contains("missing checksum trailer"), "{err}");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn bit_flip_reports_checksum_mismatch() {
        let p = tmp("flip.txt");
        write_atomic_checksummed(&p, b"3f800000 40000000\n").unwrap();
        let mut bytes = fs::read(&p).unwrap();
        bytes[2] ^= 0x01; // flip one payload bit
        fs::write(&p, &bytes).unwrap();
        let err = read_verified(&p).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn seal_then_verify_is_identity() {
        let sealed = seal(b"abc\n");
        assert_eq!(verify(&sealed).unwrap(), b"abc\n");
    }

    #[test]
    fn empty_file_is_rejected() {
        let p = tmp("empty.txt");
        write_atomic(&p, b"").unwrap();
        assert!(read_verified(&p).is_err());
        fs::remove_file(&p).ok();
    }
}
