//! Plain-text, bit-exact parameter serialisation.
//!
//! The format is line-oriented and self-describing: each parameter records
//! its name, shape, and values as hexadecimal IEEE-754 bit patterns, so a
//! round-trip is *bit-exact* (no decimal-formatting drift) while the files
//! stay diffable and debuggable. Each parameter is one tensor of the shared
//! hex-word codec, [`stuq_artifact::text`]:
//!
//! ```text
//! stuq-params v1
//! count 3
//! param agcrn.embedding 2 34 4
//! 3d4ccccd bd4ccccd …
//! param …
//! ```

use crate::params::ParamSet;
use std::io::{self, Write};
use stuq_artifact::text::{self, invalid};
use stuq_tensor::Tensor;

const MAGIC: &str = "stuq-params v1";

/// Writes every parameter of `ps` to `w`.
pub fn write_params(ps: &ParamSet, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "count {}", ps.len())?;
    for slot in 0..ps.len() {
        let t = ps.get(slot);
        let name = ps.name(slot);
        assert!(
            !name.contains(char::is_whitespace),
            "parameter name {name:?} must not contain whitespace"
        );
        text::write_tensor(w, &format!("param {name}"), t.shape(), t.data())?;
    }
    Ok(())
}

/// Reads a parameter list written by [`write_params`], advancing `r` past
/// it.
pub fn read_params(r: &mut &[u8]) -> io::Result<Vec<(String, Tensor)>> {
    let magic = text::line(r)?;
    if magic.trim() != MAGIC {
        return Err(invalid(format!("bad magic: {magic:?}")));
    }
    let count: usize = text::parse_field(r, "count")?;
    let mut out = Vec::with_capacity(count.min(r.len()));
    for _ in 0..count {
        let header = text::line(r)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("param") {
            return Err(invalid(format!("expected param header, got {header:?}")));
        }
        let name = parts.next().ok_or_else(|| invalid("missing param name"))?.to_string();
        let (shape, data) = text::read_tensor(r, &mut parts)?;
        out.push((name, Tensor::from_vec(data, &shape)));
    }
    Ok(out)
}

/// Loads parameters into an existing [`ParamSet`], validating names and
/// shapes slot-by-slot.
pub fn load_into(ps: &mut ParamSet, entries: &[(String, Tensor)]) -> io::Result<()> {
    if entries.len() != ps.len() {
        return Err(invalid(format!(
            "parameter count mismatch: file {}, model {}",
            entries.len(),
            ps.len()
        )));
    }
    for (slot, (name, t)) in entries.iter().enumerate() {
        if ps.name(slot) != name {
            return Err(invalid(format!(
                "parameter {slot} name mismatch: file {name:?}, model {:?}",
                ps.name(slot)
            )));
        }
        if ps.get(slot).shape() != t.shape() {
            return Err(invalid(format!(
                "parameter {name} shape mismatch: file {:?}, model {:?}",
                t.shape(),
                ps.get(slot).shape()
            )));
        }
    }
    for (slot, (_, t)) in entries.iter().enumerate() {
        *ps.get_mut(slot) = t.clone();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_tensor::StuqRng;

    fn sample_params() -> ParamSet {
        let mut rng = StuqRng::new(1);
        let mut ps = ParamSet::new();
        ps.add("layer.w", Tensor::randn(&[3, 5], 1.0, &mut rng));
        ps.add("layer.b", Tensor::randn(&[1, 5], 1.0, &mut rng));
        ps.add("embed", Tensor::randn(&[40, 4], 0.1, &mut rng));
        ps
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ps = sample_params();
        let mut buf = Vec::new();
        write_params(&ps, &mut buf).unwrap();
        let entries = read_params(&mut buf.as_slice()).unwrap();
        assert_eq!(entries.len(), 3);
        for (slot, (name, tensor)) in entries.iter().enumerate() {
            assert_eq!(name, ps.name(slot));
            assert_eq!(tensor.shape(), ps.get(slot).shape());
            for (a, b) in tensor.data().iter().zip(ps.get(slot).data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exact round-trip");
            }
        }
    }

    #[test]
    fn special_values_survive() {
        let mut ps = ParamSet::new();
        ps.add(
            "specials",
            Tensor::from_vec(vec![0.0, -0.0, f32::MIN_POSITIVE, f32::MAX, -1.5e-38], &[1, 5]),
        );
        let mut buf = Vec::new();
        write_params(&ps, &mut buf).unwrap();
        let entries = read_params(&mut buf.as_slice()).unwrap();
        for (a, b) in entries[0].1.data().iter().zip(ps.get(0).data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn load_into_validates_names_and_shapes() {
        let ps = sample_params();
        let mut buf = Vec::new();
        write_params(&ps, &mut buf).unwrap();
        let entries = read_params(&mut buf.as_slice()).unwrap();

        let mut ok = sample_params();
        load_into(&mut ok, &entries).unwrap();

        // Wrong name.
        let mut renamed = ParamSet::new();
        renamed.add("other.w", Tensor::zeros(&[3, 5]));
        renamed.add("layer.b", Tensor::zeros(&[1, 5]));
        renamed.add("embed", Tensor::zeros(&[40, 4]));
        assert!(load_into(&mut renamed, &entries).is_err());

        // Wrong shape.
        let mut reshaped = ParamSet::new();
        reshaped.add("layer.w", Tensor::zeros(&[5, 3]));
        reshaped.add("layer.b", Tensor::zeros(&[1, 5]));
        reshaped.add("embed", Tensor::zeros(&[40, 4]));
        assert!(load_into(&mut reshaped, &entries).is_err());
    }

    #[test]
    fn corrupted_file_is_rejected() {
        let ps = sample_params();
        let mut buf = Vec::new();
        write_params(&ps, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(read_params(&mut "garbage".as_bytes()).is_err());
        let truncated = &text[..text.len() / 2];
        assert!(read_params(&mut truncated.as_bytes()).is_err());
        let corrupted = text.replace("param layer.b", "param zzz.b");
        let entries = read_params(&mut corrupted.as_bytes()).unwrap();
        let mut model = sample_params();
        assert!(load_into(&mut model, &entries).is_err());
    }
}
