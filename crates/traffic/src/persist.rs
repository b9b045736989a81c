//! Saving and loading traffic datasets.
//!
//! A dataset file stores the road network (positions + weighted edge list)
//! and the full `[T, N]` flow series, with all floats as IEEE-754 bit
//! patterns in hex so the round-trip is bit-exact. This lets the CLI train
//! and forecast against a *fixed* dataset artefact instead of regenerating.
//!
//! Files are written atomically (temp file + fsync + rename) and sealed with
//! a `checksum fnv1a64` trailer via [`stuq_artifact`], so a crash mid-save
//! cannot corrupt an existing artefact and any truncation or bit flip is
//! detected before parsing begins.

use crate::dataset::{SplitDataset, TrafficData};
use std::io::{self, Write};
use std::path::Path;
use stuq_artifact::text::{self, invalid};
use stuq_graph::RoadNetwork;

const MAGIC: &str = "stuq-traffic v1";

/// Writes `data` to `path` atomically with a checksum trailer (creating
/// parent directories).
pub fn save_dataset(data: &TrafficData, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w: Vec<u8> = Vec::new();
    let net = data.network();
    writeln!(w, "{MAGIC}")?;
    // Names may contain spaces; they terminate the line.
    writeln!(w, "name {}", data.name())?;
    writeln!(w, "nodes {}", data.n_nodes())?;
    writeln!(w, "edges {}", net.n_edges())?;
    writeln!(w, "steps {}", data.n_steps())?;
    writeln!(w, "covariates {}", data.n_covariates())?;
    writeln!(w, "positions {}", net.positions().len())?;
    for &(x, y) in net.positions() {
        text::write_row(&mut w, [x, y])?;
    }
    for &(u, v, len) in net.edges() {
        write!(w, "e {u} {v} ")?;
        text::write_row(&mut w, [len])?;
    }
    for t in 0..data.n_steps() {
        text::write_row(&mut w, data.step(t).iter().copied())?;
    }
    if data.n_covariates() > 0 {
        for t in 0..data.n_steps() {
            text::write_row(&mut w, (0..data.n_covariates()).map(|k| data.covariate(t, k)))?;
        }
    }
    stuq_artifact::write_atomic_checksummed(path, &w)
}

/// Reads a dataset written by [`save_dataset`], verifying its checksum.
pub fn load_dataset(path: impl AsRef<Path>) -> io::Result<TrafficData> {
    let payload = stuq_artifact::read_verified(path.as_ref())?;
    let mut r = payload.as_slice();
    if text::line(&mut r)? != MAGIC {
        return Err(invalid("not a stuq-traffic file"));
    }
    let name = text::line(&mut r)?
        .strip_prefix("name ")
        .ok_or_else(|| invalid("missing name"))?
        .to_string();
    let n_nodes: usize = text::parse_field(&mut r, "nodes")?;
    let n_edges: usize = text::parse_field(&mut r, "edges")?;
    let n_steps: usize = text::parse_field(&mut r, "steps")?;
    let n_cov: usize = text::parse_field(&mut r, "covariates")?;
    let n_pos: usize = text::parse_field(&mut r, "positions")?;

    let xy = read_rows(&mut r, n_pos, 2, "position words")?;
    let positions = xy.chunks(2).map(|p| (p[0], p[1])).collect();
    let mut edges = Vec::with_capacity(n_edges.min(r.len()));
    for _ in 0..n_edges {
        let l = text::line(&mut r)?;
        let edge = match l.split_whitespace().collect::<Vec<_>>()[..] {
            ["e", u, v, len] => u.parse().ok().zip(v.parse().ok()).map(|(u, v)| (u, v, len)),
            _ => None,
        };
        let (u, v, len) = edge.ok_or_else(|| invalid(format!("bad edge line {l:?}")))?;
        edges.push((u, v, text::word(len)?));
    }
    let values = read_rows(&mut r, n_steps, n_nodes, "values")?;
    let covariates =
        if n_cov > 0 { read_rows(&mut r, n_steps, n_cov, "covariates")? } else { Vec::new() };
    let net = RoadNetwork::new(n_nodes, edges, positions);
    Ok(TrafficData::with_covariates(name, values, n_steps, net, covariates, n_cov))
}

/// Reads `n_rows` lines of `per_row` hex words each, row-major.
fn read_rows(r: &mut &[u8], n_rows: usize, per_row: usize, what: &str) -> io::Result<Vec<f32>> {
    let want = n_rows
        .checked_mul(per_row)
        .ok_or_else(|| invalid(format!("{n_rows} rows of {per_row} {what} overflow")))?;
    let mut out = Vec::with_capacity(want.min(r.len() / 9 + 1));
    for _ in 0..n_rows {
        text::read_row(r, &mut out)?;
    }
    if out.len() != want {
        return Err(invalid(format!("expected {want} {what}, read {}", out.len())));
    }
    Ok(out)
}

/// Convenience: load and wrap with the paper's 12-in/12-out split geometry.
pub fn load_split_dataset(path: impl AsRef<Path>) -> io::Result<SplitDataset> {
    Ok(SplitDataset::new(load_dataset(path)?, 12, 12))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::Preset;

    #[test]
    fn roundtrip_is_bit_exact() {
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(77);
        let dir = std::env::temp_dir().join("stuq_traffic_persist_test");
        let path = dir.join("data.stuqd");
        save_dataset(ds.data(), &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
        assert_eq!(loaded.name(), ds.data().name());
        assert_eq!(loaded.n_nodes(), ds.n_nodes());
        assert_eq!(loaded.n_steps(), ds.data().n_steps());
        assert_eq!(loaded.network().edges(), ds.data().network().edges());
        for t in [0, 10, loaded.n_steps() - 1] {
            for i in 0..loaded.n_nodes() {
                assert_eq!(loaded.get(t, i).to_bits(), ds.data().get(t, i).to_bits());
            }
        }
        // The wrapped split must fit the same scaler.
        let split = load_split_dataset(&path).unwrap();
        assert_eq!(split.scaler().mean(), ds.scaler().mean());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_non_dataset_files() {
        let dir = std::env::temp_dir().join("stuq_traffic_persist_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.stuqd");
        std::fs::write(&path, "hello").unwrap();
        assert!(load_dataset(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_is_detected_before_parsing() {
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(3);
        let dir = std::env::temp_dir().join("stuq_traffic_persist_flip");
        let path = dir.join("data.stuqd");
        save_dataset(ds.data(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_dataset(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
