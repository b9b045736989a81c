//! Crash-safe training checkpoints (`deepstuq-checkpoint v1`, DESIGN.md §8).
//!
//! A checkpoint captures everything the pipeline needs to continue a run
//! **bit-for-bit** across a process boundary:
//!
//! * the architecture header (shared with the model format in [`crate::io`]),
//! * the stage cursor (`pretrain` or `awa`) and epochs completed in it,
//! * the divergence-guard state (learning-rate scale, rewind/trip counters),
//! * the full RNG state including the cached Box–Muller spare,
//! * the optimiser moments (and for AWA the running weight average),
//! * the model parameters as a `stuq-params v1` blob.
//!
//! Files are written atomically with a checksum trailer via [`stuq_artifact`],
//! so an interrupted save leaves the previous checkpoint intact, and loading
//! distinguishes truncation, corruption and architecture mismatch.

use crate::error::Stage;
use crate::guard::GuardState;
use crate::io::{check_arch, read_arch, write_arch};
use std::io::{self, Write};
use std::path::Path;
use stuq_artifact::text::{self, invalid};
use stuq_models::AgcrnConfig;
use stuq_nn::opt::OptimizerState;
use stuq_nn::params::ParamSet;
use stuq_nn::serialize::{read_params, write_params};
use stuq_tensor::{RngState, Tensor};

const MAGIC: &str = "deepstuq-checkpoint v1";

/// Borrowed view of live training state, as handed to [`save_checkpoint`].
pub struct StageSnapshot<'a> {
    pub arch: &'a AgcrnConfig,
    pub stage: Stage,
    /// Epochs fully completed within `stage`.
    pub epochs_done: usize,
    pub guard: GuardState,
    pub rng: RngState,
    pub opt: OptimizerState,
    /// AWA only: `(n_models, running average)`.
    pub averager: Option<(usize, Vec<Tensor>)>,
    pub params: &'a ParamSet,
}

/// Owned training state reconstructed by [`load_checkpoint`].
#[derive(Debug)]
pub struct Checkpoint {
    pub arch: AgcrnConfig,
    pub stage: Stage,
    pub epochs_done: usize,
    pub guard: GuardState,
    pub rng: RngState,
    pub opt: OptimizerState,
    pub averager: Option<(usize, Vec<Tensor>)>,
    pub params: Vec<(String, Tensor)>,
}

impl Checkpoint {
    /// Validates the stored architecture against the run's configuration,
    /// field by field.
    pub fn validate_arch(&self, expected: &AgcrnConfig) -> Result<(), String> {
        check_arch(&self.arch, expected)
    }
}

/// Writes `snap` to `path` atomically, sealed with a checksum trailer.
pub fn save_checkpoint(snap: &StageSnapshot, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w: Vec<u8> = Vec::new();
    writeln!(w, "{MAGIC}")?;
    write_arch(&mut w, snap.arch)?;
    writeln!(w, "stage {}", snap.stage.as_str())?;
    writeln!(w, "epochs_done {}", snap.epochs_done)?;
    writeln!(w, "lr_scale_bits {:08x}", snap.guard.lr_scale.to_bits())?;
    writeln!(w, "rewinds {}", snap.guard.rewinds_used)?;
    writeln!(w, "trips {}", snap.guard.trips)?;
    writeln!(w, "skipped {}", snap.guard.skipped)?;
    let s = &snap.rng.s;
    let spare = match snap.rng.spare_normal_bits {
        Some(bits) => format!("{bits:016x}"),
        None => "none".to_string(),
    };
    writeln!(w, "rng {:016x} {:016x} {:016x} {:016x} {}", s[0], s[1], s[2], s[3], spare)?;

    writeln!(w, "opt {} {} {}", snap.opt.algorithm, snap.opt.counter, snap.opt.buffers.len())?;
    for (name, slots) in &snap.opt.buffers {
        writeln!(w, "buffer {name} {}", slots.len())?;
        for slot in slots {
            match slot {
                None => writeln!(w, "slot none")?,
                Some(t) => text::write_tensor(&mut w, "slot tensor", t.shape(), t.data())?,
            }
        }
    }

    match &snap.averager {
        None => writeln!(w, "averager none")?,
        Some((n_models, avg)) => {
            writeln!(w, "averager {n_models} {}", avg.len())?;
            for t in avg {
                text::write_tensor(&mut w, "tensor", t.shape(), t.data())?;
            }
        }
    }

    write_params(snap.params, &mut w)?;
    stuq_artifact::write_atomic_checksummed(path, &w)
}

/// Loads and verifies a checkpoint written by [`save_checkpoint`].
pub fn load_checkpoint(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
    let payload = stuq_artifact::read_verified(path.as_ref())?;
    let mut r = payload.as_slice();
    if text::line(&mut r)? != MAGIC {
        return Err(invalid("not a deepstuq-checkpoint file"));
    }
    let arch = read_arch(&mut r)?;
    let stage_name = text::field(&mut r, "stage")?;
    let stage = Stage::by_name(stage_name)
        .ok_or_else(|| invalid(format!("unknown stage {stage_name:?}")))?;
    let epochs_done = text::parse_field(&mut r, "epochs_done")?;
    let guard = GuardState {
        lr_scale: text::word_field(&mut r, "lr_scale_bits")?,
        rewinds_used: text::parse_field(&mut r, "rewinds")?,
        trips: text::parse_field(&mut r, "trips")?,
        skipped: text::parse_field(&mut r, "skipped")?,
    };

    let rng_line = text::field(&mut r, "rng")?;
    let hex64 =
        |t: &str| u64::from_str_radix(t, 16).map_err(|_| invalid(format!("bad rng word {t:?}")));
    let [s0, s1, s2, s3, spare] = rng_line.split_whitespace().collect::<Vec<_>>()[..] else {
        return Err(invalid(format!("bad rng line {rng_line:?}")));
    };
    let rng = RngState {
        s: [hex64(s0)?, hex64(s1)?, hex64(s2)?, hex64(s3)?],
        spare_normal_bits: if spare == "none" { None } else { Some(hex64(spare)?) },
    };

    let opt_line = text::field(&mut r, "opt")?;
    let [algorithm, counter, n_buffers] = opt_line.split_whitespace().collect::<Vec<_>>()[..]
    else {
        return Err(invalid(format!("bad opt line {opt_line:?}")));
    };
    let algorithm = algorithm.to_string();
    let counter = counter.parse().map_err(|_| invalid("bad opt counter"))?;
    let n_buffers: usize = n_buffers.parse().map_err(|_| invalid("bad opt buffer count"))?;
    let mut buffers = Vec::with_capacity(n_buffers.min(r.len()));
    for _ in 0..n_buffers {
        let buf_line = text::field(&mut r, "buffer")?;
        let (name, n_slots) = buf_line
            .split_once(' ')
            .and_then(|(name, n)| Some((name.to_string(), n.parse::<usize>().ok()?)))
            .ok_or_else(|| invalid(format!("bad buffer line {buf_line:?}")))?;
        let mut slots = Vec::with_capacity(n_slots.min(r.len()));
        for _ in 0..n_slots {
            let mut toks = text::field(&mut r, "slot")?.split_whitespace();
            match toks.next() {
                Some("none") => slots.push(None),
                Some("tensor") => slots.push(Some(read_tensor(&mut r, &mut toks)?)),
                other => return Err(invalid(format!("bad slot tag {other:?}"))),
            }
        }
        buffers.push((name, slots));
    }
    let opt = OptimizerState { algorithm, counter, buffers };

    let avg_line = text::field(&mut r, "averager")?;
    let averager = if avg_line == "none" {
        None
    } else {
        let counts: Vec<usize> =
            avg_line.split_whitespace().map_while(|t| t.parse().ok()).collect();
        let [n_models, n_tensors] = counts[..] else {
            return Err(invalid(format!("bad averager line {avg_line:?}")));
        };
        let mut avg = Vec::with_capacity(n_tensors.min(r.len()));
        for _ in 0..n_tensors {
            let mut toks = text::field(&mut r, "tensor")?.split_whitespace();
            avg.push(read_tensor(&mut r, &mut toks)?);
        }
        Some((n_models, avg))
    };

    let params = read_params(&mut r)?;
    Ok(Checkpoint { arch, stage, epochs_done, guard, rng, opt, averager, params })
}

/// One [`text::read_tensor`] as a [`Tensor`].
fn read_tensor(r: &mut &[u8], header: &mut std::str::SplitWhitespace) -> io::Result<Tensor> {
    let (dims, data) = text::read_tensor(r, header)?;
    Ok(Tensor::from_vec(data, &dims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_tensor::StuqRng;

    fn sample_snapshot<'a>(arch: &'a AgcrnConfig, params: &'a ParamSet) -> StageSnapshot<'a> {
        let mut rng = StuqRng::new(7);
        let _ = rng.normal_f32(); // leave a Box–Muller spare pending
        StageSnapshot {
            arch,
            stage: Stage::Awa,
            epochs_done: 3,
            guard: GuardState { lr_scale: 0.25, rewinds_used: 2, trips: 5, skipped: 4 },
            rng: rng.export_state(),
            opt: OptimizerState {
                algorithm: "adam".into(),
                counter: 17,
                buffers: vec![
                    ("m".into(), vec![Some(Tensor::from_vec(vec![1.5, -2.25, 0.0], &[3])), None]),
                    ("v".into(), vec![Some(Tensor::from_vec(vec![0.125], &[1, 1])), None]),
                ],
            },
            averager: Some((2, vec![Tensor::from_vec(vec![3.5, 4.5], &[2])])),
            params,
        }
    }

    #[test]
    fn roundtrip_preserves_every_field_bit_for_bit() {
        let arch = AgcrnConfig::new(5, 3).with_capacity(8, 2, 1).with_dropout(0.1, 0.2);
        let mut ps = ParamSet::new();
        ps.add("w", Tensor::from_vec(vec![0.5, -0.5, 1.0e-7, 3.25], &[2, 2]));
        ps.add("b", Tensor::from_vec(vec![-1.0], &[1]));
        let snap = sample_snapshot(&arch, &ps);

        let dir = std::env::temp_dir().join("deepstuq_ckpt_test");
        let path = dir.join("train.ckpt");
        save_checkpoint(&snap, &path).unwrap();
        let cp = load_checkpoint(&path).unwrap();

        assert!(cp.validate_arch(&arch).is_ok());
        assert_eq!(cp.stage, Stage::Awa);
        assert_eq!(cp.epochs_done, 3);
        assert_eq!(cp.guard, snap.guard);
        assert_eq!(cp.rng, snap.rng);
        assert_eq!(cp.opt.algorithm, "adam");
        assert_eq!(cp.opt.counter, 17);
        assert_eq!(cp.opt.buffers.len(), 2);
        let (m_name, m_slots) = &cp.opt.buffers[0];
        assert_eq!(m_name, "m");
        assert_eq!(m_slots[0].as_ref().unwrap().data(), &[1.5, -2.25, 0.0]);
        assert!(m_slots[1].is_none());
        let (n_models, avg) = cp.averager.as_ref().unwrap();
        assert_eq!(*n_models, 2);
        assert_eq!(avg[0].data(), &[3.5, 4.5]);
        assert_eq!(cp.params.len(), 2);
        assert_eq!(cp.params[0].0, "w");
        assert_eq!(cp.params[0].1.data(), ps.get(0).data());
        assert_eq!(cp.params[0].1.shape(), &[2, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_architecture_is_reported_by_field() {
        let arch = AgcrnConfig::new(5, 3).with_capacity(8, 2, 1);
        let ps = ParamSet::new();
        let snap =
            StageSnapshot { averager: None, stage: Stage::Pretrain, ..sample_snapshot(&arch, &ps) };
        let dir = std::env::temp_dir().join("deepstuq_ckpt_arch_test");
        let path = dir.join("train.ckpt");
        save_checkpoint(&snap, &path).unwrap();
        let cp = load_checkpoint(&path).unwrap();
        let other = AgcrnConfig::new(6, 3).with_capacity(8, 2, 1);
        let err = cp.validate_arch(&other).unwrap_err();
        assert!(err.contains("architecture mismatch: n_nodes"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_is_detected() {
        let arch = AgcrnConfig::new(4, 2);
        let ps = ParamSet::new();
        let snap = StageSnapshot { averager: None, ..sample_snapshot(&arch, &ps) };
        let dir = std::env::temp_dir().join("deepstuq_ckpt_corrupt_test");
        let path = dir.join("train.ckpt");
        save_checkpoint(&snap, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
