//! Saving and loading trained DeepSTUQ models.
//!
//! The on-disk format is a plain-text header (architecture + temperature)
//! followed by the bit-exact parameter blob of [`stuq_nn::serialize`], sealed
//! with a `checksum fnv1a64 …` trailer and written atomically
//! (temp file + fsync + rename, via [`stuq_artifact`]) so a crash can never
//! leave a half-written model on disk. Loading verifies the checksum first,
//! then reconstructs the architecture and validates every parameter name and
//! shape against it, so a truncated, bit-flipped or wrong-architecture file
//! each fails loudly with a distinct error.
//!
//! Training *checkpoints* (mid-run snapshots including optimiser moments,
//! guard state and the RNG stream) use the sibling `deepstuq-checkpoint v1`
//! format in [`crate::checkpoint`]; this module's `deepstuq-model v1` format
//! stores only the finished artifact: architecture, temperature and weights.

use crate::pipeline::DeepStuq;
use std::io::{self, Write};
use std::path::Path;
use stuq_artifact::text::{self, invalid};
use stuq_models::{Agcrn, AgcrnConfig, Forecaster, HeadKind};
use stuq_nn::serialize::{load_into, read_params, write_params};
use stuq_tensor::StuqRng;

const MAGIC: &str = "deepstuq-model v1";

pub(crate) fn head_name(head: HeadKind) -> &'static str {
    match head {
        HeadKind::Point => "point",
        HeadKind::Gaussian => "gaussian",
        HeadKind::Quantile => "quantile",
    }
}

pub(crate) fn head_from_name(name: &str) -> io::Result<HeadKind> {
    match name {
        "point" => Ok(HeadKind::Point),
        "gaussian" => Ok(HeadKind::Gaussian),
        "quantile" => Ok(HeadKind::Quantile),
        other => Err(invalid(format!("unknown head kind {other:?}"))),
    }
}

/// Writes the architecture fields shared by the model and checkpoint formats.
pub(crate) fn write_arch(w: &mut impl Write, cfg: &AgcrnConfig) -> io::Result<()> {
    writeln!(w, "n_nodes {}", cfg.n_nodes)?;
    writeln!(w, "horizon {}", cfg.horizon)?;
    writeln!(w, "hidden {}", cfg.hidden)?;
    writeln!(w, "embed_dim {}", cfg.embed_dim)?;
    writeln!(w, "n_layers {}", cfg.n_layers)?;
    writeln!(w, "encoder_dropout_bits {:08x}", cfg.encoder_dropout.to_bits())?;
    writeln!(w, "decoder_dropout_bits {:08x}", cfg.decoder_dropout.to_bits())?;
    writeln!(w, "head {}", head_name(cfg.head))?;
    writeln!(w, "covariates {}", cfg.n_covariates)
}

/// Reads the architecture fields written by [`write_arch`].
pub(crate) fn read_arch(r: &mut &[u8]) -> io::Result<AgcrnConfig> {
    let n_nodes = text::parse_field(r, "n_nodes")?;
    let horizon = text::parse_field(r, "horizon")?;
    let hidden = text::parse_field(r, "hidden")?;
    let embed_dim = text::parse_field(r, "embed_dim")?;
    let n_layers = text::parse_field(r, "n_layers")?;
    let encoder_dropout = text::word_field(r, "encoder_dropout_bits")?;
    let decoder_dropout = text::word_field(r, "decoder_dropout_bits")?;
    let head = head_from_name(text::field(r, "head")?)?;
    let n_covariates = text::parse_field(r, "covariates")?;
    Ok(AgcrnConfig::new(n_nodes, horizon)
        .with_capacity(hidden, embed_dim, n_layers)
        .with_dropout(encoder_dropout, decoder_dropout)
        .with_head(head)
        .with_covariates(n_covariates))
}

/// Compares two architectures field by field; `Err` names the first
/// disagreement (the distinct wrong-architecture failure of DESIGN.md §8).
pub(crate) fn check_arch(file: &AgcrnConfig, model: &AgcrnConfig) -> Result<(), String> {
    let fields: [(&str, String, String); 9] = [
        ("n_nodes", file.n_nodes.to_string(), model.n_nodes.to_string()),
        ("horizon", file.horizon.to_string(), model.horizon.to_string()),
        ("hidden", file.hidden.to_string(), model.hidden.to_string()),
        ("embed_dim", file.embed_dim.to_string(), model.embed_dim.to_string()),
        ("n_layers", file.n_layers.to_string(), model.n_layers.to_string()),
        (
            "encoder_dropout",
            format!("{:08x}", file.encoder_dropout.to_bits()),
            format!("{:08x}", model.encoder_dropout.to_bits()),
        ),
        (
            "decoder_dropout",
            format!("{:08x}", file.decoder_dropout.to_bits()),
            format!("{:08x}", model.decoder_dropout.to_bits()),
        ),
        ("head", head_name(file.head).into(), head_name(model.head).into()),
        ("covariates", file.n_covariates.to_string(), model.n_covariates.to_string()),
    ];
    for (name, a, b) in fields {
        if a != b {
            return Err(format!("architecture mismatch: {name} is {a} in file, {b} expected"));
        }
    }
    Ok(())
}

/// Writes `model` to `path` atomically with a checksum trailer (creating
/// parent directories).
pub fn save_model(model: &DeepStuq, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w: Vec<u8> = Vec::new();
    writeln!(w, "{MAGIC}")?;
    write_arch(&mut w, model.model().config())?;
    writeln!(w, "temperature_bits {:08x}", model.temperature().to_bits())?;
    writeln!(w, "mc_samples {}", model.mc_samples())?;
    write_params(model.model().params(), &mut w)?;
    stuq_artifact::write_atomic_checksummed(path, &w)
}

/// Loads a model written by [`save_model`], verifying its checksum.
pub fn load_model(path: impl AsRef<Path>) -> io::Result<DeepStuq> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    load_model_bytes(&bytes).map_err(|e| invalid(format!("{}: {e}", path.display())))
}

/// [`load_model`] over in-memory bytes (checksum trailer included).
///
/// The hot-reload validator uses this so the checksum it reports and the
/// model it swaps in come from the *same* read — a concurrent writer can
/// never slip a different file in between.
pub fn load_model_bytes(bytes: &[u8]) -> io::Result<DeepStuq> {
    let payload = stuq_artifact::verify(bytes)?;
    let mut r = payload;
    if text::line(&mut r)? != MAGIC {
        return Err(invalid("not a deepstuq-model file"));
    }
    let cfg = read_arch(&mut r)?;
    let temperature = text::word_field(&mut r, "temperature_bits")?;
    let mc_samples = text::parse_field(&mut r, "mc_samples")?;

    // Parameter values are immediately overwritten; the seed is irrelevant.
    let mut model = Agcrn::new(cfg, &mut StuqRng::new(0));
    let entries = read_params(&mut r)?;
    load_into(model.params_mut(), &entries)?;
    if !(temperature.is_finite() && temperature > 0.0) {
        return Err(invalid(format!("invalid temperature {temperature}")));
    }
    Ok(DeepStuq::from_parts(model, temperature, mc_samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DeepStuqConfig;
    use stuq_traffic::{Preset, Split};

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(55);
        let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        let model = crate::pipeline::DeepStuq::train(&ds, cfg, 55);

        let dir = std::env::temp_dir().join("deepstuq_io_test");
        let path = dir.join("model.stuq");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();

        assert_eq!(loaded.temperature().to_bits(), model.temperature().to_bits());
        assert_eq!(loaded.mc_samples(), model.mc_samples());

        // Deterministic predictions must agree bit-for-bit.
        let w = ds.window(ds.window_starts(Split::Test)[0]);
        let mut r1 = StuqRng::new(9);
        let mut r2 = StuqRng::new(9);
        let f1 = model.predict_with_samples(&w.x, ds.scaler(), 1, &mut r1);
        let f2 = loaded.predict_with_samples(&w.x, ds.scaler(), 1, &mut r2);
        assert_eq!(f1.mu.data(), f2.mu.data());
        assert_eq!(f1.sigma_total.data(), f2.sigma_total.data());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loading_garbage_fails() {
        let dir = std::env::temp_dir().join("deepstuq_io_test_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.stuq");
        std::fs::write(&path, "not a model").unwrap();
        assert!(load_model(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arch_check_reports_first_mismatch() {
        let a = AgcrnConfig::new(10, 12).with_capacity(16, 4, 2);
        let b = AgcrnConfig::new(10, 12).with_capacity(32, 4, 2);
        let err = check_arch(&a, &b).unwrap_err();
        assert!(err.contains("architecture mismatch: hidden"), "{err}");
        assert!(check_arch(&a, &a.clone()).is_ok());
    }
}
