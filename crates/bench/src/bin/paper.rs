//! Regenerates the paper's tables and figures:
//!
//! ```text
//! paper [--seed N] [--scale quick|standard|full] [--out DIR] [TABLE ...]
//! ```
//!
//! `TABLE` is any of table1, table3–table6, fig7–fig11 and ablations; with
//! none, every one runs. They run in paper order over one set of [`Fits`],
//! so a model several tables read is trained once per run.

use stuq_bench::tables::TABLES;
use stuq_bench::{parse_args, Fits};

fn main() {
    let (opts, names) = parse_args();
    let known: Vec<&str> = TABLES.iter().map(|(t, _)| *t).collect();
    if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
        panic!("unknown table {bad} (known: {})", known.join(", "));
    }
    let fits = Fits::new(opts);
    for (name, table) in TABLES {
        if names.is_empty() || names.iter().any(|n| n == name) {
            table(&fits);
        }
    }
}
