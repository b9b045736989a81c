//! The matmul-family kernels' output bits, pinned to digests.
//!
//! Every element of a product is one FMA chain over k in order from `+0.0`
//! (DESIGN.md §7, "Register tiling is positional"). A change to the
//! tiles' loads, stores or loop shape must leave every bit where it was; a
//! change that regroups a chain moves some digest here. The shape table
//! reaches every tile path: 4-row groups and 1–3 leftover rows, full
//! 32-column tiles, 8-column tail tiles that overlap or not, scalar chains
//! below 8 columns, sample groups of four and their leftovers in the NAPL
//! block, and one shape of each product past the pool's fan-out threshold.

use stuq_artifact::FNV1A64_OFFSET;
use stuq_tensor::kernels::{
    matmul, matmul_into, matmul_tb, rowwise_matmul, rowwise_matmul_grad_w, rowwise_matmul_grad_z,
    rowwise_matmul_into, PAR_FLOPS_MIN,
};
use stuq_tensor::StuqRng;

const ROWS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 43];
const KS: [usize; 9] = [0, 1, 2, 3, 5, 8, 33, 43, 64];
const NS: [usize; 12] = [1, 2, 3, 7, 8, 12, 31, 32, 33, 40, 64, 65];
const SAMPLES: [usize; 5] = [1, 2, 3, 5, 10];
const C_OUT: [usize; 6] = [1, 7, 8, 16, 32, 33];

fn randv(rng: &mut StuqRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.normal_f32()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Folds a product's shape words and its outputs' little-endian bits into
/// a running FNV-1a digest.
fn fold(h: u64, shape: &[usize], out: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(8 * shape.len() + 4 * out.len());
    for &d in shape {
        bytes.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for x in out {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    stuq_artifact::fnv1a64_fold(h, &bytes)
}

/// One digest per column count over every row count and k: `matmul`, or
/// `matmul_tb` (`b` stored `n × k`) on the same shapes but `k = 0`, whose
/// all-zero product its own unit test covers.
fn matmul_digests(tb: bool) -> Vec<u64> {
    let mut rng = StuqRng::new(if tb { 0x7B32 } else { 0x3A7 });
    NS.iter()
        .map(|&n| {
            let mut h = FNV1A64_OFFSET;
            for m in ROWS {
                for k in KS.into_iter().filter(|&k| k > 0 || !tb) {
                    let a = randv(&mut rng, m * k);
                    let b = randv(&mut rng, k * n);
                    let out = if tb { matmul_tb(&a, &b, m, k, n) } else { matmul(&a, &b, m, k, n) };
                    h = fold(h, &[m, k, n], &out);
                }
            }
            h
        })
        .collect()
}

/// One digest per output width over sample counts, input widths and a
/// small and a 43-node block. A block with no input columns holds one
/// sample whatever its length, so `ci = 0` runs with `s = 1` only.
fn rowwise_digests() -> Vec<u64> {
    let mut rng = StuqRng::new(0x40A1);
    C_OUT
        .iter()
        .map(|&co| {
            let mut h = FNV1A64_OFFSET;
            for s in SAMPLES {
                for ci in KS.into_iter().filter(|&ci| ci > 0 || s == 1) {
                    for rows in [5, 43] {
                        let z = randv(&mut rng, s * rows * ci);
                        let w = randv(&mut rng, rows * ci * co);
                        h = fold(h, &[s, rows, ci, co], &rowwise_matmul(&z, &w, rows, ci, co));
                    }
                }
            }
            h
        })
        .collect()
}

/// The NAPL adjoints into `z` and `w`, each accumulated into a random
/// starting gradient, so the add into the existing value is pinned too.
fn rowwise_grad_digests(shapes: &[(usize, usize, usize)], seed: u64) -> [u64; 2] {
    let mut rng = StuqRng::new(seed);
    let mut h = [FNV1A64_OFFSET; 2];
    for &(rows, ci, co) in shapes {
        let z = randv(&mut rng, rows * ci);
        let w = randv(&mut rng, rows * ci * co);
        let g = randv(&mut rng, rows * co);
        let mut dz = randv(&mut rng, rows * ci);
        let mut dw = randv(&mut rng, rows * ci * co);
        rowwise_matmul_grad_z(&w, &g, &mut dz, rows, ci, co);
        rowwise_matmul_grad_w(&z, &g, &mut dw, rows, ci, co);
        h[0] = fold(h[0], &[rows, ci, co], &dz);
        h[1] = fold(h[1], &[rows, ci, co], &dw);
    }
    h
}

/// Products past [`PAR_FLOPS_MIN`] with more than one row chunk, so the
/// pool splits them: `matmul`, `matmul_tb`, a 10-sample NAPL block, then
/// both NAPL adjoints.
fn pooled_digests() -> Vec<u64> {
    let mut rng = StuqRng::new(0xB16);
    let (m, k, n) = (70, 64, 65);
    assert!(m * k * n >= PAR_FLOPS_MIN);
    let a = randv(&mut rng, m * k);
    let b = randv(&mut rng, k * n);
    let (s, rows, ci, co) = (10, 43, 33, 32);
    assert!(s * rows * ci * co >= PAR_FLOPS_MIN);
    let z = randv(&mut rng, s * rows * ci);
    let w = randv(&mut rng, rows * ci * co);
    let grads = (43, 64, 96);
    assert!(grads.0 * grads.1 * grads.2 >= PAR_FLOPS_MIN);
    let mut out = vec![
        fold(FNV1A64_OFFSET, &[m, k, n], &matmul(&a, &b, m, k, n)),
        fold(FNV1A64_OFFSET, &[m, k, n], &matmul_tb(&a, &b, m, k, n)),
        fold(FNV1A64_OFFSET, &[s, rows, ci, co], &rowwise_matmul(&z, &w, rows, ci, co)),
    ];
    out.extend(rowwise_grad_digests(&[grads], 0xB17));
    out
}

/// Every digest, in a fixed order: `matmul` by column count, `matmul_tb`
/// by column count, `rowwise_matmul` by output width, the two NAPL
/// adjoints, then the pooled shapes.
#[test]
fn kernel_outputs_are_pinned() {
    const PINNED: [u64; 37] = [
        // matmul, n = 1, 2, 3, 7, 8, 12, 31, 32, 33, 40, 64, 65
        0x168a223174b64928,
        0x50eddee9d100bc73,
        0xa425423113bb5938,
        0x3a6b53b191a0b96f,
        0x13c9954beeb30f5e,
        0xe2f0377709ad83b7,
        0xb6b1f7f14b0e16f4,
        0xb4c26d6e16b49050,
        0x50e14eb086f97e68,
        0x3b465ee3ad8c23f8,
        0xea6707c910472301,
        0x58e5b5b1b31e123c,
        // matmul_tb, same column counts
        0x1b047d9587ed7936,
        0x3bdabb3777ec2ace,
        0xf7dd3d634de92ccd,
        0x9c39b294500f299a,
        0x672c2b98ea0755cc,
        0xba55add8e7e72c45,
        0x1931dbd034900dd0,
        0xee72d3e2178367c2,
        0x54497f295bca1e1c,
        0xc684c8ce79dc0e18,
        0x6513fb41ea5444a4,
        0xc046238bc3da70d2,
        // rowwise_matmul, c_out = 1, 7, 8, 16, 32, 33
        0x1f4606f94ff23f66,
        0xee6734da7560c7ab,
        0x6922ef30f09e8531,
        0x2764c0bad6268c98,
        0x58be89cb9aa1669e,
        0x054f9de2b33da226,
        // rowwise_matmul_grad_z, rowwise_matmul_grad_w
        0x15b2c43feefd16e6,
        0x9e350425c3b08313,
        // pooled: matmul, matmul_tb, rowwise_matmul, grad_z, grad_w
        0x61dd860aa2d9c129,
        0xbe0247c44ef0726c,
        0xd0df68b7f792cc30,
        0x6a2f2949d9c39c2a,
        0xfc085ddffb0cac28,
    ];
    let mut grad_shapes = Vec::new();
    for rows in [1, 5, 43] {
        for ci in [1, 3, 8, 33] {
            for co in C_OUT {
                grad_shapes.push((rows, ci, co));
            }
        }
    }
    let mut got = matmul_digests(false);
    got.extend(matmul_digests(true));
    got.extend(rowwise_digests());
    got.extend(rowwise_grad_digests(&grad_shapes, 0x6AD));
    got.extend(pooled_digests());
    let hex: Vec<String> = got.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(got, PINNED, "kernel output digests moved: [{}]", hex.join(", "));
}

/// Every row of a product holds the bits of that row's one-row product,
/// whatever group of rows it shares a register tile with and wherever the
/// pool splits the rows: each element is one FMA chain over k in order
/// (DESIGN.md §7). `matmul` and `matmul_into` run the shape table and one
/// shape past the fan-out threshold.
#[test]
fn matmul_rows_match_their_one_row_products_bitwise() {
    let mut rng = StuqRng::new(0x0E0);
    let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
    for m in ROWS {
        for k in KS {
            for n in NS {
                shapes.push((m, k, n));
            }
        }
    }
    shapes.push((70, 64, 65));
    for (m, k, n) in shapes {
        let a = randv(&mut rng, m * k);
        let b = randv(&mut rng, k * n);
        let got = matmul(&a, &b, m, k, n);
        let mut into = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut into, m, k, n);
        for r in 0..m {
            let alone = matmul(&a[r * k..(r + 1) * k], &b, 1, k, n);
            let row = r * n..(r + 1) * n;
            assert_eq!(bits(&got[row.clone()]), bits(&alone), "matmul {m}x{k}x{n}: row {r}");
            assert_eq!(bits(&into[row]), bits(&alone), "matmul_into {m}x{k}x{n}: row {r}");
        }
    }
}

/// The `_into` kernels overwrite every element: an `out` full of NaN comes
/// back with a fresh product's bits, and with no inner dimension all
/// `+0.0`.
#[test]
fn kernels_overwrite_their_out() {
    let mut rng = StuqRng::new(0x0A1);
    for m in ROWS {
        for k in KS {
            for n in NS {
                let a = randv(&mut rng, m * k);
                let b = randv(&mut rng, k * n);
                let mut out = vec![f32::NAN; m * n];
                matmul_into(&a, &b, &mut out, m, k, n);
                assert_eq!(bits(&out), bits(&matmul(&a, &b, m, k, n)), "matmul_into {m}x{k}x{n}");
                if k == 0 {
                    assert!(out.iter().all(|x| x.to_bits() == 0), "matmul_into {m}x0x{n}");
                }
            }
        }
    }
    for s in SAMPLES {
        for ci in KS.into_iter().filter(|&ci| ci > 0 || s == 1) {
            for co in C_OUT {
                let rows = 5;
                let z = randv(&mut rng, s * rows * ci);
                let w = randv(&mut rng, rows * ci * co);
                let mut out = vec![f32::NAN; s * rows * co];
                rowwise_matmul_into(&z, &w, &mut out, rows, ci, co);
                let what = format!("rowwise_matmul_into s {s}, ci {ci}, co {co}");
                assert_eq!(bits(&out), bits(&rowwise_matmul(&z, &w, rows, ci, co)), "{what}");
                if ci == 0 {
                    assert!(out.iter().all(|x| x.to_bits() == 0), "{what}");
                }
            }
        }
    }
}
