//! The matmul-family kernels' output bits, pinned to digests.
//!
//! Each product keeps a fixed per-element evaluation order (DESIGN.md §7,
//! "Register tiling is positional"): which FMA chains an element runs, the
//! k order inside each chain and the final combine. A change to the tiles'
//! loads, stores or loop shape must leave every bit where it was; a change
//! that regroups a chain moves some digest here. The shape table reaches
//! every tile path: 4-row groups and 1–3 leftover rows, full 32-column
//! tiles, 8–31-column tails and narrow tails, odd and even k with and
//! without a k mod 4 remainder, sample pairs and a lone sample in the NAPL
//! block, and one shape of each product past the pool's fan-out threshold.

use stuq_artifact::FNV1A64_OFFSET;
use stuq_tensor::kernels::{
    matmul, matmul_tb, rowwise_matmul, rowwise_matmul_grad_w, rowwise_matmul_grad_z, PAR_FLOPS_MIN,
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
        0x2ebbdf2e3ceb3ecb,
        0x310f9c8a644f57ea,
        0x456827cc33a4e260,
        0xac2c4491aa5ee13f,
        0x13c9954beeb30f5e,
        0xe2f0377709ad83b7,
        0xb6b1f7f14b0e16f4,
        0x3c1d496a2348cae4,
        0xe4290db60e785868,
        0x655aa3ee152d8a08,
        0x621fb8f09cbe8ec6,
        0x60230e74fab71c14,
        // matmul_tb, same column counts
        0x1b047d9587ed7936,
        0x3bdabb3777ec2ace,
        0xf7dd3d634de92ccd,
        0xa830416ada644e47,
        0x672c2b98ea0755cc,
        0xba55add8e7e72c45,
        0x1931dbd034900dd0,
        0x7f3e585c087359cf,
        0x4d5e9acc87289140,
        0x2cbe393ce86f84d7,
        0xf3c4d767fef6c411,
        0x69f0ae169ae291c0,
        // rowwise_matmul, c_out = 1, 7, 8, 16, 32, 33
        0xf6bd2b46795ca3b2,
        0xf85b2018cb072a30,
        0x6922ef30f09e8531,
        0x2764c0bad6268c98,
        0x5cc23315186c9b9c,
        0x356c497fc300f868,
        // rowwise_matmul_grad_z, rowwise_matmul_grad_w
        0x15b2c43feefd16e6,
        0x9e350425c3b08313,
        // pooled: matmul, matmul_tb, rowwise_matmul, grad_z, grad_w
        0x752b24ba77dddb80,
        0x94a3184721fde22b,
        0xbb044d4820f9ea35,
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
