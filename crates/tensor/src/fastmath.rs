//! Vectorizable elementwise transcendentals.
//!
//! `f32::tanh` and friends go through libm — one scalar call per element,
//! opaque to the autovectorizer. The gate activations of the recurrent
//! encoder apply tanh/sigmoid to every element of every gate at every step,
//! which makes those calls a measurable slice of inference wall-clock (see
//! EXPERIMENTS.md). The rational approximations here inline into straight
//! FMA/divide sequences the compiler vectorizes like any other map kernel.
//!
//! Accuracy: `tanh_f32` is the classic degree-13/6 minimax rational on the
//! saturation range (the same approximation family used by mainstream linear
//! algebra libraries), accurate to a few f32 ulps; `sigmoid_f32` derives
//! from it via `σ(x) = (1 + tanh(x/2)) / 2`. Tests bound the error against
//! libm at 1e-6 absolute.

// The coefficients below keep the published minimax-fit digits even where
// they exceed f32 precision; they round to the intended values.
#![allow(clippy::excessive_precision)]

/// Fast `tanh`, accurate to a few ulps of `f32` everywhere.
#[inline]
pub fn tanh_f32(x: f32) -> f32 {
    // tanh saturates to ±1 (in f32) past this point; clamping first also
    // keeps the polynomial in its fitted range.
    const CLAMP: f32 = 7.905_311_5;
    const A1: f32 = 4.893_525e-3;
    const A3: f32 = 6.372_619_3e-4;
    const A5: f32 = 1.485_722_4e-5;
    const A7: f32 = 5.122_297_1e-8;
    const A9: f32 = -8.604_671_7e-11;
    const A11: f32 = 2.000_187_9e-13;
    const A13: f32 = -2.760_768_5e-16;
    const B0: f32 = 4.893_525_2e-3;
    const B2: f32 = 2.268_434_6e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let mut p = x2.mul_add(A13, A11);
    p = x2.mul_add(p, A9);
    p = x2.mul_add(p, A7);
    p = x2.mul_add(p, A5);
    p = x2.mul_add(p, A3);
    p = x2.mul_add(p, A1);
    let p = x * p;
    let mut q = x2.mul_add(B6, B4);
    q = x2.mul_add(q, B2);
    q = x2.mul_add(q, B0);
    p / q
}

/// Fast logistic sigmoid via `σ(x) = (1 + tanh(x/2)) / 2`.
#[inline]
pub fn sigmoid_f32(x: f32) -> f32 {
    0.5 * (1.0 + tanh_f32(0.5 * x))
}

/// Fast `exp`, Cephes-style: split `x = m·ln2 + r`, evaluate a degree-6
/// polynomial for `exp(r)` on `[-ln2/2, ln2/2]`, then scale by `2^m` through
/// the exponent bits. Accurate to a few f32 ulps over the clamped range.
#[inline]
pub fn exp_f32(x: f32) -> f32 {
    // exp underflows to 0 / overflows to inf just past these; clamping keeps
    // the biased exponent `m + 127` inside [1, 254].
    const LO: f32 = -87.0;
    const HI: f32 = 88.0;
    const C1: f32 = 0.693_359_375; // ln2 split high…
    const C2: f32 = -2.121_944_4e-4; // …and low part, for an exact reduction
    const P0: f32 = 1.987_569_1e-4;
    const P1: f32 = 1.398_199_9e-3;
    const P2: f32 = 8.333_452e-3;
    const P3: f32 = 4.166_579_6e-2;
    const P4: f32 = 1.666_666_6e-1;
    const P5: f32 = 5.000_000_1e-1;
    let c = x.clamp(LO, HI);
    let m = c.mul_add(std::f32::consts::LOG2_E, 0.5).floor();
    let r = m.mul_add(-C1, c);
    let r = m.mul_add(-C2, r);
    let mut p = r.mul_add(P0, P1);
    p = r.mul_add(p, P2);
    p = r.mul_add(p, P3);
    p = r.mul_add(p, P4);
    p = r.mul_add(p, P5);
    let y = p.mul_add(r * r, r) + 1.0;
    // `m as i32` saturates NaN to 0, so NaN inputs still propagate via `y`.
    let scale = f32::from_bits((((m as i32) + 127) as u32) << 23);
    y * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_matches_libm_within_1e6() {
        let mut worst = 0.0f32;
        for i in -100_000..=100_000 {
            let x = i as f32 * 1e-4; // [-10, 10]
            let err = (tanh_f32(x) - x.tanh()).abs();
            worst = worst.max(err);
        }
        assert!(worst < 1e-6, "worst tanh error {worst}");
    }

    #[test]
    fn sigmoid_matches_libm_within_1e6() {
        let mut worst = 0.0f32;
        for i in -100_000..=100_000 {
            let x = i as f32 * 2e-4; // [-20, 20]
            let exact = 1.0 / (1.0 + (-x).exp());
            worst = worst.max((sigmoid_f32(x) - exact).abs());
        }
        assert!(worst < 1e-6, "worst sigmoid error {worst}");
    }

    #[test]
    fn saturation_and_symmetry() {
        // At the clamp point the rational evaluates to 1 - O(1e-7), not an
        // exact 1.0 — the guarantee is "within 1e-6 of libm", not bit-equality.
        assert!((tanh_f32(40.0) - 1.0).abs() < 1e-6);
        assert!((tanh_f32(-40.0) + 1.0).abs() < 1e-6);
        assert_eq!(tanh_f32(0.0), 0.0);
        for x in [0.1f32, 0.9, 3.7] {
            assert_eq!(tanh_f32(-x), -tanh_f32(x));
        }
        assert!((sigmoid_f32(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid_f32(50.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid_f32(-50.0).abs() < 1e-6);
        assert!(sigmoid_f32(-50.0) >= 0.0);
    }

    #[test]
    fn exp_matches_libm_within_1e6_relative() {
        let mut worst = 0.0f32;
        for i in -80_000..=80_000 {
            let x = i as f32 * 1e-3; // [-80, 80]
            let exact = x.exp();
            let rel = ((exp_f32(x) - exact) / exact.max(f32::MIN_POSITIVE)).abs();
            worst = worst.max(rel);
        }
        assert!(worst < 1e-6, "worst exp relative error {worst}");
        assert_eq!(exp_f32(0.0), 1.0);
        assert!(exp_f32(-200.0) < 1e-37); // clamped to exp(-87)
        assert!(exp_f32(200.0) > 1e37);
    }

    #[test]
    fn nan_propagates() {
        assert!(tanh_f32(f32::NAN).is_nan());
        assert!(exp_f32(f32::NAN).is_nan());
    }
}
