//! Deterministic random number generation.
//!
//! Every stochastic component in this repository — weight initialisation,
//! dropout masks, the traffic simulator, Monte-Carlo inference — draws from
//! [`StuqRng`], an `xoshiro256**` generator seeded through SplitMix64. A
//! single `u64` seed therefore pins the whole experiment bit-for-bit, which is
//! what makes the paper-reproduction harness auditable.
//!
//! We implement the generator (and Box–Muller normal sampling) locally rather
//! than depending on `rand`/`rand_distr` so that the exact stream is owned by
//! this repository and can never change under a dependency upgrade; see
//! DESIGN.md §5.

/// Streams one call of `StuqRng::keep_masks` advances together: one per
/// bit of its `u8` masks, in at most two AVX2 registers of 64-bit lanes.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub(crate) const LOCKSTEP_LANES: usize = 8;

/// A seeded `xoshiro256**` pseudo-random generator.
#[derive(Clone, Debug)]
pub struct StuqRng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller draw.
    spare_normal: Option<f64>,
}

/// The complete serialisable state of a [`StuqRng`].
///
/// The cached Box–Muller spare is part of the stream: dropping it on a
/// checkpoint/restore cycle would shift every subsequent normal draw by one,
/// breaking the bit-for-bit resume guarantee. It is carried as raw `f64`
/// bits so the round-trip is exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RngState {
    /// xoshiro256** state words.
    pub s: [u64; 4],
    /// `to_bits()` of the cached Box–Muller spare, when one is pending.
    pub spare_normal_bits: Option<u64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StuqRng {
    /// Creates a generator from a seed; any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { s, spare_normal: None }
    }

    /// Captures the full generator state for checkpointing.
    pub fn export_state(&self) -> RngState {
        RngState { s: self.s, spare_normal_bits: self.spare_normal.map(f64::to_bits) }
    }

    /// Reconstructs a generator from an exported state; the stream continues
    /// exactly where [`StuqRng::export_state`] left off.
    pub fn from_state(state: RngState) -> Self {
        Self { s: state.s, spare_normal: state.spare_normal_bits.map(f64::from_bits) }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Forking instead of sharing one generator keeps components independent:
    /// adding an extra dropout draw in one module does not perturb the data
    /// sampled by another.
    pub fn fork(&mut self, stream: u64) -> Self {
        let base = self.next_u64();
        Self::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform_f32(&mut self) -> f32 {
        self.uniform_f64() as f32
    }

    /// Uniform integer in `[0, n)` via rejection-free Lemire reduction.
    #[inline]
    pub fn uniform_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "uniform_usize(0)");
        // 128-bit multiply keeps the modulo bias below 2^-64: negligible.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// Standard-normal `f64` via Box–Muller (caching the paired draw).
    pub fn normal_f64(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u1 in (0, 1] so that ln(u1) is finite.
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Standard-normal `f32`.
    #[inline]
    pub fn normal_f32(&mut self) -> f32 {
        self.normal_f64() as f32
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }

    /// Draws `masks.len()` Bernoulli outcomes from each of up to
    /// [`LOCKSTEP_LANES`] streams in lockstep, one stream per SIMD lane.
    ///
    /// Bit `i` of `masks[e]` is set when the `e`-th [`StuqRng::next_u64`]
    /// of `rngs[i]` has `x >> 11 < below`, the integer form of
    /// `bernoulli(below·2⁻⁵³)`; the bits of lanes past `rngs.len()` mean
    /// nothing. Each stream ends where `masks.len()` scalar draws leave it,
    /// and its Box–Muller spare is untouched, so the draws are the scalar
    /// ones to the bit.
    ///
    /// Each AVX2 register holds four streams' 64-bit words, so a group of
    /// up to four runs on one register and a larger group on two. The ×5
    /// and ×9 of `xoshiro256**` are shift-adds and the rotates shift/or,
    /// all exact in wrapping 64-bit arithmetic. AVX2 compares 64-bit words
    /// only as signed, so `x >> 11 < below`, which is `x <= below·2¹¹ − 1`,
    /// is tested as `x > below·2¹¹ − 1` with the sign bit of both sides
    /// flipped; the product wraps to `u64::MAX` at `below = 2⁵³`, where
    /// every draw is kept.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    pub(crate) fn keep_masks(rngs: &mut [StuqRng], below: u64, masks: &mut [u8]) {
        use std::arch::x86_64::*;

        /// Runs the first `4·H` lanes on `words`, where word `w` of lane
        /// `i` is `words[w][i]`, and leaves their final states there.
        #[target_feature(enable = "avx2")]
        fn lanes<const H: usize>(
            words: &mut [[u64; LOCKSTEP_LANES]; 4],
            below: u64,
            masks: &mut [u8],
        ) {
            let load = |w: &[u64; LOCKSTEP_LANES], h: usize| {
                let [a, b, c, d] = [w[4 * h], w[4 * h + 1], w[4 * h + 2], w[4 * h + 3]];
                _mm256_set_epi64x(d as i64, c as i64, b as i64, a as i64)
            };
            let mut s: [_; H] = std::array::from_fn(|h| words.each_ref().map(|w| load(w, h)));
            let flip = _mm256_set1_epi64x(i64::MIN);
            let last_kept = _mm256_set1_epi64x(((below << 11).wrapping_sub(1) ^ (1 << 63)) as i64);
            for m in masks.iter_mut() {
                let mut dropped = 0;
                for (h, [s0, s1, s2, s3]) in s.iter_mut().enumerate() {
                    let x5 = _mm256_add_epi64(_mm256_slli_epi64::<2>(*s1), *s1);
                    let r =
                        _mm256_or_si256(_mm256_slli_epi64::<7>(x5), _mm256_srli_epi64::<57>(x5));
                    let x = _mm256_add_epi64(_mm256_slli_epi64::<3>(r), r);
                    let drop = _mm256_cmpgt_epi64(_mm256_xor_si256(x, flip), last_kept);
                    dropped |= _mm256_movemask_pd(_mm256_castsi256_pd(drop)) << (4 * h);
                    let t = _mm256_slli_epi64::<17>(*s1);
                    *s2 = _mm256_xor_si256(*s2, *s0);
                    *s3 = _mm256_xor_si256(*s3, *s1);
                    *s1 = _mm256_xor_si256(*s1, *s2);
                    *s0 = _mm256_xor_si256(*s0, *s3);
                    *s2 = _mm256_xor_si256(*s2, t);
                    *s3 =
                        _mm256_or_si256(_mm256_slli_epi64::<45>(*s3), _mm256_srli_epi64::<19>(*s3));
                }
                *m = !dropped as u8;
            }
            for (h, half) in s.iter().enumerate() {
                for (w, &v) in words.iter_mut().zip(half) {
                    w[4 * h] = _mm256_extract_epi64::<0>(v) as u64;
                    w[4 * h + 1] = _mm256_extract_epi64::<1>(v) as u64;
                    w[4 * h + 2] = _mm256_extract_epi64::<2>(v) as u64;
                    w[4 * h + 3] = _mm256_extract_epi64::<3>(v) as u64;
                }
            }
        }

        assert!(rngs.len() <= LOCKSTEP_LANES, "{} streams in one lockstep group", rngs.len());
        assert!((1..=1 << 53).contains(&below), "keep threshold {below} is not a 53-bit draw");
        // Lanes past the streams run on zeros and are never written back.
        let mut words = [[0u64; LOCKSTEP_LANES]; 4];
        for (i, rng) in rngs.iter().enumerate() {
            for (w, &v) in rng.s.iter().enumerate() {
                words[w][i] = v;
            }
        }
        // SAFETY: `lanes` needs AVX2, and this function exists only in
        // builds that enable AVX2 for the whole program (the `cfg` above),
        // which run only on CPUs that have it.
        unsafe {
            if rngs.len() <= LOCKSTEP_LANES / 2 {
                lanes::<1>(&mut words, below, masks)
            } else {
                lanes::<2>(&mut words, below, masks)
            }
        }
        for (i, rng) in rngs.iter_mut().enumerate() {
            for (w, v) in rng.s.iter_mut().enumerate() {
                *v = words[w][i];
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.uniform_usize(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = StuqRng::new(123);
        let mut b = StuqRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StuqRng::new(1);
        let mut b = StuqRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = StuqRng::new(9);
        for _ in 0..10_000 {
            let u = rng.uniform_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_usize_covers_all_buckets() {
        let mut rng = StuqRng::new(5);
        let mut seen = [0usize; 7];
        for _ in 0..7_000 {
            seen[rng.uniform_usize(7)] += 1;
        }
        for (i, &c) in seen.iter().enumerate() {
            assert!(c > 700, "bucket {i} only hit {c} times");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = StuqRng::new(2024);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let z = rng.normal_f64();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_tail_mass_is_plausible() {
        let mut rng = StuqRng::new(7);
        let n = 100_000;
        let beyond2 = (0..n).filter(|_| rng.normal_f64().abs() > 1.96).count();
        let frac = beyond2 as f64 / n as f64;
        // P(|Z| > 1.96) = 5%.
        assert!((frac - 0.05).abs() < 0.005, "frac {frac}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = StuqRng::new(10);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn state_roundtrip_continues_stream_exactly() {
        let mut rng = StuqRng::new(42);
        // Leave a Box–Muller spare pending so the hardest case is covered.
        let _ = rng.normal_f64();
        let state = rng.export_state();
        assert!(state.spare_normal_bits.is_some(), "spare should be cached");
        let mut resumed = StuqRng::from_state(state);
        for _ in 0..64 {
            assert_eq!(rng.normal_f64().to_bits(), resumed.normal_f64().to_bits());
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StuqRng::new(77);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "50 elements should not stay sorted");
    }
}
