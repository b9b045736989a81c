//! Weight initialisation schemes.

use stuq_tensor::{StuqRng, Tensor};

/// Glorot/Xavier uniform: `U(−a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn glorot_uniform(fan_in: usize, fan_out: usize, shape: &[usize], rng: &mut StuqRng) -> Tensor {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::rand_uniform(shape, -a, a, rng)
}

/// Small-scale normal for node embeddings (AGCRN initialises `E` this way).
pub fn embedding_init(shape: &[usize], rng: &mut StuqRng) -> Tensor {
    Tensor::randn(shape, 0.1, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glorot_bounds() {
        let mut rng = StuqRng::new(1);
        let t = glorot_uniform(100, 100, &[100, 100], &mut rng);
        let a = (6.0f32 / 200.0).sqrt();
        assert!(t.max() <= a && t.min() >= -a);
        assert!(t.mean().abs() < 0.01);
    }
}
