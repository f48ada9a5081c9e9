//! Weight initializers.

use crate::Matrix;
use rand::Rng;

/// Glorot/Xavier uniform initialization: entries drawn from
/// `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`. The default for
/// GraphSAGE linear layers.
pub fn glorot_uniform<R: Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut m = Matrix::zeros(fan_in, fan_out);
    for v in m.as_flat_mut() {
        *v = rng.gen::<f32>() * 2.0 * a - a;
    }
    m
}

/// Zero-initialized `1×n` bias row.
pub fn zeros_bias(n: usize) -> Matrix {
    Matrix::zeros(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_within_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = glorot_uniform(64, 32, &mut rng);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(m.as_flat().iter().all(|&v| v.abs() <= a));
        // Not all zeros.
        assert!(m.norm() > 0.0);
    }

    #[test]
    fn bias_is_zero_row() {
        let b = zeros_bias(5);
        assert_eq!(b.shape(), (1, 5));
        assert_eq!(b.sum(), 0.0);
    }
}
