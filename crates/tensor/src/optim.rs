//! Parameters and optimizers.

use crate::Matrix;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current parameter value.
    pub value: Matrix,
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: Matrix,
}

impl Param {
    /// Wraps an initial value with a zero gradient.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self {
            value,
            grad: Matrix::zeros(r, c),
        }
    }

    /// Adds `g` into the accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate(&mut self, g: &Matrix) {
        self.grad.add_assign(g);
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.scale_assign(0.0);
    }
}

/// A first-order optimizer updating a set of [`Param`]s in place.
pub trait Optimizer {
    /// Applies one update step using each parameter's accumulated gradient,
    /// then zeroes the gradients.
    fn step(&mut self, params: &mut [&mut Param]);
}

/// Adam (Kingma & Ba, 2015), the optimizer used by the paper's accuracy
/// experiments (fixed learning rate 0.001).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            let zeros = |p: &Param| {
                let (r, c) = p.value.shape();
                Matrix::zeros(r, c)
            };
            self.m = params.iter().map(|p| zeros(p)).collect();
            self.v = params.iter().map(|p| zeros(p)).collect();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for (((w, &g), mm), vv) in p
                .value
                .as_flat_mut()
                .iter_mut()
                .zip(p.grad.as_flat())
                .zip(m.as_flat_mut())
                .zip(v.as_flat_mut())
            {
                *mm = self.beta1 * *mm + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
                let mhat = *mm / bc1;
                let vhat = *vv / bc2;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(w) = (w - 3)^2 must converge to w = 3.
    fn converges<O: Optimizer>(mut opt: O, iters: usize) -> f32 {
        let mut p = Param::new(Matrix::from_rows(&[&[0.0f32]]));
        for _ in 0..iters {
            let w = p.value.get(0, 0);
            p.grad = Matrix::from_rows(&[&[2.0 * (w - 3.0)]]);
            opt.step(&mut [&mut p]);
        }
        p.value.get(0, 0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = converges(Adam::new(0.1), 500);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::new(Matrix::from_rows(&[&[1.0]]));
        p.grad = Matrix::from_rows(&[&[5.0]]);
        Adam::new(0.1).step(&mut [&mut p]);
        assert_eq!(p.grad.get(0, 0), 0.0);
    }

    #[test]
    fn accumulate_adds() {
        let mut p = Param::new(Matrix::from_rows(&[&[0.0]]));
        p.accumulate(&Matrix::from_rows(&[&[1.0]]));
        p.accumulate(&Matrix::from_rows(&[&[2.0]]));
        assert_eq!(p.grad.get(0, 0), 3.0);
    }
}
