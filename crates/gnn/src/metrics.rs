//! Classification metrics.

use spp_tensor::Matrix;

/// Argmax predictions for a logits matrix, one per row.
pub fn predictions(logits: &Matrix) -> Vec<u32> {
    (0..logits.rows())
        .map(|i| {
            let row = logits.row(i);
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best as u32
        })
        .collect()
}

/// Fraction of predictions matching labels.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(preds: &[u32], labels: &[u32]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "length mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f64 / preds.len() as f64
}

/// Streaming accuracy accumulator for minibatch inference.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccuracyMeter {
    correct: usize,
    total: usize,
}

impl AccuracyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one batch of predictions.
    pub fn update(&mut self, preds: &[u32], labels: &[u32]) {
        assert_eq!(preds.len(), labels.len(), "length mismatch");
        self.correct += preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        self.total += preds.len();
    }

    /// Adds another meter's counts.
    pub fn merge(&mut self, other: &Self) {
        self.correct += other.correct;
        self.total += other.total;
    }

    /// Accuracy so far (0 if nothing recorded).
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_predictions() {
        let logits = Matrix::from_rows(&[&[0.1, 0.9], &[2.0, -1.0]]);
        assert_eq!(predictions(&logits), vec![1, 0]);
    }

    #[test]
    fn accuracy_half() {
        assert_eq!(accuracy(&[1, 0], &[1, 1]), 0.5);
    }

    #[test]
    fn accuracy_empty_is_zero() {
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn meter_accumulates() {
        let mut m = AccuracyMeter::new();
        m.update(&[1, 1], &[1, 0]);
        m.update(&[2], &[2]);
        assert_eq!(m.count(), 3);
        assert!((m.value() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_pick_first() {
        let logits = Matrix::from_rows(&[&[0.5, 0.5]]);
        assert_eq!(predictions(&logits), vec![0]);
    }
}
