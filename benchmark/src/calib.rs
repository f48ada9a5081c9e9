//! Noise sentinel: a fixed calibration loop owned by the harness.
//!
//! It runs before every timed pass and never calls into the crates under
//! test, so a change in its time can only come from the host (a noisy
//! neighbour, frequency scaling), never from a code change. Half of it
//! is compute-bound (fused multiply-adds over an L1-resident array), half
//! memory-bound (a pseudo-random gather over [`GATHER_MIB`] MiB).

use std::hint::black_box;
use std::time::Instant;

/// Size of the gather array. It is allocated once, touched in full and
/// held for the life of the process, so the workload's own peak RSS is
/// `VmHWM` minus exactly this much.
pub const GATHER_MIB: usize = 128;

/// L1-resident array for the compute half (16 KiB).
const FMA_LEN: usize = 4096;
/// Sweeps over the L1 array per run; with [`GATHER_LOADS`], sized so one
/// run takes a little over 0.2 s on the 2.1 GHz reference host.
const FMA_SWEEPS: usize = 460_000;
/// Random loads per run.
const GATHER_LOADS: usize = 4_600_000;

pub struct Calibrator {
    small: Vec<f32>,
    big: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Self {
        let words = GATHER_MIB * (1 << 20) / std::mem::size_of::<u32>();
        Self {
            small: (0..FMA_LEN).map(|i| (i % 7) as f32 * 0.125).collect(),
            // Written element by element so every page is resident.
            big: (0..words as u32).collect(),
        }
    }

    /// Runs the fixed loop once; returns its wall time in milliseconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..FMA_SWEEPS {
            for x in self.small.iter_mut() {
                *x = x.mul_add(0.999_9, 0.000_1);
            }
            black_box(&mut self.small);
        }
        let mask = self.big.len() - 1;
        let mut idx = 12_345usize;
        let mut sum = 0u32;
        for _ in 0..GATHER_LOADS {
            // Weyl-sequence addressing: loads are independent of each
            // other, so the loop is bound by memory throughput, not by one
            // dependent miss at a time.
            idx = idx.wrapping_add(0x9E37_79B9) & mask;
            sum = sum.wrapping_add(self.big[idx]);
        }
        black_box(sum);
        t0.elapsed().as_secs_f64() * 1e3
    }
}
