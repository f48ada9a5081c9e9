//! Deterministic, mergeable quantile sketches (HDR-style).
//!
//! A [`QuantileSketch`] is a fixed-layout histogram over `u64` samples:
//! values below [`SUB_BUCKETS`] land in exact unit buckets, and every
//! larger octave `[2^k, 2^(k+1))` is split into [`SUB_BUCKETS`] linear
//! sub-buckets. The layout is a pure function of the value — no
//! adaptive resizing, no randomness — which buys three properties the
//! workspace's §9 determinism contract needs:
//!
//! 1. **Fixed relative error.** A sub-bucket in octave `k` is
//!    `2^(k-SUB_BITS)` wide while every value in it is at least `2^k`,
//!    so the reported bucket floor under-reports any sample (and any
//!    quantile) by strictly less than [`REL_ERROR`] = 1/16 ≈ 6.25 %:
//!    `floor ≤ v < floor · (1 + REL_ERROR)`.
//! 2. **Exact merges.** Two sketches over the same layout merge by
//!    element-wise addition of bucket counts — the merge of sketches
//!    equals the sketch of the concatenated streams *exactly*, so
//!    per-worker or per-replica sketches folded in registration
//!    (index) order are bit-identical to a single-threaded sketch of
//!    the whole stream, independent of how samples were split.
//! 3. **Canonical rendering.** [`QuantileSketch::to_json`] emits the
//!    sparse bucket list in index order with integer counts only, so
//!    equal sketches render byte-identical JSON (the bench
//!    determinism gates compare these strings directly).
//!
//! Quantiles are reported as the *lower edge* of the bucket containing
//! the ceil-rank observation: deterministic, integral, and never above
//! the true order statistic. `p50/p99/p999` in bench reports and the
//! live snapshot dashboard all come from this type (DESIGN.md §15).

use crate::json::Json;

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (and the exact-bucket range `0..16`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total buckets: 16 exact unit buckets for `0..16`, then 16 linear
/// sub-buckets for each octave `[2^k, 2^(k+1))`, `k = 4..=63`.
pub const NUM_BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);
/// Upper bound on the relative error of any reported quantile:
/// `floor ≤ v < floor * (1 + REL_ERROR)`.
pub const REL_ERROR: f64 = 1.0 / SUB_BUCKETS as f64;

/// Bucket index for sample `v` (total order, exact below
/// [`SUB_BUCKETS`]).
#[inline]
#[must_use]
pub fn sketch_bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        // Octave k = floor(log2 v) >= SUB_BITS; the top SUB_BITS bits
        // below the leading one select the linear sub-bucket.
        let k = 63 - v.leading_zeros();
        let octave_base = (k - SUB_BITS + 1) as usize * SUB_BUCKETS;
        let sub = ((v >> (k - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        octave_base + sub
    }
}

/// Smallest sample landing in bucket `i` (inverse of
/// [`sketch_bucket_of`]).
#[inline]
#[must_use]
pub fn sketch_bucket_floor(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let octave = (i / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let sub = (i % SUB_BUCKETS) as u64;
        (1u64 << octave) + (sub << (octave - SUB_BITS))
    }
}

/// A deterministic, mergeable quantile sketch (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: Box<[u64]>,
    count: u64,
    /// u128: `u64::MAX` samples must not overflow the running sum.
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; NUM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.counts[sketch_bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration in seconds as integer nanoseconds (negative
    /// durations clamp to zero).
    #[inline]
    pub fn observe_secs(&mut self, secs: f64) {
        self.observe((secs.max(0.0) * 1e9) as u64);
    }

    /// Folds `other` into `self`. The merge is exact: the result equals
    /// the sketch of both streams concatenated, regardless of how the
    /// samples were split or in which order sketches are folded.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower edge of the bucket holding the `q`-quantile observation
    /// (0 when empty). Never above the true order statistic, and within
    /// [`REL_ERROR`] of it relatively.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The min is exact and lives in this bucket's range, so
                // it is a tighter (still never-overestimating) floor.
                return sketch_bucket_floor(i).max(self.min);
            }
        }
        sketch_bucket_floor(NUM_BUCKETS - 1)
    }

    /// [`Self::quantile`] converted from nanoseconds to seconds.
    #[must_use]
    pub fn quantile_secs(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e9
    }

    /// Per-bucket counts, sparse: `(bucket index, count)` for every
    /// non-empty bucket, in index order.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Canonical JSON rendering: totals, the standard p50/p90/p99/p999
    /// quantiles, and the sparse bucket list in index order. Equal
    /// sketches render byte-identical strings; the sum of the bucket
    /// counts always equals `count`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let buckets = self.nonzero_buckets().into_iter();
        Json::obj([
            ("count", self.count.into()),
            ("sum", self.sum.into()),
            ("min", self.min().into()),
            ("max", self.max.into()),
            ("p50", self.quantile(0.50).into()),
            ("p90", self.quantile(0.90).into()),
            ("p99", self.quantile(0.99).into()),
            ("p999", self.quantile(0.999).into()),
            (
                "buckets",
                buckets
                    .map(|(i, c)| Json::Arr(vec![i.into(), c.into()]))
                    .collect(),
            ),
        ])
    }

    /// Reads back what [`Self::to_json`] wrote (the quantiles are
    /// derived, so they are not read): bucket indices in range and
    /// increasing, bucket counts summing to `count`.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut s = Self::new();
        let mut next = 0;
        for (b, pair) in v.arr_field("buckets")?.iter().enumerate() {
            let (i, c) = match pair.as_arr() {
                Some([i, c]) => i.as_uint::<usize>().zip(c.as_uint()),
                _ => None,
            }
            .filter(|&(i, _)| (next..NUM_BUCKETS).contains(&i))
            .ok_or(format!("bucket {b} is not an in-order [index, count] pair"))?;
            s.counts[i] = c;
            next = i + 1;
        }
        s.count = v.uint_field("count")?;
        let bucket_sum: u128 = s.counts.iter().map(|&c| u128::from(c)).sum();
        if bucket_sum != u128::from(s.count) {
            return Err(format!(
                "bucket counts sum to {bucket_sum} but count is {}",
                s.count
            ));
        }
        s.sum = v.uint_field("sum")?;
        s.max = v.uint_field("max")?;
        if s.count > 0 {
            s.min = v.uint_field("min")?;
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_roundtrips() {
        // Exact range.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(sketch_bucket_of(v), v as usize);
            assert_eq!(sketch_bucket_floor(v as usize), v);
        }
        // Every bucket's floor maps back to that bucket, and floors are
        // strictly increasing.
        for i in 0..NUM_BUCKETS {
            assert_eq!(sketch_bucket_of(sketch_bucket_floor(i)), i, "bucket {i}");
            if i > 0 {
                assert!(sketch_bucket_floor(i) > sketch_bucket_floor(i - 1));
            }
        }
        // One below a floor lands in the previous bucket.
        for i in 1..NUM_BUCKETS {
            assert_eq!(sketch_bucket_of(sketch_bucket_floor(i) - 1), i - 1);
        }
        assert_eq!(sketch_bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_bound_holds_per_bucket() {
        for i in SUB_BUCKETS..NUM_BUCKETS - 1 {
            let lo = sketch_bucket_floor(i);
            let hi = sketch_bucket_floor(i + 1);
            let width = (hi - lo) as f64;
            assert!(
                width / lo as f64 <= REL_ERROR + 1e-12,
                "bucket {i}: width {width} floor {lo}"
            );
        }
    }

    #[test]
    fn zero_observations() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.sum(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_observation_is_exactly_recovered() {
        for v in [0u64, 1, 15, 16, 17, 1000, u64::MAX] {
            let mut s = QuantileSketch::new();
            s.observe(v);
            assert_eq!(s.count(), 1);
            assert_eq!(s.min(), v);
            assert_eq!(s.max(), v);
            // min tightening makes single-sample quantiles exact.
            assert_eq!(s.quantile(0.0), v);
            assert_eq!(s.quantile(0.5), v);
            assert_eq!(s.quantile(1.0), v);
        }
    }

    #[test]
    fn u64_max_saturates_nothing() {
        let mut s = QuantileSketch::new();
        s.observe(u64::MAX);
        s.observe(u64::MAX);
        assert_eq!(s.sum(), 2 * u128::from(u64::MAX));
        assert_eq!(s.max(), u64::MAX);
        // Both samples sit in the last bucket; min-tightening recovers
        // the exact value rather than the bucket floor.
        assert_eq!(s.nonzero_buckets(), vec![(NUM_BUCKETS - 1, 2)]);
        assert_eq!(s.quantile(1.0), u64::MAX);
    }

    #[test]
    fn bucket_boundary_values_are_separated() {
        // 16 and 17 are distinct buckets (exact units end at 16, but
        // octave 4 has unit-wide sub-buckets); 2^20 and 2^20 - 1 are
        // distinct octaves.
        let mut s = QuantileSketch::new();
        for v in [16u64, 17, (1 << 20) - 1, 1 << 20] {
            s.observe(v);
        }
        assert_eq!(s.nonzero_buckets().len(), 4);
        assert_eq!(s.quantile(0.25), 16);
        assert_eq!(s.quantile(0.5), 17);
    }

    #[test]
    fn merge_of_empty_is_identity_both_ways() {
        let mut s = QuantileSketch::new();
        s.observe(42);
        s.observe(7);
        let before = s.clone();
        s.merge(&QuantileSketch::new());
        assert_eq!(s, before);
        let mut e = QuantileSketch::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn merge_equals_whole_stream_bitwise() {
        let vals: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9e37).rotate_left(7))
            .collect();
        let mut whole = QuantileSketch::new();
        for &v in &vals {
            whole.observe(v);
        }
        // Split three ways, merge in a different order than recorded.
        let mut parts = [
            QuantileSketch::new(),
            QuantileSketch::new(),
            QuantileSketch::new(),
        ];
        for (i, &v) in vals.iter().enumerate() {
            parts[i % 3].observe(v);
        }
        let mut merged = QuantileSketch::new();
        merged.merge(&parts[2]);
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        assert_eq!(merged, whole);
        assert_eq!(merged.to_json(), whole.to_json());
    }

    #[test]
    fn quantiles_never_overestimate_and_stay_in_bound() {
        let vals: Vec<u64> = (1..=1000u64).map(|i| i * i).collect();
        let mut s = QuantileSketch::new();
        for &v in &vals {
            s.observe(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let truth = vals[rank - 1]; // vals is sorted
            let got = s.quantile(q);
            assert!(got <= truth, "q{q}: {got} > {truth}");
            assert!(
                (truth - got) as f64 <= REL_ERROR * got as f64 + 1e-9,
                "q{q}: {got} vs {truth}"
            );
        }
    }

    #[test]
    fn json_is_canonical_and_consistent() {
        let mut s = QuantileSketch::new();
        for v in [3u64, 3, 90, 1 << 30] {
            s.observe(v);
        }
        let j = s.to_json().to_string();
        assert!(j.starts_with("{\"count\": 4, "), "{j}");
        assert!(j.contains("\"buckets\": [[3, 2], "), "{j}");
        // Bucket counts sum to count (the validate-trace invariant).
        let total: u64 = s.nonzero_buckets().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, s.count());
        assert_eq!(s.clone().to_json().to_string(), j);
        assert_eq!(QuantileSketch::from_json(&s.to_json()), Ok(s));
    }
}
