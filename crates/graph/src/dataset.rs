//! Node-classification datasets: graph + features + labels + splits.
//!
//! The constructors in this module generate synthetic stand-ins for the
//! OGB data sets the paper evaluates on (`ogbn-products`,
//! `ogbn-papers100M`, `lsc-mag240c`). They preserve the *ratios* that
//! drive the paper's results — average degree, feature dimensionality,
//! and train/val/test split skew — at a laptop-tractable scale
//! (see DESIGN.md §2 for the substitution rationale).

use crate::{CsrGraph, Permutation, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row-major dense `f32` vertex-feature matrix.
///
/// # Example
///
/// ```
/// use spp_graph::FeatureMatrix;
///
/// let f = FeatureMatrix::zeros(3, 4);
/// assert_eq!(f.row(1).len(), 4);
/// assert_eq!(f.memory_bytes(), 3 * 4 * 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f32>,
    dim: usize,
}

impl FeatureMatrix {
    /// All-zero matrix with `rows` rows of dimension `dim`.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            dim,
        }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(data: Vec<f32>, dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert_eq!(data.len() % dim, 0, "flat buffer not a multiple of dim");
        Self { data, dim }
    }

    /// Number of rows (vertices).
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// Feature dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow one row.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[f32] {
        let v = v as usize;
        &self.data[v * self.dim..(v + 1) * self.dim]
    }

    /// Mutably borrow one row.
    #[inline]
    pub fn row_mut(&mut self, v: VertexId) -> &mut [f32] {
        let v = v as usize;
        &mut self.data[v * self.dim..(v + 1) * self.dim]
    }

    /// The flat row-major buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Copies the rows `ids` into a new contiguous matrix ("tensor slicing").
    pub fn gather(&self, ids: &[VertexId]) -> FeatureMatrix {
        let mut out = Vec::with_capacity(ids.len() * self.dim);
        for &v in ids {
            out.extend_from_slice(self.row(v));
        }
        FeatureMatrix {
            data: out,
            dim: self.dim,
        }
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Train/validation/test vertex sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Split {
    /// Training vertex ids (sorted).
    pub train: Vec<VertexId>,
    /// Validation vertex ids (sorted).
    pub val: Vec<VertexId>,
    /// Test vertex ids (sorted).
    pub test: Vec<VertexId>,
}

impl Split {
    /// Relabels all split ids through a permutation and re-sorts.
    pub fn permuted(&self, perm: &Permutation) -> Split {
        let map = |ids: &[VertexId]| {
            let mut out: Vec<VertexId> = ids.iter().map(|&v| perm.to_new(v)).collect();
            out.sort_unstable();
            out
        };
        Split {
            train: map(&self.train),
            val: map(&self.val),
            test: map(&self.test),
        }
    }
}

/// A complete node-classification dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name (e.g. `products-mini`).
    pub name: String,
    /// The (symmetric) graph.
    pub graph: CsrGraph,
    /// Vertex features.
    pub features: FeatureMatrix,
    /// Vertex labels in `0..num_classes` (meaningless for unlabeled vertices).
    pub labels: Vec<u32>,
    /// Number of label classes.
    pub num_classes: usize,
    /// Train/val/test split.
    pub split: Split,
}

impl Dataset {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Applies a vertex permutation to every component consistently.
    pub fn permuted(&self, perm: &Permutation) -> Dataset {
        let n = self.num_vertices();
        let dim = self.features.dim();
        let mut feats = FeatureMatrix::zeros(n, dim);
        for old in 0..n as VertexId {
            feats
                .row_mut(perm.to_new(old))
                .copy_from_slice(self.features.row(old));
        }
        Dataset {
            name: self.name.clone(),
            graph: perm.apply_to_graph(&self.graph),
            features: feats,
            labels: perm.apply_to_values(&self.labels),
            num_classes: self.num_classes,
            split: self.split.permuted(perm),
        }
    }

    /// Total feature storage in bytes (the quantity Figure 5 plots multiples of).
    pub fn feature_bytes(&self) -> usize {
        self.features.memory_bytes()
    }
}

/// Specification for a synthetic dataset.
///
/// # Example
///
/// ```
/// use spp_graph::dataset::SyntheticSpec;
///
/// let ds = SyntheticSpec::new("tiny", 200, 8.0, 16, 4).seed(1).build();
/// assert_eq!(ds.num_vertices(), 200);
/// assert!(!ds.split.train.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct SyntheticSpec {
    name: String,
    n: usize,
    avg_degree: f64,
    feat_dim: usize,
    num_classes: usize,
    train_frac: f64,
    val_frac: f64,
    test_frac: f64,
    homophily: f64,
    degree_tail: f64,
    feature_signal: f32,
    seed: u64,
}

impl SyntheticSpec {
    /// Creates a spec with the given size, average (undirected) degree,
    /// feature dimension, and class count. Default split fractions follow
    /// ogbn-products (8% train / 1.6% val / rest test).
    pub fn new(name: &str, n: usize, avg_degree: f64, feat_dim: usize, num_classes: usize) -> Self {
        assert!(n >= num_classes, "need at least one vertex per class");
        Self {
            name: name.to_string(),
            n,
            avg_degree,
            feat_dim,
            num_classes,
            train_frac: 0.08,
            val_frac: 0.016,
            test_frac: 0.9,
            homophily: 0.93,
            degree_tail: 1.25,
            feature_signal: 1.0,
            seed: 0,
        }
    }

    /// Sets the train/val/test fractions (the rest is unlabeled).
    ///
    /// # Panics
    ///
    /// Panics if the fractions sum to more than 1.
    pub fn split_fractions(mut self, train: f64, val: f64, test: f64) -> Self {
        assert!(train + val + test <= 1.0 + 1e-9, "fractions exceed 1");
        self.train_frac = train;
        self.val_frac = val;
        self.test_frac = test;
        self
    }

    /// Sets the intra-community edge bias (0..1).
    pub fn homophily(mut self, h: f64) -> Self {
        self.homophily = h;
        self
    }

    /// Pareto shape of the per-vertex popularity weights (smaller =
    /// heavier degree tail; 1.2–1.5 resembles citation graphs). See
    /// [`crate::generate::citation_graph`].
    pub fn degree_tail(mut self, tail: f64) -> Self {
        self.degree_tail = tail;
        self
    }

    /// Signal-to-noise scale of class-correlated features.
    pub fn feature_signal(mut self, s: f32) -> Self {
        self.feature_signal = s;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    pub fn build(&self) -> Dataset {
        let target_edges = (self.n as f64 * self.avg_degree / 2.0) as usize;

        // Citation-style graph: heavy-tailed popularity, community
        // structure (blocks = label classes), and popularity-weighted
        // endpoints both within and across communities — the structural
        // properties that drive the paper's access skew (DESIGN.md §2).
        let graph = crate::generate::citation_graph(
            self.n,
            target_edges,
            self.num_classes,
            self.homophily,
            self.degree_tail,
            self.seed,
        );

        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(2));

        // Ground-truth labels come from the planted blocks (contiguous
        // ranges, see `GeneratorConfig::planted_partition`).
        let labels: Vec<u32> = (0..self.n)
            .map(|v| (v * self.num_classes / self.n) as u32)
            .collect();

        // Class-correlated features: centroid + uniform noise.
        let mut centroids = vec![0.0f32; self.num_classes * self.feat_dim];
        for c in centroids.iter_mut() {
            *c = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        }
        let mut features = FeatureMatrix::zeros(self.n, self.feat_dim);
        for v in 0..self.n {
            let label = labels[v] as usize;
            let row = features.row_mut(v as VertexId);
            for (j, x) in row.iter_mut().enumerate() {
                let noise: f32 = rng.gen::<f32>() * 2.0 - 1.0;
                *x = self.feature_signal * centroids[label * self.feat_dim + j] + noise;
            }
        }

        // Split assignment: shuffle ids, take prefixes. Matches the paper's
        // setting where splits are distributed across the whole graph.
        let mut ids: Vec<VertexId> = (0..self.n as VertexId).collect();
        for i in (1..ids.len()).rev() {
            let j = rng.gen_range(0..=i);
            ids.swap(i, j);
        }
        let n_train = (self.n as f64 * self.train_frac).round() as usize;
        let n_val = (self.n as f64 * self.val_frac).round() as usize;
        let n_test = (self.n as f64 * self.test_frac).round() as usize;
        let mut train: Vec<VertexId> = ids[..n_train].to_vec();
        let mut val: Vec<VertexId> = ids[n_train..n_train + n_val].to_vec();
        let mut test: Vec<VertexId> =
            ids[n_train + n_val..(n_train + n_val + n_test).min(self.n)].to_vec();
        train.sort_unstable();
        val.sort_unstable();
        test.sort_unstable();

        Dataset {
            name: self.name.clone(),
            graph,
            features,
            labels,
            num_classes: self.num_classes,
            split: Split { train, val, test },
        }
    }
}

/// Scaled-down stand-in for `ogbn-products`
/// (paper: 2.4M vertices, 123M edges, 100 features, 197K/39K/2.2M split).
///
/// `scale = 1.0` gives 24k vertices at the paper's ~51 average degree with
/// a 50-dim feature vector; smaller scales shrink proportionally (useful in
/// tests). Split skew matches products: a small train set and a huge test set.
pub fn products_mini(scale: f64, seed: u64) -> Dataset {
    let n = ((24_000.0 * scale) as usize).max(64);
    SyntheticSpec::new("products-mini", n, 51.0, 50, 16)
        .split_fractions(0.082, 0.016, 0.9)
        .homophily(0.9)
        .seed(seed)
        .build()
}

/// Scaled-down stand-in for `ogbn-papers100M`
/// (paper: 111M vertices, 3.2B edges, 128 features, 1.2M/125K/214K split —
/// i.e. ~99% of vertices unlabeled).
pub fn papers_mini(scale: f64, seed: u64) -> Dataset {
    let n = ((110_000.0 * scale) as usize).max(64);
    SyntheticSpec::new("papers-mini", n, 29.0, 64, 32)
        .split_fractions(0.011, 0.0011, 0.0019)
        .homophily(0.93)
        .seed(seed)
        .build()
}

/// Scaled-down stand-in for the `mag240c` papers-to-papers citation graph
/// (paper: 121M vertices, 2.6B edges, 768 features — 6× papers' dimension —
/// 1.1M/134K/88K split).
pub fn mag240_mini(scale: f64, seed: u64) -> Dataset {
    let n = ((60_000.0 * scale) as usize).max(64);
    SyntheticSpec::new("mag240-mini", n, 21.5, 384, 32)
        .split_fractions(0.009, 0.0011, 0.0007)
        .homophily(0.93)
        .seed(seed)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_rows() {
        let mut f = FeatureMatrix::zeros(2, 3);
        f.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(f.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(f.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(f.num_rows(), 2);
    }

    #[test]
    fn gather_copies_rows() {
        let f = FeatureMatrix::from_flat(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], 2);
        let g = f.gather(&[2, 0]);
        assert_eq!(g.as_flat(), &[2.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of dim")]
    fn from_flat_validates() {
        FeatureMatrix::from_flat(vec![1.0; 5], 2);
    }

    #[test]
    fn synthetic_dataset_consistency() {
        let ds = SyntheticSpec::new("t", 500, 10.0, 8, 5).seed(9).build();
        assert_eq!(ds.num_vertices(), 500);
        assert_eq!(ds.features.num_rows(), 500);
        assert_eq!(ds.labels.len(), 500);
        assert!(ds.labels.iter().all(|&l| (l as usize) < ds.num_classes));
        assert!(ds.graph.is_symmetric());
        // Split sets are disjoint.
        for &v in &ds.split.train {
            assert!(ds.split.val.binary_search(&v).is_err());
            assert!(ds.split.test.binary_search(&v).is_err());
        }
    }

    #[test]
    fn split_kind_classification() {
        let ds = SyntheticSpec::new("t", 300, 8.0, 4, 3)
            .split_fractions(0.1, 0.1, 0.1)
            .seed(2)
            .build();
        // Each vertex is in at most one split, and some are in none.
        let sets = [&ds.split.train, &ds.split.val, &ds.split.test];
        let mut unlabeled = 0;
        for v in 0..300 {
            match sets.iter().filter(|s| s.binary_search(&v).is_ok()).count() {
                0 => unlabeled += 1,
                1 => {}
                n => panic!("vertex {v} is in {n} splits"),
            }
        }
        let labeled: usize = sets.iter().map(|s| s.len()).sum();
        assert_eq!(labeled + unlabeled, 300);
        assert!(unlabeled > 0);
    }

    #[test]
    fn permuted_dataset_is_consistent() {
        let ds = SyntheticSpec::new("t", 100, 6.0, 4, 4).seed(3).build();
        // Reverse permutation.
        let perm = Permutation::from_forward((0..100).rev().collect());
        let pd = ds.permuted(&perm);
        for old in 0..100u32 {
            let new = perm.to_new(old);
            assert_eq!(ds.features.row(old), pd.features.row(new));
            assert_eq!(ds.labels[old as usize], pd.labels[new as usize]);
            assert_eq!(ds.graph.degree(old), pd.graph.degree(new));
            for (a, b) in [
                (&ds.split.train, &pd.split.train),
                (&ds.split.val, &pd.split.val),
                (&ds.split.test, &pd.split.test),
            ] {
                assert_eq!(a.binary_search(&old).is_ok(), b.binary_search(&new).is_ok());
            }
        }
    }

    #[test]
    fn named_datasets_have_expected_shape() {
        let p = products_mini(0.02, 1);
        assert_eq!(p.features.dim(), 50);
        assert!(p.split.test.len() > p.split.train.len());
        let q = papers_mini(0.005, 1);
        assert_eq!(q.features.dim(), 64);
        // papers is mostly unlabeled: train+val+test << n
        let labeled = q.split.train.len() + q.split.val.len() + q.split.test.len();
        assert!(labeled * 10 < q.num_vertices());
        let m = mag240_mini(0.005, 1);
        assert_eq!(m.features.dim(), 384);
    }

    #[test]
    fn feature_signal_separates_classes() {
        let ds = SyntheticSpec::new("t", 200, 6.0, 16, 2)
            .feature_signal(2.0)
            .seed(4)
            .build();
        // Mean feature of class 0 differs from class 1 substantially.
        let mean = |c: u32| -> Vec<f32> {
            let rows: Vec<_> = (0..200u32)
                .filter(|&v| ds.labels[v as usize] == c)
                .collect();
            let mut m = [0.0f32; 16];
            for &v in &rows {
                for (j, x) in ds.features.row(v).iter().enumerate() {
                    m[j] += x;
                }
            }
            m.iter().map(|x| x / rows.len() as f32).collect()
        };
        let (m0, m1) = (mean(0), mean(1));
        let dist: f32 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 4.0, "class centroids too close: {dist}");
    }
}
