//! Where a step's first layer reads its input rows.
//!
//! The first layer reads its input in three places: the neighbor mean
//! over the outermost hop, the self term's first `targets` rows, and
//! the self term's weight gradient over the same rows. None needs the
//! rows gathered into an `f32` matrix first, so a [`StepInput`] names
//! them where they are — a gathered matrix, a table of rows borrowed
//! where each tier keeps them, an in-RAM matrix read in place by vertex
//! id, or a store's encoded bytes in MFG order — and `with_source!`,
//! the one place that names the four, hands each read one
//! [`RowSource`]: the mean ([`sage::agg_into`]) decodes each element as
//! it adds it, and the dense products pack a block of decoded rows as
//! they reach it ([`RowView::Rows`]), reading a gathered matrix in
//! place. Every source of the same values gives the same sums, bit for
//! bit.

use spp_graph::quant::{f16_bits_to_f32, i8_row, i8_value};
use spp_graph::{FeatureMatrix, QuantScheme, VertexId};
use spp_pool::WorkerPool;
use spp_store::FeatureStore;
use spp_tensor::sage::{self, HopView, RowSource};
use spp_tensor::{Matrix, RowTable, RowView};
use std::marker::PhantomData;

/// Evaluates `$body` with `$x` bound to `$input`'s rows as a
/// [`RowSource`]: the gathered matrix, the row table, the in-place
/// rows, or the encoded rows under their scheme.
macro_rules! with_source {
    ($input:expr, $x:ident => $body:expr) => {
        match $input {
            StepInput::Gathered($x) => $body,
            StepInput::Table(ref $x) => $body,
            StepInput::InPlace { feats, nodes } => {
                let $x = &InPlace { feats, nodes };
                $body
            }
            StepInput::Encoded { scheme, dim, bytes } => match scheme {
                QuantScheme::F32 => {
                    let $x = &Coded::<F32>::new(dim, bytes);
                    $body
                }
                QuantScheme::F16 => {
                    let $x = &Coded::<F16>::new(dim, bytes);
                    $body
                }
                QuantScheme::I8 => {
                    let $x = &Coded::<I8>::new(dim, bytes);
                    $body
                }
            },
        }
    };
}

/// A step's first-layer input: one row per MFG node, in MFG local
/// order, `dims[0]` wide.
#[derive(Clone, Copy, Debug)]
pub enum StepInput<'a> {
    /// A gathered `f32` matrix.
    Gathered(&'a Matrix),
    /// `f32` rows borrowed where each is kept, row `i` MFG node `i`'s
    /// (`spp_core::BatchRows::table`).
    Table(RowTable<'a>),
    /// Rows of an in-RAM matrix, read in place: node `i` is row
    /// `nodes[i]`.
    InPlace {
        /// The resident matrix.
        feats: &'a FeatureMatrix,
        /// The MFG's vertex ids.
        nodes: &'a [VertexId],
    },
    /// The rows' stored bytes in MFG order, `scheme.row_bytes(dim)` each
    /// ([`FeatureStore::gather_encoded_into`]).
    Encoded {
        /// The rows' encoding.
        scheme: QuantScheme,
        /// Elements per row.
        dim: usize,
        /// The encoded rows.
        bytes: &'a [u8],
    },
}

impl<'a> From<&'a Matrix> for StepInput<'a> {
    fn from(x: &'a Matrix) -> Self {
        StepInput::Gathered(x)
    }
}

impl<'a> StepInput<'a> {
    /// MFG `nodes`' rows as `store` keeps them: in place when it is an
    /// in-RAM matrix ([`FeatureStore::in_ram`]), else in `encoded`, which
    /// must hold their stored bytes.
    pub fn of_store(store: &'a dyn FeatureStore, nodes: &'a [VertexId], encoded: &'a [u8]) -> Self {
        match store.in_ram() {
            Some(feats) => StepInput::InPlace { feats, nodes },
            None => StepInput::Encoded {
                scheme: store.scheme(),
                dim: store.dim(),
                bytes: encoded,
            },
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        with_source!(*self, x => x.num_rows())
    }

    /// Row width.
    pub(crate) fn cols(&self) -> usize {
        with_source!(*self, x => x.cols())
    }

    /// The neighbor mean over `hop` into `out` ([`sage::agg_into`]),
    /// reading each row where it is: the first layer's mean.
    pub fn agg_into(&self, pool: WorkerPool, hop: HopView<'_>, out: &mut Matrix) {
        with_source!(*self, x => sage::agg_into(pool, x, hop, out));
    }

    /// `f` over the rows as a dense product's left operand
    /// ([`RowSource::lhs`]): a gathered matrix read in place, any other
    /// source's rows decoded and packed as the kernel reaches them. The
    /// first layer's self term and its weight gradient read them so.
    pub fn with_view<T>(&self, f: impl FnOnce(RowView<'_>) -> T) -> T {
        with_source!(*self, x => f(x.lhs()))
    }
}

/// [`StepInput::InPlace`] as a [`RowSource`].
struct InPlace<'a> {
    feats: &'a FeatureMatrix,
    nodes: &'a [VertexId],
}

impl RowSource for InPlace<'_> {
    type Elem = f32;
    type Codec = ();

    fn num_rows(&self) -> usize {
        self.nodes.len()
    }

    fn cols(&self) -> usize {
        self.feats.dim()
    }

    #[inline]
    fn row(&self, s: usize) -> ((), &[f32]) {
        ((), self.feats.row(self.nodes[s]))
    }

    #[inline(always)]
    fn value((): (), e: f32) -> f32 {
        e
    }
}

/// One row encoding, element by element: how a stored row splits into
/// its codec and its elements, and what an element stands for — the
/// values `spp_graph::quant::decode_row` writes.
trait Code: Sync {
    const SCHEME: QuantScheme;
    type Elem: Copy;
    type Codec: Copy;
    fn split(row: &[u8]) -> (Self::Codec, &[Self::Elem]);
    fn value(c: Self::Codec, e: Self::Elem) -> f32;
}

struct F32;
struct F16;
struct I8;

impl Code for F32 {
    const SCHEME: QuantScheme = QuantScheme::F32;
    type Elem = [u8; 4];
    type Codec = ();

    #[inline(always)]
    fn split(row: &[u8]) -> ((), &[[u8; 4]]) {
        ((), row.as_chunks().0)
    }

    #[inline(always)]
    fn value((): (), e: [u8; 4]) -> f32 {
        f32::from_le_bytes(e)
    }
}

impl Code for F16 {
    const SCHEME: QuantScheme = QuantScheme::F16;
    type Elem = [u8; 2];
    type Codec = ();

    #[inline(always)]
    fn split(row: &[u8]) -> ((), &[[u8; 2]]) {
        ((), row.as_chunks().0)
    }

    #[inline(always)]
    fn value((): (), e: [u8; 2]) -> f32 {
        f16_bits_to_f32(u16::from_le_bytes(e))
    }
}

impl Code for I8 {
    const SCHEME: QuantScheme = QuantScheme::I8;
    type Elem = u8;
    type Codec = (f32, f32);

    #[inline(always)]
    fn split(row: &[u8]) -> ((f32, f32), &[u8]) {
        i8_row(row)
    }

    #[inline(always)]
    fn value((lo, scale): (f32, f32), e: u8) -> f32 {
        i8_value(e, lo, scale)
    }
}

/// [`StepInput::Encoded`] rows under encoding `C`, as a [`RowSource`].
struct Coded<'a, C> {
    dim: usize,
    row_bytes: usize,
    bytes: &'a [u8],
    code: PhantomData<C>,
}

impl<'a, C: Code> Coded<'a, C> {
    fn new(dim: usize, bytes: &'a [u8]) -> Self {
        Self {
            dim,
            row_bytes: C::SCHEME.row_bytes(dim),
            bytes,
            code: PhantomData,
        }
    }
}

impl<C: Code> RowSource for Coded<'_, C> {
    type Elem = C::Elem;
    type Codec = C::Codec;

    fn num_rows(&self) -> usize {
        self.bytes.len().checked_div(self.row_bytes).unwrap_or(0)
    }

    fn cols(&self) -> usize {
        self.dim
    }

    #[inline]
    fn row(&self, s: usize) -> (C::Codec, &[C::Elem]) {
        C::split(&self.bytes[s * self.row_bytes..(s + 1) * self.row_bytes])
    }

    #[inline(always)]
    fn value(c: C::Codec, e: C::Elem) -> f32 {
        C::value(c, e)
    }
}
