//! Compressed feature storage: `f16` and `i8` quantized feature rows.
//!
//! The paper treats communicated bytes — not FLOPs — as the scarce
//! resource; quantized feature tiers attack both sides of that budget
//! (DESIGN.md §14): an `f16` tier holds 2× the rows of an `f32` tier at
//! equal RAM (an `i8` tier ~4×, minus two `f32` codebook words per row),
//! and a quantized wire halves/quarters remote-fetch bytes in the
//! DES-costed serving and training paths.
//!
//! Two codecs are provided:
//!
//! * [`QuantScheme::F16`] — IEEE 754 binary16 with round-to-nearest-even,
//!   implemented as pure bit manipulation (no hardware half support is
//!   assumed). Relative error for normal values is ≤ 2⁻¹¹.
//! * [`QuantScheme::I8`] — per-row affine quantization: each row stores
//!   `min` and `scale = (max − min)/255` as `f32` plus one `i8` code per
//!   element; absolute error is ≤ `scale/2`. One codebook
//!   ([`i8_codebook`]) and one code rounding ([`i8_code`]) serve the
//!   in-RAM tier, the wire round trip and the paged store's row codec.
//!   Non-finite elements are defined once, there: the range is taken
//!   over the finite elements, `NaN`/`-inf` store as `min`, `+inf` as
//!   `max`, and finite elements of such a row keep the error bound.
//!
//! Both decode paths are branch-free slice loops ([`decode_f16_slice`],
//! [`decode_i8_slice`] — shared with the paged store's row codec) writing
//! into a caller-provided buffer ([`QuantizedFeatures::read_row_into`]),
//! so cache gathers stay allocation-free (the H1 hot-path rule).
//!
//! Determinism: encoding is a pure element-wise function of the input
//! bits, and decoding a pure function of the stored code — no
//! data-dependent control flow, so quantized tiers preserve the
//! bit-identity-across-worker-count contract everywhere they replace
//! `f32` storage.

use crate::dataset::FeatureMatrix;

/// Storage format for a feature tier or the remote-fetch wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuantScheme {
    /// Uncompressed `f32` (4 bytes/element) — the seed behavior.
    #[default]
    F32,
    /// IEEE binary16 (2 bytes/element), round-to-nearest-even.
    F16,
    /// Per-row affine `i8` (1 byte/element + 8 codebook bytes/row).
    I8,
}

impl QuantScheme {
    /// Bytes one encoded row of `dim` elements occupies (storage and
    /// wire size; the `i8` codebook counts toward both).
    pub fn row_bytes(self, dim: usize) -> usize {
        match self {
            QuantScheme::F32 => dim * 4,
            QuantScheme::F16 => dim * 2,
            QuantScheme::I8 => dim + 2 * std::mem::size_of::<f32>(),
        }
    }

    /// Parses a scheme name (`f32`/`f16`/`i8`), for bench CLIs.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "f32" => Some(QuantScheme::F32),
            "f16" => Some(QuantScheme::F16),
            "i8" => Some(QuantScheme::I8),
            _ => None,
        }
    }

    /// Short lowercase name (`"f32"`, `"f16"`, `"i8"`).
    pub fn name(self) -> &'static str {
        match self {
            QuantScheme::F32 => "f32",
            QuantScheme::F16 => "f16",
            QuantScheme::I8 => "i8",
        }
    }
}

// ---------------------------------------------------------------------
// IEEE binary16 <-> binary32 bit conversion
// ---------------------------------------------------------------------

/// Converts an `f32` to IEEE binary16 bits with round-to-nearest-even
/// (the float-to-half algorithm of Giesen's `float_to_half_fast3_rtne`:
/// integer exponent rebias with a carry-propagating rounding bias for
/// normals, and a float-addition "denorm magic" trick that lets the FPU
/// perform the subnormal rounding).
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    const F32_INFTY: u32 = 255 << 23;
    // Smallest f32 exponent that still maps to an f16 Inf after rounding.
    const F16_MAX: u32 = (127 + 16) << 23;
    // 2^-14 * 2^13 alignment constant: adding it to a would-be-subnormal
    // magnitude makes the FPU round the value into the low mantissa bits.
    const DENORM_MAGIC_BITS: u32 = ((127 - 15) + (23 - 10) + 1) << 23;
    const LOWEST_NORMAL: u32 = 113 << 23;

    let bits = x.to_bits();
    let sign = (bits >> 16) as u16 & 0x8000;
    let mag = bits & 0x7fff_ffff;

    if mag >= F16_MAX {
        // Inf stays Inf; any NaN becomes a quiet NaN.
        return sign | if mag > F32_INFTY { 0x7e00 } else { 0x7c00 };
    }
    if mag < LOWEST_NORMAL {
        // Result is f16-subnormal or zero: let FP addition do the RNE.
        let magic = f32::from_bits(DENORM_MAGIC_BITS);
        let aligned = f32::from_bits(mag) + magic;
        return sign | (aligned.to_bits().wrapping_sub(DENORM_MAGIC_BITS)) as u16;
    }
    // Normal range: rebias the exponent and add the RNE bias (0xfff, plus
    // one when the resulting mantissa LSB is odd) before truncating.
    let mant_odd = (mag >> 13) & 1;
    let rebiased = mag
        .wrapping_add((15u32.wrapping_sub(127)) << 23)
        .wrapping_add(0xfff)
        .wrapping_add(mant_odd);
    sign | (rebiased >> 13) as u16
}

/// Converts IEEE binary16 bits back to `f32` (exact — every f16 value is
/// representable in f32).
///
/// Select form, no data-dependent branch: the three exponent classes
/// (normal, zero/subnormal, Inf/NaN) are all computed and blended with
/// masks, so slice loops over it vectorize. Subnormals renormalize
/// through an FP subtract of two *normal* operands (`2⁻¹⁴·(1 + m/1024) −
/// 2⁻¹⁴`), which — unlike scaling the raw bits by 2¹¹² — never feeds the
/// FPU a denormal and so never takes a microcode assist.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    const MAGIC_BITS: u32 = 113 << 23;
    const SHIFTED_EXP: u32 = 0x7c00 << 13;

    let em = ((h as u32) & 0x7fff) << 13;
    let exp = em & SHIFTED_EXP;
    // Normal: rebias the exponent; Inf/NaN: rebias again to all-ones.
    let inf_nan = u32::from(exp == SHIFTED_EXP).wrapping_neg();
    let rebased = em + ((127 - 15) << 23) + (inf_nan & ((128 - 16) << 23));
    let renorm = (f32::from_bits(em + MAGIC_BITS) - f32::from_bits(MAGIC_BITS)).to_bits();
    let subnormal = u32::from(exp == 0).wrapping_neg();
    let bits = (renorm & subnormal) | (rebased & !subnormal);
    f32::from_bits(bits | ((h as u32 & 0x8000) << 16))
}

/// Decodes binary16 codes into `out`, one element per code — the one
/// f16 slice decoder behind both the in-RAM tier (`&[u16]` codes) and
/// the paged store's little-endian row bytes.
///
/// # Panics
///
/// Panics if `codes` does not yield exactly `out.len()` items.
#[inline]
pub fn decode_f16_slice(codes: impl ExactSizeIterator<Item = u16>, out: &mut [f32]) {
    assert_eq!(codes.len(), out.len(), "f16 decode length mismatch");
    for (o, h) in out.iter_mut().zip(codes) {
        *o = f16_bits_to_f32(h);
    }
}

/// Decodes per-row affine `i8` codes (`(code + 128) · scale + min`)
/// into `out` — shared by the in-RAM tier and the paged store, whose
/// code bytes are the same `i8`s viewed as `u8`.
///
/// # Panics
///
/// Panics if `codes` does not yield exactly `out.len()` items.
#[inline]
pub fn decode_i8_slice(
    codes: impl ExactSizeIterator<Item = i8>,
    min: f32,
    scale: f32,
    out: &mut [f32],
) {
    assert_eq!(codes.len(), out.len(), "i8 decode length mismatch");
    for (o, c) in out.iter_mut().zip(codes) {
        *o = i8_value(c, min, scale);
    }
}

/// The value a stored `i8` code stands for.
#[inline]
fn i8_value(code: i8, min: f32, scale: f32) -> f32 {
    (code as i32 + 128) as f32 * scale + min
}

/// The per-row affine codebook `(lo, scale, inv)` every `i8` encoder
/// uses: `lo`/`hi` are taken over the row's *finite* elements (`0, 0`
/// when it has none), `scale = (hi − lo)/255`, and `inv = 1/scale` (`0`
/// for a constant row).
#[inline]
pub fn i8_codebook(row: &[f32]) -> (f32, f32, f32) {
    let (lo, hi) = row
        .iter()
        .filter(|v| v.is_finite())
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    let (lo, hi) = if lo > hi { (0.0, 0.0) } else { (lo, hi) };
    let scale = (hi - lo) / 255.0;
    let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
    (lo, scale, inv)
}

/// The stored code of `v` under [`i8_codebook`]'s `(lo, _, inv)`: codes
/// `0..=255` shifted to `-128..=127`, rounded to nearest so a finite
/// element decodes within `scale/2`. Non-finite input is defined too:
/// `NaN` and `-inf` encode as `lo`, `+inf` as `hi` (the saturating
/// float-to-int cast sends `NaN` to code 0).
#[inline]
pub fn i8_code(v: f32, lo: f32, inv: f32) -> i8 {
    (((v - lo) * inv).round().clamp(0.0, 255.0) as i32 - 128) as i8
}

// ---------------------------------------------------------------------
// QuantizedFeatures
// ---------------------------------------------------------------------

/// Row-major quantized feature storage: the compressed drop-in for a
/// [`FeatureMatrix`] inside cache tiers. Rows are written with
/// [`QuantizedFeatures::set_row`] (encode) and read back with
/// [`QuantizedFeatures::read_row_into`] (decode into a caller buffer,
/// allocation-free).
#[derive(Clone, Debug)]
pub struct QuantizedFeatures {
    dim: usize,
    rows: usize,
    storage: Storage,
}

#[derive(Clone, Debug)]
enum Storage {
    F32(Vec<f32>),
    F16(Vec<u16>),
    I8 {
        codes: Vec<i8>,
        /// Per-row `(min, scale)` codebook.
        min: Vec<f32>,
        scale: Vec<f32>,
    },
}

impl QuantizedFeatures {
    /// Zero-initialized storage for `rows × dim` features.
    pub fn with_rows(rows: usize, dim: usize, scheme: QuantScheme) -> Self {
        let storage = match scheme {
            QuantScheme::F32 => Storage::F32(vec![0.0; rows * dim]),
            QuantScheme::F16 => Storage::F16(vec![0; rows * dim]),
            QuantScheme::I8 => Storage::I8 {
                codes: vec![-128; rows * dim],
                min: vec![0.0; rows],
                scale: vec![0.0; rows],
            },
        };
        Self { dim, rows, storage }
    }

    /// Encodes every row of `features` under `scheme`.
    pub fn from_matrix(features: &FeatureMatrix, scheme: QuantScheme) -> Self {
        let mut q = Self::with_rows(features.num_rows(), features.dim(), scheme);
        for r in 0..features.num_rows() {
            q.set_row(r, features.row(r as crate::VertexId));
        }
        q
    }

    /// Storage scheme of this tier.
    pub fn scheme(&self) -> QuantScheme {
        match self.storage {
            Storage::F32(_) => QuantScheme::F32,
            Storage::F16(_) => QuantScheme::F16,
            Storage::I8 { .. } => QuantScheme::I8,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes one stored row occupies.
    pub fn row_bytes(&self) -> usize {
        self.scheme().row_bytes(self.dim)
    }

    /// Total storage bytes (codes plus codebook).
    pub fn memory_bytes(&self) -> usize {
        match &self.storage {
            Storage::F32(d) => d.len() * 4,
            Storage::F16(d) => d.len() * 2,
            Storage::I8 { codes, min, scale } => codes.len() + 4 * (min.len() + scale.len()),
        }
    }

    /// Encodes `row` into slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim` or `slot >= rows`.
    pub fn set_row(&mut self, slot: usize, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        assert!(slot < self.rows, "row slot out of range");
        let dim = self.dim;
        match &mut self.storage {
            Storage::F32(d) => d[slot * dim..(slot + 1) * dim].copy_from_slice(row),
            Storage::F16(d) => {
                for (q, &v) in d[slot * dim..(slot + 1) * dim].iter_mut().zip(row) {
                    *q = f32_to_f16_bits(v);
                }
            }
            Storage::I8 { codes, min, scale } => {
                let (lo, s, inv) = i8_codebook(row);
                min[slot] = lo;
                scale[slot] = s;
                for (q, &v) in codes[slot * dim..(slot + 1) * dim].iter_mut().zip(row) {
                    *q = i8_code(v, lo, inv);
                }
            }
        }
    }

    /// Decodes slot `slot` into `out` (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim` or `slot >= rows`.
    // spp-hot(quant.read_row)
    pub fn read_row_into(&self, slot: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output dimension mismatch");
        assert!(slot < self.rows, "row slot out of range");
        let dim = self.dim;
        match &self.storage {
            Storage::F32(d) => out.copy_from_slice(&d[slot * dim..(slot + 1) * dim]),
            Storage::F16(d) => {
                decode_f16_slice(d[slot * dim..(slot + 1) * dim].iter().copied(), out);
            }
            Storage::I8 { codes, min, scale } => decode_i8_slice(
                codes[slot * dim..(slot + 1) * dim].iter().copied(),
                min[slot],
                scale[slot],
                out,
            ),
        }
    }

    /// Decodes the whole tier back into a dense [`FeatureMatrix`].
    pub fn dequantize(&self) -> FeatureMatrix {
        let mut m = FeatureMatrix::zeros(self.rows, self.dim);
        for r in 0..self.rows {
            self.read_row_into(r, m.row_mut(r as crate::VertexId));
        }
        m
    }
}

/// Round-trips `row` through `scheme` in place: the lossy transform a
/// quantized wire applies to fetched feature rows (`f32` is the
/// identity). Encoding then decoding locally models
/// serialize → transmit → deserialize without buffers.
pub fn wire_roundtrip(row: &mut [f32], scheme: QuantScheme) {
    match scheme {
        QuantScheme::F32 => {}
        QuantScheme::F16 => {
            for v in row.iter_mut() {
                *v = f16_bits_to_f32(f32_to_f16_bits(*v));
            }
        }
        QuantScheme::I8 => {
            let (lo, scale, inv) = i8_codebook(row);
            for v in row.iter_mut() {
                *v = i8_value(i8_code(*v, lo, inv), lo, scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branching scalar decoder the select form replaced, kept as
    /// the reference the exhaustive test compares against.
    fn f16_bits_to_f32_branching(h: u16) -> f32 {
        const MAGIC_BITS: u32 = 113 << 23;
        const SHIFTED_EXP: u32 = 0x7c00 << 13;
        let mut bits = ((h as u32) & 0x7fff) << 13;
        let exp = bits & SHIFTED_EXP;
        bits = bits.wrapping_add((127 - 15) << 23);
        if exp == SHIFTED_EXP {
            bits = bits.wrapping_add((128 - 16) << 23);
        } else if exp == 0 {
            bits = bits.wrapping_add(1 << 23);
            bits = (f32::from_bits(bits) - f32::from_bits(MAGIC_BITS)).to_bits();
        }
        f32::from_bits(bits | ((h as u32 & 0x8000) << 16))
    }

    #[test]
    fn select_form_decodes_all_65536_patterns_to_the_same_bits() {
        // Scalar and slice entry points, every pattern: NaN payloads,
        // ±0, subnormals, ±Inf included.
        let codes: Vec<u16> = (0..=u16::MAX).collect();
        let mut sliced = vec![0.0f32; codes.len()];
        decode_f16_slice(codes.iter().copied(), &mut sliced);
        for (&h, &got) in codes.iter().zip(&sliced) {
            let want = f16_bits_to_f32_branching(h).to_bits();
            assert_eq!(f16_bits_to_f32(h).to_bits(), want, "scalar h={h:#06x}");
            assert_eq!(got.to_bits(), want, "slice h={h:#06x}");
        }
    }

    #[test]
    fn i8_slice_decodes_every_code() {
        let codes: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        let mut out = vec![0.0f32; 256];
        decode_i8_slice(codes.iter().copied(), -1.5, 0.25, &mut out);
        for (k, &v) in out.iter().enumerate() {
            assert_eq!(v.to_bits(), (k as f32 * 0.25 + -1.5).to_bits(), "code {k}");
        }
    }

    #[test]
    fn f16_round_trip_is_exact_for_all_half_values() {
        // Every finite f16 bit pattern must survive f16 -> f32 -> f16.
        for h in 0..=u16::MAX {
            let f = f16_bits_to_f32(h);
            let exp = h & 0x7c00;
            let mant = h & 0x03ff;
            if exp == 0x7c00 && mant != 0 {
                assert!(f.is_nan(), "h={h:#06x} should decode to NaN");
                continue;
            }
            assert_eq!(f32_to_f16_bits(f), h, "h={h:#06x} f={f}");
        }
    }

    #[test]
    fn f16_encode_matches_reference_cases() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16 max normal
        assert_eq!(f32_to_f16_bits(65536.0), 0x7c00); // overflows to Inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        assert_eq!(f32_to_f16_bits(f32::NAN) & 0x7c00, 0x7c00);
        assert_ne!(f32_to_f16_bits(f32::NAN) & 0x03ff, 0);
        assert_eq!(f32_to_f16_bits(5.96e-8), 0x0001); // min subnormal
        assert_eq!(f32_to_f16_bits(6.1035e-5), 0x0400); // min normal
                                                        // Round-to-nearest-even at a midpoint: 1 + 2^-11 is exactly
                                                        // between 1.0 and 1 + 2^-10; the even mantissa (1.0) wins.
        assert_eq!(f32_to_f16_bits(1.0 + 2.0_f32.powi(-11)), 0x3c00);
        // …but 1 + 3*2^-11 rounds up to the even 1 + 2^-10 neighbor's
        // successor parity: nearest is 1 + 2^-10 either way.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 2.0_f32.powi(-11)), 0x3c02);
    }

    #[test]
    fn f16_error_bound_on_normal_range() {
        // Relative error <= 2^-11 for values in the f16 normal range.
        let vals = [
            1.0f32,
            -1.5,
            std::f32::consts::PI,
            1e-3,
            123.456,
            -6.1e-5,
            6e4,
        ];
        for &v in &vals {
            let rt = f16_bits_to_f32(f32_to_f16_bits(v));
            assert!(((rt - v) / v).abs() <= 2.0_f32.powi(-11), "v={v} rt={rt}");
        }
    }

    #[test]
    fn i8_round_trip_error_within_half_scale() {
        let row: Vec<f32> = (0..64)
            .map(|i| (i as f32 * 0.37).sin() * 5.0 - 1.0)
            .collect();
        let mut q = QuantizedFeatures::with_rows(1, 64, QuantScheme::I8);
        q.set_row(0, &row);
        let mut back = vec![0.0f32; 64];
        q.read_row_into(0, &mut back);
        let (lo, hi) = row
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
                (l.min(v), h.max(v))
            });
        let tol = (hi - lo) / 255.0 / 2.0 * 1.0001;
        for (a, b) in row.iter().zip(&back) {
            assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn constant_rows_quantize_exactly_under_i8() {
        let row = vec![2.5f32; 16];
        let mut q = QuantizedFeatures::with_rows(1, 16, QuantScheme::I8);
        q.set_row(0, &row);
        let mut back = vec![0.0f32; 16];
        q.read_row_into(0, &mut back);
        assert_eq!(back, row);
    }

    #[test]
    fn f32_scheme_is_lossless_passthrough() {
        let m = FeatureMatrix::from_flat((0..12).map(|i| i as f32 / 3.0).collect(), 4);
        let q = QuantizedFeatures::from_matrix(&m, QuantScheme::F32);
        assert_eq!(q.dequantize().as_flat(), m.as_flat());
        assert_eq!(q.memory_bytes(), 3 * 4 * 4);
    }

    #[test]
    fn row_bytes_accounting() {
        assert_eq!(QuantScheme::F32.row_bytes(128), 512);
        assert_eq!(QuantScheme::F16.row_bytes(128), 256);
        assert_eq!(QuantScheme::I8.row_bytes(128), 136);
        let q = QuantizedFeatures::with_rows(10, 128, QuantScheme::F16);
        assert_eq!(q.memory_bytes(), 10 * 256);
    }

    #[test]
    fn wire_roundtrip_f32_is_identity_and_f16_matches_codec() {
        let mut row: Vec<f32> = (0..31).map(|i| (i as f32 - 15.0) / 7.0).collect();
        let orig = row.clone();
        wire_roundtrip(&mut row, QuantScheme::F32);
        assert_eq!(row, orig);
        wire_roundtrip(&mut row, QuantScheme::F16);
        for (w, &o) in row.iter().zip(&orig) {
            assert_eq!(*w, f16_bits_to_f32(f32_to_f16_bits(o)));
        }
    }

    #[test]
    fn scheme_parse_and_names() {
        for s in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
            assert_eq!(QuantScheme::parse(s.name()), Some(s));
        }
        assert_eq!(QuantScheme::parse("f64"), None);
    }
}
