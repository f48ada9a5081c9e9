//! Compressed feature storage: `f16` and `i8` quantized feature rows.
//!
//! The paper treats communicated bytes — not FLOPs — as the scarce
//! resource; quantized feature tiers attack both sides of that budget
//! (DESIGN.md §14): an `f16` tier holds 2× the rows of an `f32` tier at
//! equal RAM (an `i8` tier ~4×, minus two `f32` codebook words per row),
//! and a quantized wire halves/quarters remote-fetch bytes in the
//! DES-costed serving and training paths.
//!
//! One row codec serves every tier. [`encode_row`] / [`decode_row`]
//! define a row's little-endian byte layout, which the in-RAM tiers
//! ([`QuantizedFeatures`]) hold and the paged store writes to disk:
//!
//! * [`QuantScheme::F32`] — `dim` × 4 bytes, raw IEEE bits.
//! * [`QuantScheme::F16`] — `dim` × 2 bytes, IEEE 754 binary16 with
//!   round-to-nearest-even, implemented as pure bit manipulation (no
//!   hardware half support is assumed). Relative error for normal
//!   values is ≤ 2⁻¹¹.
//! * [`QuantScheme::I8`] — `[min: f32][scale: f32][dim × i8]`: per-row
//!   affine quantization with `scale = (max − min)/255`; absolute error
//!   is ≤ `scale/2`. The codebook rides in the row, so a row is one
//!   contiguous read. Non-finite elements are defined once, in the
//!   codebook: the range is taken over the finite elements, `NaN`/`-inf`
//!   store as `min`, `+inf` as `max`, and finite elements of such a row
//!   keep the error bound. So is a finite row whose range overflows
//!   `f32` (see [`decode_row`]).
//!
//! [`wire_roundtrip`] applies the same codec element by element, and
//! the decode loops are branch-free and write into a caller-provided
//! buffer, so cache gathers stay allocation-free (the H1 hot-path rule).
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
///
/// Select form, like [`f16_bits_to_f32`]: the Inf/NaN, subnormal and
/// normal encodings are all computed and one is picked by the input's
/// magnitude, with no data-dependent branch, so slice loops over it
/// vectorize.
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

    // Inf stays Inf; any NaN becomes a quiet NaN.
    let inf_nan: u16 = if mag > F32_INFTY { 0x7e00 } else { 0x7c00 };
    // f16-subnormal or zero: let FP addition do the RNE.
    let magic = f32::from_bits(DENORM_MAGIC_BITS);
    let subnormal = (f32::from_bits(mag) + magic)
        .to_bits()
        .wrapping_sub(DENORM_MAGIC_BITS) as u16;
    // Normal range: rebias the exponent and add the RNE bias (0xfff, plus
    // one when the resulting mantissa LSB is odd) before truncating.
    let normal = mag
        .wrapping_sub((127 - 15) << 23)
        .wrapping_add(0xfff + ((mag >> 13) & 1))
        >> 13;
    let h = if mag >= F16_MAX {
        inf_nan
    } else if mag < LOWEST_NORMAL {
        subnormal
    } else {
        normal as u16
    };
    sign | h
}

/// `x` rounded to the nearest binary16 value and back, computed in the
/// `f32` domain: bit-identical to `f16_bits_to_f32(f32_to_f16_bits(x))`
/// without forming the half. A normal keeps its exponent and rounds its
/// mantissa to 10 bits (round-to-nearest-even, a carry may bump the
/// exponent); one that rounds past the largest half is `±inf`; an
/// f16-subnormal magnitude rounds to a multiple of 2⁻²⁴ by adding and
/// subtracting 0.5 (both exact but the first); NaN becomes the quiet
/// NaN the half decodes to.
#[inline]
fn f16_round(x: f32) -> f32 {
    const F32_INFTY: u32 = 255 << 23;
    const F16_MAX: u32 = (127 + 16) << 23;
    const LOWEST_NORMAL: u32 = 113 << 23;
    const QUIET_NAN: u32 = 0x7fc0_0000;

    let bits = x.to_bits();
    let mag = bits & 0x7fff_ffff;
    let normal = (mag + 0xfff + ((mag >> 13) & 1)) & !0x1fff;
    let subnormal = ((f32::from_bits(mag) + 0.5) - 0.5).to_bits();
    let r = if mag > F32_INFTY {
        QUIET_NAN
    } else if mag < LOWEST_NORMAL {
        subnormal
    } else if normal >= F16_MAX {
        F32_INFTY
    } else {
        normal
    };
    f32::from_bits(r | (bits & 0x8000_0000))
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

/// The value a stored `i8` code byte stands for in a row with
/// non-negative `scale`: `(code + 128) · scale + min`.
#[inline]
fn i8_affine(code: u8, min: f32, scale: f32) -> f32 {
    (code as i8 as i32 + 128) as f32 * scale + min
}

/// The value a stored `i8` code byte stands for in any row whose
/// codebook is `(min, scale)` ([`i8_row`]). A wide row (negative
/// `scale`, see the encoder's `i8_codebook`) uses the same affine map with step
/// `|scale|`, formed in `f64` — its `f32` intermediate would overflow —
/// and clamped to the finite `f32` range.
#[inline]
pub fn i8_value(code: u8, min: f32, scale: f32) -> f32 {
    if scale < 0.0 {
        let k = f64::from(code as i8 as i32 + 128);
        let v = f64::from(min) + k * f64::from(-scale);
        return v.clamp(f64::from(f32::MIN), f64::from(f32::MAX)) as f32;
    }
    i8_affine(code, min, scale)
}

/// The per-row affine codebook `(lo, scale, inv)` every `i8` encoder
/// uses: `lo`/`hi` are taken over the row's *finite* elements (`0, 0`
/// when it has none), `scale = (hi − lo)/255`, and `inv = 1/scale` (`0`
/// for a constant or wide row).
///
/// A finite row whose `hi − lo` overflows `f32` (`[-3e38, 3e38]`) would
/// get `scale = inf` and decode to `NaN`. Such a *wide* row gets its step
/// computed in `f64` and stored negated instead — no other row has a
/// negative scale — and [`i8_code`] / [`i8_value`] take the `f64` path
/// for it, so its elements decode finite and within half a step.
#[inline]
fn i8_codebook(row: &[f32]) -> (f32, f32, f32) {
    let (lo, hi) = row
        .iter()
        .filter(|v| v.is_finite())
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
    let (lo, hi) = if lo > hi { (0.0, 0.0) } else { (lo, hi) };
    let scale = (hi - lo) / 255.0;
    if scale.is_infinite() {
        let step = ((f64::from(hi) - f64::from(lo)) / 255.0) as f32;
        return (lo, -step, 0.0);
    }
    let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
    (lo, scale, inv)
}

/// The stored code byte of `v` under [`i8_codebook`]'s `(lo, scale,
/// inv)`: codes `0..=255` shifted to `-128..=127`, rounded to nearest so
/// a finite element decodes within `scale/2`. Non-finite input is
/// defined too: `NaN` and `-inf` encode as `lo`, `+inf` as `hi` (the
/// saturating float-to-int cast sends `NaN` to code 0).
#[inline]
fn i8_code(v: f32, lo: f32, scale: f32, inv: f32) -> u8 {
    let k = if scale < 0.0 {
        let t = (f64::from(v) - f64::from(lo)) / f64::from(-scale);
        t.round().clamp(0.0, 255.0) as i32
    } else {
        ((v - lo) * inv).round().clamp(0.0, 255.0) as i32
    };
    (k - 128) as i8 as u8
}

/// Encodes one feature row into its byte layout (module docs).
///
/// # Panics
///
/// Panics if `out.len() != scheme.row_bytes(row.len())`.
pub fn encode_row(scheme: QuantScheme, row: &[f32], out: &mut [u8]) {
    assert_eq!(
        out.len(),
        scheme.row_bytes(row.len()),
        "encode buffer size mismatch"
    );
    match scheme {
        QuantScheme::F32 => {
            for (o, &v) in out.as_chunks_mut().0.iter_mut().zip(row) {
                *o = v.to_le_bytes();
            }
        }
        QuantScheme::F16 => {
            for (o, &v) in out.as_chunks_mut().0.iter_mut().zip(row) {
                *o = f32_to_f16_bits(v).to_le_bytes();
            }
        }
        QuantScheme::I8 => {
            let (lo, scale, inv) = i8_codebook(row);
            out[0..4].copy_from_slice(&lo.to_le_bytes());
            out[4..8].copy_from_slice(&scale.to_le_bytes());
            for (o, &v) in out[8..].iter_mut().zip(row) {
                *o = i8_code(v, lo, scale, inv);
            }
        }
    }
}

/// Decodes one encoded row into `out` (allocation-free; every cache
/// tier and paged read funnels here). An `i8` row with a negative stored
/// scale is a *wide* row, one whose finite range overflows `f32`; it
/// decodes through `f64`, finite and within half a step.
///
/// # Panics
///
/// Panics if `bytes.len() != scheme.row_bytes(out.len())`.
#[inline]
pub fn decode_row(scheme: QuantScheme, bytes: &[u8], out: &mut [f32]) {
    assert_eq!(
        bytes.len(),
        scheme.row_bytes(out.len()),
        "decode buffer size mismatch"
    );
    // Array chunks, not `chunks_exact`: the latter's slice iterator costs
    // the f16 loop ~25 % of its throughput.
    match scheme {
        QuantScheme::F32 => {
            for (o, &b) in out.iter_mut().zip(bytes.as_chunks().0) {
                *o = f32::from_le_bytes(b);
            }
        }
        QuantScheme::F16 => {
            for (o, &b) in out.iter_mut().zip(bytes.as_chunks().0) {
                *o = f16_bits_to_f32(u16::from_le_bytes(b));
            }
        }
        QuantScheme::I8 => {
            let ((lo, scale), codes) = i8_row(bytes);
            let codes = out.iter_mut().zip(codes);
            // Branch once per row, so the common loop is branch-free and
            // vectorizes.
            if scale < 0.0 {
                codes.for_each(|(o, &c)| *o = i8_value(c, lo, scale));
            } else {
                codes.for_each(|(o, &c)| *o = i8_affine(c, lo, scale));
            }
        }
    }
}

/// Splits one encoded `i8` row into its codebook `(min, scale)` and its
/// code bytes, each of which [`i8_value`] decodes.
///
/// # Panics
///
/// Panics if `bytes` is shorter than the 8-byte codebook.
#[inline]
pub fn i8_row(bytes: &[u8]) -> ((f32, f32), &[u8]) {
    let (book, codes) = bytes.split_at(8);
    let lo = f32::from_le_bytes([book[0], book[1], book[2], book[3]]);
    let scale = f32::from_le_bytes([book[4], book[5], book[6], book[7]]);
    ((lo, scale), codes)
}

// ---------------------------------------------------------------------
// QuantizedFeatures
// ---------------------------------------------------------------------

/// Row-major quantized feature storage: the compressed drop-in for a
/// [`FeatureMatrix`] inside cache tiers. Rows are held in the
/// [`encode_row`] byte layout, written with
/// [`QuantizedFeatures::set_row`] (encode) and read back with
/// [`QuantizedFeatures::read_row_into`] (decode into a caller buffer,
/// allocation-free).
#[derive(Clone, Debug)]
pub struct QuantizedFeatures {
    scheme: QuantScheme,
    dim: usize,
    rows: usize,
    /// `rows × scheme.row_bytes(dim)` bytes; slot `s` starts at
    /// `s × row_bytes`.
    bytes: Vec<u8>,
}

impl QuantizedFeatures {
    /// Zero-initialized storage for `rows × dim` features.
    pub fn with_rows(rows: usize, dim: usize, scheme: QuantScheme) -> Self {
        Self {
            scheme,
            dim,
            rows,
            bytes: vec![0; rows * scheme.row_bytes(dim)],
        }
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
        self.scheme
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
        self.scheme.row_bytes(self.dim)
    }

    /// Total storage bytes (codes plus codebook).
    pub fn memory_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Byte range of slot `slot`.
    fn slot(&self, slot: usize) -> std::ops::Range<usize> {
        assert!(slot < self.rows, "row slot out of range");
        let rb = self.row_bytes();
        slot * rb..(slot + 1) * rb
    }

    /// Encodes `row` into slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim` or `slot >= rows`.
    pub fn set_row(&mut self, slot: usize, row: &[f32]) {
        let at = self.slot(slot);
        encode_row(self.scheme, row, &mut self.bytes[at]);
    }

    /// [`Self::set_row`] of a `row` that may have arrived encoded, as
    /// `wire = (scheme, bytes)`: the bytes are kept as they are when this
    /// tier stores `scheme` rows and encoding `row` again gives them back
    /// (`f32`, `f16`; an `i8` scale re-formed from decoded values is not
    /// sure to round the same), so the row is not encoded twice. Panics
    /// as `set_row`, or if `bytes` is not one row.
    pub fn set_row_wire(&mut self, slot: usize, row: &[f32], wire: Option<(QuantScheme, &[u8])>) {
        match wire {
            Some((scheme, bytes)) if scheme == self.scheme && scheme != QuantScheme::I8 => {
                let at = self.slot(slot);
                self.bytes[at].copy_from_slice(bytes);
            }
            _ => self.set_row(slot, row),
        }
    }

    /// Decodes slot `slot` into `out` (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim` or `slot >= rows`.
    // spp-hot(quant.read_row)
    pub fn read_row_into(&self, slot: usize, out: &mut [f32]) {
        decode_row(self.scheme, &self.bytes[self.slot(slot)], out);
    }
}

/// Round-trips `row` through `scheme` in place: the lossy transform a
/// quantized wire applies to fetched feature rows (`f32` is the
/// identity). Encoding then decoding locally models
/// serialize → transmit → deserialize without buffers; the result is
/// bit-identical to [`decode_row`] of [`encode_row`].
pub fn wire_roundtrip(row: &mut [f32], scheme: QuantScheme) {
    match scheme {
        QuantScheme::F32 => {}
        QuantScheme::F16 => {
            for v in row.iter_mut() {
                *v = f16_round(*v);
            }
        }
        QuantScheme::I8 => {
            let (lo, scale, inv) = i8_codebook(row);
            for v in row.iter_mut() {
                *v = i8_value(i8_code(*v, lo, scale, inv), lo, scale);
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

    /// The branching encoder the select form replaced, kept as the
    /// reference the stratified and exhaustive tests compare against.
    fn f32_to_f16_bits_branching(x: f32) -> u16 {
        const F32_INFTY: u32 = 255 << 23;
        const F16_MAX: u32 = (127 + 16) << 23;
        const DENORM_MAGIC_BITS: u32 = ((127 - 15) + (23 - 10) + 1) << 23;
        const LOWEST_NORMAL: u32 = 113 << 23;
        let bits = x.to_bits();
        let sign = (bits >> 16) as u16 & 0x8000;
        let mag = bits & 0x7fff_ffff;
        if mag >= F16_MAX {
            return sign | if mag > F32_INFTY { 0x7e00 } else { 0x7c00 };
        }
        if mag < LOWEST_NORMAL {
            let magic = f32::from_bits(DENORM_MAGIC_BITS);
            let aligned = f32::from_bits(mag) + magic;
            return sign | (aligned.to_bits().wrapping_sub(DENORM_MAGIC_BITS)) as u16;
        }
        let mant_odd = (mag >> 13) & 1;
        let rebiased = mag
            .wrapping_add((15u32.wrapping_sub(127)) << 23)
            .wrapping_add(0xfff)
            .wrapping_add(mant_odd);
        sign | (rebiased >> 13) as u16
    }

    /// Checks the select-form encoder and the `f32`-domain round trip
    /// against the reference encoder (and the exact decoder) at `bits`.
    fn check_f16_encode(bits: u32) {
        let x = f32::from_bits(bits);
        let want = f32_to_f16_bits_branching(x);
        assert_eq!(f32_to_f16_bits(x), want, "encode {bits:#010x}");
        let round = f16_bits_to_f32(want).to_bits();
        assert_eq!(f16_round(x).to_bits(), round, "round trip {bits:#010x}");
    }

    #[test]
    fn f16_encode_and_round_trip_match_the_reference_at_every_rounding_boundary() {
        // Every sign, exponent and high mantissa (the high half), against
        // low halves on both sides of each bit a rounding can cut at:
        // bit 12 for normals, bits 13 and up for f16-subnormals.
        let boundaries = (0..16).flat_map(|b| {
            let p = 1u32 << b;
            [p - 1, p, p + 1, (3 * p) & 0xffff]
        });
        let lows: Vec<u32> = boundaries.chain([0, 0xffff, 0x7fff]).collect();
        for high in 0..=0xffffu32 {
            for &low in &lows {
                check_f16_encode(high << 16 | low);
            }
        }
    }

    /// All 2³² inputs; run with `cargo test --release -p spp-graph --lib
    /// -- --ignored` (CI does).
    #[test]
    #[ignore = "2^32 inputs: under a minute in release, far longer unoptimized"]
    fn f16_encode_and_round_trip_match_the_reference_on_every_f32() {
        for bits in 0..=u32::MAX {
            check_f16_encode(bits);
        }
    }

    fn sample_row(dim: usize, salt: u64) -> Vec<f32> {
        (0..dim)
            .map(|i| ((i as f32 + salt as f32) * 0.37).sin() * 5.0 - 1.0)
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn select_form_decodes_all_65536_patterns_to_the_same_bits() {
        // Scalar and slice entry points, every pattern: NaN payloads,
        // ±0, subnormals, ±Inf included.
        let codes: Vec<u16> = (0..=u16::MAX).collect();
        let bytes: Vec<u8> = codes.iter().flat_map(|h| h.to_le_bytes()).collect();
        let mut sliced = vec![0.0f32; codes.len()];
        decode_row(QuantScheme::F16, &bytes, &mut sliced);
        for (&h, &got) in codes.iter().zip(&sliced) {
            let want = f16_bits_to_f32_branching(h).to_bits();
            assert_eq!(f16_bits_to_f32(h).to_bits(), want, "scalar h={h:#06x}");
            assert_eq!(got.to_bits(), want, "slice h={h:#06x}");
        }
    }

    #[test]
    fn i8_slice_decodes_every_code() {
        let codebook = [(-1.5f32).to_le_bytes(), 0.25f32.to_le_bytes()];
        let codes = (i8::MIN..=i8::MAX).map(|c| c as u8);
        let bytes: Vec<u8> = codebook.into_iter().flatten().chain(codes).collect();
        let mut out = vec![0.0f32; 256];
        decode_row(QuantScheme::I8, &bytes, &mut out);
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

    /// A finite row whose range overflows `f32` used to decode to all
    /// `NaN` (`scale = inf`, `0 · inf`); every element now decodes finite
    /// and within half a code step, through the tier and the wire alike.
    #[test]
    fn i8_rows_whose_range_overflows_f32_decode_finite_within_half_a_step() {
        let rows = [
            vec![-3e38f32, 3e38, 0.0, 1.0],
            vec![f32::MIN, f32::MAX, -1.0, 2.5e38, f32::NAN, f32::INFINITY],
        ];
        for row in rows {
            let mut bytes = vec![0u8; QuantScheme::I8.row_bytes(row.len())];
            encode_row(QuantScheme::I8, &row, &mut bytes);
            let mut back = vec![0.0f32; row.len()];
            decode_row(QuantScheme::I8, &bytes, &mut back);
            let mut wire = row.clone();
            wire_roundtrip(&mut wire, QuantScheme::I8);
            assert_eq!(bits(&back), bits(&wire), "{row:?}");

            let finite = row.iter().filter(|v| v.is_finite());
            let lo = finite
                .clone()
                .fold(f64::INFINITY, |l, &v| l.min(f64::from(v)));
            let hi = finite.fold(f64::NEG_INFINITY, |h, &v| h.max(f64::from(v)));
            let half_step = (hi - lo) / 255.0 / 2.0 * 1.0001;
            for (&v, &b) in row.iter().zip(&back) {
                assert!(b.is_finite(), "{v} decoded to {b}");
                if v.is_finite() {
                    let err = (f64::from(v) - f64::from(b)).abs();
                    assert!(err <= half_step, "{v} vs {b} (half step {half_step})");
                }
            }
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
        let mut back = vec![0.0f32; 4];
        for r in 0..3 {
            q.read_row_into(r, &mut back);
            assert_eq!(back, m.row(r as crate::VertexId));
        }
        assert_eq!(q.memory_bytes(), 3 * 4 * 4);
    }

    /// `memory_bytes` is what Figure 5's memory column sums over tiers.
    #[test]
    fn row_bytes_accounting() {
        assert_eq!(QuantScheme::F32.row_bytes(128), 512);
        assert_eq!(QuantScheme::F16.row_bytes(128), 256);
        assert_eq!(QuantScheme::I8.row_bytes(128), 136);
        for scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
            let q = QuantizedFeatures::with_rows(10, 128, scheme);
            assert_eq!(q.row_bytes(), scheme.row_bytes(128));
            assert_eq!(q.memory_bytes(), 10 * scheme.row_bytes(128));
        }
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

    /// Row codec ≡ wire round trip, bit for bit, for every scheme — also
    /// on a row with `NaN` / `±inf` elements (one i8 codebook, §14).
    #[test]
    fn codec_matches_wire_roundtrip_bitwise() {
        let mut hostile = sample_row(37, 3);
        (hostile[2], hostile[11], hostile[30]) = (f32::NAN, f32::INFINITY, f32::NEG_INFINITY);
        let cases = [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8]
            .into_iter()
            .flat_map(|scheme| [(scheme, sample_row(37, 3)), (scheme, hostile.clone())]);
        for (scheme, row) in cases {
            let mut bytes = vec![0u8; scheme.row_bytes(37)];
            encode_row(scheme, &row, &mut bytes);
            let mut got = vec![0.0f32; 37];
            decode_row(scheme, &bytes, &mut got);
            let mut wire = row.clone();
            wire_roundtrip(&mut wire, scheme);
            assert_eq!(bits(&got), bits(&wire), "scheme {}", scheme.name());
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
