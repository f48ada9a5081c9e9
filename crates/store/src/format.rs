//! The on-disk store format: versioned header, paged row layout, and
//! the per-row byte codecs.
//!
//! A store is a directory with two files:
//!
//! * `header.bin` — magic `SPPS`, version, and the geometry
//!   ([`StoreMeta`]): scheme, row/dim counts, page shape.
//! * `pages.bin` — `num_pages` fixed-size pages of `page_bytes` bytes.
//!   Rows never span pages (`page_bytes = page_rows × row_bytes`); the
//!   last page is zero-padded. Row `v` lives at byte offset
//!   `(v / page_rows) * page_bytes + (v % page_rows) * row_bytes`
//!   `= v * row_bytes`.
//!
//! Row encodings are little-endian and reuse the exact arithmetic of
//! [`spp_graph::QuantizedFeatures`] (DESIGN.md §14), so a store round
//! trip is bit-identical to the in-RAM quantized tiers:
//!
//! * `f32` — `dim` × 4 bytes, raw IEEE bits.
//! * `f16` — `dim` × 2 bytes, round-to-nearest-even binary16.
//! * `i8`  — `[min: f32][scale: f32][dim × i8]` per-row affine codes
//!   (the codebook rides in the row, unlike the in-RAM tier's parallel
//!   arrays, so a row is one contiguous disk read).
//!
//! Everything validates on load and surfaces [`StoreError`] — a corrupt
//! or truncated store must never panic the reader (the SPPD contract
//! from `spp_graph::io` extended to store artifacts).

use spp_graph::quant::{decode_f16_slice, decode_i8_slice, f32_to_f16_bits, i8_code, i8_codebook};
use spp_graph::QuantScheme;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening `header.bin`.
pub const MAGIC: &[u8; 4] = b"SPPS";
/// Current header version.
pub const VERSION: u32 = 1;
/// File name of the header inside a store directory.
pub const HEADER_FILE: &str = "header.bin";
/// File name of the page payload inside a store directory.
pub const PAGES_FILE: &str = "pages.bin";

/// Errors from building or opening a store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a store header (bad magic).
    BadMagic,
    /// Unsupported header version.
    BadVersion(u32),
    /// Structurally invalid contents (message explains).
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a feature store (bad magic)"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The geometry of a paged store: everything a reader needs to locate
/// and decode any row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Row storage scheme.
    pub scheme: QuantScheme,
    /// Number of feature rows.
    pub rows: usize,
    /// Feature dimension.
    pub dim: usize,
    /// Rows per page (≥ 1; rows never span pages).
    pub page_rows: usize,
}

impl StoreMeta {
    /// Geometry for `rows × dim` features under `scheme`, with pages
    /// sized to hold as many whole rows as fit in `page_bytes_target`
    /// (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(scheme: QuantScheme, rows: usize, dim: usize, page_bytes_target: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        let row_bytes = scheme.row_bytes(dim);
        let page_rows = (page_bytes_target / row_bytes).max(1);
        Self {
            scheme,
            rows,
            dim,
            page_rows,
        }
    }

    /// Bytes one encoded row occupies.
    pub fn row_bytes(&self) -> usize {
        self.scheme.row_bytes(self.dim)
    }

    /// Bytes per page (`page_rows × row_bytes`).
    pub fn page_bytes(&self) -> usize {
        self.page_rows * self.row_bytes()
    }

    /// Number of pages (`ceil(rows / page_rows)`).
    pub fn num_pages(&self) -> usize {
        self.rows.div_ceil(self.page_rows)
    }

    /// Total payload bytes (`num_pages × page_bytes`).
    pub fn payload_bytes(&self) -> usize {
        self.num_pages() * self.page_bytes()
    }

    /// Page holding row `v`.
    #[inline]
    pub fn page_of(&self, v: usize) -> usize {
        v / self.page_rows
    }

    /// Byte offset of row `v` inside `pages.bin`. Pages hold whole rows
    /// with no padding between them (`page_bytes = page_rows ×
    /// row_bytes`; only the last page is padded, after its rows), so
    /// page and in-page offsets collapse to `v × row_bytes`.
    #[inline]
    pub fn row_offset(&self, v: usize) -> usize {
        v * self.row_bytes()
    }

    /// Writes `header.bin` under `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure.
    pub fn save(&self, dir: &Path) -> Result<(), StoreError> {
        let mut w = BufWriter::new(File::create(dir.join(HEADER_FILE))?);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        let scheme_tag: u32 = match self.scheme {
            QuantScheme::F32 => 0,
            QuantScheme::F16 => 1,
            QuantScheme::I8 => 2,
        };
        w.write_all(&scheme_tag.to_le_bytes())?;
        for v in [
            self.rows as u64,
            self.dim as u64,
            self.page_rows as u64,
            self.num_pages() as u64,
            self.row_bytes() as u64,
            self.page_bytes() as u64,
        ] {
            w.write_all(&v.to_le_bytes())?;
        }
        w.flush()?;
        Ok(())
    }

    /// Reads and validates `header.bin` under `dir`. The redundant
    /// derived fields (page count, row/page bytes) are cross-checked
    /// against the primary geometry so a corrupted header cannot send
    /// readers past the payload.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure, bad magic/version, or any
    /// inconsistent field.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let mut r = BufReader::new(File::open(dir.join(HEADER_FILE))?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let scheme = match read_u32(&mut r)? {
            0 => QuantScheme::F32,
            1 => QuantScheme::F16,
            2 => QuantScheme::I8,
            t => return Err(StoreError::Corrupt(format!("unknown scheme tag {t}"))),
        };
        let rows = read_u64(&mut r)? as usize;
        let dim = read_u64(&mut r)? as usize;
        let page_rows = read_u64(&mut r)? as usize;
        let num_pages = read_u64(&mut r)? as usize;
        let row_bytes = read_u64(&mut r)? as usize;
        let page_bytes = read_u64(&mut r)? as usize;
        if dim == 0 || page_rows == 0 {
            return Err(StoreError::Corrupt("zero dim or page_rows".to_string()));
        }
        let meta = Self {
            scheme,
            rows,
            dim,
            page_rows,
        };
        if row_bytes != meta.row_bytes()
            || page_bytes != meta.page_bytes()
            || num_pages != meta.num_pages()
        {
            return Err(StoreError::Corrupt(format!(
                "derived fields disagree with geometry: header says \
                 ({num_pages} pages, {row_bytes} row bytes, {page_bytes} page bytes), \
                 geometry implies ({}, {}, {})",
                meta.num_pages(),
                meta.row_bytes(),
                meta.page_bytes()
            )));
        }
        Ok(meta)
    }

    /// Path of the page payload under `dir`.
    pub fn pages_path(dir: &Path) -> PathBuf {
        dir.join(PAGES_FILE)
    }
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Encodes one feature row into its on-disk byte layout. The `i8`
/// codebook and codes are [`spp_graph::quant::i8_codebook`] /
/// [`spp_graph::quant::i8_code`] — the ones the in-RAM tier stores — so
/// disk and in-RAM tiers decode bit-identically.
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
            for (o, &v) in out.chunks_exact_mut(4).zip(row) {
                o.copy_from_slice(&v.to_le_bytes());
            }
        }
        QuantScheme::F16 => {
            for (o, &v) in out.chunks_exact_mut(2).zip(row) {
                o.copy_from_slice(&f32_to_f16_bits(v).to_le_bytes());
            }
        }
        QuantScheme::I8 => {
            let (lo, s, inv) = i8_codebook(row);
            out[0..4].copy_from_slice(&lo.to_le_bytes());
            out[4..8].copy_from_slice(&s.to_le_bytes());
            for (o, &v) in out[8..].iter_mut().zip(row) {
                *o = i8_code(v, lo, inv) as u8;
            }
        }
    }
}

/// Decodes one on-disk row into `out` (allocation-free; the paged-read
/// hot path funnels here). The `i8`/`f16` arithmetic is the slice codec
/// [`spp_graph::QuantizedFeatures::read_row_into`] decodes through.
///
/// # Panics
///
/// Panics if `bytes.len() != scheme.row_bytes(out.len())`.
pub fn decode_row(scheme: QuantScheme, bytes: &[u8], out: &mut [f32]) {
    assert_eq!(
        bytes.len(),
        scheme.row_bytes(out.len()),
        "decode buffer size mismatch"
    );
    match scheme {
        QuantScheme::F32 => {
            for (o, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                *o = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            }
        }
        QuantScheme::F16 => decode_f16_slice(
            bytes
                .chunks_exact(2)
                .map(|b| u16::from_le_bytes([b[0], b[1]])),
            out,
        ),
        QuantScheme::I8 => {
            let lo = f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let s = f32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
            decode_i8_slice(bytes[8..].iter().map(|&b| b as i8), lo, s, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::QuantizedFeatures;

    fn sample_row(dim: usize, salt: u64) -> Vec<f32> {
        (0..dim)
            .map(|i| ((i as f32 + salt as f32) * 0.37).sin() * 5.0 - 1.0)
            .collect()
    }

    /// Disk codec ≡ in-RAM tier ≡ wire round trip, bit for bit — also
    /// on a row with `NaN` / `±inf` elements (one i8 codebook, §14).
    #[test]
    fn codecs_match_in_ram_quantized_tiers_bitwise() {
        let mut hostile = sample_row(37, 3);
        (hostile[2], hostile[11], hostile[30]) = (f32::NAN, f32::INFINITY, f32::NEG_INFINITY);
        let cases = [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8]
            .into_iter()
            .flat_map(|scheme| [(scheme, sample_row(37, 3)), (scheme, hostile.clone())]);
        for (scheme, row) in cases {
            let mut q = QuantizedFeatures::with_rows(1, 37, scheme);
            q.set_row(0, &row);
            let mut want = vec![0.0f32; 37];
            q.read_row_into(0, &mut want);

            let mut bytes = vec![0u8; scheme.row_bytes(37)];
            encode_row(scheme, &row, &mut bytes);
            let mut got = vec![0.0f32; 37];
            decode_row(scheme, &bytes, &mut got);
            let mut wire = row.clone();
            spp_graph::quant::wire_roundtrip(&mut wire, scheme);
            let a: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            let c: Vec<u32> = wire.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "scheme {}", scheme.name());
            assert_eq!(a, c, "wire, scheme {}", scheme.name());
        }
    }

    #[test]
    fn f32_roundtrip_is_lossless() {
        let row = sample_row(16, 0);
        let mut bytes = vec![0u8; QuantScheme::F32.row_bytes(16)];
        encode_row(QuantScheme::F32, &row, &mut bytes);
        let mut got = vec![0.0f32; 16];
        decode_row(QuantScheme::F32, &bytes, &mut got);
        assert_eq!(row, got);
    }

    #[test]
    fn meta_geometry() {
        let m = StoreMeta::new(QuantScheme::F16, 10, 8, 64);
        assert_eq!(m.row_bytes(), 16);
        assert_eq!(m.page_rows, 4);
        assert_eq!(m.page_bytes(), 64);
        assert_eq!(m.num_pages(), 3);
        assert_eq!(m.payload_bytes(), 192);
        assert_eq!(m.page_of(0), 0);
        assert_eq!(m.page_of(4), 1);
        assert_eq!(m.row_offset(5), 64 + 16);
    }

    #[test]
    fn tiny_page_target_still_holds_one_row() {
        let m = StoreMeta::new(QuantScheme::F32, 3, 8, 1);
        assert_eq!(m.page_rows, 1);
        assert_eq!(m.num_pages(), 3);
    }

    #[test]
    fn header_roundtrip_and_validation() {
        let dir = std::env::temp_dir().join(format!("spp_store_hdr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let m = StoreMeta::new(QuantScheme::I8, 100, 12, 4096);
        m.save(&dir).unwrap();
        assert_eq!(StoreMeta::load(&dir).unwrap(), m);

        // Bad magic.
        std::fs::write(dir.join(HEADER_FILE), b"NOPExxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(StoreMeta::load(&dir), Err(StoreError::BadMagic)));

        // Bad version.
        let mut hdr = Vec::new();
        hdr.extend_from_slice(MAGIC);
        hdr.extend_from_slice(&99u32.to_le_bytes());
        hdr.extend_from_slice(&[0u8; 52]);
        std::fs::write(dir.join(HEADER_FILE), hdr).unwrap();
        assert!(matches!(
            StoreMeta::load(&dir),
            Err(StoreError::BadVersion(99))
        ));

        // Inconsistent derived field.
        m.save(&dir).unwrap();
        let mut raw = std::fs::read(dir.join(HEADER_FILE)).unwrap();
        let n = raw.len();
        raw[n - 8..].copy_from_slice(&7u64.to_le_bytes()); // corrupt page_bytes
        std::fs::write(dir.join(HEADER_FILE), raw).unwrap();
        assert!(matches!(StoreMeta::load(&dir), Err(StoreError::Corrupt(_))));

        std::fs::remove_dir_all(&dir).ok();
    }
}
