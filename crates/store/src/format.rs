//! The on-disk store format: versioned header and paged row layout.
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
//! Each row is stored in the byte layout of the one row codec,
//! [`spp_graph::quant::encode_row`] (DESIGN.md §14), the same bytes the
//! in-RAM quantized tiers hold, so a store round trip is bit-identical
//! to them.
//!
//! Everything validates on load and surfaces [`StoreError`] — a corrupt
//! or truncated store must never panic the reader (the SPPD contract
//! from `spp_graph::io` extended to store artifacts).

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

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::quant::{decode_row, encode_row};

    /// An `f32` row on disk is its raw little-endian IEEE bits.
    #[test]
    fn f32_roundtrip_is_lossless() {
        let row: Vec<f32> = (0..16)
            .map(|i| (i as f32 * 0.37).sin() * 5.0 - 1.0)
            .collect();
        let mut bytes = vec![0u8; QuantScheme::F32.row_bytes(16)];
        encode_row(QuantScheme::F32, &row, &mut bytes);
        let raw: Vec<u8> = row.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(bytes, raw);
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
