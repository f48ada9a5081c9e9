//! The page-run walker: batch-granular row reads shared by the paged
//! backends.
//!
//! A batch gather sorts its `(physical row, output index)` pairs by row
//! and walks them in *runs* of adjacent touched pages. Each run costs
//! one payload access covering its first to its last requested row —
//! a borrowed slice for [`crate::InRamStore`], one `read_exact_at` for
//! [`crate::MmapStore`] — and every row decodes straight from the run's
//! bytes into its slot of the caller's output. A single-row read is the
//! one-id case of the same walk, so there is one decode path per
//! backend, not a per-row and a per-batch one.
//!
//! Accounting invariant: the tracker is charged once per distinct page
//! of a run with the number of requested rows on it
//! ([`PageTracker::record_rows`]), which yields exactly the
//! [`crate::StoreStats`] that one [`PageTracker::record`] per row
//! would — coalescing changes how bytes are fetched, never what the
//! residency model reports.
//!
//! The sort is `sort_unstable` over keys that are unique by
//! construction (the output index is part of the key), so the walk
//! order — and with it every read and tracker call — is a pure function
//! of `ids`. The key and run buffers are thread-local and only ever
//! grow, so a warmed-up gather performs zero heap allocations.

use crate::format::{self, StoreMeta};
use crate::tracker::PageTracker;
use spp_graph::VertexId;
use std::cell::RefCell;

/// Upper bound on the bytes one run spans (64 default-size pages): long
/// enough to amortize a positioned read, short enough that the run
/// buffer stays cache-resident while its rows decode. A page larger
/// than this is still read whole-run, one page at a time.
const RUN_BYTES: usize = 256 << 10;

struct Scratch {
    /// `row << 32 | output index`, sorted per gather.
    keys: Vec<u64>,
    /// Encoded bytes of the current run (unused by resident payloads).
    run: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            keys: Vec::new(),
            run: Vec::new(),
        })
    };
}

/// Where a paged backend's encoded payload lives.
pub(crate) trait Payload {
    /// The payload bytes `off..off + len`, either borrowed from `self`
    /// or fetched into `buf` (which only ever grows).
    ///
    /// # Panics
    ///
    /// Panics if the bytes cannot be produced in full.
    fn run_bytes<'a>(&'a self, off: usize, len: usize, buf: &'a mut Vec<u8>) -> &'a [u8];
}

/// Decodes rows `ids` of the paged payload into `out` (row `i` of `out`
/// = row `ids[i]`), one payload access per run of adjacent touched
/// pages.
///
/// # Panics
///
/// Panics — before any payload access or tracker update — if
/// `out.len() != ids.len() × dim` ("gather output length mismatch") or
/// any id is out of range ("row {v} out of range").
pub(crate) fn gather_runs(
    meta: &StoreMeta,
    tracker: &PageTracker,
    payload: &(impl Payload + ?Sized),
    ids: &[VertexId],
    out: &mut [f32],
) {
    let dim = meta.dim;
    assert_eq!(out.len(), ids.len() * dim, "gather output length mismatch");
    assert!(ids.len() <= u32::MAX as usize, "gather batch too large");
    SCRATCH.with(|cell| {
        let Scratch { keys, run } = &mut *cell.borrow_mut();
        keys.clear();
        let pairs = ids.iter().enumerate();
        keys.extend(pairs.map(|(i, &v)| (u64::from(v) << 32) | i as u64)); // spp-hot: alloc(thread-local, grown once)
        keys.sort_unstable();
        if let Some(&last) = keys.last() {
            let v = (last >> 32) as usize;
            assert!(v < meta.rows, "row {v} out of range");
        }
        let row_bytes = meta.row_bytes();
        let max_pages = (RUN_BYTES / meta.page_bytes()).max(1);
        let mut rest = keys.as_slice();
        while let Some(&first) = rest.first() {
            let first_row = (first >> 32) as usize;
            let first_page = meta.page_of(first_row);
            // Extend the run while the next row sits on the current or
            // the adjacent page, charging each page as it completes.
            let (mut page, mut on_page, mut len) = (first_page, 0u64, 0usize);
            for &k in rest {
                let p = meta.page_of((k >> 32) as usize);
                if p != page {
                    if p > page + 1 || p - first_page >= max_pages {
                        break;
                    }
                    tracker.record_rows(page, on_page);
                    (page, on_page) = (p, 0);
                }
                on_page += 1;
                len += 1;
            }
            tracker.record_rows(page, on_page);
            let (this, tail) = rest.split_at(len);
            rest = tail;

            let last_row = (this[len - 1] >> 32) as usize;
            let off = meta.row_offset(first_row);
            let span = meta.row_offset(last_row) + row_bytes - off;
            let bytes = payload.run_bytes(off, span, run);
            for &k in this {
                let (row, i) = ((k >> 32) as usize, (k & 0xffff_ffff) as usize);
                let at = meta.row_offset(row) - off;
                format::decode_row(
                    meta.scheme,
                    &bytes[at..at + row_bytes],
                    &mut out[i * dim..(i + 1) * dim],
                );
            }
        }
    });
}
