//! Lint fixture: well-formed lint escapes in all accepted shapes, over
//! the rules this path is in scope for (L2, L5, L8).

pub fn trailing_escape_with_prose_after_the_reason(row_ptr: &[usize], v: usize) -> usize {
    // The justification may itself carry trailing prose and punctuation.
    row_ptr[v + 1] // spp-lint: allow(l2-csr-index): offsets validated at construction -- see the builder test
}

pub fn multiple_rules_one_escape(cur: &mut [f64], indices: &[u32], lm: f64) {
    cur[0] = indices[0] as f64 - lm.exp(); // spp-lint: allow(l2-csr-index, l5-prob-clamp): fixture exercising a multi-rule escape
}

pub fn standalone_escape_covers_next_line(cur: &mut [f64], u: usize, lm: f64) {
    // spp-lint: allow(l5-prob-clamp): standalone form applies to the following line
    cur[u] = 1.0 - lm.exp();
}

pub fn annotated_relaxed_site(c: &spp_sync::AtomicU64) -> u64 {
    c.load_relaxed() // spp-sync: relaxed(fixture: monotonic tally)
}
