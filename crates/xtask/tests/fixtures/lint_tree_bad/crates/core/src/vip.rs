//! Lint fixture: malformed and stale escapes, and violations the linter
//! must report as hard errors.

pub fn escape_missing_justification(row_ptr: &[usize]) -> usize {
    row_ptr[0] // spp-lint: allow(l2-csr-index)
}

pub fn escape_empty_rule_list(cur: &mut [f64], lm: f64) {
    cur[0] = 1.0 - lm.exp(); // spp-lint: allow(): because
}

pub fn stale_escape_over_a_line_with_no_csr_indexing(n: usize) -> usize {
    // spp-lint: allow(l2-csr-index): the indexing this justified was rewritten to neighbors()
    n + 1
}

pub fn unannotated_relaxed_site(c: &spp_sync::AtomicU64) -> u64 {
    c.load_relaxed()
}

pub fn stale_relaxed_note(c: &spp_sync::AtomicU64) -> u64 {
    c.load_acquire() // spp-sync: relaxed(the call this justified was rewritten)
}
