//! Cross-crate leaf for the seeded-violation tree: `grow` is reached
//! from `fixture.ingest` in crates/core via a bare-name call, proving
//! the call graph follows workspace-wide edges.

/// Appends and pads without allocation annotations: the seeded H1
/// violations, two calls below the root.
pub fn grow(out: &mut Vec<f32>, v: f32) {
    out.push(v);
    out.resize(out.len().next_power_of_two(), 0.0);
}

/// Never called from a root: hazards here must stay invisible.
pub fn cold_rebuild(n: usize) -> Vec<f32> {
    let mut out = Vec::new();
    for i in 0..n {
        out.push(i as f32);
    }
    out
}
