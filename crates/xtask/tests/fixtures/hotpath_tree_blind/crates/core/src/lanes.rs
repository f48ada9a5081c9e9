//! Seeded-violation fixture for two lexical blind spots of the call
//! graph: a callee whose signature holds an array type (the `;` in
//! `[f32; 4]` must not end the item header) and a callee reached only
//! through a turbofish call (`pick::<4>(..)` is an edge to `pick`).

/// Root whose violations sit in the two hard-to-parse callees.
// spp-hot(fixture.lanes)
pub fn lanes(x: f32) -> f32 {
    let wide = widen([x; 4]);
    pick::<4>(&wide)
}

/// Array-typed signature; allocates without an annotation.
fn widen(x: [f32; 4]) -> Vec<f32> {
    x.to_vec()
}

/// Reached only as `pick::<N>(..)`; unwraps.
fn pick<const N: usize>(xs: &[f32]) -> f32 {
    xs.get(N - 1).copied().unwrap()
}
