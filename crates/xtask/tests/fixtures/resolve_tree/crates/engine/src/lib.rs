//! The caller: one hot root whose calls pin the resolution rule.

use fx_store::{Source, Store};

pub struct Busy {
    until: f32,
}

pub struct Stage {
    acc: f32,
    spare: Vec<f32>,
}

pub struct Log {
    lines: Vec<String>,
}

pub struct Meta;

// spp-hot(fixture.resolve)
pub fn step(
    store: &Store,
    src: &dyn Source,
    stage: &mut Stage,
    v: usize,
    weigh: impl Fn(f32) -> f32,
) -> f32 {
    let local = store;
    let a = local.row(v);
    let b = src.fetch(v);
    let c = store.serve(v);
    let d = load();
    let e = stage.spare.capacity() as f32;
    let f = weigh(a);
    let each = |tally: &dyn Fn(f32) -> f32| tally(b);
    stage.settle(a + b + c + d + e + f + each(&weigh))
}

/// Case (g): a bare `weigh(..)` in `step` calls its parameter, not this.
pub fn weigh(x: f32) -> f32 {
    vec![x].len() as f32
}

/// Case (g): a bare `tally(..)` in a closure calls its parameter.
pub fn tally(x: f32) -> f32 {
    vec![x].len() as f32
}

/// Case (d): what a bare `load()` means.
fn load() -> f32 {
    1.0
}

impl Meta {
    /// Case (d): an associated fn a bare `load()` cannot call.
    pub fn load(path: &str) -> Vec<u8> {
        path.as_bytes().to_vec()
    }
}

impl Busy {
    /// Case (c): a same-crate method that must not shadow `Store::serve`.
    pub fn serve(&self, at: f32) -> f32 {
        self.until.max(at)
    }
}

impl Stage {
    /// Case (e): `self.settle_into(..)` is this impl's, not `Log`'s.
    pub fn settle(&mut self, x: f32) -> f32 {
        self.settle_into(x)
    }

    fn settle_into(&mut self, x: f32) -> f32 {
        self.acc += x;
        self.acc
    }
}

impl Log {
    /// Case (e): same name, another impl in the same file.
    pub fn settle_into(&mut self, x: f32) -> f32 {
        self.lines.push(format!("{x}"));
        x
    }
}
