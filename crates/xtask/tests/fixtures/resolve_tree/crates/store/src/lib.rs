//! The dependency: a row store and the trait the engine fetches through.

pub struct Store {
    rows: Vec<f32>,
    index: Vec<Option<usize>>,
}

/// Rows the engine reads through `&dyn Source`.
pub trait Source {
    fn fetch(&self, v: usize) -> f32;
}

impl Store {
    /// Case (a): the row accessor the engine's `store.row(..)` means.
    pub fn row(&self, v: usize) -> f32 {
        self.rows[v]
    }

    /// Case (c): reached from the engine's `store.serve(..)` even though
    /// the engine has a `serve` method of its own.
    pub fn serve(&self, v: usize) -> f32 {
        self.rows[self.index[v].unwrap()]
    }

    /// Case (f): a `Vec`'s `.capacity()` in the engine is std's, not
    /// this method's.
    pub fn capacity(&self) -> usize {
        self.rows.to_vec().len()
    }
}
