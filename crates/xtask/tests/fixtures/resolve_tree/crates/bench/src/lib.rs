//! Downstream of the engine: the engine cannot name these items, but
//! `dyn` dispatch reaches the trait impl.

use fx_store::Source;

pub struct Table {
    cells: Vec<String>,
}

pub struct Remote {
    rows: Vec<Option<f32>>,
}

impl Table {
    /// Case (a): same name as `Store::row`, outside the engine's closure.
    pub fn row(&mut self, cell: &str) {
        self.cells.push(cell.to_string());
    }
}

impl Source for Remote {
    /// Case (b): reached through the engine's `&dyn Source`.
    fn fetch(&self, v: usize) -> f32 {
        self.rows[v].unwrap()
    }
}
