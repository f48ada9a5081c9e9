//! What a row measures — labelled grids of numbers — and the one
//! renderer that turns a grid into the printed table and its CSV.
//! Shape predicates read the same grids by label, so a claim is checked
//! on exactly the numbers that were printed.

use spp_bench::Table;

/// How a column's numbers are printed.
pub type Fmt = fn(f64) -> String;

/// `1.32x`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// A rounded count (`88223`).
pub fn count(x: f64) -> String {
    format!("{x:.0}")
}

/// A fraction as a percentage with one decimal (`8.8%`).
pub fn percent(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Rows × swept axis: one printed table / one CSV. A NaN cell is a
/// combination the experiment does not run and prints as `-`.
pub struct Grid {
    /// `results/<csv>.csv`.
    pub csv: &'static str,
    pub title: String,
    /// Header of the label column.
    pub corner: &'static str,
    pub cols: Vec<(String, Fmt)>,
    pub rows: Vec<(String, Vec<f64>)>,
    /// Edge-cut fraction of the deployment behind each cell, for rows
    /// that sweep the machine count (parallel to `rows`, or empty): a
    /// partition-quality excursion is the usual reason a time-vs-K
    /// claim fails, so the failure quotes these.
    pub cuts: Vec<Vec<f64>>,
    /// Trailing columns of prose or pre-formatted cells.
    pub text: Vec<(&'static str, Vec<String>)>,
}

impl Grid {
    /// An empty grid whose columns all print through `fmt`.
    pub fn new<C: ToString>(
        csv: &'static str,
        title: &str,
        corner: &'static str,
        cols: &[C],
        fmt: Fmt,
    ) -> Self {
        Self {
            csv,
            title: title.to_string(),
            corner,
            cols: cols.iter().map(|c| (c.to_string(), fmt)).collect(),
            rows: Vec::new(),
            cuts: Vec::new(),
            text: Vec::new(),
        }
    }

    /// Prints column `col` through `fmt` instead of the grid's default.
    pub fn col_fmt(mut self, col: &str, fmt: Fmt) -> Self {
        let i = self.col_index(col);
        self.cols[i].1 = fmt;
        self
    }

    /// Appends one row per `(label, spec)`, each cell computed from the
    /// row's spec and the axis value of its column.
    pub fn fill<L: ToString, R, A>(
        &mut self,
        rows: &[(L, R)],
        axis: &[A],
        mut cell: impl FnMut(&R, &A) -> f64,
    ) {
        for (label, spec) in rows {
            self.row(
                label.to_string(),
                axis.iter().map(|a| cell(spec, a)).collect(),
            );
        }
    }

    pub fn row(&mut self, label: impl ToString, vals: Vec<f64>) {
        assert_eq!(vals.len(), self.cols.len(), "{}: cell count", self.csv);
        self.rows.push((label.to_string(), vals));
    }

    pub fn col_index(&self, col: &str) -> usize {
        let found = self.cols.iter().position(|(c, _)| c == col);
        found.unwrap_or_else(|| panic!("{}: no column {col:?}", self.csv))
    }

    /// The values of row `label`, in column order.
    pub fn series(&self, label: &str) -> &[f64] {
        let found = self.rows.iter().find(|(l, _)| l == label);
        &found
            .unwrap_or_else(|| panic!("{}: no row {label:?}", self.csv))
            .1
    }

    pub fn at(&self, label: &str, col: &str) -> f64 {
        self.series(label)[self.col_index(col)]
    }

    pub fn table(&self) -> Table {
        let mut headers = vec![self.corner];
        headers.extend(self.cols.iter().map(|(c, _)| c.as_str()));
        headers.extend(self.text.iter().map(|(h, _)| *h));
        let mut t = Table::new(&self.title, &headers);
        for (i, (label, vals)) in self.rows.iter().enumerate() {
            let mut cells = vec![label.clone()];
            for (&v, (_, fmt)) in vals.iter().zip(&self.cols) {
                cells.push(if v.is_nan() { "-".to_string() } else { fmt(v) });
            }
            cells.extend(self.text.iter().map(|(_, t)| t[i].clone()));
            t.row(cells);
        }
        t
    }
}

/// Everything one row produced: its grids, and facts that belong under
/// the tables but in no cell.
pub struct Curves {
    pub grids: Vec<Grid>,
    pub notes: Vec<String>,
}

impl Curves {
    pub fn of(grids: Vec<Grid>) -> Self {
        let notes = Vec::new();
        Self { grids, notes }
    }

    pub fn grid(&self, csv: &str) -> &Grid {
        let found = self.grids.iter().find(|g| g.csv == csv);
        found.unwrap_or_else(|| panic!("no grid {csv:?}"))
    }
}
