//! The vocabulary shape claims are written in. A claim is a
//! `fn(&Curves) -> Verdict`: `Ok` carries the measured evidence, `Err`
//! says what broke. The helpers address cells by the labels the table
//! prints and format the evidence themselves.

use crate::curves::{percent, Curves, Fmt, Grid};
use std::ops::Range;

pub type Verdict = Result<String, String>;

/// One asserted sentence of a row.
pub struct Shape {
    pub claim: &'static str,
    pub check: fn(&Curves) -> Verdict,
    /// `Some(why)`: checked at `--scale` ≥ 1 only, for the stated reason.
    pub default_scale_only: Option<&'static str>,
}

/// A claim checked at every scale.
pub const fn shape(claim: &'static str, check: fn(&Curves) -> Verdict) -> Shape {
    Shape {
        claim,
        check,
        default_scale_only: None,
    }
}

impl Shape {
    /// This claim can only hold in a default-scale run, and why.
    pub const fn at_default_scale(mut self, why: &'static str) -> Self {
        self.default_scale_only = Some(why);
        self
    }
}

pub fn verdict(holds: bool, evidence: String) -> Verdict {
    if holds {
        Ok(evidence)
    } else {
        Err(evidence)
    }
}

/// All verdicts hold; evidence is joined, the first failure wins.
pub fn all(verdicts: impl IntoIterator<Item = Verdict>) -> Verdict {
    let evidence: Vec<String> = verdicts.into_iter().collect::<Result<_, _>>()?;
    Ok(evidence.join("; "))
}

/// A cell by its printed (row label, column header).
pub type Cell<'a> = (&'a str, &'a str);

fn quote(g: &Grid, (row, col): Cell) -> (f64, String) {
    let v = g.at(row, col);
    (
        v,
        format!("{row} / {col} {}", g.cols[g.col_index(col)].1(v)),
    )
}

/// Cell `a` is strictly below cell `b`.
pub fn less(g: &Grid, a: Cell, b: Cell) -> Verdict {
    let ((va, qa), (vb, qb)) = (quote(g, a), quote(g, b));
    verdict(va < vb, format!("{qa} vs {qb}"))
}

/// Cell `top` is strictly above every cell of `others`.
pub fn tops<'a>(g: &Grid, top: Cell, others: impl IntoIterator<Item = Cell<'a>>) -> Verdict {
    let quoted = others.into_iter().map(|c| quote(g, c));
    let (next, qn) = quoted.fold(
        (f64::MIN, String::new()),
        |a, b| if b.0 > a.0 { b } else { a },
    );
    let (v, q) = quote(g, top);
    verdict(v > next, format!("{q} vs next largest {qn}"))
}

/// `num / den` is within a factor of two of the ratio the paper
/// reports. The stand-ins are 1/1000 scale, so magnitudes are not the
/// target; a ratio that leaves this band has changed character, not size.
pub fn ratio_near(g: &Grid, num: Cell, den: Cell, paper: f64) -> Verdict {
    let ratio = g.at(num.0, num.1) / g.at(den.0, den.1);
    verdict(
        ratio >= paper / 2.0 && ratio <= paper * 2.0,
        format!("{ratio:.2}x (paper {paper}x)"),
    )
}

/// `vals` strictly fall; cells the experiment does not run are skipped.
/// A failure names the first step that rises and quotes `cuts`, the
/// edge cut behind each value, when the grid recorded them.
fn falling(what: &str, names: &[&str], vals: &[f64], fmt: Fmt, cuts: Option<&[f64]>) -> Verdict {
    let ran: Vec<usize> = (0..vals.len()).filter(|&i| !vals[i].is_nan()).collect();
    let quote = |i: usize| format!("{} {}", names[i], fmt(vals[i]));
    if let Some(step) = ran.windows(2).find(|s| vals[s[1]] >= vals[s[0]]) {
        let mut why = format!("{what}: {} -> {}", quote(step[0]), quote(step[1]));
        if let Some(cuts) = cuts {
            let listed: Vec<String> = ran
                .iter()
                .map(|&i| format!("{} {}", names[i], percent(cuts[i])))
                .collect();
            why.push_str(&format!(" [edge cut {}]", listed.join(", ")));
        }
        return Err(why);
    }
    Ok(format!(
        "{what}: {} -> {}",
        quote(ran[0]),
        quote(ran[ran.len() - 1])
    ))
}

/// Row `label` of `g` strictly falls along columns `cols`.
pub fn falls_along(g: &Grid, label: &str, cols: Range<usize>) -> Verdict {
    let names: Vec<&str> = g.cols[cols.clone()]
        .iter()
        .map(|(c, _)| c.as_str())
        .collect();
    let row = g.rows.iter().position(|(l, _)| l == label);
    let row = row.unwrap_or_else(|| panic!("{}: no row {label:?}", g.csv));
    let cuts = g.cuts.get(row).map(|c| &c[cols.clone()]);
    let fmt = g.cols[cols.start].1;
    falling(label, &names, &g.rows[row].1[cols], fmt, cuts)
}

/// Column `col` of `g` strictly falls down the rows.
pub fn falls_down(g: &Grid, col: &str) -> Verdict {
    let j = g.col_index(col);
    let names: Vec<&str> = g.rows.iter().map(|(l, _)| l.as_str()).collect();
    let vals: Vec<f64> = g.rows.iter().map(|(_, v)| v[j]).collect();
    falling(col, &names, &vals, g.cols[j].1, None)
}
