//! The markdown table every experiment prints.

use std::fmt;

/// A markdown table: a header row, a separator and aligned body rows.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: ToString>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Start a body row; its cells are appended through the returned [`Row`].
    pub fn row(&mut self) -> Row<'_> {
        self.rows.push(Vec::new());
        Row(self.rows.last_mut().expect("just pushed"))
    }
}

/// One body row under construction.
pub struct Row<'a>(&'a mut Vec<String>);

impl Row<'_> {
    pub fn cell(self, value: impl fmt::Display) -> Self {
        self.0.push(value.to_string());
        self
    }

    /// A fraction as a percentage with one decimal: `0.964` → `96.4%`.
    pub fn pct(self, x: f64) -> Self {
        self.cell(format_args!("{:.1}%", x * 100.0))
    }

    /// Three decimals.
    pub fn f3(self, x: f64) -> Self {
        self.cell(format_args!("{x:.3}"))
    }

    /// [`Row::pct`] for each of `xs`.
    pub fn pcts(self, xs: &[f64]) -> Self {
        xs.iter().fold(self, |row, &x| row.pct(x))
    }

    /// [`Row::f3`] for each of `xs`.
    pub fn f3s(self, xs: &[f64]) -> Self {
        xs.iter().fold(self, |row, &x| row.f3(x))
    }
}

impl fmt::Display for Table {
    /// Column widths count bytes and padding counts chars, so a column
    /// holding `−` or `→` comes out wider than its widest cell: the
    /// committed tables were recorded that way.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| {
            write!(f, "|")?;
            for (cell, w) in cells.iter().zip(&widths) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &separator)?;
        self.rows.iter().try_for_each(|row| line(f, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(["name", "F1"]);
        t.row().cell("DeepLog").f3(0.98765);
        t.row().cell("PCA").pct(0.5);
        assert_eq!(
            t.to_string(),
            "| name    | F1    |\n\
             | ------- | ----- |\n\
             | DeepLog | 0.988 |\n\
             | PCA     | 50.0% |\n"
        );
    }
}
