//! Minimal markdown table rendering for the experiment reports.

use std::fmt;

/// A printable experiment table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (experiment id + paper artifact).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n### {}\n", self.title)?;
        // Widths count characters, as `{:<w$}` pads: `→` is one column.
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|i| {
                let cells = self.rows.iter().chain(std::iter::once(&self.headers));
                cells.map(|r| r[i].chars().count()).max().unwrap_or(0)
            })
            .collect();
        let padded = |cells: &[String]| -> String {
            let cells: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!(" {c:<w$} "))
                .collect();
            cells.join("|")
        };
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
        writeln!(f, "|{}|", padded(&self.headers))?;
        writeln!(f, "|{}|", dashes.join("|"))?;
        for r in &self.rows {
            writeln!(f, "|{}|", padded(r))?;
        }
        for n in &self.notes {
            writeln!(f, "\n> {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("T", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("### T"));
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("> hello"));
        // Widths count characters, not bytes: `→` is three bytes but one
        // column, so the non-ASCII cell ends where the ASCII ones do.
        let mut t = Table::new("T", &["ab"]);
        t.row(vec!["→→".into()]).row(vec!["cd".into()]);
        assert!(
            t.to_string().contains("| ab |\n|----|\n| →→ |\n| cd |\n"),
            "{t}"
        );
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_rejected() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
