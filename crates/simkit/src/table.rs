//! Plain-text table rendering for experiment output.
//!
//! The benchmark binaries print the paper's tables (e.g. Table I detection
//! rates) as aligned ASCII so paper-vs-measured comparison is a diff away.

use std::fmt::Write as _;

/// An ASCII table builder.
///
/// # Example
///
/// ```
/// use simkit::table::Table;
///
/// let mut t = Table::new(vec!["scheme", "survival (s)"]);
/// t.row(vec!["Conv".to_string(), "112".to_string()]);
/// t.row(vec!["PAD".to_string(), "1201".to_string()]);
/// let text = t.render();
/// assert!(text.contains("Conv"));
/// assert!(text.contains("survival"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    pub fn title(&mut self, title: impl Into<String>) -> &mut Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// truncated to the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Convenience: appends a row of displayable values.
    pub fn row_display<D: std::fmt::Display>(&mut self, cells: Vec<D>) -> &mut Self {
        self.row(cells.into_iter().map(|c| c.to_string()).collect())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }

        let mut out = String::new();
        if let Some(title) = &self.title {
            let _ = writeln!(out, "== {title} ==");
        }
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .chain(std::iter::once("+".to_string()))
            .collect();
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "| {cell:<w$} ", w = w);
            }
            line.push('|');
            line
        };
        let _ = writeln!(out, "{sep}");
        let _ = writeln!(out, "{}", render_row(&self.headers));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row));
        }
        let _ = writeln!(out, "{sep}");
        out
    }
}

/// Formats a float with `digits` decimal places — shared helper so all
/// experiment output uses consistent formatting.
pub fn fmt_f64(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["yyyy".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Separator, header, separator, 2 rows, separator.
        assert_eq!(lines.len(), 6);
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "ragged table:\n{s}");
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one".into()]);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn title_is_printed() {
        let mut t = Table::new(vec!["x"]);
        t.title("Table I");
        t.row(vec!["v".into()]);
        assert!(t.render().starts_with("== Table I =="));
    }

    #[test]
    fn row_display_stringifies() {
        let mut t = Table::new(vec!["n"]);
        t.row_display(vec![42]);
        assert!(t.render().contains("42"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["h"]);
        assert!(t.is_empty());
        t.row(vec!["r".into()]);
        assert_eq!(t.len(), 1);
    }
}
