//! Plain-text table rendering for experiment reports.
//!
//! The harness regenerates the paper's tables and figure series as aligned
//! monospace tables, one row per configuration, so that paper-vs-measured
//! comparisons are easy to eyeball and to grep.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
    }

    /// Appends a free-text footnote rendered after the table body.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Number of body rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Returns a cell (row, column) for programmatic checks in tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders the table as RFC-4180-ish CSV (header row first; cells
    /// containing commas or quotes are quoted).
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// A filesystem-safe slug of the title (for CSV filenames).
    pub fn slug(&self) -> String {
        self.title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_")
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: String = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<w$}", h, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(line.len()));
        for row in &self.rows {
            let line: String = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ");
            let _ = writeln!(out, "{line}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  * {n}");
        }
        out
    }
}

/// Formats a millisecond value with two decimals (or `-` when NaN).
pub fn fmt_ms(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.2}")
    }
}

/// Formats a ratio as a signed percentage, e.g. `-21.1%`.
pub fn fmt_pct(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{:+.1}%", x * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["system", "latency (ms)"]);
        t.row(&["BLESS".into(), "11.30".into()]);
        t.row(&["TEMPORAL".into(), "16.80".into()]);
        t.note("lower is better");
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("BLESS"));
        assert!(s.contains("* lower is better"));
        // Columns align: both data rows have the latency at the same offset.
        let lines: Vec<&str> = s.lines().collect();
        let i1 = lines[3].find("11.30").unwrap();
        let i2 = lines[4].find("16.80").unwrap();
        assert_eq!(i1, i2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn cell_access() {
        let mut t = Table::new("demo", &["a"]);
        t.row(&["x".into()]);
        assert_eq!(t.cell(0, 0), "x");
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn csv_escapes_and_slugs() {
        let mut t = Table::new("Fig. 4(b): demo, test", &["a", "b"]);
        t.row(&["plain".into(), "with,comma".into()]);
        t.row(&["with\"quote".into(), "x".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "plain,\"with,comma\"");
        assert_eq!(lines[2], "\"with\"\"quote\",x");
        assert_eq!(t.slug(), "fig_4_b_demo_test");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ms(1.234), "1.23");
        assert_eq!(fmt_ms(f64::NAN), "-");
        assert_eq!(fmt_pct(-0.211), "-21.1%");
        assert_eq!(fmt_pct(0.05), "+5.0%");
    }
}
