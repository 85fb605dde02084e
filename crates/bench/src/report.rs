//! Minimal table rendering (markdown + CSV) for the reproduction reports.
//!
//! Hand-rolled on purpose: the experiments emit small tables, and keeping
//! the dependency set to the blessed crates matters more than fancy
//! formatting.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple rectangular table with named columns.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != column count {}",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders CSV (header row first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes `<stem>.md` and `<stem>.csv` under `dir`.
    pub fn write_to(&self, dir: &Path, stem: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{stem}.md")), self.to_markdown())?;
        std::fs::write(dir.join(format!("{stem}.csv")), self.to_csv())?;
        Ok(())
    }
}

/// Formats a float with engineering-friendly significant digits.
pub fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### T"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["x,y".into()]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("T", &["a", "b"]).row(vec!["1".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.00865), "0.00865");
        assert_eq!(fmt_f64(2.574), "2.574");
        assert_eq!(fmt_f64(144.03), "144.0");
    }

    #[test]
    fn writes_files() {
        let dir = std::env::temp_dir().join("ptq_report_test");
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into()]);
        t.write_to(&dir, "t").unwrap();
        assert!(dir.join("t.md").exists());
        assert!(dir.join("t.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
