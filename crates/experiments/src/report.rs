//! Report rendering: aligned ASCII tables for the terminal and CSV files
//! for plotting. Formats are hand-rolled (flat, append-only) — a
//! serialization crate is not warranted for this shape of output.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} vs {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render as an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.columns));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Render as CSV (RFC-4180 quoting where needed).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV form to `dir/name.csv`, creating `dir` if needed.
    pub fn write_csv(&self, dir: &Path, name: &str) -> io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Write `dir/name.csv` plus the ASCII rendering as `dir/name.txt`, so
    /// a report directory stands alone without terminal scrollback.
    pub fn write_files(&self, dir: &Path, name: &str) -> io::Result<()> {
        self.write_csv(dir, name)?;
        std::fs::write(dir.join(format!("{name}.txt")), self.to_ascii())
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Format a float with `d` decimals.
pub fn f(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1.0".into()]);
        t.row(vec!["beta, the second".into(), "2.5".into()]);
        t
    }

    #[test]
    fn ascii_renders_aligned() {
        let s = sample().to_ascii();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("alpha"));
        // Column separator present on every data line.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.iter().filter(|l| l.contains('|')).count() >= 3);
    }

    #[test]
    fn csv_escapes_commas() {
        let s = sample().to_csv();
        assert!(s.starts_with("name,value\n"));
        assert!(s.contains("\"beta, the second\""));
    }

    #[test]
    fn csv_escapes_quotes() {
        let mut t = Table::new("q", &["a"]);
        t.row(vec!["say \"hi\"".into()]);
        assert!(t.to_csv().contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("sb_report_test");
        let path = sample().write_csv(&dir, "demo").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("alpha"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.3612), "36.1");
        assert_eq!(f(1.23456, 2), "1.23");
    }
}
