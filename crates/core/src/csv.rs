//! A minimal CSV writer.
//!
//! No serializer-format crate is available in the offline dependency set, so
//! the experiment harness uses this small, dependency-free table type to
//! persist figure series and table rows. Values containing commas, quotes or
//! newlines are quoted per RFC 4180.

use crate::error::CoreError;
use std::io::Write;
use std::path::Path;

/// An in-memory rectangular table with a header row.
///
/// # Example
///
/// ```
/// use abft_core::csv::CsvTable;
///
/// # fn main() -> Result<(), abft_core::CoreError> {
/// let mut table = CsvTable::new(vec!["filter".into(), "distance".into()]);
/// table.push_row(vec!["CGE".into(), "0.0239".into()])?;
/// table.push_row(vec!["CWTM".into(), "0.0167".into()])?;
/// let text = table.to_csv_string();
/// assert!(text.starts_with("filter,distance\n"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates an empty table with the given column names.
    pub fn new(header: Vec<String>) -> Self {
        CsvTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Number of columns, fixed by the header.
    pub fn width(&self) -> usize {
        self.header.len()
    }

    /// Number of data rows (excluding the header).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The header row.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a data row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shape`] when the row width differs from the
    /// header width.
    pub fn push_row(&mut self, row: Vec<String>) -> Result<(), CoreError> {
        if row.len() != self.header.len() {
            return Err(CoreError::Shape {
                expected: format!("{} columns", self.header.len()),
                actual: format!("{} columns", row.len()),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Renders the full table (header + rows) as a CSV string.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        write_record(&mut out, &self.header);
        for row in &self.rows {
            write_record(&mut out, row);
        }
        out
    }

    /// Renders the table as an aligned, human-readable text table, the format
    /// the experiment harness prints to stdout.
    pub fn to_aligned_string(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.len()..widths[i] {
                    out.push(' ');
                }
            }
            // Trim trailing padding on the last column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render(&mut out, &self.header);
        let rule_len = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            render(&mut out, row);
        }
        out
    }

    /// Writes the CSV rendering to an arbitrary writer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] when the writer fails.
    fn write_to(&self, writer: &mut impl Write) -> Result<(), CoreError> {
        writer.write_all(self.to_csv_string().as_bytes())?;
        Ok(())
    }

    /// Writes the CSV rendering to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] when the path cannot be created or written.
    pub fn write_to_path(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        self.write_to(&mut file)
    }
}

/// Appends one CSV record (with trailing newline) to `out`.
fn write_record(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(cell));
    }
    out.push('\n');
}

/// Quotes a cell if it contains a comma, quote, or newline (RFC 4180).
fn escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_ragged_rows() {
        let mut t = CsvTable::new(vec!["a".into(), "b".into()]);
        assert!(t.push_row(vec!["1".into()]).is_err());
        assert!(t
            .push_row(vec!["1".into(), "2".into(), "3".into()])
            .is_err());
        assert!(t.push_row(vec!["1".into(), "2".into()]).is_ok());
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn renders_csv() {
        let mut t = CsvTable::new(vec!["x".into(), "y".into()]);
        t.push_row(vec!["1".into(), "2".into()]).unwrap();
        assert_eq!(t.to_csv_string(), "x,y\n1,2\n");
    }

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn aligned_rendering_pads_columns() {
        let mut t = CsvTable::new(vec!["filter".into(), "d".into()]);
        t.push_row(vec!["CGE".into(), "0.02".into()]).unwrap();
        let text = t.to_aligned_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("filter"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("CGE"));
    }

    #[test]
    fn writes_file_with_parents() {
        let dir = std::env::temp_dir().join("abft_core_csv_test/nested");
        let path = dir.join("t.csv");
        let mut t = CsvTable::new(vec!["a".into()]);
        t.push_row(vec!["1".into()]).unwrap();
        t.write_to_path(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\n1\n");
        std::fs::remove_dir_all(std::env::temp_dir().join("abft_core_csv_test")).ok();
    }

    #[test]
    fn width_and_header_accessors() {
        let t = CsvTable::new(vec!["a".into(), "b".into(), "c".into()]);
        assert_eq!(t.width(), 3);
        assert_eq!(t.header()[2], "c");
        assert!(t.rows().is_empty());
    }
}
