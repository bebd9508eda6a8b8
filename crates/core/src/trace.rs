//! Per-iteration convergence records.
//!
//! The paper's figures plot two series against the iteration count: the
//! honest aggregate *loss* `Σ_{i∈H} Q_i(x_t)` and the approximation
//! *distance* `‖x_t − x_H‖`. [`IterationRecord`] captures those plus the
//! filtered gradient norm and the inner product `φ_t` that Theorem 3's
//! convergence condition is stated in, so experiments can verify the theory
//! empirically, not just the end-to-end error.

use crate::csv::CsvTable;
use crate::error::CoreError;
use std::fmt;
use std::path::Path;

/// A single iteration's measurements from a DGD-style run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration index `t` (0-based).
    pub iteration: usize,
    /// Honest aggregate loss `Σ_{i∈H} Q_i(x_t)`.
    pub loss: f64,
    /// Approximation error `‖x_t − x_H‖` (distance to the honest minimizer).
    pub distance: f64,
    /// Norm of the filtered gradient `‖GradFilter(g_1, …, g_n)‖`.
    pub grad_norm: f64,
    /// Theorem 3's inner product `φ_t = ⟨x_t − x_H, GradFilter(…)⟩`.
    pub phi: f64,
}

impl IterationRecord {
    /// Header of the workspace's standard trace CSV: the fields in
    /// declaration order.
    pub(crate) const CSV_HEADER: &'static str = "iteration,loss,distance,grad_norm,phi";

    /// This record as one row of that CSV, without the line break: the
    /// iteration, then every metric in `{:.10e}`. Formats without
    /// allocating. Both trace writers — [`Trace::to_csv_table`] and
    /// [`CsvStreamer`](crate::observe::CsvStreamer) — write through it and
    /// [`IterationRecord::CSV_HEADER`], so their bytes agree by
    /// construction.
    pub(crate) fn csv_row(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            write!(
                f,
                "{},{:.10e},{:.10e},{:.10e},{:.10e}",
                self.iteration, self.loss, self.distance, self.grad_norm, self.phi
            )
        })
    }
}

/// A named series of [`IterationRecord`]s for one execution.
///
/// # Example
///
/// ```
/// use abft_core::{IterationRecord, Trace};
///
/// let mut trace = Trace::new("cge-gradient-reverse");
/// trace.push(IterationRecord {
///     iteration: 0,
///     loss: 1.0,
///     distance: 1.5,
///     grad_norm: 2.0,
///     phi: 3.0,
/// });
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.final_record().unwrap().distance, 1.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    name: String,
    records: Vec<IterationRecord>,
}

impl Trace {
    /// Creates an empty trace with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// The display name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a record.
    pub fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// All records in iteration order.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no iterations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The last record, if any.
    pub fn final_record(&self) -> Option<&IterationRecord> {
        self.records.last()
    }

    /// The final approximation error `‖x_T − x_H‖`, if any record exists.
    pub fn final_distance(&self) -> Option<f64> {
        self.final_record().map(|r| r.distance)
    }

    /// The distance series in iteration order, borrowed — no allocation.
    fn iter_distances(&self) -> impl Iterator<Item = f64> + '_ {
        self.records.iter().map(|r| r.distance)
    }

    /// The distance series, in iteration order.
    pub fn distances(&self) -> Vec<f64> {
        self.iter_distances().collect()
    }

    /// Maximum distance over a suffix of the run — useful for asserting that
    /// a run has settled inside a ball (the `lim sup` style guarantees of
    /// Theorems 4–6).
    ///
    /// Returns `None` when fewer than `suffix_len` records exist.
    pub fn max_distance_over_last(&self, suffix_len: usize) -> Option<f64> {
        if self.records.len() < suffix_len || suffix_len == 0 {
            return None;
        }
        self.iter_distances()
            .skip(self.records.len() - suffix_len)
            .fold(None, |acc, d| Some(acc.map_or(d, |m: f64| m.max(d))))
    }

    /// Converts the trace to a [`CsvTable`] with one row per iteration.
    pub fn to_csv_table(&self) -> CsvTable {
        // No header name or formatted number contains a comma, so a row's
        // cells are its comma-separated pieces.
        let cells = |line: &str| line.split(',').map(String::from).collect();
        let mut table = CsvTable::new(cells(IterationRecord::CSV_HEADER));
        for r in &self.records {
            table
                .push_row(cells(&r.csv_row().to_string()))
                .expect("trace rows always have 5 columns");
        }
        table
    }

    /// Writes the trace as CSV to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] when the file cannot be written.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        self.to_csv_table().write_to_path(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(iteration: usize, distance: f64) -> IterationRecord {
        IterationRecord {
            iteration,
            loss: distance * 2.0,
            distance,
            grad_norm: 1.0,
            phi: 0.5,
        }
    }

    #[test]
    fn push_and_query() {
        let mut t = Trace::new("x");
        assert!(t.is_empty());
        t.push(record(0, 3.0));
        t.push(record(1, 2.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.final_distance(), Some(2.0));
        assert_eq!(t.distances(), vec![3.0, 2.0]);
    }

    #[test]
    fn suffix_max_distance() {
        let mut t = Trace::new("x");
        for (i, d) in [5.0, 4.0, 1.0, 2.0, 0.5].iter().enumerate() {
            t.push(record(i, *d));
        }
        assert_eq!(t.max_distance_over_last(2), Some(2.0));
        assert_eq!(t.max_distance_over_last(3), Some(2.0));
        assert_eq!(t.max_distance_over_last(5), Some(5.0));
        assert_eq!(t.max_distance_over_last(6), None);
        assert_eq!(t.max_distance_over_last(0), None);
    }

    #[test]
    fn empty_trace_has_no_final_record() {
        let t = Trace::new("empty");
        assert!(t.final_record().is_none());
        assert!(t.final_distance().is_none());
    }

    #[test]
    fn csv_table_has_header_and_rows() {
        let mut t = Trace::new("x");
        t.push(record(0, 1.0));
        let table = t.to_csv_table();
        let text = table.to_csv_string();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "iteration,loss,distance,grad_norm,phi"
        );
        assert!(lines.next().unwrap().starts_with("0,"));
    }

    #[test]
    fn write_csv_creates_file() {
        let mut t = Trace::new("x");
        t.push(record(0, 1.0));
        let dir = std::env::temp_dir().join("abft_core_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("iteration,loss,distance"));
        std::fs::remove_file(&path).ok();
    }
}
