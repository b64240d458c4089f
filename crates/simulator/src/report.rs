//! Plain-text tables and figure series.
//!
//! The harness binaries (`paper_tables`, `paper_figures`) print these; the
//! integration tests and EXPERIMENTS.md consume the same structures.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A table with a title, column headers and string cells.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table title (e.g. "Table 4: Application 19 ablation").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; each row should have `headers.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// A cell formatted as a percentage with one decimal.
    pub fn pct(value: f64) -> String {
        format!("{:.1}%", value * 100.0)
    }

    /// A cell formatted as a ratio with three decimals.
    pub fn ratio(value: f64) -> String {
        format!("{value:.3}")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        // Column widths from headers and cells.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", render_row(&self.headers, &widths))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            writeln!(f, "{}", render_row(row, &widths))?;
        }
        Ok(())
    }
}

/// A figure rendered as one or more named numeric series over a shared x
/// axis.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FigureSeries {
    /// Figure title (e.g. "Figure 3: Application 11 hit-rate curve").
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Labels of the y series.
    pub series_labels: Vec<String>,
    /// Rows of `(x, [y per series])`.
    pub points: Vec<(f64, Vec<f64>)>,
}

impl FigureSeries {
    /// Creates an empty figure.
    pub fn new(title: &str, x_label: &str, series_labels: &[&str]) -> Self {
        FigureSeries {
            title: title.to_string(),
            x_label: x_label.to_string(),
            series_labels: series_labels.iter().map(|s| s.to_string()).collect(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, ys: Vec<f64>) {
        debug_assert_eq!(ys.len(), self.series_labels.len(), "series width mismatch");
        self.points.push((x, ys));
    }

    /// Renders the figure as CSV with the x column first.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label);
        for label in &self.series_labels {
            out.push(',');
            out.push_str(label);
        }
        out.push('\n');
        for (x, ys) in &self.points {
            out.push_str(&format!("{x}"));
            for y in ys {
                out.push_str(&format!(",{y}"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for FigureSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        write!(f, "{}", self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new("Demo", &["App", "Hit rate"]);
        t.push_row(vec!["app1".into(), Table::pct(0.677)]);
        t.push_row(vec!["app2".into(), Table::pct(0.275)]);
        let text = t.to_string();
        assert!(text.contains("Demo"));
        assert!(text.contains("67.7%"));
    }

    #[test]
    fn figure_renders_and_exports() {
        let mut fig = FigureSeries::new("Fig", "items", &["hit rate"]);
        fig.push(100.0, vec![0.25]);
        fig.push(200.0, vec![0.5]);
        let csv = fig.to_csv();
        assert!(csv.starts_with("items,hit rate"));
        assert_eq!(csv.lines().count(), 3);
        assert!(fig.to_string().contains("Fig"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(Table::pct(0.5), "50.0%");
        assert_eq!(Table::ratio(0.4567), "0.457");
    }
}
