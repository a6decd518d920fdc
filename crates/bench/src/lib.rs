//! The experiments E1–E27, one module each, behind one driver
//! (`cargo run --release -p parlog-bench -- <eNN|all>`), and the helpers
//! they share with the Criterion benches: plain-text tables and JSON
//! result lines, so every experiment's output can be pasted into
//! EXPERIMENTS.md and machine-diffed across runs.
//!
//! Each module's `run` prints its tables and `JSON <label>` lines, all
//! deterministic: two runs diff byte-identical. E12–E14 and E18–E27
//! compute their record in a plain `record` function; `run` prints it
//! last, and `tests/records.rs` recomputes each one against its
//! committed `BENCH_eNN.json`. Wall-clock claims are `crates/perf`'s.

use std::fmt::Display;

pub mod e01_join_strategies;
pub mod e02_hypercube_triangle;
pub mod e03_load_exponents;
pub mod e04_skew_rounds;
pub mod e05_figure1;
pub mod e06_pc_examples;
pub mod e08_figure2;
pub mod e09_transducer_runs;
pub mod e10_calm_hierarchy;
pub mod e11_broadcast;
pub mod e12_gym;
pub mod e13_rounds_tradeoff;
pub mod e14_shares_skew;
pub mod e18_fault_matrix;
pub mod e19_supervisor;
pub mod e20_parallel_engine;
pub mod e21_observability;
pub mod e22_wcoj;
pub mod e23_verify;
pub mod e24_partition;
pub mod e25_incremental;
pub mod e26_skew_adaptive;
pub mod e27_serving;

/// Every experiment, by the id the driver takes, with its `run`.
pub const EXPERIMENTS: [(&str, fn()); 23] = [
    ("e01", e01_join_strategies::run),
    ("e02", e02_hypercube_triangle::run),
    ("e03", e03_load_exponents::run),
    ("e04", e04_skew_rounds::run),
    ("e05", e05_figure1::run),
    ("e06", e06_pc_examples::run),
    ("e08", e08_figure2::run),
    ("e09", e09_transducer_runs::run),
    ("e10", e10_calm_hierarchy::run),
    ("e11", e11_broadcast::run),
    ("e12", e12_gym::run),
    ("e13", e13_rounds_tradeoff::run),
    ("e14", e14_shares_skew::run),
    ("e18", e18_fault_matrix::run),
    ("e19", e19_supervisor::run),
    ("e20", e20_parallel_engine::run),
    ("e21", e21_observability::run),
    ("e22", e22_wcoj::run),
    ("e23", e23_verify::run),
    ("e24", e24_partition::run),
    ("e25", e25_incremental::run),
    ("e26", e26_skew_adaptive::run),
    ("e27", e27_serving::run),
];

/// A simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[&dyn Display]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len());
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("  ");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len() + 2;
        println!("  {}", "-".repeat(total.saturating_sub(2)));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format a float with 3 decimals (for table cells).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Print a section header.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

/// Dump a serializable result as one JSON line (machine-readable record
/// of the experiment).
pub fn json_record<T: serde::Serialize>(label: &str, value: &T) {
    println!(
        "JSON {label} {}",
        serde_json::to_string(value).expect("serializable")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&[&1, &"xyz"]);
        t.row(&[&22, &"q"]);
        t.print();
    }

    #[test]
    fn f3_formats() {
        assert_eq!(f3(0.6666), "0.667");
    }
}
