//! The experiment driver: `parlog-bench <eNN|all>` runs one experiment,
//! or every one in turn, and prints its tables and `JSON <label>` lines,
//! the deterministic record last.

use parlog_bench::EXPERIMENTS;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    if arg == "all" {
        // Each experiment in a process of its own: relation names are
        // interned in first-use order, and several records hash the ids.
        let exe = std::env::current_exe().expect("the driver's own path");
        for (id, _) in EXPERIMENTS {
            let status = Command::new(&exe).arg(id).status().expect("spawn");
            if !status.success() {
                eprintln!("{id} failed");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    match EXPERIMENTS.iter().find(|(id, _)| *id == arg) {
        Some((_, run)) => {
            run();
            ExitCode::SUCCESS
        }
        None => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!("usage: parlog-bench <{}|all>", ids.join("|"));
            ExitCode::from(2)
        }
    }
}
