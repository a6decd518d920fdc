//! Every committed `BENCH_eNN.json` is recomputed here and compared with
//! the file after removing the whitespace outside strings, so a change
//! that moves a record fails `cargo test`. When the move is meant,
//! regenerate the file from the driver's last line:
//! `cargo run --release -p parlog-bench -- eNN | tail -n 1 | sed 's/^JSON [a-z0-9_]* //' | python3 -m json.tool > BENCH_eNN.json`.
//!
//! Only the deterministic section runs; the wall-clock one is the
//! driver's alone.

use parlog_bench::*;
use std::process::Command;

/// `json` without the whitespace outside its strings.
fn compact(json: &str) -> String {
    let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
    for c in json.chars() {
        if escaped {
            escaped = false;
        } else if in_string {
            escaped = c == '\\';
            in_string = c != '"';
        } else if c.is_whitespace() {
            continue;
        } else {
            in_string = c == '"';
        }
        out.push(c);
    }
    out
}

/// Compare the record `compute` returns with `BENCH_<id>.json`.
///
/// The record is computed in a process of its own, as the driver computes
/// it: relation names are interned in first-use order and several records
/// hash the ids, so a record is only reproducible from a fresh process.
/// The test re-runs this binary filtered to itself; that run, the only
/// test in its process, computes and compares.
fn check<T: serde::Serialize>(test: &str, id: &str, compute: fn() -> T) {
    if !std::env::args().any(|a| a == "--exact") {
        let exe = std::env::current_exe().expect("the test binary's own path");
        let out = Command::new(exe)
            .args([test, "--exact"])
            .output()
            .expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        return;
    }
    let path = format!("{}/../../BENCH_{id}.json", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("committed record");
    let record = serde_json::to_string(&compute()).expect("serializable");
    assert!(
        record == compact(&committed),
        "BENCH_{id}.json is not the record `cargo run --release -p parlog-bench -- {id}` \
         prints last:\n{record}"
    );
}

#[test]
fn compact_keeps_strings_whole() {
    assert_eq!(
        compact("{\n  \"a b\": [1, 2],\n  \"c\\\" d\": \" \"\n}"),
        "{\"a b\":[1,2],\"c\\\" d\":\" \"}"
    );
}

/// One test per committed record, named after the experiment's module.
macro_rules! records {
    ($($module:ident: $id:literal),* $(,)?) => {$(
        #[test]
        fn $module() {
            check(stringify!($module), $id, $module::record);
        }
    )*};
}

records! {
    e12_gym: "e12",
    e13_rounds_tradeoff: "e13",
    e18_fault_matrix: "e18",
    e19_supervisor: "e19",
    e20_parallel_engine: "e20",
    e21_observability: "e21",
    e22_wcoj: "e22",
    e23_verify: "e23",
    e24_partition: "e24",
    e25_incremental: "e25",
    e26_skew_adaptive: "e26",
    e27_serving: "e27",
}
