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

/// A JSON value, parsed just far enough to read quoted numbers back out
/// of a committed record.
#[derive(Debug)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    Lit,
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut chars = text.chars().peekable();
        let value = Json::value(&mut chars);
        assert!(
            chars.all(char::is_whitespace),
            "trailing text after the record"
        );
        value
    }

    fn value(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Json {
        while chars.next_if(|c| c.is_whitespace()).is_some() {}
        match chars.next().expect("a value") {
            '{' => Json::Obj(Json::items(chars, '}', |chars| {
                let Json::Str(key) = Json::value(chars) else {
                    panic!("an object key");
                };
                while chars.next_if(|c| c.is_whitespace()).is_some() {}
                assert_eq!(chars.next(), Some(':'));
                (key, Json::value(chars))
            })),
            '[' => Json::Arr(Json::items(chars, ']', Json::value)),
            '"' => {
                let mut s = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '"' => return Json::Str(s),
                        '\\' => s.push(chars.next().expect("an escaped char")),
                        c => s.push(c),
                    }
                }
                panic!("an unterminated string")
            }
            c if c == '-' || c.is_ascii_digit() => {
                let mut s = String::from(c);
                while let Some(c) = chars.next_if(|c| "+-.eE".contains(*c) || c.is_ascii_digit()) {
                    s.push(c);
                }
                Json::Num(s.parse().expect("a number"))
            }
            _ => {
                while chars.next_if(char::is_ascii_alphabetic).is_some() {}
                Json::Lit
            }
        }
    }

    fn items<T>(
        chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
        close: char,
        mut item: impl FnMut(&mut std::iter::Peekable<std::str::Chars<'_>>) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        loop {
            while chars.next_if(|c| c.is_whitespace() || *c == ',').is_some() {}
            if chars.next_if_eq(&close).is_some() {
                return out;
            }
            out.push(item(chars));
        }
    }

    fn get(&self, key: &str) -> &Json {
        let Json::Obj(fields) = self else {
            panic!("`{key}` of a non-object");
        };
        &fields.iter().find(|(k, _)| k == key).expect(key).1
    }

    /// The element of an array of objects whose `key` is `want`.
    fn find(&self, key: &str, want: impl Fn(&Json) -> bool) -> &Json {
        let Json::Arr(items) = self else {
            panic!("a search of a non-array");
        };
        items.iter().find(|v| want(v.get(key))).expect(key)
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("{other:?} is not a number"),
        }
    }
}

/// The rows of the table that follows `marker` in `doc`, split into
/// trimmed cells, header and separator excluded.
fn marked_table(doc: &str, marker: &str) -> Vec<Vec<String>> {
    let mut lines = doc.lines().skip_while(|l| !l.starts_with(marker));
    assert!(lines.next().is_some(), "no `{marker}` line");
    lines
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

/// E25's headline numbers in EXPERIMENTS.md sit in a marked table; each
/// cell must be what `BENCH_e25.json` holds: counts exactly (a space
/// groups digits), ratios as a whole number within ½ of the record's.
#[test]
fn e25_quoted_table_matches_the_record() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).expect(f);
    let doc = read("EXPERIMENTS.md");
    let record = Json::parse(&read("BENCH_e25.json"));
    let rows = marked_table(&doc, "<!-- quoted from BENCH_e25.json;");
    assert!(!rows.is_empty(), "the marked E25 table has no rows");
    let count = |cell: &str| cell.replace(' ', "").parse::<f64>().expect(cell);
    for row in &rows {
        let [workload, n, delta, refresh, scratch, ratio] = &row[..] else {
            panic!("a six-cell row: {row:?}");
        };
        let tier = record
            .get("workloads")
            .find("workload", |w| matches!(w, Json::Str(s) if s == workload))
            .get("tiers")
            .find("n", |v| v.num() == count(n));
        let field = |name: &str| tier.get(&format!("{delta}_{name}")).num();
        assert_eq!(count(refresh), field("refresh_ops"), "{row:?}");
        assert_eq!(count(scratch), field("scratch_ops"), "{row:?}");
        let quoted = count(ratio.strip_suffix('×').expect("a ratio ends in ×"));
        assert!((quoted - field("ratio")).abs() <= 0.5, "{row:?}");
    }
}
