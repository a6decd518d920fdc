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
    /// `true`, `false` or `null`, kept as its text.
    Lit(String),
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
            c => {
                let mut s = String::from(c);
                while let Some(c) = chars.next_if(char::is_ascii_alphabetic) {
                    s.push(c);
                }
                Json::Lit(s)
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

    /// An object's field `key`, or an array's element at index `key`.
    fn get(&self, key: &str) -> &Json {
        match (self, key.parse::<usize>()) {
            (Json::Obj(fields), _) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            (Json::Arr(items), Ok(i)) => &items[i],
            _ => panic!("`{key}` of {self:?}"),
        }
    }

    /// The value at `path`: fields joined by `.` (outside brackets), each
    /// followed by any number of selectors — `[i]` picks an array's `i`th
    /// element, `[key=cell]` the first element whose `key` reads as
    /// `cell`, and `[k1=c1&k2=c2]` the first that matches both.
    fn at(&self, path: &str) -> &Json {
        let mut value = self;
        let mut depth = 0;
        let segments = path.split(|c| {
            depth += (c == '[') as i32 - (c == ']') as i32;
            c == '.' && depth == 0
        });
        for segment in segments.filter(|s| !s.is_empty()) {
            let (field, selectors) = segment.split_at(segment.find('[').unwrap_or(segment.len()));
            if !field.is_empty() {
                value = value.get(field);
            }
            for selector in selectors.split_terminator(']') {
                let selector = selector.strip_prefix('[').expect(path);
                let Json::Arr(items) = value else {
                    panic!("`{selector}` of a non-array in `{path}`");
                };
                value = match selector.parse::<usize>() {
                    Ok(i) => &items[i],
                    Err(_) => items
                        .iter()
                        .find(|item| {
                            selector.split('&').all(|cond| {
                                let (key, cell) = cond.split_once('=').expect(path);
                                item.get(key).reads_as(cell).is_ok()
                            })
                        })
                        .unwrap_or_else(|| panic!("no element matches `[{selector}]` in `{path}`")),
                };
            }
        }
        value
    }

    /// Does a document `cell` quote this value? A string or literal
    /// as its text; a number to the precision the cell gives it — within
    /// half a unit of its last digit — where a space groups digits and
    /// a trailing `×` marks a ratio.
    fn reads_as(&self, cell: &str) -> Result<(), String> {
        let quoted = match self {
            Json::Str(s) => s == cell,
            Json::Lit(s) => s == cell,
            Json::Num(x) => {
                let digits: String = cell
                    .trim_end_matches('×')
                    .chars()
                    .filter(|c| !c.is_whitespace())
                    .collect();
                let places = digits.split_once('.').map_or(0, |(_, f)| f.len());
                let half_unit = 0.5 * 10f64.powi(-(places as i32));
                digits
                    .parse::<f64>()
                    .is_ok_and(|q| (q - x).abs() <= half_unit * (1.0 + 1e-9))
            }
            other => panic!("{other:?} is not a quotable value"),
        };
        quoted.then_some(()).ok_or_else(|| format!("{self:?}"))
    }
}

/// The repository root, and a file in it read whole.
fn root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The documents whose tables quote committed records.
const QUOTING_DOCS: [&str; 2] = ["README.md", "EXPERIMENTS.md"];

/// Every cell of every table `doc` marks as quoted from `BENCH_<id>.json`
/// (all records when `id` is `None`), each compared with the record;
/// returns the number of cells compared.
///
/// A marked table follows a line
/// `<!-- quoted from BENCH_eNN.json; row: PATH; cells: C1, …, Ck -->`.
/// Each `Ci` is `-` (a label, not compared) or the path of column `i`'s
/// value below the row's `PATH` (`row:` may be left out: the record
/// itself). In both paths `{j}` stands for the row's `j`th cell, so a
/// row's labels select what its other cells quote; see [`Json::at`]
/// for the path syntax and [`Json::reads_as`] for what matches.
fn check_quoted_tables(doc_name: &str, id: Option<&str>) -> usize {
    const MARK: &str = "<!-- quoted from BENCH_";
    let doc = read(&root().join(doc_name));
    let mut lines = doc.lines().enumerate();
    let mut compared = 0;
    while let Some((at, line)) = lines.next() {
        let Some(spec) = line.strip_prefix(MARK) else {
            continue;
        };
        let (record, spec) = spec.split_once(".json;").expect(line);
        if id.is_some_and(|id| id != record) {
            continue;
        }
        let json = Json::parse(&read(&root().join(format!("BENCH_{record}.json"))));
        let spec = spec.trim().strip_suffix("-->").expect(line);
        let (mut row_path, mut cells) = ("", None);
        for part in spec.split(';').map(str::trim) {
            if let Some(p) = part.strip_prefix("row:") {
                row_path = p.trim();
            } else if let Some(c) = part.strip_prefix("cells:") {
                cells = Some(c.split(',').map(str::trim).collect::<Vec<_>>());
            }
        }
        let cells = cells.unwrap_or_else(|| panic!("{doc_name}:{}: no `cells:`", at + 1));
        let rows: Vec<Vec<String>> = lines
            .by_ref()
            .map(|(_, l)| l)
            .take_while(|l| l.starts_with('|'))
            .skip(2)
            .map(|l| {
                let cells = l.trim_matches('|').split('|');
                cells.map(|c| c.trim().replace('`', "")).collect()
            })
            .collect();
        assert!(
            !rows.is_empty(),
            "{doc_name}:{}: the marked table has no rows",
            at + 1
        );
        for row in &rows {
            let fill = |template: &str| {
                let mut path = template.to_string();
                for (j, cell) in row.iter().enumerate() {
                    path = path.replace(&format!("{{{}}}", j + 1), cell);
                }
                path
            };
            assert_eq!(row.len(), cells.len(), "{doc_name}:{}: {row:?}", at + 1);
            let base = json.at(&fill(row_path));
            for (cell, template) in row.iter().zip(&cells).filter(|(_, t)| **t != "-") {
                let path = fill(template);
                if let Err(held) = base.at(&path).reads_as(cell) {
                    panic!(
                        "{doc_name}:{}: `{cell}` quotes `{path}` of BENCH_{record}.json, \
                         which holds {held}; row {row:?}",
                        at + 1
                    );
                }
                compared += 1;
            }
        }
    }
    compared
}

/// (i) Every number README and the E-sections quote from a committed
/// record sits in a marked table, and every cell of those tables is
/// what the record holds: an edit to one number, or a record that moves
/// under a quote, fails here.
#[test]
fn quoted_numbers_match_their_records() {
    let compared: usize = QUOTING_DOCS
        .iter()
        .map(|d| check_quoted_tables(d, None))
        .sum();
    assert!(compared > 0, "no marked table quotes a record");
}

/// E25's headline table, the first marked one, on its own.
#[test]
fn e25_quoted_table_matches_the_record() {
    assert!(check_quoted_tables("EXPERIMENTS.md", Some("e25")) > 0);
}

/// Every `*.md` and `*.rs` file under the repository root (and every
/// file under `.claude/`), skipping build output and VCS metadata.
fn repo_files() -> Vec<std::path::PathBuf> {
    fn walk(dir: &std::path::Path, under_claude: bool, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir)
            .expect("a readable directory")
            .flatten()
        {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name != "target" && name != ".git" {
                    walk(&path, under_claude || name == ".claude", out);
                }
            } else if under_claude || name.ends_with(".md") || name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&root(), false, &mut out);
    out
}

/// DESIGN.md's headings, each as `(N, text)`: `N` is the number of the
/// `## N.` section a heading sits in, and the text is the heading's
/// after its `#`s (a `## N.` heading's own text drops the `N.`).
fn design_headings() -> Vec<(String, String)> {
    let mut section = String::new();
    let mut out = Vec::new();
    for line in read(&root().join("DESIGN.md")).lines() {
        let Some(text) = line.strip_prefix("##") else {
            continue;
        };
        let text = text.trim_start_matches('#').trim();
        if !line.starts_with("###") {
            let (n, rest) = text.split_once(". ").unwrap_or(("", text));
            section = n.to_string();
            out.push((section.clone(), rest.to_string()));
        } else {
            out.push((section.clone(), text.to_string()));
        }
    }
    out
}

/// The `DESIGN §N, "Heading"` citations in `text`, as `(N, Heading)`,
/// with any line break inside a heading read as a space. One that opens
/// a code span is a mention of the form, not a citation, and is skipped.
fn design_citations(text: &str) -> Vec<(String, String)> {
    const CITE: &str = "DESIGN §";
    let text = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut out = Vec::new();
    for (i, _) in text.match_indices(CITE) {
        if text[..i].ends_with('`') {
            continue;
        }
        let rest = &text[i + CITE.len()..];
        let n: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let Some(quoted) = rest[n.len()..].strip_prefix(", \"") else {
            continue;
        };
        let heading = quoted.split('"').next().expect("a closing quote");
        out.push((n, heading.to_string()));
    }
    out
}

/// (ii) Every `DESIGN §N, "Heading"` citation in the repository names a
/// heading DESIGN.md has, in section N.
#[test]
fn design_citations_name_existing_headings() {
    let headings = design_headings();
    let mut cited = 0;
    for path in repo_files() {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for (n, heading) in design_citations(&text) {
            assert!(
                headings.iter().any(|(s, h)| *s == n && *h == heading),
                "{}: DESIGN §{n}, \"{heading}\" is no heading of DESIGN.md",
                path.display()
            );
            cited += 1;
        }
    }
    assert!(cited > 0, "no citation was found to check");
}

#[test]
fn citations_read_across_lines_and_skip_code_spans() {
    assert_eq!(
        design_citations("see (DESIGN §4,\n\"Two\n words\"), DESIGN §4 alone, `DESIGN §4, \"X\"`"),
        [("4".to_string(), "Two words".to_string())]
    );
}

/// The test names DESIGN.md pins its sections with: every backticked
/// name in a paragraph that starts `Pinned by:`, up to its blank line,
/// with any `path::` prefix dropped.
fn pinned_tests() -> Vec<String> {
    let design = read(&root().join("DESIGN.md"));
    let mut out = Vec::new();
    for paragraph in design.split("\n\n") {
        let Some(list) = paragraph.trim_start().strip_prefix("Pinned by:") else {
            continue;
        };
        for name in list.split('`').skip(1).step_by(2) {
            out.push(name.rsplit("::").next().expect("a name").to_string());
        }
    }
    out
}

/// (iii) Every test a `Pinned by:` list names is a `fn` under `crates/`
/// or `tests/`, so renaming or deleting a pinning test fails here.
#[test]
fn pinned_tests_exist() {
    let pinned = pinned_tests();
    assert!(!pinned.is_empty(), "DESIGN.md pins nothing");
    let sources: Vec<String> = repo_files()
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .filter(|p| {
            let rel = p.strip_prefix(root()).expect("under the root");
            rel.starts_with("crates") || rel.starts_with("tests")
        })
        .map(|p| read(&p))
        .collect();
    let defined = |name: &str| {
        let decl = format!("fn {name}");
        sources.iter().any(|src| {
            src.match_indices(&decl).any(|(i, _)| {
                let next = src[i + decl.len()..].chars().next();
                next.is_some_and(|c| c == '(' || c == '<')
            })
        })
    };
    let missing: Vec<&String> = pinned.iter().filter(|n| !defined(n)).collect();
    assert!(missing.is_empty(), "pinned tests with no `fn`: {missing:?}");
}
