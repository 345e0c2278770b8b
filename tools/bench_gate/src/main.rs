//! `bench-gate`: the CI regression gate over the committed `BENCH_*.json`
//! perf reports at the repository root.
//!
//! Every perf-bearing bench group writes a small machine-readable report
//! (`BENCH_topk.json`, `BENCH_incremental.json`, …) whose real-run numbers
//! are committed.  This binary parses each report and fails (exit code 1)
//! when a structural invariant or a speedup floor regresses:
//!
//! * every report must be a real measurement (`"smoke": false`) — smoke runs
//!   write under `target/` and must never be committed;
//! * `BENCH_topk.json`: `delta_vs_full_speedup ≥ 3` (the checkpointed-chase
//!   floor established in PR 3);
//! * `BENCH_incremental.json`: `incremental_vs_full_speedup ≥ 3` on a
//!   ≤10%-dirty update batch (`max_dirty_fraction ≤ 0.10`);
//! * `BENCH_resolve.json`: `resolve_speedup ≥ 3` with `pruned_fraction ≥ 0.5`
//!   (the fingerprint cascade on the adversarial large-block shape, PR 6) —
//!   the cascade must actually retire most candidate pairs, not just win on
//!   timing noise;
//! * `BENCH_serve.json`: `read_vs_snapshot_speedup ≥ 10` over at least one
//!   real read (`reads ≥ 1`, `batches ≥ 1`, `entities ≥ 1`) — the
//!   epoch-pinned point read must beat the snapshot-per-read baseline by an
//!   order of magnitude on the mixed Med stream (PR 7);
//! * `BENCH_net.json`: `mismatches ≤ 0` over at least one paired read
//!   (`reads ≥ 1`, `batches ≥ 1`, `entities ≥ 1`) plus
//!   `tcp_reads_per_sec ≥ 100` (PR 9) — every point read served over
//!   loopback TCP must be bit-identical to its in-process twin, and the
//!   deliberately generous absolute throughput floor catches a transport
//!   wedged on socket timeouts without ever judging machine speed;
//! * every gated number must be present, finite and non-negative.
//!
//! Usage: `bench-gate [--root <dir>]` (the root defaults to the workspace
//! root this binary was built from).  Unknown `BENCH_*.json` files are only
//! smoke-checked, so new benches are gated on cleanliness by default and get
//! rows in the `GATES` table once their first real numbers are committed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A minimal scanner for the flat JSON objects the benches emit: string,
/// number and boolean values under string keys (no nesting, no arrays —
/// enough for `BENCH_*.json`, with no external dependencies).
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Number(f64),
    Bool(bool),
    Text(String),
}

#[derive(Debug, Default)]
struct FlatJson {
    fields: Vec<(String, JsonValue)>,
}

impl FlatJson {
    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn number(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn boolean(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a flat JSON object.  Returns an error message on malformed input;
/// nested objects/arrays are rejected (the bench reports never emit them).
fn parse_flat_json(text: &str) -> Result<FlatJson, String> {
    let mut out = FlatJson::default();
    let mut chars = text.chars().peekable();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
    };
    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
        if chars.next() != Some('"') {
            return Err("expected '\"'".into());
        }
        let mut s = String::new();
        for c in chars.by_ref() {
            match c {
                '"' => return Ok(s),
                '\\' => return Err("escape sequences are not supported".into()),
                other => s.push(other),
            }
        }
        Err("unterminated string".into())
    }

    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected a key or '}}', found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Text(parse_string(&mut chars)?),
            Some('t' | 'f') => {
                let mut word = String::new();
                while matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                    word.push(chars.next().expect("peeked"));
                }
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    other => return Err(format!("unexpected literal {other:?}")),
                }
            }
            Some(c) if c.is_ascii_digit() || *c == '-' || *c == '+' => {
                let mut raw = String::new();
                while matches!(
                    chars.peek(),
                    Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                ) {
                    raw.push(chars.next().expect("peeked"));
                }
                JsonValue::Number(
                    raw.parse::<f64>()
                        .map_err(|e| format!("bad number {raw:?}: {e}"))?,
                )
            }
            other => return Err(format!("unsupported value start {other:?} for key {key:?}")),
        };
        out.fields.push((key, value));
        skip_ws(&mut chars);
        match chars.peek() {
            Some(',') => {
                chars.next();
            }
            Some('}') => {}
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    Ok(out)
}

/// The bound one gated field must satisfy.
#[derive(Clone, Copy)]
enum Bound {
    /// A floor: `field ≥ x`.
    AtLeast(f64),
    /// A ceiling: `field ≤ x`.
    AtMost(f64),
}

use Bound::{AtLeast, AtMost};

/// Every gate, one `(report file, field, bound)` row each.  Reports with no
/// row get only the shared checks.
const GATES: &[(&str, &str, Bound)] = &[
    ("BENCH_topk.json", "delta_vs_full_speedup", AtLeast(3.0)),
    (
        "BENCH_incremental.json",
        "incremental_vs_full_speedup",
        AtLeast(3.0),
    ),
    ("BENCH_incremental.json", "entities", AtLeast(1.0)),
    ("BENCH_incremental.json", "batches", AtLeast(1.0)),
    ("BENCH_incremental.json", "max_dirty_fraction", AtMost(0.10)),
    ("BENCH_resolve.json", "resolve_speedup", AtLeast(3.0)),
    ("BENCH_resolve.json", "pruned_fraction", AtLeast(0.5)),
    ("BENCH_resolve.json", "pairs", AtLeast(1.0)),
    ("BENCH_resolve.json", "pruned_fraction", AtMost(1.0)),
    (
        "BENCH_serve.json",
        "read_vs_snapshot_speedup",
        AtLeast(10.0),
    ),
    ("BENCH_serve.json", "entities", AtLeast(1.0)),
    ("BENCH_serve.json", "batches", AtLeast(1.0)),
    ("BENCH_serve.json", "reads", AtLeast(1.0)),
    // a deliberately generous absolute floor: loopback TCP point reads run
    // ~10k/s on any hardware, so tripping 100/s means a transport bug (a
    // lost flush waiting out a socket timeout), not a slow machine
    ("BENCH_net.json", "tcp_reads_per_sec", AtLeast(100.0)),
    ("BENCH_net.json", "entities", AtLeast(1.0)),
    ("BENCH_net.json", "batches", AtLeast(1.0)),
    ("BENCH_net.json", "reads", AtLeast(1.0)),
    // every TCP answer must be bit-identical to its in-process twin
    ("BENCH_net.json", "mismatches", AtMost(0.0)),
];

/// Check one report; returns the violations found.
fn check_report(file_name: &str, text: &str) -> Vec<String> {
    let report = match parse_flat_json(text) {
        Ok(report) => report,
        Err(e) => return vec![format!("{file_name}: malformed JSON: {e}")],
    };
    let mut violations = Vec::new();
    // shared structural invariants
    match report.boolean("smoke") {
        Some(false) => {}
        Some(true) => violations.push(format!(
            "{file_name}: committed report is a smoke run (\"smoke\": true) — \
             smoke runs must write under target/, never the repo root"
        )),
        None => violations.push(format!(
            "{file_name}: missing the \"smoke\": false marker of a real run"
        )),
    }
    for (key, value) in &report.fields {
        if let JsonValue::Number(n) = value {
            if !n.is_finite() || *n < 0.0 {
                violations.push(format!(
                    "{file_name}: field {key:?} is not a finite non-negative number ({n})"
                ));
            }
        }
    }
    for &(_, field, bound) in GATES.iter().filter(|(file, ..)| *file == file_name) {
        let Some(n) = report.number(field) else {
            violations.push(format!(
                "{file_name}: gated field {field:?} is missing or non-numeric"
            ));
            continue;
        };
        match bound {
            AtLeast(minimum) if n < minimum => violations.push(format!(
                "{file_name}: {field} regressed below its floor: {n} < {minimum}"
            )),
            AtMost(maximum) if n > maximum => violations.push(format!(
                "{file_name}: {field} exceeds its ceiling: {n} > {maximum}"
            )),
            _ => {}
        }
    }
    violations
}

/// Gate every `BENCH_*.json` directly under `root`.
fn run(root: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(root)
        .map_err(|e| format!("cannot read {}: {e}", root.display()))?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| {
            path.is_file()
                && path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json reports found under {} — the gate would pass vacuously",
            root.display()
        ));
    }
    let mut violations = Vec::new();
    for path in names {
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("filtered on the file name")
            .to_string();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let found = check_report(&file_name, &text);
        if found.is_empty() {
            println!("bench-gate: {file_name} ok");
        }
        violations.extend(found);
    }
    Ok(violations)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("bench-gate: --root needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("bench-gate: unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    match run(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("bench-gate: all committed bench reports clear their gates");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("bench-gate: FAIL {v}");
            }
            eprintln!("bench-gate: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_TOPK: &str = r#"{
  "bench": "topk_check",
  "corpus": "rest",
  "delta_vs_full_speedup": 9.81,
  "smoke": false
}"#;

    const GOOD_INCREMENTAL: &str = r#"{
  "bench": "incremental",
  "entities": 540,
  "batches": 24,
  "max_dirty_fraction": 0.031,
  "incremental_vs_full_speedup": 11.5,
  "smoke": false
}"#;

    const GOOD_RESOLVE: &str = r#"{
  "bench": "resolve",
  "corpus": "large_blocks",
  "rows": 576,
  "pairs": 13536,
  "pruned_fraction": 0.71,
  "resolve_speedup": 4.2,
  "smoke": false
}"#;

    const GOOD_SERVE: &str = r#"{
  "bench": "serve",
  "corpus": "med-mixed",
  "entities": 2158,
  "batches": 8,
  "reads": 64,
  "point_read_ms_median": 0.267,
  "snapshot_read_ms_median": 31.873,
  "read_vs_snapshot_speedup": 119.38,
  "smoke": false
}"#;

    const GOOD_NET: &str = r#"{
  "bench": "net",
  "corpus": "med-mixed",
  "entities": 2158,
  "batches": 8,
  "reads": 64,
  "tcp_read_ms_median": 0.0628,
  "inproc_read_ms_median": 0.0265,
  "tcp_reads_per_sec": 12121,
  "mismatches": 0,
  "smoke": false
}"#;

    #[test]
    fn parses_flat_reports() {
        let report = parse_flat_json(GOOD_INCREMENTAL).unwrap();
        assert_eq!(report.number("entities"), Some(540.0));
        assert_eq!(report.boolean("smoke"), Some(false));
        assert_eq!(
            report.get("bench"),
            Some(&JsonValue::Text("incremental".into()))
        );
        assert!(parse_flat_json("{").is_err());
        assert!(parse_flat_json(r#"{"a": [1]}"#).is_err());
    }

    #[test]
    fn clean_reports_pass() {
        assert!(check_report("BENCH_topk.json", GOOD_TOPK).is_empty());
        assert!(check_report("BENCH_incremental.json", GOOD_INCREMENTAL).is_empty());
        assert!(check_report("BENCH_resolve.json", GOOD_RESOLVE).is_empty());
        assert!(check_report("BENCH_serve.json", GOOD_SERVE).is_empty());
        assert!(check_report("BENCH_net.json", GOOD_NET).is_empty());
        // unknown reports only need the shared invariants
        assert!(check_report("BENCH_new.json", r#"{"x": 1, "smoke": false}"#).is_empty());
    }

    #[test]
    fn resolve_gates_are_enforced() {
        // speedup floor: a 2.4x cascade regresses below the required 3x
        let regressed = GOOD_RESOLVE.replace("4.2", "2.4");
        let violations = check_report("BENCH_resolve.json", &regressed);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("resolve_speedup"));
        // prune floor: a cascade that stops pruning cannot hide behind noise
        let toothless = GOOD_RESOLVE.replace("0.71", "0.22");
        assert!(check_report("BENCH_resolve.json", &toothless)
            .iter()
            .any(|v| v.contains("pruned_fraction")));
        // prune ceiling: a fraction above 1 means the stats are corrupt
        let corrupt = GOOD_RESOLVE.replace("0.71", "1.31");
        assert!(check_report("BENCH_resolve.json", &corrupt)
            .iter()
            .any(|v| v.contains("pruned_fraction")));
        // the gated fields must be present
        let missing = GOOD_RESOLVE.replace("resolve_speedup", "other");
        assert!(!check_report("BENCH_resolve.json", &missing).is_empty());
        // smoke-marked resolve reports are rejected like every other report
        let smoked = GOOD_RESOLVE.replace("\"smoke\": false", "\"smoke\": true");
        assert!(check_report("BENCH_resolve.json", &smoked)
            .iter()
            .any(|v| v.contains("smoke run")));
    }

    #[test]
    fn serve_gates_are_enforced() {
        // speedup floor: a 6x serving layer regresses below the required 10x
        let regressed = GOOD_SERVE.replace("119.38", "6.0");
        let violations = check_report("BENCH_serve.json", &regressed);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("read_vs_snapshot_speedup"));
        // a zero-read run proves nothing about read latency
        let unread = GOOD_SERVE.replace("\"reads\": 64", "\"reads\": 0");
        assert!(check_report("BENCH_serve.json", &unread)
            .iter()
            .any(|v| v.contains("reads")));
        // the gated field must be present
        let missing = GOOD_SERVE.replace("read_vs_snapshot_speedup", "other");
        assert!(!check_report("BENCH_serve.json", &missing).is_empty());
        // smoke-marked serve reports are rejected like every other report
        let smoked = GOOD_SERVE.replace("\"smoke\": false", "\"smoke\": true");
        assert!(check_report("BENCH_serve.json", &smoked)
            .iter()
            .any(|v| v.contains("smoke run")));
    }

    #[test]
    fn net_gates_are_enforced() {
        // a single wire/in-process divergence fails the run: the transport's
        // whole claim is bit-identical answers
        let diverged = GOOD_NET.replace("\"mismatches\": 0", "\"mismatches\": 1");
        let violations = check_report("BENCH_net.json", &diverged);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("mismatches"));
        // the throughput floor catches a transport wedged on timeouts
        let wedged = GOOD_NET.replace("12121", "3");
        assert!(check_report("BENCH_net.json", &wedged)
            .iter()
            .any(|v| v.contains("tcp_reads_per_sec")));
        // a zero-read run proves nothing
        let unread = GOOD_NET.replace("\"reads\": 64", "\"reads\": 0");
        assert!(check_report("BENCH_net.json", &unread)
            .iter()
            .any(|v| v.contains("reads")));
        // the gated fields must be present
        let missing = GOOD_NET.replace("mismatches", "other");
        assert!(!check_report("BENCH_net.json", &missing).is_empty());
        // smoke-marked net reports are rejected like every other report
        let smoked = GOOD_NET.replace("\"smoke\": false", "\"smoke\": true");
        assert!(check_report("BENCH_net.json", &smoked)
            .iter()
            .any(|v| v.contains("smoke run")));
    }

    #[test]
    fn smoke_marked_reports_fail() {
        let smoked = GOOD_TOPK.replace("\"smoke\": false", "\"smoke\": true");
        let violations = check_report("BENCH_topk.json", &smoked);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("smoke run"));
        // and so does a missing marker
        let missing = GOOD_TOPK.replace("  \"smoke\": false\n", "  \"x\": 1\n");
        assert!(!check_report("BENCH_topk.json", &missing).is_empty());
    }

    #[test]
    fn speedup_floors_are_enforced() {
        let regressed = GOOD_TOPK.replace("9.81", "2.99");
        let violations = check_report("BENCH_topk.json", &regressed);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("delta_vs_full_speedup"));

        let regressed = GOOD_INCREMENTAL.replace("11.5", "1.2");
        let violations = check_report("BENCH_incremental.json", &regressed);
        assert!(violations
            .iter()
            .any(|v| v.contains("incremental_vs_full_speedup")));

        let missing = GOOD_INCREMENTAL.replace("incremental_vs_full_speedup", "other");
        assert!(!check_report("BENCH_incremental.json", &missing).is_empty());
    }

    #[test]
    fn dirty_fraction_ceiling_is_enforced() {
        let too_dirty = GOOD_INCREMENTAL.replace("0.031", "0.4");
        let violations = check_report("BENCH_incremental.json", &too_dirty);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("max_dirty_fraction"));
    }

    #[test]
    fn structural_invariants_catch_bad_numbers() {
        let negative = GOOD_INCREMENTAL.replace("540", "-1");
        assert!(!check_report("BENCH_incremental.json", &negative).is_empty());
    }

    #[test]
    fn run_gates_a_directory_and_rejects_an_empty_one() {
        let dir = std::env::temp_dir().join(format!("bench_gate_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(run(&dir).is_err(), "no reports must not pass vacuously");
        std::fs::write(dir.join("BENCH_topk.json"), GOOD_TOPK).unwrap();
        std::fs::write(dir.join("BENCH_incremental.json"), GOOD_INCREMENTAL).unwrap();
        assert!(run(&dir).unwrap().is_empty());
        std::fs::write(
            dir.join("BENCH_incremental.json"),
            GOOD_INCREMENTAL.replace("11.5", "0.5"),
        )
        .unwrap();
        assert_eq!(run(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
