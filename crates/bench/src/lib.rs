//! # relacc-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 7), plus the Criterion benchmarks for the timing
//! figures.  The `experiments` binary prints one block per experiment
//! (Exp-1 .. Exp-5); `EXPERIMENTS.md` at the workspace root records a run and
//! compares it against the numbers reported in the paper.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::{ExperimentConfig, Report};

use std::path::PathBuf;

/// Where a bench group writes its machine-readable `BENCH_*.json` report.
///
/// Real runs write at the workspace root, where the measurements are
/// **committed** and gated by `tools/bench_gate`.  Smoke runs
/// (`RELACC_BENCH_SMOKE=1`, the CI mode that executes every bench for one
/// iteration) write under `target/` instead: their one-iteration timings are
/// junk and must never clobber the committed numbers — CI enforces this with
/// a clean-tree check after the smoke run.
pub fn bench_output_path(smoke: bool, file_name: &str) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if smoke {
        root.join("target").join(file_name)
    } else {
        root.join(file_name)
    }
}

/// True when the current process runs in CI bench-smoke mode.
pub fn smoke_mode() -> bool {
    std::env::var_os("RELACC_BENCH_SMOKE").is_some()
}

/// Write a bench's JSON report to [`bench_output_path`] (under `target/` in
/// smoke mode) and print where it went, prefixed with the bench's name.
pub fn write_report(bench: &str, file_name: &str, json: &str) {
    let path = bench_output_path(smoke_mode(), file_name);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("{bench}: wrote {}", path.display()),
        Err(err) => eprintln!("{bench}: could not write {}: {err}", path.display()),
    }
}

/// The median of timing samples (the upper middle one of an even count, 0
/// of none); sorts `samples` in place.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    if samples.is_empty() {
        return 0.0;
    }
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Guard for the smoke-clobber bugfix: a smoke run must never produce a
    /// path that dirties the committed tree.
    #[test]
    fn smoke_reports_land_under_target_not_the_repo_root() {
        let smoke = bench_output_path(true, "BENCH_x.json");
        let real = bench_output_path(false, "BENCH_x.json");
        assert_ne!(smoke, real);
        assert!(
            smoke.components().any(|c| c.as_os_str() == "target"),
            "smoke path {} must be under target/",
            smoke.display()
        );
        assert!(
            !real.components().any(|c| c.as_os_str() == "target"),
            "real path {} must be at the repo root",
            real.display()
        );
        assert_eq!(real.file_name().unwrap(), "BENCH_x.json");
        // both resolve inside the workspace
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert!(smoke.starts_with(&root));
        assert!(real.starts_with(&root));
    }
}
