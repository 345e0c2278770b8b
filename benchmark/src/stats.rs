//! Percentiles, operation accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of `samples` (`q` in `0.0..=1.0`); `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The operation types every workload accounts for, in print order.
pub const OP_KINDS: [&str; 6] = ["commit", "append", "feed", "read", "delta", "check"];

/// Operations attempted and failed, by type.  A failed correctness check
/// counts as a failed operation of the type whose output it checked.
#[derive(Debug, Default)]
pub struct Ops {
    counts: BTreeMap<&'static str, (u64, u64)>,
    /// Feed batches the server computed by a full resync diff (exact, so
    /// not failures; counted because they show a lagging subscriber).
    pub resyncs: u64,
    /// True once any correctness check failed.
    pub wrong_output: bool,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Ops {
    /// One operation of `kind` that succeeded and whose output checked out.
    pub fn ok(&mut self, kind: &'static str) {
        self.counts.entry(kind).or_default().0 += 1;
    }

    /// One operation of `kind` that returned an error.
    pub fn errored(&mut self, kind: &'static str, message: String) {
        let entry = self.counts.entry(kind).or_default();
        entry.0 += 1;
        entry.1 += 1;
        self.note(kind, message);
    }

    /// One operation of `kind` whose output failed its correctness check.
    pub fn wrong(&mut self, kind: &'static str, message: String) {
        self.errored(kind, message);
        self.wrong_output = true;
    }

    /// Account one operation of `kind` by its check's verdict.
    pub fn checked(&mut self, kind: &'static str, verdict: Result<(), String>) {
        match verdict {
            Ok(()) => self.ok(kind),
            Err(message) => self.wrong(kind, message),
        }
    }

    fn note(&mut self, kind: &str, message: String) {
        if self.messages.len() < 8 {
            self.messages.push(format!("{kind}: {message}"));
        }
    }

    /// `(attempted, failed)` of one kind.
    pub fn of(&self, kind: &str) -> (u64, u64) {
        self.counts.get(kind).copied().unwrap_or_default()
    }

    /// `(attempted, failed)` over every kind.
    pub fn totals(&self) -> (u64, u64) {
        self.counts
            .values()
            .fold((0, 0), |(a, f), &(da, df)| (a + da, f + df))
    }

    /// The per-type table, one line per kind.
    pub fn table(&self) -> String {
        let mut out = String::from("operation   attempted     failed\n");
        for kind in OP_KINDS {
            let (attempted, failed) = self.of(kind);
            let _ = write!(out, "{kind:<10} {attempted:>10} {failed:>10}");
            if kind == "feed" {
                let _ = write!(out, "   (resync batches: {})", self.resyncs);
            }
            out.push('\n');
        }
        out
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was taken over.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// The last line of the benchmark's standard output.
pub fn result_line(correct: bool, ops: &Ops, metrics: &[Metric]) -> String {
    let (attempted, failed) = ops.totals();
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Metrics as an aligned table.
pub fn metric_table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "{:<32} {:>14} {:<6} {:>8}\n",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "{:<32} {:>14.4} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_checks_count_against_their_type() {
        let mut ops = Ops::default();
        ops.ok("read");
        ops.checked("read", Err("mismatch".into()));
        assert_eq!(ops.of("read"), (2, 1));
        assert!(ops.wrong_output);
        assert_eq!(ops.totals(), (2, 1));
    }
}
