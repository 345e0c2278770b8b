//! The relacc benchmark: closed-loop Med and Rest ingest with a TCP change
//! feed, a Rest read mix, and a traced run that times the benchmark's calls
//! into each layer.  See `README.md` next to this crate for the workloads,
//! the metrics and how to read them.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload med-ingest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones).

mod check;
mod machine;
mod run;
mod stats;
mod trace;
mod workload;
mod yardstick;

use stats::{metric_table, result_line, Metric};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: relacc-e2e-bench --workload <med-ingest|rest-ingest|rest-serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<run::Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run::Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where runs leave their spans and end-to-end summaries.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The last untraced run's end-to-end values on this workload, if any.
fn untraced_values(workload: &str) -> Vec<(String, String)> {
    let path = out_dir().join(format!("e2e-{workload}.txt"));
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.to_string()))
        })
        .collect()
}

fn save_untraced(workload: &str, metrics: &[Metric]) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let body: String = metrics
        .iter()
        .map(|m| format!("{} {}\n", m.name, m.value))
        .collect();
    std::fs::write(dir.join(format!("e2e-{workload}.txt")), body)
}

fn main() -> ExitCode {
    machine::fixed_address_layout();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name;
    let report = match run::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{name} seed {} trace {}: {} rounds, timed phase {:.3} s, available parallelism {}",
        args.seed,
        u8::from(args.trace),
        report.rounds,
        report.measured_s,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "timed phase: {:.1}% of the machine's CPU time stolen by the host, writer waited {:.3} s for a CPU",
        report.steal_share * 100.0,
        report.writer_waited_s,
    );
    print!("{}", report.ops.table());
    for message in &report.ops.messages {
        println!("failure: {message}");
    }
    let mut shown = report.end_to_end.clone();
    shown.extend(report.extra.iter().cloned());
    let gated: &[Metric] = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };

    if args.trace {
        println!("end-to-end, traced run next to the last untraced run of {name}:");
        let untraced = untraced_values(name);
        for m in &shown {
            let before = untraced
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or("-".to_string(), |(_, v)| v.clone());
            println!(
                "  {:<28} {:>14.4} {:<5} untraced {before}",
                m.name, m.value, m.unit
            );
        }
        println!("per-layer:");
        let mut layers = report.per_layer.clone();
        layers.extend(report.per_layer_extra.iter().cloned());
        print!("{}", metric_table(&layers));
        let spans = out_dir().join(format!("spans-{name}-seed{}.tsv", args.seed));
        match report.tracer.write(&spans) {
            Ok(()) => println!("spans written to {}", spans.display()),
            Err(e) => eprintln!("cannot write {}: {e}", spans.display()),
        }
    } else {
        print!("{}", metric_table(&shown));
        if let Err(e) = save_untraced(name, &shown) {
            eprintln!("cannot save the end-to-end summary: {e}");
        }
    }

    // an end-to-end metric without enough samples fails the run rather than
    // reading as a silent zero; a layer the run never reached reads 0
    if let Some(m) = report.end_to_end.iter().find(|m| !m.value.is_finite()) {
        eprintln!("{name}: {} has too few samples ({})", m.name, m.samples);
        return ExitCode::FAILURE;
    }
    let correct = !report.ops.wrong_output;
    println!("{}", result_line(correct, &report.ops, gated));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: a correctness check failed");
        ExitCode::FAILURE
    }
}
