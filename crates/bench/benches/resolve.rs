//! `resolve`: pairwise-resolution cost with the exact fingerprint cascade
//! vs. the uncascaded baseline, on the shapes where resolution dominates.
//!
//! The cascade claim: most candidate pairs inside a hot block are *provably*
//! below the match threshold from cheap per-record fingerprints (length and
//! token counts, then packed char/bigram/token popcounts), so they never
//! reach the alignment stage — and because the bounds dominate the true
//! similarity, the clustering is bit-identical to the baseline's (the run
//! asserts this before timing anything).
//!
//! Two corpora:
//!
//! * `large_blocks` (the adversarial shape from `relacc_datagen::adversarial`):
//!   a few hot blocking keys shared by many long-string rows, a quarter
//!   near-duplicates, the rest unrelated payloads of the same shape (the
//!   dirty-corpus regime: most hot-block pairs are true non-matches).  This
//!   is the gated number — `resolve_speedup` is the uncascaded / cascaded
//!   median over full `resolve_relation` runs, and `pruned_fraction` is the
//!   share of candidate pairs the cascade retired before alignment.
//! * `Rest` (the multi-source restaurant stream): the paper-shaped workload,
//!   reported but not floored — its small blocks leave less to prune, which
//!   is exactly the regime the report should document.
//!
//! Both sides of the comparison share the same Myers/DP alignment kernel, so
//! `resolve_speedup` isolates what the cascade prunes, not the bit-parallel
//! Levenshtein win (which benefits baseline and cascade alike).  The
//! cascade side also decides pairs with identical match values without the
//! kernel (stage 0); neither corpus has many (2 of `large_blocks`' 13,536
//! pairs, 1.0% of Rest's prefix-blocked pairs), unlike the exact-key blocks
//! the engine resolves, where every pair is.
//!
//! The run writes the machine-readable `BENCH_resolve.json` at the workspace
//! root (smoke runs write under `target/`), gated by `tools/bench_gate`
//! (`resolve_speedup ≥ 3`, `pruned_fraction ≥ 0.5`).  A criterion group then
//! reports the full `BatchEngine::repair_relation` pipeline over the Rest
//! corpus at 1 and 4 repair threads, cascade on — placing the resolution win
//! inside the end-to-end repair cost it actually amortizes.

use criterion::Criterion;
use relacc_bench::{median, smoke_mode as smoke, write_report};
use relacc_datagen::adversarial::{large_blocks, LargeBlocksConfig};
use relacc_datagen::streaming::{rest_stream, StreamConfig, UpdateStream};
use relacc_engine::BatchEngine;
use relacc_resolve::{resolve_relation, ResolveConfig};
use relacc_store::Relation;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `resolve_relation(relation, config)` in milliseconds.
fn time_resolve(relation: &Relation, config: &ResolveConfig, repeats: usize) -> f64 {
    let mut ms: Vec<f64> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let start = Instant::now();
        black_box(resolve_relation(relation, config));
        ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&mut ms)
}

fn rest() -> UpdateStream {
    // 0.02 scale ≈ 7.6k listing rows; under the default 6-char-prefix
    // blocking every `restaurant…` name lands in ONE hot block (~29M
    // candidate pairs), which is exactly the regime worth reporting — and
    // about as much O(block²) work as a single-core run should pay per
    // measurement.
    let scale = if smoke() { 0.002 } else { 0.02 };
    rest_stream(scale, 9, &StreamConfig::default())
}

/// Time both corpora, write `BENCH_resolve.json`, and return the Rest stream
/// for the criterion repair group.
fn resolve_report() -> UpdateStream {
    let repeats = if smoke() { 1 } else { 7 };

    // --- large_blocks: the gated adversarial shape ---
    let data = large_blocks(&if smoke() {
        LargeBlocksConfig::tiny(7)
    } else {
        LargeBlocksConfig {
            near_dup_rate: 0.25,
            ..LargeBlocksConfig::default()
        }
    });
    let cascade_config =
        ResolveConfig::on_attrs(data.match_attrs.clone()).with_threshold(data.threshold);
    let baseline_config = cascade_config.clone().without_cascade();

    // the cascade must be telling the baseline's story before it is timed
    let resolved = resolve_relation(&data.relation, &cascade_config);
    let baseline = resolve_relation(&data.relation, &baseline_config);
    assert_eq!(
        resolved.members, baseline.members,
        "cascade and baseline disagree on the clustering"
    );
    let stats = resolved.stats;
    let pruned_fraction = stats.pruned_fraction();

    let cascade_ms = time_resolve(&data.relation, &cascade_config, repeats);
    let baseline_ms = time_resolve(&data.relation, &baseline_config, repeats);
    let speedup = if cascade_ms > 0.0 {
        baseline_ms / cascade_ms
    } else {
        0.0
    };

    let rows = data.relation.len();
    let pairs = stats.pairs_considered;
    println!(
        "resolve/large_blocks: {rows} rows, {pairs} pairs, {:.1}% pruned — \
         cascade {cascade_ms:.3} ms, baseline {baseline_ms:.3} ms ({speedup:.1}x)",
        pruned_fraction * 100.0
    );

    // --- Rest: the paper-shaped workload, reported not gated ---
    let stream = rest();
    let rest_repeats = if smoke() { 1 } else { 3 };
    let rest_cascade = ResolveConfig::on_attrs(stream.match_attrs.clone());
    let rest_baseline = rest_cascade.clone().without_cascade();
    let rest_stats = resolve_relation(&stream.relation, &rest_cascade).stats;
    let rest_cascade_ms = time_resolve(&stream.relation, &rest_cascade, rest_repeats);
    let rest_baseline_ms = time_resolve(&stream.relation, &rest_baseline, rest_repeats);
    let rest_speedup = if rest_cascade_ms > 0.0 {
        rest_baseline_ms / rest_cascade_ms
    } else {
        0.0
    };
    println!(
        "resolve/rest: {} rows, {} pairs, {:.1}% pruned — \
         cascade {rest_cascade_ms:.3} ms, baseline {rest_baseline_ms:.3} ms ({rest_speedup:.1}x)",
        stream.relation.len(),
        rest_stats.pairs_considered,
        rest_stats.pruned_fraction() * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"resolve\",\n  \"corpus\": \"large_blocks\",\n  \
         \"rows\": {rows},\n  \"pairs\": {pairs},\n  \
         \"pruned_fraction\": {pruned_fraction:.3},\n  \"dp_runs\": {},\n  \
         \"cascade_ms_median\": {cascade_ms:.3},\n  \
         \"baseline_ms_median\": {baseline_ms:.3},\n  \
         \"resolve_speedup\": {speedup:.2},\n  \
         \"rest_pairs\": {},\n  \"rest_pruned_fraction\": {:.3},\n  \
         \"rest_cascade_ms_median\": {rest_cascade_ms:.3},\n  \
         \"rest_baseline_ms_median\": {rest_baseline_ms:.3},\n  \
         \"rest_speedup\": {rest_speedup:.2},\n  \"smoke\": {}\n}}\n",
        stats.dp_runs,
        rest_stats.pairs_considered,
        rest_stats.pruned_fraction(),
        smoke(),
    );
    write_report("resolve", "BENCH_resolve.json", &json);
    stream
}

/// Group output: the full repair pipeline (resolution included) over the
/// Rest corpus at 1 and 4 repair threads, cascade on — resolution cost in
/// its end-to-end context.
fn bench_repair(c: &mut Criterion, stream: &UpdateStream) {
    let resolve = ResolveConfig::on_attrs(stream.match_attrs.clone());
    let mut group = c.benchmark_group("resolve/rest-repair");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let engine = BatchEngine::new(
            stream.relation.schema().clone(),
            stream.rules.clone(),
            stream.master.clone().into_iter().collect(),
        )
        .expect("stream rules validate")
        .with_threads(threads);
        group.bench_function(format!("repair_{threads}_threads"), |b| {
            b.iter(|| black_box(engine.repair_relation(&stream.relation, &resolve)))
        });
    }
    group.finish();
}

fn main() {
    let stream = resolve_report();
    let mut criterion = Criterion::default();
    bench_repair(&mut criterion, &stream);
}
