//! `incremental`: streaming update batches vs full re-repair.
//!
//! The incremental engine's claim is that a small update batch should cost a
//! small fraction of re-repairing the whole corpus.  This bench replays a
//! `Med`-shaped update stream (insert/delete/master-append mix,
//! `relacc_datagen::streaming`) two ways per batch: through
//! [`IncrementalEngine::apply`] + [`IncrementalEngine::snapshot`] (dirty
//! blocks only, snapshot reassembled from the block cache), and through a
//! from-scratch [`BatchEngine::repair_relation`] over the same relation state
//! under the same evolved plan.
//!
//! Besides the group output, the run writes the machine-readable
//! `BENCH_incremental.json` (median ms per batch both ways, the
//! incremental-vs-full speedup, the dirty fractions of the measured batches)
//! at the workspace root; smoke runs (`RELACC_BENCH_SMOKE=1`) write under
//! `target/` so CI can never clobber the committed measurements.  The
//! committed numbers are gated by `tools/bench_gate`
//! (`incremental_vs_full_speedup ≥ 3`).

use criterion::{criterion_group, Criterion};
use relacc_bench::{median, smoke_mode as smoke, write_report};
use relacc_datagen::streaming::{med_stream, StreamConfig, StreamOp, UpdateStream};
use relacc_engine::{BatchEngine, IncrementalEngine};
use relacc_resolve::{BlockingStrategy, ResolveConfig};
use std::hint::black_box;
use std::time::Instant;

fn stream() -> UpdateStream {
    let scale = if smoke() { 0.01 } else { 0.05 };
    let config = StreamConfig {
        n_batches: if smoke() { 2 } else { 10 },
        inserts_per_batch: 4,
        deletes_per_batch: 2,
        master_appends_per_batch: 2,
        fresh_entity_rate: 0.25,
        seed: 77,
        ..StreamConfig::default()
    };
    med_stream(scale, 7, &config)
}

fn resolve_config(stream: &UpdateStream) -> ResolveConfig {
    ResolveConfig::on_attrs(stream.match_attrs.clone()).with_strategy(BlockingStrategy::ExactKey)
}

fn open_engine(stream: &UpdateStream, threads: usize) -> IncrementalEngine {
    let engine = BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        stream.master.clone().into_iter().collect(),
    )
    .expect("stream rules validate")
    .with_threads(threads);
    IncrementalEngine::open(
        engine,
        stream.name.clone(),
        &stream.relation,
        resolve_config(stream),
    )
}

/// Group output: one update batch through the incremental path vs a full
/// re-repair of the same corpus state (both single-threaded, so the numbers
/// compare algorithmic work, not scheduling).
fn bench_batch(c: &mut Criterion) {
    let stream = stream();
    let resolve = resolve_config(&stream);
    let incremental = open_engine(&stream, 1);
    let relation = incremental.relation().snapshot();
    let mut group = c.benchmark_group("incremental/med");
    group.sample_size(if smoke() { 1 } else { 10 });
    group.bench_function("snapshot_assembly", |b| {
        b.iter(|| black_box(incremental.snapshot()))
    });
    group.bench_function("full_rerepair", |b| {
        b.iter(|| black_box(incremental.engine().repair_relation(&relation, &resolve)))
    });
    group.finish();
}

criterion_group!(benches, bench_batch);

fn incremental_report() {
    let stream = stream();
    let resolve = resolve_config(&stream);
    let mut engine = open_engine(&stream, 1);
    let seed_entities = engine.snapshot().report.entities.len();

    let mut incremental_ms: Vec<f64> = Vec::new();
    let mut full_ms: Vec<f64> = Vec::new();
    let mut dirty_fractions: Vec<f64> = Vec::new();
    for op in &stream.ops {
        let start = Instant::now();
        let outcome = match op {
            StreamOp::Rows(batch) => engine.apply(batch).expect("scripted batches stay valid"),
            StreamOp::MasterAppend(rows) => engine
                .apply_master_append(0, rows.clone())
                .expect("scripted appends stay valid"),
        };
        let snapshot = engine.snapshot();
        incremental_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let total = outcome.entities_rerepaired + outcome.entities_reused;
        dirty_fractions.push(outcome.entities_rerepaired as f64 / total.max(1) as f64);

        let relation = engine.relation().snapshot();
        let start = Instant::now();
        let full = engine.engine().repair_relation(&relation, &resolve);
        full_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            snapshot.report.entities.len(),
            full.report.entities.len(),
            "incremental and full disagree on the entity count"
        );
    }

    let stats = engine.stats().clone();
    let entities = engine.snapshot().report.entities.len();
    let batches = stream.ops.len();
    let inc_median = median(&mut incremental_ms);
    let full_median = median(&mut full_ms);
    let speedup = if inc_median > 0.0 {
        full_median / inc_median
    } else {
        0.0
    };
    let avg_dirty = dirty_fractions.iter().sum::<f64>() / dirty_fractions.len().max(1) as f64;
    let max_dirty = dirty_fractions.iter().cloned().fold(0.0f64, f64::max);

    println!(
        "incremental/med: {batches} updates over {seed_entities}->{entities} entities — \
         incremental {inc_median:.2} ms/batch, full {full_median:.2} ms/batch \
         ({speedup:.1}x), dirty fraction avg {avg_dirty:.3} max {max_dirty:.3}"
    );

    let json = format!(
        "{{\n  \"bench\": \"incremental\",\n  \"corpus\": \"med\",\n  \
         \"entities\": {entities},\n  \"batches\": {batches},\n  \
         \"avg_dirty_fraction\": {avg_dirty:.4},\n  \
         \"max_dirty_fraction\": {max_dirty:.4},\n  \
         \"incremental_ms_per_batch_median\": {inc_median:.3},\n  \
         \"full_ms_per_batch_median\": {full_median:.3},\n  \
         \"incremental_vs_full_speedup\": {speedup:.2},\n  \
         \"entities_rerepaired_total\": {},\n  \
         \"entities_reused_total\": {},\n  \
         \"smoke\": {}\n}}\n",
        stats.entities_rerepaired,
        stats.entities_reused,
        smoke(),
    );
    write_report("incremental", "BENCH_incremental.json", &json);
}

fn main() {
    benches();
    incremental_report();
}
