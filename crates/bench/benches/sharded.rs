//! `sharded`: per-batch apply cost of a [`ShardedEngine`] vs a single
//! [`IncrementalEngine`] on a hot-shard-skewed Med update stream.
//!
//! The sharded claim: a row batch only costs work **in the shards it
//! touches**.  A sharded engine routes the batch by blocking key and the
//! untouched shards do nothing at all.  A single engine's commit reads
//! only the dirty blocks' rows too, so what sharding can still save is the
//! per-batch bookkeeping that grows with an engine's size, such as the
//! block-map clone at publish.  The replayed stream uses the hot-shard
//! skew mix (`StreamConfig::with_hot_mix`), the concentrated-update regime
//! sharding is for — a heavy streaming workload hammering a hot entity
//! while the rest of the corpus idles (deletes offset inserts, so the hot
//! block stays seed-sized and the per-batch repair work is constant).
//!
//! Both engines run single-threaded, so `sharded_vs_single_speedup`
//! compares algorithmic work (how much of the corpus an update touches),
//! not scheduling luck — shard applies still being independent, the
//! speedup composes with the worker pool on multi-core hosts.
//!
//! The run replays the stream once through both engines (an apply consumes
//! its batch, so per-batch timings come from this single replay), writes
//! the machine-readable `BENCH_sharded.json` at the workspace root (smoke
//! runs write under `target/`), and then reports snapshot-assembly timings
//! as a criterion group over the final state.  The committed numbers are
//! gated by `tools/bench_gate` (`sharded_vs_single_speedup ≥ 2` at 4
//! shards).

use criterion::Criterion;
use relacc_bench::{bench_output_path, smoke_mode as smoke};
use relacc_datagen::streaming::{med_stream, StreamConfig, StreamOp, UpdateStream};
use relacc_engine::{BatchEngine, IncrementalEngine, ShardedEngine};
use relacc_resolve::{BlockingStrategy, ResolveConfig};
use std::hint::black_box;
use std::time::Instant;

const SHARDS: usize = 4;

fn stream() -> UpdateStream {
    let scale = if smoke() { 0.01 } else { 0.75 };
    let config = StreamConfig {
        n_batches: if smoke() { 2 } else { 12 },
        inserts_per_batch: 3,
        deletes_per_batch: 3,
        master_appends_per_batch: 0,
        fresh_entity_rate: 0.0,
        seed: 93,
        ..StreamConfig::default()
    }
    .with_hot_mix(1, 0.98);
    med_stream(scale, 11, &config)
}

fn resolve_config(stream: &UpdateStream) -> ResolveConfig {
    ResolveConfig::on_attrs(stream.match_attrs.clone()).with_strategy(BlockingStrategy::ExactKey)
}

fn batch_engine(stream: &UpdateStream) -> BatchEngine {
    BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        stream.master.clone().into_iter().collect(),
    )
    .expect("stream rules validate")
    .with_threads(1)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    if samples.is_empty() {
        return 0.0;
    }
    samples[samples.len() / 2]
}

/// Replay the stream through both engines, write `BENCH_sharded.json`, and
/// return the engines in their final state for the snapshot group.
fn sharded_report() -> (IncrementalEngine, ShardedEngine) {
    let stream = stream();
    let resolve = resolve_config(&stream);
    let mut single = IncrementalEngine::open(
        batch_engine(&stream),
        stream.name.clone(),
        &stream.relation,
        resolve.clone(),
    );
    let mut sharded = ShardedEngine::open(
        batch_engine(&stream),
        stream.name.clone(),
        &stream.relation,
        resolve,
        SHARDS,
    );

    let mut single_ms: Vec<f64> = Vec::new();
    let mut sharded_ms: Vec<f64> = Vec::new();
    for op in &stream.ops {
        let StreamOp::Rows(batch) = op else {
            continue;
        };
        let start = Instant::now();
        single.apply(batch).expect("scripted batches stay valid");
        single_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        sharded.apply(batch).expect("scripted batches stay valid");
        sharded_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    // the two engines must still be telling the same story
    let a = sharded.snapshot();
    let b = single.snapshot();
    assert_eq!(
        a.report.entities.len(),
        b.report.entities.len(),
        "sharded and single disagree on the entity count"
    );
    assert_eq!(
        a.repaired.rows(),
        b.repaired.rows(),
        "sharded and single disagree on the repaired rows"
    );

    let entities = a.report.entities.len();
    let batches = single_ms.len();
    let single_median = median(&mut single_ms);
    let sharded_median = median(&mut sharded_ms);
    let speedup = if sharded_median > 0.0 {
        single_median / sharded_median
    } else {
        0.0
    };

    println!(
        "sharded/med-hot: {batches} batches over {entities} entities at {SHARDS} shards — \
         sharded {sharded_median:.3} ms/batch, single {single_median:.3} ms/batch \
         ({speedup:.1}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"sharded\",\n  \"corpus\": \"med-hot\",\n  \
         \"shards\": {SHARDS},\n  \"entities\": {entities},\n  \
         \"batches\": {batches},\n  \
         \"sharded_ms_per_batch_median\": {sharded_median:.3},\n  \
         \"single_ms_per_batch_median\": {single_median:.3},\n  \
         \"sharded_vs_single_speedup\": {speedup:.2},\n  \
         \"smoke\": {}\n}}\n",
        smoke(),
    );
    let path = bench_output_path(smoke(), "BENCH_sharded.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("sharded: wrote {}", path.display()),
        Err(err) => eprintln!("sharded: could not write {}: {err}", path.display()),
    }
    (single, sharded)
}

/// Group output: snapshot assembly both ways over the post-stream state
/// (repeatable per iteration, unlike an apply, which consumes its batch).
fn bench_snapshot(c: &mut Criterion, single: &IncrementalEngine, sharded: &ShardedEngine) {
    let mut group = c.benchmark_group("sharded/med-hot");
    group.sample_size(10);
    group.bench_function("single_snapshot", |b| {
        b.iter(|| black_box(single.snapshot()))
    });
    group.bench_function("sharded_snapshot", |b| {
        b.iter(|| black_box(sharded.snapshot()))
    });
    group.finish();
}

fn main() {
    let (single, sharded) = sharded_report();
    let mut criterion = Criterion::default();
    bench_snapshot(&mut criterion, &single, &sharded);
}
