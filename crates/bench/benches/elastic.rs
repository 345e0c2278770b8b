//! `elastic`: per-batch apply cost of an **elastic** [`ShardedEngine`]
//! (one spare shard split off at open, hot blocks chased onto it by
//! [`ShardedEngine::rebalance_hot`] after every batch) vs the same engine
//! left **static**, on a Med update stream whose hot block drifts.
//!
//! The elastic claim: sharding only pays off while the hot block is alone
//! on a small shard.  Under static hash routing a hot block lands on a
//! shard that owns ~1/N of the corpus, so every batch pays the per-batch
//! bookkeeping that grows with that shard, such as its block-map clone at
//! publish; the elastic engine migrates the block onto a near-empty spare
//! shard, cutting per-batch work to the block itself — and when the
//! workload's hot spot drifts (`StreamConfig::with_hot_drift`), it keeps
//! chasing.  Timed elastic batches **include** the
//! `rebalance_hot` call, so migration cost is charged to the policy that
//! caused it; the one-time `split_shard` is untimed provisioning.
//!
//! Mid-stream master appends replay through both engines untimed; the
//! report pins the one-shot grounding contract (`master_ground_count`: the
//! summed per-shard `master_groundings` divided by the number of appends
//! must be exactly 1 — shard 0 grounds, every sibling adopts).
//!
//! Both engines run single-threaded, so `elastic_vs_static_speedup`
//! compares algorithmic work, not scheduling luck.  The run writes the
//! machine-readable `BENCH_elastic.json` at the workspace root (smoke runs
//! write under `target/`) and then reports snapshot-assembly timings as a
//! criterion group over the final state.  The committed numbers are gated
//! by `tools/bench_gate` (`elastic_vs_static_speedup ≥ 1.5`,
//! `master_ground_count == 1`).

use criterion::Criterion;
use relacc_bench::{bench_output_path, smoke_mode as smoke};
use relacc_datagen::streaming::{med_stream, StreamConfig, StreamOp, UpdateStream};
use relacc_engine::{BatchEngine, ShardedEngine};
use relacc_resolve::{BlockingStrategy, ResolveConfig};
use std::hint::black_box;
use std::time::Instant;

const SHARDS: usize = 4;

fn stream() -> UpdateStream {
    let scale = if smoke() { 0.01 } else { 0.75 };
    // 2 drift windows of 12 batches: the heat streak costs a few slow
    // batches per window before the hot block is isolated, so the window
    // must be long enough for the isolated steady state to dominate the
    // median — and the mid-run drift forces the policy to re-chase
    let config = StreamConfig {
        n_batches: if smoke() { 2 } else { 24 },
        inserts_per_batch: 3,
        deletes_per_batch: 3,
        master_appends_per_batch: 1,
        fresh_entity_rate: 0.0,
        seed: 97,
        ..StreamConfig::default()
    }
    .with_hot_mix(1, 0.98)
    .with_hot_drift(12);
    med_stream(scale, 13, &config)
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

/// Replay the stream through a static and an elastic sharded engine, write
/// `BENCH_elastic.json`, and return the engines for the snapshot group.
fn elastic_report() -> (ShardedEngine, ShardedEngine) {
    let stream = stream();
    let resolve = resolve_config(&stream);
    let mut fixed = ShardedEngine::open(
        batch_engine(&stream),
        stream.name.clone(),
        &stream.relation,
        resolve.clone(),
        SHARDS,
    );
    let mut elastic = ShardedEngine::open(
        batch_engine(&stream),
        stream.name.clone(),
        &stream.relation,
        resolve,
        SHARDS,
    );
    // one-time provisioning: a spare shard for the policy to chase onto
    elastic.split_shard();

    let mut fixed_ms: Vec<f64> = Vec::new();
    let mut elastic_ms: Vec<f64> = Vec::new();
    let mut appends = 0usize;
    for op in &stream.ops {
        match op {
            StreamOp::Rows(batch) => {
                let start = Instant::now();
                fixed.apply(batch).expect("scripted batches stay valid");
                fixed_ms.push(start.elapsed().as_secs_f64() * 1e3);

                let start = Instant::now();
                elastic.apply(batch).expect("scripted batches stay valid");
                elastic.rebalance_hot(2);
                elastic_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            StreamOp::MasterAppend(rows) => {
                appends += 1;
                fixed
                    .apply_master_append(0, rows.clone())
                    .expect("scripted appends stay valid");
                elastic
                    .apply_master_append(0, rows.clone())
                    .expect("scripted appends stay valid");
            }
        }
    }

    // placement must never change the story
    let a = elastic.snapshot();
    let b = fixed.snapshot();
    assert_eq!(
        a.report.entities.len(),
        b.report.entities.len(),
        "elastic and static disagree on the entity count"
    );
    assert_eq!(
        a.repaired.rows(),
        b.repaired.rows(),
        "elastic and static disagree on the repaired rows"
    );

    // per-batch shape: elastic batches should go bimodal once the hot
    // block lands on the spare shard (cheap) vs window boundaries (full)
    let fmt_ms = |ms: &[f64]| {
        ms.iter()
            .map(|m| format!("{m:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("elastic: static  ms/batch: {}", fmt_ms(&fixed_ms));
    println!("elastic: elastic ms/batch: {}", fmt_ms(&elastic_ms));
    for (name, engine) in [("static", &fixed), ("elastic", &elastic)] {
        let stats = engine.sharded_stats();
        for (idx, s) in stats.per_shard.iter().enumerate() {
            println!(
                "elastic: {name} shard {idx}: {} rows, {} dirty blocks, \
                 {} entities re-repaired, {:.1} ms total",
                engine.shards()[idx].relation().len(),
                s.dirty_blocks,
                s.entities_rerepaired,
                s.batch_ns as f64 / 1e6,
            );
        }
    }

    let entities = a.report.entities.len();
    let batches = elastic_ms.len();
    let fixed_median = median(&mut fixed_ms);
    let elastic_median = median(&mut elastic_ms);
    let speedup = if elastic_median > 0.0 {
        fixed_median / elastic_median
    } else {
        0.0
    };
    // one grounding per append across ALL shards, or the one-shot contract
    // regressed to per-shard grounding
    let ground_count = if appends > 0 {
        elastic.stats().master_groundings as f64 / appends as f64
    } else {
        1.0
    };
    let routing_version = elastic.routing_version();

    println!(
        "elastic/med-hot-drift: {batches} batches over {entities} entities at {SHARDS}+1 shards — \
         elastic {elastic_median:.3} ms/batch, static {fixed_median:.3} ms/batch \
         ({speedup:.1}x, {routing_version} rebalances, {ground_count:.2} groundings/append)"
    );

    let json = format!(
        "{{\n  \"bench\": \"elastic\",\n  \"corpus\": \"med-hot-drift\",\n  \
         \"shards\": {SHARDS},\n  \"entities\": {entities},\n  \
         \"batches\": {batches},\n  \
         \"routing_version\": {routing_version},\n  \
         \"elastic_ms_per_batch_median\": {elastic_median:.3},\n  \
         \"static_ms_per_batch_median\": {fixed_median:.3},\n  \
         \"elastic_vs_static_speedup\": {speedup:.2},\n  \
         \"master_ground_count\": {ground_count:.2},\n  \
         \"smoke\": {}\n}}\n",
        smoke(),
    );
    let path = bench_output_path(smoke(), "BENCH_elastic.json");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!("elastic: wrote {}", path.display()),
        Err(err) => eprintln!("elastic: could not write {}: {err}", path.display()),
    }
    (fixed, elastic)
}

/// Group output: snapshot assembly over the post-stream state of both
/// engines (repeatable per iteration, unlike an apply).
fn bench_snapshot(c: &mut Criterion, fixed: &ShardedEngine, elastic: &ShardedEngine) {
    let mut group = c.benchmark_group("elastic/med-hot-drift");
    group.sample_size(10);
    group.bench_function("static_snapshot", |b| {
        b.iter(|| black_box(fixed.snapshot()))
    });
    group.bench_function("elastic_snapshot", |b| {
        b.iter(|| black_box(elastic.snapshot()))
    });
    group.finish();
}

fn main() {
    let (fixed, elastic) = elastic_report();
    let mut criterion = Criterion::default();
    bench_snapshot(&mut criterion, &fixed, &elastic);
}
