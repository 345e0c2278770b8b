//! `serve`: point-read latency of the epoch-pinned serving layer vs the
//! snapshot-per-read baseline, on a mixed read/write Med stream.
//!
//! The serving claim: with epoch-versioned block caches, answering "what is
//! row r's repaired value right now?" costs **O(block)** — pin the current
//! epoch (one `Arc` clone under the hub lock), binary-search the pinned
//! rows, recompute the row's block key and look the block up in the pinned
//! cache.  Without epochs the only consistent read is a full `snapshot()`:
//! an **O(corpus)** merge of every block into a fresh `RelationRepair` for
//! every read.
//!
//! The run replays a scripted mixed stream (`StreamConfig::with_reads`):
//! after each applied batch it serves that batch's scripted point reads both
//! ways — pinned epoch vs fresh full snapshot — asserting the answers are
//! identical, and reports the per-read medians.  `read_vs_snapshot_speedup`
//! is the snapshot-per-read median over the pinned-read median; the
//! committed `BENCH_serve.json` is gated by `tools/bench_gate`
//! (`read_vs_snapshot_speedup ≥ 10`).  A criterion group repeats both read
//! paths over the final state.

use criterion::Criterion;
use relacc_bench::{median, smoke_mode as smoke, write_report};
use relacc_datagen::streaming::{med_stream, StreamConfig, StreamOp, UpdateStream};
use relacc_engine::{BatchEngine, IncrementalEngine};
use relacc_model::Value;
use relacc_resolve::{BlockingStrategy, ResolveConfig};
use relacc_store::RowId;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

fn stream() -> UpdateStream {
    let scale = if smoke() { 0.01 } else { 0.3 };
    let config = StreamConfig {
        n_batches: if smoke() { 2 } else { 8 },
        inserts_per_batch: 4,
        deletes_per_batch: 2,
        master_appends_per_batch: 1,
        seed: 57,
        ..StreamConfig::default()
    }
    .with_reads(if smoke() { 2 } else { 8 });
    med_stream(scale, 29, &config)
}

fn open_engine(stream: &UpdateStream) -> IncrementalEngine {
    let engine = BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        stream.master.clone().into_iter().collect(),
    )
    .expect("stream rules validate")
    .with_threads(1);
    IncrementalEngine::open(
        engine,
        stream.name.clone(),
        &stream.relation,
        ResolveConfig::on_attrs(stream.match_attrs.clone())
            .with_strategy(BlockingStrategy::ExactKey),
    )
}

/// The snapshot-per-read baseline's row lookup: live ids ascending map 1:1
/// onto snapshot positions.
fn position_map(engine: &IncrementalEngine) -> HashMap<RowId, usize> {
    engine
        .relation()
        .rows()
        .iter()
        .enumerate()
        .map(|(pos, row)| (row.id, pos))
        .collect()
}

/// The baseline's answer for the source row at corpus position `pos`: the
/// one repaired row of the entity owning that position (`repaired` carries
/// one row per entity, keyed through `row_entities`).
fn lookup_repaired(snap: &relacc_engine::RelationRepair, pos: usize) -> Option<Vec<Value>> {
    let result = snap
        .report
        .entities
        .iter()
        .find(|e| e.records.contains(&pos))?;
    let repaired_pos = snap.row_entities.iter().position(|&e| e == result.entity)?;
    Some(snap.repaired.rows()[repaired_pos].values().to_vec())
}

/// Replay the mixed stream, timing every scripted read both ways, and write
/// `BENCH_serve.json`.  Returns the engine in its final state.
fn serve_report() -> IncrementalEngine {
    let stream = stream();
    let mut engine = open_engine(&stream);
    let hub = engine.epochs();

    let mut point_ms: Vec<f64> = Vec::new();
    let mut snapshot_ms: Vec<f64> = Vec::new();
    let mut batch_idx = 0usize;
    for op in &stream.ops {
        match op {
            StreamOp::Rows(batch) => {
                engine.apply(batch).expect("scripted batches stay valid");
                let positions = position_map(&engine);
                for &row in &stream.reads[batch_idx] {
                    // epoch-pinned point read: pin + O(block) lookup
                    let start = Instant::now();
                    let epoch = hub.current();
                    let pinned = epoch.repaired_row(row);
                    point_ms.push(start.elapsed().as_secs_f64() * 1e3);

                    // baseline: the only consistent read without epochs is a
                    // full snapshot assembly, then resolving the row's
                    // entity and its one repaired row
                    let start = Instant::now();
                    let snap = engine.snapshot();
                    let via_snapshot = lookup_repaired(&snap, positions[&row]);
                    snapshot_ms.push(start.elapsed().as_secs_f64() * 1e3);

                    assert_eq!(
                        pinned, via_snapshot,
                        "pinned read and snapshot read disagree on {row}"
                    );
                }
                batch_idx += 1;
            }
            StreamOp::MasterAppend(rows) => {
                engine
                    .apply_master_append(0, rows.clone())
                    .expect("scripted appends stay valid");
            }
        }
    }

    let entities = engine.snapshot().report.entities.len();
    let batches = batch_idx;
    let reads = point_ms.len();
    let point_median = median(&mut point_ms);
    let snapshot_median = median(&mut snapshot_ms);
    let speedup = if point_median > 0.0 {
        snapshot_median / point_median
    } else {
        0.0
    };

    println!(
        "serve/med-mixed: {reads} reads across {batches} batches over {entities} entities — \
         pinned {point_median:.4} ms/read, snapshot {snapshot_median:.3} ms/read \
         ({speedup:.0}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"corpus\": \"med-mixed\",\n  \
         \"entities\": {entities},\n  \"batches\": {batches},\n  \
         \"reads\": {reads},\n  \
         \"point_read_ms_median\": {point_median:.4},\n  \
         \"snapshot_read_ms_median\": {snapshot_median:.3},\n  \
         \"read_vs_snapshot_speedup\": {speedup:.2},\n  \
         \"smoke\": {}\n}}\n",
        smoke(),
    );
    write_report("serve", "BENCH_serve.json", &json);
    engine
}

/// Group output: both read paths over the final state.
fn bench_reads(c: &mut Criterion, engine: &IncrementalEngine) {
    let epoch = engine.current_epoch();
    let row = engine
        .relation()
        .rows()
        .iter()
        .next()
        .expect("live rows")
        .id;
    let positions = position_map(engine);
    let mut group = c.benchmark_group("serve/med-mixed");
    group.sample_size(10);
    group.bench_function("pinned_point_read", |b| {
        b.iter(|| black_box(epoch.repaired_row(row)))
    });
    group.bench_function("snapshot_per_read", |b| {
        b.iter(|| {
            let snap = engine.snapshot();
            black_box(lookup_repaired(&snap, positions[&row]))
        })
    });
    group.finish();
}

fn main() {
    let engine = serve_report();
    let mut criterion = Criterion::default();
    bench_reads(&mut criterion, &engine);
}
