//! Concurrency stress for the serving layer: one writer thread replays an
//! update stream while N reader threads hammer pinned reads, point reads and
//! deltas.  Every pinned epoch must be **exactly** the committed state of
//! its generation — never a torn mix of two batches — which the test checks
//! against an offline replay of the same stream:
//!
//! * the epoch's live row-id set equals the scripted set of its generation;
//! * point reads on those rows succeed and report members from the same set;
//! * generations are monotone per reader (the hub never goes backwards);
//! * `changes_since(pinned generation)` stays available (retention covers
//!   the stream) and starts exactly at the pinned generation.
//!
//! Runs against an [`IncrementalEngine`]; the CI matrix repeats it at
//! `RELACC_POOL_THREADS` ∈ {1, 4}.

use relacc::datagen::streaming::{med_stream, StreamConfig, StreamOp, UpdateStream};
use relacc::engine::{BatchEngine, IncrementalEngine};
use relacc::resolve::{BlockingStrategy, ResolveConfig};
use relacc::serve::Server;
use relacc::store::{Generation, RowId, VersionedRelation};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const READERS: usize = 4;

fn resolve_config(stream: &UpdateStream) -> ResolveConfig {
    ResolveConfig::on_attrs(stream.match_attrs.clone()).with_strategy(BlockingStrategy::ExactKey)
}

fn open_batch_engine(stream: &UpdateStream) -> BatchEngine {
    BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        stream.master.clone().into_iter().collect(),
    )
    .expect("stream rules validate")
}

/// Offline replay of the stream's row batches: the exact live row-id set at
/// every generation.
fn live_sets(stream: &UpdateStream) -> HashMap<Generation, BTreeSet<RowId>> {
    let mut versioned = VersionedRelation::from_relation(&stream.relation);
    let snapshot =
        |v: &VersionedRelation| -> BTreeSet<RowId> { v.rows().iter().map(|r| r.id).collect() };
    let mut sets = HashMap::new();
    sets.insert(Generation(0), snapshot(&versioned));
    for op in &stream.ops {
        if let StreamOp::Rows(batch) = op {
            versioned.apply(batch).expect("scripted batches stay valid");
            sets.insert(versioned.generation(), snapshot(&versioned));
        }
    }
    sets
}

/// The writer applies the stream; each reader keeps pinning epochs and
/// verifying them against the offline replay until the writer is done.
fn stress(server: Server, stream: &UpdateStream, write: impl FnOnce(), label: &str) {
    let expected = live_sets(stream);
    let done = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let server = server.clone();
            let (done, start, expected) = (&done, &start, &expected);
            let label = format!("{label}/reader-{reader}");
            scope.spawn(move || {
                start.wait();
                let mut last_generation = Generation(0);
                let mut iterations = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let epoch = server.pin();
                    let generation = epoch.generation();
                    assert!(
                        generation >= last_generation,
                        "{label}: generation went backwards ({last_generation} -> {generation})"
                    );
                    last_generation = generation;
                    let live: BTreeSet<RowId> = epoch.live_rows().into_iter().collect();
                    let scripted = expected.get(&generation).unwrap_or_else(|| {
                        panic!("{label}: pinned unscripted generation {generation}")
                    });
                    assert_eq!(
                        &live,
                        scripted,
                        "{label}: epoch {} of generation {generation} is torn",
                        epoch.id()
                    );
                    // point reads on a sample of pinned rows: never block,
                    // always answer from the same epoch
                    for row in live.iter().step_by(7) {
                        let entity = epoch.entity_result(*row).unwrap_or_else(|| {
                            panic!("{label}: pinned row {row} unreadable at {generation}")
                        });
                        assert!(
                            entity.records.iter().all(|r| live.contains(r)),
                            "{label}: entity of {row} leaked rows from another epoch"
                        );
                        assert!(entity.records.contains(row), "{label}: {row} not a member");
                    }
                    // deltas from the pinned generation stay addressable
                    let delta = server.changes_since(generation).unwrap_or_else(|e| {
                        panic!("{label}: delta from pinned {generation} failed: {e}")
                    });
                    assert_eq!(delta.from, generation, "{label}: delta base");
                    iterations += 1;
                    if finished {
                        break;
                    }
                    std::thread::yield_now();
                }
                assert!(iterations > 0, "{label}: reader never ran");
            });
        }
        start.wait();
        write();
        done.store(true, Ordering::Release);
    });
}

fn stream() -> UpdateStream {
    let config = StreamConfig {
        n_batches: 10,
        inserts_per_batch: 5,
        deletes_per_batch: 2,
        ..StreamConfig::default()
    };
    med_stream(0.01, 41, &config)
}

#[test]
fn concurrent_reads_never_observe_torn_epochs_single() {
    let stream = stream();
    let mut engine = IncrementalEngine::open(
        open_batch_engine(&stream),
        stream.name.clone(),
        &stream.relation,
        resolve_config(&stream),
    );
    engine.set_epoch_retention(stream.ops.len() + 2);
    stress(
        Server::new(&engine),
        &stream,
        || {
            for op in &stream.ops {
                match op {
                    StreamOp::Rows(batch) => {
                        engine.apply(batch).expect("scripted batches stay valid");
                    }
                    StreamOp::MasterAppend(rows) => {
                        engine
                            .apply_master_append(0, rows.clone())
                            .expect("scripted appends stay valid");
                    }
                }
            }
        },
        "single",
    );
    assert_eq!(
        engine.current_epoch().generation(),
        Generation(stream.row_batches() as u64)
    );
}

/// A subscription drained concurrently with the writer sees every committed
/// batch exactly once, in order, with contiguous epoch spans.
#[test]
fn concurrent_subscription_sees_contiguous_batches() {
    let stream = stream();
    let mut engine = IncrementalEngine::open(
        open_batch_engine(&stream),
        stream.name.clone(),
        &stream.relation,
        resolve_config(&stream),
    );
    engine.set_epoch_retention(stream.ops.len() + 2);
    let server = Server::new(&engine);
    let mut feed = server.subscribe();
    let final_generation = Generation(stream.row_batches() as u64);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut cursor = feed.last_seen().id();
            loop {
                let Some(batch) = feed.next_batch(std::time::Duration::from_secs(10)) else {
                    panic!("subscription starved while the writer was active");
                };
                assert!(!batch.resync, "retention covers the whole stream");
                assert_eq!(batch.from_epoch, cursor, "feed must be gapless");
                assert!(batch.to_epoch > batch.from_epoch);
                cursor = batch.to_epoch;
                if batch.to == final_generation {
                    break;
                }
            }
        });
        for op in &stream.ops {
            match op {
                StreamOp::Rows(batch) => {
                    engine.apply(batch).expect("scripted batches stay valid");
                }
                StreamOp::MasterAppend(rows) => {
                    engine
                        .apply_master_append(0, rows.clone())
                        .expect("scripted appends stay valid");
                }
            }
        }
    });
}
