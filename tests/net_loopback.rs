//! Loopback differential for the TCP transport: N [`NetClient`]s over
//! `127.0.0.1` and N in-process readers on the same [`Server`] must give
//! **bit-identical** answers for every read surface — pinned epochs,
//! repaired-row and entity point reads at every retained generation,
//! whole-block deltas, and pushed subscription batches — while the writer
//! replays a scripted Med update stream from an [`IncrementalEngine`].
//!
//! Bit-identity is asserted via `Debug` formatting: the served types carry
//! `f64`s whose `Debug` prints the shortest round-trip representation, so
//! equal strings ⇔ equal bit patterns (the wire codec ships floats as raw
//! IEEE-754 bits for exactly this reason).

use relacc::datagen::streaming::{med_stream, StreamConfig, StreamOp, UpdateStream};
use relacc::engine::{BatchEngine, EpochId, IncrementalEngine};
use relacc::net::{NetClient, NetError, NetServer};
use relacc::resolve::{BlockingStrategy, ResolveConfig};
use relacc::serve::Server;
use relacc::store::{Generation, RowId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Generations stay addressable for the whole replay: eviction semantics
/// (the resync path) get their own test in `tests/net_faults.rs`.
const RETENTION: usize = 64;
const N_CLIENTS: usize = 3;

fn stream() -> UpdateStream {
    let config = StreamConfig {
        n_batches: 6,
        inserts_per_batch: 4,
        deletes_per_batch: 2,
        master_appends_per_batch: 1,
        seed: 57,
        ..StreamConfig::default()
    }
    .with_reads(3);
    med_stream(0.01, 41, &config)
}

fn open_batch_engine(stream: &UpdateStream) -> BatchEngine {
    BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        stream.master.clone().into_iter().collect(),
    )
    .expect("stream rules validate")
    .with_threads(2)
}

fn resolve_config(stream: &UpdateStream) -> ResolveConfig {
    ResolveConfig::on_attrs(stream.match_attrs.clone()).with_strategy(BlockingStrategy::ExactKey)
}

/// The engine's current epoch id and generation.
fn head(engine: &IncrementalEngine) -> (EpochId, Generation) {
    let epoch = engine.current_epoch();
    (epoch.id(), epoch.generation())
}

/// Unwrap a TCP answer into the in-process result shape so the two sides
/// compare directly.
fn remote<T>(result: Result<T, NetError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("TCP read failed where the in-process read succeeded: {e}"),
    }
}

/// The scripted reads addressing generation `g` (none for the seed).
fn reads_at(stream: &UpdateStream, g: u64) -> &[RowId] {
    if g == 0 {
        &[]
    } else {
        let idx = ((g - 1) as usize).min(stream.reads.len() - 1);
        &stream.reads[idx]
    }
}

/// Replay the stream with churn readers attached, holding one in-process
/// subscription and one TCP subscription in lockstep; then sweep every
/// retained generation with `N_CLIENTS` fresh TCP clients against the
/// in-process server.
fn run_differential(mut engine: IncrementalEngine, stream: &UpdateStream, label: &str) {
    engine.set_epoch_retention(RETENTION);
    let server = Server::new(&engine);
    let mut net =
        NetServer::spawn(server.clone(), "127.0.0.1:0").expect("bind an ephemeral loopback port");
    let addr = net.local_addr();

    // --- replay under churn: concurrent TCP readers pin and point-read
    // whatever generation is current while the writer commits ------------
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader_id in 0..2 {
            let server = server.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("churn reader connects");
                let mut observed = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let pinned = client.pin().expect("pin stays answerable under churn");
                    let g = pinned.generation;
                    if g.0 == 0 {
                        continue;
                    }
                    observed += 1;
                    for &row in reads_at(stream, g.0) {
                        let local = server
                            .repaired_row(row, g)
                            .expect("retention covers the replay");
                        let tcp = remote(client.repaired_row(row, g));
                        assert_eq!(
                            format!("{local:?}"),
                            format!("{tcp:?}"),
                            "{label}: churn reader {reader_id} diverged on {row:?} at {g:?}"
                        );
                    }
                }
                assert!(observed > 0, "churn reader {reader_id} never saw a commit");
            });
        }

        // the lockstep pair: one in-process subscription, one TCP
        // subscription, created back-to-back on the same epoch
        let mut local_sub = server.subscribe();
        let mut tcp_sub = NetClient::connect(addr)
            .expect("subscriber connects")
            .subscribe()
            .expect("subscription accepted");
        assert_eq!(
            tcp_sub.start().epoch,
            local_sub.last_seen().id(),
            "{label}: the two subscriptions must start on the same epoch"
        );

        let (mut last_epoch, _) = head(&engine);
        for op in &stream.ops {
            match op {
                StreamOp::Rows(batch) => engine.apply(batch).expect("scripted batches stay valid"),
                StreamOp::MasterAppend(rows) => engine
                    .apply_master_append(0, rows.clone())
                    .expect("scripted appends stay valid"),
            };
            let (head, _) = head(&engine);
            if head == last_epoch {
                continue; // the op published nothing new
            }
            last_epoch = head;
            // the writer waits for both feeds before the next commit, so
            // each batch spans exactly one epoch and compares exactly
            let local_batch = local_sub
                .next_batch(Duration::from_secs(10))
                .expect("the commit must reach the in-process feed");
            let tcp_batch = remote(tcp_sub.next_batch(Duration::from_secs(10)))
                .expect("the commit must reach the TCP feed");
            assert_eq!(local_batch.to_epoch, head, "{label}: feed cursor lag");
            assert_eq!(
                format!("{local_batch:?}"),
                format!("{tcp_batch:?}"),
                "{label}: feed batches diverged at epoch {head:?}"
            );
            assert!(!local_batch.resync, "{label}: retention covers the replay");
        }
        tcp_sub.close();
        stop.store(true, Ordering::SeqCst);
    });

    // --- post-replay sweep: every client × every generation --------------
    let (_, final_generation) = head(&engine);
    for client_id in 0..N_CLIENTS {
        let mut client = NetClient::connect(addr).expect("sweep client connects");
        assert_eq!(client.schema().name(), server.pin().schema().name());
        for g in 0..=final_generation.0 {
            let generation = Generation(g);
            let local_epoch = server.pin_at(generation).expect("generation retained");
            let tcp_epoch = remote(client.pin_at(generation));
            assert_eq!(
                tcp_epoch.epoch,
                local_epoch.id(),
                "{label}: pinned epoch id"
            );
            assert_eq!(
                tcp_epoch.generation,
                local_epoch.generation(),
                "{label}: pinned generation"
            );
            assert_eq!(
                tcp_epoch.rows as usize,
                local_epoch.len(),
                "{label}: pinned live-row count"
            );

            for &row in reads_at(stream, g) {
                let local_row = server.repaired_row(row, generation).unwrap();
                let tcp_row = remote(client.repaired_row(row, generation));
                assert_eq!(
                    format!("{local_row:?}"),
                    format!("{tcp_row:?}"),
                    "{label}: client {client_id} repaired_row({row:?}) at gen {g}"
                );
                let local_entity = server.entity_result(row, generation).unwrap();
                let tcp_entity = remote(client.entity_result(row, generation));
                assert_eq!(
                    format!("{local_entity:?}"),
                    format!("{tcp_entity:?}"),
                    "{label}: client {client_id} entity_result({row:?}) at gen {g}"
                );
            }
            // a row id that never existed answers None on both sides
            assert_eq!(
                server.repaired_row(RowId(u64::MAX), generation).unwrap(),
                remote(client.repaired_row(RowId(u64::MAX), generation)),
                "{label}: dead row reads must agree"
            );

            let local_delta = server.changes_since(generation).unwrap();
            let tcp_delta = remote(client.changes_since(generation));
            assert_eq!(
                format!("{local_delta:?}"),
                format!("{tcp_delta:?}"),
                "{label}: client {client_id} changes_since(gen {g})"
            );
        }

        // a generation that was never published errors identically
        let unknown = Generation(final_generation.0 + 999);
        let local_err = server.pin_at(unknown).unwrap_err();
        match client.pin_at(unknown) {
            Err(NetError::Remote(tcp_err)) => assert_eq!(
                tcp_err, local_err,
                "{label}: unknown-generation errors must agree"
            ),
            other => panic!("{label}: expected a remote epoch error, got {other:?}"),
        }
    }

    net.shutdown();
}

#[test]
fn tcp_equals_in_process_single_engine() {
    let stream = stream();
    let engine = IncrementalEngine::open(
        open_batch_engine(&stream),
        stream.name.clone(),
        &stream.relation,
        resolve_config(&stream),
    );
    run_differential(engine, &stream, "single");
}
