//! Fault injection for the TCP transport: misbehaving subscribers must
//! never leak back into the write path.
//!
//! The scenario: an engine with a **2-epoch retention window** serving
//! entities whose repaired rows carry a ~256 KiB payload (so pushed feed
//! batches are far larger than any socket buffer), and three clients —
//!
//! * client A subscribes, reads one batch, and is killed mid-subscription;
//! * client B subscribes and then stalls completely (reads nothing) while
//!   the writer commits ~48 epochs — tens of megabytes of feed — so B's
//!   handler blocks on the socket and B's pinned cursor is outrun;
//! * client C connects fresh after the dust settles.
//!
//! Asserted: every writer commit stays fast while A is dead and B is
//! stalled (a blocked handler thread never blocks the engine); B, once it
//! resumes draining, recovers through **exactly one** `resync: true` batch
//! that composes its stale state to the exact current state; and C gets
//! answers identical to the in-process server, proving neither fault
//! wedged the listener.

use relacc::core::rules::{Predicate, RuleSet, TupleRule};
use relacc::engine::{BatchEngine, EntityView, IncrementalEngine};
use relacc::model::{CmpOp, DataType, Schema, SchemaRef, Value};
use relacc::net::{NetClient, NetServer, ServeOptions};
use relacc::resolve::{BlockKey, BlockingStrategy, ResolveConfig};
use relacc::serve::{ChangeBatch, EntityChangeKind, Server};
use relacc::store::{Relation, RowId, UpdateBatch};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Payload size per row: big enough that a few batches overflow any
/// loopback socket buffering, so the stalled subscriber's handler really
/// blocks and its cursor really falls out of the retention window.
const PAYLOAD: usize = 256 * 1024;
const BATCHES: usize = 48;
/// Small enough that B's frozen cursor is hopelessly outrun, large enough
/// that a *live* handler (cycle ≈ read poll + feed poll, see `options` in
/// the test) never is — so the only resync in the run is B's recovery.
const RETENTION: usize = 6;
/// Writer pacing: slower than a live handler's push cycle, so a subscriber
/// that drains keeps up and a subscriber that stalls is the odd one out.
const PACE: Duration = Duration::from_millis(50);

fn payload(i: usize) -> Value {
    Value::text(format!("{i:08}{}", "x".repeat(PAYLOAD)))
}

fn schema() -> SchemaRef {
    Schema::builder("big")
        .attr("name", DataType::Text)
        .attr("payload", DataType::Text)
        .attr("seq", DataType::Int)
        .build()
}

fn open_engine() -> IncrementalEngine {
    let s = schema();
    // later observations (higher seq) carry the more accurate payload
    let rules = RuleSet::from_rules([
        TupleRule::new(
            "fresher-payload",
            vec![Predicate::cmp_attrs(s.expect_attr("seq"), CmpOp::Lt)],
            s.expect_attr("payload"),
        ),
        TupleRule::new(
            "fresher-seq",
            vec![Predicate::cmp_attrs(s.expect_attr("seq"), CmpOp::Lt)],
            s.expect_attr("seq"),
        ),
    ]);
    let engine = BatchEngine::new(s.clone(), rules, vec![]).expect("rules validate");
    let seed = Relation::from_rows(
        s.clone(),
        vec![
            vec![Value::text("hot"), payload(0), Value::Int(0)],
            vec![Value::text("cold"), payload(999), Value::Int(0)],
        ],
    )
    .expect("seed rows type-check");
    IncrementalEngine::open(
        engine,
        "big",
        &seed,
        ResolveConfig::on_attrs(vec!["name".into()]).with_strategy(BlockingStrategy::ExactKey),
    )
}

/// The update of epoch `i` (1-based): a fresh observation of the hot
/// entity, retiring the previous one so the block stays two rows wide.
/// Seed rows are 0..=1, so batch `i`'s insert gets global row id `1 + i`.
fn batch(i: usize) -> UpdateBatch {
    let b =
        UpdateBatch::new("big").insert(vec![Value::text("hot"), payload(i), Value::Int(i as i64)]);
    if i >= 2 {
        b.delete(RowId(i as u64))
    } else {
        b
    }
}

/// An entity map keyed the way the feed addresses entities: block key +
/// member-record set.  Values are `Debug` renderings, so comparing maps
/// compares full views bit-for-bit.
type EntityMap = BTreeMap<(BlockKey, Vec<RowId>), String>;

fn entity_map_of_epoch(server: &Server) -> EntityMap {
    let mut map = EntityMap::new();
    for (key, block) in server.pin().block_views() {
        for entity in &block.entities {
            map.insert((key.clone(), entity.records.clone()), debug_view(entity));
        }
    }
    map
}

fn debug_view(view: &EntityView) -> String {
    format!("{view:?}")
}

fn apply_feed_batch(map: &mut EntityMap, batch: &ChangeBatch) {
    for change in &batch.changes {
        match &change.kind {
            EntityChangeKind::Upserted(view) => {
                map.insert(
                    (change.block.clone(), view.records.clone()),
                    debug_view(view),
                );
            }
            EntityChangeKind::Removed { records } => {
                map.remove(&(change.block.clone(), records.clone()));
            }
        }
    }
}

#[test]
fn dead_and_stalled_subscribers_never_block_the_writer() {
    let mut engine = open_engine();
    engine.set_epoch_retention(RETENTION);
    let server = Server::new(&engine);
    let options = ServeOptions {
        // a tight feed cycle (~20 ms worst case) so a draining subscriber
        // outpaces the 50 ms writer cadence and never needs a resync …
        read_timeout: Duration::from_millis(10),
        feed_poll: Duration::from_millis(10),
        // … and a patient write timeout: B's stall lasts the writer's whole
        // replay, and the blocked push must survive it so B can recover
        write_timeout: Duration::from_secs(120),
    };
    let mut net = NetServer::spawn_with(server.clone(), "127.0.0.1:0", options)
        .expect("bind an ephemeral loopback port");
    let addr = net.local_addr();

    // client A: subscribes, sees one commit, dies mid-subscription
    let mut sub_a = NetClient::connect(addr)
        .expect("client A connects")
        .subscribe()
        .expect("client A subscribes");
    engine.apply(&batch(1)).expect("batch 1 applies");
    let first = sub_a
        .next_batch(Duration::from_secs(10))
        .expect("feed A live")
        .expect("batch 1 reaches client A");
    assert!(!first.resync, "nothing evicted yet");
    sub_a.close(); // killed: the server must shrug this off

    // client B: subscribes, then stalls without reading a single byte
    let mut sub_b = NetClient::connect(addr)
        .expect("client B connects")
        .subscribe()
        .expect("client B subscribes");
    // B's view of the world freezes here; remember it for the recovery check
    let mut b_state = entity_map_of_epoch(&server);

    // the writer replays ~46 more epochs — tens of MB of feed B never
    // drains — and every single commit must stay fast
    let mut slowest = Duration::ZERO;
    for i in 2..=BATCHES {
        let started = Instant::now();
        engine
            .apply(&batch(i))
            .expect("scripted batches stay valid");
        slowest = slowest.max(started.elapsed());
        std::thread::sleep(PACE);
    }
    assert!(
        slowest < Duration::from_secs(2),
        "a commit took {slowest:?} with a dead and a stalled subscriber attached — \
         the write path must not depend on connection handlers"
    );
    let final_epoch = engine.current_epoch().id();
    let final_state = entity_map_of_epoch(&server);

    // client B wakes up and drains: a few buffered pre-stall batches, then
    // exactly one resync batch that jumps the evicted history
    let mut resyncs = 0usize;
    let mut drained = 0usize;
    loop {
        let batch = sub_b
            .next_batch(Duration::from_secs(30))
            .expect("feed B must survive the stall")
            .expect("feed B must still deliver after the stall");
        drained += 1;
        if batch.resync {
            resyncs += 1;
        }
        apply_feed_batch(&mut b_state, &batch);
        if batch.to_epoch == final_epoch {
            break;
        }
        assert!(drained < 2 * BATCHES, "feed never converged on the head");
    }
    assert_eq!(
        resyncs, 1,
        "an outrun cursor must recover through exactly one resync batch"
    );
    assert_eq!(
        b_state, final_state,
        "composing the feed over B's stale state must reproduce the current epoch exactly"
    );
    sub_b.close();

    // client C: the listener took two misbehaving clients and is still fine
    let mut fresh = NetClient::connect(addr).expect("a fresh client still connects");
    let generation = engine.current_epoch().generation();
    let local = server
        .repaired_row(RowId(0), generation)
        .expect("current generation readable")
        .expect("the hot entity is live");
    let tcp = fresh
        .repaired_row(RowId(0), generation)
        .expect("TCP read succeeds")
        .expect("the hot entity is live over TCP");
    assert_eq!(format!("{local:?}"), format!("{tcp:?}"));
    assert_eq!(local[2], Value::Int(BATCHES as i64), "freshest seq won");

    net.shutdown();
}

/// A commit's feed batch is pushed when its epoch is published, not when
/// the handler's socket read next times out: with a read timeout of
/// several seconds, every batch still reaches the subscriber in a small
/// fraction of it.
#[test]
fn feed_batches_are_pushed_on_publish_not_on_the_read_timeout() {
    let mut engine = open_engine();
    let server = Server::new(&engine);
    let read_timeout = Duration::from_secs(5);
    let options = ServeOptions {
        read_timeout,
        ..ServeOptions::default()
    };
    let mut net = NetServer::spawn_with(server, "127.0.0.1:0", options)
        .expect("bind an ephemeral loopback port");
    let mut sub = NetClient::connect(net.local_addr())
        .expect("client connects")
        .subscribe()
        .expect("client subscribes");
    for i in 1..=3 {
        // let the handler settle into its wait before committing
        std::thread::sleep(Duration::from_millis(200));
        let committed = Instant::now();
        engine
            .apply(&batch(i))
            .expect("scripted batches stay valid");
        let pushed = sub
            .next_batch(read_timeout * 2)
            .expect("feed live")
            .expect("the commit reaches the subscriber");
        let lag = committed.elapsed();
        assert_eq!(pushed.to_epoch, engine.current_epoch().id());
        assert!(
            lag < read_timeout / 5,
            "commit {i} reached the subscriber after {lag:?}, read timeout {read_timeout:?}"
        );
    }
    sub.close();
    net.shutdown();
}

/// A frame the server cannot accept gets a terminal `Error{Malformed}`
/// frame and then EOF: an unknown message type, a header over `MAX_FRAME`,
/// and a header over the server's small request limit, which is refused
/// as soon as its four bytes arrive instead of waiting for the announced
/// megabyte.  The listener keeps serving fresh clients afterwards.
#[test]
fn refused_frames_get_an_error_frame_then_eof() {
    let engine = open_engine();
    let server = Server::new(&engine);
    let mut net =
        NetServer::spawn(server.clone(), "127.0.0.1:0").expect("bind an ephemeral loopback port");
    let mut over_request_limit = (1u32 << 20).to_le_bytes().to_vec();
    over_request_limit.extend([0x10; 100]);
    let cases = [
        (
            "an unknown message type",
            vec![0x01, 0x00, 0x00, 0x00, 0x7F],
        ),
        (
            "a header over MAX_FRAME",
            (64 * 1024 * 1024 + 1u32).to_le_bytes().to_vec(),
        ),
        ("a 1 MiB header and 100 bytes", over_request_limit),
    ];
    for (case, bytes) in cases {
        let mut raw = TcpStream::connect(net.local_addr()).expect("raw client connects");
        raw.set_read_timeout(Some(Duration::from_secs(1)))
            .expect("set a read timeout");
        let started = Instant::now();
        raw.write_all(&bytes).expect("send the refused bytes");
        let mut reply = Vec::new();
        if let Err(e) = raw.read_to_end(&mut reply) {
            panic!("{case}: no EOF within a second ({e}); read {reply:02X?}");
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{case}: the server took {:?} to refuse",
            started.elapsed()
        );
        assert!(
            reply.len() > 6 && reply[4..6] == [0x03, 0x04],
            "{case}: expected an Error{{Malformed}} frame before EOF, read {reply:02X?}"
        );
        let announced = u32::from_le_bytes(reply[..4].try_into().expect("4 bytes")) as usize;
        assert_eq!(
            announced,
            reply.len() - 4,
            "{case}: one whole frame, then EOF"
        );
    }

    let mut fresh = NetClient::connect(net.local_addr()).expect("a fresh client still connects");
    let generation = engine.current_epoch().generation();
    let local = server
        .repaired_row(RowId(0), generation)
        .expect("current generation readable");
    let tcp = fresh
        .repaired_row(RowId(0), generation)
        .expect("TCP read succeeds");
    assert_eq!(format!("{local:?}"), format!("{tcp:?}"));
    net.shutdown();
}
