//! One run of one workload: set-up, the closed-loop timed phase, and the
//! end-of-run checks.
//!
//! Load shape, at most two busy threads: the writer commits scripted
//! operations with the engine's pool pinned to one worker.  On the ingest
//! workloads it commits them back to back while one subscriber thread
//! drains the TCP change feed (with the feed connection's server handler);
//! on `rest-serve` each round also sends one `changes_since` and the
//! round's point reads over one TCP connection from the writer's thread,
//! each only after the previous reply is decoded, and nothing else runs.
//!
//! Checks run with the clock paused: their time counts neither in a latency
//! nor in the length of the timed phase.  So does the yardstick the writer
//! runs before every commit: the gated commit and set-up times are taken at
//! the reference machine speed it defines (see `yardstick.rs`).

use crate::check::{
    reply_matches, snapshot_matches, target_matches, views_match, FeedFold, Reference,
};
use crate::machine::{self, Machine};
use crate::stats::{median, percentile, Metric, Ops};
use crate::trace::{Committed, FeedDiff, Replay, Tracer};
use crate::workload::{
    current_master, open_engine, reference_repair, resolve_config, Mix, Workload,
};
use crate::yardstick;
use relacc_core::chase::is_cr;
use relacc_core::Specification;
use relacc_datagen::{StreamOp, UpdateStream};
use relacc_engine::{BlockView, Epoch, EpochId, IncrementalEngine, SnapshotDelta};
use relacc_model::{EntityInstance, Value};
use relacc_net::{Message, NetClient, NetServer, NetSubscription};
use relacc_resolve::BlockKey;
use relacc_serve::{ChangeBatch, Server};
use relacc_store::{Generation, RowId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Earlier rounds after which an ingest workload's snapshot is checked
/// against a from-scratch repair.  A second engine replays the run's first
/// rounds after the peak resident set is read, so the reference repairs
/// neither pause the timed phase nor count in `rss_peak_mb`.
const CHECKPOINT_ROUNDS: [usize; 2] = [10, 30];

/// A run keeps going past `--seconds` until it has this many row batches.
/// A p90 needs 100; 150 puts fifteen beyond it, so a few slow commits move
/// it less.  On `med-ingest`, whose fixed script has a few very slow
/// commits, ten seconds commit fewer, so every run times the same 150.
const MIN_ROW_BATCHES: usize = 150;
/// A commit's time is set against the yardstick times of the row batches
/// within this many positions of it, about half a second of commits.
const SPEED_REACH: usize = 4;
/// Entities checked against the reference chase at the end of a run.
const REFERENCE_SAMPLE: usize = 16;
/// How long the subscriber may take to catch up once the writer stops.
const FEED_DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// A p90 is reported only from at least this many samples, ten beyond it.
const P90_MIN_SAMPLES: usize = 100;

/// What one run is asked to do.
#[derive(Debug)]
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    pub ops: Ops,
    /// The end-to-end metrics every workload reports (`BENCHMARK.json`).
    pub end_to_end: Vec<Metric>,
    /// End-to-end figures of this workload's mix only, printed.
    pub extra: Vec<Metric>,
    /// Per-layer metrics every workload reports (traced run only).
    pub per_layer: Vec<Metric>,
    /// Per-layer figures of this workload's mix only, printed.
    pub per_layer_extra: Vec<Metric>,
    pub rounds: u64,
    pub measured_s: f64,
    /// Over the timed phase: the share of the machine's CPU time the
    /// hypervisor stole, and how long the writer waited for a CPU.
    pub steal_share: f64,
    pub writer_waited_s: f64,
    pub tracer: Tracer,
}

/// A workload's one TCP connection.
enum Connection {
    /// The ingest workloads' change-feed subscription.
    Feed(NetSubscription),
    /// `rest-serve`'s request/response client, driven by the writer.
    Client(NetClient),
}

/// Everything one set-up builds.
struct Live {
    stream: UpdateStream,
    engine: IncrementalEngine,
    server: Server,
    connection: Connection,
    net: NetServer,
}

fn set_up(workload: &Workload, seed: u64, tracer: &mut Tracer) -> Result<Live, String> {
    let mark = tracer.begin("datagen.build", 0);
    let stream = workload.stream(seed);
    tracer.end(mark);
    let mark = tracer.begin("engine.open", 0);
    let engine = open_engine(&stream);
    tracer.end(mark);
    let server = Server::new(&engine);
    let mark = tracer.begin("net.spawn", 0);
    let net = NetServer::spawn(server.clone(), "127.0.0.1:0")
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
    tracer.end(mark);
    let mark = tracer.begin("net.connect", 0);
    let client = NetClient::connect(net.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let connection = match workload.mix {
        Mix::Ingest => Connection::Feed(client.subscribe().map_err(|e| format!("subscribe: {e}"))?),
        Mix::Serve { .. } => Connection::Client(client),
    };
    tracer.end(mark);
    Ok(Live {
        stream,
        engine,
        server,
        connection,
        net,
    })
}

/// A small deterministic generator for the read mix.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Feed batches as the subscriber received them.
#[derive(Debug, Default)]
struct FeedLog {
    batches: Vec<(Instant, ChangeBatch)>,
    error: Option<String>,
}

/// The subscriber thread: drain the feed until it covers the epoch the
/// writer stopped at (`target`, `u64::MAX` while the writer runs).
fn drain_feed(mut feed: NetSubscription, target: Arc<AtomicU64>) -> FeedLog {
    let mut log = FeedLog::default();
    let mut at = feed.start().epoch.0;
    let mut stopped_at: Option<Instant> = None;
    loop {
        let target = target.load(Ordering::SeqCst);
        if target != u64::MAX {
            if at >= target {
                break;
            }
            if stopped_at.get_or_insert_with(Instant::now).elapsed() > FEED_DRAIN_LIMIT {
                log.error = Some(format!("feed stuck at epoch {at}, writer at {target}"));
                break;
            }
        }
        match feed.next_batch(Duration::from_millis(50)) {
            Ok(Some(batch)) => {
                let received = Instant::now();
                at = batch.to_epoch.0;
                log.batches.push((received, batch));
            }
            Ok(None) => {}
            Err(e) => {
                log.error = Some(e.to_string());
                break;
            }
        }
    }
    feed.close();
    log
}

/// Peak resident set of this process in MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The snapshot against a from-scratch repair of the same relation under
/// the engine's own plan (as the repository's differential tests do).
fn snapshot_check(
    engine: &IncrementalEngine,
    stream: &UpdateStream,
) -> (Result<(), String>, Reference) {
    let full = reference_repair(engine, stream);
    let verdict = snapshot_matches(&engine.snapshot(), &full);
    let ids = engine.relation().rows().iter().map(|r| r.id).collect();
    (verdict, Reference::new(full, ids))
}

/// Replay the run's first rounds on a fresh engine and check its snapshot
/// against a from-scratch repair after each of [`CHECKPOINT_ROUNDS`] that
/// the run reached.
fn earlier_commit_checks(stream: &UpdateStream, rounds: usize, ops: &mut Ops) {
    let mut engine = open_engine(stream);
    for (i, op) in stream.ops.iter().enumerate().take(rounds) {
        let applied = match op {
            StreamOp::Rows(batch) => engine.apply(batch).map(drop),
            StreamOp::MasterAppend(rows) => engine.apply_master_append(0, rows.clone()).map(drop),
        };
        if let Err(e) = applied {
            ops.wrong("check", format!("replaying round {}: {e}", i + 1));
            return;
        }
        if CHECKPOINT_ROUNDS.contains(&(i + 1)) {
            ops.checked("check", snapshot_check(&engine, stream).0);
        }
        if i + 1 >= CHECKPOINT_ROUNDS[CHECKPOINT_ROUNDS.len() - 1] {
            return;
        }
    }
}

/// The served target of `row`'s entity against the reference chase over a
/// specification built from the entity, the rules and the current masters.
fn reference_chase(
    epoch: &Epoch,
    engine: &IncrementalEngine,
    stream: &UpdateStream,
    appended: &[Vec<Value>],
    row: RowId,
) -> Result<(), String> {
    let view = epoch
        .entity_result(row)
        .ok_or_else(|| format!("live row {row:?} has no entity"))?;
    let mut ie = EntityInstance::new(epoch.schema().clone());
    for id in &view.records {
        let tuple = engine
            .relation()
            .row(*id)
            .ok_or_else(|| format!("member {id:?} is not live"))?
            .tuple
            .clone();
        ie.push_tuple(tuple).map_err(|e| e.to_string())?;
    }
    let mut spec = Specification::new(ie, stream.rules.clone());
    if let Some(master) = current_master(stream, appended) {
        spec = spec.with_master(master);
    }
    target_matches(&view, &is_cr(&spec))
}

/// Per-read figures the traced run needs.
#[derive(Debug, Default)]
struct ReadTrace {
    /// TCP latency minus the in-process read, per read.
    wire_s: Vec<f64>,
    /// Encoded size of each point-read reply.
    reply_bytes: Vec<f64>,
}

/// Time the codec on a frame the client received (traced run only).
fn codec(tracer: &mut Tracer, op: u64, message: &Message) -> (Duration, usize) {
    let mark = tracer.begin("net.encode", op);
    let bytes = message.encode();
    let mut spent = tracer.end(mark);
    let mark = tracer.begin("net.decode", op);
    let decoded = Message::decode(&bytes);
    spent += tracer.end(mark);
    debug_assert!(decoded.is_ok());
    (spent, bytes.len())
}

/// One point read as the client received it: a `RowReply` to
/// `repaired_row` or an `EntityReply` to `entity_result`.
struct Read {
    row: RowId,
    reply: Message,
    over_tcp: Duration,
}

/// `n` TCP point reads of uniformly drawn live rows at `generation`, back
/// to back, alternating `repaired_row` and `entity_result`.  A read that
/// returns an error counts as a failed read.
#[allow(clippy::too_many_arguments)]
fn read_rows(
    client: &mut NetClient,
    rng: &mut Rng,
    live_rows: &[RowId],
    generation: Generation,
    n: usize,
    tracer: &mut Tracer,
    op: u64,
    ops: &mut Ops,
) -> Vec<Read> {
    let mut reads = Vec::with_capacity(n);
    for i in 0..n {
        let row = live_rows[rng.below(live_rows.len())];
        let (reply, took) = if i % 2 == 0 {
            let mark = tracer.begin("net.repaired_row", op);
            let reply = client.repaired_row(row, generation);
            (reply.map(|row| Message::RowReply { row }), tracer.end(mark))
        } else {
            let mark = tracer.begin("net.entity_result", op);
            let reply = client.entity_result(row, generation);
            (
                reply.map(|entity| Message::EntityReply { entity }),
                tracer.end(mark),
            )
        };
        match reply {
            Ok(reply) => reads.push(Read {
                row,
                reply,
                over_tcp: took,
            }),
            Err(e) => ops.errored("read", e.to_string()),
        }
    }
    reads
}

/// The in-process answer to the same read, at the same generation.
fn check_read(
    server: &Server,
    tracer: &mut Tracer,
    op: u64,
    generation: Generation,
    read: &Read,
    trace: &mut ReadTrace,
) -> Result<(), String> {
    let row = read.row;
    let mark = tracer.begin("serve.pin", op);
    let pinned = server.pin_at(generation);
    tracer.end(mark);
    let pinned = pinned.map_err(|e| e.to_string())?;
    let mark = tracer.begin("engine.locate", op);
    let live = pinned.contains(row);
    tracer.end(mark);
    if !live {
        return Err(format!("read row {row:?} is not live at {generation:?}"));
    }
    let mark = tracer.begin("serve.read", op);
    let in_process = match read.reply {
        Message::RowReply { .. } => server
            .repaired_row(row, generation)
            .map(|row| Message::RowReply { row }),
        _ => server
            .entity_result(row, generation)
            .map(|entity| Message::EntityReply { entity }),
    };
    let local = tracer.end(mark);
    let in_process = in_process.map_err(|e| e.to_string())?;
    if tracer.on() {
        trace
            .wire_s
            .push(read.over_tcp.as_secs_f64() - local.as_secs_f64());
        let (_, bytes) = codec(tracer, op, &read.reply);
        trace.reply_bytes.push(bytes as f64);
    }
    reply_matches(&read.reply, &in_process)
}

/// The TCP delta against the in-process one, then composed onto the
/// block views folded from every earlier delta.
fn check_delta(
    server: &Server,
    tracer: &mut Tracer,
    op: u64,
    since: Generation,
    delta: SnapshotDelta,
    views: &mut BTreeMap<BlockKey, BlockView>,
    epoch: &Epoch,
) -> Result<(), String> {
    let mark = tracer.begin("serve.delta", op);
    let in_process = server.changes_since(since);
    tracer.end(mark);
    let in_process = in_process.map_err(|e| e.to_string())?;
    let reply = Message::Delta { delta };
    if tracer.on() {
        codec(tracer, op, &reply);
    }
    reply_matches(&reply, &Message::Delta { delta: in_process })?;
    let Message::Delta { delta } = reply else {
        unreachable!("built above")
    };
    if delta.to_epoch != epoch.id() {
        return Err(format!(
            "delta ends at epoch {}, the round committed {}",
            delta.to_epoch,
            epoch.id()
        ));
    }
    delta.apply_to(views);
    let mut keys: BTreeSet<BlockKey> = delta.changes.iter().map(|c| c.key.clone()).collect();
    keys.extend(epoch.dirty_keys().cloned());
    views_match(views, epoch, Some(&keys))
}

fn ms(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

fn ms_of(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

fn us(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| d.as_secs_f64() * 1e6).collect()
}

/// A percentile metric; `NaN` (reported as a failure by the caller) when the
/// run has too few samples for it.
fn pct(name: &'static str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
    let enough = q <= 0.5 || samples.len() >= P90_MIN_SAMPLES;
    let value = if enough {
        percentile(samples, q).unwrap_or(f64::NAN)
    } else {
        f64::NAN
    };
    Metric::new(name, unit, value, samples.len())
}

/// Run one workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut ops = Ops::default();

    // each set-up is timed between two readings of the machine's speed
    let (mut setups, mut setup_speeds) = (Vec::new(), Vec::new());
    let mut live: Option<Live> = None;
    let mut speed = yardstick::sample();
    for _ in 0..SETUPS {
        drop(live.take()); // clients close first, then the server joins its threads
        let started = Instant::now();
        live = Some(set_up(workload, args.seed, &mut tracer)?);
        setups.push(started.elapsed());
        let after = yardstick::sample();
        setup_speeds.push((speed + after) / 2);
        speed = after;
    }
    let Live {
        stream,
        mut engine,
        server,
        connection,
        mut net,
    } = live.expect("at least one set-up");

    // the traced run keeps a plan replica at the seed state for the replay
    // after the timed phase, and diffs an in-process subscription after
    // every commit
    let replica = args.trace.then(|| engine.engine().clone());
    let mut feed_diff = args.trace.then(|| FeedDiff::new(server.subscribe()));

    let start = engine.current_epoch();
    let (mut client, subscriber) = match connection {
        Connection::Client(client) => (Some(client), None),
        Connection::Feed(feed) => {
            if feed.start().epoch != start.id() {
                return Err("the subscription did not start at the current epoch".into());
            }
            let fold = FeedFold::new(&start);
            let target = Arc::new(AtomicU64::new(u64::MAX));
            let handle = {
                let target = Arc::clone(&target);
                thread::Builder::new()
                    .name("feed-subscriber".into())
                    .spawn(move || drain_feed(feed, target))
                    .map_err(|e| format!("cannot start the subscriber: {e}"))?
            };
            (None, Some((handle, target, fold)))
        }
    };
    let mut views = client.is_some().then(|| start.block_views());
    let mut prev_generation = start.generation();
    drop(start);

    let mut rng = Rng(args.seed ^ 0x00BE_4C11_AC00);
    let mut commits: Vec<(EpochId, Instant, u64)> = Vec::new();
    let mut noted: Vec<Committed> = Vec::new();
    let (mut commit_d, mut commit_cpu_d, mut append_d, mut read_d, mut delta_d) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // the yardstick's time before each row batch
    let mut speed_d: Vec<Duration> = Vec::new();
    let mut read_trace = ReadTrace::default();
    // the last round's reads, which are at the final generation
    let mut last_reads: Vec<Read> = Vec::new();
    let mut appended: Vec<Vec<Value>> = Vec::new();
    let mut row_batches = 0usize;
    let mut round = 0u64;
    let mut paused = Duration::ZERO;
    let timed = Instant::now();
    let machine = Machine::now();

    for (position, op) in stream.ops.iter().enumerate() {
        let elapsed = timed.elapsed().saturating_sub(paused);
        if elapsed.as_secs_f64() >= args.seconds && row_batches >= MIN_ROW_BATCHES {
            break;
        }
        round += 1;

        // the machine's speed right now, with the clock paused
        let pause = Instant::now();
        let speed = yardstick::measure();
        paused += pause.elapsed();

        // the commit, timed by the wall clock and the writer's CPU clock
        let cpu_before = machine::thread_time();
        let (kind, result, took) = match op {
            StreamOp::Rows(batch) => {
                let mark = tracer.begin("engine.apply", round);
                let result = engine.apply(batch);
                ("commit", result, tracer.end(mark))
            }
            StreamOp::MasterAppend(rows) => {
                let rows = rows.clone();
                let mark = tracer.begin("engine.apply_master_append", round);
                let result = engine.apply_master_append(0, rows);
                ("append", result, tracer.end(mark))
            }
        };
        let returned = Instant::now();
        let cpu_took = machine::thread_time().saturating_sub(cpu_before);
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                ops.errored(kind, e.to_string());
                continue;
            }
        };
        // a commit's output is checked by the snapshot, feed and delta checks
        ops.ok(kind);
        let epoch = engine.current_epoch();
        commits.push((epoch.id(), returned, round));
        match op {
            StreamOp::Rows(_) => {
                commit_d.push(took);
                commit_cpu_d.push(cpu_took);
                speed_d.push(speed);
                row_batches += 1;
            }
            StreamOp::MasterAppend(rows) => {
                append_d.push(took);
                appended.extend(rows.iter().cloned());
            }
        }
        if let Some(diff) = feed_diff.as_mut() {
            let pause = Instant::now();
            diff.commit(&mut tracer, round, outcome.entities_rerepaired);
            noted.push(Committed {
                round,
                op: position,
                took,
                dirty: epoch.dirty_keys().cloned().collect(),
                rerepaired: outcome.entities_rerepaired,
            });
            paused += pause.elapsed();
        }
        let (Mix::Serve { reads }, Some(client), Some(views)) =
            (workload.mix, client.as_mut(), views.as_mut())
        else {
            continue;
        };

        // rest-serve: one delta from the previous round's generation
        let mark = tracer.begin("net.changes_since", round);
        let delta = client.changes_since(prev_generation);
        let took = tracer.end(mark);
        let pause = Instant::now();
        match delta {
            Ok(delta) => {
                delta_d.push(took);
                let verdict = check_delta(
                    &server,
                    &mut tracer,
                    round,
                    prev_generation,
                    delta,
                    views,
                    &epoch,
                );
                ops.checked("delta", verdict);
            }
            Err(e) => ops.errored("delta", e.to_string()),
        }
        prev_generation = epoch.generation();
        let live_rows = epoch.live_rows();
        paused += pause.elapsed();

        // then the round's point reads at the new generation, back to back;
        // their replies are checked once the round's reads end
        let generation = epoch.generation();
        let replies = read_rows(
            client,
            &mut rng,
            &live_rows,
            generation,
            reads,
            &mut tracer,
            round,
            &mut ops,
        );
        let pause = Instant::now();
        for read in &replies {
            read_d.push(read.over_tcp);
            let verdict = check_read(
                &server,
                &mut tracer,
                round,
                generation,
                read,
                &mut read_trace,
            );
            ops.checked("read", verdict);
        }
        last_reads = replies;
        paused += pause.elapsed();
    }
    let measured = timed.elapsed().saturating_sub(paused);
    let waits = Machine::now().since(&machine);
    let last = engine.current_epoch();
    let mut feed_log = FeedLog::default();
    let mut fold = None;
    if let Some((handle, target, folded)) = subscriber {
        target.store(last.id().0, Ordering::SeqCst);
        feed_log = handle
            .join()
            .map_err(|_| "the subscriber thread panicked".to_string())?;
        fold = Some(folded);
    }
    let rss = rss_peak_mb();

    // end-of-run checks; each commit's lag runs until the first received
    // batch that covers its epoch
    let mut lags: Vec<(u64, Duration, usize)> = Vec::new();
    if let Some(mut fold) = fold {
        let mut next = 0usize;
        for &(epoch, returned, round) in &commits {
            while next < feed_log.batches.len() && feed_log.batches[next].1.to_epoch < epoch {
                next += 1;
            }
            if let Some((received, _)) = feed_log.batches.get(next) {
                lags.push((round, received.saturating_duration_since(returned), next));
            }
        }
        for (_, batch) in &feed_log.batches {
            ops.resyncs += u64::from(batch.resync);
            ops.checked("feed", fold.apply(batch));
        }
        if let Some(error) = feed_log.error.clone() {
            ops.errored("feed", error);
        }
        ops.checked("check", fold.matches(&last));
    }
    if let Some(views) = &views {
        ops.checked("check", views_match(views, &last, None));
    }

    // checks against from-scratch repairs
    if workload.mix == Mix::Ingest {
        earlier_commit_checks(&stream, round as usize, &mut ops);
    }
    let (verdict, reference) = snapshot_check(&engine, &stream);
    ops.checked("check", verdict);
    if !last_reads.is_empty() {
        let verdict = last_reads
            .iter()
            .try_for_each(|read| reference.read_matches(read.row, &read.reply));
        ops.checked("check", verdict);
    }
    drop(reference);
    let live_rows = last.live_rows();
    for _ in 0..REFERENCE_SAMPLE {
        let row = live_rows[rng.below(live_rows.len())];
        ops.checked(
            "check",
            reference_chase(&last, &engine, &stream, &appended, row),
        );
    }
    drop(client);
    net.shutdown();

    let measured_s = measured.as_secs_f64();
    // the gated times are at the reference machine speed (see yardstick.rs)
    let setup_ref = yardstick::normalize(&setups, &setup_speeds, 0);
    let commit_ref = yardstick::normalize(&commit_cpu_d, &speed_d, SPEED_REACH);
    let end_to_end = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&setup_ref).unwrap_or(f64::NAN),
            setups.len(),
        ),
        pct("commit_ref_ms_p50", "ms", &ms_of(&commit_ref), 0.5),
        pct("commit_ref_ms_p90", "ms", &ms_of(&commit_ref), 0.9),
        Metric::new("rss_peak_mb", "MB", rss, 1),
    ];
    // printed, not gated: the same times by the wall clock, and the figures
    // of this workload's mix (see the README)
    let setup_wall: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let mut extra = vec![
        Metric::new(
            "setup_wall_s",
            "s",
            median(&setup_wall).unwrap_or(f64::NAN),
            setups.len(),
        ),
        pct("commit_ms_p50", "ms", &ms(&commit_d), 0.5),
        pct("commit_ms_p90", "ms", &ms(&commit_d), 0.9),
        pct("yardstick_ms_p50", "ms", &ms(&speed_d), 0.5),
    ];
    match workload.mix {
        Mix::Ingest => {
            let committed = (commit_d.len() + append_d.len()) as f64;
            let lag_ms: Vec<f64> = lags.iter().map(|l| l.1.as_secs_f64() * 1e3).collect();
            extra.push(Metric::new(
                "commits_per_s",
                "1/s",
                committed / measured_s,
                commits.len(),
            ));
            extra.push(pct("feed_lag_ms_p50", "ms", &lag_ms, 0.5));
            extra.push(pct("feed_lag_ms_p90", "ms", &lag_ms, 0.9));
            if !append_d.is_empty() {
                extra.push(pct("append_ms_p50", "ms", &ms(&append_d), 0.5));
            }
        }
        Mix::Serve { .. } => {
            extra.push(pct("read_us_p50", "us", &us(&read_d), 0.5));
            extra.push(pct("read_us_p90", "us", &us(&read_d), 0.9));
            extra.push(pct("delta_ms_p50", "ms", &ms(&delta_d), 0.5));
        }
    }

    let (mut per_layer, mut per_layer_extra) = (Vec::new(), Vec::new());
    if let (Some(replica), Some(diff)) = (replica, feed_diff) {
        // free the engine's retained epochs before the replicas are built
        drop((last, server, engine, net));
        let mut replay = Replay::new(&stream.relation, replica, resolve_config(&stream));
        replay.seed(&mut tracer, &stream.relation);
        for commit in &noted {
            match &stream.ops[commit.op] {
                StreamOp::Rows(batch) => replay.row_batch(&mut tracer, commit, batch),
                StreamOp::MasterAppend(rows) => replay.master_append(&mut tracer, commit, rows),
            }
        }
        let mismatches = replay.counts.dirty_mismatches;
        ops.checked(
            "check",
            if mismatches == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{mismatches} replayed dirty-block sets differ from the engine's"
                ))
            },
        );
        (per_layer, per_layer_extra) = layer_metrics(
            &mut tracer,
            &replay,
            &diff,
            &read_trace,
            &feed_log.batches,
            &lags,
            workload.mix,
        );
    }

    Ok(Report {
        ops,
        end_to_end,
        extra,
        per_layer,
        per_layer_extra,
        rounds: round,
        measured_s,
        steal_share: waits.0,
        writer_waited_s: waits.1.as_secs_f64(),
        tracer,
    })
}

/// A median over `samples` scaled into the metric's unit.
fn p50(name: &'static str, unit: &'static str, samples: &[f64], scale: f64) -> Metric {
    let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
    pct(name, unit, &scaled, 0.5)
}

/// The per-layer metrics of a traced run, from its spans and counts: those
/// every workload reports, then those of this workload's mix only.  Also
/// times the codec on every feed frame the subscriber received, so the feed
/// lag of each commit can be split into diff, codec and waiting.  `lags`
/// holds `(round, lag, feed batch)` per commit.
fn layer_metrics(
    tracer: &mut Tracer,
    replay: &Replay,
    diff: &FeedDiff,
    read_trace: &ReadTrace,
    feed: &[(Instant, ChangeBatch)],
    lags: &[(u64, Duration, usize)],
    mix: Mix,
) -> (Vec<Metric>, Vec<Metric>) {
    let mut frame_s = Vec::with_capacity(feed.len());
    for (i, (_, batch)) in feed.iter().enumerate() {
        let round = lags.iter().filter(|l| l.2 == i).map(|l| l.0).max();
        let frame = Message::Feed {
            batch: batch.clone(),
        };
        let (spent, _) = codec(tracer, round.unwrap_or(0), &frame);
        frame_s.push(spent.as_secs_f64());
    }
    let feed_diff = tracer.per_op("serve.feed_diff");
    let feed_wait_ms: Vec<f64> = lags
        .iter()
        .map(|&(round, lag, batch)| {
            let diff = feed_diff.get(&round).copied().unwrap_or(0.0);
            (lag.as_secs_f64() - diff - frame_s[batch]) * 1e3
        })
        .collect();

    let counts = &replay.counts;
    let d = |name: &str| tracer.durations(name);
    let sum = |name: &str| d(name).iter().sum::<f64>();
    let searches = d("topk.search");
    let per_layer = vec![
        p50("datagen.build_s", "s", &d("datagen.build"), 1.0),
        p50("store.apply_ms_p50", "ms", &d("store.apply"), 1e3),
        p50(
            "resolve.index_apply_us_p50",
            "us",
            &d("resolve.index_apply"),
            1e6,
        ),
        p50("resolve.block_ms_p50", "ms", &d("resolve.block"), 1e3),
        p50(
            "resolve.pairs_per_commit",
            "count",
            &counts.pairs_per_batch,
            1.0,
        ),
        p50(
            "resolve.kernel_runs_per_commit",
            "count",
            &counts.kernel_runs_per_batch,
            1.0,
        ),
        Metric::new("resolve.seed_s", "s", sum("resolve.seed"), 1),
        p50("core.chase_ms_p50", "ms", &d("core.chase"), 1e3),
        p50(
            "core.ground_steps_per_entity",
            "count",
            &counts.ground_steps,
            1.0,
        ),
        Metric::new(
            "core.applied_step_ratio",
            "ratio",
            counts.steps_applied as f64 / counts.steps_considered.max(1) as f64,
            counts.ground_steps.len(),
        ),
        Metric::new(
            "core.seed_chase_s",
            "s",
            sum("core.seed_chase"),
            d("core.seed_chase").len(),
        ),
        p50("topk.search_ms_p50", "ms", &searches, 1e3),
        Metric::new(
            "topk.search_ms_max",
            "ms",
            searches.iter().copied().fold(0.0, f64::max) * 1e3,
            searches.len(),
        ),
        p50(
            "topk.checks_per_search",
            "count",
            &counts.checks_per_search,
            1.0,
        ),
        Metric::new(
            "topk.seed_search_s",
            "s",
            sum("topk.seed_search"),
            d("topk.seed_search").len(),
        ),
        p50("engine.self_ms_p50", "ms", &counts.engine_self_s, 1e3),
        p50(
            "engine.entities_per_commit",
            "count",
            &counts.entities_per_batch,
            1.0,
        ),
        Metric::new(
            "engine.changed_ratio",
            "ratio",
            diff.changed as f64 / diff.rerepaired.max(1) as f64,
            feed_diff.len(),
        ),
        p50("serve.feed_diff_ms_p50", "ms", &d("serve.feed_diff"), 1e3),
        p50("net.encode_us_p50", "us", &d("net.encode"), 1e6),
        p50("net.decode_us_p50", "us", &d("net.decode"), 1e6),
    ];
    let mut extra = match mix {
        Mix::Ingest => vec![p50("net.feed_wait_ms_p50", "ms", &feed_wait_ms, 1.0)],
        Mix::Serve { .. } => vec![
            p50("engine.locate_us_p50", "us", &d("engine.locate"), 1e6),
            p50("serve.pin_us_p50", "us", &d("serve.pin"), 1e6),
            p50("serve.read_us_p50", "us", &d("serve.read"), 1e6),
            p50("serve.delta_ms_p50", "ms", &d("serve.delta"), 1e3),
            p50("net.reply_bytes_p50", "B", &read_trace.reply_bytes, 1.0),
            p50("net.wire_us_p50", "us", &read_trace.wire_s, 1e6),
        ],
    };
    if !counts.entities_per_append.is_empty() {
        extra.push(p50(
            "core.master_ground_ms_p50",
            "ms",
            &d("core.master_ground"),
            1e3,
        ));
        extra.push(p50(
            "engine.append_entities_p50",
            "count",
            &counts.entities_per_append,
            1.0,
        ));
    }
    (per_layer, extra)
}
