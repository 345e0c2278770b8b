//! `net`: the price of the wire — generation-pinned point reads served over
//! loopback TCP ([`relacc_net::NetClient`]) vs the same reads answered
//! in-process ([`relacc_serve::Server`]), on a mixed read/write Med stream.
//!
//! Both paths hit the identical epoch hub, so the measured gap is exactly
//! the transport: frame encode/decode, one request/response round trip over
//! `127.0.0.1`, and the codec's allocation of the reply.  Every paired read
//! is also compared for **bit identity** (the codec ships floats as raw
//! IEEE-754 bits), and the `mismatches` count is gated to 0 by
//! `tools/bench_gate` — the committed `BENCH_net.json` is a correctness
//! artifact first and a latency report second.  `tcp_reads_per_sec` has a
//! generous floor so a pathological transport regression (e.g. a lost
//! flush turning every read into a socket-timeout wait) fails the gate on
//! any machine.
//!
//! A criterion group repeats both read paths over the final state.

use criterion::Criterion;
use relacc_bench::{median, smoke_mode as smoke, write_report};
use relacc_datagen::streaming::{med_stream, StreamConfig, StreamOp, UpdateStream};
use relacc_engine::{BatchEngine, IncrementalEngine};
use relacc_net::{NetClient, NetServer};
use relacc_resolve::{BlockingStrategy, ResolveConfig};
use relacc_serve::Server;
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

/// Replay the mixed stream, serving every scripted read over TCP and
/// in-process back to back, and write `BENCH_net.json`.  Returns the final
/// engine plus the live server/client pair for the criterion group.
fn net_report() -> (IncrementalEngine, Server, NetServer, NetClient) {
    let stream = stream();
    let mut engine = open_engine(&stream);
    engine.set_epoch_retention(4); // reads always address the fresh head
    let server = Server::new(&engine);
    let net = NetServer::spawn(server.clone(), "127.0.0.1:0").expect("bind a loopback port");
    let mut client = NetClient::connect(net.local_addr()).expect("loopback client connects");

    let mut tcp_ms: Vec<f64> = Vec::new();
    let mut inproc_ms: Vec<f64> = Vec::new();
    let mut tcp_total_s = 0.0f64;
    let mut mismatches = 0usize;
    let mut batch_idx = 0usize;
    for op in &stream.ops {
        match op {
            StreamOp::Rows(batch) => {
                engine.apply(batch).expect("scripted batches stay valid");
                let generation = engine.current_epoch().generation();
                for &row in &stream.reads[batch_idx] {
                    let start = Instant::now();
                    let over_tcp = client
                        .repaired_row(row, generation)
                        .expect("TCP read succeeds");
                    let elapsed = start.elapsed().as_secs_f64();
                    tcp_ms.push(elapsed * 1e3);
                    tcp_total_s += elapsed;

                    let start = Instant::now();
                    let in_process = server
                        .repaired_row(row, generation)
                        .expect("in-process read succeeds");
                    inproc_ms.push(start.elapsed().as_secs_f64() * 1e3);

                    // Debug formatting is bit-exact for f64
                    if format!("{over_tcp:?}") != format!("{in_process:?}") {
                        mismatches += 1;
                    }
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
    let reads = tcp_ms.len();
    let tcp_median = median(&mut tcp_ms);
    let inproc_median = median(&mut inproc_ms);
    let reads_per_sec = if tcp_total_s > 0.0 {
        reads as f64 / tcp_total_s
    } else {
        0.0
    };

    println!(
        "net/med-mixed: {reads} paired reads across {batches} batches over {entities} entities — \
         TCP {tcp_median:.4} ms/read ({reads_per_sec:.0} reads/s), \
         in-process {inproc_median:.4} ms/read, {mismatches} mismatches"
    );

    let json = format!(
        "{{\n  \"bench\": \"net\",\n  \"corpus\": \"med-mixed\",\n  \
         \"entities\": {entities},\n  \"batches\": {batches},\n  \
         \"reads\": {reads},\n  \
         \"tcp_read_ms_median\": {tcp_median:.4},\n  \
         \"inproc_read_ms_median\": {inproc_median:.4},\n  \
         \"tcp_reads_per_sec\": {reads_per_sec:.0},\n  \
         \"mismatches\": {mismatches},\n  \
         \"smoke\": {}\n}}\n",
        smoke(),
    );
    write_report("net", "BENCH_net.json", &json);
    (engine, server, net, client)
}

/// Group output: the same pinned point read over the wire and in-process.
fn bench_reads(
    c: &mut Criterion,
    engine: &IncrementalEngine,
    server: &Server,
    client: &mut NetClient,
) {
    let generation = engine.current_epoch().generation();
    let row = engine
        .relation()
        .rows()
        .iter()
        .next()
        .expect("live rows")
        .id;
    let mut group = c.benchmark_group("net/med-mixed");
    group.sample_size(10);
    group.bench_function("tcp_point_read", |b| {
        b.iter(|| black_box(client.repaired_row(row, generation).unwrap()))
    });
    group.bench_function("inproc_point_read", |b| {
        b.iter(|| black_box(server.repaired_row(row, generation).unwrap()))
    });
    group.finish();
}

fn main() {
    let (engine, server, mut net, mut client) = net_report();
    let mut criterion = Criterion::default();
    bench_reads(&mut criterion, &engine, &server, &mut client);
    drop(client);
    net.shutdown();
}
