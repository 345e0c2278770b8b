//! The TCP server: one accept loop multiplexing any number of client
//! connections onto one [`relacc_serve::Server`].
//!
//! Threading model: the engine's driver thread stays the single writer; the
//! accept loop and every connection handler run on their own OS threads and
//! touch the engine only through the epoch hub — pinning epochs, composing
//! deltas and draining subscriptions.  A connection can therefore never
//! block a commit: the worst a dead or stalled client costs is its own
//! handler thread parked on a socket, and (for a subscriber) one pinned
//! cursor epoch, which the bounded hub retention turns into a single exact
//! `resync` batch once the cursor is outrun — never a writer stall, never a
//! silent gap.
//!
//! Connection lifecycle: handshake (`Hello`/`HelloOk`, version checked),
//! then request/response frames, until the client either half-closes the
//! socket (EOF at a frame boundary — the handler exits cleanly) or sends
//! `Subscribe`, which flips the connection into **feed mode**: the handler
//! drains a [`relacc_serve::Subscription`] at the socket's pace and pushes
//! one `Feed` frame per cursor advance.  In feed mode the handler waits on
//! the hub, which wakes it when an epoch is published, and between waits
//! probes its read half with a 1 ms timeout, so a half-close or a killed
//! client is noticed promptly and the handler (with its pinned cursor) goes
//! away instead of wedging.

use crate::wire::{
    epoch_error_message, write_frame, ErrorCode, FrameReader, Message, Poll, WireError,
    MAX_REQUEST, PROTOCOL_VERSION,
};
use relacc_serve::Server;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tunables of one [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Socket read timeout: the granularity at which idle request handlers
    /// re-check the shutdown flag.  Never surfaced to the client — a timeout
    /// just loops.  Feed handlers do not block for it: they wait on the hub
    /// and probe the socket briefly in between.
    pub read_timeout: Duration,
    /// Socket write timeout: a response or feed push that cannot make
    /// progress for this long marks the client dead and the handler exits.
    pub write_timeout: Duration,
    /// How long a feed handler waits on the hub for the next epoch before
    /// probing the socket for half-close and stray frames.  A publish ends
    /// the wait at once.
    pub feed_poll: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
            feed_poll: Duration::from_millis(50),
        }
    }
}

/// A running TCP front over one [`Server`]: an accept-loop thread plus one
/// handler thread per live connection.  Dropping the value shuts the
/// listener down and joins the accept loop.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `server`'s epochs.  Returns as soon as the listener is live.
    pub fn spawn(server: Server, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        NetServer::spawn_with(server, addr, ServeOptions::default())
    }

    /// [`NetServer::spawn`] with explicit timeouts.
    pub fn spawn_with(
        server: Server,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_loop = std::thread::Builder::new()
            .name("relacc-net-accept".into())
            .spawn(move || accept_loop(listener, server, options, accept_stop))?;
        Ok(NetServer {
            local_addr,
            stop,
            accept_loop: Some(accept_loop),
        })
    }

    /// The address the listener is bound to (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting connections and wind down handler threads.  Live
    /// handlers notice the flag at their next read-timeout tick; the accept
    /// loop is woken by a loopback connection and joined.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_loop.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    server: Server,
    options: ServeOptions,
    stop: Arc<AtomicBool>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let server = server.clone();
        let options = options.clone();
        let stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("relacc-net-conn".into())
            .spawn(move || {
                // a broken connection is the client's problem, not the
                // server's: handlers end quietly on any error
                let _ = handle_connection(stream, &server, &options, &stop);
            });
        if let Ok(handle) = handle {
            handlers.push(handle);
        }
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// How long a feed handler's socket probe may block between waits on the
/// hub.
const FEED_PROBE: Duration = Duration::from_millis(1);

fn handle_connection(
    stream: TcpStream,
    server: &Server,
    options: &ServeOptions,
    stop: &AtomicBool,
) -> Result<(), WireError> {
    stream.set_read_timeout(Some(options.read_timeout))?;
    stream.set_write_timeout(Some(options.write_timeout))?;
    stream.set_nodelay(true)?;
    // the server only reads requests, so it refuses any larger frame at
    // its length prefix
    let mut reader = FrameReader::with_limit(MAX_REQUEST);
    let mut read_half = stream.try_clone()?;
    let mut write_half = stream.try_clone()?;

    let end = session(
        &mut reader,
        &mut read_half,
        &mut write_half,
        server,
        options,
        stop,
    );
    // best-effort diagnostic for protocol errors, written before the
    // shutdown; transport errors mean the peer is gone and nobody listens
    if let Err(
        e @ (WireError::Malformed(_) | WireError::UnknownType(_) | WireError::Oversized(_)),
    ) = &end
    {
        let _ = write_frame(
            &mut write_half,
            &Message::Error {
                code: ErrorCode::Malformed,
                value: 0,
                detail: e.to_string(),
            },
        );
    }
    let _ = stream.shutdown(Shutdown::Both);
    end
}

/// Block until the next complete frame, tolerating read-timeout ticks.
/// Returns `None` when the client closed or the server is stopping.
fn next_frame(
    reader: &mut FrameReader,
    read_half: &mut TcpStream,
    stop: &AtomicBool,
) -> Result<Option<Message>, WireError> {
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match reader.poll(read_half)? {
            Poll::Frame(payload) => return Ok(Some(Message::decode(&payload)?)),
            Poll::Pending => continue,
            Poll::Closed => return Ok(None),
        }
    }
}

fn session(
    reader: &mut FrameReader,
    read_half: &mut TcpStream,
    write_half: &mut TcpStream,
    server: &Server,
    options: &ServeOptions,
    stop: &AtomicBool,
) -> Result<(), WireError> {
    // --- handshake -------------------------------------------------------
    let Some(hello) = next_frame(reader, read_half, stop)? else {
        return Ok(());
    };
    match hello {
        Message::Hello { version } if version == PROTOCOL_VERSION => {}
        Message::Hello { version } => {
            write_frame(
                write_half,
                &Message::Error {
                    code: ErrorCode::VersionMismatch,
                    value: PROTOCOL_VERSION,
                    detail: format!(
                        "client speaks protocol {version}, server speaks {PROTOCOL_VERSION}"
                    ),
                },
            )?;
            return Ok(());
        }
        other => {
            return Err(WireError::Malformed(format!(
                "expected Hello, got {:?}",
                other.msg_type()
            )));
        }
    }
    write_frame(
        write_half,
        &Message::HelloOk {
            version: PROTOCOL_VERSION,
            schema: server.pin().schema().clone(),
        },
    )?;

    // --- request/response ------------------------------------------------
    loop {
        let Some(request) = next_frame(reader, read_half, stop)? else {
            return Ok(());
        };
        let response = match request {
            Message::Pin => {
                let epoch = server.pin();
                Message::EpochRef {
                    epoch: epoch.id(),
                    generation: epoch.generation(),
                    rows: epoch.len() as u64,
                }
            }
            Message::PinAt { generation } => match server.pin_at(generation) {
                Ok(epoch) => Message::EpochRef {
                    epoch: epoch.id(),
                    generation: epoch.generation(),
                    rows: epoch.len() as u64,
                },
                Err(e) => epoch_error_message(e),
            },
            Message::RepairedRow { row, generation } => {
                match server.repaired_row(row, generation) {
                    Ok(values) => Message::RowReply { row: values },
                    Err(e) => epoch_error_message(e),
                }
            }
            Message::EntityResult { row, generation } => {
                match server.entity_result(row, generation) {
                    Ok(entity) => Message::EntityReply { entity },
                    Err(e) => epoch_error_message(e),
                }
            }
            Message::ChangesSince { since } => match server.changes_since(since) {
                Ok(delta) => Message::Delta { delta },
                Err(e) => epoch_error_message(e),
            },
            Message::Subscribe => {
                return feed(reader, read_half, write_half, server, options, stop);
            }
            other => {
                return Err(WireError::Malformed(format!(
                    "unexpected request {:?}",
                    other.msg_type()
                )));
            }
        };
        write_frame(write_half, &response)?;
    }
}

/// Feed mode: push one `Feed` frame per cursor advance, at this
/// subscriber's own pace.  The subscription's pinned cursor carries the
/// exactness guarantee — outrunning the hub's retention window produces one
/// `resync: true` batch diffed from the pinned cursor, never a gap.
fn feed(
    reader: &mut FrameReader,
    read_half: &mut TcpStream,
    write_half: &mut TcpStream,
    server: &Server,
    options: &ServeOptions,
    stop: &AtomicBool,
) -> Result<(), WireError> {
    let mut subscription = server.subscribe();
    write_frame(
        write_half,
        &Message::SubOk {
            epoch: subscription.last_seen().id(),
            generation: subscription.last_seen().generation(),
        },
    )?;
    // the socket is only probed between waits on the hub, so a probe must
    // not block for the idle read timeout; the read timeout is a socket
    // option the halves share, but the write half never reads
    read_half.set_read_timeout(Some(FEED_PROBE))?;
    loop {
        // wait on the hub first: a publish wakes the wait, so a commit is
        // pushed as soon as it is published
        if let Some(batch) = subscription.next_batch(options.feed_poll) {
            write_frame(write_half, &Message::Feed { batch })?;
        }
        // then notice shutdown, half-close and stray frames
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match reader.poll(read_half)? {
            Poll::Closed => return Ok(()),
            Poll::Pending => {}
            Poll::Frame(_) => {
                return Err(WireError::Malformed(
                    "unexpected frame on a subscribed connection".into(),
                ));
            }
        }
    }
}
