//! The versioned binary frame codec of the `relacc` wire protocol.
//!
//! `docs/PROTOCOL.md` at the repository root is the **normative** spec of
//! everything in this module — frame layout, varint rules, message table,
//! version negotiation and the resync semantics.  The byte-level examples in
//! that document are asserted verbatim by the unit tests at the bottom of
//! this file, so the spec and the codec cannot drift apart.
//!
//! In one paragraph: a connection carries **frames**, each a little-endian
//! `u32` payload length followed by the payload, whose first byte is the
//! message type.  Integers inside payloads are unsigned LEB128 varints
//! (signed values zigzag-encoded first), floats are the 8 raw little-endian
//! bytes of their IEEE-754 bit pattern (so values round-trip bit-identically,
//! `-0.0` and every NaN included), strings are a varint byte length followed
//! by UTF-8 bytes, options are a `0`/`1` presence byte, and sequences are a
//! varint count followed by the elements.
//!
//! The codec is symmetric: [`Message::encode`] produces exactly the bytes
//! [`Message::decode`] consumes, property- and vector-tested below.

use relacc_core::{ChaseStats, Conflict};
use relacc_engine::{
    BlockChange, BlockView, EntityOutcome, EntityResult, EntityView, EpochError, EpochId,
    SnapshotDelta,
};
use relacc_model::{AttrId, DataType, Schema, SchemaRef, TargetTuple, Tuple, Value};
use relacc_resolve::{BlockKey, MatchDecision, PruneStage, ResolveStats};
use relacc_serve::{ChangeBatch, EntityChange, EntityChangeKind};
use relacc_store::{Generation, RowId};
use std::io::{self, Read, Write};

/// The protocol version this build speaks.  A server receiving a `Hello`
/// with a different version answers [`Message::Error`] with
/// [`ErrorCode::VersionMismatch`] (carrying its own version) and closes.
pub const PROTOCOL_VERSION: u64 = 1;

/// The four magic bytes opening every `Hello` payload: `"RLAC"`.
pub const MAGIC: [u8; 4] = *b"RLAC";

/// Hard ceiling on one frame's payload size (64 MiB).  A peer announcing a
/// larger frame is malformed (or hostile) and the connection is dropped.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Message type tags, one per [`Message`] variant.  The numeric values are
/// wire format: they may never be reused or renumbered within a protocol
/// version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Client → server: connection opener (magic + version).
    Hello = 0x01,
    /// Server → client: handshake accepted (version + relation schema).
    HelloOk = 0x02,
    /// Server → client: request failed or connection-level error.
    Error = 0x03,
    /// Client → server: pin the current epoch.
    Pin = 0x10,
    /// Client → server: pin the epoch of a generation.
    PinAt = 0x11,
    /// Client → server: generation-addressed repaired-row point read.
    RepairedRow = 0x12,
    /// Client → server: generation-addressed entity read.
    EntityResult = 0x13,
    /// Client → server: whole-block delta since a generation.
    ChangesSince = 0x14,
    /// Client → server: switch this connection into feed mode.
    Subscribe = 0x15,
    /// Server → client: a pinned epoch reference.
    EpochRef = 0x20,
    /// Server → client: a repaired-row answer.
    RowReply = 0x21,
    /// Server → client: an entity answer.
    EntityReply = 0x22,
    /// Server → client: a snapshot delta.
    Delta = 0x23,
    /// Server → client: subscription accepted; feed follows.
    SubOk = 0x24,
    /// Server → client: one pushed change batch (feed mode only).
    Feed = 0x25,
}

impl MsgType {
    fn of(byte: u8) -> Result<MsgType, WireError> {
        Ok(match byte {
            0x01 => MsgType::Hello,
            0x02 => MsgType::HelloOk,
            0x03 => MsgType::Error,
            0x10 => MsgType::Pin,
            0x11 => MsgType::PinAt,
            0x12 => MsgType::RepairedRow,
            0x13 => MsgType::EntityResult,
            0x14 => MsgType::ChangesSince,
            0x15 => MsgType::Subscribe,
            0x20 => MsgType::EpochRef,
            0x21 => MsgType::RowReply,
            0x22 => MsgType::EntityReply,
            0x23 => MsgType::Delta,
            0x24 => MsgType::SubOk,
            0x25 => MsgType::Feed,
            other => return Err(WireError::UnknownType(other)),
        })
    }
}

/// Error codes carried by [`Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The addressed generation left the server's retention window
    /// ([`EpochError::Evicted`]); the attached generation is the evicted one.
    Evicted = 1,
    /// The addressed generation was never published
    /// ([`EpochError::Unknown`]).
    Unknown = 2,
    /// Handshake version mismatch; the attached generation field carries the
    /// server's protocol version instead.
    VersionMismatch = 3,
    /// The peer sent a frame the server could not parse or did not expect.
    Malformed = 4,
}

impl ErrorCode {
    fn of(byte: u8) -> Result<ErrorCode, WireError> {
        Ok(match byte {
            1 => ErrorCode::Evicted,
            2 => ErrorCode::Unknown,
            3 => ErrorCode::VersionMismatch,
            4 => ErrorCode::Malformed,
            other => return Err(WireError::Malformed(format!("error code {other}"))),
        })
    }
}

/// A decoded protocol message — request, response or pushed feed batch.
///
/// Messages are transient: one lives exactly as long as it takes to encode
/// it into a frame or hand the decoded payload to the caller, so the size
/// skew between a bare `Pin` and an `EntityReply` never sits in a hot
/// collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Message {
    /// Connection opener: magic + the client's protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u64,
    },
    /// Handshake accepted: the server's version and the served relation's
    /// schema, so the client can interpret rows and assemble snapshots.
    HelloOk {
        /// The server's [`PROTOCOL_VERSION`].
        version: u64,
        /// The served relation's schema.
        schema: SchemaRef,
    },
    /// A failed request (or a failed handshake).  `detail` is diagnostic
    /// only; `code` + `value` are the machine-readable part.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// The generation involved (or the server version for
        /// [`ErrorCode::VersionMismatch`]).
        value: u64,
        /// Human-readable diagnostic.
        detail: String,
    },
    /// Pin the current epoch.
    Pin,
    /// Pin the earliest retained epoch of `generation`.
    PinAt {
        /// The generation to pin.
        generation: Generation,
    },
    /// Point read: the repaired row of `row`'s entity at `generation`.
    RepairedRow {
        /// Global row id.
        row: RowId,
        /// The pinned generation to answer at.
        generation: Generation,
    },
    /// Point read: the full entity owning `row` at `generation`.
    EntityResult {
        /// Global row id.
        row: RowId,
        /// The pinned generation to answer at.
        generation: Generation,
    },
    /// Whole-block delta between `since` and the current epoch.
    ChangesSince {
        /// The base generation.
        since: Generation,
    },
    /// Switch the connection into feed mode.
    Subscribe,
    /// A pinned epoch: its publish id, generation and live-row count.
    EpochRef {
        /// The epoch's publish identity.
        epoch: EpochId,
        /// The row-batch generation it reflects.
        generation: Generation,
        /// Number of live rows it pins.
        rows: u64,
    },
    /// Answer to [`Message::RepairedRow`]: the repaired values, or `None`
    /// when the row was not live (or its entity materializes no row).
    RowReply {
        /// The repaired row, if any.
        row: Option<Vec<Value>>,
    },
    /// Answer to [`Message::EntityResult`].
    EntityReply {
        /// The entity view, or `None` when the row was not live.
        entity: Option<EntityView>,
    },
    /// Answer to [`Message::ChangesSince`].
    Delta {
        /// The whole-block snapshot delta.
        delta: SnapshotDelta,
    },
    /// Subscription accepted; the cursor starts at this epoch.
    SubOk {
        /// The cursor's starting epoch.
        epoch: EpochId,
        /// The cursor's starting generation.
        generation: Generation,
    },
    /// One pushed change batch (feed mode).
    Feed {
        /// The entity-level changes since the subscriber's cursor.
        batch: ChangeBatch,
    },
}

/// Decode-side failures.  Encoding is infallible.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// A frame announced a payload larger than [`MAX_FRAME`].
    Oversized(u32),
    /// An unknown message-type byte.
    UnknownType(u8),
    /// Structurally invalid payload bytes.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport: {e}"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            WireError::UnknownType(t) => write!(f, "unknown message type 0x{t:02x}"),
            WireError::Malformed(d) => write!(f, "malformed payload: {d}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// primitive encoders
// ---------------------------------------------------------------------------

/// Append an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-map a signed integer onto an unsigned one (`0, -1, 1, -2, …` →
/// `0, 1, 2, 3, …`) and append it as a varint.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            put_bool(out, *b);
        }
        Value::Int(i) => {
            out.push(2);
            put_zigzag(out, *i);
        }
        Value::Float(x) => {
            out.push(3);
            put_f64(out, *x);
        }
        Value::Str(s) => {
            out.push(4);
            put_string(out, s);
        }
    }
}

fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_varint(out, values.len() as u64);
    for v in values {
        put_value(out, v);
    }
}

fn put_opt_values(out: &mut Vec<u8>, values: &Option<Vec<Value>>) {
    match values {
        None => out.push(0),
        Some(vs) => {
            out.push(1);
            put_values(out, vs);
        }
    }
}

fn put_block_key(out: &mut Vec<u8>, key: &BlockKey) {
    match key {
        BlockKey::Key(s) => {
            out.push(0);
            put_string(out, s);
        }
        BlockKey::Singleton(id) => {
            out.push(1);
            put_varint(out, id.0);
        }
    }
}

fn put_chase_stats(out: &mut Vec<u8>, s: &ChaseStats) {
    for n in [
        s.ground_steps,
        s.pairs_considered,
        s.steps_considered,
        s.steps_applied,
        s.noop_steps,
        s.order_pairs_added,
        s.target_assignments,
        s.full_checks,
        s.delta_checks,
        s.delta_steps_replayed,
    ] {
        put_varint(out, n as u64);
    }
}

fn put_entity_result(out: &mut Vec<u8>, r: &EntityResult) {
    put_varint(out, r.entity as u64);
    put_varint(out, r.records.len() as u64);
    for &rec in &r.records {
        put_varint(out, rec as u64);
    }
    out.push(match r.outcome {
        EntityOutcome::Complete => 0,
        EntityOutcome::Suggested => 1,
        EntityOutcome::NeedsUser => 2,
        EntityOutcome::NotChurchRosser => 3,
    });
    put_values(out, r.deduced.values());
    match &r.suggestion {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_values(out, t.values());
        }
    }
    match &r.suggestion_error {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            put_string(out, e);
        }
    }
    match &r.conflict {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_string(out, &c.rule);
            put_varint(out, c.attr.0 as u64);
            put_string(out, &c.detail);
        }
    }
    put_chase_stats(out, &r.stats);
}

fn put_entity_view(out: &mut Vec<u8>, e: &EntityView) {
    put_varint(out, e.records.len() as u64);
    for r in &e.records {
        put_varint(out, r.0);
    }
    put_opt_values(out, &e.repaired);
    put_entity_result(out, &e.result);
}

fn put_opt_entity_view(out: &mut Vec<u8>, e: &Option<EntityView>) {
    match e {
        None => out.push(0),
        Some(view) => {
            out.push(1);
            put_entity_view(out, view);
        }
    }
}

fn put_resolve_stats(out: &mut Vec<u8>, s: &ResolveStats) {
    for n in [
        s.pairs_considered,
        s.pruned_by_length,
        s.pruned_by_fingerprint,
        s.dp_runs,
    ] {
        put_varint(out, n as u64);
    }
}

fn put_decision(out: &mut Vec<u8>, d: &MatchDecision) {
    put_varint(out, d.left as u64);
    put_varint(out, d.right as u64);
    put_f64(out, d.similarity);
    put_bool(out, d.matched);
    out.push(match d.pruned {
        None => 0,
        Some(PruneStage::Length) => 1,
        Some(PruneStage::Fingerprint) => 2,
    });
}

fn put_block_view(out: &mut Vec<u8>, b: &BlockView) {
    put_block_key(out, &b.key);
    put_varint(out, b.rows.len() as u64);
    for (id, tuple) in &b.rows {
        put_varint(out, id.0);
        put_values(out, tuple.values());
    }
    put_varint(out, b.decisions.len() as u64);
    for d in &b.decisions {
        put_decision(out, d);
    }
    put_varint(out, b.entities.len() as u64);
    for e in &b.entities {
        put_entity_view(out, e);
    }
    put_resolve_stats(out, &b.stats);
}

fn put_delta(out: &mut Vec<u8>, d: &SnapshotDelta) {
    put_varint(out, d.from.0);
    put_varint(out, d.from_epoch.0);
    put_varint(out, d.to.0);
    put_varint(out, d.to_epoch.0);
    put_varint(out, d.changes.len() as u64);
    for change in &d.changes {
        put_block_key(out, &change.key);
        match &change.after {
            None => out.push(0),
            Some(view) => {
                out.push(1);
                put_block_view(out, view);
            }
        }
    }
}

fn put_change_batch(out: &mut Vec<u8>, b: &ChangeBatch) {
    put_varint(out, b.from.0);
    put_varint(out, b.from_epoch.0);
    put_varint(out, b.to.0);
    put_varint(out, b.to_epoch.0);
    put_bool(out, b.resync);
    put_varint(out, b.changes.len() as u64);
    for change in &b.changes {
        put_block_key(out, &change.block);
        match &change.kind {
            EntityChangeKind::Upserted(view) => {
                out.push(0);
                put_entity_view(out, view);
            }
            EntityChangeKind::Removed { records } => {
                out.push(1);
                put_varint(out, records.len() as u64);
                for r in records {
                    put_varint(out, r.0);
                }
            }
        }
    }
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_string(out, schema.name());
    put_varint(out, schema.arity() as u64);
    for attr in schema.attributes() {
        put_string(out, &attr.name);
        out.push(match attr.ty {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Text => 3,
        });
    }
}

// ---------------------------------------------------------------------------
// primitive decoders
// ---------------------------------------------------------------------------

/// A cursor over one frame's payload bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| WireError::Malformed("payload truncated".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("payload truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Malformed("varint overflows u64".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Malformed("varint longer than 10 bytes".into()));
            }
        }
    }

    fn zigzag(&mut self) -> Result<i64, WireError> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.varint()?)
            .map_err(|_| WireError::Malformed("count exceeds usize".into()))
    }

    /// A sequence count, sanity-bounded by the remaining payload (every
    /// element costs at least one byte) so a corrupt count cannot trigger a
    /// huge allocation.
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(WireError::Malformed(format!(
                "count {n} exceeds remaining payload"
            )));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.count()?;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        let bytes = self.bytes(8)?;
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes.try_into().expect("sliced 8 bytes"),
        )))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("bool byte {other}"))),
        }
    }

    fn value(&mut self) -> Result<Value, WireError> {
        Ok(match self.byte()? {
            0 => Value::Null,
            1 => Value::Bool(self.bool()?),
            2 => Value::Int(self.zigzag()?),
            3 => Value::Float(self.f64()?),
            4 => Value::Str(self.string()?.into()),
            other => return Err(WireError::Malformed(format!("value tag {other}"))),
        })
    }

    fn values(&mut self) -> Result<Vec<Value>, WireError> {
        let n = self.count()?;
        (0..n).map(|_| self.value()).collect()
    }

    fn opt_values(&mut self) -> Result<Option<Vec<Value>>, WireError> {
        Ok(match self.byte()? {
            0 => None,
            1 => Some(self.values()?),
            other => return Err(WireError::Malformed(format!("option byte {other}"))),
        })
    }

    fn block_key(&mut self) -> Result<BlockKey, WireError> {
        Ok(match self.byte()? {
            0 => BlockKey::Key(self.string()?),
            1 => BlockKey::Singleton(RowId(self.varint()?)),
            other => return Err(WireError::Malformed(format!("block-key tag {other}"))),
        })
    }

    fn row_ids(&mut self) -> Result<Vec<RowId>, WireError> {
        let n = self.count()?;
        (0..n).map(|_| Ok(RowId(self.varint()?))).collect()
    }

    fn chase_stats(&mut self) -> Result<ChaseStats, WireError> {
        Ok(ChaseStats {
            ground_steps: self.usize()?,
            pairs_considered: self.usize()?,
            steps_considered: self.usize()?,
            steps_applied: self.usize()?,
            noop_steps: self.usize()?,
            order_pairs_added: self.usize()?,
            target_assignments: self.usize()?,
            full_checks: self.usize()?,
            delta_checks: self.usize()?,
            delta_steps_replayed: self.usize()?,
        })
    }

    fn entity_result(&mut self) -> Result<EntityResult, WireError> {
        let entity = self.usize()?;
        let n = self.count()?;
        let records = (0..n)
            .map(|_| self.usize())
            .collect::<Result<Vec<_>, _>>()?;
        let outcome = match self.byte()? {
            0 => EntityOutcome::Complete,
            1 => EntityOutcome::Suggested,
            2 => EntityOutcome::NeedsUser,
            3 => EntityOutcome::NotChurchRosser,
            other => return Err(WireError::Malformed(format!("outcome tag {other}"))),
        };
        let deduced = TargetTuple::from_values(self.values()?);
        let suggestion = match self.byte()? {
            0 => None,
            1 => Some(TargetTuple::from_values(self.values()?)),
            other => return Err(WireError::Malformed(format!("option byte {other}"))),
        };
        let suggestion_error = match self.byte()? {
            0 => None,
            1 => Some(self.string()?),
            other => return Err(WireError::Malformed(format!("option byte {other}"))),
        };
        let conflict = match self.byte()? {
            0 => None,
            1 => Some(Conflict {
                rule: self.string()?,
                attr: AttrId(self.usize()?),
                detail: self.string()?,
            }),
            other => return Err(WireError::Malformed(format!("option byte {other}"))),
        };
        let stats = self.chase_stats()?;
        Ok(EntityResult {
            entity,
            records,
            outcome,
            deduced,
            suggestion,
            suggestion_error,
            conflict,
            stats,
        })
    }

    fn entity_view(&mut self) -> Result<EntityView, WireError> {
        Ok(EntityView {
            records: self.row_ids()?,
            repaired: self.opt_values()?,
            result: self.entity_result()?,
        })
    }

    fn opt_entity_view(&mut self) -> Result<Option<EntityView>, WireError> {
        Ok(match self.byte()? {
            0 => None,
            1 => Some(self.entity_view()?),
            other => return Err(WireError::Malformed(format!("option byte {other}"))),
        })
    }

    fn resolve_stats(&mut self) -> Result<ResolveStats, WireError> {
        Ok(ResolveStats {
            pairs_considered: self.usize()?,
            pruned_by_length: self.usize()?,
            pruned_by_fingerprint: self.usize()?,
            dp_runs: self.usize()?,
        })
    }

    fn decision(&mut self) -> Result<MatchDecision, WireError> {
        Ok(MatchDecision {
            left: self.usize()?,
            right: self.usize()?,
            similarity: self.f64()?,
            matched: self.bool()?,
            pruned: match self.byte()? {
                0 => None,
                1 => Some(PruneStage::Length),
                2 => Some(PruneStage::Fingerprint),
                other => return Err(WireError::Malformed(format!("prune tag {other}"))),
            },
        })
    }

    fn block_view(&mut self) -> Result<BlockView, WireError> {
        let key = self.block_key()?;
        let n = self.count()?;
        let rows = (0..n)
            .map(|_| Ok((RowId(self.varint()?), Tuple::new(self.values()?))))
            .collect::<Result<Vec<_>, WireError>>()?;
        let n = self.count()?;
        let decisions = (0..n)
            .map(|_| self.decision())
            .collect::<Result<Vec<_>, _>>()?;
        let n = self.count()?;
        let entities = (0..n)
            .map(|_| self.entity_view())
            .collect::<Result<Vec<_>, _>>()?;
        let stats = self.resolve_stats()?;
        Ok(BlockView {
            key,
            rows,
            decisions,
            entities,
            stats,
        })
    }

    fn delta(&mut self) -> Result<SnapshotDelta, WireError> {
        let from = Generation(self.varint()?);
        let from_epoch = EpochId(self.varint()?);
        let to = Generation(self.varint()?);
        let to_epoch = EpochId(self.varint()?);
        let n = self.count()?;
        let changes = (0..n)
            .map(|_| {
                let key = self.block_key()?;
                let after = match self.byte()? {
                    0 => None,
                    1 => Some(self.block_view()?),
                    other => return Err(WireError::Malformed(format!("option byte {other}"))),
                };
                Ok(BlockChange { key, after })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(SnapshotDelta {
            from,
            from_epoch,
            to,
            to_epoch,
            changes,
        })
    }

    fn change_batch(&mut self) -> Result<ChangeBatch, WireError> {
        let from = Generation(self.varint()?);
        let from_epoch = EpochId(self.varint()?);
        let to = Generation(self.varint()?);
        let to_epoch = EpochId(self.varint()?);
        let resync = self.bool()?;
        let n = self.count()?;
        let changes = (0..n)
            .map(|_| {
                let block = self.block_key()?;
                let kind = match self.byte()? {
                    0 => EntityChangeKind::Upserted(Box::new(self.entity_view()?)),
                    1 => EntityChangeKind::Removed {
                        records: self.row_ids()?,
                    },
                    other => return Err(WireError::Malformed(format!("change tag {other}"))),
                };
                Ok(EntityChange { block, kind })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(ChangeBatch {
            from,
            from_epoch,
            to,
            to_epoch,
            resync,
            changes,
        })
    }

    fn schema(&mut self) -> Result<SchemaRef, WireError> {
        let name = self.string()?;
        let n = self.count()?;
        let mut builder = Schema::builder(name);
        for _ in 0..n {
            let attr = self.string()?;
            let ty = match self.byte()? {
                0 => DataType::Bool,
                1 => DataType::Int,
                2 => DataType::Float,
                3 => DataType::Text,
                other => return Err(WireError::Malformed(format!("data-type tag {other}"))),
            };
            builder = builder.attr(attr, ty);
        }
        Ok(builder.build())
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Message {
    /// The message's wire type tag.
    pub fn msg_type(&self) -> MsgType {
        match self {
            Message::Hello { .. } => MsgType::Hello,
            Message::HelloOk { .. } => MsgType::HelloOk,
            Message::Error { .. } => MsgType::Error,
            Message::Pin => MsgType::Pin,
            Message::PinAt { .. } => MsgType::PinAt,
            Message::RepairedRow { .. } => MsgType::RepairedRow,
            Message::EntityResult { .. } => MsgType::EntityResult,
            Message::ChangesSince { .. } => MsgType::ChangesSince,
            Message::Subscribe => MsgType::Subscribe,
            Message::EpochRef { .. } => MsgType::EpochRef,
            Message::RowReply { .. } => MsgType::RowReply,
            Message::EntityReply { .. } => MsgType::EntityReply,
            Message::Delta { .. } => MsgType::Delta,
            Message::SubOk { .. } => MsgType::SubOk,
            Message::Feed { .. } => MsgType::Feed,
        }
    }

    /// Encode the message as one frame: `u32` little-endian payload length,
    /// then the payload (type byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(16);
        payload.push(self.msg_type() as u8);
        match self {
            Message::Hello { version } => {
                payload.extend_from_slice(&MAGIC);
                put_varint(&mut payload, *version);
            }
            Message::HelloOk { version, schema } => {
                put_varint(&mut payload, *version);
                put_schema(&mut payload, schema);
            }
            Message::Error {
                code,
                value,
                detail,
            } => {
                payload.push(*code as u8);
                put_varint(&mut payload, *value);
                put_string(&mut payload, detail);
            }
            Message::Pin | Message::Subscribe => {}
            Message::PinAt { generation } => put_varint(&mut payload, generation.0),
            Message::RepairedRow { row, generation }
            | Message::EntityResult { row, generation } => {
                put_varint(&mut payload, row.0);
                put_varint(&mut payload, generation.0);
            }
            Message::ChangesSince { since } => put_varint(&mut payload, since.0),
            Message::EpochRef {
                epoch,
                generation,
                rows,
            } => {
                put_varint(&mut payload, epoch.0);
                put_varint(&mut payload, generation.0);
                put_varint(&mut payload, *rows);
            }
            Message::RowReply { row } => put_opt_values(&mut payload, row),
            Message::EntityReply { entity } => put_opt_entity_view(&mut payload, entity),
            Message::Delta { delta } => put_delta(&mut payload, delta),
            Message::SubOk { epoch, generation } => {
                put_varint(&mut payload, epoch.0);
                put_varint(&mut payload, generation.0);
            }
            Message::Feed { batch } => put_change_batch(&mut payload, batch),
        }
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("frame fits u32")
                .to_le_bytes(),
        );
        frame.extend_from_slice(&payload);
        frame
    }

    /// Decode one frame payload (the bytes after the length prefix).
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(payload);
        let msg_type = MsgType::of(r.byte()?)?;
        let message = match msg_type {
            MsgType::Hello => {
                let magic = r.bytes(4)?;
                if magic != MAGIC {
                    return Err(WireError::Malformed(format!("bad magic {magic:02x?}")));
                }
                Message::Hello {
                    version: r.varint()?,
                }
            }
            MsgType::HelloOk => Message::HelloOk {
                version: r.varint()?,
                schema: r.schema()?,
            },
            MsgType::Error => Message::Error {
                code: ErrorCode::of(r.byte()?)?,
                value: r.varint()?,
                detail: r.string()?,
            },
            MsgType::Pin => Message::Pin,
            MsgType::PinAt => Message::PinAt {
                generation: Generation(r.varint()?),
            },
            MsgType::RepairedRow => Message::RepairedRow {
                row: RowId(r.varint()?),
                generation: Generation(r.varint()?),
            },
            MsgType::EntityResult => Message::EntityResult {
                row: RowId(r.varint()?),
                generation: Generation(r.varint()?),
            },
            MsgType::ChangesSince => Message::ChangesSince {
                since: Generation(r.varint()?),
            },
            MsgType::Subscribe => Message::Subscribe,
            MsgType::EpochRef => Message::EpochRef {
                epoch: EpochId(r.varint()?),
                generation: Generation(r.varint()?),
                rows: r.varint()?,
            },
            MsgType::RowReply => Message::RowReply {
                row: r.opt_values()?,
            },
            MsgType::EntityReply => Message::EntityReply {
                entity: r.opt_entity_view()?,
            },
            MsgType::Delta => Message::Delta { delta: r.delta()? },
            MsgType::SubOk => Message::SubOk {
                epoch: EpochId(r.varint()?),
                generation: Generation(r.varint()?),
            },
            MsgType::Feed => Message::Feed {
                batch: r.change_batch()?,
            },
        };
        r.finish()?;
        Ok(message)
    }
}

/// Map an [`EpochError`] onto its wire error frame.
pub fn epoch_error_message(e: EpochError) -> Message {
    let (code, value) = match e {
        EpochError::Evicted(g) => (ErrorCode::Evicted, g.0),
        EpochError::Unknown(g) => (ErrorCode::Unknown, g.0),
    };
    Message::Error {
        code,
        value,
        detail: e.to_string(),
    }
}

/// Map a wire error frame back onto the [`EpochError`] it carried, if it
/// carries one.
pub fn epoch_error_of(code: ErrorCode, value: u64) -> Option<EpochError> {
    match code {
        ErrorCode::Evicted => Some(EpochError::Evicted(Generation(value))),
        ErrorCode::Unknown => Some(EpochError::Unknown(Generation(value))),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// framed transport
// ---------------------------------------------------------------------------

/// Bytes a [`FrameReader`] asks its stream for per read.
const READ_CHUNK: usize = 16 * 1024;

/// Write one encoded frame to a stream and flush it.
pub fn write_frame(w: &mut impl Write, message: &Message) -> io::Result<()> {
    w.write_all(&message.encode())?;
    w.flush()
}

/// An incremental frame reader that tolerates read timeouts: partial frames
/// are buffered across calls, so a `WouldBlock`/`TimedOut` in the middle of
/// a frame never loses bytes.  This is what lets a connection handler poll
/// its socket on a short timeout (to notice shutdown or a half-close)
/// without corrupting the stream.
///
/// The buffer holds only bytes actually received: a length prefix alone
/// reserves nothing, so a peer that announces a large frame and stalls costs
/// what it sent, not what it announced.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received bytes not yet returned as a frame, length prefix included.
    buf: Vec<u8>,
}

/// One poll of a [`FrameReader`].
#[derive(Debug)]
pub enum Poll {
    /// A complete frame payload arrived.
    Frame(Vec<u8>),
    /// No complete frame yet (the read timed out mid-stream); poll again.
    Pending,
    /// The peer closed its write half cleanly (EOF).
    Closed,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Try to complete one frame from `r`.  Returns [`Poll::Pending`] when
    /// the read timed out before a frame completed (call again), and
    /// [`Poll::Closed`] on EOF at a frame boundary.  EOF in the *middle* of
    /// a frame is an error (the peer died mid-send).
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Poll, WireError> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            // complete frame already buffered?
            if let Some(prefix) = self.buf.first_chunk::<4>() {
                let announced = u32::from_le_bytes(*prefix);
                if announced > MAX_FRAME {
                    return Err(WireError::Oversized(announced));
                }
                let end = 4 + announced as usize;
                if self.buf.len() >= end {
                    let payload = self.buf[4..end].to_vec();
                    self.buf.drain(..end);
                    return Ok(Poll::Frame(payload));
                }
            }
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(Poll::Closed)
                    } else {
                        Err(WireError::Malformed("EOF mid-frame".into()))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Poll::Pending);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes
            .iter()
            .map(|b| format!("{b:02X}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Split a full frame into its length prefix and payload, check the
    /// prefix, and decode the payload.
    fn decode_frame(frame: &[u8]) -> Message {
        assert!(frame.len() >= 4, "frame shorter than its length prefix");
        let announced = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), 4 + announced, "length prefix must match");
        Message::decode(&frame[4..]).expect("frame payload decodes")
    }

    /// Encode → decode must reproduce the message exactly.  Compared via
    /// `Debug` strings: the engine types carry no `PartialEq`, and `f64`'s
    /// `Debug` prints the shortest round-trip representation, so identical
    /// strings ⇔ identical bits.
    fn roundtrip(msg: &Message) {
        let decoded = decode_frame(&msg.encode());
        assert_eq!(format!("{msg:?}"), format!("{decoded:?}"));
    }

    fn sample_schema() -> SchemaRef {
        Schema::builder("stat")
            .attr("name", DataType::Text)
            .attr("active", DataType::Bool)
            .attr("rnds", DataType::Int)
            .attr("ppg", DataType::Float)
            .build()
    }

    fn sample_result() -> EntityResult {
        EntityResult {
            entity: 3,
            records: vec![0, 2],
            outcome: EntityOutcome::Suggested,
            deduced: TargetTuple::from_values(vec![
                Value::text("mj"),
                Value::Null,
                Value::Int(-82),
                Value::Float(31.2),
            ]),
            suggestion: Some(TargetTuple::from_values(vec![
                Value::text("mj"),
                Value::Bool(true),
                Value::Int(82),
                Value::Float(0.0),
            ])),
            suggestion_error: Some("ties at k=2".into()),
            conflict: Some(Conflict {
                rule: "cur".into(),
                attr: AttrId(2),
                detail: "cycle".into(),
            }),
            stats: ChaseStats {
                ground_steps: 1,
                pairs_considered: 2,
                steps_considered: 3,
                steps_applied: 4,
                noop_steps: 5,
                order_pairs_added: 6,
                target_assignments: 7,
                full_checks: 8,
                delta_checks: 9,
                delta_steps_replayed: 10,
            },
        }
    }

    fn sample_view() -> EntityView {
        EntityView {
            records: vec![RowId(4), RowId(300)],
            repaired: Some(vec![
                Value::text("mj"),
                Value::Bool(false),
                Value::Int(27),
                Value::Float(-0.0),
            ]),
            result: sample_result(),
        }
    }

    fn sample_block_view() -> BlockView {
        BlockView {
            key: BlockKey::Key("mj".into()),
            rows: vec![
                (RowId(4), Tuple::new(vec![Value::text("mj"), Value::Int(1)])),
                (
                    RowId(300),
                    Tuple::new(vec![Value::Null, Value::Float(f64::NAN)]),
                ),
            ],
            decisions: vec![
                MatchDecision {
                    left: 0,
                    right: 1,
                    similarity: 0.875,
                    matched: true,
                    pruned: None,
                },
                MatchDecision {
                    left: 0,
                    right: 2,
                    similarity: 0.0,
                    matched: false,
                    pruned: Some(PruneStage::Fingerprint),
                },
            ],
            entities: vec![sample_view()],
            stats: ResolveStats {
                pairs_considered: 3,
                pruned_by_length: 1,
                pruned_by_fingerprint: 1,
                dp_runs: 1,
            },
        }
    }

    // -- the normative byte examples -------------------------------------

    /// Every byte-level example in `docs/PROTOCOL.md` is produced here by
    /// the real encoder and must appear verbatim in the document — the
    /// spec and the codec cannot drift apart.
    #[test]
    fn protocol_md_examples_are_exact() {
        let doc = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/PROTOCOL.md"
        ));

        let mut examples: Vec<(&str, Vec<u8>)> = Vec::new();

        let mut b = Vec::new();
        put_varint(&mut b, 300);
        examples.push(("AC 02", b));

        let mut b = Vec::new();
        put_varint(&mut b, 1_000_000);
        examples.push(("C0 84 3D", b));

        let mut b = Vec::new();
        put_zigzag(&mut b, -3);
        examples.push(("05", b));

        let mut b = Vec::new();
        put_zigzag(&mut b, -1000);
        examples.push(("CF 0F", b));

        let mut b = Vec::new();
        put_value(&mut b, &Value::Int(27));
        examples.push(("02 36", b));

        let mut b = Vec::new();
        put_value(&mut b, &Value::text("mj"));
        examples.push(("04 02 6D 6A", b));

        let mut b = Vec::new();
        put_value(&mut b, &Value::Float(31.2));
        examples.push(("03 33 33 33 33 33 33 3F 40", b));

        examples.push(("01 00 00 00 10", Message::Pin.encode()));
        examples.push((
            "06 00 00 00 01 52 4C 41 43 01",
            Message::Hello {
                version: PROTOCOL_VERSION,
            }
            .encode(),
        ));
        examples.push((
            "02 00 00 00 11 07",
            Message::PinAt {
                generation: Generation(7),
            }
            .encode(),
        ));
        examples.push((
            "03 00 00 00 12 05 07",
            Message::RepairedRow {
                row: RowId(5),
                generation: Generation(7),
            }
            .encode(),
        ));
        examples.push((
            "08 00 00 00 03 01 03 04 67 6F 6E 65",
            Message::Error {
                code: ErrorCode::Evicted,
                value: 3,
                detail: "gone".into(),
            }
            .encode(),
        ));

        for (documented, actual) in &examples {
            assert_eq!(
                &hex(actual),
                documented,
                "encoder output drifted from the PROTOCOL.md example `{documented}`"
            );
            assert!(
                doc.contains(documented),
                "docs/PROTOCOL.md no longer shows the example bytes `{documented}`"
            );
        }

        // the named constants the doc quotes
        assert!(
            doc.contains("67108864"),
            "MAX_FRAME value must be documented"
        );
        assert_eq!(MAX_FRAME, 67_108_864);
        assert!(
            doc.contains("# The relacc wire protocol, version 1") && PROTOCOL_VERSION == 1,
            "the documented protocol version must match PROTOCOL_VERSION"
        );
    }

    // -- roundtrips ------------------------------------------------------

    #[test]
    fn every_message_roundtrips() {
        roundtrip(&Message::Hello { version: 1 });
        // HelloOk is compared structurally: the schema's Debug includes a
        // name-index map with nondeterministic order
        let schema = sample_schema();
        match decode_frame(
            &Message::HelloOk {
                version: 1,
                schema: schema.clone(),
            }
            .encode(),
        ) {
            Message::HelloOk {
                version,
                schema: decoded,
            } => {
                assert_eq!(version, 1);
                assert_eq!(decoded.name(), schema.name());
                assert_eq!(
                    format!("{:?}", decoded.attributes()),
                    format!("{:?}", schema.attributes())
                );
            }
            other => panic!("expected HelloOk, got {other:?}"),
        }
        roundtrip(&Message::Error {
            code: ErrorCode::VersionMismatch,
            value: 9,
            detail: "server speaks protocol 9".into(),
        });
        roundtrip(&Message::Pin);
        roundtrip(&Message::Subscribe);
        roundtrip(&Message::PinAt {
            generation: Generation(u64::MAX),
        });
        roundtrip(&Message::RepairedRow {
            row: RowId(0),
            generation: Generation(0),
        });
        roundtrip(&Message::EntityResult {
            row: RowId(u64::MAX),
            generation: Generation(300),
        });
        roundtrip(&Message::ChangesSince {
            since: Generation(128),
        });
        roundtrip(&Message::EpochRef {
            epoch: EpochId(12),
            generation: Generation(7),
            rows: 40_000,
        });
        roundtrip(&Message::SubOk {
            epoch: EpochId(1),
            generation: Generation(1),
        });
        roundtrip(&Message::RowReply { row: None });
        roundtrip(&Message::RowReply {
            row: Some(vec![Value::Null, Value::Bool(true), Value::Int(i64::MIN)]),
        });
        roundtrip(&Message::EntityReply { entity: None });
        roundtrip(&Message::EntityReply {
            entity: Some(sample_view()),
        });
        roundtrip(&Message::Delta {
            delta: SnapshotDelta {
                from: Generation(2),
                from_epoch: EpochId(5),
                to: Generation(4),
                to_epoch: EpochId(9),
                changes: vec![
                    BlockChange {
                        key: BlockKey::Singleton(RowId(77)),
                        after: None,
                    },
                    BlockChange {
                        key: BlockKey::Key("mj".into()),
                        after: Some(sample_block_view()),
                    },
                ],
            },
        });
        roundtrip(&Message::Feed {
            batch: ChangeBatch {
                from: Generation(3),
                from_epoch: EpochId(6),
                to: Generation(9),
                to_epoch: EpochId(14),
                resync: true,
                changes: vec![
                    EntityChange {
                        block: BlockKey::Key("mj".into()),
                        kind: EntityChangeKind::Upserted(Box::new(sample_view())),
                    },
                    EntityChange {
                        block: BlockKey::Singleton(RowId(9)),
                        kind: EntityChangeKind::Removed {
                            records: vec![RowId(9), RowId(12)],
                        },
                    },
                ],
            },
        });
    }

    #[test]
    fn varints_cover_the_u64_range() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut r = Reader::new(&b);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
        for v in [0i64, -1, 1, -3, 1000, -1000, i64::MIN, i64::MAX] {
            let mut b = Vec::new();
            put_zigzag(&mut b, v);
            let mut r = Reader::new(&b);
            assert_eq!(r.zigzag().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn floats_roundtrip_bit_identically() {
        // a NaN with a nonstandard payload, the negative zero, a subnormal
        for bits in [0x7ff8_dead_beef_0001u64, (-0.0f64).to_bits(), 1u64] {
            let msg = Message::RowReply {
                row: Some(vec![Value::Float(f64::from_bits(bits))]),
            };
            match decode_frame(&msg.encode()) {
                Message::RowReply { row: Some(values) } => match values[0] {
                    Value::Float(x) => assert_eq!(x.to_bits(), bits),
                    ref other => panic!("expected a float, got {other:?}"),
                },
                other => panic!("expected a RowReply, got {other:?}"),
            }
        }
    }

    // -- malformed payloads ----------------------------------------------

    fn expect_malformed(payload: &[u8]) {
        match Message::decode(payload) {
            Err(WireError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        expect_malformed(&[]); // empty payload
        expect_malformed(&[0x10, 0x00]); // trailing byte after Pin
        expect_malformed(&[0x01, b'X', b'L', b'A', b'C', 0x01]); // bad magic
        expect_malformed(&[0x11]); // PinAt with no generation
        expect_malformed(&[0x21, 0x02]); // RowReply with presence byte 2
        expect_malformed(&[0x21, 0x01, 0xFF, 0x01]); // count 255 > remaining
        expect_malformed(&[0x03, 0x09, 0x00, 0x00]); // unknown error code 9
        expect_malformed(&[
            // varint longer than 10 bytes
            0x11, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
        ]);
        match Message::decode(&[0x7F]) {
            Err(WireError::UnknownType(0x7F)) => {}
            other => panic!("expected UnknownType, got {other:?}"),
        }
    }

    // -- the frame reader ------------------------------------------------

    /// A reader that yields `data` in tiny chunks with a `WouldBlock`
    /// between every read — the worst-case behavior of a socket polled on
    /// a short timeout.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.ready = false;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let n = 1.min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let first = Message::PinAt {
            generation: Generation(300),
        };
        let second = Message::Pin;
        let mut data = first.encode();
        data.extend_from_slice(&second.encode());
        let mut trickle = Trickle {
            data,
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.poll(&mut trickle).expect("stream stays well-formed") {
                Poll::Frame(payload) => frames.push(Message::decode(&payload).unwrap()),
                Poll::Pending => continue,
                Poll::Closed => break,
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(format!("{:?}", frames[0]), format!("{first:?}"));
        assert_eq!(format!("{:?}", frames[1]), format!("{second:?}"));
    }

    #[test]
    fn frame_reader_rejects_eof_mid_frame() {
        let mut truncated = Message::PinAt {
            generation: Generation(300),
        }
        .encode();
        truncated.pop();
        let mut trickle = Trickle {
            data: truncated,
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        loop {
            match reader.poll(&mut trickle) {
                Ok(Poll::Pending) => continue,
                Err(WireError::Malformed(d)) => {
                    assert!(d.contains("EOF"), "unexpected detail: {d}");
                    return;
                }
                other => panic!("expected an EOF-mid-frame error, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_reader_buffers_only_received_bytes() {
        // a header announcing the largest legal frame, then silence: the
        // reader must not reserve the announced 64 MiB up front
        let mut trickle = Trickle {
            data: MAX_FRAME.to_le_bytes().to_vec(),
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        // one timeout, then one header byte per poll; the fifth poll times
        // out after the complete header
        for _ in 0..5 {
            assert!(matches!(reader.poll(&mut trickle), Ok(Poll::Pending)));
        }
        assert_eq!(trickle.pos, 4, "the whole header was read");
        assert!(
            reader.buf.capacity() < 64 * 1024,
            "a bare header made the reader hold {} bytes",
            reader.buf.capacity()
        );
    }

    #[test]
    fn frame_reader_rejects_oversized_announcements() {
        let mut data = (MAX_FRAME + 1).to_le_bytes().to_vec();
        data.push(0x10);
        let mut trickle = Trickle {
            data,
            pos: 0,
            ready: false,
        };
        let mut reader = FrameReader::new();
        loop {
            match reader.poll(&mut trickle) {
                Ok(Poll::Pending) => continue,
                Err(WireError::Oversized(n)) => {
                    assert_eq!(n, MAX_FRAME + 1);
                    return;
                }
                other => panic!("expected Oversized, got {other:?}"),
            }
        }
    }
}
