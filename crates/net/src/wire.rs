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
//! Each type of PROTOCOL.md §5 has one impl of the private `Wire` trait,
//! whose `put` and `get` sit side by side, and the structs among them list
//! their fields once, in §5's order, for both halves.  [`Message::encode`]
//! and [`Message::decode`] call those impls, and the unit tests pin every
//! message type to fixed bytes.

use relacc_core::{ChaseStats, Conflict};
use relacc_engine::{
    BlockChange, BlockView, EntityOutcome, EntityResult, EntityView, EpochError, EpochId,
    SnapshotDelta,
};
use relacc_model::{AttrId, Attribute, DataType, Schema, SchemaRef, TargetTuple, Tuple, Value};
use relacc_resolve::{BlockKey, MatchDecision, PruneStage, ResolveStats};
use relacc_serve::{ChangeBatch, EntityChange, EntityChangeKind};
use relacc_store::{Generation, RowId};
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// The protocol version this build speaks.  A server receiving a `Hello`
/// with a different version answers [`Message::Error`] with
/// [`ErrorCode::VersionMismatch`] (carrying its own version) and closes.
pub const PROTOCOL_VERSION: u64 = 1;

/// The four magic bytes opening every `Hello` payload: `"RLAC"`.
pub const MAGIC: [u8; 4] = *b"RLAC";

/// Hard ceiling on one frame's payload size (64 MiB).  A peer announcing a
/// larger frame is malformed (or hostile) and the connection is dropped.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// The largest request payload a server accepts (1 KiB).  The largest
/// request is 21 bytes, so a larger announcement is refused as soon as its
/// length prefix arrives, before and after the handshake.
pub(crate) const MAX_REQUEST: u32 = 1024;

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
    /// A frame announced a payload larger than the reader accepts
    /// ([`MAX_FRAME`], or a server's smaller request limit).
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
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds the frame limit"),
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
// primitives
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

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_seq<T: Wire>(out: &mut Vec<u8>, items: &[T]) {
    put_varint(out, items.len() as u64);
    for item in items {
        item.put(out);
    }
}

/// A cursor over one frame's payload bytes.  It reads the primitives of
/// PROTOCOL.md §1 and enforces their bounds; the composite types are
/// `Wire` impls built on it.
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

    /// A tag byte, which must be below `n` (so a match on it may end in
    /// `_`); any other byte is malformed, reported as `"{what} {byte}"`.
    fn tag(&mut self, what: &str, n: u8) -> Result<u8, WireError> {
        match self.byte()? {
            b if b < n => Ok(b),
            other => Err(WireError::Malformed(format!("{what} {other}"))),
        }
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

// ---------------------------------------------------------------------------
// the types of PROTOCOL.md §5, one layout each
// ---------------------------------------------------------------------------

/// A type with a wire layout: `put` appends it and `get` reads it back, so
/// both halves of a layout are written in one place.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl Wire for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
}

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.usize()
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.tag("bool byte", 2)? == 1)
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.bytes(8)?.try_into().expect("sliced 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.string()
    }
}

/// The id newtypes travel as the integer they wrap.
macro_rules! wire_newtype {
    ($($ty:ident($inner:ty)),+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                <$inner>::get(r).map($ty)
            }
        }
    )+};
}

wire_newtype!(RowId(u64), Generation(u64), EpochId(u64), AttrId(usize));

/// `seq<T>`: a count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

/// `option<T>`: a presence byte, then the value when present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("option byte", 2)? {
            0 => None,
            _ => Some(T::get(r)?),
        })
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::get(r).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// Values are the bulk of every reply: both halves are inlined into the
/// `seq` loops, as the per-value codec was before the `Wire` impls.
impl Wire for Value {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                b.put(out);
            }
            Value::Int(i) => {
                out.push(2);
                put_zigzag(out, *i);
            }
            Value::Float(x) => {
                out.push(3);
                x.put(out);
            }
            Value::Str(s) => {
                out.push(4);
                put_str(out, s);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("value tag", 5)? {
            0 => Value::Null,
            1 => Value::Bool(bool::get(r)?),
            2 => Value::Int(r.zigzag()?),
            3 => Value::Float(f64::get(r)?),
            _ => Value::Str(r.string()?.into()),
        })
    }
}

/// A tuple travels as `seq<Value>`.
impl Wire for Tuple {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.values());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Vec::get(r).map(Tuple::new)
    }
}

/// A target tuple travels as `seq<Value>`.
impl Wire for TargetTuple {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(out, self.values());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Vec::get(r).map(TargetTuple::from_values)
    }
}

impl Wire for BlockKey {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            BlockKey::Key(s) => {
                out.push(0);
                s.put(out);
            }
            BlockKey::Singleton(id) => {
                out.push(1);
                id.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("block-key tag", 2)? {
            0 => BlockKey::Key(String::get(r)?),
            _ => BlockKey::Singleton(RowId::get(r)?),
        })
    }
}

impl Wire for EntityOutcome {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            EntityOutcome::Complete => 0,
            EntityOutcome::Suggested => 1,
            EntityOutcome::NeedsUser => 2,
            EntityOutcome::NotChurchRosser => 3,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("outcome tag", 4)? {
            0 => EntityOutcome::Complete,
            1 => EntityOutcome::Suggested,
            2 => EntityOutcome::NeedsUser,
            _ => EntityOutcome::NotChurchRosser,
        })
    }
}

/// A match decision's prune stage is one byte, `00` for a pair that was
/// not pruned, rather than an `option` of a stage.
impl Wire for Option<PruneStage> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            None => 0,
            Some(PruneStage::Length) => 1,
            Some(PruneStage::Fingerprint) => 2,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("prune tag", 3)? {
            0 => None,
            1 => Some(PruneStage::Length),
            _ => Some(PruneStage::Fingerprint),
        })
    }
}

impl Wire for EntityChangeKind {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            EntityChangeKind::Upserted(view) => {
                out.push(0);
                view.put(out);
            }
            EntityChangeKind::Removed { records } => {
                out.push(1);
                records.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("change tag", 2)? {
            0 => EntityChangeKind::Upserted(Box::get(r)?),
            _ => EntityChangeKind::Removed {
                records: Vec::get(r)?,
            },
        })
    }
}

impl Wire for DataType {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Text => 3,
        });
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag("data-type tag", 4)? {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            _ => DataType::Text,
        })
    }
}

/// A schema's attribute names are distinct: a repeated name is malformed.
impl Wire for SchemaRef {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self.name());
        put_seq(out, self.attributes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let name = r.string()?;
        let attrs = Vec::<Attribute>::get(r)?;
        let mut names = HashSet::with_capacity(attrs.len());
        if let Some(repeated) = attrs.iter().find(|a| !names.insert(a.name.as_str())) {
            return Err(WireError::Malformed(format!(
                "repeated attribute name {:?}",
                repeated.name
            )));
        }
        Ok(Arc::new(Schema::new(name, attrs)))
    }
}

/// Both halves of a struct's layout from one field list: the fields travel
/// in the listed order, which is PROTOCOL.md §5's.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),+ })+) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty { $($field: Wire::get(r)?),+ })
            }
        }
    )+};
}

wire_struct! {
    Attribute { name, ty }
    ChaseStats {
        ground_steps, pairs_considered, steps_considered, steps_applied, noop_steps,
        order_pairs_added, target_assignments, full_checks, delta_checks, delta_steps_replayed
    }
    Conflict { rule, attr, detail }
    EntityResult {
        entity, records, outcome, deduced, suggestion, suggestion_error, conflict, stats
    }
    EntityView { records, repaired, result }
    MatchDecision { left, right, similarity, matched, pruned }
    ResolveStats { pairs_considered, pruned_by_length, pruned_by_fingerprint, dp_runs }
    BlockView { key, rows, decisions, entities, stats }
    BlockChange { key, after }
    SnapshotDelta { from, from_epoch, to, to_epoch, changes }
    EntityChange { block, kind }
    ChangeBatch { from, from_epoch, to, to_epoch, resync, changes }
}

/// An error code travels as its one-byte number.
impl Wire for ErrorCode {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.byte()? {
            1 => ErrorCode::Evicted,
            2 => ErrorCode::Unknown,
            3 => ErrorCode::VersionMismatch,
            4 => ErrorCode::Malformed,
            other => return Err(WireError::Malformed(format!("error code {other}"))),
        })
    }
}

/// The message table of PROTOCOL.md §4, written once: a payload is the
/// type byte, then (for `Hello`, after the magic) the listed fields in
/// order.  Every variant of `Message` and `MsgType` is listed.
macro_rules! wire_messages {
    ($($variant:ident { $($field:ident),* })+) => {
        impl MsgType {
            fn of(byte: u8) -> Result<MsgType, WireError> {
                match byte {
                    $(b if b == MsgType::$variant as u8 => Ok(MsgType::$variant),)+
                    other => Err(WireError::UnknownType(other)),
                }
            }
        }

        impl Message {
            /// The message's wire type tag.
            pub fn msg_type(&self) -> MsgType {
                match self {
                    $(Message::$variant { .. } => MsgType::$variant,)+
                }
            }
        }

        impl Wire for Message {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(self.msg_type() as u8);
                if let Message::Hello { .. } = self {
                    out.extend_from_slice(&MAGIC);
                }
                match self {
                    $(Message::$variant { $($field),* } => {
                        $($field.put(out);)*
                    })+
                }
            }
            // inlined so that `Message::decode` builds the message in place
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let msg_type = MsgType::of(r.byte()?)?;
                if msg_type == MsgType::Hello {
                    let magic = r.bytes(4)?;
                    if magic != MAGIC {
                        return Err(WireError::Malformed(format!("bad magic {magic:02x?}")));
                    }
                }
                Ok(match msg_type {
                    $(MsgType::$variant => Message::$variant { $($field: Wire::get(r)?),* },)+
                })
            }
        }
    };
}

wire_messages! {
    Hello { version }
    HelloOk { version, schema }
    Error { code, value, detail }
    Pin {}
    PinAt { generation }
    RepairedRow { row, generation }
    EntityResult { row, generation }
    ChangesSince { since }
    Subscribe {}
    EpochRef { epoch, generation, rows }
    RowReply { row }
    EntityReply { entity }
    Delta { delta }
    SubOk { epoch, generation }
    Feed { batch }
}

impl Message {
    /// Encode the message as one frame: `u32` little-endian payload length,
    /// then the payload (type byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(20);
        frame.extend_from_slice(&[0; 4]);
        self.put(&mut frame);
        let len = u32::try_from(frame.len() - 4).expect("frame fits u32");
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame
    }

    /// Decode one frame payload (the bytes after the length prefix).
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(payload);
        let message = Message::get(&mut r)?;
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

/// Buffer capacity a [`FrameReader`] keeps once its buffer is empty.
const KEEP_CAPACITY: usize = 64 * 1024;

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
/// what it sent, not what it announced.  A prefix over the reader's limit is
/// refused as soon as it arrives.  Once the buffer is empty, capacity over
/// 64 KiB (left by a large frame) is released, so a client does not hold
/// its largest frame's memory for the life of the connection.
#[derive(Debug)]
pub struct FrameReader {
    /// Received bytes not yet returned as a frame, length prefix included.
    buf: Vec<u8>,
    /// The largest payload accepted.
    limit: u32,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
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
    /// A reader with an empty buffer that accepts payloads up to
    /// [`MAX_FRAME`].
    pub fn new() -> Self {
        FrameReader::with_limit(MAX_FRAME)
    }

    /// A reader that refuses payloads over `limit` as
    /// [`WireError::Oversized`].
    pub(crate) fn with_limit(limit: u32) -> Self {
        FrameReader {
            buf: Vec::new(),
            limit,
        }
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
                if announced > self.limit {
                    return Err(WireError::Oversized(announced));
                }
                let end = 4 + announced as usize;
                if self.buf.len() >= end {
                    let payload = self.buf[4..end].to_vec();
                    self.buf.drain(..end);
                    if self.buf.is_empty() && self.buf.capacity() > KEEP_CAPACITY {
                        self.buf = Vec::new();
                    }
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

    /// A delta that drops one block and replaces another.
    fn sample_delta() -> SnapshotDelta {
        SnapshotDelta {
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
        }
    }

    /// A resync batch with one upsert and one removal.
    fn sample_batch() -> ChangeBatch {
        ChangeBatch {
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
        }
    }

    /// One frame of every message type, both arms of `RowReply` and
    /// `EntityReply`, and a `HelloOk` whose attribute names `a` and `c` are
    /// one bit apart, so a single bit flip makes them repeat.
    fn golden_frames() -> Vec<Message> {
        vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
            },
            Message::HelloOk {
                version: PROTOCOL_VERSION,
                schema: sample_schema(),
            },
            Message::HelloOk {
                version: PROTOCOL_VERSION,
                schema: Schema::builder("s")
                    .attr("a", DataType::Int)
                    .attr("c", DataType::Text)
                    .build(),
            },
            Message::Error {
                code: ErrorCode::Malformed,
                value: 0,
                detail: "bad".into(),
            },
            Message::Pin,
            Message::PinAt {
                generation: Generation(300),
            },
            Message::RepairedRow {
                row: RowId(5),
                generation: Generation(7),
            },
            Message::EntityResult {
                row: RowId(128),
                generation: Generation(2),
            },
            Message::ChangesSince {
                since: Generation(1),
            },
            Message::Subscribe,
            Message::EpochRef {
                epoch: EpochId(12),
                generation: Generation(7),
                rows: 40_000,
            },
            Message::RowReply { row: None },
            Message::RowReply {
                row: Some(vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Int(-1000),
                    Value::Float(31.2),
                    Value::text("mj"),
                ]),
            },
            Message::EntityReply { entity: None },
            Message::EntityReply {
                entity: Some(sample_view()),
            },
            Message::Delta {
                delta: sample_delta(),
            },
            Message::SubOk {
                epoch: EpochId(1),
                generation: Generation(1),
            },
            Message::Feed {
                batch: sample_batch(),
            },
        ]
    }

    /// The bytes of [`golden_frames`], frame by frame: the §5 composite
    /// layouts pinned to fixed bytes, not only to the decoder's reading.
    const GOLDEN: [&str; 18] = [
        // Hello
        "06 00 00 00 01 52 4C 41 43 01",
        // HelloOk
        "21 00 00 00 02 01 04 73 74 61 74 04 04 6E 61 6D \
         65 03 06 61 63 74 69 76 65 00 04 72 6E 64 73 01 \
         03 70 70 67 02",
        // HelloOk, attributes `a` and `c`
        "0B 00 00 00 02 01 01 73 02 01 61 01 01 63 03",
        // Error
        "07 00 00 00 03 04 00 03 62 61 64",
        // Pin
        "01 00 00 00 10",
        // PinAt
        "03 00 00 00 11 AC 02",
        // RepairedRow
        "03 00 00 00 12 05 07",
        // EntityResult
        "04 00 00 00 13 80 01 02",
        // ChangesSince
        "02 00 00 00 14 01",
        // Subscribe
        "01 00 00 00 15",
        // EpochRef
        "06 00 00 00 20 0C 07 C0 B8 02",
        // RowReply, absent
        "02 00 00 00 21 00",
        // RowReply, present
        "16 00 00 00 21 01 05 00 01 01 02 CF 0F 03 33 33 \
         33 33 33 33 3F 40 04 02 6D 6A",
        // EntityReply, absent
        "02 00 00 00 22 00",
        // EntityReply, present
        "67 00 00 00 22 01 02 04 AC 02 01 04 04 02 6D 6A \
         01 00 02 36 03 00 00 00 00 00 00 00 80 03 02 00 \
         02 01 04 04 02 6D 6A 00 02 A3 01 03 33 33 33 33 \
         33 33 3F 40 01 04 04 02 6D 6A 01 01 02 A4 01 03 \
         00 00 00 00 00 00 00 00 01 0B 74 69 65 73 20 61 \
         74 20 6B 3D 32 01 03 63 75 72 02 05 63 79 63 6C \
         65 01 02 03 04 05 06 07 08 09 0A",
        // Delta
        "AB 00 00 00 23 02 05 04 09 02 01 4D 00 00 02 6D \
         6A 01 00 02 6D 6A 02 04 02 04 02 6D 6A 02 02 AC \
         02 02 00 03 00 00 00 00 00 00 F8 7F 02 00 01 00 \
         00 00 00 00 00 EC 3F 01 00 00 02 00 00 00 00 00 \
         00 00 00 00 02 01 02 04 AC 02 01 04 04 02 6D 6A \
         01 00 02 36 03 00 00 00 00 00 00 00 80 03 02 00 \
         02 01 04 04 02 6D 6A 00 02 A3 01 03 33 33 33 33 \
         33 33 3F 40 01 04 04 02 6D 6A 01 01 02 A4 01 03 \
         00 00 00 00 00 00 00 00 01 0B 74 69 65 73 20 61 \
         74 20 6B 3D 32 01 03 63 75 72 02 05 63 79 63 6C \
         65 01 02 03 04 05 06 07 08 09 0A 03 01 01 01",
        // SubOk
        "03 00 00 00 24 01 01",
        // Feed
        "77 00 00 00 25 03 06 09 0E 01 02 00 02 6D 6A 00 \
         02 04 AC 02 01 04 04 02 6D 6A 01 00 02 36 03 00 \
         00 00 00 00 00 00 80 03 02 00 02 01 04 04 02 6D \
         6A 00 02 A3 01 03 33 33 33 33 33 33 3F 40 01 04 \
         04 02 6D 6A 01 01 02 A4 01 03 00 00 00 00 00 00 \
         00 00 01 0B 74 69 65 73 20 61 74 20 6B 3D 32 01 \
         03 63 75 72 02 05 63 79 63 6C 65 01 02 03 04 05 \
         06 07 08 09 0A 01 09 01 02 09 0C",
    ];

    #[test]
    fn golden_frames_encode_to_fixed_bytes() {
        let frames = golden_frames();
        assert_eq!(frames.len(), GOLDEN.len());
        for (msg, golden) in frames.iter().zip(GOLDEN) {
            assert_eq!(hex(&msg.encode()), golden, "{:?} drifted", msg.msg_type());
        }
    }

    // -- decoding never panics -------------------------------------------

    /// Decode `payload`; a value and an error both pass, a panic fails the
    /// test and names the payload.
    fn decodes_without_panic(payload: &[u8], case: &str) {
        if std::panic::catch_unwind(|| Message::decode(payload)).is_err() {
            panic!("decoding {case} panicked: {}", hex(payload));
        }
    }

    #[test]
    fn damaged_golden_frames_decode_without_panic() {
        for msg in golden_frames() {
            let payload = msg.encode().split_off(4);
            for len in 0..payload.len() {
                decodes_without_panic(&payload[..len], "a truncated payload");
            }
            for bit in 0..payload.len() * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                decodes_without_panic(&flipped, "a bit-flipped payload");
            }
        }
    }

    #[test]
    fn random_payloads_decode_without_panic() {
        // splitmix64 from a fixed seed, so a failure reproduces
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for msg in golden_frames() {
            for _ in 0..2_000 {
                let len = (next() % 64) as usize;
                let mut payload = vec![msg.msg_type() as u8];
                payload.extend((0..len).map(|_| next() as u8));
                decodes_without_panic(&payload, "a random payload");
            }
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
        Value::Int(27).put(&mut b);
        examples.push(("02 36", b));

        let mut b = Vec::new();
        Value::text("mj").put(&mut b);
        examples.push(("04 02 6D 6A", b));

        let mut b = Vec::new();
        Value::Float(31.2).put(&mut b);
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
            doc.contains("| `MAX_REQUEST` | 1024 bytes"),
            "the server's request limit must be documented"
        );
        assert_eq!(MAX_REQUEST, 1024);
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
            delta: sample_delta(),
        });
        roundtrip(&Message::Feed {
            batch: sample_batch(),
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
    fn frame_reader_releases_a_large_frame_buffer() {
        let payload = vec![0x5A; 1 << 20];
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        let mut reader = FrameReader::new();
        match reader.poll(&mut io::Cursor::new(frame)) {
            Ok(Poll::Frame(got)) => assert_eq!(got, payload),
            other => panic!("expected the 1 MiB frame, got {other:?}"),
        }
        assert!(
            reader.buf.capacity() <= 64 * 1024,
            "the drained reader still holds {} bytes",
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
