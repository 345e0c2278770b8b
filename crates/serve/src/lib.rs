//! # relacc-serve
//!
//! The concurrent serving layer over the incremental engine: generation-
//! pinned point reads, snapshot deltas and per-entity change feeds, all built
//! on the epoch hub of `relacc-engine` ([`relacc_engine::EpochHub`]).
//!
//! The engine stays single-writer: a driver thread owns the
//! [`relacc_engine::IncrementalEngine`] and applies update batches; every
//! committed mutation publishes an immutable [`Epoch`].  A [`Server`] holds
//! only a cloneable [`EpochHub`] handle, so the engine never learns who
//! consumes its epochs, and any number of reader threads can
//!
//! * **pin** an epoch ([`Server::pin`] / [`Server::pin_at`]) and read a
//!   frozen, consistent snapshot for as long as they hold the `Arc` — the
//!   writer never blocks on them and they never observe a torn state;
//! * **point-read** single rows or entities at a pinned generation
//!   ([`Server::repaired_row`], [`Server::entity_result`]) in O(block)
//!   instead of O(corpus);
//! * **diff** two generations ([`Server::changes_since`]) as whole-block
//!   [`SnapshotDelta`]s that compose back onto the base snapshot
//!   bit-identically;
//! * **subscribe** ([`Server::subscribe`]) to a change feed that turns each
//!   committed batch into per-entity [`EntityChange`]s, falling back to a
//!   `resync` batch (computed by diffing the blocks the two pinned epochs
//!   hold differently, so it is still exact) when the hub's retention
//!   window was outrun.
//!
//! ```
//! use relacc_serve::Server;
//! # use relacc_core::rules::{Predicate, RuleSet, TupleRule};
//! # use relacc_engine::{BatchEngine, IncrementalEngine};
//! # use relacc_model::{CmpOp, DataType, Schema, Value};
//! # use relacc_resolve::{BlockingStrategy, ResolveConfig};
//! # use relacc_store::{Generation, Relation, RowId, UpdateBatch};
//! # let schema = Schema::builder("stat")
//! #     .attr("name", DataType::Text)
//! #     .attr("rnds", DataType::Int)
//! #     .build();
//! # let rules = RuleSet::from_rules([TupleRule::new(
//! #     "cur",
//! #     vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Lt)],
//! #     schema.expect_attr("rnds"),
//! # )]);
//! # let batch = BatchEngine::new(schema.clone(), rules, vec![]).unwrap();
//! # let seed = Relation::from_rows(
//! #     schema.clone(),
//! #     vec![vec![Value::text("mj"), Value::Int(16)]],
//! # )
//! # .unwrap();
//! # let mut engine = IncrementalEngine::open(
//! #     batch,
//! #     "stat",
//! #     &seed,
//! #     ResolveConfig::on_attrs(vec!["name".into()])
//! #         .with_strategy(BlockingStrategy::ExactKey),
//! # );
//! let server = Server::new(&engine);          // cheap hub handle, Send + Sync
//! let mut feed = server.subscribe();
//! engine
//!     .apply(&UpdateBatch::new("stat").insert(vec![Value::text("mj"), Value::Int(27)]))
//!     .unwrap();
//! // generation-pinned point read, O(block)
//! let row = server.repaired_row(RowId(1), Generation(1)).unwrap();
//! assert_eq!(row.unwrap()[1], Value::Int(27));
//! // the commit arrives on the feed as per-entity changes
//! let batch = feed.try_next().unwrap();
//! assert!(!batch.resync);
//! assert!(!batch.changes.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use relacc_engine::{Epoch, EpochError, EpochHub, EpochId, IncrementalEngine, SnapshotDelta};
use relacc_model::Value;
use relacc_resolve::BlockKey;
use relacc_store::{Generation, RowId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

pub use relacc_engine::{BlockView, EntityView};

/// The read front of one engine: pinned reads, generation-addressed point
/// reads, snapshot deltas and subscriptions.  Cheap to clone and `Send +
/// Sync` — hand one to every reader thread.
#[derive(Debug, Clone)]
pub struct Server {
    hub: EpochHub,
}

impl Server {
    /// Serve the given engine's epochs.
    pub fn new(engine: &IncrementalEngine) -> Self {
        Server {
            hub: engine.epochs(),
        }
    }

    /// The underlying hub handle.
    pub fn hub(&self) -> EpochHub {
        self.hub.clone()
    }

    /// Pin the current epoch.  The returned view stays frozen and fully
    /// readable for as long as the `Arc` lives, concurrent commits
    /// notwithstanding.
    pub fn pin(&self) -> Arc<Epoch> {
        self.hub.current()
    }

    /// Pin the epoch of a specific generation (the earliest retained epoch
    /// reflecting it).  [`EpochError::Evicted`] when the generation left the
    /// retention window — re-pin the current epoch instead.
    pub fn pin_at(&self, generation: Generation) -> Result<Arc<Epoch>, EpochError> {
        self.hub.at_generation(generation)
    }

    /// The repaired row that `row`'s entity materializes to at `generation`,
    /// in O(block).  `Ok(None)` when the row was not live at that generation
    /// (or its entity materializes no row).
    pub fn repaired_row(
        &self,
        row: RowId,
        generation: Generation,
    ) -> Result<Option<Vec<Value>>, EpochError> {
        Ok(self.pin_at(generation)?.repaired_row(row))
    }

    /// The full repair result of the entity owning `row` at `generation`, in
    /// O(block).  `Ok(None)` when the row was not live at that generation.
    pub fn entity_result(
        &self,
        row: RowId,
        generation: Generation,
    ) -> Result<Option<EntityView>, EpochError> {
        Ok(self.pin_at(generation)?.entity_result(row))
    }

    /// Everything that changed between `since` and the current epoch, as
    /// whole-block changes.  Composing the delta onto the base epoch's block
    /// views reproduces the current snapshot bit-identically
    /// ([`SnapshotDelta::apply_to`]).
    pub fn changes_since(&self, since: Generation) -> Result<SnapshotDelta, EpochError> {
        self.hub.changes_since(since)
    }

    /// Subscribe to the change feed, starting from the current epoch:
    /// batches committed after this call arrive as per-entity changes.
    pub fn subscribe(&self) -> Subscription {
        Subscription {
            hub: self.hub.clone(),
            last: self.hub.current(),
        }
    }
}

/// One consumer's position in the change feed.  Each call to
/// [`Subscription::next_batch`] / [`Subscription::try_next`] advances the
/// cursor to the then-current epoch and reports every entity whose repair
/// changed in between.
///
/// The subscription pins its cursor epoch, so even when the hub's retention
/// window is outrun (more commits than retained epochs since the last poll,
/// or a slow consumer) the feed stays **exact**: the batch then diffs every
/// block the pinned cursor epoch and the current one hold differently
/// ([`Epoch::blocks_changed_since`]) and is flagged [`ChangeBatch::resync`].
#[derive(Debug)]
pub struct Subscription {
    hub: EpochHub,
    last: Arc<Epoch>,
}

impl Subscription {
    /// The epoch the cursor currently sits on.
    pub fn last_seen(&self) -> &Arc<Epoch> {
        &self.last
    }

    /// Drain the feed without blocking: `None` when no epoch newer than the
    /// cursor has been published.  A batch with no entity changes still
    /// advances the cursor (e.g. a master delta that revalidated every
    /// repair unchanged).
    pub fn try_next(&mut self) -> Option<ChangeBatch> {
        let current = self.hub.current();
        if current.id() <= self.last.id() {
            return None;
        }
        Some(self.advance_to(current))
    }

    /// Block until an epoch newer than the cursor is published, up to
    /// `timeout`, and return the change batch up to it.  `None` on timeout.
    pub fn next_batch(&mut self, timeout: Duration) -> Option<ChangeBatch> {
        let current = self.hub.wait_newer(self.last.id(), timeout)?;
        Some(self.advance_to(current))
    }

    /// Diff the cursor epoch against `current` and move the cursor.
    fn advance_to(&mut self, current: Arc<Epoch>) -> ChangeBatch {
        let last = std::mem::replace(&mut self.last, Arc::clone(&current));
        let (resync, keys) = match self.hub.epochs_after(last.id()) {
            Some(epochs) => {
                // the retained dirty sets cover the whole span: only the
                // blocks some intermediate epoch touched can have changed
                let mut keys: BTreeSet<BlockKey> = BTreeSet::new();
                for epoch in epochs.iter().filter(|e| e.id() <= current.id()) {
                    keys.extend(epoch.dirty_keys().cloned());
                }
                (false, keys)
            }
            // part of the history was evicted — compare the two pinned
            // epochs' blocks instead (exact, and no view of an unchanged
            // block is built)
            None => (true, current.blocks_changed_since(&last)),
        };
        let changes = keys
            .iter()
            .flat_map(|key| diff_block(key, last.block_view(key), current.block_view(key)))
            .collect();
        ChangeBatch {
            from: last.generation(),
            from_epoch: last.id(),
            to: current.generation(),
            to_epoch: current.id(),
            resync,
            changes,
        }
    }
}

/// All entity-level changes between two feed positions.
#[derive(Debug, Clone)]
pub struct ChangeBatch {
    /// Generation of the cursor epoch the batch starts from.
    pub from: Generation,
    /// The exact cursor epoch.
    pub from_epoch: EpochId,
    /// Generation of the epoch the batch advances to.
    pub to: Generation,
    /// The epoch the cursor advanced to.
    pub to_epoch: EpochId,
    /// True when the hub's retention window was outrun and the batch was
    /// computed by comparing the two epochs' blocks instead of from the
    /// per-commit dirty sets.  The contents are still exact.
    pub resync: bool,
    /// Per-entity changes, grouped by block in ascending key order.
    pub changes: Vec<EntityChange>,
}

impl ChangeBatch {
    /// True when no entity's repair changed (the cursor still advanced).
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// One entity's change inside a [`ChangeBatch`].  Entities are identified by
/// their full member-record set (global row ids): a membership change (an
/// entity gaining or losing a record, entities merging or splitting) appears
/// as `Removed` of the old set(s) plus `Upserted` of the new.
#[derive(Debug, Clone)]
pub struct EntityChange {
    /// Global key of the block the entity lives in.
    pub block: BlockKey,
    /// What happened to it.
    pub kind: EntityChangeKind,
}

/// The two kinds of entity change a feed batch can carry.
#[derive(Debug, Clone)]
pub enum EntityChangeKind {
    /// The entity (keyed by its record set) is new, or its repair changed:
    /// the attached view is its current state (boxed — a view is an order of
    /// magnitude larger than the `Removed` arm).
    Upserted(Box<EntityView>),
    /// No entity with this record set exists any more.
    Removed {
        /// The vanished entity's member rows (global ids, ascending).
        records: Vec<RowId>,
    },
}

/// Per-entity diff of one block across two epochs.  `None` views stand for
/// "block absent at that epoch".
fn diff_block(
    key: &BlockKey,
    before: Option<BlockView>,
    after: Option<BlockView>,
) -> Vec<EntityChange> {
    let empty = Vec::new();
    let old_entities = before.as_ref().map_or(&empty, |v| &v.entities);
    let new_entities = after.as_ref().map_or(&empty, |v| &v.entities);
    let old_by_records: BTreeMap<&[RowId], &EntityView> = old_entities
        .iter()
        .map(|e| (e.records.as_slice(), e))
        .collect();
    let mut changes = Vec::new();
    for entity in new_entities {
        let unchanged = old_by_records
            .get(entity.records.as_slice())
            .is_some_and(|old| entity_unchanged(old, entity));
        if !unchanged {
            changes.push(EntityChange {
                block: key.clone(),
                kind: EntityChangeKind::Upserted(Box::new(entity.clone())),
            });
        }
    }
    for entity in old_entities {
        let survives = new_entities.iter().any(|n| n.records == entity.records);
        if !survives {
            changes.push(EntityChange {
                block: key.clone(),
                kind: EntityChangeKind::Removed {
                    records: entity.records.clone(),
                },
            });
        }
    }
    changes
}

/// Did the entity's repair survive the epoch boundary untouched?
fn entity_unchanged(old: &EntityView, new: &EntityView) -> bool {
    old.records == new.records
        && old.repaired == new.repaired
        && old.result.outcome == new.result.outcome
        && old.result.final_target() == new.result.final_target()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relacc_core::rules::{Predicate, RuleSet, TupleRule};
    use relacc_engine::{BatchEngine, IncrementalEngine};
    use relacc_model::{CmpOp, DataType, Schema, SchemaRef, Value};
    use relacc_resolve::{BlockingStrategy, ResolveConfig};
    use relacc_store::{Relation, UpdateBatch};

    fn schema() -> SchemaRef {
        Schema::builder("stat")
            .attr("name", DataType::Text)
            .attr("rnds", DataType::Int)
            .build()
    }

    fn open_engine() -> IncrementalEngine {
        let s = schema();
        let rules = RuleSet::from_rules([TupleRule::new(
            "cur",
            vec![Predicate::cmp_attrs(s.expect_attr("rnds"), CmpOp::Lt)],
            s.expect_attr("rnds"),
        )]);
        let engine = BatchEngine::new(s.clone(), rules, vec![]).unwrap();
        let seed = Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::text("mj"), Value::Int(16)],
                vec![Value::text("mj"), Value::Int(27)],
                vec![Value::text("sp"), Value::Int(10)],
            ],
        )
        .unwrap();
        IncrementalEngine::open(
            engine,
            "stat",
            &seed,
            ResolveConfig::on_attrs(vec!["name".into()]).with_strategy(BlockingStrategy::ExactKey),
        )
    }

    #[test]
    fn pinned_point_reads_by_generation() {
        let mut engine = open_engine();
        let server = Server::new(&engine);
        engine
            .apply(&UpdateBatch::new("stat").insert(vec![Value::text("mj"), Value::Int(35)]))
            .unwrap();
        // generation 0: mj's latest round was 27
        let g0 = server.repaired_row(RowId(0), Generation(0)).unwrap();
        assert_eq!(g0.unwrap()[1], Value::Int(27));
        // generation 1: the new record wins
        let g1 = server.repaired_row(RowId(0), Generation(1)).unwrap();
        assert_eq!(g1.unwrap()[1], Value::Int(35));
        // the inserted row is invisible at generation 0...
        assert_eq!(server.repaired_row(RowId(3), Generation(0)).unwrap(), None);
        // ...and a never-published generation is an error
        assert_eq!(
            server.repaired_row(RowId(0), Generation(9)),
            Err(EpochError::Unknown(Generation(9)))
        );
    }

    #[test]
    fn entity_result_reports_membership() {
        let engine = open_engine();
        let server = Server::new(&engine);
        let mj = server
            .entity_result(RowId(1), Generation(0))
            .unwrap()
            .expect("row 1 is live");
        assert_eq!(mj.records, vec![RowId(0), RowId(1)]);
        let sp = server
            .entity_result(RowId(2), Generation(0))
            .unwrap()
            .expect("row 2 is live");
        assert_eq!(sp.records, vec![RowId(2)]);
    }

    #[test]
    fn feed_reports_upserts_and_removes() {
        let mut engine = open_engine();
        let server = Server::new(&engine);
        let mut feed = server.subscribe();
        assert!(feed.try_next().is_none(), "no commit yet");

        engine
            .apply(
                &UpdateBatch::new("stat")
                    .insert(vec![Value::text("mj"), Value::Int(35)])
                    .delete(RowId(2)),
            )
            .unwrap();
        let batch = feed.next_batch(Duration::from_secs(1)).expect("committed");
        assert!(!batch.resync);
        assert_eq!(batch.from, Generation(0));
        assert_eq!(batch.to, Generation(1));
        // mj grew: Removed{0,1} + Upserted{0,1,3}; sp vanished: Removed{2}
        let mut upserted = Vec::new();
        let mut removed = Vec::new();
        for change in &batch.changes {
            match &change.kind {
                EntityChangeKind::Upserted(view) => upserted.push(view.records.clone()),
                EntityChangeKind::Removed { records } => removed.push(records.clone()),
            }
        }
        assert_eq!(upserted, vec![vec![RowId(0), RowId(1), RowId(3)]]);
        removed.sort();
        assert_eq!(removed, vec![vec![RowId(0), RowId(1)], vec![RowId(2)]]);
        assert!(feed.try_next().is_none(), "feed drained");
    }

    #[test]
    fn outrun_feed_resyncs_exactly() {
        let mut engine = open_engine();
        engine.set_epoch_retention(1); // evict everything but the current epoch
        let server = Server::new(&engine);
        let mut feed = server.subscribe();
        for rnds in [30, 31, 32] {
            engine
                .apply(&UpdateBatch::new("stat").insert(vec![Value::text("mj"), Value::Int(rnds)]))
                .unwrap();
        }
        let batch = feed.try_next().expect("commits happened");
        assert!(batch.resync, "history was evicted");
        // still exact: one upsert with the full final membership
        assert_eq!(batch.changes.len(), 2);
        let EntityChangeKind::Upserted(view) = &batch.changes[0].kind else {
            panic!("expected the grown mj entity first");
        };
        assert_eq!(
            view.records,
            vec![RowId(0), RowId(1), RowId(3), RowId(4), RowId(5)]
        );
        assert_eq!(view.repaired.as_ref().unwrap()[1], Value::Int(32));
    }

    #[test]
    fn resync_equals_a_diff_of_every_block() {
        let mut engine = open_engine();
        engine
            .apply(&UpdateBatch::new("stat").insert(vec![Value::text("ab"), Value::Int(5)]))
            .unwrap();
        engine.set_epoch_retention(1);
        let server = Server::new(&engine);
        let mut feed = server.subscribe();
        let before = Arc::clone(feed.last_seen());
        // mj grows, sp's block is dropped, zz's block is new, ab is untouched
        engine
            .apply(&UpdateBatch::new("stat").insert(vec![Value::text("mj"), Value::Int(40)]))
            .unwrap();
        engine
            .apply(
                &UpdateBatch::new("stat")
                    .delete(RowId(2))
                    .insert(vec![Value::text("zz"), Value::Int(1)]),
            )
            .unwrap();
        let batch = feed.try_next().expect("commits happened");
        assert!(batch.resync, "history was evicted");

        let after = server.pin();
        let (old, new) = (before.block_views(), after.block_views());
        let changed = after.blocks_changed_since(&before);
        let ab = old
            .values()
            .find(|view| view.rows.iter().any(|(id, _)| *id == RowId(3)))
            .expect("ab's block is pinned")
            .key
            .clone();
        assert!(new.contains_key(&ab) && !changed.contains(&ab));
        assert_eq!(changed.len(), 3, "mj, sp and zz: {changed:?}");

        let keys: BTreeSet<&BlockKey> = old.keys().chain(new.keys()).collect();
        let full: Vec<EntityChange> = keys
            .into_iter()
            .flat_map(|key| diff_block(key, old.get(key).cloned(), new.get(key).cloned()))
            .collect();
        assert_eq!(format!("{:?}", batch.changes), format!("{full:?}"));
    }
}
