//! Correctness checks.  Each compares an output of the path under test
//! against a computation done apart from it (a from-scratch repair, the
//! reference chase, the in-process server) or against a property the method
//! must have (composing deltas or feed batches reproduces the current state).
//! Every checker returns `Err` with a description instead of panicking, so a
//! failed check is counted as a failed operation.
//!
//! Outputs are compared through their wire encoding: the codec ships floats
//! as raw IEEE-754 bits, so equal bytes means bit-identical values.

use relacc_core::chase::ChaseRun;
use relacc_engine::{
    BlockChange, BlockView, EntityOutcome, EntityView, Epoch, EpochId, RelationRepair,
    SnapshotDelta,
};
use relacc_net::Message;
use relacc_resolve::BlockKey;
use relacc_serve::{ChangeBatch, EntityChangeKind};
use relacc_store::{Generation, RowId};
use std::collections::{BTreeMap, BTreeSet};

/// Canonical bytes of one block's state (`None`: the block is absent).
pub fn block_bytes(key: &BlockKey, view: Option<BlockView>) -> Vec<u8> {
    Message::Delta {
        delta: SnapshotDelta {
            from: Generation(0),
            from_epoch: EpochId(0),
            to: Generation(0),
            to_epoch: EpochId(0),
            changes: vec![BlockChange {
                key: key.clone(),
                after: view,
            }],
        },
    }
    .encode()
}

/// A reply received over TCP must be bit-identical to the in-process
/// server's answer to the same request.
pub fn reply_matches(over_tcp: &Message, in_process: &Message) -> Result<(), String> {
    if over_tcp.encode() == in_process.encode() {
        Ok(())
    } else {
        Err(format!(
            "{:?} reply differs from the in-process answer",
            over_tcp.msg_type()
        ))
    }
}

/// The incremental engine's snapshot must equal a from-scratch repair of the
/// same relation: entities, members, outcomes, targets, suggestions and
/// repaired rows.
pub fn snapshot_matches(incremental: &RelationRepair, full: &RelationRepair) -> Result<(), String> {
    let (a, b) = (&incremental.report, &full.report);
    if incremental.resolved.members != full.resolved.members {
        return Err("resolution membership differs".into());
    }
    if a.entities.len() != b.entities.len() {
        return Err(format!(
            "{} entities in the snapshot, {} in the from-scratch repair",
            a.entities.len(),
            b.entities.len()
        ));
    }
    for (x, y) in a.entities.iter().zip(&b.entities) {
        if x.records != y.records {
            return Err(format!("entity {} members differ", x.entity));
        }
        if x.deduced != y.deduced {
            return Err(format!("entity {} deduced target differs", x.entity));
        }
        if x.outcome != y.outcome || x.suggestion != y.suggestion {
            return Err(format!("entity {} outcome or suggestion differs", x.entity));
        }
    }
    if incremental.row_entities != full.row_entities {
        return Err("repaired row to entity mapping differs".into());
    }
    if incremental.repaired.rows() != full.repaired.rows() {
        return Err("repaired rows differ".into());
    }
    if incremental.skipped != full.skipped {
        return Err("skipped entities differ".into());
    }
    Ok(())
}

/// Canonical bytes of what the change feed promises to keep current for
/// an entity: its repaired row, outcome and final target.  (The feed skips
/// re-chased entities whose repair is unchanged, so chase counters and a
/// deduced target that the suggestion already covered may be stale.)
pub fn repair_bytes(view: &EntityView) -> Vec<u8> {
    let mut bytes = Message::RowReply {
        row: view.repaired.clone(),
    }
    .encode();
    bytes.extend(
        Message::RowReply {
            row: Some(view.result.final_target().values().to_vec()),
        }
        .encode(),
    );
    bytes.extend(format!("{:?}", view.result.outcome).into_bytes());
    bytes
}

/// Every entity of an epoch, keyed by member records.
pub fn entities_of(epoch: &Epoch) -> BTreeMap<Vec<RowId>, Vec<u8>> {
    epoch
        .block_views()
        .into_values()
        .flat_map(|block| block.entities)
        .map(|view| (view.records.clone(), repair_bytes(&view)))
        .collect()
}

/// A subscriber's entity map, folded from the change feed.
#[derive(Debug)]
pub struct FeedFold {
    entities: BTreeMap<Vec<RowId>, Vec<u8>>,
    at: EpochId,
}

impl FeedFold {
    /// Start from the epoch the subscription was opened at.
    pub fn new(epoch: &Epoch) -> Self {
        FeedFold {
            entities: entities_of(epoch),
            at: epoch.id(),
        }
    }

    /// Fold one batch.  Batches must chain: each starts where the last ended.
    pub fn apply(&mut self, batch: &ChangeBatch) -> Result<(), String> {
        if batch.from_epoch != self.at {
            return Err(format!(
                "feed batch starts at epoch {} but the subscriber is at {}",
                batch.from_epoch, self.at
            ));
        }
        for change in &batch.changes {
            match &change.kind {
                EntityChangeKind::Upserted(view) => {
                    self.entities
                        .insert(view.records.clone(), repair_bytes(view));
                }
                EntityChangeKind::Removed { records } => {
                    if self.entities.remove(records).is_none() && !batch.resync {
                        return Err(format!("feed removes unknown entity {records:?}"));
                    }
                }
            }
        }
        self.at = batch.to_epoch;
        Ok(())
    }

    /// The folded map must reproduce the epoch's entities.
    pub fn matches(&self, epoch: &Epoch) -> Result<(), String> {
        if self.at != epoch.id() {
            return Err(format!(
                "feed ended at epoch {}, the engine is at {}",
                self.at,
                epoch.id()
            ));
        }
        let expected = entities_of(epoch);
        if expected.len() != self.entities.len() {
            return Err(format!(
                "feed fold holds {} entities, the epoch {}",
                self.entities.len(),
                expected.len()
            ));
        }
        for (records, bytes) in &expected {
            if self.entities.get(records) != Some(bytes) {
                return Err(format!("feed fold differs on entity {records:?}"));
            }
        }
        Ok(())
    }
}

/// Block views composed from a base and deltas must equal the epoch's own
/// views: on `keys` only, or on every block when `keys` is `None`.
pub fn views_match(
    views: &BTreeMap<BlockKey, BlockView>,
    epoch: &Epoch,
    keys: Option<&BTreeSet<BlockKey>>,
) -> Result<(), String> {
    match keys {
        Some(keys) => {
            for key in keys {
                let composed = block_bytes(key, views.get(key).cloned());
                if composed != block_bytes(key, epoch.block_view(key)) {
                    return Err(format!("composed block {key:?} differs"));
                }
            }
            Ok(())
        }
        None => {
            let current = epoch.block_views();
            if current.len() != views.len() {
                return Err(format!(
                    "composed views hold {} blocks, the epoch {}",
                    views.len(),
                    current.len()
                ));
            }
            for (key, view) in current {
                if block_bytes(&key, views.get(&key).cloned()) != block_bytes(&key, Some(view)) {
                    return Err(format!("composed block {key:?} differs"));
                }
            }
            Ok(())
        }
    }
}

/// The served entity's deduced target must equal the reference chase's.
pub fn target_matches(served: &EntityView, reference: &ChaseRun) -> Result<(), String> {
    let not_cr = served.result.outcome == EntityOutcome::NotChurchRosser;
    match reference.outcome.target() {
        None if not_cr => Ok(()),
        Some(target) if !not_cr && *target == served.result.deduced => Ok(()),
        _ => Err(format!(
            "entity {:?}: served target differs from the reference chase",
            served.records
        )),
    }
}

/// A from-scratch repair indexed for point reads by row id.
#[derive(Debug)]
pub struct Reference {
    pub repair: RelationRepair,
    /// Row id of each relation position (ascending).
    row_ids: Vec<RowId>,
    /// Repaired-row index of each entity.
    row_of_entity: Vec<Option<usize>>,
}

impl Reference {
    pub fn new(repair: RelationRepair, row_ids: Vec<RowId>) -> Self {
        let mut row_of_entity = vec![None; repair.report.entities.len()];
        for (row, &entity) in repair.row_entities.iter().enumerate() {
            row_of_entity[entity] = Some(row);
        }
        Reference {
            repair,
            row_ids,
            row_of_entity,
        }
    }

    fn entity_of(&self, row: RowId) -> Option<usize> {
        let position = self.row_ids.binary_search(&row).ok()?;
        self.repair.resolved.entity_of_record(position)
    }

    /// A point-read reply for `row` — its repaired row, or its entity —
    /// must equal the reference's: the materialized row, or the members,
    /// outcome, deduced target and suggestion.
    pub fn read_matches(&self, row: RowId, reply: &Message) -> Result<(), String> {
        let entity = self.entity_of(row);
        let wrong = |what: &str| {
            Err(format!(
                "row {row:?}: {what} differs from the from-scratch repair"
            ))
        };
        match reply {
            Message::RowReply { row: served } => {
                let expected = entity
                    .and_then(|e| self.row_of_entity[e])
                    .map(|r| self.repair.repaired.row(r).values().to_vec());
                if expected != *served {
                    return wrong("repaired row");
                }
                Ok(())
            }
            Message::EntityReply { entity: served } => match (entity, served) {
                (None, None) => Ok(()),
                (Some(entity), Some(view)) => {
                    let e = &self.repair.report.entities[entity];
                    let records: Vec<RowId> = e.records.iter().map(|&p| self.row_ids[p]).collect();
                    if records != view.records {
                        return wrong("entity members");
                    }
                    let served = &view.result;
                    if e.outcome != served.outcome
                        || e.deduced != served.deduced
                        || e.suggestion != served.suggestion
                    {
                        return wrong("entity result");
                    }
                    Ok(())
                }
                _ => wrong("liveness"),
            },
            other => Err(format!("{:?} is not a point-read reply", other.msg_type())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{open_engine, reference_repair};
    use relacc_core::chase::is_cr;
    use relacc_core::Specification;
    use relacc_datagen::{med_stream, StreamConfig, StreamOp, UpdateStream};
    use relacc_engine::IncrementalEngine;
    use relacc_model::{EntityInstance, Value};
    use relacc_serve::Server;

    /// A different value of the same type (for the checkers' own tests).
    fn flip(value: &Value) -> Value {
        match value {
            Value::Null => Value::Int(1),
            Value::Bool(b) => Value::Bool(!b),
            Value::Int(i) => Value::Int(i + 1),
            Value::Float(f) => Value::Float(f + 1.0),
            Value::Str(s) => Value::text(format!("{s}~")),
        }
    }

    fn stream() -> UpdateStream {
        let config = StreamConfig {
            n_batches: 6,
            seed: 5,
            ..StreamConfig::default()
        };
        med_stream(0.01, 5, &config)
    }

    /// An engine with every scripted op applied, plus the appended master rows.
    fn applied(stream: &UpdateStream) -> (IncrementalEngine, Vec<Vec<Value>>) {
        let mut engine = open_engine(stream);
        let mut appended = Vec::new();
        for op in &stream.ops {
            match op {
                StreamOp::Rows(batch) => {
                    engine.apply(batch).expect("scripted batch applies");
                }
                StreamOp::MasterAppend(rows) => {
                    engine
                        .apply_master_append(0, rows.clone())
                        .expect("scripted append applies");
                    appended.extend(rows.iter().cloned());
                }
            }
        }
        (engine, appended)
    }

    #[test]
    fn a_read_answered_at_the_wrong_generation_fails() {
        let stream = stream();
        let (engine, _) = applied(&stream);
        let server = Server::new(&engine);
        let now = engine.current_epoch().generation();
        let before = Generation(now.0 - 1);
        let mut flagged = 0;
        for row in engine.current_epoch().live_rows() {
            let right = Message::EntityReply {
                entity: server.entity_result(row, now).unwrap(),
            };
            assert_eq!(reply_matches(&right, &right), Ok(()));
            let stale = Message::EntityReply {
                entity: server.entity_result(row, before).unwrap(),
            };
            if reply_matches(&stale, &right).is_err() {
                flagged += 1;
            }
        }
        assert!(flagged > 0, "no stale read was flagged");
    }

    #[test]
    fn a_snapshot_missing_one_entity_fails() {
        let stream = stream();
        let (engine, _) = applied(&stream);
        let snapshot = engine.snapshot();
        let full = reference_repair(&engine, &stream);
        assert_eq!(snapshot_matches(&snapshot, &full), Ok(()));
        let mut missing = snapshot.clone();
        missing.report.entities.pop();
        assert!(snapshot_matches(&missing, &full).is_err());
        let mut wrong = snapshot.clone();
        let target = &mut wrong.report.entities[0].deduced;
        let flipped = flip(&target.values()[0]);
        target.set(relacc_model::AttrId(0), flipped);
        assert!(snapshot_matches(&wrong, &full).is_err());
        let mut wrong = snapshot.clone();
        let suggested = wrong
            .report
            .entities
            .iter_mut()
            .find(|e| e.suggestion.is_some())
            .expect("some entity is suggested");
        suggested.suggestion = None;
        suggested.outcome = EntityOutcome::NeedsUser;
        assert!(snapshot_matches(&wrong, &full).is_err());
    }

    #[test]
    fn a_flipped_value_in_a_feed_batch_fails() {
        let stream = stream();
        let mut engine = open_engine(&stream);
        let server = Server::new(&engine);
        let mut subscription = server.subscribe();
        let start = engine.current_epoch();
        let mut batches = Vec::new();
        for op in &stream.ops {
            if let StreamOp::Rows(batch) = op {
                engine.apply(batch).unwrap();
                batches.push(subscription.try_next().expect("a batch per commit"));
            }
        }
        let end = engine.current_epoch();
        let mut fold = FeedFold::new(&start);
        for batch in &batches {
            fold.apply(batch).unwrap();
        }
        assert_eq!(fold.matches(&end), Ok(()));

        let mut tampered = batches.clone();
        let upsert = tampered
            .iter_mut()
            .flat_map(|b| b.changes.iter_mut())
            .rev()
            .find_map(|c| match &mut c.kind {
                EntityChangeKind::Upserted(view) if view.repaired.is_some() => Some(view),
                _ => None,
            })
            .expect("some batch upserts a repaired entity");
        let repaired = upsert.repaired.as_mut().unwrap();
        repaired[0] = flip(&repaired[0]);
        let mut fold = FeedFold::new(&start);
        for batch in &tampered {
            fold.apply(batch).unwrap();
        }
        assert!(fold.matches(&end).is_err());

        let mut fold = FeedFold::new(&start);
        assert!(fold.apply(&batches[1]).is_err(), "a gap must be flagged");
    }

    #[test]
    fn a_delta_missing_a_block_fails() {
        let stream = stream();
        let mut engine = open_engine(&stream);
        let base = engine.current_epoch();
        for op in stream.ops.iter().take(4) {
            if let StreamOp::Rows(batch) = op {
                engine.apply(batch).unwrap();
            }
        }
        let now = engine.current_epoch();
        let delta = engine.changes_since(base.generation()).unwrap();
        let mut views = base.block_views();
        delta.apply_to(&mut views);
        assert_eq!(views_match(&views, &now, None), Ok(()));

        let mut short = delta.clone();
        let dropped = short.changes.pop().expect("the delta changes blocks");
        let mut views = base.block_views();
        short.apply_to(&mut views);
        assert!(views_match(&views, &now, None).is_err());
        let keys = BTreeSet::from([dropped.key]);
        assert!(views_match(&views, &now, Some(&keys)).is_err());
    }

    #[test]
    fn a_wrong_target_fails_against_the_reference_chase() {
        let stream = stream();
        let (engine, appended) = applied(&stream);
        let epoch = engine.current_epoch();
        let master = crate::workload::current_master(&stream, &appended).unwrap();
        let row = epoch.live_rows()[0];
        let view = epoch.entity_result(row).unwrap();
        let mut ie = EntityInstance::new(epoch.schema().clone());
        for id in &view.records {
            ie.push_tuple(engine.relation().row(*id).unwrap().tuple.clone())
                .unwrap();
        }
        let spec = Specification::new(ie, stream.rules.clone()).with_master(master);
        let reference = is_cr(&spec);
        assert_eq!(target_matches(&view, &reference), Ok(()));
        let mut wrong = view.clone();
        let attr = relacc_model::AttrId(0);
        let flipped = flip(wrong.result.deduced.value(attr));
        wrong.result.deduced.set(attr, flipped);
        assert!(target_matches(&wrong, &reference).is_err());
    }

    #[test]
    fn a_final_read_that_disagrees_with_the_from_scratch_repair_fails() {
        let stream = stream();
        let (engine, _) = applied(&stream);
        let epoch = engine.current_epoch();
        let full = reference_repair(&engine, &stream);
        let ids = engine.relation().rows().iter().map(|r| r.id).collect();
        let reference = Reference::new(full, ids);
        let (row, served, entity) = epoch
            .live_rows()
            .into_iter()
            .find_map(|row| {
                let entity = epoch.entity_result(row)?;
                entity.result.suggestion.as_ref()?;
                Some((row, epoch.repaired_row(row)?, Some(entity)))
            })
            .expect("some suggested entity materializes a row");
        let row_reply = |row| Message::RowReply { row };
        let entity_reply = |entity| Message::EntityReply { entity };
        assert_eq!(
            reference.read_matches(row, &row_reply(Some(served.clone()))),
            Ok(())
        );
        assert_eq!(
            reference.read_matches(row, &entity_reply(entity.clone())),
            Ok(())
        );

        let mut wrong = served.clone();
        wrong[0] = flip(&wrong[0]);
        assert!(reference
            .read_matches(row, &row_reply(Some(wrong)))
            .is_err());
        assert!(reference.read_matches(row, &row_reply(None)).is_err());
        let mut wrong = entity.clone().unwrap();
        wrong.records.pop();
        assert!(reference
            .read_matches(row, &entity_reply(Some(wrong)))
            .is_err());
        let mut wrong = entity.clone().unwrap();
        wrong.result.suggestion = None;
        wrong.result.outcome = EntityOutcome::NeedsUser;
        assert!(reference
            .read_matches(row, &entity_reply(Some(wrong)))
            .is_err());
        assert!(reference.read_matches(row, &entity_reply(None)).is_err());
    }
}
