//! Differential guard for the serving layer: for **every** generation `G` of
//! a replayed update stream, `changes_since(G)` composed onto the `G`-pinned
//! epoch's block views and re-assembled must reproduce the engine's current
//! `snapshot()` bit-identically for an [`IncrementalEngine`].
//!
//! This is the contract that lets a reader catch up from any retained
//! generation by fetching only the changed blocks instead of the corpus.
//! Along the way every commit is checked against its predecessor epoch: its
//! dirty set (what a change feed unions) must equal the blocks the two
//! epochs pin differently (what a feed resync diffs), and the predecessor's
//! snapshot must not move.

use relacc::datagen::streaming::{med_stream, StreamConfig, StreamOp, UpdateStream};
use relacc::engine::{
    assemble_views, BatchEngine, Epoch, EpochHub, IncrementalEngine, RelationRepair,
};
use relacc::resolve::{BlockKey, BlockingStrategy, ResolveConfig};
use relacc::store::Generation;
use std::collections::BTreeSet;

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
    .with_threads(2)
}

fn assert_bit_identical(composed: &RelationRepair, current: &RelationRepair, label: &str) {
    assert_eq!(
        composed.resolved.members, current.resolved.members,
        "{label}: resolution membership"
    );
    assert_eq!(
        composed.resolved.decisions, current.resolved.decisions,
        "{label}: match decisions"
    );
    assert_eq!(
        composed.report.entities.len(),
        current.report.entities.len(),
        "{label}: entity count"
    );
    for (a, b) in composed
        .report
        .entities
        .iter()
        .zip(current.report.entities.iter())
    {
        assert_eq!(a.entity, b.entity, "{label}: entity index");
        assert_eq!(a.records, b.records, "{label}: entity {} records", a.entity);
        assert_eq!(a.outcome, b.outcome, "{label}: entity {} outcome", a.entity);
        assert_eq!(a.deduced, b.deduced, "{label}: entity {} deduced", a.entity);
        assert_eq!(
            a.suggestion, b.suggestion,
            "{label}: entity {} suggestion",
            a.entity
        );
    }
    assert_eq!(
        composed.repaired.rows(),
        current.repaired.rows(),
        "{label}: repaired rows"
    );
    assert_eq!(
        composed.row_entities, current.row_entities,
        "{label}: row/entity mapping"
    );
    assert_eq!(composed.skipped, current.skipped, "{label}: skipped");
}

/// One commit published `next` after `previous`, whose snapshot was
/// `frozen` before the commit.
fn check_commit(previous: &Epoch, frozen: &RelationRepair, next: &Epoch, label: &str) {
    let dirty: BTreeSet<BlockKey> = next.dirty_keys().cloned().collect();
    assert_eq!(
        dirty,
        next.blocks_changed_since(previous),
        "{label}: dirty keys against the blocks pinned differently"
    );
    assert_bit_identical(
        &previous.snapshot(),
        frozen,
        &format!("{label}: previous epoch"),
    );
}

/// Replay the stream, then catch up from every generation via
/// `changes_since` and demand bit-identity with the current snapshot.
fn check_catchup_from_every_generation(hub: &EpochHub, current: &RelationRepair, label: &str) {
    let final_generation = hub.current().generation();
    for g in 0..=final_generation.0 {
        let generation = Generation(g);
        let base = hub
            .at_generation(generation)
            .unwrap_or_else(|e| panic!("{label}: generation {g} must be retained: {e}"));
        let delta = hub
            .changes_since(generation)
            .unwrap_or_else(|e| panic!("{label}: delta from {g} must exist: {e}"));
        assert_eq!(delta.from, generation, "{label}: delta base generation");
        assert_eq!(delta.from_epoch, base.id(), "{label}: delta base epoch");
        assert_eq!(delta.to, final_generation, "{label}: delta target");
        let mut views = base.block_views();
        delta.apply_to(&mut views);
        let composed = assemble_views(base.schema().clone(), &views, 2);
        assert_bit_identical(&composed, current, &format!("{label}/from-gen-{g}"));
    }
}

#[test]
fn composed_deltas_reproduce_the_current_snapshot_single() {
    let stream = med_stream(0.01, 23, &StreamConfig::default());
    let mut engine = IncrementalEngine::open(
        open_batch_engine(&stream),
        stream.name.clone(),
        &stream.relation,
        resolve_config(&stream),
    );
    engine.set_epoch_retention(stream.ops.len() + 2);
    for (step, op) in stream.ops.iter().enumerate() {
        let previous = engine.current_epoch();
        let frozen = previous.snapshot();
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
        let label = format!("single/op-{step}");
        check_commit(&previous, &frozen, &engine.current_epoch(), &label);
    }
    // end on a recompile over the current masters: every block re-repaired
    let previous = engine.current_epoch();
    let frozen = previous.snapshot();
    let masters = engine.engine().plan().masters().to_vec();
    engine
        .replace_masters(masters)
        .expect("the current masters validate");
    let label = "single/replace-masters";
    check_commit(&previous, &frozen, &engine.current_epoch(), label);
    let current = engine.snapshot();
    check_catchup_from_every_generation(&engine.epochs(), &current, "single");
}
