//! Incremental repair for streaming updates: the "one workload, many
//! versions" axis of evaluate-many.
//!
//! [`BatchEngine::repair_relation`] answers "repair this relation, once".
//! Served workloads do not stop there: input tuples and master data keep
//! arriving, and re-running the full pipeline per update wastes almost all of
//! its work — a small batch touches a handful of entities while thousands of
//! others are untouched.  An [`IncrementalEngine`] keeps a repaired snapshot
//! **live** under a stream of [`UpdateBatch`]es:
//!
//! * the input relation is held as a [`VersionedRelation`] (stable row ids,
//!   generation stamps), so updates are typed deletes + inserts;
//! * a [`relacc_resolve::IncrementalBlockingIndex`] maps each update to its
//!   **dirty blocks** — blocking partitions the records and resolution never
//!   merges across blocks, so entities are per-block objects and only dirty
//!   blocks can change;
//! * each live dirty block is re-repaired by **one** job on the worker pool:
//!   [`relacc_resolve::resolve_block`] against the block's cached repair,
//!   which copies the match decision of every pair whose two rows survived
//!   and compares only the pairs an insert created, then the chase and
//!   suggestion search of each of the block's entities.  The job returns a
//!   fresh block repair that replaces the cached one whole; every clean block
//!   keeps its cached repair.  The seed repair is the same job with no cache;
//! * master-data **appends** evolve the compiled plan in place
//!   ([`relacc_core::chase::ChasePlan::ground_master_delta`], then
//!   [`relacc_core::chase::ChasePlan::adopt_master_delta`] — monotone: new
//!   form-(2) steps are only added) and re-repair exactly the blocks whose
//!   entities the new steps can touch: by chase monotonicity, a new step with
//!   premise `te[A] = c` can never fire for an entity whose deduced `te[A]`
//!   is a different constant, and an assignment equal to an already-deduced
//!   value is a no-op, so entities failing both tests keep their cached
//!   results verbatim.  Their rows did not change, so the job copies every
//!   match decision and only the chase re-runs.  Master deletes (like rule
//!   changes) are not monotone and invalidate to a recompile, which
//!   re-repairs every block the same way under a fresh plan identity.
//!
//! [`IncrementalEngine::snapshot`] is the current epoch's [`Epoch::snapshot`]:
//! a [`RelationRepair`] that is **semantically identical** to a from-scratch
//! [`BatchEngine::repair_relation`] over the current relation state: same
//! entities in the same order, same outcomes/targets/suggestions, same match
//! decisions, same repaired rows (the row-materialization policy is shared
//! code).  Only the per-entity chase counters differ — cached entities report
//! the work of the run that produced them, which is the point of
//! incrementality.  The equivalence is enforced by
//! `tests/incremental_differential.rs` at the workspace root.

use crate::batch::{BatchEngine, EntityOutcome, EntityResult, RelationRepair};
use crate::epoch::{Epoch, EpochHub, EpochId, SnapshotDelta};
use crate::pool::par_map_with;
use relacc_core::chase::{
    ChasePlan, ChaseScratch, GroundStep, MasterUpdate, PendingPred, PlanDeltaError,
    SpecificationError, StepAction,
};
use relacc_model::{EntityInstance, MasterRelation, TargetTuple, Tuple, Value};
use relacc_resolve::{
    resolve_block, BlockKey, BlockWork, Blocker, DecisionTriangle, IncrementalBlockingIndex,
    PriorBlock, RecordFingerprint, ResolveConfig, ResolveStats,
};
use relacc_store::{Generation, Relation, RowId, UpdateBatch, UpdateError, VersionedRelation};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The cached repair of one block: its rows, the local resolution output and
/// the per-entity results, all under block-local indices;
/// [`Epoch::snapshot`] rebases them to relation row positions.
///
/// Cached per block behind an `Arc` that published epochs pin too.  A block
/// repair is never written after it is built: a re-repair inserts a fresh
/// one, so an epoch that pins the old allocation keeps seeing it unchanged.
/// Every mutation path re-repairs or revalidates *all* live blocks before
/// returning, so all cached repairs are valid under the plan's current
/// stamp.
#[derive(Debug, Clone)]
pub(crate) struct BlockRepair {
    /// The block's live rows at repair time, ascending.
    pub(crate) rows: Vec<RowId>,
    /// Pairwise match decisions over `rows`, which the next re-repair of
    /// the block reuses for its surviving pairs.  The triangle keeps 9
    /// bytes a pair: the similarity (`f64`) and one verdict byte (matched,
    /// or the prune stage), with the pair `(a, b)`, `a < b`, of the block's
    /// `n` rows at row-major position `a(2n − a − 1)/2 + (b − a − 1)`; its
    /// two row indices are that position.  [`Epoch::snapshot`] and the
    /// block views expand it into `MatchDecision`s.
    pub(crate) decisions: DecisionTriangle,
    /// The block's entities in ascending-smallest-member order.
    pub(crate) entities: Vec<BlockEntity>,
    /// Fingerprints of `rows` (parallel), reused verbatim by the next
    /// re-repair so steady-state streaming only fingerprints inserted rows.
    /// Empty when the resolve config runs without the cascade.
    pub(crate) fingerprints: Vec<RecordFingerprint>,
    /// Cascade counters of the resolution that produced `decisions`.
    pub(crate) stats: ResolveStats,
}

#[derive(Debug, Clone)]
pub(crate) struct BlockEntity {
    /// Member positions into [`BlockRepair::rows`], ascending.
    pub(crate) members: Vec<usize>,
    /// The repair result.  `entity` / `records` are meaningless here and are
    /// rewritten during snapshot assembly.
    pub(crate) result: EntityResult,
}

/// What one applied update did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The relation generation after the update (unchanged for pure master
    /// deltas).
    pub generation: Generation,
    /// Blocks that were re-repaired.
    pub dirty_blocks: usize,
    /// Blocks that lost their last live row and were dropped from the cache.
    pub dropped_blocks: usize,
    /// Blocks whose cached repair was reused untouched.
    pub clean_blocks: usize,
    /// Entities re-repaired through the worker pool.
    pub entities_rerepaired: usize,
    /// Entities whose cached result was reused.
    pub entities_reused: usize,
}

/// Cumulative counters of an engine's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Row update batches applied.
    pub batches_applied: usize,
    /// Master deltas applied in place.
    pub master_deltas_applied: usize,
    /// Plan recompiles forced by non-monotone master updates.
    pub recompiles: usize,
    /// Total entities re-repaired across all updates (including the initial
    /// full repair).
    pub entities_rerepaired: usize,
    /// Total entities reused from cache across all updates.
    pub entities_reused: usize,
    /// Rows fingerprinted for the resolution cascade (initial repair plus
    /// every row inserted into a re-repaired block).
    pub rows_fingerprinted: usize,
    /// Rows of a re-repaired block whose cached fingerprint was reused: the
    /// block's surviving rows, which after a master delta are all its rows.
    pub fingerprints_reused: usize,
    /// Row pairs decided by the resolution cascade (initial repair plus
    /// every pair with a row inserted into a re-repaired block).
    pub pairs_compared: usize,
    /// Row pairs of a re-repaired block whose cached decision was reused
    /// because both rows survived: after a master delta, all its pairs.
    pub pairs_reused: usize,
}

impl IncrementalStats {
    /// Count one block resolution's work.
    fn add_work(&mut self, work: &BlockWork) {
        self.rows_fingerprinted += work.rows_fingerprinted;
        self.fingerprints_reused += work.fingerprints_reused;
        self.pairs_compared += work.pairs_compared;
        self.pairs_reused += work.pairs_reused;
    }
}

/// Errors of the incremental engine.
#[derive(Debug)]
pub enum IncrementalError {
    /// A row update failed (wrong relation name, dead row id, schema
    /// violation).
    Update(UpdateError),
    /// A master delta failed.
    Plan(PlanDeltaError),
    /// The plan recompile of [`IncrementalEngine::replace_masters`] failed:
    /// the rules do not validate against the replacement master data.
    Recompile(SpecificationError),
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrementalError::Update(e) => write!(f, "update rejected: {e}"),
            IncrementalError::Plan(e) => write!(f, "master delta rejected: {e}"),
            IncrementalError::Recompile(e) => write!(f, "master replacement rejected: {e}"),
        }
    }
}

impl std::error::Error for IncrementalError {}

impl From<UpdateError> for IncrementalError {
    fn from(e: UpdateError) -> Self {
        IncrementalError::Update(e)
    }
}

impl From<PlanDeltaError> for IncrementalError {
    fn from(e: PlanDeltaError) -> Self {
        IncrementalError::Plan(e)
    }
}

/// A live repaired snapshot of one relation, maintained under a stream of
/// typed updates.  See the module docs for the design.
#[derive(Debug)]
pub struct IncrementalEngine {
    engine: BatchEngine,
    resolve: ResolveConfig,
    /// Name of the relation that updates must address.
    name: String,
    relation: VersionedRelation,
    index: IncrementalBlockingIndex,
    blocks: HashMap<BlockKey, Arc<BlockRepair>>,
    /// Shared blocker for epoch point reads (identical to the index's own).
    blocker: Arc<Blocker>,
    /// The publish/pin rendezvous with concurrent readers.
    hub: EpochHub,
    stats: IncrementalStats,
}

impl IncrementalEngine {
    /// Open an engine over the seed state of a relation (named `name`, the
    /// name its [`UpdateBatch`]es must address) and run the initial full
    /// repair.
    pub fn open(
        engine: BatchEngine,
        name: impl Into<String>,
        relation: &Relation,
        resolve: ResolveConfig,
    ) -> Self {
        let versioned = VersionedRelation::from_relation(relation);
        let blocker = resolve.blocker(relation.schema());
        let index = IncrementalBlockingIndex::build(
            blocker.clone(),
            versioned.rows().iter().map(|r| (r.id, &r.tuple)),
        );
        let mut this = IncrementalEngine {
            engine,
            resolve,
            name: name.into(),
            relation: versioned,
            index,
            blocks: HashMap::new(),
            blocker: Arc::new(blocker),
            hub: EpochHub::new(),
            stats: IncrementalStats::default(),
        };
        // initial repair: every block is dirty
        let all: BTreeSet<BlockKey> = this
            .index
            .block_members()
            .map(|(key, _)| key.clone())
            .collect();
        this.rerepair(all);
        this
    }

    /// The batch engine (and through it the compiled plan).
    pub fn engine(&self) -> &BatchEngine {
        &self.engine
    }

    /// The current relation state.
    pub fn relation(&self) -> &VersionedRelation {
        &self.relation
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &IncrementalStats {
        &self.stats
    }

    /// Apply a typed batch of row deletes + inserts and re-repair exactly the
    /// dirty blocks.  The batch must address this engine's relation by name.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome, IncrementalError> {
        if batch.relation != self.name {
            return Err(IncrementalError::Update(UpdateError::NoSuchRelation(
                batch.relation.clone(),
            )));
        }
        let applied = self
            .relation
            .apply(batch)
            .map_err(IncrementalError::Update)?;
        let inserted: Vec<(RowId, Tuple)> = applied
            .inserted
            .iter()
            .map(|&id| {
                let row = self.relation.row(id).expect("freshly inserted");
                (id, row.tuple.clone())
            })
            .collect();
        let dirty = self.index.apply(
            applied.deleted.iter().map(|(id, _)| *id),
            inserted.iter().map(|(id, tuple)| (*id, tuple)),
        );
        self.stats.batches_applied += 1;
        Ok(self.rerepair(dirty.blocks))
    }

    /// Append rows to master relation `master`, evolving the compiled plan in
    /// place, and re-repair only the blocks with an entity the new form-(2)
    /// steps can affect (see the module docs for why the filter is exact).
    pub fn apply_master_append(
        &mut self,
        master: usize,
        rows: Vec<Vec<Value>>,
    ) -> Result<UpdateOutcome, IncrementalError> {
        let plan = self.engine.plan_mut();
        let delta = plan.ground_master_delta(&MasterUpdate::append(master, rows))?;
        plan.adopt_master_delta(&delta)?;
        self.stats.master_deltas_applied += 1;
        let new_steps: &[GroundStep] = delta.steps().as_slice();
        // unaffected blocks keep their cached results verbatim (even the
        // allocation: published epochs share it); the plan's new stamp
        // revalidates them wholesale
        let dirty: BTreeSet<BlockKey> = self
            .blocks
            .iter()
            .filter(|(_, repair)| {
                !new_steps.is_empty()
                    && repair
                        .entities
                        .iter()
                        .any(|be| step_set_may_affect(new_steps, &be.result))
            })
            .map(|(key, _)| key.clone())
            .collect();
        Ok(self.rerepair(dirty))
    }

    /// Replace the plan's master data wholesale (the non-monotone path:
    /// deletions or arbitrary edits).  The plan is recompiled — fresh
    /// identity, so every cached checkpoint and block result is stale — and
    /// the whole relation is re-repaired.  When the rules do not validate
    /// against `masters`, the engine is left as it was.
    pub fn replace_masters(
        &mut self,
        masters: Vec<MasterRelation>,
    ) -> Result<UpdateOutcome, IncrementalError> {
        let plan = self.engine.plan();
        let recompiled =
            ChasePlan::compile(plan.schema().clone(), (**plan.rules()).clone(), masters)
                .map_err(IncrementalError::Recompile)?;
        let config = self.engine.config().clone();
        self.engine = BatchEngine::from_plan(recompiled).with_config(config);
        self.stats.recompiles += 1;
        let all: BTreeSet<BlockKey> = self.blocks.keys().cloned().collect();
        Ok(self.rerepair(all))
    }

    /// Re-repair the given blocks and publish an epoch; every other block
    /// keeps its cached repair, and blocks that no longer have live rows are
    /// dropped.
    ///
    /// One pool job per live dirty block reads the block's rows, resolves
    /// them against the block's cached repair and chases the resulting
    /// entities with the worker's scratch and interner.  A job is a pure
    /// function of the block's rows, its cached repair and the plan, so the
    /// output is identical at every thread count; the pool hands whole
    /// blocks to whichever worker is free.
    fn rerepair(&mut self, dirty: BTreeSet<BlockKey>) -> UpdateOutcome {
        let mut live: Vec<&BlockKey> = Vec::with_capacity(dirty.len());
        for key in &dirty {
            if self.index.members(key).is_some() {
                live.push(key);
            } else {
                self.blocks.remove(key);
            }
        }
        let dropped_blocks = dirty.len() - live.len();
        let (engine, resolve, relation, index, cached) = (
            &self.engine,
            &self.resolve,
            &self.relation,
            &self.index,
            &self.blocks,
        );
        let schema = relation.schema();
        let attrs = resolve.similarity_attrs(schema);
        let repairs = par_map_with(
            &live,
            engine.config().threads,
            || (ChaseScratch::new(), engine.plan().fork_interner()),
            |(scratch, interner), _, key| {
                let ids = index.members(key).expect("live blocks have members");
                let rows: Vec<Tuple> = ids
                    .iter()
                    .map(|&id| {
                        let row = relation.row(id).expect("indexed rows are live");
                        row.tuple.clone()
                    })
                    .collect();
                let prior = cached.get(*key).map(|b| PriorBlock {
                    rows: &b.rows,
                    decisions: &b.decisions,
                    fingerprints: &b.fingerprints,
                });
                let resolved = resolve_block(&rows, ids, &attrs, resolve, prior);
                let entities = resolved
                    .members
                    .into_iter()
                    .enumerate()
                    .map(|(idx, members)| {
                        let mut instance = EntityInstance::new(schema.clone());
                        for &pos in &members {
                            instance
                                .push_tuple(rows[pos].clone())
                                .expect("live rows conform to the schema");
                        }
                        interner.intern_instance(&mut instance);
                        let result = engine.evaluate_entity(idx, &instance, scratch);
                        BlockEntity { members, result }
                    })
                    .collect();
                let repair = BlockRepair {
                    rows: ids.to_vec(),
                    decisions: resolved.decisions,
                    entities,
                    fingerprints: resolved.fingerprints,
                    stats: resolved.stats,
                };
                (repair, resolved.work)
            },
        );

        let mut entities_rerepaired = 0usize;
        for (key, (repair, work)) in live.iter().zip(repairs) {
            self.stats.add_work(&work);
            entities_rerepaired += repair.entities.len();
            self.blocks.insert((*key).clone(), Arc::new(repair));
        }
        // every live block is cached, and only live blocks are
        let entities_reused = self.cached_entities() - entities_rerepaired;
        let outcome = UpdateOutcome {
            generation: self.relation.generation(),
            dirty_blocks: live.len(),
            dropped_blocks,
            clean_blocks: self.index.blocks() - live.len(),
            entities_rerepaired,
            entities_reused,
        };
        self.publish(dirty);
        self.stats.entities_rerepaired += entities_rerepaired;
        self.stats.entities_reused += entities_reused;
        outcome
    }

    /// Publish the engine's current state as an immutable epoch: pinned
    /// rows, pinned block map, and the keys this mutation dirtied.
    fn publish(&self, dirty: BTreeSet<BlockKey>) {
        self.hub.publish(Epoch {
            id: EpochId(0), // assigned by the hub
            generation: self.relation.generation(),
            stamp: self.engine.plan().stamp(),
            schema: self.relation.schema().clone(),
            blocker: Arc::clone(&self.blocker),
            threads: self.engine.config().threads,
            rows: self.relation.epoch(),
            blocks: Arc::new(self.blocks.clone()),
            dirty,
        });
    }

    /// A cloneable handle to this engine's epoch hub — the read side of the
    /// serving layer.  Readers on other threads pin epochs and compute
    /// deltas through it without ever borrowing the engine.
    pub fn epochs(&self) -> EpochHub {
        self.hub.clone()
    }

    /// Pin the engine's current epoch.
    pub fn current_epoch(&self) -> Arc<Epoch> {
        self.hub.current()
    }

    /// Everything that changed since generation `since`, at block
    /// granularity (see [`EpochHub::changes_since`]).
    pub fn changes_since(
        &self,
        since: Generation,
    ) -> Result<SnapshotDelta, crate::epoch::EpochError> {
        self.hub.changes_since(since)
    }

    /// How many epochs stay reachable for generation-addressed reads.
    pub fn set_epoch_retention(&self, epochs: usize) {
        self.hub.set_retention(epochs);
    }

    /// Number of blocks with a live cached repair.
    pub fn cached_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of entities across all cached block repairs.
    pub fn cached_entities(&self) -> usize {
        self.blocks.values().map(|b| b.entities.len()).sum()
    }

    /// The current full [`RelationRepair`]: the current epoch's
    /// [`Epoch::snapshot`].
    ///
    /// The output is semantically identical to
    /// `BatchEngine::repair_relation(&self.relation().snapshot(), &resolve)`
    /// under the engine's current plan: same entity order (ascending smallest
    /// member record), same outcomes, targets, suggestions, membership, match
    /// decisions, repaired rows and skip list.  Per-entity chase counters
    /// reflect the run that actually produced each cached result.
    pub fn snapshot(&self) -> RelationRepair {
        self.current_epoch().snapshot()
    }
}

/// Can any of the delta's new ground steps change this entity's repair?
///
/// Exactness argument (chase monotonicity + Church-Rosser): master steps are
/// `Assign` actions guarded by `te[A] = c` premises.  A premise on an
/// attribute the base run deduced as a *different* constant can never be
/// satisfied (a defined target value never changes), so such a step never
/// fires for this entity, in the base run or in any candidate check.  A step
/// whose assignments all equal already-deduced values is a no-op even if it
/// fires.  Everything else — a premise on a still-null attribute, an
/// assignment to a null attribute, an assignment contradicting a deduced
/// value (a conflict in the re-run) — may change the fixpoint, so the entity
/// must be re-repaired.  Not-Church-Rosser entities are re-repaired whenever
/// steps were added at all: they stay conflicting (monotonicity), but the
/// *reported* conflict may legitimately differ once more steps compete.
fn step_set_may_affect(steps: &[GroundStep], result: &EntityResult) -> bool {
    if result.outcome == EntityOutcome::NotChurchRosser {
        return true;
    }
    steps
        .iter()
        .any(|step| step_may_affect(step, &result.deduced))
}

fn step_may_affect(step: &GroundStep, deduced: &TargetTuple) -> bool {
    for pending in &step.pending {
        match pending {
            PendingPred::TargetCmp { attr, op, rhs } => {
                let value = deduced.value(*attr);
                if !value.is_null() && !value.eval(*op, rhs).unwrap_or(false) {
                    return false; // premise can never be satisfied
                }
            }
            // order premises do not occur in master steps; be conservative
            PendingPred::Order { .. } => {}
        }
    }
    match &step.action {
        StepAction::Assign { assignments } => assignments.iter().any(|(attr, value)| {
            let current = deduced.value(*attr);
            current.is_null() || !current.same(value)
        }),
        // order actions do not occur in master steps; be conservative
        StepAction::Order { .. } => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::EntityOutcome;
    use relacc_core::rules::{MasterPremise, MasterRule, Predicate, RuleSet, TupleRule};
    use relacc_model::{AttrId, CmpOp, DataType, MasterRelation, Schema, SchemaRef};

    fn schema() -> SchemaRef {
        Schema::builder("stat")
            .attr("name", DataType::Text)
            .attr("rnds", DataType::Int)
            .attr("team", DataType::Text)
            .build()
    }

    fn master_schema() -> SchemaRef {
        Schema::builder("nba")
            .attr("name", DataType::Text)
            .attr("team", DataType::Text)
            .build()
    }

    fn rules(s: &SchemaRef, ms: &SchemaRef) -> RuleSet {
        RuleSet::from_rules([
            relacc_core::AccuracyRule::from(TupleRule::new(
                "cur",
                vec![Predicate::cmp_attrs(s.expect_attr("rnds"), CmpOp::Lt)],
                s.expect_attr("rnds"),
            )),
            relacc_core::AccuracyRule::from(MasterRule::new(
                "m",
                vec![MasterPremise::TargetEqMaster(
                    s.expect_attr("name"),
                    ms.expect_attr("name"),
                )],
                vec![(s.expect_attr("team"), ms.expect_attr("team"))],
            )),
        ])
    }

    fn seed_relation(s: &SchemaRef) -> Relation {
        Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::text("mj"), Value::Int(16), Value::Null],
                vec![Value::text("mj"), Value::Int(27), Value::Null],
                vec![Value::text("sp"), Value::Int(27), Value::Null],
            ],
        )
        .unwrap()
    }

    fn open_engine() -> IncrementalEngine {
        let s = schema();
        let ms = master_schema();
        let master = MasterRelation::from_rows(
            ms.clone(),
            vec![vec![Value::text("mj"), Value::text("Bulls")]],
        )
        .unwrap();
        let engine = BatchEngine::new(s.clone(), rules(&s, &ms), vec![master]).unwrap();
        IncrementalEngine::open(
            engine,
            "stat",
            &seed_relation(&s),
            ResolveConfig::on_attrs(vec!["name".into()])
                .with_strategy(relacc_resolve::BlockingStrategy::ExactKey),
        )
    }

    fn assert_matches_full(incremental: &IncrementalEngine, label: &str) {
        let full = incremental.engine.repair_relation(
            &incremental.relation.snapshot(),
            &ResolveConfig::on_attrs(vec!["name".into()])
                .with_strategy(relacc_resolve::BlockingStrategy::ExactKey),
        );
        let snap = incremental.snapshot();
        assert_eq!(
            snap.resolved.members, full.resolved.members,
            "{label}: members"
        );
        assert_eq!(
            snap.resolved.decisions, full.resolved.decisions,
            "{label}: decisions"
        );
        assert_eq!(snap.resolved.stats, full.resolved.stats, "{label}: stats");
        assert_eq!(
            snap.report.entities.len(),
            full.report.entities.len(),
            "{label}: entity count"
        );
        for (a, b) in snap.report.entities.iter().zip(full.report.entities.iter()) {
            assert_eq!(a.entity, b.entity, "{label}: entity index");
            assert_eq!(a.records, b.records, "{label}: records of {}", a.entity);
            assert_eq!(a.outcome, b.outcome, "{label}: outcome of {}", a.entity);
            assert_eq!(a.deduced, b.deduced, "{label}: deduced of {}", a.entity);
            assert_eq!(
                a.suggestion, b.suggestion,
                "{label}: suggestion of {}",
                a.entity
            );
        }
        assert_eq!(snap.repaired.rows(), full.repaired.rows(), "{label}: rows");
        assert_eq!(
            snap.row_entities, full.row_entities,
            "{label}: row entities"
        );
        assert_eq!(snap.skipped, full.skipped, "{label}: skipped");
    }

    #[test]
    fn open_runs_the_initial_full_repair() {
        let engine = open_engine();
        assert_eq!(engine.stats().entities_rerepaired, 2);
        let snap = engine.snapshot();
        assert_eq!(snap.report.entities.len(), 2);
        // mj joins the master relation and resolves the team
        let mj = &snap.report.entities[0];
        assert_eq!(mj.records, vec![0, 1]);
        assert_eq!(mj.deduced.value(AttrId(2)), &Value::text("Bulls"));
        assert_matches_full(&engine, "seed");
    }

    #[test]
    fn row_updates_rerepair_only_dirty_blocks() {
        let mut engine = open_engine();
        let outcome = engine
            .apply(&UpdateBatch::new("stat").insert(vec![
                Value::text("sp"),
                Value::Int(31),
                Value::Null,
            ]))
            .unwrap();
        assert_eq!(outcome.generation, Generation(1));
        assert_eq!(outcome.dirty_blocks, 1);
        assert_eq!(outcome.dropped_blocks, 0);
        assert_eq!(outcome.clean_blocks, 1);
        assert_eq!(outcome.entities_rerepaired, 1);
        assert_eq!(outcome.entities_reused, 1);
        assert_matches_full(&engine, "insert");

        // deleting the fresher sp row reverts its deduction
        let outcome = engine
            .apply(&UpdateBatch::new("stat").delete(RowId(3)))
            .unwrap();
        assert_eq!(outcome.dirty_blocks, 1);
        assert_matches_full(&engine, "delete");

        // deleting a whole block removes its entities; nothing was
        // re-repaired and the surviving block's cache is reused
        let outcome = engine
            .apply(&UpdateBatch::new("stat").delete(RowId(2)))
            .unwrap();
        assert_eq!(outcome.dirty_blocks, 0);
        assert_eq!(outcome.dropped_blocks, 1);
        assert_eq!(outcome.clean_blocks, 1);
        assert_eq!(outcome.entities_rerepaired, 0);
        assert_eq!(outcome.entities_reused, 1);
        assert_eq!(engine.snapshot().report.entities.len(), 1);
        assert_matches_full(&engine, "block-drop");
    }

    /// Block-cache lifecycle audit: one batch whose deletes empty a block
    /// AND whose inserts repopulate the same `BlockKey` must leave exactly
    /// one live cache entry for that key (the re-resolved one), with the
    /// snapshot still differentially identical to a from-scratch repair —
    /// at 1 and 4 worker threads.  Guards the `blocks.remove(key)`
    /// drop-path in `rerepair` against ever firing for a key the same
    /// batch repopulated.
    #[test]
    fn delete_then_reinsert_same_key_keeps_one_cache_entry() {
        for threads in [1usize, 4] {
            let s = schema();
            let ms = master_schema();
            let master = MasterRelation::from_rows(
                ms.clone(),
                vec![vec![Value::text("mj"), Value::text("Bulls")]],
            )
            .unwrap();
            let engine = BatchEngine::new(s.clone(), rules(&s, &ms), vec![master])
                .unwrap()
                .with_threads(threads);
            let mut inc = IncrementalEngine::open(
                engine,
                "stat",
                &seed_relation(&s),
                ResolveConfig::on_attrs(vec!["name".into()])
                    .with_strategy(relacc_resolve::BlockingStrategy::ExactKey),
            );
            let blocks_before = inc.cached_blocks();
            assert_eq!(blocks_before, 2, "mj block + sp block");

            // RowId(2) is the only "sp" row: the delete empties the block,
            // the inserts repopulate the very same key within one batch
            let outcome = inc
                .apply(
                    &UpdateBatch::new("stat")
                        .delete(RowId(2))
                        .insert(vec![Value::text("sp"), Value::Int(30), Value::Null])
                        .insert(vec![Value::text("sp"), Value::Int(33), Value::Null]),
                )
                .unwrap();
            // the key stayed live: it is dirty, not dropped
            assert_eq!(outcome.dirty_blocks, 1, "threads={threads}");
            assert_eq!(outcome.dropped_blocks, 0, "threads={threads}");
            assert_eq!(
                inc.cached_blocks(),
                blocks_before,
                "threads={threads}: exactly one live entry for the reinserted key"
            );
            assert_eq!(inc.cached_entities(), 2, "threads={threads}");
            assert_matches_full(&inc, &format!("delete-reinsert/threads={threads}"));

            // and the refreshed cache reflects the new rows, not the deleted one
            let snap = inc.snapshot();
            let sp = &snap.report.entities[1];
            assert_eq!(sp.records, vec![2, 3], "threads={threads}");
            assert_eq!(
                sp.deduced.value(AttrId(1)),
                &Value::Int(33),
                "threads={threads}: currency rule picks the fresher rnds"
            );
        }
    }

    #[test]
    fn steady_state_streaming_fingerprints_only_inserted_rows() {
        let mut engine = open_engine();
        // the initial full repair fingerprints every seed row once and
        // compares the one mj pair
        assert_eq!(engine.stats().rows_fingerprinted, 3);
        assert_eq!(engine.stats().fingerprints_reused, 0);
        assert_eq!(engine.stats().pairs_compared, 1);
        assert_eq!(engine.stats().pairs_reused, 0);

        // inserting into the existing "mj" block re-resolves it: the two
        // cached mj fingerprints are reused, only the new row is computed,
        // and only its 2 pairs are compared while the old pair is reused
        engine
            .apply(&UpdateBatch::new("stat").insert(vec![
                Value::text("mj"),
                Value::Int(31),
                Value::Null,
            ]))
            .unwrap();
        assert_eq!(engine.stats().rows_fingerprinted, 4);
        assert_eq!(engine.stats().fingerprints_reused, 2);
        assert_eq!(engine.stats().pairs_compared, 3);
        assert_eq!(engine.stats().pairs_reused, 1);
        assert_matches_full(&engine, "third-mj");

        // a delete re-resolves the block entirely from cached fingerprints
        // and decisions: nothing is compared
        engine
            .apply(&UpdateBatch::new("stat").delete(RowId(3)))
            .unwrap();
        assert_eq!(engine.stats().rows_fingerprinted, 4);
        assert_eq!(engine.stats().fingerprints_reused, 4);
        assert_eq!(engine.stats().pairs_compared, 3);
        assert_eq!(engine.stats().pairs_reused, 2);

        // a master delta leaves every row of its dirty block surviving: no
        // fingerprint or pair is computed, and the one-row sp block it
        // dirties reuses its one fingerprint (and its zero pairs)
        let before = engine.stats().clone();
        engine
            .apply_master_append(0, vec![vec![Value::text("sp"), Value::text("Blazers")]])
            .unwrap();
        assert_eq!(engine.stats().rows_fingerprinted, before.rows_fingerprinted);
        assert_eq!(
            engine.stats().fingerprints_reused,
            before.fingerprints_reused + 1
        );
        assert_eq!(engine.stats().pairs_compared, before.pairs_compared);
        assert_eq!(engine.stats().pairs_reused, before.pairs_reused);
        assert_matches_full(&engine, "fingerprint-reuse");
    }

    #[test]
    fn snapshot_stats_match_full_resolution() {
        let engine = open_engine();
        let snap = engine.snapshot();
        let full = relacc_resolve::resolve_relation(
            &engine.relation.snapshot(),
            &ResolveConfig::on_attrs(vec!["name".into()])
                .with_strategy(relacc_resolve::BlockingStrategy::ExactKey),
        );
        assert_eq!(snap.resolved.stats, full.stats);
        assert_eq!(
            snap.resolved.stats.pairs_considered,
            snap.resolved.decisions.len()
        );
    }

    #[test]
    fn updates_must_address_the_right_relation() {
        let mut engine = open_engine();
        assert!(matches!(
            engine.apply(&UpdateBatch::new("other")),
            Err(IncrementalError::Update(UpdateError::NoSuchRelation(_)))
        ));
        assert!(matches!(
            engine.apply(&UpdateBatch::new("stat").delete(RowId(99))),
            Err(IncrementalError::Update(UpdateError::NoSuchRow(_)))
        ));
    }

    #[test]
    fn master_appends_rerepair_only_affected_entities() {
        let mut engine = open_engine();
        // the sp entity has no master row: its team is open
        let before = engine.snapshot();
        assert!(before.report.entities[1].deduced.is_null(AttrId(2)));

        let outcome = engine
            .apply_master_append(0, vec![vec![Value::text("sp"), Value::text("Blazers")]])
            .unwrap();
        // only the sp entity can be affected: mj's premises bind te[name]="mj"
        assert_eq!(outcome.entities_rerepaired, 1);
        assert_eq!(outcome.entities_reused, 1);
        let after = engine.snapshot();
        assert_eq!(
            after.report.entities[1].deduced.value(AttrId(2)),
            &Value::text("Blazers")
        );
        assert_matches_full(&engine, "master-append");

        // appending an unrelated master row affects nobody
        let outcome = engine
            .apply_master_append(0, vec![vec![Value::text("pe"), Value::text("Knicks")]])
            .unwrap();
        assert_eq!(outcome.entities_rerepaired, 0);
        assert_eq!(outcome.entities_reused, 2);
        assert_matches_full(&engine, "unrelated-append");
        assert_eq!(engine.stats().master_deltas_applied, 2);
    }

    #[test]
    fn master_replacement_recompiles_and_rerepairs_everything() {
        let mut engine = open_engine();
        let ms = master_schema();
        // delete the mj master row: requires a recompile
        let replacement =
            MasterRelation::from_rows(ms, vec![vec![Value::text("sp"), Value::text("Blazers")]])
                .unwrap();
        let old_stamp = engine.engine().plan().stamp();
        let outcome = engine.replace_masters(vec![replacement]).unwrap();
        assert_eq!(outcome.entities_rerepaired, 2);
        assert_ne!(engine.engine().plan().stamp().plan, old_stamp.plan);
        let snap = engine.snapshot();
        // mj lost its master row, sp gained one
        assert!(snap.report.entities[0].deduced.is_null(AttrId(2)));
        assert_eq!(
            snap.report.entities[1].deduced.value(AttrId(2)),
            &Value::text("Blazers")
        );
        assert_matches_full(&engine, "recompile");
        assert_eq!(engine.stats().recompiles, 1);
    }

    #[test]
    fn a_failed_recompile_reports_its_error_and_changes_nothing() {
        let mut engine = open_engine();
        let epoch = engine.current_epoch().id();
        let before = format!("{:?}", engine.snapshot());
        // the master rule reads master 0, so an empty master list fails
        // rule validation: the recompile itself is what failed
        let err = engine.replace_masters(vec![]).unwrap_err();
        assert!(matches!(err, IncrementalError::Recompile(_)), "{err}");
        assert!(!err.to_string().contains("recompile the plan instead"));
        assert_eq!(engine.current_epoch().id(), epoch);
        assert_eq!(format!("{:?}", engine.snapshot()), before);
        assert_eq!(engine.stats().recompiles, 0);
    }

    #[test]
    fn suggestions_survive_incremental_merges() {
        // an entity with a free conflicting attribute keeps its suggestion
        // through unrelated updates
        let s = Schema::builder("r")
            .attr("name", DataType::Text)
            .attr("color", DataType::Text)
            .build();
        let relation = Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::text("widget"), Value::text("red")],
                vec![Value::text("widget"), Value::text("red")],
                vec![Value::text("widget"), Value::text("blue")],
                vec![Value::text("gadget"), Value::text("green")],
            ],
        )
        .unwrap();
        let engine = BatchEngine::new(s.clone(), RuleSet::new(), vec![]).unwrap();
        let mut inc = IncrementalEngine::open(
            engine,
            "r",
            &relation,
            ResolveConfig::on_attrs(vec!["name".into()])
                .with_strategy(relacc_resolve::BlockingStrategy::ExactKey),
        );
        let snap = inc.snapshot();
        assert_eq!(snap.report.entities[0].outcome, EntityOutcome::Suggested);
        // touching the gadget block must not disturb the widget suggestion
        let outcome = inc
            .apply(&UpdateBatch::new("r").insert(vec![Value::text("gadget"), Value::text("teal")]))
            .unwrap();
        assert_eq!(outcome.entities_rerepaired, 1);
        let snap = inc.snapshot();
        assert_eq!(snap.report.entities[0].outcome, EntityOutcome::Suggested);
        assert_eq!(
            snap.report.entities[0]
                .suggestion
                .as_ref()
                .unwrap()
                .value(AttrId(1)),
            &Value::text("red")
        );
    }
}
