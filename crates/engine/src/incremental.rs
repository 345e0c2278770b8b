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
//! * dirty blocks are re-resolved locally and their entities re-repaired in
//!   **one** [`BatchEngine::run`] over the existing worker pool; every clean
//!   block keeps its cached per-entity results;
//! * master-data **appends** evolve the compiled plan in place
//!   ([`relacc_core::chase::ChasePlan::apply_master_delta`] — monotone: new
//!   form-(2) steps are
//!   only added) and re-repair exactly the entities the new steps can touch:
//!   by chase monotonicity, a new step with premise `te[A] = c` can never
//!   fire for an entity whose deduced `te[A]` is a different constant, and an
//!   assignment equal to an already-deduced value is a no-op, so entities
//!   failing both tests keep their cached results verbatim.  Master deletes
//!   (like rule changes) are not monotone and invalidate to a recompile,
//!   which re-repairs everything under a fresh plan identity.
//!
//! [`IncrementalEngine::snapshot`] reassembles a [`RelationRepair`] that is
//! **semantically identical** to a from-scratch
//! [`BatchEngine::repair_relation`] over the current relation state: same
//! entities in the same order, same outcomes/targets/suggestions, same match
//! decisions, same repaired rows (the row-materialization policy is shared
//! code).  Only the per-entity chase counters differ — cached entities report
//! the work of the run that produced them, which is the point of
//! incrementality.  The equivalence is enforced by
//! `tests/incremental_differential.rs` at the workspace root.

use crate::batch::EntityOutcome;
use crate::batch::{materialize_rows, BatchEngine, BatchReport, EntityResult, RelationRepair};
use crate::epoch::{Epoch, EpochHub, EpochId, SnapshotDelta};
use crate::pool::{effective_threads, par_map_with};
use relacc_core::chase::{
    GroundStep, MasterUpdate, PendingPred, PlanDeltaError, PlanStamp, StepAction,
};
use relacc_model::{EntityInstance, SchemaRef, TargetTuple, Tuple, Value};
use relacc_resolve::{
    resolve_relation, resolve_relation_with_fingerprints, BlockKey, Blocker,
    IncrementalBlockingIndex, MatchDecision, RecordFingerprint, ResolveConfig, ResolveStats,
    ResolvedEntities,
};
use relacc_store::{Generation, Relation, RowId, UpdateBatch, UpdateError, VersionedRelation};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The cached repair of one block: its rows (in snapshot order at repair
/// time), the local resolution output and the per-entity results, all under
/// block-local indices; [`IncrementalEngine::snapshot`] rebases them to
/// relation row positions.
///
/// Cached per block behind an `Arc`: published epochs pin the same
/// allocation, and the engine copies a block on write only while an epoch
/// actually shares it.  All cached repairs are valid under one engine-level
/// [`PlanStamp`] — every mutation path re-repairs or revalidates *all* live
/// blocks before returning, so the stamp lives on the engine, not per block.
#[derive(Debug, Clone)]
pub(crate) struct BlockRepair {
    /// The block's live rows at repair time, in snapshot order.
    pub(crate) rows: Vec<RowId>,
    /// Pairwise match decisions, with indices local to `rows`.
    pub(crate) decisions: Vec<MatchDecision>,
    /// The block's entities in ascending-smallest-member order.
    pub(crate) entities: Vec<BlockEntity>,
    /// Fingerprints of `rows` (parallel), reused verbatim across
    /// re-resolutions so steady-state streaming only fingerprints inserted
    /// rows.  Empty when the resolve config runs without the cascade.
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

/// One dirty block's re-repair input, self-contained (rows cloned out of the
/// relation, previous repair pinned by `Arc`): the unit of the block-level
/// work list.  Jobs borrow nothing from the engine, so the pool's dynamic
/// loop hands whole blocks to whichever worker is free.
#[derive(Debug)]
struct BlockJob {
    /// The block's key.
    key: BlockKey,
    /// The block's live rows at prepare time, in snapshot order.
    row_ids: Vec<RowId>,
    /// The tuples of `row_ids` (parallel).
    rows: Vec<Tuple>,
    /// The block's previous repair, when cached (fingerprint reuse on the
    /// re-resolve path; the member partition on the cached-resolution path).
    cached: Option<Arc<BlockRepair>>,
    /// Re-resolve membership (row updates) or reuse the cached resolution
    /// and re-run only the chase (master deltas)?
    reresolve: bool,
}

/// Stage-1 output of a re-repair (see
/// [`IncrementalEngine::prepare_rerepair`]): the dirty keys, their
/// self-contained jobs, and the membership-derived outcome counters.
#[derive(Debug)]
struct PreparedRepair {
    /// The dirty block keys (including ones whose block was dropped).
    dirty: BTreeSet<BlockKey>,
    /// One job per dirty block that still has live rows, in ascending key
    /// order.
    jobs: Vec<BlockJob>,
    /// Blocks that lost their last live row and were dropped from the cache.
    dropped_blocks: usize,
    /// Live blocks whose cached repair is reused untouched.
    clean_blocks: usize,
    /// Entities of the clean blocks.
    entities_reused: usize,
}

/// Stage-2 output for one [`BlockJob`]: the block's (fresh or reused)
/// resolution plus the entity instances to chase.  The instances are drained
/// into one flat chase batch before stage 3; `entity_count` survives the
/// drain so stage 4 can split the chase results back per job.
#[derive(Debug)]
struct ResolvedJob {
    /// Fresh local resolution + fingerprints (`None` on the
    /// cached-resolution path, which updates results copy-on-write instead).
    fresh: Option<(ResolvedEntities, Vec<RecordFingerprint>)>,
    /// The block's entity instances, in block-entity order.
    entities: Vec<EntityInstance>,
    /// `entities.len()` at resolution time.
    entity_count: usize,
    /// Rows fingerprinted by this job.
    rows_fingerprinted: usize,
    /// Rows whose cached fingerprint was reused by this job.
    fingerprints_reused: usize,
}

/// Stage 2 of a re-repair: resolve every job's block **in parallel at block
/// granularity** over the shared pool.  Per-block resolution is a pure
/// function of the job (rows + cached fingerprints + config), so the output
/// is identical at every thread count and the pool's dynamic loop can hand
/// blocks to whichever worker is free.
fn resolve_block_jobs(
    jobs: &[BlockJob],
    resolve: &ResolveConfig,
    schema: &SchemaRef,
    threads: usize,
) -> Vec<ResolvedJob> {
    let similarity_attrs = if resolve.cascade && jobs.iter().any(|j| j.reresolve) {
        resolve.similarity_attrs(schema)
    } else {
        Vec::new()
    };
    let threads = effective_threads(threads, jobs.len());
    par_map_with(
        jobs,
        threads,
        || (),
        |_, _, job| resolve_one_job(job, resolve, &similarity_attrs, schema),
    )
}

/// Resolve one block job (see [`resolve_block_jobs`]).
fn resolve_one_job(
    job: &BlockJob,
    resolve: &ResolveConfig,
    similarity_attrs: &[relacc_model::AttrId],
    schema: &SchemaRef,
) -> ResolvedJob {
    if job.reresolve {
        let mut local = Relation::new(schema.clone());
        for tuple in &job.rows {
            local
                .push_row(tuple.values().to_vec())
                .expect("live rows conform to the schema");
        }
        let (mut fresh, fingerprints, rows_fingerprinted, fingerprints_reused) = if resolve.cascade
        {
            // reuse cached fingerprints for rows that survived from the
            // block's previous repair; only inserted rows are fingerprinted
            // (a fingerprint is a pure function of the row, so reuse is
            // exact)
            let cached = job.cached.as_deref();
            let prev_pos: HashMap<RowId, usize> = cached
                .map(|b| b.rows.iter().enumerate().map(|(i, &r)| (r, i)).collect())
                .unwrap_or_default();
            let mut fingerprints = Vec::with_capacity(job.rows.len());
            let (mut computed, mut reused) = (0usize, 0usize);
            for (id, tuple) in job.row_ids.iter().zip(&job.rows) {
                match cached.and_then(|b| prev_pos.get(id).and_then(|&i| b.fingerprints.get(i))) {
                    Some(fp) => {
                        reused += 1;
                        fingerprints.push(fp.clone());
                    }
                    None => {
                        computed += 1;
                        fingerprints.push(RecordFingerprint::of_tuple(tuple, similarity_attrs));
                    }
                }
            }
            (
                resolve_relation_with_fingerprints(&local, resolve, &fingerprints),
                fingerprints,
                computed,
                reused,
            )
        } else {
            (resolve_relation(&local, resolve), Vec::new(), 0, 0)
        };
        let entities = std::mem::take(&mut fresh.entities);
        let entity_count = entities.len();
        ResolvedJob {
            fresh: Some((fresh, fingerprints)),
            entities,
            entity_count,
            rows_fingerprinted,
            fingerprints_reused,
        }
    } else {
        let repair = job
            .cached
            .as_deref()
            .expect("plan-delta dirty blocks are cached");
        let mut entities = Vec::with_capacity(repair.entities.len());
        for be in &repair.entities {
            let mut instance = EntityInstance::new(schema.clone());
            for &local in &be.members {
                instance
                    .push_tuple(job.rows[local].clone())
                    .expect("live rows conform to the schema");
            }
            entities.push(instance);
        }
        let entity_count = entities.len();
        ResolvedJob {
            fresh: None,
            entities,
            entity_count,
            rows_fingerprinted: 0,
            fingerprints_reused: 0,
        }
    }
}

/// What one applied update did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The relation generation after the update (unchanged for pure master
    /// deltas).
    pub generation: Generation,
    /// Blocks that were re-repaired (for row updates also re-resolved).
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
    /// every row inserted into a re-resolved block).
    pub rows_fingerprinted: usize,
    /// Rows whose cached fingerprint was reused during a block
    /// re-resolution — the steady-state streaming case.
    pub fingerprints_reused: usize,
}

/// Errors of the incremental engine.
#[derive(Debug)]
pub enum IncrementalError {
    /// A row update failed (wrong relation name, dead row id, schema
    /// violation).
    Update(UpdateError),
    /// A master delta failed.
    Plan(PlanDeltaError),
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrementalError::Update(e) => write!(f, "update rejected: {e}"),
            IncrementalError::Plan(e) => write!(f, "master delta rejected: {e}"),
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
    /// Catalog-entry name updates must address.
    name: String,
    relation: VersionedRelation,
    index: IncrementalBlockingIndex,
    blocks: HashMap<BlockKey, Arc<BlockRepair>>,
    /// Plan state every cached block repair is valid under (see
    /// [`BlockRepair`]): refreshed at the end of each re-repair.
    stamp: PlanStamp,
    /// Shared blocker for epoch point reads (identical to the index's own).
    blocker: Arc<Blocker>,
    /// The publish/pin rendezvous with concurrent readers.
    hub: EpochHub,
    stats: IncrementalStats,
}

impl IncrementalEngine {
    /// Open an engine over the seed state of a relation (registered under
    /// `name`, the catalog entry its [`UpdateBatch`]es must address) and run
    /// the initial full repair.
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
        let stamp = engine.plan().stamp();
        let mut this = IncrementalEngine {
            engine,
            resolve,
            name: name.into(),
            relation: versioned,
            index,
            blocks: HashMap::new(),
            stamp,
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
        this.rerepair(all, true);
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
        Ok(self.rerepair(dirty.blocks, true))
    }

    /// Append rows to master relation `master`, evolving the compiled plan in
    /// place, and re-repair only the entities the new form-(2) steps can
    /// affect (see the module docs for why the filter is exact).
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
        let mut dirty: BTreeSet<BlockKey> = BTreeSet::new();
        for (key, repair) in &self.blocks {
            // unaffected blocks keep their cached results verbatim (even the
            // allocation: published epochs share it); the engine-level stamp
            // revalidates them wholesale at the end of the re-repair
            let affected = !new_steps.is_empty()
                && repair
                    .entities
                    .iter()
                    .any(|be| step_set_may_affect(new_steps, &be.result));
            if affected {
                dirty.insert(key.clone());
            }
        }
        // block membership is untouched by a master delta: reuse the cached
        // resolution (members + match decisions) and re-run only the chase
        Ok(self.rerepair(dirty, false))
    }

    /// Replace the plan's master data wholesale (the non-monotone path:
    /// deletions or arbitrary edits).  The plan is recompiled — fresh
    /// identity, so every cached checkpoint and block result is stale — and
    /// the whole relation is re-repaired.
    pub fn replace_masters(
        &mut self,
        masters: Vec<relacc_model::MasterRelation>,
    ) -> Result<UpdateOutcome, IncrementalError> {
        let plan = self.engine.plan();
        let recompiled = relacc_core::chase::ChasePlan::compile(
            plan.schema().clone(),
            (**plan.rules()).clone(),
            masters,
        )
        .map_err(|_| IncrementalError::Plan(PlanDeltaError::RequiresRecompile))?;
        let config = self.engine.config().clone();
        self.engine = BatchEngine::from_plan(recompiled).with_config(config);
        self.stats.recompiles += 1;
        let all: BTreeSet<BlockKey> = self.blocks.keys().cloned().collect();
        // rows are untouched, so the cached resolution stays valid here too
        let mut outcome = self.rerepair(all, false);
        outcome.generation = self.relation.generation();
        Ok(outcome)
    }

    /// Re-repair the given blocks; everything else keeps its cached repair.
    /// Blocks that no longer have live rows are dropped.
    ///
    /// With `reresolve` the dirty blocks are re-resolved first (the row-update
    /// path: membership changed).  Without it the cached resolution — member
    /// partition and match decisions — is reused and only the chase re-runs
    /// (the master-delta paths: rows are untouched, and match decisions
    /// depend only on row contents, never on the plan).
    ///
    /// The stages: prepare self-contained jobs, resolve them block-parallel,
    /// chase every dirty entity in one pooled run, then commit the results
    /// and publish an epoch.
    fn rerepair(&mut self, dirty: BTreeSet<BlockKey>, reresolve: bool) -> UpdateOutcome {
        let prepared = self.prepare_rerepair(dirty, reresolve);
        let mut resolved = resolve_block_jobs(
            &prepared.jobs,
            &self.resolve,
            self.relation.schema(),
            self.engine.config().threads,
        );
        let mut batch_entities: Vec<EntityInstance> = Vec::new();
        for job in &mut resolved {
            batch_entities.append(&mut job.entities);
        }
        let report: BatchReport = self.engine.run_owned(batch_entities);
        self.commit_rerepair(prepared, resolved, &report.entities)
    }

    /// Stage 1 of a re-repair: snapshot every dirty block into a
    /// self-contained [`BlockJob`] (rows cloned, cached repair pinned), drop
    /// blocks that lost their last live row, and pre-compute the
    /// membership-derived outcome counters.  Cheap and sequential — the
    /// index's member lists name each dirty block's rows, so the cost is the
    /// dirty rows, not the relation.
    fn prepare_rerepair(&mut self, dirty: BTreeSet<BlockKey>, reresolve: bool) -> PreparedRepair {
        let mut dropped_blocks = 0usize;
        let mut jobs: Vec<BlockJob> = Vec::new();
        for key in &dirty {
            let Some(members) = self.index.members(key) else {
                self.blocks.remove(key);
                dropped_blocks += 1;
                continue;
            };
            let row_ids = members.to_vec();
            let rows = row_ids
                .iter()
                .map(|&id| {
                    let row = self.relation.row(id).expect("indexed rows are live");
                    row.tuple.clone()
                })
                .collect::<Vec<_>>();
            let cached = self.blocks.get(key).cloned();
            if !reresolve {
                let repair = cached.as_ref().expect("plan-delta dirty blocks are cached");
                debug_assert_eq!(repair.rows.len(), rows.len(), "membership drifted");
            }
            jobs.push(BlockJob {
                key: key.clone(),
                row_ids,
                rows,
                cached,
                reresolve,
            });
        }
        let alive_dirty = dirty.len() - dropped_blocks;
        let clean_blocks = self.index.blocks() - alive_dirty;
        // every clean block is live and cached, and dropped blocks are gone
        let entities_reused: usize = self
            .blocks
            .iter()
            .filter(|(key, _)| !dirty.contains(*key))
            .map(|(_, b)| b.entities.len())
            .sum();
        PreparedRepair {
            dirty,
            jobs,
            dropped_blocks,
            clean_blocks,
            entities_reused,
        }
    }

    /// Stage 4 of a re-repair: write the per-block results back into the
    /// cache (fresh resolutions replace the entry; cached-resolution blocks
    /// are updated copy-on-write), refresh the engine stamp, publish the
    /// epoch and account the outcome.  `results` holds the chase results
    /// flattened in job order — exactly `resolved[i].entity_count` entries
    /// per job.  Jobs are in ascending block-key order, so the cache writes
    /// are too.
    fn commit_rerepair(
        &mut self,
        prepared: PreparedRepair,
        resolved: Vec<ResolvedJob>,
        results: &[EntityResult],
    ) -> UpdateOutcome {
        let PreparedRepair {
            dirty,
            jobs,
            dropped_blocks,
            clean_blocks,
            entities_reused,
        } = prepared;
        debug_assert_eq!(jobs.len(), resolved.len(), "job/resolution mismatch");
        let entities_rerepaired = results.len();
        let mut cursor = 0usize;
        for (job, rjob) in jobs.into_iter().zip(resolved) {
            let results = &results[cursor..cursor + rjob.entity_count];
            cursor += rjob.entity_count;
            self.stats.rows_fingerprinted += rjob.rows_fingerprinted;
            self.stats.fingerprints_reused += rjob.fingerprints_reused;
            match rjob.fresh {
                Some((fresh, fingerprints)) => {
                    let entities = fresh
                        .members
                        .iter()
                        .zip(results.iter())
                        .map(|(members, result)| BlockEntity {
                            members: members.clone(),
                            result: result.clone(),
                        })
                        .collect();
                    self.blocks.insert(
                        job.key,
                        Arc::new(BlockRepair {
                            rows: job.row_ids,
                            decisions: fresh.decisions,
                            entities,
                            fingerprints,
                            stats: fresh.stats,
                        }),
                    );
                }
                None => {
                    // copy-on-write: clones the block only while a published
                    // epoch still pins the old allocation
                    let repair =
                        Arc::make_mut(self.blocks.get_mut(&job.key).expect("cached above"));
                    for (be, result) in repair.entities.iter_mut().zip(results.iter()) {
                        be.result = result.clone();
                    }
                }
            }
        }
        debug_assert_eq!(cursor, results.len(), "chase results drifted from jobs");
        self.stamp = self.engine.plan().stamp();
        let dirty_blocks = dirty.len() - dropped_blocks;
        self.publish(dirty);

        self.stats.entities_rerepaired += entities_rerepaired;
        self.stats.entities_reused += entities_reused;
        UpdateOutcome {
            generation: self.relation.generation(),
            dirty_blocks,
            dropped_blocks,
            clean_blocks,
            entities_rerepaired,
            entities_reused,
        }
    }

    /// Publish the engine's current state as an immutable epoch: pinned
    /// rows, pinned block map, and the keys this mutation dirtied.
    fn publish(&self, dirty: BTreeSet<BlockKey>) {
        self.hub.publish(Epoch {
            id: EpochId(0), // assigned by the hub
            generation: self.relation.generation(),
            stamp: self.stamp,
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

    /// The cached repairs of every live block, rebased from block-local to
    /// relation row positions, in no particular order: the input of
    /// [`assemble_repair`].
    fn assembled_blocks(&self) -> Vec<AssembledBlock> {
        // rows are in ascending id order, so a row's position is its rank
        let order: Vec<RowId> = self.relation.rows().iter().map(|r| r.id).collect();
        let mut out = Vec::with_capacity(self.index.blocks());
        for (key, members) in self.index.block_members() {
            let repair = self
                .blocks
                .get(key)
                .expect("every live block has a cached repair");
            debug_assert_eq!(repair.rows, members, "stale block cache");
            let positions: Vec<usize> = members
                .iter()
                .map(|id| order.binary_search(id).expect("indexed rows are live"))
                .collect();
            debug_assert_eq!(
                self.stamp,
                self.engine.plan().stamp(),
                "block cache is stale relative to the plan — was the plan \
                 mutated without going through apply_master_append?"
            );
            let decisions = repair
                .decisions
                .iter()
                .map(|d| MatchDecision {
                    left: positions[d.left],
                    right: positions[d.right],
                    similarity: d.similarity,
                    matched: d.matched,
                    pruned: d.pruned,
                })
                .collect();
            let entities = repair
                .entities
                .iter()
                .map(|be| {
                    let members: Vec<usize> = be.members.iter().map(|&l| positions[l]).collect();
                    (members, be.result.clone())
                })
                .collect();
            out.push(AssembledBlock {
                first_row: positions.first().copied().unwrap_or(usize::MAX),
                decisions,
                entities,
                stats: repair.stats,
            });
        }
        out
    }

    /// Number of blocks with a live cached repair.
    pub fn cached_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of entities across all cached block repairs.
    pub fn cached_entities(&self) -> usize {
        self.blocks.values().map(|b| b.entities.len()).sum()
    }

    /// Assemble the current full [`RelationRepair`] from the per-block cache.
    ///
    /// The output is semantically identical to
    /// `BatchEngine::repair_relation(&self.relation.snapshot(), &resolve)`
    /// under the engine's current plan: same entity order (ascending smallest
    /// member record), same outcomes, targets, suggestions, membership, match
    /// decisions, repaired rows and skip list.  Per-entity chase counters
    /// reflect the run that actually produced each cached result.
    pub fn snapshot(&self) -> RelationRepair {
        let relation = self.relation.snapshot();
        let blocks = self.assembled_blocks();
        let threads = self.engine.config().threads;
        assemble_repair(relation, blocks, threads)
    }
}

/// One live block's cached repair with all indices rebased to row positions
/// of the relation being assembled (see
/// [`IncrementalEngine::assembled_blocks`]).
#[derive(Debug, Clone)]
pub(crate) struct AssembledBlock {
    /// Smallest member row position — the block's canonical sort key.
    pub(crate) first_row: usize,
    /// The block's pairwise match decisions over rebased row positions.
    pub(crate) decisions: Vec<MatchDecision>,
    /// The block's entities: rebased member positions (ascending) plus the
    /// cached repair result.
    pub(crate) entities: Vec<(Vec<usize>, EntityResult)>,
    /// Cascade counters of the block's cached resolution.
    pub(crate) stats: ResolveStats,
}

/// Assemble a [`RelationRepair`] over `relation` from per-block cached
/// repairs whose indices are row positions of `relation`.
///
/// Reproduces the canonical order of the full pipeline: blocks in ascending
/// smallest-member order (like `Blocker::blocks`), entities re-sorted by
/// ascending smallest member globally (like the first-seen union-find
/// collection), rows materialized through the shared [`materialize_rows`]
/// policy.  Shared by [`IncrementalEngine::snapshot`] and the epochs'
/// [`crate::epoch::assemble_views`], so both emit bit-identical repairs.
pub(crate) fn assemble_repair(
    relation: Relation,
    mut blocks: Vec<AssembledBlock>,
    threads: usize,
) -> RelationRepair {
    let schema = relation.schema().clone();
    blocks.sort_by_key(|b| b.first_row);

    let mut decisions: Vec<MatchDecision> = Vec::new();
    let mut assembled: Vec<(Vec<usize>, EntityResult)> = Vec::new();
    let mut stats = ResolveStats::default();
    for block in blocks {
        decisions.extend(block.decisions);
        assembled.extend(block.entities);
        stats.merge(&block.stats);
    }
    // global entity order: ascending smallest member
    assembled.sort_by_key(|(members, _)| members.first().copied().unwrap_or(usize::MAX));

    let mut entities = Vec::with_capacity(assembled.len());
    let mut members = Vec::with_capacity(assembled.len());
    let mut results = Vec::with_capacity(assembled.len());
    for (idx, (member_rows, mut result)) in assembled.into_iter().enumerate() {
        let mut instance = EntityInstance::new(schema.clone());
        for &row in &member_rows {
            instance
                .push_tuple(relation.rows()[row].clone())
                .expect("rows conform to their own schema");
        }
        entities.push(instance);
        result.entity = idx;
        result.records = member_rows.clone();
        members.push(member_rows);
        results.push(result);
    }

    let threads = effective_threads(threads, results.len());
    let report = BatchReport::from_entities(results, threads);
    let (repaired, row_entities, skipped) = materialize_rows(&schema, &report, &entities);
    RelationRepair {
        resolved: ResolvedEntities::from_parts(entities, members, decisions, stats),
        report,
        repaired,
        row_entities,
        skipped,
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
        // the initial full repair fingerprints every seed row once
        assert_eq!(engine.stats().rows_fingerprinted, 3);
        assert_eq!(engine.stats().fingerprints_reused, 0);

        // inserting into the existing "mj" block re-resolves it: the two
        // cached mj fingerprints are reused, only the new row is computed
        engine
            .apply(&UpdateBatch::new("stat").insert(vec![
                Value::text("mj"),
                Value::Int(31),
                Value::Null,
            ]))
            .unwrap();
        assert_eq!(engine.stats().rows_fingerprinted, 4);
        assert_eq!(engine.stats().fingerprints_reused, 2);

        // a delete re-resolves the block entirely from cached fingerprints
        engine
            .apply(&UpdateBatch::new("stat").delete(RowId(3)))
            .unwrap();
        assert_eq!(engine.stats().rows_fingerprinted, 4);
        assert_eq!(engine.stats().fingerprints_reused, 4);

        // master deltas reuse the cached resolution outright: no
        // fingerprint work at all
        let before = engine.stats().clone();
        engine
            .apply_master_append(0, vec![vec![Value::text("sp"), Value::text("Blazers")]])
            .unwrap();
        assert_eq!(engine.stats().rows_fingerprinted, before.rows_fingerprinted);
        assert_eq!(
            engine.stats().fingerprints_reused,
            before.fingerprints_reused
        );
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
