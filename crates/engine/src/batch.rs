//! The compile-once / evaluate-many batch driver — the **single** batch-repair
//! pipeline of the workspace.
//!
//! A [`BatchEngine`] compiles one [`ChasePlan`] for a workload — schema, rules
//! and master data — and evaluates it against any number of entity instances
//! in parallel.  Per entity it runs `IsCR` over the pre-compiled plan with a
//! per-worker [`ChaseScratch`] (no allocations beyond the first entity of each
//! worker), optionally completes incomplete targets from a top-k suggestion
//! search reusing the entity's grounding, and returns a [`BatchReport`] with
//! per-entity outcomes plus aggregate [`ChaseStats`].
//!
//! **Layering note:** entity resolution (blocking, similarity, clustering)
//! lives in the dependency-light `relacc-resolve` crate, so this engine can
//! offer [`BatchEngine::repair_relation`] — resolve a dirty relation, then
//! chase every entity — without a cycle.  The old `relacc_db::batch` module,
//! which duplicated this pipeline because `relacc-engine` used to depend on
//! `relacc-db` for resolution, has been deleted from the workspace;
//! there is exactly one [`EntityOutcome`], one [`EntityResult`] (carrying both
//! the input-record membership and the Church-Rosser conflict report) and one
//! suggestion policy.

use crate::pool::{effective_threads, par_map_with};
use relacc_core::chase::SpecificationError;
use relacc_core::chase::{ChaseCheckpoint, ChasePlan, ChaseScratch, CheckpointOutcome};
use relacc_core::{ChaseStats, Conflict, RuleSet};
use relacc_model::{EntityInstance, MasterRelation, SchemaRef, TargetTuple, Tuple, Value};
use relacc_resolve::{resolve_relation, ResolveConfig, ResolvedEntities};
use relacc_store::Relation;
use relacc_topk::{topkct_with, CandidateSearch, PreferenceModel};
use std::sync::Arc;

/// Configuration of a batch run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// When the chase leaves a target incomplete, suggest the best completion
    /// from a top-k search with this `k` (0 disables suggestions).
    pub suggestion_k: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            suggestion_k: 5,
        }
    }
}

/// How one entity came out of a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityOutcome {
    /// The chase deduced a complete target tuple.
    Complete,
    /// The chase left the target incomplete; the best-scored candidate from
    /// the top-k search is attached as a suggestion.
    Suggested,
    /// The chase left the target incomplete and no candidate was available (or
    /// suggestions were disabled): a user has to look at this entity.  When
    /// the suggestion search itself failed to prepare, the failure is surfaced
    /// in [`EntityResult::suggestion_error`] rather than silently folded into
    /// this classification.
    NeedsUser,
    /// The plan is not Church-Rosser for this entity; the rules (or its data)
    /// conflict and must be revised.  The conflict report is attached as
    /// [`EntityResult::conflict`].
    NotChurchRosser,
}

/// The per-entity result of a batch run.
#[derive(Debug, Clone)]
pub struct EntityResult {
    /// Index of the entity in the batch input.
    pub entity: usize,
    /// Indices of the input records that belong to this entity.  Filled by
    /// [`BatchEngine::repair_relation`] from the resolution membership; empty
    /// when the batch ran over pre-resolved entity instances whose provenance
    /// the engine never saw ([`BatchEngine::run`]).
    pub records: Vec<usize>,
    /// What happened.
    pub outcome: EntityOutcome,
    /// The target deduced by the chase (empty template when not Church-Rosser).
    pub deduced: TargetTuple,
    /// The suggested completion, when [`EntityOutcome::Suggested`].
    pub suggestion: Option<TargetTuple>,
    /// The error that aborted the suggestion search, when preparation failed.
    /// The entity is classified [`EntityOutcome::NeedsUser`] in that case, but
    /// the failure is reported instead of being silently swallowed.
    pub suggestion_error: Option<String>,
    /// The conflict report, when [`EntityOutcome::NotChurchRosser`].
    pub conflict: Option<Conflict>,
    /// Chase counters for this entity.
    pub stats: ChaseStats,
}

impl EntityResult {
    /// The tuple a repaired relation keeps for this entity: the suggestion
    /// when one exists, otherwise the deduced (possibly incomplete) target.
    pub fn final_target(&self) -> &TargetTuple {
        self.suggestion.as_ref().unwrap_or(&self.deduced)
    }
}

/// The outcome of a whole batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-entity results, in input order.
    pub entities: Vec<EntityResult>,
    /// Number of entities whose target was deduced completely by the chase.
    pub complete: usize,
    /// Number of entities completed from the preference model.
    pub suggested: usize,
    /// Number of entities that still need user attention.
    pub needs_user: usize,
    /// Number of entities whose specification is not Church-Rosser.
    pub not_church_rosser: usize,
    /// Number of entities whose suggestion search failed to prepare (a subset
    /// of [`BatchReport::needs_user`]).
    pub suggestion_errors: usize,
    /// Aggregate chase counters across all entities.
    pub stats: ChaseStats,
    /// Worker threads the run actually used.
    pub threads_used: usize,
}

impl BatchReport {
    /// Fraction of entities fully resolved without a user (chase or
    /// suggestion).
    pub fn automatic_rate(&self) -> f64 {
        if self.entities.is_empty() {
            return 1.0;
        }
        (self.complete + self.suggested) as f64 / self.entities.len() as f64
    }

    pub(crate) fn from_entities(entities: Vec<EntityResult>, threads_used: usize) -> Self {
        let mut report = BatchReport {
            entities,
            complete: 0,
            suggested: 0,
            needs_user: 0,
            not_church_rosser: 0,
            suggestion_errors: 0,
            stats: ChaseStats::default(),
            threads_used,
        };
        for entity in &report.entities {
            match entity.outcome {
                EntityOutcome::Complete => report.complete += 1,
                EntityOutcome::Suggested => report.suggested += 1,
                EntityOutcome::NeedsUser => report.needs_user += 1,
                EntityOutcome::NotChurchRosser => report.not_church_rosser += 1,
            }
            if entity.suggestion_error.is_some() {
                report.suggestion_errors += 1;
            }
            let mut stats = report.stats;
            stats.merge(&entity.stats);
            report.stats = stats;
        }
        report
    }
}

/// An entity that could not be materialized into the repaired relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairSkip {
    /// Index of the entity in the resolution output.
    pub entity: usize,
    /// Why no row was emitted for it.
    pub reason: String,
}

/// The result of repairing a whole relation: resolution output, per-entity
/// report and the repaired one-row-per-entity relation.
#[derive(Debug, Clone)]
pub struct RelationRepair {
    /// The entity-resolution output (clusters and membership).
    pub resolved: ResolvedEntities,
    /// The batch report over the resolved entities (each [`EntityResult`]
    /// carries its input-record membership).
    pub report: BatchReport,
    /// One row per successfully materialized entity: the repaired view of the
    /// input relation.  Entities whose target stayed open fall back to their
    /// best source record instead of contributing fabricated null values; see
    /// [`RelationRepair::row_entities`] for the row → entity mapping and
    /// [`RelationRepair::skipped`] for entities with no row at all.
    pub repaired: Relation,
    /// For every row of [`RelationRepair::repaired`], the index of the entity
    /// it repairs (identical to the row index unless entities were skipped).
    pub row_entities: Vec<usize>,
    /// Entities that could not be materialized (no source record to fall back
    /// on, or a row that failed schema validation), with the reason.  The old
    /// pipeline either fabricated an all-null row or panicked here.
    pub skipped: Vec<RepairSkip>,
}

/// The member record with the most non-null attributes (first wins on ties) —
/// the best single source tuple to stand in for an entity whose target could
/// not be deduced.
fn best_source_tuple(ie: &EntityInstance) -> Option<&Tuple> {
    let mut best: Option<(&Tuple, usize)> = None;
    for t in ie.tuples() {
        let filled = t.values().iter().filter(|v| !v.is_null()).count();
        if best.map(|(_, f)| filled > f).unwrap_or(true) {
            best = Some((t, filled));
        }
    }
    best.map(|(t, _)| t)
}

/// The row a repaired relation keeps for one entity, or `None` when no row
/// can be materialized (a non-Church-Rosser entity with no source record).
/// This is the **single** materialization policy shared by
/// [`BatchEngine::repair_relation`] and the incremental engine's snapshot
/// assembly, so both paths emit bit-identical repaired relations.
pub(crate) fn entity_row(result: &EntityResult, ie: &EntityInstance) -> Option<Vec<Value>> {
    match result.outcome {
        EntityOutcome::Complete | EntityOutcome::Suggested => {
            Some(result.final_target().values().to_vec())
        }
        EntityOutcome::NeedsUser => {
            // keep what the chase deduced, fall back to the entity's best
            // source record for the attributes left open
            let mut values = result.deduced.values().to_vec();
            if let Some(source) = best_source_tuple(ie) {
                for (slot, from_source) in values.iter_mut().zip(source.values()) {
                    if slot.is_null() {
                        *slot = from_source.clone();
                    }
                }
            }
            Some(values)
        }
        EntityOutcome::NotChurchRosser => best_source_tuple(ie).map(|t| t.values().to_vec()),
    }
}

/// Materialize the one-row-per-entity repaired relation of a batch report:
/// every entity contributes [`entity_row`] (indexing `entities` by its
/// [`EntityResult::entity`]), rows failing schema validation or entities with
/// no row land in the skip list instead of panicking.
pub(crate) fn materialize_rows(
    schema: &SchemaRef,
    report: &BatchReport,
    entities: &[EntityInstance],
) -> (Relation, Vec<usize>, Vec<RepairSkip>) {
    let mut repaired = Relation::new(schema.clone());
    let mut row_entities = Vec::with_capacity(report.entities.len());
    let mut skipped = Vec::new();
    for result in &report.entities {
        let Some(row) = entity_row(result, &entities[result.entity]) else {
            skipped.push(RepairSkip {
                entity: result.entity,
                reason: "not Church-Rosser and no source record to fall back on".into(),
            });
            continue;
        };
        match repaired.push_row(row) {
            Ok(()) => row_entities.push(result.entity),
            Err(err) => skipped.push(RepairSkip {
                entity: result.entity,
                reason: format!("repaired row rejected by the schema: {err}"),
            }),
        }
    }
    (repaired, row_entities, skipped)
}

/// A compiled batch engine: one plan, evaluated against many entities.
#[derive(Debug, Clone)]
pub struct BatchEngine {
    plan: ChasePlan,
    config: EngineConfig,
}

impl BatchEngine {
    /// Compile an engine for a workload.
    pub fn new(
        schema: SchemaRef,
        rules: RuleSet,
        masters: Vec<MasterRelation>,
    ) -> Result<Self, SpecificationError> {
        Ok(BatchEngine {
            plan: ChasePlan::compile(schema, rules, masters)?,
            config: EngineConfig::default(),
        })
    }

    /// Wrap an already-compiled plan.
    pub fn from_plan(plan: ChasePlan) -> Self {
        BatchEngine {
            plan,
            config: EngineConfig::default(),
        }
    }

    /// Replace the configuration (builder style).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Use this many worker threads (builder style; 0 = one per core).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Use this `k` for completion suggestions (builder style; 0 disables).
    pub fn with_suggestion_k(mut self, k: usize) -> Self {
        self.config.suggestion_k = k;
        self
    }

    /// The compiled plan.
    pub fn plan(&self) -> &ChasePlan {
        &self.plan
    }

    /// Mutable access to the compiled plan, for in-place master deltas
    /// ([`ChasePlan::ground_master_delta`], then
    /// [`ChasePlan::adopt_master_delta`]).  The incremental engine owns its
    /// batch engine and evolves the plan through this.
    pub fn plan_mut(&mut self) -> &mut ChasePlan {
        &mut self.plan
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Intern the text values of a set of entity instances against the plan's
    /// canonical strings, so chase-time equality is decided by pointer
    /// comparison.  Call once per batch before [`BatchEngine::run`]; running
    /// on non-interned entities is slower but equally correct.
    pub fn intern_entities(&self, entities: &mut [EntityInstance]) {
        let mut interner = self.plan.fork_interner();
        for ie in entities {
            interner.intern_instance(ie);
        }
    }

    /// Evaluate the plan against every entity in parallel.
    pub fn run(&self, entities: &[EntityInstance]) -> BatchReport {
        let threads = effective_threads(self.config.threads, entities.len());
        let results = par_map_with(entities, threads, ChaseScratch::new, |scratch, idx, ie| {
            self.evaluate_entity(idx, ie, scratch)
        });
        BatchReport::from_entities(results, threads)
    }

    /// Intern and evaluate an owned batch of entities.
    pub fn run_owned(&self, mut entities: Vec<EntityInstance>) -> BatchReport {
        self.intern_entities(&mut entities);
        self.run(&entities)
    }

    /// Resolve a dirty relation into entities (via `relacc-resolve` blocking +
    /// matching) and repair every entity, producing a one-row-per-entity
    /// repaired relation.
    ///
    /// Entities whose outcome is [`EntityOutcome::Complete`] or
    /// [`EntityOutcome::Suggested`] contribute their final target.  An entity
    /// the chase left open ([`EntityOutcome::NeedsUser`]) contributes its
    /// deduced target with the remaining nulls filled from its best source
    /// record; a non-Church-Rosser entity contributes its best source record
    /// verbatim.  No all-null row is ever fabricated: an attribute stays null
    /// in the repaired relation only when neither the chase nor the entity's
    /// best source record had a value for it, and when a non-Church-Rosser
    /// entity has no source record at all, or a row fails schema validation,
    /// the entity is skipped and recorded in [`RelationRepair::skipped`]
    /// instead of panicking.
    pub fn repair_relation(&self, relation: &Relation, resolve: &ResolveConfig) -> RelationRepair {
        let resolved = resolve_relation(relation, resolve);
        let mut entities = resolved.entities.clone();
        self.intern_entities(&mut entities);
        let mut report = self.run(&entities);
        for (result, members) in report.entities.iter_mut().zip(resolved.members.iter()) {
            result.records = members.clone();
        }

        let (repaired, row_entities, skipped) =
            materialize_rows(relation.schema(), &report, &resolved.entities);
        RelationRepair {
            resolved,
            report,
            repaired,
            row_entities,
            skipped,
        }
    }

    /// Chase one entity with a worker's scratch and search a suggestion when
    /// its target stays open: the per-entity step of every batch run.
    pub(crate) fn evaluate_entity(
        &self,
        idx: usize,
        ie: &EntityInstance,
        scratch: &mut ChaseScratch,
    ) -> EntityResult {
        // One chase serves both the deduction and (for incomplete targets)
        // the candidate checks: capture the base fixpoint as a checkpoint,
        // reusing the worker's warmed index allocations.
        let run = self.plan.checkpoint_with(ie, scratch);
        let mut stats = run.stats;
        let checkpoint = match run.outcome {
            CheckpointOutcome::Ready(checkpoint) => checkpoint,
            CheckpointOutcome::NotChurchRosser(conflict) => {
                return EntityResult {
                    entity: idx,
                    records: Vec::new(),
                    outcome: EntityOutcome::NotChurchRosser,
                    deduced: TargetTuple::empty(self.plan.schema().arity()),
                    suggestion: None,
                    suggestion_error: None,
                    conflict: Some(conflict),
                    stats,
                };
            }
        };
        let deduced = checkpoint.target().clone();
        if deduced.is_complete() || self.config.suggestion_k == 0 {
            // no candidate checks needed: hand the index back to the scratch
            scratch.restore_index(checkpoint.into_index());
            let outcome = if deduced.is_complete() {
                EntityOutcome::Complete
            } else {
                EntityOutcome::NeedsUser
            };
            return EntityResult {
                entity: idx,
                records: Vec::new(),
                outcome,
                deduced,
                suggestion: None,
                suggestion_error: None,
                conflict: None,
                stats,
            };
        }
        // Suggestion search resuming every check from the captured checkpoint
        // through the worker's resumed-check buffers; afterwards the index
        // returns to the scratch for the next entity.
        let spec = self.plan.specification(ie.clone());
        let preference = PreferenceModel::occurrence(&spec, self.config.suggestion_k);
        let checkpoint: Arc<ChaseCheckpoint> = Arc::from(checkpoint);
        let suggestion = {
            let (grounding, check_scratch) = scratch.grounding_and_check();
            let search = CandidateSearch::prepare_with_checkpoint(
                &spec,
                grounding,
                checkpoint.clone(),
                preference,
            )
            .expect("preparing over an already-captured checkpoint cannot fail");
            let result = topkct_with(&search, check_scratch);
            stats.full_checks += result.stats.full_checks;
            stats.delta_checks += result.stats.delta_checks;
            stats.delta_steps_replayed += result.stats.delta_steps_replayed;
            result.candidates.into_iter().next().map(|c| c.target)
        };
        if let Ok(checkpoint) = Arc::try_unwrap(checkpoint) {
            scratch.restore_index(checkpoint.into_index());
        }
        let outcome = if suggestion.is_some() {
            EntityOutcome::Suggested
        } else {
            EntityOutcome::NeedsUser
        };
        EntityResult {
            entity: idx,
            records: Vec::new(),
            outcome,
            deduced,
            suggestion,
            suggestion_error: None,
            conflict: None,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relacc_core::chase::is_cr;
    use relacc_core::rules::{Predicate, TupleRule};
    use relacc_core::Specification;
    use relacc_model::{AttrId, CmpOp, DataType, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::builder("stat")
            .attr("name", DataType::Text)
            .attr("rnds", DataType::Int)
            .attr("pts", DataType::Int)
            .build()
    }

    fn rules(s: &SchemaRef) -> RuleSet {
        RuleSet::from_rules([
            TupleRule::new(
                "cur[rnds]",
                vec![Predicate::cmp_attrs(s.expect_attr("rnds"), CmpOp::Lt)],
                s.expect_attr("rnds"),
            ),
            TupleRule::new(
                "corr[rnds->pts]",
                vec![Predicate::OrderLt {
                    attr: s.expect_attr("rnds"),
                }],
                s.expect_attr("pts"),
            ),
        ])
    }

    fn entities(s: &SchemaRef, n: usize) -> Vec<EntityInstance> {
        (0..n)
            .map(|e| {
                let rows: Vec<Vec<Value>> = (0..=(e % 4))
                    .map(|t| {
                        vec![
                            Value::text(format!("p{e}")),
                            Value::Int(t as i64),
                            Value::Int((t * 10) as i64),
                        ]
                    })
                    .collect();
                EntityInstance::from_rows(s.clone(), rows).unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_matches_the_sequential_is_cr_loop() {
        let s = schema();
        let engine = BatchEngine::new(s.clone(), rules(&s), vec![]).unwrap();
        let batch = entities(&s, 40);
        let report = engine.run(&batch);
        assert_eq!(report.entities.len(), 40);
        for (idx, entity) in report.entities.iter().enumerate() {
            let spec = Specification::new(batch[idx].clone(), rules(&s));
            let reference = is_cr(&spec);
            assert_eq!(
                reference.outcome.is_church_rosser(),
                entity.outcome != EntityOutcome::NotChurchRosser
            );
            if let Some(te) = reference.outcome.target() {
                assert_eq!(te, &entity.deduced, "entity {idx}");
            }
        }
        assert_eq!(
            report.complete + report.suggested + report.needs_user + report.not_church_rosser,
            40
        );
        assert!(report.stats.steps_considered > 0);
    }

    #[test]
    fn parallel_output_is_identical_to_single_threaded() {
        let s = schema();
        let batch = entities(&s, 64);
        let sequential = BatchEngine::new(s.clone(), rules(&s), vec![])
            .unwrap()
            .with_threads(1)
            .run(&batch);
        let parallel = BatchEngine::new(s.clone(), rules(&s), vec![])
            .unwrap()
            .with_threads(8)
            .run(&batch);
        assert_eq!(sequential.entities.len(), parallel.entities.len());
        for (a, b) in sequential.entities.iter().zip(parallel.entities.iter()) {
            assert_eq!(a.entity, b.entity);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.deduced, b.deduced);
            assert_eq!(a.suggestion, b.suggestion);
            assert_eq!(a.suggestion_error, b.suggestion_error);
        }
        assert_eq!(sequential.stats, parallel.stats);
    }

    #[test]
    fn repair_relation_resolves_and_repairs() {
        let s = schema();
        let relation = Relation::from_rows(
            s.clone(),
            vec![
                vec![
                    Value::text("Michael Jordan"),
                    Value::Int(16),
                    Value::Int(424),
                ],
                vec![
                    Value::text("Michael  Jordan"),
                    Value::Int(27),
                    Value::Int(772),
                ],
                vec![
                    Value::text("Scottie Pippen"),
                    Value::Int(27),
                    Value::Int(639),
                ],
            ],
        )
        .unwrap();
        let engine = BatchEngine::new(s.clone(), rules(&s), vec![]).unwrap();
        let repair = engine.repair_relation(
            &relation,
            &ResolveConfig::on_attrs(vec!["name".into()]).with_threshold(0.6),
        );
        assert_eq!(repair.report.entities.len(), 2);
        assert_eq!(repair.repaired.len(), 2);
        assert_eq!(repair.row_entities, vec![0, 1]);
        assert!(repair.skipped.is_empty());
        let jordan = repair
            .resolved
            .members
            .iter()
            .position(|m| m.contains(&0))
            .unwrap();
        // the unified result carries the resolution membership
        assert_eq!(
            repair.report.entities[jordan].records,
            repair.resolved.members[jordan]
        );
        let te = repair.report.entities[jordan].final_target();
        assert_eq!(te.value(s.expect_attr("rnds")), &Value::Int(27));
        assert_eq!(te.value(s.expect_attr("pts")), &Value::Int(772));
    }

    #[test]
    fn suggestions_complete_open_attributes() {
        let s = Schema::builder("r")
            .attr("name", DataType::Text)
            .attr("color", DataType::Text)
            .build();
        let ie = EntityInstance::from_rows(
            s.clone(),
            vec![
                vec![Value::text("widget"), Value::text("red")],
                vec![Value::text("widget"), Value::text("red")],
                vec![Value::text("widget"), Value::text("blue")],
            ],
        )
        .unwrap();
        let with = BatchEngine::new(s.clone(), RuleSet::new(), vec![]).unwrap();
        let report = with.run(std::slice::from_ref(&ie));
        assert_eq!(report.entities[0].outcome, EntityOutcome::Suggested);
        // the suggestion search runs on the checkpointed check path, and its
        // counters surface in the aggregated chase stats
        assert!(report.stats.delta_checks >= 1);
        assert_eq!(report.stats.full_checks, 0);
        assert_eq!(
            report.entities[0]
                .suggestion
                .as_ref()
                .unwrap()
                .value(AttrId(1)),
            &Value::text("red")
        );
        let without = BatchEngine::new(s.clone(), RuleSet::new(), vec![])
            .unwrap()
            .with_suggestion_k(0);
        let report = without.run(&[ie]);
        assert_eq!(report.entities[0].outcome, EntityOutcome::NeedsUser);
        assert!(report.entities[0].suggestion_error.is_none());
        assert_eq!(report.needs_user, 1);
        assert_eq!(report.suggestion_errors, 0);
    }

    #[test]
    fn open_entities_fall_back_to_their_best_source_record() {
        let s = Schema::builder("r")
            .attr("name", DataType::Text)
            .attr("color", DataType::Text)
            .attr("size", DataType::Int)
            .build();
        // one entity, conflicting color, one record more complete than the
        // other; suggestions disabled so the entity stays NeedsUser
        let relation = Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::text("widget"), Value::text("red"), Value::Null],
                vec![Value::text("widget"), Value::text("blue"), Value::Int(3)],
            ],
        )
        .unwrap();
        let engine = BatchEngine::new(s.clone(), RuleSet::new(), vec![])
            .unwrap()
            .with_suggestion_k(0);
        let repair =
            engine.repair_relation(&relation, &ResolveConfig::on_attrs(vec!["name".into()]));
        assert_eq!(repair.report.needs_user, 1);
        assert_eq!(repair.repaired.len(), 1);
        assert!(repair.skipped.is_empty());
        let row = &repair.repaired.rows()[0];
        // name was deduced (agreeing records); color and size come from the
        // best source record (record 1: two non-null attributes beyond name)
        assert_eq!(row.value(AttrId(0)), &Value::text("widget"));
        assert_eq!(row.value(AttrId(1)), &Value::text("blue"));
        assert_eq!(row.value(AttrId(2)), &Value::Int(3));
        assert!(!row.is_all_null());
    }

    #[test]
    fn conflicting_entities_emit_their_best_source_record_not_nulls() {
        let s = Schema::builder("r")
            .attr("name", DataType::Text)
            .attr("a", DataType::Int)
            .build();
        let relation = Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::text("widget"), Value::Int(1)],
                vec![Value::text("widget"), Value::Int(2)],
            ],
        )
        .unwrap();
        // contradictory rules: a < b implies both directions, so any entity
        // with two distinct `a` values is not Church-Rosser
        let up = TupleRule::new(
            "up",
            vec![Predicate::cmp_attrs(s.expect_attr("a"), CmpOp::Lt)],
            s.expect_attr("a"),
        );
        let down = TupleRule::new(
            "down",
            vec![Predicate::cmp_attrs(s.expect_attr("a"), CmpOp::Gt)],
            s.expect_attr("a"),
        );
        let engine = BatchEngine::new(s.clone(), RuleSet::from_rules([up, down]), vec![]).unwrap();
        let repair =
            engine.repair_relation(&relation, &ResolveConfig::on_attrs(vec!["name".into()]));
        assert_eq!(repair.report.not_church_rosser, 1);
        assert!(repair.report.entities[0].conflict.is_some());
        // the repaired relation holds the best source record, not an all-null row
        assert_eq!(repair.repaired.len(), 1);
        let row = &repair.repaired.rows()[0];
        assert!(!row.is_all_null());
        assert_eq!(row.value(AttrId(0)), &Value::text("widget"));
    }

    #[test]
    fn interned_batches_share_plan_strings() {
        let s = schema();
        let engine = BatchEngine::new(s.clone(), rules(&s), vec![]).unwrap();
        let mut batch = entities(&s, 3);
        engine.intern_entities(&mut batch);
        let report = engine.run_owned(batch);
        assert_eq!(report.entities.len(), 3);
    }
}
