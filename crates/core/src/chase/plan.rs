//! Compile-once / evaluate-many chase plans.
//!
//! The paper's `IsCR` is defined per specification, and the seed implementation
//! paid the full setup cost — rule validation, master-rule grounding, index
//! allocation, rule-set and master-data clones — once per entity.  A
//! [`ChasePlan`] hoists everything that does **not** depend on the entity
//! instance into a single compilation step:
//!
//! * the rule set is validated against the schema and master arities once;
//! * master data and rule constants are interned (see
//!   [`relacc_model::Interner`]), so every text comparison on the chase hot
//!   path starts with a pointer check;
//! * form-(2) rules are pre-grounded: their ground steps range over master
//!   tuples only, so the `|Σ2| × |Im|` grounding loop runs once per plan
//!   instead of once per entity;
//! * rules and master data live behind `Arc`s, so building a per-entity
//!   [`Specification`] is a reference-count bump, not a deep clone.
//!
//! Per-entity evaluation then only grounds the form-(1) rules against the
//! entity instance and runs the shared chase loop.  A [`ChaseScratch`] holds
//! the grounding buffer, the dedup set and the event index of one worker, so
//! a batch run reuses those allocations across every entity it processes.
//!
//! ```
//! use relacc_core::chase::{ChasePlan, ChaseScratch};
//! use relacc_core::rules::{Predicate, RuleSet, TupleRule};
//! use relacc_model::{CmpOp, DataType, EntityInstance, Schema, Value};
//!
//! let schema = Schema::builder("stat")
//!     .attr("rnds", DataType::Int)
//!     .attr("pts", DataType::Int)
//!     .build();
//! let rules = RuleSet::from_rules([TupleRule::new(
//!     "cur",
//!     vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Lt)],
//!     schema.expect_attr("rnds"),
//! )]);
//! let plan = ChasePlan::compile(schema.clone(), rules, vec![]).unwrap();
//! let mut scratch = ChaseScratch::new();
//! for rows in [vec![vec![Value::Int(1)], vec![Value::Int(2)]]] {
//!     let rows: Vec<Vec<Value>> = rows
//!         .into_iter()
//!         .map(|r| vec![r[0].clone(), Value::Null])
//!         .collect();
//!     let ie = EntityInstance::from_rows(schema.clone(), rows).unwrap();
//!     let run = plan.is_cr_with(&ie, &mut scratch);
//!     assert!(run.outcome.is_church_rosser());
//! }
//! ```

use super::checkpoint::{ChaseCheckpoint, CheckScratch, CheckpointOutcome, CheckpointRun};
use super::ground::{
    ground_master_rules, ground_tuple_rules, GroundStep, Grounding, PendingPred, StepAction,
};
use super::index::ChaseIndex;
use super::iscr::{chase_parts, ChaseRun};
use super::spec::{Specification, SpecificationError};
use crate::rules::RuleSet;
use relacc_model::{
    AccuracyOrders, EntityInstance, Interner, MasterRelation, SchemaError, SchemaRef, TargetTuple,
    Value,
};
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide plan-identity counter (see [`PlanStamp`]).
static NEXT_PLAN_ID: AtomicU64 = AtomicU64::new(1);

/// The identity + version of a compiled plan at one point in time.
///
/// Every compiled plan gets a fresh process-unique identity; every in-place
/// [`ChasePlan::apply_master_delta`] bumps its version.  A
/// [`ChaseCheckpoint`] captured through [`ChasePlan::checkpoint_with`] records
/// the stamp it was captured under, and
/// [`ChasePlan::checkpoint_is_current`] compares stamps — so state cached
/// against an evolving plan (the incremental engine's per-block results, a
/// session's checkpoint) can tell "still valid" apart from "captured against
/// an older master set or a recompiled plan".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanStamp {
    /// Process-unique identity of the compiled plan.
    pub plan: u64,
    /// Number of in-place master deltas applied since compilation.
    pub version: u64,
}

/// An update to a plan's master data.
///
/// Only **appends** can be applied in place (the chase is monotone in its
/// ground steps, so new master tuples only *add* pre-grounded form-(2)
/// steps); deletions — like rule changes — invalidate the plan and must go
/// through a recompile ([`ChasePlan::compile`] over the updated inputs),
/// which yields a fresh [`PlanStamp`] identity so stale checkpoints cannot
/// validate against the new plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MasterUpdate {
    /// Index of the master relation the update targets.
    pub master: usize,
    /// Rows to append (validated against the master schema).
    pub appends: Vec<Vec<Value>>,
    /// Indices of master tuples to delete.  Non-empty deletes are rejected
    /// with [`PlanDeltaError::RequiresRecompile`].
    pub deletes: Vec<usize>,
}

impl MasterUpdate {
    /// An append-only update against master relation `master`.
    pub fn append(master: usize, rows: Vec<Vec<Value>>) -> Self {
        MasterUpdate {
            master,
            appends: rows,
            deletes: Vec::new(),
        }
    }
}

/// What an in-place master delta did to the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterDeltaApplied {
    /// The plan's stamp after the delta.
    pub stamp: PlanStamp,
    /// Flattened indices (into the plan's pre-grounded step sequence, counted
    /// by [`ChasePlan::master_step_count`]) of the ground steps the delta
    /// added — the only steps a cached repair needs to test entities against.
    pub new_steps: Range<usize>,
    /// Number of master tuples appended.
    pub appended: usize,
}

/// A master-data append grounded **once** against a plan state, ready to be
/// adopted by any plan clone sharing that state.
///
/// Produced by [`ChasePlan::ground_master_delta`]; consumed by
/// [`ChasePlan::adopt_master_delta`].  The appended rows are validated and
/// interned, and the contributed ground steps (already duplicate-folded
/// exactly like compilation) sit behind an `Arc`, so `N` plan clones adopting
/// the same delta share one immutable step block instead of re-running the
/// `|Σ2| × |Δ|` grounding loop `N` times, and the adopter can test cached
/// results against exactly the new steps.
#[derive(Debug, Clone)]
pub struct GroundedMasterDelta {
    /// The stamp of the plan state the delta was grounded against; adoption
    /// demands an exact match.
    base: PlanStamp,
    /// Index of the master relation the rows extend.
    master: usize,
    /// The validated, interned rows to append.
    rows: Vec<Vec<Value>>,
    /// The pre-grounded form-(2) steps the rows contribute, post-folding,
    /// shared by every adopter.
    steps: Arc<Vec<GroundStep>>,
    /// Master tuples the grounding loop considered.
    tuples_considered: usize,
    /// Candidate steps folded away as duplicates.
    folded_away: usize,
}

impl GroundedMasterDelta {
    /// The plan state the delta was grounded against.
    pub fn base(&self) -> PlanStamp {
        self.base
    }

    /// Number of master rows the delta appends.
    pub fn appended(&self) -> usize {
        self.rows.len()
    }

    /// The shared, immutable block of ground steps the delta contributes
    /// (empty when every candidate step folded into an existing one).
    pub fn steps(&self) -> &Arc<Vec<GroundStep>> {
        &self.steps
    }
}

/// Errors from [`ChasePlan::apply_master_delta`] and the split
/// [`ChasePlan::ground_master_delta`] / [`ChasePlan::adopt_master_delta`]
/// pair.
#[derive(Debug)]
pub enum PlanDeltaError {
    /// The update targets a master relation the plan does not have.
    NoSuchMaster(usize),
    /// An appended row does not conform to the master schema.
    Schema(SchemaError),
    /// The update is not a pure append (master deletions, like rule changes,
    /// are not monotone): recompile the plan over the updated inputs instead.
    RequiresRecompile,
    /// The delta was grounded against a different plan state (other identity
    /// or other version) than the adopting plan's: re-ground it against the
    /// current state.
    StaleDelta,
}

impl fmt::Display for PlanDeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanDeltaError::NoSuchMaster(i) => write!(f, "no master relation at index {i}"),
            PlanDeltaError::Schema(e) => write!(f, "appended master row rejected: {e}"),
            PlanDeltaError::RequiresRecompile => write!(
                f,
                "master deletions are not monotone; recompile the plan instead"
            ),
            PlanDeltaError::StaleDelta => write!(
                f,
                "delta was grounded against a different plan state; re-ground it"
            ),
        }
    }
}

impl std::error::Error for PlanDeltaError {}

/// A schema-resolved, validated, master-grounded chase program, ready to be
/// evaluated against any number of entity instances.
///
/// A plan is **append-evolvable**: [`ChasePlan::apply_master_delta`] extends
/// the master data (and its pre-grounded steps) in place, bumping the plan's
/// [`PlanStamp`] version.  A plan is meant to be mutated by a single owner;
/// `Clone` copies the stamp, so divergently mutated clones must not be mixed.
#[derive(Debug, Clone)]
pub struct ChasePlan {
    schema: SchemaRef,
    rules: Arc<RuleSet>,
    masters: Arc<Vec<MasterRelation>>,
    /// Pre-grounded form-(2) steps (entity-independent), segmented: one block
    /// per compilation/adopted delta.  Blocks are immutable and `Arc`-shared,
    /// so plan clones that adopt the same [`GroundedMasterDelta`] share its
    /// step storage instead of each owning a copy.
    master_segments: Vec<Arc<Vec<GroundStep>>>,
    /// Total step count across [`ChasePlan::master_segments`] (cached so
    /// flattened index ranges are cheap to hand out).
    master_step_len: usize,
    master_tuples_considered: usize,
    master_folded_away: usize,
    /// Dedup keys of the pre-grounded steps, kept so master-delta appends can
    /// keep folding duplicates exactly like compilation did.
    master_seen: HashSet<(StepAction, Vec<PendingPred>)>,
    /// Canonical string allocations of the master data and rule constants.
    interner: Interner,
    /// Identity + delta version (see [`PlanStamp`]).
    stamp: PlanStamp,
}

impl ChasePlan {
    /// Compile a plan: validate the rules, intern master data and rule
    /// constants, and pre-ground the form-(2) rules.
    pub fn compile(
        schema: SchemaRef,
        mut rules: RuleSet,
        mut masters: Vec<MasterRelation>,
    ) -> Result<Self, SpecificationError> {
        let master_arities: Vec<usize> = masters.iter().map(|m| m.schema().arity()).collect();
        rules
            .validate(&schema, &master_arities)
            .map_err(SpecificationError::Rule)?;

        let mut interner = Interner::new();
        for master in &mut masters {
            interner.intern_master(master);
        }
        rules.intern_constants(&mut interner);

        let mut grounding = Grounding::default();
        let mut seen: HashSet<(StepAction, Vec<PendingPred>)> = HashSet::new();
        ground_master_rules(&rules, &masters, &mut grounding, &mut seen);

        let master_step_len = grounding.steps.len();
        Ok(ChasePlan {
            schema,
            rules: Arc::new(rules),
            masters: Arc::new(masters),
            master_segments: vec![Arc::new(grounding.steps)],
            master_step_len,
            master_tuples_considered: grounding.master_tuples_considered,
            master_folded_away: grounding.folded_away,
            master_seen: seen,
            interner,
            stamp: PlanStamp {
                plan: NEXT_PLAN_ID.fetch_add(1, Ordering::Relaxed),
                version: 0,
            },
        })
    }

    /// Compile a plan from an existing specification, sharing its rule set and
    /// master data (cloned once if they are shared with other owners, never
    /// per entity).
    pub fn from_spec(spec: &Specification) -> Result<Self, SpecificationError> {
        ChasePlan::compile(
            spec.ie.schema().clone(),
            (*spec.rules).clone(),
            (*spec.masters).clone(),
        )
    }

    /// The entity schema the plan was compiled against.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The compiled rule set.
    pub fn rules(&self) -> &Arc<RuleSet> {
        &self.rules
    }

    /// The compiled master relations.
    pub fn masters(&self) -> &Arc<Vec<MasterRelation>> {
        &self.masters
    }

    /// Number of pre-grounded form-(2) steps.  The flattened index ranges
    /// returned by [`ChasePlan::apply_master_delta`] count against this.
    pub fn master_step_count(&self) -> usize {
        self.master_step_len
    }

    /// The plan's current identity + delta version.
    pub fn stamp(&self) -> PlanStamp {
        self.stamp
    }

    /// True iff `checkpoint` was captured through
    /// [`ChasePlan::checkpoint_with`] against this exact plan state (same
    /// identity, same delta version).  Checkpoints captured outside a plan
    /// (e.g. [`ChaseCheckpoint::capture`]) never validate.
    pub fn checkpoint_is_current(&self, checkpoint: &ChaseCheckpoint) -> bool {
        checkpoint.plan_stamp() == Some(self.stamp)
    }

    /// Apply a **monotone** master-data update in place: append the update's
    /// rows to the targeted master relation (interned against the plan's
    /// canonical strings) and pre-ground the form-(2) steps those new tuples
    /// contribute, with the same duplicate folding as compilation.  Nothing
    /// already compiled moves: existing ground steps keep their indices, so
    /// every specification and grounding derived from the plan *before* the
    /// delta stays a valid prefix view; the plan's [`PlanStamp`] version is
    /// bumped so downstream caches know to revalidate.
    ///
    /// Deletions (and rule changes, which never go through this API) are not
    /// monotone — steps would have to be *removed* — and are rejected with
    /// [`PlanDeltaError::RequiresRecompile`]; the caller recompiles via
    /// [`ChasePlan::compile`] over the updated inputs, obtaining a fresh plan
    /// identity that stale checkpoints cannot validate against.
    pub fn apply_master_delta(
        &mut self,
        update: &MasterUpdate,
    ) -> Result<MasterDeltaApplied, PlanDeltaError> {
        let delta = self.ground_master_delta(update)?;
        self.adopt_master_delta(&delta)
    }

    /// The grounding half of [`ChasePlan::apply_master_delta`]: validate the
    /// update, intern its rows and pre-ground the form-(2) steps they
    /// contribute — **without mutating the plan's logical state**.  The
    /// returned [`GroundedMasterDelta`] can be adopted by this plan *and* by
    /// any clone still at the same [`PlanStamp`], so a master append is
    /// ground exactly once however many plan clones adopt it.
    ///
    /// `&mut self` only because the appended strings are registered with the
    /// plan's interner; nothing observable by the chase (masters, steps,
    /// stamp) changes until adoption.
    pub fn ground_master_delta(
        &mut self,
        update: &MasterUpdate,
    ) -> Result<GroundedMasterDelta, PlanDeltaError> {
        if !update.deletes.is_empty() {
            return Err(PlanDeltaError::RequiresRecompile);
        }
        if update.master >= self.masters.len() {
            return Err(PlanDeltaError::NoSuchMaster(update.master));
        }
        // validate everything before grounding (deltas apply atomically)
        let master_schema = self.masters[update.master].schema().clone();
        for row in &update.appends {
            master_schema
                .validate_row(row)
                .map_err(PlanDeltaError::Schema)?;
        }

        // a delta relation holding only the new tuples, so grounding ranges
        // over exactly the appended rows (empty stand-ins keep the rule →
        // master_index addressing intact); rows are interned here so every
        // adopting clone ends up sharing the same canonical allocations
        let mut delta_masters: Vec<MasterRelation> = self
            .masters
            .iter()
            .map(|m| MasterRelation::new(m.schema().clone()))
            .collect();
        let mut rows = Vec::with_capacity(update.appends.len());
        for row in &update.appends {
            let mut row = row.clone();
            for value in &mut row {
                self.interner.intern_value(value);
            }
            delta_masters[update.master]
                .push_row(row.clone())
                .expect("validated above");
            rows.push(row);
        }

        // ground against a *clone* of the dedup keys: duplicates fold exactly
        // like compilation, but the plan's own set stays untouched until the
        // delta is adopted
        let mut seen = self.master_seen.clone();
        let mut grounding = Grounding::default();
        ground_master_rules(&self.rules, &delta_masters, &mut grounding, &mut seen);
        Ok(GroundedMasterDelta {
            base: self.stamp,
            master: update.master,
            rows,
            steps: Arc::new(grounding.steps),
            tuples_considered: grounding.master_tuples_considered,
            folded_away: grounding.folded_away,
        })
    }

    /// The adoption half of [`ChasePlan::apply_master_delta`]: append the
    /// delta's pre-validated rows and its shared step block to this plan and
    /// bump the stamp version.  Per-adopter work is O(|Δ| rows + |new steps|)
    /// reference pushes — the `|Σ2| × |Δ|` grounding loop already ran, once,
    /// in [`ChasePlan::ground_master_delta`].
    ///
    /// The adopting plan must be at exactly the delta's base stamp (same
    /// identity, same version); anything else is rejected with
    /// [`PlanDeltaError::StaleDelta`] — folding decisions and step indices
    /// are only valid against the state the delta was grounded on.
    pub fn adopt_master_delta(
        &mut self,
        delta: &GroundedMasterDelta,
    ) -> Result<MasterDeltaApplied, PlanDeltaError> {
        if delta.base != self.stamp {
            return Err(PlanDeltaError::StaleDelta);
        }
        let masters = Arc::make_mut(&mut self.masters);
        for row in &delta.rows {
            let mut row = row.clone();
            for value in &mut row {
                // registers the delta's canonical allocations with this
                // clone's interner: a no-op on the grounding plan, and on
                // other clones it adopts the *same* `Arc`s, so pointer
                // equality keeps firing across plan clones
                self.interner.intern_value(value);
            }
            masters[delta.master]
                .push_row(row)
                .expect("validated when the delta was grounded");
        }
        // re-derive the dedup keys from the adopted steps (the exact key
        // construction `ground_master_rule` folds on), so a later delta
        // grounded against the adopted state folds correctly
        for step in delta.steps.iter() {
            self.master_seen
                .insert((step.action.clone(), step.pending.clone()));
        }
        let first_new = self.master_step_len;
        if !delta.steps.is_empty() {
            self.master_step_len += delta.steps.len();
            self.master_segments.push(Arc::clone(&delta.steps));
        }
        self.master_tuples_considered += delta.tuples_considered;
        self.master_folded_away += delta.folded_away;
        self.stamp.version += 1;
        Ok(MasterDeltaApplied {
            stamp: self.stamp,
            new_steps: first_new..self.master_step_len,
            appended: delta.rows.len(),
        })
    }

    /// A copy of the plan's interner, seeded with every master-data and
    /// rule-constant string.  Interning entity instances through it makes the
    /// pointer-equality fast path fire across entity and master values.
    pub fn fork_interner(&self) -> Interner {
        self.interner.clone()
    }

    /// Build the (cheap, `Arc`-sharing) specification of one entity.
    pub fn specification(&self, ie: EntityInstance) -> Specification {
        Specification::shared(ie, self.rules.clone(), self.masters.clone())
    }

    /// Ground the plan against one entity instance into a fresh [`Grounding`]
    /// (the pre-grounded master steps are appended to the entity's own form-(1)
    /// steps).
    pub fn instantiate(&self, ie: &EntityInstance) -> Grounding {
        let orders = AccuracyOrders::new(ie);
        let mut out = Grounding::default();
        let mut seen = HashSet::new();
        self.instantiate_into(ie, &orders, &mut out, &mut seen);
        out
    }

    fn instantiate_into(
        &self,
        ie: &EntityInstance,
        orders: &AccuracyOrders,
        out: &mut Grounding,
        seen: &mut HashSet<(StepAction, Vec<PendingPred>)>,
    ) {
        debug_assert_eq!(
            ie.schema().arity(),
            self.schema.arity(),
            "entity instance does not conform to the plan's schema"
        );
        out.clear();
        seen.clear();
        ground_tuple_rules(&self.rules, ie, orders, out, seen);
        for segment in &self.master_segments {
            out.steps.extend(segment.iter().cloned());
        }
        out.master_tuples_considered += self.master_tuples_considered;
        out.folded_away += self.master_folded_away;
    }

    /// Run `IsCR` for one entity with a fresh scratch (convenience wrapper).
    pub fn is_cr(&self, ie: &EntityInstance) -> ChaseRun {
        self.is_cr_with(ie, &mut ChaseScratch::new())
    }

    /// Run `IsCR` for one entity, reusing `scratch`'s allocations.
    pub fn is_cr_with(&self, ie: &EntityInstance, scratch: &mut ChaseScratch) -> ChaseRun {
        let empty = TargetTuple::empty(self.schema.arity());
        self.chase_with(ie, &empty, scratch)
    }

    /// Run the chase for one entity with an explicit initial target template,
    /// reusing `scratch`'s allocations.  This is the batch engine's hot path.
    pub fn chase_with(
        &self,
        ie: &EntityInstance,
        initial_target: &TargetTuple,
        scratch: &mut ChaseScratch,
    ) -> ChaseRun {
        let orders = AccuracyOrders::new(ie);
        self.instantiate_into(ie, &orders, &mut scratch.grounding, &mut scratch.seen);
        // hand the (still empty) orders over instead of rebuilding them
        chase_parts(
            ie,
            &self.rules,
            Some(orders),
            &scratch.grounding,
            initial_target,
            Some(&mut scratch.index),
        )
    }

    /// Run `IsCR` for one entity **and** freeze the terminal state as a
    /// [`ChaseCheckpoint`]: one chase serves both the deduction and any
    /// subsequent candidate checks (the batch engine's suggestion path).
    ///
    /// The worker's index is moved into the run (its allocations are reused)
    /// and ends up inside the checkpoint; when the entity turns out to need
    /// no candidate checks, hand it back with
    /// [`ChaseScratch::restore_index`] + [`ChaseCheckpoint::into_index`].
    pub fn checkpoint_with(
        &self,
        ie: &EntityInstance,
        scratch: &mut ChaseScratch,
    ) -> CheckpointRun {
        let orders = AccuracyOrders::new(ie);
        self.instantiate_into(ie, &orders, &mut scratch.grounding, &mut scratch.seen);
        let mut run = ChaseCheckpoint::capture_with_index(
            ie,
            &self.rules,
            &scratch.grounding,
            orders,
            &TargetTuple::empty(self.schema.arity()),
            std::mem::take(&mut scratch.index),
        );
        if let CheckpointOutcome::Ready(checkpoint) = &mut run.outcome {
            // stamp the plan state the checkpoint is valid for, so caches can
            // revalidate it after master deltas / recompiles
            checkpoint.set_plan_stamp(self.stamp);
        }
        run
    }

    /// Re-run the chase over the grounding left in `scratch` by the last
    /// [`ChasePlan::chase_with`] / [`ChasePlan::is_cr_with`] call for the same
    /// entity — used to `check` candidate targets without re-grounding.
    pub fn rechase_with(
        &self,
        ie: &EntityInstance,
        initial_target: &TargetTuple,
        scratch: &mut ChaseScratch,
    ) -> ChaseRun {
        chase_parts(
            ie,
            &self.rules,
            None,
            &scratch.grounding,
            initial_target,
            Some(&mut scratch.index),
        )
    }
}

/// Reusable per-worker buffers for plan evaluation: the grounding, the step
/// dedup set, the event index and the checkpointed-check scratch.  One
/// scratch per worker thread; never shared.
#[derive(Debug, Default)]
pub struct ChaseScratch {
    grounding: Grounding,
    seen: HashSet<(StepAction, Vec<PendingPred>)>,
    index: ChaseIndex,
    check: CheckScratch,
}

impl ChaseScratch {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        ChaseScratch::default()
    }

    /// The grounding left behind by the most recent plan evaluation (used by
    /// suggestion search to reuse `Γ` for candidate checks).
    pub fn grounding(&self) -> &Grounding {
        &self.grounding
    }

    /// The worker's resumed-check scratch (see
    /// [`crate::chase::checkpoint::CheckScratch`]).
    pub fn check_scratch(&mut self) -> &mut CheckScratch {
        &mut self.check
    }

    /// Split borrow: the cached grounding plus the check scratch, for callers
    /// that prepare a candidate search over the grounding *and* run
    /// checkpointed checks with the same worker scratch (the batch engine's
    /// suggestion path).
    pub fn grounding_and_check(&mut self) -> (&Grounding, &mut CheckScratch) {
        (&self.grounding, &mut self.check)
    }

    /// Hand back an index previously moved out by
    /// [`ChasePlan::checkpoint_with`] (via [`ChaseCheckpoint::into_index`]),
    /// so its allocations keep being reused across the worker's entities.
    pub fn restore_index(&mut self, index: ChaseIndex) {
        self.index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::iscr::is_cr;
    use crate::rules::{MasterPremise, MasterRule, Predicate, RuleSet, TupleRule};
    use relacc_model::{AttrId, CmpOp, DataType, Schema, Value};

    fn schema() -> SchemaRef {
        Schema::builder("stat")
            .attr("name", DataType::Text)
            .attr("rnds", DataType::Int)
            .attr("team", DataType::Text)
            .build()
    }

    fn rules(s: &SchemaRef, master_schema: &SchemaRef) -> RuleSet {
        RuleSet::from_rules([
            crate::rules::AccuracyRule::from(TupleRule::new(
                "cur",
                vec![Predicate::cmp_attrs(s.expect_attr("rnds"), CmpOp::Lt)],
                s.expect_attr("rnds"),
            )),
            crate::rules::AccuracyRule::from(MasterRule::new(
                "m",
                vec![MasterPremise::TargetEqMaster(
                    s.expect_attr("name"),
                    master_schema.expect_attr("name"),
                )],
                vec![(s.expect_attr("team"), master_schema.expect_attr("team"))],
            )),
        ])
    }

    fn master(master_schema: &SchemaRef) -> MasterRelation {
        MasterRelation::from_rows(
            master_schema.clone(),
            vec![vec![Value::text("mj"), Value::text("Bulls")]],
        )
        .unwrap()
    }

    fn entity(s: &SchemaRef, name: &str, rnds: &[i64]) -> EntityInstance {
        EntityInstance::from_rows(
            s.clone(),
            rnds.iter()
                .map(|r| vec![Value::text(name), Value::Int(*r), Value::Null])
                .collect(),
        )
        .unwrap()
    }

    fn master_schema() -> SchemaRef {
        Schema::builder("nba")
            .attr("name", DataType::Text)
            .attr("team", DataType::Text)
            .build()
    }

    #[test]
    fn plan_matches_fresh_specifications_across_entities() {
        let s = schema();
        let ms = master_schema();
        let plan = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        assert_eq!(plan.master_step_count(), 1);
        let mut scratch = ChaseScratch::new();
        for (name, rnds) in [("mj", vec![16, 27, 1]), ("sp", vec![3]), ("mj", vec![8, 2])] {
            let ie = entity(&s, name, &rnds);
            // reference: the per-entity recompile path
            let spec = Specification::new(ie.clone(), rules(&s, &ms)).with_master(master(&ms));
            let fresh = is_cr(&spec);
            let planned = plan.is_cr_with(&ie, &mut scratch);
            assert_eq!(
                fresh.outcome.is_church_rosser(),
                planned.outcome.is_church_rosser()
            );
            assert_eq!(fresh.outcome.target(), planned.outcome.target());
            assert_eq!(fresh.stats.steps_applied, planned.stats.steps_applied);
            assert_eq!(fresh.stats.ground_steps, planned.stats.ground_steps);
        }
        // the "mj" entities join master data and get the team filled in
        let ie = entity(&s, "mj", &[16, 27]);
        let run = plan.is_cr_with(&ie, &mut scratch);
        let te = run.outcome.target().unwrap();
        assert_eq!(te.value(AttrId(2)), &Value::text("Bulls"));
        assert_eq!(te.value(AttrId(1)), &Value::Int(27));
    }

    #[test]
    fn invalid_rules_fail_at_compile_time_not_per_entity() {
        let s = schema();
        let bad = RuleSet::from_rules([TupleRule::new("bad", vec![], AttrId(17))]);
        assert!(ChasePlan::compile(s, bad, vec![]).is_err());
    }

    #[test]
    fn from_spec_shares_rules_and_masters() {
        let s = schema();
        let ms = master_schema();
        let spec =
            Specification::new(entity(&s, "mj", &[1, 2]), rules(&s, &ms)).with_master(master(&ms));
        let plan = ChasePlan::from_spec(&spec).unwrap();
        let run_spec = is_cr(&spec);
        let run_plan = plan.is_cr(&spec.ie);
        assert_eq!(run_spec.outcome.target(), run_plan.outcome.target());
        // cheap per-entity specifications share the compiled data
        let spec2 = plan.specification(entity(&s, "sp", &[5]));
        assert!(Arc::ptr_eq(&spec2.rules, plan.rules()));
        assert!(Arc::ptr_eq(&spec2.masters, plan.masters()));
    }

    #[test]
    fn rechase_reuses_the_grounding_for_candidate_checks() {
        let s = schema();
        let ms = master_schema();
        let plan = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        let ie = entity(&s, "mj", &[16, 27]);
        let mut scratch = ChaseScratch::new();
        let deduced = plan
            .is_cr_with(&ie, &mut scratch)
            .outcome
            .target()
            .unwrap()
            .clone();
        assert!(deduced.is_complete());
        // checking the deduced target against the cached grounding succeeds
        let check = plan.rechase_with(&ie, &deduced, &mut scratch);
        assert_eq!(check.outcome.target(), Some(&deduced));
        // a contradicting candidate is rejected
        let mut bad = deduced.clone();
        bad.set(AttrId(2), Value::text("Knicks"));
        let check = plan.rechase_with(&ie, &bad, &mut scratch);
        assert!(!check.outcome.is_church_rosser());
    }

    #[test]
    fn master_delta_appends_steps_in_place_and_bumps_the_version() {
        let s = schema();
        let ms = master_schema();
        let mut plan = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        let stamp0 = plan.stamp();
        assert_eq!(stamp0.version, 0);
        assert_eq!(plan.master_step_count(), 1);

        // before the delta, the "sp" entity has no master row: team stays open
        let ie = entity(&s, "sp", &[3, 9]);
        let mut scratch = ChaseScratch::new();
        let run = plan.is_cr_with(&ie, &mut scratch);
        assert!(run.outcome.target().unwrap().is_null(AttrId(2)));

        let applied = plan
            .apply_master_delta(&MasterUpdate::append(
                0,
                vec![vec![Value::text("sp"), Value::text("Blazers")]],
            ))
            .unwrap();
        assert_eq!(applied.appended, 1);
        assert_eq!(applied.stamp.plan, stamp0.plan);
        assert_eq!(applied.stamp.version, 1);
        assert_eq!(applied.new_steps, 1..2);
        assert_eq!(plan.master_step_count(), 2);
        assert_eq!(plan.masters()[0].len(), 2);

        // the delta-extended plan now deduces the team, and matches a fresh
        // compile over the full master set exactly
        let run = plan.is_cr_with(&ie, &mut scratch);
        assert_eq!(
            run.outcome.target().unwrap().value(AttrId(2)),
            &Value::text("Blazers")
        );
        let mut full_master = master(&ms);
        full_master
            .push_row(vec![Value::text("sp"), Value::text("Blazers")])
            .unwrap();
        let fresh = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![full_master]).unwrap();
        let fresh_run = fresh.is_cr_with(&ie, &mut scratch);
        assert_eq!(fresh_run.outcome.target(), run.outcome.target());
        assert_eq!(fresh_run.stats.ground_steps, run.stats.ground_steps);
        // fresh compile = fresh identity: versions are not comparable across
        assert_ne!(fresh.stamp().plan, plan.stamp().plan);
    }

    #[test]
    fn master_delta_folds_duplicate_appends_like_compilation() {
        let s = schema();
        let ms = master_schema();
        let mut plan = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        // appending the exact row the plan already grounded adds no step
        let applied = plan
            .apply_master_delta(&MasterUpdate::append(
                0,
                vec![vec![Value::text("mj"), Value::text("Bulls")]],
            ))
            .unwrap();
        assert!(applied.new_steps.is_empty());
        assert_eq!(plan.master_step_count(), 1);
        assert_eq!(applied.stamp.version, 1);
    }

    /// The ground-once contract: ground a delta once, adopt it on any
    /// number of plan clones — every adopter matches the single-owner
    /// `apply_master_delta` path exactly and shares the delta's step block.
    #[test]
    fn one_grounding_serves_every_plan_clone() {
        let s = schema();
        let ms = master_schema();
        let mut owner = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        let mut clones = vec![owner.clone(), owner.clone()];

        let update = MasterUpdate::append(0, vec![vec![Value::text("sp"), Value::text("Blazers")]]);
        let delta = owner.ground_master_delta(&update).unwrap();
        assert_eq!(delta.appended(), 1);
        assert_eq!(delta.steps().len(), 1);
        // grounding alone mutates nothing observable
        assert_eq!(owner.stamp().version, 0);
        assert_eq!(owner.master_step_count(), 1);
        assert_eq!(owner.masters()[0].len(), 1);

        let applied = owner.adopt_master_delta(&delta).unwrap();
        for clone in &mut clones {
            assert_eq!(clone.adopt_master_delta(&delta).unwrap(), applied);
        }
        assert_eq!(applied.new_steps, 1..2);
        assert_eq!(applied.stamp.version, 1);

        // every adopter deduces like a single-owner apply_master_delta plan
        let mut reference =
            ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        reference.apply_master_delta(&update).unwrap();
        let ie = entity(&s, "sp", &[3, 9]);
        let mut scratch = ChaseScratch::new();
        let want = reference.is_cr_with(&ie, &mut scratch);
        for plan in std::iter::once(&owner).chain(clones.iter()) {
            assert_eq!(plan.master_step_count(), 2);
            assert_eq!(plan.masters()[0].len(), 2);
            let run = plan.is_cr_with(&ie, &mut scratch);
            assert_eq!(run.outcome.target(), want.outcome.target());
            assert_eq!(run.stats.ground_steps, want.stats.ground_steps);
        }

        // a second delta grounded against the adopted state folds duplicates
        // of *adopted* steps, proving the dedup keys were re-derived
        let dup = owner.ground_master_delta(&update).unwrap();
        assert!(dup.steps().is_empty());

        // adopting the same (version-0-based) delta twice is stale, as is
        // adopting against a foreign plan identity
        assert!(matches!(
            owner.adopt_master_delta(&delta),
            Err(PlanDeltaError::StaleDelta)
        ));
        let mut foreign = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        assert!(matches!(
            foreign.adopt_master_delta(&delta),
            Err(PlanDeltaError::StaleDelta)
        ));
    }

    #[test]
    fn non_monotone_deltas_are_rejected() {
        let s = schema();
        let ms = master_schema();
        let mut plan = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        let mut deletion = MasterUpdate::append(0, vec![]);
        deletion.deletes.push(0);
        assert!(matches!(
            plan.apply_master_delta(&deletion),
            Err(PlanDeltaError::RequiresRecompile)
        ));
        assert!(matches!(
            plan.apply_master_delta(&MasterUpdate::append(7, vec![])),
            Err(PlanDeltaError::NoSuchMaster(7))
        ));
        // a schema-invalid row leaves the plan untouched
        let before = plan.master_step_count();
        assert!(matches!(
            plan.apply_master_delta(&MasterUpdate::append(0, vec![vec![Value::Int(1)]])),
            Err(PlanDeltaError::Schema(_))
        ));
        assert_eq!(plan.master_step_count(), before);
        assert_eq!(plan.stamp().version, 0);
    }

    #[test]
    fn checkpoints_validate_against_the_stamping_plan_state() {
        let s = schema();
        let ms = master_schema();
        let mut plan = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        let ie = entity(&s, "mj", &[16, 27]);
        let mut scratch = ChaseScratch::new();
        let run = plan.checkpoint_with(&ie, &mut scratch);
        let super::CheckpointOutcome::Ready(checkpoint) = run.outcome else {
            panic!("entity is Church-Rosser");
        };
        assert!(plan.checkpoint_is_current(&checkpoint));

        // a master delta invalidates previously captured checkpoints
        plan.apply_master_delta(&MasterUpdate::append(
            0,
            vec![vec![Value::text("sp"), Value::text("Blazers")]],
        ))
        .unwrap();
        assert!(!plan.checkpoint_is_current(&checkpoint));
        scratch.restore_index(checkpoint.into_index());

        // a fresh capture against the evolved plan validates again
        let run = plan.checkpoint_with(&ie, &mut scratch);
        let super::CheckpointOutcome::Ready(checkpoint) = run.outcome else {
            panic!("entity is Church-Rosser");
        };
        assert!(plan.checkpoint_is_current(&checkpoint));

        // plan-less captures never validate
        let spec = plan.specification(ie.clone());
        let orders = AccuracyOrders::new(&spec.ie);
        let grounding = crate::chase::ground::ground(&spec, &orders);
        let run = ChaseCheckpoint::capture(
            &spec.ie,
            &spec.rules,
            &grounding,
            &TargetTuple::empty(s.arity()),
        );
        let super::CheckpointOutcome::Ready(planless) = run.outcome else {
            panic!("entity is Church-Rosser");
        };
        assert_eq!(planless.plan_stamp(), None);
        assert!(!plan.checkpoint_is_current(&planless));
    }

    #[test]
    fn interner_canonicalizes_entity_text_against_master_data() {
        let s = schema();
        let ms = master_schema();
        let plan = ChasePlan::compile(s.clone(), rules(&s, &ms), vec![master(&ms)]).unwrap();
        let mut interner = plan.fork_interner();
        assert!(!interner.is_empty());
        let mut ie = entity(&s, "mj", &[1]);
        interner.intern_instance(&mut ie);
        // the entity's "mj" now shares the master tuple's allocation
        let master_name = plan.masters()[0].tuple(0).value(AttrId(0));
        let entity_name = ie.value(relacc_model::TupleId(0), AttrId(0));
        match (master_name, entity_name) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("expected text values"),
        }
    }
}
