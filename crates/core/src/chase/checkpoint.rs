//! Checkpointed chase: resume candidate checks from the base fixpoint.
//!
//! The `check` procedure of Section 6.1 decides whether a complete tuple
//! `t'_e` is a candidate target by re-running the chase with `t'_e` as the
//! initial template.  Doing so from scratch costs `O(|Γ|)` per candidate —
//! fresh orders, a full index rebuild, and a replay of every step the base
//! deduction already fired — even though every candidate, by construction,
//! *completes* the deduced target `t_e` and differs from it only on the null
//! attributes `Z`.
//!
//! The chase is **monotone**: steps only add order pairs and define target
//! attributes, a pending predicate once satisfied stays satisfied, and every
//! target attribute ends up with the same value in the base run and in any
//! accepting candidate run (a defined target value can never change).  The
//! base fixpoint is therefore a valid prefix of *every* candidate's chasing
//! sequence, and by the Church-Rosser property (Theorem 2) the verdict of a
//! chase does not depend on the order in which applicable steps fire.  So a
//! candidate check can **resume** from the base fixpoint:
//!
//! 1. [`ChaseCheckpoint::capture`] runs the base `IsCR` chase once and
//!    freezes its terminal state — the accuracy orders, the deduced target,
//!    and the index `H` at fixpoint.  Crucially, the surviving
//!    `by_order`/`by_target` subscription buckets of the index are exactly
//!    the events that have *not* fired yet, i.e. the only events a resumed
//!    run may still have to dispatch.
//! 2. [`ChaseCheckpoint::resume_check`] seeds only the new target events
//!    `te[a] := v` for the candidate's `Z` attributes and resumes `IsCR`'s
//!    own step enforcer (the `Chaser` of [`crate::chase::iscr`]) from the
//!    base fixpoint: the events wake steps through the frozen subscriptions,
//!    and the woken steps are enforced by the very code of the full chase
//!    (order conflicts, target overwrites, the λ update, and the ϕ8 axiom).
//!    Work is proportional to the steps actually affected, not to `|Γ|`.
//! 3. Every mutation — the order pairs and target attributes the chaser
//!    adds, and each step state a transition changes — is recorded in an
//!    **undo log** held by the caller's [`CheckScratch`] and rolled back
//!    after the verdict, so one checkpoint serves thousands of candidate
//!    checks without re-cloning its state.
//!
//! A candidate is accepted iff the resumed run reaches a fixpoint without an
//! invalid step; its terminal target then necessarily equals the candidate
//! (all attributes are seeded up front and non-null target values never
//! change).  The equivalence with the from-scratch `check` is property-tested
//! in `tests/prop_checkpoint.rs` at the workspace root.

use super::ground::{GroundStep, Grounding, StepOrigin};
use super::index::{pop_ready, ChaseIndex, StepState};
use super::iscr::{
    run_chase_with_orders, ChaseEvent, ChaseStats, Chaser, Conflict, IndexedScheduler, IsCrOutcome,
    StepScheduler, UndoLog,
};
use super::spec::AccuracyInstance;
use crate::rules::RuleSet;
use relacc_model::{AccuracyOrders, AttrId, EntityInstance, TargetTuple};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonically increasing checkpoint identity, used by [`CheckScratch`] to
/// decide when its cached working copies must be re-seeded.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// The frozen terminal state of a base `IsCR` run, ready to answer candidate
/// checks by delta replay.
///
/// A checkpoint is immutable (and `Send + Sync`): the per-check mutable state
/// lives in the caller's [`CheckScratch`].  It is only valid together with
/// the exact [`Grounding`] it was captured over.
#[derive(Debug)]
pub struct ChaseCheckpoint {
    epoch: u64,
    /// Terminal accuracy orders and deduced target `t_e` of the base run.
    base: AccuracyInstance,
    /// The index `H` at fixpoint: per-step counters plus the subscriptions of
    /// the events that never fired.
    index: ChaseIndex,
    /// Length of the grounding the checkpoint was captured over (guards
    /// against resuming with a mismatched `Γ`).
    step_count: usize,
    /// Statistics of the base run.
    stats: ChaseStats,
    /// The plan state the checkpoint was captured under, when it was captured
    /// through [`crate::chase::ChasePlan::checkpoint_with`]; `None` for
    /// plan-less captures.  Downstream caches validate against the owning
    /// plan with [`crate::chase::ChasePlan::checkpoint_is_current`].
    plan: Option<super::plan::PlanStamp>,
}

/// How a [`ChaseCheckpoint::capture`] run ended.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// The base specification is Church-Rosser; the checkpoint is ready to
    /// answer candidate checks.  Boxed: a checkpoint carries the full
    /// terminal state and dwarfs the conflict variant.
    Ready(Box<ChaseCheckpoint>),
    /// The base specification is not Church-Rosser; no candidate search is
    /// possible (the framework must reject the specification first).
    NotChurchRosser(Conflict),
}

/// The result of a capture: outcome plus the base-run statistics.
#[derive(Debug)]
pub struct CheckpointRun {
    /// Checkpoint or conflict.
    pub outcome: CheckpointOutcome,
    /// Counters of the base chase run.
    pub stats: ChaseStats,
}

/// The verdict of one resumed candidate check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeCheck {
    /// True iff the candidate is a candidate target (the resumed chase
    /// reached a fixpoint without an invalid step).
    pub accepted: bool,
    /// Ground steps replayed by the delta (the work a from-scratch check
    /// would have multiplied by `|Γ|`).
    pub steps_replayed: usize,
}

impl ChaseCheckpoint {
    /// Run the base chase over `grounding` with `initial_target` as the
    /// template and freeze its terminal state.
    ///
    /// This *is* the deduction step: callers that previously ran
    /// `chase_with_grounding` to obtain the deduced target run `capture`
    /// instead and read [`ChaseCheckpoint::target`].
    pub fn capture(
        ie: &EntityInstance,
        rules: &RuleSet,
        grounding: &Grounding,
        initial_target: &TargetTuple,
    ) -> CheckpointRun {
        Self::capture_with_index(
            ie,
            rules,
            grounding,
            AccuracyOrders::new(ie),
            initial_target,
            ChaseIndex::default(),
        )
    }

    /// [`ChaseCheckpoint::capture`] over pre-built (still empty) orders and a
    /// caller-provided index whose allocations are reused for the base run.
    ///
    /// This is the batch engine's path: one chase serves both the per-entity
    /// deduction *and* the checkpoint, with the worker's warmed
    /// [`ChaseIndex`] moved in (and recoverable afterwards through
    /// [`ChaseCheckpoint::into_index`] when no candidate checks are needed).
    pub fn capture_with_index(
        ie: &EntityInstance,
        rules: &RuleSet,
        grounding: &Grounding,
        orders: AccuracyOrders,
        initial_target: &TargetTuple,
        mut index: ChaseIndex,
    ) -> CheckpointRun {
        let run = {
            let mut scheduler = IndexedScheduler { index: &mut index };
            run_chase_with_orders(ie, rules, orders, grounding, initial_target, &mut scheduler)
        };
        let stats = run.stats;
        let outcome = match run.outcome {
            IsCrOutcome::ChurchRosser(instance) => {
                CheckpointOutcome::Ready(Box::new(ChaseCheckpoint {
                    epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
                    base: instance,
                    index,
                    step_count: grounding.steps.len(),
                    stats,
                    plan: None,
                }))
            }
            IsCrOutcome::NotChurchRosser(conflict) => CheckpointOutcome::NotChurchRosser(conflict),
        };
        CheckpointRun { outcome, stats }
    }

    /// Dismantle the checkpoint, returning its index (with all its warmed
    /// allocations) to the caller — used by the batch engine to hand the
    /// worker scratch its index back when an entity needs no candidate
    /// checks.
    pub fn into_index(self) -> ChaseIndex {
        self.index
    }

    /// The deduced target `t_e` of the base run.
    pub fn target(&self) -> &TargetTuple {
        &self.base.target
    }

    /// The terminal accuracy orders of the base run.
    pub fn orders(&self) -> &AccuracyOrders {
        &self.base.orders
    }

    /// Statistics of the base chase run.
    pub fn stats(&self) -> &ChaseStats {
        &self.stats
    }

    /// The plan state this checkpoint was captured under (`None` when it was
    /// captured without a plan).
    pub fn plan_stamp(&self) -> Option<super::plan::PlanStamp> {
        self.plan
    }

    /// Stamp the plan state the checkpoint belongs to (set by
    /// [`crate::chase::ChasePlan::checkpoint_with`]).
    pub(crate) fn set_plan_stamp(&mut self, stamp: super::plan::PlanStamp) {
        self.plan = Some(stamp);
    }

    /// The `check` of Section 6.1, resumed from the base fixpoint: is
    /// `candidate` a candidate target?
    ///
    /// `rules` and `grounding` must be the ones the checkpoint was captured
    /// with.  The scratch is rebound automatically when it last served a
    /// different checkpoint; after the call it is back in the checkpoint's
    /// base state, ready for the next candidate.
    pub fn resume_check(
        &self,
        rules: &RuleSet,
        grounding: &Grounding,
        candidate: &TargetTuple,
        scratch: &mut CheckScratch,
    ) -> ResumeCheck {
        assert_eq!(
            grounding.steps.len(),
            self.step_count,
            "resume_check called with a grounding that does not match the checkpoint"
        );
        if !candidate.is_complete() || !self.base.target.is_completed_by(candidate) {
            return ResumeCheck {
                accepted: false,
                steps_replayed: 0,
            };
        }
        scratch.bind(self);
        let base = scratch.base.as_mut().expect("scratch bound");
        let mut chaser = Chaser::new(
            rules,
            &mut base.orders,
            &mut base.target,
            &mut scratch.events,
            Some(&mut scratch.undo),
        );
        let mut resume = Resume {
            index: &self.index,
            states: &mut scratch.states,
            ready: &mut scratch.ready,
            undo: &mut scratch.undo_states,
        };
        // the candidate is the initial template: its `Z` values are new
        // target assignments, every other value must agree with the deduction
        let accepted = (0..candidate.arity())
            .map(AttrId)
            .try_for_each(|attr| {
                chaser
                    .set_target(StepOrigin::CandidateSeed, attr, candidate.value(attr))
                    .map(drop)
            })
            .and_then(|()| chaser.run(&grounding.steps, &mut resume))
            .is_ok();
        let steps_replayed = chaser.stats.steps_considered;
        debug_assert!(!accepted || &base.target == candidate);
        scratch.rollback();
        ResumeCheck {
            accepted,
            steps_replayed,
        }
    }
}

/// Reusable per-caller buffers for resumed checks: the working copies of the
/// checkpoint state plus the undo logs.
///
/// A scratch binds lazily to the checkpoint it serves (cloning the base state
/// once) and is restored to that base state after every check, so a sequence
/// of thousands of checks against one checkpoint costs one clone total.
/// Rebinding to another checkpoint re-seeds the copies; alternating between
/// checkpoints with a single scratch therefore thrashes — keep one scratch
/// per concurrently used checkpoint (the batch engine keeps one per worker).
#[derive(Debug, Default)]
pub struct CheckScratch {
    epoch: u64,
    base: Option<AccuracyInstance>,
    states: Vec<StepState>,
    ready: VecDeque<usize>,
    events: Vec<ChaseEvent>,
    undo: UndoLog,
    undo_states: Vec<(usize, StepState)>,
}

impl CheckScratch {
    /// Fresh, unbound buffers.
    pub fn new() -> Self {
        CheckScratch::default()
    }

    /// Seed the working copies from `ck` unless they already mirror it.
    fn bind(&mut self, ck: &ChaseCheckpoint) {
        if self.epoch == ck.epoch {
            return;
        }
        self.base = Some(ck.base.clone());
        self.states.clear();
        self.states.extend_from_slice(ck.index.states());
        self.ready.clear();
        self.events.clear();
        self.undo = UndoLog::default();
        self.undo_states.clear();
        self.epoch = ck.epoch;
    }

    /// Replay the undo logs, restoring the working copies to the bound
    /// checkpoint's base state.
    fn rollback(&mut self) {
        let base = self.base.as_mut().expect("rollback on unbound scratch");
        self.undo.rollback(&mut base.orders, &mut base.target);
        for (id, state) in self.undo_states.drain(..).rev() {
            self.states[id] = state;
        }
        self.ready.clear();
        self.events.clear();
    }
}

/// The resumed check's scheduler: events reach the steps that still waited
/// at the base fixpoint through the checkpoint's frozen subscriptions (never
/// consumed, since each event fires at most once per check), the transitions
/// run on the scratch's copy of the step states, and each state a transition
/// changes is logged for rollback.
struct Resume<'c> {
    index: &'c ChaseIndex,
    states: &'c mut [StepState],
    ready: &'c mut VecDeque<usize>,
    undo: &'c mut Vec<(usize, StepState)>,
}

impl Resume<'_> {
    /// Run one transition on step `id`: queue the step when it became
    /// ready, and log its prior state when the transition changed it.
    fn transition(&mut self, id: usize, apply: impl FnOnce(&mut StepState) -> bool) {
        let before = self.states[id];
        if apply(&mut self.states[id]) {
            self.ready.push_back(id);
        }
        if self.states[id] != before {
            self.undo.push((id, before));
        }
    }
}

impl StepScheduler for Resume<'_> {
    fn begin(&mut self, _: &mut Chaser<'_>, _: &[GroundStep]) {}

    fn next_step(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) -> Option<usize> {
        let index = self.index;
        for event in chaser.take_events() {
            match event {
                ChaseEvent::Order(attr, lo, hi) => {
                    for &id in index.order_subscribers(attr, lo, hi) {
                        self.transition(id, StepState::satisfy);
                    }
                }
                ChaseEvent::Target(attr, value) => {
                    for &(id, pidx) in index.target_subscribers(attr) {
                        let premise = &steps[id].pending[pidx];
                        self.transition(id, |state| state.settle(|| premise.eval_target(&value)));
                    }
                }
            }
        }
        pop_ready(self.ready, self.states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ground::ground;
    use crate::chase::iscr::chase_with_grounding;
    use crate::chase::spec::Specification;
    use crate::rules::{MasterRule, Predicate, RuleSet, TupleRule};
    use relacc_model::{CmpOp, DataType, MasterRelation, Schema, TupleId, Value};

    /// rnds deducible; team/arena open (the Example 9 shape).
    fn open_spec() -> Specification {
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("team", DataType::Text)
            .attr("arena", DataType::Text)
            .build();
        let ie = EntityInstance::from_rows(
            schema.clone(),
            vec![
                vec![
                    Value::Int(16),
                    Value::text("Chicago"),
                    Value::text("Chicago Stadium"),
                ],
                vec![
                    Value::Int(27),
                    Value::text("Chicago Bulls"),
                    Value::text("United Center"),
                ],
                vec![
                    Value::Int(27),
                    Value::text("Chicago Bulls"),
                    Value::text("Regions Park"),
                ],
            ],
        )
        .unwrap();
        let rules = RuleSet::from_rules([TupleRule::new(
            "phi1",
            vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Lt)],
            schema.expect_attr("rnds"),
        )]);
        Specification::new(ie, rules)
    }

    fn capture_spec(spec: &Specification) -> (ChaseCheckpoint, Grounding) {
        let orders = AccuracyOrders::new(&spec.ie);
        let grounding = ground(spec, &orders);
        let run = ChaseCheckpoint::capture(&spec.ie, &spec.rules, &grounding, &spec.initial_target);
        match run.outcome {
            CheckpointOutcome::Ready(ck) => (*ck, grounding),
            CheckpointOutcome::NotChurchRosser(c) => panic!("expected Church-Rosser, got {c}"),
        }
    }

    fn full_check(spec: &Specification, grounding: &Grounding, candidate: &TargetTuple) -> bool {
        let run = chase_with_grounding(spec, grounding, candidate);
        match run.outcome {
            IsCrOutcome::ChurchRosser(instance) => &instance.target == candidate,
            IsCrOutcome::NotChurchRosser(_) => false,
        }
    }

    #[test]
    fn capture_deduces_the_base_target() {
        let spec = open_spec();
        let (ck, _) = capture_spec(&spec);
        assert_eq!(ck.target().value(AttrId(0)), &Value::Int(27));
        assert!(ck.target().is_null(AttrId(1)));
        assert!(ck.target().is_null(AttrId(2)));
        assert!(ck.stats().steps_applied > 0);
        assert!(ck.orders().total_edges() > 0);
    }

    #[test]
    fn resume_agrees_with_full_check_on_the_whole_domain() {
        let spec = open_spec();
        let (ck, grounding) = capture_spec(&spec);
        let mut scratch = CheckScratch::new();
        for team in ["Chicago", "Chicago Bulls"] {
            for arena in ["Chicago Stadium", "United Center", "Regions Park"] {
                let candidate = TargetTuple::from_values(vec![
                    Value::Int(27),
                    Value::text(team),
                    Value::text(arena),
                ]);
                let resumed = ck.resume_check(&spec.rules, &grounding, &candidate, &mut scratch);
                let full = full_check(&spec, &grounding, &candidate);
                assert_eq!(resumed.accepted, full, "team={team} arena={arena}");
            }
        }
    }

    #[test]
    fn resume_rejects_candidates_contradicting_master_data() {
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("flag", DataType::Text)
            .build();
        let ie = EntityInstance::from_rows(
            schema.clone(),
            vec![
                vec![Value::Int(16), Value::Null],
                vec![Value::Int(27), Value::text("x")],
                vec![Value::Int(1), Value::text("y")],
            ],
        )
        .unwrap();
        let master_schema = Schema::builder("m").attr("flag", DataType::Text).build();
        let im = MasterRelation::from_rows(master_schema, vec![vec![Value::text("x")]]).unwrap();
        let rules = RuleSet::from_rules([
            crate::rules::AccuracyRule::from(TupleRule::new(
                "cur",
                vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Lt)],
                schema.expect_attr("rnds"),
            )),
            crate::rules::AccuracyRule::from(MasterRule::new(
                "m1",
                vec![],
                vec![(AttrId(1), AttrId(0))],
            )),
        ]);
        let spec = Specification::new(ie, rules).with_master(im);
        // the master rule is unconditional, so flag is deduced; both targets
        // are complete already and only the agreeing one passes
        let (ck, grounding) = capture_spec(&spec);
        let mut scratch = CheckScratch::new();
        let good = TargetTuple::from_values(vec![Value::Int(27), Value::text("x")]);
        let bad = TargetTuple::from_values(vec![Value::Int(27), Value::text("y")]);
        assert!(
            ck.resume_check(&spec.rules, &grounding, &good, &mut scratch)
                .accepted
        );
        assert!(
            !ck.resume_check(&spec.rules, &grounding, &bad, &mut scratch)
                .accepted
        );
        assert!(full_check(&spec, &grounding, &good));
        assert!(!full_check(&spec, &grounding, &bad));
    }

    /// `te[a] = value`, a premise on the target.
    fn target_is(attr: usize, value: Value) -> Predicate {
        Predicate::Cmp {
            left: crate::rules::Operand::Target(AttrId(attr)),
            op: CmpOp::Eq,
            right: crate::rules::Operand::Const(value),
        }
    }

    /// A correlated rule waiting on the team target:
    /// `te[team] = "Bulls" ∧ t1[rank] < t2[rank] → t1 ⪯rank t2`.
    fn corr_rule() -> TupleRule {
        TupleRule::new(
            "corr",
            vec![
                target_is(0, Value::text("Bulls")),
                Predicate::cmp_attrs(AttrId(1), CmpOp::Lt),
            ],
            AttrId(1),
        )
    }

    /// Tuples `(Bulls, 2)` and `(Sox, 1)` over `(team, rank)` under `rules`;
    /// without master data both attributes stay open.
    fn team_rank_spec(rules: Vec<TupleRule>) -> Specification {
        let schema = Schema::builder("r")
            .attr("team", DataType::Text)
            .attr("rank", DataType::Int)
            .build();
        let ie = EntityInstance::from_rows(
            schema,
            vec![
                vec![Value::text("Bulls"), Value::Int(2)],
                vec![Value::text("Sox"), Value::Int(1)],
            ],
        )
        .unwrap();
        Specification::new(ie, RuleSet::from_rules(rules))
    }

    #[test]
    fn delta_replays_affected_steps_and_rolls_back() {
        // Seeding the candidate must wake and replay the correlated step, λ
        // must then deduce the rank attribute, and the rollback must restore
        // the base state so the next check starts clean.
        let spec = team_rank_spec(vec![corr_rule()]);
        let (ck, grounding) = capture_spec(&spec);
        assert!(ck.target().is_null(AttrId(0)));
        assert!(ck.target().is_null(AttrId(1)));
        let mut scratch = CheckScratch::new();
        // seeding team=Bulls wakes the rule, 1 ⪯ 2 is added, λ deduces
        // rank=2 — agreeing with the candidate
        let accepted = TargetTuple::from_values(vec![Value::text("Bulls"), Value::Int(2)]);
        let first = ck.resume_check(&spec.rules, &grounding, &accepted, &mut scratch);
        assert!(first.accepted);
        assert!(full_check(&spec, &grounding, &accepted));
        assert!(first.steps_replayed > 0, "the correlated step must replay");
        // λ's deduction contradicts rank=1
        let rejected = TargetTuple::from_values(vec![Value::text("Bulls"), Value::Int(1)]);
        let verdict = ck.resume_check(&spec.rules, &grounding, &rejected, &mut scratch);
        assert!(!verdict.accepted);
        assert!(!full_check(&spec, &grounding, &rejected));
        // with team=Sox the rule never fires and both ranks stay possible
        for rank in [1, 2] {
            let open = TargetTuple::from_values(vec![Value::text("Sox"), Value::Int(rank)]);
            let resumed = ck.resume_check(&spec.rules, &grounding, &open, &mut scratch);
            assert_eq!(resumed.accepted, full_check(&spec, &grounding, &open));
        }
        // rollback restored the base state: repeating the first check after
        // the interleaved rejections is bit-identical
        let again = ck.resume_check(&spec.rules, &grounding, &accepted, &mut scratch);
        assert_eq!(first, again);
    }

    /// Every related tuple pair of every attribute, as comparable data.
    fn order_pairs(orders: &AccuracyOrders) -> Vec<Vec<(TupleId, TupleId)>> {
        orders.iter().map(|o| o.related_tuple_pairs()).collect()
    }

    #[test]
    fn rollback_restores_a_freshly_bound_scratch() {
        // a second rule waits on both targets, so its step changes state
        // twice within one check: te[team] = "Bulls" ∧ te[rank] = 2 ∧
        // t1[rank] < t2[rank] → t1 ⪯team t2
        let both = TupleRule::new(
            "both",
            vec![
                target_is(0, Value::text("Bulls")),
                target_is(1, Value::Int(2)),
                Predicate::cmp_attrs(AttrId(1), CmpOp::Lt),
            ],
            AttrId(0),
        );
        let spec = team_rank_spec(vec![corr_rule(), both]);
        let (ck, grounding) = capture_spec(&spec);
        let mut scratch = CheckScratch::new();
        let check = |scratch: &mut CheckScratch, team: &str, rank: i64| {
            let candidate = TargetTuple::from_values(vec![Value::text(team), Value::Int(rank)]);
            let verdict = ck.resume_check(&spec.rules, &grounding, &candidate, scratch);
            assert_eq!(
                verdict.accepted,
                full_check(&spec, &grounding, &candidate),
                "team={team} rank={rank}"
            );
            (verdict, candidate)
        };
        // accepted: the correlated step orders rank 1 ⪯ 2 and λ deduces rank 2
        assert!(check(&mut scratch, "Bulls", 2).0.accepted);
        // rejected by the correlated step's order insert: the seed's ϕ8
        // already ranked 1 above 2
        assert!(!check(&mut scratch, "Bulls", 1).0.accepted);
        // both rules die with team = Sox: both observed ranks stay possible
        assert!(check(&mut scratch, "Sox", 1).0.accepted);
        assert!(check(&mut scratch, "Sox", 2).0.accepted);
        // rejected inside λ of the correlated step: 3 is no observed rank, so
        // its seed adds no ϕ8 edge, and once the step orders 1 ⪯ 2 the
        // greatest rank 2 disagrees with the seeded 3 (the step's order event
        // is left undispatched)
        let (verdict, candidate) = check(&mut scratch, "Bulls", 3);
        assert!(!verdict.accepted);
        assert!(
            verdict.steps_replayed > 0,
            "the conflict comes from a woken step"
        );
        let full = chase_with_grounding(&spec, &grounding, &candidate).outcome;
        assert!(full
            .conflict()
            .is_some_and(|c| c.detail.contains("most accurate value")));

        let mut fresh = CheckScratch::new();
        fresh.bind(&ck);
        let (used, bound) = (scratch.base.as_ref().unwrap(), fresh.base.as_ref().unwrap());
        for order in used.orders.iter() {
            order.check_invariants().unwrap();
        }
        assert_eq!(order_pairs(&used.orders), order_pairs(&bound.orders));
        assert_eq!(used.orders.total_edges(), bound.orders.total_edges());
        assert_eq!(used.target, bound.target);
        assert_eq!(scratch.states, fresh.states);
        assert!(scratch.ready.is_empty() && scratch.events.is_empty());
        assert!(scratch.undo_states.is_empty());
    }

    #[test]
    fn incomplete_or_contradicting_candidates_are_rejected_cheaply() {
        let spec = open_spec();
        let (ck, grounding) = capture_spec(&spec);
        let mut scratch = CheckScratch::new();
        let incomplete =
            TargetTuple::from_values(vec![Value::Int(27), Value::text("Chicago"), Value::Null]);
        let verdict = ck.resume_check(&spec.rules, &grounding, &incomplete, &mut scratch);
        assert!(!verdict.accepted);
        assert_eq!(verdict.steps_replayed, 0);
        // disagreeing with the deduced rnds value
        let contradicting = TargetTuple::from_values(vec![
            Value::Int(16),
            Value::text("Chicago"),
            Value::text("United Center"),
        ]);
        let verdict = ck.resume_check(&spec.rules, &grounding, &contradicting, &mut scratch);
        assert!(!verdict.accepted);
        assert_eq!(verdict.steps_replayed, 0);
    }

    #[test]
    fn one_scratch_serves_interleaved_checkpoints() {
        let spec_a = open_spec();
        let (ck_a, grounding_a) = capture_spec(&spec_a);
        let schema = Schema::builder("q").attr("x", DataType::Int).build();
        let ie = EntityInstance::from_rows(
            schema.clone(),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        )
        .unwrap();
        let spec_b = Specification::new(ie, RuleSet::new());
        let (ck_b, grounding_b) = capture_spec(&spec_b);

        let mut scratch = CheckScratch::new();
        let cand_a = TargetTuple::from_values(vec![
            Value::Int(27),
            Value::text("Chicago Bulls"),
            Value::text("United Center"),
        ]);
        let cand_b = TargetTuple::from_values(vec![Value::Int(2)]);
        // interleave: the scratch rebinds each time the checkpoint changes
        for _ in 0..3 {
            assert!(
                ck_a.resume_check(&spec_a.rules, &grounding_a, &cand_a, &mut scratch)
                    .accepted
            );
            assert!(
                ck_b.resume_check(&spec_b.rules, &grounding_b, &cand_b, &mut scratch)
                    .accepted
            );
        }
    }

    #[test]
    fn phi7_null_class_edges_survive_into_the_checkpoint() {
        // A null in an open column: the base run's ϕ7 edge (null below the
        // other classes) is part of the checkpoint; seeding the candidate
        // value must still accept.
        let schema = Schema::builder("r")
            .attr("a", DataType::Int)
            .attr("b", DataType::Text)
            .build();
        let ie = EntityInstance::from_rows(
            schema.clone(),
            vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::text("x")],
                vec![Value::Int(2), Value::text("y")],
            ],
        )
        .unwrap();
        let rules = RuleSet::from_rules([TupleRule::new(
            "cur",
            vec![Predicate::cmp_attrs(AttrId(0), CmpOp::Lt)],
            AttrId(0),
        )]);
        let spec = Specification::new(ie, rules);
        let (ck, grounding) = capture_spec(&spec);
        let null_class = ck.orders().attr(AttrId(1)).null_class().unwrap();
        assert!(ck
            .orders()
            .attr(AttrId(1))
            .class_le(null_class, ck.orders().attr(AttrId(1)).class_of(TupleId(1))));
        let mut scratch = CheckScratch::new();
        for v in ["x", "y"] {
            let candidate = TargetTuple::from_values(vec![Value::Int(2), Value::text(v)]);
            let resumed = ck.resume_check(&spec.rules, &grounding, &candidate, &mut scratch);
            assert_eq!(
                resumed.accepted,
                full_check(&spec, &grounding, &candidate),
                "value {v}"
            );
        }
    }
}
