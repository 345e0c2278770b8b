//! Algorithm `IsCR` (Fig. 4 of the paper): decide whether a specification is
//! Church-Rosser and, if so, compute its unique terminal instance.
//!
//! The implementation follows the paper:
//!
//! 1. `Instantiation` (grounding, [`mod@crate::chase::ground`]) turns `Σ` into a
//!    set `Γ` of potential single chase steps;
//! 2. the index `H` ([`crate::chase::index::ChaseIndex`]) tracks, per step, how
//!    many of its premises are still unsatisfied, and queues steps that become
//!    applicable;
//! 3. the main loop pops applicable steps and enforces them on the accuracy
//!    instance.  A popped step that turns out to be *invalid* — it would relate
//!    two classes with different values in both directions, or overwrite an
//!    already-defined target value with a different one — shows there is no
//!    stable terminal chasing sequence, so the specification is **not**
//!    Church-Rosser (Theorem 2) and the algorithm stops with a
//!    [`Conflict`] report.
//!
//! The built-in axioms are enforced structurally: ϕ9 by the value-class
//! representation of the orders, ϕ7 by seeding the null class below every other
//! class of its attribute, and ϕ8 by raising the class of a newly defined
//! target value above every other class of that attribute.
//!
//! All chase variants — the indexed `IsCR`, the index-free [`naive_is_cr`]
//! used by the ablation benchmark, the seeded free-order chase of
//! [`crate::chase::free`] and the resumed candidate check of
//! [`crate::chase::checkpoint`] — enforce steps through one `Chaser` loop,
//! parameterized by a `StepScheduler` that decides which applicable step
//! fires next.

use super::ground::{origin_name, GroundStep, Grounding, PendingPred, StepAction, StepOrigin};
use super::index::ChaseIndex;
use super::spec::{AccuracyInstance, Specification};
use crate::rules::RuleSet;
use relacc_model::{
    AccuracyOrders, AttrId, ClassId, EntityInstance, OrderInsert, TargetTuple, Value,
};
use std::fmt;

/// Counters describing one chase run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// `|Γ|`: number of ground steps produced by Instantiation.
    pub ground_steps: usize,
    /// Ordered tuple pairs examined during grounding.
    pub pairs_considered: usize,
    /// Steps popped from the ready queue (or scanned as applicable).
    pub steps_considered: usize,
    /// Steps that changed the accuracy instance.
    pub steps_applied: usize,
    /// Steps that were applicable but changed nothing.
    pub noop_steps: usize,
    /// Class pairs added to the orders (after transitive closure).
    pub order_pairs_added: usize,
    /// Target attributes instantiated during the chase.
    pub target_assignments: usize,
    /// Candidate checks that re-ran the chase from scratch.
    pub full_checks: usize,
    /// Candidate checks answered by a checkpointed delta replay
    /// ([`crate::chase::checkpoint`]).
    pub delta_checks: usize,
    /// Ground steps replayed across all delta checks (the `O(|affected|)`
    /// work that replaces a full `O(|Γ|)` re-chase per candidate).
    pub delta_steps_replayed: usize,
}

impl ChaseStats {
    /// Accumulate another run's counters (used by batch reports).
    pub fn merge(&mut self, other: &ChaseStats) {
        self.ground_steps += other.ground_steps;
        self.pairs_considered += other.pairs_considered;
        self.steps_considered += other.steps_considered;
        self.steps_applied += other.steps_applied;
        self.noop_steps += other.noop_steps;
        self.order_pairs_added += other.order_pairs_added;
        self.target_assignments += other.target_assignments;
        self.full_checks += other.full_checks;
        self.delta_checks += other.delta_checks;
        self.delta_steps_replayed += other.delta_steps_replayed;
    }
}

/// Why a specification is not Church-Rosser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Name of the rule (or axiom) whose step was invalid.
    pub rule: String,
    /// The attribute on which the conflict arose.
    pub attr: AttrId,
    /// Human-readable description of the violated validity condition.
    pub detail: String,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule {} on {}: {}", self.rule, self.attr, self.detail)
    }
}

/// The verdict of `IsCR`.
#[derive(Debug, Clone)]
pub enum IsCrOutcome {
    /// The specification is Church-Rosser; the unique terminal instance is
    /// attached.
    ChurchRosser(AccuracyInstance),
    /// The specification is not Church-Rosser (the paper's `nil`), with the
    /// conflict that proves it.
    NotChurchRosser(Conflict),
}

impl IsCrOutcome {
    /// True if the specification was found Church-Rosser.
    pub fn is_church_rosser(&self) -> bool {
        matches!(self, IsCrOutcome::ChurchRosser(_))
    }

    /// The terminal instance, if Church-Rosser.
    pub fn instance(&self) -> Option<&AccuracyInstance> {
        match self {
            IsCrOutcome::ChurchRosser(i) => Some(i),
            IsCrOutcome::NotChurchRosser(_) => None,
        }
    }

    /// The deduced target tuple, if Church-Rosser.
    pub fn target(&self) -> Option<&TargetTuple> {
        self.instance().map(|i| &i.target)
    }

    /// The conflict report, if not Church-Rosser.
    pub fn conflict(&self) -> Option<&Conflict> {
        match self {
            IsCrOutcome::ChurchRosser(_) => None,
            IsCrOutcome::NotChurchRosser(c) => Some(c),
        }
    }
}

/// The result of a chase run: verdict plus statistics.
#[derive(Debug, Clone)]
pub struct ChaseRun {
    /// Church-Rosser verdict and terminal instance.
    pub outcome: IsCrOutcome,
    /// Run counters.
    pub stats: ChaseStats,
}

/// Events emitted while enforcing a step; the indexed schedulers feed them
/// back into the index (the rescanning schedulers ignore them).
#[derive(Debug)]
pub(crate) enum ChaseEvent {
    Order(AttrId, ClassId, ClassId),
    Target(AttrId, Value),
}

/// The order pairs and target attributes a [`Chaser`] added, oldest first,
/// so that a resumed candidate check can be rolled back to its checkpoint.
#[derive(Debug, Default)]
pub(crate) struct UndoLog {
    orders: Vec<(AttrId, ClassId, ClassId)>,
    targets: Vec<AttrId>,
}

impl UndoLog {
    /// Retract everything logged, newest first, leaving the log empty.
    pub(crate) fn rollback(&mut self, orders: &mut AccuracyOrders, target: &mut TargetTuple) {
        for (attr, lo, hi) in self.orders.drain(..).rev() {
            orders.attr_mut(attr).retract_class_le(lo, hi);
        }
        for attr in self.targets.drain(..).rev() {
            target.set(attr, Value::Null);
        }
    }
}

/// The one step enforcer: every chase runs through it, under any scheduler,
/// and so does the resumed candidate check of [`crate::chase::checkpoint`].
///
/// A chaser borrows the accuracy instance it mutates, the event buffer its
/// scheduler drains and, for resumed checks only, an undo log.  It borrows
/// the rule set directly (not a [`Specification`]), so the compile-once
/// pipeline can run chases without materializing a specification per entity.
pub(crate) struct Chaser<'a> {
    rules: &'a RuleSet,
    orders: &'a mut AccuracyOrders,
    target: &'a mut TargetTuple,
    events: &'a mut Vec<ChaseEvent>,
    undo: Option<&'a mut UndoLog>,
    pub(crate) stats: ChaseStats,
}

impl<'a> Chaser<'a> {
    pub(crate) fn new(
        rules: &'a RuleSet,
        orders: &'a mut AccuracyOrders,
        target: &'a mut TargetTuple,
        events: &'a mut Vec<ChaseEvent>,
        undo: Option<&'a mut UndoLog>,
    ) -> Self {
        Chaser {
            rules,
            orders,
            target,
            events,
            undo,
            stats: ChaseStats::default(),
        }
    }

    fn conflict(&self, origin: StepOrigin, attr: AttrId, detail: impl Into<String>) -> Conflict {
        Conflict {
            rule: origin_name(self.rules, origin),
            attr,
            detail: detail.into(),
        }
    }

    /// Seed the axioms and the initial target: ϕ7 edges, plus ϕ8 edges and
    /// target events for every attribute the initial template already defines.
    fn bootstrap(&mut self, ie: &EntityInstance) -> Result<(), Conflict> {
        if self.rules.axioms.null_lowest {
            for attr in ie.schema().attr_ids() {
                let (null_class, others) = {
                    let ord = self.orders.attr(attr);
                    let Some(nc) = ord.null_class() else { continue };
                    let others: Vec<ClassId> = (0..ord.num_classes())
                        .map(ClassId)
                        .filter(|c| *c != nc)
                        .collect();
                    (nc, others)
                };
                for c in others {
                    self.insert_order(StepOrigin::AxiomNullLowest, attr, null_class, c)?;
                }
            }
        }
        for attr in ie.schema().attr_ids() {
            if !self.target.is_null(attr) {
                self.announce_target(attr)?;
            }
        }
        // ϕ9's visible effect under the value-class representation: when an
        // attribute's non-null values all fall into one class (and any null
        // class has just been placed below it by ϕ7), that class dominates the
        // attribute, so λ instantiates the target right away — exactly what
        // enforcing ϕ9 on the equal-valued tuple pairs achieves in the paper's
        // tuple-level formulation.
        if self.rules.axioms.equal_values {
            for attr in ie.schema().attr_ids() {
                let greatest = self.orders.attr(attr).greatest().map(|(_, v)| v.clone());
                if let Some(v) = greatest {
                    if self.target.is_null(attr) {
                        self.set_target(StepOrigin::AxiomEqualValues, attr, &v)?;
                    } else if !self.target.value(attr).same(&v) {
                        return Err(self.conflict(
                            StepOrigin::AxiomEqualValues,
                            attr,
                            format!(
                                "the single observed value {v} disagrees with the initial \
                                 target value {}",
                                self.target.value(attr)
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Enforce `lo ⪯ hi` on `attr`, maintaining λ (the target update of a
    /// single chase step) and the ϕ8 axiom.
    fn insert_order(
        &mut self,
        origin: StepOrigin,
        attr: AttrId,
        lo: ClassId,
        hi: ClassId,
    ) -> Result<bool, Conflict> {
        match self.orders.attr_mut(attr).insert_class_le(lo, hi) {
            OrderInsert::Conflict => Err(self.conflict(
                origin,
                attr,
                format!(
                    "inserting {lo} ⪯ {hi} would relate two different values in both directions"
                ),
            )),
            OrderInsert::NoChange => Ok(false),
            OrderInsert::Added(pairs) => {
                self.stats.order_pairs_added += pairs.len();
                for &(a, b) in &pairs {
                    self.events.push(ChaseEvent::Order(attr, a, b));
                }
                if let Some(undo) = self.undo.as_deref_mut() {
                    undo.orders.extend(pairs.iter().map(|&(a, b)| (attr, a, b)));
                }
                // λ: if a greatest value emerged, instantiate the target.
                let greatest = self.orders.attr(attr).greatest().map(|(_, v)| v.clone());
                if let Some(v) = greatest {
                    if self.target.is_null(attr) {
                        self.set_target(origin, attr, &v)?;
                    } else if !self.target.value(attr).same(&v) {
                        return Err(self.conflict(
                            origin,
                            attr,
                            format!(
                                "the most accurate value {v} disagrees with the already \
                                 deduced target value {}",
                                self.target.value(attr)
                            ),
                        ));
                    }
                }
                Ok(true)
            }
        }
    }

    /// Instantiate `te[attr] := value` (validity condition (b): a non-null
    /// target value may never change).
    pub(crate) fn set_target(
        &mut self,
        origin: StepOrigin,
        attr: AttrId,
        value: &Value,
    ) -> Result<bool, Conflict> {
        if self.target.is_null(attr) {
            self.target.set(attr, value.clone());
            self.stats.target_assignments += 1;
            if let Some(undo) = self.undo.as_deref_mut() {
                undo.targets.push(attr);
            }
            self.announce_target(attr)?;
            Ok(true)
        } else if self.target.value(attr).same(value) {
            Ok(false)
        } else {
            Err(self.conflict(
                origin,
                attr,
                format!(
                    "assignment {value} conflicts with the already deduced target value {}",
                    self.target.value(attr)
                ),
            ))
        }
    }

    /// Emit the target event for `attr` and enforce the ϕ8 axiom: the class of
    /// the target value dominates every other class of the attribute.
    fn announce_target(&mut self, attr: AttrId) -> Result<(), Conflict> {
        let value = self.target.value(attr).clone();
        self.events.push(ChaseEvent::Target(attr, value.clone()));
        if self.rules.axioms.target_highest {
            let (target_class, others) = {
                let ord = self.orders.attr(attr);
                match ord.class_of_value(&value) {
                    Some(tc) => {
                        let others: Vec<ClassId> = (0..ord.num_classes())
                            .map(ClassId)
                            .filter(|c| *c != tc)
                            .collect();
                        (tc, others)
                    }
                    None => return Ok(()),
                }
            };
            for c in others {
                self.insert_order(StepOrigin::AxiomTargetHighest, attr, c, target_class)?;
            }
        }
        Ok(())
    }

    /// Enforce one ground step; returns whether it changed the instance.
    fn apply(&mut self, origin: StepOrigin, action: &StepAction) -> Result<bool, Conflict> {
        match action {
            StepAction::Order { attr, lo, hi } => self.insert_order(origin, *attr, *lo, *hi),
            StepAction::Assign { assignments } => {
                let mut changed = false;
                for (attr, value) in assignments {
                    changed |= self.set_target(origin, *attr, value)?;
                }
                Ok(changed)
            }
        }
    }

    /// Enforce the scheduler's steps until none is left (`Ok`) or one is
    /// invalid (`Err`: no stable terminal chasing sequence exists).
    pub(crate) fn run<S: StepScheduler>(
        &mut self,
        steps: &[GroundStep],
        scheduler: &mut S,
    ) -> Result<(), Conflict> {
        scheduler.begin(self, steps);
        while let Some(id) = scheduler.next_step(self, steps) {
            self.stats.steps_considered += 1;
            let step = &steps[id];
            if self.apply(step.origin, &step.action)? {
                self.stats.steps_applied += 1;
            } else {
                self.stats.noop_steps += 1;
            }
        }
        Ok(())
    }

    /// The events emitted since the last call, oldest first.
    pub(crate) fn take_events(&mut self) -> std::vec::Drain<'_, ChaseEvent> {
        self.events.drain(..)
    }

    fn discard_events(&mut self) {
        self.events.clear();
    }

    /// Current orders (used by the rescanning schedulers to evaluate premises).
    fn orders(&self) -> &AccuracyOrders {
        self.orders
    }

    /// Current target template.
    fn target(&self) -> &TargetTuple {
        self.target
    }
}

/// Strategy choosing which applicable ground step fires next.
///
/// This is the only difference between the indexed `IsCR` chase, the naive
/// rescanning chase, the seeded free-order chase and the resumed candidate
/// check; the enforcement loop, validity checks and statistics are shared by
/// [`Chaser::run`].
pub(crate) trait StepScheduler {
    /// Called once the initial template is seeded (the axioms of a full
    /// chase, the candidate of a resumed check), before the first step.
    fn begin(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]);
    /// Produce the next step to enforce, or `None` when no applicable,
    /// unfired step remains.
    fn next_step(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) -> Option<usize>;
}

/// The shared chase loop: bootstrap the axioms, then repeatedly enforce the
/// scheduler's next step until none remains or a step turns out invalid.
pub(crate) fn run_chase<S: StepScheduler>(
    ie: &EntityInstance,
    rules: &RuleSet,
    grounding: &Grounding,
    initial_target: &TargetTuple,
    scheduler: &mut S,
) -> ChaseRun {
    run_chase_with_orders(
        ie,
        rules,
        AccuracyOrders::new(ie),
        grounding,
        initial_target,
        scheduler,
    )
}

/// [`run_chase`] over pre-built (still empty) accuracy orders.
pub(crate) fn run_chase_with_orders<S: StepScheduler>(
    ie: &EntityInstance,
    rules: &RuleSet,
    orders: AccuracyOrders,
    grounding: &Grounding,
    initial_target: &TargetTuple,
    scheduler: &mut S,
) -> ChaseRun {
    let mut instance = AccuracyInstance {
        orders,
        target: initial_target.clone(),
    };
    let mut events = Vec::new();
    let mut chaser = Chaser::new(
        rules,
        &mut instance.orders,
        &mut instance.target,
        &mut events,
        None,
    );
    chaser.stats.ground_steps = grounding.steps.len();
    chaser.stats.pairs_considered = grounding.pairs_considered;
    let verdict = chaser
        .bootstrap(ie)
        .and_then(|()| chaser.run(&grounding.steps, scheduler));
    let stats = chaser.stats;
    let outcome = match verdict {
        Ok(()) => IsCrOutcome::ChurchRosser(instance),
        Err(conflict) => IsCrOutcome::NotChurchRosser(conflict),
    };
    ChaseRun { outcome, stats }
}

/// The event-driven scheduler of algorithm `IsCR`: O(1) work per event via the
/// index `H`.  Borrows the index so a batch can reuse its allocations across
/// entities (see [`crate::chase::ChaseScratch`]).
pub(crate) struct IndexedScheduler<'i> {
    pub(crate) index: &'i mut ChaseIndex,
}

impl IndexedScheduler<'_> {
    fn drain(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) {
        for event in chaser.take_events() {
            match event {
                ChaseEvent::Order(attr, lo, hi) => self.index.on_order_added(attr, lo, hi),
                ChaseEvent::Target(attr, value) => self.index.on_target_set(steps, attr, &value),
            }
        }
    }
}

impl StepScheduler for IndexedScheduler<'_> {
    fn begin(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) {
        self.index.reset(steps);
        self.drain(chaser, steps);
    }

    fn next_step(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) -> Option<usize> {
        self.drain(chaser, steps);
        self.index.pop_ready()
    }
}

/// The naive scheduler: rescan `Γ` (wrapping around) for the next applicable
/// unfired step.  Quadratically slower than the index; kept for the ablation
/// benchmark and as an oracle in tests.
struct RescanScheduler {
    fired: Vec<bool>,
    cursor: usize,
}

impl StepScheduler for RescanScheduler {
    fn begin(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) {
        chaser.discard_events();
        self.fired = vec![false; steps.len()];
        self.cursor = 0;
    }

    fn next_step(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) -> Option<usize> {
        chaser.discard_events();
        let n = steps.len();
        for offset in 0..n {
            let id = (self.cursor + offset) % n;
            if self.fired[id] {
                continue;
            }
            if steps[id]
                .pending
                .iter()
                .all(|p| pending_satisfied(p, chaser.orders(), chaser.target()))
            {
                self.fired[id] = true;
                self.cursor = id + 1;
                return Some(id);
            }
        }
        None
    }
}

/// The seeded free-order scheduler: pick uniformly among all currently
/// applicable unfired steps.  Used by [`crate::chase::free_chase`] as the
/// brute-force Church-Rosser oracle.
pub(crate) struct SeededScheduler {
    pub(crate) rng: super::free::SplitMix64,
    fired: Vec<bool>,
}

impl SeededScheduler {
    pub(crate) fn new(seed: u64) -> Self {
        SeededScheduler {
            rng: super::free::SplitMix64::new(seed),
            fired: Vec::new(),
        }
    }
}

impl StepScheduler for SeededScheduler {
    fn begin(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) {
        chaser.discard_events();
        self.fired = vec![false; steps.len()];
    }

    fn next_step(&mut self, chaser: &mut Chaser<'_>, steps: &[GroundStep]) -> Option<usize> {
        chaser.discard_events();
        let applicable: Vec<usize> = steps
            .iter()
            .enumerate()
            .filter(|(id, step)| {
                !self.fired[*id]
                    && step
                        .pending
                        .iter()
                        .all(|p| pending_satisfied(p, chaser.orders(), chaser.target()))
            })
            .map(|(id, _)| id)
            .collect();
        if applicable.is_empty() {
            return None;
        }
        let pick = applicable[self.rng.next_below(applicable.len())];
        self.fired[pick] = true;
        Some(pick)
    }
}

/// Run `IsCR` on a specification: ground it and chase with the index.
pub fn is_cr(spec: &Specification) -> ChaseRun {
    let orders = AccuracyOrders::new(&spec.ie);
    let grounding = super::ground::ground(spec, &orders);
    chase_with_grounding(spec, &grounding, &spec.initial_target)
}

/// Convenience: the deduced target tuple of a Church-Rosser specification.
pub fn deduced_target(spec: &Specification) -> Option<TargetTuple> {
    match is_cr(spec).outcome {
        IsCrOutcome::ChurchRosser(instance) => Some(instance.target),
        IsCrOutcome::NotChurchRosser(_) => None,
    }
}

/// Run the chase over a pre-computed grounding with an explicit initial target
/// template.
///
/// This is the entry point used by the candidate-target `check` of the top-k
/// algorithms: `Γ` does not depend on the initial target, so it is grounded
/// once and reused for every candidate.
pub fn chase_with_grounding(
    spec: &Specification,
    grounding: &Grounding,
    initial_target: &TargetTuple,
) -> ChaseRun {
    chase_parts(&spec.ie, &spec.rules, None, grounding, initial_target, None)
}

/// The specification-free chase used by [`crate::chase::ChasePlan`]: entity
/// instance and rules are borrowed directly, an optional pre-allocated index
/// is reused instead of building a fresh one, and pre-built (empty) orders
/// can be handed over instead of being rebuilt.
pub(crate) fn chase_parts(
    ie: &EntityInstance,
    rules: &RuleSet,
    orders: Option<AccuracyOrders>,
    grounding: &Grounding,
    initial_target: &TargetTuple,
    index: Option<&mut ChaseIndex>,
) -> ChaseRun {
    let orders = orders.unwrap_or_else(|| AccuracyOrders::new(ie));
    match index {
        Some(index) => {
            let mut scheduler = IndexedScheduler { index };
            run_chase_with_orders(ie, rules, orders, grounding, initial_target, &mut scheduler)
        }
        None => {
            let mut fresh = ChaseIndex::default();
            let mut scheduler = IndexedScheduler { index: &mut fresh };
            run_chase_with_orders(ie, rules, orders, grounding, initial_target, &mut scheduler)
        }
    }
}

/// `IsCR` without the index: repeatedly rescan `Γ`, applying every applicable
/// step, until a full pass changes nothing.  Semantically equivalent to
/// [`is_cr`]; quadratically slower.  Used by the ablation benchmark
/// (`bench/benches/ablation_index.rs`) and as a cross-check in tests.
pub fn naive_is_cr(spec: &Specification) -> ChaseRun {
    let orders = AccuracyOrders::new(&spec.ie);
    let grounding = super::ground::ground(spec, &orders);
    naive_chase_with_grounding(spec, &grounding, &spec.initial_target)
}

/// The naive scheduler over a pre-computed grounding.
pub fn naive_chase_with_grounding(
    spec: &Specification,
    grounding: &Grounding,
    initial_target: &TargetTuple,
) -> ChaseRun {
    let mut scheduler = RescanScheduler {
        fired: Vec::new(),
        cursor: 0,
    };
    run_chase(
        &spec.ie,
        &spec.rules,
        grounding,
        initial_target,
        &mut scheduler,
    )
}

/// Evaluate a pending predicate against the current accuracy instance (used by
/// the rescanning schedulers, which have no event index).
pub(crate) fn pending_satisfied(
    pred: &PendingPred,
    orders: &AccuracyOrders,
    target: &TargetTuple,
) -> bool {
    match pred {
        PendingPred::Order { attr, lo, hi } => orders.attr(*attr).class_le(*lo, *hi),
        PendingPred::TargetCmp { attr, op, rhs } => {
            let v = target.value(*attr);
            !v.is_null() && v.eval(*op, rhs).unwrap_or(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ground::ground;
    use crate::rules::{MasterPremise, MasterRule, Predicate, RuleSet, TupleRule};
    use relacc_model::{CmpOp, DataType, EntityInstance, MasterRelation, Schema, TupleId};

    /// A small two-attribute instance: `rnds` is numeric with distinct values,
    /// `flag` is text with a null.
    fn simple_spec(rules: RuleSet) -> Specification {
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("flag", DataType::Text)
            .build();
        let ie = EntityInstance::from_rows(
            schema,
            vec![
                vec![Value::Int(16), Value::Null],
                vec![Value::Int(27), Value::text("x")],
                vec![Value::Int(1), Value::text("y")],
            ],
        )
        .unwrap();
        Specification::new(ie, rules)
    }

    fn currency_rule(spec_schema: &relacc_model::SchemaRef) -> TupleRule {
        TupleRule::new(
            "phi1",
            vec![Predicate::cmp_attrs(
                spec_schema.expect_attr("rnds"),
                CmpOp::Lt,
            )],
            spec_schema.expect_attr("rnds"),
        )
    }

    #[test]
    fn currency_rule_deduces_max_value() {
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("flag", DataType::Text)
            .build();
        let rules = RuleSet::from_rules([currency_rule(&schema)]);
        let spec = simple_spec(rules);
        let run = is_cr(&spec);
        assert!(run.outcome.is_church_rosser());
        let te = run.outcome.target().unwrap();
        assert_eq!(te.value(AttrId(0)), &Value::Int(27));
        // flag cannot be fully resolved: x and y are incomparable
        assert!(te.is_null(AttrId(1)));
        assert!(run.stats.steps_applied > 0);
        assert!(run.stats.ground_steps > 0);
    }

    #[test]
    fn phi7_axiom_orders_null_below_everything() {
        // No explicit rules at all: the null flag value must still end up below
        // x and y, but x vs y stays undecided, so te[flag] remains null.
        let spec = simple_spec(RuleSet::new());
        let run = is_cr(&spec);
        assert!(run.outcome.is_church_rosser());
        let instance = run.outcome.instance().unwrap();
        let flag = AttrId(1);
        let ord = instance.orders.attr(flag);
        let nc = ord.null_class().unwrap();
        assert!(ord.holds_lt(TupleId(0), TupleId(1)));
        assert!(ord.holds_lt(TupleId(0), TupleId(2)));
        assert_eq!(ord.class_of(TupleId(0)), nc);
        assert!(instance.target.is_null(flag));
    }

    #[test]
    fn phi8_axiom_raises_assigned_target_value() {
        // A master rule assigns flag = "x"; ϕ8 must then order y ⪯ x and the
        // instance becomes complete.
        let master_schema = Schema::builder("m").attr("flag", DataType::Text).build();
        let im = MasterRelation::from_rows(master_schema, vec![vec![Value::text("x")]]).unwrap();
        let rules = RuleSet::from_rules([AccuracyRuleHelper::master(
            "m1",
            vec![],
            vec![(AttrId(1), AttrId(0))],
        )]);
        let spec = simple_spec(rules).with_master(im);
        let run = is_cr(&spec);
        assert!(run.outcome.is_church_rosser());
        let instance = run.outcome.instance().unwrap();
        assert_eq!(instance.target.value(AttrId(1)), &Value::text("x"));
        let ord = instance.orders.attr(AttrId(1));
        assert!(ord.holds_lt(TupleId(2), TupleId(1))); // y ≺ x
    }

    // small helper so the test above reads naturally
    struct AccuracyRuleHelper;
    impl AccuracyRuleHelper {
        fn master(
            name: &str,
            premises: Vec<MasterPremise>,
            assignments: Vec<(AttrId, AttrId)>,
        ) -> MasterRule {
            MasterRule::new(name, premises, assignments)
        }
    }

    #[test]
    fn conflicting_master_assignments_are_not_church_rosser() {
        let master_schema = Schema::builder("m").attr("flag", DataType::Text).build();
        let im = MasterRelation::from_rows(
            master_schema,
            vec![vec![Value::text("x")], vec![Value::text("y")]],
        )
        .unwrap();
        let rules =
            RuleSet::from_rules([MasterRule::new("m1", vec![], vec![(AttrId(1), AttrId(0))])]);
        let spec = simple_spec(rules).with_master(im);
        let run = is_cr(&spec);
        assert!(!run.outcome.is_church_rosser());
        let conflict = run.outcome.conflict().unwrap();
        assert_eq!(conflict.attr, AttrId(1));
        assert_eq!(conflict.rule, "m1");
        assert!(run.outcome.target().is_none());
        assert!(!conflict.to_string().is_empty());
    }

    #[test]
    fn conflicting_order_rules_are_not_church_rosser() {
        // Example 6 in miniature: one rule orders by ascending rnds, another by
        // descending rnds — the two chase directions disagree.
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("flag", DataType::Text)
            .build();
        let up = TupleRule::new(
            "up",
            vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Lt)],
            schema.expect_attr("rnds"),
        );
        let down = TupleRule::new(
            "down",
            vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Gt)],
            schema.expect_attr("rnds"),
        );
        let spec = simple_spec(RuleSet::from_rules([up, down]));
        let run = is_cr(&spec);
        assert!(!run.outcome.is_church_rosser());
    }

    #[test]
    fn candidate_check_rejects_targets_contradicting_master_data() {
        let master_schema = Schema::builder("m").attr("flag", DataType::Text).build();
        let im = MasterRelation::from_rows(master_schema, vec![vec![Value::text("x")]]).unwrap();
        let rules =
            RuleSet::from_rules([MasterRule::new("m1", vec![], vec![(AttrId(1), AttrId(0))])]);
        let spec = simple_spec(rules).with_master(im);
        // candidate saying flag = "y" contradicts the master assignment
        let bad = TargetTuple::from_values(vec![Value::Int(27), Value::text("y")]);
        let orders = AccuracyOrders::new(&spec.ie);
        let grounding = ground(&spec, &orders);
        let run = chase_with_grounding(&spec, &grounding, &bad);
        assert!(!run.outcome.is_church_rosser());
        // the agreeing candidate is accepted
        let good = TargetTuple::from_values(vec![Value::Int(27), Value::text("x")]);
        let run = chase_with_grounding(&spec, &grounding, &good);
        assert!(run.outcome.is_church_rosser());
        assert_eq!(run.outcome.target().unwrap(), &good);
    }

    #[test]
    fn naive_chase_agrees_with_indexed_chase() {
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("flag", DataType::Text)
            .build();
        let currency = currency_rule(&schema);
        let correlated = TupleRule::new(
            "phi2",
            vec![Predicate::OrderLt {
                attr: schema.expect_attr("rnds"),
            }],
            schema.expect_attr("flag"),
        );
        // No nulls in `flag` here: a correlated rule promoting a null-valued
        // tuple above a non-null one would (correctly) conflict with ϕ7.
        let ie = EntityInstance::from_rows(
            schema.clone(),
            vec![
                vec![Value::Int(16), Value::text("mj")],
                vec![Value::Int(27), Value::text("x")],
                vec![Value::Int(1), Value::text("mj")],
            ],
        )
        .unwrap();
        let spec = Specification::new(ie, RuleSet::from_rules([currency, correlated]));
        let fast = is_cr(&spec);
        let slow = naive_is_cr(&spec);
        assert!(fast.outcome.is_church_rosser());
        assert!(slow.outcome.is_church_rosser());
        assert_eq!(
            fast.outcome.target().unwrap(),
            slow.outcome.target().unwrap()
        );
        assert_eq!(
            fast.outcome.instance().unwrap().orders.total_edges(),
            slow.outcome.instance().unwrap().orders.total_edges()
        );
        // the correlated rule propagates the rnds winner to flag
        assert_eq!(
            fast.outcome.target().unwrap().value(AttrId(1)),
            &Value::text("x")
        );
    }

    #[test]
    fn deduced_target_helper() {
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("flag", DataType::Text)
            .build();
        let spec = simple_spec(RuleSet::from_rules([currency_rule(&schema)]));
        let te = deduced_target(&spec).unwrap();
        assert_eq!(te.value(AttrId(0)), &Value::Int(27));
    }

    #[test]
    fn chase_terminates_within_quadratic_steps() {
        // Proposition 1: the number of enforced steps is O(|Ie|^2) per attribute.
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("flag", DataType::Text)
            .build();
        let spec = simple_spec(RuleSet::from_rules([currency_rule(&schema)]));
        let run = is_cr(&spec);
        let n = spec.entity_size();
        let arity = spec.ie.schema().arity();
        assert!(run.stats.order_pairs_added <= n * n * arity);
        assert!(run.stats.steps_applied <= run.stats.steps_considered);
    }

    #[test]
    fn stats_merge_accumulates_all_counters() {
        let a = ChaseStats {
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
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.ground_steps, 2);
        assert_eq!(b.pairs_considered, 4);
        assert_eq!(b.steps_considered, 6);
        assert_eq!(b.steps_applied, 8);
        assert_eq!(b.noop_steps, 10);
        assert_eq!(b.order_pairs_added, 12);
        assert_eq!(b.target_assignments, 14);
        assert_eq!(b.full_checks, 16);
        assert_eq!(b.delta_checks, 18);
        assert_eq!(b.delta_steps_replayed, 20);
    }
}
