//! The indexing structure `H` of algorithm `IsCR` (Section 5).
//!
//! For every ground step φ the index keeps the counter `n_φ` of pending
//! predicates that are not yet satisfied, and for every possible *event* — an
//! order pair becoming established, or a target attribute becoming defined —
//! the set `Φ_δ` of steps waiting on it.  The queue `Q` holds the steps whose
//! counter has reached zero; `NextStep` is a pop from that queue.  With this
//! structure the chase never rescans the entity instance: each ground step and
//! each pending predicate is touched a constant number of times.

use super::ground::{GroundStep, PendingPred};
use relacc_model::{AttrId, ClassId, Value};
use std::collections::{HashMap, VecDeque};

/// Book-keeping for one ground step.  `Copy` so the checkpoint/resume layer
/// ([`crate::chase::checkpoint`]) can snapshot and undo-log step states
/// cheaply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StepState {
    /// Number of pending predicates not yet satisfied (`n_φ`).
    remaining: usize,
    /// The step can never fire (a target predicate evaluated to false).
    dead: bool,
    /// The step has been pushed to `Q` (it is pushed at most once).  At a
    /// chase fixpoint the queue is empty, so `enqueued` then means *fired*.
    enqueued: bool,
}

impl StepState {
    /// One pending predicate became satisfied.  Returns true when the step
    /// just became applicable and must be pushed to `Q`; a dead or already
    /// queued step is settled and ignores further premises.
    pub(crate) fn satisfy(&mut self) -> bool {
        if self.dead || self.enqueued {
            return false;
        }
        self.remaining -= 1;
        self.enqueued = self.remaining == 0;
        self.enqueued
    }

    /// A target predicate was evaluated now that its attribute is defined:
    /// a true one counts down like [`StepState::satisfy`], a false one kills
    /// the step unless it is already queued (it became applicable before this
    /// predicate could be falsified, so it stays queued).
    pub(crate) fn settle(&mut self, holds: impl FnOnce() -> bool) -> bool {
        if self.dead {
            return false;
        }
        if holds() {
            return self.satisfy();
        }
        if !self.enqueued {
            self.dead = true;
        }
        false
    }
}

/// `NextStep` of the paper: pop the next queued step that is still live
/// (steps marked dead after being queued are skipped).
pub(crate) fn pop_ready(ready: &mut VecDeque<usize>, states: &[StepState]) -> Option<usize> {
    while let Some(id) = ready.pop_front() {
        if !states[id].dead {
            return Some(id);
        }
    }
    None
}

/// The index `H` plus the ready queue `Q`.
///
/// The index does not own the ground steps: it is built over a borrowed slice
/// so that one grounding can drive many chases (the candidate-target `check`
/// reruns the chase with a different initial target but the same `Γ`).
///
/// [`ChaseIndex::reset`] rebuilds the index over a new step slice while
/// keeping all internal allocations, so a batch run touches the allocator a
/// constant number of times per worker instead of once per entity.
#[derive(Debug, Default)]
pub struct ChaseIndex {
    states: Vec<StepState>,
    /// Steps waiting on an order event `(attr, lo, hi)`.
    by_order: HashMap<(AttrId, ClassId, ClassId), Vec<usize>>,
    /// Steps (and the index of the pending predicate) waiting on `te[attr]`.
    by_target: HashMap<AttrId, Vec<(usize, usize)>>,
    /// The ready queue `Q`.
    ready: VecDeque<usize>,
    /// Retired subscriber buckets, recycled by [`ChaseIndex::reset`] so the
    /// per-key `Vec`s are not reallocated for every entity of a batch.
    spare_order: Vec<Vec<usize>>,
    spare_target: Vec<Vec<(usize, usize)>>,
}

impl ChaseIndex {
    /// Build the index for a grounded rule set (`InitIndex` of the paper).
    pub fn new(steps: &[GroundStep]) -> Self {
        let mut index = ChaseIndex::default();
        index.reset(steps);
        index
    }

    /// Rebuild the index over `steps`, reusing the existing allocations
    /// (including the per-key subscriber buckets, which are recycled through
    /// a spare pool).
    pub fn reset(&mut self, steps: &[GroundStep]) {
        self.states.clear();
        self.states.resize(steps.len(), StepState::default());
        for (_, mut bucket) in self.by_order.drain() {
            bucket.clear();
            self.spare_order.push(bucket);
        }
        for (_, mut bucket) in self.by_target.drain() {
            bucket.clear();
            self.spare_target.push(bucket);
        }
        self.ready.clear();
        let mut spare_order = std::mem::take(&mut self.spare_order);
        let mut spare_target = std::mem::take(&mut self.spare_target);
        for (idx, step) in steps.iter().enumerate() {
            self.states[idx].remaining = step.pending.len();
            for (pidx, pred) in step.pending.iter().enumerate() {
                match pred {
                    PendingPred::Order { attr, lo, hi } => {
                        self.by_order
                            .entry((*attr, *lo, *hi))
                            .or_insert_with(|| spare_order.pop().unwrap_or_default())
                            .push(idx);
                    }
                    PendingPred::TargetCmp { attr, .. } => {
                        self.by_target
                            .entry(*attr)
                            .or_insert_with(|| spare_target.pop().unwrap_or_default())
                            .push((idx, pidx));
                    }
                }
            }
            if step.pending.is_empty() {
                self.states[idx].enqueued = true;
                self.ready.push_back(idx);
            }
        }
        self.spare_order = spare_order;
        self.spare_target = spare_target;
    }

    /// Number of ground steps managed by the index.
    pub fn step_count(&self) -> usize {
        self.states.len()
    }

    /// Number of steps marked dead (unsatisfiable).
    pub fn dead_count(&self) -> usize {
        self.states.iter().filter(|s| s.dead).count()
    }

    /// Pop the next ready step (`NextStep` of the paper), skipping steps that
    /// were marked dead after being enqueued.
    pub fn pop_ready(&mut self) -> Option<usize> {
        pop_ready(&mut self.ready, &self.states)
    }

    /// Notify the index that `lo ⪯ hi` now holds on `attr` (a newly related
    /// class pair reported by the orders).
    pub fn on_order_added(&mut self, attr: AttrId, lo: ClassId, hi: ClassId) {
        if let Some(mut waiting) = self.by_order.remove(&(attr, lo, hi)) {
            for id in waiting.drain(..) {
                if self.states[id].satisfy() {
                    self.ready.push_back(id);
                }
            }
            self.spare_order.push(waiting);
        }
    }

    /// Notify the index that `te[attr]` has been instantiated with `value`.
    ///
    /// Waiting target predicates are evaluated: satisfied ones decrement their
    /// step's counter, unsatisfied ones kill the step (the target value can
    /// never change again).  `steps` must be the same slice the index was built
    /// over.
    pub fn on_target_set(&mut self, steps: &[GroundStep], attr: AttrId, value: &Value) {
        if let Some(mut waiting) = self.by_target.remove(&attr) {
            for (id, pidx) in waiting.drain(..) {
                if self.states[id].settle(|| steps[id].pending[pidx].eval_target(value)) {
                    self.ready.push_back(id);
                }
            }
            self.spare_target.push(waiting);
        }
    }

    /// The per-step states (checkpoint support: at a fixpoint these record
    /// which steps fired, died, or still wait with `remaining` unsatisfied
    /// predicates).
    pub(crate) fn states(&self) -> &[StepState] {
        &self.states
    }

    /// Steps still subscribed to the order event `lo ⪯ hi` on `attr`.
    ///
    /// After a chase run, only the subscriptions of events that never fired
    /// survive (fired events consume their bucket) — exactly the set a
    /// checkpointed resume may still have to dispatch.
    pub(crate) fn order_subscribers(&self, attr: AttrId, lo: ClassId, hi: ClassId) -> &[usize] {
        self.by_order
            .get(&(attr, lo, hi))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Steps (with the pending-predicate index) still subscribed to
    /// `te[attr]` becoming defined.  See [`ChaseIndex::order_subscribers`].
    pub(crate) fn target_subscribers(&self, attr: AttrId) -> &[(usize, usize)] {
        self.by_target.get(&attr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of steps still waiting (neither ready, applied nor dead).  Used
    /// by tests and by the chase statistics.
    pub fn waiting_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| !s.enqueued && !s.dead)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ground::{StepAction, StepOrigin};
    use relacc_model::CmpOp;

    fn order_step(attr: usize, lo: usize, hi: usize, pending: Vec<PendingPred>) -> GroundStep {
        GroundStep {
            origin: StepOrigin::Rule(0),
            action: StepAction::Order {
                attr: AttrId(attr),
                lo: ClassId(lo),
                hi: ClassId(hi),
            },
            pending,
        }
    }

    #[test]
    fn ready_queue_starts_with_unconditional_steps() {
        let steps = vec![
            order_step(0, 0, 1, vec![]),
            order_step(
                1,
                0,
                1,
                vec![PendingPred::Order {
                    attr: AttrId(0),
                    lo: ClassId(0),
                    hi: ClassId(1),
                }],
            ),
        ];
        let mut index = ChaseIndex::new(&steps);
        assert_eq!(index.step_count(), 2);
        assert_eq!(index.waiting_count(), 1);
        assert_eq!(index.pop_ready(), Some(0));
        assert_eq!(index.pop_ready(), None);
        index.on_order_added(AttrId(0), ClassId(0), ClassId(1));
        assert_eq!(index.pop_ready(), Some(1));
        assert_eq!(index.pop_ready(), None);
    }

    #[test]
    fn target_events_satisfy_or_kill() {
        let good = GroundStep {
            origin: StepOrigin::Rule(0),
            action: StepAction::Assign {
                assignments: vec![(AttrId(1), Value::Int(1))],
            },
            pending: vec![PendingPred::TargetCmp {
                attr: AttrId(0),
                op: CmpOp::Eq,
                rhs: Value::text("NBA"),
            }],
        };
        let bad = GroundStep {
            origin: StepOrigin::Rule(1),
            action: StepAction::Assign {
                assignments: vec![(AttrId(1), Value::Int(2))],
            },
            pending: vec![PendingPred::TargetCmp {
                attr: AttrId(0),
                op: CmpOp::Eq,
                rhs: Value::text("SL"),
            }],
        };
        let steps = vec![good, bad];
        let mut index = ChaseIndex::new(&steps);
        assert_eq!(index.pop_ready(), None);
        index.on_target_set(&steps, AttrId(0), &Value::text("NBA"));
        assert_eq!(index.dead_count(), 1);
        assert_eq!(index.pop_ready(), Some(0));
        assert_eq!(index.pop_ready(), None);
        assert_eq!(index.waiting_count(), 0);
    }

    #[test]
    fn multiple_pending_predicates_all_required() {
        let step = order_step(
            2,
            0,
            1,
            vec![
                PendingPred::Order {
                    attr: AttrId(0),
                    lo: ClassId(0),
                    hi: ClassId(1),
                },
                PendingPred::TargetCmp {
                    attr: AttrId(1),
                    op: CmpOp::Ne,
                    rhs: Value::Null,
                },
            ],
        );
        let steps = vec![step];
        let mut index = ChaseIndex::new(&steps);
        index.on_order_added(AttrId(0), ClassId(0), ClassId(1));
        assert_eq!(index.pop_ready(), None);
        index.on_target_set(&steps, AttrId(1), &Value::Int(7));
        assert_eq!(index.pop_ready(), Some(0));
    }

    #[test]
    fn duplicate_events_do_not_over_decrement() {
        let step = order_step(
            0,
            2,
            3,
            vec![PendingPred::Order {
                attr: AttrId(0),
                lo: ClassId(0),
                hi: ClassId(1),
            }],
        );
        let steps = vec![step];
        let mut index = ChaseIndex::new(&steps);
        index.on_order_added(AttrId(0), ClassId(0), ClassId(1));
        // a second identical event finds no subscribers (entry consumed)
        index.on_order_added(AttrId(0), ClassId(0), ClassId(1));
        assert_eq!(index.pop_ready(), Some(0));
        assert_eq!(index.pop_ready(), None);
    }
}
