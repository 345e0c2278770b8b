//! # relacc-engine
//!
//! The **compile-once / evaluate-many** execution layer of the `relacc`
//! workspace, which reproduces *"Determining the Relative Accuracy of
//! Attributes"* (Cao, Fan, Yu — SIGMOD 2013).
//!
//! The paper's algorithms are defined per entity instance; a real corpus (the
//! Med / CFP / Rest workloads of Section 7, or a whole dirty relation) runs
//! them over thousands of entities that all share one rule set `Σ` and one
//! master relation `Im`.  This crate separates the two phases, following the
//! once-per-program / per-instance split familiar from Datalog engines:
//!
//! * **compile** — [`relacc_core::chase::ChasePlan`] validates the rules,
//!   interns all master-data and rule-constant strings, and pre-grounds the
//!   form-(2) rules, once per workload;
//! * **evaluate** — [`BatchEngine::run`] fans the entities out over a scoped
//!   worker pool (one [`relacc_core::chase::ChaseScratch`] per worker, so the
//!   grounding buffer, dedup set and event index are reused across entities),
//!   runs `IsCR` per entity, optionally completes open targets from a top-k
//!   suggestion search reusing the entity's grounding, and aggregates
//!   [`relacc_core::ChaseStats`].
//!
//! Entry points:
//!
//! * [`BatchEngine::run`] — evaluate a slice of pre-resolved
//!   [`relacc_model::EntityInstance`]s;
//! * [`BatchEngine::repair_relation`] — resolve a dirty
//!   [`relacc_store::Relation`] into entities (blocking + matching from
//!   `relacc-resolve`) and repair every entity;
//! * [`IncrementalEngine`] — keep a repaired snapshot live under a stream of
//!   typed [`relacc_store::UpdateBatch`]es and master-data appends,
//!   re-repairing only the dirty entities of each update ("one workload,
//!   many versions"); dirty blocks are resolved and chased block-parallel
//!   over the one worker pool;
//! * [`EntitySession`] — ground-once state for the interactive framework
//!   (`relacc_framework::run_session` opens one per session and reuses its
//!   `Γ` across user rounds);
//! * [`EpochHub`] / [`Epoch`] — the concurrent read path: every mutation of
//!   the incremental engine publishes an immutable epoch (pinned row set +
//!   block map), so readers get O(block) point reads
//!   ([`Epoch::repaired_row`], [`Epoch::entity_result`]) and snapshot
//!   deltas ([`EpochHub::changes_since`]) without ever blocking the writer.
//!   The `relacc-serve` crate wraps this into a serving API with change
//!   feeds.
//!
//! The parallel batch output is deterministic: results come back in input
//! order and are bit-identical to a sequential `is_cr` loop over the same
//! entities (property-tested in `tests/engine_batch.rs` at the workspace
//! root).
//!
//! ```
//! use relacc_engine::BatchEngine;
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
//! let engine = BatchEngine::new(schema.clone(), rules, vec![]).unwrap();
//! let entities: Vec<EntityInstance> = (0..100)
//!     .map(|e| {
//!         EntityInstance::from_rows(
//!             schema.clone(),
//!             vec![
//!                 vec![Value::Int(e), Value::Int(10)],
//!                 vec![Value::Int(e + 1), Value::Int(20)],
//!             ],
//!         )
//!         .unwrap()
//!     })
//!     .collect();
//! let report = engine.run_owned(entities);
//! assert_eq!(report.entities.len(), 100);
//! assert_eq!(report.complete + report.suggested + report.needs_user, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod epoch;
pub mod incremental;
pub mod pool;
pub mod session;

pub use batch::{
    BatchEngine, BatchReport, EngineConfig, EntityOutcome, EntityResult, RelationRepair, RepairSkip,
};
pub use epoch::{
    assemble_views, BlockChange, BlockView, EntityView, Epoch, EpochError, EpochHub, EpochId,
    SnapshotDelta,
};
pub use incremental::{IncrementalEngine, IncrementalError, IncrementalStats, UpdateOutcome};
pub use pool::par_map_with;
pub use session::EntitySession;
