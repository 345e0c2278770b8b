//! The chase inference system: specifications, grounding, the index `H`, the
//! `IsCR` algorithm, the compile-once [`ChasePlan`], the checkpoint/resume
//! layer for candidate checks ([`ChaseCheckpoint`]) and the free-order chase
//! used as a testing oracle.

pub mod checkpoint;
pub mod free;
pub mod ground;
pub mod index;
pub mod iscr;
pub mod plan;
pub mod spec;

pub use checkpoint::{
    ChaseCheckpoint, CheckScratch, CheckpointOutcome, CheckpointRun, ResumeCheck,
};
pub use free::{free_chase, free_chase_with_grounding, SplitMix64};
pub use ground::{ground, origin_name, GroundStep, Grounding, PendingPred, StepAction, StepOrigin};
pub use index::ChaseIndex;
pub use iscr::{
    chase_with_grounding, deduced_target, is_cr, naive_chase_with_grounding, naive_is_cr, ChaseRun,
    ChaseStats, Conflict, IsCrOutcome,
};
pub use plan::{
    ChasePlan, ChaseScratch, GroundedMasterDelta, MasterUpdate, PlanDeltaError, PlanStamp,
};
pub use spec::{AccuracyInstance, Specification, SpecificationError};
