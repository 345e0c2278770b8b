//! # relacc-resolve
//!
//! Entity resolution for *"Determining the Relative Accuracy of Attributes"*
//! (SIGMOD 2013).
//!
//! The paper's model starts from an **entity instance** `Ie` — a set of tuples
//! already known to describe the same real-world entity, "identified by entity
//! resolution techniques" (Section 2.1).  This crate provides that substrate
//! as a dependency-light layer (it depends only on `relacc-model` and
//! `relacc-store`, never on the chase or the engine, so `relacc-engine` can
//! build on it without a cycle):
//!
//! * [`similarity`] — string similarity measures (normalized Levenshtein,
//!   token Jaccard, exact/null-aware equality) used to compare records;
//! * [`blocking`] — cheap key-based blocking so that resolution never compares
//!   all `O(n²)` record pairs of a large relation;
//! * [`resolve`] — pairwise matching plus union-find clustering that splits a
//!   dirty [`relacc_store::Relation`] into per-entity
//!   [`relacc_model::EntityInstance`]s, and resolves one block again after
//!   an update, comparing only the pairs with a row new to the block;
//! * [`incremental`] — a maintained row → block index that maps an update
//!   batch (inserts/deletes of a versioned relation) to the set of dirty
//!   blocks, the unit of incremental re-resolution and re-repair.
//!
//! ```
//! use relacc_resolve::{resolve_relation, ResolveConfig};
//! use relacc_store::Relation;
//! use relacc_model::{DataType, Schema, Value};
//!
//! let schema = Schema::builder("stat")
//!     .attr("name", DataType::Text)
//!     .attr("rnds", DataType::Int)
//!     .build();
//! let relation = Relation::from_rows(schema, vec![
//!     vec![Value::text("Michael Jordan"), Value::Int(16)],
//!     vec![Value::text("Michael  Jordan"), Value::Int(27)],
//!     vec![Value::text("Scottie Pippen"), Value::Int(27)],
//! ]).unwrap();
//! let resolved = resolve_relation(&relation, &ResolveConfig::on_attrs(vec!["name".into()]));
//! assert_eq!(resolved.entities.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod fingerprint;
pub mod incremental;
pub mod resolve;
pub mod similarity;

pub use blocking::{
    blocking_key, write_blocking_key, write_blocking_key_values, Blocker, BlockingStrategy,
};
pub use fingerprint::{AttrFingerprint, RecordFingerprint};
pub use incremental::{BlockKey, DirtyBlocks, IncrementalBlockingIndex};
pub use resolve::{
    resolve_block, resolve_relation, BlockResolution, BlockWork, DecisionTriangle, MatchDecision,
    PriorBlock, PruneStage, ResolveConfig, ResolveStats, ResolvedEntities,
};
pub use similarity::{
    jaccard_tokens, levenshtein, levenshtein_with, normalized_levenshtein, record_similarity,
    record_similarity_with, SimilarityScratch,
};
