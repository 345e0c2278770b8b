//! # relacc-store
//!
//! A lightweight in-memory relational store: the substrate that holds the
//! workloads of the paper's experiments before they are turned into entity
//! instances and master relations.
//!
//! * [`Relation`] — typed rows over a [`relacc_model::Schema`] with selection,
//!   projection, group-by, entity splitting and conversion helpers;
//! * [`csv`] — CSV serialization (writer/reader are exact inverses);
//! * [`versioned`] — relations with stable row ids and per-tuple generation
//!   stamps, plus the typed [`UpdateBatch`] the incremental-repair pipeline
//!   consumes.  Rows live in `Arc`-shared pages: a batch copies only the
//!   pages it touches, and only while a [`RelationEpoch`] pins them, so an
//!   epoch's rows never change underneath it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod relation;
pub mod versioned;

pub use csv::{from_csv, to_csv, CsvError};
pub use relation::{relation_of, ProjectError, Relation};
pub use versioned::{
    AppliedUpdate, Generation, RelationEpoch, RowId, RowIter, Rows, UpdateBatch, UpdateError,
    VersionedRelation, VersionedRow, PAGE_ROWS,
};
