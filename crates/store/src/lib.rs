//! # relacc-store
//!
//! A lightweight in-memory relational store: the substrate that holds the
//! workloads of the paper's experiments before they are turned into entity
//! instances and master relations.
//!
//! * [`Relation`] — typed rows over a [`relacc_model::Schema`] with selection,
//!   projection, group-by, entity splitting and conversion helpers;
//! * [`csv`] — CSV serialization (writer/reader are exact inverses);
//! * [`Catalog`] — a named collection of relations that can be saved to and
//!   loaded from a directory of CSV files;
//! * [`versioned`] — relations with stable row ids and per-tuple generation
//!   stamps, plus the typed [`UpdateBatch`] the incremental-repair pipeline
//!   consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod csv;
pub mod relation;
pub mod versioned;

pub use catalog::{Catalog, CatalogError};
pub use csv::{from_csv, to_csv, CsvError};
pub use relation::{relation_of, ProjectError, Relation};
pub use versioned::{
    AppliedUpdate, Generation, RelationEpoch, RowId, RowIter, Rows, UpdateBatch, UpdateError,
    VersionedCatalog, VersionedRelation, VersionedRow, PAGE_ROWS,
};
