//! # relacc — determining the relative accuracy of attributes
//!
//! A Rust reproduction of Cao, Fan and Yu, *"Determining the Relative Accuracy
//! of Attributes"*, SIGMOD 2013.  Given a set of tuples that describe the same
//! real-world entity, a set of **accuracy rules** and optional **master
//! data**, the library infers which tuple is more accurate on which attribute
//! (strict partial orders `≺_A`), deduces a **target tuple** composed of the
//! most accurate values, decides whether the inference is **Church-Rosser**
//! (order-independent), and — when the target stays incomplete — proposes
//! **top-k candidate targets** under a preference model, optionally in an
//! interactive loop with a user.
//!
//! This crate is a thin facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `relacc-model` | values, schemas, tuples, entity instances, master data, accuracy orders |
//! | [`heap`] | `relacc-heap` | pairing heap and ranked value heaps |
//! | [`store`] | `relacc-store` | in-memory relations, CSV, versioned relations |
//! | [`resolve`] | `relacc-resolve` | entity resolution: similarity, blocking, clustering |
//! | [`core`] | `relacc-core` | accuracy rules, the chase, Church-Rosser checking (IsCR), compile-once chase plans |
//! | [`engine`] | `relacc-engine` | the compile-once / evaluate-many parallel batch engine |
//! | [`serve`] | `relacc-serve` | concurrent serving: generation-pinned reads, snapshot deltas, change feeds |
//! | [`net`] | `relacc-net` | TCP transport: framed wire protocol, `serve_tcp` binary, typed client |
//! | [`topk`] | `relacc-topk` | preference model, RankJoinCT, TopKCT, TopKCTh |
//! | [`framework`] | `relacc-framework` | the interactive deduction framework (Fig. 3) |
//! | [`fusion`] | `relacc-fusion` | voting, DeduceOrder, copyCEF, evaluation metrics |
//! | [`datagen`] | `relacc-datagen` | the paper's running example and the Med/CFP/Rest/Syn workload generators |
//!
//! See the `examples/` directory for runnable end-to-end scenarios, and
//! `DESIGN.md` / `EXPERIMENTS.md` for the reproduction methodology.
//!
//! ## Quickstart
//!
//! ```
//! use relacc::core::chase::is_cr;
//! use relacc::datagen::paper_example::{expected_target, paper_specification};
//!
//! // Tables 1–3 of the paper: Michael Jordan's 1994-95 season.
//! let spec = paper_specification();
//! let run = is_cr(&spec);
//! assert!(run.outcome.is_church_rosser());
//! assert_eq!(run.outcome.target().unwrap(), &expected_target());
//! ```

#![forbid(unsafe_code)]

pub use relacc_core as core;
pub use relacc_datagen as datagen;
pub use relacc_engine as engine;
pub use relacc_framework as framework;
pub use relacc_fusion as fusion;
pub use relacc_heap as heap;
pub use relacc_model as model;
pub use relacc_net as net;
pub use relacc_resolve as resolve;
pub use relacc_serve as serve;
pub use relacc_store as store;
pub use relacc_topk as topk;
