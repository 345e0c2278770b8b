//! Update-stream workloads: the input of the incremental-repair pipeline.
//!
//! The paper's experiments repair a corpus once; a served workload keeps
//! receiving data.  This module turns the `Med`-like and `Rest`-like corpora
//! into **streaming** workloads: a flattened dirty relation (every entity's
//! tuples tagged with its key attributes, so exact-key blocking reconstructs
//! the entities), the matching rules and master data, plus a deterministic
//! stream of [`StreamOp`]s — typed row batches
//! ([`relacc_store::UpdateBatch`]: inserts of new observations, deletes of
//! retracted ones) mixed with master-data appends (curated reference rows for
//! entities the master relation did not cover yet).
//!
//! The stream relies on the versioned-relation row-id contract (sequential
//! ids in insertion order, see [`relacc_store::versioned`]): the generator
//! simulates the same assignment, so its scripted deletes always name live
//! rows.  Everything is a pure function of the seed.

use crate::generator::Dataset;
use crate::rest::{rest, RestConfig};
use crate::workloads::med;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relacc_core::rules::RuleSet;
use relacc_model::{DataType, MasterRelation, Schema, Value};
use relacc_store::{Relation, RowId, UpdateBatch};

/// Configuration of an update stream.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of update batches.
    pub n_batches: usize,
    /// Row inserts per batch.
    pub inserts_per_batch: usize,
    /// Row deletes per batch.
    pub deletes_per_batch: usize,
    /// Master rows appended per batch (ignored for workloads without master
    /// data; stops when the pool of uncovered entities is exhausted).
    pub master_appends_per_batch: usize,
    /// Fraction of inserts that open a brand-new entity instead of extending
    /// an existing one.
    pub fresh_entity_rate: f64,
    /// Point reads scripted after each row batch ([`UpdateStream::reads`]):
    /// row ids sampled from the rows live right after the batch applies.
    /// Scripted from a **separate** RNG, so any value — including the
    /// default `0` — leaves the update ops byte-identical.
    pub reads_per_batch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            n_batches: 8,
            inserts_per_batch: 4,
            deletes_per_batch: 2,
            master_appends_per_batch: 1,
            fresh_entity_rate: 0.25,
            reads_per_batch: 0,
            seed: 17,
        }
    }
}

impl StreamConfig {
    /// Script `reads` point reads after every row batch (builder style) —
    /// the read side of a mixed read/write serving workload.  The reads come
    /// from their own RNG, so the scripted update ops stay byte-identical to
    /// a read-free stream with the same seed.
    pub fn with_reads(mut self, reads: usize) -> Self {
        self.reads_per_batch = reads;
        self
    }
}

/// One operation of the stream, in application order.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamOp {
    /// A typed batch of row inserts + deletes against the dirty relation.
    Rows(UpdateBatch),
    /// Rows appended to the master relation (index 0 of the plan's masters).
    MasterAppend(Vec<Vec<Value>>),
}

/// A complete streaming workload: the seed state plus the scripted updates.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    /// Catalog-entry name of the dirty relation (the one the batches address).
    pub name: String,
    /// The seed dirty relation (flattened, entity-key-tagged rows).
    pub relation: Relation,
    /// The seed master relation, when the workload has one.
    pub master: Option<MasterRelation>,
    /// The accuracy rules.
    pub rules: RuleSet,
    /// Attribute names resolution should match on (exact-key blocking over
    /// these reconstructs the generator's entities).
    pub match_attrs: Vec<String>,
    /// The scripted updates, in application order.
    pub ops: Vec<StreamOp>,
    /// Scripted point reads, one entry per [`StreamOp::Rows`] batch in
    /// stream order: row ids (sampled with replacement) that are live right
    /// after that batch applies — the read side of a mixed read/write
    /// serving workload.  Empty vectors when
    /// [`StreamConfig::reads_per_batch`] is `0`.
    pub reads: Vec<Vec<RowId>>,
}

impl UpdateStream {
    /// Number of row batches in the stream.
    pub fn row_batches(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, StreamOp::Rows(_)))
            .count()
    }

    /// Number of master appends in the stream.
    pub fn master_appends(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, StreamOp::MasterAppend(_)))
            .count()
    }
}

/// Script a stream over an already-flattened relation: per batch, deletes of
/// random live rows, inserts cloning (or re-keying) random seed rows, and —
/// when a pool of late-arriving master rows exists — master appends.
fn script_ops(
    name: &str,
    relation: &Relation,
    key_attr: relacc_model::AttrId,
    mut master_pool: Vec<Vec<Value>>,
    config: &StreamConfig,
) -> (Vec<StreamOp>, Vec<Vec<RowId>>) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED_57EA);
    // the read script draws from its own RNG so the update ops stay
    // byte-identical whether or not reads are requested
    let mut read_rng = StdRng::seed_from_u64(config.seed ^ 0x0BEE_F00D_5EED);
    let seed_rows: Vec<Vec<Value>> = relation
        .rows()
        .iter()
        .map(|t| t.values().to_vec())
        .collect();

    // simulate the versioned relation's id assignment
    let mut live: Vec<RowId> = (0..relation.len() as u64).map(RowId).collect();
    let mut next_id = relation.len() as u64;
    let mut fresh_entities = 0usize;

    let mut ops = Vec::new();
    let mut reads: Vec<Vec<RowId>> = Vec::new();
    for _ in 0..config.n_batches {
        let mut batch = UpdateBatch::new(name);
        // deletes: sample live ids without replacement, keeping the relation
        // from draining (never drop below half the seed size)
        let floor = seed_rows.len() / 2;
        for _ in 0..config.deletes_per_batch {
            if live.len() <= floor.max(1) {
                break;
            }
            batch = batch.delete(live.swap_remove(rng.gen_range(0..live.len())));
        }
        // inserts: clone a random seed row, sometimes re-keyed into a
        // brand-new entity
        for _ in 0..config.inserts_per_batch {
            let mut row = seed_rows[rng.gen_range(0..seed_rows.len())].clone();
            if rng.gen::<f64>() < config.fresh_entity_rate {
                fresh_entities += 1;
                row[key_attr.0] = Value::text(format!("stream_fresh_{fresh_entities}"));
            }
            batch = batch.insert(row);
            live.push(RowId(next_id));
            next_id += 1;
        }
        if !batch.is_empty() {
            ops.push(StreamOp::Rows(batch));
            // reads against the rows live right after this batch, sampled
            // with replacement from the simulated live-id set
            let sample = (0..config.reads_per_batch)
                .map(|_| live[read_rng.gen_range(0..live.len())])
                .collect();
            reads.push(sample);
        }
        if config.master_appends_per_batch > 0 && !master_pool.is_empty() {
            let take = config.master_appends_per_batch.min(master_pool.len());
            let rows: Vec<Vec<Value>> = master_pool.drain(..take).collect();
            ops.push(StreamOp::MasterAppend(rows));
        }
    }
    (ops, reads)
}

/// Flatten a generated dataset into one dirty relation (all entity tuples,
/// row order follows entity order) and collect the late-arriving master rows:
/// the ground-truth master tuples of the entities the seed master relation
/// does **not** cover, which is exactly the curated data a streaming master
/// feed would deliver.
fn flatten(data: &Dataset) -> (Relation, Vec<Vec<Value>>) {
    let mut relation = Relation::new(data.schema.clone());
    for entity in &data.entities {
        for tuple in entity.instance.tuples() {
            relation
                .push_row(tuple.values().to_vec())
                .expect("generated rows conform");
        }
    }
    let key_attrs: Vec<_> = data.master_schema.attr_ids().collect();
    let late_master: Vec<Vec<Value>> = data
        .entities
        .iter()
        .filter(|e| !e.in_master)
        .map(|e| {
            key_attrs
                .iter()
                .map(|a| {
                    let name = data.master_schema.attr_name(*a);
                    e.truth.value(data.schema.expect_attr(name)).clone()
                })
                .collect()
        })
        .collect();
    (relation, late_master)
}

/// The `Med`-shaped update stream: the scaled `Med` corpus flattened into a
/// dirty relation, its rules and (partial) master relation, and a scripted
/// insert/delete/master-append mix.  Master appends deliver the reference
/// rows of initially uncovered entities, so applying the stream makes more
/// entities completable over time.
pub fn med_stream(scale: f64, seed: u64, config: &StreamConfig) -> UpdateStream {
    let data = med(scale, seed);
    let (relation, late_master) = flatten(&data);
    let key_attr = data.schema.expect_attr("name");
    let (ops, reads) = script_ops("med", &relation, key_attr, late_master, config);
    UpdateStream {
        name: "med".into(),
        relation,
        master: Some(data.master.clone()),
        rules: data.rules.clone(),
        match_attrs: vec!["name".into()],
        ops,
        reads,
    }
}

/// The `Rest`-shaped update stream: every restaurant's listings tagged with
/// the restaurant name in an extra `rname` column (exact-key blocking over it
/// reconstructs the entities), the corpus currency rules, and a scripted
/// insert/delete mix.  The Rest workload has no master data, so its stream
/// contains no master appends.
pub fn rest_stream(scale: f64, seed: u64, config: &StreamConfig) -> UpdateStream {
    let data = rest(&RestConfig::scaled(scale, seed));
    let schema = Schema::builder("listing")
        .attr("source", DataType::Text)
        .attr("snapshot", DataType::Int)
        .attr("closed", DataType::Bool)
        .attr("rname", DataType::Text)
        .build();
    let mut relation = Relation::new(schema.clone());
    for restaurant in &data.restaurants {
        for tuple in restaurant.instance.tuples() {
            let mut row = tuple.values().to_vec();
            row.push(Value::text(restaurant.name.clone()));
            relation.push_row(row).expect("generated rows conform");
        }
    }
    let key_attr = schema.expect_attr("rname");
    let (ops, reads) = script_ops("rest", &relation, key_attr, Vec::new(), config);
    UpdateStream {
        name: "rest".into(),
        relation,
        master: None,
        rules: data.rules.clone(),
        match_attrs: vec!["rname".into()],
        ops,
        reads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn med_stream_is_deterministic_and_well_formed() {
        let config = StreamConfig::default();
        let a = med_stream(0.02, 5, &config);
        let b = med_stream(0.02, 5, &config);
        assert_eq!(a.relation.rows(), b.relation.rows());
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.row_batches(), config.n_batches);
        assert!(a.master_appends() > 0);
        assert!(a.master.is_some());
        // every scripted insert conforms to the schema, every delete is
        // unique within its batch
        for op in &a.ops {
            if let StreamOp::Rows(batch) = op {
                assert_eq!(batch.relation, "med");
                for row in &batch.inserts {
                    a.relation.schema().validate_row(row).unwrap();
                }
                let mut seen = std::collections::HashSet::new();
                for id in &batch.deletes {
                    assert!(seen.insert(*id), "duplicate delete {id}");
                }
            }
        }
    }

    #[test]
    fn med_master_appends_conform_to_the_master_schema() {
        let stream = med_stream(0.02, 9, &StreamConfig::default());
        let master = stream.master.as_ref().unwrap();
        for op in &stream.ops {
            if let StreamOp::MasterAppend(rows) = op {
                for row in rows {
                    master.schema().validate_row(row).unwrap();
                }
            }
        }
    }

    #[test]
    fn scripted_deletes_replay_cleanly_on_a_versioned_relation() {
        use relacc_store::VersionedRelation;
        let stream = med_stream(0.02, 11, &StreamConfig::default());
        let mut versioned = VersionedRelation::from_relation(&stream.relation);
        for op in &stream.ops {
            if let StreamOp::Rows(batch) = op {
                versioned.apply(batch).expect("scripted batches stay valid");
            }
        }
        assert!(versioned.generation().0 as usize >= stream.row_batches());
    }

    /// The scripted read side: one read set per row batch, every read id
    /// live at that point of the replay, and requesting reads leaves the
    /// update ops byte-identical.
    #[test]
    fn scripted_reads_name_live_rows_and_leave_ops_unchanged() {
        use relacc_store::VersionedRelation;
        let plain = med_stream(0.02, 11, &StreamConfig::default());
        assert!(plain.reads.iter().all(|r| r.is_empty()));
        let config = StreamConfig::default().with_reads(5);
        let stream = med_stream(0.02, 11, &config);
        assert_eq!(stream.ops, plain.ops, "reads must not perturb the ops");
        assert_eq!(stream.reads, med_stream(0.02, 11, &config).reads);
        assert_eq!(stream.reads.len(), stream.row_batches());

        let mut versioned = VersionedRelation::from_relation(&stream.relation);
        let mut batch_idx = 0;
        for op in &stream.ops {
            if let StreamOp::Rows(batch) = op {
                versioned.apply(batch).expect("scripted batches stay valid");
                let reads = &stream.reads[batch_idx];
                assert_eq!(reads.len(), 5);
                for id in reads {
                    assert!(
                        versioned.row(*id).is_some(),
                        "read {id} must be live after batch {batch_idx}"
                    );
                }
                batch_idx += 1;
            }
        }
    }

    /// FNV-1a over everything written into it: a digest of `Debug` output
    /// that does not depend on the toolchain's hasher.
    struct Fnv(u64);

    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for byte in s.bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }

    fn digest(stream: &UpdateStream) -> u64 {
        use std::fmt::Write as _;
        let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
        write!(fnv, "{:?}{:?}", stream.ops, stream.reads).unwrap();
        fnv.0
    }

    /// The benchmark's fixed ingest script (1500 batches of 4 inserts, 2
    /// deletes and 1 master append, script seed 7) is pinned byte for byte:
    /// a generator change that moves these digests changes what the
    /// benchmark's med-ingest workload commits.
    #[test]
    fn default_streams_are_pinned_by_digest() {
        let config = StreamConfig {
            n_batches: 1500,
            inserts_per_batch: 4,
            deletes_per_batch: 2,
            master_appends_per_batch: 1,
            seed: 7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED,
            ..StreamConfig::default()
        };
        let med = digest(&med_stream(0.05, 7, &config));
        let rest = digest(&rest_stream(0.02, 7, &config));
        assert_eq!(
            (med, rest),
            (0x84ce_ff97_136c_6b36, 0x91ac_ff83_ef19_2625),
            "med {med:#018x}, rest {rest:#018x}"
        );
    }

    #[test]
    fn rest_stream_has_no_master_appends() {
        let stream = rest_stream(0.005, 3, &StreamConfig::default());
        assert_eq!(stream.master_appends(), 0);
        assert!(stream.master.is_none());
        assert!(stream.row_batches() > 0);
        assert_eq!(stream.relation.schema().arity(), 4);
    }
}
