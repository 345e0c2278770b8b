//! Model check of the paged versioned relation and the blocking index's
//! member lists.
//!
//! Random streams of accepted and rejected batches run over a relation that
//! starts at eight full pages or more.  Scattered deletes thin pages, runs of
//! consecutive deletes empty and merge them, and inserts fill the last page
//! and open new ones.  After every batch the relation must equal a naive
//! `Vec<VersionedRow>` model (ids, order, id lookups, length, snapshot), every
//! epoch pinned earlier must still show exactly the rows it pinned, a
//! rejected batch must leave the relation unchanged, and
//! `IncrementalBlockingIndex::members` must list each block's live rows in
//! ascending id order, with emptied blocks gone.

use proptest::prelude::*;
use relacc::model::{AttrId, DataType, Schema, SchemaRef, Tuple, Value};
use relacc::resolve::{BlockKey, Blocker, BlockingStrategy, IncrementalBlockingIndex};
use relacc::store::{
    Generation, Relation, RelationEpoch, RowId, UpdateBatch, VersionedRelation, VersionedRow,
    PAGE_ROWS,
};
use std::collections::{BTreeMap, HashSet};

/// One step of a stream.  Delete targets are drawn as raw numbers and taken
/// modulo the live row count when the step runs.
#[derive(Debug, Clone)]
struct Step {
    /// 0–5: scattered deletes + inserts; 6–7: a run of consecutive deletes +
    /// inserts; 8: a batch that must be rejected; 9: pin an epoch first.
    kind: u8,
    picks: Vec<usize>,
    run: usize,
    /// Blocking keys of the inserted rows (`None`: a null key, which makes
    /// a singleton block).
    inserts: Vec<Option<u8>>,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u8..10,
        prop::collection::vec(0usize..1_000_000, 0..4),
        0usize..2 * PAGE_ROWS,
        prop::collection::vec(prop::option::of(0u8..12), 0..6),
    )
        .prop_map(|(kind, picks, run, inserts)| Step {
            kind,
            picks,
            run,
            inserts,
        })
}

fn schema() -> SchemaRef {
    Schema::builder("r")
        .attr("key", DataType::Text)
        .attr("n", DataType::Int)
        .build()
}

fn values(key: Option<u8>, n: usize) -> Vec<Value> {
    let key = key.map_or(Value::Null, |k| Value::text(format!("k{k}")));
    vec![key, Value::Int(n as i64)]
}

/// The naive model: live rows in id order, plus the id and generation
/// counters.
struct Model {
    rows: Vec<VersionedRow>,
    generation: Generation,
    next_row: u64,
}

impl Model {
    fn apply(&mut self, batch: &UpdateBatch) {
        let doomed: HashSet<RowId> = batch.deletes.iter().copied().collect();
        self.rows.retain(|r| !doomed.contains(&r.id));
        self.generation = Generation(self.generation.0 + 1);
        for row in &batch.inserts {
            self.rows.push(VersionedRow {
                id: RowId(self.next_row),
                inserted_at: self.generation,
                tuple: Tuple::new(row.clone()),
            });
            self.next_row += 1;
        }
    }
}

/// The relation (or a pinned epoch of it) shows exactly the model's rows.
fn check_rows(
    label: &str,
    rows: Vec<&VersionedRow>,
    row: impl Fn(RowId) -> Option<VersionedRow>,
    model: &[VersionedRow],
    next_row: u64,
) -> TestCaseResult {
    prop_assert_eq!(rows.len(), model.len(), "{}: length", label);
    prop_assert!(
        rows.iter().copied().eq(model.iter()),
        "{}: rows differ from the model",
        label
    );
    let mut live = model.iter().peekable();
    for id in (0..next_row + 2).map(RowId) {
        let expected = live.next_if(|r| r.id == id);
        let found = row(id);
        prop_assert_eq!(found.as_ref(), expected, "{}: row({})", label, id);
    }
    Ok(())
}

/// The index's member lists equal the live rows grouped by blocking key.
fn check_members(
    index: &IncrementalBlockingIndex,
    blocker: &Blocker,
    model: &[VersionedRow],
) -> TestCaseResult {
    let mut groups: BTreeMap<BlockKey, Vec<RowId>> = BTreeMap::new();
    for row in model {
        let key = BlockKey::of_row(blocker, row.id, &row.tuple);
        groups.entry(key).or_default().push(row.id);
    }
    prop_assert_eq!(index.blocks(), groups.len(), "non-empty blocks");
    for (key, ids) in &groups {
        prop_assert_eq!(
            index.members(key),
            Some(ids.as_slice()),
            "members of {:?}",
            key
        );
    }
    let listed: BTreeMap<BlockKey, Vec<RowId>> = index
        .block_members()
        .map(|(key, ids)| (key.clone(), ids.to_vec()))
        .collect();
    prop_assert_eq!(&listed, &groups, "block_members");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn paged_relation_and_member_lists_match_the_model(
        extra in 0usize..PAGE_ROWS,
        seed_keys in prop::collection::vec(prop::option::of(0u8..12), 64usize),
        steps in prop::collection::vec(arb_step(), 1..20),
    ) {
        let schema = schema();
        let seed_rows = (0..8 * PAGE_ROWS + extra)
            .map(|i| values(seed_keys[i % seed_keys.len()], i))
            .collect();
        let seed = Relation::from_rows(schema.clone(), seed_rows).expect("seed rows conform");
        let mut relation = VersionedRelation::from_relation(&seed);
        let blocker = Blocker::new(vec![AttrId(0)], BlockingStrategy::ExactKey);
        let mut index = IncrementalBlockingIndex::build(
            blocker.clone(),
            relation.rows().iter().map(|r| (r.id, &r.tuple)),
        );
        let mut model = Model {
            rows: relation.rows().iter().cloned().collect(),
            generation: Generation(0),
            next_row: seed.len() as u64,
        };
        let mut pinned: Vec<(RelationEpoch, Vec<VersionedRow>)> = Vec::new();
        let mut fresh = seed.len();

        for (i, step) in steps.iter().enumerate() {
            if step.kind == 9 {
                pinned.push((relation.epoch(), model.rows.clone()));
                if pinned.len() > 4 {
                    pinned.remove(0);
                }
            }
            let live = model.rows.len();
            let mut batch = UpdateBatch::new("r");
            if live > 0 {
                for &pick in &step.picks {
                    let id = model.rows[pick % live].id;
                    if !batch.deletes.contains(&id) {
                        batch.deletes.push(id);
                    }
                }
                if matches!(step.kind, 6 | 7) {
                    let start = step.picks.first().map_or(0, |p| p % live);
                    for row in model.rows.iter().skip(start).take(step.run) {
                        if !batch.deletes.contains(&row.id) {
                            batch.deletes.push(row.id);
                        }
                    }
                }
            }
            for &key in &step.inserts {
                batch.inserts.push(values(key, fresh));
                fresh += 1;
            }

            if step.kind == 8 {
                // an otherwise valid batch with one bad operation
                match step.run % 3 {
                    0 => batch.deletes.push(RowId(model.next_row + step.run as u64)),
                    1 if !model.rows.is_empty() => {
                        let id = model.rows[step.run % live].id;
                        batch.deletes.push(id);
                        batch.deletes.push(id);
                    }
                    _ => batch.inserts.push(vec![Value::Int(7), Value::Int(7)]),
                }
                let before = relation.clone();
                prop_assert!(relation.apply(&batch).is_err(), "step {}: accepted", i);
                prop_assert!(relation == before, "step {}: a rejected batch changed rows", i);
            } else {
                let applied = relation.apply(&batch).expect("valid batch");
                model.apply(&batch);
                prop_assert_eq!(applied.generation, model.generation);
                let deleted: Vec<RowId> = applied.deleted.iter().map(|(id, _)| *id).collect();
                prop_assert_eq!(&deleted, &batch.deletes, "step {}: deleted ids", i);
                let inserted: Vec<(RowId, Tuple)> = applied
                    .inserted
                    .iter()
                    .map(|&id| (id, relation.row(id).expect("just inserted").tuple.clone()))
                    .collect();
                index.apply(
                    deleted.iter().copied(),
                    inserted.iter().map(|(id, tuple)| (*id, tuple)),
                );
            }

            prop_assert_eq!(relation.generation(), model.generation);
            check_rows(
                &format!("step {i}"),
                relation.rows().iter().collect(),
                |id| relation.row(id).cloned(),
                &model.rows,
                model.next_row,
            )?;
            let snapshot = relation.snapshot();
            prop_assert!(
                snapshot.rows().iter().eq(model.rows.iter().map(|r| &r.tuple)),
                "step {}: snapshot", i
            );
            for (at, (epoch, rows)) in pinned.iter().enumerate() {
                check_rows(
                    &format!("step {i}, pin {at}"),
                    epoch.rows().iter().collect(),
                    |id| epoch.row(id).cloned(),
                    rows,
                    model.next_row,
                )?;
            }
            check_members(&index, &blocker, &model.rows)?;
        }
    }
}
