//! Differential guard for the incremental-repair pipeline: after applying any
//! prefix of a generated update stream, the [`IncrementalEngine`] snapshot
//! must be semantically identical to a from-scratch
//! `BatchEngine::repair_relation` over the updated relation under the same
//! (delta-evolved) plan — same entities in the same order, same outcomes,
//! targets, suggestions, record membership, match decisions, repaired rows
//! and skip list, at 1 and N worker threads (same style as
//! `tests/batch_differential.rs`).
//!
//! Per-entity chase counters are deliberately **excluded**: a cached entity
//! reports the work of the run that produced it, and doing less work per
//! update is the entire point of incrementality.
//!
//! Med and Rest block on an exact key, so every in-block decision there is
//! the same (similarity 1.0, matched), and a decision copied from the wrong
//! pair would go unseen.  `reused_decisions_match_full_on_large_blocks`
//! streams random batches through prefix-blocked `large_blocks` rows, whose
//! blocks mix matched, unmatched and pruned pairs, and checks the
//! resolution after every batch.

use relacc::core::chase::SplitMix64;
use relacc::core::rules::{Predicate, RuleSet, TupleRule};
use relacc::datagen::streaming::{med_stream, rest_stream, StreamConfig, StreamOp, UpdateStream};
use relacc::datagen::{large_blocks, LargeBlocksConfig};
use relacc::engine::{BatchEngine, IncrementalEngine, RelationRepair};
use relacc::model::{AttrId, CmpOp, Tuple, Value};
use relacc::resolve::{resolve_relation, BlockingStrategy, MatchDecision, ResolveConfig};
use relacc::store::{Relation, RowId, UpdateBatch};
use std::collections::BTreeMap;

fn resolve_config(stream: &UpdateStream) -> ResolveConfig {
    ResolveConfig::on_attrs(stream.match_attrs.clone()).with_strategy(BlockingStrategy::ExactKey)
}

fn assert_semantically_equal(incremental: &RelationRepair, full: &RelationRepair, label: &str) {
    assert_eq!(
        incremental.resolved.members, full.resolved.members,
        "{label}: resolution membership"
    );
    assert_eq!(
        incremental.resolved.decisions, full.resolved.decisions,
        "{label}: match decisions"
    );
    assert_eq!(
        incremental.resolved.stats, full.resolved.stats,
        "{label}: resolution stats"
    );
    assert_eq!(
        incremental.resolved.entities.len(),
        full.resolved.entities.len(),
        "{label}: resolved entity count"
    );
    for (i, (a, b)) in incremental
        .resolved
        .entities
        .iter()
        .zip(full.resolved.entities.iter())
        .enumerate()
    {
        assert_eq!(a.tuples(), b.tuples(), "{label}: entity {i} instance");
    }
    assert_eq!(
        incremental.report.entities.len(),
        full.report.entities.len(),
        "{label}: entity count"
    );
    for (a, b) in incremental
        .report
        .entities
        .iter()
        .zip(full.report.entities.iter())
    {
        assert_eq!(a.entity, b.entity, "{label}: entity index");
        assert_eq!(a.records, b.records, "{label}: entity {} records", a.entity);
        assert_eq!(a.outcome, b.outcome, "{label}: entity {} outcome", a.entity);
        assert_eq!(a.deduced, b.deduced, "{label}: entity {} deduced", a.entity);
        assert_eq!(
            a.suggestion, b.suggestion,
            "{label}: entity {} suggestion",
            a.entity
        );
        assert_eq!(
            a.suggestion_error, b.suggestion_error,
            "{label}: entity {} suggestion error",
            a.entity
        );
        assert_eq!(
            a.conflict.is_some(),
            b.conflict.is_some(),
            "{label}: entity {} conflict presence",
            a.entity
        );
    }
    assert_eq!(
        (
            incremental.report.complete,
            incremental.report.suggested,
            incremental.report.needs_user,
            incremental.report.not_church_rosser,
            incremental.report.suggestion_errors,
        ),
        (
            full.report.complete,
            full.report.suggested,
            full.report.needs_user,
            full.report.not_church_rosser,
            full.report.suggestion_errors,
        ),
        "{label}: outcome tallies"
    );
    assert_eq!(
        incremental.repaired.rows(),
        full.repaired.rows(),
        "{label}: repaired rows"
    );
    assert_eq!(
        incremental.row_entities, full.row_entities,
        "{label}: row/entity mapping"
    );
    assert_eq!(incremental.skipped, full.skipped, "{label}: skipped");
}

/// Apply the whole stream, asserting snapshot == full re-repair at the seed
/// state, at three mid-stream checkpoints and at the final state (the
/// from-scratch reference runs under the incremental engine's own evolved
/// plan, so master deltas are reflected on both sides; it is too expensive
/// for a debug-mode test to re-run after every single operation).
fn run_stream(stream: &UpdateStream, threads: usize, label: &str) {
    let resolve = resolve_config(stream);
    let masters = stream.master.clone().into_iter().collect();
    let engine = BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        masters,
    )
    .expect("stream rules validate")
    .with_threads(threads);
    let mut incremental = IncrementalEngine::open(
        engine,
        stream.name.clone(),
        &stream.relation,
        resolve.clone(),
    );

    let full = incremental
        .engine()
        .repair_relation(&stream.relation, &resolve);
    assert_semantically_equal(&incremental.snapshot(), &full, &format!("{label}/seed"));

    let last = stream.ops.len().saturating_sub(1);
    let checkpoints = [last / 4, last / 2, (3 * last) / 4, last];
    for (step, op) in stream.ops.iter().enumerate() {
        match op {
            StreamOp::Rows(batch) => incremental
                .apply(batch)
                .unwrap_or_else(|e| panic!("{label}: scripted batch {step} rejected: {e}")),
            StreamOp::MasterAppend(rows) => incremental
                .apply_master_append(0, rows.clone())
                .unwrap_or_else(|e| panic!("{label}: master append {step} rejected: {e}")),
        };
        if checkpoints.contains(&step) {
            let relation = incremental.relation().snapshot();
            let full = incremental.engine().repair_relation(&relation, &resolve);
            assert_semantically_equal(
                &incremental.snapshot(),
                &full,
                &format!("{label}/step {step}"),
            );
        }
    }
    // the stream must have exercised real reuse, otherwise this test guards
    // nothing: some entities re-repaired, strictly more reused
    let stats = incremental.stats();
    assert!(
        stats.entities_rerepaired > 0,
        "{label}: no entity was ever re-repaired"
    );
    assert!(
        stats.entities_reused > stats.entities_rerepaired,
        "{label}: expected most work to be reused (reused {} vs re-repaired {})",
        stats.entities_reused,
        stats.entities_rerepaired
    );
}

#[test]
fn incremental_matches_full_on_the_med_stream() {
    let stream = med_stream(0.01, 23, &StreamConfig::default());
    assert!(
        stream.master_appends() > 0,
        "med stream must exercise master deltas"
    );
    for threads in [1usize, 4] {
        run_stream(&stream, threads, &format!("med/threads={threads}"));
    }
}

#[test]
fn incremental_matches_full_on_the_rest_stream() {
    let stream = rest_stream(0.002, 31, &StreamConfig::default());
    for threads in [1usize, 4] {
        run_stream(&stream, threads, &format!("rest/threads={threads}"));
    }
}

#[test]
fn incremental_is_thread_count_invariant() {
    let stream = med_stream(0.01, 41, &StreamConfig::default());
    let resolve = resolve_config(&stream);
    let mut snapshots = Vec::new();
    for threads in [1usize, 4] {
        let engine = BatchEngine::new(
            stream.relation.schema().clone(),
            stream.rules.clone(),
            stream.master.clone().into_iter().collect(),
        )
        .unwrap()
        .with_threads(threads);
        let mut incremental = IncrementalEngine::open(
            engine,
            stream.name.clone(),
            &stream.relation,
            resolve.clone(),
        );
        for op in &stream.ops {
            match op {
                StreamOp::Rows(batch) => {
                    incremental.apply(batch).unwrap();
                }
                StreamOp::MasterAppend(rows) => {
                    incremental.apply_master_append(0, rows.clone()).unwrap();
                }
            }
        }
        snapshots.push(incremental.snapshot());
    }
    let (one, many) = (&snapshots[0], &snapshots[1]);
    assert_semantically_equal(one, many, "1-vs-4-threads");
    // with an identical update schedule even the chase counters must agree
    assert_eq!(one.report.stats, many.report.stats, "aggregated stats");
}

/// A row for block `tag`: a copy of `source`'s payload with `edits` char
/// substitutions (none on the separators), or a random payload of four
/// 7-char tokens when `source` is `None`.
fn block_row(
    rng: &mut SplitMix64,
    tag: &str,
    source: Option<&str>,
    edits: usize,
    obs: i64,
) -> Vec<Value> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let random_char = |rng: &mut SplitMix64| ALPHABET[rng.next_below(ALPHABET.len())] as char;
    let payload: String = match source {
        Some(payload) => {
            let mut chars: Vec<char> = payload.chars().collect();
            for _ in 0..edits {
                let pos = rng.next_below(chars.len());
                if chars[pos] != ' ' {
                    chars[pos] = random_char(rng);
                }
            }
            chars.into_iter().collect()
        }
        None => (0..31)
            .map(|i| if i % 8 == 7 { ' ' } else { random_char(rng) })
            .collect(),
    };
    vec![Value::text(format!("{tag} {payload}")), Value::Int(obs)]
}

/// The block tag of a `large_blocks` name and its payload.
fn split_name(row: &Tuple) -> (&str, &str) {
    match row.value(AttrId(0)) {
        Value::Str(name) => (&name[..5], &name[6..]),
        other => panic!("names are text, got {other:?}"),
    }
}

/// Does one block hold a matched pair, a computed but unmatched pair and
/// (with the cascade on) a pruned pair?
fn some_block_mixes_decisions(
    relation: &Relation,
    decisions: &[MatchDecision],
    cascade: bool,
) -> bool {
    let mut kinds: BTreeMap<&str, [bool; 3]> = BTreeMap::new();
    for d in decisions {
        let kind = match (d.matched, d.pruned) {
            (true, _) => 0,
            (false, None) => 1,
            (false, Some(_)) => 2,
        };
        let (tag, _) = split_name(&relation.rows()[d.left]);
        kinds.entry(tag).or_default()[kind] = true;
    }
    kinds
        .values()
        .any(|&[matched, unmatched, pruned]| matched && unmatched && (pruned || !cascade))
}

#[test]
fn reused_decisions_match_full_on_large_blocks() {
    let data = large_blocks(&LargeBlocksConfig {
        n_blocks: 3,
        rows_per_block: 10,
        tokens_per_payload: 4,
        near_dup_rate: 0.5,
        seed: 19,
    });
    let schema = data.relation.schema().clone();
    let obs = schema.expect_attr("obs");
    let rules = RuleSet::from_rules([TupleRule::new(
        "cur",
        vec![Predicate::cmp_attrs(obs, CmpOp::Lt)],
        obs,
    )]);
    // the seed rows' tags and payloads, to derive inserts from
    let seeds: Vec<(&str, &str)> = data.relation.rows().iter().map(split_name).collect();
    for cascade in [true, false] {
        let mut resolve = ResolveConfig::on_attrs(data.match_attrs.clone()).with_threshold(0.85);
        if !cascade {
            resolve = resolve.without_cascade();
        }
        for threads in [1usize, 4] {
            let label = format!("large_blocks/cascade={cascade}/threads={threads}");
            let engine = BatchEngine::new(schema.clone(), rules.clone(), Vec::new())
                .expect("the currency rule validates")
                .with_threads(threads)
                .with_suggestion_k(0);
            let mut incremental =
                IncrementalEngine::open(engine, "large_blocks", &data.relation, resolve.clone());
            let mut rng = SplitMix64::new(0x1a6e_b10c);
            let mut next_id = data.relation.len() as u64;
            let mut live: Vec<RowId> = (0..next_id).map(RowId).collect();
            let mut saw_all_kinds = false;
            for step in 0..60 {
                let mut batch = UpdateBatch::new("large_blocks");
                for _ in 0..rng.next_below(3) {
                    if live.len() > 4 {
                        batch = batch.delete(live.remove(rng.next_below(live.len())));
                    }
                }
                let inserts = rng.next_below(4);
                for _ in 0..inserts {
                    let (tag, payload) = seeds[rng.next_below(seeds.len())];
                    // 0–7 edits straddle the threshold; every fourth row is
                    // unrelated and mostly pruned
                    let source = (rng.next_below(4) != 0).then_some(payload);
                    let edits = rng.next_below(8);
                    let row = block_row(&mut rng, tag, source, edits, next_id as i64);
                    batch = batch.insert(row);
                    live.push(RowId(next_id));
                    next_id += 1;
                }
                incremental
                    .apply(&batch)
                    .unwrap_or_else(|e| panic!("{label}: batch {step} rejected: {e}"));
                let relation = incremental.relation().snapshot();
                let snapshot = incremental.snapshot();
                let full = resolve_relation(&relation, &resolve);
                let at = format!("{label}/step {step}");
                assert_eq!(snapshot.resolved.members, full.members, "{at}: members");
                assert_eq!(
                    snapshot.resolved.decisions, full.decisions,
                    "{at}: decisions"
                );
                assert_eq!(snapshot.resolved.stats, full.stats, "{at}: stats");
                saw_all_kinds |= some_block_mixes_decisions(&relation, &full.decisions, cascade);
            }
            assert!(
                saw_all_kinds,
                "{label}: no block ever held matched, unmatched and pruned pairs"
            );
            let stats = incremental.stats();
            assert!(
                stats.pairs_reused > stats.pairs_compared,
                "{label}: most pairs should be reused ({} reused, {} compared)",
                stats.pairs_reused,
                stats.pairs_compared
            );
        }
    }
}
