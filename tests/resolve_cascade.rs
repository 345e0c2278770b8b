//! Exactness guard for the fingerprint cascade: the cascade's upper bounds
//! may never prune a pair the full similarity computation would match, at
//! any threshold — otherwise pruning would change the clustering.
//!
//! Three layers:
//! * a property test over random value pairs (mixed-script strings with
//!   token structure, nulls, cross-width numerics) checking
//!   `stageN_upper_bound ≥ record_similarity` — the bound-domination
//!   invariant that makes `ub < threshold ⇒ unmatched` exact, plus the
//!   bit-parallel/DP Levenshtein agreement on the same inputs;
//! * differential resolutions (cascade vs. [`ResolveConfig::without_cascade`])
//!   on the Med and Rest streaming relations and the adversarial
//!   `large_blocks` shape, pinning identical `entities`/`members` and
//!   identical per-pair match verdicts;
//! * a prune-effectiveness floor on `large_blocks`, so the cascade cannot
//!   silently degrade into "never prunes" (which would keep outputs equal
//!   but erase the point of the cascade);
//! * stage 0 (identical match values): on a mixed exact-key corpus every
//!   unpruned decision's similarity equals `record_similarity` bit for bit,
//!   and a row and an equal copy always score exactly `1.0`.

use proptest::prelude::*;
use relacc::datagen::{large_blocks, med_stream, rest_stream, LargeBlocksConfig, StreamConfig};
use relacc::model::{AttrId, DataType, Schema, Tuple, Value};
use relacc::resolve::similarity::levenshtein_dp_with;
use relacc::resolve::{
    record_similarity, resolve_block, resolve_relation, BlockingStrategy, MatchDecision,
    RecordFingerprint, ResolveConfig, SimilarityScratch,
};
use relacc::store::{Relation, RowId};
use std::sync::Arc;

/// A small vocabulary mixing scripts, token lengths and whitespace so the
/// char/bigram/token fingerprints all get exercised, including multi-byte
/// chars and case-folding edge cases (final sigma).
const WORDS: &[&str] = &[
    "jordan",
    "Jordan",
    "bulls",
    "ΟΣ",
    "ος",
    "naïve",
    "日本語",
    "a",
    "zz",
    "chicago23",
    "",
    " ",
    "résumé",
];

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..WORDS.len(), 0..6).prop_map(|picks| {
        let mut s = String::new();
        for (i, p) in picks.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(WORDS[*p]);
        }
        s
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    (0u8..5, arb_text(), any::<i64>(), any::<bool>()).prop_map(|(kind, text, n, b)| match kind {
        0 => Value::Null,
        1 => Value::Int(n % 7),
        2 => Value::Float((n % 7) as f64),
        3 => Value::Bool(b),
        _ => Value::text(text),
    })
}

/// Text that stresses stage 0: the vocabulary's words (empty, Unicode,
/// case variants), whitespace-only runs, and strings over 64 chars (the
/// kernel's DP path).
fn arb_stage0_text() -> impl Strategy<Value = String> {
    (0u8..4, arb_text(), 0usize..4).prop_map(|(kind, text, n)| match kind {
        0 => " \t ".repeat(n),
        1 => format!("{text} {}", "日本語 résumé x".repeat(5 + n)),
        _ => text,
    })
}

proptest! {
    /// A row and an equal copy, built from separate `Arc<str>` allocations,
    /// score exactly 1.0 and match at every threshold up to 1.0, with the
    /// cascade (stage 0) and without it (the kernel).
    #[test]
    fn an_equal_copy_scores_exactly_one(
        a in arb_stage0_text(),
        b in prop::option::of(arb_stage0_text()),
        percent in 0u32..101,
    ) {
        let build = || {
            Tuple::new(vec![
                Value::Str(Arc::from(a.as_str())),
                b.as_deref().map_or(Value::Null, |b| Value::Str(Arc::from(b))),
            ])
        };
        let rows = [build(), build()];
        match (rows[0].value(AttrId(0)), rows[1].value(AttrId(0))) {
            (Value::Str(x), Value::Str(y)) => prop_assert!(!Arc::ptr_eq(x, y)),
            _ => unreachable!("the first attribute is text"),
        }
        let attrs = [AttrId(0), AttrId(1)];
        prop_assert_eq!(record_similarity(&rows[0], &rows[1], &attrs), 1.0);
        let config = ResolveConfig::on_attrs(Vec::new()).with_threshold(f64::from(percent) / 100.0);
        for config in [config.clone(), config.without_cascade()] {
            let block = resolve_block(&rows, &[RowId(0), RowId(1)], &attrs, &config, None);
            let decisions: Vec<MatchDecision> = block.decisions.iter().collect();
            prop_assert_eq!(
                decisions,
                vec![MatchDecision {
                    left: 0,
                    right: 1,
                    similarity: 1.0,
                    matched: true,
                    pruned: None,
                }]
            );
            // stage 0 counts as a computed pair, like a kernel run
            prop_assert_eq!(block.stats.dp_runs, 1);
        }
    }

    /// The cascade bounds dominate the true similarity on arbitrary record
    /// pairs — so no threshold can ever prune a matching pair.
    #[test]
    fn cascade_bounds_dominate_similarity(
        a0 in arb_value(), a1 in arb_value(),
        b0 in arb_value(), b1 in arb_value(),
    ) {
        let attrs = [AttrId(0), AttrId(1)];
        let ta = Tuple::new(vec![a0, a1]);
        let tb = Tuple::new(vec![b0, b1]);
        let fa = RecordFingerprint::of_tuple(&ta, &attrs);
        let fb = RecordFingerprint::of_tuple(&tb, &attrs);
        let actual = record_similarity(&ta, &tb, &attrs);
        let stage1 = fa.stage1_upper_bound(&fb);
        let stage2 = fa.stage2_upper_bound(&fb);
        // f64-exact comparisons: this is precisely the pruning predicate
        prop_assert!(stage1 >= actual, "stage1 {stage1} < actual {actual}");
        prop_assert!(stage2 >= actual, "stage2 {stage2} < actual {actual}");
        // and the bounds are symmetric, like the similarity itself
        prop_assert_eq!(stage1, fb.stage1_upper_bound(&fa));
        prop_assert_eq!(stage2, fb.stage2_upper_bound(&fa));
    }

    /// The bit-parallel Levenshtein dispatch agrees with the reference DP on
    /// arbitrary strings, across the ≤64 / >64 char boundary.
    #[test]
    fn myers_dispatch_matches_reference_dp(
        a in arb_text(),
        b in arb_text(),
        pad in 0usize..80,
    ) {
        let mut scratch = SimilarityScratch::new();
        let long_a = format!("{a}{}", "x".repeat(pad));
        prop_assert_eq!(
            relacc::resolve::levenshtein_with(&long_a, &b, &mut scratch),
            levenshtein_dp_with(&long_a, &b, &mut scratch)
        );
    }
}

fn assert_cascade_is_exact(relation: &Relation, config: &ResolveConfig, label: &str) {
    let cascade = resolve_relation(relation, config);
    let baseline = resolve_relation(relation, &config.clone().without_cascade());
    assert_eq!(cascade.members, baseline.members, "{label}: members");
    assert_eq!(
        cascade.entities.len(),
        baseline.entities.len(),
        "{label}: entity count"
    );
    for (c, b) in cascade.entities.iter().zip(baseline.entities.iter()) {
        assert_eq!(c.tuples(), b.tuples(), "{label}: entity rows");
    }
    assert_eq!(
        cascade.decisions.len(),
        baseline.decisions.len(),
        "{label}: pair count"
    );
    for (c, b) in cascade.decisions.iter().zip(baseline.decisions.iter()) {
        assert_eq!(
            (c.left, c.right, c.matched),
            (b.left, b.right, b.matched),
            "{label}: verdict of ({}, {})",
            c.left,
            c.right
        );
        if c.pruned.is_none() {
            assert_eq!(c.similarity, b.similarity, "{label}: exact similarity");
        }
    }
    // stats bookkeeping holds on every corpus
    let s = cascade.stats;
    assert_eq!(
        s.pruned_by_length + s.pruned_by_fingerprint + s.dp_runs,
        s.pairs_considered,
        "{label}: stats partition the pairs"
    );
}

#[test]
fn cascade_matches_baseline_on_med() {
    let stream = med_stream(0.02, 5, &StreamConfig::default());
    let config = ResolveConfig::on_attrs(stream.match_attrs.clone());
    assert_cascade_is_exact(&stream.relation, &config, "med/prefix");
    // exact-key blocking is what the differential suites run under
    let exact = config.with_strategy(relacc::resolve::BlockingStrategy::ExactKey);
    assert_cascade_is_exact(&stream.relation, &exact, "med/exact");
}

#[test]
fn cascade_matches_baseline_on_rest() {
    let stream = rest_stream(0.02, 9, &StreamConfig::default());
    let config = ResolveConfig::on_attrs(stream.match_attrs.clone());
    assert_cascade_is_exact(&stream.relation, &config, "rest/prefix");
}

#[test]
fn cascade_matches_baseline_and_prunes_on_large_blocks() {
    let data = large_blocks(&LargeBlocksConfig {
        n_blocks: 6,
        rows_per_block: 24,
        ..LargeBlocksConfig::default()
    });
    let config = ResolveConfig::on_attrs(data.match_attrs.clone()).with_threshold(data.threshold);
    assert_cascade_is_exact(&data.relation, &config, "large_blocks");
    // effectiveness floor: the shape is built so most pairs are prunable
    let resolved = resolve_relation(&data.relation, &config);
    assert!(
        resolved.stats.pruned_fraction() >= 0.5,
        "pruned fraction {:.3} below the gate floor",
        resolved.stats.pruned_fraction()
    );
    assert!(resolved.stats.dp_runs > 0, "true duplicates still align");
}

/// An exact-key corpus on `(name, city)` that mixes byte-identical match
/// values (in separate allocations), keys equal only after case and
/// whitespace normalization, null match values and all-null rows.
fn mixed_exact_key_corpus() -> Relation {
    let schema = Schema::builder("listing")
        .attr("name", DataType::Text)
        .attr("city", DataType::Text)
        .attr("phone", DataType::Int)
        .build();
    let text = |s: &str| Value::Str(Arc::from(s));
    let long = "Café de la Paix, Place de l'Opéra, 5 Rue Scribe, 75009 Paris 9e";
    let long_spaced = "Café de la  Paix, Place de l'Opéra, 5 Rue Scribe, 75009 Paris 9E";
    let rows: Vec<(Value, Value)> = vec![
        (text("Chez Panisse"), text("Berkeley")),
        (text("Chez Panisse"), text("Berkeley")),
        (text("chez  panisse"), text("BERKELEY ")),
        (text("Chez Panisse"), text("Berkeley")),
        (text("Chez Panisse"), Value::Null),
        (text("Chez Panisse"), Value::Null),
        (Value::Null, text("chez panisse")),
        (Value::Null, Value::Null),
        (Value::Null, Value::Null),
        (text(long), text("Paris")),
        (text(long_spaced), text("paris")),
        (text(long), text("Paris")),
        (text("日本語 キッチン"), text("東京")),
        (text("日本語 キッチン"), text("東京")),
        (text("日本語  キッチン"), text("東京")),
        (text("   "), text("x")),
        (text("   "), text("x")),
        (text(" "), text("x")),
    ];
    let rows = rows
        .into_iter()
        .enumerate()
        .map(|(phone, (name, city))| vec![name, city, Value::Int(phone as i64)])
        .collect();
    Relation::from_rows(schema, rows).unwrap()
}

#[test]
fn stage_zero_is_exact_on_a_mixed_exact_key_corpus() {
    let relation = mixed_exact_key_corpus();
    let rows = relation.rows();
    let base = ResolveConfig::on_attrs(vec!["name".into(), "city".into()])
        .with_strategy(BlockingStrategy::ExactKey);
    let attrs = base.similarity_attrs(relation.schema());
    let identical = |d: &MatchDecision| {
        attrs
            .iter()
            .all(|&a| rows[d.left].value(a) == rows[d.right].value(a))
    };
    for threshold in [0.0, 0.5, 0.82, 1.0, 1.1] {
        let config = base.clone().with_threshold(threshold);
        for config in [config.clone(), config.without_cascade()] {
            let label = format!("threshold {threshold}, cascade {}", config.cascade);
            let resolved = resolve_relation(&relation, &config);
            for d in &resolved.decisions {
                let kernel = record_similarity(&rows[d.left], &rows[d.right], &attrs);
                if d.pruned.is_none() {
                    assert_eq!(
                        d.similarity.to_bits(),
                        kernel.to_bits(),
                        "{label}: similarity of ({}, {})",
                        d.left,
                        d.right
                    );
                    assert_eq!(d.matched, kernel >= threshold, "{label}: verdict");
                } else {
                    assert!(!d.matched && kernel < threshold, "{label}: prune");
                }
            }
            // the corpus holds both kinds of in-block pair
            let same = resolved.decisions.iter().filter(|d| identical(d)).count();
            assert_eq!(same, 7, "{label}: identical pairs");
            assert_eq!(resolved.decisions.len() - same, 11, "{label}: other pairs");
            // all-null rows are never merged
            assert_eq!(
                resolved
                    .entity_of_record(7)
                    .map(|e| resolved.members[e].len()),
                Some(1)
            );

            // each block's triangle from resolve_block expands into the same
            // decisions, rebased to the block's rows
            for block in config.blocker(relation.schema()).blocks(rows) {
                let block_rows: Vec<Tuple> = block.iter().map(|&i| rows[i].clone()).collect();
                let ids: Vec<RowId> = block.iter().map(|&i| RowId(i as u64)).collect();
                let local = resolve_block(&block_rows, &ids, &attrs, &config, None);
                let rebased: Vec<MatchDecision> = local
                    .decisions
                    .iter()
                    .map(|d| MatchDecision {
                        left: block[d.left],
                        right: block[d.right],
                        ..d
                    })
                    .collect();
                let expected: Vec<MatchDecision> = resolved
                    .decisions
                    .iter()
                    .filter(|d| block.contains(&d.left))
                    .cloned()
                    .collect();
                assert_eq!(rebased, expected, "{label}: block {block:?}");
            }
        }
    }

    // two all-null rows compared as one block score the kernel's 0.0, not
    // stage 0's 1.0, even at threshold 0 (where 0.0 >= 0 matches them)
    let all_null = [rows[7].clone(), rows[8].clone()];
    for config in [
        base.clone().with_threshold(0.0),
        base.with_threshold(0.0).without_cascade(),
    ] {
        let block = resolve_block(&all_null, &[RowId(7), RowId(8)], &attrs, &config, None);
        let decisions: Vec<MatchDecision> = block.decisions.iter().collect();
        assert_eq!(
            decisions,
            vec![MatchDecision {
                left: 0,
                right: 1,
                similarity: 0.0,
                matched: true,
                pruned: None,
            }]
        );
    }
}
