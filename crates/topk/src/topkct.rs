//! Algorithm `TopKCT` (Fig. 5 of the paper): top-k candidate targets from
//! per-attribute value heaps, without requiring ranked lists.
//!
//! The key idea (Section 6.2): starting from the highest-scored assignment of
//! the null attributes `Z`, the next-best candidate always differs from some
//! already-generated candidate in exactly one attribute.  The frontier is kept
//! in a priority queue (our pairing heap stands in for the Brodal queue), the
//! per-attribute domains live in heaps `H_i` popped lazily into buffers `B_i`,
//! and a seen-set prevents duplicate generation.  Every popped tuple is
//! verified with `check` (a chase over the pre-computed grounding) before being
//! emitted.

use crate::candidates::{CandidateSearch, ScoredCandidate, TopKResult, TopKStats};
use relacc_core::chase::CheckScratch;
use relacc_heap::{F64Key, PairingHeap, Scored, ScoredHeap};
use relacc_model::Value;
use std::collections::HashSet;
use std::rc::Rc;

/// A frontier object: the buffer positions of its `Z` assignment (one per
/// attribute, so `buffers[i][positions[i]]` is its value of `Z_i`) and its
/// score.  The `Z` values themselves are built only when the object is
/// popped; the positions are shared with the seen-set.
///
/// Keying on positions is exact: every domain is pairwise distinct under
/// [`Value::same`] (`active_domain` and `candidate_domain` deduplicate
/// with it), and `Value`'s `Eq` implies `same` (floats compare by
/// `total_cmp` under both, NaN included), so distinct positions are
/// distinct assignments under the `Eq`/`Hash` a value-keyed seen-set used.
#[derive(Debug, Clone)]
struct FrontierObject {
    positions: Rc<[u32]>,
    score: f64,
}

/// Safety valve: the frontier expansion is exact but, when (almost) no
/// complete assignment passes `check`, it degenerates into enumerating the
/// whole cross-product of the domains — exponential in `|Z|`.  Mirroring the
/// cap `RankJoinCT` already applies to its join buffer, the frontier stops
/// *expanding* after this many generated assignments (already-queued ones are
/// still popped and checked), so one degenerate entity cannot exhaust memory
/// or wall-clock.  Far above anything the normal workloads reach (the
/// largest Med benchmark entity generates ~1.5k); results are unaffected
/// there.
const MAX_GENERATED: usize = 100_000;

/// Run `TopKCT` on a prepared candidate search, returning at most
/// `search.preference.k` candidate targets in non-increasing score order.
pub fn topkct(search: &CandidateSearch<'_>) -> TopKResult {
    topkct_with(search, &mut CheckScratch::new())
}

/// [`fn@topkct`] with a caller-provided check scratch, so batch and session
/// callers reuse the resumed-check buffers across invocations.
pub fn topkct_with(search: &CandidateSearch<'_>, scratch: &mut CheckScratch) -> TopKResult {
    topkct_capped(search, scratch, MAX_GENERATED)
}

fn topkct_capped(
    search: &CandidateSearch<'_>,
    scratch: &mut CheckScratch,
    max_generated: usize,
) -> TopKResult {
    let k = search.preference.k;
    let mut stats = TopKStats::default();
    if search.z.is_empty() {
        return search.complete_result(scratch);
    }
    let m = search.arity();

    // The heaps H_1..H_m, built in linear time from the candidate domains.
    let mut heaps: Vec<ScoredHeap<Value>> = search
        .domains
        .iter()
        .map(|d| ScoredHeap::heapify(d.clone()))
        .collect();
    // The buffers B_1..B_m of already-popped values.
    let mut buffers: Vec<Vec<Scored<Value>>> = Vec::with_capacity(m);
    for heap in &mut heaps {
        match heap.pop() {
            Some(top) => buffers.push(vec![top]),
            None => {
                // an attribute with an empty candidate domain admits no
                // complete candidate target at all
                stats.pops = heaps.iter().map(ScoredHeap::pop_count).sum();
                return TopKResult {
                    candidates: Vec::new(),
                    stats,
                };
            }
        }
    }

    let mut z_values: Vec<Value> = buffers.iter().map(|b| b[0].item.clone()).collect();
    let initial = FrontierObject {
        score: search.score(&search.assemble(&z_values)),
        positions: vec![0; m].into(),
    };

    let mut queue: PairingHeap<F64Key, FrontierObject> = PairingHeap::new();
    let mut seen: HashSet<Rc<[u32]>> = HashSet::new();
    seen.insert(Rc::clone(&initial.positions));
    queue.push(F64Key(initial.score), initial);
    stats.generated += 1;

    let mut candidates: Vec<ScoredCandidate> = Vec::new();
    let mut next: Vec<u32> = Vec::with_capacity(m);
    while candidates.len() < k {
        let Some((_, object)) = queue.pop() else {
            break;
        };
        z_values.clear();
        z_values.extend(
            object
                .positions
                .iter()
                .zip(&buffers)
                .map(|(&p, buffer)| buffer[p as usize].item.clone()),
        );
        let candidate = search.assemble(&z_values);
        if search.check(&candidate, scratch, &mut stats) {
            candidates.push(ScoredCandidate {
                score: object.score,
                target: candidate,
            });
        }
        // Expand: bump each attribute to its next-best value (unless the
        // safety valve tripped — then only drain what is already queued).
        if stats.generated >= max_generated {
            stats.capped = true;
            continue;
        }
        for i in 0..m {
            let pos = object.positions[i] as usize;
            if buffers[i].len() <= pos + 1 {
                match heaps[i].pop() {
                    Some(entry) => buffers[i].push(entry),
                    None => continue, // domain exhausted in this direction
                }
            }
            next.clear();
            next.extend_from_slice(&object.positions);
            next[i] += 1;
            if seen.contains(next.as_slice()) {
                continue;
            }
            let score = object.score - buffers[i][pos].score + buffers[i][pos + 1].score;
            let positions: Rc<[u32]> = Rc::from(next.as_slice());
            seen.insert(Rc::clone(&positions));
            queue.push(F64Key(score), FrontierObject { positions, score });
            stats.generated += 1;
        }
    }

    stats.pops = heaps.iter().map(ScoredHeap::pop_count).sum();
    TopKResult { candidates, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSearch;
    use crate::preference::PreferenceModel;
    use relacc_core::rules::{Predicate, RuleSet, TupleRule};
    use relacc_core::Specification;
    use relacc_model::{AttrId, CmpOp, DataType, EntityInstance, Schema};

    fn open_spec() -> Specification {
        let schema = Schema::builder("r")
            .attr("rnds", DataType::Int)
            .attr("team", DataType::Text)
            .attr("arena", DataType::Text)
            .build();
        let ie = EntityInstance::from_rows(
            schema.clone(),
            vec![
                vec![
                    Value::Int(16),
                    Value::text("Chicago"),
                    Value::text("Chicago Stadium"),
                ],
                vec![
                    Value::Int(27),
                    Value::text("Chicago Bulls"),
                    Value::text("United Center"),
                ],
                vec![
                    Value::Int(27),
                    Value::text("Chicago Bulls"),
                    Value::text("Regions Park"),
                ],
            ],
        )
        .unwrap();
        let rules = RuleSet::from_rules([TupleRule::new(
            "phi1",
            vec![Predicate::cmp_attrs(schema.expect_attr("rnds"), CmpOp::Lt)],
            schema.expect_attr("rnds"),
        )]);
        Specification::new(ie, rules)
    }

    #[test]
    fn returns_k_candidates_in_score_order() {
        let spec = open_spec();
        let search =
            CandidateSearch::prepare(&spec, PreferenceModel::occurrence(&spec, 3)).unwrap();
        let result = topkct(&search);
        assert_eq!(result.candidates.len(), 3);
        // highest scored candidate: team=Chicago Bulls (2), arena free (1 each)
        assert_eq!(
            result.candidates[0].target.value(AttrId(1)),
            &Value::text("Chicago Bulls")
        );
        for w in result.candidates.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // every candidate passes check and completes the deduced target
        assert!(result
            .candidates
            .iter()
            .all(|c| c.target.value(AttrId(0)) == &Value::Int(27)));
        assert!(result.stats.checks >= 3);
        assert!(result.stats.pops >= 2);
        assert!(result.stats.generated >= 3);
    }

    #[test]
    fn exhausts_search_space_when_k_is_large() {
        let spec = open_spec();
        let search =
            CandidateSearch::prepare(&spec, PreferenceModel::occurrence(&spec, 100)).unwrap();
        let result = topkct(&search);
        // 2 team values × 3 arena values = 6 complete assignments
        assert_eq!(result.candidates.len(), 6);
        let mut unique: Vec<_> = result.candidates.iter().map(|c| c.target.clone()).collect();
        unique.dedup();
        assert_eq!(unique.len(), 6);
    }

    #[test]
    fn frontier_cap_bounds_degenerate_searches() {
        // A 12×12 assignment space with k larger than the space: the valve
        // (exercised here with an artificially small cap) must stop the
        // frontier from expanding while still draining — and checking —
        // everything already queued.
        let schema = Schema::builder("r")
            .attr("a", DataType::Int)
            .attr("x", DataType::Text)
            .attr("y", DataType::Text)
            .build();
        let rows: Vec<Vec<Value>> = (0..12)
            .map(|i| {
                vec![
                    Value::Int(i % 3),
                    Value::text(format!("x{i}")),
                    Value::text(format!("y{i}")),
                ]
            })
            .collect();
        let ie = EntityInstance::from_rows(schema.clone(), rows).unwrap();
        let rules = RuleSet::from_rules([TupleRule::new(
            "cur",
            vec![Predicate::cmp_attrs(AttrId(0), CmpOp::Lt)],
            AttrId(0),
        )]);
        let spec = Specification::new(ie, rules);
        let search =
            CandidateSearch::prepare(&spec, PreferenceModel::occurrence(&spec, 1000)).unwrap();
        assert_eq!(search.z, vec![AttrId(1), AttrId(2)]);
        let mut scratch = relacc_core::chase::CheckScratch::new();
        let capped = topkct_capped(&search, &mut scratch, 10);
        // the cap stops expansion: some of the 12×12 assignments are never
        // generated, but everything queued was drained and checked — and the
        // truncation is observable on the stats
        assert!(capped.stats.capped);
        assert!(capped.stats.generated <= 10 + search.arity());
        assert!(capped.candidates.len() <= capped.stats.generated);
        assert!(!capped.candidates.is_empty());
        // the uncapped run on the same spec finds the full cross-product
        let full = topkct(&search);
        assert!(!full.stats.capped);
        assert_eq!(full.candidates.len(), 144);
        assert!(full.stats.generated > capped.stats.generated);
    }

    #[test]
    fn k_one_returns_the_best_assignment() {
        let spec = open_spec();
        let search =
            CandidateSearch::prepare(&spec, PreferenceModel::occurrence(&spec, 1)).unwrap();
        let result = topkct(&search);
        assert_eq!(result.candidates.len(), 1);
        let best = &result.candidates[0];
        assert_eq!(best.target.value(AttrId(1)), &Value::text("Chicago Bulls"));
        assert_eq!(best.score, 2.0 + 2.0 + 1.0);
    }
}
