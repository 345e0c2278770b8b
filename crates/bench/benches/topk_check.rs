//! `topk_check`: from-scratch vs checkpointed candidate checks.
//!
//! The `check` procedure dominates the top-k algorithms' runtime (Section 6).
//! This bench measures one check both ways — `CandidateSearch::check_full`
//! (re-chase the whole grounding) vs `CandidateSearch::check` (resume from
//! the base-run checkpoint) — on a synthetic family varying `|Z|` and the
//! candidate-domain size, and on the Rest corpus, single- and multi-threaded.
//!
//! Besides the human-readable group output, the run writes the machine-
//! readable `BENCH_topk.json` at the workspace root (median ns per check,
//! checks/sec at 1/N threads, delta-vs-full replayed-step counts and the
//! measured speedup ratio on Rest) so the perf trajectory is tracked across
//! PRs.  Set `RELACC_BENCH_SMOKE=1` for a one-iteration smoke run — smoke
//! reports land under `target/` so they never clobber the committed numbers
//! (see `relacc_bench::bench_output_path`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use relacc_core::chase::chase_with_grounding;
use relacc_core::rules::{Predicate, RuleSet, TupleRule};
use relacc_core::Specification;
use relacc_datagen::rest::{rest, RestConfig};
use relacc_engine::par_map_with;
use relacc_model::{CmpOp, DataType, EntityInstance, Schema, TargetTuple, Value};
use relacc_topk::{CandidateSearch, CheckScratch, PreferenceModel, TopKStats};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use relacc_bench::{median, smoke_mode as smoke, write_report};

/// A synthetic open entity: one currency-resolved int column plus three text
/// columns, of which `m` stay open with `d` distinct values each (the other
/// text columns are constant, so ϕ9 resolves them and they leave `Z`).
fn synthetic_spec(m: usize, d: usize) -> Specification {
    let schema = Schema::builder("syn")
        .attr("cur", DataType::Int)
        .attr("z1", DataType::Text)
        .attr("z2", DataType::Text)
        .attr("z3", DataType::Text)
        .build();
    let rows: Vec<Vec<Value>> = (0..d.max(2))
        .map(|i| {
            let open = |attr: usize| {
                if attr < m {
                    Value::text(format!("v{attr}_{}", i % d))
                } else {
                    Value::text("fixed")
                }
            };
            vec![Value::Int(i as i64), open(0), open(1), open(2)]
        })
        .collect();
    let ie = EntityInstance::from_rows(schema.clone(), rows).unwrap();
    let rules = RuleSet::from_rules([TupleRule::new(
        "cur",
        vec![Predicate::cmp_attrs(schema.expect_attr("cur"), CmpOp::Lt)],
        schema.expect_attr("cur"),
    )]);
    Specification::new(ie, rules)
}

/// Up to `cap` complete candidates from the cross-product of the domains.
fn candidates_of(search: &CandidateSearch<'_>, cap: usize) -> Vec<TargetTuple> {
    let mut combos: Vec<Vec<Value>> = vec![Vec::new()];
    for domain in &search.domains {
        let mut next = Vec::new();
        'outer: for prefix in &combos {
            for entry in domain {
                let mut assignment = prefix.clone();
                assignment.push(entry.item.clone());
                next.push(assignment);
                if next.len() >= cap {
                    break 'outer;
                }
            }
        }
        combos = next;
    }
    combos
        .into_iter()
        .filter(|z| z.len() == search.arity())
        .map(|z| search.assemble(&z))
        .collect()
}

fn bench_synthetic(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_check/synthetic");
    group.sample_size(if smoke() { 1 } else { 15 });
    for m in [1usize, 2, 3] {
        for d in [4usize, 16] {
            let spec = synthetic_spec(m, d);
            let preference = PreferenceModel::occurrence(&spec, 5);
            let search = CandidateSearch::prepare(&spec, preference).expect("Church-Rosser");
            assert_eq!(search.arity(), m, "|Z| must match the requested m");
            let candidates = candidates_of(&search, 32);
            let label = format!("z{m}_d{d}");
            group.bench_with_input(
                BenchmarkId::new("full", &label),
                &candidates,
                |b, candidates| {
                    let mut stats = TopKStats::default();
                    b.iter(|| {
                        for candidate in candidates {
                            black_box(search.check_full(candidate, &mut stats));
                        }
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("delta", &label),
                &candidates,
                |b, candidates| {
                    let mut stats = TopKStats::default();
                    let mut scratch = CheckScratch::new();
                    b.iter(|| {
                        for candidate in candidates {
                            black_box(search.check(candidate, &mut scratch, &mut stats));
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_synthetic);

/// One open Rest entity prepared for checking: specification + enumerated
/// candidates.
struct RestEntity {
    spec: Specification,
    candidates: Vec<TargetTuple>,
}

fn rest_entities() -> Vec<RestEntity> {
    let scale = if smoke() { 0.005 } else { 0.02 };
    let data = rest(&RestConfig::scaled(scale, 11));
    let rules = Arc::new(data.rules.clone());
    let mut out = Vec::new();
    for restaurant in &data.restaurants {
        let spec = Specification::new(restaurant.instance.clone(), rules.clone());
        let preference = PreferenceModel::occurrence(&spec, 5);
        let Ok(search) = CandidateSearch::prepare(&spec, preference) else {
            continue;
        };
        if search.z.is_empty() {
            continue;
        }
        let candidates = candidates_of(&search, 24);
        if candidates.is_empty() {
            continue;
        }
        drop(search);
        out.push(RestEntity { spec, candidates });
        if out.len() >= if smoke() { 4 } else { 48 } {
            break;
        }
    }
    out
}

/// Measure ns/check over the Rest entities with `runs` samples.
fn measure_rest(entities: &[RestEntity], runs: usize, delta: bool) -> (f64, usize, usize) {
    // prepare searches once: the base chase / checkpoint capture is shared by
    // all candidates of an entity in both modes
    let searches: Vec<CandidateSearch<'_>> = entities
        .iter()
        .map(|e| {
            let preference = PreferenceModel::occurrence(&e.spec, 5);
            CandidateSearch::prepare(&e.spec, preference).expect("Rest entities are CR")
        })
        .collect();
    let mut samples = Vec::with_capacity(runs);
    let mut stats = TopKStats::default();
    let mut scratch = CheckScratch::new();
    let mut checks = 0usize;
    for _ in 0..runs {
        let start = Instant::now();
        for (entity, search) in entities.iter().zip(searches.iter()) {
            for candidate in &entity.candidates {
                if delta {
                    black_box(search.check(candidate, &mut scratch, &mut stats));
                } else {
                    black_box(search.check_full(candidate, &mut stats));
                }
                checks += 1;
            }
        }
        samples.push(start.elapsed().as_nanos() as f64);
    }
    let per_run_checks: usize = entities.iter().map(|e| e.candidates.len()).sum();
    let mut per_check: Vec<f64> = samples
        .iter()
        .map(|total| total / per_run_checks.max(1) as f64)
        .collect();
    (median(&mut per_check), checks, stats.delta_steps_replayed)
}

/// Checks/sec over the corpus with the engine's worker pool.  The corpus is
/// repeated so the task list is long enough to amortize thread startup (one
/// task = prepare one entity's search, then check all its candidates — the
/// batch engine's suggestion-path shape).
fn measure_parallel(entities: &[RestEntity], threads: usize) -> f64 {
    let passes = if smoke() { 1 } else { 40 };
    let tasks: Vec<&RestEntity> = (0..passes).flat_map(|_| entities.iter()).collect();
    let start = Instant::now();
    let counts = par_map_with(&tasks, threads, CheckScratch::new, |scratch, _, entity| {
        let preference = PreferenceModel::occurrence(&entity.spec, 5);
        let search =
            CandidateSearch::prepare(&entity.spec, preference).expect("Rest entities are CR");
        let mut stats = TopKStats::default();
        let mut done = 0usize;
        for candidate in &entity.candidates {
            black_box(search.check(candidate, scratch, &mut stats));
            done += 1;
        }
        done
    });
    let total: usize = counts.iter().sum();
    total as f64 / start.elapsed().as_secs_f64()
}

/// Total steps a from-scratch check replays (for the delta-vs-full step
/// comparison): every check re-considers the steps of the whole chase.
fn full_steps(entities: &[RestEntity]) -> usize {
    let mut total = 0usize;
    for entity in entities {
        let orders = relacc_model::AccuracyOrders::new(&entity.spec.ie);
        let grounding = relacc_core::chase::ground(&entity.spec, &orders);
        for candidate in &entity.candidates {
            let run = chase_with_grounding(&entity.spec, &grounding, candidate);
            total += run.stats.steps_considered;
        }
    }
    total
}

fn json_escape_free(label: &str) -> &str {
    debug_assert!(!label.contains('"') && !label.contains('\\'));
    label
}

fn rest_report() {
    let entities = rest_entities();
    if entities.is_empty() {
        eprintln!("topk_check/rest: no open entities generated, skipping JSON report");
        return;
    }
    let runs = if smoke() { 1 } else { 7 };
    let (full_ns, _, _) = measure_rest(&entities, runs, false);
    let (delta_ns, delta_checks, delta_steps) = measure_rest(&entities, runs, true);
    let full_step_total = full_steps(&entities);
    let candidate_total: usize = entities.iter().map(|e| e.candidates.len()).sum();
    let ratio = if delta_ns > 0.0 {
        full_ns / delta_ns
    } else {
        0.0
    };
    let threads = 4usize;
    let single = measure_parallel(&entities, 1);
    let multi = measure_parallel(&entities, threads);

    println!(
        "topk_check/rest: {candidate_total} candidates over {} entities — \
         full {full_ns:.0} ns/check, delta {delta_ns:.0} ns/check ({ratio:.1}x), \
         {single:.0} checks/s @1 thread, {multi:.0} checks/s @{threads} threads",
        entities.len()
    );

    let corpus = json_escape_free("rest");
    let json = format!(
        "{{\n  \"bench\": \"topk_check\",\n  \"corpus\": \"{corpus}\",\n  \
         \"entities\": {},\n  \"candidates\": {candidate_total},\n  \
         \"full_ns_per_check_median\": {full_ns:.1},\n  \
         \"delta_ns_per_check_median\": {delta_ns:.1},\n  \
         \"delta_vs_full_speedup\": {ratio:.2},\n  \
         \"checks_per_sec_1_thread\": {single:.1},\n  \
         \"checks_per_sec_{threads}_threads\": {multi:.1},\n  \
         \"full_steps_considered_total\": {full_step_total},\n  \
         \"delta_steps_replayed_total\": {},\n  \
         \"delta_checks_measured\": {delta_checks},\n  \
         \"smoke\": {}\n}}\n",
        entities.len(),
        delta_steps,
        smoke(),
    );
    write_report("topk_check", "BENCH_topk.json", &json);
}

fn main() {
    benches();
    rest_report();
}
