//! Pins every `TopKCT` search of the Med seed repair (scale 0.05, corpus
//! seed 7, the med-ingest benchmark's corpus) by digest: each search's
//! candidates with their score bits, plus its `TopKStats`.
//!
//! The searches run exactly as the batch engine's suggestion path runs them
//! (one worker scratch, checkpointed checks, occurrence preference with the
//! default `k = 5`), so a change to the frontier's layout that moved which
//! objects are generated, popped or checked, or any candidate's score by
//! one bit, moves the digest.

use relacc::core::chase::{ChaseCheckpoint, ChaseScratch, CheckpointOutcome};
use relacc::datagen::streaming::{med_stream, StreamConfig};
use relacc::engine::BatchEngine;
use relacc::resolve::{resolve_relation, BlockingStrategy, ResolveConfig};
use relacc::topk::{topkct_with, CandidateSearch, PreferenceModel};
use std::fmt::Write;
use std::sync::Arc;

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[test]
fn med_seed_repair_searches_are_pinned_by_digest() {
    let stream = med_stream(0.05, 7, &StreamConfig::default());
    let engine = BatchEngine::new(
        stream.relation.schema().clone(),
        stream.rules.clone(),
        stream.master.clone().into_iter().collect(),
    )
    .expect("generated rules validate");
    let plan = engine.plan();
    let resolve = ResolveConfig::on_attrs(stream.match_attrs.clone())
        .with_strategy(BlockingStrategy::ExactKey);
    let resolved = resolve_relation(&stream.relation, &resolve);

    let k = engine.config().suggestion_k;
    let mut scratch = ChaseScratch::new();
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut searches, mut generated) = (0usize, 0usize);
    for ie in &resolved.entities {
        let CheckpointOutcome::Ready(checkpoint) = plan.checkpoint_with(ie, &mut scratch).outcome
        else {
            continue;
        };
        if checkpoint.target().is_complete() {
            scratch.restore_index(checkpoint.into_index());
            continue;
        }
        let spec = plan.specification(ie.clone());
        let preference = PreferenceModel::occurrence(&spec, k);
        let checkpoint: Arc<ChaseCheckpoint> = Arc::from(checkpoint);
        let result = {
            let (grounding, check) = scratch.grounding_and_check();
            let search = CandidateSearch::prepare_with_checkpoint(
                &spec,
                grounding,
                checkpoint.clone(),
                preference,
            )
            .expect("preparing over a captured checkpoint cannot fail");
            topkct_with(&search, check)
        };
        if let Ok(checkpoint) = Arc::try_unwrap(checkpoint) {
            scratch.restore_index(checkpoint.into_index());
        }
        write!(fnv, "{searches}:{:?}", result.stats).unwrap();
        for candidate in &result.candidates {
            write!(
                fnv,
                "|{:016x}{:?}",
                candidate.score.to_bits(),
                candidate.target
            )
            .unwrap();
        }
        searches += 1;
        generated += result.stats.generated;
    }
    assert_eq!(
        (searches, generated),
        (265, 100_218),
        "search count and generated objects"
    );
    assert_eq!(
        fnv.0, 0x5c98_4ef1_ca37_0bb7,
        "digest of every seed-repair search"
    );
}
