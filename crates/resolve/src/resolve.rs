//! Entity resolution: split a dirty relation into per-entity instances.
//!
//! The paper assumes its input `Ie` has already been "identified by entity
//! resolution techniques" (Section 2.1).  This module provides that substrate:
//! blocking (so only plausible pairs are compared), pairwise record matching on
//! a similarity threshold, and union-find clustering so that matching is
//! transitive within a block.

use crate::blocking::{Blocker, BlockingStrategy};
use crate::fingerprint::RecordFingerprint;
use crate::similarity::{record_similarity_with, SimilarityScratch};
use relacc_model::{AttrId, EntityInstance, Tuple};
use relacc_store::Relation;

/// Configuration of the resolution pass.
#[derive(Debug, Clone)]
pub struct ResolveConfig {
    /// Names of the attributes records are matched on (typically the key /
    /// identifying attributes).  Unknown names are ignored.
    pub match_attrs: Vec<String>,
    /// Minimum record similarity for two records to be declared a match.
    pub threshold: f64,
    /// Blocking strategy (defaults to a 6-character key prefix, which tolerates
    /// typographic noise while keeping blocks small).
    pub strategy: BlockingStrategy,
    /// Run the fingerprint cascade (length/popcount upper bounds, see
    /// [`crate::fingerprint`]) before any string alignment.  The cascade is
    /// exact — identical clustering either way — so this is on by default
    /// and exists as a switch for differential tests and baseline
    /// benchmarks.
    pub cascade: bool,
}

impl ResolveConfig {
    /// A configuration matching on the given attributes with the default
    /// threshold (0.82) and prefix blocking.
    pub fn on_attrs(match_attrs: Vec<String>) -> Self {
        ResolveConfig {
            match_attrs,
            threshold: 0.82,
            strategy: BlockingStrategy::Prefix(6),
            cascade: true,
        }
    }

    /// Override the match threshold.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Override the blocking strategy.
    pub fn with_strategy(mut self, strategy: BlockingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Disable the fingerprint cascade: every in-block pair goes straight to
    /// the full similarity computation.  Output is identical (the cascade is
    /// exact); only [`ResolveStats`] and per-pair costs differ.
    pub fn without_cascade(mut self) -> Self {
        self.cascade = false;
        self
    }

    /// The attribute ids record similarity is computed over: the resolved
    /// match attributes, falling back to *all* attributes when none of the
    /// names resolve — exactly the list [`resolve_relation`] compares (and
    /// fingerprints) with, exposed so callers caching fingerprints use the
    /// identical attribute order.
    pub fn similarity_attrs(&self, schema: &relacc_model::SchemaRef) -> Vec<AttrId> {
        let resolved: Vec<AttrId> = self
            .match_attrs
            .iter()
            .filter_map(|name| schema.attr_id(name))
            .collect();
        if resolved.is_empty() {
            schema.attr_ids().collect()
        } else {
            resolved
        }
    }

    /// The [`Blocker`] this configuration partitions a relation of `schema`
    /// with: the match attributes resolved to ids (unknown names ignored,
    /// like [`resolve_relation`] does) under the configured strategy.
    ///
    /// Exposed so callers that need block identities *outside* a resolution
    /// pass — the incremental engine's dirty-block index and its epochs'
    /// point reads — construct the exact same blocker and can never drift
    /// from the resolution pipeline.
    pub fn blocker(&self, schema: &relacc_model::SchemaRef) -> Blocker {
        let match_attrs: Vec<AttrId> = self
            .match_attrs
            .iter()
            .filter_map(|name| schema.attr_id(name))
            .collect();
        Blocker::new(match_attrs, self.strategy.clone())
    }
}

/// Which cascade stage pruned a pair short of the full similarity
/// computation (see [`crate::fingerprint`] for the bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneStage {
    /// Stage 1: count-only bounds (char lengths, distinct-token counts,
    /// null pattern, scalar hash).
    Length,
    /// Stage 2: popcount set bounds over the packed fingerprints.
    Fingerprint,
}

/// The decision made for one compared record pair (exposed for diagnostics and
/// threshold tuning).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchDecision {
    /// Index of the first record in the input relation.
    pub left: usize,
    /// Index of the second record.
    pub right: usize,
    /// Their record similarity — exact for pairs that reached the full
    /// computation, the pruning stage's **upper bound** for pruned pairs
    /// (the bound is below the threshold, which is all a non-match needs).
    pub similarity: f64,
    /// Whether the pair was merged.
    pub matched: bool,
    /// `Some(stage)` when the cascade pruned the pair before any string
    /// alignment; `None` for fully computed pairs.
    pub pruned: Option<PruneStage>,
}

/// Counters of one resolution pass — how far each compared pair made it
/// through the cascade.  Pruning is observable, not assumed: benchmarks and
/// the CI gate read these instead of trusting the speedup to imply them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Record pairs compared (all in-block pairs).
    pub pairs_considered: usize,
    /// Pairs discarded by the stage-1 count bounds.
    pub pruned_by_length: usize,
    /// Pairs discarded by the stage-2 popcount fingerprint bounds.
    pub pruned_by_fingerprint: usize,
    /// Pairs that ran the full similarity computation (bit-parallel or DP
    /// alignment plus token Jaccard).
    pub dp_runs: usize,
}

impl ResolveStats {
    /// Fold another pass's counters into this one (block-wise aggregation).
    pub fn merge(&mut self, other: &ResolveStats) {
        self.pairs_considered += other.pairs_considered;
        self.pruned_by_length += other.pruned_by_length;
        self.pruned_by_fingerprint += other.pruned_by_fingerprint;
        self.dp_runs += other.dp_runs;
    }

    /// Fraction of considered pairs pruned before the full computation
    /// (0.0 when nothing was considered).
    pub fn pruned_fraction(&self) -> f64 {
        if self.pairs_considered == 0 {
            0.0
        } else {
            (self.pruned_by_length + self.pruned_by_fingerprint) as f64
                / self.pairs_considered as f64
        }
    }
}

/// The output of [`resolve_relation`].
#[derive(Debug, Clone)]
pub struct ResolvedEntities {
    /// One entity instance per discovered cluster, in order of the smallest
    /// contained record index.
    pub entities: Vec<EntityInstance>,
    /// For every entity, the indices of the input records it contains.
    pub members: Vec<Vec<usize>>,
    /// Every pairwise comparison that was performed.
    pub decisions: Vec<MatchDecision>,
    /// Cascade counters of the pass that produced this output.
    pub stats: ResolveStats,
    /// record index → entity index, derived from `members` at construction
    /// so [`Self::entity_of_record`] is O(1) instead of a scan per call.
    entity_by_record: Vec<usize>,
}

impl ResolvedEntities {
    /// Assemble from parts, deriving the record → entity map.  `members`
    /// must partition the input record indices (every resolution output
    /// does); records not covered report no entity.
    pub fn from_parts(
        entities: Vec<EntityInstance>,
        members: Vec<Vec<usize>>,
        decisions: Vec<MatchDecision>,
        stats: ResolveStats,
    ) -> Self {
        let n = members
            .iter()
            .flat_map(|m| m.iter())
            .max()
            .map_or(0, |&max| max + 1);
        let mut entity_by_record = vec![usize::MAX; n];
        for (entity, records) in members.iter().enumerate() {
            for &record in records {
                entity_by_record[record] = entity;
            }
        }
        ResolvedEntities {
            entities,
            members,
            decisions,
            stats,
            entity_by_record,
        }
    }

    /// Number of input records that were compared at least once.
    pub fn compared_pairs(&self) -> usize {
        self.decisions.len()
    }

    /// The entity index a given input record ended up in.
    pub fn entity_of_record(&self, record: usize) -> Option<usize> {
        self.entity_by_record
            .get(record)
            .copied()
            .filter(|&entity| entity != usize::MAX)
    }
}

/// Disjoint-set forest with path compression and union by size.
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // path compression
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
    }
}

/// Resolve a relation into entity instances.
///
/// Records are blocked on the match attributes; every pair inside a block
/// runs the three-stage similarity cascade: (1) count bounds (length, token
/// counts, nulls), (2) popcount fingerprint bounds, (3) the full
/// [`record_similarity`](crate::similarity::record_similarity) — bit-parallel
/// Levenshtein for strings up to 64 chars, two-row DP above.  Stages 1 and 2
/// are exact filters (a pruned pair is provably below the threshold, see
/// [`crate::fingerprint`]), so the clustering is identical to comparing
/// every pair in full.  Pairs at or above the threshold are merged, and the
/// transitive closure of the merges (union-find) defines the entities.  Each
/// entity instance keeps the full rows of its records under the input
/// schema, ready to be wrapped in a `Specification`.
///
/// Fingerprints are computed here, once per record.  Callers that already
/// hold fingerprints for these rows (the incremental engine's block cache)
/// use [`resolve_relation_with_fingerprints`] instead.
pub fn resolve_relation(relation: &Relation, config: &ResolveConfig) -> ResolvedEntities {
    if !config.cascade {
        return resolve_inner(relation, config, None);
    }
    let attrs = config.similarity_attrs(relation.schema());
    let fingerprints: Vec<RecordFingerprint> = relation
        .rows()
        .iter()
        .map(|row| RecordFingerprint::of_tuple(row, &attrs))
        .collect();
    resolve_inner(relation, config, Some(&fingerprints))
}

/// [`resolve_relation`] over caller-supplied fingerprints — one per row of
/// `relation`, computed with [`RecordFingerprint::of_tuple`] over
/// [`ResolveConfig::similarity_attrs`].  This is the steady-state streaming
/// entry point: the incremental engine caches fingerprints per block so only
/// freshly inserted rows ever pay the fingerprinting cost.
///
/// # Panics
/// If `fingerprints` is not parallel to `relation.rows()`.
pub fn resolve_relation_with_fingerprints(
    relation: &Relation,
    config: &ResolveConfig,
    fingerprints: &[RecordFingerprint],
) -> ResolvedEntities {
    assert_eq!(
        fingerprints.len(),
        relation.len(),
        "one fingerprint per row"
    );
    resolve_inner(relation, config, Some(fingerprints))
}

fn resolve_inner(
    relation: &Relation,
    config: &ResolveConfig,
    fingerprints: Option<&[RecordFingerprint]>,
) -> ResolvedEntities {
    let schema = relation.schema().clone();
    let match_attrs: Vec<AttrId> = config
        .match_attrs
        .iter()
        .filter_map(|name| schema.attr_id(name))
        .collect();
    let rows: &[Tuple] = relation.rows();

    let blocker = Blocker::new(match_attrs.clone(), config.strategy.clone());
    let blocks = blocker.blocks(rows);

    let mut uf = UnionFind::new(rows.len());
    let mut decisions = Vec::new();
    let mut stats = ResolveStats::default();
    // whole-record fallback attributes, computed once instead of per pair
    let all_attrs: Vec<AttrId> = if match_attrs.is_empty() {
        schema.attr_ids().collect()
    } else {
        Vec::new()
    };
    // one similarity scratch serves every O(block²) comparison of the pass
    let mut scratch = SimilarityScratch::new();
    for block in &blocks {
        for i in 0..block.len() {
            for j in (i + 1)..block.len() {
                let (a, b) = (block[i], block[j]);
                let attrs = if match_attrs.is_empty() {
                    &all_attrs
                } else {
                    &match_attrs
                };
                stats.pairs_considered += 1;
                // the cascade: prune on an upper bound strictly below the
                // threshold (`matched` tests `>=`, so `ub < threshold`
                // proves the pair unmatched), else fall through
                let (similarity, matched, pruned) = match fingerprints {
                    Some(fps) => {
                        let stage1 = fps[a].stage1_upper_bound(&fps[b]);
                        if stage1 < config.threshold {
                            stats.pruned_by_length += 1;
                            (stage1, false, Some(PruneStage::Length))
                        } else {
                            let stage2 = fps[a].stage2_upper_bound(&fps[b]);
                            if stage2 < config.threshold {
                                stats.pruned_by_fingerprint += 1;
                                (stage2, false, Some(PruneStage::Fingerprint))
                            } else {
                                stats.dp_runs += 1;
                                let similarity =
                                    record_similarity_with(&rows[a], &rows[b], attrs, &mut scratch);
                                (similarity, similarity >= config.threshold, None)
                            }
                        }
                    }
                    None => {
                        stats.dp_runs += 1;
                        let similarity =
                            record_similarity_with(&rows[a], &rows[b], attrs, &mut scratch);
                        (similarity, similarity >= config.threshold, None)
                    }
                };
                if matched {
                    uf.union(a, b);
                }
                decisions.push(MatchDecision {
                    left: a,
                    right: b,
                    similarity,
                    matched,
                    pruned,
                });
            }
        }
    }

    // collect clusters in order of their smallest member
    let mut cluster_of_root: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for idx in 0..rows.len() {
        let root = uf.find(idx);
        let cluster = *cluster_of_root.entry(root).or_insert_with(|| {
            members.push(Vec::new());
            members.len() - 1
        });
        members[cluster].push(idx);
    }

    let mut entities = Vec::with_capacity(members.len());
    for cluster in &members {
        let mut instance = EntityInstance::new(schema.clone());
        for &idx in cluster {
            instance
                .push_tuple(rows[idx].clone())
                .expect("rows conform to their own schema");
        }
        entities.push(instance);
    }

    ResolvedEntities::from_parts(entities, members, decisions, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relacc_model::{DataType, Schema, Value};

    fn player_relation() -> Relation {
        let schema = Schema::builder("stat")
            .attr("name", DataType::Text)
            .attr("team", DataType::Text)
            .attr("rnds", DataType::Int)
            .build();
        Relation::from_rows(
            schema,
            vec![
                vec![
                    Value::text("Michael Jordan"),
                    Value::text("Chicago"),
                    Value::Int(16),
                ],
                vec![
                    Value::text("Michael  Jordan"),
                    Value::text("Chicago Bulls"),
                    Value::Int(27),
                ],
                vec![
                    Value::text("M. Jordan"),
                    Value::text("Chicago Bulls"),
                    Value::Int(1),
                ],
                vec![
                    Value::text("Scottie Pippen"),
                    Value::text("Chicago Bulls"),
                    Value::Int(27),
                ],
                vec![
                    Value::text("Patrick Ewing"),
                    Value::text("New York Knicks"),
                    Value::Int(30),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn resolves_obvious_duplicates_and_keeps_distinct_players_apart() {
        let relation = player_relation();
        let config = ResolveConfig::on_attrs(vec!["name".into()]).with_threshold(0.6);
        let resolved = resolve_relation(&relation, &config);
        // "M. Jordan" lands in a different block (prefix differs), so we expect
        // the two spelled-out Jordans together and everyone else apart.
        assert_eq!(resolved.entity_of_record(0), resolved.entity_of_record(1));
        assert_ne!(resolved.entity_of_record(0), resolved.entity_of_record(3));
        assert_ne!(resolved.entity_of_record(3), resolved.entity_of_record(4));
        // every record is in exactly one entity
        let total: usize = resolved.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, relation.len());
    }

    #[test]
    fn high_threshold_keeps_everything_separate() {
        let relation = player_relation();
        let config = ResolveConfig::on_attrs(vec!["name".into()]).with_threshold(1.1);
        let resolved = resolve_relation(&relation, &config);
        assert_eq!(resolved.entities.len(), relation.len());
        assert!(resolved.decisions.iter().all(|d| !d.matched));
    }

    #[test]
    fn exact_key_strategy_merges_only_identical_keys() {
        let relation = player_relation();
        let config = ResolveConfig::on_attrs(vec!["name".into()])
            .with_strategy(BlockingStrategy::ExactKey)
            .with_threshold(0.9);
        let resolved = resolve_relation(&relation, &config);
        // exact keys differ for every row except via normalization of spaces
        assert_eq!(resolved.entity_of_record(0), resolved.entity_of_record(1));
        assert_eq!(resolved.entities.len(), 4);
    }

    #[test]
    fn blocking_limits_the_number_of_comparisons() {
        let relation = player_relation();
        let config = ResolveConfig::on_attrs(vec!["name".into()]);
        let resolved = resolve_relation(&relation, &config);
        let n = relation.len();
        assert!(resolved.compared_pairs() < n * (n - 1) / 2);
    }

    #[test]
    fn unknown_match_attributes_fall_back_to_whole_record() {
        let relation = player_relation();
        let config = ResolveConfig::on_attrs(vec!["no_such_attr".into()]).with_threshold(0.95);
        let resolved = resolve_relation(&relation, &config);
        // nothing merges at such a high whole-record threshold, but the call
        // must not panic and must still cover every record
        let total: usize = resolved.members.iter().map(|m| m.len()).sum();
        assert_eq!(total, relation.len());
    }

    #[test]
    fn cascade_and_baseline_agree_and_stats_add_up() {
        let relation = player_relation();
        for threshold in [0.3, 0.6, 0.82, 0.95] {
            let config = ResolveConfig::on_attrs(vec!["name".into()]).with_threshold(threshold);
            let cascade = resolve_relation(&relation, &config);
            let baseline = resolve_relation(&relation, &config.clone().without_cascade());
            assert_eq!(cascade.members, baseline.members, "threshold {threshold}");
            assert_eq!(cascade.decisions.len(), baseline.decisions.len());
            for (c, b) in cascade.decisions.iter().zip(baseline.decisions.iter()) {
                assert_eq!((c.left, c.right, c.matched), (b.left, b.right, b.matched));
                if c.pruned.is_none() {
                    assert_eq!(c.similarity, b.similarity, "unpruned pairs are exact");
                } else {
                    assert!(!c.matched, "pruned pairs are never matches");
                    assert!(c.similarity < threshold, "prune bound is below threshold");
                }
            }
            let s = cascade.stats;
            assert_eq!(
                s.pruned_by_length + s.pruned_by_fingerprint + s.dp_runs,
                s.pairs_considered
            );
            assert_eq!(baseline.stats.dp_runs, baseline.stats.pairs_considered);
            assert_eq!(baseline.stats.pruned_fraction(), 0.0);
        }
    }

    #[test]
    fn entity_of_record_matches_member_scan() {
        let relation = player_relation();
        let config = ResolveConfig::on_attrs(vec!["name".into()]).with_threshold(0.6);
        let resolved = resolve_relation(&relation, &config);
        for record in 0..relation.len() {
            let scanned = resolved.members.iter().position(|m| m.contains(&record));
            assert_eq!(resolved.entity_of_record(record), scanned);
        }
        assert_eq!(resolved.entity_of_record(relation.len() + 5), None);
    }

    #[test]
    fn entity_instances_preserve_schema_and_rows() {
        let relation = player_relation();
        let config = ResolveConfig::on_attrs(vec!["name".into()]).with_threshold(0.6);
        let resolved = resolve_relation(&relation, &config);
        for (entity, members) in resolved.entities.iter().zip(resolved.members.iter()) {
            assert_eq!(entity.schema().name(), "stat");
            assert_eq!(entity.len(), members.len());
        }
    }
}
