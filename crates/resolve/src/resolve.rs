//! Entity resolution: split a dirty relation into per-entity instances.
//!
//! The paper assumes its input `Ie` has already been "identified by entity
//! resolution techniques" (Section 2.1).  This module provides that substrate:
//! blocking (so only plausible pairs are compared), pairwise record matching on
//! a similarity threshold, and union-find clustering so that matching is
//! transitive within a block.
//!
//! Two entry points share one pairwise decision procedure:
//! [`resolve_relation`] blocks a whole relation and resolves every block,
//! and [`resolve_block`] resolves one block, optionally reusing the block's
//! prior resolution.  A block's decisions are kept as a
//! [`DecisionTriangle`]: 9 bytes a pair, addressed by the pair's position.
//!
//! **Stage 0: identical match values.**  With the cascade on, a pair whose
//! two rows are equal (`Value` `==`) on every similarity attribute, with at
//! least one of those values non-null, is decided before any bound: every
//! informative attribute then scores exactly `1.0` (a string's distance to
//! itself is 0 and its token sets coincide; any other value is
//! [`Value::same`](relacc_model::Value::same) as itself), so
//! [`record_similarity`](crate::similarity::record_similarity) is `k / k`
//! = `1.0` in `f64` too.  The pair gets the decision the kernel gives —
//! similarity `1.0`, matched, not pruned — provided `threshold <= 1.0`:
//! then no upper bound (each is at least the true `1.0`) is below the
//! threshold, so stages 1 and 2 could not have pruned it either.  A
//! threshold above `1.0`, or NaN, fails that test and the pair runs the
//! bounds as before.  Stage 0 counts as a computed pair in
//! [`ResolveStats::dp_runs`], so every decision and counter is the one the
//! cascade reports without stage 0.  Exact-key blocking on the match
//! attribute makes most in-block pairs identical, which is where stage 0
//! pays.
//!
//! **Why reusing a prior resolution is exact.**  A [`MatchDecision`] is a
//! pure function of the two rows (and their fingerprints, themselves pure
//! functions of the rows), the similarity attributes, the threshold and the
//! cascade flag, and a caller fixes all of those for the life of a block.
//! So when a block gains and loses rows, the pair of two rows that were
//! both in the block before gets exactly the decision it got then.  The
//! copy lands in the right place because survivors keep their relative
//! order: a block lists its rows by ascending row id both times, so two
//! survivors at positions `i < j` of the new block sit at prior positions
//! `a < b`, the prior's row-major triangle entry `(a, b)`.  Only pairs with
//! a row new to the block run the cascade.  Union-find then runs
//! over the complete decision list, so the clustering, the decisions and
//! the stats derived from them ([`DecisionTriangle::stats`]) equal a
//! from-scratch pass over the block.

use crate::blocking::{Blocker, BlockingStrategy};
use crate::fingerprint::RecordFingerprint;
use crate::similarity::{record_similarity_with, SimilarityScratch};
use relacc_model::{AttrId, EntityInstance, Tuple};
use relacc_store::{Relation, RowId};

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
    /// Run the cascade before any string alignment: stage 0 decides a pair
    /// with equal, not all-null match values as the kernel would (similarity
    /// `1.0`, matched) when `threshold <= 1.0`, then the fingerprint bounds
    /// (length/popcount upper bounds, see [`crate::fingerprint`]) prune
    /// pairs provably below the threshold.  The cascade is exact — identical
    /// decisions on every pair it does not prune, identical clustering —
    /// so this is on by default and exists as a switch for differential
    /// tests and baseline benchmarks.
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

    /// Disable the cascade (stage 0 and the fingerprint bounds): every
    /// in-block pair goes straight to the full similarity computation.
    /// Output is identical (the cascade is exact); only [`ResolveStats`]
    /// and per-pair costs differ.
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
    /// alignment; `None` for fully computed pairs, which include the pairs
    /// stage 0 decided without alignment (identical match values: their
    /// similarity is exactly the kernel's `1.0`).
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
    /// alignment plus token Jaccard).  Pairs stage 0 decided count here
    /// too: their similarity is the one the computation gives, so the
    /// counters do not depend on which pairs took the shortcut.
    pub dp_runs: usize,
}

impl ResolveStats {
    /// The counters of a pass that made exactly these decisions: each
    /// decision is one considered pair, and its `pruned` field names the
    /// stage that settled it (`None`: the full computation ran).
    pub fn of_decisions(decisions: &[MatchDecision]) -> Self {
        Self::of_prunes(decisions.iter().map(|decision| decision.pruned))
    }

    /// The counters of one pair per item, each naming its prune stage.
    fn of_prunes(prunes: impl Iterator<Item = Option<PruneStage>>) -> Self {
        let mut stats = ResolveStats::default();
        for pruned in prunes {
            stats.pairs_considered += 1;
            match pruned {
                Some(PruneStage::Length) => stats.pruned_by_length += 1,
                Some(PruneStage::Fingerprint) => stats.pruned_by_fingerprint += 1,
                None => stats.dp_runs += 1,
            }
        }
        stats
    }

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

    /// The classes, each ascending, in order of their smallest member.
    fn clusters(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut cluster_of_root = vec![usize::MAX; n];
        let mut members: Vec<Vec<usize>> = Vec::new();
        for idx in 0..n {
            let root = self.find(idx);
            if cluster_of_root[root] == usize::MAX {
                cluster_of_root[root] = members.len();
                members.push(Vec::new());
            }
            members[cluster_of_root[root]].push(idx);
        }
        members
    }
}

/// The pairwise decision procedure of one pass: the threshold, the
/// attributes records are compared on, and one similarity scratch shared
/// by every `O(block²)` comparison.
struct Cascade<'a> {
    threshold: f64,
    cascade: bool,
    attrs: &'a [AttrId],
    scratch: SimilarityScratch,
}

impl<'a> Cascade<'a> {
    fn new(config: &ResolveConfig, attrs: &'a [AttrId]) -> Self {
        Cascade {
            threshold: config.threshold,
            cascade: config.cascade,
            attrs,
            scratch: SimilarityScratch::new(),
        }
    }

    /// Decide the pair `(left, right)` of `rows`.  With the cascade on,
    /// `fingerprints` is parallel to `rows`; a pair with identical match
    /// values gets the kernel's decision at stage 0 (see the module docs),
    /// and any other pair is pruned on an upper bound strictly below the
    /// threshold (`matched` tests `>=`, so `ub < threshold` proves the pair
    /// unmatched); otherwise it runs the full similarity.
    fn decide(
        &mut self,
        rows: &[Tuple],
        fingerprints: &[RecordFingerprint],
        left: usize,
        right: usize,
    ) -> MatchDecision {
        // written as `<=` so that a NaN threshold falls through
        if self.cascade && self.threshold <= 1.0 && identical(&rows[left], &rows[right], self.attrs)
        {
            return MatchDecision {
                left,
                right,
                similarity: 1.0,
                matched: true,
                pruned: None,
            };
        }
        let bound = if self.cascade {
            let (a, b) = (&fingerprints[left], &fingerprints[right]);
            let stage1 = a.stage1_upper_bound(b);
            if stage1 < self.threshold {
                Some((stage1, PruneStage::Length))
            } else {
                let stage2 = a.stage2_upper_bound(b);
                (stage2 < self.threshold).then_some((stage2, PruneStage::Fingerprint))
            }
        } else {
            None
        };
        let (similarity, matched, pruned) = match bound {
            Some((bound, stage)) => (bound, false, Some(stage)),
            None => {
                let similarity = record_similarity_with(
                    &rows[left],
                    &rows[right],
                    self.attrs,
                    &mut self.scratch,
                );
                (similarity, similarity >= self.threshold, None)
            }
        };
        MatchDecision {
            left,
            right,
            similarity,
            matched,
            pruned,
        }
    }
}

/// Stage 0's test: `a` and `b` are equal on every attribute of `attrs`, and
/// at least one of those values is non-null, so their record similarity is
/// exactly `1.0`.
fn identical(a: &Tuple, b: &Tuple, attrs: &[AttrId]) -> bool {
    let mut informative = false;
    for &attr in attrs {
        let value = a.value(attr);
        if value != b.value(attr) {
            return false;
        }
        informative |= !value.is_null();
    }
    informative
}

/// Resolve a relation into entity instances.
///
/// Records are blocked on the match attributes; every pair inside a block
/// runs the similarity cascade: (0) identical match values, which the
/// kernel scores exactly `1.0` (decided without it when the threshold is at
/// most `1.0`), (1) count bounds (length, token counts, nulls), (2)
/// popcount fingerprint bounds, (3) the full
/// [`record_similarity`](crate::similarity::record_similarity) — bit-parallel
/// Levenshtein for strings up to 64 chars, two-row DP above.  Stage 0 gives
/// the kernel's own decision, and stages 1 and 2 are exact filters (a
/// pruned pair is provably below the threshold, see
/// [`crate::fingerprint`]), so the decisions of unpruned pairs and the
/// clustering are identical to comparing every pair in full.  Pairs at or
/// above the threshold are merged, and the transitive closure of the merges
/// (union-find) defines the entities.  Each entity instance keeps the full
/// rows of its records under the input schema, ready to be wrapped in a
/// `Specification`.
///
/// Fingerprints are computed here, once per record.  Callers that keep one
/// block's resolution across updates (the incremental engine's block cache)
/// use [`resolve_block`] instead.
pub fn resolve_relation(relation: &Relation, config: &ResolveConfig) -> ResolvedEntities {
    let schema = relation.schema();
    let rows: &[Tuple] = relation.rows();
    let attrs = config.similarity_attrs(schema);
    let fingerprints: Vec<RecordFingerprint> = if config.cascade {
        rows.iter()
            .map(|row| RecordFingerprint::of_tuple(row, &attrs))
            .collect()
    } else {
        Vec::new()
    };

    let mut cascade = Cascade::new(config, &attrs);
    let mut uf = UnionFind::new(rows.len());
    let mut decisions = Vec::new();
    for block in config.blocker(schema).blocks(rows) {
        for (i, &a) in block.iter().enumerate() {
            for &b in &block[i + 1..] {
                let decision = cascade.decide(rows, &fingerprints, a, b);
                if decision.matched {
                    uf.union(a, b);
                }
                decisions.push(decision);
            }
        }
    }

    let members = uf.clusters();
    let entities = members
        .iter()
        .map(|cluster| {
            let mut instance = EntityInstance::new(schema.clone());
            for &idx in cluster {
                instance
                    .push_tuple(rows[idx].clone())
                    .expect("rows conform to their own schema");
            }
            instance
        })
        .collect();
    let stats = ResolveStats::of_decisions(&decisions);
    ResolvedEntities::from_parts(entities, members, decisions, stats)
}

/// The verdict byte of a [`DecisionTriangle`] pair: computed and unmatched.
const COMPUTED: u8 = 0;
/// Computed and matched.
const MATCHED: u8 = 1;
/// Pruned by the stage-1 count bounds.
const PRUNED_BY_LENGTH: u8 = 2;
/// Pruned by the stage-2 fingerprint bounds.
const PRUNED_BY_FINGERPRINT: u8 = 3;

/// One block's match decisions, one per pair of its rows, in 9 bytes a
/// pair: a [`MatchDecision`] without the two row indices, which the pair's
/// position gives.
///
/// The pair `(a, b)`, `a < b`, of an `n`-row block sits at position
/// `a(2n − a − 1)/2 + (b − a − 1)` of the row-major upper triangle:
/// `(0, 1), (0, 2), …, (0, n−1), (1, 2), …`, the order in which
/// [`resolve_relation`] lists a block's decisions.  The similarity is kept
/// as an `f64` array, and the verdict (matched, or the prune stage) as a
/// parallel byte array.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTriangle {
    rows: usize,
    similarity: Vec<f64>,
    verdict: Vec<u8>,
}

impl DecisionTriangle {
    /// An empty triangle with room for every pair of `rows` rows.
    fn with_rows(rows: usize) -> Self {
        DecisionTriangle {
            rows,
            similarity: Vec::with_capacity(pair_count(rows)),
            verdict: Vec::with_capacity(pair_count(rows)),
        }
    }

    /// Append the next pair's decision, in row-major order.
    fn push(&mut self, decision: &MatchDecision) {
        let verdict = match (decision.matched, decision.pruned) {
            (false, None) => COMPUTED,
            (true, None) => MATCHED,
            (false, Some(PruneStage::Length)) => PRUNED_BY_LENGTH,
            (false, Some(PruneStage::Fingerprint)) => PRUNED_BY_FINGERPRINT,
            (true, Some(_)) => unreachable!("pruned pairs never match"),
        };
        self.similarity.push(decision.similarity);
        self.verdict.push(verdict);
    }

    /// Append the decision at position `pos` of `other`.
    fn push_from(&mut self, other: &DecisionTriangle, pos: usize) {
        self.similarity.push(other.similarity[pos]);
        self.verdict.push(other.verdict[pos]);
    }

    /// Number of rows the triangle pairs up.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pairs: `rows · (rows − 1) / 2` once complete.
    pub fn len(&self) -> usize {
        self.verdict.len()
    }

    /// True when the triangle holds no pair.
    pub fn is_empty(&self) -> bool {
        self.verdict.is_empty()
    }

    /// The decisions in row-major order, each naming its two row positions.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MatchDecision> + '_ {
        let n = self.rows;
        // the previous pair: from (0, 0), the first step yields (0, 1)
        let (mut left, mut right) = (0, 0);
        self.similarity
            .iter()
            .zip(&self.verdict)
            .map(move |(&similarity, &verdict)| {
                right += 1;
                if right == n {
                    left += 1;
                    right = left + 1;
                }
                MatchDecision {
                    left,
                    right,
                    similarity,
                    matched: verdict == MATCHED,
                    pruned: prune_stage(verdict),
                }
            })
    }

    /// The cascade counters of these decisions
    /// ([`ResolveStats::of_decisions`] over [`Self::iter`]).
    pub fn stats(&self) -> ResolveStats {
        ResolveStats::of_prunes(self.verdict.iter().map(|&verdict| prune_stage(verdict)))
    }
}

/// The prune stage a verdict byte records.
fn prune_stage(verdict: u8) -> Option<PruneStage> {
    match verdict {
        PRUNED_BY_LENGTH => Some(PruneStage::Length),
        PRUNED_BY_FINGERPRINT => Some(PruneStage::Fingerprint),
        _ => None,
    }
}

/// A block's previous resolution, as [`resolve_block`] reuses it: the
/// `rows`, `decisions` and `fingerprints` of an earlier
/// [`BlockResolution`] of the same block.
#[derive(Debug, Clone, Copy)]
pub struct PriorBlock<'a> {
    /// The block's row ids at that resolution, ascending.
    pub rows: &'a [RowId],
    /// Its decisions: the full triangle over `rows`.
    pub decisions: &'a DecisionTriangle,
    /// Fingerprints of `rows` (parallel); empty without the cascade.
    pub fingerprints: &'a [RecordFingerprint],
}

/// What one [`resolve_block`] call computed and what it reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockWork {
    /// Pairs decided by the cascade: each has a row the prior did not hold.
    pub pairs_compared: usize,
    /// Pairs of two surviving rows whose prior decision was copied.
    pub pairs_reused: usize,
    /// Rows fingerprinted for the cascade.
    pub rows_fingerprinted: usize,
    /// Rows whose prior fingerprint was reused.
    pub fingerprints_reused: usize,
}

/// The output of [`resolve_block`], indexed by position in the block's rows.
#[derive(Debug, Clone)]
pub struct BlockResolution {
    /// The block's entities as ascending positions, in order of smallest
    /// member.
    pub members: Vec<Vec<usize>>,
    /// One decision per pair: the full triangle over the block's rows.
    pub decisions: DecisionTriangle,
    /// Fingerprints of the rows (parallel); empty without the cascade.
    pub fingerprints: Vec<RecordFingerprint>,
    /// Cascade counters derived from `decisions`: what a from-scratch pass
    /// over the block reports, whatever was reused.
    pub stats: ResolveStats,
    /// The work this call did.
    pub work: BlockWork,
}

/// Number of pairs of `n` rows.
fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Strictly ascending ids: survivors of two such lists keep their relative
/// order, which is what places a copied decision in the prior's triangle.
fn ascending(ids: &[RowId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Resolve one block: `rows` (with their ascending ids `ids`) all share a
/// blocking key, so every pair is compared and nothing is re-blocked.  The
/// output equals what [`resolve_relation`] decides for this block, rebased
/// to block positions; [`DecisionTriangle::iter`] lists the decisions in
/// the same order.
///
/// With a `prior` resolution of the same block, a pair of two rows the
/// prior also held copies its prior decision (similarity, verdict, prune
/// stage) and a surviving row keeps its fingerprint, so only the pairs
/// with a row new to the block run the cascade (see the module docs for
/// why this is exact).  Union-find then runs over the merged decisions, and
/// the stats are re-derived from them.
///
/// `attrs` are the similarity attributes
/// ([`ResolveConfig::similarity_attrs`]).
///
/// # Panics
/// If `rows` and `ids` differ in length, either id list does not strictly
/// ascend, or `prior.decisions` is not the complete triangle over
/// `prior.rows`.
pub fn resolve_block(
    rows: &[Tuple],
    ids: &[RowId],
    attrs: &[AttrId],
    config: &ResolveConfig,
    prior: Option<PriorBlock<'_>>,
) -> BlockResolution {
    assert_eq!(rows.len(), ids.len(), "one id per row");
    assert!(ascending(ids), "block row ids ascend");
    let n = rows.len();
    let mut work = BlockWork::default();

    // each row's position in the prior, when it survived: both id lists
    // ascend, so one merge walk maps them
    let mut survivor: Vec<Option<usize>> = vec![None; n];
    let prior_rows = prior.map_or(0, |p| p.rows.len());
    if let Some(prior) = prior {
        assert!(ascending(prior.rows), "prior row ids ascend");
        assert!(
            prior.decisions.rows() == prior_rows && prior.decisions.len() == pair_count(prior_rows),
            "the prior holds one decision per pair"
        );
        let mut old = prior.rows.iter().enumerate().peekable();
        for (slot, id) in survivor.iter_mut().zip(ids) {
            while old.next_if(|(_, old_id)| *old_id < id).is_some() {}
            *slot = old.next_if(|(_, old_id)| *old_id == id).map(|(pos, _)| pos);
        }
    }

    let fingerprints: Vec<RecordFingerprint> = if config.cascade {
        rows.iter()
            .zip(&survivor)
            .map(|(row, old)| {
                match old.and_then(|pos| prior.and_then(|p| p.fingerprints.get(pos))) {
                    Some(fingerprint) => {
                        work.fingerprints_reused += 1;
                        fingerprint.clone()
                    }
                    None => {
                        work.rows_fingerprinted += 1;
                        RecordFingerprint::of_tuple(row, attrs)
                    }
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut cascade = Cascade::new(config, attrs);
    let mut uf = UnionFind::new(n);
    let mut decisions = DecisionTriangle::with_rows(n);
    for (i, &old_left) in survivor.iter().enumerate() {
        // the prior triangle's row of `i`: pair (a, b) sits at start + b - a - 1
        let prior_row = old_left.map(|a| (a, a * (2 * prior_rows - a - 1) / 2));
        for (j, &old_right) in survivor.iter().enumerate().skip(i + 1) {
            let matched = match (prior, prior_row, old_right) {
                (Some(prior), Some((a, start)), Some(b)) => {
                    work.pairs_reused += 1;
                    let pos = start + b - a - 1;
                    decisions.push_from(prior.decisions, pos);
                    prior.decisions.verdict[pos] == MATCHED
                }
                _ => {
                    work.pairs_compared += 1;
                    let decision = cascade.decide(rows, &fingerprints, i, j);
                    decisions.push(&decision);
                    decision.matched
                }
            };
            if matched {
                uf.union(i, j);
            }
        }
    }

    BlockResolution {
        members: uf.clusters(),
        stats: decisions.stats(),
        decisions,
        fingerprints,
        work,
    }
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
    fn resolve_block_reuses_surviving_pairs_exactly() {
        let relation = player_relation();
        // one block of Jordans and near misses, so its pairs are decided by
        // every stage: identical (stage 0), matched, computed-but-unmatched
        // and pruned by either bound
        let names = [
            "Michael Jordan",
            "Michael  Jordan",
            "Michael Jordon",
            "Michaeljordan",
            // same characters, shifted: no bound prunes it, yet it is far
            "Mjordanichael",
            "Mi",
            // the first name again, in its own allocation
            "Michael Jordan",
            // as long as the first, so only the fingerprint bound prunes it
            "Mzzzzzzzzzzzzz",
        ];
        let rows: Vec<Tuple> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                Tuple::new(vec![
                    Value::text(*name),
                    Value::text("Chicago"),
                    Value::Int(i as i64),
                ])
            })
            .collect();
        let config = ResolveConfig::on_attrs(vec!["name".into()]).with_threshold(0.8);
        let attrs = config.similarity_attrs(relation.schema());
        let ids: Vec<RowId> = (0..4).map(RowId).collect();
        let prior = resolve_block(&rows[..4], &ids, &attrs, &config, None);
        assert_eq!(prior.work.pairs_compared, 6);
        assert_eq!((prior.decisions.rows(), prior.decisions.len()), (4, 6));

        // row 1 leaves; rows 4 to 7 arrive with larger ids
        let kept: Vec<usize> = vec![0, 2, 3, 4, 5, 6, 7];
        let new_rows: Vec<Tuple> = kept.iter().map(|&i| rows[i].clone()).collect();
        let new_ids: Vec<RowId> = kept.iter().map(|&i| RowId(i as u64)).collect();
        let reused = resolve_block(
            &new_rows,
            &new_ids,
            &attrs,
            &config,
            Some(PriorBlock {
                rows: &ids,
                decisions: &prior.decisions,
                fingerprints: &prior.fingerprints,
            }),
        );
        let scratch = resolve_block(&new_rows, &new_ids, &attrs, &config, None);
        assert_eq!(reused.members, scratch.members);
        assert_eq!(reused.decisions, scratch.decisions);
        assert_eq!(reused.stats, scratch.stats);
        assert_eq!(reused.fingerprints.len(), new_rows.len());
        // the 3 surviving rows' 3 pairs are copied; the 18 pairs with a new
        // row are compared
        assert_eq!(
            reused.work,
            BlockWork {
                pairs_compared: 18,
                pairs_reused: 3,
                rows_fingerprinted: 4,
                fingerprints_reused: 3,
            }
        );
        let decisions: Vec<MatchDecision> = scratch.decisions.iter().collect();
        let kinds = |d: &MatchDecision| (d.matched, d.pruned);
        for kind in [
            (true, None),
            (false, None),
            (false, Some(PruneStage::Length)),
            (false, Some(PruneStage::Fingerprint)),
        ] {
            assert!(
                decisions.iter().any(|d| kinds(d) == kind),
                "the block holds a {kind:?} pair"
            );
        }
        // the identical pair: rows 0 and 6, at block positions 0 and 5
        let identical = decisions.iter().find(|d| (d.left, d.right) == (0, 5));
        assert_eq!(
            identical.map(|d| (d.similarity, d.matched, d.pruned)),
            Some((1.0, true, None))
        );

        // the triangle turns back into what resolve_relation decides over
        // the same rows
        let local = Relation::from_rows(
            relation.schema().clone(),
            new_rows.iter().map(|t| t.values().to_vec()).collect(),
        )
        .unwrap();
        let full = resolve_relation(
            &local,
            &config.clone().with_strategy(BlockingStrategy::Prefix(1)),
        );
        assert_eq!(full.members, scratch.members);
        assert_eq!(full.decisions, decisions);
        assert_eq!(full.stats, scratch.stats);
        assert_eq!(scratch.decisions.stats(), scratch.stats);
        assert_eq!(
            (scratch.decisions.rows(), scratch.decisions.len()),
            (7, pair_count(7))
        );
    }

    #[test]
    fn stage_zero_needs_a_threshold_of_at_most_one() {
        let relation = player_relation();
        // equal on the match attribute, from separate allocations
        let rows: Vec<Tuple> = [16, 27]
            .into_iter()
            .map(|rnds| {
                Tuple::new(vec![
                    Value::text(String::from("Michael Jordan")),
                    Value::text("Chicago"),
                    Value::Int(rnds),
                ])
            })
            .collect();
        let ids = [RowId(0), RowId(1)];
        let attrs =
            ResolveConfig::on_attrs(vec!["name".into()]).similarity_attrs(relation.schema());
        let decide = |threshold: f64| {
            let config = ResolveConfig::on_attrs(vec!["name".into()]).with_threshold(threshold);
            let block = resolve_block(&rows, &ids, &attrs, &config, None);
            let decisions: Vec<MatchDecision> = block.decisions.iter().collect();
            assert_eq!(decisions.len(), 1);
            decisions[0].clone()
        };
        // above 1.0 the stage-1 bound of an identical pair (at least the
        // true 1.0, yet below the threshold) prunes it, as without stage 0
        let bound = RecordFingerprint::of_tuple(&rows[0], &attrs)
            .stage1_upper_bound(&RecordFingerprint::of_tuple(&rows[1], &attrs));
        assert!((1.0..1.1).contains(&bound));
        assert_eq!(
            decide(1.1),
            MatchDecision {
                left: 0,
                right: 1,
                similarity: bound,
                matched: false,
                pruned: Some(PruneStage::Length),
            }
        );
        // a NaN threshold prunes nothing and matches nothing: the kernel
        // runs and its 1.0 is not `>=` NaN
        assert_eq!(
            decide(f64::NAN),
            MatchDecision {
                left: 0,
                right: 1,
                similarity: 1.0,
                matched: false,
                pruned: None,
            }
        );
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
