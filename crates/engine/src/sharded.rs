//! Sharded incremental repair: partition the block cache across shards.
//!
//! Blocking already partitions the corpus into independent units — resolution
//! never merges records across blocks, and the paper's per-entity semantics
//! mean two entities in different blocks can never interact — so a *shard*
//! is exactly "an [`IncrementalEngine`] plus its block cache" over a subset
//! of the blocks.  A [`ShardedEngine`] scales the incremental pipeline out
//! across `N` such shards:
//!
//! * **Versioned routing.**  A record's shard is decided by its blocking key
//!   through a versioned `RoutingTable`: a fixed FNV-1a hash over the
//!   **open-time** shard count places every key (the router computes
//!   [`relacc_resolve::BlockKey`]s with the same [`Blocker`] the shards' own
//!   indices use), and a small exception map overrides the hash for blocks a
//!   rebalance moved away from home.  Rows with an empty blocking key
//!   ([`BlockKey::Singleton`]) route by their **global** row id and are
//!   pinned to their hash shard forever.  Rows are immutable (updates are
//!   deletes + inserts) and every block lives wholly inside one shard; which
//!   shard that is can change, but only through
//!   [`ShardedEngine::rebalance`]'s whole-block handoff.
//! * **One-shot master grounding.**  Master-data deltas
//!   ([`ShardedEngine::apply_master_append`]) are **ground once** — shard 0
//!   pays the `|Σ2| × |Δ|` grounding loop — and the resulting immutable step
//!   block is adopted by every shard behind an `Arc`
//!   ([`relacc_core::chase::ChasePlan::adopt_master_delta`]): per shard the
//!   work is a stamp bump plus the exact step-reachability invalidation
//!   filter, and the per-shard [`relacc_core::chase::PlanStamp`]s advance in
//!   lockstep exactly as under the old broadcast.
//! * **Block-level work stealing.**  Both mutation paths run the staged
//!   re-repair pipeline: per-shard *prepare* snapshots every dirty block
//!   into a self-contained job, the jobs of **all** shards are flattened
//!   into one work list resolved over [`crate::pool::par_map_with`] (whose
//!   dynamic loop steals at block granularity, so one hot shard's backlog
//!   spreads across every worker), one pooled chase evaluates the entities
//!   of all shards together, and each shard's *commit* writes its own cache
//!   back in canonical ascending-key order — resolution and chase
//!   interleave freely across shards, cache writes never do.
//! * **Elasticity.**  [`ShardedEngine::split_shard`] adds an empty shard
//!   whose plan is cloned from shard 0 (stamp lockstep is preserved);
//!   [`ShardedEngine::rebalance`] hands whole keyed blocks — rows, cached
//!   repair, fingerprints — to another shard through the local↔global
//!   position-map machinery; [`ShardedEngine::rebalance_hot`] does it
//!   automatically, reading the per-shard [`ShardStats`] to find the busy
//!   shard and the persistently hot blocks on it.  A committed rebalance
//!   bumps the routing version once and publishes exactly **one** clean
//!   combined epoch, so pinned readers never observe a torn handoff.
//! * **Canonical merge.**  Each shard's [`relacc_store::VersionedRelation`]
//!   has its **own id space**; the router keeps the global ↔ local mapping
//!   (see the remapping contract on `relacc_store::versioned`).  Global row
//!   order is ascending global id — ids are assigned in insertion order and
//!   never reused — and *within any one block* shard-local order is a
//!   subsequence of it (a migrated block is re-inserted in export order, so
//!   ascending local id keeps implying ascending global id inside the
//!   block), so rebasing each block's repair to global row positions
//!   preserves all within-block orderings.  [`ShardedEngine::snapshot`]
//!   therefore merges every shard's blocks into the canonical
//!   ascending-smallest-member order (shared `assemble_repair` code) and
//!   the result is **bit-identical** to a single [`IncrementalEngine`] over
//!   the same stream and to a from-scratch
//!   [`crate::batch::BatchEngine::repair_relation`] — guarded by
//!   `tests/sharded_differential.rs` and `tests/elastic_differential.rs`
//!   across shard counts {1, 2, 4, 7} and scripted split/rebalance points.
//!
//! Each shard is a full [`IncrementalEngine`], so the per-block resolution
//! caches — including the fingerprint cache behind the exact similarity
//! cascade — live per shard, need no cross-shard coordination (a
//! fingerprint is a pure function of its row), and travel with their block
//! across a rebalance; [`ShardedEngine::stats`] sums the per-shard counters
//! and [`ShardedEngine::sharded_stats`] adds the per-shard breakdown.

use crate::batch::{BatchEngine, RelationRepair};
use crate::epoch::{Epoch, EpochError, EpochHub, EpochId, ShardView, SnapshotDelta};
use crate::incremental::{
    assemble_repair, resolve_block_jobs, AssembledBlock, BlockJob, IncrementalEngine,
    IncrementalError, IncrementalStats, PreparedRepair, ResolvedJob, UpdateOutcome,
};
use crate::pool::par_map_with;
use relacc_core::chase::MasterUpdate;
use relacc_model::{EntityInstance, SchemaRef, Tuple, Value};
use relacc_resolve::{BlockKey, Blocker, ResolveConfig};
use relacc_store::{validate_batch, Generation, Relation, RowId, UpdateBatch, UpdateError};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The shard a block key hashes to: FNV-1a over the key bytes (or the global
/// row id for singletons), fixed so the assignment is stable across runs and
/// platforms.  Pure function of the key — never of arrival order.  This is
/// the *baseline*; the live placement goes through `RoutingTable::shard_of`.
pub(crate) fn shard_of(key: &BlockKey, shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let eat = |hash: &mut u64, byte: u8| {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(PRIME);
    };
    match key {
        BlockKey::Key(text) => {
            eat(&mut hash, 0);
            for byte in text.bytes() {
                eat(&mut hash, byte);
            }
        }
        BlockKey::Singleton(id) => {
            eat(&mut hash, 1);
            for byte in id.0.to_le_bytes() {
                eat(&mut hash, byte);
            }
        }
    }
    (hash % shards as u64) as usize
}

/// The versioned block→shard routing table: a small map of **exceptions**
/// over the fixed hash baseline.
///
/// * `home_shards` is the shard count the engine was **opened** with and
///   never changes — even across [`ShardedEngine::split_shard`] — so every
///   key's hash home is stable for the engine's lifetime and the map holds
///   only blocks currently living away from home (a block moved back home
///   drops its entry instead of stacking a new one).
/// * Every committed [`ShardedEngine::rebalance`] bumps `version` exactly
///   once and publishes exactly one combined epoch pinning the new table,
///   so an epoch taken *before* a rebalance keeps resolving keys to the
///   shards that held them then — a reader never observes a torn handoff.
#[derive(Debug, Clone)]
pub(crate) struct RoutingTable {
    /// Bumped once per committed rebalance.
    pub(crate) version: u64,
    /// The modulus of the hash baseline (the shard count at open).
    pub(crate) home_shards: usize,
    /// Exceptions: blocks living away from their hash home.
    pub(crate) map: HashMap<BlockKey, usize>,
}

impl RoutingTable {
    /// The identity table over `home_shards` shards: pure hash routing.
    fn hash_only(home_shards: usize) -> Self {
        RoutingTable {
            version: 0,
            home_shards,
            map: HashMap::new(),
        }
    }

    /// The shard `key` routes to: the exception map, else the hash baseline.
    pub(crate) fn shard_of(&self, key: &BlockKey) -> usize {
        self.map
            .get(key)
            .copied()
            .unwrap_or_else(|| shard_of(key, self.home_shards))
    }
}

/// Lifetime activity counters of one shard, as attributed by the router
/// (see [`ShardedEngine::sharded_stats`]).  The online rebalance trigger
/// ([`ShardedEngine::rebalance_hot`]) reads these to find the busy shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Blocks this shard re-repaired across all updates.
    pub dirty_blocks: usize,
    /// Entities this shard re-repaired across all updates.
    pub entities_rerepaired: usize,
    /// Wall-clock nanoseconds attributed to this shard across all updates:
    /// its sub-batch prepare, its blocks' resolution, its entities' share of
    /// the pooled chase, and its cache commit.
    pub batch_ns: u64,
}

/// The sharded engine's counters: the summed lifetime totals plus the
/// per-shard breakdown ([`ShardedEngine::sharded_stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Lifetime counters summed across shards (same as
    /// [`ShardedEngine::stats`]).
    pub totals: IncrementalStats,
    /// Per-shard activity, indexed by shard.
    pub per_shard: Vec<ShardStats>,
}

/// How many consecutive dirty-ish batches a block needs before
/// [`ShardedEngine::rebalance_hot`] considers it persistently hot.
const HOT_STREAK: u64 = 3;

/// Heat ceiling: bounds how long a cooled-down block stays a candidate.
const HEAT_CAP: u64 = 8;

/// `N` independent [`IncrementalEngine`] shards behind one router.  See the
/// module docs for the routing table, the one-shot master grounding, the
/// block-level work stealing and why the merged snapshot stays canonical
/// across rebalances.
#[derive(Debug)]
pub struct ShardedEngine {
    /// Catalog-entry name updates must address.
    name: String,
    schema: SchemaRef,
    /// The routing blocker — identical to every shard's internal one.
    blocker: Blocker,
    /// The resolve configuration every shard runs (kept for the flattened
    /// block-resolution stage and for opening fresh shards on a split).
    resolve: ResolveConfig,
    /// Worker threads for every parallel stage.  The staged pipeline runs
    /// single-level on this pool — per-shard prepare/commit are sequential,
    /// and resolution + chase are dispatched by the router itself — so there
    /// is no pool nesting to oversubscribe.
    threads: usize,
    shards: Vec<IncrementalEngine>,
    /// Live global row id → (shard, shard-local row id).  `Arc`'d so
    /// published epochs pin the routing they were built under; the router
    /// copies on write while an epoch shares it.
    route: Arc<HashMap<RowId, (usize, RowId)>>,
    /// Per shard: shard-local row id → global row id (copy-on-write like
    /// `route`).
    global_of_local: Vec<Arc<HashMap<RowId, RowId>>>,
    /// Next global row id (sequential in insertion order, never reused —
    /// the same contract a single `VersionedRelation` follows).
    next_global: u64,
    /// Mirror of each shard's next local id (shards assign sequentially,
    /// including across imported blocks).
    next_local: Vec<u64>,
    /// The versioned block→shard placement (copy-on-write like `route`).
    routing: Arc<RoutingTable>,
    /// Corpus generation: +1 per applied row batch.
    generation: Generation,
    /// The publish/pin rendezvous: one **combined** epoch per committed
    /// router-level mutation (per-shard intermediate states are never
    /// visible to sharded readers, so a pinned epoch is never torn).
    hub: EpochHub,
    /// Memoized full snapshot: the epoch it was assembled at plus the
    /// assembly.  Reused until some epoch actually dirties a block.
    snapshot_cache: Mutex<Option<(EpochId, Arc<RelationRepair>)>>,
    /// Per-shard activity attribution (see [`ShardStats`]).
    per_shard: Vec<ShardStats>,
    /// Keyed-block heat: +1 net per batch a block is dirty in, −1 per quiet
    /// batch, capped — the [`ShardedEngine::rebalance_hot`] candidate set.
    heat: HashMap<BlockKey, u64>,
    /// Per shard: `ShardStats::batch_ns` at the previous
    /// [`ShardedEngine::rebalance_hot`] reading, so the trigger compares
    /// activity *since the last decision*, not since open.
    rebalance_mark: Vec<u64>,
}

impl ShardedEngine {
    /// Open a sharded engine over the seed state of a relation: partition the
    /// rows by blocking key across `shards` shards (at least one) and run the
    /// initial full repair per shard.  `engine` is compiled once and cloned
    /// per shard (rules and master data stay shared under `Arc`s).
    pub fn open(
        engine: BatchEngine,
        name: impl Into<String>,
        relation: &Relation,
        resolve: ResolveConfig,
        shards: usize,
    ) -> Self {
        let shards = shards.max(1);
        let name = name.into();
        let schema = relation.schema().clone();
        let blocker = resolve.blocker(&schema);
        let threads = engine.config().threads;
        let routing = Arc::new(RoutingTable::hash_only(shards));

        let mut parts: Vec<Relation> = (0..shards).map(|_| Relation::new(schema.clone())).collect();
        let mut route = HashMap::new();
        let mut global_of_local = vec![HashMap::new(); shards];
        let mut next_local = vec![0u64; shards];
        for (global, tuple) in relation.rows().iter().enumerate() {
            let gid = RowId(global as u64);
            let key = BlockKey::of_row(&blocker, gid, tuple);
            let shard = routing.shard_of(&key);
            let lid = RowId(next_local[shard]);
            next_local[shard] += 1;
            parts[shard]
                .push_row(tuple.values().to_vec())
                .expect("seed rows conform to their own schema");
            route.insert(gid, (shard, lid));
            global_of_local[shard].insert(lid, gid);
        }

        let shard_engines: Vec<IncrementalEngine> = parts
            .iter()
            .map(|part| {
                IncrementalEngine::open(engine.clone(), name.clone(), part, resolve.clone())
            })
            .collect();
        let this = ShardedEngine {
            name,
            schema,
            blocker,
            resolve,
            threads,
            shards: shard_engines,
            route: Arc::new(route),
            global_of_local: global_of_local.into_iter().map(Arc::new).collect(),
            next_global: relation.len() as u64,
            next_local,
            routing,
            generation: Generation(0),
            hub: EpochHub::new(),
            snapshot_cache: Mutex::new(None),
            per_shard: vec![ShardStats::default(); shards],
            heat: HashMap::new(),
            rebalance_mark: vec![0u64; shards],
        };
        // seed epoch: every block is "dirty" relative to nothing
        let all: Vec<usize> = (0..this.shards.len()).collect();
        let dirty = this.globalized_dirty(&all, &[]);
        this.publish(dirty);
        this
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (read-only; mutate only through the router).
    pub fn shards(&self) -> &[IncrementalEngine] {
        &self.shards
    }

    /// The batch engine of shard 0 (all shards' plans evolve in lockstep).
    pub fn engine(&self) -> &BatchEngine {
        self.shards[0].engine()
    }

    /// The corpus generation (+1 per applied row batch, like a single
    /// versioned relation's).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The routing-table version: bumped once per committed
    /// [`ShardedEngine::rebalance`], never otherwise.
    pub fn routing_version(&self) -> u64 {
        self.routing.version
    }

    /// Number of live rows across all shards.
    pub fn len(&self) -> usize {
        self.route.len()
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.route.is_empty()
    }

    /// Lifetime counters summed across shards.  `batches_applied` counts
    /// per-shard sub-batch applications, so it can exceed (split batches
    /// touching several shards) or undershoot (batches whose rows all route
    /// to one shard) the number of router-level batches.
    /// `master_groundings` stays **one per append** regardless of shard
    /// count: only shard 0 grounds, everyone else adopts.
    pub fn stats(&self) -> IncrementalStats {
        let mut out = IncrementalStats::default();
        for shard in &self.shards {
            let s = shard.stats();
            out.batches_applied += s.batches_applied;
            out.master_deltas_applied += s.master_deltas_applied;
            out.master_groundings += s.master_groundings;
            out.recompiles += s.recompiles;
            out.entities_rerepaired += s.entities_rerepaired;
            out.entities_reused += s.entities_reused;
            out.rows_fingerprinted += s.rows_fingerprinted;
            out.fingerprints_reused += s.fingerprints_reused;
        }
        out
    }

    /// [`ShardedEngine::stats`] plus the per-shard activity breakdown the
    /// online rebalance trigger reads.
    pub fn sharded_stats(&self) -> ShardedStats {
        ShardedStats {
            totals: self.stats(),
            per_shard: self.per_shard.clone(),
        }
    }

    /// Apply a typed row batch: validate against the router (the same checks
    /// in the same order as [`relacc_store::VersionedRelation::apply`], so a
    /// sharded engine rejects exactly what a single engine rejects), split it
    /// into per-shard sub-batches, and run the staged pipeline: per-shard
    /// prepare (concurrent), flattened block-level resolution + one pooled
    /// chase (stolen at block/entity granularity across shards), per-shard
    /// commit (ordered).  Untouched shards do no work at all.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome, IncrementalError> {
        if batch.relation != self.name {
            return Err(IncrementalError::Update(UpdateError::NoSuchRelation(
                batch.relation.clone(),
            )));
        }
        // validate everything before mutating
        validate_batch(&self.schema, |id| self.route.contains_key(&id), batch)
            .map_err(IncrementalError::Update)?;

        // split: deletes route through the live map, inserts by blocking key
        // through the routing table (global ids are assigned after all
        // deletes, like the single engine's deletes-then-inserts contract).
        // The id maps copy on write while a published epoch pins them;
        // `retired` remembers this batch's deleted local→global pairs so
        // their singleton dirty keys can still be globalized after the maps
        // forget them.
        let mut subs: Vec<UpdateBatch> = (0..self.shards.len())
            .map(|_| UpdateBatch::new(self.name.clone()))
            .collect();
        let mut retired: Vec<HashMap<RowId, RowId>> = vec![HashMap::new(); self.shards.len()];
        for &gid in &batch.deletes {
            let (shard, lid) = Arc::make_mut(&mut self.route)
                .remove(&gid)
                .expect("validated as live above");
            Arc::make_mut(&mut self.global_of_local[shard]).remove(&lid);
            retired[shard].insert(lid, gid);
            subs[shard].deletes.push(lid);
        }
        for row in &batch.inserts {
            let gid = RowId(self.next_global);
            self.next_global += 1;
            let key = BlockKey::of_values(&self.blocker, gid, row);
            let shard = self.routing.shard_of(&key);
            let lid = RowId(self.next_local[shard]);
            self.next_local[shard] += 1;
            Arc::make_mut(&mut self.route).insert(gid, (shard, lid));
            Arc::make_mut(&mut self.global_of_local[shard]).insert(lid, gid);
            subs[shard].inserts.push(row.clone());
        }
        self.generation = Generation(self.generation.0 + 1);

        // stage 1, concurrent per shard: mutate the shard's relation + index
        // and snapshot its dirty blocks into self-contained jobs.
        // Sub-batches were validated above, so a shard rejection is an
        // invariant breach.
        let threads = self.threads;
        let jobs: Vec<(usize, Mutex<&mut IncrementalEngine>, UpdateBatch)> = self
            .shards
            .iter_mut()
            .enumerate()
            .zip(subs)
            .filter(|(_, sub)| !sub.is_empty())
            .map(|((idx, shard), sub)| (idx, Mutex::new(shard), sub))
            .collect();
        let touched: HashSet<usize> = jobs.iter().map(|(idx, _, _)| *idx).collect();
        let prepared: Vec<(usize, PreparedRepair, u64)> = par_map_with(
            &jobs,
            threads,
            || (),
            |_, _, (idx, cell, sub)| {
                let started = Instant::now();
                let mut shard = cell.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                let dirty = shard.begin_batch(sub).unwrap_or_else(|e| {
                    panic!("shard {idx} rejected a router-validated sub-batch: {e}")
                });
                let prep = shard.prepare_rerepair(dirty, true);
                (*idx, prep, started.elapsed().as_nanos() as u64)
            },
        );
        drop(jobs);
        let outcomes = self.finish_batches(prepared);
        let mut ordered: Vec<usize> = touched.iter().copied().collect();
        ordered.sort_unstable();
        let dirty = self.globalized_dirty(&ordered, &retired);
        self.note_heat(&dirty);
        self.publish(dirty);
        Ok(self.merge_outcomes(outcomes, &touched))
    }

    /// Append rows to master relation `master`.  The delta is **ground
    /// once** — shard 0 pays the `|Σ2| × |Δ|` grounding loop and the
    /// validation happens there, before anything observable mutates — and
    /// every shard (including shard 0) then adopts the shared immutable step
    /// block: a stamp bump plus the exact step-reachability filter deciding
    /// which of its cached blocks re-repair.  The stamps advance in lockstep
    /// exactly as under a per-shard broadcast, and the re-repairs of all
    /// shards run through the same flattened block-level pipeline as row
    /// batches.
    pub fn apply_master_append(
        &mut self,
        master: usize,
        rows: Vec<Vec<Value>>,
    ) -> Result<UpdateOutcome, IncrementalError> {
        let delta = self.shards[0].ground_master_delta(&MasterUpdate::append(master, rows))?;
        let threads = self.threads;
        let jobs: Vec<(usize, Mutex<&mut IncrementalEngine>)> = self
            .shards
            .iter_mut()
            .enumerate()
            .map(|(idx, shard)| (idx, Mutex::new(shard)))
            .collect();
        let prepared: Vec<(usize, PreparedRepair, u64)> = par_map_with(
            &jobs,
            threads,
            || (),
            |_, _, (idx, cell)| {
                let started = Instant::now();
                let mut shard = cell.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                // the delta was ground against the lockstep-identical plan
                // state every shard holds, so adoption cannot fail
                let dirty = shard.adopt_master_dirty(&delta).unwrap_or_else(|e| {
                    panic!("shard {idx} rejected a delta ground by its lockstep sibling: {e}")
                });
                let prep = shard.prepare_rerepair(dirty, false);
                (*idx, prep, started.elapsed().as_nanos() as u64)
            },
        );
        drop(jobs);
        let before: Vec<u64> = self.per_shard.iter().map(|s| s.batch_ns).collect();
        let outcomes = self.finish_batches(prepared);
        // master-append work is placement-invariant (every shard adopts the
        // delta and re-repairs whatever master-matching blocks it happens to
        // hold), so advance the rebalance marks past it: only row-batch work
        // may nominate a shard as hot, or broadcast appends would drown the
        // steal signal on every shard at once
        for (idx, was) in before.into_iter().enumerate() {
            self.rebalance_mark[idx] += self.per_shard[idx].batch_ns - was;
        }
        debug_assert!(
            self.shards
                .iter()
                .all(|s| s.engine().plan().stamp() == self.shards[0].engine().plan().stamp()),
            "one-shot master deltas must keep the shard plans in lockstep"
        );
        let touched: HashSet<usize> = (0..self.shards.len()).collect();
        let all: Vec<usize> = (0..self.shards.len()).collect();
        let dirty = self.globalized_dirty(&all, &[]);
        self.publish(dirty);
        Ok(self.merge_outcomes(outcomes, &touched))
    }

    /// Stages 2–4 of both mutation paths: flatten every shard's prepared
    /// jobs into one block-granular work list, resolve it over the shared
    /// pool (the dynamic loop steals blocks, so a hot shard's backlog
    /// spreads across all workers), chase the entities of **all** shards in
    /// one pooled run through shard 0's engine (all plans are lockstep
    /// clones sharing the same master `Arc`s, so the results are identical
    /// to per-shard chases), and commit each shard's cache writes
    /// sequentially in ascending shard order.  Per-shard wall clock —
    /// prepare, its blocks' resolution, its entities' chase share, its
    /// commit — is attributed to [`ShardStats::batch_ns`].
    fn finish_batches(
        &mut self,
        prepared: Vec<(usize, PreparedRepair, u64)>,
    ) -> Vec<UpdateOutcome> {
        debug_assert!(
            prepared.windows(2).all(|w| w[0].0 < w[1].0),
            "prepared sub-batches arrive in ascending shard order"
        );
        // stage 2: one flattened block-level resolution across all shards
        let job_refs: Vec<&BlockJob> = prepared
            .iter()
            .flat_map(|(_, prep, _)| prep.jobs.iter())
            .collect();
        let mut resolved = resolve_block_jobs(&job_refs, &self.resolve, &self.schema, self.threads);
        drop(job_refs);
        // stage 3: one pooled chase over every shard's entities
        let mut entities: Vec<EntityInstance> = Vec::new();
        for rjob in &mut resolved {
            entities.append(&mut rjob.entities);
        }
        let (report, entity_ns) = {
            let engine = self.shards[0].engine();
            engine.intern_entities(&mut entities);
            engine.run_timed(&entities)
        };
        // stage 4: per-shard commits, ascending shard order, canonical
        // ascending-key order inside each shard
        let mut outcomes = Vec::with_capacity(prepared.len());
        let mut resolved = resolved.into_iter();
        let mut cursor = 0usize;
        for (idx, prep, prep_ns) in prepared {
            let shard_resolved: Vec<ResolvedJob> =
                resolved.by_ref().take(prep.jobs.len()).collect();
            let span: usize = shard_resolved.iter().map(|r| r.entity_count).sum();
            let resolve_ns: u64 = shard_resolved.iter().map(|r| r.resolve_ns).sum();
            let results = &report.entities[cursor..cursor + span];
            let chase_ns: u64 = entity_ns[cursor..cursor + span].iter().sum();
            cursor += span;
            let committing = Instant::now();
            let outcome = self.shards[idx].commit_rerepair(prep, shard_resolved, results);
            let commit_ns = committing.elapsed().as_nanos() as u64;
            let stat = &mut self.per_shard[idx];
            stat.dirty_blocks += outcome.dirty_blocks;
            stat.entities_rerepaired += outcome.entities_rerepaired;
            stat.batch_ns += prep_ns + resolve_ns + chase_ns + commit_ns;
            outcomes.push(outcome);
        }
        debug_assert_eq!(
            cursor,
            report.entities.len(),
            "chase results drifted from the shards' jobs"
        );
        outcomes
    }

    /// Update the keyed-block heat counters from a row batch's dirty set:
    /// every tracked block cools by one, every dirty keyed block warms by
    /// two (net +1 while traffic persists), capped so cooled-down blocks
    /// age out.  Singleton blocks are pinned to their shard and never
    /// tracked.
    fn note_heat(&mut self, dirty: &BTreeMap<BlockKey, (usize, BlockKey)>) {
        self.heat.retain(|_, h| {
            *h -= 1;
            *h > 0
        });
        for key in dirty.keys() {
            if matches!(key, BlockKey::Key(_)) {
                let h = self.heat.entry(key.clone()).or_insert(0);
                *h = (*h + 2).min(HEAT_CAP);
            }
        }
    }

    /// Add an empty shard whose engine is cloned from shard 0 — the plan
    /// clone keeps the new shard in stamp lockstep, so it adopts future
    /// master deltas like any sibling.  The routing table is untouched (the
    /// hash baseline keeps its open-time modulus): the fresh shard receives
    /// blocks only through [`ShardedEngine::rebalance`].  Publishes one
    /// clean combined epoch; returns the new shard's index.
    pub fn split_shard(&mut self) -> usize {
        let engine = self.engine().clone();
        let fresh = IncrementalEngine::open(
            engine,
            self.name.clone(),
            &Relation::new(self.schema.clone()),
            self.resolve.clone(),
        );
        self.shards.push(fresh);
        self.global_of_local.push(Arc::new(HashMap::new()));
        self.next_local.push(0);
        self.per_shard.push(ShardStats::default());
        self.rebalance_mark.push(0);
        self.publish(BTreeMap::new());
        self.shards.len() - 1
    }

    /// Move whole keyed blocks between shards.  Per move the source shard
    /// exports the block — rows in snapshot order plus the cached repair and
    /// fingerprints, which are position-indexed and travel verbatim — and
    /// the target imports it in export order, so inside the block ascending
    /// local id keeps implying ascending global id and the canonical merge
    /// is untouched.  The router rewires its global↔local maps and the
    /// routing table (a block moved back to its hash home drops its
    /// exception instead of stacking one).
    ///
    /// Moves that cannot apply — unknown or singleton blocks, out-of-range
    /// targets, already-home moves — are skipped.  If anything moved, the
    /// routing version bumps **once** and exactly one clean combined epoch
    /// is published: pinned readers keep resolving through the table of
    /// their epoch, snapshots stay memoized, change feeds see nothing.
    /// Returns the number of blocks moved.
    pub fn rebalance(&mut self, moves: &[(BlockKey, usize)]) -> usize {
        let mut moved = 0usize;
        for (key, target) in moves {
            let target = *target;
            if target >= self.shards.len() || matches!(key, BlockKey::Singleton(_)) {
                continue;
            }
            let source = self.routing.shard_of(key);
            if source == target {
                continue;
            }
            let Some(exported) = self.shards[source].export_block(key) else {
                continue;
            };
            // capture the moved rows' global ids before scrubbing the source
            // maps; export order is ascending source-local id
            let old_lids = exported.repair.rows.clone();
            let gids: Vec<RowId> = old_lids
                .iter()
                .map(|lid| self.global_of_local[source][lid])
                .collect();
            {
                let map = Arc::make_mut(&mut self.global_of_local[source]);
                for lid in &old_lids {
                    map.remove(lid);
                }
            }
            let new_lids = self.shards[target].import_block(key, exported);
            debug_assert_eq!(
                new_lids.first().copied(),
                Some(RowId(self.next_local[target])),
                "shards assign local ids sequentially across imports"
            );
            self.next_local[target] += new_lids.len() as u64;
            let route = Arc::make_mut(&mut self.route);
            let to_global = Arc::make_mut(&mut self.global_of_local[target]);
            for (&gid, &lid) in gids.iter().zip(&new_lids) {
                route.insert(gid, (target, lid));
                to_global.insert(lid, gid);
            }
            let table = Arc::make_mut(&mut self.routing);
            if shard_of(key, table.home_shards) == target {
                table.map.remove(key);
            } else {
                table.map.insert(key.clone(), target);
            }
            moved += 1;
        }
        if moved > 0 {
            Arc::make_mut(&mut self.routing).version += 1;
            self.publish(BTreeMap::new());
        }
        moved
    }

    /// The online rebalance trigger: find the shard that spent the most
    /// wall clock since the previous reading ([`ShardStats::batch_ns`]),
    /// pick up to `max_blocks` persistently hot keyed blocks living on it
    /// (heat ≥ streak threshold), and move them to the shard with the
    /// fewest live rows — unless the move would just swap the imbalance
    /// (the cold remainder on the source must stay larger than the target).
    /// Returns the number of blocks moved.
    ///
    /// The trigger reads wall-clock counters, so *which* batch trips it is
    /// timing-dependent — but a rebalance never changes semantics (the
    /// snapshot is bit-identical under any rebalance schedule), only
    /// placement, so the nondeterminism is invisible to readers.
    pub fn rebalance_hot(&mut self, max_blocks: usize) -> usize {
        if self.shards.len() < 2 || max_blocks == 0 {
            return 0;
        }
        let mut busiest = 0usize;
        let mut best = 0u64;
        for (idx, stat) in self.per_shard.iter().enumerate() {
            let delta = stat.batch_ns - self.rebalance_mark[idx];
            if delta > best {
                best = delta;
                busiest = idx;
            }
        }
        for (idx, stat) in self.per_shard.iter().enumerate() {
            self.rebalance_mark[idx] = stat.batch_ns;
        }
        if best == 0 {
            return 0;
        }
        let mut target = 0usize;
        let mut fewest = usize::MAX;
        for (idx, shard) in self.shards.iter().enumerate() {
            let rows = shard.relation().len();
            if rows < fewest {
                fewest = rows;
                target = idx;
            }
        }
        if target == busiest {
            return 0;
        }
        let mut candidates: Vec<(BlockKey, u64)> = self
            .heat
            .iter()
            .filter(|(key, &h)| {
                h >= HOT_STREAK
                    && matches!(key, BlockKey::Key(_))
                    && self.routing.shard_of(key) == busiest
            })
            .map(|(key, &h)| (key.clone(), h))
            .collect();
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut source_rows = self.shards[busiest].relation().len();
        let mut target_rows = fewest;
        let mut moves: Vec<(BlockKey, usize)> = Vec::new();
        for (key, _) in candidates.into_iter().take(max_blocks) {
            let Some(len) = self.shards[busiest].cached_block_len(&key) else {
                continue;
            };
            // anti-thrash: only isolate the hot block if the cold remainder
            // left behind still outweighs the target — once a hot block sits
            // alone on a small shard, no further move passes this guard
            if len == 0 || target_rows + len >= source_rows {
                continue;
            }
            source_rows -= len;
            target_rows += len;
            moves.push((key, target));
        }
        for (key, _) in &moves {
            self.heat.remove(key);
        }
        self.rebalance(&moves)
    }

    /// The combined dirty set of the given shards' latest per-shard epochs,
    /// re-keyed to global currency: singleton keys carry shard-local row ids
    /// (two shards can collide on them), so they are rewritten to the global
    /// id — through the live maps, or through this batch's `retired` pairs
    /// for rows the same batch deleted.
    fn globalized_dirty(
        &self,
        shard_indices: &[usize],
        retired: &[HashMap<RowId, RowId>],
    ) -> BTreeMap<BlockKey, (usize, BlockKey)> {
        let mut dirty = BTreeMap::new();
        for &idx in shard_indices {
            let epoch = self.shards[idx].current_epoch();
            for local_key in epoch.dirty_keys() {
                let global_key = match local_key {
                    BlockKey::Singleton(lid) => {
                        let gid = self.global_of_local[idx]
                            .get(lid)
                            .copied()
                            .or_else(|| retired.get(idx).and_then(|m| m.get(lid)).copied())
                            .expect("a dirty singleton row is live or was retired by this batch");
                        BlockKey::Singleton(gid)
                    }
                    key @ BlockKey::Key(_) => key.clone(),
                };
                dirty.insert(global_key, (idx, local_key.clone()));
            }
        }
        dirty
    }

    /// Publish the router's current state as one combined epoch: every
    /// shard's pinned rows + block cache (taken from the shard's own latest
    /// epoch, so they are exactly what the shard just committed) plus the
    /// pinned global↔local id maps and the pinned routing table.
    fn publish(&self, dirty: BTreeMap<BlockKey, (usize, BlockKey)>) {
        let shards: Vec<ShardView> = self
            .shards
            .iter()
            .enumerate()
            .map(|(idx, shard)| {
                let epoch = shard.current_epoch();
                ShardView {
                    rows: epoch.shards[0].rows.clone(),
                    blocks: Arc::clone(&epoch.shards[0].blocks),
                    to_global: Some(Arc::clone(&self.global_of_local[idx])),
                }
            })
            .collect();
        self.hub.publish(Epoch {
            id: EpochId(0), // assigned by the hub
            generation: self.generation,
            stamp: self.shards[0].engine().plan().stamp(),
            schema: self.schema.clone(),
            blocker: Arc::new(self.blocker.clone()),
            threads: self.threads,
            shards,
            route: Some(Arc::clone(&self.route)),
            routing: Some(Arc::clone(&self.routing)),
            dirty: Arc::new(dirty),
        });
    }

    /// A cloneable handle to the router's epoch hub — the read side of the
    /// serving layer (combined epochs only; per-shard states are internal).
    pub fn epochs(&self) -> EpochHub {
        self.hub.clone()
    }

    /// Pin the router's current combined epoch.
    pub fn current_epoch(&self) -> Arc<Epoch> {
        self.hub.current()
    }

    /// Everything that changed since generation `since`, at block
    /// granularity (see [`EpochHub::changes_since`]).
    pub fn changes_since(&self, since: Generation) -> Result<SnapshotDelta, EpochError> {
        self.hub.changes_since(since)
    }

    /// How many epochs stay reachable for generation-addressed reads.
    pub fn set_epoch_retention(&self, epochs: usize) {
        self.hub.set_retention(epochs);
    }

    /// Sum per-shard outcomes; untouched shards contribute their cached
    /// blocks/entities as clean/reused.
    fn merge_outcomes(
        &self,
        outcomes: Vec<UpdateOutcome>,
        touched: &HashSet<usize>,
    ) -> UpdateOutcome {
        let mut merged = UpdateOutcome {
            generation: self.generation,
            dirty_blocks: 0,
            dropped_blocks: 0,
            clean_blocks: 0,
            entities_rerepaired: 0,
            entities_reused: 0,
        };
        for outcome in outcomes {
            merged.dirty_blocks += outcome.dirty_blocks;
            merged.dropped_blocks += outcome.dropped_blocks;
            merged.clean_blocks += outcome.clean_blocks;
            merged.entities_rerepaired += outcome.entities_rerepaired;
            merged.entities_reused += outcome.entities_reused;
        }
        for (idx, shard) in self.shards.iter().enumerate() {
            if !touched.contains(&idx) {
                merged.clean_blocks += shard.cached_blocks();
                merged.entities_reused += shard.cached_entities();
            }
        }
        merged
    }

    /// The live rows of every shard in canonical global order (ascending
    /// global row id == insertion order), plus, per shard, the map from
    /// shard-local row position to global row position.
    fn global_rows(&self) -> (Relation, Vec<Vec<usize>>) {
        let mut rows: Vec<(RowId, usize, usize, &Tuple)> = Vec::with_capacity(self.route.len());
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            for (local_pos, row) in shard.relation().rows().iter().enumerate() {
                let gid = self.global_of_local[shard_idx][&row.id];
                rows.push((gid, shard_idx, local_pos, &row.tuple));
            }
        }
        rows.sort_by_key(|&(gid, _, _, _)| gid);
        let mut relation = Relation::new(self.schema.clone());
        let mut pos_map: Vec<Vec<usize>> = self
            .shards
            .iter()
            .map(|s| vec![usize::MAX; s.relation().len()])
            .collect();
        for (global_pos, &(_, shard_idx, local_pos, tuple)) in rows.iter().enumerate() {
            pos_map[shard_idx][local_pos] = global_pos;
            relation
                .push_row(tuple.values().to_vec())
                .expect("live rows were validated on insert");
        }
        (relation, pos_map)
    }

    /// The current corpus state as one plain [`Relation`] in canonical global
    /// row order — the view a from-scratch `repair_relation` would repair.
    pub fn snapshot_relation(&self) -> Relation {
        self.global_rows().0
    }

    /// Merge every shard's per-block cache into the current full
    /// [`RelationRepair`].
    ///
    /// Bit-identical to a single [`IncrementalEngine`]'s snapshot over the
    /// same update stream — regardless of any splits or rebalances in
    /// between — and semantically identical to a from-scratch
    /// `repair_relation` of [`ShardedEngine::snapshot_relation`] under the
    /// current plan: within any one block, shard-local row order is a
    /// subsequence of the global order (migration re-inserts a block in
    /// export order), so rebasing block indices through the position maps
    /// preserves every within-block ordering, and the shared
    /// `assemble_repair` puts blocks and entities into the canonical
    /// ascending-smallest-member order.
    ///
    /// Memoized on the epoch stamps: if every epoch published since the last
    /// assembly carried an empty dirty set (e.g. a master append that
    /// revalidated every block unchanged, or a rebalance — pure placement),
    /// the previous `Arc` is returned without rebuilding anything.
    pub fn snapshot(&self) -> Arc<RelationRepair> {
        let current = self.hub.current();
        let mut cache = self
            .snapshot_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((seen, snap)) = cache.as_ref() {
            let unchanged = *seen == current.id() || self.hub.any_dirty_since(*seen) == Some(false);
            if unchanged {
                let snap = Arc::clone(snap);
                *cache = Some((current.id(), snap.clone()));
                return snap;
            }
        }
        let snap = Arc::new(self.assemble_full());
        *cache = Some((current.id(), Arc::clone(&snap)));
        snap
    }

    /// The unmemoized full assembly behind [`ShardedEngine::snapshot`].
    fn assemble_full(&self) -> RelationRepair {
        let (relation, pos_map) = self.global_rows();
        let mut blocks: Vec<AssembledBlock> = Vec::new();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let map = &pos_map[shard_idx];
            for mut block in shard.assembled_blocks() {
                for decision in &mut block.decisions {
                    decision.left = map[decision.left];
                    decision.right = map[decision.right];
                }
                for (members, _) in &mut block.entities {
                    for member in members.iter_mut() {
                        *member = map[*member];
                    }
                }
                // within one block the local→global map is monotone (imports
                // preserve export order), so the smallest member stays the
                // smallest
                block.first_row = map[block.first_row];
                blocks.push(block);
            }
        }
        assemble_repair(relation, blocks, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::EntityOutcome;
    use relacc_core::rules::{MasterPremise, MasterRule, Predicate, RuleSet, TupleRule};
    use relacc_model::{AttrId, CmpOp, DataType, MasterRelation, Schema, Value};
    use relacc_resolve::BlockingStrategy;

    fn schema() -> SchemaRef {
        Schema::builder("stat")
            .attr("name", DataType::Text)
            .attr("rnds", DataType::Int)
            .attr("team", DataType::Text)
            .build()
    }

    fn master_schema() -> SchemaRef {
        Schema::builder("nba")
            .attr("name", DataType::Text)
            .attr("team", DataType::Text)
            .build()
    }

    fn rules(s: &SchemaRef, ms: &SchemaRef) -> RuleSet {
        RuleSet::from_rules([
            relacc_core::AccuracyRule::from(TupleRule::new(
                "cur",
                vec![Predicate::cmp_attrs(s.expect_attr("rnds"), CmpOp::Lt)],
                s.expect_attr("rnds"),
            )),
            relacc_core::AccuracyRule::from(MasterRule::new(
                "m",
                vec![MasterPremise::TargetEqMaster(
                    s.expect_attr("name"),
                    ms.expect_attr("name"),
                )],
                vec![(s.expect_attr("team"), ms.expect_attr("team"))],
            )),
        ])
    }

    fn seed_relation(s: &SchemaRef) -> Relation {
        Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::text("mj"), Value::Int(16), Value::Null],
                vec![Value::text("mj"), Value::Int(27), Value::Null],
                vec![Value::text("sp"), Value::Int(27), Value::Null],
                vec![Value::text("dr"), Value::Int(3), Value::Null],
                vec![Value::Null, Value::Int(9), Value::Null],
            ],
        )
        .unwrap()
    }

    fn resolve() -> ResolveConfig {
        ResolveConfig::on_attrs(vec!["name".into()]).with_strategy(BlockingStrategy::ExactKey)
    }

    fn open(shards: usize) -> ShardedEngine {
        let s = schema();
        let ms = master_schema();
        let master = MasterRelation::from_rows(
            ms.clone(),
            vec![vec![Value::text("mj"), Value::text("Bulls")]],
        )
        .unwrap();
        let engine = BatchEngine::new(s.clone(), rules(&s, &ms), vec![master]).unwrap();
        ShardedEngine::open(engine, "stat", &seed_relation(&s), resolve(), shards)
    }

    fn mj_key(engine: &ShardedEngine) -> BlockKey {
        BlockKey::of_values(
            &engine.blocker,
            RowId(0),
            &[Value::text("mj"), Value::Int(16), Value::Null],
        )
    }

    fn assert_matches_full(sharded: &ShardedEngine, label: &str) {
        let relation = sharded.snapshot_relation();
        let full = sharded.engine().repair_relation(&relation, &resolve());
        let snap = sharded.snapshot();
        assert_eq!(
            snap.resolved.members, full.resolved.members,
            "{label}: members"
        );
        assert_eq!(
            snap.resolved.decisions, full.resolved.decisions,
            "{label}: decisions"
        );
        assert_eq!(
            snap.report.entities.len(),
            full.report.entities.len(),
            "{label}: entity count"
        );
        for (a, b) in snap.report.entities.iter().zip(full.report.entities.iter()) {
            assert_eq!(a.entity, b.entity, "{label}: entity index");
            assert_eq!(a.records, b.records, "{label}: records of {}", a.entity);
            assert_eq!(a.outcome, b.outcome, "{label}: outcome of {}", a.entity);
            assert_eq!(a.deduced, b.deduced, "{label}: deduced of {}", a.entity);
            assert_eq!(
                a.suggestion, b.suggestion,
                "{label}: suggestion of {}",
                a.entity
            );
        }
        assert_eq!(snap.repaired.rows(), full.repaired.rows(), "{label}: rows");
        assert_eq!(
            snap.row_entities, full.row_entities,
            "{label}: row entities"
        );
        assert_eq!(snap.skipped, full.skipped, "{label}: skipped");
    }

    #[test]
    fn sharding_is_transparent_at_every_shard_count() {
        for shards in [1usize, 2, 3, 4, 7] {
            let mut engine = open(shards);
            assert_eq!(engine.shard_count(), shards);
            assert_eq!(engine.len(), 5);
            assert_matches_full(&engine, &format!("seed/{shards}"));

            // split batch: touches mj and dr blocks plus a fresh singleton
            let outcome = engine
                .apply(
                    &UpdateBatch::new("stat")
                        .delete(RowId(3))
                        .insert(vec![Value::text("mj"), Value::Int(31), Value::Null])
                        .insert(vec![Value::Null, Value::Int(12), Value::Null]),
                )
                .unwrap();
            assert_eq!(outcome.generation, Generation(1));
            assert_eq!(engine.generation(), Generation(1));
            assert_matches_full(&engine, &format!("rows/{shards}"));

            // broadcast: a master append completing the sp entity
            engine
                .apply_master_append(0, vec![vec![Value::text("sp"), Value::text("Blazers")]])
                .unwrap();
            assert_matches_full(&engine, &format!("master/{shards}"));
            let snap = engine.snapshot();
            let sp = snap
                .report
                .entities
                .iter()
                .find(|e| e.records == vec![2])
                .expect("sp entity");
            assert_eq!(sp.deduced.value(AttrId(2)), &Value::text("Blazers"));
        }
    }

    #[test]
    fn sharded_snapshot_is_bit_identical_to_a_single_engine() {
        let s = schema();
        let ms = master_schema();
        let master = MasterRelation::from_rows(
            ms.clone(),
            vec![vec![Value::text("mj"), Value::text("Bulls")]],
        )
        .unwrap();
        let single_engine = BatchEngine::new(s.clone(), rules(&s, &ms), vec![master]).unwrap();
        let mut single =
            IncrementalEngine::open(single_engine.clone(), "stat", &seed_relation(&s), resolve());
        let mut sharded =
            ShardedEngine::open(single_engine, "stat", &seed_relation(&s), resolve(), 4);
        let batches = [
            UpdateBatch::new("stat").insert(vec![Value::text("sp"), Value::Int(31), Value::Null]),
            UpdateBatch::new("stat").delete(RowId(0)).insert(vec![
                Value::text("dr"),
                Value::Int(5),
                Value::Null,
            ]),
            UpdateBatch::new("stat").delete(RowId(4)).delete(RowId(6)),
        ];
        for (step, batch) in batches.iter().enumerate() {
            single.apply(batch).unwrap();
            sharded.apply(batch).unwrap();
            let a = single.snapshot();
            let b = sharded.snapshot();
            assert_eq!(
                a.resolved.members, b.resolved.members,
                "step {step}: members"
            );
            assert_eq!(
                a.resolved.decisions, b.resolved.decisions,
                "step {step}: decisions"
            );
            assert_eq!(a.repaired.rows(), b.repaired.rows(), "step {step}: rows");
            assert_eq!(a.skipped, b.skipped, "step {step}: skipped");
            for (x, y) in a.report.entities.iter().zip(b.report.entities.iter()) {
                assert_eq!(x.records, y.records, "step {step}");
                assert_eq!(x.outcome, y.outcome, "step {step}");
                assert_eq!(x.deduced, y.deduced, "step {step}");
                assert_eq!(x.suggestion, y.suggestion, "step {step}");
            }
        }
    }

    #[test]
    fn split_batches_only_touch_their_shards() {
        let mut engine = open(4);
        // find the shard holding the mj block and count re-repairs when a
        // batch only touches mj: exactly one entity re-repairs, everyone
        // else is reused from cache
        let outcome = engine
            .apply(&UpdateBatch::new("stat").insert(vec![
                Value::text("mj"),
                Value::Int(40),
                Value::Null,
            ]))
            .unwrap();
        assert_eq!(outcome.dirty_blocks, 1);
        assert_eq!(outcome.entities_rerepaired, 1);
        assert_eq!(outcome.entities_reused, 3, "sp, dr and the singleton");
        assert_eq!(
            outcome.dirty_blocks + outcome.clean_blocks,
            4,
            "mj, sp, dr and the singleton blocks"
        );
    }

    #[test]
    fn router_validates_like_a_single_engine() {
        let mut engine = open(3);
        assert!(matches!(
            engine.apply(&UpdateBatch::new("other")),
            Err(IncrementalError::Update(UpdateError::NoSuchRelation(_)))
        ));
        assert!(matches!(
            engine.apply(&UpdateBatch::new("stat").delete(RowId(99))),
            Err(IncrementalError::Update(UpdateError::NoSuchRow(_)))
        ));
        // duplicate delete within one batch
        assert!(matches!(
            engine.apply(&UpdateBatch::new("stat").delete(RowId(0)).delete(RowId(0))),
            Err(IncrementalError::Update(UpdateError::NoSuchRow(_)))
        ));
        // schema-invalid insert
        assert!(matches!(
            engine.apply(&UpdateBatch::new("stat").insert(vec![Value::Int(1)])),
            Err(IncrementalError::Update(UpdateError::Schema(_)))
        ));
        // rejected batches mutate nothing
        assert_eq!(engine.generation(), Generation(0));
        assert_eq!(engine.len(), 5);
        assert_matches_full(&engine, "after-rejections");
    }

    #[test]
    fn suggestions_survive_the_sharded_merge() {
        let s = Schema::builder("r")
            .attr("name", DataType::Text)
            .attr("color", DataType::Text)
            .build();
        let relation = Relation::from_rows(
            s.clone(),
            vec![
                vec![Value::text("widget"), Value::text("red")],
                vec![Value::text("widget"), Value::text("red")],
                vec![Value::text("widget"), Value::text("blue")],
                vec![Value::text("gadget"), Value::text("green")],
            ],
        )
        .unwrap();
        let engine = BatchEngine::new(s.clone(), RuleSet::new(), vec![]).unwrap();
        let mut sharded = ShardedEngine::open(engine, "r", &relation, resolve(), 2);
        let snap = sharded.snapshot();
        assert_eq!(snap.report.entities[0].outcome, EntityOutcome::Suggested);
        sharded
            .apply(&UpdateBatch::new("r").insert(vec![Value::text("gadget"), Value::text("teal")]))
            .unwrap();
        let snap = sharded.snapshot();
        assert_eq!(snap.report.entities[0].outcome, EntityOutcome::Suggested);
        assert_eq!(
            snap.report.entities[0]
                .suggestion
                .as_ref()
                .unwrap()
                .value(AttrId(1)),
            &Value::text("red")
        );
    }

    /// Regression: `snapshot` used to rebuild the full merge even when no
    /// shard was dirty.  The epoch stamps now prove cleanliness, so repeated
    /// snapshots — and snapshots across a no-op master append — return the
    /// same `Arc` without any assembly work.
    #[test]
    fn clean_snapshots_are_memoized() {
        let mut engine = open(3);
        // drop the null-name singleton first: its deduced name stays null,
        // which makes *every* master append conservatively dirty its block
        engine
            .apply(&UpdateBatch::new("stat").delete(RowId(4)))
            .unwrap();
        let first = engine.snapshot();
        let second = engine.snapshot();
        assert!(
            Arc::ptr_eq(&first, &second),
            "back-to-back snapshots must reuse the memoized assembly"
        );
        // a master append matching no live entity revalidates every block
        // unchanged: the published epoch carries an empty dirty set
        engine
            .apply_master_append(0, vec![vec![Value::text("zz"), Value::text("Nobody")]])
            .unwrap();
        assert!(
            engine.current_epoch().dirty_keys().next().is_none(),
            "the no-op master append must publish a clean epoch"
        );
        let third = engine.snapshot();
        assert!(
            Arc::ptr_eq(&first, &third),
            "a clean master append must not invalidate the memo"
        );
        // a real row batch does invalidate it
        engine
            .apply(&UpdateBatch::new("stat").insert(vec![
                Value::text("mj"),
                Value::Int(40),
                Value::Null,
            ]))
            .unwrap();
        let fourth = engine.snapshot();
        assert!(!Arc::ptr_eq(&first, &fourth), "dirty batches rebuild");
        assert_matches_full(&engine, "after-memoized-snapshots");
    }

    #[test]
    fn shard_routing_is_a_pure_function_of_the_key() {
        for shards in [1usize, 2, 5, 8] {
            let a = BlockKey::Key("michael jordan".into());
            let b = BlockKey::Key("michael jordan".into());
            assert_eq!(shard_of(&a, shards), shard_of(&b, shards));
            assert!(shard_of(&a, shards) < shards);
            let s1 = BlockKey::Singleton(RowId(7));
            assert_eq!(shard_of(&s1, shards), shard_of(&s1.clone(), shards));
            assert!(shard_of(&s1, shards) < shards);
        }
        // keys spread: over many distinct keys, more than one shard is hit
        let hit: HashSet<usize> = (0..64)
            .map(|i| shard_of(&BlockKey::Key(format!("key {i}")), 4))
            .collect();
        assert!(hit.len() > 1, "FNV routing must actually spread keys");
    }

    #[test]
    fn master_appends_ground_once_regardless_of_shard_count() {
        for shards in [1usize, 2, 4, 7] {
            let mut engine = open(shards);
            assert_eq!(
                engine.stats().master_groundings,
                0,
                "{shards}: open grounds nothing"
            );
            engine
                .apply_master_append(0, vec![vec![Value::text("sp"), Value::text("Blazers")]])
                .unwrap();
            engine
                .apply_master_append(0, vec![vec![Value::text("dr"), Value::text("Pistons")]])
                .unwrap();
            let stats = engine.stats();
            assert_eq!(
                stats.master_groundings, 2,
                "{shards}: one grounding per append, independent of shard count"
            );
            assert_eq!(
                stats.master_deltas_applied,
                2 * shards,
                "{shards}: every shard adopts every delta"
            );
            // a rejected append surfaces at the grounding shard before
            // anything observable mutates anywhere
            assert!(matches!(
                engine.apply_master_append(9, vec![vec![Value::text("x"), Value::text("y")]]),
                Err(IncrementalError::Plan(_))
            ));
            assert_eq!(engine.stats().master_groundings, 2);
            assert_matches_full(&engine, &format!("grounded/{shards}"));
        }
    }

    #[test]
    fn per_shard_stats_expose_the_hot_shard() {
        let mut engine = open(4);
        let before = engine.sharded_stats();
        assert_eq!(before.per_shard.len(), 4);
        assert!(
            before.per_shard.iter().all(|s| *s == ShardStats::default()),
            "open attributes nothing to the per-shard counters"
        );
        let outcome = engine
            .apply(&UpdateBatch::new("stat").insert(vec![
                Value::text("mj"),
                Value::Int(40),
                Value::Null,
            ]))
            .unwrap();
        let stats = engine.sharded_stats();
        assert_eq!(stats.totals, engine.stats());
        let touched: Vec<&ShardStats> = stats
            .per_shard
            .iter()
            .filter(|s| **s != ShardStats::default())
            .collect();
        assert_eq!(touched.len(), 1, "a single-block batch touches one shard");
        assert_eq!(touched[0].dirty_blocks, outcome.dirty_blocks);
        assert_eq!(touched[0].entities_rerepaired, outcome.entities_rerepaired);
        assert!(
            touched[0].batch_ns > 0,
            "wall clock is attributed to the touched shard"
        );
    }

    #[test]
    fn split_and_rebalance_keep_snapshots_canonical() {
        let mut engine = open(3);
        let mj = mj_key(&engine);
        let home = shard_of(&mj, 3);

        let fresh = engine.split_shard();
        assert_eq!(fresh, 3);
        assert_eq!(engine.shard_count(), 4);
        assert_eq!(engine.shards()[fresh].relation().len(), 0);
        assert_eq!(engine.routing_version(), 0, "a split does not rebalance");
        assert_matches_full(&engine, "after-split");

        let before = engine.snapshot();
        assert_eq!(engine.rebalance(&[(mj.clone(), fresh)]), 1);
        assert_eq!(engine.routing_version(), 1);
        assert_eq!(
            engine.shards()[fresh].relation().len(),
            2,
            "both mj rows moved"
        );
        let after = engine.snapshot();
        assert!(
            Arc::ptr_eq(&before, &after),
            "a rebalance publishes a clean epoch: the snapshot memo survives"
        );
        assert_matches_full(&engine, "after-rebalance");

        // new rows of a moved block follow the routing override...
        engine
            .apply(&UpdateBatch::new("stat").insert(vec![
                Value::text("mj"),
                Value::Int(40),
                Value::Null,
            ]))
            .unwrap();
        assert_eq!(engine.shards()[fresh].relation().len(), 3);
        assert_matches_full(&engine, "insert-into-moved");
        // ...deletes address moved rows through the rewired route...
        engine
            .apply(&UpdateBatch::new("stat").delete(RowId(0)))
            .unwrap();
        assert_eq!(engine.shards()[fresh].relation().len(), 2);
        assert_matches_full(&engine, "delete-from-moved");
        // ...and master deltas reach the moved block like any other
        engine
            .apply_master_append(0, vec![vec![Value::text("sp"), Value::text("Blazers")]])
            .unwrap();
        assert_matches_full(&engine, "master-after-move");

        // moving home removes the exception instead of stacking a new one
        assert_eq!(engine.rebalance(&[(mj.clone(), home)]), 1);
        assert!(
            engine.routing.map.is_empty(),
            "a block moved home leaves no override behind"
        );
        assert_eq!(engine.routing_version(), 2);
        assert_matches_full(&engine, "moved-home");

        // no-op moves: already home, singletons, unknown blocks, bad targets
        assert_eq!(engine.rebalance(&[(mj.clone(), home)]), 0);
        assert_eq!(
            engine.rebalance(&[(BlockKey::Singleton(RowId(4)), fresh)]),
            0
        );
        assert_eq!(
            engine.rebalance(&[(BlockKey::Key("nobody".into()), fresh)]),
            0
        );
        assert_eq!(engine.rebalance(&[(mj.clone(), 99)]), 0);
        assert_eq!(
            engine.routing_version(),
            2,
            "no-op rebalances publish nothing"
        );
        assert_matches_full(&engine, "after-noop-moves");
    }

    #[test]
    fn change_feeds_compose_across_a_rebalance() {
        let mut engine = open(2);
        let base = engine.current_epoch();
        let mut views = base.block_views();
        // dirty the mj block *before* the rebalance: the delta below must
        // relocate the change through the post-rebalance routing, not the
        // shard recorded when the dirty epoch was published
        engine
            .apply(&UpdateBatch::new("stat").insert(vec![
                Value::text("mj"),
                Value::Int(40),
                Value::Null,
            ]))
            .unwrap();
        let fresh = engine.split_shard();
        let mj = mj_key(&engine);
        assert_eq!(engine.rebalance(&[(mj.clone(), fresh)]), 1);

        let delta = engine.changes_since(base.generation()).unwrap();
        let change = delta
            .changes
            .iter()
            .find(|c| c.key == mj)
            .expect("the mj block changed since the base epoch");
        assert!(
            change.after.is_some(),
            "a moved block's change must resolve through the current routing"
        );
        delta.apply_to(&mut views);
        let composed = crate::epoch::assemble_views(schema(), &views, 1);
        let target = engine.current_epoch().snapshot();
        assert_eq!(composed.resolved.members, target.resolved.members);
        assert_eq!(composed.resolved.decisions, target.resolved.decisions);
        assert_eq!(composed.repaired.rows(), target.repaired.rows());
    }

    #[test]
    fn rebalance_hot_isolates_a_hot_block() {
        let mut engine = open(3);
        engine.split_shard();
        let mj = mj_key(&engine);
        let home = engine.routing.shard_of(&mj);

        // pad the hot block's home shard with cold blocks so the anti-thrash
        // guard (the cold remainder must outweigh the target) lets the hot
        // block leave
        let mut pad = UpdateBatch::new("stat");
        let mut added = 0usize;
        let mut i = 0usize;
        while added < 8 {
            let row = vec![
                Value::text(format!("cold{i}")),
                Value::Int(i as i64),
                Value::Null,
            ];
            let key = BlockKey::of_values(&engine.blocker, RowId(0), &row);
            if shard_of(&key, 3) == home {
                pad = pad.insert(row);
                added += 1;
            }
            i += 1;
        }
        engine.apply(&pad).unwrap();

        // hammer the mj block until its heat crosses the streak threshold;
        // the cold pads decay out of the heat map meanwhile
        for r in 0..4i64 {
            engine
                .apply(&UpdateBatch::new("stat").insert(vec![
                    Value::text("mj"),
                    Value::Int(100 + r),
                    Value::Null,
                ]))
                .unwrap();
        }
        assert!(engine.heat.get(&mj).copied().unwrap_or(0) >= HOT_STREAK);

        assert_eq!(engine.rebalance_hot(4), 1, "exactly the hot block moves");
        assert_ne!(
            engine.routing.shard_of(&mj),
            home,
            "the hot block left the busy shard"
        );
        assert_eq!(engine.routing_version(), 1);
        assert!(
            !engine.heat.contains_key(&mj),
            "a moved block's heat resets"
        );
        assert_matches_full(&engine, "after-hot-rebalance");
        assert_eq!(
            engine.rebalance_hot(4),
            0,
            "no traffic since the last reading, no further moves"
        );
    }
}
