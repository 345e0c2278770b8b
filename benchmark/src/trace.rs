//! Spans around the benchmark's calls into each layer, and the traced run's
//! replay of every commit through the layers' public functions.
//!
//! The program itself is not instrumented: the traced run times the calls
//! the benchmark makes.  Its timed phase runs as the untraced one does,
//! apart from one in-process feed diff per commit ([`FeedDiff`]) and a
//! note of what each commit dirtied ([`Committed`]).  After the timed
//! phase, [`Replay`] replays every commit's stages on the same inputs —
//! store and blocking-index replicas fed the same batch, resolution of each
//! dirty block, the chase of each resulting entity, the top-k search of
//! each entity the chase left incomplete, and master grounding on a plan
//! replica — so the replay does not move the timed phase's commits against
//! the feed handler's tick.  Spans stay in memory and are written out when
//! the run ends.

use relacc_core::chase::{ChaseCheckpoint, ChaseScratch, CheckpointOutcome, MasterUpdate};
use relacc_engine::{BatchEngine, EpochHub};
use relacc_model::{EntityInstance, SchemaRef, Tuple, Value};
use relacc_resolve::{resolve_relation, BlockKey, IncrementalBlockingIndex, ResolveConfig};
use relacc_serve::Subscription;
use relacc_store::{Relation, RelationEpoch, RowId, UpdateBatch, VersionedRelation};
use relacc_topk::{topkct_with, CandidateSearch, PreferenceModel};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// The operation (round) the call belongs to; 0 for set-up.
    pub op: u64,
}

/// An open span: its start and, when tracing, its slot.
#[derive(Debug)]
pub struct Mark {
    start: Instant,
    slot: u32,
}

/// Span recorder.  With tracing off it only measures durations.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, base: Instant) -> Self {
        Tracer {
            on,
            base,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Mark {
        let mut slot = NO_PARENT;
        if self.on {
            slot = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
                op,
            });
            self.open.push(slot);
        }
        let start = Instant::now();
        if self.on {
            self.spans[slot as usize].start_ns = self.ns(start);
        }
        Mark { start, slot }
    }

    pub fn end(&mut self, mark: Mark) -> Duration {
        let end = Instant::now();
        if mark.slot != NO_PARENT {
            let ns = self.ns(end);
            self.spans[mark.slot as usize].end_ns = ns;
            self.open.pop();
        }
        end - mark.start
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Summed duration in seconds of the spans named `name` per operation.
    pub fn per_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as tab-separated lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Counts taken at the same call boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// `pairs_considered` summed per row batch.
    pub pairs_per_batch: Vec<f64>,
    /// `dp_runs` summed per row batch.
    pub kernel_runs_per_batch: Vec<f64>,
    /// `ground_steps` per replayed chase.
    pub ground_steps: Vec<f64>,
    pub steps_applied: u64,
    pub steps_considered: u64,
    /// Delta plus full checks per replayed search.
    pub checks_per_search: Vec<f64>,
    /// `entities_rerepaired` per row batch and per master append.
    pub entities_per_batch: Vec<f64>,
    pub entities_per_append: Vec<f64>,
    /// `IncrementalEngine::apply` minus the replayed stages, per row batch.
    pub engine_self_s: Vec<f64>,
    /// Replayed dirty-block sets that differed from the epoch's own.
    pub dirty_mismatches: u64,
}

/// What the traced run notes of one commit during the timed phase, for the
/// replay after it.
#[derive(Debug)]
pub struct Committed {
    pub round: u64,
    /// Position of the commit's operation in the update script.
    pub op: usize,
    /// The engine's own `apply` / `apply_master_append` time.
    pub took: Duration,
    /// The published epoch's dirty blocks (`Epoch::dirty_keys`).
    pub dirty: Vec<BlockKey>,
    /// `UpdateOutcome::entities_rerepaired`.
    pub rerepaired: usize,
}

/// The traced run's in-process subscription, diffed right after every
/// commit.  It is the one replayed stage that cannot wait for the end of
/// the timed phase: the hub retains only the last few epochs.
pub struct FeedDiff {
    feed: Subscription,
    /// Entity changes the diffs reported, and entities re-repaired.
    pub changed: u64,
    pub rerepaired: u64,
}

impl FeedDiff {
    pub fn new(feed: Subscription) -> Self {
        FeedDiff {
            feed,
            changed: 0,
            rerepaired: 0,
        }
    }

    /// The diff of the commit that just returned.
    pub fn commit(&mut self, tracer: &mut Tracer, op: u64, rerepaired: usize) {
        let mark = tracer.begin("serve.feed_diff", op);
        let batch = self.feed.next_batch(Duration::from_secs(5));
        tracer.end(mark);
        if let Some(batch) = batch {
            self.changed += batch.changes.len() as u64;
        }
        self.rerepaired += rerepaired as u64;
    }
}

/// Layer replicas the traced run replays every commit through.
pub struct Replay {
    schema: SchemaRef,
    store: VersionedRelation,
    /// Pinned store epochs, as many as the hub retains.
    pinned: VecDeque<RelationEpoch>,
    index: IncrementalBlockingIndex,
    /// Live rows of every block, as the index replica assigns them.
    blocks: HashMap<BlockKey, BTreeSet<RowId>>,
    /// A clone of the engine under test's batch engine taken before the
    /// timed phase: its plan replica.
    engine: BatchEngine,
    resolve: ResolveConfig,
    scratch: ChaseScratch,
    pub counts: Counts,
}

impl Replay {
    /// Replicas of the state the engine under test was opened over.
    pub fn new(relation: &Relation, engine: BatchEngine, resolve: ResolveConfig) -> Self {
        let store = VersionedRelation::from_relation(relation);
        let index = IncrementalBlockingIndex::build(
            resolve.blocker(relation.schema()),
            store.rows().iter().map(|r| (r.id, &r.tuple)),
        );
        let mut blocks: HashMap<BlockKey, BTreeSet<RowId>> = HashMap::new();
        for row in store.rows() {
            let key = index.block_of_row(row.id).expect("indexed above").clone();
            blocks.entry(key).or_default().insert(row.id);
        }
        Replay {
            schema: relation.schema().clone(),
            store,
            pinned: VecDeque::new(),
            index,
            blocks,
            engine,
            resolve,
            scratch: ChaseScratch::new(),
            counts: Counts::default(),
        }
    }

    /// Replay the seed repair: resolution of the whole seed relation, then
    /// the chase and search of every entity.
    pub fn seed(&mut self, tracer: &mut Tracer, relation: &Relation) {
        let mark = tracer.begin("resolve.seed", 0);
        let resolved = resolve_relation(relation, &self.resolve);
        tracer.end(mark);
        let mut entities = resolved.entities;
        self.engine.intern_entities(&mut entities);
        for ie in &entities {
            self.chase_and_search(tracer, 0, ie, "core.seed_chase", "topk.seed_search", false);
        }
    }

    /// The live rows of one block on the replicas, ascending by id.
    fn block_relation(&self, key: &BlockKey) -> Option<Relation> {
        let ids = self.blocks.get(key)?;
        let mut local = Relation::new(self.schema.clone());
        for id in ids {
            let row = self.store.row(*id).expect("indexed rows are live");
            local
                .push_row(row.tuple.values().to_vec())
                .expect("replica rows conform");
        }
        Some(local)
    }

    /// Replay one committed row batch.  The replayed stages' time is
    /// subtracted from the engine's own `apply` time.
    pub fn row_batch(&mut self, tracer: &mut Tracer, commit: &Committed, batch: &UpdateBatch) {
        let op = commit.round;
        let mark = tracer.begin("store.apply", op);
        let applied = self
            .store
            .apply(batch)
            .expect("the replica accepts the batch");
        let mut replayed = tracer.end(mark);
        self.pinned.push_back(self.store.epoch());
        if self.pinned.len() > EpochHub::DEFAULT_RETENTION {
            self.pinned.pop_front();
        }
        for (id, _) in &applied.deleted {
            let key = self
                .index
                .block_of_row(*id)
                .expect("deleted rows were live");
            let rows = self
                .blocks
                .get_mut(key)
                .expect("indexed blocks are tracked");
            rows.remove(id);
            if rows.is_empty() {
                self.blocks.remove(key);
            }
        }
        let inserted: Vec<(RowId, Tuple)> = applied
            .inserted
            .iter()
            .map(|&id| (id, self.store.row(id).expect("just inserted").tuple.clone()))
            .collect();

        let mark = tracer.begin("resolve.index_apply", op);
        let dirty = self.index.apply(
            applied.deleted.iter().map(|(id, _)| *id),
            inserted.iter().map(|(id, t)| (*id, t)),
        );
        replayed += tracer.end(mark);
        for (id, _) in &inserted {
            let key = self.index.block_of_row(*id).expect("just indexed").clone();
            self.blocks.entry(key).or_default().insert(*id);
        }
        if !dirty.blocks.iter().eq(commit.dirty.iter()) {
            self.counts.dirty_mismatches += 1;
        }

        let (mut pairs, mut kernel) = (0usize, 0usize);
        for key in &dirty.blocks {
            let Some(local) = self.block_relation(key) else {
                continue; // the batch emptied the block
            };
            let mark = tracer.begin("resolve.block", op);
            let resolved = resolve_relation(&local, &self.resolve);
            replayed += tracer.end(mark);
            pairs += resolved.stats.pairs_considered;
            kernel += resolved.stats.dp_runs;
            let mut entities = resolved.entities;
            self.engine.intern_entities(&mut entities);
            for ie in &entities {
                replayed +=
                    self.chase_and_search(tracer, op, ie, "core.chase", "topk.search", true);
            }
        }
        self.counts.pairs_per_batch.push(pairs as f64);
        self.counts.kernel_runs_per_batch.push(kernel as f64);
        self.counts
            .entities_per_batch
            .push(commit.rerepaired as f64);
        self.counts
            .engine_self_s
            .push(commit.took.as_secs_f64() - replayed.as_secs_f64());
    }

    /// Replay one committed master append: grounding on the plan replica,
    /// then the chase and search of every entity of the blocks it dirtied
    /// (their rows are unchanged, so resolving them again, untimed, gives
    /// the entities).
    pub fn master_append(&mut self, tracer: &mut Tracer, commit: &Committed, rows: &[Vec<Value>]) {
        let op = commit.round;
        let update = MasterUpdate::append(0, rows.to_vec());
        let mark = tracer.begin("core.master_ground", op);
        let delta = self
            .engine
            .plan_mut()
            .ground_master_delta(&update)
            .expect("the replica grounds the append");
        tracer.end(mark);
        self.engine
            .plan_mut()
            .adopt_master_delta(&delta)
            .expect("the replica adopts its own delta");
        for key in &commit.dirty {
            let local = self.block_relation(key).expect("dirtied blocks are live");
            let mut entities = resolve_relation(&local, &self.resolve).entities;
            self.engine.intern_entities(&mut entities);
            for ie in &entities {
                self.chase_and_search(tracer, op, ie, "core.chase", "topk.search", true);
            }
        }
        self.counts
            .entities_per_append
            .push(commit.rerepaired as f64);
    }
    /// The engine's per-entity evaluation, call for call: the chase with a
    /// checkpoint, then, when the target is incomplete, the top-k search
    /// resumed from it.  Returns the time spent.
    fn chase_and_search(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        ie: &EntityInstance,
        chase_span: &'static str,
        search_span: &'static str,
        count: bool,
    ) -> Duration {
        let plan = self.engine.plan();
        let k = self.engine.config().suggestion_k;
        let mark = tracer.begin(chase_span, op);
        let run = plan.checkpoint_with(ie, &mut self.scratch);
        let mut spent = tracer.end(mark);
        if count {
            self.counts.ground_steps.push(run.stats.ground_steps as f64);
            self.counts.steps_applied += run.stats.steps_applied as u64;
            self.counts.steps_considered += run.stats.steps_considered as u64;
        }
        let CheckpointOutcome::Ready(checkpoint) = run.outcome else {
            return spent;
        };
        if checkpoint.target().is_complete() || k == 0 {
            self.scratch.restore_index(checkpoint.into_index());
            return spent;
        }
        let mark = tracer.begin(search_span, op);
        let spec = plan.specification(ie.clone());
        let preference = PreferenceModel::occurrence(&spec, k);
        let checkpoint: Arc<ChaseCheckpoint> = Arc::from(checkpoint);
        let checks = {
            let (grounding, check) = self.scratch.grounding_and_check();
            let search = CandidateSearch::prepare_with_checkpoint(
                &spec,
                grounding,
                checkpoint.clone(),
                preference,
            )
            .expect("preparing over a captured checkpoint cannot fail");
            let result = topkct_with(&search, check);
            result.stats.full_checks + result.stats.delta_checks
        };
        spent += tracer.end(mark);
        if count {
            self.counts.checks_per_search.push(checks as f64);
        }
        if let Ok(checkpoint) = Arc::try_unwrap(checkpoint) {
            self.scratch.restore_index(checkpoint.into_index());
        }
        spent
    }
}
