//! Epoch-versioned snapshots: the MVCC substrate of the serving layer.
//!
//! The incremental engines mutate their per-block caches in place, which is
//! fine for a single-threaded driver but serves reads only through an
//! exclusive reference.  This module turns every committed update into an
//! immutable **epoch** — an `Arc`'d view of the engine's state right after
//! one `apply` / master delta — published into a shared [`EpochHub`]:
//!
//! * **Publish protocol.**  The engine (the only writer) publishes a new
//!   [`Epoch`] at the end of every mutation, under the hub lock, as one
//!   pointer push; readers pin the current epoch by cloning an `Arc` under
//!   the same lock.  Neither side ever holds the lock across real work, so
//!   reads never block writes and a pinned epoch can never be observed
//!   half-updated: it either is the published pointer or it is not.
//!   Copy-on-write underneath ([`relacc_store::VersionedRelation`] rows,
//!   `Arc`'d block repairs) keeps publishing cheap and pinned state frozen.
//! * **Epoch ids vs generations.**  A [`Generation`] counts applied row
//!   batches — but master deltas change repair *results* without advancing
//!   it, so epochs carry their own monotone [`EpochId`] (+1 per publish,
//!   whatever the mutation was).  Resolving a generation to an epoch picks
//!   the **earliest** retained epoch of that generation; because deltas
//!   replace whole blocks (see below) this over-approximation is idempotent,
//!   never wrong.
//! * **Point reads.**  [`Epoch::repaired_row`] / [`Epoch::entity_result`]
//!   answer in O(block): route the global row id (identity for a single
//!   engine, via the pinned router map for a sharded one), binary-search the
//!   pinned rows, recompute the row's [`BlockKey`] (a pure function of the
//!   tuple), and look the block up in the pinned cache — no corpus scan, no
//!   side index.
//! * **Snapshot deltas.**  [`EpochHub::changes_since`] unions the dirty-block
//!   sets of every epoch after the base and reports each such block's
//!   **current** state ([`BlockChange`]), `None` when the block is gone.
//!   Composing a delta onto the base's [`Epoch::block_views`] and assembling
//!   ([`assemble_views`]) reproduces the current full snapshot bit-for-bit —
//!   the differential guarantee behind `tests/serve_differential.rs`.
//!
//! The serving crate (`relacc-serve`) builds its `Server` / `Subscription`
//! API purely on the hub handle, so the engines never learn about consumers.

use crate::batch::{entity_row, EntityResult, RelationRepair};
use crate::incremental::{assemble_repair, AssembledBlock, BlockRepair};
use crate::sharded::RoutingTable;
use relacc_core::chase::PlanStamp;
use relacc_model::{EntityInstance, SchemaRef, Tuple, Value};
use relacc_resolve::{BlockKey, Blocker, MatchDecision, ResolveStats};
use relacc_store::{Generation, Relation, RelationEpoch, RowId};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Identity of one published epoch: monotone, +1 per publish, advancing on
/// every mutation — including master deltas, which leave the [`Generation`]
/// untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EpochId(pub u64);

impl std::fmt::Display for EpochId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors of generation-addressed epoch lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochError {
    /// The generation predates the hub's retention window — its epoch was
    /// evicted.  Re-pin the current epoch (full resync) instead.
    Evicted(Generation),
    /// The generation was never published (it is in the future, or the
    /// stream never produced it).
    Unknown(Generation),
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::Evicted(g) => {
                write!(f, "generation {} left the epoch retention window", g.0)
            }
            EpochError::Unknown(g) => write!(f, "generation {} was never published", g.0),
        }
    }
}

impl std::error::Error for EpochError {}

/// One shard's pinned state inside an [`Epoch`]: the rows at the epoch's
/// generation and the block cache that repaired them.  A single
/// [`crate::IncrementalEngine`] publishes exactly one shard with identity id
/// maps; a sharded engine publishes one per shard plus the router map.
#[derive(Debug, Clone)]
pub(crate) struct ShardView {
    /// The shard's pinned rows (shard-local ids).
    pub(crate) rows: RelationEpoch,
    /// The shard's pinned per-block cache (shard-local keys and ids).
    pub(crate) blocks: Arc<HashMap<BlockKey, Arc<BlockRepair>>>,
    /// Shard-local row id → global row id; `None` = identity.
    pub(crate) to_global: Option<Arc<HashMap<RowId, RowId>>>,
}

/// An immutable, pinned view of an engine's repaired state right after one
/// committed mutation.  All read APIs speak **global** row ids; the sharded
/// remapping is resolved internally through the pinned router maps.
#[derive(Debug)]
pub struct Epoch {
    pub(crate) id: EpochId,
    pub(crate) generation: Generation,
    pub(crate) stamp: PlanStamp,
    pub(crate) schema: SchemaRef,
    pub(crate) blocker: Arc<Blocker>,
    pub(crate) threads: usize,
    pub(crate) shards: Vec<ShardView>,
    /// Live global row id → (shard, shard-local id); `None` = identity
    /// (single engine, one shard).
    pub(crate) route: Option<Arc<HashMap<RowId, (usize, RowId)>>>,
    /// The versioned block→shard routing table this epoch was published
    /// under (`None` for a single engine).  Pinned per epoch so point reads
    /// against an epoch taken *before* a rebalance keep resolving keys to
    /// the shards that held them then — a reader never observes a torn
    /// handoff.
    pub(crate) routing: Option<Arc<RoutingTable>>,
    /// Blocks this epoch changed relative to its predecessor: global key →
    /// (shard, shard-local key).  Dropped blocks are listed too.
    pub(crate) dirty: Arc<BTreeMap<BlockKey, (usize, BlockKey)>>,
}

impl Epoch {
    /// The epoch's publish identity.
    pub fn id(&self) -> EpochId {
        self.id
    }

    /// The row-batch generation this epoch reflects.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The plan state the epoch's cached repairs are valid under.
    pub fn stamp(&self) -> PlanStamp {
        self.stamp
    }

    /// The relation schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of live rows pinned by this epoch.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.rows.len()).sum()
    }

    /// True when the epoch pins no rows.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.rows.is_empty())
    }

    /// Global keys of the blocks this epoch changed relative to its
    /// predecessor (dropped blocks included).
    pub fn dirty_keys(&self) -> impl Iterator<Item = &BlockKey> {
        self.dirty.keys()
    }

    /// The pinned live rows as global ids, ascending.
    pub fn live_rows(&self) -> Vec<RowId> {
        let mut out: Vec<RowId> = self
            .shards
            .iter()
            .flat_map(|s| s.rows.rows().iter().map(|r| globalize(s, r.id)))
            .collect();
        out.sort_unstable();
        out
    }

    /// True when the row was live at this epoch.
    pub fn contains(&self, row: RowId) -> bool {
        self.locate_row(row).is_some()
    }

    /// The entity owning `row` at this epoch, in O(block): pinned routing +
    /// binary row search + a pure [`BlockKey`] recomputation, then a scan of
    /// that single block.  `None` when the row was not live.
    pub fn entity_result(&self, row: RowId) -> Option<EntityView> {
        let (shard, local, block, entity) = self.locate_entity(row)?;
        Some(self.entity_view(&self.shards[shard], block, entity, local))
    }

    /// The repaired row `row`'s entity materializes to at this epoch, under
    /// the engine's single shared materialization policy.  `None` when the
    /// row was not live, or its entity materializes no row (a
    /// not-Church-Rosser entity without a source record).
    pub fn repaired_row(&self, row: RowId) -> Option<Vec<Value>> {
        let (shard, _, block, entity) = self.locate_entity(row)?;
        let view = &self.shards[shard];
        let be = &block.entities[entity];
        let mut instance = EntityInstance::new(self.schema.clone());
        for &member in &be.members {
            let lid = block.rows[member];
            let tuple = view
                .rows
                .row(lid)
                .expect("block rows are pinned")
                .tuple
                .clone();
            instance
                .push_tuple(tuple)
                .expect("pinned rows conform to the schema");
        }
        entity_row(&be.result, &instance)
    }

    /// The pinned state of the block with the given **global** key, if it
    /// existed at this epoch.
    pub fn block_view(&self, key: &BlockKey) -> Option<BlockView> {
        let (shard, local) = self.locate_key(key)?;
        self.block_view_at(shard, &local, key.clone())
    }

    /// All pinned blocks in global currency — the composition base of
    /// [`SnapshotDelta::apply_to`].
    pub fn block_views(&self) -> BTreeMap<BlockKey, BlockView> {
        let mut out = BTreeMap::new();
        for (shard_idx, view) in self.shards.iter().enumerate() {
            for local_key in view.blocks.keys() {
                let key = globalize_key(view, local_key);
                let block = self
                    .block_view_at(shard_idx, local_key, key.clone())
                    .expect("iterated key is present");
                out.insert(key, block);
            }
        }
        out
    }

    /// Assemble the epoch's full [`RelationRepair`] — bit-identical to the
    /// engine's own snapshot at the moment this epoch was published.
    pub fn snapshot(&self) -> RelationRepair {
        assemble_views(self.schema.clone(), &self.block_views(), self.threads)
    }

    /// Resolve a global row id to (shard, local id) through the pinned
    /// router, and fetch the pinned row.
    fn locate_row(&self, row: RowId) -> Option<(usize, RowId, &Tuple)> {
        let (shard, local) = match &self.route {
            Some(route) => *route.get(&row)?,
            None => (0, row),
        };
        let tuple = &self.shards.get(shard)?.rows.row(local)?.tuple;
        Some((shard, local, tuple))
    }

    /// Locate the block and entity owning a global row id.
    fn locate_entity(&self, row: RowId) -> Option<(usize, RowId, &BlockRepair, usize)> {
        let (shard, local, tuple) = self.locate_row(row)?;
        let key = BlockKey::of_row(&self.blocker, local, tuple);
        let block = self.shards[shard].blocks.get(&key)?;
        let pos = block.rows.iter().position(|&r| r == local)?;
        let entity = block
            .entities
            .iter()
            .position(|be| be.members.contains(&pos))?;
        Some((shard, local, block, entity))
    }

    /// Resolve a **global** block key to its (shard, local key) — through
    /// the pinned routing table for keyed blocks (hash fallback for keys the
    /// table does not override), through the pinned row router for
    /// singletons.
    fn locate_key(&self, key: &BlockKey) -> Option<(usize, BlockKey)> {
        if self.route.is_none() {
            return Some((0, key.clone()));
        }
        match key {
            BlockKey::Key(_) => {
                let shard = match &self.routing {
                    Some(table) => table.shard_of(key),
                    None => crate::sharded::shard_of(key, self.shards.len()),
                };
                Some((shard, key.clone()))
            }
            BlockKey::Singleton(gid) => {
                let (shard, lid) = *self.route.as_ref()?.get(gid)?;
                Some((shard, BlockKey::Singleton(lid)))
            }
        }
    }

    /// The globalized view of one shard-local block, `key` being its global
    /// key.
    pub(crate) fn block_view_at(
        &self,
        shard: usize,
        local_key: &BlockKey,
        key: BlockKey,
    ) -> Option<BlockView> {
        let view = self.shards.get(shard)?;
        let block = view.blocks.get(local_key)?;
        let rows: Vec<(RowId, Tuple)> = block
            .rows
            .iter()
            .map(|&lid| {
                let row = view.rows.row(lid).expect("block rows are pinned");
                (globalize(view, lid), row.tuple.clone())
            })
            .collect();
        let entities = block
            .entities
            .iter()
            .enumerate()
            .map(|(idx, _)| self.entity_view(view, block, idx, RowId(0)))
            .collect();
        Some(BlockView {
            key,
            rows,
            decisions: block.decisions.clone(),
            entities,
            stats: block.stats,
        })
    }

    /// Build the [`EntityView`] of one block entity (the `_local` id is only
    /// a lookup hint and not required to be a member).
    fn entity_view(
        &self,
        view: &ShardView,
        block: &BlockRepair,
        entity: usize,
        _local: RowId,
    ) -> EntityView {
        let be = &block.entities[entity];
        let mut records = Vec::with_capacity(be.members.len());
        let mut instance = EntityInstance::new(self.schema.clone());
        for &member in &be.members {
            let lid = block.rows[member];
            records.push(globalize(view, lid));
            let tuple = view
                .rows
                .row(lid)
                .expect("block rows are pinned")
                .tuple
                .clone();
            instance
                .push_tuple(tuple)
                .expect("pinned rows conform to the schema");
        }
        EntityView {
            repaired: entity_row(&be.result, &instance),
            records,
            result: be.result.clone(),
        }
    }
}

/// Map a shard-local row id to its global id through a shard view.
fn globalize(view: &ShardView, local: RowId) -> RowId {
    match &view.to_global {
        Some(map) => *map.get(&local).expect("pinned rows are routed"),
        None => local,
    }
}

/// Map a shard-local block key to its global key.
fn globalize_key(view: &ShardView, local_key: &BlockKey) -> BlockKey {
    match local_key {
        BlockKey::Key(_) => local_key.clone(),
        BlockKey::Singleton(lid) => BlockKey::Singleton(globalize(view, *lid)),
    }
}

/// One repaired entity in **global** currency.
#[derive(Debug, Clone)]
pub struct EntityView {
    /// The entity's member rows as global ids, ascending.
    pub records: Vec<RowId>,
    /// The repaired row the entity materializes to (the shared
    /// materialization policy), `None` for a not-Church-Rosser entity with
    /// no source record.
    pub repaired: Option<Vec<Value>>,
    /// The cached repair result.  `entity` / `records` are positional fields
    /// of full-snapshot assembly and are meaningless here; use
    /// [`EntityView::records`].
    pub result: EntityResult,
}

/// The pinned state of one block in **global** currency — the unit of
/// snapshot deltas and of composition.
#[derive(Debug, Clone)]
pub struct BlockView {
    /// The block's global key.
    pub key: BlockKey,
    /// The block's live rows (global id + values), ascending by id.
    pub rows: Vec<(RowId, Tuple)>,
    /// Pairwise match decisions with indices **local to `rows`**.
    pub decisions: Vec<MatchDecision>,
    /// The block's entities in ascending-smallest-member order.
    pub entities: Vec<EntityView>,
    /// Cascade counters of the block's resolution.
    pub stats: ResolveStats,
}

/// One block's change inside a [`SnapshotDelta`]: the block's **current**
/// whole state, or `None` when it no longer exists.  Whole-block replacement
/// makes composition idempotent — replaying a change the base already
/// reflects is a no-op.
#[derive(Debug, Clone)]
pub struct BlockChange {
    /// The changed block's global key.
    pub key: BlockKey,
    /// Its state at the delta's target epoch; `None` = dropped.
    pub after: Option<BlockView>,
}

/// Everything that changed between a base generation and the current epoch,
/// at block granularity.
#[derive(Debug, Clone)]
pub struct SnapshotDelta {
    /// The base generation the delta starts from.
    pub from: Generation,
    /// The exact base epoch (earliest retained epoch of `from`).
    pub from_epoch: EpochId,
    /// The generation of the target epoch.
    pub to: Generation,
    /// The target (current) epoch.
    pub to_epoch: EpochId,
    /// Per-block changes, ascending by key.
    pub changes: Vec<BlockChange>,
}

impl SnapshotDelta {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Compose the delta onto a base block map (typically the base epoch's
    /// [`Epoch::block_views`]): changed blocks are replaced wholesale,
    /// dropped blocks removed.  After composition,
    /// [`assemble_views`] over the map reproduces the target epoch's full
    /// snapshot bit-identically.
    pub fn apply_to(&self, views: &mut BTreeMap<BlockKey, BlockView>) {
        for change in &self.changes {
            match &change.after {
                Some(view) => {
                    views.insert(change.key.clone(), view.clone());
                }
                None => {
                    views.remove(&change.key);
                }
            }
        }
    }
}

/// Assemble a full [`RelationRepair`] from a map of global block views —
/// the composition counterpart of the engines' own snapshot assembly, and
/// bit-identical to it: every live row belongs to exactly one block, global
/// row order is ascending id, and the shared `assemble_repair` (the same
/// routine behind the engines' `snapshot()`) puts blocks and entities into
/// the canonical order.
pub fn assemble_views(
    schema: SchemaRef,
    views: &BTreeMap<BlockKey, BlockView>,
    threads: usize,
) -> RelationRepair {
    let mut all_rows: Vec<(RowId, &Tuple)> = views
        .values()
        .flat_map(|v| v.rows.iter().map(|(id, tuple)| (*id, tuple)))
        .collect();
    all_rows.sort_by_key(|&(id, _)| id);
    let mut relation = Relation::new(schema);
    let mut pos_of: HashMap<RowId, usize> = HashMap::with_capacity(all_rows.len());
    for (pos, (id, tuple)) in all_rows.iter().enumerate() {
        pos_of.insert(*id, pos);
        relation
            .push_row(tuple.values().to_vec())
            .expect("pinned rows conform to the schema");
    }
    let blocks: Vec<AssembledBlock> = views
        .values()
        .map(|v| AssembledBlock {
            first_row: v.rows.first().map_or(usize::MAX, |(id, _)| pos_of[id]),
            decisions: v
                .decisions
                .iter()
                .map(|d| MatchDecision {
                    left: pos_of[&v.rows[d.left].0],
                    right: pos_of[&v.rows[d.right].0],
                    similarity: d.similarity,
                    matched: d.matched,
                    pruned: d.pruned,
                })
                .collect(),
            entities: v
                .entities
                .iter()
                .map(|ev| {
                    let members: Vec<usize> = ev.records.iter().map(|id| pos_of[id]).collect();
                    (members, ev.result.clone())
                })
                .collect(),
            stats: v.stats,
        })
        .collect();
    assemble_repair(relation, blocks, threads)
}

/// The shared publish/pin rendezvous between one engine (the single writer)
/// and any number of readers.  Cloning the handle is cheap and shares the
/// hub; the engines hand clones out via their `epochs()` accessors.
///
/// The hub retains a bounded window of recent epochs (default
/// [`EpochHub::DEFAULT_RETENTION`]) so generation-addressed reads and
/// [`EpochHub::changes_since`] can reach back; older epochs are evicted and
/// answer [`EpochError::Evicted`].
#[derive(Debug, Clone)]
pub struct EpochHub {
    inner: Arc<HubInner>,
}

#[derive(Debug)]
struct HubInner {
    state: Mutex<HubState>,
    published: Condvar,
}

#[derive(Debug)]
struct HubState {
    /// Retained epochs, oldest first; ids are contiguous.
    epochs: VecDeque<Arc<Epoch>>,
    retain: usize,
    next_id: u64,
}

impl EpochHub {
    /// Epochs retained by default.
    pub const DEFAULT_RETENTION: usize = 8;

    pub(crate) fn new() -> Self {
        EpochHub {
            inner: Arc::new(HubInner {
                state: Mutex::new(HubState {
                    epochs: VecDeque::new(),
                    retain: Self::DEFAULT_RETENTION,
                    next_id: 0,
                }),
                published: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Publish a new epoch (engine-internal: engines are the only writers).
    pub(crate) fn publish(&self, mut epoch: Epoch) -> Arc<Epoch> {
        let mut state = self.lock();
        epoch.id = EpochId(state.next_id);
        state.next_id += 1;
        let epoch = Arc::new(epoch);
        state.epochs.push_back(Arc::clone(&epoch));
        let retain = state.retain.max(1);
        let mut evicted = Vec::new();
        while state.epochs.len() > retain {
            evicted.extend(state.epochs.pop_front());
        }
        drop(state);
        self.inner.published.notify_all();
        // an evicted epoch that nobody else pins is freed here, outside the
        // lock, so readers never wait on the drop
        drop(evicted);
        epoch
    }

    /// How many epochs the hub keeps reachable for generation-addressed
    /// reads and deltas.
    pub fn set_retention(&self, epochs: usize) {
        self.lock().retain = epochs.max(1);
    }

    /// Pin the current epoch.
    pub fn current(&self) -> Arc<Epoch> {
        Arc::clone(
            self.lock()
                .epochs
                .back()
                .expect("engines publish their seed epoch at open"),
        )
    }

    /// Pin the **earliest** retained epoch of the given generation (see the
    /// module docs for why earliest is the safe resolution).
    pub fn at_generation(&self, generation: Generation) -> Result<Arc<Epoch>, EpochError> {
        let state = self.lock();
        Self::find(&state, generation).map(|idx| Arc::clone(&state.epochs[idx]))
    }

    /// Everything that changed between generation `since` and the current
    /// epoch, at block granularity.  The empty delta when `since` resolves
    /// to the current epoch.
    pub fn changes_since(&self, since: Generation) -> Result<SnapshotDelta, EpochError> {
        let (base, later, current) = {
            let state = self.lock();
            let idx = Self::find(&state, since)?;
            let later: Vec<Arc<Epoch>> = state.epochs.iter().skip(idx + 1).cloned().collect();
            let current = Arc::clone(state.epochs.back().expect("find succeeded"));
            (Arc::clone(&state.epochs[idx]), later, current)
        };
        // union the dirty sets of every epoch after the base, then resolve
        // each key's *current* location through the current epoch's pinned
        // routing — a rebalance between the base and now may have moved a
        // keyed block to another shard (with fresh local ids), so the
        // location recorded at dirty time can be stale; `block_view`
        // re-locates and still answers `None` for dropped blocks
        let mut dirty: BTreeMap<BlockKey, ()> = BTreeMap::new();
        for epoch in &later {
            for key in epoch.dirty.keys() {
                dirty.insert(key.clone(), ());
            }
        }
        let changes = dirty
            .into_keys()
            .map(|key| BlockChange {
                after: current.block_view(&key),
                key,
            })
            .collect();
        Ok(SnapshotDelta {
            from: base.generation,
            from_epoch: base.id,
            to: current.generation,
            to_epoch: current.id,
            changes,
        })
    }

    /// Block until an epoch newer than `seen` is published, up to `timeout`.
    pub fn wait_newer(&self, seen: EpochId, timeout: Duration) -> Option<Arc<Epoch>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let current = state.epochs.back().expect("engines publish at open");
            if current.id > seen {
                return Some(Arc::clone(current));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .inner
                .published
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    /// The retained epochs published after `seen`, oldest first — the feed a
    /// subscription drains.  `None` when epochs between `seen` and the
    /// retention window were already evicted, i.e. part of the change history
    /// is gone and the subscriber must resync by diffing pinned epochs
    /// directly.
    pub fn epochs_after(&self, seen: EpochId) -> Option<Vec<Arc<Epoch>>> {
        let state = self.lock();
        let front = state.epochs.front()?;
        if seen.0 + 1 < front.id.0 {
            return None;
        }
        Some(
            state
                .epochs
                .iter()
                .filter(|e| e.id > seen)
                .cloned()
                .collect(),
        )
    }

    /// Did any epoch after `seen` dirty a block?  `Some(false)` proves the
    /// assembled snapshot is unchanged since `seen`; `None` means the window
    /// no longer reaches back that far (the caller must assume changes).
    pub(crate) fn any_dirty_since(&self, seen: EpochId) -> Option<bool> {
        let state = self.lock();
        let front = state.epochs.front()?;
        let back = state.epochs.back()?;
        if back.id == seen {
            return Some(false);
        }
        if seen < front.id && front.id.0 != seen.0 + 1 {
            // epochs between `seen` and the window were evicted: unknown
            return None;
        }
        Some(
            state
                .epochs
                .iter()
                .filter(|e| e.id > seen)
                .any(|e| !e.dirty.is_empty()),
        )
    }

    /// Index of the earliest retained epoch at `generation`.
    fn find(state: &HubState, generation: Generation) -> Result<usize, EpochError> {
        if let Some(idx) = state.epochs.iter().position(|e| e.generation == generation) {
            return Ok(idx);
        }
        match state.epochs.front() {
            Some(front) if generation < front.generation => Err(EpochError::Evicted(generation)),
            _ => Err(EpochError::Unknown(generation)),
        }
    }
}
