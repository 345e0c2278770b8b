//! Epoch-versioned snapshots: the MVCC substrate of the serving layer.
//!
//! The incremental engine updates its per-block cache under `&mut self`, so
//! on its own it serves reads only through an exclusive reference.  This
//! module turns every committed update into an immutable **epoch** — an
//! `Arc`'d view of the engine's state right after one `apply` / master
//! delta — published into a shared [`EpochHub`]:
//!
//! * **Publish protocol.**  The engine (the only writer) publishes a new
//!   [`Epoch`] at the end of every mutation, under the hub lock, as one
//!   pointer push; readers pin the current epoch by cloning an `Arc` under
//!   the same lock.  Neither side ever holds the lock across real work, so
//!   reads never block writes and a pinned epoch can never be observed
//!   half-updated: it either is the published pointer or it is not.
//!   Sharing keeps publishing cheap and pinned state frozen: a
//!   [`relacc_store::VersionedRelation`] copies a row page on write only
//!   while an epoch pins it, and a block repair is never written once built
//!   (a re-repair inserts a fresh `Arc`).
//! * **Epoch ids vs generations.**  A [`Generation`] counts applied row
//!   batches — but master deltas change repair *results* without advancing
//!   it, so epochs carry their own monotone [`EpochId`] (+1 per publish,
//!   whatever the mutation was).  Resolving a generation to an epoch picks
//!   the **earliest** retained epoch of that generation; because deltas
//!   replace whole blocks (see below) this over-approximation is idempotent,
//!   never wrong.
//! * **Point reads.**  [`Epoch::repaired_row`] / [`Epoch::entity_result`]
//!   answer in O(block): binary-search the pinned rows, recompute the row's
//!   [`BlockKey`] (a pure function of the tuple), and look the block up in
//!   the pinned block map — no corpus scan, no side index.
//! * **Snapshot deltas.**  [`EpochHub::changes_since`] unions the dirty-block
//!   sets of every epoch after the base and reports each such block's
//!   **current** state ([`BlockChange`]), `None` when the block is gone.
//!   Composing a delta onto the base's [`Epoch::block_views`] and assembling
//!   ([`assemble_views`]) reproduces the current full snapshot bit-for-bit —
//!   the differential guarantee behind `tests/serve_differential.rs`.
//!
//! The serving crate (`relacc-serve`) builds its `Server` / `Subscription`
//! API purely on the hub handle, so the engine never learns about consumers.

use crate::batch::{entity_row, materialize_rows, BatchReport, EntityResult, RelationRepair};
use crate::incremental::BlockRepair;
use crate::pool::effective_threads;
use relacc_core::chase::PlanStamp;
use relacc_model::{EntityInstance, SchemaRef, Tuple, Value};
use relacc_resolve::{BlockKey, Blocker, MatchDecision, ResolveStats, ResolvedEntities};
use relacc_store::{Generation, Relation, RelationEpoch, RowId};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
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

/// An immutable, pinned view of the engine's repaired state right after one
/// committed mutation: the live rows at the epoch's generation and the block
/// map that repaired them.
#[derive(Debug)]
pub struct Epoch {
    pub(crate) id: EpochId,
    pub(crate) generation: Generation,
    pub(crate) stamp: PlanStamp,
    pub(crate) schema: SchemaRef,
    pub(crate) blocker: Arc<Blocker>,
    pub(crate) threads: usize,
    /// The pinned live rows.
    pub(crate) rows: RelationEpoch,
    /// The pinned per-block cache.
    pub(crate) blocks: Arc<HashMap<BlockKey, Arc<BlockRepair>>>,
    /// Blocks this epoch changed relative to its predecessor, dropped
    /// blocks included.
    pub(crate) dirty: BTreeSet<BlockKey>,
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
        self.rows.len()
    }

    /// True when the epoch pins no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Keys of the blocks this epoch changed relative to its predecessor
    /// (dropped blocks included), ascending.
    pub fn dirty_keys(&self) -> impl Iterator<Item = &BlockKey> {
        self.dirty.iter()
    }

    /// Keys of the blocks whose state may differ between `earlier` and this
    /// epoch, ascending: blocks pinned by only one of the two, and blocks
    /// the two pin as different allocations.  A block both pin as the same
    /// allocation is unchanged — the engine never writes a block repair once
    /// built, and row ids are never reused — so [`Epoch::block_view`] of
    /// every other key is equal at both epochs.  Costs one pointer compare
    /// per block and memory per changed block only.
    pub fn blocks_changed_since(&self, earlier: &Epoch) -> BTreeSet<BlockKey> {
        let mut keys: BTreeSet<BlockKey> = self
            .blocks
            .iter()
            .filter(|(key, block)| {
                earlier
                    .blocks
                    .get(*key)
                    .is_none_or(|old| !Arc::ptr_eq(old, block))
            })
            .map(|(key, _)| key.clone())
            .collect();
        keys.extend(
            earlier
                .blocks
                .keys()
                .filter(|key| !self.blocks.contains_key(*key))
                .cloned(),
        );
        keys
    }

    /// The pinned live rows, ascending.
    pub fn live_rows(&self) -> Vec<RowId> {
        self.rows.rows().iter().map(|r| r.id).collect()
    }

    /// True when the row was live at this epoch.
    pub fn contains(&self, row: RowId) -> bool {
        self.rows.row(row).is_some()
    }

    /// The entity owning `row` at this epoch, in O(block): binary row
    /// search + a pure [`BlockKey`] recomputation, then a scan of that
    /// single block.  `None` when the row was not live.
    pub fn entity_result(&self, row: RowId) -> Option<EntityView> {
        let (block, entity) = self.locate_entity(row)?;
        Some(self.entity_view(block, entity))
    }

    /// The repaired row `row`'s entity materializes to at this epoch, under
    /// the engine's single shared materialization policy.  `None` when the
    /// row was not live, or its entity materializes no row (a
    /// not-Church-Rosser entity without a source record).
    pub fn repaired_row(&self, row: RowId) -> Option<Vec<Value>> {
        let (block, entity) = self.locate_entity(row)?;
        let be = &block.entities[entity];
        entity_row(&be.result, &self.instance(block, &be.members))
    }

    /// The pinned state of the block with the given key, if it existed at
    /// this epoch.
    pub fn block_view(&self, key: &BlockKey) -> Option<BlockView> {
        let block = self.blocks.get(key)?;
        Some(self.view_of(key, block))
    }

    /// All pinned blocks — the composition base of
    /// [`SnapshotDelta::apply_to`].
    pub fn block_views(&self) -> BTreeMap<BlockKey, BlockView> {
        self.blocks
            .iter()
            .map(|(key, block)| (key.clone(), self.view_of(key, block)))
            .collect()
    }

    /// Assemble the epoch's full [`RelationRepair`] from its pinned rows and
    /// block map: the engine's `snapshot()` while this epoch is current.
    pub fn snapshot(&self) -> RelationRepair {
        // rows ascend by id, so a row's position is its rank
        let mut relation = Relation::new(self.schema.clone());
        let mut order: Vec<RowId> = Vec::with_capacity(self.rows.len());
        for row in self.rows.rows() {
            order.push(row.id);
            relation
                .push_row(row.tuple.values().to_vec())
                .expect("pinned rows conform to the schema");
        }
        let blocks = self
            .blocks
            .values()
            .map(|block| {
                let positions: Vec<usize> = block
                    .rows
                    .iter()
                    .map(|id| order.binary_search(id).expect("block rows are pinned"))
                    .collect();
                let entities = block
                    .entities
                    .iter()
                    .map(|be| {
                        let members = be.members.iter().map(|&m| positions[m]).collect();
                        (members, be.result.clone())
                    })
                    .collect();
                AssembledBlock::new(&positions, block.decisions.iter(), entities, block.stats)
            })
            .collect();
        assemble_repair(relation, blocks, self.threads)
    }

    /// Locate the block and entity owning a row id.
    fn locate_entity(&self, row: RowId) -> Option<(&BlockRepair, usize)> {
        let tuple = &self.rows.row(row)?.tuple;
        let key = BlockKey::of_row(&self.blocker, row, tuple);
        let block = self.blocks.get(&key)?;
        let pos = block.rows.iter().position(|&r| r == row)?;
        let entity = block
            .entities
            .iter()
            .position(|be| be.members.contains(&pos))?;
        Some((block, entity))
    }

    /// The view of one pinned block.
    fn view_of(&self, key: &BlockKey, block: &BlockRepair) -> BlockView {
        let rows: Vec<(RowId, Tuple)> = block
            .rows
            .iter()
            .map(|&id| {
                let row = self.rows.row(id).expect("block rows are pinned");
                (id, row.tuple.clone())
            })
            .collect();
        let entities = (0..block.entities.len())
            .map(|idx| self.entity_view(block, idx))
            .collect();
        BlockView {
            key: key.clone(),
            rows,
            decisions: block.decisions.iter().collect(),
            entities,
            stats: block.stats,
        }
    }

    /// Build the [`EntityView`] of one block entity.
    fn entity_view(&self, block: &BlockRepair, entity: usize) -> EntityView {
        let be = &block.entities[entity];
        EntityView {
            records: be.members.iter().map(|&m| block.rows[m]).collect(),
            repaired: entity_row(&be.result, &self.instance(block, &be.members)),
            result: be.result.clone(),
        }
    }

    /// The entity instance over the given block-local member positions.
    fn instance(&self, block: &BlockRepair, members: &[usize]) -> EntityInstance {
        let mut instance = EntityInstance::new(self.schema.clone());
        for &member in members {
            let row = self
                .rows
                .row(block.rows[member])
                .expect("block rows are pinned");
            instance
                .push_tuple(row.tuple.clone())
                .expect("pinned rows conform to the schema");
        }
        instance
    }
}

/// One repaired entity of a pinned epoch.
#[derive(Debug, Clone)]
pub struct EntityView {
    /// The entity's member rows, ascending.
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

/// The pinned state of one block — the unit of snapshot deltas and of
/// composition.
#[derive(Debug, Clone)]
pub struct BlockView {
    /// The block's key.
    pub key: BlockKey,
    /// The block's live rows (id + values), ascending by id.
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
    /// The changed block's key.
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

/// Assemble a full [`RelationRepair`] from a map of block views — the
/// composition counterpart of [`Epoch::snapshot`], and bit-identical to it:
/// every live row belongs to exactly one block, row order is ascending id,
/// and the same `assemble_repair` puts blocks and entities into the
/// canonical order.
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
    let blocks = views
        .values()
        .map(|v| {
            let positions: Vec<usize> = v.rows.iter().map(|(id, _)| pos_of[id]).collect();
            let entities = v
                .entities
                .iter()
                .map(|ev| {
                    let members = ev.records.iter().map(|id| pos_of[id]).collect();
                    (members, ev.result.clone())
                })
                .collect();
            AssembledBlock::new(&positions, v.decisions.iter().cloned(), entities, v.stats)
        })
        .collect();
    assemble_repair(relation, blocks, threads)
}

/// One block with all indices rebased to row positions of the relation
/// being assembled.
#[derive(Debug)]
struct AssembledBlock {
    /// Smallest member row position — the block's canonical sort key.
    first_row: usize,
    /// The block's pairwise match decisions over rebased row positions.
    decisions: Vec<MatchDecision>,
    /// The block's entities: rebased member positions (ascending) plus the
    /// cached repair result.
    entities: Vec<(Vec<usize>, EntityResult)>,
    /// Cascade counters of the block's resolution.
    stats: ResolveStats,
}

impl AssembledBlock {
    /// A block whose local row `i` sits at relation position `positions[i]`;
    /// `decisions` use local rows, `entities` already hold rebased members.
    fn new(
        positions: &[usize],
        decisions: impl Iterator<Item = MatchDecision>,
        entities: Vec<(Vec<usize>, EntityResult)>,
        stats: ResolveStats,
    ) -> Self {
        let decisions = decisions
            .map(|d| MatchDecision {
                left: positions[d.left],
                right: positions[d.right],
                ..d
            })
            .collect();
        AssembledBlock {
            first_row: positions.first().copied().unwrap_or(usize::MAX),
            decisions,
            entities,
            stats,
        }
    }
}

/// Assemble a [`RelationRepair`] over `relation` from blocks whose indices
/// are row positions of `relation`.
///
/// Reproduces the canonical order of the full pipeline: blocks in ascending
/// smallest-member order (like `Blocker::blocks`), entities re-sorted by
/// ascending smallest member globally (like the first-seen union-find
/// collection), rows materialized through the shared [`materialize_rows`]
/// policy.  Shared by [`Epoch::snapshot`] and [`assemble_views`], so both
/// emit bit-identical repairs.
fn assemble_repair(
    relation: Relation,
    mut blocks: Vec<AssembledBlock>,
    threads: usize,
) -> RelationRepair {
    let schema = relation.schema().clone();
    blocks.sort_by_key(|b| b.first_row);

    let mut decisions: Vec<MatchDecision> = Vec::new();
    let mut assembled: Vec<(Vec<usize>, EntityResult)> = Vec::new();
    let mut stats = ResolveStats::default();
    for block in blocks {
        decisions.extend(block.decisions);
        assembled.extend(block.entities);
        stats.merge(&block.stats);
    }
    // global entity order: ascending smallest member
    assembled.sort_by_key(|(members, _)| members.first().copied().unwrap_or(usize::MAX));

    let mut entities = Vec::with_capacity(assembled.len());
    let mut members = Vec::with_capacity(assembled.len());
    let mut results = Vec::with_capacity(assembled.len());
    for (idx, (member_rows, mut result)) in assembled.into_iter().enumerate() {
        let mut instance = EntityInstance::new(schema.clone());
        for &row in &member_rows {
            instance
                .push_tuple(relation.rows()[row].clone())
                .expect("rows conform to their own schema");
        }
        entities.push(instance);
        result.entity = idx;
        result.records = member_rows.clone();
        members.push(member_rows);
        results.push(result);
    }

    let threads = effective_threads(threads, results.len());
    let report = BatchReport::from_entities(results, threads);
    let (repaired, row_entities, skipped) = materialize_rows(&schema, &report, &entities);
    RelationRepair {
        resolved: ResolvedEntities::from_parts(entities, members, decisions, stats),
        report,
        repaired,
        row_entities,
        skipped,
    }
}

/// The shared publish/pin rendezvous between one engine (the single writer)
/// and any number of readers.  Cloning the handle is cheap and shares the
/// hub; the engine hands clones out via its `epochs()` accessor.
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

    /// Publish a new epoch (engine-internal: the engine is the only writer).
    pub(crate) fn publish(&self, mut epoch: Epoch) {
        let mut state = self.lock();
        epoch.id = EpochId(state.next_id);
        state.next_id += 1;
        state.epochs.push_back(Arc::new(epoch));
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
                .expect("the engine publishes its seed epoch at open"),
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
        // union the dirty sets of every epoch after the base and read each
        // block's current state (`None` for dropped blocks)
        let dirty: BTreeSet<&BlockKey> = later.iter().flat_map(|e| e.dirty.iter()).collect();
        let changes = dirty
            .into_iter()
            .map(|key| BlockChange {
                after: current.block_view(key),
                key: key.clone(),
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
            let current = state.epochs.back().expect("the engine publishes at open");
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
