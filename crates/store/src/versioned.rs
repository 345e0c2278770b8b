//! Versioned relations: the storage substrate of incremental repair.
//!
//! A repaired corpus is not a one-shot computation — input tuples and master
//! data keep arriving after the first repair.  A [`VersionedRelation`] wraps a
//! bag of rows with the two pieces of bookkeeping the incremental pipeline
//! needs:
//!
//! * a **stable row identity** ([`RowId`]): rows are addressed by an id that
//!   survives deletions of other rows, so an update stream can name the rows
//!   it removes without racing against positional shifts;
//! * a **per-tuple generation stamp** ([`Generation`]): every row records the
//!   relation generation it was inserted at, and every applied
//!   [`UpdateBatch`] advances the generation, so downstream caches can tell
//!   "unchanged since generation g" apart from "rebuilt".
//!
//! Updates are typed: an [`UpdateBatch`] names a catalog entry and carries
//! inserts (validated rows) and deletes (row ids).  A [`VersionedCatalog`]
//! routes batches to the named relation, mirroring [`crate::Catalog`] for the
//! versioned world.
//!
//! **Row-id contract.** Ids are assigned sequentially from 0 in insertion
//! order ([`VersionedRelation::from_relation`] stamps the seed rows
//! `0..n`, and each subsequent insert takes the next id; deletes never free
//! ids for reuse).  Deterministic workload generators rely on this contract
//! to script delete targets ahead of time.
//!
//! **Page layout.** A [`VersionedRelation`] keeps its live rows in
//! ascending-id order, split into `Arc`-shared pages of at most
//! [`PAGE_ROWS`] rows.  A row is found by binary search: over a lower bound
//! of each page's ids, kept beside the page pointers, to pick the page, then
//! over the ids kept beside the row pointers within it.  Applying a batch is
//! copy-on-write per touched page: a delete edits the one page that holds
//! its row, the inserts (whose ids are the largest) append to the last page
//! or open new ones, and every other page stays shared with the
//! [`RelationEpoch`]s that pin earlier generations.  A batch therefore costs
//! the pages it touches, however large the relation and however many epochs
//! are retained.  Copying a page copies row pointers, not rows, so a row
//! stays where it was inserted: copying tuples page by page, at different
//! times, would scatter them across the heap and slow every read that
//! gathers an entity's rows.  A page that deletes leave under a quarter full
//! is merged into a neighbour with room, so the page count stays
//! proportional to the row count.

use crate::relation::Relation;
use relacc_model::{SchemaError, SchemaRef, Tuple, Value};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A relation generation: 0 for the seed state, +1 per applied update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Generation(pub u64);

/// A stable row identity (see the row-id contract in the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One live row of a [`VersionedRelation`].
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedRow {
    /// The row's stable identity.
    pub id: RowId,
    /// Generation the row was inserted at.
    pub inserted_at: Generation,
    /// The row's values.
    pub tuple: Tuple,
}

/// A typed batch of inserts and deletes against one catalog entry.
///
/// Within a batch, **deletes apply before inserts**: a batch can therefore
/// never delete a row it inserts itself, and the ids of its inserts are
/// assigned after all removals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateBatch {
    /// Name of the target relation (a [`VersionedCatalog`] entry).
    pub relation: String,
    /// Rows to insert (validated against the relation schema on apply).
    pub inserts: Vec<Vec<Value>>,
    /// Ids of the rows to delete.
    pub deletes: Vec<RowId>,
}

impl UpdateBatch {
    /// An empty batch against the named relation.
    pub fn new(relation: impl Into<String>) -> Self {
        UpdateBatch {
            relation: relation.into(),
            inserts: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Add an insert (builder style).
    pub fn insert(mut self, row: Vec<Value>) -> Self {
        self.inserts.push(row);
        self
    }

    /// Add a delete (builder style).
    pub fn delete(mut self, id: RowId) -> Self {
        self.deletes.push(id);
        self
    }

    /// True when the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }
}

/// What an applied [`UpdateBatch`] actually did.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedUpdate {
    /// The relation generation after the batch.
    pub generation: Generation,
    /// Ids assigned to the batch's inserts, in insert order.
    pub inserted: Vec<RowId>,
    /// The removed rows (id + former values), in the batch's delete order.
    pub deleted: Vec<(RowId, Tuple)>,
}

/// Errors raised by versioned-relation operations.
#[derive(Debug)]
pub enum UpdateError {
    /// The batch names a relation the catalog does not hold.
    NoSuchRelation(String),
    /// A delete names a row id that is not live (never existed, already
    /// deleted, or deleted twice within the batch).
    NoSuchRow(RowId),
    /// An insert does not conform to the relation schema.
    Schema(SchemaError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::NoSuchRelation(name) => write!(f, "relation {name:?} not found"),
            UpdateError::NoSuchRow(id) => write!(f, "row {id} is not live"),
            UpdateError::Schema(e) => write!(f, "insert rejected by the schema: {e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<SchemaError> for UpdateError {
    fn from(e: SchemaError) -> Self {
        UpdateError::Schema(e)
    }
}

/// Validate an [`UpdateBatch`] without applying it: deletes first (liveness
/// via `is_live`, plus intra-batch duplicates), then insert rows against the
/// schema.  [`VersionedRelation::apply`] runs this before touching any page,
/// so a rejected batch leaves the relation unchanged.
fn validate_batch(
    schema: &SchemaRef,
    mut is_live: impl FnMut(RowId) -> bool,
    batch: &UpdateBatch,
) -> Result<(), UpdateError> {
    let mut doomed: HashSet<RowId> = HashSet::with_capacity(batch.deletes.len());
    for &id in &batch.deletes {
        if !doomed.insert(id) || !is_live(id) {
            return Err(UpdateError::NoSuchRow(id));
        }
    }
    for row in &batch.inserts {
        schema.validate_row(row)?;
    }
    Ok(())
}

/// Rows per page of a [`VersionedRelation`] (see the page layout in the
/// module docs).
pub const PAGE_ROWS: usize = 256;

/// A page that a delete leaves with fewer rows than this is merged into a
/// neighbour with room for it, so deletes cannot fragment the relation into
/// many near-empty pages.
const MERGE_BELOW: usize = PAGE_ROWS / 4;

/// One slot of a page: a row's id beside the row, so that searching a page
/// reads only its slot array.
type Slot = (RowId, Arc<VersionedRow>);

/// One page: a run of live rows in ascending id order, shared by every epoch
/// that pins it, plus a lower bound of its ids.
#[derive(Debug, Clone)]
struct Page {
    /// The id of the page's first row when the page was opened: no larger
    /// than any of its ids, and larger than every id of the pages before it.
    /// Deletes and merges keep both properties, so the bound never changes,
    /// and the page list can be searched without reading the pages.
    low: RowId,
    rows: Arc<Vec<Slot>>,
}

/// The live rows of a relation or epoch: non-empty pages in ascending-id
/// order plus the total row count.  Cloning it pins the page list.
#[derive(Debug, Clone, Default)]
struct PageList {
    pages: Arc<Vec<Page>>,
    len: usize,
}

impl PageList {
    fn rows(&self) -> Rows<'_> {
        Rows {
            pages: &self.pages,
            len: self.len,
        }
    }

    /// `(page, slot)` of a live row: binary search over the pages' lower
    /// bounds, then within the page.
    fn locate(pages: &[Page], id: RowId) -> Option<(usize, usize)> {
        let page = pages.partition_point(|p| p.low <= id).checked_sub(1)?;
        let slot = pages[page].rows.binary_search_by_key(&id, |s| s.0).ok()?;
        Some((page, slot))
    }

    fn row(&self, id: RowId) -> Option<&VersionedRow> {
        Self::locate(&self.pages, id).map(|(page, slot)| &*self.pages[page].rows[slot].1)
    }
}

/// A read-only view of live rows in ascending [`RowId`] order, walking the
/// pages of a [`VersionedRelation`] or [`RelationEpoch`].
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    pages: &'a [Page],
    len: usize,
}

impl<'a> Rows<'a> {
    /// Iterate the rows in ascending id order.
    pub fn iter(&self) -> RowIter<'a> {
        RowIter {
            pages: self.pages.iter(),
            page: [].iter(),
            remaining: self.len,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Debug for Rows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a VersionedRow;
    type IntoIter = RowIter<'a>;
    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`Rows`] view.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    pages: std::slice::Iter<'a, Page>,
    page: std::slice::Iter<'a, Slot>,
    remaining: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a VersionedRow;

    fn next(&mut self) -> Option<&'a VersionedRow> {
        loop {
            if let Some((_, row)) = self.page.next() {
                self.remaining -= 1;
                return Some(row);
            }
            self.page = self.pages.next()?.rows.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// A pinned, immutable view of a [`VersionedRelation`]'s rows at one
/// generation — the storage half of an engine *epoch*.
///
/// The handle pins the relation's page list: taking one is an `Arc` clone,
/// holding one never blocks subsequent [`VersionedRelation::apply`] calls
/// (the relation copies a page on write only while an epoch shares it), and
/// the pinned rows never change underneath the holder.  Pages that later
/// batches leave untouched stay shared between the epoch and the relation,
/// so retaining epochs costs the pages each batch touched, not a copy of
/// the relation.  [`RelationEpoch::row`] resolves an id by the same two-level
/// binary search as the relation.
#[derive(Debug, Clone)]
pub struct RelationEpoch {
    schema: SchemaRef,
    generation: Generation,
    rows: PageList,
}

impl RelationEpoch {
    /// The relation schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The generation this epoch pins.
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The pinned live rows in insertion (= ascending id) order.
    pub fn rows(&self) -> Rows<'_> {
        self.rows.rows()
    }

    /// Number of pinned rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// True when the epoch pins no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// The pinned row with the given id, if it was live at this epoch
    /// (O(log n): binary search over the pages, then within one page).
    pub fn row(&self, id: RowId) -> Option<&VersionedRow> {
        self.rows.row(id)
    }
}

/// A relation with stable row ids and per-tuple generation stamps.
///
/// Live rows are held in ascending-id order in `Arc` pages of at most
/// [`PAGE_ROWS`] rows (see the page layout in the module docs).
/// [`VersionedRelation::row`] and delete validation find an id by binary
/// search over the pages and then within one page, so no side index has to
/// be maintained; [`VersionedRelation::apply`] copies only the pages a batch
/// touches, and only while an epoch pins them; and
/// [`VersionedRelation::epoch`] pins the current page list for free.
#[derive(Debug, Clone)]
pub struct VersionedRelation {
    schema: SchemaRef,
    /// Live rows in insertion order (deletes preserve relative order).
    rows: PageList,
    generation: Generation,
    next_row: u64,
}

impl PartialEq for VersionedRelation {
    fn eq(&self, other: &Self) -> bool {
        // the same rows are equal however they are split into pages
        self.schema == other.schema
            && self.rows.len == other.rows.len
            && self.rows().iter().eq(other.rows().iter())
            && self.generation == other.generation
            && self.next_row == other.next_row
    }
}

impl VersionedRelation {
    /// An empty versioned relation at generation 0.
    pub fn new(schema: SchemaRef) -> Self {
        VersionedRelation {
            schema,
            rows: PageList::default(),
            generation: Generation(0),
            next_row: 0,
        }
    }

    /// Wrap an existing relation: its rows become generation-0 rows with ids
    /// `0..n` in row order.
    pub fn from_relation(relation: &Relation) -> Self {
        let pages: Vec<Page> = relation
            .rows()
            .chunks(PAGE_ROWS)
            .enumerate()
            .map(|(p, chunk)| {
                let low = p * PAGE_ROWS;
                let rows = chunk.iter().enumerate().map(|(i, t)| {
                    let id = RowId((low + i) as u64);
                    let row = VersionedRow {
                        id,
                        inserted_at: Generation(0),
                        tuple: t.clone(),
                    };
                    (id, Arc::new(row))
                });
                Page {
                    low: RowId(low as u64),
                    rows: Arc::new(rows.collect()),
                }
            })
            .collect();
        VersionedRelation {
            schema: relation.schema().clone(),
            next_row: relation.len() as u64,
            rows: PageList {
                pages: Arc::new(pages),
                len: relation.len(),
            },
            generation: Generation(0),
        }
    }

    /// The relation schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The current generation (0 = seed, +1 per applied batch).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// The live rows in insertion (= ascending id) order.
    pub fn rows(&self) -> Rows<'_> {
        self.rows.rows()
    }

    /// The live row with the given id, if any (O(log n): binary search over
    /// the pages, then within one page).
    pub fn row(&self, id: RowId) -> Option<&VersionedRow> {
        self.rows.row(id)
    }

    /// Pin the current rows as an immutable [`RelationEpoch`].
    ///
    /// O(1): the handle shares the page list; a later [`Self::apply`]
    /// copies the pages it touches instead of mutating what the epoch
    /// pinned.
    pub fn epoch(&self) -> RelationEpoch {
        RelationEpoch {
            schema: self.schema.clone(),
            generation: self.generation,
            rows: self.rows.clone(),
        }
    }

    /// The current state as a plain [`Relation`] (live rows in insertion
    /// order) — the view the batch pipeline repairs.
    pub fn snapshot(&self) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for row in self.rows() {
            out.push_row(row.tuple.values().to_vec())
                .expect("live rows were validated on insert");
        }
        out
    }

    /// Apply a batch of deletes-then-inserts, advancing the generation.
    ///
    /// The batch's `relation` name is **not** checked here (that is the
    /// [`VersionedCatalog`]'s job); only its operations are.  On any error
    /// the relation is left exactly as it was — batches apply atomically.
    ///
    /// O(touched pages): a delete copies (if an epoch shares it) and edits
    /// the one page holding its row, and the inserts append to the last page
    /// or to fresh ones, since new ids are the largest.  Beyond that, only
    /// the list of page pointers is copied while an epoch pins it.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<AppliedUpdate, UpdateError> {
        // validate everything before mutating
        validate_batch(&self.schema, |id| self.rows.row(id).is_some(), batch)?;

        let pages = Arc::make_mut(&mut self.rows.pages);
        let mut deleted = Vec::with_capacity(batch.deletes.len());
        for &id in &batch.deletes {
            let (page, slot) = PageList::locate(pages, id).expect("validated as live above");
            let (_, row) = Arc::make_mut(&mut pages[page].rows).remove(slot);
            // epochs usually still pin the row; then its tuple is copied
            let tuple = Arc::try_unwrap(row).map_or_else(|row| row.tuple.clone(), |row| row.tuple);
            deleted.push((id, tuple));
            Self::merge_underfull(pages, page);
        }
        self.rows.len -= deleted.len();

        self.generation = Generation(self.generation.0 + 1);
        let mut inserted = Vec::with_capacity(batch.inserts.len());
        for row in &batch.inserts {
            let id = RowId(self.next_row);
            self.next_row += 1;
            if pages.last().is_none_or(|p| p.rows.len() >= PAGE_ROWS) {
                pages.push(Page {
                    low: id,
                    rows: Arc::new(Vec::with_capacity(PAGE_ROWS)),
                });
            }
            let last = pages.last_mut().expect("pushed above");
            let row = VersionedRow {
                id,
                inserted_at: self.generation,
                tuple: Tuple::new(row.clone()),
            };
            Arc::make_mut(&mut last.rows).push((id, Arc::new(row)));
            inserted.push(id);
        }
        self.rows.len += inserted.len();
        Ok(AppliedUpdate {
            generation: self.generation,
            inserted,
            deleted,
        })
    }

    /// After a delete from `pages[page]`: drop the page if it is empty, or
    /// merge it into a neighbour with room if it fell under [`MERGE_BELOW`]
    /// rows.  Merging keeps ascending id order: the previous page's ids are
    /// all smaller, the next page's all larger.
    fn merge_underfull(pages: &mut Vec<Page>, page: usize) {
        let len = pages[page].rows.len();
        if len == 0 {
            pages.remove(page);
        } else if len < MERGE_BELOW {
            let fits = |p: &Page| p.rows.len() + len <= PAGE_ROWS;
            if page > 0 && fits(&pages[page - 1]) {
                let merged = pages.remove(page);
                Arc::make_mut(&mut pages[page - 1].rows).extend(merged.rows.iter().cloned());
            } else if pages.get(page + 1).is_some_and(fits) {
                let merged = pages.remove(page + 1);
                Arc::make_mut(&mut pages[page].rows).extend(merged.rows.iter().cloned());
            }
        }
    }
}

/// A named collection of versioned relations that routes [`UpdateBatch`]es.
#[derive(Debug, Default, Clone)]
pub struct VersionedCatalog {
    relations: BTreeMap<String, VersionedRelation>,
}

impl VersionedCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        VersionedCatalog::default()
    }

    /// Register (or replace) a relation under `name`.
    pub fn register(&mut self, name: impl Into<String>, relation: VersionedRelation) {
        self.relations.insert(name.into(), relation);
    }

    /// Get a relation by name.
    pub fn get(&self, name: &str) -> Result<&VersionedRelation, UpdateError> {
        self.relations
            .get(name)
            .ok_or_else(|| UpdateError::NoSuchRelation(name.to_string()))
    }

    /// Names of all registered relations (sorted).
    pub fn names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Apply a batch to the relation it names.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<AppliedUpdate, UpdateError> {
        let relation = self
            .relations
            .get_mut(&batch.relation)
            .ok_or_else(|| UpdateError::NoSuchRelation(batch.relation.clone()))?;
        relation.apply(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::relation_of;
    use relacc_model::DataType;

    fn seed() -> Relation {
        relation_of(
            "r",
            vec![("name", DataType::Text), ("n", DataType::Int)],
            vec![
                vec![Value::text("a"), Value::Int(1)],
                vec![Value::text("b"), Value::Int(2)],
                vec![Value::text("c"), Value::Int(3)],
            ],
        )
    }

    #[test]
    fn from_relation_stamps_sequential_ids_at_generation_zero() {
        let v = VersionedRelation::from_relation(&seed());
        assert_eq!(v.len(), 3);
        assert_eq!(v.generation(), Generation(0));
        for (i, row) in v.rows().iter().enumerate() {
            assert_eq!(row.id, RowId(i as u64));
            assert_eq!(row.inserted_at, Generation(0));
        }
        assert_eq!(v.snapshot().rows(), seed().rows());
    }

    #[test]
    fn apply_deletes_then_inserts_and_advances_the_generation() {
        let mut v = VersionedRelation::from_relation(&seed());
        let batch = UpdateBatch::new("r")
            .delete(RowId(1))
            .insert(vec![Value::text("d"), Value::Int(4)])
            .insert(vec![Value::text("e"), Value::Int(5)]);
        let applied = v.apply(&batch).unwrap();
        assert_eq!(applied.generation, Generation(1));
        assert_eq!(applied.inserted, vec![RowId(3), RowId(4)]);
        assert_eq!(applied.deleted.len(), 1);
        assert_eq!(applied.deleted[0].0, RowId(1));
        assert_eq!(
            applied.deleted[0].1.value(relacc_model::AttrId(1)),
            &Value::Int(2)
        );
        // survivors keep relative order, inserts append, stamps record the batch
        let ids: Vec<RowId> = v.rows().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![RowId(0), RowId(2), RowId(3), RowId(4)]);
        assert_eq!(v.row(RowId(3)).unwrap().inserted_at, Generation(1));
        assert_eq!(v.row(RowId(0)).unwrap().inserted_at, Generation(0));
        assert!(v.row(RowId(1)).is_none());
    }

    #[test]
    fn apply_is_atomic_on_errors() {
        let mut v = VersionedRelation::from_relation(&seed());
        let before = v.clone();
        // unknown delete id
        let bad = UpdateBatch::new("r")
            .insert(vec![Value::text("d"), Value::Int(4)])
            .delete(RowId(99));
        assert!(matches!(v.apply(&bad), Err(UpdateError::NoSuchRow(_))));
        assert_eq!(v, before);
        // duplicate delete within one batch
        let dup = UpdateBatch::new("r").delete(RowId(0)).delete(RowId(0));
        assert!(matches!(v.apply(&dup), Err(UpdateError::NoSuchRow(_))));
        assert_eq!(v, before);
        // schema-invalid insert
        let invalid = UpdateBatch::new("r").insert(vec![Value::Int(7), Value::Int(8)]);
        assert!(matches!(v.apply(&invalid), Err(UpdateError::Schema(_))));
        assert_eq!(v, before);
    }

    #[test]
    fn deleted_ids_are_never_reused() {
        let mut v = VersionedRelation::from_relation(&seed());
        v.apply(&UpdateBatch::new("r").delete(RowId(2))).unwrap();
        let applied = v
            .apply(&UpdateBatch::new("r").insert(vec![Value::text("d"), Value::Int(4)]))
            .unwrap();
        assert_eq!(applied.inserted, vec![RowId(3)]);
        assert_eq!(v.generation(), Generation(2));
    }

    #[test]
    fn epochs_pin_rows_across_later_batches() {
        let mut v = VersionedRelation::from_relation(&seed());
        let pinned = v.epoch();
        assert_eq!(pinned.generation(), Generation(0));
        assert_eq!(pinned.len(), 3);

        // mutate the relation underneath the pin: the epoch must not move
        v.apply(
            &UpdateBatch::new("r")
                .delete(RowId(1))
                .insert(vec![Value::text("d"), Value::Int(4)]),
        )
        .unwrap();
        assert_eq!(pinned.len(), 3, "pinned rows are immutable");
        assert_eq!(
            pinned.row(RowId(1)).unwrap().tuple.values()[1],
            Value::Int(2)
        );
        assert!(pinned.row(RowId(3)).is_none(), "insert is after the pin");

        // a fresh epoch sees the new state; id lookups binary-search the
        // ascending-id row order
        let now = v.epoch();
        assert_eq!(now.generation(), Generation(1));
        assert!(now.row(RowId(1)).is_none());
        assert_eq!(now.row(RowId(3)).unwrap().inserted_at, Generation(1));
        assert_eq!(now.rows().len(), v.rows().len());
        assert!(now.row(RowId(99)).is_none());
    }

    /// A relation of `pages` full pages plus a partly filled last one.
    fn paged(pages: usize) -> VersionedRelation {
        let rows = (0..pages * PAGE_ROWS + 10)
            .map(|i| vec![Value::text(format!("n{i}")), Value::Int(i as i64)])
            .collect();
        let schema = seed().schema().clone();
        VersionedRelation::from_relation(&Relation::from_rows(schema, rows).unwrap())
    }

    #[test]
    fn a_small_batch_copies_and_frees_only_the_pages_it_touches() {
        let mut v = paged(8);
        let before = v.epoch();
        assert!(before.rows.pages.len() >= 8);
        let mut batch = UpdateBatch::new("r")
            .delete(RowId(3))
            .delete(RowId(5 * PAGE_ROWS as u64 + 7));
        for i in 0..4 {
            batch = batch.insert(vec![Value::text("new"), Value::Int(i)]);
        }
        v.apply(&batch).unwrap();
        let after = v.epoch();
        // pages of one epoch that the other does not share: the copies this
        // batch made, and the pages freed once the older epoch is dropped
        let unshared = |of: &RelationEpoch, other: &RelationEpoch| {
            of.rows
                .pages
                .iter()
                .filter(|p| {
                    !other
                        .rows
                        .pages
                        .iter()
                        .any(|q| Arc::ptr_eq(&p.rows, &q.rows))
                })
                .count()
        };
        assert!(unshared(&after, &before) <= 3, "copied pages");
        assert!(unshared(&before, &after) <= 3, "pages left to free");
        assert_eq!(before.len(), 8 * PAGE_ROWS + 10);
        assert_eq!(after.len(), 8 * PAGE_ROWS + 12);
    }

    #[test]
    fn lookups_span_pages_and_underfull_pages_merge() {
        let mut v = paged(3);
        for id in [
            0,
            PAGE_ROWS as u64 - 1,
            PAGE_ROWS as u64,
            3 * PAGE_ROWS as u64 + 9,
        ] {
            assert_eq!(v.row(RowId(id)).unwrap().id, RowId(id));
        }
        assert!(v.row(RowId(3 * PAGE_ROWS as u64 + 10)).is_none());
        // thin the first page, then empty the second but for one row: the
        // second falls under a quarter full and merges into the first
        let mut batch = UpdateBatch::new("r");
        batch.deletes = (0..100)
            .chain(PAGE_ROWS as u64..2 * PAGE_ROWS as u64 - 1)
            .map(RowId)
            .collect();
        v.apply(&batch).unwrap();
        assert_eq!(v.rows.pages.len(), 3);
        assert_eq!(v.rows.pages[0].rows.len(), PAGE_ROWS - 100 + 1);
        let last_of_page = RowId(2 * PAGE_ROWS as u64 - 1);
        assert_eq!(v.row(last_of_page).unwrap().id, last_of_page);
        let ids: Vec<RowId> = v.rows().iter().map(|r| r.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), v.len());
        assert_eq!(v.rows().iter().len(), v.len());
    }

    #[test]
    fn catalog_routes_batches_by_name() {
        let mut cat = VersionedCatalog::new();
        cat.register("r", VersionedRelation::from_relation(&seed()));
        let applied = cat
            .apply(&UpdateBatch::new("r").insert(vec![Value::text("d"), Value::Int(4)]))
            .unwrap();
        assert_eq!(applied.inserted, vec![RowId(3)]);
        assert_eq!(cat.get("r").unwrap().len(), 4);
        assert!(matches!(
            cat.apply(&UpdateBatch::new("nope")),
            Err(UpdateError::NoSuchRelation(_))
        ));
        assert!(matches!(
            cat.get("nope"),
            Err(UpdateError::NoSuchRelation(_))
        ));
        assert_eq!(cat.names(), vec!["r"]);
        assert!(!cat.is_empty());
        assert_eq!(cat.len(), 1);
    }
}
