//! Incremental blocking: map an update batch to the set of dirty blocks.
//!
//! Blocking partitions the records of a relation, and [`resolve_relation`]
//! only ever merges records *within* a block — the pairwise comparisons and
//! the union-find closure both stay inside block boundaries.  Entities are
//! therefore per-block objects, which is what makes repair incremental: a
//! record insert or delete can only change the entities of the block its
//! blocking key maps to, so re-resolving (and re-repairing) the **dirty
//! blocks** of an update batch reproduces exactly what a full re-resolution
//! of the updated relation would produce for those blocks, while every other
//! block's entities are untouched.
//!
//! [`IncrementalBlockingIndex`] maintains the row-id → block-key mapping of a
//! live (versioned) relation, and per block its live member ids in ascending
//! order, so a consumer reads a dirty block's rows without scanning the
//! relation.  Per update it returns the dirty [`BlockKey`]s:
//! the blocks gaining an inserted record plus the blocks that held a deleted
//! one.  Records whose blocking key is empty (all key attributes null) are
//! singleton blocks in [`crate::Blocker::blocks`]; the index mirrors that by
//! giving each of them a [`BlockKey::Singleton`] of its own, so they can
//! never be lumped together by key equality.
//!
//! [`resolve_relation`]: crate::resolve_relation

use crate::blocking::Blocker;
use relacc_model::Tuple;
use relacc_store::RowId;
use std::collections::{BTreeSet, HashMap};

/// Identity of one block of the live relation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockKey {
    /// A non-empty blocking key shared by every record of the block.
    Key(String),
    /// A record with an empty blocking key: its own singleton block, named by
    /// the record's stable row id.
    Singleton(RowId),
}

impl BlockKey {
    /// Build the key for a row: its blocking key, or a singleton when empty.
    fn of(blocker: &Blocker, id: RowId, tuple: &Tuple, buf: &mut String) -> Self {
        blocker.write_block_of(tuple, buf);
        if buf.is_empty() {
            BlockKey::Singleton(id)
        } else {
            BlockKey::Key(buf.clone())
        }
    }

    /// The block key a row gets under `blocker`: a pure function of its
    /// blocking key, with empty-key rows falling back to a
    /// [`BlockKey::Singleton`] of the row's id.  This is exactly the key an
    /// [`IncrementalBlockingIndex`] over the same blocker assigns to the row,
    /// so a point read that recomputes a row's key finds the block the index
    /// put it in.
    pub fn of_row(blocker: &Blocker, id: RowId, tuple: &Tuple) -> Self {
        BlockKey::of_values(blocker, id, tuple.values())
    }

    /// [`BlockKey::of_row`] over a raw value slice — for routing batch
    /// inserts that no relation has wrapped in a [`Tuple`] yet.
    pub fn of_values(blocker: &Blocker, id: RowId, values: &[relacc_model::Value]) -> Self {
        let mut buf = String::new();
        blocker.write_block_of_values(values, &mut buf);
        if buf.is_empty() {
            BlockKey::Singleton(id)
        } else {
            BlockKey::Key(buf)
        }
    }
}

/// The dirty-block output of one applied update.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtyBlocks {
    /// Keys of every block whose membership changed (gained an insert, lost a
    /// delete, or both), in deterministic order.
    pub blocks: BTreeSet<BlockKey>,
}

impl DirtyBlocks {
    /// Number of dirty blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when the update touched no block.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

/// A maintained row-id → block mapping for incremental resolution.
#[derive(Debug, Clone)]
pub struct IncrementalBlockingIndex {
    blocker: Blocker,
    /// Block of every live row.
    by_row: HashMap<RowId, BlockKey>,
    /// Live member ids per block, ascending (blocks with no live member are
    /// dropped).
    members: HashMap<BlockKey, Vec<RowId>>,
    key_buf: String,
}

impl IncrementalBlockingIndex {
    /// Build the index over the live rows of a relation.
    pub fn build<'a>(blocker: Blocker, rows: impl IntoIterator<Item = (RowId, &'a Tuple)>) -> Self {
        let mut index = IncrementalBlockingIndex {
            blocker,
            by_row: HashMap::new(),
            members: HashMap::new(),
            key_buf: String::new(),
        };
        for (id, tuple) in rows {
            index.add(id, tuple);
        }
        index
    }

    /// The blocker the index partitions with.
    pub fn blocker(&self) -> &Blocker {
        &self.blocker
    }

    /// Number of live rows tracked.
    pub fn rows(&self) -> usize {
        self.by_row.len()
    }

    /// Number of non-empty blocks.
    pub fn blocks(&self) -> usize {
        self.members.len()
    }

    /// The block of a live row, if tracked.
    pub fn block_of_row(&self, id: RowId) -> Option<&BlockKey> {
        self.by_row.get(&id)
    }

    /// The live member ids of a block in ascending order; `None` when no
    /// live row has that key.
    pub fn members(&self, key: &BlockKey) -> Option<&[RowId]> {
        self.members.get(key).map(Vec::as_slice)
    }

    /// Every non-empty block with its live member ids (ascending), in no
    /// particular block order.
    pub fn block_members(&self) -> impl Iterator<Item = (&BlockKey, &[RowId])> {
        self.members.iter().map(|(key, ids)| (key, ids.as_slice()))
    }

    /// The block a tuple *would* land in (without registering it).  Inserts
    /// with an empty blocking key land in their own singleton block.
    pub fn block_of(&mut self, id: RowId, tuple: &Tuple) -> BlockKey {
        BlockKey::of(&self.blocker, id, tuple, &mut self.key_buf)
    }

    fn add(&mut self, id: RowId, tuple: &Tuple) -> BlockKey {
        let key = BlockKey::of(&self.blocker, id, tuple, &mut self.key_buf);
        self.by_row.insert(id, key.clone());
        let ids = self.members.entry(key.clone()).or_default();
        // inserts take the largest id so far, so this is almost always a push
        if let Err(pos) = ids.binary_search(&id) {
            ids.insert(pos, id);
        }
        key
    }

    fn remove(&mut self, id: RowId) -> Option<BlockKey> {
        let key = self.by_row.remove(&id)?;
        if let Some(ids) = self.members.get_mut(&key) {
            if let Ok(pos) = ids.binary_search(&id) {
                ids.remove(pos);
            }
            if ids.is_empty() {
                self.members.remove(&key);
            }
        }
        Some(key)
    }

    /// Register an applied update — deleted row ids plus inserted rows — and
    /// return the dirty blocks: every block that lost a deleted record or
    /// gained an inserted one.  Unknown delete ids are ignored (the versioned
    /// relation has already validated the batch).
    pub fn apply<'a>(
        &mut self,
        deletes: impl IntoIterator<Item = RowId>,
        inserts: impl IntoIterator<Item = (RowId, &'a Tuple)>,
    ) -> DirtyBlocks {
        let mut dirty = DirtyBlocks::default();
        for id in deletes {
            if let Some(key) = self.remove(id) {
                dirty.blocks.insert(key);
            }
        }
        for (id, tuple) in inserts {
            let key = self.add(id, tuple);
            dirty.blocks.insert(key);
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingStrategy;
    use relacc_model::{AttrId, Value};

    fn t(name: &str) -> Tuple {
        Tuple::new(vec![Value::text(name)])
    }

    fn index() -> IncrementalBlockingIndex {
        let blocker = Blocker::new(vec![AttrId(0)], BlockingStrategy::ExactKey);
        let rows = [t("Jordan"), t("Pippen"), t("jordan")];
        IncrementalBlockingIndex::build(
            blocker,
            rows.iter()
                .enumerate()
                .map(|(i, tuple)| (RowId(i as u64), tuple))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn build_groups_rows_by_normalized_key() {
        let index = index();
        assert_eq!(index.rows(), 3);
        assert_eq!(index.blocks(), 2);
        assert_eq!(index.block_of_row(RowId(0)), index.block_of_row(RowId(2)));
        assert_ne!(index.block_of_row(RowId(0)), index.block_of_row(RowId(1)));
        let jordan = BlockKey::Key("jordan".into());
        assert_eq!(index.members(&jordan), Some(&[RowId(0), RowId(2)][..]));
        assert_eq!(index.block_members().count(), 2);
    }

    #[test]
    fn inserts_and_deletes_mark_their_blocks_dirty() {
        let mut index = index();
        let row = t("Jordan");
        let dirty = index.apply([RowId(1)], [(RowId(3), &row)]);
        assert_eq!(dirty.len(), 2);
        assert!(dirty.blocks.contains(&BlockKey::Key("pippen".into())));
        assert!(dirty.blocks.contains(&BlockKey::Key("jordan".into())));
        // the pippen block lost its only member and is gone
        assert_eq!(index.blocks(), 1);
        assert_eq!(index.rows(), 3);
        assert_eq!(index.members(&BlockKey::Key("pippen".into())), None);
        assert_eq!(
            index.members(&BlockKey::Key("jordan".into())),
            Some(&[RowId(0), RowId(2), RowId(3)][..])
        );
    }

    #[test]
    fn empty_keys_stay_singleton_blocks() {
        let mut index = index();
        let null_row = Tuple::new(vec![Value::Null]);
        let dirty = index.apply([], [(RowId(7), &null_row), (RowId(8), &null_row)]);
        assert_eq!(dirty.len(), 2);
        assert_eq!(
            index.block_of_row(RowId(7)),
            Some(&BlockKey::Singleton(RowId(7)))
        );
        assert_ne!(index.block_of_row(RowId(7)), index.block_of_row(RowId(8)));
    }

    #[test]
    fn untouched_blocks_never_come_back_dirty() {
        let mut index = index();
        let row = t("Rodman");
        let dirty = index.apply([], [(RowId(9), &row)]);
        assert_eq!(dirty.len(), 1);
        assert_eq!(
            dirty.blocks.iter().next(),
            Some(&BlockKey::Key("rodman".into()))
        );
        // applying an empty update dirties nothing
        let empty = index.apply([], []);
        assert!(empty.is_empty());
    }
}
