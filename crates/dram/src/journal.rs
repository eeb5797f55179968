//! Write-ahead undo journal for [`crate::DramModule`].
//!
//! A journaled trial runs **in place** on a pooled parent module and is
//! rolled back afterwards instead of running on a copy of the module. The
//! module has three mutable planes, and each journals and restores itself
//! as a unit:
//!
//! - **Row pre-images**: the first time a trial dirties a backing row — a
//!   write, a charge touch, decay, or a disturbance — the row's slot is
//!   captured: its copy-on-write pointer, or `None` if the row had never
//!   been materialized. Capture is a refcount bump; the mutation that
//!   follows copies the row away from the pre-image. Rollback puts each
//!   captured slot back, unmaterializing the `None` ones. O(touched rows).
//! - **Activation counters** ([`UndoVec`]): one entry per backing row, but
//!   its only mutators log `(index, old)` while a journal is open, and
//!   rollback replays the log backwards. O(touched entries): a `set` costs
//!   one log entry, a `fill` one per entry it changes.
//! - **The metadata snapshot**: the module's whole `DramMeta` is cloned
//!   at `journal_begin` and put back at rollback. The model caches sit
//!   behind `Rc` and are shared copy-on-write with the snapshot: the clone
//!   bumps their refcounts, and a trial copies a model only at its first
//!   cache mutation (a miss, an eviction, decay). The clone still copies
//!   the remap table, one open-row register per bank, the statistics
//!   including the retained flip-log events, and the installed defense.
//!
//! The same journal also keeps the contents digest O(touched rows): the
//! digest is a sum of per-row terms ([`crate::digest`]), so inside a
//! journal it is the snapshot's cached base plus, for each captured row,
//! the row's current term minus its pre-image's term.
//!
//! The rollback invariant — pinned by the differential suites — is that a
//! module after `journal_begin → trial → journal_rollback` is
//! byte-identical (contents, charge plane, activation counters, caches,
//! stats, clock) to the module before `journal_begin`.

use std::collections::HashMap;
use std::ops::Deref;

use crate::module::DramMeta;
use crate::store::{Row, RowStore};

/// The undo journal of one in-place trial. Constructed by
/// `DramModule::journal_begin`, consumed by `DramModule::journal_rollback`.
pub(crate) struct DramJournal {
    /// Lazily-captured row pre-images, keyed by backing-row id.
    pub(crate) rows: HashMap<u64, Row>,
    /// The module's non-row state as of `journal_begin`.
    pub(crate) meta: DramMeta,
}

impl DramJournal {
    /// Captures `row`'s pre-image on first touch; later touches of the
    /// same row are O(1) no-ops. Must be called *before* the mutation.
    #[inline]
    pub(crate) fn capture_row(&mut self, row: u64, store: &RowStore) {
        self.rows.entry(row).or_insert_with(|| store.row(row));
    }

    /// Number of distinct rows captured so far (dirty-row footprint).
    pub(crate) fn dirty_rows(&self) -> usize {
        self.rows.len()
    }
}

/// A fixed-length vector whose mutations can be undone: while a journal
/// is open ([`Self::begin`]), [`Self::set`] and [`Self::fill`] — its only
/// mutators — log each overwritten `(index, old)` pair, and
/// [`Self::rollback`] replays the log backwards. Reads go through
/// `Deref<Target = [T]>`.
#[derive(Debug, Clone)]
pub(crate) struct UndoVec<T: Copy + PartialEq> {
    items: Vec<T>,
    /// `Some` while a journal is open.
    undo: Option<Vec<(usize, T)>>,
}

impl<T: Copy + PartialEq> UndoVec<T> {
    /// `len` copies of `value`, with no journal open.
    pub(crate) fn new(value: T, len: usize) -> Self {
        UndoVec { items: vec![value; len], undo: None }
    }

    /// Writes `items[i] = value`, logging the old value if a journal is
    /// open and the value changes.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, value: T) {
        let old = std::mem::replace(&mut self.items[i], value);
        if let Some(undo) = &mut self.undo {
            if old != value {
                undo.push((i, old));
            }
        }
    }

    /// Sets every entry to `value`, logging each entry that changes.
    pub(crate) fn fill(&mut self, value: T) {
        match &mut self.undo {
            Some(undo) => {
                for (i, item) in self.items.iter_mut().enumerate() {
                    if *item != value {
                        undo.push((i, std::mem::replace(item, value)));
                    }
                }
            }
            None => self.items.fill(value),
        }
    }

    /// Opens the journal.
    ///
    /// # Panics
    ///
    /// Panics if a journal is already open.
    pub(crate) fn begin(&mut self) {
        assert!(self.undo.is_none(), "UndoVec journal already open");
        self.undo = Some(Vec::new());
    }

    /// Restores every entry to its value at [`Self::begin`] and closes the
    /// journal.
    ///
    /// # Panics
    ///
    /// Panics if no journal is open.
    pub(crate) fn rollback(&mut self) {
        let undo = self.undo.take().expect("UndoVec rollback without begin");
        for (i, old) in undo.into_iter().rev() {
            self.items[i] = old;
        }
    }
}

impl<T: Copy + PartialEq> Deref for UndoVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_restores_sets_and_fills_in_reverse() {
        let mut v = UndoVec::new(0u32, 4);
        v.set(1, 5);
        v.begin();
        v.set(1, 6);
        v.set(2, 7);
        v.fill(9);
        v.set(1, 8);
        assert_eq!(&v[..], &[9, 8, 9, 9]);
        v.rollback();
        assert_eq!(&v[..], &[0, 5, 0, 0]);
    }

    #[test]
    fn unchanged_writes_log_nothing() {
        let mut v = UndoVec::new(3u8, 3);
        v.begin();
        v.set(0, 3);
        v.fill(3);
        assert_eq!(v.undo.as_ref().map(Vec::len), Some(0));
        v.rollback();
    }
}
