//! Row storage for [`crate::DramModule`]: which rows exist, their cell
//! contents, and the per-row charge timestamps the retention model decays
//! from, indexed by *backing* row id (remap resolution happens above this
//! layer, in `DramModule`).
//!
//! Rows materialize on first write, so paper-scale modules (gigabytes of
//! address space, kilobytes of live data) stay cheap. Each materialized row
//! is one [`Rc`] allocation — an 8-byte charge-timestamp header followed by
//! the cell contents — mutated copy-on-write:
//!
//! - cloning the store — what [`crate::DramModule::fork`] does — costs one
//!   reference-count bump per materialized row, and each clone pays the
//!   row copy only for the rows it subsequently mutates;
//! - the undo journal's pre-image of a row is the row's own pointer
//!   ([`RowStore::row`]), so capture is a refcount bump, the next mutation
//!   makes the copy, and rollback puts the pointer back
//!   ([`RowStore::restore`]).
//!
//! `Rc` rather than `Arc`: a module never crosses threads (its model
//! caches are `Rc` too), so an atomic refcount would buy nothing.
//!
//! The observational contract: a never-written row reads as all-zeros,
//! carries no charge timestamp (so it never decays), and does not count as
//! materialized; [`RowStore::materialized_rows`] is ascending (decay
//! application order is part of the determinism contract).

use std::rc::Rc;

/// Length of a row allocation's header: the simulated time the row's
/// charge was last restored, little-endian. Keeping it in the same
/// allocation as the contents makes a copy-on-write copy one allocation.
const HEADER: usize = 8;

/// One backing row's slot: `None` until the row is first written, else the
/// row's allocation (header, then contents). Also the undo journal's row
/// pre-image.
pub(crate) type Row = Option<Rc<[u8]>>;

/// The cell contents of a row allocation.
pub(crate) fn contents(row: &[u8]) -> &[u8] {
    &row[HEADER..]
}

/// The charge timestamp of a row allocation.
fn charge(row: &[u8]) -> u64 {
    u64::from_le_bytes(row[..HEADER].try_into().expect("header is 8 bytes"))
}

/// Mutable view of one materialized row: its cell bytes plus the charge
/// timestamp the retention model decays from.
pub(crate) struct RowMut<'a> {
    /// The row's cell contents, `row_bytes` long.
    pub(crate) bytes: &'a mut [u8],
    header: &'a mut [u8],
}

impl RowMut<'_> {
    /// Sets the simulated time the row's charge was last restored.
    pub(crate) fn set_last_charge_ns(&mut self, now_ns: u64) {
        self.header.copy_from_slice(&now_ns.to_le_bytes());
    }
}

/// Lazily materialized, copy-on-write row storage.
#[derive(Debug, Clone)]
pub(crate) struct RowStore {
    rows: Vec<Row>,
    /// Number of `Some` slots, kept so the gauge is O(1).
    materialized: usize,
    /// An all-zeros row allocation that first writes copy.
    zeroed: Rc<[u8]>,
}

impl RowStore {
    /// Creates a store of `total_rows` rows of `row_bytes` each, all
    /// unmaterialized.
    pub(crate) fn new(total_rows: usize, row_bytes: usize) -> Self {
        RowStore {
            rows: vec![None; total_rows],
            materialized: 0,
            zeroed: vec![0; HEADER + row_bytes].into(),
        }
    }

    /// Read-only view of a row's contents, `None` if never materialized
    /// (all cells at logic `0`).
    pub(crate) fn bytes(&self, row: u64) -> Option<&[u8]> {
        self.rows[row as usize].as_deref().map(contents)
    }

    /// Mutable view of a row, materializing it at all-zeros with charge
    /// timestamp `now_ns` on first use, and copying it first if it is
    /// shared with a fork or a journal pre-image.
    pub(crate) fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_> {
        let slot = &mut self.rows[row as usize];
        let fresh = slot.is_none();
        let rc = slot.get_or_insert_with(|| Rc::clone(&self.zeroed));
        let (header, bytes) = Rc::make_mut(rc).split_at_mut(HEADER);
        let mut row = RowMut { bytes, header };
        if fresh {
            self.materialized += 1;
            row.set_last_charge_ns(now_ns);
        }
        row
    }

    /// The row's charge timestamp, `None` if never materialized.
    pub(crate) fn last_charge_ns(&self, row: u64) -> Option<u64> {
        self.rows[row as usize].as_deref().map(charge)
    }

    /// Restores the row's charge to `now_ns` if (and only if) it is
    /// materialized — an ordinary access or targeted refresh.
    pub(crate) fn touch(&mut self, row: u64, now_ns: u64) {
        if let Some(rc) = &mut self.rows[row as usize] {
            recharge(rc, now_ns);
        }
    }

    /// Restores every materialized row's charge to `now_ns` (refresh
    /// resuming after power-up).
    pub(crate) fn recharge_all(&mut self, now_ns: u64) {
        for rc in self.rows.iter_mut().flatten() {
            recharge(rc, now_ns);
        }
    }

    /// Backing ids of all materialized rows, ascending.
    pub(crate) fn materialized_rows(&self) -> Vec<u64> {
        self.rows.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|_| i as u64)).collect()
    }

    /// Number of materialized rows.
    pub(crate) fn materialized_count(&self) -> usize {
        self.materialized
    }

    /// Number of materialized rows whose buffer is currently shared with at
    /// least one other holder (a fork that has not yet diverged on that
    /// row, or an open journal's pre-image). Observability hook for the
    /// O(changed rows) fork claim.
    pub(crate) fn shared_rows(&self) -> usize {
        self.rows.iter().flatten().filter(|rc| Rc::strong_count(rc) > 1).count()
    }

    /// The row's current slot, sharing its buffer: a refcount bump, never
    /// a copy. The next mutation of the row copies it instead.
    pub(crate) fn row(&self, row: u64) -> Row {
        self.rows[row as usize].clone()
    }

    /// Puts back a slot taken by [`Self::row`], unmaterializing the row if
    /// the slot is `None`.
    pub(crate) fn restore(&mut self, row: u64, saved: Row) {
        let slot = &mut self.rows[row as usize];
        match (slot.is_some(), saved.is_some()) {
            (false, true) => self.materialized += 1,
            (true, false) => self.materialized -= 1,
            _ => {}
        }
        *slot = saved;
    }
}

/// Sets a row's charge timestamp, skipping the no-op case before
/// `make_mut`: recharging to the value already stored must not copy a row
/// shared with a fork or a journal pre-image.
fn recharge(rc: &mut Rc<[u8]>, now_ns: u64) {
    if charge(rc) != now_ns {
        Rc::make_mut(rc)[..HEADER].copy_from_slice(&now_ns.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> RowStore {
        RowStore::new(8, 64)
    }

    #[test]
    fn fresh_rows_read_as_unmaterialized() {
        let store = store();
        assert_eq!(store.bytes(3), None);
        assert_eq!(store.last_charge_ns(3), None);
        assert_eq!(store.materialized_count(), 0);
        assert!(store.materialized_rows().is_empty());
    }

    #[test]
    fn materialize_then_read_back() {
        let mut store = store();
        let row = store.materialize(2, 100);
        assert!(row.bytes.iter().all(|x| *x == 0));
        row.bytes[5] = 0xAB;
        assert_eq!(store.bytes(2).unwrap()[5], 0xAB);
        assert_eq!(store.last_charge_ns(2), Some(100));
        assert_eq!(store.materialized_rows(), vec![2]);
        assert_eq!(store.materialized_count(), 1);
    }

    #[test]
    fn touch_only_affects_materialized_rows() {
        let mut store = store();
        store.touch(1, 500);
        assert_eq!(store.last_charge_ns(1), None);
        store.materialize(1, 100);
        store.touch(1, 500);
        assert_eq!(store.last_charge_ns(1), Some(500));
    }

    #[test]
    fn recharge_all_updates_every_materialized_row() {
        let mut store = store();
        store.materialize(0, 10);
        store.materialize(4, 20);
        store.recharge_all(999);
        assert_eq!(store.last_charge_ns(0), Some(999));
        assert_eq!(store.last_charge_ns(4), Some(999));
        assert_eq!(store.last_charge_ns(1), None);
    }

    #[test]
    fn materialized_rows_ascending() {
        let mut store = store();
        for row in [5u64, 1, 3] {
            store.materialize(row, 0);
        }
        assert_eq!(store.materialized_rows(), vec![1, 3, 5]);
    }

    #[test]
    fn restore_puts_back_the_saved_row_state() {
        let mut store = store();
        store.materialize(4, 200).bytes[0] = 0xCD;
        let (fresh, dirty) = (store.row(2), store.row(4));
        assert_eq!(store.shared_rows(), 1, "a saved row shares, never copies");

        store.materialize(2, 100).bytes[5] = 0xAB;
        let mut row = store.materialize(4, 300);
        row.bytes[0] = 0xEF;
        row.set_last_charge_ns(300);
        assert_eq!(store.shared_rows(), 0, "mutation copies away from the saved row");

        store.restore(2, fresh);
        store.restore(4, dirty);
        assert_eq!(store.bytes(2), None);
        assert_eq!(store.last_charge_ns(2), None);
        assert_eq!(store.bytes(4).unwrap()[0], 0xCD);
        assert_eq!(store.last_charge_ns(4), Some(200));
        assert_eq!(store.materialized_rows(), vec![4]);
        assert_eq!(store.materialized_count(), 1);
    }

    #[test]
    fn clone_shares_until_write() {
        let mut parent = store();
        parent.materialize(1, 0).bytes[0] = 0x11;
        parent.materialize(2, 0).bytes[0] = 0x22;
        let mut child = parent.clone();
        assert_eq!(parent.shared_rows(), 2);
        assert_eq!(child.shared_rows(), 2);

        // Child write breaks sharing for that row only; parent is isolated.
        child.materialize(1, 5).bytes[0] = 0x99;
        assert_eq!(parent.shared_rows(), 1);
        assert_eq!(parent.bytes(1).unwrap()[0], 0x11);
        assert_eq!(child.bytes(1).unwrap()[0], 0x99);
        assert_eq!(parent.bytes(2).unwrap()[0], 0x22);
    }

    #[test]
    fn cow_touch_with_same_timestamp_keeps_sharing() {
        let mut parent = store();
        parent.materialize(1, 42);
        let mut child = parent.clone();
        child.touch(1, 42); // no-op recharge must not copy the row
        assert_eq!(parent.shared_rows(), 1);
        child.touch(1, 43);
        assert_eq!(parent.shared_rows(), 0);
        assert_eq!(parent.last_charge_ns(1), Some(42));
        assert_eq!(child.last_charge_ns(1), Some(43));
    }
}
