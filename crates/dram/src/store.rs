//! Pluggable row-storage backends for [`crate::DramModule`].
//!
//! The module's data plane — which rows exist, their cell contents, and the
//! per-row charge timestamps the retention model decays from — is abstracted
//! behind the [`RowStore`] trait so experiments can trade memory for speed
//! (or for fork-ability) without touching the hammer/refresh/remap logic:
//!
//! - [`SparseStore`] materializes rows on first write (the historical
//!   behavior and the default): ideal for paper-scale geometries where only
//!   a sliver of the gigabytes ever holds data.
//! - [`DenseStore`] pre-allocates every row in one flat buffer, making the
//!   read/write hot path branch-free: ideal for the small end-to-end
//!   geometries the kernel tests boot.
//! - [`CowStore`] wraps each materialized row in an [`Arc`] with
//!   copy-on-write mutation, so cloning the store — the substrate of
//!   `Kernel::fork()` — is O(rows) pointer bumps and each fork pays only
//!   for the rows it subsequently changes.
//!
//! All three backends are observationally identical: a never-written row
//! reads as all-zeros, carries no charge timestamp (so it never decays),
//! and does not count as materialized. The differential tests in
//! `tests/backend_differential.rs` pin this equivalence bit-for-bit.

use std::sync::Arc;

/// Selects the [`RowStore`] implementation a [`crate::DramModule`] uses.
///
/// Part of [`crate::DramConfig`]; the choice changes performance (and fork
/// cost) but never simulated behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoreBackend {
    /// Rows materialize on first write ([`SparseStore`], the default).
    #[default]
    Sparse,
    /// All rows pre-allocated in one flat buffer ([`DenseStore`]).
    Dense,
    /// Arc-per-row copy-on-write storage ([`CowStore`]).
    Cow,
}

impl StoreBackend {
    /// All backends, in canonical order (useful for differential tests and
    /// per-backend benchmarks).
    pub const ALL: [StoreBackend; 3] =
        [StoreBackend::Sparse, StoreBackend::Dense, StoreBackend::Cow];

    /// Stable lowercase name (used in bench labels and telemetry text).
    pub fn name(self) -> &'static str {
        match self {
            StoreBackend::Sparse => "sparse",
            StoreBackend::Dense => "dense",
            StoreBackend::Cow => "cow",
        }
    }
}

impl std::fmt::Display for StoreBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Mutable view of one materialized row: its cell bytes plus the charge
/// timestamp the retention model decays from.
pub struct RowMut<'a> {
    /// The row's cell contents, `row_bytes` long.
    pub bytes: &'a mut [u8],
    /// Simulated time the row's charge was last restored.
    pub last_charge_ns: &'a mut u64,
}

/// Storage of row contents and charge timestamps, indexed by *backing* row
/// id (remap resolution happens above this layer, in `DramModule`).
///
/// Implementations must preserve the sparse observational contract:
///
/// - [`bytes`](Self::bytes) returning `None` and returning `Some` slice of
///   zeros are indistinguishable to readers;
/// - a row without a charge timestamp ([`last_charge_ns`](Self::last_charge_ns)
///   `== None`) holds no charge to decay and is skipped by refresh/power
///   machinery;
/// - [`materialized_rows`](Self::materialized_rows) yields exactly the rows
///   with a charge timestamp, in ascending order (decay application order
///   is part of the determinism contract).
pub trait RowStore {
    /// Read-only view of a row's contents, `None` if never materialized
    /// (all cells at logic `0`).
    fn bytes(&self, row: u64) -> Option<&[u8]>;

    /// Mutable view of a row, materializing it at all-zeros with charge
    /// timestamp `now_ns` on first use.
    fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_>;

    /// The row's charge timestamp, `None` if never materialized.
    fn last_charge_ns(&self, row: u64) -> Option<u64>;

    /// Restores the row's charge to `now_ns` if (and only if) it is
    /// materialized — an ordinary access or targeted refresh.
    fn touch(&mut self, row: u64, now_ns: u64);

    /// Restores every materialized row's charge to `now_ns` (refresh
    /// resuming after power-up).
    fn recharge_all(&mut self, now_ns: u64);

    /// Backing ids of all materialized rows, ascending.
    fn materialized_rows(&self) -> Vec<u64>;

    /// Number of materialized rows.
    fn materialized_count(&self) -> usize;

    /// Returns the row to the never-materialized state: contents read as
    /// all-zeros, no charge timestamp, not counted as materialized. The
    /// undo journal uses this to roll back rows a trial materialized.
    fn unmaterialize(&mut self, row: u64);
}

/// One materialized row: contents plus charge timestamp.
#[derive(Debug, Clone)]
struct RowBuf {
    bytes: Box<[u8]>,
    last_charge_ns: u64,
}

impl RowBuf {
    fn zeroed(row_bytes: usize, now_ns: u64) -> Self {
        RowBuf { bytes: vec![0u8; row_bytes].into_boxed_slice(), last_charge_ns: now_ns }
    }
}

/// The default backend: rows materialize on first write.
///
/// Memory scales with the number of *touched* rows, so paper-scale modules
/// (gigabytes of address space, kilobytes of live data) stay cheap.
#[derive(Debug, Clone)]
pub struct SparseStore {
    rows: Vec<Option<RowBuf>>,
    /// Number of `Some` slots, kept so the gauge is O(1).
    materialized: usize,
    row_bytes: usize,
}

impl SparseStore {
    /// Creates a store of `total_rows` rows of `row_bytes` each, all
    /// unmaterialized.
    pub fn new(total_rows: usize, row_bytes: usize) -> Self {
        SparseStore { rows: (0..total_rows).map(|_| None).collect(), materialized: 0, row_bytes }
    }
}

impl RowStore for SparseStore {
    fn bytes(&self, row: u64) -> Option<&[u8]> {
        self.rows[row as usize].as_ref().map(|r| &r.bytes[..])
    }

    fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_> {
        let slot = &mut self.rows[row as usize];
        if slot.is_none() {
            self.materialized += 1;
        }
        let buf = slot.get_or_insert_with(|| RowBuf::zeroed(self.row_bytes, now_ns));
        RowMut { bytes: &mut buf.bytes, last_charge_ns: &mut buf.last_charge_ns }
    }

    fn last_charge_ns(&self, row: u64) -> Option<u64> {
        self.rows[row as usize].as_ref().map(|r| r.last_charge_ns)
    }

    fn touch(&mut self, row: u64, now_ns: u64) {
        if let Some(buf) = &mut self.rows[row as usize] {
            buf.last_charge_ns = now_ns;
        }
    }

    fn recharge_all(&mut self, now_ns: u64) {
        for buf in self.rows.iter_mut().flatten() {
            buf.last_charge_ns = now_ns;
        }
    }

    fn materialized_rows(&self) -> Vec<u64> {
        self.rows.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|_| i as u64)).collect()
    }

    fn materialized_count(&self) -> usize {
        self.materialized
    }

    fn unmaterialize(&mut self, row: u64) {
        if self.rows[row as usize].take().is_some() {
            self.materialized -= 1;
        }
    }
}

/// Pre-materialized backend: one flat buffer holds every row, so the data
/// hot path is branch-free slice arithmetic.
///
/// A `touched` bitmap preserves sparse semantics for the *charge* plane:
/// never-written rows carry no charge and therefore never decay (in a
/// sparse store an untouched anti-cell row stays all-zeros through a
/// refresh outage; a naively pre-charged dense row would decay to all-ones
/// and diverge).
#[derive(Debug, Clone)]
pub struct DenseStore {
    data: Vec<u8>,
    last_charge: Vec<u64>,
    touched: Vec<bool>,
    touched_count: usize,
    row_bytes: usize,
}

impl DenseStore {
    /// Creates a store of `total_rows` rows of `row_bytes` each, all zeroed
    /// and untouched.
    pub fn new(total_rows: usize, row_bytes: usize) -> Self {
        DenseStore {
            data: vec![0u8; total_rows * row_bytes],
            last_charge: vec![0u64; total_rows],
            touched: vec![false; total_rows],
            touched_count: 0,
            row_bytes,
        }
    }
}

impl RowStore for DenseStore {
    fn bytes(&self, row: u64) -> Option<&[u8]> {
        // Untouched rows are all-zeros, identical to the sparse `None` →
        // zero-fill path, so always answering is both correct and
        // branch-free.
        let lo = row as usize * self.row_bytes;
        Some(&self.data[lo..lo + self.row_bytes])
    }

    fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_> {
        let i = row as usize;
        if !self.touched[i] {
            self.touched[i] = true;
            self.touched_count += 1;
            self.last_charge[i] = now_ns;
        }
        let lo = i * self.row_bytes;
        RowMut {
            bytes: &mut self.data[lo..lo + self.row_bytes],
            last_charge_ns: &mut self.last_charge[i],
        }
    }

    fn last_charge_ns(&self, row: u64) -> Option<u64> {
        self.touched[row as usize].then(|| self.last_charge[row as usize])
    }

    fn touch(&mut self, row: u64, now_ns: u64) {
        let i = row as usize;
        if self.touched[i] {
            self.last_charge[i] = now_ns;
        }
    }

    fn recharge_all(&mut self, now_ns: u64) {
        for (i, charge) in self.last_charge.iter_mut().enumerate() {
            if self.touched[i] {
                *charge = now_ns;
            }
        }
    }

    fn materialized_rows(&self) -> Vec<u64> {
        self.touched.iter().enumerate().filter_map(|(i, t)| t.then_some(i as u64)).collect()
    }

    fn materialized_count(&self) -> usize {
        self.touched_count
    }

    fn unmaterialize(&mut self, row: u64) {
        // Untouched dense rows must read as all-zeros with no charge, so
        // restore both planes, not just the bitmap.
        let i = row as usize;
        if self.touched[i] {
            self.touched[i] = false;
            self.touched_count -= 1;
        }
        let lo = i * self.row_bytes;
        self.data[lo..lo + self.row_bytes].fill(0);
        self.last_charge[i] = 0;
    }
}

/// Copy-on-write backend: each materialized row lives behind an [`Arc`],
/// so cloning the whole store (what [`crate::DramModule::fork`] does) costs
/// one reference-count bump per materialized row and each clone pays full
/// row-copy cost only for the rows it subsequently mutates.
#[derive(Debug, Clone)]
pub struct CowStore {
    rows: Vec<Option<Arc<RowBuf>>>,
    /// Number of `Some` slots, kept so the gauge is O(1).
    materialized: usize,
    row_bytes: usize,
}

impl CowStore {
    /// Creates a store of `total_rows` rows of `row_bytes` each, all
    /// unmaterialized.
    pub fn new(total_rows: usize, row_bytes: usize) -> Self {
        CowStore { rows: (0..total_rows).map(|_| None).collect(), materialized: 0, row_bytes }
    }

    /// Number of materialized rows whose buffer is currently shared with at
    /// least one other store clone (a fork that has not yet diverged on
    /// that row). Observability hook for the O(changed rows) fork claim.
    pub fn shared_rows(&self) -> usize {
        self.rows.iter().flatten().filter(|arc| Arc::strong_count(arc) > 1).count()
    }
}

impl RowStore for CowStore {
    fn bytes(&self, row: u64) -> Option<&[u8]> {
        self.rows[row as usize].as_ref().map(|r| &r.bytes[..])
    }

    fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_> {
        let slot = &mut self.rows[row as usize];
        if slot.is_none() {
            self.materialized += 1;
        }
        let arc = slot.get_or_insert_with(|| Arc::new(RowBuf::zeroed(self.row_bytes, now_ns)));
        let buf = Arc::make_mut(arc);
        RowMut { bytes: &mut buf.bytes, last_charge_ns: &mut buf.last_charge_ns }
    }

    fn last_charge_ns(&self, row: u64) -> Option<u64> {
        self.rows[row as usize].as_ref().map(|r| r.last_charge_ns)
    }

    fn touch(&mut self, row: u64, now_ns: u64) {
        // Skip the no-op case before `make_mut`: recharging to the value
        // already stored must not break sharing with forks.
        if let Some(arc) = &mut self.rows[row as usize] {
            if arc.last_charge_ns != now_ns {
                Arc::make_mut(arc).last_charge_ns = now_ns;
            }
        }
    }

    fn recharge_all(&mut self, now_ns: u64) {
        for arc in self.rows.iter_mut().flatten() {
            if arc.last_charge_ns != now_ns {
                Arc::make_mut(arc).last_charge_ns = now_ns;
            }
        }
    }

    fn materialized_rows(&self) -> Vec<u64> {
        self.rows.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|_| i as u64)).collect()
    }

    fn materialized_count(&self) -> usize {
        self.materialized
    }

    fn unmaterialize(&mut self, row: u64) {
        if self.rows[row as usize].take().is_some() {
            self.materialized -= 1;
        }
    }
}

/// Enum dispatch over the three backends.
///
/// Runtime selection (the backend is a [`crate::DramConfig`] field so
/// differential tests and campaigns can loop over backends) with
/// match-based static dispatch on every call — no vtable on the data hot
/// path.
#[derive(Debug, Clone)]
pub enum AnyRowStore {
    /// A [`SparseStore`].
    Sparse(SparseStore),
    /// A [`DenseStore`].
    Dense(DenseStore),
    /// A [`CowStore`].
    Cow(CowStore),
}

impl AnyRowStore {
    /// Creates the store `backend` selects, sized `total_rows` ×
    /// `row_bytes`.
    pub fn new(backend: StoreBackend, total_rows: usize, row_bytes: usize) -> Self {
        match backend {
            StoreBackend::Sparse => AnyRowStore::Sparse(SparseStore::new(total_rows, row_bytes)),
            StoreBackend::Dense => AnyRowStore::Dense(DenseStore::new(total_rows, row_bytes)),
            StoreBackend::Cow => AnyRowStore::Cow(CowStore::new(total_rows, row_bytes)),
        }
    }

    /// Which backend this store is.
    pub fn backend(&self) -> StoreBackend {
        match self {
            AnyRowStore::Sparse(_) => StoreBackend::Sparse,
            AnyRowStore::Dense(_) => StoreBackend::Dense,
            AnyRowStore::Cow(_) => StoreBackend::Cow,
        }
    }

    /// [`CowStore::shared_rows`] if this is a Cow store, else `0`.
    pub fn shared_rows(&self) -> usize {
        match self {
            AnyRowStore::Cow(s) => s.shared_rows(),
            _ => 0,
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $s:ident => $body:expr) => {
        match $self {
            AnyRowStore::Sparse($s) => $body,
            AnyRowStore::Dense($s) => $body,
            AnyRowStore::Cow($s) => $body,
        }
    };
}

impl RowStore for AnyRowStore {
    fn bytes(&self, row: u64) -> Option<&[u8]> {
        dispatch!(self, s => s.bytes(row))
    }

    fn materialize(&mut self, row: u64, now_ns: u64) -> RowMut<'_> {
        dispatch!(self, s => s.materialize(row, now_ns))
    }

    fn last_charge_ns(&self, row: u64) -> Option<u64> {
        dispatch!(self, s => s.last_charge_ns(row))
    }

    fn touch(&mut self, row: u64, now_ns: u64) {
        dispatch!(self, s => s.touch(row, now_ns))
    }

    fn recharge_all(&mut self, now_ns: u64) {
        dispatch!(self, s => s.recharge_all(now_ns))
    }

    fn materialized_rows(&self) -> Vec<u64> {
        dispatch!(self, s => s.materialized_rows())
    }

    fn materialized_count(&self) -> usize {
        dispatch!(self, s => s.materialized_count())
    }

    fn unmaterialize(&mut self, row: u64) {
        dispatch!(self, s => s.unmaterialize(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stores() -> Vec<AnyRowStore> {
        StoreBackend::ALL.iter().map(|b| AnyRowStore::new(*b, 8, 64)).collect()
    }

    #[test]
    fn fresh_rows_read_as_unmaterialized_or_zero() {
        for store in stores() {
            let b = store.backend();
            if let Some(bytes) = store.bytes(3) {
                assert!(bytes.iter().all(|x| *x == 0), "{b}");
            }
            assert_eq!(store.last_charge_ns(3), None, "{b}");
            assert_eq!(store.materialized_count(), 0, "{b}");
            assert!(store.materialized_rows().is_empty(), "{b}");
        }
    }

    #[test]
    fn materialize_then_read_back() {
        for mut store in stores() {
            let b = store.backend();
            {
                let row = store.materialize(2, 100);
                row.bytes[5] = 0xAB;
            }
            assert_eq!(store.bytes(2).unwrap()[5], 0xAB, "{b}");
            assert_eq!(store.last_charge_ns(2), Some(100), "{b}");
            assert_eq!(store.materialized_rows(), vec![2], "{b}");
            assert_eq!(store.materialized_count(), 1, "{b}");
        }
    }

    #[test]
    fn touch_only_affects_materialized_rows() {
        for mut store in stores() {
            let b = store.backend();
            store.touch(1, 500);
            assert_eq!(store.last_charge_ns(1), None, "{b}");
            store.materialize(1, 100);
            store.touch(1, 500);
            assert_eq!(store.last_charge_ns(1), Some(500), "{b}");
        }
    }

    #[test]
    fn recharge_all_updates_every_materialized_row() {
        for mut store in stores() {
            let b = store.backend();
            store.materialize(0, 10);
            store.materialize(4, 20);
            store.recharge_all(999);
            assert_eq!(store.last_charge_ns(0), Some(999), "{b}");
            assert_eq!(store.last_charge_ns(4), Some(999), "{b}");
            assert_eq!(store.last_charge_ns(1), None, "{b}");
        }
    }

    #[test]
    fn materialized_rows_ascending() {
        for mut store in stores() {
            let b = store.backend();
            for row in [5u64, 1, 3] {
                store.materialize(row, 0);
            }
            assert_eq!(store.materialized_rows(), vec![1, 3, 5], "{b}");
        }
    }

    #[test]
    fn unmaterialize_restores_the_fresh_row_state() {
        for mut store in stores() {
            let b = store.backend();
            store.materialize(2, 100).bytes[5] = 0xAB;
            store.materialize(4, 200).bytes[0] = 0xCD;
            store.unmaterialize(2);
            if let Some(bytes) = store.bytes(2) {
                assert!(bytes.iter().all(|x| *x == 0), "{b}");
            }
            assert_eq!(store.last_charge_ns(2), None, "{b}");
            assert_eq!(store.materialized_rows(), vec![4], "{b}");
            assert_eq!(store.materialized_count(), 1, "{b}");
            // Unmaterializing a never-touched row is a no-op.
            store.unmaterialize(7);
            assert_eq!(store.materialized_count(), 1, "{b}");
        }
    }

    #[test]
    fn cow_clone_shares_until_write() {
        let mut parent = CowStore::new(8, 64);
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
        let mut parent = CowStore::new(8, 64);
        parent.materialize(1, 42);
        let mut child = parent.clone();
        child.touch(1, 42); // no-op recharge must not copy the row
        assert_eq!(parent.shared_rows(), 1);
        child.touch(1, 43);
        assert_eq!(parent.shared_rows(), 0);
        assert_eq!(parent.last_charge_ns(1), Some(42));
        assert_eq!(child.last_charge_ns(1), Some(43));
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(StoreBackend::Sparse.name(), "sparse");
        assert_eq!(StoreBackend::Dense.name(), "dense");
        assert_eq!(StoreBackend::Cow.name(), "cow");
        assert_eq!(StoreBackend::default(), StoreBackend::Sparse);
        assert_eq!(format!("{}", StoreBackend::Cow), "cow");
    }
}
