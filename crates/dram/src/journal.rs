//! Write-ahead undo journal for [`crate::DramModule`].
//!
//! A journaled trial runs **in place** on a pooled parent module and is
//! rolled back afterwards instead of running on a copy of the module. The
//! journal has two planes:
//!
//! - **Row pre-images** (the lazily-journaled plane): the first time a
//!   trial dirties a backing row — a write, a charge touch, decay, or a
//!   disturbance — the row's full pre-image (cell bytes + charge
//!   timestamp) is captured, or a `None` marker if the row had never been
//!   materialized. Rollback restores captured rows byte-for-byte and
//!   [`crate::RowStore::unmaterialize`]s the `None`-marked ones. This
//!   plane is O(touched rows): a trial that touches a few dozen rows of a
//!   multi-megabyte machine journals a few dozen rows.
//! - **The metadata snapshot** (the eagerly-journaled plane): the module's
//!   whole `DramMeta` — model caches, remap table, clock/window state,
//!   activation counters, open-row registers, statistics (including the
//!   bounded flip log, so `take_flip_log` drains and capacity changes roll
//!   back exactly), and the installed defense — is cloned at
//!   `journal_begin` and put back at rollback. The model caches hold `Rc`
//!   values, so their clone is O(cached entries) refcount bumps, never a
//!   regeneration. The rest is **not** O(touched state): the activation
//!   counters are one 24-byte entry per backing row, so every journal
//!   copies O(total rows) of them — 1.5 MiB on a 16 MiB module with
//!   256-byte rows (65,536 rows), the larger part of a begin plus
//!   rollback there. Making this plane lazy is the ROADMAP item "Make a
//!   trial cost O(what it touches)".
//!
//! The rollback invariant — pinned by the differential suites — is that a
//! module after `journal_begin → trial → journal_rollback` is
//! byte-identical (contents, charge plane, caches, stats, clock) to the
//! module before `journal_begin`.

use std::collections::HashMap;

use crate::module::DramMeta;
use crate::store::RowStore;

/// Pre-image of one backing row at `journal_begin` time: `Some((bytes,
/// last_charge_ns))` if the row was materialized, `None` if it was not.
pub(crate) type RowPreImage = Option<(Box<[u8]>, u64)>;

/// The undo journal of one in-place trial. Constructed by
/// `DramModule::journal_begin`, consumed by `DramModule::journal_rollback`.
pub(crate) struct DramJournal {
    /// Lazily-captured row pre-images, keyed by backing-row id.
    pub(crate) rows: HashMap<u64, RowPreImage>,
    /// The module's non-row state as of `journal_begin`.
    pub(crate) meta: DramMeta,
}

impl DramJournal {
    /// Captures `row`'s pre-image on first touch; later touches of the
    /// same row are O(1) no-ops. Must be called *before* the mutation.
    #[inline]
    pub(crate) fn capture_row(&mut self, row: u64, store: &impl RowStore) {
        self.rows.entry(row).or_insert_with(|| {
            // A row with a charge timestamp is materialized on every
            // backend (a Dense store answers `bytes` even for untouched
            // rows, so the charge plane is the materialization oracle).
            store.last_charge_ns(row).map(|charge| {
                (store.bytes(row).expect("materialized row has bytes").into(), charge)
            })
        });
    }

    /// Number of distinct rows captured so far (dirty-row footprint).
    pub(crate) fn dirty_rows(&self) -> usize {
        self.rows.len()
    }
}
