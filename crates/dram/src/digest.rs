//! The composable contents digest behind [`crate::DramModule::contents_digest`].
//!
//! The digest of a module is the wrapping sum, over every logical row `l`,
//! of [`row_digest`]`(l, bytes of l)`. A never-materialized row counts as
//! a row of zeros, exactly as [`crate::DramModule::peek`] reads it. Because
//! the sum is order-free, a change to one row moves the digest by that
//! row's new term minus its old one: an undo journal, which holds every
//! pre-image a trial overwrote, can therefore update a cached digest in
//! O(rows the trial touched) instead of re-hashing the module.

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One FNV-1a round: xor in `value`, multiply by the prime.
#[inline]
fn fnv_round(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(FNV_PRIME)
}

/// The little-endian `u64` of an 8-byte chunk.
#[inline]
fn le_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
}

/// Wordwise FNV-1a 64: one xor-multiply round per little-endian `u64`
/// word, with a trailing partial word (if any) folded byte-at-a-time so
/// inputs that differ only in a zero-padded tail still hash differently.
fn fnv1a64_wordwise(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let hash = (&mut words).fold(FNV_OFFSET, |hash, word| fnv_round(hash, le_word(word)));
    words.remainder().iter().fold(hash, |hash, &b| fnv_round(hash, u64::from(b)))
}

/// [`fnv1a64_wordwise`] of four equal-length rows, their chains advanced
/// in lockstep. One row's hash is a serial chain of multiplies, so a
/// single-row pass waits on multiply latency; four independent chains
/// keep the multiplier busy. Each lane's result is exactly that row's
/// one-row hash.
fn fnv1a64_wordwise_x4(rows: [&[u8]; 4]) -> [u64; 4] {
    let len = rows[0].len();
    debug_assert!(rows.iter().all(|r| r.len() == len), "lockstep rows share a length");
    let whole = len - len % 8;
    let [a, b, c, d] = rows.map(|r| r[..whole].chunks_exact(8));
    let mut hash = [FNV_OFFSET; 4];
    for (((wa, wb), wc), wd) in a.zip(b).zip(c).zip(d) {
        hash = [
            fnv_round(hash[0], le_word(wa)),
            fnv_round(hash[1], le_word(wb)),
            fnv_round(hash[2], le_word(wc)),
            fnv_round(hash[3], le_word(wd)),
        ];
    }
    for (h, row) in hash.iter_mut().zip(rows) {
        *h = row[whole..].iter().fold(*h, |h, &byte| fnv_round(h, u64::from(byte)));
    }
    hash
}

/// SplitMix64-style finalizer binding a row hash to its logical row, so
/// equal contents in different rows contribute different terms and the
/// sum does not cancel when two rows swap contents.
fn mix64(row: u64, hash: u64) -> u64 {
    let mut z = hash.wrapping_add(row.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One logical row's term of the contents digest: `mix64(row,
/// fnv1a64_wordwise(bytes))`. `bytes` is the row's full contents as
/// [`crate::DramModule::peek`] reads them (zeros for a row never written).
#[must_use]
pub fn row_digest(logical_row: u64, bytes: &[u8]) -> u64 {
    mix64(logical_row, fnv1a64_wordwise(bytes))
}

/// The wrapping sum of [`row_digest`]`(logical, bytes)` over `rows`, all
/// of one length: the whole-module digest. Rows are hashed four at a time
/// with their FNV chains in lockstep; the leftover rows (fewer than four)
/// take the one-row path. Every term is exactly that row's `row_digest`.
pub(crate) fn sum_row_digests<'a>(rows: impl IntoIterator<Item = (u64, &'a [u8])>) -> u64 {
    let mut sum = 0u64;
    let mut batch: [(u64, &[u8]); 4] = [(0, &[]); 4];
    let mut pending = 0;
    for row in rows {
        batch[pending] = row;
        pending += 1;
        if pending == batch.len() {
            let hashes = fnv1a64_wordwise_x4(batch.map(|(_, bytes)| bytes));
            for ((logical, _), hash) in batch.iter().zip(hashes) {
                sum = sum.wrapping_add(mix64(*logical, hash));
            }
            pending = 0;
        }
    }
    batch[..pending]
        .iter()
        .fold(sum, |sum, &(logical, bytes)| sum.wrapping_add(row_digest(logical, bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wordwise_fnv_folds_words_then_the_tail() {
        assert_eq!(fnv1a64_wordwise(b""), FNV_OFFSET);
        // Sub-word inputs take the byte-at-a-time tail: plain FNV-1a vectors.
        assert_eq!(fnv1a64_wordwise(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64_wordwise(b"foobar"), 0x8594_4171_F739_67E8);
        let word = u64::from_le_bytes(*b"abcdefgh");
        assert_eq!(fnv1a64_wordwise(b"abcdefgh"), (FNV_OFFSET ^ word).wrapping_mul(FNV_PRIME));
        assert_ne!(fnv1a64_wordwise(&[0; 9]), fnv1a64_wordwise(&[0; 8]));
    }

    #[test]
    fn row_terms_depend_on_the_row_and_the_contents() {
        let zeros = [0u8; 64];
        let mut one = zeros;
        one[63] = 1;
        assert_ne!(row_digest(3, &zeros), row_digest(4, &zeros));
        assert_ne!(row_digest(3, &zeros), row_digest(3, &one));
        // Swapping two rows' contents changes the sum.
        let before = row_digest(3, &zeros).wrapping_add(row_digest(4, &one));
        let after = row_digest(3, &one).wrapping_add(row_digest(4, &zeros));
        assert_ne!(before, after);
    }
}
