//! Word-level access to row bytes, and the bitplane disturb kernel.
//!
//! The bitplane code views a row as a sequence of `u64` words: word `w`
//! covers bit indices `[64w, 64w + 64)`, and bit `b` of the word is row
//! bit `64w + b`.
//! Because rows are little-endian byte arrays with bit 0 at the LSB of byte
//! 0, this is exactly `u64::from_le_bytes` over bytes `[8w, 8w + 8)` — the
//! same layout [`crate::DramModule::read_u64`] exposes to software.
//!
//! Rows shorter than 8 bytes (or, in principle, any row whose byte count is
//! not a multiple of 8) make the last word a *tail word*: it is loaded
//! zero-padded and stored back truncated, so masks must never set
//! padding bits. Mask builders in `vuln.rs`/`retention.rs` only set bits
//! below the row's bit count, which keeps the padding untouched.

use crate::vuln::{FlipDirection, PlaneWord};

/// Number of `u64` words needed to cover `nbits` bits.
pub(crate) fn words_for_bits(nbits: usize) -> usize {
    nbits.div_ceil(64)
}

/// Loads word `w` of `bytes`, zero-padding past the end of the slice.
#[inline]
pub(crate) fn load_word(bytes: &[u8], w: usize) -> u64 {
    let lo = w * 8;
    // Whole words (every word of a row of 8-byte multiples) take a fixed
    // 8-byte load; only a tail word goes through the zero-padded copy.
    if let Some(word) = bytes.get(lo..lo + 8) {
        return u64::from_le_bytes(word.try_into().expect("8-byte slice"));
    }
    let hi = (lo + 8).min(bytes.len());
    let mut buf = [0u8; 8];
    buf[..hi - lo].copy_from_slice(&bytes[lo..hi]);
    u64::from_le_bytes(buf)
}

/// Stores word `w` into `bytes`, truncating past the end of the slice.
///
/// Truncation is only sound when the dropped high bits are zero — i.e. when
/// the caller never set padding bits of a tail word. Debug builds check.
#[inline]
pub(crate) fn store_word(bytes: &mut [u8], w: usize, word: u64) {
    let lo = w * 8;
    if let Some(dst) = bytes.get_mut(lo..lo + 8) {
        dst.copy_from_slice(&word.to_le_bytes());
        return;
    }
    let hi = (lo + 8).min(bytes.len());
    debug_assert!(
        hi - lo == 8 || word >> (8 * (hi - lo)) == 0,
        "tail-word store would drop set padding bits"
    );
    bytes[lo..hi].copy_from_slice(&word.to_le_bytes()[..hi - lo]);
}

/// Number of set bits in `bytes`, counted a `u64` word at a time with a
/// bytewise tail for rows that are not a multiple of 8 bytes long.
pub(crate) fn count_ones(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let whole: u64 = (&mut words)
        .map(|w| u64::from(u64::from_le_bytes(w.try_into().expect("8-byte chunk")).count_ones()))
        .sum();
    whole + words.remainder().iter().map(|b| u64::from(b.count_ones())).sum::<u64>()
}

/// Disturbs one row through its compiled bitplanes: every vulnerable cell
/// whose stored value is its flip's source value (a `1→0` cell holding 1,
/// a `0→1` cell holding 0) flips, one AND/OR pass per active word.
/// `flip(bit, direction)` is called once per flipped cell, in ascending
/// bit order. The per-bit definition is the test-only reference
/// `fire_bits_reference`, pinned bit-for-bit against this kernel.
#[inline]
pub(crate) fn fire_planes(
    bytes: &mut [u8],
    planes: &[PlaneWord],
    mut flip: impl FnMut(u64, FlipDirection),
) {
    for pw in planes {
        let w = pw.word as usize;
        let word = load_word(bytes, w);
        let fire_otz = word & pw.otz;
        let fire_zto = !word & pw.zto;
        let fired = fire_otz | fire_zto;
        if fired == 0 {
            continue;
        }
        store_word(bytes, w, (word & !fire_otz) | fire_zto);
        let base = 64 * w as u64;
        let mut rest = fired;
        while rest != 0 {
            let b = rest.trailing_zeros() as u64;
            let direction = if fire_otz >> b & 1 == 1 {
                FlipDirection::OneToZero
            } else {
                FlipDirection::ZeroToOne
            };
            flip(base + b, direction);
            rest &= rest - 1;
        }
    }
}

/// Bit `bit` of a row (bit 0 = LSB of byte 0).
#[cfg(test)]
pub(crate) fn get_bit(bytes: &[u8], bit: u64) -> bool {
    bytes[(bit / 8) as usize] >> (bit % 8) & 1 == 1
}

/// Sets bit `bit` of a row to `value`.
#[cfg(test)]
pub(crate) fn set_bit(bytes: &mut [u8], bit: u64, value: bool) {
    let byte = &mut bytes[(bit / 8) as usize];
    if value {
        *byte |= 1 << (bit % 8);
    } else {
        *byte &= !(1 << (bit % 8));
    }
}

#[cfg(test)]
mod tests {
    use rand::Rng;

    use super::*;
    use crate::cells::CellLayout;
    use crate::config::{DisturbanceParams, MapGen};
    use crate::geometry::{AddressMapping, DramGeometry, RowId};
    use crate::rng::stream_rng;
    use crate::vuln::{VulnerabilityModel, VulnerableBit};

    /// Scalar reference of [`fire_planes`]: one bit test per vulnerable
    /// cell, in the (ascending) order of the row's bit map.
    fn fire_bits_reference(bytes: &mut [u8], bits: &[VulnerableBit]) -> Vec<(u64, FlipDirection)> {
        let mut flips = Vec::new();
        for vb in bits {
            let current = get_bit(bytes, vb.bit);
            if current == vb.direction.source_value() {
                set_bit(bytes, vb.bit, !current);
                flips.push((vb.bit, vb.direction));
            }
        }
        flips
    }

    #[test]
    fn fire_planes_matches_the_scalar_reference_on_random_rows() {
        // Random seeds, rows and contents over sparse and dense maps of
        // both derivations and polarities, on full-word (4096/8-byte) and
        // tail-word (4/1-byte) rows. Each row is disturbed twice, so the
        // second pass fires on what the first one left.
        let mut rng = stream_rng(0xF1F1, 0);
        for row_bytes in [4096u64, 8, 4, 1] {
            let geometry = DramGeometry::new(row_bytes, 1 << 20, 1, AddressMapping::RowLinear);
            for pf in [0.05, 0.4] {
                for map_gen in [MapGen::Stream, MapGen::Counter] {
                    for layout in [CellLayout::AllTrue, CellLayout::AllAnti] {
                        let params = DisturbanceParams { pf, ..DisturbanceParams::default() };
                        let seed = rng.gen();
                        let mut m = VulnerabilityModel::with_map_gen(
                            &geometry, layout, params, seed, map_gen,
                        );
                        for _ in 0..4 {
                            let row = RowId(rng.gen_range(0..1 << 20));
                            let bits = m.vulnerable_bits(row);
                            let planes = m.planes(row, &bits);
                            let mut wb: Vec<u8> = (0..row_bytes).map(|_| rng.gen()).collect();
                            let mut rb = wb.clone();
                            for pass in 0..2 {
                                let mut flips = Vec::new();
                                fire_planes(&mut wb, &planes, |bit, dir| flips.push((bit, dir)));
                                let reference = fire_bits_reference(&mut rb, &bits);
                                let ctx = format!(
                                    "row_bytes={row_bytes} pf={pf} {map_gen:?} {layout:?} \
                                     seed={seed:#x} {row:?} pass={pass}"
                                );
                                assert_eq!(flips, reference, "flip events diverged: {ctx}");
                                assert_eq!(wb, rb, "row bytes diverged: {ctx}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn word_layout_matches_bit_helpers() {
        // Bit 0 = LSB of byte 0; bit 9 = bit 1 of byte 1 = word bit 9.
        let mut bytes = vec![0u8; 16];
        set_bit(&mut bytes, 9, true);
        set_bit(&mut bytes, 64, true);
        assert_eq!(load_word(&bytes, 0), 1 << 9);
        assert_eq!(load_word(&bytes, 1), 1);
    }

    #[test]
    fn round_trip_full_words() {
        let mut bytes = vec![0u8; 24];
        store_word(&mut bytes, 1, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(load_word(&bytes, 1), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(load_word(&bytes, 0), 0);
        assert_eq!(load_word(&bytes, 2), 0);
    }

    #[test]
    fn tail_word_loads_zero_padded_and_stores_truncated() {
        let mut bytes = vec![0xFFu8; 4]; // a 32-bit row: one tail word
        assert_eq!(load_word(&bytes, 0), 0xFFFF_FFFF);
        store_word(&mut bytes, 0, 0x1234_5678);
        assert_eq!(bytes, vec![0x78, 0x56, 0x34, 0x12]);
    }

    #[test]
    fn count_ones_counts_whole_words_and_the_tail() {
        let mut rng = stream_rng(0xC0DE, 0);
        for len in [0usize, 1, 4, 7, 8, 9, 12, 4096] {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let bytewise: u64 = bytes.iter().map(|b| u64::from(b.count_ones())).sum();
            assert_eq!(count_ones(&bytes), bytewise, "len={len}");
        }
        assert_eq!(count_ones(&[0xFF; 12]), 96);
    }

    #[test]
    fn words_for_bits_rounds_up() {
        assert_eq!(words_for_bits(0), 0);
        assert_eq!(words_for_bits(1), 1);
        assert_eq!(words_for_bits(64), 1);
        assert_eq!(words_for_bits(65), 2);
    }
}
