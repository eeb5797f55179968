//! Hamming-weight error detection across cell polarities (section 8).
//!
//! Store a data block in **true-cells** and its hamming weight in
//! **anti-cells**. Under charge-leak corruption the data's true weight can
//! only *decrease* while the stored weight value can only *increase* — the
//! two can never drift into a consistent lie except through the rare
//! reverse-direction flips, so `popcount(data) != stored_weight` detects
//! corruption of either side with high probability. Cost: one `POPCNT`
//! per check and `log2(n)` redundant bits.

use cta_dram::{CellType, DramError, DramModule, RowId};

/// Hamming weight of a byte slice, computed eight bytes per `POPCNT`.
///
/// The check's hot loop — encode once, check often — used to popcount byte
/// by byte. Loading `u64` words and counting those matches the bitplane
/// disturb kernel's accounting in `cta-dram` and lets the compiler keep the
/// whole reduction in registers. The ragged tail (len not a multiple of 8)
/// is folded in bytewise; weights agree with the scalar sum for every
/// length.
#[must_use]
pub fn hamming_weight(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut weight: u64 = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        weight += u64::from(word.count_ones());
    }
    for b in chunks.remainder() {
        weight += u64::from(b.count_ones());
    }
    weight
}

/// Verdict of a consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Weight matches: data is (very probably) intact.
    Clean,
    /// Mismatch: corruption detected in the data or the weight.
    ErrorDetected {
        /// `popcount(data)` as currently read.
        observed_weight: u64,
        /// The stored (anti-cell) weight value.
        stored_weight: u64,
    },
}

/// A data block protected by the popcount code.
#[derive(Debug, Clone, Copy)]
pub struct PopcountCode {
    data_addr: u64,
    data_len: usize,
    weight_addr: u64,
}

impl PopcountCode {
    /// Encodes `data` at the start of `data_row` (must be true-cells) and
    /// its weight at the start of `weight_row` (must be anti-cells).
    ///
    /// # Errors
    ///
    /// [`DramError`] on bounds problems, or a
    /// [`DramError::RemapTypeMismatch`]-style polarity panic is *not* used —
    /// wrong polarities are a caller bug and panic.
    ///
    /// # Panics
    ///
    /// Panics if `data_row` is not true-cells or `weight_row` is not
    /// anti-cells — the scheme's guarantees depend on the polarities.
    pub fn encode(
        module: &mut DramModule,
        data_row: RowId,
        weight_row: RowId,
        data: &[u8],
    ) -> Result<Self, DramError> {
        assert_eq!(
            module.cell_type_of_row(data_row)?,
            CellType::True,
            "data must live in true-cells"
        );
        assert_eq!(
            module.cell_type_of_row(weight_row)?,
            CellType::Anti,
            "weight must live in anti-cells"
        );
        let data_addr = module.geometry().addr_of_row(data_row)?;
        let weight_addr = module.geometry().addr_of_row(weight_row)?;
        module.write(data_addr, data)?;
        let weight = hamming_weight(data);
        module.write_u64(weight_addr, weight)?;
        Ok(PopcountCode { data_addr, data_len: data.len(), weight_addr })
    }

    /// Reads the current data block.
    ///
    /// # Errors
    ///
    /// DRAM bounds errors.
    pub fn data(&self, module: &mut DramModule) -> Result<Vec<u8>, DramError> {
        module.read(self.data_addr, self.data_len)
    }

    /// Runs the check: recompute the weight, compare to the stored one.
    ///
    /// # Errors
    ///
    /// DRAM bounds errors.
    pub fn check(&self, module: &mut DramModule) -> Result<Verdict, DramError> {
        let data = module.read(self.data_addr, self.data_len)?;
        let observed = hamming_weight(&data);
        let stored = module.read_u64(self.weight_addr)?;
        if observed == stored {
            Ok(Verdict::Clean)
        } else {
            Ok(Verdict::ErrorDetected { observed_weight: observed, stored_weight: stored })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_dram::{CellLayout, CellType, DisturbanceParams, DramConfig};

    /// small_test layout alternates every 8 rows starting true: rows 0–7
    /// true, 8–15 anti.
    fn module(pf: f64) -> DramModule {
        let cfg = DramConfig::small_test().with_disturbance(DisturbanceParams {
            pf,
            reverse_rate: 0.0,
            ..DisturbanceParams::default()
        });
        DramModule::new(cfg)
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 % 251) as u8).collect()
    }

    #[test]
    fn clean_round_trip() {
        let mut m = module(0.02);
        let data = payload(1024);
        let code = PopcountCode::encode(&mut m, RowId(2), RowId(10), &data).unwrap();
        assert_eq!(code.check(&mut m).unwrap(), Verdict::Clean);
        assert_eq!(code.data(&mut m).unwrap(), data);
    }

    #[test]
    fn hammering_data_row_is_detected() {
        let mut m = module(0.02);
        let data = payload(4096);
        let code = PopcountCode::encode(&mut m, RowId(2), RowId(10), &data).unwrap();
        m.hammer_double_sided(RowId(2)).unwrap();
        match code.check(&mut m).unwrap() {
            Verdict::ErrorDetected { observed_weight, stored_weight } => {
                assert!(observed_weight < stored_weight, "true-cell data can only lose weight");
            }
            Verdict::Clean => panic!("pf=2% over 4 KiB must flip something"),
        }
    }

    #[test]
    fn hammering_weight_row_is_detected() {
        let mut m = module(0.05);
        let data = payload(4096);
        let code = PopcountCode::encode(&mut m, RowId(2), RowId(10), &data).unwrap();
        // Hammer the anti-cell weight row. The stored weight (a small
        // number, mostly 0-bits) can only grow.
        m.hammer_double_sided(RowId(10)).unwrap();
        match code.check(&mut m).unwrap() {
            Verdict::ErrorDetected { observed_weight, stored_weight } => {
                assert!(stored_weight > observed_weight, "anti-cell weight can only grow");
            }
            // The weight u64 is only 64 bits of the row; flips may miss it.
            Verdict::Clean => {}
        }
    }

    #[test]
    #[should_panic(expected = "true-cells")]
    fn wrong_data_polarity_panics() {
        let mut m = module(0.02);
        let _ = PopcountCode::encode(&mut m, RowId(10), RowId(11), &payload(64));
    }

    #[test]
    #[should_panic(expected = "anti-cells")]
    fn wrong_weight_polarity_panics() {
        let mut m = module(0.02);
        let _ = PopcountCode::encode(&mut m, RowId(2), RowId(3), &payload(64));
    }

    #[test]
    fn detection_rate_is_high_across_modules() {
        // Fault-injection sweep: measure the detection rate over many
        // modules; misses require exactly compensating flips, which the
        // directional argument makes (nearly) impossible with
        // reverse_rate = 0.
        let mut detected = 0;
        let mut corrupted = 0;
        for seed in 0..20u64 {
            let cfg =
                DramConfig::small_test().with_seed(seed).with_disturbance(DisturbanceParams {
                    pf: 0.01,
                    reverse_rate: 0.0,
                    ..DisturbanceParams::default()
                });
            let mut m = DramModule::new(cfg);
            let data = payload(4096);
            let code = PopcountCode::encode(&mut m, RowId(2), RowId(10), &data).unwrap();
            m.hammer_double_sided(RowId(2)).unwrap();
            let was_corrupted = code.data(&mut m).unwrap() != data;
            if was_corrupted {
                corrupted += 1;
                if code.check(&mut m).unwrap() != Verdict::Clean {
                    detected += 1;
                }
            }
        }
        assert!(corrupted > 10, "most modules should corrupt, got {corrupted}");
        assert_eq!(detected, corrupted, "every corruption must be detected");
    }

    #[test]
    fn wordwise_weight_matches_bytewise_for_every_tail_length() {
        for len in 0..=67usize {
            let data = payload(len);
            let bytewise: u64 = data.iter().map(|b| u64::from(b.count_ones())).sum();
            assert_eq!(hamming_weight(&data), bytewise, "len={len}");
        }
        assert_eq!(hamming_weight(&[]), 0);
        assert_eq!(hamming_weight(&[0xFF; 16]), 128);
    }

    #[test]
    fn layout_sanity() {
        let m = DramModule::new(DramConfig::small_test());
        assert_eq!(m.cell_type_of_row(RowId(2)).unwrap(), CellType::True);
        assert_eq!(m.cell_type_of_row(RowId(10)).unwrap(), CellType::Anti);
        let _ = CellLayout::alternating_512();
    }
}
