//! The bootstrap's radix stages, derived for the integration tests from
//! the special FFT alone, independently of how `cl-boot` composes them.

use craterlake::math::{Complex, SpecialFft};

/// The generalized diagonals of CoeffToSlot's coarse and fine stage, then
/// SlotToCoeff's fine and coarse one, over `slots` slots: each read densely
/// off the FFT's own stage-range butterflies, column by column from unit
/// vectors (`diag_d[j] = M[j][(j + d) mod m]`), keeping the nonzero ones.
pub fn fft_stage_diagonals(slots: usize) -> Vec<Vec<(i64, Vec<Complex>)>> {
    let fft = SpecialFft::new(slots);
    let levels = slots.trailing_zeros();
    let fine = levels / 2;
    let stages = [
        (fine..levels, false),
        (0..fine, false),
        (0..fine, true),
        (fine..levels, true),
    ];
    stages
        .into_iter()
        .map(|(range, forward)| {
            let cols: Vec<Vec<Complex>> = (0..slots)
                .map(|c| {
                    let mut e = vec![Complex::default(); slots];
                    e[c] = Complex::new(1.0, 0.0);
                    if forward {
                        fft.forward_levels(&mut e, range.clone());
                    } else {
                        fft.inverse_levels(&mut e, range.clone());
                    }
                    e
                })
                .collect();
            (0..slots)
                .filter_map(|d| {
                    let diag: Vec<Complex> = (0..slots).map(|j| cols[(j + d) % slots][j]).collect();
                    diag.iter()
                        .any(|v| v.abs() > 1e-12)
                        .then_some((d as i64, diag))
                })
                .collect()
        })
        .collect()
}
