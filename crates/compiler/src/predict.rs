//! Closed-form op-count prediction for compiled [`Program`]s.
//!
//! [`predict_program`] walks a pipeline program symbolically — tracking only
//! the accumulator's and each slot's RNS level — and computes the exact
//! [`OpSnapshot`] the instrumented kernels will report when the program
//! runs: NTT/INTT passes, element-wise multiply/add passes, base-conversion
//! limb conversions, automorphism applications, and the whole-ciphertext
//! rotation / ct-mult / pt-mult tallies. The end-to-end tests assert
//! prediction == measurement field by field, which makes the compiler's
//! cost model a tested invariant rather than documentation.
//!
//! The recipes mirror `cl-ckks`'s implementation exactly:
//!
//! - keyswitching hoists the target polynomial (one inverse NTT over its
//!   limbs, a pre-scale by the unused special limbs' inverse below the
//!   top level, then per-digit base extension into the level's special
//!   limbs, [`KeySwitchKind::special_at`]), runs the hint inner product
//!   over the extended basis, and mod-downs both result halves;
//! - rescale is a pair of exact single-limb mod-downs over the cached base
//!   converter;
//! - plaintext ops pay one encode (forward NTT over the ciphertext's basis).
//!
//! Counts assume a **warm hint cache**: seeded hint expansion on a cold
//! first run adds `hint_regen` (and expansion NTT) passes the model does
//! not include, so measure a second run after warming (the tests do).

use std::collections::BTreeMap;

use cl_ckks::KeySwitchKind;
use cl_runtime::{PipelineOp, Program};
use cl_trace::OpSnapshot;

/// Why a program's cost could not be predicted.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// `Bootstrap` expands into the functional bootstrapper's own pipeline,
    /// whose cost is not part of this model.
    Bootstrap {
        /// Index of the bootstrap op.
        index: usize,
    },
    /// An op reads a slot no prior op stored (the executor would fail the
    /// same way).
    EmptySlot {
        /// Index of the offending op.
        index: usize,
        /// The slot it read.
        slot: u16,
    },
    /// An op needs more level than the accumulator has (rescale below
    /// level 2, mod-drop upward, plain-multiply at level 1).
    Level {
        /// Index of the offending op.
        index: usize,
        /// Short name of the op.
        op: &'static str,
        /// Accumulator level at that point.
        level: usize,
    },
    /// A binary slot op combines operands at different levels — the strict
    /// executor rejects this, so the prediction would never be observable.
    LevelMismatch {
        /// Index of the offending op.
        index: usize,
        /// Accumulator level.
        acc: usize,
        /// Slot level.
        slot: usize,
    },
    /// `Input(i)` indexes past the declared input levels.
    MissingInput {
        /// The out-of-range input index.
        index: u16,
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::Bootstrap { index } => {
                write!(f, "op {index}: bootstrap cost is outside the prediction model")
            }
            PredictError::EmptySlot { index, slot } => {
                write!(f, "op {index}: reads slot {slot} before any store")
            }
            PredictError::Level { index, op, level } => {
                write!(f, "op {index}: {op} needs more level than {level}")
            }
            PredictError::LevelMismatch { index, acc, slot } => {
                write!(f, "op {index}: accumulator level {acc} vs slot level {slot}")
            }
            PredictError::MissingInput { index } => {
                write!(f, "input {index} not covered by input_levels")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// Per-digit keyswitch layout at ciphertext level `l`: how `cl-ckks`
/// partitions the modulus chain for `kind` over a context with `l_max`
/// levels.
struct KsLayout {
    /// Special-basis limb count `K` at this level (the extension every
    /// digit is raised into).
    special: usize,
    /// Whether `K` is below the hint's special count, so the input is
    /// pre-scaled first.
    prescale: bool,
    /// Limb count of each digit that intersects `[0, l)`.
    present: Vec<usize>,
}

fn ks_layout(l: usize, l_max: usize, kind: KeySwitchKind) -> KsLayout {
    let alpha = kind.special_limbs(l_max);
    let special = kind.special_at(l_max, l);
    let present = match kind {
        KeySwitchKind::Standard => vec![1; l.min(l_max)],
        KeySwitchKind::Boosted { .. } => (0..l_max)
            .step_by(alpha)
            .map(|start| (start + alpha).min(l_max).min(l).saturating_sub(start))
            .filter(|&in_ct| in_ct > 0)
            .collect(),
    };
    KsLayout {
        special,
        prescale: special < alpha,
        present,
    }
}

/// `mod_down_ntt` from a `q`-limb + `p`-limb basis back to `q` limbs.
fn mod_down(s: &mut OpSnapshot, q: usize, p: usize) {
    s.intt += p as u64;
    s.ntt += q as u64;
    s.mult += (p + 2 * q) as u64;
    s.add += (2 * q) as u64;
    s.base_conv += (p * q) as u64;
}

/// Hoisting: decompose a level-`l` polynomial into per-digit extended form.
fn hoist(s: &mut OpSnapshot, l: usize, lay: &KsLayout) {
    s.intt += l as u64;
    if lay.prescale {
        // The coefficient-form input, and each digit's own NTT-form limbs.
        s.mult += 2 * l as u64;
    }
    for &sd in &lay.present {
        let ext = (l + lay.special) - sd;
        s.mult += sd as u64;
        s.base_conv += (sd * ext) as u64;
        s.ntt += ext as u64;
    }
}

/// Hint inner product over the extended basis, with the automorphism fused
/// into the accumulation when `galois` (rotations/conjugations).
fn inner_product(s: &mut OpSnapshot, l: usize, lay: &KsLayout, galois: bool) {
    let ext = (l + lay.special) as u64;
    for _ in &lay.present {
        s.mult += 2 * ext;
        s.add += 2 * ext;
        if galois {
            s.automorph += ext;
        }
    }
}

/// Both keyswitch result halves mod-downed from the extended basis.
fn mod_down_pair(s: &mut OpSnapshot, l: usize, lay: &KsLayout) {
    mod_down(s, l, lay.special);
    mod_down(s, l, lay.special);
}

/// One full keyswitch of a level-`l` ciphertext.
fn keyswitch(s: &mut OpSnapshot, l: usize, l_max: usize, kind: KeySwitchKind, galois: bool) {
    let lay = ks_layout(l, l_max, kind);
    hoist(s, l, &lay);
    inner_product(s, l, &lay, galois);
    mod_down_pair(s, l, &lay);
}

/// Rescale: two exact single-limb mod-downs (cached converter), level `l`
/// dropping to `l - 1`.
fn rescale(s: &mut OpSnapshot, l: usize) {
    mod_down(s, l - 1, 1);
    mod_down(s, l - 1, 1);
}

/// A rotation/conjugation at level `l`: keyswitch the hoisted `c1` with the
/// automorphism fused, rotate `c0` directly, and recombine.
fn galois_op(s: &mut OpSnapshot, l: usize, l_max: usize, kind: KeySwitchKind) {
    s.rotations += 1;
    keyswitch(s, l, l_max, kind, true);
    s.automorph += l as u64;
    s.add += l as u64;
}

/// Predicts the exact instrumented-kernel op counts of running `program`
/// once with a warm hint cache.
///
/// `l_max` is the context's full level count (`params().levels()`), `kind`
/// the keyswitch variant every key in the bundle was generated with, and
/// `input_levels[i]` the level of pipeline input `i` (the accumulator
/// starts at `input_levels[0]`).
///
/// The `bytes` and `hint_regen` fields of the result are left at zero:
/// bytes scale all other counters by `8·N` and regen is a cold-cache
/// artifact, so neither adds information to the equality the tests check.
///
/// # Errors
///
/// See [`PredictError`] — bootstraps, empty-slot reads, level underflows,
/// and strict-mode level mismatches are rejected rather than mispredicted.
pub fn predict_program(
    l_max: usize,
    kind: KeySwitchKind,
    input_levels: &[usize],
    program: &Program,
) -> Result<OpSnapshot, PredictError> {
    let mut s = OpSnapshot::default();
    let mut acc = *input_levels.first().ok_or(PredictError::MissingInput { index: 0 })?;
    let mut slots: BTreeMap<u16, usize> = BTreeMap::new();
    for (index, op) in program.ops().iter().enumerate() {
        match op {
            PipelineOp::Square => {
                s.ct_mults += 1;
                s.mult += 3 * acc as u64;
                s.add += acc as u64;
                keyswitch(&mut s, acc, l_max, kind, false);
                s.add += 2 * acc as u64;
            }
            PipelineOp::Rescale => {
                if acc < 2 {
                    return Err(PredictError::Level { index, op: "rescale", level: acc });
                }
                rescale(&mut s, acc);
                acc -= 1;
            }
            PipelineOp::AddPlain(_) => {
                s.ntt += acc as u64; // encode at the ciphertext's basis
                s.add += acc as u64;
            }
            PipelineOp::MulPlain(_) => {
                if acc < 2 {
                    return Err(PredictError::Level { index, op: "mul_plain", level: acc });
                }
                s.pt_mults += 1;
                s.ntt += acc as u64;
                s.mult += 2 * acc as u64;
            }
            PipelineOp::MulPlainRescale(_) => {
                if acc < 2 {
                    return Err(PredictError::Level {
                        index,
                        op: "mul_plain_rescale",
                        level: acc,
                    });
                }
                s.pt_mults += 1;
                s.ntt += acc as u64;
                s.mult += 2 * acc as u64;
                rescale(&mut s, acc);
                acc -= 1;
            }
            PipelineOp::Rotate(_) | PipelineOp::Conjugate => {
                galois_op(&mut s, acc, l_max, kind);
            }
            PipelineOp::RotateHoisted { steps, dsts } => {
                let lay = ks_layout(acc, l_max, kind);
                hoist(&mut s, acc, &lay);
                for _ in steps {
                    s.rotations += 1;
                    inner_product(&mut s, acc, &lay, true);
                    mod_down_pair(&mut s, acc, &lay);
                    s.automorph += acc as u64;
                    s.add += acc as u64;
                }
                for &d in dsts {
                    slots.insert(d, acc);
                }
            }
            PipelineOp::Bootstrap => return Err(PredictError::Bootstrap { index }),
            PipelineOp::Load(i) => {
                acc = *slots
                    .get(i)
                    .ok_or(PredictError::EmptySlot { index, slot: *i })?;
            }
            PipelineOp::Store(i) => {
                slots.insert(*i, acc);
            }
            PipelineOp::Free(i) => {
                slots
                    .remove(i)
                    .ok_or(PredictError::EmptySlot { index, slot: *i })?;
            }
            PipelineOp::Input(i) => {
                acc = *input_levels
                    .get(*i as usize)
                    .ok_or(PredictError::MissingInput { index: *i })?;
            }
            PipelineOp::AddSlot(i) | PipelineOp::SubSlot(i) => {
                let sl = *slots
                    .get(i)
                    .ok_or(PredictError::EmptySlot { index, slot: *i })?;
                if sl != acc {
                    return Err(PredictError::LevelMismatch { index, acc, slot: sl });
                }
                s.add += 2 * acc as u64;
            }
            PipelineOp::MulCtSlot(i) => {
                let sl = *slots
                    .get(i)
                    .ok_or(PredictError::EmptySlot { index, slot: *i })?;
                if sl != acc {
                    return Err(PredictError::LevelMismatch { index, acc, slot: sl });
                }
                s.ct_mults += 1;
                s.mult += 4 * acc as u64;
                s.add += acc as u64;
                keyswitch(&mut s, acc, l_max, kind, false);
                s.add += 2 * acc as u64;
            }
            PipelineOp::ModDropTo(t) => {
                let t = *t as usize;
                if t > acc || t == 0 {
                    return Err(PredictError::Level { index, op: "mod_drop_to", level: acc });
                }
                acc = t;
            }
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_cost_closed_form_standard_kind() {
        // l = 2, l_max = 4, Standard: special K = 1, two present digits of
        // one limb each. Worked by hand from the cl-ckks recipes:
        //   hoist:       intt 2; per digit (s=1, ext=2): mult 1, bc 2, ntt 2
        //   inner:       per digit over 3 limbs: mult 6, add 6, automorph 3
        //   mod-down ×2: intt 1, ntt 2, mult 5, add 4, bc 2 each
        //   c0 path:     automorph 2, add 2
        let p = Program::from_ops(vec![PipelineOp::Rotate(1)]);
        let s = predict_program(4, KeySwitchKind::Standard, &[2], &p).unwrap();
        assert_eq!(s.ntt, 8);
        assert_eq!(s.intt, 4);
        assert_eq!(s.mult, 24);
        assert_eq!(s.add, 22);
        assert_eq!(s.base_conv, 8);
        assert_eq!(s.automorph, 8);
        assert_eq!(s.rotations, 1);
        assert_eq!(s.ct_mults, 0);
        assert_eq!(s.pt_mults, 0);
    }

    #[test]
    fn hoisted_batch_shares_one_decomposition() {
        // Two hoisted steps must cost exactly one hoist less than two
        // standalone rotations.
        let single = Program::from_ops(vec![PipelineOp::Rotate(1), PipelineOp::Rotate(2)]);
        let hoisted = Program::from_ops(vec![
            PipelineOp::RotateHoisted {
                steps: vec![1, 2],
                dsts: vec![0, 1],
            },
            PipelineOp::Free(0),
            PipelineOp::Free(1),
        ]);
        let kind = KeySwitchKind::Boosted { digits: 2 };
        let a = predict_program(6, kind, &[4], &single).unwrap();
        let b = predict_program(6, kind, &[4], &hoisted).unwrap();
        assert_eq!(a.rotations, b.rotations);
        assert!(b.intt < a.intt, "hoisting saves the second decomposition");
        assert!(b.ntt < a.ntt);
        assert!(b.base_conv < a.base_conv);
        assert_eq!(a.add, b.add, "inner products and recombines match");
    }

    #[test]
    fn level_tracking_flows_through_rescale_and_slots() {
        // A rotation after a rescale is cheaper than before it.
        let p = Program::from_ops(vec![
            PipelineOp::Rotate(1),
            PipelineOp::Rescale,
            PipelineOp::Rotate(1),
        ]);
        let s = predict_program(6, KeySwitchKind::Standard, &[4], &p).unwrap();
        let one_at_4 =
            predict_program(6, KeySwitchKind::Standard, &[4], &Program::from_ops(vec![PipelineOp::Rotate(1)]))
                .unwrap();
        let one_at_3 =
            predict_program(6, KeySwitchKind::Standard, &[3], &Program::from_ops(vec![PipelineOp::Rotate(1)]))
                .unwrap();
        let resc =
            predict_program(6, KeySwitchKind::Standard, &[4], &Program::from_ops(vec![PipelineOp::Rescale]))
                .unwrap();
        assert_eq!(s, one_at_4.plus(&one_at_3).plus(&resc));
    }

    #[test]
    fn prediction_rejects_what_the_executor_would() {
        let kind = KeySwitchKind::Standard;
        let load = Program::from_ops(vec![PipelineOp::Load(0)]);
        assert!(matches!(
            predict_program(4, kind, &[2], &load),
            Err(PredictError::EmptySlot { slot: 0, .. })
        ));
        let boot = Program::from_ops(vec![PipelineOp::Bootstrap]);
        assert!(matches!(
            predict_program(4, kind, &[2], &boot),
            Err(PredictError::Bootstrap { index: 0 })
        ));
        let low = Program::from_ops(vec![PipelineOp::Rescale]);
        assert!(matches!(
            predict_program(4, kind, &[1], &low),
            Err(PredictError::Level { op: "rescale", .. })
        ));
        let mismatch = Program::from_ops(vec![
            PipelineOp::Store(0),
            PipelineOp::Rescale,
            PipelineOp::AddSlot(0),
        ]);
        assert!(matches!(
            predict_program(4, kind, &[3], &mismatch),
            Err(PredictError::LevelMismatch { acc: 2, slot: 3, .. })
        ));
        let missing = Program::from_ops(vec![PipelineOp::Input(5)]);
        assert!(matches!(
            predict_program(4, kind, &[2], &missing),
            Err(PredictError::MissingInput { index: 5 })
        ));
    }
}
