//! The analytic bootstrapping plan.
//!
//! Packed CKKS bootstrapping [11, 14, 53] has four stages:
//!
//! 1. **ModRaise** — reinterpret the exhausted (low-level) ciphertext over
//!    the full modulus chain; the message becomes `m + q0·I(X)` for a small
//!    integer polynomial `I`.
//! 2. **CoeffToSlot** — a homomorphic DFT moving coefficients into slots,
//!    decomposed into radix stages (each a BSGS-evaluated sparse linear
//!    transform) so each partition's plaintext matrices fit on chip
//!    (Sec. 6: the decomposition "consumes some extra levels, but achieves
//!    much higher performance overall by allowing on-chip reuse").
//! 3. **EvalMod** — evaluate `x mod q0` via a scaled-sine Chebyshev
//!    polynomial (Paterson-Stockmeyer) plus double-angle iterations.
//! 4. **SlotToCoeff** — the inverse homomorphic DFT.
//!
//! The plan captures each stage's shape and level consumption, and expands
//! itself into an [`HeGraph`] fragment ([`BootstrapPlan::append_to`]); the
//! expansion is the one count of the plan's operations. Its transforms are
//! emitted by [`HeGraph::bsgs_sum`], so their rotation amounts follow the
//! real BSGS access pattern and the machine model sees the true
//! keyswitch-hint reuse.

use cl_isa::cost::{bsgs_baby_steps, onchip_baby_cap};
use cl_isa::{HeGraph, NodeId, Phase};

/// A plan for one bootstrapping operation at full-scale parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapPlan {
    /// Ring degree.
    pub n: usize,
    /// Slots being refreshed (`n/2` for fully packed, 1 for unpacked).
    pub slots: usize,
    /// Level the ciphertext is raised to (the full budget).
    pub l_max: usize,
    /// Radix stages in CoeffToSlot (each consumes `cts_level_cost` levels).
    pub cts_stages: usize,
    /// Radix stages in SlotToCoeff.
    pub sts_stages: usize,
    /// Levels consumed per CoeffToSlot/SlotToCoeff stage (>1 models the
    /// higher-precision matrix encodings of non-sparse bootstrapping).
    pub cts_level_cost: usize,
    /// Plaintext diagonals per radix stage (matrix sparsity).
    pub diags_per_stage: usize,
    /// Ciphertext-ciphertext multiplications in EvalMod
    /// (Paterson-Stockmeyer powers + combination + double-angle).
    pub evalmod_ct_muls: usize,
    /// Plaintext multiplications in EvalMod (coefficient scaling).
    pub evalmod_pt_muls: usize,
    /// Levels EvalMod consumes.
    pub evalmod_levels: usize,
}

impl BootstrapPlan {
    /// The fully packed plan (all `n/2` slots) used by the deep benchmarks,
    /// calibrated to the paper's operating point: on an `L = 57` budget the
    /// pipeline consumes 35 levels, leaving 22 for application computation
    /// (Sec. 2.3's LSTM example).
    ///
    /// # Panics
    ///
    /// Panics if `l_max` is too small to bootstrap at all.
    pub fn packed(n: usize, l_max: usize) -> Self {
        let plan = Self {
            n,
            slots: n / 2,
            l_max,
            cts_stages: 3,
            sts_stages: 3,
            cts_level_cost: 2,
            // Radix ~ (n/2)^(1/3); the merged DFT factor at that radix has
            // ~diagonal count ~ 20 after the on-chip tiling of Sec. 6.
            diags_per_stage: 20,
            evalmod_ct_muls: 14,
            evalmod_pt_muls: 16,
            evalmod_levels: 23,
        };
        assert!(
            plan.levels_consumed() < l_max,
            "budget {l_max} too small: bootstrapping consumes {}",
            plan.levels_consumed()
        );
        plan
    }

    /// A sparsely packed plan: the ciphertext uses only `slots` of the
    /// `n/2` available slots, which shrinks the CoeffToSlot/SlotToCoeff
    /// matrices dramatically ("bootstrapping costs grow with the number of
    /// slots", Sec. 8). Used by benchmarks whose working vectors are small,
    /// like the 128-wide LSTM.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two or the budget is too small.
    pub fn sparse(n: usize, l_max: usize, slots: usize) -> Self {
        assert!(slots.is_power_of_two() && slots >= 2);
        let plan = Self {
            n,
            slots,
            l_max,
            cts_stages: 2,
            sts_stages: 2,
            cts_level_cost: 2,
            diags_per_stage: 2 * (slots as f64).powf(0.5).ceil() as usize / 2,
            evalmod_ct_muls: 14,
            evalmod_pt_muls: 16,
            // Same total level consumption as the packed pipeline (the
            // EvalMod precision requirement does not shrink with slots).
            evalmod_levels: 27,
        };
        assert!(
            plan.levels_consumed() < l_max,
            "budget {l_max} too small: bootstrapping consumes {}",
            plan.levels_consumed()
        );
        plan
    }

    /// The unpacked plan (a single slot, `L <= 23`): CoeffToSlot and
    /// SlotToCoeff collapse to a handful of rotations, making it far
    /// shallower and cheaper — but >1,000x worse per slot (Sec. 8).
    ///
    /// # Panics
    ///
    /// Panics if `l_max` is too small to bootstrap at all.
    pub fn unpacked(n: usize, l_max: usize) -> Self {
        let plan = Self {
            n,
            slots: 1,
            l_max,
            cts_stages: 1,
            sts_stages: 1,
            cts_level_cost: 1,
            diags_per_stage: 2,
            evalmod_ct_muls: 10,
            evalmod_pt_muls: 8,
            evalmod_levels: 14,
        };
        assert!(
            plan.levels_consumed() < l_max,
            "budget {l_max} too small: bootstrapping consumes {}",
            plan.levels_consumed()
        );
        plan
    }

    /// Total levels one bootstrap consumes.
    pub fn levels_consumed(&self) -> usize {
        (self.cts_stages + self.sts_stages) * self.cts_level_cost + self.evalmod_levels
    }

    /// Level of the refreshed output ciphertext (the usable budget).
    pub fn output_level(&self) -> usize {
        self.l_max - self.levels_consumed()
    }

    /// Appends the bootstrap of `input` to `g`, returning the refreshed
    /// node. All appended nodes are tagged [`Phase::Bootstrap`]. Rotation
    /// amounts follow the real radix-BSGS access pattern so keyswitch-hint
    /// reuse is faithful.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s level plus the raise target is inconsistent
    /// (input level must be below `l_max`).
    pub fn append_to(&self, g: &mut HeGraph, input: NodeId) -> NodeId {
        let prev_phase_marker = g.node(input).phase;
        g.set_phase(Phase::Bootstrap);
        let mut cur = g.mod_raise(input, self.l_max);
        // CoeffToSlot: radix stages of BSGS linear transforms, finest
        // strides first.
        let mut stride = 1i64;
        for _ in 0..self.cts_stages {
            cur = self.bsgs_transform(g, cur, stride);
            stride *= self.stage_radix() as i64;
        }
        // Conjugation separates the real/imaginary coefficient halves.
        let conj = g.conjugate(cur);
        cur = g.add(cur, conj);
        // EvalMod: Paterson-Stockmeyer Chebyshev evaluation + double angle.
        cur = self.eval_mod(g, cur);
        // SlotToCoeff: inverse transform, coarsest strides first.
        let mut stride = (self.stage_radix() as i64).pow(self.sts_stages.saturating_sub(1) as u32);
        for _ in 0..self.sts_stages {
            cur = self.bsgs_transform(g, cur, -stride);
            stride /= self.stage_radix() as i64;
            if stride == 0 {
                stride = 1;
            }
        }
        g.set_phase(prev_phase_marker);
        cur
    }

    fn stage_radix(&self) -> usize {
        (self.diags_per_stage / 2).max(2)
    }

    /// One BSGS-evaluated sparse linear transform at `stride`
    /// ([`HeGraph::bsgs_sum`], its baby steps capped by
    /// [`onchip_baby_cap`], the Sec. 6 tiling), then `cts_level_cost`
    /// rescales.
    ///
    /// The matrix diagonals are the same constants in every bootstrap
    /// invocation, so they are cached by `(stride, diagonal, level)` — the
    /// reuse the paper's compiler exploits to keep bootstrapping data
    /// resident (Sec. 6).
    fn bsgs_transform(&self, g: &mut HeGraph, input: NodeId, stride: i64) -> NodeId {
        let (d, level) = (self.diags_per_stage, g.node(input).level);
        let baby = bsgs_baby_steps(d, onchip_baby_cap(self.n, level));
        let mut out = g.bsgs_sum(input, d, stride, baby, |g, b, i| {
            let key = 0xB007_0000u64
                .wrapping_add(stride.unsigned_abs() << 20)
                .wrapping_add(i as u64);
            let diag = g.plain_input_cached(key, level);
            g.mul_plain(b, diag)
        });
        for _ in 0..self.cts_level_cost {
            out = g.rescale(out);
        }
        out
    }

    /// EvalMod: square chains for Chebyshev powers, combination multiplies,
    /// and double-angle steps, consuming `evalmod_levels` levels.
    fn eval_mod(&self, g: &mut HeGraph, input: NodeId) -> NodeId {
        let mut cur = input;
        let mut muls_done = 0;
        let mut levels_used = 0;
        // Power ladder: repeated squaring with rescale (Chebyshev powers +
        // double-angle iterations).
        while muls_done < self.evalmod_ct_muls && levels_used < self.evalmod_levels {
            let sq = g.mul_ct(cur, cur);
            cur = g.rescale(sq);
            muls_done += 1;
            levels_used += 1;
        }
        // Remaining pt-muls fold coefficients in.
        let mut pt_done = 0;
        while pt_done < self.evalmod_pt_muls && levels_used < self.evalmod_levels {
            let c = g.plain_input_cached(0xE7A1_0000 + pt_done as u64, g.node(cur).level);
            let t = g.mul_plain(cur, c);
            cur = g.rescale(t);
            pt_done += 1;
            levels_used += 1;
        }
        // Exact level accounting: burn any remainder as rescales
        // (scale-management levels).
        while levels_used < self.evalmod_levels {
            cur = g.rescale(cur);
            levels_used += 1;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_isa::HeOp;

    const N: usize = 1 << 16;

    #[test]
    fn packed_plan_matches_lstm_budget_split() {
        // Sec. 2.3: budget 57, bootstrapping consumes the highest 35
        // levels, leaving 22.
        let p = BootstrapPlan::packed(N, 57);
        assert_eq!(p.levels_consumed(), 35);
        assert_eq!(p.output_level(), 22);
    }

    #[test]
    fn unpacked_plan_is_shallow() {
        // Sec. 8: unpacked bootstrapping has L <= 23.
        let p = BootstrapPlan::unpacked(N, 23);
        assert!(p.levels_consumed() <= 23);
        assert_eq!(p.slots, 1);
        // Far less work than packed.
        let ops = |plan: &BootstrapPlan| {
            let mut g = HeGraph::new();
            let x = g.input(3);
            plan.append_to(&mut g, x);
            g.op_histogram()
        };
        let (packed, unpacked) = (ops(&BootstrapPlan::packed(N, 57)), ops(&p));
        assert!(unpacked.rotations * 4 < packed.rotations);
        assert!(unpacked.ct_muls < packed.ct_muls);
        assert!(unpacked.plain_muls * 4 < packed.plain_muls);
    }

    #[test]
    fn graph_expansion_respects_levels() {
        let plan = BootstrapPlan::packed(N, 57);
        let mut g = HeGraph::new();
        let x = g.input(3);
        let out = plan.append_to(&mut g, x);
        g.validate();
        assert_eq!(g.node(out).level, plan.output_level());
        assert_eq!(g.node(out).phase, Phase::Bootstrap);
        // The expansion starts with a ModRaise to the full budget.
        let raises = g
            .iter()
            .filter(|(_, n)| matches!(n.op, HeOp::ModRaise(_, l) if l == 57))
            .count();
        assert_eq!(raises, 1);
    }

    #[test]
    fn rotation_amounts_repeat_across_bootstraps() {
        // Every bootstrap invocation uses the same BSGS rotation amounts,
        // so keyswitch hints are fully reused across bootstraps — the
        // pattern that makes hint traffic amortizable (Sec. 6).
        let plan = BootstrapPlan::packed(N, 57);
        let mut g = HeGraph::new();
        let x = g.input(3);
        let y = g.input(3);
        plan.append_to(&mut g, x);
        plan.append_to(&mut g, y);
        let rots: Vec<i64> = g
            .iter()
            .filter_map(|(_, n)| match n.op {
                HeOp::Rotate(_, s) => Some(s),
                _ => None,
            })
            .collect();
        // The two bootstraps' rotation amounts are identical multisets.
        let (first, second) = rots.split_at(rots.len() / 2);
        let mut a = first.to_vec();
        let mut b = second.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "bootstraps should use identical rotation amounts");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_budget_rejected() {
        let _ = BootstrapPlan::packed(N, 10);
    }
}
