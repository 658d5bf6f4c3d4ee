//! Lowering homomorphic operations to macro-operation resource profiles.

use cl_core::{ArchConfig, NetworkKind};
use cl_isa::{cost, FuKind, KsAlgorithm, MacroOp};

/// Register-file traffic reduction from vector chaining during
/// keyswitching (Sec. 5.4: "vector chaining reduces register file traffic
/// by 3.5x during keyswitching").
pub const CHAINING_RF_FACTOR: f64 = 3.5;

/// Number of clusters the crossbar traffic formula is normalized to
/// (Sec. 4.3 quotes `3·G·N·L` at `G = 8`).
const CROSSBAR_G: u64 = 8;

/// Each NTT in the four-step decomposition streams through the NTT unit
/// twice — a row pass and a column pass separated by the transpose network
/// (Sec. 5.3) — so one logical NTT occupies the unit for `2·N/E` issue
/// cycles.
const NTT_PASS_FACTOR: u64 = 2;

fn rf_words_for_passes(n: usize, passes: u64, chained: bool) -> u64 {
    // Each unchained pass reads two operands and writes one result:
    // 3N words through the register file.
    let raw = 3 * n as u64 * passes;
    if chained {
        // raw / 3.5 == 2*raw / 7, rounded up: a partial chaining window
        // still moves a whole word, and exact integer arithmetic keeps the
        // count stable where f64 division would truncate (or lose low bits
        // entirely above 2^53).
        (2 * raw).div_ceil(7)
    } else {
        raw
    }
}

/// Builds the macro-ops for one keyswitch at level `l` on `arch`.
///
/// With a CRB and chaining this is a single fused pipeline op (the paper
/// compiles each keyswitch into "a sequence of up to five FU pipelines";
/// the rate model folds them into one profile whose FU kinds overlap).
/// Without a CRB, the change-RNS-base work lowers to discrete multiply and
/// add passes whose register-file traffic is what swamps port bandwidth
/// (Sec. 2.5: "over 100 register file ports").
pub fn keyswitch_macro_ops(arch: &ArchConfig, n: usize, l: usize, alg: KsAlgorithm) -> MacroOp {
    let chained = arch.chaining;
    let mut op = MacroOp::new();
    match alg {
        KsAlgorithm::Boosted(t) => {
            let counts = cost::boosted_keyswitch_ops(l, t);
            let crb_mult = cost::boosted_keyswitch_crb_mult(l, t);
            // NTT passes (Listing 1 lines 2, 4, 7, 9), two unit passes each.
            op = op.with_fu(FuKind::Ntt, NTT_PASS_FACTOR * counts.ntt);
            // Work outside changeRNSBase: the hint products (two output
            // polynomials x t digits x (L + alpha) limbs), the accumulation
            // and the ModDown additions.
            let hint_mults = counts.mult - crb_mult;
            let other_adds = counts.add - crb_mult;
            op = op.with_fu(FuKind::Mul, hint_mults);
            op = op.with_fu(FuKind::Add, other_adds);
            // changeRNSBase work.
            let crb_streams = (t as u64 + 2) * l as u64; // ModUp t*L + ModDown 2*L streams
            if arch.has_crb {
                op = op.with_fu(FuKind::Crb, crb_streams);
            } else {
                // Discrete MACs through the register file.
                op = op.with_fu(FuKind::Mul, crb_mult);
                op = op.with_fu(FuKind::Add, crb_mult);
            }
            // KSHGen regenerates the pseudo-random hint half on the fly:
            // one limb per hint product pair.
            let kshgen_limbs = hint_mults / 2;
            if arch.has_kshgen {
                op = op.with_fu(FuKind::KshGen, kshgen_limbs);
            }
            // Register-file traffic: all non-CRB passes move 3N words each
            // (divided by the chaining factor); without a CRB the MAC
            // passes hit the register file too.
            let mut rf_passes = counts.ntt + hint_mults + other_adds + kshgen_limbs;
            if !arch.has_crb {
                rf_passes += 2 * crb_mult;
            } else {
                rf_passes += crb_streams;
            }
            op = op.with_rf_words(rf_words_for_passes(n, rf_passes, chained));
            op = op.with_scalar_muls(counts.scalar_muls(n));
        }
        KsAlgorithm::Standard => {
            // F1 was designed around this algorithm: each digit's
            // NTT -> multiply -> accumulate runs as a fused cluster
            // pipeline, so register-file traffic is one read and one
            // write per pipeline stage chain, not per pass.
            let counts = cost::standard_keyswitch_ops(l);
            op = op.with_fu(FuKind::Ntt, NTT_PASS_FACTOR * counts.ntt);
            op = op.with_fu(FuKind::Mul, counts.mult);
            op = op.with_fu(FuKind::Add, counts.add);
            let rf_passes = counts.ntt + (counts.mult + counts.add) / 4;
            op = op.with_rf_words(rf_words_for_passes(n, rf_passes, true));
            op = op.with_scalar_muls(counts.scalar_muls(n));
        }
    }
    op
}

/// Network words for a keyswitch-bearing homomorphic op (Sec. 4.3).
pub fn network_words(arch: &ArchConfig, n: usize, l: usize, is_rotation: bool) -> u64 {
    match arch.network {
        NetworkKind::FixedTranspose => {
            if is_rotation {
                cost::craterlake_net_words_rot(n, l)
            } else {
                cost::craterlake_net_words_mul(n, l)
            }
        }
        NetworkKind::Crossbar => cost::cluster_net_words(n, l, CROSSBAR_G as usize),
    }
}

/// Lowers a non-keyswitch polynomial operation: `fu` passes over `passes`
/// residue polynomials with per-pass register-file traffic.
pub fn pointwise_op(_arch: &ArchConfig, n: usize, fu: FuKind, passes: u64) -> MacroOp {
    MacroOp::new()
        .with_fu(fu, passes)
        .with_rf_words(rf_words_for_passes(n, passes, false))
        .with_scalar_muls(passes * n as u64)
}

/// Lowers a rescale at level `l` (both ciphertext polynomials): INTT of the
/// dropped limb, base-convert it, subtract and scale, NTT back.
pub fn rescale_op(arch: &ArchConfig, n: usize, l: usize) -> MacroOp {
    let counts = cost::rescale_ops(l);
    let ntt_passes = NTT_PASS_FACTOR * counts.ntt;
    let mut op = MacroOp::new().with_fu(FuKind::Ntt, ntt_passes);
    let conv_streams = 2 * (l as u64 - 1);
    if arch.has_crb {
        op = op.with_fu(FuKind::Crb, conv_streams);
    } else {
        op = op.with_fu(FuKind::Mul, conv_streams);
        op = op.with_fu(FuKind::Add, conv_streams);
    }
    op = op.with_fu(FuKind::Mul, counts.mult); // q^{-1} scaling
    op = op.with_fu(FuKind::Add, counts.add); // subtraction
    let rf_passes = ntt_passes + counts.mult + counts.add + conv_streams;
    op.with_rf_words(rf_words_for_passes(n, rf_passes, arch.chaining))
        .with_scalar_muls((counts.mult + conv_streams) * n as u64)
}

/// Lowers a ModRaise to level `l` (base extension of both polynomials of a
/// low-level ciphertext to the full chain).
pub fn mod_raise_op(arch: &ArchConfig, n: usize, from: usize, to: usize) -> MacroOp {
    let streams = 2 * (to - from) as u64;
    let mut op = MacroOp::new().with_fu(FuKind::Ntt, NTT_PASS_FACTOR * 2 * to as u64);
    if arch.has_crb {
        op = op.with_fu(FuKind::Crb, streams);
    } else {
        op = op.with_fu(FuKind::Mul, streams * from as u64);
        op = op.with_fu(FuKind::Add, streams * from as u64);
    }
    op.with_rf_words(rf_words_for_passes(n, streams + 2 * to as u64, arch.chaining))
        .with_scalar_muls(streams * from as u64 * n as u64)
}

/// Lowered form of one homomorphic operation.
#[derive(Debug, Clone)]
pub enum LoweredOp {
    /// One macro-op.
    One(MacroOp),
    /// Nothing to execute (inputs, outputs, mod-drops).
    None,
}

/// Lowers an HE node kind at level `l`. Keyswitch-bearing ops get the
/// keyswitch pipeline merged in, plus their transpose/network traffic.
pub fn lower_node(
    arch: &ArchConfig,
    n: usize,
    node_op: &cl_isa::HeOp,
    l: usize,
    alg: KsAlgorithm,
) -> LoweredOp {
    use cl_isa::HeOp;
    let lu = l as u64;
    match node_op {
        HeOp::Input | HeOp::PlainInput | HeOp::Output(_) | HeOp::ModDrop(..) => LoweredOp::None,
        HeOp::Add(..) | HeOp::Sub(..) => LoweredOp::One(pointwise_op(arch, n, FuKind::Add, 2 * lu)),
        HeOp::AddPlain(..) => LoweredOp::One(pointwise_op(arch, n, FuKind::Add, lu)),
        HeOp::MulPlain(..) => LoweredOp::One(pointwise_op(arch, n, FuKind::Mul, 2 * lu)),
        HeOp::Rescale(_) => LoweredOp::One(rescale_op(arch, n, l + 1)),
        HeOp::ModRaise(_, to) => LoweredOp::One(mod_raise_op(arch, n, l.min(3), *to)),
        HeOp::MulCt(..) => {
            let mut op = keyswitch_macro_ops(arch, n, l, alg);
            // Tensor products and final additions.
            let t = cost::tensor_ops(l);
            let tensor = MacroOp::new()
                .with_fu(FuKind::Mul, t.mult)
                .with_fu(FuKind::Add, t.add)
                .with_rf_words(rf_words_for_passes(n, t.mult + t.add, arch.chaining))
                .with_scalar_muls(t.mult * n as u64);
            op.merge(&tensor);
            op = op.with_net_words(network_words(arch, n, l, false));
            LoweredOp::One(op)
        }
        HeOp::Rotate(..) | HeOp::Conjugate(..) => {
            let mut op = keyswitch_macro_ops(arch, n, l, alg);
            let aut = MacroOp::new()
                .with_fu(FuKind::Automorphism, 2 * lu)
                .with_fu(FuKind::Add, lu)
                .with_rf_words(rf_words_for_passes(n, 3 * lu, arch.chaining))
                .with_scalar_muls(lu * n as u64);
            op.merge(&aut);
            op = op.with_net_words(network_words(arch, n, l, true));
            LoweredOp::One(op)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 1 << 16;

    #[test]
    fn crb_absorbs_quadratic_work() {
        let cl = ArchConfig::craterlake();
        let no_crb = ArchConfig::craterlake().without_crb_chaining();
        let l = 57;
        let with_crb = keyswitch_macro_ops(&cl, N, l, KsAlgorithm::Boosted(1));
        let without = keyswitch_macro_ops(&no_crb, N, l, KsAlgorithm::Boosted(1));
        // With CRB: O(L) passes on the CRB unit.
        assert_eq!(with_crb.passes(FuKind::Crb), 3 * l as u64);
        assert_eq!(with_crb.passes(FuKind::Mul), 4 * l as u64);
        // Without: the 3L^2-ish MACs land on Mul/Add.
        assert!(without.passes(FuKind::Mul) > 3 * (l as u64) * (l as u64));
        assert_eq!(without.passes(FuKind::Crb), 0);
        // And the register-file traffic balloons (loss of CRB internal
        // buffering AND loss of chaining).
        assert!(without.rf_words > 10 * with_crb.rf_words);
    }

    #[test]
    fn kshgen_only_when_present() {
        let cl = ArchConfig::craterlake();
        let no_gen = ArchConfig::craterlake().without_kshgen();
        let with_gen = keyswitch_macro_ops(&cl, N, 30, KsAlgorithm::Boosted(1));
        let without = keyswitch_macro_ops(&no_gen, N, 30, KsAlgorithm::Boosted(1));
        assert!(with_gen.passes(FuKind::KshGen) > 0);
        assert_eq!(without.passes(FuKind::KshGen), 0);
    }

    #[test]
    fn standard_keyswitch_is_ntt_heavy() {
        let cl = ArchConfig::craterlake();
        let l = 8;
        let std = keyswitch_macro_ops(&cl, N, l, KsAlgorithm::Standard);
        let boosted = keyswitch_macro_ops(&cl, N, l, KsAlgorithm::Boosted(1));
        assert_eq!(std.passes(FuKind::Ntt), 2 * (l * l) as u64); // two unit passes per NTT
        assert!(boosted.passes(FuKind::Ntt) < std.passes(FuKind::Ntt));
    }

    #[test]
    fn network_traffic_formulas() {
        let cl = ArchConfig::craterlake();
        let f1 = ArchConfig::f1_plus();
        let l = 57;
        // CraterLake: 8NL for muls, 10NL for rotations.
        assert_eq!(network_words(&cl, N, l, false), 8 * (N as u64) * l as u64);
        assert_eq!(network_words(&cl, N, l, true), 10 * (N as u64) * l as u64);
        // Crossbar with residue tiling: 3*8*N*L — ~2.4x more than 10NL.
        let xbar = network_words(&f1, N, l, true);
        assert_eq!(xbar, 24 * (N as u64) * l as u64);
        assert!((xbar as f64 / network_words(&cl, N, l, true) as f64 - 2.4).abs() < 0.01);
    }

    #[test]
    fn lowered_rotation_includes_automorphism_and_keyswitch() {
        let cl = ArchConfig::craterlake();
        let op = lower_node(
            &cl,
            N,
            &cl_isa::HeOp::Rotate(cl_isa::NodeId(0), 5),
            40,
            KsAlgorithm::Boosted(1),
        );
        let LoweredOp::One(op) = op else {
            panic!("rotation must lower to work")
        };
        assert!(op.passes(FuKind::Automorphism) > 0);
        assert!(op.passes(FuKind::Ntt) > 0);
        assert!(op.net_words > 0);
    }

    #[test]
    fn chained_rf_words_round_up_exactly() {
        // One pass at N=64K: raw = 196608 words, and 196608 / 3.5 =
        // 56173.714..., so the chained count must round UP to 56174. The
        // old float path truncated to 56173, undercounting traffic.
        assert_eq!(rf_words_for_passes(N, 1, true), 56174);
        // Unchained traffic is untouched.
        assert_eq!(rf_words_for_passes(N, 1, false), 196_608);
        // Exact multiples of the 2/7 ratio stay exact (no over-rounding).
        assert_eq!(rf_words_for_passes(7, 1, true), 6);
        // Ceiling, never floor, across a sweep of pass counts.
        for passes in 1..64u64 {
            let raw = 3 * N as u64 * passes;
            let got = rf_words_for_passes(N, passes, true);
            assert!(7 * got >= 2 * raw, "passes={passes}: rounded down");
            assert!(7 * got < 2 * raw + 7, "passes={passes}: rounded too far up");
        }
    }

    #[test]
    fn chaining_reduces_rf_traffic() {
        let mut unchained = ArchConfig::craterlake();
        unchained.chaining = false;
        let chained = ArchConfig::craterlake();
        let a = keyswitch_macro_ops(&chained, N, 40, KsAlgorithm::Boosted(2));
        let b = keyswitch_macro_ops(&unchained, N, 40, KsAlgorithm::Boosted(2));
        let ratio = b.rf_words as f64 / a.rf_words as f64;
        assert!((CHAINING_RF_FACTOR - 0.01..CHAINING_RF_FACTOR + 0.01).contains(&ratio));
    }

    #[test]
    fn inputs_and_outputs_lower_to_nothing() {
        let cl = ArchConfig::craterlake();
        assert!(matches!(
            lower_node(&cl, N, &cl_isa::HeOp::Input, 10, KsAlgorithm::Boosted(1)),
            LoweredOp::None
        ));
        assert!(matches!(
            lower_node(
                &cl,
                N,
                &cl_isa::HeOp::Output(cl_isa::NodeId(0)),
                10,
                KsAlgorithm::Boosted(1)
            ),
            LoweredOp::None
        ));
    }
}
