//! Shared homomorphic kernels the benchmarks are built from.

use cl_isa::cost::{bsgs_baby_steps, onchip_baby_cap};
use cl_isa::{HeGraph, NodeId};

/// BSGS (baby-step/giant-step) matrix-vector product with `diags` nonzero
/// diagonals at stride `stride`: the standard kernel for linear layers
/// under CKKS packing, emitted by [`HeGraph::bsgs_sum`]. Consumes one level
/// (the plaintext multiply + rescale).
///
/// Rotation amounts are `stride·i` (baby) and `stride·baby·j` (giant), so
/// repeated invocations with the same geometry reuse all keyswitch hints.
///
/// # Panics
///
/// Panics if `diags == 0` or the input is at level 1 (no level to consume).
pub fn bsgs_matvec(
    g: &mut HeGraph,
    input: NodeId,
    diags: usize,
    stride: i64,
    weights_encrypted: bool,
) -> NodeId {
    bsgs_matvec_keyed(g, input, diags, stride, weights_encrypted, g.num_nodes() as u64)
}

/// Like [`bsgs_matvec`], but weight plaintexts are identified by
/// `weight_key`: invocations sharing the key (the same weight matrix, as in
/// an LSTM's recurrent weights or a repeated bootstrap matrix) share the
/// same plaintext values, so the machine's residency model sees their
/// reuse.
///
/// The baby steps are capped by [`onchip_baby_cap`] at `N = 2^16`
/// whatever the benchmark's ring.
///
/// # Panics
///
/// Panics if `diags == 0` or the input is at level 1.
pub fn bsgs_matvec_keyed(
    g: &mut HeGraph,
    input: NodeId,
    diags: usize,
    stride: i64,
    weights_encrypted: bool,
    weight_key: u64,
) -> NodeId {
    let level = g.node(input).level;
    assert!(level >= 2, "bsgs_matvec needs a level to consume");
    let baby = bsgs_baby_steps(diags, onchip_baby_cap(1 << 16, level));
    let sum = g.bsgs_sum(input, diags, stride, baby, |g, b, d| {
        if weights_encrypted {
            let w = g.input(level);
            g.mul_ct(b, w)
        } else {
            let w = g.plain_input_cached(weight_key.wrapping_mul(1_000_003) + d as u64, level);
            g.mul_plain(b, w)
        }
    });
    g.rescale(sum)
}

/// Evaluates a polynomial of multiplicative `depth` on a ciphertext by
/// repeated squaring and plaintext-coefficient folds — the structure of
/// CKKS activation-function approximations (e.g. the degree-3 sigmoid of
/// the LSTM benchmark at depth 2, or ResNet's composite ReLU
/// approximations at depth ~6). Consumes `depth` levels and performs
/// `depth` ciphertext multiplications.
///
/// # Panics
///
/// Panics if the input has fewer than `depth + 1` levels.
pub fn poly_eval(g: &mut HeGraph, input: NodeId, depth: usize) -> NodeId {
    let level = g.node(input).level;
    assert!(level > depth, "polynomial depth {depth} needs > {depth} levels");
    let mut cur = input;
    for step in 0..depth {
        let c = g.plain_input_cached(0xAC71_0000 + step as u64, g.node(cur).level);
        let lin = g.mul_plain(cur, c);
        let sq = g.mul_ct(lin, cur);
        // mul_plain and mul_ct both raise the scale; one rescale drops a
        // level (the compiler charges each op separately anyway).
        cur = g.rescale(sq);
    }
    cur
}

/// Log-depth rotation-and-add reduction over `width` packed elements
/// (sums across slots): `log2(width)` rotations, no level consumed.
///
/// # Panics
///
/// Panics if `width` is not a power of two.
pub fn rotation_reduce(g: &mut HeGraph, input: NodeId, width: usize) -> NodeId {
    assert!(width.is_power_of_two(), "reduction width must be a power of 2");
    let mut cur = input;
    let mut step = width / 2;
    while step >= 1 {
        let r = g.rotate(cur, step as i64);
        cur = g.add(cur, r);
        if step == 1 {
            break;
        }
        step /= 2;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsgs_counts() {
        let mut g = HeGraph::new();
        let x = g.input(10);
        let out = bsgs_matvec(&mut g, x, 16, 1, false);
        assert_eq!(g.node(out).level, 9); // one level consumed
        let h = g.op_histogram();
        // baby = 4 => 3 baby rotations + 3 giant rotations.
        assert_eq!(h.rotations, 6);
        assert_eq!(h.plain_muls, 16);
        assert_eq!(h.plain_inputs, 16);
        g.validate();
    }

    #[test]
    fn bsgs_encrypted_weights_use_ct_muls() {
        let mut g = HeGraph::new();
        let x = g.input(8);
        bsgs_matvec(&mut g, x, 9, 2, true);
        let h = g.op_histogram();
        assert_eq!(h.ct_muls, 9);
        assert_eq!(h.plain_muls, 0);
        g.validate();
    }

    #[test]
    fn poly_eval_consumes_depth_levels() {
        let mut g = HeGraph::new();
        let x = g.input(10);
        let out = poly_eval(&mut g, x, 3);
        assert_eq!(g.node(out).level, 7);
        assert_eq!(g.op_histogram().ct_muls, 3);
        g.validate();
    }

    #[test]
    fn rotation_reduce_is_logarithmic() {
        let mut g = HeGraph::new();
        let x = g.input(5);
        let out = rotation_reduce(&mut g, x, 256);
        assert_eq!(g.op_histogram().rotations, 8);
        assert_eq!(g.node(out).level, 5);
        g.validate();
    }
}
