//! Runnable workload generators: graphs with concrete plaintext values.
//!
//! The benchmark generators in the sibling modules model the paper's
//! workloads for the *machine model* — their `PlainInput` nodes carry no
//! data. The generators here additionally bind every plaintext operand to
//! deterministic values, so the graph can be compiled by
//! `cl-compiler::lower_to_program` and executed for real through the
//! pipeline executor at small-to-medium ring degrees (N = 8K–16K runs in
//! seconds; the test suite uses toy rings).
//!
//! [`eval_plain`] is the unencrypted reference: it evaluates the same
//! graph over plain slot vectors (rotation = cyclic left shift, rescale =
//! identity), giving the expected decryption up to CKKS noise.

use std::collections::BTreeMap;

use cl_isa::{HeGraph, HeOp, NodeId};

/// A workload graph plus everything needed to actually run it: plaintext
/// bindings for every weight and the packing geometry they were generated
/// for.
#[derive(Debug, Clone)]
pub struct RunnableWorkload {
    /// Display name.
    pub name: &'static str,
    /// The dataflow graph (exactly one `Output`).
    pub graph: HeGraph,
    /// Concrete values for each `PlainInput` node.
    pub plain: BTreeMap<NodeId, Vec<f64>>,
    /// Encrypted `Input` nodes in binding order.
    pub inputs: Vec<NodeId>,
    /// Level the encrypted inputs must be encrypted at.
    pub input_level: usize,
    /// Slot count the plaintext vectors are packed for.
    pub slots: usize,
}

/// Deterministic weight diagonal `d` of layer `layer`: small values in
/// `[-0.5, 0.45]`, different per layer, diagonal and slot.
fn diagonal_weights(slots: usize, layer: usize, d: usize) -> Vec<f64> {
    (0..slots)
        .map(|k| ((layer * 13 + d * 31 + k * 7) % 20) as f64 / 20.0 - 0.5)
        .collect()
}

/// One dense layer of a [`lola_mlp_runnable`] network.
#[derive(Debug, Clone, Copy)]
pub struct DenseLayer {
    /// Nonzero diagonals of the weight matrix.
    pub diags: usize,
    /// Rotation stride between consecutive diagonals.
    pub stride: i64,
    /// Whether the LoLa square activation follows the mat-vec.
    pub activate: bool,
}

/// One LoLa-MNIST layer with real weights: [`lola_mlp_runnable`] with a
/// single layer. Consumes one level (two with `activate`).
///
/// # Panics
///
/// Panics if `diags == 0`, if `level < 2` (`< 3` with `activate`), or if
/// `slots` is zero.
pub fn lola_layer_runnable(
    slots: usize,
    level: usize,
    diags: usize,
    stride: i64,
    activate: bool,
) -> RunnableWorkload {
    let layer = DenseLayer {
        diags,
        stride,
        activate,
    };
    RunnableWorkload {
        name: "LoLa-MNIST layer (runnable)",
        ..lola_mlp_runnable(slots, level, &[layer])
    }
}

/// A LoLa-MNIST-shaped multi-layer perceptron with real weights. Each
/// layer is a BSGS (baby-step/giant-step) diagonal matrix-vector product
/// over `diags` diagonals at `stride`, rescaled once, optionally followed
/// by the LoLa square activation (`mul_ct(y, y)` + rescale).
///
/// A layer's baby rotations all rotate the layer input, so the lowering's
/// hoisting pass turns them into a single decompose-once batch; the giant
/// rotations act on distinct partial sums and stay singletons. Each layer
/// consumes one level (two with `activate`).
///
/// # Panics
///
/// Panics if a layer has no diagonals, if `slots` is zero, or if
/// `input_level` does not leave every rescale a level to drop.
pub fn lola_mlp_runnable(
    slots: usize,
    input_level: usize,
    layers: &[DenseLayer],
) -> RunnableWorkload {
    assert!(slots > 0, "need at least one slot");
    let consumed: usize = layers.iter().map(|l| 1 + usize::from(l.activate)).sum();
    assert!(
        input_level > consumed,
        "not enough levels for the network's rescales"
    );
    let mut g = HeGraph::new();
    let mut plain = BTreeMap::new();
    let x = g.input(input_level);
    let (mut cur, mut level) = (x, input_level);
    for (li, layer) in layers.iter().enumerate() {
        let DenseLayer {
            diags,
            stride,
            activate,
        } = *layer;
        assert!(diags > 0, "matrix with no diagonals");
        let baby = (diags as f64).sqrt().ceil() as usize;
        let giant = diags.div_ceil(baby);
        let mut babies = vec![cur];
        for i in 1..baby {
            babies.push(g.rotate(cur, stride * i as i64));
        }
        let mut acc: Option<NodeId> = None;
        let mut d = 0usize;
        for j in 0..giant {
            let remaining = diags - j * baby;
            let mut inner: Option<NodeId> = None;
            for &b in babies.iter().take(remaining.min(baby)) {
                let w = g.plain_input(level);
                plain.insert(w, diagonal_weights(slots, li, d));
                d += 1;
                let term = g.mul_plain(b, w);
                inner = Some(match inner {
                    None => term,
                    Some(a) => g.add(a, term),
                });
            }
            let inner = inner.expect("giant step with no work");
            let rotated = if j == 0 {
                inner
            } else {
                g.rotate(inner, stride * (j * baby) as i64)
            };
            acc = Some(match acc {
                None => rotated,
                Some(a) => g.add(a, rotated),
            });
        }
        cur = g.rescale(acc.expect("empty matvec"));
        level -= 1;
        if activate {
            let sq = g.mul_ct(cur, cur);
            cur = g.rescale(sq);
            level -= 1;
        }
    }
    g.output(cur);
    RunnableWorkload {
        name: "LoLa-MNIST MLP (runnable)",
        graph: g,
        plain,
        inputs: vec![x],
        input_level,
        slots,
    }
}

/// Evaluates the workload's graph over unencrypted slot vectors — the
/// reference result the homomorphic run must approximate. `inputs` binds
/// the graph's `Input` nodes in [`RunnableWorkload::inputs`] order; each
/// vector must have `slots` entries.
///
/// Rotation is a cyclic left shift (slot `i` takes slot `i + step`),
/// conjugation is the identity on real vectors, and rescale/mod-switch
/// are scale bookkeeping with no plain-domain effect.
///
/// # Panics
///
/// Panics on missing bindings or a graph using `ModRaise` (not part of
/// runnable workloads).
pub fn eval_plain(w: &RunnableWorkload, inputs: &[Vec<f64>]) -> Vec<f64> {
    assert_eq!(inputs.len(), w.inputs.len(), "one vector per Input node");
    let slots = w.slots;
    let mut vals: Vec<Vec<f64>> = Vec::with_capacity(w.graph.num_nodes());
    let mut next_input = 0usize;
    let mut out: Option<Vec<f64>> = None;
    let zip = |a: &[f64], b: &[f64], f: fn(f64, f64) -> f64| -> Vec<f64> {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    };
    for (_, node) in w.graph.iter() {
        let v = match node.op {
            HeOp::Input => {
                let v = inputs[next_input].clone();
                assert_eq!(v.len(), slots, "input packed for {slots} slots");
                next_input += 1;
                v
            }
            HeOp::PlainInput => vec![0.0; slots], // read via its consumer
            HeOp::Add(a, b) => zip(&vals[a.0 as usize], &vals[b.0 as usize], |x, y| x + y),
            HeOp::Sub(a, b) => zip(&vals[a.0 as usize], &vals[b.0 as usize], |x, y| x - y),
            HeOp::MulCt(a, b) => zip(&vals[a.0 as usize], &vals[b.0 as usize], |x, y| x * y),
            HeOp::AddPlain(a, p) => {
                let pv = w.plain.get(&p).expect("plaintext binding");
                zip(&vals[a.0 as usize], pv, |x, y| x + y)
            }
            HeOp::MulPlain(a, p) => {
                let pv = w.plain.get(&p).expect("plaintext binding");
                zip(&vals[a.0 as usize], pv, |x, y| x * y)
            }
            HeOp::Rotate(a, s) => {
                let src = &vals[a.0 as usize];
                let step = s.rem_euclid(slots as i64) as usize;
                (0..slots).map(|i| src[(i + step) % slots]).collect()
            }
            HeOp::Conjugate(a)
            | HeOp::Rescale(a)
            | HeOp::ModDrop(a, _)
            | HeOp::Output(a) => vals[a.0 as usize].clone(),
            HeOp::ModRaise(..) => panic!("runnable workloads do not mod-raise"),
        };
        if matches!(node.op, HeOp::Output(_)) {
            out = Some(v.clone());
        }
        vals.push(v);
    }
    out.expect("graph has an Output node")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_graph_shape_matches_bsgs() {
        let w = lola_layer_runnable(32, 4, 9, 1, true);
        w.graph.validate();
        let h = w.graph.op_histogram();
        // baby = 3: two baby rotations; giant = 3: two giant rotations.
        assert_eq!(h.rotations, 4);
        assert_eq!(h.plain_muls, 9);
        assert_eq!(h.ct_muls, 1); // the square activation
        assert_eq!(h.rescales, 2);
        assert_eq!(h.outputs, 1);
        assert_eq!(w.plain.len(), 9);
        // Output level: input 4, matvec rescale -> 3, activation -> 2.
        let out_level = w
            .graph
            .iter()
            .find_map(|(_, n)| match n.op {
                HeOp::Output(a) => Some(w.graph.node(a).level),
                _ => None,
            })
            .expect("output");
        assert_eq!(out_level, 2);
    }

    #[test]
    fn mlp_chains_layers_and_spends_one_level_per_rescale() {
        let layer = |diags, stride, activate| DenseLayer {
            diags,
            stride,
            activate,
        };
        let layers = [layer(9, 1, true), layer(16, 2, true), layer(4, 4, false)];
        let w = lola_mlp_runnable(128, 6, &layers);
        w.graph.validate();
        let h = w.graph.op_histogram();
        // Baby + giant rotations per layer: 2+2, 3+3, 1+1.
        assert_eq!(h.rotations, 12);
        assert_eq!(h.plain_muls, 9 + 16 + 4);
        assert_eq!(h.ct_muls, 2);
        assert_eq!(h.rescales, 5);
        assert_eq!(w.plain.len(), 29);
        assert_eq!(w.input_level, 6);
        let out = w.graph.iter().find_map(|(_, n)| match n.op {
            HeOp::Output(a) => Some(w.graph.node(a).level),
            _ => None,
        });
        assert_eq!(out, Some(1));
    }

    #[test]
    fn plain_reference_matches_direct_diagonal_arithmetic() {
        // diags = 1, stride = 1, no activation: y = w0 ⊙ x, so the
        // reference must equal the elementwise product exactly.
        let w = lola_layer_runnable(8, 2, 1, 1, false);
        let x: Vec<f64> = (0..8).map(|i| i as f64 * 0.25).collect();
        let got = eval_plain(&w, &[x.clone()]);
        let w0 = diagonal_weights(8, 0, 0);
        for i in 0..8 {
            assert!((got[i] - x[i] * w0[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn plain_reference_rotation_is_a_left_shift() {
        // diags = 2, stride = 1: y = w0 ⊙ x + w1 ⊙ rot1(x).
        let w = lola_layer_runnable(4, 2, 2, 1, false);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let got = eval_plain(&w, &[x.clone()]);
        let (w0, w1) = (diagonal_weights(4, 0, 0), diagonal_weights(4, 0, 1));
        for i in 0..4 {
            let expect = w0[i] * x[i] + w1[i] * x[(i + 1) % 4];
            assert!((got[i] - expect).abs() < 1e-12, "slot {i}");
        }
    }

    #[test]
    fn weights_are_deterministic() {
        let a = lola_layer_runnable(16, 3, 4, 2, false);
        let b = lola_layer_runnable(16, 3, 4, 2, false);
        assert_eq!(a.plain, b.plain);
        assert_eq!(a.graph.num_nodes(), b.graph.num_nodes());
    }
}
