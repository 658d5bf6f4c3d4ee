//! The homomorphic-operation dataflow graph.
//!
//! FHE permits no data-dependent branching (Sec. 2.1), so an FHE program is
//! a static dataflow graph of homomorphic operations. This is the form in
//! which benchmarks are generated (`cl-apps`) and handed to the compiler.

/// Index of a node within an [`HeGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Phase attribution for statistics: is a node useful application work or
/// part of a bootstrapping sequence? (Fig. 3's blue/red split.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// Application computation.
    #[default]
    App,
    /// Bootstrapping computation.
    Bootstrap,
}

/// A homomorphic operation (Sec. 2.1-2.2). Operands are earlier nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum HeOp {
    /// A fresh encrypted input streamed from the host.
    Input,
    /// An unencrypted operand (e.g. unencrypted weights): a plaintext that
    /// is fetched from memory but is half the size of a ciphertext.
    PlainInput,
    /// Element-wise addition of two ciphertexts.
    Add(NodeId, NodeId),
    /// Element-wise subtraction.
    Sub(NodeId, NodeId),
    /// Ciphertext + plaintext.
    AddPlain(NodeId, NodeId),
    /// Ciphertext x plaintext (no keyswitch needed).
    MulPlain(NodeId, NodeId),
    /// Ciphertext x ciphertext (tensor + relinearization keyswitch).
    MulCt(NodeId, NodeId),
    /// Slot rotation by the given amount (automorphism + keyswitch).
    Rotate(NodeId, i64),
    /// Complex conjugation of the slots (automorphism + keyswitch).
    Conjugate(NodeId),
    /// Rescale: divide by the top modulus, dropping one level.
    Rescale(NodeId),
    /// Drop to the given level without dividing (modulus switch).
    ModDrop(NodeId, usize),
    /// Raise to the given level (the base extension that begins
    /// bootstrapping: reinterpret a low-level ciphertext over a larger
    /// modulus).
    ModRaise(NodeId, usize),
    /// Marks a value as a program output (streamed back to the host).
    Output(NodeId),
}

impl HeOp {
    /// Operand node ids of this op.
    pub fn operands(&self) -> Vec<NodeId> {
        match *self {
            HeOp::Input | HeOp::PlainInput => vec![],
            HeOp::Add(a, b) | HeOp::Sub(a, b) | HeOp::AddPlain(a, b) | HeOp::MulPlain(a, b)
            | HeOp::MulCt(a, b) => vec![a, b],
            HeOp::Rotate(a, _)
            | HeOp::Conjugate(a)
            | HeOp::Rescale(a)
            | HeOp::ModDrop(a, _)
            | HeOp::ModRaise(a, _)
            | HeOp::Output(a) => vec![a],
        }
    }
}

/// A node: an operation plus the level it executes at and its phase tag.
#[derive(Debug, Clone, PartialEq)]
pub struct HeNode {
    /// The operation.
    pub op: HeOp,
    /// Multiplicative budget (RNS limb count) of this node's output.
    pub level: usize,
    /// Statistics attribution.
    pub phase: Phase,
}

/// A static dataflow graph of homomorphic operations, stored in topological
/// order (operands always precede users).
///
/// # Example
///
/// ```
/// use cl_isa::HeGraph;
/// let mut g = HeGraph::new();
/// let x = g.input(3);
/// let y = g.input(3);
/// let p = g.mul_ct(x, y);
/// let r = g.rescale(p);
/// g.output(r);
/// assert_eq!(g.num_nodes(), 5);
/// assert_eq!(g.node(r).level, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HeGraph {
    nodes: Vec<HeNode>,
    phase: Phase,
    plain_cache: std::collections::HashMap<(u64, usize), NodeId>,
}

impl HeGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &HeNode {
        &self.nodes[id.0 as usize]
    }

    /// Iterate over `(id, node)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &HeNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Sets the phase tag applied to subsequently added nodes.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn push(&mut self, op: HeOp, level: usize) -> NodeId {
        assert!(level >= 1, "levels start at 1");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(HeNode {
            op,
            level,
            phase: self.phase,
        });
        id
    }

    fn level_of(&self, id: NodeId) -> usize {
        self.node(id).level
    }

    fn check_same_level(&self, a: NodeId, b: NodeId) -> usize {
        let (la, lb) = (self.level_of(a), self.level_of(b));
        assert_eq!(la, lb, "operand level mismatch ({la} vs {lb}); insert mod_drop");
        la
    }

    /// Adds an encrypted input at the given level.
    pub fn input(&mut self, level: usize) -> NodeId {
        self.push(HeOp::Input, level)
    }

    /// Adds an unencrypted (plaintext) operand at the given level.
    pub fn plain_input(&mut self, level: usize) -> NodeId {
        self.push(HeOp::PlainInput, level)
    }

    /// Adds — or reuses — a plaintext operand identified by `key` at the
    /// given level. Weight matrices, bootstrapping DFT diagonals and
    /// polynomial coefficients are constants shared across uses; modeling
    /// them as one value per `(key, level)` lets the machine's residency
    /// model capture their reuse (a reused weight is fetched once, not per
    /// use).
    pub fn plain_input_cached(&mut self, key: u64, level: usize) -> NodeId {
        if let Some(&id) = self.plain_cache.get(&(key, level)) {
            return id;
        }
        let id = self.push(HeOp::PlainInput, level);
        self.plain_cache.insert((key, level), id);
        id
    }

    /// Adds two ciphertexts.
    ///
    /// # Panics
    ///
    /// Panics if operand levels differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let l = self.check_same_level(a, b);
        self.push(HeOp::Add(a, b), l)
    }

    /// Subtracts ciphertexts.
    ///
    /// # Panics
    ///
    /// Panics if operand levels differ.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let l = self.check_same_level(a, b);
        self.push(HeOp::Sub(a, b), l)
    }

    /// Ciphertext + plaintext.
    ///
    /// # Panics
    ///
    /// Panics if operand levels differ.
    pub fn add_plain(&mut self, a: NodeId, p: NodeId) -> NodeId {
        let l = self.check_same_level(a, p);
        self.push(HeOp::AddPlain(a, p), l)
    }

    /// Ciphertext x plaintext.
    ///
    /// # Panics
    ///
    /// Panics if operand levels differ.
    pub fn mul_plain(&mut self, a: NodeId, p: NodeId) -> NodeId {
        let l = self.check_same_level(a, p);
        self.push(HeOp::MulPlain(a, p), l)
    }

    /// Ciphertext x ciphertext (with relinearization).
    ///
    /// # Panics
    ///
    /// Panics if operand levels differ.
    pub fn mul_ct(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let l = self.check_same_level(a, b);
        self.push(HeOp::MulCt(a, b), l)
    }

    /// Rotates slots by `steps`.
    pub fn rotate(&mut self, a: NodeId, steps: i64) -> NodeId {
        let l = self.level_of(a);
        self.push(HeOp::Rotate(a, steps), l)
    }

    /// Conjugates slots.
    pub fn conjugate(&mut self, a: NodeId) -> NodeId {
        let l = self.level_of(a);
        self.push(HeOp::Conjugate(a), l)
    }

    /// Rescales (drops one level).
    ///
    /// # Panics
    ///
    /// Panics at level 1 (no level left to drop).
    pub fn rescale(&mut self, a: NodeId) -> NodeId {
        let l = self.level_of(a);
        assert!(l >= 2, "cannot rescale at level 1");
        self.push(HeOp::Rescale(a), l - 1)
    }

    /// Drops `a` to `level` (no-op allowed).
    ///
    /// # Panics
    ///
    /// Panics if `level` is above the operand's level or zero.
    pub fn mod_drop(&mut self, a: NodeId, level: usize) -> NodeId {
        let l = self.level_of(a);
        assert!((1..=l).contains(&level), "bad mod_drop target");
        if level == l {
            return a;
        }
        self.push(HeOp::ModDrop(a, level), level)
    }

    /// Raises `a` to a higher level (bootstrapping's ModRaise).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not above the operand's level.
    pub fn mod_raise(&mut self, a: NodeId, level: usize) -> NodeId {
        let l = self.level_of(a);
        assert!(level > l, "mod_raise target must exceed current level");
        self.push(HeOp::ModRaise(a, level), level)
    }

    /// Marks a node as an output.
    pub fn output(&mut self, a: NodeId) -> NodeId {
        let l = self.level_of(a);
        self.push(HeOp::Output(a), l)
    }

    /// The baby-step/giant-step (BSGS) linear transform over `diags`
    /// diagonals at `stride`, unrescaled:
    /// `Σ_j rot_{stride·baby·j}(Σ_i term(rot_{stride·i}(input), j·baby + i))`.
    /// `term(graph, baby_node, diagonal)` emits one diagonal's product (a
    /// plaintext or ciphertext multiply) and returns it.
    ///
    /// Emission order: the baby rotations `i = 1..baby`; then per giant
    /// group `j` its `min(baby, diags − j·baby)` terms, left-folded with
    /// [`HeGraph::add`], and its giant rotation (none at `j = 0`),
    /// left-folded into the sum. Every rotation amount is `stride·i` or
    /// `stride·baby·j`, so repeated transforms of the same geometry reuse
    /// the same keyswitch hints. Pick `baby` with
    /// [`crate::cost::bsgs_baby_steps`].
    ///
    /// # Panics
    ///
    /// Panics if `diags == 0` or `baby == 0`.
    pub fn bsgs_sum(
        &mut self,
        input: NodeId,
        diags: usize,
        stride: i64,
        baby: usize,
        mut term: impl FnMut(&mut HeGraph, NodeId, usize) -> NodeId,
    ) -> NodeId {
        assert!(diags > 0, "matrix with no diagonals");
        assert!(baby > 0, "BSGS needs at least one baby step");
        let babies: Vec<NodeId> = std::iter::once(input)
            .chain((1..baby).map(|i| self.rotate(input, stride * i as i64)))
            .collect();
        let mut acc: Option<NodeId> = None;
        for j in 0..diags.div_ceil(baby) {
            let mut inner: Option<NodeId> = None;
            for (i, &b) in babies.iter().enumerate().take(diags - j * baby) {
                let t = term(self, b, j * baby + i);
                inner = Some(inner.map_or(t, |s| self.add(s, t)));
            }
            let inner = inner.expect("a giant group has at least one diagonal");
            let rotated = if j == 0 {
                inner
            } else {
                self.rotate(inner, stride * (j * baby) as i64)
            };
            acc = Some(acc.map_or(rotated, |a| self.add(a, rotated)));
        }
        acc.expect("at least one giant group")
    }

    /// Counts of each op category (inputs, muls, rotates, ...), useful for
    /// sanity checks and reports.
    pub fn op_histogram(&self) -> OpHistogram {
        let mut h = OpHistogram::default();
        for n in &self.nodes {
            match n.op {
                HeOp::Input => h.inputs += 1,
                HeOp::PlainInput => h.plain_inputs += 1,
                HeOp::Add(..) | HeOp::Sub(..) | HeOp::AddPlain(..) => h.adds += 1,
                HeOp::MulPlain(..) => h.plain_muls += 1,
                HeOp::MulCt(..) => h.ct_muls += 1,
                HeOp::Rotate(..) | HeOp::Conjugate(..) => h.rotations += 1,
                HeOp::Rescale(..) => h.rescales += 1,
                HeOp::ModDrop(..) => h.mod_drops += 1,
                HeOp::ModRaise(..) => h.mod_raises += 1,
                HeOp::Output(..) => h.outputs += 1,
            }
        }
        h
    }

    /// Validates structural invariants: topological operand order, operand
    /// level consistency, level bounds. Returns the number of nodes checked.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant (these are programming errors
    /// in graph generators, not recoverable conditions).
    pub fn validate(&self) -> usize {
        for (i, n) in self.nodes.iter().enumerate() {
            for op in n.op.operands() {
                assert!(
                    (op.0 as usize) < i,
                    "node {i} uses later node {}: not topological",
                    op.0
                );
            }
            match n.op {
                HeOp::Rescale(a) => {
                    assert_eq!(self.level_of(a), n.level + 1, "rescale level bookkeeping")
                }
                HeOp::ModDrop(a, l) => {
                    assert!(self.level_of(a) > l && n.level == l, "mod_drop bookkeeping")
                }
                HeOp::Add(a, b) | HeOp::Sub(a, b) | HeOp::MulCt(a, b) => {
                    assert_eq!(self.level_of(a), self.level_of(b));
                    assert_eq!(n.level, self.level_of(a));
                }
                _ => {}
            }
        }
        self.nodes.len()
    }

    /// Maximum level any node executes at.
    pub fn max_level(&self) -> usize {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Appends all nodes of `other`, remapping its ids; returns the mapping
    /// of `other`'s ids into this graph.
    pub fn append(&mut self, other: &HeGraph) -> Vec<NodeId> {
        let offset = self.nodes.len() as u32;
        let mut mapping = Vec::with_capacity(other.nodes.len());
        for n in &other.nodes {
            let mut remapped = n.clone();
            remapped.op = remap_op(&n.op, offset);
            mapping.push(NodeId(self.nodes.len() as u32));
            self.nodes.push(remapped);
        }
        mapping
    }
}

fn remap_op(op: &HeOp, offset: u32) -> HeOp {
    let f = |id: NodeId| NodeId(id.0 + offset);
    match *op {
        HeOp::Input => HeOp::Input,
        HeOp::PlainInput => HeOp::PlainInput,
        HeOp::Add(a, b) => HeOp::Add(f(a), f(b)),
        HeOp::Sub(a, b) => HeOp::Sub(f(a), f(b)),
        HeOp::AddPlain(a, b) => HeOp::AddPlain(f(a), f(b)),
        HeOp::MulPlain(a, b) => HeOp::MulPlain(f(a), f(b)),
        HeOp::MulCt(a, b) => HeOp::MulCt(f(a), f(b)),
        HeOp::Rotate(a, s) => HeOp::Rotate(f(a), s),
        HeOp::Conjugate(a) => HeOp::Conjugate(f(a)),
        HeOp::Rescale(a) => HeOp::Rescale(f(a)),
        HeOp::ModDrop(a, l) => HeOp::ModDrop(f(a), l),
        HeOp::ModRaise(a, l) => HeOp::ModRaise(f(a), l),
        HeOp::Output(a) => HeOp::Output(f(a)),
    }
}

/// Per-category node counts. See [`HeGraph::op_histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpHistogram {
    /// Encrypted inputs.
    pub inputs: usize,
    /// Plaintext inputs.
    pub plain_inputs: usize,
    /// Additions and subtractions.
    pub adds: usize,
    /// Plaintext multiplications.
    pub plain_muls: usize,
    /// Ciphertext multiplications.
    pub ct_muls: usize,
    /// Rotations and conjugations.
    pub rotations: usize,
    /// Rescales.
    pub rescales: usize,
    /// Modulus drops.
    pub mod_drops: usize,
    /// Modulus raises (bootstrapping starts).
    pub mod_raises: usize,
    /// Outputs.
    pub outputs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> HeGraph {
        let mut g = HeGraph::new();
        let x = g.input(3);
        let w = g.plain_input(3);
        let xw = g.mul_plain(x, w);
        let r = g.rescale(xw);
        let rot = g.rotate(r, 4);
        let s = g.add(r, rot);
        g.output(s);
        g
    }

    #[test]
    fn builder_levels_and_histogram() {
        let g = small_graph();
        g.validate();
        assert_eq!(g.max_level(), 3);
        let h = g.op_histogram();
        assert_eq!(h.inputs, 1);
        assert_eq!(h.plain_inputs, 1);
        assert_eq!(h.plain_muls, 1);
        assert_eq!(h.rescales, 1);
        assert_eq!(h.rotations, 1);
        assert_eq!(h.adds, 1);
        assert_eq!(h.outputs, 1);
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn mixing_levels_panics() {
        let mut g = HeGraph::new();
        let a = g.input(3);
        let b = g.input(2);
        g.add(a, b);
    }

    #[test]
    fn mod_drop_aligns_levels() {
        let mut g = HeGraph::new();
        let a = g.input(3);
        let b = g.input(2);
        let a2 = g.mod_drop(a, 2);
        let s = g.add(a2, b);
        assert_eq!(g.node(s).level, 2);
        g.validate();
    }

    #[test]
    fn mod_drop_same_level_is_identity() {
        let mut g = HeGraph::new();
        let a = g.input(3);
        assert_eq!(g.mod_drop(a, 3), a);
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn phases_tag_nodes() {
        let mut g = HeGraph::new();
        let a = g.input(2);
        g.set_phase(Phase::Bootstrap);
        let b = g.rotate(a, 1);
        assert_eq!(g.node(a).phase, Phase::App);
        assert_eq!(g.node(b).phase, Phase::Bootstrap);
    }

    #[test]
    fn append_remaps_ids() {
        let mut g = small_graph();
        let sub = small_graph();
        let before = g.num_nodes();
        let mapping = g.append(&sub);
        assert_eq!(g.num_nodes(), before + sub.num_nodes());
        g.validate();
        // The appended input maps to an Input node at the right offset.
        assert!(matches!(g.node(mapping[0]).op, HeOp::Input));
    }

    #[test]
    fn bsgs_sum_covers_every_diagonal_including_a_short_last_group() {
        use crate::cost::bsgs_baby_steps;
        for diags in 1..=40usize {
            for stride in [1i64, 3, -2] {
                for baby in [
                    bsgs_baby_steps(diags, usize::MAX),
                    bsgs_baby_steps(diags, 2),
                ] {
                    let giants = (0..diags).step_by(baby).count();
                    let mut g = HeGraph::new();
                    let x = g.input(3);
                    let mut seen = Vec::new();
                    let out = g.bsgs_sum(x, diags, stride, baby, |g, b, d| {
                        // Diagonal d multiplies baby d mod baby.
                        let want = (d % baby) as i64 * stride;
                        match g.node(b).op {
                            HeOp::Rotate(src, s) => assert_eq!((src, s), (x, want)),
                            _ => assert_eq!((b, want), (x, 0)),
                        }
                        seen.push(d);
                        let w = g.plain_input(3);
                        g.mul_plain(b, w)
                    });
                    g.validate();
                    let ctx = format!("diags {diags} stride {stride} baby {baby}");
                    assert_eq!(seen, (0..diags).collect::<Vec<_>>(), "{ctx}");
                    let h = g.op_histogram();
                    assert_eq!(h.rotations, baby - 1 + giants - 1, "{ctx}");
                    assert_eq!(h.plain_muls, diags, "{ctx}");
                    assert_eq!(h.adds, diags - 1, "{ctx}");
                    // Each value as the multiset of input rotations it sums
                    // (unit weights): the output is Σ_d rot_{stride·d}(x).
                    let mut terms: Vec<Vec<i64>> = Vec::new();
                    for (_, n) in g.iter() {
                        let t = match n.op {
                            HeOp::Input => vec![0],
                            HeOp::Rotate(a, s) => {
                                let (amount, baby, giants) =
                                    (s / stride, baby as i64, giants as i64);
                                let baby_step = (1..baby).contains(&amount);
                                let giant_step =
                                    amount % baby == 0 && (1..giants).contains(&(amount / baby));
                                assert!(
                                    amount * stride == s && (baby_step || giant_step),
                                    "{ctx}: rotation by {s}"
                                );
                                terms[a.0 as usize].iter().map(|r| r + s).collect()
                            }
                            HeOp::MulPlain(a, _) => terms[a.0 as usize].clone(),
                            HeOp::Add(a, b) => {
                                [terms[a.0 as usize].clone(), terms[b.0 as usize].clone()].concat()
                            }
                            _ => Vec::new(),
                        };
                        terms.push(t);
                    }
                    let mut got = terms[out.0 as usize].clone();
                    got.sort_unstable_by_key(|r| r / stride);
                    let want: Vec<i64> = (0..diags as i64).map(|d| stride * d).collect();
                    assert_eq!(got, want, "{ctx}");
                }
            }
        }
    }
}
