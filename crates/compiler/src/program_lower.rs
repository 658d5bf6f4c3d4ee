//! Lowering [`HeGraph`]s to executable [`Program`]s (compiler → runtime).
//!
//! [`lower_to_program`] compiles a dataflow graph of homomorphic operations
//! into the pipeline executor's accumulator/slot form:
//!
//! 1. **Canonicalization**: rotation steps are reduced with
//!    [`cl_math::canonical_rotation_step`]; step-0 rotations alias their
//!    source, congruent rotations of the same value are deduplicated, and a
//!    `MulPlain` whose sole consumer is a `Rescale` fuses into one
//!    `MulPlainRescale`.
//! 2. **Hoisting**: two or more distinct rotations of one value become a
//!    single [`PipelineOp::RotateHoisted`] batch, so the executor decomposes
//!    the source once (`try_rotate_hoisted_many`) instead of once per step.
//!    With [`LowerOptions::reorder`] the emission order first runs
//!    [`crate::reuse_order`], which groups rotations sharing a hint.
//! 3. **Codegen**: values move through the executor's single accumulator and
//!    named slots. A live accumulator value is parked (`Store`) before being
//!    overwritten, operands are fetched with `Load`/`Input`, and every slot
//!    is released (`Free`) at its value's last use — Belady's "farthest
//!    next use" collapses to free-at-last-use here because the schedule is
//!    fixed, which makes the residency plan optimal for that order. The
//!    resulting live-ciphertext high-water mark is reported as
//!    [`LoweredProgram::predicted_peak_live`] and can be bounded with
//!    [`LowerOptions::max_live_cts`].
//! 4. **Auto-bootstrap** (opt-in): for linear slot-free programs, a tracked
//!    noise estimate inserts [`PipelineOp::Bootstrap`] before a multiply
//!    whose rescale would land below the configured budget.

use std::collections::{BTreeMap, HashMap};

use cl_isa::{HeGraph, HeOp, NodeId};
use cl_math::canonical_rotation_step;
use cl_runtime::{PipelineOp, Program};

/// Why a graph could not be lowered to a runnable [`Program`].
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// The graph uses an op the pipeline executor cannot run (`ModRaise`
    /// outside a bootstrap sequence, or a raise-style level change).
    Unsupported {
        /// Offending node.
        node: u32,
        /// Human-readable description of the unsupported construct.
        what: &'static str,
    },
    /// The graph must mark exactly one value as its output.
    OutputCount {
        /// Number of `Output` nodes found.
        found: usize,
    },
    /// An `AddPlain`/`MulPlain` consumes a `PlainInput` with no plaintext
    /// vector bound in [`LowerOptions::plain`].
    MissingPlainValues {
        /// The unbound `PlainInput` node.
        node: u32,
    },
    /// A plain op's operand is not a `PlainInput` node (or a ct op's
    /// operand is one). The graph type permits this; the executor does not.
    NotAPlainInput {
        /// Offending node.
        node: u32,
    },
    /// Auto-bootstrap was requested but the graph is not a linear chain:
    /// it needs value slots, and the functional bootstrapper only tracks
    /// the accumulator.
    AutoBootstrapNeedsLinearChain {
        /// First op that required a slot.
        op: &'static str,
    },
    /// The tracked noise estimate demands a bootstrap, but the configured
    /// exit level would not raise the ciphertext (exit ≤ current level).
    NoiseBudgetExhausted {
        /// Level at which the budget ran out.
        level: usize,
    },
    /// The residency plan's predicted live-ciphertext peak exceeds
    /// [`LowerOptions::max_live_cts`].
    ResidencyExceeded {
        /// Predicted high-water mark of live ciphertexts.
        predicted: u64,
        /// The configured bound.
        bound: u64,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::Unsupported { node, what } => {
                write!(f, "node {node}: {what} cannot be lowered to a pipeline op")
            }
            LowerError::OutputCount { found } => {
                write!(f, "graph must have exactly one Output node, found {found}")
            }
            LowerError::MissingPlainValues { node } => {
                write!(f, "no plaintext vector bound for PlainInput node {node}")
            }
            LowerError::NotAPlainInput { node } => {
                write!(f, "node {node}: plain operand is not a PlainInput node")
            }
            LowerError::AutoBootstrapNeedsLinearChain { op } => write!(
                f,
                "auto-bootstrap requires a linear (slot-free) program, but lowering emitted {op}"
            ),
            LowerError::NoiseBudgetExhausted { level } => write!(
                f,
                "noise budget exhausted at level {level} and the bootstrap exit level \
                 would not raise the ciphertext"
            ),
            LowerError::ResidencyExceeded { predicted, bound } => write!(
                f,
                "residency plan predicts {predicted} live ciphertexts, above the bound {bound}"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// Planner-grade noise model driving automatic bootstrap insertion: like
/// every rescale and level drop, bootstraps are fixed at compile time, never
/// by the runtime. Levels and noise-bit estimates are tracked through the lowered chain; a bootstrap
/// is inserted before any multiply whose rescale would leave less than
/// `min_budget_bits` of headroom (or would drop below level 2, where no
/// rescaling modulus remains).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoBootstrap {
    /// RNS limb width in bits (one rescale spends one limb).
    pub limb_bits: u32,
    /// Log2 of the encoding scale.
    pub scale_bits: u32,
    /// Noise estimate (bits) of a fresh or freshly bootstrapped ciphertext.
    pub fresh_noise_bits: f64,
    /// Minimum post-rescale headroom (bits) before a bootstrap is forced.
    pub min_budget_bits: f64,
    /// Level a bootstrap restores the ciphertext to.
    pub exit_level: usize,
}

impl AutoBootstrap {
    /// Headroom (bits) of a ciphertext at `level` with `noise` noise bits:
    /// modulus bits minus the encoded value's scale minus the noise.
    fn headroom(&self, level: usize, noise: f64) -> f64 {
        level as f64 * f64::from(self.limb_bits) - f64::from(self.scale_bits) - noise
    }
}

/// Options controlling [`lower_to_program`].
#[derive(Debug, Clone, Default)]
pub struct LowerOptions {
    /// Slot count of the target context (`params().slots()`): rotation
    /// steps are canonicalized modulo this before deduplication/hoisting.
    pub slots: usize,
    /// Plaintext vectors for the graph's `PlainInput` nodes. Only nodes
    /// consumed by `AddPlain`/`MulPlain` need a binding.
    pub plain: BTreeMap<NodeId, Vec<f64>>,
    /// Run [`crate::reuse_order`] first so rotations sharing a hint become
    /// adjacent (bigger hoisting batches on interleaved graphs).
    pub reorder: bool,
    /// When set, insert [`PipelineOp::Bootstrap`] automatically from the
    /// tracked noise estimate. Only valid for linear slot-free chains.
    pub auto_bootstrap: Option<AutoBootstrap>,
    /// Upper bound on the residency plan's live-ciphertext high-water mark;
    /// lowering fails with [`LowerError::ResidencyExceeded`] beyond it.
    pub max_live_cts: Option<u64>,
}

/// Op counts of a lowered program at the schedule level — the quantities
/// the compiler *promises*, checked against `cl-trace` measurements by the
/// end-to-end tests (one `rotations` unit per hoisted step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleCounts {
    /// Homomorphic rotations and conjugations (hoisted steps counted
    /// individually).
    pub rotations: u64,
    /// Ciphertext-ciphertext multiplies (including squares).
    pub ct_mults: u64,
    /// Plaintext multiplies (fused or not).
    pub pt_mults: u64,
    /// Bootstraps (explicit plus auto-inserted).
    pub bootstraps: u64,
}

/// A compiled graph: the executable program plus the schedule's promises
/// about it.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    /// The runnable pipeline program.
    pub program: Program,
    /// Live-ciphertext high-water mark the residency plan predicts —
    /// replayed with the executor's own accounting (live slots + the
    /// accumulator), so it must equal the measured
    /// `RecoveryTelemetry::peak_live_cts` exactly.
    pub predicted_peak_live: u64,
    /// Distinct canonical rotation steps the program needs keys for.
    pub rotation_steps: Vec<i64>,
    /// Whether the program conjugates (needs the conjugation key).
    pub needs_conjugation: bool,
    /// Graph `Input` nodes in pipeline-input order: the caller binds
    /// ciphertexts to `run_graph` in exactly this order.
    pub input_nodes: Vec<NodeId>,
    /// Schedule-level op counts of the emitted program.
    pub counts: ScheduleCounts,
}

/// What a single emission step computes, with operands resolved through
/// the alias map (dedup/fusion already applied).
enum Emit {
    /// `AddPlain`: accumulator + encoded vector.
    AddPlain { node: NodeId, src: NodeId, plain: NodeId },
    /// `MulPlain`, optionally fused with its sole-consumer `Rescale`.
    MulPlain { node: NodeId, src: NodeId, plain: NodeId, fused_rescale: bool },
    /// Bare `Rescale`.
    Rescale { node: NodeId, src: NodeId },
    /// Explicit level drop.
    ModDrop { node: NodeId, src: NodeId, target: usize },
    /// `MulCt(a, a)`.
    Square { node: NodeId, src: NodeId },
    /// `Add`/`Sub`/`MulCt` with distinct operands.
    Bin { node: NodeId, a: NodeId, b: NodeId, kind: BinKind },
    /// Singleton rotation.
    Rotate { node: NodeId, src: NodeId, step: i64 },
    /// Conjugation.
    Conjugate { node: NodeId, src: NodeId },
    /// Hoisted rotation batch: `members[k]` is `(result node, step)`.
    Hoist { src: NodeId, members: Vec<(NodeId, i64)> },
}

#[derive(Clone, Copy, PartialEq)]
enum BinKind {
    Add,
    Sub,
    MulCt,
}

/// Compiles `graph` into an executable [`Program`].
///
/// The graph must have exactly one `Output` node; its value ends up in the
/// executor's accumulator (the return value of `run_graph`). Encrypted
/// inputs are bound positionally in [`LoweredProgram::input_nodes`] order.
///
/// # Errors
///
/// See [`LowerError`]: unsupported ops (`ModRaise`), missing plaintext
/// bindings, a non-linear graph under auto-bootstrap, an exhausted noise
/// budget, or a residency bound violation.
///
/// # Panics
///
/// Panics if `graph.validate()` would (malformed graphs are generator
/// bugs, not inputs).
pub fn lower_to_program(graph: &HeGraph, opts: &LowerOptions) -> Result<LoweredProgram, LowerError> {
    graph.validate();
    let order: Vec<NodeId> = if opts.reorder {
        crate::reuse_order(graph)
    } else {
        graph.iter().map(|(id, _)| id).collect()
    };

    // --- output / input discovery -------------------------------------
    let outputs: Vec<NodeId> = graph
        .iter()
        .filter_map(|(_, n)| match n.op {
            HeOp::Output(a) => Some(a),
            _ => None,
        })
        .collect();
    if outputs.len() != 1 {
        return Err(LowerError::OutputCount { found: outputs.len() });
    }
    let input_nodes: Vec<NodeId> = graph
        .iter()
        .filter_map(|(id, n)| matches!(n.op, HeOp::Input).then_some(id))
        .collect();
    let input_index: HashMap<NodeId, u16> = input_nodes
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i as u16))
        .collect();

    // --- consumer counts (raw graph) for MulPlain+Rescale fusion ------
    let n_nodes = graph.num_nodes();
    let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); n_nodes];
    for (id, node) in graph.iter() {
        for o in node.op.operands() {
            consumers[o.0 as usize].push(id);
        }
    }
    let fused_into: HashMap<NodeId, NodeId> = graph
        .iter()
        .filter_map(|(id, n)| match n.op {
            HeOp::Rescale(a) if matches!(graph.node(a).op, HeOp::MulPlain(..)) => {
                (consumers[a.0 as usize].len() == 1).then_some((id, a))
            }
            _ => None,
        })
        .collect();

    // --- alias + rotation analysis (single pass in emission order) ----
    // alias[v] = the node whose emission produces v's value, when v itself
    // emits nothing (step-0 / duplicate rotations, fused rescales).
    let mut alias: HashMap<NodeId, NodeId> = HashMap::new();
    let resolve = |alias: &HashMap<NodeId, NodeId>, mut v: NodeId| -> NodeId {
        while let Some(&a) = alias.get(&v) {
            v = a;
        }
        v
    };
    // Distinct canonical rotations per source, in emission order.
    let mut rot_groups: HashMap<NodeId, Vec<(NodeId, i64)>> = HashMap::new();
    let mut rot_group_order: Vec<NodeId> = Vec::new(); // sources, first-seen order
    let mut rot_rep: HashMap<(NodeId, i64), NodeId> = HashMap::new();
    for &id in &order {
        match graph.node(id).op {
            HeOp::Rotate(a, s) => {
                if opts.slots == 0 {
                    return Err(LowerError::Unsupported {
                        node: id.0,
                        what: "rotation with LowerOptions::slots = 0",
                    });
                }
                let src = resolve(&alias, a);
                let step = canonical_rotation_step(s, opts.slots);
                if step == 0 {
                    alias.insert(id, src);
                } else if let Some(&rep) = rot_rep.get(&(src, step)) {
                    alias.insert(id, rep);
                } else {
                    rot_rep.insert((src, step), id);
                    if !rot_groups.contains_key(&src) {
                        rot_group_order.push(src);
                    }
                    rot_groups.entry(src).or_default().push((id, step));
                }
            }
            HeOp::Rescale(_) => {
                if let Some(&m) = fused_into.get(&id) {
                    // The MulPlainRescale emitted at `m` produces this value.
                    alias.insert(id, m);
                }
            }
            _ => {}
        }
    }

    // --- build the emission plan --------------------------------------
    let mut plan: Vec<Emit> = Vec::new();
    let check_plain = |p: NodeId| -> Result<NodeId, LowerError> {
        if !matches!(graph.node(p).op, HeOp::PlainInput) {
            return Err(LowerError::NotAPlainInput { node: p.0 });
        }
        if !opts.plain.contains_key(&p) {
            return Err(LowerError::MissingPlainValues { node: p.0 });
        }
        Ok(p)
    };
    for &id in &order {
        match graph.node(id).op {
            HeOp::Input | HeOp::PlainInput | HeOp::Output(_) => {}
            HeOp::Add(a, b) | HeOp::Sub(a, b) | HeOp::MulCt(a, b) => {
                let (ra, rb) = (resolve(&alias, a), resolve(&alias, b));
                let kind = match graph.node(id).op {
                    HeOp::Add(..) => BinKind::Add,
                    HeOp::Sub(..) => BinKind::Sub,
                    _ => BinKind::MulCt,
                };
                if ra == rb && kind == BinKind::MulCt {
                    plan.push(Emit::Square { node: id, src: ra });
                } else {
                    plan.push(Emit::Bin { node: id, a: ra, b: rb, kind });
                }
            }
            HeOp::AddPlain(a, p) => plan.push(Emit::AddPlain {
                node: id,
                src: resolve(&alias, a),
                plain: check_plain(p)?,
            }),
            HeOp::MulPlain(a, p) => plan.push(Emit::MulPlain {
                node: id,
                src: resolve(&alias, a),
                plain: check_plain(p)?,
                fused_rescale: fused_into.values().any(|&m| m == id),
            }),
            HeOp::Rescale(a) => {
                if !alias.contains_key(&id) {
                    plan.push(Emit::Rescale { node: id, src: resolve(&alias, a) });
                }
            }
            HeOp::ModDrop(a, l) => plan.push(Emit::ModDrop {
                node: id,
                src: resolve(&alias, a),
                target: l,
            }),
            HeOp::ModRaise(..) => {
                return Err(LowerError::Unsupported {
                    node: id.0,
                    what: "ModRaise (bootstrap interiors are the runtime's job)",
                })
            }
            HeOp::Conjugate(a) => plan.push(Emit::Conjugate { node: id, src: resolve(&alias, a) }),
            HeOp::Rotate(..) => {
                if alias.contains_key(&id) {
                    continue; // step-0 or duplicate
                }
                // Emit the whole group at its first member's position.
                let Some(pos) = rot_group_order.iter().position(|src| {
                    rot_groups.get(src).is_some_and(|g| g.first().is_some_and(|&(m, _)| m == id))
                }) else {
                    continue; // non-first member: emitted with its group
                };
                let src = rot_group_order[pos];
                let members = rot_groups
                    .get(&src)
                    .cloned()
                    .unwrap_or_default();
                if members.len() == 1 {
                    plan.push(Emit::Rotate { node: id, src, step: members[0].1 });
                } else {
                    plan.push(Emit::Hoist { src, members });
                }
            }
        }
    }

    // --- use counts over the plan (multiplicity matters: Add(v, v) = 2) -
    let mut uses: HashMap<NodeId, usize> = HashMap::new();
    for e in &plan {
        match e {
            Emit::AddPlain { src, .. }
            | Emit::MulPlain { src, .. }
            | Emit::Rescale { src, .. }
            | Emit::ModDrop { src, .. }
            | Emit::Square { src, .. }
            | Emit::Rotate { src, .. }
            | Emit::Conjugate { src, .. }
            | Emit::Hoist { src, .. } => *uses.entry(*src).or_default() += 1,
            Emit::Bin { a, b, .. } => {
                *uses.entry(*a).or_default() += 1;
                *uses.entry(*b).or_default() += 1;
            }
        }
    }
    let result = resolve(&alias, outputs[0]);
    *uses.entry(result).or_default() += 1;

    // --- codegen -------------------------------------------------------
    let mut cg = Codegen {
        graph,
        input_index: &input_index,
        uses,
        ops: Vec::new(),
        cur: None,
        slot_of: HashMap::new(),
        free_ids: Vec::new(),
        next_id: 0,
        boot: opts.auto_bootstrap,
        level: None,
        noise: 0.0,
    };
    for e in &plan {
        cg.emit(e, opts)?;
    }
    // Land the result in the accumulator, then release anything left.
    cg.ensure_in_acc(result)?;
    cg.did_read(result);
    let leftover: Vec<u16> = cg.slot_of.values().copied().collect();
    for s in leftover {
        cg.ops.push(PipelineOp::Free(s));
    }
    cg.slot_of.clear();

    // --- residency replay (the executor's own accounting) --------------
    let mut live: std::collections::BTreeSet<u16> = std::collections::BTreeSet::new();
    let mut peak: u64 = 1; // note_live at program start: empty slots + acc
    for op in &cg.ops {
        match op {
            PipelineOp::Store(s) => {
                live.insert(*s);
            }
            PipelineOp::Free(s) => {
                live.remove(s);
            }
            PipelineOp::RotateHoisted { dsts, .. } => {
                live.extend(dsts.iter().copied());
            }
            _ => {}
        }
        peak = peak.max(live.len() as u64 + 1);
    }
    if let Some(bound) = opts.max_live_cts {
        if peak > bound {
            return Err(LowerError::ResidencyExceeded { predicted: peak, bound });
        }
    }

    // --- schedule-level counts -----------------------------------------
    let mut counts = ScheduleCounts::default();
    let mut rotation_steps: Vec<i64> = Vec::new();
    let mut needs_conjugation = false;
    for op in &cg.ops {
        match op {
            PipelineOp::Rotate(s) => {
                counts.rotations += 1;
                if !rotation_steps.contains(s) {
                    rotation_steps.push(*s);
                }
            }
            PipelineOp::RotateHoisted { steps, .. } => {
                counts.rotations += steps.len() as u64;
                for s in steps {
                    if !rotation_steps.contains(s) {
                        rotation_steps.push(*s);
                    }
                }
            }
            PipelineOp::Conjugate => {
                counts.rotations += 1;
                needs_conjugation = true;
            }
            PipelineOp::Square | PipelineOp::MulCtSlot(_) => counts.ct_mults += 1,
            PipelineOp::MulPlain(_) | PipelineOp::MulPlainRescale(_) => counts.pt_mults += 1,
            PipelineOp::Bootstrap => counts.bootstraps += 1,
            _ => {}
        }
    }

    Ok(LoweredProgram {
        program: Program::from_ops(cg.ops),
        predicted_peak_live: peak,
        rotation_steps,
        needs_conjugation,
        input_nodes,
        counts,
    })
}

/// Accumulator/slot state machine for codegen.
struct Codegen<'g> {
    graph: &'g HeGraph,
    input_index: &'g HashMap<NodeId, u16>,
    /// Remaining reads of each value in the plan (including the output).
    uses: HashMap<NodeId, usize>,
    ops: Vec<PipelineOp>,
    /// Which value the accumulator holds.
    cur: Option<NodeId>,
    /// Which slot holds each live slotted value.
    slot_of: HashMap<NodeId, u16>,
    /// Released slot ids, reused smallest-first.
    free_ids: Vec<u16>,
    next_id: u16,
    // Auto-bootstrap noise tracking (linear chains only).
    boot: Option<AutoBootstrap>,
    level: Option<usize>,
    noise: f64,
}

impl Codegen<'_> {
    fn alloc_slot(&mut self) -> u16 {
        if let Some(pos) = (0..self.free_ids.len()).min_by_key(|&i| self.free_ids[i]) {
            return self.free_ids.swap_remove(pos);
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// A slot op under auto-bootstrap means the chain is not linear.
    fn slot_op(&mut self, op: PipelineOp) -> Result<(), LowerError> {
        if self.boot.is_some() {
            return Err(LowerError::AutoBootstrapNeedsLinearChain { op: op.name() });
        }
        self.ops.push(op);
        Ok(())
    }

    /// Parks the accumulator value into a slot if it is still needed and
    /// has no copy there yet.
    fn park_cur(&mut self) -> Result<(), LowerError> {
        if let Some(w) = self.cur {
            if self.uses.get(&w).copied().unwrap_or(0) > 0 && !self.slot_of.contains_key(&w) {
                let s = self.alloc_slot();
                self.slot_op(PipelineOp::Store(s))?;
                self.slot_of.insert(w, s);
            }
        }
        Ok(())
    }

    /// Materializes `v` into the accumulator.
    fn ensure_in_acc(&mut self, v: NodeId) -> Result<(), LowerError> {
        if self.cur == Some(v) {
            return Ok(());
        }
        self.park_cur()?;
        if let Some(&s) = self.slot_of.get(&v) {
            self.slot_op(PipelineOp::Load(s))?;
        } else if let Some(&i) = self.input_index.get(&v) {
            if i == 0 && self.cur.is_none() {
                // run_graph starts with the accumulator = inputs[0].
            } else {
                self.slot_op(PipelineOp::Input(i))?;
            }
            if let Some(b) = self.boot {
                // Fresh input: seed the noise tracker.
                self.level = Some(self.graph.node(v).level);
                self.noise = b.fresh_noise_bits;
            }
        } else {
            unreachable!("value {v:?} was consumed without being parked");
        }
        self.cur = Some(v);
        Ok(())
    }

    /// Materializes `v` into a slot (for use as a binary op's rhs).
    fn ensure_in_slot(&mut self, v: NodeId) -> Result<u16, LowerError> {
        if let Some(&s) = self.slot_of.get(&v) {
            return Ok(s);
        }
        if self.cur != Some(v) {
            // Not in the accumulator either: must be an input.
            self.ensure_in_acc(v)?;
        }
        let s = self.alloc_slot();
        self.slot_op(PipelineOp::Store(s))?;
        self.slot_of.insert(v, s);
        Ok(s)
    }

    /// Parks the accumulator value before an op transforms it in place,
    /// when reads beyond the current one remain and no slot copy exists.
    fn park_if_reused(&mut self, v: NodeId) -> Result<(), LowerError> {
        if self.uses.get(&v).copied().unwrap_or(0) > 1 && !self.slot_of.contains_key(&v) {
            let s = self.alloc_slot();
            self.slot_op(PipelineOp::Store(s))?;
            self.slot_of.insert(v, s);
        }
        Ok(())
    }

    /// Consumes one read of `v`; frees its slot at the last use.
    fn did_read(&mut self, v: NodeId) {
        if let Some(u) = self.uses.get_mut(&v) {
            *u = u.saturating_sub(1);
            if *u == 0 {
                if let Some(s) = self.slot_of.remove(&v) {
                    self.ops.push(PipelineOp::Free(s));
                    self.free_ids.push(s);
                }
            }
        }
    }

    /// Under auto-bootstrap: insert a bootstrap before a multiply whose
    /// eventual rescale would exhaust the budget (fused muls rescale
    /// immediately; bare `Rescale` ops apply the drop in
    /// [`Codegen::after_rescale`]).
    fn maybe_bootstrap_before_mul(&mut self) -> Result<(), LowerError> {
        let Some(b) = self.boot else { return Ok(()) };
        let level = self.level.unwrap_or(b.exit_level);
        let needs = if level < 2 {
            true
        } else {
            let noise_after = (self.noise + f64::from(b.scale_bits) - f64::from(b.limb_bits))
                .max(4.0);
            b.headroom(level - 1, noise_after) < b.min_budget_bits
        };
        if needs {
            if b.exit_level <= level {
                return Err(LowerError::NoiseBudgetExhausted { level });
            }
            self.ops.push(PipelineOp::Bootstrap);
            self.level = Some(b.exit_level);
            self.noise = b.fresh_noise_bits;
        }
        // The multiply itself grows the noise by roughly the plaintext's
        // magnitude (the scale).
        self.noise += f64::from(b.scale_bits);
        Ok(())
    }

    fn after_rescale(&mut self) {
        if let Some(b) = self.boot {
            if let Some(l) = self.level {
                self.level = Some(l.saturating_sub(1));
            }
            self.noise = (self.noise - f64::from(b.limb_bits)).max(4.0);
        }
    }

    fn plain_values(&self, opts: &LowerOptions, p: NodeId) -> Vec<f64> {
        opts.plain.get(&p).cloned().unwrap_or_default()
    }

    fn emit(&mut self, e: &Emit, opts: &LowerOptions) -> Result<(), LowerError> {
        match e {
            Emit::AddPlain { node, src, plain } => {
                self.ensure_in_acc(*src)?;
                self.park_if_reused(*src)?;
                self.ops.push(PipelineOp::AddPlain(self.plain_values(opts, *plain)));
                self.cur = Some(*node);
                self.did_read(*src);
                if self.boot.is_some() {
                    self.noise += 0.1;
                }
            }
            Emit::MulPlain { node, src, plain, fused_rescale } => {
                self.ensure_in_acc(*src)?;
                self.park_if_reused(*src)?;
                self.maybe_bootstrap_before_mul()?;
                let vals = self.plain_values(opts, *plain);
                if *fused_rescale {
                    self.ops.push(PipelineOp::MulPlainRescale(vals));
                    self.after_rescale();
                } else {
                    self.ops.push(PipelineOp::MulPlain(vals));
                }
                self.cur = Some(*node);
                self.did_read(*src);
            }
            Emit::Rescale { node, src } => {
                self.ensure_in_acc(*src)?;
                self.park_if_reused(*src)?;
                self.ops.push(PipelineOp::Rescale);
                self.after_rescale();
                self.cur = Some(*node);
                self.did_read(*src);
            }
            Emit::ModDrop { node, src, target } => {
                self.ensure_in_acc(*src)?;
                self.park_if_reused(*src)?;
                self.ops.push(PipelineOp::ModDropTo(*target as u32));
                if self.boot.is_some() {
                    self.level = Some(*target);
                }
                self.cur = Some(*node);
                self.did_read(*src);
            }
            Emit::Square { node, src } => {
                self.ensure_in_acc(*src)?;
                self.park_if_reused(*src)?;
                self.maybe_bootstrap_before_mul()?;
                self.ops.push(PipelineOp::Square);
                self.cur = Some(*node);
                self.did_read(*src);
            }
            Emit::Bin { node, a, b, kind } => {
                // Pick the accumulator operand: Sub needs `a`; the
                // commutative ops keep whichever is already resident.
                let (acc_v, slot_v) = match kind {
                    BinKind::Sub => (*a, *b),
                    _ if self.cur == Some(*b) && self.cur != Some(*a) => (*b, *a),
                    _ => (*a, *b),
                };
                let s = self.ensure_in_slot(slot_v)?;
                self.ensure_in_acc(acc_v)?;
                self.park_if_reused(acc_v)?;
                match kind {
                    BinKind::Add => self.slot_op(PipelineOp::AddSlot(s))?,
                    BinKind::Sub => self.slot_op(PipelineOp::SubSlot(s))?,
                    BinKind::MulCt => self.slot_op(PipelineOp::MulCtSlot(s))?,
                }
                self.cur = Some(*node);
                self.did_read(*a);
                self.did_read(*b);
            }
            Emit::Rotate { node, src, step } => {
                self.ensure_in_acc(*src)?;
                self.park_if_reused(*src)?;
                self.ops.push(PipelineOp::Rotate(*step));
                self.cur = Some(*node);
                self.did_read(*src);
                if self.boot.is_some() {
                    self.noise += 0.5;
                }
            }
            Emit::Conjugate { node, src } => {
                self.ensure_in_acc(*src)?;
                self.park_if_reused(*src)?;
                self.ops.push(PipelineOp::Conjugate);
                self.cur = Some(*node);
                self.did_read(*src);
                if self.boot.is_some() {
                    self.noise += 0.5;
                }
            }
            Emit::Hoist { src, members } => {
                self.ensure_in_acc(*src)?;
                let steps: Vec<i64> = members.iter().map(|&(_, s)| s).collect();
                let mut dsts = Vec::with_capacity(members.len());
                for &(m, _) in members {
                    let d = self.alloc_slot();
                    self.slot_of.insert(m, d);
                    dsts.push(d);
                }
                self.slot_op(PipelineOp::RotateHoisted { steps, dsts })?;
                // The accumulator still holds the source.
                self.did_read(*src);
                // A member the rest of the plan never reads is dead on
                // arrival — release it immediately.
                let dead: Vec<NodeId> = members
                    .iter()
                    .filter(|&&(m, _)| self.uses.get(&m).copied().unwrap_or(0) == 0)
                    .map(|&(m, _)| m)
                    .collect();
                for m in dead {
                    if let Some(s) = self.slot_of.remove(&m) {
                        self.ops.push(PipelineOp::Free(s));
                        self.free_ids.push(s);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(slots: usize) -> LowerOptions {
        LowerOptions {
            slots,
            ..LowerOptions::default()
        }
    }

    #[test]
    fn linear_chain_lowers_without_slots() {
        let mut g = HeGraph::new();
        let x = g.input(3);
        let s = g.mul_ct(x, x); // square
        let r = g.rescale(s);
        let rot = g.rotate(r, 5);
        g.output(rot);
        let lp = lower_to_program(&g, &opts(32)).unwrap();
        let ops = lp.program.ops();
        assert!(matches!(ops[0], PipelineOp::Square));
        assert!(matches!(ops[1], PipelineOp::Rescale));
        assert!(matches!(ops[2], PipelineOp::Rotate(5)));
        assert_eq!(ops.len(), 3);
        assert_eq!(lp.predicted_peak_live, 1);
        assert_eq!(lp.counts.ct_mults, 1);
        assert_eq!(lp.counts.rotations, 1);
        assert_eq!(lp.rotation_steps, vec![5]);
        assert_eq!(lp.input_nodes, vec![x]);
    }

    #[test]
    fn congruent_and_zero_rotations_collapse() {
        // rotate by slots ≡ 0 (aliases the source); -31 ≡ 1 (mod 32)
        // deduplicates against an explicit rotate-by-1.
        let mut g = HeGraph::new();
        let x = g.input(3);
        let r0 = g.rotate(x, 32);
        let r1 = g.rotate(x, 1);
        let r2 = g.rotate(x, -31);
        let a = g.add(r0, r1);
        let b = g.add(a, r2);
        g.output(b);
        let lp = lower_to_program(&g, &opts(32)).unwrap();
        assert_eq!(lp.counts.rotations, 1, "{:?}", lp.program.ops());
        assert_eq!(lp.rotation_steps, vec![1]);
    }

    #[test]
    fn distinct_rotations_of_one_source_hoist() {
        let mut g = HeGraph::new();
        let x = g.input(3);
        let r1 = g.rotate(x, 1);
        let r2 = g.rotate(x, 2);
        let r3 = g.rotate(x, 3);
        let a = g.add(r1, r2);
        let b = g.add(a, r3);
        g.output(b);
        let lp = lower_to_program(&g, &opts(32)).unwrap();
        let hoists: Vec<_> = lp
            .program
            .ops()
            .iter()
            .filter_map(|op| match op {
                PipelineOp::RotateHoisted { steps, .. } => Some(steps.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(hoists, vec![vec![1, 2, 3]]);
        assert_eq!(lp.counts.rotations, 3);
        // Source + 3 rotation results live at once, accumulator included.
        assert_eq!(lp.predicted_peak_live, 4);
        // Every stored slot is freed by program end.
        let stores = lp
            .program
            .ops()
            .iter()
            .filter(|op| matches!(op, PipelineOp::Store(_)))
            .count();
        let frees = lp
            .program
            .ops()
            .iter()
            .filter(|op| matches!(op, PipelineOp::Free(_)))
            .count();
        assert_eq!(frees, stores + 3, "hoisted dsts also freed");
    }

    #[test]
    fn mul_plain_fuses_with_sole_consumer_rescale() {
        let mut g = HeGraph::new();
        let x = g.input(3);
        let w = g.plain_input(3);
        let m = g.mul_plain(x, w);
        let r = g.rescale(m);
        g.output(r);
        let mut o = opts(32);
        o.plain.insert(w, vec![2.0; 32]);
        let lp = lower_to_program(&g, &o).unwrap();
        assert_eq!(lp.program.len(), 1);
        assert!(matches!(lp.program.ops()[0], PipelineOp::MulPlainRescale(_)));
        assert_eq!(lp.counts.pt_mults, 1);
    }

    #[test]
    fn mul_plain_with_second_consumer_does_not_fuse() {
        let mut g = HeGraph::new();
        let x = g.input(3);
        let w = g.plain_input(3);
        let m = g.mul_plain(x, w);
        let _r = g.rescale(m);
        let s = g.add(m, x); // second consumer of the unrescaled product
        g.output(s);
        let mut o = opts(32);
        o.plain.insert(w, vec![2.0; 32]);
        let lp = lower_to_program(&g, &o).unwrap();
        assert!(lp.program.ops().iter().any(|op| matches!(op, PipelineOp::MulPlain(_))));
        assert!(lp.program.ops().iter().any(|op| matches!(op, PipelineOp::Rescale)));
    }

    #[test]
    fn sub_keeps_operand_order() {
        let mut g = HeGraph::new();
        let a = g.input(3);
        let b = g.input(3);
        let d = g.sub(a, b);
        g.output(d);
        let lp = lower_to_program(&g, &opts(32)).unwrap();
        assert_eq!(
            lp.program.ops(),
            &[
                PipelineOp::Input(1),
                PipelineOp::Store(0),
                PipelineOp::Input(0),
                PipelineOp::SubSlot(0),
                PipelineOp::Free(0),
            ]
        );
        assert_eq!(lp.input_nodes, vec![a, b]);
    }

    #[test]
    fn residency_bound_is_enforced() {
        let mut g = HeGraph::new();
        let x = g.input(3);
        let r = g.rotate(x, 1);
        let s = g.add(x, r);
        g.output(s);
        let mut o = opts(32);
        o.max_live_cts = Some(1);
        match lower_to_program(&g, &o) {
            Err(LowerError::ResidencyExceeded { predicted, bound: 1 }) => {
                assert!(predicted >= 2)
            }
            other => panic!("expected ResidencyExceeded, got {other:?}"),
        }
        o.max_live_cts = Some(8);
        lower_to_program(&g, &o).unwrap();
    }

    #[test]
    fn auto_bootstrap_inserts_before_the_starved_multiply() {
        let mut g = HeGraph::new();
        let x = g.input(2);
        let w = g.plain_input(2);
        let m = g.mul_plain(x, w);
        let r = g.rescale(m);
        g.output(r);
        let mut o = opts(32);
        o.plain.insert(w, vec![1.0; 32]);
        o.auto_bootstrap = Some(AutoBootstrap {
            limb_bits: 30,
            scale_bits: 25,
            fresh_noise_bits: 10.0,
            min_budget_bits: 5.0,
            exit_level: 8,
        });
        let lp = lower_to_program(&g, &o).unwrap();
        assert_eq!(
            lp.program.ops().iter().map(|op| op.name()).collect::<Vec<_>>(),
            vec!["bootstrap", "mul_plain_rescale"],
        );
        assert_eq!(lp.counts.bootstraps, 1);
        assert!(lp.program.needs_bootstrapper());
    }

    #[test]
    fn auto_bootstrap_leaves_a_healthy_chain_alone() {
        let mut g = HeGraph::new();
        let x = g.input(8);
        let w = g.plain_input(8);
        let m = g.mul_plain(x, w);
        let r = g.rescale(m);
        g.output(r);
        let mut o = opts(32);
        o.plain.insert(w, vec![1.0; 32]);
        o.auto_bootstrap = Some(AutoBootstrap {
            limb_bits: 30,
            scale_bits: 25,
            fresh_noise_bits: 10.0,
            min_budget_bits: 5.0,
            exit_level: 10,
        });
        let lp = lower_to_program(&g, &o).unwrap();
        assert_eq!(lp.counts.bootstraps, 0);
    }

    #[test]
    fn auto_bootstrap_rejects_dag_programs() {
        let mut g = HeGraph::new();
        let x = g.input(3);
        let y = g.input(3);
        let s = g.add(x, y);
        g.output(s);
        let mut o = opts(32);
        o.auto_bootstrap = Some(AutoBootstrap {
            limb_bits: 30,
            scale_bits: 25,
            fresh_noise_bits: 10.0,
            min_budget_bits: 5.0,
            exit_level: 8,
        });
        assert!(matches!(
            lower_to_program(&g, &o),
            Err(LowerError::AutoBootstrapNeedsLinearChain { .. })
        ));
    }

    #[test]
    fn auto_bootstrap_that_cannot_raise_is_an_error() {
        let mut g = HeGraph::new();
        let x = g.input(2);
        let w = g.plain_input(2);
        let m = g.mul_plain(x, w);
        let r = g.rescale(m);
        g.output(r);
        let mut o = opts(32);
        o.plain.insert(w, vec![1.0; 32]);
        o.auto_bootstrap = Some(AutoBootstrap {
            limb_bits: 30,
            scale_bits: 25,
            fresh_noise_bits: 10.0,
            min_budget_bits: 5.0,
            exit_level: 2, // would not raise past the current level
        });
        assert!(matches!(
            lower_to_program(&g, &o),
            Err(LowerError::NoiseBudgetExhausted { level: 2 })
        ));
    }

    #[test]
    fn structural_errors_are_typed() {
        // No output.
        let mut g = HeGraph::new();
        g.input(3);
        assert!(matches!(
            lower_to_program(&g, &opts(32)),
            Err(LowerError::OutputCount { found: 0 })
        ));
        // ModRaise.
        let mut g = HeGraph::new();
        let x = g.input(2);
        let up = g.mod_raise(x, 5);
        g.output(up);
        assert!(matches!(
            lower_to_program(&g, &opts(32)),
            Err(LowerError::Unsupported { .. })
        ));
        // Unbound plaintext.
        let mut g = HeGraph::new();
        let x = g.input(3);
        let w = g.plain_input(3);
        let m = g.mul_plain(x, w);
        g.output(m);
        assert!(matches!(
            lower_to_program(&g, &opts(32)),
            Err(LowerError::MissingPlainValues { node }) if node == w.0
        ));
        // Ciphertext where a plaintext is required.
        let mut g = HeGraph::new();
        let x = g.input(3);
        let y = g.input(3);
        let m = g.mul_plain(x, y);
        g.output(m);
        assert!(matches!(
            lower_to_program(&g, &opts(32)),
            Err(LowerError::NotAPlainInput { node }) if node == y.0
        ));
    }

    #[test]
    fn reorder_groups_interleaved_rotations_into_one_hoist() {
        // A,B,A,B rotations of one source: program order hoists only the
        // leading run; reuse_order makes them adjacent so all four land in
        // one batch either way (grouping is by source, not adjacency) —
        // but reordering must at least not break lowering or change counts.
        let mut g = HeGraph::new();
        let x = g.input(4);
        let mut terms = Vec::new();
        for step in [1i64, 9, 2, 10] {
            terms.push(g.rotate(x, step));
        }
        let mut acc = terms[0];
        for &t in &terms[1..] {
            acc = g.add(acc, t);
        }
        g.output(acc);
        let mut o = opts(32);
        o.reorder = true;
        let lp = lower_to_program(&g, &o).unwrap();
        assert_eq!(lp.counts.rotations, 4);
        let hoisted: usize = lp
            .program
            .ops()
            .iter()
            .map(|op| match op {
                PipelineOp::RotateHoisted { steps, .. } => steps.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(hoisted, 4);
    }
}
