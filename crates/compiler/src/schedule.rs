//! Scheduling: drives the machine through a graph in order, with next-use
//! chains for Belady residency and per-level keyswitch-variant selection.

use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};

use cl_ckks::security::{min_digits_for_level, SecurityLevel};
use cl_core::{ArchConfig, Machine, Stats, ValueClass};
use cl_isa::{HeGraph, HeOp, KsAlgorithm, MacroOp, NodeId, OpLabel, Phase, TrafficClass, ValueId};

use crate::lower::{lower_node, LoweredOp};

/// Errors surfaced while compiling a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// No digit count can support the requested level at the requested
    /// security target: even the most aggressive decomposition exceeds the
    /// modulus budget `max_log_qp(n, security)`. Compiling anyway (the old
    /// behavior was a silent `Boosted(4)` fallback) would produce a plan
    /// that does not meet its own security claim.
    UnsatisfiableSecurity {
        /// Ring degree of the attempted configuration.
        n: usize,
        /// Ciphertext level the policy was asked to serve.
        level: usize,
        /// RNS limb width in bits.
        word_bits: u32,
        /// The security target that could not be met.
        security: SecurityLevel,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnsatisfiableSecurity {
                n,
                level,
                word_bits,
                security,
            } => write!(
                f,
                "no keyswitch digit count reaches level {level} at N={n} with \
                 {word_bits}-bit limbs under {security:?} security"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Keyswitch-variant selection policy (Sec. 3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KsPolicy {
    /// Always the same algorithm.
    Fixed(KsAlgorithm),
    /// The fewest digits that meet a security level at each level
    /// (CraterLake's policy: e.g. at 80-bit / `N = 64K`, 1-digit for
    /// `L <= 52`, 2-digit above).
    SecurityDriven(SecurityLevel),
    /// The per-level best algorithm including standard keyswitching below
    /// the boosted crossover (`L ≈ 14`) — the policy given to F1+ (Sec. 8).
    BestPerLevel(SecurityLevel),
}

impl KsPolicy {
    /// The algorithm chosen at level `l` for ring degree `n`.
    ///
    /// Returns [`CompileError::UnsatisfiableSecurity`] when no digit count
    /// can reach `l` within the security target's modulus budget — there is
    /// no sound fallback in that regime, so the error must propagate rather
    /// than compile a plan below its claimed security.
    pub fn try_algorithm(
        &self,
        n: usize,
        l: usize,
        word_bits: u32,
    ) -> Result<KsAlgorithm, CompileError> {
        let driven = |sec: SecurityLevel| {
            min_digits_for_level(n, sec, l, word_bits)
                .map(KsAlgorithm::Boosted)
                .ok_or(CompileError::UnsatisfiableSecurity {
                    n,
                    level: l,
                    word_bits,
                    security: sec,
                })
        };
        match *self {
            KsPolicy::Fixed(a) => Ok(a),
            KsPolicy::SecurityDriven(sec) => driven(sec),
            KsPolicy::BestPerLevel(sec) => {
                if l <= cl_isa::cost::boosted_crossover_level(n) {
                    Ok(KsAlgorithm::Standard)
                } else {
                    driven(sec)
                }
            }
        }
    }

    /// The algorithm chosen at level `l` for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if the `(n, l)` point is unreachable at the policy's security
    /// target (see [`KsPolicy::try_algorithm`]).
    pub fn algorithm(&self, n: usize, l: usize, word_bits: u32) -> KsAlgorithm {
        match self.try_algorithm(n, l, word_bits) {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Ring degree the program runs at.
    pub n: usize,
    /// Keyswitch policy.
    pub ks_policy: KsPolicy,
    /// Apply the reuse-reordering pass (Sec. 6 step 2) before scheduling.
    /// Off by default: the benchmark generators already emit
    /// reuse-friendly orders.
    pub reorder: bool,
}

impl CompileOptions {
    /// Default options for the paper's main evaluation: `N = 64K`, 80-bit
    /// security-driven keyswitching.
    pub fn paper_default() -> Self {
        Self {
            n: 1 << 16,
            ks_policy: KsPolicy::SecurityDriven(SecurityLevel::Bits80),
            reorder: false,
        }
    }
}

/// Identifies a keyswitch hint by the key it applies. One hint object
/// serves all levels (lower-level uses stream a subset of its limbs, so a
/// resident hint covers them all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KshKey {
    Relin,
    Rotation(i64),
    Conjugation,
}

/// What lowering an op depends on besides its level: the `HeOp` variant
/// and, for a `ModRaise`, the level it raises to (0 otherwise).
type OpKind = (Discriminant<HeOp>, usize);

/// Memo of what the scheduler derives from `(op kind, level)` alone: the
/// keyswitch algorithm the policy picks at a level and the macro-op a node
/// lowers to. A benchmark graph has tens of thousands of nodes but only a
/// few hundred distinct `(kind, level)` pairs.
struct LevelMemo<'a> {
    arch: &'a ArchConfig,
    opts: &'a CompileOptions,
    /// Indexed by level.
    alg: Vec<Option<KsAlgorithm>>,
    /// Indexed by level: the ops lowered there so far.
    lowered: Vec<Vec<(OpKind, LoweredOp)>>,
}

impl<'a> LevelMemo<'a> {
    fn new(arch: &'a ArchConfig, opts: &'a CompileOptions, max_level: usize) -> Self {
        Self {
            arch,
            opts,
            alg: vec![None; max_level + 1],
            lowered: vec![Vec::new(); max_level + 1],
        }
    }

    fn algorithm(&mut self, level: usize) -> Result<KsAlgorithm, CompileError> {
        if let Some(alg) = self.alg[level] {
            return Ok(alg);
        }
        let alg = self
            .opts
            .ks_policy
            .try_algorithm(self.opts.n, level, self.arch.word_bits)?;
        self.alg[level] = Some(alg);
        Ok(alg)
    }

    fn lowered(&mut self, op: &HeOp, level: usize) -> Result<&LoweredOp, CompileError> {
        let alg = self.algorithm(level)?;
        let kind: OpKind = match *op {
            HeOp::ModRaise(_, to) => (discriminant(op), to),
            _ => (discriminant(op), 0),
        };
        let at_level = &mut self.lowered[level];
        let i = match at_level.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                at_level.push((kind, lower_node(self.arch, self.opts.n, op, level, alg)));
                at_level.len() - 1
            }
        };
        Ok(&at_level[i].1)
    }
}

/// Compiles `graph` for `arch` and executes it on the machine model,
/// returning the run's statistics.
///
/// This performs the compiler's two passes: first next-use analysis over
/// ciphertext values and keyswitch hints (feeding Belady eviction), then
/// in-order lowering and execution against the machine's resource
/// timelines.
///
/// # Panics
///
/// Panics if the graph is malformed (see [`HeGraph::validate`]), an operand
/// set exceeds the register file, or the keyswitch policy is unsatisfiable
/// at some node's level (use [`try_compile_and_run`] to handle that case).
pub fn compile_and_run(graph: &HeGraph, arch: &ArchConfig, opts: &CompileOptions) -> Stats {
    match try_compile_and_run(graph, arch, opts) {
        Ok(stats) => stats,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`compile_and_run`]: returns a typed error when the
/// keyswitch policy cannot meet its security target at some node's level
/// instead of silently degrading the decomposition.
///
/// # Panics
///
/// Panics if the graph is malformed (see [`HeGraph::validate`]) or an
/// operand set exceeds the register file.
pub fn try_compile_and_run(
    graph: &HeGraph,
    arch: &ArchConfig,
    opts: &CompileOptions,
) -> Result<Stats, CompileError> {
    graph.validate();
    let n = opts.n;
    let mut memo = LevelMemo::new(arch, opts, graph.max_level());
    // Execution order: program order, or the reuse-grouping order.
    let order: Vec<NodeId> = if opts.reorder {
        crate::reuse_order(graph)
    } else {
        graph.iter().map(|(id, _)| id).collect()
    };
    // Value ids are dense, so every per-value table below is a vector: node
    // `i` produces value `i`, and hints follow in order of first use.
    let num_nodes = graph.num_nodes();
    let node_value = |id: NodeId| ValueId(id.0 as u64);
    let hint_value = |hint: usize| ValueId((num_nodes + hint) as u64);
    // ---- Pass 1: the hint each keyswitch reads, and the highest level it
    // is read at.
    let mut hint_of_key: HashMap<KshKey, usize> = HashMap::new();
    let mut hint_of_node: Vec<Option<ValueId>> = vec![None; num_nodes];
    let mut hint_max_level: Vec<usize> = Vec::new();
    for &id in &order {
        let node = graph.node(id);
        let key = match node.op {
            HeOp::MulCt(..) => KshKey::Relin,
            HeOp::Rotate(_, s) => KshKey::Rotation(s),
            HeOp::Conjugate(_) => KshKey::Conjugation,
            _ => continue,
        };
        let hint = *hint_of_key.entry(key).or_insert_with(|| {
            hint_max_level.push(0);
            hint_max_level.len() - 1
        });
        hint_of_node[id.0 as usize] = Some(hint_value(hint));
        hint_max_level[hint] = hint_max_level[hint].max(node.level);
    }
    // ---- Pass 2: what each op reads, and the position of the next read of
    // the same value (next uses feed Belady's eviction scores). Walking the
    // schedule backwards, `upcoming[v]` is the position of the nearest read
    // of value `v` after the point reached so far.
    //
    // ModDrop aliases its operand; uses of the alias count as uses of the
    // underlying value only if the drop were free. We treat drops as
    // distinct zero-cost values instead (see lowering).
    let mut reads: Vec<Reads> = order
        .iter()
        .map(|&id| reads_of(&graph.node(id).op, hint_of_node[id.0 as usize]))
        .collect();
    let mut upcoming = vec![u32::MAX; num_nodes + hint_max_level.len()];
    for (pos, (list, count)) in reads.iter_mut().enumerate().rev() {
        for (value, next_use) in list[..*count].iter_mut().rev() {
            *next_use = std::mem::replace(&mut upcoming[value.0 as usize], pos as u32);
        }
    }
    let first_use = upcoming;
    // ---- Pass 3: declare values.
    let mut machine = Machine::new(arch.clone());
    for &id in &order {
        let node = graph.node(id);
        let (words, class) = match node.op {
            HeOp::Input => (
                2 * node.level as u64 * n as u64,
                ValueClass::Backed(TrafficClass::Input),
            ),
            HeOp::PlainInput => (
                node.level as u64 * n as u64,
                ValueClass::Backed(TrafficClass::Input),
            ),
            _ => (2 * node.level as u64 * n as u64, ValueClass::Intermediate),
        };
        machine.declare(node_value(id), words, class);
    }
    for (hint, &level) in hint_max_level.iter().enumerate() {
        // Size the hint for the highest level it serves; uses at lower
        // levels read a subset of the same object. Seeded (KSHGen) hints
        // store only half.
        let lmax = level as u64;
        let polys = if arch.has_kshgen { 1 } else { 2 };
        let words = match memo.algorithm(level)? {
            KsAlgorithm::Boosted(t) => {
                let alpha = lmax.div_ceil(t as u64);
                t as u64 * polys * (lmax + alpha) * n as u64
            }
            KsAlgorithm::Standard => lmax * polys * (lmax + 1) * n as u64,
        };
        machine.declare(
            hint_value(hint),
            words,
            ValueClass::Backed(TrafficClass::Ksh),
        );
    }
    // ---- Execute in order.
    let no_work = MacroOp::new();
    for (&id, (list, count)) in order.iter().zip(&reads) {
        let node = graph.node(id);
        let label = match node.phase {
            Phase::App => OpLabel::App,
            Phase::Bootstrap => OpLabel::Bootstrap,
        };
        let reads = &list[..*count];
        let out = [(node_value(id), first_use[id.0 as usize])];
        match memo.lowered(&node.op, node.level)? {
            LoweredOp::None => {
                // Inputs produce nothing to execute. Outputs and drops
                // still read their operand, so operand lifetimes stay
                // correct, and a ModDrop re-materializes as a (free) new
                // value: a zero-work op.
                let writes: &[(ValueId, u32)] = match node.op {
                    HeOp::ModDrop(..) => &out,
                    _ => &[],
                };
                if !reads.is_empty() || !writes.is_empty() {
                    machine.exec(&no_work, n, reads, writes, label);
                }
            }
            LoweredOp::One(op) => {
                machine.exec(op, n, reads, &out, label);
            }
        }
    }
    Ok(machine.finish())
}

/// The reads of one op in the form [`Machine::exec`] takes them — each
/// value with the position of its next read — held inline: at most two
/// operands and a keyswitch hint, and how many of the three are in use.
type Reads = ([(ValueId, u32); 3], usize);

/// The values an op reads, in read order (operands, then the keyswitch
/// hint), with next uses still to be filled in.
fn reads_of(op: &HeOp, hint: Option<ValueId>) -> Reads {
    let read = |id: NodeId| (ValueId(id.0 as u64), u32::MAX);
    let unused = (ValueId(0), u32::MAX);
    let (mut list, mut count) = match *op {
        HeOp::Input | HeOp::PlainInput => ([unused; 3], 0),
        HeOp::Add(a, b)
        | HeOp::Sub(a, b)
        | HeOp::AddPlain(a, b)
        | HeOp::MulPlain(a, b)
        | HeOp::MulCt(a, b) => ([read(a), read(b), unused], 2),
        HeOp::Rotate(a, _)
        | HeOp::Conjugate(a)
        | HeOp::Rescale(a)
        | HeOp::ModDrop(a, _)
        | HeOp::ModRaise(a, _)
        | HeOp::Output(a) => ([read(a), unused, unused], 1),
    };
    if let Some(hint) = hint {
        list[count] = (hint, u32::MAX);
        count += 1;
    }
    (list, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_isa::FuKind;

    fn mul_chain(levels: usize, len: usize) -> HeGraph {
        let mut g = HeGraph::new();
        let mut x = g.input(levels);
        for _ in 0..len {
            let m = g.mul_ct(x, x);
            x = g.rescale(m);
        }
        g.output(x);
        g
    }

    #[test]
    fn mul_chain_runs_and_uses_resources() {
        let g = mul_chain(10, 8);
        let arch = ArchConfig::craterlake();
        let stats = compile_and_run(&g, &arch, &CompileOptions::paper_default());
        assert!(stats.cycles > 0.0);
        assert!(stats.fu_busy.get(&FuKind::Ntt).copied().unwrap_or(0.0) > 0.0);
        assert!(stats.fu_busy.get(&FuKind::Crb).copied().unwrap_or(0.0) > 0.0);
        // The relin hint at each level is fetched from memory.
        assert!(stats.traffic_of(TrafficClass::Ksh) > 0.0);
    }

    #[test]
    fn ksh_reuse_across_repeated_rotations() {
        // 20 rotations by the same amount at one level: the hint loads once.
        let mut g = HeGraph::new();
        let x = g.input(20);
        let mut acc = x;
        for _ in 0..20 {
            let r = g.rotate(acc, 3);
            acc = g.add(acc, r);
        }
        g.output(acc);
        let arch = ArchConfig::craterlake();
        let opts = CompileOptions::paper_default();
        let stats = compile_and_run(&g, &arch, &opts);
        // Seeded 1-digit hint at L=20: 1 * (20+20) * 65536 words * 3.5 B.
        let expect = 40.0 * 65536.0 * 3.5;
        assert!(
            (stats.traffic_of(TrafficClass::Ksh) - expect).abs() < 1.0,
            "KSH traffic {} vs {expect}",
            stats.traffic_of(TrafficClass::Ksh)
        );
    }

    #[test]
    fn kshgen_halves_hint_traffic() {
        let mut g = HeGraph::new();
        let x = g.input(30);
        let r = g.rotate(x, 1);
        g.output(r);
        let with_gen = compile_and_run(
            &g,
            &ArchConfig::craterlake(),
            &CompileOptions::paper_default(),
        );
        let without = compile_and_run(
            &g,
            &ArchConfig::craterlake().without_kshgen(),
            &CompileOptions::paper_default(),
        );
        let ratio = without.traffic_of(TrafficClass::Ksh) / with_gen.traffic_of(TrafficClass::Ksh);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn deep_keyswitch_much_slower_without_crb() {
        // A reuse-heavy deep workload (same rotation hint applied many
        // times, as BSGS kernels do): compute-bound, so losing the CRB and
        // chaining exposes the O(L^2) multiply/add wall (Table 4 shows
        // 8.8x-34.5x on the deep benchmarks).
        let mut g = HeGraph::new();
        let x = g.input(57);
        let mut acc = x;
        for _ in 0..20 {
            let r = g.rotate(acc, 7);
            acc = g.add(acc, r);
        }
        g.output(acc);
        let opts = CompileOptions::paper_default();
        let with_crb = compile_and_run(&g, &ArchConfig::craterlake(), &opts);
        let without = compile_and_run(
            &g,
            &ArchConfig::craterlake().without_crb_chaining(),
            &opts,
        );
        let slowdown = without.cycles / with_crb.cycles;
        assert!(
            slowdown > 5.0,
            "CRB/chaining should be worth >5x on deep keyswitching, got {slowdown}"
        );
    }

    #[test]
    fn reordering_reduces_hint_traffic_under_pressure() {
        // Interleaved rotations by two amounts at a level where each hint
        // is ~34 MB: with a register file too small for both hints, the
        // A,B,A,B,... order reloads a hint per op; the reuse order groups
        // them so each hint loads once.
        let mut g = HeGraph::new();
        let mut outs = Vec::new();
        for i in 0..12 {
            let x = g.input(57);
            let amount = if i % 2 == 0 { 3 } else { 7 };
            outs.push(g.rotate(x, amount));
        }
        for o in outs {
            g.output(o);
        }
        // RF sized to hold the working set of one rotation but not two
        // hints plus operands.
        let arch = ArchConfig::craterlake().with_rf_bytes(100 << 20);
        let base_opts = CompileOptions::paper_default();
        let reordered_opts = CompileOptions {
            reorder: true,
            ..base_opts.clone()
        };
        let base = compile_and_run(&g, &arch, &base_opts);
        let reordered = compile_and_run(&g, &arch, &reordered_opts);
        assert!(
            reordered.traffic_of(TrafficClass::Ksh) < base.traffic_of(TrafficClass::Ksh),
            "reordering should reduce hint traffic: {} vs {}",
            reordered.traffic_of(TrafficClass::Ksh),
            base.traffic_of(TrafficClass::Ksh)
        );
    }

    #[test]
    fn policy_picks_more_digits_at_high_levels() {
        let p = KsPolicy::SecurityDriven(SecurityLevel::Bits80);
        let low = p.algorithm(1 << 16, 30, 28);
        let high = p.algorithm(1 << 16, 60, 28);
        assert_eq!(low, KsAlgorithm::Boosted(1));
        assert_eq!(high, KsAlgorithm::Boosted(2));
        let f1 = KsPolicy::BestPerLevel(SecurityLevel::Bits80);
        assert_eq!(f1.algorithm(1 << 16, 8, 28), KsAlgorithm::Standard);
        assert!(matches!(f1.algorithm(1 << 16, 40, 28), KsAlgorithm::Boosted(_)));
    }

    #[test]
    fn unreachable_security_point_is_a_typed_error_not_a_fallback() {
        // At 200-bit security / N = 64K / 28-bit limbs, the modulus budget
        // is ~41 limbs; level 57 is unreachable at ANY digit count. The old
        // code silently compiled it as Boosted(4).
        let p = KsPolicy::SecurityDriven(SecurityLevel::Bits200);
        let err = p.try_algorithm(1 << 16, 57, 28).unwrap_err();
        assert_eq!(
            err,
            CompileError::UnsatisfiableSecurity {
                n: 1 << 16,
                level: 57,
                word_bits: 28,
                security: SecurityLevel::Bits200,
            }
        );
        assert!(err.to_string().contains("level 57"));
        // BestPerLevel above the crossover propagates the same error...
        let f1 = KsPolicy::BestPerLevel(SecurityLevel::Bits200);
        assert!(f1.try_algorithm(1 << 16, 57, 28).is_err());
        // ...and the error surfaces from whole-graph compilation too.
        let mut g = HeGraph::new();
        let x = g.input(57);
        let m = g.mul_ct(x, x);
        g.output(m);
        let opts = CompileOptions {
            ks_policy: KsPolicy::SecurityDriven(SecurityLevel::Bits200),
            ..CompileOptions::paper_default()
        };
        let res = try_compile_and_run(&g, &ArchConfig::craterlake(), &opts);
        assert!(matches!(
            res,
            Err(CompileError::UnsatisfiableSecurity { level: 57, .. })
        ));
        // Reachable points still succeed unchanged.
        assert!(matches!(
            p.try_algorithm(1 << 16, 30, 28),
            Ok(KsAlgorithm::Boosted(_))
        ));
    }

    #[test]
    fn intermediate_spills_appear_under_capacity_pressure() {
        // Many big live values at L=57 on a small RF force spills.
        let mut g = HeGraph::new();
        let inputs: Vec<_> = (0..12).map(|_| g.input(57)).collect();
        let mut acc = inputs[0];
        // Touch all inputs twice with long reuse distances.
        for &i in &inputs[1..] {
            acc = g.add(acc, i);
        }
        for &i in &inputs[1..] {
            acc = g.add(acc, i);
        }
        g.output(acc);
        let small_rf = ArchConfig::craterlake().with_rf_bytes(64 << 20);
        let stats = compile_and_run(&g, &small_rf, &CompileOptions::paper_default());
        assert!(stats.evictions > 0, "expected capacity pressure");
    }
}
