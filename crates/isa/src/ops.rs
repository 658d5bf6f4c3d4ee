//! Machine-operation vocabulary shared by the compiler and the machine
//! model.

/// The functional-unit classes of the accelerator (Sec. 4.1, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuKind {
    /// Modular multiplier (element-wise).
    Mul,
    /// Modular adder (element-wise).
    Add,
    /// Number-theoretic transform unit.
    Ntt,
    /// Automorphism unit.
    Automorphism,
    /// Change-RNS-base unit (Sec. 5.1) — CraterLake's largest FU.
    Crb,
    /// Keyswitch-hint generator (Sec. 5.2).
    KshGen,
}

impl FuKind {
    /// All FU kinds, in display order.
    pub const ALL: [FuKind; 6] = [
        FuKind::Mul,
        FuKind::Add,
        FuKind::Ntt,
        FuKind::Automorphism,
        FuKind::Crb,
        FuKind::KshGen,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FuKind::Mul => "mul",
            FuKind::Add => "add",
            FuKind::Ntt => "ntt",
            FuKind::Automorphism => "aut",
            FuKind::Crb => "crb",
            FuKind::KshGen => "kshgen",
        }
    }
}

/// Which keyswitching algorithm an operation uses (the compiler chooses per
/// level, Sec. 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KsAlgorithm {
    /// Standard RNS keyswitching (per-limb digits).
    Standard,
    /// Boosted keyswitching with the given digit count.
    Boosted(usize),
}

/// Classification of off-chip traffic, matching Fig. 10a's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Keyswitch hints.
    Ksh,
    /// Program inputs (fresh ciphertexts, plaintext weights).
    Input,
    /// Intermediate values reloaded after eviction.
    IntermLoad,
    /// Intermediate values written back on eviction.
    IntermStore,
}

impl TrafficClass {
    /// All traffic classes, in Fig. 10a's order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::Ksh,
        TrafficClass::Input,
        TrafficClass::IntermLoad,
        TrafficClass::IntermStore,
    ];
}

/// Identifier of a value (ciphertext polynomial pair, plaintext, or hint)
/// tracked by the machine's register-file residency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u64);

/// Attribution label for statistics (which benchmark phase an op belongs
/// to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpLabel {
    /// Application (useful) computation.
    App,
    /// Bootstrapping computation.
    Bootstrap,
}

/// A macro-operation: the resource profile of one polynomial-level
/// operation (or one fused keyswitch pipeline, Sec. 5.4).
///
/// Work is expressed in *residue-polynomial passes*: one pass streams `N`
/// elements through an FU at `E` lanes, taking `N/E` issue cycles. The
/// machine turns passes into cycles using its FU counts, and register-file /
/// network word counts into cycles using its bandwidths; the op's duration
/// is set by its bottleneck resource.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MacroOp {
    /// Residue-polynomial passes required per FU kind.
    pub fu_passes: Vec<(FuKind, u64)>,
    /// Words moved through the register file (reads + writes). Vector
    /// chaining reduces this without changing `fu_passes`.
    pub rf_words: u64,
    /// Words crossing the inter-lane-group network (transposes for
    /// NTT/automorphism on CraterLake; residue-polynomial redistribution on
    /// cluster architectures like F1+).
    pub net_words: u64,
    /// Extra scalar multiplies not captured by `fu_passes` granularity
    /// (used for energy accounting of CRB internals).
    pub scalar_muls: u64,
}

impl MacroOp {
    /// A no-resource op (useful as a starting point for builders).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `passes` residue-polynomial passes on `fu`.
    pub fn with_fu(mut self, fu: FuKind, passes: u64) -> Self {
        if passes > 0 {
            if let Some(e) = self.fu_passes.iter_mut().find(|(k, _)| *k == fu) {
                e.1 += passes;
            } else {
                self.fu_passes.push((fu, passes));
            }
        }
        self
    }

    /// Adds register-file traffic in words.
    pub fn with_rf_words(mut self, words: u64) -> Self {
        self.rf_words += words;
        self
    }

    /// Adds inter-group network traffic in words.
    pub fn with_net_words(mut self, words: u64) -> Self {
        self.net_words += words;
        self
    }

    /// Adds scalar-multiply energy accounting.
    pub fn with_scalar_muls(mut self, muls: u64) -> Self {
        self.scalar_muls += muls;
        self
    }

    /// Passes on a given FU kind.
    pub fn passes(&self, fu: FuKind) -> u64 {
        self.fu_passes
            .iter()
            .find(|(k, _)| *k == fu)
            .map(|(_, p)| *p)
            .unwrap_or(0)
    }

    /// Merges another op's resource profile into this one (for fused
    /// pipelines).
    pub fn merge(&mut self, other: &MacroOp) {
        for &(fu, p) in &other.fu_passes {
            if let Some(e) = self.fu_passes.iter_mut().find(|(k, _)| *k == fu) {
                e.1 += p;
            } else {
                self.fu_passes.push((fu, p));
            }
        }
        self.rf_words += other.rf_words;
        self.net_words += other.net_words;
        self.scalar_muls += other.scalar_muls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let op = MacroOp::new()
            .with_fu(FuKind::Ntt, 4)
            .with_fu(FuKind::Ntt, 2)
            .with_fu(FuKind::Mul, 1)
            .with_rf_words(100)
            .with_net_words(50);
        assert_eq!(op.passes(FuKind::Ntt), 6);
        assert_eq!(op.passes(FuKind::Mul), 1);
        assert_eq!(op.passes(FuKind::Crb), 0);
        assert_eq!(op.rf_words, 100);
        assert_eq!(op.net_words, 50);
    }

    #[test]
    fn merge_sums_profiles() {
        let mut a = MacroOp::new().with_fu(FuKind::Add, 3).with_rf_words(10);
        let b = MacroOp::new()
            .with_fu(FuKind::Add, 2)
            .with_fu(FuKind::Crb, 5)
            .with_net_words(7);
        a.merge(&b);
        assert_eq!(a.passes(FuKind::Add), 5);
        assert_eq!(a.passes(FuKind::Crb), 5);
        assert_eq!(a.rf_words, 10);
        assert_eq!(a.net_words, 7);
    }

    #[test]
    fn zero_passes_not_recorded() {
        let op = MacroOp::new().with_fu(FuKind::Mul, 0);
        assert!(op.fu_passes.is_empty());
    }
}
