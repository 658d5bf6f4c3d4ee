//! The machine executor: resource timelines, residency, and DMA.
//!
//! The hardware is statically scheduled with no dynamic control (Sec. 4.1),
//! so execution time is fully determined by resource occupancy. The machine
//! tracks one timeline per shared resource — each FU kind, the register-file
//! ports, the inter-group network, and the HBM interface — plus
//! register-file *capacity* with Belady (MIN) eviction, the policy the
//! paper's compiler uses (Sec. 6).
//!
//! Memory transfers are decoupled from compute (Sec. 4.1: "decoupled data
//! orchestration"): the HBM timeline advances independently, so loads only
//! delay an operation when bandwidth (not latency) is the constraint —
//! exactly the behaviour of ahead-of-use staging.
//!
//! Host cost is per op, not per op × values: values live in a table indexed
//! by [`ValueId`], per-kind accumulators are arrays, and the eviction victim
//! is the greatest element of an ordered index over the *resident* values
//! (see [`Machine::make_room`]), so an op costs `O(log R)` for `R` resident
//! values however many were ever declared.

use std::collections::BTreeSet;

use cl_isa::{FuKind, MacroOp, OpLabel, TrafficClass, ValueId};

use crate::{ArchConfig, Stats};

/// How a value behaves under the residency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueClass {
    /// Read-only, backed by memory (inputs, weights, keyswitch hints):
    /// evicted silently, reloaded with its traffic class.
    Backed(TrafficClass),
    /// Produced on chip: eviction writes it back (`IntermStore`), reloading
    /// costs `IntermLoad`.
    Intermediate,
}

#[derive(Debug, Clone)]
struct ValueState {
    words: u64,
    class: ValueClass,
    resident: bool,
    /// Cycle at which the value is available on chip.
    ready: f64,
    /// Next op index that uses this value (u32::MAX = never again).
    next_use: u32,
    /// Whether the value has ever been loaded (first load of a `Backed`
    /// value counts as its class; later reloads of intermediates count as
    /// IntermLoad).
    materialized: bool,
}

/// Eviction rank of a resident value: `(score, words, id)`, greatest evicted
/// first (see [`Machine::make_room`]).
type Rank = (u64, u64, u64);

impl ValueState {
    fn rank(&self, id: ValueId) -> Rank {
        // Twice the score `make_room` documents, so that halving an
        // intermediate's position stays in integers.
        let score = match (self.next_use, self.class) {
            (u32::MAX, _) => u64::MAX,
            (next_use, ValueClass::Backed(_)) => 2 * u64::from(next_use),
            (next_use, ValueClass::Intermediate) => u64::from(next_use),
        };
        (score, self.words, id.0)
    }
}

/// Position of a value in the machine's table.
fn slot(id: ValueId) -> usize {
    usize::try_from(id.0).expect("value ids index a table in memory")
}

/// The machine: executes macro-ops in schedule order.
///
/// The compiler drives it through three calls:
/// 1. [`Machine::declare`] each value (size + class) once,
/// 2. [`Machine::exec`] each macro-op with its reads/writes and next-use
///    information (for Belady),
/// 3. [`Machine::finish`] to close the schedule and read [`Stats`].
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: ArchConfig,
    /// Per FU kind (indexed `kind as usize`): instances, next-free cycle,
    /// instance-busy cycles so far.
    fu_count: [f64; FuKind::ALL.len()],
    fu_free: [f64; FuKind::ALL.len()],
    fu_busy: [f64; FuKind::ALL.len()],
    rf_free: f64,
    net_free: f64,
    hbm_free: f64,
    /// Completion time of the latest op (running makespan).
    makespan: f64,
    /// Indexed by [`slot`]; `None` where no value was declared.
    values: Vec<Option<ValueState>>,
    resident_words: u64,
    /// The rank of every resident value, and of nothing else.
    residency: BTreeSet<Rank>,
    /// Off-chip bytes so far per traffic class (indexed `class as usize`).
    traffic_bytes: [f64; TrafficClass::ALL.len()],
    /// Cycles so far per label (indexed `label as usize`).
    phase_cycles: [f64; 2],
    /// The scalar statistics accumulate in place; the three per-kind maps
    /// are filled from the arrays above by [`Machine::finish`].
    stats: Stats,
}

impl Machine {
    /// Creates a machine for the given architecture.
    pub fn new(cfg: ArchConfig) -> Self {
        Self {
            fu_count: FuKind::ALL.map(|kind| cfg.fu_count(kind)),
            fu_free: [0.0; FuKind::ALL.len()],
            fu_busy: [0.0; FuKind::ALL.len()],
            rf_free: 0.0,
            net_free: 0.0,
            hbm_free: 0.0,
            makespan: 0.0,
            values: Vec::new(),
            resident_words: 0,
            residency: BTreeSet::new(),
            traffic_bytes: [0.0; TrafficClass::ALL.len()],
            phase_cycles: [0.0; 2],
            stats: Stats::default(),
            cfg,
        }
    }

    /// The architecture being modeled.
    pub fn config(&self) -> &ArchConfig {
        &self.cfg
    }

    /// Declares a value (its size in words and residency class). Must
    /// precede any use. Values are kept in a table indexed by id, so ids
    /// should be dense: the table is as long as the largest id declared.
    ///
    /// # Panics
    ///
    /// Panics if the value was already declared.
    pub fn declare(&mut self, id: ValueId, words: u64, class: ValueClass) {
        let slot = slot(id);
        if slot >= self.values.len() {
            self.values.resize_with(slot + 1, || None);
        }
        let prev = self.values[slot].replace(ValueState {
            words,
            class,
            resident: false,
            ready: 0.0,
            next_use: u32::MAX,
            materialized: false,
        });
        assert!(prev.is_none(), "value {id:?} declared twice");
    }

    fn value(&self, id: ValueId) -> Option<&ValueState> {
        self.values.get(slot(id))?.as_ref()
    }

    /// True if the value is currently resident on chip.
    pub fn is_resident(&self, id: ValueId) -> bool {
        self.value(id).is_some_and(|v| v.resident)
    }

    fn word_bytes(&self) -> f64 {
        self.cfg.word_bytes()
    }

    /// Sets a declared value's residency and next use. Nothing else writes
    /// `resident` or `next_use` once [`Machine::declare`] has initialized
    /// them, so `residency` and `resident_words` cannot fall out of step
    /// with them.
    fn set_residency(&mut self, id: ValueId, resident: bool, next_use: u32) {
        let v = self.values[slot(id)]
            .as_mut()
            .expect("residency is set on declared values only");
        if v.resident {
            self.residency.remove(&v.rank(id));
            self.resident_words -= v.words;
        }
        v.resident = resident;
        v.next_use = next_use;
        if resident {
            self.residency.insert(v.rank(id));
            self.resident_words += v.words;
        }
    }

    /// Evicts values until `needed` words fit. Dirty intermediates are
    /// written back.
    ///
    /// Victim selection is Belady's MIN adapted to variable-size,
    /// variable-cost values: the resident value with the greatest
    /// `(score, words, id)` goes first.
    ///
    /// - `score` is `+inf` for a value with no future use (dead, or dying
    ///   within the current op: free to drop), the position of its next use
    ///   for a memory-backed value, and *half* that position for an
    ///   intermediate — displacing a dirty intermediate costs a writeback
    ///   and a reload, matching the paper's compiler preference for evicting
    ///   clean operands like hints and weights. Positions are absolute op
    ///   indices, not distances from the current op.
    /// - Equal scores evict the larger value, and equal sizes the larger
    ///   [`ValueId`], so the choice never depends on iteration order.
    fn make_room(&mut self, needed: u64) {
        let capacity_words = (self.cfg.rf_bytes as f64 / self.word_bytes()) as u64;
        assert!(
            needed <= capacity_words,
            "operand set ({needed} words) exceeds register file ({capacity_words} words)"
        );
        while self.resident_words + needed > capacity_words {
            let &(_, words, victim) = self
                .residency
                .last()
                .expect("capacity exceeded but nothing resident");
            let victim = ValueId(victim);
            let v = self.value(victim).expect("resident values are declared");
            let (class, next_use) = (v.class, v.next_use);
            self.set_residency(victim, false, next_use);
            self.stats.evictions += 1;
            // A dead value (no future use) is discarded for free; a live
            // dirty intermediate must be written back before reuse.
            if class == ValueClass::Intermediate && next_use != u32::MAX {
                self.stats.evictions_dirty += 1;
                let bytes = words as f64 * self.word_bytes();
                self.traffic_bytes[TrafficClass::IntermStore as usize] += bytes;
                self.hbm_free += words as f64 / self.cfg.hbm_words_per_cycle();
                self.stats.hbm_busy += words as f64 / self.cfg.hbm_words_per_cycle();
            }
        }
    }

    /// Ensures a value is resident, DMA-loading it if needed. Returns the
    /// cycle at which it is available.
    fn touch(&mut self, id: ValueId, next_use: u32) -> f64 {
        let v = self
            .value(id)
            .unwrap_or_else(|| panic!("use of undeclared value {id:?}"));
        let (resident, words, class, ready, materialized) =
            (v.resident, v.words, v.class, v.ready, v.materialized);
        if resident {
            self.set_residency(id, true, next_use);
            return ready;
        }
        // Load it: make room, then stream from HBM.
        self.make_room(words);
        let load_class = match class {
            ValueClass::Backed(c) => c,
            ValueClass::Intermediate => {
                assert!(
                    materialized,
                    "intermediate {id:?} used before being produced"
                );
                TrafficClass::IntermLoad
            }
        };
        let bytes = words as f64 * self.word_bytes();
        self.traffic_bytes[load_class as usize] += bytes;
        let dma_cycles = words as f64 / self.cfg.hbm_words_per_cycle();
        let done = self.hbm_free + dma_cycles;
        self.hbm_free = done;
        self.stats.hbm_busy += dma_cycles;
        self.arrive(id, done, next_use);
        done
    }

    /// Records that a value is on chip from cycle `ready` on (loaded or
    /// produced).
    fn arrive(&mut self, id: ValueId, ready: f64, next_use: u32) {
        let v = self.values[slot(id)]
            .as_mut()
            .expect("arriving values are declared");
        v.ready = ready;
        v.materialized = true;
        self.set_residency(id, true, next_use);
    }

    /// Frees a value that will never be used again (no writeback).
    pub fn release(&mut self, id: ValueId) {
        if self.value(id).is_some() {
            self.set_residency(id, false, u32::MAX);
        }
    }

    /// Executes one macro-op.
    ///
    /// `reads` pairs each input value with the index of the *next* op that
    /// will use it (`u32::MAX` if this is the last use — it is then
    /// released). `writes` lists values this op produces with the index of
    /// their first use. `n` is the ring degree the op operates at.
    ///
    /// Returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if a value was not declared, or an intermediate is read
    /// before being produced.
    pub fn exec(
        &mut self,
        op: &MacroOp,
        n: usize,
        reads: &[(ValueId, u32)],
        writes: &[(ValueId, u32)],
        label: OpLabel,
    ) -> f64 {
        // 1. Bring operands on chip.
        let mut ready = 0.0f64;
        for &(id, next_use) in reads {
            let r = self.touch(id, next_use);
            ready = ready.max(r);
        }
        // 2. Room for outputs.
        let out_words: u64 = writes
            .iter()
            .map(|&(id, _)| self.value(id).expect("undeclared output").words)
            .sum();
        self.make_room(out_words);
        // 3. Resource occupancy.
        let pass = self.cfg.pass_cycles(n);
        let mut start = ready;
        // FU availability.
        for &(fu, passes) in &op.fu_passes {
            if passes == 0 {
                continue;
            }
            assert!(
                self.fu_count[fu as usize] > 0.0,
                "op uses absent FU {fu:?} on {}",
                self.cfg.name
            );
            start = start.max(self.fu_free[fu as usize]);
        }
        if op.rf_words > 0 {
            start = start.max(self.rf_free);
        }
        if op.net_words > 0 {
            start = start.max(self.net_free);
        }
        let mut dur = 0.0f64;
        for &(fu, passes) in &op.fu_passes {
            if passes == 0 {
                continue;
            }
            let busy = passes as f64 * pass / self.fu_count[fu as usize];
            self.fu_free[fu as usize] = start + busy;
            self.fu_busy[fu as usize] += passes as f64 * pass;
            dur = dur.max(busy);
        }
        if op.rf_words > 0 {
            let busy = op.rf_words as f64 / self.cfg.rf_words_per_cycle();
            self.rf_free = self.rf_free.max(start) + busy;
            self.stats.rf_busy += busy;
            self.stats.rf_words += op.rf_words as f64;
            dur = dur.max(self.rf_free - start);
        }
        if op.net_words > 0 {
            let busy = op.net_words as f64 / self.cfg.net_words_per_cycle;
            self.net_free = self.net_free.max(start) + busy;
            self.stats.net_busy += busy;
            self.stats.net_words += op.net_words as f64;
            dur = dur.max(self.net_free - start);
        }
        let done = start + dur;
        self.makespan = self.makespan.max(done);
        self.stats.scalar_ops += op.scalar_muls as f64;
        self.stats.macro_ops += 1;
        self.phase_cycles[label as usize] += dur;
        // 4. Record outputs.
        for &(id, first_use) in writes {
            self.arrive(id, done, first_use);
        }
        // 5. Release dead reads.
        for &(id, next_use) in reads {
            if next_use == u32::MAX {
                // Backed values stay cached until evicted; intermediates die.
                if self.value(id).map(|v| v.class) == Some(ValueClass::Intermediate) {
                    self.release(id);
                }
            }
        }
        done
    }

    /// Closes the schedule: the total time covers both compute and any
    /// outstanding DMA.
    pub fn finish(mut self) -> Stats {
        self.stats.cycles = self.makespan.max(self.hbm_free);
        // A kind, class or label nothing was charged to stays absent.
        for (kind, busy) in FuKind::ALL.into_iter().zip(self.fu_busy) {
            if busy > 0.0 {
                self.stats.fu_busy.insert(kind, busy);
            }
        }
        for (class, bytes) in TrafficClass::ALL.into_iter().zip(self.traffic_bytes) {
            if bytes > 0.0 {
                self.stats.add_traffic(class, bytes);
            }
        }
        for (label, cycles) in [OpLabel::App, OpLabel::Bootstrap]
            .into_iter()
            .zip(self.phase_cycles)
        {
            if cycles > 0.0 {
                self.stats.phase_cycles.insert(label, cycles);
            }
        }
        self.stats
    }

    /// Current makespan (for tests and incremental inspection).
    pub fn now(&self) -> f64 {
        self.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn machine() -> Machine {
        Machine::new(ArchConfig::craterlake())
    }

    const N: usize = 1 << 16;

    #[test]
    fn single_op_duration_is_bottleneck_fu() {
        let mut m = machine();
        m.declare(ValueId(1), 100, ValueClass::Intermediate);
        // 4 NTT passes on 2 NTT FUs at 32 cycles/pass = 64 cycles.
        let op = MacroOp::new().with_fu(FuKind::Ntt, 4);
        let done = m.exec(&op, N, &[], &[(ValueId(1), u32::MAX)], OpLabel::App);
        assert!((done - 64.0).abs() < 1e-9);
        let stats = m.finish();
        assert!((stats.cycles - 64.0).abs() < 1e-9);
        // 2 FUs busy 64 cycles each... busy = passes * pass = 128 instance-cycles.
        assert!((stats.fu_busy[&FuKind::Ntt] - 128.0).abs() < 1e-9);
    }

    #[test]
    fn independent_fu_kinds_overlap() {
        let mut m = machine();
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        let ntt = MacroOp::new().with_fu(FuKind::Ntt, 2);
        let mul = MacroOp::new().with_fu(FuKind::Mul, 5);
        m.exec(&ntt, N, &[], &[(ValueId(1), 1)], OpLabel::App);
        m.exec(&mul, N, &[], &[(ValueId(2), u32::MAX)], OpLabel::App);
        // NTT: 2/2*32 = 32 cycles; Mul: 5/5*32 = 32 cycles; they overlap.
        let stats = m.finish();
        assert!((stats.cycles - 32.0).abs() < 1e-9);
    }

    #[test]
    fn same_fu_kind_serializes() {
        let mut m = machine();
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        let op = MacroOp::new().with_fu(FuKind::Crb, 3);
        m.exec(&op, N, &[], &[(ValueId(1), 1)], OpLabel::App);
        m.exec(&op, N, &[], &[(ValueId(2), u32::MAX)], OpLabel::App);
        // 3 passes on 1 CRB = 96 cycles each, serialized = 192.
        let stats = m.finish();
        assert!((stats.cycles - 192.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut m = machine();
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        let produce = MacroOp::new().with_fu(FuKind::Ntt, 2);
        let consume = MacroOp::new().with_fu(FuKind::Mul, 5);
        m.exec(&produce, N, &[], &[(ValueId(1), 1)], OpLabel::App);
        let done = m.exec(
            &consume,
            N,
            &[(ValueId(1), u32::MAX)],
            &[(ValueId(2), u32::MAX)],
            OpLabel::App,
        );
        // 32 (NTT) + 32 (Mul) since Mul depends on the NTT result.
        assert!((done - 64.0).abs() < 1e-9);
    }

    #[test]
    fn backed_load_counts_traffic_once_and_caches() {
        let mut m = machine();
        let ksh = ValueId(7);
        let words = 1_000_000u64;
        m.declare(ksh, words, ValueClass::Backed(TrafficClass::Ksh));
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        let op = MacroOp::new().with_fu(FuKind::Mul, 1);
        m.exec(&op, N, &[(ksh, 1)], &[(ValueId(1), u32::MAX)], OpLabel::App);
        m.exec(&op, N, &[(ksh, u32::MAX)], &[(ValueId(2), u32::MAX)], OpLabel::App);
        let stats = m.finish();
        let expect_bytes = words as f64 * 3.5;
        assert!((stats.traffic_of(TrafficClass::Ksh) - expect_bytes).abs() < 1.0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn capacity_pressure_evicts_farthest_and_writes_back_intermediates() {
        let mut cfg = ArchConfig::craterlake();
        cfg.rf_bytes = 3_500_000; // 1M words
        let mut m = Machine::new(cfg);
        // Three 400K-word intermediates: only two fit.
        for i in 0..3u64 {
            m.declare(ValueId(i), 400_000, ValueClass::Intermediate);
        }
        let op = MacroOp::new().with_fu(FuKind::Add, 1);
        // Produce v0 (next use far: op 10), v1 (next use soon: op 3).
        m.exec(&op, N, &[], &[(ValueId(0), 10)], OpLabel::App);
        m.exec(&op, N, &[], &[(ValueId(1), 3)], OpLabel::App);
        // Producing v2 must evict v0 (farthest next use).
        m.exec(&op, N, &[], &[(ValueId(2), 4)], OpLabel::App);
        assert!(!m.is_resident(ValueId(0)));
        assert!(m.is_resident(ValueId(1)));
        assert!(m.is_resident(ValueId(2)));
        // Reading v0 again triggers IntermLoad after its IntermStore.
        m.exec(&op, N, &[(ValueId(0), u32::MAX)], &[], OpLabel::App);
        let stats = m.finish();
        // v0 evicted to fit v2, then another eviction to reload v0.
        assert_eq!(stats.evictions, 2);
        assert!(stats.traffic_of(TrafficClass::IntermStore) > 0.0);
        assert!(stats.traffic_of(TrafficClass::IntermLoad) > 0.0);
    }

    #[test]
    fn decoupled_dma_overlaps_compute() {
        let mut m = machine();
        // A large backed operand and plenty of compute to hide its load.
        m.declare(ValueId(1), 292_000, ValueClass::Backed(TrafficClass::Input));
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        m.declare(ValueId(3), 1, ValueClass::Intermediate);
        // First: a long compute op (no operands).
        let long = MacroOp::new().with_fu(FuKind::Crb, 100); // 3200 cycles
        m.exec(&long, N, &[], &[(ValueId(2), u32::MAX)], OpLabel::App);
        // Then an op reading the operand; its ~1000-cycle DMA started at
        // time 0 on the decoupled HBM timeline, so no stall.
        let short = MacroOp::new().with_fu(FuKind::Mul, 1);
        let done = m.exec(
            &short,
            N,
            &[(ValueId(1), u32::MAX)],
            &[(ValueId(3), u32::MAX)],
            OpLabel::App,
        );
        assert!(done <= 3200.0 + 32.0 + 1e-9, "load was hidden: {done}");
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_value_panics() {
        let mut m = machine();
        let op = MacroOp::new().with_fu(FuKind::Mul, 1);
        m.exec(&op, N, &[(ValueId(99), 0)], &[], OpLabel::App);
    }

    #[test]
    #[should_panic(expected = "absent FU")]
    fn absent_fu_panics() {
        let mut m = Machine::new(ArchConfig::f1_plus());
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        let op = MacroOp::new().with_fu(FuKind::Crb, 1);
        m.exec(&op, N, &[], &[(ValueId(1), u32::MAX)], OpLabel::App);
    }

    #[test]
    fn rf_bandwidth_limits_duration() {
        let mut m = machine();
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        // 1 Mul pass (32 cycles of FU time) but huge RF traffic:
        // 2,457,600 words / 24,576 words-per-cycle = 100 cycles.
        let op = MacroOp::new().with_fu(FuKind::Mul, 1).with_rf_words(2_457_600);
        let done = m.exec(&op, N, &[], &[(ValueId(1), u32::MAX)], OpLabel::App);
        assert!((done - 100.0).abs() < 1e-6, "got {done}");
    }

    /// The victim the linear scan that `residency` replaced would pick: the
    /// greatest `(score, words, id)` over every resident value, with the
    /// score in floats, as [`Machine::make_room`] documents it.
    fn scan_victim(m: &Machine) -> Option<ValueId> {
        let score = |v: &ValueState| match (v.next_use, v.class) {
            (u32::MAX, _) => f64::INFINITY,
            (next_use, ValueClass::Backed(_)) => next_use as f64,
            (next_use, ValueClass::Intermediate) => next_use as f64 * 0.5,
        };
        let resident = m.values.iter().enumerate().filter_map(|(i, v)| {
            let v = v.as_ref().filter(|v| v.resident)?;
            Some((score(v), v.words, ValueId(i as u64)))
        });
        resident
            .max_by(|a, b| a.partial_cmp(b).expect("scores are never NaN"))
            .map(|(_, _, id)| id)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn residency_index_tracks_the_resident_set_and_picks_the_scan_victim(
            sizes in proptest::collection::vec(1u64..16, 4..14),
            ops in proptest::collection::vec(any::<u64>(), 1..60),
        ) {
            // A register file a few values wide: 40 words of 3.5 bytes.
            const CAPACITY: u64 = 40;
            let mut cfg = ArchConfig::craterlake();
            cfg.rf_bytes = 140;
            let mut m = Machine::new(cfg);
            // Even ids are memory-backed, odd ones are produced on chip.
            let is_backed = |id: u64| id.is_multiple_of(2);
            for (id, &words) in sizes.iter().enumerate() {
                let id = id as u64;
                let class = if is_backed(id) {
                    ValueClass::Backed(TrafficClass::Input)
                } else {
                    ValueClass::Intermediate
                };
                m.declare(ValueId(id), words, class);
            }
            let mut produced = vec![false; sizes.len()];
            let op = MacroOp::new().with_fu(FuKind::Add, 1);
            for (pos, bytes) in ops.iter().map(|op| op.to_le_bytes()).enumerate() {
                // Next uses need not be truthful for residency to stay
                // consistent: some future position, or never.
                let next_use = |b: u8| match b % 4 {
                    0 => u32::MAX,
                    _ => pos as u32 + 1 + u32::from(b / 4 % 8),
                };
                let pick = |b: u8| u64::from(b) % sizes.len() as u64;
                // Up to two reads of values that exist off or on chip, and
                // up to one write of an intermediate.
                let reads: Vec<(ValueId, u32)> = [(bytes[0], bytes[1]), (bytes[2], bytes[3])]
                    .iter()
                    .map(|&(which, nu)| (pick(which), next_use(nu)))
                    .filter(|&(id, _)| is_backed(id) || produced[id as usize])
                    .map(|(id, nu)| (ValueId(id), nu))
                    .collect();
                let writes: Vec<(ValueId, u32)> = Some(pick(bytes[4]))
                    .filter(|&id| !is_backed(id))
                    .map(|id| (ValueId(id), next_use(bytes[5])))
                    .into_iter()
                    .collect();
                m.exec(&op, N, &reads, &writes, OpLabel::App);
                for &(id, _) in &writes {
                    produced[id.0 as usize] = true;
                }

                let resident = || {
                    m.values
                        .iter()
                        .enumerate()
                        .filter_map(|(i, v)| Some((ValueId(i as u64), v.as_ref()?)))
                        .filter(|(_, v)| v.resident)
                };
                prop_assert_eq!(m.resident_words, resident().map(|(_, v)| v.words).sum::<u64>());
                prop_assert!(m.resident_words <= CAPACITY);
                let ranks: BTreeSet<Rank> = resident().map(|(id, v)| v.rank(id)).collect();
                prop_assert_eq!(&m.residency, &ranks);

                // Drain a copy one eviction at a time: every victim is the
                // one the scan picks.
                let mut drained = m.clone();
                while let Some(victim) = scan_victim(&drained) {
                    let evictions = drained.stats.evictions;
                    drained.make_room(CAPACITY - drained.resident_words + 1);
                    prop_assert_eq!(drained.stats.evictions, evictions + 1);
                    prop_assert!(!drained.is_resident(victim), "op {pos}: {victim:?} stayed");
                }
                prop_assert!(drained.residency.is_empty());
            }
        }
    }
}
