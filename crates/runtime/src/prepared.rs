//! Prepared programs: what running a [`Program`] needs that depends only
//! on the program, built once and shared by every run.
//!
//! A served program runs once per job, and each run used to redo the same
//! work before any ciphertext was touched: build the micro-op schedule and,
//! at every plaintext operand, take the inverse canonical embedding of its
//! values and round them to integer coefficients. A [`PreparedProgram`]
//! holds the schedule and a memo of those rounded coefficients, so a run
//! only reduces them into its limbs and takes them to NTT form — the part
//! that depends on the ciphertext's level. The compiler of the paper makes
//! this kind of reuse statically (Sec. 6); here it is made on first use.
//!
//! It also holds what the program's def/use says about how it may run,
//! derived once from what each op reads and writes of the accumulator and
//! the slots:
//!
//! - its *inner sums* ([`PreparedProgram::inner_sums`]): the micro-op runs
//!   the lowering emits for one BSGS giant group's sum of plaintext
//!   products, each run as one fused step;
//! - its *waves* ([`PreparedProgram::waves`]). A *segment* starts at an op
//!   that overwrites the accumulator without reading it (`Load`, `Input`)
//!   or at an inner sum, and runs to the next. A wave is a run of two or
//!   more segments, none holding a `Bootstrap`, of which only the first
//!   may read the accumulator it starts with. Each segment's *body* is its
//!   prefix up to its first read of a slot that an earlier segment of the
//!   wave writes (or nothing, when that prefix only moves references); its
//!   *tail* is the rest. A segment whose very first op reads such a slot
//!   has nothing to overlap, so it starts the next wave instead. Bodies
//!   read nothing an earlier segment writes, so the executor runs them
//!   side by side from the wave-start state, then applies each body's
//!   slot writes and runs its tail in program order; on `lola_mlp_8k` a
//!   wave is one layer's giant groups, each body a group's inner sum and
//!   giant rotation;
//! - the live-ciphertext count at every micro-op boundary, as that
//!   schedule holds them ([`peak_live_cts`] is its maximum): the figure
//!   the executor reports and the compiler predicts, one function for
//!   both.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::mem::{size_of, size_of_val};
use std::ops::Range;
use std::sync::Arc;

use cl_ckks::{Cache, CacheStats, CkksContext};

use crate::program::{PipelineOp, Program};

/// Byte cap of one prepared program's coefficient memo, whatever the
/// program's size: 128 operands' worth at N = 8K. A program with more
/// plaintext operands than fit memoizes those that come first and rounds
/// the rest on every run, as an unprepared run does.
pub const COEFF_MEMO_BYTES: usize = 8 << 20;

/// A [`Program`] ready to run many times, on one executor after another or
/// on several threads at once.
///
/// It holds the program (owned, or borrowed for one call), its micro-op
/// schedule and a memo of its plaintext operands' rounded coefficients
/// ([`CkksContext::encode_coeffs`]), keyed by `(op index, scale)`: the
/// coefficients depend only on the values, the scale and the ring degree.
/// The memo fills the first time a run reaches an op at a scale. It covers
/// the operands that fit [`COEFF_MEMO_BYTES`] in program order and is a
/// bounded [`Cache`] with room for one vector each, one scale's worth,
/// evicting least recently used beyond that — a program run at two input
/// scales stays correct and bit-identical, it only rounds again.
///
/// The memo keeps coefficients, not NTT-form plaintexts: a plaintext is as
/// large as its coefficients times its limb count, and every run still
/// performs each operand's reduction and NTT, so op counts stay what
/// `predict_program` charges.
///
/// Its inner sums ([`PreparedProgram::inner_sums`]) and waves
/// ([`PreparedProgram::waves`]) list the schedule ranges the executor runs
/// as one step each, and its live table the live-ciphertext count at every
/// boundary of that schedule.
#[derive(Debug)]
pub struct PreparedProgram<'p> {
    program: Cow<'p, Program>,
    schedule: Vec<(usize, usize)>,
    dataflow: Dataflow,
    ring_degree: usize,
    /// Ops before this index have their operands memoized.
    memo_end: usize,
    resident_bytes: usize,
    coeffs: Cache<(usize, u64), Vec<i64>>,
}

impl PreparedProgram<'static> {
    /// Prepares `program` for contexts of `ctx`'s ring degree, taking
    /// ownership — the form a server keeps across jobs.
    pub fn new(ctx: &CkksContext, program: Program) -> Self {
        Self::prepare(ctx, Cow::Owned(program), COEFF_MEMO_BYTES)
    }
}

impl<'p> PreparedProgram<'p> {
    /// Prepares a borrowed `program` for contexts of `ctx`'s ring degree,
    /// without copying its ops.
    pub fn borrowed(ctx: &CkksContext, program: &'p Program) -> Self {
        Self::borrowed_with_memo(ctx, program, COEFF_MEMO_BYTES)
    }

    /// [`PreparedProgram::borrowed`] with a memo of at most `memo_cap`
    /// bytes; 0 for a program run once, which has nothing to reuse.
    pub(crate) fn borrowed_with_memo(
        ctx: &CkksContext,
        program: &'p Program,
        memo_cap: usize,
    ) -> Self {
        Self::prepare(ctx, Cow::Borrowed(program), memo_cap)
    }

    fn prepare(ctx: &CkksContext, program: Cow<'p, Program>, memo_cap: usize) -> Self {
        let ring_degree = ctx.params().ring_degree();
        let vector_bytes = ring_degree * size_of::<i64>();
        let ops = program.ops();
        let mut operands = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.plain_values().is_some());
        let memoized = operands.by_ref().take(memo_cap / vector_bytes).count();
        let memo_end = operands.next().map_or(ops.len(), |(i, _)| i);
        let memo_bytes = memoized * vector_bytes;
        let values: usize = ops
            .iter()
            .filter_map(PipelineOp::plain_values)
            .map(size_of_val)
            .sum();
        Self {
            schedule: program.micro_schedule(),
            dataflow: Dataflow::of(ops),
            resident_bytes: size_of_val(ops) + values + memo_bytes,
            program,
            ring_degree,
            memo_end,
            coeffs: Cache::bounded(memo_bytes, |c: &Vec<i64>| c.len() * size_of::<i64>()),
        }
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The ring degree of the contexts this program was prepared for.
    pub(crate) fn ring_degree(&self) -> usize {
        self.ring_degree
    }

    /// `(op index, stage within op)` per micro-op
    /// ([`Program::micro_schedule`]).
    pub(crate) fn schedule(&self) -> &[(usize, usize)] {
        &self.schedule
    }

    /// The program's inner sums, as ranges of micro-op indices (program
    /// counters) in program order: each is the longest run of the pattern
    /// the lowering emits for one BSGS giant group's sum of plaintext
    /// products,
    ///
    /// - a head `[Load(b)] MulPlain [Free(b)] Store(s)`, its `Load` left
    ///   out when the head multiplies the accumulator itself,
    /// - then one or more terms
    ///   `Load(b) MulPlain [Free(b)] AddSlot(s) Free(s) [Store(s')]`,
    ///   where `b` is never the running sum's slot `s` and every term but
    ///   the last parks the sum again for the next one.
    ///
    /// Every op in the pattern is one micro-op, so a range spans exactly
    /// its ops.
    pub fn inner_sums(&self) -> &[Range<u64>] {
        &self.dataflow.inner_sums
    }

    /// The inner sum starting at program counter `pc`, if one does.
    pub(crate) fn inner_sum_at(&self, pc: u64) -> Option<&Range<u64>> {
        starting_at(&self.dataflow.inner_sums, pc, |r| r.start)
    }

    /// The program's waves (see the module docs), in program order.
    pub fn waves(&self) -> &[Wave] {
        &self.dataflow.waves
    }

    /// The wave starting at program counter `pc`, if one does.
    pub(crate) fn wave_at(&self, pc: u64) -> Option<&Wave> {
        starting_at(&self.dataflow.waves, pc, |w| w.range().start)
    }

    /// The most ciphertexts live at any boundary in `from..=to` (program
    /// counters) as the executor's schedule holds them: every slot plus
    /// the accumulator, and inside a wave the wave's peak.
    pub(crate) fn live_peak(&self, from: u64, to: u64) -> u64 {
        self.dataflow.live[from as usize..=to as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// The rounded coefficients of op `op`'s plaintext operand at `scale`,
    /// computed by `round` unless the memo holds them.
    pub(crate) fn coeffs(
        &self,
        op: usize,
        scale: f64,
        round: impl FnOnce() -> Vec<i64>,
    ) -> Arc<Vec<i64>> {
        if op < self.memo_end {
            self.coeffs.get_or_insert_with((op, scale.to_bits()), round)
        } else {
            Arc::new(round())
        }
    }

    /// Counters of the coefficient memo: a hit per operand served from it,
    /// a miss per operand rounded into it.
    pub fn memo_stats(&self) -> CacheStats {
        self.coeffs.stats()
    }

    /// An estimate of the bytes this prepared program can hold: its ops
    /// with their plaintext values, and the memo filled to its budget (at
    /// most [`COEFF_MEMO_BYTES`]).
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }
}

/// The most ciphertexts live at any micro-op boundary of `program` as the
/// executor runs it, waves side by side: every slot plus the accumulator
/// at each boundary, and inside each wave the wave's peak. It is the
/// executor's own accounting ([`crate::RecoveryTelemetry::peak_live_cts`]
/// of a run that passes every boundary), so a compiler that predicts a
/// program's residency calls this rather than replaying the program
/// itself.
pub fn peak_live_cts(program: &Program) -> u64 {
    Dataflow::of(program.ops())
        .live
        .into_iter()
        .max()
        .unwrap_or(1)
}

/// A wave of a prepared program (see the module docs): two or more
/// segments whose bodies the executor runs side by side from the
/// wave-start state, then each body's slot writes and its tail in program
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wave {
    segments: Vec<Segment>,
    /// The most ciphertexts the wave's schedule holds at once.
    peak: u64,
}

/// One segment of a wave, in program counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Run side by side with the wave's other bodies.
    pub(crate) body: Range<u64>,
    /// Run after the body's writes land, in program order; starts where
    /// the body ends.
    pub(crate) tail: Range<u64>,
    /// The slots the body writes (stores, hoists into or frees), each
    /// once: what the body's own copy of the slots hands back.
    pub(crate) writes: Vec<u16>,
}

impl Wave {
    /// The program counters the wave spans.
    pub fn range(&self) -> Range<u64> {
        let (first, last) = (&self.segments[0], &self.segments[self.segments.len() - 1]);
        first.body.start..last.tail.end
    }

    /// Each segment's body, in program order; none is empty.
    pub fn bodies(&self) -> impl Iterator<Item = Range<u64>> + '_ {
        self.segments.iter().map(|s| s.body.clone())
    }

    /// Each segment's tail, in program order; a tail may be empty.
    pub fn tails(&self) -> impl Iterator<Item = Range<u64>> + '_ {
        self.segments.iter().map(|s| s.tail.clone())
    }

    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segments
    }
}

/// The entry of `table` (sorted by `start`) that starts at `pc`, if one
/// does.
fn starting_at<T>(table: &[T], pc: u64, start: impl Fn(&T) -> u64) -> Option<&T> {
    let i = table.partition_point(|t| start(t) < pc);
    table.get(i).filter(|t| start(t) == pc)
}

/// What a program's def/use says about how it runs, in program counters.
#[derive(Debug)]
struct Dataflow {
    inner_sums: Vec<Range<u64>>,
    waves: Vec<Wave>,
    /// Live ciphertexts at each micro-op boundary, `0..=micro-ops`.
    live: Vec<u64>,
}

impl Dataflow {
    fn of(ops: &[PipelineOp]) -> Self {
        let mut pc_of = Vec::with_capacity(ops.len() + 1);
        pc_of.push(0u64);
        for op in ops {
            pc_of.push(pc_of[pc_of.len() - 1] + op.micro_ops() as u64);
        }
        let pcs = |r: &Range<usize>| pc_of[r.start]..pc_of[r.end];
        let sums = inner_sums(ops);
        let waves = waves(ops, &segments(ops, &sums));

        // Every slot plus the accumulator after each boundary, op by op;
        // each wave's peak from the slots live at its start.
        let mut live = vec![1u64];
        let mut names = BTreeSet::new();
        let mut peaks = Vec::with_capacity(waves.len());
        let mut next_wave = waves.iter().peekable();
        for (i, op) in ops.iter().enumerate() {
            if let Some(wave) = next_wave.next_if(|w| w[0].0.start == i) {
                peaks.push(wave_peak(ops, &names, wave));
            }
            op.apply_to_names(&mut names);
            live.extend(std::iter::repeat_n(names.len() as u64 + 1, op.micro_ops()));
        }
        let waves: Vec<Wave> = waves
            .iter()
            .zip(peaks)
            .map(|(segs, peak)| Wave {
                segments: segs
                    .iter()
                    .map(|(body, tail)| {
                        let writes: BTreeSet<u16> = ops[body.clone()]
                            .iter()
                            .flat_map(|op| op.slot_defs())
                            .copied()
                            .collect();
                        Segment {
                            body: pcs(body),
                            tail: pcs(tail),
                            writes: writes.into_iter().collect(),
                        }
                    })
                    .collect(),
                peak,
            })
            .collect();
        // Inside a wave no boundary of the op-by-op run exists on its own:
        // each interior boundary stands for the wave's schedule.
        for wave in &waves {
            let r = wave.range();
            live[r.start as usize + 1..r.end as usize].fill(wave.peak);
        }
        Self {
            inner_sums: sums.iter().map(pcs).collect(),
            waves,
            live,
        }
    }
}

/// The segments of `ops` as op ranges (see the module docs): a segment
/// starts at op 0, at each inner sum and at each `Load` or `Input` outside
/// one.
fn segments(ops: &[PipelineOp], sums: &[Range<usize>]) -> Vec<Range<usize>> {
    let mut starts = Vec::new();
    let mut sums = sums.iter().peekable();
    for (i, op) in ops.iter().enumerate() {
        while sums.next_if(|r| r.end <= i).is_some() {}
        let starts_here = match sums.peek() {
            Some(r) if r.start == i => true,
            Some(r) if r.start < i => false,
            _ => i == 0 || !op.reads_acc(),
        };
        if starts_here {
            starts.push(i);
        }
    }
    let ends = starts.iter().skip(1).copied().chain([ops.len()]);
    starts.iter().zip(ends).map(|(&a, b)| a..b).collect()
}

/// The waves among `segments`, each as its segments' `(body, tail)` op
/// ranges. A segment joins the wave before it when it holds no bootstrap,
/// overwrites the accumulator before reading it, and its body is not empty
/// for reading an earlier segment's write at its first op; otherwise it
/// starts the next wave. A body is cut at its first read of a slot that an
/// earlier segment of the wave writes and not the body itself, and is
/// empty when it would only move references: such a segment joins the
/// tail before it, or, leading a wave, runs before it. A wave keeps two or
/// more bodies.
fn waves(ops: &[PipelineOp], segments: &[Range<usize>]) -> Vec<Vec<(Range<usize>, Range<usize>)>> {
    let mut out = Vec::new();
    let mut wave: Vec<(Range<usize>, Range<usize>)> = Vec::new();
    // Slots the wave's segments so far write.
    let mut written = BTreeSet::<u16>::new();
    for seg in segments {
        let boot_free = !ops[seg.clone()].contains(&PipelineOp::Bootstrap);
        let joins = !wave.is_empty() && boot_free && !ops[seg.start].reads_acc();
        let mut cut = joins
            .then(|| first_exposed_read(ops, seg, &written))
            .flatten();
        if !joins || cut == Some(seg.start) {
            if wave.len() >= 2 {
                out.push(std::mem::take(&mut wave));
            } else {
                wave.clear();
            }
            written.clear();
            if !boot_free {
                continue;
            }
            cut = None;
        }
        let mut cut = cut.unwrap_or(seg.end);
        if ops[seg.start..cut].iter().all(PipelineOp::moves_only) {
            cut = seg.start;
        }
        written.extend(ops[seg.clone()].iter().flat_map(|op| op.slot_defs()));
        if cut > seg.start {
            wave.push((seg.start..cut, cut..seg.end));
        } else if let Some((_, tail)) = wave.last_mut() {
            tail.end = seg.end;
        }
        // (A leading segment with nothing to overlap runs before the wave:
        // the next segment starts it afresh.)
    }
    if wave.len() >= 2 {
        out.push(wave);
    }
    out
}

/// The first op of `seg` that reads a slot in `written` which no earlier
/// op of `seg` writes.
fn first_exposed_read(
    ops: &[PipelineOp],
    seg: &Range<usize>,
    written: &BTreeSet<u16>,
) -> Option<usize> {
    let mut own = BTreeSet::<u16>::new();
    seg.clone().find(|&i| {
        let exposed = ops[i]
            .slot_uses()
            .iter()
            .any(|s| written.contains(s) && !own.contains(s));
        own.extend(ops[i].slot_defs());
        exposed
    })
}

/// The most ciphertexts a wave's schedule holds at once, counted as the
/// executor counts a boundary — every slot name plus one per accumulator —
/// with `start` the slots live when the wave starts. The wave-start slots
/// and accumulator stay held throughout (the run's last good boundary).
/// Bodies run in program order, as at one thread: each holds its own
/// accumulator and the slots it has written, and a finished body's
/// accumulator and slots stay held until its tail. Then each body's
/// writes land and its tail runs, with the later bodies' results held.
fn wave_peak(
    ops: &[PipelineOp],
    start: &BTreeSet<u16>,
    segments: &[(Range<usize>, Range<usize>)],
) -> u64 {
    let base = start.len() + 1;
    let mut peak = base;
    let mut held = Vec::with_capacity(segments.len());
    let mut done = 0;
    for (body, _) in segments {
        let mut own = BTreeSet::new();
        for op in &ops[body.clone()] {
            op.apply_to_names(&mut own);
            peak = peak.max(base + done + 1 + own.len());
        }
        held.push(1 + own.len());
        done += 1 + own.len();
    }
    // Slots written since the wave started; the rest are the start's.
    let mut fresh = BTreeSet::new();
    let mut pending = done;
    for ((body, tail), held) in segments.iter().zip(held) {
        pending -= held;
        for op in &ops[body.clone()] {
            op.apply_to_names(&mut fresh);
        }
        peak = peak.max(base + fresh.len() + 1 + pending);
        for op in &ops[tail.clone()] {
            op.apply_to_names(&mut fresh);
            peak = peak.max(base + fresh.len() + 1 + pending);
        }
    }
    peak as u64
}

/// The inner sums of `ops` ([`PreparedProgram::inner_sums`]), matched left
/// to right, as op ranges.
fn inner_sums(ops: &[PipelineOp]) -> Vec<Range<usize>> {
    let (mut out, mut i) = (Vec::new(), 0);
    while i < ops.len() {
        match inner_sum_len(&ops[i..]) {
            Some(len) => {
                out.push(i..i + len);
                i += len;
            }
            None => i += 1,
        }
    }
    out
}

/// The length in ops of the inner sum `ops` starts with, if it starts with
/// one.
fn inner_sum_len(ops: &[PipelineOp]) -> Option<usize> {
    use PipelineOp::{AddSlot, Free, Load, MulPlain, Store};
    let at = |i: usize| ops.get(i);
    let is_mul = |i: usize| matches!(at(i), Some(MulPlain(_)));
    // Head: [Load(b)] MulPlain [Free(b)] Store(s).
    let (mut i, baby) = match at(0) {
        Some(Load(b)) if is_mul(1) => (2, Some(*b)),
        _ if is_mul(0) => (1, None),
        _ => return None,
    };
    if baby.is_some_and(|b| at(i) == Some(&Free(b))) {
        i += 1;
    }
    let Some(&Store(mut sum)) = at(i) else {
        return None;
    };
    i += 1;
    // Terms: Load(b) MulPlain [Free(b)] AddSlot(s) Free(s) [Store(s')].
    let mut end = None;
    while let Some(&Load(b)) = at(i) {
        if b == sum || !is_mul(i + 1) {
            break;
        }
        let mut j = i + 2;
        if at(j) == Some(&Free(b)) {
            j += 1;
        }
        if at(j) != Some(&AddSlot(sum)) || at(j + 1) != Some(&Free(sum)) {
            break;
        }
        j += 2;
        end = Some(j);
        let Some(&Store(next)) = at(j) else {
            break;
        };
        sum = next;
        i = j + 1;
        end = Some(i);
    }
    end
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cl_boot::BootState;
    use PipelineOp::{
        AddSlot, Bootstrap, Free, Input, Load, MulPlain, Rotate, RotateHoisted, Store,
    };

    /// Rotations by 1 and 2 of the input in slots 1 and 2, then two
    /// segments that rotate one each. The second frees and re-stores slot
    /// 1, which the first reads: a write after a read, which splits
    /// nothing.
    pub(crate) fn write_after_read() -> Program {
        Program::from_ops(vec![
            RotateHoisted {
                steps: vec![1, 2],
                dsts: vec![1, 2],
            },
            Load(1),
            Rotate(3),
            Store(3),
            Load(2),
            Rotate(5),
            Free(1),
            Store(1),
            Load(3),
            AddSlot(1),
            Free(1),
            Free(2),
            Free(3),
        ])
    }

    /// Two segments after a hoisted batch: the first overwrites slot 2,
    /// which the second adds after its own rotation, so the second body
    /// is cut at that `AddSlot` (running it on the wave-start slots would
    /// read the old slot 2, silently).
    pub(crate) fn read_after_write() -> Program {
        Program::from_ops(vec![
            RotateHoisted {
                steps: vec![1, 2],
                dsts: vec![1, 2],
            },
            Load(1),
            Rotate(3),
            Free(2),
            Store(2),
            Load(1),
            Rotate(5),
            AddSlot(2),
            Store(3),
            Load(3),
            Free(1),
            Free(2),
            Free(3),
        ])
    }

    /// A rotation of input 0 parked in slot 0, then a segment opened by
    /// `Input(1)` that rotates the second input and adds slot 0.
    pub(crate) fn input_opens_a_segment() -> Program {
        Program::from_ops(vec![
            Rotate(1),
            Store(0),
            Input(1),
            Rotate(2),
            AddSlot(0),
            Free(0),
        ])
    }

    fn ranges(r: &[Range<u64>]) -> Vec<Range<u64>> {
        r.to_vec()
    }

    /// `(range, bodies, tails)` of each wave of `program`.
    fn table(program: &Program) -> Vec<(Range<u64>, Vec<Range<u64>>, Vec<Range<u64>>)> {
        Dataflow::of(program.ops())
            .waves
            .iter()
            .map(|w| (w.range(), w.bodies().collect(), w.tails().collect()))
            .collect()
    }

    #[test]
    fn a_later_segment_may_rewrite_a_slot_an_earlier_body_reads() {
        // The batch's segment leads alone: the next one loads its output.
        // The two rotations run side by side; the final `Load(3)` reads
        // the wave's write, so it starts afresh and stays alone.
        assert_eq!(
            table(&write_after_read()),
            vec![(1..8, ranges(&[1..4, 4..8]), ranges(&[4..4, 8..8]))]
        );
    }

    #[test]
    fn a_body_is_cut_at_its_read_of_an_earlier_segments_write() {
        let program = read_after_write();
        assert_eq!(
            table(&program),
            vec![(1..9, ranges(&[1..5, 5..7]), ranges(&[5..5, 7..9]))]
        );
        let wave = &Dataflow::of(program.ops()).waves[0];
        let writes: Vec<&[u16]> = wave.segments().iter().map(|s| &s.writes[..]).collect();
        assert_eq!(
            writes,
            [&[2][..], &[]],
            "each body hands back what it wrote"
        );
    }

    #[test]
    fn an_input_opens_a_segment() {
        assert_eq!(
            table(&input_opens_a_segment()),
            vec![(0..6, ranges(&[0..2, 2..4]), ranges(&[2..2, 4..6]))]
        );
    }

    #[test]
    fn no_wave_spans_a_bootstrap() {
        let program = Program::from_ops(vec![
            Rotate(1),
            Store(0),
            Input(1),
            Rotate(2),
            Store(1),
            // Starts at a read of the wave's write and holds a bootstrap:
            // it ends the first wave and joins none.
            Load(0),
            AddSlot(1),
            Bootstrap,
            Store(2),
            // After it, a wave starts afresh.
            Input(1),
            Rotate(3),
            Store(3),
            Load(2),
            Rotate(4),
            AddSlot(3),
            Free(3),
            Free(2),
            Free(1),
            Free(0),
        ]);
        let pc = |op: u64| {
            if op > 7 {
                op + BootState::NUM_STAGES as u64 - 1
            } else {
                op
            }
        };
        assert_eq!(
            table(&program),
            vec![
                (0..5, ranges(&[0..2, 2..5]), ranges(&[2..2, 5..5])),
                (
                    pc(9)..pc(19),
                    ranges(&[pc(9)..pc(12), pc(12)..pc(14)]),
                    ranges(&[pc(12)..pc(12), pc(14)..pc(19)])
                ),
            ]
        );
    }

    #[test]
    fn the_live_table_holds_each_waves_peak_inside_it() {
        // Op by op: 1, then slots {1, 2} and the accumulator (3), ... The
        // wave 1..8 starts with slots {1, 2}: its first body adds an
        // accumulator and slot 3, the second an accumulator and slot 1.
        let program = write_after_read();
        let live = Dataflow::of(program.ops()).live;
        assert_eq!(live[..2], [1, 3]);
        assert!(live[2..8].iter().all(|&l| l == 7), "{live:?}");
        assert_eq!(live[8..], [4, 4, 4, 3, 2, 1]);
        assert_eq!(peak_live_cts(&program), 7);
    }

    #[test]
    fn inner_sums_are_the_lowered_giant_groups_and_nothing_else() {
        let w = || MulPlain(vec![0.5]);
        let ops = vec![
            Bootstrap,
            // A head on the accumulator, a term parking the sum again and
            // a last term freeing its baby.
            w(),
            Store(1),
            Load(0),
            w(),
            AddSlot(1),
            Free(1),
            Store(1),
            Load(0),
            w(),
            Free(0),
            AddSlot(1),
            Free(1),
            Rotate(1),
            // A head with no term.
            Load(2),
            w(),
            Free(2),
            Store(2),
            Rotate(1),
            // A term that loads the running sum itself.
            Load(3),
            w(),
            Store(4),
            Load(4),
            w(),
            AddSlot(4),
            Free(4),
        ];
        assert_eq!(inner_sums(&ops), vec![1..13]);
        let start = BootState::NUM_STAGES as u64;
        assert_eq!(Dataflow::of(&ops).inner_sums, vec![start..start + 12]);
    }
}
