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
//! It also holds the program's first def/use table: its *inner sums*, the
//! micro-op runs the lowering emits for one BSGS giant group's sum of
//! plaintext products. The executor runs each as one fused step
//! (`PipelineExecutor`'s inner-sum step), found here once per program
//! rather than matched at every run.

use std::borrow::Cow;
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
/// Its inner-sum table ([`PreparedProgram::inner_sums`]) lists the
/// schedule ranges the executor runs as one step each.
#[derive(Debug)]
pub struct PreparedProgram<'p> {
    program: Cow<'p, Program>,
    schedule: Vec<(usize, usize)>,
    inner_sums: Vec<Range<u64>>,
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
            inner_sums: inner_sums(ops),
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
        &self.inner_sums
    }

    /// The inner sum starting at program counter `pc`, if one does.
    pub(crate) fn inner_sum_at(&self, pc: u64) -> Option<&Range<u64>> {
        let i = self.inner_sums.partition_point(|r| r.start < pc);
        self.inner_sums.get(i).filter(|r| r.start == pc)
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

/// The inner sums of `ops` ([`PreparedProgram::inner_sums`]), matched left
/// to right, as ranges of program counters.
fn inner_sums(ops: &[PipelineOp]) -> Vec<Range<u64>> {
    let (mut out, mut i, mut pc) = (Vec::new(), 0, 0u64);
    while i < ops.len() {
        match inner_sum_len(&ops[i..]) {
            Some(len) => {
                out.push(pc..pc + len as u64);
                i += len;
                pc += len as u64;
            }
            None => {
                pc += ops[i].micro_ops() as u64;
                i += 1;
            }
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
mod tests {
    use super::*;
    use cl_boot::BootState;
    use PipelineOp::{AddSlot, Bootstrap, Free, Load, MulPlain, Rotate, Store};

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
        let start = BootState::NUM_STAGES as u64;
        assert_eq!(inner_sums(&ops), vec![start..start + 12]);
    }
}
