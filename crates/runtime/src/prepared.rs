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

use std::borrow::Cow;
use std::mem::{size_of, size_of_val};
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
#[derive(Debug)]
pub struct PreparedProgram<'p> {
    program: Cow<'p, Program>,
    schedule: Vec<(usize, usize)>,
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
