//! Declared pipelines: the unit of work the executor runs and checkpoints.

use std::collections::BTreeSet;

use cl_boot::BootState;
use cl_ckks::serialize::{
    put_f64, put_i64, put_u32, put_u8, seal, write_header, ObjectTag, Reader,
};
use cl_ckks::FheResult;

/// Hard cap on the declared op count of a deserialized program. A hostile
/// length prefix must not be able to drive allocation; real pipelines are
/// orders of magnitude below this.
pub const MAX_PROGRAM_OPS: usize = 65_536;

/// Hard cap on the element count of one plaintext operand vector.
pub const MAX_PLAIN_VALUES: usize = 1 << 20;

/// Hard cap on the rotation count of one hoisted-rotation batch. One batch
/// shares a single decomposition, so real batches are bounded by the
/// rotation-key working set — far below this.
pub const MAX_HOISTED_STEPS: usize = 4096;

/// One homomorphic operation in a declared pipeline.
///
/// Ops are deterministic (no randomness), so re-executing a suffix after a
/// checkpoint restore reproduces bit-identical results — the property the
/// recovery loop's convergence proof rests on.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineOp {
    /// Homomorphic squaring (relinearized with the bundle's relin key).
    Square,
    /// Rescale: drop one modulus, dividing the scale by it.
    Rescale,
    /// Add an encoded plaintext vector (at the ciphertext's scale/level).
    AddPlain(Vec<f64>),
    /// Multiply by an encoded plaintext vector and rescale. The plaintext
    /// is encoded at exactly the dropped modulus' scale, so the
    /// ciphertext scale is preserved.
    MulPlainRescale(Vec<f64>),
    /// Rotate slots by the given step (needs a matching rotation key).
    Rotate(i64),
    /// Complex-conjugate the slots.
    Conjugate,
    /// Full bootstrap, expanded into [`BootState::NUM_STAGES`] micro-ops
    /// so a crash mid-bootstrap resumes at a stage boundary.
    Bootstrap,
    // ---- dataflow form (compiler-lowered graphs) ------------------------
    //
    // The ops above thread one implicit accumulator through a linear chain.
    // The variants below add named value slots so a lowered `HeGraph` DAG
    // can run: slots hold live intermediate ciphertexts, the accumulator
    // stays the "current" value, and binary ops combine the accumulator
    // with a slot.
    /// Replace the accumulator with a copy of slot `i` (slot stays live).
    Load(u16),
    /// Copy the accumulator into slot `i` (accumulator stays current).
    Store(u16),
    /// Drop slot `i` — the lowering pass emits this at a value's last use
    /// so live-ciphertext memory follows the residency plan.
    Free(u16),
    /// Replace the accumulator with a copy of pipeline input `i`
    /// (programs lowered from multi-input graphs; plain `run` binds one).
    Input(u16),
    /// Accumulator += slot `i` (homomorphic addition).
    AddSlot(u16),
    /// Accumulator -= slot `i` (homomorphic subtraction).
    SubSlot(u16),
    /// Accumulator *= slot `i` (ciphertext-ciphertext multiply,
    /// relinearized with the bundle's relin key).
    MulCtSlot(u16),
    /// Multiply by an encoded plaintext vector *without* rescaling. The
    /// plaintext is encoded at the scale of the next-to-drop modulus (the
    /// same convention as [`PipelineOp::MulPlainRescale`]) so a later
    /// `Rescale` restores the ciphertext's scale exactly.
    MulPlain(Vec<f64>),
    /// Hoisted rotation batch: decompose the accumulator once, apply every
    /// step, and store result `k` into slot `dsts[k]`. The accumulator is
    /// left unchanged — rotations of a shared source fan out to slots.
    RotateHoisted {
        /// Rotation steps, each applied to the shared decomposition.
        steps: Vec<i64>,
        /// Destination slot for each rotation result (same length).
        dsts: Vec<u16>,
    },
    /// Drop moduli from the accumulator until it sits at the given level
    /// (no scale change) — the compiler's explicit level-alignment op.
    ModDropTo(u32),
}

impl PipelineOp {
    /// How many checkpointable micro-ops this op expands to.
    pub fn micro_ops(&self) -> usize {
        match self {
            PipelineOp::Bootstrap => BootState::NUM_STAGES,
            _ => 1,
        }
    }

    /// The plaintext operand values of an `AddPlain`, `MulPlain` or
    /// `MulPlainRescale` op.
    pub fn plain_values(&self) -> Option<&[f64]> {
        match self {
            PipelineOp::AddPlain(vals)
            | PipelineOp::MulPlain(vals)
            | PipelineOp::MulPlainRescale(vals) => Some(vals),
            _ => None,
        }
    }

    /// Whether the op reads the accumulator. Only `Load` and `Input`
    /// overwrite it without reading it.
    pub(crate) fn reads_acc(&self) -> bool {
        !matches!(self, PipelineOp::Load(_) | PipelineOp::Input(_))
    }

    /// The slots the op reads: the slot it loads or combines with, and the
    /// slot a `Free` requires to be live.
    pub(crate) fn slot_uses(&self) -> &[u16] {
        match self {
            PipelineOp::Load(s)
            | PipelineOp::Free(s)
            | PipelineOp::AddSlot(s)
            | PipelineOp::SubSlot(s)
            | PipelineOp::MulCtSlot(s) => std::slice::from_ref(s),
            _ => &[],
        }
    }

    /// The slots the op writes: those it stores or hoists into, and the
    /// slot a `Free` empties.
    pub(crate) fn slot_defs(&self) -> &[u16] {
        match self {
            PipelineOp::Store(s) | PipelineOp::Free(s) => std::slice::from_ref(s),
            PipelineOp::RotateHoisted { dsts, .. } => dsts,
            _ => &[],
        }
    }

    /// Whether the op only moves references (`Load`, `Store`, `Free`,
    /// `Input`) and computes no ciphertext.
    pub(crate) fn moves_only(&self) -> bool {
        matches!(
            self,
            PipelineOp::Load(_) | PipelineOp::Store(_) | PipelineOp::Free(_) | PipelineOp::Input(_)
        )
    }

    /// Applies the op's effect on the set of live slot names: a `Store`
    /// or hoisted batch makes its slots live, a `Free` ends its slot.
    pub(crate) fn apply_to_names(&self, names: &mut BTreeSet<u16>) {
        match self {
            PipelineOp::Free(s) => {
                names.remove(s);
            }
            op => names.extend(op.slot_defs()),
        }
    }

    /// Short name for telemetry and errors.
    pub fn name(&self) -> &'static str {
        match self {
            PipelineOp::Square => "square",
            PipelineOp::Rescale => "rescale",
            PipelineOp::AddPlain(_) => "add_plain",
            PipelineOp::MulPlainRescale(_) => "mul_plain_rescale",
            PipelineOp::Rotate(_) => "rotate",
            PipelineOp::Conjugate => "conjugate",
            PipelineOp::Bootstrap => "bootstrap",
            PipelineOp::Load(_) => "load",
            PipelineOp::Store(_) => "store",
            PipelineOp::Free(_) => "free",
            PipelineOp::Input(_) => "input",
            PipelineOp::AddSlot(_) => "add_slot",
            PipelineOp::SubSlot(_) => "sub_slot",
            PipelineOp::MulCtSlot(_) => "mul_ct_slot",
            PipelineOp::MulPlain(_) => "mul_plain",
            PipelineOp::RotateHoisted { .. } => "rotate_hoisted",
            PipelineOp::ModDropTo(_) => "mod_drop_to",
        }
    }
}

/// Writes a plaintext operand vector: its length, then each value.
fn put_plain(out: &mut Vec<u8>, vals: &[f64]) {
    put_u32(out, vals.len() as u32);
    for v in vals {
        put_f64(out, *v);
    }
}

/// Reads the plaintext operand vector of op `i` written by [`put_plain`],
/// rejecting a length beyond [`MAX_PLAIN_VALUES`] before allocating and
/// any value that is not finite.
fn read_plain(r: &mut Reader<'_>, i: usize) -> FheResult<Vec<f64>> {
    let len = r.u32()? as usize;
    if len > MAX_PLAIN_VALUES {
        return Err(r.err(format!(
            "op {i}: plaintext vector length {len} exceeds the {MAX_PLAIN_VALUES} cap"
        )));
    }
    let mut vals = Vec::with_capacity(len);
    for j in 0..len {
        let v = r.f64()?;
        if !v.is_finite() {
            return Err(r.err(format!("op {i}: plaintext value {j} is not finite ({v})")));
        }
        vals.push(v);
    }
    Ok(vals)
}

/// A declared sequence of pipeline ops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    ops: Vec<PipelineOp>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a program from an op list.
    pub fn from_ops(ops: Vec<PipelineOp>) -> Self {
        Self { ops }
    }

    /// Appends an op (builder style).
    #[must_use]
    pub fn then(mut self, op: PipelineOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Appends `n` repetitions of `op` (builder style).
    #[must_use]
    pub fn then_repeat(mut self, op: PipelineOp, n: usize) -> Self {
        for _ in 0..n {
            self.ops.push(op.clone());
        }
        self
    }

    /// The op list.
    pub fn ops(&self) -> &[PipelineOp] {
        &self.ops
    }

    /// Number of declared ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether the program contains a bootstrap (and therefore needs a
    /// [`cl_boot::Bootstrapper`]).
    pub fn needs_bootstrapper(&self) -> bool {
        self.ops.iter().any(|op| matches!(op, PipelineOp::Bootstrap))
    }

    /// Total micro-op count (ops with bootstraps expanded into stages) —
    /// the unit of the executor's program counter and checkpoint cadence.
    pub fn num_micro_ops(&self) -> usize {
        self.ops.iter().map(PipelineOp::micro_ops).sum()
    }

    /// Flattens the program into `(op index, stage within op)` pairs, one
    /// per micro-op. The micro program counter indexes this list.
    pub fn micro_schedule(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_micro_ops());
        for (i, op) in self.ops.iter().enumerate() {
            for s in 0..op.micro_ops() {
                out.push((i, s));
            }
        }
        out
    }

    /// Serializes the program in the workspace wire format
    /// ([`ObjectTag::Program`]), stamped with `fingerprint` — callers bind
    /// a program to the parameter set it was authored for, so a job queue
    /// can reject a program submitted against the wrong tenant context
    /// before any homomorphic work runs.
    pub fn serialize(&self, fingerprint: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 16 * self.ops.len());
        write_header(&mut out, ObjectTag::Program, fingerprint);
        let body_start = out.len();
        put_u32(&mut out, self.ops.len() as u32);
        for op in &self.ops {
            match op {
                PipelineOp::Square => put_u8(&mut out, 0),
                PipelineOp::Rescale => put_u8(&mut out, 1),
                PipelineOp::AddPlain(vals) => {
                    put_u8(&mut out, 2);
                    put_plain(&mut out, vals);
                }
                PipelineOp::MulPlainRescale(vals) => {
                    put_u8(&mut out, 3);
                    put_plain(&mut out, vals);
                }
                PipelineOp::Rotate(steps) => {
                    put_u8(&mut out, 4);
                    put_i64(&mut out, *steps);
                }
                PipelineOp::Conjugate => put_u8(&mut out, 5),
                PipelineOp::Bootstrap => put_u8(&mut out, 6),
                PipelineOp::Load(slot) => {
                    put_u8(&mut out, 7);
                    put_u32(&mut out, u32::from(*slot));
                }
                PipelineOp::Store(slot) => {
                    put_u8(&mut out, 8);
                    put_u32(&mut out, u32::from(*slot));
                }
                PipelineOp::Free(slot) => {
                    put_u8(&mut out, 9);
                    put_u32(&mut out, u32::from(*slot));
                }
                PipelineOp::Input(idx) => {
                    put_u8(&mut out, 10);
                    put_u32(&mut out, u32::from(*idx));
                }
                PipelineOp::AddSlot(slot) => {
                    put_u8(&mut out, 11);
                    put_u32(&mut out, u32::from(*slot));
                }
                PipelineOp::SubSlot(slot) => {
                    put_u8(&mut out, 12);
                    put_u32(&mut out, u32::from(*slot));
                }
                PipelineOp::MulCtSlot(slot) => {
                    put_u8(&mut out, 13);
                    put_u32(&mut out, u32::from(*slot));
                }
                PipelineOp::MulPlain(vals) => {
                    put_u8(&mut out, 14);
                    put_plain(&mut out, vals);
                }
                PipelineOp::RotateHoisted { steps, dsts } => {
                    put_u8(&mut out, 15);
                    put_u32(&mut out, steps.len() as u32);
                    for s in steps {
                        put_i64(&mut out, *s);
                    }
                    for d in dsts {
                        put_u32(&mut out, u32::from(*d));
                    }
                }
                PipelineOp::ModDropTo(level) => {
                    put_u8(&mut out, 16);
                    put_u32(&mut out, *level);
                }
            }
        }
        seal(&mut out, body_start);
        out
    }

    /// Loads a program written by [`Program::serialize`], treating the blob
    /// as untrusted: header, fingerprint, op-count and vector-length caps,
    /// finiteness of plaintext operands, and the trailing body checksum are
    /// all verified before a [`Program`] is returned.
    ///
    /// # Errors
    ///
    /// [`cl_ckks::FheError::Serialization`] for structural damage (truncation,
    /// unknown op tags, hostile lengths, non-finite operands),
    /// [`cl_ckks::FheError::ParamsMismatch`] for a foreign fingerprint, and
    /// [`cl_ckks::FheError::ChecksumMismatch`] for a blob corrupted after writing.
    pub fn try_deserialize(bytes: &[u8], want_fingerprint: u64) -> FheResult<Self> {
        let mut r = Reader::new("load_program", bytes);
        r.read_header(ObjectTag::Program, want_fingerprint)?;
        let body_start = r.pos();
        let count = r.u32()? as usize;
        if count > MAX_PROGRAM_OPS {
            return Err(r.err(format!(
                "declared op count {count} exceeds the {MAX_PROGRAM_OPS} cap"
            )));
        }
        let mut ops = Vec::with_capacity(count);
        for i in 0..count {
            let tag = r.u8()?;
            let op = match tag {
                0 => PipelineOp::Square,
                1 => PipelineOp::Rescale,
                2 => PipelineOp::AddPlain(read_plain(&mut r, i)?),
                3 => PipelineOp::MulPlainRescale(read_plain(&mut r, i)?),
                4 => PipelineOp::Rotate(r.i64()?),
                5 => PipelineOp::Conjugate,
                6 => PipelineOp::Bootstrap,
                7..=13 => {
                    let raw = r.u32()?;
                    let slot = u16::try_from(raw).map_err(|_| {
                        r.err(format!("op {i}: slot/input index {raw} exceeds u16"))
                    })?;
                    match tag {
                        7 => PipelineOp::Load(slot),
                        8 => PipelineOp::Store(slot),
                        9 => PipelineOp::Free(slot),
                        10 => PipelineOp::Input(slot),
                        11 => PipelineOp::AddSlot(slot),
                        12 => PipelineOp::SubSlot(slot),
                        _ => PipelineOp::MulCtSlot(slot),
                    }
                }
                14 => PipelineOp::MulPlain(read_plain(&mut r, i)?),
                15 => {
                    let len = r.u32()? as usize;
                    if len > MAX_HOISTED_STEPS {
                        return Err(r.err(format!(
                            "op {i}: hoisted batch length {len} exceeds the \
                             {MAX_HOISTED_STEPS} cap"
                        )));
                    }
                    let mut steps = Vec::with_capacity(len);
                    for _ in 0..len {
                        steps.push(r.i64()?);
                    }
                    let mut dsts = Vec::with_capacity(len);
                    for j in 0..len {
                        let raw = r.u32()?;
                        let d = u16::try_from(raw).map_err(|_| {
                            r.err(format!("op {i}: rotation dst {j} slot {raw} exceeds u16"))
                        })?;
                        dsts.push(d);
                    }
                    PipelineOp::RotateHoisted { steps, dsts }
                }
                16 => PipelineOp::ModDropTo(r.u32()?),
                other => return Err(r.err(format!("op {i}: unknown op tag {other}"))),
            };
            ops.push(op);
        }
        r.verify_section(body_start, "program body")?;
        r.finish()?;
        Ok(Self { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_ckks::serialize::check_header;
    use cl_ckks::FheError;

    #[test]
    fn micro_schedule_expands_bootstraps() {
        let p = Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Bootstrap)
            .then(PipelineOp::Rescale);
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_micro_ops(), 2 + BootState::NUM_STAGES);
        let sched = p.micro_schedule();
        assert_eq!(sched[0], (0, 0));
        assert_eq!(sched[1], (1, 0));
        assert_eq!(sched[BootState::NUM_STAGES], (1, BootState::NUM_STAGES - 1));
        assert_eq!(sched[BootState::NUM_STAGES + 1], (2, 0));
        assert!(p.needs_bootstrapper());
        assert!(!Program::new().then(PipelineOp::Square).needs_bootstrapper());
    }

    const FP: u64 = 0xD15EA5E_u64;

    fn sample_program() -> Program {
        Program::new()
            .then(PipelineOp::Square)
            .then(PipelineOp::Rescale)
            .then(PipelineOp::AddPlain(vec![0.25, -1.5]))
            .then(PipelineOp::MulPlainRescale(vec![2.0]))
            .then(PipelineOp::Rotate(-3))
            .then(PipelineOp::Conjugate)
            .then(PipelineOp::Bootstrap)
            .then(PipelineOp::Input(1))
            .then(PipelineOp::Store(4))
            .then(PipelineOp::Load(4))
            .then(PipelineOp::AddSlot(4))
            .then(PipelineOp::SubSlot(2))
            .then(PipelineOp::MulCtSlot(7))
            .then(PipelineOp::MulPlain(vec![0.5, 3.25]))
            .then(PipelineOp::RotateHoisted {
                steps: vec![1, -2, 5],
                dsts: vec![9, 10, 11],
            })
            .then(PipelineOp::ModDropTo(3))
            .then(PipelineOp::Free(4))
    }

    #[test]
    fn program_roundtrips_bit_exactly() {
        let p = sample_program();
        let blob = p.serialize(FP);
        assert!(check_header("peek_program", &blob, ObjectTag::Program, FP).is_ok());
        let back = Program::try_deserialize(&blob, FP).unwrap();
        assert_eq!(back, p);
        // Empty programs roundtrip too.
        let empty = Program::new();
        assert_eq!(
            Program::try_deserialize(&empty.serialize(FP), FP).unwrap(),
            empty
        );
    }

    #[test]
    fn program_load_rejects_every_single_byte_flip() {
        let blob = sample_program().serialize(FP);
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0xff;
            assert!(
                Program::try_deserialize(&bad, FP).is_err(),
                "flip at byte {i} must not load"
            );
        }
    }

    #[test]
    fn program_load_rejects_truncation_and_wrong_fingerprint() {
        let blob = sample_program().serialize(FP);
        for len in 0..blob.len() {
            assert!(
                Program::try_deserialize(&blob[..len], FP).is_err(),
                "truncation to {len} bytes must not load"
            );
        }
        assert!(matches!(
            Program::try_deserialize(&blob, FP + 1),
            Err(FheError::ParamsMismatch { .. })
        ));
        assert!(matches!(
            check_header("peek_program", &blob, ObjectTag::Program, FP + 1),
            Err(FheError::ParamsMismatch { .. })
        ));
    }

    #[test]
    fn program_load_rejects_hostile_lengths_and_values() {
        // A declared op count beyond the cap must be rejected before any
        // allocation happens (the blob is nowhere near large enough).
        let mut blob = Vec::new();
        write_header(&mut blob, ObjectTag::Program, FP);
        put_u32(&mut blob, (MAX_PROGRAM_OPS + 1) as u32);
        let err = Program::try_deserialize(&blob, FP).expect_err("hostile op count");
        assert!(err.to_string().contains("cap"), "{err}");

        // Same for a hostile plaintext vector length.
        let mut blob = Vec::new();
        write_header(&mut blob, ObjectTag::Program, FP);
        let body = blob.len();
        put_u32(&mut blob, 1);
        put_u8(&mut blob, 2); // AddPlain
        put_u32(&mut blob, (MAX_PLAIN_VALUES + 1) as u32);
        seal(&mut blob, body);
        assert!(Program::try_deserialize(&blob, FP).is_err());

        // Non-finite plaintext operands are data-plane poison: rejected.
        let p = Program::new().then(PipelineOp::AddPlain(vec![f64::NAN]));
        let blob = p.serialize(FP);
        let err = Program::try_deserialize(&blob, FP).expect_err("NaN operand");
        assert!(err.to_string().contains("finite"), "{err}");

        // Hostile hoisted-batch length: rejected before allocation.
        let mut blob = Vec::new();
        write_header(&mut blob, ObjectTag::Program, FP);
        let body = blob.len();
        put_u32(&mut blob, 1);
        put_u8(&mut blob, 15); // RotateHoisted
        put_u32(&mut blob, (MAX_HOISTED_STEPS + 1) as u32);
        seal(&mut blob, body);
        let err = Program::try_deserialize(&blob, FP).expect_err("hostile batch len");
        assert!(err.to_string().contains("cap"), "{err}");

        // A slot index beyond u16 on the wire: rejected.
        let mut blob = Vec::new();
        write_header(&mut blob, ObjectTag::Program, FP);
        let body = blob.len();
        put_u32(&mut blob, 1);
        put_u8(&mut blob, 7); // Load
        put_u32(&mut blob, u32::from(u16::MAX) + 1);
        seal(&mut blob, body);
        let err = Program::try_deserialize(&blob, FP).expect_err("oversized slot id");
        assert!(err.to_string().contains("u16"), "{err}");
    }

    #[test]
    fn program_peek_rejects_non_program_objects() {
        // A ciphertext-tagged header must not pass the program peek.
        let mut blob = Vec::new();
        write_header(&mut blob, ObjectTag::Ciphertext, FP);
        assert!(check_header("peek_program", &blob, ObjectTag::Program, FP).is_err());
    }
}
