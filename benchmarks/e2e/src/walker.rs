//! The op walker: steps a workload's `Program` op by op through the same
//! public `CkksContext::try_*` / `Bootstrapper::try_step` calls the
//! executor makes, timing each. It is the benchmark's view *under* the
//! runtime: the executor's own cost (state clones, validation, last-good
//! bookkeeping) is whatever a direct run takes beyond the walker's sum.
//!
//! The walker's output must equal the executor's bit for bit, which the
//! caller checks — a walker that drifts from the executor would attribute
//! time to work the real job does not do.

use std::collections::BTreeMap;
use std::time::Duration;

use cl_boot::BootState;
use cl_ckks::{Ciphertext, FheResult, KeySwitchKey};
use cl_runtime::PipelineOp;

use crate::functional::Served;
use crate::spans::SpanLog;
use crate::stats::ms;

/// Time per op class over one walk, in milliseconds.
#[derive(Default, Clone)]
pub struct Walk {
    pub class_ms: BTreeMap<&'static str, f64>,
    /// `Bootstrapper::try_step` stages, summed over the walk's bootstraps.
    pub boot_stage_ms: [f64; BootState::NUM_STAGES],
    pub bootstraps: u64,
    /// In-program `encode` calls (plaintext operands are encoded per use).
    pub encodes: u64,
    /// Level of the accumulator right after the last bootstrap.
    pub boot_exit_level: usize,
}

impl Walk {
    pub fn total_ms(&self) -> f64 {
        self.class_ms.values().sum()
    }

    pub fn class(&self, name: &str) -> f64 {
        self.class_ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn boot_ms(&self) -> f64 {
        self.boot_stage_ms.iter().sum()
    }

    fn add(&mut self, class: &'static str, d: Duration) {
        *self.class_ms.entry(class).or_insert(0.0) += ms(d);
    }
}

/// Walks `served.program` over `input`. Span names are `op.<class>`; the
/// bootstrap stages are `boot.<stage>`.
pub fn walk(
    served: &Served,
    input: &Ciphertext,
    spans: &SpanLog,
    job: u64,
) -> FheResult<(Ciphertext, Walk)> {
    let ctx = &*served.ctx;
    let keys = &served.keys;
    let mut w = Walk::default();
    let mut acc = input.clone();
    let mut slots: BTreeMap<u16, Ciphertext> = BTreeMap::new();
    let inputs = std::slice::from_ref(input);
    // One timed call into a layer, booked under `class`.
    macro_rules! timed {
        ($class:literal, $e:expr) => {{
            let (out, d) = spans.time(concat!("op.", $class), job, || $e);
            w.add($class, d);
            out
        }};
    }
    let slot = |slots: &BTreeMap<u16, Ciphertext>, i: u16| -> Ciphertext {
        slots
            .get(&i)
            .expect("lowered programs read only live slots")
            .clone()
    };
    for op in served.program.ops() {
        match op {
            PipelineOp::Square => {
                let relin = keys.try_relin(ctx)?;
                acc = timed!("mul_ct", ctx.try_square(&acc, &relin))?;
            }
            PipelineOp::MulCtSlot(i) => {
                let relin = keys.try_relin(ctx)?;
                let rhs = slot(&slots, *i);
                acc = timed!("mul_ct", ctx.try_mul(&acc, &rhs, &relin))?;
            }
            PipelineOp::Rescale => acc = timed!("rescale", ctx.try_rescale(&acc))?,
            PipelineOp::AddPlain(vals) => {
                w.encodes += 1;
                let p = timed!("encode", ctx.encode(vals, acc.scale(), acc.level()));
                acc = timed!("add", ctx.try_add_plain(&acc, &p))?;
            }
            PipelineOp::MulPlain(vals) | PipelineOp::MulPlainRescale(vals) => {
                w.encodes += 1;
                let q_drop = ctx.rns().modulus_value((acc.level() - 1) as u32) as f64;
                let p = timed!("encode", ctx.encode(vals, q_drop, acc.level()));
                acc = timed!("mul_plain", ctx.try_mul_plain(&acc, &p))?;
                if matches!(op, PipelineOp::MulPlainRescale(_)) {
                    acc = timed!("rescale", ctx.try_rescale(&acc))?;
                }
            }
            PipelineOp::Rotate(step) => {
                let key = keys.try_rot_key(ctx, *step)?;
                acc = timed!("rotate", ctx.try_rotate(&acc, *step, &key))?;
            }
            PipelineOp::Conjugate => {
                let key = keys.try_conj(ctx)?;
                acc = timed!("rotate", ctx.try_conjugate(&acc, &key))?;
            }
            PipelineOp::RotateHoisted { steps, dsts } => {
                let held = steps
                    .iter()
                    .map(|s| keys.try_rot_key(ctx, *s))
                    .collect::<FheResult<Vec<_>>>()?;
                let refs: Vec<&KeySwitchKey> = held.iter().map(|k| k.as_ref()).collect();
                let outs = timed!(
                    "rotate_hoisted",
                    ctx.try_rotate_hoisted_many(&acc, steps, &refs)
                )?;
                for (dst, rotated) in dsts.iter().zip(outs) {
                    slots.insert(*dst, rotated);
                }
            }
            PipelineOp::AddSlot(i) => {
                let rhs = slot(&slots, *i);
                acc = timed!("add", ctx.try_add(&acc, &rhs))?;
            }
            PipelineOp::SubSlot(i) => {
                let rhs = slot(&slots, *i);
                acc = timed!("add", ctx.try_sub(&acc, &rhs))?;
            }
            PipelineOp::ModDropTo(level) => {
                acc = timed!("move", ctx.try_mod_drop(&acc, *level as usize))?;
            }
            PipelineOp::Load(i) => acc = timed!("move", slot(&slots, *i)),
            PipelineOp::Store(i) => {
                timed!("move", slots.insert(*i, acc.clone()));
            }
            PipelineOp::Free(i) => {
                timed!("move", slots.remove(i));
            }
            PipelineOp::Input(i) => acc = timed!("move", inputs[usize::from(*i)].clone()),
            PipelineOp::Bootstrap => {
                let booter = served
                    .booter
                    .as_ref()
                    .expect("bootstrap programs carry a booter");
                let mut state = BootState::Start { ct: acc };
                for (stage, name) in BOOT_STAGES.iter().enumerate() {
                    let (next, d) = spans.time(name, job, || booter.try_step(ctx, state, keys));
                    state = next?;
                    w.boot_stage_ms[stage] += ms(d);
                    w.add("bootstrap", d);
                }
                acc = match state {
                    BootState::Done { ct } => ct,
                    other => panic!("bootstrap ended at stage {}", other.stage_name()),
                };
                w.bootstraps += 1;
                w.boot_exit_level = acc.level();
            }
        }
    }
    Ok((acc, w))
}

/// Span names of the five `try_step` stages, in order.
pub const BOOT_STAGES: [&str; BootState::NUM_STAGES] = [
    "boot.mod_raise",
    "boot.coeff_to_slot",
    "boot.eval_mod_re",
    "boot.eval_mod_im",
    "boot.slot_to_coeff",
];
