//! Micro-probes: each layer's public functions timed alone, at the
//! workload's own shape (ring, level, keyswitch kind).
//!
//! `cl-math` and `cl-rns` unit costs are *serial* (the limb pool pinned to
//! one thread): they are the per-pass cost of one core, and shares built
//! from them (`count × unit cost`) are compared against single-thread runs.

use std::path::Path;

use cl_boot::BootstrapKeys;
use cl_ckks::Ciphertext;
use cl_math::AutomorphismTable;
use cl_runtime::{Checkpoint, CheckpointStore, Program, WorkState};
use cl_server::{FsyncPolicy, Journal};
use cl_trace::OpSnapshot;
use rand::rngs::StdRng;

use crate::functional::Served;
use crate::metrics::Metrics;
use crate::stats::{median, time_us};

/// Repetitions per probe: enough for a stable median at microsecond scale.
pub struct Reps {
    pub kernel: usize,
    pub op: usize,
}

impl Reps {
    pub fn full() -> Self {
        Self { kernel: 100, op: 9 }
    }

    pub fn smoke() -> Self {
        Self { kernel: 20, op: 3 }
    }
}

/// Serial per-pass unit costs in microseconds, in `OpSnapshot` terms.
#[derive(Default, Clone, Copy)]
pub struct UnitCosts {
    pub ntt_fwd: f64,
    pub ntt_inv: f64,
    pub automorph: f64,
    pub mul: f64,
    pub add: f64,
    /// Per (source limb → destination limb) conversion pass.
    pub baseconv: f64,
    /// The Strict guardrail's integrity scan of one keyswitch hint, paid
    /// once per keyswitch (not an `OpSnapshot` class).
    pub key_verify: f64,
}

impl UnitCosts {
    /// Field-wise medians over several probe rounds.
    pub fn medians(rounds: &[UnitCosts]) -> UnitCosts {
        let pick = |f: fn(&UnitCosts) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        UnitCosts {
            ntt_fwd: pick(|c| c.ntt_fwd),
            ntt_inv: pick(|c| c.ntt_inv),
            automorph: pick(|c| c.automorph),
            mul: pick(|c| c.mul),
            add: pick(|c| c.add),
            baseconv: pick(|c| c.baseconv),
            key_verify: pick(|c| c.key_verify),
        }
    }

    /// `count × unit cost` over every kernel class, in microseconds, split
    /// into the `cl-math` part and the `cl-rns` part.
    pub fn attribute(&self, ops: &OpSnapshot) -> (f64, f64) {
        let math = ops.ntt as f64 * self.ntt_fwd
            + ops.intt as f64 * self.ntt_inv
            + ops.automorph as f64 * self.automorph;
        let rns = ops.mult as f64 * self.mul
            + ops.add as f64 * self.add
            + ops.base_conv as f64 * self.baseconv;
        (math, rns)
    }
}

/// `cl-math` and `cl-rns` kernels at `level` limbs. Call with the limb pool
/// pinned to one thread.
pub fn kernel_costs(served: &Served, level: usize, reps: &Reps, rng: &mut StdRng) -> UnitCosts {
    let ctx = &*served.ctx;
    let rns = ctx.rns();
    let n = rns.n();
    let q = rns.q_basis(level);
    let special = ctx.params().special_limbs();
    let p = rns.p_basis(special);
    let a = rns.sample_uniform(&q, rng);
    let b = rns.sample_uniform(&q, rng);

    let table = rns.ntt_table(0);
    let mut limb = a.limb(0).to_vec();
    let ntt_fwd = time_us(reps.kernel, || table.forward(&mut limb));
    let ntt_inv = time_us(reps.kernel, || table.inverse(&mut limb));

    let galois = cl_math::galois_element_for_rotation(1, n);
    let auto = AutomorphismTable::cached(n, galois);
    let mut out = vec![0u64; n];
    let automorph = time_us(reps.kernel, || {
        cl_math::apply_automorphism_ntt_into(a.limb(0), &auto, &mut out)
    });

    let per_limb = |t: f64| t / level as f64;
    let mut acc = a.clone();
    let mul = per_limb(time_us(reps.kernel, || rns.mul_assign(&mut acc, &b)));
    let add = per_limb(time_us(reps.kernel, || rns.add_assign(&mut acc, &b)));

    // The ModUp conversion of boosted keyswitching: Q_level → P.
    let conv = ctx.converter(&q, &p);
    let mut coeff = a.clone();
    coeff.set_ntt_form(false);
    let baseconv =
        time_us(reps.kernel.div_ceil(4), || conv.convert(rns, &coeff)) / (level * special) as f64;

    let key = served.keys.try_relin(ctx).expect("relin key expands");
    let key_verify = time_us(reps.kernel.div_ceil(4), || key.verify_integrity());

    UnitCosts {
        ntt_fwd,
        ntt_inv,
        automorph,
        mul,
        add,
        baseconv,
        key_verify,
    }
}

/// One keyswitch of `ct`'s `c1` under the relinearization key: median time
/// in microseconds and the exact op counts of one call (all zero unless
/// built with `--features trace`).
pub fn keyswitch(served: &Served, ct: &Ciphertext, reps: &Reps) -> (f64, OpSnapshot) {
    let ctx = &*served.ctx;
    let key = served.keys.try_relin(ctx).expect("relin key expands");
    let run = || {
        ctx.try_keyswitch(ct.c1(), &key)
            .expect("keyswitch of a fresh ciphertext")
    };
    run();
    let before = OpSnapshot::capture();
    run();
    let ops = OpSnapshot::capture().delta_since(&before);
    (time_us(reps.op, run), ops)
}

/// `cl-ckks` client-side calls and blob handling.
pub fn ckks(
    served: &Served,
    values: &[f64],
    output: &Ciphertext,
    reps: &Reps,
    rng: &mut StdRng,
    m: &mut Metrics,
) {
    let ctx = &*served.ctx;
    let level = served.input_level;
    m.set(
        "ckks.encode_us",
        time_us(reps.op, || ctx.encode(values, ctx.default_scale(), level)),
    );
    let pt = ctx.encode(values, ctx.default_scale(), level);
    m.set(
        "ckks.encrypt_us",
        time_us(reps.op, || ctx.encrypt(&pt, &served.sk, rng)),
    );
    let ct = ctx.encrypt(&pt, &served.sk, rng);
    // The client decrypts job outputs, so probe at the output's level.
    m.set(
        "ckks.decrypt_us",
        time_us(reps.op, || ctx.decrypt(output, &served.sk)),
    );
    m.set(
        "ckks.ct_ser_us",
        time_us(reps.op, || ctx.serialize_ciphertext(&ct)),
    );
    let blob = ctx.serialize_ciphertext(&ct);
    m.set(
        "ckks.ct_de_us",
        time_us(reps.op, || {
            ctx.try_deserialize_ciphertext(&blob)
                .expect("own blob parses")
        }),
    );
    m.set(
        "ckks.hint_expand_us",
        time_us(reps.op, || {
            served
                .keys
                .relin_compact()
                .expand(ctx)
                .expect("hint expands")
        }),
    );
}

/// `cl-runtime` and `cl-server` calls a job pays outside the ops
/// themselves: program parse, key-bundle load, checkpoint write, journal
/// appends. `dir` is scratch space inside the work root.
pub fn runtime_server(
    served: &Served,
    input: &Ciphertext,
    output_blob: &[u8],
    dir: &Path,
    reps: &Reps,
    m: &mut Metrics,
) {
    let ctx = &*served.ctx;
    let fp = ctx.params_fingerprint();
    m.set(
        "runtime.program_parse_ms",
        time_us(reps.op, || {
            Program::try_deserialize(&served.program_blob, fp).expect("parses")
        }) / 1e3,
    );
    m.set(
        "server.key_load_ms",
        time_us(reps.op, || {
            BootstrapKeys::try_deserialize(ctx, &served.key_blob).expect("loads")
        }) / 1e3,
    );

    let mut store = CheckpointStore::open(&dir.join("probe-ckpt")).expect("store opens");
    let cp = Checkpoint {
        pc: 4,
        binding: 0,
        state: WorkState::Ct(input.clone()),
        slots: Vec::new(),
    };
    m.set(
        "runtime.ckpt_write_ms",
        time_us(reps.op, || {
            store.write(ctx, &cp).expect("checkpoint writes")
        }) / 1e3,
    );
    store.sync().expect("checkpoint syncs");
    drop(store);

    // One job's journal traffic: a new input blob, the admission, the
    // dispatch and the completion carrying the output.
    let (mut journal, _) = Journal::open(&dir.join("probe-journal"), FsyncPolicy::Batch(32), 0)
        .expect("journal opens");
    let program_digest = journal
        .append_blob(&served.program_blob)
        .expect("journal appends");
    let key_digest = journal
        .append_blob(&served.key_blob)
        .expect("journal appends");
    let input_blob = ctx.serialize_ciphertext(input);
    let mut id = 0u64;
    let per_job = time_us(reps.op.max(5), || {
        id += 1;
        // A distinct blob per job, as distinct inputs are.
        let mut blob = input_blob.clone();
        blob.extend_from_slice(&id.to_le_bytes());
        let input_digest = journal.append_blob(&blob).expect("journal appends");
        journal
            .append_admitted(
                id,
                &served.tenant,
                None,
                program_digest,
                input_digest,
                key_digest,
            )
            .expect("journal appends");
        journal.append_dispatched(id).expect("journal appends");
        journal
            .append_completed(id, output_blob)
            .expect("journal appends");
    });
    m.set("server.journal_append_us", per_job / 4.0);
}
