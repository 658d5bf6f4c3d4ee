//! `lola_mlp_8k`: private-inference latency at a big ring.
//!
//! Why this workload: keyswitch, hoisted rotation, NTT and base conversion
//! at 64 KiB limbs do almost all of the work; server, checkpoint and
//! bootstrap do almost none. It is the workload a kernel optimisation for
//! large N must show on, and the one tracing overhead is gated on.

use cl_apps::{eval_plain, RunnableWorkload};
use cl_ckks::KeySwitchKind;
use cl_compiler::{lower_to_program, predict_program, LowerOptions, LoweredProgram};
use cl_isa::{HeGraph, NodeId};
use cl_server::JobServer;
use cl_trace::OpSnapshot;
use std::collections::BTreeMap;

use crate::closed::Closed;
use crate::functional::{server_config, strict_ctx, Served, WorkRoot};
use crate::metrics::Metrics;
use crate::spans::SpanLog;
use crate::stats::{median, rng_for};
use crate::RunArgs;

/// One dense layer as BSGS diagonals: `(diagonals, rotation stride, weight
/// scale, square activation)`. The LoLa-MNIST shape: 25 / 64 / 16 diagonals
/// at strides 1 / 2 / 4. Weight scales keep every layer's output of the
/// order of 1 for inputs uniform in ±0.5 (checked at set-up), so the
/// absolute decrypt error is a meaningful precision figure.
pub struct Layer {
    pub diags: usize,
    pub stride: i64,
    pub weight_scale: f64,
    pub activate: bool,
}

pub struct Shape {
    pub ring: usize,
    pub levels: usize,
    pub layers: Vec<Layer>,
    pub sparse_h: usize,
}

impl Shape {
    pub fn full() -> Self {
        Self {
            ring: 8192,
            levels: 7,
            layers: vec![
                Layer {
                    diags: 25,
                    stride: 1,
                    weight_scale: 1.2,
                    activate: true,
                },
                Layer {
                    diags: 64,
                    stride: 2,
                    weight_scale: 0.4,
                    activate: true,
                },
                Layer {
                    diags: 16,
                    stride: 4,
                    weight_scale: 1.0,
                    activate: false,
                },
            ],
            sparse_h: 64,
        }
    }

    /// Same graph builder, compiler path and server path at a toy ring.
    pub fn smoke() -> Self {
        Self {
            ring: 256,
            levels: 7,
            layers: vec![
                Layer {
                    diags: 9,
                    stride: 1,
                    weight_scale: 1.2,
                    activate: true,
                },
                Layer {
                    diags: 16,
                    stride: 2,
                    weight_scale: 0.8,
                    activate: true,
                },
                Layer {
                    diags: 4,
                    stride: 4,
                    weight_scale: 1.0,
                    activate: false,
                },
            ],
            sparse_h: 16,
        }
    }
}

/// Deterministic weight diagonal `d` of layer `layer`: values in
/// `scale · [-0.5, 0.45]`, different per layer, diagonal and slot.
fn diagonal_weights(slots: usize, layer: usize, d: usize, scale: f64) -> Vec<f64> {
    (0..slots)
        .map(|k| scale * (((layer * 13 + d * 31 + k * 7) % 20) as f64 / 20.0 - 0.5))
        .collect()
}

/// The multi-layer network as one `HeGraph`: per layer a BSGS diagonal
/// matrix-vector product (baby rotations of the layer input, which the
/// lowering hoists into one batch; giant rotations of the partial sums),
/// one rescale, and the square activation where the layer has one.
pub fn mlp_graph(slots: usize, input_level: usize, layers: &[Layer]) -> RunnableWorkload {
    let mut g = HeGraph::new();
    let mut plain = BTreeMap::new();
    let x = g.input(input_level);
    let mut cur = x;
    let mut level = input_level;
    for (li, layer) in layers.iter().enumerate() {
        let baby = (layer.diags as f64).sqrt().ceil() as usize;
        let giant = layer.diags.div_ceil(baby);
        let babies: Vec<NodeId> = (0..baby)
            .map(|i| {
                if i == 0 {
                    cur
                } else {
                    g.rotate(cur, layer.stride * i as i64)
                }
            })
            .collect();
        let mut acc: Option<NodeId> = None;
        for j in 0..giant {
            let mut inner: Option<NodeId> = None;
            for (i, &b) in babies.iter().enumerate().take(layer.diags - j * baby) {
                let w = g.plain_input(level);
                plain.insert(
                    w,
                    diagonal_weights(slots, li, j * baby + i, layer.weight_scale),
                );
                let term = g.mul_plain(b, w);
                inner = Some(inner.map_or(term, |a| g.add(a, term)));
            }
            let inner = inner.expect("every giant step holds at least one diagonal");
            let rotated = if j == 0 {
                inner
            } else {
                g.rotate(inner, layer.stride * (j * baby) as i64)
            };
            acc = Some(acc.map_or(rotated, |a| g.add(a, rotated)));
        }
        cur = g.rescale(acc.expect("a layer has at least one diagonal"));
        level -= 1;
        if layer.activate {
            let sq = g.mul_ct(cur, cur);
            cur = g.rescale(sq);
            level -= 1;
        }
    }
    g.output(cur);
    RunnableWorkload {
        name: "LoLa-MNIST-shaped MLP",
        graph: g,
        plain,
        inputs: vec![x],
        input_level,
        slots,
    }
}

/// The compiled network: graph, lowered program and how long each took.
pub struct Compiled {
    pub net: RunnableWorkload,
    pub lowered: LoweredProgram,
    pub lower_ms: f64,
}

pub fn compile(shape: &Shape, spans: &SpanLog) -> Compiled {
    let slots = shape.ring / 2;
    let (net, _) = spans.time("setup.graph_build", 0, || {
        mlp_graph(slots, shape.levels, &shape.layers)
    });
    let (lowered, lower) = spans.time("setup.lower_to_program", 0, || {
        lower_to_program(
            &net.graph,
            &LowerOptions {
                slots,
                plain: net.plain.clone(),
                reorder: true,
                auto_bootstrap: None,
                max_live_cts: None,
            },
        )
        .expect("the MLP graph lowers")
    });
    Compiled {
        net,
        lowered,
        lower_ms: crate::stats::ms(lower),
    }
}

/// Context, graph, compile, keys, blobs, server, registration — everything
/// before the first job can be submitted.
fn setup(
    shape: &Shape,
    args: &RunArgs,
    root: &WorkRoot,
    rep: usize,
    spans: &SpanLog,
) -> (Served, JobServer) {
    let (ctx, _) = spans.time("setup.context", 0, || {
        strict_ctx(shape.ring, shape.levels, 45, 40, -60.0)
    });
    let compiled = compile(shape, spans);
    let served = Served::new(
        "lola",
        ctx,
        None,
        KeySwitchKind::Boosted { digits: 1 },
        shape.sparse_h,
        &compiled.lowered.rotation_steps,
        compiled.lowered.program,
        shape.levels,
        &mut rng_for(args.seed, 1),
        spans,
    );
    let (server, _) = spans.time("setup.server_start", 0, || {
        let server = JobServer::start(server_config(
            root.sub(&format!("srv{rep}")),
            1,
            0,
            args.journal,
        ))
        .expect("server starts");
        served.register(&server);
        server
    });
    (served, server)
}

/// `cl-compiler` as this workload uses it: lowering time, the program's
/// size and residency plan, and whether `predict_program` still equals the
/// measured op counts field by field.
fn compiler_metrics(
    shape: &Shape,
    served: &Served,
    job_ops: &OpSnapshot,
    spans: &SpanLog,
    m: &mut Metrics,
) {
    let compiles: Vec<Compiled> = (0..3).map(|_| compile(shape, spans)).collect();
    let lowered = &compiles[0].lowered;
    m.set(
        "compiler.lower_ms",
        median(&compiles.iter().map(|c| c.lower_ms).collect::<Vec<_>>()),
    );
    m.set("compiler.program_ops", lowered.program.len() as f64);
    m.set(
        "compiler.rotation_keys",
        lowered.rotation_steps.len() as f64,
    );
    m.set(
        "compiler.peak_live_pred",
        lowered.predicted_peak_live as f64,
    );
    let predicted = predict_program(shape.levels, served.kind, &[shape.levels], &lowered.program);
    let measured = OpSnapshot {
        bytes: 0,
        hint_regen: 0,
        ..*job_ops
    };
    m.set(
        "compiler.predict_exact",
        f64::from(u8::from(predicted == Ok(measured))),
    );
}

pub fn workload(smoke: bool) -> Closed {
    let shape = if smoke { Shape::smoke() } else { Shape::full() };
    let shape = std::rc::Rc::new(shape);
    let net = compile(&shape, &SpanLog::new(false)).net;
    let (s1, s2) = (std::rc::Rc::clone(&shape), std::rc::Rc::clone(&shape));
    Closed {
        name: "lola_mlp_8k",
        // 0.66 s per job at the seed commit on the 2-core reference host.
        jobs_per_run_second: 1.5,
        err_bound: 1e-3,
        checkpoint_every: 0,
        trace_jobs: 6,
        setup: Box::new(move |args, root, rep, spans| setup(&s1, args, root, rep, spans)),
        reference: Box::new(move |input| eval_plain(&net, &[input.to_vec()])),
        extra: Box::new(move |served, job_ops, spans, m| {
            compiler_metrics(&s2, served, job_ops, spans, m)
        }),
    }
}
