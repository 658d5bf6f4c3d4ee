//! The metric tables: names and units exactly as `BENCHMARK.json` declares
//! them (the smoke run checks the two agree). Definitions, estimators and
//! bounds are in `README.md`.

use crate::json::Json;

pub const WORKLOADS: [&str; 4] = ["lola_mlp_8k", "boot_chain_1k", "serve_mix", "sim_table3"];

/// End-to-end metrics: reported by every workload on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: reported on a traced run. A metric whose layer does
/// no work in a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // cl-math
    ("math.ntt_fwd_us", "us"),
    ("math.ntt_inv_us", "us"),
    ("math.automorph_us", "us"),
    ("math.ntt_passes_per_job", "count"),
    ("math.automorph_per_job", "count"),
    ("math.ntt_share", "ratio"),
    // cl-rns
    ("rns.mul_us", "us"),
    ("rns.add_us", "us"),
    ("rns.baseconv_us", "us"),
    ("rns.mult_per_job", "count"),
    ("rns.add_per_job", "count"),
    ("rns.baseconv_per_job", "count"),
    ("rns.share", "ratio"),
    // cl-ckks
    ("ckks.encode_us", "us"),
    ("ckks.encodes_per_job", "count"),
    ("ckks.encode_share", "ratio"),
    ("ckks.encrypt_us", "us"),
    ("ckks.decrypt_us", "us"),
    ("ckks.ct_ser_us", "us"),
    ("ckks.ct_de_us", "us"),
    ("ckks.keyswitch_us", "us"),
    ("ckks.keyswitches_per_job", "count"),
    ("ckks.keyswitch_share", "ratio"),
    ("ckks.rotate_hoisted_share", "ratio"),
    ("ckks.rotate_share", "ratio"),
    ("ckks.mul_ct_share", "ratio"),
    ("ckks.mul_plain_share", "ratio"),
    ("ckks.rescale_share", "ratio"),
    ("ckks.key_verify_us", "us"),
    ("ckks.hint_expand_us", "us"),
    ("ckks.hint_regen_per_job", "count"),
    ("ckks.hint_hit_ratio", "ratio"),
    ("ckks.hint_resident_mib", "MiB"),
    ("ckks.keyswitch_scaling", "ratio"),
    ("ckks.precision_bits", "bits"),
    // cl-boot
    ("boot.mod_raise_ms", "ms"),
    ("boot.coeff_to_slot_ms", "ms"),
    ("boot.eval_mod_re_ms", "ms"),
    ("boot.eval_mod_im_ms", "ms"),
    ("boot.slot_to_coeff_ms", "ms"),
    ("boot.total_ms", "ms"),
    ("boot.share", "ratio"),
    ("boot.precision_bits", "bits"),
    ("boot.exit_level", "count"),
    ("boot.precompute_ms", "ms"),
    ("boot.precompute_mib", "MiB"),
    // cl-compiler
    ("compiler.lower_ms", "ms"),
    ("compiler.program_ops", "count"),
    ("compiler.rotation_keys", "count"),
    ("compiler.peak_live_pred", "count"),
    ("compiler.predict_exact", "count"),
    ("compiler.sweep_s", "s"),
    ("compiler.sim_host_ms.lstm", "ms"),
    ("compiler.sim_host_ms.resnet20", "ms"),
    ("compiler.sim_host_us_per_node", "us"),
    // cl-runtime
    ("runtime.program_parse_ms", "ms"),
    ("runtime.direct_run_ms", "ms"),
    ("runtime.exec_overhead_share", "ratio"),
    ("runtime.ckpt_write_ms", "ms"),
    ("runtime.ckpts_per_job", "count"),
    ("runtime.ckpt_mib_per_job", "MiB"),
    ("runtime.ckpt_share", "ratio"),
    ("runtime.peak_live_cts", "count"),
    ("runtime.direct_run_scaling", "ratio"),
    // cl-server
    ("server.submit_us", "us"),
    ("server.overhead_ms", "ms"),
    ("server.overhead_share", "ratio"),
    ("server.wait_ms_p50", "ms"),
    ("server.rate_p90_ms", "ms"),
    ("server.journal_append_us", "us"),
    ("server.journal_kib_per_job", "KiB"),
    ("server.journal_share", "ratio"),
    ("server.key_load_ms", "ms"),
    ("server.key_hit_ratio", "ratio"),
    ("server.shed_share", "ratio"),
    ("server.retries_per_job", "count"),
    ("server.worker_scaling", "ratio"),
    ("server.generator_lag_ms", "ms"),
    // cl-core (simulated; exact, so any change is drift)
    ("core.sim_ms.resnet20", "ms"),
    ("core.sim_ms.logreg", "ms"),
    ("core.sim_ms.lstm", "ms"),
    ("core.sim_ms.packed_boot", "ms"),
    ("core.sim_ms.cifar", "ms"),
    ("core.sim_ms.mnist_uw", "ms"),
    ("core.f1_speedup_deep", "ratio"),
    ("core.cpu_speedup_deep", "ratio"),
    ("core.macro_ops.lstm", "count"),
    ("core.evictions.lstm", "count"),
    ("core.hbm_util.resnet20", "ratio"),
    ("core.fu_util.resnet20", "ratio"),
    ("core.model_error_log2", "octaves"),
    // the traced run itself
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.closure_residual", "ratio"),
];

/// Values measured by one run, by metric name.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The contract's `metrics` object over `table`. An end-to-end metric
    /// must have been measured; a per-layer metric nobody set is a layer
    /// that did no work here, which reads 0.
    pub fn to_json(&self, table: &[(&str, &str)], require_all: bool) -> Json {
        Json::Obj(
            table
                .iter()
                .map(|(name, unit)| {
                    let value = match self.get(name) {
                        Some(v) => v,
                        None if require_all => panic!("end-to-end metric {name} was not measured"),
                        None => 0.0,
                    };
                    let entry = Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(*unit)),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        )
    }
}
