//! The paper's benchmark suite (Sec. 8) as HE dataflow-graph generators.
//!
//! Four deep benchmarks (high multiplicative depth, bootstrapping):
//! LSTM inference, ResNet-20 inference, HELR logistic-regression training,
//! and fully packed bootstrapping. Four shallow benchmarks (low depth, no
//! bootstrapping): unpacked bootstrapping and the three LoLa networks
//! (CIFAR with unencrypted weights, MNIST with unencrypted and encrypted
//! weights).
//!
//! Each generator reproduces the benchmark's *structure* — layer shapes,
//! BSGS matrix-vector kernels, activation-polynomial depths, bootstrap
//! placement and rotation-amount reuse — so the machine model sees the
//! same operation mix and keyswitch-hint locality the paper's workloads
//! exhibit. Exact op counts are parameterized and documented.

#![warn(missing_docs)]
// Library code must propagate failures (`FheResult`/`?`) or `expect` with
// the violated invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod bootstrap_bench;
mod kernels;
mod lola;
mod logreg;
mod lstm;
mod resnet;
mod runnable;

pub use bootstrap_bench::{packed_bootstrapping, packed_bootstrapping_at, unpacked_bootstrapping};
pub use kernels::{bsgs_matvec, poly_eval, rotation_reduce};
pub use lola::{lola_cifar_uw, lola_mnist_ew, lola_mnist_uw};
pub use logreg::{logistic_regression, logistic_regression_at};
pub use lstm::{lstm, lstm_at};
pub use resnet::{resnet20, resnet20_at};
pub use runnable::{
    eval_plain, inner_sum_runnable, lola_layer_runnable, lola_mlp_runnable, DenseLayer,
    RunnableWorkload,
};

use cl_isa::HeGraph;

/// A benchmark instance: its graph plus the parameters the compiler needs.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Display name matching the paper's tables.
    pub name: &'static str,
    /// The homomorphic dataflow graph.
    pub graph: HeGraph,
    /// Ring degree.
    pub n: usize,
    /// Whether this counts as a deep benchmark (Table 3's grouping).
    pub deep: bool,
}

/// All eight benchmarks in Table 3 order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        resnet20(),
        logistic_regression(),
        lstm(),
        packed_bootstrapping(),
        unpacked_bootstrapping(),
        lola_cifar_uw(),
        lola_mnist_uw(),
        lola_mnist_ew(),
    ]
}

/// The deep benchmarks only.
pub fn deep_benchmarks() -> Vec<Benchmark> {
    all_benchmarks().into_iter().filter(|b| b.deep).collect()
}

/// The deep benchmarks regenerated at a different operating point
/// (ring degree and maximum budget) — the Table 5 security sweep.
pub fn deep_benchmarks_at(n: usize, l_max: usize) -> Vec<Benchmark> {
    vec![
        resnet20_at(n, l_max),
        logistic_regression_at(n, l_max),
        lstm_at(n, l_max),
        packed_bootstrapping_at(n, l_max),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_validate() {
        for b in all_benchmarks() {
            let nodes = b.graph.validate();
            assert!(nodes > 0, "{} is empty", b.name);
            assert!(b.n.is_power_of_two());
        }
    }

    #[test]
    fn deep_benchmarks_bootstrap_shallow_do_not() {
        for b in all_benchmarks() {
            let raises = b.graph.op_histogram().mod_raises;
            if b.deep {
                assert!(raises > 0, "{} should bootstrap", b.name);
            } else if b.name.contains("Bootstrapping") {
                assert!(raises > 0);
            } else {
                assert_eq!(raises, 0, "{} should not bootstrap", b.name);
            }
        }
    }

    #[test]
    fn table3_grouping() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 8);
        assert_eq!(deep_benchmarks().len(), 4);
        assert_eq!(all[0].name, "ResNet-20");
        assert_eq!(all[4].name, "Unpacked Bootstrapping");
    }

    #[test]
    fn deep_benchmarks_reach_high_levels() {
        for b in deep_benchmarks() {
            assert!(
                b.graph.max_level() >= 50,
                "{} max level {}",
                b.name,
                b.graph.max_level()
            );
        }
    }

    #[test]
    fn shallow_benchmarks_stay_shallow() {
        for b in all_benchmarks() {
            if !b.deep && !b.name.contains("Bootstrapping") {
                assert!(
                    b.graph.max_level() <= 8,
                    "{} max level {}",
                    b.name,
                    b.graph.max_level()
                );
            }
        }
    }
}
