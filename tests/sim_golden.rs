//! Golden record of the machine model: the sixteen Table 3 simulations
//! (`all_benchmarks()` on CraterLake and on F1+, LSTM included), compared
//! exactly.
//!
//! A change that only makes the simulator faster must leave every simulated
//! statistic alone, so floats are compared by bit pattern. A deliberate
//! model change re-records this table (and `crates/bench/golden/`) and says
//! so: any `core.*` movement is declared drift.
//!
//! Every column except `evictions` was produced by the code *before* the
//! residency index existed (the linear-scan `make_room`; three runs,
//! identical). `evictions` could not be: that code broke `(score, words)`
//! ties by `HashMap` iteration order, and a tie between a dead value and one
//! dying in the current op moves the *count* of (free) evictions without
//! moving a byte or a cycle — three runs of it read 17055 / 17056 / 17065
//! for ResNet-20 on CraterLake and 58103 / 58109 / 58102 for LSTM. That
//! column is recorded from the explicit tie rule (largest `ValueId`).

use craterlake::apps::all_benchmarks;
use craterlake::baselines::{craterlake_options, f1_plus_options};
use craterlake::compiler::compile_and_run;
use craterlake::isa::TrafficClass;

struct Golden {
    bench: &'static str,
    arch: &'static str,
    cycles: u64,
    hbm_busy: u64,
    macro_ops: u64,
    evictions: u64,
    evictions_dirty: u64,
    /// Bytes per class, in `TrafficClass::ALL` order.
    traffic: [u64; 4],
}

#[rustfmt::skip]
const GOLDEN: [Golden; 16] = [
    Golden { bench: "ResNet-20", arch: "CraterLake", cycles: 0x418b2ea600000000, hbm_busy: 0x418b2e6200000000, macro_ops: 18982, evictions: 17024, evictions_dirty: 0, traffic: [0x4217634c00000000, 0x421ef97800000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "ResNet-20", arch: "F1+", cycles: 0x41a6ce5589250002, hbm_busy: 0x419a414000000000, macro_ops: 18982, evictions: 15608, evictions_dirty: 0, traffic: [0x423151c000000000, 0x4221df0000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "Logistic Regression", arch: "CraterLake", cycles: 0x4175017600000000, hbm_busy: 0x4174f1d600000000, macro_ops: 4652, evictions: 3226, evictions_dirty: 0, traffic: [0x42045db000000000, 0x420585fc00000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "Logistic Regression", arch: "F1+", cycles: 0x4199b1406db7bffe, hbm_busy: 0x418afa2800000000, macro_ops: 4652, evictions: 3198, evictions_dirty: 0, traffic: [0x4224b70000000000, 0x42090ca000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "LSTM", arch: "CraterLake", cycles: 0x41a2f67500000000, hbm_busy: 0x41a2f63680000000, macro_ops: 66901, evictions: 58101, evictions_dirty: 0, traffic: [0x42363bb600000000, 0x422f616e00000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "LSTM", arch: "F1+", cycles: 0x41b84ba7b0000000, hbm_busy: 0x41b8033e00000000, macro_ops: 66901, evictions: 49594, evictions_dirty: 0, traffic: [0x4253879c00000000, 0x4231ee8800000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "Packed Bootstrapping", arch: "CraterLake", cycles: 0x414176b000000000, hbm_busy: 0x4141671000000000, macro_ops: 340, evictions: 217, evictions_dirty: 0, traffic: [0x41d1288000000000, 0x41d1a5a000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "Packed Bootstrapping", arch: "F1+", cycles: 0x4162a7dc00000000, hbm_busy: 0x414e198000000000, macro_ops: 340, evictions: 234, evictions_dirty: 0, traffic: [0x41e4040000000000, 0x41d42b0000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "Unpacked Bootstrapping", arch: "CraterLake", cycles: 0x40f67e0000000000, hbm_busy: 0x40ec700000000000, macro_ops: 42, evictions: 0, evictions_dirty: 0, traffic: [0x4180680000000000, 0x4178100000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "Unpacked Bootstrapping", arch: "F1+", cycles: 0x41207652492aaaab, hbm_busy: 0x4100500000000000, macro_ops: 42, evictions: 0, evictions_dirty: 0, traffic: [0x4199c00000000000, 0x417b800000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "CIFAR Unencryp. Wghts.", arch: "CraterLake", cycles: 0x4147943000000000, hbm_busy: 0x4147935000000000, macro_ops: 17843, evictions: 15257, evictions_dirty: 0, traffic: [0x41ab040000000000, 0x41e5e31000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "CIFAR Unencryp. Wghts.", arch: "F1+", cycles: 0x41542e8800000000, hbm_busy: 0x41542e8000000000, macro_ops: 17843, evictions: 13724, evictions_dirty: 0, traffic: [0x41deb30000000000, 0x41e9038000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "MNIST Unencryp. Wghts.", arch: "CraterLake", cycles: 0x40f91a8000000000, hbm_busy: 0x40f9050000000000, macro_ops: 636, evictions: 0, evictions_dirty: 0, traffic: [0x41790c0000000000, 0x4192c20000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "MNIST Unencryp. Wghts.", arch: "F1+", cycles: 0x41100be000000000, hbm_busy: 0x4110080000000000, macro_ops: 636, evictions: 1, evictions_dirty: 0, traffic: [0x41a5580000000000, 0x4195700000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "MNIST Encryp. Wghts.", arch: "CraterLake", cycles: 0x4105cec000000000, hbm_busy: 0x4105c40000000000, macro_ops: 636, evictions: 0, evictions_dirty: 0, traffic: [0x4179280000000000, 0x41a29f0000000000, 0x0000000000000000, 0x0000000000000000] },
    Golden { bench: "MNIST Encryp. Wghts.", arch: "F1+", cycles: 0x41156be000000000, hbm_busy: 0x4115680000000000, macro_ops: 636, evictions: 18, evictions_dirty: 0, traffic: [0x41a5880000000000, 0x41a5480000000000, 0x0000000000000000, 0x0000000000000000] },
];

#[test]
fn table3_simulations_match_the_golden_record_bit_for_bit() {
    let mut golden = GOLDEN.iter();
    for b in all_benchmarks() {
        for (arch, opts) in [craterlake_options(b.n), f1_plus_options(b.n)] {
            let want = golden.next().expect("sixteen golden rows");
            let at = format!("{} on {}", b.name, arch.name);
            assert_eq!((b.name, arch.name.as_str()), (want.bench, want.arch));
            let s = compile_and_run(&b.graph, &arch, &opts);
            assert_eq!(s.cycles.to_bits(), want.cycles, "cycles, {at}");
            assert_eq!(s.hbm_busy.to_bits(), want.hbm_busy, "hbm_busy, {at}");
            assert_eq!(s.macro_ops, want.macro_ops, "macro_ops, {at}");
            assert_eq!(s.evictions, want.evictions, "evictions, {at}");
            assert_eq!(
                s.evictions_dirty, want.evictions_dirty,
                "evictions_dirty, {at}"
            );
            let traffic = TrafficClass::ALL.map(|c| s.traffic_of(c).to_bits());
            assert_eq!(traffic, want.traffic, "traffic, {at}");
        }
    }
    assert!(golden.next().is_none());
}
