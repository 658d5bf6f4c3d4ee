//! Energy and power model (Fig. 10b).
//!
//! The paper derives energy from activity-level energies of synthesized
//! components (Sec. 8); we have no synthesis flow, so we encode calibrated
//! per-activity energies chosen to land the published operating points
//! (ResNet-20 ≈ 279 W, deep benchmarks near the 320 W envelope, shallow
//! MNIST ≈ 80-100 W, FUs consuming 50-80% of total). The *structure* of the
//! model matches the paper's: FU energy scales with scalar operations, RF
//! energy with register-file words, network energy with transpose traffic,
//! and HBM energy with off-chip bytes, plus a constant idle/leakage floor.

use crate::{ArchConfig, Stats};

/// Energy per scalar multiply-accumulate (28-bit, pipelined to the
/// energy-optimal point, Sec. 5.5), in picojoules.
pub const PJ_PER_SCALAR_OP: f64 = 2.0;
/// Energy per register-file byte moved, in picojoules.
pub const PJ_PER_RF_BYTE: f64 = 2.0;
/// Energy per inter-group network byte moved, in picojoules.
pub const PJ_PER_NET_BYTE: f64 = 1.0;
/// Energy per off-chip (HBM) byte moved, in picojoules.
pub const PJ_PER_HBM_BYTE: f64 = 60.0;
/// Idle/leakage power floor in watts (clock tree, SRAM leakage, PHYs).
pub const IDLE_WATTS: f64 = 30.0;

/// Average-power breakdown over one execution, in watts (Fig. 10b's bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Functional units (scalar arithmetic).
    pub fu: f64,
    /// Register file.
    pub rf: f64,
    /// On-chip network.
    pub noc: f64,
    /// HBM (device + PHY + controller).
    pub hbm: f64,
    /// Idle/leakage floor.
    pub idle: f64,
}

impl PowerBreakdown {
    /// Total average power in watts.
    pub fn total(&self) -> f64 {
        self.fu + self.rf + self.noc + self.hbm + self.idle
    }
}

/// Computes the average-power breakdown for an execution.
pub fn power_breakdown(cfg: &ArchConfig, stats: &Stats) -> PowerBreakdown {
    let seconds = stats.cycles / (cfg.freq_ghz * 1e9);
    if seconds == 0.0 {
        return PowerBreakdown {
            fu: 0.0,
            rf: 0.0,
            noc: 0.0,
            hbm: 0.0,
            idle: IDLE_WATTS,
        };
    }
    let fu_j = stats.scalar_ops * PJ_PER_SCALAR_OP * 1e-12;
    let rf_j = stats.rf_words * cfg.word_bytes() * PJ_PER_RF_BYTE * 1e-12;
    let noc_j = stats.net_words * cfg.word_bytes() * PJ_PER_NET_BYTE * 1e-12;
    let hbm_j = stats.total_traffic_bytes() * PJ_PER_HBM_BYTE * 1e-12;
    PowerBreakdown {
        fu: fu_j / seconds,
        rf: rf_j / seconds,
        noc: noc_j / seconds,
        hbm: hbm_j / seconds,
        idle: IDLE_WATTS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_isa::{FuKind, TrafficClass};

    #[test]
    fn zero_time_yields_idle_only() {
        let cfg = ArchConfig::craterlake();
        let p = power_breakdown(&cfg, &Stats::default());
        assert_eq!(p.fu, 0.0);
        assert_eq!(p.total(), IDLE_WATTS);
    }

    #[test]
    fn power_scales_with_activity() {
        let cfg = ArchConfig::craterlake();
        let mut s = Stats {
            cycles: 1e9, // 1 second at 1 GHz
            scalar_ops: 5e13,
            rf_words: 1e13,
            net_words: 2e12,
            ..Default::default()
        };
        s.add_traffic(TrafficClass::Ksh, 200e9);
        let p = power_breakdown(&cfg, &s);
        // FU: 5e13 * 2 pJ = 100 W.
        assert!((p.fu - 100.0).abs() < 1e-6);
        // RF: 1e13 words * 3.5 B * 2 pJ = 70 W.
        assert!((p.rf - 70.0).abs() < 1e-6);
        // HBM: 200 GB/s * 60 pJ/B = 12 W.
        assert!((p.hbm - 12.0).abs() < 1e-6);
        assert!(p.total() > p.fu);
    }

    #[test]
    fn peak_ops_match_paper_scale() {
        // Sec. 5.1: the CRB unit alone has 120K multipliers and adders at
        // L_max = 60 (60 pipelines x 2048 lanes = 122,880 MACs).
        let cfg = ArchConfig::craterlake();
        let crb_macs = cfg.fu_count(FuKind::Crb) * 60.0 * cfg.lanes as f64;
        assert!((crb_macs - 122_880.0).abs() < 1.0);
    }
}
