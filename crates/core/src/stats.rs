//! Execution statistics collected by the machine.

use std::collections::HashMap;

use cl_isa::{FuKind, OpLabel, TrafficClass};

use crate::ArchConfig;

/// Statistics accumulated over one program execution.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Total execution time in cycles.
    pub cycles: f64,
    /// Instance-busy cycles per FU kind (one FU busy for one cycle = 1).
    pub fu_busy: HashMap<FuKind, f64>,
    /// Cycles the HBM interface was transferring.
    pub hbm_busy: f64,
    /// Cycles the inter-group network was transferring.
    pub net_busy: f64,
    /// Cycles the register-file ports were transferring.
    pub rf_busy: f64,
    /// Off-chip traffic in bytes, by class (Fig. 10a).
    pub traffic_bytes: HashMap<TrafficClass, f64>,
    /// Scalar multiply-accumulate operations (for energy accounting).
    pub scalar_ops: f64,
    /// Register-file traffic in words.
    pub rf_words: f64,
    /// Network traffic in words.
    pub net_words: f64,
    /// Cycles attributed to each phase (app vs. bootstrap), by op count.
    pub phase_cycles: HashMap<OpLabel, f64>,
    /// Number of macro-ops executed.
    pub macro_ops: u64,
    /// Number of register-file evictions (capacity misses).
    pub evictions: u64,
    /// Evictions of dirty intermediates (each costs a writeback).
    pub evictions_dirty: u64,
}

impl Stats {
    /// Average FU utilization: busy-instance-cycles over
    /// `total FUs x cycles` (Fig. 9's FU bars).
    pub fn fu_utilization(&self, cfg: &ArchConfig) -> f64 {
        if self.cycles == 0.0 {
            return 0.0;
        }
        self.total_fu_busy() / (cfg.total_fus() * self.cycles)
    }

    /// Instance-busy cycles over all FU kinds. Summed in [`FuKind::ALL`]
    /// order: a map iterates in a different order every run, which would
    /// move the sum's last bit.
    pub fn total_fu_busy(&self) -> f64 {
        FuKind::ALL
            .iter()
            .map(|kind| self.fu_busy.get(kind).copied().unwrap_or(0.0))
            .sum()
    }

    /// Utilization of a single FU kind.
    pub fn fu_utilization_of(&self, cfg: &ArchConfig, kind: FuKind) -> f64 {
        let count = cfg.fu_count(kind);
        if self.cycles == 0.0 || count == 0.0 {
            return 0.0;
        }
        self.fu_busy.get(&kind).copied().unwrap_or(0.0) / (count * self.cycles)
    }

    /// Off-chip bandwidth utilization: fraction of cycles memory is active
    /// (Fig. 9's bandwidth bars).
    pub fn bw_utilization(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            (self.hbm_busy / self.cycles).min(1.0)
        }
    }

    /// Total off-chip traffic in bytes, summed in [`TrafficClass::ALL`]
    /// order (see [`Stats::total_fu_busy`]).
    pub fn total_traffic_bytes(&self) -> f64 {
        TrafficClass::ALL
            .iter()
            .map(|&class| self.traffic_of(class))
            .sum()
    }

    /// Traffic of one class in bytes.
    pub fn traffic_of(&self, class: TrafficClass) -> f64 {
        self.traffic_bytes.get(&class).copied().unwrap_or(0.0)
    }

    /// Execution time in milliseconds.
    pub fn exec_ms(&self, cfg: &ArchConfig) -> f64 {
        cfg.cycles_to_ms(self.cycles)
    }

    /// Adds traffic in bytes to a class.
    pub(crate) fn add_traffic(&mut self, class: TrafficClass, bytes: f64) {
        *self.traffic_bytes.entry(class).or_insert(0.0) += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let cfg = ArchConfig::craterlake();
        let mut s = Stats {
            cycles: 1000.0,
            ..Default::default()
        };
        // 2 NTT FUs busy 500 instance-cycles => 25% NTT utilization.
        s.fu_busy.insert(FuKind::Ntt, 500.0);
        assert!((s.fu_utilization_of(&cfg, FuKind::Ntt) - 0.25).abs() < 1e-12);
        // Average over all 15 FUs: 500 / 15000.
        assert!((s.fu_utilization(&cfg) - 500.0 / 15000.0).abs() < 1e-12);
        s.hbm_busy = 700.0;
        assert!((s.bw_utilization() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn traffic_accounting() {
        let mut s = Stats::default();
        s.add_traffic(TrafficClass::Ksh, 100.0);
        s.add_traffic(TrafficClass::Ksh, 50.0);
        s.add_traffic(TrafficClass::Input, 25.0);
        assert_eq!(s.traffic_of(TrafficClass::Ksh), 150.0);
        assert_eq!(s.total_traffic_bytes(), 175.0);
        assert_eq!(s.traffic_of(TrafficClass::IntermLoad), 0.0);
    }

    #[test]
    fn totals_do_not_depend_on_insertion_order() {
        // Addends whose sum depends on the order they are added in.
        let busy = [0.1, 0.2, 0.3, 1e15, 1e-3, 7.7];
        let bytes = [0.1, 0.2, 0.3, 1e16];
        let mut forward = Stats {
            cycles: 1000.0,
            ..Default::default()
        };
        let mut backward = forward.clone();
        for (&kind, &b) in FuKind::ALL.iter().zip(&busy) {
            forward.fu_busy.insert(kind, b);
        }
        for (&kind, &b) in FuKind::ALL.iter().zip(&busy).rev() {
            backward.fu_busy.insert(kind, b);
        }
        for (&class, &b) in TrafficClass::ALL.iter().zip(&bytes) {
            forward.add_traffic(class, b);
        }
        for (&class, &b) in TrafficClass::ALL.iter().zip(&bytes).rev() {
            backward.add_traffic(class, b);
        }
        let cfg = ArchConfig::craterlake();
        assert_eq!(
            forward.fu_utilization(&cfg).to_bits(),
            backward.fu_utilization(&cfg).to_bits()
        );
        assert_eq!(
            forward.total_fu_busy().to_bits(),
            busy.iter().sum::<f64>().to_bits()
        );
        assert_eq!(
            forward.total_traffic_bytes().to_bits(),
            backward.total_traffic_bytes().to_bits()
        );
        assert_eq!(
            forward.total_traffic_bytes().to_bits(),
            bytes.iter().sum::<f64>().to_bits()
        );
    }

    #[test]
    fn exec_ms_uses_frequency() {
        let cfg = ArchConfig::craterlake(); // 1 GHz
        let s = Stats {
            cycles: 2.5e8,
            ..Default::default()
        };
        assert!((s.exec_ms(&cfg) - 250.0).abs() < 1e-9);
    }
}
