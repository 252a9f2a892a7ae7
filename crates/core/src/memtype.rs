//! Pinned-vs-pageable tradeoff exploration — the paper's stated future
//! work (§VII): "we plan to expand the scope of the data transfer overhead
//! modeling to explore the tradeoffs of using different types of memory
//! (i.e., pinned and pageable) and account for the overhead of memory
//! allocation."
//!
//! The tradeoff is real: pinned transfers are faster per byte, but
//! `cudaHostAlloc` must lock every page up front, so a workload that
//! transfers little (or only once) can come out ahead with plain
//! `malloc`. This module calibrates *both* memory types, adds the
//! allocation model, and recommends a host memory type per workload.

use gpp_datausage::{TransferDir, TransferPlan};
use gpp_pcie::model::DirectionalModel;
use gpp_pcie::{AllocModel, Bus, Calibrator, Direction, MemType};

/// The outcome of the tradeoff exploration for one transfer plan.
#[derive(Debug, Clone)]
pub struct MemTypeReport {
    /// Projected transfer seconds with pinned host memory.
    pub pinned_transfer: f64,
    /// Projected transfer seconds with pageable host memory.
    pub pageable_transfer: f64,
    /// One-time host allocation overhead, pinned.
    pub pinned_alloc: f64,
    /// One-time host allocation overhead, pageable.
    pub pageable_alloc: f64,
    /// Iteration counts considered equal or better for pageable memory:
    /// below this many *offload sessions* (allocate + transfer cycles),
    /// pageable wins; above it, pinned's faster transfers amortize the
    /// page-locking cost. `None` when pinned wins even once.
    pub pageable_wins_below_sessions: Option<u32>,
}

impl MemTypeReport {
    /// Total projected cost of `sessions` offload sessions with each type.
    pub fn totals(&self, sessions: u32) -> (f64, f64) {
        (
            self.pinned_alloc + self.pinned_transfer * sessions as f64,
            self.pageable_alloc + self.pageable_transfer * sessions as f64,
        )
    }

    /// The recommended memory type for `sessions` offload sessions.
    pub fn recommend(&self, sessions: u32) -> MemType {
        let (pin, page) = self.totals(sessions);
        if pin <= page {
            MemType::Pinned
        } else {
            MemType::Pageable
        }
    }
}

/// A both-memory-types calibration: the pinned model (the paper's default)
/// plus a pageable model fitted by the same two-point procedure.
pub struct DualCalibration {
    /// Pinned-memory fit.
    pub pinned: DirectionalModel,
    /// Pageable-memory fit.
    pub pageable: DirectionalModel,
    /// Allocation-cost model.
    pub alloc: AllocModel,
}

impl DualCalibration {
    /// Calibrates both memory types on a bus.
    pub fn run(bus: &mut dyn Bus) -> Self {
        let pinned = Calibrator::default().calibrate(bus);
        let pageable = Calibrator {
            mem: MemType::Pageable,
            ..Calibrator::default()
        }
        .calibrate(bus);
        DualCalibration {
            pinned,
            pageable,
            alloc: AllocModel::cuda2_era(),
        }
    }

    /// Projects the plan's transfer time under one memory type's model.
    pub fn transfer_time(&self, plan: &TransferPlan, mem: MemType) -> f64 {
        let model = match mem {
            MemType::Pinned => &self.pinned,
            MemType::Pageable => &self.pageable,
        };
        plan.all()
            .map(|t| {
                let dir = match t.dir {
                    TransferDir::ToDevice => Direction::HostToDevice,
                    TransferDir::FromDevice => Direction::DeviceToHost,
                };
                model.predict(t.bytes, dir)
            })
            .sum()
    }

    /// Runs the full tradeoff analysis for a transfer plan.
    ///
    /// A "session" is one allocate-transfer-compute-transfer cycle; host
    /// buffers are allocated once and reused across sessions, so the
    /// allocation cost is paid once while the per-session transfer
    /// difference accumulates.
    pub fn explore(&self, plan: &TransferPlan) -> MemTypeReport {
        let host_bytes = plan.h2d_bytes().max(plan.d2h_bytes());
        let pinned_transfer = self.transfer_time(plan, MemType::Pinned);
        let pageable_transfer = self.transfer_time(plan, MemType::Pageable);
        let pinned_alloc = self.alloc.host(host_bytes, MemType::Pinned);
        let pageable_alloc = self.alloc.host(host_bytes, MemType::Pageable);

        // Find the break-even session count: pinned_alloc + s·pin_t =
        // pageable_alloc + s·page_t  ⇒  s = Δalloc / Δtransfer.
        let d_alloc = pinned_alloc - pageable_alloc;
        let d_transfer = pageable_transfer - pinned_transfer;
        let pageable_wins_below_sessions = if d_transfer <= 0.0 {
            // Pageable transfers are no slower: pageable always wins.
            Some(u32::MAX)
        } else if d_alloc <= 0.0 {
            // Pinned allocation is no more expensive: pinned always wins.
            None
        } else {
            Some((d_alloc / d_transfer).ceil() as u32)
        };

        MemTypeReport {
            pinned_transfer,
            pageable_transfer,
            pinned_alloc,
            pageable_alloc,
            pageable_wins_below_sessions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_pcie::{BusParams, BusSimulator};
    use gpp_workloads::{hotspot::HotSpot, srad::Srad};

    fn dual() -> (BusSimulator, DualCalibration) {
        let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), 5);
        let cal = DualCalibration::run(&mut bus);
        (bus, cal)
    }

    #[test]
    fn pageable_model_is_slower_per_byte() {
        let (_, cal) = dual();
        assert!(cal.pageable.h2d.bandwidth() < cal.pinned.h2d.bandwidth());
        assert!(cal.pageable.d2h.bandwidth() < cal.pinned.d2h.bandwidth());
    }

    #[test]
    fn single_session_small_workload_prefers_pageable() {
        // HotSpot 64x64 moves ~48 KB: locking pages costs more than the
        // slower transfer.
        let (_, cal) = dual();
        let hs = HotSpot { n: 64 };
        let plan = gpp_datausage::analyze(&hs.program(), &hs.hints());
        let report = cal.explore(&plan);
        assert_eq!(report.recommend(1), MemType::Pageable);
    }

    #[test]
    fn repeated_sessions_prefer_pinned_for_big_workloads() {
        let (_, cal) = dual();
        let s = Srad { n: 2048 };
        let plan = gpp_datausage::analyze(&s.program(), &s.hints());
        let report = cal.explore(&plan);
        // 32 MB each way: pinned transfer advantage is milliseconds per
        // session; after a handful of sessions pinned must win.
        assert_eq!(report.recommend(100), MemType::Pinned);
        let crossover = report.pageable_wins_below_sessions.unwrap_or(0);
        assert!(crossover < 100, "crossover {crossover}");
    }

    #[test]
    fn totals_are_consistent_with_recommendation() {
        let (_, cal) = dual();
        let s = Srad { n: 1024 };
        let plan = gpp_datausage::analyze(&s.program(), &s.hints());
        let report = cal.explore(&plan);
        for sessions in [1u32, 2, 5, 20, 200] {
            let (pin, page) = report.totals(sessions);
            match report.recommend(sessions) {
                MemType::Pinned => assert!(pin <= page),
                MemType::Pageable => assert!(page < pin),
            }
        }
    }
}
