//! A pluggable bus backend: one concrete type that can stand behind a
//! simulated node's PCIe link.
//!
//! `SimulatedNode` historically hard-wired [`BusSimulator`]; replay-driven
//! machines (calibrating against a recorded trace from hardware we cannot
//! run code on) need a [`RecordedBus`] in the same slot. [`BusBackend`] is
//! the enum that unifies them: it implements [`Bus`] by delegation, so every
//! consumer written against the trait — the calibrator, the sweep
//! validators, the fault-injecting [`crate::FaultyBus`] wrapper — works with
//! either backend unchanged.

use crate::params::{Direction, MemType};
use crate::replay::RecordedBus;
use crate::sim::BusSimulator;
use crate::{Bus, TransferError};

/// The concrete bus standing behind a simulated node.
///
/// Wrapping (e.g. fault injection) stays orthogonal: `FaultyBus` borrows a
/// `&mut BusBackend` through the blanket `&mut B: Bus` impl, so no variant
/// is needed for it here.
#[derive(Debug, Clone)]
pub enum BusBackend {
    /// The mechanistic PCIe simulator (seeded noise, hiccups, staging).
    Sim(BusSimulator),
    /// A recorded trace replayed deterministically.
    Replay(RecordedBus),
}

impl BusBackend {
    /// Short tag for reports and cache keys: `sim` or `replay`.
    pub fn kind(&self) -> &'static str {
        match self {
            BusBackend::Sim(_) => "sim",
            BusBackend::Replay(_) => "replay",
        }
    }
}

impl Bus for BusBackend {
    fn transfer(&mut self, bytes: u64, dir: Direction, mem: MemType) -> f64 {
        match self {
            BusBackend::Sim(b) => b.transfer(bytes, dir, mem),
            BusBackend::Replay(b) => b.transfer(bytes, dir, mem),
        }
    }

    fn try_transfer(
        &mut self,
        bytes: u64,
        dir: Direction,
        mem: MemType,
    ) -> Result<f64, TransferError> {
        match self {
            BusBackend::Sim(b) => b.try_transfer(bytes, dir, mem),
            BusBackend::Replay(b) => b.try_transfer(bytes, dir, mem),
        }
    }

    fn describe(&self) -> String {
        match self {
            BusBackend::Sim(b) => b.describe(),
            BusBackend::Replay(b) => b.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BusParams;
    use crate::Calibrator;

    #[test]
    fn sim_backend_is_bit_identical_to_the_bare_simulator() {
        let mut bare = BusSimulator::new(BusParams::pcie_v1_x16(), 7);
        let mut wrapped = BusBackend::Sim(BusSimulator::new(BusParams::pcie_v1_x16(), 7));
        for &bytes in &[1u64, 1024, 1 << 20, 64 << 20] {
            let a = bare.transfer(bytes, Direction::HostToDevice, MemType::Pinned);
            let b = wrapped.transfer(bytes, Direction::HostToDevice, MemType::Pinned);
            assert_eq!(a.to_bits(), b.to_bits(), "bytes={bytes}");
        }
        assert_eq!(wrapped.kind(), "sim");
    }

    #[test]
    fn replay_backend_calibrates_like_the_bare_trace() {
        const TRACE: &str = "\
1          h2d pinned 9.9e-6
536870912  h2d pinned 0.215
1          d2h pinned 1.13e-5
536870912  d2h pinned 0.216
";
        let samples = crate::replay::parse_samples(TRACE).unwrap();
        let mut bare = RecordedBus::from_samples("t", &samples).unwrap();
        let mut wrapped = BusBackend::Replay(bare.clone());
        let a = Calibrator::default().calibrate(&mut bare);
        let b = Calibrator::default().calibrate(&mut wrapped);
        assert_eq!(a.h2d.alpha.to_bits(), b.h2d.alpha.to_bits());
        assert_eq!(a.h2d.beta.to_bits(), b.h2d.beta.to_bits());
        assert_eq!(wrapped.kind(), "replay");
        assert!(wrapped.describe().contains("recorded"));
    }
}
