//! A fault-injecting [`Bus`] wrapper.
//!
//! [`FaultyBus`] sits between a consumer (calibrator, sweep validation,
//! measurement loop) and a real bus, consulting a seeded
//! [`FaultInjector`] on every transfer:
//!
//! * [`gpp_fault::PCIE_TRANSFER_ERROR`] — the attempt fails outright.
//!   [`Bus::try_transfer`] surfaces it as a [`TransferError`]; the
//!   infallible [`Bus::transfer`] retries internally (bounded) and charges
//!   the failed attempts' wall time, like a driver-level retry would.
//! * [`gpp_fault::PCIE_TRANSFER_STALL`] — the transfer completes but its
//!   time is multiplied by the rule's factor (DMA engine stall, contention
//!   burst).
//! * [`gpp_fault::PCIE_CALIBRATION_OUTLIER`] — identical mechanically to a
//!   stall, but named separately so a plan can corrupt *calibration*
//!   measurements specifically (the calibrator talks to the bus through
//!   this wrapper) and the robust calibration path can be tested against
//!   exactly the fault class it exists to reject.
//!
//! The wrapper always takes the inner measurement **before** deciding the
//! fault, so the inner bus's RNG stream advances exactly once per attempt
//! — with an inactive injector the wrapped bus is bit-identical to the
//! bare one.

use crate::params::{Direction, MemType};
use crate::{Bus, TransferError};
use gpp_fault::FaultInjector;
use std::sync::Arc;

/// How many times the infallible [`Bus::transfer`] path retries an
/// injected error before giving up and returning the accumulated time
/// anyway (a real driver eventually completes or the job dies; the model
/// must return *some* finite cost either way).
pub const MAX_INTERNAL_RETRIES: u32 = 8;

/// A [`Bus`] wrapper that injects seeded faults. See the module docs.
pub struct FaultyBus<B: Bus> {
    inner: B,
    faults: Arc<FaultInjector>,
    attempts: u64,
    machine: Option<String>,
}

impl<B: Bus> FaultyBus<B> {
    /// Wraps `inner`, consulting `faults` on every transfer.
    pub fn new(inner: B, faults: Arc<FaultInjector>) -> Self {
        FaultyBus {
            inner,
            faults,
            attempts: 0,
            machine: None,
        }
    }

    /// Labels this bus with the machine it belongs to, so plans can scope
    /// rules to one machine via `point@machine` names (bare rules still
    /// apply when no scoped rule exists — see
    /// [`FaultInjector::fire_factor_scoped`]).
    pub fn with_machine(mut self, machine: impl Into<String>) -> Self {
        self.machine = Some(machine.into());
        self
    }

    /// The injector this bus consults.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Unwraps, returning the inner bus.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// One transfer attempt: inner time first (inner RNG advances exactly
    /// once), then the fault decision in a fixed order (error, stall,
    /// outlier).
    fn attempt(
        &mut self,
        bytes: u64,
        dir: Direction,
        mem: MemType,
    ) -> (f64, Option<TransferError>) {
        let mut t = self.inner.transfer(bytes, dir, mem);
        self.attempts += 1;
        if !self.faults.is_active() {
            return (t, None);
        }
        let machine = self.machine.as_deref();
        if self
            .faults
            .fires_scoped(gpp_fault::PCIE_TRANSFER_ERROR, machine)
        {
            return (
                t,
                Some(TransferError {
                    point: gpp_fault::PCIE_TRANSFER_ERROR.to_string(),
                    occurrence: self.attempts,
                }),
            );
        }
        if let Some(factor) = self
            .faults
            .fire_factor_scoped(gpp_fault::PCIE_TRANSFER_STALL, machine)
        {
            t *= factor;
        }
        if let Some(factor) = self
            .faults
            .fire_factor_scoped(gpp_fault::PCIE_CALIBRATION_OUTLIER, machine)
        {
            t *= factor;
        }
        (t, None)
    }
}

impl<B: Bus> Bus for FaultyBus<B> {
    fn transfer(&mut self, bytes: u64, dir: Direction, mem: MemType) -> f64 {
        let mut total = 0.0;
        for _ in 0..=MAX_INTERNAL_RETRIES {
            let (t, err) = self.attempt(bytes, dir, mem);
            total += t;
            if err.is_none() {
                break;
            }
        }
        total
    }

    fn try_transfer(
        &mut self,
        bytes: u64,
        dir: Direction,
        mem: MemType,
    ) -> Result<f64, TransferError> {
        match self.attempt(bytes, dir, mem) {
            (t, None) => Ok(t),
            (_, Some(err)) => Err(err),
        }
    }

    fn describe(&self) -> String {
        format!("faulty({})", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BusParams;
    use crate::sim::BusSimulator;
    use gpp_fault::FaultPlan;

    fn quiet_bus(seed: u64) -> BusSimulator {
        BusSimulator::new(BusParams::pcie_v1_x16().quiet(), seed)
    }

    #[test]
    fn inactive_injector_is_transparent() {
        let mut bare = quiet_bus(7);
        let mut wrapped = FaultyBus::new(quiet_bus(7), FaultInjector::disabled());
        for i in 1..=20u64 {
            let bytes = i * 4096;
            let a = bare.transfer(bytes, Direction::HostToDevice, MemType::Pinned);
            let b = wrapped.transfer(bytes, Direction::HostToDevice, MemType::Pinned);
            assert_eq!(a.to_bits(), b.to_bits(), "transfer {i} diverged");
        }
    }

    #[test]
    fn error_point_fails_try_transfer_and_retries_in_transfer() {
        let plan: FaultPlan = "pcie.transfer.error:first=2".parse().unwrap();
        let mut bus = FaultyBus::new(quiet_bus(1), Arc::new(FaultInjector::new(plan)));
        let err = bus
            .try_transfer(1 << 20, Direction::HostToDevice, MemType::Pinned)
            .unwrap_err();
        assert_eq!(err.point, gpp_fault::PCIE_TRANSFER_ERROR);
        assert_eq!(err.occurrence, 1);
        // The infallible path absorbs the one remaining scheduled error:
        // attempt 2 fails, attempt 3 succeeds, both attempts charged.
        let clean = quiet_bus(1).transfer(1 << 20, Direction::HostToDevice, MemType::Pinned);
        let t = bus.transfer(1 << 20, Direction::HostToDevice, MemType::Pinned);
        assert!(t > 1.5 * clean, "retry cost not charged: {t} vs {clean}");
    }

    #[test]
    fn stall_and_outlier_inflate_time() {
        for point in ["pcie.transfer.stall", "pcie.calibration.outlier"] {
            let plan: FaultPlan = format!("{point}:always,factor=10").parse().unwrap();
            let mut bus = FaultyBus::new(quiet_bus(3), Arc::new(FaultInjector::new(plan)));
            let clean = quiet_bus(3).transfer(8 << 20, Direction::HostToDevice, MemType::Pinned);
            let t = bus
                .try_transfer(8 << 20, Direction::HostToDevice, MemType::Pinned)
                .unwrap();
            assert!(
                (9.0 * clean..11.0 * clean).contains(&t),
                "{point}: {t} vs clean {clean}"
            );
        }
    }

    #[test]
    fn exhausted_retries_still_return_finite_time() {
        let plan: FaultPlan = "pcie.transfer.error:always".parse().unwrap();
        let mut bus = FaultyBus::new(quiet_bus(1), Arc::new(FaultInjector::new(plan)));
        let t = bus.transfer(4096, Direction::DeviceToHost, MemType::Pinned);
        assert!(t.is_finite() && t > 0.0);
        assert_eq!(
            bus.injector().total_fired(),
            u64::from(MAX_INTERNAL_RETRIES) + 1
        );
    }

    #[test]
    fn machine_scoped_rules_hit_only_their_machine() {
        let plan: FaultPlan = "pcie.transfer.stall@v2:always,factor=10".parse().unwrap();
        let faults = Arc::new(FaultInjector::new(plan));
        let clean = quiet_bus(3).transfer(8 << 20, Direction::HostToDevice, MemType::Pinned);
        let mut on_v2 = FaultyBus::new(quiet_bus(3), faults.clone()).with_machine("v2");
        let t = on_v2.transfer(8 << 20, Direction::HostToDevice, MemType::Pinned);
        assert!(t > 9.0 * clean, "scoped stall missing: {t} vs {clean}");
        let mut on_eureka = FaultyBus::new(quiet_bus(3), faults).with_machine("eureka");
        let t = on_eureka.transfer(8 << 20, Direction::HostToDevice, MemType::Pinned);
        assert_eq!(t.to_bits(), clean.to_bits(), "bare machine affected");
    }

    #[test]
    fn describe_marks_the_wrapper() {
        let bus = FaultyBus::new(quiet_bus(1), FaultInjector::disabled());
        assert!(bus.describe().starts_with("faulty("));
    }
}
