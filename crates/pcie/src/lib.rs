//! PCIe data-transfer modeling: the heart of GROPHECY++'s extension.
//!
//! The paper's first contribution (§III-C) is *"a simple but accurate model
//! for predicting PCIe transfer time that requires only two measurements to
//! derive parameters"*:
//!
//! ```text
//! T(d) = α + β·d        (Equation 1)
//! ```
//!
//! where `α` is the fixed per-transfer latency (~10 µs on the paper's
//! system) and `1/β` the asymptotic bandwidth (~2.5 GB/s on PCIe v1 x16
//! with pinned memory). `α` is measured as the time of a 1-byte transfer,
//! `β` from a single large (512 MB) transfer, each averaged over ten runs.
//!
//! This crate provides:
//!
//! * [`sim::BusSimulator`] — a mechanistic PCIe bus simulator standing in
//!   for the physical bus (we have no GPU): packetized DMA with per-TLP
//!   framing overhead, pinned vs pageable staging behaviour, direction
//!   asymmetry, and seeded measurement noise. This is the "real hardware"
//!   that the empirical model is calibrated against and validated on.
//! * [`model::LinearModel`] — Equation 1.
//! * [`calibrate::Calibrator`] — the two-point synthetic benchmark
//!   (automatically run "on each new system", i.e. for each bus instance).
//! * [`piecewise::PiecewiseModel`] — a log-size interpolation alternative
//!   used by the ablation study to show two points are enough (DESIGN.md
//!   D1).
//! * [`alloc::AllocModel`] — memory-allocation overhead, the paper's
//!   stated future work (§VII), included as an optional projection term.
//!
//! # Example
//!
//! ```
//! use gpp_pcie::{BusSimulator, BusParams, Calibrator};
//!
//! let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), 42);
//! let model = Calibrator::default().calibrate(&mut bus);
//! let t = model.h2d.predict(8 << 20); // 8 MB host-to-device, seconds
//! assert!(t > 0.0025 && t < 0.0045); // ~3.2 ms at ~2.5 GB/s
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod backend;
pub mod calibrate;
pub mod error;
pub mod faulty;
pub mod model;
pub mod overlap;
pub mod params;
pub mod piecewise;
pub mod replay;
pub mod sim;

pub use alloc::AllocModel;
pub use backend::BusBackend;
pub use calibrate::{CalibrationError, Calibrator};
pub use error::{error_magnitude, mean_error_magnitude, SweepValidation};
pub use faulty::FaultyBus;
pub use model::LinearModel;
pub use overlap::{pipelined_window, ChunkedModel};
pub use params::{BusParams, Direction, MemType, PcieGen};
pub use piecewise::PiecewiseModel;
pub use replay::RecordedBus;
pub use sim::BusSimulator;

/// Abstraction over anything that can move bytes between host and device
/// and report how long it took, in seconds.
///
/// The calibrator and validators are written against this trait, exactly as
/// GROPHECY++'s synthetic benchmark is written against CUDA's `cudaMemcpy`:
/// the model never sees inside the bus, only end-to-end timings.
pub trait Bus {
    /// Transfers `bytes` in direction `dir` using memory type `mem`,
    /// returning the elapsed wall time in seconds.
    fn transfer(&mut self, bytes: u64, dir: Direction, mem: MemType) -> f64;

    /// Fallible transfer: like [`Bus::transfer`], but a bus that can fail
    /// (e.g. [`FaultyBus`] under an active fault plan) reports the failed
    /// attempt instead of hiding it. The default implementation never
    /// fails, so plain buses are unaffected.
    fn try_transfer(
        &mut self,
        bytes: u64,
        dir: Direction,
        mem: MemType,
    ) -> Result<f64, TransferError> {
        Ok(self.transfer(bytes, dir, mem))
    }

    /// Human-readable description of the bus (for reports).
    fn describe(&self) -> String {
        "unnamed bus".to_string()
    }
}

/// `&mut B` is itself a bus, so wrappers like [`FaultyBus`] can borrow a
/// concretely-typed bus (e.g. a node's `BusSimulator`) without taking
/// ownership.
impl<B: Bus + ?Sized> Bus for &mut B {
    fn transfer(&mut self, bytes: u64, dir: Direction, mem: MemType) -> f64 {
        (**self).transfer(bytes, dir, mem)
    }

    fn try_transfer(
        &mut self,
        bytes: u64,
        dir: Direction,
        mem: MemType,
    ) -> Result<f64, TransferError> {
        (**self).try_transfer(bytes, dir, mem)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

/// A transfer attempt failed (only ever produced by fault-injecting buses;
/// real and simulated buses complete every transfer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferError {
    /// The fault point that produced the failure.
    pub point: String,
    /// 1-based attempt count at that point when it fired.
    pub occurrence: u64,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transfer failed at fault point {} (occurrence {})",
            self.point, self.occurrence
        )
    }
}

impl std::error::Error for TransferError {}
