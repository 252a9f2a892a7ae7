//! GROPHECY++ — the integrated projection framework.
//!
//! This crate assembles the paper's complete system (Figure 1):
//!
//! ```text
//!   code skeleton ──► GROPHECY (transformations + GPU model) ──► kernel time
//!        │                                                           │
//!        └──► data usage analyzer ──► transfer plan ──► PCIe model ──┤
//!                                                                    ▼
//!                                               projected GPU-accelerated time
//! ```
//!
//! * [`machine`] — the modeled system: GPU datasheet + simulated node
//!   (GPU/CPU/bus simulators standing in for the paper's Argonne machine).
//! * [`projector`] — [`projector::Grophecy`]: calibrates the PCIe model on
//!   first contact with a machine (§III-C), projects per-kernel best times
//!   (§II-C), runs the data usage analyzer (§III-B), and combines them.
//! * [`lowering`] — turns a chosen transformation into the concrete kernel
//!   instance the simulator executes, mirroring the paper's methodology:
//!   "the real kernel execution time is measured using a hand-coded
//!   version of the kernel that employs the same optimization strategies
//!   suggested by GROPHECY" (§IV-A).
//! * [`measurement`] — takes the "real" (simulated-hardware) measurements.
//! * [`speedup`] — the speedup accounting of §IV-A/§V: measured and
//!   predicted speedups (kernel-only / transfer-only / combined), error
//!   magnitudes, and iteration sweeps.
//!
//! # Quickstart
//!
//! ```
//! use grophecy::machine::MachineConfig;
//! use grophecy::projector::Grophecy;
//! use gpp_datausage::Hints;
//! use gpp_skeleton::builder::{idx, ProgramBuilder};
//! use gpp_skeleton::{ElemType, Flops};
//!
//! // Describe the CPU code as a skeleton.
//! let mut p = ProgramBuilder::new("vadd");
//! let n = 1 << 22;
//! let a = p.array("a", ElemType::F32, &[n]);
//! let b = p.array("b", ElemType::F32, &[n]);
//! let c = p.array("c", ElemType::F32, &[n]);
//! let mut k = p.kernel("add");
//! let i = k.parallel_loop("i", n as u64);
//! k.statement()
//!     .read(a, &[idx(i)])
//!     .read(b, &[idx(i)])
//!     .write(c, &[idx(i)])
//!     .flops(Flops { adds: 1, ..Flops::default() })
//!     .finish();
//! k.finish();
//! let program = p.build().unwrap();
//!
//! // Project on the paper's machine.
//! let machine = MachineConfig::anl_eureka_node(42);
//! let mut node = machine.node();
//! let gro = Grophecy::calibrate(&machine, &mut node);
//! let proj = gro.project(&program, &Hints::new());
//! assert!(proj.transfer_time > proj.kernel_time); // §II-B's warning
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasheet;
pub mod fusion;
pub mod headroom;
pub mod lowering;
pub mod machine;
pub mod measurement;
pub mod memtype;
pub mod numfmt;
pub mod projector;
pub mod registry;
pub mod report;
pub mod seeds;
pub mod speedup;
pub mod timeline;

pub use fusion::{explore_fusion, FusionAnalysis};
pub use headroom::{headroom_json, transfer_headroom, MachineHeadroom};
pub use machine::{BusSpec, MachineConfig, ReplayTrace, SimulatedNode};
pub use measurement::{measure, AppMeasurement};
pub use memtype::{DualCalibration, MemTypeReport};
pub use projector::{AppProjection, Grophecy};
pub use registry::{MachineRegistry, UnknownMachine};
pub use speedup::{SpeedupReport, SpeedupSeries};
pub use timeline::{DeviceSlice, MultiGpuProjection, Timeline, TimelineEvent};
