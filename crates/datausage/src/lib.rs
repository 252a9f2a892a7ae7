//! The data usage analyzer — what must cross the PCIe bus (paper §III-B).
//!
//! Given the dataflow of a sequence of GPU kernels, the analyzer
//! determines:
//!
//! * **host→device**: "we maintain a list of BRSs that are read but are not
//!   previously written. The UNION of all such BRSs is data that needs to
//!   be transferred to the GPU" — data produced by an *earlier kernel on
//!   the device* need not be sent;
//! * **device→host**: "The UNION of all written BRSs is data that needs to
//!   be transferred back from the GPU", except arrays the user hints are
//!   *temporaries*;
//! * **sparse fallback**: "In irregular applications such as sparse linear
//!   algebra, the BRS is unknown. In such scenario, GROPHECY++ uses the
//!   conservative assumption that all elements in the sparse array may be
//!   referenced, and therefore must be transferred, unless users provide
//!   additional hints."
//!
//! One engine computes that dataflow: [`Dataflow`] derives each
//! reference's section once and walks the kernels in order, keeping per
//! array what earlier kernels *may* have written and what they *must*
//! have written. [`transfer_sets`] builds the plan's sections as it
//! walks: each kernel's reads less the must-union go up, the may-union
//! comes back, and what the kernels may but need not have written goes
//! up too, so the copy-back clobbers no host data. [`analyze()`] prices
//! those sections, and `gpp lint` walks the same engine, so every byte a
//! finding quotes is the plan's. The dependence report ([`dependences`])
//! and the device-resident arrays read the same sections.
//!
//! Each array is assumed to be transferred separately (one `cudaMemcpy`
//! per array); [`plan::TransferPlan::batched`] models the alternative for
//! the ablation study (DESIGN.md D3).
//!
//! # Example
//!
//! ```
//! use gpp_skeleton::builder::{idx, ProgramBuilder};
//! use gpp_skeleton::ElemType;
//! use gpp_datausage::{analyze, Hints};
//!
//! // Two kernels: the first produces `coeff`, the second consumes it.
//! let mut p = ProgramBuilder::new("two-phase");
//! let img = p.array("img", ElemType::F32, &[1024]);
//! let coeff = p.array("coeff", ElemType::F32, &[1024]);
//! let mut k1 = p.kernel("prep");
//! let i = k1.parallel_loop("i", 1024);
//! k1.statement().read(img, &[idx(i)]).write(coeff, &[idx(i)]).finish();
//! k1.finish();
//! let mut k2 = p.kernel("update");
//! let i = k2.parallel_loop("i", 1024);
//! k2.statement().read(coeff, &[idx(i)]).write(img, &[idx(i)]).finish();
//! k2.finish();
//! let prog = p.build().unwrap();
//!
//! // `coeff` is device-produced (never sent) and a temporary (never
//! // returned): only `img` crosses the bus, each way.
//! let plan = analyze(&prog, &Hints::new().temporary(coeff));
//! assert_eq!(plan.h2d_bytes(), 4096);
//! assert_eq!(plan.d2h_bytes(), 4096);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod dataflow;
pub mod dependence;
pub mod hints;
pub mod plan;

pub use analyze::{analyze, transfer_bytes, transfer_sets, ArraySets};
pub use dataflow::{Dataflow, Site};
pub use dependence::{dependences, device_resident_arrays, Dependence};
pub use hints::Hints;
pub use plan::{Transfer, TransferDir, TransferPlan};
