//! The GROPHECY analytic GPU performance model.
//!
//! This crate is our reimplementation of the projection engine of
//! GROPHECY (Meng, Morozov, Kumaran, Vishwanath, Uram — SC'11), the
//! framework the paper extends. Given a kernel's synthesized
//! characteristics (from `gpp-skeleton`) and a GPU *datasheet*
//! ([`GpuSpec`]), it:
//!
//! 1. enumerates a space of code transformations — thread-block geometry,
//!    shared-memory staging of reusable loads, unrolling
//!    ([`transform::candidate_space`]),
//! 2. synthesizes the performance characteristics each transformed kernel
//!    would have ([`transform::SynthesizedKernel`]),
//! 3. projects each candidate's execution time with an MWP/CWP-style
//!    analytic throughput model ([`project::project`]), and
//! 4. reports the best achievable time and the transformation that
//!    reaches it ([`project::project_best`]) — "GROPHECY projects the best
//!    achievable performance and the transformations necessary to reach
//!    that performance" (paper §II-C).
//!
//! [`project_best`] is the one search engine: it synthesizes once per
//! shared-memory staging class, evaluates the candidates as
//! structure-of-arrays lanes from a process-wide search memo keyed by
//! (kernel, spec), and runs serially on the calling thread. Its answer is
//! bit-identical to the exhaustive, unmemoized [`project_all`] — the
//! oracle the tests compare against — at any `GPP_THREADS`.
//!
//! The model sees only *public* information: the code skeleton and the
//! device datasheet. It does **not** see the timing simulator's internal
//! parameters (scattered-traffic DRAM derating, exact latency, launch
//! overhead, wave quantization), so its projections carry an honest error
//! of the magnitude the paper reports for kernel times (~15% average,
//! §I) — that asymmetry is deliberate and is what makes the downstream
//! validation meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod occupancy;
pub mod project;
mod soa;
pub mod spec;
pub mod transform;

pub use occupancy::ModelOccupancy;
pub use project::{
    project, project_all, project_best, project_best_keyed, KernelProjection, ProjectionBound,
};
pub use soa::search_memo_stats;
pub use spec::GpuSpec;
pub use transform::{
    candidate_space, program_fingerprint, synthesize_transformed, CharsKey, ProgramChars,
    SynthesizedKernel, Transformation, BASE_REGS, MIN_BLOCK_THREADS,
};
