//! Code skeletons — the input language of GROPHECY and GROPHECY++.
//!
//! A *code skeleton* (paper §II-C, citing the SC'11 GROPHECY paper) is a
//! simplified description of CPU code that captures exactly the high-level
//! semantics a GPU performance projection needs: loop nests, available
//! parallelism, computational intensity, and data access patterns — while
//! eliding everything else (actual arithmetic, scalar bookkeeping, I/O).
//!
//! This crate provides:
//!
//! * the IR itself ([`Program`], [`Kernel`], [`Statement`], [`ArrayRef`],
//!   [`AffineExpr`]),
//! * a fluent [`builder`] for constructing skeletons by hand (the way a user
//!   of GROPHECY++ describes their CPU code), and
//! * [`characteristics`] — synthesis of the per-kernel performance
//!   characteristics (threads, arithmetic intensity, coalescing classes,
//!   reuse) that both the analytic GPU model and the GPU timing simulator
//!   consume.
//!
//! The bounded regular section each array reference touches is derived in
//! one place, `gpp-datausage`'s dataflow engine.
//!
//! # Example: a 5-point stencil skeleton
//!
//! ```
//! use gpp_skeleton::builder::{idx, ProgramBuilder};
//! use gpp_skeleton::{ElemType, Flops};
//!
//! let mut p = ProgramBuilder::new("hotspot-like");
//! let n = 512usize;
//! let t_in = p.array("temp_in", ElemType::F32, &[n, n]);
//! let t_out = p.array("temp_out", ElemType::F32, &[n, n]);
//!
//! let mut k = p.kernel("stencil");
//! let i = k.parallel_loop("i", (n - 2) as u64);
//! let j = k.parallel_loop("j", (n - 2) as u64);
//! k.statement()
//!     .read(t_in, &[idx(i), idx(j)])
//!     .read(t_in, &[idx(i) + 1, idx(j) + 1])
//!     .read(t_in, &[idx(i) + 2, idx(j) + 2])
//!     .write(t_out, &[idx(i) + 1, idx(j) + 1])
//!     .flops(Flops { adds: 6, muls: 4, ..Flops::default() })
//!     .finish();
//! k.finish();
//!
//! let program = p.build().unwrap();
//! assert_eq!(program.kernels.len(), 1);
//! let chars = program.kernels[0].characteristics(&program);
//! assert_eq!(chars.threads, ((n - 2) as u64).pow(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod characteristics;
pub mod expr;
pub mod ir;
pub mod text;
pub mod validate;

pub use builder::ProgramBuilder;
pub use characteristics::{
    coalesce_class, synthesize_with_axis, CoalesceClass, KernelCharacteristics, MemAccessChar,
};
pub use expr::{AffineExpr, IndexExpr, LoopId};
pub use gpp_brs::{AccessKind, ArrayId};
pub use ir::{
    ArrayDecl, ArrayRef, ElemType, Flops, Kernel, Loop, Program, Statement, TransferDecl,
    TransferKind,
};
pub use text::{KernelSpans, SourceMap, Span, StmtSpans};
pub use validate::{ValidationError, ValidationErrors};
