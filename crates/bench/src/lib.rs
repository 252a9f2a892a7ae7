//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§V) from the simulated testbed.
//!
//! Each `fig*`/`table*` function returns the data series the corresponding
//! figure plots (so tests can consume them), and [`render`] formats them
//! as text tables. The `repro` binary dispatches by experiment id:
//!
//! ```text
//! cargo run -p gpp-bench --release --bin repro -- table1
//! cargo run -p gpp-bench --release --bin repro -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod eval;
pub mod pcie_exp;
pub mod render;

pub use eval::{evaluate_all, CaseResult, Evaluation, EVAL_SEED};
