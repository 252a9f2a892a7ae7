//! The paper's evaluation workloads (§IV-B).
//!
//! "We use four benchmarks that are key components in representative
//! applications in the areas of medical imaging, microprocessor design,
//! fluid dynamics, and quantum physics. SRAD, HotSpot, and CFD are
//! benchmarks found in the Rodinia benchmark suite. Stassuij is extracted
//! from a production application in DOE's INCITE program."
//!
//! Each module provides, for one benchmark:
//!
//! * a **real numeric implementation** (sequential and thread-parallel,
//!   validated against each other and against analytic properties) — our
//!   stand-in for the original C++/OpenMP code, proving the skeletons
//!   describe real algorithms;
//! * a **code skeleton** (`gpp-skeleton` program) describing the same
//!   computation the way a GROPHECY++ user would; and
//! * the **hints** the paper's methodology uses (SRAD's temporary
//!   diffusion-coefficient array, Stassuij's sparse CSR bounds).
//!
//! [`paper_cases`] enumerates the ten application × data-size rows of
//! Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsp;
pub mod cfd;
pub mod hotspot;
pub mod par;
pub mod srad;
pub mod stassuij;

use gpp_datausage::Hints;
use gpp_skeleton::Program;

/// One evaluation case: an application at one data size.
pub struct WorkloadCase {
    /// Application name ("CFD", "HotSpot", "SRAD", "Stassuij").
    pub app: &'static str,
    /// Data-size label as the paper prints it ("97K", "1024 x 1024", ...).
    pub dataset: String,
    /// The code skeleton.
    pub program: Program,
    /// The user hints that accompany it.
    pub hints: Hints,
}

/// All ten rows of Table I, in the paper's order.
pub fn paper_cases() -> Vec<WorkloadCase> {
    let mut cases = Vec::with_capacity(10);
    for &nel in &cfd::Cfd::PAPER_SIZES {
        cases.push(cfd::Cfd { nel }.case());
    }
    for &n in &hotspot::HotSpot::PAPER_SIZES {
        cases.push(hotspot::HotSpot { n }.case());
    }
    for &n in &srad::Srad::PAPER_SIZES {
        cases.push(srad::Srad { n }.case());
    }
    cases.push(stassuij::Stassuij::paper().case());
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_paper_cases() {
        let cases = paper_cases();
        assert_eq!(cases.len(), 10);
        let apps: Vec<&str> = cases.iter().map(|c| c.app).collect();
        assert_eq!(apps.iter().filter(|a| **a == "CFD").count(), 3);
        assert_eq!(apps.iter().filter(|a| **a == "HotSpot").count(), 3);
        assert_eq!(apps.iter().filter(|a| **a == "SRAD").count(), 3);
        assert_eq!(apps.iter().filter(|a| **a == "Stassuij").count(), 1);
    }

    #[test]
    fn all_cases_validate_and_have_kernels() {
        for c in paper_cases() {
            assert!(!c.program.kernels.is_empty(), "{} has no kernels", c.app);
            for k in &c.program.kernels {
                assert!(k.parallel_tasks() > 0);
            }
        }
    }
}
