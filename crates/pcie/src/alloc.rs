//! Host memory-allocation overhead modeling — the paper's future work
//! (§VII), priced by the pinned-vs-pageable tradeoff rather than the
//! projector.
//!
//! "In addition, we plan to ... account for the overhead of memory
//! allocation." Pinned host allocations (`cudaHostAlloc`) are far more
//! expensive than pageable ones because every page must be locked and its
//! physical address registered with the device.

/// Linear allocation-cost models for the two kinds of host staging memory.
#[derive(Debug, Clone, Copy)]
pub struct AllocModel {
    /// Fixed cost of a pinned host allocation, seconds.
    pub pinned_alpha: f64,
    /// Marginal cost per pinned byte (page locking), seconds.
    pub pinned_beta: f64,
    /// Fixed cost of a pageable host allocation (malloc), seconds.
    pub pageable_alpha: f64,
    /// Marginal cost per pageable byte (lazy, nearly free), seconds.
    pub pageable_beta: f64,
}

impl AllocModel {
    /// Typical values for a CUDA 2.x era driver stack.
    pub fn cuda2_era() -> Self {
        AllocModel {
            pinned_alpha: 220e-6,
            pinned_beta: 1.0 / 3.5e9, // page-locking walks every page
            pageable_alpha: 2e-6,
            pageable_beta: 1.0 / 500e9,
        }
    }

    /// Cost of allocating `bytes` of host memory of the given type.
    pub fn host(&self, bytes: u64, mem: crate::MemType) -> f64 {
        match mem {
            crate::MemType::Pinned => self.pinned_alpha + self.pinned_beta * bytes as f64,
            crate::MemType::Pageable => self.pageable_alpha + self.pageable_beta * bytes as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemType;

    #[test]
    fn pinned_alloc_costs_more_than_pageable() {
        let m = AllocModel::cuda2_era();
        for bytes in [4u64 << 10, 1 << 20, 64 << 20] {
            assert!(m.host(bytes, MemType::Pinned) > m.host(bytes, MemType::Pageable));
        }
    }

    #[test]
    fn pinned_alloc_scales_with_size() {
        let m = AllocModel::cuda2_era();
        let small = m.host(1 << 20, MemType::Pinned);
        let large = m.host(64 << 20, MemType::Pinned);
        assert!(large > small * 10.0);
    }
}
