//! Transfer plans: the analyzer's output.

use gpp_brs::ArrayId;

/// Direction of one planned transfer. (Kept separate from
/// `gpp_pcie::Direction` so the analyzer has no bus dependency; the core
/// crate maps between them.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferDir {
    /// CPU → GPU, before the first kernel.
    ToDevice,
    /// GPU → CPU, after the last kernel.
    FromDevice,
}

impl std::fmt::Display for TransferDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferDir::ToDevice => write!(f, "to-device"),
            TransferDir::FromDevice => write!(f, "from-device"),
        }
    }
}

/// One planned `cudaMemcpy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// The array moved (u32::MAX-tagged ids denote synthetic batches).
    pub array: ArrayId,
    /// Array name, for reports.
    pub name: String,
    /// Bytes moved.
    pub bytes: u64,
    /// Direction.
    pub dir: TransferDir,
    /// False if the size is a conservative over-approximation: a sparse
    /// array without a hint, or in a derived plan a set one of whose sites
    /// is not exact and dense ([`crate::ArraySets`]).
    pub exact: bool,
}

/// The complete transfer plan for a kernel sequence.
///
/// For iterative applications the plan is iteration-invariant: "a fixed
/// amount of input data is transferred to the GPU before the first
/// iteration, and a fixed amount of output data is transferred back to the
/// CPU after the final iteration" (§IV-B) — so one plan serves any
/// iteration count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransferPlan {
    /// Host→device transfers, in first-use order.
    pub h2d: Vec<Transfer>,
    /// Device→host transfers.
    pub d2h: Vec<Transfer>,
}

impl TransferPlan {
    /// Total bytes sent to the device.
    pub fn h2d_bytes(&self) -> u64 {
        self.h2d.iter().map(|t| t.bytes).sum()
    }

    /// Total bytes returned to the host.
    pub fn d2h_bytes(&self) -> u64 {
        self.d2h.iter().map(|t| t.bytes).sum()
    }

    /// Total bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.h2d_bytes() + self.d2h_bytes()
    }

    /// Number of individual transfers (each pays the α latency).
    pub fn transfer_count(&self) -> usize {
        self.h2d.len() + self.d2h.len()
    }

    /// All transfers in execution order (inputs first).
    pub fn all(&self) -> impl Iterator<Item = &Transfer> {
        self.h2d.iter().chain(self.d2h.iter())
    }

    /// True if every size is exact (no conservative fallback fired).
    pub fn is_exact(&self) -> bool {
        self.all().all(|t| t.exact)
    }

    /// The batched alternative (ablation D3): all input arrays packed into
    /// one transfer and all outputs into another, paying α once per
    /// direction instead of once per array. "In practice transferring
    /// multiple small arrays together as one may provide a minor
    /// performance benefit at the cost of more substantial program
    /// modifications" (§III-B).
    pub fn batched(&self) -> TransferPlan {
        let pack = |ts: &[Transfer], dir: TransferDir| -> Vec<Transfer> {
            if ts.is_empty() {
                return Vec::new();
            }
            vec![Transfer {
                array: ArrayId(u32::MAX),
                name: format!("batched {dir} ({} arrays)", ts.len()),
                bytes: ts.iter().map(|t| t.bytes).sum(),
                dir,
                exact: ts.iter().all(|t| t.exact),
            }]
        };
        TransferPlan {
            h2d: pack(&self.h2d, TransferDir::ToDevice),
            d2h: pack(&self.d2h, TransferDir::FromDevice),
        }
    }
}

impl std::fmt::Display for TransferPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "transfer plan: {} in / {} out / {} transfers",
            human_bytes(self.h2d_bytes()),
            human_bytes(self.d2h_bytes()),
            self.transfer_count()
        )?;
        for t in self.all() {
            writeln!(
                f,
                "  {:>12}  {:<20} {}{}",
                human_bytes(t.bytes),
                t.name,
                t.dir,
                if t.exact { "" } else { " (conservative)" }
            )?;
        }
        Ok(())
    }
}

/// Human-readable byte count (for plan displays).
pub fn human_bytes(b: u64) -> String {
    if b >= 10 << 20 {
        format!("{:.1} MB", b as f64 / (1 << 20) as f64)
    } else if b >= 10 << 10 {
        format!("{:.1} KB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u32, bytes: u64, dir: TransferDir, exact: bool) -> Transfer {
        Transfer {
            array: ArrayId(id),
            name: format!("a{id}"),
            bytes,
            dir,
            exact,
        }
    }

    fn plan() -> TransferPlan {
        TransferPlan {
            h2d: vec![
                t(0, 1000, TransferDir::ToDevice, true),
                t(1, 2000, TransferDir::ToDevice, false),
            ],
            d2h: vec![t(2, 500, TransferDir::FromDevice, true)],
        }
    }

    #[test]
    fn byte_accounting() {
        let p = plan();
        assert_eq!(p.h2d_bytes(), 3000);
        assert_eq!(p.d2h_bytes(), 500);
        assert_eq!(p.total_bytes(), 3500);
        assert_eq!(p.transfer_count(), 3);
        assert!(!p.is_exact());
    }

    #[test]
    fn batched_preserves_bytes_merges_count() {
        let p = plan().batched();
        assert_eq!(p.total_bytes(), 3500);
        assert_eq!(p.transfer_count(), 2);
        assert!(!p.is_exact()); // inexactness propagates
    }

    #[test]
    fn batched_empty_side_stays_empty() {
        let p = TransferPlan {
            h2d: vec![t(0, 10, TransferDir::ToDevice, true)],
            d2h: vec![],
        };
        let b = p.batched();
        assert_eq!(b.h2d.len(), 1);
        assert!(b.d2h.is_empty());
    }

    #[test]
    fn display_lists_transfers() {
        let s = plan().to_string();
        assert!(s.contains("a0") && s.contains("a1") && s.contains("a2"));
        assert!(s.contains("conservative"));
    }

    #[test]
    fn human_bytes_ranges() {
        assert_eq!(human_bytes(42), "42 B");
        assert_eq!(human_bytes(20480), "20.0 KB");
        assert_eq!(human_bytes(64 << 20), "64.0 MB");
    }
}
