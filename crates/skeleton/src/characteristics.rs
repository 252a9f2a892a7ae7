//! Synthesis of per-kernel performance characteristics.
//!
//! GROPHECY feeds a GPU performance model not with the skeleton itself but
//! with *characteristics* synthesized from it (paper Figure 1): how many
//! data-parallel tasks exist, how much arithmetic each performs, how its
//! memory references coalesce, how much control flow diverges, and how much
//! inter-thread data reuse a shared-memory transformation could capture.
//! Both the analytic model (`gpp-gpu-model`) and the timing simulator
//! (`gpp-gpu-sim`) consume this summary.

use crate::expr::IndexExpr;
use crate::ir::{ArrayRef, Kernel, Program};
use gpp_brs::{AccessKind, ArrayId};
use serde::{Deserialize, Serialize};

/// How a memory reference maps onto consecutive GPU threads.
///
/// Classification follows G80 coalescing rules at half-warp granularity:
/// consecutive threads touching consecutive elements coalesce into one
/// memory transaction; anything else fragments into per-thread transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoalesceClass {
    /// Consecutive threads → consecutive elements (linear coefficient ±1 on
    /// the thread axis). One transaction per half-warp.
    Coalesced,
    /// All threads of a warp read the same address (coefficient 0).
    /// One transaction, broadcast to all lanes.
    Broadcast,
    /// Consecutive threads stride by the given element distance.
    /// Fragments into up to one transaction per lane.
    Strided(u32),
    /// Data-dependent addressing: assumed fully scattered.
    Irregular,
}

impl CoalesceClass {
    /// Memory transactions issued per 16-thread half-warp for this class
    /// on G80-class hardware (segment size ≥ element run length).
    pub fn transactions_per_halfwarp(self) -> f64 {
        match self {
            CoalesceClass::Coalesced => 1.0,
            CoalesceClass::Broadcast => 1.0,
            CoalesceClass::Strided(s) => (s.min(16)) as f64,
            CoalesceClass::Irregular => 16.0,
        }
    }
}

impl std::fmt::Display for CoalesceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoalesceClass::Coalesced => write!(f, "coalesced"),
            CoalesceClass::Broadcast => write!(f, "broadcast"),
            CoalesceClass::Strided(s) => write!(f, "strided({s})"),
            CoalesceClass::Irregular => write!(f, "irregular"),
        }
    }
}

/// One memory access stream of a kernel, summarized per thread.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemAccessChar {
    /// The referenced array.
    pub array: ArrayId,
    /// Load or store.
    pub kind: AccessKind,
    /// Element width in bytes.
    pub elem_bytes: usize,
    /// Coalescing behaviour across consecutive threads.
    pub class: CoalesceClass,
    /// Executions per thread over the whole kernel (serial iterations ×
    /// active fraction).
    pub per_thread: f64,
    /// True if this load could be served from shared memory after a tiling
    /// transformation (it re-reads data a neighbouring thread also reads).
    pub sharable: bool,
    /// True if the half-warp base address is segment-aligned (constant
    /// offset along the contiguous dimension is a multiple of the
    /// half-warp footprint). `x[i]` is aligned; `x[i+1]` is not — the
    /// classic G80 stencil coalescing hazard.
    pub aligned: bool,
    /// Reads with the same linear index part on the same array share a
    /// reuse group; a shared-memory staging transformation serves the
    /// whole group from one cooperative tile fill. `None` for writes.
    pub reuse_group: Option<u32>,
}

impl MemAccessChar {
    /// Bytes this stream moves per thread.
    pub fn bytes_per_thread(&self) -> f64 {
        self.per_thread * self.elem_bytes as f64
    }
}

/// The synthesized performance characteristics of one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCharacteristics {
    /// Kernel name.
    pub name: String,
    /// Data-parallel tasks (candidate GPU threads).
    pub threads: u64,
    /// Sequential iterations each task performs.
    pub serial_iters: u64,
    /// Raw flops per thread (divergence-weighted).
    pub flops_per_thread: f64,
    /// Throughput-weighted instruction slots per thread (divergence
    /// applied at warp granularity happens later; this is per-lane work).
    pub weighted_ops_per_thread: f64,
    /// Every memory access stream.
    pub accesses: Vec<MemAccessChar>,
    /// Ops-weighted mean active fraction across statements (1.0 = no
    /// divergence).
    pub avg_active_fraction: f64,
    /// Fraction of global loads that a shared-memory transformation could
    /// eliminate (stencil-style inter-thread reuse).
    pub sharable_load_fraction: f64,
}

impl KernelCharacteristics {
    /// Global-memory bytes read per thread (before any shared-memory
    /// transformation).
    pub fn bytes_read_per_thread(&self) -> f64 {
        self.accesses
            .iter()
            .filter(|a| a.kind.is_read())
            .map(MemAccessChar::bytes_per_thread)
            .sum()
    }

    /// Global-memory bytes written per thread.
    pub fn bytes_written_per_thread(&self) -> f64 {
        self.accesses
            .iter()
            .filter(|a| a.kind.is_write())
            .map(MemAccessChar::bytes_per_thread)
            .sum()
    }

    /// Total global-memory traffic of the kernel in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.threads as f64 * (self.bytes_read_per_thread() + self.bytes_written_per_thread())
    }

    /// Total raw flops of the kernel.
    pub fn total_flops(&self) -> f64 {
        self.threads as f64 * self.flops_per_thread
    }

    /// Arithmetic intensity in flops per global byte.
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.bytes_read_per_thread() + self.bytes_written_per_thread();
        if b == 0.0 {
            f64::INFINITY
        } else {
            self.flops_per_thread / b
        }
    }
}

/// Synthesizes characteristics from a kernel skeleton with the default
/// thread axis (the innermost parallel loop). See module docs.
pub fn synthesize(kernel: &Kernel, program: &Program) -> KernelCharacteristics {
    synthesize_with_axis(kernel, program, kernel.thread_axis())
}

/// Synthesizes characteristics mapping `thread_axis` to consecutive GPU
/// thread IDs — the loop-interchange transformation explores these
/// variants, because the axis choice determines every coalescing class.
pub fn synthesize_with_axis(
    kernel: &Kernel,
    program: &Program,
    thread_axis: Option<crate::expr::LoopId>,
) -> KernelCharacteristics {
    let threads = kernel.parallel_tasks();
    let serial_iters = kernel.serial_iters();

    let mut flops_per_thread = 0.0;
    let mut weighted_ops = 0.0;
    let mut frac_weight = 0.0;
    let mut frac_sum = 0.0;
    let mut accesses = Vec::new();

    // Group read refs by (array, linear terms) to find stencil reuse:
    // refs identical up to a constant offset re-read neighbours' data.
    // The linear part of one ref: per dimension, sorted (loop, coeff)
    // pairs.
    type LinearPart = Vec<Vec<(u32, i64)>>;
    let mut groups: Vec<(ArrayId, LinearPart, usize)> = Vec::new();

    for stmt in &kernel.statements {
        let w = stmt.flops.weighted() * kernel.gpu_compute_scale;
        flops_per_thread += stmt.flops.total() as f64 * stmt.active_fraction * serial_iters as f64;
        weighted_ops += w * stmt.active_fraction * serial_iters as f64;
        frac_weight += w.max(1.0);
        frac_sum += stmt.active_fraction * w.max(1.0);

        for r in &stmt.refs {
            let decl = program.array(r.array);
            let class = coalesce_class(r, program, thread_axis);
            // Half-warp alignment: the constant offset of the innermost
            // index must be a multiple of 16 elements (64 B segments of
            // 4 B elements). Non-affine innermost indices are treated as
            // unaligned (they are scattered anyway).
            let aligned = match r.index.last() {
                Some(IndexExpr::Affine(e)) => e.offset.rem_euclid(16) == 0,
                _ => false,
            };
            // Data-dependent refs cannot be tiled into shared memory by a
            // static transformation; they never join reuse groups.
            let (sharable, reuse_group) = if r.kind.is_read() && !r.is_irregular() {
                let linear: Vec<Vec<(u32, i64)>> = r
                    .index
                    .iter()
                    .map(|ix| match ix {
                        IndexExpr::Affine(e) => {
                            let mut t: Vec<(u32, i64)> =
                                e.terms.iter().map(|&(l, c)| (l.0, c)).collect();
                            t.sort_unstable();
                            t
                        }
                        IndexExpr::Irregular => vec![(u32::MAX, 0)],
                        IndexExpr::IrregularBounded(s) => vec![(u32::MAX, *s as i64 + 1)],
                    })
                    .collect();
                match groups
                    .iter_mut()
                    .enumerate()
                    .find(|(_, (a, l, _))| *a == r.array && *l == linear)
                {
                    Some((gi, g)) => {
                        g.2 += 1;
                        // Second or later ref with the same linear part.
                        (true, Some(gi as u32))
                    }
                    None => {
                        groups.push((r.array, linear, 1));
                        (false, Some(groups.len() as u32 - 1))
                    }
                }
            } else {
                (false, None)
            };
            accesses.push(MemAccessChar {
                array: r.array,
                kind: r.kind,
                elem_bytes: decl.elem.bytes(),
                class,
                per_thread: serial_iters as f64 * stmt.active_fraction,
                sharable,
                aligned,
                reuse_group,
            });
        }
    }

    let total_loads: f64 = accesses
        .iter()
        .filter(|a| a.kind.is_read())
        .map(|a| a.per_thread)
        .sum();
    let sharable_loads: f64 = accesses
        .iter()
        .filter(|a| a.kind.is_read() && a.sharable)
        .map(|a| a.per_thread)
        .sum();

    KernelCharacteristics {
        name: kernel.name.clone(),
        threads,
        serial_iters,
        flops_per_thread,
        weighted_ops_per_thread: weighted_ops,
        accesses,
        avg_active_fraction: if frac_weight > 0.0 {
            frac_sum / frac_weight
        } else {
            1.0
        },
        sharable_load_fraction: if total_loads > 0.0 {
            sharable_loads / total_loads
        } else {
            0.0
        },
    }
}

/// How `r`'s address varies across consecutive threads when
/// `thread_axis` maps to consecutive GPU thread IDs: the
/// [`MemAccessChar::class`] that [`synthesize_with_axis`] gives it, without
/// synthesizing the rest of the kernel's characteristics.
pub fn coalesce_class(
    r: &ArrayRef,
    program: &Program,
    thread_axis: Option<crate::expr::LoopId>,
) -> CoalesceClass {
    let decl = program.array(r.array);
    let (ndims, extents) = (decl.ndims(), &decl.extents);
    let Some(axis) = thread_axis else {
        return CoalesceClass::Broadcast;
    };
    // Linearized element distance between thread t and thread t+1:
    // sum over dims of coeff(axis) * row_stride(dim).
    //
    // Only the *innermost* dimension determines the coalescing class: an
    // irregular outer index (e.g. `B[col[k]][c]`) gathers whole contiguous
    // rows — each half-warp still hits one segment, just at a
    // data-dependent address.
    let mut linear_coeff: i64 = 0;
    // (kind, is_innermost) of the most scattered irregular dim seen:
    // None = no irregular dims; Some(span) with span == u32::MAX denotes
    // fully irregular.
    let mut irregular_span: Option<u32> = None;
    let mut irregular_innermost = false;
    for (d, ix) in r.index.iter().enumerate() {
        let row_stride: i64 = extents[d + 1..ndims].iter().map(|&e| e as i64).product();
        match ix {
            IndexExpr::Irregular => {
                irregular_span = Some(u32::MAX);
                irregular_innermost |= d + 1 == ndims;
            }
            IndexExpr::IrregularBounded(s) => {
                irregular_span = Some(irregular_span.map_or(*s, |p| p.max(*s)));
                irregular_innermost |= d + 1 == ndims;
            }
            IndexExpr::Affine(e) => linear_coeff += e.coeff(axis) * row_stride,
        }
    }
    match irregular_span {
        // Innermost data-dependent index: scattered, with locality giving
        // a strided-equivalent cost.
        Some(u32::MAX) if irregular_innermost => return CoalesceClass::Irregular,
        Some(span) if irregular_innermost => {
            return CoalesceClass::Strided(span.max(2));
        }
        // Outer gather with an affine innermost index: if consecutive
        // threads sweep the row (coeff ±1) the access still coalesces; if
        // the innermost index is thread-invariant, every thread fetches a
        // data-dependent row — scattered, moderated by locality.
        Some(span) if linear_coeff == 0 => {
            return if span == u32::MAX {
                CoalesceClass::Irregular
            } else {
                CoalesceClass::Strided(span.max(2))
            };
        }
        _ => {}
    }
    match linear_coeff.unsigned_abs() {
        0 => CoalesceClass::Broadcast,
        1 => CoalesceClass::Coalesced,
        s => CoalesceClass::Strided(s.min(u32::MAX as u64) as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{idx, irr, ProgramBuilder};
    use crate::ir::{ElemType, Flops};

    #[test]
    fn transactions_per_halfwarp() {
        assert_eq!(CoalesceClass::Coalesced.transactions_per_halfwarp(), 1.0);
        assert_eq!(CoalesceClass::Broadcast.transactions_per_halfwarp(), 1.0);
        assert_eq!(CoalesceClass::Strided(4).transactions_per_halfwarp(), 4.0);
        assert_eq!(CoalesceClass::Strided(64).transactions_per_halfwarp(), 16.0);
        assert_eq!(CoalesceClass::Irregular.transactions_per_halfwarp(), 16.0);
    }

    #[test]
    fn vector_add_characteristics() {
        let mut p = ProgramBuilder::new("vadd");
        let a = p.array("a", ElemType::F32, &[1 << 20]);
        let b = p.array("b", ElemType::F32, &[1 << 20]);
        let c = p.array("c", ElemType::F32, &[1 << 20]);
        let mut k = p.kernel("add");
        let i = k.parallel_loop("i", 1 << 20);
        k.statement()
            .read(a, &[idx(i)])
            .read(b, &[idx(i)])
            .write(c, &[idx(i)])
            .flops(Flops {
                adds: 1,
                ..Flops::default()
            })
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        let ch = prog.kernels[0].characteristics(&prog);
        assert_eq!(ch.threads, 1 << 20);
        assert_eq!(ch.serial_iters, 1);
        assert_eq!(ch.flops_per_thread, 1.0);
        assert_eq!(ch.accesses.len(), 3);
        assert!(ch
            .accesses
            .iter()
            .all(|a| a.class == CoalesceClass::Coalesced));
        assert_eq!(ch.bytes_read_per_thread(), 8.0);
        assert_eq!(ch.bytes_written_per_thread(), 4.0);
        assert!((ch.arithmetic_intensity() - 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(ch.total_bytes(), (1u64 << 20) as f64 * 12.0);
        assert_eq!(ch.sharable_load_fraction, 0.0);
    }

    #[test]
    fn stencil_reuse_detected() {
        let mut p = ProgramBuilder::new("stencil");
        let n = 128usize;
        let a = p.array("in", ElemType::F32, &[n, n]);
        let b = p.array("out", ElemType::F32, &[n, n]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", (n - 2) as u64);
        let j = k.parallel_loop("j", (n - 2) as u64);
        let s = k
            .statement()
            .read(a, &[idx(i), idx(j)])
            .read(a, &[idx(i) + 1, idx(j)])
            .read(a, &[idx(i) + 2, idx(j)])
            .read(a, &[idx(i) + 1, idx(j) + 1])
            .read(a, &[idx(i) + 1, idx(j) + 2])
            .write(b, &[idx(i) + 1, idx(j) + 1])
            .flops(Flops {
                adds: 4,
                muls: 2,
                ..Flops::default()
            });
        s.finish();
        k.finish();
        let prog = p.build().unwrap();
        let ch = prog.kernels[0].characteristics(&prog);
        // 5 loads with identical linear part: 4 of 5 sharable.
        assert!((ch.sharable_load_fraction - 0.8).abs() < 1e-12);
        // Thread axis is j (innermost parallel): all refs coalesce.
        assert!(ch
            .accesses
            .iter()
            .all(|a| a.class == CoalesceClass::Coalesced));
    }

    #[test]
    fn row_major_i_axis_access_is_strided() {
        // Single parallel loop over i indexing a[i][c]: consecutive threads
        // jump a whole row.
        let mut p = ProgramBuilder::new("col");
        let n = 64usize;
        let a = p.array("a", ElemType::F32, &[n, n]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", n as u64);
        k.statement().read(a, &[idx(i), cst0()]).finish();
        k.finish();
        let prog = p.build().unwrap();
        let ch = prog.kernels[0].characteristics(&prog);
        assert_eq!(ch.accesses[0].class, CoalesceClass::Strided(64));
    }

    fn cst0() -> crate::expr::AffineExpr {
        crate::expr::AffineExpr::constant(0)
    }

    #[test]
    fn broadcast_and_irregular_classes() {
        let mut p = ProgramBuilder::new("misc");
        let a = p.array("a", ElemType::F64, &[64]);
        let t = p.array("t", ElemType::F64, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read(a, &[cst0()]) // same address for all threads
            .read_ix(t, &[irr()]) // scattered
            .write(a, &[idx(i)])
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        let ch = prog.kernels[0].characteristics(&prog);
        assert_eq!(ch.accesses[0].class, CoalesceClass::Broadcast);
        assert_eq!(ch.accesses[1].class, CoalesceClass::Irregular);
        assert_eq!(ch.accesses[2].class, CoalesceClass::Coalesced);
    }

    #[test]
    fn divergence_is_ops_weighted() {
        let mut p = ProgramBuilder::new("div");
        let a = p.array("a", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read(a, &[idx(i)])
            .flops(Flops {
                adds: 10,
                ..Flops::default()
            })
            .active(1.0)
            .finish();
        k.statement()
            .write(a, &[idx(i)])
            .flops(Flops {
                adds: 10,
                ..Flops::default()
            })
            .active(0.5)
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        let ch = prog.kernels[0].characteristics(&prog);
        assert!((ch.avg_active_fraction - 0.75).abs() < 1e-12);
        // Flops per thread: 10*1.0 + 10*0.5
        assert_eq!(ch.flops_per_thread, 15.0);
    }

    #[test]
    fn serial_loop_multiplies_per_thread_work() {
        let mut p = ProgramBuilder::new("serial");
        let a = p.array("a", ElemType::F32, &[64, 16]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        let t = k.serial_loop("t", 16);
        k.statement()
            .read(a, &[idx(i), idx(t)])
            .flops(Flops {
                muls: 2,
                ..Flops::default()
            })
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        let ch = prog.kernels[0].characteristics(&prog);
        assert_eq!(ch.serial_iters, 16);
        assert_eq!(ch.flops_per_thread, 32.0);
        assert_eq!(ch.accesses[0].per_thread, 16.0);
        // Thread axis = i (only parallel loop); a[i][t] strides by 16.
        assert_eq!(ch.accesses[0].class, CoalesceClass::Strided(16));
    }
}
