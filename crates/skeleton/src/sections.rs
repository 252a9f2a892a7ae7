//! Extraction of bounded regular sections from kernels.
//!
//! For every array reference of a kernel, this module derives the BRS — the
//! range of elements the reference may touch across all iterations of the
//! surrounding loop nest (paper §III-B). Affine indices yield tight strided
//! sections via interval arithmetic; irregular indices and sparse arrays
//! fall back to whole-dimension sections, flagged as inexact.

use crate::expr::IndexExpr;
use crate::ir::{ArrayDecl, ArrayRef, Kernel, Program};
use gpp_brs::{AccessKind, ArrayId, Interval, Section, SectionSet};
use std::collections::BTreeMap;

/// One extracted access: which array, read or write, and the section
/// touched.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelAccess {
    /// The referenced array.
    pub array: ArrayId,
    /// Load or store.
    pub kind: AccessKind,
    /// Elements possibly touched (clamped to the array's extents).
    pub section: Section,
    /// False if the section is a conservative over-approximation
    /// (irregular index or sparse array).
    pub exact: bool,
}

/// Derives the section for every array reference in the kernel.
///
/// Sections are clamped to array extents: skeletons commonly index
/// `i-1 ..= i+1` over interior loops, and out-of-bounds lattice points are
/// assumed guarded in the real code (standard stencil practice).
pub fn kernel_accesses(kernel: &Kernel, program: &Program) -> Vec<KernelAccess> {
    let trips: Vec<u64> = kernel.loops.iter().map(|l| l.trip).collect();
    let mut out = Vec::new();
    for stmt in &kernel.statements {
        for r in &stmt.refs {
            let decl = program.array(r.array);
            let (section, exact) = ref_section(r, decl, &trips);
            out.push(KernelAccess {
                array: r.array,
                kind: r.kind,
                section,
                exact,
            });
        }
    }
    out
}

/// Derives the (clamped) section one array reference may touch across all
/// iterations of its loop nest, and whether that section is exact. This
/// is the per-reference kernel of [`kernel_accesses`]; `gpp-lint` uses it
/// directly for statement-granular dataflow.
pub fn ref_section(r: &ArrayRef, decl: &ArrayDecl, trips: &[u64]) -> (Section, bool) {
    let mut exact = !decl.sparse;
    let dims = r.index.iter().zip(&decl.extents).map(|(ix, &extent)| {
        let whole = Interval::dense(0, extent as i64 - 1);
        match ix {
            IndexExpr::Irregular | IndexExpr::IrregularBounded(_) => {
                exact = false;
                whole
            }
            IndexExpr::Affine(e) => {
                if decl.sparse {
                    // Sparse arrays: contents are data-dependent
                    // even when the index looks affine.
                    return whole;
                }
                let (lo, hi) = e.bounds(trips);
                let lo = lo.max(0);
                let hi = hi.min(extent as i64 - 1);
                Interval::new(lo, hi.max(lo.min(hi)), e.stride().max(1))
            }
        }
    });
    let section = Section::new(dims);
    (section, exact)
}

/// Union of all sections the kernel may **read**, per array.
pub fn read_sets(kernel: &Kernel, program: &Program) -> BTreeMap<ArrayId, SectionSet> {
    collect(kernel, program, AccessKind::Read)
}

/// Union of all sections the kernel may **write**, per array.
pub fn write_sets(kernel: &Kernel, program: &Program) -> BTreeMap<ArrayId, SectionSet> {
    collect(kernel, program, AccessKind::Write)
}

fn collect(kernel: &Kernel, program: &Program, kind: AccessKind) -> BTreeMap<ArrayId, SectionSet> {
    let mut map: BTreeMap<ArrayId, SectionSet> = BTreeMap::new();
    for acc in kernel_accesses(kernel, program) {
        if acc.kind != kind {
            continue;
        }
        map.entry(acc.array)
            .or_insert_with(|| SectionSet::empty(acc.section.ndims()))
            .insert(acc.section);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{idx, irr, ProgramBuilder};
    use crate::ir::{ElemType, Flops};

    fn stencil_program(n: usize) -> Program {
        let mut p = ProgramBuilder::new("stencil");
        let a = p.array("in", ElemType::F32, &[n, n]);
        let b = p.array("out", ElemType::F32, &[n, n]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", (n - 2) as u64);
        let j = k.parallel_loop("j", (n - 2) as u64);
        k.statement()
            .read(a, &[idx(i), idx(j)])
            .read(a, &[idx(i) + 2, idx(j) + 2])
            .read(a, &[idx(i) + 1, idx(j) + 1])
            .write(b, &[idx(i) + 1, idx(j) + 1])
            .flops(Flops {
                adds: 4,
                ..Flops::default()
            })
            .finish();
        k.finish();
        p.build().unwrap()
    }

    #[test]
    fn stencil_read_union_is_exact() {
        let p = stencil_program(64);
        let k = &p.kernels[0];
        let reads = read_sets(k, &p);
        let set = &reads[&p.array_by_name("in").unwrap().id];
        // Three diagonal 62x62 boxes at offsets 0, 1, 2; union by
        // inclusion-exclusion: 3*62^2 - 61^2 - 61^2 - 60^2 + 60^2 = 4090.
        assert_eq!(set.element_count(), 4090);
        assert!(set.is_exact());
        // And the bounding hull is the whole array.
        assert_eq!(set.bounding_section(), Section::dense(&[(0, 63), (0, 63)]));
    }

    #[test]
    fn stencil_write_is_interior() {
        let p = stencil_program(64);
        let k = &p.kernels[0];
        let writes = write_sets(k, &p);
        let set = &writes[&p.array_by_name("out").unwrap().id];
        assert_eq!(set.element_count(), 62 * 62);
        let s = set.bounding_section();
        assert_eq!(s, Section::dense(&[(1, 62), (1, 62)]));
    }

    #[test]
    fn irregular_index_covers_whole_dim_inexact() {
        let mut pb = ProgramBuilder::new("gather");
        let x = pb.array("x", ElemType::F64, &[100]);
        let y = pb.array("y", ElemType::F64, &[50]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 50);
        k.statement()
            .read_ix(x, &[irr()])
            .write(y, &[idx(i)])
            .finish();
        k.finish();
        let p = pb.build().unwrap();
        let accs = kernel_accesses(&p.kernels[0], &p);
        let x_acc = accs.iter().find(|a| a.array == x).unwrap();
        assert!(!x_acc.exact);
        assert_eq!(x_acc.section.element_count(), 100);
        let y_acc = accs.iter().find(|a| a.array == y).unwrap();
        assert!(y_acc.exact);
        assert_eq!(y_acc.section.element_count(), 50);
    }

    #[test]
    fn sparse_array_is_always_conservative() {
        let mut pb = ProgramBuilder::new("csr");
        let vals = pb.sparse_array("vals", ElemType::F64, &[345]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement().read(vals, &[idx(i)]).finish();
        k.finish();
        let p = pb.build().unwrap();
        let accs = kernel_accesses(&p.kernels[0], &p);
        assert!(!accs[0].exact);
        assert_eq!(accs[0].section.element_count(), 345);
    }

    #[test]
    fn strided_access_yields_strided_section() {
        let mut pb = ProgramBuilder::new("strided");
        let a = pb.array("a", ElemType::F32, &[256]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement().read(a, &[idx(i) * 4]).finish();
        k.finish();
        let p = pb.build().unwrap();
        let accs = kernel_accesses(&p.kernels[0], &p);
        let s = &accs[0].section;
        assert_eq!(s.dims()[0], Interval::new(0, 252, 4));
        assert_eq!(s.element_count(), 64);
    }

    #[test]
    fn clamping_to_extents() {
        // Index i+10 over trips 0..=99 on an array of 50: clamps to 10..=49.
        let mut pb = ProgramBuilder::new("clamp");
        let a = pb.array("a", ElemType::F32, &[50]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 100);
        k.statement().read(a, &[idx(i) + 10]).finish();
        k.finish();
        let p = pb.build().unwrap();
        let accs = kernel_accesses(&p.kernels[0], &p);
        assert_eq!(accs[0].section.dims()[0], Interval::dense(10, 49));
    }

    #[test]
    fn multiple_statements_union_in_read_sets() {
        let mut pb = ProgramBuilder::new("multi");
        let a = pb.array("a", ElemType::F32, &[100]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement().read(a, &[idx(i)]).finish();
        k.statement().read(a, &[idx(i) + 50]).finish();
        k.finish();
        let p = pb.build().unwrap();
        let reads = read_sets(&p.kernels[0], &p);
        assert_eq!(reads[&a].element_count(), 20);
        assert_eq!(reads[&a].piece_count(), 2);
    }
}
