//! The dataflow engine: the one place a reference becomes a section, and
//! one walk over the kernel sequence, read by the transfer plan
//! ([`crate::analyze()`]), `gpp lint`, the dependence report
//! ([`crate::dependences`], [`crate::device_resident_arrays`]) and the
//! CPU work estimate `measure()` prices.
//!
//! [`Dataflow::new`] derives every reference's bounded regular section
//! once, in program order, as a [`Site`]: the range of elements the
//! reference may touch across all iterations of its loop nest (paper
//! §III-B). Affine indices yield tight strided sections via interval
//! arithmetic; irregular indices and sparse arrays fall back to
//! whole-dimension sections, flagged as inexact.
//!
//! A caller then walks the kernels in order, checking each against the
//! unions of the kernels before it and then folding it in
//! ([`Dataflow::fold`]). The unions are those of Havlak & Kennedy's
//! section dataflow: per array, what earlier kernels wrote, and what they
//! wrote for certain. `analyze` takes each kernel's reads, less what
//! earlier kernels' dense writes stored, into the upward-exposed union it
//! ships host-to-device; lint subtracts that same union from a read
//! before it quotes what the plan ships for it.

use gpp_brs::{AccessKind, ArrayId, Interval, Section, SectionSet};
use gpp_skeleton::{ArrayDecl, ArrayRef, IndexExpr, Program};
use std::collections::BTreeMap;

/// One array reference with its section.
#[derive(Debug, Clone)]
pub struct Site<'a> {
    /// Kernel index.
    pub ki: usize,
    /// Statement index within the kernel.
    pub si: usize,
    /// Reference index within the statement.
    pub ri: usize,
    /// The reference.
    pub r: &'a ArrayRef,
    /// The elements it may touch, clamped to the array's extents.
    pub section: Section,
    /// False if `section` over-approximates (irregular index, sparse array).
    pub exact: bool,
    /// True if the statement always runs (`active_fraction >= 1`).
    pub full: bool,
}

impl Site<'_> {
    /// A write certain to store every element of its section.
    pub fn is_guaranteed_write(&self) -> bool {
        self.r.kind == AccessKind::Write && self.exact && self.full
    }
}

/// One array's unions over the folded kernels.
#[derive(Debug)]
struct Unions {
    /// What they wrote; `None` until one writes the array (perhaps no
    /// element of it).
    written: Option<SectionSet>,
    /// What their dense writes stored, once a strided write has widened
    /// `written` to its bounding box; `None` while the two agree.
    dense: Option<SectionSet>,
    /// What their guaranteed writes stored.
    guaranteed: SectionSet,
}

/// The per-kernel dataflow of a program (see the module docs).
#[derive(Debug)]
pub struct Dataflow<'a> {
    sites: Vec<Site<'a>>,
    /// Indexed by array id.
    arrays: Vec<Unions>,
    /// Kernels folded so far: the first `folded` of the program.
    folded: usize,
}

impl<'a> Dataflow<'a> {
    /// Derives every reference's section, with no kernel folded yet.
    pub fn new(p: &'a Program) -> Dataflow<'a> {
        let stmts = p.kernels.iter().flat_map(|k| &k.statements);
        let mut sites = Vec::with_capacity(stmts.map(|s| s.refs.len()).sum());
        let mut trips = Vec::new();
        for (ki, k) in p.kernels.iter().enumerate() {
            trips.clear();
            trips.extend(k.loops.iter().map(|l| l.trip));
            for (si, stmt) in k.statements.iter().enumerate() {
                let full = stmt.active_fraction >= 1.0;
                for (ri, r) in stmt.refs.iter().enumerate() {
                    let (section, exact) = ref_section(r, p.array(r.array), &trips);
                    sites.push(Site {
                        ki,
                        si,
                        ri,
                        r,
                        section,
                        exact,
                        full,
                    });
                }
            }
        }
        let arrays = (p.arrays.iter())
            .map(|a| Unions {
                written: None,
                dense: None,
                guaranteed: SectionSet::empty(a.ndims()),
            })
            .collect();
        Dataflow {
            sites,
            arrays,
            folded: 0,
        }
    }

    /// Folds kernel `ki`, the first not yet folded, into the unions: its
    /// writes join the written union and, if certain, the guaranteed one.
    pub fn fold(&mut self, ki: usize) {
        assert_eq!(ki, self.folded, "kernels fold in program order");
        let sites = &self.sites[self.span(ki)];
        for s in sites.iter().filter(|s| s.r.kind.is_write()) {
            let u = &mut self.arrays[s.r.array.index()];
            let empty = || SectionSet::empty(s.section.ndims());
            let written = u.written.get_or_insert_with(empty);
            if !s.section.is_dense() {
                u.dense.get_or_insert_with(|| written.clone());
            } else if let Some(dense) = &mut u.dense {
                dense.insert(s.section.clone());
            }
            written.insert(s.section.clone());
            if s.is_guaranteed_write() {
                u.guaranteed.insert(s.section.clone());
            }
        }
        self.folded += 1;
    }

    /// How many kernels are folded.
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// The index range of kernel `ki`'s sites.
    fn span(&self, ki: usize) -> std::ops::Range<usize> {
        let start = self.sites.partition_point(|s| s.ki < ki);
        start..start + self.sites[start..].partition_point(|s| s.ki == ki)
    }

    /// Every reference, in program order.
    pub fn sites(&self) -> &[Site<'a>] {
        &self.sites
    }

    /// Kernel `ki`'s references, in program order.
    pub fn kernel_sites(&self, ki: usize) -> &[Site<'a>] {
        &self.sites[self.span(ki)]
    }

    /// Per array, the union of the sections kernel `ki` may access as
    /// `kind`, inserted in program order.
    pub fn kernel_sets(&self, ki: usize, kind: AccessKind) -> BTreeMap<ArrayId, SectionSet> {
        let mut map: BTreeMap<ArrayId, SectionSet> = BTreeMap::new();
        for s in self.kernel_sites(ki).iter().filter(|s| s.r.kind == kind) {
            map.entry(s.r.array)
                .or_insert_with(|| SectionSet::empty(s.section.ndims()))
                .insert(s.section.clone());
        }
        map
    }

    /// `None` if kernel `ki` does not reference array `a`; otherwise
    /// whether it writes it (perhaps no element of it).
    pub fn touch(&self, ki: usize, a: ArrayId) -> Option<bool> {
        let mut refs = self.kernel_sites(ki).iter().filter(|s| s.r.array == a);
        let first = refs.next()?;
        Some(first.r.kind.is_write() || refs.any(|s| s.r.kind.is_write()))
    }

    /// True if a read of `a` in kernel `ki` overlaps an element some
    /// earlier kernel writes: a flow dependence, so the plan serves that
    /// read from the device. Exact, site against site.
    pub fn served(&self, ki: usize, a: ArrayId) -> bool {
        let span = self.span(ki);
        let (earlier, here) = (&self.sites[..span.start], &self.sites[span]);
        let mut reads = here.iter().filter(|r| r.r.array == a && r.r.kind.is_read());
        let writes = earlier
            .iter()
            .filter(|w| w.r.array == a && w.r.kind.is_write());
        reads.any(|r| writes.clone().any(|w| w.section.overlaps(&r.section)))
    }

    /// The union of what the folded kernels wrote of `a`: the plan's
    /// device-to-host set once every kernel is folded. `None` if none
    /// writes it.
    pub fn written(&self, a: ArrayId) -> Option<&SectionSet> {
        self.arrays[a.index()].written.as_ref()
    }

    /// The union of what the folded kernels' dense writes stored of `a`:
    /// what a read needs no host-to-device copy of. It is
    /// [`Dataflow::written`] unless a strided write widened that to a
    /// bounding box whose holes no kernel wrote. `None` if none writes `a`.
    pub fn written_densely(&self, a: ArrayId) -> Option<&SectionSet> {
        let u = &self.arrays[a.index()];
        u.dense.as_ref().or(u.written.as_ref())
    }

    /// The union of what the folded kernels' guaranteed writes stored.
    pub fn guaranteed(&self, a: ArrayId) -> &SectionSet {
        &self.arrays[a.index()].guaranteed
    }
}

/// The section one array reference may touch across all iterations of its
/// loop nest, and whether that section is exact.
///
/// Sections are clamped to array extents: skeletons commonly index
/// `i-1 ..= i+1` over interior loops, and out-of-bounds lattice points are
/// assumed guarded in the real code (standard stencil practice).
fn ref_section(r: &ArrayRef, decl: &ArrayDecl, trips: &[u64]) -> (Section, bool) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_skeleton::builder::{idx, irr, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops};

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

    /// The only site of kernel 0, as (section, exact).
    fn only_site(p: &Program) -> (Section, bool) {
        let flow = Dataflow::new(p);
        let [s] = flow.kernel_sites(0) else {
            panic!("expected one site");
        };
        (s.section.clone(), s.exact)
    }

    #[test]
    fn stencil_read_union_is_exact() {
        let p = stencil_program(64);
        let reads = Dataflow::new(&p).kernel_sets(0, AccessKind::Read);
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
        let writes = Dataflow::new(&p).kernel_sets(0, AccessKind::Write);
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
        let flow = Dataflow::new(&p);
        let sites = flow.kernel_sites(0);
        let x_site = sites.iter().find(|s| s.r.array == x).unwrap();
        assert!(!x_site.exact);
        assert_eq!(x_site.section.element_count(), 100);
        let y_site = sites.iter().find(|s| s.r.array == y).unwrap();
        assert!(y_site.exact);
        assert_eq!(y_site.section.element_count(), 50);
    }

    #[test]
    fn sparse_array_is_always_conservative() {
        let mut pb = ProgramBuilder::new("csr");
        let vals = pb.sparse_array("vals", ElemType::F64, &[345]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement().read(vals, &[idx(i)]).finish();
        k.finish();
        let (section, exact) = only_site(&pb.build().unwrap());
        assert!(!exact);
        assert_eq!(section.element_count(), 345);
    }

    #[test]
    fn strided_access_yields_strided_section() {
        let mut pb = ProgramBuilder::new("strided");
        let a = pb.array("a", ElemType::F32, &[256]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement().read(a, &[idx(i) * 4]).finish();
        k.finish();
        let (section, _) = only_site(&pb.build().unwrap());
        assert_eq!(section.dims()[0], Interval::new(0, 252, 4));
        assert_eq!(section.element_count(), 64);
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
        let (section, _) = only_site(&pb.build().unwrap());
        assert_eq!(section.dims()[0], Interval::dense(10, 49));
    }

    #[test]
    fn multiple_statements_union_in_kernel_sets() {
        let mut pb = ProgramBuilder::new("multi");
        let a = pb.array("a", ElemType::F32, &[100]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement().read(a, &[idx(i)]).finish();
        k.statement().read(a, &[idx(i) + 50]).finish();
        k.finish();
        let p = pb.build().unwrap();
        let reads = Dataflow::new(&p).kernel_sets(0, AccessKind::Read);
        assert_eq!(reads[&a].element_count(), 20);
        assert_eq!(reads[&a].piece_count(), 2);
    }
}
