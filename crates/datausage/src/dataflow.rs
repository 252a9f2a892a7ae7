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
//! section dataflow, per array: what earlier kernels *may* have written
//! ([`Dataflow::written`]), and what they *must* have written
//! ([`Dataflow::guaranteed`]): the writes that always run and store every
//! element of an exact, dense section. `analyze` takes each kernel's
//! reads, less the must-union, into the set it ships host-to-device, and
//! copies the may-union back; lint subtracts the same must-union from a
//! read before it quotes what the plan ships for it.

use gpp_brs::{AccessKind, ArrayId, Interval, Section, SectionSet};
use gpp_skeleton::{AffineExpr, ArrayDecl, ArrayRef, IndexExpr, LoopId, Program};
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
    /// The elements it may touch, clamped to the array's extents: always
    /// a superset of what the reference touches, so an overlap or cover
    /// test on it is sound whether or not it is exact.
    pub section: Section,
    /// False if `section` over-approximates: an irregular index, a sparse
    /// array, an index whose terms leave gaps, or a loop in two dimensions.
    /// The one source of exactness: it answers must-questions
    /// ([`Site::is_guaranteed_write`]) and sets the plan's flags
    /// ([`crate::ArraySets`]).
    pub exact: bool,
    /// True if the statement always runs (`active_fraction >= 1`).
    pub full: bool,
}

impl Site<'_> {
    /// A must-write: one certain to store every element of its section,
    /// which is exact and dense, so a [`SectionSet`] holds it as it is.
    pub fn is_guaranteed_write(&self) -> bool {
        self.r.kind == AccessKind::Write && self.exact && self.full && self.section.is_dense()
    }
}

/// One array's unions over the folded kernels.
#[derive(Debug)]
struct Unions {
    /// What they may have written; `None` until one writes the array
    /// (perhaps no element of it).
    written: Option<SectionSet>,
    /// What their must-writes stored.
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
    /// writes join the may-union and its must-writes the must-union.
    pub fn fold(&mut self, ki: usize) {
        assert_eq!(ki, self.folded, "kernels fold in program order");
        let sites = &self.sites[self.span(ki)];
        for s in sites.iter().filter(|s| s.r.kind.is_write()) {
            let u = &mut self.arrays[s.r.array.index()];
            let empty = || SectionSet::empty(s.section.ndims());
            u.written
                .get_or_insert_with(empty)
                .insert(s.section.clone());
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

    /// The may-union: what the folded kernels may have written of `a`, a
    /// strided section widened to its bounding box. The plan's
    /// device-to-host set once every kernel is folded. `None` if none
    /// writes it.
    pub fn written(&self, a: ArrayId) -> Option<&SectionSet> {
        self.arrays[a.index()].written.as_ref()
    }

    /// Moves [`Dataflow::written`] out, leaving `None`: for a caller that
    /// has folded every kernel and keeps the union.
    pub(crate) fn take_written(&mut self, a: ArrayId) -> Option<SectionSet> {
        self.arrays[a.index()].written.take()
    }

    /// The must-union: what the folded kernels certainly wrote of `a`
    /// ([`Site::is_guaranteed_write`]), so what a later read needs no
    /// host-to-device copy of. Dense, and within [`Dataflow::written`].
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
    let dims = r.index.iter().zip(&decl.extents).enumerate();
    let dims = dims.map(|(d, (ix, &extent))| match ix {
        IndexExpr::Affine(e) if !decl.sparse => {
            exact &= fills_its_lattice(e, trips) && !shares_a_loop(r, d, trips);
            let (lo, hi) = e.bounds(trips);
            let stride = e.stride();
            // The first lattice point inside the array.
            let lo = if lo < 0 { lo.rem_euclid(stride) } else { lo };
            Interval::new(lo, hi.min(extent as i64 - 1), stride)
        }
        // Sparse arrays: contents are data-dependent even when the index
        // looks affine.
        IndexExpr::Affine(_) => Interval::dense(0, extent as i64 - 1),
        IndexExpr::Irregular | IndexExpr::IrregularBounded(_) => {
            exact = false;
            Interval::dense(0, extent as i64 - 1)
        }
    });
    let section = Section::new(dims);
    (section, exact)
}

/// True if `e` takes every value of its stride's lattice between its
/// bounds: taking the terms by increasing |coefficient|, none steps more
/// than one stride past the reach of those before it.
fn fills_its_lattice(e: &AffineExpr, trips: &[u64]) -> bool {
    let reach = |&(l, c): &(LoopId, i64)| {
        let steps = i64::try_from(trips[l.index()].saturating_sub(1)).unwrap_or(i64::MAX);
        c.saturating_abs().saturating_mul(steps)
    };
    let key = |i: usize| (e.terms[i].1.saturating_abs(), i);
    let before = |i| (0..e.terms.len()).filter(move |&j| key(j) < key(i));
    (e.terms.iter().enumerate()).all(|(i, t)| {
        let within = before(i).fold(e.stride(), |sum, j| sum.saturating_add(reach(&e.terms[j])));
        reach(t) == 0 || key(i).0 <= within
    })
}

/// True if a loop of more than one iteration indexes dimension `d` of `r`
/// and a later one: the section's dimensions are then not independent.
fn shares_a_loop(r: &ArrayRef, d: usize, trips: &[u64]) -> bool {
    let Some(e) = r.index[d].as_affine() else {
        return false;
    };
    let later = || r.index[d + 1..].iter().filter_map(IndexExpr::as_affine);
    (e.terms.iter()).any(|&(l, _)| trips[l.index()] > 1 && later().any(|o| o.coeff(l) != 0))
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
        // It reaches both ends of the diagonal, not the other corners.
        assert!(set.contains_point(&[0, 0]) && set.contains_point(&[63, 63]));
        assert!(!set.contains_point(&[0, 63]) && !set.contains_point(&[63, 0]));
    }

    #[test]
    fn stencil_write_is_interior() {
        let p = stencil_program(64);
        let writes = Dataflow::new(&p).kernel_sets(0, AccessKind::Write);
        let set = &writes[&p.array_by_name("out").unwrap().id];
        assert_eq!(set.element_count(), 62 * 62);
        assert!(set.contains_point(&[1, 1]) && set.contains_point(&[62, 62]));
        assert!(!set.contains_point(&[0, 1]) && !set.contains_point(&[62, 63]));
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
    fn clamping_keeps_the_stride_phase() {
        // x[2*i-1] over i < 32 reads the odd elements 1..=61; i = 0 is
        // guarded.
        let mut pb = ProgramBuilder::new("odd");
        let a = pb.array("x", ElemType::F32, &[64]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 32);
        k.statement().read(a, &[idx(i) * 2 - 1]).finish();
        k.finish();
        let (section, exact) = only_site(&pb.build().unwrap());
        assert_eq!(section.dims()[0], Interval::new(1, 61, 2));
        assert!(exact);
    }

    #[test]
    fn gaps_and_shared_loops_are_inexact() {
        let mut pb = ProgramBuilder::new("inexact");
        let x = pb.array("x", ElemType::F32, &[64]);
        let d = pb.array("d", ElemType::F32, &[8, 8]);
        let mut k = pb.kernel("k");
        let i = k.parallel_loop("i", 8);
        let j = k.serial_loop("j", 2);
        k.statement()
            .write(x, &[idx(i) * 4 + idx(j)]) // 0, 1, 4, 5, ...: gaps
            .write(x, &[idx(i) * 2 + idx(j)]) // 0..=15
            .write(d, &[idx(i), idx(i)]) // the diagonal
            .write(d, &[idx(i), idx(j)])
            .finish();
        k.finish();
        let p = pb.build().unwrap();
        let flow = Dataflow::new(&p);
        let exact: Vec<bool> = flow.kernel_sites(0).iter().map(|s| s.exact).collect();
        assert_eq!(exact, [false, true, false, true]);
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
