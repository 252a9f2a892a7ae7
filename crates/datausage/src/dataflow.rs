//! The dataflow engine: one walk over the kernel sequence, read by both
//! the transfer plan ([`crate::analyze`]) and `gpp lint`.
//!
//! [`Dataflow::new`] derives every reference's section once, in program
//! order, as a [`Site`]. Its caller then walks the kernels in order,
//! checking each against the unions of the kernels before it and then
//! folding it in ([`Dataflow::fold`]). The unions are those of Havlak &
//! Kennedy's section dataflow: per array, what earlier kernels wrote, and
//! what they wrote for certain. `analyze` takes each kernel's reads, less
//! what earlier kernels wrote, into the upward-exposed union it ships
//! host-to-device; lint subtracts that same union from a read before it
//! quotes what the plan ships for it.

use gpp_brs::{AccessKind, ArrayId, Section, SectionSet};
use gpp_skeleton::sections::ref_section;
use gpp_skeleton::{ArrayRef, Program};

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

    /// The union of what the folded kernels' guaranteed writes stored.
    pub fn guaranteed(&self, a: ArrayId) -> &SectionSet {
        &self.arrays[a.index()].guaranteed
    }
}
