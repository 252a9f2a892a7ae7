//! The analysis passes behind `gpp lint`.
//!
//! All passes share one view of the program: the data-usage analyzer's
//! [`Dataflow`] walk, which holds every array reference with its clamped
//! section, in program order, and the per-array unions the transfer plan
//! is built from. On top of that they run:
//!
//! * **interval analysis** of affine indices against array extents
//!   (GPP001),
//! * **liveness** over the kernel sequence — uninitialized temporary
//!   reads (GPP002), dead writes (GPP003), unused arrays (GPP004),
//! * a **race detector** over parallel loop nests (GPP005),
//! * **transfer-plan lints** that quote the plan's own bytes —
//!   redundant host-to-device traffic (GPP006) and missing `temporary`
//!   hints (GPP007), and
//! * **coalescing notes** from the synthesized kernel characteristics
//!   (GPP008).
//!
//! Structurally invalid programs (failed [`gpp_skeleton::validate`])
//! yield only GPP000 diagnostics: the dataflow passes assume a
//! well-formed program.

use crate::diag::{Code, Diagnostic, Severity};
use gpp_brs::{AccessKind, ArrayId, Section, SectionSet};
use gpp_datausage::plan::human_bytes;
use gpp_datausage::{transfer_bytes, Dataflow, Hints, Site};
use gpp_skeleton::expr::LoopId;
use gpp_skeleton::{
    coalesce_class, ArrayRef, CoalesceClass, IndexExpr, Program, SourceMap, Span, ValidationError,
};
use std::collections::BTreeSet;

/// Runs every pass over `program` and returns raw (unconfigured)
/// diagnostics. Pass the [`SourceMap`] from
/// [`gpp_skeleton::text::parse_with_spans`] to anchor findings to `.gsk`
/// source; API-built programs pass `None` and get `Span::none()`.
///
/// `hints` should normally start from [`Hints::for_program`] so arrays
/// declared `temporary` in the skeleton are honored.
pub fn lint_program(program: &Program, map: Option<&SourceMap>, hints: &Hints) -> Vec<Diagnostic> {
    if let Err(errs) = gpp_skeleton::validate::validate(program) {
        return errs
            .iter()
            .map(|e| structural_diag(program, map, e))
            .collect();
    }
    let mut ctx = Ctx {
        p: program,
        map,
        hints,
        flow: Dataflow::new(program),
    };
    let mut diags = Vec::new();
    ctx.out_of_bounds(&mut diags); // GPP001
    ctx.liveness(&mut diags); // GPP002 + GPP006; folds every kernel
    ctx.dead_writes(&mut diags); // GPP003
    ctx.unused_arrays(&mut diags); // GPP004
    ctx.races(&mut diags); // GPP005
    ctx.temporary_hints(&mut diags); // GPP007
    ctx.coalescing(&mut diags); // GPP008
    crate::program::transfer_dataflow(program, map, &ctx.flow, &mut diags); // GPP010–GPP014
    diags
}

struct Ctx<'a> {
    p: &'a Program,
    map: Option<&'a SourceMap>,
    hints: &'a Hints,
    /// The analyzer's walk: [`Ctx::liveness`] folds every kernel; GPP007
    /// then reads the whole program's unions.
    flow: Dataflow<'a>,
}

impl<'a> Ctx<'a> {
    fn ref_span(&self, ki: usize, si: usize, ri: usize) -> Span {
        self.map.map(|m| m.ref_span(ki, si, ri)).unwrap_or_default()
    }

    fn array_span(&self, id: ArrayId) -> Span {
        self.map.map(|m| m.array_span(id)).unwrap_or_default()
    }

    /// Temporary via hint *or* `.gsk` declaration.
    fn is_temp(&self, id: ArrayId) -> bool {
        self.hints.is_temporary(id) || self.p.array(id).temporary
    }

    /// GPP001: affine index ranges checked against extents. The section
    /// machinery deliberately clamps (guarded-stencil convention), so
    /// this is the only place out-of-bounds lattice points surface.
    fn out_of_bounds(&self, diags: &mut Vec<Diagnostic>) {
        let mut trips = Vec::new();
        for (ki, k) in self.p.kernels.iter().enumerate() {
            trips.clear();
            trips.extend(k.loops.iter().map(|l| l.trip));
            for s in self.flow.kernel_sites(ki) {
                let decl = self.p.array(s.r.array);
                if decl.sparse {
                    continue; // data-dependent contents; extents are capacity
                }
                for (d, ix) in s.r.index.iter().enumerate() {
                    let IndexExpr::Affine(e) = ix else { continue };
                    let (lo, hi) = e.bounds(&trips);
                    let extent = decl.extents[d] as i64;
                    if lo < 0 || hi >= extent {
                        diags.push(Diagnostic::new(
                            Code::OutOfBounds,
                            self.ref_span(ki, s.si, s.ri),
                            format!(
                                "out-of-bounds access to `{}`: dimension {} spans \
                                 {}..={}, but valid indices are 0..={}",
                                decl.name,
                                d,
                                lo,
                                hi,
                                extent - 1
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// GPP002 + GPP006: walks the analyzer's dataflow, which holds what
    /// *earlier kernels* wrote; this pass adds what *earlier statements of
    /// the kernel* wrote for certain. The plan subtracts only the former
    /// from a read; GPP006 reports what is left when the latter covers it.
    fn liveness(&mut self, diags: &mut Vec<Diagnostic>) {
        // Indexed by array id; emptied after each kernel.
        let mut cur: Vec<SectionSet> = (self.p.arrays.iter())
            .map(|a| SectionSet::empty(a.ndims()))
            .collect();
        for ki in 0..self.p.kernels.len() {
            let flow = &self.flow;
            // Sites are in program order, so each statement's are a run.
            for stmt in flow.kernel_sites(ki).chunk_by(|a, b| a.si == b.si) {
                // Reads observe writes of *earlier* statements only.
                for s in stmt.iter().filter(|s| s.r.kind == AccessKind::Read) {
                    let a = s.r.array;
                    let decl = self.p.array(a);
                    let cset = &cur[a.index()];
                    if self.is_temp(a) {
                        if !covered(&s.section, flow.guaranteed(a), cset) {
                            diags.push(Diagnostic::new(
                                Code::UninitializedRead,
                                self.ref_span(ki, s.si, s.ri),
                                format!(
                                    "temporary `{}` is read before it is fully \
                                     written — temporaries get no host-to-device \
                                     copy, so this reads undefined device memory",
                                    decl.name
                                ),
                            ));
                        }
                    } else if s.exact && !cset.is_empty() {
                        // What the plan ships for this read, when earlier
                        // statements produce all of it.
                        let mut need = SectionSet::from_section(s.section.clone());
                        if let Some(w) = flow.written_densely(a) {
                            need.subtract(w);
                        }
                        if !need.is_empty() && need.parts().iter().all(|p| cset.covers(p)) {
                            diags.push(Diagnostic::new(
                                Code::RedundantH2d,
                                self.ref_span(ki, s.si, s.ri),
                                format!(
                                    "`{}` is produced earlier in kernel `{}`, \
                                     yet the per-kernel transfer analysis still \
                                     schedules {} of host-to-device traffic for \
                                     this read; hoist the producer into its own \
                                     kernel to keep the data device-resident",
                                    decl.name,
                                    self.p.kernels[ki].name,
                                    human_bytes(need.byte_count(decl.elem.bytes())),
                                ),
                            ));
                        }
                    }
                }
                // Then record this statement's guaranteed writes.
                for s in stmt.iter().filter(|s| s.is_guaranteed_write()) {
                    cur[s.r.array.index()].insert(s.section.clone());
                }
            }
            cur.iter_mut().for_each(SectionSet::clear);
            self.flow.fold(ki);
        }
    }

    /// GPP003: a write is dead if its section is fully overwritten before
    /// any later read observes it — or, for a temporary (which is never
    /// copied back to the host), if nothing ever reads it at all.
    fn dead_writes(&self, diags: &mut Vec<Diagnostic>) {
        let sites = self.flow.sites();
        for (wi, w) in sites.iter().enumerate() {
            if !w.is_guaranteed_write() {
                continue;
            }
            let (a, ki) = (w.r.array, w.ki);
            let decl = self.p.array(a);
            let same_stmt = |s: &Site| s.ki == ki && s.si == w.si;
            // Self-accumulation (`x[i] = x[i] + …`, possibly under a
            // serial loop) keeps the write live: the same statement
            // re-reads it on the next iteration.
            let accumulates = self.flow.kernel_sites(ki).iter().any(|s| {
                same_stmt(s)
                    && s.r.kind == AccessKind::Read
                    && s.r.array == a
                    && s.section.overlaps(&w.section)
            });
            if accumulates {
                continue;
            }
            // Some(true): a later read observes it; Some(false): it is
            // overwritten first; None: the scan runs to program end.
            let mut remaining = SectionSet::from_section(w.section.clone());
            let mut later = sites[wi + 1..]
                .iter()
                .filter(|s| !same_stmt(s) && s.r.array == a);
            let verdict = later.find_map(|s| {
                if s.r.kind == AccessKind::Read {
                    let touches = if s.exact {
                        remaining.overlaps(&s.section)
                    } else {
                        !remaining.is_empty()
                    };
                    touches.then_some(true)
                } else if s.is_guaranteed_write() {
                    remaining.subtract_section(&s.section);
                    remaining.is_empty().then_some(false)
                } else {
                    None
                }
            });
            let message = match verdict {
                Some(true) => continue,
                Some(false) => format!(
                    "dead write to `{}`: every element is overwritten before it \
                     is ever read",
                    decl.name
                ),
                // Never read and never fully overwritten: live for host
                // outputs (the final D2H copy observes it), dead for
                // temporaries.
                None if self.is_temp(a) => format!(
                    "write to temporary `{}` is never read — its traffic is wasted",
                    decl.name
                ),
                None => continue,
            };
            let span = self.ref_span(ki, w.si, w.ri);
            diags.push(Diagnostic::new(Code::DeadWrite, span, message));
        }
    }

    /// GPP004: declared, never referenced.
    fn unused_arrays(&self, diags: &mut Vec<Diagnostic>) {
        for a in &self.p.arrays {
            if !(0..self.p.kernels.len()).any(|ki| self.flow.touch(ki, a.id).is_some()) {
                diags.push(Diagnostic::new(
                    Code::UnusedArray,
                    self.array_span(a.id),
                    format!("array `{}` is declared but never referenced", a.name),
                ));
            }
        }
    }

    /// GPP005: write-write and read-write conflicts between distinct
    /// iterations of a parallel loop.
    ///
    /// Writes are linearized row-major; a parallel loop whose linear
    /// coefficient is zero makes every one of its iterations store to
    /// the same elements — a *definite* race (error). Otherwise a
    /// positional-number argument proves injectivity: with coefficients
    /// sorted by magnitude, each must exceed the largest offset the
    /// smaller ones (plus all serial loops) can accumulate; failing that
    /// the map *may* collide (warning).
    fn races(&self, diags: &mut Vec<Diagnostic>) {
        for (ki, k) in self.p.kernels.iter().enumerate() {
            let par: Vec<(usize, &gpp_skeleton::Loop)> = k
                .loops
                .iter()
                .enumerate()
                .filter(|(_, l)| l.parallel && l.trip > 1)
                .collect();
            if par.is_empty() {
                continue; // single-iteration nest cannot race
            }
            let sites = self.flow.kernel_sites(ki);
            for w in sites.iter().filter(|s| s.r.kind == AccessKind::Write) {
                let decl = self.p.array(w.r.array);
                if decl.sparse {
                    continue; // contents and index sets are data-dependent
                }
                let span = self.ref_span(ki, w.si, w.ri);
                if w.r.is_irregular() {
                    diags.push(Diagnostic::new(
                        Code::ParallelRace,
                        span,
                        format!(
                            "data-dependent write to `{}` under a parallel loop \
                             nest — distinct iterations cannot be proven to \
                             write distinct elements",
                            decl.name
                        ),
                    ));
                    continue;
                }
                let lin = |lid: LoopId| -> i128 {
                    w.r.index
                        .iter()
                        .enumerate()
                        .map(|(d, ix)| {
                            let row_stride: i128 =
                                decl.extents[d + 1..].iter().map(|&e| e as i128).product();
                            match ix {
                                IndexExpr::Affine(e) => e.coeff(lid) as i128 * row_stride,
                                _ => 0,
                            }
                        })
                        .sum()
                };
                if let Some((_, l)) = par.iter().find(|(li, _)| lin(LoopId(*li as u32)) == 0) {
                    diags.push(Diagnostic::with_severity(
                        Code::ParallelRace,
                        Severity::Error,
                        span,
                        format!(
                            "write-write race on `{}`: the index does not vary \
                             with parallel loop `{}`, so all {} of its \
                             iterations store to the same elements",
                            decl.name, l.name, l.trip
                        ),
                    ));
                    continue;
                }
                let serial_slack: i128 = k
                    .loops
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.parallel && l.trip > 1)
                    .map(|(li, l)| lin(LoopId(li as u32)).abs() * (l.trip as i128 - 1))
                    .sum();
                let mut coeffs: Vec<(i128, u64)> = par
                    .iter()
                    .map(|(li, l)| (lin(LoopId(*li as u32)).abs(), l.trip))
                    .collect();
                coeffs.sort_unstable();
                let mut reach = serial_slack;
                for (c, trip) in coeffs {
                    if c <= reach {
                        diags.push(Diagnostic::new(
                            Code::ParallelRace,
                            span,
                            format!(
                                "writes to `{}` may collide: distinct parallel \
                                 iterations can map to the same element \
                                 (non-injective index)",
                                decl.name
                            ),
                        ));
                        break;
                    }
                    reach += c * (trip as i128 - 1);
                }
            }
            // Read-write conflicts: a read whose section overlaps a
            // concurrent write through a *different* index pattern sees
            // either old or new values depending on thread order.
            let mut flagged: BTreeSet<ArrayId> = BTreeSet::new();
            for r in sites.iter().filter(|s| s.r.kind == AccessKind::Read) {
                let a = r.r.array;
                if flagged.contains(&a) || self.p.array(a).sparse {
                    continue;
                }
                let conflicting = sites.iter().any(|w| {
                    w.r.kind == AccessKind::Write
                        && w.r.array == a
                        && !w.r.is_irregular()
                        && w.r.index != r.r.index
                        && if r.exact {
                            w.section.overlaps(&r.section)
                        } else {
                            !w.section.is_empty()
                        }
                });
                if conflicting {
                    flagged.insert(a);
                    diags.push(Diagnostic::new(
                        Code::ParallelRace,
                        self.ref_span(ki, r.si, r.ri),
                        format!(
                            "kernel `{}` reads `{}` at indices that overlap \
                             elements concurrently written by other parallel \
                             iterations — the value observed depends on thread \
                             order (double-buffer the array to fix)",
                            k.name,
                            self.p.array(a).name
                        ),
                    ));
                }
            }
        }
    }

    /// GPP007: an array whose first access writes it and whose last
    /// access reads it, with a read served by an earlier kernel's write,
    /// lives entirely on the device, yet without a `temporary` hint the
    /// plan still copies it back. The finding quotes the plan's
    /// device-to-host bytes for it. An explicit schedule is priced as
    /// written, hints or not, so there a hint would save nothing.
    fn temporary_hints(&self, diags: &mut Vec<Diagnostic>) {
        if self.p.has_explicit_transfers() {
            return;
        }
        debug_assert_eq!(
            self.flow.folded(),
            self.p.kernels.len(),
            "GPP007 quotes the whole walk"
        );
        let mut first = vec![None; self.p.arrays.len()];
        let mut last = vec![None; self.p.arrays.len()];
        for s in self.flow.sites() {
            first[s.r.array.index()].get_or_insert(s.r.kind);
            last[s.r.array.index()] = Some(s.r.kind);
        }
        for decl in &self.p.arrays {
            let a = decl.id;
            if self.is_temp(a)
                || first[a.index()] != Some(AccessKind::Write)
                || last[a.index()] != Some(AccessKind::Read)
                || !(0..self.p.kernels.len()).any(|ki| self.flow.served(ki, a))
            {
                continue;
            }
            let bytes = (self.flow.written(a)).map_or(0, |w| transfer_bytes(decl, self.hints, w).0);
            if bytes == 0 {
                continue;
            }
            let d = Diagnostic::new(
                Code::MissingTemporary,
                self.array_span(a),
                format!(
                    "`{}` is produced and last consumed on the device but is \
                     not declared `temporary`; marking it would drop {} of \
                     device-to-host traffic",
                    decl.name,
                    human_bytes(bytes)
                ),
            );
            diags.push(
                d.with_line_fix(format!("declare `{}` temporary", decl.name), |line| {
                    let text = " temporary".into();
                    vec![crate::fixit::Edit::Append { line, text }]
                }),
            );
        }
    }

    /// GPP008: coalescing notes from each reference's coalescing class
    /// (what the synthesized characteristics would carry), using the
    /// default thread axis (the innermost parallel loop).
    fn coalescing(&self, diags: &mut Vec<Diagnostic>) {
        for (ki, k) in self.p.kernels.iter().enumerate() {
            let axis = k.thread_axis();
            for &Site { si, ri, r, .. } in self.flow.kernel_sites(ki) {
                let decl = self.p.array(r.array);
                if decl.sparse {
                    continue; // layout is a property of the format
                }
                let span = self.ref_span(ki, si, ri);
                match coalesce_class(r, self.p, axis) {
                    CoalesceClass::Strided(s) if s >= 16 => {
                        diags.push(Diagnostic::new(
                            Code::Uncoalesced,
                            span,
                            format!(
                                "stride-{} access to `{}`: consecutive \
                                 threads touch elements {} apart, \
                                 fragmenting each half-warp into {} \
                                 transactions — interchange loops so the \
                                 thread axis sweeps the contiguous dimension",
                                s,
                                decl.name,
                                s,
                                s.min(16)
                            ),
                        ));
                    }
                    CoalesceClass::Irregular => {
                        diags.push(Diagnostic::new(
                            Code::Uncoalesced,
                            span,
                            format!(
                                "data-dependent index into `{}` scatters each \
                                 half-warp into 16 separate transactions",
                                decl.name
                            ),
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Whether `s` lies within the union of `a` and `b`, whose parts are
/// dense: [`SectionSet::covers`] on the union, without building it.
fn covered(s: &Section, a: &SectionSet, b: &SectionSet) -> bool {
    if b.is_empty() {
        return a.covers(s);
    }
    if a.is_empty() {
        return b.covers(s);
    }
    // `covers` widens a strided `s` to its bounding box; so does
    // `from_section`.
    let mut rest = SectionSet::from_section(s.clone());
    rest.subtract(a);
    rest.parts().iter().all(|p| b.covers(p))
}

/// Maps one [`ValidationError`] to a GPP000 diagnostic with a
/// best-effort span (the offending array, loop, kernel, or reference).
fn structural_diag(p: &Program, map: Option<&SourceMap>, e: &ValidationError) -> Diagnostic {
    let span = map.map(|m| structural_span(p, m, e)).unwrap_or_default();
    Diagnostic::new(Code::Structural, span, e.to_string())
}

fn structural_span(p: &Program, m: &SourceMap, e: &ValidationError) -> Span {
    let kernel_index = |name: &str| p.kernels.iter().position(|k| k.name == name);
    let ref_span_where = |kname: &str, pred: &dyn Fn(&ArrayRef) -> bool| -> Span {
        let Some(ki) = kernel_index(kname) else {
            return Span::none();
        };
        for (si, stmt) in p.kernels[ki].statements.iter().enumerate() {
            for (ri, r) in stmt.refs.iter().enumerate() {
                if pred(r) {
                    return m.ref_span(ki, si, ri);
                }
            }
        }
        m.kernel_span(ki)
    };
    match e {
        ValidationError::ZeroExtent { array } => p
            .array_by_name(array)
            .map(|a| m.array_span(a.id))
            .unwrap_or_default(),
        ValidationError::EmptyLoopNest { kernel } | ValidationError::NoParallelism { kernel } => {
            kernel_index(kernel)
                .map(|ki| m.kernel_span(ki))
                .unwrap_or_default()
        }
        ValidationError::ZeroTrip { kernel, loop_name } => kernel_index(kernel)
            .and_then(|ki| {
                let li = p.kernels[ki]
                    .loops
                    .iter()
                    .position(|l| &l.name == loop_name)?;
                m.kernels.get(ki)?.loops.get(li).copied()
            })
            .unwrap_or_default(),
        ValidationError::UnknownArray { kernel, array } => {
            ref_span_where(kernel, &|r: &ArrayRef| r.array.0 == *array)
        }
        ValidationError::DimMismatch {
            kernel,
            array,
            expected,
            ..
        } => ref_span_where(kernel, &|r: &ArrayRef| {
            p.arrays
                .iter()
                .any(|a| a.id == r.array && &a.name == array && r.index.len() != *expected)
        }),
        ValidationError::UnknownLoop { kernel, loop_id } => {
            ref_span_where(kernel, &|r: &ArrayRef| {
                r.index.iter().any(|ix| match ix {
                    IndexExpr::Affine(e) => e.coeff(LoopId(*loop_id)) != 0,
                    _ => false,
                })
            })
        }
        ValidationError::ZeroChunks { array } => p
            .transfers
            .iter()
            .position(|t| t.chunks == 0 && p.array(t.array).name == *array)
            .map(|i| m.transfer_span(i))
            .unwrap_or_default(),
        ValidationError::TransferOrder { array, pos, .. } => p
            .transfers
            .iter()
            .position(|t| t.pos == *pos && p.array(t.array).name == *array)
            .map(|i| m.transfer_span(i))
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_skeleton::builder::{cst, idx, irr, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops};

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        let mut v: Vec<Code> = diags.iter().map(|d| d.code).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn lint(p: &Program) -> Vec<Diagnostic> {
        lint_program(p, None, &Hints::for_program(p))
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let mut p = ProgramBuilder::new("clean");
        let a = p.array("a", ElemType::F32, &[1024]);
        let b = p.array("b", ElemType::F32, &[1024]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 1024);
        k.statement()
            .read(a, &[idx(i)])
            .write(b, &[idx(i)])
            .flops(Flops {
                adds: 1,
                ..Flops::default()
            })
            .finish();
        k.finish();
        let p = p.build().unwrap();
        assert_eq!(lint(&p), vec![]);
    }

    #[test]
    fn oob_read_is_an_error() {
        let mut p = ProgramBuilder::new("oob");
        let a = p.array("a", ElemType::F32, &[64]);
        let b = p.array("b", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read(a, &[idx(i) + 1])
            .write(b, &[idx(i)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert_eq!(codes(&d), vec![Code::OutOfBounds]);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0].message.contains("1..=64"), "{}", d[0].message);
    }

    #[test]
    fn negative_index_is_oob() {
        let mut p = ProgramBuilder::new("neg");
        let a = p.array("a", ElemType::F32, &[64]);
        let b = p.array("b", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read(a, &[idx(i) - 1])
            .write(b, &[idx(i)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        assert_eq!(codes(&lint(&p)), vec![Code::OutOfBounds]);
    }

    #[test]
    fn uninitialized_temporary_read_warns() {
        let mut p = ProgramBuilder::new("uninit");
        let a = p.array("a", ElemType::F32, &[64]);
        let t = p.temporary_array("scratch", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read(t, &[idx(i)])
            .write(a, &[idx(i)])
            .finish();
        k.statement()
            .read(a, &[idx(i)])
            .write(t, &[idx(i)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert!(d.iter().any(|d| d.code == Code::UninitializedRead), "{d:?}");
    }

    #[test]
    fn temporary_written_then_read_is_clean() {
        let mut p = ProgramBuilder::new("ok-temp");
        let a = p.array("a", ElemType::F32, &[64]);
        let t = p.temporary_array("scratch", ElemType::F32, &[64]);
        let mut k1 = p.kernel("produce");
        let i = k1.parallel_loop("i", 64);
        k1.statement()
            .read(a, &[idx(i)])
            .write(t, &[idx(i)])
            .finish();
        k1.finish();
        let mut k2 = p.kernel("consume");
        let i = k2.parallel_loop("i", 64);
        k2.statement()
            .read(t, &[idx(i)])
            .write(a, &[idx(i)])
            .finish();
        k2.finish();
        let p = p.build().unwrap();
        assert_eq!(lint(&p), vec![]);
    }

    #[test]
    fn overwritten_before_read_is_dead() {
        let mut p = ProgramBuilder::new("dead");
        let a = p.array("a", ElemType::F32, &[64]);
        let x = p.array("x", ElemType::F32, &[64]);
        let mut k1 = p.kernel("first");
        let i = k1.parallel_loop("i", 64);
        k1.statement()
            .read(a, &[idx(i)])
            .write(x, &[idx(i)])
            .finish();
        k1.finish();
        let mut k2 = p.kernel("second");
        let i = k2.parallel_loop("i", 64);
        k2.statement()
            .read(a, &[idx(i)])
            .write(x, &[idx(i)])
            .finish();
        k2.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert_eq!(codes(&d), vec![Code::DeadWrite]);
        assert!(d[0].message.contains("overwritten"));
    }

    #[test]
    fn accumulation_is_not_dead() {
        // x[i] = x[i] + a[i,t] under a serial loop: classic reduction.
        let mut p = ProgramBuilder::new("acc");
        let a = p.array("a", ElemType::F32, &[64, 8]);
        let x = p.array("x", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        let t = k.serial_loop("t", 8);
        k.statement()
            .read(x, &[idx(i)])
            .read(a, &[idx(i), idx(t)])
            .write(x, &[idx(i)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        assert!(!lint(&p).iter().any(|d| d.code == Code::DeadWrite));
    }

    #[test]
    fn unused_array_warns() {
        let mut p = ProgramBuilder::new("unused");
        let a = p.array("a", ElemType::F32, &[64]);
        let b = p.array("b", ElemType::F32, &[64]);
        let _ghost = p.array("ghost", ElemType::F64, &[128]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read(a, &[idx(i)])
            .write(b, &[idx(i)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert_eq!(codes(&d), vec![Code::UnusedArray]);
        assert!(d[0].message.contains("ghost"));
    }

    #[test]
    fn thread_invariant_write_is_definite_race() {
        let mut p = ProgramBuilder::new("race");
        let a = p.array("a", ElemType::F32, &[64]);
        let y = p.array("y", ElemType::F32, &[4]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read(a, &[idx(i)])
            .write(y, &[cst(0)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert_eq!(codes(&d), vec![Code::ParallelRace]);
        assert_eq!(d[0].severity, Severity::Error);
    }

    #[test]
    fn folding_write_is_possible_race() {
        // a[i + k] with i parallel (trip 10) and k serial (trip 5):
        // threads 1 apart collide through serial offsets.
        let mut p = ProgramBuilder::new("fold");
        let a = p.array("a", ElemType::F32, &[32]);
        let b = p.array("b", ElemType::F32, &[32]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 10);
        let s = k.serial_loop("s", 5);
        k.statement()
            .read(b, &[idx(i)])
            .write(a, &[idx(i) + idx(s)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        let race: Vec<_> = d.iter().filter(|d| d.code == Code::ParallelRace).collect();
        assert_eq!(race.len(), 1, "{d:?}");
        assert_eq!(race[0].severity, Severity::Warning);
        assert!(race[0].message.contains("collide"));
    }

    #[test]
    fn stencil_read_write_overlap_is_race() {
        // In-place stencil: reads img[i] and img[i+2] while writing
        // img[i+1] in the same parallel nest.
        let mut p = ProgramBuilder::new("inplace");
        let img = p.array("img", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 62);
        k.statement()
            .read(img, &[idx(i)])
            .read(img, &[idx(i) + 2])
            .write(img, &[idx(i) + 1])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        let race: Vec<_> = d.iter().filter(|d| d.code == Code::ParallelRace).collect();
        assert_eq!(race.len(), 1, "one warning per (kernel, array): {d:?}");
        assert_eq!(race[0].severity, Severity::Warning);
    }

    #[test]
    fn double_buffered_stencil_has_no_race() {
        let mut p = ProgramBuilder::new("buffered");
        let a = p.array("in", ElemType::F32, &[64]);
        let b = p.array("out", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 62);
        k.statement()
            .read(a, &[idx(i)])
            .read(a, &[idx(i) + 2])
            .write(b, &[idx(i) + 1])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        assert!(!lint(&p).iter().any(|d| d.code == Code::ParallelRace));
    }

    #[test]
    fn same_kernel_producer_is_redundant_h2d() {
        let mut p = ProgramBuilder::new("redundant");
        let a = p.array("a", ElemType::F32, &[64]);
        let tmp = p.array("tmp", ElemType::F32, &[64]);
        let b = p.array("b", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read(a, &[idx(i)])
            .write(tmp, &[idx(i)])
            .finish();
        k.statement()
            .read(tmp, &[idx(i)])
            .write(b, &[idx(i)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert!(d.iter().any(|d| d.code == Code::RedundantH2d), "{d:?}");
    }

    #[test]
    fn read_produced_only_in_part_by_the_kernel_is_not_redundant_h2d() {
        // A prior kernel writes tmp[20..=29], so this read ships 0..=19
        // and 30..=63. The kernel produces 0..=39 first: that covers the
        // low piece but not the high one, so the traffic is needed.
        let mut p = ProgramBuilder::new("partly");
        let a = p.array("a", ElemType::F32, &[64]);
        let tmp = p.array("tmp", ElemType::F32, &[64]);
        let b = p.array("b", ElemType::F32, &[64]);
        let mut k1 = p.kernel("prior");
        let i = k1.parallel_loop("i", 10);
        k1.statement().write(tmp, &[idx(i) + 20]).finish();
        k1.finish();
        let mut k2 = p.kernel("k");
        let i = k2.parallel_loop("i", 64);
        let j = k2.parallel_loop("j", 40);
        k2.statement()
            .read(a, &[idx(j)])
            .write(tmp, &[idx(j)])
            .finish();
        k2.statement()
            .read(tmp, &[idx(i)])
            .write(b, &[idx(i)])
            .finish();
        k2.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert!(d.iter().all(|d| d.code != Code::RedundantH2d), "{d:?}");
    }

    #[test]
    fn device_intermediate_without_hint_warns() {
        let mut p = ProgramBuilder::new("hint");
        let img = p.array("img", ElemType::F32, &[256]);
        let coeff = p.array("coeff", ElemType::F32, &[256]);
        let mut k1 = p.kernel("prep");
        let i = k1.parallel_loop("i", 256);
        k1.statement()
            .read(img, &[idx(i)])
            .write(coeff, &[idx(i)])
            .finish();
        k1.finish();
        let mut k2 = p.kernel("update");
        let i = k2.parallel_loop("i", 256);
        k2.statement()
            .read(coeff, &[idx(i)])
            .read(img, &[idx(i)])
            .write(img, &[idx(i)])
            .finish();
        k2.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        let hint: Vec<_> = d
            .iter()
            .filter(|d| d.code == Code::MissingTemporary)
            .collect();
        assert_eq!(hint.len(), 1, "{d:?}");
        assert!(hint[0].message.contains("coeff"));
        assert!(hint[0].message.contains("1024 B"), "{}", hint[0].message);
        // With the hint supplied, the warning disappears.
        let coeff_id = p.array_by_name("coeff").unwrap().id;
        let hinted = Hints::new().temporary(coeff_id);
        let d2 = lint_program(&p, None, &hinted);
        assert!(!d2.iter().any(|d| d.code == Code::MissingTemporary));
    }

    #[test]
    fn read_between_strided_writes_is_no_flow_for_gpp007() {
        // `produce` writes the even elements of x, `consume` reads the odd
        // ones: no element flows between them, so x is not device-produced.
        let mut p = ProgramBuilder::new("interleaved");
        let x = p.array("x", ElemType::F32, &[64]);
        let y = p.array("y", ElemType::F32, &[32]);
        let mut k1 = p.kernel("produce");
        let i = k1.parallel_loop("i", 32);
        k1.statement().write(x, &[idx(i) * 2]).finish();
        k1.finish();
        let mut k2 = p.kernel("consume");
        let i = k2.parallel_loop("i", 32);
        k2.statement()
            .read(x, &[idx(i) * 2 + 1])
            .write(y, &[idx(i)])
            .finish();
        k2.finish();
        let p = p.build().unwrap();
        assert!(gpp_datausage::dependences(&p).is_empty());
        let d = lint(&p);
        assert!(d.iter().all(|d| d.code != Code::MissingTemporary), "{d:?}");
    }

    #[test]
    fn read_the_plan_serves_from_an_earlier_kernel_is_not_redundant_h2d() {
        // `prior` writes x only now and then, but the plan subtracts all
        // it may write from k's read: it ships `a` alone.
        let p = gpp_skeleton::text::parse(
            "\
program p
array a f32 [64]
array x f32 [64]
array b f32 [64]
kernel prior
  parallel i 64
  stmt active=0.5
    write x [i]
kernel k
  parallel i 64
  stmt
    read  a [i]
    write x [i]
  stmt
    read  x [i]
    write b [i]
",
        )
        .unwrap();
        let plan = gpp_datausage::analyze(&p, &Hints::for_program(&p));
        let h2d: Vec<&str> = plan.h2d.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(h2d, ["a"]);
        let d = lint(&p);
        assert!(d.iter().all(|d| d.code != Code::RedundantH2d), "{d:?}");
    }

    #[test]
    fn row_major_transpose_access_is_noted() {
        let mut p = ProgramBuilder::new("stride");
        let m = p.array("m", ElemType::F32, &[128, 128]);
        let v = p.array("v", ElemType::F32, &[128]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 128);
        k.statement()
            .read(m, &[idx(i), cst(0)])
            .write(v, &[idx(i)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert_eq!(codes(&d), vec![Code::Uncoalesced]);
        assert_eq!(d[0].severity, Severity::Note);
        assert!(d[0].message.contains("stride-128"));
    }

    #[test]
    fn irregular_gather_is_noted() {
        let mut p = ProgramBuilder::new("gather");
        let x = p.array("x", ElemType::F64, &[512]);
        let y = p.array("y", ElemType::F64, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 64);
        k.statement()
            .read_ix(x, &[irr()])
            .write(y, &[idx(i)])
            .finish();
        k.finish();
        let p = p.build().unwrap();
        let d = lint(&p);
        assert_eq!(codes(&d), vec![Code::Uncoalesced]);
        assert!(d[0].message.contains("data-dependent"));
    }

    #[test]
    fn invalid_program_yields_only_structural_errors() {
        let mut p = ProgramBuilder::new("broken");
        let a = p.array("a", ElemType::F32, &[0]); // zero extent
        let mut k = p.kernel("k");
        let i = k.serial_loop("i", 0); // zero trip + no parallelism
        k.statement().read(a, &[idx(i)]).finish();
        k.finish();
        let p = p.build_unchecked();
        let d = lint_program(&p, None, &Hints::new());
        assert!(d.len() >= 3, "{d:?}");
        assert!(d.iter().all(|d| d.code == Code::Structural));
        assert!(d.iter().all(|d| d.severity == Severity::Error));
    }
}
