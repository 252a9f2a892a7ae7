//! The dataflow analysis over kernel sequences.

use crate::dataflow::Dataflow;
use crate::hints::Hints;
use crate::plan::{Transfer, TransferDir, TransferPlan};
use gpp_brs::SectionSet;
use gpp_skeleton::{ArrayDecl, Program, TransferKind};

/// Runs the data usage analysis on a program (a sequence of kernels), in
/// kernel order, producing the transfer plan: [`transfer_sets`], each
/// set priced by [`transfer_bytes`].
///
/// Skeletons that pin an **explicit** transfer schedule (`h2d`/`d2h`
/// directives; [`Program::has_explicit_transfers`]) are priced *as
/// written* instead: one whole-array transfer per directive, in program
/// order. That is what lets `gpp lint`'s whole-program passes quantify
/// the cost of a wasteful schedule — the projector prices exactly what
/// the skeleton says, not the minimum the analysis could derive.
pub fn analyze(program: &Program, hints: &Hints) -> TransferPlan {
    if program.has_explicit_transfers() {
        return explicit_plan(program, hints);
    }
    let sets = transfer_sets(program, hints);
    let priced = |dir, set: fn(&ArraySets) -> (Option<&SectionSet>, bool)| {
        (program.arrays.iter().zip(&sets))
            .filter_map(|(a, s)| {
                let (set, exact) = set(s);
                // A sparse array's sections are never exact; a hint is.
                let exact = exact || a.sparse && hints.sparse_bytes(a.id).is_some();
                Some(transfer(a, dir, (transfer_bytes(a, hints, set?), exact)))
            })
            .collect()
    };
    TransferPlan {
        h2d: priced(TransferDir::ToDevice, |s| (s.h2d.as_ref(), s.h2d_exact)),
        d2h: priced(TransferDir::FromDevice, |s| (s.d2h.as_ref(), s.d2h_exact)),
    }
}

/// The sections a derived plan moves of one array.
#[derive(Debug, Clone)]
pub struct ArraySets {
    /// What crosses host-to-device before the first kernel; `None` if
    /// nothing does.
    pub h2d: Option<SectionSet>,
    /// What crosses device-to-host after the last kernel; `None` for a
    /// hinted temporary or an array no kernel writes.
    pub d2h: Option<SectionSet>,
    /// True if `h2d` holds just the elements the kernels need uploaded:
    /// every site of the array is [`Site::exact`](crate::Site::exact) and
    /// dense, so no union widened and the must-union holds every certain
    /// write.
    pub h2d_exact: bool,
    /// True if `d2h` holds just the elements the kernels may write: every
    /// write site of the array is exact and dense.
    pub d2h_exact: bool,
}

/// The sections of the derived plan, indexed by array id: what
/// [`analyze`] prices, whatever schedule the program pins.
///
/// Algorithm (paper §III-B), walking the kernels with [`Dataflow`]:
/// * **host→device**: each kernel's reads, less what earlier kernels must
///   have written ([`Dataflow::guaranteed`]); then, for every array but a
///   hinted temporary, what the kernels may have written and need not
///   have: the holes the copy-back would otherwise fill with device
///   memory nothing wrote;
/// * **device→host**: what the kernels may have written
///   ([`Dataflow::written`]), but for hinted temporaries.
///
/// Each set's exactness flag comes from the sites that build it, and
/// from nothing else.
pub fn transfer_sets(program: &Program, hints: &Hints) -> Vec<ArraySets> {
    let fresh = ArraySets {
        h2d: None,
        d2h: None,
        h2d_exact: true,
        d2h_exact: true,
    };
    let mut sets = vec![fresh; program.arrays.len()];
    let mut flow = Dataflow::new(program);
    for ki in 0..program.kernels.len() {
        for (a, set) in program.arrays.iter().zip(&mut sets) {
            let mut read = SectionSet::empty(a.ndims());
            for s in flow.kernel_sites(ki).iter().filter(|s| s.r.array == a.id) {
                let exact = s.exact && s.section.is_dense();
                set.h2d_exact &= exact;
                if s.r.kind.is_write() {
                    set.d2h_exact &= exact;
                } else {
                    read.insert(s.section.clone());
                }
            }
            read.subtract(flow.guaranteed(a.id));
            fold(&mut set.h2d, read);
        }
        flow.fold(ki);
    }
    let arrays = program.arrays.iter().zip(&mut sets);
    for (a, set) in arrays.filter(|(a, _)| !hints.is_temporary(a.id)) {
        set.d2h = flow.take_written(a.id);
        let (Some(may), must) = (&set.d2h, flow.guaranteed(a.id)) else {
            continue;
        };
        // The must-union lies within the may-union: equal counts, no holes.
        if may.element_count() > must.element_count() {
            let mut holes = may.clone();
            holes.subtract(must);
            fold(&mut set.h2d, holes);
        }
    }
    sets
}

/// Unions `part` into `total`, or moves it there while `total` is `None`.
fn fold(total: &mut Option<SectionSet>, part: SectionSet) {
    match total {
        _ if part.is_empty() => {}
        Some(set) => set.union_with(&part),
        None => *total = Some(part),
    }
}

/// Prices an explicit `h2d`/`d2h` schedule literally: one whole-array
/// transfer per directive, in program order. Sparse arrays keep the
/// conservative-fallback / hint rules of the derived path; everything
/// else is exact (the directive names the whole allocation).
fn explicit_plan(program: &Program, hints: &Hints) -> TransferPlan {
    let mut plan = TransferPlan::default();
    for t in &program.transfers {
        let decl = program.array(t.array);
        let (dir, list) = match t.kind {
            TransferKind::HostToDevice => (TransferDir::ToDevice, &mut plan.h2d),
            TransferKind::DeviceToHost => (TransferDir::FromDevice, &mut plan.d2h),
        };
        let whole = (decl.byte_count(), true);
        list.push(transfer(
            decl,
            dir,
            if decl.sparse {
                sparse_bytes(decl, hints)
            } else {
                whole
            },
        ));
    }
    plan
}

fn transfer(decl: &ArrayDecl, dir: TransferDir, (bytes, exact): (u64, bool)) -> Transfer {
    Transfer {
        array: decl.id,
        name: decl.name.clone(),
        bytes,
        dir,
        exact,
    }
}

/// The bytes of moving `set` of `decl` across the bus in a derived plan:
/// the set's size clamped to the allocation, or for a sparse array its
/// hinted bound (without a hint, the whole allocation).
pub fn transfer_bytes(decl: &ArrayDecl, hints: &Hints, set: &SectionSet) -> u64 {
    if decl.sparse {
        return sparse_bytes(decl, hints).0;
    }
    set.byte_count(decl.elem.bytes()).min(decl.byte_count())
}

/// A sparse array moves its hinted bound on the useful contents, clamped
/// to the allocation; without a hint, conservatively the whole
/// allocation, inexact.
fn sparse_bytes(decl: &ArrayDecl, hints: &Hints) -> (u64, bool) {
    match hints.sparse_bytes(decl.id) {
        Some(b) => (b.min(decl.byte_count()), true),
        None => (decl.byte_count(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_brs::ArrayId;
    use gpp_skeleton::builder::{idx, irr, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops};

    /// SRAD-like shape: k1 reads img, writes coeff; k2 reads img+coeff,
    /// writes img.
    fn srad_like(n: usize) -> (Program, ArrayId, ArrayId) {
        let mut p = ProgramBuilder::new("srad-like");
        let img = p.array("img", ElemType::F32, &[n, n]);
        let coeff = p.array("coeff", ElemType::F32, &[n, n]);
        let mut k1 = p.kernel("prep");
        let i = k1.parallel_loop("i", n as u64);
        let j = k1.parallel_loop("j", n as u64);
        k1.statement()
            .read(img, &[idx(i), idx(j)])
            .write(coeff, &[idx(i), idx(j)])
            .flops(Flops {
                adds: 4,
                divs: 1,
                ..Flops::default()
            })
            .finish();
        k1.finish();
        let mut k2 = p.kernel("update");
        let i = k2.parallel_loop("i", n as u64);
        let j = k2.parallel_loop("j", n as u64);
        k2.statement()
            .read(img, &[idx(i), idx(j)])
            .read(coeff, &[idx(i), idx(j)])
            .write(img, &[idx(i), idx(j)])
            .flops(Flops {
                adds: 6,
                muls: 2,
                ..Flops::default()
            })
            .finish();
        k2.finish();
        let prog = p.build().unwrap();
        (prog, img, coeff)
    }

    #[test]
    fn device_produced_data_is_not_sent() {
        let (prog, img, coeff) = srad_like(256);
        let plan = analyze(&prog, &Hints::new());
        // Only img goes in: coeff is written by k1 before k2 reads it.
        assert_eq!(plan.h2d.len(), 1);
        assert_eq!(plan.h2d[0].array, img);
        assert_eq!(plan.h2d[0].bytes, 256 * 256 * 4);
        // Without hints, both written arrays come back.
        assert_eq!(plan.d2h.len(), 2);
        let _ = coeff;
    }

    #[test]
    fn temporary_hint_skips_copy_back() {
        let (prog, img, coeff) = srad_like(256);
        let plan = analyze(&prog, &Hints::new().temporary(coeff));
        assert_eq!(plan.d2h.len(), 1);
        assert_eq!(plan.d2h[0].array, img);
        assert!(plan.is_exact());
    }

    #[test]
    fn partial_prior_write_sends_remainder() {
        // k1 writes the first half of x; k2 reads all of x:
        // only the unwritten second half needs transferring.
        let mut p = ProgramBuilder::new("halves");
        let x = p.array("x", ElemType::F32, &[1000]);
        let y = p.array("y", ElemType::F32, &[1000]);
        let mut k1 = p.kernel("k1");
        let i = k1.parallel_loop("i", 500);
        k1.statement().write(x, &[idx(i)]).finish();
        k1.finish();
        let mut k2 = p.kernel("k2");
        let i = k2.parallel_loop("i", 1000);
        k2.statement()
            .read(x, &[idx(i)])
            .write(y, &[idx(i)])
            .finish();
        k2.finish();
        let prog = p.build().unwrap();
        let plan = analyze(&prog, &Hints::new());
        let x_in = plan.h2d.iter().find(|t| t.array == x).unwrap();
        assert_eq!(x_in.bytes, 500 * 4);
    }

    #[test]
    fn a_read_between_strided_writes_is_sent() {
        // k1 writes the even elements of x; k2 reads the odd ones, which
        // no kernel wrote: they must all cross host-to-device.
        let mut p = ProgramBuilder::new("strided");
        let x = p.array("x", ElemType::F32, &[64]);
        let y = p.array("y", ElemType::F32, &[32]);
        let mut k1 = p.kernel("evens");
        let i = k1.parallel_loop("i", 32);
        k1.statement().write(x, &[idx(i) * 2]).finish();
        k1.finish();
        let mut k2 = p.kernel("odds");
        let i = k2.parallel_loop("i", 32);
        k2.statement()
            .read(x, &[idx(i) * 2 + 1])
            .write(y, &[idx(i)])
            .finish();
        k2.finish();
        let prog = p.build().unwrap();
        let plan = analyze(&prog, &Hints::new());
        let x_in = plan.h2d.iter().find(|t| t.array == x).unwrap();
        assert!(x_in.bytes >= 32 * 4, "{x_in:?}");
        // The copy-back covers the strided write's bounding box x[0..62],
        // so the odd elements in it are uploaded first lest it clobber
        // them: with the read's box x[1..63], all of x goes up.
        assert_eq!(x_in.bytes, 64 * 4);
        let x_out = plan.d2h.iter().find(|t| t.array == x).unwrap();
        assert_eq!(x_out.bytes, 63 * 4);
    }

    #[test]
    fn only_exact_dense_sites_make_exact_transfers() {
        // `x[i, i]` writes 8 elements, but its section is the 8x8 box; the
        // copy of `x` into `y` is exact.
        let mut p = ProgramBuilder::new("diagonal");
        let x = p.array("x", ElemType::F32, &[8, 8]);
        let y = p.array("y", ElemType::F32, &[8, 8]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 8);
        let j = k.parallel_loop("j", 8);
        k.statement().write(x, &[idx(i), idx(i)]).finish();
        k.statement()
            .read(x, &[idx(i), idx(j)])
            .write(y, &[idx(i), idx(j)])
            .finish();
        k.finish();
        let plan = analyze(&p.build().unwrap(), &Hints::new());
        let exact = |ts: &[Transfer], a| ts.iter().find(|t| t.array == a).unwrap().exact;
        assert!(!exact(&plan.h2d, x) && !exact(&plan.d2h, x));
        assert!(exact(&plan.d2h, y));
    }

    #[test]
    fn read_after_own_write_in_same_kernel_still_transfers() {
        // Within one kernel, reads are processed before writes take
        // effect (per-kernel granularity: the read may race the write on
        // device, so the input must be present).
        let mut p = ProgramBuilder::new("rw");
        let x = p.array("x", ElemType::F32, &[100]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 100);
        k.statement()
            .read(x, &[idx(i)])
            .write(x, &[idx(i)])
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        let plan = analyze(&prog, &Hints::new());
        assert_eq!(plan.h2d_bytes(), 400);
        assert_eq!(plan.d2h_bytes(), 400);
    }

    #[test]
    fn sparse_array_conservative_then_hinted() {
        let mut p = ProgramBuilder::new("spmv");
        let vals = p.sparse_array("vals", ElemType::F64, &[10_000]);
        let x = p.array("x", ElemType::F64, &[100]);
        let y = p.array("y", ElemType::F64, &[100]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 100);
        k.statement()
            .read_ix(vals, &[irr()])
            .read_ix(x, &[irr()])
            .write(y, &[idx(i)])
            .finish();
        k.finish();
        let prog = p.build().unwrap();

        // Conservative: whole vals allocation.
        let plan = analyze(&prog, &Hints::new());
        let v = plan.h2d.iter().find(|t| t.name == "vals").unwrap();
        assert_eq!(v.bytes, 80_000);
        assert!(!v.exact);

        // Hinted: only nnz × 8 bytes.
        let plan = analyze(
            &prog,
            &Hints::new().sparse_bound(prog.array_by_name("vals").unwrap().id, 3456 * 8),
        );
        let v = plan.h2d.iter().find(|t| t.name == "vals").unwrap();
        assert_eq!(v.bytes, 3456 * 8);
        assert!(v.exact);
    }

    #[test]
    fn sparse_hint_clamped_to_allocation() {
        let mut p = ProgramBuilder::new("clamp");
        let v = p.sparse_array("v", ElemType::F32, &[10]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement().read(v, &[idx(i)]).finish();
        k.finish();
        let prog = p.build().unwrap();
        let plan = analyze(&prog, &Hints::new().sparse_bound(v, 1 << 30));
        assert_eq!(plan.h2d[0].bytes, 40);
    }

    #[test]
    fn untouched_arrays_do_not_transfer() {
        let mut p = ProgramBuilder::new("unused");
        let a = p.array("a", ElemType::F32, &[100]);
        let _unused = p.array("unused", ElemType::F64, &[1 << 20]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 100);
        k.statement()
            .read(a, &[idx(i)])
            .write(a, &[idx(i)])
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        let plan = analyze(&prog, &Hints::new());
        assert_eq!(plan.transfer_count(), 2);
        assert!(plan.all().all(|t| t.name == "a"));
    }

    #[test]
    fn a_write_that_misses_every_element_still_gets_a_copy_back() {
        // The section of `y[i+100]` clamps to nothing in a 64-element
        // array; the kernel still writes `y`, so the plan lists it.
        let mut p = ProgramBuilder::new("offside");
        let x = p.array("x", ElemType::F32, &[64]);
        let y = p.array("y", ElemType::F32, &[64]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 10);
        k.statement()
            .read(x, &[idx(i)])
            .write(y, &[idx(i) + 100])
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        let plan = analyze(&prog, &Hints::new());
        assert_eq!(plan.d2h.len(), 1);
        assert_eq!((plan.d2h[0].array, plan.d2h[0].bytes), (y, 0));
        assert_eq!(plan.h2d_bytes(), 40);
    }

    #[test]
    fn explicit_schedule_is_priced_as_written() {
        use gpp_skeleton::TransferKind;
        // Same SRAD-like dataflow, but with a deliberately wasteful
        // explicit schedule: img uploaded twice, coeff downloaded too.
        let mut p = ProgramBuilder::new("explicit");
        let n = 64usize;
        let img = p.array("img", ElemType::F32, &[n, n]);
        let coeff = p.array("coeff", ElemType::F32, &[n, n]);
        p.transfer(img, TransferKind::HostToDevice);
        let mut k1 = p.kernel("prep");
        let i = k1.parallel_loop("i", n as u64);
        let j = k1.parallel_loop("j", n as u64);
        k1.statement()
            .read(img, &[idx(i), idx(j)])
            .write(coeff, &[idx(i), idx(j)])
            .finish();
        k1.finish();
        p.transfer(img, TransferKind::HostToDevice); // redundant re-upload
        let mut k2 = p.kernel("update");
        let i = k2.parallel_loop("i", n as u64);
        let j = k2.parallel_loop("j", n as u64);
        k2.statement()
            .read(img, &[idx(i), idx(j)])
            .read(coeff, &[idx(i), idx(j)])
            .write(img, &[idx(i), idx(j)])
            .finish();
        k2.finish();
        p.transfer(img, TransferKind::DeviceToHost);
        p.transfer(coeff, TransferKind::DeviceToHost);
        let prog = p.build().unwrap();

        let plan = analyze(&prog, &Hints::new());
        let full = (n * n * 4) as u64;
        // Priced literally: 2 uploads + 2 downloads, all whole-array.
        assert_eq!(plan.h2d.len(), 2);
        assert_eq!(plan.d2h.len(), 2);
        assert_eq!(plan.h2d_bytes(), 2 * full);
        assert_eq!(plan.d2h_bytes(), 2 * full);
        assert!(plan.is_exact());
        // The derived plan for the same kernels is strictly smaller.
        let mut derived = prog.clone();
        derived.transfers.clear();
        let minimal = analyze(&derived, &Hints::new());
        assert!(minimal.total_bytes() < plan.total_bytes());
    }

    #[test]
    fn explicit_schedule_keeps_sparse_hint_rules() {
        use gpp_skeleton::TransferKind;
        let mut p = ProgramBuilder::new("explicit-sparse");
        let vals = p.sparse_array("vals", ElemType::F64, &[10_000]);
        let y = p.array("y", ElemType::F64, &[100]);
        p.transfer(vals, TransferKind::HostToDevice);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", 100);
        k.statement()
            .read_ix(vals, &[irr()])
            .write(y, &[idx(i)])
            .finish();
        k.finish();
        p.transfer(y, TransferKind::DeviceToHost);
        let prog = p.build().unwrap();

        let plan = analyze(&prog, &Hints::new());
        assert_eq!(plan.h2d[0].bytes, 80_000);
        assert!(!plan.h2d[0].exact);
        let hinted = analyze(
            &prog,
            &Hints::new().sparse_bound(prog.array_by_name("vals").unwrap().id, 500 * 8),
        );
        assert_eq!(hinted.h2d[0].bytes, 4000);
        assert!(hinted.is_exact());
    }

    #[test]
    fn stencil_halo_is_counted() {
        // Writes cover the interior; reads cover everything: the halo ring
        // must be sent even though the interior is overwritten later...
        // and since reads precede writes in kernel order, the *whole* read
        // section goes in (nothing was written before this first kernel).
        let mut p = ProgramBuilder::new("stencil");
        let n = 64usize;
        let a = p.array("a", ElemType::F32, &[n, n]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", (n - 2) as u64);
        let j = k.parallel_loop("j", (n - 2) as u64);
        k.statement()
            .read(a, &[idx(i), idx(j) + 1])
            .read(a, &[idx(i) + 1, idx(j)])
            .read(a, &[idx(i) + 1, idx(j) + 1])
            .read(a, &[idx(i) + 1, idx(j) + 2])
            .read(a, &[idx(i) + 2, idx(j) + 1])
            .write(a, &[idx(i) + 1, idx(j) + 1])
            .finish();
        k.finish();
        let prog = p.build().unwrap();
        let plan = analyze(&prog, &Hints::new());
        // Reads: cross pattern union = everything except the 4 corners.
        assert_eq!(plan.h2d_bytes(), (64 * 64 - 4) * 4);
        // Writes: interior only.
        assert_eq!(plan.d2h_bytes(), 62 * 62 * 4);
    }
}
