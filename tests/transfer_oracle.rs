//! An element-exact oracle for the transfer plan (paper §III-B).
//!
//! The data usage analyzer ships "BRSs that are read but are not
//! previously written" to the device and copies "the UNION of all written
//! BRSs" back. Its sections over-approximate, so this test holds them to
//! the truth, which a small interpreter traces: it runs each kernel's loop
//! nest, evaluates every index with `AffineExpr::eval`, and records per
//! kernel, in bitsets, the exact elements of each array that the kernel
//! may read, may write, and certainly writes. The truth side calls nothing
//! in `gpp_brs` or `gpp_datausage`:
//!
//! * a point outside the array is skipped, since the analysis assumes the
//!   real code guards it;
//! * an irregular index counts as its whole dimension, and any reference
//!   to a sparse array as the whole array (its layout is data-dependent);
//!   either is only a *may* access;
//! * so is every reference of a statement with `active < 1`.
//!
//! Per array, the sets of the derived plan ([`transfer_sets`]) must keep
//! three rules:
//!
//! * **R1**: an element that a kernel reads and no earlier kernel
//!   certainly wrote is uploaded;
//! * **R2**: an element that is copied back was uploaded or certainly
//!   written, so the copy-back clobbers no host data;
//! * **R3**: an element that a kernel may write comes back, unless the
//!   array is a temporary;
//! * **R4**: a set that [`transfer_sets`] flags exact holds just the
//!   truth: an upload the fewest elements R1–R3 allow, the copy-back of
//!   a non-temporary the elements a kernel may write.
//!
//! Elsewhere over-approximation is no failure: each input's plan-to-truth
//! byte ratios are printed (run with `--nocapture`). The full-size run is
//! ignored in the default test run; it is run in release with
//! `cargo test --release --test transfer_oracle -- --ignored`.

use grophecy_plus_plus::brs::SectionSet;
use grophecy_plus_plus::datausage::{transfer_sets, ArraySets, Hints};
use grophecy_plus_plus::skeleton::builder::{cst, idx, irr, ProgramBuilder};
use grophecy_plus_plus::skeleton::expr::{AffineExpr, LoopId};
use grophecy_plus_plus::skeleton::{
    text, AccessKind, ArrayDecl, ArrayRef, ElemType, IndexExpr, Program,
};
use grophecy_plus_plus::workloads::{cfd::Cfd, hotspot::HotSpot, paper_cases, srad::Srad};
use grophecy_plus_plus::workloads::{stassuij::Stassuij, WorkloadCase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// A set of one array's elements, by row-major linear index.
#[derive(Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Bits {
        Bits(vec![0; len.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn union_with(&mut self, other: &Bits) {
        self.0.iter_mut().zip(&other.0).for_each(|(a, b)| *a |= b);
    }

    /// The elements in just one of `self` and `other`.
    fn differ(&self, other: &Bits) -> Bits {
        Bits(self.0.iter().zip(&other.0).map(|(a, b)| a ^ b).collect())
    }

    /// The elements of `self` in none of `others`.
    fn minus(&self, others: &[&Bits]) -> Bits {
        let mut rest = self.clone();
        for o in others {
            rest.0.iter_mut().zip(&o.0).for_each(|(a, b)| *a &= !b);
        }
        rest
    }

    fn count(&self) -> u64 {
        self.0.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn first(&self) -> Option<usize> {
        let w = self.0.iter().position(|&w| w != 0)?;
        Some(w * 64 + self.0[w].trailing_zeros() as usize)
    }
}

/// An array's element count and row-major dimension strides.
fn layout(decl: &ArrayDecl) -> (usize, Vec<usize>) {
    let mut strides = vec![1; decl.extents.len()];
    for d in (0..decl.extents.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * decl.extents[d + 1];
    }
    (decl.extents.iter().product(), strides)
}

/// The coordinates of linear index `i`, for messages.
fn coords(decl: &ArrayDecl, i: usize) -> String {
    let (_, strides) = layout(decl);
    let c: Vec<String> = strides
        .iter()
        .zip(&decl.extents)
        .map(|(s, e)| (i / s % e).to_string())
        .collect();
    format!("[{}]", c.join(", "))
}

/// Calls `f` with the linear index of every element that `r` touches in
/// some iteration of a loop nest of `trips`, and returns whether it
/// touches each of them in every run (no irregular index, not sparse).
fn elements(r: &ArrayRef, decl: &ArrayDecl, trips: &[u64], f: &mut impl FnMut(usize)) -> bool {
    let (len, strides) = layout(decl);
    if trips.contains(&0) {
        return true;
    }
    if decl.sparse {
        (0..len).for_each(f);
        return false;
    }
    // Only the loops an index mentions move the element.
    let mut used: Vec<usize> = Vec::new();
    for e in r.index.iter().filter_map(IndexExpr::as_affine) {
        for &(l, _) in &e.terms {
            if !used.contains(&l.index()) {
                used.push(l.index());
            }
        }
    }
    let mut values = vec![0i64; trips.len()];
    let mut at: Vec<Option<usize>> = vec![None; r.index.len()];
    loop {
        // The point's index in each affine dimension, unless one is
        // outside the array.
        let inside =
            (at.iter_mut().zip(&r.index).zip(&decl.extents)).all(|((slot, ix), &extent)| {
                let Some(e) = ix.as_affine() else {
                    *slot = None;
                    return true;
                };
                *slot = usize::try_from(e.eval(&values))
                    .ok()
                    .filter(|&v| v < extent);
                slot.is_some()
            });
        if inside {
            expand(&at, &decl.extents, &strides, 0, f);
        }
        if !advance(&used, trips, &mut values) {
            return r.index.iter().all(|ix| !ix.is_irregular());
        }
    }
}

/// Steps the odometer over the `used` loops; false once it wraps.
fn advance(used: &[usize], trips: &[u64], values: &mut [i64]) -> bool {
    for &l in used.iter().rev() {
        values[l] += 1;
        if (values[l] as u64) < trips[l] {
            return true;
        }
        values[l] = 0;
    }
    false
}

/// Calls `f` with every linear index that agrees with `at` from dimension
/// `d` on, where `None` stands for the whole dimension.
fn expand(
    at: &[Option<usize>],
    extents: &[usize],
    strides: &[usize],
    base: usize,
    f: &mut impl FnMut(usize),
) {
    let d = extents.len() - at.len();
    match at.first() {
        None => f(base),
        Some(Some(v)) => expand(&at[1..], extents, strides, base + v * strides[d], f),
        Some(None) => {
            for v in 0..extents[d] {
                expand(&at[1..], extents, strides, base + v * strides[d], f);
            }
        }
    }
}

/// One kernel's exact accesses to one array.
struct Access {
    read: Bits,
    may_write: Bits,
    must_write: Bits,
}

/// The truth for kernel `ki`, indexed by array id.
fn trace(p: &Program, ki: usize) -> Vec<Access> {
    let mut acc: Vec<Access> = (p.arrays.iter())
        .map(|a| {
            let len = layout(a).0;
            Access {
                read: Bits::new(len),
                may_write: Bits::new(len),
                must_write: Bits::new(len),
            }
        })
        .collect();
    let k = &p.kernels[ki];
    let trips: Vec<u64> = k.loops.iter().map(|l| l.trip).collect();
    for stmt in &k.statements {
        for r in &stmt.refs {
            let decl = p.array(r.array);
            let mut hit = Bits::new(layout(decl).0);
            let certain = elements(r, decl, &trips, &mut |i| hit.insert(i));
            let a = &mut acc[r.array.index()];
            match r.kind {
                AccessKind::Read => a.read.union_with(&hit),
                AccessKind::Write => {
                    a.may_write.union_with(&hit);
                    if certain && stmt.active_fraction >= 1.0 {
                        a.must_write.union_with(&hit);
                    }
                }
            }
        }
    }
    acc
}

/// The elements of a plan set.
fn plan_bits(set: Option<&SectionSet>, decl: &ArrayDecl) -> Bits {
    let (len, strides) = layout(decl);
    let mut bits = Bits::new(len);
    for part in set.map_or(&[][..], SectionSet::parts) {
        let dims: Vec<Vec<usize>> = (part.dims().iter().zip(&decl.extents))
            .map(|(d, &e)| {
                if d.is_empty() {
                    return Vec::new();
                }
                (d.lo()..=d.hi())
                    .step_by(d.stride() as usize)
                    .filter_map(|v| usize::try_from(v).ok().filter(|&v| v < e))
                    .collect()
            })
            .collect();
        product(&dims, &strides, 0, &mut |i| bits.insert(i));
    }
    bits
}

/// Calls `f` with the linear index of every point of the product of `dims`.
fn product(dims: &[Vec<usize>], strides: &[usize], base: usize, f: &mut impl FnMut(usize)) {
    let d = strides.len() - dims.len();
    match dims.first() {
        None => f(base),
        Some(vs) => vs
            .iter()
            .for_each(|v| product(&dims[1..], strides, base + v * strides[d], f)),
    }
}

/// Bytes of the plan and of the truth, each way.
#[derive(Default)]
struct Bytes {
    plan_h2d: u64,
    truth_h2d: u64,
    plan_d2h: u64,
    truth_d2h: u64,
}

fn ratio(plan: u64, truth: u64) -> String {
    match (plan, truth) {
        (0, 0) => "1.00".into(),
        (_, 0) => "inf".into(),
        _ => format!("{:.2}", plan as f64 / truth as f64),
    }
}

/// Checks the plan of `p` against the truth, pushing one message per
/// broken rule and array onto `faults`.
fn check(name: &str, p: &Program, hints: &Hints, faults: &mut Vec<String>) -> Bytes {
    assert!(
        !p.has_explicit_transfers(),
        "{name}: an explicit schedule is priced as written"
    );
    let sets: Vec<ArraySets> = transfer_sets(p, hints);
    let h2d: Vec<Bits> = (p.arrays.iter().zip(&sets))
        .map(|(a, s)| plan_bits(s.h2d.as_ref(), a))
        .collect();
    let d2h: Vec<Bits> = (p.arrays.iter().zip(&sets))
        .map(|(a, s)| plan_bits(s.d2h.as_ref(), a))
        .collect();
    let fresh = || -> Vec<Bits> { p.arrays.iter().map(|a| Bits::new(layout(a).0)).collect() };
    // Per array: what earlier kernels certainly wrote, may have written,
    // and the fewest elements the plan could upload.
    let (mut must, mut may, mut need) = (fresh(), fresh(), fresh());
    let mut fault = |a: &ArrayDecl, rule: &str, what: String, missing: &Bits| {
        if let Some(i) = missing.first() {
            let n = missing.count();
            faults.push(format!(
                "{name}: {rule}: {n} element(s) of `{}` {what}, first {}",
                a.name,
                coords(a, i)
            ));
        }
    };
    for (ki, k) in p.kernels.iter().enumerate() {
        for (ai, acc) in trace(p, ki).into_iter().enumerate() {
            let a = &p.arrays[ai];
            let unwritten = acc.read.minus(&[&must[ai]]);
            let what = format!(
                "read by kernel `{}` before any certain write are not uploaded",
                k.name
            );
            fault(a, "R1", what, &unwritten.minus(&[&h2d[ai]]));
            need[ai].union_with(&unwritten);
            must[ai].union_with(&acc.must_write);
            may[ai].union_with(&acc.may_write);
        }
    }
    let mut bytes = Bytes::default();
    for (ai, a) in p.arrays.iter().enumerate() {
        let elem = a.elem.bytes() as u64;
        let what = "are copied back but were neither uploaded nor certainly written".to_string();
        fault(a, "R2", what, &d2h[ai].minus(&[&h2d[ai], &must[ai]]));
        if !hints.is_temporary(a.id) {
            let what = "may be written on the device but do not come back".to_string();
            fault(a, "R3", what, &may[ai].minus(&[&d2h[ai]]));
            // The copy-back of a may-write needs the host's values first.
            need[ai].union_with(&may[ai].minus(&[&must[ai]]));
            bytes.truth_d2h += may[ai].count() * elem;
            if sets[ai].d2h_exact {
                let what = "differ between the copy-back flagged exact and the truth".to_string();
                fault(a, "R4", what, &d2h[ai].differ(&may[ai]));
            }
        }
        if sets[ai].h2d_exact {
            let what = "differ between the upload flagged exact and the truth".to_string();
            fault(a, "R4", what, &h2d[ai].differ(&need[ai]));
        }
        bytes.truth_h2d += need[ai].count() * elem;
        bytes.plan_h2d += h2d[ai].count() * elem;
        bytes.plan_d2h += d2h[ai].count() * elem;
    }
    println!(
        "{name:<44} h2d {:>10} / {:>10} B ({:>5})  d2h {:>10} / {:>10} B ({:>5})",
        bytes.plan_h2d,
        bytes.truth_h2d,
        ratio(bytes.plan_h2d, bytes.truth_h2d),
        bytes.plan_d2h,
        bytes.truth_d2h,
        ratio(bytes.plan_d2h, bytes.truth_d2h),
    );
    bytes
}

/// Checks every parsing `.gsk` file in `dir` whose schedule is derived;
/// returns how many were checked and how many pin an explicit schedule.
fn check_dir(dir: &str, faults: &mut Vec<String>) -> (usize, usize) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("{}: {e}", root.display()))
        .map(|e| e.unwrap().path())
        .filter(|f| f.extension().is_some_and(|x| x == "gsk"))
        .collect();
    files.sort();
    let (mut checked, mut explicit) = (0, 0);
    for f in files {
        let Ok(p) = text::parse(&std::fs::read_to_string(&f).unwrap()) else {
            continue;
        };
        if p.has_explicit_transfers() {
            explicit += 1;
            continue;
        }
        let name = format!("{dir}/{}", f.file_name().unwrap().to_string_lossy());
        check(&name, &p, &Hints::for_program(&p), faults);
        checked += 1;
    }
    (checked, explicit)
}

fn check_cases(cases: Vec<WorkloadCase>, faults: &mut Vec<String>) -> Vec<(String, Bytes)> {
    (cases.into_iter())
        .map(|c| {
            let name = format!("{} {}", c.app, c.dataset);
            let bytes = check(&name, &c.program, &c.hints, faults);
            (name, bytes)
        })
        .collect()
}

/// A seeded random program: 1–3 arrays of one or two dimensions (some
/// temporary), 1–4 kernels of one or two parallel loops and at most one
/// serial loop, and statements (some with `active < 1`) whose indices
/// sum strides 1–4 (some negative) of one or two loops with offsets
/// −3..3. A second term often rides on a serial loop (gapped indices),
/// and a 2-D index often repeats a loop (diagonals); a few are constant
/// or irregular.
fn generated(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = ProgramBuilder::new(format!("generated-{seed}"));
    let arrays: Vec<_> = (0..rng.gen_range(1..=3usize))
        .map(|n| {
            let extents: Vec<usize> = if rng.gen_bool(0.4) {
                vec![rng.gen_range(3..=12usize), rng.gen_range(3..=12usize)]
            } else {
                vec![rng.gen_range(4..=48usize)]
            };
            let name = format!("a{n}");
            let id = if rng.gen_bool(0.2) {
                p.temporary_array(name, ElemType::F32, &extents)
            } else {
                p.array(name, ElemType::F32, &extents)
            };
            (id, extents.len())
        })
        .collect();
    for ki in 0..rng.gen_range(1..=4usize) {
        let mut k = p.kernel(format!("k{ki}"));
        let mut loops: Vec<LoopId> = (0..rng.gen_range(1..=2usize))
            .map(|l| k.parallel_loop(format!("p{l}"), rng.gen_range(1..=12u64)))
            .collect();
        let serial = rng
            .gen_bool(0.4)
            .then(|| k.serial_loop("s", rng.gen_range(1..=4u64)));
        loops.extend(serial);
        for _ in 0..rng.gen_range(1..=3usize) {
            let mut s = k.statement();
            if rng.gen_bool(0.2) {
                s = s.active(0.5);
            }
            for _ in 0..rng.gen_range(1..=4usize) {
                let (array, ndims) = arrays[rng.gen_range(0..arrays.len())];
                let mut last = None;
                let index: Vec<IndexExpr> = (0..ndims)
                    .map(|_| {
                        if rng.gen_bool(0.05) {
                            return irr();
                        }
                        if rng.gen_bool(0.08) {
                            return IndexExpr::Affine(cst(rng.gen_range(-3..=12i64)));
                        }
                        let l = match last {
                            Some(l) if rng.gen_bool(0.3) => l,
                            _ => loops[rng.gen_range(0..loops.len())],
                        };
                        last = Some(l);
                        let sign = if rng.gen_bool(0.1) { -1 } else { 1 };
                        let mut e: AffineExpr = idx(l) * (sign * rng.gen_range(1..=4i64));
                        if rng.gen_bool(0.3) {
                            let second = serial.unwrap_or(loops[rng.gen_range(0..loops.len())]);
                            e = e + idx(second) * rng.gen_range(1..=2i64);
                        }
                        IndexExpr::Affine(e + rng.gen_range(-3..=3i64))
                    })
                    .collect();
                s = if rng.gen_bool(0.5) {
                    s.read_ix(array, &index)
                } else {
                    s.write_ix(array, &index)
                };
            }
            s.finish();
        }
        k.finish();
    }
    p.build().expect("generated program validates")
}

fn check_generated(seeds: std::ops::Range<u64>, faults: &mut Vec<String>) {
    for seed in seeds {
        let p = generated(seed);
        check(
            &format!("generated seed {seed}"),
            &p,
            &Hints::for_program(&p),
            faults,
        );
    }
}

fn assert_no_faults(faults: &[String]) {
    assert!(
        faults.is_empty(),
        "{} broken rule(s):\n{}",
        faults.len(),
        faults.join("\n")
    );
}

#[test]
fn transfer_fixtures_keep_the_rules() {
    let mut faults = Vec::new();
    let (checked, _) = check_dir("fixtures/transfer", &mut faults);
    assert!(checked >= 6, "only {checked} fixtures checked");
    assert_no_faults(&faults);
}

#[test]
fn bad_fixtures_keep_the_rules() {
    let mut faults = Vec::new();
    let (checked, explicit) = check_dir("fixtures/bad", &mut faults);
    println!("fixtures/bad: {checked} checked, {explicit} with an explicit schedule skipped");
    assert!(
        checked > 0 && explicit > 0,
        "{checked} checked, {explicit} skipped"
    );
    assert_no_faults(&faults);
}

#[test]
fn small_paper_cases_keep_the_rules() {
    let mut faults = Vec::new();
    let cases = vec![
        Cfd { nel: 97 }.case(),
        HotSpot { n: 16 }.case(),
        Srad { n: 16 }.case(),
        Stassuij::paper().case(),
    ];
    check_cases(cases, &mut faults);
    assert_no_faults(&faults);
}

#[test]
fn generated_programs_keep_the_rules() {
    let mut faults = Vec::new();
    check_generated(0..512, &mut faults);
    assert_no_faults(&faults);
}

/// The committed skeletons, the ten paper cases at full size and 4096
/// generated programs. Slow in a debug build; `ci.sh` runs it in release.
#[test]
#[ignore]
fn full_size_inputs_keep_the_rules() {
    let mut faults = Vec::new();
    let (checked, _) = check_dir("skeletons", &mut faults);
    assert!(checked > 0);
    let table = check_cases(paper_cases(), &mut faults);
    println!("| Case | h2d plan / truth | d2h plan / truth |\n|---|---|---|");
    for (name, b) in &table {
        println!(
            "| {name} | {} | {} |",
            ratio(b.plan_h2d, b.truth_h2d),
            ratio(b.plan_d2h, b.truth_d2h)
        );
    }
    check_generated(0..4096, &mut faults);
    assert_no_faults(&faults);
}
