//! Property tests for the linter.
//!
//! 1. *Soundness of the error level*: builder-generated programs that are
//!    correct by construction (in-bounds indices, injective writes,
//!    disjoint read/write arrays) never produce error-severity
//!    diagnostics.
//! 2. *Totality*: the linter never panics, even on adversarial (but
//!    structurally valid) random programs, and is deterministic.
//! 3. *Agreement with the plan*: every byte a transfer-plan lint quotes
//!    is the data-usage analyzer's.

use gpp_datausage::plan::human_bytes;
use gpp_datausage::{analyze, Hints};
use gpp_lint::{lint_program, lint_source, Code, Diagnostic, LintConfig, Severity};
use gpp_skeleton::builder::ProgramBuilder;
use gpp_skeleton::expr::AffineExpr;
use gpp_skeleton::{ElemType, Flops, IndexExpr, Program};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum ReadIx {
    Var,
    VarPlusOne,
    Scaled3,
    Const5,
    Irregular,
    Bounded(u32),
}

/// Programs that are correct by construction: reads stay in bounds
/// (trips ≤ 8 with offsets ≤ +1 and scale 3 against extent 64), every
/// statement writes a fresh output array indexed by exactly the parallel
/// loops (injective), and read-only inputs are disjoint from outputs.
fn well_formed() -> impl Strategy<Value = Program> {
    let read_ix = prop_oneof![
        Just(ReadIx::Var),
        Just(ReadIx::VarPlusOne),
        Just(ReadIx::Scaled3),
        Just(ReadIx::Const5),
        Just(ReadIx::Irregular),
        Just(ReadIx::Bounded(7)),
    ];
    (
        prop::collection::vec((1usize..3, any::<bool>()), 1..3), // inputs: ndims, sparse
        prop::collection::vec(
            (
                1usize..3, // parallel loops
                0usize..2, // serial loops
                prop::collection::vec(
                    (prop::collection::vec(read_ix.clone(), 0..3), 0u32..5),
                    1..3,
                ), // statements: read kinds + flops
            ),
            1..3,
        ),
    )
        .prop_map(|(inputs, kernels)| {
            let mut p = ProgramBuilder::new("well-formed");
            let ins: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(n, (nd, sparse))| {
                    let extents = vec![64usize; *nd];
                    if *sparse {
                        p.sparse_array(format!("in{n}"), ElemType::F32, &extents)
                    } else {
                        p.array(format!("in{n}"), ElemType::F32, &extents)
                    }
                })
                .collect();
            let in_dims: Vec<usize> = inputs.iter().map(|(nd, _)| *nd).collect();
            // Outputs are created up front, one per (kernel, statement).
            let mut outs = Vec::new();
            for (ki, (npar, _, stmts)) in kernels.iter().enumerate() {
                for si in 0..stmts.len() {
                    outs.push(p.array(
                        format!("out{ki}_{si}"),
                        ElemType::F32,
                        &vec![64usize; *npar],
                    ));
                }
            }
            let mut out_iter = outs.into_iter();
            for (ki, (npar, nser, stmts)) in kernels.into_iter().enumerate() {
                let mut k = p.kernel(format!("k{ki}"));
                let mut par = Vec::new();
                let mut all = Vec::new();
                for l in 0..npar {
                    let id = k.parallel_loop(format!("p{l}"), 8);
                    par.push(id);
                    all.push(id);
                }
                for l in 0..nser {
                    all.push(k.serial_loop(format!("s{l}"), 4));
                }
                for (reads, flops) in stmts {
                    let mut s = k.statement().flops(Flops {
                        adds: flops,
                        ..Flops::default()
                    });
                    for (ri, kind) in reads.into_iter().enumerate() {
                        let arr = ins[ri % ins.len()];
                        let nd = in_dims[ri % ins.len()];
                        let ix: Vec<IndexExpr> = (0..nd)
                            .map(|d| {
                                let lid = all[d % all.len()];
                                match kind {
                                    ReadIx::Var => IndexExpr::Affine(AffineExpr::var(lid)),
                                    ReadIx::VarPlusOne => {
                                        IndexExpr::Affine(AffineExpr::var(lid) + 1)
                                    }
                                    ReadIx::Scaled3 => {
                                        IndexExpr::Affine(AffineExpr::scaled(lid, 3, 0))
                                    }
                                    ReadIx::Const5 => IndexExpr::Affine(AffineExpr::constant(5)),
                                    ReadIx::Irregular => IndexExpr::Irregular,
                                    ReadIx::Bounded(sp) => IndexExpr::IrregularBounded(sp),
                                }
                            })
                            .collect();
                        s = s.read_ix(arr, &ix);
                    }
                    let out = out_iter.next().unwrap();
                    let widx: Vec<IndexExpr> = par
                        .iter()
                        .map(|&l| IndexExpr::Affine(AffineExpr::var(l)))
                        .collect();
                    s.write_ix(out, &widx).finish();
                }
                k.finish();
            }
            p.build().expect("well-formed program validates")
        })
}

/// Adversarial but structurally valid programs: arbitrary offsets,
/// scales, shared arrays, irregular writes — everything the passes must
/// survive.
fn any_program() -> impl Strategy<Value = Program> {
    let index = prop_oneof![
        Just(ReadIx::Var),
        Just(ReadIx::VarPlusOne),
        Just(ReadIx::Scaled3),
        Just(ReadIx::Const5),
        Just(ReadIx::Irregular),
        Just(ReadIx::Bounded(7)),
    ];
    (
        prop::collection::vec((1usize..3, any::<bool>(), any::<bool>()), 1..4),
        prop::collection::vec(
            (
                1usize..3,
                0usize..2,
                prop::collection::vec(
                    (
                        prop::collection::vec((index.clone(), any::<bool>(), -2i64..3), 1..4),
                        0u32..9,
                    ),
                    1..3,
                ),
            ),
            1..3,
        ),
    )
        .prop_map(|(arrays, kernels)| {
            let mut p = ProgramBuilder::new("adversarial");
            let ids: Vec<_> = arrays
                .iter()
                .enumerate()
                .map(|(n, (nd, sparse, temp))| {
                    let extents = vec![32usize; *nd];
                    if *sparse {
                        p.sparse_array(format!("a{n}"), ElemType::F64, &extents)
                    } else if *temp {
                        p.temporary_array(format!("a{n}"), ElemType::F64, &extents)
                    } else {
                        p.array(format!("a{n}"), ElemType::F64, &extents)
                    }
                })
                .collect();
            let dims: Vec<usize> = arrays.iter().map(|(nd, _, _)| *nd).collect();
            for (ki, (npar, nser, stmts)) in kernels.into_iter().enumerate() {
                let mut k = p.kernel(format!("k{ki}"));
                let mut loops = Vec::new();
                for l in 0..npar {
                    loops.push(k.parallel_loop(format!("p{l}"), 16));
                }
                for l in 0..nser {
                    loops.push(k.serial_loop(format!("s{l}"), 4));
                }
                for (refs, flops) in stmts {
                    let mut s = k.statement().flops(Flops {
                        muls: flops,
                        ..Flops::default()
                    });
                    for (ri, (kind, is_write, off)) in refs.into_iter().enumerate() {
                        let arr = ids[ri % ids.len()];
                        let nd = dims[ri % ids.len()];
                        let ix: Vec<IndexExpr> = (0..nd)
                            .map(|d| {
                                let lid = loops[d % loops.len()];
                                match kind {
                                    ReadIx::Var => IndexExpr::Affine(AffineExpr::var(lid) + off),
                                    ReadIx::VarPlusOne => {
                                        IndexExpr::Affine(AffineExpr::var(lid) + 1)
                                    }
                                    ReadIx::Scaled3 => {
                                        IndexExpr::Affine(AffineExpr::scaled(lid, 3, off))
                                    }
                                    ReadIx::Const5 => IndexExpr::Affine(AffineExpr::constant(5)),
                                    ReadIx::Irregular => IndexExpr::Irregular,
                                    ReadIx::Bounded(sp) => IndexExpr::IrregularBounded(sp),
                                }
                            })
                            .collect();
                        s = if is_write {
                            s.write_ix(arr, &ix)
                        } else {
                            s.read_ix(arr, &ix)
                        };
                    }
                    s.finish();
                }
                k.finish();
            }
            p.build().expect("structurally valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Programs correct by construction never lint at error level.
    #[test]
    fn well_formed_programs_have_no_errors(p in well_formed()) {
        let diags = lint_program(&p, None, &Hints::for_program(&p));
        prop_assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "spurious errors: {:?}",
            diags.iter().filter(|d| d.severity == Severity::Error).collect::<Vec<_>>()
        );
    }

    /// The linter is total and deterministic over adversarial programs,
    /// and agrees with itself through the text roundtrip.
    #[test]
    fn linter_never_panics_and_is_deterministic(p in any_program()) {
        let hints = Hints::for_program(&p);
        let a = lint_program(&p, None, &hints);
        let b = lint_program(&p, None, &hints);
        prop_assert_eq!(&a, &b);
        // Through the text pipeline: same codes (spans differ: text
        // parsing attaches real positions).
        let src = gpp_skeleton::text::to_text(&p);
        let report = lint_source(&src, "roundtrip.gsk", &LintConfig::new());
        let mut codes_mem: Vec<_> = a.iter().map(|d| d.code).collect();
        let mut codes_src: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        codes_mem.sort_unstable();
        codes_src.sort_unstable();
        prop_assert_eq!(codes_mem, codes_src);
    }
}

/// The array a finding names first, in backticks.
fn named_array<'p>(p: &'p Program, d: &Diagnostic) -> &'p gpp_skeleton::ArrayDecl {
    let name = d.message.split('`').nth(1).expect("a named array");
    p.array_by_name(name).expect("a declared array")
}

/// The size a finding quotes after `after`, read back from
/// [`human_bytes`]' text, with how far that text may round it.
fn quoted_bytes(d: &Diagnostic, after: &str) -> (f64, f64) {
    let at = d.message.find(after).expect("a quoted size") + after.len();
    let mut words = d.message[at..].split(' ');
    let n: f64 = words.next().unwrap().parse().unwrap();
    let scale = match words.next().unwrap() {
        "B" => return (n, 0.0),
        "KB" => 1024.0,
        "MB" => 1024.0 * 1024.0,
        unit => panic!("unit `{unit}`"),
    };
    (n * scale, 0.05 * scale)
}

/// Checks GPP006 and GPP007 on `p` against the plan `analyze` derives.
fn lints_quote_the_plan(p: &Program) {
    let hints = Hints::for_program(p);
    let plan = analyze(p, &hints);
    for d in lint_program(p, None, &hints) {
        match d.code {
            // The hint's saving: what the plan copies back, less what it
            // copies back with the array temporary.
            Code::MissingTemporary => {
                let id = named_array(p, &d).id;
                let hinted = analyze(p, &hints.clone().temporary(id));
                let saved = plan.d2h_bytes() - hinted.d2h_bytes();
                let want = format!("drop {} of", human_bytes(saved));
                assert!(d.message.contains(&want), "{want:?} in {}", d.message);
            }
            // At most what the plan uploads of the array.
            Code::RedundantH2d => {
                let id = named_array(p, &d).id;
                let (bytes, slack) = quoted_bytes(&d, "schedules ");
                let shipped: u64 = plan
                    .h2d
                    .iter()
                    .filter(|t| t.array == id)
                    .map(|t| t.bytes)
                    .sum();
                assert!(
                    bytes <= shipped as f64 + slack,
                    "{} vs {shipped} B",
                    d.message
                );
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every byte GPP006 and GPP007 quote is the plan's.
    #[test]
    fn transfer_lints_quote_the_plans_bytes(wf in well_formed(), adv in any_program()) {
        lints_quote_the_plan(&wf);
        lints_quote_the_plan(&adv);
    }
}

/// `prep` writes only the first half of `coeff`; `update` reads that half.
const HALF_COEFF: &str = "\
program p
array img f32 [256]
array coeff f32 [256]
kernel prep
  parallel i 128
  stmt
    read  img [i]
    write coeff [i]
kernel update
  parallel i 128
  stmt
    read  coeff [i]
    read  img [i]
    write img [i]
";

/// Parses `.gsk` text and lints it without spans.
fn lint_text(src: &str) -> (Program, Vec<Diagnostic>) {
    let p = gpp_skeleton::text::parse(src).unwrap();
    let d = lint_program(&p, None, &Hints::for_program(&p));
    (p, d)
}

#[test]
fn missing_temporary_quotes_the_plans_copy_back() {
    let (p, d) = lint_text(HALF_COEFF);
    let coeff = p.array_by_name("coeff").unwrap().id;
    let plan = analyze(&p, &Hints::new());
    let back = plan.d2h.iter().find(|t| t.array == coeff).unwrap();
    assert_eq!(back.bytes, 512);
    let hint: Vec<_> = d
        .iter()
        .filter(|d| d.code == Code::MissingTemporary)
        .collect();
    assert_eq!(hint.len(), 1, "{d:?}");
    assert!(
        hint[0].message.contains("drop 512 B"),
        "{}",
        hint[0].message
    );
}

#[test]
fn missing_temporary_is_silent_while_a_read_is_not_certainly_written() {
    // `update` reads all of `coeff`, half of which no kernel writes: as a
    // temporary, that half would be read uninitialized (GPP002).
    let src = HALF_COEFF.replace("update\n  parallel i 128", "update\n  parallel i 256");
    let (_, d) = lint_text(&src);
    assert!(d.iter().all(|d| d.code != Code::MissingTemporary), "{d:?}");
    let (_, d) =
        lint_text(&src.replace("array coeff f32 [256]", "array coeff f32 [256] temporary"));
    assert!(d.iter().any(|d| d.code == Code::UninitializedRead), "{d:?}");
}

#[test]
fn missing_temporary_is_silent_under_an_explicit_schedule() {
    // The schedule is priced as written: a hint saves nothing.
    let src = HALF_COEFF.replace("kernel prep", "h2d img\nkernel prep") + "d2h img\nd2h coeff\n";
    let (p, d) = lint_text(&src);
    let coeff = p.array_by_name("coeff").unwrap().id;
    let hinted = analyze(&p, &Hints::new().temporary(coeff));
    assert_eq!(hinted.d2h_bytes(), analyze(&p, &Hints::new()).d2h_bytes());
    assert!(d.iter().all(|d| d.code != Code::MissingTemporary), "{d:?}");
}

/// Where [`lint_findings_on_generated_programs_match_the_golden`] keeps
/// its findings.
const LINT_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../fixtures/goldens/lint_generated.txt"
);

/// The findings on a fixed-seed sample of generated programs, pinned byte
/// for byte as JSON, one line per program. Each program is linted through
/// its `.gsk` text, so findings carry their spans and fix-its. A change
/// to how a pass computes must leave every line as it is.
///
/// Regenerate (only for a deliberate change to findings) with:
///
/// ```text
/// GPP_BLESS=1 cargo test -p gpp-lint --test proptests lint_findings
/// ```
#[test]
fn lint_findings_on_generated_programs_match_the_golden() {
    fn lines(family: &str, strategy: impl Strategy<Value = Program>, out: &mut String) {
        let mut rng = proptest::TestRng::new(2013);
        for n in 0..150 {
            let src = gpp_skeleton::text::to_text(&strategy.generate(&mut rng));
            let report = lint_source(&src, &format!("{family}{n}.gsk"), &LintConfig::new());
            out.push_str(&gpp_lint::render_json(&report));
            out.push('\n');
        }
    }
    let mut actual = String::new();
    lines("well_formed", well_formed(), &mut actual);
    lines("any_program", any_program(), &mut actual);
    if std::env::var_os("GPP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(LINT_GOLDEN, &actual).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(LINT_GOLDEN).expect("read the golden file");
    let (golden, actual): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), actual.lines().collect());
    assert_eq!(golden.len(), actual.len(), "line count");
    for (want, got) in golden.iter().zip(&actual) {
        assert_eq!(got, want, "lint findings changed");
    }
}
