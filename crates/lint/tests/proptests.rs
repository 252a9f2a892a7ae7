//! Property tests for the linter.
//!
//! 1. *Soundness of the error level*: builder-generated programs that are
//!    correct by construction (in-bounds indices, injective writes,
//!    disjoint read/write arrays) never produce error-severity
//!    diagnostics.
//! 2. *Totality*: the linter never panics, even on adversarial (but
//!    structurally valid) random programs, and is deterministic.

use gpp_datausage::Hints;
use gpp_lint::{lint_program, lint_source, LintConfig, Severity};
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
    if std::env::var_os("GPP_BLESS").is_some() {
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
