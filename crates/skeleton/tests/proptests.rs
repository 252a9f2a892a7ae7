//! Property tests for the skeleton crate: affine-expression algebra,
//! characteristics invariants, and text-format roundtripping over random
//! programs.

use gpp_skeleton::builder::ProgramBuilder;
use gpp_skeleton::expr::{AffineExpr, LoopId};
use gpp_skeleton::text;
use gpp_skeleton::{ElemType, Flops, IndexExpr, Program, TransferKind};
use proptest::prelude::*;

fn any_elem() -> impl Strategy<Value = ElemType> {
    prop_oneof![
        Just(ElemType::F32),
        Just(ElemType::F64),
        Just(ElemType::I32),
        Just(ElemType::I64),
        Just(ElemType::C64),
        Just(ElemType::C128),
    ]
}

/// A random, structurally valid program exercising every IR feature the
/// text format must carry.
fn any_program() -> impl Strategy<Value = Program> {
    let index = prop_oneof![
        Just(IndexKind::Var),
        Just(IndexKind::VarPlus(1)),
        Just(IndexKind::VarPlus(-2)),
        Just(IndexKind::Scaled(3, 1)),
        Just(IndexKind::Const(5)),
        Just(IndexKind::Irregular),
        Just(IndexKind::Bounded(7)),
    ];
    #[derive(Debug, Clone, Copy)]
    enum IndexKind {
        Var,
        VarPlus(i64),
        Scaled(i64, i64),
        Const(i64),
        Irregular,
        Bounded(u32),
    }
    (
        prop::collection::vec((any_elem(), 1usize..3, any::<bool>()), 1..4), // arrays
        prop::collection::vec(
            (
                1.0f64..4.0, // gpu scale
                0.5f64..1.5, // cpu scale
                1usize..3,   // parallel loops
                0usize..2,   // serial loops
                prop::collection::vec(
                    (
                        prop::collection::vec((index.clone(), any::<bool>()), 1..4),
                        0u32..9,
                    ),
                    1..3,
                ), // statements: refs + flop count
            ),
            1..3,
        ),
    )
        .prop_map(|(arrays, kernels)| {
            let mut p = ProgramBuilder::new("random");
            let ids: Vec<_> = arrays
                .iter()
                .enumerate()
                .map(|(k, (elem, ndims, sparse))| {
                    let extents = vec![32usize; *ndims];
                    if *sparse {
                        p.sparse_array(format!("a{k}"), *elem, &extents)
                    } else {
                        p.array(format!("a{k}"), *elem, &extents)
                    }
                })
                .collect();
            let dims: Vec<usize> = arrays.iter().map(|(_, n, _)| *n).collect();
            for (ki, (gscale, cscale, npar, nser, stmts)) in kernels.into_iter().enumerate() {
                let mut k = p.kernel(format!("k{ki}"));
                k.gpu_compute_scale(gscale);
                k.cpu_compute_scale(cscale);
                let mut loops = Vec::new();
                for l in 0..npar {
                    loops.push(k.parallel_loop(format!("p{l}"), 16));
                }
                for l in 0..nser {
                    loops.push(k.serial_loop(format!("s{l}"), 4));
                }
                for (refs, flops) in stmts {
                    let mut s = k.statement().flops(Flops {
                        adds: flops,
                        muls: flops / 2,
                        divs: flops / 4,
                        ..Flops::default()
                    });
                    for (ri, (kind, is_write)) in refs.into_iter().enumerate() {
                        let arr = ids[ri % ids.len()];
                        let nd = dims[ri % ids.len()];
                        let ix: Vec<IndexExpr> = (0..nd)
                            .map(|d| {
                                let lid = loops[d % loops.len()];
                                match kind {
                                    IndexKind::Var => IndexExpr::Affine(AffineExpr::var(lid)),
                                    IndexKind::VarPlus(o) => {
                                        IndexExpr::Affine(AffineExpr::var(lid) + o)
                                    }
                                    IndexKind::Scaled(c, o) => {
                                        IndexExpr::Affine(AffineExpr::scaled(lid, c, o))
                                    }
                                    IndexKind::Const(c) => {
                                        IndexExpr::Affine(AffineExpr::constant(c))
                                    }
                                    IndexKind::Irregular => IndexExpr::Irregular,
                                    IndexKind::Bounded(sp) => IndexExpr::IrregularBounded(sp),
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
            p.build().expect("random program valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The text format is lossless: parse(to_text(p)) == p.
    #[test]
    fn text_roundtrip_is_identity(p in any_program()) {
        let rendered = text::to_text(&p);
        let reparsed = text::parse(&rendered)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{rendered}")))?;
        prop_assert_eq!(reparsed, p);
    }

    /// Stream/chunk transfer annotations survive
    /// `parse_with_spans` → `to_text` losslessly, every directive gets a
    /// span, and the canonical rendering is a fixed point of the writer.
    #[test]
    fn transfer_annotations_roundtrip_with_spans(
        p in any_program(),
        decls in prop::collection::vec(
            (any::<bool>(), 0usize..3, 0u32..5, 1u32..9),
            1..6,
        ),
    ) {
        let mut p = p;
        let mut pos = 0usize;
        for (h2d, pos_delta, stream, chunks) in decls {
            pos = (pos + pos_delta).min(p.kernels.len());
            let array = p.arrays[(stream as usize + pos) % p.arrays.len()].id;
            let kind = if h2d { TransferKind::HostToDevice } else { TransferKind::DeviceToHost };
            p.transfers.push(gpp_skeleton::TransferDecl { array, kind, pos, stream, chunks });
        }
        let rendered = text::to_text(&p);
        let (reparsed, map) = text::parse_with_spans(&rendered)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{rendered}")))?;
        prop_assert_eq!(&reparsed, &p);
        prop_assert_eq!(map.transfers.len(), p.transfers.len());
        for (i, t) in p.transfers.iter().enumerate() {
            let span = map.transfer_span(i);
            prop_assert!(span.is_real(), "transfer {i} has no span");
            // The spanned text is the whole directive, annotations included.
            let line = rendered.lines().nth(span.line - 1).unwrap();
            prop_assert!(line.starts_with("h2d ") || line.starts_with("d2h "));
            if t.stream != 0 {
                prop_assert!(line.contains(&format!("stream {}", t.stream)), "{line}");
            }
            if t.chunks > 1 {
                prop_assert!(line.contains(&format!("chunks={}", t.chunks)), "{line}");
            }
        }
        prop_assert_eq!(text::to_text(&reparsed), rendered);
    }

    /// Characteristics are internally consistent for any program.
    #[test]
    fn characteristics_invariants(p in any_program()) {
        for k in &p.kernels {
            let c = k.characteristics(&p);
            prop_assert_eq!(c.threads, k.parallel_tasks());
            prop_assert!(c.flops_per_thread >= 0.0);
            prop_assert!(c.weighted_ops_per_thread >= c.flops_per_thread * 0.99
                || k.gpu_compute_scale < 1.0);
            prop_assert!((0.0..=1.0).contains(&c.avg_active_fraction));
            prop_assert!((0.0..=1.0).contains(&c.sharable_load_fraction));
            prop_assert_eq!(c.accesses.len(),
                k.statements.iter().map(|s| s.refs.len()).sum::<usize>());
            for a in &c.accesses {
                prop_assert!(a.per_thread > 0.0);
                prop_assert!(a.elem_bytes >= 4);
            }
        }
    }

    /// Axis variants never change thread counts or byte totals per access
    /// stream — only the coalescing classification.
    #[test]
    fn axis_choice_preserves_work(p in any_program()) {
        for k in &p.kernels {
            let base = k.characteristics(&p);
            for axis in k.axis_candidates() {
                let v = k.characteristics_with_axis(&p, axis);
                prop_assert_eq!(v.threads, base.threads);
                prop_assert_eq!(v.flops_per_thread, base.flops_per_thread);
                let bytes = |c: &gpp_skeleton::KernelCharacteristics| {
                    c.bytes_read_per_thread() + c.bytes_written_per_thread()
                };
                prop_assert!((bytes(&v) - bytes(&base)).abs() < 1e-9);
            }
        }
    }

    /// Affine bounds really bound: evaluating at random loop points never
    /// escapes `bounds()`.
    #[test]
    fn affine_bounds_contain_all_points(
        coeffs in prop::collection::vec(-4i64..5, 1..4),
        offset in -10i64..10,
        trips in prop::collection::vec(1u64..9, 1..4),
        point_seed in 0u64..1000,
    ) {
        let n = coeffs.len().min(trips.len());
        let mut e = AffineExpr::constant(offset);
        for (l, &c) in coeffs.iter().take(n).enumerate() {
            e.add_term(LoopId(l as u32), c);
        }
        let trips = &trips[..n];
        let (lo, hi) = e.bounds(trips);
        // Deterministic pseudo-random point inside the iteration space.
        let mut s = point_seed;
        let point: Vec<i64> = trips
            .iter()
            .map(|&t| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) % t) as i64
            })
            .collect();
        let v = e.eval(&point);
        prop_assert!(v >= lo && v <= hi, "{v} outside [{lo}, {hi}]");
    }
}

/// A random program with one explicit, annotated transfer, so every field
/// the content hash covers is present.
fn any_program_with_transfer() -> impl Strategy<Value = Program> {
    (any_program(), any::<bool>(), 1u32..4, 2u32..6).prop_map(|(mut p, h2d, stream, chunks)| {
        let kind = if h2d {
            TransferKind::HostToDevice
        } else {
            TransferKind::DeviceToHost
        };
        let array = p.arrays[0].id;
        p.transfers.push(gpp_skeleton::TransferDecl {
            array,
            kind,
            pos: 0,
            stream,
            chunks,
        });
        p
    })
}

/// `text` with its layout changed and nothing else: blank lines, a
/// comment, and runs of spaces and tabs between words.
fn reformat(text: &str, style: u8) -> String {
    let mut out = String::from("# reformatted\n");
    for (n, line) in text.lines().enumerate() {
        let words: Vec<&str> = line.split(' ').filter(|w| !w.is_empty()).collect();
        let gap = if (n + usize::from(style)).is_multiple_of(2) {
            "  "
        } else {
            " \t"
        };
        out.push_str(&" ".repeat((style % 3) as usize));
        out.push_str(&words.join(gap));
        out.push_str(if style.is_multiple_of(2) {
            "\n\n"
        } else {
            "  # note\n"
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Programs that render to the same text hash the same, so a
    /// formatting-only variant of a skeleton shares its memo entry.
    #[test]
    fn equal_text_means_equal_content_hash(p in any_program_with_transfer(), style in 0u8..6) {
        let rendered = text::to_text(&p);
        let variant = reformat(&rendered, style);
        let (reparsed, _) = text::parse_with_spans(&variant)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{variant}")))?;
        prop_assert_eq!(text::to_text(&reparsed), rendered);
        prop_assert_eq!(reparsed.content_hash(), p.content_hash());
    }

    /// Changing any one field changes the hash.
    #[test]
    fn each_single_field_mutation_changes_the_content_hash(p in any_program_with_transfer()) {
        type Mutation = fn(&mut Program) -> bool;
        let mutations: [(&str, Mutation); 8] = [
            ("trip", |p| { p.kernels[0].loops[0].trip += 1; true }),
            ("extent", |p| { p.arrays[0].extents[0] += 1; true }),
            ("stream", |p| { p.transfers[0].stream += 1; true }),
            ("chunks", |p| { p.transfers[0].chunks += 1; true }),
            ("active", |p| { p.kernels[0].statements[0].active_fraction = 0.5; true }),
            ("gpu_scale", |p| { p.kernels[0].gpu_compute_scale += 0.5; true }),
            ("index coefficient", |p| {
                let coeff = p.kernels.iter_mut()
                    .flat_map(|k| &mut k.statements)
                    .flat_map(|s| &mut s.refs)
                    .flat_map(|r| &mut r.index)
                    .find_map(|ix| match ix {
                        IndexExpr::Affine(e) => e.terms.first_mut().map(|t| &mut t.1),
                        _ => None,
                    });
                coeff.map(|c| *c += 1).is_some()
            }),
            ("array name", |p| { p.arrays[0].name.push('x'); true }),
        ];
        let hash = p.content_hash();
        for (what, mutate) in mutations {
            let mut q = p.clone();
            if mutate(&mut q) {
                prop_assert_ne!(text::to_text(&q), text::to_text(&p), "{} left the text as it was", what);
                prop_assert_ne!(q.content_hash(), hash, "{} left the hash as it was", what);
            }
        }
    }
}
