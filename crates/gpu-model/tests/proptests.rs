//! Property tests for the analytic GPU model.

use gpp_gpu_model::{
    candidate_space, project, project_all, project_best, synthesize_transformed, GpuSpec,
};
use gpp_skeleton::builder::{idx, ProgramBuilder};
use gpp_skeleton::{ElemType, Flops, KernelCharacteristics};
use proptest::prelude::*;

/// A simple parameterized streaming kernel's characteristics.
fn chars(n: u64, loads: u8, flops: u32) -> KernelCharacteristics {
    let mut p = ProgramBuilder::new("t");
    let arrays: Vec<_> = (0..loads.max(1))
        .map(|k| p.array(format!("a{k}"), ElemType::F32, &[n as usize]))
        .collect();
    let out = p.array("out", ElemType::F32, &[n as usize]);
    let mut k = p.kernel("k");
    let i = k.parallel_loop("i", n);
    let mut s = k.statement().flops(Flops {
        adds: flops,
        ..Flops::default()
    });
    for a in &arrays {
        s = s.read(*a, &[idx(i)]);
    }
    s.write(out, &[idx(i)]).finish();
    k.finish();
    let prog = p.build().unwrap();
    prog.kernels[0].characteristics(&prog)
}

/// A 2D stencil kernel's characteristics — reuse groups make the
/// shared-memory staging class real, and a serial-loop override turns on
/// the unroll candidates, so the search space exercises every knob.
fn stencil_chars(n: usize, serial_iters: u64) -> KernelCharacteristics {
    let mut p = ProgramBuilder::new("s");
    let a = p.array("in", ElemType::F32, &[n, n]);
    let b = p.array("out", ElemType::F32, &[n, n]);
    let mut k = p.kernel("k");
    let i = k.parallel_loop("i", (n - 2) as u64);
    let j = k.parallel_loop("j", (n - 2) as u64);
    k.statement()
        .read(a, &[idx(i), idx(j) + 1])
        .read(a, &[idx(i) + 1, idx(j)])
        .read(a, &[idx(i) + 1, idx(j) + 1])
        .read(a, &[idx(i) + 1, idx(j) + 2])
        .read(a, &[idx(i) + 2, idx(j) + 1])
        .write(b, &[idx(i) + 1, idx(j) + 1])
        .flops(Flops {
            adds: 6,
            muls: 4,
            ..Flops::default()
        })
        .finish();
    k.finish();
    let prog = p.build().unwrap();
    KernelCharacteristics {
        serial_iters,
        ..prog.kernels[0].characteristics(&prog)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The best projection is never worse than any candidate.
    #[test]
    fn best_is_minimum(
        n in (1u64 << 12)..(1 << 22),
        loads in 1u8..5,
        flops in 0u32..64,
    ) {
        let c = chars(n, loads, flops);
        let spec = GpuSpec::quadro_fx_5600();
        let (best, all) = project_all("k", &c, &spec);
        prop_assert!(all.iter().all(|p| p.time >= best.time));
        prop_assert!(best.time.is_finite() && best.time > 0.0);
    }

    /// Projection time is monotone in thread count and in work per thread.
    #[test]
    fn projection_monotonicity(
        n in (1u64 << 14)..(1 << 22),
        loads in 1u8..4,
        flops in 0u32..32,
    ) {
        let spec = GpuSpec::quadro_fx_5600();
        let t = |c: &KernelCharacteristics| project_best("k", c, &spec).time;
        let base = t(&chars(n, loads, flops));
        prop_assert!(t(&chars(n * 2, loads, flops)) >= base * 0.99);
        prop_assert!(t(&chars(n, loads + 1, flops)) >= base * 0.99);
        prop_assert!(t(&chars(n, loads, flops + 200)) >= base * 0.99);
    }

    /// Every candidate transformation projects successfully or is
    /// excluded up front — and occupancy never exceeds device limits.
    #[test]
    fn candidates_respect_occupancy(
        n in (1u64 << 12)..(1 << 22),
        loads in 1u8..4,
    ) {
        let c = chars(n, loads, 8);
        let spec = GpuSpec::quadro_fx_5600();
        for config in candidate_space(&c, &spec) {
            let synth = synthesize_transformed(&c, config);
            if let Some(p) = project("k", &spec, &synth) {
                prop_assert!(p.occupancy.blocks_per_sm >= 1);
                prop_assert!(
                    p.occupancy.warps_per_sm * spec.warp_size <= spec.max_threads_per_sm
                );
                prop_assert!(p.dram_bytes >= 0.0);
            }
        }
    }

    /// A strictly better datasheet (more SMs, more bandwidth) never
    /// projects slower.
    #[test]
    fn better_hardware_is_never_slower(
        n in (1u64 << 14)..(1 << 22),
        loads in 1u8..4,
        flops in 0u32..32,
    ) {
        let c = chars(n, loads, flops);
        let base = GpuSpec::quadro_fx_5600();
        let mut better = base.clone();
        better.sms *= 2;
        better.mem_bw *= 2.0;
        let t_base = project_best("k", &c, &base).time;
        let t_better = project_best("k", &c, &better).time;
        prop_assert!(t_better <= t_base * 1.001, "{t_better} > {t_base}");
    }

    /// The SoA batch engine selects the bit-identical projection the
    /// exhaustive oracle does — streaming and stencil kernels at several
    /// thread counts. About half the streaming grids are tiny (fewer
    /// threads than one block), where the candidate space shrinks to the
    /// smallest block size.
    #[test]
    fn soa_search_is_bit_identical_to_scalar(
        n in prop_oneof![1u64..64, (1u64 << 10)..(1 << 22)],
        loads in 1u8..5,
        flops in 0u32..64,
        serial_sel in 0usize..3,
    ) {
        let serial_iters = [1u64, 2, 8][serial_sel];
        let streaming = chars(n, loads, flops);
        let stencil = stencil_chars(256, serial_iters);
        for spec in [GpuSpec::quadro_fx_5600(), GpuSpec::tesla_c1060()] {
            for c in [&streaming, &stencil] {
                let reference = format!("{:?}", project_all("k", c, &spec).0);
                for threads in [1usize, 2, 8] {
                    gpp_par::set_threads(threads);
                    let soa = project_best("k", c, &spec);
                    prop_assert_eq!(&format!("{soa:?}"), &reference, "threads={}", threads);
                }
                gpp_par::set_threads(0);
            }
        }
    }

    /// The projected DRAM traffic of a dense streaming kernel equals the
    /// useful bytes exactly (coalesced, aligned, 4-byte elements).
    #[test]
    fn streaming_traffic_is_exact(
        n in (1u64 << 14)..(1 << 22),
        loads in 1u8..5,
    ) {
        let c = chars(n, loads, 4);
        let spec = GpuSpec::quadro_fx_5600();
        let best = project_best("k", &c, &spec);
        let useful = n as f64 * 4.0 * (loads as f64 + 1.0);
        prop_assert!((best.dram_bytes / useful - 1.0).abs() < 1e-9);
    }
}
