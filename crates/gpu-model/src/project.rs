//! The analytic kernel-time projection.
//!
//! For a synthesized (transformed) kernel the model computes three
//! throughput bounds and takes the maximum — an MWP/CWP-style analysis in
//! the spirit of Hong & Kim (ISCA'09), which GROPHECY's internal GPU model
//! follows:
//!
//! * compute: total warp-instructions through the device's issue width,
//! * memory: total DRAM traffic through the (derated) datasheet bandwidth,
//! * latency: if too few warps are resident to hide the assumed load
//!   latency, the SM idles between completions.
//!
//! **Known, deliberate approximations** (the error the paper measures):
//! blocks per SM are treated as a continuous average (no wave
//! quantization/tail), launch overhead uses the documented figure rather
//! than the machine's true one, and one uniform bandwidth derate is
//! applied regardless of access pattern (real scattered traffic runs
//! slower — the dominant CFD error).

use crate::occupancy::ModelOccupancy;
use crate::spec::GpuSpec;
use crate::transform::{
    candidate_space, synthesize_transformed, CharsKey, SynthesizedKernel, Transformation,
};
use gpp_skeleton::KernelCharacteristics;

/// Pipeline-drain cost of one `__syncthreads()`, in cycles.
pub(crate) const BARRIER_CYCLES: f64 = 24.0;

/// Which analytic bound dominated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionBound {
    /// Instruction issue throughput.
    Compute,
    /// DRAM bandwidth.
    Memory,
    /// Exposed latency (low occupancy).
    Latency,
}

impl std::fmt::Display for ProjectionBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProjectionBound::Compute => write!(f, "compute"),
            ProjectionBound::Memory => write!(f, "memory"),
            ProjectionBound::Latency => write!(f, "latency"),
        }
    }
}

/// The projection for one candidate transformation.
#[derive(Debug, Clone)]
pub struct KernelProjection {
    /// Kernel name.
    pub name: String,
    /// The transformation this projection assumes.
    pub config: Transformation,
    /// Projected execution time, seconds.
    pub time: f64,
    /// Dominating bound.
    pub bound: ProjectionBound,
    /// Projected occupancy.
    pub occupancy: ModelOccupancy,
    /// Projected DRAM traffic, bytes.
    pub dram_bytes: f64,
}

/// The name-free evaluation of one candidate.
#[derive(Debug, Clone, Copy)]
struct Eval {
    time: f64,
    bound: ProjectionBound,
    occupancy: ModelOccupancy,
    dram_bytes: f64,
}

/// Projects the execution time of one synthesized kernel.
///
/// Returns `None` if the configuration cannot run (occupancy = 0).
pub fn project(name: &str, spec: &GpuSpec, kernel: &SynthesizedKernel) -> Option<KernelProjection> {
    let ev = project_inner(spec, kernel)?;
    Some(KernelProjection {
        name: name.to_string(),
        config: kernel.config,
        time: ev.time,
        bound: ev.bound,
        occupancy: ev.occupancy,
        dram_bytes: ev.dram_bytes,
    })
}

fn project_inner(spec: &GpuSpec, kernel: &SynthesizedKernel) -> Option<Eval> {
    let occ = ModelOccupancy::compute(spec, kernel)?;
    let cpi = spec.cycles_per_warp_inst();
    let warp_size = spec.warp_size as f64;
    let total_warps = (kernel.threads as f64 / warp_size).ceil();

    // Per-warp issue cycles: arithmetic + staged shared accesses, with the
    // average divergence penalty, plus barrier drains.
    let divergence = 1.0 / kernel.active_fraction.clamp(1e-6, 1.0);
    let warp_cycles = (kernel.compute_slots + kernel.shared_accesses) * cpi * divergence
        + kernel.syncs as f64 * BARRIER_CYCLES;

    // Bound 1: compute. All warps through all SMs' issue pipes.
    let compute_time = total_warps * warp_cycles / (spec.sms as f64 * spec.clock_hz);

    // Bound 2: memory. Total traffic through derated datasheet bandwidth.
    let bytes_per_thread = kernel.global_bytes_per_thread(spec);
    let dram_bytes = kernel.threads as f64 * bytes_per_thread;
    let memory_time = dram_bytes / spec.assumed_mem_bw();

    // Bound 3: latency. Each warp's critical path is its memory
    // instructions' latencies plus its compute; `warps_per_sm` warps
    // overlap on an SM.
    let mem_insts = kernel.global_mem_insts();
    let critical_path = mem_insts * spec.mem_latency_cycles + warp_cycles;
    let latency_time =
        total_warps * critical_path / (occ.warps_per_sm as f64 * spec.sms as f64 * spec.clock_hz);

    let exec = compute_time.max(memory_time).max(latency_time);
    let time = exec + spec.launch_overhead;
    let bound = if exec == compute_time && compute_time >= memory_time {
        ProjectionBound::Compute
    } else if exec == memory_time {
        ProjectionBound::Memory
    } else {
        ProjectionBound::Latency
    };

    Some(Eval {
        time,
        bound,
        occupancy: occ,
        dram_bytes,
    })
}

/// Explores the transformation space and returns only the best
/// projection — the hot path (the core projector calls this once per
/// kernel × axis). The search runs on the SoA batch engine with its
/// process-wide search memo; it is bit-identical to [`project_all`]'s best
/// at any thread count.
pub fn project_best(name: &str, chars: &KernelCharacteristics, spec: &GpuSpec) -> KernelProjection {
    project_best_keyed(name, chars, CharsKey::of(chars), spec)
}

/// [`project_best`] for characteristics whose fingerprint is already
/// known: `key` must be `CharsKey::of(chars)`, as
/// [`crate::ProgramChars`] holds it.
pub fn project_best_keyed(
    name: &str,
    chars: &KernelCharacteristics,
    key: CharsKey,
    spec: &GpuSpec,
) -> KernelProjection {
    crate::soa::project_best_soa(name, chars, key, spec)
}

/// Explores the whole transformation space and materializes every
/// candidate for reports, sorted by projected time: "GROPHECY projects
/// the best achievable performance and the transformations necessary to
/// reach that performance". Every candidate is synthesized afresh and
/// evaluated by the scalar roofline, so this is also the oracle the
/// bit-identity suites hold [`project_best`] to; the hot path should call
/// [`project_best`] instead.
pub fn project_all(
    name: &str,
    chars: &KernelCharacteristics,
    spec: &GpuSpec,
) -> (KernelProjection, Vec<KernelProjection>) {
    let candidates = candidate_space(chars, spec);
    let evals: Vec<Option<Eval>> = gpp_par::par_map(candidates.len(), |i| {
        let synth = synthesize_transformed(chars, candidates[i]);
        project_inner(spec, &synth)
    });
    let mut all: Vec<KernelProjection> = candidates
        .iter()
        .zip(evals)
        .filter_map(|(config, ev)| {
            let ev = ev?;
            Some(KernelProjection {
                name: name.to_string(),
                config: *config,
                time: ev.time,
                bound: ev.bound,
                occupancy: ev.occupancy,
                dram_bytes: ev.dram_bytes,
            })
        })
        .collect();
    assert!(
        !all.is_empty(),
        "no runnable transformation for kernel `{name}` — block sizes exhausted"
    );
    all.sort_by(|a, b| a.time.total_cmp(&b.time));
    (all[0].clone(), all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops, Program};

    fn vadd_program(n: u64) -> Program {
        let mut p = ProgramBuilder::new("vadd");
        let a = p.array("a", ElemType::F32, &[n as usize]);
        let b = p.array("b", ElemType::F32, &[n as usize]);
        let c = p.array("c", ElemType::F32, &[n as usize]);
        let mut k = p.kernel("add");
        let i = k.parallel_loop("i", n);
        k.statement()
            .read(a, &[idx(i)])
            .read(b, &[idx(i)])
            .write(c, &[idx(i)])
            .flops(Flops {
                adds: 1,
                ..Flops::default()
            })
            .finish();
        k.finish();
        p.build().unwrap()
    }

    fn stencil_program(n: usize) -> Program {
        let mut p = ProgramBuilder::new("stencil");
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
                adds: 10,
                muls: 4,
                ..Flops::default()
            })
            .finish();
        k.finish();
        p.build().unwrap()
    }

    #[test]
    fn vadd_projection_is_memory_bound_at_datasheet_bandwidth() {
        let prog = vadd_program(1 << 24);
        let chars = prog.kernels[0].characteristics(&prog);
        let spec = GpuSpec::quadro_fx_5600();
        let (best, all) = project_all("add", &chars, &spec);
        assert_eq!(best.bound, ProjectionBound::Memory);
        // 16M threads × 12 B / (76.8 GB/s × 0.85) ≈ 3.08 ms + launch.
        let expect = (1u64 << 24) as f64 * 12.0 / (76.8e9 * 0.80) + spec.launch_overhead;
        assert!(
            (best.time / expect - 1.0).abs() < 0.01,
            "{} vs {}",
            best.time,
            expect
        );
        assert!(all.len() > 3);
    }

    #[test]
    fn stencil_projection_prefers_shared_memory() {
        let prog = stencil_program(1024);
        let chars = prog.kernels[0].characteristics(&prog);
        let spec = GpuSpec::quadro_fx_5600();
        let (best, all) = project_all("k", &chars, &spec);
        assert!(best.config.use_shared, "best config: {}", best.config);
        // The best projection beats the worst by a meaningful factor.
        let worst = all.last().unwrap();
        assert!(worst.time > best.time * 1.3);
    }

    #[test]
    fn tiny_kernel_candidates_hit_the_latency_wall() {
        // A 2048-element kernel cannot fill the machine: small-block
        // candidates are latency-bound, and the best configuration escapes
        // only by choosing large blocks.
        let prog = vadd_program(2048);
        let chars = prog.kernels[0].characteristics(&prog);
        let spec = GpuSpec::quadro_fx_5600();
        let (best, all) = project_all("add", &chars, &spec);
        assert!(all.iter().any(|p| p.bound == ProjectionBound::Latency));
        assert!(best.config.block_threads >= 256, "best: {}", best.config);
        let worst = all.last().unwrap();
        assert_eq!(worst.bound, ProjectionBound::Latency);
        assert!(worst.time > best.time);
    }

    #[test]
    fn faster_device_projects_faster() {
        let prog = vadd_program(1 << 24);
        let chars = prog.kernels[0].characteristics(&prog);
        let g80 = project_best("add", &chars, &GpuSpec::quadro_fx_5600());
        let gt200 = project_best("add", &chars, &GpuSpec::tesla_c1060());
        assert!(gt200.time < g80.time);
    }

    #[test]
    fn projection_time_scales_with_data() {
        let small = vadd_program(1 << 20);
        let big = vadd_program(1 << 24);
        let spec = GpuSpec::quadro_fx_5600();
        let cs = small.kernels[0].characteristics(&small);
        let cb = big.kernels[0].characteristics(&big);
        let ps = project_best("add", &cs, &spec);
        let pb = project_best("add", &cb, &spec);
        let ratio = pb.time / ps.time;
        assert!((12.0..20.0).contains(&ratio), "ratio {ratio}");
    }
}
