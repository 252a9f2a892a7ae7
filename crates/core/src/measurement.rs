//! "Real" measurements on the simulated node.
//!
//! Implements the paper's measurement protocol (§IV-A): the GPU
//! implementation uses the optimization strategies GROPHECY suggested
//! (via [`crate::lowering`]), employs pinned memory for transfers, and
//! every reported time is the arithmetic mean of ten separate runs. The
//! CPU baseline is the OpenMP implementation of the same region (its
//! timing model lives in `gpp-cpu-sim`).

use crate::lowering::lower_kernel;
use crate::machine::SimulatedNode;
use crate::projector::AppProjection;
use gpp_cpu_sim::WorkEstimate;
use gpp_datausage::{Dataflow, Transfer, TransferDir};
use gpp_pcie::{Bus, Direction, MemType};
use gpp_skeleton::{AccessKind, Program};

/// Measured (simulated-hardware) times for one application + data size.
#[derive(Debug, Clone)]
pub struct AppMeasurement {
    /// Mean measured time per kernel, in program order, seconds.
    pub kernel_times: Vec<(String, f64)>,
    /// Σ kernel times (one iteration).
    pub kernel_time: f64,
    /// Mean measured time per transfer, parallel to the plan's `all()`
    /// order.
    pub transfer_times: Vec<(Transfer, f64)>,
    /// Σ transfer times.
    pub transfer_time: f64,
    /// Measured CPU time of the same region (one iteration).
    pub cpu_time: f64,
}

impl AppMeasurement {
    /// Total measured GPU time for `iters` iterations.
    pub fn total_time(&self, iters: u32) -> f64 {
        self.kernel_time * iters as f64 + self.transfer_time
    }

    /// Measured CPU time for `iters` iterations.
    pub fn cpu_total(&self, iters: u32) -> f64 {
        self.cpu_time * iters as f64
    }

    /// Measured GPU speedup for `iters` iterations.
    pub fn speedup(&self, iters: u32) -> f64 {
        self.cpu_total(iters) / self.total_time(iters)
    }

    /// Fraction of one-iteration GPU time spent transferring — Table I's
    /// "Percent Transfer" column.
    pub fn percent_transfer(&self) -> f64 {
        100.0 * self.transfer_time / (self.kernel_time + self.transfer_time)
    }
}

/// The number of runs each measurement averages (§IV-A).
pub const MEASUREMENT_RUNS: u32 = 10;

/// Measures an application on the node, using the projection's chosen
/// per-kernel transformations (the paper's hand-port methodology).
pub fn measure(
    node: &mut SimulatedNode,
    program: &Program,
    projection: &AppProjection,
) -> AppMeasurement {
    assert_eq!(
        projection.kernels.len(),
        program.kernels.len(),
        "projection does not match program"
    );
    // Reality check before timing anything: the working set must fit in
    // device memory, exactly as the real port's cudaMalloc calls would
    // demand.
    let device_bytes = program.total_array_bytes();
    assert!(
        device_bytes <= node.gpu.device().dram_bytes,
        "working set ({device_bytes} B) exceeds device memory ({} B) on {}",
        node.gpu.device().dram_bytes,
        node.gpu.device().name
    );

    // Kernels: mean of ten launches each, at GROPHECY's suggested config.
    let mut kernel_times = Vec::with_capacity(program.kernels.len());
    for (kernel, proj) in program.kernels.iter().zip(&projection.kernels) {
        let instance = lower_kernel(kernel, program, proj.config);
        let t = node.gpu.mean_time(&instance, MEASUREMENT_RUNS);
        kernel_times.push((kernel.name.clone(), t));
    }
    let kernel_time = kernel_times.iter().map(|(_, t)| t).sum();

    // Transfers: pinned memory, mean of ten runs each.
    let mut transfer_times = Vec::with_capacity(projection.plan.transfer_count());
    for t in projection.plan.all() {
        let dir = match t.dir {
            TransferDir::ToDevice => Direction::HostToDevice,
            TransferDir::FromDevice => Direction::DeviceToHost,
        };
        let mean: f64 = (0..MEASUREMENT_RUNS)
            .map(|_| node.bus.transfer(t.bytes, dir, MemType::Pinned))
            .sum::<f64>()
            / MEASUREMENT_RUNS as f64;
        transfer_times.push((t.clone(), mean));
    }
    let transfer_time = transfer_times.iter().map(|(_, t)| t).sum();

    let cpu_time = node.cpu.region_time(&cpu_work(program));

    AppMeasurement {
        kernel_times,
        kernel_time,
        transfer_times,
        transfer_time,
        cpu_time,
    }
}

/// Derives the CPU-side work estimate of the ported region: total flops,
/// and DRAM traffic equal to the unique bytes each kernel sweep touches
/// (arrays larger than cache are streamed once per kernel).
pub fn cpu_work(program: &Program) -> WorkEstimate {
    let mut flops = 0.0;
    let mut bytes = 0.0;
    let mut working_set = 0u64;
    let mut random_lines = 0.0;
    let flow = Dataflow::new(program);
    for (ki, kernel) in program.kernels.iter().enumerate() {
        // CPU issue cost: every flop and every memory reference occupies a
        // slot (the E5405 retires loads and arithmetic from the same
        // narrow pipeline on these scalar-ish codes).
        let iters_k = kernel.total_iterations() as f64;
        for stmt in &kernel.statements {
            flops += (stmt.flops.total() as f64 + stmt.refs.len() as f64)
                * iters_k
                * stmt.active_fraction
                * kernel.cpu_compute_scale;
        }
        let mut touched = 0u64;
        for kind in [AccessKind::Read, AccessKind::Write] {
            for (array, set) in flow.kernel_sets(ki, kind) {
                let decl = program.array(array);
                touched += set.byte_count(decl.elem.bytes()).min(decl.byte_count());
            }
        }
        bytes += touched as f64;
        working_set = working_set.max(touched);
        // Fully data-dependent gathers miss the cache on the CPU too: one
        // random line per irregular reference execution. Bounded-irregular
        // refs (mesh-local gathers) stay cache-resident and are excluded.
        for stmt in &kernel.statements {
            let irregular_refs = stmt
                .refs
                .iter()
                .filter(|r| {
                    r.index
                        .iter()
                        .any(|ix| matches!(ix, gpp_skeleton::IndexExpr::Irregular))
                })
                .count() as f64;
            random_lines += irregular_refs * iters_k * stmt.active_fraction;
        }
    }
    WorkEstimate {
        flops,
        dram_bytes: bytes,
        working_set,
        random_lines,
        invocations: program.kernels.len() as u32,
        parallel_fraction: 0.995,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::projector::Grophecy;
    use gpp_datausage::Hints;
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops};

    fn vadd(n: usize) -> Program {
        let mut p = ProgramBuilder::new("vadd");
        let a = p.array("a", ElemType::F32, &[n]);
        let b = p.array("b", ElemType::F32, &[n]);
        let c = p.array("c", ElemType::F32, &[n]);
        let mut k = p.kernel("add");
        let i = k.parallel_loop("i", n as u64);
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

    fn setup(n: usize) -> (SimulatedNode, Program, AppProjection) {
        let machine = MachineConfig::anl_eureka_node(11);
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        let program = vadd(n);
        let proj = gro.project(&program, &Hints::new());
        (node, program, proj)
    }

    #[test]
    fn measurement_has_all_parts() {
        let (mut node, program, proj) = setup(1 << 22);
        let m = measure(&mut node, &program, &proj);
        assert_eq!(m.kernel_times.len(), 1);
        assert_eq!(m.transfer_times.len(), 3);
        assert!(m.kernel_time > 0.0 && m.transfer_time > 0.0 && m.cpu_time > 0.0);
    }

    #[test]
    fn vector_add_gpu_loses_end_to_end() {
        // §II-B: "the CPU will actually complete the entire vector
        // addition about 10x faster than the GPU" (once transfers count).
        let (mut node, program, proj) = setup(1 << 24);
        let m = measure(&mut node, &program, &proj);
        assert!(m.speedup(1) < 1.0, "speedup {}", m.speedup(1));
        // But kernel-vs-CPU alone looks like a win.
        assert!(m.cpu_time / m.kernel_time > 1.0);
        assert!(m.percent_transfer() > 60.0);
    }

    #[test]
    fn prediction_tracks_measurement_within_paper_error() {
        let (mut node, program, proj) = setup(1 << 22);
        let m = measure(&mut node, &program, &proj);
        let kerr = (proj.kernel_time - m.kernel_time).abs() / m.kernel_time;
        let terr = (proj.transfer_time - m.transfer_time).abs() / m.transfer_time;
        assert!(kerr < 0.40, "kernel error {kerr}");
        assert!(terr < 0.15, "transfer error {terr}");
    }

    #[test]
    fn cpu_work_accounts_all_kernels() {
        let program = vadd(1 << 20);
        let w = cpu_work(&program);
        // 1 flop + 3 memory references per element.
        assert_eq!(w.flops, (1 << 20) as f64 * 4.0);
        assert_eq!(w.dram_bytes, (1 << 20) as f64 * 12.0);
        assert_eq!(w.invocations, 1);
        assert_eq!(w.random_lines, 0.0);
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let (mut n1, p1, pr1) = setup(1 << 20);
        let (mut n2, p2, pr2) = setup(1 << 20);
        let m1 = measure(&mut n1, &p1, &pr1);
        let m2 = measure(&mut n2, &p2, &pr2);
        assert_eq!(m1.kernel_time, m2.kernel_time);
        assert_eq!(m1.transfer_time, m2.transfer_time);
    }
}
