//! The GROPHECY++ projector: kernel time + transfer time, from a skeleton.

use crate::machine::{BusSpec, DeviceLink, MachineConfig, RootComplex, SimulatedNode};
use crate::timeline::{MultiGpuProjection, Timeline};
use gpp_datausage::{analyze, Hints, TransferDir, TransferPlan};
use gpp_fault::FaultInjector;
use gpp_gpu_model::{project_best, GpuSpec, KernelProjection};
use gpp_pcie::model::DirectionalModel;
use gpp_pcie::overlap::DEFAULT_STAGING_LATENCY;
use gpp_pcie::{CalibrationError, Calibrator, ChunkedModel, Direction, FaultyBus};
use gpp_skeleton::Program;
use std::sync::Arc;

/// The calibrated GROPHECY++ instance for one machine.
///
/// Construction runs the two-point PCIe calibration benchmark on the
/// machine's bus — "automatically invoked by GROPHECY++ when run on a new
/// system" (§III-C). Projections afterwards never touch the hardware.
pub struct Grophecy {
    spec: GpuSpec,
    pcie: DirectionalModel,
    /// Per-chunk pinned-staging latency σ for chunked transfer pricing:
    /// derived from the machine's mechanistic bus parameters when it has
    /// them, the replay-era default otherwise.
    staging_latency: f64,
    /// Extra GPU devices of a multi-GPU node (empty = single GPU).
    devices: Vec<DeviceLink>,
    /// Root-complex contention shared by all device links.
    root_complex: Option<RootComplex>,
}

/// A complete application projection.
#[derive(Debug, Clone)]
pub struct AppProjection {
    /// Best projection per kernel, in program order.
    pub kernels: Vec<KernelProjection>,
    /// Σ best kernel times, seconds (one iteration).
    ///
    /// **Invariant:** always a *serial, program-order* reduction over
    /// `kernels`, even when the per-kernel searches ran in parallel —
    /// float summation order must never depend on `GPP_THREADS`.
    pub kernel_time: f64,
    /// The transfer plan from the data usage analyzer.
    pub plan: TransferPlan,
    /// Per-transfer predicted times, parallel to `plan.all()` order.
    pub transfer_times: Vec<f64>,
    /// Σ predicted transfer times, seconds.
    ///
    /// **Invariant:** a serial, plan-order reduction over
    /// `transfer_times`, for the same reason as `kernel_time`.
    pub transfer_time: f64,
    /// The priced event timeline, present only when the skeleton carries
    /// stream/chunk annotations (`None` keeps annotation-free projections
    /// bit-identical to pre-timeline builds).
    pub timeline: Option<Timeline>,
    /// The data-parallel split across all devices of a multi-GPU node
    /// (`None` on single-GPU machines).
    pub multi_gpu: Option<MultiGpuProjection>,
}

impl AppProjection {
    /// Projected total GPU time for `iters` iterations of the kernel
    /// sequence: kernels repeat, transfers happen once (§IV-B).
    pub fn total_time(&self, iters: u32) -> f64 {
        self.kernel_time * iters as f64 + self.transfer_time
    }

    /// Projected total honoring the annotated concurrent schedule:
    /// transfers happen once, overlapped against the pass they bracket;
    /// the remaining `iters - 1` passes are pure kernel time. Falls back
    /// to the serial [`AppProjection::total_time`] when the program pinned
    /// no concurrent schedule.
    pub fn overlapped_total_time(&self, iters: u32) -> f64 {
        match &self.timeline {
            Some(tl) => self.kernel_time * (iters.saturating_sub(1)) as f64 + tl.overlapped_pass,
            None => self.total_time(iters),
        }
    }

    /// Projected speedup over a measured CPU time (`cpu_time` must cover
    /// the same `iters`).
    pub fn speedup(&self, cpu_time: f64, iters: u32) -> f64 {
        cpu_time / self.total_time(iters)
    }

    /// The kernel-only projected speedup — what plain GROPHECY would
    /// report.
    pub fn speedup_kernel_only(&self, cpu_time: f64, iters: u32) -> f64 {
        cpu_time / (self.kernel_time * iters as f64)
    }

    /// The transfer-only projected speedup (Table II's middle column).
    pub fn speedup_transfer_only(&self, cpu_time: f64, _iters: u32) -> f64 {
        cpu_time / self.transfer_time
    }
}

impl Grophecy {
    /// The projector for `machine` with its fitted PCIe model.
    fn new(machine: &MachineConfig, pcie: DirectionalModel) -> Self {
        Grophecy {
            spec: machine.gpu_spec.clone(),
            pcie,
            staging_latency: match &machine.bus {
                BusSpec::Sim(p) => ChunkedModel::from_params(pcie.h2d, p).staging_latency,
                BusSpec::Replay(_) => DEFAULT_STAGING_LATENCY,
            },
            devices: machine.devices.clone(),
            root_complex: machine.root_complex.clone(),
        }
    }

    /// Calibrates GROPHECY++ against a machine: runs the synthetic PCIe
    /// benchmark on its bus, then keeps only the datasheet + fitted model.
    pub fn calibrate(machine: &MachineConfig, node: &mut SimulatedNode) -> Self {
        Self::new(machine, Calibrator::default().calibrate(&mut node.bus))
    }

    /// Fault-aware calibration: like [`Grophecy::calibrate`], but wires a
    /// fault injector through the whole node — the bus is wrapped in a
    /// [`FaultyBus`] and calibrated via the outlier-rejecting
    /// [`Calibrator::calibrate_checked`] path, and the node's GPU is armed
    /// so later measurements see transient launch faults.
    ///
    /// With an **inactive** injector this delegates to the plain path, so
    /// fault-free runs stay bit-identical to builds without fault support
    /// (the robust path's validation probes would otherwise consume extra
    /// bus-RNG draws and shift every downstream measurement).
    pub fn try_calibrate(
        machine: &MachineConfig,
        node: &mut SimulatedNode,
        faults: Arc<FaultInjector>,
    ) -> Result<Self, CalibrationError> {
        if !faults.is_active() {
            return Ok(Self::calibrate(machine, node));
        }
        node.gpu.arm_faults(faults.clone());
        let mut bus = FaultyBus::new(&mut node.bus, faults).with_machine(&machine.id);
        let pcie = Calibrator::default().calibrate_checked(&mut bus)?;
        Ok(Self::new(machine, pcie))
    }

    /// The fitted PCIe model.
    pub fn pcie_model(&self) -> &DirectionalModel {
        &self.pcie
    }

    /// The GPU datasheet in use.
    pub fn gpu_spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Predicted time for one transfer of `bytes` in `dir`.
    pub fn predict_transfer(&self, bytes: u64, dir: TransferDir) -> f64 {
        let d = match dir {
            TransferDir::ToDevice => Direction::HostToDevice,
            TransferDir::FromDevice => Direction::DeviceToHost,
        };
        self.pcie.predict(bytes, d)
    }

    /// Projects a whole application: best kernel times + transfer plan +
    /// transfer times.
    ///
    /// Each kernel's transformation search also explores loop interchange:
    /// every parallel loop is tried as the thread axis, since the mapping
    /// determines every coalescing class.
    ///
    /// The kernel × axis searches run serially on the calling thread: one
    /// search takes about a microsecond, less than handing it to a pool
    /// thread costs, and a server is already parallel across requests.
    /// Offline sweeps parallelize across whole projections instead.
    pub fn project(&self, program: &Program, hints: &Hints) -> AppProjection {
        let kernels: Vec<KernelProjection> = program
            .kernels
            .iter()
            .map(|k| {
                let mut best: Option<KernelProjection> = None;
                for (ai, axis) in k.axis_candidates().into_iter().enumerate() {
                    let chars = k.characteristics_with_axis(program, axis);
                    let mut proj = project_best(&k.name, &chars, &self.spec);
                    // Record non-default axis choices so the lowering (and
                    // reports) reproduce the same mapping. Index 0 is the
                    // innermost parallel loop — the default.
                    proj.config.thread_axis = (ai > 0).then_some(axis);
                    // Strict `<` keeps the earliest axis on ties.
                    if best.as_ref().is_none_or(|b| proj.time < b.time) {
                        best = Some(proj);
                    }
                }
                best.expect("kernel has at least one parallel loop (validated)")
            })
            .collect();
        let kernel_time = kernels.iter().map(|k| k.time).sum();

        let plan = analyze(program, hints);
        // Per-transfer annotations in `plan.all()` (bucket) order: an
        // explicit schedule's h2d directives map to `plan.h2d` in program
        // order and d2h likewise; derived plans have no annotations.
        let annotations: Vec<(u32, u32)> = if program.has_explicit_transfers() {
            let side = |kind: gpp_skeleton::TransferKind| {
                program
                    .transfers
                    .iter()
                    .filter(move |t| t.kind == kind)
                    .map(|t| (t.stream, t.chunks.max(1)))
            };
            side(gpp_skeleton::TransferKind::HostToDevice)
                .chain(side(gpp_skeleton::TransferKind::DeviceToHost))
                .collect()
        } else {
            vec![(0, 1); plan.transfer_count()]
        };
        let transfer_times: Vec<f64> = plan
            .all()
            .zip(&annotations)
            .map(|(t, &(_, chunks))| {
                if chunks > 1 {
                    // Chunked pricing: each chunk pays α plus a staging
                    // rotation — executed serially this costs *more* than
                    // Equation 1; the timeline below is what wins it back.
                    let dir = match t.dir {
                        TransferDir::ToDevice => self.pcie.h2d,
                        TransferDir::FromDevice => self.pcie.d2h,
                    };
                    ChunkedModel::new(dir, self.staging_latency).serial_time(t.bytes, chunks)
                } else {
                    self.predict_transfer(t.bytes, t.dir)
                }
            })
            .collect();
        let transfer_time = transfer_times.iter().sum();

        let timeline = program.has_stream_annotations().then(|| {
            let kernel_times: Vec<f64> = kernels.iter().map(|k| k.time).collect();
            Timeline::build(program, &kernel_times, &plan, &transfer_times)
        });
        let multi_gpu = (!self.devices.is_empty()).then(|| {
            MultiGpuProjection::build(
                &self.pcie,
                &self.devices,
                self.root_complex.as_ref(),
                &plan,
                kernel_time,
            )
        });

        AppProjection {
            kernels,
            kernel_time,
            plan,
            transfer_times,
            transfer_time,
            timeline,
            multi_gpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn projector() -> Grophecy {
        let machine = MachineConfig::anl_eureka_node(7);
        let mut node = machine.node();
        Grophecy::calibrate(&machine, &mut node)
    }

    #[test]
    fn vadd_projection_shape_matches_paper_background() {
        // §II-B: for vector addition, transfer time swamps kernel time —
        // the CPU wins end to end.
        let gro = projector();
        let proj = gro.project(&vadd(1 << 22), &Hints::new());
        assert_eq!(proj.kernels.len(), 1);
        assert_eq!(proj.plan.transfer_count(), 3);
        // 2 × 16 MB in + 16 MB out at ~2.5 GB/s ≈ 19 ms, vs ~3 ms kernel.
        assert!(proj.transfer_time > 3.0 * proj.kernel_time);
        assert!(proj.total_time(1) > proj.kernel_time * 4.0);
    }

    #[test]
    fn iterations_amortize_transfers() {
        let gro = projector();
        let proj = gro.project(&vadd(1 << 20), &Hints::new());
        let t1 = proj.total_time(1);
        let t100 = proj.total_time(100);
        // Transfers paid once: 100 iterations cost far less than 100×.
        assert!(t100 < t1 * 100.0 * 0.5);
        assert!((t100 - (proj.kernel_time * 100.0 + proj.transfer_time)).abs() < 1e-12);
    }

    #[test]
    fn speedup_variants_order_sensibly() {
        let gro = projector();
        let proj = gro.project(&vadd(1 << 22), &Hints::new());
        let cpu_time = 10e-3;
        let with = proj.speedup(cpu_time, 1);
        let kernel_only = proj.speedup_kernel_only(cpu_time, 1);
        let transfer_only = proj.speedup_transfer_only(cpu_time, 1);
        assert!(kernel_only > with, "{kernel_only} vs {with}");
        assert!(transfer_only > with);
        assert!(with < kernel_only.min(transfer_only));
    }

    #[test]
    fn calibrated_model_matches_bus_scale() {
        let gro = projector();
        let m = gro.pcie_model();
        assert!(
            (8.0e-6..13.0e-6).contains(&m.h2d.alpha),
            "alpha {}",
            m.h2d.alpha
        );
        assert!((2.2e9..2.8e9).contains(&m.h2d.bandwidth()));
    }

    #[test]
    fn loop_interchange_fixes_column_major_access() {
        // A kernel that writes b[j][i] over loops (i, j): with the default
        // axis (j innermost) the store strides by a whole row; swapping
        // the thread axis to i makes it coalesced. The projector must
        // discover the interchange and project a big win from it.
        let n = 1024usize;
        let mut p = ProgramBuilder::new("transpose-ish");
        let a = p.array("a", ElemType::F32, &[n, n]);
        let b = p.array("b", ElemType::F32, &[n, n]);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", n as u64);
        let j = k.parallel_loop("j", n as u64);
        k.statement()
            .read(a, &[idx(j), idx(i)])
            .write(b, &[idx(j), idx(i)])
            .flops(Flops {
                adds: 1,
                ..Flops::default()
            })
            .finish();
        k.finish();
        let program = p.build().unwrap();

        let gro = projector();
        let proj = gro.project(&program, &Hints::new());
        let best = &proj.kernels[0];
        assert!(
            best.config.thread_axis.is_some(),
            "interchange not chosen: {}",
            best.config
        );
        // Compare against the default-axis best.
        let chars = program.kernels[0].characteristics(&program);
        let default_best = gpp_gpu_model::project_best("k", &chars, gro.gpu_spec());
        assert!(
            best.time < default_best.time * 0.5,
            "interchange {} vs default {}",
            best.time,
            default_best.time
        );
        // And the measured implementation honors the same mapping.
        let machine = MachineConfig::anl_eureka_node(7);
        let mut node = machine.node();
        let meas = crate::measurement::measure(&mut node, &program, &proj);
        assert!(meas.kernel_time < default_best.time * 2.0);
    }

    #[test]
    fn try_calibrate_with_empty_plan_is_bit_identical() {
        let machine = MachineConfig::anl_eureka_node(7);
        let mut node = machine.node();
        let plain = Grophecy::calibrate(&machine, &mut node);
        let mut node = machine.node();
        let faulted =
            Grophecy::try_calibrate(&machine, &mut node, FaultInjector::disabled()).unwrap();
        let (p, f) = (plain.pcie_model(), faulted.pcie_model());
        assert_eq!(p.h2d.alpha.to_bits(), f.h2d.alpha.to_bits());
        assert_eq!(p.h2d.beta.to_bits(), f.h2d.beta.to_bits());
        assert_eq!(p.d2h.alpha.to_bits(), f.d2h.alpha.to_bits());
        assert_eq!(p.d2h.beta.to_bits(), f.d2h.beta.to_bits());
    }

    #[test]
    fn try_calibrate_survives_sporadic_outliers() {
        let machine = MachineConfig::anl_eureka_node(7);
        let mut node = machine.node();
        let plan: gpp_fault::FaultPlan = "seed=2;pcie.calibration.outlier:p=0.2,factor=40"
            .parse()
            .unwrap();
        let faults = Arc::new(FaultInjector::new(plan));
        let gro = Grophecy::try_calibrate(&machine, &mut node, faults.clone()).unwrap();
        let m = gro.pcie_model();
        assert!(
            (8.0e-6..13.0e-6).contains(&m.h2d.alpha),
            "alpha {}",
            m.h2d.alpha
        );
        assert!((2.2e9..2.8e9).contains(&m.h2d.bandwidth()));
        assert!(faults.total_fired() > 0);
    }

    #[test]
    fn try_calibrate_reports_hopeless_buses() {
        let machine = MachineConfig::anl_eureka_node(7);
        let mut node = machine.node();
        let plan: gpp_fault::FaultPlan = "pcie.transfer.error:always".parse().unwrap();
        let Err(err) =
            Grophecy::try_calibrate(&machine, &mut node, Arc::new(FaultInjector::new(plan)))
        else {
            panic!("calibration should have failed");
        };
        assert!(err.to_string().contains("calibration failed"));
    }

    /// vadd with an explicit chunked-async schedule: inputs stream in
    /// against the kernel, the output streams out behind it.
    fn vadd_streamed(n: usize, stream: u32, chunks: u32) -> Program {
        use gpp_skeleton::TransferKind;
        let mut p = ProgramBuilder::new("vadd-streamed");
        let a = p.array("a", ElemType::F32, &[n]);
        let b = p.array("b", ElemType::F32, &[n]);
        let c = p.array("c", ElemType::F32, &[n]);
        p.transfer_with(a, TransferKind::HostToDevice, 0, stream, chunks);
        p.transfer_with(b, TransferKind::HostToDevice, 0, stream, chunks);
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
        p.transfer_with(c, TransferKind::DeviceToHost, 1, stream, chunks);
        p.build().unwrap()
    }

    #[test]
    fn plain_programs_have_no_timeline_or_split() {
        let gro = projector();
        let proj = gro.project(&vadd(1 << 20), &Hints::new());
        assert!(proj.timeline.is_none());
        assert!(proj.multi_gpu.is_none());
        assert_eq!(proj.overlapped_total_time(3), proj.total_time(3));
    }

    #[test]
    fn streamed_schedule_lands_strictly_between_max_and_sum() {
        // §acceptance: a committed overlapped multi-stream case must be
        // strictly between max(transfer, compute) and their sum.
        let gro = projector();
        let proj = gro.project(&vadd_streamed(1 << 22, 1, 8), &Hints::new());
        let tl = proj.timeline.as_ref().expect("annotated program");
        assert!(tl.has_overlap());
        let lo = proj.transfer_time.max(proj.kernel_time);
        let hi = proj.transfer_time + proj.kernel_time;
        assert!(
            tl.overlapped_pass > lo && tl.overlapped_pass < hi,
            "{} not in ({lo}, {hi})",
            tl.overlapped_pass
        );
        assert!(proj.overlapped_total_time(1) < proj.total_time(1));
        // Later iterations are pure kernel passes in both schedules, so
        // the saving is iteration-invariant.
        let saved_1 = proj.total_time(1) - proj.overlapped_total_time(1);
        let saved_9 = proj.total_time(9) - proj.overlapped_total_time(9);
        assert!((saved_1 - saved_9).abs() < 1e-12);
    }

    #[test]
    fn sync_annotations_price_like_the_serial_paper_model() {
        // stream 0, chunks=1 on every directive is the paper's serial
        // schedule: no timeline, and per-transfer pricing identical to
        // the derived plan's.
        let gro = projector();
        let proj = gro.project(&vadd_streamed(1 << 20, 0, 1), &Hints::new());
        assert!(proj.timeline.is_none());
        let derived = gro.project(&vadd(1 << 20), &Hints::new());
        // Same plan shape → same serial pricing per transfer.
        assert_eq!(proj.plan.transfer_count(), derived.plan.transfer_count());
        assert_eq!(
            proj.transfer_time.to_bits(),
            derived.transfer_time.to_bits()
        );
    }

    #[test]
    fn chunking_without_overlap_costs_more_serially() {
        let gro = projector();
        let plain = gro.project(&vadd_streamed(1 << 22, 0, 1), &Hints::new());
        let chunked = gro.project(&vadd_streamed(1 << 22, 0, 8), &Hints::new());
        // chunks=8 on the sync stream: pays 8 α/σ rotations, overlaps
        // nothing.
        assert!(chunked.transfer_time > plain.transfer_time);
        let tl = chunked.timeline.as_ref().expect("annotated");
        assert!(!tl.has_overlap());
        assert_eq!(tl.serial_pass, tl.overlapped_pass);
    }

    #[test]
    fn multi_gpu_split_shows_contention_degraded_bandwidth() {
        // §acceptance: a dual-GPU machine with a tight root complex must
        // show per-device bandwidth strictly below the uncontended link
        // rate, and the split total must beat the single-GPU serial total.
        use crate::machine::{DeviceLink, RootComplex};
        let mut machine = MachineConfig::anl_eureka_node(7);
        machine.devices.push(DeviceLink {
            id: 1,
            bus: gpp_pcie::BusParams::pcie_v1_x16(),
        });
        machine.root_complex = Some(RootComplex { shared_bw: 3.0e9 });
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        let proj = gro.project(&vadd(1 << 22), &Hints::new());
        let split = proj.multi_gpu.as_ref().expect("multi-GPU machine");
        assert_eq!(split.device_count(), 2);
        assert!(split.is_contended());
        for d in &split.devices {
            assert!(d.bandwidth_factor < 1.0, "{}", d.bandwidth_factor);
            assert!(d.kernel_seconds < proj.kernel_time);
        }
        assert!(split.total_time(1) < proj.total_time(1));
    }

    #[test]
    fn multi_gpu_calibration_matches_single_gpu_twin_bitwise() {
        // Registering extra devices must not consume calibration RNG:
        // the primary model — and every scalar projection field — is
        // bit-identical to the single-GPU twin.
        use crate::machine::{DeviceLink, RootComplex};
        let single = MachineConfig::anl_eureka_node(7);
        let mut dual = single.clone();
        dual.devices.push(DeviceLink {
            id: 1,
            bus: gpp_pcie::BusParams::pcie_v2_x16(),
        });
        dual.root_complex = Some(RootComplex { shared_bw: 4.0e9 });
        let mut node_s = single.node();
        let p_s = Grophecy::calibrate(&single, &mut node_s).project(&vadd(1 << 20), &Hints::new());
        let mut node_d = dual.node();
        let p_d = Grophecy::calibrate(&dual, &mut node_d).project(&vadd(1 << 20), &Hints::new());
        assert_eq!(p_s.kernel_time.to_bits(), p_d.kernel_time.to_bits());
        assert_eq!(p_s.transfer_time.to_bits(), p_d.transfer_time.to_bits());
        assert!(p_s.multi_gpu.is_none() && p_d.multi_gpu.is_some());
    }
}
