//! The projection timeline: stream/overlap scheduling and the multi-GPU
//! data-parallel split.
//!
//! The paper's schedule is strictly serial — every transfer completes
//! before the kernel that needs it starts, so the projected total is a
//! scalar sum (`kernel_time·iters + transfer_time`). Skeletons that carry
//! `stream`/`chunks=K` annotations (see [`gpp_skeleton::text`]) pin a
//! *concurrent* schedule instead, and this module prices it as an explicit
//! event timeline:
//!
//! * an **async `h2d` at position `p`** is double-buffered against kernel
//!   `p` (the consumer): chunk `i+1` streams in while the kernel works on
//!   chunk `i`;
//! * an **async `d2h` at position `p`** is double-buffered against kernel
//!   `p-1` (the producer): finished chunks drain while the kernel still
//!   computes the rest;
//! * all async transfers bracketing the same kernel share one bus, so
//!   their chunked serial costs add *on the bus* and the combined bus time
//!   overlaps the kernel under the pipeline law
//!   ([`gpp_pcie::pipelined_window`]);
//! * `stream 0` (synchronous) transfers — and async transfers with no
//!   adjacent kernel — serialize exactly as in the paper.
//!
//! Unchunked async transfers still serialize with their kernel: a kernel
//! cannot consume data that has not arrived, and overlap is bought by
//! chunking (`pipelined_window` with `chunks == 1` degenerates to the
//! serial sum). That keeps the timeline total **bounded**: strictly
//! between `max(bus, compute)` and `bus + compute` for any genuinely
//! pipelined window, never below the straggling side.
//!
//! The multi-GPU split ([`MultiGpuProjection`]) projects the same program
//! data-parallel across every device of a multi-GPU node: each device runs
//! `1/D` of the compute and moves `1/D` of every array over its own link,
//! with per-link bandwidth degraded to `min(link_bw, shared_bw / D)` when
//! the node declares root-complex contention. The node finishes with its
//! straggler.

use crate::machine::{DeviceLink, RootComplex};
use gpp_datausage::{TransferDir, TransferPlan};
use gpp_pcie::model::DirectionalModel;
use gpp_pcie::{pipelined_window, LinearModel};
use gpp_skeleton::{Program, TransferKind};

/// One scheduled transfer on the projection timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Array name (from the transfer plan).
    pub array: String,
    /// Direction.
    pub dir: TransferDir,
    /// Kernel-sequence position of the directive (0 = before the first
    /// kernel, `n` = after the last).
    pub pos: usize,
    /// Stream id (0 = the synchronous default stream).
    pub stream: u32,
    /// Pipelining chunk count (1 = unchunked).
    pub chunks: u32,
    /// Bytes moved.
    pub bytes: u64,
    /// Serial cost of this transfer, seconds (chunked pricing when
    /// `chunks > 1`).
    pub seconds: f64,
    /// Index of the kernel this event is double-buffered against, when it
    /// is scheduled into an overlap window.
    pub overlaps_kernel: Option<usize>,
}

/// The priced event timeline of one annotated kernel-sequence pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// All transfer events, in program order.
    pub events: Vec<TimelineEvent>,
    /// The serial schedule's pass time: Σ kernel times + Σ event costs.
    pub serial_pass: f64,
    /// The overlapped pass time: per-kernel pipeline windows plus
    /// serialized events. Never exceeds `serial_pass`.
    pub overlapped_pass: f64,
}

impl Timeline {
    /// Seconds the concurrent schedule saves over the serial one (≥ 0).
    pub fn saved(&self) -> f64 {
        (self.serial_pass - self.overlapped_pass).max(0.0)
    }

    /// True if any event actually landed in an overlap window.
    pub fn has_overlap(&self) -> bool {
        self.events.iter().any(|e| e.overlaps_kernel.is_some())
    }

    /// Builds the timeline for a program with explicit transfer
    /// directives. `kernel_times` is the best projected time per kernel in
    /// program order; `transfer_times` is parallel to `plan.all()` order
    /// (h2d bucket then d2h bucket) and already carries chunked pricing.
    pub fn build(
        program: &Program,
        kernel_times: &[f64],
        plan: &TransferPlan,
        transfer_times: &[f64],
    ) -> Timeline {
        let n = kernel_times.len();
        // Per-kernel overlap windows: accumulated bus seconds + the
        // effective chunk depth (max over contributing events — the
        // schedule pipelines at the granularity of its finest-split copy).
        let mut bus: Vec<f64> = vec![0.0; n];
        let mut depth: Vec<u32> = vec![1; n];
        let mut serialized = 0.0;

        let mut events = Vec::with_capacity(program.transfers.len());
        let (mut next_h2d, mut next_d2h) = (0usize, 0usize);
        for t in &program.transfers {
            let (bucket, dir) = match t.kind {
                TransferKind::HostToDevice => {
                    let i = next_h2d;
                    next_h2d += 1;
                    (i, TransferDir::ToDevice)
                }
                TransferKind::DeviceToHost => {
                    let i = plan.h2d.len() + next_d2h;
                    next_d2h += 1;
                    (i, TransferDir::FromDevice)
                }
            };
            let planned = match dir {
                TransferDir::ToDevice => &plan.h2d[bucket],
                TransferDir::FromDevice => &plan.d2h[bucket - plan.h2d.len()],
            };
            let seconds = transfer_times[bucket];
            // Async events pair with the kernel they double-buffer
            // against; everything else serializes.
            let overlaps_kernel = if t.stream == 0 {
                None
            } else {
                match dir {
                    TransferDir::ToDevice if t.pos < n => Some(t.pos),
                    TransferDir::FromDevice if t.pos > 0 => Some(t.pos - 1),
                    _ => None,
                }
            };
            match overlaps_kernel {
                Some(k) => {
                    bus[k] += seconds;
                    depth[k] = depth[k].max(t.chunks.max(1));
                }
                None => serialized += seconds,
            }
            events.push(TimelineEvent {
                array: planned.name.clone(),
                dir,
                pos: t.pos,
                stream: t.stream,
                chunks: t.chunks.max(1),
                bytes: planned.bytes,
                seconds,
                overlaps_kernel,
            });
        }

        // Serial reductions in program order: the timeline must be as
        // thread-count-independent as the scalar projection.
        let mut serial_pass = serialized;
        let mut overlapped_pass = serialized;
        for (k, &kt) in kernel_times.iter().enumerate() {
            serial_pass += kt + bus[k];
            overlapped_pass += pipelined_window(bus[k], kt, depth[k]);
        }
        Timeline {
            events,
            serial_pass,
            overlapped_pass,
        }
    }
}

/// One device's share of a data-parallel split projection.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSlice {
    /// Device index (0 = the primary device).
    pub id: u32,
    /// This device's kernel time per iteration (`kernel_time / D`).
    pub kernel_seconds: f64,
    /// This device's transfer time: `1/D` of every planned array over its
    /// own (possibly contention-degraded) link.
    pub transfer_seconds: f64,
    /// Contention degradation of the link's h2d bandwidth: effective over
    /// uncontended, in `(0, 1]` (1 = the root complex is not the
    /// bottleneck for this link).
    pub bandwidth_factor: f64,
}

impl DeviceSlice {
    /// This device's finish time for `iters` iterations.
    pub fn total_time(&self, iters: u32) -> f64 {
        self.kernel_seconds * iters as f64 + self.transfer_seconds
    }
}

/// The data-parallel split of one projection across all devices of a
/// multi-GPU node. The work (compute and bytes) is divided evenly; the
/// node finishes when its straggler does.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiGpuProjection {
    /// Per-device slices, primary first.
    pub devices: Vec<DeviceSlice>,
}

impl MultiGpuProjection {
    /// Number of devices sharing the work.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Straggler finish time for `iters` iterations — the split
    /// projection's total.
    pub fn total_time(&self, iters: u32) -> f64 {
        self.devices
            .iter()
            .map(|d| d.total_time(iters))
            .fold(0.0, f64::max)
    }

    /// The slowest device at one iteration.
    pub fn straggler(&self) -> &DeviceSlice {
        self.devices
            .iter()
            .max_by(|a, b| a.total_time(1).total_cmp(&b.total_time(1)))
            .expect("a split projection has at least one device")
    }

    /// True if any link's bandwidth is degraded by root-complex
    /// contention.
    pub fn is_contended(&self) -> bool {
        self.devices.iter().any(|d| d.bandwidth_factor < 1.0)
    }

    /// Builds the split. `pcie` is the primary device's *calibrated*
    /// model; extra devices are priced analytically from their datasheet
    /// link parameters (α from the DMA setup cost, β from the effective
    /// pinned bandwidth) — deliberately not calibrated, so registering a
    /// multi-GPU machine consumes exactly the same RNG draws as its
    /// single-GPU twin and leaves every other projection bit-identical.
    pub fn build(
        pcie: &DirectionalModel,
        extras: &[DeviceLink],
        root_complex: Option<&RootComplex>,
        plan: &TransferPlan,
        kernel_time: f64,
    ) -> MultiGpuProjection {
        let d = (1 + extras.len()) as f64;
        // Root-complex cap on any single link's share when all D devices
        // transfer concurrently (the split's worst — and steady — case).
        let beta_cap = root_complex.map(|rc| d / rc.shared_bw);

        let links = std::iter::once((0u32, pcie.h2d, pcie.d2h)).chain(extras.iter().map(|dev| {
            let beta = 1.0 / dev.bus.effective_pinned_bw();
            (
                dev.id,
                LinearModel::new(dev.bus.dma_setup_h2d, beta),
                LinearModel::new(dev.bus.dma_setup_d2h, beta),
            )
        }));

        let devices = links
            .map(|(id, h2d, d2h)| {
                let contend = |m: LinearModel| match beta_cap {
                    Some(cap) => LinearModel::new(m.alpha, m.beta.max(cap)),
                    None => m,
                };
                let (ch2d, cd2h) = (contend(h2d), contend(d2h));
                let mut transfer_seconds = 0.0;
                for t in plan.all() {
                    let slice = (t.bytes as f64 / d).ceil() as u64;
                    let m = match t.dir {
                        TransferDir::ToDevice => &ch2d,
                        TransferDir::FromDevice => &cd2h,
                    };
                    transfer_seconds += m.predict(slice);
                }
                DeviceSlice {
                    id,
                    kernel_seconds: kernel_time / d,
                    transfer_seconds,
                    bandwidth_factor: h2d.beta / ch2d.beta,
                }
            })
            .collect();
        MultiGpuProjection { devices }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_pcie::BusParams;
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops};

    fn annotated_program(stream: u32, chunks: u32) -> Program {
        let n = 1 << 20;
        let mut p = ProgramBuilder::new("pipe");
        let a = p.array("a", ElemType::F32, &[n]);
        let b = p.array("b", ElemType::F32, &[n]);
        p.transfer_with(a, TransferKind::HostToDevice, 0, stream, chunks);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", n as u64);
        k.statement()
            .read(a, &[idx(i)])
            .write(b, &[idx(i)])
            .flops(Flops {
                adds: 8,
                ..Flops::default()
            })
            .finish();
        k.finish();
        p.transfer_with(b, TransferKind::DeviceToHost, 1, stream, chunks);
        p.build().unwrap()
    }

    fn plan_for(p: &Program) -> TransferPlan {
        gpp_datausage::analyze(p, &gpp_datausage::Hints::new())
    }

    #[test]
    fn sync_schedule_has_no_overlap_and_matches_serial() {
        let p = annotated_program(0, 1);
        let plan = plan_for(&p);
        let times = vec![1.0e-3, 2.0e-3];
        let tl = Timeline::build(&p, &[5.0e-3], &plan, &times);
        assert!(!tl.has_overlap());
        assert_eq!(tl.serial_pass, tl.overlapped_pass);
        assert!((tl.serial_pass - (5.0e-3 + 3.0e-3)).abs() < 1e-15);
    }

    #[test]
    fn chunked_async_pass_is_strictly_between_max_and_sum() {
        let p = annotated_program(1, 8);
        let plan = plan_for(&p);
        let (tx_in, tx_out) = (2.0e-3, 1.5e-3);
        let compute = 4.0e-3;
        let tl = Timeline::build(&p, &[compute], &plan, &[tx_in, tx_out]);
        assert!(tl.has_overlap());
        let bus = tx_in + tx_out;
        let lo = bus.max(compute);
        let hi = bus + compute;
        assert!(
            tl.overlapped_pass > lo && tl.overlapped_pass < hi,
            "{} not in ({lo}, {hi})",
            tl.overlapped_pass
        );
        assert!((tl.serial_pass - hi).abs() < 1e-15);
        assert!(tl.saved() > 0.0);
    }

    #[test]
    fn unchunked_async_still_serializes() {
        let p = annotated_program(1, 1);
        let plan = plan_for(&p);
        let tl = Timeline::build(&p, &[4.0e-3], &plan, &[2.0e-3, 1.5e-3]);
        // Scheduled into windows, but chunks=1 pipelines nothing.
        assert!(tl.has_overlap());
        assert_eq!(tl.serial_pass, tl.overlapped_pass);
    }

    #[test]
    fn edge_positions_serialize() {
        // h2d after the last kernel / d2h before the first have no kernel
        // to hide behind.
        let n = 1usize << 16;
        let mut p = ProgramBuilder::new("edges");
        let a = p.array("a", ElemType::F32, &[n]);
        p.transfer_with(a, TransferKind::DeviceToHost, 0, 2, 4);
        let mut k = p.kernel("k");
        let i = k.parallel_loop("i", n as u64);
        k.statement()
            .read(a, &[idx(i)])
            .write(a, &[idx(i)])
            .finish();
        k.finish();
        p.transfer_with(a, TransferKind::HostToDevice, 1, 2, 4);
        let p = p.build().unwrap();
        let plan = plan_for(&p);
        let tl = Timeline::build(&p, &[3.0e-3], &plan, &[1.0e-3, 1.0e-3]);
        assert!(!tl.has_overlap());
        assert_eq!(tl.serial_pass, tl.overlapped_pass);
    }

    fn toy_plan(bytes_in: u64, bytes_out: u64) -> TransferPlan {
        use gpp_datausage::Transfer;
        TransferPlan {
            h2d: vec![Transfer {
                array: gpp_brs::ArrayId(0),
                name: "in".into(),
                bytes: bytes_in,
                dir: TransferDir::ToDevice,
                exact: true,
            }],
            d2h: vec![Transfer {
                array: gpp_brs::ArrayId(1),
                name: "out".into(),
                bytes: bytes_out,
                dir: TransferDir::FromDevice,
                exact: true,
            }],
        }
    }

    fn model() -> DirectionalModel {
        DirectionalModel {
            h2d: LinearModel::new(1.0e-5, 4.0e-10),
            d2h: LinearModel::new(1.2e-5, 4.2e-10),
        }
    }

    #[test]
    fn split_divides_work_and_takes_the_straggler() {
        let extras = [DeviceLink {
            id: 1,
            bus: BusParams::pcie_v1_x16(),
        }];
        let split =
            MultiGpuProjection::build(&model(), &extras, None, &toy_plan(64 << 20, 64 << 20), 0.1);
        assert_eq!(split.device_count(), 2);
        for d in &split.devices {
            assert!((d.kernel_seconds - 0.05).abs() < 1e-15);
            assert_eq!(d.bandwidth_factor, 1.0);
        }
        assert!(!split.is_contended());
        let t = split.total_time(1);
        assert_eq!(t, split.straggler().total_time(1));
        assert!(split.devices.iter().all(|d| d.total_time(1) <= t));
    }

    #[test]
    fn root_complex_contention_degrades_links() {
        let extras = [DeviceLink {
            id: 1,
            bus: BusParams::pcie_v1_x16(),
        }];
        let plan = toy_plan(64 << 20, 64 << 20);
        let free = MultiGpuProjection::build(&model(), &extras, None, &plan, 0.1);
        // Shared bandwidth well below 2× the per-link rate: both links
        // degrade.
        let rc = RootComplex { shared_bw: 2.0e9 };
        let capped = MultiGpuProjection::build(&model(), &extras, Some(&rc), &plan, 0.1);
        assert!(capped.is_contended());
        for (f, c) in free.devices.iter().zip(&capped.devices) {
            assert!(c.bandwidth_factor < 1.0, "{}", c.bandwidth_factor);
            assert!(c.transfer_seconds > f.transfer_seconds);
            assert_eq!(c.kernel_seconds, f.kernel_seconds);
        }
        // Effective per-link bandwidth is shared_bw / D.
        let eff_beta = 2.0 / rc.shared_bw;
        let got = capped.devices[0].bandwidth_factor;
        let want = model().h2d.beta / eff_beta;
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn ample_root_complex_changes_nothing() {
        let extras = [DeviceLink {
            id: 1,
            bus: BusParams::pcie_v1_x16(),
        }];
        let plan = toy_plan(8 << 20, 8 << 20);
        let free = MultiGpuProjection::build(&model(), &extras, None, &plan, 0.1);
        let rc = RootComplex { shared_bw: 1.0e12 };
        let ample = MultiGpuProjection::build(&model(), &extras, Some(&rc), &plan, 0.1);
        assert_eq!(free, ample);
    }
}
