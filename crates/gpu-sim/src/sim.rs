//! The top-level GPU simulator: timing + launch overhead + noise.

use crate::device::DeviceParams;
use crate::instance::KernelInstance;
use crate::timing::{time_kernel, TimingBreakdown};
use gpp_fault::FaultInjector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How many transient launch faults [`GpuSim::mean_time`] absorbs per
/// measurement run before propagating the timing of the last attempt
/// anyway (mirrors a driver-level retry).
pub const MAX_LAUNCH_RETRIES: u32 = 8;

/// A failed kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A kernel launch failed transiently (driver hiccup, ECC retry) —
    /// only ever produced under an active fault plan; retrying is expected
    /// to succeed.
    TransientFault {
        /// The simulator's launch counter when the fault fired.
        launch: u64,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::TransientFault { launch } => {
                write!(f, "transient device fault at kernel launch {launch}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Result of one simulated kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// End-to-end kernel time in seconds (launch overhead + execution +
    /// noise).
    pub time: f64,
    /// The noise-free execution-only time in seconds.
    pub ideal_exec: f64,
    /// Detailed decomposition.
    pub breakdown: TimingBreakdown,
}

/// The simulated GPU. Holds the device description and the noise RNG;
/// deterministic given the seed.
#[derive(Debug, Clone)]
pub struct GpuSim {
    device: DeviceParams,
    rng: StdRng,
    launches: u64,
    faults: Arc<FaultInjector>,
}

impl GpuSim {
    /// Creates a simulator for a device with a noise seed.
    pub fn new(device: DeviceParams, seed: u64) -> Self {
        GpuSim {
            device,
            rng: StdRng::seed_from_u64(seed),
            launches: 0,
            faults: FaultInjector::disabled(),
        }
    }

    /// Arms the device with a fault injector: subsequent launches consult
    /// [`gpp_fault::GPU_LAUNCH_TRANSIENT`]. An inactive injector leaves
    /// every code path (and the noise RNG stream) bit-identical to an
    /// unarmed simulator.
    pub fn arm_faults(&mut self, faults: Arc<FaultInjector>) {
        self.faults = faults;
    }

    /// The device description.
    pub fn device(&self) -> &DeviceParams {
        &self.device
    }

    /// Kernel launches so far.
    pub fn launch_count(&self) -> u64 {
        self.launches
    }

    /// Noise-free end-to-end time for a kernel (for tests and averaging
    /// limits).
    pub fn ideal_time(&self, kernel: &KernelInstance) -> f64 {
        let b = time_kernel(&self.device, kernel);
        self.device.launch_overhead + b.cycles / self.device.clock_hz
    }

    /// Launches a kernel: returns its simulated timing with noise.
    pub fn launch(&mut self, kernel: &KernelInstance) -> KernelTiming {
        let breakdown = time_kernel(&self.device, kernel);
        let exec = breakdown.cycles / self.device.clock_hz;
        self.launches += 1;
        // Run-to-run noise: GPU clocks are stable, so this is small and
        // multiplicative, plus sub-microsecond launch jitter.
        let sigma = self.device.noise_rel_sigma;
        let u1: f64 = self.rng.gen_range(1e-12..1.0);
        let u2: f64 = self.rng.gen_range(0.0..std::f64::consts::TAU);
        let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
        let jitter = (0.3e-6 * (-2.0 * u1.ln()).sqrt() * u2.sin()).abs();
        let time =
            (self.device.launch_overhead + exec * (1.0 + sigma * z) + jitter).max(exec * 0.5);
        KernelTiming {
            time,
            ideal_exec: exec,
            breakdown,
        }
    }

    /// Fallible launch: like [`GpuSim::launch`], but an armed fault
    /// injector may fail the attempt with
    /// [`RuntimeError::TransientFault`]. The kernel still ran (the launch
    /// counter and noise RNG advance), only its completion was lost —
    /// exactly how a transient driver error presents.
    pub fn try_launch(&mut self, kernel: &KernelInstance) -> Result<KernelTiming, RuntimeError> {
        let timing = self.launch(kernel);
        if self.faults.is_active() && self.faults.fires(gpp_fault::GPU_LAUNCH_TRANSIENT) {
            return Err(RuntimeError::TransientFault {
                launch: self.launches,
            });
        }
        Ok(timing)
    }

    /// One measurement run: retries transient faults up to
    /// [`MAX_LAUNCH_RETRIES`] times, then gives up and uses the last
    /// attempt's timing (a measurement loop must terminate even under an
    /// `always`-firing plan). With an inactive injector this is exactly
    /// one [`GpuSim::launch`].
    fn launch_measured(&mut self, kernel: &KernelInstance) -> KernelTiming {
        let mut timing = self.launch(kernel);
        if !self.faults.is_active() {
            return timing;
        }
        let mut retries = 0;
        while self.faults.fires(gpp_fault::GPU_LAUNCH_TRANSIENT) && retries < MAX_LAUNCH_RETRIES {
            timing = self.launch(kernel);
            retries += 1;
        }
        timing
    }

    /// Launches a kernel `runs` times and returns the arithmetic-mean time
    /// (the paper's measurement protocol: ten separate runs, §IV-A).
    /// Transient injected faults are retried per run, so a measurement
    /// taken under a sporadic fault plan still reflects completed
    /// launches.
    pub fn mean_time(&mut self, kernel: &KernelInstance, runs: u32) -> f64 {
        let runs = runs.max(1);
        (0..runs)
            .map(|_| self.launch_measured(kernel).time)
            .sum::<f64>()
            / runs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{MemOp, ThreadProgram};

    fn kernel(threads: u64) -> KernelInstance {
        KernelInstance::dense_1d(
            "k",
            threads,
            256,
            ThreadProgram {
                compute_slots: 4.0,
                mem_ops: vec![
                    MemOp::coalesced_load(4, 2.0),
                    MemOp::coalesced_store(4, 1.0),
                ],
                syncs: 0,
                active_fraction: 1.0,
            },
        )
    }

    #[test]
    fn launch_overhead_floors_small_kernels() {
        let sim = GpuSim::new(DeviceParams::quadro_fx_5600().quiet(), 1);
        let t = sim.ideal_time(&kernel(32));
        assert!(t >= sim.device().launch_overhead);
        assert!(t < 2.0 * sim.device().launch_overhead + 1e-3);
    }

    #[test]
    fn large_kernel_time_scales_roughly_linearly() {
        let sim = GpuSim::new(DeviceParams::quadro_fx_5600().quiet(), 1);
        let t1 = sim.ideal_time(&kernel(1 << 20));
        let t16 = sim.ideal_time(&kernel(1 << 24));
        let ratio = (t16 - sim.device().launch_overhead) / (t1 - sim.device().launch_overhead);
        assert!((14.0..18.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn seeded_determinism() {
        let mut a = GpuSim::new(DeviceParams::quadro_fx_5600(), 9);
        let mut b = GpuSim::new(DeviceParams::quadro_fx_5600(), 9);
        assert_eq!(
            a.launch(&kernel(1 << 20)).time,
            b.launch(&kernel(1 << 20)).time
        );
        assert_eq!(a.launch_count(), 1);
    }

    #[test]
    fn mean_time_converges_to_ideal() {
        let mut sim = GpuSim::new(DeviceParams::quadro_fx_5600(), 3);
        let ideal = sim.ideal_time(&kernel(1 << 22));
        let mean = sim.mean_time(&kernel(1 << 22), 50);
        assert!((mean / ideal - 1.0).abs() < 0.03, "{mean} vs {ideal}");
    }

    #[test]
    fn armed_empty_plan_is_bit_identical_to_unarmed() {
        let k = kernel(1 << 20);
        let mut plain = GpuSim::new(DeviceParams::quadro_fx_5600(), 9);
        let mut armed = GpuSim::new(DeviceParams::quadro_fx_5600(), 9);
        armed.arm_faults(FaultInjector::disabled());
        for _ in 0..5 {
            assert_eq!(
                plain.launch(&k).time.to_bits(),
                armed.try_launch(&k).unwrap().time.to_bits()
            );
        }
        assert_eq!(
            plain.mean_time(&k, 10).to_bits(),
            armed.mean_time(&k, 10).to_bits()
        );
    }

    #[test]
    fn transient_faults_fail_try_launch_per_plan() {
        let plan: gpp_fault::FaultPlan = "gpu.launch.transient:every=2".parse().unwrap();
        let mut sim = GpuSim::new(DeviceParams::quadro_fx_5600(), 9);
        sim.arm_faults(std::sync::Arc::new(FaultInjector::new(plan)));
        let k = kernel(1 << 20);
        assert!(sim.try_launch(&k).is_ok());
        let err = sim.try_launch(&k).unwrap_err();
        assert_eq!(err, RuntimeError::TransientFault { launch: 2 });
        assert!(err.to_string().contains("transient device fault"));
    }

    #[test]
    fn mean_time_retries_through_sporadic_transients() {
        let plan: gpp_fault::FaultPlan = "seed=4;gpu.launch.transient:p=0.3".parse().unwrap();
        let mut sim = GpuSim::new(DeviceParams::quadro_fx_5600(), 3);
        sim.arm_faults(std::sync::Arc::new(FaultInjector::new(plan)));
        let k = kernel(1 << 22);
        let ideal = sim.ideal_time(&k);
        let mean = sim.mean_time(&k, 50);
        assert!((mean / ideal - 1.0).abs() < 0.05, "{mean} vs {ideal}");
        assert!(sim.launch_count() > 50, "retries should add launches");
    }

    #[test]
    fn mean_time_terminates_under_always_firing_plan() {
        let plan: gpp_fault::FaultPlan = "gpu.launch.transient:always".parse().unwrap();
        let mut sim = GpuSim::new(DeviceParams::quadro_fx_5600(), 3);
        sim.arm_faults(std::sync::Arc::new(FaultInjector::new(plan)));
        let t = sim.mean_time(&kernel(1 << 20), 3);
        assert!(t.is_finite() && t > 0.0);
        assert_eq!(
            sim.launch_count(),
            3 * (u64::from(MAX_LAUNCH_RETRIES) + 1),
            "each run retries exactly the budget"
        );
    }

    #[test]
    fn vector_add_sanity_vs_paper_background() {
        // §II-B: vector addition on a Quadro FX 5600 is bandwidth-bound at
        // ~77 GB/s peak. 2 × 16M-float inputs + 1 output = 192 MB; the
        // kernel should take ~3 ms (192 MB / ~60 GB/s effective).
        let sim = GpuSim::new(DeviceParams::quadro_fx_5600().quiet(), 1);
        let k = KernelInstance::dense_1d(
            "vadd",
            1 << 24,
            256,
            ThreadProgram {
                compute_slots: 1.0,
                mem_ops: vec![
                    MemOp::coalesced_load(4, 2.0),
                    MemOp::coalesced_store(4, 1.0),
                ],
                syncs: 0,
                active_fraction: 1.0,
            },
        );
        let t = sim.ideal_time(&k);
        assert!((2.5e-3..4.5e-3).contains(&t), "t = {t}");
    }

    #[test]
    fn faster_device_is_faster() {
        let g80 = GpuSim::new(DeviceParams::quadro_fx_5600().quiet(), 1);
        let gt200 = GpuSim::new(DeviceParams::tesla_c1060().quiet(), 1);
        let k = kernel(1 << 24);
        assert!(gt200.ideal_time(&k) < g80.ideal_time(&k));
    }
}
