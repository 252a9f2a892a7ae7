//! Speedup accounting and error analysis (§IV-A, §V).
//!
//! "The GPU speedup is the total CPU time divided by the total GPU time."
//! Predictions divide the *measured* CPU time by the *predicted* GPU time;
//! the paper compares three predictors (Table II):
//!
//! * kernel-only — plain GROPHECY,
//! * transfer-only — the PCIe model alone,
//! * kernel + transfer — GROPHECY++.

use crate::measurement::AppMeasurement;
use crate::projector::AppProjection;
use gpp_pcie::error_magnitude;

/// The complete speedup comparison for one application + data size.
#[derive(Debug, Clone)]
pub struct SpeedupReport {
    /// Application name.
    pub app: String,
    /// Data-size label ("1024 x 1024", "97K", ...).
    pub dataset: String,
    /// Iteration count the report is evaluated at.
    pub iters: u32,
    /// Measured speedup.
    pub measured: f64,
    /// Predicted speedup, kernel time only.
    pub predicted_kernel_only: f64,
    /// Predicted speedup, transfer time only.
    pub predicted_transfer_only: f64,
    /// Predicted speedup, kernel + transfer (GROPHECY++).
    pub predicted_combined: f64,
    /// Error magnitude (%) of the kernel-time prediction itself.
    pub kernel_time_error: f64,
    /// Error magnitude (%) of the transfer-time prediction itself.
    pub transfer_time_error: f64,
}

impl SpeedupReport {
    /// Builds the report from a projection and a measurement.
    pub fn build(
        app: impl Into<String>,
        dataset: impl Into<String>,
        projection: &AppProjection,
        measurement: &AppMeasurement,
        iters: u32,
    ) -> Self {
        let cpu = measurement.cpu_total(iters);
        SpeedupReport {
            app: app.into(),
            dataset: dataset.into(),
            iters,
            measured: measurement.speedup(iters),
            predicted_kernel_only: projection.speedup_kernel_only(cpu, iters),
            predicted_transfer_only: projection.speedup_transfer_only(cpu, iters),
            predicted_combined: projection.speedup(cpu, iters),
            kernel_time_error: error_magnitude(projection.kernel_time, measurement.kernel_time),
            transfer_time_error: error_magnitude(
                projection.transfer_time,
                measurement.transfer_time,
            ),
        }
    }

    /// Error magnitude (%) of the kernel-only speedup prediction
    /// (Table II, column 1).
    pub fn error_kernel_only(&self) -> f64 {
        error_magnitude(self.predicted_kernel_only, self.measured)
    }

    /// Error magnitude (%) of the transfer-only prediction (column 2).
    pub fn error_transfer_only(&self) -> f64 {
        error_magnitude(self.predicted_transfer_only, self.measured)
    }

    /// Error magnitude (%) of the combined prediction (column 3).
    pub fn error_combined(&self) -> f64 {
        error_magnitude(self.predicted_combined, self.measured)
    }

    /// True if the prediction got the port/don't-port decision right —
    /// the Stassuij test (§V-B-4): is the speedup on the same side
    /// of 1.0?
    pub fn verdict_correct(&self, predicted: f64) -> bool {
        (predicted >= 1.0) == (self.measured >= 1.0)
    }
}

/// A speedup-vs-iterations sweep (Figures 8, 10, 12).
#[derive(Debug, Clone)]
pub struct SpeedupSeries {
    /// Application name.
    pub app: String,
    /// Data-size label.
    pub dataset: String,
    /// `(iters, measured, predicted_with_transfer, predicted_without)`.
    pub points: Vec<SeriesPoint>,
}

/// One point of an iteration sweep.
#[derive(Debug, Clone, Copy)]
pub struct SeriesPoint {
    /// Iteration count.
    pub iters: u32,
    /// Measured speedup.
    pub measured: f64,
    /// GROPHECY++ prediction (with transfer time).
    pub with_transfer: f64,
    /// Plain GROPHECY prediction (kernel only).
    pub without_transfer: f64,
}

impl SpeedupSeries {
    /// Sweeps iteration counts.
    pub fn sweep(
        app: impl Into<String>,
        dataset: impl Into<String>,
        projection: &AppProjection,
        measurement: &AppMeasurement,
        iters: impl IntoIterator<Item = u32>,
    ) -> Self {
        let points = iters
            .into_iter()
            .map(|n| {
                let cpu = measurement.cpu_total(n);
                SeriesPoint {
                    iters: n,
                    measured: measurement.speedup(n),
                    with_transfer: projection.speedup(cpu, n),
                    without_transfer: projection.speedup_kernel_only(cpu, n),
                }
            })
            .collect();
        SpeedupSeries {
            app: app.into(),
            dataset: dataset.into(),
            points,
        }
    }

    /// The asymptotic (infinite-iteration) limit of each curve:
    /// transfers amortize away, so measured → cpu/kernel_meas and both
    /// predictions → cpu/kernel_pred.
    pub fn limit(projection: &AppProjection, measurement: &AppMeasurement) -> SeriesPoint {
        SeriesPoint {
            iters: u32::MAX,
            measured: measurement.cpu_time / measurement.kernel_time,
            with_transfer: measurement.cpu_time / projection.kernel_time,
            without_transfer: measurement.cpu_time / projection.kernel_time,
        }
    }

    /// The largest iteration count at which the transfer-aware prediction
    /// is at least twice as accurate (error magnitude at most half) as the
    /// kernel-only one — the paper's headline claim for Figures 8/10/12.
    pub fn twice_as_accurate_until(&self) -> Option<u32> {
        self.points
            .iter()
            .take_while(|p| {
                let e_with = (p.with_transfer - p.measured).abs();
                let e_without = (p.without_transfer - p.measured).abs();
                e_with * 2.0 <= e_without
            })
            .map(|p| p.iters)
            .last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::measurement::measure;
    use crate::projector::Grophecy;
    use gpp_datausage::Hints;
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::{ElemType, Flops, Program};

    fn stencil(n: usize) -> Program {
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
                adds: 8,
                muls: 4,
                divs: 1,
                ..Flops::default()
            })
            .finish();
        k.finish();
        p.build().unwrap()
    }

    fn full_run(n: usize) -> (crate::projector::AppProjection, AppMeasurement) {
        let machine = MachineConfig::anl_eureka_node(21);
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        let program = stencil(n);
        let proj = gro.project(&program, &Hints::new());
        let meas = measure(&mut node, &program, &proj);
        (proj, meas)
    }

    #[test]
    fn combined_prediction_beats_kernel_only() {
        let (proj, meas) = full_run(1024);
        let r = SpeedupReport::build("stencil", "1024", &proj, &meas, 1);
        assert!(
            r.error_combined() < r.error_kernel_only(),
            "combined {} vs kernel-only {}",
            r.error_combined(),
            r.error_kernel_only()
        );
        // Kernel-only grossly overpredicts (transfer dominates).
        assert!(r.predicted_kernel_only > 2.0 * r.measured);
    }

    #[test]
    fn sweep_converges_with_iterations() {
        let (proj, meas) = full_run(512);
        let s = SpeedupSeries::sweep("stencil", "512", &proj, &meas, [1, 2, 4, 16, 64, 256]);
        assert_eq!(s.points.len(), 6);
        // With more iterations, the two predictions converge.
        let gap = |p: &SeriesPoint| (p.with_transfer - p.without_transfer).abs();
        assert!(gap(&s.points[5]) < gap(&s.points[0]) * 0.1);
        // Measured speedup grows with iterations (transfer amortizes).
        assert!(s.points[5].measured > s.points[0].measured);
        // And approaches the limit.
        let lim = SpeedupSeries::limit(&proj, &meas);
        assert!((s.points[5].measured - lim.measured).abs() / lim.measured < 0.1);
    }

    #[test]
    fn transfer_aware_is_twice_as_accurate_for_a_while() {
        let (proj, meas) = full_run(1024);
        let s = SpeedupSeries::sweep("stencil", "1024", &proj, &meas, [1, 2, 4, 8, 16, 32, 64]);
        let until = s.twice_as_accurate_until();
        assert!(until.is_some(), "transfer-aware never 2x better");
        assert!(until.unwrap() >= 4, "only until {:?}", until);
    }

    #[test]
    fn verdict_check() {
        let (proj, meas) = full_run(512);
        let r = SpeedupReport::build("stencil", "512", &proj, &meas, 1);
        assert!(r.verdict_correct(r.measured));
        assert!(!r.verdict_correct(if r.measured >= 1.0 { 0.5 } else { 2.0 }));
    }
}
