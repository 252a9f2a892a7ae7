//! The full evaluation run: all applications × data sizes on the
//! simulated Argonne node (Tables I & II, Figures 5–12).

use gpp_workloads::{paper_cases, WorkloadCase};
use grophecy::machine::MachineConfig;
use grophecy::measurement::{measure, AppMeasurement};
use grophecy::projector::{AppProjection, Grophecy};
use grophecy::speedup::{SpeedupReport, SpeedupSeries};
use grophecy::MachineRegistry;

/// The seed every headline experiment uses ("the day we measured").
pub const EVAL_SEED: u64 = 2013;

/// One application × data-size result.
pub struct CaseResult {
    /// Application name.
    pub app: &'static str,
    /// Data-size label.
    pub dataset: String,
    /// The GROPHECY++ projection.
    pub projection: AppProjection,
    /// The simulated-hardware measurement.
    pub measurement: AppMeasurement,
}

impl CaseResult {
    /// The Table II row at one iteration.
    pub fn speedup_report(&self) -> SpeedupReport {
        SpeedupReport::build(
            self.app,
            &self.dataset,
            &self.projection,
            &self.measurement,
            1,
        )
    }

    /// An iteration sweep (Figures 8/10/12).
    pub fn sweep(&self, iters: impl IntoIterator<Item = u32>) -> SpeedupSeries {
        SpeedupSeries::sweep(
            self.app,
            &self.dataset,
            &self.projection,
            &self.measurement,
            iters,
        )
    }
}

/// The whole evaluation.
pub struct Evaluation {
    /// The modeled machine.
    pub machine: MachineConfig,
    /// All ten cases, Table I order.
    pub cases: Vec<CaseResult>,
}

/// Runs the complete evaluation: calibrate GROPHECY++ once on the
/// machine, then project + measure every workload case.
pub fn evaluate_all(seed: u64) -> Evaluation {
    let machine = MachineConfig::anl_eureka_node(seed);
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);
    let cases_in = paper_cases();
    // Projections are pure and independent — fan them out on the shared
    // pool. Measurements consume the node's RNG stream, so they run
    // serially afterwards, in Table I order, keeping every sampled value
    // identical to the sequential evaluation.
    let projections = gpp_par::par_map(cases_in.len(), |i| {
        gro.project(&cases_in[i].program, &cases_in[i].hints)
    });
    let cases = cases_in
        .into_iter()
        .zip(projections)
        .map(
            |(
                WorkloadCase {
                    app,
                    dataset,
                    program,
                    hints: _,
                },
                projection,
            )| {
                let measurement = measure(&mut node, &program, &projection);
                CaseResult {
                    app,
                    dataset,
                    projection,
                    measurement,
                }
            },
        )
        .collect();
    Evaluation { machine, cases }
}

impl Evaluation {
    /// Finds a case by app name and dataset substring.
    pub fn case(&self, app: &str, dataset: &str) -> &CaseResult {
        self.cases
            .iter()
            .find(|c| c.app == app && c.dataset.contains(dataset))
            .unwrap_or_else(|| panic!("no case {app}/{dataset}"))
    }

    /// Average error in the predicted speedup, weighting each application
    /// equally (Table II's bottom row), for a chosen predictor.
    pub fn average_error_by_app(&self, f: impl Fn(&SpeedupReport) -> f64) -> f64 {
        let apps = ["CFD", "HotSpot", "SRAD", "Stassuij"];
        let mut total = 0.0;
        for app in apps {
            let errs: Vec<f64> = self
                .cases
                .iter()
                .filter(|c| c.app == app)
                .map(|c| f(&c.speedup_report()))
                .collect();
            total += errs.iter().sum::<f64>() / errs.len() as f64;
        }
        total / apps.len() as f64
    }

    /// Average error weighting each data set equally (the other Table II
    /// average).
    pub fn average_error_by_dataset(&self, f: impl Fn(&SpeedupReport) -> f64) -> f64 {
        let errs: Vec<f64> = self.cases.iter().map(|c| f(&c.speedup_report())).collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// Cross-machine comparison (paper §VII: "validate our model on a wider
/// range of ... hardware systems"): run the projection for the paper's
/// node and a PCIe v2 + GT200 node, and report how each workload's
/// projected bottleneck shifts.
pub fn cross_machine(seed: u64) -> String {
    cross_fleet(&MachineRegistry::builtin(), seed)
}

/// [`cross_machine`] over an arbitrary fleet: one column per registered
/// machine, in registry (name) order. Each cell also reports `hr` — the
/// transfer headroom the linter's fix-its would recover on that machine
/// (0.00 when the schedule is already optimal) — and `ov`, the
/// overlap-vs-serial delta a 4-chunk pipelined schedule would realize.
/// Multi-device machines append a `splitD` column with the data-parallel
/// split's straggler-bound total.
pub fn cross_fleet(registry: &MachineRegistry, seed: u64) -> String {
    use gpp_datausage::Hints;
    use std::fmt::Write as _;
    let machines: Vec<MachineConfig> = registry.iter().map(|m| m.clone().with_seed(seed)).collect();
    let cases = paper_cases();
    // The fix-it rewrite is machine-independent: compute it once per case.
    let optimized: Vec<_> = cases
        .iter()
        .map(|c| {
            let src = gpp_skeleton::text::to_text(&c.program);
            let cfg = gpp_lint::LintConfig::new();
            let (fixed, n) = gpp_lint::fix_until_stable(&src, "case.gsk", &cfg).ok()?;
            if n == 0 {
                return None;
            }
            gpp_skeleton::text::parse(&fixed).ok()
        })
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for m in &machines {
        let mut node = m.node();
        let gro = Grophecy::calibrate(m, &mut node);
        let projs = gpp_par::par_map(cases.len(), |i| {
            gro.project(&cases[i].program, &cases[i].hints)
        });
        for (k, (case, proj)) in cases.iter().zip(&projs).enumerate() {
            if rows.len() <= k {
                rows.push(vec![format!("{:<9} {:>14}", case.app, case.dataset)]);
            }
            let headroom = optimized[k].as_ref().map_or(0.0, |opt| {
                let w = gro
                    .project(&case.program, &Hints::for_program(&case.program))
                    .total_time(1);
                let o = gro.project(opt, &Hints::for_program(opt)).total_time(1);
                (w - o).max(0.0)
            });
            let mut cell = format!(
                "{}: {:>8.2}ms kern + {:>8.2}ms xfer ({:>2.0}%) hr {:>6.2}ms",
                m.id,
                proj.kernel_time * 1e3,
                proj.transfer_time * 1e3,
                100.0 * proj.transfer_time / proj.total_time(1),
                headroom * 1e3
            );
            // Overlap-vs-serial delta: what pipelining the whole transfer
            // volume against the compute in 4 chunks would save over the
            // serial schedule.
            let serial = proj.kernel_time + proj.transfer_time;
            let overlapped = gpp_pcie::pipelined_window(proj.transfer_time, proj.kernel_time, 4);
            let _ = write!(cell, " ov {:>6.2}ms", (serial - overlapped) * 1e3);
            if let Some(mg) = &proj.multi_gpu {
                let _ = write!(
                    cell,
                    " split{} {:>8.2}ms",
                    mg.device_count(),
                    mg.total_time(1) * 1e3
                );
            }
            rows[k].push(cell);
        }
    }
    let mut s = String::new();
    let names: Vec<String> = machines
        .iter()
        .map(|m| format!("{} ({})", m.gpu_spec.name, m.id))
        .collect();
    let _ = writeln!(s, "CROSS-MACHINE PROJECTION — {}", names.join(" vs "));
    for r in rows {
        let _ = writeln!(s, "{}  | {}", r[0], r[1..].join(" | "));
    }
    s.push_str(
        "faster links shrink the transfer share, but it stays substantial —
the paper's conclusion survives a hardware generation.
",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_produces_ten_cases() {
        let ev = evaluate_all(EVAL_SEED);
        assert_eq!(ev.cases.len(), 10);
    }

    #[test]
    fn cross_machine_report_covers_everything() {
        let s = cross_machine(EVAL_SEED);
        assert!(s.contains("Quadro FX 5600 (eureka)") && s.contains("Tesla C1060 (v2)"));
        assert_eq!(s.lines().count(), 1 + 10 + 2);
    }

    #[test]
    fn multi_device_machines_gain_a_split_column() {
        let mut registry = MachineRegistry::builtin();
        let mut dual = grophecy::MachineConfig::anl_eureka_node(0);
        dual.id = "dual".to_string();
        dual.devices.push(grophecy::machine::DeviceLink {
            id: 1,
            bus: gpp_pcie::BusParams::pcie_v2_x16(),
        });
        registry.insert(dual);
        let s = cross_fleet(&registry, EVAL_SEED);
        let row = s.lines().nth(1).unwrap();
        let dual_cell = row.split(" | ").find(|c| c.starts_with("dual:")).unwrap();
        assert!(dual_cell.contains(" split2 "), "{dual_cell}");
        assert!(dual_cell.contains(" ov "), "{dual_cell}");
        // Single-device columns carry the overlap delta but no split.
        let eureka = row.split(" | ").find(|c| c.starts_with("eureka:")).unwrap();
        assert!(
            eureka.contains(" ov ") && !eureka.contains("split"),
            "{eureka}"
        );
    }

    #[test]
    fn cross_fleet_grows_a_column_per_registered_machine() {
        let mut registry = MachineRegistry::builtin();
        let mut third = grophecy::MachineConfig::anl_eureka_node(0);
        third.id = "copy".to_string();
        registry.insert(third);
        let s = cross_fleet(&registry, EVAL_SEED);
        let row = s.lines().nth(1).unwrap();
        assert_eq!(row.matches(" | ").count(), 3, "{row}");
        assert!(row.contains("copy:") && row.contains("eureka:") && row.contains("v2:"));
        // The copy is eureka under another name: identical projections.
        let eureka = row.split(" | ").find(|c| c.starts_with("eureka:")).unwrap();
        let copy = row.split(" | ").find(|c| c.starts_with("copy:")).unwrap();
        assert_eq!(
            eureka.trim_start_matches("eureka:"),
            copy.trim_start_matches("copy:")
        );
    }
}
