//! Ablation studies for the design decisions called out in DESIGN.md.

use gpp_datausage::analyze;
use gpp_pcie::{BusParams, BusSimulator, Calibrator, Direction, MemType, PiecewiseModel};
use gpp_workloads::{paper_cases, srad::Srad};

/// D1 — linear (2-point) vs piecewise (30-point) PCIe model accuracy on a
/// held-out sweep. Returns `(linear_mean_err_pct, piecewise_mean_err_pct,
/// linear_points, piecewise_points)`.
pub fn pcie_model_ablation(seed: u64) -> (f64, f64, usize, usize) {
    use gpp_pcie::Bus;
    let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), seed);
    let linear = Calibrator::default().calibrate(&mut bus);
    let piecewise = PiecewiseModel::calibrate(
        &mut bus,
        Direction::HostToDevice,
        MemType::Pinned,
        0,
        29,
        10,
    );

    // Held-out validation points: odd sizes, not powers of two, above the
    // paper's "errors vanish above 1 KB" regime.
    let sizes = [3_000u64, 50_000, 777_777, 5 << 20, 123 << 20];
    let mut lin_pairs = Vec::new();
    let mut pw_pairs = Vec::new();
    for &bytes in &sizes {
        let meas: f64 = (0..10)
            .map(|_| bus.transfer(bytes, Direction::HostToDevice, MemType::Pinned))
            .sum::<f64>()
            / 10.0;
        lin_pairs.push((linear.h2d.predict(bytes), meas));
        pw_pairs.push((piecewise.predict(bytes), meas));
    }
    (
        gpp_pcie::mean_error_magnitude(&lin_pairs),
        gpp_pcie::mean_error_magnitude(&pw_pairs),
        2, // calibration points the linear model needed
        piecewise.knot_count(),
    )
}

/// D2 — projecting with the wrong memory type: how far off is a pinned
/// projection if the port actually uses pageable memory? Returns the mean
/// % error across the paper's workload transfer sizes.
pub fn memtype_ablation(seed: u64) -> f64 {
    use gpp_pcie::Bus;
    let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), seed);
    let pinned_model = Calibrator::default().calibrate(&mut bus);
    let mut pairs = Vec::new();
    for case in paper_cases() {
        let plan = analyze(&case.program, &case.hints);
        for t in plan.all() {
            let dir = match t.dir {
                gpp_datausage::TransferDir::ToDevice => Direction::HostToDevice,
                gpp_datausage::TransferDir::FromDevice => Direction::DeviceToHost,
            };
            let meas: f64 = (0..10)
                .map(|_| bus.transfer(t.bytes, dir, MemType::Pageable))
                .sum::<f64>()
                / 10.0;
            pairs.push((pinned_model.predict(t.bytes, dir), meas));
        }
    }
    gpp_pcie::mean_error_magnitude(&pairs)
}

/// D3 — per-array vs batched transfers: α savings for every paper case.
/// Returns `(case_label, separate_s, batched_s)` rows under the
/// calibrated linear model.
pub fn batching_ablation(seed: u64) -> Vec<(String, f64, f64)> {
    let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), seed);
    let model = Calibrator::default().calibrate(&mut bus);
    let predict = |plan: &gpp_datausage::TransferPlan| -> f64 {
        plan.all()
            .map(|t| {
                let dir = match t.dir {
                    gpp_datausage::TransferDir::ToDevice => Direction::HostToDevice,
                    gpp_datausage::TransferDir::FromDevice => Direction::DeviceToHost,
                };
                model.predict(t.bytes, dir)
            })
            .sum()
    };
    paper_cases()
        .into_iter()
        .map(|case| {
            let plan = analyze(&case.program, &case.hints);
            let label = format!("{} {}", case.app, case.dataset);
            (label, predict(&plan), predict(&plan.batched()))
        })
        .collect()
}

/// D5 — the temporaries hint: extra transfer seconds per SRAD size when
/// the hint is forgotten. Returns `(n, with_hint_s, without_hint_s)`.
pub fn hints_ablation(seed: u64) -> Vec<(usize, f64, f64)> {
    let mut bus = BusSimulator::new(BusParams::pcie_v1_x16(), seed);
    let model = Calibrator::default().calibrate(&mut bus);
    Srad::PAPER_SIZES
        .iter()
        .map(|&n| {
            let s = Srad { n };
            let with = analyze(&s.program(), &s.hints());
            let without = analyze(&s.program(), &gpp_datausage::Hints::new());
            let time = |plan: &gpp_datausage::TransferPlan| -> f64 {
                plan.all()
                    .map(|t| {
                        let dir = match t.dir {
                            gpp_datausage::TransferDir::ToDevice => Direction::HostToDevice,
                            gpp_datausage::TransferDir::FromDevice => Direction::DeviceToHost,
                        };
                        model.predict(t.bytes, dir)
                    })
                    .sum()
            };
            (n, time(&with), time(&without))
        })
        .collect()
}

/// Renders every ablation as text.
pub fn render(seed: u64) -> String {
    let mut s = String::new();
    let (lin, pw, lin_pts, pw_pts) = pcie_model_ablation(seed);
    s.push_str("ABLATION D1 — linear vs piecewise PCIe model (held-out sizes)\n");
    s.push_str(&format!(
        "  linear ({lin_pts} calibration points): {lin:.2}% mean error\n  piecewise ({pw_pts} points): {pw:.2}% mean error\n",
    ));

    s.push_str("ABLATION D2 — pinned-calibrated model predicting pageable transfers\n");
    s.push_str(&format!("  mean error: {:.0}%\n", memtype_ablation(seed)));

    s.push_str("ABLATION D3 — per-array vs batched transfers (predicted seconds)\n");
    for (label, sep, bat) in batching_ablation(seed) {
        s.push_str(&format!(
            "  {:<22} separate {:>9.3} ms   batched {:>9.3} ms   saved {:>5.1}%\n",
            label,
            sep * 1e3,
            bat * 1e3,
            (sep - bat) / sep * 100.0
        ));
    }

    s.push_str("ABLATION D5 — SRAD temporaries hint\n");
    for (n, with, without) in hints_ablation(seed) {
        s.push_str(&format!(
            "  {n}x{n}: with hint {:.2} ms, without {:.2} ms (+{:.0}%)\n",
            with * 1e3,
            without * 1e3,
            (without - with) / with * 100.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_is_nearly_as_good_as_piecewise() {
        // The paper's claim: two calibration points suffice.
        let (lin, pw, lin_pts, pw_pts) = pcie_model_ablation(5);
        assert!(lin < pw + 4.0, "linear {lin}% vs piecewise {pw}%");
        assert!(lin < 8.0);
        assert!(lin_pts < pw_pts);
    }

    #[test]
    fn wrong_memtype_assumption_is_costly() {
        // Pageable is ~40-80% slower: assuming pinned badly underpredicts.
        let err = memtype_ablation(5);
        assert!(err > 20.0, "err {err}");
    }

    #[test]
    fn batching_saves_little_on_large_transfers() {
        // The paper calls batching "a minor performance benefit": α is
        // microseconds, the workloads move megabytes. Only the tiny
        // HotSpot 64x64 case (tens-of-KB transfers) sees a double-digit
        // saving.
        for (label, sep, bat) in batching_ablation(5) {
            let saved = (sep - bat) / sep;
            assert!(bat <= sep);
            if sep > 1e-3 {
                assert!(saved < 0.05, "{label}: saved {saved}");
            } else {
                assert!(saved < 0.35, "{label}: saved {saved}");
            }
        }
    }

    #[test]
    fn forgetting_the_temporary_hint_costs_transfer_time() {
        for (_, with, without) in hints_ablation(5) {
            assert!(without > with * 1.3);
        }
    }
}
