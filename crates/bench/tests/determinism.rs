//! The projection engine's central guarantee: the search a user's
//! projection runs is bit-identical to the exhaustive oracle
//! (`project_all`) at any thread count, and the application projection
//! does not depend on the thread count either.
//!
//! `Debug` for `f64` prints the shortest string that round-trips, so two
//! projections render identically iff every float in them has the same
//! bits.

use gpp_gpu_model::{project_all, project_best};
use gpp_workloads::paper_cases;
use grophecy::machine::MachineConfig;
use grophecy::projector::Grophecy;

const SEED: u64 = 2013;

#[test]
fn projections_are_bit_identical_across_thread_counts() {
    let machine = MachineConfig::anl_eureka_node(SEED);
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);
    let spec = &machine.gpu_spec;

    for case in paper_cases() {
        gpp_par::set_threads(1);
        let app_reference = format!("{:?}", gro.project(&case.program, &case.hints));
        for threads in [1, 2, 8] {
            gpp_par::set_threads(threads);
            for kernel in &case.program.kernels {
                for axis in kernel.axis_candidates() {
                    let chars = kernel.characteristics_with_axis(&case.program, axis);
                    let (oracle, _) = project_all(&kernel.name, &chars, spec);
                    assert_eq!(
                        format!("{:?}", project_best(&kernel.name, &chars, spec)),
                        format!("{oracle:?}"),
                        "{} {} kernel {} axis {axis:?}: search at {threads} threads \
                         diverged from the oracle",
                        case.app,
                        case.dataset,
                        kernel.name,
                    );
                }
            }
            assert_eq!(
                format!("{:?}", gro.project(&case.program, &case.hints)),
                app_reference,
                "{} {}: projection at {threads} threads diverged from serial",
                case.app,
                case.dataset
            );
        }
        gpp_par::set_threads(0);
    }
}

/// The fault-injection hooks must be invisible when no plan is armed: an
/// empty plan routed through the fault-aware calibration path must yield
/// a projector and projections bit-identical to the plain path — same RNG
/// draws, same floats, same everything.
#[test]
fn empty_fault_plan_is_bit_identical_to_plain_path() {
    use gpp_fault::{FaultInjector, FaultPlan};
    use std::sync::Arc;

    let machine = MachineConfig::anl_eureka_node(SEED);

    let mut plain_node = machine.node();
    let plain = Grophecy::calibrate(&machine, &mut plain_node);

    let mut faulty_node = machine.node();
    let injector = Arc::new(FaultInjector::new(FaultPlan::empty()));
    let faulty = Grophecy::try_calibrate(&machine, &mut faulty_node, injector.clone())
        .expect("empty plan cannot fail calibration");

    assert_eq!(injector.total_fired(), 0);
    assert_eq!(
        plain.pcie_model().h2d.alpha.to_bits(),
        faulty.pcie_model().h2d.alpha.to_bits()
    );
    assert_eq!(
        plain.pcie_model().h2d.beta.to_bits(),
        faulty.pcie_model().h2d.beta.to_bits()
    );
    assert_eq!(
        plain.pcie_model().d2h.alpha.to_bits(),
        faulty.pcie_model().d2h.alpha.to_bits()
    );
    assert_eq!(
        plain.pcie_model().d2h.beta.to_bits(),
        faulty.pcie_model().d2h.beta.to_bits()
    );

    for case in paper_cases() {
        let want = format!("{:?}", plain.project(&case.program, &case.hints));
        let got = format!("{:?}", faulty.project(&case.program, &case.hints));
        assert_eq!(
            got, want,
            "{} {}: projection through the empty-plan path diverged",
            case.app, case.dataset
        );
    }
}
