//! Cross-crate pipeline tests: skeleton → analysis → projection →
//! measurement, exercised through the umbrella crate's public API.

use grophecy_plus_plus::core::machine::MachineConfig;
use grophecy_plus_plus::core::measurement::{cpu_work, measure};
use grophecy_plus_plus::core::projector::Grophecy;
use grophecy_plus_plus::datausage::{analyze, Hints};
use grophecy_plus_plus::skeleton::builder::{idx, ProgramBuilder};
use grophecy_plus_plus::skeleton::{ElemType, Flops, Program};

fn saxpy(n: usize) -> Program {
    let mut p = ProgramBuilder::new("saxpy");
    let x = p.array("x", ElemType::F32, &[n]);
    let y = p.array("y", ElemType::F32, &[n]);
    let mut k = p.kernel("saxpy");
    let i = k.parallel_loop("i", n as u64);
    k.statement()
        .read(x, &[idx(i)])
        .read(y, &[idx(i)])
        .write(y, &[idx(i)])
        .flops(Flops {
            adds: 1,
            muls: 1,
            ..Flops::default()
        })
        .finish();
    k.finish();
    p.build().unwrap()
}

#[test]
fn umbrella_crate_reexports_work_end_to_end() {
    let machine = MachineConfig::anl_eureka_node(3);
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);
    let program = saxpy(1 << 22);
    let proj = gro.project(&program, &Hints::new());
    let meas = measure(&mut node, &program, &proj);
    assert!(proj.total_time(1) > 0.0);
    assert!(meas.total_time(1) > 0.0);
    // saxpy reads x fully, reads+writes y: 2 arrays in, 1 out.
    assert_eq!(proj.plan.h2d.len(), 2);
    assert_eq!(proj.plan.d2h.len(), 1);
}

#[test]
fn projection_scales_linearly_with_data_size() {
    let machine = MachineConfig::anl_eureka_node(3).quiet();
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);
    let small = gro.project(&saxpy(1 << 20), &Hints::new());
    let big = gro.project(&saxpy(1 << 24), &Hints::new());
    let ratio = big.transfer_time / small.transfer_time;
    assert!((10.0..17.0).contains(&ratio), "transfer ratio {ratio}");
    let kratio = big.kernel_time / small.kernel_time;
    assert!((8.0..17.0).contains(&kratio), "kernel ratio {kratio}");
}

#[test]
fn cpu_work_is_consistent_across_paper_workloads() {
    for case in gpp_workloads::paper_cases() {
        let w = cpu_work(&case.program);
        assert!(w.flops > 0.0, "{}: no CPU work", case.app);
        assert!(w.dram_bytes > 0.0);
        assert!(w.working_set > 0);
        assert_eq!(w.invocations as usize, case.program.kernels.len());
    }
}

#[test]
fn batched_plan_never_moves_fewer_bytes() {
    for case in gpp_workloads::paper_cases() {
        let plan = analyze(&case.program, &case.hints);
        let batched = plan.batched();
        assert_eq!(plan.total_bytes(), batched.total_bytes());
        assert!(batched.transfer_count() <= plan.transfer_count());
    }
}

#[test]
fn cross_machine_projection_pcie_v2_closes_the_gap() {
    // On a PCIe v2 + GT200 machine, transfers shrink: the projected
    // speedups must improve for every transfer-bound workload.
    let old = MachineConfig::anl_eureka_node(3);
    let new = MachineConfig::pcie_v2_gt200_node(3);
    let mut old_node = old.node();
    let mut new_node = new.node();
    let gro_old = Grophecy::calibrate(&old, &mut old_node);
    let gro_new = Grophecy::calibrate(&new, &mut new_node);
    for case in gpp_workloads::paper_cases() {
        let p_old = gro_old.project(&case.program, &case.hints);
        let p_new = gro_new.project(&case.program, &case.hints);
        assert!(
            p_new.transfer_time < p_old.transfer_time,
            "{}: v2 transfers not faster",
            case.app
        );
        assert!(
            p_new.total_time(1) < p_old.total_time(1),
            "{}: newer machine not faster overall",
            case.app
        );
    }
}
