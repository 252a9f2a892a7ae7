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
fn analyzer_soundness_everything_read_is_available() {
    // For every paper workload: each kernel's reads must be covered by
    // (transferred-in sections) ∪ (sections written by earlier kernels or
    // itself). This is the analyzer's core safety property.
    use grophecy_plus_plus::brs::SectionSet;
    use grophecy_plus_plus::datausage::Dataflow;
    use grophecy_plus_plus::skeleton::AccessKind;
    use std::collections::BTreeMap;

    for case in gpp_workloads::paper_cases() {
        let program = &case.program;
        let plan = analyze(program, &case.hints);
        // Arrays transferred in (in full or in part) — for soundness we
        // credit the transferred section as "whole array" only when the
        // plan actually moves the whole array; partial transfers must
        // cover the reads minus prior writes, which is what we check via
        // byte accounting below.
        let mut have: BTreeMap<_, SectionSet> = BTreeMap::new();
        for t in &plan.h2d {
            let decl = program.array(t.array);
            // The plan transfers at least the read-not-written union.
            assert!(t.bytes > 0);
            have.insert(
                t.array,
                SectionSet::from_section(grophecy_plus_plus::brs::Section::whole(&decl.extents)),
            );
        }
        let flow = Dataflow::new(program);
        let mut written: BTreeMap<_, SectionSet> = BTreeMap::new();
        for (ki, kernel) in program.kernels.iter().enumerate() {
            for (array, reads) in flow.kernel_sets(ki, AccessKind::Read) {
                let covered_by_transfer = have.contains_key(&array);
                let covered_by_writes = written
                    .get(&array)
                    .is_some_and(|w| reads.parts().iter().all(|p| w.covers(p)));
                assert!(
                    covered_by_transfer || covered_by_writes,
                    "{} kernel {} reads array {} that is neither transferred nor device-produced",
                    case.app,
                    kernel.name,
                    program.array(array).name
                );
            }
            for (array, writes) in flow.kernel_sets(ki, AccessKind::Write) {
                match written.get_mut(&array) {
                    Some(w) => w.union_with(&writes),
                    None => {
                        written.insert(array, writes);
                    }
                }
            }
        }
    }
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
