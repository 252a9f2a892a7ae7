//! Inter-kernel dependence reporting.
//!
//! The BRS operations "combined with information about whether an access
//! is a load or a store, allow GROPHECY to determine the dependencies
//! among BRSs" (§III-B). The transfer analysis consumes them implicitly;
//! this module surfaces them explicitly — which kernel pairs have
//! flow/anti/output dependencies on which arrays — both for diagnostics
//! (`gpp deps`) and because the dependence structure justifies the kernel
//! sequencing the skeletons declare (see `gpp-workloads::bsp`).

use crate::dataflow::Dataflow;
use gpp_brs::{classify_dependence, ArrayId, DependenceKind};
use gpp_skeleton::Program;

/// One inter-kernel dependence edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    /// Index of the earlier kernel in program order.
    pub from_kernel: usize,
    /// Index of the later kernel (may equal `from_kernel` for
    /// intra-kernel write/read pairs across statements).
    pub to_kernel: usize,
    /// The array carrying the dependence.
    pub array: ArrayId,
    /// Array name, for reports.
    pub array_name: String,
    /// Flow, anti, or output.
    pub kind: DependenceKind,
}

/// Computes all ordering dependencies between kernels (and within a
/// kernel across statements), using exact section intersection.
///
/// Input dependencies (read-read) are omitted — they carry reuse
/// information but impose no ordering.
pub fn dependences(program: &Program) -> Vec<Dependence> {
    let flow = Dataflow::new(program);
    let kernels = program.kernels.len();
    let mut out = Vec::new();
    for from in 0..kernels {
        for to in from..kernels {
            for a in flow.kernel_sites(from) {
                for b in flow.kernel_sites(to) {
                    let (ka, kb) = (a.r.kind, b.r.kind);
                    if a.r.array != b.r.array {
                        continue;
                    }
                    // Same-kernel read/write pairs only count once and
                    // only when ordering matters.
                    if from == to && ka == kb {
                        continue;
                    }
                    if let Some(kind) = classify_dependence(ka, &a.section, kb, &b.section) {
                        if !kind.is_ordering() {
                            continue;
                        }
                        let dep = Dependence {
                            from_kernel: from,
                            to_kernel: to,
                            array: a.r.array,
                            array_name: program.array(a.r.array).name.clone(),
                            kind,
                        };
                        if !out.contains(&dep) {
                            out.push(dep);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Renders the dependence set as a table.
pub fn render(program: &Program, deps: &[Dependence]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "dependences for `{}` ({} edges):",
        program.name,
        deps.len()
    );
    for d in deps {
        let _ = writeln!(
            s,
            "  {:<18} -[{}:{}]-> {}",
            program.kernels[d.from_kernel].name,
            d.kind,
            d.array_name,
            program.kernels[d.to_kernel].name,
        );
    }
    if deps.is_empty() {
        let _ = writeln!(s, "  (none — kernels are independent)");
    }
    s
}

/// The arrays whose flow dependences cross kernel boundaries: exactly the
/// data that stays resident on the device between kernels and therefore
/// never crosses the bus — the analyzer's savings, itemized. A kernel
/// whose read of an array overlaps an earlier kernel's write is
/// [`Dataflow::served`], the test `gpp lint`'s GPP007 uses.
pub fn device_resident_arrays(program: &Program) -> Vec<ArrayId> {
    let flow = Dataflow::new(program);
    (program.arrays.iter().map(|a| a.id))
        .filter(|&a| (1..program.kernels.len()).any(|ki| flow.served(ki, a)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpp_skeleton::builder::{idx, ProgramBuilder};
    use gpp_skeleton::ElemType;

    fn two_phase() -> Program {
        let mut p = ProgramBuilder::new("two-phase");
        let img = p.array("img", ElemType::F32, &[256]);
        let coeff = p.array("coeff", ElemType::F32, &[256]);
        let mut k1 = p.kernel("prep");
        let i = k1.parallel_loop("i", 256);
        k1.statement()
            .read(img, &[idx(i)])
            .write(coeff, &[idx(i)])
            .finish();
        k1.finish();
        let mut k2 = p.kernel("update");
        let i = k2.parallel_loop("i", 256);
        k2.statement()
            .read(coeff, &[idx(i)])
            .read(img, &[idx(i)])
            .write(img, &[idx(i)])
            .finish();
        k2.finish();
        p.build().unwrap()
    }

    #[test]
    fn finds_flow_across_kernels() {
        let p = two_phase();
        let deps = dependences(&p);
        assert!(deps.iter().any(|d| {
            d.kind == DependenceKind::Flow
                && d.array_name == "coeff"
                && d.from_kernel == 0
                && d.to_kernel == 1
        }));
        // img: read in k1, written in k2 → anti dependence k1→k2.
        assert!(deps.iter().any(|d| {
            d.kind == DependenceKind::Anti && d.array_name == "img" && d.to_kernel == 1
        }));
    }

    #[test]
    fn device_resident_matches_transfer_savings() {
        let p = two_phase();
        let resident = device_resident_arrays(&p);
        let coeff = p.array_by_name("coeff").unwrap().id;
        assert!(resident.contains(&coeff));
        // And the analyzer indeed never transfers coeff inbound.
        let plan = crate::analyze(&p, &crate::Hints::new());
        assert!(plan.h2d.iter().all(|t| t.array != coeff));
    }

    #[test]
    fn disjoint_kernels_have_no_edges() {
        let mut pb = ProgramBuilder::new("disjoint");
        let a = pb.array("a", ElemType::F32, &[64]);
        let b = pb.array("b", ElemType::F32, &[64]);
        let mut k1 = pb.kernel("ka");
        let i = k1.parallel_loop("i", 64);
        k1.statement()
            .read(a, &[idx(i)])
            .write(a, &[idx(i)])
            .finish();
        k1.finish();
        let mut k2 = pb.kernel("kb");
        let i = k2.parallel_loop("i", 64);
        k2.statement()
            .read(b, &[idx(i)])
            .write(b, &[idx(i)])
            .finish();
        k2.finish();
        let p = pb.build().unwrap();
        let cross: Vec<_> = dependences(&p)
            .into_iter()
            .filter(|d| d.from_kernel != d.to_kernel)
            .collect();
        assert!(cross.is_empty(), "{cross:?}");
    }

    #[test]
    fn disjoint_sections_of_same_array_are_independent() {
        let mut pb = ProgramBuilder::new("halves");
        let x = pb.array("x", ElemType::F32, &[100]);
        let mut k1 = pb.kernel("low");
        let i = k1.parallel_loop("i", 50);
        k1.statement().write(x, &[idx(i)]).finish();
        k1.finish();
        let mut k2 = pb.kernel("high");
        let i = k2.parallel_loop("i", 50);
        k2.statement().read(x, &[idx(i) + 50]).finish();
        k2.finish();
        let p = pb.build().unwrap();
        let cross: Vec<_> = dependences(&p)
            .into_iter()
            .filter(|d| d.from_kernel != d.to_kernel)
            .collect();
        assert!(
            cross.is_empty(),
            "exact sections must see the halves as disjoint"
        );
    }

    #[test]
    fn render_lists_edges() {
        let p = two_phase();
        let out = render(&p, &dependences(&p));
        assert!(out.contains("prep"));
        assert!(out.contains("flow:coeff"));
    }

    #[test]
    fn paper_workloads_have_expected_structure() {
        // CFD's shape in miniature: step_factor and fluxes flow into
        // time_step (reimplemented minimally here to avoid a cyclic dev
        // dependency on gpp-workloads).
        let p = {
            let mut pb = ProgramBuilder::new("cfd-mini");
            let vars = pb.array("variables", ElemType::F32, &[5, 64]);
            let sf = pb.array("step_factor", ElemType::F32, &[64]);
            let fx = pb.array("fluxes", ElemType::F32, &[5, 64]);
            let mut k1 = pb.kernel("compute_step_factor");
            let i = k1.parallel_loop("i", 64);
            k1.statement()
                .read(vars, &[gpp_skeleton::builder::cst(0), idx(i)])
                .write(sf, &[idx(i)])
                .finish();
            k1.finish();
            let mut k2 = pb.kernel("compute_flux");
            let i = k2.parallel_loop("i", 64);
            k2.statement()
                .read(vars, &[gpp_skeleton::builder::cst(0), idx(i)])
                .write(fx, &[gpp_skeleton::builder::cst(0), idx(i)])
                .finish();
            k2.finish();
            let mut k3 = pb.kernel("time_step");
            let i = k3.parallel_loop("i", 64);
            k3.statement()
                .read(sf, &[idx(i)])
                .read(fx, &[gpp_skeleton::builder::cst(0), idx(i)])
                .write(vars, &[gpp_skeleton::builder::cst(0), idx(i)])
                .finish();
            k3.finish();
            pb.build().unwrap()
        };
        let resident = device_resident_arrays(&p);
        assert_eq!(resident.len(), 2); // step_factor and fluxes
    }
}
