//! The SoA batch projector against the committed artifact corpus: for
//! every skeleton in `skeletons/` × every machine datasheet in
//! `fixtures/machines/` (plus the built-ins), each (kernel, axis) search
//! must select bit-identically what the exhaustive oracle (`project_all`)
//! does, at several thread counts.
//!
//! `determinism.rs` proves the same property over the synthetic paper
//! workloads; this suite proves it over the artifacts users actually
//! feed the tools — skeleton files parsed from text and machines loaded
//! from `.gmach` datasheets (including the replay-bus one with its
//! sidecar trace, and the multi-GPU nodes). Adding a skeleton or a
//! datasheet to the repository automatically widens the corpus.
//!
//! `Debug` for `f64` prints the shortest string that round-trips, so two
//! projections render identically iff every float in them has the same
//! bits.

use gpp_gpu_model::{project_all, project_best};
use gpp_skeleton::text;
use grophecy::MachineRegistry;
use std::path::{Path, PathBuf};

const SEED: u64 = 2013;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn committed_skeletons() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_root().join("skeletons"))
        .expect("skeletons/ directory")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "gsk"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no committed skeletons found");
    paths
}

#[test]
fn soa_projection_is_bit_identical_over_the_committed_corpus() {
    let mut registry = MachineRegistry::builtin();
    registry
        .load_dir(&repo_root().join("fixtures/machines"))
        .expect("fixtures/machines datasheets load");
    assert!(registry.len() >= 4, "expected builtins plus datasheets");

    let skeletons: Vec<(PathBuf, gpp_skeleton::Program)> = committed_skeletons()
        .into_iter()
        .map(|path| {
            let src = std::fs::read_to_string(&path).expect("read skeleton");
            let program = text::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, program)
        })
        .collect();

    for name in registry.names() {
        let spec = registry.config(&name, SEED).unwrap().gpu_spec;
        for (path, program) in &skeletons {
            for kernel in &program.kernels {
                for axis in kernel.axis_candidates() {
                    let chars = kernel.characteristics_with_axis(program, axis);
                    let (oracle, _) = project_all(&kernel.name, &chars, &spec);
                    let reference = format!("{oracle:?}");
                    for threads in [1, 2, 8] {
                        gpp_par::set_threads(threads);
                        assert_eq!(
                            format!("{:?}", project_best(&kernel.name, &chars, &spec)),
                            reference,
                            "{} kernel {} axis {axis:?} on `{name}`: SoA search at \
                             {threads} threads diverged from the oracle",
                            path.file_name().unwrap().to_string_lossy(),
                            kernel.name,
                        );
                    }
                }
            }
        }
    }
    gpp_par::set_threads(0);
}
