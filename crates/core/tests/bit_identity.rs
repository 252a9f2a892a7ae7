//! Bit-identity gate for the timeline projector refactor.
//!
//! The goldens in `fixtures/goldens/projection_bits.txt` were generated
//! from the pre-timeline scalar projector. Every committed
//! annotation-free skeleton projected on every committed single-device
//! machine must reproduce those bit patterns exactly — at every thread
//! count — or the refactor changed observable output for programs that
//! never asked for streams.
//!
//! Regenerate (only when an intentional numeric change lands) with:
//!
//! ```text
//! GPP_BLESS=1 cargo test -p grophecy --test bit_identity
//! ```

use gpp_datausage::Hints;
use gpp_skeleton::text;
use grophecy::projector::Grophecy;
use grophecy::MachineRegistry;
use std::fmt::Write as _;

const SEED: u64 = 2013;
const THREADS: [usize; 3] = [1, 2, 8];

/// The committed single-device machines (multi-GPU fixtures are
/// deliberately absent: their projections did not exist pre-refactor).
const MACHINES: [&str; 4] = ["eureka", "recorded", "v2", "v3"];

fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn registry() -> MachineRegistry {
    let mut registry = MachineRegistry::builtin();
    registry
        .load_dir(std::path::Path::new(&repo_path("fixtures/machines")))
        .unwrap();
    registry
}

fn skeletons() -> Vec<(String, String)> {
    let dir = repo_path("skeletons");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.ends_with(".gsk").then_some(name)
        })
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let src = std::fs::read_to_string(format!("{dir}/{n}")).unwrap();
            (n, src)
        })
        .collect()
}

/// One golden line per (skeleton, machine, threads) triple: every float
/// the projection exposes, as raw bits.
fn render_current() -> String {
    let registry = registry();
    let mut out = String::new();
    for threads in THREADS {
        gpp_par::set_threads(threads);
        for (name, src) in skeletons() {
            let program = text::parse(&src).unwrap();
            // Stream-annotated skeletons are out of scope by definition:
            // the goldens pin the *annotation-free* surface the scalar
            // projector produced before the timeline existed.
            if program.has_stream_annotations() {
                continue;
            }
            let hints = Hints::for_program(&program);
            for machine_name in MACHINES {
                let machine = registry.config(machine_name, SEED).unwrap();
                let mut node = machine.node();
                let gro = Grophecy::calibrate(&machine, &mut node);
                let proj = gro.project(&program, &hints);
                write!(
                    out,
                    "{name} {machine_name} threads={threads} \
                     kernel={:016x} transfer={:016x} alloc={:016x} total={:016x}",
                    proj.kernel_time.to_bits(),
                    proj.transfer_time.to_bits(),
                    proj.alloc_time.to_bits(),
                    proj.total_time(1).to_bits(),
                )
                .unwrap();
                for t in &proj.transfer_times {
                    write!(out, " {:016x}", t.to_bits()).unwrap();
                }
                out.push('\n');
            }
        }
    }
    gpp_par::set_threads(0);
    out
}

#[test]
fn annotation_free_projections_are_bit_identical_to_the_goldens() {
    let path = repo_path("fixtures/goldens/projection_bits.txt");
    let current = render_current();
    if std::env::var_os("GPP_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(repo_path("fixtures/goldens")).unwrap();
        std::fs::write(&path, &current).unwrap();
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("missing goldens — run with GPP_BLESS=1 to generate them");
    for (i, (got, want)) in current.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "projection bits drifted from the pre-refactor goldens (line {})",
            i + 1
        );
    }
    assert_eq!(
        current.lines().count(),
        golden.lines().count(),
        "golden coverage changed"
    );
}
