//! Fix-it round-trip properties, and the projector-level contract
//! behind `transfer_headroom`:
//!
//! 1. For any explicit transfer schedule, applying fixes to a fixpoint
//!    converges, the result still parses, it re-lints clean of the
//!    whole GPP010–GPP013 family, and a second pass is byte-for-byte
//!    idempotent.
//! 2. A move-only fix (GPP013) cannot change the projection: total
//!    time is bit-identical on every committed machine.
//! 3. A traffic-removing fix (GPP010) yields positive headroom on
//!    every committed machine, and the reported headroom equals the
//!    projector-measured delta exactly.
//! 4. On the committed fixtures, fixing never adds a finding whose code
//!    the file lacked.

use gpp_datausage::Hints;
use gpp_lint::{fix_until_stable, lint_source, Code, LintConfig};
use grophecy::projector::Grophecy;
use grophecy::{transfer_headroom, MachineRegistry};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const FAMILY: [Code; 4] = [
    Code::CrossKernelH2d,
    Code::DeadD2h,
    Code::MissingResidency,
    Code::HoistableTransfer,
];

/// What `gpp lint --fix` runs: apply, re-lint, repeat until quiescent.
fn fixpoint(src: &str) -> (String, usize) {
    fix_until_stable(src, "p.gsk", &LintConfig::new()).expect("every rewrite parses")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Built-ins plus every committed `.gmach` datasheet.
fn committed_machines() -> MachineRegistry {
    let mut r = MachineRegistry::builtin();
    r.load_dir(&repo_root().join("fixtures/machines"))
        .expect("committed machine corpus loads");
    r
}

fn total_time_bits(reg: &MachineRegistry, src: &str) -> Vec<(String, u64)> {
    let p = gpp_skeleton::text::parse(src).expect("parses");
    let hints = Hints::for_program(&p);
    reg.names()
        .into_iter()
        .map(|name| {
            let cfg = reg.config(&name, 7).unwrap();
            let mut node = cfg.node();
            let gro = Grophecy::calibrate(&cfg, &mut node);
            let t = gro.project(&p, &hints).total_time(1);
            (name, t.to_bits())
        })
        .collect()
}

/// A random explicit transfer schedule wrapped around a fixed two-kernel
/// pipeline (`k1: a → b`, `k2: b → c`). Any combination of directions,
/// arrays, and positions is structurally valid.
fn random_schedule() -> impl Strategy<Value = String> {
    prop::collection::vec((0usize..=2, any::<bool>(), 0usize..3), 1..7).prop_map(|xfers| {
        let arrays = ["a", "b", "c"];
        let mut by_pos: [Vec<String>; 3] = Default::default();
        for (pos, h2d, ai) in xfers {
            let dir = if h2d { "h2d" } else { "d2h" };
            by_pos[pos].push(format!("{dir} {}\n", arrays[ai]));
        }
        let mut s =
            String::from("program rand\narray a f32 [64]\narray b f32 [64]\narray c f32 [64]\n");
        s.push_str(&by_pos[0].concat());
        s.push_str("kernel k1\n  parallel i 64\n  stmt adds=1\n    read  a [i]\n    write b [i]\n");
        s.push_str(&by_pos[1].concat());
        s.push_str("kernel k2\n  parallel i 64\n  stmt adds=1\n    read  b [i]\n    write c [i]\n");
        s.push_str(&by_pos[2].concat());
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fixes_converge_relint_clean_and_stay_idempotent(src in random_schedule()) {
        let (fixed, _) = fixpoint(&src);
        // The rewrite is still a valid skeleton.
        prop_assert!(gpp_skeleton::text::parse(&fixed).is_ok(), "{fixed}");
        // The whole transfer-dataflow family is quiesced.
        let report = lint_source(&fixed, "p.gsk", &LintConfig::new());
        for d in &report.diagnostics {
            prop_assert!(!FAMILY.contains(&d.code), "{:?} survived in:\n{fixed}", d.code);
        }
        // And a second fixpoint run is a byte-for-byte no-op.
        let (fixed2, n2) = fixpoint(&fixed);
        prop_assert_eq!(n2, 0);
        prop_assert_eq!(fixed2, fixed);
    }
}

#[test]
fn move_only_fix_preserves_projection_bits_on_every_machine() {
    let path = repo_root().join("fixtures/bad/gpp013_program_hoist.gsk");
    let src = std::fs::read_to_string(path).unwrap();
    let (fixed, n) = fixpoint(&src);
    assert!(n > 0 && fixed != src);
    let reg = committed_machines();
    assert!(
        reg.len() >= 4,
        "expected built-ins + committed .gmach files"
    );
    assert_eq!(
        total_time_bits(&reg, &src),
        total_time_bits(&reg, &fixed),
        "a hoist must not change the projection"
    );
}

#[test]
fn redundant_upload_fixture_has_projector_exact_headroom() {
    let path = repo_root().join("fixtures/bad/gpp010_program_reupload.gsk");
    let src = std::fs::read_to_string(path).unwrap();
    let (fixed, n) = fixpoint(&src);
    assert!(n > 0);
    let reg = committed_machines();
    let as_written = gpp_skeleton::text::parse(&src).unwrap();
    let optimized = gpp_skeleton::text::parse(&fixed).unwrap();
    let rows = transfer_headroom(&reg, 7, &as_written, &optimized);
    assert_eq!(rows.len(), reg.len());
    for r in &rows {
        assert!(r.headroom() > 0.0, "{}: zero headroom", r.machine);
        // The report is the projector delta by definition — recompute it
        // independently and demand bit-level agreement.
        let cfg = reg.config(&r.machine, 7).unwrap();
        let mut node = cfg.node();
        let gro = Grophecy::calibrate(&cfg, &mut node);
        let w = gro
            .project(&as_written, &Hints::for_program(&as_written))
            .total_time(1);
        let o = gro
            .project(&optimized, &Hints::for_program(&optimized))
            .total_time(1);
        assert_eq!(
            r.headroom().to_bits(),
            (w - o).max(0.0).to_bits(),
            "{}",
            r.machine
        );
    }
}

#[test]
fn fixes_add_no_finding_to_the_fixtures() {
    let codes = |src: &str| -> BTreeSet<Code> {
        let report = lint_source(src, "p.gsk", &LintConfig::new());
        report.diagnostics.iter().map(|d| d.code).collect()
    };
    let mut checked = 0;
    for dir in ["fixtures/bad", "fixtures/transfer"] {
        let entries = std::fs::read_dir(repo_root().join(dir)).unwrap();
        let mut files: Vec<PathBuf> = (entries.map(|e| e.unwrap().path()))
            .filter(|f| f.extension().is_some_and(|x| x == "gsk"))
            .collect();
        files.sort();
        for f in files {
            let src = std::fs::read_to_string(&f).unwrap();
            let (fixed, _) = fixpoint(&src);
            let added: Vec<Code> = codes(&fixed).difference(&codes(&src)).copied().collect();
            assert!(added.is_empty(), "{}: fixing adds {added:?}", f.display());
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} fixtures checked");
}
