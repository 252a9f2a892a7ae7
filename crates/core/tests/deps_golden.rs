//! Golden for the section consumers outside the transfer plan: the
//! dependence report, the device-resident arrays and the CPU work
//! estimate `measure()` prices.
//!
//! `fixtures/goldens/deps_reports.txt` pins, per program, what
//! `gpp deps` prints (`dependence::render` and the device-resident
//! names) and every field of `cpu_work` as raw bits. The programs are
//! the committed skeletons, every `fixtures/bad` skeleton that parses
//! and the ten paper cases.
//!
//! Regenerate (only when an intentional change to one of them lands)
//! with:
//!
//! ```text
//! GPP_BLESS=1 cargo test -p grophecy --test deps_golden
//! ```

use gpp_skeleton::{text, Program};
use grophecy::measurement::cpu_work;
use std::fmt::Write as _;

fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

/// The `.gsk` files of `dir` that parse, sorted by name.
fn parsed_skeletons(dir: &str) -> Vec<(String, Program)> {
    let dir = repo_path(dir);
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
        .filter_map(|n| {
            let src = std::fs::read_to_string(format!("{dir}/{n}")).unwrap();
            text::parse(&src).ok().map(|p| (n, p))
        })
        .collect()
}

fn render_program(out: &mut String, label: &str, p: &Program) {
    let deps = gpp_datausage::dependences(p);
    writeln!(out, "== {label}").unwrap();
    out.push_str(&gpp_datausage::dependence::render(p, &deps));
    let resident: Vec<&str> = gpp_datausage::device_resident_arrays(p)
        .iter()
        .map(|a| p.array(*a).name.as_str())
        .collect();
    writeln!(out, "resident: [{}]", resident.join(", ")).unwrap();
    let w = cpu_work(p);
    writeln!(
        out,
        "cpu_work: flops={:016x} dram_bytes={:016x} working_set={} \
         random_lines={:016x} invocations={} parallel_fraction={:016x}",
        w.flops.to_bits(),
        w.dram_bytes.to_bits(),
        w.working_set,
        w.random_lines.to_bits(),
        w.invocations,
        w.parallel_fraction.to_bits(),
    )
    .unwrap();
}

fn render_current() -> String {
    let mut out = String::new();
    for dir in ["skeletons", "fixtures/bad"] {
        for (name, p) in parsed_skeletons(dir) {
            render_program(&mut out, &format!("{dir}/{name}"), &p);
        }
    }
    for case in gpp_workloads::paper_cases() {
        let label = format!("paper {} {}", case.app, case.dataset);
        render_program(&mut out, &label, &case.program);
    }
    out
}

#[test]
fn deps_and_cpu_work_match_the_golden() {
    let path = repo_path("fixtures/goldens/deps_reports.txt");
    let current = render_current();
    if std::env::var_os("GPP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &current).unwrap();
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("missing golden — run with GPP_BLESS=1 to generate it");
    for (i, (got, want)) in current.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "deps report drifted (line {})", i + 1);
    }
    assert_eq!(
        current.lines().count(),
        golden.lines().count(),
        "golden coverage changed"
    );
}
