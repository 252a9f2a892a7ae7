//! End-to-end tests of the `gpp` binary.

use std::process::Command;

fn gpp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpp"))
}

fn skeleton_path(name: &str) -> String {
    format!("{}/../../skeletons/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn analyze_prints_transfer_plan() {
    let out = gpp()
        .args(["analyze", &skeleton_path("hotspot_1024.gsk")])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("temp"), "{stdout}");
    assert!(stdout.contains("power"));
    assert!(stdout.contains("to-device"));
    assert!(stdout.contains("from-device"));
}

#[test]
fn project_reports_kernel_and_transfer_times() {
    let out = gpp()
        .args(["project", &skeleton_path("hotspot_1024.gsk")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("projected kernel time"));
    assert!(stdout.contains("projected transfer time"));
    assert!(stdout.contains("Eureka"));
}

#[test]
fn project_stats_reports_synthesis_memo() {
    let out = gpp()
        .args(["project", &skeleton_path("hotspot_1024.gsk"), "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("search stats:"), "{stdout}");
    assert!(stdout.contains("synthesis memo"), "{stdout}");
    assert!(stdout.contains("miss(es)"), "{stdout}");
    // A fresh process projecting one program must have synthesized at
    // least one staging class per kernel search — misses cannot be zero.
    assert!(!stdout.contains("0 miss(es)"), "{stdout}");
}

#[test]
fn measure_vector_add_says_dont_port() {
    let out = gpp()
        .args(["measure", &skeleton_path("vector_add.gsk")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("don't port"), "{stdout}");
}

#[test]
fn measure_stassuij_with_hints_flips_verdict() {
    let out = gpp()
        .args([
            "measure",
            &skeleton_path("spmm_stassuij.gsk"),
            "--sparse",
            "csr_vals=5280",
            "--sparse",
            "csr_col=2640",
            "--sparse",
            "csr_ptr=532",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Kernel-only says port; full model says don't.
    assert!(stdout.contains("don't port"), "{stdout}");
}

#[test]
fn fmt_roundtrips() {
    let out = gpp()
        .args(["fmt", &skeleton_path("vector_add.gsk")])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("program vector-add"));
    // Feeding the formatted output back in parses identically.
    let tmp = std::env::temp_dir().join("gpp_fmt_roundtrip.gsk");
    std::fs::write(&tmp, text.as_bytes()).unwrap();
    let out2 = gpp().args(["fmt", tmp.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.stdout, out2.stdout);
}

#[test]
fn calibrate_reports_model() {
    let out = gpp()
        .args(["calibrate", "--machine", "v2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("h2d: T(d)"));
    assert!(stdout.contains("mean error"));
}

fn fixture_path(name: &str) -> String {
    format!("{}/../../fixtures/bad/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn machines_dir() -> String {
    format!("{}/../../fixtures/machines", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn machines_lists_builtins_and_loaded_datasheets() {
    let out = gpp().args(["machines"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("eureka"), "{stdout}");
    assert!(stdout.contains("v2"), "{stdout}");

    let out = gpp()
        .args(["machines", "--machines", &machines_dir()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["eureka", "recorded", "v2", "v3"] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
    assert!(stdout.contains("bus replay"), "{stdout}");
}

#[test]
fn machines_check_validates_and_export_is_canonical() {
    let dir = machines_dir();
    let out = gpp()
        .args([
            "machines",
            "--check",
            &format!("{dir}/eureka.gmach"),
            &format!("{dir}/recorded.gmach"),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("eureka.gmach: ok (eureka)"), "{stdout}");
    assert!(stdout.contains("recorded.gmach: ok (recorded)"), "{stdout}");

    // A corrupt datasheet fails --check with the offending line.
    let tmp = std::env::temp_dir().join("gpp_bad_machine.gmach");
    std::fs::write(&tmp, "machine broken\nname \"x\"\nwat 3\n").unwrap();
    let out = gpp()
        .args(["machines", "--check", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");

    // --export prints the canonical datasheet: byte-identical to the
    // committed golden fixture for the built-in.
    let out = gpp()
        .args(["machines", "--export", "eureka"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let golden = std::fs::read(format!("{dir}/eureka.gmach")).unwrap();
    assert_eq!(out.stdout, golden, "eureka.gmach fixture drifted");
}

#[test]
fn project_accepts_loaded_machines_including_replay() {
    let out = gpp()
        .args([
            "project",
            &skeleton_path("vector_add.gsk"),
            "--machines",
            &machines_dir(),
            "--machine",
            "recorded",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("replayed day-0"), "{stdout}");
    assert!(stdout.contains("projected transfer time"), "{stdout}");
}

#[test]
fn lint_clean_skeleton_exits_zero_with_no_output() {
    let out = gpp()
        .args(["lint", &skeleton_path("vector_add.gsk")])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn lint_defective_skeleton_exits_nonzero_with_spanned_report() {
    let out = gpp()
        .args(["lint", &fixture_path("gpp001_oob.gsk")])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("gpp001_oob.gsk:10:5: error[GPP001]"),
        "{stdout}"
    );
    assert!(stdout.contains("^"), "caret underline missing: {stdout}");
    assert!(stdout.contains("1 error(s)"), "{stdout}");
}

#[test]
fn lint_accepts_many_files_and_json_output() {
    let out = gpp()
        .args([
            "lint",
            &skeleton_path("vector_add.gsk"),
            &fixture_path("gpp004_unused_array.gsk"),
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    // Warnings alone don't fail the build...
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // ...one JSON object per file, sorted by path (not argument order),
    // so the output is deterministic for CI consumers.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].contains("\"code\":\"GPP004\""), "{stdout}");
    assert!(lines[1].contains("\"diagnostics\":[]"), "{stdout}");

    // ...unless --deny warnings promotes them.
    let out = gpp()
        .args([
            "lint",
            &fixture_path("gpp004_unused_array.gsk"),
            "--deny",
            "warnings",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // And --allow silences the code entirely.
    let out = gpp()
        .args([
            "lint",
            &fixture_path("gpp004_unused_array.gsk"),
            "--allow",
            "GPP004",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Unknown file.
    let out = gpp()
        .args(["project", "/nonexistent.gsk"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Parse error with a line number.
    let tmp = std::env::temp_dir().join("gpp_bad.gsk");
    std::fs::write(&tmp, "program p\nkernel k\n  wat\n").unwrap();
    let out = gpp()
        .args(["analyze", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
    // Unknown machine: the error names the registry's roster.
    let out = gpp()
        .args(["calibrate", "--machine", "quantum"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown machine `quantum` (known: eureka, v2)"),
        "{stderr}"
    );
    // Unknown hint target.
    let out = gpp()
        .args([
            "analyze",
            &skeleton_path("vector_add.gsk"),
            "--temporary",
            "nope",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn flag_without_a_usable_value_exits_2_naming_what_it_needs() {
    // (flag, what it needs, whether `x` is a bad value for it)
    let flags = [
        ("--machine", "a machine name", false),
        ("--machines", "a directory of .gmach files", false),
        ("--export", "a machine name", false),
        ("--seed", "an integer", true),
        ("--iters", "an integer", true),
        ("--temporary", "an array name", false),
        ("--sparse", "NAME=BYTES", false),
        ("--addr", "HOST:PORT", false),
        ("--workers", "an integer", true),
        ("--queue-depth", "an integer", true),
        ("--timeout", "an integer (seconds)", true),
        ("--timeout-ms", "an integer (milliseconds)", true),
        ("--retries", "an integer", true),
        ("--retry-budget", "an integer", true),
        ("--deadline-ms", "an integer (milliseconds)", true),
        ("--shards", "an integer", true),
        ("--shard", "HOST:PORT", false),
        ("--fault-plan", "a plan string", false),
        ("--command", "a command name", false),
        ("--format", "`human` or `json`", true),
        ("--deny", "a lint code or `warnings`", false),
        ("--allow", "a lint code", false),
        ("--explain", "a lint code (e.g. GPP012)", false),
    ];
    for (flag, what, x_is_bad) in flags {
        let mut runs = vec![vec!["project", flag]];
        if x_is_bad {
            runs.push(vec!["project", flag, "x"]);
        }
        for args in runs {
            let out = gpp().args(&args).output().unwrap();
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stderr),
                format!("{flag} needs {what}\n"),
                "{args:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Long-running modes: `gpp serve` and `gpp gateway` on ephemeral ports.

/// Kills the child process when the test ends (pass or panic).
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `gpp` with the given args, then reads stdout lines until the
/// expected `PREFIX=value` machine-parsable lines appear (in order),
/// returning their values.
fn spawn_daemon(args: &[&str], prefixes: &[&str]) -> (Daemon, Vec<String>) {
    use std::io::BufRead;
    let mut child = gpp()
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let stdout = child.stdout.take().unwrap();
    let mut daemon = Daemon(child);
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut values = Vec::new();
    for prefix in prefixes {
        let want = format!("{prefix}=");
        loop {
            let Some(Ok(line)) = lines.next() else {
                let mut err = String::new();
                if let Some(mut stderr) = daemon.0.stderr.take() {
                    use std::io::Read;
                    let _ = stderr.read_to_string(&mut err);
                }
                panic!("gpp {args:?} exited before printing {want}*: {err}");
            };
            if let Some(value) = line.strip_prefix(&want) {
                values.push(value.to_string());
                break;
            }
        }
    }
    (daemon, values)
}

#[test]
fn serve_binds_port_zero_and_prints_machine_parsable_addr() {
    let (_daemon, values) = spawn_daemon(
        &["serve", "--addr", "127.0.0.1:0", "--workers", "1"],
        &["GPP_ADDR"],
    );
    let addr = &values[0];
    assert_ne!(addr.rsplit(':').next().unwrap(), "0", "real port: {addr}");

    // `gpp request` reaches it, with the timeout/retry knobs accepted.
    let out = gpp()
        .args([
            "request",
            "--addr",
            addr,
            "--command",
            "ping",
            "--timeout-ms",
            "5000",
            "--retries",
            "2",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"ok\":true"), "{stdout}");
}

#[test]
fn gateway_spawns_shards_and_prints_machine_parsable_addrs() {
    let (_daemon, values) = spawn_daemon(
        &["gateway", "--shards", "2", "--workers", "1"],
        &["GPP_SHARD_ADDR", "GPP_SHARD_ADDR", "GPP_ADDR"],
    );
    let gateway_addr = &values[2];
    assert_ne!(values[0], values[1], "shards get distinct ports");

    // The gateway answers health with its role and pool occupancy.
    let out = gpp()
        .args(["request", "--addr", gateway_addr, "--command", "health"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"role\":\"gateway\""), "{stdout}");
    assert!(stdout.contains("\"healthy_shards\":2"), "{stdout}");

    // And forwards a projection to a shard, fingerprint included.
    let out = gpp()
        .args([
            "request",
            "--addr",
            gateway_addr,
            "--command",
            "project",
            &skeleton_path("vector_add.gsk"),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("\"fingerprint\":\""), "{stdout}");
}

/// Serves one ping, sends SIGTERM, and expects a drained exit 0 within
/// 3 s. The daemon sits in a blocking `accept` when the signal lands, and
/// the signal handler is installed with `SA_RESTART`, so it exits only if
/// its shutdown watcher wakes the acceptor.
fn assert_sigterm_drains(args: &[&str], prefixes: &[&str]) {
    use std::io::Read;
    use std::time::{Duration, Instant};
    let (mut daemon, values) = spawn_daemon(args, prefixes);
    let addr = values.last().unwrap();
    let out = gpp()
        .args(["request", "--addr", addr, "--command", "ping"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");

    let pid = daemon.0.id().to_string();
    let kill = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(kill.success(), "kill -TERM {pid}");
    let signalled = Instant::now();
    let status = loop {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            signalled.elapsed() < Duration::from_secs(3),
            "gpp {args:?} still running 3 s after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    daemon
        .0
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "gpp {args:?} exited {status}: {stderr}");
    assert!(stderr.contains("drained and stopped"), "{stderr}");
}

#[test]
fn serve_drains_and_exits_on_sigterm() {
    assert_sigterm_drains(&["serve", "--addr", "127.0.0.1:0"], &["GPP_ADDR"]);
}

#[test]
fn gateway_drains_and_exits_on_sigterm() {
    assert_sigterm_drains(
        &["gateway", "--shards", "1", "--addr", "127.0.0.1:0"],
        &["GPP_SHARD_ADDR", "GPP_ADDR"],
    );
}

#[test]
fn request_retries_back_off_before_giving_up() {
    // Nothing listens on port 1; with 2 retries at 100 ms base backoff
    // the attempts land at +0, +100, +200 ms before failing.
    let started = std::time::Instant::now();
    let out = gpp()
        .args([
            "request",
            "--addr",
            "127.0.0.1:1",
            "--command",
            "ping",
            "--retries",
            "2",
            "--timeout-ms",
            "1000",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed"), "{stderr}");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= std::time::Duration::from_millis(250),
        "retries should have backed off: {elapsed:?}"
    );
}
