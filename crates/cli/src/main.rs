//! `gpp` — the GROPHECY++ command-line tool. Run `gpp --help` for usage.

use gpp_datausage::{analyze, Hints};
use gpp_skeleton::text;
use gpp_skeleton::Program;
use grophecy::machine::MachineConfig;
use grophecy::measurement::measure;
use grophecy::projector::Grophecy;
use grophecy::speedup::SpeedupReport;
use grophecy::MachineRegistry;
use std::process::ExitCode;

#[derive(Default)]
struct Options {
    machine: String,
    machines_dir: Option<String>,
    check: bool,
    export: Option<String>,
    seed: u64,
    iters: u32,
    temporaries: Vec<String>,
    sparse: Vec<(String, u64)>,
    file: Option<String>,
    files: Vec<String>,
    format_json: bool,
    deny: Vec<String>,
    allow: Vec<String>,
    fix: bool,
    explain: Option<String>,
    lint: bool,
    profile: bool,
    stats: bool,
    addr: String,
    workers: usize,
    queue_depth: usize,
    timeout_secs: u64,
    timeout_ms: Option<u64>,
    retries: u32,
    retry_budget: Option<u32>,
    deadline_ms: Option<u64>,
    no_hedge: bool,
    shards: usize,
    shard_addrs: Vec<String>,
    remote_command: String,
    fault_plan: Option<String>,
}

const USAGE: &str = "\
gpp — the GROPHECY++ offload advisor

usage:
  gpp project  <file.gsk> [options]   project kernel + transfer times
  gpp measure  <file.gsk> [options]   project, then \"measure\" on the
                                      simulated node and compare
  gpp analyze  <file.gsk> [options]   print the transfer plan
  gpp deps     <file.gsk>             inter-kernel dependence report
  gpp lint     <file.gsk>... [options] static analysis: bounds, liveness,
                                      races, transfer hints, whole-program
                                      transfer dataflow (GPP000-GPP014;
                                      exit 0 clean, 1 findings, 2 errors)
  gpp calibrate [options]             run the two-point PCIe calibration
  gpp machines [options]              list the machine registry; with
                                      --check, validate .gmach datasheets
  gpp fmt      <file.gsk>             parse and re-emit (normalize)
  gpp serve    [options]              run the projection service (TCP)
  gpp gateway  [options]              front N serve shards: consistent-hash
                                      routing, coalescing, fail-over
  gpp request  [file.gsk] [options]   send one request to a running server

options:
  --machine NAME          target system from the registry (default eureka)
  --machines DIR          load extra machine datasheets (*.gmach) from DIR
                          on top of the built-ins (eureka, v2)
  --check                 (machines) parse each .gmach file and verify it
                          round-trips through the canonical writer
  --export NAME           (machines) print NAME's canonical .gmach datasheet
  --profile               (project) print simulated kernel profiles
  --stats                 (project) print search statistics after the
                          projection: synthesis-memo hits/misses
  --seed N                noise seed (default 2013)
  --iters N               iteration count for speedups (default 1)
  --temporary NAME        hint: array is a device-side temporary
  --sparse NAME=BYTES     hint: bound a sparse array's useful bytes
  --addr HOST:PORT        (serve/gateway/request) address; serve and
                          gateway accept port 0 (ephemeral) and print the
                          bound address on stdout as `GPP_ADDR=<addr>`
                          (default 127.0.0.1:4513; gateway 127.0.0.1:0)
  --workers N             (serve/gateway) worker threads (default 4)
  --queue-depth N         (serve/gateway) bounded accept queue (default 64)
  --timeout SECS          (serve/gateway/request) per-request budget
                          (default 30)
  --timeout-ms MS         (request) per-request budget in milliseconds
                          (overrides --timeout)
  --retries N             (request) extra attempts on transport errors and
                          `busy`/`shed` replies, exponential backoff with
                          seeded jitter, honoring server `retry_after_ms`
                          hints (default 0)
  --retry-budget N        (request) token-bucket cap on retry attempts
                          across the run (default: no budget)
  --deadline-ms MS        (request) end-to-end deadline propagated on the
                          wire; gateway and shard shed the request once it
                          cannot be met (default: none)
  --no-hedge              (gateway) disable tail-latency request hedging
  --shards N              (gateway) spawn N embedded serve shards on
                          ephemeral ports (each printed as
                          `GPP_SHARD_ADDR=<addr>`)
  --shard HOST:PORT       (gateway) add an externally running shard
                          (repeatable; combines with --shards)
  --command NAME          (request) project|measure|analyze|deps|calibrate|
                          stats|ping|health (default project)
  --format json           (lint) one JSON object per file instead of text;
                          includes a per-machine `transfer_headroom` report
                          when machine-applicable fixes exist
  --deny CODE|warnings    (lint) escalate a code (or all warnings) to error
  --allow CODE            (lint) suppress a code (GPP000 cannot be allowed)
  --fix                   (lint) apply machine-applicable fix-its in place
                          until a fixpoint, then report what remains
  --explain CODE          (lint) print cause/example/fix docs for a stable
                          code and exit
  --no-lint               (request) skip the server-side lint gate
  --fault-plan PLAN       (serve/gateway) seeded fault-injection plan, e.g.
                          `seed=7;pcie.transfer.error:p=0.05` (default:
                          GPP_FAULT_PLAN env, else no faults)
  --help, -h              print this help";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    if cmd == "--help" || cmd == "-h" || cmd == "help" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opt = match parse_options(args) {
        Ok(opt) => opt,
        Err(code) => return code,
    };

    if cmd != "lint" && cmd != "machines" && opt.files.len() > 1 {
        eprintln!("`gpp {cmd}` takes a single skeleton file");
        return ExitCode::from(2);
    }

    match cmd.as_str() {
        "lint" => cmd_lint(&opt),
        "project" => with_program(&opt, cmd_project),
        "measure" => with_program(&opt, cmd_measure),
        "analyze" => with_program(&opt, cmd_analyze),
        "deps" => with_program(&opt, |p, _, _| {
            let deps = gpp_datausage::dependences(p);
            print!("{}", gpp_datausage::dependence::render(p, &deps));
            let resident = gpp_datausage::device_resident_arrays(p);
            if !resident.is_empty() {
                let names: Vec<&str> = resident.iter().map(|a| p.array(*a).name.as_str()).collect();
                println!(
                    "device-resident across kernels (never cross the bus): {}",
                    names.join(", ")
                );
            }
            ExitCode::SUCCESS
        }),
        "fmt" => with_program(&opt, |p, _, _| {
            print!("{}", text::to_text(p));
            ExitCode::SUCCESS
        }),
        "calibrate" => cmd_calibrate(&opt),
        "machines" => cmd_machines(&opt),
        "serve" => cmd_serve(&opt),
        "gateway" => cmd_gateway(&opt),
        "request" => cmd_request(&opt),
        other => {
            eprintln!("unknown command `{other}`\n");
            usage()
        }
    }
}

/// The value after `flag`, converted by `parse`. A missing or rejected
/// value prints `<flag> needs <what>` and ends the run with exit code 2.
fn value_of<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    parse: impl FnOnce(String) -> Option<T>,
) -> Result<T, ExitCode> {
    args.next().and_then(parse).ok_or_else(|| {
        eprintln!("{flag} needs {what}");
        ExitCode::from(2)
    })
}

/// [`value_of`]'s conversion for numeric flags.
fn parsed<T: std::str::FromStr>(v: String) -> Option<T> {
    v.parse().ok()
}

/// The flags and files after the command. `Err` holds the exit code of a
/// run that ends while parsing: `--help`, or a flag that cannot be used.
fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, ExitCode> {
    let mut opt = Options {
        machine: "eureka".into(),
        seed: 2013,
        iters: 1,
        lint: true,
        addr: "127.0.0.1:4513".into(),
        workers: 4,
        queue_depth: 64,
        timeout_secs: 30,
        remote_command: "project".into(),
        ..Options::default()
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--machine" => opt.machine = value_of(&mut args, &a, "a machine name", Some)?,
            "--machines" => {
                opt.machines_dir = Some(value_of(
                    &mut args,
                    &a,
                    "a directory of .gmach files",
                    Some,
                )?)
            }
            "--check" => opt.check = true,
            "--export" => opt.export = Some(value_of(&mut args, &a, "a machine name", Some)?),
            "--seed" => opt.seed = value_of(&mut args, &a, "an integer", parsed)?,
            "--iters" => opt.iters = value_of(&mut args, &a, "an integer", parsed)?,
            "--profile" => opt.profile = true,
            "--stats" => opt.stats = true,
            "--temporary" => opt
                .temporaries
                .push(value_of(&mut args, &a, "an array name", Some)?),
            "--sparse" => {
                let spec = value_of(&mut args, &a, "NAME=BYTES", Some)?;
                let Some((name, bytes)) = spec.split_once('=') else {
                    eprintln!("--sparse needs NAME=BYTES, got `{spec}`");
                    return Err(ExitCode::from(2));
                };
                let Ok(bytes) = bytes.parse() else {
                    eprintln!("bad byte count in `{spec}`");
                    return Err(ExitCode::from(2));
                };
                opt.sparse.push((name.to_string(), bytes));
            }
            "--addr" => opt.addr = value_of(&mut args, &a, "HOST:PORT", Some)?,
            "--workers" => opt.workers = value_of(&mut args, &a, "an integer", parsed)?,
            "--queue-depth" => opt.queue_depth = value_of(&mut args, &a, "an integer", parsed)?,
            "--timeout" => {
                opt.timeout_secs = value_of(&mut args, &a, "an integer (seconds)", parsed)?
            }
            "--timeout-ms" => {
                opt.timeout_ms = Some(value_of(
                    &mut args,
                    &a,
                    "an integer (milliseconds)",
                    parsed,
                )?)
            }
            "--retries" => opt.retries = value_of(&mut args, &a, "an integer", parsed)?,
            "--retry-budget" => {
                opt.retry_budget = Some(value_of(&mut args, &a, "an integer", parsed)?)
            }
            "--deadline-ms" => {
                opt.deadline_ms = Some(value_of(
                    &mut args,
                    &a,
                    "an integer (milliseconds)",
                    parsed,
                )?)
            }
            "--no-hedge" => opt.no_hedge = true,
            "--shards" => opt.shards = value_of(&mut args, &a, "an integer", parsed)?,
            "--shard" => opt
                .shard_addrs
                .push(value_of(&mut args, &a, "HOST:PORT", Some)?),
            "--fault-plan" => {
                opt.fault_plan = Some(value_of(&mut args, &a, "a plan string", Some)?)
            }
            "--command" => opt.remote_command = value_of(&mut args, &a, "a command name", Some)?,
            "--format" => {
                opt.format_json =
                    value_of(&mut args, &a, "`human` or `json`", |v| match v.as_str() {
                        "json" => Some(true),
                        "human" => Some(false),
                        _ => None,
                    })?
            }
            "--deny" => opt
                .deny
                .push(value_of(&mut args, &a, "a lint code or `warnings`", Some)?),
            "--allow" => opt
                .allow
                .push(value_of(&mut args, &a, "a lint code", Some)?),
            "--fix" => opt.fix = true,
            "--explain" => {
                opt.explain = Some(value_of(&mut args, &a, "a lint code (e.g. GPP012)", Some)?)
            }
            "--no-lint" => opt.lint = false,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            other if !other.starts_with("--") => {
                if opt.file.is_none() {
                    opt.file = Some(other.to_string());
                }
                opt.files.push(other.to_string());
            }
            other => {
                eprintln!("unknown option `{other}`");
                return Err(usage());
            }
        }
    }
    Ok(opt)
}

/// The built-in registry, extended with `--machines DIR` datasheets.
fn registry_for(opt: &Options) -> Option<MachineRegistry> {
    let mut registry = MachineRegistry::builtin();
    if let Some(dir) = &opt.machines_dir {
        if let Err(e) = registry.load_dir(std::path::Path::new(dir)) {
            eprintln!("--machines: {e}");
            return None;
        }
    }
    Some(registry)
}

fn machine_for(opt: &Options) -> Option<MachineConfig> {
    let registry = registry_for(opt)?;
    match registry.config(&opt.machine, opt.seed) {
        Ok(machine) => Some(machine),
        Err(e) => {
            eprintln!("{e}");
            None
        }
    }
}

fn cmd_machines(opt: &Options) -> ExitCode {
    if opt.check {
        if opt.files.is_empty() {
            eprintln!("gpp machines --check needs at least one .gmach file");
            return ExitCode::from(2);
        }
        let mut failed = false;
        for path in &opt.files {
            // load_file parses the datasheet (resolving sidecar traces
            // relative to it); re-parsing the canonical writer's output
            // must then give back the same machine.
            let mut scratch = MachineRegistry::empty();
            match scratch.load_file(std::path::Path::new(path)) {
                Ok(id) => {
                    let machine = scratch.get(&id).expect("load_file inserted it");
                    let text = grophecy::datasheet::to_text(machine);
                    match grophecy::datasheet::parse(&text) {
                        Ok(back) if &back == machine => println!("{path}: ok ({id})"),
                        Ok(_) => {
                            eprintln!("{path}: canonical form does not round-trip");
                            failed = true;
                        }
                        Err(e) => {
                            eprintln!("{path}: canonical form fails to re-parse: {e}");
                            failed = true;
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let Some(registry) = registry_for(opt) else {
        return ExitCode::FAILURE;
    };
    if let Some(name) = &opt.export {
        match registry.get(name) {
            Some(m) => {
                print!("{}", grophecy::datasheet::to_text(m));
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!(
                    "unknown machine `{name}` (known: {})",
                    registry.names().join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    for m in registry.iter() {
        println!(
            "{:<12} bus {:<7} gpu {:<18} {}",
            m.id,
            m.bus.kind(),
            m.gpu_spec.name,
            m.name
        );
    }
    ExitCode::SUCCESS
}

fn with_program(opt: &Options, f: impl FnOnce(&Program, &Hints, &Options) -> ExitCode) -> ExitCode {
    let Some(path) = &opt.file else {
        eprintln!("this command needs a skeleton file");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match text::parse(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}:{e}");
            return ExitCode::FAILURE;
        }
    };
    // Arrays declared `temporary` in the skeleton seed the hints; flags
    // add to them.
    let mut hints = Hints::for_program(&program);
    for name in &opt.temporaries {
        let Some(a) = program.array_by_name(name) else {
            eprintln!("--temporary: no array named `{name}`");
            return ExitCode::FAILURE;
        };
        hints = hints.temporary(a.id);
    }
    for (name, bytes) in &opt.sparse {
        let Some(a) = program.array_by_name(name) else {
            eprintln!("--sparse: no array named `{name}`");
            return ExitCode::FAILURE;
        };
        hints = hints.sparse_bound(a.id, *bytes);
    }
    f(&program, &hints, opt)
}

/// Prices `src` against its fix-it-optimized form on every registered
/// machine. `None` when there are no applicable fixes (or the fixed
/// text fails to parse — already reported by `--fix`).
fn lint_headroom(
    src: &str,
    path: &str,
    cfg: &gpp_lint::LintConfig,
    registry: &MachineRegistry,
    seed: u64,
) -> Option<Vec<grophecy::MachineHeadroom>> {
    let (fixed, n) = gpp_lint::fix_until_stable(src, path, cfg).ok()?;
    if n == 0 {
        return None;
    }
    let as_written = text::parse(src).ok()?;
    let optimized = text::parse(&fixed).ok()?;
    Some(grophecy::transfer_headroom(
        registry,
        seed,
        &as_written,
        &optimized,
    ))
}

fn cmd_lint(opt: &Options) -> ExitCode {
    use gpp_lint::{lint_source, render_human, render_json, Code, LintConfig};
    if let Some(code) = &opt.explain {
        return match gpp_lint::render_explain(code) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("--explain: unknown lint code `{code}` (GPP000..GPP014)");
                ExitCode::from(2)
            }
        };
    }
    if opt.files.is_empty() {
        eprintln!("gpp lint needs at least one skeleton file");
        return ExitCode::from(2);
    }
    let mut cfg = LintConfig::new();
    for d in &opt.deny {
        if d == "warnings" {
            cfg.deny_warnings = true;
        } else if let Some(c) = Code::parse(d) {
            cfg.deny(c);
        } else {
            eprintln!("--deny: unknown lint `{d}` (GPP000..GPP014 or `warnings`)");
            return ExitCode::from(2);
        }
    }
    for a in &opt.allow {
        match Code::parse(a) {
            Some(c) => cfg.allow(c),
            None => {
                eprintln!("--allow: unknown lint code `{a}`");
                return ExitCode::from(2);
            }
        }
    }
    let registry = if opt.format_json {
        match registry_for(opt) {
            Some(r) => Some(r),
            None => return ExitCode::from(2),
        }
    } else {
        None
    };
    // Deterministic output and exit code regardless of argument order.
    let mut files = opt.files.clone();
    files.sort();
    files.dedup();
    // Exit severity: 0 clean, 1 findings at/above the deny level,
    // 2 internal error (unreadable file, parse failure, broken fix).
    let mut worst = 0u8;
    for path in &files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                worst = worst.max(2);
                continue;
            }
        };
        // Headroom is always measured against the file as it was read,
        // so `--fix` reports the savings it is about to bank.
        let headroom = registry
            .as_ref()
            .and_then(|r| lint_headroom(&src, path, &cfg, r, opt.seed));
        let effective = if opt.fix {
            match gpp_lint::fix_until_stable(&src, path, &cfg) {
                Ok((fixed, n)) => {
                    if n > 0 && fixed != src {
                        if let Err(e) = std::fs::write(path, &fixed) {
                            eprintln!("cannot write {path}: {e}");
                            worst = worst.max(2);
                            continue;
                        }
                        eprintln!("{path}: applied {n} fix(es)");
                    }
                    fixed
                }
                Err(e) => {
                    eprintln!("{path}: fixed source no longer parses: {e}");
                    worst = worst.max(2);
                    continue;
                }
            }
        } else {
            src
        };
        let report = lint_source(&effective, path, &cfg);
        if opt.format_json {
            let mut line = render_json(&report);
            if let Some(rows) = &headroom {
                // Splice the per-machine headroom into the object.
                line.pop();
                line.push_str(",\"transfer_headroom\":");
                line.push_str(&grophecy::headroom_json(rows).render());
                line.push('}');
            }
            println!("{line}");
        } else {
            print!("{}", render_human(&report, Some(&effective)));
        }
        let parse_failed = report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::Structural && d.message.starts_with("parse error:"));
        if parse_failed {
            worst = worst.max(2);
        } else if report.has_errors() {
            worst = worst.max(1);
        }
    }
    ExitCode::from(worst)
}

fn cmd_project(program: &Program, hints: &Hints, opt: &Options) -> ExitCode {
    let Some(machine) = machine_for(opt) else {
        return ExitCode::from(2);
    };
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);
    let proj = gro.project(program, hints);
    println!("machine: {}", machine.name);
    println!(
        "PCIe:    h2d {} | d2h {}",
        gro.pcie_model().h2d,
        gro.pcie_model().d2h
    );
    println!();
    for k in &proj.kernels {
        println!(
            "kernel {:<24} {:>10.3} ms   ({}, {})",
            k.name,
            k.time * 1e3,
            k.config,
            k.bound
        );
    }
    if opt.profile {
        println!();
        for (kernel, kp) in program.kernels.iter().zip(&proj.kernels) {
            let inst = grophecy::lowering::lower_kernel(kernel, program, kp.config);
            print!("{}", gpp_gpu_sim::profile(&machine.gpu, &inst));
        }
    }
    println!("\n{}", proj.plan);
    println!(
        "projected kernel time   : {:>10.3} ms x {} iter(s)",
        proj.kernel_time * 1e3,
        opt.iters
    );
    println!(
        "projected transfer time : {:>10.3} ms",
        proj.transfer_time * 1e3
    );
    println!(
        "projected total GPU time: {:>10.3} ms",
        proj.total_time(opt.iters) * 1e3
    );
    if let Some(tl) = &proj.timeline {
        // Stream-annotated schedules also quote the overlapped pass: what
        // the pipelined copies save against the serial schedule above.
        println!(
            "with stream overlap     : {:>10.3} ms   (saves {:.3} ms/iter pass)",
            proj.overlapped_total_time(opt.iters) * 1e3,
            tl.saved() * 1e3
        );
        if !tl.has_overlap() {
            println!(
                "  note: no transfer overlaps a kernel — annotations are sync or at schedule edges"
            );
        }
    }
    if let Some(mg) = &proj.multi_gpu {
        println!();
        println!(
            "data-parallel split across {} device(s){}:",
            mg.device_count(),
            if mg.is_contended() {
                " (root-complex contended)"
            } else {
                ""
            }
        );
        for d in &mg.devices {
            println!(
                "  device {:>2}: kernel {:>10.3} ms + transfers {:>10.3} ms   (bus factor {:.2})",
                d.id,
                d.kernel_seconds * 1e3,
                d.transfer_seconds * 1e3,
                d.bandwidth_factor
            );
        }
        println!(
            "  split total GPU time  : {:>10.3} ms  (straggler: device {})",
            mg.total_time(opt.iters) * 1e3,
            mg.straggler().id
        );
    }
    if opt.stats {
        // The line keeps its historical "synthesis memo" wording; it
        // counts the transformation search memo's lookups.
        let (hits, misses) = gpp_gpu_model::search_memo_stats();
        println!();
        println!("search stats: synthesis memo {hits} hit(s) / {misses} miss(es)");
    }
    ExitCode::SUCCESS
}

fn cmd_measure(program: &Program, hints: &Hints, opt: &Options) -> ExitCode {
    let Some(machine) = machine_for(opt) else {
        return ExitCode::from(2);
    };
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);
    let proj = gro.project(program, hints);
    let meas = measure(&mut node, program, &proj);
    let r = SpeedupReport::build(&program.name, "cli", &proj, &meas, opt.iters);
    println!("machine: {}", machine.name);
    println!(
        "\n{:<26} {:>12} {:>12} {:>8}",
        "", "predicted", "measured", "err%"
    );
    println!(
        "{:<26} {:>9.3} ms {:>9.3} ms {:>8.1}",
        "kernel time",
        proj.kernel_time * 1e3,
        meas.kernel_time * 1e3,
        r.kernel_time_error
    );
    println!(
        "{:<26} {:>9.3} ms {:>9.3} ms {:>8.1}",
        "transfer time",
        proj.transfer_time * 1e3,
        meas.transfer_time * 1e3,
        r.transfer_time_error
    );
    println!(
        "{:<26} {:>9.3} ms {:>9.3} ms",
        "total GPU time",
        proj.total_time(opt.iters) * 1e3,
        meas.total_time(opt.iters) * 1e3
    );
    println!(
        "{:<26} {:>9.3} ms",
        "measured CPU time",
        meas.cpu_total(opt.iters) * 1e3
    );
    println!(
        "\nspeedup: measured {:.2}x | predicted {:.2}x (kernel-only {:.2}x, transfer-only {:.2}x)",
        r.measured, r.predicted_combined, r.predicted_kernel_only, r.predicted_transfer_only
    );
    println!(
        "verdict: {}",
        if r.predicted_combined >= 1.0 {
            "port it"
        } else {
            "don't port"
        }
    );
    ExitCode::SUCCESS
}

fn cmd_analyze(program: &Program, hints: &Hints, _opt: &Options) -> ExitCode {
    let plan = analyze(program, hints);
    print!("{plan}");
    let conservative =
        |sparse| (plan.all()).any(|t| !t.exact && program.array(t.array).sparse == sparse);
    if conservative(true) {
        println!("note: conservative sizes present — add --sparse hints to tighten them.");
    }
    if conservative(false) {
        println!("note: some references are strided, gapped, diagonal or data-dependent, so their sizes are upper bounds.");
    }
    ExitCode::SUCCESS
}

/// Resolves the fault plan for a long-running command: `--fault-plan`
/// wins; otherwise `GPP_FAULT_PLAN`; otherwise no faults. `None` means a
/// plan was given but does not parse (already reported).
fn faults_for(opt: &Options, who: &str) -> Option<std::sync::Arc<gpp_fault::FaultInjector>> {
    use gpp_fault::{FaultInjector, FaultPlan};
    let faults = match &opt.fault_plan {
        Some(spec) => match spec.parse::<FaultPlan>() {
            Ok(plan) => std::sync::Arc::new(FaultInjector::new(plan)),
            Err(e) => {
                eprintln!("--fault-plan: {e}");
                return None;
            }
        },
        None => match FaultInjector::from_env() {
            Ok(inj) => inj,
            Err(e) => {
                eprintln!("{}: {e}", gpp_fault::ENV_FAULT_PLAN);
                return None;
            }
        },
    };
    if faults.is_active() {
        eprintln!("{who}: fault injection armed: {}", faults.plan());
    }
    Some(faults)
}

fn cmd_serve(opt: &Options) -> ExitCode {
    use gpp_serve::{server::signals, ServeConfig, Server};
    use std::sync::Arc;
    use std::time::Duration;
    let Some(faults) = faults_for(opt, "gpp-serve") else {
        return ExitCode::from(2);
    };
    let Some(registry) = registry_for(opt) else {
        return ExitCode::from(2);
    };
    eprintln!("gpp-serve: machines: {}", registry.names().join(", "));
    let config = ServeConfig {
        addr: opt.addr.clone(),
        workers: opt.workers,
        queue_depth: opt.queue_depth,
        request_timeout: Duration::from_secs(opt.timeout_secs),
        faults,
        machines: Arc::new(registry),
        ..ServeConfig::default()
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", opt.addr);
            return ExitCode::FAILURE;
        }
    };
    signals::install();
    match server.local_addr() {
        Ok(addr) => {
            // Machine-parsable bound address (meaningful with --addr
            // host:0): scripts read this line to find the server.
            println!("GPP_ADDR={addr}");
            eprintln!(
                "gpp-serve listening on {addr} ({} workers, queue {})",
                opt.workers, opt.queue_depth
            );
        }
        Err(e) => eprintln!("gpp-serve listening ({e})"),
    }
    if let Err(e) = server.run() {
        eprintln!("gpp-serve failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("gpp-serve: drained and stopped");
    ExitCode::SUCCESS
}

fn cmd_gateway(opt: &Options) -> ExitCode {
    use gpp_gateway::{Gateway, GatewayConfig};
    use gpp_serve::{server::signals, ServeConfig, Server};
    use std::sync::Arc;
    use std::time::Duration;
    let Some(faults) = faults_for(opt, "gpp-gateway") else {
        return ExitCode::from(2);
    };
    if opt.shards == 0 && opt.shard_addrs.is_empty() {
        eprintln!("gpp gateway needs shards: --shards N (embedded) and/or --shard ADDR");
        return ExitCode::from(2);
    }
    let Some(registry) = registry_for(opt) else {
        return ExitCode::from(2);
    };
    let registry = Arc::new(registry);
    // Embedded shards: in-process gpp-serve instances on ephemeral ports.
    // They share the gateway's fault plan, so shard-scoped chaos points
    // (serve.* ones) apply to them too.
    let mut shard_handles = Vec::new();
    let mut shard_addrs = Vec::new();
    for i in 0..opt.shards {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: opt.workers,
            queue_depth: opt.queue_depth,
            request_timeout: Duration::from_secs(opt.timeout_secs),
            faults: faults.clone(),
            machines: registry.clone(),
            ..ServeConfig::default()
        };
        let handle = match Server::bind(config).and_then(Server::spawn) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("cannot start embedded shard {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("GPP_SHARD_ADDR={}", handle.addr());
        shard_addrs.push(handle.addr().to_string());
        shard_handles.push(handle);
    }
    shard_addrs.extend(opt.shard_addrs.iter().cloned());
    let config = GatewayConfig {
        addr: if opt.addr == "127.0.0.1:4513" {
            // The serve default port would collide with a local shard
            // fleet; the gateway defaults to an ephemeral port instead.
            "127.0.0.1:0".to_string()
        } else {
            opt.addr.clone()
        },
        workers: opt.workers,
        queue_depth: opt.queue_depth,
        request_timeout: Duration::from_secs(opt.timeout_secs),
        hedge: !opt.no_hedge,
        faults,
        ..GatewayConfig::default()
    };
    let gateway = match Gateway::bind(config, shard_addrs) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot bind gateway: {e}");
            return ExitCode::FAILURE;
        }
    };
    signals::install();
    match gateway.local_addr() {
        Ok(addr) => {
            println!("GPP_ADDR={addr}");
            eprintln!(
                "gpp-gateway listening on {addr} ({} shard(s), {} workers)",
                gateway.state().pool.len(),
                opt.workers
            );
        }
        Err(e) => eprintln!("gpp-gateway listening ({e})"),
    }
    if let Err(e) = gateway.run() {
        eprintln!("gpp-gateway failed: {e}");
        return ExitCode::FAILURE;
    }
    for handle in shard_handles {
        let _ = handle.shutdown_and_join();
    }
    eprintln!("gpp-gateway: drained and stopped");
    ExitCode::SUCCESS
}

fn cmd_request(opt: &Options) -> ExitCode {
    use gpp_serve::{request_with_retries, Command, Request, RetryBudget};
    use std::time::Duration;
    let Some(command) = Command::parse(&opt.remote_command) else {
        eprintln!(
            "unknown request command `{}` (known: project, measure, analyze, deps, calibrate, stats, ping, health)",
            opt.remote_command
        );
        return ExitCode::from(2);
    };
    let mut req = Request::new(command);
    req.machine = opt.machine.clone();
    req.seed = opt.seed;
    req.iters = opt.iters;
    req.temporaries = opt.temporaries.clone();
    req.sparse = opt.sparse.clone();
    req.lint = opt.lint;
    req.deadline_ms = opt.deadline_ms;
    if command.needs_skeleton() {
        let Some(path) = &opt.file else {
            eprintln!("`gpp request --command {command}` needs a skeleton file");
            return ExitCode::from(2);
        };
        req.skeleton = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
    }
    let timeout = match opt.timeout_ms {
        Some(ms) => Duration::from_millis(ms),
        None => Duration::from_secs(opt.timeout_secs),
    };
    let budget = opt.retry_budget.map(RetryBudget::new);
    match request_with_retries(
        opt.addr.as_str(),
        &req,
        timeout,
        opt.retries,
        Duration::from_millis(100),
        budget.as_ref(),
    ) {
        Ok(response) => {
            println!("{response}");
            if response.starts_with("{\"ok\":false") {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("request to {} failed: {e}", opt.addr);
            ExitCode::FAILURE
        }
    }
}

fn cmd_calibrate(opt: &Options) -> ExitCode {
    use gpp_pcie::{Direction, MemType, SweepValidation};
    let Some(machine) = machine_for(opt) else {
        return ExitCode::from(2);
    };
    let mut node = machine.node();
    let gro = Grophecy::calibrate(&machine, &mut node);
    println!("machine: {}", machine.name);
    println!("h2d: {}", gro.pcie_model().h2d);
    println!("d2h: {}", gro.pcie_model().d2h);
    for dir in Direction::ALL {
        let v = SweepValidation::paper_sweep(&mut node.bus, gro.pcie_model(), dir, MemType::Pinned);
        println!(
            "{dir}: mean error {:.2}%  max {:.2}%  (above 1 MB: {:.2}%)",
            v.mean_error(),
            v.max_error(),
            v.mean_error_above(1 << 20)
        );
    }
    ExitCode::SUCCESS
}
