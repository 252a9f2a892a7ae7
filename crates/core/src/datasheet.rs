//! `.gmach` — the dependency-free machine datasheet text format.
//!
//! A machine is data, not a constructor (GROPHECY frames projection "onto
//! hypothetical GPU designs from a parameterized spec"). This module
//! serializes a complete [`MachineConfig`] — registry id, report name, GPU
//! datasheet, simulated GPU/CPU/bus parameters, and node seed — to a
//! line-oriented text format in the same hand-rolled style as the `.gsk`
//! skeleton format ([`gpp_skeleton::text`]): `#` comments, indentation
//! ignored, no external parser dependencies.
//!
//! ```text
//! machine eureka
//! name "ANL Eureka node ..."
//! seed 2013
//!
//! gpu_spec "Quadro FX 5600"
//!   sms 16
//!   clock_hz 1350000000
//!   ...
//!
//! gpu "Quadro FX 5600 (simulated)"
//!   ...
//!
//! cpu
//!   cores 4
//!   ...
//!
//! bus sim
//!   gen v1
//!   lanes 16
//!   ...
//! ```
//!
//! A replay-backed machine declares its bus as a recorded trace instead,
//! either inline or from a sidecar file in the [`RecordedBus`] text format
//! (`from` is resolved by the loader — see [`parse_with`]):
//!
//! ```text
//! bus replay "eureka-2009-06"
//!   sample 1 h2d pinned 0.0000099
//!   sample 536870912 h2d pinned 0.215
//!   ...
//! # or: bus replay "eureka-2009-06" from "eureka.trace"
//! ```
//!
//! A multi-GPU node appends one `device <id>` section per *extra* device
//! (same key set as `bus sim`; the primary device is the top-level
//! `gpu_spec`/`gpu`/`bus`) and optionally a `root_complex` section giving
//! the aggregate host-side bandwidth all links contend for. Both are
//! omitted entirely for single-GPU machines, so existing datasheets are
//! byte-identical:
//!
//! ```text
//! device 1
//!   gen v2
//!   lanes 16
//!   ...
//!
//! root_complex
//!   shared_bw 12000000000
//! ```
//!
//! # Round trip
//!
//! [`to_text`] is byte-stable and [`parse`] is its exact inverse:
//! `parse(&to_text(&m)) == Ok(m)` for any machine (floats print in Rust's
//! shortest round-trip decimal form, so no precision is lost), and
//! `to_text(&parse(t)?) == t` for canonical text. Names must not contain
//! `"` or newlines. Key order inside a section is free on input; output is
//! canonical (declaration order of the underlying structs).
//!
//! [`RecordedBus`]: gpp_pcie::RecordedBus

use crate::machine::{BusSpec, DeviceLink, MachineConfig, ReplayTrace, RootComplex};
use gpp_cpu_sim::CpuParams;
use gpp_gpu_model::{GpuSpec, ModelOccupancy, BASE_REGS, MIN_BLOCK_THREADS};
use gpp_gpu_sim::DeviceParams;
use gpp_pcie::replay::{parse_sample, parse_samples};
use gpp_pcie::{BusParams, Direction, MemType, PcieGen};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A datasheet parse failure with its 1-based line number (0 = whole file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmachError {
    /// Offending line (0 when the error concerns the file as a whole).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl GmachError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        GmachError {
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for GmachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "datasheet: {}", self.message)
        } else {
            write!(f, "datasheet line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for GmachError {}

// ---------------------------------------------------------------- writing

fn push_kv(out: &mut String, key: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "  {key} {value}");
}

fn gen_tag(g: PcieGen) -> &'static str {
    match g {
        PcieGen::V1 => "v1",
        PcieGen::V2 => "v2",
        PcieGen::V3 => "v3",
    }
}

fn dir_tag(d: Direction) -> &'static str {
    match d {
        Direction::HostToDevice => "h2d",
        Direction::DeviceToHost => "d2h",
    }
}

fn mem_tag(m: MemType) -> &'static str {
    match m {
        MemType::Pinned => "pinned",
        MemType::Pageable => "pageable",
    }
}

/// Serializes a machine to canonical `.gmach` text. Byte-stable: equal
/// configs produce identical bytes, and [`parse`] inverts it exactly.
pub fn to_text(m: &MachineConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "machine {}", m.id);
    let _ = writeln!(out, "name \"{}\"", m.name);
    let _ = writeln!(out, "seed {}", m.seed);

    let s = &m.gpu_spec;
    let _ = writeln!(out, "\ngpu_spec \"{}\"", s.name);
    push_kv(&mut out, "sms", s.sms);
    push_kv(&mut out, "sps_per_sm", s.sps_per_sm);
    push_kv(&mut out, "warp_size", s.warp_size);
    push_kv(&mut out, "clock_hz", s.clock_hz);
    push_kv(&mut out, "mem_bw", s.mem_bw);
    push_kv(&mut out, "bw_derate", s.bw_derate);
    push_kv(&mut out, "mem_latency_cycles", s.mem_latency_cycles);
    push_kv(&mut out, "segment_bytes", s.segment_bytes);
    push_kv(&mut out, "max_threads_per_sm", s.max_threads_per_sm);
    push_kv(&mut out, "max_blocks_per_sm", s.max_blocks_per_sm);
    push_kv(&mut out, "max_threads_per_block", s.max_threads_per_block);
    push_kv(&mut out, "shared_per_sm", s.shared_per_sm);
    push_kv(&mut out, "regs_per_sm", s.regs_per_sm);
    push_kv(&mut out, "launch_overhead", s.launch_overhead);
    push_kv(
        &mut out,
        "misaligned_halfwarp_transactions",
        s.misaligned_halfwarp_transactions,
    );

    let g = &m.gpu;
    let _ = writeln!(out, "\ngpu \"{}\"", g.name);
    push_kv(&mut out, "sms", g.sms);
    push_kv(&mut out, "sps_per_sm", g.sps_per_sm);
    push_kv(&mut out, "warp_size", g.warp_size);
    push_kv(&mut out, "clock_hz", g.clock_hz);
    push_kv(&mut out, "mem_bw", g.mem_bw);
    push_kv(&mut out, "mem_efficiency", g.mem_efficiency);
    push_kv(&mut out, "mem_latency_cycles", g.mem_latency_cycles);
    push_kv(&mut out, "segment_bytes", g.segment_bytes);
    push_kv(&mut out, "max_threads_per_sm", g.max_threads_per_sm);
    push_kv(&mut out, "max_blocks_per_sm", g.max_blocks_per_sm);
    push_kv(&mut out, "max_threads_per_block", g.max_threads_per_block);
    push_kv(&mut out, "shared_per_sm", g.shared_per_sm);
    push_kv(&mut out, "regs_per_sm", g.regs_per_sm);
    push_kv(&mut out, "dram_bytes", g.dram_bytes);
    push_kv(&mut out, "launch_overhead", g.launch_overhead);
    push_kv(&mut out, "noise_rel_sigma", g.noise_rel_sigma);
    push_kv(&mut out, "misaligned_factor", g.misaligned_factor);
    push_kv(&mut out, "scatter_efficiency", g.scatter_efficiency);
    push_kv(&mut out, "sfu_slowdown", g.sfu_slowdown);

    let c = &m.cpu;
    out.push_str("\ncpu\n");
    push_kv(&mut out, "cores", c.cores);
    push_kv(&mut out, "threads", c.threads);
    push_kv(&mut out, "freq_hz", c.freq_hz);
    push_kv(&mut out, "flops_per_cycle", c.flops_per_cycle);
    push_kv(&mut out, "compute_efficiency", c.compute_efficiency);
    push_kv(&mut out, "mem_bw", c.mem_bw);
    push_kv(&mut out, "llc_bytes", c.llc_bytes);
    push_kv(&mut out, "parallel_efficiency", c.parallel_efficiency);
    push_kv(&mut out, "region_overhead", c.region_overhead);
    push_kv(&mut out, "random_line_rate", c.random_line_rate);

    match &m.bus {
        BusSpec::Sim(b) => {
            out.push_str("\nbus sim\n");
            push_bus_params(&mut out, b);
        }
        BusSpec::Replay(t) => {
            let _ = writeln!(out, "\nbus replay \"{}\"", t.label);
            for &(bytes, dir, mem, secs) in &t.samples {
                let _ = writeln!(
                    out,
                    "  sample {bytes} {} {} {secs}",
                    dir_tag(dir),
                    mem_tag(mem)
                );
            }
        }
    }

    for d in &m.devices {
        let _ = writeln!(out, "\ndevice {}", d.id);
        push_bus_params(&mut out, &d.bus);
    }
    if let Some(rc) = &m.root_complex {
        out.push_str("\nroot_complex\n");
        push_kv(&mut out, "shared_bw", rc.shared_bw);
    }
    out
}

/// Emits the canonical key lines of one [`BusParams`] block — shared by
/// the `bus sim` section and each extra `device <id>` section.
fn push_bus_params(out: &mut String, b: &BusParams) {
    push_kv(out, "gen", gen_tag(b.gen));
    push_kv(out, "lanes", b.lanes);
    push_kv(out, "max_payload", b.max_payload);
    push_kv(out, "tlp_overhead", b.tlp_overhead);
    push_kv(out, "link_efficiency", b.link_efficiency);
    push_kv(out, "dma_setup_h2d", b.dma_setup_h2d);
    push_kv(out, "dma_setup_d2h", b.dma_setup_d2h);
    push_kv(out, "host_copy_bw", b.host_copy_bw);
    push_kv(out, "staging_chunk", b.staging_chunk);
    push_kv(out, "staging_overhead", b.staging_overhead);
    push_kv(out, "staging_overlap", b.staging_overlap);
    push_kv(out, "pageable_fastpath_bytes", b.pageable_fastpath_bytes);
    push_kv(
        out,
        "pageable_fastpath_latency",
        b.pageable_fastpath_latency,
    );
    push_kv(out, "noise_rel_sigma", b.noise_rel_sigma);
    push_kv(out, "noise_abs_sigma", b.noise_abs_sigma);
    push_kv(out, "hiccup_prob", b.hiccup_prob);
}

// ---------------------------------------------------------------- lexing

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Str(String),
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Word(w) => format!("`{w}`"),
            Token::Str(s) => format!("\"{s}\""),
        }
    }
}

/// Splits one line into bare words and `"quoted strings"` (no escapes),
/// dropping everything after an unquoted `#`.
fn lex_line(line: &str, lineno: usize) -> Result<Vec<Token>, GmachError> {
    let mut tokens = Vec::new();
    let mut chars = line.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '#' {
            break;
        } else if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some(ch) => s.push(ch),
                    None => return Err(GmachError::new(lineno, "unterminated string")),
                }
            }
            tokens.push(Token::Str(s));
        } else {
            let mut w = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '#' || ch == '"' {
                    break;
                }
                w.push(ch);
                chars.next();
            }
            tokens.push(Token::Word(w));
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------- parsing

/// Key → (line, raw value) for one section, with duplicate detection.
#[derive(Debug, Default)]
struct Fields(BTreeMap<String, (usize, String)>);

impl Fields {
    fn insert(&mut self, key: String, line: usize, value: String) -> Result<(), GmachError> {
        if self.0.insert(key.clone(), (line, value)).is_some() {
            return Err(GmachError::new(line, format!("duplicate key `{key}`")));
        }
        Ok(())
    }

    fn take(&mut self, section: &str, key: &str) -> Result<(usize, String), GmachError> {
        self.0
            .remove(key)
            .ok_or_else(|| GmachError::new(0, format!("section `{section}` is missing `{key}`")))
    }

    fn f64(&mut self, section: &str, key: &str) -> Result<f64, GmachError> {
        let (line, v) = self.take(section, key)?;
        v.parse()
            .map_err(|_| GmachError::new(line, format!("`{key}`: bad number `{v}`")))
    }

    fn u32(&mut self, section: &str, key: &str) -> Result<u32, GmachError> {
        let (line, v) = self.take(section, key)?;
        v.parse()
            .map_err(|_| GmachError::new(line, format!("`{key}`: bad integer `{v}`")))
    }

    fn u64(&mut self, section: &str, key: &str) -> Result<u64, GmachError> {
        let (line, v) = self.take(section, key)?;
        v.parse()
            .map_err(|_| GmachError::new(line, format!("`{key}`: bad integer `{v}`")))
    }

    fn finish(self, section: &str) -> Result<(), GmachError> {
        if let Some((key, (line, _))) = self.0.into_iter().next() {
            return Err(GmachError::new(
                line,
                format!("unknown key `{key}` in section `{section}`"),
            ));
        }
        Ok(())
    }
}

#[derive(Debug)]
enum Section {
    None,
    GpuSpec,
    Gpu,
    Cpu,
    BusSim,
    BusReplay,
    /// Index into the parser's per-device fields vector.
    Device(usize),
    RootComplex,
}

/// Builds one [`BusParams`] from a collected key/value section — shared by
/// `bus sim` and each `device <id>` section. Does not call `finish`; the
/// caller reports leftovers under its own section name.
fn bus_params_from_fields(sec: &str, f: &mut Fields) -> Result<BusParams, GmachError> {
    let (gen_line, gen_word) = f.take(sec, "gen")?;
    let gen = match gen_word.as_str() {
        "v1" => PcieGen::V1,
        "v2" => PcieGen::V2,
        "v3" => PcieGen::V3,
        other => {
            return Err(GmachError::new(
                gen_line,
                format!("`gen` must be v1|v2|v3, got `{other}`"),
            ));
        }
    };
    Ok(BusParams {
        gen,
        lanes: f.u32(sec, "lanes")?,
        max_payload: f.u32(sec, "max_payload")?,
        tlp_overhead: f.u32(sec, "tlp_overhead")?,
        link_efficiency: f.f64(sec, "link_efficiency")?,
        dma_setup_h2d: f.f64(sec, "dma_setup_h2d")?,
        dma_setup_d2h: f.f64(sec, "dma_setup_d2h")?,
        host_copy_bw: f.f64(sec, "host_copy_bw")?,
        staging_chunk: f.u64(sec, "staging_chunk")?,
        staging_overhead: f.f64(sec, "staging_overhead")?,
        staging_overlap: f.f64(sec, "staging_overlap")?,
        pageable_fastpath_bytes: f.u64(sec, "pageable_fastpath_bytes")?,
        pageable_fastpath_latency: f.f64(sec, "pageable_fastpath_latency")?,
        noise_rel_sigma: f.f64(sec, "noise_rel_sigma")?,
        noise_abs_sigma: f.f64(sec, "noise_abs_sigma")?,
        hiccup_prob: f.f64(sec, "hiccup_prob")?,
    })
}

/// Rejects a `gpu_spec` the transformation search cannot run on: a zero
/// divisor of the occupancy and issue-rate rules, a rate that would feed
/// infinite or NaN times into the search, or a device that cannot launch
/// the smallest candidate every kernel's search space contains.
fn check_gpu_spec(s: &GpuSpec) -> Result<(), GmachError> {
    let err = |message: String| Err(GmachError::new(0, format!("`gpu_spec`: {message}")));
    for (key, v) in [
        ("sms", s.sms),
        ("sps_per_sm", s.sps_per_sm),
        ("warp_size", s.warp_size),
    ] {
        if v == 0 {
            return err(format!("`{key}` must be non-zero"));
        }
    }
    for (key, v) in [
        ("clock_hz", s.clock_hz),
        ("mem_bw", s.mem_bw),
        ("bw_derate", s.bw_derate),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return err(format!("`{key}` must be positive and finite, got {v}"));
        }
    }
    let smallest = u64::from(MIN_BLOCK_THREADS);
    if ModelOccupancy::compute_parts(s, MIN_BLOCK_THREADS, BASE_REGS, 0, smallest).is_none() {
        return err(format!(
            "cannot launch the smallest candidate block \
             ({MIN_BLOCK_THREADS} threads × {BASE_REGS} registers)"
        ));
    }
    Ok(())
}

/// Parses `.gmach` text into a machine. Inline datasheets only: a
/// `bus replay ... from "file"` reference fails here — use [`parse_with`]
/// (or the registry's directory loader) to resolve sidecar trace files.
pub fn parse(input: &str) -> Result<MachineConfig, GmachError> {
    parse_with(input, &mut |path| {
        Err(format!(
            "external trace `{path}` cannot be resolved here (load the datasheet \
             through MachineRegistry::load_dir, which reads sidecar files)"
        ))
    })
}

/// Like [`parse`], but `resolve` supplies the contents of sidecar trace
/// files named by `bus replay "label" from "path"` lines. The resolved text
/// is in the [`gpp_pcie::RecordedBus`] trace format (`bytes dir mem secs`
/// per line, `#` comments).
pub fn parse_with(
    input: &str,
    resolve: &mut dyn FnMut(&str) -> Result<String, String>,
) -> Result<MachineConfig, GmachError> {
    let mut id: Option<String> = None;
    let mut name: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut gpu_spec_name: Option<String> = None;
    let mut gpu_name: Option<String> = None;
    let mut replay_label: Option<String> = None;
    let mut replay_samples: Vec<(u64, Direction, MemType, f64)> = Vec::new();
    let mut saw_cpu = false;
    let mut bus_seen = false;
    let mut saw_root_complex = false;
    let mut gpu_spec_fields = Fields::default();
    let mut gpu_fields = Fields::default();
    let mut cpu_fields = Fields::default();
    let mut bus_fields = Fields::default();
    let mut device_sections: Vec<(u32, Fields)> = Vec::new();
    let mut rc_fields = Fields::default();
    let mut section = Section::None;

    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let tokens = lex_line(raw, lineno)?;
        if tokens.is_empty() {
            continue;
        }
        let head = match &tokens[0] {
            Token::Word(w) => w.as_str(),
            Token::Str(_) => {
                return Err(GmachError::new(lineno, "line starts with a string"));
            }
        };
        match head {
            "machine" => {
                let [_, Token::Word(v)] = &tokens[..] else {
                    return Err(GmachError::new(lineno, "usage: machine <id>"));
                };
                if id.replace(v.clone()).is_some() {
                    return Err(GmachError::new(lineno, "duplicate `machine`"));
                }
                section = Section::None;
            }
            "name" => {
                let [_, Token::Str(v)] = &tokens[..] else {
                    return Err(GmachError::new(lineno, "usage: name \"<name>\""));
                };
                if name.replace(v.clone()).is_some() {
                    return Err(GmachError::new(lineno, "duplicate `name`"));
                }
                section = Section::None;
            }
            "seed" => {
                let [_, Token::Word(v)] = &tokens[..] else {
                    return Err(GmachError::new(lineno, "usage: seed <u64>"));
                };
                let v: u64 = v
                    .parse()
                    .map_err(|_| GmachError::new(lineno, format!("bad seed `{v}`")))?;
                if seed.replace(v).is_some() {
                    return Err(GmachError::new(lineno, "duplicate `seed`"));
                }
                section = Section::None;
            }
            "gpu_spec" => {
                let [_, Token::Str(v)] = &tokens[..] else {
                    return Err(GmachError::new(lineno, "usage: gpu_spec \"<name>\""));
                };
                if gpu_spec_name.replace(v.clone()).is_some() {
                    return Err(GmachError::new(lineno, "duplicate `gpu_spec` section"));
                }
                section = Section::GpuSpec;
            }
            "gpu" => {
                let [_, Token::Str(v)] = &tokens[..] else {
                    return Err(GmachError::new(lineno, "usage: gpu \"<name>\""));
                };
                if gpu_name.replace(v.clone()).is_some() {
                    return Err(GmachError::new(lineno, "duplicate `gpu` section"));
                }
                section = Section::Gpu;
            }
            "cpu" => {
                if tokens.len() != 1 {
                    return Err(GmachError::new(lineno, "usage: cpu"));
                }
                if saw_cpu {
                    return Err(GmachError::new(lineno, "duplicate `cpu` section"));
                }
                saw_cpu = true;
                section = Section::Cpu;
            }
            "bus" => {
                if bus_seen {
                    return Err(GmachError::new(lineno, "duplicate `bus` section"));
                }
                bus_seen = true;
                match &tokens[1..] {
                    [Token::Word(k)] if k == "sim" => section = Section::BusSim,
                    [Token::Word(k), Token::Str(label)] if k == "replay" => {
                        replay_label = Some(label.clone());
                        section = Section::BusReplay;
                    }
                    [Token::Word(k), Token::Str(label), Token::Word(from), Token::Str(path)]
                        if k == "replay" && from == "from" =>
                    {
                        let text = resolve(path).map_err(|e| GmachError::new(lineno, e))?;
                        replay_samples = parse_samples(&text).map_err(|e| {
                            let e = format!("in trace `{path}`: line {}: {}", e.line, e.message);
                            GmachError::new(lineno, e)
                        })?;
                        replay_label = Some(label.clone());
                        section = Section::BusReplay;
                    }
                    _ => {
                        return Err(GmachError::new(
                            lineno,
                            "usage: bus sim | bus replay \"<label>\" [from \"<file>\"]",
                        ));
                    }
                }
            }
            "device" => {
                let [_, Token::Word(v)] = &tokens[..] else {
                    return Err(GmachError::new(lineno, "usage: device <id>"));
                };
                let dev_id: u32 = v
                    .parse()
                    .map_err(|_| GmachError::new(lineno, format!("bad device id `{v}`")))?;
                if dev_id == 0 {
                    return Err(GmachError::new(
                        lineno,
                        "device 0 is the primary device (the top-level `bus` section)",
                    ));
                }
                if device_sections.iter().any(|(id, _)| *id == dev_id) {
                    return Err(GmachError::new(
                        lineno,
                        format!("duplicate `device {dev_id}` section"),
                    ));
                }
                device_sections.push((dev_id, Fields::default()));
                section = Section::Device(device_sections.len() - 1);
            }
            "root_complex" => {
                if tokens.len() != 1 {
                    return Err(GmachError::new(lineno, "usage: root_complex"));
                }
                if saw_root_complex {
                    return Err(GmachError::new(lineno, "duplicate `root_complex` section"));
                }
                saw_root_complex = true;
                section = Section::RootComplex;
            }
            "sample" => {
                if !matches!(section, Section::BusReplay) {
                    return Err(GmachError::new(
                        lineno,
                        "`sample` only belongs in a `bus replay` section",
                    ));
                }
                let words: Vec<&str> = tokens[1..]
                    .iter()
                    .map(|t| match t {
                        Token::Word(w) => Ok(w.as_str()),
                        Token::Str(_) => Err(GmachError::new(lineno, "bad sample field")),
                    })
                    .collect::<Result<_, _>>()?;
                let sample = parse_sample(&words).map_err(|e| GmachError::new(lineno, e))?;
                replay_samples.push(sample);
            }
            key => match section {
                Section::None => {
                    return Err(GmachError::new(
                        lineno,
                        format!("unknown directive `{key}` outside any section"),
                    ));
                }
                ref sec => {
                    let [_, value] = &tokens[..] else {
                        return Err(GmachError::new(lineno, format!("usage: {key} <value>")));
                    };
                    let Token::Word(value) = value else {
                        return Err(GmachError::new(
                            lineno,
                            format!("`{key}`: expected a bare value, got {}", value.describe()),
                        ));
                    };
                    let fields = match sec {
                        Section::GpuSpec => &mut gpu_spec_fields,
                        Section::Gpu => &mut gpu_fields,
                        Section::Cpu => &mut cpu_fields,
                        Section::BusSim => &mut bus_fields,
                        Section::Device(i) => &mut device_sections[*i].1,
                        Section::RootComplex => &mut rc_fields,
                        Section::BusReplay => {
                            return Err(GmachError::new(
                                lineno,
                                format!("unknown replay directive `{key}` (expected `sample`)"),
                            ));
                        }
                        Section::None => unreachable!(),
                    };
                    fields.insert(key.to_string(), lineno, value.clone())?;
                }
            },
        }
    }

    let id = id.ok_or_else(|| GmachError::new(0, "missing `machine <id>`"))?;
    if id.is_empty() {
        return Err(GmachError::new(0, "machine id must be non-empty"));
    }
    let name = name.ok_or_else(|| GmachError::new(0, "missing `name`"))?;
    let seed = seed.ok_or_else(|| GmachError::new(0, "missing `seed`"))?;

    let sec = "gpu_spec";
    let spec_name = gpu_spec_name.ok_or_else(|| GmachError::new(0, "missing `gpu_spec`"))?;
    let f = &mut gpu_spec_fields;
    let gpu_spec = GpuSpec {
        name: spec_name,
        sms: f.u32(sec, "sms")?,
        sps_per_sm: f.u32(sec, "sps_per_sm")?,
        warp_size: f.u32(sec, "warp_size")?,
        clock_hz: f.f64(sec, "clock_hz")?,
        mem_bw: f.f64(sec, "mem_bw")?,
        bw_derate: f.f64(sec, "bw_derate")?,
        mem_latency_cycles: f.f64(sec, "mem_latency_cycles")?,
        segment_bytes: f.u32(sec, "segment_bytes")?,
        max_threads_per_sm: f.u32(sec, "max_threads_per_sm")?,
        max_blocks_per_sm: f.u32(sec, "max_blocks_per_sm")?,
        max_threads_per_block: f.u32(sec, "max_threads_per_block")?,
        shared_per_sm: f.u32(sec, "shared_per_sm")?,
        regs_per_sm: f.u32(sec, "regs_per_sm")?,
        launch_overhead: f.f64(sec, "launch_overhead")?,
        misaligned_halfwarp_transactions: f.f64(sec, "misaligned_halfwarp_transactions")?,
    };
    gpu_spec_fields.finish(sec)?;
    check_gpu_spec(&gpu_spec)?;

    let sec = "gpu";
    let dev_name = gpu_name.ok_or_else(|| GmachError::new(0, "missing `gpu`"))?;
    let f = &mut gpu_fields;
    let gpu = DeviceParams {
        name: dev_name,
        sms: f.u32(sec, "sms")?,
        sps_per_sm: f.u32(sec, "sps_per_sm")?,
        warp_size: f.u32(sec, "warp_size")?,
        clock_hz: f.f64(sec, "clock_hz")?,
        mem_bw: f.f64(sec, "mem_bw")?,
        mem_efficiency: f.f64(sec, "mem_efficiency")?,
        mem_latency_cycles: f.f64(sec, "mem_latency_cycles")?,
        segment_bytes: f.u32(sec, "segment_bytes")?,
        max_threads_per_sm: f.u32(sec, "max_threads_per_sm")?,
        max_blocks_per_sm: f.u32(sec, "max_blocks_per_sm")?,
        max_threads_per_block: f.u32(sec, "max_threads_per_block")?,
        shared_per_sm: f.u32(sec, "shared_per_sm")?,
        regs_per_sm: f.u32(sec, "regs_per_sm")?,
        dram_bytes: f.u64(sec, "dram_bytes")?,
        launch_overhead: f.f64(sec, "launch_overhead")?,
        noise_rel_sigma: f.f64(sec, "noise_rel_sigma")?,
        misaligned_factor: f.f64(sec, "misaligned_factor")?,
        scatter_efficiency: f.f64(sec, "scatter_efficiency")?,
        sfu_slowdown: f.f64(sec, "sfu_slowdown")?,
    };
    gpu_fields.finish(sec)?;

    let sec = "cpu";
    if !saw_cpu {
        return Err(GmachError::new(0, "missing `cpu`"));
    }
    let f = &mut cpu_fields;
    let cpu = CpuParams {
        cores: f.u32(sec, "cores")?,
        threads: f.u32(sec, "threads")?,
        freq_hz: f.f64(sec, "freq_hz")?,
        flops_per_cycle: f.f64(sec, "flops_per_cycle")?,
        compute_efficiency: f.f64(sec, "compute_efficiency")?,
        mem_bw: f.f64(sec, "mem_bw")?,
        llc_bytes: f.u64(sec, "llc_bytes")?,
        parallel_efficiency: f.f64(sec, "parallel_efficiency")?,
        region_overhead: f.f64(sec, "region_overhead")?,
        random_line_rate: f.f64(sec, "random_line_rate")?,
    };
    cpu_fields.finish(sec)?;

    if !bus_seen {
        return Err(GmachError::new(0, "missing `bus`"));
    }
    let bus = if let Some(label) = replay_label {
        BusSpec::Replay(ReplayTrace {
            label,
            samples: replay_samples,
        })
    } else {
        let sec = "bus sim";
        let bus = bus_params_from_fields(sec, &mut bus_fields)?;
        bus_fields.finish(sec)?;
        BusSpec::Sim(bus)
    };

    let mut devices = Vec::with_capacity(device_sections.len());
    for (dev_id, mut fields) in device_sections {
        let sec = format!("device {dev_id}");
        let dev_bus = bus_params_from_fields(&sec, &mut fields)?;
        fields.finish(&sec)?;
        devices.push(DeviceLink {
            id: dev_id,
            bus: dev_bus,
        });
    }

    let root_complex = if saw_root_complex {
        let sec = "root_complex";
        let shared_bw = rc_fields.f64(sec, "shared_bw")?;
        rc_fields.finish(sec)?;
        if !(shared_bw.is_finite() && shared_bw > 0.0) {
            return Err(GmachError::new(0, "`shared_bw` must be positive"));
        }
        Some(RootComplex { shared_bw })
    } else {
        None
    };

    let config = MachineConfig {
        id,
        name,
        gpu_spec,
        gpu,
        cpu,
        bus,
        seed,
        devices,
        root_complex,
    };
    config
        .bus
        .validate()
        .map_err(|e| GmachError::new(0, format!("invalid replay trace: {e}")))?;
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_round_trip_exactly() {
        for m in [
            MachineConfig::anl_eureka_node(2013),
            MachineConfig::pcie_v2_gt200_node(2013),
        ] {
            let text = to_text(&m);
            let back = parse(&text).unwrap();
            assert_eq!(back, m);
            // Byte-stable: re-serializing is the identity.
            assert_eq!(to_text(&back), text);
        }
    }

    #[test]
    fn replay_machines_round_trip_exactly() {
        let mut m = MachineConfig::anl_eureka_node(5);
        m.id = "recorded".into();
        m.bus = BusSpec::Replay(ReplayTrace {
            label: "eureka-2009-06".into(),
            samples: vec![
                (1, Direction::HostToDevice, MemType::Pinned, 9.9e-6),
                (536870912, Direction::HostToDevice, MemType::Pinned, 0.215),
                (1, Direction::DeviceToHost, MemType::Pinned, 1.13e-5),
                (536870912, Direction::DeviceToHost, MemType::Pinned, 0.216),
            ],
        });
        let text = to_text(&m);
        assert!(text.contains("bus replay \"eureka-2009-06\""));
        assert!(text.contains("sample 1 h2d pinned 0.0000099"));
        let back = parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn comments_and_key_order_are_free() {
        let canonical = to_text(&MachineConfig::anl_eureka_node(1));
        // Reverse every section's key lines and sprinkle comments: same
        // machine.
        let mut lines: Vec<&str> = canonical.lines().collect();
        lines.insert(1, "# a comment");
        let mut shuffled: Vec<String> = Vec::new();
        let mut section: Vec<String> = Vec::new();
        for l in lines {
            if l.starts_with("  ") {
                section.push(l.to_string());
            } else {
                shuffled.extend(section.drain(..).rev());
                shuffled.push(l.to_string());
            }
        }
        shuffled.extend(section.drain(..).rev());
        let back = parse(&shuffled.join("\n")).unwrap();
        assert_eq!(back, MachineConfig::anl_eureka_node(1));
    }

    #[test]
    fn errors_name_the_problem() {
        let e = parse("").unwrap_err();
        assert!(e.to_string().contains("machine"));
        let good = to_text(&MachineConfig::anl_eureka_node(1));
        let e = parse(&good.replace("  sms 16\n", "")).unwrap_err();
        assert!(e.to_string().contains("missing `sms`"), "{e}");
        let e = parse(&good.replace("  gen v1", "  gen v9")).unwrap_err();
        assert!(e.to_string().contains("v1|v2|v3"), "{e}");
        let e = parse(&(good.clone() + "bogus 3\n")).unwrap_err();
        assert!(e.to_string().contains("bogus"), "{e}");
        let e = parse(&(good + "seed 4\n")).unwrap_err();
        assert!(e.to_string().contains("duplicate"), "{e}");
    }

    #[test]
    fn multi_device_machines_round_trip_exactly() {
        let mut m = MachineConfig::anl_eureka_node(7);
        m.id = "dual".into();
        let mut second = BusParams::pcie_v1_x16();
        second.lanes = 8; // asymmetric slot wiring
        m.devices.push(DeviceLink { id: 1, bus: second });
        m.root_complex = Some(RootComplex { shared_bw: 5.0e9 });
        let text = to_text(&m);
        assert!(text.contains("\ndevice 1\n"));
        assert!(text.contains("\nroot_complex\n  shared_bw 5000000000\n"));
        let back = parse(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(to_text(&back), text);
        assert_eq!(back.device_count(), 2);
        assert!(back.is_multi_device());
    }

    #[test]
    fn device_section_errors_name_the_problem() {
        let base = to_text(&MachineConfig::anl_eureka_node(1));
        let e = parse(&(base.clone() + "\ndevice 0\n")).unwrap_err();
        assert!(e.to_string().contains("primary device"), "{e}");
        let e = parse(&(base.clone() + "\ndevice x\n")).unwrap_err();
        assert!(e.to_string().contains("bad device id"), "{e}");
        let dev = {
            let mut s = String::from("\ndevice 1\n");
            push_bus_params(&mut s, &BusParams::pcie_v1_x16());
            s
        };
        let e = parse(&(base.clone() + &dev + &dev)).unwrap_err();
        assert!(e.to_string().contains("duplicate `device 1`"), "{e}");
        let e = parse(&(base.clone() + "\ndevice 1\n  gen v1\n")).unwrap_err();
        assert!(
            e.to_string().contains("section `device 1` is missing"),
            "{e}"
        );
        let e = parse(&(base.clone() + "\nroot_complex\n  shared_bw -3\n")).unwrap_err();
        assert!(e.to_string().contains("must be positive"), "{e}");
        let e = parse(&(base + "\nroot_complex\n  shared_bw 1e9\n\nroot_complex\n")).unwrap_err();
        assert!(e.to_string().contains("duplicate `root_complex`"), "{e}");
    }

    /// Replaces one `gpu_spec` field (the first occurrence of `key`, which
    /// precedes the `gpu` section's) and parses.
    fn parse_with_spec_field(key: &str, value: &str) -> GmachError {
        let good = to_text(&MachineConfig::anl_eureka_node(1));
        let at = good.find(&format!("\n  {key} ")).expect("field present") + 1;
        let end = at + good[at..].find('\n').unwrap();
        parse(&format!("{}  {key} {value}{}", &good[..at], &good[end..])).unwrap_err()
    }

    #[test]
    fn gpu_spec_rejects_zero_divisors() {
        for key in ["warp_size", "sms", "sps_per_sm"] {
            let e = parse_with_spec_field(key, "0");
            assert!(
                e.to_string().contains(&format!("`{key}` must be non-zero")),
                "{e}"
            );
        }
    }

    #[test]
    fn gpu_spec_rejects_non_positive_or_non_finite_rates() {
        for key in ["clock_hz", "mem_bw", "bw_derate"] {
            for value in ["0", "-1", "inf", "NaN"] {
                let e = parse_with_spec_field(key, value);
                assert!(
                    e.to_string().contains(&format!("`{key}` must be positive")),
                    "{key} {value}: {e}"
                );
            }
        }
    }

    #[test]
    fn gpu_spec_rejects_a_device_that_cannot_launch_the_smallest_block() {
        for (key, value) in [("max_threads_per_block", "32"), ("regs_per_sm", "512")] {
            let e = parse_with_spec_field(key, value);
            assert!(
                e.to_string().contains("smallest candidate block"),
                "{key}: {e}"
            );
        }
    }

    #[test]
    fn external_trace_requires_a_resolver() {
        let mut m = MachineConfig::anl_eureka_node(1);
        m.bus = BusSpec::Replay(ReplayTrace {
            label: "x".into(),
            samples: vec![],
        });
        let text = to_text(&m).replace("bus replay \"x\"", "bus replay \"x\" from \"side.trace\"");
        let e = parse(&text).unwrap_err();
        assert!(e.to_string().contains("side.trace"), "{e}");
        let back = parse_with(&text, &mut |path| {
            assert_eq!(path, "side.trace");
            Ok("1 h2d pinned 1e-6\n2048 h2d pinned 2e-6\n\
                1 d2h pinned 1e-6\n2048 d2h pinned 2e-6\n"
                .into())
        })
        .unwrap();
        assert_eq!(back.bus.kind(), "replay");
        match &back.bus {
            BusSpec::Replay(t) => assert_eq!(t.samples.len(), 4),
            _ => unreachable!(),
        }
    }

    #[test]
    fn invalid_inline_trace_is_rejected_at_parse_time() {
        let mut m = MachineConfig::anl_eureka_node(1);
        m.bus = BusSpec::Replay(ReplayTrace {
            label: "short".into(),
            samples: vec![(1, Direction::HostToDevice, MemType::Pinned, 1e-6)],
        });
        let e = parse(&to_text(&m)).unwrap_err();
        assert!(e.to_string().contains("two distinct sizes"), "{e}");
    }
}
