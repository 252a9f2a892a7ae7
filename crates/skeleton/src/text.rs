//! A plain-text format for code skeletons — the `.gsk` files the CLI
//! consumes.
//!
//! GROPHECY's users author skeletons by hand from their CPU code; a small
//! declarative format keeps that workflow out of Rust source. The format
//! is line-oriented; `#` starts a comment. Example:
//!
//! ```text
//! program hotspot-1024
//! array temp     f32 [1024, 1024]
//! array power    f32 [1024, 1024]
//! array temp_out f32 [1024, 1024]
//!
//! kernel hotspot_step
//!   parallel i 1024
//!   parallel j 1024
//!   stmt adds=10 muls=6
//!     read  temp  [i-1, j]
//!     read  temp  [i+1, j]
//!     read  temp  [i, j-1]
//!     read  temp  [i, j+1]
//!     read  temp  [i, j]
//!     read  power [i, j]
//!     write temp_out [i, j]
//! ```
//!
//! Grammar (indentation is ignored; nesting is implied by order):
//!
//! ```text
//! program <name>
//! array <name> <f32|f64|i32|i64|c64|c128> [e1, e2, ...] [sparse] [temporary]
//! h2d <array> [async | stream <N>] [chunks=<K>]
//! d2h <array> [async | stream <N>] [chunks=<K>]
//! kernel <name> [gpu_scale=<x>] [cpu_scale=<x>]
//!   parallel <var> <trip> | serial <var> <trip>
//!   stmt [adds=N] [muls=N] [divs=N] [specials=N] [compares=N] [active=F]
//!     read|write <array> [<index>, <index>, ...]
//! ```
//!
//! `h2d`/`d2h` lines are top-level directives that may appear anywhere
//! between kernels: they pin an *explicit* whole-array transfer schedule
//! (priced as written by the analyzer) instead of letting the data usage
//! analysis derive the minimal plan. A transfer line closes the kernel
//! being parsed, exactly like a `kernel` line does.
//!
//! Transfer annotations opt into stream/overlap semantics: `stream <N>`
//! enqueues the copy on stream N (`async` is shorthand for stream 1;
//! stream 0 is the default synchronous stream), and `chunks=<K>` splits
//! the copy into K pipelined chunks for double-buffered overlap with the
//! adjacent kernel. Both are rendered back only when non-default.
//!
//! Index expressions: affine combinations of loop variables and integers
//! (`i`, `i+1`, `2*i-3`, `4*i+j`, `7`), `?` for an irregular index, or
//! `?<span>` for a bounded-irregular one (e.g. `?8`).
//!
//! [`to_text`] writes the same format back out; `parse(to_text(p)) == p`.
//!
//! [`parse_with_spans`] additionally returns a [`SourceMap`]: the source
//! location of every array declaration, kernel, loop, statement, and
//! array reference, so diagnostics (`gpp lint`) can point at real text.
//! Spans live in a side table rather than on IR nodes, keeping the
//! `parse(to_text(p)) == p` identity exact.

use crate::expr::{AffineExpr, IndexExpr, LoopId};
use crate::ir::{ElemType, Flops, Program, TransferKind};
use crate::ProgramBuilder;
use gpp_brs::AccessKind;

/// A location in `.gsk` source: 1-based line and column plus the length
/// (in bytes) of the spanned directive text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the first non-blank character.
    pub col: usize,
    /// Length of the spanned text in bytes.
    pub len: usize,
}

impl Span {
    /// A span covering nothing (used when no source text exists, e.g.
    /// builder-constructed programs).
    pub fn none() -> Span {
        Span::default()
    }

    /// True when this span points at real source text.
    pub fn is_real(&self) -> bool {
        self.line > 0
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Source locations for one statement: the `stmt` directive and each
/// `read`/`write` reference in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StmtSpans {
    /// The `stmt` line.
    pub span: Span,
    /// One span per array reference, in statement order.
    pub refs: Vec<Span>,
}

/// Source locations for one kernel: the `kernel` directive, each loop
/// line, and each statement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelSpans {
    /// The `kernel` line.
    pub span: Span,
    /// One span per loop, in nest order.
    pub loops: Vec<Span>,
    /// One entry per statement.
    pub stmts: Vec<StmtSpans>,
}

/// Side table mapping IR nodes back to `.gsk` source locations, produced
/// by [`parse_with_spans`]. Indexed in parallel with the [`Program`]:
/// `arrays[id.index()]`, `kernels[k].stmts[s].refs[r]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    /// The `program` line.
    pub program: Span,
    /// One span per array declaration, in [`gpp_brs::ArrayId`] order.
    pub arrays: Vec<Span>,
    /// One entry per kernel, in program order.
    pub kernels: Vec<KernelSpans>,
    /// One span per explicit `h2d`/`d2h` directive, parallel to
    /// [`Program::transfers`].
    pub transfers: Vec<Span>,
}

impl SourceMap {
    /// The span of an array declaration, if recorded.
    pub fn array_span(&self, id: gpp_brs::ArrayId) -> Span {
        self.arrays.get(id.index()).copied().unwrap_or_default()
    }

    /// The span of a reference, if recorded.
    pub fn ref_span(&self, kernel: usize, stmt: usize, r: usize) -> Span {
        self.kernels
            .get(kernel)
            .and_then(|k| k.stmts.get(stmt))
            .and_then(|s| s.refs.get(r))
            .copied()
            .unwrap_or_default()
    }

    /// The span of a kernel directive, if recorded.
    pub fn kernel_span(&self, kernel: usize) -> Span {
        self.kernels.get(kernel).map(|k| k.span).unwrap_or_default()
    }

    /// The span of the `i`-th explicit transfer directive, if recorded.
    pub fn transfer_span(&self, i: usize) -> Span {
        self.transfers.get(i).copied().unwrap_or_default()
    }
}

/// A parse failure with its 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// 1-based column of the offending directive (0 when unknown).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        col: if line == 0 { 0 } else { 1 },
        message: message.into(),
    }
}

fn err_at(at: Span, message: impl Into<String>) -> ParseError {
    ParseError {
        line: at.line,
        col: at.col,
        message: message.into(),
    }
}

/// Parses a `.gsk` skeleton document and validates the result.
pub fn parse(input: &str) -> Result<Program, ParseError> {
    let (p, _) = parse_with_spans(input)?;
    crate::validate::validate(&p).map_err(|e| err(0, format!("validation failed: {e}")))?;
    Ok(p)
}

/// Parses a `.gsk` skeleton document **without** validating it, returning
/// the program plus a [`SourceMap`] of every IR node's source location.
///
/// This is the linter's entry point: structural problems (the ones
/// [`crate::validate::validate`] reports) are left in the IR so they can
/// be diagnosed with spans instead of aborting the parse.
pub fn parse_with_spans(input: &str) -> Result<(Program, SourceMap), ParseError> {
    let mut builder: Option<ProgramBuilder> = None;
    // Kernel under construction: (name, gpu_scale, cpu_scale, loops,
    // statements), each with the span of its directive line. Names stay
    // slices of `input` until the program is built.
    struct PendStmt<'a> {
        flops: Flops,
        active: f64,
        refs: Vec<(&'a str, Vec<IndexExpr>, AccessKind, Span)>,
        span: Span,
    }
    struct PendKernel<'a> {
        name: &'a str,
        gpu_scale: f64,
        cpu_scale: f64,
        loops: Vec<PendLoop<'a>>,
        loop_spans: Vec<Span>,
        stmts: Vec<PendStmt<'a>>,
        span: Span,
    }
    let mut kernel: Option<PendKernel> = None;
    let mut done: Vec<PendKernel> = Vec::new();
    let mut program_span = Span::none();
    let mut array_spans: Vec<Span> = Vec::new();
    // Explicit transfers: (array, kind, stream, chunks, kernels-before-it,
    // span).
    let mut transfers: Vec<(gpp_brs::ArrayId, TransferKind, u32, u32, usize, Span)> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let lineno = lineno + 1;
        let pre = raw.split('#').next().unwrap_or("");
        let line = pre.trim();
        if line.is_empty() {
            continue;
        }
        let at = Span {
            line: lineno,
            col: pre.len() - pre.trim_start().len() + 1,
            len: line.len(),
        };
        let (head, body) = split_word(line).expect("nonempty line has a word");
        let mut words = body.split_whitespace();
        match head {
            "program" => {
                if builder.is_some() {
                    return Err(err_at(at, "duplicate `program` line"));
                }
                let name = words
                    .next()
                    .ok_or_else(|| err_at(at, "program needs a name"))?;
                builder = Some(ProgramBuilder::new(name));
                program_span = at;
            }
            "array" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err_at(at, "`array` before `program`"))?;
                let (name, rest) =
                    split_word(body).ok_or_else(|| err_at(at, "array needs a name"))?;
                let (elem, rest) = match split_word(rest) {
                    Some(("f32", rest)) => (ElemType::F32, rest),
                    Some(("f64", rest)) => (ElemType::F64, rest),
                    Some(("i32", rest)) => (ElemType::I32, rest),
                    Some(("i64", rest)) => (ElemType::I64, rest),
                    Some(("c64", rest)) => (ElemType::C64, rest),
                    Some(("c128", rest)) => (ElemType::C128, rest),
                    other => {
                        let other = other.map(|(word, _)| word);
                        return Err(err_at(at, format!("unknown element type {other:?}")));
                    }
                };
                // Attributes (`sparse`, `temporary`, in any order) follow
                // the bracketed extents.
                let (extents_src, attrs) = match rest.rfind(']') {
                    Some(k) => (&rest[..=k], rest[k + 1..].trim()),
                    None => (rest, ""),
                };
                let extents = parse_extents(extents_src, at)?;
                let mut sparse = false;
                let mut temporary = false;
                for w in attrs.split_whitespace() {
                    match w {
                        "sparse" => sparse = true,
                        "temporary" => temporary = true,
                        other => {
                            return Err(err_at(at, format!("unknown array attribute `{other}`")))
                        }
                    }
                }
                let id = b.declare(name.to_string(), elem, extents, sparse);
                if temporary {
                    b.set_temporary(id);
                }
                array_spans.push(at);
            }
            "h2d" | "d2h" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err_at(at, format!("`{head}` before `program`")))?;
                // A transfer directive sits between kernels: close the one
                // being parsed, exactly like a `kernel` line.
                if let Some(k) = kernel.take() {
                    done.push(k);
                }
                let name = words
                    .next()
                    .ok_or_else(|| err_at(at, format!("`{head}` needs an array name")))?;
                // Optional annotations: `async` (shorthand for stream 1),
                // `stream <N>`, and `chunks=<K>`, in any order.
                let mut stream = 0u32;
                let mut chunks = 1u32;
                while let Some(w) = words.next() {
                    if w == "async" {
                        stream = 1;
                    } else if w == "stream" {
                        let v = words.next().ok_or_else(|| {
                            err_at(at, format!("`stream` needs a number after `{head} {name}`"))
                        })?;
                        stream = v
                            .parse()
                            .map_err(|_| err_at(at, format!("bad stream `{v}`")))?;
                    } else if let Some(v) = w.strip_prefix("chunks=") {
                        chunks = v
                            .parse()
                            .map_err(|_| err_at(at, format!("bad chunks `{v}`")))?;
                    } else {
                        return Err(err_at(
                            at,
                            format!("unexpected `{w}` after `{head} {name}`"),
                        ));
                    }
                }
                let id = b
                    .array_id(name)
                    .ok_or_else(|| err_at(at, format!("unknown array `{name}`")))?;
                let kind = if head == "h2d" {
                    TransferKind::HostToDevice
                } else {
                    TransferKind::DeviceToHost
                };
                transfers.push((id, kind, stream, chunks, done.len(), at));
            }
            "kernel" => {
                if builder.is_none() {
                    return Err(err_at(at, "`kernel` before `program`"));
                }
                if let Some(k) = kernel.take() {
                    done.push(k);
                }
                let name = words
                    .next()
                    .ok_or_else(|| err_at(at, "kernel needs a name"))?;
                let mut gpu_scale = 1.0;
                let mut cpu_scale = 1.0;
                for w in words {
                    if let Some(v) = w.strip_prefix("gpu_scale=") {
                        gpu_scale = v
                            .parse()
                            .map_err(|_| err_at(at, format!("bad gpu_scale `{v}`")))?;
                    } else if let Some(v) = w.strip_prefix("cpu_scale=") {
                        cpu_scale = v
                            .parse()
                            .map_err(|_| err_at(at, format!("bad cpu_scale `{v}`")))?;
                    } else {
                        return Err(err_at(at, format!("unknown kernel option `{w}`")));
                    }
                }
                kernel = Some(PendKernel {
                    name,
                    gpu_scale,
                    cpu_scale,
                    loops: Vec::new(),
                    loop_spans: Vec::new(),
                    stmts: Vec::new(),
                    span: at,
                });
            }
            "parallel" | "serial" => {
                let k = kernel
                    .as_mut()
                    .ok_or_else(|| err_at(at, format!("`{head}` outside a kernel")))?;
                if !k.stmts.is_empty() {
                    return Err(err_at(at, "loops must precede statements"));
                }
                let var = words
                    .next()
                    .ok_or_else(|| err_at(at, "loop needs a variable name"))?;
                let trip: u64 = words
                    .next()
                    .ok_or_else(|| err_at(at, "loop needs a trip count"))?
                    .parse()
                    .map_err(|_| err_at(at, "trip count must be an integer"))?;
                k.loops.push(PendLoop {
                    name: var,
                    trip,
                    parallel: head == "parallel",
                });
                k.loop_spans.push(at);
            }
            "stmt" => {
                let k = kernel
                    .as_mut()
                    .ok_or_else(|| err_at(at, "`stmt` outside a kernel"))?;
                let mut flops = Flops::default();
                let mut active = 1.0f64;
                for w in words {
                    let (key, val) = w
                        .split_once('=')
                        .ok_or_else(|| err_at(at, format!("expected key=value, got `{w}`")))?;
                    match key {
                        "active" => {
                            active = val
                                .parse()
                                .map_err(|_| err_at(at, format!("bad active `{val}`")))?
                        }
                        _ => {
                            let n: u32 = val
                                .parse()
                                .map_err(|_| err_at(at, format!("bad count `{val}`")))?;
                            match key {
                                "adds" => flops.adds = n,
                                "muls" => flops.muls = n,
                                "divs" => flops.divs = n,
                                "specials" => flops.specials = n,
                                "compares" => flops.compares = n,
                                _ => return Err(err_at(at, format!("unknown stmt key `{key}`"))),
                            }
                        }
                    }
                }
                k.stmts.push(PendStmt {
                    flops,
                    active,
                    refs: Vec::new(),
                    span: at,
                });
            }
            "read" | "write" => {
                let k = kernel
                    .as_mut()
                    .ok_or_else(|| err_at(at, format!("`{head}` outside a kernel")))?;
                let stmt = k
                    .stmts
                    .last_mut()
                    .ok_or_else(|| err_at(at, format!("`{head}` before any `stmt`")))?;
                let (array, rest) =
                    split_word(body).ok_or_else(|| err_at(at, "reference needs an array"))?;
                let index = parse_index_list(rest, &k.loops, at)?;
                let kind = if head == "read" {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                stmt.refs.push((array, index, kind, at));
            }
            other => return Err(err_at(at, format!("unknown directive `{other}`"))),
        }
    }
    if let Some(k) = kernel.take() {
        done.push(k);
    }

    let mut b = builder.ok_or_else(|| err(1, "missing `program` line"))?;
    let mut map = SourceMap {
        program: program_span,
        arrays: array_spans,
        kernels: Vec::with_capacity(done.len()),
        transfers: Vec::with_capacity(transfers.len()),
    };
    for (id, kind, stream, chunks, pos, at) in transfers {
        b.transfer_with(id, kind, pos, stream, chunks);
        map.transfers.push(at);
    }
    for pk in done {
        let mut ks = KernelSpans {
            span: pk.span,
            loops: pk.loop_spans,
            stmts: Vec::with_capacity(pk.stmts.len()),
        };
        let mut kb = b.kernel(pk.name);
        kb.gpu_compute_scale(pk.gpu_scale);
        kb.cpu_compute_scale(pk.cpu_scale);
        for l in &pk.loops {
            if l.parallel {
                kb.parallel_loop(l.name, l.trip);
            } else {
                kb.serial_loop(l.name, l.trip);
            }
        }
        for st in pk.stmts {
            let mut ss = StmtSpans {
                span: st.span,
                refs: Vec::with_capacity(st.refs.len()),
            };
            let mut sb = kb.statement().flops(st.flops);
            if st.active != 1.0 {
                sb = sb.active(st.active);
            }
            for (array, index, kind, at) in st.refs {
                let id = resolve_array(&mut sb, array, at)?;
                sb = sb.access(id, kind, index);
                ss.refs.push(at);
            }
            sb.finish();
            ks.stmts.push(ss);
        }
        kb.finish();
        map.kernels.push(ks);
    }
    Ok((b.build_unchecked(), map))
}

/// Looks an array up by name through the statement builder's program.
fn resolve_array(
    sb: &mut crate::builder::StatementBuilder<'_, '_>,
    name: &str,
    at: Span,
) -> Result<gpp_brs::ArrayId, ParseError> {
    sb.lookup_array(name)
        .ok_or_else(|| err_at(at, format!("unknown array `{name}`")))
}

/// A loop of the kernel being parsed.
struct PendLoop<'a> {
    name: &'a str,
    trip: u64,
    parallel: bool,
}

/// Splits the first whitespace-delimited word off `s`, returning it and
/// the text after it; `None` when `s` is blank.
fn split_word(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start();
    let end = s.find(char::is_whitespace).unwrap_or(s.len());
    (end > 0).then(|| s.split_at(end))
}

/// `src` with each run of whitespace as one space: the text an error
/// message quotes, as it reads with the line's words rejoined.
fn squash(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut blank = false;
    for c in src.chars() {
        if !c.is_whitespace() {
            out.push(c);
        } else if !blank {
            out.push(' ');
        }
        blank = c.is_whitespace();
    }
    out
}

fn parse_extents(src: &str, at: Span) -> Result<Vec<usize>, ParseError> {
    let src = src.trim();
    let inner = src
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| {
            err_at(
                at,
                format!("extents must be bracketed, got `{}`", squash(src)),
            )
        })?;
    inner
        .split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| err_at(at, format!("bad extent `{}`", squash(p.trim()))))
        })
        .collect()
}

fn parse_index_list(src: &str, loops: &[PendLoop], at: Span) -> Result<Vec<IndexExpr>, ParseError> {
    let src = src.trim();
    let inner = src
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| {
            err_at(
                at,
                format!("index list must be bracketed, got `{}`", squash(src)),
            )
        })?;
    inner
        .split(',')
        .map(|p| parse_index(p.trim(), loops, at))
        .collect()
}

/// Parses one index expression: `?`, `?<span>`, or an affine combination
/// like `2*i - 3 + j`.
fn parse_index(src: &str, loops: &[PendLoop], at: Span) -> Result<IndexExpr, ParseError> {
    if src == "?" {
        return Ok(IndexExpr::Irregular);
    }
    if let Some(span) = src.strip_prefix('?') {
        let span: u32 = span
            .parse()
            .map_err(|_| err_at(at, format!("bad irregular span `{}`", squash(span))))?;
        return Ok(IndexExpr::IrregularBounded(span));
    }
    // Terms are read with the whitespace removed; only an expression
    // that contains some needs a cleaned copy.
    let cleaned: std::borrow::Cow<str> = if src.contains(char::is_whitespace) {
        src.chars().filter(|c| !c.is_whitespace()).collect()
    } else {
        src.into()
    };
    if cleaned.is_empty() {
        return Err(err_at(at, "empty index expression"));
    }
    let mut expr = AffineExpr::constant(0);
    let mut add_term = |t: &str| {
        let (sign, body) = match t.strip_prefix('-') {
            Some(b) => (-1i64, b),
            None => (1, t.strip_prefix('+').unwrap_or(t)),
        };
        if body.is_empty() {
            return Err(err_at(at, format!("dangling sign in `{}`", squash(src))));
        }
        // Forms: `<int>`, `<var>`, `<int>*<var>`.
        if let Some((coeff, var)) = body.split_once('*') {
            let c: i64 = coeff
                .parse()
                .map_err(|_| err_at(at, format!("bad coefficient `{coeff}`")))?;
            let li = loop_index(var, loops, at, src)?;
            expr.add_term(LoopId(li as u32), sign * c);
        } else if let Ok(c) = body.parse::<i64>() {
            expr.offset += sign * c;
        } else {
            let li = loop_index(body, loops, at, src)?;
            expr.add_term(LoopId(li as u32), sign);
        }
        Ok(())
    };
    // Each sign after the first character starts a new signed term.
    let mut start = 0;
    for (k, ch) in cleaned.char_indices() {
        if (ch == '+' || ch == '-') && k != 0 {
            add_term(&cleaned[start..k])?;
            start = k;
        }
    }
    add_term(&cleaned[start..])?;
    Ok(IndexExpr::Affine(expr))
}

fn loop_index(var: &str, loops: &[PendLoop], at: Span, ctx: &str) -> Result<usize, ParseError> {
    loops.iter().position(|l| l.name == var).ok_or_else(|| {
        err_at(
            at,
            format!("unknown loop variable `{var}` in `{}`", squash(ctx)),
        )
    })
}

/// Renders a program back to the text format. `parse(to_text(p))`
/// reproduces `p` (modulo whitespace).
pub fn to_text(p: &Program) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "program {}", p.name);
    for a in &p.arrays {
        let elem = match a.elem {
            ElemType::F32 => "f32",
            ElemType::F64 => "f64",
            ElemType::I32 => "i32",
            ElemType::I64 => "i64",
            ElemType::C64 => "c64",
            ElemType::C128 => "c128",
        };
        let extents: Vec<String> = a.extents.iter().map(usize::to_string).collect();
        let _ = writeln!(
            s,
            "array {} {} [{}]{}{}",
            a.name,
            elem,
            extents.join(", "),
            if a.sparse { " sparse" } else { "" },
            if a.temporary { " temporary" } else { "" }
        );
    }
    let transfer_line = |s: &mut String, t: &crate::ir::TransferDecl| {
        let dir = match t.kind {
            TransferKind::HostToDevice => "h2d",
            TransferKind::DeviceToHost => "d2h",
        };
        let _ = write!(s, "\n{dir} {}", p.array(t.array).name);
        // Annotations are emitted only when non-default, so pre-stream
        // skeletons render byte-for-byte as they always did.
        if t.stream != 0 {
            let _ = write!(s, " stream {}", t.stream);
        }
        if t.chunks > 1 {
            let _ = write!(s, " chunks={}", t.chunks);
        }
        let _ = writeln!(s);
    };
    let mut ti = 0; // next explicit transfer to emit, in program order
    for (ki, k) in p.kernels.iter().enumerate() {
        while ti < p.transfers.len() && p.transfers[ti].pos <= ki {
            transfer_line(&mut s, &p.transfers[ti]);
            ti += 1;
        }
        let _ = write!(s, "\nkernel {}", k.name);
        if k.gpu_compute_scale != 1.0 {
            let _ = write!(s, " gpu_scale={}", k.gpu_compute_scale);
        }
        if k.cpu_compute_scale != 1.0 {
            let _ = write!(s, " cpu_scale={}", k.cpu_compute_scale);
        }
        let _ = writeln!(s);
        for l in &k.loops {
            let _ = writeln!(
                s,
                "  {} {} {}",
                if l.parallel { "parallel" } else { "serial" },
                l.name,
                l.trip
            );
        }
        for st in &k.statements {
            let f = &st.flops;
            let _ = write!(s, "  stmt");
            for (key, v) in [
                ("adds", f.adds),
                ("muls", f.muls),
                ("divs", f.divs),
                ("specials", f.specials),
                ("compares", f.compares),
            ] {
                if v > 0 {
                    let _ = write!(s, " {key}={v}");
                }
            }
            if st.active_fraction != 1.0 {
                let _ = write!(s, " active={}", st.active_fraction);
            }
            let _ = writeln!(s);
            for r in &st.refs {
                let kind = if r.kind.is_read() { "read " } else { "write" };
                let ix: Vec<String> = r
                    .index
                    .iter()
                    .map(|e| match e {
                        IndexExpr::Irregular => "?".to_string(),
                        IndexExpr::IrregularBounded(sp) => format!("?{sp}"),
                        IndexExpr::Affine(a) => render_affine(a, &k.loops),
                    })
                    .collect();
                let _ = writeln!(
                    s,
                    "    {kind} {} [{}]",
                    p.array(r.array).name,
                    ix.join(", ")
                );
            }
        }
    }
    while ti < p.transfers.len() {
        transfer_line(&mut s, &p.transfers[ti]);
        ti += 1;
    }
    s
}

fn render_affine(e: &AffineExpr, loops: &[crate::ir::Loop]) -> String {
    if e.terms.is_empty() {
        return e.offset.to_string();
    }
    let mut s = String::new();
    for (k, (l, c)) in e.terms.iter().enumerate() {
        let var = &loops[l.index()].name;
        match (k, *c) {
            (0, 1) => s.push_str(var),
            (0, -1) => {
                s.push('-');
                s.push_str(var);
            }
            (0, c) => s.push_str(&format!("{c}*{var}")),
            (_, 1) => s.push_str(&format!("+{var}")),
            (_, -1) => s.push_str(&format!("-{var}")),
            (_, c) if c > 0 => s.push_str(&format!("+{c}*{var}")),
            (_, c) => s.push_str(&format!("{c}*{var}")),
        }
    }
    match e.offset {
        0 => {}
        o if o > 0 => s.push_str(&format!("+{o}")),
        o => s.push_str(&o.to_string()),
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoalesceClass;

    const HOTSPOT: &str = r#"
# A HotSpot-like stencil.
program hotspot-64
array temp     f32 [64, 64]
array power    f32 [64, 64]
array temp_out f32 [64, 64]

kernel hotspot_step
  parallel i 64
  parallel j 64
  stmt adds=10 muls=6
    read  temp  [i-1, j]
    read  temp  [i+1, j]
    read  temp  [i, j-1]
    read  temp  [i, j+1]
    read  temp  [i, j]
    read  power [i, j]
    write temp_out [i, j]
"#;

    #[test]
    fn parses_hotspot() {
        let p = parse(HOTSPOT).unwrap();
        assert_eq!(p.name, "hotspot-64");
        assert_eq!(p.arrays.len(), 3);
        assert_eq!(p.kernels.len(), 1);
        let k = &p.kernels[0];
        assert_eq!(k.parallel_tasks(), 64 * 64);
        assert_eq!(k.statements[0].refs.len(), 7);
        let chars = k.characteristics(&p);
        assert!(chars.sharable_load_fraction > 0.5);
    }

    #[test]
    fn roundtrip_identity() {
        let p = parse(HOTSPOT).unwrap();
        let text = to_text(&p);
        let p2 = parse(&text).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn roundtrips_every_paper_feature() {
        let src = r#"
program full
array a f32 [100]
array b c128 [10, 20]
array v f64 [345] sparse
array scratch f32 [64] temporary
array sv i32 [99] sparse temporary

kernel k1 gpu_scale=38 cpu_scale=0.45
  parallel r 10
  parallel c 20
  serial k 5
  stmt adds=4 muls=4 active=0.85
    read v [10*r+k]
    read b [?8, c]
    read a [?]
    write b [r, c]
    write scratch [2*r]
    write sv [?]
  stmt divs=1 specials=2 compares=3
    read a [2*r-1]
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.kernels[0].gpu_compute_scale, 38.0);
        assert_eq!(p.kernels[0].cpu_compute_scale, 0.45);
        let scratch = p.array_by_name("scratch").unwrap();
        assert!(scratch.temporary && !scratch.sparse);
        let sv = p.array_by_name("sv").unwrap();
        assert!(sv.temporary && sv.sparse);
        let text = to_text(&p);
        assert!(text.contains("[64] temporary"), "{text}");
        assert!(text.contains("[99] sparse temporary"), "{text}");
        assert_eq!(parse(&text).unwrap(), p);
    }

    #[test]
    fn index_expression_parsing() {
        let loops = ["i", "j"].map(|name| PendLoop {
            name,
            trip: 8,
            parallel: true,
        });
        let at = Span {
            line: 1,
            col: 1,
            len: 0,
        };
        let ix = parse_index("2*i - 3 + j", &loops, at).unwrap();
        let IndexExpr::Affine(e) = ix else {
            panic!("expected affine")
        };
        assert_eq!(e.coeff(LoopId(0)), 2);
        assert_eq!(e.coeff(LoopId(1)), 1);
        assert_eq!(e.offset, -3);
        assert_eq!(parse_index("?", &loops, at).unwrap(), IndexExpr::Irregular);
        assert_eq!(
            parse_index("?16", &loops, at).unwrap(),
            IndexExpr::IrregularBounded(16)
        );
        assert!(matches!(
            parse_index("7", &loops, at).unwrap(),
            IndexExpr::Affine(e) if e.is_constant() && e.offset == 7
        ));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad =
            "program x\narray a f32 [10]\nkernel k\n  parallel i 10\n  stmt\n    read zzz [i]\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 6);
        assert_eq!(e.col, 5);
        assert!(e.to_string().contains("zzz"));
        assert!(e.to_string().contains("line 6, col 5"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse("").is_err());
        assert!(parse("array a f32 [10]").is_err()); // before program
        assert!(parse("program p\nfoo bar").is_err());
        assert!(parse("program p\narray a f32 10").is_err()); // no brackets
        assert!(parse("program p\narray a f32 [10] shiny").is_err()); // bad attr
        assert!(parse("program p\narray a f32 [10]\nkernel k\n  stmt\n").is_err()); // no loops
        let e = parse("program p\narray a f32 [10]\nkernel k\n  parallel i 10\n  read a [i]\n")
            .unwrap_err();
        assert!(e.message.contains("before any `stmt`"));
    }

    #[test]
    fn parse_with_spans_maps_every_node() {
        let (p, map) = parse_with_spans(HOTSPOT).unwrap();
        assert_eq!(map.program.line, 3);
        assert_eq!(map.arrays.len(), p.arrays.len());
        assert_eq!(map.arrays[0].line, 4);
        assert_eq!(map.arrays[2].line, 6);
        assert_eq!(map.kernels.len(), 1);
        let k = &map.kernels[0];
        assert_eq!(k.span.line, 8);
        assert_eq!(k.loops.len(), 2);
        assert_eq!(
            k.loops[0],
            Span {
                line: 9,
                col: 3,
                len: 13
            }
        );
        assert_eq!(k.stmts.len(), 1);
        assert_eq!(k.stmts[0].span.line, 11);
        assert_eq!(k.stmts[0].refs.len(), 7);
        // First ref: `read  temp  [i-1, j]` on line 12, col 5.
        let r0 = k.stmts[0].refs[0];
        assert_eq!((r0.line, r0.col), (12, 5));
        assert_eq!(r0.len, "read  temp  [i-1, j]".len());
        // Accessors agree.
        assert_eq!(map.ref_span(0, 0, 6).line, 18);
        assert_eq!(map.array_span(p.arrays[1].id).line, 5);
        assert_eq!(map.kernel_span(0).line, 8);
        // Out-of-range lookups degrade to the empty span.
        assert!(!map.ref_span(9, 9, 9).is_real());
    }

    #[test]
    fn parse_with_spans_keeps_invalid_programs() {
        // A dimension mismatch parses fine (spans available for lint);
        // plain `parse` rejects it via validation.
        let src =
            "program p\narray a f32 [10, 10]\nkernel k\n  parallel i 10\n  stmt\n    read a [i]\n";
        let (p, map) = parse_with_spans(src).unwrap();
        assert_eq!(p.kernels[0].statements[0].refs[0].index.len(), 1);
        assert_eq!(map.ref_span(0, 0, 0).line, 6);
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.to_string().contains("validation failed"), "{e}");
    }

    #[test]
    fn parsed_skeleton_classifies_like_builder() {
        let p = parse(HOTSPOT).unwrap();
        let chars = p.kernels[0].characteristics(&p);
        // Row-offset reads are misaligned-coalesced, center is aligned.
        let coalesced = chars
            .accesses
            .iter()
            .filter(|a| a.class == CoalesceClass::Coalesced)
            .count();
        assert_eq!(coalesced, 7);
        assert!(chars.accesses.iter().any(|a| a.aligned));
        assert!(chars.accesses.iter().any(|a| !a.aligned));
    }

    const STAGED: &str = r#"
program staged
array a f32 [128]
array b f32 [128]

h2d a

kernel k1
  parallel i 128
  stmt adds=1
    read  a [i]
    write b [i]

h2d a

kernel k2
  parallel i 128
  stmt adds=1
    read  a [i]
    write b [i]

d2h b
"#;

    #[test]
    fn explicit_transfers_parse_with_positions_and_spans() {
        let (p, map) = parse_with_spans(STAGED).unwrap();
        assert_eq!(p.transfers.len(), 3);
        let a = p.array_by_name("a").unwrap().id;
        let b = p.array_by_name("b").unwrap().id;
        assert_eq!(
            (
                p.transfers[0].array,
                p.transfers[0].kind,
                p.transfers[0].pos
            ),
            (a, TransferKind::HostToDevice, 0)
        );
        assert_eq!(
            (
                p.transfers[1].array,
                p.transfers[1].kind,
                p.transfers[1].pos
            ),
            (a, TransferKind::HostToDevice, 1)
        );
        assert_eq!(
            (
                p.transfers[2].array,
                p.transfers[2].kind,
                p.transfers[2].pos
            ),
            (b, TransferKind::DeviceToHost, 2)
        );
        assert_eq!(map.transfers.len(), 3);
        assert_eq!(map.transfer_span(0).line, 6);
        assert_eq!(map.transfer_span(1).line, 14);
        assert_eq!(map.transfer_span(2).line, 22);
        assert_eq!(map.transfer_span(0).len, "h2d a".len());
        assert!(!map.transfer_span(9).is_real());
    }

    #[test]
    fn explicit_transfers_roundtrip() {
        let p = parse(STAGED).unwrap();
        let text = to_text(&p);
        assert!(text.contains("\nh2d a\n"), "{text}");
        assert!(text.contains("\nd2h b\n"), "{text}");
        assert_eq!(parse(&text).unwrap(), p);
        // And the rendered form re-parses to identical positions.
        let p2 = parse(&text).unwrap();
        assert_eq!(p2.transfers, p.transfers);
    }

    const STREAMED: &str = r#"
program streamed
array a f32 [128]
array b f32 [128]
array c f32 [128]

h2d a stream 2 chunks=4
h2d c async

kernel k1
  parallel i 128
  stmt adds=1
    read  a [i]
    read  c [i]
    write b [i]

d2h b chunks=8
"#;

    #[test]
    fn stream_annotations_parse() {
        let p = parse(STREAMED).unwrap();
        assert_eq!(p.transfers.len(), 3);
        assert_eq!((p.transfers[0].stream, p.transfers[0].chunks), (2, 4));
        // `async` is shorthand for stream 1.
        assert_eq!((p.transfers[1].stream, p.transfers[1].chunks), (1, 1));
        assert_eq!((p.transfers[2].stream, p.transfers[2].chunks), (0, 8));
        assert!(p.has_stream_annotations());
    }

    #[test]
    fn stream_annotations_roundtrip() {
        let p = parse(STREAMED).unwrap();
        let text = to_text(&p);
        assert!(text.contains("\nh2d a stream 2 chunks=4\n"), "{text}");
        // Canonical rendering spells `async` as `stream 1`.
        assert!(text.contains("\nh2d c stream 1\n"), "{text}");
        assert!(text.contains("\nd2h b chunks=8\n"), "{text}");
        assert_eq!(parse(&text).unwrap(), p);
        // The canonical form is a fixed point of the writer.
        assert_eq!(to_text(&parse(&text).unwrap()), text);
    }

    #[test]
    fn stream_annotation_errors_are_spanned() {
        let e = parse("program p\narray a f32 [4]\nh2d a stream\n").unwrap_err();
        assert!(e.message.contains("`stream` needs a number"), "{e}");
        let e = parse("program p\narray a f32 [4]\nh2d a stream x\n").unwrap_err();
        assert!(e.message.contains("bad stream `x`"), "{e}");
        let e = parse("program p\narray a f32 [4]\nh2d a chunks=zero\n").unwrap_err();
        assert!(e.message.contains("bad chunks `zero`"), "{e}");
        // chunks=0 parses but fails validation.
        let e = parse("program p\narray a f32 [4]\nh2d a chunks=0\nkernel k\n  parallel i 4\n  stmt adds=1\n    read a [i]\n")
            .unwrap_err();
        assert!(e.message.contains("zero chunks"), "{e}");
    }

    #[test]
    fn transfer_errors_are_spanned() {
        let e = parse("program p\narray a f32 [4]\nh2d ghost\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown array `ghost`"), "{e}");
        let e = parse("h2d a\n").unwrap_err();
        assert!(e.message.contains("before `program`"), "{e}");
        let e = parse("program p\narray a f32 [4]\nd2h\n").unwrap_err();
        assert!(e.message.contains("needs an array name"), "{e}");
        let e = parse("program p\narray a f32 [4]\nh2d a extra\n").unwrap_err();
        assert!(e.message.contains("unexpected `extra`"), "{e}");
    }

    #[test]
    fn transfer_closes_open_kernel() {
        // A `d2h` between two kernels closes the first, like `kernel` does.
        let src = "program p\narray a f32 [8]\narray b f32 [8]\nkernel k1\n  parallel i 8\n  stmt adds=1\n    read a [i]\n    write b [i]\nd2h b\nkernel k2\n  parallel i 8\n  stmt adds=1\n    read b [i]\n    write a [i]\n";
        let p = parse(src).unwrap();
        assert_eq!(p.kernels.len(), 2);
        assert_eq!(p.transfers.len(), 1);
        assert_eq!(p.transfers[0].pos, 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# top\nprogram p # trailing\n\narray a f32 [4] # comment\nkernel k\n  parallel i 4\n  stmt adds=1\n    read a [i]\n";
        assert!(parse(src).is_ok());
    }
}
