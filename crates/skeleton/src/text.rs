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
//!
//! # How the parser reads
//!
//! One pass over the bytes, one line at a time. A table gives each byte
//! a class (word, blank, newline, `#`, or part of a multi-byte
//! character), and the scanner records the byte range of each word up to
//! a `#` or the newline in one reused vector; a line's span runs from its
//! first word to its last. Each directive then appends straight to the
//! [`Program`] and the [`SourceMap`]: no token is copied except the names
//! the IR owns, and lists whose length the text states (extents, index
//! lists) are allocated at that length.
//!
//! Whitespace is what `char::is_whitespace` says it is, everywhere. Its
//! ASCII members are U+0009..=U+000D and the space; that set holds U+000B
//! (vertical tab), which `u8::is_ascii_whitespace` leaves out. A byte of a
//! multi-byte character sends the scanner to decode that character and
//! test it by the same rule, so U+00A0 or U+3000 separates words exactly
//! as a space does. A `\r` before the `\n` is whitespace like any other.
//!
//! Errors come in line order, with one exception: an array may be
//! declared below the kernels that use it, so a reference to a name not
//! yet declared is resolved when the text ends. Out-of-range kernel
//! scales and `active` fractions are reported then too, so any syntax
//! error outranks them, and among them the first in program order wins.

use crate::expr::{AffineExpr, IndexExpr, LoopId};
use crate::ir::{
    ArrayDecl, ArrayRef, ElemType, Flops, Kernel, Loop, Program, Statement, TransferDecl,
    TransferKind,
};
use gpp_brs::{AccessKind, ArrayId};

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
    let mut parser = Parser {
        program: Program {
            name: String::new(),
            arrays: Vec::new(),
            kernels: Vec::new(),
            transfers: Vec::new(),
        },
        map: SourceMap::default(),
        named: false,
        open: false,
        late: Vec::new(),
    };
    let mut words = Vec::with_capacity(16);
    let mut pos = 0;
    let mut lineno = 0;
    while pos < input.len() {
        lineno += 1;
        let start = pos;
        pos = scan_line(input, pos, &mut words);
        if let (Some(&(first, _)), Some(&(_, end))) = (words.first(), words.last()) {
            parser.directive(&Line {
                input,
                words: &words,
                at: Span {
                    line: lineno,
                    col: first - start + 1,
                    len: end - first,
                },
            })?;
        }
    }
    parser.finish()
}

/// What the scanner makes of a byte.
#[derive(Clone, Copy)]
enum Class {
    Word,
    Blank,
    /// The first or a later byte of a multi-byte character.
    Wide,
    Newline,
    Comment,
}

/// The class of every byte value. Whitespace is what `char::is_whitespace`
/// says it is: its ASCII members are U+0009..=U+000D and the space, a set
/// that holds U+000B (vertical tab), which `u8::is_ascii_whitespace`
/// leaves out. A multi-byte character is decoded and tested on the same
/// path ([`wide_char`]).
static CLASS: [Class; 256] = {
    let mut table = [Class::Word; 256];
    let mut b = 0x80;
    while b < 256 {
        table[b] = Class::Wide;
        b += 1;
    }
    let mut b = b'\t';
    while b <= b'\r' {
        table[b as usize] = Class::Blank;
        b += 1;
    }
    table[b' ' as usize] = Class::Blank;
    table[b'\n' as usize] = Class::Newline;
    table[b'#' as usize] = Class::Comment;
    table
};

/// Whether the multi-byte character at byte `i` of `s` is whitespace, and
/// its length in bytes.
fn wide_char(s: &str, i: usize) -> (bool, usize) {
    let c = s[i..].chars().next().expect("`i` starts a character");
    (c.is_whitespace(), c.len_utf8())
}

/// Splits the line that starts at byte `pos` into the byte ranges of its
/// words, up to a `#` or the line's end, and returns where the next line
/// starts. A `\r` before the `\n` is whitespace like any other.
fn scan_line(s: &str, mut pos: usize, words: &mut Vec<(usize, usize)>) -> usize {
    words.clear();
    let bytes = s.as_bytes();
    loop {
        // The blanks before a word, or the line's end.
        let start = loop {
            let Some(&b) = bytes.get(pos) else {
                return pos;
            };
            match CLASS[b as usize] {
                Class::Blank => pos += 1,
                Class::Word => break pos,
                Class::Wide => match wide_char(s, pos) {
                    (true, len) => pos += len,
                    (false, _) => break pos,
                },
                Class::Newline => return pos + 1,
                Class::Comment => return s[pos..].find('\n').map_or(s.len(), |k| pos + k + 1),
            }
        };
        // The word: up to the next blank, `#` or line end.
        while let Some(&b) = bytes.get(pos) {
            match CLASS[b as usize] {
                Class::Word => pos += 1,
                Class::Wide => match wide_char(s, pos) {
                    (true, _) => break,
                    (false, len) => pos += len,
                },
                _ => break,
            }
        }
        words.push((start, pos));
    }
}

/// One directive line: its words, as byte ranges of the input, and the
/// span from its first word to its last.
struct Line<'a, 'w> {
    input: &'a str,
    words: &'w [(usize, usize)],
    at: Span,
}

impl<'a> Line<'a, '_> {
    fn word(&self, k: usize) -> Option<&'a str> {
        self.words.get(k).map(|&(a, b)| &self.input[a..b])
    }

    /// The text from word `k` through the last word; empty when the line
    /// has no word `k`.
    fn rest(&self, k: usize) -> &'a str {
        match (self.words.get(k), self.words.last()) {
            (Some(&(a, _)), Some(&(_, b))) => &self.input[a..b],
            _ => "",
        }
    }

    fn words_from(&self, k: usize) -> impl Iterator<Item = &'a str> + '_ {
        self.words.iter().skip(k).map(|&(a, b)| &self.input[a..b])
    }
}

/// The program and source map under construction.
struct Parser<'a> {
    program: Program,
    map: SourceMap,
    /// Whether the `program` line has been read.
    named: bool,
    /// Whether the last kernel still takes loops, statements and
    /// references: a `kernel` line opens one, a transfer line closes it.
    open: bool,
    /// The checks that wait for the end of the text, in program order.
    late: Vec<Late<'a>>,
}

/// A check made once the whole text is read. An array may be declared
/// below the kernels that use it, so a reference to a name not declared
/// yet is resolved at the end; the range checks on the kernel scales and
/// `active` wait with it, so that every syntax error outranks both and the
/// first of them in program order is the one reported.
enum Late<'a> {
    /// A reference to an array not declared above it, at
    /// `(kernel, statement, reference)`.
    Ref {
        name: &'a str,
        at: Span,
        slot: (usize, usize, usize),
    },
    /// A value out of its range.
    Range(ParseError),
}

/// The first array named `name`.
fn find_array(arrays: &[ArrayDecl], name: &str) -> Option<ArrayId> {
    arrays.iter().find(|a| a.name == name).map(|a| a.id)
}

impl<'a> Parser<'a> {
    fn directive(&mut self, line: &Line<'a, '_>) -> Result<(), ParseError> {
        let at = line.at;
        let head = line.word(0).unwrap_or_default();
        match head {
            "program" => {
                if self.named {
                    return Err(err_at(at, "duplicate `program` line"));
                }
                let name = line
                    .word(1)
                    .ok_or_else(|| err_at(at, "program needs a name"))?;
                if let Some(w) = line.word(2) {
                    return Err(err_at(
                        at,
                        format!("unexpected `{w}` after `program {name}`"),
                    ));
                }
                self.program.name = name.to_string();
                self.named = true;
                self.map.program = at;
            }
            "array" => {
                if !self.named {
                    return Err(err_at(at, "`array` before `program`"));
                }
                let name = line
                    .word(1)
                    .ok_or_else(|| err_at(at, "array needs a name"))?;
                let elem = match line.word(2) {
                    Some("f32") => ElemType::F32,
                    Some("f64") => ElemType::F64,
                    Some("i32") => ElemType::I32,
                    Some("i64") => ElemType::I64,
                    Some("c64") => ElemType::C64,
                    Some("c128") => ElemType::C128,
                    other => return Err(err_at(at, format!("unknown element type {other:?}"))),
                };
                // Attributes (`sparse`, `temporary`, in any order) follow
                // the bracketed extents.
                let rest = line.rest(3);
                let (extents_src, attrs) = match rest.rfind(']') {
                    Some(k) => (&rest[..=k], &rest[k + 1..]),
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
                let id = ArrayId(self.program.arrays.len() as u32);
                self.program.arrays.push(ArrayDecl {
                    id,
                    name: name.to_string(),
                    elem,
                    extents,
                    sparse,
                    temporary,
                });
                self.map.arrays.push(at);
            }
            "h2d" | "d2h" => {
                if !self.named {
                    return Err(err_at(at, format!("`{head}` before `program`")));
                }
                // A transfer directive sits between kernels: it closes the
                // one being parsed, exactly like a `kernel` line.
                self.open = false;
                let name = line
                    .word(1)
                    .ok_or_else(|| err_at(at, format!("`{head}` needs an array name")))?;
                // Optional annotations: `async` (shorthand for stream 1),
                // `stream <N>`, and `chunks=<K>`, in any order.
                let mut stream = 0u32;
                let mut chunks = 1u32;
                let mut words = line.words_from(2);
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
                let array = find_array(&self.program.arrays, name)
                    .ok_or_else(|| err_at(at, format!("unknown array `{name}`")))?;
                let kind = if head == "h2d" {
                    TransferKind::HostToDevice
                } else {
                    TransferKind::DeviceToHost
                };
                self.program.transfers.push(TransferDecl {
                    array,
                    kind,
                    pos: self.program.kernels.len(),
                    stream,
                    chunks,
                });
                self.map.transfers.push(at);
            }
            "kernel" => {
                if !self.named {
                    return Err(err_at(at, "`kernel` before `program`"));
                }
                self.open = false;
                let name = line
                    .word(1)
                    .ok_or_else(|| err_at(at, "kernel needs a name"))?;
                let mut gpu_scale = 1.0f64;
                let mut cpu_scale = 1.0f64;
                for w in line.words_from(2) {
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
                if gpu_scale.is_nan() || gpu_scale < 1.0 {
                    let e = format!("gpu_scale must be >= 1, got {gpu_scale}");
                    self.late.push(Late::Range(err_at(at, e)));
                }
                if cpu_scale.is_nan() || cpu_scale <= 0.0 {
                    let e = format!("cpu_scale must be positive, got {cpu_scale}");
                    self.late.push(Late::Range(err_at(at, e)));
                }
                self.program.kernels.push(Kernel {
                    name: name.to_string(),
                    loops: Vec::new(),
                    statements: Vec::new(),
                    gpu_compute_scale: gpu_scale,
                    cpu_compute_scale: cpu_scale,
                });
                self.map.kernels.push(KernelSpans {
                    span: at,
                    loops: Vec::new(),
                    stmts: Vec::new(),
                });
                self.open = true;
            }
            "parallel" | "serial" => {
                let (kernel, spans) = self
                    .open_kernel()
                    .ok_or_else(|| err_at(at, format!("`{head}` outside a kernel")))?;
                if !kernel.statements.is_empty() {
                    return Err(err_at(at, "loops must precede statements"));
                }
                let var = line
                    .word(1)
                    .ok_or_else(|| err_at(at, "loop needs a variable name"))?;
                let trip_src = line
                    .word(2)
                    .ok_or_else(|| err_at(at, "loop needs a trip count"))?;
                let trip: u64 = trip_src
                    .parse()
                    .map_err(|_| err_at(at, "trip count must be an integer"))?;
                if let Some(w) = line.word(3) {
                    let e = format!("unexpected `{w}` after `{head} {var} {trip_src}`");
                    return Err(err_at(at, e));
                }
                kernel.loops.push(Loop {
                    name: var.to_string(),
                    trip,
                    parallel: head == "parallel",
                });
                spans.loops.push(at);
            }
            "stmt" => {
                let (kernel, spans) = self
                    .open_kernel()
                    .ok_or_else(|| err_at(at, "`stmt` outside a kernel"))?;
                let mut flops = Flops::default();
                let mut active = 1.0f64;
                for w in line.words_from(1) {
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
                kernel.statements.push(Statement {
                    refs: Vec::new(),
                    flops,
                    active_fraction: active,
                });
                spans.stmts.push(StmtSpans {
                    span: at,
                    refs: Vec::new(),
                });
                if active.is_nan() || active <= 0.0 || active > 1.0 {
                    let e = format!("active fraction must be in (0, 1], got {active}");
                    self.late.push(Late::Range(err_at(at, e)));
                }
            }
            "read" | "write" => {
                if !self.open {
                    return Err(err_at(at, format!("`{head}` outside a kernel")));
                }
                let ki = self.program.kernels.len() - 1;
                let kernel = &mut self.program.kernels[ki];
                let spans = &mut self.map.kernels[ki];
                let si = kernel.statements.len().wrapping_sub(1);
                let (Some(stmt), Some(stmt_spans)) =
                    (kernel.statements.last_mut(), spans.stmts.last_mut())
                else {
                    return Err(err_at(at, format!("`{head}` before any `stmt`")));
                };
                let name = line
                    .word(1)
                    .ok_or_else(|| err_at(at, "reference needs an array"))?;
                let index = parse_index_list(line.rest(2), &kernel.loops, at)?;
                let array = match find_array(&self.program.arrays, name) {
                    Some(id) => id,
                    None => {
                        let slot = (ki, si, stmt.refs.len());
                        self.late.push(Late::Ref { name, at, slot });
                        ArrayId(u32::MAX)
                    }
                };
                let kind = if head == "read" {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                stmt.refs.push(ArrayRef { array, index, kind });
                stmt_spans.refs.push(at);
            }
            other => return Err(err_at(at, format!("unknown directive `{other}`"))),
        }
        Ok(())
    }

    /// The open kernel and its spans.
    fn open_kernel(&mut self) -> Option<(&mut Kernel, &mut KernelSpans)> {
        if !self.open {
            return None;
        }
        Some((
            self.program.kernels.last_mut()?,
            self.map.kernels.last_mut()?,
        ))
    }

    /// Runs the late checks and hands back the result.
    fn finish(self) -> Result<(Program, SourceMap), ParseError> {
        let Parser {
            mut program,
            map,
            named,
            late,
            ..
        } = self;
        if !named {
            return Err(err(1, "missing `program` line"));
        }
        for check in late {
            match check {
                Late::Ref {
                    name,
                    at,
                    slot: (k, s, r),
                } => {
                    program.kernels[k].statements[s].refs[r].array =
                        find_array(&program.arrays, name)
                            .ok_or_else(|| err_at(at, format!("unknown array `{name}`")))?;
                }
                Late::Range(e) => return Err(e),
            }
        }
        Ok((program, map))
    }
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

/// `s` without the whitespace at either end: ASCII blanks by byte, and a
/// multi-byte character at an end by the general rule.
fn trim(s: &str) -> &str {
    let b = s.as_bytes();
    let blank = |c: u8| matches!(CLASS[c as usize], Class::Blank);
    let (mut i, mut j) = (0, b.len());
    while i < j && blank(b[i]) {
        i += 1;
    }
    while j > i && blank(b[j - 1]) {
        j -= 1;
    }
    let t = &s[i..j];
    if b[i..j].first().is_some_and(|c| !c.is_ascii())
        || b[i..j].last().is_some_and(|c| !c.is_ascii())
    {
        t.trim()
    } else {
        t
    }
}

/// The trimmed comma-separated items of a bracketed list `[...]`, and how
/// many there are; `None` when `src` is not bracketed. `src` has no
/// whitespace at either end.
fn bracketed(src: &str) -> Option<(Items<'_>, usize)> {
    let inner = src.strip_prefix('[')?.strip_suffix(']')?;
    let n = inner.bytes().filter(|&b| b == b',').count() + 1;
    Some((Items(Some(inner)), n))
}

/// The items of a bracketed list: the text between commas, trimmed.
struct Items<'a>(Option<&'a str>);

impl<'a> Iterator for Items<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0?;
        let (item, more) = match rest.bytes().position(|b| b == b',') {
            Some(k) => (&rest[..k], Some(&rest[k + 1..])),
            None => (rest, None),
        };
        self.0 = more;
        Some(trim(item))
    }
}

fn parse_extents(src: &str, at: Span) -> Result<Vec<usize>, ParseError> {
    let (items, n) = bracketed(src).ok_or_else(|| {
        err_at(
            at,
            format!("extents must be bracketed, got `{}`", squash(src)),
        )
    })?;
    let mut extents = Vec::with_capacity(n);
    for p in items {
        let e = p
            .parse::<usize>()
            .map_err(|_| err_at(at, format!("bad extent `{}`", squash(p))))?;
        extents.push(e);
    }
    Ok(extents)
}

fn parse_index_list(src: &str, loops: &[Loop], at: Span) -> Result<Vec<IndexExpr>, ParseError> {
    let (items, n) = bracketed(src).ok_or_else(|| {
        err_at(
            at,
            format!("index list must be bracketed, got `{}`", squash(src)),
        )
    })?;
    let mut index = Vec::with_capacity(n);
    for p in items {
        index.push(parse_index(p, loops, at)?);
    }
    Ok(index)
}

/// Parses one index expression: `?`, `?<span>`, or an affine combination
/// like `2*i - 3 + j`.
fn parse_index(src: &str, loops: &[Loop], at: Span) -> Result<IndexExpr, ParseError> {
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
    // Each sign after the first character starts a new signed term.
    let bytes = cleaned.as_bytes();
    let mut start = 0;
    for k in 1..=bytes.len() {
        if k == bytes.len() || bytes[k] == b'+' || bytes[k] == b'-' {
            add_term(&mut expr, &cleaned[start..k], loops, at, src)?;
            start = k;
        }
    }
    Ok(IndexExpr::Affine(expr))
}

/// Adds one signed term of an index expression: `<int>`, `<var>` or
/// `<int>*<var>`, after an optional sign. No term holds a sign past its
/// first character.
fn add_term(
    expr: &mut AffineExpr,
    term: &str,
    loops: &[Loop],
    at: Span,
    src: &str,
) -> Result<(), ParseError> {
    let (sign, body) = match term.as_bytes()[0] {
        b'-' => (-1i64, &term[1..]),
        b'+' => (1, &term[1..]),
        _ => (1, term),
    };
    let Some(&first) = body.as_bytes().first() else {
        return Err(err_at(at, format!("dangling sign in `{}`", squash(src))));
    };
    if let Some(star) = body.bytes().position(|b| b == b'*') {
        let (coeff, var) = (&body[..star], &body[star + 1..]);
        let c: i64 = coeff
            .parse()
            .map_err(|_| err_at(at, format!("bad coefficient `{coeff}`")))?;
        let li = loop_index(var, loops, at, src)?;
        expr.add_term(LoopId(li as u32), sign * c);
        return Ok(());
    }
    // A body that starts with a digit may be a constant; one that does not
    // can only name a loop.
    if first.is_ascii_digit() {
        if let Ok(c) = body.parse::<i64>() {
            expr.offset += sign * c;
            return Ok(());
        }
    }
    let li = loop_index(body, loops, at, src)?;
    expr.add_term(LoopId(li as u32), sign);
    Ok(())
}

fn loop_index(var: &str, loops: &[Loop], at: Span, ctx: &str) -> Result<usize, ParseError> {
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
        let loops = ["i", "j"].map(|name| Loop {
            name: name.into(),
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
    fn unicode_whitespace_separates_words() {
        // U+000B, U+00A0 and U+3000 are whitespace to `char::is_whitespace`;
        // the span's column counts bytes.
        let src = "program\u{b}p\narray\u{a0}a f32 [4,\u{a0}4]\nkernel k\n\u{3000}parallel\ti 4\n  parallel j 4\r\n  stmt adds=1\n    read a [i,\u{b}j]\n";
        let (p, map) = parse_with_spans(src).unwrap();
        assert_eq!(p.name, "p");
        assert_eq!(p.arrays[0].extents, [4, 4]);
        assert_eq!(
            map.kernels[0].loops[0],
            Span {
                line: 4,
                col: 4,
                len: 12
            }
        );
        assert_eq!(map.kernels[0].loops[1].len, "parallel j 4".len());
        assert_eq!(p.kernels[0].statements[0].refs[0].index.len(), 2);
    }

    #[test]
    fn arrays_may_be_declared_below_their_uses() {
        let src = "program p\nkernel k\n  parallel i 4\n  stmt\n    read a [i]\n    write b [i]\narray a f32 [4]\n";
        let e = parse_with_spans(src).unwrap_err();
        assert_eq!((e.line, e.col), (6, 5));
        assert_eq!(e.message, "unknown array `b`");
        let (p, _) = parse_with_spans(&format!("{src}array b f32 [4]\n")).unwrap();
        let refs = &p.kernels[0].statements[0].refs;
        assert_eq!(
            (refs[0].array, refs[1].array),
            (p.arrays[0].id, p.arrays[1].id)
        );
    }

    #[test]
    fn out_of_range_values_are_errors_that_syntax_errors_outrank() {
        let head = "program p\narray a f32 [4]\n";
        let e = parse_with_spans(&format!("{head}kernel k gpu_scale=0.5\n")).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (3, "gpu_scale must be >= 1, got 0.5")
        );
        let e = parse_with_spans(&format!("{head}kernel k cpu_scale=0\n")).unwrap_err();
        assert_eq!(e.message, "cpu_scale must be positive, got 0");
        let e = parse_with_spans(&format!(
            "{head}kernel k\n  parallel i 4\n  stmt active=NaN\n    read a [i]\n"
        ))
        .unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (5, "active fraction must be in (0, 1], got NaN")
        );
        let e = parse_with_spans(&format!("{head}kernel k gpu_scale=0.5\nbogus\n")).unwrap_err();
        assert_eq!(e.message, "unknown directive `bogus`");
    }

    #[test]
    fn trailing_words_after_program_and_loops_are_rejected() {
        let e = parse_with_spans("program p extra words\n").unwrap_err();
        assert_eq!((e.line, e.col), (1, 1));
        assert_eq!(e.message, "unexpected `extra` after `program p`");
        let src = "program p\narray a f32 [10, 20]\nkernel k\n  parallel i 10 j 20\n";
        let e = parse_with_spans(src).unwrap_err();
        assert_eq!((e.line, e.col), (4, 3));
        assert_eq!(e.message, "unexpected `j` after `parallel i 10`");
        let e = parse_with_spans("program p\nkernel k\n  serial t 8 # fine\n  serial u 8 x\n")
            .unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (4, "unexpected `x` after `serial u 8`")
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# top\nprogram p # trailing\n\narray a f32 [4] # comment\nkernel k\n  parallel i 4\n  stmt adds=1\n    read a [i]\n";
        assert!(parse(src).is_ok());
    }
}
