//! The `gpp-serve` wire protocol: length-prefixed frames carrying a
//! request header line plus an optional `.gsk` skeleton body.
//!
//! A frame is `<decimal-length>\n<payload>` where `length` is the byte
//! count of `payload`. A request payload is:
//!
//! ```text
//! gpp/1 <command> [key=value ...]\n
//! <skeleton text...>
//! ```
//!
//! Commands: `project`, `measure`, `analyze`, `deps`, `calibrate`,
//! `stats`, `ping`, `health`, `batch`. Options: `machine=<registry name>`
//! (default `eureka`), `seed=N`, `iters=N`,
//! `deadline_ms=N` (remaining client budget — servers shed work that
//! cannot finish inside it; absent means no deadline and byte-identical
//! legacy behavior), `temporary=a,b` (device-temporary hint),
//! `sparse=name:bytes,...` (sparse-bound hint). Responses are a single
//! JSON object: `{"ok":true,...}` or
//! `{"ok":false,"error":{"kind":...,"message":...}}`; `busy`/`shed`
//! errors additionally carry a top-level `retry_after_ms` hint.
//!
//! # The batch frame
//!
//! A `batch` request packs many requests into one frame: the header is
//! `gpp/1 batch n=<count>` and the body is exactly `count` embedded
//! frames, each the usual `<decimal-length>\n<payload>` encoding of a
//! complete non-batch request. The reply is a single JSON object whose
//! `replies` array carries each sub-reply **verbatim**, in order:
//!
//! ```text
//! {"ok":true,"command":"batch","count":N,"replies":[<r1>,<r2>,...]}
//! ```
//!
//! so `batch(xs)` is bit-for-bit the concatenation of the single-shot
//! replies for `xs`. Batches do not nest.

use std::io::{self, Read, Write};

/// Protocol magic for version 1.
pub const MAGIC: &str = "gpp/1";

/// Frames larger than this are rejected (malformed or abusive clients).
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// Most sub-requests one `batch` frame may carry.
pub const MAX_BATCH: usize = 256;

/// A service command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Project kernel + transfer times for a skeleton.
    Project,
    /// Project, then measure on the simulated node and compare.
    Measure,
    /// Print the transfer plan.
    Analyze,
    /// Inter-kernel dependence report.
    Deps,
    /// Two-point PCIe calibration summary for a machine.
    Calibrate,
    /// Service counters: requests, cache hits, latency percentiles.
    Stats,
    /// Liveness probe.
    Ping,
    /// Health probe: role, machine roster, and coarse served counters —
    /// what a gateway polls to admit or evict a shard.
    Health,
    /// Many embedded requests in one frame, one combined reply out.
    Batch,
}

impl Command {
    pub fn parse(s: &str) -> Option<Command> {
        Some(match s {
            "project" => Command::Project,
            "measure" => Command::Measure,
            "analyze" => Command::Analyze,
            "deps" => Command::Deps,
            "calibrate" => Command::Calibrate,
            "stats" => Command::Stats,
            "ping" => Command::Ping,
            "health" => Command::Health,
            "batch" => Command::Batch,
            _ => return None,
        })
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            Command::Project => "project",
            Command::Measure => "measure",
            Command::Analyze => "analyze",
            Command::Deps => "deps",
            Command::Calibrate => "calibrate",
            Command::Stats => "stats",
            Command::Ping => "ping",
            Command::Health => "health",
            Command::Batch => "batch",
        }
    }

    /// Whether the command carries a skeleton body.
    pub fn needs_skeleton(&self) -> bool {
        matches!(
            self,
            Command::Project | Command::Measure | Command::Analyze | Command::Deps
        )
    }
}

impl std::fmt::Display for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub command: Command,
    /// Target machine: a registry name (built-ins `eureka`, `v2`, plus
    /// any datasheets the server loaded).
    pub machine: String,
    /// Noise seed for the simulated node.
    pub seed: u64,
    /// Iteration count for totals/speedups.
    pub iters: u32,
    /// Remaining client budget in milliseconds at send time. `None` (the
    /// wire default) disables deadline handling entirely; the reply bytes
    /// are then identical to a build that predates the field. Gateways
    /// decrement this by elapsed time before forwarding; servers shed the
    /// request when the remaining budget cannot cover the observed median
    /// compute time.
    pub deadline_ms: Option<u64>,
    /// Arrays hinted as device-side temporaries (names).
    pub temporaries: Vec<String>,
    /// Sparse-bound hints: (array name, useful bytes).
    pub sparse: Vec<(String, u64)>,
    /// Run the static analyzer before projecting (on by default).
    pub lint: bool,
    /// Skeleton source text (commands that need one).
    pub skeleton: String,
    /// For [`Command::Batch`]: the embedded sub-request payloads, each a
    /// complete non-batch request (header + body), in frame order.
    pub batch: Vec<String>,
}

impl Request {
    /// A request with default options.
    pub fn new(command: Command) -> Request {
        Request {
            command,
            machine: "eureka".to_string(),
            seed: 2013,
            iters: 1,
            deadline_ms: None,
            temporaries: Vec::new(),
            sparse: Vec::new(),
            lint: true,
            skeleton: String::new(),
            batch: Vec::new(),
        }
    }

    /// A batch request from already-encoded sub-request payloads.
    pub fn new_batch(subs: impl IntoIterator<Item = String>) -> Request {
        let mut req = Request::new(Command::Batch);
        req.batch = subs.into_iter().collect();
        req
    }

    /// Canonical header + body payload for this request.
    pub fn encode(&self) -> String {
        if self.command == Command::Batch {
            let mut out = format!("{MAGIC} batch n={}\n", self.batch.len());
            for sub in &self.batch {
                out.push_str(&format!("{}\n", sub.len()));
                out.push_str(sub);
            }
            return out;
        }
        let mut header = format!("{MAGIC} {}", self.command);
        if self.machine != "eureka" {
            header.push_str(&format!(" machine={}", self.machine));
        }
        if self.seed != 2013 {
            header.push_str(&format!(" seed={}", self.seed));
        }
        if self.iters != 1 {
            header.push_str(&format!(" iters={}", self.iters));
        }
        if let Some(ms) = self.deadline_ms {
            header.push_str(&format!(" deadline_ms={ms}"));
        }
        if !self.temporaries.is_empty() {
            header.push_str(&format!(" temporary={}", self.temporaries.join(",")));
        }
        if !self.sparse.is_empty() {
            let spec: Vec<String> = self
                .sparse
                .iter()
                .map(|(n, b)| format!("{n}:{b}"))
                .collect();
            header.push_str(&format!(" sparse={}", spec.join(",")));
        }
        if !self.lint {
            header.push_str(" lint=0");
        }
        header.push('\n');
        header.push_str(&self.skeleton);
        header
    }

    /// Parses a request payload (header line + optional body).
    pub fn decode(payload: &str) -> Result<Request, ProtocolError> {
        let (header, body) = match payload.split_once('\n') {
            Some((h, b)) => (h, b),
            None => (payload, ""),
        };
        let mut tokens = header.split_ascii_whitespace();
        match tokens.next() {
            Some(m) if m == MAGIC => {}
            other => {
                return Err(ProtocolError::new(
                    "bad-magic",
                    format!("expected `{MAGIC}`, got `{}`", other.unwrap_or("")),
                ))
            }
        }
        let command = match tokens.next() {
            Some(c) => Command::parse(c).ok_or_else(|| {
                ProtocolError::new("bad-command", format!("unknown command `{c}`"))
            })?,
            None => return Err(ProtocolError::new("bad-command", "missing command")),
        };
        if command == Command::Batch {
            return Self::decode_batch(tokens, body);
        }
        let mut req = Request::new(command);
        for tok in tokens {
            let Some((key, value)) = tok.split_once('=') else {
                return Err(ProtocolError::new(
                    "bad-option",
                    format!("expected key=value, got `{tok}`"),
                ));
            };
            match key {
                "machine" => req.machine = value.to_string(),
                "seed" => {
                    req.seed = value.parse().map_err(|_| {
                        ProtocolError::new(
                            "bad-option",
                            format!("seed=`{value}` is not an integer"),
                        )
                    })?
                }
                "iters" => {
                    req.iters = value.parse().map_err(|_| {
                        ProtocolError::new(
                            "bad-option",
                            format!("iters=`{value}` is not an integer"),
                        )
                    })?
                }
                "deadline_ms" => {
                    req.deadline_ms = Some(value.parse().map_err(|_| {
                        ProtocolError::new(
                            "bad-option",
                            format!("deadline_ms=`{value}` is not an integer"),
                        )
                    })?)
                }
                "temporary" => req.temporaries.extend(
                    value
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_string),
                ),
                "lint" => {
                    req.lint = match value {
                        "0" | "false" | "off" => false,
                        "1" | "true" | "on" => true,
                        _ => {
                            return Err(ProtocolError::new(
                                "bad-option",
                                format!("lint=`{value}` is not a boolean"),
                            ))
                        }
                    }
                }
                "sparse" => {
                    for spec in value.split(',').filter(|s| !s.is_empty()) {
                        let Some((name, bytes)) = spec.split_once(':') else {
                            return Err(ProtocolError::new(
                                "bad-option",
                                format!("sparse spec `{spec}` is not name:bytes"),
                            ));
                        };
                        let bytes = bytes.parse().map_err(|_| {
                            ProtocolError::new(
                                "bad-option",
                                format!("sparse bytes `{bytes}` is not an integer"),
                            )
                        })?;
                        req.sparse.push((name.to_string(), bytes));
                    }
                }
                _ => {
                    return Err(ProtocolError::new(
                        "bad-option",
                        format!("unknown option `{key}`"),
                    ))
                }
            }
        }
        if command.needs_skeleton() && body.trim().is_empty() {
            return Err(ProtocolError::new(
                "missing-skeleton",
                format!("command `{command}` needs a skeleton body"),
            ));
        }
        req.skeleton = body.to_string();
        Ok(req)
    }

    /// Parses a `batch` header's remaining tokens and its body of embedded
    /// frames. The count option is mandatory so a truncated body is always
    /// distinguishable from a short batch.
    fn decode_batch<'a>(
        tokens: impl Iterator<Item = &'a str>,
        body: &str,
    ) -> Result<Request, ProtocolError> {
        let mut count: Option<usize> = None;
        for tok in tokens {
            let Some((key, value)) = tok.split_once('=') else {
                return Err(ProtocolError::new(
                    "bad-option",
                    format!("expected key=value, got `{tok}`"),
                ));
            };
            match key {
                "n" => {
                    count = Some(value.parse().map_err(|_| {
                        ProtocolError::new("bad-batch", format!("n=`{value}` is not an integer"))
                    })?)
                }
                _ => {
                    return Err(ProtocolError::new(
                        "bad-option",
                        format!("unknown option `{key}`"),
                    ))
                }
            }
        }
        let count = count
            .ok_or_else(|| ProtocolError::new("bad-batch", "batch needs a count option n=N"))?;
        if count == 0 || count > MAX_BATCH {
            return Err(ProtocolError::new(
                "bad-batch",
                format!("batch count {count} outside 1..={MAX_BATCH}"),
            ));
        }
        let mut rest = body.as_bytes();
        let mut batch = Vec::with_capacity(count);
        for i in 0..count {
            let sub = match read_frame_limited(&mut rest, MAX_FRAME_BYTES) {
                Ok(Some(sub)) => sub,
                Ok(None) => {
                    return Err(ProtocolError::new(
                        "bad-batch",
                        format!("batch declared n={count} but body ends after {i} frames"),
                    ))
                }
                Err(e) => {
                    return Err(ProtocolError::new(
                        "bad-batch",
                        format!("embedded frame {i}: {e}"),
                    ))
                }
            };
            // Peek at the sub-request's command token: batches do not nest.
            let sub_command = sub
                .split('\n')
                .next()
                .unwrap_or("")
                .split_ascii_whitespace()
                .nth(1)
                .unwrap_or("");
            if sub_command == "batch" {
                return Err(ProtocolError::new(
                    "bad-batch",
                    format!("embedded frame {i} is itself a batch; batches do not nest"),
                ));
            }
            batch.push(sub);
        }
        if !rest.is_empty() {
            return Err(ProtocolError::new(
                "bad-batch",
                format!(
                    "{} trailing bytes after the {count} declared frames",
                    rest.len()
                ),
            ));
        }
        let mut req = Request::new(Command::Batch);
        req.batch = batch;
        Ok(req)
    }
}

/// Renders the combined `batch` reply from the sub-replies, splicing each
/// one in **verbatim** so the batch reply is bit-for-bit the concatenation
/// of the single-shot replies. Shared by the server and the gateway so
/// both produce identical bytes for identical work.
pub fn batch_response(replies: &[String]) -> String {
    let mut out = format!(
        "{{\"ok\":true,\"command\":\"batch\",\"count\":{},\"replies\":[",
        replies.len()
    );
    for (i, reply) in replies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(reply);
    }
    out.push_str("]}");
    out
}

/// A structured protocol-level error (also serialized into responses).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable kind: `busy`, `timeout`, `parse`, ...
    pub kind: String,
    pub message: String,
    /// Non-empty only for `lint` rejections: the findings that caused
    /// them, serialized as a top-level `diagnostics` array.
    pub diagnostics: Vec<gpp_lint::Diagnostic>,
    /// For `busy`/`shed` rejections: how long (ms) the server suggests
    /// waiting before retrying, derived from current queue depth × the
    /// observed median compute time. Serialized as a top-level
    /// `retry_after_ms` field only when present, so every other error
    /// keeps its exact pre-existing bytes.
    pub retry_after_ms: Option<u64>,
}

impl ProtocolError {
    pub fn new(kind: impl Into<String>, message: impl Into<String>) -> Self {
        ProtocolError {
            kind: kind.into(),
            message: message.into(),
            diagnostics: Vec::new(),
            retry_after_ms: None,
        }
    }

    /// Attaches a `retry_after_ms` hint (for `busy`/`shed` replies).
    #[must_use]
    pub fn with_retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl ProtocolError {
    /// Recovers the structured error from a rendered
    /// `{"ok":false,"error":{"kind":...,"message":...}}` response, so a
    /// client can round-trip every error kind the server emits. Returns
    /// `None` for success responses or non-error JSON.
    pub fn from_response(response: &str) -> Option<ProtocolError> {
        if !response.contains("\"ok\":false") {
            return None;
        }
        Some(ProtocolError {
            kind: extract_json_string(response, "kind")?,
            message: extract_json_string(response, "message")?,
            diagnostics: Vec::new(),
            retry_after_ms: retry_after_ms(response),
        })
    }
}

/// Pulls the top-level `retry_after_ms` hint out of a rendered `busy`/
/// `shed` reply, if present. Clients use it to pace their next attempt
/// instead of the fixed exponential base.
pub fn retry_after_ms(response: &str) -> Option<u64> {
    let needle = "\"retry_after_ms\":";
    let start = response.find(needle)? + needle.len();
    let digits: String = response[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Pulls the string value of `"key":"..."` out of rendered JSON, undoing
/// the escapes our renderer produces. Good enough for the flat error
/// objects this protocol emits; not a general JSON parser.
fn extract_json_string(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = json.find(&needle)? + needle.len();
    let rest = &json[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                esc => out.push(esc),
            },
            other => out.push(other),
        }
    }
    None
}

/// Writes one `<len>\n<payload>` frame in one `write_all`: on a
/// `TCP_NODELAY` socket, a separate length line would cost a syscall and
/// a segment of its own.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 21);
    writeln!(frame, "{}", payload.len())?;
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Why a frame read failed: transport trouble, or a frame whose declared
/// length exceeds the reader's budget (which deserves a structured
/// `too_large` reply rather than a silent hang-up).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed or carried garbage.
    Io(io::Error),
    /// The declared payload length exceeds the configured maximum. The
    /// payload was **not** read (that is the point: the attacker-supplied
    /// length never drives an allocation), so the connection cannot be
    /// resynchronized and should be closed after replying.
    TooLarge {
        /// The declared length (at least — digits are abandoned once the
        /// running value passes `max`).
        declared: usize,
        /// The limit in force.
        max: usize,
    },
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} B exceeds the {max} B limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one frame; `Ok(None)` on clean EOF before any length byte.
/// Equivalent to [`read_frame_limited`] at the protocol-wide
/// [`MAX_FRAME_BYTES`], with oversize flattened into an I/O error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    read_frame_limited(r, MAX_FRAME_BYTES).map_err(|e| match e {
        FrameError::Io(io) => io,
        FrameError::TooLarge { .. } => {
            io::Error::new(io::ErrorKind::InvalidData, "frame length too large")
        }
    })
}

/// Reads one frame, refusing to allocate more than `max_bytes` for the
/// payload; `Ok(None)` on clean EOF before any length byte.
pub fn read_frame_limited(
    r: &mut impl Read,
    max_bytes: usize,
) -> Result<Option<String>, FrameError> {
    // Read the decimal length terminated by '\n', byte by byte. Readers on
    // a socket are buffered (the server's connection loop, `Client`), so a
    // byte costs a copy, not a syscall.
    let mut len: usize = 0;
    let mut saw_digit = false;
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte)? {
            0 => {
                if saw_digit {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside frame length",
                    )
                    .into());
                }
                return Ok(None);
            }
            _ => match byte[0] {
                b'0'..=b'9' => {
                    saw_digit = true;
                    len = len
                        .checked_mul(10)
                        .and_then(|l| l.checked_add((byte[0] - b'0') as usize))
                        .unwrap_or(usize::MAX);
                    if len > max_bytes {
                        return Err(FrameError::TooLarge {
                            declared: len,
                            max: max_bytes,
                        });
                    }
                }
                b'\n' if saw_digit => break,
                b'\r' => {}
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad byte {other:#x} in frame length"),
                    )
                    .into())
                }
            },
        }
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map(Some).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8").into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello\nworld").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello\nworld"));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn frame_rejects_garbage_and_oversize() {
        let mut r = &b"xyz\nfoo"[..];
        assert!(read_frame(&mut r).is_err());
        let huge = format!("{}\n", MAX_FRAME_BYTES + 1);
        let mut r = huge.as_bytes();
        assert!(read_frame(&mut r).is_err());
        let mut r = &b"12"[..]; // EOF mid-length
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn request_roundtrip_with_options() {
        let mut req = Request::new(Command::Project);
        req.machine = "v2".into();
        req.seed = 7;
        req.iters = 50;
        req.temporaries = vec!["tmp".into()];
        req.sparse = vec![("val".into(), 4096)];
        req.lint = false;
        req.skeleton = "program p\n".into();
        assert!(req.encode().contains(" lint=0"));
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn lint_defaults_on_and_stays_off_the_wire() {
        let mut req = Request::new(Command::Project);
        req.skeleton = "program p\n".into();
        assert!(req.lint);
        assert!(!req.encode().contains("lint"));
        assert!(Request::decode("gpp/1 project lint=1\nx").unwrap().lint);
        assert!(!Request::decode("gpp/1 project lint=off\nx").unwrap().lint);
        assert_eq!(
            Request::decode("gpp/1 project lint=maybe\nx")
                .unwrap_err()
                .kind,
            "bad-option"
        );
    }

    #[test]
    fn deadline_roundtrips_and_stays_off_the_wire_when_absent() {
        let mut req = Request::new(Command::Project);
        req.skeleton = "program p\n".into();
        assert_eq!(req.deadline_ms, None);
        // Absent deadline emits nothing: the bytes predate the field.
        assert!(!req.encode().contains("deadline"));
        req.deadline_ms = Some(250);
        assert!(req.encode().contains(" deadline_ms=250"));
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(
            Request::decode("gpp/1 project deadline_ms=soon\nx")
                .unwrap_err()
                .kind,
            "bad-option"
        );
    }

    #[test]
    fn retry_after_hint_extraction() {
        let reply = r#"{"ok":false,"error":{"kind":"busy","message":"full"},"retry_after_ms":42}"#;
        assert_eq!(retry_after_ms(reply), Some(42));
        assert_eq!(
            ProtocolError::from_response(reply).unwrap().retry_after_ms,
            Some(42)
        );
        let plain = r#"{"ok":false,"error":{"kind":"busy","message":"full"}}"#;
        assert_eq!(retry_after_ms(plain), None);
        assert_eq!(
            ProtocolError::from_response(plain).unwrap().retry_after_ms,
            None
        );
    }

    #[test]
    fn batch_roundtrip() {
        let mut sub = Request::new(Command::Project);
        sub.seed = 7;
        sub.skeleton = "program p\n".into();
        let ping = Request::new(Command::Ping);
        let req = Request::new_batch([sub.encode(), ping.encode()]);
        let payload = req.encode();
        assert!(payload.starts_with("gpp/1 batch n=2\n"));
        let decoded = Request::decode(&payload).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(Request::decode(&decoded.batch[0]).unwrap(), sub);
    }

    #[test]
    fn batch_response_concatenates_verbatim() {
        let replies = vec![r#"{"ok":true,"a":1}"#.to_string(), "null".to_string()];
        assert_eq!(
            batch_response(&replies),
            r#"{"ok":true,"command":"batch","count":2,"replies":[{"ok":true,"a":1},null]}"#
        );
        assert_eq!(
            batch_response(&[]),
            r#"{"ok":true,"command":"batch","count":0,"replies":[]}"#
        );
    }

    #[test]
    fn batch_decode_rejects_malformed() {
        for (payload, why) in [
            ("gpp/1 batch\n", "missing n="),
            ("gpp/1 batch n=zero\n", "non-integer n"),
            ("gpp/1 batch n=0\n", "zero count"),
            (&format!("gpp/1 batch n={}\n", MAX_BATCH + 1), "over cap"),
            ("gpp/1 batch n=2\n10\ngpp/1 ping", "short body"),
            ("gpp/1 batch n=1\n10\ngpp/1 pingEXTRA", "trailing bytes"),
            ("gpp/1 batch n=1\nxyz\nfoo", "garbage length"),
            ("gpp/1 batch n=1\n15\ngpp/1 batch n=0\n", "nested batch"),
        ] {
            let err = Request::decode(payload).unwrap_err();
            assert_eq!(err.kind, "bad-batch", "{why}: {err}");
        }
    }

    #[test]
    fn decode_rejects_bad_requests() {
        assert_eq!(
            Request::decode("nope/9 project\nx").unwrap_err().kind,
            "bad-magic"
        );
        assert_eq!(
            Request::decode("gpp/1 explode\nx").unwrap_err().kind,
            "bad-command"
        );
        assert_eq!(
            Request::decode("gpp/1 project seed=abc\nx")
                .unwrap_err()
                .kind,
            "bad-option"
        );
        assert_eq!(
            Request::decode("gpp/1 project\n").unwrap_err().kind,
            "missing-skeleton"
        );
        assert!(Request::decode("gpp/1 stats").is_ok());
        assert!(Request::decode("gpp/1 ping").is_ok());
    }
}
