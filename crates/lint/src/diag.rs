//! Diagnostic vocabulary: stable codes, severities, and lint configuration.

use crate::fixit::{Edit, FixIt};
use gpp_skeleton::Span;
use std::collections::BTreeSet;

/// A stable diagnostic code. Codes never change meaning once published;
/// retired codes are not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// GPP000 — structural error: the skeleton fails parsing or
    /// [`gpp_skeleton::validate`]. Nothing else can be analyzed.
    Structural,
    /// GPP001 — an affine index provably escapes the array's extents.
    OutOfBounds,
    /// GPP002 — a `temporary` array is read before it is fully written.
    /// Temporaries receive no host-to-device copy, so the data read is
    /// undefined (and the analyzer still schedules garbage H2D traffic
    /// for it).
    UninitializedRead,
    /// GPP003 — a write whose values are never observed: fully
    /// overwritten before any read, or a temporary that is never read
    /// after its last write.
    DeadWrite,
    /// GPP004 — an array declared but never referenced by any kernel.
    UnusedArray,
    /// GPP005 — distinct iterations of a parallel loop may touch the
    /// same element with at least one write.
    ParallelRace,
    /// GPP006 — data produced earlier in the *same* kernel is still
    /// counted as host-to-device traffic by the per-kernel transfer
    /// analysis.
    RedundantH2d,
    /// GPP007 — an array that is produced and last consumed on the
    /// device but lacks a `temporary` hint, paying an avoidable
    /// device-to-host transfer.
    MissingTemporary,
    /// GPP008 — a large-stride or data-dependent access on the thread
    /// axis that fragments half-warp coalescing.
    Uncoalesced,
    /// GPP010 — an explicit `h2d` re-uploads data that is already
    /// resident on the device and has not changed on the host since the
    /// previous upload. The copy is pure waste. (GPP009 is reserved.)
    CrossKernelH2d,
    /// GPP011 — an explicit `d2h` whose downloaded bytes are never
    /// observed on the host: either the device copy is already in sync,
    /// or a later `d2h` of the same array overwrites the host copy
    /// before anything could read it.
    DeadD2h,
    /// GPP012 — a round-trip through the host: an array is downloaded
    /// and immediately re-uploaded with no kernel touching it in
    /// between. The producer/consumer pair should keep it resident.
    MissingResidency,
    /// GPP013 — an `h2d` placed after kernels that never reference the
    /// array; hoisting it before the first kernel lets the upload
    /// overlap (or at least precede) unrelated compute.
    HoistableTransfer,
    /// GPP014 — a large synchronous transfer sits adjacent to a kernel
    /// it could overlap: annotating it `stream N chunks=K` would pipeline
    /// the copy against the compute instead of serializing the schedule.
    SerializedTransfer,
}

impl Code {
    /// Every code, in numeric order. GPP009 is reserved and absent.
    pub const ALL: [Code; 14] = [
        Code::Structural,
        Code::OutOfBounds,
        Code::UninitializedRead,
        Code::DeadWrite,
        Code::UnusedArray,
        Code::ParallelRace,
        Code::RedundantH2d,
        Code::MissingTemporary,
        Code::Uncoalesced,
        Code::CrossKernelH2d,
        Code::DeadD2h,
        Code::MissingResidency,
        Code::HoistableTransfer,
        Code::SerializedTransfer,
    ];

    /// The stable wire name, `GPP000` … `GPP014` (GPP009 reserved).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Structural => "GPP000",
            Code::OutOfBounds => "GPP001",
            Code::UninitializedRead => "GPP002",
            Code::DeadWrite => "GPP003",
            Code::UnusedArray => "GPP004",
            Code::ParallelRace => "GPP005",
            Code::RedundantH2d => "GPP006",
            Code::MissingTemporary => "GPP007",
            Code::Uncoalesced => "GPP008",
            Code::CrossKernelH2d => "GPP010",
            Code::DeadD2h => "GPP011",
            Code::MissingResidency => "GPP012",
            Code::HoistableTransfer => "GPP013",
            Code::SerializedTransfer => "GPP014",
        }
    }

    /// Parses a wire name (case-insensitive).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
    }

    /// The severity a diagnostic of this code carries before any
    /// configuration is applied. GPP005 upgrades itself to `Error` for
    /// *definite* write-write races.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::Structural | Code::OutOfBounds => Severity::Error,
            Code::Uncoalesced | Code::HoistableTransfer | Code::SerializedTransfer => {
                Severity::Note
            }
            _ => Severity::Warning,
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How much a diagnostic matters. `Error` makes `gpp lint` exit nonzero
/// and `gpp-serve` reject the request; `Note` is purely informational
/// and unaffected by `--deny warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The skeleton is wrong; projections from it are meaningless.
    Error,
    /// Probably a mistake, but analysis can proceed.
    Warning,
    /// A performance observation, not a defect.
    Note,
}

impl Severity {
    /// Lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, anchored to the `.gsk` source when a [`Span`] is known.
/// Programs built through the API carry no spans; their diagnostics
/// report `Span::none()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Effective severity (after [`LintConfig::apply`]).
    pub severity: Severity,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// Anchor in the `.gsk` source; `Span::none()` when unknown.
    pub span: Span,
    /// A machine-applicable rewrite that resolves the finding, when one
    /// exists (`gpp lint --fix` applies these).
    pub fix: Option<FixIt>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: Code, span: Span, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message,
            span,
            fix: None,
        }
    }

    /// A diagnostic with an explicit severity (e.g. a *definite* race).
    pub fn with_severity(
        code: Code,
        severity: Severity,
        span: Span,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message,
            span,
            fix: None,
        }
    }

    /// Attaches a machine-applicable fix-it.
    pub fn with_fix(mut self, fix: FixIt) -> Diagnostic {
        self.fix = Some(fix);
        self
    }

    /// Attaches the fix-it `edits(line)` if the finding has a source line.
    pub fn with_line_fix(self, summary: String, edits: impl FnOnce(usize) -> Vec<Edit>) -> Self {
        if !self.span.is_real() {
            return self;
        }
        let fix = FixIt::new(summary, edits(self.span.line));
        self.with_fix(fix)
    }
}

/// Per-code severity policy, mirroring `rustc`'s `-A`/`-D` flags.
///
/// Precedence: `allow(code)` removes the diagnostic entirely (except
/// GPP000, which cannot be silenced), `deny(code)` escalates it to an
/// error, and `deny_warnings` escalates every remaining warning. Notes
/// are only affected by an explicit `deny(code)`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Treat all warnings as errors (`--deny warnings`).
    pub deny_warnings: bool,
    denied: BTreeSet<Code>,
    allowed: BTreeSet<Code>,
}

impl LintConfig {
    /// The default policy: report everything at its natural severity.
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Escalates every diagnostic of `code` to an error.
    pub fn deny(&mut self, code: Code) {
        self.denied.insert(code);
    }

    /// Suppresses every diagnostic of `code`. GPP000 is ignored here:
    /// structural errors cannot be allowed away.
    pub fn allow(&mut self, code: Code) {
        self.allowed.insert(code);
    }

    /// Applies the policy: filter, re-severity, and sort by source
    /// position (then code) so output is deterministic.
    pub fn apply(&self, mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags.retain(|d| d.code == Code::Structural || !self.allowed.contains(&d.code));
        for d in &mut diags {
            if self.denied.contains(&d.code)
                || (self.deny_warnings && d.severity == Severity::Warning)
            {
                d.severity = Severity::Error;
            }
        }
        diags.sort_by(|a, b| {
            (a.span.line, a.span.col, a.code).cmp(&(b.span.line, b.span.col, b.code))
        });
        diags
    }
}

/// The outcome of linting one file (or one in-memory program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// The file name diagnostics are reported against.
    pub file: String,
    /// Findings, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity diagnostics.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    /// True if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// True if nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_and_order() {
        // GPP009 is reserved: numbers ascend but skip it.
        let numbers = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14];
        assert_eq!(Code::ALL.len(), numbers.len());
        for (n, c) in numbers.into_iter().zip(Code::ALL) {
            assert_eq!(c.as_str(), format!("GPP{n:03}"));
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert_eq!(Code::parse(&c.as_str().to_lowercase()), Some(c));
        }
        assert_eq!(Code::parse("GPP009"), None);
        assert_eq!(Code::parse("GPP999"), None);
        assert_eq!(Code::parse("warnings"), None);
    }

    #[test]
    fn config_precedence() {
        let d = |code: Code| Diagnostic::new(code, Span::none(), "x".into());
        let mut cfg = LintConfig::new();
        cfg.deny_warnings = true;
        cfg.deny(Code::Uncoalesced);
        cfg.allow(Code::UnusedArray);
        cfg.allow(Code::Structural); // must have no effect
        let out = cfg.apply(vec![
            d(Code::UnusedArray),
            d(Code::Uncoalesced),
            d(Code::DeadWrite),
            d(Code::Structural),
        ]);
        // UnusedArray removed; the rest all escalate to errors except…
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|d| d.severity == Severity::Error));
        assert!(out.iter().any(|d| d.code == Code::Structural));
    }

    #[test]
    fn notes_survive_deny_warnings() {
        let mut cfg = LintConfig::new();
        cfg.deny_warnings = true;
        let out = cfg.apply(vec![Diagnostic::new(
            Code::Uncoalesced,
            Span::none(),
            "stride".into(),
        )]);
        assert_eq!(out[0].severity, Severity::Note);
    }

    #[test]
    fn apply_sorts_by_position() {
        let at = |line, col, code| Diagnostic::new(code, Span { line, col, len: 1 }, "m".into());
        let cfg = LintConfig::new();
        let out = cfg.apply(vec![
            at(9, 1, Code::DeadWrite),
            at(2, 7, Code::UnusedArray),
            at(2, 7, Code::OutOfBounds),
        ]);
        let order: Vec<Code> = out.iter().map(|d| d.code).collect();
        assert_eq!(
            order,
            vec![Code::OutOfBounds, Code::UnusedArray, Code::DeadWrite]
        );
    }
}
