//! `gpp-lint` — a dataflow static analyzer for kernel skeletons.
//!
//! Skeletons are tiny, but the mistakes people make in them are the same
//! ones they make in real kernels: off-by-one stencil bounds, reads of
//! never-written scratch buffers, reductions that race across threads,
//! transfer hints that are missing or contradictory. Because a skeleton
//! feeds a performance *projection*, such mistakes don't crash — they
//! silently skew the predicted transfer volumes and kernel times. This
//! crate catches them before any projection runs.
//!
//! The analyzer layers on the existing semantic infrastructure:
//! [`gpp_skeleton::validate`] for structural integrity, and
//! [`gpp_datausage`]'s dataflow walk for per-reference bounded regular
//! sections and the transfer plan the lints reason about.
//! Each finding carries a stable code (`GPP000`–`GPP014`; GPP009 is
//! reserved), a severity, and — when the program came from `.gsk`
//! text — a source span. Skeletons with an explicit `h2d`/`d2h`
//! schedule additionally get whole-program transfer dataflow
//! (GPP010–GPP014), whose findings carry machine-applicable
//! [`fixit::FixIt`]s that `gpp lint --fix` applies.
//!
//! ```
//! use gpp_lint::{lint_source, LintConfig};
//!
//! let src = "\
//! program p
//! array a f32 [8]
//! array b f32 [8]
//! kernel k
//!   parallel i 8
//!   stmt
//!     read  a [i+1]
//!     write b [i]
//! ";
//! let report = lint_source(src, "p.gsk", &LintConfig::new());
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics[0].code, gpp_lint::Code::OutOfBounds);
//! assert_eq!(report.diagnostics[0].span.line, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod explain;
pub mod fixit;
pub mod passes;
mod program;
pub mod render;

pub use diag::{Code, Diagnostic, LintConfig, LintReport, Severity};
pub use explain::{explain, render_explain, Explanation};
pub use fixit::{apply_fixes, Edit, FixIt};
pub use passes::lint_program;
pub use render::{render_human, render_json};

use gpp_datausage::Hints;
use gpp_skeleton::text::ParseError;
use gpp_skeleton::Span;

/// Lints `.gsk` source text end to end: parse (with spans), validate,
/// run every pass, and apply `cfg`. Parse failures become a single
/// GPP000 diagnostic at the offending line rather than an `Err` — a
/// linter's job is to report, not to bail.
pub fn lint_source(src: &str, file: &str, cfg: &LintConfig) -> LintReport {
    let diagnostics = match gpp_skeleton::text::parse_with_spans(src) {
        Ok((program, map)) => {
            let hints = Hints::for_program(&program);
            lint_program(&program, Some(&map), &hints)
        }
        Err(e) => vec![Diagnostic::new(
            Code::Structural,
            Span {
                line: e.line,
                col: e.col,
                len: 0,
            },
            format!("parse error: {}", e.message),
        )],
    };
    LintReport {
        file: file.to_string(),
        diagnostics: cfg.apply(diagnostics),
    }
}

/// Applies fix-its to `src` until none applies, for at most 16 rounds:
/// each round re-lints the rewritten text, so conflicting fixes resolve
/// across rounds. Returns the final text and how many fixes were applied
/// in total, or the parse error of the first rewrite that no longer
/// parses (a fix-engine bug).
pub fn fix_until_stable(
    src: &str,
    file: &str,
    cfg: &LintConfig,
) -> Result<(String, usize), ParseError> {
    let mut cur = src.to_string();
    let mut total = 0;
    for _ in 0..16 {
        let report = lint_source(&cur, file, cfg);
        let (next, n) = apply_fixes(&cur, &report.diagnostics);
        if n == 0 {
            break;
        }
        gpp_skeleton::text::parse(&next)?;
        cur = next;
        total += n;
    }
    Ok((cur, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_failure_is_a_spanned_structural_error() {
        let report = lint_source("program p\nwat\n", "x.gsk", &LintConfig::new());
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, Code::Structural);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.span.line, 2);
        assert!(d.message.starts_with("parse error:"), "{}", d.message);
    }

    #[test]
    fn clean_source_lints_clean() {
        let src = "\
program p
array a f32 [64]
array b f32 [64]
kernel k
  parallel i 64
  stmt adds=1
    read  a [i]
    write b [i]
";
        let report = lint_source(src, "x.gsk", &LintConfig::new());
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(render_human(&report, Some(src)), "");
    }

    #[test]
    fn diagnostics_carry_gsk_spans() {
        let src = "\
program p
array a f32 [8]
array b f32 [8]
kernel k
  parallel i 8
  stmt
    read  a [i+1]
    write b [i]
";
        let report = lint_source(src, "p.gsk", &LintConfig::new());
        assert_eq!(report.errors(), 1);
        let d = &report.diagnostics[0];
        assert_eq!((d.span.line, d.span.col), (7, 5));
        let human = render_human(&report, Some(src));
        assert!(human.contains("p.gsk:7:5: error[GPP001]"), "{human}");
        assert!(human.contains("read  a [i+1]"), "{human}");
    }
}
