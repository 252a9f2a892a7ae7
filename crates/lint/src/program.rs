//! Whole-program transfer dataflow: the GPP010–GPP014 pass family.
//!
//! These lints only run when the skeleton spells out its transfer
//! schedule with explicit `h2d`/`d2h` directives
//! ([`Program::has_explicit_transfers`]); derived schedules are optimal
//! by construction, so there is nothing to critique. Over the
//! interleaved kernel/transfer sequence the pass tracks, per array,
//! whether host and device copies agree (*synced*): an `h2d` or `d2h`
//! syncs them, a kernel that writes the array puts the device ahead.
//! Transfers that cannot change the visible state are redundant:
//!
//! * **GPP010** — `h2d` while synced: the device already holds these
//!   exact bytes.
//! * **GPP011** — `d2h` while synced, or a `d2h` whose host copy is
//!   overwritten by a later `d2h` before any `h2d` could observe it.
//! * **GPP012** — a `d2h` immediately followed (in the array's own
//!   event stream) by an `h2d` of the same array: a round-trip through
//!   the host where the data should have stayed resident.
//! * **GPP013** (note) — an `h2d` scheduled after kernels that never
//!   reference the array: hoisting it before the first kernel cannot
//!   change semantics and lets the upload precede unrelated compute.
//! * **GPP014** (note) — a large synchronous transfer adjacent to a
//!   kernel it could overlap: a `stream N chunks=K` annotation would
//!   pipeline the copy against the compute instead of serializing.
//!
//! Events carry stream ids. Two transfers on *distinct non-zero*
//! streams at the same schedule position are concurrent with no defined
//! order, so the redundancy arguments above do not hold across them:
//! GPP010–GPP012 never fire on such a pair, and GPP013 leaves
//! stream-annotated uploads alone (async placement is a deliberate
//! prefetch). Stream 0 is the synchronous stream and orders with
//! everything.
//!
//! Every finding carries a machine-applicable [`FixIt`] when the
//! program came from `.gsk` text (fixes edit source lines, so spans are
//! required); `gpp lint --fix` applies them.

use crate::diag::{Code, Diagnostic};
use crate::fixit::Edit;
use gpp_datausage::plan::human_bytes;
use gpp_datausage::Dataflow;
use gpp_skeleton::{Program, SourceMap, Span, TransferKind};

/// One event in a single array's timeline.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Transfer index into `program.transfers`.
    Xfer(usize, TransferKind),
    /// A kernel that references the array; `true` if it writes it.
    Kernel(bool),
}

/// Runs the GPP010–GPP014 family. No-op unless the program carries an
/// explicit transfer schedule. `flow` says which kernels touch which
/// arrays.
pub(crate) fn transfer_dataflow(
    p: &Program,
    map: Option<&SourceMap>,
    flow: &Dataflow,
    diags: &mut Vec<Diagnostic>,
) {
    if !p.has_explicit_transfers() {
        return;
    }
    let t_span = |ti: usize| -> Span { map.map(|m| m.transfer_span(ti)).unwrap_or_default() };
    // Two transfer directives are concurrent — no defined order between
    // them — when they sit at the same schedule position on distinct
    // non-zero streams. Stream 0 is synchronous and orders with
    // everything, so it never forms a concurrent pair.
    let concurrent = |ti: usize, tj: usize| -> bool {
        let (a, b) = (&p.transfers[ti], &p.transfers[tj]);
        a.pos == b.pos && a.stream != 0 && b.stream != 0 && a.stream != b.stream
    };
    let first_kernel_line = map
        .filter(|_| !p.kernels.is_empty())
        .map(|m| m.kernel_span(0).line)
        .unwrap_or(0);
    let delete = |line| vec![Edit::DeleteLine { line }];

    // Transfers that already have a finding: each gets one, the first
    // check below that claims it.
    let mut claimed = vec![false; p.transfers.len()];
    let mut evs = Vec::new();
    // One walk finds GPP012, GPP010 with the synced GPP011, and the
    // overwritten GPP011 interleaved; each family is reported in turn.
    let (mut round_trips, mut synced_xfers, mut overwritten) = (Vec::new(), Vec::new(), Vec::new());
    for decl in &p.arrays {
        // The array's events in program order (transfer at pos q comes
        // before kernel q).
        evs.clear();
        let mut xfers = (p.transfers.iter().enumerate())
            .filter(|(_, t)| t.array == decl.id)
            .peekable();
        for ki in 0..p.kernels.len() {
            while let Some((ti, t)) = xfers.next_if(|(_, t)| t.pos <= ki) {
                evs.push(Ev::Xfer(ti, t.kind));
            }
            if let Some(writes) = flow.touch(ki, decl.id) {
                evs.push(Ev::Kernel(writes));
            }
        }
        evs.extend(xfers.map(|(ti, t)| Ev::Xfer(ti, t.kind)));

        let name = &decl.name;
        let mut synced = false;
        // The transfer that last touched this array's residency: when
        // the current directive is concurrent with it, their order is
        // undefined and no redundancy conclusion holds.
        let mut last_xfer: Option<(usize, TransferKind)> = None;
        for (i, ev) in evs.iter().enumerate() {
            let Ev::Xfer(ti, kind) = *ev else {
                if let Ev::Kernel(true) = ev {
                    synced = false; // the device is ahead
                }
                continue;
            };
            // GPP012: a d2h straight followed by an h2d of the array is a
            // round-trip through the host. The pair's fix deletes both
            // lines, so neither gets another finding. On distinct
            // streams at one position the two copies are merely in
            // flight at once.
            if let (TransferKind::DeviceToHost, Some(&Ev::Xfer(tj, TransferKind::HostToDevice))) =
                (kind, evs.get(i + 1))
            {
                if !concurrent(ti, tj) {
                    (claimed[ti], claimed[tj]) = (true, true);
                    // Spans come from one source map: both real or neither.
                    let ha = t_span(tj);
                    let d = Diagnostic::new(
                        Code::MissingResidency,
                        t_span(ti),
                        format!(
                            "`{name}` makes a round-trip through the host: downloaded \
                             here and re-uploaded with no kernel touching it in \
                             between — keep it device-resident",
                        ),
                    )
                    .with_line_fix(
                        format!("keep `{name}` device-resident: delete the d2h/h2d round-trip"),
                        |line| [delete(line), delete(ha.line)].concat(),
                    );
                    round_trips.push(d);
                }
            }
            // A transfer while host and device agree is redundant: GPP010
            // for an h2d, GPP011 for a d2h.
            let racy = last_xfer.is_some_and(|(tj, _)| concurrent(ti, tj));
            if synced && !racy && !claimed[ti] {
                claimed[ti] = true;
                let (code, message, summary) = match kind {
                    TransferKind::HostToDevice => (
                        Code::CrossKernelH2d,
                        format!(
                            "redundant h2d of `{name}`: the device copy is already \
                             in sync and no kernel modified it since the last \
                             upload — this re-sends {}",
                            human_bytes(decl.byte_count()),
                        ),
                        format!("delete the redundant `h2d {name}`"),
                    ),
                    TransferKind::DeviceToHost => (
                        Code::DeadD2h,
                        format!(
                            "dead d2h of `{name}`: host and device copies already \
                             agree, so this downloads nothing new"
                        ),
                        format!("delete the dead `d2h {name}`"),
                    ),
                };
                let d = Diagnostic::new(code, t_span(ti), message);
                synced_xfers.push(d.with_line_fix(summary, delete));
            }
            // GPP011 too: a d2h whose host copy this d2h clobbers before
            // any h2d could consume it. The final d2h of an array is
            // always live, as program end observes the host copy.
            if let Some((tj, TransferKind::DeviceToHost)) = last_xfer {
                if kind == TransferKind::DeviceToHost && !racy && !claimed[tj] {
                    claimed[tj] = true;
                    let message = format!(
                        "dead d2h of `{name}`: the downloaded bytes are overwritten \
                         by a later d2h before anything re-uploads them"
                    );
                    let d = Diagnostic::new(Code::DeadD2h, t_span(tj), message);
                    let summary = format!("delete the dead `d2h {name}`");
                    overwritten.push(d.with_line_fix(summary, delete));
                }
            }
            synced = true;
            last_xfer = Some((ti, kind));
        }
    }
    diags.append(&mut round_trips);
    diags.append(&mut synced_xfers);
    diags.append(&mut overwritten);

    // What the residency walk left alone, if synchronous (a
    // stream-annotated upload is a deliberate prefetch that already
    // overlaps its neighbour in place). GPP013: an h2d after kernels that
    // never reference the array can be hoisted to the top of the program
    // without changing what any kernel observes.
    for (ti, t) in p.transfers.iter().enumerate() {
        let hoistable = t.kind == TransferKind::HostToDevice
            && t.pos > 0
            && t.stream == 0
            && !claimed[ti]
            && !p.transfers[..ti].iter().any(|u| u.array == t.array)
            && !(0..t.pos.min(p.kernels.len())).any(|ki| flow.touch(ki, t.array).is_some());
        if !hoistable {
            continue;
        }
        claimed[ti] = true;
        let name = &p.array(t.array).name;
        let mut d = Diagnostic::new(
            Code::HoistableTransfer,
            t_span(ti),
            format!(
                "`h2d {name}` runs after {} kernel(s) that never touch `{name}` — \
                 hoist the upload before the first kernel",
                t.pos
            ),
        );
        if first_kernel_line > 0 {
            d = d.with_line_fix(
                format!("hoist `h2d {name}` before the first kernel"),
                |line| {
                    let before = first_kernel_line;
                    vec![Edit::MoveLine { line, before }]
                },
            );
        }
        diags.push(d);
    }

    // GPP014 (note): a large synchronous, unchunked transfer no other
    // check claimed, next to a kernel it could overlap — an `h2d` before
    // its consumer or a `d2h` after its producer. Annotating `stream 1
    // chunks=4` pipelines the copy against that kernel; copies under 1 MB
    // are latency-bound and not worth the note.
    const OVERLAP_WORTHWHILE_BYTES: u64 = 1 << 20;
    for (ti, t) in p.transfers.iter().enumerate() {
        let decl = p.array(t.array);
        let (dir, neighbor, overlappable) = match t.kind {
            TransferKind::HostToDevice => ("h2d", "next", t.pos < p.kernels.len()),
            TransferKind::DeviceToHost => ("d2h", "previous", t.pos > 0),
        };
        if t.stream != 0
            || t.chunks > 1
            || claimed[ti]
            || !overlappable
            || decl.byte_count() < OVERLAP_WORTHWHILE_BYTES
        {
            continue;
        }
        let name = &decl.name;
        let d = Diagnostic::new(
            Code::SerializedTransfer,
            t_span(ti),
            format!(
                "synchronous `{dir} {name}` ({}) serializes with the {neighbor} \
                 kernel — `stream 1 chunks=4` would overlap the copy with \
                 that compute",
                human_bytes(decl.byte_count()),
            ),
        );
        diags.push(d.with_line_fix(
            format!("pipeline `{dir} {name}` on a concurrent stream"),
            |line| {
                let text = " stream 1 chunks=4".into();
                vec![Edit::Append { line, text }]
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;
    use crate::LintConfig;

    fn codes(src: &str) -> Vec<(Code, usize)> {
        lint_source(src, "t.gsk", &LintConfig::new())
            .diagnostics
            .iter()
            .map(|d| (d.code, d.span.line))
            .collect()
    }

    const REUPLOAD: &str = "\
program p
array a f32 [64]
array b f32 [64]
array c f32 [64]
h2d a
kernel k1
  parallel i 64
  stmt adds=1
    read  a [i]
    write b [i]
h2d a
kernel k2
  parallel i 64
  stmt adds=1
    read  a [i]
    write c [i]
d2h b
d2h c
";

    #[test]
    fn synced_reupload_is_gpp010_with_delete_fix() {
        let report = lint_source(REUPLOAD, "t.gsk", &LintConfig::new());
        let got: Vec<(Code, usize)> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.span.line))
            .collect();
        assert_eq!(
            got,
            vec![(Code::CrossKernelH2d, 11)],
            "{:?}",
            report.diagnostics
        );
        let fix = report.diagnostics[0].fix.as_ref().expect("fix");
        assert_eq!(fix.edits, vec![Edit::DeleteLine { line: 11 }]);
    }

    #[test]
    fn kernel_write_invalidates_residency() {
        // The kernel writes `a` between the uploads: re-upload is live.
        let src = REUPLOAD.replace("    write b [i]\nh2d a", "    write a [i]\nh2d a");
        assert!(
            !codes(&src).iter().any(|(c, _)| *c == Code::CrossKernelH2d),
            "{:?}",
            codes(&src)
        );
    }

    #[test]
    fn roundtrip_is_gpp012_and_suppresses_members() {
        let src = "\
program p
array a f32 [64]
array t f32 [64] temporary
array c f32 [64]
h2d a
kernel produce
  parallel i 64
  stmt adds=1
    read  a [i]
    write t [i]
d2h t
h2d t
kernel consume
  parallel i 64
  stmt adds=1
    read  t [i]
    write c [i]
d2h c
";
        let report = lint_source(src, "t.gsk", &LintConfig::new());
        let got: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            got,
            vec![Code::MissingResidency],
            "{:?}",
            report.diagnostics
        );
        let fix = report.diagnostics[0].fix.as_ref().unwrap();
        assert_eq!(
            fix.edits,
            vec![Edit::DeleteLine { line: 11 }, Edit::DeleteLine { line: 12 }]
        );
    }

    #[test]
    fn overwritten_download_is_gpp011() {
        let src = "\
program p
array a f32 [64]
array b f32 [64]
h2d a
kernel k1
  parallel i 64
  stmt adds=1
    read  a [i]
    write b [i]
d2h b
kernel k2
  parallel i 64
  stmt adds=1
    read  b [i]
    write b [i]
d2h b
";
        let report = lint_source(src, "t.gsk", &LintConfig::new());
        let got: Vec<(Code, usize)> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.span.line))
            .collect();
        assert_eq!(got, vec![(Code::DeadD2h, 10)], "{:?}", report.diagnostics);
    }

    #[test]
    fn late_upload_of_untouched_array_is_hoistable() {
        let src = "\
program p
array a f32 [64]
array b f32 [64]
array c f32 [64] temporary
array d f32 [64]
h2d a
kernel k1
  parallel i 64
  stmt adds=1
    read  a [i]
    write c [i]
h2d b
kernel k2
  parallel i 64
  stmt adds=1
    read  b [i]
    read  c [i]
    write d [i]
d2h d
";
        let report = lint_source(src, "t.gsk", &LintConfig::new());
        let got: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            got,
            vec![Code::HoistableTransfer],
            "{:?}",
            report.diagnostics
        );
        let d = &report.diagnostics[0];
        assert_eq!(d.severity, crate::Severity::Note);
        let fix = d.fix.as_ref().unwrap();
        assert_eq!(
            fix.edits,
            vec![Edit::MoveLine {
                line: 12,
                before: 7
            }]
        );
    }

    #[test]
    fn derived_schedules_are_exempt() {
        // Same program as REUPLOAD minus the transfer directives: the
        // pass must stay silent when the schedule is derived.
        let src: String = REUPLOAD
            .lines()
            .filter(|l| !l.starts_with("h2d") && !l.starts_with("d2h"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(codes(&src), vec![], "derived schedule must not lint");
    }

    #[test]
    fn concurrent_streams_suppress_gpp010() {
        // Two re-uploads of `a` at the same position: the stream-1 copy
        // is ordered after the original upload (GPP010 fires), but the
        // stream-2 copy is concurrent with it — no defined order, no
        // redundancy conclusion.
        let src = "\
program p
array a f32 [64]
array b f32 [64]
array c f32 [64]
h2d a
kernel k1
  parallel i 64
  stmt adds=1
    read  a [i]
    write b [i]
h2d a stream 1
h2d a stream 2
kernel k2
  parallel i 64
  stmt adds=1
    read  a [i]
    write c [i]
d2h b
d2h c
";
        assert_eq!(codes(src), vec![(Code::CrossKernelH2d, 11)]);
    }

    #[test]
    fn concurrent_roundtrip_is_not_gpp012() {
        // d2h/h2d of the same array on distinct non-zero streams at the
        // same position run concurrently — not a host round-trip.
        let src = "\
program p
array a f32 [64]
array t f32 [64] temporary
array c f32 [64]
h2d a
kernel produce
  parallel i 64
  stmt adds=1
    read  a [i]
    write t [i]
d2h t stream 1
h2d t stream 2
kernel consume
  parallel i 64
  stmt adds=1
    read  t [i]
    write c [i]
d2h c
";
        assert_eq!(codes(src), vec![]);
    }

    #[test]
    fn concurrent_downloads_are_not_dead() {
        // Two d2h of `b` at the same position on different streams:
        // neither "overwrites" the other — order is undefined.
        let src = "\
program p
array a f32 [64]
array b f32 [64]
h2d a
kernel k1
  parallel i 64
  stmt adds=1
    read  a [i]
    write b [i]
d2h b stream 1
d2h b stream 2
";
        assert_eq!(codes(src), vec![]);
    }

    #[test]
    fn async_upload_is_not_hoistable() {
        // The stream annotation marks the late upload as a deliberate
        // prefetch that overlaps k1 in place; GPP013 leaves it alone.
        let src = "\
program p
array a f32 [64]
array b f32 [64]
array c f32 [64] temporary
array d f32 [64]
h2d a
kernel k1
  parallel i 64
  stmt adds=1
    read  a [i]
    write c [i]
h2d b async
kernel k2
  parallel i 64
  stmt adds=1
    read  b [i]
    read  c [i]
    write d [i]
d2h d
";
        assert_eq!(codes(src), vec![]);
    }

    #[test]
    fn large_sync_transfers_are_gpp014_with_append_fix() {
        // 4 MB arrays on a fully synchronous schedule: both the upload
        // (before its consumer) and the download (after its producer)
        // could overlap compute.
        let src = "\
program p
array a f32 [1048576]
array b f32 [1048576]
h2d a
kernel k
  parallel i 1048576
  stmt adds=1
    read  a [i]
    write b [i]
d2h b
";
        let report = lint_source(src, "t.gsk", &LintConfig::new());
        let got: Vec<(Code, usize)> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.span.line))
            .collect();
        assert_eq!(
            got,
            vec![
                (Code::SerializedTransfer, 4),
                (Code::SerializedTransfer, 10)
            ],
            "{:?}",
            report.diagnostics
        );
        for d in &report.diagnostics {
            assert_eq!(d.severity, crate::Severity::Note);
            let fix = d.fix.as_ref().expect("fix");
            assert_eq!(
                fix.edits,
                vec![Edit::Append {
                    line: d.span.line,
                    text: " stream 1 chunks=4".into(),
                }]
            );
        }
        // Applying the fixes annotates the schedule; a re-lint is clean
        // (the pass is idempotent).
        let (fixed, n) = crate::fixit::apply_fixes(src, &report.diagnostics);
        assert_eq!(n, 2);
        assert_eq!(codes(&fixed), vec![]);
    }

    #[test]
    fn small_or_annotated_transfers_are_not_gpp014() {
        // Tiny copies are latency-bound; chunked or streamed copies are
        // already pipelined. None of them warrant the note.
        let src = "\
program p
array a f32 [1048576]
array b f32 [64]
h2d a stream 1 chunks=4
kernel k
  parallel i 64
  stmt adds=1
    read  a [i]
    write b [i]
d2h b
";
        assert_eq!(codes(src), vec![]);
    }

    #[test]
    fn sane_explicit_schedule_is_clean() {
        let src = "\
program p
array a f32 [64]
array b f32 [64]
h2d a
kernel k
  parallel i 64
  stmt adds=1
    read  a [i]
    write b [i]
d2h b
";
        assert_eq!(codes(src), vec![]);
    }
}
