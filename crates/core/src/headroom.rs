//! Transfer headroom: how much projected time a skeleton's explicit
//! transfer schedule leaves on the table.
//!
//! `gpp lint` can rewrite a `.gsk` with an explicit `h2d`/`d2h`
//! schedule into an equivalent one without the redundant traffic it
//! diagnosed (GPP010–GPP013), or with stream/chunk annotations that
//! pipeline large copies against compute (GPP014). This module prices
//! both versions with the full projector on every registered machine:
//! the *headroom* is the projector-measured delta between the program
//! as written and the fix-it-optimized schedule. Each side is priced at
//! its overlapped total when it carries stream annotations (identical
//! to the serial total otherwise), so both traffic-removing and
//! overlap-adding fixes surface their win; the delta is zero when the
//! schedule is already optimal.

use crate::projector::Grophecy;
use crate::registry::MachineRegistry;
use crate::report::Json;
use gpp_datausage::Hints;
use gpp_skeleton::Program;

/// Projected cost of one skeleton, as written vs. optimized, on one
/// machine. All times are seconds for a single iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineHeadroom {
    /// Machine id (registry name).
    pub machine: String,
    /// Projected total time of the program as written (overlapped total
    /// when the schedule carries stream annotations).
    pub as_written: f64,
    /// Projected total time of the fix-it-optimized program (overlapped
    /// total when the fix added stream annotations).
    pub optimized: f64,
}

impl MachineHeadroom {
    /// Seconds saved by adopting the optimized schedule (never
    /// negative; fixes only remove or reorder transfers).
    pub fn headroom(&self) -> f64 {
        (self.as_written - self.optimized).max(0.0)
    }
}

/// Prices `as_written` and `optimized` on every machine in `registry`
/// (deterministically seeded with `seed`), in registry name order.
///
/// Hints are derived per program with [`Hints::for_program`], so a fix
/// that adds a `temporary` attribute is honored on the optimized side.
pub fn transfer_headroom(
    registry: &MachineRegistry,
    seed: u64,
    as_written: &Program,
    optimized: &Program,
) -> Vec<MachineHeadroom> {
    let h0 = Hints::for_program(as_written);
    let h1 = Hints::for_program(optimized);
    registry
        .names()
        .into_iter()
        .map(|name| {
            let cfg = registry
                .config(&name, seed)
                .expect("name came from the registry");
            let mut node = cfg.node();
            let gro = Grophecy::calibrate(&cfg, &mut node);
            MachineHeadroom {
                machine: name,
                as_written: gro.project(as_written, &h0).overlapped_total_time(1),
                optimized: gro.project(optimized, &h1).overlapped_total_time(1),
            }
        })
        .collect()
}

/// The `transfer_headroom` array that `gpp lint --format json` and a
/// served `project` reply carry: one object per row, in row order.
pub fn headroom_json(rows: &[MachineHeadroom]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("machine", Json::Str(r.machine.clone())),
                    ("as_written", Json::Num(r.as_written)),
                    ("optimized", Json::Num(r.optimized)),
                    ("headroom", Json::Num(r.headroom())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        gpp_skeleton::text::parse(src).expect("fixture parses")
    }

    const WASTEFUL: &str = "\
program p
array a f32 [4096]
array b f32 [4096]
h2d a
kernel k
  parallel i 4096
  stmt adds=1
    read  a [i]
    write b [i]
h2d a
d2h b
";

    const TIGHT: &str = "\
program p
array a f32 [4096]
array b f32 [4096]
h2d a
kernel k
  parallel i 4096
  stmt adds=1
    read  a [i]
    write b [i]
d2h b
";

    #[test]
    fn redundant_upload_has_positive_headroom_everywhere() {
        let reg = MachineRegistry::builtin();
        let rows = transfer_headroom(&reg, 7, &parse(WASTEFUL), &parse(TIGHT));
        assert_eq!(rows.len(), reg.len());
        for r in &rows {
            assert!(
                r.headroom() > 0.0,
                "{}: {} vs {}",
                r.machine,
                r.as_written,
                r.optimized
            );
        }
    }

    #[test]
    fn identical_programs_have_zero_headroom() {
        let reg = MachineRegistry::builtin();
        for r in transfer_headroom(&reg, 7, &parse(TIGHT), &parse(TIGHT)) {
            assert_eq!(r.headroom(), 0.0, "{}", r.machine);
        }
    }

    #[test]
    fn overlap_annotations_surface_positive_headroom() {
        // The GPP014 rewrite: same traffic, but pipelined against the
        // kernel on a concurrent stream. The overlapped pricing must
        // credit the overlap.
        let serial = "\
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
        let streamed = serial
            .replace("h2d a", "h2d a stream 1 chunks=4")
            .replace("d2h b", "d2h b stream 1 chunks=4");
        let reg = MachineRegistry::builtin();
        for r in transfer_headroom(&reg, 7, &parse(serial), &parse(&streamed)) {
            assert!(
                r.headroom() > 0.0,
                "{}: {} vs {}",
                r.machine,
                r.as_written,
                r.optimized
            );
        }
    }

    #[test]
    fn rows_render_with_escaped_machine_names() {
        let row = MachineHeadroom {
            machine: "lab \"b\"".into(),
            as_written: 0.5,
            optimized: 0.25,
        };
        assert_eq!(
            headroom_json(&[row]).render(),
            r#"[{"machine":"lab \"b\"","as_written":0.5,"optimized":0.25,"headroom":0.25}]"#
        );
    }

    #[test]
    fn headroom_equals_projector_delta() {
        let reg = MachineRegistry::builtin();
        let (w, t) = (parse(WASTEFUL), parse(TIGHT));
        for r in transfer_headroom(&reg, 11, &w, &t) {
            let cfg = reg.config(&r.machine, 11).unwrap();
            let mut node = cfg.node();
            let gro = Grophecy::calibrate(&cfg, &mut node);
            let d = gro.project(&w, &Hints::for_program(&w)).total_time(1)
                - gro.project(&t, &Hints::for_program(&t)).total_time(1);
            assert!((r.headroom() - d).abs() < 1e-12, "{}", r.machine);
        }
    }
}
