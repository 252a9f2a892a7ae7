//! Machine-readable reports: a minimal JSON emitter for projections,
//! measurements, and speedup analyses.
//!
//! Downstream tooling (plotting scripts, CI dashboards) wants the
//! evaluation as data, not text tables. The sanctioned dependency set has
//! no JSON serializer, so this module carries a small, correct one: string
//! escaping per RFC 8259, `null` for non-finite floats, and a tiny
//! builder API used by the report constructors below.

use crate::measurement::AppMeasurement;
use crate::projector::AppProjection;
use crate::speedup::SpeedupReport;
use std::fmt::Write;

/// A JSON value under construction.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(&'static str, Json)>),
    /// Pre-rendered JSON spliced in verbatim. The caller guarantees the
    /// string is valid JSON — used when a reply embeds other replies
    /// byte-for-byte (the `batch` frame) or objects rendered once and
    /// kept (the serve memo's `pcie` and `projection`).
    Raw(String),
}

impl Json {
    /// Object constructor.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().collect())
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                // Writing into `out` formats each number in place, with
                // no temporary `String`; `fmt::Write` for `String` cannot
                // fail.
                if x.is_finite() {
                    // Integers print without a trailing ".0".
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(json) => out.push_str(json),
        }
    }
}

/// Writes `s` as a JSON string literal, escaped per RFC 8259.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes a projection. The `timeline` and `multi_gpu` keys appear
/// only when the projection carries them (stream-annotated programs /
/// multi-device machines), so reports for plain programs on single-GPU
/// machines are byte-identical to pre-overlap builds.
pub fn projection_json(p: &AppProjection) -> Json {
    let mut fields = vec![
        (
            "kernels",
            Json::Arr(
                p.kernels
                    .iter()
                    .map(|k| {
                        Json::obj([
                            ("name", Json::Str(k.name.clone())),
                            ("seconds", Json::Num(k.time)),
                            ("config", Json::Str(k.config.to_string())),
                            ("bound", Json::Str(k.bound.to_string())),
                            ("dram_bytes", Json::Num(k.dram_bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("kernel_seconds", Json::Num(p.kernel_time)),
        (
            "transfers",
            Json::Arr(
                p.plan
                    .all()
                    .zip(&p.transfer_times)
                    .map(|(t, secs)| {
                        Json::obj([
                            ("array", Json::Str(t.name.clone())),
                            ("bytes", Json::Num(t.bytes as f64)),
                            ("direction", Json::Str(t.dir.to_string())),
                            ("exact", Json::Bool(t.exact)),
                            ("seconds", Json::Num(*secs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("transfer_seconds", Json::Num(p.transfer_time)),
        ("total_seconds_1_iter", Json::Num(p.total_time(1))),
    ];
    if let Some(tl) = &p.timeline {
        fields.push((
            "timeline",
            Json::obj([
                (
                    "events",
                    Json::Arr(
                        tl.events
                            .iter()
                            .map(|e| {
                                Json::obj([
                                    ("array", Json::Str(e.array.clone())),
                                    ("direction", Json::Str(e.dir.to_string())),
                                    ("pos", Json::Num(e.pos as f64)),
                                    ("stream", Json::Num(e.stream as f64)),
                                    ("chunks", Json::Num(e.chunks as f64)),
                                    ("bytes", Json::Num(e.bytes as f64)),
                                    ("seconds", Json::Num(e.seconds)),
                                    (
                                        "overlaps_kernel",
                                        e.overlaps_kernel
                                            .map_or(Json::Null, |k| Json::Num(k as f64)),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("serial_pass_seconds", Json::Num(tl.serial_pass)),
                ("overlapped_pass_seconds", Json::Num(tl.overlapped_pass)),
                ("saved_seconds", Json::Num(tl.saved())),
                (
                    "overlapped_total_1_iter",
                    Json::Num(p.overlapped_total_time(1)),
                ),
            ]),
        ));
    }
    if let Some(mg) = &p.multi_gpu {
        fields.push((
            "multi_gpu",
            Json::obj([
                ("device_count", Json::Num(mg.device_count() as f64)),
                ("contended", Json::Bool(mg.is_contended())),
                (
                    "devices",
                    Json::Arr(
                        mg.devices
                            .iter()
                            .map(|d| {
                                Json::obj([
                                    ("device", Json::Num(d.id as f64)),
                                    ("kernel_seconds", Json::Num(d.kernel_seconds)),
                                    ("transfer_seconds", Json::Num(d.transfer_seconds)),
                                    ("bandwidth_factor", Json::Num(d.bandwidth_factor)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("total_seconds_1_iter", Json::Num(mg.total_time(1))),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Serializes a measurement.
pub fn measurement_json(m: &AppMeasurement) -> Json {
    Json::obj([
        (
            "kernels",
            Json::Arr(
                m.kernel_times
                    .iter()
                    .map(|(name, t)| {
                        Json::obj([
                            ("name", Json::Str(name.clone())),
                            ("seconds", Json::Num(*t)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("kernel_seconds", Json::Num(m.kernel_time)),
        ("transfer_seconds", Json::Num(m.transfer_time)),
        ("cpu_seconds", Json::Num(m.cpu_time)),
        ("percent_transfer", Json::Num(m.percent_transfer())),
        ("speedup_1_iter", Json::Num(m.speedup(1))),
    ])
}

/// Serializes a speedup report (one Table II row).
pub fn speedup_json(r: &SpeedupReport) -> Json {
    Json::obj([
        ("app", Json::Str(r.app.clone())),
        ("dataset", Json::Str(r.dataset.clone())),
        ("iters", Json::Num(r.iters as f64)),
        ("measured", Json::Num(r.measured)),
        ("predicted_kernel_only", Json::Num(r.predicted_kernel_only)),
        (
            "predicted_transfer_only",
            Json::Num(r.predicted_transfer_only),
        ),
        ("predicted_combined", Json::Num(r.predicted_combined)),
        ("error_kernel_only_pct", Json::Num(r.error_kernel_only())),
        (
            "error_transfer_only_pct",
            Json::Num(r.error_transfer_only()),
        ),
        ("error_combined_pct", Json::Num(r.error_combined())),
        ("kernel_time_error_pct", Json::Num(r.kernel_time_error)),
        ("transfer_time_error_pct", Json::Num(r.transfer_time_error)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::measurement::measure;
    use crate::projector::Grophecy;
    use gpp_datausage::Hints;
    use gpp_workloads::hotspot::HotSpot;

    #[test]
    fn primitives_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).render(),
            concat!(r#""a\"b\\c\nd"#, r"\u0001", "\"")
        );
        assert_eq!(
            Json::Arr(vec![Json::Num(1.0), Json::Null]).render(),
            "[1,null]"
        );
        assert_eq!(
            Json::obj([("k", Json::Num(2.0)), ("s", Json::Str("x".into()))]).render(),
            r#"{"k":2,"s":"x"}"#
        );
    }

    #[test]
    fn full_report_is_valid_shape() {
        let machine = MachineConfig::anl_eureka_node(3);
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        let hs = HotSpot { n: 256 };
        let program = hs.program();
        let proj = gro.project(&program, &Hints::new());
        let meas = measure(&mut node, &program, &proj);
        let r = SpeedupReport::build("HotSpot", "256 x 256", &proj, &meas, 1);

        let json = Json::obj([
            ("projection", projection_json(&proj)),
            ("measurement", measurement_json(&meas)),
            ("speedup", speedup_json(&r)),
        ])
        .render();
        // Structural smoke checks: balanced braces, expected keys, no NaNs.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            r#""kernel_seconds""#,
            r#""transfer_seconds""#,
            r#""percent_transfer""#,
            r#""error_combined_pct""#,
            r#""direction""#,
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("NaN"));
        let _ = Hints::new();
    }

    #[test]
    fn overlap_keys_appear_only_when_present() {
        use gpp_skeleton::builder::{idx, ProgramBuilder};
        use gpp_skeleton::{ElemType, Flops, TransferKind};

        let build = |stream, chunks| {
            let mut p = ProgramBuilder::new("vadd");
            let n = 1 << 20;
            let a = p.array("a", ElemType::F32, &[n]);
            let b = p.array("b", ElemType::F32, &[n]);
            let mut k = p.kernel("add");
            let i = k.parallel_loop("i", n as u64);
            k.statement()
                .read(a, &[idx(i)])
                .write(b, &[idx(i)])
                .flops(Flops {
                    adds: 1,
                    ..Flops::default()
                })
                .finish();
            k.finish();
            p.transfer_with(a, TransferKind::HostToDevice, 0, stream, chunks);
            p.transfer_with(b, TransferKind::DeviceToHost, 1, stream, chunks);
            p.build().unwrap()
        };

        let mut machine = MachineConfig::anl_eureka_node(3);
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        // Synchronous schedule, single device: legacy shape exactly.
        let plain = projection_json(&gro.project(&build(0, 1), &Hints::new())).render();
        assert!(!plain.contains(r#""timeline""#), "{plain}");
        assert!(!plain.contains(r#""multi_gpu""#), "{plain}");

        // Streamed schedule on a dual-GPU machine: both sections appear.
        machine.devices.push(crate::machine::DeviceLink {
            id: 1,
            bus: gpp_pcie::BusParams::pcie_v2_x16(),
        });
        let mut node = machine.node();
        let gro = Grophecy::calibrate(&machine, &mut node);
        let rich = projection_json(&gro.project(&build(1, 4), &Hints::new())).render();
        for key in [
            r#""timeline""#,
            r#""overlapped_pass_seconds""#,
            r#""overlaps_kernel""#,
            r#""multi_gpu""#,
            r#""bandwidth_factor""#,
        ] {
            assert!(rich.contains(key), "missing {key} in {rich}");
        }
        assert_eq!(rich.matches('{').count(), rich.matches('}').count());
    }

    #[test]
    fn numbers_round_trip_textually() {
        // The emitter must not mangle magnitudes.
        let x = 0.004087;
        let s = Json::Num(x).render();
        let back: f64 = s.parse().unwrap();
        assert_eq!(back, x);
    }
}
