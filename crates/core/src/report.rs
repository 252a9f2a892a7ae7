//! Machine-readable reports: a minimal JSON emitter for projections,
//! measurements, and speedup analyses.
//!
//! Downstream tooling (plotting scripts, CI dashboards) wants the
//! evaluation as data, not text tables. The sanctioned dependency set has
//! no JSON serializer, so this module carries a small, correct one: string
//! escaping per RFC 8259, `null` for non-finite floats, and a tiny
//! builder API used by the report constructors below.
//!
//! Numbers are written by [`crate::numfmt`], not by `format!`: an integer
//! below 1e15 as its decimal digits, any other finite value as the
//! shortest digits that read back as it (Ryū), laid out as `Display`
//! lays them out. The bytes are the ones `format!` would give, so every
//! reply keeps its bytes; `numfmt`'s tests keep `format!`, and
//! [`write_num`] spelled out through it, as the oracle, and compare on
//! edge cases and seeded bit patterns (10^6 in the tier-1 run, 5·10^7 in
//! `ci.sh`'s release step).

use crate::measurement::AppMeasurement;
use crate::numfmt::{write_f64, write_i64, write_u64};
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
    /// An unsigned integer, written exactly (a `u64` above 2^53 has no
    /// exact `f64`).
    U64(u64),
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

    /// [`Json::render`], except that pre-rendered JSON is handed back
    /// without a copy.
    pub fn into_string(self) -> String {
        match self {
            Json::Raw(json) => json,
            other => other.render(),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(*x, out),
            Json::U64(n) => write_u64(*n, out),
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

/// Writes `x` as [`Json::Num`] renders it: integers below 1e15 without a
/// fraction, other finite numbers in Rust's shortest round-trip form
/// (the text `format!("{x}")` gives), non-finite ones as `null`. Formats
/// in place through [`crate::numfmt`], with no temporary `String`.
pub fn write_num(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.abs() < 1e15 && (x as i64) as f64 == x {
        // Below 1e15 the cast is exact for an integer, and only for one.
        write_i64(x as i64, out);
    } else {
        write_f64(x, out);
    }
}

/// Whether `b` is (the only byte of) a character a JSON string escapes.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Writes `s` as a JSON string literal, escaped per RFC 8259. A string
/// with nothing to escape is copied in one piece.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    // Every character that needs escaping is ASCII, so a byte scan finds
    // them all.
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
        out.push('"');
        return;
    }
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
///
/// The object is written straight into one buffer, with the number and
/// string rules of [`Json`], and returned as [`Json::Raw`]: a projection
/// is the largest object a reply carries, and building it as a tree
/// would allocate for every field.
pub fn projection_json(p: &AppProjection) -> Json {
    let mut out = String::with_capacity(
        320 + 192 * (p.kernels.len() + p.transfer_times.len())
            + p.timeline.as_ref().map_or(0, |tl| 224 * tl.events.len())
            + p.multi_gpu.as_ref().map_or(0, |mg| 128 * mg.devices.len()),
    );
    let mut f = Fields::open(&mut out);
    f.array("kernels", &p.kernels, |k, f| {
        f.str("name", &k.name);
        f.num("seconds", k.time);
        f.display("config", k.config);
        f.display("bound", k.bound);
        f.num("dram_bytes", k.dram_bytes);
    });
    f.num("kernel_seconds", p.kernel_time);
    f.array(
        "transfers",
        p.plan.all().zip(&p.transfer_times),
        |(t, secs), f| {
            f.str("array", &t.name);
            f.num("bytes", t.bytes as f64);
            f.display("direction", t.dir);
            f.bool("exact", t.exact);
            f.num("seconds", *secs);
        },
    );
    f.num("transfer_seconds", p.transfer_time);
    f.num("total_seconds_1_iter", p.total_time(1));
    if let Some(tl) = &p.timeline {
        f.object("timeline", |f| {
            f.array("events", &tl.events, |e, f| {
                f.str("array", &e.array);
                f.display("direction", e.dir);
                f.num("pos", e.pos as f64);
                f.num("stream", e.stream as f64);
                f.num("chunks", e.chunks as f64);
                f.num("bytes", e.bytes as f64);
                f.num("seconds", e.seconds);
                match e.overlaps_kernel {
                    Some(k) => f.num("overlaps_kernel", k as f64),
                    None => f.key("overlaps_kernel").push_str("null"),
                }
            });
            f.num("serial_pass_seconds", tl.serial_pass);
            f.num("overlapped_pass_seconds", tl.overlapped_pass);
            f.num("saved_seconds", tl.saved());
            f.num("overlapped_total_1_iter", p.overlapped_total_time(1));
        });
    }
    if let Some(mg) = &p.multi_gpu {
        f.object("multi_gpu", |f| {
            f.num("device_count", mg.device_count() as f64);
            f.bool("contended", mg.is_contended());
            f.array("devices", &mg.devices, |d, f| {
                f.num("device", d.id as f64);
                f.num("kernel_seconds", d.kernel_seconds);
                f.num("transfer_seconds", d.transfer_seconds);
                f.num("bandwidth_factor", d.bandwidth_factor);
            });
            f.num("total_seconds_1_iter", mg.total_time(1));
        });
    }
    f.close();
    Json::Raw(out)
}

/// Writes one JSON object's fields, in order, straight into a buffer.
struct Fields<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Fields<'a> {
    fn open(out: &'a mut String) -> Fields<'a> {
        out.push('{');
        Fields { out, first: true }
    }

    fn close(self) {
        self.out.push('}');
    }

    /// Writes the next key and returns the buffer for its value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_str(key, self.out);
        self.out.push(':');
        self.out
    }

    fn num(&mut self, key: &str, x: f64) {
        write_num(x, self.key(key));
    }

    fn bool(&mut self, key: &str, b: bool) {
        self.key(key).push_str(if b { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, s: &str) {
        write_str(s, self.key(key));
    }

    /// A string field holding `value`'s `Display` text, formatted in place;
    /// text that needs escaping (never, for the model's own types) is
    /// written again through [`write_str`].
    fn display(&mut self, key: &str, value: impl std::fmt::Display) {
        let out = self.key(key);
        out.push('"');
        let start = out.len();
        let _ = write!(out, "{value}");
        if out[start..].bytes().any(needs_escape) {
            let text = out.split_off(start);
            out.pop();
            write_str(&text, out);
        } else {
            out.push('"');
        }
    }

    fn object(&mut self, key: &str, fields: impl FnOnce(&mut Fields)) {
        let mut f = Fields::open(self.key(key));
        fields(&mut f);
        f.close();
    }

    /// An array of objects, one per item.
    fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fields: impl FnMut(T, &mut Fields),
    ) {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut f = Fields::open(out);
            fields(item, &mut f);
            f.close();
        }
        out.push(']');
    }
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
        assert_eq!(Json::U64(3).render(), "3");
        assert_eq!(Json::U64(u64::MAX).render(), "18446744073709551615");
        // Below 2^53 both number forms write the same digits.
        for n in [0u64, 7, 999_999_999_999_999, 1 << 52, (1 << 53) - 1] {
            assert_eq!(Json::U64(n).render(), Json::Num(n as f64).render(), "{n}");
        }
        // Nothing to escape: copied as is, multi-byte characters included.
        assert_eq!(Json::Str("µs → ok".into()).render(), "\"µs → ok\"");
        assert_eq!(Json::Str("tab\there".into()).render(), r#""tab\there""#);
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
