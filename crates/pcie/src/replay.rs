//! A trace-driven bus: calibrate GROPHECY++ against *recorded*
//! measurements from a real machine.
//!
//! The paper's synthetic benchmark runs on live hardware; when porting
//! this framework to a machine you cannot run code on (or when replaying
//! a published dataset), a table of `(bytes, direction, memtype, seconds)`
//! samples stands in. [`RecordedBus`] interpolates the table log-linearly
//! in size — the same scheme as [`crate::PiecewiseModel`] — so the
//! calibrator and validators work unmodified against it.
//!
//! The text format is one sample per line (`#` comments allowed):
//!
//! ```text
//! # bytes  direction  memtype  seconds
//! 1        h2d        pinned   9.9e-6
//! 536870912 h2d       pinned   0.215
//! ```

use crate::params::{Direction, MemType};
use crate::piecewise::PiecewiseModel;
use crate::Bus;
use std::collections::BTreeMap;

/// A bus that replays recorded transfer times. Deterministic: repeated
/// queries return identical values (a recorded trace has no fresh noise).
#[derive(Debug, Clone)]
pub struct RecordedBus {
    /// One interpolation model per (direction, memtype) curve.
    curves: BTreeMap<(u8, u8), PiecewiseModel>,
    name: String,
}

fn key(dir: Direction, mem: MemType) -> (u8, u8) {
    (
        match dir {
            Direction::HostToDevice => 0,
            Direction::DeviceToHost => 1,
        },
        match mem {
            MemType::Pinned => 0,
            MemType::Pageable => 1,
        },
    )
}

/// A trace-parsing failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Offending line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

impl RecordedBus {
    /// Builds a bus from explicit samples.
    ///
    /// Each `(direction, memtype)` curve needs at least two samples.
    /// Curves with no samples simply reject queries (panic) — record what
    /// you intend to use.
    pub fn from_samples(
        name: impl Into<String>,
        samples: &[(u64, Direction, MemType, f64)],
    ) -> Result<Self, TraceError> {
        let mut grouped: BTreeMap<(u8, u8), Vec<(u64, f64)>> = BTreeMap::new();
        for &(bytes, dir, mem, secs) in samples {
            grouped
                .entry(key(dir, mem))
                .or_default()
                .push((bytes, secs));
        }
        let mut curves = BTreeMap::new();
        for (k, mut pts) in grouped {
            pts.sort_by_key(|&(b, _)| b);
            pts.dedup_by_key(|&mut (b, _)| b);
            if pts.len() < 2 {
                return Err(TraceError {
                    line: 0,
                    message: "each recorded curve needs at least two distinct sizes".into(),
                });
            }
            curves.insert(k, PiecewiseModel::from_knots(pts));
        }
        Ok(RecordedBus {
            curves,
            name: name.into(),
        })
    }

    /// True if the trace covers this (direction, memtype) curve.
    pub fn covers(&self, dir: Direction, mem: MemType) -> bool {
        self.curves.contains_key(&key(dir, mem))
    }
}

/// Parses one sample from its four fields, `bytes h2d|d2h
/// pinned|pageable seconds`: a line of the text format, or the words after
/// a `.gmach` `sample` directive.
pub fn parse_sample(words: &[&str]) -> Result<(u64, Direction, MemType, f64), String> {
    let [bytes, dir, mem, secs] = words else {
        return Err("usage: sample <bytes> <h2d|d2h> <pinned|pageable> <seconds>".into());
    };
    let bytes: u64 = bytes
        .parse()
        .map_err(|_| format!("bad byte count `{bytes}`"))?;
    let dir = match *dir {
        "h2d" => Direction::HostToDevice,
        "d2h" => Direction::DeviceToHost,
        other => return Err(format!("direction must be h2d|d2h, got `{other}`")),
    };
    let mem = match *mem {
        "pinned" => MemType::Pinned,
        "pageable" => MemType::Pageable,
        other => return Err(format!("memtype must be pinned|pageable, got `{other}`")),
    };
    let secs: f64 = secs.parse().map_err(|_| format!("bad seconds `{secs}`"))?;
    if !(secs.is_finite() && secs > 0.0) {
        return Err("seconds must be positive".into());
    }
    Ok((bytes, dir, mem, secs))
}

/// Parses the one-sample-per-line text format into samples for
/// [`RecordedBus::from_samples`].
pub fn parse_samples(input: &str) -> Result<Vec<(u64, Direction, MemType, f64)>, TraceError> {
    let mut samples = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        samples.push(parse_sample(&words).map_err(|message| TraceError {
            line: lineno + 1,
            message,
        })?);
    }
    Ok(samples)
}

impl Bus for RecordedBus {
    fn transfer(&mut self, bytes: u64, dir: Direction, mem: MemType) -> f64 {
        let curve = self
            .curves
            .get(&key(dir, mem))
            .unwrap_or_else(|| panic!("recorded trace has no {dir}/{mem} samples"));
        curve.predict(bytes)
    }

    fn describe(&self) -> String {
        format!(
            "recorded trace `{}` ({} curves)",
            self.name,
            self.curves.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Calibrator;

    const TRACE: &str = "\
# A hand-recorded PCIe v1 pinned trace.
1          h2d pinned 9.9e-6
1024       h2d pinned 1.03e-5
1048576    h2d pinned 4.3e-4
536870912  h2d pinned 0.215
1          d2h pinned 1.13e-5
1048576    d2h pinned 4.4e-4
536870912  d2h pinned 0.216
";

    fn trace_bus(name: &str) -> RecordedBus {
        RecordedBus::from_samples(name, &parse_samples(TRACE).unwrap()).unwrap()
    }

    #[test]
    fn parses_and_replays() {
        let mut bus = trace_bus("eureka");
        assert!(bus.covers(Direction::HostToDevice, MemType::Pinned));
        assert!(!bus.covers(Direction::HostToDevice, MemType::Pageable));
        let t = bus.transfer(1024, Direction::HostToDevice, MemType::Pinned);
        assert!((t - 1.03e-5).abs() < 1e-12); // exact at a knot
                                              // Deterministic replay.
        assert_eq!(
            t,
            bus.transfer(1024, Direction::HostToDevice, MemType::Pinned)
        );
        assert!(bus.describe().contains("eureka"));
    }

    #[test]
    fn calibrator_works_against_a_trace() {
        let mut bus = trace_bus("eureka");
        let model = Calibrator::default().calibrate(&mut bus);
        // α comes straight from the recorded 1-byte sample.
        assert!((model.h2d.alpha - 9.9e-6).abs() < 1e-9);
        // β from the 512 MB sample: 0.215 s / 512 MB ≈ 2.50 GB/s.
        assert!((model.h2d.bandwidth() / 1e9 - 2.497).abs() < 0.02);
    }

    #[test]
    fn interpolates_between_knots() {
        let mut bus = trace_bus("t");
        let t = bus.transfer(2048, Direction::HostToDevice, MemType::Pinned);
        assert!(t > 1.03e-5 && t < 4.3e-4);
    }

    #[test]
    fn parse_errors_carry_lines() {
        let e = parse_samples("# ok\n1 sideways pinned 1e-6\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("h2d|d2h"));
        let e = parse_samples("1 h2d pinned -3.0\n").unwrap_err();
        assert!(e.message.contains("positive"));
        let one = parse_samples("1 h2d pinned 1e-6\n").unwrap();
        let e = RecordedBus::from_samples("x", &one).unwrap_err();
        assert!(e.message.contains("two distinct sizes"));
    }

    #[test]
    #[should_panic(expected = "no CPU-to-GPU/pageable samples")]
    fn uncovered_curve_panics_loudly() {
        let mut bus = trace_bus("t");
        let _ = bus.transfer(1024, Direction::HostToDevice, MemType::Pageable);
    }
}
