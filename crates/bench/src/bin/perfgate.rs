//! perfgate: the perf-regression gate over committed bench JSONs.
//!
//! ```text
//! perfgate <committed.json> <fresh.json> [--max-regress 0.25]
//! ```
//!
//! Compares a freshly measured bench run against the committed baseline
//! and exits non-zero when any arm/tier regressed by more than the
//! threshold (default 25%). Both harnesses report **min-of-N** numbers,
//! so a single noisy round cannot fake a regression — only a consistent
//! slowdown across every round of the fresh run trips the gate.
//!
//! Two schemas are understood, keyed by the top-level array name:
//!
//! * `arms`  (`BENCH_project.json`) — compares `min_s`, lower is
//!   better: regression = fresh/committed − 1;
//! * `tiers` (`BENCH_serve.json`) — compares `req_per_s`, higher is
//!   better: regression = committed/fresh − 1.
//!
//! An arm/tier present in the committed file but missing from the fresh
//! run is fatal: silently dropping a measurement is how a regression
//! hides. New arms in the fresh file are reported but not gated (they
//! have no baseline yet). So is a fresh run whose top-level `threads`
//! differs from the baseline's, or either file lacking it: numbers taken
//! at different thread counts do not compare.
//!
//! The JSON reader below is deliberately minimal — just enough for the
//! bench harnesses' own renderer output — so the gate stays dependency-
//! free and usable from `ci.sh` without touching the network.

use std::process::ExitCode;

/// The subset of JSON the bench harnesses emit.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    fn get(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Val::Str(self.string()?)),
            b't' => self.literal("true", Val::Bool(true)),
            b'f' => self.literal("false", Val::Bool(false)),
            b'n' => self.literal("null", Val::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, val: Val) -> Result<Val, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Val, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Val::Num)
            .ok_or_else(|| self.error("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("dangling escape"))?;
                    out.push(match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => other as char,
                    });
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Val, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Val::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Val::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

fn parse(text: &str) -> Result<Val, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

/// One comparable measurement: which field to read and which direction
/// is better, decided by the file's schema.
struct Schema {
    rows_key: &'static str,
    metric: &'static str,
    higher_is_better: bool,
}

fn schema_of(doc: &Val) -> Result<Schema, String> {
    if doc.get("arms").is_some() {
        Ok(Schema {
            rows_key: "arms",
            metric: "min_s",
            higher_is_better: false,
        })
    } else if doc.get("tiers").is_some() {
        Ok(Schema {
            rows_key: "tiers",
            metric: "req_per_s",
            higher_is_better: true,
        })
    } else {
        Err("unrecognized bench schema: no `arms` or `tiers` array".to_string())
    }
}

fn rows<'a>(doc: &'a Val, key: &str) -> Result<&'a [Val], String> {
    match doc.get(key) {
        Some(Val::Arr(items)) => Ok(items),
        _ => Err(format!("`{key}` is not an array")),
    }
}

fn gate(committed: &Val, fresh: &Val, max_regress: f64) -> Result<(), String> {
    let schema = schema_of(committed)?;
    let threads = |doc: &Val, which: &str| {
        doc.num("threads")
            .ok_or_else(|| format!("the {which} run does not record its `threads`"))
    };
    let (base_threads, fresh_threads) =
        (threads(committed, "committed")?, threads(fresh, "fresh")?);
    if base_threads != fresh_threads {
        return Err(format!(
            "the fresh run used {fresh_threads} thread(s), the baseline {base_threads}; \
             runs at different thread counts do not compare"
        ));
    }
    let baseline = rows(committed, schema.rows_key)?;
    let measured = rows(fresh, schema.rows_key)?;
    let mut failures = Vec::new();

    for row in baseline {
        let name = row.str_field("name").ok_or("baseline row without a name")?;
        let base = row
            .num(schema.metric)
            .ok_or_else(|| format!("baseline `{name}` lacks {}", schema.metric))?;
        let fresh_row = measured
            .iter()
            .find(|r| r.str_field("name") == Some(name))
            .ok_or_else(|| format!("`{name}` missing from the fresh run — gate cannot pass"))?;
        let new = fresh_row
            .num(schema.metric)
            .ok_or_else(|| format!("fresh `{name}` lacks {}", schema.metric))?;
        let regress = if schema.higher_is_better {
            base / new - 1.0
        } else {
            new / base - 1.0
        };
        let verdict = if regress > max_regress { "FAIL" } else { "ok" };
        println!(
            "{verdict:<4} {name:<22} {metric}: committed {base:<12.6} fresh {new:<12.6} \
             regression {pct:+.1}%",
            metric = schema.metric,
            pct = regress * 100.0,
        );
        if regress > max_regress {
            failures.push(format!(
                "{name}: {:.1}% > {:.0}% allowed",
                regress * 100.0,
                max_regress * 100.0
            ));
        }
    }
    for row in measured {
        if let Some(name) = row.str_field("name") {
            if !baseline.iter().any(|r| r.str_field("name") == Some(name)) {
                println!("new  {name:<22} (no baseline; not gated)");
            }
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("perf regression: {}", failures.join("; ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut max_regress = 0.25;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress" => {
                i += 1;
                max_regress = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("--max-regress needs a fraction (e.g. 0.25)");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => paths.push(other.to_string()),
        }
        i += 1;
    }
    if paths.len() != 2 {
        eprintln!("usage: perfgate <committed.json> <fresh.json> [--max-regress 0.25]");
        return ExitCode::FAILURE;
    }

    let read = |path: &str| -> Result<Val, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let result = read(&paths[0]).and_then(|committed| {
        let fresh = read(&paths[1])?;
        println!("perfgate: {} vs {}", paths[0], paths[1]);
        gate(&committed, &fresh, max_regress)
    });
    match result {
        Ok(()) => {
            println!("perfgate OK (threshold {:.0}%)", max_regress * 100.0);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfgate: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(threads: &str, min_s: f64) -> Val {
        parse(&format!(
            "{{{threads}\"arms\":[{{\"name\":\"soa\",\"min_s\":{min_s}}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn a_different_thread_count_fails_the_gate() {
        let base = run("\"threads\":1,", 1.0);
        assert!(gate(&base, &run("\"threads\":1,", 1.1), 0.25).is_ok());
        let err = gate(&base, &run("\"threads\":2,", 1.0), 0.25).unwrap_err();
        assert!(err.contains("thread"), "{err}");
        assert!(gate(&base, &run("", 1.0), 0.25).is_err());
        assert!(gate(&run("", 1.0), &run("", 1.0), 0.25).is_err());
    }

    #[test]
    fn a_regression_past_the_bound_fails_the_gate() {
        let base = run("\"threads\":1,", 1.0);
        assert!(gate(&base, &run("\"threads\":1,", 1.3), 0.25).is_err());
    }
}
