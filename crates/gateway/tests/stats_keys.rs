//! The `stats` schema of `gpp-serve` and `gpp-gateway`: the ordered key
//! paths of each reply must equal `fixtures/goldens/stats_keys.txt`, and
//! every serve total must equal the sum of its `machines` rows.
//!
//! Regenerate (only when a key is deliberately added or moved) with:
//!
//! ```text
//! GPP_BLESS=1 cargo test -p gpp-gateway --test stats_keys
//! ```

use gpp_gateway::{GatewayConfig, GatewayState};
use gpp_serve::{ServeConfig, ServiceState};

const VEC_ADD: &str = include_str!("../../../skeletons/vector_add.gsk");
const HOTSPOT: &str = include_str!("../../../skeletons/hotspot_1024.gsk");

/// A parsed JSON value; objects keep their key order.
#[derive(Debug)]
enum Val {
    Num(f64),
    Other,
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
            Val::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parses the compact JSON the services render (no whitespace).
fn parse(text: &str) -> Val {
    fn value(b: &[u8], at: &mut usize) -> Val {
        match b[*at] {
            b'{' => {
                let mut fields = Vec::new();
                *at += 1;
                while b[*at] != b'}' {
                    let key = string(b, at);
                    assert_eq!(b[*at], b':');
                    *at += 1;
                    fields.push((key, value(b, at)));
                    if b[*at] == b',' {
                        *at += 1;
                    }
                }
                *at += 1;
                Val::Obj(fields)
            }
            b'[' => {
                let mut items = Vec::new();
                *at += 1;
                while b[*at] != b']' {
                    items.push(value(b, at));
                    if b[*at] == b',' {
                        *at += 1;
                    }
                }
                *at += 1;
                Val::Arr(items)
            }
            b'"' => {
                string(b, at);
                Val::Other
            }
            _ => {
                let start = *at;
                while !matches!(b[*at], b',' | b'}' | b']') {
                    *at += 1;
                }
                let word = std::str::from_utf8(&b[start..*at]).unwrap();
                word.parse().map_or(Val::Other, Val::Num)
            }
        }
    }
    fn string(b: &[u8], at: &mut usize) -> String {
        assert_eq!(b[*at], b'"');
        let start = *at + 1;
        *at = start;
        while b[*at] != b'"' {
            *at += if b[*at] == b'\\' { 2 } else { 1 };
        }
        *at += 1;
        String::from_utf8(b[start..*at - 1].to_vec()).unwrap()
    }
    let mut at = 0;
    let v = value(text.as_bytes(), &mut at);
    assert_eq!(at, text.len(), "trailing bytes after the JSON value");
    v
}

/// One line per object key, in reply order: `<who> <path>`.
fn key_paths(who: &str, v: &Val, path: &str, out: &mut String) {
    match v {
        Val::Obj(fields) => {
            for (k, v) in fields {
                let path = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                out.push_str(&format!("{who} {path}\n"));
                key_paths(who, v, &path, out);
            }
        }
        Val::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                key_paths(who, v, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

/// Serve's `stats` after a fixed script on two machines: misses, hits and
/// an error on `eureka`, a miss on `v2`.
fn serve_stats() -> Val {
    let s = ServiceState::new(ServeConfig::default());
    for options in [
        "seed=1",
        "seed=1",
        "seed=1 machine=v2",
        "seed=1 temporary=ghost",
    ] {
        s.handle(&format!("gpp/1 project {options}\n{VEC_ADD}"), 0);
    }
    s.handle(&format!("gpp/1 project seed=1\n{HOTSPOT}"), 0);
    parse(&s.handle("gpp/1 stats", 0))
}

/// The gateway's `stats` over two shards (never contacted).
fn gateway_stats() -> Val {
    let state = GatewayState::new(
        GatewayConfig::default(),
        vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
    );
    parse(&state.handle("gpp/1 stats"))
}

#[test]
fn stats_key_paths_match_the_golden() {
    let mut current = String::new();
    key_paths("serve", &serve_stats(), "", &mut current);
    key_paths("gateway", &gateway_stats(), "", &mut current);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/goldens/stats_keys.txt"
    );
    if std::env::var_os("GPP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(path, &current).unwrap();
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("missing golden — run with GPP_BLESS=1 to generate it");
    for (i, (got, want)) in current.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "stats key paths drifted (line {})", i + 1);
    }
    assert_eq!(
        current.lines().count(),
        golden.lines().count(),
        "stats key paths added or removed at the end"
    );
}

#[test]
fn each_serve_total_is_the_sum_of_its_machine_rows() {
    let stats = serve_stats();
    let stats = stats.get("stats").unwrap();
    let Some(Val::Arr(rows)) = stats.get("machines") else {
        panic!("no machines array: {stats:?}");
    };
    assert_eq!(rows.len(), 2, "{rows:?}");
    let Val::Obj(fields) = &rows[0] else {
        panic!("a machine row is not an object: {rows:?}");
    };
    let mut checked = 0;
    for (key, _) in fields {
        if key == "machine" || key == "requests" {
            continue;
        }
        let total = stats
            .num(key)
            .or_else(|| stats.get("resilience").and_then(|r| r.num(key)))
            .unwrap_or_else(|| panic!("no total for `{key}`"));
        let sum: f64 = rows.iter().map(|r| r.num(key).unwrap()).sum();
        assert_eq!(total, sum, "`{key}`: total {total}, rows sum to {sum}");
        checked += 1;
    }
    assert_eq!(checked, 5);
    assert_eq!(stats.num("projection_hits"), Some(1.0));
    assert_eq!(stats.num("projection_misses"), Some(3.0));
}
