//! What `text::parse_with_spans` makes of every committed `.gsk` file and
//! of single-line mutants of each, pinned to
//! `fixtures/goldens/parse_mutants.txt`.
//!
//! The sources are the four `skeletons/*.gsk` and the fifteen
//! `fixtures/bad/*.gsk`. For every line of a source, each mutant changes
//! that line alone: it is deleted, loses its last word, gains a stray
//! word, has each run of digits replaced by `x`, has its words joined by
//! U+00A0, U+000B or a tab, ends in CRLF, or gains a trailing
//! `# comment`. Each golden line is a label, a tab, and either
//! `ok <content hash> <span digest>` or `line:col: message`, so a parser
//! change that moves an accepted input, an error, or a span shows up as
//! a changed line.
//!
//! Regenerate (only for a deliberate change to what the parser accepts
//! or reports) with:
//!
//! ```text
//! GPP_BLESS=1 cargo test -p gpp-skeleton --test parse_mutants
//! ```

use gpp_skeleton::text::{parse_with_spans, SourceMap, Span};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../fixtures/goldens/parse_mutants.txt"
);

/// The committed skeletons and bad fixtures, in a fixed order.
const SOURCES: [(&str, &str); 19] = [
    (
        "hotspot_1024",
        include_str!("../../../skeletons/hotspot_1024.gsk"),
    ),
    (
        "pipelined_vadd",
        include_str!("../../../skeletons/pipelined_vadd.gsk"),
    ),
    (
        "spmm_stassuij",
        include_str!("../../../skeletons/spmm_stassuij.gsk"),
    ),
    (
        "vector_add",
        include_str!("../../../skeletons/vector_add.gsk"),
    ),
    (
        "gpp000_structural",
        include_str!("../../../fixtures/bad/gpp000_structural.gsk"),
    ),
    (
        "gpp001_oob",
        include_str!("../../../fixtures/bad/gpp001_oob.gsk"),
    ),
    (
        "gpp002_uninit_read",
        include_str!("../../../fixtures/bad/gpp002_uninit_read.gsk"),
    ),
    (
        "gpp003_dead_write",
        include_str!("../../../fixtures/bad/gpp003_dead_write.gsk"),
    ),
    (
        "gpp004_unused_array",
        include_str!("../../../fixtures/bad/gpp004_unused_array.gsk"),
    ),
    (
        "gpp005_race",
        include_str!("../../../fixtures/bad/gpp005_race.gsk"),
    ),
    (
        "gpp006_redundant_h2d",
        include_str!("../../../fixtures/bad/gpp006_redundant_h2d.gsk"),
    ),
    (
        "gpp007_missing_temporary",
        include_str!("../../../fixtures/bad/gpp007_missing_temporary.gsk"),
    ),
    (
        "gpp008_uncoalesced",
        include_str!("../../../fixtures/bad/gpp008_uncoalesced.gsk"),
    ),
    (
        "gpp010_program_reupload",
        include_str!("../../../fixtures/bad/gpp010_program_reupload.gsk"),
    ),
    (
        "gpp011_program_dead_d2h",
        include_str!("../../../fixtures/bad/gpp011_program_dead_d2h.gsk"),
    ),
    (
        "gpp012_program_roundtrip",
        include_str!("../../../fixtures/bad/gpp012_program_roundtrip.gsk"),
    ),
    (
        "gpp013_program_hoist",
        include_str!("../../../fixtures/bad/gpp013_program_hoist.gsk"),
    ),
    (
        "gpp013_program_hoist_streams",
        include_str!("../../../fixtures/bad/gpp013_program_hoist_streams.gsk"),
    ),
    (
        "gpp014_program_serialized",
        include_str!("../../../fixtures/bad/gpp014_program_serialized.gsk"),
    ),
];

/// The mutants of one line, by name: `None` deletes the line.
fn mutants(line: &str) -> Vec<(&'static str, Option<String>)> {
    let indent = &line[..line.len() - line.trim_start().len()];
    let words: Vec<&str> = line.split_whitespace().collect();
    let last_word_start = line.trim_end().len() - words.last().map_or(0, |w| w.len());
    let mut numbers_to_x = String::with_capacity(line.len());
    let mut in_number = false;
    for c in line.chars() {
        if c.is_ascii_digit() {
            if !in_number {
                numbers_to_x.push('x');
            }
            in_number = true;
        } else {
            numbers_to_x.push(c);
            in_number = false;
        }
    }
    let joined = |sep: &str| format!("{indent}{}", words.join(sep));
    vec![
        ("delete", None),
        ("drop-last-word", Some(line[..last_word_start].to_string())),
        ("stray-word", Some(format!("{line} stray"))),
        ("numbers-to-x", Some(numbers_to_x)),
        ("join-nbsp", Some(joined("\u{a0}"))),
        ("join-vtab", Some(joined("\u{b}"))),
        ("join-tab", Some(joined("\t"))),
        ("crlf", Some(format!("{line}\r"))),
        ("comment", Some(format!("{line} # comment"))),
    ]
}

/// FNV-1a over every span of the map, with each list's length first.
fn span_digest(map: &SourceMap) -> u64 {
    let mut words = Vec::new();
    let span = |words: &mut Vec<usize>, s: &Span| words.extend([s.line, s.col, s.len]);
    span(&mut words, &map.program);
    words.push(map.arrays.len());
    for s in &map.arrays {
        span(&mut words, s);
    }
    words.push(map.kernels.len());
    for k in &map.kernels {
        span(&mut words, &k.span);
        words.push(k.loops.len());
        for s in &k.loops {
            span(&mut words, s);
        }
        words.push(k.stmts.len());
        for st in &k.stmts {
            span(&mut words, &st.span);
            words.push(st.refs.len());
            for s in &st.refs {
                span(&mut words, s);
            }
        }
    }
    words.push(map.transfers.len());
    for s in &map.transfers {
        span(&mut words, s);
    }
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &w| {
        (h ^ w as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// What the parser makes of `src`, as one golden field.
fn outcome(src: &str) -> String {
    match parse_with_spans(src) {
        Ok((program, map)) => format!(
            "ok {:016x} {:016x}",
            program.content_hash(),
            span_digest(&map)
        ),
        Err(e) => format!("{}:{}: {}", e.line, e.col, e.message),
    }
}

fn render() -> String {
    let mut out = String::new();
    for (name, src) in SOURCES {
        out.push_str(&format!("{name} as-is\t{}\n", outcome(src)));
        let lines: Vec<&str> = src.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            for (mutant, replacement) in mutants(line) {
                let mut doc = String::with_capacity(src.len() + 32);
                for (j, other) in lines.iter().enumerate() {
                    let text = if i == j {
                        match &replacement {
                            Some(text) => text.as_str(),
                            None => continue,
                        }
                    } else {
                        other
                    };
                    doc.push_str(text);
                    doc.push('\n');
                }
                let result = outcome(&doc);
                assert!(
                    !result.contains('\n'),
                    "{name}:{} {mutant}: {result}",
                    i + 1
                );
                out.push_str(&format!("{name}:{} {mutant}\t{result}\n", i + 1));
            }
        }
    }
    out
}

#[test]
fn parse_outcomes_match_the_golden() {
    let actual = render();
    if std::env::var_os("GPP_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(GOLDEN, &actual).expect("write the golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    let (golden, actual): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), actual.lines().collect());
    assert_eq!(golden.len(), actual.len(), "line count");
    for (want, got) in golden.iter().zip(&actual) {
        assert_eq!(got, want, "a parse outcome changed");
    }
}
