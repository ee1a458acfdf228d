//! Byte identity of the row writer: every `write_body` branch (serial and
//! parallel, with and without a limit, and a registry baseline) writes
//! exactly the rows the decoding API returns, rendered cell by cell with
//! `Value`'s `Display` and joined by tabs — over string columns, mixed
//! integer/string rows, and statements whose literal positions are hidden.

use minesweeper_join::engine::{DispatchKind, Engine, ExecOptions, PreparedStatement};
use minesweeper_join::render::write_body;
use minesweeper_join::storage::{ColumnType, Value};

/// `Trip(city, code, km)`, `Hop(code, next)` and `Pair(city, city)`:
/// strings, integers, and joins through both column types.
fn engine() -> Engine {
    let mut e = Engine::new();
    let cities = ["jfk", "lhr", "nrt", "sfo", "cdg", "fra", "sin", "syd"];
    let trips = (0..40i64).map(|i| {
        vec![
            Value::from(cities[(i % 8) as usize]),
            Value::Int(i % 13),
            Value::Int(i * 7919 % 100_003),
        ]
    });
    e.add_relation(
        "Trip",
        &[ColumnType::Str, ColumnType::Int, ColumnType::Int],
        trips,
    )
    .unwrap();
    let hops = (0..30i64).map(|i| vec![Value::Int(i % 13), Value::Int((i * 5 + 3) % 13)]);
    e.add_relation("Hop", &[ColumnType::Int, ColumnType::Int], hops)
        .unwrap();
    let names = (0..24i64).map(|i| {
        vec![
            Value::from(cities[(i % 8) as usize]),
            Value::from(cities[(i * 3 % 8) as usize]),
        ]
    });
    e.add_relation("Pair", &[ColumnType::Str, ColumnType::Str], names)
        .unwrap();
    e
}

const QUERIES: &[&str] = &[
    // All strings, a two-hop join.
    "Pair(a, b), Pair(b, c)",
    // Mixed Int/Str columns joined through an integer.
    "Trip(city, code, km), Hop(code, next)",
    // Hidden literal positions: a string and an integer constant.
    "Trip(\"lhr\", code, km), Hop(code, next)",
    "Trip(city, 4, km), Pair(city, other)",
    // The join attribute written last: a non-identity GAO translates
    // every tuple back to the caller's numbering.
    "Hop(b, c), Trip(city, a, km), Hop(a, b)",
];

/// The data lines of `stmt`'s body under `opts` (header and markers
/// start with `#`; no stored value does).
fn body_rows(stmt: &PreparedStatement, opts: &ExecOptions) -> (Vec<String>, usize) {
    let mut buf = Vec::new();
    let outcome = write_body(&mut buf, stmt, opts).unwrap();
    assert!(!outcome.disconnected);
    let text = String::from_utf8(buf).unwrap();
    assert!(text.ends_with('\n'), "{text:?}");
    let rows: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    (rows, outcome.rows)
}

/// Renders decoded rows the way a library caller would print them.
fn rendered(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<String> {
    rows.into_iter()
        .map(|row| {
            row.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect()
}

#[test]
fn every_write_body_branch_matches_decoded_rows() {
    let e = engine();
    let mut reindexed = false;
    for q in QUERIES {
        let stmt = e.prepare(q).unwrap();
        let cases = [
            ExecOptions::default(),
            ExecOptions::default().with_limit(3),
            ExecOptions::default().with_threads(2),
            ExecOptions::default().with_threads(2).with_limit(3),
            ExecOptions::default().with_algo("leapfrog"),
            ExecOptions::default().with_algo("naive").with_limit(3),
        ];
        let mut kinds = Vec::new();
        reindexed |= stmt.plan().is_reindexed();
        for opts in &cases {
            let kind = stmt.dispatch_kind(opts).unwrap();
            let streamed = opts.limit.is_some() && !matches!(kind, DispatchKind::Baseline(_));
            let expected = if streamed {
                // The limit branches stream: the first `k` rows in probe
                // order, exactly as the decoding stream yields them.
                rendered(stmt.stream(opts).unwrap())
            } else {
                rendered(stmt.execute(opts).unwrap().rows)
            };
            let (got, count) = body_rows(&stmt, opts);
            assert!(!expected.is_empty(), "{q}: the workload must produce rows");
            assert_eq!(got, expected, "{q} under {opts:?}");
            assert_eq!(count, got.len(), "{q} under {opts:?}: row count");
            kinds.push((kind, opts.limit.is_some()));
        }
        // All four dispatch branches of `write_body` were exercised.
        assert!(kinds.contains(&(DispatchKind::Serial, false)));
        assert!(kinds.contains(&(DispatchKind::Serial, true)));
        assert!(kinds.contains(&(DispatchKind::Parallel(2), true)));
        assert!(kinds
            .iter()
            .any(|(k, _)| matches!(k, DispatchKind::Baseline(_))));
    }
    assert!(
        reindexed,
        "some plan must translate from a non-identity GAO"
    );
}

#[test]
fn hidden_literals_never_reach_the_body() {
    let e = engine();
    let stmt = e
        .prepare("Trip(\"lhr\", code, km), Hop(code, next)")
        .unwrap();
    assert_eq!(stmt.columns(), vec!["code", "km", "next"]);
    let (rows, _) = body_rows(&stmt, &ExecOptions::default());
    assert!(!rows.is_empty());
    for row in &rows {
        assert_eq!(row.split('\t').count(), 3, "{row:?}");
        assert!(!row.contains("lhr"), "{row:?}");
    }
}
