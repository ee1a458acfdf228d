//! Exact probe-loop work on a fixed instance.
//!
//! The CDS (`crates/cds`) may be re-engineered for speed — scratch
//! buffers, flat node storage — but never in what it does: every probe
//! point, `FindGap` call, chain-walk `Next` call, constraint and backtrack
//! must stay the same. The CI bench gate tolerates 25% drift in these
//! counters; this test pins them exactly, on a Chung–Lu graph small enough
//! for a debug build, for both probe modes: the chain-mode 2-path
//! (Algorithms 3–4) and the General-mode triangle (Algorithms 6–7).

use std::collections::BTreeSet;

use minesweeper_join::cds::ProbeMode;
use minesweeper_join::core::{naive_join, plan, Query};
use minesweeper_join::storage::{Database, ExecStats, Val};
use minesweeper_join::workloads::{chung_lu, path_query, triangle_instance};

/// Distinct edges of a 600-node Chung–Lu graph (γ = 2.5, seed 7).
fn edges() -> Vec<(Val, Val)> {
    chung_lu(600, 1_500, 2.5, 7)
        .into_iter()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Runs `q` serially, checks the rows against `naive_join` and the probe
/// mode against `mode`, and returns the counters with the row count.
fn run(db: &Database, q: &Query, mode: ProbeMode) -> (ExecStats, usize) {
    let p = plan(db, q).unwrap();
    assert_eq!(p.gao().mode, mode);
    let exec = p.execute(db).unwrap();
    assert_eq!(exec.result.tuples, naive_join(db, q).unwrap());
    (exec.result.stats, exec.result.tuples.len())
}

/// `[find_gap_calls, probe_points, cds_next_calls, constraints_inserted,
/// backtracks]`.
fn counters(s: &ExecStats) -> [u64; 5] {
    [
        s.find_gap_calls,
        s.probe_points,
        s.cds_next_calls,
        s.constraints_inserted,
        s.backtracks,
    ]
}

#[test]
fn chain_mode_two_path_counters_are_exact() {
    let inst = path_query(&edges(), 2);
    let (stats, rows) = run(&inst.db, &inst.query, ProbeMode::Chain);
    assert_eq!(rows, 12_401);
    assert_eq!(counters(&stats), [63_107, 15_733, 133_269, 18_033, 1_775]);
}

#[test]
fn general_mode_triangle_counters_are_exact() {
    let (db, _, _, _, q) = triangle_instance(&edges());
    let (stats, rows) = run(&db, &q, ProbeMode::General);
    assert_eq!(rows, 365);
    assert_eq!(counters(&stats), [26_565, 4_379, 181_926, 17_769, 11_566]);
}
