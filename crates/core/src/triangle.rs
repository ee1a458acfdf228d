//! The triangle query with the dyadic CDS (Section 5.3, Appendix L,
//! Theorem 5.4).
//!
//! `Q∆ = R(A,B) ⋈ S(B,C) ⋈ T(A,C)` under GAO `(A, B, C)`. The outer
//! exploration is the generic Algorithm 2 (its constraints have exactly the
//! seven shapes the [`TriangleCds`] stores); the probe-point search is the
//! corrected Algorithm 10, whose dyadic subtree pruning explores `O(|C|)`
//! `(a, b)` prefixes instead of the generic CDS's `Ω(|C|²)` — total
//! runtime `Õ(|C|^{3/2} + Z)`.

use minesweeper_cds::{ProbeStats, TriangleCds};
use minesweeper_storage::{Database, ExecStats, GapCursor, RelId, StorageRef, TrieRelation};

use crate::minesweeper::{explore_atom, merge_probe_stats, GapBuffer, JoinResult};
use crate::query::{Query, QueryError};

/// Evaluates `R(A,B) ⋈ S(B,C) ⋈ T(A,C)` with the triangle CDS. The three
/// relations must be binary.
pub fn triangle_join(
    db: &Database,
    r: RelId,
    s: RelId,
    t: RelId,
) -> Result<JoinResult, QueryError> {
    let query = Query::new(3)
        .atom(r, &[0, 1])
        .atom(s, &[1, 2])
        .atom(t, &[0, 2]);
    query.validate(db)?;
    let b_domain = b_domain_bound(db.relation(r), db.relation(s));
    let mut cds = TriangleCds::new(b_domain);
    let mut pst = ProbeStats::default();
    let mut stats = ExecStats::new();
    let mut tuples = Vec::new();
    let mut gaps = GapBuffer::default();
    let mut cursors: Vec<GapCursor> = query
        .atoms
        .iter()
        .map(|a| GapCursor::new(db.relation(a.rel).arity()))
        .collect();
    stats.dense_leaves = query
        .atoms
        .iter()
        .map(|a| db.probe_target(a.rel).dense_runs())
        .sum();
    while let Some(probe) = cds.get_probe_point(&mut pst) {
        gaps.clear();
        let mut is_output = true;
        for (atom, cursor) in query.atoms.iter().zip(&mut cursors) {
            let matched = match db.probe_target(atom.rel) {
                StorageRef::Sorted(rel) => {
                    explore_atom(rel, atom, &probe, cursor, &mut gaps, &mut stats)
                }
                StorageRef::Hybrid(rel) => {
                    explore_atom(rel, atom, &probe, cursor, &mut gaps, &mut stats)
                }
            };
            is_output &= matched;
        }
        if is_output {
            stats.outputs += 1;
            cds.insert_point_exclusion(&probe, &mut pst);
            tuples.push(probe.to_vec());
        } else {
            for (pattern, lo, hi) in gaps.iter() {
                cds.insert(pattern, lo, hi, &mut pst);
            }
        }
    }
    merge_probe_stats(&mut stats, &pst);
    Ok(JoinResult { tuples, stats })
}

/// The `B` domain must cover every `B` value occurring in the data
/// (`R`'s second column, `S`'s first column); the dyadic tree rounds up to
/// a power of two.
fn b_domain_bound(r: &TrieRelation, s: &TrieRelation) -> i64 {
    let r_max = r.iter_tuples().map(|t| t[1]).max().unwrap_or(0);
    let s_max = s.first_column().last().copied().unwrap_or(0);
    r_max.max(s_max) + 1
}

/// Convenience: the triangle query as a generic [`Query`] (for running the
/// baseline generic Minesweeper on the same instance).
pub fn triangle_query(r: RelId, s: RelId, t: RelId) -> Query {
    Query::new(3)
        .atom(r, &[0, 1])
        .atom(s, &[1, 2])
        .atom(t, &[0, 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minesweeper::minesweeper_join;
    use crate::naive::naive_join;
    use minesweeper_cds::ProbeMode;
    use minesweeper_storage::{builder, Database, Val};

    fn triangle_db(edges: &[(Val, Val)]) -> (Database, RelId, RelId, RelId) {
        let mut db = Database::new();
        let r = db.add(builder::binary("R", edges.iter().copied())).unwrap();
        let s = db.add(builder::binary("S", edges.iter().copied())).unwrap();
        let t = db.add(builder::binary("T", edges.iter().copied())).unwrap();
        (db, r, s, t)
    }

    #[test]
    fn small_graph_triangles() {
        let (db, r, s, t) = triangle_db(&[(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)]);
        let res = triangle_join(&db, r, s, t).unwrap();
        let mut got = res.tuples.clone();
        got.sort();
        assert_eq!(got, vec![vec![1, 2, 3], vec![2, 3, 4]]);
    }

    #[test]
    fn no_triangles_bipartite() {
        // Bipartite graphs have no directed (a<b<c) triangles.
        let edges: Vec<(Val, Val)> = (0..10).map(|i| (i, i + 10)).collect();
        let (db, r, s, t) = triangle_db(&edges);
        let res = triangle_join(&db, r, s, t).unwrap();
        assert!(res.tuples.is_empty());
    }

    #[test]
    fn agrees_with_generic_and_naive_on_random_graphs() {
        let mut seed = 0xfeedface2468u64;
        let mut rng = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for _ in 0..15 {
            let edges: Vec<(Val, Val)> = (0..rng(40) + 5)
                .map(|_| (rng(12) as Val, rng(12) as Val))
                .collect();
            let (db, r, s, t) = triangle_db(&edges);
            let mut fast = triangle_join(&db, r, s, t).unwrap().tuples;
            fast.sort();
            let q = triangle_query(r, s, t);
            let mut generic = minesweeper_join(&db, &q, ProbeMode::General)
                .unwrap()
                .tuples;
            generic.sort();
            let brute = naive_join(&db, &q).unwrap();
            assert_eq!(fast, brute);
            assert_eq!(generic, brute);
        }
    }

    #[test]
    fn distinct_relations_per_atom() {
        let mut db = Database::new();
        let r = db.add(builder::binary("R", [(0, 1), (2, 3)])).unwrap();
        let s = db.add(builder::binary("S", [(1, 5), (3, 6)])).unwrap();
        let t = db.add(builder::binary("T", [(0, 5), (2, 7)])).unwrap();
        let res = triangle_join(&db, r, s, t).unwrap();
        assert_eq!(res.tuples, vec![vec![0, 1, 5]]);
    }

    #[test]
    fn rejects_non_binary_relations() {
        let mut db = Database::new();
        let u = db.add(builder::unary("U", [1])).unwrap();
        let s = db.add(builder::binary("S", [(1, 2)])).unwrap();
        let t = db.add(builder::binary("T", [(1, 2)])).unwrap();
        assert!(triangle_join(&db, u, s, t).is_err());
    }

    #[test]
    fn empty_edge_set() {
        let (db, r, s, t) = triangle_db(&[]);
        let res = triangle_join(&db, r, s, t).unwrap();
        assert!(res.tuples.is_empty());
        assert!(res.stats.probe_points <= 2);
    }
}
