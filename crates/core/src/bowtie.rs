//! Minesweeper specialized to the bow-tie query (Appendix I, Algorithm 9).
//!
//! `Q⋈ = R(X) ⋈ S(X, Y) ⋈ T(Y)`. Each iteration issues exactly the five
//! `FindGap` probes of Algorithm 9 — around `x` in `R`, around `y` in `T`,
//! around `x` in `S`'s first level, and around `y` under both bracketing
//! `S`-children `i^ℓ_S` and `i^h_S` (Figure 8) — and inserts up to five
//! constraints. The extra exploration under *both* children is what lets
//! the analysis (Theorem I.4) charge every iteration to a certificate
//! comparison: the naive "lexicographic neighbour" gap can miss the
//! certificate entirely (the `t = (2, N+1)` example of Appendix I.3).
//!
//! The bow-tie query is β-acyclic and the GAO `(X, Y)` is a nested
//! elimination order, so the two-attribute `ConstraintTree` runs in chain
//! mode; Theorem I.4 gives `O((|C| + Z)·log N)`.

use minesweeper_cds::{ConstraintTree, PatternComp, ProbeMode, ProbeStats};
use minesweeper_storage::{ExecStats, TrieRelation};

use crate::minesweeper::{merge_probe_stats, JoinResult};

/// Evaluates `R(X) ⋈ S(X,Y) ⋈ T(Y)` (Algorithm 9). Panics unless `R`, `T`
/// are unary and `S` binary.
pub fn bowtie_join(r: &TrieRelation, s: &TrieRelation, t: &TrieRelation) -> JoinResult {
    assert_eq!(r.arity(), 1, "R must be unary");
    assert_eq!(s.arity(), 2, "S must be binary");
    assert_eq!(t.arity(), 1, "T must be unary");
    let mut stats = ExecStats::new();
    let mut pst = ProbeStats::default();
    let mut cds = ConstraintTree::new(2, ProbeMode::Chain);
    let mut tuples = Vec::new();
    while let Some(probe) = cds.get_probe_point(&mut pst) {
        let (x, y) = (probe[0], probe[1]);
        // Line 3: gap around x in R.
        let gr = r.find_gap(r.root(), x, &mut stats);
        // Line 4: gap around y in T.
        let gt = t.find_gap(t.root(), y, &mut stats);
        // Line 5: gap around x in S's first level.
        let gs = s.find_gap(s.root(), x, &mut stats);
        // Lines 6–7: gaps around y under S[i^ℓ_S] and S[i^h_S].
        let lo_in_range = gs.lo_coord >= 1;
        let hi_in_range = gs.hi_coord <= s.child_count(s.root());
        let g_lo = if lo_in_range {
            Some((
                gs.lo_val,
                s.find_gap(s.child(s.root(), gs.lo_coord), y, &mut stats),
            ))
        } else {
            None
        };
        let g_hi = if hi_in_range && gs.hi_coord != gs.lo_coord {
            Some((
                gs.hi_val,
                s.find_gap(s.child(s.root(), gs.hi_coord), y, &mut stats),
            ))
        } else if gs.exact() {
            g_lo
        } else {
            None
        };
        // Line 8: output test — all high ends exact.
        let s_exact = gs.exact() && g_hi.as_ref().is_some_and(|(_, g)| g.exact());
        if gr.exact() && gt.exact() && s_exact {
            // Line 9–10.
            stats.outputs += 1;
            tuples.push(vec![x, y]);
            cds.insert_point_exclusion(&[x, y], &mut pst);
        } else {
            // Lines 12–18.
            cds.insert(&[], gr.lo_val, gr.hi_val, &mut pst);
            cds.insert(&[], gs.lo_val, gs.hi_val, &mut pst);
            cds.insert(&[PatternComp::Star], gt.lo_val, gt.hi_val, &mut pst);
            for (xv, g) in [&g_hi, &g_lo].into_iter().flatten() {
                cds.insert(&[PatternComp::Eq(*xv)], g.lo_val, g.hi_val, &mut pst);
            }
        }
    }
    merge_probe_stats(&mut stats, &pst);
    JoinResult { tuples, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minesweeper::minesweeper_join;
    use crate::query::Query;
    use minesweeper_cds::ProbeMode;
    use minesweeper_storage::{builder, Database, Val};

    #[test]
    fn small_bowtie() {
        let r = builder::unary("R", [1, 2, 4]);
        let s = builder::binary("S", [(1, 5), (2, 6), (2, 7), (3, 5), (4, 9)]);
        let t = builder::unary("T", [5, 7, 9]);
        let res = bowtie_join(&r, &s, &t);
        let mut got = res.tuples.clone();
        got.sort();
        assert_eq!(got, vec![vec![1, 5], vec![2, 7], vec![4, 9]]);
    }

    #[test]
    fn agrees_with_generic_minesweeper() {
        let mut seed = 0x5ca1ab1eu64;
        let mut rng = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for _ in 0..20 {
            let rv: Vec<Val> = (0..rng(12)).map(|_| rng(10) as Val).collect();
            let sv: Vec<(Val, Val)> = (0..rng(25))
                .map(|_| (rng(10) as Val, rng(10) as Val))
                .collect();
            let tv: Vec<Val> = (0..rng(12)).map(|_| rng(10) as Val).collect();
            let r = builder::unary("R", rv.iter().copied());
            let s = builder::binary("S", sv.iter().copied());
            let t = builder::unary("T", tv.iter().copied());
            let mut fast = bowtie_join(&r, &s, &t).tuples;
            fast.sort();
            let mut db = Database::new();
            let rid = db.add(r).unwrap();
            let sid = db.add(s).unwrap();
            let tid = db.add(t).unwrap();
            let q = Query::new(2)
                .atom(rid, &[0])
                .atom(sid, &[0, 1])
                .atom(tid, &[1]);
            let mut generic = minesweeper_join(&db, &q, ProbeMode::Chain).unwrap().tuples;
            generic.sort();
            assert_eq!(fast, generic);
        }
    }

    #[test]
    fn hidden_certificate_instance_from_appendix_i3() {
        // R = {2}, T = {N+1}, S = {(1, N+1+i)} ∪ {(3, i)}: empty output
        // with an O(1) certificate {S[1,1] > T[1], S[2,N] < T[1]}. The
        // exploration under BOTH S-children is what finds it fast.
        let n: Val = 400;
        let r = builder::unary("R", [2]);
        let s = builder::binary(
            "S",
            (1..=n)
                .map(|i| (1, n + 1 + i))
                .chain((1..=n).map(|i| (3, i))),
        );
        let t = builder::unary("T", [n + 1]);
        let res = bowtie_join(&r, &s, &t);
        assert!(res.tuples.is_empty());
        assert!(
            res.stats.probe_points < 10,
            "must not scan S: probes = {}",
            res.stats.probe_points
        );
    }

    #[test]
    fn empty_inputs() {
        let r = builder::unary("R", []);
        let s = builder::binary("S", [(1, 1)]);
        let t = builder::unary("T", [1]);
        let res = bowtie_join(&r, &s, &t);
        assert!(res.tuples.is_empty());
    }

    #[test]
    fn full_cross_pattern() {
        // All of R × T realized through S.
        let r = builder::unary("R", [1, 2]);
        let s = builder::binary("S", [(1, 10), (1, 20), (2, 10), (2, 20)]);
        let t = builder::unary("T", [10, 20]);
        let res = bowtie_join(&r, &s, &t);
        assert_eq!(res.tuples.len(), 4);
        assert_eq!(res.stats.outputs, 4);
    }
}
