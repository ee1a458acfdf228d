//! The `IntervalList` building block (Appendix E.2, Proposition E.3).
//!
//! An [`IntervalSet`] stores a union of integer ranges over `i64`. The
//! paper's intervals are *open* `(l, r)` with `l, r ∈ ℤ ∪ {−∞, +∞}`; over an
//! integer domain the open interval `(l, r)` covers exactly the closed
//! integer range `[l+1, r−1]`, which is how we store them. Overlapping and
//! adjacent ranges are merged eagerly, so the structure always holds
//! pairwise-disjoint, non-adjacent closed ranges.
//!
//! The ranges live in a [`SortedList<Val>`] mapping `lo → hi`: a sorted
//! `Vec` while the set holds at most [`FLAT_MAX`](crate::sorted_list::FLAT_MAX)
//! ranges, a `BTreeMap` past that (see [`crate::sorted_list`]). Because
//! ranges never touch, `covers` and `next` are one `find_glb` each —
//! `O(log W)` — and `insert` is a glb lookup plus one
//! `replace_range_closed` over the absorbed ranges: amortized `O(log W)`,
//! since each absorbed range was paid for by its own insertion (Prop E.3).

use crate::sorted_list::SortedList;
use crate::{open_interval_is_empty, Val};

/// A set of disjoint closed integer ranges, keyed by their low endpoint.
///
/// ```
/// use minesweeper_cds::IntervalSet;
/// let mut s = IntervalSet::new();
/// s.insert_open(2, 7);        // the paper's open gap (2, 7) = {3,…,6}
/// assert!(s.covers(3) && !s.covers(7));
/// assert_eq!(s.next(3), 7);   // smallest uncovered value ≥ 3
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// `lo → hi` with `lo ≤ hi`; ranges pairwise disjoint and separated by
    /// at least one free integer.
    ranges: SortedList<Val>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no range is stored.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of maximal ranges currently stored.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Iterates the maximal ranges in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = (Val, Val)> + '_ {
        self.ranges.iter().map(|(lo, &hi)| (lo, hi))
    }

    /// The range starting at or before `v`, if any.
    fn glb(&self, v: Val) -> Option<(Val, Val)> {
        self.ranges.find_glb(v).map(|(lo, &hi)| (lo, hi))
    }

    /// The paper's `covers(v)`: is `v` inside some stored range?
    pub fn covers(&self, v: Val) -> bool {
        self.glb(v).is_some_and(|(_, hi)| hi >= v)
    }

    /// The paper's `Next(v)`: the smallest `v' ≥ v` not covered by any
    /// range. Saturates at [`POS_INF`](crate::POS_INF), which callers
    /// treat as "no free value". Ranges never touch, so the value just
    /// past the range covering `v` is free.
    pub fn next(&self, v: Val) -> Val {
        match self.glb(v) {
            Some((_, hi)) if hi >= v => hi.saturating_add(1),
            _ => v,
        }
    }

    /// Inserts the *open* interval `(l, r)` (paper syntax). Empty open
    /// intervals — those containing no integer — are ignored and return
    /// `false`. Returns `true` if coverage grew.
    pub fn insert_open(&mut self, l: Val, r: Val) -> bool {
        !open_interval_is_empty(l, r) && self.insert_closed(l + 1, r - 1)
    }

    /// Inserts the closed range `[lo, hi]`, merging as needed. Returns
    /// `true` if any previously-free integer became covered.
    pub fn insert_closed(&mut self, lo: Val, hi: Val) -> bool {
        assert!(lo <= hi, "insert_closed requires lo <= hi");
        let left = self.glb(lo);
        if left.is_some_and(|(_, e)| e >= hi) {
            return false;
        }
        self.merge(left, lo, hi);
        true
    }

    /// Inserts `[lo, hi]` and returns the maximal sub-ranges of `[lo, hi]`
    /// that were *not* covered before (the "newly covered" pieces). The
    /// dyadic tree of Appendix L uses these to drive upward propagation.
    pub fn insert_closed_returning_new(&mut self, lo: Val, hi: Val) -> Vec<(Val, Val)> {
        assert!(lo <= hi, "insert_closed requires lo <= hi");
        let mut newly = Vec::new();
        let mut cursor = lo;
        let mut tail = true;
        for (s, e) in self.covered_within(lo, hi) {
            if cursor < s {
                newly.push((cursor, s - 1));
            }
            if e == hi {
                tail = false;
                break;
            }
            cursor = e + 1;
        }
        if tail {
            newly.push((cursor, hi));
        }
        if !newly.is_empty() {
            self.merge(self.glb(lo), lo, hi);
        }
        newly
    }

    /// Merges `[lo, hi]` with every stored range that overlaps or is
    /// adjacent to it; `left` is `self.glb(lo)`.
    fn merge(&mut self, left: Option<(Val, Val)>, lo: Val, hi: Val) {
        // A range touching [lo, hi] from the left starts at or before lo;
        // any other touching range starts inside [lo, hi + 1].
        let new_lo = match left {
            Some((s, e)) if e >= lo.saturating_sub(1) => s,
            _ => lo,
        };
        let right = hi.saturating_add(1);
        let new_hi = self.glb(right).map_or(hi, |(_, e)| e.max(hi));
        self.ranges
            .replace_range_closed(new_lo, right, new_lo, new_hi);
    }

    /// Returns the parts of `[lo, hi]` covered by this set, in order. Used
    /// for sibling intersection in the dyadic tree.
    pub fn covered_within(&self, lo: Val, hi: Val) -> Vec<(Val, Val)> {
        assert!(lo <= hi);
        // Start from the last range with start ≤ lo (it may reach into the
        // window), then walk forward.
        let start = self.glb(lo).map_or(lo, |(s, _)| s);
        self.ranges
            .iter_from(start)
            .take_while(|&(s, _)| s <= hi)
            .filter_map(|(s, &e)| {
                let (os, oe) = (s.max(lo), e.min(hi));
                (os <= oe).then_some((os, oe))
            })
            .collect()
    }

    /// True if `[lo, hi]` is fully covered.
    pub fn covers_range(&self, lo: Val, hi: Val) -> bool {
        self.glb(lo).is_some_and(|(_, e)| e >= hi)
    }

    /// Total count of covered integers, saturating (diagnostics/tests).
    pub fn covered_count(&self) -> u128 {
        self.iter()
            .map(|(lo, hi)| (hi as i128 - lo as i128 + 1) as u128)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NEG_INF, POS_INF};

    #[test]
    fn empty_set_covers_nothing() {
        let s = IntervalSet::new();
        assert!(!s.covers(0));
        assert_eq!(s.next(-5), -5);
        assert!(s.is_empty());
    }

    #[test]
    fn open_interval_semantics() {
        let mut s = IntervalSet::new();
        // (2, 5) covers {3, 4} only.
        assert!(s.insert_open(2, 5));
        assert!(!s.covers(2));
        assert!(s.covers(3));
        assert!(s.covers(4));
        assert!(!s.covers(5));
        // (5, 6) is empty over the integers.
        assert!(!s.insert_open(5, 6));
        // (5, 5) is empty as well.
        assert!(!s.insert_open(5, 5));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn next_skips_over_ranges() {
        let mut s = IntervalSet::new();
        s.insert_closed(3, 4);
        s.insert_closed(6, 9);
        assert_eq!(s.next(0), 0);
        assert_eq!(s.next(3), 5);
        assert_eq!(s.next(5), 5);
        assert_eq!(s.next(6), 10);
        // Chained ranges are crossed in one call.
        s.insert_closed(5, 5);
        assert_eq!(s.next(3), 10);
        assert_eq!(s.len(), 1, "adjacent ranges merged");
    }

    #[test]
    fn infinities() {
        let mut s = IntervalSet::new();
        // (−∞, 3): covers everything below 3.
        s.insert_open(NEG_INF, 3);
        assert!(s.covers(NEG_INF + 1));
        assert!(s.covers(2));
        assert!(!s.covers(3));
        assert_eq!(s.next(-100), 3);
        // (10, +∞).
        s.insert_open(10, POS_INF);
        assert!(s.covers(11));
        assert!(s.covers(POS_INF - 1));
        assert_eq!(s.next(11), POS_INF);
        // Close the hole [3, 10].
        s.insert_closed(3, 10);
        assert_eq!(s.next(-50), POS_INF, "entire line covered");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merging_overlaps_and_adjacency() {
        let mut s = IntervalSet::new();
        s.insert_closed(10, 20);
        s.insert_closed(30, 40);
        assert_eq!(s.len(), 2);
        // Overlap both.
        s.insert_closed(15, 35);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next(), Some((10, 40)));
        // Adjacent on the left merges.
        s.insert_closed(5, 9);
        assert_eq!(s.iter().next(), Some((5, 40)));
        // Contained insert changes nothing.
        assert!(!s.insert_closed(6, 7));
    }

    #[test]
    fn newly_covered_pieces() {
        let mut s = IntervalSet::new();
        s.insert_closed(5, 10);
        s.insert_closed(20, 25);
        let new = s.insert_closed_returning_new(0, 30);
        assert_eq!(new, vec![(0, 4), (11, 19), (26, 30)]);
        let new = s.insert_closed_returning_new(0, 30);
        assert!(new.is_empty());
        // A covered `+∞` end is not reported as new.
        s.insert_closed(100, POS_INF);
        assert_eq!(s.insert_closed_returning_new(90, POS_INF), vec![(90, 99)]);
    }

    #[test]
    fn covered_within_window() {
        let mut s = IntervalSet::new();
        s.insert_closed(5, 10);
        s.insert_closed(20, 25);
        assert_eq!(s.covered_within(0, 30), vec![(5, 10), (20, 25)]);
        assert_eq!(s.covered_within(7, 22), vec![(7, 10), (20, 22)]);
        assert_eq!(s.covered_within(11, 19), vec![]);
        assert!(s.covers_range(6, 9));
        assert!(!s.covers_range(6, 11));
        assert!(!s.covers_range(15, 16));
    }

    #[test]
    fn covered_count_saturates_correctly() {
        let mut s = IntervalSet::new();
        s.insert_closed(0, 9);
        s.insert_closed(100, 100);
        assert_eq!(s.covered_count(), 11);
    }

    /// Maximal runs of `want` inside `model[lo..=hi]`, as closed ranges.
    fn model_runs(model: &[bool], lo: i64, hi: i64, want: bool) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = Vec::new();
        for v in lo..=hi {
            if model[v as usize] != want {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.1 + 1 == v => last.1 = v,
                _ => out.push((v, v)),
            }
        }
        out
    }

    /// Randomized cross-check against a naive bit-set model on a small
    /// domain: coverage, `next`, both insert flavours' results, and the
    /// window queries.
    #[test]
    fn model_check_small_domain() {
        const DOM: i64 = 64;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let mut s = IntervalSet::new();
            let mut model = [false; DOM as usize];
            for _ in 0..20 {
                let a = (rng() % DOM as u64) as i64;
                let b = (rng() % DOM as u64) as i64;
                let (lo, hi) = (a.min(b), a.max(b));
                let fresh = model_runs(&model, lo, hi, false);
                if rng() % 2 == 0 {
                    assert_eq!(
                        s.insert_closed(lo, hi),
                        !fresh.is_empty(),
                        "insert [{lo}, {hi}]"
                    );
                } else {
                    assert_eq!(
                        s.insert_closed_returning_new(lo, hi),
                        fresh,
                        "new in [{lo}, {hi}]"
                    );
                }
                for v in lo..=hi {
                    model[v as usize] = true;
                }
                for v in 0..DOM {
                    assert_eq!(s.covers(v), model[v as usize], "covers({v})");
                }
                for v in 0..DOM {
                    let expect = (v..DOM).find(|&u| !model[u as usize]).unwrap_or(DOM);
                    let got = s.next(v).min(DOM);
                    assert_eq!(got, expect, "next({v})");
                }
                for _ in 0..8 {
                    let a = (rng() % DOM as u64) as i64;
                    let b = (rng() % DOM as u64) as i64;
                    let (wlo, whi) = (a.min(b), a.max(b));
                    assert_eq!(
                        s.covered_within(wlo, whi),
                        model_runs(&model, wlo, whi, true),
                        "covered_within({wlo}, {whi})"
                    );
                    assert_eq!(
                        s.covers_range(wlo, whi),
                        model[wlo as usize..=whi as usize].iter().all(|&c| c),
                        "covers_range({wlo}, {whi})"
                    );
                }
            }
        }
    }

    /// More than `FLAT_MAX` disjoint ranges inserted in descending order
    /// (every insert lands at the front), then merged back into one.
    #[test]
    fn many_ranges_descending() {
        let n = crate::sorted_list::FLAT_MAX as i64 + 300;
        let mut s = IntervalSet::new();
        for k in (0..n).rev() {
            assert!(s.insert_closed(3 * k, 3 * k + 1));
        }
        assert_eq!(s.len(), n as usize);
        for v in 0..3 * n {
            assert_eq!(s.covers(v), v % 3 != 2, "covers({v})");
            let free = if v % 3 == 2 { v } else { v - v % 3 + 2 };
            assert_eq!(s.next(v), free, "next({v})");
        }
        assert_eq!(s.covered_within(4, 9), vec![(4, 4), (6, 7), (9, 9)]);
        assert_eq!(
            s.insert_closed_returning_new(0, 3 * n - 1),
            (0..n).map(|k| (3 * k + 2, 3 * k + 2)).collect::<Vec<_>>()
        );
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 3 * n - 1)]);
        assert_eq!(s.covered_count(), 3 * n as u128);
    }
}
