//! The `SortedList` building block (Appendix E.1, Proposition E.2).
//!
//! A sorted dictionary keyed by domain values, carrying an arbitrary payload
//! per key (the `ConstraintTree` stores child-node handles, the
//! [`IntervalSet`](crate::IntervalSet) stores range ends). Supports the five
//! operations of Prop E.2 — `Find`, `FindLub`, `insert`, `Delete`,
//! `DeleteInterval` — each in `O(log N)` (amortized for `DeleteInterval`,
//! whose cost is charged to the earlier insertions of the deleted keys).
//!
//! # Representation
//!
//! Almost every CDS node holds a handful of keys, so a list starts *flat*:
//! one sorted `Vec<(Val, T)>` searched by binary search. That is one
//! allocation per list and cache-friendly lookups. A middle insert or delete
//! shifts the entries behind it, so the flat form is capped at
//! [`FLAT_MAX`] entries: the insert that would grow it past the cap moves
//! the list into a `BTreeMap`, where it stays. A shift therefore moves at
//! most `FLAT_MAX` entries — a constant — and every operation keeps the
//! `O(log N)` bound of Prop E.2 in both forms. The switch follows the
//! list's observed size only; there is no knob.

use std::collections::BTreeMap;

use crate::Val;

/// Largest number of entries kept in the flat (sorted `Vec`) form; one
/// more spills the list into a `BTreeMap`.
pub const FLAT_MAX: usize = 1024;

#[derive(Debug, Clone)]
enum Repr<T> {
    /// Sorted by key, at most [`FLAT_MAX`] entries.
    Flat(Vec<(Val, T)>),
    /// Spilled: more than [`FLAT_MAX`] keys were stored at some point.
    Tree(BTreeMap<Val, T>),
}

/// A sorted key → payload dictionary.
#[derive(Debug, Clone)]
pub struct SortedList<T> {
    repr: Repr<T>,
}

impl<T> Default for SortedList<T> {
    fn default() -> Self {
        SortedList {
            repr: Repr::Flat(Vec::new()),
        }
    }
}

/// Equal when the same `(key, payload)` pairs are stored, whichever form
/// holds them.
impl<T: PartialEq> PartialEq for SortedList<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for SortedList<T> {}

impl<T> SortedList<T> {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Flat(v) => v.len(),
            Repr::Tree(m) => m.len(),
        }
    }

    /// True when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Find(v)`: payload stored under `v`, if any.
    pub fn find(&self, v: Val) -> Option<&T> {
        match &self.repr {
            Repr::Flat(e) => e
                .binary_search_by_key(&v, |&(k, _)| k)
                .ok()
                .map(|i| &e[i].1),
            Repr::Tree(m) => m.get(&v),
        }
    }

    /// `FindLub(v)`: the smallest key `v' ≥ v`, with its payload.
    pub fn find_lub(&self, v: Val) -> Option<(Val, &T)> {
        self.iter_from(v).next()
    }

    /// Largest key `v' ≤ v`, with its payload (the mirror of `FindLub`,
    /// needed by glb-style queries).
    pub fn find_glb(&self, v: Val) -> Option<(Val, &T)> {
        match &self.repr {
            Repr::Flat(e) => {
                let i = e.partition_point(|&(k, _)| k <= v);
                i.checked_sub(1).map(|i| (e[i].0, &e[i].1))
            }
            Repr::Tree(m) => m.range(..=v).next_back().map(|(&k, t)| (k, t)),
        }
    }

    /// `insert(v)`: stores `payload` under `v`, returning the previous
    /// payload if the key existed.
    pub fn insert(&mut self, v: Val, payload: T) -> Option<T> {
        let e = match &mut self.repr {
            Repr::Flat(e) => e,
            Repr::Tree(m) => return m.insert(v, payload),
        };
        match e.binary_search_by_key(&v, |&(k, _)| k) {
            Ok(i) => Some(std::mem::replace(&mut e[i].1, payload)),
            Err(_) if e.len() == FLAT_MAX => {
                let mut m: BTreeMap<Val, T> = std::mem::take(e).into_iter().collect();
                m.insert(v, payload);
                self.repr = Repr::Tree(m);
                None
            }
            Err(i) => {
                e.insert(i, (v, payload));
                None
            }
        }
    }

    /// `Delete(v)`: removes the key, returning its payload.
    pub fn delete(&mut self, v: Val) -> Option<T> {
        match &mut self.repr {
            Repr::Flat(e) => e
                .binary_search_by_key(&v, |&(k, _)| k)
                .ok()
                .map(|i| e.remove(i).1),
            Repr::Tree(m) => m.remove(&v),
        }
    }

    /// `DeleteInterval` over the *closed* range `[lo, hi]`: removes every
    /// key inside and returns the removed entries in order. (The paper
    /// phrases this with open intervals; over integers `(l, r)` equals
    /// `[l+1, r−1]` and callers translate.) Allocates only when something
    /// is removed.
    pub fn delete_range_closed(&mut self, lo: Val, hi: Val) -> Vec<(Val, T)> {
        if lo > hi {
            return Vec::new();
        }
        match &mut self.repr {
            Repr::Flat(e) => {
                let (a, b) = flat_window(e, lo, hi);
                e.drain(a..b).collect()
            }
            Repr::Tree(m) => {
                let mut out = Vec::new();
                while let Some((&k, _)) = m.range(lo..=hi).next() {
                    out.push((k, m.remove(&k).expect("key just seen")));
                }
                out
            }
        }
    }

    /// Replaces every entry with a key in the closed range `[lo, hi]` by
    /// the single entry `(v, payload)`, `v ∈ [lo, hi]`: a `DeleteInterval`
    /// followed by an `insert`, without allocating. This is the merge step
    /// of [`IntervalSet`](crate::IntervalSet) insertion.
    pub(crate) fn replace_range_closed(&mut self, lo: Val, hi: Val, v: Val, payload: T) {
        debug_assert!(lo <= v && v <= hi);
        match &mut self.repr {
            Repr::Flat(e) => {
                let (a, b) = flat_window(e, lo, hi);
                if a < b {
                    e[a] = (v, payload);
                    e.drain(a + 1..b);
                    return;
                }
            }
            Repr::Tree(m) => {
                while let Some((&k, _)) = m.range(lo..=hi).next() {
                    m.remove(&k);
                }
            }
        }
        self.insert(v, payload);
    }

    /// Iterates `(key, payload)` in increasing key order.
    pub fn iter(&self) -> impl Iterator<Item = (Val, &T)> {
        self.iter_from(Val::MIN)
    }

    /// Iterates the entries with key `≥ v` in increasing key order
    /// (`FindLub` followed by successor steps).
    pub(crate) fn iter_from(&self, v: Val) -> impl Iterator<Item = (Val, &T)> {
        let (flat, tree) = match &self.repr {
            Repr::Flat(e) => {
                let i = e.partition_point(|&(k, _)| k < v);
                (Some(e[i..].iter().map(|(k, t)| (*k, t))), None)
            }
            Repr::Tree(m) => (None, Some(m.range(v..).map(|(&k, t)| (k, t)))),
        };
        flat.into_iter().flatten().chain(tree.into_iter().flatten())
    }

    /// Iterates keys in increasing order.
    pub fn keys(&self) -> impl Iterator<Item = Val> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

/// Index range `a..b` of the flat entries with keys in `[lo, hi]`.
fn flat_window<T>(e: &[(Val, T)], lo: Val, hi: Val) -> (usize, usize) {
    let a = e.partition_point(|&(k, _)| k < lo);
    let b = a + e[a..].partition_point(|&(k, _)| k <= hi);
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_and_lub() {
        let mut l = SortedList::new();
        l.insert(5, "five");
        l.insert(9, "nine");
        l.insert(2, "two");
        assert_eq!(l.find(5), Some(&"five"));
        assert_eq!(l.find(4), None);
        assert_eq!(l.find_lub(3), Some((5, &"five")));
        assert_eq!(l.find_lub(5), Some((5, &"five")));
        assert_eq!(l.find_lub(10), None);
        assert_eq!(l.find_glb(4), Some((2, &"two")));
        assert_eq!(l.find_glb(1), None);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn delete_single_and_range() {
        let mut l = SortedList::new();
        for v in [1, 3, 5, 7, 9] {
            l.insert(v, v * 10);
        }
        assert_eq!(l.delete(5), Some(50));
        assert_eq!(l.delete(5), None);
        let removed = l.delete_range_closed(2, 8);
        assert_eq!(removed, vec![(3, 30), (7, 70)]);
        assert_eq!(l.keys().collect::<Vec<_>>(), vec![1, 9]);
        assert!(l.delete_range_closed(100, 50).is_empty());
    }

    #[test]
    fn insert_replaces_payload() {
        let mut l = SortedList::new();
        assert_eq!(l.insert(1, 'a'), None);
        assert_eq!(l.insert(1, 'b'), Some('a'));
        assert_eq!(l.find(1), Some(&'b'));
    }

    #[test]
    fn iteration_is_sorted() {
        let mut l = SortedList::new();
        for v in [9, 1, 5] {
            l.insert(v, ());
        }
        assert_eq!(l.keys().collect::<Vec<_>>(), vec![1, 5, 9]);
        assert!(!l.is_empty());
    }

    #[test]
    fn spills_past_flat_max_and_keeps_equality() {
        let mut flat = SortedList::new();
        let mut spilled = SortedList::new();
        for v in 0..=FLAT_MAX as Val {
            spilled.insert(v, v);
        }
        assert!(matches!(spilled.repr, Repr::Tree(_)));
        spilled.delete_range_closed(1, FLAT_MAX as Val);
        flat.insert(0, 0);
        assert!(matches!(flat.repr, Repr::Flat(_)));
        assert_eq!(flat, spilled, "equality ignores the representation");
    }

    /// Randomized cross-check against a `BTreeMap` reference, with sizes
    /// growing past [`FLAT_MAX`] so both representations are exercised.
    #[test]
    fn model_check_against_btreemap() {
        let mut seed = 0x853c49e6748fea9bu64;
        let mut rng = move |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for trial in 0..6u64 {
            // Trials alternate a dense key range (many replaces) and a wide
            // one (mostly fresh keys, so the list spills).
            let dom = if trial % 2 == 0 {
                512
            } else {
                8 * FLAT_MAX as u64
            };
            let mut l = SortedList::new();
            let mut model: BTreeMap<Val, u64> = BTreeMap::new();
            let mut spilled = false;
            for step in 0..6_000u64 {
                let k = rng(dom) as Val - 16;
                match rng(100) {
                    0..=69 => assert_eq!(l.insert(k, step), model.insert(k, step)),
                    70..=84 => assert_eq!(l.delete(k), model.remove(&k)),
                    85..=89 => {
                        let hi = k + rng(16) as Val;
                        let expect: Vec<(Val, u64)> =
                            model.range(k..=hi).map(|(&k, &t)| (k, t)).collect();
                        for (key, _) in &expect {
                            model.remove(key);
                        }
                        assert_eq!(l.delete_range_closed(k, hi), expect, "delete [{k}, {hi}]");
                    }
                    90..=94 => {
                        let hi = k + rng(16) as Val;
                        let v = k + rng((hi - k + 1) as u64) as Val;
                        let doomed: Vec<Val> = model.range(k..=hi).map(|(&k, _)| k).collect();
                        for key in doomed {
                            model.remove(&key);
                        }
                        model.insert(v, step);
                        l.replace_range_closed(k, hi, v, step);
                    }
                    _ => {}
                }
                spilled |= matches!(l.repr, Repr::Tree(_));
                assert_eq!(l.len(), model.len());
                let q = rng(dom + 32) as Val - 32;
                assert_eq!(l.find(q), model.get(&q), "find({q})");
                assert_eq!(
                    l.find_lub(q),
                    model.range(q..).next().map(|(&k, t)| (k, t)),
                    "find_lub({q})"
                );
                assert_eq!(
                    l.find_glb(q),
                    model.range(..=q).next_back().map(|(&k, t)| (k, t)),
                    "find_glb({q})"
                );
                if step % 500 == 0 {
                    assert!(l.iter().eq(model.iter().map(|(&k, t)| (k, t))));
                    assert!(l.iter_from(q).eq(model.range(q..).map(|(&k, t)| (k, t))));
                }
            }
            assert!(l.iter().eq(model.iter().map(|(&k, t)| (k, t))));
            assert_eq!(spilled, trial % 2 == 1, "trial {trial}: spill expectation");
        }
    }
}
