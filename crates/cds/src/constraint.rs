//! Constraints (Section 3.1).
//!
//! A constraint `c = ⟨c₁, …, c_{i−1}, (l, r), ˚, …⟩` consists of a pattern
//! prefix (equality and wildcard components), exactly one open-interval
//! component, and implicit trailing wildcards. A tuple *satisfies* the
//! constraint when its prefix matches the pattern and its `i`-th coordinate
//! lies strictly inside `(l, r)`; a tuple is *active* when it satisfies no
//! stored constraint.

use std::fmt;

use crate::pattern::{Pattern, PatternComp};
use crate::{open_interval_is_empty, Val, NEG_INF, POS_INF};

/// A gap constraint: `pattern` (length `i−1`), then the open interval
/// `(lo, hi)` on attribute position `pattern.len()`, then wildcards.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Components before the interval.
    pub pattern: Pattern,
    /// Open lower endpoint (`−∞` allowed).
    pub lo: Val,
    /// Open upper endpoint (`+∞` allowed).
    pub hi: Val,
}

impl Constraint {
    /// Builds a constraint from a pattern prefix and an open interval.
    pub fn new(pattern: Pattern, lo: Val, hi: Val) -> Self {
        Constraint { pattern, lo, hi }
    }

    /// The constraint ruling out exactly the output tuple `t` at its last
    /// coordinate: `⟨t₁, …, t_{n−1}, (t_n − 1, t_n + 1)⟩` (Algorithm 2,
    /// line 13).
    pub fn point_exclusion(t: &[Val]) -> Self {
        let (last, prefix) = t.split_last().expect("tuple must be non-empty");
        Constraint {
            pattern: Pattern::all_eq(prefix),
            lo: last - 1,
            hi: last + 1,
        }
    }

    /// 0-based attribute position of the interval component.
    pub fn depth(&self) -> usize {
        self.pattern.len()
    }

    /// True when the open interval contains no integer (such constraints
    /// are no-ops; the pseudocode notes "the constraint is empty if
    /// `R[i^{v,ℓ}] = R[i^{v,h}]`").
    pub fn is_empty_interval(&self) -> bool {
        open_interval_is_empty(self.lo, self.hi)
    }

    /// Does tuple `t` satisfy this constraint (i.e. is it covered /
    /// excluded)? `t` may be longer than `depth() + 1`; trailing wildcards
    /// always match.
    pub fn covers(&self, t: &[Val]) -> bool {
        if t.len() <= self.depth() {
            return false;
        }
        self.pattern.matches_prefix(&t[..self.depth()])
            && self.lo < t[self.depth()]
            && t[self.depth()] < self.hi
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for c in &self.pattern.0 {
            match c {
                PatternComp::Eq(v) => write!(f, "{v},")?,
                PatternComp::Star => write!(f, "*,")?,
            }
        }
        let lo = if self.lo == NEG_INF {
            "-inf".to_string()
        } else {
            self.lo.to_string()
        };
        let hi = if self.hi == POS_INF {
            "+inf".to_string()
        } else {
            self.hi.to_string()
        };
        write!(f, "({lo},{hi})⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PatternComp::{Eq, Star};

    #[test]
    fn point_exclusion_covers_only_that_tuple() {
        let c = Constraint::point_exclusion(&[1, 2, 3]);
        assert!(c.covers(&[1, 2, 3]));
        assert!(!c.covers(&[1, 2, 4]));
        assert!(!c.covers(&[1, 2, 2]));
        assert!(!c.covers(&[1, 3, 3]));
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn gap_constraint_semantics() {
        // ⟨˚, (20, 28)⟩: no output has B strictly between 20 and 28
        // (Section 3.2 example).
        let c = Constraint::new(Pattern(vec![Star]), 20, 28);
        assert!(c.covers(&[5, 21]));
        assert!(c.covers(&[5, 27]));
        assert!(!c.covers(&[5, 20]));
        assert!(!c.covers(&[5, 28]));
        // Matches any first coordinate.
        assert!(c.covers(&[999, 25]));
    }

    #[test]
    fn equality_pattern_restricts() {
        // ⟨1, ˚, (2, 5)⟩ — the strip inside plane A₁=1 (Section 3.1).
        let c = Constraint::new(Pattern(vec![Eq(1), Star]), 2, 5);
        assert!(c.covers(&[1, 7, 3]));
        assert!(!c.covers(&[2, 7, 3]));
        assert!(!c.covers(&[1, 7, 5]));
    }

    #[test]
    fn empty_intervals_detected() {
        assert!(Constraint::new(Pattern::empty(), 5, 5).is_empty_interval());
        assert!(Constraint::new(Pattern::empty(), 5, 6).is_empty_interval());
        assert!(!Constraint::new(Pattern::empty(), 5, 7).is_empty_interval());
        assert!(!Constraint::new(Pattern::empty(), NEG_INF, 0).is_empty_interval());
        assert!(!Constraint::new(Pattern::empty(), NEG_INF, POS_INF).is_empty_interval());
    }

    #[test]
    fn display() {
        let c = Constraint::new(Pattern(vec![Eq(1), Star]), NEG_INF, 9);
        assert_eq!(c.to_string(), "⟨1,*,(-inf,9)⟩");
    }

    #[test]
    fn short_tuples_never_covered() {
        let c = Constraint::new(Pattern(vec![Star, Star]), 0, 10);
        assert!(!c.covers(&[1, 2]));
        assert!(c.covers(&[1, 2, 5]));
    }
}
