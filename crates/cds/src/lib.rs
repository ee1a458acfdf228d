//! Constraint data structures (CDS) for the Minesweeper join algorithm.
//!
//! Section 3.3 and Appendix E of "Beyond Worst-case Analysis for Joins with
//! Minesweeper" define the CDS interface: `InsConstraint(c)` stores a
//! discovered gap, and `getProbePoint()` returns a tuple of the output space
//! not covered by any stored constraint (an *active* tuple), or `null`.
//!
//! This crate provides:
//! * [`IntervalSet`] — the `IntervalList` building block (Prop E.3): merged
//!   open gaps over an integer domain with `Next` / `covers` / `insert`,
//!   stored as a [`SortedList`] of ranges;
//! * [`SortedList`] — the sorted-dictionary building block (Prop E.2): a
//!   sorted `Vec` searched by binary search while it holds at most
//!   [`sorted_list::FLAT_MAX`] keys, a `BTreeMap` past that. Capping the
//!   flat form caps the entries one insert or delete shifts, so both forms
//!   keep the `O(log N)` bounds of Props E.2 and E.3;
//! * [`Pattern`] / the specialization poset of Section 4.2;
//! * [`Constraint`] — an equality/wildcard pattern followed by one open
//!   interval component;
//! * [`ConstraintTree`] — the CDS proper (Figure 1, Algorithm 5), with
//!   `getProbePoint` implemented for β-acyclic GAOs (Algorithms 3–4) and
//!   general GAOs via shadow chains (Algorithms 6–7);
//! * [`TriangleCds`] — the dyadic-tree CDS of Appendix L that powers the
//!   `Õ(|C|^{3/2} + Z)` triangle join (Theorem 5.4).
//!
//! Open intervals `(l, r)` over the integer domain are stored as closed
//! integer ranges `[l+1, r−1]`; the paper's `±∞` endpoints map to the
//! sentinels of `minesweeper_storage::value` re-exported here as
//! [`NEG_INF`] / [`POS_INF`].

pub mod constraint;
pub mod dyadic;
pub mod interval;
pub mod pattern;
pub mod sorted_list;
pub mod tree;
pub mod triangle_cds;

pub use constraint::Constraint;
pub use dyadic::DyadicIntervalTree;
pub use interval::IntervalSet;
pub use pattern::{Pattern, PatternComp};
pub use sorted_list::SortedList;
pub use tree::{ConstraintTree, ProbeMode, ProbeStats};
pub use triangle_cds::TriangleCds;

/// Domain value type (shared with the storage layer: `i64` with infinity
/// sentinels).
pub type Val = i64;

/// `−∞` sentinel.
pub const NEG_INF: Val = Val::MIN;

/// `+∞` sentinel.
pub const POS_INF: Val = Val::MAX;

/// The sentinel probe value used when no constraint restricts a coordinate
/// yet; matches the `t = (−1, −1, −1)` first probe of the worked example in
/// Appendix D.1.
pub const PROBE_START: Val = -1;

/// True when the open interval `(lo, hi)` contains no integer — the
/// paper's "the constraint is empty if `R[i^{v,ℓ}] = R[i^{v,h}]`". The
/// `±∞` sentinels are ordinary endpoints here and the arithmetic
/// saturates, so whenever this is `false` the closed range
/// `[lo + 1, hi − 1]` can be formed without overflow.
pub fn open_interval_is_empty(lo: Val, hi: Val) -> bool {
    lo.saturating_add(1) > hi.saturating_sub(1)
}
