//! The streaming Minesweeper executor.
//!
//! [`TupleStream`] runs Algorithm 2's probe loop *lazily*: each call to
//! [`Iterator::next`] resumes the loop exactly where the previous call
//! stopped — the constraint data structure **is** the resumable state, since
//! every discovered gap and every emitted output is recorded there as a
//! constraint — and returns as soon as the next tuple is certified. This
//! gives:
//!
//! * **early termination**: `stream.take(k)` performs only the probe work
//!   needed to certify `k` tuples (certificate work for the skipped suffix
//!   is never paid), which is how `msj --limit` avoids materializing `Z`
//!   tuples when `Z ≫ k`;
//! * **mid-stream statistics**: [`TupleStream::stats`] snapshots the
//!   [`ExecStats`] counters at any point, including between yields;
//! * **original-order tuples**: when the plan re-indexed for a non-identity
//!   GAO, yielded tuples are translated back to the caller's attribute
//!   numbering on the fly. Tuples are yielded in certification order, which
//!   is lexicographic in the *GAO*; it therefore coincides with
//!   lexicographic order in the original numbering exactly when the GAO is
//!   the identity (see [`mod@crate::execute`] for the sorted-collect wrapper).
//!
//! Relations are probed through [`GapCursor`]s that persist across resumed
//! probes, so a forward-moving probe sequence gallops from the previous
//! landing position instead of re-running full binary searches. The probe
//! tuple, the gaps found around it and the translated output live in
//! buffers the stream reuses: [`TupleStream::next_tuple`] lends each
//! certified tuple without allocating, and the `Iterator` impl copies it
//! out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use minesweeper_cds::{ConstraintTree, PatternComp, ProbeMode, ProbeStats};
use minesweeper_storage::{
    Database, ExecStats, GapCursor, NodeId, ShardSpec, StorageRef, TrieStorage, Tuple, Val,
    NEG_INF, POS_INF,
};

use crate::query::{Atom, Query};

/// The database a stream probes: borrowed from the caller when the plan
/// uses the stored indexes directly, owned when execution required
/// re-indexing under a different GAO.
pub(crate) enum DbHandle<'db> {
    /// The caller's database, indexes used as stored.
    Borrowed(&'db Database),
    /// A re-indexed copy built by the plan's GAO mapping.
    Owned(Box<Database>),
}

/// A lazy stream of certified output tuples (see the module docs).
///
/// Construct via [`crate::Plan::stream`]. The stream is fused: after the
/// constraint set covers the whole output space, `next` keeps returning
/// `None`.
pub struct TupleStream<'db> {
    db: DbHandle<'db>,
    /// The execution-side query (re-indexed when the plan demanded it).
    query: Query,
    cds: ConstraintTree,
    pst: ProbeStats,
    stats: ExecStats,
    /// One positional probe cursor per atom, persisted across resumes.
    cursors: Vec<GapCursor>,
    /// The probe point, refilled in place by every probe.
    probe: Vec<Val>,
    /// Gap constraints discovered around one probe, reused across probes.
    gaps: GapBuffer,
    /// `inv[a]` = execution column holding original attribute `a`; `None`
    /// when the GAO is the identity.
    inv: Option<Vec<usize>>,
    /// The last yielded tuple in the original numbering, when `inv`
    /// translates it (the identity GAO yields `probe` itself).
    out: Vec<Val>,
    /// Cooperative-cancellation flag, polled once per probe point: a
    /// parallel consumer tearing its pipeline down flips it so in-flight
    /// shards stop promptly even when their remaining probe work would
    /// emit nothing (a channel send alone can't observe that).
    cancel: Option<Arc<AtomicBool>>,
    done: bool,
}

impl<'db> TupleStream<'db> {
    /// Builds a stream over an already-validated execution query.
    pub(crate) fn new(
        db: DbHandle<'db>,
        query: Query,
        mode: ProbeMode,
        inv: Option<Vec<usize>>,
    ) -> Self {
        Self::with_shard(db, query, mode, inv, ShardSpec::unbounded(), &[])
    }

    /// Builds a stream whose probe loop is confined to the shard `spec`
    /// (a first-GAO-attribute interval, plus a second-attribute interval
    /// for nested shards) and to `eq_seeds` equality constraints
    /// (`(position, value)` in the *execution* numbering). All
    /// restrictions are expressed in the CDS itself, as pre-seeded
    /// constraints inserted before any probing:
    ///
    /// * `spec.bounds` becomes the depth-0 open intervals `(−∞, lo)` and
    ///   `(hi, +∞)`, so `getProbePoint` never proposes a tuple outside
    ///   `[lo, hi]` and the loop terminates once the *shard's* slice of
    ///   the output space is covered — the per-shard engine of
    ///   [`crate::ShardedPlan`]: disjoint bounds give probe loops that
    ///   share no state, and within its interval each stream yields
    ///   exactly the serial stream's tuples in the same
    ///   (GAO-lexicographic) order;
    /// * `spec.second`, when present, becomes the all-star depth-1
    ///   intervals `⟨*, (−∞, lo₂)⟩` and `⟨*, (hi₂, +∞)⟩`. A nested spec
    ///   pins the first attribute to a single heavy value, so within the
    ///   shard the star matches only that value and the pair confines the
    ///   second attribute to `[lo₂, hi₂]` — one slice of a giant
    ///   duplicate run;
    /// * each `(k, v)` seed becomes `⟨*,…,*, (−∞, v)⟩` and
    ///   `⟨*,…,*, (v, +∞)⟩` at position `k` — the same all-star-prefix
    ///   shape `explore_atom` discovers for gaps at an atom's first
    ///   attribute — pinning attribute `k` to the constant `v`. This is
    ///   how the engine front door implements query literals without
    ///   touching the catalog.
    ///
    /// Seed constraints are counted in `constraints_inserted` like any
    /// other.
    pub(crate) fn with_shard(
        db: DbHandle<'db>,
        query: Query,
        mode: ProbeMode,
        inv: Option<Vec<usize>>,
        spec: ShardSpec,
        eq_seeds: &[(usize, Val)],
    ) -> Self {
        let n = query.n_attrs;
        let mut stats = ExecStats::new();
        let cursors = {
            let dbr: &Database = match &db {
                DbHandle::Borrowed(d) => d,
                DbHandle::Owned(b) => b,
            };
            // Record, once per stream, how many packed runs back the atoms
            // this probe loop will touch (0 on the all-sorted path).
            stats.dense_leaves = query
                .atoms
                .iter()
                .map(|a| dbr.probe_target(a.rel).dense_runs())
                .sum();
            query
                .atoms
                .iter()
                .map(|a| GapCursor::new(dbr.relation(a.rel).arity()))
                .collect()
        };
        let mut cds = ConstraintTree::new(n, mode);
        let mut pst = ProbeStats::default();
        if spec.bounds.lo != NEG_INF {
            cds.insert(&[], NEG_INF, spec.bounds.lo, &mut pst);
        }
        if spec.bounds.hi != POS_INF {
            cds.insert(&[], spec.bounds.hi, POS_INF, &mut pst);
        }
        if let Some(b2) = spec.second {
            debug_assert!(n >= 2, "nested shards need a second GAO attribute");
            let star = [PatternComp::Star];
            if b2.lo != NEG_INF {
                cds.insert(&star, NEG_INF, b2.lo, &mut pst);
            }
            if b2.hi != POS_INF {
                cds.insert(&star, b2.hi, POS_INF, &mut pst);
            }
        }
        for &(k, v) in eq_seeds {
            debug_assert!(k < n, "seed position inside the attribute space");
            let stars = vec![PatternComp::Star; k];
            if v != NEG_INF {
                cds.insert(&stars, NEG_INF, v, &mut pst);
            }
            if v != POS_INF {
                cds.insert(&stars, v, POS_INF, &mut pst);
            }
        }
        TupleStream {
            db,
            query,
            cds,
            pst,
            stats,
            cursors,
            probe: Vec::with_capacity(n),
            gaps: GapBuffer::default(),
            inv,
            out: Vec::with_capacity(n),
            cancel: None,
            done: false,
        }
    }

    /// Arms cooperative cancellation: once `flag` turns true, the probe
    /// loop stops between probe points and `next` returns `None` without
    /// marking the stream exhausted. Used by the parallel executors so
    /// cancelled shards stop even when no further output would be
    /// emitted; counters stay valid for the work actually done.
    pub(crate) fn set_cancel(&mut self, flag: Arc<AtomicBool>) {
        self.cancel = Some(flag);
    }

    /// True when an armed cancellation flag has fired.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel
            .as_deref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// A snapshot of the execution counters accumulated so far, valid at
    /// any point mid-stream. `outputs` counts tuples already yielded.
    pub fn stats(&self) -> ExecStats {
        let mut s = self.stats.clone();
        merge_probe_stats(&mut s, &self.pst);
        s
    }

    /// True once the constraint set covers the whole space (the stream has
    /// returned `None`).
    pub fn is_exhausted(&self) -> bool {
        self.done
    }

    /// Number of tuples yielded so far.
    pub fn outputs(&self) -> u64 {
        self.stats.outputs
    }
}

impl TupleStream<'_> {
    /// Resumes the probe loop until the next tuple is certified and
    /// returns it in the caller's attribute numbering, borrowed from the
    /// stream's own buffers: a consumer that encodes or copies the tuple
    /// itself pays no allocation per probe or per tuple. `None` once the
    /// space is covered (fused) or the stream was cancelled.
    pub fn next_tuple(&mut self) -> Option<&[Val]> {
        if self.done {
            return None;
        }
        let db: &Database = match &self.db {
            DbHandle::Borrowed(d) => d,
            DbHandle::Owned(b) => b,
        };
        while !self.is_cancelled() {
            if !self
                .cds
                .get_probe_point_into(&mut self.probe, &mut self.pst)
            {
                break;
            }
            let t = &self.probe[..];
            self.gaps.clear();
            let mut is_output = true;
            for (atom, cursor) in self.query.atoms.iter().zip(&mut self.cursors) {
                // Dispatch once per atom into a monomorphized explorer, so
                // the sorted path keeps its direct calls and the hybrid path
                // gets its rank/select overrides.
                let matched = match db.probe_target(atom.rel) {
                    StorageRef::Sorted(rel) => {
                        explore_atom(rel, atom, t, cursor, &mut self.gaps, &mut self.stats)
                    }
                    StorageRef::Hybrid(rel) => {
                        explore_atom(rel, atom, t, cursor, &mut self.gaps, &mut self.stats)
                    }
                };
                is_output &= matched;
            }
            if is_output {
                self.cds.insert_point_exclusion(t, &mut self.pst);
                self.stats.outputs += 1;
                return Some(match &self.inv {
                    None => &self.probe,
                    Some(inv) => {
                        self.out.clear();
                        self.out.extend(inv.iter().map(|&c| self.probe[c]));
                        &self.out
                    }
                });
            }
            for (pattern, lo, hi) in self.gaps.iter() {
                self.cds.insert(pattern, lo, hi, &mut self.pst);
            }
        }
        // Fuse only on genuine exhaustion; a cancelled stream simply
        // stops yielding (the shard's accounting marks it incomplete).
        if !self.is_cancelled() {
            self.done = true;
        }
        None
    }
}

impl Iterator for TupleStream<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        self.next_tuple().map(<[Val]>::to_vec)
    }
}

/// Folds CDS-internal counters into the execution statistics.
pub(crate) fn merge_probe_stats(stats: &mut ExecStats, pst: &ProbeStats) {
    stats.probe_points += pst.probe_points;
    stats.constraints_inserted += pst.constraints_inserted;
    stats.backtracks += pst.backtracks;
    stats.cds_next_calls += pst.next_calls;
}

/// Gap constraints discovered around one probe, stored flat so a probe
/// loop reuses the same memory for every probe: the patterns of all gaps
/// share one [`PatternComp`] arena, and each gap is a span of it plus its
/// open interval. `path` is the trie path of the exploration in progress,
/// the equalities of the next gap's pattern.
#[derive(Debug, Default)]
pub(crate) struct GapBuffer {
    comps: Vec<PatternComp>,
    /// `(start, len, lo, hi)`: the gap `⟨comps[start..start + len], (lo, hi)⟩`.
    spans: Vec<(usize, usize, Val, Val)>,
    path: Vec<Val>,
}

impl GapBuffer {
    /// Forgets every gap (keeping the memory).
    pub(crate) fn clear(&mut self) {
        self.comps.clear();
        self.spans.clear();
        self.path.clear();
    }

    /// Records the gap `(lo, hi)` found at atom depth `path.len()`:
    /// `⟨…equalities at the atom's GAO positions…, (lo, hi)⟩`, stars at
    /// the GAO positions the atom does not cover.
    fn push(&mut self, atom: &Atom, lo: Val, hi: Val) {
        let start = self.comps.len();
        let len = atom.attrs[self.path.len()];
        self.comps.resize(start + len, PatternComp::Star);
        for (&pos, &v) in atom.attrs.iter().zip(&self.path) {
            self.comps[start + pos] = PatternComp::Eq(v);
        }
        self.spans.push((start, len, lo, hi));
    }

    /// The recorded gaps, in discovery order: `(pattern, lo, hi)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[PatternComp], Val, Val)> + '_ {
        self.spans
            .iter()
            .map(|&(start, len, lo, hi)| (&self.comps[start..start + len], lo, hi))
    }
}

/// Explores one atom around probe `t` (Algorithm 2 lines 4–10 and 15–20):
/// appends the discovered gap constraints to `gaps` and returns whether
/// the all-exact descent matched `t`'s projection (line 11's test for this
/// relation).
pub(crate) fn explore_atom<S: TrieStorage>(
    rel: &S,
    atom: &Atom,
    t: &[Val],
    cursor: &mut GapCursor,
    gaps: &mut GapBuffer,
    stats: &mut ExecStats,
) -> bool {
    debug_assert!(gaps.path.is_empty(), "no exploration in progress");
    let mut ex = Explorer {
        rel,
        atom,
        t,
        cursor,
        gaps,
        stats,
        matched: true,
    };
    ex.explore(rel.root(), true);
    ex.matched
}

/// The state of one atom's exploration around one probe.
struct Explorer<'a, S> {
    rel: &'a S,
    atom: &'a Atom,
    t: &'a [Val],
    cursor: &'a mut GapCursor,
    gaps: &'a mut GapBuffer,
    stats: &'a mut ExecStats,
    /// Cleared when the exact path dies.
    matched: bool,
}

impl<S: TrieStorage> Explorer<'_, S> {
    /// Recursive `{ℓ, h}`-branch exploration from a trie node at atom
    /// depth `gaps.path.len()`. `on_exact_path` is true when every
    /// ancestor coordinate hit `t`'s projection exactly.
    fn explore(&mut self, node: NodeId, on_exact_path: bool) {
        let p = self.gaps.path.len();
        let a = self.t[self.atom.attrs[p]];
        let gap = self.cursor.find_gap(self.rel, node, a, self.stats);
        if !gap.exact() {
            // The gap (R[i^{v,ℓ}], R[i^{v,h}]) strictly brackets t's
            // coordinate.
            self.gaps.push(self.atom, gap.lo_val, gap.hi_val);
            if on_exact_path {
                self.matched = false;
            }
        }
        if p + 1 == self.atom.attrs.len() {
            return;
        }
        // Descend into the low and high bracketing children (deduplicated
        // when equal; skipped when out of range).
        let lo_in_range = gap.lo_coord >= 1;
        let hi_in_range = gap.hi_coord <= self.rel.child_count(node);
        if lo_in_range {
            let child = self.rel.child(node, gap.lo_coord);
            self.gaps.path.push(gap.lo_val);
            self.explore(child, on_exact_path && gap.exact());
            self.gaps.path.pop();
        } else if on_exact_path {
            self.matched = false;
        }
        if hi_in_range && gap.hi_coord != gap.lo_coord {
            let child = self.rel.child(node, gap.hi_coord);
            self.gaps.path.push(gap.hi_val);
            self.explore(child, false);
            self.gaps.path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minesweeper_cds::{NEG_INF, POS_INF};
    use minesweeper_storage::{builder, RelId};

    #[test]
    fn gap_constraint_positions() {
        // Atom over GAO positions (0, 2) of a 3-attribute query: a gap at
        // depth 1 must place its equality at position 0, a star at 1, and
        // the interval at 2.
        let atom = Atom {
            rel: RelId(0),
            attrs: vec![0, 2],
        };
        let mut gaps = GapBuffer::default();
        gaps.path.push(42);
        gaps.push(&atom, 5, 9);
        // Depth 0: interval at position 0, no pattern.
        gaps.path.clear();
        gaps.push(&atom, NEG_INF, POS_INF);
        let got: Vec<_> = gaps.iter().collect();
        assert_eq!(
            got,
            vec![
                (&[PatternComp::Eq(42), PatternComp::Star][..], 5, 9),
                (&[][..], NEG_INF, POS_INF),
            ]
        );
        gaps.clear();
        assert_eq!(gaps.iter().count(), 0, "clear forgets every gap");
    }

    #[test]
    fn stream_yields_incrementally_and_is_fused() {
        let mut db = Database::new();
        let r = db.add(builder::unary("R", [1, 3, 5, 7])).unwrap();
        let s = db.add(builder::unary("S", [3, 4, 7, 9])).unwrap();
        let q = Query::new(1).atom(r, &[0]).atom(s, &[0]);
        let mut stream = TupleStream::new(DbHandle::Borrowed(&db), q, ProbeMode::Chain, None);
        assert_eq!(stream.next(), Some(vec![3]));
        let mid = stream.stats();
        assert_eq!(mid.outputs, 1);
        assert!(mid.find_gap_calls > 0, "mid-stream stats are live");
        assert_eq!(stream.next(), Some(vec![7]));
        assert_eq!(stream.next(), None);
        assert!(stream.is_exhausted());
        assert_eq!(stream.next(), None, "fused after exhaustion");
        assert_eq!(stream.outputs(), 2);
    }

    #[test]
    fn early_termination_skips_probe_work() {
        // Example B.2's shape: |C| = O(1) but Z = N. Taking one tuple must
        // not pay for the remaining N − 1.
        let n: Val = 512;
        let mut db = Database::new();
        let r = db.add(builder::unary("R", 1..=n)).unwrap();
        let s = db
            .add(builder::binary("S", (1..=n).map(|i| (n, 10 * i))))
            .unwrap();
        let q = Query::new(2).atom(r, &[0]).atom(s, &[0, 1]);
        let mut stream =
            TupleStream::new(DbHandle::Borrowed(&db), q.clone(), ProbeMode::Chain, None);
        let first: Vec<Tuple> = stream.by_ref().take(1).collect();
        assert_eq!(first.len(), 1);
        let early = stream.stats();
        let mut full = TupleStream::new(DbHandle::Borrowed(&db), q, ProbeMode::Chain, None);
        let all: Vec<Tuple> = full.by_ref().collect();
        assert_eq!(all.len(), n as usize);
        let total = full.stats();
        assert!(
            early.probe_points * 8 < total.probe_points,
            "early stop must probe far less: {} vs {}",
            early.probe_points,
            total.probe_points
        );
    }
}
