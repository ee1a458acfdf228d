//! Microbenchmarks for the CDS building blocks (Props 3.1, E.2, E.3):
//! interval-set insertion/`Next`, sorted-list operations, and constraint
//! streams through the `ConstraintTree` in both probe modes.
//!
//! `interval_set/insert_desc` puts every insert at the front of the set and
//! grows it far past `FLAT_MAX` ranges: the worst case of the flat
//! representation, and the workload of the spilled one.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use minesweeper_cds::{
    Constraint, ConstraintTree, IntervalSet, Pattern, ProbeMode, ProbeStats, SortedList,
};

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

fn interval_set_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_set");
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("insert_merge", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = IntervalSet::new();
                let mut seed = 42u64;
                for _ in 0..n {
                    let lo = (xorshift(&mut seed) % 1_000_000) as i64;
                    s.insert_closed(lo, lo + 64);
                }
                black_box(s.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("next_scan", n), &n, |b, &n| {
            let mut s = IntervalSet::new();
            let mut seed = 42u64;
            for _ in 0..n {
                let lo = (xorshift(&mut seed) % 1_000_000) as i64;
                s.insert_closed(lo, lo + 32);
            }
            b.iter(|| {
                let mut v = -1i64;
                let mut count = 0u64;
                while v < 1_000_000 {
                    v = s.next(v) + 1;
                    count += 1;
                }
                black_box(count)
            })
        });
    }
    for &n in &[10_000i64, 100_000] {
        group.bench_with_input(BenchmarkId::new("insert_desc", n), &n, |b, &n| {
            b.iter(|| {
                let mut s = IntervalSet::new();
                for k in (0..n).rev() {
                    s.insert_closed(3 * k, 3 * k + 1);
                }
                black_box(s.len())
            })
        });
    }
    group.finish();
}

fn sorted_list_ops(c: &mut Criterion) {
    c.bench_function("sorted_list/insert_find_delete_10k", |b| {
        b.iter(|| {
            let mut l = SortedList::new();
            let mut seed = 7u64;
            for _ in 0..10_000 {
                l.insert((xorshift(&mut seed) % 100_000) as i64, ());
            }
            let mut hits = 0u64;
            for v in (0..100_000).step_by(97) {
                if l.find_lub(v).is_some() {
                    hits += 1;
                }
            }
            l.delete_range_closed(25_000, 75_000);
            black_box((hits, l.len()))
        })
    });
}

fn constraint_tree_stream(c: &mut Criterion) {
    c.bench_function("constraint_tree/insert_probe_stream", |b| {
        b.iter(|| {
            let mut cds = ConstraintTree::new(3, ProbeMode::General);
            let mut st = ProbeStats::default();
            let mut seed = 99u64;
            cds.insert_constraint(
                &Constraint::new(Pattern::empty(), minesweeper_cds::NEG_INF, 0),
                &mut st,
            );
            for _ in 0..500 {
                let a = (xorshift(&mut seed) % 50) as i64;
                let lo = (xorshift(&mut seed) % 100) as i64;
                cds.insert_constraint(&Constraint::new(Pattern::all_eq(&[a]), lo, lo + 8), &mut st);
                if let Some(t) = cds.get_probe_point(&mut st) {
                    cds.insert_constraint(&Constraint::point_exclusion(&t), &mut st);
                }
            }
            black_box(st.probe_points)
        })
    });
    // A chain-mode drain over [0, 300]²: every principal filter is the
    // chain ⟨a⟩ ⪯ ⟨˚⟩ (the shape of a 2-path under its nested elimination
    // order), fed random gaps under both patterns and point exclusions.
    c.bench_function("constraint_tree/chain_probe_stream", |b| {
        b.iter(|| {
            let mut cds = ConstraintTree::new(2, ProbeMode::Chain);
            let mut st = ProbeStats::default();
            let mut seed = 7u64;
            for p in [Pattern::empty(), Pattern::all_star(1)] {
                let inf = (minesweeper_cds::NEG_INF, minesweeper_cds::POS_INF);
                cds.insert_constraint(&Constraint::new(p.clone(), inf.0, 0), &mut st);
                cds.insert_constraint(&Constraint::new(p, 300, inf.1), &mut st);
            }
            while let Some(t) = cds.get_probe_point(&mut st) {
                let width = (xorshift(&mut seed) % 6) as i64;
                // Rare wildcard gaps, so most rows are covered one by one.
                let c = match xorshift(&mut seed) % 16 {
                    0 => Constraint::new(Pattern::all_star(1), t[1] - 1, t[1] + width + 1),
                    1..=11 => Constraint::new(Pattern::all_eq(&t[..1]), t[1] - 1, t[1] + width + 1),
                    _ => Constraint::point_exclusion(&t),
                };
                cds.insert_constraint(&c, &mut st);
            }
            black_box(st.probe_points)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = interval_set_ops, sorted_list_ops, constraint_tree_stream
);
criterion_main!(benches);
