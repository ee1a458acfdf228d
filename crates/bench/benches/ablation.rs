//! Ablation benches for the design choices that "Deviations from the paper"
//! in `docs/ARCHITECTURE.md` calls out:
//!
//! * **chain-walk memoization** (Algorithm 4 line 13): disabling it keeps
//!   results identical but loses Lemma 4.3's amortization — Example 4.1
//!   degrades from `Õ(N²)` to `Ω(N³)`;
//! * **Chain vs General probe mode** on a β-acyclic query: the shadow
//!   machinery must cost little when the filter already is a chain.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use minesweeper_cds::{Constraint, ConstraintTree, Pattern, PatternComp, ProbeMode, ProbeStats};
use minesweeper_core::minesweeper_join;
use minesweeper_workloads::appendix_j::hidden_certificate_instance;

/// Example 4.1's constraint system over a, b ∈ [n].
fn example_4_1(memoize: bool, n: i64) -> u64 {
    use PatternComp::{Eq, Star};
    let mut cds = ConstraintTree::with_options(3, ProbeMode::Chain, memoize);
    let mut st = ProbeStats::default();
    for d in 0..2usize {
        let p = Pattern::all_star(d);
        cds.insert_constraint(
            &Constraint::new(p.clone(), minesweeper_cds::NEG_INF, 1),
            &mut st,
        );
        cds.insert_constraint(&Constraint::new(p, n, minesweeper_cds::POS_INF), &mut st);
    }
    for a in 1..=n {
        for b in 1..=n {
            cds.insert_constraint(
                &Constraint::new(Pattern::all_eq(&[a, b]), minesweeper_cds::NEG_INF, 1),
                &mut st,
            );
        }
    }
    for b in 1..=n {
        for i in 1..=n {
            cds.insert_constraint(
                &Constraint::new(Pattern(vec![Star, Eq(b)]), 2 * i - 2, 2 * i),
                &mut st,
            );
        }
    }
    for i in 1..=n {
        cds.insert_constraint(
            &Constraint::new(Pattern::all_star(2), 2 * i - 1, 2 * i + 1),
            &mut st,
        );
    }
    cds.insert_constraint(
        &Constraint::new(Pattern::all_star(2), 2 * n, minesweeper_cds::POS_INF),
        &mut st,
    );
    cds.insert_constraint(
        &Constraint::new(Pattern::all_star(2), minesweeper_cds::NEG_INF, 1),
        &mut st,
    );
    assert!(cds.get_probe_point(&mut st).is_none());
    st.next_calls
}

fn memoization_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_memoization");
    group.sample_size(10);
    for &n in &[16i64, 32] {
        group.bench_with_input(BenchmarkId::new("with_memo", n), &n, |b, &n| {
            b.iter(|| black_box(example_4_1(true, n)))
        });
        group.bench_with_input(BenchmarkId::new("without_memo", n), &n, |b, &n| {
            b.iter(|| black_box(example_4_1(false, n)))
        });
    }
    group.finish();
}

fn chain_vs_general_mode(c: &mut Criterion) {
    // On a β-acyclic query both modes are correct; General pays for
    // linearization + suffix meets. The overhead should be modest.
    let inst = hidden_certificate_instance(4, 32);
    let mut group = c.benchmark_group("ablation_probe_mode");
    group.sample_size(10);
    group.bench_function("chain", |b| {
        b.iter(|| {
            black_box(
                minesweeper_join(&inst.db, &inst.query, ProbeMode::Chain)
                    .unwrap()
                    .stats
                    .probe_points,
            )
        })
    });
    group.bench_function("general", |b| {
        b.iter(|| {
            black_box(
                minesweeper_join(&inst.db, &inst.query, ProbeMode::General)
                    .unwrap()
                    .stats
                    .probe_points,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, memoization_ablation, chain_vs_general_mode);
criterion_main!(benches);
