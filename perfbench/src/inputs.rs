//! Seeded inputs. Every workload's data comes from the repository's own
//! generators in `crates/workloads`; the program under test only ever
//! sees the generated relation text and request lines.

use std::collections::BTreeSet;

use minesweeper_join::storage::Val;
use minesweeper_join::workloads::chung_lu;

/// Chung–Lu degree exponent for every workload graph (social-network
/// shaped: a few hubs, a long tail of low-degree nodes).
pub const GAMMA: f64 = 2.5;

/// A generated directed graph: distinct edges, sorted, plus the TSV text
/// the engine loads (one `src dst` line per edge, like an `msj --rel`
/// file).
pub struct Graph {
    pub nodes: Val,
    pub edges: Vec<(Val, Val)>,
    pub tsv: String,
}

impl Graph {
    /// A Chung–Lu graph drawing `samples` edges over `nodes` nodes
    /// (duplicates drawn twice are stored once).
    pub fn chung_lu(nodes: Val, samples: usize, seed: u64) -> Graph {
        let edges: Vec<(Val, Val)> = chung_lu(nodes, samples, GAMMA, seed)
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut tsv = String::with_capacity(edges.len() * 12);
        for (u, v) in &edges {
            tsv.push_str(&format!("{u} {v}\n"));
        }
        Graph { nodes, edges, tsv }
    }
}
