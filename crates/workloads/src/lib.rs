//! Workload and instance generators for the Minesweeper evaluation.
//!
//! * [`graphs`] — synthetic graph generators (Erdős–Rényi, Chung–Lu
//!   power-law, preferential attachment);
//! * [`snap_like`] — scaled stand-ins for the paper's three SNAP datasets
//!   (Orkut, Epinions, LiveJournal; Section 5.2) — see "Deviations from
//!   the paper" in `docs/ARCHITECTURE.md` for the substitution argument;
//! * [`queries`] — the star / 3-path / tree queries of Section 5.2 with
//!   Bernoulli(0.001-style) vertex sampling, plus triangle and path-k
//!   query builders;
//! * [`appendix_j`] — the hidden-certificate path instances separating
//!   Minesweeper from Yannakakis/NPRR/LFTJ (Appendix J);
//! * [`prop53`] — the `Q_w` instances on which Minesweeper itself needs
//!   `Ω(|C|^w)` (Proposition 5.3);
//! * [`intersection`] — set-intersection instance families for the
//!   Appendix H experiments;
//! * [`examples`] — the concrete instances of the paper's running examples
//!   (2.1, B.3/B.4, B.6, D.1, I.3).

pub mod appendix_j;
pub mod examples;
pub mod graphs;
pub mod intersection;
pub mod prop53;
pub mod queries;
pub mod random_queries;
pub mod snap_like;

pub use appendix_j::{hidden_certificate_instance, hidden_certificate_path_k};
pub use graphs::{chung_lu, erdos_renyi, preferential_attachment, symmetrize};
pub use queries::{
    layered_path_instance, path_query, star_query, three_path_query, tree_query, triangle_instance,
};
pub use random_queries::{random_tree_instance, TreeQueryConfig};
pub use snap_like::{DatasetProfile, GraphDataset};
