//! Seeded workload generators.
//!
//! The paper's intro motivates connectivity on massive real-world graphs;
//! its analysis distinguishes forests (Theorem 1.1) from general graphs
//! (Theorem 1.2) and stresses particular shapes (long paths for the
//! sampling lower bound discussion in §1.3, short cycles for the additive
//! `2^B` term in Lemma 3.10). These modules provide deterministic seeded
//! generators for all of those shapes plus standard random-graph families.

mod forest;
mod general;

pub use forest::{
    balanced_binary_tree, broom, caterpillar, kary_tree, path, random_attachment_tree,
    random_forest, spider, star, ForestFamily,
};
pub use general::{
    barbell, complete, disjoint_cliques, disjoint_union, erdos_renyi_gnm, erdos_renyi_gnp, grid2d,
    lollipop, preferential_attachment, random_bipartite, GraphFamily,
};
