//! # `ampc-graph` — graph substrate for the AMPC connectivity reproduction
//!
//! Everything the paper's algorithms need *around* the AMPC model:
//!
//! * [`Graph`] — compact CSR storage for undirected graphs, and
//!   [`Forest`], the proof [`Graph::as_forest`] gives that one is acyclic;
//! * [`generators`] — seeded workload families (forests, cycles, random
//!   graphs, grids, power-law graphs, adversarial shapes);
//! * [`euler`] — the Tarjan–Vishkin forest→cycles reduction backing
//!   Observation 3.1 of the paper;
//! * [`degree3`] — the max-degree-3 gadget transform used by
//!   `ShrinkGeneral` (§4.3);
//! * [`contract`] — the `Contract(G, C)` CC-shrinking primitive
//!   (Observation 2.2);
//! * [`UnionFind`] / [`Labeling`] — sequential ground truth and CC-labeling
//!   comparison, used to validate every AMPC run;
//! * [`relabel`] — the one relabel of a partition to dense class ids, which
//!   `Contract`, the labeling comparisons, the metrics and the query
//!   crate's component index all read.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod contract;
mod csr;
pub mod degree3;
pub mod euler;
pub mod generators;
pub mod io;
mod labeling;
pub mod metrics;
mod unionfind;

pub use csr::{Forest, Graph, Input, VertexId};
pub use labeling::{reference_components, relabel, Labeling, Relabeled};
pub use unionfind::UnionFind;
