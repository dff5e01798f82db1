//! # adaptive-mpc-connectivity
//!
//! Umbrella crate for the reproduction of *"Adaptive Massively Parallel
//! Connectivity in Optimal Space"* (Latypov, Łącki, Maus, Uitto — SPAA 2023).
//!
//! Re-exports six layers of the workspace:
//!
//! * [`ampc`] — the AMPC model runtime simulator (DHT, machines, rounds,
//!   space/query metering);
//! * [`graph`] — the graph substrate (CSR storage, generators, Euler tours,
//!   contraction, ground-truth connectivity);
//! * [`cc`] — the paper's algorithms (Algorithm 1 forest pipeline,
//!   Algorithm 2 general-graph recursion) plus cited subroutines and
//!   baselines;
//! * [`query`] — the read path: immutable component index, batch query
//!   engine, and deterministic workload driver over finished runs;
//! * [`serve`] — the serving layer: `PipelineSpec`-driven
//!   `ConnectivityService` with epoch-swapped index snapshots,
//!   rebuilds under live traffic, and the multi-threaded workload
//!   driver;
//! * [`net`] — the network front-end: a hand-rolled TCP server speaking a
//!   length-prefixed binary protocol over the service's pinned
//!   snapshots, with bounded admission backpressure and a closed-loop
//!   multi-connection client harness.
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the full system inventory.

#![forbid(unsafe_code)]

pub use ampc;
pub use ampc_cc as cc;
pub use ampc_graph as graph;
pub use ampc_net as net;
pub use ampc_query as query;
pub use ampc_serve as serve;
