//! # ampc-net — the network serving front-end
//!
//! A hand-rolled TCP layer (zero dependencies, `std::net` only) that puts
//! the serving stack of PRs 5–9 on the wire:
//!
//! * [`protocol`] — the versioned length-prefixed binary framing: a fixed
//!   16-byte header validated before any allocation, typed opcodes for
//!   batch queries / health / metrics / edge inserts / shutdown, and
//!   typed error frames mirroring the in-process `ServeError`s.
//! * [`server`] — a fixed worker pool over a **bounded admission queue**:
//!   past the high-water mark the accept thread sheds deterministically
//!   with a typed `Overloaded` reply; each query-batch frame pins one
//!   `Arc<PublishedIndex>`, so rebuilds publishing mid-flight never tear a
//!   batch.
//! * [`client`] — a single-connection RPC wrapper plus the TCP transport of
//!   `ampc_serve::driver`'s closed-loop runner: seeded workloads replayed
//!   over connections that reconnect and retry, one report type with the
//!   in-process run, client-measured **wire latency** kept apart from the
//!   server's **service latency**.
//!
//! Chaos scheduling reuses the `serve::fault` registry: `net.accept`,
//! `net.read` and `net.write` failpoints sit on the accept path and on
//! every frame read/write, so tests can cut the wire deterministically on
//! either side.
//!
//! See `DESIGN.md` § "`ampc-net`: the TCP front-end" for the frame layout, the
//! version-bump policy, and the backpressure/safety arguments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{prom_histogram_quantiles, run_harness, ClientError, Connection, HarnessConfig};
pub use protocol::{ErrorCode, NetError, Opcode, ProtocolError, WireHealth, WireInsertReport};
pub use server::{serve, ServerConfig, ServerHandle};
