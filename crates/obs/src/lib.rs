//! # ampc-obs — zero-dependency observability for the connectivity stack
//!
//! Metrics and tracing with no external crates: `const`-constructible
//! primitives living in process-wide statics. The recording paths that can
//! sit on a hot path take no lock — counters, gauges, histograms and
//! disarmed failpoints are relaxed atomics; the one that takes a lock is
//! the trace ring (a mutex held for one slot store), whose record sites
//! are per round, per publish or per persist.
//!
//! - [`Counter`] / [`Gauge`] — one relaxed atomic RMW per event.
//! - [`Histogram`] — log2-bucketed, sharded per thread; three relaxed RMWs
//!   on a private shard per record; merged on read; reports
//!   p50/p90/p99/p999/max with a within-one-bucket error bound.
//! - [`Timer`] — a latency span on the process monotonic clock
//!   ([`monotonic_ns`]); per-frame loops take an injectable [`Clock`]
//!   ([`MonotonicClock`] in production, [`CountingClock`] in tests).
//! - [`TraceRing`] — bounded, mutexed flight recorder of typed
//!   [`TraceEvent`]s with exact sequence numbers.
//! - [`catalog!`] — one table per catalogue enum (`Variant [= repr] =>
//!   "stable_name", "help"`): the metric ids, [`TraceKind`], [`fault::Site`]
//!   and the wire and health enums of the crates above are each one
//!   invocation.
//! - [`registry`] — the static catalog ([`CounterId`] / [`GaugeId`] /
//!   [`HistId`]) plus Prometheus-text ([`render_text`]) and human
//!   ([`render_table`]) exposition.
//! - [`fault`] — the failpoint registry: named fault-injection sites, one
//!   relaxed load when disarmed. It lives in this crate because every crate
//!   that carries a site (`ampc-query`, `ampc-serve`, `ampc-net`) depends
//!   on it, and it is the same kind of thing as the catalog above: a
//!   process-global array of static sites.
//!
//! Recording sites call e.g.
//! `obs::counter(CounterId::Rounds).inc()` — an index into a static array
//! plus one relaxed `fetch_add`, the metric analogue of a disarmed
//! failpoint.

#![forbid(unsafe_code)]

mod catalog;
pub mod clock;
pub mod fault;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use clock::{monotonic_ns, Clock, CountingClock, MonotonicClock};
pub use metrics::{
    bucket_of, bucket_upper, Counter, Gauge, HistSnapshot, Histogram, Timer, BUCKETS,
};
pub use registry::{
    counter, gauge, hist, render_table, render_text, summary, trace, trace_last, trace_recorded,
    CounterId, GaugeId, HistId,
};
pub use trace::{TraceEvent, TraceKind, TraceRing, TRACE_CAP};
