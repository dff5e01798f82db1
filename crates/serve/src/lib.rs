//! # `ampc-serve` — the connectivity serving layer
//!
//! `ampc-query` froze one finished run into an immutable index; this crate
//! is what keeps that index **live**: the run→validate→index→serve
//! lifecycle as a first-class service API, safe for any number of reader
//! threads while rebuilds publish new indexes under traffic.
//!
//! * [`PublishedIndex`] — the published epoch, and the service's only copy
//!   of it: an `Arc<PublishedIndex>` behind a standard `RwLock`. Readers
//!   pin it with a read lock and an `Arc::clone`; a publish builds the next
//!   epoch outside that lock, holds the stream lock throughout and the
//!   write lock for one swap; a retired epoch is freed exactly when its
//!   last snapshot drops.
//! * [`ServiceBuilder`] / [`ServiceHandle`] — `ServiceBuilder::new(graph)
//!   .spec(spec).build()?` runs the configured [`PipelineSpec`], validates
//!   the labeling against the graph, freezes it into a `ComponentIndex`,
//!   and publishes epoch 0. The clone-able handle pins the published epoch
//!   as an `Arc<PublishedIndex>` and runs
//!   [`ServiceHandle::rebuild_blocking`] on the caller's thread — readers
//!   keep answering against their pinned epoch while the swap happens
//!   under live traffic. A rebuild returns after its publish, so calls that
//!   do not overlap publish in call order.
//! * [`ServiceHandle::insert_edges`] — the incremental delta path:
//!   streaming edge insertions merge dense component ids and publish as
//!   cheap **journal-epochs** ([`JournalView`] riding on an unchanged
//!   base index, each derived from the one before it in `O(components)`),
//!   byte-identical to a full rebuild of the merged graph; past a
//!   [`JournalBudget`] the insert compacts instead, folding the journal into
//!   a new base in `O(n)` with no edges and publishing that as its epoch.
//! * [`ServiceHandle::persist`] / [`ServiceBuilder::from_snapshot`] — the
//!   fan-out path: persist pins the published epoch and writes it as a
//!   versioned, checksummed snapshot (`ampc_query::snapshot`, atomic
//!   rename); boot is a header check, one bulk read and a validated
//!   decode, publishing epoch 0 with an index equal to the persisted one
//!   — no pipeline run.
//! * [`driver`] — the one striped closed-loop workload runner: a
//!   deterministic per-worker striping of one query stream (totals are
//!   seed-reproducible at any thread count), two clock reads per frame and
//!   none per query, one report type; generic over how a worker answers a
//!   frame — through its own pinned snapshot here, over a connection in
//!   `ampc-net`.
//! * [`fault`] + the degradation state machine — every risky seam
//!   (pipeline build, compaction fold, journal freeze, snapshot
//!   write/load) carries a named **failpoint** (the registry is
//!   `ampc_obs::fault`, re-exported here because this crate's callers arm
//!   it; it lives in the bottom crate so that `ampc-query` and `ampc-net`
//!   reach their own sites directly; compiled in always, one
//!   relaxed atomic load when disarmed); failures no longer vanish with
//!   their thread but land as typed incidents in a bounded log and drive
//!   `Healthy → Degraded → ReadOnly` ([`HealthState`]): a Degraded service
//!   retries the fold on every insert, and [`MAX_CONSECUTIVE_FAILURES`]
//!   bounds the failures in a row before inserts are refused. Reads keep
//!   serving the last published epoch in every state;
//!   [`ServiceBuilder::from_snapshot_or_rebuild`] gives boot the same
//!   no-single-failure-kills-us treatment.
//!
//! Per-epoch determinism carries over from the layers below: a published
//! index is a pure function of `(spec, graph)`, so every snapshot of one
//! epoch answers byte-identically — the property the swap-under-load tests
//! pin by fingerprinting answers against per-graph oracles.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
mod service;

pub use ampc_cc::pipeline::PipelineSpec;
pub use ampc_obs::fault::{self, FaultAction, InjectedFault, Site};
pub use ampc_query::{JournalView, SnapshotError};
pub use service::{
    BootSource, HealthReport, HealthState, Incident, IncidentOp, InsertReport, JournalBudget,
    PersistReport, PublishedIndex, ServeError, ServiceBuilder, ServiceHandle,
    MAX_CONSECUTIVE_FAILURES, MAX_INCIDENTS,
};
