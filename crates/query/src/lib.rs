//! # `ampc-query` — the read path of the connectivity system
//!
//! The pipelines in `ampc-cc` end where a `Labeling` begins; this crate is
//! what *serves* that labeling. It turns one finished run into an immutable,
//! cache-friendly structure that answers connectivity queries at memory
//! speed:
//!
//! * [`ComponentIndex`] — labels rank-remapped to dense
//!   `0..num_components` component ids (`comp_of`, the partition) plus a
//!   class table of per-component sizes and a by-size ordering, `4n + 8c`
//!   bytes, so [`ComponentIndex::connected`],
//!   [`ComponentIndex::component_of`], [`ComponentIndex::component_size`],
//!   and [`ComponentIndex::top_k`] are all O(1) array reads with no
//!   hashing on the query path;
//! * [`QueryEngine`] — single-query and batch (slice-in/slice-out,
//!   allocation-free) execution of the [`Query`] algebra, with a checked
//!   contract for out-of-range vertices ([`QueryEngine::try_answer`] /
//!   the [`NO_ANSWER`] sentinel — a hostile query file or a stream built
//!   against an older, larger epoch never panics a serving thread) and an
//!   optional merge-aware path through a journal;
//! * [`JournalView`] — a frozen batch of component merges over a base
//!   index (`O(components)` to build and hold), the read side of the
//!   serving layer's incremental journal-epochs: resolves base dense ids
//!   to merged dense ids in one extra array read, byte-identical to a
//!   from-scratch rebuild of the merged graph;
//! * [`snapshot`] — versioned, checksummed on-disk persistence of an
//!   index + labeling as `comp_of` plus one label per class, so a replica
//!   boot is a header check, one bulk read, a validated decode and the
//!   same ranking a live build runs — no pipeline run, and a booted
//!   [`ComponentIndex`] is equal to the built one it was persisted from;
//! * [`workload`] — deterministic SplitMix64-seeded query-mix generators
//!   (uniform, Zipf-skewed, adversarial cross-component) in the same style
//!   as the graph generators, plus a plain-text query-file format;
//! * [`throughput`] — the one timed pass: a frame answered under one clock
//!   pair and recorded once, shared by the network server and the
//!   closed-loop runner.
//!
//! The index is **immutable by design**: a build is a pure function of the
//! labeling's partition (dense ids are assigned by minimum member vertex,
//! not by the arbitrary input label values), so two labelings that induce
//! the same partition — e.g. an AMPC run and the union-find reference —
//! build byte-identical indexes. That determinism is what the
//! cross-validation matrix pins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
mod index;
pub mod journal;
pub mod snapshot;
pub mod throughput;
pub mod workload;

pub use engine::{BatchLenError, Query, QueryEngine, NO_ANSWER};
pub use index::{ComponentId, ComponentIndex};
pub use journal::JournalView;
pub use snapshot::{Snapshot, SnapshotError};
