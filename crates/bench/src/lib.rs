//! # `ampc-bench` — experiment harness
//!
//! Regenerates every quantitative claim of the paper (the "tables and
//! figures" of this theory paper — see DESIGN.md's per-experiment index).
//! Each `eN_*` function runs one experiment and returns a [`Table`] whose
//! rows pair the paper's bound with the measured value. The
//! `experiments` binary prints them. The tables report exact counts and
//! nothing here times anything: wall clock belongs to `ledger/`
//! (`BENCHMARK.json`).
//!
//! Every experiment validates its labelings against sequential ground
//! truth and panics on a mismatch, so producing a table is also an
//! end-to-end correctness check.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::*;
pub use table::Table;
