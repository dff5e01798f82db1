//! The bound on DHT values.
//!
//! The AMPC model measures space and communication in *words*, and every
//! value stored in the DHT is one: a read, a write and an entry each cost
//! one word. Two concurrent merge-writes to one key keep the larger value,
//! the one rule every store applies ([`crate::DhtStorage::merge`]).
//!
//! Merging exists because Step 1 of `ShrinkSmallCycles` (Figure 1 of the
//! paper) has many traversals *stamp* the same vertex with their rank; the
//! semantically required resolution is "keep the maximum". The maximum is
//! associative and commutative, which keeps the simulation independent of
//! machine scheduling.

/// A value that can live in the shared DHT: one word, ordered for
/// merge-by-max. `Default` is the fill value of an empty dense slot; it is
/// never read as an entry.
pub trait DhtValue: Copy + Default + Ord + Send + Sync {}

impl<T: Copy + Default + Ord + Send + Sync> DhtValue for T {}
