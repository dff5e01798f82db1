//! Value trait for DHT entries.
//!
//! The AMPC model measures space in *words*. Every value stored in the DHT
//! reports its width via [`DhtValue::words`], and optionally defines how two
//! concurrent writes to the same key combine ([`DhtValue::merge`]).
//!
//! Merging exists because Step 1 of `ShrinkSmallCycles` (Figure 1 of the
//! paper) has many traversals *stamp* the same vertex with their rank; the
//! semantically required resolution is "keep the maximum". An associative
//! commutative combiner is physically realistic for a DHT (it is an
//! aggregating write) and keeps the simulation independent of machine
//! scheduling.

/// A value that can live in the shared DHT.
///
/// `Default` is the fill value of an empty dense slot; it is never read as
/// an entry.
pub trait DhtValue: Clone + Default + Send + Sync {
    /// Number of machine words this value occupies. Space and communication
    /// accounting are denominated in this unit.
    fn words(&self) -> usize;

    /// Combines a concurrently written value into `self`.
    ///
    /// Called when two machines issue merge-writes
    /// ([`crate::MachineCtx::write_merge`]) to the same key in one round.
    /// Must be associative and commutative so that results do not depend on
    /// machine order. The default keeps the larger operand according to the
    /// implementor's notion of priority; types that never use merge-writes
    /// can rely on the default, which panics to surface accidental use.
    fn merge(&mut self, other: Self) {
        let _ = other;
        panic!(
            "DhtValue::merge not implemented for this type; use write() instead of write_merge()"
        );
    }
}

impl DhtValue for u64 {
    fn words(&self) -> usize {
        1
    }

    /// `u64` merges by maximum — the combiner used for rank stamps.
    fn merge(&mut self, other: Self) {
        if other > *self {
            *self = other;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_merges_by_max() {
        let mut a = 3u64;
        a.merge(9);
        assert_eq!(a, 9);
        a.merge(1);
        assert_eq!(a, 9);
    }

    #[test]
    #[should_panic(expected = "merge not implemented")]
    fn default_merge_panics() {
        #[derive(Clone, Default)]
        struct NoMerge;
        impl DhtValue for NoMerge {
            fn words(&self) -> usize {
                1
            }
        }
        let mut x = NoMerge;
        x.merge(NoMerge);
    }
}
