//! Batch query engine over a [`ComponentIndex`], optionally merge-aware
//! through a [`JournalView`].
//!
//! The engine's contract is the serving-layer hot path: queries and
//! answers are plain `Copy` values, batches are slice-in/slice-out, and
//! executing a batch performs **zero allocations** — the caller owns both
//! buffers and reuses them across batches. Answers are `u64` so one
//! uniform answer type covers the whole [`Query`] algebra (`Connected`
//! encodes as 0/1).
//!
//! **Checked-query contract.** A query naming a vertex the index does not
//! cover — a stream built against epoch `N` answered on a smaller-graph
//! epoch `N+1`, or a hostile query file — must never kill a serving
//! thread. [`QueryEngine::try_answer`] returns `None` for such queries;
//! [`QueryEngine::answer`] mirrors that in the `u64` encoding as
//! [`NO_ANSWER`] (`u64::MAX`, unreachable by any real answer: component
//! ids are `u32`, sizes are `≤ n`, and `Connected` is 0/1). No query path
//! panics on out-of-range ids.
//!
//! **Journal-aware reads.** An engine built with
//! [`QueryEngine::with_journal`] resolves every dense component id through
//! the journal's remap table — one extra bounded-depth array read — so a
//! journal-epoch answers the whole algebra without rebuilding the
//! `O(n)`-sized index (see [`crate::journal`] for the byte-identity
//! argument).

use std::fmt;

use ampc_graph::VertexId;

use crate::index::{ComponentId, ComponentIndex};
use crate::journal::JournalView;

/// The `u64` answer encoding of "this query has no answer on this epoch"
/// (an out-of-range vertex id). Distinguishable from every real answer:
/// ids are `u32`, sizes at most `n`, `Connected` is 0/1.
pub const NO_ANSWER: u64 = u64::MAX;

/// Typed error for a mismatched batch: the query and answer slices must
/// have equal lengths. Carries both lengths so the caller's error message
/// can say which side was short.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BatchLenError {
    /// Length of the query slice.
    pub queries: usize,
    /// Length of the answer slice.
    pub answers: usize,
}

impl fmt::Display for BatchLenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch slices must have equal length: {} queries vs {} answer slots",
            self.queries, self.answers
        )
    }
}

impl std::error::Error for BatchLenError {}

/// One connectivity query. All variants answer in O(1) array reads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Are `u` and `v` in the same component? Answer: 1 or 0.
    Connected(VertexId, VertexId),
    /// Dense component id of `v`.
    ComponentOf(VertexId),
    /// Size of the component containing `v`.
    ComponentSize(VertexId),
    /// Size of the `k`-th largest component (1-based); 0 when there are
    /// fewer than `k` components.
    TopKSize(u32),
}

impl Query {
    /// [`Query::Connected`], spelled so a caller survives a change of the
    /// enum's layout.
    ///
    /// ```
    /// use ampc_query::Query;
    /// const Q: Query = Query::connected(3, 5);
    /// assert_eq!(Q, Query::Connected(3, 5));
    /// ```
    pub const fn connected(u: VertexId, v: VertexId) -> Query {
        Query::Connected(u, v)
    }

    /// [`Query::ComponentOf`].
    ///
    /// ```
    /// use ampc_query::Query;
    /// const Q: Query = Query::component_of(5);
    /// assert_eq!(Q, Query::ComponentOf(5));
    /// ```
    pub const fn component_of(v: VertexId) -> Query {
        Query::ComponentOf(v)
    }

    /// [`Query::ComponentSize`].
    ///
    /// ```
    /// use ampc_query::Query;
    /// const Q: Query = Query::component_size(5);
    /// assert_eq!(Q, Query::ComponentSize(5));
    /// ```
    pub const fn component_size(v: VertexId) -> Query {
        Query::ComponentSize(v)
    }

    /// [`Query::TopKSize`].
    ///
    /// ```
    /// use ampc_query::Query;
    /// const Q: Query = Query::top_k_size(2);
    /// assert_eq!(Q, Query::TopKSize(2));
    /// ```
    pub const fn top_k_size(k: u32) -> Query {
        Query::TopKSize(k)
    }
}

/// Executes [`Query`] values against an immutable [`ComponentIndex`],
/// resolving merges through an optional [`JournalView`].
///
/// The engine borrows the index (and journal), so any number of engines
/// (one per serving thread) can read the same epoch concurrently —
/// immutability *is* the concurrency story of the read path.
#[derive(Copy, Clone, Debug)]
pub struct QueryEngine<'a> {
    index: &'a ComponentIndex,
    journal: Option<&'a JournalView>,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine over `index` with no journal (a full epoch).
    pub fn new(index: &'a ComponentIndex) -> Self {
        QueryEngine { index, journal: None }
    }

    /// Creates a merge-aware engine: every dense id read out of `index` is
    /// resolved through `journal` (one extra array read per id).
    pub fn with_journal(index: &'a ComponentIndex, journal: &'a JournalView) -> Self {
        QueryEngine { index, journal: Some(journal) }
    }

    /// The underlying index.
    pub fn index(&self) -> &'a ComponentIndex {
        self.index
    }

    /// The journal this engine resolves merges through, if any.
    pub fn journal(&self) -> Option<&'a JournalView> {
        self.journal
    }

    /// Merged dense component id of `v`, or `None` when `v` is out of
    /// range for this epoch's graph.
    #[inline]
    fn comp(&self, v: VertexId) -> Option<ComponentId> {
        let c = self.index.try_component_of(v)?;
        Some(match self.journal {
            Some(j) => j.resolve(c),
            None => c,
        })
    }

    /// Answers one query, or `None` when it names an out-of-range vertex.
    #[inline]
    pub fn try_answer(&self, q: Query) -> Option<u64> {
        Some(match q {
            Query::Connected(u, v) => (self.comp(u)? == self.comp(v)?) as u64,
            Query::ComponentOf(v) => self.comp(v)? as u64,
            // Each arm names its class table: a table chosen once (a third
            // field, or a helper the compiler hoists out of `answer_batch`'s
            // loop) spilled a register there and measured 3–6 % slower on
            // the ledger's wire workloads.
            Query::ComponentSize(v) => {
                let c = self.comp(v)?;
                match self.journal {
                    Some(j) => j.classes().size_of(c) as u64,
                    None => self.index.classes().size_of(c) as u64,
                }
            }
            Query::TopKSize(k) => match self.journal {
                Some(j) => j.classes().kth_largest_size(k as usize) as u64,
                None => self.index.classes().kth_largest_size(k as usize) as u64,
            },
        })
    }

    /// Answers one query; an out-of-range vertex answers [`NO_ANSWER`]
    /// instead of panicking (the `u64` mirror of
    /// [`QueryEngine::try_answer`]'s `None`).
    #[inline]
    pub fn answer(&self, q: Query) -> u64 {
        self.try_answer(q).unwrap_or(NO_ANSWER)
    }

    /// Answers `queries[i]` into `answers[i]` for every `i`: slice in,
    /// slice out, no allocation. The tight loop over `Copy` values is what
    /// the ledger's `query.batch_ns_per_query.*` rows measure against the
    /// one-call-per-query `query.single_ns_per_query`. Out-of-range vertices answer [`NO_ANSWER`], same as
    /// [`QueryEngine::answer`].
    ///
    /// # Errors
    /// Returns [`BatchLenError`] — without touching either slice — when the
    /// slices differ in length, so a serving thread rejects a malformed
    /// batch and keeps serving. An empty pair of slices is a valid no-op
    /// batch.
    pub fn answer_batch(
        &self,
        queries: &[Query],
        answers: &mut [u64],
    ) -> Result<(), BatchLenError> {
        if queries.len() != answers.len() {
            return Err(BatchLenError { queries: queries.len(), answers: answers.len() });
        }
        for (slot, &q) in answers.iter_mut().zip(queries) {
            *slot = self.answer(q);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::Labeling;

    /// Components: {0,1,2} id 0, {3,4} id 1, {5} id 2.
    fn engine_fixture() -> ComponentIndex {
        ComponentIndex::build(&Labeling(vec![8, 8, 8, 2, 2, 5]))
    }

    #[test]
    fn single_answers_cover_the_algebra() {
        let idx = engine_fixture();
        let eng = QueryEngine::new(&idx);
        assert_eq!(eng.answer(Query::Connected(0, 2)), 1);
        assert_eq!(eng.answer(Query::Connected(0, 3)), 0);
        assert_eq!(eng.answer(Query::ComponentOf(4)), 1);
        assert_eq!(eng.answer(Query::ComponentSize(1)), 3);
        assert_eq!(eng.answer(Query::TopKSize(1)), 3);
        assert_eq!(eng.answer(Query::TopKSize(3)), 1);
        assert_eq!(eng.answer(Query::TopKSize(4)), 0);
    }

    #[test]
    fn out_of_range_vertices_answer_the_sentinel_not_a_panic() {
        let idx = engine_fixture();
        let eng = QueryEngine::new(&idx);
        // Every vertex-carrying variant, both sides of Connected.
        assert_eq!(eng.answer(Query::Connected(0, 6)), NO_ANSWER);
        assert_eq!(eng.answer(Query::Connected(6, 0)), NO_ANSWER);
        assert_eq!(eng.answer(Query::Connected(u32::MAX, u32::MAX)), NO_ANSWER);
        assert_eq!(eng.answer(Query::ComponentOf(6)), NO_ANSWER);
        assert_eq!(eng.answer(Query::ComponentSize(99)), NO_ANSWER);
        assert_eq!(eng.try_answer(Query::ComponentOf(6)), None);
        assert_eq!(eng.try_answer(Query::ComponentOf(5)), Some(2));
        // TopKSize has no vertex, so it always answers.
        assert_eq!(eng.try_answer(Query::TopKSize(999)), Some(0));
        // Batches carry the sentinel through, in position.
        let mut answers = vec![0u64; 3];
        eng.answer_batch(
            &[Query::ComponentOf(0), Query::ComponentOf(6), Query::ComponentOf(5)],
            &mut answers,
        )
        .unwrap();
        assert_eq!(answers, vec![0, NO_ANSWER, 2]);
    }

    #[test]
    fn journal_aware_engine_resolves_merges() {
        use crate::journal::JournalView;
        let idx = engine_fixture();
        // Merge base components 1 and 2 ({3,4} ∪ {5}).
        let journal = JournalView::build(&[0, 2, 2], &idx).unwrap();
        let eng = QueryEngine::with_journal(&idx, &journal);
        assert!(eng.journal().is_some());
        assert_eq!(eng.answer(Query::Connected(3, 5)), 1);
        assert_eq!(eng.answer(Query::Connected(0, 5)), 0);
        assert_eq!(eng.answer(Query::ComponentOf(5)), 1);
        assert_eq!(eng.answer(Query::ComponentSize(5)), 3);
        assert_eq!(eng.answer(Query::TopKSize(1)), 3);
        assert_eq!(eng.answer(Query::TopKSize(2)), 3);
        assert_eq!(eng.answer(Query::TopKSize(3)), 0);
        // The merged answers are byte-identical to a fresh build of the
        // merged partition.
        let fresh = ComponentIndex::build(&Labeling(vec![8, 8, 8, 2, 2, 2]));
        let fresh_eng = QueryEngine::new(&fresh);
        for v in 0..6u32 {
            assert_eq!(
                eng.answer(Query::ComponentOf(v)),
                fresh_eng.answer(Query::ComponentOf(v)),
                "vertex {v}"
            );
            assert_eq!(
                eng.answer(Query::ComponentSize(v)),
                fresh_eng.answer(Query::ComponentSize(v)),
            );
        }
        // Sentinel passes through the journal path too.
        assert_eq!(eng.answer(Query::ComponentOf(6)), NO_ANSWER);
    }

    #[test]
    fn batch_matches_single_query_answers() {
        let idx = engine_fixture();
        let eng = QueryEngine::new(&idx);
        let queries = vec![
            Query::Connected(0, 1),
            Query::Connected(2, 5),
            Query::ComponentOf(5),
            Query::ComponentSize(3),
            Query::TopKSize(2),
        ];
        let mut answers = vec![0u64; queries.len()];
        eng.answer_batch(&queries, &mut answers).unwrap();
        let singles: Vec<u64> = queries.iter().map(|&q| eng.answer(q)).collect();
        assert_eq!(answers, singles);
        assert_eq!(answers, vec![1, 0, 2, 2, 2]);
    }

    #[test]
    fn batch_buffers_are_reusable() {
        let idx = engine_fixture();
        let eng = QueryEngine::new(&idx);
        let mut answers = vec![0u64; 2];
        eng.answer_batch(&[Query::Connected(0, 1), Query::Connected(0, 3)], &mut answers).unwrap();
        assert_eq!(answers, vec![1, 0]);
        eng.answer_batch(&[Query::ComponentOf(0), Query::ComponentOf(3)], &mut answers).unwrap();
        assert_eq!(answers, vec![0, 1]);
    }

    #[test]
    fn mismatched_batch_lengths_are_a_typed_error() {
        let idx = engine_fixture();
        let eng = QueryEngine::new(&idx);
        // Short answer slice: rejected, and the answer buffer is untouched.
        let mut answers = vec![99u64; 1];
        let err = eng
            .answer_batch(&[Query::TopKSize(1), Query::TopKSize(2)], &mut answers)
            .expect_err("mismatched lengths must be rejected");
        assert_eq!(err, BatchLenError { queries: 2, answers: 1 });
        assert_eq!(answers, vec![99], "a rejected batch must not write answers");
        // Short query slice: same contract, lengths swapped.
        let mut answers = vec![0u64; 3];
        let err = eng.answer_batch(&[Query::TopKSize(1)], &mut answers).unwrap_err();
        assert_eq!((err.queries, err.answers), (1, 3));
        assert!(err.to_string().contains("1 queries vs 3 answer slots"));
    }

    #[test]
    fn empty_batch_is_a_valid_no_op() {
        let idx = engine_fixture();
        let eng = QueryEngine::new(&idx);
        eng.answer_batch(&[], &mut []).expect("empty batch must succeed");
    }
}
