//! `query_served_total` is process-wide, so its exact deltas are checked
//! here, in a test binary that runs nothing else.

use ampc_graph::Labeling;
use ampc_obs::{counter, CounterId, Histogram};
use ampc_query::throughput::{answer_frame, timed_pass};
use ampc_query::workload::{self, Mix};
use ampc_query::{ComponentIndex, QueryEngine};

#[test]
fn every_pass_counts_each_query_once() {
    let idx = ComponentIndex::build(&Labeling(vec![0, 0, 1, 1, 2, 2, 2, 3]));
    let engine = QueryEngine::new(&idx);
    let served = || counter(CounterId::QueriesServed).get();
    for len in [0usize, 1, 513, 4096] {
        let queries = workload::generate(&idx, Mix::Uniform, len, 31);
        let (hist, global) = (Histogram::new(), Histogram::new());
        let start = served();
        answer_frame(&engine, &queries, |_| {});
        let after_untimed = served();
        timed_pass(&engine, &queries, &hist, &global, |_| {});
        let deltas = [after_untimed - start, served() - after_untimed];
        assert_eq!(deltas, [len as u64; 2], "untimed and timed pass of {len} queries");
    }
}
