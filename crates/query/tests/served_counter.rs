//! `query_served_total` is process-wide, so its exact deltas are checked
//! here, in a test binary that runs nothing else.

use ampc_graph::Labeling;
use ampc_obs::{counter, CounterId, Histogram};
use ampc_query::throughput::{latency_pass, single_pass, timed_pass};
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
        single_pass(&engine, &queries);
        let after_single = served();
        timed_pass(&engine, &queries, &hist, &global, |_| {});
        let after_frame = served();
        latency_pass(&engine, &queries, &hist);
        let deltas = [after_single - start, after_frame - after_single, served() - after_frame];
        assert_eq!(deltas, [len as u64; 3], "single, frame and latency pass of {len} queries");
    }
}
