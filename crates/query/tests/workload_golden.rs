//! Golden fingerprints of the generated query streams.
//!
//! `workload::generate` feeds the cross-validation matrix, the CLI's
//! `query` runs and the ledger's wire frames, so a change in how it draws —
//! in particular how the cross-component mix picks its two members — moves
//! numbers far from this crate. The fingerprint is FNV-1a over every
//! query's `(tag, a, b)` words, for the standard mixes × two seeds, on an
//! index with many components and on an index with one.

use ampc_graph::generators::{erdos_renyi_gnm, path};
use ampc_graph::reference_components;
use ampc_query::workload::{self, Mix};
use ampc_query::{ComponentIndex, Query};

fn fingerprint(index: &ComponentIndex) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for mix in Mix::STANDARD {
        for seed in [1, 0xC0FFEE] {
            for q in workload::generate(index, mix, 4096, seed) {
                let words: [u32; 3] = match q {
                    Query::Connected(u, v) => [0, u, v],
                    Query::ComponentOf(v) => [1, v, 0],
                    Query::ComponentSize(v) => [2, v, 0],
                    Query::TopKSize(k) => [3, k, 0],
                };
                for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                    hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
    }
    hash
}

#[test]
fn generated_streams_match_their_golden_fingerprints() {
    let many = ComponentIndex::build(&reference_components(&erdos_renyi_gnm(3000, 2400, 11)));
    assert!(many.num_components() > 100, "{} components", many.num_components());
    let one = ComponentIndex::build(&reference_components(&path(777)));
    assert_eq!(one.num_components(), 1);
    // Recorded when the cross mix read the index's stored member lists;
    // the lists it builds for itself now must draw the same stream.
    let got = [fingerprint(&many), fingerprint(&one)];
    assert_eq!(got, [0x0D36_49B2_E1B2_78A8, 0xAFC7_45D1_92C7_9EF9], "got {got:#018X?}");
}
