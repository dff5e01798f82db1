//! Seeded property test of the one relabel: `relabel`, `Contract`'s class
//! ids and the `Labeling` comparisons against the `HashMap` relabels they
//! replaced, over SplitMix64-drawn labelings and the edge cases an
//! open-addressed table can get wrong.

use std::collections::HashMap;

use ampc::rng::SplitMix64;
use ampc_graph::contract::contract;
use ampc_graph::{relabel, Graph, Labeling, Relabeled, VertexId};

/// The relabel `relabel` replaced: a SipHash map from label to the next id
/// in first-appearance order, counting as it goes.
fn relabel_by_hash_map(labels: &[u64]) -> Relabeled {
    let mut id_of: HashMap<u64, VertexId> = HashMap::new();
    let (mut class_of, mut sizes) = (Vec::new(), Vec::new());
    for &label in labels {
        let next = id_of.len() as VertexId;
        let d = *id_of.entry(label).or_insert(next);
        if d == next {
            sizes.push(0);
        }
        sizes[d as usize] += 1;
        class_of.push(d);
    }
    Relabeled { class_of, sizes }
}

/// The canonical form `Labeling::canonical` replaced: each label's minimum
/// vertex, kept in a map.
fn canonical_by_hash_map(labels: &[u64]) -> Vec<u64> {
    let mut min_of: HashMap<u64, u64> = HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        min_of.entry(l).and_modify(|m| *m = (*m).min(v as u64)).or_insert(v as u64);
    }
    labels.iter().map(|l| min_of[l]).collect()
}

/// Labelings drawn from `seed`: every length up to 300, a class count from
/// one to the length, and labels that are either small, spread over all 64
/// bits, or equal in their low 32 bits.
fn labelings(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::new(seed);
    let mut cases = vec![
        vec![],
        vec![u64::MAX],
        vec![u64::MAX, 0, u64::MAX, 0, 1, u64::MAX - 1],
        (0..64u64).map(|i| i << 32).collect(),
        (0..200u64).map(|i| (i % 7) << 57 | 0xFFFF_FFFF).collect(),
    ];
    for n in 1..=300u64 {
        let classes = 1 + rng.next_below(n);
        // Class number → label, one to one whichever shape is drawn.
        let shape = rng.next_below(3);
        let odd = rng.next_u64() | 1;
        let label = |c: u64| match shape {
            0 => c,
            1 => c.wrapping_mul(odd),
            _ => c << 32 | 0xABCD,
        };
        cases.push((0..n).map(|_| label(rng.next_below(classes))).collect());
    }
    cases
}

#[test]
fn relabel_equals_the_hash_map_reference() {
    for (case, labels) in labelings(0x2E1A).into_iter().enumerate() {
        let r = relabel(&labels);
        assert_eq!(r, relabel_by_hash_map(&labels), "case {case}: {labels:?}");
        assert_eq!(r.sizes.iter().map(|&s| s as usize).sum::<usize>(), labels.len());
    }
}

#[test]
fn contraction_classes_are_the_relabel() {
    let mut rng = SplitMix64::new(0xC0A7);
    for (case, labels) in labelings(0xC0A7).into_iter().enumerate() {
        let n = labels.len() as u64;
        let edges: Vec<(VertexId, VertexId)> = (0..2 * n)
            .map(|_| (rng.next_below(n) as VertexId, rng.next_below(n) as VertexId))
            .collect();
        let g = Graph::from_edges(labels.len(), &edges);
        let c = contract(&g, &labels);
        let reference = relabel_by_hash_map(&labels);
        assert_eq!(c.class_of, reference.class_of, "case {case}");
        assert_eq!(c.graph.n(), reference.sizes.len(), "case {case}");
        for (u, v) in g.edges() {
            let (a, b) = (c.class_of[u as usize], c.class_of[v as usize]);
            assert!(a == b || c.graph.neighbors(a).contains(&b), "case {case}: edge {u}-{v}");
        }
    }
}

#[test]
fn labeling_comparisons_equal_the_hash_map_references() {
    for (case, labels) in labelings(0x1ABE).iter().enumerate() {
        let l = Labeling(labels.clone());
        assert_eq!(l.canonical(), canonical_by_hash_map(labels), "case {case}");
        let mut distinct = labels.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(l.num_components(), distinct.len(), "case {case}");
        // The old `same_partition` was equality of the old canonical forms:
        // check it on a renamed copy (same partition), on that copy with its
        // last vertex given back its own label (its class is then split off
        // or moved), and on a copy one vertex longer.
        let renamed = Labeling(labels.iter().map(|&x| !x).collect());
        let mut moved = renamed.clone();
        if let Some(x) = moved.0.last_mut() {
            *x = !*x;
        }
        for other in [&renamed, &moved] {
            let want = canonical_by_hash_map(labels) == canonical_by_hash_map(&other.0);
            assert_eq!(l.same_partition(other), want, "case {case}");
        }
        assert!(l.same_partition(&renamed), "case {case}");
        let mut longer = labels.clone();
        longer.push(0);
        assert!(!l.same_partition(&Labeling(longer)), "case {case}");
    }
}
