//! Unit tests of the graph substrate: union-find against brute-force
//! reachability, the Euler-tour reduction's circuit structure, and edge-list
//! I/O edge cases.

use std::collections::{HashMap, HashSet, VecDeque};

use ampc_graph::euler::forest_to_cycles;
use ampc_graph::generators::{caterpillar, erdos_renyi_gnm, random_forest, star};
use ampc_graph::io::{read_edge_list, write_edge_list};
use ampc_graph::{reference_components, Graph, UnionFind};

/// Brute-force BFS component labels, the "ground truth of the ground truth".
fn bfs_labels(g: &Graph) -> Vec<u64> {
    let mut labels = vec![u64::MAX; g.n()];
    for s in 0..g.n() as u32 {
        if labels[s as usize] != u64::MAX {
            continue;
        }
        let mut q = VecDeque::from([s]);
        labels[s as usize] = s as u64;
        while let Some(v) = q.pop_front() {
            for &w in g.neighbors(v) {
                if labels[w as usize] == u64::MAX {
                    labels[w as usize] = s as u64;
                    q.push_back(w);
                }
            }
        }
    }
    labels
}

fn same_partition(a: &[u64], b: &[u64]) -> bool {
    let mut fwd = HashMap::new();
    let mut bwd = HashMap::new();
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| *fwd.entry(x).or_insert(y) == y && *bwd.entry(y).or_insert(x) == x)
}

// ---------------------------------------------------------------------------
// UnionFind
// ---------------------------------------------------------------------------

#[test]
fn union_find_matches_bfs_on_random_graphs() {
    for seed in 0..8u64 {
        let g = erdos_renyi_gnm(300, 350, seed);
        let mut uf = UnionFind::new(g.n());
        for (u, v) in g.edges() {
            uf.union(u, v);
        }
        assert!(same_partition(&uf.labels(), &bfs_labels(&g)), "seed {seed}");
        assert_eq!(uf.num_components(), reference_components(&g).num_components());
    }
}

#[test]
fn union_returns_whether_it_merged() {
    let mut uf = UnionFind::new(4);
    assert!(uf.union(0, 1));
    assert!(uf.union(2, 3));
    assert!(uf.union(1, 2));
    // All connected now: further unions are no-ops.
    assert!(!uf.union(0, 3));
    assert!(!uf.union(1, 3));
    assert_eq!(uf.num_components(), 1);
}

#[test]
fn connectivity_queries_are_transitive() {
    let mut uf = UnionFind::new(6);
    uf.union(0, 1);
    uf.union(1, 2);
    assert!(uf.connected(0, 2));
    assert!(!uf.connected(0, 3));
    assert_eq!(uf.find(0), uf.find(2));
    assert_ne!(uf.find(0), uf.find(5));
}

#[test]
fn singleton_components_count() {
    let mut uf = UnionFind::new(5);
    assert_eq!(uf.num_components(), 5);
    uf.union(0, 4);
    assert_eq!(uf.num_components(), 4);
    let labels = uf.labels();
    assert_eq!(labels[0], labels[4]);
}

// ---------------------------------------------------------------------------
// Euler tour reduction
// ---------------------------------------------------------------------------

/// The successor map must be a permutation that is a *valid circuit* per
/// tree: following `succ` from any dart returns to it after visiting each
/// dart of its tree's cycle exactly once.
#[test]
fn euler_tour_is_a_valid_circuit() {
    for (name, g) in [
        ("caterpillar", caterpillar(20, 3)),
        ("star", star(50)),
        ("forest", random_forest(400, 13, 5)),
    ] {
        let d = forest_to_cycles(&g);
        assert!(d.is_permutation(), "{name}");
        // Orbit walk: every dart returns to itself in exactly cycle-length
        // steps, touching no dart twice.
        let mut visited = vec![false; d.len()];
        for s in 0..d.len() {
            if visited[s] {
                continue;
            }
            let mut cur = s;
            let mut steps = 0;
            loop {
                assert!(!visited[cur], "{name}: dart {cur} visited twice");
                visited[cur] = true;
                cur = d.succ[cur] as usize;
                steps += 1;
                if cur == s {
                    break;
                }
                assert!(steps <= d.len(), "{name}: walk from {s} does not close");
            }
        }
        assert!(visited.iter().all(|&v| v), "{name}: darts unreached by any circuit");
        // Each dart corresponds to a directed edge: 2 per undirected edge.
        assert_eq!(d.len(), 2 * g.m(), "{name}");
    }
}

/// Observation 3.1: the reduction preserves components — darts of one cycle
/// all originate in one tree, and every non-isolated vertex appears.
#[test]
fn euler_reduction_preserves_components() {
    for seed in 0..6u64 {
        let g = random_forest(500, 17, seed);
        let truth = reference_components(&g);
        let d = forest_to_cycles(&g);
        // Walk each cycle; all origins must share a component label.
        let mut seen_dart = vec![false; d.len()];
        for s in 0..d.len() {
            if seen_dart[s] {
                continue;
            }
            let label = truth.get(d.origin[s]);
            let mut cur = s;
            while !seen_dart[cur] {
                seen_dart[cur] = true;
                assert_eq!(truth.get(d.origin[cur]), label, "seed {seed}: cycle mixes components");
                cur = d.succ[cur] as usize;
            }
        }
        // Coverage: origins ∪ isolated = all vertices.
        let mut covered: HashSet<u32> = d.origin.iter().copied().collect();
        covered.extend(d.isolated.iter().copied());
        assert_eq!(covered.len(), g.n(), "seed {seed}: vertices lost in reduction");
    }
}

#[test]
fn euler_predecessors_invert_successors() {
    let g = random_forest(200, 9, 3);
    let d = forest_to_cycles(&g);
    let mut pred = vec![u32::MAX; d.len()];
    for (a, &s) in d.succ.iter().enumerate() {
        pred[s as usize] = a as u32;
    }
    for a in 0..d.len() {
        assert_eq!(pred[d.succ[a] as usize] as usize, a);
    }
}

#[test]
fn euler_isolated_vertices_have_no_darts() {
    // 3 isolated vertices + one edge.
    let g = Graph::from_edges(5, &[(0, 1)]);
    let d = forest_to_cycles(&g);
    assert_eq!(d.len(), 2);
    let mut isolated = d.isolated.clone();
    isolated.sort_unstable();
    assert_eq!(isolated, vec![2, 3, 4]);
}

// ---------------------------------------------------------------------------
// io
// ---------------------------------------------------------------------------

#[test]
fn header_parsing_fixes_vertex_count() {
    let g = read_edge_list("# nodes: 7\n0 1\n".as_bytes()).unwrap();
    assert_eq!(g.n(), 7);
    assert_eq!(g.m(), 1);
    // Header may follow edges too.
    let g = read_edge_list("0 1\n# nodes: 7\n".as_bytes()).unwrap();
    assert_eq!(g.n(), 7);
}

#[test]
fn duplicate_edges_and_self_loops_are_normalized() {
    // from_edges drops self-loops and dedups; parsing must feed it intact.
    let g = read_edge_list("0 1\n1 0\n0 1\n2 2\n".as_bytes()).unwrap();
    assert_eq!(g.n(), 3);
    assert_eq!(g.m(), 1, "duplicates and self-loops must collapse");
    assert_eq!(g.degree(2), 0);
}

#[test]
fn malformed_lines_error_with_line_numbers() {
    let err = read_edge_list("0 1\nnot numbers\n".as_bytes()).unwrap_err();
    assert!(err.to_string().contains("line 2"), "got: {err}");

    let err = read_edge_list("0 1\n3\n".as_bytes()).unwrap_err();
    assert!(err.to_string().contains("line 2"), "got: {err}");

    let err = read_edge_list("# nodes: many\n".as_bytes()).unwrap_err();
    assert!(err.to_string().contains("line 1"), "got: {err}");
}

#[test]
fn id_outside_declared_count_is_rejected() {
    let err = read_edge_list("# nodes: 3\n0 9\n".as_bytes()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('9') && msg.contains('3'), "got: {msg}");
}

#[test]
fn roundtrip_is_identity_across_generators() {
    for seed in 0..4u64 {
        for g in [erdos_renyi_gnm(120, 260, seed), random_forest(150, 8, seed)] {
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            assert_eq!(read_edge_list(&buf[..]).unwrap(), g);
        }
    }
}
