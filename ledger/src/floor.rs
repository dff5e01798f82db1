//! The two floors: benchmark-owned minimal implementations of the job an op
//! does, measured right after it, so that `op / floor` cancels what the host
//! does to both. They are frozen with the benchmark: no later PR may edit
//! this file, so no later PR can move a floor.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Barrier;
use std::time::Instant;

/// Floor of a build: connected-component labels (the smallest vertex of each
/// component) by union-find with path halving over the same edge list.
pub fn uf_labels(n: usize, edges: &[(u32, u32)]) -> Vec<u64> {
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    let mut parent: Vec<u32> = (0..n as u32).collect();
    for &(u, v) in edges {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        parent[ru.max(rv) as usize] = ru.min(rv);
    }
    (0..n as u32).map(|v| u64::from(find(&mut parent, v))).collect()
}

/// The same labels by depth-first search over adjacency lists, one heap
/// `Vec` per vertex: allocation-heavy where the union-find chases pointers.
pub fn adj_labels(n: usize, edges: &[(u32, u32)]) -> Vec<u64> {
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u as usize].push(u64::from(v));
        adj[v as usize].push(u64::from(u));
    }
    let mut label = vec![u64::MAX; n];
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s] != u64::MAX {
            continue;
        }
        label[s] = s as u64;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if label[w as usize] == u64::MAX {
                    label[w as usize] = s as u64;
                    stack.push(w as usize);
                }
            }
        }
    }
    label
}

/// Union-find passes in one floor job: they take about as long together as
/// the one adjacency-list search beside them.
const UF_PASSES: usize = 16;
/// Labelings one floor phase of a build produces: a job on one thread, then
/// a job on each of two threads.
const LABELINGS: usize = 3 * (UF_PASSES + 1);

/// The floor phase of a build repetition: the floor job (16 union-find passes
/// and one adjacency-list search over the same edge list) once on one thread,
/// then once on each of two threads at the same time, since the build runs on
/// two threads part of the time and a slow spell of the host slows two busy
/// cores more than one. Returns the nanoseconds per labeling.
pub fn labelings_ns(n: usize, edges: &[(u32, u32)]) -> f64 {
    let job = || {
        for _ in 0..UF_PASSES {
            black_box(uf_labels(n, black_box(edges)));
        }
        black_box(adj_labels(n, black_box(edges)));
    };
    let t = Instant::now();
    job();
    std::thread::scope(|scope| {
        scope.spawn(job);
        scope.spawn(job);
    });
    t.elapsed().as_nanos() as f64 / LABELINGS as f64
}

/// Floor of a wire op: `conns` loopback connections in a closed loop, each
/// making `trips` round trips of `req` bytes out and `reply` bytes back, with
/// one server thread per connection. Returns each connection's round-trip
/// times in nanoseconds; every thread is joined before it returns.
pub fn echo(req: usize, reply: usize, conns: usize, trips: usize) -> io::Result<Vec<Vec<u64>>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // Connect and accept before any thread exists: the backlog completes the
    // handshakes, and a failure here returns with nothing left blocked.
    let clients = (0..conns).map(|_| TcpStream::connect(addr)).collect::<io::Result<Vec<_>>>()?;
    let peers =
        (0..conns).map(|_| listener.accept().map(|(s, _)| s)).collect::<io::Result<Vec<_>>>()?;
    let start = Barrier::new(conns);
    std::thread::scope(|scope| {
        let servers: Vec<_> = peers
            .into_iter()
            .map(|mut peer| {
                scope.spawn(move || -> io::Result<()> {
                    peer.set_nodelay(true)?;
                    let (mut inbuf, outbuf) = (vec![0u8; req], vec![0x5au8; reply]);
                    (0..trips).try_for_each(|_| {
                        peer.read_exact(&mut inbuf)?;
                        peer.write_all(&outbuf)
                    })
                })
            })
            .collect();
        let clients: Vec<_> = clients
            .into_iter()
            .map(|mut s| {
                let start = &start;
                scope.spawn(move || -> io::Result<Vec<u64>> {
                    s.set_nodelay(true)?;
                    let (outbuf, mut inbuf) = (vec![0xa5u8; req], vec![0u8; reply]);
                    let mut ns = Vec::with_capacity(trips);
                    start.wait();
                    for _ in 0..trips {
                        let t0 = Instant::now();
                        s.write_all(&outbuf)?;
                        s.read_exact(&mut inbuf)?;
                        ns.push(t0.elapsed().as_nanos() as u64);
                    }
                    // The server closes after its last reply: end of stream
                    // here means it sent exactly `reply * trips` bytes.
                    assert_eq!(s.read(&mut [0u8; 1])?, 0, "echo server sent surplus bytes");
                    Ok(ns)
                })
            })
            .collect();
        servers.into_iter().try_for_each(|h| h.join().expect("echo server thread panicked"))?;
        clients.into_iter().map(|h| h.join().expect("echo client thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::generators::{erdos_renyi_gnm, random_forest};
    use ampc_graph::{reference_components, Labeling};

    #[test]
    fn uf_labels_equal_reference_components_on_a_forest_and_a_gnm() {
        for g in [random_forest(500, 7, 3), erdos_renyi_gnm(400, 350, 4)] {
            let edges: Vec<_> = g.edges().collect();
            let labels = Labeling(uf_labels(g.n(), &edges));
            assert!(labels.same_partition(&reference_components(&g)));
            assert!(labels.validates(&g));
        }
    }

    #[test]
    fn uf_labels_name_a_component_by_its_smallest_vertex() {
        assert_eq!(uf_labels(5, &[(4, 2), (2, 3), (0, 1)]), [0, 0, 2, 2, 2]);
    }

    #[test]
    fn adj_labels_equal_uf_labels() {
        for g in [random_forest(500, 7, 3), erdos_renyi_gnm(400, 350, 4)] {
            let edges: Vec<_> = g.edges().collect();
            assert_eq!(adj_labels(g.n(), &edges), uf_labels(g.n(), &edges));
        }
        assert!(labelings_ns(5, &[(4, 2), (2, 3), (0, 1)]) > 0.0);
    }

    #[test]
    fn echo_returns_the_requested_byte_counts_and_joins_its_threads() {
        // Exact byte counts are enforced inside: `read_exact` on both sides,
        // and the client's end-of-stream check after the last trip.
        let rtt = echo(112, 80, 2, 50).expect("loopback echo");
        assert_eq!(rtt.len(), 2);
        assert!(rtt.iter().all(|c| c.len() == 50 && c.iter().all(|&ns| ns > 0)));
        // Frames larger than one segment.
        assert_eq!(echo(48 * 1024 + 16, 32 * 1024 + 16, 2, 3).expect("large echo")[1].len(), 3);
    }
}
