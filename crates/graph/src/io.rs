//! Plain-text edge-list I/O.
//!
//! The de-facto interchange format of the large-graph literature (SNAP,
//! DIMACS-like): one `u v` pair per line, `#`-prefixed comments, vertices
//! numbered `0..n`. A header comment `# nodes: N` pins the vertex count so
//! trailing isolated vertices survive a round-trip.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::csr::{Graph, VertexId};

/// Writes `g` as an edge list with a `# nodes:` header.
pub fn write_edge_list<W: Write>(g: &Graph, mut w: W) -> io::Result<()> {
    writeln!(w, "# nodes: {}", g.n())?;
    writeln!(w, "# edges: {}", g.m())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Parses an edge list. Accepts `# nodes: N` headers, blank lines, and
/// whitespace-separated pairs; without a header the vertex count is
/// `max id + 1`.
pub fn read_edge_list<R: Read>(r: R) -> io::Result<Graph> {
    let reader = BufReader::new(r);
    let mut declared_n: Option<usize> = None;
    let mut max_id: u64 = 0;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut saw_vertex = false;

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(nodes) = rest.strip_prefix("nodes:") {
                let declared: u64 = nodes.trim().parse().map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("line {}: bad nodes header: {e}", lineno + 1),
                    )
                })?;
                // The count sizes the CSR offsets before any edge is seen;
                // vertices are `0..n` with u32 ids, so nothing above 2^32
                // names a graph this crate can hold.
                if declared > VertexId::MAX as u64 + 1 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "line {}: nodes header {declared} exceeds the u32 id space",
                            lineno + 1
                        ),
                    ));
                }
                declared_n = Some(declared as usize);
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u64> {
            tok.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: expected two vertex ids", lineno + 1),
                )
            })?
            .parse()
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: bad vertex id: {e}", lineno + 1),
                )
            })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        // Ids are stored as u32; a larger id would silently wrap in the
        // cast below, so reject it here with a line number.
        if u > VertexId::MAX as u64 || v > VertexId::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: vertex id exceeds the u32 id space", lineno + 1),
            ));
        }
        max_id = max_id.max(u).max(v);
        saw_vertex = true;
        edges.push((u as VertexId, v as VertexId));
    }

    let n = declared_n.unwrap_or(if saw_vertex { max_id as usize + 1 } else { 0 });
    if saw_vertex && (max_id as usize) >= n {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("vertex id {max_id} outside declared node count {n}"),
        ));
    }
    Ok(Graph::from_edges(n, &edges))
}

/// Convenience: writes `g` to `path`.
pub fn save(g: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    write_edge_list(g, std::fs::File::create(path)?)
}

/// Convenience: reads a graph from `path`.
pub fn load(path: impl AsRef<Path>) -> io::Result<Graph> {
    read_edge_list(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi_gnm, random_forest};

    #[test]
    fn roundtrip_preserves_graph() {
        let g = erdos_renyi_gnm(200, 500, 1);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn roundtrip_preserves_trailing_isolated_vertices() {
        // Vertex 9 is isolated; without the header it would be dropped.
        let g = Graph::from_edges(10, &[(0, 1), (2, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(h.n(), 10);
        assert_eq!(g, h);
    }

    #[test]
    fn parses_headerless_input() {
        let text = "0 1\n1 2\n\n# a comment\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes()).is_err());
        assert!(read_edge_list("0\n".as_bytes()).is_err());
        assert!(read_edge_list("# nodes: two\n".as_bytes()).is_err());
        // id exceeding declared count:
        assert!(read_edge_list("# nodes: 2\n0 5\n".as_bytes()).is_err());
        // declared count outside the u32 id space (the first overflowed
        // `n + 1`, the second asked for a 32 GiB offsets array):
        for header in ["# nodes: 18446744073709551615\n0 1\n", "# nodes: 4294967297\n0 1\n"] {
            let err = read_edge_list(header.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("line 1: nodes header"), "{err}");
        }
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn roundtrip_empty_graph_with_vertices() {
        // n > 0, m = 0: only the header carries information.
        let g = Graph::empty(12);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(h.n(), 12);
        assert_eq!(h.m(), 0);
        assert_eq!(g, h);
    }

    #[test]
    fn roundtrip_isolated_vertices_everywhere() {
        // Isolated vertices below, between, and above the edge-bearing
        // ids — all must survive via the nodes header.
        let g = Graph::from_edges(9, &[(2, 5)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(h.n(), 9);
        assert_eq!(h.m(), 1);
        assert_eq!(g, h);
    }

    #[test]
    fn duplicate_and_self_loop_edges_collapse_on_read() {
        // CSR construction dedups parallel edges (in either orientation)
        // and drops self-loops; a round-trip of the result is stable.
        let text = "0 1\n1 0\n0 1\n2 2\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(2), 1); // the self-loop is gone
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(read_edge_list(&buf[..]).unwrap(), g);
    }

    #[test]
    fn max_id_vertex_roundtrip() {
        // An edge touching the highest declared id, and a headerless input
        // whose max id defines n.
        let g = Graph::from_edges(7, &[(0, 6), (6, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(h.n(), 7);
        assert_eq!(g, h);
        let headerless = read_edge_list("0 41\n".as_bytes()).unwrap();
        assert_eq!(headerless.n(), 42);
        assert_eq!(headerless.degree(41), 1);
    }

    #[test]
    fn ids_beyond_u32_are_rejected_not_wrapped() {
        // 2^32 would wrap to 0 in the VertexId cast; it must error instead,
        // even when a huge nodes header would make the wrapped id "valid".
        let over = (u32::MAX as u64 + 1).to_string();
        assert!(read_edge_list(format!("{over} 1\n").as_bytes()).is_err());
        assert!(read_edge_list(format!("# nodes: 5000000000\n1 {over}\n").as_bytes()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = random_forest(300, 7, 2);
        let dir = std::env::temp_dir().join("ampc_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("forest.txt");
        save(&g, &path).unwrap();
        let h = load(&path).unwrap();
        assert_eq!(g, h);
        std::fs::remove_file(&path).ok();
    }
}
