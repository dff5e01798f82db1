//! Deterministic query-workload generation, in the same seeded style as
//! the graph generators in `ampc-graph`.
//!
//! Three mixes model how real traffic hits a connectivity service:
//!
//! * [`Mix::Uniform`] — every vertex equally popular (the cache-hostile
//!   baseline: reads land anywhere in the `comp_of` array);
//! * [`Mix::Zipf`] — vertex popularity follows a Zipf law (the realistic
//!   regime: a few celebrity vertices absorb most lookups, so the hot set
//!   fits in cache);
//! * [`Mix::CrossComponent`] — every pair is drawn from two *different*
//!   components (the adversarial regime: all `Connected` answers are
//!   false, defeating any shortcut that assumes most pairs connect, and
//!   each query touches two unrelated index regions).
//!
//! All draws come from the workspace's SplitMix64 stream, so a
//! `(mix, count, seed)` triple regenerates the identical query sequence on
//! any machine — the property the cross-validation matrix and the
//! ledger both rely on.

use std::io::{self, BufRead, BufReader, Read};

use ampc::rng::SplitMix64;
use ampc_graph::VertexId;

use crate::engine::Query;
use crate::index::{ComponentId, ComponentIndex};

/// A workload shape: how query endpoints are drawn.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub enum Mix {
    /// Uniformly random vertices, mixed query types.
    #[default]
    Uniform,
    /// Zipf-skewed vertex popularity with the given exponent, mixed query
    /// types. Exponent 1.0–1.2 matches measured web/social skew.
    Zipf {
        /// The skew exponent `s` in `weight(rank) ∝ rank^-s`.
        exponent: f64,
    },
    /// `Connected` pairs guaranteed to span two distinct components
    /// (falls back to uniform pairs when the graph is one component).
    CrossComponent,
}

impl Mix {
    /// The standard mixes, in reporting order: what the ledger and the CLI
    /// sweep when no explicit mix is requested.
    pub const STANDARD: [Mix; 3] = [Mix::Uniform, Mix::Zipf { exponent: 1.1 }, Mix::CrossComponent];

    /// Parses a CLI mix spec: `uniform`, `zipf`, `zipf:EXP`, or `cross`.
    pub fn parse(s: &str) -> Result<Mix, String> {
        match s {
            "uniform" => Ok(Mix::Uniform),
            "zipf" => Ok(Mix::Zipf { exponent: 1.1 }),
            "cross" => Ok(Mix::CrossComponent),
            other => {
                if let Some(e) = other.strip_prefix("zipf:") {
                    let exponent: f64 = e.parse().map_err(|e| format!("bad zipf exponent: {e}"))?;
                    if !exponent.is_finite() || exponent <= 0.0 {
                        return Err("zipf exponent must be positive and finite".into());
                    }
                    Ok(Mix::Zipf { exponent })
                } else {
                    Err(format!("unknown mix {other:?} (expected uniform|zipf[:EXP]|cross)"))
                }
            }
        }
    }

    /// Short reporting name.
    pub fn name(&self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::Zipf { .. } => "zipf",
            Mix::CrossComponent => "cross",
        }
    }
}

/// Draws vertices according to a [`Mix`]'s popularity model.
struct VertexSampler {
    /// Cumulative popularity weights over vertices; empty means uniform.
    cumulative: Vec<f64>,
    n: u64,
}

impl VertexSampler {
    fn new(mix: Mix, n: usize) -> Self {
        let cumulative = match mix {
            Mix::Zipf { exponent } => {
                let mut acc = 0.0;
                (0..n)
                    .map(|rank| {
                        acc += 1.0 / ((rank + 1) as f64).powf(exponent);
                        acc
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        VertexSampler { cumulative, n: n as u64 }
    }

    #[inline]
    fn draw(&self, rng: &mut SplitMix64) -> VertexId {
        if self.cumulative.is_empty() {
            return rng.next_below(self.n) as VertexId;
        }
        let total = *self.cumulative.last().expect("nonempty cumulative table");
        let x = rng.next_f64() * total;
        let i = self.cumulative.partition_point(|&c| c <= x);
        i.min(self.cumulative.len() - 1) as VertexId
    }
}

/// Generates a deterministic workload of `count` queries against `index`.
///
/// Uniform and Zipf mixes interleave query types at fixed odds
/// (10/16 `Connected`, 3/16 `ComponentOf`, 2/16 `ComponentSize`,
/// 1/16 `TopKSize` with `k ≤ 8`); the cross-component mix is pure
/// `Connected`. An empty index yields an empty workload.
pub fn generate(index: &ComponentIndex, mix: Mix, count: usize, seed: u64) -> Vec<Query> {
    if index.num_vertices() == 0 {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(ampc::rng::derive_seed(&[seed, 0x51_u64, count as u64]));
    let sampler = VertexSampler::new(mix, index.num_vertices());
    let members = (mix == Mix::CrossComponent).then(|| Members::of(index));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let q = match &members {
            Some(members) => cross_pair(members, &sampler, &mut rng),
            _ => match rng.next_below(16) {
                0..=9 => Query::Connected(sampler.draw(&mut rng), sampler.draw(&mut rng)),
                10..=12 => Query::ComponentOf(sampler.draw(&mut rng)),
                13..=14 => Query::ComponentSize(sampler.draw(&mut rng)),
                _ => Query::TopKSize(1 + rng.next_below(8) as u32),
            },
        };
        out.push(q);
    }
    out
}

/// Every component's members in ascending vertex order, as slices of one
/// array: what the cross-component mix draws from (the index stores no
/// member lists; no query reads them).
struct Members {
    /// `start[c]..start[c + 1]` bounds component `c`'s slice.
    start: Vec<usize>,
    vertices: Vec<VertexId>,
}

impl Members {
    /// A counting sort of the vertices by component.
    fn of(index: &ComponentIndex) -> Members {
        let mut start = vec![0; index.num_components() + 1];
        for c in 0..index.num_components() {
            start[c + 1] = start[c] + index.size_of(c as ComponentId);
        }
        let mut cursor = start.clone();
        let mut vertices = vec![0; index.num_vertices()];
        for v in 0..index.num_vertices() as VertexId {
            let slot = &mut cursor[index.component_of(v) as usize];
            vertices[*slot] = v;
            *slot += 1;
        }
        Members { start, vertices }
    }

    fn of_component(&self, c: ComponentId) -> &[VertexId] {
        &self.vertices[self.start[c as usize]..self.start[c as usize + 1]]
    }
}

/// A `Connected` pair spanning two distinct components: two components
/// drawn uniformly without replacement, then one uniform member of each.
fn cross_pair(members: &Members, sampler: &VertexSampler, rng: &mut SplitMix64) -> Query {
    let c = members.start.len() as u64 - 1;
    if c < 2 {
        return Query::Connected(sampler.draw(rng), sampler.draw(rng));
    }
    let a = rng.next_below(c) as ComponentId;
    let mut b = rng.next_below(c - 1) as ComponentId;
    if b >= a {
        b += 1;
    }
    let ma = members.of_component(a);
    let mb = members.of_component(b);
    Query::Connected(
        ma[rng.next_below(ma.len() as u64) as usize],
        mb[rng.next_below(mb.len() as u64) as usize],
    )
}

/// Parses a plain-text query file: one query per line, `#` comments and
/// blank lines ignored. Grammar (vertex ids must be `< n`):
///
/// ```text
/// connected U V
/// component V
/// size V
/// topk K
/// ```
pub fn parse_query_file<R: Read>(r: R, n: usize) -> io::Result<Vec<Query>> {
    let reader = BufReader::new(r);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut it = line.split_whitespace();
        let op = it.next().expect("nonempty line has a first token");
        let mut arg = |what: &str| -> io::Result<u64> {
            it.next()
                .ok_or_else(|| bad(format!("line {}: {op} needs {what}", lineno + 1)))?
                .parse()
                .map_err(|e| bad(format!("line {}: bad {what}: {e}", lineno + 1)))
        };
        let vertex = |x: u64| -> io::Result<VertexId> {
            if (x as usize) < n {
                Ok(x as VertexId)
            } else {
                Err(bad(format!("line {}: vertex {x} out of range for n={n}", lineno + 1)))
            }
        };
        let q = match op {
            "connected" => {
                Query::Connected(vertex(arg("two vertex ids")?)?, vertex(arg("two vertex ids")?)?)
            }
            "component" => Query::ComponentOf(vertex(arg("a vertex id")?)?),
            "size" => Query::ComponentSize(vertex(arg("a vertex id")?)?),
            "topk" => {
                let k = arg("a rank")?;
                if k > u32::MAX as u64 {
                    return Err(bad(format!("line {}: rank {k} exceeds u32", lineno + 1)));
                }
                Query::TopKSize(k as u32)
            }
            other => return Err(bad(format!("line {}: unknown query {other:?}", lineno + 1))),
        };
        if let Some(extra) = it.next() {
            return Err(bad(format!("line {}: trailing token {extra:?}", lineno + 1)));
        }
        out.push(q);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_graph::Labeling;

    /// Four components of sizes 4, 3, 2, 1.
    fn fixture() -> ComponentIndex {
        ComponentIndex::build(&Labeling(vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 3]))
    }

    #[test]
    fn same_seed_regenerates_the_same_workload() {
        let idx = fixture();
        for mix in Mix::STANDARD {
            let a = generate(&idx, mix, 500, 42);
            let b = generate(&idx, mix, 500, 42);
            assert_eq!(a, b, "mix {} not deterministic", mix.name());
            let c = generate(&idx, mix, 500, 43);
            assert_ne!(a, c, "mix {} ignored the seed", mix.name());
            assert_eq!(a.len(), 500);
        }
    }

    #[test]
    fn cross_component_pairs_never_connect() {
        let idx = fixture();
        for q in generate(&idx, Mix::CrossComponent, 1000, 7) {
            match q {
                Query::Connected(u, v) => {
                    assert!(!idx.connected(u, v), "cross pair ({u},{v}) connected")
                }
                other => panic!("cross mix produced non-Connected query {other:?}"),
            }
        }
    }

    #[test]
    fn cross_component_falls_back_on_single_component() {
        let idx = ComponentIndex::build(&Labeling(vec![5; 8]));
        let qs = generate(&idx, Mix::CrossComponent, 64, 9);
        assert_eq!(qs.len(), 64);
        assert!(qs.iter().all(|q| matches!(q, Query::Connected(_, _))));
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let idx = ComponentIndex::build(&Labeling((0..1000u64).collect()));
        let mut head = 0usize;
        let mut total = 0usize;
        for q in generate(&idx, Mix::Zipf { exponent: 1.1 }, 4000, 3) {
            let vs: &[VertexId] = match &q {
                Query::Connected(u, v) => &[*u, *v],
                Query::ComponentOf(v) | Query::ComponentSize(v) => &[*v],
                Query::TopKSize(_) => &[],
            };
            for &v in vs {
                total += 1;
                if v < 100 {
                    head += 1;
                }
            }
        }
        // Under uniform draws the first decile gets ~10%; Zipf(1.1) puts
        // well over a third of the mass there.
        assert!(head * 3 > total, "zipf head too light: {head}/{total} draws in the first decile");
    }

    #[test]
    fn uniform_mix_exercises_every_query_type() {
        let idx = fixture();
        let qs = generate(&idx, Mix::Uniform, 2000, 11);
        assert!(qs.iter().any(|q| matches!(q, Query::Connected(_, _))));
        assert!(qs.iter().any(|q| matches!(q, Query::ComponentOf(_))));
        assert!(qs.iter().any(|q| matches!(q, Query::ComponentSize(_))));
        assert!(qs.iter().any(|q| matches!(q, Query::TopKSize(_))));
    }

    #[test]
    fn empty_index_yields_empty_workload() {
        let idx = ComponentIndex::build(&Labeling(vec![]));
        assert!(generate(&idx, Mix::Uniform, 100, 1).is_empty());
    }

    #[test]
    fn mix_parse_grammar() {
        assert_eq!(Mix::parse("uniform").unwrap(), Mix::Uniform);
        assert_eq!(Mix::parse("zipf").unwrap(), Mix::Zipf { exponent: 1.1 });
        assert_eq!(Mix::parse("zipf:0.8").unwrap(), Mix::Zipf { exponent: 0.8 });
        assert_eq!(Mix::parse("cross").unwrap(), Mix::CrossComponent);
        assert!(Mix::parse("zipf:-1").is_err());
        assert!(Mix::parse("zipf:nan").is_err());
        assert!(Mix::parse("hot").is_err());
    }

    #[test]
    fn query_file_roundtrip_and_errors() {
        let text = "# header\nconnected 0 3\n\ncomponent 2\nsize 1\ntopk 5\n";
        let qs = parse_query_file(text.as_bytes(), 4).unwrap();
        assert_eq!(
            qs,
            vec![
                Query::Connected(0, 3),
                Query::ComponentOf(2),
                Query::ComponentSize(1),
                Query::TopKSize(5),
            ]
        );
        assert!(parse_query_file("connected 0\n".as_bytes(), 4).is_err());
        assert!(parse_query_file("connected 0 9\n".as_bytes(), 4).is_err());
        assert!(parse_query_file("component x\n".as_bytes(), 4).is_err());
        assert!(parse_query_file("frobnicate 1\n".as_bytes(), 4).is_err());
        assert!(parse_query_file("size 1 2\n".as_bytes(), 4).is_err());
        // A rank beyond u32 must be rejected, not clamped.
        assert!(parse_query_file("topk 4294967296\n".as_bytes(), 4).is_err());
        assert!(parse_query_file("".as_bytes(), 4).unwrap().is_empty());
    }
}
