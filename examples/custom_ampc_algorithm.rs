//! Writing your own AMPC algorithm against the `ampc` runtime.
//!
//! The runtime is not specific to connectivity: this example implements
//! *list ranking* (distance of every element to the tail of a linked list)
//! as a fresh AMPC algorithm, using the same adaptive-read DHT interface
//! the paper's algorithms are built on — sampled splitters, adaptive
//! traversal, and per-round metering.
//!
//! It also demonstrates picking a DHT storage backend: the system below
//! runs on the sharded store, whose round-finish merge is shard-parallel.
//! The backend is a value in the config and nothing else — results are
//! byte-identical whichever one the `with_backend` call names.
//!
//! ```text
//! cargo run --release --example custom_ampc_algorithm
//! ```

use adaptive_mpc_connectivity::ampc::{
    AmpcConfig, AmpcSystem, DhtBackend, DhtStorage as _, Key, Space,
};

const NEXT: Space = 0; // successor pointers (u64::MAX = tail)
const DIST: Space = 1; // resolved distance to the tail

fn main() {
    // A linked list of n elements, scrambled in memory.
    let n: u64 = 20_000;
    let order: Vec<u64> = {
        // Deterministic shuffle via a Feistel-ish mix.
        let mut v: Vec<u64> = (0..n).collect();
        for i in (1..v.len()).rev() {
            let j = (adaptive_mpc_connectivity::ampc::rng::mix(i as u64) % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    };
    let tail = *order.last().unwrap();

    let mut sys: AmpcSystem<u64> = AmpcSystem::new(
        AmpcConfig::default().with_machines(16).with_seed(11).with_backend(DhtBackend::sharded()),
        order.windows(2).map(|w| (Key::new(NEXT, w[0]), w[1])),
    );

    // Round 1: sample splitters at rate 1/√n; splitters and the tail anchor
    // the list into segments no longer than ~√n·ln n w.h.p. The splitter
    // predicate must be a pure function of the element (NOT ctx.draws, which
    // salts by round index) because round 2 re-evaluates it during walks.
    let items: Vec<u64> = (0..n).collect();
    let rate = 1.0 / (n as f64).sqrt();
    let is_splitter = move |v: u64| -> bool {
        v == tail || adaptive_mpc_connectivity::ampc::rng::stream(11, 0, 0, v).bernoulli(rate)
    };
    let splitters: Vec<u64> = sys
        .round("sample-splitters", &items, |_ctx, &v| is_splitter(v).then_some(v))
        .expect("round")
        .results;
    println!("sampled {} splitters for n = {n}", splitters.len());

    // Round 2: every splitter walks to the next splitter, recording its
    // segment length (adaptive reads — the walk IS the AMPC superpower).
    let cap = 64 * (n as f64).sqrt() as usize;
    let seg: Vec<(u64, u64, u64)> = sys
        .round("measure-segments", &splitters, |ctx, &s| {
            if s == tail {
                return None;
            }
            let mut cur = s;
            let mut len = 0u64;
            for _ in 0..cap {
                match ctx.read(Key::new(NEXT, cur)) {
                    Some(&nxt) => {
                        len += 1;
                        cur = nxt;
                        if is_splitter(cur) {
                            return Some((s, cur, len));
                        }
                    }
                    None => return Some((s, cur, len)), // hit the tail
                }
            }
            panic!("segment exceeded cap — resample");
        })
        .expect("round")
        .results;

    // Host: chain the splitter segments into absolute tail distances
    // (orchestration over O(√n) items — fits one machine).
    use std::collections::HashMap;
    let next_splitter: HashMap<u64, (u64, u64)> =
        seg.iter().map(|&(s, t, l)| (s, (t, l))).collect();
    let mut dist: HashMap<u64, u64> = HashMap::from([(tail, 0)]);
    // Resolve by repeated relaxation (≤ #splitters passes; ~2 in practice).
    let mut remaining: Vec<u64> = splitters.iter().copied().filter(|&s| s != tail).collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&s| {
            let (t, l) = next_splitter[&s];
            if let Some(&dt) = dist.get(&t) {
                dist.insert(s, dt + l);
                false
            } else {
                true
            }
        });
        assert!(remaining.len() < before, "splitter chain cycle");
    }
    sys.stats_mut().charge_external(1, splitters.len() * 2, splitters.len() * 2);

    // Round 3: every element walks to its next splitter and writes its
    // final rank.
    let dist_vec: Vec<(u64, u64)> = dist.iter().map(|(&k, &v)| (k, v)).collect();
    sys.host_update(|dht| {
        for &(s, d) in &dist_vec {
            dht.insert(Key::new(DIST, s), d);
        }
    });
    sys.stats_mut().charge_external(1, dist_vec.len(), dist_vec.len());

    let ranks: Vec<(u64, u64)> = sys
        .round("rank-elements", &items, |ctx, &v| {
            if let Some(&d) = ctx.read(Key::new(DIST, v)) {
                return Some((v, d));
            }
            let mut cur = v;
            let mut hops = 0u64;
            loop {
                let nxt = *ctx.read(Key::new(NEXT, cur)).expect("chain");
                hops += 1;
                if let Some(&d) = ctx.read(Key::new(DIST, nxt)) {
                    return Some((v, d + hops));
                }
                cur = nxt;
            }
        })
        .expect("round")
        .results;

    // Verify against the generation order.
    let mut expected = vec![0u64; n as usize];
    for (i, &v) in order.iter().enumerate() {
        expected[v as usize] = n - 1 - i as u64;
    }
    for &(v, d) in &ranks {
        assert_eq!(d, expected[v as usize], "element {v} misranked");
    }
    println!("list ranking verified for all {n} elements");
    println!(
        "AMPC rounds = {}, queries = {}, peak round space = {} words",
        sys.stats().rounds(),
        sys.stats().total_queries(),
        sys.stats().peak_total_space()
    );
}
