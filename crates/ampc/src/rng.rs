//! Deterministic randomness for simulated machines.
//!
//! Every random draw in the runtime and in the algorithm crates derives from
//! `(run seed, round, tag, id)` via a SplitMix64-style finalizer. This makes
//! runs reproducible and — crucially for a parallel simulator — independent
//! of how items are distributed across machines or threads.

/// SplitMix64 state-advance + finalizer. A tiny, well-studied 64-bit PRNG
/// (Steele, Lea, Flood 2014); adequate statistical quality for algorithmic
/// sampling and far faster than cryptographic generators.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.state)
    }

    /// Uniform draw in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift with rejection for exact uniformity.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The SplitMix64 output finalizer: a bijective avalanching mix of 64 bits.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a stream seed from independent components. Components are mixed
/// sequentially so that any change to any component decorrelates the stream.
#[inline]
pub fn derive_seed(parts: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3; // pi digits; arbitrary non-zero start
    for &p in parts {
        acc = fold(acc, p);
    }
    acc
}

/// One step of [`derive_seed`]: mixes component `part` into `acc`.
#[inline]
fn fold(acc: u64, part: u64) -> u64 {
    mix(acc ^ part.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Convenience: a generator for a `(seed, round, tag, id)` context.
#[inline]
pub fn stream(seed: u64, round: u64, tag: u64, id: u64) -> SplitMix64 {
    SplitMix64::new(derive_seed(&[seed, round, tag, id]))
}

/// The family of [`stream`]s of one `(seed, round, tag)`, indexed by id.
///
/// The shared prefix is folded once, so [`Draws::at`] mixes only the id:
/// a first draw costs two mixes instead of [`stream`]'s five. A loop that
/// draws for many ids of one context takes the family outside the loop.
#[derive(Debug, Clone, Copy)]
pub struct Draws {
    prefix: u64,
}

impl Draws {
    /// The family of `(seed, round, tag)`.
    #[inline]
    pub fn new(seed: u64, round: u64, tag: u64) -> Self {
        Draws { prefix: derive_seed(&[seed, round, tag]) }
    }

    /// The generator of `id`: bit for bit `stream(seed, round, tag, id)`.
    #[inline]
    pub fn at(self, id: u64) -> SplitMix64 {
        SplitMix64::new(fold(self.prefix, id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_context() {
        let a: Vec<u64> =
            (0..8).map(|_| 0).scan(stream(1, 2, 3, 4), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> =
            (0..8).map(|_| 0).scan(stream(1, 2, 3, 4), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn a_family_member_is_the_stream_of_its_context() {
        const GRID: [u64; 4] = [0, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX];
        for seed in GRID {
            for round in GRID {
                for tag in GRID {
                    let draws = Draws::new(seed, round, tag);
                    for id in GRID {
                        let (mut a, mut b) = (draws.at(id), stream(seed, round, tag, id));
                        for k in 0..3 {
                            assert_eq!(
                                a.next_u64(),
                                b.next_u64(),
                                "draw {k} of ({seed:#x}, {round:#x}, {tag:#x}, {id:#x})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn different_contexts_decorrelate() {
        assert_ne!(stream(1, 2, 3, 4).next_u64(), stream(1, 2, 3, 5).next_u64());
        assert_ne!(stream(1, 2, 3, 4).next_u64(), stream(1, 2, 4, 4).next_u64());
        assert_ne!(stream(1, 2, 3, 4).next_u64(), stream(2, 2, 3, 4).next_u64());
    }

    #[test]
    fn next_below_stays_in_range_and_covers() {
        let mut r = SplitMix64::new(42);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.next_below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear in 1000 draws");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_rate_roughly_matches_p() {
        let mut r = SplitMix64::new(11);
        let hits = (0..20_000).filter(|_| r.bernoulli(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate} too far from 0.25");
    }

    #[test]
    fn mix_is_bijective_on_samples() {
        // Spot-check injectivity on a sample; mix is a known bijection.
        use std::collections::HashSet;
        let outs: HashSet<u64> = (0..10_000u64).map(mix).collect();
        assert_eq!(outs.len(), 10_000);
    }
}
