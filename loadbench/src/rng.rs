//! The workloads' only source of randomness: splitmix64, seeded from
//! `--seed`. Local so the benchmark adds no dependency and its traffic
//! does not change when the workspace's own PRNG does.

/// Steele, Lea and Flood's splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `stream` under `seed`: distinct streams of one seed
    /// are independent, so each thread or domain draws its own traffic.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let draw = |stream| {
            let mut g = SplitMix64::new(7, stream);
            [g.next_u64(), g.next_u64(), g.next_u64()]
        };
        assert_eq!(draw(0), draw(0));
        assert_ne!(draw(0), draw(1));
    }

    #[test]
    fn below_stays_in_range() {
        let mut g = SplitMix64::new(1, 2);
        assert!((0..10_000).all(|_| g.below(12) < 12));
    }
}
