//! # siopmp-testkit — zero-dependency test support
//!
//! The offline replacement for the `rand` + `proptest` dev-dependencies:
//! this workspace builds on machines with no crates.io access, so every
//! randomised test draws its entropy from the in-tree [`Rng`] below and
//! every property test runs through [`prop_check`].
//!
//! * [`Rng`] — a SplitMix64-seeded xorshift64* generator: tiny, fast, and
//!   deterministic for a given seed (the same guarantees the seeded
//!   `StdRng` gave the traffic generator);
//! * [`prop_check`] — a miniature property-testing driver: run a predicate
//!   over many generated cases and, on failure, *shrink* by replaying the
//!   failing seed at smaller generation sizes, reporting the smallest
//!   still-failing case;
//! * [`check!`]/[`check_eq!`] — `prop_assert!`-style macros usable inside
//!   `prop_check` closures (they return an `Err` instead of panicking so
//!   `prop_check` can shrink);
//! * [`median_wall_ns`] — the one wall-clock measurement the `#[ignore]`d
//!   timing guards share.
//!
//! ## Example
//!
//! ```
//! use siopmp_testkit::{prop_check, check, check_eq, Gen};
//!
//! prop_check(64, |g: &mut Gen| {
//!     let xs = g.vec(0..20, |g| g.u64(0..1000));
//!     let mut sorted = xs.clone();
//!     sorted.sort();
//!     check_eq!(sorted.len(), xs.len());
//!     for w in sorted.windows(2) {
//!         check!(w[0] <= w[1], "sort must be monotone");
//!     }
//!     Ok(())
//! });
//! ```

use std::ops::Range;
use std::time::Instant;

/// SplitMix64: the seeding PRNG (also a fine generator on its own).
///
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014); this is the public-domain output function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The test RNG: xorshift64* seeded through SplitMix64 (so that small or
/// zero seeds still produce well-mixed streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from `seed`. Any seed (including 0) is fine.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        let mut state = mix.next_u64();
        if state == 0 {
            state = 0x9E37_79B9_7F4A_7C15; // xorshift state must be nonzero
        }
        Rng { state }
    }

    /// The next 64-bit output (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `u64` in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range in gen_range");
        let span = range.end - range.start;
        // Multiply-shift rejection-free mapping is biased for huge spans;
        // use simple rejection sampling to stay exact.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return range.start + v % span;
            }
        }
    }

    /// A uniform `u64` in `[range.start, range.end]` (inclusive).
    pub fn gen_range_inclusive(&mut self, start: u64, end: u64) -> u64 {
        assert!(start <= end, "empty inclusive range");
        if start == 0 && end == u64::MAX {
            return self.next_u64();
        }
        self.gen_range(start..end + 1)
    }

    /// A uniform `usize` in `[range.start, range.end)`.
    pub fn gen_usize(&mut self, range: Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 random mantissa bits give a uniform f64 in [0, 1).
        let v = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        v < p
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly chosen element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        &slice[self.gen_usize(0..slice.len())]
    }
}

/// The generation context handed to [`prop_check`] closures: an [`Rng`]
/// plus a *size* knob that collection generators respect, which is what
/// the shrinking pass turns down when hunting for a minimal failure.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Rng,
    /// Scaling factor in `(0, 1]`: collection generators multiply their
    /// requested maximum length by this. Full-size runs use `1.0`.
    pub size: f64,
}

impl Gen {
    /// Creates a full-size generation context from `seed`.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: Rng::seed_from_u64(seed),
            size: 1.0,
        }
    }

    fn with_size(seed: u64, size: f64) -> Self {
        Gen {
            rng: Rng::seed_from_u64(seed),
            size,
        }
    }

    /// Direct access to the underlying RNG.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// A uniform `u64` in `[range.start, range.end)` — *not* size-scaled
    /// (scalar parameters shrink poorly; only collection lengths shrink).
    pub fn u64(&mut self, range: Range<u64>) -> u64 {
        self.rng.gen_range(range)
    }

    /// A uniform `usize` in `[range.start, range.end)`.
    pub fn usize(&mut self, range: Range<usize>) -> usize {
        self.rng.gen_usize(range)
    }

    /// A uniform `u8` in `[range.start, range.end)`.
    pub fn u8(&mut self, range: Range<u8>) -> u8 {
        self.rng.gen_range(range.start as u64..range.end as u64) as u8
    }

    /// A uniform `u16` in `[range.start, range.end)`.
    pub fn u16(&mut self, range: Range<u16>) -> u16 {
        self.rng.gen_range(range.start as u64..range.end as u64) as u16
    }

    /// A uniform `u32` in `[range.start, range.end)`.
    pub fn u32(&mut self, range: Range<u32>) -> u32 {
        self.rng.gen_range(range.start as u64..range.end as u64) as u32
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// `true` with probability `p`.
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// A uniformly chosen element of `slice`.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        let i = self.usize(0..slice.len());
        &slice[i]
    }

    /// A vector whose length is drawn from `len` (scaled down by
    /// [`Gen::size`] during shrinking) and whose elements come from `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let max = len.end.max(len.start + 1);
        let scaled_max = ((max as f64 * self.size).ceil() as usize).max(len.start + 1);
        let n = self.usize(len.start..scaled_max.min(max));
        (0..n).map(|_| f(self)).collect()
    }
}

/// Outcome type for [`prop_check`] closures: `Ok(())` on success,
/// `Err(message)` on a falsified property.
pub type PropResult = Result<(), String>;

/// Number of shrink sizes tried after a failure (halving each step).
const SHRINK_STEPS: u32 = 6;

/// Runs `property` over `cases` generated inputs. On the first failure it
/// replays the failing seed at geometrically smaller [`Gen::size`] values
/// and panics with the smallest size that still fails — the in-tree
/// stand-in for proptest's integrated shrinking.
///
/// Determinism: case `i` always uses seed `i`, so failures reproduce
/// across runs and machines.
///
/// # Panics
///
/// Panics (failing the test) when the property returns `Err` for any case.
pub fn prop_check(cases: u64, property: impl Fn(&mut Gen) -> PropResult) {
    for seed in 0..cases {
        let mut g = Gen::new(seed);
        let Err(message) = property(&mut g) else {
            continue;
        };
        // Shrink: same seed, smaller collection sizes.
        let mut best: (f64, String) = (1.0, message);
        for step in 1..=SHRINK_STEPS {
            let size = 1.0 / f64::from(1u32 << step);
            let mut g = Gen::with_size(seed, size);
            if let Err(m) = property(&mut g) {
                best = (size, m);
            }
        }
        panic!(
            "property falsified (seed {seed}, shrunk to size {:.4}): {}",
            best.0, best.1
        );
    }
}

/// `prop_assert!` equivalent: returns `Err` from the enclosing
/// [`prop_check`] closure when the condition is false.
#[macro_export]
macro_rules! check {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "check failed at {}:{}: {}",
                file!(),
                line!(),
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "check failed at {}:{}: {}",
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// `prop_assert_eq!` equivalent.
#[macro_export]
macro_rules! check_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err(format!(
                "check_eq failed at {}:{}: {:?} != {:?}",
                file!(),
                line!(),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return Err(format!(
                "check_eq failed at {}:{}: {:?} != {:?} ({})",
                file!(),
                line!(),
                l,
                r,
                format!($($fmt)+)
            ));
        }
    }};
}

/// Wall-clock cost of `f` for the timing guards, in nanoseconds: one
/// untimed warmup call, then 2 runs of 6 timed calls each. Each run's
/// median is its 4th-fastest call; the result is the slower of the two
/// run medians. So few samples absorb a descheduled call, not a noisy
/// host, so the guards built on it are `#[ignore]`d and run in release.
pub fn median_wall_ns(mut f: impl FnMut()) -> u64 {
    const RUNS: usize = 2;
    const ITERS: usize = 6;
    f();
    let mut run_medians: Vec<u64> = (0..RUNS)
        .map(|_| {
            let mut samples: Vec<u64> = (0..ITERS)
                .map(|_| {
                    let start = Instant::now();
                    f();
                    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
                })
                .collect();
            samples.sort_unstable();
            samples[ITERS / 2]
        })
        .collect();
    run_medians.sort_unstable();
    run_medians[RUNS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn rng_zero_seed_is_usable() {
        let mut r = Rng::seed_from_u64(0);
        let values: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(values.iter().any(|&v| v != 0));
        // Not all equal.
        assert!(values.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
        // Every value of a small range appears.
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.gen_range(0..10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits {hits}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn inclusive_range_covers_u64_max() {
        let mut r = Rng::seed_from_u64(3);
        let _ = r.gen_range_inclusive(0, u64::MAX); // must not panic/overflow
        assert_eq!(r.gen_range_inclusive(5, 5), 5);
    }

    #[test]
    fn prop_check_passes_true_property() {
        prop_check(32, |g| {
            let v = g.u64(0..100);
            check!(v < 100);
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "property falsified")]
    fn prop_check_reports_failures() {
        prop_check(32, |g| {
            let xs = g.vec(0..50, |g| g.u64(0..10));
            check!(xs.len() < 10, "vector too long: {}", xs.len());
            Ok(())
        });
    }

    #[test]
    fn shrinking_reduces_collection_sizes() {
        // A property that fails for vectors longer than 3: the shrink pass
        // must find a failing case at a smaller size than the original.
        let mut g_full = Gen::new(0);
        let full = g_full.vec(0..64, |g| g.u64(0..10)).len();
        let mut g_small = Gen::with_size(0, 1.0 / 64.0);
        let small = g_small.vec(0..64, |g| g.u64(0..10)).len();
        assert!(small <= full, "shrunk {small} vs full {full}");
        assert!(small <= 2, "size 1/64 should cap near the minimum: {small}");
    }

    #[test]
    fn vec_respects_minimum_length() {
        let mut g = Gen::with_size(9, 1.0 / 64.0);
        for _ in 0..100 {
            let v = g.vec(1..200, |g| g.u64(0..10));
            assert!(!v.is_empty());
        }
    }

    #[test]
    fn median_wall_ns_times_two_runs_of_six_after_one_warmup() {
        let mut calls = 0;
        median_wall_ns(|| calls += 1);
        assert_eq!(calls, 1 + 2 * 6);
    }

    #[test]
    fn choose_returns_member() {
        let mut g = Gen::new(5);
        let items = [1, 2, 3];
        for _ in 0..50 {
            assert!(items.contains(g.choose(&items)));
        }
    }
}
