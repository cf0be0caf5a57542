//! A small, self-contained, deterministic PRNG.
//!
//! The workspace must build and test with **no network access**, so it
//! cannot depend on crates.io (`rand`, `proptest`, `criterion`). This
//! crate supplies the only piece of those we actually need: a seedable,
//! reproducible random stream with convenient sampling helpers.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna) seeded through
//! splitmix64 — the same construction `rand`'s `SmallRng` family uses.
//! It is **not** cryptographic; it exists for workload generation and
//! randomized testing, where all that matters is stream quality and
//! bit-for-bit reproducibility across runs and platforms. [`fuzz`] is
//! the randomized-testing half: the one harness every fuzz target uses.
//!
//! # Examples
//!
//! ```
//! use rtdc_rng::Rng64;
//!
//! let mut rng = Rng64::seed_from_u64(42);
//! let a: u32 = rng.gen_u32();
//! let d = rng.gen_range(0..6) + 1; // die roll
//! assert!((1..=6).contains(&d));
//! let p: f64 = rng.gen_f64(); // [0, 1)
//! assert!((0.0..1.0).contains(&p));
//! // Streams are reproducible:
//! assert_eq!(Rng64::seed_from_u64(42).gen_u32(), a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;

/// Deterministic xoshiro256\*\* generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed (splitmix64-expanded, so
    /// nearby seeds yield unrelated streams).
    pub fn seed_from_u64(seed: u64) -> Rng64 {
        let mut sm = seed;
        Rng64 {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `u32`.
    #[inline]
    pub fn gen_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `u64`.
    #[inline]
    pub fn gen_u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin flip.
    #[inline]
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool_p(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform sample from `range` (`a..b` or `a..=b`, integer or
    /// `f64` ranges).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    #[inline]
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose from empty slice");
        &slice[self.gen_range(0..slice.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

/// Range types [`Rng64::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample.
    fn sample(self, rng: &mut Rng64) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng64) -> $t {
                assert!(self.start < self.end, "empty range");
                // Spans of these types always fit in u64, so the reduction
                // stays a single 64-bit modulo (a 128-bit one is a slow
                // library call on the workload-generation hot path).
                let span = (self.end as i128 - self.start as i128) as u64;
                let v = rng.next_u64() % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng64) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty range");
                let span = (b as i128 - a as i128) as u128 + 1;
                // `span` exceeds u64 only for the full 0..=MAX range of a
                // 64-bit type, where reduction is the identity.
                let v = match u64::try_from(span) {
                    Ok(s) => rng.next_u64() % s,
                    Err(_) => rng.next_u64(),
                };
                (a as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng64) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_streams() {
        let mut a = Rng64::seed_from_u64(7);
        let mut b = Rng64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_first_value_is_pinned() {
        // Locks the algorithm against accidental drift: workload
        // generation everywhere depends on this exact stream.
        let mut r = Rng64::seed_from_u64(0);
        assert_eq!(r.next_u64(), 11091344671253066420);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng64::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((0..10).contains(&r.gen_range(0..10)));
            assert!((-5i16..5).contains(&r.gen_range(-5i16..5)));
            let v = r.gen_range(3usize..=7);
            assert!((3..=7).contains(&v));
            let f = r.gen_range(0.5..2.5);
            assert!((0.5..2.5).contains(&f));
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn single_value_inclusive_range_works() {
        let mut r = Rng64::seed_from_u64(2);
        assert_eq!(r.gen_range(4..=4), 4);
        assert_eq!(r.gen_range(0..=0usize), 0);
    }

    #[test]
    fn range_distribution_is_roughly_uniform() {
        let mut r = Rng64::seed_from_u64(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_range(0..8usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn bool_p_tracks_probability() {
        let mut r = Rng64::seed_from_u64(4);
        let hits = (0..100_000).filter(|_| r.gen_bool_p(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "{hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng64::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng64::seed_from_u64(0).gen_range(5..5);
    }
}
