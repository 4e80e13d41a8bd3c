//! Dependency-free deterministic randomness and a tiny property-test
//! harness.
//!
//! The workspace builds in hermetic environments with no registry access,
//! so it cannot pull in `rand` or `proptest`. This crate provides the two
//! pieces those were used for:
//!
//! * [`Rng`] — a seeded [SplitMix64] generator with range helpers, used
//!   both by the workload generators (reproducible paper inputs) and by
//!   tests;
//! * [`run_cases`] — a fixed-seed case runner for property tests: each
//!   case gets its own deterministically derived [`Rng`], and a failing
//!   case reports its index and seed so it can be replayed in isolation
//!   with [`case_rng`].
//!
//! Everything here is deterministic across runs, platforms and thread
//! counts; there is no global state and no entropy source.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

pub mod shadergen;

/// The SplitMix64 increment (the golden-ratio constant).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A seeded SplitMix64 pseudo-random generator.
///
/// # Examples
///
/// ```
/// use mgpu_prop::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.f32(0.0, 1.0);
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed; equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform byte.
    pub fn u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// A uniform `bool`.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        // Multiply-shift reduction; bias is < 2^-64 per draw, far below
        // anything a property test can observe.
        let span = hi - lo;
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u32
    }

    /// A uniform float in the half-open interval `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or either bound is non-finite.
    pub fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        let t = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = (f64::from(lo) + t * (f64::from(hi) - f64::from(lo))) as f32;
        // f32 rounding can push the largest draws onto `hi`; keep the
        // interval half-open by wrapping those (astronomically rare) hits.
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// A uniform double in the half-open interval `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or either bound is non-finite.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        let t = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = lo + t * (hi - lo);
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0, items.len())]
    }
}

/// The [`Rng`] that [`run_cases`] hands to case number `case` — use it to
/// replay a single failing case under a debugger.
#[must_use]
pub fn case_rng(case: u64) -> Rng {
    // Decorrelate consecutive case indices through one extra mix step.
    Rng::new(Rng::new(case.wrapping_mul(GOLDEN_GAMMA)).next_u64())
}

/// Runs `cases` property-test cases, each with its own deterministic
/// [`Rng`]. A panicking case is annotated with its index before the panic
/// is propagated, so `run_cases` composes with plain `assert!`s.
///
/// # Examples
///
/// ```
/// mgpu_prop::run_cases(64, |rng| {
///     let x = rng.f32(-8.0, 8.0);
///     assert!(x.abs() <= 8.0);
/// });
/// ```
///
/// # Panics
///
/// Propagates the first case's panic.
pub fn run_cases(cases: u64, mut f: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = case_rng(case);
            f(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!("property failed at case {case} (replay with mgpu_prop::case_rng({case}))");
            std::panic::resume_unwind(payload);
        }
    }
}

/// f32 values where rounding code tends to go wrong: both zeros, the
/// subnormal extremes, one ulp either side of small integers and halves,
/// the 2^23 and 2^24 neighbourhoods (where every f32 becomes an integer,
/// then an even one), the `i32` limits, `f32::MAX`, both infinities, and
/// quiet and signalling NaNs with payloads. Short enough to pick from.
#[must_use]
pub fn f32_specials() -> Vec<f32> {
    let mut out = vec![
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        f32::from_bits(0x007F_FFFF),
        f32::MAX,
        f32::INFINITY,
        i32::MAX as f32,
    ];
    for k in -8..=8 {
        let x = k as f32 * 0.5;
        out.extend([x.next_down(), x, x.next_up()]);
    }
    for base in [8_388_608.0f32, 16_777_216.0, 2_147_483_648.0] {
        let lo = (0..4).fold(base, |x, _| x.next_down());
        out.extend(std::iter::successors(Some(lo), |x| Some(x.next_up())).take(9));
    }
    // Both signs of everything so far; this is where `-0.0` comes from.
    out.extend(out.clone().into_iter().map(|x| -x));
    for bits in [
        0x7FC0_0000u32,
        0x7FC0_0001,
        0x7FA0_0000,
        0x7F80_0001,
        0x7FFF_FFFF,
    ] {
        out.extend([f32::from_bits(bits), f32::from_bits(bits | 0x8000_0000)]);
    }
    out
}

/// [`f32_specials`] followed by every integer of magnitude up to 2^24
/// with its neighbours one ulp either side: about 10^8 values, so an
/// iterator.
pub fn f32_rounding_edges() -> impl Iterator<Item = f32> {
    f32_specials()
        .into_iter()
        .chain((0..=1u32 << 24).flat_map(|k| {
            let x = k as f32;
            [
                x.next_down(),
                x,
                x.next_up(),
                -x.next_down(),
                -x,
                -x.next_up(),
            ]
        }))
}

/// 65 536 f32 bit patterns spread evenly over all 2^32 (stride 65 537),
/// so every exponent, both signs and a spread of mantissas appear.
pub fn f32_bit_stride() -> impl Iterator<Item = f32> {
    (0..1u32 << 16).map(|i| f32::from_bits(i.wrapping_mul(65_537)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let v = r.u64_in(10, 20);
            assert!((10..20).contains(&v));
            let f = r.f32(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            let d = r.f64(0.0, 1.0);
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn floats_cover_the_interval() {
        let mut r = Rng::new(2);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..10_000 {
            let f = r.f32(0.0, 1.0);
            lo_seen |= f < 0.1;
            hi_seen |= f > 0.9;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn pick_hits_every_element() {
        let mut r = Rng::new(3);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[*r.pick(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn run_cases_reports_failures() {
        let hit = std::panic::catch_unwind(|| {
            run_cases(10, |rng| {
                let _ = rng.next_u64();
                panic!("always fails");
            });
        });
        assert!(hit.is_err());
    }

    #[test]
    fn case_rng_matches_run_cases() {
        let mut first = Vec::new();
        run_cases(3, |rng| first.push(rng.next_u64()));
        for (case, &v) in first.iter().enumerate() {
            assert_eq!(case_rng(case as u64).next_u64(), v);
        }
    }
}
