//! Order statistics: medians, the tail-percentile rule, and quartile
//! spreads.

/// Percentiles the tail rule may report, highest first. p99/p95/p90 are
/// the rule proper; p75 and p50 extend it downward so that a workload of
/// few slow ops still reports a tail backed by ten samples.
pub const TAIL_CANDIDATES: [u32; 5] = [99, 95, 90, 75, 50];

/// Samples a tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`% of the samples at or below it. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// How many of `n` samples lie beyond percentile `p`'s rank.
#[must_use]
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The tail percentile for `n` samples: the highest of
/// [`TAIL_CANDIDATES`] with at least [`TAIL_MIN_BEYOND`] samples beyond
/// it, or the lowest candidate (p50) when none has.
#[must_use]
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_CANDIDATES[TAIL_CANDIDATES.len() - 1])
}

/// The median, over consecutive rounds of `round` values, of each
/// round's percentile `p`. A trailing partial round is left out; `None`
/// when no round is whole.
#[must_use]
pub fn median_round_percentile(values: &[f64], round: usize, p: u32) -> Option<f64> {
    let per_round: Vec<f64> = values
        .chunks_exact(round.max(1))
        .filter_map(|r| percentile(&sorted(r), p))
        .collect();
    median(&per_round)
}

/// The median (mean of the middle pair for an even count). `None` when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A sorted copy (NaNs last).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method). `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread the bounds are checked against.
/// `None` for fewer than two values or a zero median.
#[must_use]
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    let med = median(values)?;
    if med == 0.0 {
        return None;
    }
    Some((q[2] - q[0]) / med.abs())
}
