//! Order statistics, the tail-percentile rule, digests and the
//! benchmark's own seed mixer. Nothing here touches the product.

/// Median of `values` (mean of the two middle values when even).
/// Panics on an empty slice: every caller has at least one rep.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How many of `n` repeats (reps of a run, set-ups of a run) a timing
/// is read from: the fastest quarter, rounded up. README.md,
/// "Steadiness", has the comparison with the other shares tried.
pub fn fastest_quarter(n: usize) -> usize {
    n.div_ceil(4)
}

/// Nearest-rank percentile `q` (0 < q <= 1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_of(q, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `q` among `n` samples. The
/// small slack keeps products such as `0.95 * 200` from rounding up
/// past their exact value.
fn rank_of(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// A tail percentile and the percentile it was actually read at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The latency at `rung`.
    pub value: f64,
    /// `wanted` when at least [`SAMPLES_BEYOND`] samples lie beyond it,
    /// else 0.50.
    pub rung: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
}

/// The `wanted` percentile of an ascending slice under the "at least
/// ten samples beyond it" rule: a percentile with fewer samples beyond
/// it is the slowest handful of ops, which does not repeat, so the
/// metric falls back to the median. (The issue asked for `null` there;
/// the benchmark contract needs a number on every workload.)
pub fn tail(sorted: &[f64], wanted: f64) -> Tail {
    let n = sorted.len();
    let rung = if n - rank_of(wanted, n) >= SAMPLES_BEYOND {
        wanted
    } else {
        0.50
    };
    Tail {
        value: percentile(sorted, rung),
        rung,
        samples: n,
    }
}

/// `k` indices spread evenly over `0..n`, ascending, always including
/// index 0 (`k >= n` yields every index).
pub fn sample_indices(n: usize, k: usize) -> Vec<usize> {
    if k == 0 || n == 0 {
        return Vec::new();
    }
    if k >= n {
        return (0..n).collect();
    }
    (0..k).map(|i| i * n / k).collect()
}

/// FNV-1a, 64 bit: the digest of assignments and response streams that
/// must repeat exactly across reps and across runs of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer in (little-endian).
    pub fn word(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Fold a whole assignment in, length first.
    pub fn assignment(&mut self, sys_of: &[usize]) {
        self.word(sys_of.len() as u64);
        for &s in sys_of {
            self.word(s as u64);
        }
    }
}

/// SplitMix64 over `(seed, stream, index)`: the benchmark's own source
/// of job and session seeds, independent of the product's generator so
/// a change to `crates/compat/rand` cannot silently change which
/// inputs are asked for.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `true` iff `sys_of` is a bijection on `0..sys_of.len()`.
pub fn is_bijection(sys_of: &[usize]) -> bool {
    let mut seen = vec![false; sys_of.len()];
    sys_of
        .iter()
        .all(|&s| s < seen.len() && !std::mem::replace(&mut seen[s], true))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn a_quarter_of_the_repeats_is_kept_rounded_up() {
        assert_eq!([1, 4, 5, 8, 9, 25].map(fastest_quarter), [1, 1, 2, 2, 3, 7]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 beyond p99.
        let t = tail(&ramp(1000), 0.99);
        assert_eq!((t.rung, t.value, t.samples), (0.99, 990.0, 1000));
        // 999 samples: only 9 beyond p99, so the median is reported.
        let t = tail(&ramp(999), 0.99);
        assert_eq!((t.rung, t.value), (0.50, 500.0));
        // 200 samples resolve p95 exactly; 199 do not.
        assert_eq!(tail(&ramp(200), 0.95).rung, 0.95);
        assert_eq!(tail(&ramp(199), 0.95).rung, 0.50);
    }

    #[test]
    fn unresolved_tails_report_the_median() {
        // 12 samples (three vcycle_scale reps): nothing has ten beyond it.
        let t = tail(&ramp(12), 0.95);
        assert_eq!((t.rung, t.value), (0.50, 6.0));
        // Asking for the median itself always yields the median.
        assert_eq!(tail(&ramp(7), 0.50).value, 4.0);
    }

    #[test]
    fn sample_indices_are_even_and_bounded() {
        assert_eq!(
            sample_indices(96, 12),
            vec![0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88]
        );
        assert_eq!(sample_indices(3, 8), vec![0, 1, 2]);
        assert!(sample_indices(0, 4).is_empty());
        assert!(sample_indices(4, 0).is_empty());
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_depends_on_order_and_length() {
        let digest = |a: &[usize]| {
            let mut h = Fnv::default();
            h.assignment(a);
            h.0
        };
        assert_ne!(digest(&[0, 1, 2]), digest(&[0, 2, 1]));
        assert_ne!(digest(&[0, 1]), digest(&[0, 1, 2]));
        assert_eq!(digest(&[2, 0, 1]), digest(&[2, 0, 1]));
    }

    #[test]
    fn mix_separates_seed_stream_and_index() {
        let base = mix(1, 2, 3);
        assert_eq!(base, mix(1, 2, 3));
        assert_ne!(base, mix(2, 2, 3));
        assert_ne!(base, mix(1, 3, 3));
        assert_ne!(base, mix(1, 2, 4));
    }

    #[test]
    fn bijection_check_rejects_repeats_and_out_of_range() {
        assert!(is_bijection(&[2, 0, 1]));
        assert!(is_bijection(&[]));
        assert!(!is_bijection(&[0, 0, 1]));
        assert!(!is_bijection(&[0, 3, 1]));
    }
}
