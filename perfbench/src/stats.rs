//! The benchmark's own arithmetic: percentiles under the ten-beyond
//! rule, a log-linear histogram for per-call timings, SLO accounting,
//! the pause/work split of allocation stalls, and rate normalisation.

/// A reported percentile needs at least this many samples beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Latency samples of failed requests: larger than every limit.
pub const FAILED: u64 = u64::MAX;

/// Allocation calls longer than this count as stalls.
pub const STALL_NS: u64 = 1_000_000;

const MIB: f64 = (1u64 << 20) as f64;

/// A percentile read from `count` samples. `pct` is the percentile
/// actually reported, which is lower than the one asked for when too few
/// samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: u64,
    pub pct: f64,
    pub count: usize,
}

/// Zero-based nearest-rank index of percentile `p` (0..=1) among `n`
/// samples, lowered until [`TAIL_SAMPLES`] samples lie beyond it. With
/// `n <= TAIL_SAMPLES` no rank satisfies the rule and the minimum is
/// returned. `None` for an empty set.
pub fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let nearest = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    Some(nearest.min(n.saturating_sub(TAIL_SAMPLES + 1)))
}

/// Percentile `p` of ascending `sorted` under the ten-beyond rule.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Pct> {
    let n = sorted.len();
    rank(n, p).map(|k| Pct {
        value: sorted[k],
        pct: (k + 1) as f64 / n as f64,
        count: n,
    })
}

/// Median of `v` (the upper one of an even count); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Requests that failed or took longer than `limit_ns`.
pub fn slo_misses(latencies_ns: &[u64], limit_ns: u64) -> usize {
    latencies_ns.iter().filter(|&&l| l > limit_ns).count()
}

/// `n / base`, or 0 when there is no base (a ratio over nothing).
pub fn per(n: f64, base: f64) -> f64 {
    if base > 0.0 {
        n / base
    } else {
        0.0
    }
}

/// `n` per MiB of `bytes`.
pub fn per_mb(n: f64, bytes: f64) -> f64 {
    per(n, bytes / MIB)
}

/// `n` per thousand `requests`.
pub fn per_kreq(n: f64, requests: f64) -> f64 {
    per(n, requests / 1000.0)
}

/// Bytes as MiB.
pub fn mb(bytes: f64) -> f64 {
    bytes / MIB
}

/// Time spent in allocation stalls (calls over [`STALL_NS`]), split by
/// whether a collector pause completed during the call: a *pause* stall
/// waited for or ran a pause, a *work* stall spent its time on
/// allocation-path work (tracing increments, refill sweeps, steals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallSplit {
    pub pause_ns: u64,
    pub work_ns: u64,
}

impl StallSplit {
    pub fn record(&mut self, call_ns: u64, pause_completed: bool) {
        if call_ns <= STALL_NS {
            return;
        }
        if pause_completed {
            self.pause_ns += call_ns;
        } else {
            self.work_ns += call_ns;
        }
    }

    pub fn merge(&mut self, other: &StallSplit) {
        self.pause_ns += other.pause_ns;
        self.work_ns += other.work_ns;
    }

    pub fn total_ns(&self) -> u64 {
        self.pause_ns + self.work_ns
    }
}

const SUB_BITS: u32 = 6;
const EXACT: u64 = 2 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + EXACT as usize / 2;

/// Log-linear histogram of `u64` samples: exact below 128, then 64
/// buckets per power of two (at most 1.6% relative error). Fixed size,
/// so recording on the request path never allocates.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((shift as u64) << SUB_BITS) + (v >> shift)) as usize
}

/// Smallest value and width of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if (i as u64) < EXACT {
        return (i as u64, 1);
    }
    let shift = (i >> SUB_BITS) as u32 - 1;
    let mantissa = (i as u64 & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS);
    (mantissa << shift, 1 << shift)
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Percentile `p` under the same rank rule as [`percentile`]; the
    /// value is the midpoint of the bucket holding that rank.
    pub fn percentile(&self, p: f64) -> Option<Pct> {
        let n = self.total as usize;
        let k = rank(n, p)? as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > k {
                let (lo, width) = bucket_range(i);
                return Some(Pct {
                    value: lo + (width - 1) / 2,
                    pct: (k + 1) as f64 / n as f64,
                    count: n,
                });
            }
        }
        unreachable!("rank {k} beyond {n} samples")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_arrays() {
        let v: Vec<u64> = (1..=1000).collect();
        let p50 = percentile(&v, 0.50).unwrap();
        assert_eq!((p50.value, p50.pct, p50.count), (500, 0.5, 1000));
        assert_eq!(percentile(&v, 0.99).unwrap().value, 990);
        // p99.9 of 1000 leaves one sample beyond it: the rule lowers it
        // to the rank with exactly ten beyond.
        let p999 = percentile(&v, 0.999).unwrap();
        assert_eq!((p999.value, p999.pct), (990, 0.99));
        assert_eq!(v.len() - p999.value as usize, TAIL_SAMPLES);
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_of_known_arrays() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&mut [0.5]), 0.5);
    }

    #[test]
    fn ten_beyond_rule_on_small_sets() {
        // 25 pauses: p90 would leave 2 beyond, so report p60 (15th).
        let v: Vec<u64> = (1..=25).collect();
        let p90 = percentile(&v, 0.90).unwrap();
        assert_eq!((p90.value, p90.pct), (15, 0.6));
        // p50 (13th) leaves 12 beyond and stands.
        assert_eq!(percentile(&v, 0.50).unwrap().value, 13);
        // Ten or fewer samples cannot satisfy the rule: the minimum.
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5).unwrap().value, 1);
        assert_eq!(percentile(&[7], 0.99).unwrap().value, 7);
        for n in 11..200 {
            for p in [0.5, 0.9, 0.99, 0.999] {
                let k = rank(n, p).unwrap();
                assert!(n - 1 - k >= TAIL_SAMPLES, "n={n} p={p} k={k}");
            }
        }
    }

    #[test]
    fn failures_count_as_slo_misses_and_top_the_tail() {
        let mut lat = vec![1_000u64; 985];
        lat.extend([6_000_000; 5]); // slow: over a 5 ms limit
        lat.extend([FAILED; 10]);
        assert_eq!(slo_misses(&lat, 5_000_000), 15);
        lat.sort_unstable();
        // The failures sit beyond every finite sample: p99 with ten
        // beyond it is a slow request, not a fast one.
        assert_eq!(percentile(&lat, 0.99).unwrap().value, 6_000_000);
        assert_eq!(percentile(&lat, 0.999).unwrap().value, 6_000_000);
    }

    #[test]
    fn stall_split_by_pause() {
        let mut s = StallSplit::default();
        s.record(STALL_NS, true); // not longer than the threshold
        s.record(900_000, false);
        s.record(3_000_000, true);
        s.record(2_000_000, false);
        s.record(1_500_000, false);
        assert_eq!(s.pause_ns, 3_000_000);
        assert_eq!(s.work_ns, 3_500_000);
        let mut t = StallSplit::default();
        t.record(4_000_000, true);
        t.merge(&s);
        assert_eq!(t.total_ns(), 10_500_000);
    }

    #[test]
    fn normalisation_per_mb_cycle_and_kreq() {
        assert_eq!(per_mb(30.0, 3.0 * MIB), 10.0);
        assert_eq!(per(12.0, 4.0), 3.0); // per cycle
        assert_eq!(per_kreq(250.0, 50_000.0), 5.0);
        assert_eq!(mb(MIB * 2.5), 2.5);
        // A base of nothing yields 0, never NaN or infinity.
        assert_eq!(per(5.0, 0.0), 0.0);
        assert_eq!(per_mb(5.0, 0.0), 0.0);
    }

    #[test]
    fn histogram_matches_exact_percentiles() {
        assert_eq!(bucket_range(bucket(127)), (127, 1));
        for v in [128u64, 129, 1_000, 65_535, 1 << 40, u64::MAX] {
            let (lo, width) = bucket_range(bucket(v));
            assert!(lo <= v && v - lo < width, "{v}: {lo}+{width}");
        }
        let mut rng = mcgc::workloads::rng::SmallRng::seed_from_u64(7);
        let mut v: Vec<u64> = (0..20_000)
            .map(|_| rng.gen_range_u64(50, 5_000_000))
            .collect();
        let mut h = Histogram::default();
        let (a, b) = v.split_at(7_000);
        let mut h2 = Histogram::default();
        a.iter().for_each(|&x| h.record(x));
        b.iter().for_each(|&x| h2.record(x));
        h.merge(&h2);
        v.sort_unstable();
        assert_eq!(h.percentile(0.5).unwrap().count, 20_000);
        for p in [0.5, 0.9, 0.99, 0.999] {
            let exact = percentile(&v, p).unwrap();
            let approx = h.percentile(p).unwrap();
            assert_eq!(approx.pct, exact.pct);
            let err = (approx.value as f64 - exact.value as f64).abs() / exact.value as f64;
            assert!(err < 0.016, "p{p}: {} vs {}", approx.value, exact.value);
        }
    }
}
