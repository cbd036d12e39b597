//! Order statistics and the rate-ladder decision.

/// Percentiles the report may quote, highest first.
const TAIL_CANDIDATES: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a quoted tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest quotable percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, as `(p, value)`; `None` when even the median
/// lacks that support.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| !sorted.is_empty() && beyond(sorted.len(), p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// A latency sample set. Failed operations enter as `+inf`, so they
/// miss every latency limit.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    values: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn push_failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    pub fn summary(&self) -> Summary {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.5),
            tail: tail(&v),
        }
    }
}

/// Median plus the supported tail of a sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// `p99` when supported, else the supported tail's label.
    pub fn tail_label(&self) -> String {
        match self.tail {
            Some((p, _)) => format!("p{}", (p * 1000.0).round() / 10.0),
            None => "p-".into(),
        }
    }

    /// The p99 if the sample supports it, else the highest supported
    /// tail, else the median.
    pub fn tail_value(&self) -> f64 {
        self.tail.map_or(self.p50, |(_, v)| v)
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

// ----- the rate ladder ------------------------------------------------------

/// What one rung of the ladder observed.
#[derive(Debug, Clone, Default)]
pub struct RungObs {
    /// Offered event rate.
    pub offered: f64,
    /// Backlog (events sent − events acked) sampled during sending, as
    /// `(seconds since rung start, backlog)`.
    pub backlog: Vec<(f64, f64)>,
    /// Ack latencies from scheduled send time (failures as `+inf`).
    pub latencies: Latencies,
    /// Events acked during the rung divided by its sending time.
    pub achieved: f64,
}

/// Least-squares slope of `(x, y)` samples; 0 for fewer than 2 points.
pub fn slope(samples: &[(f64, f64)]) -> f64 {
    let n = samples.len() as f64;
    if samples.len() < 2 {
        return 0.0;
    }
    let mx = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let my = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let sxx: f64 = samples.iter().map(|s| (s.0 - mx) * (s.0 - mx)).sum();
    let sxy: f64 = samples.iter().map(|s| (s.0 - mx) * (s.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// A rung's backlog grows when it accumulates faster than
/// `growth_frac` of the offered rate and by more than `min_events`
/// over the rung.
pub fn backlog_grows(obs: &RungObs, growth_frac: f64, min_events: f64) -> bool {
    let s = slope(&obs.backlog);
    let span = match (obs.backlog.first(), obs.backlog.last()) {
        (Some(a), Some(b)) => b.0 - a.0,
        _ => 0.0,
    };
    s > growth_frac * obs.offered && s * span > min_events
}

/// The ladder's acceptance rule.
#[derive(Debug, Clone, Copy)]
pub struct LadderRule {
    /// Tail ack latency must stay under this (ms).
    pub tail_limit_ms: f64,
    /// See [`backlog_grows`].
    pub growth_frac: f64,
    /// See [`backlog_grows`].
    pub min_growth_events: f64,
}

impl LadderRule {
    /// Whether a rung is sustained: bounded tail latency (failures
    /// count as misses) and a backlog that does not grow.
    pub fn sustained(&self, obs: &RungObs) -> bool {
        let s = obs.latencies.summary();
        s.n > 0
            && s.tail_value() < self.tail_limit_ms
            && !backlog_grows(obs, self.growth_frac, self.min_growth_events)
    }
}

/// Binary search for the highest sustained rung of `rungs` (ascending
/// rates), probing each candidate once with `probe`. Assumes a rung
/// above an unsustained one is unsustained too. Returns the index of
/// the highest sustained rung (if any) and every probe made, in order.
pub fn search_ladder(
    rungs: &[f64],
    rule: &LadderRule,
    mut probe: impl FnMut(f64) -> RungObs,
) -> (Option<usize>, Vec<(usize, RungObs, bool)>) {
    let (mut lo, mut hi) = (-1isize, rungs.len() as isize);
    let mut probes = Vec::new();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let obs = probe(rungs[mid as usize]);
        let ok = rule.sustained(&obs);
        probes.push((mid as usize, obs, ok));
        if ok {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    ((lo >= 0).then_some(lo as usize), probes)
}

/// A geometric ladder of `n` rates from `base` by `ratio`.
pub fn geometric(base: f64, ratio: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| base * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.99, 990.0)));
        // 999 samples: p99 has 9 beyond, so p95 (49 beyond) is quoted.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(0.95));
        // 10000 samples support p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.999, 9990.0)));
        // 20 samples: the median has 10 beyond, p75 only 5.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.5, 10.0)));
        // 19 samples support nothing.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut l = Latencies::default();
        for _ in 0..989 {
            l.push(1.0);
        }
        for _ in 0..11 {
            l.push_failed();
        }
        let s = l.summary();
        assert_eq!(s.p50, 1.0);
        assert!(
            s.tail_value().is_infinite(),
            "11 failures in 1000 exceed p99"
        );
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
        assert_eq!(percentile(&[5.0], 0.0), 5.0);
    }

    /// A synthetic system with capacity `cap` events/s: below it the
    /// backlog hovers at a constant in-flight depth, above it the
    /// backlog grows at the excess rate and latency grows with it.
    fn synthetic(cap: f64, rate: f64) -> RungObs {
        let mut obs = RungObs {
            offered: rate,
            achieved: rate.min(cap),
            ..RungObs::default()
        };
        for i in 0..200 {
            let t = i as f64 * 0.005;
            let jitter = if i % 2 == 0 { 40.0 } else { -40.0 };
            let queued = (rate - cap).max(0.0) * t;
            obs.backlog.push((t, rate * 0.002 + jitter + queued));
            obs.latencies.push(2.0 + 1000.0 * queued / cap);
        }
        obs
    }

    fn rule() -> LadderRule {
        LadderRule {
            tail_limit_ms: 50.0,
            growth_frac: 0.05,
            min_growth_events: 256.0,
        }
    }

    #[test]
    fn backlog_growth_decision() {
        assert!(!backlog_grows(&synthetic(50_000.0, 40_000.0), 0.05, 256.0));
        assert!(!backlog_grows(&synthetic(50_000.0, 50_000.0), 0.05, 256.0));
        assert!(backlog_grows(&synthetic(50_000.0, 60_000.0), 0.05, 256.0));
        // Growth slower than the threshold fraction is noise.
        assert!(!backlog_grows(&synthetic(50_000.0, 51_000.0), 0.05, 256.0));
    }

    #[test]
    fn ladder_finds_highest_sustained_rung() {
        let rungs = geometric(1000.0, 1.25, 16);
        // Capacities at least 5% (the growth threshold) below the next rung.
        for cap in [1400.0, 7000.0, 20_000.0, 30_000.0] {
            let (best, probes) = search_ladder(&rungs, &rule(), |r| synthetic(cap, r));
            let expect = rungs.iter().rposition(|&r| r <= cap);
            assert_eq!(best, expect, "cap {cap}");
            assert!(probes.len() <= 5, "binary search over 16 rungs");
        }
        // Nothing sustained, everything sustained.
        let (best, _) = search_ladder(&rungs, &rule(), |r| synthetic(10.0, r));
        assert_eq!(best, None);
        let (best, _) = search_ladder(&rungs, &rule(), |r| synthetic(1e9, r));
        assert_eq!(best, Some(15));
    }

    #[test]
    fn latency_alone_fails_a_rung() {
        let mut obs = synthetic(50_000.0, 10_000.0);
        assert!(rule().sustained(&obs));
        for _ in 0..20 {
            obs.latencies.push(80.0);
        }
        assert!(!rule().sustained(&obs), "tail over the limit");
    }
}
