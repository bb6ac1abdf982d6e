//! Accounting helpers: percentiles with an honest tail, failures that
//! miss every limit, ratios printed with their base, and the metric
//! table a run reports.

use std::time::Duration;

/// Samples a percentile must have beyond it to be reported as a tail.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile of `n` samples that has at least
/// [`TAIL_SAMPLES`] samples beyond it (`None` below 10 samples): p90
/// needs 100 samples, p99 needs 1000.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n >= TAIL_SAMPLES).then(|| 100.0 * (1.0 - TAIL_SAMPLES as f64 / n as f64))
}

/// Fewest samples for which `p` is within the reported tail.
pub fn samples_for(p: f64) -> usize {
    // The small offset keeps 1000 / 10 from rounding up to 101.
    (TAIL_SAMPLES as f64 * 100.0 / (100.0 - p) - 1e-9).ceil() as usize
}

/// Latency samples in milliseconds. A failed operation has no latency:
/// it enters as missing every limit, that is as +∞, so a percentile
/// that lands on a failure reads as the operation deadline.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    values: Vec<f64>,
}

impl Latencies {
    /// Records one successful operation.
    pub fn push(&mut self, d: Duration) {
        self.values.push(ms(d));
    }

    /// Records one value already in the unit being summarized.
    pub fn push_value(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Records one failed operation.
    pub fn fail(&mut self) {
        self.values.push(f64::INFINITY);
    }

    /// Nearest-rank percentile `p`, with failures as +∞. `Err` when
    /// there are too few samples for `p` to be inside the tail.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        let n = self.values.len();
        if n == 0 || (p > 50.0 && n < samples_for(p)) {
            return Err(format!(
                "p{p} needs at least {} samples, have {n}",
                samples_for(p).max(1)
            ));
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        Ok(v[rank - 1])
    }

    /// The median, or 0 for a layer that recorded nothing.
    pub fn p50_or_zero(&self) -> Result<f64, String> {
        if self.values.is_empty() {
            Ok(0.0)
        } else {
            self.percentile(50.0)
        }
    }

    /// [`Latencies::percentile`] with +∞ read as `limit`: the largest
    /// value any limit the benchmark sets can take.
    pub fn percentile_or(&self, p: f64, limit: f64) -> Result<f64, String> {
        self.percentile(p)
            .map(|v| if v.is_finite() { v } else { limit })
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A ratio with the two counts it came from; `0/0` reads as 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The quotient.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// For a ratio, the base it was taken over.
    pub base: Option<Ratio>,
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Metrics recorded so far.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            base: None,
        });
    }

    /// Records a ratio together with its base.
    pub fn ratio(&mut self, name: &'static str, r: Ratio, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: r.value(),
            unit,
            base: Some(r),
        });
    }

    /// One human-readable line per metric; ratios show their base.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| match m.base {
                Some(b) => format!(
                    "  {:<34} {:>14.6} {:<6} ({} / {})",
                    m.name, m.value, m.unit, b.num, b.den
                ),
                None => format!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(10), Some(0.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(samples_for(90.0), 100);
        assert_eq!(samples_for(50.0), 20);
    }

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let mut l = Latencies::default();
        for i in 0..99 {
            l.push_value(f64::from(i));
        }
        assert!(l.percentile(90.0).is_err());
        l.push_value(99.0);
        assert_eq!(l.percentile(90.0), Ok(89.0));
        assert_eq!(l.percentile(50.0), Ok(49.0));
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut l = Latencies::default();
        for _ in 0..95 {
            l.push_value(1.0);
        }
        for _ in 0..5 {
            l.fail();
        }
        assert_eq!(l.percentile(90.0), Ok(1.0));
        assert_eq!(l.percentile(96.0).ok(), None, "p96 needs 250 samples");
        for _ in 0..10 {
            l.fail();
        }
        // 15 of 110 failed: the 90th percentile is a failure.
        assert_eq!(l.percentile(90.0), Ok(f64::INFINITY));
        assert_eq!(l.percentile_or(90.0, 5000.0), Ok(5000.0));
    }

    #[test]
    fn ratios_keep_their_base() {
        let mut r = Report::default();
        r.ratio("sim.gated_frac", Ratio::new(3.0, 4.0), "frac");
        r.ratio("empty", Ratio::new(0.0, 0.0), "frac");
        assert_eq!(r.metrics[0].value, 0.75);
        assert_eq!(r.metrics[1].value, 0.0);
        assert!(r.lines()[0].ends_with("(3 / 4)"), "{}", r.lines()[0]);
    }
}
