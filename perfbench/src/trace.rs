//! In-memory spans around the benchmark's calls into each layer,
//! written out as Chrome trace-event JSON when the run ends.
//!
//! A span has a name, a start, an end and a parent; all spans of one
//! op share its op id. A layer's self time is its span's duration minus
//! the part its child spans cover. Spans are recorded only in a traced
//! run: with tracing off every call is a no-op.

use crate::stats::Latencies;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    start: Instant,
    end: Instant,
    parent: SpanId,
}

/// Span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// Closes `id` now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end = Instant::now();
        }
    }

    /// Runs `f` under a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let v = f();
        self.end(id);
        v
    }

    /// Records a span whose bounds were observed elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.on.then(|| {
            self.spans.push(Span {
                name,
                op,
                start,
                end: end.max(start),
                parent,
            });
            self.spans.len() - 1
        })
    }

    /// Appends `other`'s spans, their op ids raised by `op_offset`.
    pub fn absorb(&mut self, other: Tracer, op_offset: u64) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.op += op_offset;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span in seconds (duration minus the part
    /// its children cover; children of one parent do not overlap).
    fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        own
    }

    /// Summed self time per span name, and the summed duration of the
    /// root spans (the ops).
    pub fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut by_name = BTreeMap::new();
        let mut ops = 0.0;
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *by_name.entry(s.name).or_insert(0.0) += own;
            if s.parent.is_none() {
                ops += (s.end - s.start).as_secs_f64();
            }
        }
        (by_name, ops)
    }

    /// Per op (root span), the share of its wall time its layer spans
    /// do not account for: its self time over its duration.
    pub fn unattributed_shares(&self) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_secs())
            .filter(|(s, _)| s.parent.is_none())
            .map(|(s, own)| {
                let dur = (s.end - s.start).as_secs_f64();
                if dur == 0.0 {
                    0.0
                } else {
                    own / dur
                }
            })
            .collect()
    }

    /// The largest share of one op's wall time that its layer spans do
    /// not account for; an error when it is above `limit`, so a call
    /// into a layer that lost its span fails the traced run.
    pub fn check_coverage(&self, limit: f64) -> Result<f64, String> {
        let shares = self.unattributed_shares();
        let worst = shares.iter().copied().fold(0.0, f64::max);
        if worst > limit {
            let over = shares.iter().filter(|&&s| s > limit).count();
            return Err(format!(
                "layer spans leave {:.1}% of an op's wall time unaccounted for \
                 (limit {:.1}%; {over} of {} ops over it)",
                100.0 * worst,
                100.0 * limit,
                shares.len()
            ));
        }
        Ok(worst)
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations(&self, name: &str) -> Latencies {
        let mut l = Latencies::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            l.push(s.end - s.start);
        }
        l
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps, one thread row per op).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = s.start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "\n{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": {ts:.3}, \
                 \"dur\": {dur:.3}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"id\": {i}, \"op\": {}, \"parent\": {parent}}}}}",
                s.name, s.op, s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = t.record("op", 0, None, ms(0), ms(100));
        let build = t.record("build", 0, root, ms(2), ms(30));
        t.record("run", 0, root, ms(30), ms(98));
        t.record("inner", 0, build, ms(5), ms(15));
        let (by_name, ops) = t.self_times();
        let near = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(near(by_name["op"], 0.004));
        assert!(near(by_name["build"], 0.018));
        assert!(near(by_name["inner"], 0.010));
        assert!(near(ops, 0.1));
        assert!(near(t.unattributed_shares()[0], 0.04));
        assert!(t.check_coverage(0.05).is_ok());
        craft_bench::validate_json(&t.chrome_json()).expect("valid trace JSON");
    }

    #[test]
    fn an_op_with_an_uncovered_gap_is_rejected() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        // Op 0 is fully covered; op 1 has no span over 10..20 ms.
        let a = t.record("op", 0, None, ms(0), ms(100));
        t.record("run", 0, a, ms(0), ms(100));
        let b = t.record("op", 1, None, ms(100), ms(200));
        t.record("build", 1, b, ms(100), ms(110));
        t.record("run", 1, b, ms(120), ms(200));
        let shares = t.unattributed_shares();
        assert!(shares[0].abs() < 1e-9 && (shares[1] - 0.1).abs() < 1e-9);
        // The aggregate share is 5%; the check looks at the worst op.
        assert!(t.check_coverage(0.06).is_err());
        assert!(t.check_coverage(0.1 + 1e-9).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", 0, None);
        t.end(id);
        assert_eq!(id, None);
        assert_eq!(t.self_times().1, 0.0);
        craft_bench::validate_json(&t.chrome_json()).expect("valid empty trace");
    }
}
