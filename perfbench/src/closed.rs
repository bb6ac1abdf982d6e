//! Shared scaffolding: the closed-loop client, set-up timing and the
//! outcome every workload returns.
//!
//! A closed loop cycles through a fixed set of [`SET`] seeded inputs
//! until its time is up and keeps, for each input, the best time over
//! its attempts. A shared host may slow down by tens of percent for
//! seconds at a time; an input's best time is how long the program
//! takes on it, and the same input's later attempts must give the same
//! outputs.

use crate::stats::{ms, Latencies, Ratio, Report};
use crate::trace::{SpanId, Tracer};
use std::time::{Duration, Instant};

/// Inputs in one pass of the closed loop: p90 over them has 10
/// samples beyond it. An end-to-end run completes at least one pass.
pub const SET: u64 = 100;
/// Count metrics of a traced pass are summed over this many first ops
/// (the fewest a traced pass runs), so a fixed seed gives the same
/// counts on every run.
pub const COUNT_OPS: u64 = 50;
/// Wall-clock deadline of one op or served job; a later one is failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(20);
/// Set-up is timed again this often during an end-to-end pass;
/// `setup_s` is the median of those times.
pub const SETUP_EVERY: Duration = Duration::from_secs(2);
/// Largest share of one op's wall time that no layer span may account
/// for in a traced run.
pub const UNATTRIBUTED_LIMIT: f64 = 0.03;

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No output disagreed with the reference model.
    pub correct: bool,
    /// Ops (or served jobs) attempted in the measured window.
    pub attempted: u64,
    /// Ops that failed: wrong output, error, or past the deadline.
    pub failed: u64,
    /// Metrics of the run.
    pub report: Report,
    /// Extra human-readable lines (classification tables, bases).
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub trace: Option<Tracer>,
}

/// How one op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Output verified against the reference.
    Ok,
    /// Output disagreed with the reference model, or with an earlier
    /// attempt on the same input.
    Wrong,
    /// The program returned an error or did not finish.
    Error,
}

/// The op the loop asks a workload to run.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Which input of the set: `id % SET`.
    pub index: u64,
    /// Ops before this one in the pass; the op id of its spans.
    pub id: u64,
    /// The op's root span `bench.op`.
    pub root: SpanId,
}

/// What an op hands back to the loop.
#[derive(Debug, Clone, Copy)]
pub struct OpEnd {
    /// When the op's inputs were ready and the program was first
    /// called (the start of `run_ms`).
    pub started: Instant,
    /// How it ended.
    pub status: Status,
}

/// End-to-end numbers of one closed-loop pass.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per input, the best program time over its attempts (first call
    /// into the program to verified); `None` once an attempt failed.
    best: Vec<Option<Duration>>,
    /// Ops attempted.
    pub ops: u64,
    /// Ops failed.
    pub failed: u64,
    /// Ops whose output disagreed with the reference.
    pub wrong: u64,
    /// Timed set-ups, in seconds.
    pub setup_s: Vec<f64>,
}

impl LoopStats {
    /// Per input, its best program time; a failed input as +∞.
    pub fn run_ms(&self) -> Latencies {
        let mut l = Latencies::default();
        for b in &self.best {
            match b {
                Some(d) => l.push(*d),
                None => l.fail(),
            }
        }
        l
    }

    /// The inputs' best program times summed, in seconds; a failed
    /// input counts as the op deadline.
    pub fn best_secs(&self) -> f64 {
        self.best
            .iter()
            .map(|b| b.unwrap_or(OP_DEADLINE).as_secs_f64())
            .sum()
    }

    /// Inputs whose every attempt verified.
    pub fn verified(&self) -> u64 {
        self.best.iter().filter(|b| b.is_some()).count() as u64
    }
}

/// Runs `op` back to back, one client, cycling through the inputs
/// `0..SET`, until `seconds` have passed and at least `min_ops` ops
/// ran. Each op is recorded under a root span `bench.op`. When given,
/// `setup` is timed before the first op and again every
/// [`SETUP_EVERY`], between ops.
pub fn closed_loop(
    seconds: u64,
    min_ops: u64,
    tracer: &mut Tracer,
    mut setup: Option<&mut dyn FnMut() -> Result<(), String>>,
    mut op: impl FnMut(Op, &mut Tracer) -> OpEnd,
) -> Result<LoopStats, String> {
    let mut st = LoopStats::default();
    let t0 = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut next_setup = Duration::ZERO;
    while st.ops < min_ops || t0.elapsed() < budget {
        if let Some(setup) = setup.as_mut() {
            if t0.elapsed() >= next_setup {
                let t = Instant::now();
                setup()?;
                st.setup_s.push(t.elapsed().as_secs_f64());
                next_setup += SETUP_EVERY;
            }
        }
        let due = Instant::now();
        let root = tracer.begin("bench.op", st.ops, None);
        let index = st.ops % SET;
        let end = op(
            Op {
                index,
                id: st.ops,
                root,
            },
            tracer,
        );
        tracer.end(root);
        let done = Instant::now();
        st.ops += 1;
        let ok = end.status == Status::Ok && done - due <= OP_DEADLINE;
        let took = ok.then(|| done - end.started);
        match st.best.get_mut(index as usize) {
            None => st.best.push(took),
            Some(best) => {
                *best = match (*best, took) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    _ => None,
                }
            }
        }
        if !ok {
            st.failed += 1;
            st.wrong += u64::from(end.status == Status::Wrong);
        }
    }
    Ok(st)
}

impl Outcome {
    /// Sets the counts from every pass a run made; `correct` when no
    /// output of any pass disagreed with the reference.
    pub fn count(&mut self, passes: &[&LoopStats]) {
        self.correct = passes.iter().all(|p| p.wrong == 0);
        self.attempted = passes.iter().map(|p| p.ops).sum();
        self.failed = passes.iter().map(|p| p.failed).sum();
    }
}

/// Records the end-to-end metrics every workload shares. `sim_cycles`
/// and `seeds` are summed over the set's inputs (first attempt of
/// each); the rates are over the inputs' summed best times.
pub fn put_end_to_end(
    r: &mut Report,
    st: &LoopStats,
    sim_cycles: u64,
    seeds: u64,
) -> Result<(), String> {
    let mut setups = Latencies::default();
    for &s in &st.setup_s {
        setups.push_value(s);
    }
    let secs = st.best_secs();
    let limit = ms(OP_DEADLINE);
    let run_ms = st.run_ms();
    r.put("setup_s", setups.percentile(50.0)?, "s");
    r.put("sim_cycles_per_s", sim_cycles as f64 / secs, "1/s");
    r.put("run_ms_p50", run_ms.percentile_or(50.0, limit)?, "ms");
    r.put("run_ms_p90", run_ms.percentile_or(90.0, limit)?, "ms");
    r.put("seeds_per_s", seeds as f64 / secs, "1/s");
    Ok(())
}

/// Span names and the per-layer metric carrying each one's share of
/// summed op wall time.
pub const SELF_SHARES: [(&str, &str); 8] = [
    ("bench.op", "self_share.bench.op"),
    ("bench.gen", "self_share.bench.gen"),
    ("bench.verify", "self_share.bench.verify"),
    ("soc.build", "self_share.soc.build"),
    ("sim.run", "self_share.sim.run"),
    ("soc.drop", "self_share.soc.drop"),
    ("sim.golden", "self_share.sim.golden"),
    ("soc.batch.settle", "self_share.soc.batch.settle"),
];

/// Records, for each `(span, metric)` of `names`, the span's summed self
/// time over the summed duration of `tracer`'s root spans.
pub fn put_self_shares(r: &mut Report, tracer: &Tracer, names: &[(&str, &'static str)]) {
    let (by_name, ops) = tracer.self_times();
    for &(span, metric) in names {
        let own = by_name.get(span).copied().unwrap_or(0.0);
        r.ratio(metric, Ratio::new(own, ops), "frac");
    }
}

/// Per-layer self-time shares of a traced run and the p50 durations of
/// the build and verify spans.
pub fn put_trace(r: &mut Report, tracer: &Tracer) -> Result<(), String> {
    put_self_shares(r, tracer, &SELF_SHARES);
    r.put(
        "soc.build_ms_p50",
        tracer.durations("soc.build").p50_or_zero()?,
        "ms",
    );
    r.put(
        "bench.verify_ms_p50",
        tracer.durations("bench.verify").p50_or_zero()?,
        "ms",
    );
    Ok(())
}

/// Tracing overhead: the traced pass's p50 over the untraced pass's,
/// minus one.
pub fn put_overhead(r: &mut Report, traced: &LoopStats, plain: &LoopStats) -> Result<(), String> {
    let (traced, plain) = (traced.run_ms(), plain.run_ms());
    r.ratio(
        "bench.trace_overhead_frac",
        Ratio::new(
            traced.percentile(50.0)? - plain.percentile(50.0)?,
            plain.percentile(50.0)?,
        ),
        "frac",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each input keeps its best time over its attempts; one failed
    /// attempt fails the input; set-up is timed before the first op.
    #[test]
    fn inputs_keep_their_best_attempt() {
        let mut setups = 0;
        let mut setup = || {
            setups += 1;
            Ok(())
        };
        let st = closed_loop(
            0,
            2 * SET,
            &mut Tracer::new(false),
            Some(&mut setup),
            |op, _| {
                let second = op.id >= SET;
                let ms = if second { op.index + 1 } else { op.index + 2 };
                OpEnd {
                    started: Instant::now() - Duration::from_millis(ms),
                    status: if second && op.index == 7 {
                        Status::Wrong
                    } else {
                        Status::Ok
                    },
                }
            },
        )
        .expect("no set-up error");
        assert_eq!((st.ops, st.failed, st.wrong), (2 * SET, 1, 1));
        assert_eq!(st.verified(), SET - 1);
        assert_eq!(setups, 1);
        assert_eq!(st.setup_s.len(), 1);
        let run_ms = st.run_ms();
        let p50 = run_ms.percentile(50.0).expect("100 inputs");
        // Best times 1..=100 ms without input 7's 8 ms, then +∞.
        assert!((51.0..52.0).contains(&p50), "{p50}");
        let p90 = run_ms.percentile(90.0).expect("100 inputs");
        assert!((91.0..92.0).contains(&p90), "{p90}");
        // 99 inputs at their best (1..=100 ms but for input 7) plus one
        // at the deadline.
        let want = (5050.0 - 8.0) / 1e3 + OP_DEADLINE.as_secs_f64();
        assert!((st.best_secs() - want).abs() < 0.05, "{}", st.best_secs());
    }
}
