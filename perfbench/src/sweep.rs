//! `sim_sweep` and `rtl_compiled`: one client runs seeded generated
//! programs back to back, each on a fresh sequential `Soc`, and checks
//! every final memory image against the reference model.
//!
//! Both workloads run the same program stream for a given seed,
//! `sim_sweep` at `SimAccurate` and `rtl_compiled` at `RtlCompiled`.
//! The traced run also runs the first programs at the other fidelity
//! and reports the sim-accurate-vs-RTL cycle error on those identical
//! programs. Layers that need two threads are probed only in traced
//! runs, whose numbers have no bound: `rtl_compiled` reruns the first
//! programs on a 2-shard `ParallelSoc` (epoch barrier and mailbox), and
//! `sim_sweep` runs the job-server probe of [`crate::serve`].

use crate::closed::{closed_loop, put_end_to_end, put_overhead, put_trace};
use crate::closed::{LoopStats, OpEnd, Outcome, Status, COUNT_OPS, SET};
use crate::gen;
use crate::stats::{Latencies, Ratio, Report};
use crate::trace::Tracer;
use craft_soc::workloads::{orchestrator_program, table_words, Workload};
use craft_soc::{Fidelity, ParallelSoc, RunResult, Soc, SocConfig};
use std::time::{Duration, Instant};

/// Waves per generated program (≈6k hub cycles).
pub const WAVES: usize = 8;
/// Hub-cycle budget of one run (about 200× a program's length).
const MAX_CYCLES: u64 = 4_000_000;
/// Watchdog no-progress limit.
const NO_PROGRESS: u64 = 50_000;
/// Shards of the sharded probe engine.
const SHARDS: usize = 2;
/// Programs run at both fidelities for the model-accuracy line, and
/// on both engines for the sharding probe.
const PROBE_PROGRAMS: u64 = 8;
/// Seed and index of the untimed warm-up program: the same for every
/// seed, so set-up time does not depend on the seed.
const WARMUP: (u64, u64) = (0, u64::MAX);

/// Counters and layer timings read from one op.
#[derive(Debug, Default, Clone, Copy)]
struct OpCounters {
    cycles: u64,
    run: Duration,
    ticks_delivered: u64,
    ticks_skipped: u64,
    commits_skipped: u64,
    ops_lowered: u64,
    cache_hits: u64,
    signal_word_ops: u64,
    barrier_wait_ns: u64,
    mailbox_tokens: u64,
    fired_max: u64,
    fired_sum: u64,
}

/// Runs program `wl` on a fresh engine (a sequential `Soc`, or a
/// 2-shard `ParallelSoc` when `sharded`): build, run, verify, drop,
/// each under its own span when tracing.
fn run_program(
    sharded: bool,
    fidelity: Fidelity,
    orch: &[u32],
    wl: &Workload,
    tr: &mut Tracer,
    op: u64,
    root: crate::trace::SpanId,
) -> (OpEnd, OpCounters) {
    let cfg = SocConfig {
        fidelity,
        ..SocConfig::default()
    };
    let table = table_words(&wl.entries);
    let started = Instant::now();
    let mut c = OpCounters::default();
    let check = |res: &Result<RunResult, _>, ok_mem: bool| match res {
        Ok(r) if r.completed && ok_mem => Status::Ok,
        Ok(r) if r.completed => Status::Wrong,
        _ => Status::Error,
    };
    let (status, res) = match sharded {
        false => {
            let mut soc = tr.span("soc.build", op, root, || {
                Soc::build(cfg, orch, &table, &wl.gmem_init)
            });
            let run_start = Instant::now();
            let res = tr.span("sim.run", op, root, || {
                soc.run_checked(MAX_CYCLES, NO_PROGRESS)
            });
            c.run = run_start.elapsed();
            let status = tr.span("bench.verify", op, root, || {
                let sim = soc.sim();
                c.ticks_delivered = sim.ticks_delivered();
                c.ticks_skipped = sim.ticks_skipped();
                c.commits_skipped = sim.commits_skipped();
                if let Some(p) = soc.plan_stats() {
                    c.ops_lowered = p.ops_lowered;
                    c.cache_hits = p.cache_hits;
                    c.signal_word_ops = p.signal_word_ops;
                }
                check(&res, gen::matches_expected(wl, |b, n| soc.gmem_read(b, n)))
            });
            tr.span("soc.drop", op, root, || drop(soc));
            (status, res)
        }
        true => {
            let mut soc = tr.span("soc.build", op, root, || {
                ParallelSoc::build(cfg, orch, &table, &wl.gmem_init, SHARDS)
            });
            let run_start = Instant::now();
            let res = tr.span("sim.run", op, root, || {
                soc.run_checked(MAX_CYCLES, NO_PROGRESS)
            });
            c.run = run_start.elapsed();
            let status = tr.span("bench.verify", op, root, || {
                for st in soc.shard_stats() {
                    c.barrier_wait_ns += st.barrier_wait_ns;
                    c.mailbox_tokens += st.drained_tokens;
                    c.fired_max = c.fired_max.max(st.fired_instants);
                    c.fired_sum += st.fired_instants;
                }
                check(&res, gen::matches_expected(wl, |b, n| soc.gmem_read(b, n)))
            });
            tr.span("soc.drop", op, root, || drop(soc));
            (status, res)
        }
    };
    c.cycles = res.map_or(0, |r| r.cycles);
    (OpEnd { started, status }, c)
}

impl OpCounters {
    /// What the same program must count again on every attempt.
    fn counts(&self) -> [u64; 7] {
        [
            self.cycles,
            self.ticks_delivered,
            self.ticks_skipped,
            self.commits_skipped,
            self.ops_lowered,
            self.cache_hits,
            self.signal_word_ops,
        ]
    }
}

/// One measured pass over programs `0..SET`, with the counters of every
/// op in op order (so the first [`SET`] are each program's first
/// attempt). A later attempt that counts differently is wrong.
fn pass(
    fidelity: Fidelity,
    seed: u64,
    seconds: u64,
    min_ops: u64,
    orch: &[u32],
    tr: &mut Tracer,
    setup: Option<&mut dyn FnMut() -> Result<(), String>>,
) -> Result<(LoopStats, Vec<OpCounters>), String> {
    let mut counters: Vec<OpCounters> = Vec::new();
    let st = closed_loop(seconds, min_ops, tr, setup, |op, tr| {
        let wl = tr.span("bench.gen", op.id, op.root, || {
            gen::program(seed, op.index, WAVES)
        });
        let (mut end, c) = run_program(false, fidelity, orch, &wl, tr, op.id, op.root);
        let first = counters.get(op.index as usize);
        if end.status == Status::Ok && first.is_some_and(|f| f.counts() != c.counts()) {
            end.status = Status::Wrong;
        }
        counters.push(c);
        end
    })?;
    Ok((st, counters))
}

/// Set-up: the orchestrator program and one warm-up program, checked.
fn setup(fidelity: Fidelity) -> Result<Vec<u32>, String> {
    let orch = orchestrator_program();
    let wl = gen::program(WARMUP.0, WARMUP.1, WAVES);
    let (end, _) = run_program(
        false,
        fidelity,
        &orch,
        &wl,
        &mut Tracer::new(false),
        0,
        None,
    );
    match end.status {
        Status::Ok => Ok(orch),
        s => Err(format!("warm-up program failed: {s:?}")),
    }
}

/// Runs the workload at `fidelity` for `seconds` (split between an
/// untraced and a traced pass when `trace`).
pub fn run(fidelity: Fidelity, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let orch = setup(fidelity)?;
    let mut out = Outcome::default();
    let mut r = Report::default();
    if !trace {
        let (st, counters) = pass(
            fidelity,
            seed,
            seconds,
            SET,
            &orch,
            &mut Tracer::new(false),
            Some(&mut || setup(fidelity).map(drop)),
        )?;
        let cycles: u64 = counters[..SET as usize].iter().map(|c| c.cycles).sum();
        put_end_to_end(&mut r, &st, cycles, st.verified())?;
        out.count(&[&st]);
        out.report = r;
        return Ok(out);
    }
    let half = seconds.div_ceil(2);
    let (plain, _) = pass(
        fidelity,
        seed,
        half,
        COUNT_OPS,
        &orch,
        &mut Tracer::new(false),
        None,
    )?;
    let mut tr = Tracer::new(true);
    let (st, counters) = pass(fidelity, seed, half, COUNT_OPS, &orch, &mut tr, None)?;
    put_layers(&mut r, &st, &plain, &counters)?;
    put_trace(&mut r, &tr)?;
    out.count(&[&plain, &st]);
    // The first programs again at the other fidelity (model accuracy)
    // and, at RTL, on the sharded engine.
    let other = match fidelity {
        Fidelity::SimAccurate => Fidelity::RtlCompiled,
        _ => Fidelity::SimAccurate,
    };
    let (mut sim, mut rtl) = (0u64, 0u64);
    let mut shards = Vec::new();
    for i in 0..PROBE_PROGRAMS {
        let wl = gen::program(seed, i, WAVES);
        let probe = |sharded, fidelity| {
            let (end, c) = run_program(
                sharded,
                fidelity,
                &orch,
                &wl,
                &mut Tracer::new(false),
                i,
                None,
            );
            match end.status {
                Status::Ok => Ok(c),
                s => Err(format!(
                    "probe program {i} (sharded {sharded}, {fidelity:?}) failed: {s:?}"
                )),
            }
        };
        let c = probe(false, other)?;
        let mine = counters[i as usize].cycles;
        let (s, t) = if other == Fidelity::RtlCompiled {
            (mine, c.cycles)
        } else {
            (c.cycles, mine)
        };
        sim += s;
        rtl += t;
        if fidelity == Fidelity::RtlCompiled {
            shards.push((counters[i as usize].run, probe(true, fidelity)?));
        }
    }
    r.ratio(
        "model.cycle_err_pct",
        Ratio::new(100.0 * (rtl as f64 - sim as f64), rtl as f64),
        "%",
    );
    out.notes.push(format!(
        "model accuracy over programs 0..{PROBE_PROGRAMS}: RtlCompiled {rtl} vs SimAccurate {sim} hub cycles"
    ));
    if fidelity == Fidelity::RtlCompiled {
        put_shards(&mut r, &shards)?;
    } else {
        crate::serve::probe(seed, &mut out, &mut r, &mut tr)?;
    }
    out.trace = Some(tr);
    out.report = r;
    Ok(out)
}

/// Per-layer metrics of the traced pass `st`; `plain` is the untraced
/// pass over the same programs, for the tracing overhead.
fn put_layers(
    r: &mut Report,
    st: &LoopStats,
    plain: &LoopStats,
    counters: &[OpCounters],
) -> Result<(), String> {
    let first = &counters[..COUNT_OPS as usize];
    let sum = |f: fn(&OpCounters) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let mut run = Latencies::default();
    let mut ns_per_cycle = Latencies::default();
    for c in counters {
        run.push(c.run);
        ns_per_cycle.push_value(c.run.as_nanos() as f64 / c.cycles.max(1) as f64);
    }
    r.put("sim.run_ms_p50", run.percentile(50.0)?, "ms");
    r.put("sim.ns_per_cycle_p50", ns_per_cycle.percentile(50.0)?, "ns");
    r.put("sim.cycles_total", sum(|c| c.cycles), "count");
    r.put("sim.ticks_delivered", sum(|c| c.ticks_delivered), "count");
    r.put("sim.ticks_skipped", sum(|c| c.ticks_skipped), "count");
    r.put("sim.commits_skipped", sum(|c| c.commits_skipped), "count");
    r.ratio(
        "sim.gated_frac",
        Ratio::new(
            sum(|c| c.ticks_skipped),
            sum(|c| c.ticks_skipped + c.ticks_delivered),
        ),
        "frac",
    );
    r.put("soc.rtlplan.ops_lowered", sum(|c| c.ops_lowered), "count");
    r.put("soc.rtlplan.cache_hits", sum(|c| c.cache_hits), "count");
    r.put(
        "soc.rtlplan.signal_word_ops",
        sum(|c| c.signal_word_ops),
        "count",
    );
    put_overhead(r, st, plain)
}

/// Sharding probe metrics from (sequential run time, sharded counters)
/// pairs of the same programs.
fn put_shards(r: &mut Report, pairs: &[(Duration, OpCounters)]) -> Result<(), String> {
    let sum = |f: fn(&OpCounters) -> u64| pairs.iter().map(|(_, c)| f(c)).sum::<u64>() as f64;
    let mut barrier = Latencies::default();
    for (_, c) in pairs {
        barrier.push(Duration::from_nanos(c.barrier_wait_ns));
    }
    let seq_ns: f64 = pairs.iter().map(|(d, _)| d.as_nanos() as f64).sum();
    let run_ns: f64 = pairs.iter().map(|(_, c)| c.run.as_nanos() as f64).sum();
    r.put("sim.shard.barrier_wait_ms", barrier.percentile(50.0)?, "ms");
    r.ratio(
        "sim.shard.barrier_share",
        Ratio::new(sum(|c| c.barrier_wait_ns), SHARDS as f64 * run_ns),
        "frac",
    );
    r.put(
        "sim.shard.mailbox_tokens",
        sum(|c| c.mailbox_tokens),
        "count",
    );
    r.ratio(
        "sim.shard.fired_imbalance",
        Ratio::new(SHARDS as f64 * sum(|c| c.fired_max), sum(|c| c.fired_sum)),
        "ratio",
    );
    r.ratio("sim.shard.speedup", Ratio::new(seq_ns, run_ns), "ratio");
    Ok(())
}
