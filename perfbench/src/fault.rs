//! `fault_campaign`: one client runs one `BatchSoc` fault campaign per
//! op: a generated program with seeded bit-flip, drop and duplicate
//! lanes at a low per-token rate on NoC mesh links. Lockstep lanes,
//! de-opt solo replays and fault injectors run only here.
//!
//! The fault-free golden run must match the reference model, and so
//! must every lane that stayed in lockstep. A de-opted lane is
//! classified against the model (masked, corrupted, hung, or out of
//! budget). A solo replay that panics leaves its lane unclassified:
//! it is counted in `soc.batch.panicked_lanes` and lowers
//! `seeds_per_s`, but does not fail the op.

use crate::closed::{closed_loop, put_end_to_end, put_overhead, put_trace};
use crate::closed::{LoopStats, OpEnd, Outcome, Status, COUNT_OPS, SET};
use crate::gen::{self, Rng};
use crate::stats::{Ratio, Report};
use crate::trace::{SpanId, Tracer};
use craft_bench::SilentPanicGuard;
use craft_connections::FaultConfig;
use craft_sim::SimError;
use craft_soc::workloads::{orchestrator_program, table_words};
use craft_soc::{BatchSoc, LaneSpec, SegmentStatus, SocConfig};
use std::time::Instant;

/// Waves per generated program (≈4k hub cycles). Short programs at a
/// higher rate put more injected faults in the 100 campaigns of a seed
/// than long ones at a lower rate, for the same time per op, so how
/// much replay work a seed draws varies less from seed to seed.
const WAVES: usize = 6;
/// Fault lanes per batch.
const LANES: u64 = 12;
/// Per-token fault probability of every lane.
const RATE: f64 = 1.5e-3;
/// Hub-cycle budget of the golden run and of every replay.
const MAX_CYCLES: u64 = 2_000_000;
/// Watchdog no-progress limit (a hung lane costs this many cycles,
/// about one program's length).
const NO_PROGRESS: u64 = 5_000;
/// Seed and index of the untimed warm-up campaign: the same for every
/// seed, so set-up time does not depend on the seed.
const WARMUP: (u64, u64) = (0, u64::MAX);

/// Every directed link of the 4x4 mesh, by its NoC channel name
/// (`l<from>p<port>-><to>`, ports 1..4 = north, east, south, west).
fn mesh_links() -> Vec<String> {
    let mut links = Vec::new();
    for n in 0..16usize {
        if n % 4 < 3 {
            links.push(format!("l{n}p2->{}", n + 1));
            links.push(format!("l{}p4->{n}", n + 1));
        }
        if n / 4 < 3 {
            links.push(format!("l{n}p3->{}", n + 4));
            links.push(format!("l{}p1->{n}", n + 4));
        }
    }
    links
}

/// The seeded lanes of op `i`.
fn lanes(seed: u64, i: u64, links: &[String]) -> Vec<LaneSpec> {
    let mut rng = Rng::fork(seed, 3, i);
    (0..LANES)
        .map(|_| {
            let link = &links[rng.range(0, links.len() as u64 - 1) as usize];
            let cfg = match rng.range(0, 2) {
                0 => FaultConfig::bit_flip(RATE),
                1 => FaultConfig::drop(RATE),
                _ => FaultConfig::duplicate(RATE),
            };
            LaneSpec::new(link, cfg, rng.next_u64())
        })
        .collect()
}

/// How lanes ended, summed over ops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Lanes {
    total: u64,
    /// Lanes that left lockstep (panicked replays included).
    deopt: u64,
    converged: u64,
    panicked: u64,
    masked: u64,
    corrupted: u64,
    hung: u64,
    out_of_budget: u64,
    injected: u64,
    /// Simulated hub cycles: golden run plus every classified replay.
    cycles: u64,
    golden_cycles: u64,
}

impl Lanes {
    fn add(&mut self, o: &Lanes) {
        self.total += o.total;
        self.deopt += o.deopt;
        self.converged += o.converged;
        self.panicked += o.panicked;
        self.masked += o.masked;
        self.corrupted += o.corrupted;
        self.hung += o.hung;
        self.out_of_budget += o.out_of_budget;
        self.injected += o.injected;
        self.cycles += o.cycles;
        self.golden_cycles += o.golden_cycles;
    }
}

/// Runs campaign `input` of the seed under op id `i` and classifies its
/// lanes against the model.
fn campaign(
    seed: u64,
    input: u64,
    i: u64,
    orch: &[u32],
    links: &[String],
    tr: &mut Tracer,
    root: SpanId,
) -> Result<(OpEnd, Lanes), String> {
    let (wl, specs, table) = tr.span("bench.gen", i, root, || {
        let wl = gen::program(seed, input, WAVES);
        let table = table_words(&wl.entries);
        (wl, lanes(seed, input, links), table)
    });
    let model = &wl.expected[0].1;
    let started = Instant::now();
    let mut batch = tr
        .span("soc.build", i, root, || {
            BatchSoc::build(SocConfig::default(), orch, &table, &wl.gmem_init, specs)
        })
        .map_err(|e| format!("batch build: {e}"))?;
    let run = tr.begin("sim.run", i, root);
    let t = Instant::now();
    let step = {
        let _quiet = SilentPanicGuard::new();
        batch.begin(MAX_CYCLES, NO_PROGRESS);
        batch.step_segment()
    };
    let end = Instant::now();
    tr.end(run);
    let golden = match step {
        Ok(SegmentStatus::Done(r)) => Some(r),
        _ => None,
    };
    if let Some(g) = golden {
        // The golden run's own wall time; the rest of the call settles
        // the lanes (de-opt replays).
        tr.record("sim.golden", i, run, t, t + g.wall);
        tr.record("soc.batch.settle", i, run, t + g.wall, end);
    }
    let s = tr.begin("bench.verify", i, root);
    let mut l = Lanes::default();
    let mut status = match golden {
        Some(g) if g.completed && batch.golden().gmem_read(0, model.len()) == *model => {
            l.golden_cycles = g.cycles;
            l.cycles = g.cycles;
            Status::Ok
        }
        Some(g) if g.completed => Status::Wrong,
        _ => Status::Error,
    };
    let report = batch.last_report().ok_or("batch did not settle")?;
    for lane in &report.lanes {
        l.total += 1;
        l.injected += lane.fault_stats.as_ref().map_or(0, |f| f.injected());
        l.deopt += u64::from(lane.deopted);
        if lane.panicked {
            l.panicked += 1;
            continue;
        }
        let mem_ok = batch.gmem_read_lane(lane.lane, 0, model.len()).as_ref() == Some(model);
        if !lane.deopted {
            l.converged += 1;
            let same =
                matches!((&lane.result, golden), (Some(Ok(r)), Some(g)) if r.cycles == g.cycles);
            if !(same && mem_ok) && status == Status::Ok {
                status = Status::Wrong;
            }
            continue;
        }
        match &lane.result {
            Some(Ok(r)) if r.completed => {
                l.cycles += r.cycles;
                if mem_ok {
                    l.masked += 1;
                } else {
                    l.corrupted += 1;
                }
            }
            Some(Ok(r)) => {
                l.cycles += r.cycles;
                l.out_of_budget += 1;
            }
            Some(Err(SimError::Hang { cycle, .. })) => {
                l.cycles += cycle;
                l.hung += 1;
            }
            _ => l.out_of_budget += 1,
        }
    }
    tr.end(s);
    tr.span("soc.drop", i, root, || drop(batch));
    Ok((OpEnd { started, status }, l))
}

/// One measured pass over campaigns `0..SET`, with the lane summary of
/// every op in op order (so the first [`SET`] are each campaign's first
/// attempt). A later attempt whose lanes end differently is wrong.
fn pass(
    seed: u64,
    seconds: u64,
    min_ops: u64,
    (orch, links): (&[u32], &[String]),
    tr: &mut Tracer,
    setup: Option<&mut dyn FnMut() -> Result<(), String>>,
) -> Result<(LoopStats, Vec<Lanes>), String> {
    let mut per_op: Vec<Lanes> = Vec::new();
    let mut err = None;
    let st = closed_loop(seconds, min_ops, tr, setup, |op, tr| {
        match campaign(seed, op.index, op.id, orch, links, tr, op.root) {
            Ok((mut end, l)) => {
                let first = per_op.get(op.index as usize);
                if end.status == Status::Ok && first.is_some_and(|f| *f != l) {
                    end.status = Status::Wrong;
                }
                per_op.push(l);
                end
            }
            Err(e) => {
                err.get_or_insert(e);
                per_op.push(Lanes::default());
                OpEnd {
                    started: Instant::now(),
                    status: Status::Error,
                }
            }
        }
    })?;
    match err {
        Some(e) => Err(e),
        None => Ok((st, per_op)),
    }
}

fn sum(ops: &[Lanes]) -> Lanes {
    let mut t = Lanes::default();
    for o in ops {
        t.add(o);
    }
    t
}

/// Set-up: the orchestrator program, the mesh links and one warm-up
/// campaign, checked.
fn setup() -> Result<(Vec<u32>, Vec<String>), String> {
    let orch = orchestrator_program();
    let links = mesh_links();
    let (end, _) = campaign(
        WARMUP.0,
        WARMUP.1,
        0,
        &orch,
        &links,
        &mut Tracer::new(false),
        None,
    )?;
    match end.status {
        Status::Ok => Ok((orch, links)),
        s => Err(format!("warm-up campaign failed: {s:?}")),
    }
}

/// Runs the workload for `seconds` (split between an untraced and a
/// traced pass when `trace`).
pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let (orch, links) = setup()?;
    let inputs = (orch.as_slice(), links.as_slice());
    let mut out = Outcome::default();
    let mut r = Report::default();
    let (passes, per_op) = if trace {
        let half = seconds.div_ceil(2);
        let (plain, _) = pass(seed, half, COUNT_OPS, inputs, &mut Tracer::new(false), None)?;
        let mut tr = Tracer::new(true);
        let (st, per_op) = pass(seed, half, COUNT_OPS, inputs, &mut tr, None)?;
        let first = sum(&per_op[..COUNT_OPS as usize]);
        let all = sum(&per_op);
        r.put("sim.cycles_total", first.golden_cycles as f64, "count");
        r.put(
            "sim.run_ms_p50",
            tr.durations("sim.run").percentile(50.0)?,
            "ms",
        );
        r.ratio(
            "soc.batch.deopt_frac",
            Ratio::new(all.deopt as f64, all.total as f64),
            "frac",
        );
        r.ratio(
            "soc.batch.converged_frac",
            Ratio::new(all.converged as f64, all.total as f64),
            "frac",
        );
        r.put("soc.batch.panicked_lanes", first.panicked as f64, "count");
        r.ratio(
            "soc.batch.panicked_frac",
            Ratio::new(all.panicked as f64, all.total as f64),
            "frac",
        );
        r.put("connections.fault.injected", first.injected as f64, "count");
        put_overhead(&mut r, &st, &plain)?;
        put_trace(&mut r, &tr)?;
        out.trace = Some(tr);
        (vec![plain, st], per_op)
    } else {
        let (st, per_op) = pass(
            seed,
            seconds,
            SET,
            inputs,
            &mut Tracer::new(false),
            Some(&mut || setup().map(drop)),
        )?;
        let set = sum(&per_op[..SET as usize]);
        put_end_to_end(&mut r, &st, set.cycles, set.total - set.panicked)?;
        (vec![st], per_op)
    };
    let all = sum(&per_op);
    out.notes.push(format!(
        "lanes {}: converged {}, de-opted {} (masked {}, corrupted {}, hung {}, out of budget {}, \
         replay panicked {})",
        all.total,
        all.converged,
        all.deopt,
        all.masked,
        all.corrupted,
        all.hung,
        all.out_of_budget,
        all.panicked
    ));
    out.count(&passes.iter().collect::<Vec<_>>());
    out.report = r;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mesh_link_is_a_noc_channel() {
        let links = mesh_links();
        assert_eq!(links.len(), 48);
        let wl = gen::program(1, 0, 2);
        let specs: Vec<LaneSpec> = links
            .iter()
            .map(|l| LaneSpec::new(l, FaultConfig::bit_flip(0.0), 1))
            .collect();
        let table = table_words(&wl.entries);
        BatchSoc::build(
            SocConfig::default(),
            &orchestrator_program(),
            &table,
            &wl.gmem_init,
            specs,
        )
        .expect("every link pattern matches a channel");
    }
}
