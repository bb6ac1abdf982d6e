//! The job-server probe of the traced `sim_sweep` run: an open loop.
//! One generator thread submits a seeded job mix into a 2-worker
//! `ServePool` at Poisson arrival times; a watcher thread per job stamps
//! each of the job's event lines when it first appears, and each
//! finished job is checked against a reference run whose memory matched
//! the reference model. A probe after the pass times `snapshot_bytes`
//! and `restore_engine` at every checkpoint boundary of the first jobs.
//!
//! Jobs are built-in workloads, ¾ at `SimAccurate` and ¼ at
//! `RtlCompiled`, with a fine, a medium or a coarse preemption grain
//! (`checkpoint_every`). The rate is fixed well below the pool's
//! saturation so the backlog does not grow. The probe is not an
//! end-to-end workload: two workers and cross-thread wake-ups on a
//! 2-core host make its latencies swing with the host's load.

use crate::closed::{put_self_shares, Outcome, Status, OP_DEADLINE};
use crate::gen::{self, Rng};
use crate::stats::{ms, Latencies, Ratio, Report};
use crate::trace::Tracer;
use craft_serve::{JobSpec, ServePool, WorkloadId};
use craft_soc::{restore_engine, EngineKind, Fidelity, SegmentStatus};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool worker threads.
const WORKERS: usize = 2;
/// Offered load in jobs per second.
const RATE: f64 = 30.0;
/// Preemption grains in hub cycles: fine, medium, coarse.
const GRAINS: [u64; 3] = [250, 1000, 4000];
/// Job blocks in the probe pass (192 jobs, so p90 has 10 samples
/// beyond it).
const BLOCKS: usize = 2;
/// Jobs of the seed's mix whose checkpoint boundaries are timed
/// directly.
const PROBE_JOBS: usize = 16;
/// Op ids of the probe's spans start here, above the workload's ops.
const PROBE_OPS: u64 = 1_000_000;
/// Span names of the probe and the metric carrying each one's share of
/// the probe's summed root-span time.
pub const SERVE_SHARES: [(&str, &str); 8] = [
    ("serve.job", "self_share.serve.job"),
    ("serve.submit", "self_share.serve.submit"),
    ("serve.queue", "self_share.serve.queue"),
    ("serve.service", "self_share.serve.service"),
    ("serve.requeue", "self_share.serve.requeue"),
    ("bench.ckpt_probe", "self_share.bench.ckpt_probe"),
    ("soc.ckpt.save", "self_share.soc.ckpt.save"),
    ("soc.ckpt.restore", "self_share.soc.ckpt.restore"),
];

/// One generated job: what to submit and when (offset into the pass).
#[derive(Debug, Clone)]
struct Job {
    spec: JobSpec,
    due: Duration,
}

/// Reference outcome of one (workload, fidelity) pair.
#[derive(Debug, Clone)]
struct Reference {
    cycles: u64,
    report: String,
}

type Key = (&'static str, bool);

fn key(spec: &JobSpec) -> Key {
    (
        spec.workload.name(),
        spec.cfg.fidelity == Fidelity::SimAccurate,
    )
}

/// Job shapes per block: every workload at each fidelity slot (three
/// `SimAccurate`, one `RtlCompiled`) with each preemption grain.
const SHAPES: usize = WorkloadId::ALL.len() * 4 * GRAINS.len();

/// The job list of the pass: [`BLOCKS`] blocks of [`SHAPES`] jobs,
/// each block holding every shape once in seeded order, at Poisson
/// arrival times conditioned on the job count (sorted uniform times
/// over `count / RATE` seconds). Fixing the shape counts keeps the seed
/// from moving the mix proportions.
fn jobs(seed: u64) -> Vec<Job> {
    let n = BLOCKS * SHAPES;
    let window = Duration::from_secs_f64(n as f64 / RATE);
    let mut rng = Rng::fork(seed, 2, 0);
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for _ in 0..BLOCKS {
        let mut block: Vec<usize> = (0..SHAPES).collect();
        for i in (1..SHAPES).rev() {
            block.swap(i, rng.range(0, i as u64) as usize);
        }
        order.extend(block);
    }
    let mut at = 0.0;
    order
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            at += gaps[i];
            let workload = WorkloadId::ALL[shape % WorkloadId::ALL.len()];
            let slot = shape / WorkloadId::ALL.len() % 4;
            let grain = GRAINS[shape / (WorkloadId::ALL.len() * 4)];
            let mut spec = JobSpec::new(workload, EngineKind::Soc);
            spec.cfg.fidelity = if slot < 3 {
                Fidelity::SimAccurate
            } else {
                Fidelity::RtlCompiled
            };
            spec.cfg.checkpoint_every = Some(grain);
            Job {
                spec,
                due: window.mul_f64(at / total),
            }
        })
        .collect()
}

/// Collapses a multi-line JSON rendering onto one line, as the job
/// stream does.
fn one_line(json: &str) -> String {
    json.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Runs every (workload, fidelity) pair of `jobs` uninterrupted and
/// checks its final memory against the reference model.
fn references(jobs: &[Job]) -> Result<BTreeMap<Key, Reference>, String> {
    let mut refs = BTreeMap::new();
    for job in jobs {
        let k = key(&job.spec);
        if refs.contains_key(&k) {
            continue;
        }
        let mut spec = job.spec.clone();
        spec.cfg.checkpoint_every = None;
        let mut e = spec
            .build_engine()
            .map_err(|e| format!("reference build: {e}"))?;
        let r = e
            .run_checked(spec.max_cycles, spec.no_progress_limit)
            .map_err(|e| format!("reference run of {k:?}: {e:?}"))?;
        let wl = spec.workload.workload();
        let model = gen::reference(&wl.gmem_init, &wl.entries);
        if !r.completed
            || !gen::matches_expected(&wl, |b, n| e.gmem_read(b, n))
            || e.gmem_read(0, model.len()) != model
        {
            return Err(format!("reference run of {k:?} disagrees with the model"));
        }
        refs.insert(
            k,
            Reference {
                cycles: r.cycles,
                report: one_line(&e.report().to_json()),
            },
        );
    }
    Ok(refs)
}

/// The value of `"key": <value>` in a flat JSON event line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn num(line: &str, key: &str) -> u64 {
    field(line, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// What the observer saw of one job.
#[derive(Debug)]
struct Track {
    job: usize,
    id: u64,
    due: Instant,
    submit: (Instant, Instant),
    /// First time each stream line was seen.
    seen: Vec<Instant>,
    lines: Vec<String>,
}

/// One finished job.
#[derive(Debug)]
struct Finished {
    status: Status,
    due: Instant,
    submit: (Instant, Instant),
    running: Option<Instant>,
    done: Instant,
    verified: Instant,
    /// (preempted seen, resumed seen) pairs.
    requeues: Vec<(Instant, Instant)>,
    snapshot_bytes: Vec<u64>,
    replayed_cycles: u64,
    segments: u64,
    preemptions: u64,
    cycles: u64,
}

fn finish(t: Track, jobs: &[Job], refs: &BTreeMap<Key, Reference>) -> Finished {
    let done = *t.seen.last().expect("a finished job has lines");
    let mut f = Finished {
        status: Status::Error,
        due: t.due,
        submit: t.submit,
        running: None,
        done,
        verified: done,
        requeues: Vec::new(),
        snapshot_bytes: Vec::new(),
        replayed_cycles: 0,
        segments: 0,
        preemptions: 0,
        cycles: 0,
    };
    let grain = jobs[t.job].spec.cfg.checkpoint_every.unwrap_or(0);
    let reference = &refs[&key(&jobs[t.job].spec)];
    let mut preempted = None;
    let mut report_ok = false;
    for (line, &seen) in t.lines.iter().zip(&t.seen) {
        match field(line, "event") {
            Some("running") => f.running = Some(seen),
            Some("preempted") => {
                preempted = Some(seen);
                f.snapshot_bytes.push(num(line, "snapshot_bytes"));
                f.replayed_cycles += num(line, "at_segment") * grain;
            }
            Some("resumed") => {
                if let Some(p) = preempted.take() {
                    f.requeues.push((p, seen));
                }
            }
            Some("report") => {
                let payload = line
                    .find("\"payload\": ")
                    .map(|i| &line[i + "\"payload\": ".len()..line.len() - 1]);
                report_ok = payload == Some(reference.report.as_str());
            }
            Some("done") => {
                f.cycles = num(line, "cycles");
                f.segments = num(line, "segments");
                f.preemptions = num(line, "preemptions");
                let complete = field(line, "completed") == Some("true");
                f.status = if complete && report_ok && f.cycles == reference.cycles {
                    Status::Ok
                } else {
                    Status::Wrong
                };
            }
            _ => {}
        }
    }
    f.verified = Instant::now();
    f
}

/// Follows job `id` until it finishes, stamping each stream line with
/// the time it was first seen. `lines_from` blocks until the job has
/// lines past the cursor, so a line is seen as soon as the watcher is
/// woken.
fn watch(pool: &ServePool, mut t: Track) -> Track {
    loop {
        let Ok((lines, finished)) = pool.lines_from(t.id, t.lines.len()) else {
            return t;
        };
        let now = Instant::now();
        for l in lines {
            t.lines.push(l);
            t.seen.push(now);
        }
        if finished {
            return t;
        }
    }
}

/// One open-loop pass over `jobs`: a generator thread submits each job
/// at its due time and starts a watcher thread for it. Returns the
/// finished jobs in job order (`None` for a refused job or one past its
/// deadline, which is canceled), the start of the pass, and whether
/// every watcher ended.
fn pass(
    pool: &Arc<ServePool>,
    jobs: &Arc<Vec<Job>>,
    refs: &BTreeMap<Key, Reference>,
) -> (Vec<Option<Finished>>, Instant, bool) {
    let t0 = Instant::now() + Duration::from_millis(5);
    let (tx, rx) = mpsc::channel::<(usize, Option<Track>)>();
    let ids: Arc<Mutex<Vec<u64>>> = Arc::default();
    let generator = {
        let (pool, jobs, ids) = (Arc::clone(pool), Arc::clone(jobs), Arc::clone(&ids));
        std::thread::spawn(move || {
            for (i, job) in jobs.iter().enumerate() {
                let due = t0 + job.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let s0 = Instant::now();
                let id = pool.submit(job.spec.clone()).ok();
                let s1 = Instant::now();
                let Some(id) = id else {
                    let _ = tx.send((i, None));
                    continue;
                };
                ids.lock().expect("id list lock").push(id);
                let track = Track {
                    job: i,
                    id,
                    due,
                    submit: (s0, s1),
                    seen: Vec::new(),
                    lines: Vec::new(),
                };
                let (pool, tx) = (Arc::clone(&pool), tx.clone());
                std::thread::spawn(move || {
                    let track = watch(&pool, track);
                    // Release the pool before reporting, so the pool is
                    // unshared once every job has been reported.
                    drop(pool);
                    let _ = tx.send((i, Some(track)));
                });
            }
        })
    };
    let deadline = t0 + jobs.last().map_or(Duration::ZERO, |j| j.due) + OP_DEADLINE;
    let mut out: Vec<Option<Finished>> = (0..jobs.len()).map(|_| None).collect();
    let mut ended = 0;
    while ended < jobs.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        let Ok((i, track)) = rx.recv_timeout(left) else {
            break;
        };
        ended += 1;
        out[i] = track
            .filter(|t| !t.lines.is_empty())
            .map(|t| finish(t, jobs, refs));
    }
    let _ = generator.join();
    let all_ended = ended == jobs.len();
    if !all_ended {
        // Past the deadline: cancel what is still pending (finished jobs
        // ignore it). A job held by a dead worker never ends; its
        // watcher is left to process exit.
        for &id in ids.lock().expect("id list lock").iter() {
            let _ = pool.cancel(id);
        }
    }
    (out, t0, all_ended)
}

/// Times `snapshot_bytes` and `restore_engine` at every checkpoint
/// boundary of the first [`PROBE_JOBS`] jobs, carrying on from the
/// restored engine as a resumed job does.
fn probe_checkpoints(
    jobs: &[Job],
    refs: &BTreeMap<Key, Reference>,
    tr: &mut Tracer,
    r: &mut Report,
) -> Result<(), String> {
    let (mut save_us, mut restore_ms) = (Latencies::default(), Latencies::default());
    let (mut restore_us_sum, mut kcycles_sum) = (0.0, 0.0);
    for (i, job) in jobs.iter().take(PROBE_JOBS).enumerate() {
        let op = (jobs.len() + i) as u64;
        let spec = &job.spec;
        let root = tr.begin("bench.ckpt_probe", op, None);
        let mut e = tr
            .span("soc.build", op, root, || spec.build_engine())
            .map_err(|e| format!("probe build: {e}"))?;
        tr.span("sim.run", op, root, || {
            e.begin(spec.max_cycles, spec.no_progress_limit)
        });
        let mut segments = 0u64;
        let cycles = loop {
            segments += 1;
            let step = tr.span("sim.run", op, root, || e.step_segment());
            match step.map_err(|e| format!("probe run: {e:?}"))? {
                SegmentStatus::Done(res) => break res.cycles,
                SegmentStatus::Boundary => {
                    let t = Instant::now();
                    let snap = tr.span("soc.ckpt.save", op, root, || e.snapshot_bytes());
                    save_us.push_value(ms(t.elapsed()) * 1e3);
                    let t = Instant::now();
                    let restored = tr
                        .span("soc.ckpt.restore", op, root, || {
                            restore_engine(spec.engine, &snap, false)
                        })
                        .map_err(|e| format!("probe restore: {e:?}"))?;
                    let took = t.elapsed();
                    let old = std::mem::replace(&mut e, restored);
                    tr.span("soc.drop", op, root, || drop(old));
                    restore_ms.push(took);
                    restore_us_sum += ms(took) * 1e3;
                    kcycles_sum += (segments * spec.cfg.checkpoint_every.unwrap_or(0)) as f64 / 1e3;
                }
            }
        };
        tr.end(root);
        if cycles != refs[&key(spec)].cycles {
            return Err(format!(
                "probe job {i}: {cycles} cycles after restores, reference differs"
            ));
        }
    }
    r.put("soc.ckpt.save_us_p50", save_us.p50_or_zero()?, "us");
    r.put("soc.ckpt.restore_ms_p50", restore_ms.p50_or_zero()?, "ms");
    r.ratio(
        "soc.ckpt.restore_us_per_kcycle",
        Ratio::new(restore_us_sum, kcycles_sum),
        "us/kcycle",
    );
    Ok(())
}

/// Records the spans of one finished job from its observed times.
fn trace_job(tr: &mut Tracer, op: u64, f: &Finished) {
    let root = tr.record("serve.job", op, None, f.due, f.verified);
    tr.record("bench.late", op, root, f.due, f.submit.0);
    tr.record("serve.submit", op, root, f.submit.0, f.submit.1);
    let running = f.running.unwrap_or(f.done);
    tr.record("serve.queue", op, root, f.submit.1, running);
    let service = tr.record("serve.service", op, root, running, f.done);
    for &(a, b) in &f.requeues {
        tr.record("serve.requeue", op, service, a, b);
    }
    tr.record("bench.verify", op, root, f.done, f.verified);
}

/// Per-layer metrics of the traced pass.
fn put_layers(r: &mut Report, done: &[Option<Finished>]) -> Result<(), String> {
    let mut late = Latencies::default();
    let mut submit_us = Latencies::default();
    let mut queue = Latencies::default();
    let mut service = Latencies::default();
    let mut bytes = Latencies::default();
    let (mut preemptions, mut segments, mut replayed, mut n) = (0u64, 0u64, 0u64, 0u64);
    for f in done.iter().flatten() {
        late.push(f.submit.0.saturating_duration_since(f.due));
        submit_us.push_value(ms(f.submit.1 - f.submit.0) * 1e3);
        let running = f.running.unwrap_or(f.done);
        queue.push(running.saturating_duration_since(f.due));
        service.push(f.done - running);
        for &b in &f.snapshot_bytes {
            bytes.push_value(b as f64);
        }
        preemptions += f.preemptions;
        segments += f.segments;
        replayed += f.replayed_cycles;
        n += 1;
    }
    r.put("bench.gen_late_ms_p90", late.percentile(90.0)?, "ms");
    r.put("serve.submit_us_p50", submit_us.percentile(50.0)?, "us");
    r.put("serve.queue_wait_ms_p50", queue.percentile(50.0)?, "ms");
    r.put("serve.queue_wait_ms_p90", queue.percentile(90.0)?, "ms");
    r.put("serve.service_ms_p50", service.percentile(50.0)?, "ms");
    r.put("soc.ckpt.bytes_p50", bytes.p50_or_zero()?, "bytes");
    r.ratio(
        "serve.preemptions_per_job",
        Ratio::new(preemptions as f64, n as f64),
        "1/job",
    );
    r.ratio(
        "serve.segments_per_job",
        Ratio::new(segments as f64, n as f64),
        "1/job",
    );
    r.ratio(
        "serve.replayed_kcycles_per_job",
        Ratio::new(replayed as f64 / 1e3, n as f64),
        "kcycle/job",
    );
    Ok(())
}

/// Runs the probe: one open-loop pass plus the checkpoint probe,
/// recording the serve and checkpoint layer metrics into `r`, their
/// spans into `tr`, and the jobs into `out`'s counts.
pub fn probe(seed: u64, out: &mut Outcome, r: &mut Report, tr: &mut Tracer) -> Result<(), String> {
    let jobs = Arc::new(jobs(seed));
    let refs = references(&jobs)?;
    let pool = Arc::new(ServePool::new(WORKERS));
    let (done, _, all_ended) = pass(&pool, &jobs, &refs);
    let mut probe_tr = Tracer::new(true);
    let (mut ok, mut wrong) = (0, 0);
    for (i, f) in done.iter().enumerate() {
        if let Some(f) = f {
            trace_job(&mut probe_tr, i as u64, f);
            ok += u64::from(f.status == Status::Ok);
            wrong += u64::from(f.status == Status::Wrong);
        }
    }
    put_layers(r, &done)?;
    probe_checkpoints(&jobs, &refs, &mut probe_tr, r)?;
    put_self_shares(r, &probe_tr, &SERVE_SHARES);
    tr.absorb(probe_tr, PROBE_OPS);
    out.correct &= wrong == 0;
    out.attempted += jobs.len() as u64;
    out.failed += jobs.len() as u64 - ok;
    out.notes.push(format!(
        "serve probe: {} jobs offered at {RATE} jobs/s on {WORKERS} workers, {ok} verified",
        jobs.len()
    ));
    // Every watcher has ended and dropped its handle, so the pool can
    // be shut down and joined. Otherwise a job may sit on a stuck
    // worker: the pool is left to process exit instead.
    match Arc::try_unwrap(pool) {
        Ok(pool) if all_ended => {
            out.notes
                .push(format!("pool counters: {}", pool.shutdown().to_json()));
        }
        Ok(pool) => std::mem::forget(pool),
        Err(shared) => std::mem::forget(shared),
    }
    Ok(())
}
