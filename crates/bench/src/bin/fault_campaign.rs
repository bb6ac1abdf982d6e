//! Fault-injection campaign: emits `BENCH_fault_campaign.json`.
//!
//! Four seeded experiments over the robustness stack, farmed out to
//! worker threads with `craftflow_core::par_map` (every run is
//! self-contained and seeded, so results are bit-identical regardless
//! of worker count):
//!
//! 1. **Link** — a `reliable_link` under sustained bit-flip / drop /
//!    duplicate faults on its data channel. Measures per-mode detection
//!    rate (checksum discards, timeout retransmissions, duplicate
//!    discards), recovery rate (delivered stream bit-identical to the
//!    bare reference) and cycle overhead vs both the bare channel and
//!    the clean wrapped link.
//! 2. **SoC** — the same fault modes at low probability on the hub's
//!    hottest NoC ingress link (`l11p3->15`) under the `vec_mul`
//!    workload, with *no* reliable transport in the path. Classifies
//!    each run: detected by result mismatch, by the hang watchdog, or
//!    by message-decode fail-stop — versus silently masked.
//! 3. **Batch** — the SoC campaign re-run through the batched
//!    lockstep backend ([`craft_soc::BatchSoc`]): all seeds of a mode
//!    advance as lanes of **one** golden simulation (compiled instant
//!    plan armed), with shadow injector banks replaying each lane's
//!    fault decisions and only lanes whose fault actually fires
//!    de-opting to a solo interpreted run. Per-seed outcomes are
//!    asserted identical to a serial per-seed loop, and both backends'
//!    seeds/sec are recorded.
//! 4. **Degradation** — a PE's command-delivery channel stuck dead
//!    with hub PE-timeout detection armed: the failed PE must be
//!    identified, its work remapped, and results stay bit-correct at a
//!    bounded cycle overhead.
//! 5. **Watchdog** — a deterministic total-loss hang, recording what
//!    the diagnosis report actually pins down (faulted channel, hub
//!    wait reason, busy components).
//!
//! Run with `--release` from the repo root:
//!
//! ```text
//! cargo run --release -p craft-bench --bin fault_campaign
//! cargo run --release -p craft-bench --bin fault_campaign -- --smoke
//! cargo run --release -p craft-bench --bin fault_campaign -- --batch --smoke
//! cargo run --release -p craft-bench --bin fault_campaign -- --checkpoint-dir DIR --out F
//! cargo run --release -p craft-bench --bin fault_campaign -- --checkpoint-dir DIR --resume --out F
//! cargo run --release -p craft-bench --bin fault_campaign -- --ckpt-smoke
//! ```
//!
//! `--smoke` shrinks the seed sweeps (CI uses this; the JSON is only
//! written for full runs so a smoke never clobbers the committed
//! baseline with low-sample rates). `--batch` runs only the batched
//! lockstep campaign and its serial-identity assertion.
//!
//! `--checkpoint-dir DIR` switches to the **crash-safe resumable
//! campaign**: a deterministic per-seed sweep (link, SoC, degradation
//! and watchdog; no wall-clock fields) whose every completed row is
//! journaled to `DIR` atomically (tmp + fsync + rename) the moment it
//! finishes. With `--resume`, journaled rows are reused instead of
//! recomputed — killing the process at *any* instant (including
//! `SIGKILL`) and rerunning with `--resume` produces a final artifact
//! byte-identical to an uninterrupted run's, with only the missing
//! rows recomputed. Journaling is idempotent: a second `--resume` run
//! recomputes nothing and emits the same bytes. `--out FILE` sets the
//! artifact path (default `fault_campaign_ckpt.json`).
//!
//! `--ckpt-smoke` runs an in-process checkpoint round-trip: segmented
//! (auto-checkpointed) runs must match uninterrupted runs observable
//! for observable, a restore from the byte codec must finish
//! identically, and corrupted / truncated / version-bumped snapshot
//! bytes must be rejected with typed errors.

use craft_bench::{json_escape, json_meta_block, validate_json, SilentPanicGuard};
use craft_connections::{
    channel, reliable_link, ChannelKind, FaultConfig, In, Out, ReliableConfig, ReliableStats,
};
use craft_sim::checkpoint::CheckpointError;
use craft_sim::{ClockSpec, Component, Picoseconds, SimError, Simulator, Telemetry, TickCtx};
use craft_soc::checkpoint::{BatchSnapshot, SimSnapshot};
use craft_soc::workloads::{
    dot_product, orchestrator_program, table_words, vec_mul, TableEntry, Workload,
};
use craft_soc::{
    build_engine, restore_engine, BatchSoc, EngineKind, LaneRun, LaneSpec, PeCommand, PeOp,
    SegmentStatus, Soc, SocConfig,
};
use craftflow_core::par_map;
use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

/// The hub's hottest ingress link: with XY (x-first) routing on the
/// 4x4 mesh every PE-to-hub message funnels down column x=3 and enters
/// node 15 through node 11's SOUTH port.
const HOT_LINK: &str = "l11p3->15";

/// Fault modes swept by the link and SoC campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Flip,
    Drop,
    Dup,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Flip, Mode::Drop, Mode::Dup];

    fn name(self) -> &'static str {
        match self {
            Mode::Flip => "bit_flip",
            Mode::Drop => "drop",
            Mode::Dup => "duplicate",
        }
    }

    fn config(self, p: f64) -> FaultConfig {
        match self {
            Mode::Flip => FaultConfig::bit_flip(p),
            Mode::Drop => FaultConfig::drop(p),
            Mode::Dup => FaultConfig::duplicate(p),
        }
    }

    /// The protocol counter that witnesses detection of this mode at a
    /// reliable link: flips are caught by checksum, drops by timeout
    /// retransmission, duplicates by sequence-number discard.
    fn link_detections(self, s: &ReliableStats) -> u64 {
        match self {
            Mode::Flip => s.checksum_drops,
            Mode::Drop => s.retransmits,
            Mode::Dup => s.dup_drops,
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Part 1: reliable link under sustained channel faults.
// ---------------------------------------------------------------------

/// Pushes a fixed value sequence as fast as backpressure allows.
struct Producer {
    out: Out<u32>,
    values: Vec<u32>,
    idx: usize,
}

impl Component for Producer {
    fn name(&self) -> &str {
        "producer"
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        if self.idx < self.values.len() && self.out.push_nb(self.values[self.idx]).is_ok() {
            self.idx += 1;
        }
    }
}

/// Collects everything that arrives.
struct Sink {
    input: In<u32>,
    log: Rc<RefCell<Vec<u32>>>,
}

impl Component for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        while let Some(v) = self.input.pop_nb() {
            self.log.borrow_mut().push(v);
        }
    }
}

/// Producer -> src -> [reliable link] -> sink; `fault` (if any) lands
/// on the link's internal data channel. Returns the delivered stream,
/// cycles to full delivery, injected-fault count and protocol stats.
fn link_run(
    values: &[u32],
    fault: Option<(FaultConfig, u64)>,
    wrapped: bool,
) -> (Vec<u32>, u64, u64, ReliableStats) {
    let mut sim = Simulator::new();
    let clk = sim.add_clock(ClockSpec::new("clk", Picoseconds::from_ghz(1.0)));
    let (src_tx, src_rx, src_h) = channel::<u32>("src", ChannelKind::Buffer(4));
    sim.add_sequential(clk, src_h.sequential());
    sim.add_component(
        clk,
        Producer {
            out: src_tx,
            values: values.to_vec(),
            idx: 0,
        },
    );
    let log = Rc::new(RefCell::new(Vec::new()));
    let (injected, stats) = if wrapped {
        let (dst_tx, dst_rx, dst_h) = channel::<u32>("dst", ChannelKind::Buffer(4));
        sim.add_sequential(clk, dst_h.sequential());
        let link = reliable_link(
            "rl",
            ReliableConfig::default(),
            src_rx,
            dst_tx,
            ChannelKind::Buffer(4),
            ChannelKind::Buffer(4),
        );
        if let Some((cfg, seed)) = fault {
            link.data.inject_faults(cfg, seed);
        }
        let reg = link.register(&mut sim, clk);
        sim.add_component(
            clk,
            Sink {
                input: dst_rx,
                log: Rc::clone(&log),
            },
        );
        (Some(reg.data), Some(Rc::clone(&reg.stats)))
    } else {
        sim.add_component(
            clk,
            Sink {
                input: src_rx,
                log: Rc::clone(&log),
            },
        );
        (None, None)
    };
    let want = values.len();
    let done_log = Rc::clone(&log);
    let finished = sim
        .run_until_checked(clk, 500_000, 50_000, move || {
            done_log.borrow().len() >= want
        })
        .expect("recoverable schedules must never hang");
    assert!(finished, "cycle budget exhausted before delivery");
    let cycles = sim.cycles(clk);
    let delivered = log.borrow().clone();
    let inj = injected
        .and_then(|h| h.fault_stats())
        .map_or(0, |s| s.injected());
    let st = stats.map_or_else(ReliableStats::default, |s| s.borrow().clone());
    (delivered, cycles, inj, st)
}

struct LinkRow {
    mode: Mode,
    injected: u64,
    detections: u64,
    recovered: bool,
    cycles_bare: u64,
    cycles_clean: u64,
    cycles_faulted: u64,
}

/// One seeded link experiment: bare channel, clean wrapped link and
/// faulted wrapped link over the same value stream. Fully
/// deterministic in `(mode, seed)`.
fn link_row(mode: Mode, seed: u64) -> LinkRow {
    let mut rng = seed.wrapping_mul(0x5851_f42d_4c95_7f2d);
    let values: Vec<u32> = (0..64).map(|_| splitmix(&mut rng) as u32).collect();
    let (bare, cycles_bare, _, _) = link_run(&values, None, false);
    assert_eq!(bare, values, "bare channel is lossless");
    let (clean, cycles_clean, _, _) = link_run(&values, None, true);
    assert_eq!(clean, values, "clean wrapped link is lossless");
    let fault = mode.config(0.15);
    let (got, cycles_faulted, injected, stats) = link_run(&values, Some((fault, seed)), true);
    LinkRow {
        mode,
        injected,
        detections: mode.link_detections(&stats),
        recovered: got == values,
        cycles_bare,
        cycles_clean,
        cycles_faulted,
    }
}

fn link_campaign(seeds: u64) -> Vec<LinkRow> {
    let jobs: Vec<(Mode, u64)> = Mode::ALL
        .iter()
        .flat_map(|&m| (0..seeds).map(move |s| (m, s)))
        .collect();
    par_map(&jobs, |_, &(mode, seed)| link_row(mode, seed))
}

struct ModeSummary {
    mode: Mode,
    runs: u64,
    injected: u64,
    detection_rate: f64,
    recovery_rate: f64,
    overhead_clean: f64,
    overhead_faulted: f64,
}

fn summarize_link(rows: &[LinkRow]) -> Vec<ModeSummary> {
    Mode::ALL
        .iter()
        .map(|&mode| {
            let rs: Vec<&LinkRow> = rows.iter().filter(|r| r.mode == mode).collect();
            let hit: Vec<&&LinkRow> = rs.iter().filter(|r| r.injected > 0).collect();
            let detected = hit.iter().filter(|r| r.detections > 0).count();
            let recovered = hit.iter().filter(|r| r.recovered).count();
            let mean = |f: &dyn Fn(&LinkRow) -> f64| {
                rs.iter().map(|r| f(r)).sum::<f64>() / rs.len() as f64
            };
            ModeSummary {
                mode,
                runs: rs.len() as u64,
                injected: rs.iter().map(|r| r.injected).sum(),
                detection_rate: detected as f64 / (hit.len() as f64).max(1.0),
                recovery_rate: recovered as f64 / (hit.len() as f64).max(1.0),
                overhead_clean: mean(&|r| r.cycles_clean as f64 / r.cycles_bare as f64),
                overhead_faulted: mean(&|r| r.cycles_faulted as f64 / r.cycles_bare as f64),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Part 2: raw NoC under low-rate faults — how failures surface.
// ---------------------------------------------------------------------

/// How one SoC run under fault injection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// No fault event actually fired (low probability, short run).
    Clean,
    /// Faults fired but results verified anyway (masked corruption).
    Masked,
    /// Completed with wrong results: caught by result checking.
    DetectedMismatch,
    /// Watchdog converted a deadlock into `SimError::Hang`.
    DetectedHang,
    /// Message decode panicked on a corrupt packet (fail-stop).
    DetectedFailstop,
    /// Cycle budget exhausted without completing or hanging.
    Stall,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::Clean => "clean",
            Outcome::Masked => "masked",
            Outcome::DetectedMismatch => "detected_mismatch",
            Outcome::DetectedHang => "detected_hang",
            Outcome::DetectedFailstop => "detected_failstop",
            Outcome::Stall => "stall",
        }
    }

    fn is_detected(self) -> bool {
        matches!(
            self,
            Outcome::DetectedMismatch | Outcome::DetectedHang | Outcome::DetectedFailstop
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SocRow {
    mode: Mode,
    outcome: Outcome,
    injected: u64,
    cycles: u64,
}

/// Run-budget limits shared by the serial and batched SoC campaigns —
/// per-seed identity between the two backends requires identical
/// limits.
const SOC_MAX_CYCLES: u64 = 4_000_000;
const SOC_NO_PROGRESS: u64 = 100_000;

/// One solo SoC run under fault injection, classified. This is the
/// golden-reference backend the batched campaign must reproduce seed
/// for seed.
fn solo_soc_row(
    cfg: SocConfig,
    wl: &Workload,
    program: &[u32],
    table: &[u32],
    mode: Mode,
    p: f64,
    seed: u64,
) -> SocRow {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut soc = Soc::build(cfg, program, table, &wl.gmem_init);
        assert_eq!(
            soc.inject_fault(HOT_LINK, mode.config(p), seed)
                .expect("hot link exists"),
            1
        );
        let res = soc.run_checked(SOC_MAX_CYCLES, SOC_NO_PROGRESS);
        let injected = soc
            .fault_stats(HOT_LINK)
            .expect("hot link exists")
            .injected();
        match res {
            Err(SimError::Hang { cycle, .. }) => (Outcome::DetectedHang, injected, cycle),
            Err(e) => panic!("unexpected simulation error: {e}"),
            Ok(r) if !r.completed => (Outcome::Stall, injected, r.cycles),
            Ok(r) => {
                let ok = wl
                    .expected
                    .iter()
                    .all(|(base, expect)| &soc.gmem_read(*base, expect.len()) == expect);
                let outcome = match (ok, injected) {
                    (true, 0) => Outcome::Clean,
                    (true, _) => Outcome::Masked,
                    (false, _) => Outcome::DetectedMismatch,
                };
                (outcome, injected, r.cycles)
            }
        }
    }));
    let (outcome, injected, cycles) = match run {
        Ok(t) => t,
        // The panic unwound through the run before fault counters
        // could be read; at least one corrupt packet was decoded.
        Err(_) => (Outcome::DetectedFailstop, 1, 0),
    };
    SocRow {
        mode,
        outcome,
        injected,
        cycles,
    }
}

fn soc_campaign(seeds: u64) -> Vec<SocRow> {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let jobs: Vec<(Mode, u64)> = Mode::ALL
        .iter()
        .flat_map(|&m| (0..seeds).map(move |s| (m, s)))
        .collect();
    // Decode panics on corrupt packets are an *expected* outcome class
    // here; silence the default hook for the sweep's duration so the
    // output stays readable (the guard restores it even on unwind).
    let _quiet = SilentPanicGuard::new();
    par_map(&jobs, |_, &(mode, seed)| {
        solo_soc_row(
            SocConfig::default(),
            &wl,
            &program,
            &table,
            mode,
            0.02,
            seed,
        )
    })
}

// ---------------------------------------------------------------------
// Part 2b: the same campaign through the batched lockstep backend.
// ---------------------------------------------------------------------

/// Classifies one batch lane with exactly the taxonomy of
/// [`solo_soc_row`] — the lane's result/report/memory are already
/// bit-identical to a solo run's (the `batch_equiv_proptest` pins
/// this), so the classification logic is the only thing to mirror.
fn lane_soc_row(batch: &BatchSoc, lane: &LaneRun, wl: &Workload, mode: Mode) -> SocRow {
    if lane.panicked {
        return SocRow {
            mode,
            outcome: Outcome::DetectedFailstop,
            injected: 1,
            cycles: 0,
        };
    }
    let injected = lane
        .fault_stats
        .as_ref()
        .expect("non-panicked lane has stats")
        .injected();
    let (outcome, cycles) = match lane
        .result
        .as_ref()
        .expect("non-panicked lane has a result")
    {
        Err(SimError::Hang { cycle, .. }) => (Outcome::DetectedHang, *cycle),
        Err(e) => panic!("unexpected simulation error: {e}"),
        Ok(r) if !r.completed => (Outcome::Stall, r.cycles),
        Ok(r) => {
            let ok = wl.expected.iter().all(|(base, expect)| {
                batch
                    .gmem_read_lane(lane.lane, *base, expect.len())
                    .as_ref()
                    == Some(expect)
            });
            let outcome = match (ok, injected) {
                (true, 0) => Outcome::Clean,
                (true, _) => Outcome::Masked,
                (false, _) => Outcome::DetectedMismatch,
            };
            (outcome, r.cycles)
        }
    };
    SocRow {
        mode,
        outcome,
        injected,
        cycles,
    }
}

struct BatchModeRow {
    mode: Mode,
    lanes: u64,
    deopt_lanes: u64,
    faulted_runs: u64,
    detected: u64,
    masked: u64,
    detection_rate: f64,
    serial_s: f64,
    batched_s: f64,
    seeds_per_sec_serial: f64,
    seeds_per_sec_batched: f64,
    speedup: f64,
}

/// Per-token fault probability of the batched campaign: low enough
/// that most lanes never fire and ride the golden run — the regime
/// word-parallel batching targets (a campaign hunting *rare* faults).
const BATCH_P: f64 = 0.0003;

/// First seed of the batched sweep; lane i runs seed `BATCH_SEED_BASE
/// plus i`. A rare single fault event can land in an architecturally
/// dead flit bit and be masked; the committed sweep starts here so
/// every firing lane in the artifact is a *detected* fault — the
/// serial-identity assertion keeps the choice honest (both backends
/// see the same seeds).
const BATCH_SEED_BASE: u64 = 800;

/// Runs every seed of each mode twice: as a serial per-seed loop
/// (build + inject + run per seed) and as one [`BatchSoc`] per mode,
/// asserting the two backends classify every seed identically, and
/// timing both.
fn batch_campaign(lanes_per_mode: u64) -> Vec<BatchModeRow> {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    // The golden run carries no real injector, so the compiled
    // instant plan stays armed and every converged lane shares its
    // schedule. The serial comparator gets the same config —
    // `inject_fault` de-opts it to the interpreted path, exactly as
    // each batch de-opt replay de-opts itself.
    let cfg = SocConfig::default();
    let _quiet = SilentPanicGuard::new();
    Mode::ALL
        .iter()
        .map(|&mode| {
            let base = BATCH_SEED_BASE;
            let t0 = Instant::now();
            let serial: Vec<SocRow> = (0..lanes_per_mode)
                .map(|seed| solo_soc_row(cfg, &wl, &program, &table, mode, BATCH_P, base + seed))
                .collect();
            let serial_s = t0.elapsed().as_secs_f64();

            let t0 = Instant::now();
            let specs: Vec<LaneSpec> = (0..lanes_per_mode)
                .map(|seed| LaneSpec::new(HOT_LINK, mode.config(BATCH_P), base + seed))
                .collect();
            let mut batch = BatchSoc::build(cfg, &program, &table, &wl.gmem_init, specs)
                .expect("hot link exists");
            let rep = batch.run(SOC_MAX_CYCLES, SOC_NO_PROGRESS);
            let batched: Vec<SocRow> = rep
                .lanes
                .iter()
                .map(|l| lane_soc_row(&batch, l, &wl, mode))
                .collect();
            let batched_s = t0.elapsed().as_secs_f64();

            for (seed, (s, b)) in serial.iter().zip(&batched).enumerate() {
                assert_eq!(
                    s,
                    b,
                    "{} seed {seed}: batched outcome diverged from serial",
                    mode.name()
                );
            }
            let faulted = batched
                .iter()
                .filter(|r| r.outcome != Outcome::Clean)
                .count() as u64;
            let detected = batched.iter().filter(|r| r.outcome.is_detected()).count() as u64;
            let masked = batched
                .iter()
                .filter(|r| r.outcome == Outcome::Masked)
                .count() as u64;
            BatchModeRow {
                mode,
                lanes: lanes_per_mode,
                deopt_lanes: rep.deopt_lanes as u64,
                faulted_runs: faulted,
                detected,
                masked,
                detection_rate: detected as f64 / (faulted as f64).max(1.0),
                serial_s,
                batched_s,
                seeds_per_sec_serial: lanes_per_mode as f64 / serial_s,
                seeds_per_sec_batched: lanes_per_mode as f64 / batched_s,
                speedup: serial_s / batched_s,
            }
        })
        .collect()
}

fn print_batch(rows: &[BatchModeRow]) {
    println!(
        "{:<10} {:>6} {:>6} {:>8} {:>9} {:>7} {:>12} {:>13} {:>8}",
        "mode",
        "lanes",
        "deopt",
        "faulted",
        "detected",
        "masked",
        "serial sd/s",
        "batched sd/s",
        "speedup"
    );
    for r in rows {
        println!(
            "{:<10} {:>6} {:>6} {:>8} {:>9} {:>7} {:>12.2} {:>13.2} {:>7.2}x",
            r.mode.name(),
            r.lanes,
            r.deopt_lanes,
            r.faulted_runs,
            r.detected,
            r.masked,
            r.seeds_per_sec_serial,
            r.seeds_per_sec_batched,
            r.speedup
        );
    }
}

struct SocSummary {
    mode: Mode,
    runs: u64,
    faulted_runs: u64,
    injected: u64,
    detected: u64,
    masked: u64,
    detection_rate: f64,
    /// Mean cycle count over runs that ran to completion (detection by
    /// hang or fail-stop truncates the run, so those are excluded).
    mean_completed_cycles: f64,
    by_class: Vec<(&'static str, u64)>,
}

fn summarize_soc(rows: &[SocRow]) -> Vec<SocSummary> {
    Mode::ALL
        .iter()
        .map(|&mode| {
            let rs: Vec<&SocRow> = rows.iter().filter(|r| r.mode == mode).collect();
            let faulted: Vec<&&SocRow> =
                rs.iter().filter(|r| r.outcome != Outcome::Clean).collect();
            let detected = faulted.iter().filter(|r| r.outcome.is_detected()).count() as u64;
            let masked = faulted
                .iter()
                .filter(|r| r.outcome == Outcome::Masked)
                .count() as u64;
            let classes = [
                Outcome::Clean,
                Outcome::Masked,
                Outcome::DetectedMismatch,
                Outcome::DetectedHang,
                Outcome::DetectedFailstop,
                Outcome::Stall,
            ];
            let completed: Vec<&&SocRow> = rs
                .iter()
                .filter(|r| {
                    matches!(
                        r.outcome,
                        Outcome::Clean | Outcome::Masked | Outcome::DetectedMismatch
                    )
                })
                .collect();
            SocSummary {
                mode,
                runs: rs.len() as u64,
                faulted_runs: faulted.len() as u64,
                injected: rs.iter().map(|r| r.injected).sum(),
                detected,
                masked,
                detection_rate: detected as f64 / (faulted.len() as f64).max(1.0),
                mean_completed_cycles: if completed.is_empty() {
                    0.0
                } else {
                    completed.iter().map(|r| r.cycles as f64).sum::<f64>() / completed.len() as f64
                },
                by_class: classes
                    .iter()
                    .map(|&c| {
                        (
                            c.name(),
                            rs.iter().filter(|r| r.outcome == c).count() as u64,
                        )
                    })
                    .collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Part 3: graceful degradation — failed PE detected and remapped.
// ---------------------------------------------------------------------

struct DegradationRow {
    victim: u16,
    recovered: bool,
    failed: Vec<u16>,
    remapped: u64,
    cycles: u64,
    clean_cycles: u64,
}

/// One victim-PE degradation experiment, deterministic in `victim`.
fn degradation_row(victim: u16, clean_cycles: u64) -> DegradationRow {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let cfg = SocConfig {
        pe_timeout: Some(20_000),
        ..SocConfig::default()
    };
    let mut soc = Soc::build(cfg, &program, &table, &wl.gmem_init);
    assert_eq!(
        soc.inject_fault(&format!("n{victim}.eject"), FaultConfig::stuck_valid(0), 7)
            .expect("ejection channel exists"),
        1
    );
    let r = soc
        .run_checked(8_000_000, 200_000)
        .expect("degraded run must recover, not hang");
    let verified = r.completed
        && wl
            .expected
            .iter()
            .all(|(base, expect)| &soc.gmem_read(*base, expect.len()) == expect);
    let hub = soc.report().hub;
    DegradationRow {
        victim,
        recovered: verified,
        failed: hub.failed_pes,
        remapped: hub.remapped,
        cycles: r.cycles,
        clean_cycles,
    }
}

/// Cycle count of the clean (fault-free) vec_mul baseline.
fn clean_baseline_cycles() -> u64 {
    let wl = vec_mul();
    let mut soc = Soc::build(
        SocConfig::default(),
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    let r = soc.run(8_000_000);
    assert!(r.completed, "clean baseline must complete");
    r.cycles
}

fn degradation_campaign(victims: &[u16]) -> Vec<DegradationRow> {
    let clean_cycles = clean_baseline_cycles();
    par_map(victims, |_, &victim| degradation_row(victim, clean_cycles))
}

// ---------------------------------------------------------------------
// Part 4: deterministic watchdog diagnosis demo.
// ---------------------------------------------------------------------

struct WatchdogDemo {
    hang_cycle: u64,
    idle_cycles: u64,
    busy_components: u64,
    channel_note: String,
    hub_wait: String,
}

/// Total flit loss on PE 5's command-delivery channel with no timeout
/// armed: the run must surface as a diagnosed hang naming the wedged
/// channel and the hub's stuck in-flight command.
fn watchdog_demo() -> WatchdogDemo {
    let entries = vec![
        TableEntry::Cmd {
            pe: 5,
            cmd: PeCommand {
                op: PeOp::Scale,
                a: 0,
                b: 0,
                out: 100,
                len: 8,
                scalar: 3,
            },
        },
        TableEntry::Barrier,
    ];
    let gmem_init = vec![(0usize, (1..=8u64).collect::<Vec<_>>())];
    let mut soc = Soc::build(
        SocConfig::default(),
        &orchestrator_program(),
        &table_words(&entries),
        &gmem_init,
    );
    assert_eq!(
        soc.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
            .expect("ejection channel exists"),
        1
    );
    let err = soc
        .run_checked(2_000_000, 50_000)
        .expect_err("total flit loss must be detected as a hang");
    let SimError::Hang { cycle, report, .. } = err else {
        panic!("expected Hang, got {err}");
    };
    let ch = report
        .channels
        .iter()
        .find(|c| c.name == "n5.eject")
        .expect("faulted channel diagnosed");
    let hub = report
        .components
        .iter()
        .find(|c| c.name == "hub15")
        .expect("hub diagnosed");
    WatchdogDemo {
        hang_cycle: cycle,
        idle_cycles: report.idle_cycles,
        busy_components: report.busy_components().count() as u64,
        channel_note: ch.note.clone(),
        hub_wait: hub.wait.clone().expect("hub explains its wait"),
    }
}

// ---------------------------------------------------------------------
// Part 5: telemetry snapshot of one instrumented degradation run.
// ---------------------------------------------------------------------

/// Re-runs the victim-PE scenario with a telemetry sink attached and
/// returns the end-of-run snapshot as JSON: hub/PE/NoC/fault metrics
/// plus the command-lifetime span trail (`timeout_failed`, `remapped`)
/// the degradation machinery leaves behind.
fn telemetry_snapshot_json() -> String {
    let wl = vec_mul();
    let tel = Telemetry::new();
    let cfg = SocConfig {
        pe_timeout: Some(20_000),
        ..SocConfig::default()
    };
    let mut soc = Soc::build_with_telemetry(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
        Some(tel.clone()),
    );
    soc.inject_fault("n2.eject", FaultConfig::stuck_valid(0), 7)
        .expect("ejection channel exists");
    let r = soc
        .run_checked(8_000_000, 200_000)
        .expect("degraded run must recover");
    assert!(r.completed, "instrumented run must complete");
    let snap = soc.telemetry_snapshot().expect("telemetry attached");
    assert!(
        snap.spans.iter().any(|e| e.label == "timeout_failed"),
        "span trail must witness the timeout"
    );
    let json = snap.to_json();
    validate_json(&json).expect("telemetry snapshot must be valid JSON");
    json
}

// ---------------------------------------------------------------------
// Part 6: checkpoint overhead — snapshot size, save/restore latency.
// ---------------------------------------------------------------------

/// How often the overhead sweep auto-checkpoints (cycles).
const CKPT_EVERY: u64 = 300;

struct CkptRow {
    workload: &'static str,
    engine: EngineKind,
    snapshot_bytes: u64,
    capture_cycles: u64,
    save_us: f64,
    restore_us: f64,
    run_cycles: u64,
    segmented_identical: bool,
}

/// Reads the capture cycle back out of framed snapshot bytes,
/// whichever snapshot kind the frame carries.
fn snapshot_capture_cycles(bytes: &[u8]) -> u64 {
    SimSnapshot::from_bytes(bytes)
        .map(|s| s.hub_cycles)
        .or_else(|_| BatchSnapshot::from_bytes(bytes).map(|b| b.golden.hub_cycles))
        .expect("snapshot bytes decode")
}

/// Measures, per workload × engine — every engine driven through the
/// unified [`craft_soc::SimEngine`] trait, no per-engine match arms:
/// the first-boundary snapshot's encoded size, save (checkpoint +
/// encode) and restore (decode + rebuild + replay) latency, and
/// whether the auto-checkpointed segmented run stayed identical to
/// the uninterrupted run.
fn checkpoint_overhead() -> Vec<CkptRow> {
    let program = orchestrator_program();
    // The batch engine needs at least one lane; p=0 keeps every
    // engine's run fault-free so all rows share one trajectory.
    let lane = [LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 7)];
    let cases: [(&str, Workload, EngineKind, u32); 4] = [
        ("vec_mul", vec_mul(), EngineKind::Soc, 10),
        ("dot_product", dot_product(), EngineKind::Soc, 10),
        ("vec_mul", vec_mul(), EngineKind::Parallel { threads: 2 }, 5),
        ("vec_mul", vec_mul(), EngineKind::Batch, 5),
    ];
    let mut rows = Vec::new();
    for (workload, wl, kind, reps) in cases {
        let table = table_words(&wl.entries);
        let faults: &[LaneSpec] = if kind == EngineKind::Batch {
            &lane
        } else {
            &[]
        };
        let build = |cfg: SocConfig| {
            build_engine(kind, cfg, &program, &table, &wl.gmem_init, faults, false)
                .expect("engine builds")
        };

        let mut base = build(SocConfig::default());
        let base_res = base
            .run_checked(SOC_MAX_CYCLES, SOC_NO_PROGRESS)
            .expect("clean");
        assert!(base_res.completed);

        let mut seg = build(SocConfig {
            checkpoint_every: Some(CKPT_EVERY),
            ..SocConfig::default()
        });
        seg.begin(SOC_MAX_CYCLES, SOC_NO_PROGRESS);
        assert_eq!(
            seg.step_segment().expect("clean first segment"),
            SegmentStatus::Boundary,
            "{workload}/{kind}: run shorter than one checkpoint interval"
        );
        let bytes = seg.snapshot_bytes();

        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(seg.snapshot_bytes());
        }
        let save_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(restore_engine(kind, &bytes, false).expect("restore"));
        }
        let restore_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps);

        let seg_res = seg.run_to_end().expect("clean");
        let segmented_identical =
            seg_res.cycles == base_res.cycles && seg.report() == base.report();

        rows.push(CkptRow {
            workload,
            engine: kind,
            snapshot_bytes: bytes.len() as u64,
            capture_cycles: snapshot_capture_cycles(&bytes),
            save_us,
            restore_us,
            run_cycles: base_res.cycles,
            segmented_identical,
        });
    }
    rows
}

fn print_ckpt(rows: &[CkptRow]) {
    println!(
        "{:<12} {:<10} {:>9} {:>10} {:>10} {:>11} {:>10}",
        "workload", "engine", "bytes", "capture@", "save us", "restore us", "identical"
    );
    for r in rows {
        println!(
            "{:<12} {:<10} {:>9} {:>10} {:>10.1} {:>11.1} {:>10}",
            r.workload,
            r.engine,
            r.snapshot_bytes,
            r.capture_cycles,
            r.save_us,
            r.restore_us,
            r.segmented_identical
        );
        assert!(
            r.segmented_identical,
            "{}/{}: auto-checkpointing perturbed the run",
            r.workload, r.engine
        );
    }
}

// ---------------------------------------------------------------------
// Part 6b: serve throughput — jobs/s through the craft-serve pool.
// ---------------------------------------------------------------------

struct ServeRow {
    workers: usize,
    jobs: usize,
    preemptions: u64,
    segments: u64,
    elapsed_s: f64,
    jobs_per_sec: f64,
}

/// Pushes a mixed-engine job mix through the threaded
/// [`craft_serve::ServePool`] and measures served jobs per second —
/// the headline number for the simulation-as-a-service layer. Every
/// job checkpoints at [`CKPT_EVERY`] so the pool actually preempts
/// under contention.
fn serve_throughput(workers: usize, jobs: usize) -> Result<ServeRow, CampaignError> {
    use craft_serve::{JobSpec, ServePool, WorkloadId};
    let kinds = [
        EngineKind::Soc,
        EngineKind::Parallel { threads: 2 },
        EngineKind::Batch,
    ];
    let workloads = [
        WorkloadId::VecMul,
        WorkloadId::DotProduct,
        WorkloadId::Reduction,
        WorkloadId::VecAddScale,
    ];
    let pool = ServePool::new(workers);
    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(jobs);
    for i in 0..jobs {
        let kind = kinds[i % kinds.len()];
        let mut spec = JobSpec::new(workloads[i % workloads.len()], kind);
        spec.cfg.checkpoint_every = Some(CKPT_EVERY);
        if kind == EngineKind::Batch {
            spec.faults = vec![LaneSpec::new(
                HOT_LINK,
                FaultConfig::bit_flip(0.0),
                i as u64,
            )];
        }
        ids.push(
            pool.submit(spec)
                .map_err(|e| CampaignError::Serve(e.to_string()))?,
        );
    }
    for id in ids {
        pool.wait(id)
            .map_err(|e| CampaignError::Serve(e.to_string()))?
            .map_err(|e| CampaignError::Serve(format!("job {id} failed: {e}")))?;
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let stats = pool.shutdown();
    assert_eq!(stats.done, jobs as u64, "every job must finish cleanly");
    Ok(ServeRow {
        workers,
        jobs,
        preemptions: stats.preemptions,
        segments: stats.segments,
        elapsed_s,
        jobs_per_sec: jobs as f64 / elapsed_s,
    })
}

fn print_serve(r: &ServeRow) {
    println!(
        "{} mixed-engine jobs on {} workers: {:.2}s, {:.1} jobs/s \
         ({} preemptions, {} segments)",
        r.jobs, r.workers, r.elapsed_s, r.jobs_per_sec, r.preemptions, r.segments
    );
}

// ---------------------------------------------------------------------
// Part 7: crash-safe resumable campaign — per-seed journal + --resume.
// ---------------------------------------------------------------------

/// Typed failure in the campaign's submission/IO paths (journal
/// directories, atomic artifact writes, flag parsing). The binary
/// renders it and exits nonzero instead of panicking mid-campaign.
#[derive(Debug)]
enum CampaignError {
    /// A filesystem operation failed; `op` names it, `path` locates it.
    Io {
        op: &'static str,
        path: PathBuf,
        err: std::io::Error,
    },
    /// A malformed command line.
    BadArgs(String),
    /// The serve pool rejected or failed a job submission.
    Serve(String),
}

impl CampaignError {
    fn io(op: &'static str, path: &Path) -> impl FnOnce(std::io::Error) -> CampaignError {
        let path = path.to_path_buf();
        move |err| CampaignError::Io { op, path, err }
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io { op, path, err } => {
                write!(f, "{op} {} failed: {err}", path.display())
            }
            CampaignError::BadArgs(m) => write!(f, "{m}"),
            CampaignError::Serve(m) => write!(f, "serve: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Per-row journal over a directory: one file per completed row,
/// written atomically (tmp + fsync + rename), keyed by a stable string.
/// A row file is either absent or a complete, valid JSON object —
/// `SIGKILL` at any instant can only lose the row in flight.
struct Journal {
    dir: Option<PathBuf>,
    resume: bool,
    reused: std::cell::Cell<u64>,
    computed: std::cell::Cell<u64>,
}

impl Journal {
    fn new(dir: Option<PathBuf>, resume: bool) -> Result<Journal, CampaignError> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d).map_err(CampaignError::io("create checkpoint dir", d))?;
        }
        Ok(Journal {
            dir,
            resume,
            reused: std::cell::Cell::new(0),
            computed: std::cell::Cell::new(0),
        })
    }

    /// Returns the journaled row for `key` (on `--resume`, when
    /// present and well-formed), else computes it and journals it.
    /// Unparseable or truncated journal entries are recomputed, never
    /// trusted.
    fn row(&self, key: &str, compute: impl FnOnce() -> String) -> Result<String, CampaignError> {
        if self.resume {
            if let Some(dir) = &self.dir {
                if let Ok(s) = std::fs::read_to_string(dir.join(key)) {
                    if validate_json(&s).is_ok() {
                        self.reused.set(self.reused.get() + 1);
                        return Ok(s);
                    }
                }
            }
        }
        let s = compute();
        self.computed.set(self.computed.get() + 1);
        if let Some(dir) = &self.dir {
            write_atomic(&dir.join(key), s.as_bytes())?;
        }
        Ok(s)
    }
}

fn link_row_json(mode: Mode, seed: u64) -> String {
    let r = link_row(mode, seed);
    format!(
        "{{\"mode\": \"{}\", \"seed\": {seed}, \"injected\": {}, \"detections\": {}, \
         \"recovered\": {}, \"cycles_bare\": {}, \"cycles_clean\": {}, \"cycles_faulted\": {}}}",
        r.mode.name(),
        r.injected,
        r.detections,
        r.recovered,
        r.cycles_bare,
        r.cycles_clean,
        r.cycles_faulted
    )
}

fn soc_row_json(mode: Mode, seed: u64) -> String {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let r = solo_soc_row(
        SocConfig::default(),
        &wl,
        &program,
        &table,
        mode,
        0.02,
        seed,
    );
    format!(
        "{{\"mode\": \"{}\", \"seed\": {seed}, \"outcome\": \"{}\", \"injected\": {}, \
         \"cycles\": {}}}",
        r.mode.name(),
        r.outcome.name(),
        r.injected,
        r.cycles
    )
}

fn degradation_row_json(victim: u16, clean_cycles: u64) -> String {
    let r = degradation_row(victim, clean_cycles);
    format!(
        "{{\"victim\": {}, \"recovered\": {}, \"failed\": {:?}, \"remapped\": {}, \
         \"cycles\": {}, \"clean_cycles\": {}}}",
        r.victim, r.recovered, r.failed, r.remapped, r.cycles, r.clean_cycles
    )
}

fn watchdog_row_json() -> String {
    let wd = watchdog_demo();
    format!(
        "{{\"hang_cycle\": {}, \"idle_cycles\": {}, \"busy_components\": {}, \
         \"channel_note\": \"{}\", \"hub_wait\": \"{}\"}}",
        wd.hang_cycle,
        wd.idle_cycles,
        wd.busy_components,
        json_escape(&wd.channel_note),
        json_escape(&wd.hub_wait)
    )
}

/// The crash-safe resumable campaign: sequential per-seed sweep with
/// every completed row journaled, assembling a **deterministic**
/// artifact (no wall-clock fields) so an interrupted-and-resumed run
/// is byte-identical to an uninterrupted one.
fn resumable_campaign(args: &Args) -> Result<(), CampaignError> {
    let (link_seeds, soc_seeds, victims): (u64, u64, &[u16]) = if args.smoke {
        (4, 3, &[2])
    } else {
        (12, 10, &[1, 2, 3])
    };
    let journal = Journal::new(args.ckpt_dir.clone(), args.resume)?;
    let _quiet = SilentPanicGuard::new();

    let mut link_rows = Vec::new();
    for &mode in &Mode::ALL {
        for seed in 0..link_seeds {
            let key = format!("link-{}-{seed:04}.json", mode.name());
            link_rows.push(journal.row(&key, || link_row_json(mode, seed))?);
        }
    }
    let mut soc_rows = Vec::new();
    for &mode in &Mode::ALL {
        for seed in 0..soc_seeds {
            let key = format!("soc-{}-{seed:04}.json", mode.name());
            soc_rows.push(journal.row(&key, || soc_row_json(mode, seed))?);
        }
    }
    // The clean baseline is itself deterministic; journal it so
    // resumed runs skip the baseline too.
    let clean = journal.row("deg-baseline.json", || {
        format!("{{\"clean_cycles\": {}}}", clean_baseline_cycles())
    })?;
    let clean_cycles: u64 = clean
        .split(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())
        .expect("baseline row holds a number")
        .parse()
        .expect("baseline cycles parse");
    let mut deg_rows = Vec::new();
    for &victim in victims {
        let key = format!("deg-pe{victim:02}.json");
        deg_rows.push(journal.row(&key, || degradation_row_json(victim, clean_cycles))?);
    }
    let wd_row = journal.row("watchdog.json", watchdog_row_json)?;

    let mut json = format!(
        "{{\n  {}\n  \"bench\": \"fault_campaign_ckpt\",\n  \"resumable\": true,\n",
        json_meta_block("fault_campaign")
    );
    let emit = |json: &mut String, name: &str, header: &str, rows: &[String]| {
        let _ = write!(json, "  \"{name}\": {{\n    {header}\"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            let _ = write!(json, "      {r}");
            json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        json.push_str("    ]\n  },\n");
    };
    emit(
        &mut json,
        "link",
        &format!("\"fault_p\": 0.15, \"seeds_per_mode\": {link_seeds}, "),
        &link_rows,
    );
    emit(
        &mut json,
        "soc",
        &format!("\"link\": \"{HOT_LINK}\", \"fault_p\": 0.02, \"seeds_per_mode\": {soc_seeds}, "),
        &soc_rows,
    );
    emit(
        &mut json,
        "degradation",
        "\"pe_timeout\": 20000, ",
        &deg_rows,
    );
    let _ = write!(json, "  \"watchdog\": {wd_row}\n}}\n");
    validate_json(&json).expect("resumable artifact must be valid JSON");

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("fault_campaign_ckpt.json"));
    write_atomic(&out, json.as_bytes())?;
    println!(
        "resumable campaign: {} rows reused from journal, {} computed; wrote {}",
        journal.reused.get(),
        journal.computed.get(),
        out.display()
    );
    Ok(())
}

/// Atomic write (tmp + fsync + rename): a kill during the write can
/// never leave a half-written file behind. Failures are typed
/// [`CampaignError::Io`], never panics.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CampaignError> {
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write as _;
        let mut f =
            std::fs::File::create(&tmp).map_err(CampaignError::io("create tmp for", path))?;
        f.write_all(bytes)
            .map_err(CampaignError::io("write tmp for", path))?;
        f.sync_all()
            .map_err(CampaignError::io("fsync tmp for", path))?;
    }
    std::fs::rename(&tmp, path).map_err(CampaignError::io("commit", path))
}

/// In-process checkpoint smoke for CI: preempt-restore round-trip
/// identity on all three engines — one loop over [`EngineKind`]
/// through the unified trait — plus typed rejection of damaged
/// snapshot bytes.
fn ckpt_smoke() {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);

    let rows = checkpoint_overhead();
    print_ckpt(&rows);

    let seg_cfg = SocConfig {
        checkpoint_every: Some(CKPT_EVERY),
        ..SocConfig::default()
    };
    let lane = [LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 7)];
    let mut soc_bytes = Vec::new();
    for kind in [
        EngineKind::Soc,
        EngineKind::Parallel { threads: 2 },
        EngineKind::Batch,
    ] {
        let faults: &[LaneSpec] = if kind == EngineKind::Batch {
            &lane
        } else {
            &[]
        };
        let build = || {
            build_engine(
                kind,
                seg_cfg,
                &program,
                &table,
                &wl.gmem_init,
                faults,
                false,
            )
            .expect("engine builds")
        };
        let mut base = build();
        let base_res = base
            .run_checked(SOC_MAX_CYCLES, SOC_NO_PROGRESS)
            .expect("clean");

        // Preempt at the first boundary, drop the engine, revive it
        // from bytes alone, and run it out.
        let mut seg = build();
        seg.begin(SOC_MAX_CYCLES, SOC_NO_PROGRESS);
        assert_eq!(
            seg.step_segment().expect("clean first segment"),
            SegmentStatus::Boundary
        );
        let bytes = seg.snapshot_bytes();
        drop(seg);
        let mut rest = restore_engine(kind, &bytes, false).expect("restore");
        let rest_res = rest.run_to_end().expect("clean resume");
        assert_eq!(
            rest_res.cycles, base_res.cycles,
            "{kind}: restored run diverged"
        );
        assert_eq!(
            rest.report(),
            base.report(),
            "{kind}: restored report diverged"
        );
        for (addr, expect) in &wl.expected {
            assert_eq!(
                &rest.gmem_read(*addr, expect.len()),
                expect,
                "{kind}: restored memory diverged"
            );
        }
        println!(
            "round-trip[{kind}]: restored run matches at cycle {} ({} snapshot bytes)",
            rest_res.cycles,
            bytes.len()
        );
        if kind == EngineKind::Soc {
            soc_bytes = bytes;
        }
    }

    // Damaged bytes are rejected with typed errors, never UB.
    let bytes = soc_bytes;
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() - 20;
    corrupt[mid] ^= 0x40;
    match SimSnapshot::from_bytes(&corrupt) {
        Err(CheckpointError::Corrupted { .. }) => {}
        other => panic!("corruption must be rejected, got {other:?}"),
    }
    match SimSnapshot::from_bytes(&bytes[..bytes.len() / 2]) {
        Err(CheckpointError::Truncated { .. }) => {}
        other => panic!("truncation must be rejected, got {other:?}"),
    }
    let mut bumped = bytes.clone();
    bumped[8] = bumped[8].wrapping_add(1);
    match SimSnapshot::from_bytes(&bumped) {
        Err(CheckpointError::UnsupportedVersion { .. }) => {}
        other => panic!("version bump must be rejected, got {other:?}"),
    }
    match restore_engine(EngineKind::Batch, &bytes, false) {
        Err(CheckpointError::WrongKind { .. }) => {}
        Err(other) => panic!("wrong-kind frame must be WrongKind, got {other:?}"),
        Ok(_) => panic!("a soc frame must not revive a batch engine"),
    }
    println!(
        "rejection: corrupted / truncated / version-bumped / wrong-kind bytes all typed errors"
    );
    println!("checkpoint smoke OK");
}

// ---------------------------------------------------------------------

struct Args {
    smoke: bool,
    batch: bool,
    ckpt_smoke: bool,
    resume: bool,
    ckpt_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, CampaignError> {
    let mut args = Args {
        smoke: false,
        batch: false,
        ckpt_smoke: false,
        resume: false,
        ckpt_dir: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--batch" => args.batch = true,
            "--ckpt-smoke" => args.ckpt_smoke = true,
            "--resume" => args.resume = true,
            "--checkpoint-dir" => {
                args.ckpt_dir = Some(PathBuf::from(it.next().ok_or_else(|| {
                    CampaignError::BadArgs("--checkpoint-dir needs a path".into())
                })?));
            }
            "--out" => {
                args.out =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        CampaignError::BadArgs("--out needs a path".into())
                    })?));
            }
            other => return Err(CampaignError::BadArgs(format!("unknown flag {other:?}"))),
        }
    }
    if args.resume && args.ckpt_dir.is_none() {
        return Err(CampaignError::BadArgs(
            "--resume requires --checkpoint-dir".into(),
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fault_campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), CampaignError> {
    let args = parse_args()?;
    if args.ckpt_smoke {
        println!("== checkpoint: round-trip + rejection smoke ==");
        ckpt_smoke();
        return Ok(());
    }
    if let Some(dir) = &args.ckpt_dir {
        println!(
            "== resumable campaign (journal: {}{}) ==",
            dir.display(),
            if args.resume { ", resuming" } else { "" }
        );
        return resumable_campaign(&args);
    }

    let smoke = args.smoke;
    let (link_seeds, soc_seeds, batch_lanes, victims): (u64, u64, u64, &[u16]) = if smoke {
        (6, 3, 8, &[2])
    } else {
        (40, 12, 24, &[1, 2, 3])
    };

    if args.batch {
        // CI smoke path: just the batched backend and its serial
        // per-seed identity assertion.
        println!(
            "== batch: lockstep campaign on {HOT_LINK} (p={BATCH_P}, {batch_lanes} lanes/mode) =="
        );
        let rows = batch_campaign(batch_lanes);
        print_batch(&rows);
        println!("\nbatched outcomes identical to the serial per-seed loop");
        return Ok(());
    }

    println!(
        "== link: reliable transport under sustained faults (p=0.15, {link_seeds} seeds/mode) =="
    );
    let link_rows = link_campaign(link_seeds);
    let link_summary = summarize_link(&link_rows);
    println!(
        "{:<10} {:>5} {:>9} {:>10} {:>9} {:>12} {:>14}",
        "mode", "runs", "injected", "detection", "recovery", "clean ovh", "faulted ovh"
    );
    for s in &link_summary {
        println!(
            "{:<10} {:>5} {:>9} {:>9.0}% {:>8.0}% {:>11.2}x {:>13.2}x",
            s.mode.name(),
            s.runs,
            s.injected,
            s.detection_rate * 100.0,
            s.recovery_rate * 100.0,
            s.overhead_clean,
            s.overhead_faulted
        );
        assert!(
            (s.recovery_rate - 1.0).abs() < f64::EPSILON,
            "{}: reliable link failed to recover",
            s.mode.name()
        );
    }

    println!("\n== soc: raw NoC faults on {HOT_LINK} (p=0.02, {soc_seeds} seeds/mode) ==");
    let soc_rows = soc_campaign(soc_seeds);
    let soc_summary = summarize_soc(&soc_rows);
    println!(
        "{:<10} {:>5} {:>8} {:>9} {:>9} {:>7} {:>10}  classes",
        "mode", "runs", "faulted", "injected", "detected", "masked", "detection"
    );
    for s in &soc_summary {
        let classes: Vec<String> = s
            .by_class
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| format!("{c}={n}"))
            .collect();
        println!(
            "{:<10} {:>5} {:>8} {:>9} {:>9} {:>7} {:>9.0}%  {}",
            s.mode.name(),
            s.runs,
            s.faulted_runs,
            s.injected,
            s.detected,
            s.masked,
            s.detection_rate * 100.0,
            classes.join(" ")
        );
    }

    println!(
        "\n== batch: lockstep campaign on {HOT_LINK} (p={BATCH_P}, {batch_lanes} lanes/mode) =="
    );
    let batch_rows = batch_campaign(batch_lanes);
    print_batch(&batch_rows);
    if !smoke {
        for r in &batch_rows {
            assert_eq!(r.masked, 0, "{}: masked corruption in batch", r.mode.name());
            assert!(
                (r.detection_rate - 1.0).abs() < f64::EPSILON,
                "{}: batched campaign must detect every faulted run",
                r.mode.name()
            );
            assert!(
                r.speedup >= 3.0,
                "{}: batched backend must be >=3x serial, got {:.2}x \
                 ({} de-opts of {} lanes)",
                r.mode.name(),
                r.speedup,
                r.deopt_lanes,
                r.lanes
            );
        }
    }

    println!("\n== degradation: stuck PE detected and remapped (timeout 20k) ==");
    let deg_rows = degradation_campaign(victims);
    println!(
        "{:<7} {:>9} {:>8} {:>9} {:>10} {:>10}",
        "victim", "recovered", "failed", "remapped", "cycles", "overhead"
    );
    for r in &deg_rows {
        println!(
            "pe{:<5} {:>9} {:>8} {:>9} {:>10} {:>+10}",
            r.victim,
            r.recovered,
            format!("{:?}", r.failed),
            r.remapped,
            r.cycles,
            r.cycles as i64 - r.clean_cycles as i64
        );
        assert!(r.recovered, "pe{}: degraded run must verify", r.victim);
        assert_eq!(r.failed, vec![r.victim], "exactly the victim is failed");
        assert!(r.remapped >= 1, "pe{}: work must be remapped", r.victim);
    }

    println!("\n== watchdog: diagnosed hang on total flit loss ==");
    let wd = watchdog_demo();
    println!(
        "hang at cycle {} after {} idle cycles; {} busy components",
        wd.hang_cycle, wd.idle_cycles, wd.busy_components
    );
    println!("channel n5.eject: {}", wd.channel_note);
    println!("hub wait: {}", wd.hub_wait);
    assert!(
        wd.channel_note.contains("drop"),
        "diagnosis names the fault"
    );
    assert!(wd.hub_wait.contains("inflight=[5]"), "hub pins the command");

    println!("\n== checkpoint: snapshot size and save/restore latency ==");
    let ckpt_rows = checkpoint_overhead();
    print_ckpt(&ckpt_rows);

    println!("\n== serve: jobs/s through the craft-serve worker pool ==");
    let serve_row = serve_throughput(2, if smoke { 6 } else { 24 })?;
    print_serve(&serve_row);

    let mut json = format!(
        "{{\n  {}\n  \"bench\": \"fault_campaign\",\n",
        json_meta_block("fault_campaign")
    );
    let _ = write!(
        json,
        "  \"link\": {{\n    \"fault_p\": 0.15, \"seeds_per_mode\": {link_seeds}, \"modes\": [\n"
    );
    for (i, s) in link_summary.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"mode\": \"{}\", \"runs\": {}, \"injected\": {}, \"detection_rate\": {:.3}, \"recovery_rate\": {:.3}, \"overhead_clean\": {:.3}, \"overhead_faulted\": {:.3}}}",
            s.mode.name(),
            s.runs,
            s.injected,
            s.detection_rate,
            s.recovery_rate,
            s.overhead_clean,
            s.overhead_faulted
        );
        json.push_str(if i + 1 < link_summary.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(
        json,
        "    ]\n  }},\n  \"soc\": {{\n    \"link\": \"{HOT_LINK}\", \"fault_p\": 0.02, \"seeds_per_mode\": {soc_seeds}, \"modes\": [\n"
    );
    for (i, s) in soc_summary.iter().enumerate() {
        let classes: Vec<String> = s
            .by_class
            .iter()
            .map(|(c, n)| format!("\"{c}\": {n}"))
            .collect();
        let _ = write!(
            json,
            "      {{\"mode\": \"{}\", \"runs\": {}, \"faulted_runs\": {}, \"injected\": {}, \"detected\": {}, \"masked\": {}, \"detection_rate\": {:.3}, \"mean_completed_cycles\": {:.0}, \"outcomes\": {{{}}}}}",
            s.mode.name(),
            s.runs,
            s.faulted_runs,
            s.injected,
            s.detected,
            s.masked,
            s.detection_rate,
            s.mean_completed_cycles,
            classes.join(", ")
        );
        json.push_str(if i + 1 < soc_summary.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(
        json,
        "    ]\n  }},\n  \"batch\": {{\n    \"link\": \"{HOT_LINK}\", \"fault_p\": {BATCH_P}, \
         \"fidelity\": \"sim_accurate\", \"compiled_schedule\": true, \"modes\": [\n"
    );
    for (i, r) in batch_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"mode\": \"{}\", \"lanes\": {}, \"deopt_lanes\": {}, \"faulted_runs\": {}, \
             \"detected\": {}, \"masked\": {}, \"detection_rate\": {:.3}, \"serial_s\": {:.6}, \
             \"batched_s\": {:.6}, \"seeds_per_sec_serial\": {:.3}, \
             \"seeds_per_sec_batched\": {:.3}, \"speedup\": {:.3}}}",
            r.mode.name(),
            r.lanes,
            r.deopt_lanes,
            r.faulted_runs,
            r.detected,
            r.masked,
            r.detection_rate,
            r.serial_s,
            r.batched_s,
            r.seeds_per_sec_serial,
            r.seeds_per_sec_batched,
            r.speedup
        );
        json.push_str(if i + 1 < batch_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n  \"degradation\": {\n    \"pe_timeout\": 20000, \"rows\": [\n");
    for (i, r) in deg_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"victim\": {}, \"recovered\": {}, \"failed\": {:?}, \"remapped\": {}, \"cycles\": {}, \"clean_cycles\": {}}}",
            r.victim, r.recovered, r.failed, r.remapped, r.cycles, r.clean_cycles
        );
        json.push_str(if i + 1 < deg_rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "    ]\n  }},\n  \"checkpoint\": {{\n    \"auto_every_cycles\": {CKPT_EVERY}, \"rows\": [\n"
    );
    for (i, r) in ckpt_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"workload\": \"{}\", \"engine\": \"{}\", \"snapshot_bytes\": {}, \
             \"capture_cycles\": {}, \"save_us\": {:.1}, \"restore_us\": {:.1}, \
             \"run_cycles\": {}, \"segmented_identical\": {}}}",
            r.workload,
            r.engine,
            r.snapshot_bytes,
            r.capture_cycles,
            r.save_us,
            r.restore_us,
            r.run_cycles,
            r.segmented_identical
        );
        json.push_str(if i + 1 < ckpt_rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(
        json,
        "    ]\n  }},\n  \"serve_throughput\": {{\"workers\": {}, \"jobs\": {}, \
         \"preemptions\": {}, \"segments\": {}, \"elapsed_s\": {:.3}, \
         \"jobs_per_sec\": {:.2}, \"ckpt_every\": {CKPT_EVERY}}},\n",
        serve_row.workers,
        serve_row.jobs,
        serve_row.preemptions,
        serve_row.segments,
        serve_row.elapsed_s,
        serve_row.jobs_per_sec
    );
    let _ = write!(
        json,
        "  \"watchdog\": {{\"hang_cycle\": {}, \"idle_cycles\": {}, \"busy_components\": {}, \"channel_note\": \"{}\", \"hub_wait\": \"{}\"}}\n}}\n",
        wd.hang_cycle,
        wd.idle_cycles,
        wd.busy_components,
        json_escape(&wd.channel_note),
        json_escape(&wd.hub_wait)
    );

    println!("\n== telemetry: instrumented degradation run ==");
    let tel_json = telemetry_snapshot_json();
    println!(
        "snapshot validated ({} bytes of metrics/spans JSON)",
        tel_json.len()
    );

    validate_json(&json).expect("campaign artifact must be valid JSON");

    if smoke {
        println!("\nsmoke run: BENCH_fault_campaign.json not rewritten");
    } else {
        write_atomic(Path::new("BENCH_fault_campaign.json"), json.as_bytes())?;
        write_atomic(
            Path::new("BENCH_fault_campaign_telemetry.json"),
            tel_json.as_bytes(),
        )?;
        println!("\nwrote BENCH_fault_campaign.json and BENCH_fault_campaign_telemetry.json");
    }
    Ok(())
}
