//! Batched lockstep co-simulation: word-parallel fault campaigns.
//!
//! A fault campaign runs N seeded variants of the *same* workload —
//! same program, same memory image, same SoC build — differing only in
//! the fault decisions a seeded injector draws. Until a lane's fault
//! first perturbs the token stream, its trajectory is bit-identical to
//! the fault-free golden run. [`BatchSoc`] exploits that: it advances
//! **one** golden simulation (which keeps the kernel's compiled
//! instant plan armed wherever it applies, since no real injector is
//! attached) and replays every lane's fault *decisions* against the
//! golden token stream through shadow
//! [`craft_connections::FaultLaneBank`]s laid out as lane-indexed
//! arrays on each matched channel:
//!
//! ```text
//!                 ┌───────────── golden Soc ─────────────┐
//!                 │  channel "l11p3->15"                 │
//!                 │    ├─ FaultLaneBank                  │
//!  lane 0 ──────▶ │    │   injector[0]  (seed_0 ^ salt)  │ ─▶ Converged:
//!  lane 1 ──────▶ │    │   injector[1]  (seed_1 ^ salt)  │    golden result
//!   ...           │    │     ...                         │    + shadow stats
//!  lane N-1 ────▶ │    │   injector[N-1]                 │
//!                 │    └─ shared LaneSet (live list)     │ ─▶ Diverged:
//!                 └──────────────────────────────────────┘    de-opt → solo
//!                                                             interpreted Soc
//! ```
//!
//! The moment a lane's drawn decision would perturb the stream (bit
//! flip, drop, or a duplicate the FIFO had room for) the lane **de-ops
//! to a solo interpreted [`Soc`]** — a fresh build with a real
//! injector, replayed from t=0. The interpreted path stays the golden
//! reference; batching never invents a third semantics. Lanes whose
//! injectors never fire finish bit-identical to the golden run for
//! free, with exact [`FaultStats`] accumulated by the shadows.
//!
//! Divergence is conservative (see [`craft_connections::LaneSet`]): a
//! false positive costs one replay, a false negative would corrupt
//! results, so the bank never risks one. Stuck-wire faults gate
//! handshakes from their onset — no convergent prefix — so those lanes
//! are pre-diverged at build (divergence token 0).
//!
//! When batching wins: low per-token fault probability and many lanes,
//! so most lanes ride the golden run. With D diverged lanes out of N
//! the cost is ~(1 + D) runs instead of N. When most lanes fire early,
//! [`crate::parallel::ParallelSoc`] or a `par_map` over solo runs is
//! the better backend — the campaign driver picks per mode.

use crate::checkpoint::BatchSnapshot;
use crate::engine::SegmentStatus;
use crate::soc::{
    lane_fault_seed, merge_fault_stats, ChannelRole, FaultPatternError, FaultReport, RunResult,
    Soc, SocConfig, SocReport,
};
use craft_connections::{FaultConfig, FaultLaneBank, FaultStats, LaneSet, LaneStatus};
use craft_sim::checkpoint::{fnv64, CheckpointError};
use craft_sim::{SimError, TelLaneCounters, Telemetry};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// One lane of a batch: a fault scenario to co-simulate against the
/// shared golden run. Identical to the `(pat, cfg, seed)` triple a
/// solo campaign would pass to [`Soc::inject_fault`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSpec {
    /// Channel-name pattern (substring over the NoC registry).
    pub pattern: String,
    /// Fault class and rates.
    pub cfg: FaultConfig,
    /// Campaign seed; per-channel injector seeds derive from it
    /// exactly as [`Soc::inject_fault`] derives them.
    pub seed: u64,
}

impl LaneSpec {
    /// Convenience constructor.
    pub fn new(pattern: &str, cfg: FaultConfig, seed: u64) -> LaneSpec {
        LaneSpec {
            pattern: pattern.to_string(),
            cfg,
            seed,
        }
    }
}

/// Everything needed to rebuild a lane's simulation from t=0 — handed
/// to de-opt replays, which may run on worker threads (the contained
/// data is plain owned values, `Send`).
#[derive(Debug, Clone)]
pub struct ReplayInputs {
    /// SoC build parameters of the golden run.
    pub cfg: SocConfig,
    /// Controller program image.
    pub program: Vec<u32>,
    /// Staging (controller table) memory image.
    pub staging: Vec<u32>,
    /// Global-memory init regions.
    pub gmem_init: Vec<(usize, Vec<u64>)>,
}

/// Runs one diverged lane solo: a fresh interpreted [`Soc`] with a
/// real injector, replayed from t=0 under the same run limits the
/// batch used. This *is* the golden reference path — [`BatchSoc::run`]
/// calls it for every de-opted lane, and campaign drivers can call it
/// on worker threads via [`BatchSoc::replay_inputs`].
pub fn replay_lane_solo(
    inputs: &ReplayInputs,
    spec: &LaneSpec,
    max_cycles: u64,
    no_progress_limit: u64,
) -> (Result<RunResult, SimError>, SocReport, FaultStats, Soc) {
    let mut soc = Soc::build(
        inputs.cfg,
        &inputs.program,
        &inputs.staging,
        &inputs.gmem_init,
    );
    soc.inject_fault(&spec.pattern, spec.cfg, spec.seed)
        .expect("pattern matched the golden registry at batch build");
    let res = soc.run_checked(max_cycles, no_progress_limit);
    let report = soc.report();
    let stats = soc
        .fault_stats(&spec.pattern)
        .expect("pattern matched the golden registry at batch build");
    (res, report, stats, soc)
}

/// Outcome of one lane after [`BatchSoc::run`].
#[derive(Debug, Clone)]
pub struct LaneRun {
    /// Lane index (position in the spec list).
    pub lane: usize,
    /// Whether the lane left lockstep and was finished solo.
    pub deopted: bool,
    /// Channel token ordinal at which the lane diverged (0 = pre-
    /// diverged at build, e.g. a stuck-wire config). `None` while
    /// converged.
    pub diverged_at_token: Option<u64>,
    /// The solo replay panicked (fail-stop propagated as a panic);
    /// `result`/`report`/`fault_stats` are `None`.
    pub panicked: bool,
    /// Run result — the golden result for converged lanes, the solo
    /// replay's for de-opted lanes.
    pub result: Option<Result<RunResult, SimError>>,
    /// Full run report, bit-identical to what a solo run of this
    /// lane's `(pattern, cfg, seed)` would report.
    pub report: Option<SocReport>,
    /// Injector counters over the matched channels (shadow-exact for
    /// converged lanes, the solo injector's for de-opted ones).
    pub fault_stats: Option<FaultStats>,
}

/// Batch-level outcome of [`BatchSoc::run`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The golden (fault-free) run's result.
    pub golden: Result<RunResult, SimError>,
    /// Per-lane outcomes, in spec order.
    pub lanes: Vec<LaneRun>,
    /// Lanes that de-opted to a solo replay.
    pub deopt_lanes: usize,
    /// Lanes that finished bit-identical to the golden run.
    pub converged_lanes: usize,
}

/// N sibling fault simulations advanced through one pass of the shared
/// golden run per instant — see the [module docs](crate::batch).
///
/// Build with [`BatchSoc::build`], run once with [`BatchSoc::run`],
/// then read per-lane outcomes from the returned [`BatchReport`] and
/// verify memory with [`BatchSoc::gmem_read_lane`].
pub struct BatchSoc {
    cfg: SocConfig,
    program: Vec<u32>,
    staging: Vec<u32>,
    gmem_init: Vec<(usize, Vec<u64>)>,
    specs: Vec<LaneSpec>,
    /// Per-lane matched-channel count (the solo `armed_channels`).
    matched: Vec<usize>,
    /// Registry indices carrying a shadow bank.
    banked: Vec<usize>,
    set: Rc<RefCell<LaneSet>>,
    golden: Soc,
    /// De-opted lanes' solo simulations, kept for memory verification.
    solos: Vec<Option<Soc>>,
    tel_tokens: Option<TelLaneCounters>,
    tel_injected: Option<TelLaneCounters>,
    ran: bool,
    /// `(max_cycles, no_progress_limit)` of the in-flight batch run —
    /// the settle phase replays de-opted lanes under the same limits.
    limits: Option<(u64, u64)>,
    last_ckpt: Option<BatchSnapshot>,
    /// The settled report of a finished run ([`BatchSoc::last_report`]).
    last_report: Option<BatchReport>,
}

impl BatchSoc {
    /// Builds the golden SoC and arms one shadow injector per
    /// `(lane, matched channel)` pair, seeded exactly as
    /// [`Soc::inject_fault`] would seed a real injector there. Lanes
    /// with stuck-wire configs are pre-diverged (no convergent
    /// prefix). Errors if any lane's pattern matches no channel.
    pub fn build(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        specs: Vec<LaneSpec>,
    ) -> Result<BatchSoc, FaultPatternError> {
        Self::build_with_telemetry(cfg, program, staging_init, gmem_init, specs, None)
    }

    /// Like [`BatchSoc::build`], but publishes batch observability
    /// into `tel`: the golden SoC's full probe set plus lane-indexed
    /// counter rows `batch.tokens.lane<i>` / `batch.injected.lane<i>`
    /// (with `.merged` sums) filled in at the end of the run.
    pub fn build_with_telemetry(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        specs: Vec<LaneSpec>,
        telemetry: Option<Telemetry>,
    ) -> Result<BatchSoc, FaultPatternError> {
        let tel_tokens = telemetry
            .as_ref()
            .map(|t| t.lane_counters("batch.tokens", specs.len()));
        let tel_injected = telemetry
            .as_ref()
            .map(|t| t.lane_counters("batch.injected", specs.len()));
        let golden = Soc::build_with_telemetry(cfg, program, staging_init, gmem_init, telemetry);
        let set = LaneSet::new(specs.len());
        let mut banks: BTreeMap<usize, FaultLaneBank> = BTreeMap::new();
        let mut matched = Vec::with_capacity(specs.len());
        for (lane, spec) in specs.iter().enumerate() {
            let mut m = 0;
            for (i, (name, _)) in golden.noc_registry().iter().enumerate() {
                if !name.contains(&spec.pattern) {
                    continue;
                }
                m += 1;
                // Mirror inject_fault's arming rule; a sequential
                // golden build is all-Local, so every matched channel
                // gets this lane's shadow.
                if FaultLaneBank::supports(&spec.cfg)
                    && matches!(golden.noc_role(i), ChannelRole::Local | ChannelRole::TxHalf)
                {
                    banks
                        .entry(i)
                        .or_insert_with(|| FaultLaneBank::new(Rc::clone(&set)))
                        .arm_lane(lane, spec.cfg, lane_fault_seed(spec.seed, i));
                }
            }
            if m == 0 {
                return Err(FaultPatternError::NoMatch {
                    pattern: spec.pattern.clone(),
                });
            }
            if !FaultLaneBank::supports(&spec.cfg) {
                set.borrow_mut().mark_diverged(lane, 0);
            }
            matched.push(m);
        }
        let banked: Vec<usize> = banks.keys().copied().collect();
        for (i, bank) in banks {
            golden.noc_registry()[i].1.attach_lane_bank(bank);
        }
        let solos = (0..specs.len()).map(|_| None).collect();
        Ok(BatchSoc {
            cfg,
            program: program.to_vec(),
            staging: staging_init.to_vec(),
            gmem_init: gmem_init.to_vec(),
            specs,
            matched,
            banked,
            set,
            golden,
            solos,
            tel_tokens,
            tel_injected,
            ran: false,
            limits: None,
            last_ckpt: None,
            last_report: None,
        })
    }

    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.specs.len()
    }

    /// Lanes still in lockstep with the golden run.
    pub fn live_count(&self) -> usize {
        self.set.borrow().live_count()
    }

    /// This lane's current convergence status.
    pub fn lane_status(&self, lane: usize) -> LaneStatus {
        self.set.borrow().status(lane)
    }

    /// The shared golden simulation (fault-free reference).
    pub fn golden(&self) -> &Soc {
        &self.golden
    }

    /// Owned copies of the build inputs, for replaying de-opted lanes
    /// on worker threads (see [`replay_lane_solo`]).
    pub fn replay_inputs(&self) -> ReplayInputs {
        ReplayInputs {
            cfg: self.cfg,
            program: self.program.clone(),
            staging: self.staging.clone(),
            gmem_init: self.gmem_init.clone(),
        }
    }

    /// Shadow-exact fault counters for a converged lane, merged over
    /// every banked channel this lane is armed on.
    fn shadow_stats(&self, lane: usize) -> FaultStats {
        let mut total = FaultStats::default();
        let reg = self.golden.noc_registry();
        for &i in &self.banked {
            if let Some(s) = reg[i].1.lane_bank_stats(lane) {
                merge_fault_stats(&mut total, &s);
            }
        }
        total
    }

    /// Advances the golden run to completion under the watchdog, then
    /// settles every lane: converged lanes inherit the golden result
    /// with their shadow fault stats patched in; diverged lanes are
    /// replayed solo (interpreted, real injector, from t=0) under the
    /// same limits, with panics contained per lane.
    ///
    /// With [`SocConfig::checkpoint_every`] set, the golden run is
    /// segmented at that interval with a [`BatchSnapshot`] captured at
    /// each boundary (see [`BatchSoc::last_checkpoint`]) — the
    /// segmentation is observation-only, exactly as for
    /// [`Soc::run_checked`].
    ///
    /// # Panics
    /// Panics if called twice — the golden simulation is consumed by
    /// the first run.
    pub fn run(&mut self, max_cycles: u64, no_progress_limit: u64) -> BatchReport {
        self.begin(max_cycles, no_progress_limit);
        self.resume()
    }

    /// Opens the golden supervised session without driving it — the
    /// segmented entry point for schedulers that step the batch with
    /// [`BatchSoc::step_segment`] and preempt between segments.
    ///
    /// # Panics
    /// Panics if called twice — the golden simulation is consumed by
    /// the first run.
    pub fn begin(&mut self, max_cycles: u64, no_progress_limit: u64) {
        assert!(!self.ran, "BatchSoc::run may only be called once");
        self.ran = true;
        self.limits = Some((max_cycles, no_progress_limit));
        self.golden.begin_checked(max_cycles, no_progress_limit);
    }

    /// Drives the open golden session to completion (capturing
    /// automatic [`BatchSnapshot`]s between segments), then settles
    /// the lanes — the entry point for a batch restored mid-run by
    /// [`BatchSoc::restore`].
    ///
    /// # Panics
    /// Panics if no golden session is open.
    pub fn resume(&mut self) -> BatchReport {
        assert!(self.golden.session_open(), "no batch run to resume");
        let t0 = Instant::now();
        loop {
            match self.step_segment() {
                Ok(SegmentStatus::Boundary) => {}
                Ok(SegmentStatus::Done(_)) | Err(_) => {
                    let mut rep = self
                        .last_report
                        .clone()
                        .expect("final segment settles the batch");
                    if let Ok(r) = rep.golden.as_mut() {
                        r.wall = t0.elapsed();
                    }
                    return rep;
                }
            }
        }
    }

    /// Runs one segment of the open golden session — at most
    /// [`SocConfig::checkpoint_every`] cycles (the whole budget when
    /// unset). [`SegmentStatus::Boundary`] means budget remains and
    /// the automatic [`BatchSnapshot`] was captured: a scheduler may
    /// preempt here and revive the batch from the serialized
    /// snapshot. When the golden run ends — [`SegmentStatus::Done`]
    /// or a watchdog error — the lanes settle immediately and the
    /// full [`BatchReport`] is stored in [`BatchSoc::last_report`].
    ///
    /// # Panics
    /// Panics if no golden session is open.
    pub fn step_segment(&mut self) -> Result<SegmentStatus, SimError> {
        let (max_cycles, no_progress_limit) = self.limits.expect("no batch run to resume");
        assert!(self.golden.session_open(), "no batch run to resume");
        let t0 = Instant::now();
        let auto = self.cfg.checkpoint_every;
        match self.golden.advance_checked(auto.unwrap_or(u64::MAX)) {
            Err(e) => {
                let rep = self.settle(Err(e.clone()), max_cycles, no_progress_limit);
                self.last_report = Some(rep);
                Err(e)
            }
            Ok(Some(completed)) => {
                let consumed = self.golden.close_session().expect("session open").consumed;
                let res = RunResult {
                    cycles: consumed,
                    wall: t0.elapsed(),
                    ctrl: *self.golden.ctrl_handle().borrow(),
                    completed,
                };
                let rep = self.settle(Ok(res), max_cycles, no_progress_limit);
                self.last_report = Some(rep);
                Ok(SegmentStatus::Done(res))
            }
            Ok(None) => {
                if auto.is_some() {
                    self.last_ckpt = Some(self.checkpoint());
                }
                Ok(SegmentStatus::Boundary)
            }
        }
    }

    /// The settled [`BatchReport`] of a finished batch run, if the
    /// golden session has ended (also populated when the golden run
    /// erred — the lanes still settle).
    pub fn last_report(&self) -> Option<&BatchReport> {
        self.last_report.as_ref()
    }

    /// The configuration the golden SoC (and every lane replay) was
    /// built from.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// Finishes every lane once the golden run has ended.
    fn settle(
        &mut self,
        golden_res: Result<RunResult, SimError>,
        max_cycles: u64,
        no_progress_limit: u64,
    ) -> BatchReport {
        let golden_report = self.golden.report();
        let inputs = self.replay_inputs();
        let mut lanes = Vec::with_capacity(self.specs.len());
        let mut deopt_lanes = 0;
        for lane in 0..self.specs.len() {
            let status = self.set.borrow().status(lane);
            match status {
                LaneStatus::Converged => {
                    let stats = self.shadow_stats(lane);
                    let mut report = golden_report.clone();
                    // A solo run of this lane arms a real injector on
                    // every matched channel and otherwise matches the
                    // golden trajectory bit for bit — only the fault
                    // section differs from the golden report.
                    report.faults = FaultReport {
                        armed_channels: self.matched[lane],
                        stats: stats.clone(),
                    };
                    lanes.push(LaneRun {
                        lane,
                        deopted: false,
                        diverged_at_token: None,
                        panicked: false,
                        result: Some(golden_res.clone()),
                        report: Some(report),
                        fault_stats: Some(stats),
                    });
                }
                LaneStatus::Diverged { token } => {
                    deopt_lanes += 1;
                    let spec = self.specs[lane].clone();
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        replay_lane_solo(&inputs, &spec, max_cycles, no_progress_limit)
                    }));
                    match out {
                        Ok((res, report, stats, soc)) => {
                            self.solos[lane] = Some(soc);
                            lanes.push(LaneRun {
                                lane,
                                deopted: true,
                                diverged_at_token: Some(token),
                                panicked: false,
                                result: Some(res),
                                report: Some(report),
                                fault_stats: Some(stats),
                            });
                        }
                        Err(_) => lanes.push(LaneRun {
                            lane,
                            deopted: true,
                            diverged_at_token: Some(token),
                            panicked: true,
                            result: None,
                            report: None,
                            fault_stats: None,
                        }),
                    }
                }
            }
        }
        if let Some(tc) = &self.tel_tokens {
            for r in &lanes {
                tc.set(r.lane, r.fault_stats.as_ref().map_or(0, |s| s.tokens));
            }
        }
        if let Some(tc) = &self.tel_injected {
            for r in &lanes {
                tc.set(r.lane, r.fault_stats.as_ref().map_or(0, |s| s.injected()));
            }
        }
        BatchReport {
            golden: golden_res,
            lanes,
            deopt_lanes,
            converged_lanes: self.specs.len() - deopt_lanes,
        }
    }

    /// Reads `len` words of a lane's global memory after the run: the
    /// golden memory for converged lanes, the solo replay's for
    /// de-opted ones. `None` when the lane has no simulation to read
    /// (its replay panicked, or the batch has not run).
    pub fn gmem_read_lane(&self, lane: usize, base: usize, len: usize) -> Option<Vec<u64>> {
        if let Some(solo) = &self.solos[lane] {
            return Some(solo.gmem_read(base, len));
        }
        if self.ran && matches!(self.set.borrow().status(lane), LaneStatus::Converged) {
            return Some(self.golden.gmem_read(base, len));
        }
        None
    }

    /// Captures a [`BatchSnapshot`] at the current golden-run
    /// boundary: the golden [`crate::SimSnapshot`] (with its open
    /// session), every lane's spec, and each lane's divergence status
    /// and shadow fault counters. Meaningful before the lanes settle —
    /// a mid-golden-run capture restores to the exact same campaign
    /// state.
    pub fn checkpoint(&self) -> BatchSnapshot {
        let set = self.set.borrow();
        BatchSnapshot {
            golden: self.golden.checkpoint(),
            specs: self.specs.clone(),
            lane_status: (0..self.specs.len()).map(|l| set.status(l)).collect(),
            lane_stats: (0..self.specs.len())
                .map(|l| self.shadow_stats(l))
                .collect(),
        }
    }

    /// The most recent automatic checkpoint taken by a segmented
    /// golden run ([`SocConfig::checkpoint_every`]), if any.
    pub fn last_checkpoint(&self) -> Option<&BatchSnapshot> {
        self.last_ckpt.as_ref()
    }

    /// Rebuilds a batch from `snap`: re-arms every lane's shadow bank
    /// with the same derived seeds, replays the golden run to the
    /// capture boundary (the shadow decisions re-derive along the
    /// regenerated token stream), and verifies each lane's divergence
    /// status and shadow counters against the recorded ones — any
    /// mismatch is a typed [`CheckpointError::ReplayDivergence`]. A
    /// snapshot captured mid-golden-run reinstates the session, ready
    /// for [`BatchSoc::resume`].
    pub fn restore(snap: &BatchSnapshot) -> Result<BatchSoc, CheckpointError> {
        let mut batch = BatchSoc::build(
            snap.golden.cfg,
            &snap.golden.program,
            &snap.golden.staging,
            &snap.golden.gmem_init,
            snap.specs.clone(),
        )
        .map_err(|e| CheckpointError::Malformed(format!("lane spec failed to re-arm: {e}")))?;
        batch.golden.replay_to(&snap.golden)?;
        // The divergence token ordinal doubles as the status word:
        // `u64::MAX` is unreachable as a token count and encodes
        // `Converged`.
        let status_word = |s: &LaneStatus| match s {
            LaneStatus::Converged => u64::MAX,
            LaneStatus::Diverged { token } => *token,
        };
        for (lane, (want_status, want_stats)) in snap
            .lane_status
            .iter()
            .zip(snap.lane_stats.iter())
            .enumerate()
        {
            let got_status = batch.set.borrow().status(lane);
            if got_status != *want_status {
                return Err(CheckpointError::ReplayDivergence {
                    field: format!("lane{lane}.status"),
                    expected: status_word(want_status),
                    found: status_word(&got_status),
                });
            }
            let got_stats = batch.shadow_stats(lane);
            if got_stats != *want_stats {
                return Err(CheckpointError::ReplayDivergence {
                    field: format!("lane{lane}.stats"),
                    expected: fnv64(format!("{want_stats:?}").as_bytes()),
                    found: fnv64(format!("{got_stats:?}").as_bytes()),
                });
            }
        }
        if let Some(s) = &snap.golden.session {
            batch.ran = true;
            batch.limits = Some((s.remaining + s.consumed, s.no_progress_limit));
        }
        Ok(batch)
    }
}

impl std::fmt::Debug for BatchSoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSoc")
            .field("lanes", &self.specs.len())
            .field("live", &self.live_count())
            .field("banked_channels", &self.banked.len())
            .field("ran", &self.ran)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};

    const HOT_LINK: &str = "l11p3->15";
    const MAX_CYCLES: u64 = 4_000_000;
    const NO_PROGRESS: u64 = 100_000;

    fn solo_run(spec: &LaneSpec) -> (Result<RunResult, SimError>, SocReport, FaultStats) {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut soc = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
        soc.inject_fault(&spec.pattern, spec.cfg, spec.seed)
            .expect("pattern matches");
        let res = soc.run_checked(MAX_CYCLES, NO_PROGRESS);
        let report = soc.report();
        let stats = soc.fault_stats(&spec.pattern).expect("pattern matches");
        (res, report, stats)
    }

    fn build_batch(specs: Vec<LaneSpec>) -> BatchSoc {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        BatchSoc::build(SocConfig::default(), &program, &table, &wl.gmem_init, specs)
            .expect("patterns match")
    }

    #[test]
    fn converged_lanes_match_solo_runs_bit_for_bit() {
        // Zero-rate faults never fire: every lane must ride the golden
        // run and still report exactly what a solo run would.
        let specs = vec![
            LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 11),
            LaneSpec::new(HOT_LINK, FaultConfig::drop(0.0), 22),
        ];
        let mut batch = build_batch(specs.clone());
        let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
        assert_eq!((rep.converged_lanes, rep.deopt_lanes), (2, 0));
        for (spec, lane) in specs.iter().zip(&rep.lanes) {
            assert!(!lane.deopted);
            let (s_res, s_report, s_stats) = solo_run(spec);
            let b_res = lane.result.clone().unwrap();
            let (b, s) = (b_res.unwrap(), s_res.unwrap());
            assert_eq!((b.cycles, b.completed), (s.cycles, s.completed));
            assert_eq!(lane.report.as_ref().unwrap(), &s_report);
            assert_eq!(lane.fault_stats.clone().unwrap(), s_stats);
        }
    }

    #[test]
    fn firing_lane_deopts_and_matches_solo_run() {
        // A certain-drop lane diverges on its first token and must be
        // finished solo; a zero-rate sibling shares the golden run.
        let hot = LaneSpec::new(HOT_LINK, FaultConfig::drop(1.0), 5);
        let cold = LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 6);
        let mut batch = build_batch(vec![hot.clone(), cold]);
        let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
        assert_eq!((rep.converged_lanes, rep.deopt_lanes), (1, 1));
        let lane = &rep.lanes[0];
        assert!(lane.deopted && !lane.panicked);
        assert!(lane.diverged_at_token.unwrap() >= 1);
        let (s_res, s_report, s_stats) = solo_run(&hot);
        match (lane.result.clone().unwrap(), s_res) {
            (Ok(b), Ok(s)) => assert_eq!((b.cycles, b.completed), (s.cycles, s.completed)),
            (Err(b), Err(s)) => assert_eq!(format!("{b:?}"), format!("{s:?}")),
            (b, s) => panic!("batch {b:?} vs solo {s:?}"),
        }
        assert_eq!(lane.report.as_ref().unwrap(), &s_report);
        assert_eq!(lane.fault_stats.clone().unwrap(), s_stats);
    }

    #[test]
    fn stuck_wire_lane_is_prediverged_at_build() {
        let spec = LaneSpec::new(HOT_LINK, FaultConfig::stuck_valid(100), 3);
        let batch = build_batch(vec![spec]);
        assert_eq!(batch.live_count(), 0);
        assert!(matches!(
            batch.lane_status(0),
            LaneStatus::Diverged { token: 0 }
        ));
    }

    #[test]
    fn bad_pattern_is_a_typed_error() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let err = BatchSoc::build(
            SocConfig::default(),
            &program,
            &table,
            &wl.gmem_init,
            vec![LaneSpec::new("no-such-channel", FaultConfig::drop(0.5), 1)],
        )
        .unwrap_err();
        assert!(matches!(err, FaultPatternError::NoMatch { .. }));
    }

    #[test]
    fn segmented_batch_checkpoint_restore_matches_uninterrupted() {
        // One firing lane (de-opts), one cold lane (rides the golden
        // run): the uninterrupted batch and the checkpoint-restored
        // batch must settle every lane identically.
        let specs = vec![
            LaneSpec::new(HOT_LINK, FaultConfig::drop(1.0), 5),
            LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 6),
        ];
        let mut base = build_batch(specs.clone());
        let base_rep = base.run(MAX_CYCLES, NO_PROGRESS);

        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let cfg = SocConfig::builder()
            .checkpoint_every(Some(300))
            .build()
            .expect("valid config");
        let mut seg =
            BatchSoc::build(cfg, &program, &table, &wl.gmem_init, specs).expect("patterns match");
        let seg_rep = seg.run(MAX_CYCLES, NO_PROGRESS);
        let snap = seg
            .last_checkpoint()
            .expect("auto checkpoint taken")
            .clone();
        assert!(snap.golden.session.is_some(), "mid-run capture");

        // Bytes round-trip, then restore and resume to completion.
        let snap = BatchSnapshot::from_bytes(&snap.to_bytes()).expect("parses");
        let mut back = BatchSoc::restore(&snap).expect("restores");
        let back_rep = back.resume();

        for (a, b, tag) in [
            (&base_rep, &seg_rep, "segmented"),
            (&base_rep, &back_rep, "restored"),
        ] {
            let (ga, gb) = (a.golden.as_ref().unwrap(), b.golden.as_ref().unwrap());
            assert_eq!(
                (ga.cycles, ga.ctrl, ga.completed),
                (gb.cycles, gb.ctrl, gb.completed),
                "{tag} golden result diverged"
            );
            assert_eq!(a.deopt_lanes, b.deopt_lanes, "{tag} de-opt count");
            for (la, lb) in a.lanes.iter().zip(&b.lanes) {
                assert_eq!(la.deopted, lb.deopted, "{tag} lane {}", la.lane);
                assert_eq!(la.diverged_at_token, lb.diverged_at_token);
                assert_eq!(la.report, lb.report, "{tag} lane {} report", la.lane);
                assert_eq!(la.fault_stats, lb.fault_stats);
            }
        }
        for (base_addr, expect) in &wl.expected {
            assert_eq!(
                back.gmem_read_lane(1, *base_addr, expect.len()).as_ref(),
                Some(expect),
                "cold lane memory diverged after restore"
            );
        }
    }

    #[test]
    fn tampered_batch_lane_state_is_a_typed_divergence() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let cfg = SocConfig::builder()
            .checkpoint_every(Some(300))
            .build()
            .expect("valid config");
        let specs = vec![LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 6)];
        let mut seg =
            BatchSoc::build(cfg, &program, &table, &wl.gmem_init, specs).expect("patterns match");
        let _ = seg.run(MAX_CYCLES, NO_PROGRESS);
        let mut snap = seg
            .last_checkpoint()
            .expect("auto checkpoint taken")
            .clone();
        snap.lane_stats[0].tokens += 1;
        match BatchSoc::restore(&snap) {
            Err(CheckpointError::ReplayDivergence { field, .. }) => {
                assert_eq!(field, "lane0.stats");
            }
            other => panic!("expected ReplayDivergence, got {other:?}"),
        }
    }

    #[test]
    fn gmem_reads_route_to_the_owning_simulation() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut batch = BatchSoc::build(
            SocConfig::default(),
            &program,
            &table,
            &wl.gmem_init,
            vec![LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 9)],
        )
        .expect("pattern matches");
        assert!(batch.gmem_read_lane(0, 0, 1).is_none(), "not run yet");
        let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
        assert!(rep.golden.as_ref().unwrap().completed);
        for (base, expect) in &wl.expected {
            assert_eq!(
                batch.gmem_read_lane(0, *base, expect.len()).as_ref(),
                Some(expect)
            );
        }
    }
}
