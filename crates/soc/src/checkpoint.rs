//! SoC-level snapshot types for deterministic checkpoint/restore.
//!
//! A [`SimSnapshot`] is a **replay recipe**, not a serialized object
//! graph: the full build inputs (config, program, staging and gmem
//! images), the ordered log of irregular events ([`FaultEvent`]s), a
//! progress target (kernel instants for sequential captures, hub
//! cycles for parallel ones), the open supervised-run session if any,
//! and verification digests. [`crate::Soc::restore`] rebuilds the SoC
//! from the recipe, re-executes deterministically to the target, and
//! proves the reconstruction against the digests — any mismatch is a
//! typed [`CheckpointError::ReplayDivergence`], never silent drift.
//!
//! Why replay instead of state dump: the simulation state spans
//! closures, `Rc` graphs, trait objects and seeded RNG streams. The
//! kernel is already pinned deterministic (every PR's equivalence
//! proptests), so the recipe + event log *is* the state, in its most
//! compact and most verifiable form. The cost is bounded restore CPU;
//! the benefit is that restore correctness is checked, not assumed.
//!
//! [`BatchSnapshot`] extends the scheme to batched lockstep campaigns:
//! the golden run's snapshot plus each lane's spec, divergence status
//! and shadow fault counters — shadow lanes re-derive their decision
//! streams from the seeds while the golden replay regenerates the
//! token stream they judge against.

use crate::batch::LaneSpec;
use crate::pe::Fidelity;
use crate::soc::{ClockingMode, RouterKind, SocConfig};
use craft_connections::{FaultConfig, FaultStats, LaneStatus};
use craft_sim::checkpoint::{
    frame_snapshot, load_snapshot_file, save_snapshot_file, unframe_snapshot, CheckpointError,
    Checkpointable, KernelDigest, StateReader, StateWriter, WatchdogState,
};
use craft_sim::Picoseconds;
use std::path::Path;

/// Frame kind tag of a [`SimSnapshot`] (sequential or parallel SoC).
pub const KIND_SOC: u8 = 1;
/// Frame kind tag of a [`BatchSnapshot`].
pub const KIND_BATCH: u8 = 2;

/// One irregular event in a run's deterministic replay log: a fault
/// injection armed between run segments. Recorded with both progress
/// coordinates so either replay scheme (instant-exact sequential,
/// cycle-boundary parallel) can re-apply it at the same point.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Channel-name pattern passed to [`crate::Soc::inject_fault`].
    pub pattern: String,
    /// Fault class and rates.
    pub cfg: FaultConfig,
    /// Campaign seed (per-channel salts derive from it).
    pub seed: u64,
    /// Kernel instant count when the injection was armed.
    pub at_instants: u64,
    /// Hub cycle count when the injection was armed.
    pub at_cycles: u64,
}

impl Checkpointable for FaultEvent {
    fn save(&self, w: &mut StateWriter) {
        w.put_str(&self.pattern);
        self.cfg.save(w);
        w.put_u64(self.seed);
        w.put_u64(self.at_instants);
        w.put_u64(self.at_cycles);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(FaultEvent {
            pattern: r.get_str()?,
            cfg: FaultConfig::load(r)?,
            seed: r.get_u64()?,
            at_instants: r.get_u64()?,
            at_cycles: r.get_u64()?,
        })
    }
}

/// An open supervised-run session (`run_checked` split into segments),
/// captured mid-flight so a restored SoC resumes the *same* run: the
/// remaining cycle budget, the watchdog limit and its accumulated
/// idle state, and the cycles already consumed (so the final
/// [`crate::RunResult::cycles`] equals the uninterrupted run's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionState {
    /// Hub-cycle budget left in the session.
    pub remaining: u64,
    /// Watchdog no-progress limit, in hub cycles.
    pub no_progress_limit: u64,
    /// Hub cycles consumed by the session so far.
    pub consumed: u64,
    /// Watchdog idle/last-cycle accumulators at the capture boundary.
    pub wd: WatchdogState,
    /// Parallel captures only: the aggregated progress bit of the
    /// seam instant, which the epoch protocol's one-instant watchdog
    /// lag leaves unconsumed at a segment boundary. `None` for
    /// sequential captures (their watchdog state is fully in `wd`).
    pub carried_progress: Option<bool>,
}

impl Checkpointable for SessionState {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.remaining);
        w.put_u64(self.no_progress_limit);
        w.put_u64(self.consumed);
        self.wd.save(w);
        w.put_u8(match self.carried_progress {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(SessionState {
            remaining: r.get_u64()?,
            no_progress_limit: r.get_u64()?,
            consumed: r.get_u64()?,
            wd: WatchdogState::load(r)?,
            carried_progress: match r.get_u8()? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                t => {
                    return Err(CheckpointError::Malformed(format!(
                        "carried-progress tag {t}"
                    )))
                }
            },
        })
    }
}

/// Architectural digest — the portable half of snapshot verification.
/// Hashes the observable run state ([`crate::SocReport`] JSON, the
/// controller status, the full gmem image) at the capture boundary.
/// Portable across execution shapes: the parallel facade's merged
/// report is pinned identical to the sequential one, so a parallel
/// capture verifies against a sequential replay and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchDigest {
    /// Hub cycles at capture.
    pub hub_cycles: u64,
    /// FNV-1a of `SocReport::to_json()`.
    pub report_fnv: u64,
    /// FNV-1a of the controller status `Debug` rendering.
    pub ctrl_fnv: u64,
    /// FNV-1a of the full gmem word image (little-endian).
    pub gmem_fnv: u64,
}

impl ArchDigest {
    /// Compares against a freshly computed digest, naming the first
    /// field that disagrees.
    pub fn verify(&self, got: &ArchDigest) -> Result<(), CheckpointError> {
        let diverged = |field: &str, expected: u64, found: u64| CheckpointError::ReplayDivergence {
            field: field.to_string(),
            expected,
            found,
        };
        if self.hub_cycles != got.hub_cycles {
            return Err(diverged("arch.hub_cycles", self.hub_cycles, got.hub_cycles));
        }
        if self.ctrl_fnv != got.ctrl_fnv {
            return Err(diverged("arch.ctrl_fnv", self.ctrl_fnv, got.ctrl_fnv));
        }
        if self.gmem_fnv != got.gmem_fnv {
            return Err(diverged("arch.gmem_fnv", self.gmem_fnv, got.gmem_fnv));
        }
        if self.report_fnv != got.report_fnv {
            return Err(diverged("arch.report_fnv", self.report_fnv, got.report_fnv));
        }
        Ok(())
    }
}

impl Checkpointable for ArchDigest {
    fn save(&self, w: &mut StateWriter) {
        w.put_u64(self.hub_cycles);
        w.put_u64(self.report_fnv);
        w.put_u64(self.ctrl_fnv);
        w.put_u64(self.gmem_fnv);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(ArchDigest {
            hub_cycles: r.get_u64()?,
            report_fnv: r.get_u64()?,
            ctrl_fnv: r.get_u64()?,
            gmem_fnv: r.get_u64()?,
        })
    }
}

/// A versioned, self-verifying snapshot of one SoC simulation — see
/// the [module docs](self) for the replay-recipe model. Produced by
/// [`crate::Soc::checkpoint`] (instant-exact, with a [`KernelDigest`])
/// and [`crate::ParallelSoc::checkpoint`] (epoch-boundary, cycle
/// target only); consumed by the matching `restore`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Build configuration.
    pub cfg: SocConfig,
    /// Controller program image.
    pub program: Vec<u32>,
    /// Staging memory init image.
    pub staging: Vec<u32>,
    /// Global-memory init regions `(base, words)`.
    pub gmem_init: Vec<(usize, Vec<u64>)>,
    /// Ordered fault-injection replay log.
    pub faults: Vec<FaultEvent>,
    /// Replay target as an exact kernel instant count — `Some` for
    /// sequential captures (any boundary), `None` for parallel
    /// captures, which replay to [`SimSnapshot::hub_cycles`] instead
    /// (parallel captures only happen at run/segment boundaries, which
    /// are cycle-reachable).
    pub instants: Option<u64>,
    /// Hub cycles at capture.
    pub hub_cycles: u64,
    /// Whether the kernel progress token was set at capture (restored
    /// verbatim; it only feeds the watchdog, never behavior).
    pub progress_set: bool,
    /// Open supervised-run session, if the capture was mid-run.
    pub session: Option<SessionState>,
    /// Kernel-exact digest (sequential captures only).
    pub kernel: Option<KernelDigest>,
    /// Portable architectural digest (always present).
    pub arch: ArchDigest,
}

fn save_cfg(cfg: &SocConfig, w: &mut StateWriter) {
    w.put_u8(match cfg.fidelity {
        Fidelity::SimAccurate => 0,
        Fidelity::Rtl => 1,
        Fidelity::RtlCompiled => 2,
    });
    match cfg.clocking {
        ClockingMode::Synchronous => w.put_u8(0),
        ClockingMode::Gals { spread_ppm } => {
            w.put_u8(1);
            w.put_u32(spread_ppm);
        }
        ClockingMode::GalsAdaptive { noise_seed } => {
            w.put_u8(2);
            w.put_u64(noise_seed);
        }
    }
    w.put_u64(cfg.period.as_ps());
    w.put_u64(cfg.lanes as u64);
    w.put_u64(cfg.gmem_words as u64);
    w.put_u64(cfg.staging_words as u64);
    w.put_u64(cfg.link_depth as u64);
    w.put_u8(match cfg.router {
        RouterKind::Wormhole => 0,
        RouterKind::StoreForward => 1,
    });
    w.put_bool(cfg.gating);
    w.put_opt_u64(cfg.pe_timeout);
    w.put_opt_u64(cfg.checkpoint_every);
}

fn load_cfg(r: &mut StateReader<'_>) -> Result<SocConfig, CheckpointError> {
    let fidelity = match r.get_u8()? {
        0 => Fidelity::SimAccurate,
        1 => Fidelity::Rtl,
        2 => Fidelity::RtlCompiled,
        t => return Err(CheckpointError::Malformed(format!("fidelity tag {t}"))),
    };
    let clocking = match r.get_u8()? {
        0 => ClockingMode::Synchronous,
        1 => ClockingMode::Gals {
            spread_ppm: r.get_u32()?,
        },
        2 => ClockingMode::GalsAdaptive {
            noise_seed: r.get_u64()?,
        },
        t => return Err(CheckpointError::Malformed(format!("clocking tag {t}"))),
    };
    let period = Picoseconds::new(r.get_u64()?);
    let lanes = r.get_u64()? as usize;
    let gmem_words = r.get_u64()? as usize;
    let staging_words = r.get_u64()? as usize;
    let link_depth = r.get_u64()? as usize;
    let router = match r.get_u8()? {
        0 => RouterKind::Wormhole,
        1 => RouterKind::StoreForward,
        t => return Err(CheckpointError::Malformed(format!("router tag {t}"))),
    };
    let cfg = SocConfig {
        fidelity,
        clocking,
        period,
        lanes,
        gmem_words,
        staging_words,
        link_depth,
        router,
        gating: r.get_bool()?,
        pe_timeout: r.get_opt_u64()?,
        checkpoint_every: r.get_opt_u64()?,
    };
    cfg.validate()
        .map_err(|e| CheckpointError::Malformed(format!("invalid config: {e}")))?;
    Ok(cfg)
}

impl Checkpointable for SimSnapshot {
    fn save(&self, w: &mut StateWriter) {
        save_cfg(&self.cfg, w);
        w.put_u32s(&self.program);
        w.put_u32s(&self.staging);
        w.put_u64(self.gmem_init.len() as u64);
        for (base, words) in &self.gmem_init {
            w.put_u64(*base as u64);
            w.put_u64s(words);
        }
        w.put_u64(self.faults.len() as u64);
        for ev in &self.faults {
            ev.save(w);
        }
        w.put_opt_u64(self.instants);
        w.put_u64(self.hub_cycles);
        w.put_bool(self.progress_set);
        match &self.session {
            Some(s) => {
                w.put_bool(true);
                s.save(w);
            }
            None => w.put_bool(false),
        }
        match &self.kernel {
            Some(k) => {
                w.put_bool(true);
                k.save(w);
            }
            None => w.put_bool(false),
        }
        self.arch.save(w);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let cfg = load_cfg(r)?;
        let program = r.get_u32s()?;
        let staging = r.get_u32s()?;
        let n = r.get_len()?;
        let mut gmem_init = Vec::with_capacity(n);
        for _ in 0..n {
            let base = r.get_u64()? as usize;
            gmem_init.push((base, r.get_u64s()?));
        }
        let n = r.get_len()?;
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            faults.push(FaultEvent::load(r)?);
        }
        Ok(SimSnapshot {
            cfg,
            program,
            staging,
            gmem_init,
            faults,
            instants: r.get_opt_u64()?,
            hub_cycles: r.get_u64()?,
            progress_set: r.get_bool()?,
            session: if r.get_bool()? {
                Some(SessionState::load(r)?)
            } else {
                None
            },
            kernel: if r.get_bool()? {
                Some(KernelDigest::load(r)?)
            } else {
                None
            },
            arch: ArchDigest::load(r)?,
        })
    }
}

/// Decodes one payload, requiring it to be consumed exactly.
fn decode_exact<T: Checkpointable>(payload: &[u8]) -> Result<T, CheckpointError> {
    let mut r = StateReader::new(payload);
    let v = T::load(&mut r)?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} unread bytes after payload",
            r.remaining()
        )));
    }
    Ok(v)
}

impl SimSnapshot {
    /// Serializes to a standalone framed byte stream (magic, version,
    /// kind, length, payload, checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.save(&mut w);
        frame_snapshot(KIND_SOC, &w.into_bytes())
    }

    /// Parses a framed byte stream, rejecting truncation, corruption,
    /// version and kind mismatches with a typed error.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, CheckpointError> {
        decode_exact(unframe_snapshot(bytes, KIND_SOC)?)
    }

    /// Writes the framed snapshot to `path` atomically (tmp + rename).
    /// Returns the file size in bytes.
    pub fn write_to(&self, path: &Path) -> Result<u64, CheckpointError> {
        let mut w = StateWriter::new();
        self.save(&mut w);
        save_snapshot_file(path, KIND_SOC, &w.into_bytes())
    }

    /// Reads and validates a framed snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<SimSnapshot, CheckpointError> {
        decode_exact(&load_snapshot_file(path, KIND_SOC)?)
    }
}

/// Snapshot of a batched lockstep campaign mid-golden-run: the golden
/// [`SimSnapshot`] (carrying the open session), every lane's spec, and
/// each lane's divergence status and shadow fault counters at the
/// capture boundary. Restore rebuilds the banks with the same seeds,
/// replays the golden run (shadow decisions re-derive along the
/// regenerated token stream), and verifies every lane's status and
/// stats against the recorded ones.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSnapshot {
    /// The golden run's snapshot (session included).
    pub golden: SimSnapshot,
    /// Lane fault scenarios, in lane order.
    pub specs: Vec<LaneSpec>,
    /// Per-lane divergence status at capture.
    pub lane_status: Vec<LaneStatus>,
    /// Per-lane shadow fault counters at capture.
    pub lane_stats: Vec<FaultStats>,
}

impl Checkpointable for LaneSpec {
    fn save(&self, w: &mut StateWriter) {
        w.put_str(&self.pattern);
        self.cfg.save(w);
        w.put_u64(self.seed);
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        Ok(LaneSpec {
            pattern: r.get_str()?,
            cfg: FaultConfig::load(r)?,
            seed: r.get_u64()?,
        })
    }
}

impl Checkpointable for BatchSnapshot {
    fn save(&self, w: &mut StateWriter) {
        self.golden.save(w);
        w.put_u64(self.specs.len() as u64);
        for s in &self.specs {
            s.save(w);
        }
        w.put_u64(self.lane_status.len() as u64);
        for s in &self.lane_status {
            s.save(w);
        }
        w.put_u64(self.lane_stats.len() as u64);
        for s in &self.lane_stats {
            s.save(w);
        }
    }

    fn load(r: &mut StateReader<'_>) -> Result<Self, CheckpointError> {
        let golden = SimSnapshot::load(r)?;
        let n = r.get_len()?;
        let mut specs = Vec::with_capacity(n);
        for _ in 0..n {
            specs.push(LaneSpec::load(r)?);
        }
        let n = r.get_len()?;
        let mut lane_status = Vec::with_capacity(n);
        for _ in 0..n {
            lane_status.push(LaneStatus::load(r)?);
        }
        let n = r.get_len()?;
        let mut lane_stats = Vec::with_capacity(n);
        for _ in 0..n {
            lane_stats.push(FaultStats::load(r)?);
        }
        if specs.len() != lane_status.len() || specs.len() != lane_stats.len() {
            return Err(CheckpointError::Malformed(format!(
                "lane table lengths disagree: {} specs, {} statuses, {} stats",
                specs.len(),
                lane_status.len(),
                lane_stats.len()
            )));
        }
        Ok(BatchSnapshot {
            golden,
            specs,
            lane_status,
            lane_stats,
        })
    }
}

impl BatchSnapshot {
    /// Serializes to a standalone framed byte stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.save(&mut w);
        frame_snapshot(KIND_BATCH, &w.into_bytes())
    }

    /// Parses a framed byte stream with typed rejection.
    pub fn from_bytes(bytes: &[u8]) -> Result<BatchSnapshot, CheckpointError> {
        decode_exact(unframe_snapshot(bytes, KIND_BATCH)?)
    }

    /// Writes the framed snapshot to `path` atomically. Returns the
    /// file size in bytes.
    pub fn write_to(&self, path: &Path) -> Result<u64, CheckpointError> {
        let mut w = StateWriter::new();
        self.save(&mut w);
        save_snapshot_file(path, KIND_BATCH, &w.into_bytes())
    }

    /// Reads and validates a framed snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<BatchSnapshot, CheckpointError> {
        decode_exact(&load_snapshot_file(path, KIND_BATCH)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soc::Soc;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};

    fn mid_run_snapshot(cfg: SocConfig) -> (SimSnapshot, Soc) {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut soc = Soc::build(cfg, &program, &table, &wl.gmem_init);
        soc.begin_checked(4_000_000, 100_000);
        // A segment short enough to stop mid-run (vec_mul halts ~800).
        let done = soc.advance_checked(300).expect("segment runs clean");
        assert!(done.is_none(), "workload must not finish in 300 cycles");
        (soc.checkpoint(), soc)
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let (snap, _soc) = mid_run_snapshot(SocConfig::default());
        let bytes = snap.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).expect("parses");
        assert_eq!(back, snap);
        // Every single-byte corruption in the payload is caught.
        let mut bad = bytes.clone();
        bad[40] ^= 0x10;
        assert!(matches!(
            SimSnapshot::from_bytes(&bad),
            Err(CheckpointError::Corrupted { .. })
        ));
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes[..bytes.len() / 2]),
            Err(CheckpointError::Truncated { .. })
        ));
        assert!(matches!(
            BatchSnapshot::from_bytes(&bytes),
            Err(CheckpointError::WrongKind {
                found: KIND_SOC,
                expected: KIND_BATCH
            })
        ));
    }

    #[test]
    fn restore_then_run_equals_uninterrupted() {
        let (snap, mut original) = mid_run_snapshot(SocConfig::default());
        let mut restored = Soc::restore(&snap).expect("replay verifies");
        let a = original.resume_checked().expect("original finishes");
        let b = restored.resume_checked().expect("restored finishes");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ctrl, b.ctrl);
        assert_eq!(a.completed, b.completed);
        assert_eq!(
            original.report().to_json(),
            restored.report().to_json(),
            "reports must match"
        );
        assert_eq!(
            original.gmem_read(0, 4096),
            restored.gmem_read(0, 4096),
            "gmem must match"
        );
    }

    #[test]
    fn restore_with_faults_reproduces_stats() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let cfg = SocConfig::default();
        let mut soc = Soc::build(cfg, &program, &table, &wl.gmem_init);
        soc.inject_fault("l11p3->15", FaultConfig::bit_flip(0.01), 7)
            .expect("pattern matches");
        soc.begin_checked(4_000_000, 100_000);
        let done = soc.advance_checked(400).expect("runs");
        assert!(done.is_none());
        let snap = soc.checkpoint();
        assert_eq!(snap.faults.len(), 1);
        let mut restored = Soc::restore(&snap).expect("replay verifies");
        let a = soc.resume_checked().expect("finishes");
        let b = restored.resume_checked().expect("finishes");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(
            soc.fault_stats("l11p3->15").unwrap(),
            restored.fault_stats("l11p3->15").unwrap(),
            "fault decision streams must replay bit-identically"
        );
    }

    #[test]
    fn tampered_snapshot_diverges_with_typed_error() {
        let (mut snap, _soc) = mid_run_snapshot(SocConfig::default());
        // Claim one more instant than the capture really had: replay
        // reaches the extra instant but the digests disagree.
        if let Some(k) = &mut snap.kernel {
            k.instants += 1;
            snap.instants = Some(k.instants);
        }
        match Soc::restore(&snap) {
            Err(CheckpointError::ReplayDivergence { .. }) => {}
            Err(other) => panic!("expected ReplayDivergence, got {other:?}"),
            Ok(_) => panic!("expected ReplayDivergence, restore succeeded"),
        }
    }
}
