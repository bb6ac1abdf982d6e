//! Top-level prototype-SoC assembly (Fig. 5): 15 PEs and a hub on a
//! 4x4 wormhole-routed mesh, a RISC-V controller on a MatchLib AXI
//! bus (staging memory + hub slave), and either fully synchronous or
//! fine-grained GALS clocking with pausible bisynchronous FIFOs on
//! every router-to-router link.

use crate::checkpoint::{ArchDigest, FaultEvent, SessionState, SimSnapshot};
use crate::controller::{Controller, CtrlHandle, CtrlStatus};
use crate::engine::SegmentStatus;
use crate::hub::{Hub, HubAxiSlave, HubHandle, HubState, CTRL_PAGE};
use crate::msg::{HUB_NODE, MESH_WIDTH, N_NODES};
use crate::pe::{Fidelity, PeConfig, ProcessingElement};
use crate::rtlplan::{PlanCache, PlanCacheHandle, PlanStats, SignalPlan};
use craft_connections::{
    channel, ChannelHandle, ChannelKind, FaultConfig, FaultStats, In, MailboxHub, Out,
};
use craft_gals::pausible_fifo;
use craft_matchlib::axi::{
    axi_link, AddrRange, AxiBus, AxiMaster, AxiMasterHandle, AxiMemorySlave,
};
use craft_matchlib::router::{port, xy_route, NocFlit, SfRouter, WhvcConfig, WhvcRouter};
use craft_riscv::FlatMemory;
use craft_sim::checkpoint::{fnv64, CheckpointError, StateWriter};
use craft_sim::{
    run_parallel, ActivityToken, ClockId, ClockSpec, EpochOutcome, EpochVerdict, EpochWorker,
    Picoseconds, SimError, Simulator, Telemetry, TelemetrySnapshot, WatchdogState,
};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// AXI word-address base of the staging memory slave.
pub const STAGING_AXI_BASE: u64 = 0;
/// AXI word-address base of the hub slave (gmem + control page).
pub const HUB_AXI_BASE: u64 = 0x0020_0000;

/// CPU byte address of the staging memory window.
pub const STAGING_CPU_BASE: u32 = crate::controller::AXI_WINDOW_BASE;
/// CPU byte address of global memory through the hub slave.
pub const GMEM_CPU_BASE: u32 = crate::controller::AXI_WINDOW_BASE + (HUB_AXI_BASE as u32) * 4;
/// CPU byte address of the hub control page.
pub const CTRL_CPU_BASE: u32 = GMEM_CPU_BASE + (CTRL_PAGE as u32) * 4;

/// NoC router microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Wormhole with virtual channels (the paper's WHVCRouter).
    Wormhole,
    /// Store-and-forward baseline (whole packet buffered per hop).
    StoreForward,
}

/// Clocking scheme for the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockingMode {
    /// One global clock; router links are plain buffered channels.
    Synchronous,
    /// Fine-grained GALS: each mesh node owns a local clock domain
    /// (periods spread by up to `spread_ppm` parts-per-million around
    /// nominal) and every router-to-router link crosses domains
    /// through a pausible bisynchronous FIFO.
    Gals {
        /// Maximum deviation from the nominal period, in ppm.
        spread_ppm: u32,
    },
    /// GALS with supply-noise-adaptive local clock generators on every
    /// PE node (paper §3.1 cite \[7\]): each node's ring oscillator
    /// stretches its period as its local supply droops. Timing varies
    /// cycle to cycle; function is preserved by the LI design.
    GalsAdaptive {
        /// Supply-noise seed (deterministic per seed).
        noise_seed: u64,
    },
}

/// SoC build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocConfig {
    /// Datapath/simulation fidelity (the Fig. 6 axis).
    pub fidelity: Fidelity,
    /// Clocking scheme.
    pub clocking: ClockingMode,
    /// Nominal clock period.
    pub period: Picoseconds,
    /// PE vector lanes.
    pub lanes: usize,
    /// Global memory words (must fit the 12-bit command fields).
    pub gmem_words: usize,
    /// Staging (controller table) memory words.
    pub staging_words: usize,
    /// Router link channel depth.
    pub link_depth: usize,
    /// NoC router microarchitecture.
    pub router: RouterKind,
    /// Quiescence gating: skip idle PEs/routers/hub and elide no-op
    /// channel commits. Results and cycle counts are bit-identical
    /// either way (asserted by the `gating_tests`); only wall clock
    /// and the kernel's ticks-delivered accounting change.
    pub gating: bool,
    /// Hub-side PE failure detection: cycles a dispatched command may
    /// stay unacknowledged before its PE is declared failed and the
    /// command is remapped to a healthy PE (graceful degradation).
    /// `None` (the default) disables detection; set it well above the
    /// worst-case command latency to avoid false positives.
    pub pe_timeout: Option<u64>,
    /// Periodic auto-checkpoint interval for supervised runs, in hub
    /// cycles: `Some(k)` makes [`Soc::run_checked`] (and the parallel
    /// facade's equivalent) capture a [`crate::SimSnapshot`] every `k`
    /// cycles, retrievable via [`Soc::last_checkpoint`]. Captures are
    /// observation-only — results, cycle counts, reports and the
    /// watchdog's trip point are bit-identical with or without them
    /// (the segmented-run equivalence the checkpoint proptests pin).
    /// `None` (the default) disables auto-capture.
    pub checkpoint_every: Option<u64>,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            fidelity: Fidelity::SimAccurate,
            clocking: ClockingMode::Synchronous,
            period: Picoseconds::new(909), // 1.1 GHz signoff clock
            lanes: 4,
            gmem_words: 4096,
            staging_words: 4096,
            link_depth: 4,
            router: RouterKind::Wormhole,
            gating: true,
            pe_timeout: None,
            checkpoint_every: None,
        }
    }
}

/// Why a [`SocConfig`] failed validation (see [`SocConfig::builder`]).
///
/// Every variant names the offending field and, where meaningful, the
/// limit — these render as actionable messages instead of the free-text
/// asserts the build path used before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `gmem_words` exceeds the 12-bit `PeCommand` address fields.
    GmemTooLarge {
        /// Requested global-memory size in words.
        words: usize,
        /// Largest size the command encoding can address.
        max: usize,
    },
    /// Zero vector lanes: the datapath could never retire a work unit.
    ZeroLanes,
    /// Zero-depth router links cannot carry flits.
    ZeroLinkDepth,
    /// A zero clock period is not schedulable.
    ZeroPeriod,
    /// A zero auto-checkpoint interval would capture every cycle
    /// forever; use `None` to disable auto-capture instead.
    ZeroCheckpointInterval,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::GmemTooLarge { words, max } => write!(
                f,
                "gmem_words = {words} exceeds the {max}-word 12-bit PeCommand address space"
            ),
            ConfigError::ZeroLanes => write!(f, "lanes must be at least 1"),
            ConfigError::ZeroLinkDepth => write!(f, "link_depth must be at least 1"),
            ConfigError::ZeroPeriod => write!(f, "period must be non-zero"),
            ConfigError::ZeroCheckpointInterval => {
                write!(f, "checkpoint_every must be at least 1 cycle (or None)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl SocConfig {
    /// Starts a chained builder seeded with [`SocConfig::default`].
    /// Unlike struct-literal construction, [`SocConfigBuilder::build`]
    /// validates and returns a typed [`ConfigError`] instead of letting
    /// a bad value panic deep inside [`Soc::build`].
    pub fn builder() -> SocConfigBuilder {
        SocConfigBuilder {
            cfg: SocConfig::default(),
        }
    }

    /// Checks this configuration against the invariants [`Soc::build`]
    /// relies on. Builder-produced configs are always valid; literal
    /// ones can use this before committing to a build.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.gmem_words > 4096 {
            return Err(ConfigError::GmemTooLarge {
                words: self.gmem_words,
                max: 4096,
            });
        }
        if self.lanes == 0 {
            return Err(ConfigError::ZeroLanes);
        }
        if self.link_depth == 0 {
            return Err(ConfigError::ZeroLinkDepth);
        }
        if self.period.as_ps() == 0 {
            return Err(ConfigError::ZeroPeriod);
        }
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointInterval);
        }
        Ok(())
    }
}

/// Chained builder for [`SocConfig`] with validated construction.
///
/// ```
/// use craft_soc::soc::SocConfig;
/// let cfg = SocConfig::builder().lanes(8).gmem_words(2048).build().unwrap();
/// assert_eq!(cfg.lanes, 8);
/// assert!(SocConfig::builder().lanes(0).build().is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SocConfigBuilder {
    cfg: SocConfig,
}

impl SocConfigBuilder {
    /// Sets the datapath/simulation fidelity.
    pub fn fidelity(mut self, v: Fidelity) -> Self {
        self.cfg.fidelity = v;
        self
    }

    /// Sets the clocking scheme.
    pub fn clocking(mut self, v: ClockingMode) -> Self {
        self.cfg.clocking = v;
        self
    }

    /// Sets the nominal clock period.
    pub fn period(mut self, v: Picoseconds) -> Self {
        self.cfg.period = v;
        self
    }

    /// Sets the PE vector lane count.
    pub fn lanes(mut self, v: usize) -> Self {
        self.cfg.lanes = v;
        self
    }

    /// Sets the global-memory size in words.
    pub fn gmem_words(mut self, v: usize) -> Self {
        self.cfg.gmem_words = v;
        self
    }

    /// Sets the staging (controller table) memory size in words.
    pub fn staging_words(mut self, v: usize) -> Self {
        self.cfg.staging_words = v;
        self
    }

    /// Sets the router link channel depth.
    pub fn link_depth(mut self, v: usize) -> Self {
        self.cfg.link_depth = v;
        self
    }

    /// Sets the NoC router microarchitecture.
    pub fn router(mut self, v: RouterKind) -> Self {
        self.cfg.router = v;
        self
    }

    /// Enables or disables quiescence gating.
    pub fn gating(mut self, v: bool) -> Self {
        self.cfg.gating = v;
        self
    }

    /// Arms hub-side PE failure detection with the given timeout.
    pub fn pe_timeout(mut self, v: Option<u64>) -> Self {
        self.cfg.pe_timeout = v;
        self
    }

    /// Sets the periodic auto-checkpoint interval for supervised runs.
    pub fn checkpoint_every(mut self, v: Option<u64>) -> Self {
        self.cfg.checkpoint_every = v;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SocConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A fault-injection pattern that matched no NoC channel — almost
/// always a typo in the channel name, which the old `usize` return let
/// campaigns silently ignore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPatternError {
    /// No NoC channel name contains the pattern.
    NoMatch {
        /// The pattern as given.
        pattern: String,
    },
}

impl fmt::Display for FaultPatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPatternError::NoMatch { pattern } => {
                write!(f, "fault pattern {pattern:?} matched no NoC channel")
            }
        }
    }
}

impl std::error::Error for FaultPatternError {}

/// Derives the per-channel fault-injector seed from a campaign seed
/// and the channel's registry index. One definition shared by
/// [`Soc::inject_fault`] and the batched lockstep backend's shadow
/// banks ([`crate::batch`]) — the two decision streams must be
/// bit-identical for lane convergence to mean anything.
pub(crate) fn lane_fault_seed(seed: u64, registry_index: usize) -> u64 {
    seed ^ (registry_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Result of one SoC run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles elapsed on the hub clock until the controller halted.
    pub cycles: u64,
    /// Wall-clock simulation time.
    pub wall: Duration,
    /// Controller status snapshot.
    pub ctrl: CtrlStatus,
    /// Whether the controller actually halted (false = timeout).
    pub completed: bool,
}

/// Hub-side view of one run: command flow and memory/NoC traffic as
/// the hub observed them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubReport {
    /// Commands dispatched to PEs (the old `hub_counters().0`).
    pub dispatched: u64,
    /// Commands acknowledged as done (the old `hub_counters().1`).
    pub retired: u64,
    /// Commands remapped away from failed PEs (graceful degradation).
    pub remapped: u64,
    /// PE nodes declared failed by the timeout detector.
    pub failed_pes: Vec<u16>,
    /// Global-memory read/write operations served.
    pub gmem_ops: u64,
    /// NoC flits that crossed the hub's local port.
    pub noc_flits: u64,
    /// Memory-service jobs completed (the latency histogram's total).
    pub jobs: u64,
    /// Median service latency upper bound, in hub cycles.
    pub latency_p50: u64,
    /// 99th-percentile service latency upper bound, in hub cycles.
    pub latency_p99: u64,
}

/// Per-PE execution statistics, tagged with the mesh node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeReport {
    /// Mesh node index of this PE.
    pub node: u16,
    /// Commands completed.
    pub commands: u64,
    /// Cycles spent not idle.
    pub busy_cycles: u64,
    /// Datapath work units executed.
    pub work_units: u64,
    /// Gate equivalents charged to the RTL cost ledger.
    pub gates_charged: u64,
}

/// NoC transport statistics aggregated over every flit channel (mesh
/// links, GALS crossings and endpoint ports; stubs excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocReport {
    /// Flit channels in the registry.
    pub channels: usize,
    /// Successful flit transfers (counted at pop).
    pub transfers: u64,
    /// Failed pushes (producer saw backpressure).
    pub backpressure: u64,
    /// Failed pops (consumer found the channel empty or stalled).
    pub pop_empty: u64,
    /// Cycles spent under an injected stall.
    pub stall_cycles: u64,
}

/// Fault-injection summary across the NoC channel registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Channels with an injector armed.
    pub armed_channels: usize,
    /// Aggregated injector counters over all armed channels.
    pub stats: FaultStats,
}

/// Typed report of everything observable about a SoC run — the one
/// structured answer that replaced the old grab-bag of tuple-returning
/// accessors (`hub_counters()`, `degradation()`, ... — removed; see
/// [`Soc::report`] for the compile-fail pins).
///
/// The shapes are plain nested data (serde-ready); [`SocReport::to_json`]
/// renders them without a serde dependency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SocReport {
    /// Hub command flow and traffic counters.
    pub hub: HubReport,
    /// Per-PE execution statistics, one entry per PE node.
    pub pes: Vec<PeReport>,
    /// Aggregated NoC channel statistics.
    pub noc: NocReport,
    /// Fault-injection summary (zeroed when no injector is armed).
    pub faults: FaultReport,
    /// Compile-plan lowering statistics ([`Fidelity::RtlCompiled`] only).
    pub plan: Option<PlanStats>,
    /// Total gate equivalents charged across PEs, hub and routers.
    pub charged_gates: u64,
    /// Total PE datapath work units executed.
    pub total_work_units: u64,
}

impl SocReport {
    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n");
        let h = &self.hub;
        let _ = writeln!(
            s,
            "  \"hub\": {{\"dispatched\": {}, \"retired\": {}, \"remapped\": {}, \
             \"failed_pes\": [{}], \"gmem_ops\": {}, \"noc_flits\": {}, \"jobs\": {}, \
             \"latency_p50\": {}, \"latency_p99\": {}}},",
            h.dispatched,
            h.retired,
            h.remapped,
            h.failed_pes
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            h.gmem_ops,
            h.noc_flits,
            h.jobs,
            h.latency_p50,
            h.latency_p99
        );
        s.push_str("  \"pes\": [\n");
        for (i, p) in self.pes.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"node\": {}, \"commands\": {}, \"busy_cycles\": {}, \
                 \"work_units\": {}, \"gates_charged\": {}}}{}",
                p.node,
                p.commands,
                p.busy_cycles,
                p.work_units,
                p.gates_charged,
                if i + 1 == self.pes.len() { "" } else { "," }
            );
        }
        s.push_str("  ],\n");
        let n = &self.noc;
        let _ = writeln!(
            s,
            "  \"noc\": {{\"channels\": {}, \"transfers\": {}, \"backpressure\": {}, \
             \"pop_empty\": {}, \"stall_cycles\": {}}},",
            n.channels, n.transfers, n.backpressure, n.pop_empty, n.stall_cycles
        );
        let f = &self.faults;
        let _ = writeln!(
            s,
            "  \"faults\": {{\"armed_channels\": {}, \"tokens\": {}, \"flips\": {}, \
             \"drops\": {}, \"dups\": {}}},",
            f.armed_channels, f.stats.tokens, f.stats.flips, f.stats.drops, f.stats.dups
        );
        match &self.plan {
            Some(p) => {
                let _ = writeln!(
                    s,
                    "  \"plan\": {{\"ops_lowered\": {}, \"cache_hits\": {}, \
                     \"word_steps\": {}, \"max_levels\": {}, \"signal_plans\": {}, \
                     \"signal_word_ops\": {}}},",
                    p.ops_lowered,
                    p.cache_hits,
                    p.word_steps,
                    p.max_levels,
                    p.signal_plans,
                    p.signal_word_ops
                );
            }
            None => s.push_str("  \"plan\": null,\n"),
        }
        let _ = write!(
            s,
            "  \"charged_gates\": {},\n  \"total_work_units\": {}\n}}\n",
            self.charged_gates, self.total_work_units
        );
        s
    }
}

/// RTL-mode per-router signal-evaluation load (no architectural
/// effect; wall-clock fidelity only). In compiled RTL mode the per
/// cycle walk runs through a [`SignalPlan`] instead of the interpreted
/// [`crate::bitrtl::RtlCost::step`]; either way the same gate count is
/// charged to the ledger, mirrored out through `charged` so the SoC
/// can audit the totals after the run.
struct RouterActivity {
    name: String,
    cost: crate::bitrtl::RtlCost,
    gates: u64,
    plan: Option<SignalPlan>,
    charged: Rc<Cell<u64>>,
}

impl craft_sim::Component for RouterActivity {
    fn name(&self) -> &str {
        &self.name
    }
    fn tick(&mut self, _ctx: &mut craft_sim::TickCtx<'_>) {
        match &mut self.plan {
            Some(plan) => plan.burn(&mut self.cost),
            None => self.cost.step(self.gates),
        }
        self.charged.set(self.cost.charged());
    }
}

/// How one NoC channel of the full registry relates to the shard a
/// worker owns. Sequential builds mark every channel [`Local`]; sharded
/// builds (see [`crate::parallel::ParallelSoc`]) split channels whose
/// producer and consumer land in different workers and keep the rest
/// either local or inert. Every worker creates the *entire* registry in
/// identical order so fault-injection seeds (derived from the registry
/// index) and name matching agree bit-for-bit with the sequential SoC.
///
/// [`Local`]: ChannelRole::Local
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelRole {
    /// Producer and consumer both live in this worker: the channel is
    /// registered (gated) exactly as in the sequential build.
    Local,
    /// Only the producer lives here: transmit half of a split channel,
    /// registered ungated so occupancy/acks settle every cycle.
    TxHalf,
    /// Only the consumer lives here: receive half of a split channel.
    RxHalf,
    /// Neither endpoint lives here: created for registry parity, never
    /// registered with the kernel, carries no traffic.
    Inert,
}

/// Everything [`Soc::build_sharded`] needs to assemble one worker's
/// shard of the SoC: which worker this is, the node→worker ownership
/// map, the cross-worker mailbox registry, and the shared compile-plan
/// cache (so shards hit one cache instead of recompiling per shard).
pub(crate) struct ShardSpec {
    /// This worker's shard index.
    pub shard: usize,
    /// Owning shard of each mesh node (length [`N_NODES`]).
    pub owner: Vec<usize>,
    /// Mailbox registry pairing split-channel halves across workers.
    pub mailboxes: MailboxHub<NocFlit>,
    /// Shared compile-plan cache ([`Fidelity::RtlCompiled`] only).
    pub plan_cache: Option<PlanCacheHandle>,
}

/// An open supervised run, segmentable around checkpoint captures:
/// [`Soc::run_checked`] is `begin_checked` + `resume_checked`, and a
/// restored SoC picks the session up mid-budget with the watchdog
/// accumulators carried across the seam.
pub(crate) struct CheckedSession {
    /// Hub-cycle budget left.
    pub remaining: u64,
    /// Watchdog no-progress limit.
    pub no_progress_limit: u64,
    /// Hub cycles consumed so far (becomes [`RunResult::cycles`]).
    pub consumed: u64,
    /// Watchdog accumulators, persisted across segments.
    pub wd: WatchdogState,
}

/// A built prototype SoC ready to run.
pub struct Soc {
    sim: Simulator,
    hub_clock: ClockId,
    hub: HubHandle,
    ctrl: CtrlHandle,
    pe_stats: Vec<(u16, Rc<RefCell<crate::pe::PeStats>>)>,
    coverage: craft_sim::cover::Coverage,
    plan_cache: Option<PlanCacheHandle>,
    router_charged: Vec<Rc<Cell<u64>>>,
    noc_channels: Vec<(String, ChannelHandle<NocFlit>)>,
    noc_roles: Vec<ChannelRole>,
    owned_clocks: Vec<ClockId>,
    telemetry: Option<Telemetry>,
    // Replay recipe: the deterministic build inputs plus the ordered
    // irregular-event log — everything a checkpoint needs to rebuild
    // and retrace this simulation (see [`crate::checkpoint`]).
    cfg: SocConfig,
    program: Vec<u32>,
    staging_init: Vec<u32>,
    gmem_init: Vec<(usize, Vec<u64>)>,
    fault_log: Vec<FaultEvent>,
    session: Option<CheckedSession>,
    last_ckpt: Option<SimSnapshot>,
    ckpt_count: Rc<Cell<u64>>,
    ckpt_bytes: Rc<Cell<u64>>,
    ckpt_last_ns: Rc<Cell<u64>>,
}

/// Wires one NoC registry channel according to its endpoints' shard
/// ownership; returns the channel's role in this worker. See
/// [`ChannelRole`] for the role semantics.
fn wire_noc_channel(
    sim: &mut Simulator,
    h: &ChannelHandle<NocFlit>,
    clk: ClockId,
    prod_owned: bool,
    cons_owned: bool,
    shard: Option<&ShardSpec>,
    name: &str,
) -> ChannelRole {
    match (prod_owned, cons_owned) {
        (true, true) => {
            sim.add_sequential_gated(clk, h.sequential(), h.commit_token());
            ChannelRole::Local
        }
        (true, false) => {
            let s = shard.expect("an unowned endpoint implies a sharded build");
            h.split_remote_tx(s.mailboxes.take_tx(name));
            sim.add_sequential(clk, h.sequential());
            ChannelRole::TxHalf
        }
        (false, true) => {
            let s = shard.expect("an unowned endpoint implies a sharded build");
            h.split_remote_rx(s.mailboxes.take_rx(name));
            sim.add_sequential(clk, h.sequential());
            ChannelRole::RxHalf
        }
        (false, false) => ChannelRole::Inert,
    }
}

impl Soc {
    /// Builds the SoC, loading `program` into controller RAM at 0,
    /// `staging_init` into the staging memory and `gmem_init` regions
    /// into global memory.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SocConfig::validate`] or any init region
    /// is out of range. Use [`SocConfig::builder`] to catch bad configs
    /// as typed errors instead.
    pub fn build(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
    ) -> Soc {
        Self::build_with_telemetry(cfg, program, staging_init, gmem_init, None)
    }

    /// Like [`Soc::build`], but publishes every observable into `tel`
    /// when one is given: hub and plan-cache counters and per-PE stats
    /// as lazily polled probes (`soc.hub.*`, `soc.plan.*`,
    /// `soc.pe<n>.*`), every NoC channel's statistics under
    /// `noc.<channel>`, and command-lifetime spans from the hub
    /// (`cmd.pe<n>`: dispatch → retire/timeout, with a `remapped`
    /// point) and the PEs (`pe<n>.exec`: accept → compute → done). When
    /// the sink has profiling enabled ([`Telemetry::set_profiling`])
    /// the kernel's per-component tick-time profiler is armed too.
    ///
    /// Telemetry is observation-only: results, cycle counts and charged
    /// gates are bit-identical with and without a sink (asserted by the
    /// `telemetry_tests`), and probes are evaluated only at snapshot
    /// time, so an attached-but-unread sink costs nothing per cycle.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`SocConfig::validate`] or any init region
    /// is out of range.
    pub fn build_with_telemetry(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        telemetry: Option<Telemetry>,
    ) -> Soc {
        Self::build_internal(cfg, program, staging_init, gmem_init, telemetry, None)
    }

    /// Builds one worker's shard of the SoC for parallel simulation:
    /// the full clock table and channel registry (identical across
    /// workers, so clock indices, fault seeds and channel names line
    /// up), but only the components of nodes this shard owns. Channels
    /// crossing a shard boundary are split into mailbox-coupled halves;
    /// see [`ChannelRole`] and [`crate::parallel::ParallelSoc`].
    pub(crate) fn build_sharded(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        telemetry: Option<Telemetry>,
        shard: &ShardSpec,
    ) -> Soc {
        Self::build_internal(
            cfg,
            program,
            staging_init,
            gmem_init,
            telemetry,
            Some(shard),
        )
    }

    fn build_internal(
        cfg: SocConfig,
        program: &[u32],
        staging_init: &[u32],
        gmem_init: &[(usize, Vec<u64>)],
        telemetry: Option<Telemetry>,
        shard: Option<&ShardSpec>,
    ) -> Soc {
        if let Err(e) = cfg.validate() {
            panic!("invalid SocConfig: {e}");
        }
        // Does this build own node `n`'s components? Sequential builds
        // own everything.
        let owns = |n: usize| shard.is_none_or(|s| s.owner[n] == s.shard);
        let is_hub_worker = owns(HUB_NODE as usize);
        let mut sim = Simulator::new();
        // RTL-fidelity PEs and the hub never quiesce (every gate is
        // re-evaluated each cycle), so gating only pays its bookkeeping
        // there without skipping anything — measured at 0.78-0.96x on
        // the kernel baseline. Auto-disable it; results are identical
        // either way (see `gating_tests`).
        sim.set_gating(cfg.gating && !cfg.fidelity.is_rtl());

        // --- Clock domains ---
        // Every worker creates the full clock table in the same order:
        // followed clocks need real kernel slots whose indices match
        // the owner's, because the epoch scheduler addresses clocks
        // positionally when it publishes and adopts edge schedules.
        let hub_clock = sim.add_clock(ClockSpec::new("hub", cfg.period));
        let mut owned_clocks: Vec<ClockId> = Vec::new();
        if is_hub_worker {
            owned_clocks.push(hub_clock);
        }
        let mut node_clock: Vec<ClockId> = Vec::with_capacity(N_NODES as usize);
        for n in 0..N_NODES {
            let clk = match cfg.clocking {
                ClockingMode::Synchronous => hub_clock,
                ClockingMode::Gals { spread_ppm } => {
                    if n == HUB_NODE {
                        hub_clock
                    } else {
                        // Deterministic spread: node n deviates by
                        // ((n * 37) % (2*spread+1)) - spread ppm.
                        let spread = i64::from(spread_ppm);
                        let dev = (i64::from(n) * 37) % (2 * spread + 1) - spread;
                        let ps = cfg.period.as_ps() as i64;
                        let period = ps + ps * dev / 1_000_000;
                        sim.add_clock(ClockSpec::new(
                            format!("node{n}"),
                            Picoseconds::new(period.max(1) as u64),
                        ))
                    }
                }
                ClockingMode::GalsAdaptive { .. } => {
                    if n == HUB_NODE {
                        hub_clock
                    } else {
                        sim.add_clock(ClockSpec::new(format!("node{n}"), cfg.period))
                    }
                }
            };
            if clk != hub_clock && owns(usize::from(n)) {
                owned_clocks.push(clk);
            }
            node_clock.push(clk);
        }
        // Adaptive mode: one local clock generator per PE node, each
        // tracking its own supply-noise waveform. Only the owning
        // worker runs a node's generator — it owns the clock and
        // publishes the overridden schedule; followers adopt it.
        if let ClockingMode::GalsAdaptive { noise_seed } = cfg.clocking {
            for n in 0..N_NODES {
                if n == HUB_NODE || !owns(usize::from(n)) {
                    continue;
                }
                let noise = Rc::new(RefCell::new(craft_gals::SupplyNoise::typical(
                    noise_seed ^ u64::from(n),
                )));
                sim.add_component(
                    node_clock[n as usize],
                    craft_gals::LocalClockGenerator::new(
                        format!("clkgen{n}"),
                        node_clock[n as usize],
                        cfg.period,
                        craft_gals::ClockStyle::Adaptive { residue: 0.2 },
                        noise,
                    ),
                );
            }
        }

        // --- Mesh link channels ---
        // For each node and direction, the router's In/Out ports.
        let mut rin: Vec<Vec<Option<In<NocFlit>>>> = (0..N_NODES)
            .map(|_| (0..port::COUNT).map(|_| None).collect())
            .collect();
        let mut rout: Vec<Vec<Option<Out<NocFlit>>>> = (0..N_NODES)
            .map(|_| (0..port::COUNT).map(|_| None).collect())
            .collect();

        let kind = ChannelKind::Buffer(cfg.link_depth);
        // Registry of every NoC flit channel by name: the fault
        // campaign's injection point ([`Soc::inject_fault`]) and the
        // watchdog's progress taps ([`Soc::run_checked`]).
        let mut noc_channels: Vec<(String, ChannelHandle<NocFlit>)> = Vec::new();
        let mut noc_roles: Vec<ChannelRole> = Vec::new();
        // Directed link from node a (port pa) to node b (port pb).
        let mut link = |sim: &mut Simulator, a: usize, pa: usize, b: usize, pb: usize| {
            let same_domain = node_clock[a] == node_clock[b];
            if same_domain {
                let name = format!("l{a}p{pa}->{b}");
                let (tx, rx, h) = channel::<NocFlit>(name.clone(), kind);
                let role = wire_noc_channel(sim, &h, node_clock[a], owns(a), owns(b), shard, &name);
                noc_channels.push((name, h));
                noc_roles.push(role);
                rout[a][pa] = Some(tx);
                rin[b][pb] = Some(rx);
            } else {
                // GALS crossing: tx channel on a's domain, pausible
                // FIFO, rx channel on b's domain. The pausible pair
                // shares `Rc` state, so the whole crossing lives in the
                // consumer's worker: when the producer is elsewhere the
                // `.tx` channel is the split one (its consumer is the
                // crossing's TX stage), while the `.rx` channel is
                // always wholly inside the consumer's worker.
                let (name1, name2) = (format!("g{a}p{pa}.tx"), format!("g{a}p{pa}.rx"));
                let (tx, mid_rx, h1) = channel::<NocFlit>(name1.clone(), kind);
                let (mid_tx, rx, h2) = channel::<NocFlit>(name2.clone(), kind);
                let role1 =
                    wire_noc_channel(sim, &h1, node_clock[a], owns(a), owns(b), shard, &name1);
                let role2 =
                    wire_noc_channel(sim, &h2, node_clock[b], owns(b), owns(b), shard, &name2);
                noc_channels.push((name1, h1));
                noc_roles.push(role1);
                noc_channels.push((name2, h2));
                noc_roles.push(role2);
                if owns(b) {
                    let (ptx, prx, _state) = pausible_fifo(
                        &format!("x{a}->{b}"),
                        mid_rx,
                        mid_tx,
                        8,
                        node_clock[b],
                        Picoseconds::new(40),
                    );
                    sim.add_component(node_clock[a], ptx);
                    sim.add_component(node_clock[b], prx);
                }
                rout[a][pa] = Some(tx);
                rin[b][pb] = Some(rx);
            }
        };

        let w = MESH_WIDTH as usize;
        for n in 0..N_NODES as usize {
            let (x, y) = (n % w, n / w);
            if x + 1 < w {
                link(&mut sim, n, port::EAST, n + 1, port::WEST);
                link(&mut sim, n + 1, port::WEST, n, port::EAST);
            }
            if y + 1 < w {
                link(&mut sim, n, port::SOUTH, n + w, port::NORTH);
                link(&mut sim, n + w, port::NORTH, n, port::SOUTH);
            }
        }

        // Local ports: node <-> its endpoint (PE or hub).
        let mut ep_in: Vec<Option<In<NocFlit>>> = (0..N_NODES).map(|_| None).collect();
        let mut ep_out: Vec<Option<Out<NocFlit>>> = (0..N_NODES).map(|_| None).collect();
        for n in 0..N_NODES as usize {
            // Router and endpoint of one node always share a shard, so
            // endpoint ports are never split.
            let name = format!("n{n}.eject");
            let (tx, rx, h) = channel::<NocFlit>(name.clone(), kind);
            let role =
                wire_noc_channel(&mut sim, &h, node_clock[n], owns(n), owns(n), shard, &name);
            noc_channels.push((name, h));
            noc_roles.push(role);
            rout[n][port::LOCAL] = Some(tx);
            ep_in[n] = Some(rx);
            let name2 = format!("n{n}.inject");
            let (tx2, rx2, h2) = channel::<NocFlit>(name2.clone(), kind);
            let role2 = wire_noc_channel(
                &mut sim,
                &h2,
                node_clock[n],
                owns(n),
                owns(n),
                shard,
                &name2,
            );
            noc_channels.push((name2, h2));
            noc_roles.push(role2);
            ep_out[n] = Some(tx2);
            rin[n][port::LOCAL] = Some(rx2);
        }

        // Fill boundary ports with stub channels so routers are square.
        // Gated stubs never see traffic, so their commits are elided
        // for the whole run and reconciled once at the end. Stubs are
        // not in the registry, so unowned nodes (whose routers are
        // never built) skip them without disturbing fault seeds.
        for n in 0..N_NODES as usize {
            if !owns(n) {
                continue;
            }
            for p in 0..port::COUNT {
                if rin[n][p].is_none() {
                    let (_tx, rx, h) = channel::<NocFlit>(format!("stub_in{n}p{p}"), kind);
                    sim.add_sequential_gated(node_clock[n], h.sequential(), h.commit_token());
                    rin[n][p] = Some(rx);
                }
                if rout[n][p].is_none() {
                    let (tx, _rx, h) = channel::<NocFlit>(format!("stub_out{n}p{p}"), kind);
                    sim.add_sequential_gated(node_clock[n], h.sequential(), h.commit_token());
                    rout[n][p] = Some(tx);
                }
            }
        }

        // --- Routers ---
        // One shared plan cache when the datapaths and signal sets are
        // compiled rather than interpreted: all 15 PEs draw operator
        // plans from it and every always-on signal plan registers its
        // lowering statistics there.
        let plan_cache: Option<PlanCacheHandle> = match shard {
            // Sharded workers draw operator plans from one shared cache
            // so splitting never recompiles a plan per shard.
            Some(s) => s.plan_cache.clone(),
            None => (cfg.fidelity == Fidelity::RtlCompiled).then(PlanCache::handle),
        };
        // In RTL mode every router's signal set is re-evaluated each
        // cycle, like generated RTL in a cycle-driven simulator.
        let mut router_charged: Vec<Rc<Cell<u64>>> = Vec::new();
        if cfg.fidelity.is_rtl() {
            const ROUTER_RTL_GATES: u64 = 4_000;
            for n in 0..N_NODES {
                if !owns(usize::from(n)) {
                    continue;
                }
                let plan = (cfg.fidelity == Fidelity::RtlCompiled)
                    .then(|| SignalPlan::from_gate_count(ROUTER_RTL_GATES));
                if let (Some(cache), Some(p)) = (&plan_cache, &plan) {
                    cache
                        .lock()
                        .expect("plan cache lock")
                        .register_signal_plan(p);
                }
                let charged = Rc::new(Cell::new(0u64));
                router_charged.push(Rc::clone(&charged));
                sim.add_component(
                    node_clock[n as usize],
                    RouterActivity {
                        name: format!("r{n}.rtl"),
                        cost: crate::bitrtl::RtlCost::new(),
                        gates: ROUTER_RTL_GATES,
                        plan,
                        charged,
                    },
                );
            }
        }
        for n in 0..N_NODES {
            if !owns(usize::from(n)) {
                continue;
            }
            let ins: Vec<In<NocFlit>> = rin[n as usize]
                .iter_mut()
                .map(|o| o.take().expect("port wired"))
                .collect();
            let outs: Vec<Out<NocFlit>> = rout[n as usize]
                .iter_mut()
                .map(|o| o.take().expect("port wired"))
                .collect();
            // Every flit entering the router (or space freeing on an
            // output it is backpressured against) rouses it.
            let wake = ActivityToken::new();
            for i in &ins {
                i.set_wake_token(wake.clone());
            }
            for o in &outs {
                o.set_wake_token(wake.clone());
            }
            let id = match cfg.router {
                RouterKind::Wormhole => {
                    let router = WhvcRouter::new(
                        format!("r{n}"),
                        ins,
                        outs,
                        WhvcConfig {
                            vcs: 2,
                            buffer_depth: 4,
                        },
                        move |dst| xy_route(n, dst, MESH_WIDTH),
                    );
                    sim.add_component(node_clock[n as usize], router)
                }
                RouterKind::StoreForward => {
                    let router = SfRouter::new(format!("r{n}"), ins, outs, 4, move |dst| {
                        xy_route(n, dst, MESH_WIDTH)
                    });
                    sim.add_component(node_clock[n as usize], router)
                }
            };
            sim.set_wake_token(id, wake);
        }

        // --- PEs ---
        let coverage = craft_sim::cover::Coverage::new();
        for op in [
            "VecAdd",
            "VecMul",
            "Dot",
            "Reduce",
            "Scale",
            "Conv1d",
            "ArgMinDist",
        ] {
            coverage.declare(format!("pe.op.{op}"));
        }
        let mut pe_stats = Vec::new();
        for n in 0..N_NODES {
            if n == HUB_NODE || !owns(usize::from(n)) {
                continue;
            }
            let pe_cfg = PeConfig {
                lanes: cfg.lanes,
                fidelity: cfg.fidelity,
                ..PeConfig::default()
            };
            let pe_in = ep_in[n as usize].take().expect("pe port");
            let pe_out = ep_out[n as usize].take().expect("pe port");
            let wake = ActivityToken::new();
            pe_in.set_wake_token(wake.clone());
            pe_out.set_wake_token(wake.clone());
            let mut pe = ProcessingElement::new(n, pe_in, pe_out, pe_cfg);
            pe.set_coverage(coverage.clone());
            if let Some(cache) = &plan_cache {
                pe.set_plan_cache(cache);
            }
            if let Some(tel) = &telemetry {
                pe.set_telemetry(tel.clone());
            }
            pe_stats.push((n, pe.stats_handle()));
            let id = sim.add_component(node_clock[n as usize], pe);
            sim.set_wake_token(id, wake);
        }

        // --- Hub ---
        // Every worker carries a hub-state handle (non-owners keep an
        // inert one so report plumbing stays uniform), but the hub
        // component, AXI fabric and controller exist only in the
        // hub-owning worker.
        let hub_state: HubHandle = Rc::new(RefCell::new(HubState::new(cfg.gmem_words)));
        hub_state.borrow_mut().pe_timeout = cfg.pe_timeout;
        for (base, data) in gmem_init {
            let mut st = hub_state.borrow_mut();
            for (i, &v) in data.iter().enumerate() {
                st.gmem.write(base + i, v);
            }
        }
        let ctrl: CtrlHandle = Rc::new(RefCell::new(CtrlStatus::default()));
        if is_hub_worker {
            let hub_in = ep_in[HUB_NODE as usize].take().expect("hub port");
            let hub_out = ep_out[HUB_NODE as usize].take().expect("hub port");
            let hub_wake = ActivityToken::new();
            hub_in.set_wake_token(hub_wake.clone());
            hub_out.set_wake_token(hub_wake.clone());
            // Doorbell commits bypass the NoC channels; alias the hub's
            // wake token into the shared state so ctrl writes rouse it.
            hub_state.borrow_mut().activity = hub_wake.clone();
            let mut hub = Hub::new(
                HUB_NODE,
                hub_in,
                hub_out,
                Rc::clone(&hub_state),
                cfg.fidelity,
            );
            if let Some(tel) = &telemetry {
                hub.set_telemetry(tel.clone());
            }
            if let (Some(cache), Some(plan)) = (&plan_cache, hub.signal_plan()) {
                cache
                    .lock()
                    .expect("plan cache lock")
                    .register_signal_plan(plan);
            }
            let hub_id = sim.add_component(hub_clock, hub);
            sim.set_wake_token(hub_id, hub_wake);

            // --- AXI: controller -> bus -> {staging, hub} ---
            let (m_ports, bus_up, seqs) = axi_link("ctl", 2);
            let (dn_staging, staging_slave_ports, seqs2) = axi_link("bus2stg", 2);
            let (dn_hub, hub_slave_ports, seqs3) = axi_link("bus2hub", 2);
            // Gated registration: AXI channels are idle between
            // transactions, so their commits elide whenever nothing was
            // staged (and the compiled plan skips them entirely).
            for (s, dirty) in seqs.into_iter().chain(seqs2).chain(seqs3) {
                sim.add_sequential_gated(hub_clock, s, dirty);
            }
            let axi_handle = AxiMasterHandle::new();
            sim.add_component(
                hub_clock,
                AxiMaster::new("ctl.axim", m_ports, axi_handle.clone()),
            );
            sim.add_component(
                hub_clock,
                AxiBus::new(
                    "bus",
                    bus_up,
                    vec![
                        (
                            AddrRange {
                                base: STAGING_AXI_BASE,
                                words: cfg.staging_words as u64,
                            },
                            dn_staging,
                        ),
                        (
                            AddrRange {
                                base: HUB_AXI_BASE,
                                words: CTRL_PAGE + 16,
                            },
                            dn_hub,
                        ),
                    ],
                ),
            );
            let mut staging =
                AxiMemorySlave::new("staging", staging_slave_ports, cfg.staging_words);
            staging.debug_load(
                0,
                &staging_init
                    .iter()
                    .map(|&w| u64::from(w))
                    .collect::<Vec<_>>(),
            );
            sim.add_component(hub_clock, staging);
            sim.add_component(
                hub_clock,
                HubAxiSlave::new("hub.axis", hub_slave_ports, Rc::clone(&hub_state)),
            );

            // --- Controller ---
            let mut ram = FlatMemory::new(1 << 20);
            ram.load_words(0, program);
            sim.add_component(
                hub_clock,
                Controller::new("riscv", ram, axi_handle, Rc::clone(&ctrl)),
            );
        }

        // --- Telemetry publication ---
        // All registry wiring happens here, once, after assembly:
        // probes close over the same shared handles the accessors read,
        // so a snapshot any cycle agrees with `Soc::report`.
        let ckpt_count = Rc::new(Cell::new(0u64));
        let ckpt_bytes = Rc::new(Cell::new(0u64));
        let ckpt_last_ns = Rc::new(Cell::new(0u64));
        if let Some(tel) = &telemetry {
            // Hub and plan probes come from the hub-owning worker only;
            // publishing the shared plan cache (or the inert hub dummy)
            // from every shard would multiply the merged counters.
            if is_hub_worker {
                macro_rules! hub_probe {
                    ($name:literal, $st:ident, $read:expr) => {{
                        let h = Rc::clone(&hub_state);
                        tel.probe(concat!("soc.hub.", $name), move || {
                            let $st = h.borrow();
                            $read
                        });
                    }};
                }
                hub_probe!("dispatched", st, st.issued);
                hub_probe!("retired", st, st.done_count);
                hub_probe!("remapped", st, st.remapped);
                hub_probe!("failed_pes", st, st.failed_pes().len() as u64);
                hub_probe!("gmem_ops", st, st.gmem_ops);
                hub_probe!("noc_flits", st, st.noc_flits);
                hub_probe!("jobs", st, st.service_latency.total());
                hub_probe!(
                    "latency_p99",
                    st,
                    st.service_latency.quantile_upper_bound(0.99)
                );
            }
            for (n, stats) in &pe_stats {
                macro_rules! pe_probe {
                    ($name:literal, $field:ident) => {{
                        let s = Rc::clone(stats);
                        tel.probe(format!("soc.pe{n}.{}", $name), move || s.borrow().$field);
                    }};
                }
                pe_probe!("commands", commands);
                pe_probe!("busy_cycles", busy_cycles);
                pe_probe!("work_units", work_units);
                pe_probe!("gates_charged", gates_charged);
            }
            for ((name, h), role) in noc_channels.iter().zip(&noc_roles) {
                // Inert copies carry no traffic; skipping them keeps a
                // shard's snapshot to the channels it actually drives
                // (split halves each publish their own disjoint
                // counters, which merge by path into sequential sums).
                if *role == ChannelRole::Inert {
                    continue;
                }
                h.publish_telemetry(tel, &format!("noc.{name}"));
            }
            if is_hub_worker {
                if let Some(cache) = &plan_cache {
                    macro_rules! plan_probe {
                        ($name:literal, $field:ident) => {{
                            let c = std::sync::Arc::clone(cache);
                            tel.probe(concat!("soc.plan.", $name), move || {
                                c.lock().expect("plan cache lock").stats().$field
                            });
                        }};
                    }
                    plan_probe!("ops_lowered", ops_lowered);
                    plan_probe!("cache_hits", cache_hits);
                    plan_probe!("signal_plans", signal_plans);
                    plan_probe!("signal_word_ops", signal_word_ops);
                }
            }
            // Kernel instant-plan counters. Per-worker state: in a
            // sharded build every shard publishes its own plan, and
            // the merged snapshot sums them (deopt/instant totals
            // across shards; `armed` counts how many shards hold an
            // armed plan).
            let (deopts, instants, armed) = (
                sim.plan_deopt_handle(),
                sim.plan_instants_handle(),
                sim.plan_armed_handle(),
            );
            tel.probe("sim.plan.deopt_count", move || deopts.get());
            tel.probe("sim.plan.instants", move || instants.get());
            tel.probe("sim.plan.armed", move || armed.get());
            // Checkpoint counters: captures taken, last framed size,
            // last capture latency. Observation-only by construction —
            // probes are lazily polled and capture never mutates sim
            // state (pinned by the checkpoint telemetry tests). Hub
            // worker only, like the other facade-level probes.
            if is_hub_worker {
                let (c, b, n) = (
                    Rc::clone(&ckpt_count),
                    Rc::clone(&ckpt_bytes),
                    Rc::clone(&ckpt_last_ns),
                );
                tel.probe("sim.ckpt.count", move || c.get());
                tel.probe("sim.ckpt.bytes", move || b.get());
                tel.probe("sim.ckpt.last_ns", move || n.get());
            }
            sim.set_tick_profiling(tel.profiling());
        }

        // --- Compiled instant plan ---
        // Lower the steady-state schedule last, once the full component
        // and sequential rosters exist. Always attempted, opportunistic
        // by contract: every rejection (GALS clock spreads, gating off
        // — including the RTL fidelities — profiling on) just leaves
        // the interpreted path in charge, and outcomes are bit- and
        // cycle-identical either way (the `compiled_schedule_tests`).
        // PE-failure detection is excluded conservatively — a remap
        // storm is exactly the irregular regime the plan is not built
        // for.
        if cfg.pe_timeout.is_none() {
            let _ = sim.arm_plan();
        }

        Soc {
            sim,
            hub_clock,
            hub: hub_state,
            ctrl,
            pe_stats,
            coverage,
            plan_cache,
            router_charged,
            noc_channels,
            noc_roles,
            owned_clocks,
            telemetry,
            cfg,
            program: program.to_vec(),
            staging_init: staging_init.to_vec(),
            gmem_init: gmem_init.to_vec(),
            fault_log: Vec::new(),
            session: None,
            last_ckpt: None,
            ckpt_count,
            ckpt_bytes,
            ckpt_last_ns,
        }
    }

    /// Injects a seeded fault into every NoC flit channel whose name
    /// contains `pat` (mesh links `l{a}p{pa}->{b}`, GALS crossings
    /// `g{a}p{pa}.tx`/`.rx`, endpoint ports `n{n}.eject`/`n{n}.inject`)
    /// without touching any component. Each matched channel gets an
    /// independent injector derived from `seed`. Returns how many
    /// channels matched, or [`FaultPatternError::NoMatch`] when the
    /// pattern names nothing — a typo'd pattern used to come back as a
    /// silently ignorable `0`.
    pub fn inject_fault(
        &mut self,
        pat: &str,
        cfg: FaultConfig,
        seed: u64,
    ) -> Result<usize, FaultPatternError> {
        // Fault injectors perturb commit behaviour mid-run — exactly
        // the irregular regime the compiled instant plan excludes, so
        // arming one de-opts back to the interpreted golden path.
        self.sim.disarm_plan();
        let mut matched = 0;
        for (i, (name, h)) in self.noc_channels.iter().enumerate() {
            if name.contains(pat) {
                matched += 1;
                // The injector perturbs tokens at the producer's commit,
                // so in a sharded build it arms on the worker holding
                // the producer end. Matching still runs over the full
                // registry: the count and the per-channel seed (derived
                // from the registry index) are identical on every
                // worker and to the sequential build.
                if matches!(self.noc_roles[i], ChannelRole::Local | ChannelRole::TxHalf) {
                    h.inject_faults(cfg, lane_fault_seed(seed, i));
                }
            }
        }
        if matched == 0 {
            return Err(FaultPatternError::NoMatch {
                pattern: pat.to_string(),
            });
        }
        // Successful injections join the replay log: a checkpoint's
        // restore re-arms them at the same kernel instant, reproducing
        // the injectors' decision streams bit-for-bit (each stream is
        // a pure function of (cfg, per-channel salted seed, token
        // index)).
        self.fault_log.push(FaultEvent {
            pattern: pat.to_string(),
            cfg,
            seed,
            at_instants: self.sim.instants(),
            at_cycles: self.sim.cycles(self.hub_clock),
        });
        Ok(matched)
    }

    /// Aggregated fault-injection counters over every NoC channel
    /// whose name contains `pat` (zeroes when the matched channels have
    /// no injector armed), or [`FaultPatternError::NoMatch`] when the
    /// pattern names no channel at all.
    pub fn fault_stats(&self, pat: &str) -> Result<FaultStats, FaultPatternError> {
        let mut total = FaultStats::default();
        let mut matched = 0;
        for (name, h) in &self.noc_channels {
            if !name.contains(pat) {
                continue;
            }
            matched += 1;
            let Some(s) = h.fault_stats() else { continue };
            merge_fault_stats(&mut total, &s);
        }
        if matched == 0 {
            return Err(FaultPatternError::NoMatch {
                pattern: pat.to_string(),
            });
        }
        Ok(total)
    }

    /// Builds the typed run report: hub command flow, per-PE stats,
    /// aggregated NoC and fault counters, plan statistics and the
    /// charged-gate / work-unit totals — one structured snapshot
    /// replacing the retired tuple accessors. Cheap enough to call
    /// mid-run; every field reads the same shared state the simulation
    /// writes, so a report taken after [`Soc::run`] is final.
    ///
    /// The PR 4 tuple shims are gone — `report().hub` is the only
    /// surface for hub command flow and degradation counters:
    ///
    /// ```compile_fail
    /// # use craft_soc::{Soc, SocConfig};
    /// fn old_caller(soc: &Soc) -> (u64, u64) {
    ///     soc.hub_counters() // removed: use soc.report().hub
    /// }
    /// ```
    ///
    /// ```compile_fail
    /// # use craft_soc::Soc;
    /// fn old_degradation_caller(soc: &Soc) -> (Vec<u16>, u64) {
    ///     soc.degradation() // removed: use soc.report().hub
    /// }
    /// ```
    ///
    /// ```no_run
    /// # use craft_soc::workloads::{run_workload_soc, vec_mul};
    /// # use craft_soc::SocConfig;
    /// let (_, _, soc) = run_workload_soc(SocConfig::default(), &vec_mul(), 8_000_000);
    /// let hub = soc.report().hub;
    /// let (dispatched, retired) = (hub.dispatched, hub.retired);
    /// let (failed, remapped) = (hub.failed_pes, hub.remapped);
    /// # let _ = (dispatched, retired, failed, remapped);
    /// ```
    pub fn report(&self) -> SocReport {
        let hub = {
            let st = self.hub.borrow();
            HubReport {
                dispatched: st.issued,
                retired: st.done_count,
                remapped: st.remapped,
                failed_pes: st.failed_pes(),
                gmem_ops: st.gmem_ops,
                noc_flits: st.noc_flits,
                jobs: st.service_latency.total(),
                latency_p50: st.service_latency.quantile_upper_bound(0.50),
                latency_p99: st.service_latency.quantile_upper_bound(0.99),
            }
        };
        let pes = self
            .pe_stats
            .iter()
            .map(|(node, s)| {
                let s = s.borrow();
                PeReport {
                    node: *node,
                    commands: s.commands,
                    busy_cycles: s.busy_cycles,
                    work_units: s.work_units,
                    gates_charged: s.gates_charged,
                }
            })
            .collect();
        let mut noc = NocReport {
            channels: self.noc_channels.len(),
            ..NocReport::default()
        };
        let mut faults = FaultReport::default();
        for (_, h) in &self.noc_channels {
            let s = h.stats();
            noc.transfers += s.transfers;
            noc.backpressure += s.push_backpressure;
            noc.pop_empty += s.pop_empty;
            noc.stall_cycles += s.stall_cycles;
            if let Some(f) = h.fault_stats() {
                faults.armed_channels += 1;
                merge_fault_stats(&mut faults.stats, &f);
            }
        }
        SocReport {
            hub,
            pes,
            noc,
            faults,
            plan: self.plan_stats(),
            charged_gates: self.charged_gates(),
            total_work_units: self.total_work_units(),
        }
    }

    /// The telemetry sink this SoC publishes into, when built with one
    /// (see [`Soc::build_with_telemetry`]).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Snapshots the telemetry registry at the current hub cycle,
    /// including the kernel's per-component tick-time profile when
    /// profiling is armed. `None` when built without a sink.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|tel| {
            tel.snapshot_with_profile(self.sim.cycles(self.hub_clock), self.sim.tick_profile())
        })
    }

    /// Compile-plan lowering statistics (operator plans lowered, cache
    /// hits, signal plans compiled). `None` unless the SoC was built
    /// with [`Fidelity::RtlCompiled`].
    pub fn plan_stats(&self) -> Option<PlanStats> {
        self.plan_cache
            .as_ref()
            .map(|c| c.lock().expect("plan cache lock").stats())
    }

    /// Total gate equivalents charged to the RTL cost ledgers across
    /// PEs, the hub, and the per-router activity models. Zero in
    /// sim-accurate mode; bit-identical between [`Fidelity::Rtl`] and
    /// [`Fidelity::RtlCompiled`] for the same run (the compiled path's
    /// accounting contract).
    pub fn charged_gates(&self) -> u64 {
        let pes: u64 = self
            .pe_stats
            .iter()
            .map(|(_, s)| s.borrow().gates_charged)
            .sum();
        let hub = self.hub.borrow().gates_charged;
        let routers: u64 = self.router_charged.iter().map(|c| c.get()).sum();
        pes + hub + routers
    }

    /// The functional-coverage map collected during the run (PE op
    /// bins are pre-declared; see [`craft_sim::cover::Coverage`]).
    pub fn coverage(&self) -> &craft_sim::cover::Coverage {
        &self.coverage
    }

    /// The configuration this SoC was built from.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// Read-only view of the underlying kernel, exposing scheduling
    /// and gating counters (instants, ticks delivered/skipped, commits
    /// elided) for the kernel benchmarks and the gating tests.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable kernel access for external drivers (benchmarks, the
    /// compiled-plan harness) that step the kernel phase by phase.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Whether the controller has executed its halt (`ecall`) — the
    /// completion condition [`Soc::run`] polls.
    pub fn halted(&self) -> bool {
        self.ctrl.borrow().halted
    }

    /// The hub (reference) clock of this SoC.
    pub fn hub_clock(&self) -> ClockId {
        self.hub_clock
    }

    /// The controller status handle (single-threaded `Rc` clone; the
    /// parallel facade's decide hook polls `halted` through it).
    pub(crate) fn ctrl_handle(&self) -> CtrlHandle {
        Rc::clone(&self.ctrl)
    }

    /// Clocks this build owns under the epoch protocol: all of them in
    /// a sequential build, the shard's own domains in a sharded one.
    pub(crate) fn owned_clocks(&self) -> &[ClockId] {
        &self.owned_clocks
    }

    /// The NoC channel registry (name, handle), in registration order —
    /// the index is the per-channel fault-seed salt. The batched
    /// lockstep backend ([`crate::batch`]) walks this to attach shadow
    /// fault-lane banks on the golden build.
    pub(crate) fn noc_registry(&self) -> &[(String, ChannelHandle<NocFlit>)] {
        &self.noc_channels
    }

    /// Per-registry-entry channel roles (all [`ChannelRole::Local`] in
    /// a sequential build).
    pub(crate) fn noc_role(&self, i: usize) -> ChannelRole {
        self.noc_roles[i]
    }

    /// Taps every registry channel as a watchdog progress source — what
    /// [`Soc::run_checked`] does before its supervised run.
    pub(crate) fn arm_progress_taps(&self) {
        let token = self.sim.progress_token();
        for (_, h) in &self.noc_channels {
            h.set_progress_token(token.clone());
        }
    }

    /// Drives this worker's kernel through the globally merged instant
    /// sequence (see [`craft_sim::run_parallel`]), draining split-
    /// channel mailboxes before each instant. `decide` runs only on the
    /// decider worker and terminates the whole set.
    pub(crate) fn run_epochs(
        &mut self,
        worker: &EpochWorker<'_>,
        decide: &mut dyn FnMut(&mut Simulator, bool) -> Option<EpochVerdict>,
    ) -> EpochOutcome {
        let Soc {
            sim,
            noc_channels,
            noc_roles,
            ..
        } = self;
        let mut drain = |_: &mut Simulator| {
            let mut tokens = 0;
            for ((_, h), role) in noc_channels.iter().zip(noc_roles.iter()) {
                if *role == ChannelRole::RxHalf {
                    tokens += h.drain_remote();
                }
            }
            tokens
        };
        run_parallel(sim, worker, &mut drain, decide)
    }

    /// Runs until the controller halts or `max_cycles` hub cycles.
    ///
    /// # Panics
    /// Panics if a supervised session is open — finish it with
    /// [`Soc::resume_checked`] first, or its cycle accounting would
    /// silently drift.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        assert!(
            self.session.is_none(),
            "finish the open supervised session before Soc::run"
        );
        let t0 = Instant::now();
        let start = self.sim.cycles(self.hub_clock);
        let ctrl = Rc::clone(&self.ctrl);
        let completed = self
            .sim
            .run_until(self.hub_clock, max_cycles, move || ctrl.borrow().halted);
        RunResult {
            cycles: self.sim.cycles(self.hub_clock) - start,
            wall: t0.elapsed(),
            ctrl: *self.ctrl.borrow(),
            completed,
        }
    }

    /// Like [`Soc::run`], but supervised by the simulation watchdog:
    /// every NoC flit channel is tapped as a progress source, and
    /// `no_progress_limit` consecutive hub cycles without a single NoC
    /// push/pop (or component wake) turn a would-be infinite run into
    /// a typed [`SimError::Hang`] carrying the per-component /
    /// per-channel diagnosis.
    ///
    /// Only *data-plane* traffic counts as progress — deliberately not
    /// the AXI channels, because the controller polls `DONE_COUNT`
    /// over AXI forever and that busy-wait must not mask a wedged NoC.
    /// With [`SocConfig::checkpoint_every`] set, the run is segmented
    /// at that interval with a [`SimSnapshot`] captured at each
    /// boundary (see [`Soc::last_checkpoint`]); segmentation and
    /// capture are observation-only — outcome, cycle count and the
    /// watchdog trip point are identical to an unsegmented run.
    pub fn run_checked(
        &mut self,
        max_cycles: u64,
        no_progress_limit: u64,
    ) -> Result<RunResult, SimError> {
        self.begin_checked(max_cycles, no_progress_limit);
        self.resume_checked()
    }

    /// Opens a supervised-run session without advancing it: arms the
    /// progress taps and records the budget and watchdog baseline.
    /// Drive it with [`Soc::resume_checked`].
    ///
    /// # Panics
    /// Panics if a session is already open.
    pub fn begin_checked(&mut self, max_cycles: u64, no_progress_limit: u64) {
        assert!(
            self.session.is_none(),
            "a supervised run session is already open"
        );
        self.arm_progress_taps();
        self.session = Some(CheckedSession {
            remaining: max_cycles,
            no_progress_limit,
            consumed: 0,
            wd: WatchdogState {
                idle: 0,
                last_cycle: self.sim.cycles(self.hub_clock),
            },
        });
    }

    /// Whether a supervised-run session is open (a checkpoint taken
    /// now captures it, and a restore resumes it mid-budget).
    pub fn session_open(&self) -> bool {
        self.session.is_some()
    }

    /// Takes the open session, ending it — for drivers (the batch
    /// backend) that segment a session themselves via
    /// [`Soc::advance_checked`] and blend the final result.
    pub(crate) fn close_session(&mut self) -> Option<CheckedSession> {
        self.session.take()
    }

    /// Runs one segment of the open session, at most `budget` hub
    /// cycles. `Ok(Some(completed))` ends the session (predicate fired
    /// or the whole budget ran out); `Ok(None)` means the segment
    /// boundary was reached with budget to spare. The halt predicate
    /// is pure, so the extra boundary evaluation at each seam is
    /// invisible — the segmented run is step-for-step identical to an
    /// uninterrupted one.
    pub(crate) fn advance_checked(&mut self, budget: u64) -> Result<Option<bool>, SimError> {
        let s = self.session.as_mut().expect("session open");
        let seg = budget.min(s.remaining);
        let npl = s.no_progress_limit;
        let mut wd = s.wd;
        let start = self.sim.cycles(self.hub_clock);
        let ctrl = Rc::clone(&self.ctrl);
        let outcome =
            self.sim
                .run_until_checked_with(self.hub_clock, seg, npl, &mut wd, move || {
                    ctrl.borrow().halted
                });
        let advanced = self.sim.cycles(self.hub_clock) - start;
        let s = self.session.as_mut().expect("session open");
        s.consumed += advanced;
        s.remaining -= advanced.min(s.remaining);
        s.wd = wd;
        match outcome {
            Err(e) => {
                self.session = None;
                Err(e)
            }
            Ok(true) => Ok(Some(true)),
            // `Ok(false)` with budget left in the session means only
            // this segment's limit was hit — anything else (stop
            // request, no edges, whole budget spent) ends the session.
            Ok(false) if s.remaining > 0 && advanced == seg => Ok(None),
            Ok(false) => Ok(Some(false)),
        }
    }

    /// Drives the open session to completion, capturing an automatic
    /// checkpoint every [`SocConfig::checkpoint_every`] cycles between
    /// segments. Returns the session's final [`RunResult`] — with
    /// `cycles` accumulated across every segment (and, for a restored
    /// session, the cycles consumed before the snapshot), so it equals
    /// the uninterrupted run's.
    ///
    /// # Panics
    /// Panics if no session is open.
    pub fn resume_checked(&mut self) -> Result<RunResult, SimError> {
        assert!(self.session.is_some(), "no supervised run session open");
        let t0 = Instant::now();
        loop {
            if let SegmentStatus::Done(mut r) = self.step_segment()? {
                r.wall = t0.elapsed();
                return Ok(r);
            }
        }
    }

    /// Runs one segment of the open session — at most
    /// [`SocConfig::checkpoint_every`] cycles (the whole budget when
    /// unset). [`SegmentStatus::Boundary`] means budget remains and
    /// the automatic checkpoint was captured: a scheduler may preempt
    /// here, serialize [`Soc::last_checkpoint`], and revive the run
    /// elsewhere. [`SegmentStatus::Done`] carries the whole-run
    /// blended result (its `wall` covers only the final segment).
    ///
    /// # Panics
    /// Panics if no session is open.
    pub fn step_segment(&mut self) -> Result<SegmentStatus, SimError> {
        assert!(self.session.is_some(), "no supervised run session open");
        let t0 = Instant::now();
        let auto = self.cfg.checkpoint_every;
        match self.advance_checked(auto.unwrap_or(u64::MAX))? {
            Some(completed) => {
                let s = self.session.take().expect("session open");
                Ok(SegmentStatus::Done(RunResult {
                    cycles: s.consumed,
                    wall: t0.elapsed(),
                    ctrl: *self.ctrl.borrow(),
                    completed,
                }))
            }
            None => {
                if auto.is_some() {
                    self.last_ckpt = Some(self.checkpoint());
                }
                Ok(SegmentStatus::Boundary)
            }
        }
    }

    /// Captures a versioned [`SimSnapshot`] of this simulation at the
    /// current boundary: the replay recipe (config, memory images,
    /// fault log), the exact kernel-instant target, the open session
    /// if any, and the kernel + architectural verification digests.
    /// Observation-only: capture reads shared state and never perturbs
    /// the simulation. Updates the `sim.ckpt.{count,bytes,last_ns}`
    /// telemetry counters.
    pub fn checkpoint(&self) -> SimSnapshot {
        let t0 = Instant::now();
        let snap = SimSnapshot {
            cfg: self.cfg,
            program: self.program.clone(),
            staging: self.staging_init.clone(),
            gmem_init: self.gmem_init.clone(),
            faults: self.fault_log.clone(),
            instants: Some(self.sim.instants()),
            hub_cycles: self.sim.cycles(self.hub_clock),
            progress_set: self.sim.progress_token().is_set(),
            session: self.session.as_ref().map(|s| SessionState {
                remaining: s.remaining,
                no_progress_limit: s.no_progress_limit,
                consumed: s.consumed,
                wd: s.wd,
                carried_progress: None,
            }),
            kernel: Some(self.sim.kernel_digest()),
            arch: self.arch_digest(),
        };
        self.ckpt_count.set(self.ckpt_count.get() + 1);
        self.ckpt_bytes.set(snap.to_bytes().len() as u64);
        self.ckpt_last_ns
            .set(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        snap
    }

    /// The most recent automatic checkpoint taken by a segmented
    /// supervised run ([`SocConfig::checkpoint_every`]), if any.
    pub fn last_checkpoint(&self) -> Option<&SimSnapshot> {
        self.last_ckpt.as_ref()
    }

    /// Hashes the observable run state for snapshot verification.
    pub(crate) fn arch_digest(&self) -> ArchDigest {
        let gmem = self.gmem_read(0, self.cfg.gmem_words);
        let mut w = StateWriter::new();
        w.put_u64s(&gmem);
        ArchDigest {
            hub_cycles: self.sim.cycles(self.hub_clock),
            report_fnv: fnv64(self.report().to_json().as_bytes()),
            ctrl_fnv: fnv64(format!("{:?}", *self.ctrl.borrow()).as_bytes()),
            gmem_fnv: fnv64(&w.into_bytes()),
        }
    }

    /// Rebuilds a SoC from `snap` and deterministically replays it to
    /// the capture boundary, verifying the kernel and architectural
    /// digests — the restore-then-run ≡ uninterrupted-run contract the
    /// checkpoint proptests pin. An open session in the snapshot is
    /// reinstated, ready for [`Soc::resume_checked`].
    pub fn restore(snap: &SimSnapshot) -> Result<Soc, CheckpointError> {
        Self::restore_with_telemetry(snap, None)
    }

    /// [`Soc::restore`] with a telemetry sink attached to the rebuilt
    /// SoC (restore itself is sink-agnostic; telemetry stays
    /// observation-only either way).
    pub fn restore_with_telemetry(
        snap: &SimSnapshot,
        telemetry: Option<Telemetry>,
    ) -> Result<Soc, CheckpointError> {
        snap.cfg
            .validate()
            .map_err(|e| CheckpointError::Malformed(format!("invalid config: {e}")))?;
        let mut soc = Soc::build_with_telemetry(
            snap.cfg,
            &snap.program,
            &snap.staging,
            &snap.gmem_init,
            telemetry,
        );
        soc.replay_to(snap)?;
        Ok(soc)
    }

    /// Steps the kernel until `target` instants have been processed.
    fn step_to_instant(&mut self, target: u64) -> Result<(), CheckpointError> {
        if self.sim.instants() > target {
            return Err(CheckpointError::Malformed(format!(
                "replay target {target} is behind the current instant {}",
                self.sim.instants()
            )));
        }
        while self.sim.instants() < target {
            if !self.sim.step() {
                return Err(CheckpointError::ReplayDivergence {
                    field: "kernel.instants".to_string(),
                    expected: target,
                    found: self.sim.instants(),
                });
            }
        }
        Ok(())
    }

    /// Steps the kernel until the hub clock reaches `target` cycles —
    /// the replay scheme for parallel-captured snapshots, whose
    /// capture boundaries are always cycle-reachable.
    fn step_to_cycle(&mut self, target: u64) -> Result<(), CheckpointError> {
        if self.sim.cycles(self.hub_clock) > target {
            return Err(CheckpointError::Malformed(format!(
                "replay target cycle {target} is behind the current cycle {}",
                self.sim.cycles(self.hub_clock)
            )));
        }
        while self.sim.cycles(self.hub_clock) < target {
            if !self.sim.step() {
                return Err(CheckpointError::ReplayDivergence {
                    field: "arch.hub_cycles".to_string(),
                    expected: target,
                    found: self.sim.cycles(self.hub_clock),
                });
            }
        }
        Ok(())
    }

    /// Replays this freshly built SoC to `snap`'s capture boundary:
    /// re-arms each logged fault injection at its recorded instant,
    /// steps to the progress target, restores the progress-token
    /// state, verifies the digests, and reinstates the open session.
    pub(crate) fn replay_to(&mut self, snap: &SimSnapshot) -> Result<(), CheckpointError> {
        for ev in &snap.faults {
            match snap.instants {
                Some(_) => self.step_to_instant(ev.at_instants)?,
                None => self.step_to_cycle(ev.at_cycles)?,
            }
            self.inject_fault(&ev.pattern, ev.cfg, ev.seed)
                .map_err(|e| {
                    CheckpointError::Malformed(format!("logged fault failed to re-arm: {e}"))
                })?;
        }
        match snap.instants {
            Some(target) => self.step_to_instant(target)?,
            None => self.step_to_cycle(snap.hub_cycles)?,
        }
        // Captures happen at run boundaries, where the kernel has
        // settled its gating statistics; a raw step loop must settle
        // them explicitly (exact-statistics contract: flush timing is
        // behavior-neutral, totals at a given instant are unique).
        self.sim.flush_skipped_commits();
        // The progress token only feeds the watchdog, never behavior —
        // restore its flag verbatim rather than mimicking takes.
        let token = self.sim.progress_token();
        if snap.progress_set {
            token.set();
        } else {
            let _ = token.take();
        }
        if let Some(kernel) = &snap.kernel {
            kernel.verify(&self.sim.kernel_digest())?;
        }
        snap.arch.verify(&self.arch_digest())?;
        if let Some(s) = &snap.session {
            self.arm_progress_taps();
            self.session = Some(CheckedSession {
                remaining: s.remaining,
                no_progress_limit: s.no_progress_limit,
                consumed: s.consumed,
                wd: s.wd,
            });
        }
        Ok(())
    }

    /// Backdoor read of global memory (harness verification).
    pub fn gmem_read(&self, base: usize, len: usize) -> Vec<u64> {
        let st = self.hub.borrow();
        (0..len).map(|i| st.gmem.read(base + i)).collect()
    }

    /// Sum of PE work units executed (datapath utilization probe).
    pub fn total_work_units(&self) -> u64 {
        self.pe_stats
            .iter()
            .map(|(_, s)| s.borrow().work_units)
            .sum()
    }

    /// Workload energy estimate in nJ (the system-level power-analysis
    /// output of Fig. 1): PE datapath MACs + global-memory accesses +
    /// NoC flit transport (hub-observed flits x mean 3-hop XY route).
    pub fn energy_estimate_nj(&self, lib: &craft_tech::TechLibrary) -> f64 {
        let st = self.hub.borrow();
        let mac = craft_tech::mac_energy_fj(lib, 32) * self.total_work_units() as f64;
        let gmem_macro = craft_tech::SramMacro::new(4096, 64);
        let gmem = gmem_macro.access_energy_fj() * st.gmem_ops as f64;
        let noc = craft_tech::noc_hop_energy_fj(lib, 450.0) * st.noc_flits as f64 * 3.0;
        (mac + gmem + noc) / 1e6
    }
}

/// Accumulates one injector's counters into an aggregate.
pub(crate) fn merge_fault_stats(total: &mut FaultStats, s: &FaultStats) {
    total.tokens += s.tokens;
    total.flips += s.flips;
    total.drops += s.drops;
    total.dups += s.dups;
    total.dups_suppressed += s.dups_suppressed;
    total.stuck_valid_cycles += s.stuck_valid_cycles;
    total.stuck_ready_cycles += s.stuck_ready_cycles;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{orchestrator_program, run_workload, table_words, vec_mul};
    use craft_riscv::asm::{self as rv, A0, A1, T0};

    #[test]
    fn gals_mode_produces_correct_results() {
        let cfg = SocConfig {
            clocking: ClockingMode::Gals { spread_ppm: 2000 },
            ..SocConfig::default()
        };
        let (result, ok) = run_workload(cfg, &vec_mul(), 4_000_000);
        assert!(result.completed, "GALS run did not halt");
        assert!(ok, "GALS results mismatch");
    }

    #[test]
    fn gals_and_synchronous_agree_functionally() {
        let wl = crate::workloads::dot_product();
        let (sync_r, ok1) = run_workload(SocConfig::default(), &wl, 4_000_000);
        let cfg = SocConfig {
            clocking: ClockingMode::Gals { spread_ppm: 5000 },
            ..SocConfig::default()
        };
        let (gals_r, ok2) = run_workload(cfg, &wl, 4_000_000);
        assert!(ok1 && ok2);
        // GALS adds crossing latency; cycle counts differ but stay in
        // the same ballpark (latency-insensitive design guarantee).
        let ratio = gals_r.cycles as f64 / sync_r.cycles as f64;
        assert!(
            (1.0..2.0).contains(&ratio),
            "GALS/sync cycle ratio {ratio:.2} out of plausible range"
        );
    }

    #[test]
    fn controller_reads_and_writes_gmem_over_axi() {
        // Program: read gmem[7] via AXI, add 1, write to gmem[9], halt.
        let mut a = rv::Assembler::new();
        a.emit_all(rv::li(T0, GMEM_CPU_BASE as i32));
        a.emit(rv::lw(A0, T0, 7 * 4));
        a.emit(rv::addi(A1, A0, 1));
        a.emit(rv::sw(A1, T0, 9 * 4));
        a.emit(rv::ecall());
        let program = a.finish();
        let mut soc = Soc::build(SocConfig::default(), &program, &[], &[(7, vec![41])]);
        let r = soc.run(100_000);
        assert!(r.completed);
        assert_eq!(soc.gmem_read(9, 1), vec![42]);
        assert!(r.ctrl.axi_ops >= 2, "AXI must carry the traffic");
        assert!(r.ctrl.axi_stall_cycles > 0, "AXI latency must be visible");
    }

    #[test]
    fn doorbell_drives_a_single_pe() {
        use crate::msg::{PeCommand, PeOp};
        use crate::workloads::TableEntry;
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
        let r = soc.run(1_000_000);
        assert!(r.completed);
        let expect: Vec<u64> = (1..=8).map(|v| v * 3).collect();
        assert_eq!(soc.gmem_read(100, 8), expect);
        let rep = soc.report();
        assert_eq!((rep.hub.dispatched, rep.hub.retired), (1, 1));
        assert!(rep.total_work_units >= 8);
    }

    #[test]
    fn energy_estimate_scales_with_work() {
        use crate::workloads::{conv1d, kmeans_assign, run_workload_soc};
        let lib = craft_tech::TechLibrary::n16();
        let (_, ok1, soc_small) =
            run_workload_soc(SocConfig::default(), &kmeans_assign(), 4_000_000);
        let (_, ok2, soc_big) = run_workload_soc(SocConfig::default(), &conv1d(), 4_000_000);
        assert!(ok1 && ok2);
        let e_small = soc_small.energy_estimate_nj(&lib);
        let e_big = soc_big.energy_estimate_nj(&lib);
        assert!(e_small > 0.0);
        // conv1d does 256*5 MACs vs kmeans' 128*4 distance ops, and
        // moves more data through gmem and the NoC.
        assert!(e_big > e_small, "{e_big} vs {e_small}");
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = vec_mul();
        let (a, _) = run_workload(SocConfig::default(), &wl, 4_000_000);
        let (b, _) = run_workload(SocConfig::default(), &wl, 4_000_000);
        assert_eq!(a.cycles, b.cycles, "simulation must be deterministic");
        assert_eq!(a.ctrl.instret, b.ctrl.instret);
    }
}

#[cfg(test)]
mod gating_tests {
    use super::*;
    use crate::workloads::{run_workload_soc, vec_mul, Workload};

    /// Runs `wl` twice — quiescence gating on and off — and asserts
    /// every architecturally visible outcome is bit-identical: cycle
    /// counts, controller retirement, hub counters, PE work, NoC and
    /// memory traffic, and the verified gmem results. Returns the
    /// gated kernel's skipped-tick count so callers can assert the
    /// gating actually engaged.
    fn assert_gating_equivalent(cfg: SocConfig, wl: &Workload) -> u64 {
        let off_cfg = SocConfig {
            gating: false,
            ..cfg
        };
        let (on, ok_on, soc_on) = run_workload_soc(cfg, wl, 8_000_000);
        let (off, ok_off, soc_off) = run_workload_soc(off_cfg, wl, 8_000_000);
        assert!(ok_on, "{}: gated run failed verification", wl.name);
        assert!(ok_off, "{}: ungated run failed verification", wl.name);
        assert_eq!(on.cycles, off.cycles, "{}: cycle counts differ", wl.name);
        assert_eq!(on.ctrl, off.ctrl, "{}: controller status differs", wl.name);
        assert_eq!(soc_on.report().hub, soc_off.report().hub);
        assert_eq!(soc_on.total_work_units(), soc_off.total_work_units());
        {
            let a = soc_on.hub.borrow();
            let b = soc_off.hub.borrow();
            assert_eq!(a.gmem_ops, b.gmem_ops, "{}: gmem traffic differs", wl.name);
            assert_eq!(a.noc_flits, b.noc_flits, "{}: NoC traffic differs", wl.name);
            assert_eq!(
                a.service_latency.total(),
                b.service_latency.total(),
                "{}: hub job count differs",
                wl.name
            );
        }
        assert_eq!(
            soc_off.sim().ticks_skipped(),
            0,
            "gating off must deliver all"
        );
        soc_on.sim().ticks_skipped()
    }

    #[test]
    fn gating_equivalent_synchronous() {
        let skipped = assert_gating_equivalent(SocConfig::default(), &vec_mul());
        assert!(skipped > 10_000, "gating barely engaged: {skipped}");
    }

    #[test]
    fn gating_equivalent_rtl_mode() {
        let cfg = SocConfig {
            fidelity: Fidelity::Rtl,
            ..SocConfig::default()
        };
        // RTL PEs and hub never sleep, but routers and channels may.
        assert_gating_equivalent(cfg, &vec_mul());
    }

    #[test]
    fn gating_equivalent_rtl_compiled_mode() {
        let cfg = SocConfig {
            fidelity: Fidelity::RtlCompiled,
            ..SocConfig::default()
        };
        assert_gating_equivalent(cfg, &vec_mul());
    }

    #[test]
    fn gating_equivalent_gals() {
        let cfg = SocConfig {
            clocking: ClockingMode::Gals { spread_ppm: 2000 },
            ..SocConfig::default()
        };
        let skipped = assert_gating_equivalent(cfg, &vec_mul());
        assert!(skipped > 10_000, "gating barely engaged: {skipped}");
    }

    #[test]
    fn gating_equivalent_store_forward() {
        let cfg = SocConfig {
            router: RouterKind::StoreForward,
            ..SocConfig::default()
        };
        assert_gating_equivalent(cfg, &vec_mul());
    }
}

#[cfg(test)]
mod rtl_compiled_tests {
    use super::*;
    use crate::workloads::{dot_product, run_workload_soc, vec_mul, Workload};

    /// The compiled path's system-level contract: same cycles, same
    /// verified results, same charged gate totals as the interpreted
    /// RTL path — only the wall-clock work per charge differs.
    fn assert_compiled_matches_interpreted(wl: &Workload) {
        let rtl_cfg = SocConfig {
            fidelity: Fidelity::Rtl,
            ..SocConfig::default()
        };
        let comp_cfg = SocConfig {
            fidelity: Fidelity::RtlCompiled,
            ..SocConfig::default()
        };
        let (ri, ok_i, soc_i) = run_workload_soc(rtl_cfg, wl, 8_000_000);
        let (rc, ok_c, soc_c) = run_workload_soc(comp_cfg, wl, 8_000_000);
        assert!(ok_i, "{}: interpreted RTL run failed", wl.name);
        assert!(ok_c, "{}: compiled RTL run failed", wl.name);
        assert_eq!(ri.cycles, rc.cycles, "{}: cycle counts differ", wl.name);
        assert_eq!(ri.ctrl, rc.ctrl, "{}: controller status differs", wl.name);
        assert_eq!(soc_i.report().hub, soc_c.report().hub);
        assert_eq!(soc_i.total_work_units(), soc_c.total_work_units());
        let (gi, gc) = (soc_i.charged_gates(), soc_c.charged_gates());
        assert!(gi > 0, "{}: interpreted path charged nothing", wl.name);
        assert_eq!(gi, gc, "{}: charged gate totals differ", wl.name);
    }

    #[test]
    fn compiled_matches_interpreted_vec_mul() {
        assert_compiled_matches_interpreted(&vec_mul());
    }

    #[test]
    fn compiled_matches_interpreted_dot_product() {
        assert_compiled_matches_interpreted(&dot_product());
    }

    /// The shared plan cache lowers each operator once for the whole
    /// SoC and registers every always-on signal plan (15 PEs + hub +
    /// 16 routers).
    #[test]
    fn plan_stats_report_shared_lowering() {
        let cfg = SocConfig {
            fidelity: Fidelity::RtlCompiled,
            ..SocConfig::default()
        };
        let (_, ok, soc) = run_workload_soc(cfg, &vec_mul(), 8_000_000);
        assert!(ok);
        let stats = soc.plan_stats().expect("compiled mode exposes stats");
        assert_eq!(stats.ops_lowered, 4, "one plan per operator");
        assert_eq!(stats.cache_hits, 14 * 4, "14 PEs hit the shared cache");
        assert_eq!(stats.signal_plans, 15 + 1 + 16, "PEs + hub + routers");
        assert!(stats.signal_word_ops > 0);
        assert!(stats.max_levels >= 2);
        // Interpreted RTL and sim-accurate modes have no plan cache.
        let (_, _, soc_rtl) = run_workload_soc(
            SocConfig {
                fidelity: Fidelity::Rtl,
                ..SocConfig::default()
            },
            &vec_mul(),
            8_000_000,
        );
        assert!(soc_rtl.plan_stats().is_none());
        assert!(soc_rtl.charged_gates() > 0);
        let (_, _, soc_sim) = run_workload_soc(SocConfig::default(), &vec_mul(), 8_000_000);
        assert_eq!(soc_sim.charged_gates(), 0);
    }
}

#[cfg(test)]
mod compiled_schedule_tests {
    use super::*;
    use crate::engine::{build_engine, EngineKind};
    use crate::workloads::{dot_product, orchestrator_program, table_words, vec_mul, Workload};

    fn build(cfg: SocConfig, wl: &Workload, tel: Option<Telemetry>) -> Soc {
        Soc::build_with_telemetry(
            cfg,
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
            tel,
        )
    }

    /// Runs `wl` to completion on a fresh `Soc` — on the interpreted
    /// golden loop when `interpreted` (the plan disarmed right after
    /// build), else on whatever schedule the kernel chose — and
    /// verifies the results against the workload's golden model.
    fn run(cfg: SocConfig, wl: &Workload, interpreted: bool) -> (RunResult, bool, Soc) {
        let mut soc = build(cfg, wl, None);
        if interpreted {
            soc.sim_mut().disarm_plan();
        }
        let r = soc.run(8_000_000);
        let ok = r.completed
            && wl
                .expected
                .iter()
                .all(|(base, expect)| &soc.gmem_read(*base, expect.len()) == expect);
        (r, ok, soc)
    }

    /// Runs `wl` interpreted and on the kernel's default schedule and
    /// asserts every architecturally visible outcome is bit-identical
    /// — the plan's golden-reference contract. Returns the default
    /// `Soc` for plan-state assertions.
    fn assert_plan_matches_interpreted(cfg: SocConfig, wl: &Workload) -> Soc {
        let (ri, ok_i, soc_i) = run(cfg, wl, true);
        let (rc, ok_c, soc_c) = run(cfg, wl, false);
        assert!(!soc_i.sim().plan_armed(), "reference must be interpreted");
        assert!(ok_i, "{}: interpreted run failed", wl.name);
        assert!(ok_c, "{}: compiled run failed", wl.name);
        assert_eq!(ri.cycles, rc.cycles, "{}: cycle counts differ", wl.name);
        assert_eq!(ri.ctrl, rc.ctrl, "{}: controller status differs", wl.name);
        assert_eq!(
            soc_i.report(),
            soc_c.report(),
            "{}: reports differ",
            wl.name
        );
        assert_eq!(soc_i.total_work_units(), soc_c.total_work_units());
        // The plan mirrors the gated kernel's tick/commit elision
        // decisions exactly, so even the *instrumentation* counters
        // must agree with the interpreted gated run.
        assert_eq!(
            soc_i.sim().ticks_delivered(),
            soc_c.sim().ticks_delivered(),
            "{}: tick delivery diverged",
            wl.name
        );
        assert_eq!(
            soc_i.sim().ticks_skipped(),
            soc_c.sim().ticks_skipped(),
            "{}: tick elision diverged",
            wl.name
        );
        assert_eq!(
            soc_i.sim().commits_skipped(),
            soc_c.sim().commits_skipped(),
            "{}: commit elision diverged",
            wl.name
        );
        soc_c
    }

    /// The default configuration runs the compiled plan, on the
    /// sequential `Soc` and on the `soc` engine alike — no option
    /// selects it.
    #[test]
    fn plan_is_armed_by_default() {
        let wl = vec_mul();
        assert!(build(SocConfig::default(), &wl, None).sim().plan_armed());
        let engine = build_engine(
            EngineKind::Soc,
            SocConfig::default(),
            &orchestrator_program(),
            &table_words(&wl.entries),
            &wl.gmem_init,
            &[],
            true,
        )
        .expect("default config builds");
        let armed = engine
            .telemetry_snapshot()
            .expect("sink attached")
            .metrics
            .iter()
            .find(|m| m.path == "sim.plan.armed")
            .expect("plan probe registered")
            .value;
        assert_eq!(armed, 1, "the soc engine must run the compiled plan");
    }

    #[test]
    fn compiled_identical_vec_mul() {
        let soc = assert_plan_matches_interpreted(SocConfig::default(), &vec_mul());
        assert!(soc.sim().plan_armed(), "plan must stay armed end to end");
        assert_eq!(soc.sim().plan_deopt_count(), 0, "clean run must not de-opt");
        assert_eq!(
            soc.sim().plan_instants(),
            soc.sim().instants(),
            "every instant must take the fast path"
        );
    }

    #[test]
    fn compiled_identical_dot_product() {
        let soc = assert_plan_matches_interpreted(SocConfig::default(), &dot_product());
        assert!(soc.sim().plan_armed());
        assert_eq!(soc.sim().plan_deopt_count(), 0);
    }

    #[test]
    fn compiled_identical_store_forward_router() {
        let cfg = SocConfig {
            router: RouterKind::StoreForward,
            ..SocConfig::default()
        };
        assert_plan_matches_interpreted(cfg, &vec_mul());
    }

    /// Satellite: RTL-fidelity runs auto-disable activity gating (it
    /// was measured *costing* wall clock there — the RTL PEs and hub
    /// re-evaluate every gate each cycle and never quiesce).
    #[test]
    fn rtl_mode_auto_disables_gating() {
        for fidelity in [Fidelity::Rtl, Fidelity::RtlCompiled] {
            let cfg = SocConfig {
                fidelity,
                gating: true,
                ..SocConfig::default()
            };
            let (_, ok, soc) = run(cfg, &vec_mul(), false);
            assert!(ok);
            assert!(
                !soc.sim().gating(),
                "{fidelity:?}: gating must be auto-disabled"
            );
        }
        // Sim-accurate mode keeps the configured value.
        let (_, ok, soc) = run(SocConfig::default(), &vec_mul(), false);
        assert!(ok && soc.sim().gating(), "sim_accurate keeps gating on");
        let off = SocConfig {
            gating: false,
            ..SocConfig::default()
        };
        let (_, ok, soc) = run(off, &vec_mul(), false);
        assert!(ok && !soc.sim().gating());
    }

    /// Every configuration `arm_plan` rejects — the RTL fidelities
    /// (gating auto-disabled), GALS clocking (per-node clocks break
    /// the uniform-schedule precondition), gating off and tick
    /// profiling — and PE-failure detection (timeouts mean remap
    /// storms) runs on the interpreted loop from its first instant,
    /// and still verifies.
    #[test]
    fn rejecting_configs_stay_interpreted() {
        let def = SocConfig::default();
        let cases = [
            (
                "rtl",
                SocConfig {
                    fidelity: Fidelity::Rtl,
                    ..def
                },
                false,
            ),
            (
                "rtl_compiled",
                SocConfig {
                    fidelity: Fidelity::RtlCompiled,
                    ..def
                },
                false,
            ),
            (
                "gals",
                SocConfig {
                    clocking: ClockingMode::Gals { spread_ppm: 2000 },
                    ..def
                },
                false,
            ),
            (
                "gating_off",
                SocConfig {
                    gating: false,
                    ..def
                },
                false,
            ),
            (
                "pe_timeout",
                SocConfig {
                    pe_timeout: Some(20_000),
                    ..def
                },
                false,
            ),
            ("tick_profiling", def, true),
        ];
        let wl = vec_mul();
        for (name, cfg, profile) in cases {
            let tel = profile.then(|| {
                let tel = Telemetry::new();
                tel.set_profiling(true);
                tel
            });
            let mut soc = build(cfg, &wl, tel);
            assert!(!soc.sim().plan_armed(), "{name}: must decline to arm");
            let r = soc.run(8_000_000);
            assert!(r.completed, "{name}: interpreted run must complete");
            for (base, expect) in &wl.expected {
                assert_eq!(&soc.gmem_read(*base, expect.len()), expect, "{name}");
            }
            assert_eq!(soc.sim().plan_instants(), 0, "{name}");
            assert_eq!(soc.sim().plan_deopt_count(), 0, "{name}");
        }
        // Declining to arm changes nothing observable at RTL fidelity.
        for fidelity in [Fidelity::Rtl, Fidelity::RtlCompiled] {
            assert_plan_matches_interpreted(SocConfig { fidelity, ..def }, &wl);
        }
    }

    /// De-opt trigger: arming a fault injector disarms the plan before
    /// the campaign starts, and the degraded run still verifies.
    #[test]
    fn fault_injection_deopts_to_interpreted() {
        let mut soc = build(SocConfig::default(), &vec_mul(), None);
        assert!(soc.sim().plan_armed(), "plan armed at build");
        assert!(
            soc.inject_fault("n5.eject", FaultConfig::bit_flip(0.01), 7)
                .expect("channel exists")
                > 0
        );
        assert!(!soc.sim().plan_armed(), "fault injection must de-opt");
        assert_eq!(soc.sim().plan_deopt_count(), 1);
        let r = soc.run(8_000_000);
        assert!(r.completed, "interpreted fallback must still run");
    }

    /// The `sim.plan.*` telemetry probes publish the armed flag, the
    /// fast-path instant count and the de-opt counter.
    #[test]
    fn telemetry_reports_plan_counters() {
        let mut soc = build(SocConfig::default(), &vec_mul(), Some(Telemetry::new()));
        let r = soc.run(8_000_000);
        assert!(r.completed);
        let snap = soc.telemetry_snapshot().expect("sink attached");
        let row = |path: &str| {
            snap.metrics
                .iter()
                .find(|m| m.path == path)
                .unwrap_or_else(|| panic!("missing probe {path}"))
                .value
        };
        assert_eq!(row("sim.plan.armed"), 1, "plan armed at snapshot");
        assert_eq!(row("sim.plan.deopt_count"), 0);
        assert!(row("sim.plan.instants") > 0, "fast path executed instants");
        assert_eq!(row("sim.plan.instants"), soc.sim().instants());
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;
    use crate::workloads::{run_workload_soc, six_soc_tests, vec_add_scale};

    /// The six Fig. 6 tests plus the VecAdd/Scale chain cover every PE
    /// operation — the §4 "coverage holes" check for this testbench.
    #[test]
    fn workload_suite_covers_all_pe_ops() {
        let coverage = craft_sim::cover::Coverage::new();
        let mut all = six_soc_tests();
        all.push(vec_add_scale());
        for wl in all {
            let (_, ok, soc) = run_workload_soc(SocConfig::default(), &wl, 8_000_000);
            assert!(ok, "{} failed", wl.name);
            // Merge this run's hits into the campaign map.
            for hole in [
                "VecAdd",
                "VecMul",
                "Dot",
                "Reduce",
                "Scale",
                "Conv1d",
                "ArgMinDist",
            ] {
                let bin = format!("pe.op.{hole}");
                coverage.declare(bin.clone());
                for _ in 0..soc.coverage().count(&bin) {
                    coverage.hit(bin.clone());
                }
            }
        }
        assert!(
            coverage.holes().is_empty(),
            "coverage holes: {:?}\n{}",
            coverage.holes(),
            coverage.report()
        );
        assert_eq!(coverage.percent(), 100.0);
    }

    /// A single workload leaves holes — which the report identifies.
    #[test]
    fn single_workload_has_holes() {
        let (_, ok, soc) = run_workload_soc(
            SocConfig::default(),
            &crate::workloads::vec_mul(),
            8_000_000,
        );
        assert!(ok);
        let holes = soc.coverage().holes();
        assert!(holes.contains(&"pe.op.Dot".to_string()), "{holes:?}");
        assert!(!holes.contains(&"pe.op.VecMul".to_string()));
    }

    /// Hub service-latency histogram is populated and bounded.
    #[test]
    fn hub_latency_histogram_populated() {
        let (_, ok, soc) = run_workload_soc(
            SocConfig::default(),
            &crate::workloads::vec_mul(),
            8_000_000,
        );
        assert!(ok);
        let st = soc.hub.borrow();
        let total = st.service_latency.total();
        // 4 commands x (2 reads + 4 write chunks) = at least 20 jobs.
        assert!(total >= 20, "only {total} jobs recorded");
        assert_eq!(
            st.service_latency.overflow(),
            0,
            "no job should take >256 cycles"
        );
    }
}

#[cfg(test)]
mod router_kind_tests {
    use super::*;
    use crate::workloads::{run_workload, vec_mul};

    /// Both router microarchitectures compute the same results; the
    /// wormhole router is faster because it cuts through instead of
    /// buffering whole packets per hop (the DESIGN.md §5.5 ablation at
    /// system level).
    #[test]
    fn wormhole_beats_store_forward_at_system_level() {
        let wl = vec_mul();
        let (wh, ok1) = run_workload(SocConfig::default(), &wl, 8_000_000);
        let sf_cfg = SocConfig {
            router: RouterKind::StoreForward,
            ..SocConfig::default()
        };
        let (sf, ok2) = run_workload(sf_cfg, &wl, 8_000_000);
        assert!(ok1 && ok2, "both router kinds must verify");
        assert!(
            sf.cycles > wh.cycles,
            "store-and-forward must be slower: {} vs {}",
            sf.cycles,
            wh.cycles
        );
    }
}

#[cfg(test)]
mod adaptive_gals_tests {
    use super::*;
    use crate::workloads::{run_workload, vec_mul};

    /// Adaptive per-node clocks under supply noise stretch and drift,
    /// yet the LI design + pausible crossings keep results exact.
    #[test]
    fn adaptive_clocks_preserve_function() {
        for seed in [1u64, 99] {
            let cfg = SocConfig {
                clocking: ClockingMode::GalsAdaptive { noise_seed: seed },
                ..SocConfig::default()
            };
            let (r, ok) = run_workload(cfg, &vec_mul(), 8_000_000);
            assert!(r.completed && ok, "seed {seed} failed");
        }
    }

    /// Noisy adaptive clocks run slower in wall-time terms (stretched
    /// periods) than the synchronous baseline, measured on hub cycles
    /// elapsed — the run takes more hub cycles because PE domains lag.
    #[test]
    fn adaptive_run_is_deterministic_per_seed() {
        let cfg = SocConfig {
            clocking: ClockingMode::GalsAdaptive { noise_seed: 7 },
            ..SocConfig::default()
        };
        let (a, ok1) = run_workload(cfg, &vec_mul(), 8_000_000);
        let (b, ok2) = run_workload(cfg, &vec_mul(), 8_000_000);
        assert!(ok1 && ok2);
        assert_eq!(a.cycles, b.cycles, "seeded noise must be reproducible");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};

    /// Graceful degradation end to end: a PE whose command-delivery
    /// channel is permanently stuck never acknowledges, the hub's
    /// timeout declares it failed and remaps the stranded command to a
    /// healthy PE, and the workload still completes with bit-correct
    /// results — at a measurable cycle overhead, not a hang.
    #[test]
    fn failed_pe_is_detected_and_its_work_remapped() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);

        let clean_cycles = {
            let mut soc = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
            let r = soc.run(8_000_000);
            assert!(r.completed);
            r.cycles
        };

        let cfg = SocConfig {
            pe_timeout: Some(20_000),
            ..SocConfig::default()
        };
        let mut soc = Soc::build(cfg, &program, &table, &wl.gmem_init);
        // PE 2 never receives anything: its router-to-PE ejection
        // channel has valid stuck low from cycle 0.
        assert_eq!(
            soc.inject_fault("n2.eject", FaultConfig::stuck_valid(0), 7)
                .expect("channel exists"),
            1
        );
        let r = soc
            .run_checked(8_000_000, 200_000)
            .expect("degraded run must recover, not hang");
        assert!(r.completed, "controller must still halt");
        for (base, expect) in &wl.expected {
            assert_eq!(&soc.gmem_read(*base, expect.len()), expect, "results");
        }
        let hub = soc.report().hub;
        assert_eq!(
            hub.failed_pes,
            vec![2],
            "exactly the faulted PE is declared failed"
        );
        assert!(hub.remapped >= 1, "its command must be remapped");
        // Recovery costs at least the timeout, and the overhead is
        // bounded (one timeout + one re-execution, not a meltdown).
        assert!(r.cycles > 20_000, "{} vs {clean_cycles}", r.cycles);
        assert!(
            r.cycles < clean_cycles + 25_000,
            "{} vs {clean_cycles}",
            r.cycles
        );
    }

    /// Without detection armed, total token loss on a PE's delivery
    /// channel turns the run into a diagnosed hang: the watchdog names
    /// the faulted channel and the hub's wait reason pins the exact
    /// command (issued, never done) that is stuck in flight.
    #[test]
    fn flit_loss_hangs_with_noc_level_diagnosis() {
        use crate::msg::{PeCommand, PeOp};
        use crate::workloads::TableEntry;
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
                .expect("channel exists"),
            1
        );
        let err = soc
            .run_checked(2_000_000, 50_000)
            .expect_err("total flit loss must be detected as a hang");
        let SimError::Hang { report, .. } = &err else {
            panic!("expected Hang, got {err}");
        };
        let ch = report
            .channels
            .iter()
            .find(|c| c.name == "n5.eject")
            .expect("faulted channel diagnosed");
        assert!(ch.note.contains("drop"), "note: {}", ch.note);
        let hub = report
            .components
            .iter()
            .find(|c| c.name == "hub15")
            .expect("hub diagnosed");
        let wait = hub.wait.as_deref().expect("hub explains its wait");
        assert!(wait.contains("inflight=[5]"), "wait: {wait}");
        assert!(wait.contains("done=0"), "wait: {wait}");
    }

    /// The watchdog must never fire on healthy runs: a clean workload
    /// under `run_checked` completes with the same cycle count as the
    /// unsupervised run (progress taps are observation-only).
    #[test]
    fn run_checked_is_invisible_on_healthy_runs() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut plain = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
        let r_plain = plain.run(8_000_000);
        let mut checked = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
        let r_checked = checked
            .run_checked(8_000_000, 10_000)
            .expect("healthy run must not trip the watchdog");
        assert!(r_plain.completed && r_checked.completed);
        assert_eq!(r_plain.cycles, r_checked.cycles, "taps must be invisible");
    }
}

#[cfg(test)]
mod api_tests {
    use super::*;
    use crate::workloads::{orchestrator_program, run_workload_soc, vec_mul};

    #[test]
    fn builder_validates_configs() {
        let cfg = SocConfig::builder()
            .fidelity(Fidelity::SimAccurate)
            .lanes(8)
            .gmem_words(2048)
            .build()
            .expect("valid config");
        assert_eq!(cfg.lanes, 8);
        assert_eq!(cfg.gmem_words, 2048);

        assert_eq!(
            SocConfig::builder().gmem_words(5000).build(),
            Err(ConfigError::GmemTooLarge {
                words: 5000,
                max: 4096
            })
        );
        assert_eq!(
            SocConfig::builder().lanes(0).build(),
            Err(ConfigError::ZeroLanes)
        );
        assert_eq!(
            SocConfig::builder().link_depth(0).build(),
            Err(ConfigError::ZeroLinkDepth)
        );
        assert_eq!(
            SocConfig::builder().period(Picoseconds::new(0)).build(),
            Err(ConfigError::ZeroPeriod)
        );
        // Errors render as actionable messages naming the values.
        let msg = ConfigError::GmemTooLarge {
            words: 5000,
            max: 4096,
        }
        .to_string();
        assert!(msg.contains("5000") && msg.contains("4096"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "invalid SocConfig")]
    fn build_rejects_invalid_config() {
        let cfg = SocConfig {
            gmem_words: 1 << 16,
            ..SocConfig::default()
        };
        let _ = Soc::build(cfg, &[], &[], &[]);
    }

    #[test]
    fn fault_pattern_mismatch_is_typed() {
        let mut soc = Soc::build(SocConfig::default(), &orchestrator_program(), &[], &[]);
        let err = soc
            .inject_fault("no.such.channel", FaultConfig::drop(1.0), 1)
            .unwrap_err();
        assert_eq!(
            err,
            FaultPatternError::NoMatch {
                pattern: "no.such.channel".into()
            }
        );
        assert!(err.to_string().contains("no.such.channel"));
        assert!(soc.fault_stats("no.such.channel").is_err());
        // A matching pattern with no injector armed reports zeroes.
        assert_eq!(
            soc.fault_stats("n5.eject").expect("channel exists"),
            FaultStats::default()
        );
    }

    #[test]
    fn report_is_consistent_and_json_renders() {
        let (_, ok, soc) = run_workload_soc(SocConfig::default(), &vec_mul(), 8_000_000);
        assert!(ok);
        let rep = soc.report();
        assert_eq!(
            rep.hub.dispatched, rep.hub.retired,
            "every dispatched command retires on a healthy run"
        );
        assert!(rep.hub.dispatched >= 4);
        assert_eq!(rep.pes.len(), 15, "one entry per PE node");
        let pe_cmds: u64 = rep.pes.iter().map(|p| p.commands).sum();
        assert_eq!(pe_cmds, rep.hub.retired, "PE and hub command counts agree");
        assert_eq!(rep.total_work_units, soc.total_work_units());
        assert_eq!(rep.charged_gates, 0, "sim-accurate charges nothing");
        assert!(rep.noc.transfers > 0, "flits moved");
        assert!(rep.hub.jobs >= 20);
        assert!(rep.hub.latency_p50 <= rep.hub.latency_p99);
        assert_eq!(rep.faults.armed_channels, 0);
        assert!(rep.plan.is_none());

        let json = rep.to_json();
        for key in [
            "\"hub\"",
            "\"dispatched\"",
            "\"pes\"",
            "\"noc\"",
            "\"faults\"",
            "\"plan\": null",
            "\"charged_gates\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    /// The PR 4 tuple-shim replacements stay pinned: the typed
    /// [`HubReport`] accessors cover everything `hub_counters()` /
    /// `degradation()` used to return, with internally consistent
    /// command flow.
    #[test]
    fn report_pins_retired_tuple_accessors() {
        let (_, ok, soc) = run_workload_soc(SocConfig::default(), &vec_mul(), 8_000_000);
        assert!(ok);
        let rep = soc.report();
        // hub_counters().0/.1 → dispatched/retired.
        assert!(rep.hub.dispatched > 0);
        assert_eq!(rep.hub.dispatched, rep.hub.retired);
        // degradation().0/.1 → failed_pes/remapped (clean run: none).
        assert!(rep.hub.failed_pes.is_empty());
        assert_eq!(rep.hub.remapped, 0);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::workloads::{orchestrator_program, table_words, vec_mul};

    fn run_with(tel: Option<Telemetry>) -> (RunResult, Soc) {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut soc =
            Soc::build_with_telemetry(SocConfig::default(), &program, &table, &wl.gmem_init, tel);
        let r = soc.run(8_000_000);
        (r, soc)
    }

    /// The observation-only contract: a run with a telemetry sink (and
    /// tick profiling armed) is bit-identical to one without — and the
    /// instrumented run actually observed something.
    #[test]
    fn telemetry_is_observation_only() {
        let (r_off, soc_off) = run_with(None);
        let tel = Telemetry::new();
        tel.set_profiling(true);
        let (r_on, soc_on) = run_with(Some(tel.clone()));
        assert!(r_off.completed && r_on.completed);
        assert_eq!(
            r_off.cycles, r_on.cycles,
            "telemetry must not change timing"
        );
        assert_eq!(r_off.ctrl, r_on.ctrl);
        assert_eq!(soc_off.report(), soc_on.report());
        assert!(soc_off.telemetry_snapshot().is_none());

        assert!(tel.spans_recorded() > 0, "hub/PE spans recorded");
        let snap = soc_on.telemetry_snapshot().expect("built with telemetry");
        assert!(snap.metric("soc.hub.dispatched").unwrap() >= 4);
        assert_eq!(
            snap.metric("soc.hub.retired"),
            snap.metric("soc.hub.dispatched")
        );
        assert!(snap.metric("soc.pe3.commands").is_some());
        assert!(
            snap.metric("noc.n15.eject.transfers").unwrap() > 0,
            "hub ejection channel carried flits"
        );
        assert!(!snap.profile.is_empty(), "tick profiling captured");
        assert!(snap.spans.iter().any(|e| e.label == "retire"));
        assert!(snap.spans.iter().any(|e| e.label == "done"));
        assert!(snap.to_json().contains("\"metrics\""));
    }

    /// Degradation leaves a span trail: the timed-out command's span
    /// ends with `timeout_failed` and the re-dispatch carries a
    /// `remapped` point.
    #[test]
    fn spans_capture_timeout_and_remap() {
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let tel = Telemetry::new();
        let cfg = SocConfig {
            pe_timeout: Some(20_000),
            ..SocConfig::default()
        };
        let mut soc =
            Soc::build_with_telemetry(cfg, &program, &table, &wl.gmem_init, Some(tel.clone()));
        soc.inject_fault("n2.eject", FaultConfig::stuck_valid(0), 7)
            .expect("channel exists");
        let r = soc
            .run_checked(8_000_000, 200_000)
            .expect("degraded run recovers");
        assert!(r.completed);
        let snap = soc.telemetry_snapshot().expect("built with telemetry");
        assert!(snap.spans.iter().any(|e| e.label == "timeout_failed"));
        assert!(snap.spans.iter().any(|e| e.label == "remapped"));
        assert!(snap.metric("noc.n2.eject.faults_injected").is_some());
        assert_eq!(snap.metric("soc.hub.failed_pes"), Some(1));
    }
}
