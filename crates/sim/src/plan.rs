//! Compiled instant-plan state: the data behind the kernel's
//! dispatch-free steady-state fast path.
//!
//! When every unpaused clock shares one period and phase (the default
//! `Synchronous` SoC clocking), the per-instant schedule is static: the
//! same components are eligible at every edge, in the same delivery
//! order, and the same sequentials commit afterwards. [`PlanState`]
//! freezes that schedule at arm time — dense ranks instead of the
//! per-clock scan, an `active` worklist instead of per-component
//! asleep checks, and notify sinks (see `activity`) instead of the
//! commit-phase dirty-token sweep.
//!
//! The plan is an *accelerator*, never an authority: every activity
//! token keeps its flag as the source of truth, so the kernel can
//! disarm the plan between (or even inside) instants and the
//! interpreted loop resumes bit-identically. Irregular events —
//! clock pause/resume or stretch/override requests, structural
//! mutation, gating or profiling toggles, watchdog trips, externally
//! moved clock edges — all route through the kernel's plan guard and
//! de-opt (`Simulator::disarm_plan`), incrementing the
//! `sim.plan.deopt_count` telemetry counter.
//!
//! Invariants the kernel maintains while a plan is armed:
//!
//! * `active` holds exactly the ranks of awake scheduled components,
//!   ascending (= interpreted delivery order).
//! * For every **asleep** scheduled component whose wake flag is set,
//!   a wake candidate exists in `deferred` or in `wake_sink` — seeded
//!   at arm time, by the sink on each false→true flag transition, or
//!   by the sleep-time flag check. Candidates are hints: the flag is
//!   re-checked on drain, so stale entries are harmless.
//! * `epoch - seq_seen[rank]` is the number of commits a gated
//!   sequential has skipped since its last real commit; settling this
//!   (via `commit_skipped`) is all a disarm owes the sequentials.

use crate::activity::NotifySink;

/// Frozen steady-state schedule plus the mutable worklists the fast
/// path runs on. Boxed inside the kernel so arming and the per-phase
/// take/put-back are pointer moves.
pub(crate) struct PlanState {
    /// Unpaused clock ids, ascending; all share period and next edge.
    pub(crate) clocks: Vec<usize>,
    /// Component indices in interpreted delivery order (clock id
    /// order, registration order within a clock). A component's
    /// position here is its *rank*; sink slots and worklists speak
    /// ranks.
    pub(crate) order: Vec<u32>,
    /// Ranks of awake components, ascending.
    pub(crate) active: Vec<u32>,
    /// Receives ranks of components whose wake flag transitioned
    /// false→true.
    pub(crate) wake_sink: NotifySink,
    /// Drain buffer for `wake_sink`.
    pub(crate) wake_scratch: Vec<u32>,
    /// Wake candidates whose edge for this instant already passed (or
    /// that went to sleep with their flag still set): merged into the
    /// next instant's `pending` walk.
    pub(crate) deferred: Vec<u32>,
    /// This instant's sorted wake-candidate worklist. Candidates are
    /// checked (and their flag consumed) only when the merge walk
    /// reaches their rank — the exact point the interpreted scan would
    /// perform its asleep/take check — never earlier. Taking the flag
    /// at notify time or at instant start would let a later same-instant
    /// set re-raise the flag and schedule a spurious wake.
    pub(crate) pending: Vec<u32>,
    /// Sequential indices in interpreted commit order; position = rank.
    pub(crate) seq_order: Vec<u32>,
    /// Ranks of ungated sequentials (commit unconditionally), ascending.
    pub(crate) always: Vec<u32>,
    /// Receives ranks of gated sequentials whose dirty flag
    /// transitioned false→true.
    pub(crate) dirty_sink: NotifySink,
    /// Drain buffer for `dirty_sink`.
    pub(crate) dirty_scratch: Vec<u32>,
    /// Instants committed under this plan.
    pub(crate) epoch: u64,
    /// Per sequential rank: the epoch after its last real commit;
    /// `epoch - seq_seen[rank]` commits are owed as `commit_skipped`.
    pub(crate) seq_seen: Vec<u64>,
}

/// Why [`Simulator::arm_plan`](crate::Simulator::arm_plan) declined to
/// compile a plan. Arming is strictly opportunistic — every rejection
/// leaves the interpreted path (the golden reference) in charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReject {
    /// An instant is open (`eval_instant` without its commit).
    MidInstant,
    /// Quiescence gating is off; the plan's worklists are built on it.
    GatingDisabled,
    /// Tick profiling attributes per-component wall clock; the fast
    /// path deliberately has no timing hooks.
    TickProfiling,
    /// A fatal arithmetic fault is pending.
    FatalPending,
    /// No unpaused clock: nothing to schedule.
    NoActiveClock,
    /// Unpaused clocks disagree on period or phase, or a period
    /// override is pending — the instant schedule is not steady-state.
    IrregularClocks,
    /// Two scheduled components share one wake token; a single notify
    /// slot cannot serve both owners.
    SharedWakeToken,
    /// Two gated sequentials share one dirty token.
    SharedDirtyToken,
}

impl std::fmt::Display for PlanReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlanReject::MidInstant => "an instant is open (eval without commit)",
            PlanReject::GatingDisabled => "quiescence gating is disabled",
            PlanReject::TickProfiling => "tick profiling is enabled",
            PlanReject::FatalPending => "a fatal fault is pending",
            PlanReject::NoActiveClock => "no unpaused clock",
            PlanReject::IrregularClocks => "unpaused clocks are not uniform",
            PlanReject::SharedWakeToken => "a wake token is shared between components",
            PlanReject::SharedDirtyToken => "a dirty token is shared between sequentials",
        };
        f.write_str(s)
    }
}
