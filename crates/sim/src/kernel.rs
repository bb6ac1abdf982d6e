//! The simulation kernel: a multi-clock, two-phase, cycle-driven
//! scheduler with deterministic ordering.
//!
//! # Execution model
//!
//! Time is an integer picosecond counter. Each registered
//! [`ClockSpec`] produces rising edges; the kernel repeatedly:
//!
//! 1. finds the earliest pending edge time `t` across all domains,
//! 2. **evaluate phase** — ticks every component of every domain with an
//!    edge at `t` (domains in id order, components in registration
//!    order),
//! 3. **commit phase** — commits every [`Sequential`] registered on
//!    those domains (same deterministic order),
//! 4. applies deferred clock requests (stretch/override) and schedules
//!    each ticked domain's next edge.
//!
//! Because reads during evaluate always observe state committed at an
//! earlier instant, the model is flip-flop accurate and insensitive to
//! registration order for well-formed designs.
//!
//! # Scheduling
//!
//! Step 1 does not rescan every domain. The kernel keeps an indexed
//! next-edge structure — a min-heap of `(next_edge, clock)` pairs with
//! lazy invalidation (an entry is stale when its clock is paused or
//! has since been rescheduled; stale entries are dropped when popped) —
//! so finding the earliest instant is O(log #clocks). When exactly one
//! unpaused domain exists (the common case for single-clock benches)
//! even the heap is bypassed: the next instant is that domain's
//! `next_edge`, read directly.
//!
//! # Quiescence gating
//!
//! Components may opt into being skipped while idle: a component that
//! registered a wake token ([`Simulator::set_wake_token`]) and reports
//! [`Component::is_quiescent`] after a tick is put to sleep, and its
//! ticks are elided until some activity source sets the token (e.g. a
//! channel push landing in its input). Wake-up is checked at the
//! sleeper's own edges, in registration order, so delivery order among
//! awake components is exactly what an ungated run produces. Likewise,
//! sequentials registered with a dirty token
//! ([`Simulator::add_sequential_gated`]) have clean commits elided and
//! receive an arithmetic catch-up ([`Sequential::commit_skipped`])
//! before their next real commit or at the end of every `run_*` call.
//! Gating changes [`Simulator::ticks_delivered`] (it is a work proxy)
//! but never [`Simulator::cycles`], simulation time, or any committed
//! state — determinism is the contract, and
//! [`Simulator::set_gating`] exists so tests can prove it.
//!
//! # Compiled instant plan
//!
//! When the schedule is steady-state — every unpaused clock on one
//! period and phase — [`Simulator::arm_plan`] freezes it into a flat
//! plan (see the `plan` module) and both phases switch to a fast path:
//! the evaluate phase walks an `active` worklist of awake components
//! instead of scanning every registration, and the commit phase walks
//! only the sequentials whose dirty token actually transitioned
//! (delivered by notify sinks) plus the always-commit list. The
//! interpreted loop remains the golden reference; the plan reproduces
//! its observable behaviour exactly and *de-opts* (disarms) on any
//! irregular event — structural changes, clock pause/resume or
//! stretch/override, gating/profiling toggles, watchdog trips.

use crate::activity::{ActivityToken, NotifySink};
use crate::checkpoint::{KernelDigest, WatchdogState};
use crate::clock::{ClockId, ClockSpec, ClockState};
use crate::component::{ClockRequest, Component, Sequential, TickCtx};
use crate::error::{CompDiag, HangReport, SimError};
use crate::plan::{PlanReject, PlanState};
use crate::telemetry::TickProfile;
use crate::time::Picoseconds;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Handle to a component registered with a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(usize);

struct ComponentEntry {
    clock: ClockId,
    component: Box<dyn Component>,
    /// Activity source that can rouse this component; `None` means the
    /// component never sleeps.
    wake: Option<ActivityToken>,
    /// While `true`, evaluate-phase ticks are elided until `wake` fires.
    asleep: bool,
}

struct SequentialEntry {
    state: Rc<RefCell<dyn Sequential>>,
    /// Set by writers when a commit has staged work; `None` means the
    /// sequential commits unconditionally every edge.
    dirty: Option<ActivityToken>,
    /// Clean commits elided since the last real commit / catch-up.
    skipped: u64,
}

/// Cycle-driven multi-clock simulator.
///
/// ```
/// use craft_sim::{ClockSpec, Component, Picoseconds, Simulator, TickCtx};
///
/// struct Counter { n: u64 }
/// impl Component for Counter {
///     fn name(&self) -> &str { "counter" }
///     fn tick(&mut self, _ctx: &mut TickCtx<'_>) { self.n += 1; }
/// }
///
/// let mut sim = Simulator::new();
/// let clk = sim.add_clock(ClockSpec::new("main", Picoseconds::from_ghz(1.0)));
/// sim.add_component(clk, Counter { n: 0 });
/// sim.run_cycles(clk, 10);
/// assert_eq!(sim.cycles(clk), 10);
/// ```
pub struct Simulator {
    clocks: Vec<ClockState>,
    components: Vec<ComponentEntry>,
    /// Component indices per clock domain, in registration order.
    by_clock: Vec<Vec<usize>>,
    sequentials: Vec<SequentialEntry>,
    seq_by_clock: Vec<Vec<usize>>,
    now: Picoseconds,
    /// Total evaluate/commit instants processed.
    instants: u64,
    /// Total component ticks delivered (a wall-clock-cost proxy).
    ticks_delivered: u64,
    /// Ticks elided because the component was asleep.
    ticks_skipped: u64,
    /// Sequential commits elided because the dirty token was clear.
    commits_skipped: u64,
    /// Master switch for quiescence gating (on by default).
    gating: bool,
    stop_requested: bool,
    clock_requests: Vec<ClockRequest>,
    edge_scratch: Vec<usize>,
    /// Indexed next-edge structure: min-heap of `(next_edge, clock)`
    /// with lazy invalidation (entry is stale when the clock is paused
    /// or `next_edge` moved). Unused while `single_active` is `Some`.
    edge_heap: BinaryHeap<Reverse<(Picoseconds, usize)>>,
    /// Whether `edge_heap` holds an entry for every unpaused clock's
    /// current edge. Cleared by structural changes (add/pause/resume,
    /// single-clock mode) and restored by a rebuild on demand.
    heap_synced: bool,
    /// `Some(i)` when clock `i` is the only unpaused domain — the
    /// fast path that bypasses the heap and the edge gather entirely.
    single_active: Option<usize>,
    /// First internal arithmetic fault (time/stretch overflow). The
    /// offending clock is paused so runs terminate; `*_checked` run
    /// methods surface the error, plain runs leave it queryable via
    /// [`Simulator::fatal`].
    fatal: Option<SimError>,
    /// Shared progress flag for the hang watchdog: activity sources
    /// (channel pushes/pops, component wake-ups) set it; the
    /// `*_checked` run methods clear it once per reference-clock cycle
    /// and count how long it stays clear.
    progress: ActivityToken,
    /// When set, every delivered tick is timed with `Instant` and
    /// attributed to its component (telemetry's tick-profiling hook).
    tick_profiling: bool,
    /// Per-component `(nanos, ticks)` accumulated while profiling was
    /// on, indexed like `components`.
    tick_costs: Vec<(u64, u64)>,
    /// `true` between [`Simulator::eval_instant`] and the matching
    /// [`Simulator::commit_instant`] — the fired-clock list in
    /// `instant_edges` is live.
    mid_instant: bool,
    /// Clocks that fired at the instant currently being processed,
    /// carried from the evaluate phase to the commit phase.
    instant_edges: Vec<usize>,
    /// Compiled steady-state schedule, when armed
    /// ([`Simulator::arm_plan`]). `eval_instant`/`commit_instant`
    /// dispatch to the plan fast path while this is `Some`; any
    /// irregular event disarms it and the interpreted loop resumes.
    plan: Option<Box<PlanState>>,
    /// De-opts (plan disarms) so far — `Rc` so telemetry probes can
    /// observe it live (`sim.plan.deopt_count`).
    plan_deopts: Rc<Cell<u64>>,
    /// Instants executed by the compiled plan (`sim.plan.instants`).
    plan_instants: Rc<Cell<u64>>,
    /// 1 while a plan is armed, 0 otherwise (`sim.plan.armed`).
    plan_armed_flag: Rc<Cell<u64>>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            clocks: Vec::new(),
            components: Vec::new(),
            by_clock: Vec::new(),
            sequentials: Vec::new(),
            seq_by_clock: Vec::new(),
            now: Picoseconds::ZERO,
            instants: 0,
            ticks_delivered: 0,
            ticks_skipped: 0,
            commits_skipped: 0,
            gating: true,
            stop_requested: false,
            clock_requests: Vec::new(),
            edge_scratch: Vec::new(),
            edge_heap: BinaryHeap::new(),
            heap_synced: false,
            single_active: None,
            fatal: None,
            progress: ActivityToken::new(),
            tick_profiling: false,
            tick_costs: Vec::new(),
            mid_instant: false,
            instant_edges: Vec::new(),
            plan: None,
            plan_deopts: Rc::new(Cell::new(0)),
            plan_instants: Rc::new(Cell::new(0)),
            plan_armed_flag: Rc::new(Cell::new(0)),
        }
    }

    /// Registers a clock domain and returns its id.
    pub fn add_clock(&mut self, spec: ClockSpec) -> ClockId {
        self.disarm_plan();
        let id = ClockId(self.clocks.len());
        self.clocks.push(ClockState::new(spec));
        self.by_clock.push(Vec::new());
        self.seq_by_clock.push(Vec::new());
        self.heap_synced = false;
        self.recompute_single_active();
        id
    }

    /// Registers `component` on clock domain `clock`.
    ///
    /// # Panics
    /// Panics if `clock` was not returned by this simulator's
    /// [`add_clock`](Self::add_clock).
    pub fn add_component<C: Component + 'static>(
        &mut self,
        clock: ClockId,
        component: C,
    ) -> ComponentId {
        assert!(clock.0 < self.clocks.len(), "unknown clock domain {clock}");
        self.disarm_plan();
        let id = ComponentId(self.components.len());
        self.components.push(ComponentEntry {
            clock,
            component: Box::new(component),
            wake: None,
            asleep: false,
        });
        self.by_clock[clock.0].push(id.0);
        id
    }

    /// Attaches a wake token to a registered component, opting it into
    /// quiescence gating: once the component reports
    /// [`Component::is_quiescent`] after a tick it sleeps until some
    /// activity source sets the token.
    ///
    /// Hand clones of the same token to everything that can make the
    /// component runnable again — typically its input channels (see
    /// `craft-connections`' `In::set_wake_token`).
    pub fn set_wake_token(&mut self, id: ComponentId, token: ActivityToken) {
        self.disarm_plan();
        self.components[id.0].wake = Some(token);
    }

    /// Registers shared sequential state (typically a channel) for the
    /// commit phase of `clock`.
    ///
    /// # Panics
    /// Panics if `clock` is unknown.
    pub fn add_sequential(&mut self, clock: ClockId, state: Rc<RefCell<dyn Sequential>>) {
        assert!(clock.0 < self.clocks.len(), "unknown clock domain {clock}");
        self.disarm_plan();
        let idx = self.sequentials.len();
        self.sequentials.push(SequentialEntry {
            state,
            dirty: None,
            skipped: 0,
        });
        self.seq_by_clock[clock.0].push(idx);
    }

    /// Like [`add_sequential`](Self::add_sequential), but commits are
    /// elided on edges where `dirty` is clear (no writer staged
    /// anything). Elided commits are reported in bulk via
    /// [`Sequential::commit_skipped`] before the next real commit and
    /// at the end of every `run_*` call, so statistics kept per cycle
    /// stay exact.
    ///
    /// The token starts set, guaranteeing the first commit runs.
    ///
    /// # Panics
    /// Panics if `clock` is unknown.
    pub fn add_sequential_gated(
        &mut self,
        clock: ClockId,
        state: Rc<RefCell<dyn Sequential>>,
        dirty: ActivityToken,
    ) {
        assert!(clock.0 < self.clocks.len(), "unknown clock domain {clock}");
        self.disarm_plan();
        dirty.set();
        let idx = self.sequentials.len();
        self.sequentials.push(SequentialEntry {
            state,
            dirty: Some(dirty),
            skipped: 0,
        });
        self.seq_by_clock[clock.0].push(idx);
    }

    /// Current simulation time.
    pub fn now(&self) -> Picoseconds {
        self.now
    }

    /// Rising edges delivered on `clock` so far.
    pub fn cycles(&self, clock: ClockId) -> u64 {
        self.clocks[clock.0].cycles
    }

    /// Total component ticks delivered across all domains. This grows
    /// with simulation *work* and is used as a wall-cost proxy in
    /// speedup experiments. Quiescence gating lowers it; it is *not*
    /// part of the determinism contract (`cycles`/results are).
    pub fn ticks_delivered(&self) -> u64 {
        self.ticks_delivered
    }

    /// Ticks elided because their component was asleep. Together with
    /// [`ticks_delivered`](Self::ticks_delivered) this accounts for
    /// every component-edge the schedule produced.
    pub fn ticks_skipped(&self) -> u64 {
        self.ticks_skipped
    }

    /// Sequential commits elided because nothing was staged.
    pub fn commits_skipped(&self) -> u64 {
        self.commits_skipped
    }

    /// Total evaluate/commit instants processed.
    pub fn instants(&self) -> u64 {
        self.instants
    }

    /// Exact kernel-progress digest: time, scheduler counters, and the
    /// full clock table. Two simulations that processed the same
    /// instant sequence produce equal digests, so a replay-based
    /// restore verifies itself against the digest recorded at capture.
    /// Compiled-plan *arming* state is deliberately excluded — the
    /// compiled and interpreted paths are pinned tick- and
    /// commit-counter-identical, so arming is unobservable here.
    pub fn kernel_digest(&self) -> KernelDigest {
        KernelDigest {
            now_ps: self.now.0,
            instants: self.instants,
            ticks_delivered: self.ticks_delivered,
            ticks_skipped: self.ticks_skipped,
            commits_skipped: self.commits_skipped,
            clocks: self
                .clocks
                .iter()
                .map(|c| (c.cycles, c.next_edge.0, c.paused))
                .collect(),
        }
    }

    /// Whether quiescence gating is enabled (it is by default).
    pub fn gating(&self) -> bool {
        self.gating
    }

    /// Enables or disables per-component wall-clock tick profiling
    /// (telemetry's tick-time hook). While on, every delivered tick is
    /// timed and attributed to its component; the accumulated profile
    /// is read back via [`tick_profile`](Self::tick_profile).
    /// Profiling is observation-only — it never changes cycles, results
    /// or delivery order — but the `Instant` reads cost wall clock, so
    /// it is off by default.
    pub fn set_tick_profiling(&mut self, on: bool) {
        if on {
            // The plan fast path has no timing hooks.
            self.disarm_plan();
        }
        self.tick_profiling = on;
        if on && self.tick_costs.len() < self.components.len() {
            self.tick_costs.resize(self.components.len(), (0, 0));
        }
    }

    /// Whether tick profiling is currently enabled.
    pub fn tick_profiling(&self) -> bool {
        self.tick_profiling
    }

    /// Per-component wall-clock attribution accumulated while
    /// [`set_tick_profiling`](Self::set_tick_profiling) was on, sorted
    /// by descending total nanoseconds. Components that never ticked
    /// under profiling are omitted.
    pub fn tick_profile(&self) -> Vec<TickProfile> {
        let mut rows: Vec<TickProfile> = self
            .components
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                let &(nanos, ticks) = self.tick_costs.get(i)?;
                if ticks == 0 {
                    return None;
                }
                Some(TickProfile {
                    name: e.component.name().to_string(),
                    clock: self.clocks[e.clock.0].spec.name.clone(),
                    ticks,
                    nanos,
                })
            })
            .collect();
        rows.sort_by(|a, b| b.nanos.cmp(&a.nanos).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Enables or disables quiescence gating. Disabling wakes every
    /// sleeping component and flushes pending commit catch-ups, so a
    /// subsequent run behaves exactly like an ungated simulator.
    /// Results are identical either way; only wall clock and
    /// [`ticks_delivered`](Self::ticks_delivered) differ.
    pub fn set_gating(&mut self, enabled: bool) {
        self.disarm_plan();
        self.gating = enabled;
        if !enabled {
            for entry in &mut self.components {
                entry.asleep = false;
            }
            self.flush_skipped_commits();
        }
    }

    /// Delivers pending [`Sequential::commit_skipped`] catch-ups so
    /// externally read statistics are exact. Called automatically at
    /// the end of every `run_*` method; needed manually only around
    /// raw [`step`](Self::step) loops.
    pub fn flush_skipped_commits(&mut self) {
        // Settle compiled-plan elisions first (without disarming): the
        // plan tracks skipped commits as `epoch - seq_seen` instead of
        // per-entry counters.
        if let Some(plan) = &mut self.plan {
            for (rank, &si) in plan.seq_order.iter().enumerate() {
                let pending = plan.epoch - plan.seq_seen[rank];
                if pending > 0 {
                    self.sequentials[si as usize]
                        .state
                        .borrow_mut()
                        .commit_skipped(pending);
                    self.commits_skipped += pending;
                    plan.seq_seen[rank] = plan.epoch;
                }
            }
        }
        for seq in &mut self.sequentials {
            if seq.skipped > 0 {
                seq.state.borrow_mut().commit_skipped(seq.skipped);
                seq.skipped = 0;
            }
        }
    }

    /// Pauses `clock`: no further edges until [`resume_clock`](Self::resume_clock).
    pub fn pause_clock(&mut self, clock: ClockId) {
        self.disarm_plan();
        self.clocks[clock.0].paused = true;
        self.recompute_single_active();
    }

    /// Resumes a paused clock. The next edge fires one **full period
    /// after `now`**, even when the clock was paused mid-period: a
    /// pausible clock's period, once interrupted, restarts from the
    /// resume point rather than crediting time elapsed before the
    /// pause. This is intentional — `craft-gals::pausible` relies on a
    /// resumed receiver getting a complete, glitch-free period in
    /// which to settle — and pinned by the
    /// `resume_mid_period_restarts_full_period` test.
    pub fn resume_clock(&mut self, clock: ClockId) {
        if self.clocks[clock.0].paused {
            self.disarm_plan();
        }
        let st = &mut self.clocks[clock.0];
        if st.paused {
            let Some(next) = self.now.checked_add(st.spec.period) else {
                // Cannot schedule another edge: leave the clock paused
                // and record the fault instead of panicking.
                let name = st.spec.name.clone();
                let now = self.now;
                self.record_fatal(SimError::TimeOverflow { clock: name, now });
                return;
            };
            st.paused = false;
            st.next_edge = next;
            if self.heap_synced {
                self.edge_heap.push(Reverse((st.next_edge, clock.0)));
            }
            self.recompute_single_active();
        }
    }

    /// True when a component called [`TickCtx::request_stop`].
    pub fn stopped(&self) -> bool {
        self.stop_requested
    }

    /// The first internal arithmetic fault recorded this run, if any.
    /// Plain `run_*` methods terminate on such faults (the offending
    /// clock stops producing edges) but return normally; this is how a
    /// caller distinguishes "finished" from "died of overflow". The
    /// `*_checked` variants surface the same value as an `Err` and
    /// clear it.
    pub fn fatal(&self) -> Option<&SimError> {
        self.fatal.as_ref()
    }

    /// Takes (and clears) the recorded fatal error.
    pub fn take_fatal(&mut self) -> Option<SimError> {
        self.fatal.take()
    }

    fn record_fatal(&mut self, err: SimError) {
        // Keep the first fault: later ones are usually a consequence.
        if self.fatal.is_none() {
            self.fatal = Some(err);
        }
        self.stop_requested = true;
    }

    /// A clone of the kernel's progress token. Hand clones to every
    /// activity source that should count as forward progress for the
    /// hang watchdog — typically data channels (see
    /// `craft-connections`' `ChannelHandle::set_progress_token`).
    /// Component wake-ups set it automatically.
    ///
    /// [`run_until_checked`](Self::run_until_checked) counts
    /// reference-clock cycles during which the token stays clear;
    /// without any wired source every cycle looks idle, so wire the
    /// token before using a watchdog.
    pub fn progress_token(&self) -> ActivityToken {
        self.progress.clone()
    }

    /// Clears a pending stop request so `run_*` can be called again.
    pub fn clear_stop(&mut self) {
        self.stop_requested = false;
    }

    /// `Some(i)` iff clock `i` is the only unpaused domain.
    fn recompute_single_active(&mut self) {
        let mut it = self.clocks.iter().enumerate().filter(|(_, c)| !c.paused);
        self.single_active = match (it.next(), it.next()) {
            (Some((i, _)), None) => Some(i),
            _ => None,
        };
        if self.single_active.is_some() {
            // The heap is not maintained on the fast path; rebuild it
            // lazily if multi-domain scheduling ever resumes.
            self.heap_synced = false;
        }
    }

    fn rebuild_heap(&mut self) {
        self.edge_heap.clear();
        for (i, c) in self.clocks.iter().enumerate() {
            if !c.paused {
                self.edge_heap.push(Reverse((c.next_edge, i)));
            }
        }
        self.heap_synced = true;
    }

    fn next_instant(&mut self) -> Option<Picoseconds> {
        if let Some(i) = self.single_active {
            return Some(self.clocks[i].next_edge);
        }
        if !self.heap_synced {
            self.rebuild_heap();
        }
        // Lazy invalidation: drop stale entries (paused or rescheduled
        // clocks) until a live one surfaces.
        while let Some(&Reverse((t, i))) = self.edge_heap.peek() {
            let c = &self.clocks[i];
            if !c.paused && c.next_edge == t {
                return Some(t);
            }
            self.edge_heap.pop();
        }
        None
    }

    /// Advances by exactly one instant (one batch of simultaneous
    /// edges). Returns `false` when no clock has a pending edge.
    ///
    /// Note on statistics: commits elided by quiescence gating are
    /// only caught up at `run_*` boundaries; call
    /// [`flush_skipped_commits`](Self::flush_skipped_commits) before
    /// reading per-cycle statistics from a raw `step` loop.
    pub fn step(&mut self) -> bool {
        if !self.eval_instant() {
            return false;
        }
        self.commit_instant();
        true
    }

    /// Time of the earliest pending edge, without advancing. `&mut`
    /// because the lazily invalidated edge heap may need a rebuild.
    pub fn peek_next_instant(&mut self) -> Option<Picoseconds> {
        self.next_instant()
    }

    /// The evaluate half of [`step`](Self::step): advances time to the
    /// earliest pending instant and ticks every component with an edge
    /// there, but performs **no commits and no clock rescheduling** —
    /// those happen in the matching [`commit_instant`](Self::commit_instant).
    ///
    /// This split is the hook the parallel epoch scheduler uses: all
    /// shards evaluate an instant concurrently (reads observe state
    /// committed at earlier instants only), synchronize on a barrier,
    /// then all commit. A plain `step()` is `eval_instant()` +
    /// `commit_instant()`.
    ///
    /// Returns `false` (and opens no instant) when no edges remain.
    ///
    /// # Panics
    /// Panics if an instant is already open (missing `commit_instant`).
    pub fn eval_instant(&mut self) -> bool {
        assert!(
            !self.mid_instant,
            "eval_instant called with an instant already open"
        );
        if self.plan.is_some() {
            return self.plan_eval();
        }
        let Some(t) = self.next_instant() else {
            return false;
        };
        self.now = t;
        self.instants += 1;
        if self.tick_profiling && self.tick_costs.len() < self.components.len() {
            self.tick_costs.resize(self.components.len(), (0, 0));
        }

        // Gather domains with an edge now, in id order. On the
        // single-clock fast path that is just the active clock; in
        // multi-domain mode, drain the heap's `== t` prefix, which
        // pops in ascending clock id for equal times (duplicates and
        // stale entries are filtered).
        self.edge_scratch.clear();
        if let Some(i) = self.single_active {
            self.edge_scratch.push(i);
        } else {
            while let Some(&Reverse((et, i))) = self.edge_heap.peek() {
                if et != t {
                    break;
                }
                self.edge_heap.pop();
                let c = &self.clocks[i];
                if !c.paused && c.next_edge == t && self.edge_scratch.last() != Some(&i) {
                    self.edge_scratch.push(i);
                }
            }
        }
        let edges = std::mem::take(&mut self.edge_scratch);

        // Evaluate phase.
        for &ci in &edges {
            let cycle = self.clocks[ci].cycles;
            for comp_pos in 0..self.by_clock[ci].len() {
                let comp_idx = self.by_clock[ci][comp_pos];
                let entry = &mut self.components[comp_idx];
                if entry.asleep {
                    let woke = entry.wake.as_ref().is_some_and(ActivityToken::take);
                    if woke {
                        entry.asleep = false;
                        // A sleeper coming back to life is forward
                        // progress even before its channels move data.
                        self.progress.set();
                    } else {
                        self.ticks_skipped += 1;
                        continue;
                    }
                }
                let mut ctx = TickCtx {
                    now: t,
                    cycle,
                    clock: entry.clock,
                    clock_requests: &mut self.clock_requests,
                    stop: &mut self.stop_requested,
                };
                if self.tick_profiling {
                    let t0 = std::time::Instant::now();
                    entry.component.tick(&mut ctx);
                    let dt = t0.elapsed().as_nanos() as u64;
                    let slot = &mut self.tick_costs[comp_idx];
                    slot.0 += dt;
                    slot.1 += 1;
                } else {
                    entry.component.tick(&mut ctx);
                }
                self.ticks_delivered += 1;
                // The quiescence check runs post-tick so it sees
                // everything the component just staged. The wake token
                // is deliberately NOT cleared here: activity flagged
                // earlier this instant (e.g. a pop freeing space) must
                // survive into the next edge's wake check.
                if self.gating && entry.wake.is_some() && entry.component.is_quiescent() {
                    entry.asleep = true;
                }
            }
        }
        self.instant_edges = edges;
        self.mid_instant = true;
        true
    }

    /// The commit half of [`step`](Self::step): commits every
    /// sequential on the clocks that fired at the instant opened by
    /// [`eval_instant`](Self::eval_instant), applies deferred clock
    /// requests, and schedules the fired clocks' next edges.
    ///
    /// # Panics
    /// Panics if no instant is open.
    pub fn commit_instant(&mut self) {
        assert!(
            self.mid_instant,
            "commit_instant without a matching eval_instant"
        );
        if self.plan.is_some() {
            self.plan_commit();
            return;
        }
        self.mid_instant = false;
        let t = self.now;
        let edges = std::mem::take(&mut self.instant_edges);

        // Commit phase. Gated sequentials whose dirty token is clear
        // are elided; their per-cycle bookkeeping is reconciled via
        // `commit_skipped` immediately before the next real commit (so
        // catch-up arithmetic always runs against the state the
        // skipped cycles actually had).
        for &ci in &edges {
            for &seq_idx in &self.seq_by_clock[ci] {
                let seq = &mut self.sequentials[seq_idx];
                let dirty = match &seq.dirty {
                    Some(token) if self.gating => token.take(),
                    _ => true,
                };
                if dirty {
                    let mut state = seq.state.borrow_mut();
                    if seq.skipped > 0 {
                        state.commit_skipped(seq.skipped);
                        seq.skipped = 0;
                    }
                    state.commit();
                } else {
                    seq.skipped += 1;
                    self.commits_skipped += 1;
                }
            }
        }

        // Apply deferred clock requests, then schedule next edges.
        self.apply_clock_requests();
        for &ci in &edges {
            if self.clocks[ci].advance() {
                if self.heap_synced {
                    self.edge_heap
                        .push(Reverse((self.clocks[ci].next_edge, ci)));
                }
            } else {
                // `advance` paused the clock; record the fault and let
                // the scheduler forget about this domain.
                let name = self.clocks[ci].spec.name.clone();
                self.record_fatal(SimError::TimeOverflow {
                    clock: name,
                    now: t,
                });
                self.recompute_single_active();
            }
        }
        self.edge_scratch = edges;
    }

    /// Applies (and drains) deferred [`ClockRequest`]s — the shared
    /// tail of the interpreted and compiled commit phases. Records a
    /// fatal on stretch overflow.
    fn apply_clock_requests(&mut self) {
        if self.clock_requests.is_empty() {
            return;
        }
        let t = self.now;
        let mut request_fault: Option<SimError> = None;
        for req in self.clock_requests.drain(..) {
            match req {
                ClockRequest::Stretch { clock, extra } => {
                    let st = &mut self.clocks[clock.0];
                    let base = st.next_period_override.unwrap_or(st.spec.period);
                    match base.checked_add(extra) {
                        Some(stretched) => st.next_period_override = Some(stretched),
                        None => {
                            request_fault.get_or_insert(SimError::ClockStretchOverflow {
                                clock: st.spec.name.clone(),
                                now: t,
                            });
                        }
                    }
                }
                ClockRequest::OverridePeriod { clock, period } => {
                    self.clocks[clock.0].next_period_override = Some(period);
                }
                ClockRequest::SetNominalPeriod { clock, period } => {
                    assert!(period > Picoseconds::ZERO, "clock period must be nonzero");
                    self.clocks[clock.0].spec.period = period;
                }
            }
        }
        if let Some(err) = request_fault {
            self.record_fatal(err);
        }
    }

    /// Compiles the current steady-state schedule into an instant plan
    /// and arms it: while armed, [`eval_instant`](Self::eval_instant) /
    /// [`commit_instant`](Self::commit_instant) (and therefore every
    /// `run_*` method) execute a dispatch-lean fast path that walks
    /// only awake components and only dirty sequentials, skipping the
    /// per-edge scans entirely.
    ///
    /// Arming requires a *regular* schedule: quiescence gating on, no
    /// tick profiling, no open instant, no pending fatal, and every
    /// unpaused clock sharing one period and phase with no override
    /// pending. Otherwise a [`PlanReject`] explains why and the
    /// interpreted path — the golden reference — simply remains in
    /// charge.
    ///
    /// The plan preserves the interpreted path's observable behaviour
    /// exactly: committed state, `cycles`, `ticks_delivered`,
    /// `ticks_skipped`, `commits_skipped`, progress/watchdog timing and
    /// hang reports are all identical. Any irregular event — structural
    /// mutation, gating/profiling toggles, clock pause/resume or
    /// stretch/override requests, an externally moved clock edge, a
    /// watchdog trip — automatically disarms the plan (a *de-opt*,
    /// counted in [`plan_deopt_count`](Self::plan_deopt_count)) and the
    /// interpreted loop resumes mid-run with no state loss: activity
    /// token flags stay authoritative while armed (notify sinks are
    /// pure acceleration), so nothing needs reconstructing.
    ///
    /// Arming when already armed is a no-op.
    pub fn arm_plan(&mut self) -> Result<(), PlanReject> {
        if self.plan.is_some() {
            return Ok(());
        }
        if self.mid_instant {
            return Err(PlanReject::MidInstant);
        }
        if !self.gating {
            return Err(PlanReject::GatingDisabled);
        }
        if self.tick_profiling {
            return Err(PlanReject::TickProfiling);
        }
        if self.fatal.is_some() {
            return Err(PlanReject::FatalPending);
        }
        let clocks: Vec<usize> = (0..self.clocks.len())
            .filter(|&i| !self.clocks[i].paused)
            .collect();
        let Some((&first, rest)) = clocks.split_first() else {
            return Err(PlanReject::NoActiveClock);
        };
        let f = &self.clocks[first];
        if f.next_period_override.is_some() {
            return Err(PlanReject::IrregularClocks);
        }
        for &ci in rest {
            let c = &self.clocks[ci];
            if c.spec.period != f.spec.period
                || c.next_edge != f.next_edge
                || c.next_period_override.is_some()
            {
                return Err(PlanReject::IrregularClocks);
            }
        }

        // Zero the per-entry skip counters so the plan's epoch-based
        // accounting starts from a settled state.
        self.flush_skipped_commits();

        let mut order: Vec<u32> = Vec::new();
        for &ci in &clocks {
            order.extend(self.by_clock[ci].iter().map(|&i| i as u32));
        }
        let mut seq_order: Vec<u32> = Vec::new();
        for &ci in &clocks {
            seq_order.extend(self.seq_by_clock[ci].iter().map(|&i| i as u32));
        }

        let wake_sink = NotifySink::new();
        let dirty_sink = NotifySink::new();
        let mut active: Vec<u32> = Vec::new();
        let mut deferred: Vec<u32> = Vec::new();
        for (rank, &idx) in order.iter().enumerate() {
            let entry = &self.components[idx as usize];
            if let Some(token) = &entry.wake {
                match token.attach_notify(&wake_sink, rank as u32) {
                    // A sleeper whose flag is already set is due a wake
                    // check at the next instant; no sink notification
                    // will come for an already-set flag, so queue it.
                    Some(was_set) => {
                        if entry.asleep && was_set {
                            deferred.push(rank as u32);
                        }
                    }
                    None => {
                        for &j in &order[..rank] {
                            if let Some(t) = &self.components[j as usize].wake {
                                t.detach_notify();
                            }
                        }
                        return Err(PlanReject::SharedWakeToken);
                    }
                }
            }
            if !entry.asleep {
                active.push(rank as u32);
            }
        }
        let mut always: Vec<u32> = Vec::new();
        for (rank, &si) in seq_order.iter().enumerate() {
            let seq = &self.sequentials[si as usize];
            match &seq.dirty {
                Some(token) => match token.attach_notify(&dirty_sink, rank as u32) {
                    // An already-dirty sequential must commit at the
                    // next instant: seed the sink by hand.
                    Some(true) => dirty_sink.push(rank as u32),
                    Some(false) => {}
                    None => {
                        for &j in &order {
                            if let Some(t) = &self.components[j as usize].wake {
                                t.detach_notify();
                            }
                        }
                        for &j in &seq_order[..rank] {
                            if let Some(t) = &self.sequentials[j as usize].dirty {
                                t.detach_notify();
                            }
                        }
                        return Err(PlanReject::SharedDirtyToken);
                    }
                },
                None => always.push(rank as u32),
            }
        }

        let seq_seen = vec![0u64; seq_order.len()];
        // The plan does not maintain the edge heap; force a rebuild
        // whenever the interpreted scheduler next needs it.
        self.heap_synced = false;
        self.plan_armed_flag.set(1);
        self.plan = Some(Box::new(PlanState {
            clocks,
            order,
            active,
            wake_sink,
            wake_scratch: Vec::new(),
            deferred,
            pending: Vec::new(),
            seq_order,
            always,
            dirty_sink,
            dirty_scratch: Vec::new(),
            epoch: 0,
            seq_seen,
        }));
        Ok(())
    }

    /// Disarms the compiled plan (a *de-opt*): settles the plan's
    /// skipped-commit accounting, detaches every notify sink, and hands
    /// control back to the interpreted path. Safe at any point,
    /// including between an `eval_instant` and its `commit_instant` —
    /// token flags remain the source of truth while armed, so the
    /// interpreted loop resumes with exactly the state it would have
    /// had. No-op when no plan is armed.
    pub fn disarm_plan(&mut self) {
        let Some(plan) = self.plan.take() else {
            return;
        };
        for (rank, &si) in plan.seq_order.iter().enumerate() {
            let pending = plan.epoch - plan.seq_seen[rank];
            if pending > 0 {
                self.sequentials[si as usize]
                    .state
                    .borrow_mut()
                    .commit_skipped(pending);
                self.commits_skipped += pending;
            }
            if let Some(token) = &self.sequentials[si as usize].dirty {
                token.detach_notify();
            }
        }
        for &idx in &plan.order {
            if let Some(token) = &self.components[idx as usize].wake {
                token.detach_notify();
            }
        }
        self.plan_armed_flag.set(0);
        self.plan_deopts.set(self.plan_deopts.get() + 1);
        self.heap_synced = false;
        self.recompute_single_active();
    }

    /// Whether a compiled instant plan is currently armed.
    pub fn plan_armed(&self) -> bool {
        self.plan.is_some()
    }

    /// How many times a compiled plan has been disarmed (de-opted).
    pub fn plan_deopt_count(&self) -> u64 {
        self.plan_deopts.get()
    }

    /// Instants executed by the compiled fast path (a subset of
    /// [`instants`](Self::instants)).
    pub fn plan_instants(&self) -> u64 {
        self.plan_instants.get()
    }

    /// Live handle to the de-opt counter, for telemetry probes.
    pub fn plan_deopt_handle(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.plan_deopts)
    }

    /// Live handle to the compiled-instant counter, for telemetry.
    pub fn plan_instants_handle(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.plan_instants)
    }

    /// Live handle to the armed flag (1 armed / 0 not), for telemetry.
    pub fn plan_armed_handle(&self) -> Rc<Cell<u64>> {
        Rc::clone(&self.plan_armed_flag)
    }

    /// The compiled evaluate phase: wake-candidate drain, then a tick
    /// walk over the `active` worklist only. Mirrors the interpreted
    /// evaluate phase observably — same delivery order, same wake and
    /// progress timing, same tick accounting.
    fn plan_eval(&mut self) -> bool {
        let mut plan = self.plan.take().expect("plan_eval without a plan");
        // Uniform-clock invariant: every plan clock shares this edge.
        let t = self.clocks[plan.clocks[0]].next_edge;
        self.now = t;
        self.instants += 1;
        self.plan_instants.set(self.plan_instants.get() + 1);

        // This instant's wake candidates: deferred checks from the
        // previous instant plus sink notifications raised since the
        // walk last drained it (late-eval sets and commit-phase sets).
        // Candidates are *hints*, not wakes: the flag is checked — and
        // consumed — only when the merge walk below reaches the
        // candidate's rank, which is exactly where the interpreted
        // scan performs its asleep/take check. Taking the flag any
        // earlier (at notify time or at instant start) would let a
        // later set from an earlier-rank tick this instant re-raise
        // the flag and schedule a spurious wake for the next instant.
        plan.pending.clear();
        plan.pending.append(&mut plan.deferred);
        plan.wake_sink.drain_into(&mut plan.pending);
        plan.pending.sort_unstable();
        plan.pending.dedup();

        // Merge walk in ascending rank order over the awake set and
        // the wake candidates; rank order *is* the interpreted
        // delivery order.
        let mut i = 0usize; // next awake rank (plan.active)
        let mut j = 0usize; // next wake candidate (plan.pending)
        let mut delivered = 0u64;
        loop {
            let rank = match (plan.active.get(i).copied(), plan.pending.get(j).copied()) {
                (None, None) => break,
                (Some(a), Some(p)) if a == p => {
                    // The candidate's component is awake: the
                    // interpreted scan never touches an awake
                    // component's flag, so the hint is stale. Its tick
                    // happens via the active branch next iteration.
                    j += 1;
                    continue;
                }
                (Some(a), Some(p)) if a < p => a,
                (_, Some(p)) => {
                    // The candidate's scan position (no awake rank
                    // ahead of it): wake-or-drop.
                    j += 1;
                    let entry = &mut self.components[plan.order[p as usize] as usize];
                    if !(entry.asleep && entry.wake.as_ref().is_some_and(ActivityToken::take)) {
                        continue;
                    }
                    entry.asleep = false;
                    self.progress.set();
                    // Every rank processed so far is < p, so inserting
                    // at the walk cursor keeps `active` sorted.
                    plan.active.insert(i, p);
                    p
                }
                (Some(a), None) => a,
            };
            let entry = &mut self.components[plan.order[rank as usize] as usize];
            let mut ctx = TickCtx {
                now: t,
                cycle: self.clocks[entry.clock.0].cycles,
                clock: entry.clock,
                clock_requests: &mut self.clock_requests,
                stop: &mut self.stop_requested,
            };
            entry.component.tick(&mut ctx);
            delivered += 1;
            if entry.wake.is_some() && entry.component.is_quiescent() {
                // Same contract as the interpreted loop: the wake flag
                // is NOT cleared on sleep. An already-set flag produces
                // no future sink notification, so queue the wake check
                // for the next instant explicitly.
                entry.asleep = true;
                plan.active.remove(i);
                if entry.wake.as_ref().is_some_and(ActivityToken::is_set) {
                    plan.deferred.push(rank);
                }
            } else {
                i += 1;
            }
            // Absorb notifications raised by this tick. A rank still
            // ahead of the walk joins this instant's candidates (its
            // scan position hasn't passed); one at or behind the walk
            // waits for the next instant — both exactly what the
            // interpreted scan does.
            if !plan.wake_sink.is_empty() {
                plan.wake_scratch.clear();
                plan.wake_sink.drain_into(&mut plan.wake_scratch);
                for k in 0..plan.wake_scratch.len() {
                    let r = plan.wake_scratch[k];
                    if r > rank {
                        if let Err(pos) = plan.pending[j..].binary_search(&r) {
                            plan.pending.insert(j + pos, r);
                        }
                    } else {
                        plan.deferred.push(r);
                    }
                }
            }
        }
        self.ticks_delivered += delivered;
        self.ticks_skipped += plan.order.len() as u64 - delivered;

        // Publish the fired-clock list so a mid-instant de-opt hands
        // the interpreted commit phase a coherent open instant.
        self.instant_edges.clear();
        self.instant_edges.extend_from_slice(&plan.clocks);
        self.mid_instant = true;
        self.plan = Some(plan);
        true
    }

    /// The compiled commit phase: commits only dirty + always-commit
    /// sequentials (epoch-based skip accounting), then runs the shared
    /// clock-request/advance tail. Any clock irregularity observed
    /// here — a stretch/override request, an advance failure — de-opts.
    fn plan_commit(&mut self) {
        let mut plan = self.plan.take().expect("plan_commit without a plan");
        self.mid_instant = false;

        plan.dirty_scratch.clear();
        plan.dirty_sink.drain_into(&mut plan.dirty_scratch);
        plan.dirty_scratch.sort_unstable();
        plan.dirty_scratch.dedup();
        let epoch = plan.epoch;
        let (mut di, mut ai) = (0usize, 0usize);
        loop {
            // Merge the dirty and always lists in ascending rank order
            // (= interpreted commit order); the two sets are disjoint.
            let rank = match (plan.dirty_scratch.get(di), plan.always.get(ai)) {
                (None, None) => break,
                (Some(&d), None) => {
                    di += 1;
                    d
                }
                (None, Some(&a)) => {
                    ai += 1;
                    a
                }
                (Some(&d), Some(&a)) => {
                    if d < a {
                        di += 1;
                        d
                    } else {
                        ai += 1;
                        a
                    }
                }
            };
            let seq = &mut self.sequentials[plan.seq_order[rank as usize] as usize];
            if let Some(dirty) = &seq.dirty {
                // Clear before committing so a re-arm `set()` inside
                // `commit` queues next instant's notification.
                dirty.take();
            }
            let pending = epoch - plan.seq_seen[rank as usize];
            let mut state = seq.state.borrow_mut();
            if pending > 0 {
                state.commit_skipped(pending);
                self.commits_skipped += pending;
            }
            state.commit();
            plan.seq_seen[rank as usize] = epoch + 1;
        }
        plan.epoch = epoch + 1;

        // Shared tail. Clock requests break the uniform-schedule
        // invariant from the next instant on: apply them faithfully,
        // then de-opt.
        let deopt = !self.clock_requests.is_empty();
        self.apply_clock_requests();
        let mut advance_failed = false;
        let t = self.now;
        for &ci in &plan.clocks {
            if !self.clocks[ci].advance() {
                let name = self.clocks[ci].spec.name.clone();
                self.record_fatal(SimError::TimeOverflow {
                    clock: name,
                    now: t,
                });
                self.recompute_single_active();
                advance_failed = true;
            }
        }
        self.heap_synced = false;
        self.plan = Some(plan);
        if deopt || advance_failed {
            self.disarm_plan();
        }
    }

    /// Number of registered clock domains.
    pub fn clock_count(&self) -> usize {
        self.clocks.len()
    }

    /// Name of a registered clock domain.
    pub fn clock_name(&self, clock: ClockId) -> String {
        self.clocks[clock.0].spec.name.clone()
    }

    /// Scheduled time of `clock`'s next rising edge, or `None` while it
    /// is paused. This is the value a parallel shard publishes for the
    /// clocks it owns after every commit.
    pub fn clock_next_edge(&self, clock: ClockId) -> Option<Picoseconds> {
        let st = &self.clocks[clock.0];
        (!st.paused).then_some(st.next_edge)
    }

    /// Overwrites `clock`'s scheduled next edge. Parallel shards use
    /// this to adopt the authoritative schedule of clocks they merely
    /// *follow* (the owning shard applies stretches/overrides and
    /// publishes the result). No effect on a paused clock.
    pub fn set_clock_next_edge(&mut self, clock: ClockId, at: Picoseconds) {
        let st = &self.clocks[clock.0];
        if st.paused || st.next_edge == at {
            // Adopting the value the clock already has (the parallel
            // scheduler's common case under uniform clocking) is a
            // no-op and in particular does not de-opt a compiled plan.
            return;
        }
        self.disarm_plan();
        self.clocks[clock.0].next_edge = at;
        // The heap entry for the old edge is now stale; rebuild on
        // demand (same lazy-invalidation path pause/resume uses).
        self.heap_synced = false;
    }

    /// Takes (and clears) the kernel's progress flag — what
    /// [`run_until_checked`](Self::run_until_checked) does internally
    /// once per instant. External watchdog drivers (the parallel epoch
    /// scheduler) poll it the same way.
    pub fn take_progress(&mut self) -> bool {
        self.progress.take()
    }

    /// Snapshots every registered component and sequential into a
    /// [`HangReport`], for callers running their own watchdog (the
    /// parallel epoch scheduler aggregates one of these per shard).
    pub fn diagnose_hang(&self, idle_cycles: u64) -> HangReport {
        self.diagnose(idle_cycles)
    }

    /// Runs until simulation time reaches or passes `deadline`, a stop
    /// is requested, or no edges remain.
    pub fn run_until_time(&mut self, deadline: Picoseconds) {
        while !self.stop_requested {
            match self.next_instant() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.flush_skipped_commits();
    }

    /// Runs until `clock` has received `n` more rising edges, a stop is
    /// requested, or no edges remain.
    pub fn run_cycles(&mut self, clock: ClockId, n: u64) {
        let target = self.clocks[clock.0].cycles + n;
        while !self.stop_requested && self.clocks[clock.0].cycles < target {
            if !self.step() {
                break;
            }
        }
        self.flush_skipped_commits();
    }

    /// Runs until `done()` returns true, a stop is requested,
    /// `max_cycles` edges elapse on `clock`, or no edges remain.
    /// Returns `true` if the predicate fired.
    ///
    /// The predicate is evaluated **exactly once per instant
    /// boundary** (including the boundary the run starts and ends on),
    /// so predicates with side effects observe each boundary once.
    pub fn run_until(
        &mut self,
        clock: ClockId,
        max_cycles: u64,
        mut done: impl FnMut() -> bool,
    ) -> bool {
        let limit = self.clocks[clock.0].cycles + max_cycles;
        loop {
            if done() {
                self.flush_skipped_commits();
                return true;
            }
            if self.stop_requested || self.clocks[clock.0].cycles >= limit || !self.step() {
                self.flush_skipped_commits();
                return false;
            }
        }
    }

    /// Like [`run_until`](Self::run_until), but with a hang watchdog
    /// and typed errors. Returns:
    ///
    /// * `Ok(true)` — the predicate fired;
    /// * `Ok(false)` — stop request, `max_cycles` exhausted, or no
    ///   edges remain (the plain-`run_until` `false` outcomes);
    /// * `Err(SimError::Hang)` — `no_progress_limit` consecutive
    ///   `clock` cycles elapsed with no activity on the kernel's
    ///   [`progress token`](Self::progress_token) (no channel push/pop,
    ///   no component wake), with a [`HangReport`] diagnosing every
    ///   registered component and channel;
    /// * `Err(SimError::TimeOverflow)` /
    ///   `Err(SimError::ClockStretchOverflow)` — an internal arithmetic
    ///   fault that previously `expect()`-panicked.
    ///
    /// Like `run_until`, the predicate is evaluated exactly once per
    /// instant boundary.
    ///
    /// # Panics
    /// Panics if `no_progress_limit` is zero (every run would
    /// instantly be a hang).
    pub fn run_until_checked(
        &mut self,
        clock: ClockId,
        max_cycles: u64,
        no_progress_limit: u64,
        done: impl FnMut() -> bool,
    ) -> Result<bool, SimError> {
        let mut wd = WatchdogState {
            idle: 0,
            last_cycle: self.clocks[clock.0].cycles,
        };
        self.run_until_checked_with(clock, max_cycles, no_progress_limit, &mut wd, done)
    }

    /// [`run_until_checked`](Self::run_until_checked) with the
    /// watchdog accumulators externalized in `wd`, so a supervised run
    /// can be split into segments (e.g. around a checkpoint capture)
    /// and still trip the watchdog on exactly the cycle an
    /// uninterrupted call would: carry the same `wd` across segments.
    /// The classic entry point seeds `wd` with `idle: 0, last_cycle:
    /// <current cycle>`.
    pub fn run_until_checked_with(
        &mut self,
        clock: ClockId,
        max_cycles: u64,
        no_progress_limit: u64,
        wd: &mut WatchdogState,
        mut done: impl FnMut() -> bool,
    ) -> Result<bool, SimError> {
        assert!(
            no_progress_limit > 0,
            "no_progress_limit must be at least one cycle"
        );
        let limit = self.clocks[clock.0].cycles + max_cycles;
        loop {
            if self.fatal.is_some() {
                self.flush_skipped_commits();
                return Err(self.fatal.take().expect("just checked"));
            }
            if done() {
                self.flush_skipped_commits();
                return Ok(true);
            }
            if self.stop_requested || self.clocks[clock.0].cycles >= limit || !self.step() {
                self.flush_skipped_commits();
                // A fault recorded during the final step surfaces as
                // the error it is, not as a bare "didn't finish".
                if let Some(err) = self.fatal.take() {
                    return Err(err);
                }
                return Ok(false);
            }
            let cycle = self.clocks[clock.0].cycles;
            if self.progress.take() {
                wd.idle = 0;
            } else {
                wd.idle += cycle - wd.last_cycle;
            }
            wd.last_cycle = cycle;
            if wd.idle >= no_progress_limit {
                // Watchdog trip is a de-opt trigger: diagnose from the
                // interpreted state so the report is identical to an
                // interpreted run's (and later runs stay interpreted).
                self.disarm_plan();
                self.flush_skipped_commits();
                let report = self.diagnose(wd.idle);
                return Err(SimError::Hang {
                    clock: self.clocks[clock.0].spec.name.clone(),
                    cycle,
                    now: self.now,
                    report,
                });
            }
        }
    }

    /// Snapshots every registered component and sequential for a
    /// [`HangReport`].
    fn diagnose(&self, idle_cycles: u64) -> HangReport {
        let components = self
            .components
            .iter()
            .map(|e| CompDiag {
                name: e.component.name().to_string(),
                clock: self.clocks[e.clock.0].spec.name.clone(),
                asleep: e.asleep,
                quiescent: e.component.is_quiescent(),
                wait: e.component.wait_reason(),
            })
            .collect();
        let channels = self
            .sequentials
            .iter()
            .filter_map(|s| s.state.borrow().diagnose())
            .collect();
        HangReport {
            idle_cycles,
            components,
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct Probe {
        name: String,
        hits: Rc<Cell<u64>>,
        last_cycle: Rc<Cell<u64>>,
    }

    impl Component for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            self.hits.set(self.hits.get() + 1);
            self.last_cycle.set(ctx.cycle());
        }
    }

    fn probe(name: &str) -> (Probe, Rc<Cell<u64>>, Rc<Cell<u64>>) {
        let hits = Rc::new(Cell::new(0));
        let last = Rc::new(Cell::new(0));
        (
            Probe {
                name: name.into(),
                hits: Rc::clone(&hits),
                last_cycle: Rc::clone(&last),
            },
            hits,
            last,
        )
    }

    #[test]
    fn single_clock_ticks_once_per_cycle() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(1000)));
        let (p, hits, last) = probe("p");
        sim.add_component(clk, p);
        sim.run_cycles(clk, 5);
        assert_eq!(hits.get(), 5);
        assert_eq!(last.get(), 4);
        assert_eq!(sim.now(), Picoseconds(4000));
    }

    #[test]
    fn unrelated_clocks_interleave_by_time() {
        let mut sim = Simulator::new();
        let fast = sim.add_clock(ClockSpec::new("fast", Picoseconds(100)));
        let slow = sim.add_clock(ClockSpec::new("slow", Picoseconds(250)));
        let (pf, hf, _) = probe("f");
        let (ps, hs, _) = probe("s");
        sim.add_component(fast, pf);
        sim.add_component(slow, ps);
        sim.run_until_time(Picoseconds(1000));
        // fast edges: 0,100,...,1000 -> 11; slow: 0,250,500,750,1000 -> 5
        assert_eq!(hf.get(), 11);
        assert_eq!(hs.get(), 5);
    }

    #[test]
    fn pause_and_resume() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (p, hits, _) = probe("p");
        sim.add_component(clk, p);
        sim.run_cycles(clk, 3);
        sim.pause_clock(clk);
        sim.run_until_time(Picoseconds(10_000));
        assert_eq!(hits.get(), 3);
        sim.resume_clock(clk);
        sim.run_cycles(clk, 2);
        assert_eq!(hits.get(), 5);
    }

    struct Stopper {
        at: u64,
    }
    impl Component for Stopper {
        fn name(&self) -> &str {
            "stopper"
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.cycle() == self.at {
                ctx.request_stop();
            }
        }
    }

    #[test]
    fn stop_request_halts_run() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(clk, Stopper { at: 7 });
        sim.run_cycles(clk, 1_000);
        assert!(sim.stopped());
        assert_eq!(sim.cycles(clk), 8); // edge 7 completed, then halt
    }

    struct Stretcher;
    impl Component for Stretcher {
        fn name(&self) -> &str {
            "stretcher"
        }
        fn tick(&mut self, ctx: &mut TickCtx<'_>) {
            if ctx.cycle() == 1 {
                let clock = ctx.clock();
                ctx.stretch_clock(clock, Picoseconds(50));
            }
        }
    }

    #[test]
    fn stretch_delays_next_edge_only() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(clk, Stretcher);
        sim.run_cycles(clk, 4);
        // Edges at 0, 100, 250 (stretched), 350.
        assert_eq!(sim.now(), Picoseconds(350));
    }

    #[test]
    fn sequential_commit_runs_after_eval() {
        struct Latch {
            staged: u64,
            value: u64,
        }
        impl Sequential for Latch {
            fn commit(&mut self) {
                self.value = self.staged;
            }
        }
        struct Writer {
            latch: Rc<RefCell<Latch>>,
            observed_before_commit: Rc<Cell<u64>>,
        }
        impl Component for Writer {
            fn name(&self) -> &str {
                "writer"
            }
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                let mut l = self.latch.borrow_mut();
                // Reads must see the value committed at a previous edge.
                self.observed_before_commit.set(l.value);
                l.staged = ctx.cycle() + 1;
            }
        }
        let latch = Rc::new(RefCell::new(Latch {
            staged: 0,
            value: 0,
        }));
        let seen = Rc::new(Cell::new(u64::MAX));
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(
            clk,
            Writer {
                latch: Rc::clone(&latch),
                observed_before_commit: Rc::clone(&seen),
            },
        );
        sim.add_sequential(clk, latch.clone());
        sim.run_cycles(clk, 1);
        assert_eq!(seen.get(), 0); // saw pre-commit value
        assert_eq!(latch.borrow().value, 1); // commit applied after eval
        sim.run_cycles(clk, 1);
        assert_eq!(seen.get(), 1);
        assert_eq!(latch.borrow().value, 2);
    }

    #[test]
    fn run_until_predicate() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (p, hits, _) = probe("p");
        sim.add_component(clk, p);
        let h2 = Rc::clone(&hits);
        let fired = sim.run_until(clk, 1_000, move || h2.get() >= 5);
        assert!(fired);
        assert_eq!(hits.get(), 5);
    }

    #[test]
    fn run_until_respects_cycle_limit() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let fired = sim.run_until(clk, 10, || false);
        assert!(!fired);
        assert_eq!(sim.cycles(clk), 10);
    }

    /// Regression: `run_until` must evaluate a side-effecting predicate
    /// exactly once per instant boundary, on every exit path. The seed
    /// kernel called `done()` twice at the final boundary when the
    /// run ended because no edges remained.
    #[test]
    fn run_until_evaluates_predicate_once_per_boundary() {
        // Timeout path: N steps -> N+1 boundaries.
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let calls = Rc::new(Cell::new(0u64));
        let c2 = Rc::clone(&calls);
        let fired = sim.run_until(clk, 10, move || {
            c2.set(c2.get() + 1);
            false
        });
        assert!(!fired);
        assert_eq!(calls.get(), 11, "10 instants -> 11 boundaries");

        // No-edges path (paused clock): a single boundary, a single call.
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.pause_clock(clk);
        let calls = Rc::new(Cell::new(0u64));
        let c2 = Rc::clone(&calls);
        let fired = sim.run_until(clk, 10, move || {
            c2.set(c2.get() + 1);
            false
        });
        assert!(!fired);
        assert_eq!(calls.get(), 1, "no edges -> exactly one evaluation");

        // Predicate-fires path: counting boundaries, not double-counting.
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let calls = Rc::new(Cell::new(0u64));
        let c2 = Rc::clone(&calls);
        let fired = sim.run_until(clk, 100, move || {
            c2.set(c2.get() + 1);
            c2.get() > 5
        });
        assert!(fired);
        assert_eq!(calls.get(), 6);
        assert_eq!(sim.cycles(clk), 5);
    }

    /// Pins the pausible-clock contract `craft-gals::pausible` relies
    /// on: resuming a clock paused mid-period restarts a *full* period
    /// from the resume point — elapsed pre-pause time is not credited.
    #[test]
    fn resume_mid_period_restarts_full_period() {
        let mut sim = Simulator::new();
        let _a = sim.add_clock(ClockSpec::new("a", Picoseconds(100)));
        let b = sim.add_clock(ClockSpec::new("b", Picoseconds(130)));
        // Run until a's edge at 300 (b has edges at 0,130,260).
        sim.run_until_time(Picoseconds(300));
        assert_eq!(sim.now(), Picoseconds(300));
        // b is mid-period: its next edge would be 390.
        sim.pause_clock(b);
        sim.run_until_time(Picoseconds(400));
        // Resume at now=400: next b edge is 400+130=530, NOT 390.
        sim.resume_clock(b);
        let b_cycles = sim.cycles(b);
        sim.run_until_time(Picoseconds(529));
        assert_eq!(sim.cycles(b), b_cycles, "no b edge before 530");
        sim.run_until_time(Picoseconds(530));
        assert_eq!(sim.cycles(b), b_cycles + 1, "b edge lands at 530");
    }

    /// The indexed edge heap and the single-clock fast path must agree
    /// with the reference min-scan across pause/resume/stretch and
    /// clock-count transitions.
    #[test]
    fn heap_schedule_matches_min_scan_reference() {
        // Mirror of the kernel's edge sequence computed naively.
        fn reference(periods: &[u64], until: u64) -> Vec<(u64, Vec<usize>)> {
            let mut next: Vec<u64> = periods.iter().map(|_| 0).collect();
            let mut out = Vec::new();
            loop {
                let t = *next.iter().min().expect("nonempty");
                if t > until {
                    return out;
                }
                let who: Vec<usize> = (0..periods.len()).filter(|&i| next[i] == t).collect();
                for &i in &who {
                    next[i] += periods[i];
                }
                out.push((t, who));
            }
        }

        struct Recorder {
            log: Rc<RefCell<Vec<(u64, usize)>>>,
            idx: usize,
        }
        impl Component for Recorder {
            fn name(&self) -> &str {
                "rec"
            }
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                self.log.borrow_mut().push((ctx.now().as_ps(), self.idx));
            }
        }

        let periods = [70u64, 100, 100, 130, 35];
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new();
        for (idx, &p) in periods.iter().enumerate() {
            let clk = sim.add_clock(ClockSpec::new(format!("c{idx}"), Picoseconds(p)));
            sim.add_component(
                clk,
                Recorder {
                    log: Rc::clone(&log),
                    idx,
                },
            );
        }
        sim.run_until_time(Picoseconds(2_000));

        let expect: Vec<(u64, usize)> = reference(&periods, 2_000)
            .into_iter()
            .flat_map(|(t, who)| who.into_iter().map(move |i| (t, i)))
            .collect();
        assert_eq!(*log.borrow(), expect);
    }

    #[test]
    fn fast_path_survives_pause_resume_transitions() {
        let mut sim = Simulator::new();
        let a = sim.add_clock(ClockSpec::new("a", Picoseconds(100)));
        let b = sim.add_clock(ClockSpec::new("b", Picoseconds(100)));
        let (pa, ha, _) = probe("a");
        let (pb, hb, _) = probe("b");
        sim.add_component(a, pa);
        sim.add_component(b, pb);
        // Multi-domain, then single (b paused), then multi again.
        sim.run_cycles(a, 3);
        sim.pause_clock(b);
        sim.run_cycles(a, 3);
        sim.resume_clock(b);
        sim.run_cycles(a, 3);
        assert_eq!(ha.get(), 9);
        // b ticked alongside a (same period/phase) until paused after
        // its 3rd cycle; resumed at t=500 its edges (600,700,800) land
        // on a's final three instants again.
        assert_eq!(hb.get(), 3 + 3);
        assert_eq!(sim.cycles(a), 9);
    }

    /// A quiescent component with a wake token sleeps; channel-style
    /// activity on the token rouses it; cycle counts are untouched.
    #[test]
    fn gating_skips_quiescent_components_and_wakes_on_token() {
        struct Dozer {
            work: Rc<Cell<u64>>,
            ticks: Rc<Cell<u64>>,
        }
        impl Component for Dozer {
            fn name(&self) -> &str {
                "dozer"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
                self.ticks.set(self.ticks.get() + 1);
                if self.work.get() > 0 {
                    self.work.set(self.work.get() - 1);
                }
            }
        }
        impl Dozer {
            fn quiescent(&self) -> bool {
                self.work.get() == 0
            }
        }
        // Forward is_quiescent through the trait.
        struct DozerC(Dozer);
        impl Component for DozerC {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                self.0.tick(ctx)
            }
            fn is_quiescent(&self) -> bool {
                self.0.quiescent()
            }
        }

        let work = Rc::new(Cell::new(2u64));
        let ticks = Rc::new(Cell::new(0u64));
        let token = ActivityToken::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let id = sim.add_component(
            clk,
            DozerC(Dozer {
                work: Rc::clone(&work),
                ticks: Rc::clone(&ticks),
            }),
        );
        sim.set_wake_token(id, token.clone());

        // Two busy ticks, then the second tick drains work -> sleeps.
        sim.run_cycles(clk, 10);
        assert_eq!(ticks.get(), 2, "slept after work drained");
        assert_eq!(sim.cycles(clk), 10, "cycle count unaffected by sleep");
        assert_eq!(sim.ticks_skipped(), 8);

        // Activity arrives: wakes on its next edge, works once, sleeps.
        work.set(1);
        token.set();
        sim.run_cycles(clk, 5);
        assert_eq!(ticks.get(), 3);
        assert_eq!(sim.cycles(clk), 15);

        // Gating off: ticks every edge again.
        sim.set_gating(false);
        sim.run_cycles(clk, 4);
        assert_eq!(ticks.get(), 7);
    }

    /// Time overflow no longer panics: the run terminates, the fault is
    /// recorded, and the checked variant surfaces it as `Err`.
    #[test]
    fn time_overflow_is_recorded_not_panicked() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("huge", Picoseconds(u64::MAX - 5)));
        sim.run_cycles(clk, 100); // would previously panic
        assert!(sim.cycles(clk) < 100, "clock died before the target");
        assert!(matches!(sim.fatal(), Some(SimError::TimeOverflow { .. })));
        assert!(sim.stopped());

        // The checked variant reports the same fault as a typed error.
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("huge", Picoseconds(u64::MAX - 5)));
        let err = sim
            .run_until_checked(clk, 100, 1_000, || false)
            .expect_err("overflow must surface");
        assert!(matches!(err, SimError::TimeOverflow { ref clock, .. } if clock == "huge"));
        assert!(sim.fatal().is_none(), "checked run consumed the fault");
    }

    /// Clock-stretch overflow is likewise recorded instead of panicking.
    #[test]
    fn stretch_overflow_is_recorded_not_panicked() {
        struct BigStretch;
        impl Component for BigStretch {
            fn name(&self) -> &str {
                "big-stretch"
            }
            fn tick(&mut self, ctx: &mut TickCtx<'_>) {
                let clock = ctx.clock();
                ctx.stretch_clock(clock, Picoseconds::MAX);
            }
        }
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(clk, BigStretch);
        let err = sim
            .run_until_checked(clk, 10, 1_000, || false)
            .expect_err("stretch overflow must surface");
        assert!(matches!(err, SimError::ClockStretchOverflow { .. }));
    }

    /// Resuming a clock too close to the end of time records the fault
    /// and leaves the clock paused.
    #[test]
    fn resume_near_end_of_time_records_overflow() {
        let mut sim = Simulator::new();
        let a = sim.add_clock(ClockSpec::new("a", Picoseconds(u64::MAX - 5)));
        let b = sim.add_clock(ClockSpec::new("b", Picoseconds(u64::MAX - 5)));
        sim.pause_clock(b);
        sim.run_cycles(a, 2); // now sits at MAX-5
        assert_eq!(sim.now(), Picoseconds(u64::MAX - 5));
        sim.clear_stop();
        sim.take_fatal();
        sim.resume_clock(b);
        assert!(
            matches!(sim.fatal(), Some(SimError::TimeOverflow { ref clock, .. }) if clock == "b")
        );
    }

    /// The watchdog fires on a design that makes no progress, and the
    /// report diagnoses components and channels.
    #[test]
    fn watchdog_detects_no_progress_and_diagnoses() {
        struct Waiter;
        impl Component for Waiter {
            fn name(&self) -> &str {
                "waiter"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn wait_reason(&self) -> Option<String> {
                Some("waiting for a token that never comes".into())
            }
        }
        struct StuckQueue;
        impl Sequential for StuckQueue {
            fn commit(&mut self) {}
            fn diagnose(&self) -> Option<crate::SeqDiag> {
                Some(crate::SeqDiag {
                    name: "stuck-q".into(),
                    occupancy: 3,
                    pending: true,
                    note: "test fixture".into(),
                })
            }
        }
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
        sim.add_component(clk, Waiter);
        sim.add_sequential(clk, Rc::new(RefCell::new(StuckQueue)));
        let err = sim
            .run_until_checked(clk, 10_000, 64, || false)
            .expect_err("must hang");
        let SimError::Hang {
            clock,
            cycle,
            report,
            ..
        } = err
        else {
            panic!("expected Hang, got {err}");
        };
        assert_eq!(clock, "core");
        assert_eq!(cycle, 64, "fired exactly at the idle limit");
        assert_eq!(report.idle_cycles, 64);
        assert_eq!(report.components.len(), 1);
        assert_eq!(
            report.components[0].wait.as_deref(),
            Some("waiting for a token that never comes")
        );
        assert_eq!(report.channels.len(), 1);
        assert!(report.channels[0].pending);
    }

    /// Progress on the token holds the watchdog off; the run then
    /// completes normally (predicate or cycle limit).
    #[test]
    fn watchdog_spares_runs_that_make_progress() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
        let (p, hits, _) = probe("p");
        sim.add_component(clk, p);
        let token = sim.progress_token();
        // An external source marks progress every instant (as channels
        // do on every push/pop).
        let h2 = Rc::clone(&hits);
        let t2 = token.clone();
        let done = move || {
            t2.set();
            h2.get() >= 500
        };
        let fired = sim
            .run_until_checked(clk, 10_000, 16, done)
            .expect("no hang while progress flows");
        assert!(fired);
        assert_eq!(hits.get(), 500);

        // Source goes quiet: the same sim now hangs.
        let err = sim
            .run_until_checked(clk, 10_000, 16, || false)
            .expect_err("silence must trip the watchdog");
        assert!(matches!(err, SimError::Hang { .. }));
    }

    /// A component waking from sleep counts as progress even before
    /// any channel traffic.
    #[test]
    fn wake_transition_counts_as_progress() {
        struct Sleeper {
            quiescent: Rc<Cell<bool>>,
        }
        impl Component for Sleeper {
            fn name(&self) -> &str {
                "sleeper"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn is_quiescent(&self) -> bool {
                self.quiescent.get()
            }
        }
        let quiescent = Rc::new(Cell::new(true));
        let wake = ActivityToken::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
        let id = sim.add_component(
            clk,
            Sleeper {
                quiescent: Rc::clone(&quiescent),
            },
        );
        sim.set_wake_token(id, wake.clone());
        // Tick 0 puts it to sleep. Setting the wake token just before
        // the watchdog would fire resets the idle counter.
        let mut boundary = 0u64;
        let w2 = wake.clone();
        let res = sim.run_until_checked(clk, 40, 16, move || {
            boundary += 1;
            if boundary.is_multiple_of(10) {
                w2.set();
            }
            false
        });
        assert!(matches!(res, Ok(false)), "cycle limit, not hang: {res:?}");
        assert_eq!(sim.cycles(clk), 40);
    }

    /// Gated sequentials skip clean commits and reconcile exactly via
    /// `commit_skipped` before the next real commit and at run end.
    #[test]
    fn gated_sequential_commit_catch_up_is_exact() {
        #[derive(Default)]
        struct CycleCounter {
            commits: u64,
            cycles: u64,
        }
        impl Sequential for CycleCounter {
            fn commit(&mut self) {
                self.commits += 1;
                self.cycles += 1;
            }
            fn commit_skipped(&mut self, skipped: u64) {
                self.cycles += skipped;
            }
        }

        let seq = Rc::new(RefCell::new(CycleCounter::default()));
        let dirty = ActivityToken::new();
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_sequential_gated(clk, seq.clone(), dirty.clone());

        sim.run_cycles(clk, 10);
        // Initial token is set -> first commit real, rest skipped, all
        // caught up by the run_cycles flush.
        assert_eq!(seq.borrow().commits, 1);
        assert_eq!(seq.borrow().cycles, 10);
        assert_eq!(sim.commits_skipped(), 9);

        // Mark dirty: next edge commits for real, catch-up already done.
        dirty.set();
        sim.run_cycles(clk, 3);
        assert_eq!(seq.borrow().commits, 2);
        assert_eq!(seq.borrow().cycles, 13);
    }

    /// A worker that sleeps when its work pool is empty.
    struct Worker {
        name: String,
        work: Rc<Cell<u64>>,
        ticks: Rc<Cell<u64>>,
    }
    impl Component for Worker {
        fn name(&self) -> &str {
            &self.name
        }
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
            self.ticks.set(self.ticks.get() + 1);
            if self.work.get() > 0 {
                self.work.set(self.work.get() - 1);
            }
        }
        fn is_quiescent(&self) -> bool {
            self.work.get() == 0
        }
    }

    /// Never-sleeping driver that feeds both workers and a gated latch
    /// on fixed schedules, exercising every wake path: waking a
    /// component *behind* it in delivery order (deferred to the next
    /// instant) and *ahead* of it (same instant).
    struct Driver {
        n: u64,
        early_work: Rc<Cell<u64>>,
        early_tok: ActivityToken,
        late_work: Rc<Cell<u64>>,
        late_tok: ActivityToken,
        latch: Rc<RefCell<DirtyLatch>>,
        latch_dirty: ActivityToken,
    }
    impl Component for Driver {
        fn name(&self) -> &str {
            "driver"
        }
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
            self.n += 1;
            if self.n.is_multiple_of(5) {
                self.early_work.set(self.early_work.get() + 2);
                self.early_tok.set();
            }
            if self.n.is_multiple_of(7) {
                self.late_work.set(self.late_work.get() + 1);
                self.late_tok.set();
            }
            if self.n.is_multiple_of(3) {
                self.latch.borrow_mut().staged = self.n;
                self.latch_dirty.set();
            }
        }
    }

    #[derive(Default)]
    struct DirtyLatch {
        staged: u64,
        value: u64,
        commits: u64,
        cycles: u64,
    }
    impl Sequential for DirtyLatch {
        fn commit(&mut self) {
            self.value = self.staged;
            self.commits += 1;
            self.cycles += 1;
        }
        fn commit_skipped(&mut self, skipped: u64) {
            self.cycles += skipped;
        }
    }

    #[derive(Default)]
    struct PlainCounter {
        commits: u64,
    }
    impl Sequential for PlainCounter {
        fn commit(&mut self) {
            self.commits += 1;
        }
    }

    struct PlanFixture {
        sim: Simulator,
        clk: ClockId,
        early_ticks: Rc<Cell<u64>>,
        late_ticks: Rc<Cell<u64>>,
        latch: Rc<RefCell<DirtyLatch>>,
        counter: Rc<RefCell<PlainCounter>>,
    }

    fn plan_fixture() -> PlanFixture {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let early_work = Rc::new(Cell::new(1u64));
        let early_ticks = Rc::new(Cell::new(0u64));
        let early_tok = ActivityToken::new();
        let late_work = Rc::new(Cell::new(0u64));
        let late_ticks = Rc::new(Cell::new(0u64));
        let late_tok = ActivityToken::new();
        let latch = Rc::new(RefCell::new(DirtyLatch::default()));
        let latch_dirty = ActivityToken::new();
        let counter = Rc::new(RefCell::new(PlainCounter::default()));

        let early = sim.add_component(
            clk,
            Worker {
                name: "early".into(),
                work: Rc::clone(&early_work),
                ticks: Rc::clone(&early_ticks),
            },
        );
        sim.set_wake_token(early, early_tok.clone());
        sim.add_component(
            clk,
            Driver {
                n: 0,
                early_work,
                early_tok,
                late_work: Rc::clone(&late_work),
                late_tok: late_tok.clone(),
                latch: Rc::clone(&latch),
                latch_dirty: latch_dirty.clone(),
            },
        );
        let late = sim.add_component(
            clk,
            Worker {
                name: "late".into(),
                work: late_work,
                ticks: Rc::clone(&late_ticks),
            },
        );
        sim.set_wake_token(late, late_tok);
        sim.add_sequential_gated(clk, latch.clone(), latch_dirty);
        sim.add_sequential(clk, counter.clone());
        PlanFixture {
            sim,
            clk,
            early_ticks,
            late_ticks,
            latch,
            counter,
        }
    }

    #[derive(Debug, PartialEq)]
    struct FixtureOutcome {
        cycles: u64,
        now: Picoseconds,
        instants: u64,
        ticks_delivered: u64,
        ticks_skipped: u64,
        commits_skipped: u64,
        early_ticks: u64,
        late_ticks: u64,
        latch_value: u64,
        latch_commits: u64,
        latch_cycles: u64,
        counter_commits: u64,
    }

    fn fixture_outcome(f: &PlanFixture) -> FixtureOutcome {
        FixtureOutcome {
            cycles: f.sim.cycles(f.clk),
            now: f.sim.now(),
            instants: f.sim.instants(),
            ticks_delivered: f.sim.ticks_delivered(),
            ticks_skipped: f.sim.ticks_skipped(),
            commits_skipped: f.sim.commits_skipped(),
            early_ticks: f.early_ticks.get(),
            late_ticks: f.late_ticks.get(),
            latch_value: f.latch.borrow().value,
            latch_commits: f.latch.borrow().commits,
            latch_cycles: f.latch.borrow().cycles,
            counter_commits: f.counter.borrow().commits,
        }
    }

    /// The compiled plan reproduces the interpreted path's observable
    /// behaviour *exactly* — cycles, tick/commit accounting, committed
    /// state — across sleep, deferred wake, same-instant wake and
    /// gated-commit paths.
    #[test]
    fn plan_matches_interpreted_exactly() {
        let mut interp = plan_fixture();
        interp.sim.run_cycles(interp.clk, 1000);
        assert_eq!(interp.sim.plan_instants(), 0);

        let mut compiled = plan_fixture();
        compiled.sim.arm_plan().expect("steady-state schedule arms");
        compiled.sim.run_cycles(compiled.clk, 1000);
        assert!(compiled.sim.plan_armed(), "no de-opt in a steady run");
        assert_eq!(compiled.sim.plan_instants(), 1000);
        assert_eq!(compiled.sim.plan_deopt_count(), 0);

        assert_eq!(fixture_outcome(&interp), fixture_outcome(&compiled));
        // Gating did real work, so the identity above is meaningful.
        assert!(interp.sim.ticks_skipped() > 0);
        assert!(interp.sim.commits_skipped() > 0);
    }

    /// A mid-run de-opt (and later re-arm) loses nothing: the hybrid
    /// run is indistinguishable from a fully interpreted one.
    #[test]
    fn plan_deopt_mid_run_preserves_state() {
        let mut interp = plan_fixture();
        interp.sim.run_cycles(interp.clk, 1000);

        let mut hybrid = plan_fixture();
        hybrid.sim.arm_plan().expect("arms");
        hybrid.sim.run_cycles(hybrid.clk, 400);
        // `set_gating` is a de-opt trigger even when the value does not
        // change — gating itself stays on, so semantics are untouched.
        hybrid.sim.set_gating(true);
        assert!(!hybrid.sim.plan_armed());
        assert_eq!(hybrid.sim.plan_deopt_count(), 1);
        hybrid.sim.run_cycles(hybrid.clk, 300);
        hybrid.sim.arm_plan().expect("re-arms mid-run");
        hybrid.sim.run_cycles(hybrid.clk, 300);
        assert!(hybrid.sim.plan_armed());

        assert_eq!(fixture_outcome(&interp), fixture_outcome(&hybrid));
        assert_eq!(hybrid.sim.plan_instants(), 700);
    }

    /// Arming is opportunistic: every irregular precondition is
    /// rejected with a reason and leaves the interpreted path active.
    #[test]
    fn arm_plan_rejects_irregular_schedules() {
        use crate::plan::PlanReject;

        let mut sim = Simulator::new();
        assert_eq!(sim.arm_plan(), Err(PlanReject::NoActiveClock));

        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.set_gating(false);
        assert_eq!(sim.arm_plan(), Err(PlanReject::GatingDisabled));
        sim.set_gating(true);

        sim.set_tick_profiling(true);
        assert_eq!(sim.arm_plan(), Err(PlanReject::TickProfiling));
        sim.set_tick_profiling(false);

        sim.pause_clock(clk);
        assert_eq!(sim.arm_plan(), Err(PlanReject::NoActiveClock));
        sim.resume_clock(clk);

        // A second clock with a different period is not steady-state.
        let mut multi = Simulator::new();
        multi.add_clock(ClockSpec::new("a", Picoseconds(100)));
        multi.add_clock(ClockSpec::new("b", Picoseconds(130)));
        assert_eq!(multi.arm_plan(), Err(PlanReject::IrregularClocks));

        // Two components sharing one wake token cannot be planned.
        let mut shared = Simulator::new();
        let sclk = shared.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let tok = ActivityToken::new();
        let (p1, _, _) = probe("p1");
        let (p2, _, _) = probe("p2");
        let id1 = shared.add_component(sclk, p1);
        let id2 = shared.add_component(sclk, p2);
        shared.set_wake_token(id1, tok.clone());
        shared.set_wake_token(id2, tok.clone());
        assert_eq!(shared.arm_plan(), Err(PlanReject::SharedWakeToken));
        // The failed arm rolled its attachments back.
        assert!(!tok.notify_attached());
        shared.run_cycles(sclk, 3);
        assert_eq!(shared.cycles(sclk), 3);

        // Mid-instant arming is refused.
        let mut open = Simulator::new();
        let oclk = open.add_clock(ClockSpec::new("c", Picoseconds(100)));
        assert!(open.eval_instant());
        assert_eq!(open.arm_plan(), Err(PlanReject::MidInstant));
        open.commit_instant();
        assert_eq!(open.arm_plan(), Ok(()));
        assert_eq!(open.arm_plan(), Ok(()), "re-arming is a no-op");
        open.run_cycles(oclk, 2);
        assert_eq!(open.cycles(oclk), 3);
    }

    /// A clock stretch requested under the plan is applied faithfully
    /// and de-opts; the edge sequence matches the interpreted one.
    #[test]
    fn plan_deopts_on_clock_stretch() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        sim.add_component(clk, Stretcher);
        sim.arm_plan().expect("arms");
        sim.run_cycles(clk, 4);
        // Edges at 0, 100, 250 (stretched), 350 — same as interpreted.
        assert_eq!(sim.now(), Picoseconds(350));
        assert!(!sim.plan_armed(), "stretch must de-opt");
        assert_eq!(sim.plan_deopt_count(), 1);
        assert_eq!(sim.plan_instants(), 2, "compiled until the stretch");
    }

    /// Structural mutation and clock pausing de-opt; a paused schedule
    /// refuses to re-arm until resumed.
    #[test]
    fn plan_disarms_on_structural_changes() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (p, _, _) = probe("p");
        sim.add_component(clk, p);
        sim.arm_plan().expect("arms");

        let (q, qhits, _) = probe("q");
        sim.add_component(clk, q);
        assert!(!sim.plan_armed(), "add_component de-opts");

        sim.arm_plan().expect("re-arms with the new component");
        sim.run_cycles(clk, 5);
        assert_eq!(qhits.get(), 5, "late component is in the plan");

        sim.pause_clock(clk);
        assert!(!sim.plan_armed(), "pause de-opts");
        assert!(sim.arm_plan().is_err());
        sim.resume_clock(clk);
        sim.arm_plan().expect("arms again after resume");
        sim.run_cycles(clk, 5);
        assert_eq!(qhits.get(), 10);
    }

    /// The hang watchdog fires identically under the plan, de-opts,
    /// and produces the same diagnosis as the interpreted path.
    #[test]
    fn plan_hang_trip_matches_interpreted_diagnosis() {
        struct Idle;
        impl Component for Idle {
            fn name(&self) -> &str {
                "idle"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
            fn wait_reason(&self) -> Option<String> {
                Some("stuck forever".into())
            }
        }
        let run = |arm: bool| {
            let mut sim = Simulator::new();
            let clk = sim.add_clock(ClockSpec::new("core", Picoseconds(100)));
            sim.add_component(clk, Idle);
            sim.add_sequential(clk, Rc::new(RefCell::new(PlainCounter::default())));
            if arm {
                sim.arm_plan().expect("arms");
            }
            let err = sim
                .run_until_checked(clk, 10_000, 64, || false)
                .expect_err("must hang");
            assert!(!sim.plan_armed(), "hang trip must leave us interpreted");
            (err, sim.plan_deopt_count())
        };
        let (interp_err, d0) = run(false);
        let (compiled_err, d1) = run(true);
        assert_eq!(d0, 0);
        assert_eq!(d1, 1, "watchdog trip counts as a de-opt");
        let (
            SimError::Hang {
                clock: c0,
                cycle: y0,
                now: n0,
                report: r0,
            },
            SimError::Hang {
                clock: c1,
                cycle: y1,
                now: n1,
                report: r1,
            },
        ) = (interp_err, compiled_err)
        else {
            panic!("expected two hangs");
        };
        assert_eq!((c0, y0, n0, r0.idle_cycles), (c1, y1, n1, r1.idle_cycles));
        assert_eq!(r0.components.len(), r1.components.len());
        assert_eq!(r0.components[0].wait, r1.components[0].wait);
        assert_eq!(r0.components[0].asleep, r1.components[0].asleep);
    }

    /// Tick profiling attributes every delivered tick and never
    /// perturbs cycles or delivery counts.
    #[test]
    fn tick_profiling_attributes_ticks() {
        let mut sim = Simulator::new();
        let clk = sim.add_clock(ClockSpec::new("c", Picoseconds(100)));
        let (p, hits, _) = probe("busy");
        sim.add_component(clk, p);
        assert!(!sim.tick_profiling());
        assert!(sim.tick_profile().is_empty(), "nothing measured yet");

        sim.set_tick_profiling(true);
        // Components registered after enabling are picked up too.
        let (q, qhits, _) = probe("late");
        sim.add_component(clk, q);
        sim.run_cycles(clk, 8);
        assert_eq!(hits.get(), 8);
        assert_eq!(qhits.get(), 8);
        assert_eq!(sim.cycles(clk), 8);

        let rows = sim.tick_profile();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.ticks, 8);
            assert_eq!(row.clock, "c");
        }
        assert!(rows.iter().any(|r| r.name == "busy"));
        assert!(rows.iter().any(|r| r.name == "late"));

        // Disabling freezes the profile.
        sim.set_tick_profiling(false);
        sim.run_cycles(clk, 4);
        assert_eq!(hits.get(), 12);
        assert!(sim.tick_profile().iter().all(|r| r.ticks == 8));
    }
}
