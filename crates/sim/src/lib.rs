//! # craft-sim — deterministic multi-clock simulation kernel
//!
//! The SystemC substitute underpinning the `craftflow` reproduction of
//! the DAC'18 modular VLSI flow. It provides:
//!
//! * [`Picoseconds`] integer time and [`ClockSpec`] clock domains,
//! * a two-phase (evaluate/commit) cycle-driven [`Simulator`] that is
//!   flip-flop accurate and fully deterministic,
//! * the [`Component`] (clocked process) and [`Sequential`]
//!   (commit-phase state) traits,
//! * pausible-clocking hooks ([`TickCtx::stretch_clock`]) used by the
//!   GALS layer,
//! * a compiled steady-state instant plan ([`Simulator::arm_plan`])
//!   that runs uniform-clock schedules dispatch-lean and transparently
//!   de-opts to the interpreted golden path on any irregular event,
//! * typed failures ([`SimError`]) with a no-progress hang watchdog
//!   ([`Simulator::run_until_checked`]) that diagnoses deadlocks via a
//!   per-component / per-channel [`HangReport`],
//! * [`Trace`] VCD-lite waveform recording and [`stats`] helpers,
//! * [`checkpoint`] plumbing — a typed [`CheckpointError`], the
//!   [`Checkpointable`] codec trait, and a length+checksum-framed
//!   snapshot container used by the SoC layer's replay-based
//!   checkpoint/restore.
//!
//! ## Example
//!
//! ```
//! use craft_sim::{ClockSpec, Component, Picoseconds, Simulator, TickCtx};
//!
//! struct Blinker { on: bool }
//! impl Component for Blinker {
//!     fn name(&self) -> &str { "blinker" }
//!     fn tick(&mut self, _ctx: &mut TickCtx<'_>) { self.on = !self.on; }
//! }
//!
//! let mut sim = Simulator::new();
//! let clk = sim.add_clock(ClockSpec::new("core", Picoseconds::from_ghz(1.1)));
//! sim.add_component(clk, Blinker { on: false });
//! sim.run_cycles(clk, 100);
//! assert_eq!(sim.cycles(clk), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
pub mod checkpoint;
mod clock;
mod component;
pub mod cover;
mod error;
mod kernel;
pub mod parallel;
mod plan;
pub mod stats;
pub mod telemetry;
mod time;
mod trace;

pub use activity::{ActivityToken, NotifySink};
pub use checkpoint::{
    CheckpointError, Checkpointable, KernelDigest, StateReader, StateWriter, WatchdogState,
};
pub use clock::{ClockId, ClockSpec};
pub use component::{Component, Sequential, TickCtx};
pub use error::{CompDiag, HangReport, SeqDiag, SimError};
pub use kernel::{ComponentId, Simulator};
pub use parallel::{
    publish_hang_idle, run_parallel, EpochOutcome, EpochSync, EpochVerdict, EpochWorker,
    SpinBarrier, WaitHist, WAIT_HIST_BUCKETS,
};
pub use plan::PlanReject;
pub use telemetry::{json_escape, TelLaneCounters, Telemetry, TelemetrySnapshot, TickProfile};
pub use time::Picoseconds;
pub use trace::{SignalId, Trace};
