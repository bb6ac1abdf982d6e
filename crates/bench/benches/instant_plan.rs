//! Compiled instant-plan benchmarks: the whole-SoC handshake hot loop
//! interpreted vs lowered to the dispatch-free plan
//! (`Simulator::arm_plan`), plus a kernel-only microbenchmark of the
//! plan walk over a mostly-idle population. System-level ratios for
//! the committed baseline live in `BENCH_sim_kernel.json`
//! (`--bin kernel_baseline`, `compiled_schedule` section).

use craft_sim::{ActivityToken, ClockSpec, Component, Picoseconds, Simulator, TickCtx};
use craft_soc::workloads::{orchestrator_program, table_words, vec_mul, Workload};
use craft_soc::{Soc, SocConfig};
use criterion::{criterion_group, criterion_main, Criterion};

/// One full workload run — on the kernel's compiled plan, or with the
/// plan disarmed onto the interpreted loop; returns instants as a
/// liveness check.
fn run_soc(wl: &Workload, gating: bool, compiled: bool) -> u64 {
    let cfg = SocConfig {
        gating,
        ..SocConfig::default()
    };
    let mut soc = Soc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    if !compiled {
        soc.sim_mut().disarm_plan();
    }
    let r = soc.run(8_000_000);
    assert!(r.completed);
    for (base, expect) in &wl.expected {
        assert_eq!(&soc.gmem_read(*base, expect.len()), expect);
    }
    assert_eq!(soc.sim().plan_armed(), compiled && gating);
    soc.sim().instants()
}

/// Always-active component: one wrapping add per tick.
struct Spin(u64);

impl Component for Spin {
    fn name(&self) -> &str {
        "spin"
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
        self.0 = self.0.wrapping_add(1);
    }
}

/// Permanently quiescent component: sleeps after its first tick.
struct Sleeper;

impl Component for Sleeper {
    fn name(&self) -> &str {
        "sleeper"
    }
    fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
    fn is_quiescent(&self) -> bool {
        true
    }
}

/// Kernel-only: a few spinners and a large asleep population — the
/// regime the plan's `active` worklist is built for (the interpreted
/// loop still scans every component per instant).
fn run_idle_population(compiled: bool, cycles: u64) -> u64 {
    let mut sim = Simulator::new();
    let clk = sim.add_clock(ClockSpec::new("c", Picoseconds::new(909)));
    for _ in 0..2 {
        sim.add_component(clk, Spin(0));
    }
    for _ in 0..128 {
        let id = sim.add_component(clk, Sleeper);
        sim.set_wake_token(id, ActivityToken::new());
    }
    if compiled {
        sim.arm_plan().expect("uniform single clock must arm");
    }
    sim.run_cycles(clk, cycles);
    sim.ticks_delivered()
}

fn bench_instant_plan(c: &mut Criterion) {
    let wl = vec_mul();
    let mut g = c.benchmark_group("instant_plan");
    g.sample_size(10);
    g.bench_function("soc_interpreted_ungated", |b| {
        b.iter(|| run_soc(&wl, false, false))
    });
    g.bench_function("soc_interpreted_gated", |b| {
        b.iter(|| run_soc(&wl, true, false))
    });
    g.bench_function("soc_compiled_plan", |b| b.iter(|| run_soc(&wl, true, true)));
    g.bench_function("kernel_idle_interpreted", |b| {
        b.iter(|| run_idle_population(false, 10_000))
    });
    g.bench_function("kernel_idle_compiled", |b| {
        b.iter(|| run_idle_population(true, 10_000))
    });
    g.finish();
}

criterion_group!(benches, bench_instant_plan);
criterion_main!(benches);
