//! Batched lockstep co-simulation benchmarks: one golden run carrying
//! N sibling fault lanes (`BatchSoc`) vs the serial per-seed loop the
//! batch replaces. The orchestrator program and command table compile
//! once; each measured iteration builds and runs the simulations.
//! System-level ratios for the committed baseline live in
//! `BENCH_fault_campaign.json` (`--bin fault_campaign`, `batch`
//! section) and `BENCH_sim_kernel.json` (`batched` section).

use craft_connections::FaultConfig;
use craft_soc::workloads::{orchestrator_program, table_words, vec_mul};
use craft_soc::{BatchSoc, LaneSpec, Soc, SocConfig};
use criterion::{criterion_group, criterion_main, Criterion};

/// Hot mesh link / fault rate / seed base of the committed batched
/// baselines — the rare-fault regime word-parallel batching targets.
const HOT_LINK: &str = "l11p3->15";
const FAULT_P: f64 = 0.0003;
const SEED_BASE: u64 = 800;
const MAX_CYCLES: u64 = 8_000_000;
const NO_PROGRESS: u64 = 100_000;

fn lane_specs(lanes: u64) -> Vec<LaneSpec> {
    (0..lanes)
        .map(|s| LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(FAULT_P), SEED_BASE + s))
        .collect()
}

/// One N-lane batch: golden run + shadow lanes (+ any de-opt replays).
fn run_batched(program: &[u32], table: &[u32], gmem: &[(usize, Vec<u64>)], lanes: u64) -> usize {
    let mut batch = BatchSoc::build(
        SocConfig::default(),
        program,
        table,
        gmem,
        lane_specs(lanes),
    )
    .expect("hot link exists");
    let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
    assert_eq!(rep.converged_lanes + rep.deopt_lanes, lanes as usize);
    rep.converged_lanes
}

/// The loop the batch replaces: one full build + inject + run per seed.
fn run_serial(program: &[u32], table: &[u32], gmem: &[(usize, Vec<u64>)], lanes: u64) -> u64 {
    let mut cycles = 0;
    for spec in lane_specs(lanes) {
        let mut soc = Soc::build(SocConfig::default(), program, table, gmem);
        soc.inject_fault(&spec.pattern, spec.cfg, spec.seed)
            .expect("hot link exists");
        let r = soc
            .run_checked(MAX_CYCLES, NO_PROGRESS)
            .expect("rare faults do not hang vec_mul at this seed base");
        cycles += r.cycles;
    }
    cycles
}

fn bench_batch_lockstep(c: &mut Criterion) {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let mut g = c.benchmark_group("batch_lockstep");
    g.sample_size(10);
    for lanes in [1u64, 4, 16, 64] {
        g.bench_function(format!("batched_x{lanes}"), |b| {
            b.iter(|| run_batched(&program, &table, &wl.gmem_init, lanes))
        });
    }
    g.bench_function("serial_x16", |b| {
        b.iter(|| run_serial(&program, &table, &wl.gmem_init, 16))
    });
    g.finish();
}

criterion_group!(benches, bench_batch_lockstep);
criterion_main!(benches);
