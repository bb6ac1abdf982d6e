//! Property tests for the batched lockstep backend's equivalence
//! contract: every lane of a [`BatchSoc`] — converged lanes riding the
//! shared golden run and lanes that de-opted to a solo interpreted
//! simulation mid-run alike — must be **bit-identical** to a solo
//! [`Soc`] run of the same `(pattern, fault config, seed)` triple:
//! same cycle count and completion, same full [`SocReport`], same
//! fault statistics, same global memory. Random workload × fidelity ×
//! fault-class/probability/seed vectors; the golden run keeps the
//! kernel's compiled instant plan wherever it arms, the solo
//! references run the interpreted loop.

use craft_connections::FaultConfig;
use craft_soc::batch::{BatchSoc, LaneSpec};
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{orchestrator_program, table_words, vec_add_scale, vec_mul, Workload};
use craft_soc::{Soc, SocConfig, SocReport};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MAX_CYCLES: u64 = 2_000_000;
const NO_PROGRESS: u64 = 50_000;
const HOT_LINK: &str = "l11p3->15";

/// Everything observable about one lane's simulation. `result` folds
/// run errors to their debug rendering (`SimError` is not `Eq`);
/// `gmem` reads the workload's expected regions. `None` throughout
/// when the run panicked (fail-stop).
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    result: Option<Result<(u64, bool), String>>,
    report: Option<SocReport>,
    stats: Option<craft_connections::FaultStats>,
    gmem: Option<Vec<Vec<u64>>>,
}

fn solo_outcome(cfg: SocConfig, wl: &Workload, spec: &LaneSpec) -> Outcome {
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut soc = Soc::build(cfg, &program, &table, &wl.gmem_init);
        soc.sim_mut().disarm_plan();
        soc.inject_fault(&spec.pattern, spec.cfg, spec.seed)
            .expect("pattern matches");
        let res = soc.run_checked(MAX_CYCLES, NO_PROGRESS);
        let report = soc.report();
        let stats = soc.fault_stats(&spec.pattern).expect("pattern matches");
        let gmem = wl
            .expected
            .iter()
            .map(|(base, expect)| soc.gmem_read(*base, expect.len()))
            .collect::<Vec<_>>();
        (res, report, stats, gmem)
    }));
    match ran {
        Ok((res, report, stats, gmem)) => Outcome {
            result: Some(
                res.map(|r| (r.cycles, r.completed))
                    .map_err(|e| format!("{e:?}")),
            ),
            report: Some(report),
            stats: Some(stats),
            gmem: Some(gmem),
        },
        Err(_) => Outcome {
            result: None,
            report: None,
            stats: None,
            gmem: None,
        },
    }
}

proptest! {
    // Each case is one golden run plus up to lanes+1 solo reference
    // runs of a full SoC in debug mode — keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Every batch lane ≡ its solo run, for every observable.
    #[test]
    fn every_lane_is_bit_identical_to_its_solo_run(
        workload_pick: bool,
        fidelity in prop::sample::select(vec![
            Fidelity::SimAccurate,
            Fidelity::Rtl,
            Fidelity::RtlCompiled,
        ]),
        lanes in prop::collection::vec(
            (
                0usize..3, // fault class: flip / drop / dup
                prop::sample::select(vec![0.0f64, 0.0, 0.002, 0.01, 0.25]),
                0u64..1_000_000,
            ),
            2..5,
        ),
        deopt_seed in 0u64..1_000_000,
    ) {
        let wl = if workload_pick { vec_mul() } else { vec_add_scale() };
        let cfg = SocConfig { fidelity, ..SocConfig::default() };
        let mut specs: Vec<LaneSpec> = lanes
            .iter()
            .map(|&(class, p, seed)| {
                let fc = match class {
                    0 => FaultConfig::bit_flip(p),
                    1 => FaultConfig::drop(p),
                    _ => FaultConfig::duplicate(p),
                };
                LaneSpec::new(HOT_LINK, fc, seed)
            })
            .collect();
        // Always force at least one mid-run de-opt: a certain-flip
        // lane diverges on its first token over the hot link while
        // the golden run carries on.
        specs.push(LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(1.0), deopt_seed));

        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut batch = BatchSoc::build(cfg, &program, &table, &wl.gmem_init, specs.clone())
            .expect("pattern matches");
        let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
        prop_assert!(rep.deopt_lanes >= 1, "forced lane must de-opt");

        for (spec, lane) in specs.iter().zip(&rep.lanes) {
            let solo = solo_outcome(cfg, &wl, spec);
            let batched = Outcome {
                result: lane.result.clone().map(|res| {
                    res.map(|r| (r.cycles, r.completed)).map_err(|e| format!("{e:?}"))
                }),
                report: lane.report.clone(),
                stats: lane.fault_stats.clone(),
                gmem: (!lane.panicked).then(|| {
                    wl.expected
                        .iter()
                        .map(|(base, expect)| {
                            batch
                                .gmem_read_lane(lane.lane, *base, expect.len())
                                .expect("non-panicked lane has memory")
                        })
                        .collect()
                }),
            };
            prop_assert_eq!(
                solo,
                batched,
                "lane {} diverged from its solo run (deopted={}, cfg {:?}, spec {:?})",
                lane.lane,
                lane.deopted,
                cfg,
                spec
            );
        }
    }
}

/// A lane whose fault never fires must ride the golden run (no
/// de-opt), and one drawn decision must evict exactly that lane —
/// pinning that convergence tracking is per-lane, not batch-global.
#[test]
fn deopt_is_per_lane_not_batch_global() {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let specs = vec![
        LaneSpec::new(HOT_LINK, FaultConfig::bit_flip(0.0), 1),
        LaneSpec::new(HOT_LINK, FaultConfig::drop(1.0), 2),
        LaneSpec::new(HOT_LINK, FaultConfig::duplicate(0.0), 3),
    ];
    let mut batch = BatchSoc::build(SocConfig::default(), &program, &table, &wl.gmem_init, specs)
        .expect("pattern matches");
    let rep = batch.run(MAX_CYCLES, NO_PROGRESS);
    assert_eq!(
        rep.lanes.iter().map(|l| l.deopted).collect::<Vec<_>>(),
        vec![false, true, false]
    );
    assert_eq!((rep.converged_lanes, rep.deopt_lanes), (2, 1));
    // The two zero-rate lanes shared one simulation: identical
    // reports except for the (equal) fault sections.
    assert_eq!(rep.lanes[0].report, rep.lanes[2].report);
}
