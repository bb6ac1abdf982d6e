//! Property tests for the arbitrary-partition determinism contract:
//! **any** valid LI-boundary [`PartitionSpec`] — random cuts,
//! profile-chosen cuts, and cuts swapped mid-flight by
//! repartition-at-checkpoint — must be bit-, cycle- and
//! report-identical to the sequential [`Soc`], across fidelity,
//! clocking scheme and fault campaigns, including a mid-hang
//! repartition producing the identical merged `HangReport`.

use craft_connections::FaultConfig;
use craft_sim::SimError;
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{orchestrator_program, table_words, vec_mul, TableEntry, Workload};
use craft_soc::{
    partition_search, ClockingMode, NodeCosts, ParallelSoc, PartitionSpec, PeCommand, PeOp,
    SegmentStatus, Soc, SocConfig, SocReport,
};
use proptest::prelude::*;

/// Everything observable about one run, sequential or partitioned.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    cycles: u64,
    completed: bool,
    verified: bool,
    report: SocReport,
    coverage: Vec<(String, u64)>,
}

fn run_seq(cfg: SocConfig, wl: &Workload, max: u64) -> Outcome {
    let mut soc = Soc::build(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
    );
    // The golden reference is the interpreted loop, not the plan.
    soc.sim_mut().disarm_plan();
    let r = soc.run(max);
    let mut verified = r.completed;
    for (base, expect) in &wl.expected {
        if &soc.gmem_read(*base, expect.len()) != expect {
            verified = false;
        }
    }
    Outcome {
        cycles: r.cycles,
        completed: r.completed,
        verified,
        report: soc.report(),
        coverage: soc.coverage().bins(),
    }
}

fn run_cut(cfg: SocConfig, wl: &Workload, max: u64, spec: PartitionSpec) -> Outcome {
    let mut soc = ParallelSoc::build_partitioned(
        cfg,
        &orchestrator_program(),
        &table_words(&wl.entries),
        &wl.gmem_init,
        spec,
        false,
    );
    let r = soc.run(max);
    let mut verified = r.completed;
    for (base, expect) in &wl.expected {
        if &soc.gmem_read(*base, expect.len()) != expect {
            verified = false;
        }
    }
    Outcome {
        cycles: r.cycles,
        completed: r.completed,
        verified,
        report: soc.report(),
        coverage: soc.coverage().bins(),
    }
}

/// Compacts an arbitrary 16-entry shard draw into a dense, structurally
/// valid [`PartitionSpec`] (shard ids renumbered by first appearance).
fn dense_spec(raw: &[usize]) -> PartitionSpec {
    let mut ids: Vec<Option<usize>> = vec![None; 16];
    let mut next = 0usize;
    let mut owner = [0usize; 16];
    for (n, &r) in raw.iter().enumerate() {
        let id = *ids[r].get_or_insert_with(|| {
            let v = next;
            next += 1;
            v
        });
        owner[n] = id;
    }
    PartitionSpec::from_owner(&owner).expect("compacted map is dense")
}

proptest! {
    // Each case is one sequential plus one multi-threaded full-SoC run
    // in debug mode on a small host — keep the case count low; the
    // fidelity/clocking/cut axes each get drawn within a few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Clean runs: sequential ≡ any random LI-boundary cut for every
    /// observable. All mesh links are buffered (LI), so every dense
    /// node→shard map is a valid cut — the strategy draws the map
    /// uniformly, hub placement included.
    #[test]
    fn random_cuts_are_bit_and_cycle_identical(
        fidelity in prop::sample::select(vec![
            Fidelity::SimAccurate,
            Fidelity::Rtl,
            Fidelity::RtlCompiled,
        ]),
        clocking in prop_oneof![
            Just(ClockingMode::Synchronous),
            (100u32..5_000).prop_map(|spread_ppm| ClockingMode::Gals { spread_ppm }),
            (0u64..1_000_000).prop_map(|noise_seed| ClockingMode::GalsAdaptive { noise_seed }),
        ],
        raw in prop::collection::vec(0usize..4, 16),
    ) {
        let spec = dense_spec(&raw);
        let cfg = SocConfig { fidelity, clocking, ..SocConfig::default() };
        spec.validate_for(&cfg).expect("every mesh cut is LI");
        let wl = vec_mul();
        let seq = run_seq(cfg, &wl, 2_000_000);
        let par = run_cut(cfg, &wl, 2_000_000, spec);
        prop_assert!(seq.verified, "sequential baseline must verify ({cfg:?})");
        prop_assert_eq!(seq, par, "cut {} diverged ({cfg:?})", spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fault campaigns are partition-invariant: identical injector
    /// seeds produce identical outcomes and fault statistics on any
    /// cut, because every worker builds the full channel registry in
    /// sequential order (seed parity) whatever the owner map says.
    #[test]
    fn fault_campaigns_are_partition_invariant(
        raw in prop::collection::vec(0usize..3, 16),
        pat in prop::sample::select(vec!["n5.eject", "n9.inject", "->"]),
        fault in prop_oneof![
            (1u32..30).prop_map(|p| FaultConfig::bit_flip(f64::from(p) / 100.0)),
            (1u32..15).prop_map(|p| FaultConfig::drop(f64::from(p) / 100.0)),
            (1u32..30).prop_map(|p| FaultConfig::duplicate(f64::from(p) / 100.0)),
        ],
        seed in 0u64..1_000_000,
    ) {
        let spec = dense_spec(&raw);
        let cfg = SocConfig::default();
        let wl = vec_mul();
        let program = orchestrator_program();
        let table = table_words(&wl.entries);

        let mut seq = Soc::build(cfg, &program, &table, &wl.gmem_init);
        seq.sim_mut().disarm_plan();
        let seq_matched = seq.inject_fault(pat, fault, seed).expect("pattern matches");
        prop_assert!(seq_matched > 0);
        let seq_run = seq.run_checked(2_000_000, 50_000);

        let mut par =
            ParallelSoc::build_partitioned(cfg, &program, &table, &wl.gmem_init, spec, false);
        let par_matched = par.inject_fault(pat, fault, seed).expect("pattern matches");
        prop_assert_eq!(seq_matched, par_matched, "match counts diverged on {}", spec);
        let par_run = par.run_checked(2_000_000, 50_000);

        match (&seq_run, &par_run) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(s.cycles, p.cycles, "cycles diverged on {}", spec);
                prop_assert_eq!(s.completed, p.completed);
                prop_assert_eq!(seq.report(), par.report(), "reports diverged on {}", spec);
            }
            (Err(SimError::Hang { cycle: sc, .. }), Err(SimError::Hang { cycle: pc, .. })) => {
                // The parallel watchdog aggregates progress one epoch
                // late, so detection may trail by an instant or two.
                prop_assert!(
                    *pc >= *sc && *pc - *sc <= 2,
                    "hang cycles diverged on {}: seq {sc}, par {pc}", spec
                );
            }
            (s, p) => prop_assert!(
                false,
                "outcome kinds diverged on {}: seq {s:?}, par {p:?}", spec
            ),
        }
        prop_assert_eq!(
            seq.fault_stats(pat).expect("pattern matches"),
            par.fault_stats(pat).expect("pattern matches"),
            "fault statistics diverged on {}", spec
        );
    }
}

/// The profile-guided loop end to end: calibrate sequentially, derive
/// [`NodeCosts`], search a cut — the chosen cut must be valid, no
/// worse than the fixed strip under the model, and (the golden
/// contract) bit-identical to the sequential run.
#[test]
fn profile_chosen_cuts_stay_identical_and_no_worse_modeled() {
    let cfg = SocConfig::default();
    let wl = vec_mul();
    let seq = run_seq(cfg, &wl, 2_000_000);
    assert!(seq.verified);
    let costs = NodeCosts::from_report(&seq.report);
    let pen = costs.default_cut_penalty();
    for shards in [2usize, 3, 4] {
        let spec = partition_search(&costs, shards, pen);
        assert_eq!(spec.shards(), shards);
        spec.validate_for(&cfg).expect("searched cut is LI");
        if let Some(strips) = PartitionSpec::vertical_strips_checked(shards) {
            assert!(
                costs.makespan(&spec, pen) <= costs.makespan(&strips, pen),
                "{shards}-shard search must not be worse than strips"
            );
        }
        let par = run_cut(cfg, &wl, 2_000_000, spec);
        assert_eq!(seq, par, "profile-chosen {shards}-shard cut diverged");
    }
}

/// Drives a segmented supervised run, swapping to `next` at the first
/// checkpoint boundary.
fn run_repartitioned(
    soc: &mut ParallelSoc,
    max: u64,
    npl: u64,
    next: PartitionSpec,
) -> (Result<craft_soc::RunResult, SimError>, bool) {
    soc.begin_checked(max, npl);
    let mut swapped = false;
    loop {
        match soc.step_segment() {
            Ok(SegmentStatus::Boundary) => {
                if !swapped {
                    soc.repartition(next).expect("repartition replays");
                    swapped = true;
                }
            }
            Ok(SegmentStatus::Done(r)) => return (Ok(r), swapped),
            Err(e) => return (Err(e), swapped),
        }
    }
}

/// Repartition-at-checkpoint identity: run A uninterrupted ≡ run B
/// rebuilt mid-flight under a different cut (including a different
/// shard count), for the result, the report and the memory image.
#[test]
fn repartition_at_checkpoint_matches_uninterrupted() {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);

    let mut base = ParallelSoc::build(SocConfig::default(), &program, &table, &wl.gmem_init, 2);
    let base_res = base.run_checked(2_000_000, 100_000).expect("clean run");
    assert!(base_res.completed);

    let cfg = SocConfig::builder()
        .checkpoint_every(Some(250))
        .build()
        .expect("valid config");
    // 2-shard strips → an asymmetric 3-shard cut mid-flight.
    let next = PartitionSpec::parse("0001011101220222").expect("valid cut");
    let mut seg = ParallelSoc::build(cfg, &program, &table, &wl.gmem_init, 2);
    let (res, swapped) = run_repartitioned(&mut seg, 2_000_000, 100_000, next);
    let res = res.expect("clean repartitioned run");
    assert!(swapped, "run too short to hit a checkpoint boundary");
    assert_eq!(seg.partition_spec(), next, "cut did not take effect");
    assert_eq!(seg.threads(), 3);
    assert_eq!(seg.repartitions(), 1);
    assert!(res.completed);
    assert_eq!(res.cycles, base_res.cycles, "repartition changed cycles");
    assert_eq!(res.ctrl, base_res.ctrl);
    assert_eq!(
        seg.report(),
        base.report(),
        "repartition changed the report"
    );
    for (gbase, expect) in &wl.expected {
        assert_eq!(&seg.gmem_read(*gbase, expect.len()), expect);
    }
}

/// Auto mode end to end: a `set_auto_repartition` facade re-cuts
/// itself from its own profile at segment boundaries and still
/// finishes bit-identical to the uninterrupted fixed-cut run.
#[test]
fn auto_repartition_run_is_bit_identical() {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);

    let mut base = ParallelSoc::build(SocConfig::default(), &program, &table, &wl.gmem_init, 2);
    let base_res = base.run_checked(2_000_000, 100_000).expect("clean run");

    let cfg = SocConfig::builder()
        .checkpoint_every(Some(300))
        .build()
        .expect("valid config");
    let mut auto = ParallelSoc::build(cfg, &program, &table, &wl.gmem_init, 2);
    auto.set_auto_repartition(true);
    let auto_res = auto.run_checked(2_000_000, 100_000).expect("clean run");
    assert_eq!(auto_res.cycles, base_res.cycles, "auto mode changed cycles");
    assert_eq!(auto.report(), base.report(), "auto mode changed the report");
    // vec_mul loads only PEs 0-3, so the balanced strip is badly
    // skewed and the profile-guided search must find a strictly
    // better modeled cut at the first boundary.
    assert!(
        auto.repartitions() > 0,
        "skewed workload must trigger a rebalance"
    );
    let costs = NodeCosts::from_report(&auto.report());
    let pen = costs.default_cut_penalty();
    assert!(
        costs.makespan(&auto.partition_spec(), pen)
            < costs.makespan(&PartitionSpec::vertical_strips(2), pen),
        "adopted cut must beat the strip under the model"
    );
}

/// The mid-hang case: a run that is *going to hang* is repartitioned
/// at a checkpoint boundary first — the hang must still trip on the
/// identical cycle with the identical merged diagnosis (component
/// waits and channel notes), modulo worker-merge order.
#[test]
fn mid_hang_repartition_produces_identical_hang_report() {
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
    let program = orchestrator_program();
    let table = table_words(&entries);

    let digest = |err: SimError| {
        let SimError::Hang { cycle, report, .. } = err else {
            panic!("expected Hang, got {err}");
        };
        let mut comps: Vec<(String, Option<String>)> = report
            .components
            .iter()
            .map(|c| (c.name.clone(), c.wait.clone()))
            .collect();
        comps.sort();
        let mut chans: Vec<(String, String)> = report
            .channels
            .iter()
            .map(|c| (c.name.clone(), c.note.clone()))
            .collect();
        chans.sort();
        (cycle, report.idle_cycles, comps, chans)
    };

    let cfg = SocConfig::builder()
        .checkpoint_every(Some(200))
        .build()
        .expect("valid config");

    let mut base = ParallelSoc::build(cfg, &program, &table, &gmem_init, 2);
    base.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
        .expect("channel exists");
    let base_hang = digest(
        base.run_checked(2_000_000, 2_000)
            .expect_err("total loss must hang"),
    );

    let next = PartitionSpec::parse("0001011101220222").expect("valid cut");
    let mut seg = ParallelSoc::build(cfg, &program, &table, &gmem_init, 2);
    seg.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
        .expect("channel exists");
    let (res, swapped) = run_repartitioned(&mut seg, 2_000_000, 2_000, next);
    assert!(swapped, "hang tripped before the first boundary");
    let seg_hang = digest(res.expect_err("total loss must hang after repartition"));

    assert_eq!(base_hang, seg_hang, "hang diagnosis diverged");
}
