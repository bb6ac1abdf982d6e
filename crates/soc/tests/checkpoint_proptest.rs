//! Property tests for the checkpoint/restore golden contract:
//! **restore-then-run ≡ uninterrupted run** — bit-identical,
//! cycle-identical, report-identical and fault-statistics-identical —
//! across workload × fidelity × clocking × gating × fault-vector,
//! with the capture instant randomized via
//! [`SocConfig::checkpoint_every`], for all three engines
//! ([`Soc`], [`ParallelSoc`], [`BatchSoc`]). A checkpoint taken
//! *between a hang's onset and the watchdog's diagnosis* must resume
//! into the identical [`SimError::Hang`] diagnosis. Truncated,
//! corrupted, version-bumped and wrong-kind snapshot bytes are
//! rejected with typed errors, and telemetry is invariant across a
//! restore (the `sim.ckpt.*` probes stay observation-only).

use craft_connections::{FaultConfig, FaultStats};
use craft_sim::checkpoint::CheckpointError;
use craft_sim::{SimError, Telemetry};
use craft_soc::batch::{BatchSoc, LaneSpec};
use craft_soc::checkpoint::{BatchSnapshot, SimSnapshot};
use craft_soc::pe::Fidelity;
use craft_soc::workloads::{
    dot_product, orchestrator_program, table_words, vec_mul, TableEntry, Workload,
};
use craft_soc::{ClockingMode, ParallelSoc, PeCommand, PeOp, Soc, SocConfig, SocReport};
use proptest::prelude::*;

const MAX_CYCLES: u64 = 2_000_000;
const NO_PROGRESS: u64 = 50_000;

/// Everything observable about one run. `result` folds errors to
/// their debug rendering, which for [`SimError::Hang`] includes the
/// full diagnosis report — so hang equality below means *identical
/// `HangReport`*, not merely the same cycle.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    result: Result<(u64, bool), String>,
    report: SocReport,
    stats: Option<FaultStats>,
    gmem: Vec<Vec<u64>>,
}

type FaultVector = Option<(String, FaultConfig, u64)>;

fn observe_seq(
    soc: &Soc,
    res: Result<craft_soc::RunResult, SimError>,
    wl: &Workload,
    fault: &FaultVector,
) -> Outcome {
    Outcome {
        result: res
            .map(|r| (r.cycles, r.completed))
            .map_err(|e| format!("{e:?}")),
        report: soc.report(),
        stats: fault
            .as_ref()
            .map(|(pat, _, _)| soc.fault_stats(pat).expect("pattern matches")),
        gmem: wl
            .expected
            .iter()
            .map(|(base, expect)| soc.gmem_read(*base, expect.len()))
            .collect(),
    }
}

fn observe_par(
    soc: &ParallelSoc,
    res: Result<craft_soc::RunResult, SimError>,
    wl: &Workload,
    fault: &FaultVector,
) -> Outcome {
    Outcome {
        result: res
            .map(|r| (r.cycles, r.completed))
            .map_err(|e| format!("{e:?}")),
        report: soc.report(),
        stats: fault
            .as_ref()
            .map(|(pat, _, _)| soc.fault_stats(pat).expect("pattern matches")),
        gmem: wl
            .expected
            .iter()
            .map(|(base, expect)| soc.gmem_read(*base, expect.len()))
            .collect(),
    }
}

fn fault_vector() -> impl Strategy<Value = FaultVector> {
    prop::option::of((
        prop::sample::select(vec!["n5.eject", "n9.inject", "->"]),
        prop_oneof![
            (1u32..30).prop_map(|p| FaultConfig::bit_flip(f64::from(p) / 100.0)),
            (1u32..15).prop_map(|p| FaultConfig::drop(f64::from(p) / 100.0)),
            (1u32..30).prop_map(|p| FaultConfig::duplicate(f64::from(p) / 100.0)),
        ],
        0u64..1_000_000,
    ))
    .prop_map(|v| v.map(|(pat, cfg, seed)| (pat.to_string(), cfg, seed)))
}

proptest! {
    // Each case is one uninterrupted, one segmented and one
    // restore-resumed full-SoC run in debug mode — keep the case
    // count low; the axes each get drawn within a few cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sequential engine: a run segmented by periodic auto-
    /// checkpoints is identical to the uninterrupted run, and a fresh
    /// process restored from the *byte codec* of the last mid-run
    /// capture finishes identically — completed, corrupted or hung.
    #[test]
    fn sequential_restore_then_run_is_identical(
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
        gating: bool,
        workload_pick: bool,
        fault in fault_vector(),
        ckpt_every in 100u64..600,
    ) {
        let wl = if workload_pick { vec_mul() } else { dot_product() };
        let cfg = SocConfig { fidelity, clocking, gating, ..SocConfig::default() };
        let program = orchestrator_program();
        let table = table_words(&wl.entries);

        // Uninterrupted reference. A drawn fault vector may corrupt a
        // command word and fail-stop the run with a panic — that is
        // the fail-stop contract (covered by the batch engine's
        // solo-replay tests), not a checkpointing observable; skip
        // those draws.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut base = Soc::build(cfg, &program, &table, &wl.gmem_init);
            base.sim_mut().disarm_plan();
            if let Some((pat, fc, seed)) = &fault {
                base.inject_fault(pat, *fc, *seed).expect("pattern matches");
            }
            let base_res = base.run_checked(MAX_CYCLES, NO_PROGRESS);
            observe_seq(&base, base_res, &wl, &fault)
        }));
        let Ok(base_out) = ran else {
            return Ok(());
        };

        // The same run segmented by periodic auto-checkpoints.
        let seg_cfg = SocConfig { checkpoint_every: Some(ckpt_every), ..cfg };
        let mut seg = Soc::build(seg_cfg, &program, &table, &wl.gmem_init);
        if let Some((pat, fc, seed)) = &fault {
            seg.inject_fault(pat, *fc, *seed).expect("pattern matches");
        }
        let seg_res = seg.run_checked(MAX_CYCLES, NO_PROGRESS);
        let seg_out = observe_seq(&seg, seg_res, &wl, &fault);
        prop_assert_eq!(&base_out, &seg_out, "segmentation perturbed the run ({cfg:?})");

        // Every outcome here outlives the first segment, so a mid-run
        // capture must exist; restore it through the byte codec and
        // run to the end.
        let snap = seg.last_checkpoint().expect("mid-run capture exists");
        prop_assert!(snap.session.is_some(), "capture must carry the open session");
        let bytes = snap.to_bytes();
        let decoded = SimSnapshot::from_bytes(&bytes).expect("codec round-trip");
        let mut rest = Soc::restore(&decoded).expect("restore");
        prop_assert!(rest.session_open(), "restore must reopen the session");
        let rest_res = rest.resume_checked();
        let rest_out = observe_seq(&rest, rest_res, &wl, &fault);
        prop_assert_eq!(
            &base_out, &rest_out,
            "restore-then-run diverged ({cfg:?}, ckpt at {} cycles)",
            snap.hub_cycles
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sharded engine: coordinated epoch-boundary captures restore
    /// into runs identical to the uninterrupted sharded run —
    /// including watchdog accounting carried across the seam.
    #[test]
    fn parallel_restore_then_run_is_identical(
        fidelity in prop::sample::select(vec![Fidelity::SimAccurate, Fidelity::Rtl]),
        clocking in prop_oneof![
            Just(ClockingMode::Synchronous),
            (100u32..5_000).prop_map(|spread_ppm| ClockingMode::Gals { spread_ppm }),
        ],
        threads in prop::sample::select(vec![2usize, 4]),
        fault in fault_vector(),
        ckpt_every in 100u64..600,
    ) {
        let wl = vec_mul();
        let cfg = SocConfig { fidelity, clocking, ..SocConfig::default() };
        let program = orchestrator_program();
        let table = table_words(&wl.entries);

        let mut base = ParallelSoc::build(cfg, &program, &table, &wl.gmem_init, threads);
        if let Some((pat, fc, seed)) = &fault {
            base.inject_fault(pat, *fc, *seed).expect("pattern matches");
        }
        let base_res = base.run_checked(MAX_CYCLES, NO_PROGRESS);
        let base_out = observe_par(&base, base_res, &wl, &fault);

        let seg_cfg = SocConfig { checkpoint_every: Some(ckpt_every), ..cfg };
        let mut seg = ParallelSoc::build(seg_cfg, &program, &table, &wl.gmem_init, threads);
        if let Some((pat, fc, seed)) = &fault {
            seg.inject_fault(pat, *fc, *seed).expect("pattern matches");
        }
        let seg_res = seg.run_checked(MAX_CYCLES, NO_PROGRESS);
        let seg_out = observe_par(&seg, seg_res, &wl, &fault);
        prop_assert_eq!(
            &base_out, &seg_out,
            "segmentation perturbed the sharded run ({cfg:?}, {} threads)",
            threads
        );

        let snap = seg.last_checkpoint().expect("mid-run capture exists");
        let bytes = snap.to_bytes();
        let decoded = SimSnapshot::from_bytes(&bytes).expect("codec round-trip");
        let mut rest = ParallelSoc::restore(&decoded, threads).expect("restore");
        prop_assert!(rest.session_open(), "restore must reopen the session");
        let rest_res = rest.resume_checked();
        let rest_out = observe_par(&rest, rest_res, &wl, &fault);
        prop_assert_eq!(
            &base_out, &rest_out,
            "sharded restore-then-run diverged ({cfg:?}, ckpt at {} cycles)",
            snap.hub_cycles
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Batched lockstep engine: the golden snapshot plus per-lane
    /// shadow state restores into a batch whose every lane — golden-
    /// riding and de-opted alike — finishes identical to the
    /// uninterrupted batch.
    #[test]
    fn batch_restore_then_run_is_identical(
        fidelity in prop::sample::select(vec![Fidelity::SimAccurate, Fidelity::Rtl]),
        lanes in prop::collection::vec(
            (
                0usize..3,
                prop::sample::select(vec![0.0f64, 0.002, 0.01, 0.25]),
                0u64..1_000_000,
            ),
            2..4,
        ),
        deopt_seed in 0u64..1_000_000,
        ckpt_every in 100u64..600,
    ) {
        let wl = vec_mul();
        let cfg = SocConfig { fidelity, ..SocConfig::default() };
        let program = orchestrator_program();
        let table = table_words(&wl.entries);
        let mut specs: Vec<LaneSpec> = lanes
            .iter()
            .map(|&(class, p, seed)| {
                let fc = match class {
                    0 => FaultConfig::bit_flip(p),
                    1 => FaultConfig::drop(p),
                    _ => FaultConfig::duplicate(p),
                };
                LaneSpec::new("l11p3->15", fc, seed)
            })
            .collect();
        // Force at least one mid-run de-opt so the restored batch has
        // to reproduce shadow divergence state, not just clean lanes.
        specs.push(LaneSpec::new("l11p3->15", FaultConfig::bit_flip(1.0), deopt_seed));

        let fold = |rep: &craft_soc::BatchReport| {
            let golden = rep
                .golden
                .as_ref()
                .map(|r| (r.cycles, r.ctrl, r.completed))
                .map_err(|e| format!("{e:?}"));
            let lanes: Vec<_> = rep
                .lanes
                .iter()
                .map(|l| {
                    (
                        l.deopted,
                        l.diverged_at_token,
                        l.panicked,
                        l.result.clone().map(|res| {
                            res.map(|r| (r.cycles, r.completed)).map_err(|e| format!("{e:?}"))
                        }),
                        l.report.clone(),
                        l.fault_stats.clone(),
                    )
                })
                .collect();
            (golden, lanes)
        };

        let mut base =
            BatchSoc::build(cfg, &program, &table, &wl.gmem_init, specs.clone())
                .expect("pattern matches");
        let base_rep = base.run(MAX_CYCLES, NO_PROGRESS);

        let seg_cfg = SocConfig { checkpoint_every: Some(ckpt_every), ..cfg };
        let mut seg =
            BatchSoc::build(seg_cfg, &program, &table, &wl.gmem_init, specs.clone())
                .expect("pattern matches");
        let seg_rep = seg.run(MAX_CYCLES, NO_PROGRESS);
        prop_assert_eq!(
            fold(&base_rep), fold(&seg_rep),
            "segmentation perturbed the batch ({cfg:?})"
        );

        let snap = seg.last_checkpoint().expect("mid-run capture exists");
        let bytes = snap.to_bytes();
        let decoded = BatchSnapshot::from_bytes(&bytes).expect("codec round-trip");
        let mut rest = BatchSoc::restore(&decoded).expect("restore");
        let rest_rep = rest.resume();
        prop_assert_eq!(
            fold(&base_rep), fold(&rest_rep),
            "batch restore-then-run diverged ({cfg:?})"
        );
        for lane in &rest_rep.lanes {
            if lane.panicked {
                continue;
            }
            for (b, expect) in &wl.expected {
                prop_assert_eq!(
                    base.gmem_read_lane(lane.lane, *b, expect.len()),
                    rest.gmem_read_lane(lane.lane, *b, expect.len()),
                    "lane {} memory diverged across restore",
                    lane.lane
                );
            }
        }
    }
}

/// A workload whose delivery channel suffers total flit loss: the hub
/// strands on PE 5 and the watchdog eventually diagnoses the hang.
type HangRecipe = (Vec<u32>, Vec<u32>, Vec<(usize, Vec<u64>)>);

fn hang_recipe() -> HangRecipe {
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
    (orchestrator_program(), table_words(&entries), gmem_init)
}

/// A checkpoint taken between a hang's onset and the watchdog's
/// diagnosis resumes into the **identical** diagnosis: same cycle,
/// same simulation time, same full `HangReport`, rendered identically.
#[test]
fn mid_hang_checkpoint_reproduces_the_diagnosis() {
    let (program, table, gmem_init) = hang_recipe();
    let cfg = SocConfig::default();

    let mut base = Soc::build(cfg, &program, &table, &gmem_init);
    base.sim_mut().disarm_plan();
    base.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
        .expect("channel exists");
    let base_err = base
        .run_checked(MAX_CYCLES, 20_000)
        .expect_err("total loss must hang");

    // Segment the same run: the last auto-capture before the
    // diagnosis lands deep inside the idle window.
    let seg_cfg = SocConfig {
        checkpoint_every: Some(5_000),
        ..cfg
    };
    let mut seg = Soc::build(seg_cfg, &program, &table, &gmem_init);
    seg.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
        .expect("channel exists");
    let seg_err = seg
        .run_checked(MAX_CYCLES, 20_000)
        .expect_err("total loss must hang");
    assert_eq!(
        format!("{base_err:?}"),
        format!("{seg_err:?}"),
        "segmentation perturbed the diagnosis"
    );

    let snap = seg.last_checkpoint().expect("capture before diagnosis");
    let session = snap.session.as_ref().expect("session captured");
    assert!(
        session.wd.idle > 0,
        "capture must land after the hang's onset (idle={})",
        session.wd.idle
    );
    let SimError::Hang { cycle, .. } = &base_err else {
        panic!("expected Hang, got {base_err:?}");
    };
    assert!(
        snap.hub_cycles < *cycle,
        "capture must land before the diagnosis ({} >= {cycle})",
        snap.hub_cycles
    );

    let decoded = SimSnapshot::from_bytes(&snap.to_bytes()).expect("codec round-trip");
    let mut rest = Soc::restore(&decoded).expect("restore");
    let rest_err = rest.resume_checked().expect_err("hang must reproduce");
    assert_eq!(
        format!("{base_err:?}"),
        format!("{rest_err:?}"),
        "restored run produced a different diagnosis"
    );
}

/// The same mid-hang contract on the sharded engine: watchdog idle
/// accounting carried across the capture seam reproduces the merged
/// diagnosis exactly.
#[test]
fn parallel_mid_hang_checkpoint_reproduces_the_diagnosis() {
    let (program, table, gmem_init) = hang_recipe();
    let seg_cfg = SocConfig {
        checkpoint_every: Some(5_000),
        ..SocConfig::default()
    };
    let mut seg = ParallelSoc::build(seg_cfg, &program, &table, &gmem_init, 2);
    seg.inject_fault("n5.eject", FaultConfig::drop(1.0), 3)
        .expect("channel exists");
    let seg_err = seg
        .run_checked(MAX_CYCLES, 20_000)
        .expect_err("total loss must hang");

    let snap = seg.last_checkpoint().expect("capture before diagnosis");
    let session = snap.session.as_ref().expect("session captured");
    assert!(session.wd.idle > 0, "capture must land after the onset");
    let SimError::Hang { cycle, .. } = &seg_err else {
        panic!("expected Hang, got {seg_err:?}");
    };
    assert!(
        snap.hub_cycles < *cycle,
        "capture must precede the diagnosis"
    );

    let decoded = SimSnapshot::from_bytes(&snap.to_bytes()).expect("codec round-trip");
    let mut rest = ParallelSoc::restore(&decoded, 2).expect("restore");
    let rest_err = rest.resume_checked().expect_err("hang must reproduce");
    assert_eq!(
        format!("{seg_err:?}"),
        format!("{rest_err:?}"),
        "restored sharded run produced a different diagnosis"
    );
}

/// Damaged snapshot bytes are rejected with the matching typed error
/// — never a panic, never a silently divergent SoC.
#[test]
fn damaged_snapshots_are_rejected_with_typed_errors() {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let soc = Soc::build(SocConfig::default(), &program, &table, &wl.gmem_init);
    let bytes = soc.checkpoint().to_bytes();

    // Version bump → UnsupportedVersion carrying both versions.
    let mut v = bytes.clone();
    v[8] = v[8].wrapping_add(1);
    match SimSnapshot::from_bytes(&v) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, supported + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // A version-1 frame (its recipe carried a since-removed schedule
    // byte) is rejected, not misparsed.
    let mut v1 = bytes.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert_eq!(
        SimSnapshot::from_bytes(&v1).err(),
        Some(CheckpointError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    );

    // Truncation → Truncated with the byte deficit.
    let cut = bytes.len() / 2;
    match SimSnapshot::from_bytes(&bytes[..cut]) {
        Err(CheckpointError::Truncated { needed, have }) => {
            assert!(needed > have, "deficit must be visible: {needed} vs {have}");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }

    // Payload bit rot → Corrupted with both checksums.
    let mut c = bytes.clone();
    let mid = c.len() - 20;
    c[mid] ^= 0x40;
    match SimSnapshot::from_bytes(&c) {
        Err(CheckpointError::Corrupted { expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("expected Corrupted, got {other:?}"),
    }

    // A batch snapshot fed to the SoC reader → WrongKind.
    let specs = vec![LaneSpec::new("l11p3->15", FaultConfig::bit_flip(0.01), 7)];
    let batch = BatchSoc::build(SocConfig::default(), &program, &table, &wl.gmem_init, specs)
        .expect("pattern matches");
    let batch_bytes = batch.checkpoint().to_bytes();
    match SimSnapshot::from_bytes(&batch_bytes) {
        Err(CheckpointError::WrongKind { found, expected }) => {
            assert_ne!(found, expected);
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
    match BatchSnapshot::from_bytes(&bytes) {
        Err(CheckpointError::WrongKind { .. }) => {}
        other => panic!("expected WrongKind, got {other:?}"),
    }
}

/// Telemetry is part of the restore-then-run contract: the rendered
/// snapshot of a restored-and-resumed run is byte-identical to the
/// uninterrupted run's, and the `sim.ckpt.*` probes record captures
/// without perturbing any architectural observable.
#[test]
fn telemetry_is_invariant_across_restore() {
    let wl = vec_mul();
    let program = orchestrator_program();
    let table = table_words(&wl.entries);
    let cfg = SocConfig::default();

    // Uninterrupted telemetry reference — never captures.
    let mut base =
        Soc::build_with_telemetry(cfg, &program, &table, &wl.gmem_init, Some(Telemetry::new()));
    let base_res = base
        .run_checked(MAX_CYCLES, NO_PROGRESS)
        .expect("clean run");
    let base_tel = base.telemetry_snapshot().expect("sink attached");
    let base_json = base_tel.to_json();

    // A third instance produces the snapshot so that neither compared
    // run captures; the restored run resumes without auto-captures
    // (the recipe is data — the caller may resume under any policy).
    let producer_cfg = SocConfig {
        checkpoint_every: Some(300),
        ..cfg
    };
    let mut producer = Soc::build(producer_cfg, &program, &table, &wl.gmem_init);
    producer
        .run_checked(MAX_CYCLES, NO_PROGRESS)
        .expect("clean run");
    let mut snap = producer.last_checkpoint().expect("auto-capture").clone();
    snap.cfg.checkpoint_every = None;

    let mut rest = Soc::restore_with_telemetry(&snap, Some(Telemetry::new())).expect("restore");
    let rest_res = rest.resume_checked().expect("clean resume");
    assert_eq!(base_res.cycles, rest_res.cycles, "cycle counts diverged");
    let rest_json = rest.telemetry_snapshot().expect("sink attached").to_json();
    assert_eq!(base_json, rest_json, "telemetry diverged across restore");

    // Checkpoint probes are observation-only: a capturing run matches
    // the reference on every architectural observable while its
    // counters record the captures.
    let mut capt = Soc::build_with_telemetry(
        producer_cfg,
        &program,
        &table,
        &wl.gmem_init,
        Some(Telemetry::new()),
    );
    let capt_res = capt
        .run_checked(MAX_CYCLES, NO_PROGRESS)
        .expect("clean run");
    assert_eq!(
        capt_res.cycles, base_res.cycles,
        "captures perturbed the run"
    );
    assert_eq!(
        capt.report(),
        base.report(),
        "captures perturbed the report"
    );
    let capt_tel = capt.telemetry_snapshot().expect("sink attached");
    let row = |tel: &craft_sim::TelemetrySnapshot, path: &str| {
        tel.metrics
            .iter()
            .find(|m| m.path == path)
            .unwrap_or_else(|| panic!("missing probe {path}"))
            .value
    };
    assert!(
        row(&capt_tel, "sim.ckpt.count") >= 2,
        "periodic captures must be counted"
    );
    assert!(row(&capt_tel, "sim.ckpt.bytes") > 0, "bytes not recorded");
    assert_eq!(
        row(&base_tel, "sim.ckpt.count"),
        0,
        "the reference must never capture"
    );
}
