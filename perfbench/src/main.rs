//! The repository benchmark: one seeded workload per invocation, every
//! output checked against an independent reference model, every
//! metric printed by name with its unit. The last stdout line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `perfbench/run.py` builds this program and adds
//! `peak_rss_mb`, which only the parent process can measure.
//!
//! Run: `python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 30 --trace 0`

mod args;
mod closed;
mod fault;
mod gen;
mod serve;
mod stats;
mod sweep;
mod trace;

use args::Workload;
use closed::{Outcome, SELF_SHARES};
use craft_soc::Fidelity;
use std::process::ExitCode;

/// End-to-end metrics this program prints (`peak_rss_mb` is added by
/// `run.py`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
    ("seeds_per_s", "1/s"),
];

/// Per-layer metrics of a traced run (besides the `self_share.*`
/// shares of [`SELF_SHARES`]). A layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("bench.cores", "count"),
    ("bench.fail_frac", "frac"),
    ("bench.gen_late_ms_p90", "ms"),
    ("bench.verify_ms_p50", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.unattributed_frac", "frac"),
    ("soc.build_ms_p50", "ms"),
    ("sim.run_ms_p50", "ms"),
    ("sim.ns_per_cycle_p50", "ns"),
    ("sim.cycles_total", "count"),
    ("model.cycle_err_pct", "%"),
    ("sim.ticks_delivered", "count"),
    ("sim.ticks_skipped", "count"),
    ("sim.commits_skipped", "count"),
    ("sim.gated_frac", "frac"),
    ("soc.rtlplan.ops_lowered", "count"),
    ("soc.rtlplan.cache_hits", "count"),
    ("soc.rtlplan.signal_word_ops", "count"),
    ("sim.shard.barrier_wait_ms", "ms"),
    ("sim.shard.barrier_share", "frac"),
    ("sim.shard.mailbox_tokens", "count"),
    ("sim.shard.fired_imbalance", "ratio"),
    ("sim.shard.speedup", "ratio"),
    ("soc.ckpt.bytes_p50", "bytes"),
    ("soc.ckpt.save_us_p50", "us"),
    ("soc.ckpt.restore_ms_p50", "ms"),
    ("soc.ckpt.restore_us_per_kcycle", "us/kcycle"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.preemptions_per_job", "1/job"),
    ("serve.segments_per_job", "1/job"),
    ("serve.replayed_kcycles_per_job", "kcycle/job"),
    ("soc.batch.deopt_frac", "frac"),
    ("soc.batch.converged_frac", "frac"),
    ("soc.batch.panicked_lanes", "count"),
    ("soc.batch.panicked_frac", "frac"),
    ("connections.fault.injected", "count"),
];

/// The metric table a run must print, in order, with units.
fn expected_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .copied()
            .chain(
                SELF_SHARES
                    .iter()
                    .chain(serve::SERVE_SHARES.iter())
                    .map(|&(_, m)| (m, "frac")),
            )
            .collect()
    } else {
        END_TO_END.to_vec()
    }
}

/// Renders the result line, checking that exactly the expected metrics
/// were recorded (layers a workload does not touch are filled with 0).
fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in expected_metrics(trace) {
        let found: Vec<_> = out
            .report
            .metrics
            .iter()
            .filter(|m| m.name == name)
            .collect();
        let value = match found.as_slice() {
            [] if trace => 0.0,
            [m] if m.unit == unit => m.value,
            _ => {
                return Err(format!(
                    "metric {name} recorded {} times or with a wrong unit",
                    found.len()
                ))
            }
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(m) = out
        .report
        .metrics
        .iter()
        .find(|m| !expected_metrics(trace).iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} is not listed for this run", m.name));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

/// Writes the spans of a traced run next to this executable and checks
/// the file is valid JSON.
fn write_trace(tracer: &trace::Tracer, workload: Workload, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    let path = dir.join(format!("trace-{}-{seed}.json", workload.name()));
    let json = tracer.chrome_json();
    std::fs::write(&path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let back =
        std::fs::read_to_string(&path).map_err(|e| format!("reading back the trace: {e}"))?;
    craft_bench::validate_json(&back).map_err(|e| format!("trace JSON invalid: {e}"))?;
    Ok(path.display().to_string())
}

fn run(args: args::Args) -> Result<(Outcome, Vec<String>), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = match args.workload {
        Workload::SimSweep => {
            sweep::run(Fidelity::SimAccurate, args.seed, args.seconds, args.trace)?
        }
        Workload::RtlCompiled => {
            sweep::run(Fidelity::RtlCompiled, args.seed, args.seconds, args.trace)?
        }
        Workload::FaultCampaign => fault::run(args.seed, args.seconds, args.trace)?,
    };
    let mut lines = vec![format!(
        "perfbench {} seed {} seconds {} trace {} | cores detected: {cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )];
    if args.trace {
        out.report.put("bench.cores", cores as f64, "count");
        out.report.ratio(
            "bench.fail_frac",
            stats::Ratio::new(out.failed as f64, out.attempted as f64),
            "frac",
        );
        if let Some(tr) = &out.trace {
            let path = write_trace(tr, args.workload, args.seed)?;
            let worst = tr.check_coverage(closed::UNATTRIBUTED_LIMIT)?;
            out.report.put("bench.unattributed_frac", worst, "frac");
            lines.push(format!(
                "trace written to {path}; layer spans account for at least {:.2}% of every op's wall time",
                100.0 * (1.0 - worst)
            ));
        }
    }
    let tail = stats::tail_percentile(out.attempted as usize).unwrap_or(0.0);
    lines.push(format!(
        "attempted {} failed {} correct {} | highest percentile with 10 samples beyond: p{tail:.1}",
        out.attempted, out.failed, out.correct
    ));
    lines.extend(out.report.lines());
    lines.extend(out.notes.iter().cloned());
    Ok((out, lines))
}

fn main() -> ExitCode {
    let parsed = match args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let result = run(parsed)
        .and_then(|(out, lines)| Ok((result_json(&out, parsed.trace)?, lines, out.correct)));
    match result {
        Ok((json, lines, correct)) => {
            for l in lines {
                println!("{l}");
            }
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: an output disagreed with the reference model");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints
    /// (plus `peak_rss_mb`, which `run.py` adds) with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        craft_bench::validate_json(&json).expect("valid JSON");
        let mut all = expected_metrics(false);
        all.extend(expected_metrics(true));
        all.push(("peak_rss_mb", "MB"));
        for (name, unit) in &all {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            all.len(),
            "extra metrics listed"
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_rejects_unlisted_metrics() {
        let mut out = Outcome {
            correct: true,
            attempted: 1,
            ..Outcome::default()
        };
        out.report.put("bench.cores", 2.0, "count");
        let line = result_json(&out, true).expect("per-layer line");
        craft_bench::validate_json(&line).expect("valid JSON");
        assert!(line.contains("\"sim.gated_frac\": {\"value\": 0, \"unit\": \"frac\"}"));
        out.report.put("made_up", 1.0, "s");
        assert!(result_json(&out, true).is_err());
        assert!(
            result_json(&out, false).is_err(),
            "end-to-end metrics missing"
        );
    }
}
