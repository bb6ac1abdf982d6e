//! Command-line parsing. Every malformed invocation is a typed
//! [`ArgError`] and nothing runs: an unknown flag (including
//! `--help`) is never ignored.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 1 client: generated programs on a fresh sequential
    /// `Soc` at `SimAccurate`.
    SimSweep,
    /// Closed loop, 1 client: the same program stream on a fresh
    /// sequential `Soc` at `RtlCompiled`.
    RtlCompiled,
    /// Closed loop, 1 client: one `BatchSoc` fault campaign per op.
    FaultCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SimSweep,
        Workload::RtlCompiled,
        Workload::FaultCampaign,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim_sweep",
            Workload::RtlCompiled => "rtl_compiled",
            Workload::FaultCampaign => "fault_campaign",
        }
    }
}

/// One checked invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Measurement window in seconds, 1 to [`MAX_SECONDS`].
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag this program does not know.
    UnknownFlag(String),
    /// A flag given without its value.
    MissingValue(&'static str),
    /// A flag given twice.
    Repeated(&'static str),
    /// A required flag was not given.
    Missing(&'static str),
    /// `--workload` named no workload.
    UnknownWorkload(String),
    /// A value that is not a number of the expected kind.
    BadNumber {
        /// The flag.
        flag: &'static str,
        /// The value as given.
        value: String,
    },
    /// `--trace` other than 0 or 1.
    BadTrace(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(s) => write!(f, "unknown argument {s:?}"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Repeated(flag) => write!(f, "{flag} given more than once"),
            ArgError::Missing(flag) => write!(f, "{flag} is required"),
            ArgError::UnknownWorkload(s) => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(f, "unknown workload {s:?} (one of {})", names.join(", "))
            }
            ArgError::BadNumber { flag, value } => {
                write!(f, "{flag} wants a whole number, got {value:?}")
            }
            ArgError::BadTrace(s) => write!(f, "--trace wants 0 or 1, got {s:?}"),
        }
    }
}

/// Longest measurement window: with set-up and the traced run's
/// probes, a run then ends well within the 170 s that `run.py` allows.
pub const MAX_SECONDS: u64 = 60;

/// Usage line printed with every argument error.
pub const USAGE: &str = "usage: perfbench --workload <sim_sweep|rtl_compiled|fault_campaign> \
     --seed <u64> --seconds <1..=60> --trace <0|1>";

fn number(flag: &'static str, value: &str, max: u64) -> Result<u64, ArgError> {
    match value.parse::<u64>() {
        Ok(n) if n <= max => Ok(n),
        _ => Err(ArgError::BadNumber {
            flag,
            value: value.to_string(),
        }),
    }
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, ArgError> {
    const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];
    let mut values: [Option<String>; 4] = Default::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let Some(i) = FLAGS.iter().position(|f| *f == arg) else {
            return Err(ArgError::UnknownFlag(arg));
        };
        let value = it.next().ok_or(ArgError::MissingValue(FLAGS[i]))?;
        if values[i].replace(value).is_some() {
            return Err(ArgError::Repeated(FLAGS[i]));
        }
    }
    let [workload, seed, seconds, trace] = values;
    let workload = workload.ok_or(ArgError::Missing("--workload"))?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or(ArgError::UnknownWorkload(workload))?;
    let seed = number(
        "--seed",
        &seed.ok_or(ArgError::Missing("--seed"))?,
        u64::MAX,
    )?;
    let seconds = number(
        "--seconds",
        &seconds.ok_or(ArgError::Missing("--seconds"))?,
        MAX_SECONDS,
    )?;
    if seconds == 0 {
        return Err(ArgError::BadNumber {
            flag: "--seconds",
            value: "0".into(),
        });
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(ArgError::BadTrace(other.to_string())),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Args, ArgError> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn accepts_the_documented_form() {
        let a = p("--workload rtl_compiled --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::RtlCompiled,
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
        assert!(
            !p("--seed 1 --workload sim_sweep --seconds 3")
                .expect("valid")
                .trace
        );
    }

    #[test]
    fn rejects_every_malformed_form() {
        let bad = [
            ("--help", ArgError::UnknownFlag("--help".into())),
            (
                "--workload sim_sweep --seed 1 --seconds 2 --verbose",
                ArgError::UnknownFlag("--verbose".into()),
            ),
            (
                "--workload sim_sweep --seed -3 --seconds 2",
                ArgError::BadNumber {
                    flag: "--seed",
                    value: "-3".into(),
                },
            ),
            (
                "--workload sim_sweep --seed 0x10 --seconds 2",
                ArgError::BadNumber {
                    flag: "--seed",
                    value: "0x10".into(),
                },
            ),
            (
                "--workload nope --seed 1 --seconds 2",
                ArgError::UnknownWorkload("nope".into()),
            ),
            (
                "--workload sim_sweep --seconds 2",
                ArgError::Missing("--seed"),
            ),
            (
                "--workload sim_sweep --seed 1 --seconds 0",
                ArgError::BadNumber {
                    flag: "--seconds",
                    value: "0".into(),
                },
            ),
            (
                "--workload sim_sweep --seed 1 --seconds 61",
                ArgError::BadNumber {
                    flag: "--seconds",
                    value: "61".into(),
                },
            ),
            (
                "--workload sim_sweep --seed 1 --seconds 2 --trace 2",
                ArgError::BadTrace("2".into()),
            ),
            (
                "--workload sim_sweep --seed 1 --seed 2 --seconds 2",
                ArgError::Repeated("--seed"),
            ),
            (
                "--workload sim_sweep --seed",
                ArgError::MissingValue("--seed"),
            ),
        ];
        for (line, want) in bad {
            assert_eq!(p(line), Err(want), "{line}");
        }
    }
}
