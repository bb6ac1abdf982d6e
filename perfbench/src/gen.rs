//! Seeded SoC program generator and the independent reference model
//! that every simulated output is checked against.
//!
//! A generated program is a [`Workload`]: a random 2048-word input
//! image and a command table of waves. Each wave drives 1 to 15
//! distinct PEs (so the share of idle PEs, which quiescence gating
//! feeds on, varies op to op) and ends in a barrier. Within a wave no
//! command reads or writes a word another command of the same wave
//! writes, so the result does not depend on how the wave interleaves
//! and the model may execute commands one after another.

use craft_soc::workloads::{TableEntry, Workload};
use craft_soc::{PeCommand, PeOp, N_PES};

/// Global-memory words of the default SoC (the 12-bit command fields).
pub const GMEM_WORDS: usize = 4096;
/// Words of random input written at address 0.
const INPUT_WORDS: usize = 2048;
/// Longest vector a generated command processes.
const MAX_LEN: u16 = 64;
/// Most taps / centroids a Conv1d / ArgMinDist command uses.
const MAX_SCALAR_ARG: u16 = 8;

/// SplitMix64: a small, fully specified PRNG, so a seed names the same
/// inputs on every platform and in every later version of this file's
/// callers.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A sub-stream for item `i`, independent of how much of this
    /// stream was consumed.
    pub fn fork(seed: u64, stream: u64, i: u64) -> Rng {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let skip = r.next_u64();
        Rng::new(skip ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

const OPS: [PeOp; 7] = [
    PeOp::VecAdd,
    PeOp::VecMul,
    PeOp::Dot,
    PeOp::Reduce,
    PeOp::Scale,
    PeOp::Conv1d,
    PeOp::ArgMinDist,
];

/// Words of operand `a` a command reads.
fn a_words(cmd: &PeCommand) -> usize {
    match cmd.op {
        PeOp::Conv1d => usize::from(cmd.len) + usize::from(cmd.scalar) - 1,
        _ => usize::from(cmd.len),
    }
}

/// Words of operand `b` a command reads.
fn b_words(cmd: &PeCommand) -> usize {
    match cmd.op {
        PeOp::VecAdd | PeOp::VecMul | PeOp::Dot => usize::from(cmd.len),
        PeOp::Conv1d | PeOp::ArgMinDist => usize::from(cmd.scalar),
        PeOp::Reduce | PeOp::Scale => 0,
    }
}

fn overlaps(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1
}

/// A random range of `len` words, not overlapping any of `avoid`.
fn free_range(rng: &mut Rng, len: usize, avoid: &[(usize, usize)]) -> usize {
    loop {
        let base = rng.range(0, (GMEM_WORDS - len) as u64) as usize;
        if !avoid.iter().any(|&w| overlaps((base, len), w)) {
            return base;
        }
    }
}

/// Generates program `index` of the stream named by `seed`: `waves`
/// waves of 1 to 15 random commands each.
pub fn program(seed: u64, index: u64, waves: usize) -> Workload {
    let mut rng = Rng::fork(seed, 1, index);
    let input: Vec<u64> = (0..INPUT_WORDS).map(|_| rng.next_u64() & 0xFFFF).collect();
    let mut entries = Vec::new();
    for _ in 0..waves {
        let width = rng.range(1, u64::from(N_PES)) as usize;
        let mut pes: Vec<u16> = (0..N_PES).collect();
        for i in 0..width {
            let j = rng.range(i as u64, u64::from(N_PES) - 1) as usize;
            pes.swap(i, j);
        }
        let cmds: Vec<PeCommand> = (0..width)
            .map(|_| {
                let op = OPS[rng.range(0, OPS.len() as u64 - 1) as usize];
                let scalar = match op {
                    PeOp::Scale => rng.range(1, 999) as u16,
                    PeOp::Conv1d | PeOp::ArgMinDist => rng.range(2, MAX_SCALAR_ARG.into()) as u16,
                    _ => 0,
                };
                PeCommand {
                    op,
                    a: 0,
                    b: 0,
                    out: 0,
                    len: rng.range(8, MAX_LEN.into()) as u16,
                    scalar,
                }
            })
            .collect();
        // Outputs first, packed at a random base in the upper half,
        // then operands anywhere outside this wave's outputs (reading
        // earlier waves' results chains values through the run).
        let out_total: usize = cmds.iter().map(|c| usize::from(c.op.out_len(c.len))).sum();
        let mut at =
            INPUT_WORDS + rng.range(0, (GMEM_WORDS - INPUT_WORDS - out_total) as u64) as usize;
        let mut writes = Vec::with_capacity(width);
        let cmds: Vec<PeCommand> = cmds
            .into_iter()
            .map(|mut c| {
                let n = usize::from(c.op.out_len(c.len));
                c.out = at as u16;
                writes.push((at, n));
                at += n;
                c
            })
            .collect();
        for (pe, mut cmd) in pes.into_iter().zip(cmds) {
            cmd.a = free_range(&mut rng, a_words(&cmd), &writes) as u16;
            let nb = b_words(&cmd);
            if nb > 0 {
                cmd.b = free_range(&mut rng, nb, &writes) as u16;
            }
            entries.push(TableEntry::Cmd { pe, cmd });
        }
        entries.push(TableEntry::Barrier);
    }
    let mut wl = Workload {
        name: "generated",
        gmem_init: vec![(0, input)],
        entries,
        expected: Vec::new(),
    };
    wl.expected = vec![(0, reference(&wl.gmem_init, &wl.entries))];
    wl
}

/// Executes one command on `mem` with the PE datapath's wrapping-u64
/// semantics.
fn exec(mem: &mut [u64], c: &PeCommand) {
    let (a, b, out) = (usize::from(c.a), usize::from(c.b), usize::from(c.out));
    let len = usize::from(c.len);
    let k = usize::from(c.scalar);
    let res: Vec<u64> = match c.op {
        PeOp::VecAdd => (0..len)
            .map(|i| mem[a + i].wrapping_add(mem[b + i]))
            .collect(),
        PeOp::VecMul => (0..len)
            .map(|i| mem[a + i].wrapping_mul(mem[b + i]))
            .collect(),
        PeOp::Scale => (0..len)
            .map(|i| mem[a + i].wrapping_mul(k as u64))
            .collect(),
        PeOp::Dot => vec![(0..len).fold(0u64, |s, i| {
            s.wrapping_add(mem[a + i].wrapping_mul(mem[b + i]))
        })],
        PeOp::Reduce => vec![(0..len).fold(0u64, |s, i| s.wrapping_add(mem[a + i]))],
        PeOp::Conv1d => (0..len)
            .map(|i| {
                (0..k).fold(0u64, |s, t| {
                    s.wrapping_add(mem[a + i + t].wrapping_mul(mem[b + t]))
                })
            })
            .collect(),
        PeOp::ArgMinDist => (0..len)
            .map(|i| {
                // First centroid at the strictly smallest distance.
                let d = |c: usize| mem[a + i].abs_diff(mem[b + c]);
                (1..k).fold(0, |best, c| if d(c) < d(best) { c } else { best }) as u64
            })
            .collect(),
    };
    mem[out..out + res.len()].copy_from_slice(&res);
}

/// The final global-memory image of running `entries` on `gmem_init`:
/// the independent reference every run's memory must equal.
pub fn reference(gmem_init: &[(usize, Vec<u64>)], entries: &[TableEntry]) -> Vec<u64> {
    let mut mem = vec![0u64; GMEM_WORDS];
    for (base, words) in gmem_init {
        mem[*base..*base + words.len()].copy_from_slice(words);
    }
    for e in entries {
        if let TableEntry::Cmd { cmd, .. } = e {
            exec(&mut mem, cmd);
        }
    }
    mem
}

/// Whether every expected region of `wl` matches the memory read
/// through `gmem(base, len)`.
pub fn matches_expected(wl: &Workload, gmem: impl Fn(usize, usize) -> Vec<u64>) -> bool {
    wl.expected
        .iter()
        .all(|(base, want)| gmem(*base, want.len()) == *want)
}

#[cfg(test)]
mod tests {
    use super::*;
    use craft_serve::WorkloadId;
    use craft_soc::workloads::run_workload_soc;
    use craft_soc::{Fidelity, SocConfig};

    #[test]
    fn model_reproduces_every_builtin_workload() {
        for id in WorkloadId::ALL {
            let wl = id.workload();
            let mem = reference(&wl.gmem_init, &wl.entries);
            for (base, want) in &wl.expected {
                assert_eq!(&mem[*base..*base + want.len()], &want[..], "{id}");
            }
        }
    }

    #[test]
    fn generated_program_verifies_at_both_fidelities() {
        let wl = program(7, 0, 6);
        for fidelity in [Fidelity::SimAccurate, Fidelity::RtlCompiled] {
            let cfg = SocConfig {
                fidelity,
                ..SocConfig::default()
            };
            let (res, ok, soc) = run_workload_soc(cfg, &wl, 4_000_000);
            assert!(res.completed && ok, "{fidelity:?}");
            assert!(matches_expected(&wl, |b, n| soc.gmem_read(b, n)));
        }
    }

    #[test]
    fn waves_are_hazard_free_and_vary_in_width() {
        let wl = program(3, 5, 40);
        let mut widths = std::collections::BTreeSet::new();
        let mut wave: Vec<PeCommand> = Vec::new();
        for e in &wl.entries {
            match e {
                TableEntry::Cmd { cmd, .. } => wave.push(*cmd),
                TableEntry::Barrier => {
                    widths.insert(wave.len());
                    for w in &wave {
                        let out = (usize::from(w.out), usize::from(w.op.out_len(w.len)));
                        for r in &wave {
                            assert!(!overlaps(out, (usize::from(r.a), a_words(r))));
                            if b_words(r) > 0 {
                                assert!(!overlaps(out, (usize::from(r.b), b_words(r))));
                            }
                            if r != w {
                                let o = (usize::from(r.out), usize::from(r.op.out_len(r.len)));
                                assert!(!overlaps(out, o));
                            }
                        }
                    }
                    wave.clear();
                }
            }
        }
        assert!(widths.len() > 5, "wave widths should vary: {widths:?}");
    }

    #[test]
    fn same_seed_same_program() {
        let a = program(11, 2, 5);
        let b = program(11, 2, 5);
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.gmem_init, b.gmem_init);
        assert_ne!(program(12, 2, 5).gmem_init, a.gmem_init);
    }
}
