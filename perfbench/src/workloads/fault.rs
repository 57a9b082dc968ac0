//! `fault_rotation`: one `rotation_sweep_on`, `rotation_sweep_pairs_on` or
//! `fault_sweep_on` per call at test scale, over both servers, the three
//! hardened levels and both fault modes. Strides are picked at set-up from
//! each sweep's probed index space so every call runs about twenty faulted
//! runs.

use super::{seeded, Counts, Digest, Outcome, Scale, Workload};
use crate::trace::Tracer;
use harness::exec::{cell_seed, ExecReport, Executor};
use harness::faultsweep::{
    fault_sweep_on, fault_sweep_timed_on, probe_index_space, FaultMode, FaultSweepReport,
};
use harness::rotsweep::{
    probe_rotation_space, rotation_sweep_on, rotation_sweep_pairs_on,
    rotation_sweep_pairs_timed_on, rotation_sweep_timed_on, RotationSweepReport,
};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use servers::{ServerConfig, SheddingStats};
use simrng::Rng64;

/// Boot-RNG tweaks of the two sweep families (the harness's values), so
/// standalone boots see the sweeps' own machines.
const FAULT_BOOT_TWEAK: u64 = 0xFA01_7500;
const ROT_BOOT_TWEAK: u64 = 0x4074_0FA1;

/// Faulted runs a first-order call aims for.
const RUNS_PER_CALL: u64 = 24;

/// Strided indices of a second-order call: `7 * 6 / 2 = 21` pairs.
const PAIR_INDICES: u64 = 7;

const LEVELS: [ProtectionLevel; 3] = [
    ProtectionLevel::Kernel,
    ProtectionLevel::Integrated,
    ProtectionLevel::Shielded,
];

/// Which sweep a call runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sweep {
    Rotation,
    RotationPairs,
    Fault,
}

#[derive(Debug, Clone, Copy)]
struct SweepCell {
    kind: ServerKind,
    level: ProtectionLevel,
    mode: FaultMode,
    sweep: Sweep,
    stride: u64,
    cfg: ExperimentConfig,
}

/// The workload.
#[derive(Debug)]
pub struct FaultRotation {
    cells: Vec<SweepCell>,
}

fn stride_for(span: (u64, u64), points: u64) -> u64 {
    (span.1 - span.0).div_ceil(points).max(1)
}

impl FaultRotation {
    /// Probes each (server, level) index space once and lays out the calls.
    ///
    /// # Errors
    ///
    /// An unfaulted probe run that failed.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let levels: &[ProtectionLevel] = match scale {
            Scale::Bench => &LEVELS,
            Scale::Test => &[ProtectionLevel::Integrated],
        };
        let mut cells = Vec::new();
        for (ki, kind) in ServerKind::ALL.into_iter().enumerate() {
            for (li, &level) in levels.iter().enumerate() {
                let cfg = seeded(
                    ExperimentConfig::test(),
                    cell_seed(seed, &[ki as u64, li as u64]),
                );
                let rot = probe_rotation_space(kind, level, &cfg)?;
                let fault = probe_index_space(kind, level, &cfg)?;
                for mode in [FaultMode::Fail, FaultMode::Kill] {
                    for (sweep, stride) in [
                        (Sweep::Rotation, stride_for(rot, RUNS_PER_CALL)),
                        (Sweep::RotationPairs, stride_for(rot, PAIR_INDICES)),
                        (Sweep::Fault, stride_for(fault, RUNS_PER_CALL)),
                    ] {
                        cells.push(SweepCell {
                            kind,
                            level,
                            mode,
                            sweep,
                            stride,
                            cfg,
                        });
                    }
                }
            }
        }
        Ok(Self { cells })
    }
}

fn shed_words(d: &mut Digest, s: &SheddingStats) {
    d.word(s.failed_forks)
        .word(s.shed_connections)
        .word(s.shed_handshakes)
        .word(s.retries)
        .word(s.recovered);
}

/// A finished sweep, reduced to what the benchmark checks and counts.
struct Swept {
    digest: u64,
    runs: u64,
    violations: usize,
    counts: Counts,
}

fn rotation(r: &RotationSweepReport) -> Swept {
    let mut d = Digest::default();
    d.text(r.kind_label)
        .text(r.level.label())
        .text(r.mode.label());
    d.word(u64::from(r.order))
        .word(r.start)
        .word(r.end)
        .word(r.stride);
    let (mut handshakes, mut shed, mut retries, mut resident) = (0, 0, 0, 0);
    for c in &r.cells {
        d.word(c.k)
            .word(c.k2.unwrap_or(u64::MAX))
            .word(c.injected)
            .word(c.kills)
            .word(u64::from(c.error.is_some()))
            .word(c.epoch)
            .word(c.winner_resident as u64)
            .word(c.loser_resident as u64)
            .word(c.handshakes);
        shed_words(&mut d, &c.shed);
        handshakes += c.handshakes;
        shed += c.shed.total();
        retries += c.shed.retries;
        resident += c.winner_resident + c.loser_resident;
    }
    Swept {
        digest: d.finish(),
        runs: r.cells.len() as u64,
        violations: r.violations().len(),
        counts: counts(handshakes, shed, retries, resident, r.scan),
    }
}

fn fault(r: &FaultSweepReport) -> Swept {
    let mut d = Digest::default();
    d.text(r.kind_label)
        .text(r.level.label())
        .text(r.mode.label());
    d.word(r.start).word(r.end).word(r.stride);
    let (mut handshakes, mut shed, mut retries, mut resident) = (0, 0, 0, 0);
    for c in &r.cells {
        d.word(c.k)
            .word(c.injected)
            .word(c.kills)
            .word(u64::from(c.error.is_some()))
            .word(c.allocated as u64)
            .word(c.unallocated as u64)
            .word(c.handshakes);
        shed_words(&mut d, &c.shed);
        handshakes += c.handshakes;
        shed += c.shed.total();
        retries += c.shed.retries;
        resident += c.allocated + c.unallocated;
    }
    Swept {
        digest: d.finish(),
        runs: r.cells.len() as u64,
        violations: r.violations().len(),
        counts: counts(handshakes, shed, retries, resident, r.scan),
    }
}

fn counts(
    handshakes: u64,
    shed: u64,
    retries: u64,
    resident: usize,
    scan: keyscan::ScanStats,
) -> Counts {
    Counts::from([
        ("servers.handshakes", handshakes as f64),
        ("servers.shed", shed as f64),
        ("servers.retries", retries as f64),
        ("keyscan.hits", resident as f64),
        ("keyscan.frames_rescanned", scan.frames_rescanned as f64),
        ("keyscan.frames_total", scan.frames_total as f64),
        ("keyscan.scans", scan.scans as f64),
    ])
}

fn outcome(r: Result<Swept, String>) -> Outcome {
    match r {
        Ok(s) => Outcome {
            digest: s.digest,
            cells: s.runs,
            check: if s.violations == 0 {
                Ok(())
            } else {
                Err(format!("VIOLATED: {} of {} runs", s.violations, s.runs))
            },
            counts: s.counts,
        },
        Err(e) => Outcome::failed(e),
    }
}

impl SweepCell {
    fn boot_tweak(&self) -> u64 {
        match self.sweep {
            Sweep::Fault => FAULT_BOOT_TWEAK,
            Sweep::Rotation | Sweep::RotationPairs => ROT_BOOT_TWEAK,
        }
    }

    fn run(&self) -> Result<Swept, String> {
        let exec = Executor::serial();
        let (k, l, m, s, cfg) = (self.kind, self.level, self.mode, self.stride, &self.cfg);
        Ok(match self.sweep {
            Sweep::Rotation => rotation(&rotation_sweep_on(&exec, k, l, m, s, cfg)?),
            Sweep::RotationPairs => rotation(&rotation_sweep_pairs_on(&exec, k, l, m, s, cfg)?),
            Sweep::Fault => fault(&fault_sweep_on(&exec, k, l, m, s, cfg)?),
        })
    }

    fn run_timed(&self) -> Result<(Swept, ExecReport), String> {
        let exec = Executor::serial();
        let (k, l, m, s, cfg) = (self.kind, self.level, self.mode, self.stride, &self.cfg);
        Ok(match self.sweep {
            Sweep::Rotation => {
                let (r, e) = rotation_sweep_timed_on(&exec, k, l, m, s, cfg)?;
                (rotation(&r), e)
            }
            Sweep::RotationPairs => {
                let (r, e) = rotation_sweep_pairs_timed_on(&exec, k, l, m, s, cfg)?;
                (rotation(&r), e)
            }
            Sweep::Fault => {
                let (r, e) = fault_sweep_timed_on(&exec, k, l, m, s, cfg)?;
                (fault(&r), e)
            }
        })
    }
}

impl Workload for FaultRotation {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn label(&self, i: usize) -> String {
        let c = &self.cells[i];
        format!(
            "{:?}/{}/{}/{}/stride{}",
            c.sweep,
            c.kind,
            c.level.label(),
            c.mode,
            c.stride
        )
    }

    /// The first call of each sweep kind.
    fn warm_up(&self) -> Vec<usize> {
        [Sweep::Rotation, Sweep::RotationPairs, Sweep::Fault]
            .iter()
            .filter_map(|&s| self.cells.iter().position(|c| c.sweep == s))
            .collect()
    }

    fn call(&self, i: usize) -> Outcome {
        outcome(self.cells[i].run())
    }

    fn call_traced(&self, i: usize, tr: &mut Tracer) -> Outcome {
        outcome(self.cells[i].run_timed().map(|(swept, exec)| {
            // The sweep's own scan wall: the scan share of this call.
            tr.derived("keyscan.sweep_scan", exec.scan_wall);
            swept
        }))
    }

    /// Key generation, boot, `Kernel::clone` and teardown of this call's
    /// sweep, each timed once on the sweep's own inputs.
    fn standalone(&self, i: usize, tr: &mut Tracer) -> Counts {
        let c = &self.cells[i];
        let server_cfg = ServerConfig::new(c.level).with_key_bits(c.cfg.key_bits);
        let keys = if c.sweep == Sweep::Fault { 1 } else { 2 };
        for ordinal in 0..keys {
            drop(tr.span("rsa.keygen", || {
                server_cfg.derive_rotated_key(c.kind.label(), ordinal)
            }));
        }
        let mut rng = Rng64::new(c.cfg.seed ^ c.boot_tweak());
        let kernel = tr.span("memsim.boot", || c.cfg.boot_machine(c.level, &mut rng));
        let copy = tr.span("memsim.clone", || kernel.clone());
        let counts = Counts::from([
            ("memsim.pages_zeroed", kernel.stats().pages_zeroed as f64),
            ("memsim.ops", kernel.op_index() as f64),
        ]);
        tr.span("memsim.teardown", || drop(copy));
        drop(kernel);
        counts
    }
}
