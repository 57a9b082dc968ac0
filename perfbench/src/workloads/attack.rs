//! `attack_sweep`: one `ext2_sweep_on` or `tty_sweep_on` grid point per
//! call, `repetitions = 1`, over both servers, four protection levels and
//! 20–500 connections at quick scale.

use super::{seeded, Counts, Digest, Outcome, Scale, Workload};
use crate::trace::Tracer;
use exploits::{AttackCapture, Ext2DirentLeak, TtyMemoryDump};
use harness::attack_sweep::{ext2_sweep_on, tty_sweep_on, SweepPoint};
use harness::exec::{cell_seed, Executor};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::Scanner;
use memsim::SimResult;
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;

/// Directories the ext2 attacker creates (the paper's smallest grid value).
const DIRS: usize = 1000;

/// Connections the harness keeps open while driving a total count; the
/// rebuilt call must use the harness's value.
const SWEEP_CONCURRENCY: usize = 16;

/// Share of the free lists the harness remixes after closing (ext2 only).
const BACKGROUND_MIX: f64 = 0.5;

const LEVELS: [ProtectionLevel; 4] = [
    ProtectionLevel::None,
    ProtectionLevel::Kernel,
    ProtectionLevel::Integrated,
    ProtectionLevel::Shielded,
];

/// The exploit a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attack {
    /// ext2 `make_empty()` dirent leak (Figures 1–2).
    Ext2,
    /// n_tty memory dump (Figures 3–4).
    Tty,
}

/// One grid point.
#[derive(Debug, Clone, Copy)]
struct AttackCell {
    kind: ServerKind,
    level: ProtectionLevel,
    attack: Attack,
    conns: usize,
    cfg: ExperimentConfig,
}

/// The workload.
#[derive(Debug)]
pub struct AttackSweep {
    cells: Vec<AttackCell>,
}

impl AttackSweep {
    /// Every (server, level, attack, connections) point, each with its own
    /// seed derived from `seed`.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let conns: &[usize] = match scale {
            Scale::Bench => &[20, 100, 500],
            Scale::Test => &[20],
        };
        let mut cells = Vec::new();
        for kind in ServerKind::ALL {
            for level in LEVELS {
                for attack in [Attack::Ext2, Attack::Tty] {
                    for &c in conns {
                        let cell_cfg =
                            seeded(scale.config(), cell_seed(seed, &[cells.len() as u64]));
                        cells.push(AttackCell {
                            kind,
                            level,
                            attack,
                            conns: c,
                            cfg: cell_cfg,
                        });
                    }
                }
            }
        }
        Self { cells }
    }
}

/// The harness's per-cell seed for repetition 0 of an ext2 point.
fn ext2_rep_seed(root: u64, conns: usize, dirs: usize) -> u64 {
    root.wrapping_mul(0x9E37_79B9)
        .wrapping_add(conns as u64 ^ (dirs as u64) << 20)
}

/// The harness's per-cell seed for repetition 0 of a tty point.
fn tty_rep_seed(root: u64, conns: usize) -> u64 {
    root.wrapping_mul(0x85EB_CA6B).wrapping_add(conns as u64)
}

fn digest(c: &AttackCell, p: &SweepPoint) -> u64 {
    Digest::default()
        .word(p.connections as u64)
        .word(p.directories as u64)
        .float(p.avg_keys_found)
        .float(p.success_rate)
        .float(p.avg_disclosed_bytes)
        .text(c.kind.label())
        .text(c.level.label())
        .finish()
}

/// The paper's guarantees this grid can check on every seed: zero-on-free
/// leaves the ext2 attacker nothing at the kernel levels, the shield
/// leaves no attacker a full key, and success means a key was found.
fn check(c: &AttackCell, p: &SweepPoint) -> Result<(), String> {
    let zeroing = matches!(
        c.level,
        ProtectionLevel::Kernel | ProtectionLevel::Integrated | ProtectionLevel::Shielded
    );
    if (c.attack == Attack::Ext2 && zeroing || c.level == ProtectionLevel::Shielded)
        && p.avg_keys_found != 0.0
    {
        return Err(format!("VIOLATED: {} keys found", p.avg_keys_found));
    }
    if (p.avg_keys_found > 0.0) != (p.success_rate > 0.0) {
        return Err("success flag disagrees with keys found".into());
    }
    Ok(())
}

fn outcome(c: &AttackCell, p: SimResult<SweepPoint>, counts: Counts) -> Outcome {
    match p {
        Ok(p) => Outcome {
            digest: digest(c, &p),
            cells: 1,
            check: check(c, &p),
            counts,
        },
        Err(e) => Outcome::failed(e.to_string()),
    }
}

/// One repetition, rebuilt from the public calls `run_one_ext2` /
/// `run_one_tty` make, with a span around each.
fn traced<S: SecureServer>(tr: &mut Tracer, c: &AttackCell) -> SimResult<(SweepPoint, Counts)> {
    let cfg = &c.cfg;
    let (rep_seed, dirs) = match c.attack {
        Attack::Ext2 => (ext2_rep_seed(cfg.seed, c.conns, DIRS), DIRS),
        Attack::Tty => (tty_rep_seed(cfg.seed, c.conns), 0),
    };
    let mut rng = Rng64::new(rep_seed);
    let mut kernel = tr.span("memsim.boot", || cfg.boot_machine(c.level, &mut rng));
    let server_cfg = ServerConfig::new(c.level)
        .with_key_bits(cfg.key_bits)
        .with_seed(rep_seed);
    let mut server = tr.span("servers.start", || S::start(&mut kernel, server_cfg))?;
    let scanner = Scanner::from_material(server.material());
    let standing = c.conns.min(SWEEP_CONCURRENCY);
    let close = c.attack == Attack::Ext2;
    tr.span("servers.traffic", || -> SimResult<()> {
        server.set_concurrency(&mut kernel, standing)?;
        if c.conns > standing {
            server.pump(&mut kernel, c.conns - standing)?;
        }
        if close {
            server.set_concurrency(&mut kernel, 0)?;
        }
        Ok(())
    })?;
    if close {
        let mut mix_rng = Rng64::new(rep_seed ^ 0xB1D_F00D);
        tr.span("memsim.remix", || {
            kernel.age_memory(&mut mix_rng, BACKGROUND_MIX)
        });
    }
    let capture: AttackCapture = match c.attack {
        Attack::Ext2 => tr.span("exploits.capture", || {
            Ext2DirentLeak::new(DIRS).run(&mut kernel)
        })?,
        Attack::Tty => tr.span("exploits.capture", || {
            TtyMemoryDump::paper().run(&kernel, &mut rng)
        }),
    };
    let (found, ok) = tr.span("keyscan.capture_scan", || {
        (capture.keys_found(&scanner), capture.succeeded(&scanner))
    });
    let stats = kernel.stats();
    let shed = server.shedding();
    let counts = Counts::from([
        ("memsim.pages_zeroed", stats.pages_zeroed as f64),
        ("memsim.ops", kernel.op_index() as f64),
        ("servers.handshakes", server.handshakes() as f64),
        ("servers.shed", shed.total() as f64),
        ("servers.retries", shed.retries as f64),
        ("exploits.disclosed_bytes", capture.disclosed_bytes() as f64),
        ("keyscan.hits", found as f64),
    ]);
    let point = SweepPoint {
        connections: c.conns,
        directories: dirs,
        avg_keys_found: found as f64,
        success_rate: if ok { 1.0 } else { 0.0 },
        avg_disclosed_bytes: capture.disclosed_bytes() as f64,
    };
    tr.span("memsim.teardown", || drop((server, kernel)));
    Ok((point, counts))
}

impl Workload for AttackSweep {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn label(&self, i: usize) -> String {
        let c = &self.cells[i];
        format!(
            "{:?}/{}/{}/{}conns",
            c.attack,
            c.kind,
            c.level.label(),
            c.conns
        )
    }

    /// The smallest unprotected point of each (server, attack) pair.
    fn warm_up(&self) -> Vec<usize> {
        let mut seen = Vec::new();
        (0..self.cells.len())
            .filter(|&i| {
                let c = &self.cells[i];
                let shape = (c.kind, c.attack);
                let fresh = c.level == ProtectionLevel::None && !seen.contains(&shape);
                if fresh {
                    seen.push(shape);
                }
                fresh
            })
            .collect()
    }

    fn call(&self, i: usize) -> Outcome {
        let c = &self.cells[i];
        let exec = Executor::serial();
        let points = match c.attack {
            Attack::Ext2 => ext2_sweep_on(&exec, c.kind, c.level, &[c.conns], &[DIRS], &c.cfg),
            Attack::Tty => tty_sweep_on(&exec, c.kind, c.level, &[c.conns], &c.cfg),
        };
        outcome(c, points.map(|p| p[0]), Counts::new())
    }

    fn call_traced(&self, i: usize, tr: &mut Tracer) -> Outcome {
        let c = &self.cells[i];
        let run = match c.kind {
            ServerKind::Ssh => traced::<SshServer>(tr, c),
            ServerKind::Apache => traced::<ApacheServer>(tr, c),
        };
        match run {
            Ok((p, counts)) => outcome(c, Ok(p), counts),
            Err(e) => Outcome::failed(e.to_string()),
        }
    }
}

/// The layer probe's attack cell: one ext2 repetition against the
/// unprotected ssh server with 100 connections, traced as standalone spans.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn probe(tr: &mut Tracer, seed: u64, scale: Scale) -> Result<Counts, String> {
    let c = AttackCell {
        kind: ServerKind::Ssh,
        level: ProtectionLevel::None,
        attack: Attack::Ext2,
        conns: 100,
        cfg: seeded(scale.config(), seed),
    };
    traced::<SshServer>(tr, &c)
        .map(|(_, counts)| counts)
        .map_err(|e| e.to_string())
}
