//! `timeline_rotation`: one `run_timeline` per call on the paper's
//! schedule with a rotation every 5 ticks (3 rotations), over all twelve
//! (server × level) pairs and two seeds at quick scale.

use super::{seeded, Counts, Digest, Outcome, Scale, Workload};
use crate::trace::Tracer;
use harness::exec::cell_seed;
use harness::faultsweep::level_guarantees_clean_unallocated;
use harness::timeline::{run_timeline, Schedule, Timeline, TimelinePoint};
use harness::{ExperimentConfig, ServerKind};
use keyguard::ProtectionLevel;
use keyscan::{IncrementalScanner, Scanner};
use memsim::SimResult;
use rsa_repro::material::{KeyMaterial, Pattern};
use servers::{ApacheServer, SecureServer, ServerConfig, SshServer};
use simrng::Rng64;

/// Tweak the harness folds into the experiment seed for the boot RNG.
const BOOT_TWEAK: u64 = 0x71ED_11E5;

/// The schedule every call runs.
#[must_use]
fn schedule() -> Schedule {
    Schedule::paper().with_rotation(5)
}

#[derive(Debug, Clone, Copy)]
struct TimelineCell {
    kind: ServerKind,
    level: ProtectionLevel,
    cfg: ExperimentConfig,
}

/// The workload.
#[derive(Debug)]
pub struct TimelineRotation {
    cells: Vec<TimelineCell>,
}

impl TimelineRotation {
    /// Twelve pairs × two seeds (one pair per server at test scale).
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (seeds, levels): (u64, &[ProtectionLevel]) = match scale {
            Scale::Bench => (2, &ProtectionLevel::ALL),
            Scale::Test => (1, &[ProtectionLevel::Integrated]),
        };
        let mut cells = Vec::new();
        for s in 0..seeds {
            let cfg = seeded(scale.config(), cell_seed(seed, &[s]));
            for kind in ServerKind::ALL {
                for &level in levels {
                    cells.push(TimelineCell { kind, level, cfg });
                }
            }
        }
        Self { cells }
    }
}

fn server_label(kind: ServerKind) -> &'static str {
    match kind {
        ServerKind::Ssh => "openssh",
        ServerKind::Apache => "apache",
    }
}

/// Digest of everything deterministic in a timeline: every point with its
/// copy locations, shedding, and scan effort.
#[must_use]
fn digest(tl: &Timeline) -> u64 {
    let mut d = Digest::default();
    d.text(tl.kind_label).text(tl.level.label());
    for p in &tl.points {
        d.word(p.t as u64)
            .word(p.allocated as u64)
            .word(p.unallocated as u64)
            .word(p.swap_hits as u64)
            .word(p.locations.len() as u64);
        for &(off, alloc) in &p.locations {
            d.word(off as u64).word(u64::from(alloc));
        }
    }
    let s = tl.shed;
    d.word(s.failed_forks)
        .word(s.shed_connections)
        .word(s.shed_handshakes)
        .word(s.retries)
        .word(s.recovered)
        .word(tl.scan.scans)
        .word(tl.scan.frames_rescanned)
        .word(tl.scan.frames_total)
        .finish()
}

/// Guarantees that hold on every seed: one point per tick; no copy in
/// unallocated memory where the kernel zeroes freed pages; no copy at all
/// behind the shield.
fn check(tl: &Timeline) -> Result<(), String> {
    if tl.points.len() != schedule().end {
        return Err(format!(
            "{} points, expected {}",
            tl.points.len(),
            schedule().end
        ));
    }
    if level_guarantees_clean_unallocated(tl.level) && tl.peak_unallocated() > 0 {
        return Err(format!(
            "VIOLATED: {} unallocated copies",
            tl.peak_unallocated()
        ));
    }
    if tl.level == ProtectionLevel::Shielded && tl.peak_total() > 0 {
        return Err(format!(
            "VIOLATED: {} copies behind the shield",
            tl.peak_total()
        ));
    }
    Ok(())
}

fn outcome(tl: SimResult<Timeline>, counts: Counts) -> Outcome {
    match tl {
        Ok(tl) => Outcome {
            digest: digest(&tl),
            cells: 1,
            check: check(&tl),
            counts,
        },
        Err(e) => Outcome::failed(e.to_string()),
    }
}

/// The timeline rebuilt from the public calls `run_timeline` makes,
/// with a span around each.
fn traced<S: SecureServer>(tr: &mut Tracer, c: &TimelineCell) -> SimResult<(Timeline, Counts)> {
    let sch = schedule();
    let label = server_label(c.kind);
    let cfg = &c.cfg;
    let mut rng = Rng64::new(cfg.seed ^ BOOT_TWEAK);
    let mut kernel = tr.span("memsim.boot", || cfg.boot_machine(c.level, &mut rng));
    let server_cfg = ServerConfig::new(c.level).with_key_bits(cfg.key_bits);
    let mut patterns: Vec<Pattern> = Vec::new();
    for ordinal in 0..=sch.rotation_count() as u64 {
        let key = tr.span("rsa.keygen", || {
            server_cfg.derive_rotated_key(label, ordinal)
        });
        patterns.extend(
            KeyMaterial::from_key(&key)
                .patterns()
                .iter()
                .map(Pattern::clone_secret),
        );
    }
    let mut scanner =
        IncrementalScanner::new(Scanner::new(patterns)).with_threads(cfg.scan_threads);
    let mut server: Option<S> = None;
    let mut points = Vec::with_capacity(sch.end);
    for t in 0..sch.end {
        if t == sch.start_server {
            server = Some(tr.span("servers.start", || S::start(&mut kernel, server_cfg))?);
        }
        if let Some(s) = server.as_mut().filter(|s| s.is_running()) {
            if sch.rotates_at(t) {
                tr.span("servers.rotate", || s.rotate_key(&mut kernel))?;
            }
            let conc = sch.concurrency_at(t);
            tr.span("servers.traffic", || -> SimResult<()> {
                s.set_concurrency(&mut kernel, conc)?;
                if conc > 0 {
                    s.pump(&mut kernel, conc * sch.churn_per_slot)?;
                }
                Ok(())
            })?;
        }
        if t == sch.stop_server {
            if let Some(s) = server.as_mut() {
                tr.span("servers.stop", || s.stop(&mut kernel))?;
            }
        }
        let report = tr.span("keyscan.tick_scan", || scanner.scan(&kernel));
        let swap_hits = tr.span("keyscan.swap_scan", || {
            scanner.scanner().count_matches(kernel.swap_bytes())
        });
        points.push(TimelinePoint {
            t,
            allocated: report.allocated(),
            unallocated: report.unallocated(),
            locations: report.locations(),
            swap_hits,
        });
    }
    let shed = server
        .as_ref()
        .map(SecureServer::shedding)
        .unwrap_or_default();
    let scan = scanner.stats();
    let tl = Timeline {
        kind_label: label,
        level: c.level,
        points,
        shed,
        scan,
    };
    let stats = kernel.stats();
    let counts = Counts::from([
        ("memsim.pages_zeroed", stats.pages_zeroed as f64),
        ("memsim.ops", kernel.op_index() as f64),
        (
            "servers.handshakes",
            server.as_ref().map_or(0, SecureServer::handshakes) as f64,
        ),
        ("servers.shed", shed.total() as f64),
        ("servers.retries", shed.retries as f64),
        ("keyscan.frames_rescanned", scan.frames_rescanned as f64),
        ("keyscan.frames_total", scan.frames_total as f64),
        (
            "keyscan.hits",
            tl.points.iter().map(TimelinePoint::total).sum::<usize>() as f64,
        ),
    ]);
    tr.span("memsim.teardown", || drop((server, kernel)));
    Ok((tl, counts))
}

impl Workload for TimelineRotation {
    fn len(&self) -> usize {
        self.cells.len()
    }

    fn label(&self, i: usize) -> String {
        let c = &self.cells[i];
        format!("{}/{}/seed{:x}", c.kind, c.level.label(), c.cfg.seed)
    }

    /// The first (unprotected) timeline of each server.
    fn warm_up(&self) -> Vec<usize> {
        ServerKind::ALL
            .iter()
            .filter_map(|&k| self.cells.iter().position(|c| c.kind == k))
            .collect()
    }

    fn call(&self, i: usize) -> Outcome {
        let c = &self.cells[i];
        outcome(
            run_timeline(c.kind, c.level, &c.cfg, &schedule()),
            Counts::new(),
        )
    }

    fn call_traced(&self, i: usize, tr: &mut Tracer) -> Outcome {
        let c = &self.cells[i];
        let run = match c.kind {
            ServerKind::Ssh => traced::<SshServer>(tr, c),
            ServerKind::Apache => traced::<ApacheServer>(tr, c),
        };
        match run {
            Ok((tl, counts)) => outcome(Ok(tl), counts),
            Err(e) => Outcome::failed(e.to_string()),
        }
    }
}

/// The layer probe's timeline: the unprotected ssh server on the rotating
/// schedule, traced as standalone spans.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn probe(tr: &mut Tracer, seed: u64, scale: Scale) -> Result<Counts, String> {
    let c = TimelineCell {
        kind: ServerKind::Ssh,
        level: ProtectionLevel::None,
        cfg: seeded(scale.config(), seed),
    };
    traced::<SshServer>(tr, &c)
        .map(|(_, counts)| counts)
        .map_err(|e| e.to_string())
}
