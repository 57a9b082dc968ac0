//! The four workloads. Each is a fixed list of cells built from the
//! workload seed; one benchmark call runs one cell through the harness's
//! public entry points (untraced) or through the same public calls rebuilt
//! with spans around them (traced). README.md says why each exists.

pub mod attack;
pub mod fault;
pub mod forensic;
pub mod probe;
pub mod timeline;

use crate::trace::Tracer;
use harness::ExperimentConfig;
use std::collections::BTreeMap;

/// The workloads, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 4] = [
    "attack_sweep",
    "timeline_rotation",
    "forensic_scan",
    "fault_rotation",
];

/// Simulated counts a traced call reports, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds every count of `from` into `into`.
pub fn add_counts(into: &mut Counts, from: &Counts) {
    for (&k, &v) in from {
        *into.entry(k).or_default() += v;
    }
}

/// What one call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Digest of the call's deterministic outputs.
    pub digest: u64,
    /// Cells the call completed (attack repetitions, timelines, image
    /// scans, fault runs).
    pub cells: u64,
    /// `Err` when the call failed or an output check (a `HELD` verdict, an
    /// oracle comparison, a level guarantee) did not hold.
    pub check: Result<(), String>,
    /// Simulated counts (traced calls only).
    pub counts: Counts,
}

impl Outcome {
    /// A failed call.
    #[must_use]
    pub fn failed(why: impl Into<String>) -> Self {
        Self {
            digest: 0,
            cells: 0,
            check: Err(why.into()),
            counts: Counts::new(),
        }
    }
}

/// One workload: a fixed, seed-derived list of cells.
pub trait Workload: Sync {
    /// Cells in one pass.
    fn len(&self) -> usize;
    /// Human label of cell `i`.
    fn label(&self, i: usize) -> String;
    /// Runs cell `i` through the public entry point, untraced.
    fn call(&self, i: usize) -> Outcome;
    /// Runs cell `i` with spans around the public calls it is made of.
    /// Must produce the same digest as [`Self::call`].
    fn call_traced(&self, i: usize, tr: &mut Tracer) -> Outcome;
    /// Times, outside any call, layer costs the traced call cannot split
    /// out, on cell `i`'s inputs. Returns simulated counts of those calls.
    fn standalone(&self, _i: usize, _tr: &mut Tracer) -> Counts {
        Counts::new()
    }
    /// Cells one set-up runs once, untraced, so every code path the loop
    /// takes is warm before timing: one cell of each distinct call shape.
    fn warm_up(&self) -> Vec<usize> {
        vec![0]
    }
    /// One-time output check against an oracle, run once after set-up.
    ///
    /// # Errors
    ///
    /// The fast path disagrees with the oracle.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Input scale: the benchmark runs at quick scale; unit tests run the same
/// code at test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 64 MB machines, RSA-512 (fault sweeps: 16 MB, RSA-256).
    Bench,
    /// 16 MB machines, RSA-256 everywhere, shortened cell lists.
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

impl Scale {
    /// Machine and key size of the attack, timeline and image workloads.
    #[must_use]
    pub fn config(self) -> ExperimentConfig {
        match self {
            Self::Bench => ExperimentConfig::quick(),
            Self::Test => ExperimentConfig::test(),
        }
        .with_repetitions(1)
    }
}

/// Builds workload `name` for `seed`.
///
/// # Errors
///
/// Unknown workload, or a set-up step that failed.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "attack_sweep" => Box::new(attack::AttackSweep::new(seed, scale)),
        "timeline_rotation" => Box::new(timeline::TimelineRotation::new(seed, scale)),
        "forensic_scan" => Box::new(forensic::ForensicScan::new(seed, scale)?),
        "fault_rotation" => Box::new(fault::FaultRotation::new(seed, scale)?),
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {NAMES:?}"
            ))
        }
    })
}

/// FNV-1a over 64-bit words: the per-call output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    /// Folds a float by its bits.
    pub fn float(&mut self, v: f64) -> &mut Self {
        self.word(v.to_bits())
    }

    /// Folds a string, length first.
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    /// The digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `ExperimentConfig` with `seed` in place of the preset's seed.
#[must_use]
pub fn seeded(cfg: ExperimentConfig, seed: u64) -> ExperimentConfig {
    ExperimentConfig { seed, ..cfg }
}
