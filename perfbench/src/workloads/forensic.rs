//! `forensic_scan`: one full `Scanner::scan_bytes` per call over a memory
//! image whose every byte was written, with a 1-epoch scanner (≤8 trigger
//! bytes: the SWAR core) and a 4-epoch scanner (>8: the Horspool core).

use super::{Counts, Digest, Outcome, Scale, Workload};
use crate::trace::Tracer;
use harness::exec::cell_seed;
use harness::timeline::Schedule;
use harness::ExperimentConfig;
use keyguard::ProtectionLevel;
use keyscan::{RawHit, Scanner};
use memsim::{Kernel, SimResult};
use rsa_repro::material::{KeyMaterial, Pattern};
use servers::{SecureServer, ServerConfig, SshServer};
use simrng::Rng64;

/// Image kinds, in cell order.
const IMAGES: [&str; 3] = ["zero_written", "post_experiment", "high_entropy"];

/// Span (and metric) names of the six scans, `image × scanner`.
pub const SCANS: [[&str; 2]; 3] = [
    [
        "keyscan.bytes_per_s.zero_written.1ep",
        "keyscan.bytes_per_s.zero_written.4ep",
    ],
    [
        "keyscan.bytes_per_s.post_experiment.1ep",
        "keyscan.bytes_per_s.post_experiment.4ep",
    ],
    [
        "keyscan.bytes_per_s.high_entropy.1ep",
        "keyscan.bytes_per_s.high_entropy.4ep",
    ],
];

/// Epochs the wide scanner hunts: the boot key and three successors.
const EPOCHS: u64 = 4;

/// The SWAR core serves at most this many distinct trigger bytes.
const SWAR_MAX_TRIGGERS: usize = 8;

/// A memory image built only by a copy or a fill, so every byte of it was
/// written by the host before any scan reads it. There is no constructor
/// from a bare allocation.
#[derive(Debug)]
pub struct Image {
    bytes: Vec<u8>,
}

impl Image {
    /// A copy of `src` (a machine's physical memory).
    #[must_use]
    pub fn copied(src: &[u8]) -> Self {
        Self {
            bytes: src.to_vec(),
        }
    }

    /// `len` seeded random bytes.
    #[must_use]
    pub fn filled(len: usize, rng: &mut Rng64) -> Self {
        Self {
            bytes: rng.gen_bytes(len),
        }
    }

    /// The image bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// The two scanners and three images of one seed.
pub struct Images {
    /// Boot-key patterns only.
    pub one_epoch: Scanner,
    /// Boot key plus three rotation successors; its first patterns are the
    /// 1-epoch scanner's, in the same order.
    pub four_epoch: Scanner,
    /// In [`IMAGES`] order.
    pub images: [Image; 3],
}

fn epoch_patterns(cfg: &ServerConfig, epochs: u64) -> Vec<Pattern> {
    (0..epochs)
        .flat_map(|o| {
            let key = cfg.derive_rotated_key("openssh", o);
            KeyMaterial::from_key(&key)
                .patterns()
                .iter()
                .map(Pattern::clone_secret)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Distinct window-end bytes of `patterns`: the count the scanner's
/// dispatcher compares against 8.
#[must_use]
fn trigger_count(patterns: &[Pattern]) -> usize {
    let window = patterns.iter().map(|p| p.bytes.len()).min().unwrap_or(0);
    let mut seen = [false; 256];
    for p in patterns {
        seen[usize::from(p.bytes[window - 1])] = true;
    }
    seen.iter().filter(|&&s| s).count()
}

/// A hardened (integrated) machine with the ssh server started on it.
fn zero_written(cfg: &ExperimentConfig, seed: u64) -> SimResult<Kernel> {
    let mut rng = Rng64::new(seed);
    let mut kernel = cfg.boot_machine(ProtectionLevel::Integrated, &mut rng);
    let server_cfg = ServerConfig::new(ProtectionLevel::Integrated).with_key_bits(cfg.key_bits);
    let mut server = SshServer::start(&mut kernel, server_cfg)?;
    server.set_concurrency(&mut kernel, 2)?;
    Ok(kernel)
}

/// An unprotected machine after the paper's rotating timeline schedule ran
/// to its end (server stopped, key copies left on the free lists).
fn post_experiment(cfg: &ExperimentConfig, seed: u64) -> SimResult<Kernel> {
    let sch = Schedule::paper().with_rotation(5);
    let mut rng = Rng64::new(seed);
    let mut kernel = cfg.boot_machine(ProtectionLevel::None, &mut rng);
    let server_cfg = ServerConfig::new(ProtectionLevel::None).with_key_bits(cfg.key_bits);
    let mut server: Option<SshServer> = None;
    for t in 0..sch.end {
        if t == sch.start_server {
            server = Some(SshServer::start(&mut kernel, server_cfg)?);
        }
        if let Some(s) = server.as_mut().filter(|s| s.is_running()) {
            if sch.rotates_at(t) {
                s.rotate_key(&mut kernel)?;
            }
            let conc = sch.concurrency_at(t);
            s.set_concurrency(&mut kernel, conc)?;
            if conc > 0 {
                s.pump(&mut kernel, conc * sch.churn_per_slot)?;
            }
        }
        if t == sch.stop_server {
            if let Some(s) = server.as_mut() {
                s.stop(&mut kernel)?;
            }
        }
    }
    Ok(kernel)
}

/// Seeded random bytes with a copy of every 4-epoch pattern planted at
/// each alignment mod 8.
fn high_entropy(len: usize, patterns: &[Pattern], seed: u64) -> Image {
    let mut image = Image::filled(len, &mut Rng64::new(seed));
    let plants = patterns.len() * 8;
    let stride = (len / plants) & !7;
    for (j, p) in patterns.iter().enumerate() {
        for align in 0..8 {
            let at = (j * 8 + align) * stride + align;
            // keylint: allow(S005) -- planting known key bytes into the synthetic haystack is the point of this image
            image.bytes[at..at + p.bytes.len()].copy_from_slice(&p.bytes);
        }
    }
    image
}

impl Images {
    /// Builds both scanners and all three images for `seed`.
    ///
    /// # Errors
    ///
    /// A simulator error while building a machine, or a scanner that would
    /// not take the dispatch path it is meant to cover.
    pub fn build(cfg: &ExperimentConfig, seed: u64) -> Result<Self, String> {
        let server_cfg = ServerConfig::new(ProtectionLevel::None).with_key_bits(cfg.key_bits);
        let one = epoch_patterns(&server_cfg, 1);
        let four = epoch_patterns(&server_cfg, EPOCHS);
        let (t1, t4) = (trigger_count(&one), trigger_count(&four));
        if t1 > SWAR_MAX_TRIGGERS || t4 <= SWAR_MAX_TRIGGERS {
            return Err(format!(
                "trigger counts {t1}/{t4} miss the SWAR/Horspool split"
            ));
        }
        let zero = zero_written(cfg, cell_seed(seed, &[0])).map_err(|e| e.to_string())?;
        let zero = Image::copied(zero.phys());
        let post = post_experiment(cfg, cell_seed(seed, &[1])).map_err(|e| e.to_string())?;
        let post = Image::copied(post.phys());
        let random = high_entropy(cfg.mem_bytes, &four, cell_seed(seed, &[2]));
        Ok(Self {
            one_epoch: Scanner::new(one),
            four_epoch: Scanner::new(four),
            images: [zero, post, random],
        })
    }

    /// The scanner of column `wide` (0 = 1 epoch, 1 = 4 epochs).
    #[must_use]
    pub fn scanner(&self, wide: usize) -> &Scanner {
        if wide == 0 {
            &self.one_epoch
        } else {
            &self.four_epoch
        }
    }

    /// Checks every image's hits under both scanners against the naive
    /// oracle (one naive pass per image, with the 4-epoch scanner whose
    /// first patterns are the 1-epoch scanner's). Returns the verified hit
    /// lists, `[image][scanner]`.
    ///
    /// # Errors
    ///
    /// A fast scan that disagrees with the oracle.
    pub fn oracle_hits(&self) -> Result<Vec<[Vec<RawHit>; 2]>, String> {
        let narrow = self.one_epoch.patterns().len();
        let per_image: Vec<Result<[Vec<RawHit>; 2], String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .images
                .iter()
                .zip(IMAGES)
                .map(|(img, name)| {
                    s.spawn(move || {
                        let wide = self.four_epoch.scan_bytes_naive(img.bytes());
                        let narrow_hits: Vec<RawHit> = wide
                            .iter()
                            .copied()
                            .filter(|h| h.pattern < narrow)
                            .collect();
                        for (col, want) in [&narrow_hits, &wide].into_iter().enumerate() {
                            if self.scanner(col).scan_bytes(img.bytes()) != *want {
                                return Err(format!(
                                    "{name}: scan_bytes disagrees with the naive oracle"
                                ));
                            }
                        }
                        Ok([narrow_hits, wide])
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        per_image.into_iter().collect()
    }
}

/// Digest of a hit list.
#[must_use]
fn hits_digest(hits: &[RawHit]) -> u64 {
    let mut d = Digest::default();
    d.word(hits.len() as u64);
    for h in hits {
        d.word(h.pattern as u64).word(h.offset as u64);
    }
    d.finish()
}

/// The workload: six calls per pass, one per `(image, scanner)`.
pub struct ForensicScan {
    images: Images,
    /// Oracle-verified hit digests and counts, `[image][scanner]`; `None`
    /// until [`Workload::verify`] ran.
    expected: Option<[[(u64, usize); 2]; 3]>,
}

impl ForensicScan {
    /// Builds the images; [`Workload::verify`] checks them against the
    /// oracle.
    ///
    /// # Errors
    ///
    /// A failed build, or images that are not resident.
    pub fn new(seed: u64, scale: Scale) -> Result<Self, String> {
        let images = Images::build(&scale.config(), seed)?;
        let total: usize = images.images.iter().map(|i| i.bytes().len()).sum();
        let rss = crate::host::rss_bytes()?;
        if rss < total as u64 {
            return Err(format!(
                "images hold {total} bytes but only {rss} are resident"
            ));
        }
        Ok(Self {
            images,
            expected: None,
        })
    }

    fn scan(&self, i: usize) -> (usize, usize, Vec<RawHit>) {
        let (img, col) = (i / 2, i % 2);
        (
            img,
            col,
            self.images
                .scanner(col)
                .scan_bytes(self.images.images[img].bytes()),
        )
    }

    fn outcome(&self, img: usize, col: usize, hits: &[RawHit]) -> Outcome {
        let digest = hits_digest(hits);
        let Some(expected) = &self.expected else {
            return Outcome::failed("scanned before the oracle check");
        };
        let (want, n) = expected[img][col];
        let check = if digest == want {
            Ok(())
        } else {
            Err(format!("{} hits differ from the oracle's {n}", hits.len()))
        };
        Outcome {
            digest,
            cells: 1,
            check,
            counts: Counts::from([("keyscan.hits", hits.len() as f64)]),
        }
    }
}

impl Workload for ForensicScan {
    fn len(&self) -> usize {
        IMAGES.len() * 2
    }

    /// Every (image, scanner) scan once.
    fn warm_up(&self) -> Vec<usize> {
        (0..self.len()).collect()
    }

    fn verify(&mut self) -> Result<(), String> {
        let hits = self.images.oracle_hits()?;
        self.expected =
            Some([0, 1, 2].map(|i| [0, 1].map(|c| (hits_digest(&hits[i][c]), hits[i][c].len()))));
        Ok(())
    }

    fn label(&self, i: usize) -> String {
        format!(
            "{}/{}ep",
            IMAGES[i / 2],
            if i.is_multiple_of(2) { 1 } else { EPOCHS }
        )
    }

    fn call(&self, i: usize) -> Outcome {
        let (img, col, hits) = self.scan(i);
        self.outcome(img, col, &hits)
    }

    fn call_traced(&self, i: usize, tr: &mut Tracer) -> Outcome {
        let (img, col, hits) = tr.span(SCANS[i / 2][i % 2], || self.scan(i));
        self.outcome(img, col, &hits)
    }
}
