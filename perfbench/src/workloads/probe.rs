//! The layer probe: a fixed set of standalone calls, one for every layer,
//! on inputs derived from the run's seed. A traced run takes from it only
//! the per-layer metrics its own workload does not exercise (a forensic
//! scan boots no server; a timeline runs no exploit), so every traced run
//! reports every per-layer metric and says which ones came from here.

use super::{add_counts, attack, forensic, timeline, Counts, Scale};
use crate::trace::Tracer;
use bignum::BigUint;
use harness::exec::cell_seed;
use keyguard::ProtectionLevel;
use servers::ServerConfig;
use simrng::Rng64;

/// RSA private operations timed for `rsa.private_op_us`.
const PRIVATE_OPS: usize = 64;

/// Runs every probe call, recording standalone spans on `tr`; returns the
/// simulated counts, summed.
///
/// # Errors
///
/// A simulator error or a failed set-up step in any probe call.
pub fn run(tr: &mut Tracer, seed: u64, scale: Scale) -> Result<Counts, String> {
    let mut counts = attack::probe(tr, cell_seed(seed, &[0xA7]), scale)?;
    add_counts(
        &mut counts,
        &timeline::probe(tr, cell_seed(seed, &[0x71]), scale)?,
    );

    let cfg = scale.config();
    let server_cfg = ServerConfig::new(ProtectionLevel::None)
        .with_key_bits(cfg.key_bits)
        .with_seed(cell_seed(seed, &[0x4E]));
    let key = tr.span("rsa.keygen", || server_cfg.derive_key("openssh"));
    let mut rng = Rng64::new(cell_seed(seed, &[0x0B]));
    for _ in 0..PRIVATE_OPS {
        // Below the smaller prime, so always a valid input.
        let c = BigUint::from_u64(rng.next_u64() >> 8);
        tr.span("rsa.private_op", || key.private_op_crt(&c))
            .map_err(|e| format!("private op: {e:?}"))?;
    }

    let mut rng = Rng64::new(cell_seed(seed, &[0xC1]));
    let kernel = cfg.boot_machine(ProtectionLevel::Kernel, &mut rng);
    let copy = tr.span("memsim.clone", || kernel.clone());
    drop((copy, kernel));

    let images = forensic::Images::build(&cfg, cell_seed(seed, &[0x5C]))?;
    let mut hits = 0usize;
    for (img, names) in images.images.iter().zip(forensic::SCANS) {
        for (col, name) in names.into_iter().enumerate() {
            hits += tr
                .span(name, || images.scanner(col).scan_bytes(img.bytes()))
                .len();
        }
    }
    *counts.entry("keyscan.hits").or_default() += hits as f64;
    Ok(counts)
}
