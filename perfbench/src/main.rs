//! The repository's benchmark. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--record-reference]
//! ```
//!
//! Prints a table of every metric with its unit and sample count, one
//! `detail` JSON line, and last, the result line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits 1 when any output check failed, 2 on a usage or set-up error.

mod closed_loop;
mod host;
mod metrics;
mod stats;
mod trace;
mod workloads;

use closed_loop::{Loop, Run};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::{Summary, Tracer};
use workloads::{Counts, Scale, Workload};

/// Client threads at most, whatever the core count: each attack client
/// holds about 150 MB at once.
const MAX_CLIENTS: usize = 8;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Passes a run makes at least, so each cell's fastest call is taken from
/// `MIN_PASSES × clients` calls or more.
const MIN_PASSES: usize = 3;

/// Untraced passes a traced run makes after its window: the fidelity check
/// and the baseline of `harness.trace_overhead`. At most `MIN_PASSES`, so
/// the traced window has as many.
const OVERHEAD_PASSES: usize = 3;

/// No call is claimed after this many seconds, whatever `MIN_PASSES` says.
const MAX_SECONDS: f64 = 100.0;

/// Per-cell reference digests: `<workload> <seed> <cell> <digest hex>`.
const REFERENCE: &str = include_str!("../reference.txt");

#[derive(Debug)]
struct BenchArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    clients: usize,
    record: bool,
}

fn parse_args() -> Result<BenchArgs, String> {
    let mut a = BenchArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        // One client per core, at most MAX_CLIENTS.
        clients: host::nproc().min(MAX_CLIENTS),
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            a.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(a)
}

fn reference(workload: &str, seed: u64) -> Option<BTreeMap<usize, u64>> {
    let cells: BTreeMap<usize, u64> = REFERENCE
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [w, s, c, d] if *w == workload && s.parse() == Ok(seed) => {
                    Some((c.parse().ok()?, u64::from_str_radix(d, 16).ok()?))
                }
                _ => None,
            }
        })
        .collect();
    (!cells.is_empty()).then_some(cells)
}

/// A built workload and what building it cost.
struct SetUp {
    workload: Box<dyn Workload>,
    /// Seconds of each set-up.
    times: Vec<f64>,
    /// Seconds of the one-time oracle check.
    oracle_s: f64,
}

/// Builds the workload `SETUP_REPS` times (dropping the previous build
/// first), each followed by its warm-up calls, then runs the one-time
/// oracle check on the last build.
fn set_up(a: &BenchArgs) -> Result<SetUp, String> {
    let mut times = Vec::new();
    let mut built: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let w = workloads::build(&a.workload, a.seed, Scale::Bench)?;
        // Warm-up only: the timed calls are the checked ones.
        for i in w.warm_up() {
            drop(w.call(i));
        }
        times.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut workload = built.ok_or("no set-up ran")?;
    let t = Instant::now();
    workload.verify()?;
    Ok(SetUp {
        workload,
        times,
        oracle_s: t.elapsed().as_secs_f64(),
    })
}

/// Checks every call: its own check, its digest against the reference (when
/// one is stored for this seed), and against the first-pass digest of its
/// cell. Returns the failure count and the first few reasons.
fn judge(
    w: &dyn Workload,
    run: &Run,
    reference: Option<&BTreeMap<usize, u64>>,
) -> (usize, Vec<String>) {
    let first = closed_loop::pass_digests(run);
    let mut failed = 0;
    let mut why = Vec::new();
    for c in &run.calls {
        let reason = if let Err(e) = &c.out.check {
            Some(e.clone())
        } else if reference.is_some_and(|r| r.get(&c.cell) != Some(&c.out.digest)) {
            Some(format!(
                "digest {:016x} differs from the stored reference",
                c.out.digest
            ))
        } else if first.get(c.cell) != Some(&c.out.digest) {
            Some("digest differs from the first run of this cell".to_string())
        } else {
            None
        };
        if let Some(r) = reason {
            failed += 1;
            if why.len() < 5 {
                why.push(format!("call {} ({}): {r}", c.index, w.label(c.cell)));
            }
        }
    }
    (failed, why)
}

fn pass_digest(run: &Run) -> u64 {
    let mut d = workloads::Digest::default();
    for v in closed_loop::pass_digests(run) {
        d.word(v);
    }
    d.finish()
}

fn sum_counts<'a>(calls: impl Iterator<Item = &'a Counts>) -> Counts {
    let mut out = Counts::new();
    for c in calls {
        workloads::add_counts(&mut out, c);
    }
    out
}

/// A metric value with its unit and a note on where it came from.
struct Reported {
    value: f64,
    unit: &'static str,
    note: String,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the table (`values`, then `printed`), the detail line, and the
/// result line, whose metrics are `values` alone.
fn print_result(
    a: &BenchArgs,
    values: &[(&str, Reported)],
    printed: &[(&str, Reported)],
    detail: &[(&str, String)],
    attempted: usize,
    failed: usize,
) -> bool {
    let correct = failed == 0 && values.iter().all(|(_, v)| v.value.is_finite());
    println!(
        "perfbench workload={} seed={} trace={} nproc={} clients={}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        host::nproc(),
        a.clients
    );
    println!(
        "{:<42} {:>20} {:<6} samples / source",
        "metric", "value", "unit"
    );
    for (name, v) in values.iter().chain(printed) {
        println!("{name:<42} {:>20.6} {:<6} {}", v.value, v.unit, v.note);
    }
    let fields: Vec<String> = detail
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"detail\": {{{}}}}}", fields.join(", "));
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(v.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    correct
}

fn loop_cfg(a: &BenchArgs, traced: bool) -> Loop {
    Loop {
        clients: a.clients,
        seconds: a.seconds,
        min_passes: MIN_PASSES,
        max_seconds: MAX_SECONDS,
        traced,
    }
}

/// `passes` untraced passes: every cell `passes` times per client.
fn untraced_passes(w: &dyn Workload, a: &BenchArgs, passes: usize) -> Run {
    let cfg = Loop {
        seconds: 0.0,
        min_passes: passes,
        ..loop_cfg(a, false)
    };
    closed_loop::run(w, &cfg, Instant::now())
}

fn record(a: &BenchArgs, w: &dyn Workload) -> Result<bool, String> {
    let run = untraced_passes(w, a, 1);
    for c in run.first_pass() {
        c.out
            .check
            .clone()
            .map_err(|e| format!("{}: {e}", w.label(c.cell)))?;
        println!("{} {} {} {:016x}", a.workload, a.seed, c.cell, c.out.digest);
    }
    Ok(true)
}

fn end_to_end(a: &BenchArgs, s: &SetUp, started: Instant) -> Result<bool, String> {
    let (w, setup, oracle_s) = (s.workload.as_ref(), &s.times, s.oracle_s);
    let h0 = host::sample()?;
    let to_first_call = started.elapsed().as_secs_f64();
    let run = closed_loop::run(w, &loop_cfg(a, false), Instant::now());
    let cpu = host::sample()?.since(&h0);
    let reference = reference(&a.workload, a.seed);
    let (failed, why) = judge(w, &run, reference.as_ref());
    let cells = run.cells();
    let wall_s = run.wall_ns as f64 / 1e9;
    let n = run.calls.len();
    let passes = n / (w.len() * a.clients);
    let per_cell = passes * a.clients;
    let lat: Vec<f64> = run.calls.iter().map(|c| c.ns as f64 / 1e6).collect();
    let p50 = stats::percentile(&lat, 50.0).ok_or("no calls ran")?;
    let p90 = stats::percentile(&lat, 90.0).ok_or("no calls ran")?;
    let tail = stats::highest_reportable(&lat);
    // In END_TO_END order; the table supplies each unit.
    let measured = [
        (
            run.cells_per_s(w.len(), a.clients),
            format!(
                "fastest of {per_cell} calls per cell, {passes} passes; {cells} cells in {wall_s:.3} s"
            ),
        ),
        (
            run.cpu_s_per_cell(w.len()),
            format!(
                "least CPU per cell; process user {:.2} s + sys {:.2} s",
                cpu.user_s, cpu.sys_s
            ),
        ),
        (host::peak_rss_mb()?, "VmHWM".into()),
        (
            stats::median(setup),
            format!("median of {} set-ups {setup:.3?}", setup.len()),
        ),
    ];
    // In PRINTED order.
    let printed = [
        (p50.value, format!("every call: {n}, {} beyond", p50.beyond)),
        (p90.value, format!("every call: {n}, {} beyond", p90.beyond)),
        (
            failed as f64 / n as f64,
            format!("{failed} of {n} calls failed"),
        ),
    ];
    let report = |names: &[(&'static str, &'static str)], values: Vec<(f64, String)>| {
        names
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, note))| (name, Reported { value, unit, note }))
            .collect::<Vec<_>>()
    };
    let values = report(&metrics::END_TO_END, measured.into());
    let printed = report(&metrics::PRINTED, printed.into());
    let detail = vec![
        ("workload", json_str(&a.workload)),
        ("seed", a.seed.to_string()),
        ("nproc", host::nproc().to_string()),
        ("clients", a.clients.to_string()),
        ("cells_per_pass", w.len().to_string()),
        ("calls", n.to_string()),
        ("passes", passes.to_string()),
        ("run_cells_per_s", (cells as f64 / wall_s).to_string()),
        ("failed_frac", (failed as f64 / n as f64).to_string()),
        (
            "highest_reportable_pct",
            tail.map_or("null".into(), |p| p.pct.to_string()),
        ),
        (
            "highest_reportable_ms",
            tail.map_or("null".into(), |p| p.value.to_string()),
        ),
        (
            "pass_digest",
            json_str(&format!("{:016x}", pass_digest(&run))),
        ),
        (
            "reference",
            json_str(if reference.is_some() {
                "checked"
            } else {
                "none stored for this seed"
            }),
        ),
        ("oracle_check_s", oracle_s.to_string()),
        ("process_to_first_call_s", to_first_call.to_string()),
        (
            "minflt_per_cell",
            (cpu.minflt as f64 / cells as f64).to_string(),
        ),
        (
            "failures",
            format!(
                "[{}]",
                why.iter()
                    .map(|s| json_str(s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    Ok(print_result(a, &values, &printed, &detail, n, failed))
}

fn traced(a: &BenchArgs, w: &dyn Workload) -> Result<bool, String> {
    let epoch = Instant::now();
    let h0 = host::sample()?;
    let run = closed_loop::run(w, &loop_cfg(a, true), epoch);
    let cpu = host::sample()?.since(&h0);
    let reference = reference(&a.workload, a.seed);
    let (mut failed, mut why) = judge(w, &run, reference.as_ref());
    let cells = run.cells() as f64;

    // Standalone layer timings on each cell's inputs, outside the window.
    let mut post = Tracer::new(epoch);
    let mut standalone = Counts::new();
    for i in 0..w.len() {
        post.standalone_for(i as u64);
        workloads::add_counts(&mut standalone, &w.standalone(i, &mut post));
    }

    // Fidelity: an untraced pass must reproduce every traced digest.
    let plain = untraced_passes(w, a, OVERHEAD_PASSES);
    let traced_digests = closed_loop::pass_digests(&run);
    for (cell, d) in closed_loop::pass_digests(&plain).iter().enumerate() {
        if traced_digests.get(cell) != Some(d) {
            failed += 1;
            why.push(format!(
                "cell {}: traced digest differs from the untraced call",
                w.label(cell)
            ));
        }
    }
    // Overhead on matched cells and matched sample counts: the first
    // OVERHEAD_PASSES traced passes against as many untraced ones, each cell
    // at its fastest call there (the fastest of more calls reads lower by
    // itself).
    let matched = OVERHEAD_PASSES * w.len() * a.clients;
    let fastest_pass_ns = |r: &Run| {
        let first = Run {
            calls: r
                .calls
                .iter()
                .filter(|c| c.index < matched)
                .cloned()
                .collect(),
            wall_ns: r.wall_ns,
            spans: Vec::new(),
        };
        first
            .per_cell_fastest(w.len())
            .iter()
            .map(|m| m.1)
            .sum::<f64>()
    };
    let overhead = fastest_pass_ns(&run) / fastest_pass_ns(&plain) - 1.0;

    let mut probe_tr = Tracer::new(epoch);
    let probe_counts = workloads::probe::run(&mut probe_tr, a.seed, Scale::Bench)?;

    let mut summary = Summary::default();
    for s in &run.spans {
        summary.absorb(s);
    }
    summary.absorb(post.spans());
    let first = run.first_pass();
    let mut pass = sum_counts(first.iter().map(|c| &c.out.counts));
    let mut all = sum_counts(run.calls.iter().map(|c| &c.out.counts));
    workloads::add_counts(&mut pass, &standalone);
    workloads::add_counts(&mut all, &standalone);
    let image_bytes = Scale::Bench.config().mem_bytes;
    let own = metrics::layers(&metrics::Traced {
        spans: &summary,
        pass: &pass,
        all: &all,
        image_bytes,
    });
    let mut probe_summary = Summary::default();
    probe_summary.absorb(probe_tr.spans());
    let probe = metrics::layers(&metrics::Traced {
        spans: &probe_summary,
        pass: &probe_counts,
        all: &probe_counts,
        image_bytes,
    });

    let mut extra: BTreeMap<&str, f64> = BTreeMap::new();
    extra.insert(
        "harness.cell_self_ms",
        summary.call_self_ns as f64 / summary.calls.count.max(1) as f64 / 1e6,
    );
    extra.insert(
        "harness.client_idle_frac",
        stats::idle_fraction(run.busy_ns(), a.clients, run.wall_ns),
    );
    extra.insert("harness.trace_overhead", overhead);
    extra.insert("host.user_s", cpu.user_s / cells);
    extra.insert("host.sys_s", cpu.sys_s / cells);
    extra.insert("host.minflt", cpu.minflt as f64 / cells);

    let mut values = Vec::new();
    let mut from_probe = Vec::new();
    for (name, unit) in metrics::PER_LAYER {
        let (value, note) = if let Some(&v) = extra.get(name).or_else(|| own.get(name)) {
            (v, "workload".to_string())
        } else if let Some(&v) = probe.get(name) {
            from_probe.push(json_str(name));
            (v, "layer probe".to_string())
        } else {
            failed += 1;
            why.push(format!("{name}: no span or count produced it"));
            (f64::NAN, "missing".to_string())
        };
        values.push((name, Reported { value, unit, note }));
    }

    let path = std::path::PathBuf::from(format!(
        ".bench_out/trace-{}-seed{}.tsv",
        a.workload, a.seed
    ));
    let mut all_spans: Vec<&[trace::Span]> = run.spans.iter().map(Vec::as_slice).collect();
    all_spans.push(post.spans());
    all_spans.push(probe_tr.spans());
    trace::write_tsv(&path, &all_spans).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut ledger = String::from("{");
    for (i, (name, t)) in summary.by_name.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            ledger,
            "{sep}{}: {{\"count\": {}, \"total_ms\": {}}}",
            json_str(name),
            t.count,
            t.ns as f64 / 1e6
        );
    }
    ledger.push('}');
    let n = run.calls.len();
    let detail = vec![
        ("workload", json_str(&a.workload)),
        ("seed", a.seed.to_string()),
        ("nproc", host::nproc().to_string()),
        ("clients", a.clients.to_string()),
        ("calls", n.to_string()),
        ("cells", cells.to_string()),
        (
            "traced_cells_per_s",
            (cells / (run.wall_ns as f64 / 1e9)).to_string(),
        ),
        (
            "call_ms_mean",
            (summary.calls.ns as f64 / summary.calls.count.max(1) as f64 / 1e6).to_string(),
        ),
        (
            "pass_digest",
            json_str(&format!("{:016x}", pass_digest(&run))),
        ),
        (
            "fidelity",
            json_str(if pass_digest(&run) == pass_digest(&plain) {
                "traced == untraced"
            } else {
                "MISMATCH"
            }),
        ),
        ("from_layer_probe", format!("[{}]", from_probe.join(", "))),
        ("spans", ledger),
        ("trace_file", json_str(&path.display().to_string())),
        (
            "failures",
            format!(
                "[{}]",
                why.iter()
                    .map(|s| json_str(s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    Ok(print_result(a, &values, &[], &detail, n, failed))
}

fn main() {
    let started = Instant::now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = set_up(&a).and_then(|s| {
        if a.record {
            record(&a, s.workload.as_ref())
        } else if a.trace {
            traced(&a, s.workload.as_ref())
        } else {
            end_to_end(&a, &s, started)
        }
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
