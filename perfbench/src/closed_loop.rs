//! The closed loop: `clients` threads, each issuing its next call when the
//! previous one returns, pulling cell indices from one shared counter.
//!
//! Each cell is sent once per client in turn: call `i` runs cell
//! `(i / clients) mod len`, so the clients work on the same cell at the
//! same time, like an executor running one sweep's cells on every core,
//! and no pass depends on which unlike cells happened to overlap. Indices
//! `k*len*clients .. (k+1)*len*clients` form pass `k`. A run stops at a
//! pass boundary: the first boundary index claimed after the deadline with
//! at least `min_passes` passes made ends it. Every pass before it is
//! whole, so every cell has at least `min_passes × clients` calls and the
//! first pass always completes (per-cell digests are defined). A client
//! that claimed the index after the boundary before the stop was published
//! still runs that call, so a run may end with a few calls of the next
//! pass; they only add samples to their cells.

use crate::host;
use crate::trace::{Span, Tracer};
use crate::workloads::{Outcome, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How one loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Loop {
    /// Client threads.
    pub clients: usize,
    /// Measured window; the first pass may run past it.
    pub seconds: f64,
    /// Passes to make at least, so every cell has several calls to take
    /// its fastest from.
    pub min_passes: usize,
    /// Seconds after which the next pass boundary ends the run, whatever
    /// `min_passes` says.
    pub max_seconds: f64,
    /// Run the traced form of each call.
    pub traced: bool,
}

/// One completed call.
#[derive(Debug, Clone)]
pub struct Call {
    /// Call index (the order calls were claimed in).
    pub index: usize,
    /// Cell run: `(index / clients) mod len`.
    pub cell: usize,
    /// Latency, ns.
    pub ns: u64,
    /// CPU time of the client thread during the call, ns.
    pub cpu_ns: u64,
    /// What it produced.
    pub out: Outcome,
}

/// What a loop left behind.
#[derive(Debug)]
pub struct Run {
    /// Every call, sorted by index.
    pub calls: Vec<Call>,
    /// Wall time from the first claim to the last client's exit, ns.
    pub wall_ns: u64,
    /// One span list per client (empty when untraced).
    pub spans: Vec<Vec<Span>>,
}

impl Run {
    /// Cells completed by every call.
    #[must_use]
    pub fn cells(&self) -> u64 {
        self.calls.iter().map(|c| c.out.cells).sum()
    }

    /// Summed call latency, ns.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.ns).sum()
    }

    /// Per cell: its cell count and, over every call of that cell in the
    /// run, the fastest latency and the least client-thread CPU (ns).
    ///
    /// A cell's work is deterministic, so what varies between its calls is
    /// the host: another tenant's load on a shared machine only ever adds
    /// time. The fastest call is the estimate of the cell's own cost least
    /// moved by that; a median still moves whenever a slow spell covers
    /// half of a run.
    #[must_use]
    pub fn per_cell_fastest(&self, len: usize) -> Vec<(u64, f64, f64)> {
        let mut fastest = vec![(0u64, f64::INFINITY, f64::INFINITY); len];
        for c in &self.calls {
            let f = &mut fastest[c.cell];
            f.0 = c.out.cells;
            f.1 = f.1.min(c.ns as f64);
            f.2 = f.2.min(c.cpu_ns as f64);
        }
        fastest
    }

    /// Throughput of an undisturbed pass: `clients × cells per pass /
    /// seconds`, where a pass takes the sum of each cell's fastest latency
    /// divided among the clients. Exact for a loop whose clients never
    /// idle; the traced run reports how idle they were.
    #[must_use]
    pub fn cells_per_s(&self, len: usize, clients: usize) -> f64 {
        let m = self.per_cell_fastest(len);
        let cells: u64 = m.iter().map(|x| x.0).sum();
        let ns: f64 = m.iter().map(|x| x.1).sum();
        clients as f64 * cells as f64 / (ns / 1e9)
    }

    /// Client-thread CPU seconds per cell of an undisturbed pass (each
    /// cell's least CPU time).
    #[must_use]
    pub fn cpu_s_per_cell(&self, len: usize) -> f64 {
        let m = self.per_cell_fastest(len);
        let cells: u64 = m.iter().map(|x| x.0).sum();
        m.iter().map(|x| x.2).sum::<f64>() / 1e9 / cells as f64
    }

    /// The first call of each cell, in cell order.
    #[must_use]
    pub fn first_pass(&self) -> Vec<&Call> {
        let mut first: Vec<&Call> = Vec::new();
        for c in &self.calls {
            if c.cell == first.len() {
                first.push(c);
            }
        }
        first
    }
}

/// Runs the closed loop over `w`.
#[must_use]
pub fn run(w: &dyn Workload, cfg: &Loop, epoch: Instant) -> Run {
    let next = AtomicUsize::new(0);
    let stop_at = AtomicUsize::new(usize::MAX);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let hard_stop = start + Duration::from_secs_f64(cfg.max_seconds.max(cfg.seconds));
    let len = w.len();
    let clients = cfg.clients.max(1);
    let pass = len * clients;
    let per_client: Vec<(Vec<Call>, Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut tracer = Tracer::new(epoch);
                    let mut calls = Vec::new();
                    loop {
                        // Plain counters: they publish no other data.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= stop_at.load(Ordering::Relaxed) {
                            break;
                        }
                        let now = Instant::now();
                        let boundary = index >= pass && index.is_multiple_of(pass);
                        if boundary
                            && (now >= hard_stop
                                || (now >= deadline && index >= cfg.min_passes * pass))
                        {
                            stop_at.fetch_min(index, Ordering::Relaxed);
                            break;
                        }
                        let cell = (index / clients) % len;
                        let cpu0 = host::thread_cpu_ns().unwrap_or(0);
                        let t = Instant::now();
                        let out = if cfg.traced {
                            tracer.begin_call(index as u64);
                            let out = w.call_traced(cell, &mut tracer);
                            tracer.end_call();
                            out
                        } else {
                            w.call(cell)
                        };
                        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        let cpu_ns = host::thread_cpu_ns().unwrap_or(0).saturating_sub(cpu0);
                        calls.push(Call {
                            index,
                            cell,
                            ns,
                            cpu_ns,
                            out,
                        });
                    }
                    (calls, tracer.spans().to_vec())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client panicked"))
            .collect()
    });
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut calls = Vec::new();
    let mut spans = Vec::new();
    for (c, s) in per_client {
        calls.extend(c);
        spans.push(s);
    }
    calls.sort_by_key(|c| c.index);
    Run {
        calls,
        wall_ns,
        spans,
    }
}

/// Per-cell digests of the first pass, in cell order.
#[must_use]
pub fn pass_digests(run: &Run) -> Vec<u64> {
    run.first_pass().iter().map(|c| c.out.digest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{attack::AttackSweep, Scale};

    fn once(clients: usize) -> Vec<u64> {
        let w = AttackSweep::new(11, Scale::Test);
        let cfg = Loop {
            clients,
            seconds: 0.0,
            min_passes: 0,
            max_seconds: 0.0,
            traced: false,
        };
        let run = run(&w, &cfg, Instant::now());
        assert_eq!(
            run.calls.len(),
            w.len() * clients,
            "a zero-second run is exactly one pass"
        );
        let first = pass_digests(&run);
        assert!(run.calls.iter().all(|c| c.out.check.is_ok()));
        assert!(run.calls.iter().all(|c| c.out.digest == first[c.cell]));
        first
    }

    #[test]
    fn digest_is_identical_with_one_client_and_nproc_clients() {
        let n = crate::host::nproc().max(2);
        assert_eq!(once(1), once(n));
    }

    #[test]
    fn timed_metrics_take_each_cells_fastest_call() {
        let call = |cell, ms: u64, cpu_ms: u64| Call {
            index: 0,
            cell,
            ns: ms * 1_000_000,
            cpu_ns: cpu_ms * 1_000_000,
            out: Outcome {
                digest: 0,
                cells: 2,
                check: Ok(()),
                counts: Default::default(),
            },
        };
        let run = Run {
            calls: vec![
                call(0, 30, 20),
                call(1, 50, 40),
                call(0, 10, 9),
                call(1, 90, 80),
                call(0, 20, 10),
            ],
            wall_ns: 0,
            spans: Vec::new(),
        };
        let fastest = run.per_cell_fastest(2);
        assert_eq!((fastest[0].1, fastest[1].1), (10e6, 50e6));
        // 2 clients × 4 cells per pass over 60 ms.
        assert!((run.cells_per_s(2, 2) - 8.0 / 0.06).abs() < 1e-9);
        // 9 ms + 40 ms of CPU over 4 cells.
        assert!((run.cpu_s_per_cell(2) - 0.049 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn traced_calls_reproduce_untraced_digests() {
        let w = AttackSweep::new(5, Scale::Test);
        let mut tr = Tracer::new(Instant::now());
        for i in 0..w.len() {
            tr.begin_call(i as u64);
            let traced = w.call_traced(i, &mut tr);
            tr.end_call();
            assert_eq!(traced.digest, w.call(i).digest, "cell {}", w.label(i));
        }
    }
}
