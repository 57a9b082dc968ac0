//! Property-based tests: simulator invariants under randomized operation
//! sequences — frame conservation, no aliasing, COW correctness, and the
//! zeroing guarantee. Every step of every sequence is followed by
//! [`Kernel::check_invariants`], the oracle for the known-zero fast path.
//!
//! Runs on `simrng::propcheck` (pure std) so the suite works with no
//! registry access.

use memsim::{
    FileId, FrameId, Kernel, KernelPolicy, MachineConfig, Pid, SimError, VAddr, PAGE_SIZE,
};
use simrng::propcheck::{self, Gen};

/// A randomized workload step.
#[derive(Debug, Clone)]
enum Op {
    Spawn,
    Fork(usize),
    Exit(usize),
    Alloc { proc_idx: usize, size: usize },
    Free { proc_idx: usize, alloc_idx: usize },
    Write { proc_idx: usize, alloc_idx: usize, byte: u8 },
    KernelPageCycle { n: usize },
    SwapOut { pages: usize },
    /// Allocate kernel pages, write into them, free them.
    KernelPageWrite { n: usize, offset: usize, byte: u8 },
    /// Write through the page cache; with `flush`, write back and drop the
    /// file's cache pages, so the next partial write fills from disk.
    FileWrite { file_idx: usize, offset: usize, len: usize, byte: u8, flush: bool },
}

fn gen_op(g: &mut Gen) -> Op {
    match g.usize_in(0..10) {
        0 => Op::Spawn,
        1 => Op::Fork(g.usize_in(0..8)),
        2 => Op::Exit(g.usize_in(0..8)),
        3 => Op::Alloc {
            proc_idx: g.usize_in(0..8),
            size: g.usize_in(1..3 * PAGE_SIZE),
        },
        4 => Op::Free {
            proc_idx: g.usize_in(0..8),
            alloc_idx: g.usize_in(0..8),
        },
        5 => Op::Write {
            proc_idx: g.usize_in(0..8),
            alloc_idx: g.usize_in(0..8),
            byte: g.u8(),
        },
        6 => Op::KernelPageCycle {
            n: g.usize_in(1..16),
        },
        7 => Op::SwapOut {
            pages: g.usize_in(1..64),
        },
        8 => Op::KernelPageWrite {
            n: g.usize_in(1..8),
            offset: g.usize_in(0..PAGE_SIZE),
            byte: g.u8(),
        },
        _ => Op::FileWrite {
            file_idx: g.usize_in(0..3),
            offset: g.usize_in(0..3 * PAGE_SIZE),
            len: g.usize_in(1..2 * PAGE_SIZE),
            byte: g.u8(),
            flush: g.usize_in(0..2) == 1,
        },
    }
}

fn gen_ops(g: &mut Gen, max: usize) -> Vec<Op> {
    let n = g.usize_in(1..max);
    (0..n).map(|_| gen_op(g)).collect()
}

/// Host-side mirror of live state for cross-checking.
#[derive(Default)]
struct Mirror {
    procs: Vec<Pid>,
    /// Live allocations per process: (addr, size, fill byte if written).
    allocs: Vec<Vec<(VAddr, usize, Option<u8>)>>,
    files: Vec<FileId>,
}

fn run_ops(policy: KernelPolicy, ops: &[Op]) -> (Kernel, Mirror) {
    let mut kernel = Kernel::new(
        MachineConfig::small()
            .with_mem_bytes(2 * 1024 * 1024)
            .with_policy(policy),
    );
    let mut m = Mirror::default();
    for op in ops {
        match *op {
            Op::Spawn => {
                if m.procs.len() < 8 {
                    m.procs.push(kernel.spawn());
                    m.allocs.push(Vec::new());
                }
            }
            Op::Fork(i) => {
                if !m.procs.is_empty() && m.procs.len() < 8 {
                    let parent = m.procs[i % m.procs.len()];
                    if let Ok(child) = kernel.fork(parent) {
                        m.procs.push(child);
                        // The child's live chunk set mirrors the parent's,
                        // but we track only parent-owned chunks to keep the
                        // mirror simple: the child gets an empty list.
                        m.allocs.push(Vec::new());
                    }
                }
            }
            Op::Exit(i) => {
                if m.procs.len() > 1 {
                    let idx = i % m.procs.len();
                    let pid = m.procs.remove(idx);
                    m.allocs.remove(idx);
                    kernel.exit(pid).unwrap();
                }
            }
            Op::Alloc { proc_idx, size } => {
                if !m.procs.is_empty() {
                    let idx = proc_idx % m.procs.len();
                    if let Ok(addr) = kernel.heap_alloc(m.procs[idx], size) {
                        m.allocs[idx].push((addr, size, None));
                    }
                }
            }
            Op::Free { proc_idx, alloc_idx } => {
                if !m.procs.is_empty() {
                    let idx = proc_idx % m.procs.len();
                    if !m.allocs[idx].is_empty() {
                        let pos = alloc_idx % m.allocs[idx].len();
                        let a = m.allocs[idx].remove(pos);
                        kernel.heap_free(m.procs[idx], a.0).unwrap();
                    }
                }
            }
            Op::Write { proc_idx, alloc_idx, byte } => {
                if !m.procs.is_empty() {
                    let idx = proc_idx % m.procs.len();
                    if !m.allocs[idx].is_empty() {
                        let ai = alloc_idx % m.allocs[idx].len();
                        let (addr, size, fill) = &mut m.allocs[idx][ai];
                        let data = vec![byte; *size];
                        kernel.write_bytes(m.procs[idx], *addr, &data).unwrap();
                        *fill = Some(byte);
                    }
                }
            }
            Op::KernelPageCycle { n } => {
                if let Ok(frames) = kernel.alloc_kernel_pages(n) {
                    kernel.free_kernel_pages(&frames);
                }
            }
            Op::SwapOut { pages } => {
                kernel.swap_out_pressure(pages).unwrap();
            }
            Op::KernelPageWrite { n, offset, byte } => {
                if let Ok(frames) = kernel.alloc_kernel_pages(n) {
                    for &f in &frames {
                        kernel.write_kernel_page(f, offset, &vec![byte; PAGE_SIZE - offset]);
                    }
                    kernel.free_kernel_pages(&frames);
                }
            }
            Op::FileWrite { file_idx, offset, len, byte, flush } => {
                if m.files.len() <= file_idx {
                    let name = format!("f{}", m.files.len());
                    m.files.push(kernel.create_file(&name, &[0x42; PAGE_SIZE + 100]));
                }
                let fid = m.files[file_idx % m.files.len()];
                // Out of frames is a legal outcome; the invariants must
                // hold either way.
                let _ = kernel.write_file(fid, offset, &vec![byte; len]);
                if flush {
                    kernel.writeback(usize::MAX).unwrap();
                    kernel.evict_file_cache(fid, false);
                }
            }
        }
        kernel
            .check_invariants()
            .unwrap_or_else(|e| panic!("after {op:?}: {e}"));
    }
    (kernel, m)
}

/// Frame conservation: every frame is either free or allocated, and the
/// counts always add up to the machine size.
#[test]
fn frame_conservation() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 120);
        let (kernel, _) = run_ops(KernelPolicy::stock(), &ops);
        let allocated = (0..kernel.num_frames())
            .filter(|&i| kernel.is_allocated(FrameId(i)))
            .count();
        assert_eq!(allocated + kernel.available_frames(), kernel.num_frames());
    });
}

/// Written data is read back intact — no aliasing between live chunks
/// across arbitrary fork/exit/free interleavings, and a round trip through
/// the swap device never corrupts a byte.
#[test]
fn no_aliasing_of_live_allocations() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 120);
        let (mut kernel, m) = run_ops(KernelPolicy::stock(), &ops);
        for (idx, pid) in m.procs.iter().enumerate() {
            for &(addr, size, fill) in &m.allocs[idx] {
                if let Some(byte) = fill {
                    // Chunks may have been evicted; fault them back in.
                    kernel.touch_pages(*pid, addr, size).unwrap();
                    let data = kernel.read_bytes(*pid, addr, size).unwrap();
                    assert!(
                        data.iter().all(|&b| b == byte),
                        "chunk at {addr} corrupted"
                    );
                }
            }
        }
    });
}

/// The zeroing guarantee: under the hardened policy, free memory is
/// all-zero after any operation sequence.
#[test]
fn hardened_policy_keeps_free_memory_zero() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 120);
        let (kernel, _) = run_ops(KernelPolicy::hardened(), &ops);
        for i in 0..kernel.num_frames() {
            let f = FrameId(i);
            if !kernel.is_allocated(f) {
                assert!(
                    kernel.frame_bytes(f).iter().all(|&b| b == 0),
                    "free {f} contains data under hardened policy"
                );
            }
        }
    });
}

/// Exited processes are gone and their frames reclaimed: allocating the
/// whole machine afterwards succeeds.
#[test]
fn exits_release_all_frames() {
    propcheck::cases(48, |g| {
        let ops = gen_ops(g, 80);
        let (mut kernel, m) = run_ops(KernelPolicy::stock(), &ops);
        for pid in &m.procs {
            kernel.exit(*pid).unwrap();
        }
        // Page-cache pages outlive processes; write back and drop them too.
        kernel.writeback(usize::MAX).unwrap();
        for &fid in &m.files {
            kernel.evict_file_cache(fid, false);
        }
        let n = kernel.available_frames();
        assert_eq!(n, kernel.num_frames(), "all frames reclaimable");
    });
}

/// Double frees are always rejected, never corrupting state.
#[test]
fn double_free_always_rejected() {
    propcheck::cases(48, |g| {
        let size = g.usize_in(1..4096);
        let mut kernel = Kernel::new(MachineConfig::small());
        let pid = kernel.spawn();
        let a = kernel.heap_alloc(pid, size).unwrap();
        kernel.heap_free(pid, a).unwrap();
        assert_eq!(kernel.heap_free(pid, a), Err(SimError::BadFree(a)));
        // And the heap still works.
        assert!(kernel.heap_alloc(pid, size).is_ok());
    });
}

/// Fork + read equality: a child always reads exactly what the parent
/// wrote, before and after either side triggers COW.
#[test]
fn fork_preserves_contents() {
    propcheck::cases(48, |g| {
        let data = g.bytes(1..2000);
        let mut kernel = Kernel::new(MachineConfig::small());
        let parent = kernel.spawn();
        let addr = kernel.heap_alloc(parent, data.len()).unwrap();
        kernel.write_bytes(parent, addr, &data).unwrap();
        let child = kernel.fork(parent).unwrap();
        assert_eq!(&kernel.read_bytes(child, addr, data.len()).unwrap(), &data);
        // Child mutates its view; parent must be unaffected.
        let mutated = vec![0xFFu8; data.len()];
        kernel.write_bytes(child, addr, &mutated).unwrap();
        assert_eq!(&kernel.read_bytes(parent, addr, data.len()).unwrap(), &data);
        assert_eq!(&kernel.read_bytes(child, addr, data.len()).unwrap(), &mutated);
    });
}
