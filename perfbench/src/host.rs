//! The host speed reference.
//!
//! The benchmark runs on a shared host whose speed drifts: on the 2-CPU
//! container it was set up on, the same `sweep` iteration took from 0.45 to
//! 0.85 s over a few minutes, with slow bursts inside a run. A run of 10 to
//! 60 s cannot average that out. A fixed kernel of the benchmark's own,
//! sampled between iterations on as many threads as the workload uses,
//! slows with the host. The batch workloads divide their times by the
//! kernel's mean slowdown over the run, so they read in seconds of a host on
//! which one kernel sample takes [`REFERENCE_S`]. The kernel calls no
//! program code, so a change to the program cannot move it.
//!
//! Each work item of the kernel mixes a 256 KiB binary heap (branchy pops
//! and pushes, as in an event queue) with a dependent pointer chase over an
//! 8 MiB table (a last-level-cache working set). Means, not medians, on both
//! sides, because the slow bursts are short: an iteration takes its share
//! of them while most kernel samples miss them, so the mean kernel time
//! tracks the mean iteration time (log-log slope 0.8–1.1 on `sweep`,
//! `venue` and `ingest`) and the medians do not.

use crate::gen::SplitMix;
use crate::sys::thread_cpu_s;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Mean kernel wall time that reported times are scaled to, s: a fixed
/// unit, a little under the 55–77 ms a sample took on the 2-CPU container.
/// CPU times are scaled to `REFERENCE_S` of kernel CPU per kernel thread.
pub const REFERENCE_S: f64 = 0.040;

/// Entries of the pointer-chase table (`u32`, so 8 MiB).
const CHASE_LEN: usize = 1 << 21;

/// Resident size of the chase table, MB (MiB, as `peak_rss_mb`). It is
/// built before the first timed iteration and stays resident, so it adds
/// exactly this much to the process's peak RSS.
pub const RESIDENT_MB: f64 = (CHASE_LEN * 4) as f64 / (1024.0 * 1024.0);

/// One cycle through every slot (Sattolo's shuffle), fixed seed.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut rng = SplitMix::new(7, 0);
        for i in (1..CHASE_LEN).rev() {
            t.swap(i, rng.below(i as u64) as usize);
        }
        t
    })
}

/// Work items per kernel sample, pulled one at a time by the threads, as
/// the cell pool and the shard runner hand out work: a host that slows one
/// CPU more than the other slows the kernel as it slows those pools.
const CHUNKS: u64 = 16;

/// One work item; the result only keeps the work from being optimised away.
fn chunk(seed: u64) -> u64 {
    let mut rng = SplitMix::new(seed, 1);
    let mut heap = BinaryHeap::with_capacity(1 << 15);
    for _ in 0..(1 << 15) {
        heap.push(rng.next_u64() >> 20);
    }
    let mut acc = 0u64;
    for _ in 0..(1 << 15) {
        let t = heap.pop().unwrap_or(0);
        acc = acc.wrapping_add(t);
        heap.push(t.wrapping_sub(rng.next_u64() >> 40));
    }
    let table = chase_table();
    let mut p = seed as usize % CHASE_LEN;
    for _ in 0..(1 << 15) {
        p = table[p] as usize;
        acc ^= p as u64;
    }
    acc
}

/// Share of a run's time spent in the kernel.
const DUTY: f64 = 0.1;

/// Kernel samples of one run.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    /// Wall time of each sample, s.
    pub wall: Vec<f64>,
    /// CPU time of each sample summed over its threads, s.
    pub cpu: Vec<f64>,
    /// Kernel threads per sample.
    pub threads: usize,
}

impl Reference {
    /// Builds the chase table and runs the kernel once untimed, so the
    /// first sample is as warm as the rest.
    pub fn warm(threads: usize) -> Reference {
        Reference::default().sample(threads);
        Reference::default()
    }

    /// Samples the kernel until it has taken [`DUTY`] of `elapsed_s`, the
    /// run's wall time so far (at least once).
    pub fn keep_up(&mut self, threads: usize, elapsed_s: f64) {
        loop {
            self.sample(threads);
            if self.wall.iter().sum::<f64>() >= DUTY * elapsed_s {
                break;
            }
        }
    }

    /// Runs the kernel on `threads` threads at once and records its wall
    /// and CPU time.
    fn sample(&mut self, threads: usize) {
        let next = AtomicU64::new(0);
        let t = Instant::now();
        let (sum, cpu) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let cpu0 = thread_cpu_s();
                        let mut acc = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= CHUNKS {
                                break;
                            }
                            acc = acc.wrapping_add(chunk(i + 1));
                        }
                        (acc, thread_cpu_s() - cpu0)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference kernel panicked"))
                .fold((0u64, 0.0), |(a, c), (x, y)| (a.wrapping_add(x), c + y))
        });
        std::hint::black_box(sum);
        self.wall.push(t.elapsed().as_secs_f64());
        self.cpu.push(cpu);
        self.threads = threads;
    }

    /// Mean kernel wall time, s.
    pub fn mean_s(&self) -> f64 {
        self.wall.iter().sum::<f64>() / self.wall.len() as f64
    }

    /// The factor that turns a wall time measured in this run into
    /// reference seconds: [`REFERENCE_S`] ÷ the mean kernel wall time.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / self.mean_s()
    }

    /// The same for CPU time: [`REFERENCE_S`] ÷ the mean kernel CPU time
    /// per kernel thread.
    pub fn cpu_scale(&self) -> f64 {
        REFERENCE_S * (self.cpu.len() * self.threads) as f64 / self.cpu.iter().sum::<f64>()
    }
}
