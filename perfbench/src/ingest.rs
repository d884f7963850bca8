//! `ingest`: one capture per CPU of one busy channel through
//! `analyze_capture_streams`. The captures come from the benchmark's own
//! seeded generator, written before the timed phase. Decode, the spsc
//! hand-off, merge/dedup and `SecondAccumulator` do all the work; the
//! simulator does none.

use crate::gen::write_captures;
use crate::sys::{peak_rss_mb, process_cpu_s};
use crate::tracer::Tracer;
use crate::{
    batch_metrics, digest, median_by_key, repeat_for, scale_traced_times, threads, work_dir, Args,
    Report, Timed,
};
use congestion::merge::MergeStream;
use congestion::persec::{SecondAccumulator, SecondStats};
use congestion::{analyze, merge_traces};
use ietf80211_congestion::ingest::analyze_capture_streams;
use ietf80211_congestion::trace::{read_capture_lossy, CaptureStream};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;
use wifi_sim::runner::run_parallel;
use wifi_sim::spsc::{batch_channel, BatchReceiver, TryRecv};

/// Trace time per capture: the generated channel carries about 830
/// frames/s, so two sniffers (5 % and 10 % loss) capture about 920k
/// records, and one iteration takes a few tenths of a second.
const DURATION_US: Micros = 600_000_000;
/// The batch channel shape `analyze_capture_streams` uses (records per
/// batch, batches in flight), mirrored by the traced replica.
const BATCH_LEN: usize = 256;
const CHANNEL_BATCHES: usize = 8;

/// Generated inputs: one capture path per sniffer and the records written.
pub struct Inputs {
    /// Capture files.
    pub paths: Vec<PathBuf>,
    /// Records written per capture.
    pub written: Vec<u64>,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Writes the seed's captures into the work directory.
pub fn inputs(seed: u64) -> Inputs {
    let dir = work_dir();
    let paths: Vec<PathBuf> = (0..threads())
        .map(|k| dir.join(format!("ingest-sniffer{k}.pcap")))
        .collect();
    let written = write_captures(seed, DURATION_US, &paths).expect("cannot write captures");
    Inputs { paths, written }
}

/// Expected `(sources, merged records, seconds digest)` of the oracle for
/// the default seed (1) and the held-out seed (2). The inputs depend on the
/// source count (one per CPU), so other counts check against the oracle
/// alone.
const EXPECTED: &[(u64, (usize, u64, u64))] = &[
    (1, (2, 500_258, 0x6aa8_8f4f_6747_386c)),
    (2, (2, 501_780, 0x9638_ee58_d41f_c388)),
];

/// The oracle over the same bytes, untimed: batch lossy reads,
/// `merge_traces`, `analyze`. Returns `(merged records, seconds digest)`
/// and whether it disagrees with the pinned values for this seed.
pub fn oracle(seed: u64, paths: &[PathBuf]) -> ((u64, u64), bool) {
    let traces: Vec<Vec<FrameRecord>> = paths
        .iter()
        .map(|p| read_capture_lossy(p).expect("oracle read failed").records)
        .collect();
    let views: Vec<&[FrameRecord]> = traces.iter().map(Vec::as_slice).collect();
    let merged = merge_traces(&views);
    let want = (merged.len() as u64, digest(&analyze(&merged)));
    eprintln!(
        "ingest: seed {seed}, {} sources: oracle merged={} seconds_digest={:#x}",
        paths.len(),
        want.0,
        want.1
    );
    let pinned = EXPECTED
        .iter()
        .find(|(s, (n, _, _))| *s == seed && *n == paths.len());
    let differs = pinned.is_some_and(|&(_, (_, m, d))| (m, d) != want);
    if let Some((_, (_, m, d))) = pinned.filter(|_| differs) {
        eprintln!("ingest: oracle differs from pinned ({m}, {d:#x})");
    }
    (want, differs)
}

/// What an iteration's output check compares.
struct Output {
    decoded: u64,
    merged: u64,
    seconds: u64,
    errors: u64,
}

/// Time to open every source and detect its container: the only program
/// state the streaming pipeline builds before decoding.
fn open_sources(paths: &[PathBuf]) -> f64 {
    let t = Instant::now();
    for p in paths {
        std::hint::black_box(CaptureStream::open(p).expect("capture opens"));
    }
    t.elapsed().as_secs_f64()
}

/// Failed records: records written but not decoded, all records of an
/// iteration whose output differs from the oracle, and one per source that
/// ended in error.
fn failures(
    written: u64,
    want: (u64, u64),
    decoded: u64,
    merged: u64,
    seconds: u64,
    errors: u64,
) -> u64 {
    let mismatch = if (merged, seconds) != want {
        written
    } else {
        0
    };
    written.saturating_sub(decoded) + mismatch + errors
}

/// The untraced run: end-to-end metrics.
pub fn untraced(args: &Args) -> Report {
    let inputs = inputs(args.seed);
    let paths = &inputs.paths;
    let (iters, host_ref) = repeat_for(args.seconds, || {
        let setup_s = open_sources(paths);
        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let a = analyze_capture_streams(paths).expect("ingest pipeline runs");
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let out = Output {
            decoded: a.sources.iter().map(|s| s.report.records_total()).sum(),
            merged: a.merged_records,
            seconds: digest(&a.per_second),
            errors: a.sources.iter().filter(|s| s.error.is_some()).count() as u64,
        };
        let timed = Timed {
            setup_s,
            wall_s,
            cpu_s,
            work: out.decoded as f64,
        };
        (timed, out)
    });
    let peak = peak_rss_mb();
    let (want, differs) = oracle(args.seed, paths);
    let written: u64 = inputs.written.iter().sum();
    let failed: u64 = iters
        .iter()
        .map(|(_, o)| failures(written, want, o.decoded, o.merged, o.seconds, o.errors))
        .sum::<u64>()
        + differs as u64;
    let timed: Vec<Timed> = iters.iter().map(|i| i.0).collect();
    eprintln!(
        "ingest: {} sources, {written} records written, {} merged",
        paths.len(),
        want.0
    );
    Report {
        correct: failed == 0,
        attempted: written * iters.len() as u64,
        failed,
        metrics: batch_metrics("ingest", &timed, &host_ref, peak),
    }
}

/// A batch receiver that times how long the merge blocks on it while its
/// channel is empty.
struct TimedReceiver<'a> {
    rx: BatchReceiver<FrameRecord>,
    wait_ns: &'a AtomicU64,
}

impl Iterator for TimedReceiver<'_> {
    type Item = FrameRecord;

    fn next(&mut self) -> Option<FrameRecord> {
        match self.rx.try_next() {
            TryRecv::Item(r) => Some(r),
            TryRecv::Disconnected => None,
            TryRecv::Empty => {
                let t = Instant::now();
                let r = self.rx.next();
                self.wait_ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                r
            }
        }
    }
}

/// Per-source decode result of the replica pipeline.
struct Decoded {
    decode_s: f64,
    producer_wait_s: f64,
}

fn traced_iteration(
    inputs: &Inputs,
    want: (u64, u64),
    tr: &Tracer,
) -> (BTreeMap<&'static str, f64>, u64) {
    let paths = &inputs.paths;
    let written: u64 = inputs.written.iter().sum();
    let mut m = BTreeMap::new();
    // The monolithic driver, timed whole.
    let cpu0 = process_cpu_s();
    let (a, wall_s) = tr.span("ingest.analyze_capture_streams", None, |_| {
        analyze_capture_streams(paths).expect("ingest pipeline runs")
    });
    m.insert("cpu_s", process_cpu_s() - cpu0);
    m.insert("wall_s", wall_s);
    let decoded: u64 = a.sources.iter().map(|s| s.report.records_total()).sum();
    let skipped: u64 = a
        .sources
        .iter()
        .map(|s| {
            s.report.undecodable_radiotap + s.report.undecodable_frames + s.report.blocks_skipped
        })
        .sum();
    let errors = a.sources.iter().filter(|s| s.error.is_some()).count() as u64;
    let failed = failures(
        written,
        want,
        decoded,
        a.merged_records,
        digest(&a.per_second),
        errors,
    );
    m.insert("trace.skipped", skipped as f64);

    // Decode alone: each `CaptureStream` drained on this thread.
    let bytes: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |md| md.len()))
        .sum();
    let (records, decode_s) = tr.span("trace.decode_all", None, |_| {
        paths
            .iter()
            .map(|p| CaptureStream::open(p).expect("capture opens").count() as u64)
            .sum::<u64>()
    });
    m.insert("trace.decode_s", decode_s / paths.len() as f64);
    m.insert("trace.records", records as f64);
    m.insert("trace.bytes", bytes as f64);
    m.insert("trace.decode_mb_per_s", bytes as f64 / 1e6 / decode_s);

    // The pipeline rebuilt from its public pieces: one decoder thread per
    // source into a batch channel, `MergeStream` over the receivers, and
    // the accumulator, with merge and accumulate timed in blocks.
    let ((merge_s, persec_s, consumer_wait, out, seconds, producers), pipe_s) =
        tr.span("ingest.pipeline", None, |root| {
            let wait_ns = AtomicU64::new(0);
            let mut senders = Vec::new();
            let mut receivers = Vec::new();
            for _ in paths {
                let (tx, rx) = batch_channel(CHANNEL_BATCHES, BATCH_LEN);
                senders.push(std::sync::Mutex::new(Some(tx)));
                receivers.push(TimedReceiver {
                    rx,
                    wait_ns: &wait_ns,
                });
            }
            let items: Vec<_> = paths.iter().zip(&senders).collect();
            std::thread::scope(|scope| {
                let decoders = scope.spawn(|| {
                    run_parallel(&items, items.len(), |(path, slot)| {
                        let mut tx = slot
                            .lock()
                            .expect("sender slot")
                            .take()
                            .expect("one worker per source");
                        let (producer_wait_s, decode_s) =
                            tr.span("ingest.decoder", Some(root), |_| {
                                let mut wait = 0.0;
                                for (i, r) in CaptureStream::open(path)
                                    .expect("capture opens")
                                    .enumerate()
                                {
                                    // Only the push that completes a batch can block.
                                    if i % BATCH_LEN == BATCH_LEN - 1 {
                                        let t = Instant::now();
                                        tx.push(r).expect("merge outlives decoders");
                                        wait += t.elapsed().as_secs_f64();
                                    } else {
                                        tx.push(r).expect("merge outlives decoders");
                                    }
                                }
                                tx.flush().expect("merge outlives decoders");
                                wait
                            });
                        Decoded {
                            decode_s,
                            producer_wait_s,
                        }
                    })
                });
                let mut merge = MergeStream::new(receivers);
                let mut acc = SecondAccumulator::new();
                let (mut merge_s, mut persec_s, mut out) = (0.0, 0.0, 0u64);
                let mut block: Vec<FrameRecord> = Vec::with_capacity(4096);
                loop {
                    block.clear();
                    merge_s += tr
                        .span("core.merge", Some(root), |_| {
                            block.extend(merge.by_ref().take(4096))
                        })
                        .1;
                    if block.is_empty() {
                        break;
                    }
                    out += block.len() as u64;
                    persec_s += tr
                        .span("core.persec", Some(root), |_| {
                            for r in block.drain(..) {
                                acc.push(r);
                            }
                        })
                        .1;
                }
                let seconds: Vec<SecondStats> = acc.finish();
                let producers = decoders.join().expect("decoder pool panicked");
                let consumer_wait = wait_ns.load(Ordering::Relaxed) as f64 / 1e9;
                (merge_s, persec_s, consumer_wait, out, seconds, producers)
            })
        });
    m.insert("spsc.consumer_wait_s", consumer_wait);
    m.insert("core.merge_s", merge_s);
    m.insert("core.merge.records_in", decoded as f64);
    m.insert("core.merge.records_out", out as f64);
    m.insert("core.merge.dedup_frac", 1.0 - out as f64 / decoded as f64);
    m.insert("core.persec_s", persec_s);
    m.insert("core.persec.records", out as f64);
    m.insert("core.persec.seconds", seconds.len() as f64);
    m.insert("core.persec.ns_per_record", persec_s / out as f64 * 1e9);
    let decode_max = producers.iter().map(|d| d.decode_s).fold(0.0, f64::max);
    m.insert(
        "spsc.producer_wait_s",
        producers.iter().map(|d| d.producer_wait_s).sum(),
    );
    m.insert(
        "ingest.critical_frac",
        decode_max.max(merge_s - consumer_wait + persec_s) / pipe_s,
    );
    (m, failed)
}

/// The traced run: per-layer metrics from spans around each public call.
pub fn traced(args: &Args, tr: &Tracer) -> Report {
    let inputs = inputs(args.seed);
    let (want, differs) = oracle(args.seed, &inputs.paths);
    let (iters, host_ref) = repeat_for(args.seconds, || traced_iteration(&inputs, want, tr));
    let failed: u64 = iters.iter().map(|i| i.1).sum::<u64>() + differs as u64;
    let maps: Vec<_> = iters.into_iter().map(|i| i.0).collect();
    let mut metrics = median_by_key(&maps);
    scale_traced_times(&mut metrics, &maps, &host_ref);
    let attempted = inputs.written.iter().sum::<u64>() * maps.len() as u64;
    metrics.insert("error_rate", failed as f64 / attempted as f64);
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}
