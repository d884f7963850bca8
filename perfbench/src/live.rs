//! `live`: the capture generator appends to one growing file per CPU on an
//! open-loop schedule while in-process `run_serve` tails them; the benchmark
//! polls the status socket (one connection at a time — the protocol is one
//! request per connection) and times how fresh the published seconds are.
//!
//! Trace time plays at [`SPEED`]× real time, so one run closes enough
//! seconds for a tail percentile; the resulting append rate (a few thousand
//! records/s per file) is far below what `ingest` sustains. A run holds
//! [`SESSIONS`] sessions, each with fresh files and a fresh service, so
//! set-up and drain are measured several times.

use crate::gen::write_captures;
use crate::stats::{median, slope, tail_percentile};
use crate::sys::{peak_rss_mb, process_cpu_s, rss_kb, thread_cpu_s};
use crate::tracer::Tracer;
use crate::{digest, threads, work_dir, Args, Report};
use ietf80211_congestion::ingest::analyze_capture_streams;
use ietf80211_congestion::serve::{run_serve, ServeConfig};
use ietf80211_congestion::trace::CaptureStream;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Trace seconds played per wall second.
pub const SPEED: f64 = 8.0;
/// Sessions per run.
pub const SESSIONS: usize = 10;
/// Wall time per session spent outside the generator (set-up, drain,
/// oracle), budgeted when sizing the sessions to `--seconds`.
const SESSION_OVERHEAD_S: f64 = 0.6;
/// Interval between `seconds` polls.
const POLL: Duration = Duration::from_millis(5);
/// Timed repetitions of the set-up replica per session.
const SETUP_REPEATS: usize = 200;

/// A source of time for the replay loop, so tests can substitute a fake.
pub trait Clock {
    /// Seconds since the schedule's start.
    fn now(&mut self) -> f64;
    /// Blocks until `now() >= t` (a real clock may overshoot).
    fn sleep_until(&mut self, t: f64);
}

/// The real clock.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        let dt = t - self.now();
        if dt > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(dt));
        }
    }
}

/// Due time of every record, seconds after the schedule starts: its trace
/// offset from the earliest record of any source, played at `speed`.
pub fn due_times(ts_us: &[Vec<u64>], speed: f64) -> Vec<Vec<f64>> {
    let t0 = ts_us
        .iter()
        .filter_map(|v| v.first())
        .min()
        .copied()
        .unwrap_or(0);
    ts_us
        .iter()
        .map(|v| v.iter().map(|&t| (t - t0) as f64 / 1e6 / speed).collect())
        .collect()
}

/// Appends every record once it is due, open loop: the schedule never waits
/// for the consumer. `append(source, records)` receives each source's due
/// records in order. Returns each record's lateness (seconds from due to
/// the moment it was handed to `append`), in append order.
pub fn replay(
    clock: &mut impl Clock,
    due: &[Vec<f64>],
    mut append: impl FnMut(usize, Range<usize>),
) -> Vec<f64> {
    let mut next = vec![0usize; due.len()];
    let mut late = Vec::with_capacity(due.iter().map(Vec::len).sum());
    loop {
        let now = clock.now();
        for (k, d) in due.iter().enumerate() {
            let start = next[k];
            let end = start + d[start..].iter().take_while(|&&t| t <= now).count();
            if end > start {
                late.extend(d[start..end].iter().map(|t| now - t));
                append(k, start..end);
                next[k] = end;
            }
        }
        let upcoming = due
            .iter()
            .zip(&next)
            .filter_map(|(d, &i)| d.get(i))
            .copied()
            .fold(f64::INFINITY, f64::min);
        if upcoming.is_infinite() {
            return late;
        }
        clock.sleep_until(upcoming);
    }
}

/// When each trace second closes: the due time of the earliest record of
/// the next second, over all sources.
pub fn close_due(ts_us: &[Vec<u64>], due: &[Vec<f64>]) -> BTreeMap<u64, f64> {
    let mut first_of: BTreeMap<u64, f64> = BTreeMap::new();
    for (ts, d) in ts_us.iter().zip(due) {
        for (&t, &at) in ts.iter().zip(d) {
            let e = first_of.entry(t / 1_000_000).or_insert(at);
            *e = e.min(at);
        }
    }
    first_of
        .iter()
        .filter_map(|(&s, &at)| s.checked_sub(1).map(|prev| (prev, at)))
        .collect()
}

/// Freshness samples, ms: for every second that a reply listed, the time
/// from its closing record's due time to the first reply that listed it.
pub fn freshness_ms(close: &BTreeMap<u64, f64>, seen: &BTreeMap<u64, f64>) -> Vec<f64> {
    seen.iter()
        .filter_map(|(s, &at)| close.get(s).map(|c| (at - c) * 1e3))
        .collect()
}

/// A classic pcap image split into its global header and records.
pub struct Capture {
    /// The whole file.
    pub bytes: Vec<u8>,
    /// Global header length.
    pub header: usize,
    /// Byte range of every record (header included).
    pub records: Vec<Range<usize>>,
    /// Timestamp of every record, µs.
    pub ts_us: Vec<u64>,
}

/// Splits a classic pcap image (either byte order, µs timestamps).
pub fn split_pcap(bytes: Vec<u8>) -> Capture {
    let le = bytes.get(..4) == Some(&[0xd4, 0xc3, 0xb2, 0xa1][..]);
    let u32_at = |b: &[u8], at: usize| {
        let w = [b[at], b[at + 1], b[at + 2], b[at + 3]];
        if le {
            u32::from_le_bytes(w)
        } else {
            u32::from_be_bytes(w)
        }
    };
    let mut records = Vec::new();
    let mut ts_us = Vec::new();
    let mut at = 24;
    while at + 16 <= bytes.len() {
        let incl = u32_at(&bytes, at + 8) as usize;
        let end = at + 16 + incl;
        if end > bytes.len() {
            break;
        }
        ts_us.push(u32_at(&bytes, at) as u64 * 1_000_000 + u32_at(&bytes, at + 4) as u64);
        records.push(at..end);
        at = end;
    }
    Capture {
        bytes,
        header: 24,
        records,
        ts_us,
    }
}

/// One request over a fresh connection; `None` if the service is not
/// listening (not yet, or no longer).
pub fn request(sock: &Path, cmd: &str) -> Option<String> {
    let mut s = UnixStream::connect(sock).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    s.write_all(format!("{cmd}\n").as_bytes()).ok()?;
    let mut out = String::new();
    s.read_to_string(&mut out).ok()?;
    Some(out)
}

/// Every unsigned number following `"key":` in a JSON reply.
pub fn numbers(reply: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    reply
        .match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &reply[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// Serve's per-source set-up, timed apart from the service: every source
/// opened as `run_serve` opens it, the file handed unbuffered to
/// `CaptureStream::from_reader` (container detection and header check),
/// while the files hold only their headers. Median of [`SETUP_REPEATS`]
/// repetitions. The service's own "every source live" moment is not used:
/// the status that reports it is refreshed only every 200 ms, which hides
/// any set-up change below that.
fn open_sources(paths: &[PathBuf]) -> f64 {
    let once = || {
        let t = Instant::now();
        for p in paths {
            let file = std::fs::File::open(p).expect("live capture opens");
            std::hint::black_box(
                CaptureStream::from_reader(file).expect("capture header is valid"),
            );
        }
        t.elapsed().as_secs_f64()
    };
    median(&(0..SETUP_REPEATS).map(|_| once()).collect::<Vec<f64>>())
}

/// Status samples a traced session takes.
#[derive(Default)]
struct StatusSamples {
    round_trip_ms: Vec<f64>,
    lag_us: u64,
    queue_depth: u64,
    late_dropped: u64,
    clamped: u64,
    rss_t: Vec<f64>,
    rss_kb: Vec<f64>,
}

/// Everything one session measured.
struct Session {
    setup_s: f64,
    until_live_s: f64,
    drain_s: f64,
    cpu_s: f64,
    frames_per_s: f64,
    fresh_ms: Vec<f64>,
    late_ms: Vec<f64>,
    appended: u64,
    appended_bytes: u64,
    decoded: u64,
    merged: u64,
    seconds: usize,
    skipped: u64,
    failed: u64,
    status: StatusSamples,
}

fn session(seed: u64, trace_us: u64, tr: Option<&Tracer>) -> Session {
    let dir = work_dir();
    let n = threads();
    let gen_paths: Vec<PathBuf> = (0..n)
        .map(|k| dir.join(format!("live-gen{k}.pcap")))
        .collect();
    write_captures(seed, trace_us, &gen_paths).expect("cannot write captures");
    let caps: Vec<Capture> = gen_paths
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p).expect("generated capture readable");
            let _ = std::fs::remove_file(p);
            split_pcap(bytes)
        })
        .collect();
    let ts: Vec<Vec<u64>> = caps.iter().map(|c| c.ts_us.clone()).collect();
    let due = due_times(&ts, SPEED);
    let close = close_due(&ts, &due);
    let paths: Vec<PathBuf> = (0..n).map(|k| dir.join(format!("live{k}.pcap"))).collect();
    for (p, c) in paths.iter().zip(&caps) {
        std::fs::write(p, &c.bytes[..c.header]).expect("cannot create live capture");
    }
    let setup_s = open_sources(&paths);
    let sock = dir.join("live.sock");
    let cfg = ServeConfig {
        socket: Some(sock.clone()),
        heartbeat_s: 0,
        ..ServeConfig::new(paths.clone())
    };

    let main_cpu0 = thread_cpu_s();
    let cpu0 = process_cpu_s();
    let t_spawn = Instant::now();
    let mut status = StatusSamples::default();
    let mut seen: BTreeMap<u64, f64> = BTreeMap::new();
    let (analysis, until_live_s, gen_start, t_last, late, gen_cpu, t_ret) =
        std::thread::scope(|scope| {
            let serve = scope.spawn(|| run_serve(&cfg));
            // Appends start once every source reports `live`.
            loop {
                let live =
                    request(&sock, "status").map_or(0, |r| r.matches("\"state\":\"live\"").count());
                if live == n {
                    break;
                }
                assert!(
                    t_spawn.elapsed() < Duration::from_secs(30) && !serve.is_finished(),
                    "serve did not bring its sources live"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let until_live_s = t_spawn.elapsed().as_secs_f64();
            let gen_start = Instant::now();
            let (paths, due, caps) = (&paths, &due, &caps);
            let generator = scope.spawn(move || {
                let cpu0 = thread_cpu_s();
                let mut files: Vec<std::fs::File> = paths
                    .iter()
                    .map(|p| {
                        std::fs::OpenOptions::new()
                            .append(true)
                            .open(p)
                            .expect("live capture opens for append")
                    })
                    .collect();
                let late = replay(&mut WallClock(gen_start), due, |k, range| {
                    let c = &caps[k];
                    let bytes = c.records[range.start].start..c.records[range.end - 1].end;
                    files[k]
                        .write_all(&c.bytes[bytes])
                        .expect("append to live capture");
                });
                (late, thread_cpu_s() - cpu0, Instant::now())
            });
            let mut polls = 0u64;
            let mut poll = |status: &mut StatusSamples, seen: &mut BTreeMap<u64, f64>| -> bool {
                let Some(reply) = request(&sock, "seconds") else {
                    return false;
                };
                let at = gen_start.elapsed().as_secs_f64();
                for s in numbers(&reply, "second") {
                    seen.entry(s).or_insert(at);
                }
                polls += 1;
                if tr.is_some() && polls.is_multiple_of(2) {
                    let t = Instant::now();
                    if let Some(st) = request(&sock, "status") {
                        status.round_trip_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        let max = |k| numbers(&st, k).into_iter().max().unwrap_or(0);
                        let sum = |k| numbers(&st, k).into_iter().sum::<u64>();
                        status.lag_us = status.lag_us.max(max("lag_us"));
                        status.queue_depth = status.queue_depth.max(max("queued_batches"));
                        status.late_dropped = sum("late_dropped");
                        status.clamped = sum("clamped");
                        status.rss_t.push(gen_start.elapsed().as_secs_f64());
                        status.rss_kb.push(rss_kb());
                    }
                }
                true
            };
            while !generator.is_finished() {
                poll(&mut status, &mut seen);
                std::thread::sleep(POLL);
            }
            let (late, gen_cpu, t_last) = generator.join().expect("generator panicked");
            while request(&sock, "shutdown").is_none() && !serve.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            while !serve.is_finished() && poll(&mut status, &mut seen) {
                std::thread::sleep(POLL);
            }
            let analysis = serve.join().expect("serve panicked").expect("serve ran");
            let t_ret = Instant::now();
            (
                analysis,
                until_live_s,
                gen_start,
                t_last,
                late,
                gen_cpu,
                t_ret,
            )
        });
    let main_cpu = thread_cpu_s() - main_cpu0;
    let cpu_s = process_cpu_s() - cpu0 - gen_cpu - main_cpu;

    let oracle = analyze_capture_streams(&paths).expect("oracle ingest runs");
    let appended: u64 = caps.iter().map(|c| c.records.len() as u64).sum();
    let appended_bytes: u64 = caps.iter().map(|c| (c.bytes.len() - c.header) as u64).sum();
    let decoded: u64 = analysis
        .sources
        .iter()
        .map(|s| s.report.records_total())
        .sum();
    let errors = analysis
        .sources
        .iter()
        .filter(|s| s.error.is_some())
        .count() as u64;
    let same = digest(&analysis.per_second) == digest(&oracle.per_second);
    if !same {
        eprintln!(
            "live: serve's per-second output differs from the batch analysis of the final bytes"
        );
    }
    let failed = appended.saturating_sub(decoded)
        + oracle.merged_records.abs_diff(analysis.merged_records)
        + errors
        + if same { 0 } else { appended };
    for p in &paths {
        let _ = std::fs::remove_file(p);
    }
    let elapsed = t_ret.duration_since(gen_start).as_secs_f64();
    if let Some(tr) = tr {
        let us = |t: Instant| t.duration_since(t_spawn).as_secs_f64() * 1e6;
        let base = tr.now_us() - us(Instant::now());
        let root = tr.next_id();
        for (name, a, b) in [
            ("serve.setup", t_spawn, gen_start),
            ("live.generate", gen_start, t_last),
            ("serve.drain", t_last, t_ret),
        ] {
            tr.record(crate::tracer::Span {
                id: tr.next_id(),
                parent: Some(root),
                name,
                start_us: base + us(a),
                end_us: base + us(b),
                thread: 0,
            });
        }
        tr.record(crate::tracer::Span {
            id: root,
            parent: None,
            name: "live.session",
            start_us: base,
            end_us: base + us(t_ret),
            thread: 0,
        });
    }
    Session {
        setup_s,
        until_live_s,
        drain_s: t_ret.duration_since(t_last).as_secs_f64(),
        cpu_s,
        frames_per_s: analysis.merged_records as f64 / elapsed,
        fresh_ms: freshness_ms(&close, &seen),
        late_ms: late.iter().map(|l| l * 1e3).collect(),
        appended,
        appended_bytes,
        decoded,
        merged: analysis.merged_records,
        seconds: analysis.per_second.len(),
        skipped: analysis
            .sources
            .iter()
            .map(|s| {
                s.report.undecodable_radiotap
                    + s.report.undecodable_frames
                    + s.report.blocks_skipped
            })
            .sum(),
        failed,
        status,
    }
}

fn sessions(args: &Args, tr: Option<&Tracer>) -> Vec<Session> {
    let gen_s = (args.seconds / SESSIONS as f64 - SESSION_OVERHEAD_S).max(0.5);
    let trace_us = (gen_s * SPEED * 1e6) as u64;
    (0..SESSIONS as u64)
        .map(|i| session(args.seed.wrapping_mul(1_000).wrapping_add(i), trace_us, tr))
        .collect()
}

/// The tail value, or the median when the sample is too small for a tail
/// above it.
fn tail_or_median(v: &[f64]) -> f64 {
    let m = median(v);
    tail_percentile(v).map_or(m, |(_, x)| x.max(m))
}

fn report(runs: &[Session], metrics: BTreeMap<&'static str, f64>) -> Report {
    let attempted: u64 = runs.iter().map(|s| s.appended).sum();
    let failed: u64 = runs.iter().map(|s| s.failed).sum();
    let fresh: Vec<f64> = runs
        .iter()
        .flat_map(|s| s.fresh_ms.iter().copied())
        .collect();
    let late: Vec<f64> = runs
        .iter()
        .flat_map(|s| s.late_ms.iter().copied())
        .collect();
    let until_live: Vec<f64> = runs.iter().map(|s| s.until_live_s).collect();
    eprintln!(
        "live: {} sessions, {} freshness samples (p{:.0} tail), {attempted} records appended; generator lateness p50 {:.3} ms, tail {:.3} ms, max {:.3} ms; serve start to every source live (status refreshed every 200 ms): median {:.3} s",
        runs.len(),
        fresh.len(),
        tail_percentile(&fresh).map_or(50.0, |(p, _)| p),
        median(&late),
        tail_or_median(&late),
        late.iter().copied().fold(0.0, f64::max),
        median(&until_live),
    );
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn end_to_end(runs: &[Session]) -> BTreeMap<&'static str, f64> {
    let col = |f: fn(&Session) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let fresh: Vec<f64> = runs
        .iter()
        .flat_map(|s| s.fresh_ms.iter().copied())
        .collect();
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&col(|s| s.setup_s)));
    m.insert("frames_per_s", median(&col(|s| s.frames_per_s)));
    m.insert("wall_s", median(&col(|s| s.drain_s)));
    m.insert("cpu_s", median(&col(|s| s.cpu_s)));
    m.insert("fresh_p50_ms", median(&fresh));
    m.insert("fresh_p99_ms", tail_or_median(&fresh));
    m
}

/// The untraced run: end-to-end metrics.
pub fn untraced(args: &Args) -> Report {
    let runs = sessions(args, None);
    let mut m = end_to_end(&runs);
    m.insert("peak_rss_mb", peak_rss_mb());
    report(&runs, m)
}

/// The traced run: serve's status samples plus the counts of the final
/// analysis, per session.
pub fn traced(args: &Args, tr: &Tracer) -> Report {
    let runs = sessions(args, Some(tr));
    let mut m = end_to_end(&runs);
    let col = |f: fn(&Session) -> f64| median(&runs.iter().map(f).collect::<Vec<f64>>());
    let rtt: Vec<f64> = runs
        .iter()
        .flat_map(|s| s.status.round_trip_ms.iter().copied())
        .collect();
    let late: Vec<f64> = runs
        .iter()
        .flat_map(|s| s.late_ms.iter().copied())
        .collect();
    m.insert("serve.lag_us", col(|s| s.status.lag_us as f64));
    m.insert("serve.queue_depth", col(|s| s.status.queue_depth as f64));
    m.insert("serve.status_p50_ms", median(&rtt));
    m.insert("serve.status_p99_ms", tail_or_median(&rtt));
    m.insert("serve.late_dropped", col(|s| s.status.late_dropped as f64));
    m.insert("serve.clamped", col(|s| s.status.clamped as f64));
    m.insert(
        "serve.rss_slope_kb_per_s",
        col(|s| slope(&s.status.rss_t, &s.status.rss_kb)),
    );
    m.insert("live.gen_late_p99_ms", tail_or_median(&late));
    m.insert("trace.records", col(|s| s.decoded as f64));
    m.insert("trace.bytes", col(|s| s.appended_bytes as f64));
    m.insert("trace.skipped", col(|s| s.skipped as f64));
    m.insert("core.merge.records_in", col(|s| s.decoded as f64));
    m.insert("core.merge.records_out", col(|s| s.merged as f64));
    m.insert(
        "core.merge.dedup_frac",
        col(|s| 1.0 - s.merged as f64 / s.decoded as f64),
    );
    m.insert("core.persec.records", col(|s| s.merged as f64));
    m.insert("core.persec.seconds", col(|s| s.seconds as f64));
    // The overhead pair compares the session as a whole.
    m.insert("wall_s", col(|s| s.drain_s));
    let mut r = report(&runs, m);
    r.metrics
        .insert("error_rate", r.failed as f64 / r.attempted.max(1) as f64);
    r
}
