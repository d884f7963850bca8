//! `wifi-congestion serve` — a resident multi-sniffer ingestion service,
//! and the one ingest engine of the crate.
//!
//! Tails N live (growing, possibly rotating) pcap/pcapng capture files,
//! decodes each on its own thread, merges the streams online with the same
//! dedup window as [`congestion::merge_traces`], and classifies channel
//! congestion per second as the data arrives — all in O(merge window)
//! memory. Operational state is exposed as JSON over a unix socket and as a
//! periodic stderr heartbeat.
//!
//! `wifi-congestion analyze` runs the same engine
//! ([`crate::ingest::analyze_capture_streams`]) with the stop flag raised
//! before any source starts. A stopped source's EOF is final, so each file
//! is read once to its end and never polled for growth: analyze is serve
//! over sources that end at EOF.
//!
//! ## Threading
//!
//! ```text
//!   tail+decode #0 ──batch channel──┐
//!   tail+decode #1 ──batch channel──┼──▶ merge loop ──▶ SecondAccumulator
//!   tail+decode #k ──batch channel──┘        │
//!                                            ├──▶ status JSON (Mutex)
//!   unix-socket listener ◀────────reads──────┘
//! ```
//!
//! Each source runs `TailSource` (poll-based follow with rotation
//! detection) under a [`CaptureStream`]; [`CapturePoll::Pending`] flushes
//! the partial batch and sleeps one poll interval, so records reach the
//! merge with at most one poll interval of added latency. The merge loop
//! drains the channels into an [`OnlineMerge`] and feeds emitted records to
//! the per-second accumulator. When the merge needs a record from a source
//! whose channel is empty, the loop waits on that channel, bounded by the
//! poll interval, and wakes as soon as the source ships a batch; it sleeps
//! only when every open source is deferred and there is nothing to wait on.
//!
//! ## Degradation, not death
//!
//! A source that stalls, rotates, or turns to garbage degrades only itself:
//!
//! * byte-level damage is resynchronized and skip-counted exactly as in
//!   batch ingestion (the decode decisions on a growing file are *monotone*:
//!   the service's final output is byte-identical to a batch run over the
//!   final bytes);
//! * a stalled source holds the merge back by at most the skew horizon,
//!   after which the merge advances without it (it shows as `lagging` in the
//!   status; records it delivers late are dropped and counted);
//! * a hard failure (unreadable file, wrong link type, decoder panic) marks
//!   that source `failed` with its error in the status, and the remaining
//!   sources keep the service running.

use crate::ingest::{
    panic_if_injected, panic_message, SourceOutcome, StreamAnalysis, BATCH_LEN, CHANNEL_BATCHES,
};
use crate::trace::{CaptureError, CapturePoll, CaptureStream};
use congestion::merge::{MergePoll, OnlineMerge};
use congestion::persec::{SecondAccumulator, SecondStats};
use congestion::{CongestionClassifier, CongestionLevel, UtilizationBins};
use std::io::{Read, Write};
use std::os::unix::fs::MetadataExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wifi_frames::record::FrameRecord;
use wifi_pcap::IngestReport;
use wifi_sim::spsc::{batch_channel, BatchSender, TryRecv};

/// How often the merge loop refreshes the published status JSON.
const STATUS_INTERVAL: Duration = Duration::from_millis(200);

/// Configuration for [`run_serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capture files to tail, one decode thread each.
    pub paths: Vec<PathBuf>,
    /// Unix socket path for the status endpoint; `None` disables it.
    pub socket: Option<PathBuf>,
    /// Poll interval for source growth, and the bound on each merge wait,
    /// milliseconds.
    pub poll_ms: u64,
    /// Skew horizon in trace µs: the merge advances past a source whose
    /// newest record is this far behind the merge candidate. `None` never
    /// skips (a stalled source then holds the merge until it ends).
    pub skew_horizon_us: Option<u64>,
    /// Wall-clock stall timeout: a source that delivers nothing for this
    /// long while the merge waits on it is deferred (the merge advances
    /// without it; it rejoins on its next record, older-than-watermark
    /// records dropped and counted). `None` never defers — the merge then
    /// waits on a stalled source until it ends.
    pub stall_timeout_ms: Option<u64>,
    /// Seconds between stderr heartbeat lines; 0 disables the heartbeat.
    pub heartbeat_s: u64,
    /// Stop (as if `shutdown` had been received) after this many wall-clock
    /// seconds. `None` runs until told to stop.
    pub max_duration_s: Option<u64>,
}

impl ServeConfig {
    /// Defaults: 50 ms poll, 2 s skew horizon, 1 s stall timeout, 10 s
    /// heartbeat, no socket, no deadline.
    pub fn new(paths: Vec<PathBuf>) -> ServeConfig {
        ServeConfig {
            paths,
            socket: None,
            poll_ms: 50,
            skew_horizon_us: Some(2_000_000),
            stall_timeout_ms: Some(1_000),
            heartbeat_s: 10,
            max_duration_s: None,
        }
    }
}

/// Lifecycle of one tailed source, as published in the status JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum SourceState {
    /// Waiting for the file to appear / produce a capture header.
    Starting = 0,
    /// Decoding; file is being followed.
    Live = 1,
    /// Reached end-of-stream after a stop request.
    Done = 2,
    /// Hard error or panic; see the source's `error` field.
    Failed = 3,
}

impl SourceState {
    fn from_u8(v: u8) -> SourceState {
        match v {
            0 => SourceState::Starting,
            1 => SourceState::Live,
            2 => SourceState::Done,
            _ => SourceState::Failed,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SourceState::Starting => "starting",
            SourceState::Live => "live",
            SourceState::Done => "done",
            SourceState::Failed => "failed",
        }
    }
}

/// Shared per-source telemetry, written by the decode thread and its
/// [`TailSource`], read by the merge loop when rendering status.
struct SourceShared {
    path: PathBuf,
    state: AtomicU8,
    rotations: AtomicU64,
    report: Mutex<IngestReport>,
    error: Mutex<Option<String>>,
}

impl SourceShared {
    fn new(path: &Path) -> SourceShared {
        SourceShared {
            path: path.to_path_buf(),
            state: AtomicU8::new(SourceState::Starting as u8),
            rotations: AtomicU64::new(0),
            report: Mutex::new(IngestReport::default()),
            error: Mutex::new(None),
        }
    }

    fn set_state(&self, s: SourceState) {
        self.state.store(s as u8, Ordering::Release);
    }

    fn state(&self) -> SourceState {
        SourceState::from_u8(self.state.load(Ordering::Acquire))
    }

    fn publish_report(&self, report: IngestReport) {
        *self.report.lock().unwrap_or_else(|p| p.into_inner()) = report;
    }
}

/// Everything the service threads share.
struct Shared {
    /// Graceful-stop request: sources drain to their current EOF and end.
    stop: AtomicBool,
    /// Set by the merge loop once everything has drained; tells the socket
    /// listener to exit.
    done: AtomicBool,
    sources: Vec<SourceShared>,
    /// Last rendered status JSON (the socket replies with this verbatim).
    status_json: Mutex<String>,
    /// Seconds whose statistics can no longer change (every folded second
    /// except the newest), appended as the merge watermark passes them.
    final_seconds: Mutex<Vec<SecondStats>>,
}

impl Shared {
    /// State for one run over `paths`. A run that does not follow its
    /// sources starts with the stop flag already raised.
    fn new(paths: &[PathBuf], follow: bool) -> Shared {
        Shared {
            stop: AtomicBool::new(!follow),
            done: AtomicBool::new(false),
            sources: paths.iter().map(|p| SourceShared::new(p)).collect(),
            status_json: Mutex::new("{}".to_string()),
            final_seconds: Mutex::new(Vec::new()),
        }
    }
}

/// A poll-based `Read` over a live capture file.
///
/// Reads return `WouldBlock` (never `Ok(0)`) while the file has no new
/// bytes, so the lossy decoders treat the source as pending rather than
/// ended. At EOF the path is re-checked: a changed inode or a size below
/// the consumed offset means the file was rotated, and the tail reopens
/// from the start of the replacement. Only after a stop request does EOF
/// become a real end-of-stream, and a file that still cannot be opened
/// then fails with its open error.
struct TailSource {
    shared: Arc<Shared>,
    idx: usize,
    file: Option<std::fs::File>,
    ino: u64,
    /// Bytes consumed from the currently open file.
    offset: u64,
}

impl TailSource {
    fn new(shared: Arc<Shared>, idx: usize) -> TailSource {
        TailSource {
            shared,
            idx,
            file: None,
            ino: 0,
            offset: 0,
        }
    }

    fn path(&self) -> &Path {
        &self.shared.sources[self.idx].path
    }

    fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    fn open_current(&mut self) -> std::io::Result<()> {
        let file = std::fs::File::open(self.path())?;
        self.ino = file.metadata()?.ino();
        self.offset = 0;
        self.file = Some(file);
        Ok(())
    }

    /// At EOF of the open file: has the path been replaced or truncated?
    fn rotated(&self) -> bool {
        match std::fs::metadata(self.path()) {
            Ok(meta) => meta.ino() != self.ino || meta.len() < self.offset,
            // Mid-rotation the path may briefly not exist; treat as not yet
            // rotated and let the next poll decide.
            Err(_) => false,
        }
    }

    fn would_block() -> std::io::Error {
        std::io::ErrorKind::WouldBlock.into()
    }
}

impl Read for TailSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.file.is_none() {
            if let Err(e) = self.open_current() {
                // Not there yet: pending until it appears; once stopping,
                // the open error is final.
                return Err(if self.stopping() {
                    e
                } else {
                    Self::would_block()
                });
            }
        }
        let n = self.file.as_mut().expect("opened above").read(buf)?;
        if n > 0 {
            self.offset += n as u64;
            return Ok(n);
        }
        // EOF of the open file. The old descriptor stays readable through a
        // rotation, so everything written before the swap has been consumed
        // by the time we get here — switching now loses nothing.
        if self.rotated() && self.open_current().is_ok() {
            self.shared.sources[self.idx]
                .rotations
                .fetch_add(1, Ordering::Relaxed);
            let n = self.file.as_mut().expect("reopened above").read(buf)?;
            self.offset += n as u64;
            if n > 0 {
                return Ok(n);
            }
        }
        if self.stopping() {
            Ok(0)
        } else {
            Err(Self::would_block())
        }
    }
}

/// Tails and decodes one source into `tx` until end-of-stream (which, for a
/// healthy source, only a stop request produces). Panics and hard errors
/// degrade into the returned outcome; siblings never notice.
fn serve_source(
    shared: &Arc<Shared>,
    idx: usize,
    mut tx: BatchSender<FrameRecord>,
    poll: Duration,
) -> SourceOutcome {
    let src = &shared.sources[idx];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        panic_if_injected(&src.path);
        let tail = TailSource::new(Arc::clone(shared), idx);
        // Blocks (politely, via the WouldBlock retry in the header peek)
        // until the file yields a capture header or stop turns EOF real.
        let mut stream = match CaptureStream::from_reader(tail) {
            Ok(s) => s,
            Err(e) => {
                return SourceOutcome {
                    report: IngestReport::default(),
                    error: Some(e),
                }
            }
        };
        src.set_state(SourceState::Live);
        let mut delivered = stream.report();
        loop {
            match stream.poll_next() {
                CapturePoll::Record(r) => {
                    if tx.push(r).is_err() {
                        return SourceOutcome {
                            report: delivered,
                            error: None,
                        };
                    }
                    if tx.is_empty() {
                        delivered = stream.report();
                        src.publish_report(delivered);
                    }
                }
                CapturePoll::Pending => {
                    // Ship the partial batch so the merge sees everything
                    // decoded so far, then wait for the file to grow.
                    if tx.flush().is_err() {
                        return SourceOutcome {
                            report: delivered,
                            error: None,
                        };
                    }
                    delivered = stream.report();
                    src.publish_report(delivered);
                    std::thread::sleep(poll);
                }
                CapturePoll::End => break,
            }
        }
        let (report, error) = stream.into_outcome();
        match tx.flush() {
            Ok(()) => SourceOutcome { report, error },
            Err(_) => SourceOutcome {
                report: delivered,
                error,
            },
        }
    }));
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(payload) => SourceOutcome {
            report: IngestReport::default(),
            error: Some(CaptureError::Panicked(panic_message(payload))),
        },
    };
    src.publish_report(outcome.report);
    match &outcome.error {
        Some(e) => {
            *src.error.lock().unwrap_or_else(|p| p.into_inner()) = Some(e.to_string());
            src.set_state(SourceState::Failed);
        }
        None => src.set_state(SourceState::Done),
    }
    outcome
}

/// Hands one non-blocking receive from source `idx` to the merge; false
/// when the channel was empty.
fn feed(core: &mut OnlineMerge, idx: usize, got: TryRecv<FrameRecord>) -> bool {
    match got {
        TryRecv::Item(r) => core.offer(idx, r),
        TryRecv::Empty => return false,
        TryRecv::Disconnected => core.end(idx),
    }
    true
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the small status document the socket serves for `status`.
#[allow(clippy::too_many_arguments)]
fn render_status(
    shared: &Shared,
    core: &OnlineMerge,
    queue_depths: &[usize],
    merged: u64,
    analyzed_seconds: usize,
    last_second: Option<(&SecondStats, CongestionLevel)>,
    uptime: Duration,
    horizon: Option<u64>,
) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"uptime_s\":{:.1},\"merged_records\":{merged},\"watermark_us\":{},\"analyzed_seconds\":{analyzed_seconds}",
        uptime.as_secs_f64(),
        core.watermark(),
    );
    match last_second {
        Some((s, class)) => {
            let _ = write!(
                out,
                ",\"last_second\":{{\"second\":{},\"utilization_pct\":{:.2},\"class\":\"{:?}\"}}",
                s.second,
                s.utilization_pct(),
                class
            );
        }
        None => out.push_str(",\"last_second\":null"),
    }
    out.push_str(",\"sources\":[");
    for (idx, src) in shared.sources.iter().enumerate() {
        if idx > 0 {
            out.push(',');
        }
        let state = src.state();
        let lag = core.lag_us(idx);
        // A live source the merge has moved on from — deferred by the stall
        // policy, or more than one horizon behind the frontier — surfaces
        // as `lagging`.
        let lagging = state == SourceState::Live
            && (core.is_deferred(idx) || horizon.is_some_and(|h| lag > h));
        let state_name = if lagging { "lagging" } else { state.name() };
        let report = src.report.lock().unwrap_or_else(|p| p.into_inner());
        let error = src.error.lock().unwrap_or_else(|p| p.into_inner());
        let _ = write!(
            out,
            "{{\"path\":\"{}\",\"state\":\"{state_name}\",\"lag_us\":{lag},\"queued_batches\":{},\
             \"received\":{},\"contributed\":{},\"clamped\":{},\"late_dropped\":{},\"rotations\":{},\
             \"report\":{},\"error\":{}}}",
            json_escape(&src.path.display().to_string()),
            queue_depths[idx],
            core.received()[idx],
            core.contributed()[idx],
            core.clamped()[idx],
            core.late_dropped()[idx],
            src.rotations.load(Ordering::Relaxed),
            report.to_json(),
            match error.as_deref() {
                Some(e) => format!("\"{}\"", json_escape(e)),
                None => "null".to_string(),
            },
        );
    }
    out.push_str("]}");
    out
}

/// Renders the `seconds` document: every finalized second with its
/// utilization and congestion class (thresholds fitted to the data seen so
/// far, as in batch analysis).
fn render_seconds(seconds: &[SecondStats]) -> String {
    use std::fmt::Write;
    if seconds.is_empty() {
        return "[]".to_string();
    }
    let bins = UtilizationBins::build(seconds);
    let classifier = CongestionClassifier::from_measurements(&bins);
    let mut out = String::with_capacity(seconds.len() * 48 + 2);
    out.push('[');
    for (i, s) in seconds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"second\":{},\"utilization_pct\":{:.2},\"class\":\"{:?}\"}}",
            s.second,
            s.utilization_pct(),
            classifier.classify(s.utilization_pct()),
        );
    }
    out.push(']');
    out
}

/// Serves `status` / `seconds` / `shutdown` requests (one line per
/// connection) until the service reports done.
fn socket_loop(listener: UnixListener, shared: &Shared) {
    let _ = listener.set_nonblocking(true);
    while !shared.done.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => handle_client(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

fn handle_client(mut stream: UnixStream, shared: &Shared) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 256];
    let mut req = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.contains(&b'\n') || req.len() >= buf.len() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let line = String::from_utf8_lossy(&req);
    let reply = match line.trim() {
        "status" | "" => shared
            .status_json
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone(),
        "seconds" => {
            let seconds = shared
                .final_seconds
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            render_seconds(&seconds)
        }
        "shutdown" => {
            shared.stop.store(true, Ordering::Release);
            "{\"stopping\":true}".to_string()
        }
        other => format!("{{\"error\":\"unknown command {}\"}}", json_escape(other)),
    };
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Runs the resident ingestion service until a stop request (socket
/// `shutdown` or [`ServeConfig::max_duration_s`]) drains it, then returns
/// the same [`StreamAnalysis`] a run over the final bytes would produce.
pub fn run_serve(cfg: &ServeConfig) -> Result<StreamAnalysis, CaptureError> {
    ingest(cfg, true)
}

/// The one ingest engine, behind both [`run_serve`] and
/// [`crate::ingest::analyze_capture_streams`]. With `follow` false the stop
/// flag is raised before any source starts, so each source's EOF is final
/// and the run ends once every source has been read to its end.
pub(crate) fn ingest(cfg: &ServeConfig, follow: bool) -> Result<StreamAnalysis, CaptureError> {
    let n = cfg.paths.len();
    let shared = Arc::new(Shared::new(&cfg.paths, follow));
    let listener = match &cfg.socket {
        Some(path) => {
            // A stale socket file from a previous run refuses the bind.
            let _ = std::fs::remove_file(path);
            Some(UnixListener::bind(path).map_err(wifi_pcap::PcapError::Io)?)
        }
        None => None,
    };
    let poll = Duration::from_millis(cfg.poll_ms.max(1));
    let horizon = cfg.skew_horizon_us;

    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = batch_channel::<FrameRecord>(CHANNEL_BATCHES, BATCH_LEN);
        senders.push(Some(tx));
        receivers.push(rx);
    }

    let started = Instant::now();
    let deadline = cfg.max_duration_s.map(|s| started + Duration::from_secs(s));

    let analysis = std::thread::scope(|scope| {
        let workers: Vec<_> = senders
            .iter_mut()
            .enumerate()
            .map(|(idx, tx)| {
                let tx = tx.take().expect("each sender moves to one worker");
                let shared = Arc::clone(&shared);
                scope.spawn(move || serve_source(&shared, idx, tx, poll))
            })
            .collect();
        if let Some(listener) = listener {
            let shared = Arc::clone(&shared);
            scope.spawn(move || socket_loop(listener, &shared));
        }

        let mut acc = SecondAccumulator::new();
        let mut core = OnlineMerge::new(n);
        let mut merged = 0u64;
        let mut published_seconds = 0usize;
        let mut last_status = Instant::now() - STATUS_INTERVAL;
        let mut last_heartbeat = Instant::now();
        let stall = cfg.stall_timeout_ms.map(Duration::from_millis);
        let mut last_progress = vec![Instant::now(); n];
        loop {
            let mut progressed = false;
            // The source the merge is blocked on, if any.
            let mut blocked_on = None;
            // Deferred (stalled-out) sources rejoin as soon as they produce;
            // the merge never returns Need for them, so drain them here.
            for idx in 0..n {
                if core.is_deferred(idx) && feed(&mut core, idx, receivers[idx].try_next()) {
                    last_progress[idx] = Instant::now();
                    progressed = true;
                }
            }
            let all_done = loop {
                match core.poll(horizon) {
                    MergePoll::Record(r) => {
                        merged += 1;
                        acc.push(r);
                        progressed = true;
                    }
                    MergePoll::Need(idx) => {
                        if feed(&mut core, idx, receivers[idx].try_next()) {
                            // Only the stall policy reads the clock; a run
                            // without one skips the per-record timestamp.
                            if stall.is_some() {
                                last_progress[idx] = Instant::now();
                            }
                            progressed = true;
                            continue;
                        }
                        // Nothing buffered: wall-clock stall policy. A source
                        // quiet past the timeout stops blocking the merge
                        // (trace-time horizons cannot unwedge a source
                        // stalled at the merge frontier).
                        let timed_out = stall.is_some_and(|t| last_progress[idx].elapsed() >= t);
                        if !(timed_out && core.defer(idx)) {
                            blocked_on = Some(idx);
                            break false;
                        }
                    }
                    // At Done every open source is deferred; the run is
                    // final only when none is, since deferred ones may
                    // still rejoin.
                    MergePoll::Done => break (0..n).all(|idx| !core.is_deferred(idx)),
                }
            };

            if let Some(d) = deadline {
                if Instant::now() >= d {
                    shared.stop.store(true, Ordering::Release);
                }
            }
            // Publish newly finalized seconds (all folded seconds except
            // the newest, which later records can still extend) as soon as
            // they finalize: the loop turns on batch arrivals, not on a
            // fixed tick, so tying this to the status refresh would delay
            // each second by a varying part of the interval.
            let folded = acc.seconds();
            let finalized = folded.len().saturating_sub(1);
            if finalized > published_seconds {
                let mut out = shared
                    .final_seconds
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                out.extend_from_slice(&folded[published_seconds..finalized]);
                published_seconds = finalized;
            }
            if all_done || last_status.elapsed() >= STATUS_INTERVAL {
                last_status = Instant::now();
                let last = folded.len().checked_sub(2).map(|i| &folded[i]);
                let classified = last.map(|s| {
                    let bins = UtilizationBins::build(&folded[..finalized]);
                    let classifier = CongestionClassifier::from_measurements(&bins);
                    (s, classifier.classify(s.utilization_pct()))
                });
                let depths: Vec<usize> = receivers.iter().map(|rx| rx.queued_batches()).collect();
                let status = render_status(
                    &shared,
                    &core,
                    &depths,
                    merged,
                    finalized,
                    classified,
                    started.elapsed(),
                    horizon,
                );
                *shared.status_json.lock().unwrap_or_else(|p| p.into_inner()) = status;
            }
            if cfg.heartbeat_s > 0
                && last_heartbeat.elapsed() >= Duration::from_secs(cfg.heartbeat_s)
            {
                last_heartbeat = Instant::now();
                let states: Vec<&str> = shared.sources.iter().map(|s| s.state().name()).collect();
                eprintln!(
                    "serve: up {:.0}s, merged {merged} records, watermark {}µs, sources [{}]",
                    started.elapsed().as_secs_f64(),
                    core.watermark(),
                    states.join(", ")
                );
            }
            if all_done {
                break;
            }
            if !progressed {
                match blocked_on {
                    // Wake as soon as the source the merge needs delivers.
                    Some(idx) => receivers[idx].wait(poll),
                    // Every open source is deferred: nothing to wait on.
                    None => std::thread::sleep(poll),
                }
            }
        }

        let sources: Vec<SourceOutcome> = workers
            .into_iter()
            .map(|w| {
                w.join().unwrap_or_else(|payload| SourceOutcome {
                    report: IngestReport::default(),
                    error: Some(CaptureError::Panicked(panic_message(payload))),
                })
            })
            .collect();
        let per_second = acc.finish();
        {
            let mut out = shared
                .final_seconds
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            out.clear();
            out.extend_from_slice(&per_second);
        }
        shared.done.store(true, Ordering::Release);
        StreamAnalysis {
            per_second,
            contributed: core.contributed().to_vec(),
            merged_records: merged,
            sources,
        }
    });

    if let Some(path) = &cfg.socket {
        let _ = std::fs::remove_file(path);
    }
    Ok(analysis)
}

/// Pumps one capture file through [`serve_source`] into `tx`, with the stop
/// flag raised as in a non-following [`ingest`] run.
#[cfg(test)]
pub(crate) fn pump_file(path: &Path, tx: BatchSender<FrameRecord>) -> SourceOutcome {
    let shared = Arc::new(Shared::new(&[path.to_path_buf()], false));
    serve_source(&shared, 0, tx, Duration::from_millis(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::write_capture;
    use wifi_frames::phy::{Channel, Rate};
    use wifi_frames::{FrameKind, MacAddr};

    fn rec(ts: u64, src: u32, seq: u16) -> FrameRecord {
        FrameRecord {
            timestamp_us: ts,
            kind: FrameKind::Data,
            rate: Rate::R11,
            channel: Channel::new(6).unwrap(),
            dst: MacAddr::from_id(99),
            src: Some(MacAddr::from_id(src)),
            bssid: Some(MacAddr::from_id(99)),
            retry: false,
            seq: Some(seq),
            mac_bytes: 1028,
            payload_bytes: 1000,
            signal_dbm: -62,
            duration_us: 314,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("congestion_serve_unit_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tail_source_blocks_then_reads_then_detects_rotation() {
        let dir = temp_dir("tail");
        let path = dir.join("live.pcap");
        let shared = Arc::new(Shared::new(std::slice::from_ref(&path), true));
        let mut tail = TailSource::new(Arc::clone(&shared), 0);
        let mut buf = [0u8; 64];

        // No file yet: pending, not EOF.
        let err = tail.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);

        std::fs::write(&path, b"first").unwrap();
        assert_eq!(tail.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"first");
        // Caught up: pending again.
        assert_eq!(
            tail.read(&mut buf).unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock
        );

        // Rotate: replace the file (new inode) with fresh content.
        std::fs::remove_file(&path).unwrap();
        std::fs::write(&path, b"second!").unwrap();
        assert_eq!(tail.read(&mut buf).unwrap(), 7);
        assert_eq!(&buf[..7], b"second!");
        assert_eq!(shared.sources[0].rotations.load(Ordering::Relaxed), 1);

        // Stop turns EOF real.
        shared.stop.store(true, Ordering::Release);
        assert_eq!(tail.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn tail_source_fails_with_the_open_error_once_stopping() {
        let dir = temp_dir("tail_missing");
        let path = dir.join("never_written.pcap");
        let shared = Arc::new(Shared::new(std::slice::from_ref(&path), true));
        let mut tail = TailSource::new(Arc::clone(&shared), 0);
        let mut buf = [0u8; 64];
        // Following: a missing file is pending, not an error.
        assert_eq!(
            tail.read(&mut buf).unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock
        );
        // Stopping: the open error is final, so a missing file surfaces as
        // NotFound rather than as an empty (truncated) capture.
        shared.stop.store(true, Ordering::Release);
        assert_eq!(
            tail.read(&mut buf).unwrap_err().kind(),
            std::io::ErrorKind::NotFound
        );
        match CaptureStream::from_reader(tail) {
            Err(CaptureError::Pcap(wifi_pcap::PcapError::Io(e))) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
            }
            other => panic!("expected the open error, got {:?}", other.err()),
        }
    }

    #[test]
    fn serve_on_static_files_matches_batch_analysis() {
        let dir = temp_dir("static");
        let full: Vec<FrameRecord> = (0..1500u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let mut paths = Vec::new();
        for s in 0..2 {
            let records: Vec<FrameRecord> = full
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 != s)
                .map(|(_, r)| *r)
                .collect();
            let path = dir.join(format!("sniffer_{s}.pcap"));
            write_capture(&path, &records).unwrap();
            paths.push(path);
        }
        let mut cfg = ServeConfig::new(paths.clone());
        cfg.poll_ms = 5;
        cfg.heartbeat_s = 0;
        cfg.stall_timeout_ms = None;
        cfg.max_duration_s = Some(1);
        let served = run_serve(&cfg).unwrap();
        assert!(served.sources.iter().all(|s| s.is_clean()));

        // Materializing oracle: lossy-read each file, merge, analyze.
        let traces: Vec<Vec<FrameRecord>> = paths
            .iter()
            .map(|p| crate::trace::read_capture_lossy(p).unwrap().records)
            .collect();
        let views: Vec<&[FrameRecord]> = traces.iter().map(Vec::as_slice).collect();
        let merged = congestion::merge_traces(&views);
        assert_eq!(served.merged_records as usize, merged.len());
        assert_eq!(served.per_second, congestion::analyze(&merged));
        assert_eq!(
            served.contributed,
            congestion::merge::coverage_gain(&views).contributed
        );
    }

    #[test]
    fn status_json_is_wellformed_enough() {
        // Smoke the renderers directly: no commas-in-wrong-places panics,
        // balanced braces, expected keys.
        let shared = Shared::new(&[PathBuf::from("/tmp/a \"quoted\".pcap")], true);
        let core = OnlineMerge::new(1);
        let status = render_status(
            &shared,
            &core,
            &[0],
            0,
            0,
            None,
            Duration::from_secs(3),
            Some(2_000_000),
        );
        assert!(status.contains("\"sources\":["));
        assert!(status.contains("\\\"quoted\\\""));
        assert_eq!(
            status.matches('{').count(),
            status.matches('}').count(),
            "{status}"
        );
        assert_eq!(render_seconds(&[]), "[]");
    }
}
