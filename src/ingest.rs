//! Multi-sniffer ingestion of capture files: decode N captures
//! concurrently, merge them online, and feed the per-second analysis — file
//! bytes to congestion statistics in O(window) memory, never materializing
//! a trace.
//!
//! There is one ingest engine, in [`crate::serve`]: one decode thread per
//! sniffer, a bounded batch channel per sniffer for backpressure, and an
//! [`OnlineMerge`](congestion::OnlineMerge) loop driving a
//! [`SecondAccumulator`](congestion::persec::SecondAccumulator).
//! [`analyze_capture_streams`] is that engine with its stop flag raised
//! before any source starts: a source's end-of-file is then final, so the
//! run ends once every file has been read, with exactly the result a
//! resident `serve` reaches after a stop over the same bytes.
//!
//! This module holds what the engine reports ([`StreamAnalysis`],
//! [`SourceOutcome`]) and the report renderer the CLI prints.
//!
//! Fault isolation: one bad capture — unreadable, wrong link type, or even
//! a decoder panic — degrades into that source's [`SourceOutcome::error`]
//! while its siblings analyze to completion.

use crate::serve::{ingest, ServeConfig};
use crate::trace::CaptureError;
use congestion::persec::SecondStats;
use congestion::{CongestionClassifier, CongestionLevel, UtilizationBins};
use std::path::{Path, PathBuf};
use wifi_pcap::IngestReport;

/// Records per cross-thread batch: large enough that the channel mutex is
/// cold (one lock per 256 records), small enough to stay cache-resident.
pub(crate) const BATCH_LEN: usize = 256;

/// Full batches in flight per sniffer before its decoder blocks — the
/// backpressure bound (~2k records, a few hundred KiB per sniffer).
pub(crate) const CHANNEL_BATCHES: usize = 8;

/// Environment variable naming a substring of a capture file name whose
/// decoder must panic before decoding — a deliberately crash-faulty sniffer
/// for regression tests of panic isolation (the readers themselves are
/// panic-free on arbitrary bytes, so a real decoder panic cannot be staged
/// from file contents). Unset in normal operation.
pub const PANIC_SOURCE_ENV: &str = "CONG_TEST_PANIC_SOURCE";

pub(crate) fn panic_if_injected(path: &Path) {
    if let Ok(pattern) = std::env::var(PANIC_SOURCE_ENV) {
        let hit = !pattern.is_empty()
            && path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().contains(&pattern));
        if hit {
            panic!("injected decoder panic for {}", path.display());
        }
    }
}

/// Renders a panic payload for [`CaptureError::Panicked`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What ingesting one source produced: the damage accounting for the bytes
/// that were decoded *and delivered*, plus the hard error that stopped the
/// source early, if any.
#[derive(Debug)]
pub struct SourceOutcome {
    /// Skip accounting for the delivered records. Under early consumer
    /// termination this is the snapshot at the last delivered batch
    /// boundary, so the totals match what the consumer could observe.
    pub report: IngestReport,
    /// The hard error that ended this source, if it did not run to clean
    /// end-of-stream.
    pub error: Option<CaptureError>,
}

impl SourceOutcome {
    /// True when the source decoded end-to-end without damage or error.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && self.report.is_clean()
    }
}

/// The result of a streaming end-to-end analysis over one or more sniffer
/// captures of the same channel.
#[derive(Debug)]
pub struct StreamAnalysis {
    /// Per-second link-layer statistics of the merged trace.
    pub per_second: Vec<SecondStats>,
    /// Per-source accounting and error state, in input order.
    pub sources: Vec<SourceOutcome>,
    /// Records in the merged, de-duplicated trace.
    pub merged_records: u64,
    /// Records each sniffer was the first to capture, in input order.
    pub contributed: Vec<u64>,
}

impl StreamAnalysis {
    /// The source reports merged into one total — [`IngestReport`] is
    /// incrementally mergeable, so rolling per-source snapshots (as the
    /// serve status endpoint publishes) sum to exactly this.
    pub fn total_report(&self) -> IngestReport {
        let mut total = IngestReport::default();
        for s in &self.sources {
            total.merge(&s.report);
        }
        total
    }
}

/// Streams `paths` (per-sniffer captures of one channel) through parallel
/// lossy decoding, the online k-way merge, and the per-second accumulator.
///
/// Equivalent to reading every file with
/// [`crate::trace::read_capture_lossy`], merging with
/// [`congestion::merge_traces`], and running [`congestion::analyze`] — but
/// in O(window) memory and with the decode work spread across one thread
/// per file. A source that fails hard (unreadable file, unrecognizable
/// classic header, non-radiotap link type, decoder panic) contributes what
/// it decoded before failing and carries the error in its
/// [`SourceOutcome`]; sibling sources and the merged analysis complete
/// normally.
///
/// This is the [`crate::serve`] engine run without following: no skew
/// horizon, no stall timeout, no heartbeat, and every EOF final.
pub fn analyze_capture_streams(paths: &[PathBuf]) -> Result<StreamAnalysis, CaptureError> {
    let cfg = ServeConfig {
        skew_horizon_us: None,
        stall_timeout_ms: None,
        heartbeat_s: 0,
        ..ServeConfig::new(paths.to_vec())
    };
    ingest(&cfg, false)
}

/// Renders the per-second analysis summary exactly as `wifi-congestion
/// analyze` prints it. Shared by `analyze` and the serve final report so
/// the two outputs are byte-comparable.
pub fn render_analysis(stats: &[SecondStats], frames: u64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if stats.is_empty() {
        let _ = writeln!(out, "frames: {frames}");
        let _ = writeln!(out, "span: 0.0 s (0 analyzed seconds)");
        return out;
    }
    let bins = UtilizationBins::build(stats);
    let classifier = CongestionClassifier::from_measurements(&bins);
    let _ = writeln!(out, "frames: {frames}");
    let _ = writeln!(
        out,
        "span: {:.1} s ({} analyzed seconds)",
        (stats.last().unwrap().second - stats.first().unwrap().second + 1) as f64,
        stats.len()
    );
    let mut high = 0u64;
    let mut moderate = 0u64;
    let mut idle = 0u64;
    for s in stats {
        match classifier.classify(s.utilization_pct()) {
            CongestionLevel::High => high += 1,
            CongestionLevel::Moderate => moderate += 1,
            CongestionLevel::Uncongested => idle += 1,
        }
    }
    let _ = writeln!(
        out,
        "congestion: {idle} uncongested s, {moderate} moderate s, {high} high s \
         (thresholds {:.0}% / {:.0}%)",
        classifier.low_pct, classifier.high_pct
    );
    let _ = writeln!(out, "utilization mode: {:?}%", bins.mode());
    let total_thr: f64 = stats.iter().map(|s| s.throughput_mbps()).sum();
    let total_good: f64 = stats.iter().map(|s| s.goodput_mbps()).sum();
    let n = stats.len().max(1) as f64;
    let _ = writeln!(
        out,
        "mean throughput {:.2} Mbps, mean goodput {:.2} Mbps",
        total_thr / n,
        total_good / n
    );
    let _ = writeln!(out, "\nsec\tutil%\tthr\tgood\tdata/s\tretr/s");
    for s in stats.iter().take(30) {
        let _ = writeln!(
            out,
            "{}\t{:.1}\t{:.2}\t{:.2}\t{}\t{}",
            s.second,
            s.utilization_pct(),
            s.throughput_mbps(),
            s.goodput_mbps(),
            s.data,
            s.retries,
        );
    }
    if stats.len() > 30 {
        let _ = writeln!(out, "… ({} more seconds)", stats.len() - 30);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{read_capture_lossy, write_capture};
    use wifi_frames::phy::{Channel, Rate};
    use wifi_frames::record::FrameRecord;
    use wifi_frames::{FrameKind, MacAddr};
    use wifi_sim::spsc::batch_channel;

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

    fn write_sniffers(tag: &str, sniffers: &[Vec<FrameRecord>]) -> Vec<PathBuf> {
        let dir = std::env::temp_dir().join(format!("congestion_ingest_test_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        sniffers
            .iter()
            .enumerate()
            .map(|(i, records)| {
                let path = dir.join(format!("sniffer_{i}.pcap"));
                write_capture(&path, records).unwrap();
                path
            })
            .collect()
    }

    #[test]
    fn streaming_pipeline_matches_batch_end_to_end() {
        // Three sniffers with complementary losses and a little clock skew.
        let full: Vec<FrameRecord> = (0..3000u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let sniffers: Vec<Vec<FrameRecord>> = (0..3)
            .map(|s| {
                full.iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 != s)
                    .map(|(_, r)| {
                        let mut r = *r;
                        r.timestamp_us += 20 * s as u64; // per-sniffer skew
                        r
                    })
                    .collect()
            })
            .collect();
        let paths = write_sniffers("e2e", &sniffers);

        let streamed = analyze_capture_streams(&paths).unwrap();

        // Batch reference: lossy-read each file, merge, analyze.
        let batch: Vec<Vec<FrameRecord>> = paths
            .iter()
            .map(|p| read_capture_lossy(p).unwrap().records)
            .collect();
        let views: Vec<&[FrameRecord]> = batch.iter().map(|t| &t[..]).collect();
        let merged = congestion::merge_traces(&views);
        let expected = congestion::analyze(&merged);

        assert_eq!(streamed.merged_records as usize, merged.len());
        assert_eq!(streamed.per_second, expected);
        assert_eq!(streamed.sources.len(), 3);
        assert!(streamed.sources.iter().all(|s| s.is_clean()));
        assert!(streamed.total_report().is_clean());
        assert_eq!(
            streamed.contributed.iter().sum::<u64>(),
            streamed.merged_records
        );
    }

    #[test]
    fn empty_input_set_yields_empty_analysis() {
        let out = analyze_capture_streams(&[]).unwrap();
        assert!(out.per_second.is_empty());
        assert_eq!(out.merged_records, 0);
        assert!(out.sources.is_empty());
    }

    #[test]
    fn missing_file_degrades_that_source_only() {
        // One unreadable source among two: the analysis completes on the
        // good one and reports the failure per-source instead of aborting.
        let good: Vec<FrameRecord> = (0..500u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let mut paths = write_sniffers("missing", std::slice::from_ref(&good));
        paths.push(PathBuf::from("/nonexistent/sniffer.pcap"));

        let out = analyze_capture_streams(&paths).unwrap();
        assert!(out.sources[0].error.is_none());
        assert!(
            matches!(out.sources[1].error, Some(CaptureError::Pcap(_))),
            "missing file must surface as that source's error: {:?}",
            out.sources[1].error
        );
        let expected = congestion::analyze(&congestion::merge_traces(&[&good[..]]));
        assert_eq!(out.per_second, expected);
        assert_eq!(out.contributed, vec![out.merged_records, 0]);
    }

    #[test]
    fn panicking_decoder_fails_only_its_source() {
        let full: Vec<FrameRecord> = (0..2000u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let sniffers = [full.clone(), full.clone(), full.clone()];
        let dir = std::env::temp_dir().join("congestion_ingest_test_panic");
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<PathBuf> = sniffers
            .iter()
            .enumerate()
            .map(|(i, records)| {
                // Only the middle sniffer's name carries the injection marker.
                let name = if i == 1 {
                    "sniffer_1_panic_inject_marker.pcap".to_string()
                } else {
                    format!("sniffer_{i}.pcap")
                };
                let path = dir.join(name);
                write_capture(&path, records).unwrap();
                path
            })
            .collect();

        std::env::set_var(PANIC_SOURCE_ENV, "panic_inject_marker");
        let out = analyze_capture_streams(&paths).unwrap();
        std::env::remove_var(PANIC_SOURCE_ENV);

        assert!(
            matches!(out.sources[1].error, Some(CaptureError::Panicked(_))),
            "injected panic must surface as that source's error: {:?}",
            out.sources[1].error
        );
        assert!(out.sources[0].is_clean());
        assert!(out.sources[2].is_clean());
        // The panicking source contributed nothing; the survivors carry the
        // full analysis (their traces are identical, so the merge equals one
        // of them).
        assert_eq!(out.contributed[1], 0);
        let expected = congestion::analyze(&congestion::merge_traces(&[&full[..]]));
        assert_eq!(out.per_second, expected);
        assert_eq!(out.merged_records as usize, full.len());
    }

    #[test]
    fn early_consumer_termination_reports_only_delivered_records() {
        // Drive one source pump by hand against a receiver that disconnects
        // after one batch: the outcome's counters must match a delivered
        // batch boundary, not the whole file.
        let records: Vec<FrameRecord> = (0..2000u64)
            .map(|i| rec(i * 900, 1, (i % 4096) as u16))
            .collect();
        let paths = write_sniffers("early_term", &[records]);
        let (tx, mut rx) = batch_channel::<FrameRecord>(1, BATCH_LEN);
        let worker = std::thread::spawn({
            let path = paths[0].clone();
            move || crate::serve::pump_file(&path, tx)
        });
        // Take exactly one batch, then drop the receiver.
        let mut taken = 0usize;
        for _ in rx.by_ref().take(BATCH_LEN) {
            taken += 1;
        }
        drop(rx);
        let outcome = worker.join().unwrap();
        assert_eq!(taken, BATCH_LEN);
        assert!(outcome.error.is_none());
        let total = outcome.report.records_total();
        assert!(
            total % BATCH_LEN as u64 == 0 && total >= taken as u64,
            "counters must sit on a delivered batch boundary, got {total}"
        );
        assert!(
            total < 2000,
            "counters must exclude records the consumer never saw"
        );
    }
}
