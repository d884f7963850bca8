//! Self-tests of the benchmark's own machinery: order statistics, the
//! capture generator, the `live` schedule and freshness accounting, the
//! host speed reference's scaling, and the result line's agreement with
//! `BENCHMARK.json`.

use congestion::analyze;
use perfbench::gen::{
    channel_frames, write_captures, SplitMix, DOWNLINK, P_RETRY, RATE_AIRTIME, UTILIZATION,
};
use perfbench::host::{Reference, REFERENCE_S, RESIDENT_MB};
use perfbench::live::{close_due, due_times, freshness_ms, replay, split_pcap, Clock};
use perfbench::stats::{median, quartiles, slope, tail_percentile};
use perfbench::{batch_metrics, parse_metrics, Report, Timed, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::PathBuf;
use wifi_frames::fc::FrameKind;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(data, n=4)`.
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
    assert_eq!(quartiles(&[0.3, 0.1, 0.7]), Some([0.1, 0.3, 0.7]));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    let sample = |n: u32| (1..=n).map(f64::from).rev().collect::<Vec<f64>>();
    // Enough samples: the 99th percentile itself (990 has 10 beyond it).
    assert_eq!(tail_percentile(&sample(1000)), Some((99.0, 990.0)));
    assert_eq!(tail_percentile(&sample(2000)), Some((99.0, 1980.0)));
    // Fewer: the highest percentile with ten samples beyond it.
    assert_eq!(tail_percentile(&sample(100)), Some((90.0, 90.0)));
    assert_eq!(tail_percentile(&sample(11)), Some((100.0 / 11.0, 1.0)));
    assert_eq!(tail_percentile(&sample(10)), None);
}

#[test]
fn slope_of_a_line() {
    let xs = [0.0, 1.0, 2.0, 3.0];
    let ys = [1.0, 3.0, 5.0, 7.0];
    assert!((slope(&xs, &ys) - 2.0).abs() < 1e-12);
    assert_eq!(slope(&[1.0], &[1.0]), 0.0);
}

#[test]
fn splitmix_streams_are_seeded() {
    let a: Vec<u64> = (0..4)
        .map({
            let mut r = SplitMix::new(7, 1);
            move |_| r.next_u64()
        })
        .collect();
    let b: Vec<u64> = (0..4)
        .map({
            let mut r = SplitMix::new(7, 1);
            move |_| r.next_u64()
        })
        .collect();
    let c = SplitMix::new(8, 1).next_u64();
    assert_eq!(a, b);
    assert_ne!(a[0], c);
}

#[test]
fn capture_generator_is_byte_deterministic_per_seed() {
    let write = |seed: u64, tag: &str| {
        let paths = vec![
            scratch(&format!("{tag}0.pcap")),
            scratch(&format!("{tag}1.pcap")),
        ];
        let written = write_captures(seed, 5_000_000, &paths).unwrap();
        let bytes: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        for p in &paths {
            std::fs::remove_file(p).unwrap();
        }
        (written, bytes)
    };
    let (wa, a) = write(9, "a");
    let (wb, b) = write(9, "b");
    let (_, c) = write(10, "c");
    assert_eq!(wa, wb);
    assert_eq!(a, b, "same seed, same bytes");
    assert_ne!(a, c, "another seed, other bytes");
    // The sniffers overlap without being identical.
    assert_ne!(a[0], a[1]);
    assert!(wa.iter().all(|&n| n > 1_000));
}

#[test]
fn generated_channel_carries_the_paper_frame_mix() {
    let mut kinds = BTreeMap::new();
    let mut bssids = std::collections::BTreeSet::new();
    let mut frames = Vec::new();
    let mut last = 0;
    channel_frames(3, 60_000_000, |r| {
        assert!(r.timestamp_us >= last, "frames come in time order");
        last = r.timestamp_us;
        *kinds.entry(format!("{:?}", r.kind)).or_insert(0u64) += 1;
        if let Some(b) = r.bssid {
            bssids.insert(b);
        }
        frames.push(r);
    });
    for k in ["Data", "Ack", "Rts", "Cts", "Beacon"] {
        assert!(
            kinds.get(k).copied().unwrap_or(0) > 0,
            "no {k} frames: {kinds:?}"
        );
    }
    assert!(bssids.len() >= 3, "several BSSs: {bssids:?}");
    // The cited figures hold on the channel as the paper's metric sees it.
    let seconds = analyze(&frames);
    let full = &seconds[1..seconds.len() - 1];
    let util = full.iter().map(|s| s.utilization_pct()).sum::<f64>() / full.len() as f64;
    assert!(
        (util - UTILIZATION * 100.0).abs() < 1.5,
        "mean utilization {util:.1} %"
    );
    let busy: Vec<u64> = (0..4)
        .map(|r| full.iter().map(|s| s.busy_by_rate_us[r]).sum())
        .collect();
    let total_busy: u64 = busy.iter().sum();
    let target: f64 = RATE_AIRTIME.iter().sum();
    for r in 0..4 {
        let share = busy[r] as f64 / total_busy as f64;
        let want = RATE_AIRTIME[r] / target;
        assert!(
            (share - want).abs() < 0.03,
            "rate {r}: data air time share {share:.3}, want {want:.3}"
        );
    }
    let data: u64 = full.iter().map(|s| s.data).sum();
    let retries: u64 = full.iter().map(|s| s.retries).sum();
    let retry_frac = retries as f64 / data as f64;
    assert!(
        (retry_frac - P_RETRY).abs() < 0.01,
        "retransmissions are {retry_frac:.3} of data frames"
    );
    let data_frames = frames.iter().filter(|r| r.kind == FrameKind::Data);
    let (down, all) = data_frames.fold((0u64, 0u64), |(d, a), r| {
        (d + u64::from(r.src == r.bssid), a + 1)
    });
    let down_frac = down as f64 / all as f64;
    assert!(
        (down_frac - DOWNLINK).abs() < 0.01,
        "downlink share {down_frac:.3}"
    );
}

#[test]
fn split_pcap_recovers_every_record() {
    let path = scratch("split.pcap");
    let written = write_captures(4, 2_000_000, std::slice::from_ref(&path)).unwrap();
    let cap = split_pcap(std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    assert_eq!(cap.records.len() as u64, written[0]);
    assert_eq!(cap.records.last().unwrap().end, cap.bytes.len());
    assert!(cap.ts_us.windows(2).all(|w| w[0] <= w[1]));
}

/// A clock that only moves when the replay sleeps, overshooting each
/// wake-up by a scripted delay.
struct FakeClock {
    t: f64,
    delays: Vec<f64>,
    sleeps: usize,
}

impl Clock for FakeClock {
    fn now(&mut self) -> f64 {
        self.t
    }

    fn sleep_until(&mut self, t: f64) {
        let d = self.delays[self.sleeps % self.delays.len()];
        self.sleeps += 1;
        self.t = self.t.max(t) + d;
    }
}

#[test]
fn live_schedule_is_open_loop_and_counts_lateness() {
    // Two sources; trace time starts at the earliest record (1 s) and
    // plays at 2x, so a record 0.5 trace-s later is due 0.25 s later.
    let ts = vec![
        vec![1_000_000, 1_500_000, 2_000_000],
        vec![1_200_000, 2_000_000],
    ];
    let due = due_times(&ts, 2.0);
    assert_eq!(due, vec![vec![0.0, 0.25, 0.5], vec![0.1, 0.5]]);

    // The first two wake-ups are 10 ms late, the third 40 ms.
    let mut clock = FakeClock {
        t: 0.0,
        delays: vec![0.010, 0.010, 0.040],
        sleeps: 0,
    };
    let mut appended: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let late = replay(&mut clock, &due, |k, r| appended.push((k, r)));
    // Each record handed over exactly once, in order per source.
    assert_eq!(
        appended,
        vec![(0, 0..1), (1, 0..1), (0, 1..2), (0, 2..3), (1, 1..2)]
    );
    let want = [0.0, 0.010, 0.010, 0.040, 0.040];
    assert_eq!(late.len(), want.len());
    for (got, want) in late.iter().zip(want) {
        assert!((got - want).abs() < 1e-12, "lateness {late:?}");
    }
}

#[test]
fn freshness_runs_from_the_closing_record_due_time() {
    // Second 1 is closed by the first record of second 2 (due at 0.5 s on
    // source 1, earlier than source 0's 0.6 s).
    let ts = vec![
        vec![1_100_000, 2_050_000],
        vec![1_000_000, 2_000_000, 3_000_000],
    ];
    let due = vec![vec![0.1, 0.6], vec![0.0, 0.5, 1.0]];
    let close = close_due(&ts, &due);
    assert_eq!(close, BTreeMap::from([(0, 0.0), (1, 0.5), (2, 1.0)]));
    // Second 1 first listed at 0.75 s; second 2 never; second 3 is never
    // closed, so it yields no sample.
    let seen = BTreeMap::from([(1, 0.75), (3, 1.2)]);
    let fresh = freshness_ms(&close, &seen);
    assert_eq!(fresh.len(), 1);
    assert!((fresh[0] - 250.0).abs() < 1e-9);
}

#[test]
fn batch_metrics_are_means_in_reference_seconds() {
    // The kernel ran at half the reference speed (wall and CPU per thread
    // both 2 × REFERENCE_S on average), so every time halves.
    let reference = Reference {
        wall: vec![REFERENCE_S, 3.0 * REFERENCE_S],
        cpu: vec![4.0 * REFERENCE_S, 4.0 * REFERENCE_S],
        threads: 2,
    };
    assert!((reference.scale() - 0.5).abs() < 1e-12);
    assert!((reference.cpu_scale() - 0.5).abs() < 1e-12);
    let iters = [
        Timed {
            setup_s: 0.1,
            wall_s: 1.0,
            cpu_s: 2.0,
            work: 100.0,
        },
        Timed {
            setup_s: 0.3,
            wall_s: 3.0,
            cpu_s: 4.0,
            work: 500.0,
        },
    ];
    let m = batch_metrics("test", &iters, &reference, 50.0);
    let close = |key: &str, want: f64| {
        assert!(
            (m[key] - want).abs() < 1e-9,
            "{key} = {}, want {want}",
            m[key]
        );
    };
    close("setup_s", 0.1);
    close("wall_s", 1.0);
    close("cpu_s", 1.5);
    close("frames_per_s", 600.0 / 2.0);
    close("fresh_p50_ms", 1000.0);
    close("peak_rss_mb", 50.0 - RESIDENT_MB);
}

#[test]
fn result_line_round_trips() {
    let mut report = Report {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    report.metrics.insert("wall_s", 1.25);
    report.metrics.insert("fresh_p99_ms", 0.000123);
    let line = report.to_json(END_TO_END);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    let parsed = parse_metrics(&line);
    assert_eq!(parsed.len(), END_TO_END.len());
    assert_eq!(parsed["wall_s"], 1.25);
    assert_eq!(parsed["fresh_p99_ms"], 0.000123);
}

#[test]
fn metric_tables_match_benchmark_json() {
    let json = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .unwrap();
    let section = |key: &str| {
        let start = json.find(&format!("\"{key}\"")).unwrap();
        let end = json[start..].find(']').unwrap() + start;
        json[start..end].to_string()
    };
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let s = section(key);
        assert_eq!(s.matches("\"name\"").count(), table.len(), "{key} count");
        for (name, unit) in table {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(s.contains(&entry), "{key} lacks {entry}");
        }
    }
}
