//! End-to-end tests of `wifi-congestion serve`: grow live capture files
//! while the service tails them — including mid-test corruption and file
//! rotation — drive the unix-socket status endpoint, and check the final
//! report byte-matches the materializing oracle over the same final bytes:
//! every file lossy-read whole, the traces merged, then analyzed.

use ietf80211_congestion::congestion::{analyze, merge_traces};
use ietf80211_congestion::ingest::{render_analysis, PANIC_SOURCE_ENV};
use ietf80211_congestion::trace::{read_capture_lossy, write_capture};
use ietf80211_congestion::wifi_frames::phy::{Channel, Rate};
use ietf80211_congestion::wifi_frames::{FrameKind, FrameRecord, MacAddr};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wifi-congestion"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("wifi-congestion-serve")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

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

/// Three per-sniffer views of one trace: sniffer `s` misses every third
/// record and observes a small fixed clock skew.
fn sniffer_views(total: u64) -> Vec<Vec<FrameRecord>> {
    let full: Vec<FrameRecord> = (0..total)
        .map(|i| rec(i * 900, 1, (i % 4096) as u16))
        .collect();
    (0..3u64)
        .map(|s| {
            full.iter()
                .enumerate()
                .filter(|(i, _)| *i as u64 % 3 != s)
                .map(|(_, r)| {
                    let mut r = *r;
                    r.timestamp_us += 20 * s;
                    r
                })
                .collect()
        })
        .collect()
}

/// Serializes records to classic-pcap bytes (via a temp file round-trip).
fn capture_bytes(dir: &Path, tag: &str, records: &[FrameRecord]) -> Vec<u8> {
    let path = dir.join(format!("scratch_{tag}.pcap"));
    write_capture(&path, records).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn append(path: &Path, bytes: &[u8]) {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    f.write_all(bytes).unwrap();
}

fn byte_chunks(bytes: &[u8], n: usize) -> Vec<&[u8]> {
    bytes.chunks(bytes.len().div_ceil(n).max(1)).collect()
}

/// The report `analyze` prints, computed by the materializing oracle:
/// `read_capture_lossy` per file, `merge_traces`, `analyze`.
fn oracle_report(paths: &[&Path]) -> String {
    let traces: Vec<Vec<FrameRecord>> = paths
        .iter()
        .map(|p| read_capture_lossy(p).expect("oracle read").records)
        .collect();
    let views: Vec<&[FrameRecord]> = traces.iter().map(Vec::as_slice).collect();
    let merged = merge_traces(&views);
    render_analysis(&analyze(&merged), merged.len() as u64)
}

/// One request/response round-trip against the serve status socket.
fn query(sock: &Path, cmd: &str) -> Option<String> {
    let mut s = UnixStream::connect(sock).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    s.write_all(cmd.as_bytes()).ok()?;
    s.write_all(b"\n").ok()?;
    let mut reply = String::new();
    s.read_to_string(&mut reply).ok()?;
    Some(reply)
}

fn field_u64(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn sum_of(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let mut total = 0;
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        rest = &rest[i + pat.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        total += rest[..end].parse::<u64>().unwrap_or(0);
    }
    total
}

/// Polls `status` until the merge and decode counters stop moving (all
/// written bytes consumed, merge as far along as it can go without a stop).
fn wait_until_settled(sock: &Path) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last = (0u64, 0u64);
    let mut stable = 0;
    loop {
        assert!(Instant::now() < deadline, "serve did not settle in time");
        std::thread::sleep(Duration::from_millis(300));
        let Some(status) = query(sock, "status") else {
            continue;
        };
        let snap = (
            field_u64(&status, "merged_records").unwrap_or(0),
            sum_of(&status, "received"),
        );
        if snap == last {
            stable += 1;
            if stable >= 2 {
                return status;
            }
        } else {
            stable = 0;
            last = snap;
        }
    }
}

#[test]
fn serve_matches_batch_under_growth_chaos_and_rotation() {
    let dir = temp_dir("equivalence");
    let views = sniffer_views(6000);

    // Source 0: clean. Source 1: a damaged region mid-file. Source 2: two
    // capture files, the second replacing the first mid-test (rotation).
    let clean_bytes = capture_bytes(&dir, "clean", &views[0]);
    let mut chaos_bytes = capture_bytes(&dir, "chaos", &views[1]);
    let wreck = chaos_bytes.len() * 2 / 5;
    chaos_bytes[wreck..wreck + 180].fill(0xFF);
    let half = views[2].len() / 2;
    let part_a = capture_bytes(&dir, "part_a", &views[2][..half]);
    let part_b = capture_bytes(&dir, "part_b", &views[2][half..]);

    // Reference files carrying the exact final bytes each live source will
    // have presented: the rotated source's decoder sees part A's bytes (the
    // old descriptor stays readable through the swap) followed by part B's.
    let ref0 = dir.join("ref0.pcap");
    let ref1 = dir.join("ref1.pcap");
    let ref2 = dir.join("ref2.pcap");
    std::fs::write(&ref0, &clean_bytes).unwrap();
    std::fs::write(&ref1, &chaos_bytes).unwrap();
    std::fs::write(&ref2, [part_a.as_slice(), part_b.as_slice()].concat()).unwrap();

    let live0 = dir.join("live0.pcap");
    let live1 = dir.join("live1.pcap");
    let live2 = dir.join("live2.pcap");
    let sock = dir.join("serve.sock");

    let child = bin()
        .args([
            "serve",
            live0.to_str().unwrap(),
            live1.to_str().unwrap(),
            live2.to_str().unwrap(),
            "--socket",
            sock.to_str().unwrap(),
            "--poll-ms",
            "10",
            "--skew-horizon-us",
            "none",
            "--stall-ms",
            "none",
            "--heartbeat-s",
            "0",
            "--max-duration-s",
            "60",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // Grow all three sources concurrently in small interleaved appends.
    let c0 = byte_chunks(&clean_bytes, 24);
    let c1 = byte_chunks(&chaos_bytes, 24);
    let ca = byte_chunks(&part_a, 12);
    let cb = byte_chunks(&part_b, 12);
    for round in 0..24 {
        if let Some(b) = c0.get(round) {
            append(&live0, b);
        }
        if let Some(b) = c1.get(round) {
            append(&live1, b);
        }
        if round < 12 {
            if let Some(b) = ca.get(round) {
                append(&live2, b);
            }
        } else {
            if round == 12 {
                std::fs::remove_file(&live2).unwrap();
            }
            if let Some(b) = cb.get(round - 12) {
                append(&live2, b);
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    let status = wait_until_settled(&sock);
    assert!(status.contains("\"sources\":["), "{status}");
    assert!(status.contains("\"watermark_us\":"), "{status}");
    assert_eq!(sum_of(&status, "rotations"), 1, "{status}");
    let seconds = query(&sock, "seconds").expect("seconds endpoint");
    assert!(seconds.trim_end().starts_with('['), "{seconds}");
    assert!(seconds.contains("\"class\":"), "{seconds}");

    let reply = query(&sock, "shutdown").expect("shutdown accepted");
    assert!(reply.contains("stopping"), "{reply}");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        oracle_report(&[&ref0, &ref1, &ref2]),
        "serve final analysis must byte-match the oracle over the same bytes"
    );
    // The damaged source really was damaged (and only skip-counted).
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("had skips"),
        "expected damage accounting on stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_skips_past_a_stalled_source_and_marks_it_lagging() {
    let dir = temp_dir("stalled");
    let views = sniffer_views(6000);
    let b0 = capture_bytes(&dir, "s0", &views[0]);
    let b1 = capture_bytes(&dir, "s1", &views[1]);
    // Source 2 delivers only its first ~10% of records, then stalls forever.
    let stall_at = views[2].len() / 10;
    let b2 = capture_bytes(&dir, "s2", &views[2][..stall_at]);

    let live: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("live{i}.pcap"))).collect();
    let sock = dir.join("serve.sock");
    let child = bin()
        .args([
            "serve",
            live[0].to_str().unwrap(),
            live[1].to_str().unwrap(),
            live[2].to_str().unwrap(),
            "--socket",
            sock.to_str().unwrap(),
            "--poll-ms",
            "10",
            "--skew-horizon-us",
            "300000",
            "--stall-ms",
            "300",
            "--heartbeat-s",
            "0",
            "--max-duration-s",
            "60",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");

    append(&live[2], &b2); // the stalled source's entire lifetime of bytes
    let c0 = byte_chunks(&b0, 20);
    let c1 = byte_chunks(&b1, 20);
    for round in 0..20 {
        append(&live[0], c0[round]);
        append(&live[1], c1[round]);
        std::thread::sleep(Duration::from_millis(25));
    }

    let status = wait_until_settled(&sock);
    // The merge advanced far past the stalled source's high-water mark
    // instead of wedging behind it…
    let merged = field_u64(&status, "merged_records").unwrap_or(0);
    assert!(
        merged >= 5000,
        "merge should have skipped past the stalled source: {status}"
    );
    // …and the status says so.
    assert!(
        status.contains("\"state\":\"lagging\""),
        "stalled source should be marked lagging: {status}"
    );

    query(&sock, "shutdown").expect("shutdown accepted");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("frames:"),
        "final analysis still printed"
    );
}

#[test]
fn serve_panicking_decoder_degrades_only_that_source() {
    let dir = temp_dir("panic");
    let views = sniffer_views(3000);
    let p0 = dir.join("sniffer_a.pcap");
    let p1 = dir.join("sniffer_b_panic_inject_marker.pcap");
    let p2 = dir.join("sniffer_c.pcap");
    write_capture(&p0, &views[0]).unwrap();
    write_capture(&p1, &views[1]).unwrap();
    write_capture(&p2, &views[2]).unwrap();

    let out = bin()
        .args([
            "serve",
            p0.to_str().unwrap(),
            p1.to_str().unwrap(),
            p2.to_str().unwrap(),
            "--poll-ms",
            "10",
            "--skew-horizon-us",
            "none",
            "--stall-ms",
            "none",
            "--heartbeat-s",
            "0",
            "--max-duration-s",
            "2",
        ])
        .env(PANIC_SOURCE_ENV, "panic_inject_marker")
        .output()
        .expect("run serve");
    assert!(
        out.status.success(),
        "a panicking decoder must not kill the service: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("decoder panicked"),
        "panic surfaced per-source: {stderr}"
    );

    // The two healthy sources analyze exactly as the oracle over them.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        oracle_report(&[&p0, &p2])
    );
}
