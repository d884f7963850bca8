//! Golden determinism harness for the hot-path overhaul.
//!
//! The cached sensing topology, the allocation-free event loop, and the
//! streaming per-second analysis are pure performance work: they must not
//! move a single byte of simulated output. This test pins that down with
//! golden digests captured from the pre-optimization simulator:
//!
//! * fig4-style session cells (day + plenary) and ablation_knee-style
//!   load-ramp cells, three seeds each, two offered loads for the ramp;
//! * every cell set runs at `--threads 1` and `--threads 4` and the two
//!   sweeps must be byte-identical (the run-report's deterministic fields
//!   included);
//! * each cell's full result (traces, sniffer counters, medium stats,
//!   station outcomes, event counts) is hashed and compared against
//!   `tests/golden_digests.txt`, committed from the unoptimized build.
//!
//! Regenerate with `GOLDEN_BLESS=1 cargo test -p congestion-bench --test
//! golden` — but only when a change is *supposed* to alter simulated output;
//! a perf PR that needs a re-bless is a broken perf PR.

use congestion::analyze;
use congestion_bench::streaming::run_streaming;
use congestion_bench::{run_cells, Cell, SweepArgs};
use ietf_workloads::{ietf_day, ietf_plenary, load_ramp, ScenarioResult, SessionScale};

/// FNV-1a, the same folding the vendored proptest uses for test seeding —
/// enough to make accidental output drift unmistakable.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Serializes everything deterministic about one result — the same field
/// set as the sweep determinism test, per cell.
fn cell_digest(r: &ScenarioResult) -> u64 {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "{} traces={:?} sniffers={:?} medium={:?} stations={:?} events={} on_air={}",
        r.name,
        r.traces,
        r.sniffer_stats,
        r.medium_stats,
        r.stations,
        r.events_processed,
        r.frames_on_air
    )
    .unwrap();
    fnv1a(out.as_bytes())
}

fn tiny_day(seed: u64) -> SessionScale {
    SessionScale {
        seed,
        users: 14,
        duration_s: 7,
        activity: 0.75,
        rts_fraction: 0.02,
    }
}

fn tiny_plenary(seed: u64) -> SessionScale {
    SessionScale {
        seed,
        users: 14,
        duration_s: 7,
        activity: 3.0,
        rts_fraction: 0.02,
    }
}

/// The golden cell set: fig4's two sessions plus ablation_knee's
/// (seed × load) ramp grid, at smoke scale.
fn golden_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for seed in [21u64, 22, 23] {
        cells.push(Cell::new(format!("day seed={seed}"), seed, move || {
            ietf_day(tiny_day(seed))
        }));
    }
    for seed in [31u64, 32, 33] {
        cells.push(Cell::new(format!("plenary seed={seed}"), seed, move || {
            ietf_plenary(tiny_plenary(seed))
        }));
    }
    for seed in [101u64, 102, 103] {
        for fps in [1.3f64, 1.7] {
            cells.push(Cell::new(
                format!("ramp seed={seed} fps={fps:.1}"),
                seed,
                move || load_ramp(seed, 12, 10, fps),
            ));
        }
    }
    cells
}

/// Runs the golden sweep on `threads` workers; returns `(label, digest)`
/// per cell plus the deterministic run-report fields.
fn run_golden(threads: usize) -> (Vec<(String, u64)>, String) {
    let args = SweepArgs { threads, seeds: 1 };
    let (results, report) = run_cells("golden_test", &args, golden_cells());
    let digests = report
        .cells
        .iter()
        .zip(&results)
        .map(|(c, r)| (c.label.clone(), cell_digest(r)))
        .collect();
    // The run.json minus its wall-clock observability: these fields must be
    // byte-identical across thread counts and across the optimization.
    let mut det = String::new();
    for c in &report.cells {
        use std::fmt::Write;
        writeln!(
            det,
            "{} seed={} events={} on_air={} captured={} missed={}",
            c.label, c.seed, c.events, c.frames_on_air, c.frames_captured, c.frames_missed
        )
        .unwrap();
    }
    (digests, det)
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_digests.txt")
}

#[test]
fn output_matches_preoptimization_goldens_across_threads() {
    let (serial, serial_det) = run_golden(1);
    let (parallel, parallel_det) = run_golden(4);
    assert_eq!(
        serial, parallel,
        "4-thread golden sweep diverged from serial"
    );
    assert_eq!(
        serial_det, parallel_det,
        "run-report deterministic fields diverged across thread counts"
    );

    let mut lines = String::new();
    for (label, digest) in &serial {
        lines.push_str(&format!("{label}\t{digest:016x}\n"));
    }
    let path = golden_path();
    if std::env::var("GOLDEN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &lines).expect("write golden file");
        eprintln!("blessed {} ({} cells)", path.display(), serial.len());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e})", path.display()));
    assert_eq!(
        lines, golden,
        "simulated output drifted from the pre-optimization goldens; if the \
         change is meant to alter results, re-bless with GOLDEN_BLESS=1"
    );
}

/// The streaming driver must match the batch `Scenario::run` byte-for-byte
/// on the golden cell set: same counters, and per-second statistics equal
/// to `analyze` over the batch traces. (Named for the two-thread pipelined
/// runner it once also compared; that runner is gone, and the chunk loop
/// behind `run_streaming` is the only streaming path.)
#[test]
fn pipelined_streaming_matches_serial_on_golden_cells() {
    for cell in golden_cells() {
        let batch = cell.build_scenario().run();
        let serial = run_streaming(cell.build_scenario(), 1_000_000);
        assert_eq!(
            serial.events_processed, batch.events_processed,
            "{}",
            cell.label
        );
        assert_eq!(serial.frames_on_air, batch.frames_on_air, "{}", cell.label);
        assert_eq!(serial.medium_stats, batch.medium_stats, "{}", cell.label);
        assert_eq!(serial.queue, batch.queue, "{}", cell.label);
        assert_eq!(
            format!("{:?}", serial.sniffer_stats),
            format!("{:?}", batch.sniffer_stats),
            "{}",
            cell.label
        );
        let analyzed: Vec<_> = batch.traces.iter().map(|t| analyze(t)).collect();
        assert_eq!(
            format!("{:?}", serial.per_sniffer_seconds),
            format!("{analyzed:?}"),
            "{}: streamed per-second analysis diverged from the batch traces",
            cell.label
        );
    }
}
