//! `sweep`: the Figure 6–15 dataset pipeline — the load-ramp, day and
//! plenary cells, each built and run through `Scenario::run` on the
//! `run_parallel` cell pool, then `congestion::analyze` per sniffer trace and
//! the utilization bins and congestion classifier over the pooled seconds.
//!
//! User counts are the figures' (320 / 240 / 200), and like the figures the
//! sweep pools several ramp seeds. Simulated durations are cut so that one
//! iteration takes about a second: a run then holds enough iterations for a
//! median, and eight cells on the pool average out how much traffic one
//! seed happens to draw. The sim event loop does nearly all the work here;
//! shard planning and pcap do none.

use crate::stats::median;
use crate::sys::{heap_peak_mb, peak_rss_mb, process_cpu_s};
use crate::tracer::Tracer;
use crate::{
    batch_metrics, digest, median_by_key, repeat_for, scale_traced_times, threads, topology_bytes,
    Args, Report, Timed,
};
use congestion::persec::SecondStats;
use congestion::{analyze, CongestionClassifier, UtilizationBins};
use congestion_bench::streaming::run_streaming;
use ietf_workloads::{ietf_day, ietf_plenary, load_ramp, Scenario, SessionScale};
use std::collections::BTreeMap;
use std::time::Instant;
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::SECOND;
use wifi_sim::runner::run_parallel;

const RAMP_USERS: usize = 320;
const RAMP_S: u64 = 40;
const RAMP_FPS: f64 = 1.7;
const DAY_S: u64 = 40;
const PLENARY_S: u64 = 20;

/// One sweep cell: which scenario, from which seed.
#[derive(Clone, Copy, Debug)]
pub enum Cell {
    /// The 320-user load ramp.
    Ramp(u64),
    /// The day session.
    Day(u64),
    /// The plenary session.
    Plenary(u64),
}

impl Cell {
    /// Runs the scenario constructor.
    pub fn build(self) -> Scenario {
        match self {
            Cell::Ramp(seed) => load_ramp(seed, RAMP_USERS, RAMP_S, RAMP_FPS),
            Cell::Day(seed) => ietf_day(SessionScale {
                duration_s: DAY_S,
                ..SessionScale::day_default(seed)
            }),
            Cell::Plenary(seed) => ietf_plenary(SessionScale {
                duration_s: PLENARY_S,
                ..SessionScale::plenary_default(seed)
            }),
        }
    }
}

/// The cells of one sweep: four ramp seeds and two of each session, all
/// derived from the benchmark seed (disjoint for different seeds).
pub fn cells(seed: u64) -> Vec<Cell> {
    let base = seed.wrapping_mul(16);
    let s = |i: u64| base.wrapping_add(i);
    vec![
        Cell::Ramp(s(0)),
        Cell::Ramp(s(1)),
        Cell::Ramp(s(2)),
        Cell::Ramp(s(3)),
        Cell::Day(s(4)),
        Cell::Day(s(5)),
        Cell::Plenary(s(6)),
        Cell::Plenary(s(7)),
    ]
}

/// What a cell's output check compares: simulated statistics that a
/// simulator speed-up must leave identical.
#[derive(Clone, Debug, PartialEq)]
pub struct CellCheck {
    /// Events processed.
    pub events: u64,
    /// Frames on air.
    pub on_air: u64,
    /// `(transmissions, collisions)` per channel.
    pub medium: Vec<(u64, u64)>,
    /// Digest of every per-sniffer per-second `SecondStats`.
    pub seconds: u64,
}

/// `(events, frames on air, seconds digest)` of one cell.
type Pinned = (u64, u64, u64);

/// Expected values per cell for the default seed (1) and the held-out seed
/// (2).
const EXPECTED: &[(u64, [Pinned; 8])] = &[
    (
        1,
        [
            (372_026, 45_266, 0x65e5_b410_12c5_e8b2),
            (412_846, 49_536, 0x54f4_0634_4ac9_cac9),
            (424_662, 46_122, 0x2aff_2032_c20f_57ca),
            (405_936, 46_431, 0x0e5a_69d9_2446_4edf),
            (531_568, 91_679, 0xef58_a6a3_4d71_7b65),
            (506_558, 88_614, 0x65a0_4894_3784_62e0),
            (409_763, 57_959, 0x1e72_5f6b_3e4f_86f4),
            (442_040, 62_412, 0x8fff_17fa_b90e_1614),
        ],
    ),
    (
        2,
        [
            (408_744, 45_500, 0xe982_655f_b7ac_a2bf),
            (383_730, 43_851, 0x4a09_6a96_a93d_939f),
            (404_356, 47_781, 0x52db_fa73_9344_8518),
            (367_220, 43_311, 0xf22d_3dca_13f4_b1eb),
            (621_410, 97_650, 0xc0e5_d635_e6a6_3b0a),
            (572_829, 95_473, 0x6a11_928a_7eec_8bc3),
            (440_428, 65_904, 0xfa19_f639_011a_444f),
            (552_849, 74_873, 0x9476_b323_9b36_3913),
        ],
    ),
];

fn check_of(
    events: u64,
    on_air: u64,
    medium: Vec<(u64, u64)>,
    per: &[Vec<SecondStats>],
) -> CellCheck {
    CellCheck {
        events,
        on_air,
        medium,
        seconds: digest(&per),
    }
}

/// The oracle: every cell through the chunked streaming driver (a separate
/// code path, proven identical to `Scenario::run` + `analyze`), untimed.
fn reference(cells: &[Cell]) -> Vec<CellCheck> {
    run_parallel(cells, threads(), |c| {
        let run = run_streaming(c.build(), SECOND);
        check_of(
            run.events_processed,
            run.frames_on_air,
            run.medium_stats,
            &run.per_sniffer_seconds,
        )
    })
}

/// Counts mismatching cells against the reference (and, for a pinned
/// seed, the reference against the pinned values).
fn count_failures(seed: u64, reference: &[CellCheck], iters: &[Vec<CellCheck>]) -> u64 {
    let mut failed = 0;
    if let Some((_, pinned)) = EXPECTED.iter().find(|(s, _)| *s == seed) {
        for (r, p) in reference.iter().zip(pinned) {
            if (r.events, r.on_air, r.seconds) != *p {
                eprintln!(
                    "sweep: seed {seed} cell differs from pinned: got ({}, {}, {:#x}), pinned ({}, {}, {:#x})",
                    r.events, r.on_air, r.seconds, p.0, p.1, p.2
                );
                failed += 1;
            }
        }
    } else {
        eprintln!("sweep: seed {seed} has no pinned values; checking against the reference driver");
    }
    for it in iters {
        for (got, want) in it.iter().zip(reference) {
            if got != want {
                eprintln!("sweep: cell mismatch: got {got:?}, want {want:?}");
                failed += 1;
            }
        }
    }
    for (r, c) in reference.iter().zip(cells(seed)) {
        eprintln!(
            "sweep: {c:?} events={} on_air={} seconds_digest={:#x}",
            r.events, r.on_air, r.seconds
        );
    }
    failed
}

/// Bins and classifies the pooled seconds, as the figure binaries do;
/// returns a digest of the classes.
fn classify(seconds: &[SecondStats]) -> u64 {
    let bins = UtilizationBins::build(seconds);
    let classifier = CongestionClassifier::from_measurements(&bins);
    let classes: Vec<_> = seconds
        .iter()
        .map(|s| classifier.classify(s.utilization_pct()))
        .collect();
    digest(&classes)
}

fn iteration(cells: &[Cell]) -> (Timed, Vec<CellCheck>) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let outs = run_parallel(cells, threads(), |c| {
        let t = Instant::now();
        let scenario = c.build();
        let build_s = t.elapsed().as_secs_f64();
        (scenario.run(), build_s)
    });
    let mut pooled = Vec::new();
    let mut checks = Vec::new();
    let mut frames = 0;
    let mut setup_s = 0.0;
    for (result, build_s) in outs {
        let per: Vec<Vec<SecondStats>> = result.traces.iter().map(|t| analyze(t)).collect();
        checks.push(check_of(
            result.events_processed,
            result.frames_on_air,
            result.medium_stats.clone(),
            &per,
        ));
        frames += result.frames_on_air;
        setup_s += build_s;
        pooled.extend(per.into_iter().flatten());
    }
    std::hint::black_box(classify(&pooled));
    let timed = Timed {
        setup_s,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        work: frames as f64,
    };
    (timed, checks)
}

/// The untraced run: end-to-end metrics.
pub fn untraced(args: &Args) -> Report {
    let cells = cells(args.seed);
    let (iters, host_ref) = repeat_for(args.seconds, || iteration(&cells));
    let peak = peak_rss_mb();
    let reference = reference(&cells);
    let checks: Vec<Vec<CellCheck>> = iters.iter().map(|i| i.1.clone()).collect();
    let failed = count_failures(args.seed, &reference, &checks);
    let timed: Vec<Timed> = iters.iter().map(|i| i.0).collect();
    Report {
        correct: failed == 0,
        attempted: (iters.len() * cells.len()) as u64,
        failed,
        metrics: batch_metrics("sweep", &timed, &host_ref, peak),
    }
}

struct CellTrace {
    build_s: f64,
    run_s: f64,
    cell_s: f64,
    events: u64,
    on_air: u64,
    queue: wifi_sim::events::QueueStats,
    captured: u64,
    missed: u64,
    medium: Vec<(u64, u64)>,
    topology_bytes: f64,
    traces: Vec<Vec<FrameRecord>>,
    ground_truth: usize,
}

fn traced_iteration(cells: &[Cell], tr: &Tracer) -> (BTreeMap<&'static str, f64>, Vec<CellCheck>) {
    let cpu0 = process_cpu_s();
    let ((outs, pool_s, per, persec_s), wall_s) = tr.span("sweep.iteration", None, |root| {
        let (outs, pool_s) = tr.span("sweep.pool", Some(root), |pool| {
            run_parallel(cells, threads(), |c| {
                let (mut out, cell_s) = tr.span("sweep.cell", Some(pool), |cell| {
                    let (mut sc, build_s) = tr.span("workloads.build", Some(cell), |_| c.build());
                    let until = sc.duration_us;
                    let (_, run_s) =
                        tr.span("sim.run_until", Some(cell), |_| sc.sim.run_until(until));
                    let sim = &mut sc.sim;
                    let stats: Vec<_> = sim.sniffers().iter().map(|s| s.stats).collect();
                    CellTrace {
                        build_s,
                        run_s,
                        cell_s: 0.0,
                        events: sim.events_processed(),
                        on_air: sim.ground_truth.transmissions,
                        queue: sim.queue_stats(),
                        captured: stats.iter().map(|s| s.captured).sum(),
                        missed: stats.iter().map(|s| s.total_on_air() - s.captured).sum(),
                        medium: sim.medium_stats(),
                        topology_bytes: topology_bytes(sim.stations().len(), sim.sniffers().len()),
                        traces: sim
                            .sniffers_mut()
                            .iter_mut()
                            .map(|s| std::mem::take(&mut s.trace))
                            .collect(),
                        ground_truth: sim.ground_truth.records.len(),
                    }
                });
                out.cell_s = cell_s;
                out
            })
        });
        let (per, persec_s) = tr.span("core.persec", Some(root), |_| {
            outs.iter()
                .map(|o| {
                    o.traces
                        .iter()
                        .map(|t| analyze(t))
                        .collect::<Vec<Vec<SecondStats>>>()
                })
                .collect::<Vec<_>>()
        });
        let pooled: Vec<SecondStats> = per.iter().flatten().flatten().cloned().collect();
        tr.span("core.classify", Some(root), |_| {
            std::hint::black_box(classify(&pooled))
        });
        (outs, pool_s, per, persec_s)
    });
    let cpu_s = process_cpu_s() - cpu0;
    let checks = outs
        .iter()
        .zip(&per)
        .map(|(o, p)| check_of(o.events, o.on_air, o.medium.clone(), p))
        .collect();
    let sum = |f: fn(&CellTrace) -> f64| outs.iter().map(f).sum::<f64>();
    let events = sum(|o| o.events as f64);
    let on_air = sum(|o| o.on_air as f64);
    let pushed = sum(|o| o.queue.pushed as f64);
    let stale = sum(|o| o.queue.stale_dropped as f64);
    let run_s = sum(|o| o.run_s);
    let records = sum(|o| o.traces.iter().map(Vec::len).sum::<usize>() as f64);
    let cell_times: Vec<f64> = outs.iter().map(|o| o.cell_s).collect();
    let busy: f64 = cell_times.iter().sum();
    let buffered = records + sum(|o| o.ground_truth as f64);
    let seconds: usize = per.iter().flatten().map(Vec::len).sum();
    let mut m = BTreeMap::new();
    m.insert("workloads.build_s", sum(|o| o.build_s));
    m.insert("sim.run_until_s", run_s);
    m.insert("sim.events", events);
    m.insert("sim.ns_per_event", run_s / events * 1e9);
    m.insert("sim.events_per_frame", events / on_air);
    m.insert("sim.frames_on_air", on_air);
    m.insert("sim.queue.pushed", pushed);
    m.insert("sim.queue.popped", sum(|o| o.queue.popped as f64));
    m.insert("sim.queue.stale_dropped", stale);
    m.insert("sim.queue.cascaded", sum(|o| o.queue.cascaded as f64));
    m.insert("sim.queue.stale_frac", stale / pushed);
    m.insert("sim.sniffer.captured", sum(|o| o.captured as f64));
    m.insert("sim.sniffer.missed", sum(|o| o.missed as f64));
    m.insert(
        "sim.medium.transmissions",
        sum(|o| o.medium.iter().map(|m| m.0).sum::<u64>() as f64),
    );
    m.insert(
        "sim.medium.collisions",
        sum(|o| o.medium.iter().map(|m| m.1).sum::<u64>() as f64),
    );
    m.insert(
        "sim.topology.bytes",
        outs.iter().map(|o| o.topology_bytes).fold(0.0, f64::max),
    );
    m.insert("sweep.cell_p50_s", median(&cell_times));
    m.insert(
        "sweep.cell_max_s",
        cell_times.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "sweep.pool_idle_frac",
        1.0 - busy / (threads() as f64 * pool_s),
    );
    m.insert(
        "sweep.result_mb",
        buffered * std::mem::size_of::<FrameRecord>() as f64 / 1e6,
    );
    m.insert("core.persec_s", persec_s);
    m.insert("core.persec.records", records);
    m.insert("core.persec.seconds", seconds as f64);
    m.insert("core.persec.ns_per_record", persec_s / records * 1e9);
    m.insert("wall_s", wall_s);
    m.insert("cpu_s", cpu_s);
    (m, checks)
}

/// The traced run: per-layer metrics from spans around each public call.
pub fn traced(args: &Args, tr: &Tracer) -> Report {
    let cells = cells(args.seed);
    // Constructors one at a time on this thread, so the heap peak is the
    // constructor's own.
    let build_peak = cells
        .iter()
        .map(|c| heap_peak_mb(|| c.build()).1)
        .fold(0.0, f64::max);
    let (iters, host_ref) = repeat_for(args.seconds, || traced_iteration(&cells, tr));
    let reference = reference(&cells);
    let checks: Vec<Vec<CellCheck>> = iters.iter().map(|i| i.1.clone()).collect();
    let failed = count_failures(args.seed, &reference, &checks);
    let maps: Vec<_> = iters.into_iter().map(|i| i.0).collect();
    let mut metrics = median_by_key(&maps);
    scale_traced_times(&mut metrics, &maps, &host_ref);
    metrics.insert("workloads.build_peak_mb", build_peak);
    let attempted = (maps.len() * cells.len()) as u64;
    metrics.insert("error_rate", failed as f64 / attempted as f64);
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}
