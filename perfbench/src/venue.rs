//! `venue`: the 5,000-user campus (`venue_campus(CampusScale::venue_5k)`)
//! through `run_sharded` on one thread per CPU at the default shard cap.
//! Set-up, topology and shard planning dominate and the per-station event
//! load is light; planning memory and shard imbalance show only here.

use crate::sweep::CellCheck;
use crate::sys::{heap_peak_mb, peak_rss_mb, process_cpu_s};
use crate::tracer::Tracer;
use crate::{
    batch_metrics, digest, median_by_key, repeat_for, scale_traced_times, threads, topology_bytes,
    Args, Report, Timed,
};
use congestion::persec::{SecondAccumulator, SecondStats};
use congestion_bench::streaming::{run_sharded, run_streaming, StreamedRun};
use ietf_workloads::{venue_campus, CampusScale, Scenario};
use std::collections::BTreeMap;
use std::time::Instant;
use wifi_frames::timing::{Micros, SECOND};
use wifi_sim::runner::run_parallel;
use wifi_sim::shard::{Shard, DEFAULT_LOCKSTEP_WINDOW_US};

/// Chunk length of the sharded driver, as the `venue-5k` pin uses.
const CHUNK_US: Micros = SECOND;
/// The default shard cap: as many shards as the topology allows.
const MAX_SHARDS: usize = usize::MAX;

/// Expected `(events, frames on air, seconds digest)` for the default seed
/// (1) and the held-out seed (2).
const EXPECTED: &[(u64, (u64, u64, u64))] = &[
    (1, (2_085_636, 235_227, 0x7a5c_e650_7779_1c2b)),
    (2, (2_130_070, 245_566, 0xae87_4fc5_7975_e1f4)),
];

fn check_of(run: &StreamedRun) -> CellCheck {
    CellCheck {
        events: run.events_processed,
        on_air: run.frames_on_air,
        medium: run.medium_stats.clone(),
        seconds: digest(&run.per_sniffer_seconds),
    }
}

/// The oracle: the same campus unsharded through the streaming driver.
fn reference(seed: u64) -> CellCheck {
    let sc = venue_campus(CampusScale::venue_5k(seed));
    let sim = sc.spec.build_unsharded();
    check_of(&run_streaming(
        Scenario {
            name: sc.name,
            duration_us: sc.duration_us,
            sim,
        },
        CHUNK_US,
    ))
}

fn count_failures(seed: u64, reference: &CellCheck, iters: &[CellCheck]) -> u64 {
    let mut failed = 0;
    let r = reference;
    match EXPECTED.iter().find(|(s, _)| *s == seed) {
        Some((_, p)) if (r.events, r.on_air, r.seconds) != *p => {
            eprintln!(
                "venue: seed {seed} differs from pinned: got ({}, {}, {:#x}), pinned ({}, {}, {:#x})",
                r.events, r.on_air, r.seconds, p.0, p.1, p.2
            );
            failed += 1;
        }
        Some(_) => {}
        None => {
            eprintln!("venue: seed {seed} has no pinned values; checking against the unsharded run")
        }
    }
    for got in iters {
        if got != reference {
            eprintln!("venue: sharded run mismatch: got {got:?}, want {reference:?}");
            failed += 1;
        }
    }
    eprintln!(
        "venue: seed {seed} events={} on_air={} seconds_digest={:#x}",
        r.events, r.on_air, r.seconds
    );
    failed
}

/// The untraced run: end-to-end metrics.
pub fn untraced(args: &Args) -> Report {
    let (iters, host_ref) = repeat_for(args.seconds, || {
        let t = Instant::now();
        let sc = venue_campus(CampusScale::venue_5k(args.seed));
        let setup_s = t.elapsed().as_secs_f64();
        let cpu0 = process_cpu_s();
        let t = Instant::now();
        let run = run_sharded(sc, CHUNK_US, threads(), MAX_SHARDS);
        let timed = Timed {
            setup_s,
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - cpu0,
            work: run.run.frames_on_air as f64,
        };
        (timed, check_of(&run.run))
    });
    let peak = peak_rss_mb();
    let checks: Vec<CellCheck> = iters.iter().map(|i| i.1.clone()).collect();
    let failed = count_failures(args.seed, &reference(args.seed), &checks);
    let timed: Vec<Timed> = iters.iter().map(|i| i.0).collect();
    Report {
        correct: failed == 0,
        attempted: iters.len() as u64,
        failed,
        metrics: batch_metrics("venue", &timed, &host_ref, peak),
    }
}

/// One shard as `run_sharded` runs it, with the build, event loop and
/// per-second accumulation timed apart.
struct ShardTrace {
    build_s: f64,
    run_s: f64,
    persec_s: f64,
    busy_s: f64,
    events: u64,
    on_air: u64,
    queue: wifi_sim::events::QueueStats,
    captured: u64,
    missed: u64,
    medium: Vec<(u64, u64)>,
    records: u64,
    seconds: Vec<(usize, Vec<SecondStats>)>,
}

fn traced_shard(
    spec: &wifi_sim::shard::ShardSpec,
    shard: &Shard,
    duration_us: Micros,
    tr: &Tracer,
    parent: u64,
) -> ShardTrace {
    let (mut out, busy_s) = tr.span("sim.shard.run", Some(parent), |id| {
        let (mut sim, build_s) = tr.span("sim.shard.build", Some(id), |_| spec.build_shard(shard));
        let sniffers: Vec<usize> = shard.sniffer_indices().collect();
        let mut accs: Vec<SecondAccumulator> =
            sniffers.iter().map(|_| SecondAccumulator::new()).collect();
        let (mut run_s, mut persec_s, mut records) = (0.0, 0.0, 0u64);
        let mut now = 0;
        while now < duration_us {
            now = (now + CHUNK_US).min(duration_us);
            run_s += tr.span("sim.run_until", Some(id), |_| sim.run_until(now)).1;
            persec_s += tr
                .span("core.persec", Some(id), |_| {
                    for (sniffer, acc) in sim.sniffers_mut().iter_mut().zip(&mut accs) {
                        for record in sniffer.trace.drain(..) {
                            records += 1;
                            acc.push(record);
                        }
                    }
                })
                .1;
        }
        let stats: Vec<_> = sim.sniffers().iter().map(|s| s.stats).collect();
        ShardTrace {
            build_s,
            run_s,
            persec_s,
            busy_s: 0.0,
            events: sim.events_processed(),
            on_air: sim.ground_truth.transmissions,
            queue: sim.queue_stats(),
            captured: stats.iter().map(|s| s.captured).sum(),
            missed: stats.iter().map(|s| s.total_on_air() - s.captured).sum(),
            medium: sim.medium_stats(),
            records,
            seconds: sniffers
                .into_iter()
                .zip(accs)
                .map(|(gi, acc)| (gi, acc.finish()))
                .collect(),
        }
    });
    out.busy_s = busy_s;
    out
}

fn traced_iteration(seed: u64, tr: &Tracer) -> (BTreeMap<&'static str, f64>, CellCheck) {
    let mut m = BTreeMap::new();
    // The monolithic driver, timed whole: the traced end-to-end numbers.
    let cpu0 = process_cpu_s();
    let (sc, build_s) = tr.span("workloads.build", None, |_| {
        venue_campus(CampusScale::venue_5k(seed))
    });
    let (run, wall_s) = tr.span("venue.run_sharded", None, |_| {
        run_sharded(sc, CHUNK_US, threads(), MAX_SHARDS)
    });
    m.insert("cpu_s", process_cpu_s() - cpu0);
    m.insert("wall_s", wall_s);
    m.insert("workloads.build_s", build_s);
    m.insert("sim.shard.shards", run.shards as f64);
    m.insert("sim.shard.components", run.components as f64);
    m.insert("sim.shard.lockstep", run.lockstep as u8 as f64);
    let check = check_of(&run.run);
    drop(run);

    // The same inputs through the driver's public pieces, timed apart.
    let sc = venue_campus(CampusScale::venue_5k(seed));
    let spec = &sc.spec;
    tr.span("venue.pieces", None, |root| {
        let (plan, partition_s) = tr.span("sim.shard.partition", Some(root), |_| {
            spec.partition(MAX_SHARDS)
        });
        let plan = plan.expect("the campus partitions into RF-isolation shards");
        let ((lockstep, peak_mb), lockstep_s) =
            tr.span("sim.shard.lockstep_plan", Some(root), |_| {
                heap_peak_mb(|| spec.partition_lockstep(MAX_SHARDS, DEFAULT_LOCKSTEP_WINDOW_US))
            });
        drop(lockstep);
        let (shards, _) = tr.span("sim.shard.pool", Some(root), |pool| {
            run_parallel(&plan.shards, threads(), |shard| {
                traced_shard(spec, shard, sc.duration_us, tr, pool)
            })
        });
        let sum = |f: fn(&ShardTrace) -> f64| shards.iter().map(f).sum::<f64>();
        let busy: Vec<f64> = shards.iter().map(|s| s.busy_s).collect();
        let busy_max = busy.iter().copied().fold(0.0, f64::max);
        let busy_sum: f64 = busy.iter().sum();
        let events = sum(|s| s.events as f64);
        let on_air = sum(|s| s.on_air as f64);
        let pushed = sum(|s| s.queue.pushed as f64);
        let stale = sum(|s| s.queue.stale_dropped as f64);
        let run_s = sum(|s| s.run_s);
        let persec_s = sum(|s| s.persec_s);
        let records = sum(|s| s.records as f64);
        m.insert("sim.shard.partition_s", partition_s);
        m.insert("sim.shard.lockstep_plan_s", lockstep_s);
        m.insert("sim.shard.lockstep_plan_peak_mb", peak_mb);
        m.insert("sim.shard.build_s", sum(|s| s.build_s));
        m.insert("sim.shard.busy_max_s", busy_max);
        m.insert("sim.shard.busy_sum_s", busy_sum);
        m.insert(
            "sim.shard.imbalance",
            busy_max / (busy_sum / busy.len() as f64),
        );
        m.insert(
            "sim.topology.bytes",
            topology_bytes(spec.station_count(), spec.sniffer_count()),
        );
        m.insert("sim.run_until_s", run_s);
        m.insert("sim.events", events);
        m.insert("sim.ns_per_event", run_s / events * 1e9);
        m.insert("sim.events_per_frame", events / on_air);
        m.insert("sim.frames_on_air", on_air);
        m.insert("sim.queue.pushed", pushed);
        m.insert("sim.queue.popped", sum(|s| s.queue.popped as f64));
        m.insert("sim.queue.stale_dropped", stale);
        m.insert("sim.queue.cascaded", sum(|s| s.queue.cascaded as f64));
        m.insert("sim.queue.stale_frac", stale / pushed);
        m.insert("sim.sniffer.captured", sum(|s| s.captured as f64));
        m.insert("sim.sniffer.missed", sum(|s| s.missed as f64));
        m.insert(
            "sim.medium.transmissions",
            sum(|s| s.medium.iter().map(|m| m.0).sum::<u64>() as f64),
        );
        m.insert(
            "sim.medium.collisions",
            sum(|s| s.medium.iter().map(|m| m.1).sum::<u64>() as f64),
        );
        let seconds: usize = shards
            .iter()
            .flat_map(|s| s.seconds.iter().map(|(_, v)| v.len()))
            .sum();
        m.insert("core.persec_s", persec_s);
        m.insert("core.persec.records", records);
        m.insert("core.persec.seconds", seconds as f64);
        m.insert("core.persec.ns_per_record", persec_s / records * 1e9);
    });
    (m, check)
}

/// The traced run: per-layer metrics from spans around each public call.
pub fn traced(args: &Args, tr: &Tracer) -> Report {
    let build_peak = heap_peak_mb(|| venue_campus(CampusScale::venue_5k(args.seed))).1;
    let (iters, host_ref) = repeat_for(args.seconds, || traced_iteration(args.seed, tr));
    let checks: Vec<CellCheck> = iters.iter().map(|i| i.1.clone()).collect();
    let failed = count_failures(args.seed, &reference(args.seed), &checks);
    let maps: Vec<_> = iters.into_iter().map(|i| i.0).collect();
    let mut metrics = median_by_key(&maps);
    scale_traced_times(&mut metrics, &maps, &host_ref);
    metrics.insert("workloads.build_peak_mb", build_peak);
    let attempted = maps.len() as u64;
    metrics.insert("error_rate", failed as f64 / attempted as f64);
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}
