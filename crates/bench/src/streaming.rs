//! Chunked scenario execution with streaming per-second analysis.
//!
//! [`Scenario::run`] buffers every captured frame until the end and analyzes
//! post hoc — O(frames) peak memory, which at congestion-knee scale is the
//! dominant allocation. Every run here instead goes through one chunk loop:
//! it advances the simulator one time chunk at a time (repeated `run_until`
//! calls are pure continuations of the same event queue, so results are
//! identical), drains each sniffer's trace into its [`SecondAccumulator`]
//! after every chunk, and keeps no ground-truth tape (the on-air counter
//! still runs). Peak memory is O(chunk + seconds), however long the run;
//! `tests/alloc_bounds.rs` asserts that.
//!
//! The entry points differ only in what they hand that loop:
//!
//! * [`run_streaming`] — one simulator, no hook.
//! * [`run_streaming_mobile`] — one simulator plus a tick hook that moves
//!   the waypoint walkers at every mobility-tick boundary.
//! * [`run_sharded`] — a plan of RF-isolation sub-simulators
//!   ([`wifi_sim::shard`]), each run through the loop on a worker pool and
//!   merged to results byte-identical to the unsharded run. A scenario that
//!   does not split runs unsharded.

use congestion::persec::{SecondAccumulator, SecondStats};
use ietf_workloads::{MobileScenario, Scenario, ShardScenario};
use wifi_frames::timing::Micros;
use wifi_sim::events::QueueStats;
use wifi_sim::runner::run_parallel;
use wifi_sim::shard::{Shard, ShardSpec};
use wifi_sim::sniffer::SnifferStats;
use wifi_sim::Simulator;

/// What a streaming run yields: the analysis, plus the counters the run
/// reports and perf baselines need. Raw traces are intentionally absent —
/// not buffering them is the point.
pub struct StreamedRun {
    /// Scenario name.
    pub name: String,
    /// Per-sniffer per-second statistics (same order as the sniffers).
    pub per_sniffer_seconds: Vec<Vec<SecondStats>>,
    /// Capture-performance counters per sniffer.
    pub sniffer_stats: Vec<SnifferStats>,
    /// `(transmissions, collisions)` per channel.
    pub medium_stats: Vec<(u64, u64)>,
    /// Discrete events processed.
    pub events_processed: u64,
    /// Ground-truth transmission count (independent of trace recording).
    pub frames_on_air: u64,
    /// Event-queue churn counters (pushed/popped/stale-dropped/cascaded).
    pub queue: QueueStats,
}

/// A hook the chunk loop calls at every multiple of its period that falls
/// strictly inside the run.
type Tick<'a> = (Micros, &'a mut dyn FnMut(&mut Simulator));

/// The chunk loop every simulated run goes through: runs `sim` to
/// `duration_us` in `chunk_us` steps and folds each sniffer's captures into
/// its accumulator after every step. With a `tick`, steps are also clipped
/// to tick boundaries, so the hook never lands mid-step and the stream stays
/// a pure continuation of the event queue between hooks. The ground-truth
/// tape is switched off: nothing here reads it, and it grows with duration.
fn drive(
    sim: &mut Simulator,
    duration_us: Micros,
    chunk_us: Micros,
    mut tick: Option<Tick<'_>>,
) -> Vec<Vec<SecondStats>> {
    let chunk_us = chunk_us.max(1);
    let tick_us = tick.as_ref().map_or(Micros::MAX, |(t, _)| (*t).max(1));
    sim.config.record_ground_truth = false;
    let mut accs: Vec<SecondAccumulator> = sim
        .sniffers()
        .iter()
        .map(|_| SecondAccumulator::new())
        .collect();
    let mut now: Micros = 0;
    let mut next_tick = tick_us;
    while now < duration_us {
        now = now.saturating_add(chunk_us).min(duration_us).min(next_tick);
        sim.run_until(now);
        for (sniffer, acc) in sim.sniffers_mut().iter_mut().zip(&mut accs) {
            for record in sniffer.trace.drain(..) {
                acc.push(record);
            }
        }
        if now == next_tick && now < duration_us {
            if let Some((_, hook)) = &mut tick {
                hook(sim);
            }
            next_tick = next_tick.saturating_add(tick_us);
        }
    }
    accs.into_iter().map(SecondAccumulator::finish).collect()
}

/// Packs a finished simulator's counters and the loop's analysis.
fn streamed(
    name: String,
    sim: &Simulator,
    per_sniffer_seconds: Vec<Vec<SecondStats>>,
) -> StreamedRun {
    StreamedRun {
        name,
        per_sniffer_seconds,
        sniffer_stats: sim.sniffers().iter().map(|s| s.stats).collect(),
        medium_stats: sim.medium_stats(),
        events_processed: sim.events_processed(),
        frames_on_air: sim.ground_truth.transmissions,
        queue: sim.queue_stats(),
    }
}

/// Runs `scenario` to completion in `chunk_us` steps, folding captured
/// frames into per-sniffer accumulators as they appear.
///
/// ```
/// use congestion_bench::streaming::run_streaming;
/// use ietf_workloads::load_ramp;
///
/// let run = run_streaming(load_ramp(7, 4, 2, 1.0), 1_000_000);
/// assert!(run.events_processed > 0);
/// for seconds in &run.per_sniffer_seconds {
///     assert_eq!(seconds.len(), 2); // one row per simulated second
/// }
/// ```
pub fn run_streaming(mut scenario: Scenario, chunk_us: Micros) -> StreamedRun {
    let seconds = drive(&mut scenario.sim, scenario.duration_us, chunk_us, None);
    streamed(scenario.name, &scenario.sim, seconds)
}

/// Mobility counters of a finished [`run_streaming_mobile`] run, reported
/// alongside the [`StreamedRun`] for the churn trajectory entries.
#[derive(Clone, Copy, Debug)]
pub struct MobilityStats {
    /// Walkers registered with the waypoint model.
    pub walkers: usize,
    /// Positions applied via `Simulator::move_station`.
    pub moves: u64,
    /// Roams triggered via `Simulator::reassociate_strongest`.
    pub roams: u64,
}

/// [`run_streaming`] for a [`MobileScenario`]: the waypoint walkers advance
/// at every mobility-tick boundary before the run's end (the final boundary
/// moves nothing — nothing is left to observe it).
pub fn run_streaming_mobile(
    mut scenario: MobileScenario,
    chunk_us: Micros,
) -> (StreamedRun, MobilityStats) {
    let tick_us = scenario.tick_us.max(1);
    let mobility = &mut scenario.mobility;
    let mut walk = |sim: &mut Simulator| mobility.advance(sim, tick_us);
    let seconds = drive(
        &mut scenario.sim,
        scenario.duration_us,
        chunk_us,
        Some((tick_us, &mut walk)),
    );
    let stats = MobilityStats {
        walkers: scenario.mobility.walker_count(),
        moves: scenario.mobility.moves,
        roams: scenario.mobility.roams,
    };
    (streamed(scenario.name, &scenario.sim, seconds), stats)
}

/// What a sharded run yields: the merged [`StreamedRun`] plus how the
/// scenario was cut up.
pub struct ShardedRun {
    /// The merged result — field-for-field comparable with an unsharded
    /// [`run_streaming`] of the same scenario (`queue` excepted: timing-
    /// wheel churn like cascade counts depends on how events distribute
    /// over wheels, so it is observability, not output).
    pub run: StreamedRun,
    /// Sub-simulators the scenario ran as (1 when sharding declined).
    pub shards: usize,
    /// RF-isolation components found (the parallelism ceiling).
    pub components: usize,
    /// Always `false`: no lockstep executor exists. Kept only because the
    /// benchmark reads it (`sim.shard.lockstep`); it goes once the
    /// benchmark drops its `sim.shard.lockstep*` metrics.
    pub lockstep: bool,
}

/// Runs a recorded scenario with intra-scenario parallelism: the station
/// graph is partitioned into RF-isolation shards ([`wifi_sim::shard`]),
/// each shard's event loop runs on the [`run_parallel`] work queue across
/// `threads` workers, and the per-shard results merge into one
/// [`StreamedRun`].
///
/// Every sniffer lives in exactly one shard (the planner merges everything
/// a sniffer can hear into its component), so per-sniffer seconds and
/// counters need no cross-shard merging — they are placed by global sniffer
/// index. Channel-level medium stats and the scalar counters sum. The
/// merged output is identical to the unsharded run for any `max_shards` and
/// `threads` (`tests/shard_prop.rs` pins this): determinism comes from
/// per-entity RNG streams keyed by scenario-wide build indices, not from
/// the schedule.
///
/// When the scenario cannot be sharded (dynamic channel management, or a
/// client whose channel has no AP), it falls back to one unsharded shard.
///
/// The paper's plenary is one dense coupled cell per channel, so it runs as
/// at most three shards, however high the cap:
///
/// ```
/// use congestion_bench::streaming::{run_sharded, run_streaming};
/// use ietf_workloads::{ietf_plenary, ietf_plenary_sharded, SessionScale};
///
/// let scale = SessionScale { seed: 3, users: 24, duration_s: 1, activity: 1.0, rts_fraction: 0.0 };
/// let sharded = run_sharded(ietf_plenary_sharded(scale), 1_000_000, 4, 6);
/// assert_eq!((sharded.shards, sharded.components), (3, 3));
///
/// // The merged result reproduces the serial run bit for bit.
/// let serial = run_streaming(ietf_plenary(scale), 1_000_000);
/// assert_eq!(sharded.run.events_processed, serial.events_processed);
/// assert_eq!(sharded.run.medium_stats, serial.medium_stats);
/// assert_eq!(
///     format!("{:?}", sharded.run.per_sniffer_seconds),
///     format!("{:?}", serial.per_sniffer_seconds),
/// );
/// ```
pub fn run_sharded(
    scenario: ShardScenario,
    chunk_us: Micros,
    threads: usize,
    max_shards: usize,
) -> ShardedRun {
    let ShardScenario {
        name,
        duration_us,
        spec,
    } = scenario;
    let Some(plan) = spec.partition(max_shards) else {
        let run = run_streaming(
            Scenario {
                name,
                duration_us,
                sim: spec.build_unsharded(),
            },
            chunk_us,
        );
        return ShardedRun {
            run,
            shards: 1,
            components: 1,
            lockstep: false,
        };
    };
    let runs = run_parallel(&plan.shards, threads, |shard: &Shard| {
        // Sub-simulators are built inside the worker (a Simulator is not
        // Send; the spec is).
        let mut sim = spec.build_shard(shard);
        let seconds = drive(&mut sim, duration_us, chunk_us, None);
        streamed(String::new(), &sim, seconds)
    });
    ShardedRun {
        run: merge_shard_runs(name, &spec, plan.shards.iter().zip(runs)),
        shards: plan.shards.len(),
        components: plan.components,
        lockstep: false,
    }
}

/// Merges per-shard runs into one [`StreamedRun`]. Placement and sums
/// only: every sniffer lives in exactly one shard (its shard-local sniffers
/// are that shard's global indices in order), and medium stats and the
/// scalar counters are disjoint per shard, so the merge is exact.
fn merge_shard_runs<'a>(
    name: String,
    spec: &ShardSpec,
    runs: impl Iterator<Item = (&'a Shard, StreamedRun)>,
) -> StreamedRun {
    let mut merged = StreamedRun {
        name,
        per_sniffer_seconds: vec![Vec::new(); spec.sniffer_count()],
        sniffer_stats: vec![SnifferStats::default(); spec.sniffer_count()],
        medium_stats: vec![(0, 0); spec.config().channels.len()],
        events_processed: 0,
        frames_on_air: 0,
        queue: QueueStats::default(),
    };
    for (shard, run) in runs {
        let local = run.per_sniffer_seconds.into_iter().zip(run.sniffer_stats);
        for (gi, (seconds, stats)) in shard.sniffer_indices().zip(local) {
            merged.per_sniffer_seconds[gi] = seconds;
            merged.sniffer_stats[gi] = stats;
        }
        for (sum, (tx, coll)) in merged.medium_stats.iter_mut().zip(run.medium_stats) {
            sum.0 += tx;
            sum.1 += coll;
        }
        merged.events_processed += run.events_processed;
        merged.frames_on_air += run.frames_on_air;
        merged.queue.pushed += run.queue.pushed;
        merged.queue.popped += run.queue.popped;
        merged.queue.stale_dropped += run.queue.stale_dropped;
        merged.queue.cascaded += run.queue.cascaded;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::analyze;
    use ietf_workloads::{load_ramp, mobile_venue, ChurnScale};

    /// The streaming path must reproduce the batch path exactly: same
    /// events, same captures, same per-second statistics.
    #[test]
    fn streaming_matches_batch_run() {
        let batch = load_ramp(7, 8, 6, 1.5).run();
        let streamed = run_streaming(load_ramp(7, 8, 6, 1.5), 750_000);
        assert_eq!(streamed.events_processed, batch.events_processed);
        assert_eq!(streamed.frames_on_air, batch.frames_on_air);
        assert_eq!(streamed.medium_stats, batch.medium_stats);
        assert_eq!(streamed.sniffer_stats.len(), batch.sniffer_stats.len());
        for (s, b) in streamed.sniffer_stats.iter().zip(&batch.sniffer_stats) {
            assert_eq!(s.captured, b.captured);
            assert_eq!(s.total_on_air(), b.total_on_air());
        }
        for (seconds, trace) in streamed.per_sniffer_seconds.iter().zip(&batch.traces) {
            let expect = analyze(trace);
            assert_eq!(seconds.len(), expect.len());
            for (got, want) in seconds.iter().zip(&expect) {
                assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
        }
    }

    /// Clipping chunks to tick boundaries must be invisible: the chunk loop
    /// with a do-nothing hook every 400 ms is byte-identical to
    /// [`run_streaming`] — same analysis, same counters, whatever the chunk
    /// size. (Named for the two-thread pipelined runner it once compared;
    /// that runner is gone and the serial loop is the only path.)
    #[test]
    fn pipelined_matches_serial_streaming() {
        for chunk_us in [750_000u64, 5_000_000] {
            let serial = run_streaming(load_ramp(7, 8, 6, 1.5), chunk_us);
            let mut scenario = load_ramp(7, 8, 6, 1.5);
            let mut ticks = 0u32;
            let mut count = |_: &mut Simulator| ticks += 1;
            let seconds = drive(
                &mut scenario.sim,
                scenario.duration_us,
                chunk_us,
                Some((400_000, &mut count)),
            );
            let ticked = streamed(scenario.name, &scenario.sim, seconds);
            assert_eq!(ticks, 14, "one hook per boundary strictly inside 6 s");
            assert_eq!(ticked.events_processed, serial.events_processed);
            assert_eq!(ticked.frames_on_air, serial.frames_on_air);
            assert_eq!(ticked.medium_stats, serial.medium_stats);
            assert_eq!(ticked.queue, serial.queue);
            assert_eq!(
                format!("{:?}", ticked.sniffer_stats),
                format!("{:?}", serial.sniffer_stats)
            );
            assert_eq!(
                format!("{:?}", ticked.per_sniffer_seconds),
                format!("{:?}", serial.per_sniffer_seconds)
            );
        }
    }

    fn small_churn(seed: u64) -> MobileScenario {
        mobile_venue(ChurnScale {
            seed,
            users: 12,
            duration_s: 20,
            activity: 0.5,
            walker_fraction: 1.0,
        })
    }

    /// The tick-by-tick mobile driver the chunk loop replaced, kept as its
    /// oracle: run to each tick, move the walkers, repeat; buffer every
    /// trace and analyze post hoc.
    fn mobile_tick_loop(mut sc: MobileScenario) -> (StreamedRun, MobilityStats) {
        let mut now: Micros = 0;
        while now < sc.duration_us {
            now = (now + sc.tick_us).min(sc.duration_us);
            sc.sim.run_until(now);
            if now < sc.duration_us {
                sc.mobility.advance(&mut sc.sim, sc.tick_us);
            }
        }
        let seconds = sc
            .sim
            .sniffers()
            .iter()
            .map(|s| analyze(&s.trace))
            .collect();
        let stats = MobilityStats {
            walkers: sc.mobility.walker_count(),
            moves: sc.mobility.moves,
            roams: sc.mobility.roams,
        };
        (streamed(sc.name, &sc.sim, seconds), stats)
    }

    /// The mobile path must reproduce the tick-by-tick oracle exactly for
    /// chunks shorter than, equal to and longer than the 4 s tick.
    #[test]
    fn mobile_streaming_matches_tick_loop() {
        let (want, want_moves) = mobile_tick_loop(small_churn(3));
        assert!(want_moves.moves > 0, "walkers moved");
        for chunk_us in [750_000u64, 4_000_000, 5_000_000] {
            let (got, moves) = run_streaming_mobile(small_churn(3), chunk_us);
            assert_eq!(got.events_processed, want.events_processed, "{chunk_us}");
            assert_eq!(got.frames_on_air, want.frames_on_air, "{chunk_us}");
            assert_eq!(got.medium_stats, want.medium_stats, "{chunk_us}");
            assert_eq!(
                format!("{:?}", got.sniffer_stats),
                format!("{:?}", want.sniffer_stats),
                "{chunk_us}"
            );
            assert_eq!(
                format!("{:?}", got.per_sniffer_seconds),
                format!("{:?}", want.per_sniffer_seconds),
                "{chunk_us}"
            );
            assert_eq!(
                (moves.walkers, moves.moves, moves.roams),
                (want_moves.walkers, want_moves.moves, want_moves.roams),
                "{chunk_us}"
            );
        }
    }

    #[test]
    fn churn_run_is_deterministic_in_its_seed() {
        let run = |seed: u64| {
            let (run, mobility) = run_streaming_mobile(small_churn(seed), 1_000_000);
            (
                run.events_processed,
                run.frames_on_air,
                mobility.moves,
                mobility.roams,
            )
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same churn run");
    }
    /// A sharded campus run must merge to exactly the unsharded streaming
    /// result — for every shard cap and worker count (queue churn excepted;
    /// see [`ShardedRun::run`]).
    #[test]
    fn sharded_campus_matches_unsharded() {
        use ietf_workloads::{venue_campus, CampusScale};
        let scale = CampusScale {
            seed: 5,
            halls: 3,
            users: 24,
            duration_s: 6,
            activity: 1.0,
        };
        let reference = venue_campus(scale);
        let baseline = run_streaming(
            Scenario {
                name: reference.name.clone(),
                duration_us: reference.duration_us,
                sim: reference.spec.build_unsharded(),
            },
            1_000_000,
        );
        for (threads, max_shards) in [(1, 1), (1, 16), (4, 16), (4, 3)] {
            let sharded = run_sharded(venue_campus(scale), 1_000_000, threads, max_shards);
            assert!(
                sharded.shards <= max_shards,
                "shard cap violated (got {} shards, cap {max_shards})",
                sharded.shards
            );
            if max_shards > 1 {
                assert!(
                    sharded.shards > 1,
                    "campus should actually shard (got {} shards, cap {max_shards})",
                    sharded.shards
                );
            }
            // 3 halls × 3 channels of mutually isolated cells.
            assert_eq!(sharded.components, 9);
            let run = &sharded.run;
            assert_eq!(run.events_processed, baseline.events_processed);
            assert_eq!(run.frames_on_air, baseline.frames_on_air);
            assert_eq!(run.medium_stats, baseline.medium_stats);
            assert_eq!(
                format!("{:?}", run.sniffer_stats),
                format!("{:?}", baseline.sniffer_stats)
            );
            for (s, b) in run
                .per_sniffer_seconds
                .iter()
                .zip(&baseline.per_sniffer_seconds)
            {
                assert_eq!(format!("{s:?}"), format!("{b:?}"));
            }
        }
    }

    /// The plenary is one coupled cell per channel: for every shard cap it
    /// runs as `min(cap, 3)` shards of three components and merges to
    /// exactly the unsharded streaming result.
    #[test]
    fn sharded_plenary_matches_unsharded() {
        use ietf_workloads::{ietf_plenary, ietf_plenary_sharded, SessionScale};
        let scale = SessionScale {
            seed: 13,
            users: 40,
            duration_s: 4,
            activity: 1.5,
            rts_fraction: 0.02,
        };
        let baseline = run_streaming(ietf_plenary(scale), 1_000_000);
        for (threads, max_shards) in [(1, 1), (2, 2), (4, 3), (2, 6)] {
            let sharded = run_sharded(ietf_plenary_sharded(scale), 1_000_000, threads, max_shards);
            assert_eq!(sharded.components, 3, "one coupled cell per channel");
            assert_eq!(sharded.shards, max_shards.min(3), "cap {max_shards}");
            let run = &sharded.run;
            assert_eq!(run.events_processed, baseline.events_processed);
            assert_eq!(run.frames_on_air, baseline.frames_on_air);
            assert_eq!(run.medium_stats, baseline.medium_stats);
            assert_eq!(
                format!("{:?}", run.sniffer_stats),
                format!("{:?}", baseline.sniffer_stats)
            );
            for (s, b) in run
                .per_sniffer_seconds
                .iter()
                .zip(&baseline.per_sniffer_seconds)
            {
                assert_eq!(format!("{s:?}"), format!("{b:?}"));
            }
        }
    }

    /// Chunk size must not matter — continuations are exact.
    #[test]
    fn chunk_size_is_invisible() {
        let coarse = run_streaming(load_ramp(9, 6, 5, 1.5), 5_000_000);
        let fine = run_streaming(load_ramp(9, 6, 5, 1.5), 100_000);
        assert_eq!(coarse.events_processed, fine.events_processed);
        assert_eq!(coarse.frames_on_air, fine.frames_on_air);
        for (c, f) in coarse
            .per_sniffer_seconds
            .iter()
            .zip(&fine.per_sniffer_seconds)
        {
            assert_eq!(format!("{c:?}"), format!("{f:?}"));
        }
    }
}
