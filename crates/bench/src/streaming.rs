//! Chunked scenario execution with streaming per-second analysis.
//!
//! [`Scenario::run`] buffers every captured frame until the end and analyzes
//! post hoc — O(frames) peak memory, which at congestion-knee scale is the
//! dominant allocation. [`run_streaming`] instead advances the simulator one
//! time chunk at a time (repeated `run_until` calls are pure continuations
//! of the same event queue, so results are identical), drains each sniffer's
//! trace into its [`SecondAccumulator`] after every chunk, and returns the
//! finished per-second statistics: peak memory is O(chunk + seconds), however
//! long the run.
//!
//! [`run_streaming_pipelined`] additionally overlaps the two: the event loop
//! stays on the calling thread and hands each chunk's captured frames
//! through a bounded SPSC channel to an analysis thread folding them into
//! the accumulators. Frame order through the channel is exactly the drain
//! order of the serial path, so the results are byte-identical — the only
//! difference is that analysis of chunk *n* runs while chunk *n + 1*
//! simulates.
//!
//! [`run_sharded`] adds intra-scenario parallelism on top: the scenario is
//! cut into RF-isolation components ([`wifi_sim::shard`]) that run as
//! independent sub-simulators and merge to results byte-identical to the
//! unsharded run. A scenario that does not split runs unsharded.

use congestion::persec::{SecondAccumulator, SecondStats};
use ietf_workloads::{MobileScenario, Scenario, ShardScenario};
use wifi_frames::record::FrameRecord;
use wifi_frames::timing::Micros;
use wifi_sim::events::QueueStats;
use wifi_sim::runner::run_parallel;
use wifi_sim::shard::{Shard, ShardSpec};
use wifi_sim::sniffer::SnifferStats;
use wifi_sim::spsc;
use wifi_sim::Simulator;

/// Chunks buffered in the sim→analysis channel before the producer blocks.
const PIPELINE_DEPTH: usize = 4;

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
    let chunk_us = chunk_us.max(1);
    let mut accs: Vec<SecondAccumulator> = scenario
        .sim
        .sniffers()
        .iter()
        .map(|_| SecondAccumulator::new())
        .collect();
    let mut now: Micros = 0;
    while now < scenario.duration_us {
        now = (now + chunk_us).min(scenario.duration_us);
        scenario.sim.run_until(now);
        for (sniffer, acc) in scenario.sim.sniffers_mut().iter_mut().zip(&mut accs) {
            for record in sniffer.trace.drain(..) {
                acc.push(record);
            }
        }
    }
    StreamedRun {
        name: scenario.name,
        per_sniffer_seconds: accs.into_iter().map(SecondAccumulator::finish).collect(),
        sniffer_stats: scenario.sim.sniffers().iter().map(|s| s.stats).collect(),
        medium_stats: scenario.sim.medium_stats(),
        events_processed: scenario.sim.events_processed(),
        frames_on_air: scenario.sim.ground_truth.transmissions,
        queue: scenario.sim.queue_stats(),
    }
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

/// [`run_streaming`] for a [`MobileScenario`]: chunked execution with the
/// waypoint walkers advanced at every mobility-tick boundary. Chunks are
/// clipped to tick boundaries so a move can never land mid-chunk — the
/// stream is a pure continuation of the same event queue between moves,
/// exactly like the static runner.
pub fn run_streaming_mobile(
    mut scenario: MobileScenario,
    chunk_us: Micros,
) -> (StreamedRun, MobilityStats) {
    let chunk_us = chunk_us.max(1);
    let tick_us = scenario.tick_us.max(1);
    let mut accs: Vec<SecondAccumulator> = scenario
        .sim
        .sniffers()
        .iter()
        .map(|_| SecondAccumulator::new())
        .collect();
    let mut now: Micros = 0;
    let mut next_tick = tick_us;
    while now < scenario.duration_us {
        now = (now + chunk_us).min(scenario.duration_us).min(next_tick);
        scenario.sim.run_until(now);
        for (sniffer, acc) in scenario.sim.sniffers_mut().iter_mut().zip(&mut accs) {
            for record in sniffer.trace.drain(..) {
                acc.push(record);
            }
        }
        if now == next_tick {
            if now < scenario.duration_us {
                scenario.mobility.advance(&mut scenario.sim, tick_us);
            }
            next_tick += tick_us;
        }
    }
    let stats = MobilityStats {
        walkers: scenario.mobility.walker_count(),
        moves: scenario.mobility.moves,
        roams: scenario.mobility.roams,
    };
    let run = StreamedRun {
        name: scenario.name,
        per_sniffer_seconds: accs.into_iter().map(SecondAccumulator::finish).collect(),
        sniffer_stats: scenario.sim.sniffers().iter().map(|s| s.stats).collect(),
        medium_stats: scenario.sim.medium_stats(),
        events_processed: scenario.sim.events_processed(),
        frames_on_air: scenario.sim.ground_truth.transmissions,
        queue: scenario.sim.queue_stats(),
    };
    (run, stats)
}

/// [`run_streaming`] with simulation and analysis overlapped on two threads.
///
/// The simulator (which is not `Send` and never migrates) runs chunks on the
/// calling thread; after each chunk the captured frames are drained into a
/// per-sniffer batch and sent through a bounded [`spsc`] channel to a scoped
/// analysis thread that folds them into the [`SecondAccumulator`]s. Every
/// frame reaches its accumulator in the same order as the serial path, so
/// the returned [`StreamedRun`] is byte-identical to `run_streaming`'s; the
/// channel bound keeps at most `PIPELINE_DEPTH` (4) chunks of frames alive.
pub fn run_streaming_pipelined(mut scenario: Scenario, chunk_us: Micros) -> StreamedRun {
    let chunk_us = chunk_us.max(1);
    let n_sniffers = scenario.sim.sniffers().len();
    let (tx, rx) = spsc::channel::<Vec<Vec<FrameRecord>>>(PIPELINE_DEPTH);
    let per_sniffer_seconds = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            let mut accs: Vec<SecondAccumulator> =
                (0..n_sniffers).map(|_| SecondAccumulator::new()).collect();
            while let Some(chunk) = rx.recv() {
                for (records, acc) in chunk.into_iter().zip(&mut accs) {
                    for record in records {
                        acc.push(record);
                    }
                }
            }
            accs.into_iter()
                .map(SecondAccumulator::finish)
                .collect::<Vec<_>>()
        });
        let mut now: Micros = 0;
        while now < scenario.duration_us {
            now = (now + chunk_us).min(scenario.duration_us);
            scenario.sim.run_until(now);
            let chunk: Vec<Vec<FrameRecord>> = scenario
                .sim
                .sniffers_mut()
                .iter_mut()
                .map(|s| s.trace.drain(..).collect())
                .collect();
            if tx.send(chunk).is_err() {
                break; // consumer died; its join below propagates the panic
            }
        }
        drop(tx);
        consumer.join().expect("analysis thread panicked")
    });
    StreamedRun {
        name: scenario.name,
        per_sniffer_seconds,
        sniffer_stats: scenario.sim.sniffers().iter().map(|s| s.stats).collect(),
        medium_stats: scenario.sim.medium_stats(),
        events_processed: scenario.sim.events_processed(),
        frames_on_air: scenario.sim.ground_truth.transmissions,
        queue: scenario.sim.queue_stats(),
    }
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

/// Everything one shard's sub-simulator produced.
struct ShardOut {
    /// `(global sniffer index, per-second stats, counters)`.
    sniffers: Vec<(usize, Vec<SecondStats>, SnifferStats)>,
    medium_stats: Vec<(u64, u64)>,
    events_processed: u64,
    frames_on_air: u64,
    queue: QueueStats,
}

/// Runs one sub-simulator to `duration_us` in chunks, folding its sniffer
/// traces into per-second accumulators — the per-shard half of
/// [`run_streaming`].
fn run_shard_streaming(
    mut sim: Simulator,
    sniffer_indices: Vec<usize>,
    duration_us: Micros,
    chunk_us: Micros,
) -> ShardOut {
    let mut accs: Vec<SecondAccumulator> = sniffer_indices
        .iter()
        .map(|_| SecondAccumulator::new())
        .collect();
    let mut now: Micros = 0;
    while now < duration_us {
        now = (now + chunk_us).min(duration_us);
        sim.run_until(now);
        for (sniffer, acc) in sim.sniffers_mut().iter_mut().zip(&mut accs) {
            for record in sniffer.trace.drain(..) {
                acc.push(record);
            }
        }
    }
    let sniffers = sniffer_indices
        .into_iter()
        .zip(accs)
        .zip(sim.sniffers().iter())
        .map(|((gi, acc), s)| (gi, acc.finish(), s.stats))
        .collect();
    ShardOut {
        sniffers,
        medium_stats: sim.medium_stats(),
        events_processed: sim.events_processed(),
        frames_on_air: sim.ground_truth.transmissions,
        queue: sim.queue_stats(),
    }
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
    let chunk_us = chunk_us.max(1);
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
    let outs: Vec<ShardOut> = run_parallel(&plan.shards, threads, |shard: &Shard| {
        // Sub-simulators are built inside the worker (a Simulator is not
        // Send; the spec is).
        let sim = spec.build_shard(shard);
        run_shard_streaming(
            sim,
            shard.sniffer_indices().collect(),
            duration_us,
            chunk_us,
        )
    });
    let shards = plan.shards.len();
    merge_shard_outs(name, &spec, outs, shards, plan.components)
}

/// Merges per-shard outputs into one [`ShardedRun`]. Placement and sums
/// only: every sniffer lives in exactly one shard, and medium stats and the
/// scalar counters are disjoint per shard, so the merge is exact.
fn merge_shard_outs(
    name: String,
    spec: &ShardSpec,
    outs: Vec<ShardOut>,
    shards: usize,
    components: usize,
) -> ShardedRun {
    let channels = spec.config().channels.len();
    let mut per_sniffer_seconds: Vec<Vec<SecondStats>> =
        (0..spec.sniffer_count()).map(|_| Vec::new()).collect();
    let mut sniffer_stats: Vec<SnifferStats> = vec![SnifferStats::default(); spec.sniffer_count()];
    let mut medium_stats = vec![(0u64, 0u64); channels];
    let mut events_processed = 0u64;
    let mut frames_on_air = 0u64;
    let mut queue = QueueStats::default();
    for out in outs {
        for (gi, seconds, stats) in out.sniffers {
            per_sniffer_seconds[gi] = seconds;
            sniffer_stats[gi] = stats;
        }
        for (ch, (tx, coll)) in out.medium_stats.into_iter().enumerate() {
            medium_stats[ch].0 += tx;
            medium_stats[ch].1 += coll;
        }
        events_processed += out.events_processed;
        frames_on_air += out.frames_on_air;
        queue.pushed += out.queue.pushed;
        queue.popped += out.queue.popped;
        queue.stale_dropped += out.queue.stale_dropped;
        queue.cascaded += out.queue.cascaded;
    }
    ShardedRun {
        run: StreamedRun {
            name,
            per_sniffer_seconds,
            sniffer_stats,
            medium_stats,
            events_processed,
            frames_on_air,
            queue,
        },
        shards,
        components,
        lockstep: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congestion::analyze;
    use ietf_workloads::load_ramp;

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

    /// The pipelined path must be byte-identical to the serial streaming
    /// path: same analysis, same counters, whatever the chunk size.
    #[test]
    fn pipelined_matches_serial_streaming() {
        for chunk_us in [750_000u64, 5_000_000] {
            let serial = run_streaming(load_ramp(7, 8, 6, 1.5), chunk_us);
            let piped = run_streaming_pipelined(load_ramp(7, 8, 6, 1.5), chunk_us);
            assert_eq!(piped.events_processed, serial.events_processed);
            assert_eq!(piped.frames_on_air, serial.frames_on_air);
            assert_eq!(piped.medium_stats, serial.medium_stats);
            assert_eq!(piped.queue, serial.queue);
            assert_eq!(
                format!("{:?}", piped.sniffer_stats),
                format!("{:?}", serial.sniffer_stats)
            );
            for (p, s) in piped
                .per_sniffer_seconds
                .iter()
                .zip(&serial.per_sniffer_seconds)
            {
                assert_eq!(format!("{p:?}"), format!("{s:?}"));
            }
        }
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
