//! The repository benchmark: four seeded workloads over the congestion
//! pipeline, each measured end to end (untraced binary) or layer by layer
//! (traced binary). See `README.md` in this directory for the metric map.

pub mod gen;
pub mod host;
pub mod ingest;
pub mod live;
pub mod stats;
pub mod sweep;
pub mod sys;
pub mod tracer;
pub mod venue;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, in the order they are printed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p99_ms", "ms"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A layer the
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.build_peak_mb", "MB"),
    ("sim.run_until_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_frame", "ratio"),
    ("sim.frames_on_air", "count"),
    ("sim.queue.pushed", "count"),
    ("sim.queue.popped", "count"),
    ("sim.queue.stale_dropped", "count"),
    ("sim.queue.cascaded", "count"),
    ("sim.queue.stale_frac", "ratio"),
    ("sim.sniffer.captured", "count"),
    ("sim.sniffer.missed", "count"),
    ("sim.medium.transmissions", "count"),
    ("sim.medium.collisions", "count"),
    ("sim.shard.partition_s", "s"),
    ("sim.shard.lockstep_plan_s", "s"),
    ("sim.shard.lockstep_plan_peak_mb", "MB"),
    ("sim.shard.build_s", "s"),
    ("sim.shard.shards", "count"),
    ("sim.shard.components", "count"),
    ("sim.shard.lockstep", "count"),
    ("sim.shard.busy_max_s", "s"),
    ("sim.shard.busy_sum_s", "s"),
    ("sim.shard.imbalance", "ratio"),
    ("sim.topology.bytes", "bytes"),
    ("sweep.cell_p50_s", "s"),
    ("sweep.cell_max_s", "s"),
    ("sweep.pool_idle_frac", "ratio"),
    ("sweep.result_mb", "MB"),
    ("core.persec_s", "s"),
    ("core.persec.records", "count"),
    ("core.persec.seconds", "count"),
    ("core.persec.ns_per_record", "ns"),
    ("core.merge_s", "s"),
    ("core.merge.records_in", "count"),
    ("core.merge.records_out", "count"),
    ("core.merge.dedup_frac", "ratio"),
    ("trace.decode_s", "s"),
    ("trace.decode_mb_per_s", "MB/s"),
    ("trace.records", "count"),
    ("trace.bytes", "bytes"),
    ("trace.skipped", "count"),
    ("spsc.consumer_wait_s", "s"),
    ("spsc.producer_wait_s", "s"),
    ("ingest.critical_frac", "ratio"),
    ("serve.lag_us", "us"),
    ("serve.queue_depth", "count"),
    ("serve.status_p50_ms", "ms"),
    ("serve.status_p99_ms", "ms"),
    ("serve.late_dropped", "count"),
    ("serve.clamped", "count"),
    ("serve.rss_slope_kb_per_s", "kB/s"),
    ("live.gen_late_p99_ms", "ms"),
    ("error_rate", "ratio"),
    ("bench.overhead_wall_frac", "ratio"),
    ("bench.overhead_cpu_frac", "ratio"),
    ("bench.spans", "count"),
    ("bench.host_ref_s", "s"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["sweep", "venue", "ingest", "live"];

/// Command-line arguments shared by both binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// How long to measure, seconds.
    pub seconds: f64,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S [--trace 0|1]`. The trace
    /// flag picks the binary in `run.py`; each binary accepts and ignores it.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    let v = value()?;
                    seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("--seconds out of range: {v}"));
                    }
                }
                "--trace" => {
                    value()?;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?} (one of {WORKLOADS:?})"
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
        })
    }
}

/// What one run prints as its last line.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (cells, sharded runs, records).
    pub attempted: u64,
    /// Operations whose output check failed or that the program dropped.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The result line: `metrics` restricted to `schema`, in its order.
    pub fn to_json(&self, schema: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in schema.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            // JSON has no NaN/inf; an undefined metric reads 0.
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Median of each key over per-iteration maps.
pub fn median_by_key(iters: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut keys: Vec<&'static str> = iters.iter().flat_map(|m| m.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let vs: Vec<f64> = iters.iter().filter_map(|m| m.get(k).copied()).collect();
            (k, stats::median(&vs))
        })
        .collect()
}

/// Runs `f` repeatedly until `seconds` have passed (at least one
/// iteration). Before each iteration the host reference kernel is sampled
/// until it has taken its share of the time so far (see [`host`]).
pub fn repeat_for<T>(seconds: f64, mut f: impl FnMut() -> T) -> (Vec<T>, host::Reference) {
    let mut reference = host::Reference::warm(threads());
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < seconds {
        reference.keep_up(threads(), start.elapsed().as_secs_f64());
        out.push(f());
    }
    (out, reference)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Overwrites a traced run's `wall_s` and `cpu_s` (medians per key) with
/// their means in reference seconds, as the untraced run reports them, so
/// the tracing overhead compares like with like; adds `bench.host_ref_s`.
pub fn scale_traced_times(
    metrics: &mut BTreeMap<&'static str, f64>,
    iters: &[BTreeMap<&'static str, f64>],
    reference: &host::Reference,
) {
    for (key, scale) in [
        ("wall_s", reference.scale()),
        ("cpu_s", reference.cpu_scale()),
    ] {
        let vs: Vec<f64> = iters.iter().filter_map(|m| m.get(key).copied()).collect();
        metrics.insert(key, mean(&vs) * scale);
    }
    metrics.insert("bench.host_ref_s", reference.mean_s());
}

/// One timed iteration of a batch workload (`sweep`, `venue`, `ingest`).
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Program set-up before the timed phase, s.
    pub setup_s: f64,
    /// Wall time of the timed phase, s.
    pub wall_s: f64,
    /// Process CPU over the timed phase, s.
    pub cpu_s: f64,
    /// Frames or records the timed phase completed.
    pub work: f64,
}

/// End-to-end metrics of a batch workload: means over iterations, in
/// reference seconds (see [`host`]); `peak_rss_mb` less the reference
/// kernel's table. A batch driver makes every per-second result readable at
/// once, when it returns, so within an iteration the median and the tail of
/// the per-second latencies both equal the iteration's wall time.
pub fn batch_metrics(
    workload: &str,
    iters: &[Timed],
    reference: &host::Reference,
    peak_rss_mb: f64,
) -> BTreeMap<&'static str, f64> {
    let col = |f: fn(&Timed) -> f64| iters.iter().map(f).collect::<Vec<f64>>();
    let walls = col(|t| t.wall_s);
    let median = stats::median(&walls);
    let [q1, _, q3] = stats::quartiles(&walls).unwrap_or([median; 3]);
    let scale = reference.scale();
    let wall = mean(&walls) * scale;
    eprintln!(
        "{workload}: {} iterations on {} threads, raw wall mean {:.4} s, median {median:.4} s (quartiles {q1:.4}, {q3:.4}); reference kernel mean {:.2} ms, scale {scale:.4}",
        iters.len(),
        threads(),
        mean(&walls),
        reference.mean_s() * 1e3,
    );
    BTreeMap::from([
        ("setup_s", mean(&col(|t| t.setup_s)) * scale),
        (
            "frames_per_s",
            col(|t| t.work).iter().sum::<f64>() / (walls.iter().sum::<f64>() * scale),
        ),
        ("wall_s", wall),
        ("cpu_s", mean(&col(|t| t.cpu_s)) * reference.cpu_scale()),
        ("peak_rss_mb", peak_rss_mb - host::RESIDENT_MB),
        ("fresh_p50_ms", wall * 1e3),
        ("fresh_p99_ms", wall * 1e3),
    ])
}

/// Computed bytes of a full sensing topology over `n` stations and `s`
/// sniffers: the RSSI matrix, two carrier-sense/coupling bitset matrices
/// and the sniffer RSSI rows.
pub fn topology_bytes(n: usize, s: usize) -> f64 {
    let words = n.div_ceil(64);
    (n * n * 8 + 2 * n * words * 8 + s * n * 8) as f64
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Digest of anything whose `Debug` form is deterministic (the per-second
/// statistics hold only integers).
pub fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// Worker threads: one per available CPU, as the figure binaries default.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The scratch directory inside the checkout for generated captures, the
/// serve socket and span files.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench_work");
    std::fs::create_dir_all(&dir).expect("cannot create .perfbench_work");
    dir
}

/// Reads `"name": {"value": v` pairs from a result line.
pub fn parse_metrics(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(body) = line.split_once("\"metrics\":").map(|(_, b)| b) else {
        return out;
    };
    for part in body.split("}, ") {
        let Some((name, rest)) = part.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.trim_start_matches(['{', ' ', '"']);
        let value = rest.split(',').next().unwrap_or("");
        if let Ok(v) = value.trim().parse() {
            out.insert(name.to_string(), v);
        }
    }
    out
}

/// Runs the untraced binary (next to this executable) on the same
/// arguments, waits for it, and returns its correctness and metrics.
fn run_untraced_sibling(args: &Args) -> Option<(bool, BTreeMap<String, f64>)> {
    let exe = std::env::current_exe().ok()?.with_file_name("perfbench");
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last()?;
    let ok = out.status.success() && line.contains("\"correct\": true");
    Some((ok, parse_metrics(line)))
}

/// Entry point of both binaries. Returns the process exit code: 0 when
/// every output check passed, 1 on a mismatch, 2 on a usage error.
pub fn main_with(traced: bool) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let report = if traced {
        // Half the time untraced (the sibling binary, system allocator),
        // half traced: the difference is the tracing overhead.
        let mut args = args.clone();
        args.seconds /= 2.0;
        let untraced = run_untraced_sibling(&args);
        let tracer = tracer::Tracer::new(args.seed);
        let mut report = match args.workload.as_str() {
            "sweep" => sweep::traced(&args, &tracer),
            "venue" => venue::traced(&args, &tracer),
            "ingest" => ingest::traced(&args, &tracer),
            _ => live::traced(&args, &tracer),
        };
        report
            .metrics
            .insert("bench.spans", tracer.spans().len() as f64);
        match untraced {
            Some((ok, base)) => {
                report.correct &= ok;
                for (metric, key) in [
                    ("bench.overhead_wall_frac", "wall_s"),
                    ("bench.overhead_cpu_frac", "cpu_s"),
                ] {
                    let traced_value = report.metrics.get(key).copied().unwrap_or(f64::NAN);
                    let base_value = base.get(key).copied().unwrap_or(f64::NAN);
                    report
                        .metrics
                        .insert(metric, traced_value / base_value - 1.0);
                }
            }
            None => report.correct = false,
        }
        let path = work_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: spans not written ({e})"),
        }
        report
    } else {
        match args.workload.as_str() {
            "sweep" => sweep::untraced(&args),
            "venue" => venue::untraced(&args),
            "ingest" => ingest::untraced(&args),
            _ => live::untraced(&args),
        }
    };
    let schema = if traced { PER_LAYER } else { END_TO_END };
    for (name, unit) in schema {
        eprintln!(
            "perfbench[{}] {name} = {} {unit}",
            args.workload,
            report.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{}", report.to_json(schema));
    if report.correct {
        0
    } else {
        eprintln!("perfbench: output check FAILED");
        1
    }
}
