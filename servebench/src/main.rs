//! Serving benchmark for the Uni-Render engine. See `README.md` beside
//! this package for the workloads, every metric, and the layer map.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
//!     --workload serve_mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when an output or determinism check fails.

mod episode;
mod plan;
mod tracing;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uni_core::{Accelerator, AcceleratorConfig};
use uni_engine::{
    percentile, RenderServer, RoundRobin, SceneCacheConfig, ServerFleet, SessionRequest,
};
use uni_geometry::Image;
use uni_microops::Pipeline;
use uni_scene::{BakedScene, SceneSpec};

use episode::{Ctx, Det, Episode, Sample, Timings, OPS};
use plan::{FleetPlan, MixPlan, PIPELINES};
use tracing::{SpanKind, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Seeded schedules each run cycles through; every run serves each of
/// them at least once. One schedule alone left the median frame and
/// first-frame times of `fleet_churn` 16% apart across seeds.
const SCHEDULES: usize = 3;
/// Worker threads and server lanes, capped at the core count.
const MAX_THREADS: usize = 2;
/// Delivered frames of the first episode whose outputs are re-derived.
const SAMPLES: usize = 6;
/// The sampled frames come from the first this-many deliveries, which
/// every episode of every workload reaches.
const SAMPLE_SPAN: usize = 40;
const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeMix,
    HostRender,
    FleetChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_mix" => Some(Self::ServeMix),
            "host_render" => Some(Self::HostRender),
            "fleet_churn" => Some(Self::FleetChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeMix => "serve_mix",
            Self::HostRender => "host_render",
            Self::FleetChurn => "fleet_churn",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing {name}"));
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A workload after set-up: its scene(s), plan and calibration.
enum Prepared {
    Mix {
        spec: SceneSpec,
        scene: Arc<BakedScene>,
        plans: Vec<MixPlan>,
        res: u32,
        accel: bool,
        frame_seconds: f64,
    },
    Fleet {
        plans: Vec<FleetPlan>,
        frame_seconds: f64,
    },
}

/// One set-up: initial bake, server or fleet construction, and warm-up
/// frames — one per pipeline, whose mean simulated time calibrates the
/// deadline rates (and the fleet's admission prior). Pushes the wall
/// time of each bake to `bake_ms`.
fn setup(workload: Workload, seed: u64, lanes: usize, bake_ms: &mut Vec<f64>) -> Prepared {
    match workload {
        Workload::ServeMix | Workload::HostRender => {
            let accel = workload == Workload::ServeMix;
            let res = if accel { plan::MIX_RES } else { plan::HOST_RES };
            let spec = plan::mix_scene();
            let t0 = Instant::now();
            let scene = Arc::new(spec.bake());
            bake_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let plans: Vec<MixPlan> = (0..SCHEDULES)
                .map(|k| plan::mix_plan(plan::schedule_seed(seed, k)))
                .collect();
            let mut server = RenderServer::new(Arc::clone(&scene))
                .with_lanes(lanes)
                .with_policy(RoundRobin::new());
            if accel {
                server = server.with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
            }
            for session in &plans[0].sessions {
                let warm = plan::SessionPlan {
                    frames: 1,
                    ..session.clone()
                };
                server.admit(SessionRequest::new(
                    plan::renderer(session.pipeline),
                    warm.path(&spec, res),
                ));
            }
            let summary = server.run();
            let frame_seconds = summary.total_seconds / summary.scheduled_frames.max(1) as f64;
            Prepared::Mix {
                spec,
                scene,
                plans,
                res,
                accel,
                frame_seconds,
            }
        }
        Workload::FleetChurn => {
            let plans: Vec<FleetPlan> = (0..SCHEDULES)
                .map(|k| plan::fleet_plan(plan::schedule_seed(seed, k)))
                .collect();
            let plan = &plans[0];
            let mut fleet = ServerFleet::new(SceneCacheConfig {
                max_resident: plan::FLEET_CAPACITY,
                max_bytes: None,
            })
            .with_accelerator_config(AcceleratorConfig::paper())
            .with_lanes(lanes);
            // Always the first scene of the pool, so set-up bakes the
            // same scene whatever the seed.
            let first = &plan.arrivals[0];
            for (k, pipeline) in PIPELINES.into_iter().enumerate() {
                let warm = plan::SessionPlan {
                    pipeline,
                    frames: 1,
                    ..first.session.clone()
                };
                let path = warm.path(&plan.scenes[0], plan::FLEET_RES);
                let t0 = Instant::now();
                fleet.admit(
                    &plan.scenes[0],
                    uni_engine::FleetSessionRequest::new(move || plan::renderer(pipeline), path),
                );
                if k == 0 {
                    bake_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            let summary = fleet.run();
            let sim_seconds: f64 = summary
                .shards
                .iter()
                .flat_map(|shard| &shard.servers)
                .map(|server| server.total_seconds)
                .sum();
            let frame_seconds = sim_seconds / summary.delivered_frames.max(1) as f64;
            Prepared::Fleet {
                plans,
                frame_seconds,
            }
        }
    }
}

impl Prepared {
    /// One episode of schedule `k`.
    fn episode(&self, k: usize, ctx: &Ctx, t: &mut Timings) -> Episode {
        match self {
            Prepared::Mix {
                spec,
                scene,
                plans,
                res,
                accel,
                frame_seconds,
            } => {
                episode::serve_episode(scene, spec, &plans[k], *res, *accel, *frame_seconds, ctx, t)
            }
            Prepared::Fleet {
                plans,
                frame_seconds,
            } => episode::fleet_episode(&plans[k], *frame_seconds, ctx, t),
        }
    }

    fn has_accel(&self) -> bool {
        match self {
            Prepared::Mix { accel, .. } => *accel,
            Prepared::Fleet { .. } => true,
        }
    }
}

/// Problems found by the checks; any one fails the run.
#[derive(Default)]
struct Failures {
    checked: u64,
    messages: Vec<String>,
}

impl Failures {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.messages.push(what());
        }
    }
}

/// A timed pass: whole episodes, cycling through the schedules, until
/// `seconds` passed and every schedule ran.
struct Pass {
    timings: Timings,
    wall: Duration,
    /// Per episode: frames per wall second, and the frame-time p50 and
    /// p90 and first-frame-time p50 over its own calls.
    episode_fps: Vec<f64>,
    episode_p50: Vec<f64>,
    episode_p90: Vec<f64>,
    episode_ttff: Vec<f64>,
    episodes: usize,
    /// The record of each schedule's first episode.
    dets: Vec<Det>,
    samples: Vec<Sample>,
    replay: Vec<(uni_microops::Trace, uni_core::SimReport)>,
}

impl Pass {
    fn frames(&self) -> usize {
        self.timings.frame_ms.len()
    }

    /// Wall-time figures are medians over the pass's episodes: the host
    /// this was tuned on ran the same single-threaded loop anywhere
    /// from 0.44 to 0.68 s in phases lasting seconds, and a median over
    /// episodes follows the typical phase where a pooled figure would
    /// mix them.
    fn serve_fps(&self) -> f64 {
        p50(&self.episode_fps)
    }
}

fn timed_pass(
    prepared: &Prepared,
    lanes: usize,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
    capture: &[usize],
    failures: &mut Failures,
) -> Pass {
    let mut timings = Timings::default();
    let mut dets: Vec<Det> = Vec::new();
    let mut samples = Vec::new();
    let mut replay = Vec::new();
    let mut episode_fps = Vec::new();
    let mut episode_p50 = Vec::new();
    let mut episode_p90 = Vec::new();
    let mut episode_ttff = Vec::new();
    let mut episodes = 0;
    let start = Instant::now();
    loop {
        let k = episodes % SCHEDULES;
        let ctx = Ctx {
            lanes,
            tracer,
            capture: if episodes == 0 { capture } else { &[] },
            keep_replay: tracer.is_some(),
        };
        let frames_before = timings.frame_ms.len();
        let ttff_before = timings.ttff_ms.len();
        let ep_start = Instant::now();
        let mut ep = prepared.episode(k, &ctx, &mut timings);
        let frame_ms = &timings.frame_ms[frames_before..];
        episode_fps.push(frame_ms.len() as f64 / ep_start.elapsed().as_secs_f64());
        episode_p50.push(p50(frame_ms));
        episode_p90.push(quantile(frame_ms, 90.0));
        episode_ttff.push(p50(&timings.ttff_ms[ttff_before..]));
        episodes += 1;
        replay.append(&mut ep.replay);
        samples.append(&mut ep.samples);
        check_summaries(&ep.det, failures);
        if let Some(first) = dets.get(k) {
            failures.check(ep.det == *first, || {
                format!("episode {episodes} differs from the first episode of schedule {k}")
            });
        } else {
            dets.push(ep.det);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && episodes >= SCHEDULES) || elapsed >= 4.0 * seconds.max(10.0) {
            break;
        }
    }
    Pass {
        timings,
        wall: start.elapsed(),
        episode_fps,
        episode_p50,
        episode_p90,
        episode_ttff,
        episodes,
        dets,
        samples,
        replay,
    }
}

fn check_summaries(det: &Det, failures: &mut Failures) {
    if let Some(server) = &det.server {
        failures.check(server.is_consistent(), || {
            "ServerSummary is not consistent".into()
        });
    }
    if let Some(fleet) = &det.fleet {
        failures.check(fleet.is_consistent(), || {
            "FleetSummary is not consistent".into()
        });
    }
}

/// Re-derives each sampled frame with direct calls on a fresh renderer
/// over the same scene and camera: the image must equal
/// `Renderer::render_into`, the trace `Renderer::trace`, and the report
/// `Accelerator::simulate` of that trace, bit for bit.
fn check_samples(prepared: &Prepared, samples: &[Sample], failures: &mut Failures) {
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let mut fleet_scenes: BTreeMap<usize, BakedScene> = BTreeMap::new();
    for (n, sample) in samples.iter().enumerate() {
        let scene: &BakedScene = match prepared {
            Prepared::Mix { scene, .. } => scene,
            Prepared::Fleet { plans, .. } => fleet_scenes
                .entry(sample.scene)
                .or_insert_with(|| plans[0].scenes[sample.scene].bake()),
        };
        let renderer = plan::renderer(sample.pipeline);
        let mut image = Image::empty();
        renderer.render_into(scene, &sample.camera, &mut image);
        let what = format!("sample {n} ({})", plan::name(sample.pipeline));
        failures.check(image == sample.image, || {
            format!("{what}: image differs from render_into")
        });
        failures.check(sample.trace.is_some() == prepared.has_accel(), || {
            format!("{what}: trace presence does not match the accelerator")
        });
        if let Some(trace) = &sample.trace {
            failures.check(renderer.trace(scene, &sample.camera) == *trace, || {
                format!("{what}: trace differs from Renderer::trace")
            });
            failures.check(sample.sim.as_ref() == Some(&accel.simulate(trace)), || {
                format!("{what}: report differs from Accelerator::simulate")
            });
        }
    }
}

fn p50(values: &[f64]) -> f64 {
    quantile(values, 50.0)
}

fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metrics in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The metrics as a JSON object; a non-finite value, which JSON
    /// cannot hold and the run reports as a failed check, is written as 0.
    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The deterministic end-to-end metrics, over one episode of each
/// schedule.
fn det_metrics(det: &Det, out: &mut Metrics, prefix: &str) {
    out.push(
        format!("{prefix}sim_fps"),
        ratio(det.frames() as f64, det.sim_seconds),
        "frames/sim-s",
    );
    out.push(
        format!("{prefix}slo_miss_rate"),
        ratio(
            (det.misses + det.failed_deadline) as f64,
            det.offered_deadline as f64,
        ),
        "ratio",
    );
    out.push(
        format!("{prefix}failed_share"),
        ratio(det.failed as f64, det.offered as f64),
        "ratio",
    );
}

/// Per-layer metrics of the traced pass.
fn layer_metrics(
    traced: &Pass,
    untraced: &Pass,
    tracer: &Tracer,
    setup_bake_ms: &[f64],
    lanes: usize,
    threads: usize,
    failures: &mut Failures,
) -> Metrics {
    let spans = tracer.spans();
    let det = &Det::total(&traced.dets);
    // Counts are per episode: the totals over one episode of each
    // schedule, divided by the number of schedules.
    let per_episode = |count: u64| count as f64 / SCHEDULES as f64;
    let mut out = Metrics::default();

    let mut bakes: Vec<f64> = setup_bake_ms.to_vec();
    bakes.extend(&traced.timings.bake_ms);
    out.push("scene.bake_ms", mean(&bakes), "ms");
    out.push("scene.bakes", per_episode(det.counts.bakes), "count");
    out.push(
        "scene.resident_mb",
        traced.timings.resident_peak as f64 / MIB,
        "MiB",
    );

    let of_kind = |kind: SpanKind, pipeline: Pipeline| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.kind == kind && s.pipeline == Some(pipeline))
            .map(|s| s.ms())
            .collect()
    };
    for pipeline in PIPELINES {
        out.push(
            format!("renderers.render_ms.{}", plan::name(pipeline)),
            p50(&of_kind(SpanKind::Render, pipeline)),
            "ms",
        );
    }
    for pipeline in PIPELINES {
        out.push(
            format!("renderers.trace_ms.{}", plan::name(pipeline)),
            p50(&of_kind(SpanKind::Trace, pipeline)),
            "ms",
        );
    }
    let trace_calls = spans.iter().filter(|s| s.kind == SpanKind::Trace).count();
    out.push(
        "renderers.trace_calls_per_frame",
        ratio(trace_calls as f64, traced.frames() as f64),
        "calls/frame",
    );

    // `Accelerator` cannot be wrapped, so simulate is timed by replaying
    // every delivered trace after the serve; each replayed report must
    // equal the delivered one.
    let accel = Accelerator::new(AcceleratorConfig::paper());
    let mut simulate_us = Vec::with_capacity(traced.replay.len());
    let mut replay_mismatches = 0;
    for (trace, sim) in &traced.replay {
        let t0 = Instant::now();
        let report = accel.simulate(std::hint::black_box(trace));
        simulate_us.push(t0.elapsed().as_secs_f64() * 1e6);
        replay_mismatches += usize::from(report != *sim);
    }
    failures.check(replay_mismatches == 0, || {
        format!("{replay_mismatches} replayed reports differ from the delivered ones")
    });
    out.push("core.simulate_us", p50(&simulate_us), "us");
    let sim_frames = det.traced_frames as f64;
    out.push(
        "core.cycles_per_frame",
        ratio(det.cycles as f64, sim_frames),
        "cycles",
    );
    out.push(
        "core.reconfigs_per_frame",
        ratio(det.reconfigs as f64, det.frames() as f64),
        "count/frame",
    );
    for (cycles, (_, name)) in det.op_cycles.iter().zip(OPS) {
        out.push(
            format!("core.op_share.{name}"),
            ratio(*cycles as f64, det.cycles as f64),
            "ratio",
        );
    }
    out.push(
        "microops.invocations_per_frame",
        ratio(det.trace_len as f64, sim_frames),
        "count/frame",
    );

    // Serve wall time is the union of episode spans; "covered" is the
    // part of it during which a render, trace or bake span is open.
    let episodes: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Episode)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let serve_ns: u64 = episodes.iter().map(|(a, b)| b - a).sum();
    let mut work: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Render | SpanKind::Trace | SpanKind::Bake))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    work.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = 0u64;
    for (start, end) in work {
        let start = start.max(cursor);
        if end > start {
            covered += episodes
                .iter()
                .map(|&(a, b)| end.min(b).saturating_sub(start.max(a)))
                .sum::<u64>();
            cursor = end;
        }
    }
    out.push(
        "engine.uncovered_share",
        1.0 - ratio(covered as f64, serve_ns as f64),
        "ratio",
    );
    out.push(
        "engine.try_admit_ms",
        p50(&traced.timings.warm_admit_ms),
        "ms",
    );
    let c = &det.counts;
    out.push(
        "engine.cache_hit_ratio",
        ratio(c.hits as f64, (c.hits + c.bakes) as f64),
        "ratio",
    );
    out.push(
        "engine.cache_lookups",
        per_episode(c.hits + c.bakes),
        "count",
    );
    out.push("engine.evictions", per_episode(c.evictions), "count");
    out.push("engine.rebakes", per_episode(c.rebakes), "count");
    out.push("engine.admitted", per_episode(c.admitted), "count");
    out.push("engine.queued", per_episode(c.queued), "count");
    out.push("engine.refused", per_episode(c.refused), "count");
    out.push("engine.shed", per_episode(c.shed), "count");
    out.push("engine.skipped", per_episode(c.skipped), "count");
    out.push("engine.migrations", per_episode(c.migrations), "count");

    let busy_ns: u64 = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Render | SpanKind::Trace))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    out.push(
        "parallel.lane_busy_share",
        ratio(busy_ns as f64, serve_ns as f64 * lanes as f64),
        "ratio",
    );
    out.push("parallel.lanes", lanes as f64, "count");
    out.push("parallel.threads", threads as f64, "count");

    det_metrics(det, &mut out, "det.");
    out.push("bench.untraced_serve_fps", untraced.serve_fps(), "frames/s");
    out.push("bench.traced_serve_fps", traced.serve_fps(), "frames/s");
    out.push(
        "bench.tracing_overhead",
        1.0 - ratio(traced.serve_fps(), untraced.serve_fps()),
        "ratio",
    );
    out.push("bench.spans", spans.len() as f64, "count");
    out.push("bench.spans_dropped", tracer.dropped() as f64, "count");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("servebench: {message}");
            eprintln!("usage: servebench --workload serve_mix|host_render|fleet_churn --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(MAX_THREADS);
    let lanes = threads;
    uni_parallel::set_worker_count(Some(threads));
    let epoch = Instant::now();
    let mut failures = Failures::default();

    let mut setup_s = Vec::new();
    let mut setup_bake_ms = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(setup(args.workload, args.seed, lanes, &mut setup_bake_ms));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("set up at least once");
    let capture = plan::sample_ordinals(args.seed, SAMPLE_SPAN, SAMPLES);

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = timed_pass(
        &prepared,
        lanes,
        untraced_seconds,
        None,
        &capture,
        &mut failures,
    );
    let peak_rss = peak_rss_mb();
    let traced = args.trace.then(|| {
        let tracer = Tracer::new(epoch);
        let pass = timed_pass(
            &prepared,
            lanes,
            args.seconds,
            Some(&tracer),
            &capture,
            &mut failures,
        );
        failures.check(pass.dets == untraced.dets, || {
            "traced episodes differ from untraced ones".into()
        });
        (tracer, pass)
    });

    // The same episode on one worker thread and one lane must repeat the
    // timed episodes exactly.
    uni_parallel::set_worker_count(Some(1));
    let single_ctx = Ctx {
        lanes: 1,
        tracer: None,
        capture: &[],
        keep_replay: false,
    };
    let single = prepared.episode(0, &single_ctx, &mut Timings::default());
    uni_parallel::set_worker_count(Some(threads));
    failures.check(single.det == untraced.dets[0], || {
        format!("the episode at 1 thread differs from the episode at {threads} threads")
    });

    check_samples(&prepared, &untraced.samples, &mut failures);
    if let Some((_, pass)) = &traced {
        check_samples(&prepared, &pass.samples, &mut failures);
    }

    let t = &untraced.timings;
    println!(
        "servebench workload={} seed={} seconds={} trace={} nproc={nproc} threads={threads} lanes={lanes} \
         episodes={} frames={} wall_s={:.3}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        untraced.episodes,
        untraced.frames(),
        untraced.wall.as_secs_f64(),
    );
    // `e2e` holds the metrics of `BENCHMARK.json`; `more` the end-to-end
    // metrics that are only printed (see README.md).
    let mut e2e = Metrics::default();
    e2e.push("serve_fps", untraced.serve_fps(), "frames/s");
    e2e.push("frame_ms_p50", p50(&untraced.episode_p50), "ms");
    e2e.push("frame_ms_p90", p50(&untraced.episode_p90), "ms");
    e2e.push("setup_s", p50(&setup_s), "s");
    e2e.push("peak_rss_mb", peak_rss, "MiB");
    let mut more = Metrics::default();
    more.push("ttff_ms_p50", p50(&untraced.episode_ttff), "ms");
    det_metrics(&Det::total(&untraced.dets), &mut more, "");
    for (name, value, unit) in e2e.0.iter().chain(&more.0) {
        println!("e2e {name} {value} {unit}");
    }
    println!(
        "samples frame_ms={} ttff_ms={} setup={} checks={}",
        t.frame_ms.len(),
        t.ttff_ms.len(),
        setup_s.len(),
        failures.checked
    );

    let metrics = match &traced {
        Some((tracer, pass)) => {
            let layers = layer_metrics(
                pass,
                &untraced,
                tracer,
                &setup_bake_ms,
                lanes,
                threads,
                &mut failures,
            );
            for (name, value, unit) in &layers.0 {
                println!("layer {name} {value} {unit}");
            }
            let path =
                std::path::PathBuf::from(format!(".bench_out/{}.spans.tsv", args.workload.name()));
            match tracer.write_tsv(&path) {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => failures.check(false, || format!("writing {}: {e}", path.display())),
            }
            layers
        }
        None => e2e,
    };
    for (name, value, _) in &metrics.0 {
        failures.check(value.is_finite(), || format!("metric {name} is {value}"));
    }
    for message in &failures.messages {
        println!("CHECK FAILED: {message}");
    }
    let correct = failures.messages.is_empty();
    let attempted = untraced.frames() + traced.as_ref().map_or(0, |(_, pass)| pass.frames());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        failures.messages.len(),
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
