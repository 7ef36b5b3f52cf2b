//! One episode = one pass of a workload's seeded schedule, driven by a
//! single caller thread in a closed loop: `next_frame`, then `recycle`,
//! back to back. Admissions, closes and migrations fire at delivered
//! frame counts, never at wall-clock times, so an episode's
//! deterministic record ([`Det`]) repeats bit for bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use uni_core::{Accelerator, AcceleratorConfig, SimReport};
use uni_engine::{
    AdmissionControl, DegradePolicy, EarliestDeadline, FleetAdmitDecision, FleetHandle,
    FleetSessionRequest, FleetSummary, RenderServer, RoundRobin, SceneCacheConfig, SceneKey,
    ServerFleet, ServerSummary, SessionRequest,
};
use uni_geometry::{Camera, Image};
use uni_microops::{MicroOp, Pipeline, Trace};
use uni_scene::{BakedScene, SceneSpec};

use crate::plan::{self, FleetPlan, MixPlan, FLEET_CAPACITY, FLEET_RES};
use crate::tracing::{Span, SpanKind, TracedRenderer, Tracer, NO_SESSION};

/// Micro-operators in the order of the `core.op_share.*` metrics.
pub const OPS: [(MicroOp, &str); 5] = [
    (MicroOp::GeometricProcessing, "geometric"),
    (MicroOp::CombinedGridIndexing, "combined_grid"),
    (MicroOp::DecomposedGridIndexing, "decomposed_grid"),
    (MicroOp::Sorting, "sorting"),
    (MicroOp::Gemm, "gemm"),
];

/// How an episode runs besides its plan.
pub struct Ctx<'a> {
    pub lanes: usize,
    /// Present only in the traced run.
    pub tracer: Option<&'a Arc<Tracer>>,
    /// Delivered-frame ordinals whose outputs the check re-derives.
    pub capture: &'a [usize],
    /// Keep every delivered trace and report for the simulate replay.
    pub keep_replay: bool,
}

/// Wall-clock samples over the timed phase. Never read by the engine.
#[derive(Default)]
pub struct Timings {
    pub frame_ms: Vec<f64>,
    pub ttff_ms: Vec<f64>,
    /// `try_admit` calls during which nothing was baked.
    pub warm_admit_ms: Vec<f64>,
    /// `try_admit` / `next_frame` calls during which the cache baked.
    pub bake_ms: Vec<f64>,
    pub resident_peak: u64,
}

/// Scheduling outcome counts of one episode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub admitted: u64,
    pub queued: u64,
    pub refused: u64,
    pub shed: u64,
    pub skipped: u64,
    pub migrations: u64,
    pub bakes: u64,
    pub rebakes: u64,
    pub evictions: u64,
    pub hits: u64,
}

/// Everything about an episode that must repeat exactly: across
/// episodes of a run, and between one and several worker threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Det {
    /// Delivery order: (session, path index, resolution shift, slack bits).
    pub order: Vec<(usize, usize, u32, Option<u64>)>,
    pub decisions: Vec<String>,
    pub server: Option<ServerSummary>,
    pub fleet: Option<FleetSummary>,
    pub counts: Counts,
    /// Frames offered, and those not delivered (refused, shed, skipped
    /// or lost to a refused migration). Frames a caller close cancels
    /// are not offered.
    pub offered: u64,
    pub failed: u64,
    pub offered_deadline: u64,
    pub failed_deadline: u64,
    pub misses: u64,
    pub sim_seconds: f64,
    pub reconfigs: u64,
    pub traced_frames: u64,
    pub trace_len: u64,
    pub cycles: u64,
    pub op_cycles: [u64; 5],
}

impl Det {
    pub fn frames(&self) -> u64 {
        self.order.len() as u64
    }

    /// The records of several episodes added up, for metrics over all of
    /// them.
    pub fn total(dets: &[Det]) -> Det {
        let mut t = Det::default();
        for d in dets {
            t.order.extend_from_slice(&d.order);
            let (c, dc) = (&mut t.counts, &d.counts);
            c.admitted += dc.admitted;
            c.queued += dc.queued;
            c.refused += dc.refused;
            c.shed += dc.shed;
            c.skipped += dc.skipped;
            c.migrations += dc.migrations;
            c.bakes += dc.bakes;
            c.rebakes += dc.rebakes;
            c.evictions += dc.evictions;
            c.hits += dc.hits;
            t.offered += d.offered;
            t.failed += d.failed;
            t.offered_deadline += d.offered_deadline;
            t.failed_deadline += d.failed_deadline;
            t.misses += d.misses;
            t.sim_seconds += d.sim_seconds;
            t.reconfigs += d.reconfigs;
            t.traced_frames += d.traced_frames;
            t.trace_len += d.trace_len;
            t.cycles += d.cycles;
            for (sum, add) in t.op_cycles.iter_mut().zip(d.op_cycles) {
                *sum += add;
            }
        }
        t
    }

    fn observe(&mut self, trace: Option<&Trace>, sim: Option<&SimReport>) {
        if let Some(trace) = trace {
            self.traced_frames += 1;
            self.trace_len += trace.len() as u64;
        }
        if let Some(sim) = sim {
            self.cycles += sim.cycles;
            for (slot, (op, _)) in self.op_cycles.iter_mut().zip(OPS) {
                *slot += sim.per_op_cycles.get(&op).copied().unwrap_or(0);
            }
        }
    }

    fn absorb(&mut self, summary: &ServerSummary) {
        self.sim_seconds += summary.total_seconds;
        self.reconfigs += summary.total_reconfigurations();
        self.counts.shed += summary.shed_sessions;
        self.counts.skipped += summary.frames_skipped;
    }
}

/// A delivered frame kept for the output check.
pub struct Sample {
    pub pipeline: Pipeline,
    pub scene: usize,
    pub camera: Camera,
    pub image: Image,
    pub trace: Option<Trace>,
    pub sim: Option<SimReport>,
}

#[derive(Default)]
pub struct Episode {
    pub det: Det,
    pub samples: Vec<Sample>,
    pub replay: Vec<(Trace, SimReport)>,
}

impl Episode {
    fn deliver(
        &mut self,
        ctx: &Ctx,
        pipeline: Pipeline,
        scene: usize,
        report: &uni_engine::FrameReport,
    ) {
        self.det.observe(report.trace.as_ref(), report.sim.as_ref());
        let ordinal = self.det.order.len() - 1;
        if ctx.capture.contains(&ordinal) {
            self.samples.push(Sample {
                pipeline,
                scene,
                camera: report.camera,
                image: report.image.clone(),
                trace: report.trace.clone(),
                sim: report.sim.clone(),
            });
        }
        if ctx.keep_replay {
            if let (Some(trace), Some(sim)) = (&report.trace, &report.sim) {
                self.replay.push((trace.clone(), sim.clone()));
            }
        }
    }
}

/// Records a caller-side span in the traced run, and a bake span under
/// it when the call baked.
fn call_span(
    tracer: Option<&Arc<Tracer>>,
    kind: SpanKind,
    parent: u32,
    request: (u32, u32),
    start: Instant,
    end: Instant,
    baked: bool,
) {
    let Some(tracer) = tracer else {
        return;
    };
    let id = tracer.new_id();
    let span = Span {
        id,
        parent,
        kind,
        pipeline: None,
        session: request.0,
        frame: request.1,
        start_ns: tracer.ns_of(start),
        end_ns: tracer.ns_of(end),
    };
    tracer.record(span);
    if baked {
        tracer.record(Span {
            id: tracer.new_id(),
            parent: id,
            kind: SpanKind::Bake,
            ..span
        });
    }
}

fn episode_span(tracer: Option<&Arc<Tracer>>, id: u32, start: Instant) {
    if let Some(tracer) = tracer {
        tracer.record(Span {
            id,
            parent: u32::MAX,
            kind: SpanKind::Episode,
            pipeline: None,
            session: NO_SESSION,
            frame: 0,
            start_ns: tracer.ns_of(start),
            end_ns: tracer.now(),
        });
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// One `serve_mix` (`accel`) or `host_render` episode: a fresh
/// round-robin server over the shared scene, every session offered
/// through `try_admit` before the first frame.
#[allow(clippy::too_many_arguments)]
pub fn serve_episode(
    scene: &Arc<BakedScene>,
    spec: &SceneSpec,
    plan: &MixPlan,
    res: u32,
    accel: bool,
    frame_seconds: f64,
    ctx: &Ctx,
    t: &mut Timings,
) -> Episode {
    let tracer = ctx.tracer;
    let root = tracer.map_or(0, |tr| tr.new_id());
    let started = Instant::now();
    let mut server = RenderServer::new(Arc::clone(scene))
        .with_lanes(ctx.lanes)
        .with_policy(RoundRobin::new());
    if accel {
        server = server.with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
    }
    let mut ep = Episode::default();
    let mut admitted_at = Vec::new();
    let mut delivered = vec![0u64; plan.sessions.len()];
    for (s, session) in plan.sessions.iter().enumerate() {
        let renderer = match tracer {
            Some(tr) => TracedRenderer::boxed(session.pipeline, Arc::clone(tr), root, s as u32),
            None => plan::renderer(session.pipeline),
        };
        let mut request = SessionRequest::new(renderer, session.path(spec, res))
            .weight(session.weight)
            .priority(session.priority);
        let deadline = accel.then(|| session.deadline_hz(frame_seconds)).flatten();
        if let Some(hz) = deadline {
            request = request.deadline_hz(hz);
        }
        let t0 = Instant::now();
        let decision = server.try_admit(request);
        let t1 = Instant::now();
        t.warm_admit_ms.push(ms(t0, t1));
        call_span(
            tracer,
            SpanKind::TryAdmit,
            root,
            (s as u32, 0),
            t0,
            t1,
            false,
        );
        if decision.handle().is_some() {
            ep.det.counts.admitted += 1;
        }
        ep.det.decisions.push(format!("{decision:?}"));
        admitted_at.push(Some(t0));
    }
    t.resident_peak = t.resident_peak.max(scene.resident_bytes());
    loop {
        let t0 = Instant::now();
        let Some(frame) = server.next_frame() else {
            break;
        };
        let t1 = Instant::now();
        t.frame_ms.push(ms(t0, t1));
        let s = frame.session;
        if let Some(at) = admitted_at[s].take() {
            t.ttff_ms.push(ms(at, t1));
        }
        delivered[s] += 1;
        call_span(
            tracer,
            SpanKind::NextFrame,
            root,
            (s as u32, frame.report.index as u32),
            t0,
            t1,
            false,
        );
        if frame.deadline_slack.is_some_and(|slack| slack < 0.0) {
            ep.det.misses += 1;
        }
        ep.det.order.push((
            s,
            frame.report.index,
            frame.resolution_shift,
            frame.deadline_slack.map(f64::to_bits),
        ));
        ep.deliver(ctx, plan.sessions[s].pipeline, 0, &frame.report);
        server.recycle(s, frame.report.image);
    }
    for (session, &got) in plan.sessions.iter().zip(&delivered) {
        let frames = session.frames as u64;
        ep.det.offered += frames;
        ep.det.failed += frames - got;
        if accel && session.deadline_periods.is_some() {
            ep.det.offered_deadline += frames;
            ep.det.failed_deadline += frames - got;
        }
    }
    let summary = server.summary();
    ep.det.absorb(&summary);
    ep.det.counts.refused = summary.refusals;
    ep.det.counts.queued = summary.queued_admissions;
    ep.det.server = Some(summary);
    drop(server);
    episode_span(tracer, root, started);
    ep
}

/// A fleet event, ordered by the delivered-frame count it fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrive(usize),
    Close(usize),
    Migrate(usize, usize),
}

/// Per-arrival bookkeeping of a fleet episode.
#[derive(Default, Clone)]
struct Offered {
    handle: Option<FleetHandle>,
    delivered: u64,
    closed: bool,
    admitted_at: Option<Instant>,
}

/// The fleet every `fleet_churn` episode starts from: empty, earliest
/// deadline first, admission control and degradation armed.
pub fn churn_fleet(lanes: usize, frame_seconds: f64) -> ServerFleet {
    ServerFleet::new(SceneCacheConfig {
        max_resident: FLEET_CAPACITY,
        max_bytes: None,
    })
    .with_accelerator_config(AcceleratorConfig::paper())
    .with_policy_factory(|| Box::new(EarliestDeadline::new()))
    .with_lanes(lanes)
    .with_admission_control(AdmissionControl::new().frame_cost_prior(frame_seconds))
    .with_degradation(DegradePolicy::new())
}

/// One `fleet_churn` episode.
pub fn fleet_episode(plan: &FleetPlan, frame_seconds: f64, ctx: &Ctx, t: &mut Timings) -> Episode {
    let tracer = ctx.tracer;
    let root = tracer.map_or(0, |tr| tr.new_id());
    let started = Instant::now();
    let mut fleet = churn_fleet(ctx.lanes, frame_seconds);
    let mut ep = Episode::default();
    let mut offered = vec![Offered::default(); plan.arrivals.len()];
    let mut by_handle: Vec<usize> = Vec::new();
    let mut events: BinaryHeap<Reverse<(usize, usize, Event)>> = BinaryHeap::new();
    let keys: Vec<SceneKey> = plan.scenes.iter().map(SceneKey::of).collect();
    let mut next_wave = 0;
    let mut delivered = 0usize;
    // Set when the fleet has drained: the next event is then due at once.
    let mut drained = false;
    loop {
        while let Some(&Reverse((slot, seq, event))) = events.peek() {
            if slot > delivered && !drained {
                break;
            }
            drained = false;
            events.pop();
            match event {
                Event::Arrive(i) => {
                    let arrival = &plan.arrivals[i];
                    let session = &arrival.session;
                    let pipeline = session.pipeline;
                    let tr = tracer.map(Arc::clone);
                    let id = i as u32;
                    let factory = move || match &tr {
                        Some(tr) => TracedRenderer::boxed(pipeline, Arc::clone(tr), root, id),
                        None => plan::renderer(pipeline),
                    };
                    let mut request = FleetSessionRequest::new(
                        factory,
                        session.path(&plan.scenes[arrival.scene], FLEET_RES),
                    )
                    .weight(session.weight)
                    .priority(session.priority);
                    if let Some(hz) = session.deadline_hz(frame_seconds) {
                        request = request.deadline_hz(hz);
                    }
                    let bakes = fleet.cache_stats().bakes;
                    let t0 = Instant::now();
                    let decision = fleet.try_admit(&plan.scenes[arrival.scene], request);
                    let t1 = Instant::now();
                    let baked = fleet.cache_stats().bakes > bakes;
                    if baked {
                        t.bake_ms.push(ms(t0, t1));
                    } else {
                        t.warm_admit_ms.push(ms(t0, t1));
                    }
                    call_span(tracer, SpanKind::TryAdmit, root, (id, 0), t0, t1, baked);
                    ep.det.decisions.push(format!("{decision:?}"));
                    match decision {
                        FleetAdmitDecision::Admitted(_) => ep.det.counts.admitted += 1,
                        FleetAdmitDecision::Queued { .. } => ep.det.counts.queued += 1,
                        FleetAdmitDecision::Refused { .. } => ep.det.counts.refused += 1,
                    }
                    if let Some(handle) = decision.handle() {
                        let h = handle.id();
                        if by_handle.len() <= h {
                            by_handle.resize(h + 1, usize::MAX);
                        }
                        by_handle[h] = i;
                        offered[i].handle = Some(handle);
                        offered[i].admitted_at = Some(t0);
                        if let Some(after) = arrival.close_after {
                            events.push(Reverse((delivered + after, seq, Event::Close(i))));
                        }
                        if let Some((after, target)) = arrival.migrate {
                            events.push(Reverse((
                                delivered + after,
                                seq,
                                Event::Migrate(i, target),
                            )));
                        }
                    }
                }
                Event::Close(i) => {
                    let handle = offered[i].handle.expect("only admitted sessions close");
                    offered[i].closed = fleet.close(handle);
                    ep.det
                        .decisions
                        .push(format!("close {i} {}", offered[i].closed));
                }
                Event::Migrate(i, target) => {
                    let handle = offered[i].handle.expect("only admitted sessions migrate");
                    let moved = fleet.migrate(handle, &plan.scenes[target]);
                    ep.det
                        .decisions
                        .push(format!("migrate {i} {target} {moved}"));
                }
            }
        }
        let bakes = fleet.cache_stats().bakes;
        let t0 = Instant::now();
        let frame = fleet.next_frame();
        let t1 = Instant::now();
        let baked = fleet.cache_stats().bakes > bakes;
        if baked {
            t.bake_ms.push(ms(t0, t1));
        }
        t.resident_peak = t.resident_peak.max(fleet.cache_stats().resident_bytes);
        let Some(frame) = frame else {
            // A migration hand-off can bake without delivering a frame.
            if baked {
                call_span(
                    tracer,
                    SpanKind::NextFrame,
                    root,
                    (NO_SESSION, 0),
                    t0,
                    t1,
                    true,
                );
            }
            if !events.is_empty() {
                drained = true;
            } else if plan.arrivals.iter().any(|a| a.wave == next_wave) {
                for (i, arrival) in plan.arrivals.iter().enumerate() {
                    if arrival.wave == next_wave {
                        events.push(Reverse((delivered + arrival.slot, i, Event::Arrive(i))));
                    }
                }
                next_wave += 1;
            } else {
                break;
            }
            continue;
        };
        delivered += 1;
        t.frame_ms.push(ms(t0, t1));
        let i = by_handle[frame.handle.id()];
        if let Some(at) = offered[i].admitted_at.take() {
            t.ttff_ms.push(ms(at, t1));
        }
        offered[i].delivered += 1;
        call_span(
            tracer,
            SpanKind::NextFrame,
            root,
            (i as u32, frame.path_index as u32),
            t0,
            t1,
            baked,
        );
        let served = &frame.frame;
        if served.deadline_slack.is_some_and(|slack| slack < 0.0) {
            ep.det.misses += 1;
        }
        ep.det.order.push((
            i,
            frame.path_index,
            served.resolution_shift,
            served.deadline_slack.map(f64::to_bits),
        ));
        let scene = keys
            .iter()
            .position(|key| *key == frame.scene)
            .expect("frame from a planned scene");
        ep.deliver(
            ctx,
            plan.arrivals[i].session.pipeline,
            scene,
            &served.report,
        );
        fleet.recycle(frame.handle, frame.frame.report.image);
    }
    for (arrival, o) in plan.arrivals.iter().zip(&offered) {
        let frames = arrival.session.frames as u64;
        // A caller close cancels the rest of the path: only what was
        // delivered counts as offered.
        let (offered_frames, failed) = if o.closed {
            (o.delivered, 0)
        } else {
            (frames, frames - o.delivered)
        };
        ep.det.offered += offered_frames;
        ep.det.failed += failed;
        if arrival.session.deadline_periods.is_some() {
            ep.det.offered_deadline += offered_frames;
            ep.det.failed_deadline += failed;
        }
    }
    let summary = fleet.summary();
    for server in summary.shards.iter().flat_map(|shard| &shard.servers) {
        ep.det.absorb(server);
    }
    let cache = summary.cache;
    ep.det.counts.migrations = summary.migrations;
    ep.det.counts.bakes = cache.bakes;
    ep.det.counts.rebakes = cache.rebakes;
    ep.det.counts.evictions = cache.evictions;
    ep.det.counts.hits = cache.hits;
    ep.det.fleet = Some(summary);
    drop(fleet);
    episode_span(tracer, root, started);
    ep
}
