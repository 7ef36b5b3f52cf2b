//! Seeded workload plans. Everything the engine receives — the session
//! mix, camera path phases, deadline rates, scheduling attributes, the
//! scene visit order, and the delivered-frame slots at which sessions
//! arrive, close and migrate — is generated here from the run seed.
//!
//! Scene *content* is the one input the seed does not choose: each
//! workload serves fixed scene specs. Across scene seeds the mean render
//! cost of the six pipelines moved by ±20% (104–154 ms per six-frame
//! round at 96×96, 8 seeds), which would make every wall-time metric
//! spread wider across seeds than any bound it could carry.

use std::f32::consts::TAU;

use uni_engine::CameraPath;
use uni_microops::Pipeline;
use uni_renderers::{
    GaussianPipeline, HashGridPipeline, LowRankPipeline, MeshPipeline, MixRtPipeline, MlpPipeline,
    Renderer,
};
use uni_scene::SceneSpec;

/// Scene detail of the single-scene workloads: the serving harness
/// setting (`uni_bench::HARNESS_DETAIL`) the repository's serve figures
/// are quoted at.
pub const MIX_DETAIL: f32 = 0.12;
/// `serve_mix` resolution: below the 192-px trace probe cap, so every
/// `Renderer::trace` call re-renders the full frame.
pub const MIX_RES: u32 = 96;
/// `host_render` resolution: 2.25× the pixel count of `serve_mix`.
pub const HOST_RES: u32 = 144;
/// Frames on each `serve_mix` / `host_render` session path: with six
/// sessions an episode delivers 102 frames, so the p90 of one episode's
/// frame times has ten frames above it.
pub const MIX_FRAMES: usize = 17;
/// Deadline-bound sessions in the `serve_mix` episode.
const MIX_DEADLINE_SESSIONS: usize = 2;

/// Scenes `fleet_churn` visits — one more than the cache holds, so a
/// revisit after the other four must evict and rebake.
pub const FLEET_SCENES: usize = 5;
/// The fleet's scene-cache capacity.
pub const FLEET_CAPACITY: usize = 4;
/// Smaller scenes than the single-scene workloads, so an episode can
/// bake several of them and still serve enough frames per run.
pub const FLEET_DETAIL: f32 = 0.03;
/// `fleet_churn` resolution. At 64×64 a median frame took about 3 ms,
/// of which cross-thread hand-offs were a large enough part that host
/// contention tripled it; at 96×96 compute carries more of each frame.
pub const FLEET_RES: u32 = 96;
/// Waves of arrivals per `fleet_churn` episode. A wave starts when the
/// previous one has drained; wave `w` visits scene `w % FLEET_SCENES` of
/// the seeded scene order, so from the sixth wave on each wave revisits
/// the scene the cache evicted longest ago. Every episode bakes each
/// scene twice — ten bakes, five of them rebakes — whatever the seed.
const WAVES: usize = 2 * FLEET_SCENES;
/// The sessions of each `fleet_churn` wave, by pipeline: all but the
/// MLP, whose frames cost 10–30× the others' and would make rendering,
/// not baking and the control plane, dominate the workload. The
/// hash-grid pipeline, whose frame cost lies in the middle of the five,
/// comes twice, so the frame-time median falls inside its cost band
/// instead of on the step between two pipelines' bands.
pub const FLEET_PIPELINES: [Pipeline; 6] = [
    Pipeline::Gaussian3d,
    Pipeline::Mesh,
    Pipeline::HashGrid,
    Pipeline::HashGrid,
    Pipeline::LowRankGrid,
    Pipeline::HybridMixRt,
];
/// Deadline periods (in calibrated mean frame sim-times) and path
/// lengths of a wave's six sessions. Each session slot meets every
/// entry in turn — a seeded Latin square — so the seed moves which
/// session gets which value, never how much load each pipeline offers.
/// Earliest-deadline service is serial: with several live sessions,
/// periods under a few mean frames cannot all be met, so admission must
/// refuse, queue or degrade part of the offered load.
const FLEET_PERIODS: [f64; 6] = [3.0, 4.5, 6.0, 8.0, 10.0, 12.0];
const FLEET_FRAMES: [usize; 6] = [4, 5, 6, 6, 7, 8];

/// SplitMix64: a small, seedable, platform-independent generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The six pipelines, in the order their per-layer metrics are named.
pub const PIPELINES: [Pipeline; 6] = [
    Pipeline::Gaussian3d,
    Pipeline::Mesh,
    Pipeline::HashGrid,
    Pipeline::Mlp,
    Pipeline::LowRankGrid,
    Pipeline::HybridMixRt,
];

/// The pipeline's name in metric names.
pub fn name(pipeline: Pipeline) -> &'static str {
    match pipeline {
        Pipeline::Gaussian3d => "gaussian",
        Pipeline::Mesh => "mesh",
        Pipeline::HashGrid => "hashgrid",
        Pipeline::Mlp => "mlp",
        Pipeline::LowRankGrid => "lowrank",
        Pipeline::HybridMixRt => "hybrid",
    }
}

/// A default-configured renderer of the pipeline.
pub fn renderer(pipeline: Pipeline) -> Box<dyn Renderer + Send> {
    match pipeline {
        Pipeline::Gaussian3d => Box::new(GaussianPipeline::default()),
        Pipeline::Mesh => Box::new(MeshPipeline::default()),
        Pipeline::HashGrid => Box::new(HashGridPipeline::default()),
        Pipeline::Mlp => Box::new(MlpPipeline::default()),
        Pipeline::LowRankGrid => Box::new(LowRankPipeline::default()),
        Pipeline::HybridMixRt => Box::new(MixRtPipeline::default()),
    }
}

/// One camera stream of a plan.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    pub pipeline: Pipeline,
    /// Orbit angle of the first frame; each path sweeps a full orbit.
    pub phase: f32,
    pub frames: usize,
    pub weight: u32,
    pub priority: u8,
    /// Deadline period in units of the calibrated mean frame sim-time;
    /// `None` for best-effort sessions.
    pub deadline_periods: Option<f64>,
}

impl SessionPlan {
    pub fn path(&self, spec: &SceneSpec, res: u32) -> CameraPath {
        CameraPath::orbit_arc(spec.orbit(res, res), self.phase, TAU, self.frames)
    }

    /// Deadline rate in frames per simulated second, given the
    /// calibrated mean frame sim-time.
    pub fn deadline_hz(&self, frame_seconds: f64) -> Option<f64> {
        self.deadline_periods.map(|p| 1.0 / (p * frame_seconds))
    }
}

/// The `serve_mix` / `host_render` episode: six sessions, one per
/// pipeline, on one scene.
pub struct MixPlan {
    pub sessions: Vec<SessionPlan>,
}

pub fn mix_scene() -> SceneSpec {
    SceneSpec::demo("serve-mix", 2025).with_detail(MIX_DETAIL)
}

pub fn mix_plan(seed: u64) -> MixPlan {
    let mut rng = Rng::new(seed);
    let mut deadline_bound = [false; PIPELINES.len()];
    deadline_bound[..MIX_DEADLINE_SESSIONS].fill(true);
    rng.shuffle(&mut deadline_bound);
    // The pipelines keep one fixed round-robin order: which frame shares
    // the lanes with the MLP frame sets how well the lanes pack, and a
    // seeded order moved `serve_fps` by ±13% across seeds.
    let sessions = PIPELINES
        .iter()
        .zip(deadline_bound)
        .map(|(&pipeline, bound)| SessionPlan {
            pipeline,
            phase: rng.range(0.0, TAU as f64) as f32,
            frames: MIX_FRAMES,
            weight: 1 + rng.below(3) as u32,
            priority: rng.below(3) as u8,
            // Round-robin serves each of the six sessions once per
            // six-frame round, so periods of 4–9 mean frames straddle
            // the feasible rate.
            deadline_periods: bound.then(|| rng.range(4.0, 9.0)),
        })
        .collect();
    MixPlan { sessions }
}

/// One session offered to the fleet.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub wave: usize,
    /// Frames delivered since its wave started when the session is
    /// offered.
    pub slot: usize,
    /// Index into [`FleetPlan::scenes`].
    pub scene: usize,
    pub session: SessionPlan,
    /// Delivered frames after its arrival at which the caller closes it.
    pub close_after: Option<usize>,
    /// `(delivered frames after its arrival, target scene)` of a
    /// cross-scene migration.
    pub migrate: Option<(usize, usize)>,
}

/// The `fleet_churn` episode: waves of arrivals over more scenes than
/// the cache holds.
pub struct FleetPlan {
    pub scenes: Vec<SceneSpec>,
    pub arrivals: Vec<Arrival>,
}

/// The fleet's scene pool, in fixed order (the seed permutes visits).
pub fn fleet_scenes() -> Vec<SceneSpec> {
    (0..FLEET_SCENES)
        .map(|i| {
            SceneSpec::demo(format!("fleet-churn-{i}"), 4051 + i as u64).with_detail(FLEET_DETAIL)
        })
        .collect()
}

pub fn fleet_plan(seed: u64) -> FleetPlan {
    let mut rng = Rng::new(seed ^ 0xF1EE_7000);
    let scenes = fleet_scenes();
    let mut order: Vec<usize> = (0..FLEET_SCENES).collect();
    rng.shuffle(&mut order);
    let mut period_of = [0usize, 1, 2, 3, 4, 5];
    let mut frames_of = [0usize, 1, 2, 3, 4, 5];
    rng.shuffle(&mut period_of);
    rng.shuffle(&mut frames_of);
    let mut arrivals = Vec::new();
    for wave in 0..WAVES {
        let scene = order[wave % FLEET_SCENES];
        let next_scene = order[(wave + 1) % FLEET_SCENES];
        let mut slots: Vec<usize> = (0..FLEET_PIPELINES.len()).collect();
        rng.shuffle(&mut slots);
        // One caller close and one migration to the next wave's scene
        // per wave, on distinct sessions; the last wave does not migrate,
        // which would bake a scene no wave serves.
        let close = rng.below(slots.len());
        let migrate = (close + 1 + rng.below(slots.len() - 1)) % slots.len();
        for (a, k) in slots.into_iter().enumerate() {
            let pipeline = FLEET_PIPELINES[k];
            arrivals.push(Arrival {
                wave,
                slot: 2 * a + rng.below(2),
                scene,
                session: SessionPlan {
                    pipeline,
                    phase: rng.range(0.0, TAU as f64) as f32,
                    frames: FLEET_FRAMES[(wave + frames_of[k]) % FLEET_FRAMES.len()],
                    weight: 1 + rng.below(3) as u32,
                    priority: rng.below(3) as u8,
                    deadline_periods: Some(
                        FLEET_PERIODS[(wave + period_of[k]) % FLEET_PERIODS.len()],
                    ),
                },
                close_after: (a == close).then(|| 3 + rng.below(3)),
                migrate: (a == migrate && wave + 1 < WAVES).then(|| (2 + rng.below(3), next_scene)),
            });
        }
    }
    FleetPlan { scenes, arrivals }
}

/// Seed of schedule `k` of a run: each run cycles through
/// `SCHEDULES` schedules drawn from its seed, so one run averages over
/// several arrival patterns, path phases and deadline draws.
pub fn schedule_seed(seed: u64, k: usize) -> u64 {
    Rng::new(seed ^ (k as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// `count` distinct delivered-frame ordinals in `0..total`, chosen by
/// the seed: which delivered frames the output check re-renders.
pub fn sample_ordinals(seed: u64, total: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0xC4EC_0000);
    let mut all: Vec<usize> = (0..total).collect();
    rng.shuffle(&mut all);
    all.truncate(count);
    all.sort_unstable();
    all
}
