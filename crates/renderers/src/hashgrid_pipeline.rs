//! The hash-grid-based rendering pipeline (Sec. II-D, Fig. 5): ray casting
//! → hash indexing → MLP → blending.
//!
//! Follows Instant-NGP's structure: multi-level hash features fetched per
//! sample, a small decoder MLP producing density and color, and an
//! occupancy-style skip (samples whose fetched density channels are empty
//! never reach the decoder).

use crate::blending::RayAccumulator;
use crate::probe::{self, Counted, Probe};
use crate::Renderer;
use uni_geometry::sampling::XorShift64;
use uni_geometry::{Camera, Image, Rgb, StratifiedSampler};
use uni_microops::{Dims, IndexFunction, Invocation, Pipeline, Trace, Workload};
use uni_scene::{BakedScene, PEAK_DENSITY};

/// The hash-grid (volume rendering) pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HashGridPipeline {}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HashStats {
    rays: u64,
    rays_in_bounds: u64,
    /// Samples tested against the occupancy proxy (cheap dense-level read).
    samples_marched: u64,
    /// Samples surviving the occupancy gate (full hash fetch + decoder).
    samples_fetched: u64,
}

impl HashStats {
    fn merge(&mut self, o: HashStats) {
        self.rays += o.rays;
        self.rays_in_bounds += o.rays_in_bounds;
        self.samples_marched += o.samples_marched;
        self.samples_fetched += o.samples_fetched;
    }
}

impl HashGridPipeline {
    /// Renders the scanlines starting at row `y0` into `chunk` (whole
    /// rows, row-major), using the caller's ray scratch arena.
    // uni-lint: hot
    fn render_rows(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        y0: u32,
        chunk: &mut [Rgb],
        rs: &mut crate::scratch::RayScratch,
    ) -> HashStats {
        let bg = scene.field().background();
        let grid = scene.hashgrid();
        let decoder = scene.hash_decoder();
        let bounds = grid.bounds();
        let cfg = *grid.config();
        let samples_per_ray = scene.spec().scaled_repr().samples_per_ray as usize;
        let sampler = StratifiedSampler::new(samples_per_ray);
        let mut rng = XorShift64::new(0xFEED);
        let width = camera.width as usize;
        let rows = chunk.len() / width.max(1);
        let mut stats = HashStats::default();
        {
            let crate::scratch::RayScratch { ts, feats, mlp, .. } = rs;
            feats.clear();
            feats.resize(cfg.feature_dim() as usize, 0.0);
            for dy in 0..rows {
                let y = y0 + dy as u32;
                let row = &mut chunk[dy * width..(dy + 1) * width];
                for x in 0..camera.width {
                    stats.rays += 1;
                    let ray = camera.primary_ray(x as f32 + 0.5, y as f32 + 0.5);
                    let Some((t0, t1)) = bounds.intersect_ray(&ray, camera.near, camera.far) else {
                        continue;
                    };
                    stats.rays_in_bounds += 1;
                    let mut acc = RayAccumulator::new();
                    sampler.sample_into(t0, t1, &mut rng, ts);
                    let dt = (t1 - t0) / samples_per_ray.max(1) as f32;
                    for &t in ts.iter() {
                        if acc.saturated() {
                            break;
                        }
                        stats.samples_marched += 1;
                        // Occupancy gate *before* the hash fetch (Instant-NGP
                        // consults its occupancy grid first): the finest dense
                        // (collision-free) level is the proxy — where it reads
                        // ~zero density, neither the fetch nor the decoder run.
                        if grid.density_probe(ray.at(t)) < 2e-2 {
                            continue;
                        }
                        stats.samples_fetched += 1;
                        grid.fetch(ray.at(t), feats);
                        let out = decoder.forward_scratch(feats, mlp);
                        let density = out[0].max(0.0) * PEAK_DENSITY;
                        if density < 1e-2 {
                            continue;
                        }
                        let color = Rgb::new(
                            out[1].clamp(0.0, 1.0),
                            out[2].clamp(0.0, 1.0),
                            out[3].clamp(0.0, 1.0),
                        );
                        acc.add_density_sample(color, density, dt);
                    }
                    row[x as usize] = acc.finish(bg);
                }
            }
        }
        stats
    }

    /// The seed-era scalar reference path: single-threaded, allocating a
    /// fresh sample vector per ray and fresh decoder activations per
    /// sample, probing and fetching through the uncached per-call
    /// `ln`/`exp` grid math and the scalar row-dot decoder kernel.
    /// Parity baseline and the "before" side of `benches/render_hot.rs`.
    pub fn render_scalar(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let bg = scene.field().background();
        let mut img = Image::new(camera.width, camera.height, bg);
        let grid = scene.hashgrid();
        let decoder = scene.hash_decoder();
        let bounds = grid.bounds();
        let cfg = *grid.config();
        let samples_per_ray = scene.spec().scaled_repr().samples_per_ray as usize;
        let sampler = StratifiedSampler::new(samples_per_ray);
        let mut rng = XorShift64::new(0xFEED);
        let mut feats = vec![0f32; cfg.feature_dim() as usize];
        for y in 0..camera.height {
            for x in 0..camera.width {
                let ray = camera.primary_ray(x as f32 + 0.5, y as f32 + 0.5);
                let Some((t0, t1)) = bounds.intersect_ray(&ray, camera.near, camera.far) else {
                    continue;
                };
                let mut acc = RayAccumulator::new();
                let ts = sampler.sample(t0, t1, &mut rng);
                let dt = (t1 - t0) / samples_per_ray.max(1) as f32;
                for &t in &ts {
                    if acc.saturated() {
                        break;
                    }
                    if grid.density_probe_scalar(ray.at(t)) < 2e-2 {
                        continue;
                    }
                    grid.fetch_scalar(ray.at(t), &mut feats);
                    let out = decoder.forward_scalar(&feats);
                    let density = out[0].max(0.0) * PEAK_DENSITY;
                    if density < 1e-2 {
                        continue;
                    }
                    let color = Rgb::new(
                        out[1].clamp(0.0, 1.0),
                        out[2].clamp(0.0, 1.0),
                        out[3].clamp(0.0, 1.0),
                    );
                    acc.add_density_sample(color, density, dt);
                }
                img.set(x, y, acc.finish(bg));
            }
        }
        img
    }
}

impl Renderer for HashGridPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::HashGrid
    }

    fn render_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) {
        self.render_counted(scene, camera, target);
    }

    fn trace(&self, scene: &BakedScene, camera: &Camera) -> Trace {
        probe::trace(self, scene, camera)
    }

    fn render_traced_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) -> Trace {
        probe::render_traced_into(self, scene, camera, target)
    }
}

impl Counted for HashGridPipeline {
    type Stats = HashStats;

    fn render_counted(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) -> HashStats {
        let bg = scene.field().background();
        target.resize(camera.width, camera.height, bg);
        let width = camera.width as usize;
        let band_len = crate::scratch::BAND_ROWS as usize * width;
        uni_parallel::par_bands_fold(
            target.pixels_mut(),
            band_len,
            HashStats::default(),
            |band, chunk| {
                crate::scratch::with_ray_scratch(|rs| {
                    self.render_rows(
                        scene,
                        camera,
                        band as u32 * crate::scratch::BAND_ROWS,
                        chunk,
                        rs,
                    )
                })
            },
            |mut acc, s| {
                acc.merge(s);
                acc
            },
        )
    }

    fn trace_from_stats(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        probe: &Probe,
        stats: HashStats,
    ) -> Trace {
        let mut trace = Trace::new(Pipeline::HashGrid, camera.width, camera.height);

        let repr = &scene.spec().repr;
        let scaled = scene.spec().scaled_repr();
        let sample_ratio =
            f64::from(repr.samples_per_ray) / f64::from(scaled.samples_per_ray.max(1));
        let marched = (probe.scale(stats.samples_marched) as f64 * sample_ratio) as u64;
        let fetched = (probe.scale(stats.samples_fetched) as f64 * sample_ratio) as u64;

        // (1) Occupancy probe on the finest dense level (one level, one
        // channel) for every marched sample.
        let dense_res = u64::from(
            repr.hash
                .level_resolution(repr.hash.levels.saturating_sub(4))
                + 1,
        );
        trace.push(Invocation::new(
            "occupancy probe",
            Workload::GridIndex {
                points: marched.max(1),
                levels: 1,
                corners: 8,
                feature_dim: 1,
                table_bytes: (dense_res.pow(3) * 2).min(repr.hash.table_size() * 2),
                function: IndexFunction::LinearIndexing,
                dims: Dims::D3,
                decomposed: false,
            },
        ));

        // (2) Hash indexing over the full-scale multi-level grid, only for
        // samples surviving the occupancy gate.
        trace.push(Invocation::new(
            "hash indexing",
            Workload::GridIndex {
                points: fetched.max(1),
                levels: repr.hash.levels,
                corners: 8,
                feature_dim: repr.hash.features_per_entry,
                table_bytes: repr.hash.storage_bytes(),
                function: IndexFunction::RandomHash,
                dims: Dims::D3,
                decomposed: false,
            },
        ));

        // (3) Decoder MLP at full feature width on the same samples.
        let in_dim = repr.hash.feature_dim();
        let layer_dims: [(u32, u32); 3] = [(in_dim, 64), (64, 64), (64, 4)];
        for (i, (ind, outd)) in layer_dims.into_iter().enumerate() {
            let params = u64::from(ind) * u64::from(outd) + u64::from(outd);
            trace.push(Invocation::new(
                format!("decoder layer {i}"),
                Workload::Gemm {
                    batch: fetched.max(1),
                    in_dim: ind,
                    out_dim: outd,
                    weight_bytes: params * 2,
                },
            ));
        }

        // (4) Blending.
        trace.push(
            Invocation::new(
                "blending",
                Workload::Gemm {
                    batch: fetched.max(1),
                    in_dim: 1,
                    out_dim: 4,
                    weight_bytes: 0,
                },
            )
            .with_sfu_ops(fetched.max(1)),
        );
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use uni_microops::MicroOp;

    #[test]
    fn renders_content() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 48, 36);
        let img = HashGridPipeline::default().render(scene, &camera);
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 30, "{non_bg} non-background pixels");
    }

    #[test]
    fn trace_uses_random_hash_combined_indexing() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = HashGridPipeline::default().trace(scene, &camera);
        let hash = trace
            .iter()
            .find(|i| i.stage() == "hash indexing")
            .expect("hash stage");
        assert_eq!(hash.op(), MicroOp::CombinedGridIndexing);
        if let Workload::GridIndex {
            function,
            corners,
            levels,
            dims,
            ..
        } = hash.workload()
        {
            assert_eq!(*function, IndexFunction::RandomHash);
            assert_eq!(*corners, 8, "trilinear over nearest vertices");
            assert_eq!(*levels, scene.spec().repr.hash.levels);
            assert_eq!(*dims, Dims::D3);
        } else {
            panic!("expected grid index");
        }
    }

    #[test]
    fn occupancy_skip_gates_the_fetch() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        let stats = HashGridPipeline::default().render_counted(scene, &camera, &mut Image::empty());
        assert!(stats.samples_marched > 0);
        assert!(stats.samples_fetched > 0, "some samples survive the gate");
        assert!(
            stats.samples_fetched < stats.samples_marched,
            "fetch only on occupied samples: {} of {}",
            stats.samples_fetched,
            stats.samples_marched
        );
    }

    #[test]
    fn trace_micro_op_sequence() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = HashGridPipeline::default().trace(scene, &camera);
        assert_eq!(
            trace.micro_ops_used(),
            vec![MicroOp::CombinedGridIndexing, MicroOp::Gemm]
        );
        assert_eq!(trace.reconfiguration_count(), 1);
    }

    #[test]
    fn hash_table_traffic_is_bounded_by_table_size() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 1280, 720);
        let trace = HashGridPipeline::default().trace(scene, &camera);
        let cost = trace
            .iter()
            .find(|i| i.stage() == "hash indexing")
            .expect("hash stage")
            .cost();
        let table = scene.spec().repr.hash.storage_bytes();
        assert!(
            cost.dram_read_bytes <= table + cost.items * 12 + 1,
            "unique-byte bound holds"
        );
    }
}
