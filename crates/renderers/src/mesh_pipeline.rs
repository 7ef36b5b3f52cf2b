//! The mesh-based rendering pipeline (Sec. II-A, Fig. 2): space conversion →
//! rasterization → texture indexing → MLP.
//!
//! Follows MobileNeRF's structure: a baked triangle mesh with a feature
//! texture atlas, rasterized with a Z-buffer, shaded by a small deferred
//! MLP for view-dependent color.

use crate::probe::{self, Counted, Probe};
use crate::{emit_mlp_layers, Renderer};
use uni_geometry::{Camera, Image, Rgb, Vec2, Vec3};
use uni_microops::{Dims, IndexFunction, Invocation, Pipeline, PrimitiveKind, Trace, Workload};
use uni_scene::{BakedScene, TriangleMesh};

/// The mesh-based (rasterization) pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshPipeline {
    /// Rasterizer processing tile size in pixels (PE pixel-region size in
    /// the Geometric Processing dataflow, Fig. 10).
    pub tile_size: u32,
}

impl Default for MeshPipeline {
    fn default() -> Self {
        Self { tile_size: 16 }
    }
}

/// Exact work counts from one rasterization pass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RasterStats {
    pub vertices_projected: u64,
    pub triangles_streamed: u64,
    pub candidate_pairs: u64,
    pub zbuffer_updates: u64,
    pub covered_pixels: u64,
}

impl RasterStats {
    fn merge(&mut self, o: RasterStats) {
        self.vertices_projected += o.vertices_projected;
        self.triangles_streamed += o.triangles_streamed;
        self.candidate_pairs += o.candidate_pairs;
        self.zbuffer_updates += o.zbuffer_updates;
        self.covered_pixels += o.covered_pixels;
    }
}

/// Rasterizes the triangles overlapping rows `[y0, y0 + rows)` into a
/// Z-buffer band (`rows × width` slots).
///
/// Every triangle is tested against the band's row range; per-pixel
/// results and counts are identical to a whole-frame pass because each
/// pixel sees triangles in the same (index) order regardless of banding.
/// `triangles_streamed` is attributed to the band owning the triangle's
/// clamped top row so the banded counts sum to the scalar pass exactly.
fn rasterize_rows(
    mesh: &TriangleMesh,
    projected: &[Option<(Vec2, f32)>],
    w: usize,
    h: usize,
    y0: usize,
    band: &mut [Option<PixelHitPublic>],
) -> RasterStats {
    let rows = band.len() / w.max(1);
    let band_end = y0 + rows; // exclusive
    let mut stats = RasterStats::default();
    for t in 0..mesh.triangle_count() {
        let i = t * 3;
        let (Some(a), Some(b), Some(c)) = (
            projected[mesh.indices[i] as usize],
            projected[mesh.indices[i + 1] as usize],
            projected[mesh.indices[i + 2] as usize],
        ) else {
            continue; // Clipped by the near plane.
        };
        // Screen bounding box (the PE pre-load region of Fig. 10).
        let min_x = a.0.x.min(b.0.x).min(c.0.x).floor().max(0.0) as usize;
        let max_x = (a.0.x.max(b.0.x).max(c.0.x).ceil() as usize).min(w.saturating_sub(1));
        let min_y = a.0.y.min(b.0.y).min(c.0.y).floor().max(0.0) as usize;
        let max_y = (a.0.y.max(b.0.y).max(c.0.y).ceil() as usize).min(h.saturating_sub(1));
        if min_x > max_x || min_y > max_y {
            continue;
        }
        if (y0..band_end).contains(&min_y) {
            stats.triangles_streamed += 1;
        }
        if min_y >= band_end || max_y < y0 {
            continue; // No overlap with this band.
        }
        let ab = b.0 - a.0;
        let ac = c.0 - a.0;
        let area = ab.cross(ac);
        if area.abs() < 1e-9 {
            continue;
        }
        let inv_area = 1.0 / area;
        for py in min_y.max(y0)..=max_y.min(band_end - 1) {
            for px in min_x..=max_x {
                stats.candidate_pairs += 1;
                let p = Vec2::new(px as f32 + 0.5, py as f32 + 0.5);
                let ap = p - a.0;
                // Edge functions via 2D cross products (Fig. 10's ALU
                // vector mode).
                let w1 = ap.cross(ac) * inv_area;
                let w2 = ab.cross(ap) * inv_area;
                let w0 = 1.0 - w1 - w2;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let depth = w0 * a.1 + w1 * b.1 + w2 * c.1;
                let slot = &mut band[(py - y0) * w + px];
                // Min. Hold: keep the nearest primitive.
                if slot.is_none_or(|hit| depth < hit.depth) {
                    *slot = Some(PixelHitPublic {
                        triangle: t as u32,
                        bary: (w0, w1, w2),
                        depth,
                    });
                    stats.zbuffer_updates += 1;
                }
            }
        }
    }
    stats.covered_pixels = band.iter().filter(|s| s.is_some()).count() as u64;
    stats
}

/// Rasterizes the mesh into a freshly allocated per-pixel hit buffer
/// with exact work counts (test helper; the frame paths reuse a
/// [`crate::scratch::RasterScratch`] through [`rasterize_into`]).
#[cfg(test)]
fn rasterize(mesh: &TriangleMesh, camera: &Camera) -> (Vec<Option<PixelHitPublic>>, RasterStats) {
    let mut rs = crate::scratch::RasterScratch::default();
    let stats = rasterize_into(mesh, camera, &mut rs);
    (rs.zbuf, stats)
}

/// Rasterizes the mesh into caller-owned buffers with exact work counts,
/// processing bands of rows in parallel: `rs.zbuf` holds the per-pixel
/// hit buffer on return, and both it and the projected-vertex cache
/// reuse their capacity across frames.
pub(crate) fn rasterize_into(
    mesh: &TriangleMesh,
    camera: &Camera,
    rs: &mut crate::scratch::RasterScratch,
) -> RasterStats {
    let (w, h) = (camera.width as usize, camera.height as usize);
    let crate::scratch::RasterScratch { zbuf, projected } = rs;
    zbuf.clear();
    zbuf.resize(w * h, None);

    // Space conversion: project every vertex once, shared by all bands.
    projected.clear();
    projected.extend(
        mesh.positions
            .iter()
            .map(|&p| camera.project_to_screen(p).map(|(s, _, d)| (s, d))),
    );

    let band_rows = crate::scratch::BAND_ROWS as usize;
    let projected = &*projected;
    uni_parallel::par_bands_fold(
        zbuf,
        band_rows * w,
        RasterStats {
            vertices_projected: mesh.vertex_count() as u64,
            ..RasterStats::default()
        },
        |band, chunk| rasterize_rows(mesh, projected, w, h, band * band_rows, chunk),
        |mut acc, s| {
            acc.merge(s);
            acc
        },
    )
}

/// Single-threaded whole-frame rasterization (parity/bench baseline for
/// the banded pass above).
pub(crate) fn rasterize_scalar(
    mesh: &TriangleMesh,
    camera: &Camera,
) -> (Vec<Option<PixelHitPublic>>, RasterStats) {
    let (w, h) = (camera.width as usize, camera.height as usize);
    let mut zbuf: Vec<Option<PixelHitPublic>> = vec![None; w * h];
    let projected: Vec<Option<(Vec2, f32)>> = mesh
        .positions
        .iter()
        .map(|&p| camera.project_to_screen(p).map(|(s, _, d)| (s, d)))
        .collect();
    let mut stats = rasterize_rows(mesh, &projected, w, h, 0, &mut zbuf);
    stats.vertices_projected = mesh.vertex_count() as u64;
    (zbuf, stats)
}

/// A rasterization hit exposed to sibling pipelines (the hybrid pipeline
/// reuses the rasterizer).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PixelHitPublic {
    pub triangle: u32,
    pub bary: (f32, f32, f32),
    pub depth: f32,
}

/// Rasterizes at `camera` for the work counts alone, into this thread's
/// reusable raster scratch (no shading, no framebuffer).
pub(crate) fn count_raster(mesh: &TriangleMesh, camera: &Camera) -> RasterStats {
    crate::scratch::with_raster_scratch(|rs| rasterize_into(mesh, camera, rs))
}

/// Pushes the two geometry stages every rasterizing pipeline shares —
/// space conversion and rasterization — built from rasterizer counts
/// gathered at `probe.camera`.
pub(crate) fn push_raster_stages(
    trace: &mut Trace,
    scene: &BakedScene,
    camera: &Camera,
    probe: &Probe,
    stats: &RasterStats,
) {
    // Full-scale workload constants come from the spec (the baked
    // representation may be detail-scaled for tests); coverage ratios
    // come from the probe rasterization.
    let full_tris = u64::from(scene.spec().repr.target_triangles);
    let baked_tris = scene.mesh().triangle_count().max(1) as u64;
    let tri_ratio = full_tris as f64 / baked_tris as f64;
    let verts = (stats.vertices_projected as f64 * tri_ratio) as u64;
    let streamed = (stats.triangles_streamed as f64 * tri_ratio) as u64;

    // (1) Space conversion: 4×4 view-projection per vertex (GEMM).
    trace.push(Invocation::new(
        "space conversion",
        Workload::Gemm {
            batch: verts,
            in_dim: 4,
            out_dim: 4,
            weight_bytes: 32,
        },
    ));

    // (2) Rasterization (Geometric Processing). Candidate pairs are
    // resolution-driven (bounding-box coverage), not triangle-count
    // driven, so the probe measurement scales by pixels only.
    trace.push(Invocation::new(
        "rasterization",
        Workload::Geometric {
            kind: PrimitiveKind::Triangle,
            primitives: streamed,
            candidate_pairs: probe.scale(stats.candidate_pairs),
            hits: probe.scale(stats.zbuffer_updates),
            prim_bytes: TriangleMesh::BYTES_PER_TRIANGLE,
            output_pixels: camera.pixel_count(),
        },
    ));
}

impl MeshPipeline {
    /// Deferred-shades rows `[y0, y0 + rows)` from the hit buffer, using
    /// the caller's ray scratch arena.
    fn shade_rows(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        hits: &[Option<PixelHitPublic>],
        y0: u32,
        chunk: &mut [Rgb],
        rs: &mut crate::scratch::RayScratch,
    ) {
        let tex = scene.texture();
        let mesh = scene.mesh();
        let width = camera.width as usize;
        let rows = chunk.len() / width.max(1);
        {
            let crate::scratch::RayScratch { feats, mlp, .. } = rs;
            feats.clear();
            feats.resize(tex.channels() as usize, 0.0);
            for dy in 0..rows {
                let y = y0 + dy as u32;
                let row = &mut chunk[dy * width..(dy + 1) * width];
                for x in 0..camera.width {
                    let Some(hit) = hits[(y * camera.width + x) as usize] else {
                        continue;
                    };
                    let [ua, ub, uc] = mesh.triangle_uvs(hit.triangle as usize);
                    let (w0, w1, w2) = hit.bary;
                    let uv = ua * w0 + ub * w1 + uc * w2;
                    tex.sample_bilinear(uv, feats);
                    let diffuse = Rgb::new(feats[0], feats[1], feats[2]);
                    let s = feats[3];
                    let n = Vec3::new(feats[4], feats[5], feats[6]);
                    let view = camera.primary_ray(x as f32 + 0.5, y as f32 + 0.5).direction;
                    let spec = scene.deferred_mlp().forward_scratch(
                        &[s * n.x, s * n.y, s * n.z, s, view.x, view.y, view.z],
                        mlp,
                    );
                    row[x as usize] = Rgb::new(
                        diffuse.r + spec[0],
                        diffuse.g + spec[1],
                        diffuse.b + spec[2],
                    )
                    .saturate();
                }
            }
        }
    }

    fn shade_into(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        hits: &[Option<PixelHitPublic>],
        target: &mut Image,
    ) {
        let bg = scene.field().background();
        target.resize(camera.width, camera.height, bg);
        let width = camera.width as usize;
        let band_rows = crate::scratch::BAND_ROWS;
        uni_parallel::par_bands(
            target.pixels_mut(),
            band_rows as usize * width,
            |band, chunk| {
                crate::scratch::with_ray_scratch(|rs| {
                    self.shade_rows(scene, camera, hits, band as u32 * band_rows, chunk, rs);
                });
            },
        );
    }

    /// Single-threaded whole-frame reference path (parity/bench baseline).
    pub fn render_scalar(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let (hits, _) = rasterize_scalar(scene.mesh(), camera);
        let mut img = Image::new(camera.width, camera.height, scene.field().background());
        crate::scratch::with_ray_scratch(|rs| {
            self.shade_rows(scene, camera, &hits, 0, img.pixels_mut(), rs);
        });
        img
    }
}

impl Renderer for MeshPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::Mesh
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

impl Counted for MeshPipeline {
    type Stats = RasterStats;

    fn render_counted(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        target: &mut Image,
    ) -> RasterStats {
        crate::scratch::with_raster_scratch(|rs| {
            let stats = rasterize_into(scene.mesh(), camera, rs);
            self.shade_into(scene, camera, &rs.zbuf, target);
            stats
        })
    }

    fn count(&self, scene: &BakedScene, camera: &Camera) -> RasterStats {
        count_raster(scene.mesh(), camera)
    }

    fn trace_from_stats(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        probe: &Probe,
        stats: RasterStats,
    ) -> Trace {
        let mut trace = Trace::new(Pipeline::Mesh, camera.width, camera.height);
        push_raster_stages(&mut trace, scene, camera, probe, &stats);
        let repr = &scene.spec().repr;

        // (3) Texture indexing (Combined Grid Indexing, bilinear).
        // MobileNeRF-style bakes fetch *two* deferred-feature textures per
        // pixel from a multi-slab atlas (3 slabs counted in the table).
        let covered = probe.scale(stats.covered_pixels);
        let texture_bytes =
            u64::from(repr.texture_resolution).pow(2) * u64::from(repr.texture_channels) * 3;
        trace.push(Invocation::new(
            "texture indexing",
            Workload::GridIndex {
                points: covered * 2,
                levels: 1,
                corners: 4,
                feature_dim: repr.texture_channels,
                table_bytes: texture_bytes,
                function: IndexFunction::LinearIndexing,
                dims: Dims::D2,
                decomposed: false,
            },
        ));

        // (4) Deferred shading MLP per covered pixel.
        emit_mlp_layers(&mut trace, "shading mlp", scene.deferred_mlp(), covered, 0);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use uni_microops::MicroOp;

    #[test]
    fn renders_content_against_background() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        let img = MeshPipeline::default().render(scene, &camera);
        // The orbit looks at the object cluster: some pixels differ from
        // the background.
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 100, "{non_bg} non-background pixels");
    }

    #[test]
    fn raster_stats_count_consistently() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 96, 64);
        let (hits, stats) = rasterize(scene.mesh(), &camera);
        assert_eq!(
            stats.covered_pixels,
            hits.iter().filter(|h| h.is_some()).count() as u64
        );
        assert!(stats.candidate_pairs >= stats.zbuffer_updates);
        assert!(stats.zbuffer_updates >= stats.covered_pixels);
        assert!(stats.triangles_streamed > 0);
    }

    #[test]
    fn zbuffer_keeps_nearest_surface() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        let (hits, _) = rasterize(scene.mesh(), &camera);
        for hit in hits.into_iter().flatten() {
            assert!(hit.depth > 0.0, "depths are positive view distances");
        }
    }

    #[test]
    fn trace_contains_the_four_steps_in_order() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = MeshPipeline::default().trace(scene, &camera);
        let ops = trace.micro_ops_used();
        assert_eq!(
            ops,
            vec![
                MicroOp::Gemm,
                MicroOp::GeometricProcessing,
                MicroOp::CombinedGridIndexing,
            ]
        );
        assert_eq!(trace.pipeline(), Pipeline::Mesh);
        assert_eq!(trace.width(), 640);
        // No sorting in mesh pipelines.
        assert_eq!(trace.stats().invocations_of(MicroOp::Sorting), 0);
    }

    #[test]
    fn trace_scales_with_resolution() {
        let scene = testutil::scene();
        let small = MeshPipeline::default().trace(scene, &testutil::camera(scene, 320, 240));
        let large = MeshPipeline::default().trace(scene, &testutil::camera(scene, 1280, 960));
        let s = small.stats().cost_of(MicroOp::GeometricProcessing);
        let l = large.stats().cost_of(MicroOp::GeometricProcessing);
        let ratio = l.int_macs as f64 / s.int_macs.max(1) as f64;
        assert!(
            ratio > 4.0 && ratio < 40.0,
            "16x pixels -> more raster work (got {ratio:.1}x)"
        );
    }

    #[test]
    fn trace_uses_full_scale_triangle_counts() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = MeshPipeline::default().trace(scene, &camera);
        let raster = trace
            .iter()
            .find(|i| i.stage() == "rasterization")
            .expect("raster stage");
        if let Workload::Geometric { primitives, .. } = raster.workload() {
            // The spec's full-scale triangle count is 150k; the baked test
            // scene has far fewer, but the trace reports full scale.
            assert!(
                *primitives > 10_000,
                "full-scale primitives, got {primitives}"
            );
        } else {
            panic!("expected geometric workload");
        }
    }
}
