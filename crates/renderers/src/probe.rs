//! Probe-resolution workload estimation.
//!
//! Frame traces must describe the full benchmark resolution (1280×720 for
//! Unbounded-360), but gathering counts by rendering every pixel would make
//! trace generation as expensive as rendering. Instead each pipeline
//! renders at a capped *probe* resolution, counts its work exactly, and
//! scales the resolution-proportional quantities by the pixel ratio —
//! per-primitive quantities (vertex projection, splat setup) stay exact.
//!
//! At or below the cap the probe *is* the frame ([`Probe::is_identity`]),
//! so a separate probe render would repeat the real one. The serving
//! path ([`crate::Renderer::render_traced_into`]) therefore renders once
//! and builds the trace from that render's own counts; only frames above
//! the cap pay for a second, probe-sized render.

use crate::scratch::with_probe_target;
use uni_geometry::{Camera, Image};
use uni_microops::Trace;
use uni_scene::BakedScene;

/// Maximum probe pixels along the longer image axis.
pub const MAX_PROBE_AXIS: u32 = 192;

/// A probe plan: the reduced camera plus the pixel scale factor back to the
/// full frame.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Camera at probe resolution (same pose and field of view).
    pub camera: Camera,
    /// `full_pixels / probe_pixels` — the factor for resolution-
    /// proportional counts.
    pub pixel_scale: f64,
    /// Resolution of the real frame the probe stands for.
    full: (u32, u32),
}

impl Probe {
    /// Plans a probe for `camera`, preserving aspect ratio.
    pub fn plan(camera: &Camera) -> Self {
        let long_axis = camera.width.max(camera.height);
        if long_axis <= MAX_PROBE_AXIS {
            return Self {
                camera: *camera,
                pixel_scale: 1.0,
                full: (camera.width, camera.height),
            };
        }
        let shrink = long_axis as f64 / MAX_PROBE_AXIS as f64;
        let w = ((camera.width as f64 / shrink).round() as u32).max(8);
        let h = ((camera.height as f64 / shrink).round() as u32).max(8);
        let probe_cam = camera.with_resolution(w, h);
        let full_px = camera.pixel_count() as f64;
        let probe_px = probe_cam.pixel_count() as f64;
        Self {
            camera: probe_cam,
            pixel_scale: full_px / probe_px,
            full: (camera.width, camera.height),
        }
    }

    /// Whether the probe renders the full frame: its camera has the real
    /// camera's width and height, so probe counts *are* frame counts.
    pub fn is_identity(&self) -> bool {
        (self.camera.width, self.camera.height) == self.full
    }

    /// Scales a resolution-proportional count up to the full frame.
    #[inline]
    pub fn scale(&self, probe_count: u64) -> u64 {
        (probe_count as f64 * self.pixel_scale).round() as u64
    }
}

/// A pipeline whose render pass counts its own work: the stats a trace
/// is built from fall out of [`Counted::render_counted`], so one pass can
/// feed both the image and the trace.
pub(crate) trait Counted {
    /// Exact work counts of one render pass.
    type Stats;

    /// Renders one frame into `target` (the `render_into` contract) and
    /// returns the pass's work counts.
    fn render_counted(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        target: &mut Image,
    ) -> Self::Stats;

    /// Counts the work of a frame at `camera` without keeping its image.
    /// The default renders into this thread's reusable probe target.
    fn count(&self, scene: &BakedScene, camera: &Camera) -> Self::Stats {
        with_probe_target(|img| self.render_counted(scene, camera, img))
    }

    /// Builds the frame trace for `camera` from counts gathered at
    /// `probe.camera`, scaling resolution-proportional counts by the
    /// probe's pixel ratio.
    fn trace_from_stats(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        probe: &Probe,
        stats: Self::Stats,
    ) -> Trace;
}

/// [`crate::Renderer::trace`] for a [`Counted`] pipeline: count at the probe
/// resolution, then build the trace.
pub(crate) fn trace<R: Counted>(renderer: &R, scene: &BakedScene, camera: &Camera) -> Trace {
    let probe = Probe::plan(camera);
    let stats = renderer.count(scene, &probe.camera);
    renderer.trace_from_stats(scene, camera, &probe, stats)
}

/// [`crate::Renderer::render_traced_into`] for a [`Counted`] pipeline: render
/// the frame once and, when the probe is the identity, build the trace
/// from that render's counts. Above the cap the counts come from a
/// separate probe render, exactly as [`trace`] gathers them.
pub(crate) fn render_traced_into<R: Counted>(
    renderer: &R,
    scene: &BakedScene,
    camera: &Camera,
    target: &mut Image,
) -> Trace {
    let probe = Probe::plan(camera);
    let stats = renderer.render_counted(scene, camera, target);
    let stats = if probe.is_identity() {
        stats
    } else {
        renderer.count(scene, &probe.camera)
    };
    renderer.trace_from_stats(scene, camera, &probe, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uni_geometry::Vec3;

    fn cam(w: u32, h: u32) -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 3.0), Vec3::ZERO, Vec3::Y, 1.0, w, h)
    }

    #[test]
    fn small_cameras_pass_through() {
        let p = Probe::plan(&cam(160, 120));
        assert_eq!(p.camera.width, 160);
        assert_eq!(p.pixel_scale, 1.0);
        assert_eq!(p.scale(1000), 1000);
    }

    #[test]
    fn large_cameras_shrink_preserving_aspect() {
        let p = Probe::plan(&cam(1280, 720));
        assert_eq!(p.camera.width, MAX_PROBE_AXIS);
        let aspect_full = 1280.0 / 720.0;
        let aspect_probe = p.camera.width as f64 / p.camera.height as f64;
        assert!((aspect_full - aspect_probe).abs() < 0.05);
        // Scale factor recovers full pixel count.
        let recovered = p.scale(p.camera.pixel_count());
        let full = 1280 * 720;
        let full_f = f64::from(full);
        assert!((recovered as f64 - full_f).abs() / full_f < 0.01);
    }

    #[test]
    fn identity_exactly_up_to_the_cap() {
        assert!(Probe::plan(&cam(MAX_PROBE_AXIS, 144)).is_identity());
        assert!(Probe::plan(&cam(144, MAX_PROBE_AXIS)).is_identity());
        assert!(!Probe::plan(&cam(MAX_PROBE_AXIS + 1, 144)).is_identity());
        assert!(!Probe::plan(&cam(144, MAX_PROBE_AXIS + 1)).is_identity());
        assert!(!Probe::plan(&cam(1280, 720)).is_identity());
    }

    #[test]
    fn probe_camera_keeps_pose() {
        let original = cam(1920, 1080);
        let p = Probe::plan(&original);
        assert_eq!(p.camera.eye, original.eye);
        assert!((p.camera.fov_y - original.fov_y).abs() < 1e-6);
    }
}
