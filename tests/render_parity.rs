//! Parity tests for the render hot-path overhaul: the SoA +
//! counting-sort + band-parallel production paths must reproduce the
//! seed-era scalar reference within 1e-5 per channel for all six
//! pipelines, the reusable-target entry point `render_into` must be
//! bit-identical to `render` (it *is* the same path, writing into a
//! caller-owned buffer), `render_traced_into` must match `render_into`
//! plus `trace` bit for bit, and the global counting sort must order
//! (tile, depth) pairs exactly like the comparison sort it replaced.

use proptest::prelude::*;
use std::sync::OnceLock;
use uni_render::geometry::sampling::XorShift64;
use uni_render::prelude::*;
use uni_render::renderers::all_renderers;
use uni_render::renderers::gaussian_pipeline::{depth_key, sort_pairs_by_tile_and_depth};
use uni_render::renderers::probe::{Probe, MAX_PROBE_AXIS};
use uni_render::scene::nn::Layer;
use uni_render::scene::Activation;

fn scene() -> &'static BakedScene {
    static SCENE: OnceLock<BakedScene> = OnceLock::new();
    SCENE.get_or_init(|| SceneSpec::demo("parity", 77).with_detail(0.03).bake())
}

fn camera() -> Camera {
    scene().orbit().camera_at(0.8).with_resolution(96, 72)
}

#[track_caller]
fn assert_images_close(optimized: &Image, scalar: &Image, pipeline: &str) {
    assert_eq!(
        (optimized.width(), optimized.height()),
        (scalar.width(), scalar.height()),
        "{pipeline}: dimensions"
    );
    for (i, (a, b)) in optimized.pixels().iter().zip(scalar.pixels()).enumerate() {
        assert!(
            (a.r - b.r).abs() < 1e-5 && (a.g - b.g).abs() < 1e-5 && (a.b - b.b).abs() < 1e-5,
            "{pipeline}: pixel {i} diverged: optimized {a} vs scalar {b}"
        );
    }
}

#[test]
fn gaussian_soa_counting_sort_path_matches_scalar() {
    let p = GaussianPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "gaussian",
    );
}

#[test]
fn hashgrid_band_path_matches_scalar() {
    let p = HashGridPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "hashgrid",
    );
}

#[test]
fn mlp_band_path_matches_scalar() {
    let p = MlpPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "mlp",
    );
}

#[test]
fn lowrank_band_path_matches_scalar() {
    let p = LowRankPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "lowrank",
    );
}

#[test]
fn mesh_band_raster_matches_scalar() {
    let p = MeshPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "mesh",
    );
}

#[test]
fn hybrid_band_path_matches_scalar() {
    let p = MixRtPipeline::default();
    assert_images_close(
        &p.render(scene(), &camera()),
        &p.render_scalar(scene(), &camera()),
        "hybrid",
    );
}

/// `render_into` writes the same pixels as `render` for every pipeline
/// (bit-identical — both run the same production path), into a target
/// whose allocation is reused across frames, and stays within 1e-5 of
/// the seed-era scalar reference.
#[test]
fn render_into_matches_render_and_scalar_for_all_pipelines() {
    let renderers: Vec<(Box<dyn Renderer>, &str)> = vec![
        (Box::new(MeshPipeline::default()), "mesh"),
        (Box::new(MlpPipeline::default()), "mlp"),
        (Box::new(LowRankPipeline::default()), "lowrank"),
        (Box::new(HashGridPipeline::default()), "hashgrid"),
        (Box::new(GaussianPipeline::default()), "gaussian"),
        (Box::new(MixRtPipeline::default()), "hybrid"),
    ];
    // One shared target across all pipelines: render_into must fully
    // overwrite whatever the previous pipeline left behind.
    let mut target = Image::new(8, 8, Rgb::WHITE);
    for (renderer, name) in &renderers {
        let fresh = renderer.render(scene(), &camera());
        renderer.render_into(scene(), &camera(), &mut target);
        assert_eq!(
            (target.width(), target.height()),
            (fresh.width(), fresh.height()),
            "{name}: target resized to the camera resolution"
        );
        assert_eq!(
            target.pixels(),
            fresh.pixels(),
            "{name}: render_into must be bit-identical to render"
        );
    }
    // Scalar agreement through the reused target, same 1e-5 budget as
    // the per-pipeline parity tests above.
    for (renderer, name) in &renderers {
        renderer.render_into(scene(), &camera(), &mut target);
        let scalar = match *name {
            "mesh" => MeshPipeline::default().render_scalar(scene(), &camera()),
            "mlp" => MlpPipeline::default().render_scalar(scene(), &camera()),
            "lowrank" => LowRankPipeline::default().render_scalar(scene(), &camera()),
            "hashgrid" => HashGridPipeline::default().render_scalar(scene(), &camera()),
            "gaussian" => GaussianPipeline::default().render_scalar(scene(), &camera()),
            _ => MixRtPipeline::default().render_scalar(scene(), &camera()),
        };
        assert_images_close(&target, &scalar, name);
    }
}

/// Rendering repeatedly into one target reuses its allocation: after the
/// first frame at a resolution, no pixel-buffer reallocation occurs.
#[test]
fn render_into_reuses_the_target_allocation() {
    let renderer = MeshPipeline::default();
    let mut target = Image::empty();
    renderer.render_into(scene(), &camera(), &mut target);
    let cap = target.capacity();
    let ptr = target.pixels().as_ptr();
    for _ in 0..3 {
        renderer.render_into(scene(), &camera(), &mut target);
        assert_eq!(target.capacity(), cap, "capacity stable across frames");
        assert_eq!(target.pixels().as_ptr(), ptr, "buffer pointer stable");
    }
}

/// `render_traced_into` stands in for `render_into` followed by `trace`
/// on the serving path, so for every pipeline its image must be
/// bit-identical to `render_into`'s and its trace must equal `trace()`'s.
/// Checked below the probe cap (96×96, the serving resolution), exactly
/// at it, where the probe is still the frame, and above it, where the
/// trace falls back to a separate probe render. The last two cameras
/// are 4:1 strips so the MLP pipeline stays affordable in a debug build.
#[test]
fn render_traced_into_matches_render_into_and_trace_for_all_pipelines() {
    let resolutions = [(96, 96, true), (MAX_PROBE_AXIS, 48, true), (320, 80, false)];
    // One shared target across all pipelines and resolutions: the traced
    // path must fully overwrite whatever the previous frame left behind.
    let mut traced = Image::new(8, 8, Rgb::WHITE);
    let mut plain = Image::empty();
    for (w, h, identity) in resolutions {
        let camera = camera().with_resolution(w, h);
        assert_eq!(Probe::plan(&camera).is_identity(), identity, "{w}x{h}");
        for renderer in all_renderers() {
            let name = format!("{:?} at {w}x{h}", renderer.pipeline());
            let trace = renderer.render_traced_into(scene(), &camera, &mut traced);
            renderer.render_into(scene(), &camera, &mut plain);
            assert_eq!(
                (traced.width(), traced.height()),
                (plain.width(), plain.height()),
                "{name}: target resized to the camera resolution"
            );
            assert!(
                traced.pixels() == plain.pixels(),
                "{name}: render_traced_into image must be bit-identical to render_into"
            );
            assert!(
                trace == renderer.trace(scene(), &camera),
                "{name}: render_traced_into trace must equal trace()"
            );
        }
    }
}

proptest! {
    /// The global counting sort orders (tile, depth-key) pairs exactly
    /// like the seed's per-patch stable comparison sort: grouped by tile,
    /// by `f32::total_cmp` on depth within a tile, ties in original
    /// (splat) order.
    #[test]
    fn prop_counting_sort_matches_comparison_sort(
        pairs in proptest::collection::vec((0u32..64, 0u32..512), 0..400),
    ) {
        let n_tiles = 64u32;
        // Quantized depths provoke plenty of exact ties; negative and
        // subnormal-ish values exercise the total_cmp key mapping.
        let depths: Vec<f32> = pairs.iter().map(|&(_, d)| d as f32 * 0.25 - 40.0).collect();
        let mut keys: Vec<u64> = pairs
            .iter()
            .zip(&depths)
            .map(|(&(tile, _), &d)| (u64::from(tile) << 32) | u64::from(depth_key(d)))
            .collect();
        let mut ids: Vec<u32> = (0..pairs.len() as u32).collect();

        // Reference: the ordering the seed's per-patch sort produced.
        let mut reference: Vec<u32> = ids.clone();
        reference.sort_by(|&x, &y| {
            let (tx, dx) = (pairs[x as usize].0, depths[x as usize]);
            let (ty, dy) = (pairs[y as usize].0, depths[y as usize]);
            tx.cmp(&ty).then(dx.total_cmp(&dy))
        });

        let (mut keys_tmp, mut ids_tmp, mut hist) = (Vec::new(), Vec::new(), Vec::new());
        sort_pairs_by_tile_and_depth(
            &mut keys,
            &mut ids,
            &mut keys_tmp,
            &mut ids_tmp,
            &mut hist,
            n_tiles,
        );
        prop_assert_eq!(ids, reference);
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys sorted");
    }

    /// The depth key is a strictly order-preserving embedding of
    /// `f32::total_cmp`.
    #[test]
    fn prop_depth_key_orders_like_total_cmp(a in -1000f32..1000.0, b in -1000f32..1000.0) {
        prop_assert_eq!(depth_key(a).cmp(&depth_key(b)), a.total_cmp(&b));
    }

    /// The wide (8-output panel) gemm microkernel agrees with the
    /// seed-era scalar row dot within 1e-5 for arbitrary layer shapes —
    /// crucially including widths that are *not* multiples of the 8-lane
    /// panel, where the kernel's tail masking and odd-`in_dim` remainder
    /// column both engage — and is bit-stable across repeated runs (the
    /// reduction order is fixed, so two evaluations of the same layer on
    /// the same input produce identical bits).
    #[test]
    fn prop_wide_gemm_matches_scalar_dot_for_random_shapes(
        in_dim in 1usize..48,
        out_dim in 1usize..48,
        act in 0u8..3,
        seed in 1u64..1_000_000,
    ) {
        let activation = match act {
            0 => Activation::Linear,
            1 => Activation::Relu,
            _ => Activation::Sigmoid,
        };
        let mut rng = XorShift64::new(seed);
        let layer = Layer::random(in_dim, out_dim, activation, &mut rng);
        let x: Vec<f32> = (0..in_dim).map(|_| rng.next_f32() * 4.0 - 2.0).collect();

        let mut wide = vec![0.0f32; out_dim];
        let mut scalar = vec![0.0f32; out_dim];
        layer.forward_into(&x, &mut wide);
        layer.forward_into_scalar(&x, &mut scalar);
        for (o, (a, b)) in wide.iter().zip(&scalar).enumerate() {
            prop_assert!(
                (a - b).abs() < 1e-5,
                "({in_dim}x{out_dim}) output {o}: wide {a} vs scalar {b}"
            );
        }

        let mut again = vec![0.0f32; out_dim];
        layer.forward_into(&x, &mut again);
        let first: Vec<u32> = wide.iter().map(|v| v.to_bits()).collect();
        let second: Vec<u32> = again.iter().map(|v| v.to_bits()).collect();
        // Bit-stability across repeated runs of the wide kernel.
        prop_assert_eq!(first, second);
    }
}
