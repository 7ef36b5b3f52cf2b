//! Baking: turning a [`SceneSpec`]'s analytic field into every scene
//! representation the five pipelines consume.
//!
//! The paper's scenes exist as five trained checkpoints per capture
//! (MobileNeRF mesh+texture, KiloNeRF MLP grid, MeRF planes+grid,
//! Instant-NGP hash tables, 3DGS point cloud). Baking is our substitute for
//! training against captured photos: each representation is fitted against
//! the *same* analytic field — tessellation for meshes, SH projection for
//! Gaussians, vertex writes for grids, and genuine Adam training for every
//! MLP component.

use crate::field::{AnalyticField, LIGHT_DIR, PEAK_DENSITY};
use crate::gaussians::{Gaussian, GaussianCloud};
use crate::hashgrid::HashGrid;
use crate::kilonerf::KiloNerfGrid;
use crate::mesh::{Texture2d, TriangleMesh};
use crate::nn::{Activation, AdamTrainer, Mlp};
use crate::synthetic::SceneSpec;
use crate::triplane::{PlaneAxis, Triplane};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use uni_geometry::camera::Orbit;
use uni_geometry::sampling::XorShift64;
use uni_geometry::{sh, Aabb, Rgb, Vec2, Vec3};

/// Number of feature channels baked everywhere:
/// `[diffuse r, g, b, specular, nx, ny, nz, occupancy]`.
pub const FEATURE_CHANNELS: u32 = 8;

/// A fully baked scene: the analytic field plus all five representations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BakedScene {
    spec: SceneSpec,
    field: AnalyticField,
    bounds: Aabb,
    mesh: TriangleMesh,
    texture: Texture2d,
    gaussians: GaussianCloud,
    hashgrid: HashGrid,
    hash_decoder: Mlp,
    triplane: Triplane,
    deferred_mlp: Mlp,
    kilonerf: KiloNerfGrid,
}

impl SceneSpec {
    /// Bakes the spec into all five representations.
    ///
    /// Deterministic in the spec's seed. Cost scales with
    /// [`SceneSpec::with_detail`]; tests should use small detail factors.
    pub fn bake(&self) -> BakedScene {
        let field = self.build_field();
        let repr = self.scaled_repr();
        let mut rng = XorShift64::new(self.seed.wrapping_mul(0xA5A5).wrapping_add(3));

        let bounds = field.content_bounds().padded(0.25);
        let mesh = tessellate(&field, bounds, repr.target_triangles);
        let texture = bake_texture(&mesh, &field, repr.texture_resolution);
        let gaussians = bake_gaussians(&mesh, &field, repr.gaussian_count, 3, &mut rng);
        let hashgrid = bake_hashgrid(&mesh, &field, repr.hash, bounds, &mut rng);
        let hash_decoder = train_hash_decoder(&hashgrid, &field, &mesh, repr.train_steps, &mut rng);
        let triplane = bake_triplane(&mesh, &field, repr.triplane, bounds, &mut rng);
        let deferred_mlp = train_deferred_mlp(repr.train_steps, &mut rng);
        let kilonerf = KiloNerfGrid::bake(
            &field,
            bounds,
            repr.kilonerf_grid,
            repr.mlp_count,
            repr.mlp_hidden,
            repr.train_steps,
            &mut rng,
        );

        BakedScene {
            spec: self.clone(),
            field,
            bounds,
            mesh,
            texture,
            gaussians,
            hashgrid,
            hash_decoder,
            triplane,
            deferred_mlp,
            kilonerf,
        }
    }
}

impl BakedScene {
    /// The originating spec.
    pub fn spec(&self) -> &SceneSpec {
        &self.spec
    }

    /// The ground-truth analytic field.
    pub fn field(&self) -> &AnalyticField {
        &self.field
    }

    /// The padded content bounds all grids are defined over.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The baked triangle mesh.
    pub fn mesh(&self) -> &TriangleMesh {
        &self.mesh
    }

    /// The baked texture atlas (8 feature channels).
    pub fn texture(&self) -> &Texture2d {
        &self.texture
    }

    /// The baked Gaussian cloud.
    pub fn gaussians(&self) -> &GaussianCloud {
        &self.gaussians
    }

    /// The baked multi-level hash grid.
    pub fn hashgrid(&self) -> &HashGrid {
        &self.hashgrid
    }

    /// The trained hash-feature decoder MLP (`L×F → [σ, r, g, b]`).
    pub fn hash_decoder(&self) -> &Mlp {
        &self.hash_decoder
    }

    /// The baked low-rank decomposed grid.
    pub fn triplane(&self) -> &Triplane {
        &self.triplane
    }

    /// The trained deferred shading MLP
    /// (`[s·n, s, view] → specular RGB`), shared by the mesh, low-rank, and
    /// hybrid pipelines.
    pub fn deferred_mlp(&self) -> &Mlp {
        &self.deferred_mlp
    }

    /// The baked KiloNeRF grid of tiny MLPs.
    pub fn kilonerf(&self) -> &KiloNerfGrid {
        &self.kilonerf
    }

    /// Total bytes this baked scene keeps resident across every
    /// representation — the unit a capacity-bounded scene cache budgets
    /// and the bake-cost account charges. Deterministic for a given
    /// spec: baking is seeded purely from [`SceneSpec::seed`], so the
    /// same spec always bakes to the same resident size.
    pub fn resident_bytes(&self) -> u64 {
        self.mesh.storage_bytes()
            + self.texture.storage_bytes()
            + self.gaussians.storage_bytes()
            + self.hashgrid.config().storage_bytes()
            + self.hash_decoder.weight_bytes()
            + self.triplane.config().storage_bytes()
            + self.deferred_mlp.weight_bytes()
            + self.kilonerf.storage_bytes()
    }

    /// The default test-view orbit at a dataset-appropriate resolution.
    pub fn orbit(&self) -> Orbit {
        use crate::synthetic::SceneFlavor;
        let (w, h) = match self.spec.flavor {
            SceneFlavor::Object => (800, 800),
            _ => (1280, 720),
        };
        self.spec.orbit(w, h)
    }
}

/// Tessellates every field primitive into one mesh with atlas-packed UVs.
fn tessellate(field: &AnalyticField, bounds: Aabb, target_triangles: u32) -> TriangleMesh {
    use crate::field::Shape;
    let prims = field.primitives();
    if prims.is_empty() {
        return TriangleMesh::new();
    }
    // Budget triangles proportional to surface area.
    let ground_extent = (bounds.extent().x.max(bounds.extent().z) * 0.75).max(1.0);
    let area = |s: &Shape| -> f32 {
        match *s {
            Shape::Sphere { radius, .. } => 4.0 * std::f32::consts::PI * radius * radius,
            Shape::Box { half, .. } => 8.0 * (half.x * half.y + half.y * half.z + half.x * half.z),
            Shape::Ground { .. } => (2.0 * ground_extent).powi(2),
            Shape::Cylinder {
                radius,
                half_height,
                ..
            } => {
                2.0 * std::f32::consts::PI * radius * (2.0 * half_height)
                    + 2.0 * std::f32::consts::PI * radius * radius
            }
        }
    };
    let total_area: f32 = prims.iter().map(|p| area(&p.shape)).sum();
    let tiles = (prims.len() as f32).sqrt().ceil() as u32;
    let mut mesh = TriangleMesh::new();
    for (i, prim) in prims.iter().enumerate() {
        let budget = ((target_triangles as f32) * area(&prim.shape) / total_area).max(8.0) as u32;
        let mut part = match prim.shape {
            Shape::Sphere { center, radius } => {
                let rings = ((budget as f32 / 4.0).sqrt().round() as u32).max(3);
                TriangleMesh::uv_sphere(center, radius, rings, rings * 2)
            }
            Shape::Box { center, half } => {
                let sub = ((budget as f32 / 12.0).sqrt().round() as u32).max(1);
                TriangleMesh::cuboid(center, half, sub)
            }
            Shape::Ground { level } => {
                let cells = ((budget as f32 / 2.0).sqrt().round() as u32).max(2);
                TriangleMesh::ground_plane(level, ground_extent, cells)
            }
            Shape::Cylinder {
                center,
                radius,
                half_height,
            } => {
                let segs = (budget / 4).max(6);
                TriangleMesh::cylinder(center, radius, half_height, segs)
            }
        };
        // Atlas tile remap with a small margin against tile bleeding.
        let tile_x = (i as u32 % tiles) as f32;
        let tile_y = (i as u32 / tiles) as f32;
        let inv = 1.0 / tiles as f32;
        for uv in &mut part.uvs {
            let margin = 0.02;
            let u = uv.x.clamp(0.0, 1.0) * (1.0 - 2.0 * margin) + margin;
            let v = uv.y.clamp(0.0, 1.0) * (1.0 - 2.0 * margin) + margin;
            *uv = Vec2::new((tile_x + u) * inv, (tile_y + v) * inv);
        }
        mesh.append(&part);
    }
    mesh
}

/// Writes one feature record at a surface point.
fn surface_features(field: &AnalyticField, p: Vec3) -> [f32; FEATURE_CHANNELS as usize] {
    let a = field.attributes(p);
    [
        a.diffuse.r,
        a.diffuse.g,
        a.diffuse.b,
        a.specular,
        a.normal.x,
        a.normal.y,
        a.normal.z,
        1.0,
    ]
}

/// Bakes the texture atlas by forward-splatting triangle samples.
///
/// Last writer wins: a texel holds the features of the last sample, in
/// triangle then sample order, that lands on it. The sample pass therefore
/// only records that sample's surface point in the texel itself (channels
/// 0–2, occupancy set), and the field is evaluated once per covered texel
/// afterwards.
fn bake_texture(mesh: &TriangleMesh, field: &AnalyticField, resolution: u32) -> Texture2d {
    const OCCUPANCY: usize = FEATURE_CHANNELS as usize - 1;
    let mut tex = Texture2d::new(resolution, resolution, FEATURE_CHANNELS);
    if mesh.triangle_count() == 0 {
        return tex;
    }
    let res = resolution as f32;
    let mut record = [0f32; FEATURE_CHANNELS as usize];
    record[OCCUPANCY] = 1.0;
    for t in 0..mesh.triangle_count() {
        let [a, b, c] = mesh.triangle(t);
        let [ua, ub, uc] = mesh.triangle_uvs(t);
        // Sample density: ~2 samples per covered texel.
        let uv_area = ((ub - ua).cross(uc - ua)).abs() * 0.5 * res * res;
        let samples = (uv_area * 2.0).ceil().clamp(1.0, 4096.0) as u32;
        for s in 0..samples {
            // Deterministic low-discrepancy barycentrics.
            let r1 = ((s as f32 + 0.5) / samples as f32).fract();
            let r2 = ((s as f32) * 0.618_034 + 0.37).fract();
            let su = r1.sqrt();
            let (w0, w1, w2) = (1.0 - su, su * (1.0 - r2), su * r2);
            let p = a * w0 + b * w1 + c * w2;
            let uv = ua * w0 + ub * w1 + uc * w2;
            let x = ((uv.x * res) as u32).min(resolution - 1);
            let y = ((uv.y * res) as u32).min(resolution - 1);
            record[..3].copy_from_slice(&[p.x, p.y, p.z]);
            tex.set_texel(x, y, &record);
        }
    }
    for y in 0..resolution {
        for x in 0..resolution {
            let texel = tex.texel(x, y);
            if texel[OCCUPANCY] > 0.0 {
                let p = Vec3::new(texel[0], texel[1], texel[2]);
                tex.set_texel(x, y, &surface_features(field, p));
            }
        }
    }
    dilate(&mut tex);
    tex
}

/// Two dilation passes fill unoccupied texels (last channel == 0) from
/// an occupied 4-neighbour, so bilinear fetches near seams stay
/// meaningful. Each pass decides from the occupancy before the pass: an
/// unoccupied texel copies its first occupied neighbour in left, right,
/// up, down order, and occupied texels are never written. A copied
/// neighbour therefore still holds its value from before the pass, and
/// every filled texel's one writer is that neighbour.
fn dilate(tex: &mut Texture2d) {
    let (w, h, c) = (tex.width(), tex.height(), tex.channels() as usize);
    let mut occupied = vec![false; (w * h) as usize];
    for _ in 0..2 {
        for (i, o) in occupied.iter_mut().enumerate() {
            *o = tex.texel(i as u32 % w, i as u32 / w)[c - 1] > 0.0;
        }
        for y in 0..h {
            for x in 0..w {
                if occupied[(y * w + x) as usize] {
                    continue;
                }
                let neighbors = [
                    (x.wrapping_sub(1), y),
                    (x + 1, y),
                    (x, y.wrapping_sub(1)),
                    (x, y + 1),
                ];
                if let Some(from) = neighbors
                    .into_iter()
                    .find(|&(nx, ny)| nx < w && ny < h && occupied[(ny * w + nx) as usize])
                {
                    tex.copy_texel(from, (x, y));
                }
            }
        }
    }
}

/// Samples a point uniformly over the mesh surface: returns
/// `(point, normal)`. `areas` must hold the cumulative triangle areas.
fn sample_surface(mesh: &TriangleMesh, areas: &[f32], rng: &mut XorShift64) -> (Vec3, Vec3) {
    let total = *areas.last().expect("nonempty mesh");
    let target = rng.next_f32() * total;
    let t = areas.partition_point(|&a| a < target).min(areas.len() - 1);
    let [a, b, c] = mesh.triangle(t);
    let (r1, r2) = (rng.next_f32(), rng.next_f32());
    let su = r1.sqrt();
    let (w0, w1, w2) = (1.0 - su, su * (1.0 - r2), su * r2);
    (a * w0 + b * w1 + c * w2, mesh.triangle_normal(t))
}

fn cumulative_areas(mesh: &TriangleMesh) -> Vec<f32> {
    let mut acc = 0.0;
    (0..mesh.triangle_count())
        .map(|t| {
            acc += mesh.triangle_area(t);
            acc
        })
        .collect()
}

/// Quaternion rotating +Z onto `dir` (unit).
fn quat_from_z_to(dir: Vec3) -> uni_geometry::Vec4 {
    let z = Vec3::Z;
    let d = z.dot(dir);
    if d > 0.9999 {
        return uni_geometry::Vec4::new(0.0, 0.0, 0.0, 1.0);
    }
    if d < -0.9999 {
        return uni_geometry::Vec4::new(1.0, 0.0, 0.0, 0.0); // 180° about X.
    }
    let axis = z.cross(dir).normalized();
    let angle = d.clamp(-1.0, 1.0).acos();
    let (s, c) = (angle * 0.5).sin_cos();
    uni_geometry::Vec4::new(axis.x * s, axis.y * s, axis.z * s, c)
}

/// Bakes the Gaussian cloud: surface sampling + SH projection of the
/// field's view-dependent radiance.
fn bake_gaussians(
    mesh: &TriangleMesh,
    field: &AnalyticField,
    count: u32,
    sh_degree: u8,
    rng: &mut XorShift64,
) -> GaussianCloud {
    let mut cloud = GaussianCloud::new(sh_degree);
    if mesh.triangle_count() == 0 || count == 0 {
        return cloud;
    }
    let areas = cumulative_areas(mesh);
    let total_area = *areas.last().expect("nonempty");
    let spacing = (total_area / count as f32).sqrt();
    let n_coeffs = cloud.coeffs_per_channel();

    // Deterministic projection directions (spherical Fibonacci) and their
    // SH basis rows, shared by every Gaussian.
    let n_dirs = 32usize;
    let dirs: Vec<Vec3> = (0..n_dirs)
        .map(|i| {
            let golden = std::f32::consts::PI * (3.0 - 5f32.sqrt());
            let y = 1.0 - 2.0 * (i as f32 + 0.5) / n_dirs as f32;
            let r = (1.0 - y * y).max(0.0).sqrt();
            let phi = golden * i as f32;
            Vec3::new(r * phi.cos(), y, r * phi.sin())
        })
        .collect();
    let mut basis = vec![0f32; n_dirs * n_coeffs];
    for (d, row) in dirs.iter().zip(basis.chunks_exact_mut(n_coeffs)) {
        sh::eval_basis(*d, row);
    }
    let w = 4.0 * std::f32::consts::PI / n_dirs as f32;
    let mut colors = vec![Rgb::BLACK; n_dirs];

    for _ in 0..count {
        let (p, normal) = sample_surface(mesh, &areas, rng);
        field.sample_views(p, &dirs, &mut colors);
        // SH-project radiance: c_i = (4π/N) Σ_d (L(d) - 0.5) b_i(d).
        let mut coeffs = vec![0f32; 3 * n_coeffs];
        for (color, basis) in colors.iter().zip(basis.chunks_exact(n_coeffs)) {
            for i in 0..n_coeffs {
                coeffs[i] += (color.r - 0.5) * basis[i] * w;
                coeffs[n_coeffs + i] += (color.g - 0.5) * basis[i] * w;
                coeffs[2 * n_coeffs + i] += (color.b - 0.5) * basis[i] * w;
            }
        }
        cloud.gaussians.push(Gaussian {
            mean: p,
            scale: Vec3::new(spacing * 0.9, spacing * 0.9, spacing * 0.15),
            rotation: quat_from_z_to(normal),
            opacity: 0.85,
            sh_coeffs: coeffs,
        });
    }
    cloud
}

/// Hasher for the hash-grid bake's vertex seen-set. The set is only
/// asked for membership and never iterated, so a fixed multiplicative
/// hash is enough; the fold brings high key bits into the low bits the
/// table indexes by.
#[derive(Default)]
struct VertexKeyHasher(u64);

impl Hasher for VertexKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Bakes the multi-level hash grid from surface + volume samples, writing
/// field attributes at every touched vertex (deduplicated).
///
/// Vertices are visited in first-seen order and a later vertex
/// overwrites an earlier one that hashes to the same slot, so each slot
/// keeps its last first-seen vertex. The sample pass records that vertex
/// per slot (one `u64` per slot, `NO_VERTEX` if untouched); the field is
/// then evaluated once per recorded slot.
fn bake_hashgrid(
    mesh: &TriangleMesh,
    field: &AnalyticField,
    config: crate::hashgrid::HashGridConfig,
    bounds: Aabb,
    rng: &mut XorShift64,
) -> HashGrid {
    const NO_VERTEX: u64 = u64::MAX;
    let mut grid = HashGrid::new(config, bounds);
    if mesh.triangle_count() == 0 {
        return grid;
    }
    // Vertex coordinates pack into 20 bits each, the level into the top 4.
    let verts: Vec<u32> = (0..config.levels)
        .map(|l| config.level_resolution(l) + 1)
        .collect();
    assert!(
        config.levels <= 16 && verts.iter().all(|&v| v < 1 << 20),
        "hash-grid bake packs levels in 4 bits and vertices in 20"
    );
    let key = |l: u32, x: u32, y: u32, z: u32| {
        u64::from(l) << 60 | u64::from(x) << 40 | u64::from(y) << 20 | u64::from(z)
    };
    let mut level_start = vec![0usize; config.levels as usize + 1];
    for l in 0..config.levels as usize {
        level_start[l + 1] = level_start[l] + grid.level_slots(l as u32);
    }
    let mut owner = vec![NO_VERTEX; level_start[config.levels as usize]];

    let areas = cumulative_areas(mesh);
    let samples = (mesh.triangle_count() as u32 * 3).clamp(1_024, 400_000);
    let mut seen: HashSet<u64, BuildHasherDefault<VertexKeyHasher>> = HashSet::default();
    let shell = bounds.diagonal() * 0.01;

    for s in 0..samples {
        // 85% surface-biased (jittered off the surface), 15% uniform volume.
        let p = if s % 7 == 0 {
            bounds.denormalize_point(Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
        } else {
            let (p, n) = sample_surface(mesh, &areas, rng);
            p + n * rng.range_f32(-shell, shell)
        };
        let u = bounds.normalize_point(p).clamp(0.0, 1.0);
        for l in 0..config.levels {
            let res = verts[l as usize];
            let cx = uni_geometry::interp::cell_coord(u.x, res);
            let cy = uni_geometry::interp::cell_coord(u.y, res);
            let cz = uni_geometry::interp::cell_coord(u.z, res);
            for corner in 0..8u32 {
                let x = cx.base as u32 + (corner & 1);
                let y = cy.base as u32 + ((corner >> 1) & 1);
                let z = cz.base as u32 + ((corner >> 2) & 1);
                let k = key(l, x, y, z);
                if seen.insert(k) {
                    owner[level_start[l as usize] + grid.slot(l, x, y, z)] = k;
                }
            }
        }
    }

    let mask = (1u64 << 20) - 1;
    for &k in owner.iter().filter(|&&k| k != NO_VERTEX) {
        let (l, x, y, z) = (
            (k >> 60) as u32,
            (k >> 40 & mask) as u32,
            (k >> 20 & mask) as u32,
            (k & mask) as u32,
        );
        let last = (verts[l as usize] - 1) as f32;
        let vw =
            bounds.denormalize_point(Vec3::new(x as f32 / last, y as f32 / last, z as f32 / last));
        let a = field.attributes(vw);
        let density = field.density(vw) / PEAK_DENSITY;
        grid.write_vertex(
            l,
            x,
            y,
            z,
            &[density, a.diffuse.r, a.diffuse.g, a.diffuse.b],
        );
    }
    grid
}

/// Trains the hash-feature decoder MLP (`L×F → [σ/peak, r, g, b]`).
fn train_hash_decoder(
    grid: &HashGrid,
    field: &AnalyticField,
    mesh: &TriangleMesh,
    steps: u32,
    rng: &mut XorShift64,
) -> Mlp {
    let in_dim = grid.config().feature_dim() as usize;
    let mut mlp = Mlp::new(
        &[in_dim, 64, 64, 4],
        Activation::Relu,
        Activation::Linear,
        rng,
    );
    if mesh.triangle_count() == 0 {
        return mlp;
    }
    let areas = cumulative_areas(mesh);
    let bounds = grid.bounds();
    let shell = bounds.diagonal() * 0.015;
    let mut trainer = AdamTrainer::new(&mlp, 3e-3);
    let mut feats = vec![0f32; in_dim];
    let batch = 48;
    let mut inputs = uni_geometry::FlatMat::with_row_capacity(batch, in_dim);
    let mut targets = uni_geometry::FlatMat::with_row_capacity(batch, 4);
    for _ in 0..steps {
        inputs.clear_rows();
        targets.clear_rows();
        for b in 0..batch {
            let p = if b % 5 == 0 {
                bounds.denormalize_point(Vec3::new(rng.next_f32(), rng.next_f32(), rng.next_f32()))
            } else {
                let (p, n) = sample_surface(mesh, &areas, rng);
                p + n * rng.range_f32(-shell, shell)
            };
            grid.fetch(p, &mut feats);
            let a = field.attributes(p);
            inputs.push_row(&feats);
            targets.push_row(&[
                field.density(p) / PEAK_DENSITY,
                a.diffuse.r,
                a.diffuse.g,
                a.diffuse.b,
            ]);
        }
        trainer.train_step(&mut mlp, &inputs, &targets);
    }
    mlp
}

/// Bakes the low-rank decomposed grid: dense low-res 3D grid from direct
/// sampling, planes from surface-sample splatting.
fn bake_triplane(
    mesh: &TriangleMesh,
    field: &AnalyticField,
    config: crate::triplane::TriplaneConfig,
    bounds: Aabb,
    rng: &mut XorShift64,
) -> Triplane {
    let mut tp = Triplane::new(config, bounds);
    let c = config.channels as usize;
    assert!(c >= 8, "triplane bake expects >= 8 channels");

    // Grid half: direct field sampling at vertices (weight 0.5).
    let r = config.grid_resolution;
    let mut v = vec![0f32; c];
    for z in 0..r {
        for y in 0..r {
            for x in 0..r {
                let p = bounds.denormalize_point(Vec3::new(
                    x as f32 / (r - 1).max(1) as f32,
                    y as f32 / (r - 1).max(1) as f32,
                    z as f32 / (r - 1).max(1) as f32,
                ));
                let a = field.attributes(p);
                let density = field.density(p) / PEAK_DENSITY;
                v.fill(0.0);
                v[0] = 0.5 * density;
                v[1] = 0.5 * a.diffuse.r;
                v[2] = 0.5 * a.diffuse.g;
                v[3] = 0.5 * a.diffuse.b;
                v[4] = 0.5 * a.specular * a.normal.x;
                v[5] = 0.5 * a.specular * a.normal.y;
                v[6] = 0.5 * a.specular * a.normal.z;
                v[7] = 0.5 * a.specular;
                tp.write_grid_vertex(x, y, z, &v);
            }
        }
    }

    // Plane halves: splat surface samples onto each projection (weight 0.5
    // split across the three planes).
    if mesh.triangle_count() > 0 {
        let areas = cumulative_areas(mesh);
        let res = config.plane_resolution;
        let samples = (u64::from(res) * u64::from(res) / 2).clamp(1_024, 2_000_000) as u32;
        for _ in 0..samples {
            let (p, _) = sample_surface(mesh, &areas, rng);
            let u = bounds.normalize_point(p).clamp(0.0, 1.0);
            let a = field.attributes(p);
            let density = field.density(p) / PEAK_DENSITY;
            v.fill(0.0);
            let third = 0.5 / 3.0;
            v[0] = third * density;
            v[1] = third * a.diffuse.r;
            v[2] = third * a.diffuse.g;
            v[3] = third * a.diffuse.b;
            v[4] = third * a.specular * a.normal.x;
            v[5] = third * a.specular * a.normal.y;
            v[6] = third * a.specular * a.normal.z;
            v[7] = third * a.specular;
            for axis in PlaneAxis::ALL {
                let uv = axis.project(u);
                let x = ((uv.x * res as f32) as u32).min(res - 1);
                let y = ((uv.y * res as f32) as u32).min(res - 1);
                tp.plane_mut(axis).set_texel(x, y, &v);
            }
        }
    }
    tp
}

/// Trains the deferred shading MLP against the analytic Blinn specular
/// model: input `[s·nx, s·ny, s·nz, s, view_xyz]` → specular RGB.
fn train_deferred_mlp(steps: u32, rng: &mut XorShift64) -> Mlp {
    let mut mlp = Mlp::new(&[7, 16, 16, 3], Activation::Relu, Activation::Linear, rng);
    let light = LIGHT_DIR.normalized();
    let mut trainer = AdamTrainer::new(&mlp, 4e-3);
    let batch = 64;
    let mut inputs = uni_geometry::FlatMat::with_row_capacity(batch, 7);
    let mut targets = uni_geometry::FlatMat::with_row_capacity(batch, 3);
    for _ in 0..steps.max(32) {
        inputs.clear_rows();
        targets.clear_rows();
        for _ in 0..batch {
            let n = Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
            )
            .normalized();
            let view = Vec3::new(
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
                rng.range_f32(-1.0, 1.0),
            )
            .normalized();
            let s = rng.next_f32();
            let half = (light - view).normalized();
            let spec = n.dot(half).max(0.0).powi(16) * s;
            inputs.push_row(&[s * n.x, s * n.y, s * n.z, s, view.x, view.y, view.z]);
            targets.push_row(&[spec, spec, spec]);
        }
        trainer.train_step(&mut mlp, &inputs, &targets);
    }
    mlp
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One shared tiny baked scene for all tests in this module (baking is
    /// the expensive part).
    fn scene() -> &'static BakedScene {
        static SCENE: OnceLock<BakedScene> = OnceLock::new();
        SCENE.get_or_init(|| SceneSpec::demo("bake-test", 11).with_detail(0.03).bake())
    }

    #[test]
    fn bake_produces_all_representations() {
        let s = scene();
        assert!(s.mesh().triangle_count() > 50);
        assert!(!s.gaussians().is_empty());
        assert!(s.kilonerf().occupied_cells() > 0);
        assert_eq!(s.texture().channels(), FEATURE_CHANNELS);
    }

    #[test]
    fn mesh_fits_bounds() {
        let s = scene();
        let mb = s.mesh().bounds();
        let sb = s.bounds().padded(1e-3);
        assert!(
            sb.contains(mb.min) && sb.contains(mb.max),
            "{mb:?} vs {sb:?}"
        );
    }

    #[test]
    fn texture_has_occupied_texels_with_colors() {
        let s = scene();
        let tex = s.texture();
        let mut occupied = 0;
        for y in 0..tex.height() {
            for x in 0..tex.width() {
                if tex.texel(x, y)[7] > 0.0 {
                    occupied += 1;
                }
            }
        }
        let frac = occupied as f64 / (tex.width() * tex.height()) as f64;
        assert!(frac > 0.2, "texture mostly occupied after dilation: {frac}");
    }

    #[test]
    fn gaussians_sit_on_surfaces() {
        let s = scene();
        let mut near_surface = 0;
        for g in &s.gaussians().gaussians {
            let (d, _) = s.field().sdf(g.mean);
            if d.abs() < 0.1 {
                near_surface += 1;
            }
        }
        let frac = near_surface as f64 / s.gaussians().len() as f64;
        assert!(frac > 0.9, "gaussians on surfaces: {frac}");
    }

    #[test]
    fn gaussian_dc_color_matches_field_diffuse_roughly() {
        let s = scene();
        let n = s.gaussians().coeffs_per_channel();
        let mut total_err = 0.0f64;
        let count = s.gaussians().len().min(50);
        for g in s.gaussians().gaussians.iter().take(count) {
            let view = Vec3::new(0.3, -0.2, 0.9).normalized();
            let predicted = g.color(view, n);
            let actual = s.field().sample(g.mean, view).color;
            total_err += f64::from((predicted.r - actual.r).abs())
                + f64::from((predicted.g - actual.g).abs())
                + f64::from((predicted.b - actual.b).abs());
        }
        let mean_err = total_err / (count as f64 * 3.0);
        assert!(mean_err < 0.2, "SH projection tracks radiance: {mean_err}");
    }

    #[test]
    fn hashgrid_decodes_density_inside_objects() {
        let s = scene();
        // Find a surface point from the mesh.
        let [a, b, c] = s.mesh().triangle(0);
        let p = (a + b + c) / 3.0;
        let mut feats = vec![0f32; s.hashgrid().config().feature_dim() as usize];
        s.hashgrid().fetch(p, &mut feats);
        assert!(
            feats.iter().any(|&f| f.abs() > 1e-3),
            "baked features nonzero near surface"
        );
        let out = s.hash_decoder().forward(&feats);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn triplane_density_tracks_field() {
        let s = scene();
        let [a, b, c] = s.mesh().triangle(0);
        let on_surface = (a + b + c) / 3.0;
        let far = s.bounds().max - Vec3::splat(1e-3);
        let mut f_on = vec![0f32; 8];
        let mut f_far = vec![0f32; 8];
        s.triplane().fetch(on_surface, &mut f_on);
        s.triplane().fetch(far, &mut f_far);
        assert!(
            f_on[0] > f_far[0],
            "density channel higher on surface: {} vs {}",
            f_on[0],
            f_far[0]
        );
    }

    #[test]
    fn deferred_mlp_predicts_zero_spec_for_zero_strength() {
        let s = scene();
        let out = s
            .deferred_mlp()
            .forward(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        for v in out {
            assert!(v.abs() < 0.15, "no specular without strength: {v}");
        }
    }

    #[test]
    fn bake_is_deterministic() {
        let a = SceneSpec::demo("det", 3).with_detail(0.02).bake();
        let b = SceneSpec::demo("det", 3).with_detail(0.02).bake();
        assert_eq!(a.mesh().triangle_count(), b.mesh().triangle_count());
        assert_eq!(a.gaussians().len(), b.gaussians().len());
        assert_eq!(
            a.gaussians().gaussians[0].mean,
            b.gaussians().gaussians[0].mean
        );
    }

    /// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
    fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
        v.iter().map(|x| x.to_bits())
    }

    /// Bit-exact hashes of `[mesh, texture, gaussians, hashgrid,
    /// triplane]`. The trained MLPs are left out: their bits depend on
    /// the `simd` feature.
    fn baked_hashes(s: &BakedScene) -> [u64; 5] {
        let m = s.mesh();
        let mut mesh = fnv1a(
            FNV_OFFSET,
            m.positions
                .iter()
                .flat_map(|p| [p.x, p.y, p.z].map(f32::to_bits)),
        );
        mesh = fnv1a(
            mesh,
            m.uvs.iter().flat_map(|uv| [uv.x, uv.y].map(f32::to_bits)),
        );
        mesh = fnv1a(mesh, m.indices.iter().copied());
        let texture = fnv1a(FNV_OFFSET, bits(s.texture().data()));
        let mut gaussians = FNV_OFFSET;
        for g in &s.gaussians().gaussians {
            let (p, sc, q) = (g.mean, g.scale, g.rotation);
            let fixed = [
                p.x, p.y, p.z, sc.x, sc.y, sc.z, q.x, q.y, q.z, q.w, g.opacity,
            ];
            gaussians = fnv1a(gaussians, fixed.map(f32::to_bits));
            gaussians = fnv1a(gaussians, bits(&g.sh_coeffs));
        }
        let hashgrid = fnv1a(FNV_OFFSET, bits(s.hashgrid().tables()));
        let mut triplane = fnv1a(FNV_OFFSET, bits(s.triplane().grid()));
        for axis in PlaneAxis::ALL {
            triplane = fnv1a(triplane, bits(s.triplane().plane(axis).data()));
        }
        [mesh, texture, gaussians, hashgrid, triplane]
    }

    /// Pins every baked bit of the non-MLP representations for two specs:
    /// this module's scene and the golden-frame scene of
    /// `tests/golden_frames.rs`. A bake rewrite must keep these
    /// constants; a deliberate change of the baked bits re-blesses them
    /// with the printed values.
    #[test]
    fn baked_bits_are_pinned() {
        let golden = SceneSpec::demo("golden", 424_242).with_detail(0.05).bake();
        let got = [baked_hashes(scene()), baked_hashes(&golden)];
        let want: [[u64; 5]; 2] = [
            [
                0xb0e89b9128533847,
                0xd2f3a6af5efd83b1,
                0x57e5c369c9501486,
                0x035153e0d736c619,
                0x17e03c420fd2eaaf,
            ],
            [
                0xdbaf178a1b215f7b,
                0xe0089d810cb696db,
                0xaf5f6d5151c4ce9a,
                0xf9a3eff66cdb74dc,
                0x280fb901205df234,
            ],
        ];
        assert_eq!(got, want, "baked bits moved: {got:#018x?}");
    }

    /// Dilation spreads occupied texels exactly two 4-neighbour rings,
    /// each pass reading the occupancy from before the pass, takes the
    /// first occupied neighbour in left, right, up, down order, and never
    /// rewrites an occupied texel.
    #[test]
    fn dilation_spreads_two_rings_with_fixed_neighbour_priority() {
        let mut tex = Texture2d::new(8, 8, 2);
        tex.set_texel(3, 4, &[7.0, 0.5]);
        dilate(&mut tex);
        for y in 0..8u32 {
            for x in 0..8u32 {
                let ring = x.abs_diff(3) + y.abs_diff(4);
                let want: &[f32] = if ring <= 2 { &[7.0, 0.5] } else { &[0.0, 0.0] };
                assert_eq!(tex.texel(x, y), want, "texel ({x}, {y}), ring {ring}");
            }
        }

        // Around the empty texel (4, 4): left 1, right 2, up 3, down 4.
        let neighbours = [(3, 4), (5, 4), (4, 3), (4, 5)];
        for first in 0..neighbours.len() {
            let mut tex = Texture2d::new(8, 8, 2);
            for (i, &(x, y)) in neighbours.iter().enumerate().skip(first) {
                tex.set_texel(x, y, &[i as f32 + 1.0, 1.0]);
            }
            dilate(&mut tex);
            assert_eq!(tex.texel(4, 4), &[first as f32 + 1.0, 1.0]);
            for (i, &(x, y)) in neighbours.iter().enumerate().skip(first) {
                assert_eq!(
                    tex.texel(x, y),
                    &[i as f32 + 1.0, 1.0],
                    "occupied texel kept"
                );
            }
        }
    }

    #[test]
    fn quat_from_z_handles_all_directions() {
        for dir in [
            Vec3::Z,
            -Vec3::Z,
            Vec3::X,
            Vec3::Y,
            Vec3::new(0.5, -0.5, 0.7).normalized(),
        ] {
            let q = quat_from_z_to(dir);
            let m = uni_geometry::Mat3::from_quaternion(q);
            let rotated = m.mul_vec3(Vec3::Z);
            assert!((rotated - dir).length() < 1e-4, "{dir:?} -> {rotated:?}");
        }
    }
}
