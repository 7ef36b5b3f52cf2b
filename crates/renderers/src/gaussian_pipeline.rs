//! The 3D-Gaussian-based rendering pipeline (Sec. II-E, Fig. 6): space
//! conversion → splatting → sorting → MLP → blending.
//!
//! Follows 3DGS: Gaussians are projected to screen-space conics
//! (splatting), assigned to 16×16-pixel patches, depth-sorted *per patch*
//! (so the sorting cost is amortized across the patch's pixels — the
//! observation the paper's Sorting dataflow exploits), colored by SH
//! evaluation (the "MLP" step: a vector-matrix product), and alpha-blended
//! front to back.
//!
//! # Hot-path layout
//!
//! The production path ([`Renderer::render`]) is SoA and allocation-free in
//! steady state:
//!
//! 1. projection + SH evaluation run band-parallel across splats
//!    (`uni_parallel::par_indices` over [`PROJ_BAND_SPLATS`]-sized bands,
//!    each compacting into per-band columns reused across frames), then
//!    concatenate in band order into the frame's visible-splat columns
//!    (centers, depths, conics, radii, opacities, SH colors) — bit-
//!    identical to a serial pass;
//! 2. tile binning counts (splat, tile) pairs per tile, prefix-sums the
//!    histogram into per-tile segments, and scatters pair keys
//!    `(tile << 32) | depth_key(depth)` — one **global counting (LSD
//!    radix) sort** then orders every tile's work list by depth in linear
//!    passes, replacing the seed's per-patch comparison sorts
//!    ([`sort_pairs_by_tile_and_depth`]);
//! 3. blending gathers each tile's sorted splats contiguously and walks
//!    them per pixel, processing whole rows of tiles as parallel bands
//!    (`uni_parallel::par_bands`; bands write disjoint image rows).
//!
//! All buffers live in per-thread scratch arenas reused across frames.
//! The seed-era scalar path is kept as [`GaussianPipeline::render_scalar`]
//! — the parity baseline for tests and the speedup baseline for
//! `benches/render_hot.rs`. The two paths make bit-identical per-sample
//! decisions: the SoA path's log-space early-out
//! (`power < ln(1/255 / opacity) - margin`) only skips pairs the scalar
//! `alpha < 1/255` test would also reject after the `exp`.

use crate::blending::RayAccumulator;
use crate::probe::{self, Counted, Probe};
use crate::Renderer;
use std::cell::RefCell;
use uni_geometry::{Camera, Image, Rgb};
use uni_microops::{Invocation, Pipeline, PrimitiveKind, Trace, Workload};
use uni_scene::{BakedScene, GaussianCloud, ProjectedSplat};

/// Alpha below which a (splat, pixel) contribution is discarded (the 3DGS
/// 1/255 threshold).
const MIN_ALPHA: f32 = 1.0 / 255.0;

/// Log-space safety margin for the pre-`exp` alpha cutoff. `f32::exp`'s
/// relative error is ~1e-7, so 0.01 in log space conservatively covers
/// it: every pair skipped by the log-space test would also fail the
/// seed's post-`exp` `alpha < 1/255` test.
const LN_ALPHA_MARGIN: f32 = 0.01;

/// The 3D-Gaussian (splat rasterization) pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianPipeline {
    /// Patch size in pixels (16 in 3DGS).
    pub patch_size: u32,
    /// Opacity threshold below which splats are bypassed.
    pub alpha_threshold: f32,
}

impl Default for GaussianPipeline {
    fn default() -> Self {
        Self {
            patch_size: 16,
            alpha_threshold: 1.0 / 255.0,
        }
    }
}

/// Maps a depth to a `u32` key whose unsigned order equals
/// [`f32::total_cmp`] order — the key the global counting sort runs on.
#[inline]
pub fn depth_key(depth: f32) -> u32 {
    let b = depth.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Stable LSD counting sort of `(key, id)` pairs by the 64-bit key
/// `(tile << 32) | depth_key`, in 16-bit digits.
///
/// Three passes cover up to 65 536 tiles; a fourth runs only beyond that.
/// Passes whose digit is constant across all keys skip their permute.
/// `keys_tmp`, `ids_tmp`, and `hist` are caller-owned scratch so frame
/// loops reuse their capacity.
///
/// Being a stable sort on a key that orders depths exactly like
/// [`f32::total_cmp`], the result matches a per-tile
/// `sort_by(total_cmp)` over pairs scattered in splat order — the
/// property `tests/render_parity.rs` checks.
///
/// # Panics
///
/// Panics if `keys` and `ids` lengths differ.
pub fn sort_pairs_by_tile_and_depth(
    keys: &mut Vec<u64>,
    ids: &mut Vec<u32>,
    keys_tmp: &mut Vec<u64>,
    ids_tmp: &mut Vec<u32>,
    hist: &mut Vec<u32>,
    n_tiles: u32,
) {
    assert_eq!(keys.len(), ids.len(), "one id per key");
    if keys.len() <= 1 {
        return;
    }
    const DIGITS: usize = 1 << 16;
    hist.clear();
    hist.resize(DIGITS, 0);
    keys_tmp.clear();
    keys_tmp.resize(keys.len(), 0);
    ids_tmp.clear();
    ids_tmp.resize(ids.len(), 0);

    let passes: u32 = if n_tiles as usize > DIGITS { 4 } else { 3 };
    for pass in 0..passes {
        let shift = 16 * pass;
        hist.fill(0);
        for &k in keys.iter() {
            hist[((k >> shift) & 0xFFFF) as usize] += 1;
        }
        // A constant digit leaves the order unchanged; skip the permute.
        if hist.iter().any(|&c| c as usize == keys.len()) {
            continue;
        }
        // Exclusive prefix sum -> first slot per digit.
        let mut running = 0u32;
        for c in hist.iter_mut() {
            let count = *c;
            *c = running;
            running += count;
        }
        for (&k, &id) in keys.iter().zip(ids.iter()) {
            let slot = &mut hist[((k >> shift) & 0xFFFF) as usize];
            keys_tmp[*slot as usize] = k;
            ids_tmp[*slot as usize] = id;
            *slot += 1;
        }
        std::mem::swap(keys, keys_tmp);
        std::mem::swap(ids, ids_tmp);
    }
}

/// The tile span a splat footprint covers, mirroring the seed binning
/// rules exactly (floor/ceil clamps, off-screen rejection). `None` when
/// the splat lands on no tile.
#[inline]
fn tile_range(
    cx: f32,
    cy: f32,
    radius: f32,
    ps: u32,
    tiles_x: u32,
    tiles_y: u32,
) -> Option<(u32, u32, u32, u32)> {
    if cx + radius < 0.0 || cy + radius < 0.0 {
        return None;
    }
    let x0 = ((cx - radius).floor().max(0.0) as u32) / ps;
    let x1 = (((cx + radius).ceil().max(0.0) as u32) / ps).min(tiles_x - 1);
    let y0 = ((cy - radius).floor().max(0.0) as u32) / ps;
    let y1 = (((cy + radius).ceil().max(0.0) as u32) / ps).min(tiles_y - 1);
    if x0 > x1 || y0 > y1 {
        return None;
    }
    Some((x0, x1, y0, y1))
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SplatStats {
    gaussians_streamed: u64,
    visible_splats: u64,
    patch_pairs: u64,
    patches_nonempty: u64,
    candidate_pairs: u64,
    blended_pairs: u64,
}

/// Number of Gaussians one projection band covers. Projection + SH
/// evaluation parallelize across bands of splats
/// (`uni_parallel::par_indices`); band results concatenate in band order,
/// so the global column layout is identical to a serial pass.
const PROJ_BAND_SPLATS: usize = 2048;

/// Projected-splat SoA columns, one column per field. Used both for the
/// per-band projection scratch and for the frame's concatenated columns.
#[derive(Debug, Default)]
struct ProjCols {
    cx: Vec<f32>,
    cy: Vec<f32>,
    depth: Vec<f32>,
    conic_a: Vec<f32>,
    conic_b: Vec<f32>,
    conic_c: Vec<f32>,
    radius: Vec<f32>,
    opacity: Vec<f32>,
    /// Per-splat log-space alpha cutoff: `ln(MIN_ALPHA / opacity) - margin`.
    ln_cut: Vec<f32>,
    /// Reciprocal of `conic_a` (hoists the per-row division).
    inv_a: Vec<f32>,
    /// Vertical half-extent of the `{ power >= ln_cut }` ellipse.
    dy_max: Vec<f32>,
    col_r: Vec<f32>,
    col_g: Vec<f32>,
    col_b: Vec<f32>,
}

impl ProjCols {
    fn clear(&mut self) {
        self.cx.clear();
        self.cy.clear();
        self.depth.clear();
        self.conic_a.clear();
        self.conic_b.clear();
        self.conic_c.clear();
        self.radius.clear();
        self.opacity.clear();
        self.ln_cut.clear();
        self.inv_a.clear();
        self.dy_max.clear();
        self.col_r.clear();
        self.col_g.clear();
        self.col_b.clear();
    }

    fn len(&self) -> usize {
        self.cx.len()
    }

    /// Appends one projected splat, deriving the blending-loop
    /// precomputations (log-space cutoff, reciprocal, vertical reach).
    fn push(&mut self, s: &ProjectedSplat, color: Rgb) {
        self.cx.push(s.center.x);
        self.cy.push(s.center.y);
        self.depth.push(s.depth);
        self.conic_a.push(s.conic.0);
        self.conic_b.push(s.conic.1);
        self.conic_c.push(s.conic.2);
        self.radius.push(s.radius);
        self.opacity.push(s.opacity);
        let cut = (MIN_ALPHA / s.opacity).ln() - LN_ALPHA_MARGIN;
        self.ln_cut.push(cut);
        self.inv_a.push(1.0 / s.conic.0);
        // The set { power >= cut } is an ellipse; its vertical
        // half-extent is sqrt(-2·a·cut / (a·c - b²)) (the conic is
        // positive definite, so a·c - b² > 0).
        let det = s.conic.0 * s.conic.2 - s.conic.1 * s.conic.1;
        self.dy_max
            .push(((-2.0 * s.conic.0 * cut / det.max(1e-12)).max(0.0)).sqrt());
        self.col_r.push(color.r);
        self.col_g.push(color.g);
        self.col_b.push(color.b);
    }

    /// Concatenates `other`'s columns onto `self` (band-order gather).
    fn append(&mut self, other: &ProjCols) {
        self.cx.extend_from_slice(&other.cx);
        self.cy.extend_from_slice(&other.cy);
        self.depth.extend_from_slice(&other.depth);
        self.conic_a.extend_from_slice(&other.conic_a);
        self.conic_b.extend_from_slice(&other.conic_b);
        self.conic_c.extend_from_slice(&other.conic_c);
        self.radius.extend_from_slice(&other.radius);
        self.opacity.extend_from_slice(&other.opacity);
        self.ln_cut.extend_from_slice(&other.ln_cut);
        self.inv_a.extend_from_slice(&other.inv_a);
        self.dy_max.extend_from_slice(&other.dy_max);
        self.col_r.extend_from_slice(&other.col_r);
        self.col_g.extend_from_slice(&other.col_g);
        self.col_b.extend_from_slice(&other.col_b);
    }
}

/// Frame-lifetime SoA buffers, kept in a per-thread scratch arena so
/// steady-state rendering never touches the allocator.
#[derive(Debug, Default)]
struct FrameScratch {
    /// Concatenated projected-splat columns for the frame.
    cols: ProjCols,
    /// Per-band projection scratch (each projection worker locks its own
    /// band slot; bands are claimed exclusively, so locks never contend).
    proj: Vec<std::sync::Mutex<ProjCols>>,
    // Tile binning + global counting sort.
    counts: Vec<u32>,
    offsets: Vec<u32>,
    keys: Vec<u64>,
    keys_tmp: Vec<u64>,
    ids: Vec<u32>,
    ids_tmp: Vec<u32>,
    hist: Vec<u32>,
    // Per-band tile gather scratch (each band worker locks its own slot;
    // bands are claimed exclusively, so locks never contend).
    bands: Vec<std::sync::Mutex<TileScratch>>,
}

/// One splat gathered into a tile's work list: everything the blending
/// loop needs, packed so a splat is one sequential record instead of
/// eleven strided column reads.
#[derive(Debug, Clone, Copy, Default)]
struct GatheredSplat {
    x: f32,
    y: f32,
    conic_a: f32,
    conic_b: f32,
    conic_c: f32,
    /// Reciprocal of `conic_a` (hoists the per-row division).
    inv_a: f32,
    /// Log-space alpha cutoff: `ln(MIN_ALPHA / opacity) - margin`.
    ln_cut: f32,
    opacity: f32,
    r: f32,
    g: f32,
    b: f32,
    /// Scanline span within the band (`row_lo > row_hi`: reaches none).
    row_lo: u32,
    row_hi: u32,
}

/// Depth-sorted splat data gathered contiguously for one tile, so the
/// blending loop streams it cache-linearly — what the seed's per-patch
/// `Vec` copies bought, without the allocations.
#[derive(Debug, Default)]
struct TileScratch {
    splats: Vec<GatheredSplat>,
    /// Per-scanline buckets over the tile's splats: `row_lists` holds the
    /// (depth-ordered) tile-local indices of splats whose vertical extent
    /// reaches each row, with `row_offsets` delimiting rows. Built once
    /// per tile so a scanline only ever touches splats that can reach it.
    row_counts: Vec<u32>,
    row_offsets: Vec<u32>,
    row_lists: Vec<u32>,
    /// Per-pixel compositing state for the scanline being blended.
    accs: Vec<RayAccumulator>,
    last_blend: Vec<u32>,
}

/// `exp(x)` for `x <= 0` via Cephes-style range reduction and a degree-5
/// polynomial (~2 ulp). The blending loop calls this once per surviving
/// (splat, pixel) pair; callers guard the `alpha < 1/255` *decision* by
/// recomputing with [`f32::exp`] inside a band around the threshold, so
/// inclusion decisions are identical to the libm path.
#[inline]
fn fast_exp_neg(x: f32) -> f32 {
    const LOG2EF: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let z = (LOG2EF * x + 0.5).floor();
    let r = (x - z * LN2_HI) - z * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 5.000_000_3e-1;
    let y = p * r * r + r + 1.0;
    // 2^z by exponent stuffing; z >= -126 for every power above the
    // alpha cutoff (the cutoff floor is ln(1/255) - margin ≈ -5.6).
    let scale = f32::from_bits(((z as i32 + 127) << 23) as u32);
    y * scale
}

thread_local! {
    static SCRATCH: RefCell<FrameScratch> = RefCell::new(FrameScratch::default());
}

impl GaussianPipeline {
    // uni-lint: hot
    #[allow(clippy::too_many_lines)]
    fn render_soa(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        scratch: &mut FrameScratch,
        target: &mut Image,
    ) -> SplatStats {
        let bg = scene.field().background();
        target.resize(camera.width, camera.height, bg);
        let cloud = scene.gaussians();
        let mut stats = SplatStats {
            gaussians_streamed: cloud.len() as u64,
            ..SplatStats::default()
        };

        let FrameScratch {
            cols,
            proj,
            counts,
            offsets,
            keys,
            keys_tmp,
            ids,
            ids_tmp,
            hist,
            bands,
        } = scratch;

        // (1) Space conversion + splatting: project every Gaussian into
        // the SoA columns, evaluating its SH color once per frame (the
        // "MLP" step). Bands of splats project in parallel into per-band
        // columns; concatenating the bands in order reproduces the serial
        // pass bit for bit (per-splat math is untouched and compaction
        // order is preserved).
        let n_coeffs = cloud.coeffs_per_channel();
        let n_proj_bands = cloud.len().div_ceil(PROJ_BAND_SPLATS);
        if proj.len() < n_proj_bands {
            proj.resize_with(n_proj_bands, Default::default);
        }
        {
            let proj = &*proj;
            uni_parallel::par_indices(n_proj_bands, |b| {
                let mut pb = proj[b].lock().expect("projection band scratch poisoned");
                pb.clear();
                let lo = b * PROJ_BAND_SPLATS;
                let hi = ((b + 1) * PROJ_BAND_SPLATS).min(cloud.len());
                for i in lo..hi {
                    if let Some(s) = cloud.project(i as u32, camera, self.alpha_threshold) {
                        let g = &cloud.gaussians[s.index as usize];
                        let dir = (g.mean - camera.eye).normalized();
                        pb.push(&s, g.color(dir, n_coeffs));
                    }
                }
            });
        }
        cols.clear();
        for cell in proj.iter().take(n_proj_bands) {
            cols.append(&cell.lock().expect("projection band scratch poisoned"));
        }
        let visible = cols.len();
        stats.visible_splats = visible as u64;
        let ProjCols {
            cx,
            cy,
            depth,
            conic_a,
            conic_b,
            conic_c,
            radius,
            opacity,
            ln_cut,
            inv_a,
            dy_max,
            col_r,
            col_g,
            col_b,
        } = cols;

        // (2) Tile binning, pass one: per-tile pair counts.
        let ps = self.patch_size;
        let tiles_x = camera.width.div_ceil(ps);
        let tiles_y = camera.height.div_ceil(ps);
        let n_tiles = (tiles_x * tiles_y) as usize;
        counts.clear();
        counts.resize(n_tiles, 0);
        for i in 0..visible {
            if let Some((x0, x1, y0, y1)) =
                tile_range(cx[i], cy[i], radius[i], ps, tiles_x, tiles_y)
            {
                for ty in y0..=y1 {
                    for tx in x0..=x1 {
                        counts[(ty * tiles_x + tx) as usize] += 1;
                    }
                }
            }
        }
        let pair_total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        stats.patch_pairs = pair_total;
        stats.patches_nonempty = counts.iter().filter(|&&c| c > 0).count() as u64;

        // Exclusive prefix sum -> per-tile segment offsets.
        offsets.clear();
        offsets.reserve(n_tiles + 1);
        let mut running = 0u32;
        offsets.push(0);
        for &c in counts.iter() {
            running += c;
            offsets.push(running);
        }

        // Pass two: scatter (key, splat-id) pairs in splat order, so the
        // stable sort ties off exactly like the seed's stable per-patch
        // sort over push-ordered bins.
        keys.clear();
        keys.resize(pair_total as usize, 0);
        ids.clear();
        ids.resize(pair_total as usize, 0);
        let mut cursor = 0usize;
        for i in 0..visible {
            if let Some((x0, x1, y0, y1)) =
                tile_range(cx[i], cy[i], radius[i], ps, tiles_x, tiles_y)
            {
                let dkey = u64::from(depth_key(depth[i]));
                for ty in y0..=y1 {
                    for tx in x0..=x1 {
                        let tile = u64::from(ty * tiles_x + tx);
                        keys[cursor] = (tile << 32) | dkey;
                        ids[cursor] = i as u32;
                        cursor += 1;
                    }
                }
            }
        }
        debug_assert_eq!(cursor as u64, pair_total);

        // (3) One global counting sort by (tile, depth-key).
        sort_pairs_by_tile_and_depth(keys, ids, keys_tmp, ids_tmp, hist, tiles_x * tiles_y);

        // (4)+(5) Per-tile gather + front-to-back blending, a row of
        // tiles per band. Bands own disjoint row ranges of the image.
        if bands.len() < tiles_y as usize {
            bands.resize_with(tiles_y as usize, Default::default);
        }
        let width = camera.width as usize;
        let band_len = (ps as usize) * width;
        // Reborrow the destructured columns as shared so the band
        // closures (which run on worker threads) can read them.
        let (cx, cy, conic_a, conic_b, conic_c, opacity) =
            (&*cx, &*cy, &*conic_a, &*conic_b, &*conic_c, &*opacity);
        let (ln_cut, inv_a, dy_max) = (&*ln_cut, &*inv_a, &*dy_max);
        let (col_r, col_g, col_b) = (&*col_r, &*col_g, &*col_b);
        let (offsets, ids, bands) = (&*offsets, &*ids, &*bands);

        let (candidate_pairs, blended_pairs) = uni_parallel::par_bands_fold(
            target.pixels_mut(),
            band_len,
            (0u64, 0u64),
            |band_ty, chunk| {
                let rows_in_band = chunk.len() / width;
                let y_base = band_ty * ps as usize;
                let mut candidate = 0u64;
                let mut blended = 0u64;
                let mut tile_scratch = bands[band_ty].lock().expect("band scratch poisoned");
                let ts = &mut *tile_scratch;
                for tx in 0..tiles_x {
                    let tile = band_ty * tiles_x as usize + tx as usize;
                    let seg = offsets[tile] as usize..offsets[tile + 1] as usize;
                    if seg.is_empty() {
                        continue;
                    }
                    // Gather the tile's depth-sorted splats contiguously, and
                    // bucket them by the scanlines their alpha-threshold
                    // ellipse can reach (a small counting sort by row that
                    // keeps depth order within each row). Each scanline then
                    // only ever touches splats that can contribute to it.
                    ts.splats.clear();
                    ts.row_counts.clear();
                    ts.row_counts.resize(rows_in_band, 0);
                    for &id in &ids[seg.clone()] {
                        let id = id as usize;
                        // Scanline span: rows whose center is within the
                        // splat's vertical reach (widened 1e-3 px for float
                        // safety; the exact per-pair tests below still run).
                        let reach = dy_max[id] + 1e-3;
                        let lo = (cy[id] - reach - 0.5 - y_base as f32).ceil().max(0.0);
                        let hi = (cy[id] + reach - 0.5 - y_base as f32).floor();
                        let (row_lo, row_hi) = if hi < lo || lo >= rows_in_band as f32 {
                            (1, 0) // Empty span.
                        } else {
                            let r0 = lo as u32;
                            let r1 = (hi as u32).min(rows_in_band as u32 - 1);
                            for r in r0..=r1 {
                                ts.row_counts[r as usize] += 1;
                            }
                            (r0, r1)
                        };
                        ts.splats.push(GatheredSplat {
                            x: cx[id],
                            y: cy[id],
                            conic_a: conic_a[id],
                            conic_b: conic_b[id],
                            conic_c: conic_c[id],
                            inv_a: inv_a[id],
                            ln_cut: ln_cut[id],
                            opacity: opacity[id],
                            r: col_r[id],
                            g: col_g[id],
                            b: col_b[id],
                            row_lo,
                            row_hi,
                        });
                    }
                    let n = ts.splats.len();
                    ts.row_offsets.clear();
                    ts.row_offsets.push(0);
                    let mut run = 0u32;
                    for &c in &ts.row_counts {
                        run += c;
                        ts.row_offsets.push(run);
                    }
                    ts.row_lists.clear();
                    ts.row_lists.resize(run as usize, 0);
                    ts.row_counts.fill(0);
                    for (k, s) in ts.splats.iter().enumerate() {
                        if s.row_lo > s.row_hi {
                            continue;
                        }
                        for r in s.row_lo..=s.row_hi {
                            let slot = ts.row_offsets[r as usize] + ts.row_counts[r as usize];
                            ts.row_lists[slot as usize] = k as u32;
                            ts.row_counts[r as usize] += 1;
                        }
                    }

                    let px0 = tx * ps;
                    let px1 = ((tx + 1) * ps).min(camera.width);
                    let px_count = (px1 - px0) as usize;
                    for row_local in 0..rows_in_band {
                        let py = (y_base + row_local) as f32 + 0.5;
                        let row = &mut chunk[row_local * width..(row_local + 1) * width];

                        // Fresh per-pixel compositing state for this scanline
                        // segment. Splat-major traversal below feeds each
                        // pixel its samples in depth order (the outer loop is
                        // depth-ordered), so compositing semantics — including
                        // early saturation — match the seed's pixel-major
                        // walk exactly.
                        ts.accs.clear();
                        ts.accs.resize(px_count, RayAccumulator::new());
                        ts.last_blend.clear();
                        ts.last_blend.resize(px_count, 0);

                        let row_seg = ts.row_offsets[row_local] as usize
                            ..ts.row_offsets[row_local + 1] as usize;
                        let (accs, last_blend) =
                            (&mut ts.accs[..px_count], &mut ts.last_blend[..px_count]);
                        for li in row_seg {
                            let j = ts.row_lists[li] as usize;
                            let s = ts.splats[j];
                            let dy = py - s.y;
                            // X interval where `power >= ln_cut` can hold
                            // (roots of 0.5·a·dx² + b·dy·dx + 0.5·c·dy² + cut
                            // ≤ 0, widened by 1e-3 px). Pixels outside it are
                            // provably below the alpha threshold.
                            let bb = s.conic_b * dy;
                            let c0 = 0.5 * s.conic_c * dy * dy + s.ln_cut;
                            let disc = bb * bb - 2.0 * s.conic_a * c0;
                            if disc <= 0.0 {
                                continue; // Below threshold across the row.
                            }
                            let sq = disc.sqrt();
                            let xlo = s.x + (-bb - sq) * s.inv_a - 1e-3;
                            let xhi = s.x + (-bb + sq) * s.inv_a + 1e-3;
                            // Pixel centers sit at px + 0.5 (float casts
                            // saturate, so negative bounds clamp to zero).
                            let lo = ((xlo - 0.5).ceil().max(px0 as f32) as u32).max(px0);
                            let hi_f = (xhi - 0.5).floor();
                            if hi_f < lo as f32 {
                                continue;
                            }
                            let hi = (hi_f as u32).min(px1 - 1);
                            let color = Rgb::new(s.r, s.g, s.b);
                            // `c·dy·dy` keeps the seed's left-to-right product
                            // order, and the `b·dx·dy` pairing stays inside
                            // the loop, so `power` is bit-identical to
                            // ProjectedSplat::falloff's.
                            let c_dyy = s.conic_c * dy * dy;
                            for px in lo..=hi {
                                let pi = (px - px0) as usize;
                                let acc = &mut accs[pi];
                                if acc.saturated() {
                                    continue;
                                }
                                let pxf = px as f32 + 0.5;
                                let dx = pxf - s.x;
                                // Same expression as ProjectedSplat::falloff,
                                // with the exp elided for pairs provably below
                                // the alpha threshold.
                                let power =
                                    -0.5 * (s.conic_a * dx * dx + c_dyy) - s.conic_b * dx * dy;
                                if power > 0.0 || power < s.ln_cut {
                                    continue;
                                }
                                let mut alpha = s.opacity * fast_exp_neg(power);
                                // Near the 1/255 cutoff, fall back to libm exp
                                // for both the decision and the value: inclusion
                                // then matches the scalar reference exactly (the
                                // polynomial's ~2 ulp error is far inside the
                                // 1e-3 guard band).
                                if (alpha - MIN_ALPHA).abs() <= MIN_ALPHA * 1e-3 {
                                    alpha = s.opacity * power.exp();
                                }
                                if alpha < MIN_ALPHA {
                                    continue;
                                }
                                blended += 1;
                                acc.add_alpha_sample(color, alpha);
                                last_blend[pi] = j as u32;
                            }
                        }

                        // Candidate-pair accounting matches the seed loop: it
                        // examined every splat up to (and including) the one
                        // that saturated the ray, or all of them. Skipped
                        // pairs never blend, so the saturation point is
                        // unchanged by the interval culling.
                        for pi in 0..px_count {
                            let acc = ts.accs[pi];
                            candidate += if acc.saturated() {
                                u64::from(ts.last_blend[pi]) + 1
                            } else {
                                n as u64
                            };
                            row[px0 as usize + pi] = acc.finish(bg);
                        }
                    }
                }
                (candidate, blended)
            },
            |acc, (c, b)| (acc.0 + c, acc.1 + b),
        );
        stats.candidate_pairs += candidate_pairs;
        stats.blended_pairs += blended_pairs;
        stats
    }

    /// The seed-era scalar reference path: AoS splats, per-patch `Vec`
    /// bins, and per-patch stable comparison sorts (by
    /// [`f32::total_cmp`]).
    ///
    /// Kept as the parity baseline for the SoA + counting-sort + parallel
    /// path and as the "before" side of `benches/render_hot.rs`. Produces
    /// the same image as [`Renderer::render`] (within 1e-5 per channel;
    /// see `tests/render_parity.rs`).
    pub fn render_scalar(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let bg = scene.field().background();
        let mut img = Image::new(camera.width, camera.height, bg);
        let cloud = scene.gaussians();

        // (1) Space conversion + splatting: project every Gaussian.
        let mut splats: Vec<ProjectedSplat> = Vec::new();
        for i in 0..cloud.len() {
            if let Some(s) = cloud.project(i as u32, camera, self.alpha_threshold) {
                splats.push(s);
            }
        }

        // SH color per visible splat, once per frame (the "MLP" step).
        let n_coeffs = cloud.coeffs_per_channel();
        let colors: Vec<Rgb> = splats
            .iter()
            .map(|s| {
                let g = &cloud.gaussians[s.index as usize];
                let dir = (g.mean - camera.eye).normalized();
                g.color(dir, n_coeffs)
            })
            .collect();

        // (2) Patch assignment.
        let ps = self.patch_size;
        let tiles_x = camera.width.div_ceil(ps);
        let tiles_y = camera.height.div_ceil(ps);
        // uni-lint: allow(R1, seed-faithful scalar baseline — keeps the seed's nested-bin allocation pattern so BENCH_render speedups measure against the real seed cost)
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); (tiles_x * tiles_y) as usize];
        for (si, s) in splats.iter().enumerate() {
            let Some((x0, x1, y0, y1)) =
                tile_range(s.center.x, s.center.y, s.radius, ps, tiles_x, tiles_y)
            else {
                continue;
            };
            for ty in y0..=y1 {
                for tx in x0..=x1 {
                    bins[(ty * tiles_x + tx) as usize].push(si as u32);
                }
            }
        }

        // (3) Per-patch sort + (5) per-pixel front-to-back blending.
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let bin = &bins[(ty * tiles_x + tx) as usize];
                if bin.is_empty() {
                    continue;
                }
                let mut patch_splats: Vec<ProjectedSplat> =
                    bin.iter().map(|&i| splats[i as usize]).collect();
                let color_of: Vec<Rgb> = bin.iter().map(|&i| colors[i as usize]).collect();
                // Stable sort by depth (matching the hardware's merge-sort
                // dataflow of Fig. 13).
                let mut order: Vec<usize> = (0..patch_splats.len()).collect();
                order.sort_by(|&a, &b| patch_splats[a].depth.total_cmp(&patch_splats[b].depth));
                patch_splats = order.iter().map(|&i| patch_splats[i]).collect();
                let sorted_colors: Vec<Rgb> = order.iter().map(|&i| color_of[i]).collect();

                for py in (ty * ps)..((ty + 1) * ps).min(camera.height) {
                    for px in (tx * ps)..((tx + 1) * ps).min(camera.width) {
                        let mut acc = RayAccumulator::new();
                        for (s, &c) in patch_splats.iter().zip(&sorted_colors) {
                            if acc.saturated() {
                                break;
                            }
                            let dx = px as f32 + 0.5 - s.center.x;
                            let dy = py as f32 + 0.5 - s.center.y;
                            let alpha = s.opacity * s.falloff(dx, dy);
                            if alpha < MIN_ALPHA {
                                continue;
                            }
                            acc.add_alpha_sample(c, alpha);
                        }
                        img.set(px, py, acc.finish(bg));
                    }
                }
            }
        }
        img
    }
}

impl Renderer for GaussianPipeline {
    fn pipeline(&self) -> Pipeline {
        Pipeline::Gaussian3d
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

impl Counted for GaussianPipeline {
    type Stats = SplatStats;

    fn render_counted(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        target: &mut Image,
    ) -> SplatStats {
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            self.render_soa(scene, camera, &mut scratch, target)
        })
    }

    fn trace_from_stats(
        &self,
        scene: &BakedScene,
        camera: &Camera,
        probe: &Probe,
        stats: SplatStats,
    ) -> Trace {
        let mut trace = Trace::new(Pipeline::Gaussian3d, camera.width, camera.height);

        let repr = &scene.spec().repr;
        let full_count = u64::from(repr.gaussian_count);
        debug_assert_eq!(stats.gaussians_streamed as usize, scene.gaussians().len());
        let baked_count = stats.gaussians_streamed.max(1);
        let count_ratio = full_count as f64 / baked_count as f64;
        let visible = (stats.visible_splats as f64 * count_ratio) as u64;

        // (1)+(2) Space conversion & splatting (Geometric Processing).
        // Candidate pairs are resolution-driven (patch lists × pixels);
        // per-splat footprints shrink as counts grow, so the probe's
        // pair count scales by pixels only.
        trace.push(Invocation::new(
            "space conversion & splatting",
            Workload::Geometric {
                kind: PrimitiveKind::GaussianSplat,
                primitives: full_count,
                candidate_pairs: probe.scale(stats.candidate_pairs),
                hits: probe.scale(stats.blended_pairs),
                prim_bytes: GaussianCloud::BYTES_PER_GAUSSIAN,
                output_pixels: camera.pixel_count(),
            },
        ));

        // (3) Per-patch depth sorting. Total (splat, patch) pairs are
        // resolution-driven like candidate pairs (footprint area × count is
        // conserved as counts grow), so the probe's pair total scales by
        // pixels; keys-per-patch follows from the scaled patch count.
        let total_keys = probe.scale(stats.patch_pairs).max(1);
        let patches = probe.scale(stats.patches_nonempty).max(1);
        trace.push(Invocation::new(
            "depth sorting",
            Workload::Sort {
                patches,
                keys_per_patch: (total_keys as f64 / patches as f64).max(1.0),
                entry_bytes: 8, // Depth key + splat id.
            },
        ));

        // (4) SH color evaluation as a vector-matrix product per visible
        // splat (the paper's "MLP" step for 3DGS).
        trace.push(Invocation::new(
            "sh color (mlp)",
            Workload::Gemm {
                batch: visible.max(1),
                in_dim: 16,
                out_dim: 3,
                weight_bytes: 0, // SH coefficients stream with the splats.
            },
        ));

        // (5) Blending of surviving (splat, pixel) pairs.
        trace.push(Invocation::new(
            "blending",
            Workload::Gemm {
                batch: probe.scale(stats.blended_pairs).max(1),
                in_dim: 1,
                out_dim: 4,
                weight_bytes: 0,
            },
        ));
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
        let camera = testutil::camera(scene, 64, 48);
        let img = GaussianPipeline::default().render(scene, &camera);
        let bg = scene.field().background();
        let non_bg = img
            .pixels()
            .iter()
            .filter(|p| (p.r - bg.r).abs() + (p.g - bg.g).abs() + (p.b - bg.b).abs() > 0.05)
            .count();
        assert!(non_bg > 100, "{non_bg} non-background pixels");
    }

    #[test]
    fn soa_path_matches_scalar_reference() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 96, 72);
        let pipeline = GaussianPipeline::default();
        let soa = pipeline.render(scene, &camera);
        let scalar = pipeline.render_scalar(scene, &camera);
        for (a, b) in soa.pixels().iter().zip(scalar.pixels()) {
            assert!(
                (a.r - b.r).abs() < 1e-5 && (a.g - b.g).abs() < 1e-5 && (a.b - b.b).abs() < 1e-5,
                "SoA {a} vs scalar {b}"
            );
        }
    }

    #[test]
    fn depth_key_orders_like_total_cmp() {
        let depths = [
            0.0f32,
            -0.0,
            1.5,
            1.5000001,
            1e-30,
            3e4,
            f32::MIN_POSITIVE,
            -2.5,
        ];
        for &a in &depths {
            for &b in &depths {
                assert_eq!(
                    depth_key(a).cmp(&depth_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn trace_contains_all_five_steps() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = GaussianPipeline::default().trace(scene, &camera);
        assert_eq!(
            trace.micro_ops_used(),
            vec![
                MicroOp::GeometricProcessing,
                MicroOp::Sorting,
                MicroOp::Gemm,
            ]
        );
        // Splatting -> sorting -> SH -> blending crosses op families twice.
        assert_eq!(trace.reconfiguration_count(), 2);
    }

    #[test]
    fn splat_stats_are_consistent() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 96, 64);
        let stats = GaussianPipeline::default().render_counted(scene, &camera, &mut Image::empty());
        assert!(stats.visible_splats > 0);
        assert!(stats.visible_splats <= stats.gaussians_streamed);
        assert!(stats.blended_pairs <= stats.candidate_pairs);
        assert!(stats.patches_nonempty > 0);
    }

    #[test]
    fn sorting_keys_scale_with_gaussian_count() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = GaussianPipeline::default().trace(scene, &camera);
        let sort = trace
            .iter()
            .find(|i| i.stage() == "depth sorting")
            .expect("sorting stage");
        if let Workload::Sort { keys_per_patch, .. } = sort.workload() {
            // Full-scale count is 300k vs a tiny baked cloud, so per-patch
            // lists must be large.
            assert!(*keys_per_patch > 10.0, "got {keys_per_patch}");
        } else {
            panic!("expected sort workload");
        }
    }

    #[test]
    fn patch_amortization_keeps_sort_cost_below_per_pixel_sorting() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 640, 480);
        let trace = GaussianPipeline::default().trace(scene, &camera);
        let stats = trace.stats();
        let sort_cost = stats.cost_of(MicroOp::Sorting);
        // Patch-based sorting touches far fewer keys than per-pixel
        // sorting would (256 pixels share one sort).
        let per_pixel_keys = camera.pixel_count() * 100;
        assert!(sort_cost.items < per_pixel_keys);
    }

    #[test]
    fn front_splats_occlude_back_splats() {
        let scene = testutil::scene();
        let camera = testutil::camera(scene, 64, 48);
        // Rendering twice is deterministic.
        let a = GaussianPipeline::default().render(scene, &camera);
        let b = GaussianPipeline::default().render(scene, &camera);
        assert_eq!(a, b);
    }
}
