//! Spans for the traced run, recorded from the benchmark's side of each
//! layer boundary: around the engine calls the caller makes
//! (`try_admit`, `next_frame`), and around every `Renderer` method the
//! engine calls on a session's renderer, via [`TracedRenderer`].
//! Untraced runs never construct either.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use uni_geometry::{Camera, Image};
use uni_microops::{Pipeline, Trace};
use uni_renderers::Renderer;
use uni_scene::BakedScene;

use crate::plan;

/// Spans kept per run; further spans are counted as dropped, so the
/// buffer never reallocates while the serve is timed.
const SPAN_CAPACITY: usize = 1 << 17;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One pass of the seeded schedule (root span).
    Episode,
    TryAdmit,
    NextFrame,
    /// A `try_admit` or `next_frame` call during which the scene cache
    /// baked; its parent is the call.
    Bake,
    Render,
    Trace,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Episode => "episode",
            SpanKind::TryAdmit => "engine.try_admit",
            SpanKind::NextFrame => "engine.next_frame",
            SpanKind::Bake => "scene.bake",
            SpanKind::Render => "renderers.render",
            SpanKind::Trace => "renderers.trace",
        }
    }
}

/// Request id of spans that belong to no session.
pub const NO_SESSION: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub kind: SpanKind,
    /// Pipeline of render and trace spans.
    pub pipeline: Option<Pipeline>,
    /// Request id: session and the session's frame ordinal.
    pub session: u32,
    pub frame: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The in-memory span buffer.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU32,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::with_capacity(SPAN_CAPACITY)),
            dropped: AtomicU32::new(0),
        })
    }

    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn new_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        if spans.len() < spans.capacity() {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone()
    }

    pub fn dropped(&self) -> u32 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tname\tpipeline\tsession\tframe\tstart_us\tend_us"
        )?;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.id,
                s.parent,
                s.kind.name(),
                s.pipeline.map_or("-", plan::name),
                s.session,
                s.frame,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )?;
        }
        out.flush()
    }
}

/// Wraps a session's renderer and records a span around each call.
///
/// It forwards *every* `Renderer` method to the wrapped renderer,
/// defaulted ones included, so a pipeline's own override is never
/// replaced by the trait default. A method added to `Renderer` must be
/// forwarded here as well.
pub struct TracedRenderer {
    inner: Box<dyn Renderer + Send>,
    pipeline: Pipeline,
    tracer: Arc<Tracer>,
    parent: u32,
    session: u32,
    /// Frames rendered so far: the frame ordinal of the request id.
    frames: AtomicU32,
}

impl TracedRenderer {
    pub fn boxed(
        pipeline: Pipeline,
        tracer: Arc<Tracer>,
        parent: u32,
        session: u32,
    ) -> Box<dyn Renderer + Send> {
        Box::new(Self {
            inner: plan::renderer(pipeline),
            pipeline,
            tracer,
            parent,
            session,
            frames: AtomicU32::new(0),
        })
    }

    fn span<R>(&self, kind: SpanKind, frame: u32, call: impl FnOnce() -> R) -> R {
        let id = self.tracer.new_id();
        let start_ns = self.tracer.now();
        let out = call();
        self.tracer.record(Span {
            id,
            parent: self.parent,
            kind,
            pipeline: Some(self.pipeline),
            session: self.session,
            frame,
            start_ns,
            end_ns: self.tracer.now(),
        });
        out
    }
}

impl Renderer for TracedRenderer {
    fn pipeline(&self) -> Pipeline {
        self.inner.pipeline()
    }

    fn render_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) {
        let frame = self.frames.fetch_add(1, Ordering::Relaxed);
        self.span(SpanKind::Render, frame, || {
            self.inner.render_into(scene, camera, target)
        })
    }

    fn render(&self, scene: &BakedScene, camera: &Camera) -> Image {
        let frame = self.frames.fetch_add(1, Ordering::Relaxed);
        self.span(SpanKind::Render, frame, || self.inner.render(scene, camera))
    }

    fn trace(&self, scene: &BakedScene, camera: &Camera) -> Trace {
        // The engine traces a frame after rendering it.
        let frame = self.frames.load(Ordering::Relaxed).saturating_sub(1);
        self.span(SpanKind::Trace, frame, || self.inner.trace(scene, camera))
    }
}
