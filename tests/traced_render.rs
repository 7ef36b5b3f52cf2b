//! The serving path renders each simulated frame once. With an
//! accelerator attached, `RenderServer` and `RenderSession` must obtain
//! every delivered frame's image and trace from exactly one
//! `Renderer::render_traced_into` call — never `render_into` followed by
//! `trace`, which renders the frame a second time below the probe cap.
//! Without an accelerator nothing is traced, so frames take plain
//! `render_into`. A wrapper renderer counts the calls per session. CI
//! runs this file at `UNI_RENDER_THREADS=1` and `4`.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use uni_render::prelude::*;

fn scene() -> &'static Arc<BakedScene> {
    static SCENE: OnceLock<Arc<BakedScene>> = OnceLock::new();
    SCENE.get_or_init(|| Arc::new(SceneSpec::demo("traced", 55).with_detail(0.03).bake()))
}

fn orbit_path(frames: usize) -> CameraPath {
    CameraPath::orbit(scene().spec().orbit(24, 16), frames)
}

/// Renderer entry points called on one session's renderer.
#[derive(Debug, Default)]
struct Calls {
    render_into: AtomicU64,
    trace: AtomicU64,
    render_traced_into: AtomicU64,
}

impl Calls {
    /// `(render_into, trace, render_traced_into)` so far.
    fn get(&self) -> (u64, u64, u64) {
        (
            self.render_into.load(Ordering::SeqCst),
            self.trace.load(Ordering::SeqCst),
            self.render_traced_into.load(Ordering::SeqCst),
        )
    }
}

/// Forwards each entry point to the wrapped pipeline's own method,
/// counting it — `render_traced_into` included, so a pipeline override
/// is what runs, not the trait default.
struct CountingRenderer {
    inner: Box<dyn Renderer + Send>,
    calls: Arc<Calls>,
}

impl Renderer for CountingRenderer {
    fn pipeline(&self) -> Pipeline {
        self.inner.pipeline()
    }

    fn render_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) {
        self.calls.render_into.fetch_add(1, Ordering::SeqCst);
        self.inner.render_into(scene, camera, target);
    }

    fn trace(&self, scene: &BakedScene, camera: &Camera) -> Trace {
        self.calls.trace.fetch_add(1, Ordering::SeqCst);
        self.inner.trace(scene, camera)
    }

    fn render_traced_into(&self, scene: &BakedScene, camera: &Camera, target: &mut Image) -> Trace {
        self.calls.render_traced_into.fetch_add(1, Ordering::SeqCst);
        self.inner.render_traced_into(scene, camera, target)
    }
}

fn counting(pipeline: usize) -> (Box<dyn Renderer + Send>, Arc<Calls>) {
    let calls = Arc::new(Calls::default());
    let renderer = CountingRenderer {
        inner: common::renderer(pipeline),
        calls: Arc::clone(&calls),
    };
    (Box::new(renderer), calls)
}

/// Serves one session per pipeline and returns each session's delivered
/// frame count beside its renderer's call counts.
fn serve(accelerated: bool, lanes: usize) -> Vec<(u64, (u64, u64, u64))> {
    let mut server = RenderServer::new(Arc::clone(scene())).with_lanes(lanes);
    if accelerated {
        server = server.with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
    }
    let mut sessions = Vec::new();
    for pipeline in 0..6 {
        let (renderer, calls) = counting(pipeline);
        let handle = server.admit(SessionRequest::new(renderer, orbit_path(3)));
        sessions.push((handle.id(), calls, 0u64));
    }
    while let Some(frame) = server.next_frame() {
        assert_eq!(frame.report.trace.is_some(), accelerated);
        let entry = sessions
            .iter_mut()
            .find(|(id, ..)| *id == frame.session)
            .expect("known session");
        entry.2 += 1;
        server.recycle(frame.session, frame.report.image);
    }
    sessions
        .into_iter()
        .map(|(_, calls, delivered)| (delivered, calls.get()))
        .collect()
}

/// Streams one session per pipeline and returns each stream's delivered
/// frame count beside its renderer's call counts.
fn stream(accelerated: bool) -> Vec<(u64, (u64, u64, u64))> {
    (0..6)
        .map(|pipeline| {
            let (renderer, calls) = counting(pipeline);
            let mut session = RenderSession::new(Arc::clone(scene()), renderer, orbit_path(3));
            if accelerated {
                session = session.with_accelerator(Accelerator::new(AcceleratorConfig::paper()));
            }
            let mut delivered = 0;
            while let Some(frame) = session.next_frame() {
                assert_eq!(frame.trace.is_some(), accelerated);
                delivered += 1;
                session.recycle(frame.image);
            }
            (delivered, calls.get())
        })
        .collect()
}

#[track_caller]
fn assert_one_traced_render_per_frame(counts: &[(u64, (u64, u64, u64))]) {
    for (pipeline, &(delivered, calls)) in counts.iter().enumerate() {
        assert_eq!(delivered, 3, "pipeline {pipeline}: every frame delivered");
        assert_eq!(
            calls,
            (0, 0, delivered),
            "pipeline {pipeline}: (render_into, trace, render_traced_into) calls \
             for {delivered} accelerated frames"
        );
    }
}

#[track_caller]
fn assert_untraced_renders_only(counts: &[(u64, (u64, u64, u64))]) {
    for (pipeline, &(delivered, calls)) in counts.iter().enumerate() {
        assert_eq!(delivered, 3, "pipeline {pipeline}: every frame delivered");
        assert_eq!(
            calls,
            (delivered, 0, 0),
            "pipeline {pipeline}: (render_into, trace, render_traced_into) calls \
             for {delivered} frames without an accelerator"
        );
    }
}

#[test]
fn accelerated_server_renders_each_frame_once() {
    for lanes in [1, 3] {
        assert_one_traced_render_per_frame(&serve(true, lanes));
    }
}

#[test]
fn accelerated_session_renders_each_frame_once() {
    assert_one_traced_render_per_frame(&stream(true));
}

#[test]
fn accelerator_less_serving_never_traces() {
    assert_untraced_renders_only(&serve(false, 2));
    assert_untraced_renders_only(&stream(false));
}
