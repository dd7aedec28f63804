//! Layer spans for the traced run.
//!
//! A span records one call into a layer: its layer, start, end and the
//! span that was open when it began. Runs make millions of callbacks, so
//! spans are folded into per-layer accumulators as they close (calls,
//! inclusive time, self time = duration minus the time covered by child
//! spans), and only a bounded, evenly strided sample of raw spans is
//! kept for the trace file.
//!
//! Spans cost nothing until [`start`] switches them on: [`span`] then
//! degrades to a plain call.

use crate::alloc;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of layers.
pub const LAYERS: usize = 8;

/// The layers, named after the workspace crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `punch-net`: `Sim` dispatch, the calendar queue, packet pool, links.
    Net,
    /// The `punch_net::Router` device.
    Router,
    /// `punch-nat`.
    Nat,
    /// `punch-transport`: `HostDevice`, `HostStack`, `Tcb`.
    Transport,
    /// `holepunch`: the `UdpPeer` punch and keepalive logic.
    Core,
    /// `punch-rendezvous`.
    Rendezvous,
    /// `punch-natcheck`.
    Natcheck,
    /// `punch-lab`: world construction, the epoch loop and the `par` pool.
    Lab,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Net,
        Layer::Router,
        Layer::Nat,
        Layer::Transport,
        Layer::Core,
        Layer::Rendezvous,
        Layer::Natcheck,
        Layer::Lab,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Net => "net",
            Layer::Router => "router",
            Layer::Nat => "nat",
            Layer::Transport => "transport",
            Layer::Core => "core",
            Layer::Rendezvous => "rendezvous",
            Layer::Natcheck => "natcheck",
            Layer::Lab => "lab",
        }
    }

    /// The layer's slot in per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Reads the host clock. The only clock read in the benchmark: every
/// wall time it reports, and every span, comes through here.
pub fn now() -> Instant {
    // punch-lint: allow(D001) host-time measurement for the benchmark's timings and spans; never reaches a Ctx, an RNG or simulated output
    Instant::now()
}

/// Keep one raw span in this many.
const SAMPLE_STRIDE: u64 = 1009;
/// Most raw spans kept.
const SAMPLE_CAP: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static INCLUSIVE_NS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static SELF_NS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SAMPLE: Mutex<Vec<RawSpan>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

struct Frame {
    layer: Layer,
    id: u64,
    parent: u64,
    start: Instant,
    child_ns: u64,
    prev_alloc_slot: usize,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = RefCell::new(Vec::with_capacity(64));
}

/// One sampled span, times in nanoseconds since [`start`].
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    /// The span's layer.
    pub layer: Layer,
    /// Span id (unique within a traced run).
    pub id: u64,
    /// Id of the span open when this one began; 0 for a root span.
    pub parent: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Per-layer totals of a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Time inside the layer's spans, children included.
    pub inclusive_ns: u64,
    /// Time inside the layer's spans, children excluded.
    pub self_ns: u64,
}

/// Clears every accumulator and switches spans on.
pub fn start() {
    for i in 0..LAYERS {
        CALLS[i].store(0, Ordering::SeqCst);
        INCLUSIVE_NS[i].store(0, Ordering::SeqCst);
        SELF_NS[i].store(0, Ordering::SeqCst);
    }
    NEXT_ID.store(1, Ordering::SeqCst);
    let mut sample = lock_sample();
    sample.clear();
    sample.reserve(SAMPLE_CAP);
    drop(sample);
    ORIGIN.get_or_init(now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Switches spans off and returns the per-layer totals.
pub fn stop() -> [LayerTotals; LAYERS] {
    ENABLED.store(false, Ordering::SeqCst);
    std::array::from_fn(|i| LayerTotals {
        calls: CALLS[i].load(Ordering::SeqCst),
        inclusive_ns: INCLUSIVE_NS[i].load(Ordering::SeqCst),
        self_ns: SELF_NS[i].load(Ordering::SeqCst),
    })
}

/// The raw-span sample collected since [`start`].
pub fn sample() -> Vec<RawSpan> {
    lock_sample().clone()
}

fn lock_sample() -> std::sync::MutexGuard<'static, Vec<RawSpan>> {
    SAMPLE
        .lock()
        .expect("span sample lock poisoned by a panicking thread")
}

/// Runs `f` inside a span of `layer` (a plain call while spans are off).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    enter(layer);
    let r = f();
    exit();
    r
}

/// Runs `f` with its allocations charged to `layer`, without opening a
/// span: world construction is timed as a whole, but the bytes it
/// allocates belong to the layer whose constructor asked for them.
pub fn charge<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let prev = alloc::set_current(layer.index());
    let r = f();
    alloc::set_current(prev);
    r
}

fn enter(layer: Layer) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let prev_alloc_slot = alloc::set_current(layer.index());
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or(0, |f| f.id);
        s.push(Frame {
            layer,
            id,
            parent,
            start: now(),
            child_ns: 0,
            prev_alloc_slot,
        });
    });
}

fn exit() {
    let end = now();
    let closed = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.pop().expect("span exit without a matching enter");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        if let Some(parent) = s.last_mut() {
            parent.child_ns += dur;
        }
        (frame, dur)
    });
    let (frame, dur) = closed;
    alloc::set_current(frame.prev_alloc_slot);
    let i = frame.layer.index();
    CALLS[i].fetch_add(1, Ordering::Relaxed);
    INCLUSIVE_NS[i].fetch_add(dur, Ordering::Relaxed);
    SELF_NS[i].fetch_add(dur.saturating_sub(frame.child_ns), Ordering::Relaxed);
    if frame.id % SAMPLE_STRIDE == 0 {
        let origin = *ORIGIN.get_or_init(now);
        let start_ns = frame.start.duration_since(origin).as_nanos() as u64;
        let mut sample = lock_sample();
        if sample.len() < SAMPLE_CAP {
            sample.push(RawSpan {
                layer: frame.layer,
                id: frame.id,
                parent: frame.parent,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    }
}
