//! The discrete-event engine.
//!
//! Events are closures over a caller-supplied world type `W`. Popping an
//! event hands `&mut W` and `&mut Engine<W>` to the closure, which may
//! schedule further events. Ties in time are broken by insertion order, so a
//! run is a pure function of (initial world, seed).
//!
//! # Storage
//!
//! The priority queue is a 4-ary min-heap (`EventQueue`) of packed
//! 16-byte `u128` keys: the event's time in the high 64 bits, its schedule
//! sequence number in the next 36, and its arena slot in the low 28. Since
//! sequence numbers are unique, comparing two keys as integers is exactly
//! the `(time, seq)` order, and the slot bits never decide it. The heap is
//! laid out so that the four children of a node fill one 64-byte cache
//! line: a pop visits one line per level, over half as many levels as a
//! binary heap.
//!
//! The closures live in a [`Slab`] arena whose slots are recycled as
//! events execute. Closures at most `INLINE_BYTES` (32) bytes are stored
//! *inline* in their slot, so the steady state allocates nothing per
//! event. Callers keep their captures small — the protocol layer parks a
//! message's payload in a world-owned slab and captures only its index —
//! and oversized closures transparently fall back to a boxed
//! representation.
//!
//! The packing sets two limits, each enforced by an `assert!` that names
//! it: at most 2^36 (6.9e10) events scheduled over an engine's life, and
//! at most 2^28 (268M) events outstanding at once.

use std::mem::{self, MaybeUninit};

use lockss_obs::{Counter, Gauge, RegistryBuilder};

use crate::slab::Slab;
use crate::time::{Duration, SimTime};

/// Pre-registered metric handles for one engine (see `lockss-obs`).
///
/// The engine publishes into these when a run loop *exits* — never per
/// event — so an instrumented engine pays one null-check per `run_until`
/// call, and an un-instrumented one pays nothing in the hot loop.
/// Metrics are strictly out-of-band: they never influence event order.
#[derive(Clone)]
pub struct EngineObs {
    /// Events executed, accumulated across run loops (and, when the
    /// registry is shared, across every engine in a sweep).
    pub events_executed: Counter,
    /// Events still queued when the last run loop exited.
    pub events_queued: Gauge,
    /// Live arena slots when the last run loop exited.
    pub arena_live: Gauge,
    /// High-water mark of arena slots across all observed engines.
    pub arena_total: Gauge,
}

impl EngineObs {
    /// Registers the engine's metrics on `b` and returns the handles.
    pub fn register(b: &mut RegistryBuilder) -> EngineObs {
        EngineObs {
            events_executed: b.counter(
                "engine_events_executed_total",
                "Events executed by the discrete-event engine",
            ),
            events_queued: b.gauge(
                "engine_events_queued",
                "Events queued when the last run loop exited",
            ),
            arena_live: b.gauge(
                "engine_arena_live",
                "Live event-arena slots when the last run loop exited",
            ),
            arena_total: b.gauge("engine_arena_total", "High-water mark of event-arena slots"),
        }
    }
}

/// A boxed event body: runs against the world and may schedule more events.
///
/// Retained as the engine's public name for an owned event closure;
/// internally events of ordinary size are stored inline in the arena and
/// never boxed.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// Inline storage per arena slot. Sized for the protocol layer's common
/// captures — a few ids and indices — while keeping a slot at one cache
/// line, so scheduling moves at most 48 bytes. Fatter closures take the
/// boxed fallback, a malloc and a free per event; the protocol layer keeps
/// every closure it schedules under this size.
const INLINE_BYTES: usize = 32;

/// Maximum supported alignment for inline closures; larger-aligned ones are
/// boxed.
const INLINE_ALIGN: usize = 16;

/// Raw closure storage: an aligned byte array written and read via typed
/// raw pointers.
#[repr(C, align(16))]
struct Payload([MaybeUninit<u8>; INLINE_BYTES]);

type CallFn<W> = unsafe fn(*mut u8, &mut W, &mut Engine<W>);
type DropFn = unsafe fn(*mut u8);

/// Reads an `F` out of the payload and runs it.
///
/// # Safety
///
/// `p` must point to a valid, initialized `F` that is never read again.
unsafe fn call_inline<W, F: FnOnce(&mut W, &mut Engine<W>)>(
    p: *mut u8,
    w: &mut W,
    eng: &mut Engine<W>,
) {
    let f = unsafe { p.cast::<F>().read() };
    f(w, eng);
}

/// Reads a `Box<F>` out of the payload and runs it.
///
/// # Safety
///
/// `p` must point to a valid, initialized `Box<F>` that is never read again.
unsafe fn call_boxed<W, F: FnOnce(&mut W, &mut Engine<W>)>(
    p: *mut u8,
    w: &mut W,
    eng: &mut Engine<W>,
) {
    let b = unsafe { p.cast::<Box<F>>().read() };
    b(w, eng);
}

/// Drops the `T` stored in the payload in place.
///
/// # Safety
///
/// `p` must point to a valid, initialized `T` that is never used again.
unsafe fn drop_payload<T>(p: *mut u8) {
    unsafe { std::ptr::drop_in_place(p.cast::<T>()) }
}

/// One type-erased event closure, stored inline when it fits.
struct EventCell<W> {
    call: CallFn<W>,
    drop_fn: DropFn,
    payload: Payload,
    /// The erased closure is neither `Send` nor `Sync` in general; without
    /// this marker the raw-bytes representation would be auto-`Send`/`Sync`
    /// and safe code could move an engine holding (say) `Rc`-capturing
    /// events across threads. Mirrors the auto-traits of the boxed
    /// representation this replaced.
    _not_send: std::marker::PhantomData<EventFn<W>>,
}

impl<W> EventCell<W> {
    fn new<F>(f: F) -> EventCell<W>
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        let mut payload = Payload([MaybeUninit::uninit(); INLINE_BYTES]);
        if mem::size_of::<F>() <= INLINE_BYTES && mem::align_of::<F>() <= INLINE_ALIGN {
            // SAFETY: the payload is large and aligned enough for `F`; the
            // value is owned by the cell from here on (run exactly once by
            // `invoke` or dropped exactly once by `Drop`).
            unsafe { payload.0.as_mut_ptr().cast::<F>().write(f) };
            EventCell {
                call: call_inline::<W, F>,
                drop_fn: drop_payload::<F>,
                payload,
                _not_send: std::marker::PhantomData,
            }
        } else {
            let boxed = Box::new(f);
            // SAFETY: a `Box` pointer always fits the payload.
            unsafe { payload.0.as_mut_ptr().cast::<Box<F>>().write(boxed) };
            EventCell {
                call: call_boxed::<W, F>,
                drop_fn: drop_payload::<Box<F>>,
                payload,
                _not_send: std::marker::PhantomData,
            }
        }
    }

    /// Runs the stored closure, consuming the cell.
    fn invoke(self, world: &mut W, eng: &mut Engine<W>) {
        // The payload is moved out by `call`; suppress the cell's own drop
        // so it is not dropped a second time. If the closure panics it is
        // already on the callee's stack and unwinding drops it there.
        let mut this = mem::ManuallyDrop::new(self);
        // SAFETY: `call` matches the payload's contents by construction,
        // and the ManuallyDrop guarantees this is the only consumption.
        unsafe { (this.call)(this.payload.0.as_mut_ptr().cast::<u8>(), world, eng) }
    }
}

impl<W> Drop for EventCell<W> {
    fn drop(&mut self) {
        // SAFETY: a cell that was not `invoke`d still owns its payload;
        // `drop_fn` matches the stored type by construction.
        unsafe { (self.drop_fn)(self.payload.0.as_mut_ptr().cast::<u8>()) }
    }
}

/// Bits of a queue key holding the arena slot.
const SLOT_BITS: u32 = 28;
/// Bits of a queue key holding the schedule sequence number.
const SEQ_BITS: u32 = 36;
/// Events outstanding at once are limited to this many arena slots.
const SLOT_LIMIT: u64 = 1 << SLOT_BITS;
/// Events scheduled over an engine's life are limited to this many.
const SEQ_LIMIT: u64 = 1 << SEQ_BITS;

/// Packs `(at, seq, slot)` so that integer order is `(at, seq)` order.
fn pack(at: SimTime, seq: u64, slot: u32) -> u128 {
    ((at.0 as u128) << 64) | ((seq as u128) << SLOT_BITS) | slot as u128
}

/// The time of a packed key.
fn key_at(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// The arena slot of a packed key.
fn key_slot(key: u128) -> u32 {
    (key as u32) & (SLOT_LIMIT as u32 - 1)
}

/// Four heap keys on one 64-byte cache line.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Line([u128; 4]);

/// Filler for line positions that hold no key; compares above every key.
const EMPTY: Line = Line([u128::MAX; 4]);

/// A 4-ary min-heap of packed keys.
///
/// Heap node `h` is stored at position `h + 3` of the flattened lines, so
/// the root sits in the last lane of line 0 and the children of node `h`
/// (nodes `4h + 1 ..= 4h + 4`) are exactly line `h + 1`. Positions past
/// the last key hold `u128::MAX`, which lets sift-down take the minimum of
/// a whole line without counting how many children exist.
struct EventQueue {
    lines: Vec<Line>,
    len: usize,
}

impl EventQueue {
    fn with_capacity(keys: usize) -> EventQueue {
        EventQueue {
            lines: Vec::with_capacity(keys.div_ceil(4) + 1),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, h: usize) -> u128 {
        self.lines[(h + 3) >> 2].0[(h + 3) & 3]
    }

    fn set(&mut self, h: usize, key: u128) {
        self.lines[(h + 3) >> 2].0[(h + 3) & 3] = key;
    }

    /// The smallest key, if any.
    fn peek(&self) -> Option<u128> {
        (self.len > 0).then(|| self.get(0))
    }

    fn push(&mut self, key: u128) {
        let mut h = self.len;
        if (h + 3) >> 2 == self.lines.len() {
            self.lines.push(EMPTY);
        }
        self.len += 1;
        while h > 0 {
            let parent = (h - 1) >> 2;
            let p = self.get(parent);
            if p < key {
                break;
            }
            self.set(h, p);
            h = parent;
        }
        self.set(h, key);
    }

    /// Removes and returns the smallest key.
    fn pop(&mut self) -> Option<u128> {
        let top = self.peek()?;
        self.len -= 1;
        let last = self.get(self.len);
        self.set(self.len, u128::MAX);
        if self.len == 0 {
            return Some(top);
        }
        let mut h = 0;
        while let Some(Line(c)) = self.lines.get(h + 1) {
            let (i01, m01) = if c[1] < c[0] { (1, c[1]) } else { (0, c[0]) };
            let (i23, m23) = if c[3] < c[2] { (3, c[3]) } else { (2, c[2]) };
            let (i, m) = if m23 < m01 { (i23, m23) } else { (i01, m01) };
            if m >= last {
                break;
            }
            self.set(h, m);
            h = 4 * h + 1 + i;
        }
        self.set(h, last);
        Some(top)
    }
}

/// A single-threaded discrete-event engine.
///
/// # Examples
///
/// ```
/// use lockss_sim::{Duration, Engine, SimTime};
///
/// let mut engine: Engine<Vec<u64>> = Engine::new();
/// engine.schedule_in(Duration::SECOND, |log: &mut Vec<u64>, eng| {
///     log.push(eng.now().as_millis());
/// });
/// let mut log = Vec::new();
/// engine.run_until(&mut log, SimTime::ZERO + Duration::MINUTE);
/// assert_eq!(log, vec![1000]);
/// ```
pub struct Engine<W> {
    now: SimTime,
    seq: u64,
    executed: u64,
    queue: EventQueue,
    arena: Slab<EventCell<W>>,
    /// Hard stop; events scheduled past this instant are silently dropped at
    /// pop time (they stay queued but never run).
    horizon: Option<SimTime>,
    /// Set by [`Engine::request_stop`] from inside an event; cleared when a
    /// run loop is entered.
    stop_requested: bool,
    /// Metric handles published when a run loop exits; `None` costs one
    /// null-check per run loop, nothing per event.
    obs: Option<Box<EngineObs>>,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an engine whose queue and event arena are pre-sized for
    /// roughly `events` simultaneously outstanding events.
    ///
    /// Purely a performance knob for large-population worlds: a 10k+-peer
    /// world schedules tens of thousands of first-poll and damage events
    /// before the run starts, and pre-sizing avoids the doubling cascade on
    /// both the 4-ary key heap and the slot slab. Behaviour is identical to
    /// [`Engine::new`].
    pub fn with_capacity(events: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            queue: EventQueue::with_capacity(events),
            arena: Slab::with_capacity(events),
            horizon: None,
            stop_requested: false,
            obs: None,
        }
    }

    /// Installs metric handles; the engine publishes into them whenever
    /// a run loop exits.
    pub fn set_obs(&mut self, obs: EngineObs) {
        self.obs = Some(Box::new(obs));
    }

    /// Publishes end-of-loop engine state into the installed handles.
    fn publish_obs(&self, ran: u64) {
        if let Some(o) = &self.obs {
            o.events_executed.add(ran);
            o.events_queued.set(self.queue.len() as u64);
            let (live, total) = self.arena_occupancy();
            o.arena_live.set(live as u64);
            o.arena_total.raise(total as u64);
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Event-arena occupancy: `(live slots, total slots)`. The total is the
    /// high-water mark of simultaneously outstanding events (slots are
    /// recycled, never shrunk), which is what a memory report wants.
    pub fn arena_occupancy(&self) -> (usize, usize) {
        (self.arena.live(), self.arena.total())
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The stop horizon, if one was set by `run_until`.
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// Asks the current run loop to stop after the executing event returns.
    ///
    /// Only meaningful from inside an event handler: the flag is cleared
    /// when `run_until` / `run_to_exhaustion` is entered, so a request made
    /// between runs has no effect. Observers that verify a run as it
    /// executes (e.g. a trace-replay sink) use this to abort at the first
    /// divergence instead of simulating months past it; queued events stay
    /// queued, and the clock stays at the stopping event's instant.
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }

    /// True if [`Engine::request_stop`] fired during the last run loop.
    pub fn stop_requested(&self) -> bool {
        self.stop_requested
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now": the event runs at the
    /// current instant, after already-queued events for this instant.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        let at = at.max(self.now);
        let seq = self.seq;
        assert!(
            seq < SEQ_LIMIT,
            "event seq limit: at most 2^36 (6.9e10) events may be scheduled per engine"
        );
        self.seq += 1;
        let slot = self.arena.insert(EventCell::new(f));
        assert!(
            u64::from(slot) < SLOT_LIMIT,
            "event slot limit: at most 2^28 (268M) events may be outstanding at once"
        );
        self.queue.push(pack(at, seq, slot));
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: Duration, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f);
    }

    /// Runs events in order until the queue empties or simulated time
    /// reaches `until`. Returns the number of events executed by this call.
    ///
    /// Events timestamped exactly at `until` do *not* run; the engine's
    /// clock finishes at `until`.
    pub fn run_until(&mut self, world: &mut W, until: SimTime) -> u64 {
        self.horizon = Some(until);
        self.stop_requested = false;
        let before = self.executed;
        while let Some(head) = self.queue.peek() {
            if key_at(head) >= until {
                break;
            }
            let key = self.queue.pop().expect("peeked head exists");
            debug_assert!(key_at(key) >= self.now, "time must be monotone");
            self.now = key_at(key);
            self.executed += 1;
            let cell = self.arena.take(key_slot(key));
            cell.invoke(world, self);
            if self.stop_requested {
                let ran = self.executed - before;
                self.publish_obs(ran);
                return ran;
            }
        }
        self.now = self.now.max(until);
        let ran = self.executed - before;
        self.publish_obs(ran);
        ran
    }

    /// Runs all queued events to exhaustion (use with care: self-rescheduling
    /// periodic events make this diverge; prefer `run_until`).
    pub fn run_to_exhaustion(&mut self, world: &mut W) -> u64 {
        let before = self.executed;
        self.stop_requested = false;
        while let Some(key) = self.queue.pop() {
            debug_assert!(key_at(key) >= self.now, "time must be monotone");
            self.now = key_at(key);
            self.executed += 1;
            let cell = self.arena.take(key_slot(key));
            cell.invoke(world, self);
            if self.stop_requested {
                break;
            }
        }
        let ran = self.executed - before;
        self.publish_obs(ran);
        ran
    }

    /// Starts the schedule sequence at `seq`, so a test can reach the
    /// sequence limit without scheduling 2^36 events.
    #[cfg(test)]
    fn start_seq_at(&mut self, seq: u64) {
        self.seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a: Engine<Vec<u32>> = Engine::new();
        let mut b: Engine<Vec<u32>> = Engine::with_capacity(1024);
        for eng in [&mut a, &mut b] {
            for i in 0..10 {
                eng.schedule_at(SimTime(10 - i as u64), move |w: &mut Vec<u32>, _| w.push(i));
            }
        }
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        a.run_to_exhaustion(&mut wa);
        b.run_to_exhaustion(&mut wb);
        assert_eq!(wa, wb);
        let (live, total) = b.arena_occupancy();
        assert_eq!(live, 0, "all events executed");
        assert_eq!(total, 10, "high-water mark of outstanding events");
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime(30), |w: &mut Vec<u32>, _| w.push(3));
        eng.schedule_at(SimTime(10), |w: &mut Vec<u32>, _| w.push(1));
        eng.schedule_at(SimTime(20), |w: &mut Vec<u32>, _| w.push(2));
        let mut w = Vec::new();
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(eng.executed(), 3);
        assert_eq!(eng.now(), SimTime(100));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        let mut w = Vec::new();
        eng.run_to_exhaustion(&mut w);
        assert_eq!(w, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        eng.schedule_at(SimTime(1), |_, e| {
            e.schedule_in(Duration(5), |w: &mut Vec<u64>, e2| {
                w.push(e2.now().as_millis());
            });
        });
        let mut w = Vec::new();
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(w, vec![6]);
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime(10), |w: &mut u32, _| *w += 1);
        eng.schedule_at(SimTime(11), |w: &mut u32, _| *w += 1);
        let mut w = 0;
        eng.run_until(&mut w, SimTime(11));
        assert_eq!(w, 1);
        assert_eq!(eng.now(), SimTime(11));
        // Resuming picks up the remaining event.
        eng.run_until(&mut w, SimTime(12));
        assert_eq!(w, 2);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut eng: Engine<Vec<&'static str>> = Engine::new();
        eng.schedule_at(SimTime(50), |_, e| {
            e.schedule_at(SimTime(10), |w: &mut Vec<&'static str>, _| w.push("late"));
            e.schedule_at(SimTime(50), |w: &mut Vec<&'static str>, _| w.push("same"));
        });
        let mut w = Vec::new();
        eng.run_to_exhaustion(&mut w);
        assert_eq!(w, vec!["late", "same"]);
        assert_eq!(eng.now(), SimTime(50));
    }

    #[test]
    fn request_stop_halts_the_run_loop() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime(10), |w: &mut Vec<u32>, e| {
            w.push(1);
            e.request_stop();
        });
        eng.schedule_at(SimTime(20), |w: &mut Vec<u32>, _| w.push(2));
        let mut w = Vec::new();
        let ran = eng.run_until(&mut w, SimTime(100));
        assert_eq!(ran, 1);
        assert_eq!(w, vec![1]);
        assert!(eng.stop_requested());
        assert_eq!(eng.now(), SimTime(10), "clock stays at the stop event");
        assert_eq!(eng.queued(), 1, "later events stay queued");
        // A fresh run clears the flag and resumes from the queue.
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(w, vec![1, 2]);
        assert!(!eng.stop_requested());
    }

    #[test]
    fn periodic_self_rescheduling() {
        struct W {
            ticks: u32,
        }
        fn tick(w: &mut W, e: &mut Engine<W>) {
            w.ticks += 1;
            e.schedule_in(Duration(10), tick);
        }
        let mut eng: Engine<W> = Engine::new();
        eng.schedule_at(SimTime(0), tick);
        let mut w = W { ticks: 0 };
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(w.ticks, 10); // t = 0, 10, ..., 90
    }

    /// Interleaved scheduling and draining: slots freed by executed events
    /// are reused by later schedules, and the (time, seq) order is pinned
    /// across the reuse — a later-scheduled event in a *recycled* slot
    /// still runs after an earlier-scheduled event at the same instant.
    #[test]
    fn slot_reuse_preserves_tie_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        // Wave 1 occupies slots 0..32, then fully drains (slots freed).
        for i in 0..32 {
            eng.schedule_at(SimTime(1), move |w: &mut Vec<u32>, _| w.push(i));
        }
        eng.run_until(&mut w, SimTime(2));
        assert_eq!(w, (0..32).collect::<Vec<_>>());
        // Wave 2 reuses the freed slots in reverse free-list order; ties at
        // t=10 must still run in schedule order, and the interleaved
        // earlier-time events must still run first.
        w.clear();
        for i in 0..16 {
            eng.schedule_at(SimTime(10), move |w: &mut Vec<u32>, _| w.push(100 + i));
            eng.schedule_at(SimTime(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        eng.run_until(&mut w, SimTime(20));
        let want: Vec<u32> = (0..16).chain((0..16).map(|i| 100 + i)).collect();
        assert_eq!(w, want);
    }

    /// Events that never execute (beyond the horizon at drop time) still
    /// release their captured state exactly once.
    #[test]
    fn unexecuted_events_drop_their_captures() {
        use std::rc::Rc;
        let witness = Rc::new(());
        let mut eng: Engine<u32> = Engine::new();
        for _ in 0..8 {
            let keep = Rc::clone(&witness);
            eng.schedule_at(SimTime(1_000), move |_, _| {
                let _ = &keep;
            });
        }
        // Large closure: forces the boxed fallback path.
        let keep = Rc::clone(&witness);
        let big = [0u64; 64];
        eng.schedule_at(SimTime(1_000), move |_, _| {
            let _ = (&keep, &big);
        });
        let mut w = 0;
        eng.run_until(&mut w, SimTime(10)); // nothing executes
        assert_eq!(Rc::strong_count(&witness), 10);
        drop(eng);
        assert_eq!(
            Rc::strong_count(&witness),
            1,
            "dropping the engine must drop queued closures"
        );
    }

    /// Installed metric handles are published when a run loop exits and
    /// never perturb event order.
    #[test]
    fn obs_publishes_at_loop_exit() {
        let mut b = RegistryBuilder::new();
        let obs = EngineObs::register(&mut b);
        let handles = obs.clone();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.set_obs(obs);
        for i in 0..5 {
            eng.schedule_at(SimTime(i), move |w: &mut Vec<u32>, _| w.push(i as u32));
        }
        let mut w = Vec::new();
        eng.run_until(&mut w, SimTime(3));
        assert_eq!(w, vec![0, 1, 2]);
        assert_eq!(handles.events_executed.get(), 3);
        assert_eq!(handles.events_queued.get(), 2);
        assert_eq!(handles.arena_total.get(), 5);
        eng.run_until(&mut w, SimTime(100));
        assert_eq!(handles.events_executed.get(), 5);
        assert_eq!(handles.events_queued.get(), 0);
        assert_eq!(handles.arena_live.get(), 0);
    }

    /// Closures larger than the inline payload run correctly through the
    /// boxed fallback.
    #[test]
    fn oversized_closures_fall_back_to_boxing() {
        let mut eng: Engine<u64> = Engine::new();
        let big = [7u64; 64]; // 512 bytes: over any inline budget
        eng.schedule_at(SimTime(1), move |w: &mut u64, _| {
            *w = big.iter().sum();
        });
        let mut w = 0u64;
        eng.run_to_exhaustion(&mut w);
        assert_eq!(w, 7 * 64);
    }

    /// What random-operation event `id` does when it runs: whether it
    /// requests a stop, and the delay of the child it schedules, if any.
    /// A pure function of the id, so the engine and the reference model
    /// agree on it. Children land on an hour grid, so ties are common.
    fn behaviour(id: u64) -> (bool, Option<Duration>) {
        let h = SimRng::seed_from_u64(id).u64();
        let stop = h.is_multiple_of(61);
        let child = (h >> 8).is_multiple_of(4);
        (stop, child.then_some(Duration::HOUR * ((h >> 16) % 8)))
    }

    /// The engine-side world: the ids of executed events, in order, and the
    /// id the next scheduled event gets (its engine sequence number).
    #[derive(Default)]
    struct Log {
        ran: Vec<u64>,
        next_id: u64,
    }

    fn handle(w: &mut Log, e: &mut Engine<Log>, id: u64) {
        w.ran.push(id);
        let (stop, child) = behaviour(id);
        if stop {
            e.request_stop();
        }
        if let Some(delay) = child {
            let c = w.next_id;
            w.next_id += 1;
            e.schedule_in(delay, move |w, e| handle(w, e, c));
        }
    }

    /// The reference model of the engine's contract: a binary heap over
    /// `(time, seq)`, past times clamped to now, horizons exclusive.
    #[derive(Default)]
    struct Model {
        now: SimTime,
        seq: u64,
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        ran: Vec<u64>,
        high_water: usize,
    }

    impl Model {
        fn schedule_at(&mut self, at: SimTime) {
            self.heap.push(Reverse((at.max(self.now), self.seq)));
            self.seq += 1;
            self.high_water = self.high_water.max(self.heap.len());
        }

        /// `run_until(until)`, or `run_to_exhaustion` for `None`.
        fn run(&mut self, until: Option<SimTime>) {
            while let Some(&Reverse((at, id))) = self.heap.peek() {
                if until.is_some_and(|u| at >= u) {
                    break;
                }
                self.heap.pop();
                self.now = at;
                self.ran.push(id);
                let (stop, child) = behaviour(id);
                if let Some(delay) = child {
                    self.schedule_at(self.now + delay);
                }
                if stop {
                    return;
                }
            }
            if let Some(u) = until {
                self.now = self.now.max(u);
            }
        }
    }

    fn schedule_both(eng: &mut Engine<Log>, w: &mut Log, m: &mut Model, at: SimTime) {
        let id = w.next_id;
        w.next_id += 1;
        eng.schedule_at(at, move |w, e| handle(w, e, id));
        m.schedule_at(at);
    }

    fn assert_same(eng: &Engine<Log>, w: &Log, m: &Model) {
        assert_eq!(w.ran, m.ran, "execution order");
        assert_eq!(eng.executed(), m.ran.len() as u64);
        assert_eq!(eng.queued(), m.heap.len());
        assert_eq!(eng.now(), m.now);
        assert_eq!(eng.arena_occupancy(), (m.heap.len(), m.high_water));
    }

    /// Runs `ops` seeded random operations against the engine and the
    /// reference model, after queueing `backlog` far-future events, and
    /// checks that both agree after every operation and after a full drain.
    fn check_against_model(seed: u64, ops: usize, backlog: usize) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log::default();
        let mut m = Model::default();
        for _ in 0..backlog {
            let at = SimTime::ZERO + Duration::DAY * (1_000 + rng.below(1_000) as u64);
            schedule_both(&mut eng, &mut w, &mut m, at);
        }
        for _ in 0..ops {
            let now = eng.now();
            match rng.below(10) {
                // schedule_at: in the past (clamped), tied on an hour grid,
                // or anywhere in the next two days.
                0..=3 => {
                    let at = match rng.below(3) {
                        0 => SimTime(now.0.saturating_sub(rng.below(1 << 20) as u64)),
                        1 => {
                            SimTime(now.0 / Duration::HOUR.0 * Duration::HOUR.0)
                                + Duration::HOUR * rng.below(4) as u64
                        }
                        _ => now + Duration(rng.below(2 * Duration::DAY.0 as usize) as u64),
                    };
                    schedule_both(&mut eng, &mut w, &mut m, at);
                }
                4..=5 => {
                    let delay = Duration::HOUR * rng.below(24) as u64;
                    let id = w.next_id;
                    w.next_id += 1;
                    eng.schedule_in(delay, move |w, e| handle(w, e, id));
                    m.schedule_at(m.now + delay);
                }
                // run_until in day slices, as the runner drives it.
                6..=8 => {
                    for _ in 0..=rng.below(3) {
                        let until = SimTime((eng.now().0 / Duration::DAY.0 + 1) * Duration::DAY.0);
                        eng.run_until(&mut w, until);
                        m.run(Some(until));
                        assert_same(&eng, &w, &m);
                    }
                }
                // run_to_exhaustion: a stop event usually ends it long
                // before the backlog drains.
                _ => {
                    eng.run_to_exhaustion(&mut w);
                    m.run(None);
                }
            }
            assert_same(&eng, &w, &m);
        }
        while eng.queued() > 0 {
            eng.run_to_exhaustion(&mut w);
            m.run(None);
            assert_same(&eng, &w, &m);
        }
        assert!(
            w.ran.len() >= backlog + ops / 4,
            "the sequence exercised the queue"
        );
    }

    /// The 4-ary packed-key heap executes events in exactly the order of a
    /// `BinaryHeap` over `(time, seq)`, across past-time clamping, ties,
    /// day-sliced horizons, stop requests and slot reuse.
    #[test]
    fn matches_reference_model() {
        for seed in 1..=24 {
            check_against_model(seed, 1_500, 0);
        }
    }

    /// The same, with a backlog of far-future events deep enough to give
    /// the heap many levels.
    #[test]
    fn matches_reference_model_over_large_backlog() {
        check_against_model(77, 3_000, 120_000);
    }

    /// Keys keep their order right up to the sequence limit, and the next
    /// schedule fails loudly instead of wrapping into the slot bits.
    #[test]
    #[should_panic(expected = "event seq limit")]
    fn seq_limit_is_enforced() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.start_seq_at(SEQ_LIMIT - 9);
        for i in 0..8 {
            eng.schedule_at(SimTime(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        eng.schedule_at(SimTime(1), |w: &mut Vec<u32>, _| w.push(100));
        let mut w = Vec::new();
        eng.run_to_exhaustion(&mut w);
        assert_eq!(w, [100, 0, 1, 2, 3, 4, 5, 6, 7]);
        eng.schedule_at(SimTime(9), |_, _| {});
    }
}
