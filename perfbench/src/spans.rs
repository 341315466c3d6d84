//! The benchmark's own span recorder.
//!
//! Spans are opened by the benchmark around each call it makes into a
//! layer's public function; nothing inside the program is instrumented.
//! Each span keeps its name, start, end and parent in memory, and the
//! whole list is written out once the repetition ends. With recording
//! off, [`Spans::time`] only runs the closure, so the untraced run pays
//! nothing per call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span; times are nanoseconds since the
/// recorder was created.
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An in-memory span recorder for one single-threaded repetition.
pub struct Spans {
    t0: Instant,
    on: bool,
    recs: RefCell<Vec<SpanRec>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    /// A recorder; `on = false` makes every call a plain pass-through.
    pub fn new(on: bool) -> Spans {
        Spans {
            t0: Instant::now(),
            on,
            recs: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// True when spans are being recorded (the traced run).
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// [`Spans::time`] that also returns the call's wall seconds, which
    /// are measured whether or not spans are recorded.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = self.time(name, f);
        (out, t.elapsed().as_secs_f64())
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut recs = self.recs.borrow_mut();
            let parent = self.open.borrow().last().copied();
            recs.push(SpanRec {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            recs.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.recs.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part its children cover, summed over spans of that name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let recs = self.recs.borrow();
        let mut child_ns = vec![0u64; recs.len()];
        for r in recs.iter() {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, r) in recs.iter().enumerate() {
            let own = (r.end_ns - r.start_ns).saturating_sub(child_ns[i]);
            *out.entry(r.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The share (in percent) of the root span named `root` that none of
    /// its direct children cover: time spent between layer calls.
    pub fn unattributed_pct(&self, root: &str) -> f64 {
        let recs = self.recs.borrow();
        let Some(ri) = recs
            .iter()
            .position(|r| r.name == root && r.parent.is_none())
        else {
            return 100.0;
        };
        let total = recs[ri].end_ns - recs[ri].start_ns;
        let covered: u64 = recs
            .iter()
            .filter(|r| r.parent == Some(ri))
            .map(|r| r.end_ns - r.start_ns)
            .sum();
        if total == 0 {
            return 0.0;
        }
        total.saturating_sub(covered) as f64 * 100.0 / total as f64
    }

    /// The spans as a JSON document: one object per span with its name,
    /// start and end (ns since the repetition began) and parent index.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"format\": \"perfbench-spans-v1\", \"spans\": [");
        for (i, r) in self.recs.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                r.name, r.start_ns, r.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
