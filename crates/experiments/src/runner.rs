//! The one run pipeline. [`run`] is the only place a [`Scenario`] becomes
//! a running [`World`]: it builds the world, installs the trace sink and
//! the adversary, sizes the engine, starts the world and runs it to the
//! scenario's horizon. Every other entry point is a caller of it —
//! [`run_once`] for a summary, [`replay_once`] for a verified replay,
//! [`run_batch_observed`] across seeds on the shared worker `pool` —
//! so a recorded or instrumented run is the plain run by construction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use lockss_core::{CoreObs, TraceSink, World, WorldConfig};
use lockss_metrics::{PhaseSummary, Summary};
use lockss_obs::{Profiler, SharedProfiler, Span};
use lockss_sim::{Engine, EngineObs, SimTime};
use lockss_trace::{ReplayReport, Trace, TraceError, Verifier};

use crate::obs::ObsSession;
use crate::scenario::Scenario;

/// An engine pre-sized for the scenario's population: a 10k+-peer world
/// schedules (peers × AUs) first-poll events plus per-peer damage timers
/// before the first event runs, and the in-flight message population
/// scales the same way. Sizing up front replaces the doubling cascade on
/// the heap and the event arena with one allocation each.
fn engine_for(cfg: &WorldConfig) -> Engine<World> {
    let outstanding = cfg.n_peers * (cfg.n_aus + 1) * 4;
    Engine::with_capacity(outstanding.clamp(1024, 1 << 22))
}

/// Locks a mutex, recovering from poisoning: if a worker panicked while
/// holding the lock, the state it protects is still valid (a record or a
/// merge completed or didn't), so the surviving workers keep draining
/// instead of cascading panics.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The measured result of one scenario (mean over seeds), with its matched
/// baseline for the ratio metrics.
#[derive(Clone, Debug)]
pub struct MeasuredPoint {
    pub label: String,
    pub attacked: Summary,
    pub baseline: Summary,
}

impl MeasuredPoint {
    /// Access failure probability under attack.
    pub fn access_failure(&self) -> f64 {
        self.attacked.access_failure_probability
    }

    /// Delay ratio vs the matched baseline (§6.1).
    pub fn delay_ratio(&self) -> Option<f64> {
        self.attacked.delay_ratio(&self.baseline)
    }

    /// Coefficient of friction vs the matched baseline (§6.1).
    pub fn friction(&self) -> Option<f64> {
        self.attacked.coefficient_of_friction(&self.baseline)
    }

    /// Cost ratio (§6.1); meaningful only for effortful attacks.
    pub fn cost_ratio(&self) -> Option<f64> {
        self.attacked.cost_ratio()
    }
}

/// Out-of-band instruments for one run: metric handles cloned into the
/// world/engine and an optional profiler for span timing. `Default` is
/// fully off — the run pays one `Option` check per instrumented site.
///
/// Instruments never perturb a run: counters and spans read protocol
/// state, they never feed it, so summaries, traces, and reports are
/// byte-identical with instruments on or off (enforced by
/// `tests/observability.rs`).
#[derive(Clone, Default)]
pub struct Instruments {
    /// Protocol-layer counters (poll lifecycle, admission, repairs).
    pub core: Option<CoreObs>,
    /// Engine counters (events, arena occupancy).
    pub engine: Option<EngineObs>,
    /// Wall-clock span profiler.
    pub profiler: Option<SharedProfiler>,
}

/// A world run to its horizon by [`run`], with the engine that drove it.
pub struct Run {
    /// The finished world: metrics, peer table, effort ledgers.
    pub world: World,
    /// The engine, holding its event counts and arena occupancy.
    pub engine: Engine<World>,
    /// The horizon the run stopped at.
    pub end: SimTime,
}

impl Run {
    /// The run's metric summary.
    pub fn summary(&self) -> Summary {
        self.world.metrics.summarize(self.end)
    }

    /// The per-phase breakdown: empty unless the attack is a phased
    /// composite, which records a mark as each member starts.
    pub fn phases(&self) -> Vec<PhaseSummary> {
        self.world.metrics.phase_summaries(self.end)
    }
}

/// Runs one seed of a scenario to its horizon: the only Scenario → World
/// assembly point.
///
/// `sink` receives the event stream (a `Recorder` clone to record, a
/// `Verifier` clone to replay; `finish` the original afterwards). It is
/// installed before the adversary, so adversary set-up is captured too.
/// `ins` wires metric handles into the world and engine and profiles
/// `world-build` and `simulate` spans. Neither ever perturbs the run:
/// emission and instruments read protocol state, they never feed it.
pub fn run(
    scenario: &Scenario,
    seed: u64,
    sink: Option<Box<dyn TraceSink>>,
    ins: &Instruments,
) -> Run {
    let mut cfg = scenario.cfg.clone();
    cfg.seed = seed;
    let mut world = {
        let _span = Span::enter(&ins.profiler, "world-build");
        let mut world = World::new(cfg);
        if let Some(sink) = sink {
            world.set_trace_sink(sink);
        }
        if let Some(adv) = scenario.attack.build() {
            world.install_adversary(adv);
        }
        world
    };
    if let Some(core) = &ins.core {
        world.set_obs(core.clone());
    }
    if let Some(prof) = &ins.profiler {
        world.set_profiler(prof.clone());
    }
    let mut engine = engine_for(&scenario.cfg);
    if let Some(obs) = &ins.engine {
        engine.set_obs(obs.clone());
    }
    let end = SimTime::ZERO + scenario.run_length;
    {
        let _span = Span::enter(&ins.profiler, "simulate");
        world.start(&mut engine);
        engine.run_until(&mut world, end);
    }
    Run { world, engine, end }
}

/// Runs one seed of a scenario to completion and returns its summary.
pub fn run_once(scenario: &Scenario, seed: u64) -> Summary {
    run(scenario, seed, None, &Instruments::default()).summary()
}

/// Replays a scenario at `seed` against a recorded trace, verifying
/// event-for-event equivalence; the run aborts at the first divergence.
///
/// The scenario and seed are the caller's to choose: pass the recorded
/// ones for a faithfulness check (zero divergence expected), or perturb
/// either to locate exactly where two executions fork.
pub fn replay_once(
    scenario: &Scenario,
    seed: u64,
    trace: &Trace,
) -> Result<ReplayReport, TraceError> {
    let verifier = Verifier::new(trace);
    let meta = trace.meta()?;
    let _finished = run(
        scenario,
        seed,
        Some(Box::new(verifier.clone())),
        &Instruments::default(),
    );
    verifier.finish(meta)
}

/// The process's peak resident set size in kilobytes, read from
/// `/proc/self/status` (`VmHWM`). `None` on platforms without procfs.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs a batch of scenarios × seeds `1..=seeds` on the worker `pool`;
/// returns one mean summary per scenario, in input order.
///
/// Results are slotted by seed, not completion order, so the mean (a
/// float reduction, hence order-sensitive) is byte-identical no matter
/// how many threads raced — `threads = 1` and `threads = 4` agree
/// exactly. With `session`, workers share its metric handles; with
/// `profiler`, each worker's span tree is merged into it.
pub fn run_batch_observed(
    jobs: &[Scenario],
    seeds: u64,
    threads: usize,
    session: Option<&ObsSession>,
    profiler: Option<&Mutex<Profiler>>,
) -> Vec<Summary> {
    let per_job = seeds as usize;
    let runs = pool(
        jobs.len() * per_job,
        threads,
        session,
        profiler,
        |i, ins| run(&jobs[i / per_job], (i % per_job) as u64 + 1, None, ins).summary(),
    );
    (0..jobs.len())
        .map(|j| Summary::mean_of(&runs[j * per_job..(j + 1) * per_job]))
        .collect()
}

/// How many workers [`pool`] starts for `n` items: at least one, never
/// more than there are items.
pub(crate) fn pool_width(n: usize, threads: usize) -> usize {
    threads.max(1).min(n.max(1))
}

/// The one worker pool behind batches, sweeps and the recovery study:
/// [`pool_width`] scoped workers claim indices `0..n` off one atomic
/// cursor and call `job(i, instruments)`; the results come back in index
/// order, whatever the thread count or completion order.
///
/// With `session`, each worker's instruments share its metric handles.
/// With `profiler`, each worker profiles into its own tree (profilers are
/// single-threaded `Rc`s) under a `worker-chunk` root, merged into
/// `profiler` as the worker exits.
pub(crate) fn pool<T: Send>(
    n: usize,
    threads: usize,
    session: Option<&ObsSession>,
    profiler: Option<&Mutex<Profiler>>,
    job: impl Fn(usize, &Instruments) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..pool_width(n, threads))
            .map(|_| {
                scope.spawn(|| {
                    let wprof = profiler.map(|_| Profiler::shared());
                    let ins = session
                        .map(|s| s.instruments(wprof.clone()))
                        .unwrap_or_default();
                    let chunk = Span::enter(&wprof, "worker-chunk");
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, job(i, &ins)));
                    }
                    drop(chunk);
                    if let (Some(wp), Some(merged)) = (wprof, profiler) {
                        lock(merged).absorb(&wp.borrow());
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    // The cursor hands out each index exactly once.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Default worker-thread count: the machine's parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;
    use crate::scale::Scale;
    use lockss_sim::Duration;
    use lockss_trace::{Recorder, TraceMeta};

    fn tiny() -> Scenario {
        let mut s = Scenario::baseline(Scale::Quick, 2);
        s.run_length = Duration::from_days(120);
        s
    }

    /// A phased composite from the registry, shrunk so a debug build runs
    /// it quickly; its second member starts on day 90.
    fn tiny_composite() -> Scenario {
        let mut s = ScenarioRegistry::standard()
            .build("stoppage-then-flood", Scale::Quick)
            .expect("registered")
            .with_aus(2);
        s.cfg.n_peers = 30;
        s.run_length = Duration::from_days(180);
        s
    }

    fn meta(s: &Scenario, seed: u64) -> TraceMeta {
        TraceMeta {
            scenario: "tiny".into(),
            scale: "quick".into(),
            seed,
            run_length_ms: s.run_length.as_millis(),
        }
    }

    /// Runs `s` at `seed` with a recorder installed; returns the summary
    /// and the sealed trace.
    fn recorded(s: &Scenario, seed: u64) -> (Summary, Trace) {
        let recorder = Recorder::new(&meta(s, seed));
        let summary = run(
            s,
            seed,
            Some(Box::new(recorder.clone())),
            &Instruments::default(),
        )
        .summary();
        (summary, recorder.finish())
    }

    #[test]
    fn run_once_is_deterministic() {
        let s = tiny();
        let a = run_once(&s, 7);
        let b = run_once(&s, 7);
        assert_eq!(a.successful_polls, b.successful_polls);
        assert!((a.loyal_effort_secs - b.loyal_effort_secs).abs() < 1e-9);
    }

    /// {no sink, recorder} × {instruments off, on}: all four runs agree on
    /// the summary and the phase breakdown, and every recorded trace
    /// replays with zero divergence.
    #[test]
    fn recording_does_not_perturb_the_run() {
        for (name, s) in [("tiny", tiny()), ("composite", tiny_composite())] {
            let session = ObsSession::new();
            let reference = run(&s, 5, None, &Instruments::default());
            let (summary, phases) = (reference.summary(), reference.phases());
            drop(reference);
            if name == "composite" {
                assert_eq!(phases.len(), 2, "both members started");
            }
            for record in [false, true] {
                for observe in [false, true] {
                    let ins = if observe {
                        session.instruments(Some(Profiler::shared()))
                    } else {
                        Instruments::default()
                    };
                    let recorder = record.then(|| Recorder::new(&meta(&s, 5)));
                    let sink = recorder.clone().map(|r| Box::new(r) as Box<dyn TraceSink>);
                    let done = run(&s, 5, sink, &ins);
                    let case = format!("{name}: record={record} observe={observe}");
                    assert_eq!(done.summary(), summary, "{case}");
                    assert_eq!(done.phases(), phases, "{case}");
                    drop(done);
                    if let Some(recorder) = recorder {
                        let trace = recorder.finish();
                        assert!(trace.decode_all().unwrap().len() > 100, "{case}");
                        let report = replay_once(&s, 5, &trace).unwrap();
                        assert!(report.is_equivalent(), "{case}: {report}");
                    }
                }
            }
            assert!(
                session.core.polls_started.get() > 0,
                "instruments saw the runs"
            );
        }
    }

    #[test]
    fn faithful_replay_is_equivalent() {
        let s = tiny();
        let (_, trace) = recorded(&s, 5);
        let report = replay_once(&s, 5, &trace).unwrap();
        assert!(report.is_equivalent(), "{report}");
        assert!(report.events_matched > 100);
    }

    #[test]
    fn perturbed_replay_reports_the_first_divergence() {
        let s = tiny();
        let (_, trace) = recorded(&s, 5);
        let report = replay_once(&s, 6, &trace).unwrap();
        assert!(!report.is_equivalent(), "different seed must fork");
        let d = report.divergence.clone().expect("divergence");
        assert!(d.expected.is_some() || d.actual.is_some());
        // The report names the time and kind of the fork.
        let text = report.to_string();
        assert!(text.contains("day"), "{text}");
    }

    #[test]
    fn batch_matches_sequential() {
        let s = tiny();
        let seq = Summary::mean_of(&[run_once(&s, 1), run_once(&s, 2)]);
        let batch = run_batch_observed(std::slice::from_ref(&s), 2, 4, None, None);
        assert_eq!(batch, vec![seq], "slotted by seed, reduced in seed order");
    }

    #[test]
    fn pool_results_are_slotted_by_index() {
        for threads in [1, 3, 16] {
            let out = pool(50, threads, None, None, |i, _| i * i);
            assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(pool(0, 4, None, None, |i, _| i).is_empty());
    }
}
