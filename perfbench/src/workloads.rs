//! The three workloads, each built from the scenario registry and run
//! through the library's public functions, with a span around every call
//! into a layer.

use std::path::Path;

use lockss_core::{AdmissionVerdict, CoreObs, TraceEventKind, TraceSink, World, WorldConfig};
use lockss_experiments::sweep::{run_sweep_observed, summary_to_json};
use lockss_experiments::{ObsSession, Scale, Scenario, ScenarioRegistry, SweepObs};
use lockss_metrics::Summary;
use lockss_obs::Profiler;
use lockss_sim::{json, Duration, Engine, SimTime};
use lockss_trace::{trace_stats_threaded, Recorder, Trace, TraceMeta, TraceStats};

use crate::checks::Checks;
use crate::spans::Spans;
use crate::Rep;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["scale10k", "attack-sweep", "record-analyze"];

/// The share of a traced workload's wall time its layer spans may leave
/// uncovered.
pub const UNATTRIBUTED_BOUND_PCT: f64 = 2.0;

/// The section 7 attrition family the attack sweep runs.
const ATTACKS: [&str; 6] = [
    "admission-flood",
    "vote-flood",
    "brute-force-intro",
    "pipe-stoppage",
    "mobile-takeover-heavy",
    "churn-storm",
];

/// Seeds per attack-sweep scenario: one per sweep worker.
const SWEEP_SEEDS: u64 = 2;

/// Set-up trials per repetition; `setup_s` is their median.
const SETUP_TRIALS: usize = 5;

/// The registered scenarios a workload builds, at which scale, and the
/// seeds it builds each at.
fn worlds(workload: &str, seed: u64) -> (&'static [&'static str], Scale, Vec<u64>) {
    match workload {
        "scale10k" => (&["scale-10k-baseline"], Scale::Quick, vec![seed]),
        "attack-sweep" => (
            &ATTACKS,
            Scale::Default,
            (seed..seed + SWEEP_SEEDS).collect(),
        ),
        _ => (&["vote-flood"], Scale::Default, vec![seed]),
    }
}

fn trace_meta(name: &str, scale: Scale, sc: &Scenario, seed: u64) -> TraceMeta {
    TraceMeta {
        scenario: name.to_string(),
        scale: scale.label().to_string(),
        seed,
        run_length_ms: sc.run_length.as_millis(),
    }
}

/// The workload's set-up on its own: registry load, then every world the
/// workload builds, built and started (with a recorder attached where
/// the workload records), repeated `SETUP_TRIALS` times. Returns the
/// median trial in seconds. The worlds are dropped unrun.
pub fn setup_median(workload: &str, seed: u64) -> f64 {
    let (names, scale, seeds) = worlds(workload, seed);
    let off = Spans::new(false);
    let obs = ObsSession::new();
    let mut trials: Vec<f64> = (0..SETUP_TRIALS)
        .map(|_| {
            let (scs, load_s) = load(&off, names, scale);
            let mut total = load_s;
            for (sc, name) in scs.iter().zip(names) {
                for &s in &seeds {
                    let sink: Option<Box<dyn TraceSink>> =
                        (workload == "record-analyze").then(|| {
                            Box::new(Recorder::new(&trace_meta(name, scale, sc, s)))
                                as Box<dyn TraceSink>
                        });
                    total += start_world(sc, s, &off, sink, &obs).setup_s;
                }
            }
            total
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[SETUP_TRIALS / 2]
}

/// Runs one repetition of `workload`.
pub fn run(workload: &str, seed: u64, spans: &Spans, checks: &mut Checks, work_dir: &Path) -> Rep {
    let rep = match workload {
        "scale10k" => scale10k(seed, spans, checks),
        "attack-sweep" => attack_sweep(seed, spans, checks),
        "record-analyze" => record_analyze(seed, spans, checks, work_dir),
        other => unreachable!("workload {other} was validated by parse_args"),
    };
    spans.time("bench.check", || checks.all_expected_produced());
    rep
}

/// Sizes the engine the way the library's runner does for the same
/// world, so the benchmark's worlds match the ones `run_once` builds.
fn engine_for(cfg: &WorldConfig) -> Engine<World> {
    let outstanding = cfg.n_peers * (cfg.n_aus + 1) * 4;
    Engine::with_capacity(outstanding.clamp(1024, 1 << 22))
}

fn replica_days(sc: &Scenario) -> f64 {
    (sc.cfg.n_peers * sc.cfg.n_aus) as f64 * sc.run_length.as_secs_f64() / 86_400.0
}

fn load(spans: &Spans, names: &[&str], scale: Scale) -> (Vec<Scenario>, f64) {
    spans.timed("experiments.registry.load", || {
        let reg = ScenarioRegistry::standard();
        names
            .iter()
            .map(|n| {
                reg.build(n, scale)
                    .unwrap_or_else(|| panic!("scenario {n} is not registered"))
            })
            .collect()
    })
}

/// A world with its engine, built and started; `setup_s` is the wall
/// time of the four setup calls.
struct Started {
    world: World,
    eng: Engine<World>,
    setup_s: f64,
}

fn start_world(
    sc: &Scenario,
    seed: u64,
    spans: &Spans,
    sink: Option<Box<dyn TraceSink>>,
    obs: &ObsSession,
) -> Started {
    let (mut world, build_s) = spans.timed("core.world.build", || {
        let mut cfg = sc.cfg.clone();
        cfg.seed = seed;
        let mut world = World::new(cfg);
        if let Some(sink) = sink {
            world.set_trace_sink(sink);
        }
        if let Some(adv) = sc.attack.build() {
            world.install_adversary(adv);
        }
        world
    });
    world.set_obs(obs.core.clone());
    let (mut eng, alloc_s) = spans.timed("sim.engine.alloc", || engine_for(&sc.cfg));
    eng.set_obs(obs.engine.clone());
    let ((), start_s) = spans.timed("core.world.start", || world.start(&mut eng));
    Started {
        world,
        eng,
        setup_s: build_s + alloc_s + start_s,
    }
}

/// Runs a started world to the scenario's horizon: one `run_until` call
/// untraced, one call per simulated day traced. Returns the summary and
/// the simulate seconds, and adds the day timings to `rep`.
fn simulate(sc: &Scenario, w: &mut Started, spans: &Spans, rep: &mut Rep) -> (Summary, f64) {
    let end = SimTime::ZERO + sc.run_length;
    let (day_ms, sim_s) = spans.timed("sim.engine.run", || {
        if !spans.on() {
            w.eng.run_until(&mut w.world, end);
            return Vec::new();
        }
        let days = sc
            .run_length
            .as_millis()
            .div_ceil(Duration::DAY.as_millis());
        (1..=days)
            .map(|d| {
                let until = (SimTime::ZERO + Duration::from_days(d)).min(end);
                let t = std::time::Instant::now();
                w.eng.run_until(&mut w.world, until);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    });
    rep.day_ms.extend(day_ms);
    let summary = spans.time("metrics.summarize", || w.world.metrics.summarize(end));
    (summary, sim_s)
}

/// Occupancy of a finished world and its engine at the horizon.
fn occupancy_layers(w: &Started, rep: &mut Rep) {
    let occ = w.world.peers.occupancy();
    let (_, arena_total) = w.eng.arena_occupancy();
    let l = &mut rep.layers;
    l.insert("core.reputation.entries", occ.known_entries as f64);
    l.insert("core.reflist.entries", occ.reflist_entries as f64);
    l.insert("core.poller.live_polls", occ.live_polls as f64);
    l.insert("core.voter.sessions", occ.voter_sessions as f64);
    l.insert("sim.engine.arena_high_water", arena_total as f64);
    l.insert("sim.engine.queued_at_horizon", w.eng.queued() as f64);
}

fn admissions(o: &CoreObs) -> [u64; 5] {
    [
        o.admission_admitted.get(),
        o.admission_introduced.get(),
        o.admission_random_drop.get(),
        o.admission_refractory.get(),
        o.admission_rate_limited.get(),
    ]
}

fn concluded(o: &CoreObs) -> u64 {
    o.polls_win.get() + o.polls_loss.get() + o.polls_inconclusive.get() + o.polls_inquorate.get()
}

/// Work counts read from the session's counter handles, the counter
/// invariants every run must keep, and the effort totals of `summaries`.
/// The session covers every world run so far, so a broken invariant
/// fails all of them.
fn counter_layers(
    obs: &ObsSession,
    summaries: &[Summary],
    sim_s: f64,
    rep: &mut Rep,
    checks: &mut Checks,
) {
    let o = &obs.core;
    let started = o.polls_started.get();
    let done = concluded(o);
    checks.check_all(
        "polls_concluded_le_started",
        done <= started && started > 0,
        || format!("{done} polls concluded of {started} started"),
    );
    let adm = admissions(o);
    let invitations: u64 = adm.iter().sum();
    checks.check_all(
        "poll_votes_count_is_concluded",
        o.poll_votes.count() == done,
        || {
            format!(
                "{} vote observations for {done} concluded polls",
                o.poll_votes.count()
            )
        },
    );
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let events = obs.engine.events_executed.get();
    let l = &mut rep.layers;
    l.insert("core.poller.polls_started", started as f64);
    l.insert("core.poller.polls_concluded", done as f64);
    l.insert("core.poller.win_ratio", ratio(o.polls_win.get(), started));
    l.insert("core.voter.votes", o.poll_votes.sum() as f64);
    l.insert("net.msgs_sent", o.msgs_sent.get() as f64);
    l.insert("net.msgs_suppressed", o.msgs_suppressed.get() as f64);
    l.insert("core.admission.invitations", invitations as f64);
    l.insert(
        "core.admission.admit_ratio",
        ratio(adm[0] + adm[1], invitations),
    );
    l.insert("core.admission.refused", (adm[2] + adm[3] + adm[4]) as f64);
    l.insert("storage.damage_events", o.damage_events.get() as f64);
    l.insert(
        "storage.repairs_requested",
        o.repairs_requested.get() as f64,
    );
    l.insert("storage.repairs_applied", o.repairs_applied.get() as f64);
    l.insert("adversary.actions", o.adversary_actions.get() as f64);
    l.insert("adversary.compromises", o.compromises.get() as f64);
    l.insert("sim.engine.events", events as f64);
    l.insert("sim.engine.events_per_s", events as f64 / sim_s);
    l.insert(
        "effort.loyal_cpu_s",
        summaries.iter().map(|s| s.loyal_effort_secs).sum(),
    );
    l.insert(
        "effort.adversary_cpu_s",
        summaries.iter().map(|s| s.adversary_effort_secs).sum(),
    );
}

/// `scale-10k-baseline` at quick scale: one 10,000-peer world, untraced,
/// on one thread.
fn scale10k(seed: u64, spans: &Spans, checks: &mut Checks) -> Rep {
    let mut rep = Rep::default();
    let (names, scale, _) = worlds("scale10k", seed);
    let (scs, _) = load(spans, names, scale);
    let sc = &scs[0];
    let op = format!("world/{}/s{seed}", names[0]);
    checks.op(&op);
    let obs = ObsSession::new();
    let mut w = start_world(sc, seed, spans, None, &obs);
    let (summary, sim_s) = simulate(sc, &mut w, spans, &mut rep);
    rep.sim_s = sim_s;
    rep.replica_days = replica_days(sc);
    spans.time("bench.check", || {
        checks.output(
            &op,
            format!("{}/s{seed}", names[0]),
            summary_to_json(&summary),
        );
        occupancy_layers(&w, &mut rep);
        counter_layers(&obs, &[summary], sim_s, &mut rep, checks);
    });
    rep
}

/// The attrition family at default scale, each scenario through
/// `run_sweep` on min(nproc, 2) workers, untraced.
fn attack_sweep(seed: u64, spans: &Spans, checks: &mut Checks) -> Rep {
    let mut rep = Rep::default();
    let (names, scale, seeds) = worlds("attack-sweep", seed);
    let (scs, _) = load(spans, names, scale);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let obs = ObsSession::new();

    let profiler = std::sync::Mutex::new(Profiler::new());
    let sweep_obs = SweepObs {
        session: &obs,
        profiler: spans.on().then_some(&profiler),
        telemetry: None,
    };
    let mut summaries = Vec::new();
    let mut checkpoint_bytes = 0usize;
    for (sc, name) in scs.iter().zip(names) {
        let (report, sweep_s) = spans.timed("experiments.sweep", || {
            run_sweep_observed(
                sc,
                name,
                scale.label(),
                &seeds,
                threads,
                None,
                None,
                Some(&sweep_obs),
                None,
            )
        });
        rep.sim_s += sweep_s;
        rep.replica_days += replica_days(sc) * seeds.len() as f64;
        spans.time("bench.check", || {
            checkpoint_bytes += report.to_json().len();
            for &s in &seeds {
                let op = format!("world/{name}/s{s}");
                checks.op(&op);
                let got = report.completed.iter().find(|(done, _)| *done == s);
                checks.check(&op, "sweep_seed_completed", got.is_some(), || {
                    format!("sweep report has no summary for seed {s}")
                });
                if let Some((_, summary)) = got {
                    checks.output(&op, format!("{name}/s{s}"), summary_to_json(summary));
                    summaries.push(summary.clone());
                }
            }
        });
    }
    spans.time("bench.check", || {
        counter_layers(&obs, &summaries, rep.sim_s, &mut rep, checks);
    });
    let l = &mut rep.layers;
    l.insert(
        "experiments.sweep.checkpoint_bytes",
        checkpoint_bytes as f64,
    );
    l.insert(
        "sim.engine.arena_high_water",
        obs.engine.arena_total.get() as f64,
    );
    if spans.on() {
        let profile = profiler
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .to_json("attack-sweep");
        let simulate_s = span_total_ns(&profile, "simulate") as f64 / 1e9;
        l.insert(
            "experiments.sweep.parallel_efficiency",
            simulate_s / (threads as f64 * rep.sim_s),
        );
    }
    rep
}

/// Sum of `total_ns` over every node named `name` in a
/// `lockss-profile-v1` document.
fn span_total_ns(profile: &str, name: &str) -> u64 {
    fn walk(v: &json::Value, name: &str) -> u64 {
        let Ok(obj) = v.as_object("span") else {
            return 0;
        };
        let own = match (json::get(obj, "name"), json::get(obj, "total_ns")) {
            (Ok(n), Ok(t)) if n.as_str("name") == Ok(name) => t.as_u64("total_ns").unwrap_or(0),
            _ => 0,
        };
        let kids = json::get(obj, "children")
            .and_then(|c| c.as_array("children"))
            .map_or(0, |c| c.iter().map(|k| walk(k, name)).sum());
        own + kids
    }
    let Ok(doc) = json::parse(profile) else {
        return 0;
    };
    doc.as_object("profile")
        .and_then(|o| json::get(o, "spans"))
        .and_then(|s| s.as_array("spans"))
        .map_or(0, |roots| roots.iter().map(|r| walk(r, name)).sum())
}

/// Trace event counts the protocol counters must reproduce exactly.
fn trace_matches_counters(stats: &TraceStats, o: &CoreObs) -> Result<(), String> {
    use TraceEventKind as K;
    let adm = admissions(o);
    let pairs = [
        (
            "poll-start",
            stats.count(K::PollStart),
            o.polls_started.get(),
        ),
        ("poll-outcome", stats.count(K::PollOutcome), concluded(o)),
        (
            "message-send",
            stats.count(K::MessageSend),
            o.msgs_sent.get() + o.msgs_suppressed.get(),
        ),
        (
            "suppressed-send",
            stats.suppressed_sends,
            o.msgs_suppressed.get(),
        ),
        ("admission", stats.count(K::Admission), adm.iter().sum()),
        (
            "admitted",
            stats.admission_count(AdmissionVerdict::Admitted),
            adm[0],
        ),
        (
            "admitted-introduced",
            stats.admission_count(AdmissionVerdict::AdmittedIntroduced),
            adm[1],
        ),
        (
            "random-drop",
            stats.admission_count(AdmissionVerdict::RandomDrop),
            adm[2],
        ),
        (
            "refractory",
            stats.admission_count(AdmissionVerdict::Refractory),
            adm[3],
        ),
        (
            "rate-limited",
            stats.admission_count(AdmissionVerdict::RateLimited),
            adm[4],
        ),
        ("damage", stats.count(K::Damage), o.damage_events.get()),
        ("repair", stats.count(K::Repair), o.repairs_applied.get()),
        (
            "adversary-action",
            stats.count(K::AdversaryAction),
            o.adversary_actions.get(),
        ),
        ("peer-join", stats.count(K::PeerJoin), o.peer_joins.get()),
        (
            "compromise",
            stats.count(K::Compromise),
            o.compromises.get(),
        ),
        ("cure", stats.count(K::Cure), o.cures.get()),
        (
            "poisoned-repair",
            stats.count(K::PoisonedRepair),
            o.poisoned_repairs.get(),
        ),
    ];
    let bad: Vec<String> = pairs
        .iter()
        .filter(|(_, t, c)| t != c)
        .map(|(k, t, c)| format!("{k}: trace {t}, counters {c}"))
        .collect();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// `vote-flood` at default scale, recorded, sealed, written, read back,
/// analyzed with `trace_stats_threaded` and verified with `replay_once`.
fn record_analyze(seed: u64, spans: &Spans, checks: &mut Checks, work_dir: &Path) -> Rep {
    let mut rep = Rep::default();
    let (names, scale, _) = worlds("record-analyze", seed);
    let (scs, _) = load(spans, names, scale);
    let (sc, name) = (&scs[0], names[0]);
    let meta = trace_meta(name, scale, sc, seed);
    let world_op = format!("world/{name}/s{seed}");
    checks.op(&world_op);
    let obs = ObsSession::new();
    let recorder = Recorder::new(&meta);
    let mut w = start_world(sc, seed, spans, Some(Box::new(recorder.clone())), &obs);
    let (summary, sim_s) = simulate(sc, &mut w, spans, &mut rep);
    let (trace, seal_s) = spans.timed("trace.seal", || recorder.finish());
    rep.sim_s = sim_s;
    rep.replica_days = replica_days(sc);
    spans.time("bench.check", || {
        checks.output(
            &world_op,
            format!("{name}/s{seed}"),
            summary_to_json(&summary),
        );
        checks.output(
            &world_op,
            format!("{name}/s{seed}/trace"),
            trace.content_hash(),
        );
        occupancy_layers(&w, &mut rep);
        counter_layers(
            &obs,
            std::slice::from_ref(&summary),
            sim_s,
            &mut rep,
            checks,
        );
    });
    drop(w);

    // The sealed trace goes to disk and only the file's copy is kept, as
    // `lockss-sim run --record`, `trace stats` and `replay` do as
    // separate processes; holding both copies would add a trace's size
    // to the peak RSS that no user sees.
    let (events, bytes, blocks, hash) = (
        trace.events(),
        trace.as_bytes().len(),
        trace.blocks().len(),
        trace.content_hash(),
    );
    let decode_op = format!("decode/{name}/s{seed}");
    checks.op(&decode_op);
    let replay_op = format!("replay/{name}/s{seed}");
    checks.op(&replay_op);
    let path = work_dir.join(format!(
        "record-analyze-s{seed}-{}.ltrc",
        std::process::id()
    ));
    let (written, _) = spans.timed("trace.write", || trace.write_to(&path));
    drop(trace);
    let (read, _) = spans.timed("trace.read", || Trace::read_from(&path));
    let _ = std::fs::remove_file(&path);
    let back = match (written, read) {
        (Ok(()), Ok(back)) => back,
        (Err(e), _) | (_, Err(e)) => {
            // Neither analysis nor replay has a trace to read.
            checks.check(&decode_op, "trace_readback_identical", false, || {
                e.to_string()
            });
            checks.check(&replay_op, "replay_zero_divergence", false, || {
                e.to_string()
            });
            return rep;
        }
    };
    // `read_from` verified the seal, so an equal hash and length mean
    // the file holds the sealed bytes.
    let same = back.content_hash() == hash && back.as_bytes().len() == bytes;
    checks.check(&decode_op, "trace_readback_identical", same, || {
        format!(
            "read back {} ({} bytes), sealed {hash} ({bytes} bytes)",
            back.content_hash(),
            back.as_bytes().len()
        )
    });

    // One thread: with more, glibc's per-thread arenas keep freed decode
    // buffers resident under the replay that follows, which made this
    // workload's peak RSS vary by about 10% between identical runs.
    let (stats, stats_s) = spans.timed("trace.stats", || trace_stats_threaded(&back, 1));
    spans.time("bench.check", || match &stats {
        Ok(st) => {
            checks.check(
                &decode_op,
                "stats_events_match",
                st.events == events,
                || format!("stats decoded {} of {events} events", st.events),
            );
            let agree = trace_matches_counters(st, &obs.core);
            checks.check(
                &decode_op,
                "counters_match_trace_stats",
                agree.is_ok(),
                || agree.unwrap_err(),
            );
        }
        Err(e) => checks.check(&decode_op, "stats_events_match", false, || e.to_string()),
    });

    let (replay, replay_s) = spans.timed("trace.replay", || {
        lockss_experiments::runner::replay_once(sc, seed, &back)
    });
    let (matched, diverged) = match &replay {
        Ok(r) => (r.events_matched, u64::from(!r.is_equivalent())),
        Err(_) => (0, 1),
    };
    spans.time("bench.check", || {
        checks.check(
            &replay_op,
            "replay_zero_divergence",
            diverged == 0 && matched == events,
            || match &replay {
                Ok(r) => r.to_string(),
                Err(e) => e.to_string(),
            },
        );
    });

    let l = &mut rep.layers;
    l.insert("record_s", sim_s + seal_s);
    l.insert("replay_s", replay_s);
    l.insert("trace_bytes_per_event", bytes as f64 / events as f64);
    l.insert(
        "analyze_events_per_s",
        stats.as_ref().map_or(0.0, |s| s.events as f64 / stats_s),
    );
    l.insert("trace.events", events as f64);
    l.insert("trace.blocks", blocks as f64);
    l.insert("trace.bytes", bytes as f64);
    l.insert("trace.replay.events_matched", matched as f64);
    l.insert("trace.replay.divergences", diverged as f64);

    rep.recorded = Some(Recorded {
        scenario: sc.clone(),
        seed,
        summary,
        sim_s,
        trace: back,
        op: world_op,
    });
    rep
}

/// What the record-analyze workload hands to [`traced_extras`].
pub struct Recorded {
    scenario: Scenario,
    seed: u64,
    summary: Summary,
    sim_s: f64,
    /// The trace as read back from its file.
    trace: Trace,
    op: String,
}

/// Measurements only the traced run makes, after the workload's root
/// span so they do not count toward its wall time: the same world
/// simulated without a recorder (recording overhead, and a check that
/// recording does not perturb the run), and SHA-256 over the sealed
/// trace bytes.
pub fn traced_extras(r: &Recorded, rep: &mut Rep, checks: &mut Checks) {
    // A recorder of its own keeps these spans out of the workload's.
    let side = Spans::new(true);
    let mut side_rep = Rep::default();
    let obs = ObsSession::new();
    let mut w = start_world(&r.scenario, r.seed, &side, None, &obs);
    let (plain, plain_s) = simulate(&r.scenario, &mut w, &side, &mut side_rep);
    checks.check(
        &r.op,
        "recording_does_not_perturb",
        plain == r.summary,
        || {
            format!(
                "plain {} vs recorded {}",
                summary_to_json(&plain),
                summary_to_json(&r.summary)
            )
        },
    );
    rep.layers.insert(
        "trace.record.overhead_pct",
        (r.sim_s / plain_s - 1.0) * 100.0,
    );
    let bytes = r.trace.as_bytes();
    let t = std::time::Instant::now();
    let digest = lockss_crypto::sha256(std::hint::black_box(bytes));
    let sha_s = t.elapsed().as_secs_f64();
    std::hint::black_box(digest);
    rep.layers.insert(
        "crypto.sha256_mib_per_s",
        bytes.len() as f64 / (1024.0 * 1024.0) / sha_s,
    );
}
