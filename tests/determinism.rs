//! Determinism regression tests: a run is a pure function of its
//! configuration and seed, and the worker pool's parallelism must not leak
//! into the results (floating-point reductions are order-sensitive, so
//! the runner slots results by seed, not by completion order).
//!
//! `Summary` derives `PartialEq`, which compares every field — including
//! the `f64` effort accumulators — exactly, so these assertions demand
//! byte-identical results, not epsilon closeness.

use lockss::core::{World, WorldConfig};
use lockss::experiments::runner::{run, run_batch_observed, run_once, Instruments};
use lockss::experiments::scenario::{AttackSpec, Scenario};
use lockss::experiments::sweep::{load_checkpoint, run_sweep_observed};
use lockss::experiments::{Scale, ScenarioRegistry};
use lockss::sim::{Duration, Engine, SimTime};
use lockss::trace::{Recorder, TraceMeta};

fn quick(attack: AttackSpec) -> Scenario {
    let mut s = Scenario::attacked(Scale::Quick, 2, attack);
    s.run_length = Duration::from_days(120);
    s
}

#[test]
fn world_summary_identical_across_two_runs() {
    let run = || {
        let cfg = WorldConfig {
            n_peers: 25,
            n_aus: 2,
            seed: 42,
            ..WorldConfig::default()
        };
        let mut world = World::new(cfg);
        let mut eng: Engine<World> = Engine::new();
        world.start(&mut eng);
        let end = SimTime::ZERO + Duration::from_days(120);
        eng.run_until(&mut world, end);
        world.metrics.summarize(end)
    };
    assert_eq!(run(), run());
}

#[test]
fn run_once_identical_across_two_runs() {
    let s = quick(AttackSpec::None);
    assert_eq!(run_once(&s, 7), run_once(&s, 7));
    let s = quick(AttackSpec::PipeStoppage {
        coverage: 1.0,
        days: 30,
    });
    assert_eq!(run_once(&s, 7), run_once(&s, 7));
}

/// Every registered scenario, shrunk to a smoke-test world: 30 peers,
/// 2 AUs, 150 simulated days (enough to cover every composite's latest
/// phase offset, 120 days).
fn shrunken_registry_jobs() -> Vec<(String, Scenario)> {
    ScenarioRegistry::standard()
        .entries()
        .iter()
        .map(|e| {
            let mut s = e.build(Scale::Quick);
            s.cfg.n_peers = 30;
            s.cfg.n_aus = 2;
            s.run_length = Duration::from_days(150);
            (e.name().to_string(), s)
        })
        .collect()
}

#[test]
fn every_registered_scenario_runs_and_reproduces() {
    for (name, s) in shrunken_registry_jobs() {
        let a = run_once(&s, 7);
        let b = run_once(&s, 7);
        assert_eq!(a, b, "scenario '{name}' is not byte-reproducible");
        assert!(
            a.successful_polls + a.failed_polls > 0,
            "scenario '{name}' concluded no polls at all"
        );
    }
}

#[test]
fn every_registered_scenario_is_thread_count_invariant() {
    let jobs: Vec<Scenario> = shrunken_registry_jobs()
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let single = run_batch_observed(&jobs, 2, 1, None, None);
    let parallel = run_batch_observed(&jobs, 2, 4, None, None);
    for (i, (name, _)) in shrunken_registry_jobs().iter().enumerate() {
        assert_eq!(
            single[i], parallel[i],
            "scenario '{name}' varies with the thread count"
        );
    }
}

/// Records one shrunken scenario and returns the trace's content hash.
fn record_hash(name: &str, scenario: &Scenario, seed: u64) -> String {
    let recorder = Recorder::new(&TraceMeta {
        scenario: name.to_string(),
        scale: "quick".to_string(),
        seed,
        run_length_ms: scenario.run_length.as_millis(),
    });
    let sink = Box::new(recorder.clone());
    run(scenario, seed, Some(sink), &Instruments::default());
    recorder.finish().content_hash()
}

/// Golden-trace regression: for pinned `(scenario, seed)` pairs the trace
/// content hash must be byte-stable across repeated recordings. Any change
/// here means the causal event stream moved — either a deliberate protocol
/// change (fine: the hash follows it deterministically) or a determinism
/// leak (the bug this test exists to catch).
#[test]
fn golden_trace_hashes_are_stable_across_runs() {
    let pinned = ["baseline", "pipe-stoppage", "stoppage-then-flood"];
    for (name, s) in shrunken_registry_jobs() {
        if !pinned.contains(&name.as_str()) {
            continue;
        }
        for seed in [7u64, 11] {
            let a = record_hash(&name, &s, seed);
            let b = record_hash(&name, &s, seed);
            assert_eq!(a, b, "trace hash of '{name}' seed {seed} not reproducible");
        }
    }
}

/// The same pinned traces recorded on concurrently running threads must
/// hash identically: nothing about recording may depend on scheduling.
#[test]
fn golden_trace_hashes_are_thread_invariant() {
    let (name, s) = shrunken_registry_jobs()
        .into_iter()
        .find(|(n, _)| *n == "stoppage-then-flood")
        .expect("registered");
    let sequential = record_hash(&name, &s, 7);
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                let name = &name;
                scope.spawn(move || record_hash(name, &s, 7))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for hash in concurrent {
        assert_eq!(
            hash, sequential,
            "'{name}' trace hash varies across threads"
        );
    }
}

/// The registered production-scale world, shrunk for debug-mode test
/// speed: same builder, same link mix and lazy construction path, smaller
/// population and horizon. (The full 10k-peer sweep byte-identity runs in
/// release mode in CI: `sweep scale-10k-baseline --seeds 1..8` with
/// `--threads 1` vs `--threads 8`, `cmp`-ed.)
fn shrunken_scale_scenario() -> Scenario {
    let mut s = ScenarioRegistry::standard()
        .build("scale-10k-baseline", Scale::Quick)
        .expect("registered");
    s.cfg.n_peers = 300;
    s.run_length = Duration::from_days(150);
    s
}

/// The sweep orchestrator's merged report must be byte-identical no
/// matter how many worker threads raced over the seeds: results land in
/// seed-indexed slots and the merge reduces in seed order.
#[test]
fn sweep_report_is_thread_count_invariant() {
    let s = shrunken_scale_scenario();
    let seeds = [1, 2, 3, 4];
    let one = run_sweep_observed(
        &s,
        "scale-10k-baseline",
        "quick",
        &seeds,
        1,
        None,
        None,
        None,
        None,
    );
    let eight = run_sweep_observed(
        &s,
        "scale-10k-baseline",
        "quick",
        &seeds,
        8,
        None,
        None,
        None,
        None,
    );
    assert_eq!(
        one.to_json(),
        eight.to_json(),
        "merged sweep report must not depend on the thread count"
    );
    assert!(one.is_complete());
    assert!(one.merged().expect("merged").successful_polls > 0);
}

/// A sweep interrupted after some seeds and resumed from its checkpoint
/// file must produce a final report byte-identical to an uninterrupted
/// run: summaries round-trip through the checkpoint exactly (float bits
/// included), and resumed seeds are reused verbatim.
#[test]
fn sweep_checkpoint_resume_equals_uninterrupted() {
    let s = shrunken_scale_scenario();
    let seeds = [1, 2, 3];
    let dir = std::env::temp_dir().join(format!("lockss-determinism-{}", std::process::id()));
    let uninterrupted = dir.join("uninterrupted.json");
    let interrupted = dir.join("interrupted.json");

    let full = run_sweep_observed(
        &s,
        "scale-10k-baseline",
        "quick",
        &seeds,
        2,
        Some(&uninterrupted),
        None,
        None,
        None,
    );

    // "Crash" after two seeds: the partial checkpoint is what survives.
    let _ = run_sweep_observed(
        &s,
        "scale-10k-baseline",
        "quick",
        &seeds[..2],
        2,
        Some(&interrupted),
        None,
        None,
        None,
    );
    let prior = load_checkpoint(&interrupted, "scale-10k-baseline", "quick", None)
        .expect("checkpoint loads");
    assert_eq!(prior.completed.len(), 2);
    let resumed = run_sweep_observed(
        &s,
        "scale-10k-baseline",
        "quick",
        &seeds,
        2,
        Some(&interrupted),
        Some(prior),
        None,
        None,
    );

    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "resume must reproduce the uninterrupted report byte for byte"
    );
    let on_disk = std::fs::read_to_string(&interrupted).expect("final checkpoint");
    assert_eq!(on_disk, full.to_json(), "final file matches too");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_batch_is_thread_count_invariant() {
    let jobs = [
        quick(AttackSpec::None),
        quick(AttackSpec::AdmissionFlood {
            coverage: 1.0,
            days: 120,
        }),
    ];
    let single = run_batch_observed(&jobs, 3, 1, None, None);
    let parallel = run_batch_observed(&jobs, 3, 4, None, None);
    assert_eq!(single, parallel);
    // And the batch path agrees with the sequential per-seed path.
    let repeat = run_batch_observed(&jobs, 3, 4, None, None);
    assert_eq!(parallel, repeat);
}
