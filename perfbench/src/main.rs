//! One repetition of one benchmark workload, run through the library's
//! public API, printed as a single JSON line.
//!
//! ```text
//! perfbench --workload scale10k|attack-sweep|record-analyze --seed N
//!           [--traced] [--expected perfbench/expected.json] [--work-dir DIR]
//! ```
//!
//! `perfbench/run.py` starts one fresh process per repetition (so each
//! `VmHWM` reading belongs to that repetition alone), takes medians, and
//! prints the benchmark's result line. Without `--traced` the process
//! times the workload as a user would run it. With `--traced` it records
//! the benchmark's own spans around every layer call, slices
//! `Engine::run_until` into one-day steps, and adds the per-layer
//! measurements; the spans are written to the work directory.

mod checks;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use lockss_sim::json;

use crate::checks::Checks;
use crate::spans::Spans;

/// The seed whose outputs are stored in `expected.json`.
pub const DEFAULT_SEED: u64 = 1;

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Registry load + world build + adversary install + engine sizing +
    /// `World::start`, summed over the worlds the workload builds (the
    /// median of several set-up trials made after the workload).
    pub setup_s: f64,
    /// Host seconds spent simulating (the denominator of
    /// `replica_days_per_s`).
    pub sim_s: f64,
    /// Loyal peers x AUs x simulated days, summed over runs.
    pub replica_days: f64,
    /// Per-layer counts and derived values (times come from the spans).
    pub layers: BTreeMap<&'static str, f64>,
    /// Host milliseconds per simulated day (traced runs only).
    pub day_ms: Vec<f64>,
    /// The recorded run, for the traced run's extra measurements.
    pub recorded: Option<workloads::Recorded>,
}

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    expected: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        traced: false,
        expected: PathBuf::from("perfbench/expected.json"),
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--traced" => args.traced = true,
            "--expected" => args.expected = PathBuf::from(value()?),
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Span name -> per-layer metric holding that span's self time.
const SPAN_METRICS: [(&str, &str); 12] = [
    ("experiments.registry.load", "experiments.registry.load_s"),
    ("core.world.build", "core.world.build_s"),
    ("sim.engine.alloc", "sim.engine.alloc_s"),
    ("core.world.start", "core.world.start_s"),
    ("sim.engine.run", "sim.engine.busy_s"),
    ("metrics.summarize", "metrics.summarize_s"),
    ("experiments.sweep", "experiments.sweep.busy_s"),
    ("trace.seal", "trace.seal_s"),
    ("trace.write", "trace.write_s"),
    ("trace.read", "trace.read_s"),
    ("trace.stats", "trace.stats_s"),
    ("bench.check", "bench.check_s"),
];

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let expected = if args.seed == DEFAULT_SEED {
        Some(checks::load_expected(&args.expected, &args.workload))
    } else {
        None
    };
    let spans = Spans::new(args.traced);
    let mut checks = Checks::new(expected);
    let t = Instant::now();
    let mut rep = spans.time("workload", || {
        workloads::run(
            &args.workload,
            args.seed,
            &spans,
            &mut checks,
            &args.work_dir,
        )
    });
    let wall_s = t.elapsed().as_secs_f64();
    let peak_rss_kb = lockss_experiments::runner::peak_rss_kb().unwrap_or(0);
    rep.setup_s = workloads::setup_median(&args.workload, args.seed);

    if args.traced {
        if let Some(recorded) = rep.recorded.take() {
            workloads::traced_extras(&recorded, &mut rep, &mut checks);
        }
        let unattributed = spans.unattributed_pct("workload");
        checks.check_all(
            "span_coverage",
            unattributed <= workloads::UNATTRIBUTED_BOUND_PCT,
            || {
                format!(
                    "layer spans leave {unattributed:.2}% of the workload unattributed (bound {}%)",
                    workloads::UNATTRIBUTED_BOUND_PCT
                )
            },
        );
        rep.layers.insert("bench.unattributed_pct", unattributed);
        let selfs = spans.self_seconds();
        for (span, metric) in SPAN_METRICS {
            rep.layers
                .insert(metric, selfs.get(span).copied().unwrap_or(0.0));
        }
        rep.layers
            .insert("sim.engine.day_ms_p50", percentile(&rep.day_ms, 50.0));
        rep.layers
            .insert("sim.engine.day_ms_p95", percentile(&rep.day_ms, 95.0));
        rep.layers
            .insert("sim.engine.day_samples", rep.day_ms.len() as f64);
        let path = args.work_dir.join(format!(
            "spans-{}-s{}-{}.json",
            args.workload,
            args.seed,
            std::process::id()
        ));
        if let Err(e) = std::fs::write(&path, spans.to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"wall_s\": {}, \"setup_s\": {}, \
         \"sim_s\": {}, \"replica_days\": {}, \"peak_rss_kb\": {peak_rss_kb}, ",
        args.workload,
        args.seed,
        args.traced,
        num(wall_s),
        num(rep.setup_s),
        num(rep.sim_s),
        num(rep.replica_days),
    );
    out.push_str(&checks.to_json_fields());
    out.push_str(", \"layers\": {");
    for (i, (k, v)) in rep.layers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", json::escape(k), num(*v));
    }
    out.push_str("}}");
    println!("{out}");
}
