//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§7) and runs the scenario registry beyond it.
//!
//! Every runnable world is a named entry in the [`ScenarioRegistry`] —
//! baselines, each figure point's representative scenario, the
//! dynamic-environment attacks, and composite campaigns built from the
//! composable [`AttackSpec`]. The `lockss-sim` binary lists, describes,
//! and runs them (`list` / `describe <name>` / `run <name> --json`),
//! writing per-scenario JSON summaries under `results/`.
//!
//! Each figure binary (`fig2` … `fig8`, `table1`) derives its sweep grid
//! from the registered baseline, installs the relevant adversary, runs
//! several seeds in parallel, and prints the same rows/series the paper
//! reports, plus a CSV copy under `results/`.
//!
//! Scale is controlled by `LOCKSS_SCALE` (or a `--scale` argument):
//! `quick` for CI smoke runs, `default` for laptop-scale shape
//! reproduction, `paper` for the full §6.3 parameters. The reproduction
//! criterion is *shape* (orderings, approximate factors, crossovers), not
//! the absolute numbers of the authors' 2004 testbed — see EXPERIMENTS.md.

pub mod cache;
pub mod fuzz;
pub mod layering;
pub mod obs;
pub mod recovery;
pub mod registry;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod spec;
pub mod sweep;
pub mod sweeps;

pub use obs::{heartbeat_path, ObsSession, SweepObs, Telemetry};
pub use recovery::{run_recovery_study, RecoveryReport, RecoveryStudy};
pub use registry::{ScenarioEntry, ScenarioRegistry};
pub use runner::{run, run_once, Instruments, MeasuredPoint, Run};
pub use scale::Scale;
pub use scenario::{phased, AttackSpec, PhasedAttack, Scenario};
pub use spec::{ScenarioSpec, SpecError, WorldSpec};
pub use sweep::{
    dispatch, jobfile, merge_files, run_sweep_observed, run_sweep_plan, DispatchPlan, ShardTag,
    SweepReport,
};

use std::io::Write as _;
use std::path::Path;

/// Writes a rendered table and its CSV twin under `results/`.
pub fn save_results(name: &str, rendered: &str, csv: &str) {
    let dir = Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let write = |path: &Path, content: &str| {
        if let Ok(mut f) = std::fs::File::create(path) {
            let _ = f.write_all(content.as_bytes());
        }
    };
    write(&dir.join(format!("{name}.txt")), rendered);
    write(&dir.join(format!("{name}.csv")), csv);
}
