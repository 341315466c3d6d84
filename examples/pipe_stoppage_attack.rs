//! Pipe stoppage (§7.2): a network-level DoS adversary silences most of
//! the population for months — and the system shrugs it off once the pipes
//! reopen.
//!
//! Runs a baseline and an attacked world side by side and prints the §6.1
//! metrics the paper's Figures 3–5 report.
//!
//! ```sh
//! cargo run --release --example pipe_stoppage_attack
//! ```

use lockss::experiments::{AttackSpec, Instruments, Scale, Scenario, ScenarioRegistry};
use lockss::metrics::Summary;

/// The registered `pipe-stoppage` scenario, shrunk to demo size.
fn scenario() -> Scenario {
    let mut s = ScenarioRegistry::standard()
        .build("pipe-stoppage", Scale::Default)
        .expect("'pipe-stoppage' is registered");
    s.cfg.n_peers = 60;
    s.cfg.n_aus = 8;
    s
}

/// Runs seed 1; returns the summary and the replicas damaged at the end.
fn run(s: &Scenario) -> (Summary, usize) {
    let done = lockss::experiments::run(s, 1, None, &Instruments::default());
    (done.summary(), done.world.peers.total_damaged())
}

fn main() {
    println!("Pipe-stoppage attack demo (paper §7.2)");
    println!("60 peers x 8 AUs, two simulated years, 3-month polls.\n");

    let (baseline, _) = run(&scenario().with_attack(AttackSpec::None));
    println!("baseline:");
    print_summary(&baseline, &baseline);

    for (coverage, days) in [(0.4, 30), (1.0, 30), (1.0, 120)] {
        let attacked_scenario = scenario().with_attack(AttackSpec::PipeStoppage { coverage, days });
        let (attacked, damaged_now) = run(&attacked_scenario);
        println!(
            "\npipe stoppage, {:.0}% coverage, {days}-day attacks, 30-day recuperation:",
            coverage * 100.0
        );
        print_summary(&attacked, &baseline);
        println!("  replicas damaged at run end:   {damaged_now}");
    }

    println!(
        "\nThe paper's point (§7.2): even total communication blackouts must be\n\
         wide AND long to matter — untargeted peers keep auditing, and targeted\n\
         peers recover during recuperation windows by repairing from them."
    );
}

fn print_summary(s: &Summary, baseline: &Summary) {
    println!(
        "  access failure probability:    {:.2e}",
        s.access_failure_probability
    );
    println!(
        "  poll outcomes:                 {} ok / {} failed",
        s.successful_polls, s.failed_polls
    );
    if let Some(d) = s.delay_ratio(baseline) {
        println!("  delay ratio vs baseline:       {d:.2}");
    }
    if let Some(f) = s.coefficient_of_friction(baseline) {
        println!("  coefficient of friction:       {f:.2}");
    }
}
