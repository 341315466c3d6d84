//! Where the CPU goes: per-purpose effort breakdown of a baseline run and
//! an attacked run, side by side.
//!
//! The §6.1 friction metric aggregates all loyal effort; this report
//! splits it by purpose (the `lockss-effort` ledger categories) so the
//! *mechanism* of each attack is visible — e.g. the admission flood shows
//! up almost entirely in `Consider`/`VerifyIntro`, brute force in
//! `ComputeVote`.

use lockss_effort::ledger::ALL_PURPOSES;
use lockss_effort::EffortLedger;
use lockss_experiments::scenario::Scenario;
use lockss_experiments::{run, save_results, Instruments, Scale, ScenarioRegistry};
use lockss_metrics::Table;

fn run_ledger(scenario: &Scenario, seed: u64) -> EffortLedger {
    let done = run(scenario, seed, None, &Instruments::default());
    let mut total = EffortLedger::new();
    for ledger in done.world.peers.ledgers() {
        total.merge(ledger);
    }
    total
}

fn main() {
    let scale = Scale::from_env_and_args();
    println!(
        "Per-purpose loyal effort breakdown at scale '{}'",
        scale.label()
    );
    let n_aus = scale.small_collection().min(8); // this report needs no statistics

    // The registry's representative scenario for each attack mechanism.
    let registry = ScenarioRegistry::standard();
    let cases = [
        "baseline",
        "admission-flood",
        "brute-force-none",
        "pipe-stoppage",
    ];

    let ledgers: Vec<(&str, EffortLedger)> = cases
        .iter()
        .map(|name| {
            let scenario = registry
                .build(name, scale)
                .unwrap_or_else(|| panic!("'{name}' is registered"))
                .with_aus(n_aus);
            (*name, run_ledger(&scenario, 1))
        })
        .collect();

    let mut header = vec!["purpose".to_string()];
    for (name, _) in &ledgers {
        header.push(name.to_string());
    }
    let mut table = Table::new(header);
    for purpose in ALL_PURPOSES {
        let mut row = vec![format!("{purpose:?}")];
        for (_, ledger) in &ledgers {
            row.push(format!("{:.0}", ledger.secs_for(purpose)));
        }
        table.row(row);
    }
    let mut totals = vec!["TOTAL (CPU-s)".to_string()];
    for (_, ledger) in &ledgers {
        totals.push(format!("{:.0}", ledger.total_secs()));
    }
    table.row(totals);

    let rendered = table.render();
    println!("{rendered}");
    save_results("effort_report", &rendered, &table.to_csv());
}
