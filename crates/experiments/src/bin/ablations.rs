//! Ablation study: what each defense buys (DESIGN.md §8; the paper's §9
//! parameter exploration and the §1/§5 motivations).
//!
//! For each defense, runs the attack that defense exists to stop, with the
//! defense on and off, and reports the difference:
//!
//! - **refractory periods** vs the admission flood (§7.3): without the
//!   refractory rate limit, every garbage invitation that survives the
//!   random drop costs a consideration — unbounded consideration work;
//! - **first-hand reputation** vs brute force (§7.4): without grades, the
//!   attacker's seeded identities pass as `even` and bypass drops and the
//!   one-per-period unknown slot entirely;
//! - **introductions** vs the admission flood: without them, discovery
//!   stalls while refractory periods are held open;
//! - **effort balancing** vs brute force: without provable effort the
//!   attack becomes free for the attacker (cost ratio collapses);
//! - **desynchronization** under heavy load: synchronous solicitation
//!   concentrates vote work and fails polls that individual solicitation
//!   would have completed.

use lockss_adversary::Defection;
use lockss_core::config::Ablation;
use lockss_experiments::runner::{default_threads, run_batch_observed};
use lockss_experiments::scenario::AttackSpec;
use lockss_experiments::{save_results, Scale, ScenarioRegistry};
use lockss_metrics::table::{ratio, sci};
use lockss_metrics::Table;

struct Case {
    name: &'static str,
    attack: AttackSpec,
    ablation: Ablation,
}

fn main() {
    let scale = Scale::from_env_and_args();
    println!("Ablation study at scale '{}'", scale.label());
    let n_aus = scale.small_collection();
    let seeds = scale.seeds();

    let flood = AttackSpec::AdmissionFlood {
        coverage: 1.0,
        days: 360,
    };
    let brute = AttackSpec::BruteForce {
        defection: Defection::Remaining,
    };

    let cases = vec![
        Case {
            name: "full defenses / admission flood",
            attack: flood.clone(),
            ablation: Ablation::default(),
        },
        Case {
            name: "no refractory / admission flood",
            attack: flood.clone(),
            ablation: Ablation {
                no_refractory: true,
                ..Ablation::default()
            },
        },
        Case {
            name: "no introductions / admission flood",
            attack: flood.clone(),
            ablation: Ablation {
                no_introductions: true,
                ..Ablation::default()
            },
        },
        Case {
            name: "full defenses / brute force",
            attack: brute.clone(),
            ablation: Ablation::default(),
        },
        Case {
            name: "no reputation / brute force",
            attack: brute.clone(),
            ablation: Ablation {
                no_reputation: true,
                ..Ablation::default()
            },
        },
        Case {
            name: "no effort balancing / brute force",
            attack: brute.clone(),
            ablation: Ablation {
                no_effort_balancing: true,
                ..Ablation::default()
            },
        },
        Case {
            name: "synchronous solicitation / no attack",
            attack: AttackSpec::None,
            ablation: Ablation {
                synchronous_solicitation: true,
                ..Ablation::default()
            },
        },
    ];

    // Baselines: the unattacked world with the same ablation, so each row's
    // ratios isolate the attack's effect under that protocol variant.
    let registry = ScenarioRegistry::standard();
    let base = registry
        .build("baseline", scale)
        .expect("'baseline' is registered")
        .with_aus(n_aus);
    let mut jobs = Vec::new();
    for case in &cases {
        let mut attacked = base.clone().with_attack(case.attack.clone());
        attacked.cfg.protocol.ablation = case.ablation;
        let mut baseline = base.clone();
        baseline.cfg.protocol.ablation = case.ablation;
        jobs.push(attacked);
        jobs.push(baseline);
    }
    let summaries = run_batch_observed(&jobs, seeds, default_threads(), None, None);

    let mut table = Table::new(vec![
        "case",
        "coeff. friction",
        "cost ratio",
        "delay ratio",
        "access failure",
        "poll success %",
    ]);
    for (i, case) in cases.iter().enumerate() {
        let attacked = &summaries[2 * i];
        let baseline = &summaries[2 * i + 1];
        let success = 100.0 * attacked.successful_polls as f64
            / (attacked.successful_polls + attacked.failed_polls).max(1) as f64;
        table.row(vec![
            case.name.to_string(),
            ratio(attacked.coefficient_of_friction(baseline)),
            ratio(attacked.cost_ratio()),
            ratio(attacked.delay_ratio(baseline)),
            sci(attacked.access_failure_probability),
            format!("{success:.1}"),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");
    save_results("ablations", &rendered, &table.to_csv());
}
