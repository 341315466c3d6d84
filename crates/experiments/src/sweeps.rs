//! The shared parameter sweeps behind the paper's figures and Table 1.

use lockss_adversary::Defection;
use lockss_metrics::Summary;
use lockss_sim::Duration;

use crate::cache;
use crate::registry::ScenarioRegistry;
use crate::runner::{default_threads, run_batch_observed, MeasuredPoint};
use crate::scale::Scale;
use crate::scenario::{AttackSpec, Scenario};

/// The registered baseline world resized to `n_aus`: every sweep point
/// derives from the same `baseline` registry entry the CLI runs, so a
/// figure point is always "a registered scenario plus a parameter tweak".
fn registered_baseline(scale: Scale, n_aus: usize) -> Scenario {
    ScenarioRegistry::standard()
        .build("baseline", scale)
        .expect("'baseline' is registered")
        .with_aus(n_aus)
}

/// One point of an attack sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Coverage fraction (1.0 = whole population).
    pub coverage: f64,
    /// Attack duration in days.
    pub days: u64,
    /// True if this point uses the large collection.
    pub large: bool,
    pub measured: MeasuredPoint,
}

fn point_label(kind: &str, coverage: f64, days: u64, large: bool) -> String {
    format!(
        "{kind}|cov={}|days={days}|{}",
        (coverage * 100.0).round(),
        if large { "large" } else { "small" }
    )
}

/// Runs (or loads) the baselines for the small and large collections.
pub fn baselines(scale: Scale) -> (Summary, Summary) {
    let name = format!("baseline-{}", scale.label());
    if let Some(rows) = cache::load(&name) {
        if rows.len() == 2 {
            return (rows[0].1.clone(), rows[1].1.clone());
        }
    }
    let registry = ScenarioRegistry::standard();
    let jobs = vec![
        registry.build("baseline", scale).expect("registered"),
        registry.build("baseline-large", scale).expect("registered"),
    ];
    let out = run_batch_observed(&jobs, scale.seeds(), default_threads(), None, None);
    cache::store(
        &name,
        &[
            ("small".to_string(), out[0].clone()),
            ("large".to_string(), out[1].clone()),
        ],
    );
    (out[0].clone(), out[1].clone())
}

fn attack_sweep(
    scale: Scale,
    kind: &str,
    durations: &[u64],
    make: impl Fn(f64, u64) -> AttackSpec,
) -> Vec<SweepPoint> {
    let name = format!("{kind}-{}", scale.label());
    let (base_small, base_large) = baselines(scale);

    // Point grid: all coverages × durations on the small collection, plus
    // the 100%-coverage series on the large collection (the paper's
    // "100% 600 AUs" line).
    let mut grid: Vec<(f64, u64, bool)> = Vec::new();
    for &cov in &scale.coverages() {
        for &d in durations {
            grid.push((cov, d, false));
        }
    }
    for &d in durations {
        grid.push((1.0, d, true));
    }

    let rows = match cache::load(&name) {
        Some(rows) if rows.len() == grid.len() => rows,
        _ => {
            let jobs: Vec<Scenario> = grid
                .iter()
                .map(|&(cov, d, large)| {
                    let n_aus = if large {
                        scale.large_collection()
                    } else {
                        scale.small_collection()
                    };
                    registered_baseline(scale, n_aus).with_attack(make(cov, d))
                })
                .collect();
            let summaries = run_batch_observed(&jobs, scale.seeds(), default_threads(), None, None);
            let rows: Vec<(String, Summary)> = grid
                .iter()
                .zip(summaries)
                .map(|(&(cov, d, large), s)| (point_label(kind, cov, d, large), s))
                .collect();
            cache::store(&name, &rows);
            rows
        }
    };

    grid.iter()
        .zip(rows)
        .map(|(&(coverage, days, large), (label, attacked))| SweepPoint {
            coverage,
            days,
            large,
            measured: MeasuredPoint {
                label,
                attacked,
                baseline: if large {
                    base_large.clone()
                } else {
                    base_small.clone()
                },
            },
        })
        .collect()
}

/// The pipe-stoppage sweep behind Figures 3, 4, and 5.
pub fn pipe_sweep(scale: Scale) -> Vec<SweepPoint> {
    attack_sweep(
        scale,
        "pipe",
        &scale.stoppage_durations(),
        |coverage, days| AttackSpec::PipeStoppage { coverage, days },
    )
}

/// The admission-flood sweep behind Figures 6, 7, and 8.
pub fn flood_sweep(scale: Scale) -> Vec<SweepPoint> {
    attack_sweep(
        scale,
        "flood",
        &scale.flood_durations(),
        |coverage, days| AttackSpec::AdmissionFlood { coverage, days },
    )
}

/// One Fig. 2 point: interval × MTBF × collection size.
#[derive(Clone, Debug)]
pub struct BaselinePoint {
    pub interval_months: u64,
    pub mtbf_years: f64,
    pub large: bool,
    pub summary: Summary,
}

/// The no-attack sweep behind Figure 2.
pub fn fig2_sweep(scale: Scale) -> Vec<BaselinePoint> {
    let name = format!("fig2-{}", scale.label());
    let mut grid: Vec<(u64, f64, bool)> = Vec::new();
    for &m in &scale.poll_intervals_months() {
        for &y in &scale.mtbf_years() {
            grid.push((m, y, false));
        }
    }
    // The paper shows the 600-AU collection at 1- and 5-year MTBF.
    let extremes = {
        let ys = scale.mtbf_years();
        vec![
            *ys.first().expect("nonempty"),
            *ys.last().expect("nonempty"),
        ]
    };
    for &m in &scale.poll_intervals_months() {
        for &y in &extremes {
            if !grid.contains(&(m, y, true)) {
                grid.push((m, y, true));
            }
        }
    }

    let rows = match cache::load(&name) {
        Some(rows) if rows.len() == grid.len() => rows,
        _ => {
            let jobs: Vec<Scenario> = grid
                .iter()
                .map(|&(months, years, large)| {
                    let n_aus = if large {
                        scale.large_collection()
                    } else {
                        scale.small_collection()
                    };
                    registered_baseline(scale, n_aus)
                        .with_poll_interval(Duration::MONTH * months)
                        .with_mtbf_years(years)
                })
                .collect();
            let summaries = run_batch_observed(&jobs, scale.seeds(), default_threads(), None, None);
            let rows: Vec<(String, Summary)> = grid
                .iter()
                .zip(summaries)
                .map(|(&(m, y, large), s)| {
                    (
                        format!("fig2|m={m}|y={y}|{}", if large { "large" } else { "small" }),
                        s,
                    )
                })
                .collect();
            cache::store(&name, &rows);
            rows
        }
    };

    grid.iter()
        .zip(rows)
        .map(
            |(&(interval_months, mtbf_years, large), (_, summary))| BaselinePoint {
                interval_months,
                mtbf_years,
                large,
                summary,
            },
        )
        .collect()
}

/// One Table 1 row: defection strategy × collection size.
#[derive(Clone, Debug)]
pub struct Table1Row {
    pub defection: Defection,
    pub large: bool,
    pub measured: MeasuredPoint,
}

/// The brute-force runs behind Table 1.
pub fn table1_rows(scale: Scale) -> Vec<Table1Row> {
    let name = format!("table1-{}", scale.label());
    let (base_small, base_large) = baselines(scale);
    let grid: Vec<(Defection, bool)> = [Defection::Intro, Defection::Remaining, Defection::None_]
        .into_iter()
        .flat_map(|d| [(d, false), (d, true)])
        .collect();

    let rows = match cache::load(&name) {
        Some(rows) if rows.len() == grid.len() => rows,
        _ => {
            let jobs: Vec<Scenario> = grid
                .iter()
                .map(|&(defection, large)| {
                    let n_aus = if large {
                        scale.large_collection()
                    } else {
                        scale.small_collection()
                    };
                    registered_baseline(scale, n_aus)
                        .with_attack(AttackSpec::BruteForce { defection })
                })
                .collect();
            let summaries = run_batch_observed(&jobs, scale.seeds(), default_threads(), None, None);
            let rows: Vec<(String, Summary)> = grid
                .iter()
                .zip(summaries)
                .map(|(&(d, large), s)| {
                    (
                        format!("t1|{}|{}", d.label(), if large { "large" } else { "small" }),
                        s,
                    )
                })
                .collect();
            cache::store(&name, &rows);
            rows
        }
    };

    grid.iter()
        .zip(rows)
        .map(|(&(defection, large), (label, attacked))| Table1Row {
            defection,
            large,
            measured: MeasuredPoint {
                label,
                attacked,
                baseline: if large {
                    base_large.clone()
                } else {
                    base_small.clone()
                },
            },
        })
        .collect()
}
