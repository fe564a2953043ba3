//! Ablations 3 and 4 from DESIGN.md: sensitivity of the learned-hint
//! machinery to (a) the §5.4 acceptance thresholds and (b) the
//! candidate-ranking order (facility → population → TPs).
//!
//! Each configuration runs the full pipeline on the ground-truth corpus
//! and reports how many hints are learned, how many are correct
//! (within 40 km of the operator's intent), and the figure-9 mean TP%.

use hoiho::{Geolocator, Hoiho, HoihoOptions, LearnPolicy, RankOrder};
use hoiho_baselines::harness::{mean_tp_pct, score_method};
use hoiho_bench::Table;
use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use std::collections::HashMap;

fn main() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    eprintln!("generating ground-truth corpus…");
    let g = hoiho_bench::gt::corpus(&db);
    let truth: HashMap<&str, HashMap<String, hoiho_geotypes::LocationId>> = g
        .operators
        .iter()
        .map(|o| (o.suffix.as_str(), o.hint_table()))
        .collect();

    let run = |name: &str, learn: LearnPolicy| {
        let opts = HoihoOptions {
            learn,
            ..Default::default()
        };
        let report = Hoiho::with_options(&db, &psl, opts).learn_corpus(&g.corpus);
        let geo = Geolocator::from_report(&report);
        let scores = score_method(&db, &psl, &g.corpus, |h, _| {
            geo.geolocate(&db, &psl, h).map(|i| i.location)
        });
        let mut learned = 0usize;
        let mut correct = 0usize;
        for r in &report.results {
            let Some(table) = truth.get(r.suffix.as_str()) else {
                continue;
            };
            for h in &r.learned.hints {
                learned += 1;
                if table.get(&h.token).is_some_and(|&loc| {
                    db.location(loc)
                        .coords
                        .distance_km(&db.location(h.location).coords)
                        <= 40.0
                }) {
                    correct += 1;
                }
            }
        }
        (name.to_string(), learned, correct, mean_tp_pct(&scores))
    };

    let rows = vec![
        // Ablation 3: thresholds.
        run("paper (ppv≥0.8, 3/1 congruent)", LearnPolicy::default()),
        run(
            "loose (ppv≥0.5, 1/1 congruent)",
            LearnPolicy {
                min_ppv: 0.5,
                congruent_without_cc: 1,
                congruent_with_cc: 1,
                ..Default::default()
            },
        ),
        run(
            "strict (ppv≥0.95, 5/3 congruent)",
            LearnPolicy {
                min_ppv: 0.95,
                congruent_without_cc: 5,
                congruent_with_cc: 3,
                ..Default::default()
            },
        ),
        // Ablation 4: ranking order.
        run(
            "rank: population→tp (no facility)",
            LearnPolicy {
                rank: RankOrder::PopulationTp,
                ..Default::default()
            },
        ),
        run(
            "rank: tp→population",
            LearnPolicy {
                rank: RankOrder::TpPopulation,
                ..Default::default()
            },
        ),
    ];

    println!("\n# Ablations — stage-4 thresholds and candidate ranking\n");
    let mut t = Table::new(vec![
        "configuration",
        "hints learned",
        "correct",
        "accuracy",
        "fig-9 mean TP%",
    ]);
    for (name, learned, correct, tp) in rows {
        t.row(vec![
            name,
            format!("{learned}"),
            format!("{correct}"),
            format!("{:.0}%", 100.0 * correct as f64 / learned.max(1) as f64),
            format!("{tp:.1}"),
        ]);
    }
    print!("{}", t.render());
    println!("\nreading: the gates trade coverage for caution (loose learns more, strict");
    println!("fewer); the ranking priors matter little here because simulated RTT");
    println!("evidence is clean — the facility/population priors of §5.4 earn their");
    println!("keep on the real Internet, where sparse VPs often cannot separate");
    println!("candidate cities and the prior must break the tie.");
}
