//! Figure 11: learned geohints with smaller RTTs to the closest VP are
//! more likely to be correct.
//!
//! Paper shape: ≤7 ms → 90% correct, ≤11 ms → 84%, ≤16 ms → 80%;
//! correctness decays as the nearest VP gets further away — more VPs
//! would mean better learned hints.

use hoiho::Hoiho;
use hoiho_bench::Table;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::rtt::best_case_rtt_ms;
use hoiho_psl::PublicSuffixList;
use std::collections::HashMap;

fn main() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    eprintln!("generating ground-truth corpus…");
    let g = hoiho_bench::gt::corpus(&db);
    eprintln!("learning…");
    let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);

    let truth: HashMap<&str, HashMap<String, hoiho_geotypes::LocationId>> = g
        .operators
        .iter()
        .map(|o| (o.suffix.as_str(), o.hint_table()))
        .collect();

    // (rtt to closest VP, correct?) per learned hint.
    let mut samples: Vec<(f64, bool)> = Vec::new();
    for r in &report.results {
        let Some(table) = truth.get(r.suffix.as_str()) else {
            continue;
        };
        for h in &r.learned.hints {
            let coords = db.location(h.location).coords;
            let Some((vp, _)) = g.corpus.vps.closest_to(&coords) else {
                continue;
            };
            let rtt = best_case_rtt_ms(&g.corpus.vps.get(vp).coords, &coords);
            let ok = table
                .get(&h.token)
                .is_some_and(|&true_loc| db.location(true_loc).coords.distance_km(&coords) <= 40.0);
            samples.push((rtt, ok));
        }
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));

    println!(
        "\n# Figure 11 — learned-geohint correctness vs best-case RTT to closest VP ({} hints)\n",
        samples.len()
    );
    let mut t = Table::new(vec!["RTT ≤", "hints", "correct", "accuracy"]);
    for ms in [3.0, 7.0, 11.0, 16.0, f64::INFINITY] {
        let within: Vec<&(f64, bool)> = samples.iter().filter(|(r, _)| *r <= ms).collect();
        if within.is_empty() {
            continue;
        }
        let correct = within.iter().filter(|(_, ok)| *ok).count();
        t.row(vec![
            if ms.is_finite() {
                format!("{ms:.0} ms")
            } else {
                "all".to_string()
            },
            format!("{}", within.len()),
            format!("{correct}"),
            format!("{:.1}%", 100.0 * correct as f64 / within.len() as f64),
        ]);
    }
    print!("{}", t.render());
    println!("\npaper: ≤7 ms → 90%, ≤11 ms → 84%, ≤16 ms → 80% correct");
}
