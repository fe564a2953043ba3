//! Table 5: the most frequently learned three-letter geohints across
//! suffixes, the fraction that collide with real IATA codes, and how
//! far the colliding airport is.
//!
//! Paper shape: `ash`/`tor`/`wdc`/`tok`/`zur`/`ldn` recur across many
//! suffixes; four of the six collide with an IATA airport far from the
//! intended city.

use hoiho::Hoiho;
use hoiho_bench::{generate_view, Table};

use hoiho_geotypes::{Coordinates, GeohintType};
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use std::collections::HashMap;

fn main() {
    let db = hoiho_bench::dictionary();
    let psl = PublicSuffixList::builtin();
    let spec = CorpusSpec::ipv4_aug2020(hoiho_bench::scale());
    eprintln!("generating {}…", spec.label);
    let view = generate_view(&db, &spec);
    eprintln!("learning scaled corpus…");
    let reports = [Hoiho::new(&db, &psl).learn_view(&view)];
    // The ground-truth suite carries the hub repurposings ("ash",
    // "tor", "tok", …) that recur across real networks.
    let gt_db = hoiho_geodb::GeoDb::builtin();
    let gt = hoiho_bench::gt::corpus(&gt_db);
    eprintln!("learning ground-truth corpus…");
    let gt_report = Hoiho::new(&gt_db, &psl).learn_corpus(&gt.corpus);

    // (token, location display) → suffix count, and the location's
    // coordinates in the dictionary it was learned over.
    let mut freq: HashMap<(String, String), (usize, Coordinates)> = HashMap::new();
    let mut iata_regexes = 0usize;
    let mut iata_regexes_with_custom = 0usize;
    let labelled: Vec<(&hoiho_geodb::GeoDb, &hoiho::LearnReport)> =
        vec![(&db, &reports[0]), (&gt_db, &gt_report)];
    for (db, report) in labelled {
        for r in &report.results {
            if !r.class.usable() {
                continue;
            }
            let uses_iata = r.nc.as_ref().is_some_and(|nc| {
                nc.regexes
                    .iter()
                    .any(|x| x.plan.hint_type() == Some(GeohintType::Iata))
            });
            if uses_iata {
                iata_regexes += 1;
                if r.learned.hints.iter().any(|h| h.ty == GeohintType::Iata) {
                    iata_regexes_with_custom += 1;
                }
            }
            for h in &r.learned.hints {
                if h.ty == GeohintType::Iata && h.token.len() == 3 {
                    let loc = db.location(h.location);
                    freq.entry((h.token.clone(), loc.display_name()))
                        .or_insert((0, loc.coords))
                        .0 += 1;
                }
            }
        }
    }
    let mut rows: Vec<((String, String), (usize, Coordinates))> = freq.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0 .0.cmp(&b.0 .0)));

    println!("\n# Table 5 — most frequently learned three-letter geohints\n");
    let mut t = Table::new(vec![
        "hint",
        "#suffixes",
        "learned location",
        "IATA collision",
        "airport distance (km)",
    ]);
    let db = hoiho_geodb::GeoDb::builtin();
    for ((token, loc_name), (n, learned)) in rows.iter().take(12) {
        let airports = db.lookup_typed(token, GeohintType::Iata);
        let collision = if airports.is_empty() { "-" } else { "⊗" };
        // Distance from the learned location to the nearest colliding
        // airport.
        let dist = airports
            .iter()
            .map(|&a| db.location(a).coords.distance_km(learned))
            .fold(f64::INFINITY, f64::min);
        t.row(vec![
            token.clone(),
            format!("{n}"),
            loc_name.clone(),
            collision.to_string(),
            if dist.is_finite() {
                format!("{dist:.0}")
            } else {
                "-".to_string()
            },
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nusable NCs extracting IATA codes: {iata_regexes}; with ≥1 learned (custom) hint: {iata_regexes_with_custom} ({:.1}%, paper: 38.2%)",
        100.0 * iata_regexes_with_custom as f64 / iata_regexes.max(1) as f64
    );
}
