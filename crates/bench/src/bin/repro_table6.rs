//! Table 6: fraction of learned geohints verified against operator
//! ground truth, per suffix.
//!
//! Paper shape: 92/117 (78.6%) overall; near-perfect for networks that
//! deploy where people live (zayo 4/4, he 4/4), poor for tfbnw's small
//! data-center towns (2/14), imperfect for retn (25/34).

use hoiho::Hoiho;
use hoiho_bench::Table;
use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use std::collections::HashMap;

fn main() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    eprintln!("generating ground-truth corpus…");
    let g = hoiho_bench::gt::corpus(&db);
    eprintln!("learning…");
    let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);

    // suffix → operator hint table.
    let truth: HashMap<&str, HashMap<String, hoiho_geotypes::LocationId>> = g
        .operators
        .iter()
        .map(|o| (o.suffix.as_str(), o.hint_table()))
        .collect();

    println!("\n# Table 6 — learned geohints verified against operator intent\n");
    let mut t = Table::new(vec!["suffix", "verified", "learned", "fraction"]);
    let mut total = 0usize;
    let mut correct_total = 0usize;
    let mut rows: Vec<(String, usize, usize)> = Vec::new();
    for r in &report.results {
        if r.learned.is_empty() {
            continue;
        }
        let Some(table) = truth.get(r.suffix.as_str()) else {
            continue;
        };
        let mut correct = 0usize;
        for h in &r.learned.hints {
            let ok = table.get(&h.token).is_some_and(|&true_loc| {
                db.location(true_loc)
                    .coords
                    .distance_km(&db.location(h.location).coords)
                    <= 40.0
            });
            if ok {
                correct += 1;
            }
        }
        rows.push((r.suffix.clone(), correct, r.learned.len()));
        total += r.learned.len();
        correct_total += correct;
    }
    rows.sort();
    for (suffix, correct, learned) in rows {
        t.row(vec![
            suffix,
            format!("{correct}"),
            format!("{learned}"),
            format!("{:.1}%", 100.0 * correct as f64 / learned.max(1) as f64),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\noverall: {correct_total}/{total} = {:.1}% (paper: 92/117 = 78.6%)",
        100.0 * correct_total as f64 / total.max(1) as f64
    );
}
