//! Figure 10: properties of learned geohints.
//!
//! (a) Best-case RTT from the closest VP to each learned location
//!     (paper: 48.6% within 10 ms, 80% within 22 ms).
//! (b) Distance from each learned 3-letter hint's location to the
//!     airport carrying the same IATA code (paper: 93.5% further than
//!     1,000 km; median ≥ 7,600 km) — why verbatim dictionaries fail.

use hoiho::Hoiho;
use hoiho_bench::{cdf_at, quantile, Table};

use hoiho_geotypes::rtt::best_case_rtt_ms;
use hoiho_geotypes::GeohintType;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;

fn main() {
    let db = hoiho_bench::dictionary();
    let psl = PublicSuffixList::builtin();
    let spec = CorpusSpec::ipv4_aug2020(hoiho_bench::scale());
    eprintln!("generating {}…", spec.label);
    let g = hoiho_itdk::generate(&db, &spec);
    eprintln!("learning…");
    let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);

    let mut rtt_to_vp: Vec<f64> = Vec::new();
    let mut collision_dist: Vec<f64> = Vec::new();
    let mut learned_total = 0usize;
    for r in report.results.iter().filter(|r| r.class.usable()) {
        for h in &r.learned.hints {
            learned_total += 1;
            let coords = db.location(h.location).coords;
            if let Some((vp, _)) = g.corpus.vps.closest_to(&coords) {
                rtt_to_vp.push(best_case_rtt_ms(&g.corpus.vps.get(vp).coords, &coords));
            }
            if h.ty == GeohintType::Iata && h.token.len() == 3 {
                for a in db.lookup_typed(&h.token, GeohintType::Iata) {
                    collision_dist.push(db.location(a).coords.distance_km(&coords));
                }
            }
        }
    }

    println!(
        "\n# Figure 10a — best-case RTT from closest VP to learned locations ({} hints)\n",
        learned_total
    );
    let mut t = Table::new(vec!["threshold", "fraction ≤"]);
    for ms in [5.0, 10.0, 16.0, 22.0, 30.0] {
        t.row(vec![
            format!("{ms:.0} ms"),
            format!("{:.1}%", 100.0 * cdf_at(&rtt_to_vp, ms)),
        ]);
    }
    print!("{}", t.render());
    println!("paper: 48.6% ≤ 10 ms, 80% ≤ 22 ms");

    println!(
        "\n# Figure 10b — distance from learned hint to same-code airport ({} collisions)\n",
        collision_dist.len()
    );
    if collision_dist.is_empty() {
        println!("(no learned hints collide with IATA codes at this scale)");
    } else {
        let mut t = Table::new(vec!["metric", "km"]);
        t.row(vec![
            "median".to_string(),
            format!("{:.0}", quantile(&collision_dist, 0.5)),
        ]);
        t.row(vec![
            "p90".to_string(),
            format!("{:.0}", quantile(&collision_dist, 0.9)),
        ]);
        print!("{}", t.render());
        println!(
            "fraction further than 1,000 km: {:.1}% (paper: 93.5%; median ≥ 7,600 km)",
            100.0 * (1.0 - cdf_at(&collision_dist, 1000.0))
        );
    }
}
