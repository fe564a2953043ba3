//! §3.3 audit: how many of each method's geolocations fall outside the
//! CBG-feasible region implied by follow-up ping measurements?
//!
//! Cai (2015) probed 4,638 DRoP-inferred locations and found 46% were
//! outside feasible boundaries; Scheitle et al. (2017) confirmed most
//! DRoP inferences were incorrect. We reproduce the audit for every
//! method on the ground-truth corpus.

use hoiho::{Geolocator, Hoiho};
use hoiho_baselines::{Drop, Hloc, Undns};
use hoiho_bench::Table;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::LocationId;
use hoiho_itdk::Router;
use hoiho_psl::PublicSuffixList;
use hoiho_rtt::cbg::feasible;

fn main() {
    let db = GeoDb::builtin();
    let psl = PublicSuffixList::builtin();
    eprintln!("generating ground-truth corpus…");
    let g = hoiho_bench::gt::corpus(&db);

    eprintln!("training methods…");
    let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);
    let geo = Geolocator::from_report(&report);
    let drop_model = Drop::train(&db, &psl, &g.corpus);
    let hloc_model = Hloc::new();
    let undns_model = Undns::curate(&db, &g.operators, 0.55, 0.01, 2014);

    let audit = |name: &str, f: &mut dyn FnMut(&str, &Router) -> Option<LocationId>| {
        let mut answered = 0usize;
        let mut infeasible = 0usize;
        for (_, r) in g.corpus.iter() {
            if r.rtts.is_empty() {
                continue; // nothing to audit against
            }
            for h in r.hostnames() {
                if let Some(loc) = f(h, r) {
                    answered += 1;
                    if !feasible(&g.corpus.vps, &r.rtts, &db.location(loc).coords) {
                        infeasible += 1;
                    }
                }
            }
        }
        (
            name.to_string(),
            answered,
            infeasible,
            100.0 * infeasible as f64 / answered.max(1) as f64,
        )
    };

    let rows = vec![
        audit("hoiho", &mut |h, _| {
            geo.geolocate(&db, &psl, h).map(|i| i.location)
        }),
        audit("hloc", &mut |h, r| {
            hloc_model.geolocate(&db, &g.corpus.vps, &r.rtts, h)
        }),
        audit("drop", &mut |h, _| drop_model.geolocate(&db, &psl, h)),
        audit("undns", &mut |h, _| undns_model.geolocate(&psl, h)),
    ];

    println!("\n# §3.3 audit — inferences outside the CBG-feasible region\n");
    let mut t = Table::new(vec!["method", "answers", "infeasible", "fraction"]);
    for (name, answered, infeasible, pct) in rows {
        t.row(vec![
            name,
            format!("{answered}"),
            format!("{infeasible}"),
            format!("{pct:.1}%"),
        ]);
    }
    print!("{}", t.render());
    println!("\npaper context: Cai (2015) found 46% of DRoP's distinct inferred locations");
    println!("violated CBG boundaries; Hoiho's strict RTT-consistency keeps its rate near zero.");
    println!("(our freshly-trained DRoP does better than the stale 2013 ruleset; its verbatim-");
    println!("dictionary misreadings of custom hints are what the audit catches)");
}
