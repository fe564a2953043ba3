//! Table 2: coverage of usable naming conventions across the four
//! corpora — routers with hostnames, with apparent geohints, and
//! geolocated by usable NCs.
//!
//! Paper shape: ~8.8%/8.5% of IPv4 and ~5.3%/5.8% of IPv6 routers have
//! apparent geohints; usable NCs geolocate 83–90% of those.

use hoiho::Hoiho;
use hoiho_bench::{generate_view, itdk_specs, Table};

use hoiho_psl::PublicSuffixList;

fn main() {
    let db = hoiho_bench::dictionary();
    let psl = PublicSuffixList::builtin();
    eprintln!("generating corpora at scale {}…", hoiho_bench::scale());

    println!("\n# Table 2 — coverage of usable NCs\n");
    let mut t = Table::new(vec![
        "corpus",
        "routers",
        "w/ hostname",
        "w/ apparent geohint",
        "geolocated",
        "geo/apparent",
        "bonus (no RTT)",
    ]);
    for spec in itdk_specs() {
        let view = generate_view(&db, &spec);
        let (label, routers) = (view.label(), view.total_routers());
        eprintln!("learning {label} ({routers} routers)…");
        let report = Hoiho::new(&db, &psl).learn_view(&view);
        let pct = |n: usize| 100.0 * n as f64 / report.total_routers as f64;
        t.row(vec![
            report.label.clone(),
            format!("{}", report.total_routers),
            format!(
                "{} ({:.1}%)",
                report.routers_with_hostname,
                pct(report.routers_with_hostname)
            ),
            format!(
                "{} ({:.1}%)",
                report.routers_with_apparent,
                pct(report.routers_with_apparent)
            ),
            format!(
                "{} ({:.1}%)",
                report.routers_geolocated,
                pct(report.routers_geolocated)
            ),
            format!(
                "{:.1}%",
                100.0 * report.routers_geolocated as f64
                    / report.routers_with_apparent.max(1) as f64
            ),
            format!("+{}", report.routers_extrapolated),
        ]);
    }
    print!("{}", t.render());
    println!("\npaper: geolocated/apparent = 86.8% (IPv4 Aug'20) … 89.3% (IPv6 Nov'20)");
}
