//! Table 3: classification of learned naming conventions (good /
//! promising / poor) per corpus.
//!
//! Paper shape: ~44% good, ~6% promising, ~50% poor for IPv4;
//! IPv6 skews better (56% good) because its hostnames more often carry
//! geohints.

use hoiho::Hoiho;
use hoiho_bench::{generate_view, itdk_specs, Table};

use hoiho_psl::PublicSuffixList;

fn main() {
    let db = hoiho_bench::dictionary();
    let psl = PublicSuffixList::builtin();
    eprintln!("generating corpora at scale {}…", hoiho_bench::scale());

    println!("\n# Table 3 — NC classification (suffixes with ≥1 apparent geohint)\n");
    let mut t = Table::new(vec!["corpus", "good", "promising", "poor", "total"]);
    for spec in itdk_specs() {
        let view = generate_view(&db, &spec);
        eprintln!("learning {}…", view.label());
        let report = Hoiho::new(&db, &psl).learn_view(&view);
        // The paper's denominator: suffixes with an apparent geohint.
        let with_hint: Vec<_> = report
            .results
            .iter()
            .filter(|r| r.tagged_hosts > 0)
            .collect();
        let total = with_hint.len();
        let good = with_hint
            .iter()
            .filter(|r| r.class == hoiho::NcClass::Good)
            .count();
        let promising = with_hint
            .iter()
            .filter(|r| r.class == hoiho::NcClass::Promising)
            .count();
        let poor = total - good - promising;
        let pct = |n: usize| 100.0 * n as f64 / total.max(1) as f64;
        t.row(vec![
            report.label.clone(),
            format!("{} ({:.1}%)", good, pct(good)),
            format!("{} ({:.1}%)", promising, pct(promising)),
            format!("{} ({:.1}%)", poor, pct(poor)),
            format!("{total}"),
        ]);
    }
    print!("{}", t.render());
    println!("\npaper (IPv4 Aug'20): good 43.6%, promising 6.1%, poor 50.4% of 1825 suffixes");
}
