//! Table 4: good/promising NCs broken down by geohint type and by
//! whether the convention also embeds a state and/or country code.
//!
//! Paper shape (good NCs, IPv4 Aug'20): IATA 51.7%, city 38.9%,
//! CLLI 12.1%, LOCODE 1.3%, facility 0.3%; about a quarter of
//! IATA conventions carry a country or state annotation.

use hoiho::{Hoiho, NcClass};
use hoiho_bench::{generate_view, Table};
use hoiho_geotypes::GeohintType;
use hoiho_itdk::spec::CorpusSpec;
use hoiho_psl::PublicSuffixList;
use std::collections::HashMap;

fn main() {
    let db = hoiho_bench::dictionary();
    let psl = PublicSuffixList::builtin();
    let spec = CorpusSpec::ipv4_aug2020(hoiho_bench::scale());
    eprintln!("generating {}…", spec.label);
    let view = generate_view(&db, &spec);
    eprintln!("learning…");
    let report = Hoiho::new(&db, &psl).learn_view(&view);

    // (class, type, annotated) → count. A NC's type is its first
    // regex's plan type; a NC mixing types counts under each type it
    // uses (mirroring the paper's multi-regex NCs).
    let mut counts: HashMap<(NcClass, GeohintType, bool), usize> = HashMap::new();
    let mut mixed = 0usize;
    for r in report.results.iter().filter(|r| r.class.usable()) {
        let Some(nc) = &r.nc else { continue };
        let mut types: Vec<(GeohintType, bool)> = Vec::new();
        for rx in &nc.regexes {
            if let Some(t) = rx.plan.hint_type() {
                let annotated = rx.plan.extracts_cc();
                if !types.contains(&(t, annotated)) {
                    types.push((t, annotated));
                }
            }
        }
        if types
            .iter()
            .map(|(t, _)| t)
            .collect::<std::collections::HashSet<_>>()
            .len()
            > 1
        {
            mixed += 1;
        }
        for (t, annotated) in types {
            *counts.entry((r.class, t, annotated)).or_default() += 1;
        }
    }

    println!("\n# Table 4 — usable NCs by geohint type × state/country annotation\n");
    let mut t = Table::new(vec![
        "geohint",
        "good (plain)",
        "good (+cc/state)",
        "promising (plain)",
        "promising (+cc/state)",
    ]);
    let mut good_total = 0usize;
    let mut prom_total = 0usize;
    for ty in GeohintType::ALL {
        let g0 = counts
            .get(&(NcClass::Good, ty, false))
            .copied()
            .unwrap_or(0);
        let g1 = counts.get(&(NcClass::Good, ty, true)).copied().unwrap_or(0);
        let p0 = counts
            .get(&(NcClass::Promising, ty, false))
            .copied()
            .unwrap_or(0);
        let p1 = counts
            .get(&(NcClass::Promising, ty, true))
            .copied()
            .unwrap_or(0);
        good_total += g0 + g1;
        prom_total += p0 + p1;
        if g0 + g1 + p0 + p1 == 0 {
            continue;
        }
        t.row(vec![
            ty.label().to_string(),
            format!("{g0}"),
            format!("{g1}"),
            format!("{p0}"),
            format!("{p1}"),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\ntotals: good {good_total}, promising {prom_total}; NCs mixing geohint types: {mixed}"
    );
    println!("paper: IATA dominates good NCs (51.7%), then city (38.9%), CLLI (12.1%), LOCODE (1.3%), facility (0.3%)");
}
