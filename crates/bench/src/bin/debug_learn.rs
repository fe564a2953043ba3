//! Diagnostic: where do custom hints go and why are they (not) learned?

use hoiho::Hoiho;
use hoiho_itdk::spec::{CorpusSpec, NamingStyle};
use hoiho_psl::PublicSuffixList;

fn main() {
    let db = hoiho_bench::dictionary();
    let psl = PublicSuffixList::builtin();
    let spec = CorpusSpec::ipv4_aug2020(hoiho_bench::scale());
    let g = hoiho_itdk::generate(&db, &spec);

    let mut ops_with_custom = 0;
    let mut custom_pops = 0;
    for op in &g.operators {
        if op.style == NamingStyle::NoGeo {
            continue;
        }
        let c = op.custom_hints().len();
        if c > 0 {
            ops_with_custom += 1;
            custom_pops += c;
        }
    }
    eprintln!(
        "geo ops: {}, with ≥1 custom: {}, custom pops total: {}",
        g.operators
            .iter()
            .filter(|o| o.style != NamingStyle::NoGeo)
            .count(),
        ops_with_custom,
        custom_pops
    );

    let report = Hoiho::new(&db, &psl).learn_corpus(&g.corpus);
    // For every operator with customs, show the suffix outcome.
    for op in &g.operators {
        let customs = op.custom_hints();
        if customs.is_empty() {
            continue;
        }
        let r = report.results.iter().find(|r| r.suffix == op.suffix);
        match r {
            Some(r) => {
                let m = r
                    .metrics
                    .as_ref()
                    .map(|m| {
                        format!(
                            "tp={} fp={} fn={} unk={} ppv={:.2} uniq={}",
                            m.tp,
                            m.fp,
                            m.fn_,
                            m.unk,
                            m.ppv(),
                            m.unique_hints.len()
                        )
                    })
                    .unwrap_or_else(|| "-".into());
                eprintln!(
                    "{} [{:?}] routers={} pops={} customs={:?} class={} learned={} | {}",
                    op.suffix,
                    op.style,
                    op.router_count,
                    op.pops.len(),
                    customs.iter().map(|p| p.hint.as_str()).collect::<Vec<_>>(),
                    r.class,
                    r.learned.len(),
                    m
                );
            }
            None => eprintln!("{}: no result", op.suffix),
        }
    }
}
