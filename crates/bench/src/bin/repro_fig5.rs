//! Figure 5: the value of follow-up ping measurements over
//! traceroute-observed RTTs.
//!
//! (a) Distribution of the minimum RTT per router: closest-VP pings vs
//!     RTTs seen in traceroute (paper medians: 16 ms vs 68 ms — 4.25×,
//!     a 180× larger feasible area).
//! (b) Distribution of the fraction of VPs that observed each router:
//!     35.8% of routers seen by one VP in traceroute, vs RTT samples
//!     from 89.4% of VPs via ping.

use hoiho_bench::{quantile, Table};

use hoiho_geotypes::rtt::max_distance_km;
use hoiho_geotypes::Rtt;
use hoiho_itdk::spec::CorpusSpec;

fn main() {
    let db = hoiho_bench::dictionary();
    let spec = CorpusSpec::ipv4_aug2020(hoiho_bench::scale());
    eprintln!("generating {}…", spec.label);
    let g = hoiho_itdk::generate(&db, &spec);

    let mut ping_min: Vec<f64> = Vec::new();
    let mut tr_min: Vec<f64> = Vec::new();
    let mut tr_vp_frac: Vec<f64> = Vec::new();
    let mut ping_vp_frac: Vec<f64> = Vec::new();
    let mut tr_single = 0usize;
    let mut tr_total = 0usize;
    let nvps = g.corpus.vps.len() as f64;

    for r in &g.corpus.routers {
        if !r.traceroute_rtts.is_empty() {
            tr_total += 1;
            if r.traceroute_rtts.len() == 1 {
                tr_single += 1;
            }
            tr_vp_frac.push(r.traceroute_rtts.len() as f64 / nvps);
        }
        if r.rtts.is_empty() {
            continue; // unresponsive to ping
        }
        ping_vp_frac.push(r.rtts.len() as f64 / nvps);
        ping_min.push(r.rtts.min_sample().expect("nonempty").1.as_ms());
        if let Some((_, t)) = r.traceroute_rtts.min_sample() {
            tr_min.push(t.as_ms());
        }
    }

    println!("\n# Figure 5a — min RTT per router (ms): ping vs traceroute\n");
    let mut t = Table::new(vec!["quantile", "ping (closest VP)", "traceroute"]);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        t.row(vec![
            format!("p{}", (q * 100.0) as u32),
            format!("{:.1}", quantile(&ping_min, q)),
            format!("{:.1}", quantile(&tr_min, q)),
        ]);
    }
    print!("{}", t.render());

    let med_ping = quantile(&ping_min, 0.5);
    let med_tr = quantile(&tr_min, 0.5);
    let area_ratio =
        (max_distance_km(Rtt::from_ms(med_tr)) / max_distance_km(Rtt::from_ms(med_ping))).powi(2);
    println!(
        "\nmedian traceroute / median ping = {:.2}x (paper: 4.25x); feasible-area ratio ≈ {:.0}x (paper: 180x)",
        med_tr / med_ping,
        area_ratio
    );

    println!("\n# Figure 5b — fraction of VPs observing each router\n");
    let mut t = Table::new(vec!["quantile", "ping", "traceroute"]);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        t.row(vec![
            format!("p{}", (q * 100.0) as u32),
            format!("{:.3}", quantile(&ping_vp_frac, q)),
            format!("{:.3}", quantile(&tr_vp_frac, q)),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nrouters observed by exactly one VP in traceroute: {:.1}% (paper: 35.8%)",
        100.0 * tr_single as f64 / tr_total.max(1) as f64
    );
    println!(
        "mean fraction of VPs with a ping sample for responsive routers: {:.1}% (paper: 89.4%)",
        100.0 * ping_vp_frac.iter().sum::<f64>() / ping_vp_frac.len().max(1) as f64
    );
}
