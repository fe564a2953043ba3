//! Table 1: summary of the four ITDK-style corpora — routers, the
//! fraction with hostnames, the fraction with RTT samples, and VP
//! counts.
//!
//! Paper shape: ~55% of IPv4 and ~16% of IPv6 routers have hostnames;
//! ~82% / ~46% have RTT samples; ~100 IPv4 vs ~40 IPv6 VPs.

use hoiho_bench::{generate_view, itdk_specs, Table};

fn main() {
    let db = hoiho_bench::dictionary();
    eprintln!("generating corpora at scale {}…", hoiho_bench::scale());

    println!("\n# Table 1 — ITDK summaries (paper: 55.0/54.1/15.1/16.0 %hostname; 81.9/81.7/47.3/45.2 %RTT)\n");
    let mut t = Table::new(vec!["corpus", "routers", "w/ hostname", "w/ RTT", "VPs"]);
    for spec in itdk_specs() {
        let view = generate_view(&db, &spec);
        let routers = view.total_routers();
        let share = |n: usize| format!("{n} ({:.1}%)", 100.0 * n as f64 / routers.max(1) as f64);
        t.row(vec![
            view.label().to_string(),
            format!("{routers}"),
            share(view.routers_with_hostname()),
            share(view.routers_with_rtt()),
            format!("{}", view.vps().len()),
        ]);
    }
    print!("{}", t.render());
}
