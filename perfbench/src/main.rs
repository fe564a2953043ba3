//! `perfbench` — the repository's benchmark of learn and lookup.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench gen SEED CORPUS STREAM   (the set-up child)
//! ```
//!
//! Run from the repository root, through `BENCHMARK.json`'s command. It
//! builds the `hoiho` CLI from the checkout, runs one workload, and
//! prints one JSON result line last on stdout. See NOTES.md.

mod child;
mod inputs;
mod load;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::Outcome;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("gen") {
        generate(&args[1..])
    } else {
        bench(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The set-up child: write one corpus and its lookup stream, and print
/// the corpus hash, the spoofing VPs found in it and the generation
/// time.
fn generate(args: &[String]) -> Result<(), String> {
    let [seed, corpus, stream] = args else {
        return Err("usage: perfbench gen SEED CORPUS STREAM".into());
    };
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let w = inputs::write_inputs(seed, corpus.as_ref(), stream.as_ref())
        .map_err(|e| format!("writing inputs: {e}"))?;
    println!("{:016x} {} {}", w.hash, w.spoofers, w.gen_s);
    Ok(())
}

fn bench(args: &[String]) -> Result<(), String> {
    let mut name = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => traced = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let w = workload::by_name(&name).ok_or(format!("unknown workload {name:?}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let hoiho = child::build_cli()?;
    let outcome = if traced {
        trace::run(seed, &hoiho)?
    } else {
        workload::run(w, seed, seconds, &hoiho)?
    };
    for p in &outcome.problems {
        eprintln!("[{name}] check failed: {p}");
    }
    println!("{}", result_line(&outcome)?);
    Ok(())
}

/// The JSON result line the benchmark contract asks for.
fn result_line(o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &o.metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    ))
}
