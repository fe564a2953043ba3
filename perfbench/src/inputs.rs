//! Seeded, byte-identical workload inputs.
//!
//! Every corpus is built from an explicit operator list through
//! `hoiho_itdk::generate::generate_with_operators`, never through
//! `hoiho_itdk::generate`: the latter's `make_operators` fills its
//! `iata_for`/`clli_for`/`locode_for` tables by first insert while
//! iterating `GeoDb`'s `HashMap`s, so the same seed yields different
//! corpora in different processes (see NOTES.md).

use hoiho_geodb::GeoDb;
use hoiho_itdk::format::write_corpus;
use hoiho_itdk::generate::generate_with_operators;
use hoiho_itdk::spec::{CorpusSpec, NamingStyle, OperatorSpec};
use hoiho_itdk::Corpus;
use hoiho_rtt::rng::{Rng, StdRng};
use hoiho_rtt::VpId;
use std::path::Path;
use std::time::Instant;

/// Routers in the ITDK-shaped corpus every workload runs on.
pub const ITDK_ROUTERS: usize = 100_000;
/// Operators cloned from the ground-truth templates for that corpus.
pub const ITDK_OPERATORS: usize = 1_800;
/// Zipf exponent of the per-operator router budget.
const ITDK_ZIPF: f64 = 0.72;
/// Vantage points turned into spoofers (paper §5.1.4 discarded seven).
pub const SPOOFERS: usize = 7;
/// The generator seed of the corpus, whatever `--seed` is. The corpus
/// decides what the learner finds and so how much work every later step
/// does: over seeds, the same settings served 10% more or fewer lookups
/// per second and learned in different times, which a gate would read
/// as noise. `--seed` draws the lookup stream.
pub const CORPUS_SEED: u64 = 1;
/// Hostnames in the lookup stream.
pub const STREAM_LEN: usize = 1 << 17;

/// 64-bit FNV-1a: a hash that is the same in every process and on
/// every Rust version, unlike `std`'s `DefaultHasher`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The ITDK-shaped corpus's operators: the suite's templates cloned into
/// [`ITDK_OPERATORS`] suffixes `<stem><i>.<tld>`, every other clone one
/// of the two no-geo noise templates, with a Zipf router budget.
pub fn itdk_operators(db: &GeoDb) -> Vec<OperatorSpec> {
    let suite = hoiho_bench::gt::suite(db);
    let (noise, geo): (Vec<OperatorSpec>, Vec<OperatorSpec>) = suite
        .into_iter()
        .partition(|o| o.style == NamingStyle::NoGeo);
    assert_eq!(noise.len(), 2, "the suite has two no-geo templates");
    let weights: Vec<f64> = (0..ITDK_OPERATORS)
        .map(|i| 1.0 / ((i + 1) as f64).powf(ITDK_ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..ITDK_OPERATORS)
        .map(|i| {
            let template = if i % 2 == 1 {
                &noise[(i / 2) % noise.len()]
            } else {
                &geo[(i / 2) % geo.len()]
            };
            let (stem, tld) = template
                .suffix
                .split_once('.')
                .expect("template suffixes have a dot");
            OperatorSpec {
                suffix: format!("{stem}{i}.{tld}"),
                router_count: ((ITDK_ROUTERS as f64 * weights[i] / total).round() as usize).max(1),
                hostname_rate: 0.55,
                ..template.clone()
            }
        })
        .collect()
}

/// Generate the ITDK-shaped corpus, spoofers injected.
pub fn corpus(db: &GeoDb) -> Corpus {
    let spec = CorpusSpec {
        label: "perfbench-itdk".into(),
        seed: CORPUS_SEED,
        ..CorpusSpec::ipv4_aug2020(ITDK_ROUTERS)
    };
    let mut corpus = generate_with_operators(db, &spec, itdk_operators(db)).corpus;
    inject_spoofers(&mut corpus, CORPUS_SEED);
    corpus
}

/// The spoofing vantage points [`corpus`] injects for `seed`, sorted.
pub fn spoofer_vps(vps: usize, seed: u64) -> Vec<VpId> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5900_F3D5);
    let mut chosen: Vec<VpId> = Vec::with_capacity(SPOOFERS);
    while chosen.len() < SPOOFERS {
        let vp = VpId(rng.random_range(0..vps) as u16);
        if !chosen.contains(&vp) {
            chosen.push(vp);
        }
    }
    chosen.sort();
    chosen
}

fn inject_spoofers(corpus: &mut Corpus, seed: u64) {
    let bad = spoofer_vps(corpus.vps.len(), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_5A3B);
    for r in &mut corpus.routers {
        // Only responsive routers were probed; a spoofing middlebox
        // answers each probe of its VP.
        if !r.rtts.is_empty() {
            hoiho_rtt::fault::inject_spoofing(&mut r.rtts, &bad, &mut rng);
        }
    }
}

/// The corpus file text.
pub fn corpus_text() -> String {
    let db = GeoDb::builtin();
    write_corpus(&corpus(&db))
}

/// What one generation wrote.
#[derive(Debug, Clone, Copy)]
pub struct Written {
    /// FNV-1a of the corpus file.
    pub hash: u64,
    /// Spoofing VPs the learner's own filter finds in the corpus.
    pub spoofers: usize,
    /// Seconds from loading the geographic database to the corpus file
    /// being written: the set-up the program under test does. The
    /// lookup stream and the spoofer check after it are the
    /// benchmark's own and are not counted.
    pub gen_s: f64,
}

/// Write the corpus file and the lookup stream (one hostname a line)
/// drawn with `seed`, then check the corpus with the learner's
/// spoofed-VP filter.
pub fn write_inputs(seed: u64, corpus_path: &Path, stream_path: &Path) -> std::io::Result<Written> {
    let start = Instant::now();
    let db = GeoDb::builtin();
    let corpus = corpus(&db);
    let text = write_corpus(&corpus);
    std::fs::write(corpus_path, &text)?;
    let gen_s = start.elapsed().as_secs_f64();
    let mut stream = zipf_stream(&hostnames(&corpus), STREAM_LEN, seed).join("\n");
    stream.push('\n');
    std::fs::write(stream_path, stream)?;
    let refs: Vec<&hoiho_rtt::RouterRtts> = corpus.routers.iter().map(|r| &r.rtts).collect();
    // The arguments `Hoiho::learn_corpus` uses.
    let found = hoiho_rtt::fault::detect_spoofing_vps_blind(&corpus.vps, &refs, 5.0, 5.0, 20);
    Ok(Written {
        hash: fnv1a(text.as_bytes()),
        spoofers: found.len(),
        gen_s,
    })
}

/// Every hostname of the corpus, in corpus order.
pub fn hostnames(corpus: &Corpus) -> Vec<String> {
    corpus
        .routers
        .iter()
        .flat_map(|r| r.hostnames().map(str::to_string))
        .collect()
}

/// A seeded Zipf draw of `n` hostnames over a seeded permutation of
/// `pool`: a few hostnames are hot, most are cold, and which ones are
/// hot does not follow corpus order.
pub fn zipf_stream(pool: &[String], n: usize, seed: u64) -> Vec<String> {
    // Flat enough that no handful of hostnames carries the stream. At
    // 0.9 the top ten would draw a fifth of it, and whether those few
    // hit would move the work per lookup from seed to seed.
    const EXPONENT: f64 = 0.6;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2F1F_5EED);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    let mut cdf = Vec::with_capacity(pool.len());
    let mut acc = 0.0;
    for rank in 0..pool.len() {
        acc += 1.0 / ((rank + 1) as f64).powf(EXPONENT);
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.random::<f64>() * acc;
            let rank = cdf.partition_point(|&c| c < u).min(pool.len() - 1);
            pool[order[rank]].clone()
        })
        .collect()
}
