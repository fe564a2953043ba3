//! The training view: what a learn reads of a corpus, gathered as the
//! corpus streams by.
//!
//! Learning reads the label, the vantage points, two router counts, the
//! spoofed-VP test over every router's ping RTTs, and the hostnames and
//! ping RTTs of the routers that have a hostname. A [`TrainingView`]
//! keeps only that: it drops interface addresses, generator truth,
//! traceroute RTTs and the samples of routers without a hostname. Each
//! kept router's samples sit in one flat arena, normalised as
//! [`RouterRtts::record`] leaves them (sorted by VP, one minimum per VP).
//! It also counts the routers with ping samples, so it holds every
//! number of the paper's Table 1 (§5.1.3), which `hoiho stats` prints.
//!
//! The view is built by one [`CorpusSink`]: [`TrainingView::read`] feeds
//! it from `corpus-v1` text through the corpus parser,
//! [`TrainingView::from_corpus`] replays a parsed [`Corpus`] through it,
//! and the generator can fill a [`TrainingView::new`] view directly, so
//! each gives the same view for the same corpus. As records pass, the
//! sink folds every router's ping samples into a [`SpoofFold`] and
//! checks every router's location against the dictionary size.

use hoiho_geotypes::{Coordinates, LocationId, Rtt};
use hoiho_itdk::format::{parse_corpus_into, replay, CorpusParseError, CorpusSink};
use hoiho_itdk::{Corpus, HostnameTruth};
use hoiho_rtt::fault::{SpoofFold, SpoofTest};
use hoiho_rtt::{RouterRtts, VpId, VpSet};
use std::io::BufRead;

/// The blind spoofed-VP test a learn and the stale-hostname scan apply
/// (§5.1.4): at least 20 samples, spread and upper median both within
/// 5 ms.
pub const SPOOF_TEST: SpoofTest = SpoofTest {
    max_spread_ms: 5.0,
    max_median_ms: 5.0,
    min_targets: 20,
};

/// One router with a hostname, as its ends in the view's arenas.
#[derive(Debug, Clone, Copy)]
struct Hosted {
    /// Index of the router in the corpus.
    index: u32,
    /// End of its hostnames in `name_ends`.
    names_end: usize,
    /// End of its samples in `samples`.
    samples_end: usize,
}

/// What learning reads of a corpus; see the [module docs](self).
#[derive(Debug)]
pub struct TrainingView {
    label: String,
    vps: VpSet,
    total_routers: usize,
    routers_with_rtt: usize,
    hosted: Vec<Hosted>,
    /// Every kept hostname, back to back; `name_ends` cuts them apart.
    names: String,
    name_ends: Vec<usize>,
    samples: Vec<(VpId, Rtt)>,
    spoof: SpoofFold,
    /// Dictionary size the routers' locations are checked against.
    locations: usize,
    unknown_location: Option<LocationId>,
}

/// One router with a hostname, borrowed from a [`TrainingView`].
#[derive(Debug, Clone, Copy)]
pub struct ViewRouter<'a> {
    /// Index of the router in the corpus.
    pub index: u32,
    /// The view's hostname arena.
    names: &'a str,
    /// Where the router's first hostname starts in `names`.
    start: usize,
    /// Where each of its hostnames ends in `names`.
    ends: &'a [usize],
    /// The router's ping samples.
    pub rtts: &'a [(VpId, Rtt)],
}

impl<'a> ViewRouter<'a> {
    /// The router's hostnames, in interface order.
    pub fn hostnames(&self) -> impl Iterator<Item = &'a str> + 'a {
        let names = self.names;
        self.ends.iter().scan(self.start, move |start, &end| {
            let h = &names[*start..end];
            *start = end;
            Some(h)
        })
    }
}

impl TrainingView {
    /// An empty view whose routers' locations are checked against a
    /// dictionary of `locations` entries: feed it records as a
    /// [`CorpusSink`], from the parser, the generator or [`replay`].
    pub fn new(locations: usize) -> TrainingView {
        TrainingView {
            label: String::new(),
            vps: VpSet::new(),
            total_routers: 0,
            routers_with_rtt: 0,
            hosted: Vec::new(),
            names: String::new(),
            name_ends: Vec::new(),
            samples: Vec::new(),
            spoof: SpoofFold::new(SPOOF_TEST),
            locations,
            unknown_location: None,
        }
    }

    /// The view of the `corpus-v1` text `input`, parsed one line at a
    /// time. Parse errors are the corpus parser's, for every record.
    /// `locations` is the dictionary size the routers' locations are
    /// checked against ([`TrainingView::unknown_location`]).
    pub fn read(input: impl BufRead, locations: usize) -> Result<TrainingView, CorpusParseError> {
        let mut view = TrainingView::new(locations);
        parse_corpus_into(input, &mut view)?;
        Ok(view)
    }

    /// The view of a parsed corpus: the view [`TrainingView::read`]
    /// gives for the corpus's text.
    pub fn from_corpus(corpus: &Corpus, locations: usize) -> TrainingView {
        let mut view = TrainingView::new(locations);
        replay(corpus, &mut view);
        view
    }

    /// The corpus label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The vantage points RTTs refer to.
    pub fn vps(&self) -> &VpSet {
        &self.vps
    }

    /// Routers in the corpus.
    pub fn total_routers(&self) -> usize {
        self.total_routers
    }

    /// Routers with a hostname: the ones the view keeps.
    pub fn routers_with_hostname(&self) -> usize {
        self.hosted.len()
    }

    /// Routers with at least one ping sample.
    pub fn routers_with_rtt(&self) -> usize {
        self.routers_with_rtt
    }

    /// The first router location, in corpus order, that is not below the
    /// dictionary size the view was built with.
    pub fn unknown_location(&self) -> Option<LocationId> {
        self.unknown_location
    }

    /// The routers with a hostname, in corpus order.
    pub fn routers(&self) -> impl Iterator<Item = ViewRouter<'_>> {
        let mut from = (0, 0);
        self.hosted.iter().map(move |h| {
            let (names_from, samples_from) =
                std::mem::replace(&mut from, (h.names_end, h.samples_end));
            ViewRouter {
                index: h.index,
                names: &self.names,
                start: names_from.checked_sub(1).map_or(0, |i| self.name_ends[i]),
                ends: &self.name_ends[names_from..h.names_end],
                rtts: &self.samples[samples_from..h.samples_end],
            }
        })
    }

    /// The VPs [`SPOOF_TEST`] flags over every router's ping samples, in
    /// id order. Adds the `rtt.spoof.*` counters.
    pub fn spoofing_vps(&self) -> Vec<VpId> {
        self.spoof.flagged(&self.vps)
    }
}

/// The sink behind [`TrainingView::read`] and
/// [`TrainingView::from_corpus`].
impl CorpusSink for TrainingView {
    fn header(&mut self, label: &str) {
        self.label = label.to_string();
    }

    fn vp(&mut self, name: &str, coords: Coordinates) {
        self.vps.add(name, coords);
    }

    fn node(&mut self, location: LocationId) {
        if self.unknown_location.is_none() && location.0 as usize >= self.locations {
            self.unknown_location = Some(location);
        }
        self.total_routers += 1;
    }

    fn iface(&mut self, _addr: &str, hostname: Option<&str>) {
        if let Some(h) = hostname {
            self.names.push_str(h);
            self.name_ends.push(self.names.len());
        }
    }

    fn truth(&mut self, _truth: HostnameTruth) {}

    fn end_router(&mut self, rtts: &mut RouterRtts, _traceroute_rtts: &mut RouterRtts) {
        self.spoof.add(rtts.samples());
        self.routers_with_rtt += usize::from(!rtts.is_empty());
        let named = self.hosted.last().map_or(0, |h| h.names_end);
        if self.name_ends.len() > named {
            self.samples.extend_from_slice(rtts.samples());
            self.hosted.push(Hosted {
                index: (self.total_routers - 1) as u32,
                names_end: self.name_ends.len(),
                samples_end: self.samples.len(),
            });
        }
    }
}

/// The corpus parser's case tables, shared with its own tests.
#[cfg(test)]
#[path = "../../itdk/src/format/cases.rs"]
mod format_cases;

#[cfg(test)]
mod tests {
    use super::format_cases::{RECORD_CASES, RTT_CASES, RTT_HEAD};
    use super::*;
    use hoiho_itdk::format::parse_corpus;
    use std::io::BufReader;

    const TEXT: &str = "corpus-v1 t\nvp a 1.0 2.0\nvp b 3.0 4.0\n\
        node N0 loc=3\niface 10.0.0.1 a.x.net\nrtt 1:9 0:5 1:4\niface 10.0.0.2\n\
        iface 10.0.0.3 b.x.net\ntruth - - fresh own\ntrtt 0:1\n\
        node N1 loc=7\niface 10.0.0.4\nrtt 0:2\n\
        node N2 loc=9\niface 10.0.0.5 c.y.org\n";

    /// Samples as `(vp id, µs)` pairs.
    fn plain(rtts: &[(VpId, Rtt)]) -> Vec<(u16, u32)> {
        rtts.iter().map(|(v, r)| (v.0, r.as_us())).collect()
    }

    #[test]
    fn keeps_hostnamed_routers_with_their_samples() {
        let view = TrainingView::read(TEXT.as_bytes(), 8).expect("parse");
        assert_eq!(view.label(), "t");
        assert_eq!(view.vps().len(), 2);
        assert_eq!(view.total_routers(), 3);
        assert_eq!(view.routers_with_hostname(), 2);
        assert_eq!(view.routers_with_rtt(), 2);
        assert_eq!(view.unknown_location(), Some(LocationId(9)));
        let routers: Vec<ViewRouter> = view.routers().collect();
        let names: Vec<(u32, Vec<&str>)> = routers
            .iter()
            .map(|r| (r.index, r.hostnames().collect()))
            .collect();
        assert_eq!(
            names,
            [(0, vec!["a.x.net", "b.x.net"]), (2, vec!["c.y.org"])]
        );
        assert_eq!(plain(routers[0].rtts), [(0, 5), (1, 4)]);
        assert!(routers[1].rtts.is_empty());
        // The location check follows the dictionary size.
        let view = TrainingView::read(TEXT.as_bytes(), 10).expect("parse");
        assert_eq!(view.unknown_location(), None);
    }

    #[test]
    fn replay_gives_the_parsed_view() {
        let corpus = parse_corpus(TEXT).expect("parse");
        let read = TrainingView::read(TEXT.as_bytes(), 8).expect("parse");
        let replayed = TrainingView::from_corpus(&corpus, 8);
        assert_eq!(format!("{read:?}"), format!("{replayed:?}"));
    }

    /// Every row of the parser's case tables gives the same answer
    /// through the view's sink as through the corpus's, whatever the
    /// read buffer's size: the parser, not a sink, decides every error,
    /// also on the records the view drops.
    #[test]
    fn parse_errors_match_the_corpus_sink() {
        let rtt_texts = RTT_CASES
            .iter()
            .map(|(body, _)| format!("{RTT_HEAD}{body}"));
        let texts = RECORD_CASES
            .iter()
            .map(|(text, _)| text.to_string())
            .chain(rtt_texts);
        for text in texts {
            let want = parse_corpus(&text).map(drop);
            for capacity in [1, 64 << 10] {
                let input = BufReader::with_capacity(capacity, text.as_bytes());
                let got = TrainingView::read(input, 8).map(drop);
                assert_eq!(got, want, "capacity {capacity}: {text:?}");
            }
        }
    }

    /// The Table-1 shares land near the generator's configured rates.
    #[test]
    fn table1_shares_match_the_generator_rates() {
        let db = hoiho_geodb::GeoDb::builtin();
        let spec = hoiho_itdk::CorpusSpec {
            label: "stats-test".into(),
            seed: 6,
            operators: 8,
            routers: 300,
            geo_operator_fraction: 0.5,
            sloppy_operator_fraction: 0.0,
            hostname_rate: 0.55,
            rtt_response_rate: 0.82,
            vps: 12,
            custom_hint_operator_fraction: 0.3,
            custom_hint_rate: 0.2,
            stale_fraction: 0.005,
            provider_side_fraction: 0.0,
            ipv6: false,
        };
        let g = hoiho_itdk::generate(&db, &spec);
        let view = TrainingView::from_corpus(&g.corpus, db.len());
        assert_eq!(view.total_routers(), g.corpus.len());
        assert_eq!(view.vps().len(), 12);
        let pct = |n: usize| 100.0 * n as f64 / view.total_routers() as f64;
        let hostname = pct(view.routers_with_hostname());
        let rtt = pct(view.routers_with_rtt());
        assert!((40.0..70.0).contains(&hostname), "{hostname}");
        assert!((70.0..95.0).contains(&rtt), "{rtt}");
    }

    /// A router's samples reach the view normalised as
    /// `RouterRtts::record` leaves them: each RTT case that parses, on a
    /// router given a hostname, keeps the samples the table names.
    #[test]
    fn samples_are_normalised_as_recorded() {
        for (body, want) in RTT_CASES {
            let Ok(want) = want else { continue };
            let text = format!("{RTT_HEAD}iface 10.0.0.1 a.x.net\n{body}");
            let view = TrainingView::read(text.as_bytes(), 8).expect("parse");
            let router = view.routers().next().expect("one hostnamed router");
            assert_eq!(plain(router.rtts), *want, "{body:?}");
        }
    }
}
