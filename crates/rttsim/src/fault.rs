//! Measurement fault injection and detection (§5.1.4).
//!
//! The paper discarded TCP-probe RTTs from seven VPs whose access
//! routers *spoofed* TCP reset responses: RTTs were 1–2 ms regardless of
//! target distance. This module injects that pathology into a simulated
//! measurement campaign and implements the automatic filter the paper
//! sketches as future work: [`detect_spoofing_vps_blind`] flags VPs
//! whose RTTs are implausibly tight and small across all their targets,
//! from four numbers per VP that a [`SpoofFold`] gathers one router at a
//! time, and
//! [`strip_vps`] removes the flagged VPs' samples from a measurement.

use crate::rng::Rng;
use crate::{RouterRtts, VpId, VpSet};
use hoiho_geotypes::Rtt;

/// Replace the samples of `spoofed_vps` in a measurement with constant
/// near-zero RTTs, as a spoofing middlebox would.
pub fn inject_spoofing<R: Rng + ?Sized>(
    samples: &mut RouterRtts,
    spoofed_vps: &[VpId],
    rng: &mut R,
) {
    for &vp in spoofed_vps {
        let fake = 1.0 + rng.random::<f64>(); // 1–2 ms
        samples.record_spoofed(vp, Rtt::from_ms(fake));
    }
}

impl RouterRtts {
    /// Overwrite (not minimum-merge) the sample for one VP — used only by
    /// fault injection, where the spoofed value replaces reality.
    pub fn record_spoofed(&mut self, vp: VpId, rtt: Rtt) {
        match self.samples.binary_search_by_key(&vp, |(v, _)| *v) {
            Ok(i) => self.samples[i].1 = rtt,
            Err(i) => self.samples.insert(i, (vp, rtt)),
        }
    }
}

/// The thresholds of the blind spoofing test: a VP is flagged when it
/// has at least `min_targets` samples, their spread is at most
/// `max_spread_ms` and their upper median (the `n / 2`-th smallest) is
/// at most `max_median_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpoofTest {
    /// Largest max − min RTT of a flagged VP, in ms.
    pub max_spread_ms: f64,
    /// Largest upper-median RTT of a flagged VP, in ms.
    pub max_median_ms: f64,
    /// Fewest samples a flagged VP has.
    pub min_targets: usize,
}

/// The blind spoofing test as a fold: routers' samples go in one router
/// at a time, in any order, and [`SpoofFold::flagged`] answers from
/// four numbers per VP. A streaming reader feeds it as records pass, so
/// no router's samples need to be kept for it.
#[derive(Debug, Clone)]
pub struct SpoofFold {
    test: SpoofTest,
    /// Per VP id: `(n, min, max, le)`, where `le` counts samples at or
    /// under `max_median_ms`. The upper median is at or under the bound
    /// exactly when `le > n / 2`, which also keeps a VP with no samples
    /// from being flagged.
    acc: Vec<(usize, f64, f64, usize)>,
}

impl SpoofFold {
    /// An empty fold for `test`.
    pub fn new(test: SpoofTest) -> SpoofFold {
        SpoofFold {
            test,
            acc: Vec::new(),
        }
    }

    /// Fold in one router's samples.
    pub fn add(&mut self, samples: &[(VpId, Rtt)]) {
        for &(vp, rtt) in samples {
            let i = usize::from(vp.0);
            if i >= self.acc.len() {
                self.acc.resize(i + 1, (0, f64::INFINITY, 0.0, 0));
            }
            let (n, min, max, le) = &mut self.acc[i];
            let ms = rtt.as_ms();
            *n += 1;
            *min = min.min(ms);
            *max = max.max(ms);
            *le += usize::from(ms <= self.test.max_median_ms);
        }
    }

    /// The VPs of `vps` the test flags, in id order. Samples naming a VP
    /// outside `vps` are not counted. Adds `rtt.spoof.vps_checked` and
    /// `rtt.spoof.vps_flagged`.
    pub fn flagged(&self, vps: &VpSet) -> Vec<VpId> {
        let SpoofTest {
            max_spread_ms,
            min_targets,
            ..
        } = self.test;
        let flagged: Vec<VpId> = vps
            .iter()
            .map(|(vp_id, _)| vp_id)
            .filter(|vp_id| {
                self.acc
                    .get(usize::from(vp_id.0))
                    .is_some_and(|&(n, min, max, le)| {
                        n >= min_targets && max - min <= max_spread_ms && le > n / 2
                    })
            })
            .collect();
        hoiho_obs::add("rtt.spoof.vps_checked", vps.len() as u64);
        hoiho_obs::add("rtt.spoof.vps_flagged", flagged.len() as u64);
        flagged
    }
}

/// Detect spoofing VPs without target locations. A spoofing middlebox
/// answers every probe locally, so the VP's RTT distribution across many
/// targets is implausibly tight and implausibly small; an honest VP
/// probing Internet-spread targets sees a wide spread.
///
/// The [`SpoofTest`] of the three thresholds over `campaigns`, through
/// one [`SpoofFold`]. Samples naming a VP outside `vps` are skipped.
pub fn detect_spoofing_vps_blind(
    vps: &VpSet,
    campaigns: &[&RouterRtts],
    max_spread_ms: f64,
    max_median_ms: f64,
    min_targets: usize,
) -> Vec<VpId> {
    let mut fold = SpoofFold::new(SpoofTest {
        max_spread_ms,
        max_median_ms,
        min_targets,
    });
    for samples in campaigns {
        fold.add(samples.samples());
    }
    fold.flagged(vps)
}

/// Remove every sample taken by the given VPs from a measurement —
/// what the paper did manually for its seven spoofing VPs. The learner
/// makes no such copy: its [`BestCaseTable`](crate::consistency::BestCaseTable)
/// ignores the flagged VPs' samples in place and answers as if they had
/// been removed here.
pub fn strip_vps(samples: &RouterRtts, bad: &[VpId]) -> RouterRtts {
    // Filtering keeps the input's VP order, so the result stays sorted.
    let mut out = RouterRtts {
        samples: Vec::with_capacity(samples.len()),
    };
    out.samples
        .extend(samples.samples.iter().filter(|(vp, _)| !bad.contains(vp)));
    if hoiho_obs::enabled() {
        hoiho_obs::counter!("rtt.spoof.samples_stripped").add((samples.len() - out.len()) as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::RttModel;
    use hoiho_geotypes::Coordinates;

    fn world() -> VpSet {
        let mut vps = VpSet::new();
        vps.add("dca", Coordinates::new(38.9, -77.0));
        vps.add("sjc", Coordinates::new(37.3, -121.9));
        vps.add("ams", Coordinates::new(52.4, 4.9));
        vps
    }

    fn targets() -> Vec<Coordinates> {
        vec![
            Coordinates::new(39.0, -77.5),   // Ashburn
            Coordinates::new(34.05, -118.2), // LA
            Coordinates::new(51.5, -0.1),    // London
            Coordinates::new(35.68, 139.65), // Tokyo
            Coordinates::new(-33.87, 151.2), // Sydney
        ]
    }

    /// The detector as it was before the accumulators: scatter every
    /// sample into a per-VP bucket, select the upper median, rescan for
    /// the extremes. Kept as the equivalence reference; like the
    /// original it panics on an empty bucket when `min_targets` is 0.
    fn reference_spoofing_vps(
        vps: &VpSet,
        campaigns: &[&RouterRtts],
        max_spread_ms: f64,
        max_median_ms: f64,
        min_targets: usize,
    ) -> Vec<VpId> {
        let mut per_vp: Vec<Vec<f64>> = vec![Vec::new(); vps.len()];
        for samples in campaigns {
            for (vp, rtt) in samples.samples() {
                if let Some(bucket) = per_vp.get_mut(vp.0 as usize) {
                    bucket.push(rtt.as_ms());
                }
            }
        }
        let mut flagged = Vec::new();
        for (vp_id, _) in vps.iter() {
            let rtts = &mut per_vp[vp_id.0 as usize];
            if rtts.len() < min_targets {
                continue;
            }
            let mid = rtts.len() / 2;
            let (_, &mut median, _) = rtts.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
            let mut lo = rtts[0];
            let mut hi = rtts[0];
            for &v in rtts.iter() {
                if v.total_cmp(&lo).is_lt() {
                    lo = v;
                }
                if v.total_cmp(&hi).is_gt() {
                    hi = v;
                }
            }
            if hi - lo <= max_spread_ms && median <= max_median_ms {
                flagged.push(vp_id);
            }
        }
        flagged
    }

    fn vp_set(n: usize) -> VpSet {
        let mut vps = VpSet::new();
        for i in 0..n {
            vps.add(format!("vp{i}"), Coordinates::new(0.0, 0.0));
        }
        vps
    }

    /// One target's samples as (VP id, RTT in µs).
    type Target<'a> = &'a [(u16, u32)];

    /// One campaign per target, each holding one sample per VP listed
    /// for that target.
    fn campaigns_us(per_target: &[Target]) -> Vec<RouterRtts> {
        per_target
            .iter()
            .map(|samples| {
                let mut s = RouterRtts::new();
                for &(vp, us) in *samples {
                    s.record(VpId(vp), Rtt::from_us(us));
                }
                s
            })
            .collect()
    }

    /// Both detectors agree on `campaigns` for every threshold triple.
    fn assert_matches_reference(vps: &VpSet, campaigns: &[RouterRtts], label: &str) {
        let refs: Vec<&RouterRtts> = campaigns.iter().collect();
        for spread in [0.0, 1.0, 5.0, 1e300] {
            for median in [0.0, 1.0, 2.0, 5.0, 1e300] {
                for min_targets in 1..=4 {
                    assert_eq!(
                        detect_spoofing_vps_blind(vps, &refs, spread, median, min_targets),
                        reference_spoofing_vps(vps, &refs, spread, median, min_targets),
                        "{label}: spread {spread} median {median} min_targets {min_targets}"
                    );
                }
            }
        }
    }

    #[test]
    fn injection_overwrites_with_small_rtts() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(80.0));
        inject_spoofing(&mut s, &[VpId(0)], &mut rng);
        let rtt = s.samples()[0].1.as_ms();
        assert!((1.0..=2.0).contains(&rtt), "got {rtt}");
    }

    #[test]
    fn detection_requires_enough_targets() {
        let vps = world();
        assert!(detect_spoofing_vps_blind(&vps, &[], 5.0, 5.0, 3).is_empty());
        // VP 1 answers every target in 1 ms: flagged at `min_targets`
        // samples, not at one fewer.
        let campaigns = campaigns_us(&[&[(1, 1_000)], &[(1, 1_000)], &[(1, 1_000)]]);
        let refs: Vec<&RouterRtts> = campaigns.iter().collect();
        assert!(detect_spoofing_vps_blind(&vps, &refs[..2], 5.0, 5.0, 3).is_empty());
        assert_eq!(
            detect_spoofing_vps_blind(&vps, &refs, 5.0, 5.0, 3),
            vec![VpId(1)]
        );
    }

    #[test]
    fn vp_without_samples_is_never_flagged() {
        let vps = world();
        assert!(detect_spoofing_vps_blind(&vps, &[], 5.0, 5.0, 0).is_empty());
        // Only VP 0 has samples; the silent VPs 1 and 2 stay unflagged.
        let campaigns = campaigns_us(&[&[(0, 1_000)]]);
        let refs: Vec<&RouterRtts> = campaigns.iter().collect();
        assert_eq!(
            detect_spoofing_vps_blind(&vps, &refs, 5.0, 5.0, 0),
            vec![VpId(0)]
        );
    }

    #[test]
    fn blind_detection_finds_spoofers() {
        let vps = world();
        let model = RttModel {
            per_vp_response_rate: 1.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(99);
        let spoofed = vec![VpId(2)];
        let mut campaigns_owned = Vec::new();
        for t in targets() {
            let mut s = model.probe_from_all(&vps, &t, &mut rng);
            inject_spoofing(&mut s, &spoofed, &mut rng);
            campaigns_owned.push(s);
        }
        let refs: Vec<&RouterRtts> = campaigns_owned.iter().collect();
        let flagged = detect_spoofing_vps_blind(&vps, &refs, 5.0, 5.0, 3);
        assert_eq!(flagged, vec![VpId(2)]);
    }

    #[test]
    fn accumulators_match_reference_on_seeded_campaigns() {
        let model = RttModel {
            per_vp_response_rate: 0.6,
            ..Default::default()
        };
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let vps = vp_set(rng.random_range(1..8usize));
            let mut campaigns = Vec::new();
            for _ in 0..rng.random_range(0..12usize) {
                let lat = rng.random::<f64>() * 160.0 - 80.0;
                let lon = rng.random::<f64>() * 360.0 - 180.0;
                let mut s = model.probe_from_all(&vps, &Coordinates::new(lat, lon), &mut rng);
                // Some VPs spoof, some answer in a few ms from nearby.
                for (vp, _) in vps.iter() {
                    match rng.random_range(0..4u8) {
                        0 => s.record_spoofed(vp, Rtt::from_ms(1.0 + rng.random::<f64>())),
                        1 => {
                            // The draw stays a u64: its type fixes the RNG stream.
                            let us = rng.random_range(0..6_000u64);
                            s.record_spoofed(vp, Rtt::from_us(us as u32))
                        }
                        _ => {}
                    }
                }
                campaigns.push(s);
            }
            assert_matches_reference(&vps, &campaigns, &format!("seed {seed}"));
        }
    }

    #[test]
    fn accumulators_match_reference_on_adversarial_campaigns() {
        let vps = vp_set(3);
        let table: &[(&str, &[Target])] = &[
            ("no campaigns", &[]),
            ("n = 1", &[&[(0, 1_000), (1, 2_000), (2, 9_000)]]),
            // Odd n = 3: two of three at the 2 ms bound flag, one does not.
            (
                "odd, half plus one at bound",
                &[&[(0, 2_000)], &[(0, 2_000)], &[(0, 2_001)]],
            ),
            (
                "odd, under half at bound",
                &[&[(0, 2_000)], &[(0, 2_001)], &[(0, 2_001)]],
            ),
            // Even n = 4: the upper median needs three of four at the bound.
            (
                "even, exactly half at bound",
                &[&[(1, 2_000)], &[(1, 2_000)], &[(1, 2_001)], &[(1, 2_001)]],
            ),
            (
                "even, half plus one at bound",
                &[&[(1, 2_000)], &[(1, 2_000)], &[(1, 2_000)], &[(1, 2_001)]],
            ),
            // Spread exactly 1 ms and 5 ms, a hair over each.
            (
                "spread at bound",
                &[&[(2, 1_000), (0, 0)], &[(2, 2_000), (0, 5_000)]],
            ),
            (
                "spread over bound",
                &[&[(2, 1_000), (0, 0)], &[(2, 2_001), (0, 5_001)]],
            ),
            ("zero rtts", &[&[(0, 0), (1, 0)], &[(0, 0), (1, 0)]]),
            (
                "max rtts",
                &[&[(0, u32::MAX), (1, 0)], &[(0, u32::MAX), (1, u32::MAX)]],
            ),
            // VP ids 3 and 500 are not in the set and must be skipped.
            (
                "vps beyond the set",
                &[
                    &[(0, 1_000), (3, 1_000), (500, 1_000)],
                    &[(3, 1_000), (500, 9_000)],
                ],
            ),
        ];
        for (label, per_target) in table {
            assert_matches_reference(&vps, &campaigns_us(per_target), label);
        }
    }

    #[test]
    fn strip_vps_removes_samples() {
        let mut s = RouterRtts::new();
        s.record(VpId(0), Rtt::from_ms(10.0));
        s.record(VpId(1), Rtt::from_ms(20.0));
        let cleaned = strip_vps(&s, &[VpId(0)]);
        assert_eq!(cleaned.len(), 1);
        assert_eq!(cleaned.samples()[0].0, VpId(1));
        // Stripping nothing is identity.
        assert_eq!(strip_vps(&s, &[]), s);
    }
}
