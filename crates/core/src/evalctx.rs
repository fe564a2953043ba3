//! The per-suffix evaluation context: memoized decode + RTT feasibility.
//!
//! Stage-3 learning evaluates up to hundreds of candidate regexes per
//! suffix, and every evaluation used to re-run two per-host computations
//! whose answers never change across candidates:
//!
//! - **decode** — `(hint text, type) → locations` is a property of the
//!   dictionary, not of the regex that extracted the hint;
//! - **feasibility** — `(router, location) → bool` is a property of the
//!   router's RTT samples, not of the regex either.
//!
//! [`EvalContext`] is built once per suffix in `learn_suffix` and
//! threaded through phases 1–4. It interns hint strings into dense
//! [`HintId`]s (computing the base dictionary decode exactly once per
//! distinct `(text, type)` pair) and memoizes the pure
//! [`hoiho_rtt::consistency::feasibility`] predicate per
//! `(router, location)` pair in a [`FeasibilityCache`].
//!
//! Stage-4 learned hints never invalidate the decode memo: a learned
//! hint maps a `(text, type)` pair to a *single* location, so the
//! evaluation path checks the `LearnedHints` overlay first and falls
//! back to the memoized base decode — the overlay is a delta on top of
//! the cache, not a reason to flush it.
//!
//! Cache traffic is tallied locally (plain `Cell`s — each context lives
//! on one worker thread) and flushed to the global `hoiho_obs` counters
//! `evalctx.decode.hit/miss` and `evalctx.feas.hit/miss` when the
//! context drops, so the Prometheus renderer and `learn_bench` see
//! per-run hit rates without per-probe atomic traffic.

use crate::train::TrainHost;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{GeohintType, LocationId};
use hoiho_rtt::{consistency::BestCaseTable, ConsistencyPolicy, RouterRtts, VpSet};
use std::cell::{Cell, Ref, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Dense id of an interned `(hint text, type)` pair, private to one
/// [`EvalContext`]. Ids are assigned in first-use order, which is the
/// deterministic host/candidate evaluation order of the suffix — so two
/// runs of the same suffix (on any thread) intern identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HintId(pub u32);

/// One interned hint with its precomputed base decode.
struct HintEntry {
    text: String,
    /// First id interned with the same text under *any* type. Metrics
    /// dedup unique hints by text alone (as the paper does), so they
    /// store this canonical id rather than the per-type one.
    canon: HintId,
    /// `db.lookup_typed(text, ty)`, computed once at intern time.
    base: Vec<LocationId>,
}

#[derive(Default)]
struct Interner {
    /// text → interned (type, id) pairs, in insertion order.
    by_text: HashMap<String, Vec<(GeohintType, HintId)>>,
    entries: Vec<HintEntry>,
}

/// A memoized view of the pure RTT-feasibility predicate.
///
/// Keys are `(caller-chosen u64, LocationId)`; the caller's key must
/// uniquely identify one set of RTT samples — a router id for
/// corpus-wide caches (`build_training_sets`, `detect_stale`), or the
/// address of the shared `Arc<RouterRtts>` inside an [`EvalContext`]
/// (robust even when hand-built hosts reuse a router id with different
/// samples). A miss is answered by the cache's [`BestCaseTable`], which
/// fixes the vantage points and policy and may be shared by many caches
/// (every stage-2 and stage-3 cache of one learn shares one). Feasibility
/// is a pure function of the samples, so cached answers are exactly what
/// [`feasibility`](hoiho_rtt::consistency::feasibility) would return.
#[derive(Debug)]
pub struct FeasibilityCache {
    table: Arc<BestCaseTable>,
    map: RefCell<HashMap<(u64, LocationId), bool>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    accepts: Cell<u64>,
    rejects: Cell<u64>,
}

impl FeasibilityCache {
    /// An empty cache answering its misses from `table`.
    pub fn new(table: Arc<BestCaseTable>) -> FeasibilityCache {
        FeasibilityCache {
            table,
            map: RefCell::default(),
            hits: Cell::default(),
            misses: Cell::default(),
            accepts: Cell::default(),
            rejects: Cell::default(),
        }
    }

    /// A cache with its own table for `vps` under `policy`, sized for
    /// `db`'s locations.
    pub fn standalone(db: &GeoDb, vps: &VpSet, policy: &ConsistencyPolicy) -> FeasibilityCache {
        FeasibilityCache::new(Arc::new(BestCaseTable::new(vps, policy, db.len())))
    }

    /// Whether `loc` is feasible for the router whose samples are
    /// `rtts`, identified by `key`. Computes and memoizes on first use.
    pub fn feasible(&self, db: &GeoDb, key: u64, rtts: &RouterRtts, loc: LocationId) -> bool {
        let cached = self.map.borrow().get(&(key, loc)).copied();
        let v = match cached {
            Some(v) => {
                self.hits.set(self.hits.get() + 1);
                v
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                let v = self.table.feasibility(rtts, loc, &db.location(loc).coords);
                self.map.borrow_mut().insert((key, loc), v);
                v
            }
        };
        // Every probe still counts toward the accept/reject totals the
        // uncached rtt_consistent path used to emit.
        if v {
            self.accepts.set(self.accepts.get() + 1);
        } else {
            self.rejects.set(self.rejects.get() + 1);
        }
        v
    }

    /// Flush the hit/miss tallies to the global `evalctx.feas.*`
    /// counters and reset them. Owners of long-lived caches call this
    /// once per unit of work; transient caches that never flush simply
    /// don't contribute.
    pub fn flush_obs(&self) {
        let (h, m) = (self.hits.take(), self.misses.take());
        if h > 0 {
            hoiho_obs::add("evalctx.feas.hit", h);
        }
        if m > 0 {
            hoiho_obs::add("evalctx.feas.miss", m);
        }
        let (a, r) = (self.accepts.take(), self.rejects.take());
        if a > 0 {
            hoiho_obs::add("rtt.consistency.accept", a);
        }
        if r > 0 {
            hoiho_obs::add("rtt.consistency.reject", r);
        }
    }
}

/// Shared evaluation state for one suffix: the dictionary, the training
/// hosts, plus the decode and feasibility memos every candidate
/// evaluation draws from.
pub struct EvalContext<'a> {
    /// The reference dictionary.
    pub db: &'a GeoDb,
    /// The registerable suffix under evaluation.
    pub suffix: &'a str,
    /// The suffix's training hosts (borrowed — candidates no longer
    /// clone the suffix or hosts into throwaway conventions).
    pub hosts: &'a [TrainHost],
    interner: RefCell<Interner>,
    feas: FeasibilityCache,
    decode_hits: Cell<u64>,
    decode_misses: Cell<u64>,
}

impl<'a> EvalContext<'a> {
    /// A fresh context over one suffix's hosts, with its own best-case
    /// table.
    pub fn new(
        db: &'a GeoDb,
        vps: &'a VpSet,
        policy: &'a ConsistencyPolicy,
        suffix: &'a str,
        hosts: &'a [TrainHost],
    ) -> EvalContext<'a> {
        let table = Arc::new(BestCaseTable::new(vps, policy, db.len()));
        EvalContext::with_table(db, suffix, hosts, table)
    }

    /// A fresh context whose feasibility misses are answered from a
    /// shared `table`, which fixes the vantage points and policy.
    pub fn with_table(
        db: &'a GeoDb,
        suffix: &'a str,
        hosts: &'a [TrainHost],
        table: Arc<BestCaseTable>,
    ) -> EvalContext<'a> {
        EvalContext {
            db,
            suffix,
            hosts,
            interner: RefCell::new(Interner::default()),
            feas: FeasibilityCache::new(table),
            decode_hits: Cell::new(0),
            decode_misses: Cell::new(0),
        }
    }

    /// Intern a `(text, type)` pair, computing its base dictionary
    /// decode on first use. Subsequent calls are one hash probe.
    pub fn intern(&self, text: &str, ty: GeohintType) -> HintId {
        if let Some(list) = self.interner.borrow().by_text.get(text) {
            if let Some(&(_, id)) = list.iter().find(|(t, _)| *t == ty) {
                self.decode_hits.set(self.decode_hits.get() + 1);
                return id;
            }
        }
        self.decode_misses.set(self.decode_misses.get() + 1);
        let base = self.db.lookup_typed(text, ty);
        let mut i = self.interner.borrow_mut();
        let id = HintId(i.entries.len() as u32);
        let canon = i.by_text.get(text).map_or(id, |list| list[0].1);
        i.by_text
            .entry(text.to_string())
            .or_default()
            .push((ty, id));
        i.entries.push(HintEntry {
            text: text.to_string(),
            canon,
            base,
        });
        id
    }

    /// The memoized base dictionary decode of an interned hint. The
    /// stage-4 learned overlay is *not* applied here — callers check
    /// `LearnedHints::get` first and fall back to this, which is why
    /// learning hints never flushes the memo.
    pub fn base_decode(&self, id: HintId) -> Ref<'_, [LocationId]> {
        Ref::map(self.interner.borrow(), |i| {
            i.entries[id.0 as usize].base.as_slice()
        })
    }

    /// The canonical id for metrics: the first id interned with the
    /// same text under any type (unique-hint counts dedup by text).
    pub fn canonical(&self, id: HintId) -> HintId {
        self.interner.borrow().entries[id.0 as usize].canon
    }

    /// Memoized RTT feasibility of `loc` for `host`'s router. Keyed by
    /// the address of the host's shared RTT table, so hosts of one
    /// router share answers while hand-built test hosts that reuse a
    /// router id with different samples stay distinct.
    pub fn feasible(&self, host: &TrainHost, loc: LocationId) -> bool {
        let key = Arc::as_ptr(&host.rtts) as u64;
        self.feas.feasible(self.db, key, &host.rtts, loc)
    }

    /// Resolve interned ids back to sorted hint texts — the report
    /// boundary, where humans want strings again.
    pub fn resolve_hints(&self, ids: &HashSet<HintId>) -> Vec<String> {
        let i = self.interner.borrow();
        let mut texts: Vec<String> = ids
            .iter()
            .map(|id| i.entries[id.0 as usize].text.clone())
            .collect();
        texts.sort();
        texts.dedup();
        texts
    }
}

impl Drop for EvalContext<'_> {
    fn drop(&mut self) {
        let (h, m) = (self.decode_hits.get(), self.decode_misses.get());
        if h > 0 {
            hoiho_obs::add("evalctx.decode.hit", h);
        }
        if m > 0 {
            hoiho_obs::add("evalctx.decode.miss", m);
        }
        self.feas.flush_obs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_geotypes::{Coordinates, Rtt};
    use hoiho_rtt::{consistency::feasibility, VpId};

    fn world() -> (GeoDb, VpSet) {
        let db = GeoDb::builtin();
        let mut vps = VpSet::new();
        vps.add("dca-us", Coordinates::new(38.9, -77.0));
        vps.add("lcy-gb", Coordinates::new(51.5, 0.05));
        (db, vps)
    }

    #[test]
    fn intern_is_stable_and_memoizes_decode() {
        let (db, vps) = world();
        let policy = ConsistencyPolicy::STRICT;
        let hosts: Vec<TrainHost> = Vec::new();
        let ctx = EvalContext::new(&db, &vps, &policy, "example.net", &hosts);
        let a = ctx.intern("lhr", GeohintType::Iata);
        let b = ctx.intern("lhr", GeohintType::Iata);
        assert_eq!(a, b);
        let direct = db.lookup_typed("lhr", GeohintType::Iata);
        assert_eq!(&*ctx.base_decode(a), direct.as_slice());
        // A different type of the same text is a distinct entry with the
        // same canonical id.
        let c = ctx.intern("lhr", GeohintType::CityName);
        assert_ne!(a, c);
        assert_eq!(ctx.canonical(c), ctx.canonical(a));
        assert_eq!(ctx.canonical(a), a);
    }

    #[test]
    fn feasibility_cache_matches_pure_predicate() {
        let (db, vps) = world();
        let policy = ConsistencyPolicy::STRICT;
        let mut rtts = RouterRtts::new();
        rtts.record(VpId(0), Rtt::from_ms(3.0));
        let cache = FeasibilityCache::standalone(&db, &vps, &policy);
        for &(hint, ty) in &[
            ("lhr", GeohintType::Iata),
            ("iad", GeohintType::Iata),
            ("fra", GeohintType::Iata),
        ] {
            for loc in db.lookup_typed(hint, ty) {
                let pure = feasibility(&vps, &rtts, &db.location(loc).coords, &policy);
                // First call computes, second must hit the memo; both
                // agree with the pure predicate.
                assert_eq!(cache.feasible(&db, 7, &rtts, loc), pure);
                assert_eq!(cache.feasible(&db, 7, &rtts, loc), pure);
            }
        }
        assert!(cache.hits.get() >= cache.misses.get());
    }

    #[test]
    fn resolve_hints_dedups_by_text() {
        let (db, vps) = world();
        let policy = ConsistencyPolicy::STRICT;
        let hosts: Vec<TrainHost> = Vec::new();
        let ctx = EvalContext::new(&db, &vps, &policy, "example.net", &hosts);
        let a = ctx.intern("lhr", GeohintType::Iata);
        let b = ctx.intern("fra", GeohintType::Iata);
        let c = ctx.intern("lhr", GeohintType::CityName);
        let ids: HashSet<HintId> = [ctx.canonical(a), ctx.canonical(b), ctx.canonical(c)]
            .into_iter()
            .collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(ctx.resolve_hints(&ids), vec!["fra", "lhr"]);
    }
}
