//! The per-suffix evaluation context: memoized decode + the shared
//! RTT feasibility table.
//!
//! Stage-3 learning evaluates up to hundreds of candidate regexes per
//! suffix, and every evaluation asks two per-host questions whose
//! answers never change across candidates:
//!
//! - **decode** — `(hint text, type) → locations` is a property of the
//!   dictionary, not of the regex that extracted the hint;
//! - **feasibility** — `(router, location) → bool` is a property of the
//!   router's RTT samples, not of the regex either.
//!
//! [`EvalContext`] is built once per suffix in `learn_suffix` and
//! threaded through phases 1–4. It interns hint strings into dense
//! [`HintId`]s (computing the base dictionary decode exactly once per
//! distinct `(text, type)` pair) and answers feasibility from a
//! [`BestCaseTable`] shared by the whole learn, whose precomputed best
//! cases make each probe one compare per RTT sample.
//!
//! Stage-4 learned hints never invalidate the decode memo: a learned
//! hint maps a `(text, type)` pair to a *single* location, so the
//! evaluation path checks the `LearnedHints` overlay first and falls
//! back to the memoized base decode — the overlay is a delta on top of
//! the cache, not a reason to flush it.
//!
//! Decode memo traffic is tallied locally (plain `Cell`s — each context
//! lives on one worker thread) and flushed to the global `hoiho_obs`
//! counters `evalctx.decode.hit/miss` when the context drops, so
//! `hoiho learn -v` and the Prometheus renderer see per-run hit rates
//! without per-probe atomic traffic.

use crate::train::TrainHost;
use hoiho_geodb::GeoDb;
use hoiho_geotypes::{GeohintType, LocationId};
use hoiho_rtt::consistency::BestCaseTable;
use std::cell::{Cell, Ref, RefCell};
use std::collections::HashMap;

/// Dense id of an interned `(hint text, type)` pair, private to one
/// [`EvalContext`]. Ids are assigned in first-use order, which is the
/// deterministic host/candidate evaluation order of the suffix — so two
/// runs of the same suffix (on any thread) intern identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HintId(pub u32);

/// One interned hint with its precomputed base decode.
struct HintEntry {
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

/// Shared evaluation state for one suffix: the dictionary, the training
/// hosts, the decode memo and the best-case table every candidate
/// evaluation draws from.
pub struct EvalContext<'a> {
    /// The reference dictionary.
    pub db: &'a GeoDb,
    /// The registerable suffix under evaluation.
    pub suffix: &'a str,
    /// The suffix's training hosts (borrowed — candidates no longer
    /// clone the suffix or hosts into throwaway conventions).
    pub hosts: &'a [TrainHost<'a>],
    interner: RefCell<Interner>,
    table: &'a BestCaseTable,
    decode_hits: Cell<u64>,
    decode_misses: Cell<u64>,
}

impl<'a> EvalContext<'a> {
    /// A fresh context over one suffix's hosts whose feasibility probes
    /// are answered from `table`, which fixes the vantage points, the
    /// policy and the candidate locations (the dictionary's, in id
    /// order); a learn shares one across every suffix.
    pub fn new(
        db: &'a GeoDb,
        suffix: &'a str,
        hosts: &'a [TrainHost<'a>],
        table: &'a BestCaseTable,
    ) -> EvalContext<'a> {
        EvalContext {
            db,
            suffix,
            hosts,
            interner: RefCell::new(Interner::default()),
            table,
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
        i.entries.push(HintEntry { canon, base });
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

    /// RTT feasibility of `loc` for `host`'s router.
    pub fn feasible(&self, host: &TrainHost, loc: LocationId) -> bool {
        self.table.feasibility(host.rtts, loc)
    }

    /// Whether `host`'s router has a sample from a VP the table counts.
    pub fn constrained(&self, host: &TrainHost) -> bool {
        self.table.constrains(host.rtts)
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoiho_geotypes::Coordinates;
    use hoiho_rtt::{ConsistencyPolicy, VpSet};
    use std::collections::HashSet;

    fn world() -> (GeoDb, BestCaseTable) {
        let db = GeoDb::builtin();
        let mut vps = VpSet::new();
        vps.add("dca-us", Coordinates::new(38.9, -77.0));
        vps.add("lcy-gb", Coordinates::new(51.5, 0.05));
        let table = BestCaseTable::new(&vps, &ConsistencyPolicy::STRICT, db.coords(), &[]);
        (db, table)
    }

    #[test]
    fn intern_is_stable_and_memoizes_decode() {
        let (db, table) = world();
        let hosts: Vec<TrainHost> = Vec::new();
        let ctx = EvalContext::new(&db, "example.net", &hosts, &table);
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

    /// Canonical ids dedup hints by text across types, as unique-hint
    /// counts do.
    #[test]
    fn resolve_hints_dedups_by_text() {
        let (db, table) = world();
        let hosts: Vec<TrainHost> = Vec::new();
        let ctx = EvalContext::new(&db, "example.net", &hosts, &table);
        let a = ctx.intern("lhr", GeohintType::Iata);
        let b = ctx.intern("fra", GeohintType::Iata);
        let c = ctx.intern("lhr", GeohintType::CityName);
        let ids: HashSet<HintId> = [ctx.canonical(a), ctx.canonical(b), ctx.canonical(c)]
            .into_iter()
            .collect();
        assert_eq!(ids.len(), 2);
    }
}
