//! The read-optimized lookup index and its epoch-swapped shared handle.
//!
//! A [`LookupIndex`] is an immutable snapshot of one artifact file:
//! core's [`Geolocator`] together with the dictionary and suffix list
//! its answers need. Every query goes through [`Geolocator::lookup`],
//! the same path `hoiho apply` takes. Workers never lock the index —
//! they hold an `Arc` for the duration of one request. Hot reload
//! builds a fresh index off to the side and swaps it into the
//! [`SharedIndex`] with the epoch counter bumped; in-flight requests
//! keep the `Arc` they already loaded, so a swap can never fail a
//! request.
//!
//! An index read from a file remembers the file's `(mtime, len, inode)`
//! as it was just *before* the read. The reload watcher starts from that
//! stamp, so a rewrite that lands after the read, before the watcher
//! first runs, is still seen and served. A rewrite by rename (write a
//! new file, rename it over the old) gets a new inode, so it is seen
//! even when it keeps the length and lands inside one mtime tick. An
//! in-place rewrite that keeps the length inside one mtime tick still
//! changes no part of the stamp and is missed until the next change.

use hoiho::apply::GeoInference;
use hoiho::artifact::{parse_artifacts, ArtifactError};
use hoiho::Geolocator;
use hoiho_geodb::GeoDb;
use hoiho_psl::PublicSuffixList;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::SystemTime;

/// A file's `(mtime, len, inode)`, or `None` when it cannot be read.
/// The inode is 0 where the platform has none.
pub(crate) type Stamp = Option<(SystemTime, u64, u64)>;

/// The current [`Stamp`] of the file at `path`, from one `metadata`
/// call.
pub(crate) fn stamp(path: &Path) -> Stamp {
    let m = std::fs::metadata(path).ok()?;
    #[cfg(unix)]
    let inode = std::os::unix::fs::MetadataExt::ino(&m);
    #[cfg(not(unix))]
    let inode = 0;
    Some((m.modified().ok()?, m.len(), inode))
}

/// An immutable snapshot of one artifact file together with the
/// dictionary and suffix list needed to answer queries.
pub struct LookupIndex {
    db: Arc<GeoDb>,
    psl: Arc<PublicSuffixList>,
    geo: Geolocator,
    /// The source file's stamp, taken before it was read; `None` for an
    /// index built from text in memory.
    pub(crate) stamp: Stamp,
}

impl LookupIndex {
    /// Parse `text` as `hoiho-artifacts-v1` and build an index. A parse
    /// error leaves any previously-built index untouched (the caller
    /// simply keeps serving it).
    pub fn from_artifacts(
        db: Arc<GeoDb>,
        psl: Arc<PublicSuffixList>,
        text: &str,
    ) -> Result<LookupIndex, ArtifactError> {
        let geo = parse_artifacts(text, &db)?;
        Ok(LookupIndex {
            db,
            psl,
            geo,
            stamp: None,
        })
    }

    /// Stamp the artifact file at `path`, then read and parse it. The
    /// index keeps the stamp, so a reload watcher started over it sees
    /// every rewrite that lands after the stamp was taken. A read error
    /// is returned as it is; a parse error as
    /// [`InvalidData`](std::io::ErrorKind::InvalidData).
    pub fn open(
        db: Arc<GeoDb>,
        psl: Arc<PublicSuffixList>,
        path: &Path,
    ) -> std::io::Result<LookupIndex> {
        let stamp = stamp(path);
        let text = std::fs::read_to_string(path)?;
        let index = LookupIndex::from_artifacts(db, psl, &text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(LookupIndex { stamp, ..index })
    }

    /// [`LookupIndex::open`] over the same dictionary and suffix list
    /// (hot reload).
    pub fn reload(&self, path: &Path) -> std::io::Result<LookupIndex> {
        LookupIndex::open(Arc::clone(&self.db), Arc::clone(&self.psl), path)
    }

    /// Number of suffixes covered.
    pub fn len(&self) -> usize {
        self.geo.len()
    }

    /// Whether the index covers no suffix.
    pub fn is_empty(&self) -> bool {
        self.geo.is_empty()
    }

    /// The dictionary queries decode against.
    pub fn db(&self) -> &GeoDb {
        &self.db
    }

    /// Geolocate one hostname through [`Geolocator::lookup`].
    /// `scratch` is the reusable buffer the hostname is lowercased
    /// into; each worker thread owns one.
    pub fn lookup(&self, hostname: &str, scratch: &mut String) -> Option<GeoInference> {
        self.geo.lookup(&self.db, &self.psl, hostname, scratch)
    }
}

/// The epoch-swapped handle workers read the current index through.
///
/// `load` takes a read lock just long enough to clone the `Arc`;
/// `swap` installs a replacement and bumps the epoch. Readers that
/// loaded the old index finish their request against it — an artifact
/// reload never drops or fails an in-flight query.
pub struct SharedIndex {
    current: RwLock<Arc<LookupIndex>>,
    epoch: AtomicU64,
}

impl SharedIndex {
    /// Wrap an initial index at epoch 1.
    pub fn new(index: LookupIndex) -> SharedIndex {
        SharedIndex {
            current: RwLock::new(Arc::new(index)),
            epoch: AtomicU64::new(1),
        }
    }

    /// The current index. Callers hold the returned `Arc` for one
    /// request and drop it; the last holder of a replaced index frees
    /// it.
    pub fn load(&self) -> Arc<LookupIndex> {
        Arc::clone(&self.current.read().expect("index lock poisoned"))
    }

    /// Install a new index and return the new epoch.
    pub fn swap(&self, index: LookupIndex) -> u64 {
        *self.current.write().expect("index lock poisoned") = Arc::new(index);
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// The generation of the installed index (starts at 1, +1 per swap).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts(suffixes: &[&str]) -> String {
        let mut text = String::from("hoiho-artifacts-v1\n");
        for s in suffixes {
            text.push_str(&format!(
                "suffix {s} good\nregex iata ^.+\\.([a-z]{{3}})\\d+\\.{}$\n",
                s.replace('.', "\\.")
            ));
        }
        text
    }

    fn index(suffixes: &[&str]) -> LookupIndex {
        let db = Arc::new(GeoDb::builtin());
        let psl = Arc::new(PublicSuffixList::builtin());
        LookupIndex::from_artifacts(db, psl, &artifacts(suffixes)).expect("parse")
    }

    #[test]
    fn lookup_resolves_and_misses() {
        let idx = index(&["gtt.net", "zayo.com"]);
        assert_eq!(idx.len(), 2);
        let mut scratch = String::new();
        let hit = idx.lookup("ae1.LHR2.gtt.net", &mut scratch).expect("hit");
        assert_eq!(idx.db().location(hit.location).name, "London");
        assert_eq!(hit.suffix, "gtt.net");
        let hit = idx.lookup("R1.LHR1.GTT.NET", &mut scratch).expect("hit");
        assert_eq!(hit.suffix, "gtt.net");
        let hit = idx.lookup("a.ams1.zayo.com", &mut scratch).expect("hit");
        assert_eq!(hit.suffix, "zayo.com");
        // Unknown suffix, bare public suffix and non-matching shape all
        // miss cleanly.
        assert!(idx.lookup("ae1.lhr2.ntt.net", &mut scratch).is_none());
        assert!(idx.lookup("com", &mut scratch).is_none());
        assert!(idx.lookup("weird-shape.gtt.net", &mut scratch).is_none());
        assert!(idx.lookup("", &mut scratch).is_none());
    }

    #[test]
    fn epoch_swap_under_concurrent_readers() {
        let shared = Arc::new(SharedIndex::new(index(&["gtt.net"])));
        assert_eq!(shared.epoch(), 1);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scratch = String::new();
                    let mut hits = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let idx = shared.load();
                        // Resolves under every epoch: both indexes carry
                        // the gtt.net shard.
                        if idx.lookup("ae1.lhr2.gtt.net", &mut scratch).is_some() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for _ in 0..50 {
            shared.swap(index(&["gtt.net", "zayo.com"]));
            shared.swap(index(&["gtt.net"]));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().expect("reader") > 0, "readers made progress");
        }
        assert_eq!(shared.epoch(), 101);
    }
}
