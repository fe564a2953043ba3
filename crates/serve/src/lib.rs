#![warn(missing_docs)]

//! # hoiho-serve — the online lookup service
//!
//! The paper's end product is an operational artifact: per-suffix
//! naming conventions anyone can apply to geolocate router hostnames
//! without measurement infrastructure. This crate turns a
//! `hoiho-artifacts-v1` file into exactly that — a concurrent
//! `hostname → location` lookup service — so downstream consumers
//! (HLOC-style systems, reverse-DNS geolocation pipelines) can query
//! online instead of shelling out to `hoiho apply`.
//!
//! Four pieces, all hand-rolled on `std`:
//!
//! - [`LookupIndex`] — an immutable snapshot of one artifact file:
//!   core's [`hoiho::Geolocator`] plus the dictionary and suffix list.
//!   Every query goes through [`hoiho::Geolocator::lookup`], the path
//!   `hoiho apply` takes too: trim, lowercase into a reusable buffer,
//!   route to one suffix's compiled regexes and learned hints.
//! - [`SharedIndex`] — the epoch-swapped `Arc<LookupIndex>` handle:
//!   artifact hot-reload builds a new index aside and swaps it in;
//!   in-flight requests finish against the index they loaded, so a
//!   reload (even a failed one) can never break a request.
//! - [`Server`] — `TcpListener` + fixed worker pool + bounded accept
//!   queue. Overload sheds with an explicit `503 overloaded` response
//!   instead of stalling; shutdown drains gracefully.
//! - [`ConnLimits`] — the per-connection robustness policy: idle
//!   reaping, one completion deadline per request (from its first byte
//!   to its last, HTTP headers and body included), a slow-client
//!   byte-rate floor over the whole request, line/header/body size
//!   caps, and a request budget. Both protocols read requests through
//!   one framer and one read loop, and every refusal goes through one
//!   table to its counter and response. A hostile or faulty peer
//!   always resolves by serve, reject, or timeout — never by pinning
//!   a worker forever — and every such path is a `serve.*` counter in
//!   `/metrics`.
//!
//! Both wire protocols are defined in [`proto`]: a line-delimited JSON
//! protocol for `printf | nc`-style and persistent-connection clients,
//! and an HTTP/1.1-lite front end (`GET /lookup?h=…`, `POST /batch`,
//! `GET /metrics`, `GET /healthz`, `POST /shutdown`).
//!
//! ```no_run
//! use hoiho_serve::{LookupIndex, Server, ServeConfig, SharedIndex};
//! use std::sync::Arc;
//!
//! let db = Arc::new(hoiho_geodb::GeoDb::builtin());
//! let psl = Arc::new(hoiho_psl::PublicSuffixList::builtin());
//! let index = LookupIndex::open(db, psl, "artifacts.txt".as_ref()).unwrap();
//! let server = Server::start(
//!     Arc::new(SharedIndex::new(index)),
//!     &ServeConfig::default(),
//! )
//! .unwrap();
//! println!("serving on {}", server.local_addr());
//! server.wait(); // until a protocol shutdown drains it
//! ```

mod index;
mod limits;
pub mod proto;
mod server;

pub use index::{LookupIndex, SharedIndex};
pub use limits::ConnLimits;
pub use server::{ReloadConfig, ServeConfig, Server};
