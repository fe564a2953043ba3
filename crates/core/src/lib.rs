#![warn(missing_docs)]

//! # hoiho — learning to extract geographic information from router hostnames
//!
//! A Rust implementation of the CoNEXT 2021 Hoiho geolocation system
//! (Luckie et al., *Learning to Extract Geographic Information from
//! Internet Router Hostnames*). Given a router-level topology corpus
//! with hostnames and RTT measurements from known vantage points, the
//! library learns — per DNS suffix — regular expressions that extract
//! geographic hints (*geohints*), learns the operator-specific hints
//! that deviate from public dictionaries, and classifies the resulting
//! naming conventions by quality.
//!
//! The five stages (figure 4 of the paper):
//!
//! 1. assemble inputs — dictionary ([`hoiho_geodb`]), suffix list
//!    ([`hoiho_psl`]), corpus ([`hoiho_itdk`]), RTTs ([`hoiho_rtt`]);
//! 2. identify apparent geohints ([`apparent`]);
//! 3. build and evaluate regexes ([`builder`], [`eval`], [`sets`]);
//! 4. learn operator geohints ([`learned`]);
//! 5. rank and classify ([`rank`]).
//!
//! The top-level entry points are [`Hoiho::learn_corpus`] for training
//! (or [`Hoiho::learn_view`] over a [`TrainingView`] streamed from a
//! corpus file) and [`Geolocator::geolocate`] for applying learned
//! conventions.
//!
//! ```
//! use hoiho::{Hoiho, Geolocator};
//! use hoiho_geodb::GeoDb;
//! use hoiho_psl::PublicSuffixList;
//! use hoiho_itdk::spec::CorpusSpec;
//!
//! let db = GeoDb::builtin();
//! let psl = PublicSuffixList::builtin();
//! // A small deterministic corpus (a real run would load an ITDK).
//! let spec = CorpusSpec { routers: 300, operators: 4, ..CorpusSpec::ipv4_aug2020(300) };
//! let generated = hoiho_itdk::generate(&db, &spec);
//!
//! let report = Hoiho::new(&db, &psl).learn_corpus(&generated.corpus);
//! let geolocator = Geolocator::from_report(&report);
//! for r in report.usable() {
//!     println!("{}: {:?} ({} learned hints)", r.suffix, r.class, r.learned.len());
//! }
//! # let _ = geolocator;
//! ```

pub mod apparent;
pub mod apply;
pub mod artifact;
pub mod builder;
pub mod convention;
pub mod eval;
pub mod evalctx;
pub mod learned;
pub mod pipeline;
pub mod rank;
pub mod sets;
pub mod stale;
pub mod tokenize;
pub mod train;
pub mod view;

pub use apply::{GeoInference, Geolocator, SuffixGeo};
pub use convention::{CaptureRole, Extraction, GeoRegex, NamingConvention, Plan};
pub use eval::{EvalResult, Metrics, Outcome};
pub use evalctx::{EvalContext, HintId};
pub use learned::{LearnPolicy, LearnedHint, LearnedHints, RankOrder};
pub use pipeline::{Hoiho, HoihoOptions, LearnReport, SuffixResult};
pub use rank::NcClass;
pub use view::TrainingView;
