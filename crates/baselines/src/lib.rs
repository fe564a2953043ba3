#![warn(missing_docs)]

//! Baseline router-geolocation methods the paper compares against
//! (§3, §6.1), and the ground-truth evaluation harness of figure 9.
//!
//! Each baseline is reimplemented from its paper's description,
//! *including the documented weaknesses* the comparison turns on:
//!
//! - [`drop`](mod@drop) — DRoP (Huffaker et al. 2014): end-anchored single-form
//!   rules without digit sequences, verbatim dictionary, majority
//!   (>50%) consistency against traceroute-observed RTTs only;
//! - [`hloc`] — HLOC (Scheitle et al. 2017): run-time dictionary
//!   matching with a manual blocklist and a *closest-VP-only*
//!   confirmation check (no refutation from distant VPs);
//! - [`undns`] — undns (Spring et al. 2002): manually curated,
//!   frozen rules — essentially perfect where they exist, silent
//!   everywhere else.
//!
//! [`harness`] scores any method against generator ground truth with the
//! paper's 40 km correctness radius.

pub mod drop;
pub mod harness;
pub mod hloc;
pub mod undns;

pub use drop::Drop;
pub use harness::{score_method, MethodScore};
pub use hloc::Hloc;
pub use undns::Undns;
