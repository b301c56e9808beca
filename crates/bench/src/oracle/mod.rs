//! Frozen reference engines: the differential oracles and bench baselines.
//!
//! Each module is a production mechanism exactly as it stood before it was
//! rewritten, kept verbatim so the tests in `crates/bench/tests/` and the
//! `hotpath` gate can compare the live code against it:
//!
//! - [`scheduler`]: the binary-heap event scheduler that the timer wheel
//!   ([`iorch_simcore::Scheduler`]) replaced, pinned by
//!   `tests/scheduler_differential.rs`;
//! - [`store`]: the seed system store that the interned, prefix-indexed
//!   [`iorch_hypervisor::XenStore`] replaced, pinned by
//!   `tests/store_differential.rs`.
//!
//! Nothing in a production crate provisions or calls these. Do not "fix"
//! or optimize them; their value is that they do not change.
//!
//! Both are compared on seed-swept random op scripts whose outputs cannot
//! be enumerated, so they stay as live engines. The pre-redesign control
//! planes, by contrast, were only ever compared on the fixed tracedump
//! cells, so their full output there is recorded instead, as committed
//! fingerprints (`tests/fingerprints/traces.txt`, see
//! [`fingerprint`](crate::fingerprint)).

pub mod scheduler;
pub mod store;
