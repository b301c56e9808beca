//! Frozen reference engines: the differential oracles and bench baselines.
//!
//! Each module is a production mechanism exactly as it stood before it was
//! rewritten, kept verbatim so the tests in `crates/bench/tests/` and the
//! `hotpath` gate can compare the live code against it:
//!
//! - [`planes`]: the pre-redesign hand-fused Baseline/SDC/DIF/IOrchestra
//!   control planes (Algorithms 1–3), pinned byte-identical to their
//!   [`PolicySet`](iorchestra::PolicySet) expressions by
//!   `tests/policy_equivalence.rs`;
//! - [`scheduler`]: the binary-heap event scheduler that the timer wheel
//!   ([`iorch_simcore::Scheduler`]) replaced, pinned by
//!   `tests/scheduler_differential.rs`;
//! - [`store`]: the seed system store that the interned, prefix-indexed
//!   [`iorch_hypervisor::XenStore`] replaced, pinned by
//!   `tests/store_differential.rs`.
//!
//! Nothing in a production crate provisions or calls these. Do not "fix"
//! or optimize them; their value is that they do not change.

pub mod planes;
pub mod scheduler;
pub mod store;
