//! The cluster-wide convergence oracle — ISSUE 10's headline contract.
//!
//! For each cluster-tier fault scenario (`node_crash`, `net_partition`),
//! additionally crash the controller — and then each node in turn — at
//! every tick boundary of the scenario's active phase, and require the
//! recovered steady state ([`ClusterTier::steady_digest`]) to be
//! byte-identical to the no-extra-fault run's. The durable catalog plus
//! heartbeat-carried ground truth are the cluster's state of record, so
//! losing any single participant's volatile state at *any* instant must
//! not change where the cluster ends up.
//!
//! [`ClusterTier::steady_digest`]: iorchestra::ClusterTier::steady_digest

use iorch_bench::tracereplay::run_cluster_scenario;
use iorch_simcore::{FaultKind, FaultPlan, FaultWindow, SimDuration, SimTime};
use iorchestra::SystemKind;

/// Run `scenario` with `extra` layered on the tier and return the
/// steady-state digest plus any ownership violations.
fn digest_of(seed: u64, scenario: &str, extra: FaultPlan) -> (String, Vec<String>) {
    let (mut sim, tier, _idx) = run_cluster_scenario(SystemKind::IOrchestra, seed, scenario, extra)
        .expect("known cluster scenario");
    let (cl, _s) = sim.parts_mut();
    let t = tier.borrow();
    (t.steady_digest(cl), t.ownership_violations(cl))
}

/// Crash the controller, then each of the three nodes, at every tick in
/// `ticks` (100 ms grid, 400 ms outage) and require byte-identity with
/// the no-extra-fault digest.
fn assert_cluster_converges(scenario: &str, seed: u64, ticks: std::ops::RangeInclusive<u64>) {
    let (want, violations) = digest_of(seed, scenario, FaultPlan::new());
    assert!(
        violations.is_empty(),
        "{scenario} seed {seed}: base run has ownership violations: {violations:?}"
    );
    assert!(
        want.contains("up=true"),
        "{scenario} seed {seed}: no live node in the base steady state"
    );
    for tick in ticks {
        let at = SimTime::from_millis(tick * 100);
        let recover_after = SimDuration::from_millis(400);
        let mut crashes = vec![FaultKind::ControllerCrash { at, recover_after }];
        for node in 0..3u32 {
            crashes.push(FaultKind::NodeCrash {
                node,
                at,
                recover_after,
            });
        }
        for kind in crashes {
            let extra = FaultPlan::new().with(FaultWindow::always(), kind);
            let (got, violations) = digest_of(seed, scenario, extra.clone());
            assert!(
                violations.is_empty(),
                "{scenario} seed {seed}: {kind:?} at tick {tick} left violations: {violations:?}"
            );
            assert_eq!(
                got, want,
                "{scenario} seed {seed}: {kind:?} at tick {tick} did not converge"
            );
        }
    }
}

// Heavy sweeps (hundreds of full scenario replays): the default debug
// `cargo test` skips them; `scripts/tier1.sh` runs them in release with
// `--include-ignored`. The tick ranges cover each scenario's fault-active
// phase plus the reconciliation tail after heal.

#[test]
#[ignore = "heavy sweep; run in release by scripts/tier1.sh"]
fn node_crash_scenario_converges_from_any_crash_at_every_tick() {
    for seed in [7, 42, 1337] {
        assert_cluster_converges("node_crash", seed, 5..=45);
    }
}

#[test]
#[ignore = "heavy sweep; run in release by scripts/tier1.sh"]
fn net_partition_scenario_converges_from_any_crash_at_every_tick() {
    for seed in [7, 42, 1337] {
        assert_cluster_converges("net_partition", seed, 5..=45);
    }
}

/// Debug-suite slice of the sweep: a handful of crash instants per
/// scenario at one seed, so plain `cargo test` still exercises the oracle
/// end to end.
#[test]
fn cluster_convergence_smoke() {
    for scenario in ["node_crash", "net_partition"] {
        let (want, violations) = digest_of(7, scenario, FaultPlan::new());
        assert!(violations.is_empty(), "{scenario}: {violations:?}");
        for tick in [12u64, 19, 31] {
            let at = SimTime::from_millis(tick * 100);
            let recover_after = SimDuration::from_millis(400);
            for kind in [
                FaultKind::ControllerCrash { at, recover_after },
                FaultKind::NodeCrash {
                    node: 1,
                    at,
                    recover_after,
                },
            ] {
                let extra = FaultPlan::new().with(FaultWindow::always(), kind);
                let (got, violations) = digest_of(7, scenario, extra);
                assert!(
                    violations.is_empty(),
                    "{scenario} tick {tick}: {violations:?}"
                );
                assert_eq!(got, want, "{scenario}: {kind:?} at tick {tick} diverged");
            }
        }
    }
}
