//! The convergence oracle — the headline robustness contract.
//!
//! For each named fault scenario, crash/restart the control plane at every
//! tick boundary of the scenario's active phase and assert that the
//! post-recovery steady state (quarantine set, control-channel idleness,
//! drained page caches) converges to the no-crash run's. The store is the
//! plane's state of record, so losing process memory at *any* tick must
//! not change where the system ends up.
//!
//! Also here: the epoch-protocol proof that a duplicated (or stale)
//! command is discarded by the guest's epoch cursor rather than executed
//! or acked twice.

use iorch_bench::tracereplay::run_scenario_sim;
use iorch_hypervisor::{Cluster, DOM0};
use iorch_simcore::{
    gen, trace, FaultKind, FaultPlan, FaultWindow, SimDuration, SimTime, Simulation,
};
use iorchestra::{keys, SystemKind};

/// One domain's converged facts. Control-channel values are normalized to
/// idleness booleans (the epoch stamps themselves legitimately differ
/// between a crash run and the no-crash run), and a quarantined domain is
/// reduced to its quarantine flag — it is outside collaboration, so its
/// channel values are unspecified.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DomFacts {
    dom: u32,
    quarantined: bool,
    flush_idle: bool,
    release_idle: bool,
    congestion_idle: bool,
    dirty_drained: bool,
}

fn steady_state(sim: &mut Simulation<Cluster>, idx: usize) -> Vec<DomFacts> {
    let (cl, _s) = sim.parts_mut();
    let m = cl.machine_mut(idx);
    let mut out = Vec::new();
    let doms: Vec<_> = m.domains().collect();
    for dom in doms {
        let flag = |m: &iorch_hypervisor::Machine, path: String| {
            m.store
                .read_ref(DOM0, path.as_str())
                .map(|v| v == "1")
                .unwrap_or(false)
        };
        let idle = |m: &iorch_hypervisor::Machine, path: String| {
            m.store
                .read_ref(DOM0, path.as_str())
                .map(|v| v == "0")
                .unwrap_or(true)
        };
        let quarantined = flag(m, keys::state_quarantined(dom));
        if quarantined {
            out.push(DomFacts {
                dom: dom.0,
                quarantined: true,
                flush_idle: true,
                release_idle: true,
                congestion_idle: true,
                dirty_drained: true,
            });
            continue;
        }
        let facts = DomFacts {
            dom: dom.0,
            quarantined: false,
            flush_idle: idle(m, keys::flush_now(dom)),
            release_idle: idle(m, keys::release_request(dom)),
            congestion_idle: idle(m, keys::congested(dom)),
            dirty_drained: m
                .kernel_mut(dom)
                .map(|k| k.dirty_pages() == 0)
                .unwrap_or(true),
        };
        out.push(facts);
    }
    out
}

/// Crash the plane at every tick boundary in `ticks` (100 ms tick, 250 ms
/// outage) and require the steady state to match the no-crash run's.
fn assert_converges(
    scenario: &str,
    seed_base: u64,
    seeds: usize,
    ticks: std::ops::RangeInclusive<u64>,
) {
    gen::for_each_seed(seed_base, seeds, |seed, _rng| {
        let (mut base, idx) =
            run_scenario_sim(SystemKind::IOrchestra, seed, scenario, FaultPlan::new())
                .expect("known scenario");
        let want = steady_state(&mut base, idx);
        assert!(!want.is_empty(), "{scenario}: no domains to converge on");
        for tick in ticks.clone() {
            let at = SimTime::from_millis(tick * 100);
            let recover_after = SimDuration::from_millis(250);
            let plan = FaultPlan::new().with(
                FaultWindow::new(at, at + recover_after),
                FaultKind::PlaneCrash { at, recover_after },
            );
            let (mut sim, idx2) = run_scenario_sim(SystemKind::IOrchestra, seed, scenario, plan)
                .expect("known scenario");
            let got = steady_state(&mut sim, idx2);
            assert_eq!(
                got, want,
                "{scenario} seed {seed}: crash at tick {tick} did not converge"
            );
        }
    });
}

// The five sweeps below are heavy (dozens of full scenario runs each), so
// the default debug `cargo test` skips them; `scripts/tier1.sh` runs them
// in release with `--include-ignored`.

#[test]
#[ignore = "heavy sweep; run in release by scripts/tier1.sh"]
fn mixed8_converges_from_a_crash_at_every_tick() {
    assert_converges("mixed8", 0xC0_0001, 2, 1..=20);
}

#[test]
#[ignore = "heavy sweep; run in release by scripts/tier1.sh"]
fn unresponsive_flush_converges_from_a_crash_at_every_tick() {
    assert_converges("unresponsive_flush", 0xC0_0002, 2, 1..=45);
}

#[test]
#[ignore = "heavy sweep; run in release by scripts/tier1.sh"]
fn store_hammer_converges_from_a_crash_at_every_tick() {
    assert_converges("store_hammer", 0xC0_0003, 2, 1..=18);
}

#[test]
#[ignore = "heavy sweep; run in release by scripts/tier1.sh"]
fn plane_crash_scenario_converges_with_a_second_crash_at_every_tick() {
    assert_converges("plane_crash", 0xC0_0004, 2, 1..=20);
}

#[test]
#[ignore = "heavy sweep; run in release by scripts/tier1.sh"]
fn lossy_bus_converges_from_a_crash_at_every_tick() {
    assert_converges("lossy_bus", 0xC0_0005, 2, 1..=20);
}

/// The epoch protocol's idempotence proof: with every XenBus delivery
/// duplicated, each command's second copy must be discarded by the guest's
/// epoch cursor (a `stale_command` decision), never executed or acked a
/// second time — and the collaborative flush still drains every domain.
#[test]
fn duplicated_commands_are_discarded_by_epoch() {
    if !trace::COMPILED {
        return;
    }
    let session = trace::TraceSession::new();
    let (mut sim, idx) = {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = SystemKind::IOrchestra.provision(cl, s, 11);
        let plan = FaultPlan::new().with(
            FaultWindow::always(),
            FaultKind::BusUnreliable {
                drop_1_in: 0,
                dup_1_in: 1, // duplicate *every* delivery
                reorder: false,
            },
        );
        cl.install_faults(s, idx, plan);
        (sim, idx)
    };
    {
        let (cl, s) = sim.parts_mut();
        use iorch_guestos::FileOp;
        use iorch_hypervisor::VmSpec;
        for mb in [16u64, 8] {
            let dom = cl.create_domain(s, idx, VmSpec::new(1, 2).with_disk_gb(8), |g| {
                g.wb.periodic_interval = SimDuration::from_secs(30);
                g.wb.dirty_expire = SimDuration::from_secs(60);
            });
            let file = cl
                .machine_mut(idx)
                .kernel_mut(dom)
                .unwrap()
                .create_file((4 * mb) << 20)
                .unwrap();
            cl.submit_op(
                s,
                idx,
                dom,
                0,
                FileOp::Write {
                    file,
                    offset: 0,
                    len: mb << 20,
                },
                None,
            );
        }
    }
    sim.run_until(SimTime::from_secs(6));
    let events = session.finish();
    let decisions = trace::render_decision_log(&events);
    let timeline = trace::render_timeline(&events);
    assert!(
        timeline.contains("xenbus_dup"),
        "the bus fault must actually duplicate deliveries"
    );
    let flushes = decisions.matches("decision flush_now").count();
    let stale = decisions.matches("decision stale_command").count();
    let acks = decisions.matches("decision flush_ack").count();
    assert!(flushes >= 1, "no flush command was ever issued");
    assert!(
        stale >= flushes,
        "every duplicated command must be discarded as stale \
         (flushes={flushes}, stale={stale})"
    );
    assert!(
        acks <= flushes,
        "a duplicated command was acked twice (flushes={flushes}, acks={acks})"
    );
    // The protocol still works under 2x bus traffic: every domain drains.
    let (cl, _s) = sim.parts_mut();
    let m = cl.machine_mut(idx);
    let doms: Vec<_> = m.domains().collect();
    for dom in doms {
        assert_eq!(
            m.kernel_mut(dom).map(|k| k.dirty_pages()),
            Some(0),
            "dom {} failed to drain under a duplicating bus",
            dom.0
        );
    }
}
