//! # The cluster control tier
//!
//! IOrchestra's per-machine control planes close the semantic gap inside
//! one host; the paper's §6 scale-out experiments (Fig. 7) run the same
//! workloads across up to eight machines. This module adds the missing
//! tier: a cluster **controller** plus per-node **agents** exchanging
//! messages over a deterministic bus ([`iorch_netsim::MsgBus`]) layered
//! on the NIC serialization model, with lease-based membership, failure
//! detection, and quota/NUMA-aware domain failover.
//!
//! Protocol summary (DESIGN.md §14 has the full state machines):
//!
//! * **Membership**: nodes register under a boot incarnation and renew a
//!   lease with periodic heartbeats carrying their ground-truth owned
//!   set. An expired lease marks the node dead and orphans its domains.
//! * **Placement**: the desired placement is a *pure function* of the
//!   alive membership and the durable domain catalog (greedy over
//!   [`placement::place`]), so any two controllers with the same view
//!   agree byte-for-byte. The controller memoizes it and recomputes only
//!   when the catalog or the alive membership changed.
//! * **Reconciliation**: the controller diffs desired against reported
//!   ownership and issues idempotent, epoch-stamped `Start`/`Stop`
//!   commands with timeout + exponential-backoff retry. Superseded
//!   copies are stopped make-before-break.
//! * **Failure model**: the bus injects partitions, loss, duplication,
//!   reordering and delay from a [`FaultPlan`]; node and controller
//!   crashes destroy volatile state. A partitioned node keeps serving
//!   its domains and reconciles after heal; a rebooted node registers
//!   under a fresh incarnation and pre-crash commands aimed at its
//!   previous life are discarded.
//!
//! The convergence contract: after any fault schedule drawn from the
//! supported kinds, once faults cease the cluster's steady state
//! ([`ClusterTier::steady_digest`]) is byte-identical to the no-fault
//! run's — seed-swept and gated by `cluster_convergence` in tier 1.

pub mod agent;
pub mod controller;
pub mod msg;
pub mod placement;

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::{Rc, Weak};

use iorch_hypervisor::{Cluster, Machine, Sched, VmSpec};
use iorch_netsim::{BusStats, MsgBus, NetParams, NodeId};
use iorch_simcore::faults::{FaultKind, FaultPlan};
use iorch_simcore::{SimDuration, SimTime};

pub use agent::NodeAgent;
pub use controller::{Controller, ControllerStats, Member};
pub use msg::{Msg, NodeCaps};
pub use placement::{place, NodeView};

/// Timing and quota knobs of the cluster control tier.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Controller reconcile period.
    pub controller_tick: SimDuration,
    /// Agent heartbeat period.
    pub heartbeat: SimDuration,
    /// Lease granted per registration/heartbeat.
    pub lease_ttl: SimDuration,
    /// Base command-ack deadline (doubled per retry up to the cap).
    pub rpc_timeout: SimDuration,
    /// Base re-registration backoff (doubled per attempt up to the cap).
    pub register_backoff: SimDuration,
    /// Maximum doubling shift for both backoffs.
    pub backoff_cap_shift: u32,
    /// Command suppression window after a controller restart, while
    /// heartbeats rebuild the membership.
    pub recovery_grace: SimDuration,
    /// VCPU overcommit factor applied to unreserved cores.
    pub vcpu_overcommit: u32,
    /// Per-node guest-memory quota in bytes.
    pub mem_quota: u64,
    /// NIC model parameters for the control bus.
    pub net: NetParams,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            controller_tick: SimDuration::from_millis(50),
            heartbeat: SimDuration::from_millis(100),
            lease_ttl: SimDuration::from_millis(350),
            rpc_timeout: SimDuration::from_millis(250),
            register_backoff: SimDuration::from_millis(150),
            backoff_cap_shift: 4,
            recovery_grace: SimDuration::from_millis(300),
            vcpu_overcommit: 4,
            mem_quota: 64 << 30,
            net: NetParams::default(),
        }
    }
}

/// Derive a node's advertised capacity from its machine's topology.
fn caps_of(m: &Machine, cfg: &ClusterConfig) -> NodeCaps {
    let pc = m.placement_caps();
    NodeCaps {
        total_vcpus: pc.total_cores * cfg.vcpu_overcommit,
        numa_max_vcpus: pc.numa_max_cores * cfg.vcpu_overcommit,
        mem_quota: cfg.mem_quota,
    }
}

/// The installed cluster control tier: controller, agents, and the bus
/// between them, driven by scheduler events. Obtained from
/// [`ClusterTier::install`]; scheduled closures hold a [`Weak`] back-ref,
/// so the tier dies (and its periodics stop) when the caller drops the
/// [`Rc`].
pub struct ClusterTier {
    cfg: ClusterConfig,
    bus: MsgBus<Msg>,
    controller: Controller,
    agents: Vec<NodeAgent>,
    me: Weak<RefCell<ClusterTier>>,
    /// Instant of the nearest armed bus-pump event (`ZERO` = none).
    pump_at: SimTime,
}

impl ClusterTier {
    /// Install the tier over the given machines (one agent per machine;
    /// the controller gets its own bus address after the last node).
    /// Schedules the controller tick and the heartbeat tick.
    pub fn install(
        cl: &mut Cluster,
        s: &mut Sched,
        machines: &[usize],
        cfg: ClusterConfig,
    ) -> Rc<RefCell<ClusterTier>> {
        let n = machines.len();
        let ctrl = NodeId(n);
        let agents: Vec<NodeAgent> = machines
            .iter()
            .enumerate()
            .map(|(i, &m)| NodeAgent::new(cfg, i as u32, m, caps_of(cl.machine(m), &cfg), ctrl))
            .collect();
        let tier = Rc::new_cyclic(|me| {
            RefCell::new(ClusterTier {
                cfg,
                bus: MsgBus::new(n + 1, cfg.net),
                controller: Controller::new(cfg, ctrl),
                agents,
                me: me.clone(),
                pump_at: SimTime::ZERO,
            })
        });
        let me = Rc::downgrade(&tier);
        s.schedule_every(cfg.controller_tick, move |_cl: &mut Cluster, s| {
            let Some(t) = me.upgrade() else { return false };
            let mut t = t.borrow_mut();
            let t = &mut *t;
            let now = s.now();
            t.controller.tick(&mut t.bus, now);
            t.ensure_pump(s);
            true
        });
        let me = Rc::downgrade(&tier);
        s.schedule_every(cfg.heartbeat, move |_cl: &mut Cluster, s| {
            let Some(t) = me.upgrade() else { return false };
            let mut t = t.borrow_mut();
            let t = &mut *t;
            let now = s.now();
            for a in &mut t.agents {
                a.tick(&mut t.bus, now);
            }
            t.ensure_pump(s);
            true
        });
        tier
    }

    /// The tier's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The controller (membership, catalog, desired placement, stats).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The node agents, in node order.
    pub fn agents(&self) -> &[NodeAgent] {
        &self.agents
    }

    /// Bus delivery/loss counters.
    pub fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// Add a domain to the cluster catalog; the controller places and
    /// starts it on its next tick. Returns the logical domain id.
    pub fn submit_domain(&mut self, spec: VmSpec) -> u32 {
        self.controller.submit(spec)
    }

    /// Remove a domain from the catalog; reconciliation stops it.
    pub fn retire_domain(&mut self, ldom: u32) {
        self.controller.retire(ldom);
    }

    /// Arm a fault plan on the tier: network kinds merge into the bus;
    /// node/controller crashes are scheduled as crash/recover pairs.
    /// Machine-level kinds are ignored here — install those per machine
    /// with [`Cluster::install_faults`].
    pub fn install_faults(&mut self, s: &mut Sched, plan: &FaultPlan) {
        self.bus.install_faults(plan);
        for ev in plan.events() {
            match ev.kind {
                FaultKind::NodeCrash {
                    node,
                    at,
                    recover_after,
                } => {
                    let me = self.me.clone();
                    s.schedule_at(at, move |cl: &mut Cluster, s| {
                        if let Some(t) = me.upgrade() {
                            t.borrow_mut().crash_node(cl, s, node);
                        }
                    });
                    let me = self.me.clone();
                    s.schedule_at(at + recover_after, move |_cl: &mut Cluster, s| {
                        if let Some(t) = me.upgrade() {
                            t.borrow_mut().recover_node(s, node);
                        }
                    });
                }
                FaultKind::ControllerCrash { at, recover_after } => {
                    let me = self.me.clone();
                    s.schedule_at(at, move |_cl: &mut Cluster, s| {
                        if let Some(t) = me.upgrade() {
                            let mut t = t.borrow_mut();
                            t.controller.crash(s.now());
                        }
                    });
                    let me = self.me.clone();
                    s.schedule_at(at + recover_after, move |_cl: &mut Cluster, s| {
                        if let Some(t) = me.upgrade() {
                            let mut t = t.borrow_mut();
                            t.controller.recover(s.now());
                        }
                    });
                }
                _ => {}
            }
        }
    }

    /// Crash node `node` now: its machine's domains are destroyed and the
    /// agent goes silent until recovery.
    pub fn crash_node(&mut self, cl: &mut Cluster, s: &mut Sched, node: u32) {
        if let Some(a) = self.agents.get_mut(node as usize) {
            a.crash(cl, s);
        }
    }

    /// Reboot node `node` now under a fresh incarnation.
    pub fn recover_node(&mut self, s: &mut Sched, node: u32) {
        if let Some(a) = self.agents.get_mut(node as usize) {
            a.recover(s.now());
        }
    }

    /// Arm (or re-arm) the bus pump at the earliest pending delivery.
    /// Stale pump events (superseded by an earlier re-arm) no-op.
    fn ensure_pump(&mut self, s: &mut Sched) {
        let Some(due) = self.bus.next_due() else {
            return;
        };
        let now = s.now();
        if self.pump_at > now && self.pump_at <= due {
            return;
        }
        let at = due.max(now);
        self.pump_at = at;
        let me = self.me.clone();
        s.schedule_at(at, move |cl: &mut Cluster, s| {
            if let Some(t) = me.upgrade() {
                let mut t = t.borrow_mut();
                if t.pump_at == at {
                    t.pump(cl, s);
                }
            }
        });
    }

    /// Drain due deliveries and route them; crashed endpoints receive
    /// nothing (the message is consumed and lost, like a dead host).
    fn pump(&mut self, cl: &mut Cluster, s: &mut Sched) {
        self.pump_at = SimTime::ZERO;
        let now = s.now();
        for (dst, msg) in self.bus.take_due(now) {
            self.deliver(cl, s, dst, msg, now);
        }
        self.ensure_pump(s);
    }

    fn deliver(&mut self, cl: &mut Cluster, s: &mut Sched, dst: NodeId, msg: Msg, now: SimTime) {
        if dst == self.controller.node_id() {
            if !self.controller.is_down() {
                self.controller.on_msg(&mut self.bus, msg, now);
            }
        } else if let Some(a) = self.agents.get_mut(dst.0) {
            if !a.is_down() {
                a.on_msg(&mut self.bus, cl, s, msg, now);
            }
        }
    }

    /// Canonical steady-state digest for the convergence oracle. Includes
    /// everything that must converge (liveness, ownership, machine domain
    /// counts, catalog, desired placement, membership owned sets) and
    /// excludes what legitimately differs between a faulted and a
    /// fault-free history (epochs, incarnations, sequence numbers, lease
    /// deadlines, machine [`DomainId`](iorch_hypervisor::DomainId)s,
    /// stats).
    pub fn steady_digest(&self, cl: &Cluster) -> String {
        let mut out = String::new();
        for a in &self.agents {
            let owned: Vec<u32> = a.owned().keys().copied().collect();
            let doms = cl.machine(a.machine()).domain_count();
            let _ = writeln!(
                out,
                "node {} up={} owned={:?} machine_doms={}",
                a.node(),
                !a.is_down(),
                owned,
                doms
            );
        }
        let c = &self.controller;
        let catalog: Vec<(u32, u32)> = c.catalog().iter().map(|(&l, s)| (l, s.vcpus)).collect();
        let desired: Vec<(u32, u32)> = c.desired().into_iter().collect();
        let _ = writeln!(out, "ctrl down={} catalog={catalog:?}", c.is_down());
        let _ = writeln!(out, "ctrl desired={desired:?}");
        for (&node, m) in c.members() {
            let _ = writeln!(out, "member {node} alive={} owned={:?}", m.alive, m.owned);
        }
        out
    }

    /// Ownership invariant check: no logical domain may be owned by more
    /// than one live node, and every owned entry must map to a live
    /// machine domain. Returns human-readable violations (empty = ok).
    /// A crashed node's entries are skipped — its machine domains were
    /// destroyed with it.
    pub fn ownership_violations(&self, cl: &Cluster) -> Vec<String> {
        let mut out = Vec::new();
        let mut owners: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
        for a in &self.agents {
            if a.is_down() {
                continue;
            }
            for (&ldom, &dom) in a.owned() {
                owners.entry(ldom).or_default().push(a.node());
                if cl.machine(a.machine()).domain(dom).is_none() {
                    out.push(format!(
                        "node {} owns ldom {ldom} but machine domain {dom:?} is gone",
                        a.node()
                    ));
                }
            }
        }
        for (ldom, nodes) in owners {
            if nodes.len() > 1 {
                out.push(format!(
                    "ldom {ldom} owned by {} nodes: {nodes:?}",
                    nodes.len()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemKind;
    use iorch_simcore::faults::FaultWindow;
    use iorch_simcore::Simulation;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    /// `n` IOrchestra machines + the tier, with `doms` small domains
    /// submitted at t=0.
    fn cluster(n: usize, doms: u32) -> (Simulation<Cluster>, Rc<RefCell<ClusterTier>>) {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let machines: Vec<usize> = (0..n)
            .map(|i| SystemKind::IOrchestra.provision(cl, s, 42 ^ i as u64))
            .collect();
        let tier = ClusterTier::install(cl, s, &machines, ClusterConfig::default());
        {
            let mut t = tier.borrow_mut();
            for i in 0..doms {
                t.submit_domain(VmSpec::new(1 + i % 2, 1));
            }
        }
        (sim, tier)
    }

    #[test]
    fn membership_forms_and_domains_place() {
        let (mut sim, tier) = cluster(3, 8);
        sim.run_until(ms(3000));
        let t = tier.borrow();
        let cl = sim.world();
        assert_eq!(t.controller().members().len(), 3);
        assert!(t.controller().members().values().all(|m| m.alive));
        let placed: usize = t.agents().iter().map(|a| a.owned().len()).sum();
        assert_eq!(placed, 8, "all submitted domains are running");
        assert_eq!(t.controller().inflight_len(), 0, "steady state is quiet");
        assert!(t.ownership_violations(cl).is_empty());
        // Ground truth matches the controller's desired placement.
        let desired = t.controller().desired();
        for a in t.agents() {
            for &ldom in a.owned().keys() {
                assert_eq!(desired.get(&ldom), Some(&a.node()));
            }
        }
    }

    #[test]
    fn node_crash_fails_over_and_rejoin_reconciles() {
        let (mut sim, tier) = cluster(3, 8);
        {
            let (_, s) = sim.parts_mut();
            let plan = FaultPlan::new().with(
                FaultWindow::always(),
                FaultKind::NodeCrash {
                    node: 1,
                    at: ms(1500),
                    recover_after: SimDuration::from_millis(900),
                },
            );
            tier.borrow_mut().install_faults(s, &plan);
        }
        sim.run_until(ms(1400));
        let before = tier.borrow().agents()[1].owned().len();
        assert!(before > 0, "node 1 runs domains before the crash");
        // While node 1 is down past its lease, its domains fail over.
        sim.run_until(ms(2300));
        {
            let t = tier.borrow();
            assert!(t.controller().stats().failovers > 0);
            let placed: usize = t
                .agents()
                .iter()
                .filter(|a| !a.is_down())
                .map(|a| a.owned().len())
                .sum();
            assert_eq!(placed, 8, "orphans re-placed on survivors");
        }
        // After recovery everything reconciles with zero dup ownership.
        sim.run_until(ms(8000));
        let t = tier.borrow();
        let cl = sim.world();
        assert!(t.ownership_violations(cl).is_empty());
        assert_eq!(t.agents()[1].incarnation(), 2, "rejoined as a new life");
        let placed: usize = t.agents().iter().map(|a| a.owned().len()).sum();
        assert_eq!(placed, 8);
    }

    #[test]
    fn partition_keeps_serving_and_heals() {
        let (mut sim, tier) = cluster(3, 8);
        {
            let (_, s) = sim.parts_mut();
            // Node 2 is cut off from everyone (controller included) for
            // 1.5 s — long past the lease TTL.
            let plan = FaultPlan::new().with(
                FaultWindow::new(ms(1500), ms(3000)),
                FaultKind::NetPartition { group: 0b100 },
            );
            tier.borrow_mut().install_faults(s, &plan);
        }
        sim.run_until(ms(1400));
        let before = tier.borrow().agents()[2].owned().len();
        assert!(before > 0);
        sim.run_until(ms(2900));
        {
            let t = tier.borrow();
            // The controller declared node 2 dead and re-placed its
            // domains; node 2 itself keeps serving what it has.
            assert!(!t.controller().members()[&2].alive);
            assert_eq!(t.agents()[2].owned().len(), before, "still serving");
            assert!(t.controller().stats().failovers > 0);
        }
        sim.run_until(ms(9000));
        let t = tier.borrow();
        let cl = sim.world();
        assert!(t.controller().members()[&2].alive, "rejoined after heal");
        assert_eq!(t.agents()[2].incarnation(), 1, "no reboot happened");
        assert!(t.ownership_violations(cl).is_empty());
        let placed: usize = t.agents().iter().map(|a| a.owned().len()).sum();
        assert_eq!(placed, 8, "duplicates reconciled away after heal");
    }

    #[test]
    fn controller_crash_rebuilds_from_heartbeats() {
        let (mut sim, tier) = cluster(3, 8);
        {
            let (_, s) = sim.parts_mut();
            let plan = FaultPlan::new().with(
                FaultWindow::always(),
                FaultKind::ControllerCrash {
                    at: ms(2000),
                    recover_after: SimDuration::from_millis(700),
                },
            );
            tier.borrow_mut().install_faults(s, &plan);
        }
        sim.run_until(ms(8000));
        let t = tier.borrow();
        let cl = sim.world();
        assert!(t.controller().epoch() > 1, "fresh epoch after recovery");
        assert_eq!(t.controller().members().len(), 3, "membership rebuilt");
        assert!(t.ownership_violations(cl).is_empty());
        let placed: usize = t.agents().iter().map(|a| a.owned().len()).sum();
        assert_eq!(placed, 8, "no domain was disturbed by the restart");
    }
}
