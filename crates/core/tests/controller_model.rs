//! Differential test: the cluster `Controller` against a naive reference.
//!
//! The reference below re-implements the controller's state machine for
//! obviousness, not speed: it recomputes the whole desired placement on
//! every tick and answers every reconcile question with a map lookup.
//! Random scripts of catalog submits and retires, registrations and
//! heartbeats (stale, current and rebooted incarnations, with mutated
//! `owned` sets and capacities), acks (current and stale epochs), lease
//! expiry, controller crash/recover and ticks drive both through their
//! own message buses. After every step:
//!
//! * `desired()` must equal a fresh `placement::place` pass over
//!   the controller's own membership and catalog, so the memoized
//!   placement can never serve a stale answer;
//! * both buses must carry the same messages in the same order, and the
//!   counters, epoch and membership views must agree.
//!
//! The debug suite runs a light sweep; the heavy sweep is `#[ignore]`d and
//! runs in release:
//! `cargo test -p iorchestra --release --test controller_model -- --include-ignored`.

use std::collections::BTreeMap;

use iorch_hypervisor::VmSpec;
use iorch_netsim::{MsgBus, NodeId};
use iorch_simcore::{gen, SimDuration, SimRng, SimTime};
use iorchestra::cluster::{
    place, ClusterConfig, Controller, ControllerStats, Msg, NodeCaps, NodeView,
};

const NODES: u32 = 4;
const CTRL: NodeId = NodeId(NODES as usize);

/// Capacity variants: roomy, tight, and one that fills after a few VMs
/// (so some domains fit nowhere and fall out of the placement).
const CAPS: [NodeCaps; 3] = [
    NodeCaps {
        total_vcpus: 40,
        numa_max_vcpus: 20,
        mem_quota: 64 << 30,
    },
    NodeCaps {
        total_vcpus: 16,
        numa_max_vcpus: 4,
        mem_quota: 16 << 30,
    },
    NodeCaps {
        total_vcpus: 6,
        numa_max_vcpus: 6,
        mem_quota: 8 << 30,
    },
];

struct RefMember {
    incarnation: u64,
    caps: NodeCaps,
    lease_until: SimTime,
    alive: bool,
    owned: Vec<u32>,
}

#[derive(Clone, Copy)]
struct Rpc {
    start: bool,
    seq: u64,
    deadline: SimTime,
    attempt: u32,
}

/// The reference controller: the same protocol, written with a full
/// placement pass per tick and a map lookup per reconcile question.
struct RefController {
    cfg: ClusterConfig,
    epoch: u64,
    down: bool,
    grace_until: SimTime,
    members: BTreeMap<u32, RefMember>,
    catalog: BTreeMap<u32, VmSpec>,
    next_ldom: u32,
    orphans: BTreeMap<u32, u32>,
    next_seq: u64,
    inflight: BTreeMap<(u32, u32), Rpc>,
    stats: ControllerStats,
}

impl RefController {
    fn new(cfg: ClusterConfig) -> Self {
        RefController {
            cfg,
            epoch: 1,
            down: false,
            grace_until: SimTime::ZERO,
            members: BTreeMap::new(),
            catalog: BTreeMap::new(),
            next_ldom: 0,
            orphans: BTreeMap::new(),
            next_seq: 0,
            inflight: BTreeMap::new(),
            stats: ControllerStats::default(),
        }
    }

    fn desired(&self) -> BTreeMap<u32, u32> {
        let alive: Vec<(u32, NodeCaps)> = self
            .members
            .iter()
            .filter(|(_, m)| m.alive)
            .map(|(&n, m)| (n, m.caps))
            .collect();
        fresh_placement(&alive, &self.catalog)
    }

    fn submit(&mut self, spec: VmSpec) -> u32 {
        self.next_ldom += 1;
        self.catalog.insert(self.next_ldom, spec);
        self.next_ldom
    }

    fn retire(&mut self, ldom: u32) {
        self.catalog.remove(&ldom);
        self.orphans.remove(&ldom);
    }

    fn crash(&mut self) {
        self.down = true;
        self.members.clear();
        self.inflight.clear();
        self.orphans.clear();
    }

    fn recover(&mut self, now: SimTime) {
        self.down = false;
        self.epoch += 1;
        self.next_seq = 0;
        self.grace_until = now + self.cfg.recovery_grace;
    }

    fn tick(&mut self, bus: &mut MsgBus<Msg>, now: SimTime) {
        if self.down || now < self.grace_until {
            return;
        }
        // Lease expiry.
        let expired: Vec<u32> = self
            .members
            .iter()
            .filter(|(_, m)| m.alive && m.lease_until <= now)
            .map(|(&n, _)| n)
            .collect();
        for node in expired {
            let m = self.members.get_mut(&node).unwrap();
            m.alive = false;
            for ldom in std::mem::take(&mut m.owned) {
                self.orphans.insert(ldom, node);
            }
            self.inflight.retain(|&(n, _), _| n != node);
        }
        // Retries.
        let due: Vec<(u32, u32)> = self
            .inflight
            .iter()
            .filter(|(_, rpc)| rpc.deadline <= now)
            .map(|(&k, _)| k)
            .collect();
        for (node, ldom) in due {
            let rpc = self.inflight.remove(&(node, ldom)).unwrap();
            let alive = self.members.get(&node).is_some_and(|m| m.alive);
            let spec = self.catalog.get(&ldom).copied();
            if !alive || (rpc.start && spec.is_none()) {
                continue;
            }
            self.stats.retries += 1;
            self.issue(bus, now, node, ldom, rpc.start, spec, rpc.attempt + 1);
        }
        // Reconcile: starts in ascending ldom order, then stops by
        // (node, ldom), make before break.
        let desired = self.desired();
        for (&ldom, &node) in &desired {
            let has_it = self
                .members
                .get(&node)
                .is_some_and(|m| m.owned.contains(&ldom));
            if has_it || self.inflight.contains_key(&(node, ldom)) {
                continue;
            }
            if self.orphans.remove(&ldom).is_some() {
                self.stats.failovers += 1;
            }
            let spec = self.catalog.get(&ldom).copied();
            self.issue(bus, now, node, ldom, true, spec, 0);
        }
        let mut stops = Vec::new();
        for (&node, m) in self.members.iter().filter(|(_, m)| m.alive) {
            for &ldom in &m.owned {
                let keep = match desired.get(&ldom) {
                    Some(&d) if d == node => true,
                    Some(&d) => !self
                        .members
                        .get(&d)
                        .is_some_and(|dm| dm.owned.contains(&ldom)),
                    None => self.catalog.contains_key(&ldom),
                };
                if !keep && !self.inflight.contains_key(&(node, ldom)) {
                    stops.push((node, ldom));
                }
            }
        }
        for (node, ldom) in stops {
            self.issue(bus, now, node, ldom, false, None, 0);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        bus: &mut MsgBus<Msg>,
        now: SimTime,
        node: u32,
        ldom: u32,
        start: bool,
        spec: Option<VmSpec>,
        attempt: u32,
    ) {
        let Some(m) = self.members.get(&node) else {
            return;
        };
        let inc = m.incarnation;
        self.next_seq += 1;
        let seq = self.next_seq;
        let shift = attempt.min(self.cfg.backoff_cap_shift);
        let deadline = now + self.cfg.rpc_timeout * (1u64 << shift);
        let msg = if start {
            let Some(spec) = spec else { return };
            Msg::Start {
                node,
                inc,
                epoch: self.epoch,
                seq,
                ldom,
                spec,
            }
        } else {
            Msg::Stop {
                node,
                inc,
                epoch: self.epoch,
                seq,
                ldom,
            }
        };
        self.stats.commands += 1;
        self.inflight.insert(
            (node, ldom),
            Rpc {
                start,
                seq,
                deadline,
                attempt,
            },
        );
        let len = msg.wire_len();
        bus.send(CTRL, NodeId(node as usize), len, msg, now);
    }

    fn grant_lease(&self, bus: &mut MsgBus<Msg>, node: u32, now: SimTime) {
        let msg = Msg::Lease {
            node,
            epoch: self.epoch,
            ttl: self.cfg.lease_ttl,
        };
        let len = msg.wire_len();
        bus.send(CTRL, NodeId(node as usize), len, msg, now);
    }

    /// Register (`owned == None`) or heartbeat.
    fn on_hello(
        &mut self,
        bus: &mut MsgBus<Msg>,
        node: u32,
        incarnation: u64,
        caps: NodeCaps,
        owned: Option<Vec<u32>>,
        now: SimTime,
    ) {
        let lease_until = now + self.cfg.lease_ttl;
        match self.members.get_mut(&node) {
            Some(m) if incarnation < m.incarnation => return,
            Some(m) if incarnation == m.incarnation => {
                m.caps = caps;
                if let Some(owned) = &owned {
                    m.owned = owned.clone();
                }
                m.lease_until = lease_until;
                m.alive = true;
            }
            _ => {
                self.inflight.retain(|&(n, _), _| n != node);
                self.members.insert(
                    node,
                    RefMember {
                        incarnation,
                        caps,
                        lease_until,
                        alive: true,
                        owned: owned.clone().unwrap_or_default(),
                    },
                );
            }
        }
        if owned.is_some() {
            let owned_now = self.members[&node].owned.clone();
            self.inflight
                .retain(|&(n, ldom), rpc| n != node || rpc.start != owned_now.contains(&ldom));
        }
        self.grant_lease(bus, node, now);
    }

    fn on_ack(&mut self, node: u32, epoch: u64, seq: u64) {
        if epoch != self.epoch {
            self.stats.stale_acks += 1;
            return;
        }
        self.inflight
            .retain(|&(n, _), rpc| !(n == node && rpc.seq == seq));
    }
}

/// One greedy placement pass, straight from the definition: alive
/// members in ascending node order, catalog in ascending ldom order.
fn fresh_placement(
    alive: &[(u32, NodeCaps)],
    catalog: &BTreeMap<u32, VmSpec>,
) -> BTreeMap<u32, u32> {
    let mut views: Vec<NodeView> = alive
        .iter()
        .map(|&(n, c)| NodeView::new(n, c.total_vcpus, c.numa_max_vcpus, c.mem_quota))
        .collect();
    let mut out = BTreeMap::new();
    for (&ldom, spec) in catalog {
        if let Some(node) = place(spec, &mut views) {
            out.insert(ldom, node);
        }
    }
    out
}

/// Everything delivered so far, as `(destination, message)` text.
fn drain(bus: &mut MsgBus<Msg>) -> Vec<String> {
    bus.take_due(SimTime::MAX)
        .into_iter()
        .map(|(dst, msg)| format!("{dst:?} {msg:?}"))
        .collect()
}

/// The script runner: both controllers, their buses, and the nodes'
/// boot incarnations.
struct Run {
    real: Controller,
    model: RefController,
    real_bus: MsgBus<Msg>,
    model_bus: MsgBus<Msg>,
    boot: [u64; NODES as usize],
    now: SimTime,
    coverage: Coverage,
}

/// What a sweep exercised, so a script change cannot quietly stop
/// reaching a branch.
#[derive(Default)]
struct Coverage {
    starts: u64,
    stops: u64,
    /// Steps after which some catalog domain fit on no node.
    unplaced: u64,
}

impl Run {
    fn new() -> Self {
        let cfg = ClusterConfig::default();
        let n = NODES as usize + 1;
        Run {
            real: Controller::new(cfg, CTRL),
            model: RefController::new(cfg),
            real_bus: MsgBus::new(n, cfg.net),
            model_bus: MsgBus::new(n, cfg.net),
            boot: [1; NODES as usize],
            now: SimTime::ZERO,
            coverage: Coverage::default(),
        }
    }

    /// A node's incarnation for one message: usually its current boot,
    /// sometimes a delayed duplicate from a previous life, sometimes a
    /// reboot.
    fn incarnation(&mut self, rng: &mut SimRng, node: u32) -> u64 {
        let b = &mut self.boot[node as usize];
        match rng.below(10) {
            0 => *b = b.saturating_sub(1).max(1),
            1 => *b += 1,
            _ => {}
        }
        let inc = *b;
        if rng.below(8) == 0 {
            return inc.saturating_sub(1);
        }
        inc
    }

    /// A heartbeat's owned set: mostly what the placement wants on this
    /// node, plus strays (superseded copies, retired and unknown ids).
    fn owned(&self, rng: &mut SimRng, node: u32) -> Vec<u32> {
        let desired = self.model.desired();
        (1..=self.model.next_ldom + 2)
            .filter(|ldom| {
                let p = if desired.get(ldom) == Some(&node) {
                    0.8
                } else {
                    0.06
                };
                rng.chance(p)
            })
            .collect()
    }

    fn deliver(&mut self, msg: Msg) {
        self.real.on_msg(&mut self.real_bus, msg.clone(), self.now);
        match msg {
            Msg::Register {
                node,
                incarnation,
                caps,
            } => self
                .model
                .on_hello(&mut self.model_bus, node, incarnation, caps, None, self.now),
            Msg::Heartbeat {
                node,
                incarnation,
                caps,
                owned,
            } => self.model.on_hello(
                &mut self.model_bus,
                node,
                incarnation,
                caps,
                Some(owned),
                self.now,
            ),
            Msg::CmdAck { node, epoch, seq } => self.model.on_ack(node, epoch, seq),
            _ => unreachable!("the script only sends node-originated messages"),
        }
    }

    /// One random script step; returns its label for failure messages.
    fn step(&mut self, rng: &mut SimRng) -> String {
        let node = rng.below(u64::from(NODES)) as u32;
        match rng.below(100) {
            0..=9 => {
                let spec = VmSpec::new(1 + rng.below(6) as u32, 1 + rng.below(8));
                let a = self.real.submit(spec);
                let b = self.model.submit(spec);
                assert_eq!(a, b, "submit ids");
                format!("submit {a} {spec:?}")
            }
            10..=14 => {
                let ldom = rng.range(1, u64::from(self.model.next_ldom) + 3) as u32;
                self.real.retire(ldom);
                self.model.retire(ldom);
                format!("retire {ldom}")
            }
            15..=22 => {
                let incarnation = self.incarnation(rng, node);
                let caps = *rng.pick(&CAPS);
                self.deliver(Msg::Register {
                    node,
                    incarnation,
                    caps,
                });
                format!("register {node} inc {incarnation} {caps:?}")
            }
            23..=54 => {
                let incarnation = self.incarnation(rng, node);
                let caps = if rng.below(6) == 0 {
                    *rng.pick(&CAPS)
                } else {
                    self.model.members.get(&node).map_or(CAPS[0], |m| m.caps)
                };
                let owned = self.owned(rng, node);
                let label = format!("heartbeat {node} inc {incarnation} {caps:?} {owned:?}");
                self.deliver(Msg::Heartbeat {
                    node,
                    incarnation,
                    caps,
                    owned,
                });
                label
            }
            55..=64 => {
                let epoch = self.model.epoch - u64::from(rng.below(4) == 0);
                let seq = self.model.next_seq.saturating_sub(rng.below(6));
                self.deliver(Msg::CmdAck { node, epoch, seq });
                format!("ack {node} epoch {epoch} seq {seq}")
            }
            65..=66 => {
                if self.model.down {
                    self.real.recover(self.now);
                    self.model.recover(self.now);
                    "recover".into()
                } else {
                    self.real.crash(self.now);
                    self.model.crash();
                    "crash".into()
                }
            }
            _ => {
                // Mostly one controller period; sometimes long enough for
                // leases and command deadlines to run out.
                let ms = if rng.below(5) == 0 {
                    rng.range(100, 900)
                } else {
                    rng.range(1, 80)
                };
                self.now += SimDuration::from_millis(ms);
                self.real.tick(&mut self.real_bus, self.now);
                self.model.tick(&mut self.model_bus, self.now);
                format!("tick +{ms}ms")
            }
        }
    }

    fn check(&mut self, ctx: &str) {
        let alive: Vec<(u32, NodeCaps)> = self
            .real
            .members()
            .iter()
            .filter(|(_, m)| m.alive)
            .map(|(&n, m)| (n, m.caps))
            .collect();
        assert_eq!(
            self.real.desired(),
            fresh_placement(&alive, self.real.catalog()),
            "{ctx}: desired() vs a fresh placement pass"
        );
        let sent = drain(&mut self.real_bus);
        assert_eq!(sent, drain(&mut self.model_bus), "{ctx}: message stream");
        for m in &sent {
            if m.contains("Start {") {
                self.coverage.starts += 1;
            } else if m.contains("Stop {") {
                self.coverage.stops += 1;
            }
        }
        if self.real.desired().len() < self.real.catalog().len() {
            self.coverage.unplaced += 1;
        }
        assert_eq!(self.real.stats(), self.model.stats, "{ctx}: stats");
        assert_eq!(self.real.epoch(), self.model.epoch, "{ctx}: epoch");
        assert_eq!(self.real.is_down(), self.model.down, "{ctx}: down");
        assert_eq!(
            self.real.inflight_len(),
            self.model.inflight.len(),
            "{ctx}: in-flight commands"
        );
        let real: Vec<_> = self
            .real
            .members()
            .iter()
            .map(|(&n, m)| {
                (
                    n,
                    m.incarnation,
                    m.caps,
                    m.lease_until,
                    m.alive,
                    m.owned.clone(),
                )
            })
            .collect();
        let model: Vec<_> = self
            .model
            .members
            .iter()
            .map(|(&n, m)| {
                (
                    n,
                    m.incarnation,
                    m.caps,
                    m.lease_until,
                    m.alive,
                    m.owned.clone(),
                )
            })
            .collect();
        assert_eq!(real, model, "{ctx}: membership");
        assert_eq!(self.real.catalog(), &self.model.catalog, "{ctx}: catalog");
    }
}

fn sweep(base: u64, seeds: usize, steps: usize) {
    let mut total = Coverage::default();
    let mut stats = ControllerStats::default();
    gen::for_each_seed(base, seeds, |seed, rng| {
        let mut run = Run::new();
        for i in 0..steps {
            let op = run.step(rng);
            run.check(&format!("seed {seed:#x} step {i} ({op})"));
        }
        total.starts += run.coverage.starts;
        total.stops += run.coverage.stops;
        total.unplaced += run.coverage.unplaced;
        let s = run.real.stats();
        stats.retries += s.retries;
        stats.failovers += s.failovers;
        stats.stale_acks += s.stale_acks;
    });
    assert!(
        total.starts > 0 && total.stops > 0,
        "starts and stops issued"
    );
    assert!(total.unplaced > 0, "a full cluster leaves domains unplaced");
    assert!(
        stats.retries > 0 && stats.failovers > 0 && stats.stale_acks > 0,
        "retries, failovers and stale acks exercised: {stats:?}"
    );
}

#[test]
fn controller_matches_naive_reference() {
    sweep(0xC7_1A11, 48, 300);
}

#[test]
#[ignore = "heavy sweep; run in release with --include-ignored"]
fn controller_matches_naive_reference_heavy() {
    sweep(0xC7_1A12, 1024, 1500);
}
