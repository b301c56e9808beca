//! Differential test: the change-driven `CoschedRule` against a naive
//! reference that re-evaluates every domain on every tick.
//!
//! The reference is Algorithm 3 written the obvious way: each tick it
//! recomputes every unquarantined domain's route from the current I/O-core
//! latencies and pushes it when it moved past the threshold since that
//! domain's last push, or when the push interval is due. Both rules sit in
//! one stage of a policy engine on a machine with a dedicated I/O core per
//! socket and see the same context each tick; the stage applies the real
//! rule's actions and records both lists. Random scripts create and
//! destroy domains (one to six VCPUs, so some span sockets), quarantine
//! them, clear them through the operator key, drive reads that move the
//! I/O cores' latencies, crash and recover the plane, and advance time
//! across the 1 s push interval. Every tick's `Action::Priority` list must
//! equal the reference's.
//!
//! The debug suite runs a light sweep; the heavy sweep is `#[ignore]`d and
//! runs in release:
//! `cargo test -p iorchestra --release --test cosched_model -- --include-ignored`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use iorch_guestos::{FileId, FileOp};
use iorch_hypervisor::{Cluster, DomainId, IoPathMode, MachineConfig, VmSpec, DOM0};
use iorch_simcore::{gen, SimDuration, SimRng, SimTime, Simulation};
use iorchestra::formulas::{
    drr_quantum, inverse_latency_weights, ratio_changed, socket_io_share, socket_process_weight,
};
use iorchestra::policy::{CoschedRule, EnforcementPoint};
use iorchestra::{keys, Action, IOrchestraConfig, PolicyCtx, PolicyEngine, PolicySet, Rule, Stage};

/// Algorithm 3 evaluated for every domain on every tick.
#[derive(Default)]
struct Naive {
    last_route_weights: BTreeMap<DomainId, Vec<f64>>,
    last_weight_push: SimTime,
}

impl Naive {
    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let m = ctx.machine();
        if m.iocores.len() < 2 {
            return;
        }
        let now = ctx.now();
        let cfg = ctx.cfg();
        let mut lat_by_socket: BTreeMap<usize, f64> = BTreeMap::new();
        for c in &m.iocores {
            lat_by_socket.insert(c.socket(), c.avg_latency().as_micros_f64());
        }
        let vm_share = 1.0 / m.domain_count().max(1) as f64;
        let device_bw = m.storage.device_bandwidth();
        let interval_due =
            now.saturating_since(self.last_weight_push) >= cfg.weight_update_interval;
        let mut pushed = false;
        for dom in m.domains() {
            if ctx.is_quarantined(dom) {
                continue;
            }
            let d = m.domain(dom).unwrap();
            let vcpu_sockets: Vec<usize> = (0..d.spec.vcpus)
                .map(|v| d.vcpu_socket(&m.topology, v))
                .collect();
            let weights = vec![1.0; vcpu_sockets.len()];
            let mut spanned = vcpu_sockets.clone();
            spanned.sort_unstable();
            spanned.dedup();
            let lats: Vec<f64> = spanned
                .iter()
                .map(|sk| lat_by_socket.get(sk).copied().unwrap_or(1.0))
                .collect();
            let inv = inverse_latency_weights(&lats);
            let total_w: f64 = weights.iter().sum();
            let mut route = vec![0.0; m.topology.sockets()];
            for (j, &sk) in spanned.iter().enumerate() {
                let proc_w = socket_process_weight(&weights, &vcpu_sockets, sk);
                route[sk] = inv[j] * (proc_w / total_w).max(0.05);
            }
            let norm: f64 = route.iter().sum();
            if norm > 0.0 {
                route.iter_mut().for_each(|r| *r /= norm);
            }
            let stale = self
                .last_route_weights
                .get(&dom)
                .is_none_or(|prev| ratio_changed(prev, &route, cfg.weight_change_threshold));
            if !(stale || interval_due) {
                continue;
            }
            pushed = true;
            self.last_route_weights.insert(dom, route.clone());
            let quanta = spanned
                .iter()
                .map(|&sk| {
                    let w = socket_process_weight(&weights, &vcpu_sockets, sk);
                    let share = socket_io_share(w, total_w, vm_share);
                    (sk, drr_quantum(device_bw, share, cfg.drr_round))
                })
                .collect();
            out.push(Action::Priority {
                dom,
                route,
                quanta,
                blkio_weight: ((vm_share * 1000.0) as u32).clamp(10, 1000),
            });
        }
        if pushed {
            self.last_weight_push = now;
        }
    }
}

/// What the sweep saw, shared between the stage and the script.
#[derive(Default)]
struct Log {
    /// First tick whose lists differed.
    mismatch: Option<String>,
    ticks: u64,
    pushes: u64,
    /// Ticks whose latency vector differed from the previous tick's.
    lat_moves: u64,
    last_lats: Vec<u64>,
    /// Domains the script wants quarantined at the next tick.
    to_quarantine: Vec<DomainId>,
}

/// Runs the real rule and the reference on the same context, applies the
/// real rule's actions, and logs the first divergence.
struct Differential {
    real: CoschedRule,
    naive: Naive,
    log: Rc<RefCell<Log>>,
}

impl Rule for Differential {
    fn name(&self) -> &'static str {
        "cosched-differential"
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        let mut real = Vec::new();
        let mut naive = Vec::new();
        self.real.on_tick(ctx, &mut real);
        self.naive.on_tick(ctx, &mut naive);
        let mut log = self.log.borrow_mut();
        let lats: Vec<u64> = ctx
            .machine()
            .iocores
            .iter()
            .map(|c| c.avg_latency().as_micros_f64().to_bits())
            .collect();
        if lats != log.last_lats {
            log.lat_moves += 1;
            log.last_lats = lats;
        }
        log.ticks += 1;
        log.pushes += naive.len() as u64;
        if real != naive && log.mismatch.is_none() {
            log.mismatch = Some(format!(
                "t={}: rule pushed {:?}, reference pushed {:?}",
                ctx.now(),
                doms(&real),
                doms(&naive)
            ));
        }
        out.extend(real);
    }

    fn on_domain_created(&mut self, dom: DomainId) {
        self.real.on_domain_created(dom);
    }

    fn on_domain_destroyed(&mut self, dom: DomainId) {
        self.real.on_domain_destroyed(dom);
        self.naive.last_route_weights.remove(&dom);
    }

    fn on_quarantine_cleared(&mut self, dom: DomainId) {
        self.real.on_quarantine_cleared(dom);
    }

    fn on_crash(&mut self) {
        self.real.on_crash();
        self.naive = Naive::default();
    }
}

fn doms(actions: &[Action]) -> Vec<u32> {
    actions.iter().map(|a| a.domain().0).collect()
}

/// Quarantines the domains the script queued (admission stage, so the
/// same tick's co-scheduling already skips them).
struct Quarantiner(Rc<RefCell<Log>>);

impl Rule for Quarantiner {
    fn name(&self) -> &'static str {
        "script-quarantine"
    }

    fn on_tick(&mut self, _ctx: &PolicyCtx<'_>, out: &mut Vec<Action>) {
        for dom in self.0.borrow_mut().to_quarantine.drain(..) {
            out.push(Action::Quarantine {
                dom,
                reason: "script",
            });
        }
    }
}

struct Run {
    sim: Simulation<Cluster>,
    idx: usize,
    /// Live domains with the file their reads target.
    live: Vec<(DomainId, FileId, u32)>,
    log: Rc<RefCell<Log>>,
    clears: u64,
}

impl Run {
    fn new(seed: u64) -> Self {
        let log = Rc::new(RefCell::new(Log::default()));
        let set = PolicySet::custom("cosched-differential", IOrchestraConfig::new(seed))
            .collaborative(true)
            .stage(
                Stage::new("admission", EnforcementPoint::QueueAdmission)
                    .rule(Quarantiner(Rc::clone(&log))),
            )
            .stage(
                Stage::new("cosched", EnforcementPoint::DeviceDispatch).rule(Differential {
                    real: CoschedRule::new(),
                    naive: Naive::default(),
                    log: Rc::clone(&log),
                }),
            );
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let mode = IoPathMode::DedicatedCores { per_socket: true };
        let idx = cl.add_machine(MachineConfig::paper_testbed(seed, mode));
        cl.install_control(s, idx, Box::new(PolicyEngine::new(set)));
        Run {
            sim,
            idx,
            live: Vec::new(),
            log,
            clears: 0,
        }
    }

    fn step(&mut self, rng: &mut SimRng) -> String {
        let idx = self.idx;
        let (cl, s) = self.sim.parts_mut();
        let pick = |rng: &mut SimRng, live: &[(DomainId, FileId, u32)]| {
            (!live.is_empty()).then(|| live[rng.below(live.len() as u64) as usize])
        };
        match rng.below(100) {
            0..=11 if self.live.len() < 10 => {
                let vcpus = 1 + rng.below(6) as u32;
                let dom = cl.create_domain(s, idx, VmSpec::new(vcpus, 1), |_| {});
                let file = cl
                    .machine_mut(idx)
                    .kernel_mut(dom)
                    .unwrap()
                    .create_file(256 << 20)
                    .unwrap();
                self.live.push((dom, file, vcpus));
                format!("create {dom:?} vcpus {vcpus}")
            }
            12..=17 => {
                let Some((dom, ..)) = pick(rng, &self.live) else {
                    return "destroy (none)".into();
                };
                self.live.retain(|&(d, ..)| d != dom);
                cl.destroy_domain(s, idx, dom);
                format!("destroy {dom:?}")
            }
            18..=22 => {
                let Some((dom, ..)) = pick(rng, &self.live) else {
                    return "quarantine (none)".into();
                };
                self.log.borrow_mut().to_quarantine.push(dom);
                format!("quarantine {dom:?}")
            }
            23..=37 => {
                let Some((dom, ..)) = pick(rng, &self.live) else {
                    return "clear (none)".into();
                };
                let path = keys::clear_quarantine(dom);
                cl.cp_action(s, idx, move |m, _s| {
                    let _ = m.store.write(DOM0, &path, "1");
                });
                self.clears += 1;
                format!("clear {dom:?}")
            }
            38..=57 => {
                // A burst of uncached reads from one domain: its I/O core's
                // latency average moves.
                let Some((dom, file, vcpus)) = pick(rng, &self.live) else {
                    return "reads (none)".into();
                };
                let n = 1 + rng.below(24);
                for _ in 0..n {
                    let offset = rng.below(255) << 20;
                    let vcpu = rng.below(u64::from(vcpus)) as u32;
                    let len = (1 + rng.below(8)) << 16;
                    let op = FileOp::Read { file, offset, len };
                    cl.submit_op(s, idx, dom, vcpu, op, None);
                }
                format!("{n} reads on {dom:?}")
            }
            58..=59 if !cl.machine(idx).is_control_down() => {
                Cluster::crash_control(cl, s, idx);
                "crash plane".into()
            }
            _ => {
                // A crashed plane usually restarts before time moves on.
                let mut label = String::new();
                if cl.machine(idx).is_control_down() && rng.chance(0.7) {
                    Cluster::recover_control(cl, s, idx);
                    label.push_str("recover plane, ");
                }
                // Mostly a few ticks; sometimes past the 1 s interval.
                let ms = if rng.below(4) == 0 {
                    rng.range(900, 1600)
                } else {
                    rng.range(10, 400)
                };
                let until = self.sim.now() + SimDuration::from_millis(ms);
                self.sim.run_until(until);
                label + &format!("advance {ms}ms")
            }
        }
    }
}

fn sweep(base: u64, seeds: usize, steps: usize) {
    let (mut pushes, mut lat_moves, mut clears) = (0, 0, 0);
    gen::for_each_seed(base, seeds, |seed, rng| {
        let mut run = Run::new(seed);
        let mut script = Vec::new();
        for _ in 0..steps {
            script.push(run.step(rng));
            if let Some(m) = &run.log.borrow().mismatch {
                panic!("seed {seed:#x}: {m}\nscript: {script:#?}");
            }
        }
        let log = run.log.borrow();
        assert!(log.ticks > 0, "seed {seed:#x}: the plane never ticked");
        pushes += log.pushes;
        lat_moves += log.lat_moves;
        clears += run.clears;
    });
    assert!(pushes > 0 && lat_moves > 0 && clears > 0, "sweep coverage");
}

#[test]
fn cosched_rule_matches_naive_reference() {
    sweep(0x0C05_C4ED, 6, 60);
}

#[test]
#[ignore = "heavy sweep; run in release with --include-ignored"]
fn cosched_rule_matches_naive_reference_heavy() {
    sweep(0x0C05_C4EE, 512, 200);
}

/// A domain quarantined while the latencies move must be re-evaluated
/// when its quarantine clears, even if nothing else moved since.
#[test]
fn cleared_domain_sees_latencies_that_moved_while_quarantined() {
    let mut run = Run::new(7);
    let (cl, s) = run.sim.parts_mut();
    let idx = run.idx;
    // Six VCPUs on a two-socket testbed with six cores per socket:
    // placement puts some on each socket once the first fills.
    let filler = cl.create_domain(s, idx, VmSpec::new(4, 1), |_| {});
    let wide = cl.create_domain(s, idx, VmSpec::new(6, 1), |_| {});
    let m = cl.machine(idx);
    let d = m.domain(wide).unwrap();
    let spans = (0..6)
        .map(|v| d.vcpu_socket(&m.topology, v))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert_eq!(spans, 2, "the wide domain spans both sockets");
    let file = cl
        .machine_mut(idx)
        .kernel_mut(filler)
        .unwrap()
        .create_file(256 << 20)
        .unwrap();
    run.sim.run_until(SimTime::from_millis(250));
    run.log.borrow_mut().to_quarantine.push(wide);
    run.sim.run_until(SimTime::from_millis(350));
    // Reads from the filler load one socket's I/O core only.
    let (cl, s) = run.sim.parts_mut();
    for i in 0..32 {
        let op = FileOp::Read {
            file,
            offset: i << 22,
            len: 1 << 18,
        };
        cl.submit_op(s, idx, filler, 0, op, None);
    }
    // Let the reads finish and the interval push go out while `wide` is
    // still quarantined, so the latencies are steady when it clears.
    run.sim.run_until(SimTime::from_millis(2450));
    let pushes = run.log.borrow().pushes;
    let (cl, s) = run.sim.parts_mut();
    let path = keys::clear_quarantine(wide);
    cl.cp_action(s, idx, move |m, _s| {
        let _ = m.store.write(DOM0, &path, "1");
    });
    run.sim.run_until(SimTime::from_millis(2650));
    let log = run.log.borrow();
    assert_eq!(log.mismatch, None);
    assert!(log.pushes > pushes, "the cleared domain was re-pushed");
}
