//! The `scale` experiment: control-tick cost vs domain count.
//!
//! The ROADMAP's enabling refactor for the multi-node tier demands that
//! the control plane's own steady-state cost be (near-)independent of the
//! number of *live* domains — O(changed), not O(live). This family
//! measures exactly that: the wall-clock cost of one `PolicyEngine` tick
//! at 16/128/1024 domains, in two variants per count:
//!
//! * **steady** — no guest activity at all after warm-up: every dirty set
//!   is empty, so a tick should cost the same at 1024 domains as at 16.
//!   The tier-1 gate asserts the last axis point stays within 4x of the
//!   first (1024 vs 16 under the shipped spec).
//! * **churn** — 1% of the domains (min 1) are destroyed and recreated
//!   between ticks. Two columns report it: `churn_ns_per_tick` times the
//!   tick that reacts to the churn, and `churn_ns_per_domain` times the
//!   whole cycle — destroy, create and tick — per churned domain. The
//!   slab learns of the churn only through the lifecycle hooks
//!   (`on_domain_destroyed` drops a slot, `on_domain_created` builds
//!   one); there is no domain-generation resync. Both columns are
//!   reported for context, not gated: the anomaly rule still sweeps
//!   every domain on a tick whose store write total moved, which each
//!   domain creation causes.
//!
//! Because the measurement is `std::time::Instant` wall clock, this spec
//! is marked `timing: true`: excluded from `experiments run all` and the
//! golden byte-identity sweeps, run by name from `scripts/tier1.sh`, and
//! gated on the threshold above instead of byte identity. Besides the
//! per-run artifacts, the run emits `BENCH_scale.json` at the repo root
//! through the shared schema-validated gate emitter
//! ([`gate::write_root_artifact`]).

use std::time::Instant;

use iorch_hypervisor::{Cluster, ControlPlane, IoPathMode, MachineConfig, VmSpec};
use iorch_simcore::Simulation;
use iorchestra::{IOrchestraConfig, PolicyEngine, PolicySet};

use super::{gate, Ctx, Figure};

/// One harness: a Paravirt machine with `doms` idle domains and the full
/// IOrchestra policy engine held *outside* the machine, so ticks can be
/// driven (and timed) directly without scheduler dispatch on the path.
struct Harness {
    sim: Simulation<Cluster>,
    plane: PolicyEngine,
    idx: usize,
    ids: Vec<iorch_hypervisor::DomainId>,
}

fn vm() -> VmSpec {
    VmSpec::new(1, 1).with_disk_gb(1)
}

impl Harness {
    fn new(doms: u32, seed: u64) -> Self {
        let mut sim = Simulation::new(Cluster::new());
        let (cl, s) = sim.parts_mut();
        let idx = cl.add_machine(MachineConfig::paper_testbed(seed, IoPathMode::Paravirt));
        let mut plane = PolicyEngine::new(PolicySet::iorchestra(IOrchestraConfig::new(seed)));
        let mut ids = Vec::with_capacity(doms as usize);
        for _ in 0..doms {
            let dom = cl.create_domain(s, idx, vm(), |_| {});
            plane.on_domain_created(cl.machine_mut(idx), s, dom);
            ids.push(dom);
        }
        Harness {
            sim,
            plane,
            idx,
            ids,
        }
    }

    fn tick(&mut self) {
        let (cl, s) = self.sim.parts_mut();
        self.plane.on_tick(cl.machine_mut(self.idx), s);
    }

    /// Destroy the `k` oldest domains and create `k` fresh ones (slot
    /// recycling keeps the machine's slot table at its high-water mark).
    fn churn(&mut self, k: usize) {
        let (cl, s) = self.sim.parts_mut();
        for _ in 0..k {
            let dom = self.ids.remove(0);
            self.plane
                .on_domain_destroyed(cl.machine_mut(self.idx), s, dom);
            cl.destroy_domain(s, self.idx, dom);
        }
        for _ in 0..k {
            let dom = cl.create_domain(s, self.idx, vm(), |_| {});
            self.plane
                .on_domain_created(cl.machine_mut(self.idx), s, dom);
            self.ids.push(dom);
        }
    }
}

/// Steady-state cost: warm up until the dirty sets drain, then time a
/// batch of ticks in one `Instant` span (per-tick clock reads would
/// dominate an O(1) tick). Returns mean ns/tick.
fn steady_ns(doms: u32, seed: u64, warmup: u32, ticks: u32) -> f64 {
    let mut h = Harness::new(doms, seed);
    for _ in 0..warmup {
        h.tick();
    }
    let t0 = Instant::now();
    for _ in 0..ticks {
        h.tick();
    }
    t0.elapsed().as_nanos() as f64 / ticks.max(1) as f64
}

/// Churn cost: 1% of the domains (min 1) are replaced before each tick.
/// Returns `(ns per tick, ns per churned domain)`: the first times only
/// the tick reacting to the churn (slot bookkeeping, health publication
/// for the new tenants), the second the whole destroy + create + tick
/// cycle divided by the number of domains replaced.
fn churn_ns(doms: u32, seed: u64, warmup: u32, ticks: u32) -> (f64, f64) {
    let k = (doms as usize / 100).max(1);
    let mut h = Harness::new(doms, seed);
    for _ in 0..warmup {
        h.tick();
    }
    let (mut tick_total, mut cycle_total) = (0u128, 0u128);
    for _ in 0..ticks {
        let t0 = Instant::now();
        h.churn(k);
        let t1 = Instant::now();
        h.tick();
        let t2 = Instant::now();
        tick_total += (t2 - t1).as_nanos();
        cycle_total += (t2 - t0).as_nanos();
    }
    let ticks = ticks.max(1) as f64;
    (
        tick_total as f64 / ticks,
        cycle_total as f64 / (ticks * k as f64),
    )
}

/// The family run function (see the module docs). Gate: the last axis
/// point's steady-state tick must stay within 4x of the first's.
pub(crate) fn run_scale(ctx: &Ctx) -> Vec<Figure> {
    let [warmup, steady_ticks, churn_ticks] = ctx.p.axis2 else {
        panic!("scale: axis2 must be [warmup_ticks, steady_ticks, churn_ticks]");
    };
    let (warmup, steady_ticks, churn_ticks) =
        (*warmup as u32, *steady_ticks as u32, *churn_ticks as u32);
    let mut f = Figure::new(
        "scale",
        "Control-tick cost vs domain count (steady state and 1% churn)",
        "domains",
        "ns",
        vec![
            "steady_ns_per_tick".into(),
            "churn_ns_per_tick".into(),
            "churn_ns_per_domain".into(),
        ],
    );
    let mut steady = Vec::new();
    for &doms in ctx.p.axis {
        let doms = doms as u32;
        let s = steady_ns(doms, ctx.seed, warmup, steady_ticks);
        let (c, per_dom) = churn_ns(doms, ctx.seed, warmup, churn_ticks);
        steady.push((doms, s));
        f.row(doms.to_string(), vec![s, c, per_dom]);
        f.samples += (steady_ticks + churn_ticks) as u64;
    }
    let path = gate::write_root_artifact(
        "BENCH_scale.json",
        &f,
        ctx.spec.name,
        ctx.profile.name(),
        ctx.seed,
    );
    println!("wrote {}", path.display());
    let (d0, first) = steady[0];
    let (dn, last) = steady[steady.len() - 1];
    let ratio = last / first.max(1e-9);
    println!(
        "[scale gate] steady tick {d0} doms: {first:.0} ns, {dn} doms: {last:.0} ns \
         (ratio {ratio:.2}x, limit 4.00x)"
    );
    assert!(
        ratio <= 4.0,
        "scale gate: {dn}-domain steady-state tick ({last:.0} ns) exceeds 4x the \
         {d0}-domain tick ({first:.0} ns): ratio {ratio:.2}x"
    );
    vec![f]
}
