//! Differential oracle: the timer-wheel [`iorch_simcore::Scheduler`] must
//! fire the exact same events in the exact same order as the frozen
//! binary-heap engine [`iorch_bench::oracle::scheduler`].
//!
//! Random op scripts (schedule with nested follow-ups, cancel, periodic
//! with flag/immediate cancellation, horizon runs, final drain) are
//! generated once per seed and interpreted on both engines; the firing
//! logs `(time_ns, id)` are compared byte-for-byte. Only the logs are
//! compared — not cancel return values, final clocks, or executed counts,
//! because the legacy engine pops a cancelled periodic's dead tick (it
//! advances the clock and counts as executed while firing nothing; a
//! documented wart the wheel fixes). Clock alignment between the engines
//! is maintained by the `run_until` contract: both always land exactly on
//! the horizon, so relative delays resolve to identical absolute times.

use std::cell::Cell;

use iorch_bench::oracle::scheduler as event_legacy;
use iorch_simcore::{gen, SimDuration, SimRng, SimTime, Simulation};

type Log = Vec<(u64, u32)>;

#[derive(Clone, Debug)]
enum Op {
    /// `schedule_in(delay)`; the callback optionally schedules a nested
    /// follow-up event (exercises scheduling from inside callbacks, which
    /// lands mid-cascade on the wheel).
    Schedule {
        delay: u64,
        id: u32,
        nested: Option<(u64, u32)>,
    },
    /// Cancel the `pick % len`-th tracked one-shot token (may already have
    /// fired — must be a no-op on the log either way).
    Cancel { pick: usize },
    /// `schedule_every(interval)` self-terminating after `max_ticks`.
    Periodic {
        interval: u64,
        max_ticks: u32,
        id: u32,
    },
    /// Cancel the `pick % len`-th periodic handle. `immediate` uses the
    /// wheel's `cancel_periodic` (direct slot removal); the legacy engine
    /// only has the lazy flag — the firing logs must agree regardless.
    CancelPeriodic { pick: usize, immediate: bool },
    /// Run both engines to `now + delta` (inclusive horizon, clock left
    /// exactly at the horizon on both).
    RunFor { delta: u64 },
}

/// Delays spanning several wheel levels: mostly near-future, occasionally
/// far enough to land in the overflow levels and cascade back down.
fn gen_delay(rng: &mut SimRng) -> u64 {
    if rng.chance(0.04) {
        // Far future: up to ~64^8 ns, beyond the near wheels.
        rng.next_u64() >> rng.range(16, 24)
    } else {
        let level = rng.below(6);
        rng.below(64) << (6 * level)
    }
}

fn gen_script(rng: &mut SimRng, n: usize) -> Vec<Op> {
    let mut next_id = 0u32;
    let mut id = || {
        next_id += 1;
        next_id
    };
    (0..n)
        .map(|_| match rng.below(10) {
            0..=3 => Op::Schedule {
                delay: gen_delay(rng),
                id: id(),
                nested: rng.chance(0.3).then(|| (gen_delay(rng), id())),
            },
            4 | 5 => Op::Cancel {
                pick: rng.below(1 << 16) as usize,
            },
            6 => Op::Periodic {
                interval: rng.range(1, 5_000_000),
                max_ticks: rng.range(1, 12) as u32,
                id: id(),
            },
            7 => Op::CancelPeriodic {
                pick: rng.below(1 << 16) as usize,
                immediate: rng.chance(0.5),
            },
            _ => Op::RunFor {
                delta: rng.below(20_000_000),
            },
        })
        .collect()
}

fn run_wheel(script: &[Op]) -> Log {
    let mut sim: Simulation<Log> = Simulation::new(Vec::new());
    let mut tokens = Vec::new();
    let mut periodics = Vec::new();
    for op in script {
        match op.clone() {
            Op::Schedule { delay, id, nested } => {
                let tok = sim.scheduler_mut().schedule_in(
                    SimDuration::from_nanos(delay),
                    move |w: &mut Log, s| {
                        w.push((s.now().as_nanos(), id));
                        if let Some((d2, id2)) = nested {
                            s.schedule_in(SimDuration::from_nanos(d2), move |w: &mut Log, s| {
                                w.push((s.now().as_nanos(), id2));
                            });
                        }
                    },
                );
                tokens.push(Some(tok));
            }
            Op::Cancel { pick } => {
                if !tokens.is_empty() {
                    let i = pick % tokens.len();
                    if let Some(tok) = tokens[i].take() {
                        sim.scheduler_mut().cancel(tok);
                    }
                }
            }
            Op::Periodic {
                interval,
                max_ticks,
                id,
            } => {
                let count = Cell::new(0u32);
                let h = sim.scheduler_mut().schedule_every(
                    SimDuration::from_nanos(interval),
                    move |w: &mut Log, s| {
                        count.set(count.get() + 1);
                        w.push((s.now().as_nanos(), id));
                        count.get() < max_ticks
                    },
                );
                periodics.push(h);
            }
            Op::CancelPeriodic { pick, immediate } => {
                if !periodics.is_empty() {
                    let i = pick % periodics.len();
                    if immediate {
                        let h = periodics[i].clone();
                        sim.scheduler_mut().cancel_periodic(&h);
                    } else {
                        periodics[i].cancel();
                    }
                }
            }
            Op::RunFor { delta } => {
                sim.run_for(SimDuration::from_nanos(delta));
            }
        }
    }
    sim.run_to_completion();
    sim.into_world()
}

/// Mirror of `Simulation::run_until` for the legacy scheduler: pop while
/// the next event is at or before the horizon, then land on it exactly.
fn legacy_run_until(s: &mut event_legacy::Scheduler<Log>, w: &mut Log, horizon: SimTime) {
    loop {
        match s.peek_next_time() {
            Some(t) if t <= horizon => {
                let (_, cb) = s.pop_next().expect("peek said there is an event");
                cb(w, s);
            }
            _ => break,
        }
    }
    s.advance_to(horizon);
}

fn run_legacy(script: &[Op]) -> Log {
    let mut s: event_legacy::Scheduler<Log> = event_legacy::Scheduler::new();
    let mut w: Log = Vec::new();
    let mut tokens = Vec::new();
    let mut periodics = Vec::new();
    for op in script {
        match op.clone() {
            Op::Schedule { delay, id, nested } => {
                let tok = s.schedule_in(SimDuration::from_nanos(delay), move |w: &mut Log, s| {
                    w.push((s.now().as_nanos(), id));
                    if let Some((d2, id2)) = nested {
                        s.schedule_in(SimDuration::from_nanos(d2), move |w: &mut Log, s| {
                            w.push((s.now().as_nanos(), id2));
                        });
                    }
                });
                tokens.push(Some(tok));
            }
            Op::Cancel { pick } => {
                if !tokens.is_empty() {
                    let i = pick % tokens.len();
                    if let Some(tok) = tokens[i].take() {
                        s.cancel(tok);
                    }
                }
            }
            Op::Periodic {
                interval,
                max_ticks,
                id,
            } => {
                let count = Cell::new(0u32);
                let h =
                    s.schedule_every(SimDuration::from_nanos(interval), move |w: &mut Log, s| {
                        count.set(count.get() + 1);
                        w.push((s.now().as_nanos(), id));
                        count.get() < max_ticks
                    });
                periodics.push(h);
            }
            Op::CancelPeriodic { pick, .. } => {
                // The legacy engine has no immediate removal; the lazy flag
                // is its only mechanism. The logs must agree anyway.
                if !periodics.is_empty() {
                    let i = pick % periodics.len();
                    let h: &event_legacy::PeriodicHandle = &periodics[i];
                    h.cancel();
                }
            }
            Op::RunFor { delta } => {
                let horizon = s.now() + SimDuration::from_nanos(delta);
                legacy_run_until(&mut s, &mut w, horizon);
            }
        }
    }
    while let Some((_, cb)) = s.pop_next() {
        cb(&mut w, &mut s);
    }
    w
}

#[test]
fn wheel_matches_legacy_firing_order() {
    gen::for_each_seed(0x5CED_D1FF, 48, |seed, rng| {
        let script = gen_script(rng, 250);
        let wheel = run_wheel(&script);
        let legacy = run_legacy(&script);
        assert_eq!(
            wheel.len(),
            legacy.len(),
            "seed {seed}: different number of firings"
        );
        for (i, (a, b)) in wheel.iter().zip(legacy.iter()).enumerate() {
            assert_eq!(a, b, "seed {seed}: firing #{i} diverges");
        }
        // Sanity on the shared log: time must be non-decreasing.
        assert!(wheel.windows(2).all(|p| p[0].0 <= p[1].0), "seed {seed}");
    });
}

#[test]
fn wheel_matches_legacy_dense_same_instant_storm() {
    // Many events crammed into few distinct instants: maximal pressure on
    // the FIFO tie-break across cascades.
    gen::for_each_seed(0xDE5E_5707, 24, |seed, rng| {
        let instants: Vec<u64> = (0..6).map(|_| rng.below(50_000_000)).collect();
        let mut next_id = 0u32;
        let script: Vec<Op> = (0..400)
            .map(|_| {
                next_id += 1;
                if next_id.is_multiple_of(40) {
                    Op::RunFor {
                        delta: rng.below(10_000_000),
                    }
                } else {
                    Op::Schedule {
                        delay: *rng.pick(&instants),
                        id: next_id,
                        nested: rng.chance(0.2).then(|| {
                            (*rng.pick(&instants), {
                                next_id += 1;
                                next_id
                            })
                        }),
                    }
                }
            })
            .collect();
        let wheel = run_wheel(&script);
        let legacy = run_legacy(&script);
        assert_eq!(wheel, legacy, "seed {seed}: storm logs diverge");
    });
}
