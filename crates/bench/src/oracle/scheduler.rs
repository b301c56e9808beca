//! Frozen binary-heap implementation of the event scheduler.
//!
//! This is the `Scheduler` exactly as it shipped before the hierarchical
//! timer-wheel rewrite ([`iorch_simcore::Scheduler`]): a `BinaryHeap` of
//! timestamped entries with a `HashSet` of cancellation tombstones, FIFO
//! tie-break at equal timestamps via a monotonic sequence number.
//!
//! It is kept verbatim for two jobs, on the [`store`](super::store) pattern:
//!
//! 1. **Differential oracle** — randomized tests drive the same
//!    schedule/cancel/periodic/run script through this scheduler and the
//!    timer wheel and assert identical firing order
//!    (`tests/scheduler_differential.rs`).
//! 2. **Bench baseline** — the `hotpath` bench times both engines with
//!    one harness so the `scheduler_churn` speedup in
//!    `BENCH_hotpath.json` is measured, not estimated.
//!
//! Do not "fix" or optimize this module; its value is that it does not
//! change. Two known warts it preserves (both pinned by the differential
//! tests): `cancel` may report `true` for an event that already fired
//! (staleness is detected lazily), and a flag-cancelled periodic event
//! leaves its queued tick live — the tick pops, advances the clock and
//! counts as executed, firing nothing.
//!
//! `pop_next` and `advance_to` are public here (unlike the production
//! scheduler, which is driven through [`iorch_simcore::Simulation`]) so the
//! oracle and the bench can run the event loop by hand.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;

use iorch_simcore::{SimDuration, SimTime};

/// A callback scheduled to run at a simulated instant (legacy engine).
pub type Callback<M> = Box<dyn FnOnce(&mut M, &mut Scheduler<M>)>;

/// Identifies a scheduled event so it can be cancelled before firing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken(u64);

/// Handle to a periodic event; dropping it does **not** cancel the event,
/// call [`PeriodicHandle::cancel`] explicitly.
#[derive(Clone, Debug)]
pub struct PeriodicHandle {
    cancelled: Rc<Cell<bool>>,
}

impl PeriodicHandle {
    /// Stop the periodic event after the currently queued tick (if any).
    pub fn cancel(&self) {
        self.cancelled.set(true);
    }
    /// Whether the periodic event has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

struct Entry<M> {
    time: SimTime,
    seq: u64,
    cb: Callback<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first and
        // lowest-sequence-first among equals.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of simulated events over a world `M` (frozen seed
/// implementation; see the module docs).
pub struct Scheduler<M> {
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Entry<M>>,
    cancelled: HashSet<u64>,
    executed: u64,
}

impl<M> Default for Scheduler<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Scheduler<M> {
    /// Empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            executed: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled-but-unpopped).
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `cb` at absolute time `at`. Scheduling in the past is a bug
    /// in the caller; the event is clamped to "now" in release builds.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        cb: impl FnOnce(&mut M, &mut Scheduler<M>) + 'static,
    ) -> EventToken {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            cb: Box::new(cb),
        });
        EventToken(seq)
    }

    /// Schedule `cb` after a relative delay.
    #[inline]
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        cb: impl FnOnce(&mut M, &mut Scheduler<M>) + 'static,
    ) -> EventToken {
        self.schedule_at(self.now + delay, cb)
    }

    /// Schedule `cb` to run at the current instant, after all events already
    /// queued for this instant.
    #[inline]
    pub fn schedule_now(
        &mut self,
        cb: impl FnOnce(&mut M, &mut Scheduler<M>) + 'static,
    ) -> EventToken {
        self.schedule_at(self.now, cb)
    }

    /// Cancel a pending event. Cancelling an already-fired or already-
    /// cancelled event is a no-op (returns false), except that staleness
    /// is detected lazily so a fired event's token may still report
    /// `true` — the wart pinned by the differential oracle.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if token.0 >= self.next_seq {
            return false;
        }
        if self.heap.is_empty() {
            // Nothing pending: the event has already fired (or been
            // drained), so there is nothing to cancel.
            self.cancelled.clear();
            return false;
        }
        if !self.cancelled.insert(token.0) {
            return false;
        }
        if self.cancelled.len() > self.heap.len() {
            // More tombstones than pending events means some belong to
            // events that already fired; keep only the live ones.
            let live: HashSet<u64> = self.heap.iter().map(|e| e.seq).collect();
            self.cancelled.retain(|t| live.contains(t));
        }
        true
    }

    /// Drop every pending event (and cancellation tombstone) while keeping
    /// the heap's allocation.
    pub fn clear_pending(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }

    /// Rewind to an empty scheduler at time zero, retaining allocations.
    pub fn reset(&mut self) {
        self.clear_pending();
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.executed = 0;
    }

    /// Number of cancellation tombstones currently held.
    pub fn cancelled_backlog(&self) -> usize {
        self.cancelled.len()
    }

    /// Schedule a periodic callback firing every `interval`, starting one
    /// interval from now. The callback returns `true` to keep going or
    /// `false` to stop; the returned handle cancels it externally.
    pub fn schedule_every(
        &mut self,
        interval: SimDuration,
        f: impl FnMut(&mut M, &mut Scheduler<M>) -> bool + 'static,
    ) -> PeriodicHandle
    where
        M: 'static,
    {
        assert!(
            !interval.is_zero(),
            "zero-interval periodic event would live-lock the simulation"
        );
        let cancelled = Rc::new(Cell::new(false));
        let handle = PeriodicHandle {
            cancelled: Rc::clone(&cancelled),
        };
        fn tick<M: 'static, F>(
            mut f: F,
            interval: SimDuration,
            cancelled: Rc<Cell<bool>>,
            m: &mut M,
            s: &mut Scheduler<M>,
        ) where
            F: FnMut(&mut M, &mut Scheduler<M>) -> bool + 'static,
        {
            if cancelled.get() {
                return;
            }
            if f(m, s) && !cancelled.get() {
                s.schedule_in(interval, move |m, s| tick(f, interval, cancelled, m, s));
            }
        }
        self.schedule_in(interval, move |m, s| tick(f, interval, cancelled, m, s));
        handle
    }

    /// Time of the next pending (non-cancelled) event, if any.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.drain_cancelled_head();
        self.heap.peek().map(|e| e.time)
    }

    fn drain_cancelled_head(&mut self) {
        while let Some(head) = self.heap.peek() {
            if self.cancelled.remove(&head.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is empty. Public here (unlike the
    /// production scheduler) so oracle tests and benches can run the
    /// legacy event loop by hand.
    pub fn pop_next(&mut self) -> Option<(SimTime, Callback<M>)> {
        self.drain_cancelled_head();
        let Some(entry) = self.heap.pop() else {
            // Queue drained: any remaining tombstones refer to events that
            // can never fire, so the set empties with it.
            self.cancelled.clear();
            return None;
        };
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.executed += 1;
        Some((entry.time, entry.cb))
    }

    /// Advance the clock with no event (used by drivers that run to a
    /// horizon past the last event). Public for the oracle driver.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(sched: &mut Scheduler<Vec<u32>>, world: &mut Vec<u32>) {
        while let Some((_, cb)) = sched.pop_next() {
            cb(world, sched);
        }
    }

    #[test]
    fn fires_in_time_order() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_at(SimTime::from_millis(3), |w, _| w.push(3));
        s.schedule_at(SimTime::from_millis(1), |w, _| w.push(1));
        s.schedule_at(SimTime::from_millis(2), |w, _| w.push(2));
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(s.now(), SimTime::from_millis(3));
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        for i in 0..100 {
            s.schedule_at(SimTime::from_millis(5), move |w, _| w.push(i));
        }
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let tok = s.schedule_in(SimDuration::from_millis(1), |w, _| w.push(1));
        s.schedule_in(SimDuration::from_millis(2), |w, _| w.push(2));
        assert!(s.cancel(tok));
        assert!(!s.cancel(tok), "double cancel reports false");
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![2]);
    }

    #[test]
    fn periodic_runs_until_false() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_every(SimDuration::from_millis(10), |w, _| {
            w.push(w.len() as u32);
            w.len() < 5
        });
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.now(), SimTime::from_millis(50));
    }

    #[test]
    fn preserved_wart_cancelled_periodic_tick_stays_queued() {
        // The frozen behaviour the wheel fixes: after a flag-cancel, the
        // already-queued tick still pops (advancing the clock, counting
        // as executed) even though it fires nothing.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let handle = s.schedule_every(SimDuration::from_millis(10), |w, _| {
            w.push(0);
            true
        });
        handle.cancel();
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert!(world.is_empty(), "cancelled periodic must fire nothing");
        assert_eq!(
            s.now(),
            SimTime::from_millis(10),
            "dead tick advances clock"
        );
        assert_eq!(s.events_executed(), 1, "dead tick counts as executed");
    }

    #[test]
    fn cancelled_set_stays_bounded() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1000), |_, _| {});
        let mut world = Vec::new();
        for round in 0..1000u64 {
            let tok = s.schedule_at(SimTime::from_millis(round), |_, _| {});
            if round % 2 == 0 {
                assert!(s.cancel(tok));
            }
            while s
                .peek_next_time()
                .is_some_and(|t| t <= SimTime::from_millis(round))
            {
                let (_, cb) = s.pop_next().unwrap();
                cb(&mut world, &mut s);
            }
            if round % 2 == 1 {
                s.cancel(tok);
            }
            assert!(
                s.cancelled_backlog() <= s.pending(),
                "tombstones ({}) exceed pending events ({}) at round {round}",
                s.cancelled_backlog(),
                s.pending()
            );
        }
        while let Some((_, cb)) = s.pop_next() {
            cb(&mut world, &mut s);
        }
        assert_eq!(s.cancelled_backlog(), 0);
    }
}
