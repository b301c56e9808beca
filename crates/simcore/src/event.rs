//! The event scheduler at the heart of the discrete-event engine.
//!
//! [`Scheduler`] keeps the pending events of a world `M` in a
//! **hierarchical timer wheel**: 11 levels of 64 slots each, with slot
//! width 64^k nanoseconds at level `k`. Level 0 resolves single
//! nanoseconds inside the clock's current 64 ns block; each higher level
//! covers 64x more time, and the top levels form the far-future overflow —
//! together the wheel spans the entire `u64` nanosecond range, so nothing
//! ever falls off the horizon. An event is filed at the first level whose
//! digit differs between its deadline and the current clock (one
//! `leading_zeros`, O(1)); as the clock advances into an occupied slot,
//! the slot's events **cascade** down to finer levels, each event moving
//! at most once per level over its whole life (amortized O(1) per event).
//!
//! Entries live in a slab arena and each slot is an intrusive doubly
//! linked FIFO through it, so cancellation is a true O(1) unlink — the
//! token carries the slab index, no tombstone set, no scan, no shifting —
//! and slots grow without per-slot allocations. Events at equal
//! timestamps fire in the order they were scheduled: scheduling appends
//! at a slot's tail, cascades re-file in list order, and a level-0 slot
//! holds exactly one timestamp, so the stable (time, sequence) tie-break
//! of the original binary-heap engine is kept bit-for-bit. That heap
//! engine is frozen as `iorch_bench::oracle::scheduler` and a randomized
//! differential oracle (`crates/bench/tests/scheduler_differential.rs`)
//! pins the firing order of the two implementations to each other.
//!
//! Periodic events are built on top with a shared cancellation flag; a
//! cancelled periodic's already-queued tick is dropped without firing,
//! without advancing the clock and without counting as executed (the
//! legacy engine popped it as a dead event — a documented wart).

use std::cell::Cell;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// A callback scheduled to run at a simulated instant. It receives the world
/// and the scheduler so it can mutate state and schedule follow-up events.
pub type Callback<M> = Box<dyn FnOnce(&mut M, &mut Scheduler<M>)>;

/// Identifies a scheduled event so it can be cancelled before firing.
///
/// The token records the event's slab index alongside its sequence
/// number, which lets [`Scheduler::cancel`] unlink the entry from its
/// wheel slot in O(1) — the sequence number guards against the slab cell
/// having been reused by a later event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventToken {
    seq: u64,
    idx: u32,
}

/// Handle to a periodic event; dropping it does **not** cancel the event,
/// call [`PeriodicHandle::cancel`] (or
/// [`Scheduler::cancel_periodic`] to also remove the queued tick from the
/// wheel immediately) explicitly.
#[derive(Clone, Debug)]
pub struct PeriodicHandle {
    cancelled: Rc<Cell<bool>>,
    /// Token of the currently queued tick, maintained by the tick chain so
    /// [`Scheduler::cancel_periodic`] can remove it in place.
    queued: Rc<Cell<Option<EventToken>>>,
}

impl PeriodicHandle {
    /// Stop the periodic event. The already-queued tick is dropped lazily
    /// by the scheduler without firing, without advancing the clock and
    /// without counting as executed.
    pub fn cancel(&self) {
        self.cancelled.set(true);
    }
    /// Whether the periodic event has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.get()
    }
}

/// 6 bits per wheel level: 64 slots.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// 11 levels x 6 bits = 66 bits >= the full u64 nanosecond range. Levels
/// 0..=6 are the "near future" (up to ~73 simulated minutes of relative
/// delay); levels 7..=10 are the far-future overflow.
const LEVELS: usize = 11;

/// Null link in the intrusive slot lists / slab free list.
const NIL: u32 = u32::MAX;

/// The wheel level at which an event with deadline `when` is filed while
/// the clock reads `cursor`: the position of the most significant 6-bit
/// digit in which the two differ.
#[inline]
fn level_for(cursor: u64, when: u64) -> usize {
    let x = cursor ^ when;
    if x == 0 {
        0
    } else {
        (63 - x.leading_zeros() as usize) / LEVEL_BITS as usize
    }
}

/// The slot within `level` for deadline `when`: the level's 6-bit digit.
#[inline]
fn slot_for(when: u64, level: usize) -> usize {
    ((when >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
}

struct Entry<M> {
    time: SimTime,
    seq: u64,
    /// Shared cancellation flag of a periodic tick; `None` for one-shot
    /// events. A set flag makes the entry dead: it is purged on sight
    /// instead of fired.
    guard: Option<Rc<Cell<bool>>>,
    cb: Callback<M>,
    /// Intrusive links within the entry's current wheel slot.
    prev: u32,
    next: u32,
    /// Where the entry is currently filed, so unlink never has to
    /// recompute (or mis-compute) its slot.
    lvl: u8,
    slot: u8,
}

impl<M> Entry<M> {
    #[inline]
    fn is_dead(&self) -> bool {
        self.guard.as_ref().is_some_and(|g| g.get())
    }
}

/// Slab cell: a live entry, or a link in the free list.
enum Node<M> {
    Used(Entry<M>),
    Free(u32),
}

/// Head/tail of one slot's intrusive FIFO.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        head: NIL,
        tail: NIL,
    };
}

struct Level {
    /// Bit `i` set iff slot `i` is non-empty.
    occupied: u64,
    slots: [Slot; SLOTS],
}

impl Level {
    const EMPTY: Level = Level {
        occupied: 0,
        slots: [Slot::EMPTY; SLOTS],
    };
}

/// Timer-wheel priority queue of simulated events over a world `M`.
pub struct Scheduler<M> {
    now: SimTime,
    next_seq: u64,
    executed: u64,
    /// Entries currently filed in the wheel (including dead periodic
    /// ticks not yet purged).
    len: usize,
    /// Entries carrying a periodic-cancellation guard; when zero the
    /// purge scan is skipped entirely on the hot path.
    guarded: usize,
    /// Entry storage; slots link through it, freed cells chain from
    /// `free_head`.
    arena: Vec<Node<M>>,
    free_head: u32,
    levels: Box<[Level; LEVELS]>,
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
            executed: 0,
            len: 0,
            guarded: 0,
            arena: Vec::new(),
            free_head: NIL,
            levels: Box::new([Level::EMPTY; LEVELS]),
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

    /// Number of events still filed in the wheel (including the dead tick
    /// of a flag-cancelled periodic until it is lazily purged).
    #[inline]
    pub fn pending(&self) -> usize {
        self.len
    }

    // ---- slab + intrusive-list primitives ----

    #[inline]
    fn entry(&self, idx: u32) -> &Entry<M> {
        match &self.arena[idx as usize] {
            Node::Used(e) => e,
            Node::Free(_) => unreachable!("dangling wheel link"),
        }
    }

    #[inline]
    fn entry_mut(&mut self, idx: u32) -> &mut Entry<M> {
        match &mut self.arena[idx as usize] {
            Node::Used(e) => e,
            Node::Free(_) => unreachable!("dangling wheel link"),
        }
    }

    #[inline]
    fn alloc(&mut self, e: Entry<M>) -> u32 {
        if self.free_head == NIL {
            self.arena.push(Node::Used(e));
            (self.arena.len() - 1) as u32
        } else {
            let idx = self.free_head;
            match std::mem::replace(&mut self.arena[idx as usize], Node::Used(e)) {
                Node::Free(next) => self.free_head = next,
                Node::Used(_) => unreachable!("free head points at a live entry"),
            }
            idx
        }
    }

    /// Release a slab cell, returning its entry.
    #[inline]
    fn release(&mut self, idx: u32) -> Entry<M> {
        let node = std::mem::replace(&mut self.arena[idx as usize], Node::Free(self.free_head));
        self.free_head = idx;
        match node {
            Node::Used(e) => e,
            Node::Free(_) => unreachable!("double free in wheel slab"),
        }
    }

    /// Append entry `idx` at the tail of `(lvl, slot)` (FIFO order).
    #[inline]
    fn link_tail(&mut self, lvl: usize, slot: usize, idx: u32) {
        let s = self.levels[lvl].slots[slot & (SLOTS - 1)];
        {
            let e = self.entry_mut(idx);
            e.prev = s.tail;
            e.next = NIL;
            e.lvl = lvl as u8;
            e.slot = slot as u8;
        }
        if s.tail == NIL {
            self.levels[lvl].occupied |= 1u64 << slot;
            self.levels[lvl].slots[slot & (SLOTS - 1)] = Slot {
                head: idx,
                tail: idx,
            };
        } else {
            self.entry_mut(s.tail).next = idx;
            self.levels[lvl].slots[slot & (SLOTS - 1)].tail = idx;
        }
    }

    /// Detach entry `idx` from its slot (O(1) via the stored links).
    #[inline]
    fn unlink(&mut self, idx: u32) {
        let (lvl, slot, prev, next) = {
            let e = self.entry(idx);
            (e.lvl as usize, e.slot as usize, e.prev, e.next)
        };
        if prev == NIL {
            self.levels[lvl].slots[slot & (SLOTS - 1)].head = next;
        } else {
            self.entry_mut(prev).next = next;
        }
        if next == NIL {
            self.levels[lvl].slots[slot & (SLOTS - 1)].tail = prev;
        } else {
            self.entry_mut(next).prev = prev;
        }
        if self.levels[lvl].slots[slot & (SLOTS - 1)].head == NIL {
            self.levels[lvl].occupied &= !(1u64 << slot);
        }
    }

    /// File an entry relative to `cursor` (the clock position the wheel
    /// invariants are anchored to). Does not touch the counters.
    #[inline]
    fn insert_raw(&mut self, cursor: u64, entry: Entry<M>) -> u32 {
        let when = entry.time.as_nanos();
        debug_assert!(when >= cursor);
        let lvl = level_for(cursor, when);
        let slot = slot_for(when, lvl);
        let idx = self.alloc(entry);
        self.link_tail(lvl, slot, idx);
        idx
    }

    #[inline]
    fn new_entry(
        &mut self,
        at: SimTime,
        guard: Option<Rc<Cell<bool>>>,
        cb: Callback<M>,
    ) -> (Entry<M>, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (
            Entry {
                time: at,
                seq,
                guard,
                cb,
                prev: NIL,
                next: NIL,
                lvl: 0,
                slot: 0,
            },
            seq,
        )
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
        let (entry, seq) = self.new_entry(at, None, Box::new(cb));
        let idx = self.insert_raw(self.now.as_nanos(), entry);
        self.len += 1;
        EventToken { seq, idx }
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

    /// Internal: schedule a periodic tick carrying its cancellation guard.
    fn schedule_guarded(
        &mut self,
        at: SimTime,
        guard: Rc<Cell<bool>>,
        cb: impl FnOnce(&mut M, &mut Scheduler<M>) + 'static,
    ) -> EventToken {
        let at = at.max(self.now);
        let (entry, seq) = self.new_entry(at, Some(guard), Box::new(cb));
        let idx = self.insert_raw(self.now.as_nanos(), entry);
        self.len += 1;
        self.guarded += 1;
        EventToken { seq, idx }
    }

    /// Cancel a pending event by unlinking it from its wheel slot in
    /// O(1). Cancelling an already-fired or already-cancelled event is a
    /// no-op (returns false) — and unlike the legacy engine, a fired
    /// event's token can never spuriously report `true`.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        match self.arena.get(token.idx as usize) {
            Some(Node::Used(e)) if e.seq == token.seq => {}
            _ => return false,
        }
        self.unlink(token.idx);
        let e = self.release(token.idx);
        self.len -= 1;
        if e.guard.is_some() {
            self.guarded -= 1;
        }
        true
    }

    /// Cancel a periodic event **and** remove its queued tick from the
    /// wheel immediately (a plain [`PeriodicHandle::cancel`] leaves the
    /// dead tick to be purged lazily). Returns whether a queued tick was
    /// removed.
    pub fn cancel_periodic(&mut self, handle: &PeriodicHandle) -> bool {
        handle.cancelled.set(true);
        match handle.queued.take() {
            Some(tok) => self.cancel(tok),
            None => false,
        }
    }

    /// Drop every pending event while keeping the wheel's allocations, so
    /// a driver can reuse one scheduler across runs without reallocating.
    /// The clock and counters are left untouched; see [`Scheduler::reset`]
    /// to also rewind them.
    pub fn clear_pending(&mut self) {
        self.arena.clear();
        self.free_head = NIL;
        for level in self.levels.iter_mut() {
            if level.occupied != 0 {
                *level = Level::EMPTY;
            }
        }
        self.len = 0;
        self.guarded = 0;
    }

    /// Rewind to an empty scheduler at time zero, retaining allocations.
    pub fn reset(&mut self) {
        self.clear_pending();
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.executed = 0;
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
        let queued = Rc::new(Cell::new(None));
        let handle = PeriodicHandle {
            cancelled: Rc::clone(&cancelled),
            queued: Rc::clone(&queued),
        };
        fn tick<M: 'static, F>(
            mut f: F,
            interval: SimDuration,
            cancelled: Rc<Cell<bool>>,
            queued: Rc<Cell<Option<EventToken>>>,
            m: &mut M,
            s: &mut Scheduler<M>,
        ) where
            F: FnMut(&mut M, &mut Scheduler<M>) -> bool + 'static,
        {
            if cancelled.get() {
                queued.set(None);
                return;
            }
            if f(m, s) && !cancelled.get() {
                let at = s.now() + interval;
                let guard = Rc::clone(&cancelled);
                let q = Rc::clone(&queued);
                let tok = s.schedule_guarded(at, guard, move |m, s| {
                    tick(f, interval, cancelled, queued, m, s)
                });
                q.set(Some(tok));
            } else {
                queued.set(None);
            }
        }
        let at = self.now + interval;
        let guard = Rc::clone(&cancelled);
        let q = Rc::clone(&queued);
        let tok = self.schedule_guarded(at, guard, move |m, s| {
            tick(f, interval, cancelled, queued, m, s)
        });
        q.set(Some(tok));
        handle
    }

    /// Lowest occupied (level, slot) at or after the cursor position, or
    /// `None` if the wheel is empty. By the wheel invariants this slot
    /// holds the globally earliest pending event.
    #[inline]
    fn next_occupied(&self, cursor: u64) -> Option<(usize, usize)> {
        for (lvl, level) in self.levels.iter().enumerate() {
            if level.occupied == 0 {
                continue;
            }
            let idx = slot_for(cursor, lvl);
            let masked = level.occupied & (!0u64 << idx);
            if masked != 0 {
                return Some((lvl, masked.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Remove dead (flag-cancelled periodic) entries from a slot. Returns
    /// `true` if the slot is now empty (bit already cleared).
    fn purge_slot(&mut self, lvl: usize, slot: usize) -> bool {
        let mut i = self.levels[lvl].slots[slot & (SLOTS - 1)].head;
        while i != NIL {
            let e = self.entry(i);
            let next = e.next;
            if e.is_dead() {
                self.unlink(i);
                self.release(i);
                self.len -= 1;
                self.guarded -= 1;
            }
            i = next;
        }
        self.levels[lvl].occupied & (1u64 << slot) == 0
    }

    /// Earliest deadline within `(lvl, slot)` (full list walk — only used
    /// on coarse levels, where a slot spans many timestamps).
    fn slot_min_time(&self, lvl: usize, slot: usize) -> u64 {
        let mut min = u64::MAX;
        let mut i = self.levels[lvl].slots[slot & (SLOTS - 1)].head;
        debug_assert!(i != NIL, "occupied slot is empty");
        while i != NIL {
            let e = self.entry(i);
            min = min.min(e.time.as_nanos());
            i = e.next;
        }
        min
    }

    /// Time of the next pending (live) event, if any.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        let cursor = self.now.as_nanos();
        loop {
            let (lvl, slot) = self.next_occupied(cursor)?;
            if self.guarded > 0 && self.purge_slot(lvl, slot) {
                continue;
            }
            return if lvl == 0 {
                // A level-0 slot resolves a single nanosecond: every entry
                // shares one exact timestamp.
                Some(
                    self.entry(self.levels[0].slots[slot & (SLOTS - 1)].head)
                        .time,
                )
            } else {
                Some(SimTime::from_nanos(self.slot_min_time(lvl, slot)))
            };
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is empty.
    pub(crate) fn pop_next(&mut self) -> Option<(SimTime, Callback<M>)> {
        let mut cursor = self.now.as_nanos();
        loop {
            let (lvl, slot) = self.next_occupied(cursor)?;
            if self.guarded > 0 && self.purge_slot(lvl, slot) {
                continue;
            }
            if lvl == 0 {
                return Some(self.fire_head(0, slot));
            }
            let s = self.levels[lvl].slots[slot & (SLOTS - 1)];
            if s.head == s.tail {
                // Singleton coarse slot: popping its only entry leaves
                // nothing stale behind, and every other slot keeps its
                // level invariant relative to the new clock (levels below
                // `lvl` were empty — that is how the search got here — and
                // levels at or above it share all the digits the clock
                // jump changes). Skip the cascade entirely.
                return Some(self.fire_head(lvl, slot));
            }
            // Cascade: the earliest pending event lives in this coarse
            // slot. Move the cursor to the slot's earliest deadline and
            // re-file every entry relative to it — each lands at a
            // strictly lower level (they all share this slot's 64^lvl
            // block with the new cursor), the earliest at level 0. FIFO
            // order within equal timestamps is preserved because the
            // re-file walks in list order.
            cursor = self.slot_min_time(lvl, slot);
            self.levels[lvl].slots[slot & (SLOTS - 1)] = Slot::EMPTY;
            self.levels[lvl].occupied &= !(1u64 << slot);
            let mut i = s.head;
            while i != NIL {
                let e = self.entry(i);
                let next = e.next;
                let when = e.time.as_nanos();
                let lv = level_for(cursor, when);
                let sl = slot_for(when, lv);
                self.link_tail(lv, sl, i);
                i = next;
            }
            if self.guarded == 0 {
                // The minimum landed at level 0, slot `cursor & 63`, at
                // the head (re-filed in FIFO order into a level that was
                // empty). Fire it directly instead of re-searching.
                return Some(self.fire_head(0, cursor as usize & (SLOTS - 1)));
            }
        }
    }

    /// Pop and fire the head entry of `(lvl, slot)`; the caller
    /// guarantees it is the earliest live pending event.
    #[inline]
    fn fire_head(&mut self, lvl: usize, slot: usize) -> (SimTime, Callback<M>) {
        let idx = self.levels[lvl].slots[slot & (SLOTS - 1)].head;
        self.unlink(idx);
        let e = self.release(idx);
        self.len -= 1;
        if e.guard.is_some() {
            self.guarded -= 1;
        }
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        self.executed += 1;
        (e.time, e.cb)
    }

    /// Advance the clock with no event to fire (used by drivers that run
    /// to a horizon past the next event). The caller guarantees no
    /// pending event has a deadline at or before `t`. Coarse slots whose
    /// range the cursor enters are cascaded so the wheel's level
    /// invariants stay anchored to the clock.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        if self.len > 0 {
            let cursor = t.as_nanos();
            for lvl in 1..LEVELS {
                let slot = slot_for(cursor, lvl);
                if self.levels[lvl].occupied & (1u64 << slot) == 0 {
                    continue;
                }
                // The cursor moved inside this coarse slot's range;
                // re-file its entries at finer levels. All deadlines here
                // are strictly after `t` (the caller's contract plus the
                // lazy-purge invariant), and none can land back in a
                // cursor slot: their first differing digit from `t` picks
                // both the new level and a different slot index there.
                let s = self.levels[lvl].slots[slot & (SLOTS - 1)];
                self.levels[lvl].slots[slot & (SLOTS - 1)] = Slot::EMPTY;
                self.levels[lvl].occupied &= !(1u64 << slot);
                let mut i = s.head;
                while i != NIL {
                    let e = self.entry(i);
                    let next = e.next;
                    let when = e.time.as_nanos();
                    debug_assert!(when >= cursor);
                    let lv = level_for(cursor, when);
                    let sl = slot_for(when, lv);
                    self.link_tail(lv, sl, i);
                    i = next;
                }
            }
        }
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
    fn fifo_survives_multi_level_cascades() {
        // A batch at one far-future instant crosses several wheel levels
        // before firing; the cascades must keep scheduling order.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        for i in 0..100 {
            s.schedule_at(SimTime::from_secs(40), move |w, _| w.push(i));
        }
        // Stepping stones force cascades at intermediate cursors.
        for ms in [1u64, 70, 4_100, 26_200] {
            s.schedule_at(SimTime::from_millis(ms), |_, _| {});
        }
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, (0..100).collect::<Vec<_>>());
        assert_eq!(s.now(), SimTime::from_secs(40));
    }

    #[test]
    fn events_can_schedule_events() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_in(SimDuration::from_millis(1), |w, s| {
            w.push(1);
            s.schedule_in(SimDuration::from_millis(1), |w, _| w.push(2));
        });
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![1, 2]);
        assert_eq!(s.now(), SimTime::from_millis(2));
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let tok = s.schedule_in(SimDuration::from_millis(1), |w, _| w.push(1));
        s.schedule_in(SimDuration::from_millis(2), |w, _| w.push(2));
        assert!(s.cancel(tok));
        assert!(!s.cancel(tok), "double cancel reports false");
        assert_eq!(s.pending(), 1, "cancel removes the entry in place");
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![2]);
    }

    #[test]
    fn cancel_unknown_token_is_noop() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let bogus = EventToken { seq: 99, idx: 7 };
        assert!(!s.cancel(bogus));
    }

    #[test]
    fn cancel_with_reused_slab_cell_is_noop() {
        // A fired event's slab cell may be reused by a newer event; the
        // old token's sequence number must not match it.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let old = s.schedule_in(SimDuration::from_millis(1), |w, _| w.push(1));
        let mut world = Vec::new();
        let (_, cb) = s.pop_next().unwrap();
        cb(&mut world, &mut s);
        // This reuses the freed cell.
        s.schedule_in(SimDuration::from_millis(2), |w, _| w.push(2));
        assert!(!s.cancel(old), "stale token must not kill the new event");
        drain(&mut s, &mut world);
        assert_eq!(world, vec![1, 2]);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        // Unlike the legacy engine (which could lazily report true), a
        // fired event's token is always a clean no-op — even while other
        // events are still pending.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let tok = s.schedule_in(SimDuration::from_millis(1), |w, _| w.push(1));
        s.schedule_in(SimDuration::from_millis(5), |w, _| w.push(2));
        let mut world = Vec::new();
        let (_, cb) = s.pop_next().unwrap();
        cb(&mut world, &mut s);
        assert_eq!(world, vec![1]);
        assert!(!s.cancel(tok), "cancel after fire must be a no-op");
        assert_eq!(s.pending(), 1);
        drain(&mut s, &mut world);
        assert_eq!(world, vec![1, 2]);
    }

    #[test]
    fn cancel_from_middle_of_coarse_slot() {
        // Several far-future events share one coarse slot; cancelling the
        // middle one must unlink exactly it.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let base = SimTime::from_secs(10);
        let t0 = s.schedule_at(base, |w, _| w.push(0));
        let t1 = s.schedule_at(base + SimDuration::from_nanos(1), |w, _| w.push(1));
        let t2 = s.schedule_at(base + SimDuration::from_nanos(2), |w, _| w.push(2));
        assert!(s.cancel(t1));
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![0, 2]);
        assert!(!s.cancel(t0));
        assert!(!s.cancel(t2));
    }

    #[test]
    fn drain_empties_all_wheel_levels() {
        // One event per wheel level, including the far-future overflow
        // levels, plus the last representable instant.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let mut times: Vec<u64> = (0..super::LEVELS)
            .map(|lvl| 3u64 << (super::LEVEL_BITS as usize * lvl))
            .collect();
        times.push(u64::MAX);
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_nanos(t), move |w, _| w.push(i as u32));
        }
        assert_eq!(s.pending(), times.len());
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, (0..times.len() as u32).collect::<Vec<_>>());
        assert_eq!(s.pending(), 0);
        assert_eq!(s.now(), SimTime::from_nanos(u64::MAX));
        assert_eq!(s.events_executed(), times.len() as u64);
    }

    #[test]
    fn far_future_past_near_wheel_horizon_cascades() {
        // An event beyond the near-future wheels (level >= 7, i.e. more
        // than 64^7 ns away) must cascade down through the overflow
        // levels and still interleave correctly with near events
        // scheduled later.
        let far = 5u64 << (super::LEVEL_BITS as usize * 8);
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(far), |w, _| w.push(99));
        s.schedule_at(SimTime::from_millis(1), move |w, s| {
            w.push(1);
            s.schedule_at(SimTime::from_nanos(far), |w, _| w.push(100));
        });
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        // Equal far timestamps keep scheduling order across the cascade.
        assert_eq!(world, vec![1, 99, 100]);
        assert_eq!(s.now(), SimTime::from_nanos(far));
    }

    #[test]
    fn zero_duration_self_reschedule_does_not_livelock() {
        // A chain of schedule_now self-reschedules at one instant must
        // make progress through the slot FIFO and terminate.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        fn step(w: &mut Vec<u32>, s: &mut Scheduler<Vec<u32>>) {
            let n = w.len() as u32;
            w.push(n);
            if n < 999 {
                s.schedule_now(step);
            }
        }
        s.schedule_now(step);
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world.len(), 1000);
        assert_eq!(s.now(), SimTime::ZERO, "instant chain must not move time");
        assert_eq!(s.pending(), 0);
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
    fn periodic_handle_cancels() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let handle = s.schedule_every(SimDuration::from_millis(1), |w, _| {
            w.push(0);
            true
        });
        // Cancel after the third tick via a one-shot event.
        let h2 = handle.clone();
        s.schedule_at(SimTime::from_micros(3500), move |_, _| h2.cancel());
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert!(handle.is_cancelled());
        assert_eq!(world.len(), 3);
        // The dead 4 ms tick was purged, not fired: the clock stopped at
        // the cancelling event, and only 3 ticks + 1 cancel executed.
        assert_eq!(s.now(), SimTime::from_micros(3500));
        assert_eq!(s.events_executed(), 4);
    }

    #[test]
    fn periodic_cancel_then_advance_fires_nothing() {
        // Regression for the legacy wart: the queued tick of a cancelled
        // periodic must not fire, advance the clock, or count as
        // executed.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let handle = s.schedule_every(SimDuration::from_millis(10), |w, _| {
            w.push(0);
            true
        });
        handle.cancel();
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert!(world.is_empty());
        assert_eq!(s.now(), SimTime::ZERO, "dead tick must not advance time");
        assert_eq!(s.events_executed(), 0);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn cancel_periodic_removes_queued_tick_immediately() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let handle = s.schedule_every(SimDuration::from_millis(10), |w, _| {
            w.push(0);
            true
        });
        assert_eq!(s.pending(), 1);
        assert!(s.cancel_periodic(&handle));
        assert_eq!(s.pending(), 0, "queued tick removed in place");
        assert!(handle.is_cancelled());
        assert!(!s.cancel_periodic(&handle), "second cancel is a no-op");
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert!(world.is_empty());
        assert_eq!(s.now(), SimTime::ZERO);
    }

    #[test]
    fn schedule_now_runs_after_current_instant_queue() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_at(SimTime::ZERO, |w, s| {
            w.push(1);
            s.schedule_now(|w, _| w.push(3));
        });
        s.schedule_at(SimTime::ZERO, |w, _| w.push(2));
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![1, 2, 3]);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        let tok = s.schedule_in(SimDuration::from_millis(1), |_, _| {});
        s.schedule_in(SimDuration::from_millis(5), |_, _| {});
        s.cancel(tok);
        assert_eq!(s.peek_next_time(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn schedule_after_horizon_advance_keeps_tie_break() {
        // The clock is advanced into the middle of a coarse slot's range
        // by a horizon (no event fired); an event then scheduled at the
        // same timestamp as an older pending one must still fire second.
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(5_000), |w, _| w.push(1));
        s.advance_to(SimTime::from_nanos(4_995));
        s.schedule_at(SimTime::from_nanos(5_000), |w, _| w.push(2));
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![1, 2]);
    }

    #[test]
    fn reset_reuses_scheduler() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        for i in 0..10u64 {
            s.schedule_at(SimTime::from_millis(i), |w, _| w.push(0));
        }
        let tok = s.schedule_at(SimTime::from_millis(99), |_, _| {});
        s.cancel(tok);
        s.reset();
        assert_eq!(s.pending(), 0);
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.events_executed(), 0);
        // Fully functional after reset.
        s.schedule_at(SimTime::from_millis(1), |w, _| w.push(7));
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(world, vec![7]);
    }

    #[test]
    fn counts_executed() {
        let mut s: Scheduler<Vec<u32>> = Scheduler::new();
        for i in 0..10u64 {
            s.schedule_at(SimTime::from_millis(i), |_, _| {});
        }
        let mut world = Vec::new();
        drain(&mut s, &mut world);
        assert_eq!(s.events_executed(), 10);
    }
}
