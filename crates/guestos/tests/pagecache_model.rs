//! Differential test: `PageCache` against a naive reference model.
//!
//! The model keeps every resident chunk in one `Vec` in LRU order (least
//! recently used first) and every dirty chunk in a `Vec` of
//! `(dirtied_at, chunk)` keys re-sorted after each insert. It is written
//! for obviousness, not speed: every lookup is a linear scan. Random
//! `mark_dirty` / `insert_clean` / `touch` / `take_dirty_batch` /
//! `writeback_done` scripts drive both at capacities of 1–8 chunks, and
//! after every step every return value and every observable counter must
//! agree. The scripts lean on the cases an ordered index has to get
//! right: many writes at the same instant with chunk indices in
//! descending order, re-dirtying while writeback is in flight, and a
//! cache driven over capacity with nothing clean to evict.
//!
//! The debug suite runs a light sweep; the heavy sweep is `#[ignore]`d and
//! runs in release:
//! `cargo test -p iorch-guestos --release --test pagecache_model -- --include-ignored`.

use iorch_guestos::{ChunkIdx, PageCache, CHUNK_PAGES};
use iorch_simcore::{gen, SimDuration, SimRng, SimTime};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Clean,
    Dirty,
    Writeback,
    DirtyWriteback,
}

struct Model {
    capacity_pages: u64,
    /// Resident chunks, least recently used first.
    lru: Vec<(ChunkIdx, State)>,
    /// Dirty keys in ascending `(dirtied_at, chunk)` order.
    dirty: Vec<(SimTime, ChunkIdx)>,
}

impl Model {
    fn new(capacity_pages: u64) -> Self {
        Model {
            capacity_pages,
            lru: Vec::new(),
            dirty: Vec::new(),
        }
    }

    fn pos(&self, idx: ChunkIdx) -> Option<usize> {
        self.lru.iter().position(|&(c, _)| c == idx)
    }

    /// Move a resident chunk to the most recently used end.
    fn refresh(&mut self, idx: ChunkIdx) -> Option<&mut State> {
        let i = self.pos(idx)?;
        let entry = self.lru.remove(i);
        self.lru.push(entry);
        self.lru.last_mut().map(|(_, s)| s)
    }

    fn queue_dirty(&mut self, now: SimTime, idx: ChunkIdx) {
        self.dirty.push((now, idx));
        self.dirty.sort();
    }

    fn evict(&mut self, protect: ChunkIdx) -> Vec<ChunkIdx> {
        let mut evicted = Vec::new();
        while self.resident_pages() > self.capacity_pages {
            let victim = self
                .lru
                .iter()
                .position(|&(c, s)| c != protect && s == State::Clean);
            match victim {
                Some(i) => evicted.push(self.lru.remove(i).0),
                None => break,
            }
        }
        evicted
    }

    fn touch(&mut self, idx: ChunkIdx) {
        self.refresh(idx);
    }

    fn insert_clean(&mut self, idx: ChunkIdx) -> Vec<ChunkIdx> {
        if self.refresh(idx).is_some() {
            return Vec::new();
        }
        self.lru.push((idx, State::Clean));
        self.evict(idx)
    }

    fn mark_dirty(&mut self, idx: ChunkIdx, now: SimTime) -> Vec<ChunkIdx> {
        match self.refresh(idx) {
            Some(state) => {
                let queue = match *state {
                    State::Clean => {
                        *state = State::Dirty;
                        true
                    }
                    State::Writeback => {
                        *state = State::DirtyWriteback;
                        true
                    }
                    State::Dirty | State::DirtyWriteback => false,
                };
                if queue {
                    self.queue_dirty(now, idx);
                }
                Vec::new()
            }
            None => {
                self.lru.push((idx, State::Dirty));
                self.queue_dirty(now, idx);
                self.evict(idx)
            }
        }
    }

    fn take_dirty_batch(&mut self, max: usize, expired_before: Option<SimTime>) -> Vec<ChunkIdx> {
        let mut taken = Vec::new();
        while taken.len() < max && !self.dirty.is_empty() {
            let (at, idx) = self.dirty[0];
            if expired_before.is_some_and(|limit| at >= limit) {
                break;
            }
            self.dirty.remove(0);
            let i = self.pos(idx).expect("dirty chunk is resident");
            self.lru[i].1 = State::Writeback;
            taken.push(idx);
        }
        taken
    }

    fn writeback_done(&mut self, idx: ChunkIdx) {
        if let Some(i) = self.pos(idx) {
            let s = &mut self.lru[i].1;
            *s = match *s {
                State::Writeback => State::Clean,
                State::DirtyWriteback => State::Dirty,
                other => other,
            };
        }
    }

    fn count(&self, f: impl Fn(State) -> bool) -> u64 {
        self.lru.iter().filter(|&&(_, s)| f(s)).count() as u64 * CHUNK_PAGES
    }

    fn resident_pages(&self) -> u64 {
        self.lru.len() as u64 * CHUNK_PAGES
    }

    fn dirty_pages(&self) -> u64 {
        self.count(|s| matches!(s, State::Dirty | State::DirtyWriteback))
    }

    fn writeback_pages(&self) -> u64 {
        self.count(|s| s == State::Writeback)
    }

    fn oldest_dirty_age(&self, now: SimTime) -> Option<SimDuration> {
        self.dirty.first().map(|&(t, _)| now.saturating_since(t))
    }
}

/// Chunk indices are drawn from a range a little wider than the largest
/// capacity, so hits, misses and evictions all happen often.
const CHUNK_SPACE: u64 = 12;

fn run_script(seed: u64, rng: &mut SimRng, steps: usize) {
    let cap_chunks = rng.range(1, 8);
    // Capacities that are not a whole number of chunks too.
    let capacity_pages = cap_chunks * CHUNK_PAGES + rng.below(CHUNK_PAGES);
    let mut pc = PageCache::new(capacity_pages);
    let mut model = Model::new(capacity_pages);
    let mut clock = 0u64;
    // Chunks handed to writeback and not yet completed (may repeat).
    let mut inflight: Vec<ChunkIdx> = Vec::new();
    for step in 0..steps {
        // Mostly the same instant, so ties on `dirtied_at` are common.
        if rng.chance(0.25) {
            clock += rng.range(1, 3);
        }
        let now = SimTime::from_millis(clock);
        let idx = rng.below(CHUNK_SPACE);
        let ctx = format!("seed {seed:#x} step {step} cap {capacity_pages}");
        match rng.below(100) {
            0..=34 => {
                let got = pc.mark_dirty(idx, now);
                assert_eq!(got, model.mark_dirty(idx, now), "mark_dirty({idx}) {ctx}");
            }
            35..=54 => {
                let got = pc.insert_clean(idx);
                assert_eq!(got, model.insert_clean(idx), "insert_clean({idx}) {ctx}");
            }
            55..=64 => {
                pc.touch(idx);
                model.touch(idx);
            }
            65..=79 => {
                let max = match rng.below(4) {
                    0 => usize::MAX,
                    _ => rng.below(4) as usize,
                };
                let expiry = match rng.below(3) {
                    0 => None,
                    _ => Some(SimTime::from_millis(clock.saturating_sub(rng.below(4)))),
                };
                let got = pc.take_dirty_batch(max, expiry);
                let want = model.take_dirty_batch(max, expiry);
                assert_eq!(got, want, "take_dirty_batch({max}, {expiry:?}) {ctx}");
                inflight.extend(got);
            }
            _ => {
                // Complete an in-flight chunk, or occasionally a chunk that
                // is not under writeback at all.
                let c = if !inflight.is_empty() && rng.chance(0.9) {
                    inflight.swap_remove(rng.below(inflight.len() as u64) as usize)
                } else {
                    idx
                };
                pc.writeback_done(c);
                model.writeback_done(c);
            }
        }
        for c in 0..CHUNK_SPACE {
            assert_eq!(
                pc.contains(c),
                model.pos(c).is_some(),
                "contains({c}) {ctx}"
            );
        }
        assert_eq!(
            pc.resident_pages(),
            model.resident_pages(),
            "resident {ctx}"
        );
        assert_eq!(pc.dirty_pages(), model.dirty_pages(), "dirty {ctx}");
        assert_eq!(
            pc.writeback_pages(),
            model.writeback_pages(),
            "writeback {ctx}"
        );
        assert_eq!(
            pc.oldest_dirty_age(now),
            model.oldest_dirty_age(now),
            "oldest_dirty_age {ctx}"
        );
    }
}

#[test]
fn page_cache_matches_reference_model() {
    gen::for_each_seed(0x60_0100, 256, |seed, rng| run_script(seed, rng, 400));
}

#[test]
#[ignore = "heavy sweep; run in release with --include-ignored"]
fn page_cache_matches_reference_model_heavy() {
    gen::for_each_seed(0x60_0101, 4096, |seed, rng| run_script(seed, rng, 2_000));
}
