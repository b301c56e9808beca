//! Guest page cache with dirty-page accounting.
//!
//! Pages are tracked in 64 KiB chunks (16 × 4 KiB pages) keyed by virtual-
//! disk chunk index. The dirty counters reproduce what Linux exposes via
//! `bdi_writeback.nr` — the quantity a guest publishes to the system store
//! as `has_dirty_pages` under IOrchestra (paper §3.1).
//!
//! Every operation is O(1) apart from the eviction scan and an
//! out-of-order dirty insert:
//!
//! * resident chunks live in a slab of nodes (freed slots are chained into
//!   a free list) indexed by an integer-hashed `chunk → slot` map;
//! * the nodes form one intrusive doubly-linked LRU list, least recently
//!   used at the head; reads, writes and re-inserts move a node to the
//!   tail, while a writeback completion leaves it where it is;
//! * dirty chunks wait in a FIFO of `(dirtied_at, chunk)` keys kept in
//!   ascending order. Dirtying times arrive almost always in order, so a
//!   new key is pushed at the back; a key that is not greater than the
//!   back (the same instant with a lower chunk index) is inserted at its
//!   sorted position. The flusher therefore takes chunks oldest first,
//!   ties broken by ascending chunk index.

use std::collections::VecDeque;

use iorch_simcore::SimTime;

use crate::inthash::IntMap;

/// Bytes per page (x86 default).
pub const PAGE_SIZE: u64 = 4096;
/// Pages per cache chunk.
pub const CHUNK_PAGES: u64 = 16;
/// Bytes per cache chunk.
pub const CHUNK_SIZE: u64 = PAGE_SIZE * CHUNK_PAGES;

/// Index of a chunk on the virtual disk.
pub type ChunkIdx = u64;

/// Convert a byte range to the chunks it covers.
pub fn chunks_of(offset: u64, len: u64) -> impl Iterator<Item = ChunkIdx> {
    let first = offset / CHUNK_SIZE;
    let last = if len == 0 {
        first
    } else {
        (offset + len - 1) / CHUNK_SIZE
    };
    first..=last
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ChunkState {
    Clean,
    Dirty,
    /// Writeback submitted, not yet completed.
    Writeback,
    /// Re-dirtied while writeback is in flight.
    DirtyWriteback,
}

/// End-of-list marker for slab links.
const NIL: u32 = u32::MAX;

/// One slab slot: a resident chunk and its LRU links (a free slot keeps
/// the next free slot in `next`).
#[derive(Clone, Copy, Debug)]
struct Node {
    idx: ChunkIdx,
    state: ChunkState,
    prev: u32,
    next: u32,
}

/// LRU page cache with dirty tracking at chunk granularity.
#[derive(Clone, Debug)]
pub struct PageCache {
    capacity_pages: u64,
    nodes: Vec<Node>,
    free: u32,
    slot_of: IntMap<ChunkIdx, u32>,
    /// Least recently used end of the LRU list.
    head: u32,
    /// Most recently used end of the LRU list.
    tail: u32,
    dirty_order: VecDeque<(SimTime, ChunkIdx)>,
    dirty_chunks: u64,
    writeback_chunks: u64,
}

impl PageCache {
    /// Cache with room for `capacity_pages` 4 KiB pages.
    pub fn new(capacity_pages: u64) -> Self {
        assert!(
            capacity_pages >= CHUNK_PAGES,
            "cache smaller than one chunk"
        );
        PageCache {
            capacity_pages,
            nodes: Vec::new(),
            free: NIL,
            slot_of: IntMap::default(),
            head: NIL,
            tail: NIL,
            dirty_order: VecDeque::new(),
            dirty_chunks: 0,
            writeback_chunks: 0,
        }
    }

    fn node(&mut self, slot: u32) -> &mut Node {
        &mut self.nodes[slot as usize]
    }

    fn link_tail(&mut self, slot: u32) {
        let old_tail = self.tail;
        let n = self.node(slot);
        n.prev = old_tail;
        n.next = NIL;
        match old_tail {
            NIL => self.head = slot,
            t => self.node(t).next = slot,
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = *self.node(slot);
        match prev {
            NIL => self.head = next,
            p => self.node(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node(n).prev = prev,
        }
    }

    /// Make `slot` the most recently used chunk.
    fn touch_slot(&mut self, slot: u32) {
        if slot != self.tail {
            self.unlink(slot);
            self.link_tail(slot);
        }
    }

    /// Add a resident chunk as the most recently used one.
    fn insert_slot(&mut self, idx: ChunkIdx, state: ChunkState) {
        let node = Node {
            idx,
            state,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free {
            NIL => {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("page cache slab overflow")
            }
            s => {
                self.free = self.nodes[s as usize].next;
                self.nodes[s as usize] = node;
                s
            }
        };
        self.slot_of.insert(idx, slot);
        self.link_tail(slot);
    }

    fn remove_slot(&mut self, slot: u32) {
        self.unlink(slot);
        let n = &mut self.nodes[slot as usize];
        n.next = self.free;
        self.slot_of.remove(&n.idx);
        self.free = slot;
    }

    /// Queue a newly dirtied chunk for writeback, keeping the queue sorted
    /// by `(dirtied_at, chunk)`.
    fn push_dirty(&mut self, now: SimTime, idx: ChunkIdx) {
        let key = (now, idx);
        if self.dirty_order.back().is_none_or(|&back| back < key) {
            self.dirty_order.push_back(key);
        } else {
            let at = self.dirty_order.partition_point(|&e| e < key);
            self.dirty_order.insert(at, key);
        }
    }

    /// Whether a chunk is resident (hit).
    pub fn contains(&self, idx: ChunkIdx) -> bool {
        self.slot_of.contains_key(&idx)
    }

    /// Record a read hit, refreshing LRU position.
    pub fn touch(&mut self, idx: ChunkIdx) {
        if let Some(&slot) = self.slot_of.get(&idx) {
            self.touch_slot(slot);
        }
    }

    /// Total resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.slot_of.len() as u64 * CHUNK_PAGES
    }

    /// Dirty pages, the `bdi_writeback.nr` analogue (includes chunks that
    /// were re-dirtied during writeback, excludes pure writeback).
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_chunks * CHUNK_PAGES
    }

    /// Pages currently under writeback.
    pub fn writeback_pages(&self) -> u64 {
        self.writeback_chunks * CHUNK_PAGES
    }

    /// Dirty pages as a fraction of cache capacity (the guest's
    /// `dirty_ratio` input).
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_pages() as f64 / self.capacity_pages as f64
    }

    /// Dirty **plus writeback** pages as a fraction of capacity — what
    /// Linux's `balance_dirty_pages` throttles writers against.
    pub fn unstable_fraction(&self) -> f64 {
        (self.dirty_pages() + self.writeback_pages()) as f64 / self.capacity_pages as f64
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// True when the resident set exceeds capacity (eviction pressure).
    pub fn over_capacity(&self) -> bool {
        self.resident_pages() > self.capacity_pages
    }

    /// Insert a chunk as clean (read miss fill). Evicts clean LRU chunks to
    /// stay within capacity; dirty/writeback chunks are never evicted.
    /// Returns the evicted chunk indices.
    pub fn insert_clean(&mut self, idx: ChunkIdx) -> Vec<ChunkIdx> {
        if let Some(&slot) = self.slot_of.get(&idx) {
            self.touch_slot(slot);
            return Vec::new();
        }
        self.insert_slot(idx, ChunkState::Clean);
        self.evict_to_capacity(idx)
    }

    fn evict_to_capacity(&mut self, protect: ChunkIdx) -> Vec<ChunkIdx> {
        let mut evicted = Vec::new();
        // Chunks the cursor has passed are dirty, under writeback or the
        // protected one, and evicting a clean chunk changes none of them,
        // so each victim search resumes where the previous one stopped.
        let mut cursor = self.head;
        while self.resident_pages() > self.capacity_pages {
            // Find the least-recently-used *clean* chunk, never the one
            // being inserted right now (it is in use by the caller).
            while cursor != NIL {
                let n = &self.nodes[cursor as usize];
                if n.idx != protect && n.state == ChunkState::Clean {
                    break;
                }
                cursor = n.next;
            }
            // All remaining chunks are dirty or in writeback; the cache
            // temporarily exceeds capacity (Linux allows this up to the
            // dirty limits; the kernel reacts by throttling writers).
            if cursor == NIL {
                break;
            }
            let victim = cursor;
            cursor = self.nodes[victim as usize].next;
            evicted.push(self.nodes[victim as usize].idx);
            self.remove_slot(victim);
        }
        evicted
    }

    /// Mark a chunk dirty at `now` (write). Inserts it if absent. Returns
    /// any chunks evicted to make room.
    pub fn mark_dirty(&mut self, idx: ChunkIdx, now: SimTime) -> Vec<ChunkIdx> {
        let Some(&slot) = self.slot_of.get(&idx) else {
            self.insert_slot(idx, ChunkState::Dirty);
            self.push_dirty(now, idx);
            self.dirty_chunks += 1;
            return self.evict_to_capacity(idx);
        };
        self.touch_slot(slot);
        let n = &mut self.nodes[slot as usize];
        let was = n.state;
        n.state = match was {
            ChunkState::Clean => ChunkState::Dirty,
            ChunkState::Writeback => ChunkState::DirtyWriteback,
            ChunkState::Dirty | ChunkState::DirtyWriteback => return Vec::new(),
        };
        if was == ChunkState::Writeback {
            // Re-dirtied in flight: counted as dirty, not as writeback.
            self.writeback_chunks -= 1;
        }
        self.push_dirty(now, idx);
        self.dirty_chunks += 1;
        Vec::new()
    }

    /// Take up to `max_chunks` dirty chunks, oldest first, transitioning
    /// them to writeback. If `expired_before` is given, only chunks dirtied
    /// strictly before it are taken (the `dirty_expire` path).
    pub fn take_dirty_batch(
        &mut self,
        max_chunks: usize,
        expired_before: Option<SimTime>,
    ) -> Vec<ChunkIdx> {
        let mut taken = Vec::new();
        while taken.len() < max_chunks {
            let Some(&(dirtied_at, idx)) = self.dirty_order.front() else {
                break;
            };
            if expired_before.is_some_and(|limit| dirtied_at >= limit) {
                break;
            }
            self.dirty_order.pop_front();
            let n = &mut self.nodes[self.slot_of[&idx] as usize];
            debug_assert!(matches!(
                n.state,
                ChunkState::Dirty | ChunkState::DirtyWriteback
            ));
            n.state = ChunkState::Writeback;
            self.dirty_chunks -= 1;
            self.writeback_chunks += 1;
            taken.push(idx);
        }
        taken
    }

    /// Writeback of a chunk completed. If it was re-dirtied meanwhile it
    /// stays dirty; otherwise it becomes clean (and evictable) at its
    /// current LRU position.
    pub fn writeback_done(&mut self, idx: ChunkIdx) {
        let Some(&slot) = self.slot_of.get(&idx) else {
            return;
        };
        let n = &mut self.nodes[slot as usize];
        match n.state {
            ChunkState::Writeback => {
                n.state = ChunkState::Clean;
                self.writeback_chunks -= 1;
            }
            ChunkState::DirtyWriteback => {
                // Already re-flagged dirty by mark_dirty; nothing to do.
                n.state = ChunkState::Dirty;
            }
            _ => {}
        }
    }

    /// Age of the oldest dirty chunk at `now`, if any.
    pub fn oldest_dirty_age(&self, now: SimTime) -> Option<iorch_simcore::SimDuration> {
        self.dirty_order
            .front()
            .map(|&(t, _)| now.saturating_since(t))
    }

    /// Drop every chunk for a teardown (no writeback; caller must have
    /// synced first if durability matters).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.slot_of.clear();
        self.head = NIL;
        self.tail = NIL;
        self.dirty_order.clear();
        self.dirty_chunks = 0;
        self.writeback_chunks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn chunks_of_ranges() {
        let v: Vec<u64> = chunks_of(0, CHUNK_SIZE).collect();
        assert_eq!(v, vec![0]);
        let v: Vec<u64> = chunks_of(0, CHUNK_SIZE + 1).collect();
        assert_eq!(v, vec![0, 1]);
        let v: Vec<u64> = chunks_of(CHUNK_SIZE - 1, 2).collect();
        assert_eq!(v, vec![0, 1]);
        let v: Vec<u64> = chunks_of(3 * CHUNK_SIZE, 0).collect();
        assert_eq!(v, vec![3]);
    }

    #[test]
    fn insert_and_hit() {
        let mut pc = PageCache::new(1024);
        assert!(!pc.contains(5));
        pc.insert_clean(5);
        assert!(pc.contains(5));
        assert_eq!(pc.resident_pages(), CHUNK_PAGES);
        assert_eq!(pc.dirty_pages(), 0);
    }

    #[test]
    fn lru_eviction_order() {
        // Capacity of exactly 2 chunks.
        let mut pc = PageCache::new(2 * CHUNK_PAGES);
        pc.insert_clean(1);
        pc.insert_clean(2);
        pc.touch(1); // 2 is now LRU
        let evicted = pc.insert_clean(3);
        assert_eq!(evicted, vec![2]);
        assert!(pc.contains(1) && pc.contains(3));
    }

    #[test]
    fn dirty_chunks_resist_eviction() {
        let mut pc = PageCache::new(2 * CHUNK_PAGES);
        pc.mark_dirty(1, t(0));
        pc.mark_dirty(2, t(1));
        let evicted = pc.insert_clean(3);
        // Nothing evictable: both resident chunks are dirty; cache exceeds
        // capacity instead.
        assert!(evicted.is_empty());
        assert!(pc.over_capacity());
        assert_eq!(pc.dirty_pages(), 2 * CHUNK_PAGES);
    }

    #[test]
    fn dirty_accounting_through_writeback() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(7, t(0));
        pc.mark_dirty(8, t(1));
        assert_eq!(pc.dirty_pages(), 2 * CHUNK_PAGES);
        let batch = pc.take_dirty_batch(10, None);
        assert_eq!(batch, vec![7, 8]); // oldest first
        assert_eq!(pc.dirty_pages(), 0);
        assert_eq!(pc.writeback_pages(), 2 * CHUNK_PAGES);
        pc.writeback_done(7);
        pc.writeback_done(8);
        assert_eq!(pc.writeback_pages(), 0);
        assert!(pc.contains(7) && pc.contains(8)); // stay cached, now clean
    }

    #[test]
    fn redirty_during_writeback() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(7, t(0));
        let batch = pc.take_dirty_batch(10, None);
        assert_eq!(batch, vec![7]);
        // Re-dirty while in flight.
        pc.mark_dirty(7, t(5));
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
        pc.writeback_done(7);
        // Still dirty: the new write must be flushed again.
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
        let batch = pc.take_dirty_batch(10, None);
        assert_eq!(batch, vec![7]);
        pc.writeback_done(7);
        assert_eq!(pc.dirty_pages(), 0);
    }

    #[test]
    fn expired_filter() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(1, t(0));
        pc.mark_dirty(2, t(100));
        let batch = pc.take_dirty_batch(10, Some(t(50)));
        assert_eq!(batch, vec![1]);
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
    }

    #[test]
    fn dirty_fraction_and_age() {
        let mut pc = PageCache::new(10 * CHUNK_PAGES);
        pc.mark_dirty(1, t(10));
        pc.mark_dirty(2, t(20));
        assert!((pc.dirty_fraction() - 0.2).abs() < 1e-9);
        let age = pc.oldest_dirty_age(t(110)).unwrap();
        assert_eq!(age, iorch_simcore::SimDuration::from_millis(100));
        assert!(PageCache::new(1024).oldest_dirty_age(t(0)).is_none());
    }

    #[test]
    fn same_instant_dirty_ties_flush_in_chunk_order() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(9, t(0));
        pc.mark_dirty(3, t(0));
        assert_eq!(pc.take_dirty_batch(10, None), vec![3, 9]);
    }

    #[test]
    fn writeback_completion_keeps_lru_position() {
        // Capacity of exactly 2 chunks.
        let mut pc = PageCache::new(2 * CHUNK_PAGES);
        pc.mark_dirty(1, t(0));
        pc.insert_clean(2);
        assert_eq!(pc.take_dirty_batch(10, None), vec![1]);
        // Cleaned after 2 was used: 1 is still the least recently used.
        pc.writeback_done(1);
        assert_eq!(pc.insert_clean(3), vec![1]);
        assert!(pc.contains(2) && pc.contains(3));
    }

    #[test]
    fn mark_dirty_existing_clean_chunk() {
        let mut pc = PageCache::new(1024);
        pc.insert_clean(3);
        assert_eq!(pc.dirty_pages(), 0);
        pc.mark_dirty(3, t(1));
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
        // Marking again does not double-count.
        pc.mark_dirty(3, t(2));
        assert_eq!(pc.dirty_pages(), CHUNK_PAGES);
    }

    #[test]
    fn clear_resets_everything() {
        let mut pc = PageCache::new(1024);
        pc.mark_dirty(1, t(0));
        pc.insert_clean(2);
        pc.clear();
        assert_eq!(pc.resident_pages(), 0);
        assert_eq!(pc.dirty_pages(), 0);
        assert!(!pc.contains(1));
    }
}
