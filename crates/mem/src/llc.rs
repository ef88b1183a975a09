//! Last-Level Cache model with a DDIO allocation cap.
//!
//! The LLC is modeled as a fully-associative LRU over
//! [`CHUNK_SIZE`](crate::phys::CHUNK_SIZE) chunks of physical address
//! space. Two populations are tracked:
//!
//! * **DMA-allocated** chunks (inserted by device writes under Intel
//!   DDIO): these may occupy at most `ddio_chunks` — DDIO restricts
//!   allocation to a subset of cache ways. Exceeding the cap evicts
//!   the least-recently-used DMA chunk, which is precisely the
//!   pathology the paper's Fig 14c identifies ("contention for DDIO
//!   portion of LLC evicts DMA'ed data").
//! * **CPU-allocated** chunks: normal loads/stores, limited only by
//!   total capacity. A CPU touch of a DMA chunk reclassifies it —
//!   DDIO caps allocations, not residency of consumed data.
//!
//! LRU order is two intrusive doubly-linked lists threaded through
//! one slab of nodes: the global list (every resident chunk) and the
//! DMA-only list (chunks still classed as DMA-allocated), each ordered
//! least- to most-recently used. A chunk → node index finds a chunk's
//! node, and evicted or invalidated nodes go on a free list for reuse,
//! so every operation is O(1): one index probe plus a few link
//! updates. Each list keeps chunks in the order of their last access,
//! so victim choice is the plain LRU one.

use dcn_simcore::IntMap;
use std::collections::hash_map::Entry;

/// LLC geometry.
#[derive(Clone, Copy, Debug)]
pub struct LlcConfig {
    /// Total capacity in chunks. The evaluation server's Xeon
    /// E5-2667v3 has a 20 MiB LLC → 5120 four-KiB chunks.
    pub capacity_chunks: u64,
    /// Max chunks resident via DMA (DDIO) allocation. DDIO typically
    /// gets 2 of 20 ways → 10% of capacity.
    pub ddio_chunks: u64,
}

impl LlcConfig {
    /// The paper's server: 20 MiB LLC, 10% DDIO.
    #[must_use]
    pub fn xeon_e5_2667v3() -> Self {
        let capacity_chunks = 20 * 1024 * 1024 / crate::phys::CHUNK_SIZE;
        LlcConfig {
            capacity_chunks,
            ddio_chunks: capacity_chunks / 10,
        }
    }
}

/// End-of-list marker for node links.
const NIL: u32 = u32::MAX;
/// List ids: index into [`Node::links`] and [`Llc::lists`].
const ALL: usize = 0;
const DMA: usize = 1;

#[derive(Clone, Copy, Debug)]
struct Node {
    chunk: u64,
    /// `[prev, next]` in each list (`NIL` at the ends). The DMA links
    /// are meaningful only while `dma` is set.
    links: [[u32; 2]; 2],
    dirty: bool,
    dma: bool,
}

/// Least- (`head`) and most-recently (`tail`) used node of one list.
#[derive(Clone, Copy, Debug)]
struct Ends {
    head: u32,
    tail: u32,
}

/// Chunks evicted by one insertion.
#[derive(Clone, Copy, Default, Debug)]
pub struct Evictions {
    pub clean_chunks: u64,
    pub dirty_chunks: u64,
}

/// The cache state. Keys are chunk ids (physical page numbers).
pub struct Llc {
    cfg: LlcConfig,
    nodes: Vec<Node>,
    /// Slab slots of evicted/invalidated nodes, reused before growing.
    free: Vec<u32>,
    index: IntMap<u64, u32>,
    lists: [Ends; 2],
    dma_live: u64,
    /// Lifetime eviction counters (diagnostics).
    pub evicted_dirty_total: u64,
    pub evicted_clean_total: u64,
}

impl Llc {
    #[must_use]
    pub fn new(cfg: LlcConfig) -> Self {
        assert!(cfg.ddio_chunks <= cfg.capacity_chunks);
        assert!(cfg.capacity_chunks > 0);
        let empty = Ends {
            head: NIL,
            tail: NIL,
        };
        Llc {
            cfg,
            nodes: Vec::new(),
            free: Vec::new(),
            index: IntMap::default(),
            lists: [empty; 2],
            dma_live: 0,
            evicted_dirty_total: 0,
            evicted_clean_total: 0,
        }
    }

    #[must_use]
    pub fn config(&self) -> LlcConfig {
        self.cfg
    }

    /// Number of chunks currently resident.
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.index.len() as u64
    }

    /// Number of resident chunks still classed as DMA-allocated.
    #[must_use]
    pub fn dma_resident(&self) -> u64 {
        self.dma_live
    }

    /// Is `chunk` resident? Does not update LRU order (pure probe,
    /// used by DMA reads which are not allocating accesses).
    #[must_use]
    pub fn probe(&self, chunk: u64) -> bool {
        self.index.contains_key(&chunk)
    }

    /// CPU touch: if resident, refresh LRU, optionally mark dirty, and
    /// reclassify a DMA chunk as CPU-owned. Returns hit/miss.
    pub fn touch(&mut self, chunk: u64, dirty: bool) -> bool {
        match self.index.get(&chunk) {
            Some(&i) => {
                self.touch_node(i, dirty);
                true
            }
            None => false,
        }
    }

    fn touch_node(&mut self, i: u32, dirty: bool) {
        self.unlink(ALL, i);
        self.push_back(ALL, i);
        if self.nodes[i as usize].dma {
            self.unlink(DMA, i);
            self.dma_live -= 1;
        }
        let n = &mut self.nodes[i as usize];
        n.dma = false;
        n.dirty |= dirty;
    }

    /// Allocate `chunk` on behalf of the CPU (after a miss).
    pub fn insert_cpu(&mut self, chunk: u64, dirty: bool) -> Evictions {
        self.insert(chunk, dirty, false)
    }

    /// Allocate `chunk` on behalf of a DMA write (DDIO). The data a
    /// device wrote is by definition newer than DRAM, so DMA chunks
    /// are dirty until consumed or written back.
    pub fn insert_dma(&mut self, chunk: u64) -> Evictions {
        self.insert(chunk, true, true)
    }

    /// Remove `chunk` without writeback (buffer freed / NT store).
    pub fn invalidate(&mut self, chunk: u64) {
        if let Some(i) = self.index.remove(&chunk) {
            self.release(i);
        }
    }

    fn insert(&mut self, chunk: u64, dirty: bool, dma: bool) -> Evictions {
        let node = Node {
            chunk,
            links: [[NIL; 2]; 2],
            dirty,
            dma,
        };
        let i = match self.index.entry(chunk) {
            // Re-insertion of a resident chunk is a touch with
            // reclassification: a fresh DMA write over it (always
            // dirty) re-marks it dirty but leaves it CPU-classified —
            // the common buffer-recycling case.
            Entry::Occupied(e) => {
                let i = *e.get();
                self.touch_node(i, dirty);
                return Evictions::default();
            }
            Entry::Vacant(v) => {
                let i = match self.free.pop() {
                    Some(i) => {
                        self.nodes[i as usize] = node;
                        i
                    }
                    None => {
                        self.nodes.push(node);
                        u32::try_from(self.nodes.len() - 1).expect("LLC slab exceeds u32 nodes")
                    }
                };
                *v.insert(i)
            }
        };
        let mut ev = Evictions::default();
        self.push_back(ALL, i);
        if dma {
            self.push_back(DMA, i);
            self.dma_live += 1;
            // DDIO cap: evict oldest DMA chunk first.
            while self.dma_live > self.cfg.ddio_chunks {
                self.evict(self.lists[DMA].head, &mut ev);
            }
        }
        while self.index.len() as u64 > self.cfg.capacity_chunks {
            self.evict(self.lists[ALL].head, &mut ev);
        }
        ev
    }

    fn evict(&mut self, i: u32, ev: &mut Evictions) {
        let n = self.nodes[i as usize];
        self.index.remove(&n.chunk);
        self.release(i);
        if n.dirty {
            ev.dirty_chunks += 1;
            self.evicted_dirty_total += 1;
        } else {
            ev.clean_chunks += 1;
            self.evicted_clean_total += 1;
        }
    }

    /// Unlink node `i` (already dropped from the index) from its lists
    /// and return its slot to the free list.
    fn release(&mut self, i: u32) {
        self.unlink(ALL, i);
        if self.nodes[i as usize].dma {
            self.unlink(DMA, i);
            self.dma_live -= 1;
        }
        self.free.push(i);
    }

    /// Append node `i` as the most recently used entry of `list`.
    fn push_back(&mut self, list: usize, i: u32) {
        let tail = self.lists[list].tail;
        self.nodes[i as usize].links[list] = [tail, NIL];
        match tail {
            NIL => self.lists[list].head = i,
            t => self.nodes[t as usize].links[list][1] = i,
        }
        self.lists[list].tail = i;
    }

    fn unlink(&mut self, list: usize, i: u32) {
        let [prev, next] = self.nodes[i as usize].links[list];
        match prev {
            NIL => self.lists[list].head = next,
            p => self.nodes[p as usize].links[list][1] = next,
        }
        match next {
            NIL => self.lists[list].tail = prev,
            n => self.nodes[n as usize].links[list][0] = prev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llc(cap: u64, ddio: u64) -> Llc {
        Llc::new(LlcConfig {
            capacity_chunks: cap,
            ddio_chunks: ddio,
        })
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = llc(3, 3);
        c.insert_cpu(1, false);
        c.insert_cpu(2, false);
        c.insert_cpu(3, false);
        c.touch(1, false); // 2 is now LRU
        let ev = c.insert_cpu(4, false);
        assert_eq!(ev.clean_chunks, 1);
        assert!(!c.probe(2), "LRU victim must be 2");
        assert!(c.probe(1) && c.probe(3) && c.probe(4));
    }

    #[test]
    fn dirty_state_sticky_until_eviction() {
        let mut c = llc(2, 2);
        c.insert_cpu(1, true);
        c.touch(1, false); // clean touch must not clear dirty
        c.insert_cpu(2, false);
        let ev = c.insert_cpu(3, false); // evicts 1
        assert_eq!(ev.dirty_chunks, 1);
    }

    #[test]
    fn ddio_cap_is_enforced_but_capacity_not_exceeded_either() {
        let mut c = llc(8, 2);
        for p in 0..5 {
            c.insert_dma(p);
        }
        assert_eq!(c.dma_resident(), 2);
        assert_eq!(c.resident(), 2);
        assert!(c.probe(3) && c.probe(4));
    }

    #[test]
    fn cpu_touch_reclassifies_dma_chunk() {
        let mut c = llc(8, 2);
        c.insert_dma(1);
        c.insert_dma(2);
        assert_eq!(c.dma_resident(), 2);
        assert!(c.touch(1, true));
        assert_eq!(c.dma_resident(), 1);
        // Two more DMA inserts may evict chunk 2 but not chunk 1.
        c.insert_dma(3);
        c.insert_dma(4);
        assert!(c.probe(1));
        assert!(!c.probe(2));
    }

    #[test]
    fn invalidate_removes_without_counting_eviction() {
        let mut c = llc(4, 4);
        c.insert_cpu(1, true);
        c.invalidate(1);
        assert!(!c.probe(1));
        assert_eq!(c.evicted_dirty_total, 0);
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn reinsert_resident_is_not_duplicate() {
        let mut c = llc(4, 4);
        c.insert_cpu(1, false);
        c.insert_cpu(1, true);
        assert_eq!(c.resident(), 1);
        c.insert_dma(1);
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn capacity_pressure_evicts_cpu_lines_too() {
        let mut c = llc(4, 2);
        c.insert_cpu(10, false);
        c.insert_cpu(11, false);
        c.insert_cpu(12, false);
        c.insert_dma(20);
        c.insert_dma(21); // 5 entries total > 4: oldest (10) goes
        assert_eq!(c.resident(), 4);
        assert!(!c.probe(10));
    }

    #[test]
    fn dma_counters_track_reclass_and_eviction() {
        let mut c = llc(16, 4);
        for p in 0..4 {
            c.insert_dma(p);
        }
        c.touch(0, false);
        c.touch(1, false);
        assert_eq!(c.dma_resident(), 2);
        c.invalidate(2);
        assert_eq!(c.dma_resident(), 1);
    }
    /// Naive reference: one `Vec` ordered least- to most-recently
    /// used, every operation a linear scan — the LRU + DDIO-cap rules
    /// stated as plainly as possible.
    #[derive(Default)]
    struct RefLlc {
        cap: usize,
        ddio: usize,
        lru: Vec<(u64, bool, bool)>, // (chunk, dirty, dma)
        evicted_dirty_total: u64,
        evicted_clean_total: u64,
    }

    impl RefLlc {
        fn pos(&self, chunk: u64) -> Option<usize> {
            self.lru.iter().position(|e| e.0 == chunk)
        }

        fn dma_resident(&self) -> u64 {
            self.lru.iter().filter(|e| e.2).count() as u64
        }

        fn touch(&mut self, chunk: u64, dirty: bool) -> bool {
            let Some(p) = self.pos(chunk) else {
                return false;
            };
            let (c, d, _) = self.lru.remove(p);
            self.lru.push((c, d | dirty, false));
            true
        }

        fn evict_at(&mut self, p: usize, ev: &mut Evictions) {
            if self.lru.remove(p).1 {
                ev.dirty_chunks += 1;
                self.evicted_dirty_total += 1;
            } else {
                ev.clean_chunks += 1;
                self.evicted_clean_total += 1;
            }
        }

        fn insert(&mut self, chunk: u64, dirty: bool, dma: bool) -> Evictions {
            let mut ev = Evictions::default();
            if self.touch(chunk, dirty) {
                if dma {
                    self.lru.last_mut().unwrap().1 = true;
                }
                return ev;
            }
            self.lru.push((chunk, dirty, dma));
            while self.dma_resident() as usize > self.ddio {
                let p = self.lru.iter().position(|e| e.2).unwrap();
                self.evict_at(p, &mut ev);
            }
            while self.lru.len() > self.cap {
                self.evict_at(0, &mut ev);
            }
            ev
        }

        fn invalidate(&mut self, chunk: u64) {
            if let Some(p) = self.pos(chunk) {
                self.lru.remove(p);
            }
        }
    }

    /// Walk one of `c`'s intrusive lists from least to most recent.
    fn list_order(c: &Llc, list: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = c.lists[list].head;
        while i != NIL {
            out.push(c.nodes[i as usize].chunk);
            i = c.nodes[i as usize].links[list][1];
        }
        out
    }

    #[test]
    fn matches_naive_reference_on_random_sequences() {
        let mut dma_reinserts = 0u32;
        for seed in 0..200u64 {
            let mut rng = dcn_simcore::SimRng::new(seed);
            let cap = rng.gen_range(1, 9);
            let ddio = rng.gen_range(0, cap + 1);
            let universe = cap * 2 + 2;
            let mut c = llc(cap, ddio);
            let mut r = RefLlc {
                cap: cap as usize,
                ddio: ddio as usize,
                ..RefLlc::default()
            };
            for step in 0..400 {
                let chunk = rng.gen_range(0, universe);
                let dirty = rng.chance(0.5);
                let ctx = format!("seed {seed} step {step} chunk {chunk}");
                let (got, want) = match rng.gen_range(0, 5) {
                    0 => {
                        let (a, b) = (c.touch(chunk, dirty), r.touch(chunk, dirty));
                        assert_eq!(a, b, "touch hit/miss: {ctx}");
                        (Evictions::default(), Evictions::default())
                    }
                    1 => (c.insert_cpu(chunk, dirty), r.insert(chunk, dirty, false)),
                    2 => {
                        if r.pos(chunk).is_some_and(|p| r.lru[p].2) {
                            dma_reinserts += 1;
                        }
                        (c.insert_dma(chunk), r.insert(chunk, true, true))
                    }
                    3 => {
                        c.invalidate(chunk);
                        r.invalidate(chunk);
                        (Evictions::default(), Evictions::default())
                    }
                    _ => {
                        assert_eq!(c.probe(chunk), r.pos(chunk).is_some(), "probe: {ctx}");
                        (Evictions::default(), Evictions::default())
                    }
                };
                assert_eq!(
                    got.clean_chunks, want.clean_chunks,
                    "clean evictions: {ctx}"
                );
                assert_eq!(
                    got.dirty_chunks, want.dirty_chunks,
                    "dirty evictions: {ctx}"
                );
                assert_eq!(c.resident(), r.lru.len() as u64, "resident: {ctx}");
                assert_eq!(c.dma_resident(), r.dma_resident(), "dma_resident: {ctx}");
                assert_eq!(c.evicted_dirty_total, r.evicted_dirty_total, "{ctx}");
                assert_eq!(c.evicted_clean_total, r.evicted_clean_total, "{ctx}");
                let order: Vec<u64> = r.lru.iter().map(|e| e.0).collect();
                assert_eq!(list_order(&c, ALL), order, "LRU order: {ctx}");
                let dma_order: Vec<u64> = r.lru.iter().filter(|e| e.2).map(|e| e.0).collect();
                assert_eq!(list_order(&c, DMA), dma_order, "DMA order: {ctx}");
                for e in &r.lru {
                    assert_eq!(c.nodes[c.index[&e.0] as usize].dirty, e.1, "dirty: {ctx}");
                }
            }
        }
        assert!(
            dma_reinserts > 100,
            "only {dma_reinserts} resident-DMA re-inserts"
        );
    }
}
