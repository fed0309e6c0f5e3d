//! Pending-event set implementations.
//!
//! * [`BinaryHeapQueue`] — `std::collections::BinaryHeap` over *batches* of
//!   same-timestamp events, with dense id-bitmap bookkeeping and lazy
//!   cancellation plus tombstone compaction. The queue the
//!   [`Engine`](crate::engine::Engine) runs on: cache-friendly and cheap
//!   even under the kill-relaunch storms of aggressive replication
//!   policies.
//! * [`BTreeQueue`] — an ordered-map queue with *eager* cancellation
//!   (O(log n) true removal, no tombstones). The reference implementation
//!   the heap is property-tested against.
//!
//! Both honour the same contract, captured by [`PendingEvents`]: events pop
//! in non-decreasing time order, ties break in insertion (FIFO) order, and
//! cancelled events never pop.

use crate::event::EventId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Common interface of the pending-event set.
pub trait PendingEvents<E> {
    /// Schedules `payload` to fire at `time`, returning a cancellation handle.
    fn schedule(&mut self, time: SimTime, payload: E) -> EventId;

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. this call removed it), `false` if it had already
    /// fired or been cancelled.
    fn cancel(&mut self, id: EventId) -> bool;

    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<(SimTime, EventId, E)>;

    /// Firing time of the earliest pending event, if any.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Number of live (non-cancelled) pending events.
    fn len(&self) -> usize;

    /// True when no live events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Dense bitmap over sequentially issued event ids. Ids are allocated from
/// a counter, so a bit vector indexed by id replaces a hash set: O(1)
/// membership with no hashing, one bit per id ever issued.
#[derive(Clone, Default)]
struct IdBits {
    words: Vec<u64>,
}

impl IdBits {
    /// Sets the bit for `id`, growing the map as needed.
    #[inline]
    fn set(&mut self, id: u64) {
        let w = (id >> 6) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (id & 63);
    }

    /// True when the bit for `id` is set. Out-of-range ids (never issued,
    /// or the `EventId::NONE` sentinel) read as unset.
    #[inline]
    fn get(&self, id: u64) -> bool {
        self.words
            .get((id >> 6) as usize)
            .is_some_and(|&w| w >> (id & 63) & 1 == 1)
    }

    /// Clears the bit for `id`; returns whether it was set.
    #[inline]
    fn clear(&mut self, id: u64) -> bool {
        match self.words.get_mut((id >> 6) as usize) {
            Some(w) => {
                let mask = 1 << (id & 63);
                let was = *w & mask != 0;
                *w &= !mask;
                was
            }
            None => false,
        }
    }
}

/// Batch storage. In a simulation with continuous event times almost every
/// batch holds exactly one event, so the singleton case lives inline in the
/// heap node — no deque allocation, and popping it touches no memory beyond
/// the node itself. Only a genuine timestamp tie upgrades to a deque.
#[derive(Clone)]
enum Items<E> {
    /// Zero or one event; `None` marks an exhausted batch.
    One(Option<(u64, E)>),
    /// Two or more events (or the drained remains of such a batch),
    /// front-to-back in insertion order.
    Many(VecDeque<(u64, E)>),
}

impl<E> Items<E> {
    #[inline]
    fn front_id(&self) -> Option<u64> {
        match self {
            Items::One(slot) => slot.as_ref().map(|&(id, _)| id),
            Items::Many(deque) => deque.front().map(|&(id, _)| id),
        }
    }

    #[inline]
    fn pop_front(&mut self) -> Option<(u64, E)> {
        match self {
            Items::One(slot) => slot.take(),
            Items::Many(deque) => deque.pop_front(),
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        match self {
            Items::One(slot) => slot.is_none(),
            Items::Many(deque) => deque.is_empty(),
        }
    }

    fn retain(&mut self, mut keep: impl FnMut(&(u64, E)) -> bool) {
        match self {
            Items::One(slot) => {
                if slot.as_ref().is_some_and(|item| !keep(item)) {
                    *slot = None;
                }
            }
            Items::Many(deque) => deque.retain(|item| keep(item)),
        }
    }
}

/// A run of events sharing one firing time, stored front-to-back in
/// insertion order. Because ids are issued sequentially and a batch only
/// ever grows at the open tail, ids within a batch are strictly increasing,
/// so popping from the front preserves FIFO tie order.
#[derive(Clone)]
struct Batch<E> {
    time: SimTime,
    items: Items<E>,
}

impl<E> Batch<E> {
    /// Queue key of the batch: its time and the id of its earliest event.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        let front = self.items.front_id().expect("batch is never empty");
        (self.time, front)
    }

    /// Appends an event at the open tail, upgrading a singleton to deque
    /// storage (recycled from `spare` when possible) on a timestamp tie.
    fn push_back(&mut self, id: u64, payload: E, spare: &mut Vec<VecDeque<(u64, E)>>) {
        match &mut self.items {
            Items::One(slot) => {
                let mut deque = spare.pop().unwrap_or_default();
                debug_assert!(deque.is_empty());
                if let Some(first) = slot.take() {
                    deque.push_back(first);
                }
                deque.push_back((id, payload));
                self.items = Items::Many(deque);
            }
            Items::Many(deque) => deque.push_back((id, payload)),
        }
    }
}

// Min-heap adapter: BinaryHeap is a max-heap, so order batches by reversed
// key. The key is cached inline so sift comparisons never chase into the
// batch storage; it grows as the batch front is consumed, and `take_front`
// refreshes it before `PeekMut`'s drop glue re-sifts.
#[derive(Clone)]
struct HeapItem<E> {
    key: (SimTime, u64),
    batch: Batch<E>,
}

impl<E> HeapItem<E> {
    #[inline]
    fn new(batch: Batch<E>) -> Self {
        HeapItem {
            key: batch.key(),
            batch,
        }
    }
}

impl<E> PartialEq for HeapItem<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for HeapItem<E> {}
impl<E> PartialOrd for HeapItem<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapItem<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Which structure currently holds the globally earliest event.
#[derive(Clone, Copy)]
enum Source {
    Tail,
    Heap,
}

/// Binary-heap pending-event set with same-timestamp batching, dense
/// id-bitmap bookkeeping and compacted lazy cancellation.
///
/// Consecutive schedules at the same timestamp coalesce into one heap node
/// (the open *tail* batch), so a storm of simultaneous renewals or repairs
/// costs one heap operation instead of k. Cancellation flips a bit; when
/// tombstones outnumber live events the heap is rebuilt without them, so
/// resident memory stays proportional to live events.
///
/// `Clone` copies the heap's storage as is, so a clone pops the same
/// events in the same order as the original.
#[derive(Clone)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<HeapItem<E>>,
    /// The most recent batch, still open for same-time appends; not yet in
    /// the heap. Its ids are the largest issued, so on a time tie with a
    /// heap batch the heap batch pops first — FIFO is preserved.
    tail: Option<Batch<E>>,
    /// Ids scheduled but not yet popped or cancelled.
    pending: IdBits,
    /// Ids cancelled but still physically resident (lazy deletion).
    cancelled: IdBits,
    next_id: u64,
    /// Live (non-cancelled) pending events.
    live: usize,
    /// Cancelled events still resident in `heap` or `tail`.
    dead: usize,
    /// Emptied batch deques, kept for reuse so steady-state scheduling
    /// allocates nothing.
    spare: Vec<VecDeque<(u64, E)>>,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            tail: None,
            pending: IdBits::default(),
            cancelled: IdBits::default(),
            next_id: 0,
            live: 0,
            dead: 0,
            spare: Vec::new(),
        }
    }

    /// Creates an empty queue with capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            tail: None,
            pending: IdBits::default(),
            cancelled: IdBits::default(),
            next_id: 0,
            live: 0,
            dead: 0,
            spare: Vec::new(),
        }
    }

    /// Retires an exhausted batch's storage for reuse. Singleton batches
    /// own no storage; only drained deques are worth keeping.
    #[inline]
    fn recycle(&mut self, items: Items<E>) {
        debug_assert!(items.is_empty());
        if let Items::Many(deque) = items {
            if self.spare.len() < 64 {
                self.spare.push(deque);
            }
        }
    }

    /// Key and location of the globally earliest resident event (live or
    /// tombstoned), or `None` when nothing is resident.
    #[inline]
    fn front(&self) -> Option<(Source, SimTime, u64)> {
        let tail = self.tail.as_ref().map(Batch::key);
        let heap = self.heap.peek().map(|b| b.key);
        match (tail, heap) {
            (None, None) => None,
            (Some((t, i)), None) => Some((Source::Tail, t, i)),
            (None, Some((t, i))) => Some((Source::Heap, t, i)),
            (Some(tk), Some(hk)) => {
                if tk < hk {
                    Some((Source::Tail, tk.0, tk.1))
                } else {
                    Some((Source::Heap, hk.0, hk.1))
                }
            }
        }
    }

    /// Removes and returns the front event of the batch at `src`, dropping
    /// the batch once exhausted.
    fn take_front(&mut self, src: Source) -> (SimTime, u64, E) {
        match src {
            Source::Tail => {
                let batch = self.tail.as_mut().expect("front reported a tail");
                let (id, payload) = batch.items.pop_front().expect("batch is never empty");
                let time = batch.time;
                if batch.items.is_empty() {
                    let spent = self.tail.take().expect("just borrowed").items;
                    self.recycle(spent);
                }
                (time, id, payload)
            }
            Source::Heap => {
                let mut top = self.heap.peek_mut().expect("front reported a heap batch");
                let (id, payload) = top.batch.items.pop_front().expect("batch is never empty");
                let time = top.batch.time;
                if top.batch.items.is_empty() {
                    let spent = PeekMut::pop(top).batch.items;
                    self.recycle(spent);
                } else {
                    top.key = top.batch.key();
                }
                (time, id, payload)
            }
        }
    }

    /// Rebuilds the heap without tombstones. Relative order of survivors is
    /// untouched (batches keep their time and ascending-id runs), so pop
    /// order is unchanged; only the dead weight goes.
    fn compact(&mut self) {
        let mut batches: Vec<Batch<E>> = self.heap.drain().map(|b| b.batch).collect();
        if let Some(t) = self.tail.take() {
            batches.push(t);
        }
        let cancelled = &mut self.cancelled;
        for batch in &mut batches {
            batch.items.retain(|&(id, _)| !cancelled.clear(id));
        }
        let mut survivors = Vec::with_capacity(batches.len());
        for batch in batches {
            if batch.items.is_empty() {
                self.recycle(batch.items);
            } else {
                survivors.push(HeapItem::new(batch));
            }
        }
        self.heap = survivors.into();
        self.dead = 0;
    }
}

impl<E> PendingEvents<E> for BinaryHeapQueue<E> {
    fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.set(id);
        self.live += 1;
        match &mut self.tail {
            Some(batch) if batch.time == time => batch.push_back(id, payload, &mut self.spare),
            tail => {
                if let Some(prev) = tail.take() {
                    self.heap.push(HeapItem::new(prev));
                }
                *tail = Some(Batch {
                    time,
                    items: Items::One(Some((id, payload))),
                });
            }
        }
        EventId(id)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        // Only ids that are still pending may be cancelled; ids that already
        // fired (or were cancelled, or were never issued) have a clear bit.
        if self.pending.clear(id.0) {
            self.cancelled.set(id.0);
            self.live -= 1;
            self.dead += 1;
            if self.dead > self.live + 64 {
                self.compact();
            }
            true
        } else {
            false
        }
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        loop {
            // Leading tombstones of the front batch are globally minimal,
            // so they can be dropped in bulk here — one re-sift per batch
            // visit instead of one per tombstone.
            let (src, _, _) = self.front()?;
            match src {
                Source::Tail => {
                    let batch = self.tail.as_mut().expect("front reported a tail");
                    let time = batch.time;
                    while let Some((id, payload)) = batch.items.pop_front() {
                        if self.cancelled.clear(id) {
                            self.dead -= 1;
                            continue;
                        }
                        self.pending.clear(id);
                        self.live -= 1;
                        if batch.items.is_empty() {
                            let spent = self.tail.take().expect("just borrowed").items;
                            self.recycle(spent);
                        }
                        return Some((time, EventId(id), payload));
                    }
                    // The whole batch was tombstones.
                    let spent = self.tail.take().expect("just borrowed").items;
                    self.recycle(spent);
                }
                Source::Heap => {
                    let mut top = self.heap.peek_mut().expect("front reported a heap batch");
                    let time = top.batch.time;
                    let mut taken = None;
                    while let Some((id, payload)) = top.batch.items.pop_front() {
                        if self.cancelled.clear(id) {
                            self.dead -= 1;
                            continue;
                        }
                        self.pending.clear(id);
                        self.live -= 1;
                        taken = Some((time, EventId(id), payload));
                        break;
                    }
                    if top.batch.items.is_empty() {
                        let spent = PeekMut::pop(top).batch.items;
                        self.recycle(spent);
                    } else {
                        top.key = top.batch.key();
                    }
                    if taken.is_some() {
                        return taken;
                    }
                }
            }
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (src, time, id) = self.front()?;
            if !self.cancelled.get(id) {
                return Some(time);
            }
            self.take_front(src);
            self.cancelled.clear(id);
            self.dead -= 1;
        }
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// Ordered-map pending-event set with eager cancellation.
///
/// Keys are `(time-bits, id)`: `SimTime` is non-NaN and non-negative in
/// practice, so the IEEE-754 bit pattern of the time orders correctly and
/// gives a fully `Ord` key. Cancellation removes the entry outright —
/// no tombstones, so memory is exactly proportional to live events.
pub struct BTreeQueue<E> {
    map: BTreeMap<(u64, u64), (SimTime, E)>,
    /// id → key, so `cancel` can find the entry.
    // dgsched-analyze: allow(unordered-iter) -- id→key lookup table probed by event id; iteration order can't reach results (pop order comes from the BTreeMap)
    index: std::collections::HashMap<u64, (u64, u64)>,
    next_id: u64,
}

impl<E> Default for BTreeQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BTreeQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BTreeQueue {
            map: BTreeMap::new(),
            // dgsched-analyze: allow(unordered-iter) -- constructor for the lookup table annotated above
            index: std::collections::HashMap::new(),
            next_id: 0,
        }
    }

    #[inline]
    fn time_key(t: SimTime) -> u64 {
        let secs = t.as_secs();
        debug_assert!(
            secs >= 0.0,
            "BTreeQueue requires non-negative times (got {secs})"
        );
        secs.to_bits()
    }
}

impl<E> PendingEvents<E> for BTreeQueue<E> {
    fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let key = (Self::time_key(time), id.0);
        self.map.insert(key, (time, payload));
        self.index.insert(id.0, key);
        id
    }

    fn cancel(&mut self, id: EventId) -> bool {
        match self.index.remove(&id.0) {
            Some(key) => {
                let removed = self.map.remove(&key);
                debug_assert!(removed.is_some(), "index out of sync");
                true
            }
            None => false,
        }
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        let (key, (time, payload)) = self.map.pop_first()?;
        self.index.remove(&key.1);
        Some((time, EventId(key.1), payload))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.map.first_key_value().map(|(_, (t, _))| *t)
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<Q: PendingEvents<u32>>(mut q: Q) {
        assert!(q.is_empty());
        let a = q.schedule(SimTime::new(5.0), 5);
        let _b = q.schedule(SimTime::new(1.0), 1);
        let c = q.schedule(SimTime::new(3.0), 3);
        assert_eq!(q.len(), 3);
        assert!(q.cancel(c));
        assert!(!q.cancel(c), "double cancel must be a no-op");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.pop().map(|(t, _, p)| (t.as_secs(), p)), Some((1.0, 1)));
        assert_eq!(q.pop().map(|(t, _, p)| (t.as_secs(), p)), Some((5.0, 5)));
        assert!(!q.cancel(a), "cancelling a fired event must return false");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn heap_contract() {
        exercise(BinaryHeapQueue::new());
    }

    #[test]
    fn btree_contract() {
        exercise(BTreeQueue::new());
    }

    #[test]
    fn btree_fifo_ties() {
        fifo_ties(BTreeQueue::new());
    }

    #[test]
    fn btree_cancel_is_eager() {
        let mut q = BTreeQueue::new();
        let ids: Vec<_> = (0..100)
            .map(|i| q.schedule(SimTime::new(i as f64), i))
            .collect();
        for id in &ids[..50] {
            assert!(q.cancel(*id));
        }
        assert_eq!(q.len(), 50);
        // Internals hold exactly the live events (no tombstones).
        assert_eq!(q.map.len(), 50);
        assert_eq!(q.index.len(), 50);
        assert_eq!(q.pop().unwrap().2, 50);
    }

    fn fifo_ties<Q: PendingEvents<u32>>(mut q: Q) {
        for i in 0..10 {
            q.schedule(SimTime::new(7.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn heap_fifo_ties() {
        fifo_ties(BinaryHeapQueue::new());
    }

    #[test]
    fn heap_interleaved_schedule_pop() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(SimTime::new(10.0), 10);
        assert_eq!(q.pop().unwrap().2, 10);
        q.schedule(SimTime::new(2.0), 2);
        q.schedule(SimTime::new(1.0), 1);
        assert_eq!(q.pop().unwrap().2, 1);
        q.schedule(SimTime::new(0.5), 0);
        assert_eq!(q.pop().unwrap().2, 0);
        assert_eq!(q.pop().unwrap().2, 2);
    }

    #[test]
    fn cancel_none_sentinel_is_noop() {
        let mut q = BinaryHeapQueue::<u32>::new();
        assert!(!q.cancel(EventId::NONE));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = BinaryHeapQueue::new();
        let head = q.schedule(SimTime::new(1.0), 1);
        q.schedule(SimTime::new(2.0), 2);
        q.cancel(head);
        assert_eq!(q.peek_time(), Some(SimTime::new(2.0)));
    }

    #[test]
    fn heap_coalesced_batches_interleave_with_singletons() {
        let mut q = BinaryHeapQueue::new();
        // Two same-time runs separated by other times: the first run is
        // pushed to the heap as a batch, the second stays in the tail.
        for i in 0..5 {
            q.schedule(SimTime::new(3.0), i);
        }
        q.schedule(SimTime::new(1.0), 100);
        for i in 5..10 {
            q.schedule(SimTime::new(3.0), i);
        }
        q.schedule(SimTime::new(2.0), 200);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![100, 200, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn heap_cancel_inside_batch() {
        let mut q = BinaryHeapQueue::new();
        let ids: Vec<_> = (0..6).map(|i| q.schedule(SimTime::new(4.0), i)).collect();
        q.schedule(SimTime::new(9.0), 99);
        assert!(q.cancel(ids[0]));
        assert!(q.cancel(ids[3]));
        assert!(q.cancel(ids[5]));
        assert_eq!(q.peek_time(), Some(SimTime::new(4.0)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 4, 99]);
    }

    #[test]
    fn heap_compaction_preserves_order_and_counts() {
        let mut q = BinaryHeapQueue::new();
        let mut live = Vec::new();
        let mut dead = Vec::new();
        for i in 0..1000u32 {
            // Clustered times force ties; cancel ~90% to trip compaction.
            let id = q.schedule(SimTime::new((i % 17) as f64), i);
            if i % 10 == 0 {
                live.push((i % 17, i));
            } else {
                dead.push(id);
            }
        }
        for id in dead {
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), live.len());
        live.sort(); // (time, insertion order) — ids ascend with i
        let order: Vec<(u32, u32)> =
            std::iter::from_fn(|| q.pop().map(|(t, _, p)| (t.as_secs() as u32, p))).collect();
        assert_eq!(order, live);
        assert!(q.is_empty());
    }

    /// Randomised cross-check: the heap queue must agree with the eager
    /// BTree reference under interleaved schedule/cancel/pop/peek.
    #[test]
    fn heap_matches_btree_reference() {
        let mut heap = BinaryHeapQueue::new();
        let mut btree = BTreeQueue::new();
        let mut ids = Vec::new();
        // xorshift64: deterministic, no external RNG needed.
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for step in 0..20_000u32 {
            match rnd() % 10 {
                0..=4 => {
                    // Coarse times produce frequent ties (coalescing paths).
                    let t = SimTime::new((rnd() % 64) as f64);
                    let a = heap.schedule(t, step);
                    let b = btree.schedule(t, step);
                    assert_eq!(a, b, "id streams must align");
                    ids.push(a);
                }
                5..=7 => {
                    if !ids.is_empty() {
                        let id = ids[(rnd() as usize) % ids.len()];
                        assert_eq!(heap.cancel(id), btree.cancel(id));
                    }
                }
                8 => {
                    assert_eq!(heap.peek_time(), btree.peek_time());
                }
                _ => {
                    assert_eq!(heap.pop(), btree.pop());
                }
            }
            assert_eq!(heap.len(), btree.len());
        }
        loop {
            let (a, b) = (heap.pop(), btree.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
