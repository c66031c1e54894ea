//! The pending set behind [`EventQueue`](super::EventQueue): a ring of
//! per-tick FIFO buckets with an overflow heap for the other times — a
//! calendar queue (Brown, CACM 1988) whose "days" are single ticks.
//!
//! The ring covers the [`RING`] consecutive ticks `[base, base + RING)`;
//! bucket `t mod RING` holds every ring entry at tick `t`, in sequence
//! order. A push whose tick the ring does not cover — past its end, or
//! below its base — goes to the overflow heap, ordered by `(time, seq)`,
//! and stays there until it is popped. Peek and pop compare the ring's
//! front with the heap's head by `(time, seq)`, so no entry ever moves
//! between the two. Finding the ring's front is a rotate and a
//! trailing-zero count on the occupancy word; popping it unlinks a list
//! head. The base moves forward to the ring's front whenever that is
//! looked up, and restarts at the popped tick when a pop from the heap
//! finds the ring empty.
//!
//! Every bucket is a singly linked list threaded through **one** shared
//! node slab with a free list, so the ring's storage is proportional to
//! its peak entry count, however many distinct ticks the entries are
//! spread over.

use super::Entry;
use crate::time::Time;
use std::collections::BinaryHeap;

/// Ticks the ring covers: a power of two, one bit of the occupancy word
/// per bucket. The largest delay of the default MAC configurations is
/// `F_ack = 64` ticks, and the base stays at the clock while the ring is
/// in use, so an ack at `now + 64` still lands in the ring. Larger delays
/// (the FMMB crossover sweep's `F_ack` up to 16384) wait in the overflow
/// heap, which costs what the plain binary heap did.
pub(super) const RING: u64 = 128;
const MASK: u64 = RING - 1;

/// End-of-list and empty-free-list marker for node indices.
const NIL: u32 = u32::MAX;

struct Node<E> {
    at: Time,
    seq: u64,
    slot: u32,
    generation: u32,
    /// Next node of the same bucket, or of the free list.
    next: u32,
    /// `None` exactly while the node is on the free list.
    event: Option<E>,
}

/// First and last node of one tick's list.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// Key and slot stamp of the earliest pending entry.
#[derive(Clone, Copy)]
pub(super) struct Head {
    pub(super) at: Time,
    pub(super) seq: u64,
    pub(super) slot: u32,
    pub(super) generation: u32,
}

/// A `(time, seq)`-ordered multiset of queue entries (see the module
/// docs). It knows nothing of cancellation: stale entries are ordinary
/// entries until [`EventQueue`](super::EventQueue) pops or retains them
/// away.
pub(super) struct TickBuckets<E> {
    nodes: Vec<Node<E>>,
    /// Head of the free list through `Node::next`.
    free: u32,
    /// Entries held, in the ring and the overflow heap together.
    len: usize,
    /// First tick the ring covers.
    base: u64,
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u128,
    /// Per bucket: first and last node. Boxed, so a queue stays a few
    /// words wide.
    buckets: Box<[Bucket; RING as usize]>,
    /// Entries whose tick the ring did not cover when they were pushed.
    far: BinaryHeap<Entry<E>>,
}

impl<E> TickBuckets<E> {
    pub(super) fn new() -> Self {
        TickBuckets {
            nodes: Vec::new(),
            free: NIL,
            len: 0,
            base: 0,
            occupied: 0,
            buckets: Box::new(
                [Bucket {
                    head: NIL,
                    tail: NIL,
                }; RING as usize],
            ),
            far: BinaryHeap::new(),
        }
    }

    /// Number of entries held.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Inserts an entry. Its `seq` must be unique among the entries held.
    #[inline]
    pub(super) fn push(&mut self, entry: Entry<E>) {
        self.len += 1;
        // Below the base, the difference wraps past `RING`.
        if entry.at.ticks().wrapping_sub(self.base) < RING {
            self.link(entry);
        } else {
            self.far.push(entry);
        }
    }

    /// The earliest entry's key, without removing it.
    pub(super) fn peek(&mut self) -> Option<Head> {
        let far = self.far.peek().map(|e| Head {
            at: e.at,
            seq: e.seq,
            slot: e.slot,
            generation: e.generation,
        });
        if self.occupied == 0 {
            return far;
        }
        let b = self.front_bucket();
        let n = &self.nodes[self.buckets[b].head as usize];
        match far {
            Some(f) if (f.at, f.seq) < (n.at, n.seq) => Some(f),
            _ => Some(Head {
                at: n.at,
                seq: n.seq,
                slot: n.slot,
                generation: n.generation,
            }),
        }
    }

    /// Removes and returns the earliest entry.
    pub(super) fn pop(&mut self) -> Option<Entry<E>> {
        let entry = if self.occupied == 0 {
            // Every entry is in the overflow heap: take its head and
            // restart the ring at its tick, where the clock now is.
            let entry = self.far.pop()?;
            self.base = entry.at.ticks();
            entry
        } else {
            let b = self.front_bucket();
            let i = self.buckets[b].head;
            let n = &self.nodes[i as usize];
            if self
                .far
                .peek()
                .is_some_and(|f| (f.at, f.seq) < (n.at, n.seq))
            {
                self.far.pop().expect("peeked entry exists")
            } else {
                let next = n.next;
                if next == NIL {
                    self.occupied &= !(1 << b);
                } else {
                    self.buckets[b].head = next;
                }
                self.release(i)
            }
        };
        self.len -= 1;
        Some(entry)
    }

    /// Drops every entry whose `(slot, generation)` stamp fails `keep`,
    /// in one pass over the ring and the overflow heap.
    pub(super) fn retain(&mut self, mut keep: impl FnMut(u32, u32) -> bool) {
        let mut bits = self.occupied;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let mut i = self.buckets[b].head;
            let mut last = NIL;
            while i != NIL {
                let n = &self.nodes[i as usize];
                let next = n.next;
                if keep(n.slot, n.generation) {
                    if last == NIL {
                        self.buckets[b].head = i;
                    } else {
                        self.nodes[last as usize].next = i;
                    }
                    last = i;
                } else {
                    self.release(i);
                    self.len -= 1;
                }
                i = next;
            }
            if last == NIL {
                self.occupied &= !(1 << b);
            } else {
                self.nodes[last as usize].next = NIL;
                self.buckets[b].tail = last;
            }
        }
        let far_len = self.far.len();
        self.far.retain(|e| keep(e.slot, e.generation));
        self.len -= far_len - self.far.len();
    }

    /// Returns node `i` to the free list, handing back its entry.
    fn release(&mut self, i: u32) -> Entry<E> {
        let n = &mut self.nodes[i as usize];
        let event = n.event.take().expect("a linked node holds an event");
        n.next = self.free;
        self.free = i;
        Entry {
            at: n.at,
            seq: n.seq,
            slot: n.slot,
            generation: n.generation,
            event,
        }
    }

    /// Links `entry`, whose tick the ring covers, into its bucket. Within
    /// a tick, scheduling order is sequence order, so this is an append
    /// except when a sharded barrier merges an older sequence number into
    /// a bucket that already holds newer ones.
    fn link(&mut self, entry: Entry<E>) {
        let Entry {
            at,
            seq,
            slot,
            generation,
            event,
        } = entry;
        let node = Node {
            at,
            seq,
            slot,
            generation,
            next: NIL,
            event: Some(event),
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("more than u32::MAX - 1 entries in the tick ring");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        let b = (at.ticks() & MASK) as usize;
        if self.occupied & (1 << b) == 0 {
            self.occupied |= 1 << b;
            self.buckets[b].head = i;
            self.buckets[b].tail = i;
            return;
        }
        let tail = self.buckets[b].tail;
        if self.nodes[tail as usize].seq < seq {
            self.nodes[tail as usize].next = i;
            self.buckets[b].tail = i;
        } else {
            self.insert_ordered(b, i, seq);
        }
    }

    /// Links node `i` into non-empty bucket `b` before the first node with
    /// a larger sequence number (one exists: the bucket's tail).
    #[cold]
    fn insert_ordered(&mut self, b: usize, i: u32, seq: u64) {
        let mut prev = NIL;
        let mut cur = self.buckets[b].head;
        while self.nodes[cur as usize].seq < seq {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        self.nodes[i as usize].next = cur;
        if prev == NIL {
            self.buckets[b].head = i;
        } else {
            self.nodes[prev as usize].next = i;
        }
    }

    /// The bucket holding the ring's earliest entry, after moving the
    /// base up to that entry's tick. The ring must not be empty.
    fn front_bucket(&mut self) -> usize {
        let skip = self
            .occupied
            .rotate_right((self.base & MASK) as u32)
            .trailing_zeros();
        self.base += u64::from(skip);
        (self.base & MASK) as usize
    }

    /// Allocated node capacity (tests only: the memory bound).
    #[cfg(test)]
    pub(super) fn node_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// First tick the ring covers (tests only).
    #[cfg(test)]
    pub(super) fn base(&self) -> u64 {
        self.base
    }

    /// Entries waiting in the overflow heap (tests only).
    #[cfg(test)]
    pub(super) fn far_len(&self) -> usize {
        self.far.len()
    }
}
