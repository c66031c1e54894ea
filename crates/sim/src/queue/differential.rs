//! Differential tests of the tick-bucket pending set: [`EventQueue`]
//! against a reference binary heap of `(time, seq)` keys, the sharded
//! queue's push-below-base path, and the node slab's memory bound.

use super::buckets::RING;
use super::*;
use crate::rng::SimRng;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// A delay at one of the ring's edges: zero, inside the ring, its last
/// tick, the first ticks past it, a few rings ahead, or beyond 2⁴⁰ ticks.
fn edge_delay(rng: &mut SimRng) -> Duration {
    let ticks = match rng.below(8) {
        0 => 0,
        1 | 2 => 1 + rng.below(RING - 2),
        3 => RING - 1,
        4 => RING,
        5 => RING + 1,
        6 => rng.below(4 * RING),
        _ => (1 << 40) + rng.below(1 << 20),
    };
    Duration::from_ticks(ticks)
}

/// The reference pending set: a binary heap of `(time, seq)` keys whose
/// delivered or cancelled sequence numbers are skipped when they surface.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(Time, u64)>>,
    done: HashSet<u64>,
}

impl Reference {
    fn front(&mut self) -> Option<(Time, u64)> {
        while let Some(&Reverse(key)) = self.heap.peek() {
            if !self.done.contains(&key.1) {
                return Some(key);
            }
            self.heap.pop();
        }
        None
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        let key = self.front()?;
        self.heap.pop();
        self.done.insert(key.1);
        Some(key)
    }
}

/// Runs `ops` random schedule/cancel/pop/peek steps through an
/// [`EventQueue`] and the reference, asserting they agree at every step.
/// The payload of each event is its sequence number.
fn check_against_reference(seed: u64, ops: usize) {
    let mut rng = SimRng::seed(seed);
    let mut q = EventQueue::new();
    let mut reference = Reference::default();
    let mut ids: Vec<(EventId, u64)> = Vec::new();
    for step in 0..ops {
        match rng.below(10) {
            0..=3 => {
                let at = q.now() + edge_delay(&mut rng);
                let seq = ids.len() as u64;
                ids.push((q.schedule(at, seq), seq));
                reference.heap.push(Reverse((at, seq)));
            }
            4 => {
                if !ids.is_empty() {
                    let (id, seq) = ids[rng.below(ids.len() as u64) as usize];
                    let expect = reference.done.insert(seq);
                    assert_eq!(q.cancel(id), expect, "seed {seed} step {step}: cancel");
                }
            }
            5..=7 => assert_eq!(q.pop(), reference.pop(), "seed {seed} step {step}: pop"),
            _ => assert_eq!(
                q.peek_time(),
                reference.front().map(|(at, _)| at),
                "seed {seed} step {step}: peek"
            ),
        }
    }
    let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    let expect: Vec<_> = std::iter::from_fn(|| reference.pop()).collect();
    assert_eq!(rest, expect, "seed {seed}: drain");
}

/// Runs `ops` random steps through a `k`-shard queue and the sequential
/// queue. Peeks make the
/// coordinator peek every shard, moving each shard's ring base to its
/// earliest entry, so later cross-shard pushes land below those bases.
fn check_sharded_against_sequential(seed: u64, k: usize, ops: usize) {
    let mut rng = SimRng::seed(seed);
    let window = Duration::from_ticks(1 + rng.below(2 * RING));
    let mut single = EventQueue::new();
    let mut sharded = ShardedEventQueue::new(k, window);
    let mut ids: Vec<(EventId, EventId)> = Vec::new();
    for step in 0..ops {
        match rng.below(10) {
            0..=3 => {
                let at = single.now() + edge_delay(&mut rng);
                let shard = rng.below(k as u64) as usize;
                let payload = ids.len() as u64;
                ids.push((
                    single.schedule(at, payload),
                    sharded.schedule(shard, at, payload),
                ));
            }
            4 => {
                if !ids.is_empty() {
                    let (a, b) = ids[rng.below(ids.len() as u64) as usize];
                    assert_eq!(
                        single.cancel(a),
                        sharded.cancel(b),
                        "seed {seed} step {step}"
                    );
                }
            }
            5..=7 => assert_eq!(single.pop(), sharded.pop(), "seed {seed} step {step}: pop"),
            _ => assert_eq!(
                single.peek_time(),
                sharded.peek_time(),
                "seed {seed} step {step}: peek"
            ),
        }
    }
    let rest: Vec<_> = std::iter::from_fn(|| single.pop()).collect();
    let got: Vec<_> = std::iter::from_fn(|| sharded.pop()).collect();
    assert_eq!(rest, got, "seed {seed} k={k}: drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tick-bucket queue pops, peeks and cancels exactly like a
    /// binary heap ordered by `(time, seq)`.
    #[test]
    fn event_queue_matches_a_reference_heap(seed in 0u64..u64::MAX) {
        check_against_reference(seed, 3000);
    }

    /// Sharded queues keep the sequential order when cross-shard pushes
    /// land below a peeked shard's ring base.
    #[test]
    fn sharded_queue_matches_sequential_with_peeks(seed in 0u64..u64::MAX, k in 2usize..6) {
        check_sharded_against_sequential(seed, k, 2000);
    }
}

/// The coordinator's settle peeks shard 1, moving its base to tick 30; a
/// cross-shard event at tick 5 then lands below that base, waits in the
/// overflow heap, and still pops before the ring's entries.
#[test]
fn cross_shard_push_below_a_peeked_base_keeps_the_order() {
    let mut q = ShardedEventQueue::new(2, Duration::from_ticks(40));
    q.schedule(0, Time::ZERO, 'a');
    q.schedule(1, Time::from_ticks(30), 'c');
    q.schedule(1, Time::from_ticks(80), 'd');
    assert_eq!(q.pop(), Some((Time::ZERO, 'a')));
    assert_eq!(q.shards[1].pending.base(), 30, "settle peeked shard 1");
    // Cross-shard from shard 0, inside the window: pushed directly.
    q.schedule(1, Time::from_ticks(5), 'b');
    assert_eq!(q.stats().lookahead_misses, 1);
    assert_eq!(q.shards[1].pending.base(), 30, "the base stays put");
    assert_eq!(q.shards[1].pending.far_len(), 1, "tick 5 waits in the heap");
    let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, vec!['b', 'c', 'd']);
}

/// The sequential queue gets below its base too: a peek moves the base
/// past the clock, and scheduling at `now` is still allowed.
#[test]
fn schedule_at_now_after_a_peek_keeps_the_order() {
    let mut q = EventQueue::new();
    q.schedule(Time::from_ticks(1), 1);
    q.schedule(Time::from_ticks(50), 3);
    q.schedule(Time::from_ticks(70), 4);
    assert_eq!(q.pop(), Some((Time::from_ticks(1), 1)));
    assert_eq!(q.peek_time(), Some(Time::from_ticks(50)));
    q.schedule(q.now(), 2);
    let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, vec![2, 3, 4]);
}

/// Once the ring empties, a pop from the overflow heap restarts the ring
/// at the clock, so the events scheduled after a long jump land in the
/// ring again instead of all going through the heap.
#[test]
fn a_pop_from_the_heap_restarts_an_empty_ring_at_the_clock() {
    let mut q = EventQueue::new();
    q.schedule(Time::from_ticks(1000), 0);
    assert_eq!(q.pending.far_len(), 1, "tick 1000 is past the ring");
    assert_eq!(q.pop(), Some((Time::from_ticks(1000), 0)));
    q.schedule_after(Duration::from_ticks(RING - 1), 1);
    assert_eq!(q.pending.far_len(), 0, "the ring restarted at tick 1000");
    assert_eq!(q.pop(), Some((Time::from_ticks(1000 + RING - 1), 1)));
}

/// The memory regression per-bucket storage would bring back: a burst
/// that moves through many distinct ticks (a flood's wavefront) must not
/// leave every bucket holding the burst's capacity. One shared slab keeps
/// its capacity within twice the peak pending count.
#[test]
fn slab_capacity_stays_within_twice_the_peak_pending_count() {
    const BURST: u64 = 3000;
    let mut q = EventQueue::new();
    for i in 0..BURST {
        q.schedule(Time::from_ticks(i % 3), i);
    }
    let mut peak = q.pending_upper_bound();
    while let Some((at, i)) = q.pop() {
        if at.ticks() < 4 * RING {
            q.schedule(at + Duration::from_ticks(1 + i % 32), i);
            peak = peak.max(q.pending_upper_bound());
        }
    }
    assert!(
        q.pending.node_capacity() <= 2 * peak,
        "slab capacity {} for a peak of {peak} pending entries",
        q.pending.node_capacity()
    );
}
