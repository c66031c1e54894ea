//! A deterministic pending-event queue.
//!
//! Events at equal times are delivered in scheduling order (FIFO by a
//! monotone sequence number), which makes every simulation reproducible and
//! lets us model the paper's zero-delay automaton steps: a chain of events
//! scheduled "now" executes in a well-defined order without time passing.
//!
//! ## Pending set: tick buckets plus an overflow heap
//!
//! Simulated time is integer ticks, and nearly every event lands a few
//! ticks ahead of the clock (at most `F_ack` for deliveries and acks, a
//! round of a few ticks for protocol timers). The pending entries therefore
//! live in a ring of per-tick FIFO buckets covering the next 128 ticks,
//! with a binary heap for the times the ring does not cover — a calendar
//! queue (Brown, CACM 1988), see `queue/buckets.rs`. Schedule and pop are
//! O(1) for in-ring times; an entry outside the ring stays in the heap
//! until it is popped, so it costs what it did in a plain binary heap.
//!
//! The pop order is exactly `(time, seq)`: peek and pop take the smaller
//! of the ring's front and the heap's head, and within one tick the order
//! in which entries are appended to a bucket *is* sequence order, because
//! the sequence counter grows with every `schedule` call. The one
//! exception — a sharded barrier merging an older sequence number into a
//! bucket that already holds newer ones — takes an ordered insert instead
//! of an append.
//!
//! ## Cancellation: slot-generation ids
//!
//! Cancellation is O(1) and allocation-free: every scheduled event occupies
//! a *slot* (an index into a dense `Vec`) stamped with a *generation*
//! counter, and its [`EventId`] is the `(slot, generation)` pair. Cancelling
//! or delivering an event bumps the slot's generation, which atomically
//! invalidates the id and recycles the slot for the next `schedule` — no
//! hash-set tombstones, no per-event hashing on the hot path. Pending
//! entries whose generation no longer matches their slot are skipped (and
//! reclaimed) when they reach the front; when cancelled entries ever
//! outnumber live ones the pending set is compacted in place, so queue
//! memory stays proportional to the number of *live* events even across
//! millions of schedule/cancel cycles.

mod buckets;

use crate::time::{Duration, Time};
use buckets::TickBuckets;
use std::cmp::Ordering;
use std::fmt;

/// Handle to a scheduled event, usable with [`EventQueue::cancel`].
///
/// Internally a `(slot, generation)` pair: the slot is recycled after the
/// event is delivered or cancelled, and the generation stamp keeps stale
/// handles from ever matching a recycled slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

struct Entry<E> {
    at: Time,
    seq: u64,
    slot: u32,
    generation: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Minimum pending-set size before compaction is considered (avoids churn
/// on tiny queues where the stale entries are cheaper than a rebuild).
const COMPACT_MIN: usize = 64;

/// A time-ordered queue of simulation events with stable FIFO tie-breaking
/// and O(1) slot-generation cancellation (see the crate docs).
///
/// # Examples
///
/// ```
/// use amac_sim::{Duration, EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_ticks(5), "later");
/// q.schedule(Time::from_ticks(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.ticks(), e), (1, "sooner"));
/// assert_eq!(q.now(), Time::from_ticks(1));
/// ```
pub struct EventQueue<E> {
    pending: TickBuckets<E>,
    /// Current generation per slot. A pending entry is live iff its
    /// stamped generation equals its slot's current generation.
    generations: Vec<u32>,
    /// Recycled slot indices available for the next `schedule`.
    free: Vec<u32>,
    /// Pending entries that are cancelled but not yet reclaimed.
    stale: usize,
    next_seq: u64,
    now: Time,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            pending: TickBuckets::new(),
            generations: Vec::new(),
            free: Vec::new(),
            stale: 0,
            next_seq: 0,
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event
    /// (or [`Time::ZERO`] initially). Monotonically non-decreasing.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`); scheduling *at*
    /// the current instant is allowed and models a zero-delay step.
    pub fn schedule(&mut self, at: Time, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule at {at:?}, current time is {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = self.alloc_slot();
        self.push_entry(at, seq, id, event);
        id
    }

    /// Reserves a slot (stamped with its current generation) without
    /// pushing a pending entry — the caller owns delivering the entry later
    /// via [`push_entry`](EventQueue::push_entry). Used by the sharded
    /// queue's outboxes, where the id must exist (for cancellation) before
    /// the event is merged into the shard at the next barrier.
    fn alloc_slot(&mut self) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.generations.len())
                    .expect("more than u32::MAX concurrently scheduled events");
                self.generations.push(0);
                slot
            }
        };
        EventId {
            slot,
            generation: self.generations[slot as usize],
        }
    }

    /// Pushes a fully specified pending entry for a slot reserved with
    /// [`alloc_slot`](EventQueue::alloc_slot). The `(at, seq)` pair is the
    /// caller's: the sharded queue assigns sequence numbers from a single
    /// shared counter so the merged order equals the sequential one.
    fn push_entry(&mut self, at: Time, seq: u64, id: EventId, event: E) {
        self.pending.push(Entry {
            at,
            seq,
            slot: id.slot,
            generation: id.generation,
            event,
        });
    }

    /// Schedules `event` after a relative delay from now.
    pub fn schedule_after(&mut self, delay: Duration, event: E) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event had
    /// not yet been delivered or cancelled; cancelling an already-delivered
    /// (or unknown, or already-cancelled) id is a no-op returning `false`.
    /// `O(1)` amortized; the cancelled pending entry is reclaimed when it
    /// reaches the front, or by compaction when stale entries ever
    /// outnumber live ones.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self
            .generations
            .get(id.slot as usize)
            .is_some_and(|&g| g == id.generation)
        {
            self.retire(id.slot);
            self.stale += 1;
            self.maybe_compact();
            true
        } else {
            false
        }
    }

    /// Bumps a slot's generation (invalidating every outstanding id and
    /// pending entry stamped with it) and recycles it.
    fn retire(&mut self, slot: u32) {
        self.generations[slot as usize] = self.generations[slot as usize].wrapping_add(1);
        self.free.push(slot);
    }

    /// Drops the stale entries from the pending set once they outnumber
    /// the live ones. Amortized O(1) per cancel: a pass costing O(pending)
    /// only runs after at least pending/2 cancellations.
    fn maybe_compact(&mut self) {
        let len = self.pending.len();
        if len < COMPACT_MIN || self.stale * 2 < len {
            return;
        }
        let generations = &self.generations;
        self.pending
            .retain(|slot, generation| generations[slot as usize] == generation);
        self.stale = 0;
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Ties are broken by scheduling order.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        while let Some(entry) = self.pending.pop() {
            if self.generations[entry.slot as usize] != entry.generation {
                self.stale = self.stale.saturating_sub(1);
                continue; // cancelled: skip and reclaim
            }
            self.retire(entry.slot);
            self.now = entry.at;
            self.popped += 1;
            return Some((entry.at, entry.event));
        }
        None
    }

    /// Timestamp of the next pending event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.peek_key().map(|(at, _)| at)
    }

    /// `(time, sequence)` key of the next pending event without removing
    /// it — the total order the sharded queue's K-way merge selects on.
    fn peek_key(&mut self) -> Option<(Time, u64)> {
        while let Some(entry) = self.pending.peek() {
            if self.generations[entry.slot as usize] != entry.generation {
                self.pending.pop();
                self.stale = self.stale.saturating_sub(1);
                continue;
            }
            return Some((entry.at, entry.seq));
        }
        None
    }

    /// Returns `true` if no deliverable events remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Number of pending entries, **including** not-yet-reclaimed
    /// cancellations (an upper bound on deliverable events).
    pub fn pending_upper_bound(&self) -> usize {
        self.pending.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("delivered", &self.popped)
            .finish()
    }
}

/// Shard index bits in a sharded [`EventId`]'s slot word: the top
/// [`SHARD_BITS`] identify the shard, the low bits the slot within it.
const SHARD_BITS: u32 = 8;
const SHARD_SHIFT: u32 = 32 - SHARD_BITS;
const LOCAL_SLOT_MASK: u32 = (1 << SHARD_SHIFT) - 1;

/// Maximum shard count a [`ShardedEventQueue`] supports (the shard index
/// must fit in the top `SHARD_BITS` bits of an [`EventId`] slot).
pub const MAX_SHARDS: usize = 1 << SHARD_BITS;

/// One cross-shard event parked until the next window barrier: it already
/// owns its global sequence number and a reserved slot in the destination
/// shard (so cancellation works while parked), but its pending entry is only
/// merged at the barrier.
struct Outboxed<E> {
    dest: u32,
    at: Time,
    seq: u64,
    id: EventId,
    event: E,
}

/// Wall-clock lanes of a thread-per-shard drain worker. The queue has no
/// such drain, so no [`ShardProfile`] ever holds one: the type is kept
/// only because the `perfbench` traced engine lane still reads
/// [`ShardProfile::workers`], and it goes when that lane does.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerLane {
    /// Nanoseconds doing useful work inside barrier scopes.
    pub busy_nanos: u64,
    /// Nanoseconds blocked on a barrier rendezvous.
    pub barrier_wait_nanos: u64,
    /// Nanoseconds between barrier scopes.
    pub idle_nanos: u64,
}

/// Synchronization statistics of a [`ShardedEventQueue`], all in simulated
/// ticks and event counts — fully deterministic, byte-identical across
/// machines (no wall clock).
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Conservative lookahead window width, in ticks.
    pub window_ticks: u64,
    /// Window barriers crossed (outbox flushes).
    pub barriers: u64,
    /// Cross-shard events scheduled at or beyond the next barrier —
    /// batched in an outbox and merged at the barrier in canonical
    /// `(tick, shard, sequence)` order.
    pub outboxed: u64,
    /// Cross-shard events scheduled *inside* the current window — the
    /// conservative lookahead `min(F_prog, F_ack)` cannot defer these, so
    /// the coordinator routes them immediately. The counter quantifies how
    /// conservative the windowing is for a workload.
    pub lookahead_misses: u64,
    /// Per shard: peak pending events (queued entries plus parked outbox
    /// entries destined for the shard).
    pub peak_pending: Vec<usize>,
    /// Per shard: accumulated idle ticks at window barriers — for each
    /// barrier, how long before the window's end the shard ran out of its
    /// own events (the simulated-time analogue of barrier-wait).
    pub barrier_slack_ticks: Vec<u64>,
}

impl ShardStats {
    /// Largest per-shard peak pending count.
    pub fn max_peak_pending(&self) -> usize {
        self.peak_pending.iter().copied().max().unwrap_or(0)
    }

    /// Total barrier-slack ticks summed over all shards.
    pub fn total_slack_ticks(&self) -> u64 {
        self.barrier_slack_ticks.iter().sum()
    }

    /// Folds another run's statistics into this one — used by the bench
    /// engine to aggregate per-trial stats across a sweep. Counters sum,
    /// peaks take the elementwise maximum, and the configuration fields
    /// (`shards`, `window_ticks`) take the maximum so a default-initialised
    /// accumulator is the identity. Commutative and associative, so the
    /// fold result is independent of trial scheduling.
    pub fn merge(&mut self, other: &ShardStats) {
        self.shards = self.shards.max(other.shards);
        self.window_ticks = self.window_ticks.max(other.window_ticks);
        self.barriers += other.barriers;
        self.outboxed += other.outboxed;
        self.lookahead_misses += other.lookahead_misses;
        if self.peak_pending.len() < other.peak_pending.len() {
            self.peak_pending.resize(other.peak_pending.len(), 0);
        }
        for (mine, theirs) in self.peak_pending.iter_mut().zip(&other.peak_pending) {
            *mine = (*mine).max(*theirs);
        }
        if self.barrier_slack_ticks.len() < other.barrier_slack_ticks.len() {
            self.barrier_slack_ticks
                .resize(other.barrier_slack_ticks.len(), 0);
        }
        for (mine, theirs) in self
            .barrier_slack_ticks
            .iter_mut()
            .zip(&other.barrier_slack_ticks)
        {
            *mine += *theirs;
        }
    }
}

/// Wall-clock self-profiling of a [`ShardedEventQueue`], captured only
/// when [`enable_profiling`](ShardedEventQueue::enable_profiling) was
/// called.
///
/// **Nondeterministic side channel.** Everything here is measured with
/// [`std::time::Instant`] and varies run to run and machine to machine —
/// it must never feed back into execution or into any deterministic
/// output surface (the metrics layer emits it under a clearly-labelled
/// `"nondeterministic"` member; see `docs/OBSERVABILITY.md`).
#[derive(Clone, Debug, Default)]
pub struct ShardProfile {
    /// Wall-clock nanoseconds spent *between* pops inside windows — the
    /// caller's event-processing time.
    pub drain_nanos: u64,
    /// Wall-clock nanoseconds spent in barrier slack accounting.
    pub barrier_nanos: u64,
    /// Wall-clock nanoseconds spent sorting and flushing the cross-shard
    /// outbox at barriers (the K-way merge phase).
    pub merge_nanos: u64,
    /// Per shard: drain nanoseconds attributed to events popped from the
    /// shard. `busy_nanos[s] / drain_nanos` is the shard's busy fraction.
    pub busy_nanos: Vec<u64>,
    /// Always empty: the queue drains every shard on the calling thread.
    /// Kept only because the `perfbench` traced engine lane still reads
    /// it; it goes when that lane does.
    pub workers: Vec<WorkerLane>,
    /// Decimated [`ShardStats`] time series sampled at window barriers
    /// (at most [`ShardProfile::MAX_SAMPLES`] entries; the sampling
    /// stride doubles when full).
    pub samples: Vec<ShardSample>,
}

impl ShardProfile {
    /// Upper bound on the length of [`samples`](ShardProfile::samples).
    pub const MAX_SAMPLES: usize = 64;

    /// Total profiled wall-clock nanoseconds across all three phases.
    pub fn total_nanos(&self) -> u64 {
        self.drain_nanos + self.barrier_nanos + self.merge_nanos
    }
}

/// One sample of the sharded queue's state, taken at a window barrier.
/// The sampled values are simulated-time quantities (deterministic); the
/// *existence* of the sample rides in the profiling side channel.
#[derive(Clone, Copy, Debug)]
pub struct ShardSample {
    /// Simulated tick of the barrier (the closing window's end).
    pub at_ticks: u64,
    /// Barriers crossed so far, this one included.
    pub barriers: u64,
    /// Pending events across all shards just after the outbox flush.
    pub pending: usize,
    /// Cross-shard events outboxed so far.
    pub outboxed: u64,
}

/// Internal wall-clock profiling state, boxed so the default
/// (profiling off) costs one pointer and one branch per pop.
struct ProfileState {
    profile: ShardProfile,
    /// Instant the last pop returned, plus the popped event's shard: the
    /// gap to the next pop is the caller's processing time for that
    /// shard's event.
    last: Option<(std::time::Instant, usize)>,
    /// Current sampling stride in barriers (doubles when full).
    stride: u64,
}

/// A sharded pending-event queue that reproduces the sequential
/// [`EventQueue`]'s total order **exactly**, for every schedule/cancel
/// pattern and every shard count.
///
/// Structure: one inner [`EventQueue`] per shard, but a **single shared
/// sequence counter** — every `schedule` call draws the same sequence
/// number it would have drawn from one global queue, so the `(time, seq)`
/// key of every event is identical to the sequential execution's.
/// [`pop`](ShardedEventQueue::pop) is a K-way merge: the argmin over the
/// shard heads by `(time, seq)`. Byte-identical event order versus the
/// sequential queue is therefore a property *by construction*, not a
/// property of the workload — the differential suite
/// (`tests/shard_equivalence.rs`) checks it end to end anyway.
///
/// ## Conservative time windows
///
/// Shards advance through windows of a fixed lookahead `L` (the MAC
/// layer passes `min(F_prog, F_ack)`): within the window `[w, w+L)` every
/// popped event has time `< w+L`, and a cross-shard event scheduled at or
/// beyond `w+L` is **not** inserted into the destination shard immediately
/// — it is parked in an outbox and merged at the barrier, batched with
/// everything else that crossed shards this window, in canonical
/// `(tick, destination shard, sequence)` order. Parking is order-safe
/// precisely because of the window invariant: nothing with time `≥ w+L`
/// can be popped before the barrier, so deferring the insertion is
/// unobservable. Cross-shard events *inside* the window (zero-delay
/// chains, deliveries faster than the lookahead) are routed immediately
/// and counted as [`lookahead_misses`](ShardStats::lookahead_misses).
///
/// # Examples
///
/// ```
/// use amac_sim::{Duration, ShardedEventQueue, Time};
///
/// let mut q = ShardedEventQueue::new(2, Duration::from_ticks(4));
/// q.schedule(0, Time::from_ticks(2), "left");
/// q.schedule(1, Time::from_ticks(1), "right");
/// assert_eq!(q.pop(), Some((Time::from_ticks(1), "right")));
/// assert_eq!(q.pop(), Some((Time::from_ticks(2), "left")));
/// ```
pub struct ShardedEventQueue<E> {
    shards: Vec<EventQueue<E>>,
    outbox: Vec<Outboxed<E>>,
    /// Outbox entries per destination shard (for peak-pending tracking).
    outboxed_per_shard: Vec<usize>,
    window: Duration,
    window_start: Time,
    window_end: Time,
    now: Time,
    next_seq: u64,
    popped: u64,
    /// Shard of the most recently popped event: the *source* shard of any
    /// schedule call made while processing it.
    current_shard: Option<usize>,
    /// Per shard: time of its last popped event (for barrier slack).
    last_pop: Vec<Time>,
    /// Successful cancels since the outbox was last compacted — an upper
    /// bound on the cancelled entries parked there, driving the same
    /// stale-versus-live compaction policy as the heaps.
    outbox_cancels: usize,
    stats: ShardStats,
    /// Wall-clock self-profiling, opt-in (see [`ShardProfile`]).
    profiling: Option<Box<ProfileState>>,
}

impl<E> ShardedEventQueue<E> {
    /// Creates an empty `k`-shard queue with conservative lookahead
    /// `window`, clock at [`Time::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ MAX_SHARDS` and `window ≥ 1` tick.
    pub fn new(k: usize, window: Duration) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&k),
            "shard count {k} outside 1..={MAX_SHARDS}"
        );
        assert!(
            window.ticks() >= 1,
            "conservative window must be at least one tick"
        );
        ShardedEventQueue {
            shards: (0..k).map(|_| EventQueue::new()).collect(),
            outbox: Vec::new(),
            outboxed_per_shard: vec![0; k],
            window,
            window_start: Time::ZERO,
            window_end: Time::ZERO + window,
            now: Time::ZERO,
            next_seq: 0,
            popped: 0,
            current_shard: None,
            last_pop: vec![Time::ZERO; k],
            outbox_cancels: 0,
            profiling: None,
            stats: ShardStats {
                shards: k,
                window_ticks: window.ticks(),
                peak_pending: vec![0; k],
                barrier_slack_ticks: vec![0; k],
                ..ShardStats::default()
            },
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// A snapshot of the synchronization statistics.
    pub fn stats(&self) -> ShardStats {
        self.stats.clone()
    }

    /// Turns on wall-clock self-profiling (phase breakdown, per-shard
    /// busy time, a decimated [`ShardStats`] timeline). Off by default:
    /// the deterministic execution pays nothing for the instrumentation.
    pub fn enable_profiling(&mut self) {
        if self.profiling.is_none() {
            self.profiling = Some(Box::new(ProfileState {
                profile: ShardProfile {
                    busy_nanos: vec![0; self.shards.len()],
                    ..ShardProfile::default()
                },
                last: None,
                stride: 1,
            }));
        }
    }

    /// A snapshot of the wall-clock self-profile, or `None` when
    /// [`enable_profiling`](ShardedEventQueue::enable_profiling) was
    /// never called.
    pub fn profile(&self) -> Option<ShardProfile> {
        self.profiling.as_ref().map(|p| p.profile.clone())
    }

    /// Schedules `event` on `shard` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at < now()`, `shard` is out of range, or the shard
    /// exceeds its 2²⁴-slot capacity of concurrently scheduled events.
    pub fn schedule(&mut self, shard: usize, at: Time, event: E) -> EventId {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        assert!(
            at >= self.now,
            "cannot schedule at {at:?}, current time is {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let local = self.shards[shard].alloc_slot();
        assert!(
            local.slot <= LOCAL_SLOT_MASK,
            "shard {shard} exceeded its concurrent-event capacity"
        );
        let cross = self.current_shard.is_some_and(|src| src != shard);
        if cross && at >= self.window_end {
            // Order-safe to park: nothing at or beyond the barrier can be
            // popped before the outbox is flushed there.
            self.outbox.push(Outboxed {
                dest: shard as u32,
                at,
                seq,
                id: local,
                event,
            });
            self.outboxed_per_shard[shard] += 1;
            self.stats.outboxed += 1;
        } else {
            if cross {
                self.stats.lookahead_misses += 1;
            }
            self.shards[shard].push_entry(at, seq, local, event);
        }
        let pending = self.shards[shard].pending_upper_bound() + self.outboxed_per_shard[shard];
        if pending > self.stats.peak_pending[shard] {
            self.stats.peak_pending[shard] = pending;
        }
        EventId {
            slot: ((shard as u32) << SHARD_SHIFT) | local.slot,
            generation: local.generation,
        }
    }

    /// Schedules `event` on `shard` after a relative delay from now.
    pub fn schedule_after(&mut self, shard: usize, delay: Duration, event: E) -> EventId {
        self.schedule(shard, self.now + delay, event)
    }

    /// Cancels a previously scheduled event (parked or shard-resident).
    /// Same semantics as [`EventQueue::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        let shard = (id.slot >> SHARD_SHIFT) as usize;
        if shard >= self.shards.len() {
            return false;
        }
        let cancelled = self.shards[shard].cancel(EventId {
            slot: id.slot & LOCAL_SLOT_MASK,
            generation: id.generation,
        });
        if cancelled {
            // The cancel may have hit a parked outbox entry; compact the
            // outbox once cancels could account for half of it (amortized
            // O(1) per cancel, same policy as the shard compaction), so
            // schedule/cancel churn of parked events cannot grow memory.
            self.outbox_cancels += 1;
            if self.outbox.len() >= COMPACT_MIN && self.outbox_cancels * 2 >= self.outbox.len() {
                self.compact_outbox();
            }
        }
        cancelled
    }

    /// Drops outbox entries whose slot generation no longer matches (they
    /// were cancelled while parked), rebalancing the per-shard stale
    /// counters exactly like the barrier flush does.
    fn compact_outbox(&mut self) {
        let mut kept = Vec::with_capacity(self.outbox.len());
        for o in std::mem::take(&mut self.outbox) {
            let dest = o.dest as usize;
            if self.shards[dest].generations[o.id.slot as usize] == o.id.generation {
                kept.push(o);
            } else {
                self.outboxed_per_shard[dest] -= 1;
                self.shards[dest].stale = self.shards[dest].stale.saturating_sub(1);
            }
        }
        self.outbox = kept;
        self.outbox_cancels = 0;
    }

    /// Removes and returns the earliest pending event across all shards,
    /// advancing the clock. The total order is exactly the sequential
    /// queue's `(time, sequence)` order.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if let Some(p) = &mut self.profiling {
            // The gap since the previous pop returned is the caller's
            // processing time for that pop's event — the drain phase,
            // attributed to the previously popped shard.
            if let Some((then, prev_shard)) = p.last.take() {
                let gap = u64::try_from(then.elapsed().as_nanos()).unwrap_or(u64::MAX);
                p.profile.drain_nanos += gap;
                p.profile.busy_nanos[prev_shard] += gap;
            }
        }
        let shard = self.settle()?;
        let (at, event) = self.shards[shard]
            .pop()
            .expect("settle returned a shard with a live head");
        self.now = at;
        self.popped += 1;
        self.current_shard = Some(shard);
        self.last_pop[shard] = at;
        if let Some(p) = &mut self.profiling {
            p.last = Some((std::time::Instant::now(), shard));
        }
        Some((at, event))
    }

    /// Timestamp of the next pending event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.settle()
            .and_then(|s| self.shards[s].peek_key())
            .map(|(at, _)| at)
    }

    /// Returns `true` if no deliverable events remain anywhere.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Pending entries across all shards and the outbox, **including**
    /// not-yet-reclaimed cancellations (an upper bound on deliverable
    /// events).
    pub fn pending_upper_bound(&self) -> usize {
        self.shards
            .iter()
            .map(EventQueue::pending_upper_bound)
            .sum::<usize>()
            + self.outbox.len()
    }

    /// Selects the shard holding the globally earliest live event,
    /// advancing windows (flushing outboxes) as needed. Returns `None`
    /// only when every shard and the outbox are exhausted.
    fn settle(&mut self) -> Option<usize> {
        loop {
            let mut best: Option<(Time, u64, usize)> = None;
            for s in 0..self.shards.len() {
                if let Some((at, seq)) = self.shards[s].peek_key() {
                    if best.map_or(true, |(bt, bs, _)| (at, seq) < (bt, bs)) {
                        best = Some((at, seq, s));
                    }
                }
            }
            match best {
                Some((at, _, s)) if at < self.window_end => return Some(s),
                None if self.outbox.is_empty() => return None,
                _ => self.advance_window(best.map(|(at, _, _)| at)),
            }
        }
    }

    /// Crosses the window barrier: accounts per-shard slack, flushes the
    /// outbox in canonical `(tick, destination shard, sequence)` order,
    /// and opens the next window at the earliest remaining event.
    fn advance_window(&mut self, next_shard_time: Option<Time>) {
        let barrier_start = self.profiling.is_some().then(std::time::Instant::now);
        let barrier_tick = self.window_end.ticks();
        self.stats.barriers += 1;
        for s in 0..self.shards.len() {
            let busy_until = self.last_pop[s].max(self.window_start);
            self.stats.barrier_slack_ticks[s] +=
                self.window_end.saturating_since(busy_until).ticks();
        }
        // Canonical cross-shard merge order (determinism rule 5). The sort
        // key is total — sequence numbers are unique — so the batch order
        // is independent of outbox insertion order. Heap insertion order
        // does not affect pop order (shards order by `(time, seq)`), but
        // the canonical batch order is part of the documented contract and
        // keeps any future batched side effects deterministic.
        let merge_start = self.profiling.is_some().then(std::time::Instant::now);
        self.outbox.sort_by_key(|o| (o.at, o.dest, o.seq));
        let mut earliest_flushed: Option<Time> = None;
        for o in std::mem::take(&mut self.outbox) {
            let dest = o.dest as usize;
            self.outboxed_per_shard[dest] -= 1;
            if self.shards[dest].generations[o.id.slot as usize] == o.id.generation {
                if earliest_flushed.map_or(true, |t| o.at < t) {
                    earliest_flushed = Some(o.at);
                }
                self.shards[dest].push_entry(o.at, o.seq, o.id, o.event);
            } else {
                // Cancelled while parked: the cancel bumped the slot
                // generation and counted a stale pending entry that was never
                // pushed — rebalance the destination's stale counter.
                self.shards[dest].stale = self.shards[dest].stale.saturating_sub(1);
            }
        }
        // The next window starts at the earliest remaining event; when
        // nothing remains the window still moves forward so the loop in
        // `settle` terminates.
        let next = match (next_shard_time, earliest_flushed) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        self.window_start = next.unwrap_or(self.window_end);
        self.window_end = self.window_start + self.window;
        if let (Some(bs), Some(ms)) = (barrier_start, merge_start) {
            let end = std::time::Instant::now();
            let p = self
                .profiling
                .as_mut()
                .expect("timers are armed only while profiling");
            p.profile.barrier_nanos +=
                u64::try_from(ms.duration_since(bs).as_nanos()).unwrap_or(u64::MAX);
            p.profile.merge_nanos +=
                u64::try_from(end.duration_since(ms).as_nanos()).unwrap_or(u64::MAX);
            self.record_barrier_sample(barrier_tick);
        }
    }

    /// Appends a decimated [`ShardSample`] to the profiling timeline: keep
    /// at most `MAX_SAMPLES` entries by doubling the barrier stride and
    /// dropping every other kept sample whenever the buffer fills. No-op
    /// when profiling is off.
    fn record_barrier_sample(&mut self, barrier_tick: u64) {
        if self.profiling.is_none() {
            return;
        }
        let pending = self.pending_upper_bound();
        let barriers = self.stats.barriers;
        let outboxed = self.stats.outboxed;
        let p = self.profiling.as_mut().expect("checked above");
        if barriers % p.stride == 0 {
            if p.profile.samples.len() == ShardProfile::MAX_SAMPLES {
                let mut keep = 0;
                p.profile.samples.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                p.stride *= 2;
            }
            if barriers % p.stride == 0 {
                p.profile.samples.push(ShardSample {
                    at_ticks: barrier_tick,
                    barriers,
                    pending,
                    outboxed,
                });
            }
        }
    }
}

impl<E> fmt::Debug for ShardedEventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEventQueue")
            .field("shards", &self.shards.len())
            .field("now", &self.now)
            .field("pending", &self.pending_upper_bound())
            .field("delivered", &self.popped)
            .field("barriers", &self.stats.barriers)
            .finish()
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(3), 'c');
        q.schedule(Time::from_ticks(1), 'a');
        q.schedule(Time::from_ticks(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(Time::from_ticks(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ticks(7));
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(10), "first");
        q.pop();
        q.schedule_after(Duration::from_ticks(5), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_ticks(15));
    }

    #[test]
    #[should_panic(expected = "cannot schedule at")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(10), ());
        q.pop();
        q.schedule(Time::from_ticks(9), ());
    }

    #[test]
    fn zero_delay_scheduling_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(4), 1);
        q.pop();
        q.schedule(q.now(), 2); // same instant
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.ticks(), e), (4, 2));
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(1), 'a');
        q.schedule(Time::from_ticks(2), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 'b');
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId {
            slot: 99,
            generation: 0
        }));
    }

    #[test]
    fn cancel_of_delivered_event_is_false_and_leaves_no_tombstone() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(1), 'a');
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 'a');
        // Cancelling an already-delivered event must report false ...
        assert!(!q.cancel(a), "event was already delivered");
        // ... and must not poison later scheduling/delivery.
        q.schedule(Time::from_ticks(2), 'b');
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
        assert!(q.is_empty());
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    fn cancel_after_flush_via_peek_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(1), 'a');
        q.cancel(a);
        // peek_time reclaims the cancelled pending entry; cancelling
        // again afterwards must still be a no-op returning false.
        assert_eq!(q.peek_time(), None);
        assert!(!q.cancel(a));
        assert_eq!(q.pending_upper_bound(), 0, "pending entry reclaimed");
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(1), 'a');
        q.schedule(Time::from_ticks(2), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Time::from_ticks(2)));
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_after_draining() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(1), ());
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn recycled_slot_does_not_resurrect_old_ids() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(5), 'a');
        assert!(q.cancel(a));
        // The slot is recycled with a bumped generation: the new event is
        // distinct and the old id stays dead.
        let b = q.schedule(Time::from_ticks(6), 'b');
        assert!(!q.cancel(a), "stale id must not cancel the recycled slot");
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
        assert!(!q.cancel(b));
    }

    /// The regression the slot-generation rewrite exists for: a workload
    /// that schedules and cancels far-future events millions of times must
    /// not accumulate memory — neither id-tracking state nor heap entries
    /// for long-cancelled events.
    #[test]
    fn memory_stays_bounded_across_a_million_schedule_cancel_cycles() {
        let mut q = EventQueue::new();
        // A long-lived anchor so the queue is never empty.
        q.schedule(Time::from_ticks(1 << 40), 0u64);
        for i in 0..1_000_000u64 {
            // Far-future event, cancelled before ever becoming due — under
            // the old lazy-tombstone scheme each left a heap entry behind
            // until its (distant) timestamp surfaced.
            let id = q.schedule(Time::from_ticks((1 << 30) + i), i);
            assert!(q.cancel(id));
            assert!(
                q.pending_upper_bound() <= COMPACT_MIN.max(4),
                "heap grew to {} entries after {} cycles",
                q.pending_upper_bound(),
                i + 1
            );
        }
        // Slot bookkeeping is recycled, not grown per cycle.
        assert!(q.generations.len() <= COMPACT_MIN.max(4));
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_pop_order_matches_example() {
        let mut q = ShardedEventQueue::new(3, Duration::from_ticks(2));
        q.schedule(0, Time::from_ticks(5), 'c');
        q.schedule(2, Time::from_ticks(1), 'a');
        q.schedule(1, Time::from_ticks(5), 'b'); // same tick as 'c': FIFO by seq
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'c', 'b']);
        assert_eq!(q.now(), Time::from_ticks(5));
        assert_eq!(q.delivered(), 3);
    }

    #[test]
    fn sharded_cancel_works_while_parked_in_outbox() {
        let mut q = ShardedEventQueue::new(2, Duration::from_ticks(2));
        q.schedule(0, Time::from_ticks(1), 0u32);
        q.pop(); // current shard = 0, window now anchored
                 // Cross-shard, beyond the window: parked in the outbox.
        let parked = q.schedule(1, Time::from_ticks(100), 7u32);
        assert!(q.cancel(parked), "parked events must be cancellable");
        assert!(!q.cancel(parked), "double cancel reports false");
        q.schedule(0, Time::from_ticks(200), 9u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![9], "cancelled outbox entry must never surface");
    }

    #[test]
    fn sharded_cancelled_slot_is_not_resurrected_after_flush() {
        let mut q = ShardedEventQueue::new(2, Duration::from_ticks(2));
        q.schedule(0, Time::from_ticks(1), 0u32);
        q.pop();
        let parked = q.schedule(1, Time::from_ticks(50), 1u32);
        assert!(q.cancel(parked));
        // Recycle the same destination slot with a live event.
        let live = q.schedule(1, Time::from_ticks(60), 2u32);
        assert!(
            !q.cancel(parked),
            "stale id must not cancel the recycled slot"
        );
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2]);
        assert!(!q.cancel(live), "already delivered");
    }

    /// The load-bearing property, checked differentially: an adversarial
    /// schedule/cancel/pop interleaving produces the **identical** event
    /// stream from the sharded queue (any K) and the sequential queue —
    /// same events, same timestamps, same tie-break order.
    #[test]
    fn sharded_order_is_identical_to_sequential_under_random_workloads() {
        use crate::rng::SimRng;
        for &k in &[1usize, 2, 3, 5, 8] {
            for seed in 0..6u64 {
                let mut rng = SimRng::seed(0x5EED_0000 + seed);
                let mut single = EventQueue::new();
                let mut sharded = ShardedEventQueue::new(k, Duration::from_ticks(3));
                // Outstanding ids, tracked pairwise so the same logical
                // event is cancelled in both queues.
                let mut live: Vec<(EventId, EventId)> = Vec::new();
                let mut payload = 0u64;
                let mut single_stream = Vec::new();
                let mut sharded_stream = Vec::new();
                for _ in 0..2000 {
                    match rng.below(10) {
                        // Schedule: same (time, payload) into both; the
                        // shard is a function of the payload, like the
                        // runtime's node-based routing.
                        0..=4 => {
                            let at = sharded.now() + Duration::from_ticks(rng.below(9));
                            let shard = (payload % k as u64) as usize;
                            let a = single.schedule(at.max(single.now()), payload);
                            let b = sharded.schedule(shard, at, payload);
                            live.push((a, b));
                            payload += 1;
                        }
                        5..=6 => {
                            if !live.is_empty() {
                                let i = (rng.below(live.len() as u64)) as usize;
                                let (a, b) = live.swap_remove(i);
                                assert_eq!(single.cancel(a), sharded.cancel(b));
                            }
                        }
                        _ => {
                            single_stream.extend(single.pop());
                            sharded_stream.extend(sharded.pop());
                        }
                    }
                }
                single_stream.extend(std::iter::from_fn(|| single.pop()));
                sharded_stream.extend(std::iter::from_fn(|| sharded.pop()));
                assert_eq!(
                    single_stream, sharded_stream,
                    "k={k} seed={seed}: sharded order diverged from sequential"
                );
            }
        }
    }

    /// Satellite regression: slot-generation state stays bounded *per
    /// shard* across a million cross-shard schedule/cancel cycles — the
    /// outbox parking path must recycle destination slots exactly like the
    /// direct path does.
    #[test]
    fn sharded_memory_stays_bounded_across_a_million_cross_shard_cycles() {
        let mut q = ShardedEventQueue::new(4, Duration::from_ticks(4));
        // Anchor events so pops keep shard 0 "current" and the queue is
        // never empty.
        for i in 0..4u64 {
            q.schedule(0, Time::from_ticks(i), i);
        }
        q.pop(); // current shard = 0
        for i in 0..1_000_000u64 {
            // Far-future cross-shard event: parked in the outbox, then
            // cancelled before any barrier flushes it.
            let id = q.schedule(1 + (i % 3) as usize, Time::from_ticks((1 << 30) + i), i);
            assert!(q.cancel(id));
            assert!(
                q.pending_upper_bound() <= COMPACT_MIN + 8,
                "pending grew to {} entries after {} cycles",
                q.pending_upper_bound(),
                i + 1
            );
        }
        for s in &q.shards {
            assert!(
                s.generations.len() <= COMPACT_MIN.max(8),
                "slot table grew to {} entries",
                s.generations.len()
            );
        }
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_stats_count_barriers_and_cross_shard_traffic() {
        let mut q = ShardedEventQueue::new(2, Duration::from_ticks(2));
        q.schedule(0, Time::ZERO, 0u32);
        q.pop();
        q.schedule(1, Time::from_ticks(10), 1u32); // cross, beyond window: outboxed
        q.schedule(1, Time::from_ticks(1), 2u32); // cross, inside window: miss
        q.schedule(0, Time::from_ticks(1), 3u32); // same shard
        while q.pop().is_some() {}
        let stats = q.stats();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.window_ticks, 2);
        assert_eq!(stats.outboxed, 1);
        assert_eq!(stats.lookahead_misses, 1);
        assert!(stats.barriers >= 1, "reaching t=10 must cross a barrier");
        assert!(stats.max_peak_pending() >= 2);
        assert!(
            stats.total_slack_ticks() > 0,
            "shard 1 idles before its barrier"
        );
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn sharded_rejects_zero_shards() {
        let _ = ShardedEventQueue::<u32>::new(0, Duration::TICK);
    }

    #[test]
    fn shard_stats_merge_is_commutative_with_identity() {
        let a = ShardStats {
            shards: 2,
            window_ticks: 4,
            barriers: 3,
            outboxed: 5,
            lookahead_misses: 1,
            peak_pending: vec![7, 2],
            barrier_slack_ticks: vec![10, 20],
        };
        let b = ShardStats {
            shards: 2,
            window_ticks: 4,
            barriers: 1,
            outboxed: 2,
            lookahead_misses: 4,
            peak_pending: vec![3, 9],
            barrier_slack_ticks: vec![1, 2],
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(format!("{ab:?}"), format!("{ba:?}"));
        assert_eq!(ab.barriers, 4);
        assert_eq!(ab.peak_pending, vec![7, 9]);
        assert_eq!(ab.barrier_slack_ticks, vec![11, 22]);
        // Default-initialised accumulator is the identity.
        let mut acc = ShardStats::default();
        acc.merge(&a);
        assert_eq!(format!("{acc:?}"), format!("{a:?}"));
    }

    #[test]
    fn profiling_is_opt_in_and_does_not_perturb_order() {
        let run = |profile: bool| {
            let mut q = ShardedEventQueue::new(2, Duration::from_ticks(2));
            if profile {
                q.enable_profiling();
            }
            q.schedule(0, Time::ZERO, 0u32);
            q.schedule(1, Time::from_ticks(3), 1u32);
            q.schedule(0, Time::from_ticks(5), 2u32);
            let mut order = Vec::new();
            while let Some((at, e)) = q.pop() {
                order.push((at.ticks(), e));
            }
            (order, q.profile(), q.stats())
        };
        let (plain_order, plain_profile, plain_stats) = run(false);
        let (prof_order, prof_profile, prof_stats) = run(true);
        assert!(plain_profile.is_none(), "profiling is opt-in");
        assert_eq!(plain_order, prof_order);
        assert_eq!(plain_stats.barriers, prof_stats.barriers);
        let profile = prof_profile.expect("profiling was enabled");
        assert_eq!(profile.busy_nanos.len(), 2);
        assert!(
            !profile.samples.is_empty(),
            "barriers were crossed, so the timeline has samples"
        );
        assert!(profile.samples.len() <= ShardProfile::MAX_SAMPLES);
        let last = profile.samples.last().unwrap();
        assert_eq!(last.barriers, prof_stats.barriers);
    }

    #[test]
    fn profile_timeline_stays_bounded_under_many_barriers() {
        let mut q = ShardedEventQueue::new(2, Duration::TICK);
        q.enable_profiling();
        // One event per tick, alternating shards: every tick is a barrier.
        for i in 0..1000u64 {
            q.schedule((i % 2) as usize, Time::from_ticks(i), i);
        }
        while q.pop().is_some() {}
        let profile = q.profile().unwrap();
        assert!(q.stats().barriers > ShardProfile::MAX_SAMPLES as u64);
        assert!(profile.samples.len() <= ShardProfile::MAX_SAMPLES);
        assert!(profile.samples.len() > ShardProfile::MAX_SAMPLES / 4);
        // Samples are in barrier order and cover the run's tail.
        for pair in profile.samples.windows(2) {
            assert!(pair[0].barriers < pair[1].barriers);
            assert!(pair[0].at_ticks <= pair[1].at_ticks);
        }
    }

    /// Satellite regression: `pending_upper_bound` must count events
    /// parked in the outbox between barriers.
    #[test]
    fn pending_upper_bound_counts_between_barrier_buffers() {
        let mut fused = ShardedEventQueue::new(2, Duration::from_ticks(2));
        fused.schedule(0, Time::ZERO, 0u32);
        fused.pop();
        fused.schedule(1, Time::from_ticks(50), 1u32); // outboxed
        assert_eq!(fused.pending_upper_bound(), 1, "fused outbox counted");
        assert_eq!(fused.pop().map(|(_, e)| e), Some(1));
        assert_eq!(fused.pending_upper_bound(), 0);
    }

    #[test]
    fn compaction_preserves_order_and_liveness() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        let mut drop_ids = Vec::new();
        for i in 0..200u64 {
            let id = q.schedule(Time::from_ticks(1000 - i), i);
            if i % 2 == 0 {
                keep.push(i);
            } else {
                drop_ids.push(id);
            }
        }
        for id in drop_ids {
            assert!(q.cancel(id));
        }
        assert!(
            q.pending_upper_bound() < 200,
            "compaction must have reclaimed cancelled entries"
        );
        let mut order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let mut expected = keep;
        expected.sort_by_key(|&i| 1000 - i);
        assert_eq!(order.len(), expected.len());
        order.sort_by_key(|&i| 1000 - i);
        order.reverse();
        expected.reverse();
        assert_eq!(order, expected);
    }
}
