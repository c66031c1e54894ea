//! The abstract MAC layer runtime: couples node automata, a message
//! scheduler policy, and the dual-graph topology into a deterministic
//! discrete-event execution that honours the model's five guarantees.
//!
//! ## How the guarantees are enforced
//!
//! * **Receive correctness** — at most one `rcv` per (instance, receiver);
//!   receivers are always `G′`-neighbors of the sender; every `rcv` happens
//!   no later than the instance's termination (pending deliveries are
//!   flushed immediately before an `ack` and cancelled on `abort`, i.e.
//!   `ε_abort = 0`).
//! * **Ack correctness** — every reliable neighbor is delivered before the
//!   `ack` (policies that omit a reliable neighbor get it scheduled at the
//!   ack deadline); each instance terminates at most once.
//! * **Termination** — every instance gets an `ack` (or an `abort` by its
//!   sender) as long as the execution is run to idleness.
//! * **Ack bound** — the requested ack delay is clamped into `[1, F_ack]`.
//! * **Progress bound** — a window `(s, s+L]` with `L > F_prog` violates
//!   the bound only if some `G`-neighbor instance spans it **and** no
//!   receive from a *contending* instance (one not terminated before `s`)
//!   has occurred by its end. A past receive therefore *covers* every
//!   window that starts before its instance terminates. The runtime tracks,
//!   per receiver `j`: the in-flight instances that already delivered to
//!   `j` (*live protectors* — while any exists, no window can violate), and
//!   the latest termination time `pf` among past protectors. When
//!   unprotected, the earliest violating window starts at
//!   `s = max(oldest connected start, pf)` and closes at `s + F_prog + 1`;
//!   the runtime schedules a forced delivery for that instant, chosen by
//!   the policy among in-flight `G′`-instances that have not yet delivered
//!   to `j` (this is where an adversary feeds duplicates). Such a candidate
//!   always exists when unprotected, since the spanning instance itself
//!   qualifies.
//!
//! ## Observation
//!
//! The runtime does not retain any view of its own execution. Every
//! MAC-level event is emitted to the attached [`Observer`]s (see
//! [`observer`](crate::observer)): attach a [`TraceObserver`] for the full
//! [`Trace`], an [`OnlineValidator`](crate::OnlineValidator) for streaming
//! conformance checking, or any custom observer. With no observers
//! attached, the hot path records nothing.

use crate::config::MacConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::instance::InstanceId;
use crate::message::{MacMessage, MessageKey};
use crate::node::{Automaton, Command, Ctx};
use crate::observer::{Observer, ObserverHandle, ObserverSet, TraceObserver};
use crate::policy::{BcastInfo, ForcedCandidate, Policy, PolicyCtx};
use crate::small_set::SortedSet;
use crate::trace::{Trace, TraceEntry, TraceKind};
use amac_graph::{DualGraph, NodeId, Partition};
use amac_sim::stats::Counters;
use amac_sim::{
    Duration, EventId, EventQueue, FastHashMap, FastHashSet, ShardStats, ShardedEventQueue, Time,
};
use std::fmt;
use std::sync::Arc;

/// Why a [`Runtime::run`] call returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No deliverable events remain; the execution is quiescent.
    Idle,
    /// The next pending event lies beyond the requested time horizon.
    TimeLimit,
    /// The configured event-count safety cap was reached.
    EventLimit,
    /// The caller stopped the run (e.g. on problem completion) with events
    /// still pending.
    Stopped,
}

/// A problem-level output emitted by a node via [`Ctx::output`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// When the output was emitted.
    pub time: Time,
    /// The emitting node.
    pub node: NodeId,
    /// The output value.
    pub out: O,
}

enum Ev<E> {
    Start(NodeId),
    Env(NodeId, E),
    Deliver(InstanceId, NodeId),
    AckDue(InstanceId),
    ProgressCheck(NodeId),
    Timer(NodeId, u64, u64),
    Fault(NodeId, FaultKind),
}

/// The runtime's pending-event queue: a single [`EventQueue`] (the default)
/// or a [`ShardedEventQueue`] routing each event to its node's shard (see
/// [`Runtime::with_shards`]). Methods mirror the queue API with the routing
/// node made explicit. Kept as a plain field (not behind an accessor) so
/// cancel sites can split borrows against `instances`.
enum Queue<E> {
    Single(EventQueue<E>),
    Sharded {
        q: Box<ShardedEventQueue<E>>,
        part: Partition,
    },
}

impl<E> Queue<E> {
    fn now(&self) -> Time {
        match self {
            Queue::Single(q) => q.now(),
            Queue::Sharded { q, .. } => q.now(),
        }
    }

    fn schedule(&mut self, at: Time, node: NodeId, event: E) -> EventId {
        match self {
            Queue::Single(q) => q.schedule(at, event),
            Queue::Sharded { q, part } => q.schedule(part.shard_of(node), at, event),
        }
    }

    fn schedule_after(&mut self, delay: Duration, node: NodeId, event: E) -> EventId {
        match self {
            Queue::Single(q) => q.schedule_after(delay, event),
            Queue::Sharded { q, part } => q.schedule_after(part.shard_of(node), delay, event),
        }
    }

    fn cancel(&mut self, id: EventId) -> bool {
        match self {
            Queue::Single(q) => q.cancel(id),
            Queue::Sharded { q, .. } => q.cancel(id),
        }
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        match self {
            Queue::Single(q) => q.pop(),
            Queue::Sharded { q, .. } => q.pop(),
        }
    }

    fn peek_time(&mut self) -> Option<Time> {
        match self {
            Queue::Single(q) => q.peek_time(),
            Queue::Sharded { q, .. } => q.peek_time(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Terminated {
    Acked,
    Aborted,
    /// The sender crashed mid-instance: deliveries already made stand, the
    /// rest (and the ack) are silenced. No event marks this — the crash
    /// itself is emitted to the observers' fault channel.
    Crashed,
}

/// Per-instance state. The payload is interned behind an [`Arc`] at
/// broadcast time — deliveries clone the pointer, not the payload — and
/// dropped at termination along with the delivery bookkeeping, so retired
/// instances cost a few words each.
struct InstanceState<M> {
    sender: NodeId,
    msg: Option<Arc<M>>,
    key: MessageKey,
    start: Time,
    delivered: Vec<NodeId>,
    pending: Vec<(NodeId, EventId)>,
    ack_event: Option<EventId>,
    terminated: Option<(Time, Terminated)>,
}

/// Hot-path event counters kept as plain fields — the string-keyed
/// [`Counters`] map costs a comparison walk per increment, which is
/// measurable at millions of events per second. Materialized into a
/// [`Counters`] on demand.
#[derive(Clone, Copy, Default)]
struct HotCounters {
    events: u64,
    env: u64,
    timer: u64,
    bcast: u64,
    rcv: u64,
    ack: u64,
    abort: u64,
    forced_rcv: u64,
    forced_ack: u64,
    crash: u64,
    recover: u64,
}

impl HotCounters {
    fn materialize(&self) -> Counters {
        let mut counters = Counters::new();
        for (key, value) in [
            ("events", self.events),
            ("env", self.env),
            ("timer", self.timer),
            ("bcast", self.bcast),
            ("rcv", self.rcv),
            ("ack", self.ack),
            ("abort", self.abort),
            ("forced_rcv", self.forced_rcv),
            ("forced_ack", self.forced_ack),
            ("crash", self.crash),
            ("recover", self.recover),
        ] {
            if value > 0 {
                counters.add(key, value);
            }
        }
        counters
    }
}

/// The abstract MAC layer execution engine.
///
/// Generic over the node [`Automaton`] `A` and the scheduler [`Policy`]
/// `P`. Executions are fully deterministic given the topology, the node
/// states, and the policy (including any seeds it holds).
///
/// # Examples
///
/// See [`crate`] documentation for an end-to-end example.
pub struct Runtime<A: Automaton, P: Policy> {
    dual: DualGraph,
    config: MacConfig,
    nodes: Vec<A>,
    policy: P,
    queue: Queue<Ev<A::Env>>,
    instances: Vec<InstanceState<A::Msg>>,
    in_flight_of: Vec<Option<InstanceId>>,
    /// Per receiver: in-flight instances that already delivered to it.
    live_protectors: Vec<SortedSet<InstanceId>>,
    /// Per receiver: latest termination time among past protectors.
    protected_until: Vec<Option<Time>>,
    connected: Vec<SortedSet<InstanceId>>,
    contending: Vec<SortedSet<InstanceId>>,
    check_scheduled: Vec<bool>,
    // Determinism policy: every collection whose *iteration order* can
    // reach execution (in particular `connected`/`contending`, which
    // build the forced-delivery candidate list handed to
    // `Policy::pick_forced`) must be ordered — a sorted-vec `SortedSet`
    // or indexed `Vec` — so executions are bit-reproducible from the seed
    // alone, across processes and thread counts. `seen_keys` and `timers`
    // are membership/keyed access only (never iterated), so hashed
    // collections are safe and keep those hot-path lookups O(1).
    seen_keys: Vec<FastHashSet<MessageKey>>,
    crashed: Vec<bool>,
    timers: FastHashMap<u64, EventId>,
    next_timer: u64,
    outputs: Vec<OutputRecord<A::Out>>,
    observers: ObserverSet,
    counters: HotCounters,
    event_limit: u64,
    // Scratch buffers, recycled across events so the hot path does not
    // allocate per event. `cmd_pool` is a stack because callbacks nest
    // (apply → deliver → callback → apply).
    cmd_pool: Vec<Vec<Command<A::Msg, A::Out>>>,
    forced_scratch: Vec<ForcedCandidate>,
    delay_scratch: Vec<(NodeId, Duration)>,
    pending_pool: Vec<Vec<(NodeId, EventId)>>,
    receiver_pool: Vec<Vec<NodeId>>,
}

impl<A: Automaton, P: Policy> Runtime<A, P> {
    /// Creates a runtime over `dual` with one automaton per node.
    ///
    /// No observers are attached: the execution records nothing about
    /// itself. Attach a [`TraceObserver`] (or call
    /// [`tracing`](Runtime::tracing)) for a full trace, or an
    /// [`OnlineValidator`](crate::OnlineValidator) for streaming
    /// conformance checking.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != dual.len()`.
    pub fn new(dual: DualGraph, config: MacConfig, nodes: Vec<A>, policy: P) -> Self {
        assert_eq!(
            nodes.len(),
            dual.len(),
            "need exactly one automaton per node"
        );
        let n = dual.len();
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.schedule(Time::ZERO, Ev::Start(NodeId::new(i)));
        }
        Runtime {
            dual,
            config,
            nodes,
            policy,
            queue: Queue::Single(queue),
            instances: Vec::new(),
            in_flight_of: vec![None; n],
            live_protectors: vec![SortedSet::new(); n],
            protected_until: vec![None; n],
            connected: vec![SortedSet::new(); n],
            contending: vec![SortedSet::new(); n],
            check_scheduled: vec![false; n],
            seen_keys: vec![FastHashSet::default(); n],
            crashed: vec![false; n],
            timers: FastHashMap::default(),
            next_timer: 0,
            outputs: Vec::new(),
            observers: ObserverSet::default(),
            counters: HotCounters::default(),
            event_limit: 200_000_000,
            cmd_pool: Vec::new(),
            forced_scratch: Vec::new(),
            delay_scratch: Vec::new(),
            pending_pool: Vec::new(),
            receiver_pool: Vec::new(),
        }
    }

    /// Attaches an observer; every subsequent MAC-level event (and applied
    /// fault) is streamed to it. Returns a typed handle for
    /// [`observer`](Runtime::observer) / [`detach`](Runtime::detach).
    pub fn attach<O: Observer>(&mut self, observer: O) -> ObserverHandle<O> {
        self.observers.attach(observer)
    }

    /// Borrows an attached observer.
    ///
    /// # Panics
    ///
    /// Panics if the observer was already detached.
    pub fn observer<O: Observer>(&self, handle: &ObserverHandle<O>) -> &O {
        self.observers.get(handle)
    }

    /// Detaches an observer, returning it by value.
    ///
    /// # Panics
    ///
    /// Panics if the observer was already detached.
    pub fn detach<O: Observer>(&mut self, handle: ObserverHandle<O>) -> O {
        self.observers.detach(handle)
    }

    /// Convenience builder: attaches a [`TraceObserver`] so the execution
    /// records a full [`Trace`], retrievable via [`trace`](Runtime::trace)
    /// or [`into_trace`](Runtime::into_trace) — the historical default
    /// behaviour, now opt-in.
    pub fn tracing(mut self) -> Self {
        self.attach(TraceObserver::new());
        self
    }

    /// Sets the safety cap on processed events (default 2·10⁸).
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Switches the runtime to sharded execution: the dual graph is
    /// partitioned into `k` contiguous BFS blocks
    /// ([`amac_graph::partition::contiguous`]) and events run on one
    /// [`ShardedEventQueue`] shard per block, synchronized by conservative
    /// time windows of width `min(F_prog, F_ack)` with cross-shard events
    /// exchanged at window barriers in canonical `(tick, shard, slot)`
    /// order.
    ///
    /// The execution — observer stream, traces, validator verdicts,
    /// digests — is **byte-identical** to the sequential runtime for every
    /// seed and every `k` (including `k = 1`): the shards share one event
    /// sequence counter and the coordinator always pops the globally
    /// minimal `(time, seq)` event, so the total event order is exactly
    /// the sequential one.
    ///
    /// `k` may exceed the node count (trailing shards stay empty).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k >` [`amac_sim::MAX_SHARDS`], or if called
    /// after [`with_faults`](Runtime::with_faults),
    /// [`inject`](Runtime::inject), or the first step — sharding must be
    /// decided before any event beyond the initial node starts is
    /// scheduled, so the shared sequence numbering matches the sequential
    /// runtime's.
    pub fn with_shards(mut self, k: usize) -> Self {
        assert!(k >= 1, "shard count must be at least 1");
        let n = self.dual.len();
        match &self.queue {
            Queue::Single(q) => assert!(
                q.now() == Time::ZERO && q.delivered() == 0 && q.pending_upper_bound() == n,
                "with_shards must be called before with_faults/inject and before stepping"
            ),
            Queue::Sharded { .. } => panic!("with_shards called twice"),
        }
        let window = self.config.f_prog().min(self.config.f_ack());
        let part = amac_graph::partition::contiguous(&self.dual, k);
        let mut q = ShardedEventQueue::new(k, window);
        for i in 0..n {
            let node = NodeId::new(i);
            q.schedule(part.shard_of(node), Time::ZERO, Ev::Start(node));
        }
        self.queue = Queue::Sharded {
            q: Box::new(q),
            part,
        };
        self
    }

    /// The shard `node`'s events run on, or `None` in sequential mode —
    /// the partition [`with_shards`](Runtime::with_shards) chose, so
    /// observers can group nodes by shard without recomputing it.
    pub fn shard_of(&self, node: NodeId) -> Option<usize> {
        match &self.queue {
            Queue::Single(_) => None,
            Queue::Sharded { part, .. } => Some(part.shard_of(node)),
        }
    }

    /// Per-shard execution statistics (barriers, outboxed cross-shard
    /// events, lookahead misses, peak pending, barrier slack), or `None`
    /// in sequential mode.
    pub fn shard_stats(&self) -> Option<ShardStats> {
        match &self.queue {
            Queue::Single(_) => None,
            Queue::Sharded { q, .. } => Some(q.stats()),
        }
    }

    /// Turns on the sharded queue's wall-clock self-profiling (see
    /// [`amac_sim::ShardProfile`]). No-op in sequential mode; off by
    /// default so deterministic runs pay nothing for it.
    pub fn enable_shard_profiling(&mut self) {
        if let Queue::Sharded { q, .. } = &mut self.queue {
            q.enable_profiling();
        }
    }

    /// The sharded queue's wall-clock self-profile — a nondeterministic
    /// side channel, `None` unless
    /// [`enable_shard_profiling`](Runtime::enable_shard_profiling) was
    /// called on a sharded runtime.
    pub fn shard_profile(&self) -> Option<amac_sim::ShardProfile> {
        match &self.queue {
            Queue::Single(_) => None,
            Queue::Sharded { q, .. } => q.profile(),
        }
    }

    /// Arms a [`FaultPlan`]: each scheduled crash/recovery is applied at
    /// its time, emitted to the observers' fault channel, and enforced by
    /// the runtime (a crashed node neither broadcasts, acknowledges,
    /// receives, nor gets callbacks until it recovers; its in-flight
    /// broadcast is silenced at the crash, leaving prior deliveries
    /// standing).
    ///
    /// # Panics
    ///
    /// Panics if the plan names a node outside the topology.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        for e in plan.events() {
            assert!(
                e.node.index() < self.dual.len(),
                "fault plan names node {} outside the {}-node topology",
                e.node,
                self.dual.len()
            );
            self.queue.schedule(e.at, e.node, Ev::Fault(e.node, e.kind));
        }
        self
    }

    /// The topology this execution runs over.
    pub fn dual(&self) -> &DualGraph {
        &self.dual
    }

    /// The MAC configuration.
    pub fn config(&self) -> &MacConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Read access to a node automaton (for completion checks in tests and
    /// harnesses).
    pub fn node(&self, id: NodeId) -> &A {
        &self.nodes[id.index()]
    }

    /// Number of message instances started so far.
    pub fn instances_started(&self) -> usize {
        self.instances.len()
    }

    /// Event counters (`bcast`, `rcv`, `ack`, `abort`, `forced_rcv`,
    /// `forced_ack`, …), materialized from the runtime's plain-field hot
    /// counters (a per-event string-keyed map lookup was measurable).
    pub fn counters(&self) -> Counters {
        self.counters.materialize()
    }

    /// The trace recorded by an attached [`TraceObserver`], if any (see
    /// [`tracing`](Runtime::tracing)).
    pub fn trace(&self) -> Option<&Trace> {
        self.observers
            .find::<TraceObserver>()
            .map(TraceObserver::trace)
    }

    /// `true` while `node` is crashed (between an applied crash and any
    /// later recovery).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    /// All outputs emitted since the last [`drain_outputs`](Runtime::drain_outputs).
    pub fn outputs(&self) -> &[OutputRecord<A::Out>] {
        &self.outputs
    }

    /// Drains outputs emitted since the last call, keeping the buffer's
    /// capacity (harness loops call this per event step — no allocation).
    pub fn drain_outputs(&mut self) -> std::vec::Drain<'_, OutputRecord<A::Out>> {
        self.outputs.drain(..)
    }

    /// Schedules an environment input for `node` at the current time (use
    /// before the first [`step`](Runtime::step) for the paper's time-0
    /// `arrive` events, or mid-run for online arrivals).
    pub fn inject(&mut self, node: NodeId, input: A::Env) {
        let now = self.queue.now();
        self.queue.schedule(now, node, Ev::Env(node, input));
    }

    /// Schedules an environment input at an absolute future time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject_at(&mut self, at: Time, node: NodeId, input: A::Env) {
        self.queue.schedule(at, node, Ev::Env(node, input));
    }

    /// Processes a single event. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        let Some((_, ev)) = self.queue.pop() else {
            return false;
        };
        self.counters.events += 1;
        match ev {
            Ev::Start(node) => {
                if self.crashed[node.index()] {
                    return true;
                }
                let cmds = self.callback(node, super::node::Automaton::on_start);
                self.apply(node, cmds);
            }
            Ev::Env(node, input) => {
                if self.crashed[node.index()] {
                    return true; // inputs to a crashed node are lost
                }
                self.counters.env += 1;
                let cmds = self.callback(node, |n, ctx| n.on_env(input, ctx));
                self.apply(node, cmds);
            }
            Ev::Deliver(inst, to) => {
                // Drop the pending entry for this receiver; the event
                // already fired so there is nothing to cancel.
                let st = &mut self.instances[inst.index()];
                st.pending.retain(|(n, _)| *n != to);
                self.deliver_core(inst, to, false);
            }
            Ev::AckDue(inst) => {
                if self.instances[inst.index()].terminated.is_none() {
                    self.ack_instance(inst, false);
                }
            }
            Ev::ProgressCheck(node) => self.progress_check(node),
            Ev::Timer(node, tag, key) => {
                if self.timers.remove(&key).is_some() {
                    if self.crashed[node.index()] {
                        return true; // timer firings during an outage are lost
                    }
                    self.counters.timer += 1;
                    let cmds = self.callback(node, |n, ctx| n.on_timer(tag, ctx));
                    self.apply(node, cmds);
                }
            }
            Ev::Fault(node, FaultKind::Crash) => self.crash_node(node),
            Ev::Fault(node, FaultKind::Recover) => self.recover_node(node),
        }
        true
    }

    /// Processes the next event if it lies within `horizon`: returns `None`
    /// after processing one event, or `Some(outcome)` when the run should
    /// stop. Lets harnesses interleave stepping with their own checks
    /// (completion detection, output draining).
    pub fn run_until_next(&mut self, horizon: Time) -> Option<RunOutcome> {
        if self.counters.events >= self.event_limit {
            return Some(RunOutcome::EventLimit);
        }
        match self.queue.peek_time() {
            None => Some(RunOutcome::Idle),
            Some(t) if t > horizon => Some(RunOutcome::TimeLimit),
            Some(_) => {
                self.step();
                None
            }
        }
    }

    /// Runs until quiescence or until the next event would lie beyond
    /// `horizon`.
    pub fn run_until(&mut self, horizon: Time) -> RunOutcome {
        loop {
            if let Some(outcome) = self.run_until_next(horizon) {
                return outcome;
            }
        }
    }

    /// Runs to quiescence (bounded by the event-count safety cap).
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(Time::MAX)
    }

    /// Consumes the runtime, returning the trace recorded by an attached
    /// [`TraceObserver`] (if any).
    pub fn into_trace(mut self) -> Option<Trace> {
        self.observers
            .take_first::<TraceObserver>()
            .map(TraceObserver::into_trace)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn callback<F>(&mut self, node: NodeId, f: F) -> Vec<Command<A::Msg, A::Out>>
    where
        F: FnOnce(&mut A, &mut Ctx<'_, A::Msg, A::Out>),
    {
        let now = self.queue.now();
        let commands = self.cmd_pool.pop().unwrap_or_default();
        debug_assert!(commands.is_empty());
        let mut ctx = Ctx {
            node,
            now,
            config: &self.config,
            dual: &self.dual,
            in_flight: self.in_flight_of[node.index()].is_some(),
            commands,
            next_timer: &mut self.next_timer,
        };
        f(&mut self.nodes[node.index()], &mut ctx);
        ctx.commands
    }

    fn apply(&mut self, node: NodeId, mut commands: Vec<Command<A::Msg, A::Out>>) {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Bcast(msg) => self.start_instance(node, msg),
                Command::Abort => self.abort_in_flight(node),
                Command::SetTimer { id, delay, tag } => {
                    let ev = self
                        .queue
                        .schedule_after(delay, node, Ev::Timer(node, tag, id.0));
                    self.timers.insert(id.0, ev);
                }
                Command::CancelTimer(id) => {
                    if let Some(ev) = self.timers.remove(&id.0) {
                        self.queue.cancel(ev);
                    }
                }
                Command::Output(out) => {
                    self.outputs.push(OutputRecord {
                        time: self.queue.now(),
                        node,
                        out,
                    });
                }
            }
        }
        self.cmd_pool.push(commands);
    }

    #[inline]
    fn emit(&mut self, inst: InstanceId, node: NodeId, kind: TraceKind, key: MessageKey) {
        self.observers.emit(&TraceEntry {
            time: self.queue.now(),
            instance: inst,
            node,
            kind,
            key,
        });
    }

    fn start_instance(&mut self, sender: NodeId, msg: A::Msg) {
        debug_assert!(
            !self.crashed[sender.index()],
            "crashed node {sender} cannot broadcast (callbacks are suppressed)"
        );
        assert!(
            self.in_flight_of[sender.index()].is_none(),
            "node {sender} issued a second bcast without ack/abort (user well-formedness)"
        );
        let now = self.queue.now();
        let id = InstanceId::new(self.instances.len() as u64);
        let key = msg.key();
        self.seen_keys[sender.index()].insert(key);
        self.counters.bcast += 1;

        let plan = {
            let ctx = PolicyCtx {
                dual: &self.dual,
                config: &self.config,
                now,
            };
            self.policy.plan_bcast(
                &ctx,
                &BcastInfo {
                    instance: id,
                    sender,
                    key,
                },
            )
        };

        let f_ack = self.config.f_ack();
        let ack_delay = plan.ack_delay.max(Duration::TICK).min(f_ack);

        // Delivery delays: reliable neighbors default to the plan's
        // uniform delivery delay (the ack deadline when unset); individual
        // policy overrides are clamped into [0, ack_delay]. `delays` is a
        // recycled scratch buffer.
        let default_delay = plan.reliable_default.unwrap_or(ack_delay).min(ack_delay);
        let mut delays = std::mem::take(&mut self.delay_scratch);
        debug_assert!(delays.is_empty());
        delays.extend(
            self.dual
                .reliable_neighbors(sender)
                .iter()
                .map(|&j| (j, default_delay)),
        );
        for (j, d) in &plan.reliable {
            if let Some(slot) = delays.iter_mut().find(|(n, _)| n == j) {
                slot.1 = (*d).min(ack_delay);
            }
        }
        for (j, d) in &plan.unreliable {
            if self.dual.unreliable_neighbors(sender).contains(j) {
                delays.push((*j, (*d).min(ack_delay)));
            }
        }

        self.emit(id, sender, TraceKind::Bcast, key);

        let mut pending = self.pending_pool.pop().unwrap_or_default();
        debug_assert!(pending.is_empty());
        for (j, d) in delays.drain(..) {
            if self.crashed[j.index()] {
                continue; // a crashed receiver gets nothing
            }
            let ev = self.queue.schedule(now + d, j, Ev::Deliver(id, j));
            pending.push((j, ev));
        }
        self.delay_scratch = delays;
        let ack_event = self.queue.schedule(now + ack_delay, sender, Ev::AckDue(id));

        self.instances.push(InstanceState {
            sender,
            msg: Some(Arc::new(msg)),
            key,
            start: now,
            delivered: self.receiver_pool.pop().unwrap_or_default(),
            pending,
            ack_event: Some(ack_event),
            terminated: None,
        });
        self.in_flight_of[sender.index()] = Some(id);

        for &j in self.dual.reliable_neighbors(sender) {
            self.connected[j.index()].insert(id);
        }
        for &j in self.dual.all_neighbors(sender) {
            self.contending[j.index()].insert(id);
        }
        for i in 0..self.dual.reliable_neighbors(sender).len() {
            let j = self.dual.reliable_neighbors(sender)[i];
            self.ensure_check(j);
        }
    }

    /// The earliest instant at which the progress bound could be violated
    /// for receiver `j`, or `None` while no violation is possible (no
    /// spanning `G`-neighbor instance, or a live protector exists).
    fn deadline(&self, j: NodeId) -> Option<Time> {
        if self.crashed[j.index()] {
            // The progress bound is conditioned on the receiver's liveness.
            return None;
        }
        let oldest = *self.connected[j.index()].first()?;
        if !self.live_protectors[j.index()].is_empty() {
            // Some in-flight instance already delivered to j: every window
            // starting before its termination is covered.
            return None;
        }
        let b_min = self.instances[oldest.index()].start;
        let s = match self.protected_until[j.index()] {
            Some(pf) => b_min.max(pf),
            None => b_min,
        };
        Some(s + self.config.f_prog() + Duration::TICK)
    }

    fn ensure_check(&mut self, j: NodeId) {
        if self.check_scheduled[j.index()] {
            return;
        }
        if let Some(d) = self.deadline(j) {
            let at = d.max(self.queue.now());
            self.queue.schedule(at, j, Ev::ProgressCheck(j));
            self.check_scheduled[j.index()] = true;
        }
    }

    fn progress_check(&mut self, j: NodeId) {
        self.check_scheduled[j.index()] = false;
        let now = self.queue.now();
        let Some(d) = self.deadline(j) else {
            return;
        };
        if now < d {
            self.ensure_check(j);
            return;
        }
        // The progress bound is due: force a delivery. A candidate always
        // exists here — j is unprotected, so no in-flight contender has
        // delivered to it, and the spanning connected instance qualifies.
        // `candidates` is a recycled scratch buffer.
        let mut candidates = std::mem::take(&mut self.forced_scratch);
        debug_assert!(candidates.is_empty());
        candidates.extend(self.contending[j.index()].iter().filter_map(|&id| {
            let st = &self.instances[id.index()];
            if st.terminated.is_some() || st.delivered.contains(&j) {
                return None;
            }
            Some(ForcedCandidate {
                instance: id,
                sender: st.sender,
                key: st.key,
                start: st.start,
                duplicate_for_receiver: self.seen_keys[j.index()].contains(&st.key),
                reliable_link: self.connected[j.index()].contains(&id),
            })
        }));
        if candidates.is_empty() {
            // Defensive fallback (unreachable by the invariant above):
            // terminate the oldest connected instance to restore validity.
            debug_assert!(false, "unprotected receiver with no forced candidates");
            self.forced_scratch = candidates;
            if let Some(&oldest) = self.connected[j.index()].first() {
                self.counters.forced_ack += 1;
                self.ack_instance(oldest, true);
            }
            self.ensure_check(j);
            return;
        }
        let idx = {
            let ctx = PolicyCtx {
                dual: &self.dual,
                config: &self.config,
                now,
            };
            let i = self.policy.pick_forced(&ctx, j, &candidates);
            if i < candidates.len() {
                i
            } else {
                0
            }
        };
        let chosen = candidates[idx].instance;
        candidates.clear();
        self.forced_scratch = candidates;
        self.counters.forced_rcv += 1;
        // Cancel the planned delivery (if any) and deliver now.
        let st = &mut self.instances[chosen.index()];
        if let Some(pos) = st.pending.iter().position(|(n, _)| *n == j) {
            let (_, ev) = st.pending.remove(pos);
            self.queue.cancel(ev);
        }
        self.deliver_core(chosen, j, true);
        self.ensure_check(j);
    }

    fn deliver_core(&mut self, inst: InstanceId, to: NodeId, forced: bool) {
        if self.crashed[to.index()] {
            return; // defensive: deliveries to crashed nodes are cancelled
        }
        let st = &mut self.instances[inst.index()];
        if st.terminated.is_some() || st.delivered.contains(&to) {
            return;
        }
        st.delivered.push(to);
        let key = st.key;
        // Payloads are interned: a delivery clones the Arc, not the
        // payload; the automaton borrows it for the callback.
        let msg = Arc::clone(st.msg.as_ref().expect("live instance holds its payload"));
        let _ = forced;
        self.counters.rcv += 1;
        self.emit(inst, to, TraceKind::Rcv, key);
        self.seen_keys[to.index()].insert(key);
        // The delivering instance is in flight, so it now protects `to`
        // from progress violations until it terminates.
        self.live_protectors[to.index()].insert(inst);
        let cmds = self.callback(to, |n, ctx| n.on_receive(&msg, ctx));
        self.apply(to, cmds);
    }

    fn ack_instance(&mut self, inst: InstanceId, forced: bool) {
        debug_assert!(self.instances[inst.index()].terminated.is_none());
        let _ = forced;
        // Flush pending deliveries: every rcv precedes the ack.
        let mut pend = std::mem::take(&mut self.instances[inst.index()].pending);
        for (to, ev) in pend.drain(..) {
            self.queue.cancel(ev);
            self.deliver_core(inst, to, false);
        }
        self.pending_pool.push(pend);
        let now = self.queue.now();
        let (sender, key, msg) = {
            let st = &mut self.instances[inst.index()];
            if let Some(ev) = st.ack_event.take() {
                self.queue.cancel(ev);
            }
            st.terminated = Some((now, Terminated::Acked));
            let msg = st.msg.take().expect("live instance holds its payload");
            (st.sender, st.key, msg)
        };
        self.counters.ack += 1;
        self.emit(inst, sender, TraceKind::Ack, key);
        self.cleanup_instance(inst, sender);
        let cmds = self.callback(sender, |n, ctx| n.on_ack(&msg, ctx));
        self.apply(sender, cmds);
    }

    fn abort_in_flight(&mut self, node: NodeId) {
        let inst = self.in_flight_of[node.index()]
            .unwrap_or_else(|| panic!("node {node} aborted with no broadcast in flight"));
        let now = self.queue.now();
        let (sender, key) = {
            let st = &mut self.instances[inst.index()];
            debug_assert!(st.terminated.is_none());
            let mut pend = std::mem::take(&mut st.pending);
            for (_, ev) in pend.drain(..) {
                self.queue.cancel(ev);
            }
            if let Some(ev) = st.ack_event.take() {
                self.queue.cancel(ev);
            }
            st.terminated = Some((now, Terminated::Aborted));
            st.msg = None;
            let out = (st.sender, st.key);
            self.pending_pool.push(pend);
            out
        };
        self.counters.abort += 1;
        self.emit(inst, sender, TraceKind::Abort, key);
        self.cleanup_instance(inst, sender);
    }

    fn cleanup_instance(&mut self, inst: InstanceId, sender: NodeId) {
        self.in_flight_of[sender.index()] = None;
        for &j in self.dual.reliable_neighbors(sender) {
            self.connected[j.index()].remove(&inst);
        }
        for &j in self.dual.all_neighbors(sender) {
            self.contending[j.index()].remove(&inst);
        }
        // Receivers protected by this instance lose that protection at its
        // termination time; their next possible violation window starts
        // here, so (re)arm their progress checks. The delivered list is
        // retired into the buffer pool: terminated instances keep no
        // per-delivery state.
        let now = self.queue.now();
        let mut receivers = std::mem::take(&mut self.instances[inst.index()].delivered);
        for &j in &receivers {
            if self.live_protectors[j.index()].remove(&inst) {
                let pf = &mut self.protected_until[j.index()];
                *pf = Some(pf.map_or(now, |t| t.max(now)));
                self.ensure_check(j);
            }
        }
        receivers.clear();
        self.receiver_pool.push(receivers);
    }

    /// Applies a crash: silences the node's in-flight broadcast (pending
    /// deliveries and the ack are cancelled, deliveries already made
    /// stand), cancels every delivery still headed to the node, and
    /// suppresses all of its future callbacks until recovery.
    fn crash_node(&mut self, v: NodeId) {
        if self.crashed[v.index()] {
            return;
        }
        self.crashed[v.index()] = true;
        self.counters.crash += 1;
        let now = self.queue.now();
        self.observers.emit_fault(now, v, FaultKind::Crash);
        // Silence the node's own broadcast in flight.
        if let Some(inst) = self.in_flight_of[v.index()] {
            {
                let st = &mut self.instances[inst.index()];
                debug_assert!(st.terminated.is_none());
                let mut pend = std::mem::take(&mut st.pending);
                for (_, ev) in pend.drain(..) {
                    self.queue.cancel(ev);
                }
                if let Some(ev) = st.ack_event.take() {
                    self.queue.cancel(ev);
                }
                st.terminated = Some((now, Terminated::Crashed));
                st.msg = None;
                self.pending_pool.push(pend);
            }
            self.cleanup_instance(inst, v);
        }
        // Cancel deliveries still headed to the crashed node (crashes are
        // rare, so the scan over live instances is cheap in practice).
        for idx in 0..self.instances.len() {
            let st = &mut self.instances[idx];
            if st.terminated.is_some() {
                continue;
            }
            if let Some(pos) = st.pending.iter().position(|(n, _)| *n == v) {
                let (_, ev) = st.pending.remove(pos);
                self.queue.cancel(ev);
            }
        }
    }

    /// Applies a recovery: the node's automaton state is intact, its
    /// `on_recover` callback runs, and its progress-bound tracking re-arms
    /// (in-flight broadcasts of `G`-neighbors resume entitling it to
    /// forced deliveries). A no-op for a node that is not crashed.
    fn recover_node(&mut self, v: NodeId) {
        if !self.crashed[v.index()] {
            return;
        }
        self.crashed[v.index()] = false;
        self.counters.recover += 1;
        let now = self.queue.now();
        self.observers.emit_fault(now, v, FaultKind::Recover);
        // A window uncovered while crashed does not count against the
        // model: the next possible violation starts at the recovery.
        if !self.live_protectors[v.index()].is_empty() {
            // Still protected by an in-flight instance received pre-crash.
        } else if self.connected[v.index()].first().is_some() {
            let pf = &mut self.protected_until[v.index()];
            *pf = Some(pf.map_or(now, |t| t.max(now)));
        }
        self.ensure_check(v);
        let cmds = self.callback(v, super::node::Automaton::on_recover);
        self.apply(v, cmds);
    }
}

impl<A: Automaton, P: Policy> fmt::Debug for Runtime<A, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("nodes", &self.nodes.len())
            .field("now", &self.queue.now())
            .field("instances", &self.instances.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CounterObserver;
    use crate::policies::EagerPolicy;

    #[derive(Clone, Debug)]
    struct Token(u64);
    impl MacMessage for Token {
        fn key(&self) -> MessageKey {
            MessageKey(self.0)
        }
    }

    /// Floods a single token: the source broadcasts on start; every node
    /// forwards the first copy it receives.
    struct Flooder {
        is_source: bool,
        got: Option<u64>,
    }

    impl Automaton for Flooder {
        type Msg = Token;
        type Env = ();
        type Out = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Token, u64>) {
            if self.is_source {
                self.got = Some(7);
                ctx.output(7);
                ctx.bcast(Token(7));
            }
        }

        fn on_receive(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, u64>) {
            if self.got.is_none() {
                self.got = Some(msg.0);
                ctx.output(msg.0);
                if !ctx.has_broadcast_in_flight() {
                    ctx.bcast(msg.clone());
                }
            }
        }

        fn on_ack(&mut self, _msg: &Token, _ctx: &mut Ctx<'_, Token, u64>) {}
    }

    fn line_dual(n: usize) -> DualGraph {
        DualGraph::reliable(amac_graph::generators::line(n).unwrap())
    }

    fn flooders(n: usize) -> Vec<Flooder> {
        (0..n)
            .map(|i| Flooder {
                is_source: i == 0,
                got: None,
            })
            .collect()
    }

    #[test]
    fn flood_reaches_every_node() {
        let dual = line_dual(10);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(10), EagerPolicy::new());
        assert_eq!(rt.run(), RunOutcome::Idle);
        assert_eq!(rt.outputs().len(), 10, "all nodes delivered the token");
        for i in 0..10 {
            assert_eq!(rt.node(NodeId::new(i)).got, Some(7));
        }
    }

    #[test]
    fn trace_is_recorded_and_consistent() {
        let dual = line_dual(5);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(5), EagerPolicy::new()).tracing();
        rt.run();
        let trace = rt.trace().unwrap();
        assert_eq!(trace.count(TraceKind::Bcast), 5);
        assert_eq!(trace.count(TraceKind::Ack), 5);
        assert!(trace.count(TraceKind::Rcv) >= 4);
    }

    #[test]
    fn counters_track_events() {
        let dual = line_dual(4);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(4), EagerPolicy::new());
        rt.run();
        assert_eq!(rt.counters().get("bcast"), 4);
        assert_eq!(rt.counters().get("ack"), 4);
        assert!(rt.counters().get("events") > 0);
    }

    #[test]
    fn observers_attach_detach_and_stream_events() {
        let dual = line_dual(4);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(4), EagerPolicy::new());
        let counters = rt.attach(CounterObserver::new());
        let tracer = rt.attach(TraceObserver::new());
        rt.run();
        assert_eq!(rt.observer(&counters).count(TraceKind::Bcast), 4);
        assert_eq!(
            rt.observer(&counters).total(),
            rt.observer(&tracer).trace().len() as u64,
            "both observers saw the same stream"
        );
        let trace = rt.detach(tracer).into_trace();
        assert_eq!(trace.count(TraceKind::Ack), 4);
        // Runtime-level counters agree with the observer.
        assert_eq!(rt.counters().get("bcast"), 4);
        assert_eq!(rt.detach(counters).count(TraceKind::Ack), 4);
    }

    #[test]
    fn run_until_respects_horizon() {
        let dual = line_dual(50);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(50), EagerPolicy::new());
        let outcome = rt.run_until(Time::from_ticks(5));
        assert_eq!(outcome, RunOutcome::TimeLimit);
        assert!(rt.now() <= Time::from_ticks(5));
        assert_eq!(rt.run(), RunOutcome::Idle);
        assert_eq!(rt.outputs().len(), 50);
    }

    #[test]
    fn event_limit_stops_execution() {
        let dual = line_dual(30);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(30), EagerPolicy::new()).with_event_limit(10);
        assert_eq!(rt.run(), RunOutcome::EventLimit);
    }

    #[test]
    fn default_runtime_records_no_trace() {
        let dual = line_dual(3);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(3), EagerPolicy::new());
        rt.run();
        assert!(rt.trace().is_none(), "tracing is opt-in");
        assert!(rt.into_trace().is_none());
    }

    #[test]
    fn drain_outputs_keeps_capacity_and_order() {
        let dual = line_dual(6);
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rt = Runtime::new(dual, cfg, flooders(6), EagerPolicy::new());
        let mut drained = Vec::new();
        loop {
            match rt.run_until_next(Time::MAX) {
                Some(_) => break,
                None => drained.extend(rt.drain_outputs()),
            }
        }
        drained.extend(rt.drain_outputs());
        assert_eq!(drained.len(), 6);
        assert!(rt.outputs().is_empty());
        assert!(drained.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn env_injection_dispatches() {
        struct EnvNode {
            seen: Vec<u32>,
        }
        impl Automaton for EnvNode {
            type Msg = Token;
            type Env = u32;
            type Out = ();
            fn on_env(&mut self, input: u32, _ctx: &mut Ctx<'_, Token, ()>) {
                self.seen.push(input);
            }
            fn on_receive(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
            fn on_ack(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
        }
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(1, 4);
        let nodes = vec![EnvNode { seen: vec![] }, EnvNode { seen: vec![] }];
        let mut rt = Runtime::new(dual, cfg, nodes, EagerPolicy::new());
        rt.inject(NodeId::new(0), 11);
        rt.inject_at(Time::from_ticks(3), NodeId::new(1), 22);
        rt.run();
        assert_eq!(rt.node(NodeId::new(0)).seen, vec![11]);
        assert_eq!(rt.node(NodeId::new(1)).seen, vec![22]);
    }

    #[test]
    #[should_panic(expected = "user well-formedness")]
    fn double_bcast_panics() {
        struct Bad;
        impl Automaton for Bad {
            type Msg = Token;
            type Env = ();
            type Out = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token, ()>) {
                ctx.bcast(Token(1));
                ctx.bcast(Token(2));
            }
            fn on_receive(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
            fn on_ack(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
        }
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(1, 4);
        let mut rt = Runtime::new(dual, cfg, vec![Bad, Bad], EagerPolicy::new());
        rt.run();
    }

    #[test]
    #[should_panic(expected = "requires the enhanced abstract MAC layer")]
    fn timers_require_enhanced_variant() {
        struct Timed;
        impl Automaton for Timed {
            type Msg = Token;
            type Env = ();
            type Out = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token, ()>) {
                ctx.set_timer(Duration::from_ticks(1), 0);
            }
            fn on_receive(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
            fn on_ack(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
        }
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(1, 4); // standard variant
        let mut rt = Runtime::new(dual, cfg, vec![Timed, Timed], EagerPolicy::new());
        rt.run();
    }

    #[test]
    fn enhanced_timer_fires_and_abort_works() {
        struct RoundNode {
            fired: bool,
            aborted: bool,
        }
        impl Automaton for RoundNode {
            type Msg = Token;
            type Env = ();
            type Out = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token, ()>) {
                if ctx.id().index() == 0 {
                    ctx.bcast(Token(1));
                    ctx.set_timer(Duration::from_ticks(3), 42);
                }
            }
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Token, ()>) {
                assert_eq!(tag, 42);
                self.fired = true;
                if ctx.has_broadcast_in_flight() {
                    ctx.abort();
                    self.aborted = true;
                }
            }
            fn on_receive(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
            fn on_ack(&mut self, _m: &Token, _c: &mut Ctx<'_, Token, ()>) {}
        }
        let dual = line_dual(2);
        // Lazy ack: use a policy with a long ack so the abort lands first.
        let cfg = MacConfig::from_ticks(2, 100).enhanced();
        let nodes = vec![
            RoundNode {
                fired: false,
                aborted: false,
            },
            RoundNode {
                fired: false,
                aborted: false,
            },
        ];
        let mut rt = Runtime::new(dual, cfg, nodes, crate::policies::LazyPolicy::new()).tracing();
        rt.run();
        assert!(rt.node(NodeId::new(0)).fired);
        assert!(rt.node(NodeId::new(0)).aborted);
        let trace = rt.trace().unwrap();
        assert_eq!(trace.count(TraceKind::Abort), 1);
        assert_eq!(trace.count(TraceKind::Ack), 0);
    }

    #[test]
    fn crash_silences_the_source_before_delivery() {
        // The source broadcasts at t=0 under the lazy policy (deliveries
        // held to the forced-progress schedule); crashing it at t=1 —
        // before any forced delivery is due — must silence the flood.
        let dual = line_dual(5);
        let cfg = MacConfig::from_ticks(3, 60);
        let plan = FaultPlan::new().crash_at(NodeId::new(0), Time::from_ticks(1));
        let mut rt = Runtime::new(
            dual.clone(),
            cfg,
            flooders(5),
            crate::policies::LazyPolicy::new(),
        )
        .tracing()
        .with_faults(plan);
        assert_eq!(rt.run(), RunOutcome::Idle);
        assert_eq!(rt.outputs().len(), 1, "only the source itself delivered");
        assert!(rt.is_crashed(NodeId::new(0)));
        assert_eq!(rt.counters().get("crash"), 1);
        assert_eq!(rt.counters().get("rcv"), 0);
        let trace = rt.trace().unwrap();
        assert_eq!(trace.faults().len(), 1);
        assert_eq!(trace.count(TraceKind::Ack), 0);
        let report = crate::validate(trace, &dual, &cfg, true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn mid_instance_crash_leaves_partial_delivery_standing() {
        // Star: the hub floods, the eager policy delivers after one tick
        // (t=1) and would ack at t=2; the crash lands at t=2 but was
        // enqueued before the ack, so the deliveries stand and the ack is
        // silenced — and the trace is still valid.
        let dual = DualGraph::reliable(amac_graph::generators::star(4).unwrap());
        let cfg = MacConfig::from_ticks(2, 16);
        let nodes = flooders(4);
        let plan = FaultPlan::new().crash_at(NodeId::new(0), Time::from_ticks(2));
        let mut rt = Runtime::new(
            dual.clone(),
            cfg,
            nodes,
            EagerPolicy::new().with_delivery_delay(Duration::from_ticks(1)),
        )
        .tracing()
        .with_faults(plan);
        rt.run();
        // Same-tick ordering: deliveries at t=1 were scheduled before the
        // crash at t=1, so the leaves hear the token; the ack (t=2) does
        // not fire.
        let trace = rt.trace().unwrap();
        assert_eq!(trace.of_kind(TraceKind::Rcv).count(), 3);
        assert_eq!(
            trace
                .of_kind(TraceKind::Ack)
                .filter(|e| e.node == NodeId::new(0))
                .count(),
            0,
            "the crashed hub never acks"
        );
        let report = crate::validate(trace, &dual, &cfg, true);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn crashed_receiver_gets_nothing_until_recovery() {
        struct Recoverer {
            is_source: bool,
            got: Option<u64>,
            recovered: bool,
        }
        impl Automaton for Recoverer {
            type Msg = Token;
            type Env = ();
            type Out = u64;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Token, u64>) {
                if self.is_source {
                    ctx.bcast(Token(9));
                }
            }
            fn on_receive(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, u64>) {
                self.got = Some(msg.0);
                ctx.output(msg.0);
            }
            fn on_ack(&mut self, _m: &Token, ctx: &mut Ctx<'_, Token, u64>) {
                // Keep rebroadcasting so the recovered neighbor can catch
                // up via the progress bound.
                if self.is_source {
                    ctx.bcast(Token(9));
                }
            }
            fn on_recover(&mut self, _ctx: &mut Ctx<'_, Token, u64>) {
                self.recovered = true;
            }
        }
        let dual = line_dual(2);
        let cfg = MacConfig::from_ticks(2, 8);
        let nodes = vec![
            Recoverer {
                is_source: true,
                got: None,
                recovered: false,
            },
            Recoverer {
                is_source: false,
                got: None,
                recovered: false,
            },
        ];
        let plan = FaultPlan::new()
            .crash_at(NodeId::new(1), Time::ZERO)
            .recover_at(NodeId::new(1), Time::from_ticks(20));
        let mut rt = Runtime::new(dual.clone(), cfg, nodes, EagerPolicy::new())
            .tracing()
            .with_faults(plan)
            .with_event_limit(5_000);
        rt.run_until(Time::from_ticks(40));
        let receiver = rt.node(NodeId::new(1));
        assert!(receiver.recovered, "on_recover must run");
        assert_eq!(receiver.got, Some(9), "catches up after recovery");
        let first_rcv = rt
            .trace()
            .unwrap()
            .of_kind(TraceKind::Rcv)
            .map(|e| e.time)
            .next()
            .unwrap();
        assert!(
            first_rcv >= Time::from_ticks(20),
            "no delivery during the outage, got one at {first_rcv}"
        );
        assert_eq!(rt.counters().get("recover"), 1);
    }

    #[test]
    fn sharded_flood_trace_is_identical_to_sequential() {
        let dual = line_dual(20);
        let cfg = MacConfig::from_ticks(3, 24);
        let mut seq = Runtime::new(dual.clone(), cfg, flooders(20), EagerPolicy::new()).tracing();
        seq.run();
        let seq_trace = seq.into_trace().unwrap();
        for k in [1usize, 2, 4, 7, 25] {
            let mut sh = Runtime::new(dual.clone(), cfg, flooders(20), EagerPolicy::new())
                .with_shards(k)
                .tracing();
            sh.run();
            assert!(sh.shard_stats().is_some());
            let sh_trace = sh.into_trace().unwrap();
            assert_eq!(
                seq_trace.entries(),
                sh_trace.entries(),
                "trace diverged at k = {k}"
            );
        }
    }

    #[test]
    fn shard_of_reports_the_runtime_partition() {
        let dual = line_dual(20);
        let cfg = MacConfig::from_ticks(3, 24);
        let seq = Runtime::new(dual.clone(), cfg, flooders(20), EagerPolicy::new());
        assert_eq!(seq.shard_of(NodeId::new(0)), None);
        let part = amac_graph::partition::contiguous(&dual, 4);
        let sh = Runtime::new(dual, cfg, flooders(20), EagerPolicy::new()).with_shards(4);
        for i in 0..20 {
            let node = NodeId::new(i);
            assert_eq!(sh.shard_of(node), Some(part.shard_of(node)));
        }
    }

    #[test]
    #[should_panic(expected = "shard count 257 outside")]
    fn shard_counts_above_the_limit_panic_instead_of_clamping() {
        let dual = line_dual(4);
        let cfg = MacConfig::from_ticks(2, 16);
        let _ = Runtime::new(dual, cfg, flooders(4), EagerPolicy::new())
            .with_shards(amac_sim::MAX_SHARDS + 1);
    }

    #[test]
    fn sharded_run_with_faults_matches_sequential() {
        let dual = line_dual(12);
        let cfg = MacConfig::from_ticks(3, 24);
        let plan = FaultPlan::new()
            .crash_at(NodeId::new(5), Time::from_ticks(4))
            .recover_at(NodeId::new(5), Time::from_ticks(30));
        let mut seq = Runtime::new(
            dual.clone(),
            cfg,
            flooders(12),
            crate::policies::LazyPolicy::new(),
        )
        .tracing()
        .with_faults(plan.clone());
        seq.run();
        let seq_trace = seq.into_trace().unwrap();
        let mut sh = Runtime::new(
            dual.clone(),
            cfg,
            flooders(12),
            crate::policies::LazyPolicy::new(),
        )
        .with_shards(4)
        .tracing()
        .with_faults(plan);
        sh.run();
        let sh_trace = sh.into_trace().unwrap();
        assert_eq!(seq_trace.entries(), sh_trace.entries());
        assert_eq!(seq_trace.faults(), sh_trace.faults());
    }

    #[test]
    #[should_panic(expected = "before with_faults")]
    fn with_shards_after_faults_panics() {
        let dual = line_dual(4);
        let cfg = MacConfig::from_ticks(2, 16);
        let plan = FaultPlan::new().crash_at(NodeId::new(1), Time::from_ticks(1));
        let _ = Runtime::new(dual, cfg, flooders(4), EagerPolicy::new())
            .with_faults(plan)
            .with_shards(2);
    }

    #[test]
    fn lazy_policy_progress_forced_delivery() {
        // With a lazy policy on a line, the progress bound must still make
        // the token advance one hop every F_prog, not every F_ack.
        let dual = line_dual(6);
        let cfg = MacConfig::from_ticks(3, 60);
        let mut rt = Runtime::new(dual, cfg, flooders(6), crate::policies::LazyPolicy::new());
        rt.run();
        assert_eq!(rt.outputs().len(), 6);
        // Node 5 is 5 hops away: it must receive by roughly 5*F_prog plus
        // slack, far below 5*F_ack = 300.
        let last = rt.outputs().iter().map(|o| o.time).max().unwrap();
        assert!(
            last.ticks() <= 5 * 3 + 10,
            "token should travel at F_prog speed, took {last:?}"
        );
        assert!(rt.counters().get("forced_rcv") > 0);
    }
}
