//! The traced run: per-layer metrics, timed from outside the program.
//!
//! The benchmark drives [`Runtime`] itself, with the same loop as the
//! `amac-core` harnesses, and wraps the public [`Policy`], [`Automaton`]
//! and [`Observer`] traits in delegates that count every call and time a
//! sample of them. Every [`SAMPLE_EVERY`]-th runtime step (or replayed
//! record) is sampled: it and every layer call inside it are timed, the
//! others are only counted. Each timed interval is corrected by the
//! measured cost of one clock read (see [`clock_read_ns`]).
//!
//! The traced run also times the layers outside the event loop: topology
//! generation and `DualGraph::new` (graph), the event queue under a hold
//! model ([`crate::hold`]), the sharded engine modes (`flood_grid` only),
//! and the trace store's writer and reader with the replay observers
//! (`trace_replay` only). A metric of a layer that the workload does not
//! exercise reads 0.

use crate::hold::{self, HoldProfile};
use crate::host;
use crate::measure::Checks;
use crate::report::{median, metric, Metric};
use crate::workloads::{self, Inputs, Outcome, Recording, ReplaySummary, Size, Tee, Workload};
use amac_core::{run_bmmb, run_fmmb, Bmmb, CompletionTracker, Delivered, Fmmb, MisStatus};
use amac_core::{MmbMessage, RunOptions};
use amac_graph::{algo, DualGraph, NodeId, NodeSet};
use amac_mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
use amac_mac::trace::TraceEntry;
use amac_mac::{Automaton, BcastInfo, BcastPlan, Ctx, FaultKind, ForcedCandidate};
use amac_mac::{Observer, OnlineValidator, Policy, PolicyCtx, RunOutcome, Runtime};
use amac_obs::MetricsObserver;
use amac_sim::{SimRng, Time};
use amac_store::{StoreObserver, StoredRecord, TraceReader};
use std::cell::Cell;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One runtime step (or replayed record) in this many is timed, with
/// every layer call inside it; the rest are only counted.
pub const SAMPLE_EVERY: u64 = 8;

/// Shards of the fused and threaded engine lanes.
const LANE_SHARDS: usize = 4;

/// Worker threads of the threaded engine lane (`nproc` on the reference
/// host).
const LANE_THREADS: usize = 2;

/// Fewest untraced repetitions the tracing overhead is measured against.
const UNTRACED_REPS: usize = 3;

/// Hold-model repetitions (median reported) and operations per
/// repetition.
const HOLD_REPS: usize = 3;
const HOLD_OPS: u64 = 2_000_000;

/// Median cost of reading the monotonic clock, in nanoseconds: the
/// interval between two back-to-back `Instant::now` calls.
pub fn clock_read_ns() -> f64 {
    let samples: Vec<f64> = (0..10_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Calls into one layer: how many, how many were timed, and their time.
#[derive(Debug, Default)]
pub struct Lane {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    nanos: Cell<u64>,
}

impl Lane {
    /// Counts a call to `f`, timing it when `sampling` is set.
    #[inline]
    pub fn call<R>(&self, sampling: bool, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        if !sampling {
            return f();
        }
        let started = Instant::now();
        let out = f();
        let nanos = started.elapsed().as_nanos() as u64;
        self.nanos.set(self.nanos.get() + nanos);
        self.sampled.set(self.sampled.get() + 1);
        out
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean time of one call, less one clock read (0 without samples).
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        let sampled = self.sampled.get();
        if sampled == 0 {
            return 0.0;
        }
        (self.nanos.get() as f64 / sampled as f64 - clock_ns).max(0.0)
    }
}

/// The per-layer ledger the delegates write into, shared with the loop
/// that drives the runtime or the replay.
#[derive(Debug, Default)]
pub struct Ledger {
    sampling: Cell<bool>,
    /// `Policy::plan_bcast`.
    pub plan_bcast: Lane,
    /// `Policy::pick_forced`.
    pub pick_forced: Lane,
    /// `Automaton::on_timer`.
    pub on_timer: Lane,
    /// Every other automaton callback.
    pub other_callbacks: Lane,
    /// The `OnlineValidator`.
    pub validator: Lane,
    /// The recording `StoreObserver`.
    pub store: Lane,
    /// The `MetricsObserver`.
    pub metrics: Lane,
    /// `CompletionTracker::record`.
    pub tracker: Lane,
    /// `TraceReader::next_record`.
    pub decode: Lane,
    /// Runtime steps: the step, output draining and tracking.
    pub steps: Lane,
}

impl Ledger {
    fn sampling(&self) -> bool {
        self.sampling.get()
    }

    /// Runtime self time per event: a sampled step's time less the time
    /// of the layer calls inside it, with one clock read taken off for the
    /// step and one for each timed call inside it.
    pub fn runtime_self_ns(&self, clock_ns: f64) -> f64 {
        let steps = self.steps.sampled.get();
        if steps == 0 {
            return 0.0;
        }
        let children = [
            &self.plan_bcast,
            &self.pick_forced,
            &self.on_timer,
            &self.other_callbacks,
            &self.validator,
            &self.store,
            &self.tracker,
        ];
        let child_nanos: u64 = children.iter().map(|l| l.nanos.get()).sum();
        let child_calls: u64 = children.iter().map(|l| l.sampled.get()).sum();
        let self_nanos = self.steps.nanos.get() as f64
            - child_nanos as f64
            - clock_ns * (steps + child_calls) as f64;
        (self_nanos / steps as f64).max(0.0)
    }
}

/// A [`Policy`] delegate that counts and times the calls into `P`.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    ledger: Rc<Ledger>,
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn plan_bcast(&mut self, ctx: &PolicyCtx<'_>, info: &BcastInfo) -> BcastPlan {
        let sampling = self.ledger.sampling();
        self.ledger
            .plan_bcast
            .call(sampling, || self.inner.plan_bcast(ctx, info))
    }

    fn pick_forced(
        &mut self,
        ctx: &PolicyCtx<'_>,
        receiver: NodeId,
        candidates: &[ForcedCandidate],
    ) -> usize {
        let sampling = self.ledger.sampling();
        self.ledger.pick_forced.call(sampling, || {
            self.inner.pick_forced(ctx, receiver, candidates)
        })
    }
}

/// An [`Automaton`] delegate that counts and times the callbacks into `A`.
#[derive(Debug)]
pub struct TimedAutomaton<A> {
    /// The wrapped node.
    pub inner: A,
    ledger: Rc<Ledger>,
}

type NodeCtx<'a, A> = Ctx<'a, <A as Automaton>::Msg, <A as Automaton>::Out>;

impl<A: Automaton> TimedAutomaton<A> {
    fn other(&mut self, f: impl FnOnce(&mut A)) {
        let sampling = self.ledger.sampling();
        self.ledger
            .other_callbacks
            .call(sampling, || f(&mut self.inner));
    }
}

impl<A: Automaton> Automaton for TimedAutomaton<A> {
    type Msg = A::Msg;
    type Env = A::Env;
    type Out = A::Out;

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, A>) {
        self.other(|a| a.on_start(ctx));
    }

    fn on_env(&mut self, input: A::Env, ctx: &mut NodeCtx<'_, A>) {
        self.other(|a| a.on_env(input, ctx));
    }

    fn on_receive(&mut self, msg: &A::Msg, ctx: &mut NodeCtx<'_, A>) {
        self.other(|a| a.on_receive(msg, ctx));
    }

    fn on_ack(&mut self, msg: &A::Msg, ctx: &mut NodeCtx<'_, A>) {
        self.other(|a| a.on_ack(msg, ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut NodeCtx<'_, A>) {
        let sampling = self.ledger.sampling();
        self.ledger
            .on_timer
            .call(sampling, || self.inner.on_timer(tag, ctx));
    }

    fn on_recover(&mut self, ctx: &mut NodeCtx<'_, A>) {
        self.other(|a| a.on_recover(ctx));
    }
}

/// An [`Observer`] delegate that counts and times the events fed to `O`
/// in the ledger lane `lane` picks.
#[derive(Debug)]
pub struct TimedObserver<O> {
    /// The wrapped observer.
    pub inner: O,
    ledger: Rc<Ledger>,
    lane: fn(&Ledger) -> &Lane,
}

impl<O> TimedObserver<O> {
    fn new(inner: O, ledger: &Rc<Ledger>, lane: fn(&Ledger) -> &Lane) -> TimedObserver<O> {
        TimedObserver {
            inner,
            ledger: Rc::clone(ledger),
            lane,
        }
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_event(&mut self, event: &TraceEntry) {
        let sampling = self.ledger.sampling();
        (self.lane)(&self.ledger).call(sampling, || self.inner.on_event(event));
    }

    fn on_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        let sampling = self.ledger.sampling();
        (self.lane)(&self.ledger).call(sampling, || self.inner.on_fault(time, node, kind));
    }
}

/// What a traced simulation produced.
struct TracedSim {
    wall_s: f64,
    outcome: Outcome,
    deliveries: u64,
    peak_tracked: u64,
    completion_ticks: u64,
    counters: amac_sim::stats::Counters,
    /// The live run's summary and the recording, when one was attached.
    recording: Option<(ReplaySummary, StoreObserver, usize)>,
}

/// Runs one workload's simulation on the traced harness: the loop of
/// `amac_core::run_mmb`, with every layer behind a timing delegate.
/// `inspect` adds workload-specific checks and counters from the final
/// runtime state.
fn simulate<A, P>(
    inputs: &Inputs,
    nodes: Vec<A>,
    policy: P,
    stop_on_completion: bool,
    store: Option<StoreObserver>,
    ledger: &Rc<Ledger>,
    inspect: impl FnOnce(&Runtime<TimedAutomaton<A>, TimedPolicy<P>>, &mut Outcome),
) -> TracedSim
where
    A: Automaton<Env = MmbMessage, Out = Delivered>,
    P: Policy,
{
    let nodes = nodes
        .into_iter()
        .map(|inner| TimedAutomaton {
            inner,
            ledger: Rc::clone(ledger),
        })
        .collect();
    let policy = TimedPolicy {
        inner: policy,
        ledger: Rc::clone(ledger),
    };
    let mut rt = Runtime::new(inputs.dual.clone(), inputs.config, nodes, policy);
    let validator = rt.attach(TimedObserver::new(
        OnlineValidator::new(inputs.dual.clone(), inputs.config),
        ledger,
        |l| &l.validator,
    ));
    let store = store.map(|s| rt.attach(TimedObserver::new(s, ledger, |l| &l.store)));
    for (node, msg) in inputs.assignment.arrivals() {
        rt.inject(*node, *msg);
    }

    let mut tracker = CompletionTracker::new(&inputs.dual, &inputs.assignment);
    let mut deliveries = 0u64;
    let mut step = 0u64;
    let started = Instant::now();
    let outcome = loop {
        if stop_on_completion && tracker.is_complete() {
            break RunOutcome::Stopped;
        }
        let sampling = step.is_multiple_of(SAMPLE_EVERY);
        step += 1;
        ledger.sampling.set(sampling);
        let step_outcome = ledger.steps.call(sampling, || {
            let step_outcome = rt.run_until_next(Time::MAX);
            for rec in rt.drain_outputs() {
                deliveries += 1;
                let Delivered(id) = rec.out;
                ledger
                    .tracker
                    .call(sampling, || tracker.record(rec.time, rec.node, id));
            }
            step_outcome
        });
        if let Some(o) = step_outcome {
            break o;
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    ledger.sampling.set(false);

    let validator = rt.detach(validator).inner;
    let stats = validator.stats();
    let validation = validator.into_report(outcome == RunOutcome::Idle);
    let counters = rt.counters();
    let mut result = Outcome {
        work: counters.get("events"),
        counters: workloads::run_counters(
            &counters,
            tracker.completed_at(),
            rt.instances_started(),
        ),
        failures: Vec::new(),
    };
    if tracker.remaining() > 0 {
        result.failures.push(format!(
            "{} required deliveries missing",
            tracker.remaining()
        ));
    }
    if !validation.is_ok() {
        result
            .failures
            .push(format!("validator: {}", validation.summary()));
    }
    inspect(&rt, &mut result);
    let recording = store.map(|handle| {
        let live = ReplaySummary {
            events: stats.events,
            quiescent: outcome == RunOutcome::Idle,
            validation,
            stats,
        };
        (live, rt.detach(handle).inner, tracker.remaining())
    });
    TracedSim {
        wall_s,
        deliveries,
        peak_tracked: stats.peak_tracked as u64,
        completion_ticks: tracker.completed_at().map_or(0, Time::ticks),
        counters,
        outcome: result,
        recording,
    }
}

fn bmmb_nodes(n: usize) -> Vec<Bmmb> {
    (0..n).map(|_| Bmmb::new()).collect()
}

/// The nodes `run_fmmb` builds for the same inputs.
fn fmmb_nodes(inputs: &Inputs) -> Vec<Fmmb> {
    let params = workloads::fmmb_params(inputs);
    let n = inputs.dual.len();
    let schedule = params.schedule(n);
    let root = SimRng::seed(inputs.fmmb_seed);
    (0..n)
        .map(|i| {
            Fmmb::new(
                schedule.clone(),
                params.activation_probability,
                root.split(i as u64),
            )
        })
        .collect()
}

/// The traced simulation of `inputs`' workload (for `trace_replay`, the
/// recording run, streamed to `trace` through a timed store delegate).
fn traced_simulation(inputs: &Inputs, trace: &Path, ledger: &Rc<Ledger>) -> TracedSim {
    let n = inputs.dual.len();
    match inputs.workload {
        Workload::FloodGrid => simulate(
            inputs,
            bmmb_nodes(n),
            EagerPolicy::new(),
            false,
            None,
            ledger,
            |_, _| {},
        ),
        Workload::GreyzoneLazy => simulate(
            inputs,
            bmmb_nodes(n),
            LazyPolicy::new().prefer_duplicates(),
            false,
            None,
            ledger,
            |_, _| {},
        ),
        Workload::FmmbEnhanced => simulate(
            inputs,
            fmmb_nodes(inputs),
            LazyPolicy::new(),
            true,
            None,
            ledger,
            |rt, outcome| {
                let mut mis = NodeSet::new(n);
                for i in 0..n {
                    if rt.node(NodeId::new(i)).inner.mis_status() == MisStatus::InMis {
                        mis.insert(NodeId::new(i));
                    }
                }
                if !algo::is_maximal_independent(inputs.dual.g(), &mis) {
                    outcome
                        .failures
                        .push("FMMB MIS is not a maximal independent set of G".to_string());
                }
                outcome.counters.push(("mis_size", mis.len() as u64));
            },
        ),
        Workload::TraceReplay => {
            let store =
                StoreObserver::create(trace, &inputs.dual, inputs.config, inputs.seed, None)
                    .expect("the benchmark directory is writable");
            simulate(
                inputs,
                bmmb_nodes(n),
                RandomPolicy::new(inputs.policy_seed),
                false,
                Some(store),
                ledger,
                |_, _| {},
            )
        }
    }
}

/// The replay layers, measured in one traced pass over the recording.
struct TracedReplay {
    wall_s: f64,
    open_s: f64,
    records: u64,
    bytes: u64,
    dual: Option<DualGraph>,
    outcome: Outcome,
}

/// Replays the recording the way the `trace_replay` timed phase does, but
/// drives `TraceReader::next_record` itself so that decoding and both
/// observers are timed separately.
fn traced_replay(recording: &Recording, ledger: &Rc<Ledger>) -> TracedReplay {
    let bytes = std::fs::metadata(&recording.path).map_or(0, |m| m.len());
    let failed = |failure: String| TracedReplay {
        wall_s: 0.0,
        open_s: 0.0,
        records: 0,
        bytes,
        dual: None,
        outcome: Outcome {
            work: 0,
            counters: Vec::new(),
            failures: vec![failure],
        },
    };
    let started = Instant::now();
    let mut reader = match TraceReader::open(&recording.path) {
        Ok(reader) => reader,
        Err(e) => return failed(format!("cannot open the trace: {e}")),
    };
    let open_s = started.elapsed().as_secs_f64();
    let config = reader.config();
    let mut tee = Tee(
        TimedObserver::new(
            OnlineValidator::new(reader.dual().clone(), config),
            ledger,
            |l| &l.validator,
        ),
        TimedObserver::new(MetricsObserver::new(config), ledger, |l| &l.metrics),
    );
    let mut records = 0u64;
    loop {
        let sampling = records.is_multiple_of(SAMPLE_EVERY);
        ledger.sampling.set(sampling);
        match ledger.decode.call(sampling, || reader.next_record()) {
            Ok(Some(StoredRecord::Event(e))) => tee.on_event(&e),
            Ok(Some(StoredRecord::Fault(f))) => tee.on_fault(f.time, f.node, f.kind),
            Ok(None) => break,
            Err(e) => return failed(format!("corrupt trace: {e}")),
        }
        records += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    ledger.sampling.set(false);

    let trailer = *reader.trailer().expect("the loop ends at the trailer");
    let Tee(validator, metrics) = tee;
    let validator = validator.inner;
    let stats = validator.stats();
    let replayed = ReplaySummary {
        events: trailer.events,
        quiescent: trailer.quiescent,
        validation: validator.into_report(trailer.quiescent),
        stats,
    };
    let metrics = metrics.inner.into_report();
    let mut failures = Vec::new();
    workloads::check_recording(recording, &replayed, &mut failures);
    TracedReplay {
        wall_s,
        open_s,
        records,
        bytes,
        dual: Some(reader.dual().clone()),
        outcome: Outcome {
            work: records,
            counters: workloads::replay_counters(records, &metrics, &stats),
            failures,
        },
    }
}

/// Times `DualGraph::new` on the graphs of `dual` (copied beforehand).
fn dual_new_s(dual: &DualGraph) -> f64 {
    let (g, g_prime) = (dual.g().clone(), dual.g_prime().clone());
    let started = Instant::now();
    let rebuilt = DualGraph::new(g, g_prime).expect("a valid dual graph rebuilds");
    let secs = started.elapsed().as_secs_f64();
    std::hint::black_box(rebuilt.diameter());
    secs
}

/// The queue profile of a simulation workload, from its counters and the
/// peak pending-event count of a one-shard run (`ShardStats` of a
/// one-shard queue is the whole queue's). Returns the profile and the
/// one-shard run's outcome, whose counters must equal the sequential
/// run's.
fn queue_profile(inputs: &Inputs) -> (HoldProfile, Outcome) {
    let options = RunOptions::fast().with_shards(1);
    let (stats, outcome, counters) = match inputs.workload {
        Workload::FmmbEnhanced => {
            let report = run_fmmb(
                &inputs.dual,
                inputs.config,
                &inputs.assignment,
                &workloads::fmmb_params(inputs),
                inputs.fmmb_seed,
                LazyPolicy::new(),
                &options.stopping_on_completion(),
            );
            let mut counters =
                workloads::run_counters(&report.counters, report.completion, report.instances);
            counters.push(("mis_size", report.mis.len() as u64));
            (report.shard_stats, report.counters, counters)
        }
        workload => {
            let report = match workload {
                Workload::FloodGrid => run_bmmb(
                    &inputs.dual,
                    inputs.config,
                    &inputs.assignment,
                    EagerPolicy::new(),
                    &options,
                ),
                Workload::GreyzoneLazy => run_bmmb(
                    &inputs.dual,
                    inputs.config,
                    &inputs.assignment,
                    LazyPolicy::new().prefer_duplicates(),
                    &options,
                ),
                _ => run_bmmb(
                    &inputs.dual,
                    inputs.config,
                    &inputs.assignment,
                    RandomPolicy::new(inputs.policy_seed),
                    &options,
                ),
            };
            let counters =
                workloads::run_counters(&report.counters, report.completion, report.instances);
            (report.shard_stats, report.counters, counters)
        }
    };
    let depth = stats.map_or(0, |s| s.max_peak_pending());
    let config = inputs.config;
    let spread_ticks = if config.is_enhanced() {
        // FMMB's timers fire at the round length, F_prog + 2.
        config.f_prog().ticks() + 2
    } else {
        config.f_ack().ticks()
    };
    let events = outcome.get("events").max(1);
    let profile = HoldProfile {
        depth,
        spread_ticks,
        cancel_frac: outcome.get("abort") as f64 / events as f64,
    };
    let result = Outcome {
        work: outcome.get("events"),
        counters,
        failures: Vec::new(),
    };
    (profile, result)
}

/// The engine-mode lanes (`flood_grid` only): events per second of the
/// fused sharded queue and of the threaded drain, and the threaded
/// drain's barrier-wait share from a profiled run. Each lane's outcome
/// must repeat the sequential counters.
fn engine_lanes(inputs: &Inputs, checks: &mut Checks) -> (f64, f64, f64) {
    let lane = |options: RunOptions| {
        let started = Instant::now();
        let report = run_bmmb(
            &inputs.dual,
            inputs.config,
            &inputs.assignment,
            EagerPolicy::new(),
            &options,
        );
        (report, started.elapsed().as_secs_f64())
    };
    let fused = RunOptions::default().with_shards(LANE_SHARDS);
    let threaded = fused.clone().with_shard_threads(LANE_THREADS);
    let mut rates = Vec::new();
    for options in [fused, threaded.clone()] {
        let (report, secs) = lane(options);
        let outcome = workloads::mmb_outcome(&report);
        rates.push(outcome.work as f64 / secs.max(1e-9));
        checks.record(&outcome);
    }
    let (profiled, _) = lane(threaded.with_metrics());
    checks.record(&workloads::mmb_outcome(&profiled));
    let workers = profiled
        .metrics
        .and_then(|m| m.profile)
        .map(|p| p.workers)
        .unwrap_or_default();
    let wait: u64 = workers.iter().map(|w| w.barrier_wait_nanos).sum();
    let total: u64 = workers
        .iter()
        .map(|w| w.busy_nanos + w.barrier_wait_nanos + w.idle_nanos)
        .sum();
    let wait_frac = if total == 0 {
        0.0
    } else {
        wait as f64 / total as f64
    };
    (rates[0], rates[1], wait_frac)
}

/// Runs the traced measurement of one workload and returns every
/// per-layer metric. The untraced reference repetitions fill whatever of
/// `seconds` the passes leave. Every simulation and replay it makes is
/// checked and counted in `checks`; the recording it writes for
/// `trace_replay` is left at `trace` for the caller to remove.
pub fn per_layer(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    trace: &Path,
    checks: &mut Checks,
) -> Vec<Metric> {
    let run_started = Instant::now();
    let clock_ns = clock_read_ns();

    // Graph layer: the generator on its own, then the rest of set-up.
    let started = Instant::now();
    std::hint::black_box(workloads::topology(size, seed));
    let generate_s = started.elapsed().as_secs_f64();
    let mut inputs = workloads::inputs(workload, size, seed);

    // MAC, core and (for trace_replay) store-writer layers.
    let ledger = Rc::new(Ledger::default());
    let mut sim = traced_simulation(&inputs, trace, &ledger);
    if let Some((live, store, missing)) = sim.recording.take() {
        let quiescent = live.quiescent;
        if let Err(e) = store.finish(quiescent) {
            sim.outcome
                .failures
                .push(format!("cannot finish the recording: {e}"));
        }
        inputs.recording = Some(Recording {
            path: trace.to_path_buf(),
            live,
            missing,
        });
    }
    // The recording run's counters are not a replay's: for trace_replay
    // only its failures count, and the replays are checked against it.
    let is_replay = workload == Workload::TraceReplay;
    if !is_replay {
        checks.record(&sim.outcome);
    } else if let Some(failure) = sim.outcome.failures.first() {
        checks.fail(failure);
    }

    // Untraced reference repetitions, for the tracing overhead: at least
    // UNTRACED_REPS, and as many more as fit in the run's seconds.
    let mut untraced = Vec::with_capacity(UNTRACED_REPS);
    while untraced.len() < UNTRACED_REPS || run_started.elapsed().as_secs_f64() < seconds {
        let started = Instant::now();
        let outcome = workloads::run(&inputs);
        untraced.push(outcome.work as f64 / started.elapsed().as_secs_f64().max(1e-9));
        checks.record(&outcome);
    }

    // Replay layers (trace_replay only).
    let replay_ledger = Rc::new(Ledger::default());
    let replay = inputs
        .recording
        .as_ref()
        .map(|recording| traced_replay(recording, &replay_ledger));
    if let Some(replay) = &replay {
        checks.record(&replay.outcome);
    }
    let traced_rate = match &replay {
        Some(r) => r.records as f64 / r.wall_s.max(1e-9),
        None => sim.outcome.work as f64 / sim.wall_s.max(1e-9),
    };
    let untraced_rate = median(&untraced);
    // `DualGraph::new` recomputes the diameter by all-pairs BFS; only the
    // replay path calls it (the grid generator knows its diameter).
    let dual_new = replay
        .as_ref()
        .and_then(|r| r.dual.as_ref())
        .map_or(0.0, dual_new_s);

    // Queue layer: the hold model at this workload's profile.
    let (profile, one_shard) = queue_profile(&inputs);
    if !is_replay {
        checks.record(&one_shard);
    }
    let hold_ns = median(
        &(0..HOLD_REPS)
            .map(|rep| hold::ns_per_op(profile, HOLD_OPS, seed ^ rep as u64))
            .collect::<Vec<_>>(),
    );

    // Engine modes (flood_grid only).
    let (fused, threaded, wait_frac) = if workload == Workload::FloodGrid {
        engine_lanes(&inputs, checks)
    } else {
        (0.0, 0.0, 0.0)
    };

    let c = &sim.counters;
    let rcv = c.get("rcv");
    let k = inputs.assignment.k() as u64;
    let (open_s, decode_ns, bytes_per_record) = replay.as_ref().map_or((0.0, 0.0, 0.0), |r| {
        (
            r.open_s,
            replay_ledger.decode.ns_per_call(clock_ns),
            r.bytes as f64 / r.records.max(1) as f64,
        )
    });
    let ns = |lane: &Lane| lane.ns_per_call(clock_ns);
    vec![
        metric("graph.generate_s", generate_s, "s"),
        metric("graph.dual_new_s", dual_new, "s"),
        metric("sim.queue.hold_ns_per_op", hold_ns, "ns"),
        metric("sim.queue.hold_depth", profile.depth as f64, "count"),
        metric(
            "sim.queue.hold_spread_ticks",
            profile.spread_ticks as f64,
            "ticks",
        ),
        metric("sim.queue.hold_cancel_frac", profile.cancel_frac, "frac"),
        metric("sim.engine.fused_events_per_s", fused, "1/s"),
        metric("sim.engine.threaded_events_per_s", threaded, "1/s"),
        metric("sim.engine.threaded_barrier_wait_frac", wait_frac, "frac"),
        metric(
            "mac.runtime.self_ns_per_event",
            ledger.runtime_self_ns(clock_ns),
            "ns",
        ),
        metric("mac.policy.plan_bcast_ns", ns(&ledger.plan_bcast), "ns"),
        metric("mac.policy.pick_forced_ns", ns(&ledger.pick_forced), "ns"),
        metric(
            "mac.policy.calls",
            (ledger.plan_bcast.calls() + ledger.pick_forced.calls()) as f64,
            "count",
        ),
        metric("mac.automaton.on_timer_ns", ns(&ledger.on_timer), "ns"),
        metric("mac.automaton.other_ns", ns(&ledger.other_callbacks), "ns"),
        metric(
            "mac.automaton.callbacks",
            (ledger.on_timer.calls() + ledger.other_callbacks.calls()) as f64,
            "count",
        ),
        metric("mac.validator.ns_per_event", ns(&ledger.validator), "ns"),
        metric(
            "mac.validator.replay_ns_per_event",
            ns(&replay_ledger.validator),
            "ns",
        ),
        metric(
            "mac.validator.peak_tracked",
            sim.peak_tracked as f64,
            "count",
        ),
        metric("mac.events", c.get("events") as f64, "count"),
        metric("mac.rcv", rcv as f64, "count"),
        metric("mac.forced_rcv", c.get("forced_rcv") as f64, "count"),
        metric("mac.timer", c.get("timer") as f64, "count"),
        metric("mac.abort", c.get("abort") as f64, "count"),
        metric(
            "mac.forced_rcv_frac",
            c.get("forced_rcv") as f64 / rcv.max(1) as f64,
            "frac",
        ),
        metric("store.write_ns_per_record", ns(&ledger.store), "ns"),
        metric("store.open_s", open_s, "s"),
        metric("store.decode_ns_per_record", decode_ns, "ns"),
        metric("store.bytes_per_record", bytes_per_record, "B"),
        metric("obs.metrics.ns_per_event", ns(&replay_ledger.metrics), "ns"),
        metric("core.tracker.ns_per_output", ns(&ledger.tracker), "ns"),
        metric(
            "core.useful_rcv_frac",
            sim.deliveries.saturating_sub(k) as f64 / rcv.max(1) as f64,
            "frac",
        ),
        metric(
            "core.completion_ticks",
            sim.completion_ticks as f64,
            "ticks",
        ),
        metric("host.runq_wait_s", host::runq_wait_s().unwrap_or(0.0), "s"),
        metric("trace.clock_read_ns", clock_ns, "ns"),
        metric("trace.untraced_events_per_s", untraced_rate, "1/s"),
        metric("trace.traced_events_per_s", traced_rate, "1/s"),
        metric(
            "trace.overhead_frac",
            untraced_rate / traced_rate.max(1e-9) - 1.0,
            "frac",
        ),
    ]
}
