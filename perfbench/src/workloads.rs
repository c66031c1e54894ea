//! The four workloads: their inputs (made from the seed during set-up),
//! the timed phase (driven through the public harness and store APIs on
//! the default sequential engine), and the correctness checks every
//! repetition must pass.

use amac_core::{run_bmmb, run_fmmb, Assignment, FmmbParams, FmmbReport, MmbReport, RunOptions};
use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
use amac_mac::trace::TraceEntry;
use amac_mac::ValidationReport;
use amac_mac::{FaultKind, MacConfig, Observer, OnlineStats, OnlineValidator, RunOutcome};
use amac_obs::MetricsObserver;
use amac_sim::{SimRng, Time};
use amac_store::{replay_into, TraceReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// BMMB flood on a `G′ = G` grid under the eager scheduler.
    FloodGrid,
    /// BMMB on a grey-zone grid under the duplicate-feeding lazy scheduler.
    GreyzoneLazy,
    /// FMMB on the enhanced MAC layer (timers and aborts).
    FmmbEnhanced,
    /// Replay of a recorded `.amactrace` through a validator and metrics.
    TraceReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::FloodGrid,
        Workload::GreyzoneLazy,
        Workload::FmmbEnhanced,
        Workload::TraceReplay,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodGrid => "flood_grid",
            Workload::GreyzoneLazy => "greyzone_lazy",
            Workload::FmmbEnhanced => "fmmb_enhanced",
            Workload::TraceReplay => "trace_replay",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's size: `full` for measurement, `tiny` for the smoke
    /// test.
    pub fn size(self, tiny: bool) -> Size {
        let (n, grey, k, f_prog, f_ack) = match (self, tiny) {
            (Workload::FloodGrid, false) => (10_000, 0.0, 2, 2, 32),
            (Workload::FloodGrid, true) => (400, 0.0, 2, 2, 32),
            (Workload::GreyzoneLazy, false) => (2_500, 0.5, 32, 2, 32),
            (Workload::GreyzoneLazy, true) => (100, 0.5, 4, 2, 32),
            (Workload::FmmbEnhanced, false) => (400, 0.5, 4, 2, 32),
            (Workload::FmmbEnhanced, true) => (64, 0.5, 2, 2, 32),
            (Workload::TraceReplay, false) => (2_500, 0.5, 16, 4, 32),
            (Workload::TraceReplay, true) => (100, 0.5, 4, 4, 32),
        };
        Size {
            n,
            grey,
            k,
            f_prog,
            f_ack,
        }
    }
}

/// Size parameters of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Nodes on the jittered grid.
    pub n: usize,
    /// Probability that a grid diagonal is an unreliable `G′ \ G` edge.
    pub grey: f64,
    /// Messages to broadcast.
    pub k: usize,
    /// Progress bound, in ticks.
    pub f_prog: u64,
    /// Acknowledgment bound, in ticks.
    pub f_ack: u64,
}

/// Everything the timed phase needs, made from the seed during set-up.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload these inputs are for.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// The network.
    pub dual: DualGraph,
    /// Where the messages start.
    pub assignment: Assignment,
    /// MAC bounds and variant.
    pub config: MacConfig,
    /// Seed of the scheduler policy (random policies only).
    pub policy_seed: u64,
    /// Seed of the FMMB nodes' private randomness.
    pub fmmb_seed: u64,
    /// The recorded trace (`trace_replay` only).
    pub recording: Option<Recording>,
}

/// A trace recorded during set-up, with what its live run concluded.
#[derive(Debug)]
pub struct Recording {
    /// The `.amactrace` file.
    pub path: PathBuf,
    /// The live run's summary, which every replay must reproduce.
    pub live: ReplaySummary,
    /// Required deliveries the recorded run left missing (must be 0).
    pub missing: usize,
}

/// The parts of a trace summary that live recording and replay must agree
/// on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Event records.
    pub events: u64,
    /// Whether the recorded run drained its queue.
    pub quiescent: bool,
    /// The validator's verdict.
    pub validation: ValidationReport,
    /// The validator's memory statistics.
    pub stats: OnlineStats,
}

/// Result of one repetition of the timed phase.
#[derive(Debug)]
pub struct Outcome {
    /// Work done: runtime events, or replayed records for `trace_replay`.
    pub work: u64,
    /// Deterministic counters that must repeat exactly for one seed.
    pub counters: Vec<(&'static str, u64)>,
    /// Failed correctness checks (empty when the repetition passed).
    pub failures: Vec<String>,
}

/// The independent random streams one benchmark seed drives.
fn streams(seed: u64) -> (SimRng, SimRng, u64, u64) {
    let root = SimRng::seed(seed);
    let topology = root.split(1);
    let assignment = root.split(2);
    let policy_seed = root.split(3).next();
    let fmmb_seed = root.split(4).next();
    (topology, assignment, policy_seed, fmmb_seed)
}

/// Generates the workload's topology from the seed (the grid jitter and
/// the grey-zone diagonals).
pub fn topology(size: Size, seed: u64) -> DualGraph {
    let (mut rng, ..) = streams(seed);
    generators::grid_grey_zone_network(size.n, size.grey, &mut rng)
        .expect("workload sizes are valid grid parameters")
        .dual
}

/// Set-up: topology, assignment and, for `trace_replay`, the recorded
/// trace (written under `scratch`).
pub fn setup(workload: Workload, size: Size, seed: u64, scratch: &Path) -> Inputs {
    let mut inputs = inputs(workload, size, seed);
    if workload == Workload::TraceReplay {
        inputs.recording = Some(record(&inputs, trace_path(scratch)));
    }
    inputs
}

/// A fresh path for a trace recorded by this process.
pub fn trace_path(scratch: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    scratch.join(format!("trace_replay-{}-{n}.amactrace", std::process::id()))
}

/// The inputs of a workload without its recording: topology, assignment,
/// MAC bounds and the seeds of the randomised parts.
pub fn inputs(workload: Workload, size: Size, seed: u64) -> Inputs {
    let dual = topology(size, seed);
    let (_, mut assignment_rng, policy_seed, fmmb_seed) = streams(seed);
    let assignment = match workload {
        Workload::FloodGrid => Assignment::all_at(NodeId::new(0), size.k),
        _ => Assignment::random(size.n, size.k, &mut assignment_rng),
    };
    let mut config = MacConfig::from_ticks(size.f_prog, size.f_ack);
    if workload == Workload::FmmbEnhanced {
        config = config.enhanced();
    }
    Inputs {
        workload,
        seed,
        dual,
        assignment,
        config,
        policy_seed,
        fmmb_seed,
        recording: None,
    }
}

/// Records the `trace_replay` execution: BMMB under the random scheduler,
/// validated live, streamed to `path`.
fn record(inputs: &Inputs, path: PathBuf) -> Recording {
    let options = RunOptions::default().recording(&path, inputs.seed);
    let report = run_bmmb(
        &inputs.dual,
        inputs.config,
        &inputs.assignment,
        RandomPolicy::new(inputs.policy_seed),
        &options,
    );
    let stats = report
        .validator_stats
        .expect("recording runs validate live");
    let live = ReplaySummary {
        events: stats.events,
        quiescent: report.outcome == RunOutcome::Idle,
        validation: report.validation.expect("recording runs validate live"),
        stats,
    };
    Recording {
        path,
        live,
        missing: report.missing,
    }
}

/// The policy-free FMMB parameters of a workload.
pub fn fmmb_params(inputs: &Inputs) -> FmmbParams {
    FmmbParams::new(inputs.assignment.k(), inputs.dual.diameter())
}

/// Runs the timed phase once, through the public harness APIs, and checks
/// its outputs.
pub fn run(inputs: &Inputs) -> Outcome {
    match inputs.workload {
        Workload::FloodGrid => mmb_outcome(&run_bmmb(
            &inputs.dual,
            inputs.config,
            &inputs.assignment,
            EagerPolicy::new(),
            &RunOptions::default(),
        )),
        Workload::GreyzoneLazy => mmb_outcome(&run_bmmb(
            &inputs.dual,
            inputs.config,
            &inputs.assignment,
            LazyPolicy::new().prefer_duplicates(),
            &RunOptions::default(),
        )),
        Workload::FmmbEnhanced => fmmb_outcome(&run_fmmb(
            &inputs.dual,
            inputs.config,
            &inputs.assignment,
            &fmmb_params(inputs),
            inputs.fmmb_seed,
            LazyPolicy::new(),
            &RunOptions::default().stopping_on_completion(),
        )),
        Workload::TraceReplay => replay(inputs.recording.as_ref().expect("set-up recorded")),
    }
}

/// Deterministic counters and checks shared by the MMB-style runs.
pub fn run_counters(
    counters: &amac_sim::stats::Counters,
    completion: Option<Time>,
    instances: usize,
) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = ["events", "rcv", "forced_rcv", "timer", "abort"]
        .into_iter()
        .map(|key| (key, counters.get(key)))
        .collect();
    out.push(("completion_ticks", completion.map_or(0, Time::ticks)));
    out.push(("instances", instances as u64));
    out
}

fn check_validation(validation: Option<&ValidationReport>, failures: &mut Vec<String>) {
    match validation {
        None => failures.push("validator was not attached".to_string()),
        Some(v) if !v.is_ok() => failures.push(format!("validator: {}", v.summary())),
        Some(_) => {}
    }
}

/// Checks and counters of a BMMB run.
pub fn mmb_outcome(report: &MmbReport) -> Outcome {
    let mut failures = Vec::new();
    if report.missing > 0 || report.completion.is_none() {
        failures.push(format!("{} required deliveries missing", report.missing));
    }
    check_validation(report.validation.as_ref(), &mut failures);
    Outcome {
        work: report.counters.get("events"),
        counters: run_counters(&report.counters, report.completion, report.instances),
        failures,
    }
}

fn fmmb_outcome(report: &FmmbReport) -> Outcome {
    let mut failures = Vec::new();
    if report.missing > 0 || report.completion.is_none() {
        failures.push(format!(
            "FMMB unsolved: {} required deliveries missing",
            report.missing
        ));
    }
    if !report.mis_valid {
        failures.push("FMMB MIS is not a maximal independent set of G".to_string());
    }
    check_validation(report.validation.as_ref(), &mut failures);
    let mut counters = run_counters(&report.counters, report.completion, report.instances);
    counters.push(("mis_size", report.mis.len() as u64));
    Outcome {
        work: report.counters.get("events"),
        counters,
        failures,
    }
}

/// Feeds every event to two observers in turn.
#[derive(Debug)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    fn on_event(&mut self, event: &TraceEntry) {
        self.0.on_event(event);
        self.1.on_event(event);
    }

    fn on_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        self.0.on_fault(time, node, kind);
        self.1.on_fault(time, node, kind);
    }
}

/// The `trace_replay` timed phase: open the trace, replay it once through
/// a validator teed with a metrics observer, and compare the replayed
/// summary with the live one.
fn replay(recording: &Recording) -> Outcome {
    let mut failures = Vec::new();
    let mut reader = match TraceReader::open(&recording.path) {
        Ok(reader) => reader,
        Err(e) => return failed_replay(format!("cannot open the trace: {e}")),
    };
    let config = reader.config();
    let mut tee = Tee(
        OnlineValidator::new(reader.dual().clone(), config),
        MetricsObserver::new(config),
    );
    let trailer = match replay_into(&mut reader, &mut tee) {
        Ok(trailer) => trailer,
        Err(e) => return failed_replay(format!("corrupt trace: {e}")),
    };
    let Tee(validator, metrics) = tee;
    let stats = validator.stats();
    let replayed = ReplaySummary {
        events: trailer.events,
        quiescent: trailer.quiescent,
        validation: validator.into_report(trailer.quiescent),
        stats,
    };
    check_recording(recording, &replayed, &mut failures);
    let metrics = metrics.into_report();
    if metrics.events_total() != trailer.events {
        failures.push(format!(
            "metrics saw {} events, the trace holds {}",
            metrics.events_total(),
            trailer.events
        ));
    }
    let records = trailer.events + trailer.faults;
    Outcome {
        work: records,
        counters: replay_counters(records, &metrics, &stats),
        failures,
    }
}

/// Deterministic counters of one replay.
pub fn replay_counters(
    records: u64,
    metrics: &amac_obs::MetricsReport,
    stats: &OnlineStats,
) -> Vec<(&'static str, u64)> {
    vec![
        ("records", records),
        ("bcast", metrics.bcasts),
        ("rcv", metrics.rcvs),
        ("ack", metrics.acks),
        ("abort", metrics.aborts),
        ("end_ticks", metrics.end_ticks),
        ("peak_tracked", stats.peak_tracked as u64),
    ]
}

/// Checks that the recorded run solved MMB and validated, and that the
/// replay reproduced its summary exactly.
pub fn check_recording(
    recording: &Recording,
    replayed: &ReplaySummary,
    failures: &mut Vec<String>,
) {
    if recording.missing > 0 {
        failures.push(format!(
            "recorded run left {} required deliveries missing",
            recording.missing
        ));
    }
    check_validation(Some(&recording.live.validation), failures);
    if *replayed != recording.live {
        failures.push(format!(
            "replayed summary differs from the live one: replayed {replayed:?}, live {:?}",
            recording.live
        ));
    }
}

fn failed_replay(failure: String) -> Outcome {
    Outcome {
        work: 0,
        counters: Vec::new(),
        failures: vec![failure],
    }
}

/// The first counter in which two repetitions of one seed differ, named.
pub fn first_difference<A: AsRef<str>, B: AsRef<str>>(
    reference: &[(A, u64)],
    other: &[(B, u64)],
) -> Option<String> {
    if reference.len() != other.len() {
        return Some(format!(
            "counter sets differ: {} vs {} counters",
            reference.len(),
            other.len()
        ));
    }
    reference
        .iter()
        .zip(other)
        .find(|((a, x), (b, y))| a.as_ref() != b.as_ref() || x != y)
        .map(|((name, a), (other_name, b))| {
            let (name, other_name) = (name.as_ref(), other_name.as_ref());
            if name == other_name {
                format!("counter {name} differs between repetitions: {a} vs {b}")
            } else {
                format!("counter {name} missing in a repetition (found {other_name})")
            }
        })
}
