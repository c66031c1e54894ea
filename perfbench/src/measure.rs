//! One benchmark run.
//!
//! An untraced run sets up several times (the median is `setup_s`), then
//! repeats the checked timed phase in this process until the requested
//! seconds are spent, timing the host-speed reference of
//! [`crate::calibrate`] after each repetition. On a shared host,
//! neighbours slow the program by a third or more for seconds to minutes
//! at a time, and they slow the interleaved reference alike, so
//! `events_per_s` is the work over the median repetition time, divided by
//! the host speed the median reference time gives, and `setup_s` is the
//! median set-up time multiplied by it. The workloads are
//! sized so that a run holds tens to hundreds of repetitions.
//!
//! With `--trace 1` the run instead makes one traced measurement and
//! reports the per-layer metrics of [`crate::traced`].

use crate::calibrate;
use crate::host;
use crate::report::{median, metric, result_json, Metric};
use crate::traced;
use crate::workloads::{self, Inputs, Outcome, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is made from.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Use the tiny smoke-test sizes.
    pub tiny: bool,
}

/// What a run prints: the host fingerprint, then the result line.
#[derive(Debug)]
pub struct RunResult {
    /// The host fingerprint, printed before the result.
    pub line: String,
    /// Repetitions attempted.
    pub attempted: u64,
    /// Repetitions that failed a check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result line: one JSON object, printed last.
    pub fn result_line(&self) -> String {
        result_json(self.attempted, self.failed, &self.metrics)
    }
}

/// The end-to-end metrics a run reports, with their units, the times at
/// the reference host speed: the work rate of the median repetition, the
/// median set-up seconds, the peak resident set after set-up and one
/// repetition, and the share of repetitions that passed every check.
pub const END_TO_END: [(&str, &str); 4] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "frac"),
];

/// Fewest timed repetitions a run makes, whatever `seconds` says.
pub const MIN_REPS: usize = 5;

/// After each timed repetition the run times the host-speed reference
/// until it has spent at least this share of the repetition's time on it
/// (and at least once).
const REFERENCE_SHARE: f64 = 0.25;

/// Set-up repetitions in one run: recording a trace costs a fifth of a
/// second, a grid about a millisecond.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::TraceReplay => 5,
        _ => 101,
    }
}

/// Where set-up writes its trace files: inside the benchmark's own
/// directory, so a run touches nothing outside its checkout.
pub fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Correctness bookkeeping across the repetitions of one seed: each
/// repetition must pass its checks and repeat the first one's counters.
#[derive(Debug, Default)]
pub struct Checks {
    /// Repetitions attempted.
    pub attempted: u64,
    /// Repetitions that failed.
    pub failed: u64,
    reference: Option<Vec<(&'static str, u64)>>,
}

impl Checks {
    /// Records one repetition; prints its first failure to standard error.
    pub fn record(&mut self, outcome: &Outcome) {
        self.attempted += 1;
        let mut failure = outcome.failures.first().cloned();
        match &self.reference {
            None => self.reference = Some(outcome.counters.clone()),
            Some(reference) => {
                if failure.is_none() {
                    failure = workloads::first_difference(reference, &outcome.counters);
                }
            }
        }
        if let Some(failure) = failure {
            self.failed += 1;
            eprintln!("perfbench: check failed: {failure}");
        }
    }

    /// Records a repetition that failed before it produced counters.
    pub fn fail(&mut self, failure: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: check failed: {failure}");
    }
}

/// Sets up once and returns the inputs with the seconds it took.
fn timed_setup(settings: &Settings, scratch: &Path) -> (Inputs, f64) {
    let started = Instant::now();
    let inputs = workloads::setup(
        settings.workload,
        settings.workload.size(settings.tiny),
        settings.seed,
        scratch,
    );
    (inputs, started.elapsed().as_secs_f64())
}

/// Deletes the trace a set-up recorded, if any.
fn discard(inputs: Inputs) {
    if let Some(recording) = inputs.recording {
        // Best effort: a leftover file is only disk space.
        let _ = std::fs::remove_file(&recording.path);
    }
}

/// The untraced run: set-up, one warm-up repetition, further set-ups
/// for the `setup_s` median, then timed repetitions until `settings.seconds` have passed since the start (at
/// least [`MIN_REPS`]), each followed by the host-speed reference. Every
/// repetition, the warm-up too, is checked and must repeat the warm-up's
/// counters.
fn timed_run(settings: &Settings, scratch: &Path) -> RunResult {
    let started = Instant::now();
    let (inputs, first_setup_s) = timed_setup(settings, scratch);
    let mut checks = Checks::default();
    let warm_up = workloads::run(&inputs);
    checks.record(&warm_up);
    // The peak of one set-up and one repetition, read before the further
    // set-ups and repetitions: each of those frees and reallocates its
    // state, and the fragmentation that leaves grows the process's peak
    // by up to half again, by an amount that depends on the seed.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let mut setup_times = vec![first_setup_s];
    while setup_times.len() < setup_reps(settings.workload) {
        let (extra, secs) = timed_setup(settings, scratch);
        discard(extra);
        setup_times.push(secs);
    }
    let setup_s = median(&setup_times);
    let mut times = Vec::new();
    let mut reference_times = Vec::new();
    while times.len() < MIN_REPS || started.elapsed().as_secs_f64() < settings.seconds {
        let rep_started = Instant::now();
        let outcome = workloads::run(&inputs);
        let secs = rep_started.elapsed().as_secs_f64();
        times.push(secs);
        checks.record(&outcome);
        let mut spent = 0.0;
        while spent == 0.0 || spent < secs * REFERENCE_SHARE {
            let (reference_s, events) = calibrate::reference();
            assert_eq!(events, calibrate::EVENTS, "the reference flood is fixed");
            reference_times.push(reference_s);
            spent += reference_s;
        }
    }
    discard(inputs);
    let (median_s, median_reference_s) = (median(&times), median(&reference_times));
    let host_speed = calibrate::host_speed(median_reference_s);
    let raw_rate = warm_up.work as f64 / median_s.max(1e-9);
    let fastest = |t: &[f64]| t.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "perfbench: {} timed repetitions, seconds: median {median_s:.4}, fastest {:.4}; \
         {} reference floods, seconds: median {median_reference_s:.4}, fastest {:.4}",
        times.len(),
        fastest(&times),
        reference_times.len(),
        fastest(&reference_times)
    );
    let calibration = [
        ("raw_events_per_s", raw_rate),
        ("raw_setup_s", setup_s),
        ("reference_median_s", median_reference_s),
        ("host_speed", host_speed),
    ];
    RunResult {
        line: host::fingerprint_json(host::runq_wait_s().unwrap_or(0.0), &calibration),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: END_TO_END
            .iter()
            .zip([
                raw_rate / host_speed,
                setup_s * host_speed,
                peak_rss_mb,
                (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
            ])
            .map(|(&(name, unit), value)| metric(name, value, unit))
            .collect(),
    }
}

/// Runs the benchmark as `settings` asks.
pub fn run(settings: &Settings) -> RunResult {
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).expect("the benchmark directory is writable");
    if settings.trace {
        let mut checks = Checks::default();
        let trace = workloads::trace_path(&scratch);
        let size = settings.workload.size(settings.tiny);
        let metrics = traced::per_layer(
            settings.workload,
            size,
            settings.seed,
            settings.seconds,
            &trace,
            &mut checks,
        );
        // Best effort: a leftover file is only disk space.
        let _ = std::fs::remove_file(&trace);
        RunResult {
            line: host::fingerprint_json(host::runq_wait_s().unwrap_or(0.0), &[]),
            attempted: checks.attempted,
            failed: checks.failed,
            metrics,
        }
    } else {
        timed_run(settings, &scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_flag_counters_that_differ_between_repetitions() {
        let outcome = |events: u64, failures: Vec<String>| Outcome {
            work: events,
            counters: vec![("events", events)],
            failures,
        };
        let mut checks = Checks::default();
        checks.record(&outcome(5, Vec::new()));
        checks.record(&outcome(5, Vec::new()));
        assert_eq!((checks.attempted, checks.failed), (2, 0));
        checks.record(&outcome(6, Vec::new()));
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        checks.record(&outcome(5, vec!["boom".to_string()]));
        assert_eq!((checks.attempted, checks.failed), (4, 2));
    }
}
