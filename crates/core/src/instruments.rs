//! The one instrumentation path every harness shares.
//!
//! [`RunOptions::runtime`] builds a runtime in the execution mode the
//! options select, [`Instruments::attach`] attaches the observers they ask
//! for, and [`Instruments::finish`] detaches and seals those observers
//! into one [`Instrumentation`]. `run_mmb`, `run_fmmb` and the
//! `amac-proto` services differ only in their nodes and their loop; a new
//! observer or execution mode is wired in here, once.

use crate::harness::RunOptions;
use amac_graph::{DualGraph, NodeId};
use amac_mac::trace::Trace;
use amac_mac::{
    Automaton, FaultPlan, MacConfig, ObserverHandle, OnlineStats, OnlineValidator, Policy, Runtime,
    TraceObserver, ValidationReport,
};
use amac_obs::{MetricsObserver, MetricsReport, SpanObserver};
use amac_sim::ShardStats;
use amac_store::StoreObserver;
use std::path::PathBuf;

impl RunOptions {
    /// Builds a runtime over `dual` in the execution mode these options
    /// select: sequential, or on [`shards`](RunOptions::shards)
    /// event-queue shards. The execution is byte-identical either way.
    pub fn runtime<A, P>(
        &self,
        dual: &DualGraph,
        config: MacConfig,
        nodes: Vec<A>,
        policy: P,
    ) -> Runtime<A, P>
    where
        A: Automaton,
        P: Policy,
    {
        let mut rt = Runtime::new(dual.clone(), config, nodes, policy);
        if self.shards > 0 {
            rt = rt.with_shards(self.shards);
        }
        rt
    }
}

/// What a run's instruments observed, sealed when the run ended. Each
/// field is `None` unless [`RunOptions`] asked for it, except
/// `shard_stats`, which every sharded run reports.
#[derive(Clone, Debug)]
pub struct Instrumentation {
    /// The streaming validator's verdict ([`RunOptions::validate`]).
    pub validation: Option<ValidationReport>,
    /// The streaming validator's peak-memory statistics, when validation
    /// ran.
    pub validator_stats: Option<OnlineStats>,
    /// The recorded execution trace ([`RunOptions::keep_trace`]).
    pub trace: Option<Trace>,
    /// Per-shard execution statistics; `None` for sequential runs.
    pub shard_stats: Option<ShardStats>,
    /// Deterministic sim-time metrics ([`RunOptions::metrics`]), with the
    /// shard diagnostics side channel attached on sharded runs.
    pub metrics: Option<MetricsReport>,
}

/// The observers [`RunOptions`] asks for, attached to one runtime: the
/// streaming validator, the trace keeper, the trace-file recorder, the
/// metrics collector and the span exporter, plus the sharded queue's
/// wall-clock self-profiling when metrics are on.
pub struct Instruments {
    validator: Option<ObserverHandle<OnlineValidator>>,
    tracer: Option<ObserverHandle<TraceObserver>>,
    recorder: Option<ObserverHandle<StoreObserver>>,
    metrics: Option<ObserverHandle<MetricsObserver>>,
    spans: Option<(ObserverHandle<SpanObserver>, PathBuf)>,
}

impl Instruments {
    /// Attaches every observer `options` asks for to `rt`. `faults` is the
    /// plan the run arms, if any; a recording stamps its digest into the
    /// trace header. On sharded runs, spans get one Perfetto track per
    /// shard of the runtime's own partition.
    ///
    /// # Panics
    ///
    /// Panics when the trace file cannot be created — recording was
    /// explicitly requested, so a silently skipped recording would be
    /// worse than stopping.
    pub fn attach<A: Automaton, P: Policy>(
        options: &RunOptions,
        rt: &mut Runtime<A, P>,
        faults: Option<&FaultPlan>,
    ) -> Instruments {
        let config = *rt.config();
        let validator = options
            .validate
            .then(|| OnlineValidator::new(rt.dual().clone(), config))
            .map(|v| rt.attach(v));
        let tracer = options.keep_trace.then(|| rt.attach(TraceObserver::new()));
        let recorder = options.record.as_ref().map(|(path, seed)| {
            let store = StoreObserver::create(path, rt.dual(), config, *seed, faults)
                .unwrap_or_else(|e| panic!("cannot record trace to {}: {e}", path.display()));
            rt.attach(store)
        });
        let metrics = options
            .metrics
            .then(|| rt.attach(MetricsObserver::new(config)));
        let spans = options.chrome_trace.as_ref().map(|path| {
            let tracks: Option<Vec<u32>> = (0..rt.dual().len())
                .map(|i| rt.shard_of(NodeId::new(i)).map(|s| s as u32))
                .collect();
            let spans = match tracks {
                Some(tracks) => SpanObserver::new().with_tracks(tracks),
                None => SpanObserver::new(),
            };
            (rt.attach(spans), path.clone())
        });
        if options.metrics {
            rt.enable_shard_profiling();
        }
        Instruments {
            validator,
            tracer,
            recorder,
            metrics,
            spans,
        }
    }

    /// Detaches the observers from `rt` and seals them: the validator
    /// closes its checks (`quiescent` says whether the run ended idle), a
    /// recording gets its End record, and the span timeline is written to
    /// the requested Chrome trace file.
    ///
    /// # Panics
    ///
    /// Panics when the recording cannot be sealed or the Chrome trace
    /// cannot be written — both were explicitly requested.
    pub fn finish<A: Automaton, P: Policy>(
        self,
        rt: &mut Runtime<A, P>,
        quiescent: bool,
    ) -> Instrumentation {
        let mut validator_stats = None;
        let validation = self.validator.map(|handle| {
            let validator = rt.detach(handle);
            validator_stats = Some(validator.stats());
            validator.into_report(quiescent)
        });
        let trace = self.tracer.map(|handle| rt.detach(handle).into_trace());
        if let Some(handle) = self.recorder {
            if let Err(e) = rt.detach(handle).finish(quiescent) {
                panic!("cannot finalize trace recording: {e}");
            }
        }
        let metrics = self.metrics.map(|handle| {
            rt.detach(handle)
                .into_report()
                .with_shard_diagnostics(rt.shard_stats(), rt.shard_profile())
        });
        if let Some((handle, path)) = self.spans {
            if let Err(e) = std::fs::write(&path, rt.detach(handle).to_chrome_json()) {
                panic!("cannot write chrome trace to {}: {e}", path.display());
            }
        }
        Instrumentation {
            validation,
            validator_stats,
            trace,
            shard_stats: rt.shard_stats(),
            metrics,
        }
    }
}
