//! `cargo bench --bench micro` — Criterion micro-benchmarks of the
//! simulation substrate and the end-to-end algorithms (engineering
//! throughput, not paper claims).

// `criterion_group!` expands to undocumented public functions.
#![allow(missing_docs)]

use amac_core::{run_bmmb, Assignment, RunOptions};
use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::policies::{EagerPolicy, LazyPolicy};
use amac_mac::MacConfig;
use amac_sim::{Duration, EventId, EventQueue, SimRng, Time};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

/// Bulk push then drain of 10k events at uniform times over 2²⁰ ticks.
/// Nearly all of them lie beyond the queue's 128-tick bucket ring, so this
/// times the overflow heap; the hold benches below time the ring.
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter_batched(
            || {
                let mut rng = SimRng::seed(1);
                (0..10_000u64)
                    .map(|i| (Time::from_ticks(rng.below(1 << 20)), i))
                    .collect::<Vec<_>>()
            },
            |items| {
                let mut q = EventQueue::new();
                for (t, v) in items {
                    q.schedule(t, v);
                }
                let mut acc = 0u64;
                while let Some((_, v)) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        );
    });
}

/// Hold steps per Criterion iteration of the hold benches.
const HOLD_STEPS: usize = 1000;

/// Pre-drawn delays and cancel decisions, cycled by the hold benches.
const HOLD_DRAWS: usize = 4096;

/// Recently scheduled events a hold-bench cancel picks from.
const HOLD_RECENT: usize = 64;

/// The hold model, the classic pending-set benchmark: the queue stays at
/// `depth` events; each step pops the earliest and schedules its successor
/// `delay` ticks ahead, and a `cancel_frac` share of steps also cancels a
/// recently scheduled event and schedules a replacement. One iteration is
/// `HOLD_STEPS` steps on a queue that persists across iterations (steady
/// state).
fn bench_hold(
    c: &mut Criterion,
    name: &str,
    depth: u64,
    delay: impl Fn(&mut SimRng) -> u64,
    cancel_frac: f64,
) {
    let mut rng = SimRng::seed(0x401D ^ depth);
    let delays: Vec<Duration> = (0..HOLD_DRAWS)
        .map(|_| Duration::from_ticks(delay(&mut rng)))
        .collect();
    let cancels: Vec<bool> = (0..HOLD_DRAWS).map(|_| rng.chance(cancel_frac)).collect();
    let mut q = EventQueue::new();
    let mut recent: Vec<EventId> = (0..depth)
        .map(|i| q.schedule(Time::from_ticks(delay(&mut rng)), i))
        .collect();
    recent.truncate(HOLD_RECENT);
    let mut step = 0usize;
    c.bench_function(name, |b| {
        b.iter(|| {
            for _ in 0..HOLD_STEPS {
                let draw = step % HOLD_DRAWS;
                step += 1;
                let (_, event) = q.pop().expect("the hold model keeps the queue non-empty");
                let pick = (draw * 7) % recent.len();
                if cancels[draw] && q.cancel(recent[pick]) {
                    recent[pick] = q.schedule_after(delays[(draw + 1) % HOLD_DRAWS], event);
                }
                let slot = step % recent.len();
                recent[slot] = q.schedule_after(delays[draw], black_box(event));
            }
        });
    });
}

/// Hold benches shaped like two `perfbench` workloads: `flood_grid` (10⁴
/// pending, deliveries and acks up to `F_ack` = 32 ticks ahead, no
/// cancels) and `fmmb_enhanced` (a timer per node of 400, one FMMB round
/// of 4 ticks ahead, about 1.4% of steps aborting a pending event). Two
/// more cover the experiments' larger delays: the lazy policy at the
/// default `F_ack` = 64 of `F1-GG` and `F1-RR` (receives up to `F_prog` =
/// 2 ticks ahead, every ack exactly 64 ahead: still inside the ring), and
/// the `F1-ENH` crossover's `F_ack` in the thousands (the overflow heap).
fn bench_event_queue_hold(c: &mut Criterion) {
    let uniform = |spread: u64| move |rng: &mut SimRng| rng.below(spread + 1);
    bench_hold(c, "event_queue_hold_10k_spread32", 10_000, uniform(32), 0.0);
    bench_hold(
        c,
        "event_queue_hold_400_spread4_cancel",
        400,
        uniform(4),
        0.014,
    );
    let lazy_fack64 = |rng: &mut SimRng| if rng.chance(0.5) { 64 } else { rng.below(3) };
    bench_hold(
        c,
        "event_queue_hold_10k_lazy_fack64",
        10_000,
        lazy_fack64,
        0.0,
    );
    bench_hold(
        c,
        "event_queue_hold_1k_spread4096",
        1_000,
        uniform(4096),
        0.0,
    );
}

/// The runtime hot path at scale: a k=2 BMMB flood over a 1,000-node line
/// under the eager scheduler (~10⁴ events per run), measured bare and with
/// the streaming validator attached. Criterion reports seconds per run;
/// events/sec = events ÷ mean time. The pre-refactor pin for this workload
/// (trace-recording runtime + post-hoc validation) is recorded in
/// `experiments::scale::PRE_REFACTOR_PIN_EVENTS_PER_SEC` — the observer
/// refactor's ≥2× claim is measured against it.
fn bench_runtime_hot_path(c: &mut Criterion) {
    let dual = DualGraph::reliable(generators::line(1000).unwrap());
    let cfg = MacConfig::from_ticks(2, 32);
    let assignment = Assignment::all_at(NodeId::new(0), 2);
    c.bench_function("flood_line1k_k2_fast", |b| {
        b.iter(|| {
            let report = run_bmmb(
                black_box(&dual),
                cfg,
                &assignment,
                EagerPolicy::new(),
                &RunOptions::fast(),
            );
            black_box(report.counters.get("events"))
        });
    });
    c.bench_function("flood_line1k_k2_validated", |b| {
        b.iter(|| {
            let report = run_bmmb(
                black_box(&dual),
                cfg,
                &assignment,
                EagerPolicy::new(),
                &RunOptions::default(),
            );
            assert!(report
                .validation
                .as_ref()
                .is_some_and(amac_mac::ValidationReport::is_ok));
            black_box(report.counters.get("events"))
        });
    });
}

/// The fused-vs-threaded sharded drain on the scale experiment's grid
/// workload at a fixed small size: a k=2 BMMB flood over an n=4,096
/// jittered-grid dual (`G′ = G`), run on 4 event-queue shards with the
/// fused single-core coordinator and with the thread-per-shard drain
/// (2 and 4 workers). The execution is byte-identical across all three
/// (asserted via the event counter); only wall clock may differ. The
/// ratio `flood_grid_sharded_fused / flood_grid_sharded_threads_t4` is
/// the pin recorded in `BENCH_scale.json`'s headline note — regressions
/// in the scoped-barrier path show up here first, at a size small enough
/// for Criterion yet large enough for non-trivial per-shard windows.
fn bench_sharded_threads(c: &mut Criterion) {
    let n = 4096;
    let mut rng = SimRng::seed(0x5CA1E ^ n as u64);
    let net = generators::grid_grey_zone_network(n, 0.0, &mut rng).expect("n >= 1");
    let cfg = MacConfig::from_ticks(2, 32);
    let assignment = Assignment::all_at(NodeId::new(0), 2);
    let baseline = run_bmmb(
        &net.dual,
        cfg,
        &assignment,
        EagerPolicy::new(),
        &RunOptions::fast().with_shards(4),
    )
    .counters
    .get("events");
    let mut bench = |name: &str, threads: usize| {
        c.bench_function(name, |b| {
            b.iter(|| {
                let report = run_bmmb(
                    black_box(&net.dual),
                    cfg,
                    &assignment,
                    EagerPolicy::new(),
                    &RunOptions::fast()
                        .with_shards(4)
                        .with_shard_threads(threads),
                );
                let events = report.counters.get("events");
                assert_eq!(events, baseline, "thread count must never change events");
                black_box(events)
            });
        });
    };
    bench("flood_grid_sharded_fused", 0);
    bench("flood_grid_sharded_threads_t2", 2);
    bench("flood_grid_sharded_threads_t4", 4);
}

fn bench_bmmb(c: &mut Criterion) {
    let dual = DualGraph::reliable(generators::line(64).unwrap());
    let cfg = MacConfig::from_ticks(2, 32);
    let assignment = Assignment::all_at(NodeId::new(0), 4);
    c.bench_function("bmmb_line64_k4_eager", |b| {
        b.iter(|| {
            let report = run_bmmb(
                black_box(&dual),
                cfg,
                &assignment,
                EagerPolicy::new(),
                &RunOptions::fast(),
            );
            black_box(report.completion_ticks())
        });
    });
    c.bench_function("bmmb_line64_k4_lazy", |b| {
        b.iter(|| {
            let report = run_bmmb(
                black_box(&dual),
                cfg,
                &assignment,
                LazyPolicy::new().prefer_duplicates(),
                &RunOptions::fast(),
            );
            black_box(report.completion_ticks())
        });
    });
}

fn bench_topology(c: &mut Criterion) {
    c.bench_function("grey_zone_sample_n100", |b| {
        let mut rng = SimRng::seed(7);
        b.iter(|| {
            let net =
                generators::grey_zone_network(&generators::GreyZoneConfig::new(100, 7.0), &mut rng)
                    .unwrap();
            black_box(net.dual.len())
        });
    });
    c.bench_function("diameter_grid_20x20", |b| {
        let g = generators::grid(20, 20).unwrap();
        b.iter(|| black_box(amac_graph::algo::diameter(black_box(&g))));
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_hold,
    bench_runtime_hot_path,
    bench_sharded_threads,
    bench_bmmb,
    bench_topology
);
criterion_main!(benches);
