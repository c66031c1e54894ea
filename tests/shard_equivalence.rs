//! Differential shard-equivalence suite: the sharded runtime must be
//! **byte-identical** to the sequential one — same recorded `.amactrace`
//! bytes, same `OnlineValidator` violation set, same `OnlineStats` — for
//! every dual graph, fault plan, seed, and shard count `K` (including `K`
//! that doesn't divide `n`, `K > n`, and a shard whose nodes all crash
//! mid-run). This is the proof obligation behind the sharded simulator:
//! golden digests, trace replay, and `amac-check` fixtures all assume the
//! execution order is a function of the seed alone, never of `K`.
//!
//! When two recordings differ, the failure names the first divergent
//! record (its index and both sides), `K` and the seed, not two byte
//! vectors.

use amac::core::{Assignment, Bmmb, Delivered};
use amac::graph::{generators, DualGraph, GraphBuilder, NodeId};
use amac::mac::policies::RandomPolicy;
use amac::mac::{
    FaultPlan, MacConfig, OnlineStats, OnlineValidator, RunOutcome, Runtime, ValidationReport,
};
use amac::sim::{SimRng, Time};
use amac::store::{StoreError, StoreObserver, StoredRecord, TraceReader};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Everything observable about one execution: the on-disk trace bytes,
/// the streaming validator's verdict, and its memory statistics.
struct Capture {
    trace_bytes: Vec<u8>,
    validation: ValidationReport,
    stats: OnlineStats,
    outcome: RunOutcome,
}

/// Runs BMMB over `dual` with `shards` event-queue shards (0 = the
/// sequential runtime), recording to `path`, and captures every
/// observable artifact.
fn capture(
    dual: &DualGraph,
    cfg: MacConfig,
    assignment: &Assignment,
    faults: &FaultPlan,
    policy_seed: u64,
    shards: usize,
    path: &Path,
) -> Capture {
    let nodes = (0..dual.len()).map(|_| Bmmb::new()).collect();
    let mut rt = Runtime::new(dual.clone(), cfg, nodes, RandomPolicy::new(policy_seed));
    if shards > 0 {
        rt = rt.with_shards(shards);
    }
    let mut rt = rt.with_faults(faults.clone());
    let validator = rt.attach(OnlineValidator::new(dual.clone(), cfg));
    let store = StoreObserver::create(path, dual, cfg, policy_seed, Some(faults)).unwrap();
    let recorder = rt.attach(store);
    for (node, msg) in assignment.arrivals() {
        rt.inject(*node, *msg);
    }
    let outcome = rt.run();
    // Drain problem outputs so the runtime's buffers don't matter.
    let _: Vec<Delivered> = rt.drain_outputs().map(|r| r.out).collect();
    let validator = rt.detach(validator);
    let stats = validator.stats();
    let validation = validator.into_report(outcome == RunOutcome::Idle);
    rt.detach(recorder)
        .finish(outcome == RunOutcome::Idle)
        .unwrap();
    Capture {
        trace_bytes: std::fs::read(path).unwrap(),
        validation,
        stats,
        outcome,
    }
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("amac-shard-equivalence")
        .join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shard counts every equivalence case runs, including `K` = 7,
/// which never divides the test sizes evenly.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 7];

/// Streams the recordings at `seq` and `sharded` side by side and says
/// where they first differ: the header, the first record that differs
/// (its index and both sides, `None` where one file ended), or, when
/// every record matches, the trailers.
fn first_divergence(seq: &Path, sharded: &Path) -> String {
    let open =
        |path: &Path| TraceReader::open(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (mut a, mut b) = (open(seq), open(sharded));
    if a.header() != b.header() {
        return format!(
            "headers differ: sequential {:?}, sharded {:?}",
            a.header(),
            b.header()
        );
    }
    for index in 0u64.. {
        match (a.next_record(), b.next_record()) {
            (Ok(None), Ok(None)) => break,
            (Ok(x), Ok(y)) if x == y => {}
            (x, y) => {
                return format!(
                    "first divergent record #{index}: sequential {}, sharded {}",
                    describe(x),
                    describe(y)
                )
            }
        }
    }
    format!(
        "every record matches; trailers: sequential {:?}, sharded {:?}",
        a.trailer(),
        b.trailer()
    )
}

/// One side of a record comparison: the record, the end of the trace, or
/// the read error.
fn describe(read: Result<Option<StoredRecord>, StoreError>) -> String {
    match read {
        Ok(Some(record)) => format!("{record:?}"),
        Ok(None) => "end of trace".to_string(),
        Err(e) => format!("unreadable ({e})"),
    }
}

/// Asserts sequential vs sharded equivalence for every shard count,
/// comparing trace bytes, violation sets, and validator statistics.
fn assert_equivalent(
    label: &str,
    dual: &DualGraph,
    cfg: MacConfig,
    assignment: &Assignment,
    faults: &FaultPlan,
    policy_seed: u64,
) -> Result<(), TestCaseError> {
    let dir = scratch_dir(label);
    let seq_path = dir.join(format!("s{policy_seed}-seq.amactrace"));
    let seq = capture(dual, cfg, assignment, faults, policy_seed, 0, &seq_path);
    for &k in SHARD_COUNTS {
        let sh_path = dir.join(format!("s{policy_seed}-k{k}.amactrace"));
        let sh = capture(dual, cfg, assignment, faults, policy_seed, k, &sh_path);
        if seq.trace_bytes != sh.trace_bytes {
            return Err(TestCaseError::fail(format!(
                "trace bytes diverged: {label} K={k} seed={policy_seed}: {}",
                first_divergence(&seq_path, &sh_path)
            )));
        }
        prop_assert_eq!(&seq.validation, &sh.validation);
        prop_assert_eq!(&seq.stats, &sh.stats);
        prop_assert_eq!(seq.outcome, sh.outcome);
        std::fs::remove_file(&sh_path).ok();
    }
    std::fs::remove_file(&seq_path).ok();
    Ok(())
}

/// Strategy: a connected random dual graph (spanning path + random extra
/// reliable and unreliable edges).
fn arb_dual() -> impl Strategy<Value = DualGraph> {
    (3usize..20, 0u64..10_000).prop_map(|(n, seed)| {
        let mut rng = SimRng::seed(seed);
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(NodeId::new(i), NodeId::new(i + 1));
        }
        for _ in 0..n / 2 {
            let u = rng.below(n as u64) as usize;
            let v = rng.below(n as u64) as usize;
            if u != v {
                let _ = b.try_add_edge_idx(u, v);
            }
        }
        let g = b.build();
        generators::arbitrary_augment(g, (n / 2).max(1), &mut rng).unwrap()
    })
}

fn arb_config() -> impl Strategy<Value = MacConfig> {
    (1u64..5, 2u64..8).prop_map(|(fp, mult)| MacConfig::from_ticks(fp, fp * mult))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_runs_match_sequential_on_random_instances(
        dual in arb_dual(),
        cfg in arb_config(),
        msgs in 1usize..4,
        policy_seed in 0u64..1000,
    ) {
        let mut rng = SimRng::seed(policy_seed);
        let assignment = Assignment::random(dual.len(), msgs, &mut rng);
        assert_equivalent(
            "random",
            &dual,
            cfg,
            &assignment,
            &FaultPlan::new(),
            policy_seed,
        )?;
    }

    #[test]
    fn sharded_runs_match_sequential_under_random_fault_plans(
        dual in arb_dual(),
        crashes in 1usize..4,
        policy_seed in 0u64..1000,
    ) {
        let cfg = MacConfig::from_ticks(2, 16);
        let mut rng = SimRng::seed(policy_seed);
        let assignment = Assignment::random(dual.len(), 2, &mut rng);
        let faults = FaultPlan::random_crashes(
            dual.len(),
            crashes.min(dual.len() - 1),
            Time::from_ticks(40),
            &mut rng,
        );
        assert_equivalent("faulted", &dual, cfg, &assignment, &faults, policy_seed)?;
    }
}

/// `K` that doesn't divide `n`, and `K` larger than `n`, on a fixed line.
#[test]
fn indivisible_and_oversized_shard_counts_match() {
    // n = 10 with K ∈ {4, 7} leaves uneven blocks; n = 5 with K = 7 leaves
    // empty shards.
    for n in [10usize, 5] {
        let dual = DualGraph::reliable(generators::line(n).unwrap());
        let assignment = Assignment::all_at(NodeId::new(0), 2);
        assert_equivalent(
            "uneven",
            &dual,
            MacConfig::from_ticks(2, 16),
            &assignment,
            &FaultPlan::new(),
            42,
        )
        .unwrap();
    }
}

/// A whole shard's nodes crash mid-run: shard 1 of a 12-node line split
/// into 4 contiguous blocks owns nodes {3, 4, 5}; crash all three.
#[test]
fn whole_shard_crash_matches_sequential() {
    let dual = DualGraph::reliable(generators::line(12).unwrap());
    let part = amac::graph::partition::contiguous(&dual, 4);
    let victims: Vec<NodeId> = part.nodes(1).to_vec();
    assert_eq!(victims.len(), 3, "12 nodes / 4 shards = 3 per shard");
    let mut faults = FaultPlan::new();
    for (i, &v) in victims.iter().enumerate() {
        faults = faults.crash_at(v, Time::from_ticks(6 + i as u64));
    }
    let assignment = Assignment::all_at(NodeId::new(0), 3);
    assert_equivalent(
        "shard-crash",
        &dual,
        MacConfig::from_ticks(3, 24),
        &assignment,
        &faults,
        7,
    )
    .unwrap();
}
