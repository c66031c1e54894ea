//! Smoke test of the benchmark itself: every workload at its tiny size
//! passes its correctness checks, untraced and traced, and the metrics a
//! run reports are exactly the ones `BENCHMARK.json` declares.

use perfbench::measure::{self, Settings};
use perfbench::workloads::Workload;

fn tiny(workload: Workload, trace: bool) -> Settings {
    Settings {
        workload,
        seed: 3,
        seconds: 1.0,
        trace,
        tiny: true,
    }
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("names are strings")].to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for workload in Workload::ALL {
        let result = measure::run(&tiny(workload, false));
        assert!(result.attempted >= 1, "{}: nothing ran", workload.name());
        assert_eq!(result.failed, 0, "{}: a check failed", workload.name());
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("end-to-end metric")
        };
        assert!(value("events_per_s") > 0.0, "{}", workload.name());
        assert!(value("setup_s") > 0.0, "{}", workload.name());
        assert_eq!(value("success_rate"), 1.0, "{}", workload.name());
    }
}

#[test]
fn every_workload_passes_its_checks_traced_and_reports_every_layer() {
    let declared = declared("per_layer");
    for workload in Workload::ALL {
        let result = measure::run(&tiny(workload, true));
        assert!(result.attempted >= 1, "{}: nothing ran", workload.name());
        assert_eq!(result.failed, 0, "{}: a check failed", workload.name());
        let reported: Vec<String> = result.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(reported, declared, "{}", workload.name());
        let value = |name: &str| {
            result
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("declared metric")
        };
        assert!(value("mac.events") > 0.0, "{}", workload.name());
        assert!(
            value("mac.automaton.callbacks") > 0.0,
            "{}",
            workload.name()
        );
        match workload {
            Workload::FloodGrid => {
                assert!(value("sim.engine.fused_events_per_s") > 0.0);
                assert!(value("sim.engine.threaded_events_per_s") > 0.0);
            }
            Workload::FmmbEnhanced => {
                assert!(value("mac.timer") > 0.0);
                assert!(value("mac.abort") > 0.0);
            }
            Workload::TraceReplay => {
                assert!(value("store.open_s") > 0.0);
                assert!(value("store.bytes_per_record") > 0.0);
                assert!(value("graph.dual_new_s") > 0.0);
            }
            Workload::GreyzoneLazy => assert!(value("mac.forced_rcv") > 0.0),
        }
    }
}

#[test]
fn the_end_to_end_metrics_match_the_declaration() {
    let reported: Vec<String> = measure::END_TO_END
        .iter()
        .map(|(name, _)| (*name).to_string())
        .collect();
    assert_eq!(declared("end_to_end"), reported);
}
