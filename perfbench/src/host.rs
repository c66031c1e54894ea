//! The host fingerprint every result carries, and the process-level
//! measurements read from `/proc`.

use crate::report::json_string;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seconds this process's main thread has waited on a run queue
/// (`/proc/self/schedstat`, second field, nanoseconds).
pub fn runq_wait_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let nanos: f64 = stat.split_whitespace().nth(1)?.parse().ok()?;
    Some(nanos / 1e9)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON line naming the host and build a result was measured on,
/// with the run's run-queue wait and any `extra` numbers the run measured
/// about the host; printed before every result.
pub fn fingerprint_json(runq_wait_s: f64, extra: &[(&str, f64)]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let extra: String = extra
        .iter()
        .map(|(name, value)| format!(", {}: {value:?}", json_string(name)))
        .collect();
    format!(
        "{{\"host\": {{\"available_parallelism\": {cores}, \"rustc\": {}, \"profile\": {}, \
         \"cpu_model\": {}, \"runq_wait_s\": {runq_wait_s}{extra}}}}}",
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(env!("PERFBENCH_PROFILE")),
        json_string(&cpu_model()),
    )
}
