//! # streambench — the repository's benchmark
//!
//! Runs one named streaming workload for a given seed and prints its
//! end-to-end metrics (`--trace 0`) or its per-layer metrics from a
//! separately traced run (`--trace 1`). The last line of standard
//! output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` in this directory for the workloads, the metric
//! definitions and the layer-to-metric predictions.

pub mod crypto_probe;
pub mod host_probe;
pub mod traced;
pub mod workload;

use dcn_crypto::RECORD_PAYLOAD_MAX;
use dcn_workload::RunMetrics;
use std::fmt::Write as _;

/// Median of `v` (mean of the middle pair for even lengths).
///
/// # Panics
/// On an empty slice or a NaN.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Requests that did not complete cleanly: connection resets, 503
/// load-shed answers and responses that failed verification.
#[must_use]
pub fn failures(m: &RunMetrics) -> u64 {
    m.overload.client_resets + m.overload.client_503s + m.verify_failures
}

/// Body bytes received but not yet authenticated when the run was cut:
/// the tail of a record still in flight.
#[must_use]
pub fn unverified_tail(m: &RunMetrics) -> u64 {
    m.total_body_bytes.saturating_sub(m.verified_bytes)
}

/// The correctness gate for one simulated run.
///
/// # Errors
/// Every check that failed, one per line.
pub fn check_run(m: &RunMetrics, n_clients: usize, verified: bool) -> Result<(), String> {
    let mut errs = Vec::new();
    if m.verify_failures != 0 {
        errs.push(format!(
            "{} responses failed verification",
            m.verify_failures
        ));
    }
    if m.leaked_buffers != 0 {
        errs.push(format!("{} DMA buffers leaked", m.leaked_buffers));
    }
    if m.responses == 0 || m.total_body_bytes == 0 {
        errs.push("no response completed".to_string());
    }
    if m.perf.is_none() {
        errs.push("the stage profiler produced no report".to_string());
    }
    if verified {
        // A record is authenticated only once all of it has arrived, so
        // each client may hold at most one partial record at the cut.
        let bound = (n_clients * RECORD_PAYLOAD_MAX) as u64;
        if m.verified_bytes == 0
            || m.verified_bytes > m.total_body_bytes
            || unverified_tail(m) >= bound
        {
            errs.push(format!(
                "verified {} of {} body bytes (tail allowed < {bound})",
                m.verified_bytes, m.total_body_bytes
            ));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("\n"))
    }
}

/// The outputs two runs of one scenario must agree on bit for bit.
#[must_use]
pub fn fingerprint(m: &RunMetrics) -> [u64; 9] {
    [
        m.responses,
        m.total_body_bytes,
        m.verified_bytes,
        m.net_gbps.to_bits(),
        m.overload.ttfb_p99_ms.to_bits(),
        m.overload.empty_waits,
        m.perf.as_ref().map_or(0, |p| p.total_cycles()),
        m.mem_read_gbps.to_bits(),
        m.mem_write_gbps.to_bits(),
    ]
}

/// The result line. With `correct == false` it carries no metrics.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    if correct {
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
    }
    out.push_str("}}");
    out
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

/// Current resident set of this process in MiB (`VmRSS`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS")
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{field} missing from /proc/self/status"))
}
