//! The traced loop must describe the same program `run_scenario` runs:
//! for every workload, at a short length, it reproduces the harness's
//! responses, body bytes, goodput and TTFB p99 exactly.

use dcn_simcore::Nanos;
use dcn_workload::{run_scenario, Scenario, ServerKind};
use streambench::traced::{run_traced, Tracer};
use streambench::workload::{sub_seed, Workload};
use streambench::{check_run, crypto_probe, fingerprint, result_json, Metric};

/// A short, small version of a workload.
fn short(w: Workload, seed: u64) -> Scenario {
    let n = if w.full_fidelity() { 6 } else { 256 };
    w.scenario_sized(seed, n, Nanos::from_millis(300))
}

#[test]
fn traced_loop_reproduces_run_scenario_on_every_workload() {
    for w in Workload::ALL {
        let sc = short(w, sub_seed(7, 0));
        let m = run_scenario(&sc);
        check_run(&m, sc.fleet.n_clients, w.full_fidelity())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let mut tr = Tracer::default();
        let o = run_traced(w, &sc, &mut tr);
        assert_eq!(o.responses, m.responses, "{}: responses", w.name());
        assert_eq!(
            o.total_body_bytes,
            m.total_body_bytes,
            "{}: body bytes",
            w.name()
        );
        assert_eq!(
            o.net_gbps.to_bits(),
            m.net_gbps.to_bits(),
            "{}: goodput",
            w.name()
        );
        assert_eq!(
            o.ttfb_p99_ms.to_bits(),
            m.overload.ttfb_p99_ms.to_bits(),
            "{}: ttfb p99",
            w.name()
        );
        assert!(o.ttfb_samples > 0 && o.ttfb_p50_ms <= o.ttfb_p99_ms);
        // Every call the loop made sits under a loop-iteration root.
        let (roots, popped) = (tr.agg("loop.iteration").calls, o.events.iter().sum::<u64>());
        assert!(roots == popped || roots == popped + 1, "{}", w.name());
        assert!(tr.agg("server.advance").calls > 0 && tr.agg("fleet.on_burst").calls > 0);
    }
}

#[test]
fn profiler_is_bit_identical_on_and_off() {
    for w in Workload::ALL {
        let on = short(w, 11);
        let mut off = on.clone();
        match &mut off.server {
            ServerKind::Atlas(c) => c.profile = false,
            ServerKind::Kstack(c) => c.profile = false,
        }
        let (a, b) = (run_scenario(&on), run_scenario(&off));
        assert!(a.perf.is_some() && b.perf.is_none());
        let key = |m: &dcn_workload::RunMetrics| {
            let mut f = fingerprint(m);
            f[6] = 0; // profiled cycles exist only with the profiler on
            f
        };
        assert_eq!(key(&a), key(&b), "{}", w.name());
    }
}

#[test]
fn a_scenario_replays_bit_identically() {
    let sc = short(Workload::AtlasTlsScale, 3);
    assert_eq!(
        fingerprint(&run_scenario(&sc)),
        fingerprint(&run_scenario(&sc))
    );
}

#[test]
fn crypto_probe_checks_before_it_times() {
    crypto_probe::check(5).expect("round trip and raw-GCM agreement");
    let r = crypto_probe::measure(5).expect("timed");
    assert!(r.seal_ns_per_byte > 0.0 && r.open_ns_per_byte > 0.0);
}

#[test]
fn verification_gate_rejects_bad_runs() {
    let sc = short(Workload::AtlasTlsVerified, 2);
    let good = run_scenario(&sc);
    check_run(&good, sc.fleet.n_clients, true).expect("clean run passes");
    let mut bad = good.clone();
    bad.verify_failures = 1;
    assert!(check_run(&bad, sc.fleet.n_clients, true).is_err());
    let mut bad = good.clone();
    bad.leaked_buffers = 2;
    assert!(check_run(&bad, sc.fleet.n_clients, true).is_err());
    let mut bad = good;
    bad.verified_bytes = bad.total_body_bytes / 2;
    assert!(check_run(&bad, sc.fleet.n_clients, true).is_err());
}

#[test]
fn result_line_is_one_json_object() {
    let ok = result_json(true, 10, 1, &[Metric::new("setup_s", 0.25, "s")]);
    assert_eq!(
        ok,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
    let bad = result_json(false, 10, 1, &[Metric::new("setup_s", 0.25, "s")]);
    assert!(bad.ends_with("\"metrics\": {}}"));
}
