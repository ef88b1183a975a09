//! `streambench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--trace 0` runs the workload through `dcn_workload::run_scenario`
//! and prints the end-to-end metrics; `--trace 1` runs it once more
//! through the traced loop and prints the per-layer metrics. Either
//! way the last line of standard output is the JSON result, and the
//! process exits non-zero without metrics if any correctness check
//! fails.

use dcn_obs::{ProfStage, StallKind};
use dcn_workload::{run_scenario, RunMetrics};
use std::process::ExitCode;
use std::time::Instant;
use streambench::host_probe::MemProbe;
use streambench::traced::{run_traced, Tracer, EVENT_KINDS};
use streambench::workload::{sub_seed, time_setup, SetupTiming, Workload};
use streambench::{
    check_run, crypto_probe, failures, fingerprint, median, peak_rss_mb, result_json, rss_mb,
    unverified_tail, Metric,
};

/// Set-ups timed per sub-scenario: before each simulation of an
/// end-to-end run, spread over the run so that one busy moment on the
/// host does not set `setup_s` (their median), and once per
/// sub-scenario in a traced run.
const SETUPS_PER_REP: usize = 7;
/// Runs of each sub-scenario over which `host_hops_per_byte` takes the
/// fastest: a fixed count, so the estimate does not depend on how many
/// runs fit in `--seconds`. Later runs are still checked.
const TIMED_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Requests made by the simulated fleet, and how many did not
/// complete cleanly.
#[derive(Clone, Copy, Default)]
struct Requests {
    attempted: u64,
    failed: u64,
}

impl Requests {
    fn of(m: &RunMetrics) -> Requests {
        Requests {
            attempted: m.responses + failures(m),
            failed: failures(m),
        }
    }

    fn of_all<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> Requests {
        runs.into_iter()
            .map(Requests::of)
            .fold(Requests::default(), Requests::plus)
    }

    fn plus(self, o: Requests) -> Requests {
        Requests {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
        }
    }
}

/// What a run measured, before it is printed.
struct Outcome {
    metrics: Vec<Metric>,
    requests: Requests,
}

/// A failed check, with the requests of the runs made up to it.
struct Failed {
    msg: String,
    requests: Requests,
}

impl Failed {
    /// A check that failed before any simulation ran.
    fn before_runs(msg: String) -> Failed {
        Failed {
            msg,
            requests: Requests::default(),
        }
    }
}

/// `SETUPS_PER_REP` timed set-ups of one sub-scenario.
fn time_setups(w: Workload, seed: u64) -> impl Iterator<Item = SetupTiming> {
    (0..SETUPS_PER_REP).map(move |_| time_setup(w, seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("streambench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "streambench: workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    match out {
        Ok(o) if o.metrics.iter().all(|m| m.value.is_finite()) => {
            for m in &o.metrics {
                println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            let r = o.requests;
            println!("{}", result_json(true, r.attempted, r.failed, &o.metrics));
            ExitCode::SUCCESS
        }
        Ok(o) => {
            for m in o.metrics.iter().filter(|m| !m.value.is_finite()) {
                eprintln!("streambench: metric {} is not finite", m.name);
            }
            let r = o.requests;
            println!("{}", result_json(false, r.attempted, r.failed, &[]));
            ExitCode::FAILURE
        }
        Err(Failed { msg, requests: r }) => {
            eprintln!("streambench: CHECK FAILED\n{msg}");
            println!("{}", result_json(false, r.attempted, r.failed, &[]));
            ExitCode::FAILURE
        }
    }
}

fn cycles_per_byte(m: &RunMetrics) -> f64 {
    let cycles = m.perf.as_ref().map_or(0, |p| p.total_cycles());
    cycles as f64 / m.total_body_bytes as f64
}

fn dram_per_byte(m: &RunMetrics) -> f64 {
    (m.mem_read_gbps + m.mem_write_gbps) / m.net_gbps
}

fn print_failures(m: &RunMetrics) {
    let r = Requests::of(m);
    println!(
        "  failed_frac {:.6} = {} failed / {} attempted (resets {}, 503s {}, verify failures {}); {} responses completed",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted,
        m.overload.client_resets,
        m.overload.client_503s,
        m.verify_failures,
        m.responses
    );
}

/// `--trace 0`: run the workload's sub-scenarios through `run_scenario`
/// until `--seconds` is spent (at least `TIMED_PASSES` times each),
/// timing set-ups before each. Modeled metrics are medians over the
/// sub-scenarios; every repeat must reproduce its sub-scenario bit for
/// bit.
fn end_to_end_run(args: &Args) -> Result<Outcome, Failed> {
    let w = args.workload;
    let started = Instant::now();
    let rss_before_probe = rss_mb().map_err(Failed::before_runs)?;
    let probe = MemProbe::new();
    // The probe's buffer lives for the whole run; it is not the
    // program's memory.
    let probe_mb = rss_mb().map_err(Failed::before_runs)? - rss_before_probe;
    let mut hop_ns = vec![probe.ns_per_hop()];
    let mut first: Vec<RunMetrics> = Vec::new();
    let subs = w.sub_scenarios();
    // Each sub-scenario's cheapest timed run: host noise only ever adds
    // time.
    let mut host_hops_per_byte = vec![f64::INFINITY; subs];
    let mut setup_ns = Vec::new();
    let mut peak_rss = 0.0;
    let mut rep = 0;
    loop {
        let i = rep % subs;
        let seed = sub_seed(args.seed, i);
        setup_ns.extend(time_setups(w, seed).map(|t| t.total_ns as f64));
        let sc = w.scenario(seed);
        let t = Instant::now();
        let m = run_scenario(&sc);
        let wall = t.elapsed().as_nanos() as f64;
        let fail = |msg: String| Failed {
            msg: format!("sub-scenario {i} (seed {}): {msg}", sc.seed),
            requests: Requests::of_all(&first).plus(Requests::of(&m)),
        };
        check_run(&m, w.n_clients(), w.full_fidelity()).map_err(fail)?;
        if rep < subs * TIMED_PASSES {
            // The probe before and after this simulation.
            let hop_before = hop_ns[hop_ns.len() - 1];
            let hop_after = probe.ns_per_hop();
            hop_ns.push(hop_after);
            let hop = (hop_before + hop_after) / 2.0;
            let hops_per_byte = wall / hop / m.total_body_bytes as f64;
            host_hops_per_byte[i] = host_hops_per_byte[i].min(hops_per_byte);
        }
        if rep < subs {
            print_failures(&m);
            first.push(m);
        } else if fingerprint(&m) != fingerprint(&first[i]) {
            return Err(fail("did not replay bit-identically".to_string()));
        }
        rep += 1;
        if rep == subs {
            // Read after one pass: later repeats only add allocator
            // churn, and how many fit depends on the host's speed.
            peak_rss = peak_rss_mb().map_err(|msg| Failed {
                msg,
                requests: Requests::of_all(&first),
            })? - probe_mb;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / rep as f64;
        if rep >= subs * TIMED_PASSES && elapsed + per_rep > args.seconds {
            break;
        }
    }
    let modeled =
        |f: &dyn Fn(&RunMetrics) -> f64| median(&mut first.iter().map(f).collect::<Vec<_>>());
    println!(
        "  {} sub-scenarios x {} clients, {} runs in {:.1} s; probe {:.1} ns/hop (median of {}), {:.1} MiB",
        subs,
        w.n_clients(),
        rep,
        started.elapsed().as_secs_f64(),
        median(&mut hop_ns.clone()),
        hop_ns.len(),
        probe_mb
    );
    let metrics = vec![
        Metric::new("goodput_gbps", modeled(&|m| m.net_gbps), "Gb/s"),
        Metric::new("ttfb_p99_ms", modeled(&|m| m.overload.ttfb_p99_ms), "ms"),
        Metric::new("served_frac", modeled(&|m| m.live_fraction), "ratio"),
        Metric::new("cycles_per_byte", modeled(&cycles_per_byte), "cycles/B"),
        Metric::new("dram_per_byte", modeled(&dram_per_byte), "B/B"),
        Metric::new(
            "host_hops_per_byte",
            median(&mut host_hops_per_byte),
            "hop/B",
        ),
        Metric::new("setup_s", median(&mut setup_ns) / 1e9, "s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    Ok(Outcome {
        metrics,
        requests: Requests::of_all(&first),
    })
}

/// `--trace 1`: the first sub-scenario once through `run_scenario`
/// (modeled per-layer counts, untraced wall time) and once through the
/// traced loop (host time per layer), plus the crypto probe.
fn traced_run(args: &Args) -> Result<Outcome, Failed> {
    let w = args.workload;
    let setups: Vec<_> = (0..w.sub_scenarios())
        .flat_map(|i| time_setups(w, sub_seed(args.seed, i)))
        .collect();
    let setup_median = |f: fn(&SetupTiming) -> u64| {
        median(&mut setups.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
    };
    let (catalog_ns, server_ns) = (
        setup_median(|t| t.catalog_ns),
        setup_median(|t| t.server_ns),
    );
    let sc = w.scenario(sub_seed(args.seed, 0));
    let probe = MemProbe::new();
    let hop_before = probe.ns_per_hop();
    let t = Instant::now();
    let m = run_scenario(&sc);
    let untraced_ns = t.elapsed().as_nanos() as f64;
    let hop_ns = (hop_before + probe.ns_per_hop()) / 2.0;
    drop(probe);
    let fail = |msg: String| Failed {
        msg,
        requests: Requests::of(&m),
    };
    check_run(&m, w.n_clients(), w.full_fidelity()).map_err(fail)?;
    print_failures(&m);

    let mut tr = Tracer::default();
    let o = run_traced(w, &sc, &mut tr);
    if (
        o.responses,
        o.total_body_bytes,
        o.net_gbps.to_bits(),
        o.ttfb_p99_ms.to_bits(),
    ) != (
        m.responses,
        m.total_body_bytes,
        m.net_gbps.to_bits(),
        m.overload.ttfb_p99_ms.to_bits(),
    ) {
        return Err(fail(format!(
            "traced loop diverged from run_scenario: responses {} vs {}, body {} vs {}, goodput {} vs {}, ttfb p99 {} vs {}",
            o.responses, m.responses, o.total_body_bytes, m.total_body_bytes,
            o.net_gbps, m.net_gbps, o.ttfb_p99_ms, m.overload.ttfb_p99_ms
        )));
    }
    write_span_log(w, args.seed, &tr);
    let rates = crypto_probe::measure(args.seed).map_err(fail)?;

    let perf = m.perf.as_ref().expect("check_run requires a profile");
    let body = m.total_body_bytes as f64;
    let traced_ns = o.wall_ns as f64;
    let (sealed, opened) = if w.full_fidelity() {
        (perf.encrypt_bytes as f64, m.verified_bytes as f64)
    } else {
        (0.0, 0.0)
    };
    let mut v = Vec::new();
    let events: u64 = o.events.iter().sum();
    v.push(Metric::new("simcore.events", events as f64, "count"));
    for (kind, n) in EVENT_KINDS.iter().zip(o.events) {
        v.push(Metric::new(
            format!("simcore.events.{kind}"),
            n as f64,
            "count",
        ));
    }
    let (pop, sched) = (tr.agg("simcore.pop"), tr.agg("simcore.schedule"));
    v.push(Metric::new(
        "simcore.queue.calls",
        (pop.calls + sched.calls) as f64,
        "count",
    ));
    v.push(Metric::new(
        "simcore.queue.ns",
        (pop.total_ns + sched.total_ns) as f64,
        "ns",
    ));
    for name in ["server.on_wire_rx", "server.advance"] {
        let a = tr.agg(name);
        v.push(Metric::new(
            format!("{name}.calls"),
            a.calls as f64,
            "count",
        ));
        v.push(Metric::new(format!("{name}.ns"), a.total_ns as f64, "ns"));
        v.push(Metric::new(
            format!("{name}.ns_per_call"),
            a.total_ns as f64 / a.calls.max(1) as f64,
            "ns/call",
        ));
    }
    v.push(Metric::new(
        "server.poll_at.ns",
        tr.agg("server.poll_at").total_ns as f64,
        "ns",
    ));
    let burst = tr.agg("fleet.on_burst");
    v.push(Metric::new(
        "fleet.on_burst.calls",
        burst.calls as f64,
        "count",
    ));
    v.push(Metric::new(
        "fleet.on_burst.ns",
        burst.total_ns as f64,
        "ns",
    ));
    v.push(Metric::new(
        "fleet.spawn.ns",
        tr.agg("fleet.spawn").total_ns as f64,
        "ns",
    ));
    v.push(Metric::new(
        "fleet.fire_retries.calls",
        tr.agg("fleet.fire_retries").calls as f64,
        "count",
    ));
    v.push(Metric::new(
        "middlebox.delay.ns",
        tr.agg("middlebox.delay").total_ns as f64,
        "ns",
    ));
    v.push(Metric::new(
        "loop.self_ns",
        tr.agg("loop.iteration").self_ns() as f64,
        "ns",
    ));
    v.push(Metric::new("host.ns_per_byte", untraced_ns / body, "ns/B"));
    v.push(Metric::new("host.ns_per_hop", hop_ns, "ns"));
    v.push(Metric::new("trace.wall_s", traced_ns / 1e9, "s"));
    v.push(Metric::new("trace.untraced_wall_s", untraced_ns / 1e9, "s"));
    v.push(Metric::new(
        "trace.overhead_frac",
        (traced_ns - untraced_ns) / untraced_ns,
        "ratio",
    ));
    v.push(Metric::new(
        "crypto.seal_ns_per_byte",
        rates.seal_ns_per_byte,
        "ns/B",
    ));
    v.push(Metric::new(
        "crypto.open_ns_per_byte",
        rates.open_ns_per_byte,
        "ns/B",
    ));
    v.push(Metric::new(
        "crypto.est_share",
        (rates.seal_ns_per_byte * sealed + rates.open_ns_per_byte * opened) / untraced_ns,
        "ratio",
    ));
    for st in ProfStage::ALL
        .into_iter()
        .filter(|s| *s != ProfStage::Other)
    {
        let k = st as usize;
        v.push(Metric::new(
            format!("stage.{}.cycles_per_byte", st.name()),
            perf.stage_cycles[k] as f64 / body,
            "cycles/B",
        ));
        v.push(Metric::new(
            format!("stage.{}.dram_per_byte", st.name()),
            (perf.stage_dram_rd[k] + perf.stage_dram_wr[k]) as f64 / body,
            "B/B",
        ));
    }
    v.push(Metric::new(
        "mem.llc_resident_dma_frac",
        perf.llc_resident_dma_frac(),
        "ratio",
    ));
    v.push(Metric::new(
        "mem.llc_resident_encrypt_frac",
        perf.llc_resident_encrypt_frac(),
        "ratio",
    ));
    v.push(Metric::new("mem.llc_miss_e8", m.llc_miss_e8, "1e8/s"));
    v.push(Metric::new("diskmap.reads", m.disk_reads as f64, "count"));
    v.push(Metric::new(
        "diskmap.read_bytes_per_byte",
        m.disk_read_bytes as f64 / body,
        "B/B",
    ));
    let pool = m.pool_occ.unwrap_or_default();
    v.push(Metric::new("pool.free_min", pool.free_min as f64, "count"));
    v.push(Metric::new("pool.free_mean", pool.free_mean, "count"));
    for (name, kind) in [
        ("stall.cwnd", StallKind::CwndLimited),
        ("stall.pool", StallKind::PoolEmpty),
        ("stall.nvme", StallKind::NvmeWait),
    ] {
        v.push(Metric::new(name, perf.stall(kind) as f64, "count"));
    }
    let ov = &m.overload;
    v.push(Metric::new(
        "srvcore.empty_waits",
        ov.empty_waits as f64,
        "count",
    ));
    v.push(Metric::new(
        "srvcore.empty_waits_per_response",
        ov.empty_waits as f64 / m.responses as f64,
        "count",
    ));
    v.push(Metric::new("srvcore.shed_new", ov.shed_new as f64, "count"));
    v.push(Metric::new(
        "srvcore.retry_503",
        ov.retry_503 as f64,
        "count",
    ));
    v.push(Metric::new(
        "tcp.rto_fired",
        m.faults.rto_fired as f64,
        "count",
    ));
    v.push(Metric::new(
        "atlas.retransmit_fetches",
        m.retransmit_fetches as f64,
        "count",
    ));
    v.push(Metric::new("server.new.ns", server_ns, "ns"));
    v.push(Metric::new("store.catalog_new.ns", catalog_ns, "ns"));
    let requests = Requests::of(&m);
    v.push(Metric::new(
        "fleet.failed_frac",
        requests.failed as f64 / requests.attempted as f64,
        "ratio",
    ));
    v.push(Metric::new(
        "fleet.client_resets",
        ov.client_resets as f64,
        "count",
    ));
    v.push(Metric::new(
        "fleet.client_503s",
        ov.client_503s as f64,
        "count",
    ));
    v.push(Metric::new(
        "verify.failures",
        m.verify_failures as f64,
        "count",
    ));
    v.push(Metric::new(
        "verify.unverified_tail_bytes",
        if w.full_fidelity() {
            unverified_tail(&m) as f64
        } else {
            0.0
        },
        "B",
    ));
    v.push(Metric::new(
        "fleet.ttfb_samples",
        o.ttfb_samples as f64,
        "count",
    ));
    v.push(Metric::new("fleet.ttfb_p50_ms", o.ttfb_p50_ms, "ms"));
    Ok(Outcome {
        metrics: v,
        requests,
    })
}

/// Write the capped span log and the aggregates next to the benchmark.
fn write_span_log(w: Workload, seed: u64, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => println!(
            "  span log -> {} ({} spans past the cap counted only)",
            path.display(),
            tr.dropped()
        ),
        Err(e) => eprintln!("streambench: cannot write {}: {e}", path.display()),
    }
}
