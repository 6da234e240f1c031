//! The Stellar benchmark: one command, three workloads, one closed-loop
//! caller thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload signal_churn --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every workload runs a control loop (members signalling over BGP wire
//! UPDATEs into `StellarSystem`) and a dataplane loop (aggregates
//! through `Fabric::process_tick_in_place`) at workload-specific sizes:
//! `signal_churn` is control-heavy with light verification ticks,
//! `ddos_deep` and `ddos_wide` are dataplane-heavy with a small signal
//! probe. Each run builds [`REPS`] instances one after another and
//! splits the window over them; `setup_s` is the median set-up time and
//! every window metric the median over instances. With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run measures one untraced window and then one
//! traced window (spans, replicas, allocation counts), and the last line
//! carries the per-layer metrics. Output checks run in both modes; any
//! failure exits non-zero.

mod alloc;
mod control;
mod data;
mod rng;
mod stats;
mod trace;

use control::{ControlLoop, ControlSpec, OpStats};
use data::{DataPlane, DataSpec, RuleShape, TickStats};
use stats::{median, summarize};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Trace;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Instances built, measured and checked per run; the median of their
/// set-up times is `setup_s`.
const REPS: usize = 6;
/// Untimed dataplane ticks before measuring (also the ticks compared
/// across worker counts on `ddos_wide`).
const WARMUP_TICKS: usize = 6;
/// Untimed ops before measuring.
const WARMUP_OPS: usize = 16;
/// Signal ops of the probe per dataplane tick on the ddos workloads.
const PROBE_OPS_PER_TICK: usize = 4;
/// Ports sampled for `classify.update_us`.
const UPDATE_SAMPLE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SignalChurn,
    DdosDeep,
    DdosWide,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "signal_churn" => Some(Workload::SignalChurn),
            "ddos_deep" => Some(Workload::DdosDeep),
            "ddos_wide" => Some(Workload::DdosWide),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SignalChurn => "signal_churn",
            Workload::DdosDeep => "ddos_deep",
            Workload::DdosWide => "ddos_wide",
        }
    }

    fn control(self) -> ControlSpec {
        match self {
            Workload::SignalChurn => ControlSpec {
                members: 800,
                pops: 4,
                standing: true,
                churn_victims: 64,
                rounds: 32,
                verify: true,
            },
            Workload::DdosDeep | Workload::DdosWide => ControlSpec {
                members: 64,
                pops: 4,
                standing: false,
                churn_victims: 16,
                rounds: 64,
                verify: false,
            },
        }
    }

    fn data(self) -> Option<DataSpec> {
        match self {
            Workload::SignalChurn => None,
            Workload::DdosDeep => Some(DataSpec {
                pops: 4,
                ports: 1_000,
                ruled_ports: 64,
                rules: RuleShape::Deep { min: 128, max: 250 },
                offers_per_tick: 20_000,
                offer_sets: 4,
            }),
            Workload::DdosWide => Some(DataSpec {
                pops: 16,
                ports: 250_000,
                ruled_ports: 6_250,
                rules: RuleShape::Wide { per_port: 4 },
                offers_per_tick: 12_500,
                offer_sets: 4,
            }),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// One built instance of a workload.
struct Instance {
    control: ControlLoop,
    data: Option<DataPlane>,
}

impl Instance {
    fn setup(w: Workload, seed: u64, traced: bool, rep: usize) -> Result<Self, String> {
        Ok(Instance {
            control: ControlLoop::setup(w.control(), seed, traced, rep, REPS)?,
            data: w.data().map(|d| DataPlane::setup(d, seed)),
        })
    }

    /// The tick-worker count of the fabric the dataplane loop drives.
    fn tick_workers(&self) -> usize {
        self.data.as_ref().map_or_else(
            || self.control.sys.ixp.fabric.tick_workers(),
            |d| d.fabric.tick_workers(),
        )
    }

    /// Traced only: `classify.update_us` on this instance's final state.
    fn time_rule_updates(&mut self, ticks: &mut TickStats) {
        match self.data.as_mut() {
            Some(d) => {
                let now = d.now_us();
                data::time_rule_updates(&mut d.fabric, UPDATE_SAMPLE, now, ticks)
            }
            None => {
                let now = self.control.now_us();
                data::time_rule_updates(&mut self.control.sys.ixp.fabric, UPDATE_SAMPLE, now, ticks)
            }
        }
    }

    fn digest(&self) -> u64 {
        self.control.digest ^ self.data.as_ref().map_or(0, |d| d.digest.rotate_left(1))
    }

    /// One measured window; tick ids start at `base`.
    fn window(&mut self, budget: Duration, base: u64, trace: &mut Trace) -> (OpStats, TickStats) {
        let mut ops = OpStats::default();
        let mut ticks = TickStats::starting_at(base);
        let waits_from = self.control.queue_waits_logged();
        let start = Instant::now();
        while start.elapsed() < budget {
            match self.data.as_mut() {
                Some(d) => {
                    d.step(trace, &mut ticks);
                    for _ in 0..PROBE_OPS_PER_TICK {
                        self.control.run_op(trace, &mut ops, &mut ticks);
                    }
                }
                None => self.control.run_op(trace, &mut ops, &mut ticks),
            }
        }
        ops.queue_wait_us = self.control.queue_waits_since(waits_from);
        (ops, ticks)
    }
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics of one instance's window (all but `setup_s` and
/// `peak_rss_mb`, which belong to the whole run).
fn window_metrics(ops: &OpStats, ticks: &TickStats) -> Vec<Metric> {
    let sig = summarize(&ops.signal_us);
    let tick = summarize(&ticks.tick_ms);
    let completed = ops.attempted - ops.failed;
    vec![
        m(
            "aggs_per_s",
            ticks.aggs as f64 / (ticks.busy_ns as f64 / 1e9),
            "1/s",
        ),
        m("tick_ms_p50", tick.p50, "ms"),
        m("tick_ms_p95", tick.p95, "ms"),
        m(
            "signals_per_s",
            completed as f64 / (ops.loop_ns as f64 / 1e9),
            "1/s",
        ),
        m("signal_us_p50", sig.p50, "us"),
        m("signal_us_p95", sig.p95, "us"),
        m("reaction_sim_s_p95", summarize(&ops.reaction_s).p95, "s"),
    ]
}

/// The run's end-to-end metrics: `setup_s` is the median set-up time,
/// every window metric the median over instances (so a slow spell on
/// the host that hits one instance does not move the run's figure).
fn end_to_end(setup_s: &[f64], per_instance: &[Vec<Metric>]) -> Vec<Metric> {
    let mut out = vec![
        m("setup_s", median(setup_s), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    if let Some(first) = per_instance.first() {
        for (i, x) in first.iter().enumerate() {
            let vals: Vec<f64> = per_instance.iter().map(|ms| ms[i].value).collect();
            let shown: Vec<String> = vals.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "  {:<22} per instance [{}] {}",
                x.name,
                shown.join(", "),
                x.unit
            );
            out.push(m(x.name, median(&vals), x.unit));
        }
    }
    out
}

fn print_samples(label: &str, unit: &str, xs: &[f64]) {
    let s = summarize(xs);
    println!(
        "  {label:<22} n={:<7} p50={:.4} p95={:.4} ({} beyond) p{}={:.4} {unit}",
        s.n, s.p50, s.p95, s.p95_beyond, s.tail_p, s.tail
    );
}

/// Peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout, when it is a git checkout (read from
/// `.git` without running git).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                finite(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // The window is split over [`REPS`] independently built instances,
    // so one process's memory layout and hash seeds do not decide the
    // run's figures; every instance is set up (timed), warmed up,
    // measured and checked, then dropped before the next is built.
    let sub = Duration::from_secs_f64(args.seconds as f64 / REPS as f64);
    let mut setup_s = Vec::with_capacity(REPS);
    let mut digests = Vec::with_capacity(REPS);
    let mut failures: Vec<String> = Vec::new();
    let mut pinned_digest = None;
    let (mut ops_u, mut ticks_u) = (OpStats::default(), TickStats::default());
    let (mut ops_t, mut ticks_t) = (OpStats::default(), TickStats::default());
    let mut trace = if args.trace {
        Trace::on()
    } else {
        Trace::off()
    };
    let mut per_instance = Vec::with_capacity(REPS);
    let mut unroutable = 0;
    let mut dead_lettered = 0;
    for rep in 0..REPS {
        let t = Instant::now();
        let mut inst = Instance::setup(w, args.seed, args.trace, rep)?;
        setup_s.push(t.elapsed().as_secs_f64());
        digests.push(inst.digest());
        let tick_workers = inst.tick_workers();
        if rep == 0 {
            print_meta(args, &inst, tick_workers);
        }

        // Warm-up. On ddos_wide the first instance runs it with the
        // fabric pinned to one worker; every later instance must end it
        // with identical per-port counters at the default worker count.
        if let Some(d) = inst.data.as_mut() {
            let pin = rep == 0 && w == Workload::DdosWide;
            if pin {
                d.fabric.set_tick_workers(1);
            }
            for _ in 0..WARMUP_TICKS {
                d.step_untimed();
            }
            if pin {
                pinned_digest = Some(d.counters_digest());
                d.fabric.set_tick_workers(tick_workers);
            } else if let Some(pinned) = pinned_digest {
                if pinned != d.counters_digest() {
                    failures.push(format!(
                        "per-port counters differ between 1 and {tick_workers} tick workers"
                    ));
                }
            }
        }
        let (mut scratch_ops, mut scratch_ticks) = (OpStats::default(), TickStats::default());
        for _ in 0..WARMUP_OPS {
            inst.control
                .run_op(&mut Trace::off(), &mut scratch_ops, &mut scratch_ticks);
        }

        let base = (rep as u64) << 32;
        let (o, k) = inst.window(sub, base, &mut Trace::off());
        per_instance.push(window_metrics(&o, &k));
        ops_u.absorb(o);
        ticks_u.absorb(k);
        if args.trace {
            let (o, mut k) = inst.window(sub, base | 1 << 31, &mut trace);
            if rep + 1 == REPS {
                inst.time_rule_updates(&mut k);
            }
            ops_t.absorb(o);
            ticks_t.absorb(k);
        }

        // Output checks on this instance.
        inst.control.finish();
        failures.append(&mut inst.control.failures);
        dead_lettered += inst.control.sys.dead_letters.len();
        if let Some(d) = inst.data.as_ref() {
            if w == Workload::DdosDeep {
                if let Err(e) = d.check_oracle() {
                    failures.push(format!("first-match oracle: {e}"));
                }
            }
            unroutable += d.unroutable;
            let bytes = d.fabric.counters().unroutable_bytes;
            if d.unroutable > 0 || bytes > 0 {
                failures.push(format!(
                    "{} unroutable aggregates ({bytes} B)",
                    d.unroutable
                ));
            }
        }
    }
    if digests.windows(2).any(|p| p[0] != p[1]) {
        failures.push(format!(
            "same seed generated different inputs: {digests:x?}"
        ));
    }

    println!("end-to-end (untraced; samples pooled over {REPS} instances):");
    print_samples("signal_us", "us", &ops_u.signal_us);
    print_samples("reaction_sim_s", "s", &ops_u.reaction_s);
    print_samples("tick_ms", "ms", &ticks_u.tick_ms);
    print_samples("setup_s", "s", &setup_s);
    println!(
        "  ops_failed_ratio       {}/{} signal ops failed; {} aggregates offered, {unroutable} unroutable",
        ops_u.failed, ops_u.attempted, ticks_u.aggs,
    );
    let e2e = end_to_end(&setup_s, &per_instance);
    for x in &e2e {
        println!("  {:<22} {} {}", x.name, x.value, x.unit);
    }
    for x in e2e.iter().filter(|x| !x.value.is_finite()) {
        failures.push(format!("{} was not measured (no samples)", x.name));
    }
    let attempted = ops_u.attempted + ops_t.attempted + ticks_u.aggs + ticks_t.aggs;
    let failed = ops_u.failed + ops_t.failed + unroutable;
    let metrics = if args.trace {
        let layers = Layers {
            trace: &trace,
            ops: &ops_t,
            ticks: &ticks_t,
            ops_u: &ops_u,
            ticks_u: &ticks_u,
            dead_lettered,
        };
        per_layer(&layers, w, args.seed)
    } else {
        e2e
    };

    for x in metrics.iter().filter(|x| !x.value.is_finite()) {
        println!(
            "  note: {} had no samples in this run; reported as 0",
            x.name
        );
    }
    let correct = failures.is_empty();
    for f in failures.iter().take(20) {
        eprintln!("CHECK FAILED: {f}");
    }
    if failures.len() > 20 {
        eprintln!("... and {} more check failures", failures.len() - 20);
    }
    Ok((correct, attempted, failed, metrics))
}

fn print_meta(args: &Args, inst: &Instance, tick_workers: usize) {
    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \
         \"commit\": {}, \"tick_workers\": {tick_workers}, \"instances\": {REPS}, \
         \"inputs_digest\": \"{:016x}\", \"standing_rules\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_commit()),
        inst.digest(),
        inst.control.active_rules(),
    );
}

/// What the traced run hands to [`per_layer`].
struct Layers<'a> {
    trace: &'a Trace,
    ops: &'a OpStats,
    ticks: &'a TickStats,
    ops_u: &'a OpStats,
    ticks_u: &'a TickStats,
    dead_lettered: usize,
}

/// Per-layer metrics of the traced window, with the self-time table and
/// the tracing overhead printed alongside.
fn per_layer(l: &Layers, w: Workload, seed: u64) -> Vec<Metric> {
    let (ops, ticks, ops_u, ticks_u) = (l.ops, l.ticks, l.ops_u, l.ticks_u);
    let Some(tr) = l.trace.tracer() else {
        return Vec::new();
    };
    let us = |name: &str| median(&tr.durations_ns(name)) / 1e3;
    let layer_times = tr.layer_times();
    println!("traced window: self time per layer (span minus children)");
    println!(
        "  {:<22} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in &layer_times {
        println!(
            "  {name:<22} {:>9} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path = Path::new(".perfbench_out").join(format!("trace-{}-seed{}.jsonl", w.name(), seed));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("  {} spans written to {}", tr.spans().len(), path.display()),
        Err(e) => println!("  spans not written: {e}"),
    }
    let sig_t = summarize(&ops.signal_us);
    let sig_u = summarize(&ops_u.signal_us);
    let tick_t = summarize(&ticks.tick_ms);
    let tick_u = summarize(&ticks_u.tick_ms);
    println!("tracing overhead (traced minus untraced window):");
    println!(
        "  signal_us_p50 {:+.3} us, signal_us_p95 {:+.3} us, tick_ms_p50 {:+.4} ms, \
         tick_ms_p95 {:+.4} ms",
        sig_t.p50 - sig_u.p50,
        sig_t.p95 - sig_u.p95,
        tick_t.p50 - tick_u.p50,
        tick_t.p95 - tick_u.p95
    );
    print_samples("core.allocs_per_op", "allocs", &ops.allocs);
    print_samples("dataplane.allocs_per_tick", "allocs", &ticks.allocs);
    print_samples("core.pump_applied_us", "us", &ops.pump_applied_us);
    let fabric_ms = median(&ticks.tick_ms);
    let rules = summarize(&ticks.rules_per_port);
    let fabric_ticks = ticks.tick_ms.len().max(1) as f64;
    vec![
        m("bgp.decode_us", us("bgp.decode"), "us"),
        m("routeserver.update_us", us("routeserver.update"), "us"),
        m(
            "routeserver.exports_per_update",
            median(&ops.exports),
            "count",
        ),
        m("core.admit_us", us("core.admit"), "us"),
        m("core.controller_us", us("core.controller"), "us"),
        m("core.lower_proof_us", us("core.lower_proof"), "us"),
        m("core.audit_us", us("core.audit"), "us"),
        m(
            "core.audit_rules_scanned",
            median(&ops.audit_scanned),
            "count",
        ),
        m("core.pump_us", median(&ops.pump_applied_us), "us"),
        m("core.applied", ops.applied as f64, "count"),
        m("core.dead_lettered", l.dead_lettered as f64, "count"),
        m("core.queue_backlog_max", ops.backlog_max as f64, "count"),
        m(
            "core.queue_wait_sim_ms_p95",
            summarize(&ops.queue_wait_us).p95 / 1e3,
            "ms",
        ),
        m("core.allocs_per_op", median(&ops.allocs), "count"),
        m("classify.lookup_ns", median(&ticks.lookup_ns), "ns"),
        m(
            "classify.hit_ratio",
            ticks.hits as f64 / ticks.keys.max(1) as f64,
            "ratio",
        ),
        m("classify.rules_per_port_p50", rules.p50, "count"),
        m(
            "classify.rules_per_port_max",
            ticks.rules_per_port.iter().copied().fold(0.0, f64::max),
            "count",
        ),
        m("classify.update_us", median(&ticks.update_us), "us"),
        m("dataplane.router_tick_ms", median(&ticks.router_ms), "ms"),
        m("dataplane.allocs_per_tick", median(&ticks.allocs), "count"),
        m(
            "dataplane.ports_touched_share",
            median(&ticks.touched_share),
            "ratio",
        ),
        m("sim.fabric_tick_ms", fabric_ms, "ms"),
        m(
            "sim.exchange_ms",
            fabric_ms - median(&ticks.router_critical_ms),
            "ms",
        ),
        m(
            "sim.parallel_tick_share",
            ticks.parallel as f64 / fabric_ticks,
            "ratio",
        ),
        m("trace.overhead_signal_us_p50", sig_t.p50 - sig_u.p50, "us"),
        m("trace.overhead_tick_ms_p50", tick_t.p50 - tick_u.p50, "ms"),
    ]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload signal_churn|ddos_deep|ddos_wide --seed N --seconds S --trace 0|1\n{e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark set-up failed: {e}");
            std::process::exit(1);
        }
    }
}
