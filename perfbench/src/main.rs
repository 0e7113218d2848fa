//! The secbus benchmark: three single-process workloads, each checked
//! for correctness, reported end to end (`--trace 0`) or split by layer
//! (`--trace 1`). See `perfbench/NOTES.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload soc_saturated --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --compare perfbench/out/a.json perfbench/out/b.json
//! ```

mod cpus;
mod nocwork;
mod probe;
mod probes;
mod socwork;
mod stats;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use secbus_sim::Json;

use probe::{HostAcc, Probe, Span};
use secbus_sim::SimCore;
use socwork::{Built, Drive, Kind, Traced};

/// Seed kept out of tuning: a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 1_000_003;
/// Repetitions per run, whatever `--seconds` allows.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 500;
/// Instrumentation may leave at most this share of traced host time
/// outside every top-level span.
const MAX_RESIDUAL: f64 = 0.05;
/// A layer's self time may fall below zero by at most this share of the
/// traced host time (clock-read correction error); lower means a parent
/// span holds less than its timed children.
const MAX_NEGATIVE: f64 = 0.02;
/// `setup_s` is the median of this many fastest builds of a run.
const SETUP_BUILDS: usize = 5;
/// A percentile is reported only with at least this many samples above it.
const MIN_TAIL: usize = 10;
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The correctness gate: every failed check is kept with its reason.
#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Run conditions recorded with every result.
fn conditions(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("workload".into(), Json::str(&args.workload)),
        ("seed".into(), Json::uint(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::uint(nproc as u64)),
        (
            "cpus".into(),
            Json::Arr(
                cpus::allowed()
                    .iter()
                    .map(|&c| Json::uint(c as u64))
                    .collect(),
            ),
        ),
        (
            "placement".into(),
            Json::str("one cpu per repetition, rotating"),
        ),
        (
            "crypto_backend".into(),
            Json::str(secbus_crypto::active_backend().name()),
        ),
        ("sim_core".into(), Json::str("event")),
        ("sim_threads".into(), Json::uint(1)),
        ("git_revision".into(), Json::str(git_revision())),
        ("held_out_seed".into(), Json::uint(HELD_OUT_SEED)),
    ])
}

/// The checked-out revision, read from `.git` in the working directory
/// (never a parent); "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), in MiB. The benchmark
/// reads it after the first repetition: later repetitions rebuild the
/// system in memory the allocator has already fragmented, which on some
/// `noc_mesh` seeds raised the peak by 70%.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Exact mean and nearest-rank p99 of per-transaction latencies.
fn latency_metrics(mut latencies: Vec<u64>, gate: &mut Gate) -> (f64, f64) {
    let n = latencies.len();
    gate.check(stats::samples_above(n, 99) >= MIN_TAIL, || {
        format!("{n} latency samples leave fewer than {MIN_TAIL} above p99")
    });
    if n == 0 {
        return (0.0, 0.0);
    }
    latencies.sort_unstable();
    let sum: u64 = latencies.iter().sum();
    (
        stats::mean(sum, n as u64),
        stats::nearest_rank(&latencies, 99) as f64,
    )
}

/// The fastest repetition's rate. Repetitions simulate identical work
/// (their metrics are checked byte-identical), and contention from other
/// tenants only ever slows one down, so the fastest is the steady
/// estimate of what the code itself costs.
fn fastest(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// Set-up time: the median of the run's `SETUP_BUILDS` fastest builds.
/// Every build does identical work, and the host's slow phases last for
/// seconds, so the median of all builds flips with them.
fn setup_time(setups: &[f64]) -> f64 {
    let mut v = setups.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(SETUP_BUILDS);
    stats::median(&v)
}

/// `ns / n`, 0 when `n` is 0.
fn per(ns: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns / n as f64
    }
}

/// Repeat `rep` until the time budget is spent, at least `MIN_REPS`
/// times, each time pinned to the next CPU of the rotation. Returns the
/// CPU of each repetition (`None`: not pinned).
fn repeat(seconds: f64, mut rep: impl FnMut()) -> Vec<Option<usize>> {
    let start = Instant::now();
    let mut placed = Vec::new();
    while placed.len() < MIN_REPS || (secs(start) < seconds && placed.len() < MAX_REPS) {
        placed.push(cpus::pin_next());
        rep();
    }
    placed
}

/// The spread inside one run: every repetition's rate and set-up time,
/// and the fastest rate on each CPU.
fn print_reps(rates: &[f64], setups: &[f64], placed: &[Option<usize>], cycles: u64) {
    let list = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| format!("{:.0}", x * scale))
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut by_cpu: Vec<(Option<usize>, f64)> = Vec::new();
    for (&cpu, &rate) in placed.iter().zip(rates) {
        match by_cpu.iter_mut().find(|(c, _)| *c == cpu) {
            Some((_, best)) => *best = best.max(rate),
            None => by_cpu.push((cpu, rate)),
        }
    }
    let by_cpu: Vec<String> = by_cpu
        .iter()
        .map(|(cpu, best)| match cpu {
            Some(c) => format!("cpu{c}={best:.0}"),
            None => format!("unpinned={best:.0}"),
        })
        .collect();
    println!(
        "reps: {} of {cycles} cycles; cycles/s [{}]; fastest {}; setup us [{}]; median setup us {:.0}",
        rates.len(),
        list(rates, 1.0),
        by_cpu.join(" "),
        list(setups, 1e6),
        stats::median(setups) * 1e6
    );
}

// ---------------------------------------------------------------- SoC

/// A counter of one component in a parsed metrics snapshot (0 if absent).
fn counter(snap: &Json, component: &str, key: &str) -> u64 {
    snap.get(component)
        .and_then(|c| c.get("counters")?.get(key)?.as_u64())
        .unwrap_or(0)
}

/// Exact `sum / count` of a snapshot histogram.
fn hist_mean(snap: &Json, component: &str, key: &str) -> f64 {
    let h = snap
        .get(component)
        .and_then(|c| c.get("histograms")?.get(key).cloned());
    let field = |f: &str| h.as_ref().and_then(|h| h.get(f)?.as_u64()).unwrap_or(0);
    stats::mean(field("sum"), field("count"))
}

/// A counter summed over every component whose name starts with one of
/// `prefixes`.
fn counter_sum(snap: &Json, prefixes: &[&str], key: &str) -> u64 {
    match snap {
        Json::Obj(fields) => fields
            .iter()
            .filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)))
            .map(|(name, _)| counter(snap, name, key))
            .sum(),
        _ => 0,
    }
}

/// Counters of `component` whose key starts with `prefix`, summed.
fn prefixed_sum(snap: &Json, component: &str, prefix: &str) -> u64 {
    match snap.get(component).and_then(|c| c.get("counters")) {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| v.as_u64())
            .sum(),
        _ => 0,
    }
}

fn snapshot(built: &Built) -> Json {
    Json::parse(&built.soc.metrics_json()).expect("metrics snapshot parses")
}

/// What the masters' books say about one simulated repetition.
struct SocOps {
    ops: u64,
    ok: u64,
    unexpected: u64,
    latencies: Vec<u64>,
}

/// The correctness gate on one finished repetition, from the wrappers'
/// books and the program's own metrics snapshot.
fn soc_gate(
    kind: Kind,
    built: &Built,
    probe: &probe::Shared,
    ctl: &socwork::Control,
    gate: &mut Gate,
) -> SocOps {
    let snap = snapshot(built);
    let labels = kind.labels();
    probe::with(probe, |p| {
        let mut ops = SocOps {
            ops: 0,
            ok: 0,
            unexpected: 0,
            latencies: Vec::new(),
        };
        let mut line = String::new();
        for (i, book) in p.books.iter_mut().enumerate() {
            let label = labels[i];
            gate.check(book.balanced(), || {
                format!("{label}: books do not balance: {book:?}")
            });
            let in_flight = book.pending.len() as u64;
            // Closed-loop masters hold at most one request; the flood
            // stops early enough to drain completely.
            let bound = u64::from(!(kind == Kind::Saturated && i == 4));
            gate.check(in_flight <= bound, || {
                format!("{label}: {in_flight} transactions still in flight at the end")
            });
            let shed_stat = counter(&snap, "soc", &format!("soc.shed.m{i}"));
            let shed_alerts = counter(&snap, &format!("LF {label}"), "fw.violation.shed");
            gate.check(book.shed == shed_stat && shed_stat == shed_alerts, || {
                format!(
                    "{label}: {} shed seen, {shed_stat} counted, {shed_alerts} alerted",
                    book.shed
                )
            });
            let allowed = match kind {
                Kind::Saturated if i == 4 => book.shed,
                Kind::Saturated => 0,
                // Tampering, quarantine and faults end accesses in errors
                // by design; only admission refusals are foreign here.
                Kind::Idle => book.failed() - book.shed,
            };
            ops.unexpected += book.failed() - allowed + in_flight.saturating_sub(bound);
            ops.ops += book.issued;
            ops.ok += book.ok;
            ops.latencies.append(&mut book.latencies);
            line.push_str(&format!(
                " {label}[ops={} ok={} shed={} denied={} integrity={} timeout={} error={} in_flight={} stale={}]",
                book.issued, book.ok, book.shed, book.denied, book.integrity, book.timeout,
                book.error, in_flight, book.stale
            ));
        }
        gate.check(socwork::flood_resolved(&built.soc), || {
            "flood source books do not resolve".into()
        });
        match kind {
            Kind::Saturated => {
                let enters = counter(&snap, "soc", "soc.degrade_enters");
                gate.check(enters == 0, || {
                    format!("LCF left its verify posture {enters} times")
                });
                gate.check(p.books.iter().all(|b| b.stale == 0), || {
                    "stale responses on a fault-free run".into()
                });
            }
            Kind::Idle => {
                let recoveries = counter(&snap, "soc", "soc.recoveries");
                let refusals = counter(&snap, "soc", "reconfig.verifier_refusals");
                gate.check(recoveries >= 1, || "no quarantine recovery ran".into());
                gate.check(refusals >= 1 && ctl.commits_refused == refusals, || {
                    format!(
                        "{refusals} verifier refusals, {} refused commits",
                        ctl.commits_refused
                    )
                });
                gate.check(ctl.commits_ok >= 1, || "no policy epoch committed".into());
            }
        }
        let failed = ops.ops - ops.ok;
        println!(
            "ops: ops={} ok={} ops_failed={failed} unexpected={}{line}",
            ops.ops, ops.ok, ops.unexpected
        );
        ops
    })
}

/// Build and run one plain repetition; returns (build s, lap seconds,
/// metrics).
fn soc_rep(kind: Kind, seed: u64) -> (f64, Vec<f64>, String) {
    let start = Instant::now();
    let mut built = socwork::build(kind, seed, None, false);
    let setup = secs(start);
    let mut laps = socwork::Laps::start(kind.lap());
    socwork::run(
        &mut built,
        kind,
        seed,
        kind.cycles(),
        Drive::Laps(&mut laps),
    );
    (setup, laps.secs, socwork::comparable_metrics(&built.soc))
}

/// Every repetition must reproduce the first one's outputs exactly.
fn same_as_first<T: PartialEq>(first: &mut Option<T>, this: T, what: &str, gate: &mut Gate) {
    match first {
        None => *first = Some(this),
        Some(f) => gate.check(*f == this, || format!("{what} diverged from the first")),
    }
}

/// The event and stepped cores on a prefix: host seconds of each, and
/// byte-identical metrics or a gate failure.
fn soc_prefix(kind: Kind, seed: u64, gate: &mut Gate) -> (f64, f64) {
    let mut out = Vec::new();
    for core in [secbus_sim::SimCore::Event, secbus_sim::SimCore::Stepped] {
        let mut built = socwork::build(kind, seed, None, false);
        built.soc.set_sim_core(core);
        let start = Instant::now();
        socwork::run(&mut built, kind, seed, kind.prefix(), Drive::Plain);
        out.push((secs(start), built.soc.metrics_json()));
    }
    gate.check(out[0].1 == out[1].1, || {
        "event and stepped cores diverged on the prefix".into()
    });
    (out[0].0, out[1].0)
}

/// The instrumented reference repetition: wrapped masters keep books,
/// nothing is timed.
fn soc_reference(kind: Kind, seed: u64, gate: &mut Gate) -> (String, SocOps, u64) {
    let probe = Probe::shared(5, false, false, Instant::now());
    let mut built = socwork::build(kind, seed, Some(&probe), false);
    let ctl = socwork::run(&mut built, kind, seed, kind.cycles(), Drive::Plain);
    let ops = soc_gate(kind, &built, &probe, &ctl, gate);
    (
        socwork::comparable_metrics(&built.soc),
        ops,
        built.soc.now().get(),
    )
}

fn soc_end_to_end(kind: Kind, args: &Args, gate: &mut Gate) -> RunResult {
    // The plain repetitions run first, so the peak resident set read
    // after the first is the program's: none of the benchmark's books
    // exists yet.
    let (mut setups, mut laps, mut first) = (Vec::new(), Vec::new(), None);
    let mut peak_rss = 0.0;
    let placed = repeat(args.seconds, || {
        let (setup, lap_secs, metrics) = soc_rep(kind, args.seed);
        if first.is_none() {
            peak_rss = peak_rss_mib();
        }
        same_as_first(&mut first, metrics, "a plain repetition", gate);
        setups.push(setup);
        laps.push(lap_secs);
    });
    let (reference, ops, cycles) = soc_reference(kind, args.seed, gate);
    gate.check(first.as_deref() == Some(reference.as_str()), || {
        "the instrumented repetition diverged from the plain ones".into()
    });
    soc_prefix(kind, args.seed, gate);
    let expected_laps = (cycles / kind.lap()) as usize;
    gate.check(laps.iter().all(|l| l.len() == expected_laps), || {
        format!("a repetition did not end in {expected_laps} laps")
    });
    let rates: Vec<f64> = laps
        .iter()
        .map(|l| cycles as f64 / l.iter().sum::<f64>())
        .collect();
    let ok = ops.ok;
    let (mean, p99) = latency_metrics(ops.latencies, gate);
    print_reps(&rates, &setups, &placed, cycles);
    let floor = stats::lap_floor(&laps);
    println!(
        "laps: {expected_laps} of {} cycles; fastest repetition {:.0} cycles/s; \
         every lap at its fastest {:.0} cycles/s",
        kind.lap(),
        fastest(&rates),
        cycles as f64 / floor
    );
    RunResult {
        attempted: ops.ops,
        failed: ops.unexpected,
        metrics: vec![
            m("sim_cycles_per_s", cycles as f64 / floor, "cycles/s"),
            m("setup_s", setup_time(&setups), "s"),
            m("peak_rss_mib", peak_rss, "MiB"),
            m("txn_latency_mean_cycles", mean, "cycles"),
            m("txn_latency_p99_cycles", p99, "cycles"),
            m(
                "txn_ok_per_kcycle",
                ok as f64 * 1000.0 / cycles as f64,
                "1/kcycle",
            ),
        ],
    }
}

/// Every per-layer metric in output order, with its unit. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.skip_fraction", "ratio"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.event_vs_stepped", "ratio"),
    ("soc.fabric_ns_per_event", "ns"),
    ("soc.port_issue_ns", "ns"),
    ("soc.port_poll_ns", "ns"),
    ("soc.shed", "count"),
    ("soc.watchdog_cancels", "count"),
    ("soc.retries", "count"),
    ("cpu.tick_self_ns", "ns"),
    ("cpu.master_ticks", "count"),
    ("cpu.ipc", "instr/cycle"),
    ("core.sb.checks", "count"),
    ("core.sb.denied", "count"),
    ("core.sb.check_ns", "ns"),
    ("core.sb.cycles_mean", "cycles"),
    ("bus.grants", "count"),
    ("bus.utilisation", "ratio"),
    ("bus.grant_wait_cycles_mean", "cycles"),
    ("bus.arbiter_ns", "ns"),
    ("core.lcf.accesses.verify", "count"),
    ("core.lcf.accesses.cipher_only", "count"),
    ("core.lcf.accesses.bypass", "count"),
    ("core.lcf.cc_cycles_mean", "cycles"),
    ("core.lcf.ic_cycles_mean", "cycles"),
    ("core.lcf.handle_ns.read_verify", "ns"),
    ("core.lcf.handle_ns.write_verify", "ns"),
    ("core.lcf.handle_ns.cipher_only", "ns"),
    ("core.lcf.handle_ns.bypass", "ns"),
    ("core.lcf.integrity_failures", "count"),
    ("core.lcf.recoveries", "count"),
    ("core.lcf.seal_ns", "ns"),
    ("crypto.ctr_gbps", "GB/s"),
    ("crypto.sha_gbps", "GB/s"),
    ("crypto.merkle_build_ns", "ns"),
    ("mem.service_cycles_mean", "cycles"),
    ("core.monitor.alerts", "count"),
    ("core.monitor.reactions", "count"),
    ("core.reconfig.epochs", "count"),
    ("core.reconfig.refusals", "count"),
    ("core.reconfig.commit_ns", "ns"),
    ("fault.fired", "count"),
    ("noc.hops", "count"),
    ("noc.link_wait_cycles", "cycles"),
    ("noc.credit_wait_cycles", "cycles"),
    ("noc.max_in_flight", "count"),
    ("noc.alerts", "count"),
    ("noc.tick_ns_per_cycle", "ns"),
    ("noc.inject_ns", "ns"),
    ("noc.deliver_ns", "ns"),
    ("workload.arrivals", "count"),
    ("workload.schedule_ns", "ns"),
    ("bench.trace_overhead", "ratio"),
];

/// The full per-layer report from the values one workload measured.
fn per_layer(measured: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            m(name, value, unit)
        })
        .collect()
}

/// Prints the host ledger line and gates it. `layers` holds the self
/// time, in ns, of each program layer and of the benchmark's own work
/// (`bench`); `wall` is the host time measured around the traced
/// repetitions and `untraced` that of as many plain ones.
///
/// The top-level layers come from their own spans, so the residual is
/// host time no span saw, and it can fail the gate. A layer computed as
/// its parent span minus its timed children must not go negative.
/// `program_vs_untraced` compares the traced program layers with the
/// plain run: instrumentation cost the split did not move to `bench`.
fn host_ledger(layers: &[(&str, f64)], wall: f64, untraced: f64, clock: f64, gate: &mut Gate) {
    let wall = wall.max(1.0);
    let covered: f64 = layers.iter().map(|(_, ns)| ns).sum();
    let bench: f64 = layers
        .iter()
        .filter(|(name, _)| *name == "bench")
        .map(|(_, ns)| ns)
        .sum();
    let residual = (wall - covered) / wall;
    let top = layers
        .iter()
        .filter(|(name, _)| *name != "bench")
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(name, _)| name);
    let split: Vec<String> = layers
        .iter()
        .map(|(name, ns)| format!("{name}={:.1}%", 100.0 * ns / wall))
        .collect();
    println!(
        "host ledger: {} residual={:.2}% top_layer={top} clock_read={clock:.1}ns \
         program_vs_untraced={:+.1}%",
        split.join(" "),
        100.0 * residual,
        100.0 * ((wall - bench) / untraced.max(1.0) - 1.0)
    );
    gate.check(residual.abs() <= MAX_RESIDUAL, || {
        format!(
            "spans leave {:.1}% of traced host time unaccounted",
            100.0 * residual
        )
    });
    for (name, ns) in layers {
        gate.check(*ns >= -MAX_NEGATIVE * wall, || {
            format!(
                "layer {name} reads {:.1}% of traced host time: its timed children exceed it",
                100.0 * ns / wall
            )
        });
    }
}

/// Adds one repetition's layer split into the run's totals.
fn add_layers(total: &mut Vec<(&'static str, f64)>, rep: &[(&'static str, f64)]) {
    if total.is_empty() {
        total.extend(rep.iter().map(|&(name, _)| (name, 0.0)));
    }
    for (t, (_, ns)) in total.iter_mut().zip(rep) {
        t.1 += ns;
    }
}

fn layer(layers: &[(&str, f64)], name: &str) -> f64 {
    layers
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, ns)| *ns)
}

/// Host self time per layer of one traced SoC repetition, in ns. Each
/// timed interval holds about one clock read (`clock` ns), which moves
/// to `bench`; a wrapper's extent is its raw intervals plus one read.
/// `soc` is the `Soc::run` chunks minus the extents of the master and
/// arbiter wrappers inside them, `cpu` the ticks minus their port calls.
fn soc_split(
    h: &HostAcc,
    t: &socwork::Traced,
    control_ns: u64,
    clock: f64,
) -> [(&'static str, f64); 7] {
    let f = |ns: u64| ns as f64;
    let net = |ns: u64, calls: u64| f(ns) - clock * f(calls);
    let port_extents = f(h.issue_ns + h.poll_ns + h.port_wrap_ns) + clock * f(h.issues + h.polls);
    let child_extents =
        f(h.tick_ns + h.arbiter_ns + h.wrap_ns) + clock * f(h.ticks + h.arbiter_calls);
    let wrapped_calls = t.chunks + h.ticks + h.arbiter_calls + h.issues + h.polls;
    [
        ("soc", net(t.run_ns, t.chunks) - child_extents),
        ("cpu", net(h.tick_ns, h.ticks) - port_extents),
        ("port.issue", net(h.issue_ns, h.issues)),
        ("port.poll", net(h.poll_ns, h.polls)),
        ("bus.arbiter", net(h.arbiter_ns, h.arbiter_calls)),
        ("control", f(control_ns)),
        (
            "bench",
            f(t.chunk_wrap_ns + h.wrap_ns + h.port_wrap_ns) + 2.0 * clock * f(wrapped_calls),
        ),
    ]
}

/// One traced repetition: wrapped masters and chunked `Soc::run`. With
/// `timing` every seam is timed; with `spine` the program's own trace
/// ring is armed and feeds the simulated-latency ledger. The two are
/// kept apart so the ring's cost never lands in the host split.
fn soc_traced_rep(
    kind: Kind,
    seed: u64,
    timing: bool,
    spine: bool,
    reference: &str,
    gate: &mut Gate,
) -> (Built, probe::Shared, Traced, socwork::Control, u64) {
    let probe = Probe::shared(5, timing, spine, Instant::now());
    let mut built = socwork::build(kind, seed, Some(&probe), spine);
    let mut traced = Traced::new(probe.clone(), socwork::master_firewalls(&built.soc));
    traced
        .ledger
        .set_lcf(built.soc.lcf().map(|l| l.firewall().id().0));
    let start = Instant::now();
    let ctl = socwork::run(
        &mut built,
        kind,
        seed,
        kind.cycles(),
        Drive::Traced(&mut traced),
    );
    let wall = start.elapsed().as_nanos() as u64;
    gate.check(socwork::comparable_metrics(&built.soc) == reference, || {
        format!("a traced run (timing={timing}, spine={spine}) diverged from the untraced one")
    });
    for p in &traced.problems {
        gate.check(false, || p.clone());
    }
    (built, probe, traced, ctl, wall)
}

fn soc_per_layer(kind: Kind, args: &Args, gate: &mut Gate, spans_out: &mut Vec<Span>) -> RunResult {
    let (reference, _, cycles) = soc_reference(kind, args.seed, gate);
    let mut untraced = Vec::new();
    repeat(args.seconds / 2.0, || {
        let (_, laps, metrics) = soc_rep(kind, args.seed);
        gate.check(metrics == reference, || {
            "a plain repetition diverged from the instrumented one".into()
        });
        untraced.push(laps.iter().sum());
    });

    let mut host = HostAcc::default();
    let mut layers = Vec::new();
    let (mut clocks, mut walls, mut wall_ns) = (Vec::new(), Vec::new(), 0);
    let mut control = socwork::Control::default();
    let mut first: Option<(Built, probe::Shared)> = None;
    repeat(args.seconds / 2.0, || {
        // Calibrated per repetition: the host's slow phases move it too.
        let clock = probe::clock_read_ns();
        let (built, probe, traced, ctl, wall) =
            soc_traced_rep(kind, args.seed, true, false, &reference, gate);
        let rep_host = probe::with(&probe, |p| p.host);
        host.add(&rep_host);
        let control_ns = ctl.commit_ns + ctl.tamper_ns;
        add_layers(
            &mut layers,
            &soc_split(&rep_host, &traced, control_ns, clock),
        );
        clocks.push(clock);
        wall_ns += wall;
        walls.push(wall as f64 / 1e9);
        control.commits_ok += ctl.commits_ok;
        control.commits_refused += ctl.commits_refused;
        control.commit_ns += ctl.commit_ns;
        if first.is_none() {
            first = Some((built, probe));
        }
    });
    let (timed, probe) = first.expect("at least one timed repetition");
    let reps = walls.len() as u64;

    let (built, spine_probe, spine, spine_ctl, _) =
        soc_traced_rep(kind, args.seed, false, true, &reference, gate);
    let ops = soc_gate(kind, &built, &spine_probe, &spine_ctl, gate);
    let l = &spine.ledger;
    gate.check(l.violations == 0, || {
        format!(
            "{} transactions break the latency ledger; first: {}",
            l.violations,
            l.first_violation.clone().unwrap_or_default()
        )
    });

    let (event_s, stepped_s) = soc_prefix(kind, args.seed, gate);
    let (ctr, sha, merkle) = probes::crypto();
    let (sb_ns, lcf, captured_len) = probe::with(&probe, |p| {
        (
            probes::sb_check_ns(&p.captured, &timed.tables),
            probes::lcf_handle_ns(&p.captured),
            p.captured.len(),
        )
    });
    let seal = probes::seal_ns();
    probe::with(&probe, |p| spans_out.append(&mut p.spans.list));

    host_ledger(
        &layers,
        wall_ns as f64,
        stats::median(&untraced) * 1e9 * reps as f64,
        stats::median(&clocks),
        gate,
    );
    let h = host;
    let (fabric, cpu_self) = (layer(&layers, "soc"), layer(&layers, "cpu"));
    let (issue, poll) = (layer(&layers, "port.issue"), layer(&layers, "port.poll"));
    let arbiter = layer(&layers, "bus.arbiter");
    println!(
        "latency ledger: {} OK transactions decomposed, {} excluded (retried); mean cycles: \
         SB {:.2} + grant wait {:.2} + service {:.2} (CC+IC {:.2}, memory {:.2}) \
         + response wait {:.2}; probes replayed {captured_len} transactions",
        l.checked,
        l.excluded,
        stats::mean(l.sb, l.checked),
        stats::mean(l.grant_wait, l.checked),
        stats::mean(l.service, l.checked),
        stats::mean(l.service - l.mem, l.checked),
        stats::mean(l.mem, l.checked),
        stats::mean(l.response_wait, l.checked),
    );

    let snap = snapshot(&built);
    let count = |component: &str, key: &str| counter(&snap, component, key) as f64;
    let events = built.soc.ticks_executed();
    let untraced_s = stats::median(&untraced);
    let lcf_name = "LCF ddr";
    let attempts = control.commits_ok + control.commits_refused;
    RunResult {
        attempted: ops.ops,
        failed: ops.unexpected,
        metrics: per_layer(&[
            ("sim.events", events as f64),
            ("sim.skip_fraction", 1.0 - events as f64 / cycles as f64),
            ("sim.host_ns_per_event", untraced_s * 1e9 / events as f64),
            ("sim.event_vs_stepped", stepped_s / event_s),
            ("soc.fabric_ns_per_event", per(fabric, events * reps)),
            ("soc.port_issue_ns", per(issue, h.issues)),
            ("soc.port_poll_ns", per(poll, h.polls)),
            ("soc.shed", count("soc", "soc.shed")),
            ("soc.watchdog_cancels", count("soc", "soc.watchdog_cancels")),
            ("soc.retries", count("soc", "soc.retries")),
            ("cpu.tick_self_ns", per(cpu_self, h.ticks)),
            ("cpu.master_ticks", (h.ticks / reps) as f64),
            (
                "cpu.ipc",
                socwork::instructions(&built.soc) as f64 / cycles as f64,
            ),
            (
                "core.sb.checks",
                counter_sum(&snap, &["LF ", "LCF "], "fw.checked") as f64,
            ),
            (
                "core.sb.denied",
                counter_sum(&snap, &["LF ", "LCF "], "fw.discarded") as f64,
            ),
            ("core.sb.check_ns", sb_ns),
            (
                "core.sb.cycles_mean",
                hist_mean(&snap, "soc", "txn.issue_to_verdict"),
            ),
            ("bus.grants", count("bus", "bus.grants")),
            (
                "bus.utilisation",
                count("bus", "bus.busy_cycles") / cycles as f64,
            ),
            (
                "bus.grant_wait_cycles_mean",
                hist_mean(&snap, "bus", "bus.grant_wait"),
            ),
            ("bus.arbiter_ns", per(arbiter, h.arbiter_calls)),
            ("core.lcf.accesses.verify", l.lcf_access[0] as f64),
            ("core.lcf.accesses.cipher_only", l.lcf_access[1] as f64),
            ("core.lcf.accesses.bypass", l.lcf_access[2] as f64),
            (
                "core.lcf.cc_cycles_mean",
                stats::mean(l.cc_cycles, l.cc_passes),
            ),
            (
                "core.lcf.ic_cycles_mean",
                hist_mean(&snap, lcf_name, "lcf.ic_verify_cycles"),
            ),
            ("core.lcf.handle_ns.read_verify", lcf.read_verify),
            ("core.lcf.handle_ns.write_verify", lcf.write_verify),
            ("core.lcf.handle_ns.cipher_only", lcf.cipher_only),
            ("core.lcf.handle_ns.bypass", lcf.bypass),
            (
                "core.lcf.integrity_failures",
                count(lcf_name, "lcf.integrity_failures"),
            ),
            ("core.lcf.recoveries", count("soc", "soc.recoveries")),
            ("core.lcf.seal_ns", seal),
            ("crypto.ctr_gbps", ctr),
            ("crypto.sha_gbps", sha),
            ("crypto.merkle_build_ns", merkle),
            ("mem.service_cycles_mean", stats::mean(l.mem, l.checked)),
            ("core.monitor.alerts", count("monitor", "monitor.alerts")),
            ("core.monitor.reactions", count("monitor", "monitor.blocks")),
            (
                "core.reconfig.epochs",
                count("reconfig", "reconfig.epochs_committed"),
            ),
            (
                "core.reconfig.refusals",
                count("soc", "reconfig.verifier_refusals"),
            ),
            (
                "core.reconfig.commit_ns",
                stats::mean(control.commit_ns, attempts),
            ),
            (
                "fault.fired",
                prefixed_sum(&snap, "soc", "soc.fault.") as f64,
            ),
            (
                "bench.trace_overhead",
                stats::median(&walls) / untraced_s - 1.0,
            ),
        ]),
    }
}

// ---------------------------------------------------------------- NoC

/// The protected-mesh promises: books balance, nothing lost silently or
/// left behind, and at this load nothing refused.
fn noc_gate(r: &secbus_noc::OverloadReport, gate: &mut Gate) {
    gate.check(r.conservation_ok, || format!("conservation broken: {r:?}"));
    gate.check(r.silent_drops == 0, || {
        format!("{} silent drops", r.silent_drops)
    });
    gate.check(r.residue == 0, || {
        format!("{} packets left after the drain", r.residue)
    });
    gate.check(r.delivered == r.offered, || {
        format!("{} of {} packets delivered", r.delivered, r.offered)
    });
    println!(
        "ops: ops={} ok={} ops_failed={} shed={} alerts={} residue={}",
        r.offered,
        r.delivered,
        r.offered - r.delivered,
        r.shed_at_ingress,
        r.alerts,
        r.residue
    );
}

/// The program's two run-loop cores must end `run_overload` on a prefix
/// with identical reports. Returns host seconds (event, stepped).
fn noc_oracles(seed: u64, gate: &mut Gate) -> (f64, f64) {
    let cfg = nocwork::prefix_config(seed);
    let mut out = Vec::new();
    for core in [SimCore::Event, SimCore::Stepped] {
        let start = Instant::now();
        let report = secbus_noc::run_overload_with_core(&cfg, core);
        out.push((secs(start), report));
    }
    gate.check(out[0].1 == out[1].1, || {
        "event and stepped cores diverged on the prefix".into()
    });
    (out[0].0, out[1].0)
}

/// One plain repetition: a timed build of the mesh and schedule, then
/// `run_overload`, which builds its own. Returns (build s, run s, report).
fn noc_rep(cfg: &secbus_noc::OverloadConfig) -> (f64, f64, secbus_noc::OverloadReport) {
    let start = Instant::now();
    std::hint::black_box(nocwork::setup(cfg));
    let setup = secs(start);
    let start = Instant::now();
    let report = secbus_noc::run_overload(cfg);
    (setup, secs(start), report)
}

fn noc_end_to_end(args: &Args, gate: &mut Gate) -> RunResult {
    let cfg = nocwork::config(args.seed);
    let cycles = nocwork::total_cycles(&cfg);
    // Plain repetitions first, so the peak resident set is read before
    // the replica's latency records exist.
    let (mut setups, mut rates, mut first) = (Vec::new(), Vec::new(), None);
    let mut peak_rss = 0.0;
    let placed = repeat(args.seconds, || {
        let (setup, run, report) = noc_rep(&cfg);
        if first.is_none() {
            peak_rss = peak_rss_mib();
        }
        same_as_first(&mut first, report, "a run_overload repetition", gate);
        setups.push(setup);
        rates.push(cycles as f64 / run);
    });
    let reference = first.expect("at least one repetition");
    noc_gate(&reference, gate);
    let recorded = nocwork::replica(&cfg, None);
    gate.check(recorded.report == reference, || {
        "replica diverged from run_overload".into()
    });
    noc_oracles(args.seed, gate);
    print_reps(&rates, &setups, &placed, cycles);
    let (mean, p99) = latency_metrics(recorded.latencies, gate);
    RunResult {
        attempted: reference.offered,
        failed: reference.offered - reference.delivered,
        metrics: vec![
            m("sim_cycles_per_s", fastest(&rates), "cycles/s"),
            m("setup_s", setup_time(&setups), "s"),
            m("peak_rss_mib", peak_rss, "MiB"),
            m("txn_latency_mean_cycles", mean, "cycles"),
            m("txn_latency_p99_cycles", p99, "cycles"),
            m(
                "txn_ok_per_kcycle",
                reference.delivered as f64 * 1000.0 / cycles as f64,
                "1/kcycle",
            ),
        ],
    }
}

/// Host self time per layer of one traced replica run, in ns. Each timed
/// call holds about one clock read (`clock` ns), which moves to `bench`
/// with the span records; the loop's own glue is left to the residual.
fn noc_split(h: &nocwork::NocHost, clock: f64) -> [(&'static str, f64); 7] {
    let net = |ns: u64, calls: u64| ns as f64 - clock * calls as f64;
    [
        ("noc.tick", net(h.tick_ns, h.ticks)),
        ("noc.inject", net(h.inject_ns, h.injects)),
        ("noc.deliver", net(h.deliver_ns, h.ticks)),
        ("noc.quiet", net(h.quiet_ns, h.ticks)),
        ("noc.build", net(h.build_ns, 1)),
        ("workload.schedule", net(h.schedule_ns, 1)),
        ("bench", h.wrap_ns as f64 + 2.0 * clock * h.calls as f64),
    ]
}

fn noc_per_layer(args: &Args, gate: &mut Gate, spans_out: &mut Vec<Span>) -> RunResult {
    let cfg = nocwork::config(args.seed);
    let cycles = nocwork::total_cycles(&cfg);
    let reference = secbus_noc::run_overload(&cfg);
    noc_gate(&reference, gate);
    let mut untraced = Vec::new();
    repeat(args.seconds / 2.0, || {
        let (_, run, report) = noc_rep(&cfg);
        gate.check(report == reference, || {
            "run_overload is not deterministic per seed".into()
        });
        untraced.push(run);
    });

    let mut host = nocwork::NocHost::default();
    let mut layers = Vec::new();
    let (mut clocks, mut walls, mut wall_ns) = (Vec::new(), Vec::new(), 0u64);
    let mut first = None;
    repeat(args.seconds / 2.0, || {
        let clock = probe::clock_read_ns();
        let mut spans = probe::Spans::new(Instant::now());
        let start = Instant::now();
        let r = nocwork::replica(&cfg, Some(&mut spans));
        let wall = start.elapsed().as_nanos() as u64;
        walls.push(wall as f64 / 1e9);
        wall_ns += wall;
        clocks.push(clock);
        gate.check(r.report == reference, || {
            "traced replica diverged from run_overload".into()
        });
        host.add(&r.host);
        add_layers(&mut layers, &noc_split(&r.host, clock));
        if first.is_none() {
            spans_out.append(&mut spans.list);
            first = Some(r);
        }
    });
    let r = first.expect("at least one traced repetition");
    let reps = walls.len() as u64;
    let (event_s, stepped_s) = noc_oracles(args.seed, gate);
    host_ledger(
        &layers,
        wall_ns as f64,
        stats::median(&untraced) * 1e9 * reps as f64,
        stats::median(&clocks),
        gate,
    );
    let h = host;
    let (tick, inject) = (layer(&layers, "noc.tick"), layer(&layers, "noc.inject"));
    let deliver = layer(&layers, "noc.deliver");
    let schedule = layer(&layers, "workload.schedule");
    let untraced_s = stats::median(&untraced);
    let rep = &r.report;
    let ticks = r.ticks as f64;
    RunResult {
        attempted: rep.offered,
        failed: rep.offered - rep.delivered,
        metrics: per_layer(&[
            ("sim.events", ticks),
            ("sim.skip_fraction", 1.0 - ticks / cycles as f64),
            ("sim.host_ns_per_event", untraced_s * 1e9 / ticks),
            ("sim.event_vs_stepped", stepped_s / event_s),
            ("noc.hops", nocwork::counter(rep, "noc.hops") as f64),
            (
                "noc.link_wait_cycles",
                nocwork::counter(rep, "noc.link_wait_cycles") as f64,
            ),
            ("noc.credit_wait_cycles", rep.credit_wait_cycles as f64),
            ("noc.max_in_flight", rep.max_in_flight as f64),
            ("noc.alerts", rep.alerts as f64),
            ("noc.tick_ns_per_cycle", per(tick, h.ticks)),
            ("noc.inject_ns", per(inject, h.injects)),
            ("noc.deliver_ns", per(deliver, rep.delivered * reps)),
            ("workload.arrivals", rep.offered as f64),
            ("workload.schedule_ns", per(schedule, reps)),
            (
                "bench.trace_overhead",
                stats::median(&walls) / untraced_s - 1.0,
            ),
        ]),
    }
}

// ---------------------------------------------------------------- output

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|mt| {
                (
                    mt.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(mt.value)),
                        ("unit".into(), Json::str(mt.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Chrome `trace_event` rendering of the host spans (times in µs).
fn chrome(spans: &[Span], conditions: &Json) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::str(s.name)),
                ("ph".into(), Json::str("X")),
                ("ts".into(), Json::Num(s.start as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::Num(s.end.saturating_sub(s.start) as f64 / 1e3),
                ),
                ("pid".into(), Json::uint(0)),
                ("tid".into(), Json::uint(0)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::uint(u64::from(p))),
                        ),
                        ("id".into(), Json::uint(s.id)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("otherData".into(), conditions.clone()),
    ])
}

fn write_out(name: &str, doc: &Json) {
    let path = Path::new(OUT_DIR).join(name);
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, doc.render()));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Compare two saved results; refuses when they ran under different
/// conditions.
fn compare(a: &str, b: &str) -> std::result::Result<(), String> {
    let load = |p: &str| -> std::result::Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e:?}"))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    for key in ["workload", "trace", "nproc", "crypto_backend", "sim_core"] {
        let get = |r: &Json| r.get("conditions").and_then(|c| c.get(key)).cloned();
        if get(&ra) != get(&rb) {
            return Err(format!(
                "refusing to compare: {key} differs ({:?} vs {:?})",
                get(&ra),
                get(&rb)
            ));
        }
    }
    let metrics = |r: &Json| r.get("result").and_then(|res| res.get("metrics")).cloned();
    let (Some(Json::Obj(ma)), Some(mb)) = (metrics(&ra), metrics(&rb)) else {
        return Err("a result file holds no metrics".into());
    };
    for (name, va) in &ma {
        let value = |v: Option<&Json>| v.and_then(|v| v.get("value")?.as_f64());
        let (x, y) = (value(Some(va)), value(mb.get(name)));
        match (x, y) {
            (Some(x), Some(y)) if x != 0.0 && y != 0.0 => {
                println!("{name}: {x} -> {y} (ratio {:.4}, base {x})", y / x)
            }
            _ => println!("{name}: {x:?} -> {y:?} (unmeasured)"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        return match argv.get(1..3) {
            Some([a, b]) => match compare(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(3)
                }
            },
            _ => {
                eprintln!("usage: --compare <result.json> <result.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload <soc_saturated|soc_idle|noc_mesh> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // run_overload picks its core from the environment: pin the event
    // core by clearing the override before anything runs.
    std::env::remove_var("SECBUS_SIM_CORE");

    let cond = conditions(&args);
    println!("conditions: {}", cond.render());
    let mut gate = Gate::default();
    let mut spans = Vec::new();
    let result = match (args.workload.as_str(), args.trace) {
        ("soc_saturated", false) => soc_end_to_end(Kind::Saturated, &args, &mut gate),
        ("soc_idle", false) => soc_end_to_end(Kind::Idle, &args, &mut gate),
        ("noc_mesh", false) => noc_end_to_end(&args, &mut gate),
        ("soc_saturated", true) => soc_per_layer(Kind::Saturated, &args, &mut gate, &mut spans),
        ("soc_idle", true) => soc_per_layer(Kind::Idle, &args, &mut gate, &mut spans),
        ("noc_mesh", true) => noc_per_layer(&args, &mut gate, &mut spans),
        (other, _) => {
            eprintln!("error: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let correct = gate.failures.is_empty();
    for f in &gate.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let failed = if correct {
        result.failed
    } else {
        result.attempted
    };
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::uint(result.attempted)),
        ("failed".into(), Json::uint(failed)),
        ("metrics".into(), metrics_json(&result.metrics)),
    ]);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write_out(
        &format!("{stem}.json"),
        &Json::Obj(vec![
            ("conditions".into(), cond.clone()),
            ("result".into(), line.clone()),
        ]),
    );
    if args.trace {
        write_out(&format!("{stem}.spans.json"), &chrome(&spans, &cond));
    }
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
