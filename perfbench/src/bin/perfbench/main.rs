//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, every metric and how to read them.
//!
//! ```text
//! perfbench --workload crowd|fleet|survey --seed N --seconds S --trace 0|1 [--out DIR] [--once]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, repeating
//! rounds for `S` seconds; with `--once` it builds and runs the workload
//! a single time, so that the process's peak resident memory is that of
//! one world. `--trace 1` runs the workload untraced, then
//! once more with every device and app in a timing shim, and reports the
//! per-layer ledger. Either way the last line of standard output is one
//! JSON object; the exit code is nonzero when a determinism check fails.

mod alloc;
mod sharded;
mod shim;
mod survey;
mod trace;

use punch_lab::{par, ShardConfig, ShardedWorld};
use punch_net::seed::{derive_seed, hash_str};
use punch_net::{Duration, MetricsSnapshot, QueueStats, SimStats};
use punch_rendezvous::ServerStats;
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::{Layer, LayerTotals, LAYERS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `crowd`: one world of this many Figure-5 sessions.
const CROWD_SESSIONS: usize = 20_000;
/// `fleet`: sessions in the four-server fleet world.
const FLEET_SESSIONS: usize = 2_500;
/// Shard sims per world (5k sessions, so 10k host routes, per shard on
/// `crowd`).
const SHARDS: usize = 4;
/// `survey`: Table-1 surveys (380 checks each) per round.
const SURVEY_SEEDS: u64 = 40;
/// World builds timed before the measured rounds start: at least this
/// many, and for at least `SETUP_SECONDS` of building.
const SETUP_REPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
/// Fewest measured rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Alternating untraced/traced runs behind `trace.overhead`.
const TRACE_PAIRS: usize = 3;
/// Most workers: the benchmark's load comes from one process.
const MAX_WORKERS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Crowd,
    Fleet,
    Survey,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Crowd => "crowd",
            Workload::Fleet => "fleet",
            Workload::Survey => "survey",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    once: bool,
}

impl Args {
    /// Whether another set-up sample is due after `done` samples taking
    /// `spent` seconds of building.
    fn more_setup(&self, done: usize, spent: f64) -> bool {
        !self.once && (done < SETUP_REPS || spent < SETUP_SECONDS)
    }

    /// Whether another measured round is due after `done` rounds.
    fn more_rounds(&self, done: usize, started: std::time::Instant) -> bool {
        if self.once {
            done == 0
        } else {
            done < MIN_ROUNDS || secs(started) < self.seconds
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut once = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--once" {
            once = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "crowd" => Workload::Crowd,
                    "fleet" => Workload::Fleet,
                    "survey" => Workload::Survey,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out,
        once,
    })
}

/// The result line and everything printed above it.
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: u64,
    workers: usize,
    /// Metrics for the result line: (name, value, unit).
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    fn new(workers: usize) -> Self {
        Output {
            correct: true,
            attempted: 0,
            failed: 0,
            digest: 0,
            workers,
            metrics: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:016x}\", \"workers\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed, self.digest, self.workers
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = par::detected_cores().clamp(1, MAX_WORKERS);
    let result = match (args.workload, args.trace) {
        (Workload::Survey, false) => measure_survey(&args, workers),
        (Workload::Survey, true) => trace_survey(&args, workers),
        (_, false) => measure_sharded(&args, workers),
        (_, true) => trace_sharded(&args, workers),
    };
    match result {
        Ok(out) => {
            println!("{}", out.json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------

/// The world of `crowd` or `fleet`; its master seed derives from the
/// workload seed and the workload's name.
fn shard_config(workload: Workload, seed: u64, workers: usize) -> ShardConfig {
    let world_seed = derive_seed(seed, workload.name(), 0);
    let sessions = if workload == Workload::Fleet {
        FLEET_SESSIONS
    } else {
        CROWD_SESSIONS
    };
    let mut cfg = ShardConfig::new(world_seed, sessions);
    cfg.shards = SHARDS;
    cfg.workers = Some(workers);
    if workload == Workload::Fleet {
        cfg.servers = 4;
        cfg.replication = 2;
        cfg.resilient_clients = true;
        cfg.deadline = Duration::from_secs(120);
        cfg.server_restart = Some((1, Duration::from_millis(2_500)));
    }
    cfg
}

/// The survey seeds of one round: consecutive indices under the
/// workload seed.
fn survey_seeds(seed: u64) -> Vec<u64> {
    (0..SURVEY_SEEDS)
        .map(|k| derive_seed(seed, "survey", k))
        .collect()
}

// ---------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted latencies, in milliseconds.
fn percentile_ms(sorted: &[Duration], q: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (sorted.len() * q).div_ceil(100).max(1) - 1;
    sorted[idx.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn secs(since: std::time::Instant) -> f64 {
    trace::now().duration_since(since).as_secs_f64()
}

// ---------------------------------------------------------------------
// crowd / fleet
// ---------------------------------------------------------------------

/// What one run of a sharded world produced.
struct WorldRun {
    report: String,
    sessions: usize,
    direct: usize,
    relay: usize,
    failed: usize,
    pending: usize,
    latencies: Vec<Duration>,
    stats: SimStats,
    queue: QueueStats,
    servers: ServerStats,
    epochs: u64,
    build_s: f64,
    run_s: f64,
}

fn run_world(cfg: &ShardConfig) -> WorldRun {
    let t = trace::now();
    let mut world = ShardedWorld::build(cfg);
    let build_s = secs(t);
    let t = trace::now();
    world.run();
    let run_s = secs(t);
    let counts = world.outcome_counts();
    let mut latencies = world.latencies();
    latencies.sort_unstable();
    WorldRun {
        report: world.report(),
        sessions: cfg.sessions,
        direct: counts.direct,
        relay: counts.relay,
        failed: counts.failed,
        pending: counts.pending,
        latencies,
        stats: world.merged_stats(),
        queue: world.merged_queue_stats(),
        servers: world.fleet_stats(),
        epochs: world.epochs(),
        build_s,
        run_s,
    }
}

fn measure_sharded(args: &Args, workers: usize) -> Result<Output, String> {
    let cfg = shard_config(args.workload, args.seed, workers);
    let mut setup: Vec<f64> = Vec::new();
    while args.more_setup(setup.len(), setup.iter().sum()) {
        let t = trace::now();
        let world = ShardedWorld::build(&cfg);
        setup.push(secs(t));
        drop(world);
    }
    let started = trace::now();
    let mut runs: Vec<WorldRun> = Vec::new();
    while args.more_rounds(runs.len(), started) {
        let run = run_world(&cfg);
        setup.push(run.build_s);
        runs.push(run);
    }

    let first = &runs[0];
    let digest = hash_str(&first.report);
    let deterministic = runs.iter().all(|r| r.report == first.report);
    let rates: Vec<f64> = runs.iter().map(|r| r.sessions as f64 / r.run_s).collect();
    let events_rates: Vec<f64> = runs
        .iter()
        .map(|r| r.stats.events as f64 / r.run_s)
        .collect();
    let run_times: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    let sessions = first.sessions as f64;
    let unresolved = (first.failed + first.pending) as u64;

    println!(
        "workload {} seed {}: {} sessions, {} shards, {} workers, {} rounds in {:.1} s",
        args.workload.name(),
        args.seed,
        first.sessions,
        SHARDS,
        workers,
        runs.len(),
        secs(started)
    );
    println!(
        "  sessions_per_s   {:>12.1} 1/s  (median over rounds)",
        median(&rates)
    );
    println!(
        "  setup_s          {:>12.4} s    (median of {} builds)",
        median(&setup),
        setup.len()
    );
    println!("  run_s            {:>12.4} s", median(&run_times));
    println!("  events_per_s     {:>12.0} 1/s", median(&events_rates));
    println!(
        "  failed_share     {:>12.4}      ({} failed + {} pending of {})",
        unresolved as f64 / sessions,
        first.failed,
        first.pending,
        first.sessions
    );
    println!(
        "  direct_share     {:>12.4}      ({} direct, {} relay)",
        first.direct as f64 / sessions,
        first.direct,
        first.relay
    );
    println!(
        "  punch_p50_ms     {:>12.3} ms   (sim time, n={})",
        percentile_ms(&first.latencies, 50),
        first.latencies.len()
    );
    println!(
        "  punch_p99_ms     {:>12.3} ms   (sim time, n={})",
        percentile_ms(&first.latencies, 99),
        first.latencies.len()
    );
    println!(
        "  digest           {digest:016x} (identical in all {} rounds: {deterministic})",
        runs.len()
    );
    if !deterministic {
        eprintln!("perfbench: ShardedWorld::report differs between rounds of the same seed");
    }

    let mut out = Output::new(workers);
    out.correct = deterministic;
    out.digest = digest;
    out.attempted = (first.sessions * runs.len()) as u64;
    out.failed = runs.iter().map(|r| (r.failed + r.pending) as u64).sum();
    out.metric("throughput_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("punch_share", first.direct as f64 / sessions, "share");
    Ok(out)
}

// ---------------------------------------------------------------------
// survey
// ---------------------------------------------------------------------

fn measure_survey(args: &Args, workers: usize) -> Result<Output, String> {
    let seeds = survey_seeds(args.seed);
    let mut setup: Vec<f64> = Vec::new();
    while args.more_setup(setup.len(), setup.iter().sum()) {
        let t = trace::now();
        std::hint::black_box(survey::build_round_worlds(&seeds));
        setup.push(secs(t));
    }
    let started = trace::now();
    let mut rounds = Vec::new();
    let mut rates = Vec::new();
    while args.more_rounds(rounds.len(), started) {
        let t = trace::now();
        let round = survey::run_round(&seeds, workers);
        let wall = secs(t);
        rates.push(round.checks as f64 / wall);
        rounds.push(round);
        // Interleave set-up samples with the rounds so both see the
        // same host conditions.
        let t = trace::now();
        std::hint::black_box(survey::build_round_worlds(&seeds));
        setup.push(secs(t));
    }
    let first = &rounds[0];
    let digest = hash_str(&first.tables);
    let deterministic = rounds.iter().all(|r| r.tables == first.tables);
    let udp_share = ratio(first.udp.0 as f64, first.udp.1 as f64);
    let tcp_share = ratio(first.tcp.0 as f64, first.tcp.1 as f64);

    println!(
        "workload survey seed {}: {} checks per round ({} Table-1 surveys), {} workers, {} rounds in {:.1} s",
        args.seed,
        first.checks,
        SURVEY_SEEDS,
        workers,
        rounds.len(),
        secs(started)
    );
    println!(
        "  checks_per_s     {:>12.1} 1/s  (median over rounds)",
        median(&rates)
    );
    println!(
        "  setup_s          {:>12.4} s    (median of {} round world builds)",
        median(&setup),
        setup.len()
    );
    println!(
        "  failed_share     {:>12.4}      ({} inconclusive verdicts over {} checks)",
        ratio(first.inconclusive as f64, first.checks as f64),
        first.inconclusive,
        first.checks
    );
    println!(
        "  udp_punch_share  {:>12.4}      ({}/{}; paper: 82%)",
        udp_share, first.udp.0, first.udp.1
    );
    println!(
        "  tcp_punch_share  {:>12.4}      ({}/{}; paper: 64%)",
        tcp_share, first.tcp.0, first.tcp.1
    );
    println!(
        "  digest           {digest:016x} (identical in all {} rounds: {deterministic})",
        rounds.len()
    );
    if !deterministic {
        eprintln!("perfbench: the Table-1 text differs between rounds of the same seed");
    }

    let mut out = Output::new(workers);
    out.correct = deterministic;
    out.digest = digest;
    out.attempted = rounds.iter().map(|r| r.checks).sum();
    out.failed = rounds.iter().map(|r| r.inconclusive).sum();
    out.metric("throughput_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("punch_share", udp_share, "share");
    Ok(out)
}

// ---------------------------------------------------------------------
// The traced ledger
// ---------------------------------------------------------------------

/// Everything the per-layer metrics are computed from.
struct Ledger {
    /// Sessions (crowd, fleet) or checks (survey) in the traced run.
    units: f64,
    survey: bool,
    workers: usize,
    /// Untraced reference run at the benchmark's worker count.
    stats: SimStats,
    queue: QueueStats,
    /// Packets lost, device-dropped or dropped on a downed link.
    drops: u64,
    servers: ServerStats,
    epochs: u64,
    run_s: f64,
    /// Host microseconds to construct one world (one check world on
    /// `survey`), untraced.
    world_build_us: f64,
    /// Median untraced and traced wall time of the same run on one
    /// worker, over the alternating pairs.
    untraced_1w_s: f64,
    traced_1w_s: f64,
    /// Wall time of the traced run the ledger comes from.
    traced_s: f64,
    layers: [LayerTotals; LAYERS],
    /// Allocations while constructing the world(s), and while running.
    build_allocs: alloc::Ledger,
    run_allocs: alloc::Ledger,
    registry: MetricsSnapshot,
    latencies: Vec<Duration>,
    udp: (u64, u64),
    tcp: (u64, u64),
}

impl Ledger {
    fn per_layer_metrics(&self, out: &mut Output) {
        let events = self.stats.events as f64;
        let self_ns = |l: Layer| self.layers[l.index()].self_ns as f64;
        let calls = |l: Layer| self.layers[l.index()].calls as f64;
        let run_allocs = |l: Layer| self.run_allocs[l.index()].allocs as f64;
        let build_bytes = |l: Layer| self.build_allocs[l.index()].net_bytes() as f64 / self.units;
        let counter = |name: &str| self.registry.counter_family(name) as f64;

        let (per_session, per_check) = if self.survey {
            (0.0, events / self.units)
        } else {
            (events / self.units, 0.0)
        };
        out.metric("net.events_per_session", per_session, "count");
        out.metric("net.events_per_check", per_check, "count");
        out.metric(
            "net.ns_per_event",
            ratio(self.stats.busy_nanos as f64, events),
            "ns",
        );
        out.metric(
            "net.self_ns_per_event",
            ratio(self_ns(Layer::Net), events),
            "ns",
        );
        out.metric(
            "net.allocs_per_event",
            ratio(run_allocs(Layer::Net), events),
            "count",
        );
        out.metric(
            "net.queue_depth_hw",
            self.queue.depth_high_water as f64,
            "count",
        );
        out.metric("net.pool_slots", self.queue.pool_slots as f64, "count");
        out.metric(
            "net.pool_recycle_ratio",
            ratio(
                self.queue.pool_recycled as f64,
                (self.queue.pool_recycled + self.queue.pool_slots) as f64,
            ),
            "share",
        );
        out.metric(
            "net.batches_coalesced",
            self.queue.batches_coalesced as f64,
            "count",
        );
        out.metric("net.drops", self.drops as f64, "count");

        for layer in Layer::ALL {
            let n = layer.name();
            out.metric(format!("{n}.calls"), calls(layer), "count");
            out.metric(
                format!("{n}.self_ns_per_call"),
                ratio(self_ns(layer), calls(layer)),
                "ns",
            );
            out.metric(
                format!("{n}.allocs_per_call"),
                ratio(run_allocs(layer), calls(layer)),
                "count",
            );
            out.metric(format!("{n}.build_bytes"), build_bytes(layer), "B");
            out.metric(
                format!("{n}.run_bytes"),
                self.run_allocs[layer.index()].net_bytes() as f64 / self.units,
                "B",
            );
            out.metric(
                format!("{n}.self_share"),
                ratio(self_ns(layer) / 1e9, self.traced_s),
                "share",
            );
        }

        out.metric(
            "nat.mapping.created",
            counter("nat.mapping.created"),
            "count",
        );
        out.metric(
            "nat.inbound.blocked",
            counter("nat.inbound.blocked"),
            "count",
        );
        out.metric(
            "nat.mapping.live.max",
            self.registry.gauge("nat.mapping.live.max").unwrap_or(0) as f64,
            "count",
        );
        out.metric(
            "transport.retransmit",
            counter("transport.retransmit"),
            "count",
        );
        out.metric("transport.rto", counter("transport.rto"), "count");
        out.metric("core.probes", counter("punch.probes"), "count");
        out.metric(
            "core.probe_yield",
            ratio(counter("punch.established"), counter("punch.probes")),
            "share",
        );
        out.metric("core.repunch", counter("punch.repunch"), "count");
        out.metric("core.session_died", counter("punch.session_died"), "count");
        out.metric(
            "core.punch_p50_ms",
            percentile_ms(&self.latencies, 50),
            "ms",
        );
        out.metric(
            "core.punch_p99_ms",
            percentile_ms(&self.latencies, 99),
            "ms",
        );
        out.metric("core.punch_samples", self.latencies.len() as f64, "count");
        out.metric(
            "rendezvous.register",
            self.servers.registrations as f64,
            "count",
        );
        out.metric(
            "rendezvous.introduce",
            self.servers.introductions as f64,
            "count",
        );
        out.metric("rendezvous.forward", self.servers.forwards as f64, "count");
        out.metric(
            "rendezvous.forward_errors",
            self.servers.forward_errors as f64,
            "count",
        );
        out.metric(
            "rendezvous.evictions",
            self.servers.evictions as f64,
            "count",
        );
        out.metric(
            "natcheck.udp_punch_share",
            ratio(self.udp.0 as f64, self.udp.1 as f64),
            "share",
        );
        out.metric(
            "natcheck.tcp_punch_share",
            ratio(self.tcp.0 as f64, self.tcp.1 as f64),
            "share",
        );
        out.metric(
            "lab.busy_share",
            ratio(
                self.stats.busy_nanos as f64 / 1e9,
                self.run_s * self.workers as f64,
            ),
            "share",
        );
        out.metric("lab.epochs", self.epochs as f64, "count");
        out.metric("lab.world_build_us", self.world_build_us, "us");
        out.metric(
            "trace.overhead",
            ratio(self.traced_1w_s, self.untraced_1w_s),
            "ratio",
        );
        let covered: f64 = Layer::ALL.iter().map(|&l| self_ns(l)).sum::<f64>() / 1e9;
        out.metric("trace.coverage", ratio(covered, self.traced_s), "share");
    }

    fn print_table(&self) {
        let covered: u64 = self.layers.iter().map(|t| t.self_ns).sum();
        println!("  layer        calls      self_ms  self_share  ns/call  allocs/call  build_B/unit  run_B/unit");
        for layer in Layer::ALL {
            let t = self.layers[layer.index()];
            let b = self.build_allocs[layer.index()];
            let r = self.run_allocs[layer.index()];
            println!(
                "  {:<10} {:>9} {:>12.1} {:>11.4} {:>8.0} {:>12.2} {:>13.0} {:>11.0}",
                layer.name(),
                t.calls,
                t.self_ns as f64 / 1e6,
                ratio(t.self_ns as f64 / 1e9, self.traced_s),
                ratio(t.self_ns as f64, t.calls as f64),
                ratio(r.allocs as f64, t.calls as f64),
                b.net_bytes() as f64 / self.units,
                r.net_bytes() as f64 / self.units,
            );
        }
        let b = self.build_allocs[alloc::UNATTRIBUTED];
        let r = self.run_allocs[alloc::UNATTRIBUTED];
        println!(
            "  {:<10} {:>9} {:>12} {:>11} {:>8} {:>12} {:>13.0} {:>11.0}",
            "(none)",
            "-",
            "-",
            "-",
            "-",
            "-",
            b.net_bytes() as f64 / self.units,
            r.net_bytes() as f64 / self.units
        );
        println!(
            "  self time covers {:.4} of the traced wall; trace.overhead {:.3} (traced {:.3} s / untraced {:.3} s, one worker, medians of {TRACE_PAIRS})",
            covered as f64 / 1e9 / self.traced_s,
            self.traced_1w_s / self.untraced_1w_s,
            self.traced_1w_s,
            self.untraced_1w_s
        );
    }

    fn write_trace_file(&self, path: &str, workload: Workload, seed: u64) -> std::io::Result<()> {
        let mut s = String::new();
        let _ = write!(s, "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"traced_s\": {},\n  \"layers\": {{", workload.name(), self.traced_s);
        for (i, layer) in Layer::ALL.iter().enumerate() {
            let t = self.layers[layer.index()];
            let b = self.build_allocs[layer.index()];
            let r = self.run_allocs[layer.index()];
            let _ = write!(
                s,
                "{}\n    \"{}\": {{\"calls\": {}, \"inclusive_ns\": {}, \"self_ns\": {}, \"build_allocs\": {}, \"build_bytes\": {}, \"build_freed\": {}, \"run_allocs\": {}, \"run_bytes\": {}, \"run_freed\": {}}}",
                if i == 0 { "" } else { "," },
                layer.name(),
                t.calls,
                t.inclusive_ns,
                t.self_ns,
                b.allocs,
                b.bytes,
                b.freed,
                r.allocs,
                r.bytes,
                r.freed
            );
        }
        s.push_str("\n  },\n  \"span_sample\": [");
        for (i, sp) in trace::sample().iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"layer\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                sp.layer.name(),
                sp.id,
                sp.parent,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n  ]\n}\n");
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

fn mismatch(what: &str) -> String {
    format!("determinism gate: {what}; the traced run would measure a different program")
}

fn trace_sharded(args: &Args, workers: usize) -> Result<Output, String> {
    let cfg = shard_config(args.workload, args.seed, workers);
    // Untraced reference at the benchmark's worker count.
    let reference = run_world(&cfg);
    // The same run on one worker is the base of `trace.overhead`; it
    // alternates with the traced run so both see the same host.
    let mut one = cfg.clone();
    one.workers = Some(1);
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced = None;
    for _ in 0..TRACE_PAIRS {
        let single = run_world(&one);
        if single.report != reference.report {
            return Err(mismatch(
                "one-worker report differs from the two-worker report",
            ));
        }
        untraced_walls.push(single.run_s);
        drop(traced.take());

        alloc::set_enabled(true);
        let a0 = alloc::snapshot();
        let mut world = sharded::TracedWorld::build(&cfg);
        let a1 = alloc::snapshot();
        trace::start();
        let t = trace::now();
        world.run(1);
        traced_walls.push(secs(t));
        let layers = trace::stop();
        let a2 = alloc::snapshot();
        alloc::set_enabled(false);
        if world.report() != reference.report {
            return Err(mismatch("traced report differs from ShardedWorld::report"));
        }
        if world.events() != reference.stats.events || world.epochs() != reference.epochs {
            return Err(mismatch("traced event or epoch count differs"));
        }
        traced = Some((
            world,
            layers,
            alloc::delta(&a0, &a1),
            alloc::delta(&a1, &a2),
        ));
    }
    let (world, layers, build_allocs, run_allocs) = traced.expect("TRACE_PAIRS is at least one");

    let ledger = Ledger {
        units: reference.sessions as f64,
        survey: false,
        workers,
        stats: reference.stats,
        queue: reference.queue,
        drops: reference.stats.packets_lost
            + reference.stats.device_drops
            + reference.stats.link_down_drops,
        servers: world.fleet_stats(),
        epochs: reference.epochs,
        run_s: reference.run_s,
        world_build_us: reference.build_s * 1e6,
        untraced_1w_s: median(&untraced_walls),
        traced_1w_s: median(&traced_walls),
        traced_s: traced_walls[traced_walls.len() - 1],
        layers,
        build_allocs,
        run_allocs,
        registry: world.merged_metrics(),
        latencies: reference.latencies.clone(),
        udp: (0, 0),
        tcp: (0, 0),
    };
    if ledger.servers.registrations != reference.servers.registrations {
        return Err(mismatch("traced rendezvous counters differ"));
    }
    drop(world);
    println!(
        "workload {} seed {} traced: {} sessions, {} shards; untraced {:.3} s on {} workers, {:.3} s on one; outcomes match",
        args.workload.name(),
        args.seed,
        reference.sessions,
        SHARDS,
        reference.run_s,
        workers,
        ledger.untraced_1w_s
    );
    ledger.print_table();
    finish_trace(
        args,
        workers,
        &ledger,
        hash_str(&reference.report),
        reference.sessions as u64,
        (reference.failed + reference.pending) as u64,
    )
}

fn trace_survey(args: &Args, workers: usize) -> Result<Output, String> {
    let seeds = survey_seeds(args.seed);
    let t = trace::now();
    let nodes = survey::build_round_worlds(&seeds);
    let build_s = secs(t);
    let t = trace::now();
    let reference = survey::run_round(&seeds, workers);
    let run_s = secs(t);
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced = None;
    for _ in 0..TRACE_PAIRS {
        let t = trace::now();
        let single = survey::run_round(&seeds, 1);
        untraced_walls.push(secs(t));
        if single.tables != reference.tables {
            return Err(mismatch(
                "one-worker Table 1 differs from the two-worker Table 1",
            ));
        }

        alloc::set_enabled(true);
        trace::start();
        let t = trace::now();
        let round = survey::traced_round(&seeds);
        traced_walls.push(secs(t));
        let layers = trace::stop();
        alloc::set_enabled(false);
        if round.round.tables != reference.tables {
            return Err(mismatch("traced Table 1 differs from run_survey's"));
        }
        if round.round.events != reference.events {
            return Err(mismatch("traced event count differs"));
        }
        traced = Some((round, layers));
    }
    let (traced, layers) = traced.expect("TRACE_PAIRS is at least one");

    let checks = reference.checks as f64;
    let stats = SimStats {
        events: reference.events,
        busy_nanos: reference.busy_nanos,
        ..SimStats::default()
    };
    let ledger = Ledger {
        units: checks,
        survey: true,
        workers,
        stats,
        queue: traced.queue,
        drops: traced.drops,
        servers: ServerStats::default(),
        epochs: 0,
        run_s,
        world_build_us: build_s * 1e6 / checks,
        untraced_1w_s: median(&untraced_walls),
        traced_1w_s: median(&traced_walls),
        traced_s: traced_walls[traced_walls.len() - 1],
        layers,
        run_allocs: traced.run_allocs,
        build_allocs: traced.build_allocs,
        registry: traced.metrics,
        latencies: Vec::new(),
        udp: reference.udp,
        tcp: reference.tcp,
    };
    println!(
        "workload survey seed {} traced: {} checks ({} nodes); untraced {:.3} s on {} workers, {:.3} s on one; Table 1 matches; {} checks inconclusive",
        args.seed, reference.checks, nodes, run_s, workers, ledger.untraced_1w_s, traced.inconclusive_checks
    );
    ledger.print_table();
    finish_trace(
        args,
        workers,
        &ledger,
        hash_str(&reference.tables),
        reference.checks,
        reference.inconclusive,
    )
}

fn finish_trace(
    args: &Args,
    workers: usize,
    ledger: &Ledger,
    digest: u64,
    attempted: u64,
    failed: u64,
) -> Result<Output, String> {
    if let Some(dir) = &args.out {
        let path = format!("{dir}/trace-{}-{}.json", args.workload.name(), args.seed);
        ledger
            .write_trace_file(&path, args.workload, args.seed)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("  trace ledger and span sample written to {path}");
    }
    let mut out = Output::new(workers);
    out.digest = digest;
    out.attempted = attempted;
    out.failed = failed;
    ledger.per_layer_metrics(&mut out);
    Ok(out)
}
