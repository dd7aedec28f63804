//! Scale benchmark: a sharded world of 10^5–10^6 endpoints punching
//! concurrently, exercising the calendar event queue, the packet arena,
//! and batched link delivery at population scale.
//!
//! Writes `results/BENCH_million.json` with outcome totals and the
//! tracked regression metric (engine events per second per core).
//!
//! Run: `cargo run --release -p punch-bench --bin million`
//!
//! Flags (all optional):
//!   --sessions N     punch sessions (default 100000; 4 nodes each)
//!   --shards N       per-shard sims (default 16)
//!   --workers N      worker pool size (default: PUNCH_JOBS / detected)
//!   --waves N        connect waves (default 1 = fully concurrent)
//!   --epoch-ms N     cross-shard sync quantum (default 250)
//!   --seed N         master seed (default 2005)
//!   --out PATH       JSON destination (default results/BENCH_million.json)
//!   --report-out P   also write the per-session determinism report
//!   --no-write       print JSON to stdout only

use punch_lab::{par, ShardConfig, ShardedWorld};
use std::time::Instant;

struct Args {
    sessions: usize,
    shards: usize,
    workers: Option<usize>,
    waves: usize,
    epoch_ms: u64,
    seed: u64,
    out: String,
    report_out: Option<String>,
    write: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        sessions: 100_000,
        shards: 16,
        workers: None,
        waves: 1,
        epoch_ms: 250,
        seed: 2005,
        out: "results/BENCH_million.json".to_string(),
        report_out: None,
        write: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value")) // punch-lint: allow(P001) CLI usage error
        };
        match flag.as_str() {
            "--sessions" => args.sessions = val("--sessions").parse().expect("--sessions"), // punch-lint: allow(P001) CLI usage error
            "--shards" => args.shards = val("--shards").parse().expect("--shards"), // punch-lint: allow(P001) CLI usage error
            "--workers" => args.workers = Some(val("--workers").parse().expect("--workers")), // punch-lint: allow(P001) CLI usage error
            "--waves" => args.waves = val("--waves").parse().expect("--waves"), // punch-lint: allow(P001) CLI usage error
            "--epoch-ms" => args.epoch_ms = val("--epoch-ms").parse().expect("--epoch-ms"), // punch-lint: allow(P001) CLI usage error
            "--seed" => args.seed = val("--seed").parse().expect("--seed"), // punch-lint: allow(P001) CLI usage error
            "--out" => args.out = val("--out"),
            "--report-out" => args.report_out = Some(val("--report-out")),
            "--no-write" => args.write = false,
            other => panic!("unknown flag {other}"), // punch-lint: allow(P001) CLI usage error
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut cfg = ShardConfig::new(args.seed, args.sessions);
    cfg.shards = args.shards;
    cfg.workers = args.workers;
    cfg.waves = args.waves;
    cfg.epoch = std::time::Duration::from_millis(args.epoch_ms);
    let workers = args.workers.unwrap_or_else(par::jobs);

    // punch-lint: allow(D001) deliberate host-time measurement; lands in BENCH_million.json timings, not in pinned tables
    let t0 = Instant::now();
    let mut world = ShardedWorld::build(&cfg);
    let build_wall = t0.elapsed();
    println!(
        "built {} sessions across {} shards ({} nodes) in {:.2?}",
        args.sessions,
        world.shard_count(),
        world.node_count(),
        build_wall
    );

    // punch-lint: allow(D001) deliberate host-time measurement; lands in BENCH_million.json timings, not in pinned tables
    let t1 = Instant::now();
    world.run();
    let run_wall = t1.elapsed();

    let counts = world.outcome_counts();
    let stats = world.merged_stats();
    let queue = world.merged_queue_stats();
    let (shards, nodes, epochs, now) = (
        world.shard_count(),
        world.node_count(),
        world.epochs(),
        world.now(),
    );
    let report = world.report();
    // Everything the output needs is captured above; free this world
    // before the speedup leg builds its own, so the two never coexist.
    drop(world);
    let events_per_sec = stats.events as f64 * 1e9 / stats.busy_nanos.max(1) as f64;

    // Speedup leg: re-run with the complementary worker count (1 if the
    // main run was parallel, the detected pool if it was sequential) so
    // the JSON records a real parallel-over-sequential ratio whenever
    // the host has more than one core — and byte-identity across pool
    // sizes gets checked as a side effect.
    let detected = par::detected_cores();
    let speedup = if detected > 1 {
        let other = if workers > 1 { 1 } else { detected };
        let mut cfg2 = cfg.clone();
        cfg2.workers = Some(other);
        let mut world2 = ShardedWorld::build(&cfg2);
        // punch-lint: allow(D001) deliberate host-time measurement; lands in BENCH_million.json timings, not in pinned tables
        let t2 = Instant::now();
        world2.run();
        let other_wall = t2.elapsed();
        assert_eq!(
            report,
            world2.report(),
            "reports must be byte-identical across worker counts"
        );
        let (seq, par) = if workers > 1 {
            (other_wall, run_wall)
        } else {
            (run_wall, other_wall)
        };
        println!(
            "speedup leg ({other} workers) ran in {other_wall:.2?}: {:.2}x",
            seq.as_secs_f64() / par.as_secs_f64().max(f64::MIN_POSITIVE)
        );
        Some(seq.as_secs_f64() / par.as_secs_f64().max(f64::MIN_POSITIVE))
    } else {
        None
    };
    let speedup_json = match speedup {
        Some(s) => format!("{s:.2}"),
        None => "null".to_string(),
    };

    println!(
        "ran to {} in {:.2?} ({} epochs, {} workers): \
         direct {} relay {} failed {} pending {}",
        now, run_wall, epochs, workers, counts.direct, counts.relay, counts.failed, counts.pending,
    );
    println!(
        "{:.2}M engine events, {:.1}M events/sec/core; queue depth hi {}, \
         {} pool slots ({} recycled), {} deliveries coalesced",
        stats.events as f64 / 1e6,
        events_per_sec / 1e6,
        queue.depth_high_water,
        queue.pool_slots,
        queue.pool_recycled,
        queue.batches_coalesced,
    );

    let json = format!(
        "{{\n  \"experiment\": \"million_scale\",\n  \"seed\": {},\n  \"sessions\": {},\n  \
         \"shards\": {},\n  \"detected_cores\": {},\n  \"workers\": {},\n  \"speedup\": {},\n  \"waves\": {},\n  \"nodes\": {},\n  \
         \"epochs\": {},\n  \"sim_now\": \"{}\",\n  \"direct\": {},\n  \"relay\": {},\n  \
         \"failed\": {},\n  \"pending\": {},\n  \"sim_events\": {},\n  \
         \"packets_delivered\": {},\n  \"build_wall_ms\": {:.1},\n  \"run_wall_ms\": {:.1},\n  \
         \"sim_busy_ms\": {:.1},\n  \"events_per_sec_per_core\": {:.0},\n  \
         \"queue_depth_high_water\": {},\n  \"pool_slots\": {},\n  \"pool_recycled\": {},\n  \
         \"batches_coalesced\": {}\n}}\n",
        args.seed,
        args.sessions,
        shards,
        detected,
        workers,
        speedup_json,
        args.waves,
        nodes,
        epochs,
        now,
        counts.direct,
        counts.relay,
        counts.failed,
        counts.pending,
        stats.events,
        stats.packets_delivered,
        build_wall.as_secs_f64() * 1e3,
        run_wall.as_secs_f64() * 1e3,
        stats.busy_nanos as f64 / 1e6,
        events_per_sec,
        queue.depth_high_water,
        queue.pool_slots,
        queue.pool_recycled,
        queue.batches_coalesced,
    );

    if let Some(path) = &args.report_out {
        match std::fs::write(path, &report) {
            Ok(()) => println!("(wrote {path})"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    if args.write {
        match std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&args.out, &json))
        {
            Ok(()) => println!("(wrote {})", args.out),
            Err(e) => eprintln!("warning: could not write {}: {e}", args.out),
        }
    } else {
        println!("{json}");
    }
}
