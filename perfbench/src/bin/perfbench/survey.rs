//! The survey workload: NAT Check over the Table-1 vendor population.
//!
//! The measured run calls `punch_natcheck::run_survey_mutated_with_workers`
//! itself. The traced run is its twin: the same population draw, the
//! same per-device seeds, and the same check world as
//! `check_nat_instrumented` builds through `WorldBuilder` (same node
//! order, names and links), with every device and app in a timing shim
//! and the same tally. Its Table 1 must equal the measured one.

use crate::alloc;
use crate::shim::{AppShim, DevShim};
use crate::trace::{self, Layer};
use punch_lab::{par, PeerSetup, WorldBuilder};
use punch_nat::{NatBehavior, NatDevice, SampledNat, VendorProfile, VENDORS};
use punch_natcheck::survey::{S1, S2, S3};
use punch_natcheck::{
    run_survey_mutated_with_workers, CheckServer, NatCheckClient, NatCheckReport, ServerRole,
    SurveyResult, SurveyRow,
};
use punch_net::seed::derive_seed;
use punch_net::{Cidr, LinkSpec, QueueStats, Router, Sim, SimTime};
use punch_transport::{HostDevice, StackConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

/// The NAT's public address in every check world.
const NAT_IP: Ipv4Addr = Ipv4Addr::new(155, 99, 25, 11);
/// The client's address behind the NAT.
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Give-up horizon of one check (as `check_nat_instrumented`).
const CHECK_DEADLINE: SimTime = SimTime::from_secs(120);

/// One survey round: Table 1 at each round seed.
#[derive(Default)]
pub struct Round {
    /// The formatted tables, one after another.
    pub tables: String,
    /// NAT Check runs completed.
    pub checks: u64,
    /// Verdicts the checks could not reach: Table-1 data points sampled
    /// but missing from the tested counts.
    pub inconclusive: u64,
    /// UDP hole punching: (compatible, tested), summed over the seeds.
    pub udp: (u64, u64),
    /// TCP hole punching: (compatible, tested), summed over the seeds.
    pub tcp: (u64, u64),
    /// Engine events, summed.
    pub events: u64,
    /// Engine run-loop nanoseconds, summed.
    pub busy_nanos: u64,
}

impl Round {
    fn add(&mut self, result: &SurveyResult) {
        self.tables.push_str(&result.format());
        self.checks += result.devices;
        self.inconclusive += missing_verdicts(result);
        self.udp.0 += u64::from(result.total.udp.0);
        self.udp.1 += u64::from(result.total.udp.1);
        self.tcp.0 += u64::from(result.total.tcp.0);
        self.tcp.1 += u64::from(result.total.tcp.1);
        self.events += result.sim_events;
        self.busy_nanos += result.sim_busy_nanos;
    }
}

/// Data points Table 1 samples but `result` lacks a verdict for.
fn missing_verdicts(result: &SurveyResult) -> u64 {
    let sampled = |col: fn(&punch_nat::VendorSpec) -> u32| -> u64 {
        VENDORS.iter().map(|v| u64::from(col(v))).sum()
    };
    let t = &result.total;
    let quota = sampled(|v| v.udp.1) + sampled(|v| v.udp_hairpin.1) + 2 * sampled(|v| v.tcp.1);
    let tested = u64::from(t.udp.1 + t.udp_hairpin.1 + t.tcp.1 + t.tcp_hairpin.1);
    quota.saturating_sub(tested)
}

/// Runs one measured round through the library's survey entry point.
/// Each worker takes whole surveys, run on the library's one-worker
/// path, until the round's seeds run out, so a round has one fork and
/// one join rather than one per survey: a worker the host deschedules
/// delays its own survey, not every survey's join. The tally is in seed
/// order, so it does not depend on the worker count.
pub fn run_round(seeds: &[u64], workers: usize) -> Round {
    let results = par::run_with_workers(seeds, workers, |_, &seed| {
        run_survey_mutated_with_workers(seed, None, Some(1), |_, _| {})
    });
    let mut round = Round::default();
    for result in &results {
        round.add(result);
    }
    round
}

/// Every device of the population at `seed`, with its device seed, in
/// the survey's task order.
fn population(seed: u64) -> Vec<(usize, u64, SampledNat)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks = Vec::new();
    for (v, spec) in VENDORS.iter().enumerate() {
        let devices = VendorProfile::new(*spec).sample_population_capped(&mut rng, None);
        for (i, device) in devices.into_iter().enumerate() {
            tasks.push((v, derive_seed(seed, spec.name, i as u64), device));
        }
    }
    tasks
}

/// Builds (and drops) every check world of the round through the
/// library's `WorldBuilder`, the way `check_nat_instrumented` does —
/// the survey's set-up cost.
pub fn build_round_worlds(seeds: &[u64]) -> u64 {
    let mut nodes = 0u64;
    for &seed in seeds {
        for (_, device_seed, device) in population(seed) {
            let mut wb = WorldBuilder::new(device_seed);
            wb.server(S1, CheckServer::new(ServerRole::One));
            wb.server(S2, CheckServer::new(ServerRole::Two { s3: S3 }));
            wb.server(S3, CheckServer::new(ServerRole::Three));
            let nat = wb.nat(device.behavior.clone(), NAT_IP);
            wb.client(
                CLIENT_IP,
                nat,
                PeerSetup::new(NatCheckClient::new(S1, S2, S3)),
            );
            nodes += wb.build().sim.node_count() as u64;
        }
    }
    nodes
}

/// What the traced round measured beyond the tables.
pub struct TracedRound {
    /// The round, tallied exactly as the measured one.
    pub round: Round,
    /// Checks whose report lacks at least one verdict Table 1 samples.
    pub inconclusive_checks: u64,
    /// Metrics registries of every check, merged.
    pub metrics: punch_net::MetricsSnapshot,
    /// Queue and pool counters of every check's sim: high-water mark
    /// the max, the rest summed.
    pub queue: QueueStats,
    /// Packets lost, device-dropped or dropped on a downed link.
    pub drops: u64,
    /// Allocations made while constructing the check worlds.
    pub build_allocs: alloc::Ledger,
    /// Allocations made while drawing populations, running checks and
    /// tallying (construction and teardown excluded).
    pub run_allocs: alloc::Ledger,
}

/// The traced twin of [`run_round`], on the calling thread. Each check
/// is three root spans (`lab` builds the world, `net` runs it,
/// `natcheck` reads and tallies the report); the benchmark's own
/// bookkeeping between them is left outside every span.
pub fn traced_round(seeds: &[u64]) -> TracedRound {
    let mut round = Round::default();
    let mut inconclusive_checks = 0u64;
    let mut metrics = punch_net::MetricsSnapshot::default();
    let mut queue = QueueStats::default();
    let mut drops = 0u64;
    let mut build_allocs = alloc::Ledger::default();
    let mut run_allocs = alloc::Ledger::default();
    for &seed in seeds {
        let before = alloc::snapshot();
        let (tasks, mut result) = trace::span(Layer::Natcheck, || {
            let mut result = SurveyResult::default();
            result.total.vendor = "All".into();
            result.rows = VENDORS
                .iter()
                .map(|spec| SurveyRow {
                    vendor: spec.name.to_string(),
                    ..SurveyRow::default()
                })
                .collect();
            (population(seed), result)
        });
        alloc::accumulate(&mut run_allocs, &before, &alloc::snapshot());
        for (v, device_seed, device) in &tasks {
            let before = alloc::snapshot();
            let (mut sim, client) = trace::span(Layer::Lab, || {
                build_check(device.behavior.clone(), *device_seed)
            });
            alloc::accumulate(&mut build_allocs, &before, &alloc::snapshot());
            let before = alloc::snapshot();
            trace::span(Layer::Net, || {
                sim.run_while(CHECK_DEADLINE, |sim| client_app(sim, client).done())
            });
            let inconclusive = trace::span(Layer::Natcheck, || {
                let report = client_app(&sim, client).report();
                tally(&mut result.rows[*v], device, &report);
                tally(&mut result.total, device, &report);
                any_inconclusive(&report, device)
            });
            alloc::accumulate(&mut run_allocs, &before, &alloc::snapshot());
            inconclusive_checks += u64::from(inconclusive);
            let stats = sim.stats();
            drops += stats.packets_lost + stats.device_drops + stats.link_down_drops;
            let q = sim.queue_stats();
            queue.depth_high_water = queue.depth_high_water.max(q.depth_high_water);
            queue.pool_slots += q.pool_slots;
            queue.pool_recycled += q.pool_recycled;
            queue.batches_coalesced += q.batches_coalesced;
            result.devices += 1;
            result.sim_events += stats.events;
            result.sim_busy_nanos += stats.busy_nanos;
            metrics.merge(&sim.metrics_snapshot());
            trace::span(Layer::Lab, || drop(sim));
        }
        round.add(&result);
    }
    TracedRound {
        round,
        inconclusive_checks,
        metrics,
        queue,
        drops,
        build_allocs,
        run_allocs,
    }
}

type Host = DevShim<HostDevice>;

fn client_app(sim: &Sim, client: punch_net::NodeId) -> &NatCheckClient {
    &sim.device::<Host>(client)
        .inner
        .app::<AppShim<NatCheckClient>>()
        .inner
}

/// The check world of `check_nat_instrumented`, as `WorldBuilder::build`
/// lays it out: router, three servers, the NAT, the client.
fn build_check(behavior: NatBehavior, seed: u64) -> (Sim, punch_net::NodeId) {
    let mut sim = trace::charge(Layer::Net, || {
        let mut sim = Sim::new(seed);
        sim.enable_metrics();
        sim
    });
    let wan = LinkSpec::wan();
    let lan = LinkSpec::lan();
    let router = trace::charge(Layer::Router, || {
        DevShim::boxed(Layer::Router, Router::new())
    });
    let internet = trace::charge(Layer::Net, || sim.add_node("internet", router));
    let mut routes: Vec<(Cidr, usize)> = Vec::new();
    let servers = [
        (S1, ServerRole::One),
        (S2, ServerRole::Two { s3: S3 }),
        (S3, ServerRole::Three),
    ];
    for (i, (ip, role)) in servers.into_iter().enumerate() {
        let app = trace::charge(Layer::Natcheck, || {
            AppShim::boxed(Layer::Natcheck, CheckServer::new(role))
        });
        let host = trace::charge(Layer::Transport, || {
            DevShim::boxed(
                Layer::Transport,
                HostDevice::new(ip, StackConfig::default(), app),
            )
        });
        trace::charge(Layer::Net, || {
            let node = sim.add_node(format!("s{i}"), host);
            let (riface, _) = sim.connect(internet, node, wan);
            routes.push((Cidr::host(ip), riface));
        });
    }
    let nat_dev = trace::charge(Layer::Nat, || {
        DevShim::boxed(Layer::Nat, NatDevice::new(behavior, vec![NAT_IP]))
    });
    let nat = trace::charge(Layer::Net, || {
        let nat = sim.add_node("nat0", nat_dev);
        let (_, riface) = sim.connect(nat, internet, wan);
        routes.push((Cidr::host(NAT_IP), riface));
        nat
    });
    let app = trace::charge(Layer::Natcheck, || {
        AppShim::boxed(Layer::Natcheck, NatCheckClient::new(S1, S2, S3))
    });
    let host = trace::charge(Layer::Transport, || {
        DevShim::boxed(
            Layer::Transport,
            HostDevice::new(CLIENT_IP, StackConfig::fast(), app),
        )
    });
    let client = trace::charge(Layer::Net, || {
        let client = sim.add_node("c0", host);
        sim.connect(nat, client, lan);
        client
    });
    trace::charge(Layer::Router, || {
        let router = &mut sim.device_mut::<DevShim<Router>>(internet).inner;
        for (cidr, iface) in routes {
            router.add_route(cidr, iface);
        }
    });
    (sim, client)
}

/// Whether any verdict Table 1 samples from this device is missing.
fn any_inconclusive(report: &NatCheckReport, device: &SampledNat) -> bool {
    report.udp_hole_punching().is_none()
        || (device.in_hairpin_sample && report.udp_hairpin.is_none())
        || (device.in_tcp_sample
            && (report.tcp_hole_punching().is_none() || report.tcp_hairpin.is_none()))
}

/// Adds one device to a row, as the survey's own tally does.
fn tally(row: &mut SurveyRow, device: &SampledNat, report: &NatCheckReport) {
    if let Some(ok) = report.udp_hole_punching() {
        row.udp.1 += 1;
        row.udp.0 += u32::from(ok);
    }
    if device.in_hairpin_sample {
        if let Some(hp) = report.udp_hairpin {
            row.udp_hairpin.1 += 1;
            row.udp_hairpin.0 += u32::from(hp);
        }
    }
    if device.in_tcp_sample {
        if let Some(ok) = report.tcp_hole_punching() {
            row.tcp.1 += 1;
            row.tcp.0 += u32::from(ok);
        }
        if let Some(hp) = report.tcp_hairpin {
            row.tcp_hairpin.1 += 1;
            row.tcp_hairpin.0 += u32::from(hp);
        }
    }
}
