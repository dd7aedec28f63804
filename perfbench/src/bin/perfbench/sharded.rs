//! The traced twin of `punch_lab::ShardedWorld`.
//!
//! It builds the same shard sims from the same public constructors, in
//! the same order and with the same node names (so the named RNG streams
//! match), but wraps every device and app in a timing shim, and runs the
//! same epoch loop on the `par` pool. Its `report()` must equal the real
//! world's byte for byte; the benchmark refuses the trace otherwise.

use crate::shim::{AppShim, DevShim};
use crate::trace::{self, Layer};
use holepunch::{CandidatePlan, PeerId, PredictionStrategy, SourceSpec, UdpPeer, UdpPeerConfig};
use punch_lab::{addrs, par, SessionOutcome, ShardConfig};
use punch_nat::{NatBehavior, NatDevice};
use punch_net::{
    Cidr, Duration, Endpoint, FaultPlan, LinkSpec, MetricsSnapshot, NodeId, Router, Sim, SimTime,
};
use punch_rendezvous::{RendezvousServer, ServerConfig, ServerStats};
use punch_transport::{HostDevice, StackConfig};
use std::net::Ipv4Addr;
use std::sync::{Mutex, MutexGuard};

type Host = DevShim<HostDevice>;

struct Session {
    global: usize,
    a: NodeId,
    peer_b: PeerId,
    released: bool,
    outcome: SessionOutcome,
    resolved_at: Option<SimTime>,
    latency: Option<Duration>,
}

struct Shard {
    sim: Sim,
    sessions: Vec<Session>,
    servers: Vec<NodeId>,
}

/// A shimmed sharded world; see the module docs.
pub struct TracedWorld {
    cfg: ShardConfig,
    shards: Vec<Mutex<Shard>>,
    released: usize,
    resolved: usize,
    next_wave: usize,
    epochs: u64,
}

fn lock(m: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    m.lock().expect("shard lock poisoned by a panicking worker")
}

impl TracedWorld {
    /// Mirrors `ShardedWorld::build`, with metrics registries on.
    pub fn build(cfg: &ShardConfig) -> Self {
        let shard_count = cfg.shards.max(1);
        let per_shard = cfg.sessions.div_ceil(shard_count).max(1);
        let server_ep = Endpoint::new(addrs::SERVER, 1234);
        let lan = LinkSpec::new(Duration::from_micros(200));
        let nat_wan = LinkSpec::new(Duration::from_millis(10));
        let server_wan = LinkSpec::new(Duration::from_millis(5));
        let fleet: Vec<Endpoint> = if cfg.servers > 1 {
            (0..cfg.servers)
                .map(|j| Endpoint::new(Ipv4Addr::new(18, 181, 0, 31 + j as u8), 1234))
                .collect()
        } else {
            Vec::new()
        };
        let replication = cfg.replication.clamp(1, cfg.servers.max(1));

        let mut shards = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let mut sim = trace::charge(Layer::Net, || {
                let mut sim = Sim::new(cfg.seed);
                sim.use_named_rng_streams();
                sim.enable_metrics();
                sim
            });
            let router = trace::charge(Layer::Router, || {
                DevShim::boxed(Layer::Router, Router::new())
            });
            let internet = trace::charge(Layer::Net, || sim.add_node("internet", router));
            let server_cap = 2 * per_shard + 16;
            let mut server_nodes = Vec::with_capacity(cfg.servers.max(1));
            let mut routes: Vec<(Cidr, usize)> = Vec::new();
            let server_ips: Vec<(String, Ipv4Addr, usize)> = if fleet.is_empty() {
                vec![("server".to_string(), addrs::SERVER, 0)]
            } else {
                fleet
                    .iter()
                    .enumerate()
                    .map(|(j, ep)| (format!("server{j}"), ep.ip, j))
                    .collect()
            };
            for (name, ip, j) in server_ips {
                let app = trace::charge(Layer::Rendezvous, || {
                    let mut server_cfg = ServerConfig::default().with_max_clients(server_cap);
                    if !fleet.is_empty() {
                        server_cfg = server_cfg
                            .with_fleet(fleet.clone(), j)
                            .with_replication(replication);
                    }
                    AppShim::boxed(Layer::Rendezvous, RendezvousServer::new(server_cfg))
                });
                let host = trace::charge(Layer::Transport, || {
                    DevShim::boxed(
                        Layer::Transport,
                        HostDevice::new(ip, StackConfig::default(), app),
                    )
                });
                let server = trace::charge(Layer::Net, || {
                    let server = sim.add_node(name, host);
                    let (r_srv, _) = sim.connect(internet, server, server_wan);
                    routes.push((Cidr::host(ip), r_srv));
                    server
                });
                server_nodes.push(server);
            }

            let mut sessions = Vec::with_capacity(per_shard);
            for i in (s..cfg.sessions).step_by(shard_count) {
                let symmetric =
                    cfg.symmetric_every > 0 && i % cfg.symmetric_every == cfg.symmetric_every - 1;
                let behavior = trace::charge(Layer::Nat, || {
                    if symmetric {
                        NatBehavior::symmetric()
                    } else {
                        NatBehavior::port_restricted_cone()
                    }
                });
                let nat_a_ip = Ipv4Addr::from(0x1E00_0000u32 + i as u32);
                let nat_b_ip = Ipv4Addr::from(0x1F00_0000u32 + i as u32);
                let peer_a = PeerId(2 * i as u64 + 1);
                let peer_b = PeerId(2 * i as u64 + 2);

                let mut side = |tag: &str, nat_ip: Ipv4Addr, client_ip: Ipv4Addr, id: PeerId| {
                    let nat_dev = trace::charge(Layer::Nat, || {
                        DevShim::boxed(Layer::Nat, NatDevice::new(behavior.clone(), vec![nat_ip]))
                    });
                    let nat = trace::charge(Layer::Net, || {
                        let nat = sim.add_node(format!("m{i}.n{tag}"), nat_dev);
                        let (_, r_iface) = sim.connect(nat, internet, nat_wan);
                        routes.push((Cidr::host(nat_ip), r_iface));
                        nat
                    });
                    let app =
                        trace::charge(Layer::Core, || {
                            let mut ucfg = UdpPeerConfig::new(id, server_ep);
                            if !fleet.is_empty() {
                                ucfg = ucfg.with_fleet(fleet.clone(), replication);
                            }
                            if cfg.resilient_clients {
                                ucfg.server_keepalive = Duration::from_secs(2);
                                ucfg.register_retry = Duration::from_secs(1);
                                let mut p = holepunch::PunchConfig::resilient();
                                p.keepalive_interval = Duration::from_secs(1);
                                ucfg.punch = p;
                            }
                            if cfg.predict_symmetric && symmetric {
                                ucfg.punch = ucfg.punch.clone().with_plan(
                                    CandidatePlan::basic().with_source(SourceSpec::predicted(
                                        PredictionStrategy::SequentialDelta { window: 8 },
                                    )),
                                );
                            }
                            AppShim::boxed(Layer::Core, UdpPeer::new(ucfg))
                        });
                    let host = trace::charge(Layer::Transport, || {
                        DevShim::boxed(
                            Layer::Transport,
                            HostDevice::new(client_ip, StackConfig::fast(), app),
                        )
                    });
                    trace::charge(Layer::Net, || {
                        let client = sim.add_node(format!("m{i}.{tag}"), host);
                        sim.connect(nat, client, lan);
                        client
                    })
                };
                let a = side("a", nat_a_ip, addrs::CLIENT_A, peer_a);
                let _b = side("b", nat_b_ip, addrs::CLIENT_B, peer_b);
                trace::charge(Layer::Lab, || {
                    sessions.push(Session {
                        global: i,
                        a,
                        peer_b,
                        released: false,
                        outcome: SessionOutcome::Pending,
                        resolved_at: None,
                        latency: None,
                    })
                });
            }

            trace::charge(Layer::Router, || {
                let router = &mut sim.device_mut::<DevShim<Router>>(internet).inner;
                for (prefix, iface) in routes {
                    router.add_route(prefix, iface);
                }
            });
            if let Some((j, at)) = cfg.server_restart {
                let node = server_nodes[j % server_nodes.len()];
                trace::charge(Layer::Net, || {
                    FaultPlan::new()
                        .restart(SimTime::ZERO + at, node)
                        .apply(&mut sim)
                });
            }
            trace::charge(Layer::Lab, || {
                shards.push(Mutex::new(Shard {
                    sim,
                    sessions,
                    servers: server_nodes,
                }))
            });
        }

        TracedWorld {
            cfg: cfg.clone(),
            shards,
            released: 0,
            resolved: 0,
            next_wave: 0,
            epochs: 0,
        }
    }

    /// Mirrors `ShardedWorld::run` on `workers` workers. The whole run is
    /// one `lab` span; each shard advance is a `net` span inside it.
    pub fn run(&mut self, workers: usize) {
        trace::span(Layer::Lab, || self.run_epochs(workers));
    }

    fn run_epochs(&mut self, workers: usize) {
        if self.cfg.sessions == 0 {
            return;
        }
        let waves = self.cfg.waves.max(1);
        let hard_deadline = SimTime::ZERO + self.cfg.connect_at + self.cfg.deadline;
        let mut boundary = SimTime::ZERO + self.cfg.connect_at;
        loop {
            par::run_with_workers(&self.shards, workers, |_, m| {
                let mut shard = lock(m);
                trace::span(Layer::Net, || shard.sim.run_until(boundary));
            });
            self.epochs += 1;

            let mut newly = 0usize;
            for m in &self.shards {
                let shard = &mut *lock(m);
                for sess in &mut shard.sessions {
                    if !sess.released || sess.outcome != SessionOutcome::Pending {
                        continue;
                    }
                    let app = &shard
                        .sim
                        .device::<Host>(sess.a)
                        .inner
                        .app::<AppShim<UdpPeer>>()
                        .inner;
                    let outcome = if app.is_established(sess.peer_b) {
                        SessionOutcome::Direct
                    } else if app.is_relaying(sess.peer_b) {
                        SessionOutcome::Relay
                    } else if app.is_failed(sess.peer_b) {
                        SessionOutcome::Failed
                    } else {
                        continue;
                    };
                    sess.outcome = outcome;
                    sess.resolved_at = Some(boundary);
                    if outcome == SessionOutcome::Direct {
                        sess.latency = app.timeline(sess.peer_b).and_then(|t| t.punch_latency());
                    }
                    newly += 1;
                }
            }
            self.resolved += newly;

            while self.next_wave < waves
                && (self.next_wave == 0 || self.resolved * 10 >= self.released * 9)
            {
                let w = self.next_wave;
                let lo = w * self.cfg.sessions / waves;
                let hi = (w + 1) * self.cfg.sessions / waves;
                for i in lo..hi {
                    let m = &self.shards[i % self.shards.len()];
                    let shard = &mut *lock(m);
                    let sess = &mut shard.sessions[i / self.shards.len()];
                    let (a, peer_b) = (sess.a, sess.peer_b);
                    shard.sim.with_node(a, |dev, ctx| {
                        let host = dev
                            .downcast_mut::<Host>()
                            .expect("client node is a shimmed host");
                        trace::span(Layer::Transport, || {
                            host.inner.with_app::<AppShim<UdpPeer>, _>(ctx, |app, os| {
                                trace::span(Layer::Core, || app.inner.connect(os, peer_b))
                            })
                        })
                    });
                    sess.released = true;
                }
                self.released += hi - lo;
                self.next_wave += 1;
            }

            if (self.released == self.cfg.sessions && self.resolved == self.released)
                || boundary >= hard_deadline
            {
                break;
            }
            boundary += self.cfg.epoch;
        }
    }

    /// Epoch boundaries crossed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Engine event count summed across shards.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|m| lock(m).sim.stats().events).sum()
    }

    /// Rendezvous counters summed over every shard's fleet.
    pub fn fleet_stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for m in &self.shards {
            let shard = lock(m);
            for &node in &shard.servers {
                let host = &shard.sim.device::<Host>(node).inner;
                total.add(&host.app::<AppShim<RendezvousServer>>().inner.stats());
            }
        }
        total
    }

    /// Metrics registries merged in shard order.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for m in &self.shards {
            total.merge(&lock(m).sim.metrics_snapshot());
        }
        total
    }

    /// One line per session in global order, formatted exactly as
    /// `ShardedWorld::report`.
    pub fn report(&self) -> String {
        let mut lines: Vec<(usize, String)> = Vec::with_capacity(self.cfg.sessions);
        for m in &self.shards {
            for sess in &lock(m).sessions {
                let when = match sess.resolved_at {
                    Some(at) => format!("{at}"),
                    None => "-".to_string(),
                };
                lines.push((
                    sess.global,
                    format!("m{} {} @{}", sess.global, sess.outcome.label(), when),
                ));
            }
        }
        lines.sort_by_key(|&(g, _)| g);
        let mut out = String::new();
        for (_, line) in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}
