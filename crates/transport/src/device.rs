//! Embedding a host stack into the simulator, and the application model.
//!
//! A [`HostDevice`] is a simulator node that runs a [`HostStack`] plus one
//! [`App`]. Applications are event-driven state machines, the same shape
//! as epoll/kqueue code: they react to [`SockEvent`]s and timers, and call
//! into the socket API through the [`Os`] handle.

use crate::config::StackConfig;
use crate::error::SockResult;
use crate::event::SockEvent;
use crate::socket::{SocketId, INTERNAL_TIMER_BIT};
use crate::stack::{ConnectOpts, HostStack};
use crate::tcb::{StackStats, TcpState};
use bytes::Bytes;
use punch_net::{Ctx, Device, Endpoint, IfaceId, Packet, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::any::Any;
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::time::Duration;

/// The socket-facing system interface handed to application callbacks.
///
/// `Os` borrows the host's stack and the simulation context for the
/// duration of one callback. All methods are non-blocking; completions
/// arrive as [`SockEvent`]s.
pub struct Os<'a, 'b> {
    stack: &'a mut HostStack,
    ctx: &'a mut Ctx<'b>,
}

impl Os<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's IP address.
    pub fn host_ip(&self) -> Ipv4Addr {
        self.stack.ip()
    }

    /// Deterministic per-node RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }

    /// Arms an application timer delivering `token` to [`App::on_timer`].
    ///
    /// # Panics
    ///
    /// Panics if bit 63 of `token` is set (reserved for the stack).
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        assert!(
            token & INTERNAL_TIMER_BIT == 0,
            "token bit 63 is reserved for the stack"
        );
        self.ctx.set_timer(after, token);
    }

    /// Binds a UDP socket. See [`HostStack::udp_bind`].
    pub fn udp_bind(&mut self, port: u16) -> SockResult<SocketId> {
        self.stack.udp_bind(port)
    }

    /// Sends a UDP datagram. See [`HostStack::udp_send`].
    pub fn udp_send(
        &mut self,
        sock: SocketId,
        to: Endpoint,
        data: impl Into<Bytes>,
    ) -> SockResult<()> {
        self.stack.udp_send(sock, to, data)
    }

    /// Opens a TCP listener. See [`HostStack::tcp_listen`].
    pub fn tcp_listen(&mut self, port: u16, reuse: bool) -> SockResult<SocketId> {
        self.stack.tcp_listen(port, reuse)
    }

    /// Starts an asynchronous TCP connect. See [`HostStack::tcp_connect`].
    pub fn tcp_connect(&mut self, remote: Endpoint, opts: ConnectOpts) -> SockResult<SocketId> {
        self.stack.tcp_connect(remote, opts)
    }

    /// Accepts a ready connection. See [`HostStack::tcp_accept`].
    pub fn tcp_accept(&mut self, listener: SocketId) -> SockResult<Option<(SocketId, Endpoint)>> {
        self.stack.tcp_accept(listener)
    }

    /// Queues stream data. See [`HostStack::tcp_send`].
    pub fn tcp_send(&mut self, sock: SocketId, data: &[u8]) -> SockResult<()> {
        self.stack.tcp_send(sock, data)
    }

    /// Gracefully closes any socket. See [`HostStack::close`].
    pub fn close(&mut self, sock: SocketId) -> SockResult<()> {
        self.stack.close(sock)
    }

    /// Aborts a TCP connection with a RST. See [`HostStack::tcp_abort`].
    pub fn tcp_abort(&mut self, sock: SocketId) -> SockResult<()> {
        self.stack.tcp_abort(sock)
    }

    /// Local endpoint of a socket.
    pub fn local_endpoint(&self, sock: SocketId) -> SockResult<Endpoint> {
        self.stack.local_endpoint(sock)
    }

    /// Remote endpoint of a TCP connection.
    pub fn remote_endpoint(&self, sock: SocketId) -> SockResult<Endpoint> {
        self.stack.remote_endpoint(sock)
    }

    /// TCP state of a connection, if it exists.
    pub fn tcp_state(&self, sock: SocketId) -> Option<TcpState> {
        self.stack.tcp_state(sock)
    }

    /// Returns true if the simulation's metrics registry is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.ctx.metrics_enabled()
    }

    /// Increments an unlabelled metrics counter. See [`Ctx::metric_inc`].
    pub fn metric_inc(&mut self, name: &'static str) {
        self.ctx.metric_inc(name);
    }

    /// Adds `by` to an unlabelled metrics counter.
    pub fn metric_inc_by(&mut self, name: &'static str, by: u64) {
        self.ctx.metric_inc_by(name, by);
    }

    /// Increments a labelled metrics counter (e.g. a failure reason).
    pub fn metric_inc_labeled(&mut self, name: &'static str, label: &'static str) {
        self.ctx.metric_inc_labeled(name, label);
    }

    /// Records a sim-time observation into a metrics histogram.
    pub fn metric_observe(&mut self, name: &'static str, d: Duration) {
        self.ctx.metric_observe(name, d);
    }
}

/// An event-driven application running on a [`HostDevice`].
///
/// `Send` is required (as on [`punch_net::Device`]) so sims hosting apps
/// can be advanced from worker threads in sharded worlds.
pub trait App: Any + Send {
    /// Called once when the host starts.
    fn on_start(&mut self, _os: &mut Os<'_, '_>) {}

    /// Called for each socket event.
    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent);

    /// Called when an application timer armed via [`Os::set_timer`] fires.
    fn on_timer(&mut self, _os: &mut Os<'_, '_>, _token: u64) {}

    /// Called when a scripted device fault (see [`punch_net::fault`])
    /// hits this host. `punch_net::FAULT_RESTART` means "restart the
    /// process, losing volatile state". The default ignores faults.
    fn on_fault(&mut self, _os: &mut Os<'_, '_>, _fault: u64) {}
}

impl dyn App {
    /// Downcasts an application reference to its concrete type.
    pub fn downcast_ref<T: App>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref::<T>()
    }

    /// Downcasts a mutable application reference.
    pub fn downcast_mut<T: App>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut::<T>()
    }
}

/// A simulator node hosting a protocol stack and an application.
///
/// The host has exactly one network interface (iface 0) and one IP
/// address; routing beyond the first hop is the network's concern.
pub struct HostDevice {
    stack: HostStack,
    app: Box<dyn App>,
    started: bool,
    /// Stack counters already published to the metrics registry; the
    /// device reports deltas after each callback.
    published: StackStats,
}

/// One set of stack outboxes, lent to whichever host is running.
#[derive(Default)]
struct Outboxes {
    out: Vec<Packet>,
    events: Vec<SockEvent>,
    timers: Vec<(Duration, u64)>,
}

thread_local! {
    /// The worker thread's spare outboxes. A host callback drains every
    /// outbox before it returns, so one set per thread serves all the
    /// hosts that thread runs: each host's own outboxes hold no memory
    /// between callbacks, and the lent set keeps the capacity of the
    /// busiest callback so the dispatch loop does not allocate.
    static SPARE_OUTBOXES: Cell<Outboxes> = const {
        Cell::new(Outboxes {
            out: Vec::new(),
            events: Vec::new(),
            timers: Vec::new(),
        })
    };
}

/// Runs `f` with the thread's spare outboxes swapped into `stack`, and
/// swaps them back out afterwards. `f` must leave the outboxes empty.
fn with_lent_outboxes<R>(stack: &mut HostStack, f: impl FnOnce(&mut HostStack) -> R) -> R {
    fn swap(stack: &mut HostStack, set: &mut Outboxes) {
        std::mem::swap(&mut stack.out, &mut set.out);
        std::mem::swap(&mut stack.events, &mut set.events);
        std::mem::swap(&mut stack.timers, &mut set.timers);
    }
    // `take` leaves an empty set behind, so a nested lend (none exists
    // today) would merely allocate its own buffers.
    let mut set = SPARE_OUTBOXES.take();
    swap(stack, &mut set);
    let r = f(stack);
    swap(stack, &mut set);
    debug_assert!(set.out.is_empty() && set.events.is_empty() && set.timers.is_empty());
    SPARE_OUTBOXES.set(set);
    r
}

impl HostDevice {
    /// Creates a host with address `ip` running `app`.
    pub fn new(ip: Ipv4Addr, cfg: StackConfig, app: Box<dyn App>) -> Self {
        // The stack RNG is reseeded from the node's deterministic stream
        // in `on_start`; the placeholder seed only covers direct
        // stack manipulation before the simulation first runs.
        HostDevice {
            stack: HostStack::new(ip, cfg, 0),
            app,
            started: false,
            published: StackStats::default(),
        }
    }

    /// Shared access to the application, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the application is not a `T`.
    pub fn app<T: App>(&self) -> &T {
        self.app
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("app is not a {}", std::any::type_name::<T>())) // punch-lint: allow(P001) typed-accessor contract: caller names the app type it installed
    }

    /// Mutable access to the application, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the application is not a `T`.
    pub fn app_mut<T: App>(&mut self) -> &mut T {
        self.app
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("app is not a {}", std::any::type_name::<T>())) // punch-lint: allow(P001) typed-accessor contract: caller names the app type it installed
    }

    /// Read-only access to the host stack.
    pub fn stack(&self) -> &HostStack {
        &self.stack
    }

    /// Runs `f` against the application with a live [`Os`], then drains
    /// the stack's side effects into the network. This is how harness
    /// code kicks off application actions between engine steps (pair it
    /// with [`punch_net::Sim::with_node`]).
    pub fn with_app<T: App, R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut T, &mut Os<'_, '_>) -> R,
    ) -> R {
        self.run(ctx, |app, os| {
            let app = app
                .downcast_mut::<T>()
                .unwrap_or_else(|| panic!("app is not a {}", std::any::type_name::<T>())); // punch-lint: allow(P001) typed-accessor contract: caller names the app type it installed
            f(app, os)
        })
    }

    /// Runs one callback: lends the stack the worker's outboxes, hands
    /// `f` the app and a live [`Os`], drives the side effects into the
    /// network, then publishes the stack's counter deltas.
    fn run<R>(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut dyn App, &mut Os<'_, '_>) -> R) -> R {
        let app = self.app.as_mut();
        let r = with_lent_outboxes(&mut self.stack, |stack| {
            let r = f(&mut *app, &mut Os { stack, ctx });
            Self::drive(stack, app, ctx);
            r
        });
        self.flush_metrics(ctx);
        r
    }

    /// Publishes the delta of the stack's transport counters into the
    /// simulation's metrics registry. No-op when metrics are disabled.
    fn flush_metrics(&mut self, ctx: &mut Ctx<'_>) {
        if !ctx.metrics_enabled() {
            return;
        }
        let s = self.stack.stats();
        let p = self.published;
        if s.retransmits > p.retransmits {
            ctx.metric_inc_by("transport.retransmit", s.retransmits - p.retransmits);
        }
        if s.rto_fires > p.rto_fires {
            ctx.metric_inc_by("transport.rto", s.rto_fires - p.rto_fires);
        }
        if s.rsts_sent > p.rsts_sent {
            ctx.metric_inc_by("transport.rst_sent", s.rsts_sent - p.rsts_sent);
        }
        if s.checksum_drops > p.checksum_drops {
            ctx.metric_inc_by("transport.checksum_drop", s.checksum_drops - p.checksum_drops);
        }
        if s.rsts_accepted > p.rsts_accepted {
            ctx.metric_inc_by("transport.rst_accepted", s.rsts_accepted - p.rsts_accepted);
        }
        if s.rsts_rejected > p.rsts_rejected {
            ctx.metric_inc_by("transport.rst_rejected", s.rsts_rejected - p.rsts_rejected);
        }
        if s.icmp_ignored > p.icmp_ignored {
            ctx.metric_inc_by("defense.transport.icmp_ignored", s.icmp_ignored - p.icmp_ignored);
        }
        self.published = s;
    }

    /// Flushes stack side effects and dispatches pending events to the
    /// app, repeating until quiescent (app callbacks may generate more).
    /// Each round sends packets, then arms timers, then dispatches events.
    fn drive(stack: &mut HostStack, app: &mut dyn App, ctx: &mut Ctx<'_>) {
        loop {
            for pkt in stack.out.drain(..) {
                ctx.send(0, pkt);
            }
            for (after, token) in stack.timers.drain(..) {
                ctx.set_timer(after, token);
            }
            if stack.events.is_empty() {
                return;
            }
            let mut batch = std::mem::take(&mut stack.events);
            for ev in batch.drain(..) {
                app.on_event(&mut Os { stack, ctx }, ev);
            }
            // Events the batch raised went into a fresh buffer; move
            // them into the lent one so its capacity is kept.
            batch.append(&mut stack.events);
            stack.events = batch;
        }
    }
}

impl Device for HostDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            let seed = ctx.rng().gen();
            self.stack.reseed(seed);
        }
        self.run(ctx, |app, os| app.on_start(os));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        self.run(ctx, |_, os| os.stack.handle_packet(pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.run(ctx, |app, os| {
            if !os.stack.handle_timer(token) {
                app.on_timer(os, token);
            }
        });
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        self.run(ctx, |app, os| app.on_fault(os, fault));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punch_net::testutil::SinkDevice;
    use punch_net::{LinkSpec, Sim};

    const HOST: [u8; 4] = [10, 0, 0, 1];
    const PEER: [u8; 4] = [10, 0, 0, 2];

    /// On each datagram (or when poked), sends eight datagrams and opens
    /// four TCP connects, each of which arms a stack retransmit timer.
    #[derive(Default)]
    struct Burst {
        sock: Option<SocketId>,
        bursts: usize,
    }

    impl Burst {
        fn burst(&mut self, os: &mut Os<'_, '_>) {
            let peer = Endpoint::new(PEER.into(), 9000);
            for i in 0..8u8 {
                os.udp_send(self.sock.unwrap(), peer, vec![i]).unwrap();
            }
            for port in 9001..9005 {
                os.tcp_connect(Endpoint::new(PEER.into(), port), ConnectOpts::default())
                    .unwrap();
            }
            self.bursts += 1;
        }
    }

    impl App for Burst {
        fn on_start(&mut self, os: &mut Os<'_, '_>) {
            self.sock = Some(os.udp_bind(4000).unwrap());
        }

        fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
            if let SockEvent::UdpReceived { .. } = ev {
                self.burst(os);
            }
        }
    }

    fn assert_outboxes_empty(sim: &Sim, host: punch_net::NodeId) {
        let stack = sim.device::<HostDevice>(host).stack();
        assert_eq!(
            (stack.out.capacity(), stack.events.capacity(), stack.timers.capacity()),
            (0, 0, 0),
            "a host's outboxes must hold no memory between callbacks"
        );
    }

    #[test]
    fn outboxes_hold_no_memory_between_callbacks() {
        let mut sim = Sim::new(7);
        let host = sim.add_node(
            "host",
            Box::new(HostDevice::new(HOST.into(), StackConfig::default(), Box::<Burst>::default())),
        );
        let wire = sim.add_node("wire", Box::new(SinkDevice::default()));
        sim.connect(host, wire, LinkSpec::lan());
        sim.run_until_idle();

        // A datagram in: the burst runs inside `on_packet`.
        let poke = Packet::udp(Endpoint::new(PEER.into(), 9000), Endpoint::new(HOST.into(), 4000), b"go".as_ref());
        sim.with_node(wire, |_, ctx| ctx.send(0, poke));
        sim.run_until(sim.now() + Duration::from_millis(50));
        assert_eq!(sim.device::<HostDevice>(host).app::<Burst>().bursts, 1);
        assert_outboxes_empty(&sim, host);

        // The harness path: the burst runs inside `with_app`.
        sim.with_node(host, |dev, ctx| {
            let dev = dev.downcast_mut::<HostDevice>().unwrap();
            dev.with_app::<Burst, _>(ctx, |app, os| app.burst(os));
        });
        assert_outboxes_empty(&sim, host);
        sim.run_until(sim.now() + Duration::from_millis(50));
        assert_outboxes_empty(&sim, host);
        assert_eq!(sim.device::<SinkDevice>(wire).packets.len(), 2 * (8 + 4));
    }
}
