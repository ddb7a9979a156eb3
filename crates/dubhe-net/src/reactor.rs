//! The coordinator listener: one event-loop thread serving every
//! connection, one router thread owning the coordinator.
//!
//! ## Topology
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!   clients ──TCP──▶ │ event-loop thread                          │
//!                    │   mini_mio::Poll (epoll / poll(2))         │
//!                    │   nonblocking accept                       │
//!                    │   per-conn FrameBuffer (read reassembly)   │
//!                    │   per-conn bounded write queue + flush     │
//!                    └───────┬───────────────────────▲────────────┘
//!                       jobs │ mpsc             mpsc │ replies + Waker
//!                    ┌───────▼───────────────────────┴────────────┐
//!                    │ router thread — sole owner of the          │
//!                    │ Coordinator (no Mutex anywhere)            │
//!                    └────────────────────────────────────────────┘
//! ```
//!
//! The event loop does I/O only: it never touches coordinator state, and the
//! router never touches a socket. Decoded requests cross to the router over
//! an mpsc channel; replies come back over a second channel, and the router
//! rings the [`Waker`] so a poll blocked on quiet sockets picks them up
//! immediately. Ordering comes from channel FIFO and exclusivity from
//! ownership, so the coordinator needs no `Mutex`; and with every
//! connection multiplexed onto one thread, 10⁴+ mostly-idle persistent
//! clients cost file descriptors, not stacks.
//!
//! ## Flow control
//!
//! Replies are queued per connection and flushed as the socket accepts them
//! (`WouldBlock` simply parks the remainder until the poller reports the
//! socket writable again). The queue is *bounded*: if a peer stops reading
//! while replies accumulate past [`ReactorConfig::high_water`], the listener
//! records a [`ProtocolError::Backpressure`] disconnect and drops the
//! connection — it never buffers without bound and never blocks the event
//! loop on one slow reader. A peer that stalls *mid-frame* on the read side
//! is cut by [`ReactorConfig::read_timeout`], measured from its last byte of
//! progress; idleness *between* frames is never cut (a client may train for
//! minutes between protocol rounds). Both a stall and a hangup mid-frame
//! earn a best-effort typed error frame before the close.
//!
//! ## Authenticated channel
//!
//! Under [`ReactorConfig::channel`] = [`ChannelPolicy::Required`] every
//! connection walks a pre-protocol state machine: a `Handshake` phase
//! accepting nothing but `DBHS` frames (fed one payload at a time from
//! readiness events, with the whole prelude under the read timeout so a
//! handshake slow-loris is swept), then an `Established` phase accepting
//! nothing but `DBHE` sealed frames.
//! Plaintext protocol frames are refused as downgrade attempts in both
//! phases, tampered or replayed seals earn typed errors sealed back before
//! the hangup, and the router binds each `ClientId` to the first
//! authenticated identity that speaks for it (session-hijack refusal, with
//! reconnects presenting the same identity sailing through).
//!
//! Because every coordinator fold is commutative (Montgomery-domain
//! ciphertext multiplication), the ledgers this listener produces are
//! bit-identical to the in-memory transport's, no matter how arrival order
//! interleaves across connections — pinned by this crate's equivalence
//! tests and `dubhe-fl`'s simulation suite.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dubhe_select::protocol::channel::{ChannelFrame, ChannelPolicy, NodeIdentity, ServerHandshake};
use dubhe_select::protocol::codec::CodecKind;
use dubhe_select::protocol::stats::{ListenerMetrics, ListenerStats};
use dubhe_select::protocol::wire::{
    read_frame_lazy, write_frame_limited, LazyMsg, WireMsg, MAX_FRAME_BYTES,
};
use dubhe_select::protocol::{Coordinator, Party, DEFAULT_READ_TIMEOUT};
use dubhe_select::{ClientId, ProtocolError};
use mini_mio::{Backend, Events, Interest, Poll, Registry, Token, Waker};

use crate::frames::{FrameBuffer, HEADER_BYTES};

/// How long a poll sleeps when nothing bounds it sooner. Purely a liveness
/// backstop (stop and replies both ring the waker); large enough to cost
/// nothing, small enough that a lost wakeup could never wedge the loop.
const IDLE_POLL_BACKSTOP: Duration = Duration::from_millis(500);

/// Per-readiness read budget: after this many bytes from one socket the
/// loop moves on to the next event (level-triggered polling re-reports the
/// leftover), so one firehose connection cannot starve the rest.
const READ_BUDGET: usize = 256 * 1024;

/// Knobs for the coordinator listener, builder-style.
///
/// Defaults: [`DEFAULT_READ_TIMEOUT`] (30 s, shared with the client
/// connector), the global [`MAX_FRAME_BYTES`] (64 MiB) ceiling, a
/// `2 × MAX_FRAME_BYTES` write-queue bound, one `127.0.0.1:0` listen
/// address, the platform's readiness backend and a plaintext channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Mid-frame read timeout, measured from a connection's last byte of
    /// progress on an incomplete frame (and bounding the whole handshake
    /// prelude under a `Required` channel).
    pub read_timeout: Duration,
    /// Largest frame payload accepted or produced.
    pub max_frame_bytes: usize,
    /// Per-connection write-queue bound, in bytes: a queue past this mark
    /// means the peer stopped reading, and the connection is dropped with a
    /// [`ProtocolError::Backpressure`]. Defaults to `2 × max_frame_bytes`,
    /// so no single in-flight reply can trip it on its own.
    pub high_water: usize,
    /// Addresses to listen on. Several loopback aliases (`127.0.0.2`, …)
    /// spread very large client counts across source-port spaces; one
    /// `127.0.0.1:0` entry is the default.
    pub listen_addrs: Vec<SocketAddr>,
    /// Readiness backend; `None` picks the platform default (epoll on
    /// Linux, `poll(2)` elsewhere).
    pub backend: Option<Backend>,
    /// Events drained per poll call (level-triggered polling re-reports
    /// whatever does not fit).
    pub events_capacity: usize,
    /// Whether connections must run the authenticated-channel handshake
    /// before any protocol frame is accepted. Under
    /// [`ChannelPolicy::Required`] every connection starts in a
    /// pre-protocol phase speaking nothing but `DBHS` frames; after mutual
    /// authentication completes, nothing but `DBHE` sealed frames.
    pub channel: ChannelPolicy,
    /// The listener's static X25519 identity secret under a `Required`
    /// policy; `None` generates a fresh identity at spawn (readable via
    /// [`ReactorListener::public_identity`] so clients can pin it).
    pub identity: Option<[u8; 32]>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            read_timeout: DEFAULT_READ_TIMEOUT,
            max_frame_bytes: MAX_FRAME_BYTES,
            high_water: 2 * MAX_FRAME_BYTES,
            listen_addrs: vec![SocketAddr::from(([127, 0, 0, 1], 0))],
            backend: None,
            events_capacity: 1024,
            channel: ChannelPolicy::Plaintext,
            identity: None,
        }
    }
}

impl ReactorConfig {
    /// Replaces the mid-frame read timeout.
    pub fn with_read_timeout(mut self, read_timeout: Duration) -> Self {
        self.read_timeout = read_timeout;
        self
    }

    /// Replaces the frame-payload ceiling and scales the default high-water
    /// mark with it (call [`with_high_water`](Self::with_high_water) *after*
    /// this to pin an explicit bound).
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self.high_water = 2 * max_frame_bytes;
        self
    }

    /// Replaces the per-connection write-queue bound.
    pub fn with_high_water(mut self, high_water: usize) -> Self {
        self.high_water = high_water;
        self
    }

    /// Replaces the listen addresses.
    pub fn with_listen_addrs(mut self, listen_addrs: Vec<SocketAddr>) -> Self {
        self.listen_addrs = listen_addrs;
        self
    }

    /// Pins a specific readiness backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Replaces the channel policy.
    pub fn with_channel(mut self, channel: ChannelPolicy) -> Self {
        self.channel = channel;
        self
    }

    /// Pins the listener's static channel identity to a deterministic
    /// secret derived from `seed`.
    pub fn with_identity_seed(mut self, seed: u64) -> Self {
        self.identity = Some(dubhe_select::protocol::channel::secret_bytes_from_seed(
            seed,
        ));
        self
    }

    /// Pins the listener's static channel identity (the X25519 secret).
    pub fn with_identity_bytes(mut self, secret: [u8; 32]) -> Self {
        self.identity = Some(secret);
        self
    }
}

/// A decoded (or deferred — see [`LazyMsg`]) request crossing from the
/// event loop to the router.
struct Job {
    token: usize,
    msg: LazyMsg,
    codec: CodecKind,
    /// The authenticated channel identity of the connection this request
    /// arrived on, when it ran the handshake — what the router's
    /// session-hijack binding keys on.
    identity: Option<[u8; 32]>,
    started: Instant,
}

/// The router's answer crossing back to the event loop.
struct Reply {
    token: usize,
    msg: WireMsg,
    codec: CodecKind,
    started: Instant,
}

/// The coordinator listener: serves the Dubhe wire protocol — `DBH1`/`DBH2`
/// frames negotiated per connection from the frame magic, the optional
/// authenticated channel, typed error replies — to every connection from a
/// single event-loop thread, with one router thread owning the coordinator.
#[derive(Debug)]
pub struct ReactorListener<C: Coordinator + Send + 'static> {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    metrics: Arc<ListenerMetrics>,
    event_thread: Option<JoinHandle<()>>,
    router_thread: Option<JoinHandle<C>>,
    /// The listener's public channel identity, when it requires the
    /// authenticated channel — what clients pin.
    public_identity: Option<[u8; 32]>,
}

impl<C: Coordinator + Send + 'static> ReactorListener<C> {
    /// Binds an ephemeral loopback port and starts serving `coordinator`
    /// with the [`ReactorConfig`] defaults.
    pub fn spawn(coordinator: C) -> Result<Self, ProtocolError> {
        ReactorListener::spawn_with(coordinator, ReactorConfig::default())
    }

    /// [`spawn`](Self::spawn) with every knob spelled out.
    pub fn spawn_with(coordinator: C, config: ReactorConfig) -> Result<Self, ProtocolError> {
        let io_err = |context: &'static str| {
            move |e: std::io::Error| ProtocolError::Io {
                context,
                detail: e.to_string(),
            }
        };
        let mut listeners = Vec::with_capacity(config.listen_addrs.len());
        let mut addrs = Vec::with_capacity(config.listen_addrs.len());
        for addr in &config.listen_addrs {
            let listener = TcpListener::bind(addr).map_err(io_err("bind"))?;
            listener.set_nonblocking(true).map_err(io_err("bind"))?;
            addrs.push(listener.local_addr().map_err(io_err("bind"))?);
            listeners.push(listener);
        }
        let poll = match config.backend {
            Some(backend) => Poll::with_backend(backend),
            None => Poll::new(),
        }
        .map_err(io_err("create poller"))?;
        let registry = poll.registry();
        for (i, listener) in listeners.iter().enumerate() {
            registry
                .register(listener, Token(i), Interest::READABLE)
                .map_err(io_err("register listener"))?;
        }
        let waker_token = listeners.len();
        let waker =
            Arc::new(Waker::new(&registry, Token(waker_token)).map_err(io_err("create waker"))?);

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ListenerMetrics::new());
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();

        // Resolve the channel identity once at spawn so every connection
        // handshakes as the same server (and so clients can pin it).
        let identity = config.channel.is_required().then(|| match config.identity {
            Some(bytes) => NodeIdentity::from_secret_bytes(bytes),
            None => NodeIdentity::generate(),
        });
        let public_identity = identity.as_ref().map(|id| id.public_bytes());

        let router_waker = Arc::clone(&waker);
        let router_thread =
            std::thread::spawn(move || route_jobs(coordinator, job_rx, reply_tx, router_waker));

        let mut event_loop = EventLoop {
            poll,
            registry,
            events: Events::with_capacity(config.events_capacity),
            listeners,
            waker: Arc::clone(&waker),
            waker_token,
            conns: HashMap::new(),
            next_token: waker_token + 1,
            job_tx,
            reply_rx,
            stop: Arc::clone(&stop),
            metrics: Arc::clone(&metrics),
            identity,
            config,
        };
        let event_thread = std::thread::spawn(move || event_loop.run());

        Ok(ReactorListener {
            addrs,
            stop,
            waker,
            metrics,
            event_thread: Some(event_thread),
            router_thread: Some(router_thread),
            public_identity,
        })
    }

    /// The first (often only) address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// Every bound address, in [`ReactorConfig::listen_addrs`] order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The listener's public channel identity under
    /// [`ChannelPolicy::Required`] — what clients pin; `None` when the
    /// listener serves plaintext.
    pub fn public_identity(&self) -> Option<[u8; 32]> {
        self.public_identity
    }

    /// A point-in-time [`ListenerStats`] snapshot: connection lifecycle,
    /// per-direction frame/byte traffic, typed failures and the
    /// request-latency distribution.
    pub fn stats(&self) -> ListenerStats {
        self.metrics.snapshot()
    }

    /// Stops the event loop, drains the router and returns the final
    /// coordinator state.
    pub fn shutdown(mut self) -> Option<C> {
        self.stop_threads()
    }

    fn stop_threads(&mut self) -> Option<C> {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(t) = self.event_thread.take() {
            let _ = t.join();
        }
        // The event thread owned the only job Sender; with it gone the
        // router drains its queue and returns the coordinator.
        self.router_thread.take().and_then(|t| t.join().ok())
    }
}

impl<C: Coordinator + Send + 'static> Drop for ReactorListener<C> {
    fn drop(&mut self) {
        if self.event_thread.is_some() {
            let _ = self.stop_threads();
        }
    }
}

/// The router thread: the sole owner of the coordinator. Bursts of queued
/// jobs are answered with a single waker ring.
fn route_jobs<C: Coordinator>(
    mut coordinator: C,
    rx: mpsc::Receiver<Job>,
    tx: mpsc::Sender<Reply>,
    waker: Arc<Waker>,
) -> C {
    // Session-hijack refusal: the first authenticated identity to speak as a
    // ClientId owns that id for the listener's lifetime. A different channel
    // identity reusing the id gets a typed refusal before the coordinator
    // ever sees the message; reconnects present the same identity and sail
    // through.
    let mut bindings: HashMap<ClientId, [u8; 32]> = HashMap::new();
    loop {
        let first = match rx.recv() {
            Ok(job) => job,
            Err(_) => break,
        };
        let mut jobs = vec![first];
        while jobs.len() < 1024 {
            match rx.try_recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break,
            }
        }
        for job in jobs {
            let Job {
                token,
                msg,
                codec,
                identity,
                started,
            } = job;
            let hijacked = match (claimed_client(&msg), identity) {
                (Some(id), Some(who)) => match bindings.get(&id) {
                    Some(bound) if *bound != who => Some(id),
                    _ => {
                        bindings.insert(id, who);
                        None
                    }
                },
                _ => None,
            };
            let msg = match hijacked {
                Some(id) => WireMsg::Error {
                    detail: ProtocolError::AuthFailure {
                        detail: format!(
                            "client {id} is bound to a different channel identity \
                             (session hijack refused)"
                        ),
                    }
                    .to_string(),
                },
                None => route_msg(&mut coordinator, msg),
            };
            if tx
                .send(Reply {
                    token,
                    msg,
                    codec,
                    started,
                })
                .is_err()
            {
                return coordinator;
            }
        }
        let _ = waker.wake();
    }
    coordinator
}

/// The `ClientId` a request speaks *as*, if any — what the router's
/// session-hijack binding keys on.
fn claimed_client(msg: &LazyMsg) -> Option<ClientId> {
    match msg {
        LazyMsg::DeferredRegistry(frame) => Some(frame.client()),
        LazyMsg::Eager(WireMsg::Envelope { envelope }) => match envelope.from {
            Party::Client(id) => Some(id),
            _ => None,
        },
        _ => None,
    }
}

/// Maps one request onto the [`Coordinator`] trait.
fn route_msg<C: Coordinator>(coordinator: &mut C, msg: LazyMsg) -> WireMsg {
    let batch_or_error = |r: Result<Vec<dubhe_select::protocol::Envelope>, ProtocolError>| match r {
        Ok(envelopes) => WireMsg::Batch { envelopes },
        Err(e) => WireMsg::Error {
            detail: e.to_string(),
        },
    };
    let ack_or_error = |r: Result<(), ProtocolError>| match r {
        Ok(()) => WireMsg::Ack,
        Err(e) => WireMsg::Error {
            detail: e.to_string(),
        },
    };
    let msg = match msg {
        // Registry uploads arrive undecoded: the fold reads ciphertext
        // residues straight out of the frame payload.
        LazyMsg::DeferredRegistry(frame) => {
            return batch_or_error(coordinator.deliver_registry_frame(frame));
        }
        LazyMsg::Eager(msg) => msg,
    };
    match msg {
        WireMsg::Envelope { envelope } => batch_or_error(coordinator.deliver(envelope)),
        WireMsg::AnnounceTry {
            try_index,
            participants,
        } => ack_or_error(coordinator.announce_try(try_index, &participants)),
        WireMsg::BeginEpoch {
            epoch,
            expected_registrations,
        } => ack_or_error(coordinator.begin_epoch(epoch, expected_registrations)),
        WireMsg::CloseRegistration => batch_or_error(coordinator.close_registration()),
        WireMsg::CloseTry { try_index } => batch_or_error(coordinator.close_try(try_index)),
        other => WireMsg::Error {
            detail: format!("coordinator cannot serve {other:?}"),
        },
    }
}

/// One reply frame sitting (possibly partially) in a connection's write
/// queue, tracked by its end offset in the connection's cumulative output
/// stream so completion can be detected after any number of partial writes.
struct PendingSend {
    /// Cumulative stream offset at which this frame ends.
    end: u64,
    /// Decode instant of the request this answers (`None` for listener-
    /// originated error frames, which have no request latency).
    started: Option<Instant>,
    /// Frame size on the wire.
    bytes: usize,
}

/// Which language a connection currently speaks — the pre-protocol state
/// machine of the authenticated channel. Plaintext-policy listeners never
/// leave [`ConnPhase::Plaintext`]; `Required` listeners walk
/// `Handshake → Established` and refuse everything off-phase.
enum ConnPhase {
    /// Ordinary protocol frames (`DBH1`/`DBH2`/`DBHZ`), no channel.
    Plaintext,
    /// Pre-protocol: nothing but `DBHS` handshake frames is accepted.
    Handshake(ServerHandshake),
    /// Mutually authenticated: nothing but `DBHE` sealed frames is.
    Established(dubhe_select::protocol::channel::SecureChannel),
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    /// Channel phase; see [`ConnPhase`].
    phase: ConnPhase,
    /// The peer's authenticated identity once the handshake completes.
    peer: Option<[u8; 32]>,
    /// Encoded-but-unwritten reply bytes; `out[out_pos..]` is pending.
    out: Vec<u8>,
    out_pos: usize,
    /// Cumulative bytes ever queued / ever flushed to the socket.
    queued_total: u64,
    sent_total: u64,
    pending_sends: VecDeque<PendingSend>,
    /// Codec of the most recent decoded frame; error frames sent before any
    /// frame decoded default to DBH1.
    codec: CodecKind,
    /// Set while an incomplete frame sits in `frames`; pushed forward on
    /// every byte of progress, enforced by the sweep in the event loop.
    frame_deadline: Option<Instant>,
    /// Flush what is queued, then close (shutdown frames, decode errors).
    closing: bool,
    /// Whether the current registration includes WRITABLE.
    wants_write: bool,
}

/// Best-effort courtesy notice before a hangup the peer did not ask for: one
/// nonblocking write of a typed error frame, sealed on an established
/// channel (the peer only accepts sealed frames there). Skipped when the
/// connection is already closing or has replies queued, so it can never
/// split a frame already on its way out.
fn send_notice(conn: &mut Conn, detail: String, max_frame_bytes: usize) {
    if conn.closing || conn.out_pos != conn.out.len() {
        return;
    }
    let notice = WireMsg::Error { detail };
    let mut buf = Vec::new();
    if write_frame_limited(&mut buf, &notice, conn.codec, max_frame_bytes).is_ok() {
        let bytes = match &mut conn.phase {
            ConnPhase::Established(channel) => channel.seal_frame(&buf),
            _ => buf,
        };
        let _ = conn.stream.write(&bytes);
    }
}

/// Why the event loop dropped a connection — decides which failure counter
/// the close records.
enum CloseReason {
    /// Clean close or shutdown frame: no failure to count.
    Clean,
    /// Peer vanished or stalled mid-frame.
    Truncated,
    /// Write queue crossed the high-water mark.
    Backpressure,
}

struct EventLoop {
    poll: Poll,
    registry: Registry,
    events: Events,
    listeners: Vec<TcpListener>,
    waker: Arc<Waker>,
    waker_token: usize,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    job_tx: mpsc::Sender<Job>,
    reply_rx: mpsc::Receiver<Reply>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ListenerMetrics>,
    /// The resolved server identity under a `Required` channel policy;
    /// every accepted connection handshakes against a clone of it.
    identity: Option<NodeIdentity>,
    config: ReactorConfig,
}

impl EventLoop {
    fn run(&mut self) {
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = self.next_timeout();
            if let Err(e) = self.poll.poll(&mut self.events, Some(timeout)) {
                eprintln!("reactor listener: poll failed, shutting down: {e}");
                break;
            }
            // Events are copied out so handlers can borrow `self` freely.
            let batch: Vec<mini_mio::Event> = self.events.iter().copied().collect();
            for event in batch {
                let token = event.token().0;
                if token < self.listeners.len() {
                    self.accept_all(token);
                } else if token == self.waker_token {
                    self.waker.drain();
                    self.drain_replies();
                } else {
                    if event.is_readable() || event.is_hup() || event.is_error() {
                        self.handle_read(token);
                    }
                    if event.is_writable() {
                        self.handle_write(token);
                    }
                }
            }
            // Replies may have landed while the loop was busy with sockets;
            // drain opportunistically rather than waiting for the next ring.
            self.drain_replies();
            self.sweep_stalled();
        }
        // Count every still-open connection as closed so a final stats
        // snapshot balances.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token, CloseReason::Clean);
        }
    }

    /// Sleep until the nearest mid-frame deadline, else the idle backstop.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        self.conns
            .values()
            .filter_map(|c| c.frame_deadline)
            .map(|d| {
                d.saturating_duration_since(now)
                    .max(Duration::from_millis(1))
            })
            .min()
            .unwrap_or(IDLE_POLL_BACKSTOP)
            .min(IDLE_POLL_BACKSTOP)
    }

    fn accept_all(&mut self, listener_idx: usize) {
        loop {
            match self.listeners[listener_idx].accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if let Err(e) =
                        self.registry
                            .register(&stream, Token(token), Interest::READABLE)
                    {
                        eprintln!("reactor listener: register failed, refusing connection: {e}");
                        continue;
                    }
                    // Under a `Required` policy the connection starts in the
                    // handshake phase with the whole prelude under the read
                    // timeout — a peer that connects and then trickles or
                    // stays silent (handshake slow-loris) is swept, never
                    // parked.
                    let (phase, frame_deadline) = match &self.identity {
                        Some(id) => (
                            ConnPhase::Handshake(ServerHandshake::new(id.clone())),
                            Some(Instant::now() + self.config.read_timeout),
                        ),
                        None => (ConnPhase::Plaintext, None),
                    };
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            frames: FrameBuffer::new(),
                            phase,
                            peer: None,
                            out: Vec::new(),
                            out_pos: 0,
                            queued_total: 0,
                            sent_total: 0,
                            pending_sends: VecDeque::new(),
                            codec: CodecKind::Json,
                            frame_deadline,
                            closing: false,
                            wants_write: false,
                        },
                    );
                    self.metrics.connection_opened();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("coordinator listener: accept failed, continuing: {e}");
                    break;
                }
            }
        }
    }

    fn handle_read(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        let mut budget = READ_BUDGET;
        let mut eof = false;
        let mut progressed = false;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.frames.extend(&chunk[..n]);
                    progressed = true;
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        break; // level-triggered poll re-reports the rest
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        self.parse_frames(token, progressed);
        if eof {
            let reason = match self.conns.get_mut(&token) {
                Some(conn) if conn.frames.is_mid_frame() => {
                    // A hangup mid-frame may be a half-close: the peer can
                    // still read why its frame was refused.
                    let context = if conn.frames.pending_bytes() < HEADER_BYTES {
                        "header"
                    } else {
                        "payload"
                    };
                    let detail = ProtocolError::TruncatedFrame { context }.to_string();
                    send_notice(conn, detail, self.config.max_frame_bytes);
                    CloseReason::Truncated
                }
                _ => CloseReason::Clean,
            };
            self.close_conn(token, reason);
        }
    }

    /// Pulls every complete frame out of a connection's buffer and ships it
    /// to the router; maintains the mid-frame stall deadline. Dispatches on
    /// the connection's channel phase: plaintext connections pull protocol
    /// frames directly, handshake-phase connections feed the server
    /// handshake state machine, established connections unseal `DBHE`
    /// frames first — each phase refusing the other phases' traffic with a
    /// typed error.
    fn parse_frames(&mut self, token: usize, progressed: bool) {
        loop {
            let again = match self.conns.get_mut(&token) {
                None => return,
                Some(conn) if conn.closing => return,
                Some(conn) => match conn.phase {
                    ConnPhase::Plaintext => self.step_plaintext(token, progressed),
                    ConnPhase::Handshake(_) => self.step_handshake(token, progressed),
                    ConnPhase::Established(_) => self.step_established(token, progressed),
                },
            };
            if !again {
                return;
            }
        }
    }

    /// One plaintext-phase pull: protocol frames straight off the buffer.
    fn step_plaintext(&mut self, token: usize, progressed: bool) -> bool {
        let max = self.config.max_frame_bytes;
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        match conn.frames.next_frame_lazy(max) {
            Ok(Some((LazyMsg::Eager(WireMsg::Shutdown), bytes, _))) => {
                self.metrics.frame_received(bytes);
                conn.closing = true;
                if conn.out.len() == conn.out_pos {
                    self.close_conn(token, CloseReason::Clean);
                }
                false
            }
            Ok(Some((msg, bytes, codec))) => {
                self.metrics.frame_received(bytes);
                conn.codec = codec;
                let identity = conn.peer;
                if self
                    .job_tx
                    .send(Job {
                        token,
                        msg,
                        codec,
                        identity,
                        started: Instant::now(),
                    })
                    .is_err()
                {
                    // Router gone: the listener is shutting down.
                    self.close_conn(token, CloseReason::Clean);
                    return false;
                }
                true
            }
            Ok(None) => {
                self.update_deadline(token, progressed);
                false
            }
            Err(e) => {
                // Framing is lost: report in the last good codec, flush,
                // hang up.
                self.metrics.decode_error();
                let codec = conn.codec;
                conn.closing = true;
                conn.frame_deadline = None;
                self.queue_frame(
                    token,
                    &WireMsg::Error {
                        detail: e.to_string(),
                    },
                    codec,
                    None,
                );
                false
            }
        }
    }

    /// One handshake-phase pull: nothing but `DBHS` frames is legal.
    /// Plaintext protocol frames are refused as downgrade attempts, sealed
    /// frames as out-of-phase; the M2 reply rides the ordinary write queue.
    fn step_handshake(&mut self, token: usize, progressed: bool) -> bool {
        let max = self.config.max_frame_bytes;
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        match conn.frames.next_channel_frame(max) {
            Ok(Some((ChannelFrame::Handshake(payload), _))) => {
                let ConnPhase::Handshake(hs) = &mut conn.phase else {
                    return false;
                };
                match hs.on_payload(&payload) {
                    Ok(step) => {
                        if let Some(channel) = step.established {
                            conn.peer = Some(channel.peer_identity());
                            conn.phase = ConnPhase::Established(channel);
                            conn.frame_deadline = None;
                            self.metrics.handshake_completed();
                        }
                        if let Some(reply) = step.reply {
                            self.queue_bytes(token, &reply);
                        }
                        true
                    }
                    Err(e) => {
                        self.fail_handshake(token, &e);
                        false
                    }
                }
            }
            Ok(Some((ChannelFrame::Plaintext { frame, .. }, _))) => {
                self.metrics.downgrade_refused();
                let e = ProtocolError::DowngradeRefused {
                    magic: frame[..4].try_into().expect("4-byte magic"),
                };
                self.fail_handshake(token, &e);
                false
            }
            Ok(Some((ChannelFrame::Sealed(_), _))) => {
                let e = ProtocolError::AuthFailure {
                    detail: "sealed frame before the handshake finished".to_string(),
                };
                self.fail_handshake(token, &e);
                false
            }
            Ok(None) => {
                self.update_deadline(token, progressed);
                false
            }
            Err(e) => {
                self.fail_handshake(token, &e);
                false
            }
        }
    }

    /// One established-phase pull: unseal a `DBHE` frame, parse exactly one
    /// inner protocol frame out of it, ship it to the router. Tampered or
    /// replayed seals, plaintext downgrades and stray handshake frames all
    /// earn typed errors sealed back to the peer (the send direction
    /// survives a receive failure), then a hangup.
    fn step_established(&mut self, token: usize, progressed: bool) -> bool {
        let max = self.config.max_frame_bytes;
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        match conn.frames.next_channel_frame(max) {
            Ok(Some((ChannelFrame::Sealed(payload), wire_bytes))) => {
                let ConnPhase::Established(channel) = &mut conn.phase else {
                    return false;
                };
                let inner = match channel.open_payload(&payload) {
                    Ok(inner) => inner,
                    Err(e) => {
                        // Tampered ciphertext or replayed/reordered
                        // sequence: the receive direction is dead, the
                        // connection with it.
                        self.metrics.aead_rejection();
                        self.fail_established(token, &e);
                        return false;
                    }
                };
                match read_frame_lazy(&mut &inner[..], max) {
                    Ok((LazyMsg::Eager(WireMsg::Shutdown), _, _)) => {
                        self.metrics.frame_received(wire_bytes);
                        conn.closing = true;
                        if conn.out.len() == conn.out_pos {
                            self.close_conn(token, CloseReason::Clean);
                        }
                        false
                    }
                    Ok((msg, _, codec)) => {
                        self.metrics.frame_received(wire_bytes);
                        conn.codec = codec;
                        let identity = conn.peer;
                        if self
                            .job_tx
                            .send(Job {
                                token,
                                msg,
                                codec,
                                identity,
                                started: Instant::now(),
                            })
                            .is_err()
                        {
                            self.close_conn(token, CloseReason::Clean);
                            return false;
                        }
                        true
                    }
                    Err(e) => {
                        self.metrics.decode_error();
                        self.fail_established(token, &e);
                        false
                    }
                }
            }
            Ok(Some((ChannelFrame::Plaintext { frame, .. }, _))) => {
                // A plaintext protocol frame mid-session is a downgrade
                // attempt (or an unauthenticated splice); refused.
                self.metrics.downgrade_refused();
                let e = ProtocolError::DowngradeRefused {
                    magic: frame[..4].try_into().expect("4-byte magic"),
                };
                self.fail_established(token, &e);
                false
            }
            Ok(Some((ChannelFrame::Handshake(_), _))) => {
                self.metrics.decode_error();
                let e = ProtocolError::AuthFailure {
                    detail: "handshake frame after the channel was established".to_string(),
                };
                self.fail_established(token, &e);
                false
            }
            Ok(None) => {
                self.update_deadline(token, progressed);
                false
            }
            Err(e) => {
                match e {
                    ProtocolError::TruncatedFrame { .. } | ProtocolError::Io { .. } => {
                        self.metrics.truncated_frame()
                    }
                    _ => self.metrics.decode_error(),
                }
                self.fail_established(token, &e);
                false
            }
        }
    }

    /// Maintains the stall deadline after a pull came up short. A
    /// handshake-phase connection keeps a deadline even with an empty
    /// buffer — the whole prelude runs under the read timeout.
    fn update_deadline(&mut self, token: usize, progressed: bool) {
        let read_timeout = self.config.read_timeout;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.frames.is_mid_frame() || matches!(conn.phase, ConnPhase::Handshake(_)) {
            if progressed || conn.frame_deadline.is_none() {
                conn.frame_deadline = Some(Instant::now() + read_timeout);
            }
        } else {
            conn.frame_deadline = None;
        }
    }

    /// Terminal handshake failure: count it, tell the peer in plaintext
    /// (there is no channel to seal with — refusals go back in the
    /// attempted codec when there was one, lowest-common DBH1 otherwise),
    /// hang up once the reply drains.
    fn fail_handshake(&mut self, token: usize, e: &ProtocolError) {
        self.metrics.handshake_failed();
        let reply_codec = match e {
            ProtocolError::DowngradeRefused { magic } => {
                CodecKind::from_magic(*magic).unwrap_or(CodecKind::Json)
            }
            _ => CodecKind::Json,
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Leave the handshake phase so the close does not count the failure
        // a second time.
        conn.phase = ConnPhase::Plaintext;
        conn.closing = true;
        conn.frame_deadline = None;
        conn.codec = reply_codec;
        self.queue_frame(
            token,
            &WireMsg::Error {
                detail: e.to_string(),
            },
            reply_codec,
            None,
        );
    }

    /// Terminal failure on an established channel: the typed error is
    /// sealed back (via the ordinary write queue, which seals in this
    /// phase), then the connection closes once it drains.
    fn fail_established(&mut self, token: usize, e: &ProtocolError) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.closing = true;
        conn.frame_deadline = None;
        let codec = conn.codec;
        self.queue_frame(
            token,
            &WireMsg::Error {
                detail: e.to_string(),
            },
            codec,
            None,
        );
    }

    /// Appends pre-encoded bytes (handshake replies) to a connection's
    /// write queue. They advance the cumulative offsets but carry no
    /// [`PendingSend`] entry: handshake traffic is not a protocol frame and
    /// is not counted as one.
    fn queue_bytes(&mut self, token: usize, bytes: &[u8]) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.out.extend_from_slice(bytes);
        conn.queued_total += bytes.len() as u64;
        self.flush_conn(token);
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let queued = conn.out.len() - conn.out_pos;
        self.metrics.write_queue_depth(queued);
        if queued > self.config.high_water {
            let err = ProtocolError::Backpressure {
                queued,
                high_water: self.config.high_water,
            };
            eprintln!("reactor listener: {err}");
            self.close_conn(token, CloseReason::Backpressure);
        }
    }

    /// Encodes a frame into a connection's write queue, flushes what the
    /// socket will take, and enforces the high-water mark. On an
    /// established channel the encoded frame is sealed into a `DBHE` frame
    /// first; metrics count the sealed bytes.
    fn queue_frame(
        &mut self,
        token: usize,
        msg: &WireMsg,
        codec: CodecKind,
        started: Option<Instant>,
    ) {
        let max = self.config.max_frame_bytes;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let written = if let ConnPhase::Established(channel) = &mut conn.phase {
            let mut inner = Vec::new();
            write_frame_limited(&mut inner, msg, codec, max).map(|_| {
                let sealed = channel.seal_frame(&inner);
                conn.out.extend_from_slice(&sealed);
                sealed.len()
            })
        } else {
            write_frame_limited(&mut conn.out, msg, codec, max)
        };
        match written {
            Ok(written) => {
                conn.queued_total += written as u64;
                conn.pending_sends.push_back(PendingSend {
                    end: conn.queued_total,
                    started,
                    bytes: written,
                });
            }
            Err(e) => {
                // An unencodable reply is a server-side bug surfaced safely:
                // drop the connection rather than desync its framing.
                eprintln!("reactor listener: failed to encode reply, closing connection: {e}");
                self.close_conn(token, CloseReason::Clean);
                return;
            }
        }
        self.flush_conn(token);
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let queued = conn.out.len() - conn.out_pos;
        self.metrics.write_queue_depth(queued);
        if queued > self.config.high_water {
            let err = ProtocolError::Backpressure {
                queued,
                high_water: self.config.high_water,
            };
            eprintln!("reactor listener: {err}");
            self.close_conn(token, CloseReason::Backpressure);
        }
    }

    fn handle_write(&mut self, token: usize) {
        self.flush_conn(token);
    }

    /// Writes as much queued output as the socket accepts, records completed
    /// frames, keeps WRITABLE interest only while bytes remain, and finishes
    /// a pending close once the queue drains.
    fn flush_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            let pending = &conn.out[conn.out_pos..];
            if pending.is_empty() {
                break;
            }
            match conn.stream.write(pending) {
                Ok(0) => break,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.sent_total += n as u64;
                    while conn
                        .pending_sends
                        .front()
                        .is_some_and(|p| p.end <= conn.sent_total)
                    {
                        let done = conn.pending_sends.pop_front().expect("front checked");
                        self.metrics.frame_sent(done.bytes);
                        if let Some(started) = done.started {
                            self.metrics.record_latency(started.elapsed());
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token, CloseReason::Truncated);
                    return;
                }
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > 64 * 1024 {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        let drained = conn.out.is_empty();
        if drained && conn.closing {
            self.close_conn(token, CloseReason::Clean);
            return;
        }
        self.set_write_interest(token, !drained);
    }

    fn set_write_interest(&mut self, token: usize, want_write: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.wants_write == want_write {
            return;
        }
        let interest = if want_write {
            Interest::BOTH
        } else {
            Interest::READABLE
        };
        if self
            .registry
            .reregister(&conn.stream, Token(token), interest)
            .is_ok()
        {
            conn.wants_write = want_write;
        }
    }

    fn drain_replies(&mut self) {
        while let Ok(reply) = self.reply_rx.try_recv() {
            // The connection may have died while its request was at the
            // router; its reply is simply dropped.
            if self.conns.contains_key(&reply.token) {
                self.queue_frame(reply.token, &reply.msg, reply.codec, Some(reply.started));
            }
        }
    }

    /// Cuts connections that stalled mid-frame past the read timeout,
    /// telling the peer why first.
    fn sweep_stalled(&mut self) {
        let now = Instant::now();
        let stalled: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.frame_deadline.is_some_and(|d| d <= now))
            .map(|(t, _)| *t)
            .collect();
        for token in stalled {
            if let Some(conn) = self.conns.get_mut(&token) {
                let detail = if matches!(conn.phase, ConnPhase::Handshake(_)) {
                    format!(
                        "handshake stalled past the {:?} read timeout",
                        self.config.read_timeout
                    )
                } else {
                    format!(
                        "transport I/O failed while trying to read frame: \
                         stalled mid-frame past the {:?} read timeout",
                        self.config.read_timeout
                    )
                };
                send_notice(conn, detail, self.config.max_frame_bytes);
            }
            self.close_conn(token, CloseReason::Truncated);
        }
    }

    fn close_conn(&mut self, token: usize, reason: CloseReason) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.registry.deregister(&conn.stream);
        // A connection that dies before mutual authentication completes is
        // a failed handshake, whatever killed it.
        if matches!(conn.phase, ConnPhase::Handshake(_)) {
            self.metrics.handshake_failed();
        }
        match reason {
            CloseReason::Clean => {}
            CloseReason::Truncated => self.metrics.truncated_frame(),
            CloseReason::Backpressure => self.metrics.backpressure_disconnect(),
        }
        self.metrics.connection_closed();
    }
}
