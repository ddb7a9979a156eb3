//! # dubhe-net — the coordinator's network layer
//!
//! A selection epoch at production scale means 10⁴–10⁵ *mostly idle*
//! persistent client connections — far beyond what a thread per socket can
//! carry. This crate serves them all from one event-loop thread
//! multiplexing every connection through a readiness poller ([`mini_mio`],
//! the vendored epoll/poll(2) stand-in), with protocol work routed to the
//! coordinator on a separate router thread.
//!
//! * [`ReactorListener`] — the server: non-blocking accept, per-connection
//!   incremental DBH1/DBH2 frame reassembly, the optional authenticated
//!   channel, bounded write queues with `WouldBlock`-driven flow control
//!   and a typed
//!   [`Backpressure`](dubhe_select::ProtocolError::Backpressure) disconnect
//!   past the high-water mark, and a [`ListenerStats`] snapshot for
//!   benches and simulations.
//! * [`MuxClient`] — the load-generation side: many persistent client
//!   connections multiplexed through the same poller from a single thread,
//!   used by `dubhe-bench`'s `load_gen` to drive 10⁴+ concurrent clients.
//!
//! Wire format, codec negotiation, message types and coordinator semantics
//! all come from `dubhe-select`; this crate only decides *how sockets are
//! waited on*, which is why the ledgers it produces are bit-identical to the
//! in-memory transport (the running folds are commutative, so arrival order
//! cannot matter).
//!
//! ## Example: a Dubhe exchange over loopback TCP
//!
//! `dubhe-select`'s [`TcpTransport`] fills the same driver slot as an
//! in-process coordinator; here it talks to a sharded coordinator served by
//! the listener across real sockets — length-prefixed frames, typed errors
//! on every failure mode:
//!
//! ```
//! use dubhe_data::federated::{DatasetFamily, FederatedSpec};
//! use dubhe_net::ReactorListener;
//! use dubhe_select::protocol::{
//!     run_registration_with, InMemoryTransport, ShardedCoordinator, TcpTransport,
//! };
//! use dubhe_select::DubheConfig;
//! use rand::SeedableRng;
//!
//! let spec = FederatedSpec {
//!     family: DatasetFamily::MnistLike,
//!     rho: 10.0,
//!     emd_avg: 1.5,
//!     clients: 24,
//!     samples_per_client: 50,
//!     test_samples_per_class: 1,
//!     seed: 5,
//! };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let dists = spec.build_partition(&mut rng).client_distributions();
//!
//! // Server side: a sharded coordinator behind an ephemeral loopback port.
//! let listener = ReactorListener::spawn(ShardedCoordinator::new(24, 4)).unwrap();
//! // Client side: the connector fills the same coordinator slot.
//! let endpoint = TcpTransport::connect(listener.addr()).unwrap();
//!
//! let mut transport = InMemoryTransport::new();
//! let run = run_registration_with(
//!     &dists,
//!     &DubheConfig::group1(),
//!     dubhe_he::TEST_KEY_BITS,
//!     endpoint,
//!     &mut transport,
//!     &mut rng,
//! )
//! .unwrap();
//! assert_eq!(run.overall_registry().iter().sum::<u64>(), 24);
//! // Real frames crossed the socket.
//! assert!(run.server.wire_stats().total_bytes() > 0);
//! run.server.shutdown().unwrap();
//! ```
//!
//! [`TcpTransport`]: dubhe_select::protocol::TcpTransport
//! [`ListenerStats`]: dubhe_select::protocol::stats::ListenerStats

pub mod frames;
pub mod mux;
pub mod reactor;

pub use frames::FrameBuffer;
pub use mux::{MuxClient, MuxConfig};
pub use reactor::{ReactorConfig, ReactorListener};
