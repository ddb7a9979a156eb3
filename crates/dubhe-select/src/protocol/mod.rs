//! # The role-separated Dubhe protocol
//!
//! This module makes the paper's threat model a *structural* property: who
//! can see which message is decided by which role type holds which fields,
//! not by the discipline of a monolithic function. Three actors exchange
//! typed [`ProtocolMsg`]s over a [`Transport`]:
//!
//! * [`AgentNode`] — the randomly chosen agent client. Owns the epoch
//!   [`Keypair`](dubhe_he::Keypair), decrypts the per-try sums, evaluates
//!   the L1 try-test and issues the verdict.
//! * [`SelectClientNode`] — an ordinary client. Receives the keypair, fills
//!   and encrypts its registry (Algorithm 1), decrypts the broadcast total
//!   and computes its own participation probability (Eq. 6).
//! * [`CoordinatorServer`] — the honest-but-curious coordinator. Holds only
//!   the [`PublicKey`](dubhe_he::PublicKey) and running ciphertext folds;
//!   its struct has no field that could store a private key or a plaintext
//!   distribution, and it refuses a key dispatch that carries one.
//!
//! ## Message ↔ paper mapping
//!
//! | [`ProtocolMsg`] variant | Paper step | Link |
//! |---|---|---|
//! | [`PublicKeyDispatch`] | Fig. 4 step 1 — agent generates and dispatches the epoch key | agent → clients (keypair), agent → server (public key only) |
//! | [`EncryptedRegistry`] | Fig. 4 step 2 — each client uploads `Enc(R^(t,k))` | client → server |
//! | [`EncryptedTotalBroadcast`] | Fig. 4 step 3 — server adds registries blindly, broadcasts `Enc(R_A)` | server → clients, agent |
//! | [`EncryptedDistribution`] | §5.3.1 — tentatively selected client uploads `Enc(p_l)` for try `h` | client → server |
//! | [`EncryptedDistributionSum`] | §5.3.1 — server forwards `Enc(Σ p_l)` of try `h` | server → agent |
//! | [`TryVerdict`] | §5.3.1 — agent announces `h* = argmin_h ‖p_o,h − p_u‖₁` | agent → server |
//!
//! When a [`PackingPolicy`] is installed (BatchCrypt-style slot packing, the
//! paper's §6.4 overhead lever), the four ciphertext-bearing messages travel
//! as their `Packed*` twins — [`PackedRegistry`], [`PackedTotalBroadcast`],
//! [`PackedDistribution`], [`PackedDistributionSum`] — same paper steps,
//! same [`MsgKind`]s (so per-kind metering compares packed and unpacked runs
//! link-for-link), with many counters per Paillier plaintext. The policy's
//! [`HeadroomModel`](dubhe_he::HeadroomModel) proves `max_clients ·
//! max_counter < 2^slot_bits` before any ciphertext exists and refuses
//! over-budget folds at runtime with typed errors.
//!
//! Fig. 4 step 4 (clients decrypt the total and compute Eq. 6 locally)
//! produces no wire message: it happens inside [`SelectClientNode`] when the
//! broadcast arrives.
//!
//! Every message knows its canonical wire size through `dubhe-he`'s
//! transport model ([`ProtocolMsg::wire_bytes`]), and the in-memory
//! transport meters every link per message kind ([`TransportStats`]) — the
//! numbers the §6.4 overhead study reports and the FL ledger charges.
//!
//! ## Drivers and deployment shapes
//!
//! [`run_registration`] and [`run_try`] sequence the exchanges
//! deterministically; [`crate::secure`] keeps the historical free-function
//! API as thin wrappers over them (same signatures, bit-identical results on
//! the same seed), and `dubhe-fl`'s simulator drives the same actors
//! end-to-end when its encrypted mode is enabled.
//!
//! The drivers are generic over the [`Coordinator`] slot, which is what lets
//! one exchange run against three server shapes without the agent or client
//! roles changing a line:
//!
//! * [`CoordinatorServer`] — the single in-process fold;
//! * [`ShardedCoordinator`] — registry positions partitioned across N shard
//!   folds that advance rayon-parallel and merge into a bit-identical total;
//! * [`TcpTransport`] → `dubhe-net`'s `ReactorListener` — the same messages
//!   as length-prefixed frames (see [`wire`]) over real loopback sockets,
//!   served by one event-loop thread in front of a router thread that alone
//!   owns the coordinator. The frame payload codec is pluggable (see
//!   [`codec`]): `DBH1` JSON for compatibility, `DBH2` canonical binary for
//!   wire traffic within 1.10× of the paper's communication model,
//!   negotiated per connection from the frame magic.
//!
//! `docs/ARCHITECTURE.md` draws the full picture; `docs/THREAT_MODEL.md`
//! explains why all three shapes uphold the same structural guarantee.
//!
//! [`PublicKeyDispatch`]: ProtocolMsg::PublicKeyDispatch
//! [`EncryptedRegistry`]: ProtocolMsg::EncryptedRegistry
//! [`EncryptedTotalBroadcast`]: ProtocolMsg::EncryptedTotalBroadcast
//! [`EncryptedDistribution`]: ProtocolMsg::EncryptedDistribution
//! [`EncryptedDistributionSum`]: ProtocolMsg::EncryptedDistributionSum
//! [`TryVerdict`]: ProtocolMsg::TryVerdict
//! [`PackedRegistry`]: ProtocolMsg::PackedRegistry
//! [`PackedTotalBroadcast`]: ProtocolMsg::PackedTotalBroadcast
//! [`PackedDistribution`]: ProtocolMsg::PackedDistribution
//! [`PackedDistributionSum`]: ProtocolMsg::PackedDistributionSum

pub mod channel;
pub mod codec;
pub mod compress;
pub mod driver;
pub mod fault;
pub mod message;
pub mod packing;
pub mod roles;
pub mod shard;
pub mod stats;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use channel::{
    client_handshake, read_channel_frame, secret_bytes_from_seed, ChannelFrame, ChannelPolicy,
    NodeIdentity, RetrySchedule, SecureChannel, ServerHandshake, FRAME_MAGIC_HANDSHAKE,
    FRAME_MAGIC_SEALED, HANDSHAKE_WIRE_BYTES, SEALED_FRAME_OVERHEAD,
};
pub use codec::{BinaryCodec, CodecKind, CompressedJsonCodec, JsonCodec, RegistryFrame, WireCodec};
pub use driver::{
    pump, run_registration, run_registration_with, run_registration_with_packing, run_try,
    run_try_with_dropouts, RegistrationRun,
};
pub use fault::{Fault, FaultPlan, FaultStats, FaultyTransport};
pub use message::{Envelope, MsgKind, Party, ProtocolMsg};
pub use packing::PackingPolicy;
pub use roles::{AgentNode, CohortOutcome, Coordinator, CoordinatorServer, SelectClientNode};
pub use shard::{shard_ranges, ShardedCoordinator};
pub use stats::{LatencyHistogram, LatencySummary, ListenerMetrics, ListenerStats};
pub use tcp::{TcpConfig, TcpTransport, WireStats, DEFAULT_READ_TIMEOUT};
pub use transport::{InMemoryTransport, LinkStats, Transport, TransportStats};
pub use wire::{
    read_frame, read_frame_lazy, read_frame_limited, read_frame_negotiated, write_frame,
    write_frame_limited, write_frame_with, LazyMsg, WireMsg, FRAME_MAGIC, FRAME_MAGIC_V2,
    MAX_FRAME_BYTES,
};
