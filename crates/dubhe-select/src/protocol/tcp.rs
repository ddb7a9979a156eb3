//! The client side of the networked transport: framed TCP sockets from a
//! driver to the coordinator.
//!
//! [`TcpTransport`] plugs into the same driver slot as a local
//! [`CoordinatorServer`](super::roles::CoordinatorServer) (the
//! [`Coordinator`] trait), so `AgentNode` and `SelectClientNode` drive the
//! *identical* [`ProtocolMsg`](super::message::ProtocolMsg) exchange whether
//! the coordinator is an in-process struct or a process across the network.
//! Every server-bound envelope becomes one framed request; the coordinator's
//! reply batch is returned to the driver for local delivery. The connector
//! is std-only (no async runtime — the build environment is offline, and
//! `std::net` is all one connection needs).
//!
//! The server side is `dubhe-net`'s `ReactorListener`: one event-loop
//! thread multiplexing every connection, one router thread owning the
//! coordinator state.
//!
//! Robustness contract (pinned by tests): a malformed, truncated or
//! oversized frame, a mid-exchange disconnect, or a silent peer all surface
//! as [`ProtocolError`] — never a panic, never an unbounded hang. Every read
//! of a reply is bounded by [`TcpConfig::read_timeout`].

use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use super::channel::{
    client_handshake, read_channel_frame, secret_bytes_from_seed, ChannelFrame, ChannelPolicy,
    NodeIdentity, RetrySchedule, SecureChannel, HANDSHAKE_WIRE_BYTES,
};
use super::codec::CodecKind;
use super::message::Envelope;
use super::roles::Coordinator;
use super::transport::TransportStats;
use super::wire::{read_frame_limited, write_frame_limited, WireMsg, MAX_FRAME_BYTES};
use crate::error::ProtocolError;
use crate::selector::ClientId;

/// Default per-read timeout on protocol sockets. Long enough for a 2048-bit
/// registration epoch on a loaded machine, short enough that a wedged peer
/// cannot hang a driver forever.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket knobs for the client-side connector, builder-style.
///
/// Defaults: [`DEFAULT_READ_TIMEOUT`] (30 s) per read, the global
/// [`MAX_FRAME_BYTES`] (64 MiB) frame ceiling in both directions, and the
/// compatibility [`CodecKind::Json`] payload codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Per-read socket timeout (applies to every read of a reply frame).
    pub read_timeout: Duration,
    /// Largest frame payload accepted *or produced* on this socket.
    pub max_frame_bytes: usize,
    /// Payload codec requests are framed in (replies negotiate per frame).
    pub codec: CodecKind,
    /// Whether to run the authenticated channel handshake after connecting
    /// and seal every frame (default: [`ChannelPolicy::Plaintext`]).
    pub channel: ChannelPolicy,
    /// Static-secret bytes of this endpoint's long-term channel identity.
    /// `None` generates a fresh identity per connect — fine for anonymous
    /// clients, but a reconnecting client that wants its cohort slot back
    /// must present the *same* identity, so persistent clients set this.
    pub identity: Option<[u8; 32]>,
    /// Pinned server public identity: the handshake refuses any server
    /// whose static key differs. `None` trusts first use.
    pub expected_server: Option<[u8; 32]>,
    /// Total connect (+ handshake) attempts, ≥ 1. With the default of 1 a
    /// failure surfaces raw; with more, transient failures are retried
    /// under bounded exponential backoff and exhaustion surfaces
    /// [`ProtocolError::RetriesExhausted`].
    pub connect_attempts: usize,
    /// Base backoff delay between attempts (attempt `i` waits
    /// `retry_base · 2^i` plus jitter).
    pub retry_base: Duration,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            read_timeout: DEFAULT_READ_TIMEOUT,
            max_frame_bytes: MAX_FRAME_BYTES,
            codec: CodecKind::Json,
            channel: ChannelPolicy::Plaintext,
            identity: None,
            expected_server: None,
            connect_attempts: 1,
            retry_base: Duration::from_millis(25),
            retry_seed: 0,
        }
    }
}

impl TcpConfig {
    /// Replaces the per-read timeout.
    pub fn with_read_timeout(mut self, read_timeout: Duration) -> Self {
        self.read_timeout = read_timeout;
        self
    }

    /// Replaces the frame-payload ceiling (both directions).
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.max_frame_bytes = max_frame_bytes;
        self
    }

    /// Replaces the request payload codec.
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// Replaces the channel policy.
    pub fn with_channel(mut self, channel: ChannelPolicy) -> Self {
        self.channel = channel;
        self
    }

    /// Installs a deterministic long-term identity derived from `seed`
    /// (what tests and simulations use so reconnects present the same key).
    pub fn with_identity_seed(mut self, seed: u64) -> Self {
        self.identity = Some(secret_bytes_from_seed(seed));
        self
    }

    /// Installs explicit identity static-secret bytes.
    pub fn with_identity_bytes(mut self, bytes: [u8; 32]) -> Self {
        self.identity = Some(bytes);
        self
    }

    /// Pins the server's public identity.
    pub fn with_expected_server(mut self, public: [u8; 32]) -> Self {
        self.expected_server = Some(public);
        self
    }

    /// Enables bounded-backoff retries: `attempts` total tries with
    /// `retry_base` initial delay.
    pub fn with_retries(mut self, attempts: usize, retry_base: Duration) -> Self {
        self.connect_attempts = attempts.max(1);
        self.retry_base = retry_base;
        self
    }

    /// Replaces the backoff jitter seed.
    pub fn with_retry_seed(mut self, seed: u64) -> Self {
        self.retry_seed = seed;
        self
    }
}

/// Real bytes and frames observed on one socket (header + payload, both
/// directions). This is what a deployment actually pays on the wire —
/// framing and payload encoding included — as opposed to the canonical
/// ciphertext accounting of [`TransportStats`], which prices messages at
/// their fixed-width transport model for like-for-like comparison with the
/// paper. Under the `DBH2` binary codec the two converge to within a few
/// percent; under `DBH1` JSON the wire pays ~2.5× the canonical bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Frames written to the socket.
    pub frames_sent: usize,
    /// Frames read from the socket.
    pub frames_received: usize,
    /// Bytes written (headers + payloads).
    pub bytes_sent: usize,
    /// Bytes read (headers + payloads).
    pub bytes_received: usize,
    /// Bytes the channel handshake(s) put on the wire, both directions.
    /// Metered apart from the frame counters so the protocol ledger stays
    /// bit-identical with the channel on or off.
    pub handshake_bytes: usize,
    /// Extra bytes sealing added on top of the inner plaintext frames
    /// ([`SEALED_FRAME_OVERHEAD`](super::channel::SEALED_FRAME_OVERHEAD)
    /// per frame, both directions). Same separation rationale as
    /// `handshake_bytes`.
    pub sealed_overhead_bytes: usize,
    /// Successful [`TcpTransport::reconnect`] cycles on this connector.
    pub reconnects: usize,
}

impl WireStats {
    /// Total *protocol* bytes that crossed the socket in either direction —
    /// inner frame bytes only, by design: this feeds the FL ledger's
    /// communication accounting, which must not move when the channel turns
    /// on. The channel's own cost is [`WireStats::channel_overhead_bytes`].
    pub fn total_bytes(&self) -> usize {
        self.bytes_sent + self.bytes_received
    }

    /// Bytes the authenticated channel itself cost: handshakes plus
    /// per-frame sealing overhead.
    pub fn channel_overhead_bytes(&self) -> usize {
        self.handshake_bytes + self.sealed_overhead_bytes
    }
}

fn io_error(context: &'static str, e: std::io::Error) -> ProtocolError {
    ProtocolError::Io {
        context,
        detail: e.to_string(),
    }
}

/// The client-side connector: carries server-bound protocol messages over a
/// framed TCP stream to the coordinator's listener and hands the
/// coordinator's replies back to the driver.
///
/// Implements [`Coordinator`], so it drops into
/// [`run_registration_with`](super::driver::run_registration_with) /
/// [`run_try`](super::driver::run_try) /
/// [`pump`](super::driver::pump) exactly where a local server would go.
#[derive(Debug)]
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    stats: TransportStats,
    wire: WireStats,
    codec: CodecKind,
    max_frame_bytes: usize,
    /// The established AEAD session, when the config's policy is
    /// [`ChannelPolicy::Required`]; `None` means bare plaintext frames.
    channel: Option<SecureChannel>,
    /// Remembered so [`reconnect`](Self::reconnect) can redial and re-run
    /// the handshake with the same knobs and identity.
    addr: SocketAddr,
    config: TcpConfig,
}

impl TcpTransport {
    /// Connects to a coordinator endpoint with the [`TcpConfig`] defaults:
    /// [`DEFAULT_READ_TIMEOUT`], [`MAX_FRAME_BYTES`], and the compatibility
    /// [`CodecKind::Json`] (`DBH1`) payload codec.
    pub fn connect(addr: SocketAddr) -> Result<Self, ProtocolError> {
        TcpTransport::connect_with_config(addr, TcpConfig::default())
    }

    /// Connects with an explicit payload codec (the listener negotiates from
    /// the frame magic, so either side of an upgrade can move first).
    pub fn connect_with_codec(addr: SocketAddr, codec: CodecKind) -> Result<Self, ProtocolError> {
        TcpTransport::connect_with_config(addr, TcpConfig::default().with_codec(codec))
    }

    /// Connects with an explicit read timeout (tests use short ones so a
    /// silent peer fails fast instead of stalling the suite) and the `DBH1`
    /// codec.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        read_timeout: Duration,
    ) -> Result<Self, ProtocolError> {
        TcpTransport::connect_with_config(
            addr,
            TcpConfig::default().with_read_timeout(read_timeout),
        )
    }

    /// Connects with an explicit read timeout and payload codec.
    pub fn connect_with(
        addr: SocketAddr,
        read_timeout: Duration,
        codec: CodecKind,
    ) -> Result<Self, ProtocolError> {
        TcpTransport::connect_with_config(
            addr,
            TcpConfig::default()
                .with_read_timeout(read_timeout)
                .with_codec(codec),
        )
    }

    /// Connects with every socket knob spelled out in a [`TcpConfig`].
    ///
    /// With `connect_attempts > 1`, *transient* failures (socket errors,
    /// disconnects, truncated handshakes — a coordinator that is still
    /// binding its port or restarting) are retried under bounded
    /// exponential backoff with deterministic jitter; exhaustion surfaces
    /// [`ProtocolError::RetriesExhausted`]. Deterministic refusals —
    /// authentication failures, a wrong pinned server key, downgrades —
    /// are *never* retried: repeating them cannot help and would hammer a
    /// peer that already said no.
    pub fn connect_with_config(addr: SocketAddr, config: TcpConfig) -> Result<Self, ProtocolError> {
        let attempts = config.connect_attempts.max(1);
        let mut schedule = RetrySchedule::new(config.retry_base, config.retry_seed);
        let mut last = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(schedule.delay(attempt as u32 - 1));
            }
            match Self::connect_once(addr, &config) {
                Ok(transport) => return Ok(transport),
                Err(
                    e @ (ProtocolError::Io { .. }
                    | ProtocolError::Disconnected
                    | ProtocolError::TruncatedFrame { .. }),
                ) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        if attempts == 1 {
            Err(last.expect("one failed attempt recorded"))
        } else {
            Err(ProtocolError::RetriesExhausted { attempts })
        }
    }

    /// One dial + (policy permitting) handshake.
    fn connect_once(addr: SocketAddr, config: &TcpConfig) -> Result<Self, ProtocolError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_error("connect", e))?;
        stream
            .set_read_timeout(Some(config.read_timeout))
            .map_err(|e| io_error("configure socket", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| io_error("configure socket", e))?;
        let mut transport = TcpTransport {
            reader: BufReader::new(stream),
            stats: TransportStats::default(),
            wire: WireStats::default(),
            codec: config.codec,
            max_frame_bytes: config.max_frame_bytes,
            channel: None,
            addr,
            config: *config,
        };
        if config.channel.is_required() {
            let identity = match config.identity {
                Some(bytes) => NodeIdentity::from_secret_bytes(bytes),
                None => NodeIdentity::generate(),
            };
            // The handshake reads the raw stream (nothing is buffered yet:
            // the server cannot speak before M1).
            let channel = client_handshake(
                transport.reader.get_mut(),
                &identity,
                config.expected_server,
                config.max_frame_bytes,
            )?;
            transport.wire.handshake_bytes += HANDSHAKE_WIRE_BYTES;
            transport.channel = Some(channel);
        }
        Ok(transport)
    }

    /// Tears the current socket down and dials + handshakes afresh with the
    /// connection's original config (same identity, same pinned server, same
    /// retry schedule). Protocol and wire counters carry over — a reconnect
    /// is the *same logical session* recovering, not a new connector — and
    /// the cycle is counted in [`WireStats::reconnects`].
    ///
    /// The server keys cohort state off the authenticated identity, so a
    /// reconnecting registered client resumes idempotently instead of
    /// burning a second cohort slot; see
    /// [`deliver_idempotent`](Self::deliver_idempotent).
    pub fn reconnect(&mut self) -> Result<(), ProtocolError> {
        let _ = self.reader.get_ref().shutdown(Shutdown::Both);
        let fresh = Self::connect_with_config(self.addr, self.config)?;
        self.reader = fresh.reader;
        self.channel = fresh.channel;
        self.wire.handshake_bytes += fresh.wire.handshake_bytes;
        self.wire.reconnects += 1;
        Ok(())
    }

    /// [`deliver`](Coordinator::deliver), but a remote duplicate-contribution
    /// refusal counts as success with no replies: the resume path for a
    /// client that reconnected without knowing whether its upload landed.
    /// Safe because the coordinator's fold rejects duplicates *before*
    /// folding — replaying a landed registry cannot double-count it.
    pub fn deliver_idempotent(
        &mut self,
        envelope: Envelope,
    ) -> Result<Vec<Envelope>, ProtocolError> {
        match self.deliver(envelope) {
            Err(ProtocolError::Remote { detail })
                if detail.contains("already uploaded its registry")
                    || detail.contains("already contributed to try") =>
            {
                Ok(Vec::new())
            }
            other => other,
        }
    }

    /// The payload codec this connector frames requests in.
    pub fn codec(&self) -> CodecKind {
        self.codec
    }

    /// Canonical per-kind accounting of every message this connector carried
    /// (requests out and reply envelopes in), in the same units as
    /// [`InMemoryTransport::stats`](super::transport::InMemoryTransport::stats).
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }

    /// Real frame traffic on the socket (headers + encoded payloads).
    pub fn wire_stats(&self) -> &WireStats {
        &self.wire
    }

    /// The server's authenticated public identity, once a `Required`
    /// channel is established.
    pub fn peer_identity(&self) -> Option<[u8; 32]> {
        self.channel.as_ref().map(|c| c.peer_identity())
    }

    /// Sends one wire message and reads the peer's single reply frame —
    /// bare on a plaintext connection, sealed end-to-end on a channel.
    fn request(&mut self, msg: &WireMsg) -> Result<WireMsg, ProtocolError> {
        if self.channel.is_none() {
            let written =
                write_frame_limited(self.reader.get_mut(), msg, self.codec, self.max_frame_bytes)?;
            self.wire.frames_sent += 1;
            self.wire.bytes_sent += written;
            let (reply, read, _) = read_frame_limited(&mut self.reader, self.max_frame_bytes)?;
            self.wire.frames_received += 1;
            self.wire.bytes_received += read;
            return Ok(reply);
        }
        // Encode the inner plaintext frame, seal it, put one DBHE frame on
        // the wire. The ledger-facing counters meter the *inner* bytes; the
        // seal's cost goes to the channel-overhead counters.
        let mut inner = Vec::new();
        let inner_len = write_frame_limited(&mut inner, msg, self.codec, self.max_frame_bytes)?;
        let sealed = self
            .channel
            .as_mut()
            .expect("channel checked above")
            .seal_frame(&inner);
        {
            use std::io::Write as _;
            let stream = self.reader.get_mut();
            stream
                .write_all(&sealed)
                .map_err(|e| io_error("write sealed frame", e))?;
            stream
                .flush()
                .map_err(|e| io_error("write sealed frame", e))?;
        }
        self.wire.frames_sent += 1;
        self.wire.bytes_sent += inner_len;
        self.wire.sealed_overhead_bytes += sealed.len() - inner_len;

        let (frame, wire_read) = read_channel_frame(&mut self.reader, self.max_frame_bytes)?;
        let payload = match frame {
            ChannelFrame::Sealed(payload) => payload,
            ChannelFrame::Plaintext { frame, .. } => {
                return Err(ProtocolError::DowngradeRefused {
                    magic: frame[..4].try_into().expect("4-byte magic"),
                })
            }
            ChannelFrame::Handshake(_) => {
                return Err(ProtocolError::AuthFailure {
                    detail: "handshake frame after the channel was established".to_string(),
                })
            }
        };
        let opened = self
            .channel
            .as_mut()
            .expect("channel checked above")
            .open_payload(&payload)?;
        let (reply, read, _) = read_frame_limited(&mut &opened[..], self.max_frame_bytes)?;
        self.wire.frames_received += 1;
        self.wire.bytes_received += read;
        self.wire.sealed_overhead_bytes += wire_read - read;
        Ok(reply)
    }

    /// Expects the coordinator's reply batch; unwraps remote errors.
    fn request_batch(&mut self, msg: &WireMsg) -> Result<Vec<Envelope>, ProtocolError> {
        match self.request(msg)? {
            WireMsg::Batch { envelopes } => {
                for e in &envelopes {
                    self.stats.charge(&e.msg);
                }
                Ok(envelopes)
            }
            WireMsg::Error { detail } => Err(ProtocolError::Remote { detail }),
            other => Err(ProtocolError::MalformedFrame {
                detail: format!("expected a batch or error reply, got {other:?}"),
            }),
        }
    }

    /// Expects a bare acknowledgement; unwraps remote errors.
    fn request_ack(&mut self, msg: &WireMsg) -> Result<(), ProtocolError> {
        match self.request(msg)? {
            WireMsg::Ack => Ok(()),
            WireMsg::Error { detail } => Err(ProtocolError::Remote { detail }),
            other => Err(ProtocolError::MalformedFrame {
                detail: format!("expected an ack or error reply, got {other:?}"),
            }),
        }
    }

    /// Ends the session politely; the listener closes the connection.
    pub fn shutdown(mut self) -> Result<(), ProtocolError> {
        match self.channel.as_mut() {
            None => {
                let written = write_frame_limited(
                    self.reader.get_mut(),
                    &WireMsg::Shutdown,
                    self.codec,
                    self.max_frame_bytes,
                )?;
                self.wire.frames_sent += 1;
                self.wire.bytes_sent += written;
            }
            Some(channel) => {
                use std::io::Write as _;
                let mut inner = Vec::new();
                let inner_len = write_frame_limited(
                    &mut inner,
                    &WireMsg::Shutdown,
                    self.codec,
                    self.max_frame_bytes,
                )?;
                let sealed = channel.seal_frame(&inner);
                let stream = self.reader.get_mut();
                stream
                    .write_all(&sealed)
                    .map_err(|e| io_error("write sealed frame", e))?;
                stream
                    .flush()
                    .map_err(|e| io_error("write sealed frame", e))?;
                self.wire.frames_sent += 1;
                self.wire.bytes_sent += inner_len;
                self.wire.sealed_overhead_bytes += sealed.len() - inner_len;
            }
        }
        Ok(())
    }
}

impl Coordinator for TcpTransport {
    fn deliver(&mut self, envelope: Envelope) -> Result<Vec<Envelope>, ProtocolError> {
        self.stats.charge(&envelope.msg);
        self.request_batch(&WireMsg::Envelope { envelope })
    }

    fn announce_try(
        &mut self,
        try_index: usize,
        participants: &[ClientId],
    ) -> Result<(), ProtocolError> {
        self.request_ack(&WireMsg::AnnounceTry {
            try_index,
            participants: participants.to_vec(),
        })
    }

    fn begin_epoch(
        &mut self,
        epoch: u64,
        expected_registrations: usize,
    ) -> Result<(), ProtocolError> {
        self.request_ack(&WireMsg::BeginEpoch {
            epoch,
            expected_registrations,
        })
    }

    fn close_registration(&mut self) -> Result<Vec<Envelope>, ProtocolError> {
        self.request_batch(&WireMsg::CloseRegistration)
    }

    fn close_try(&mut self, try_index: usize) -> Result<Vec<Envelope>, ProtocolError> {
        self.request_batch(&WireMsg::CloseTry { try_index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn connect_retries_surface_typed_exhaustion() {
        // A port with nothing listening refuses instantly; all attempts are
        // transient failures, so the bounded backoff runs dry.
        let dead_addr = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let started = Instant::now();
        let err = TcpTransport::connect_with_config(
            dead_addr,
            TcpConfig::default().with_retries(3, Duration::from_millis(5)),
        )
        .unwrap_err();
        assert_eq!(err, ProtocolError::RetriesExhausted { attempts: 3 });
        // Backoff is bounded: 5 + 10 ms (+ jitter < 5 ms each) at most.
        assert!(started.elapsed() < Duration::from_secs(5));

        // A single attempt keeps the raw error for back-compat.
        let err = TcpTransport::connect(dead_addr).unwrap_err();
        assert!(matches!(err, ProtocolError::Io { .. }), "{err}");
    }
}
