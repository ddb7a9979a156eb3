//! The authenticated session layer: pre-protocol handshake + AEAD framing.
//!
//! THREAT_MODEL.md used to carry the caveat "codec negotiation is not
//! authentication". This module is the in-repo answer: before any
//! [`WireMsg`](super::wire::WireMsg) travels, the two endpoints of a
//! connection run a three-message mutual-authentication handshake (X25519
//! triple-DH, Noise-XX-shaped) and every subsequent frame is sealed with
//! ChaCha20-Poly1305 under per-direction keys and strictly sequenced
//! nonces. The crypto primitives come from the vendored offline stand-in
//! `mini-crypto` (RFC-vectored; swapping to the real crates is a
//! manifest-only change).
//!
//! ## Wire formats
//!
//! Two new frame magics join `DBH1`/`DBH2`/`DBHZ`, both length-prefixed the
//! same way (`magic + u32 BE length + payload`):
//!
//! ```text
//! DBHS — handshake:  payload is one handshake message (below)
//! DBHE — sealed:     payload = seq (u64 BE) || ciphertext || tag (16)
//! ```
//!
//! A sealed payload decrypts to one complete *inner* plaintext frame
//! (`DBH1`/`DBH2`/`DBHZ`), so codec negotiation, lazy registry deferral and
//! frame-size limits all apply unchanged inside the channel. The AEAD's
//! associated data covers the `DBHE` magic and the sequence number: a
//! spliced or re-sequenced frame fails the tag even if its ciphertext is
//! untouched.
//!
//! ## Handshake state machine
//!
//! ```text
//! client                                         server
//!   | --- M1: client_static ‖ client_eph ---------> |   (DBHS)
//!   | <-- M2: server_static ‖ server_eph ‖ tag_s -- |   (DBHS)
//!   | --- M3: tag_c ------------------------------> |   (DBHS)
//!   |            … DBHE sealed frames only …        |
//! ```
//!
//! Both sides derive `ikm = DH(e_c,e_s) ‖ DH(s_c,e_s) ‖ DH(e_c,s_s)` —
//! the ephemeral-ephemeral share gives freshness, the two static-ephemeral
//! shares prove possession of each long-term identity key — and expand
//! session keys with HKDF salted by the SHA-256 transcript of the exact
//! handshake bytes. `tag_s` / `tag_c` are HMAC confirmations over the
//! transcript under a third derived key: each side proves it derived the
//! same secrets *before* any protocol frame is accepted. A frame that
//! fails any check surfaces a typed
//! [`ProtocolError::AuthFailure`] / [`ReplayDetected`] /
//! [`DowngradeRefused`] — never a panic, never a hang.
//!
//! [`ReplayDetected`]: ProtocolError::ReplayDetected
//! [`DowngradeRefused`]: ProtocolError::DowngradeRefused

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use mini_crypto::{hkdf, hmac_sha256, sha256, ChaCha20Poly1305, PublicKey, StaticSecret, TAG_LEN};
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use super::codec::CodecKind;
use super::wire::read_exact_or;
use crate::error::ProtocolError;

/// The 4-byte preamble of a handshake (`DBHS`) frame.
pub const FRAME_MAGIC_HANDSHAKE: [u8; 4] = *b"DBHS";

/// The 4-byte preamble of a sealed (`DBHE`) frame.
pub const FRAME_MAGIC_SEALED: [u8; 4] = *b"DBHE";

/// Fixed per-frame overhead a sealed frame adds on the wire: the `DBHE`
/// header (magic + length) plus the sequence number and the AEAD tag. The
/// inner plaintext frame travels byte-for-byte as ciphertext.
pub const SEALED_FRAME_OVERHEAD: usize = 4 + 4 + 8 + TAG_LEN;

/// M1 = static(32) + ephemeral(32); M2 adds the confirmation tag.
const HELLO_LEN: usize = 64;
const CONFIRM_LEN: usize = 32;
const M2_LEN: usize = HELLO_LEN + CONFIRM_LEN;

/// Total bytes the three handshake frames put on the wire (headers
/// included): M1 (8+64) + M2 (8+96) + M3 (8+32). What a connector charges
/// to its channel-overhead accounting per handshake.
pub const HANDSHAKE_WIRE_BYTES: usize = (8 + HELLO_LEN) + (8 + M2_LEN) + (8 + CONFIRM_LEN);

/// Whether a connection endpoint runs the authenticated channel.
///
/// `Plaintext` keeps the historical behaviour (frames travel as bare
/// `DBH1`/`DBH2`/`DBHZ`) — loopback benches stay unauthenticated *by
/// choice*. `Required` refuses every plaintext protocol frame with a typed
/// [`ProtocolError::DowngradeRefused`], before, during and after the
/// handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ChannelPolicy {
    /// Run the handshake and seal every frame; refuse plaintext traffic.
    Required,
    /// No handshake, bare protocol frames (the historical behaviour).
    #[default]
    Plaintext,
}

impl ChannelPolicy {
    /// `true` when this endpoint runs the authenticated channel.
    pub fn is_required(self) -> bool {
        matches!(self, ChannelPolicy::Required)
    }
}

/// Process-wide entropy for fresh secrets: a counter hashed with the time
/// so two generated identities never collide, even within one tick.
fn fresh_secret() -> [u8; 32] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let pid = u64::from(std::process::id());
    let mut seed = [0u8; 32];
    seed[..8].copy_from_slice(&count.to_le_bytes());
    seed[8..16].copy_from_slice(&nanos.to_le_bytes());
    seed[16..24].copy_from_slice(&pid.to_le_bytes());
    // One hash round so structure in the inputs does not leak into the key.
    sha256(&seed)
}

/// A node's long-term channel identity: an X25519 static keypair. The
/// 32-byte public key *is* the identity the rest of the stack keys state
/// off (cohort bindings, metrics, session-hijack checks).
#[derive(Clone)]
pub struct NodeIdentity {
    secret: StaticSecret,
    public: [u8; 32],
}

impl std::fmt::Debug for NodeIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never render the secret.
        write!(f, "NodeIdentity({:02x?}…)", &self.public[..4])
    }
}

impl NodeIdentity {
    /// Builds an identity from explicit static-secret bytes (the form
    /// configs carry, since `[u8; 32]` stays `Copy`).
    pub fn from_secret_bytes(bytes: [u8; 32]) -> NodeIdentity {
        let secret = StaticSecret::from_bytes(bytes);
        let public = PublicKey::from(&secret).to_bytes();
        NodeIdentity { secret, public }
    }

    /// A deterministic identity derived from a seed via the vendored
    /// `StdRng` — what tests and simulations use so runs are reproducible.
    pub fn from_seed(seed: u64) -> NodeIdentity {
        NodeIdentity::from_secret_bytes(secret_bytes_from_seed(seed))
    }

    /// A fresh identity from process-local entropy.
    pub fn generate() -> NodeIdentity {
        NodeIdentity::from_secret_bytes(fresh_secret())
    }

    /// The public identity: what peers see and what state is keyed off.
    pub fn public_bytes(&self) -> [u8; 32] {
        self.public
    }
}

/// Derives static-secret bytes from a seed (deterministic; the `from_seed`
/// identity and config plumbing share this so they agree byte-for-byte).
pub fn secret_bytes_from_seed(seed: u64) -> [u8; 32] {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut bytes = [0u8; 32];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn io_error(context: &'static str, e: std::io::Error) -> ProtocolError {
    ProtocolError::Io {
        context,
        detail: e.to_string(),
    }
}

/// The established channel: per-direction AEAD keys plus strictly
/// sequenced nonces, bound to the authenticated peer identity.
pub struct SecureChannel {
    send: ChaCha20Poly1305,
    recv: ChaCha20Poly1305,
    send_seq: u64,
    recv_seq: u64,
    peer: [u8; 32],
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SecureChannel(peer {:02x?}…, seq {}/{})",
            &self.peer[..4],
            self.send_seq,
            self.recv_seq
        )
    }
}

fn nonce_for(seq: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&seq.to_be_bytes());
    nonce
}

impl SecureChannel {
    /// The peer's authenticated public identity.
    pub fn peer_identity(&self) -> [u8; 32] {
        self.peer
    }

    /// Seals one inner plaintext frame into a complete `DBHE` wire frame.
    pub fn seal_frame(&mut self, inner: &[u8]) -> Vec<u8> {
        let seq = self.send_seq;
        self.send_seq += 1;
        let mut aad = [0u8; 12];
        aad[..4].copy_from_slice(&FRAME_MAGIC_SEALED);
        aad[4..].copy_from_slice(&seq.to_be_bytes());
        let sealed = self.send.seal(&nonce_for(seq), &aad, inner);
        let mut frame = Vec::with_capacity(SEALED_FRAME_OVERHEAD + inner.len());
        frame.extend_from_slice(&FRAME_MAGIC_SEALED);
        frame.extend_from_slice(&((8 + sealed.len()) as u32).to_be_bytes());
        frame.extend_from_slice(&seq.to_be_bytes());
        frame.extend_from_slice(&sealed);
        frame
    }

    /// Opens one `DBHE` payload (`seq || ciphertext || tag`), returning the
    /// inner plaintext frame. Out-of-sequence frames surface
    /// [`ProtocolError::ReplayDetected`]; tag failures surface
    /// [`ProtocolError::AuthFailure`]. Either way the channel is dead: a
    /// failed open does not advance the receive sequence, and callers cut
    /// the connection.
    pub fn open_payload(&mut self, payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        if payload.len() < 8 + TAG_LEN {
            return Err(ProtocolError::AuthFailure {
                detail: format!("sealed payload too short ({} bytes)", payload.len()),
            });
        }
        let seq = u64::from_be_bytes(payload[..8].try_into().expect("8-byte slice"));
        if seq != self.recv_seq {
            return Err(ProtocolError::ReplayDetected {
                expected: self.recv_seq,
                got: seq,
            });
        }
        let mut aad = [0u8; 12];
        aad[..4].copy_from_slice(&FRAME_MAGIC_SEALED);
        aad[4..].copy_from_slice(&seq.to_be_bytes());
        let inner = self
            .recv
            .open(&nonce_for(seq), &aad, &payload[8..])
            .map_err(|_| ProtocolError::AuthFailure {
                detail: format!("AEAD tag verification failed on sealed frame {seq}"),
            })?;
        self.recv_seq += 1;
        Ok(inner)
    }
}

/// The two key-schedule directions, so client and server construct mirror
/// channels from one HKDF output.
struct SessionKeys {
    c2s: [u8; 32],
    s2c: [u8; 32],
    confirm: [u8; 32],
    transcript: [u8; 32],
}

fn derive_keys(
    dh_ee: &[u8; 32],
    dh_se: &[u8; 32],
    dh_es: &[u8; 32],
    m1: &[u8],
    server_hello: &[u8],
) -> SessionKeys {
    let transcript = sha256(&[b"dubhe-hs-v1" as &[u8], m1, server_hello].concat());
    let ikm = [dh_ee.as_slice(), dh_se.as_slice(), dh_es.as_slice()].concat();
    let okm = hkdf(&transcript, &ikm, b"dubhe-channel v1", 96);
    let mut c2s = [0u8; 32];
    let mut s2c = [0u8; 32];
    let mut confirm = [0u8; 32];
    c2s.copy_from_slice(&okm[..32]);
    s2c.copy_from_slice(&okm[32..64]);
    confirm.copy_from_slice(&okm[64..96]);
    SessionKeys {
        c2s,
        s2c,
        confirm,
        transcript,
    }
}

fn confirm_tag(keys: &SessionKeys, label: &[u8]) -> [u8; 32] {
    hmac_sha256(&keys.confirm, &[label, &keys.transcript].concat())
}

fn channel_from(keys: &SessionKeys, is_client: bool, peer: [u8; 32]) -> SecureChannel {
    let (send, recv) = if is_client {
        (&keys.c2s, &keys.s2c)
    } else {
        (&keys.s2c, &keys.c2s)
    };
    SecureChannel {
        send: ChaCha20Poly1305::new(send),
        recv: ChaCha20Poly1305::new(recv),
        send_seq: 0,
        recv_seq: 0,
        peer,
    }
}

// ------------------------------------------------------------ raw framing

/// One frame pulled off a channel-aware socket, still undecoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelFrame {
    /// A `DBHS` handshake message.
    Handshake(Vec<u8>),
    /// A `DBHE` sealed payload (`seq || ciphertext || tag`).
    Sealed(Vec<u8>),
    /// A plaintext protocol frame (`DBH1`/`DBH2`/`DBHZ`): the *entire*
    /// frame bytes, header included, so a `Plaintext`-policy caller can
    /// re-parse it with the ordinary wire readers.
    Plaintext {
        /// The plaintext codec the magic announced.
        codec: CodecKind,
        /// The full frame (magic + length + payload).
        frame: Vec<u8>,
    },
}

/// Writes one `DBHS` frame, returning the bytes put on the wire.
pub fn write_handshake_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<usize, ProtocolError> {
    w.write_all(&FRAME_MAGIC_HANDSHAKE)
        .map_err(|e| io_error("write handshake frame", e))?;
    w.write_all(&(payload.len() as u32).to_be_bytes())
        .map_err(|e| io_error("write handshake frame", e))?;
    w.write_all(payload)
        .map_err(|e| io_error("write handshake frame", e))?;
    w.flush()
        .map_err(|e| io_error("write handshake frame", e))?;
    Ok(8 + payload.len())
}

/// Reads one frame of *any* known magic — handshake, sealed or plaintext —
/// returning it with the total bytes consumed. This is the read primitive
/// of channel-aware blocking paths: the caller decides which variants its
/// policy and phase accept (a `Required` endpoint maps
/// [`ChannelFrame::Plaintext`] to [`ProtocolError::DowngradeRefused`]).
pub fn read_channel_frame<R: Read>(
    r: &mut R,
    max_frame_bytes: usize,
) -> Result<(ChannelFrame, usize), ProtocolError> {
    let mut magic = [0u8; 4];
    read_exact_or(r, &mut magic, "header", true)?;
    let mut len_bytes = [0u8; 4];
    read_exact_or(r, &mut len_bytes, "header", false)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    // Sealed frames may exceed the inner ceiling by exactly the seal.
    let ceiling = max_frame_bytes + SEALED_FRAME_OVERHEAD;
    if len > ceiling {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: max_frame_bytes,
        });
    }
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, "payload", false)?;
    let total = 8 + len;
    if magic == FRAME_MAGIC_HANDSHAKE {
        return Ok((ChannelFrame::Handshake(payload), total));
    }
    if magic == FRAME_MAGIC_SEALED {
        return Ok((ChannelFrame::Sealed(payload), total));
    }
    if let Some(codec) = CodecKind::from_magic(magic) {
        let mut frame = Vec::with_capacity(total);
        frame.extend_from_slice(&magic);
        frame.extend_from_slice(&len_bytes);
        frame.extend_from_slice(&payload);
        return Ok((ChannelFrame::Plaintext { codec, frame }, total));
    }
    Err(ProtocolError::MalformedFrame {
        detail: format!("bad magic {magic:02x?}, expected DBH1, DBH2, DBHZ, DBHS or DBHE"),
    })
}

// ------------------------------------------------------- client handshake

/// Runs the client side of the handshake over a blocking stream. On
/// success the stream speaks sealed frames only. `expected_server` pins
/// the server's public identity (connection refused with
/// [`ProtocolError::AuthFailure`] on mismatch); `None` trusts first use.
pub fn client_handshake<S: Read + Write>(
    stream: &mut S,
    identity: &NodeIdentity,
    expected_server: Option<[u8; 32]>,
    max_frame_bytes: usize,
) -> Result<SecureChannel, ProtocolError> {
    let eph = StaticSecret::from_bytes(fresh_secret());
    let eph_pub = PublicKey::from(&eph).to_bytes();

    let mut m1 = [0u8; HELLO_LEN];
    m1[..32].copy_from_slice(&identity.public);
    m1[32..].copy_from_slice(&eph_pub);
    write_handshake_frame(stream, &m1)?;

    let (frame, _) = read_channel_frame(stream, max_frame_bytes)?;
    let m2 = match frame {
        ChannelFrame::Handshake(payload) => payload,
        ChannelFrame::Plaintext { frame, .. } => {
            return Err(ProtocolError::DowngradeRefused {
                magic: frame[..4].try_into().expect("4-byte magic"),
            })
        }
        ChannelFrame::Sealed(_) => {
            return Err(ProtocolError::AuthFailure {
                detail: "server sent a sealed frame before the handshake finished".to_string(),
            })
        }
    };
    if m2.len() != M2_LEN {
        return Err(ProtocolError::AuthFailure {
            detail: format!("server hello is {} bytes, expected {M2_LEN}", m2.len()),
        });
    }
    let server_static: [u8; 32] = m2[..32].try_into().expect("32-byte key");
    let server_eph: [u8; 32] = m2[32..64].try_into().expect("32-byte key");
    if let Some(pinned) = expected_server {
        if pinned != server_static {
            return Err(ProtocolError::AuthFailure {
                detail: "server identity does not match the pinned key".to_string(),
            });
        }
    }

    let server_eph_pk = PublicKey::from_bytes(server_eph);
    let dh_ee = eph.diffie_hellman(&server_eph_pk).to_bytes();
    let dh_se = identity.secret.diffie_hellman(&server_eph_pk).to_bytes();
    let dh_es = eph
        .diffie_hellman(&PublicKey::from_bytes(server_static))
        .to_bytes();
    let keys = derive_keys(&dh_ee, &dh_se, &dh_es, &m1, &m2[..64]);

    let expect_server_tag = confirm_tag(&keys, b"server");
    if !constant_time_eq(&m2[64..], &expect_server_tag) {
        return Err(ProtocolError::AuthFailure {
            detail: "server handshake confirmation tag did not verify".to_string(),
        });
    }
    write_handshake_frame(stream, &confirm_tag(&keys, b"client"))?;
    Ok(channel_from(&keys, true, server_static))
}

// ------------------------------------------------------- server handshake

/// The server side of the handshake as an explicit state machine, so the
/// event-driven reactor can feed it one `DBHS` payload at a time from
/// readiness events.
pub struct ServerHandshake {
    identity: NodeIdentity,
    state: ServerHandshakeState,
}

enum ServerHandshakeState {
    AwaitHello,
    AwaitConfirm {
        keys: SessionKeys,
        client_static: [u8; 32],
    },
    Done,
}

/// What one handshake payload produced: an optional reply frame to write,
/// and the established channel once the exchange completes.
pub struct HandshakeStep {
    /// A complete `DBHS` frame to send back, if this step produces one.
    pub reply: Option<Vec<u8>>,
    /// The established channel, once the client's confirmation verifies.
    pub established: Option<SecureChannel>,
}

impl ServerHandshake {
    /// A fresh handshake for one inbound connection.
    pub fn new(identity: NodeIdentity) -> ServerHandshake {
        ServerHandshake {
            identity,
            state: ServerHandshakeState::AwaitHello,
        }
    }

    /// Feeds one `DBHS` payload to the state machine. Errors are terminal:
    /// the caller cuts the connection.
    pub fn on_payload(&mut self, payload: &[u8]) -> Result<HandshakeStep, ProtocolError> {
        match std::mem::replace(&mut self.state, ServerHandshakeState::Done) {
            ServerHandshakeState::AwaitHello => {
                if payload.len() != HELLO_LEN {
                    return Err(ProtocolError::AuthFailure {
                        detail: format!(
                            "client hello is {} bytes, expected {HELLO_LEN}",
                            payload.len()
                        ),
                    });
                }
                let client_static: [u8; 32] = payload[..32].try_into().expect("32-byte key");
                let client_eph: [u8; 32] = payload[32..].try_into().expect("32-byte key");

                let eph = StaticSecret::from_bytes(fresh_secret());
                let eph_pub = PublicKey::from(&eph).to_bytes();
                let client_eph_pk = PublicKey::from_bytes(client_eph);
                let dh_ee = eph.diffie_hellman(&client_eph_pk).to_bytes();
                let dh_se = eph
                    .diffie_hellman(&PublicKey::from_bytes(client_static))
                    .to_bytes();
                let dh_es = self
                    .identity
                    .secret
                    .diffie_hellman(&client_eph_pk)
                    .to_bytes();

                let mut hello = [0u8; HELLO_LEN];
                hello[..32].copy_from_slice(&self.identity.public);
                hello[32..].copy_from_slice(&eph_pub);
                let keys = derive_keys(&dh_ee, &dh_se, &dh_es, payload, &hello);

                let mut m2 = Vec::with_capacity(M2_LEN);
                m2.extend_from_slice(&hello);
                m2.extend_from_slice(&confirm_tag(&keys, b"server"));
                let mut reply = Vec::with_capacity(8 + M2_LEN);
                reply.extend_from_slice(&FRAME_MAGIC_HANDSHAKE);
                reply.extend_from_slice(&(m2.len() as u32).to_be_bytes());
                reply.extend_from_slice(&m2);

                self.state = ServerHandshakeState::AwaitConfirm {
                    keys,
                    client_static,
                };
                Ok(HandshakeStep {
                    reply: Some(reply),
                    established: None,
                })
            }
            ServerHandshakeState::AwaitConfirm {
                keys,
                client_static,
            } => {
                let expect = confirm_tag(&keys, b"client");
                if payload.len() != CONFIRM_LEN || !constant_time_eq(payload, &expect) {
                    return Err(ProtocolError::AuthFailure {
                        detail: "client handshake confirmation tag did not verify".to_string(),
                    });
                }
                Ok(HandshakeStep {
                    reply: None,
                    established: Some(channel_from(&keys, false, client_static)),
                })
            }
            ServerHandshakeState::Done => Err(ProtocolError::AuthFailure {
                detail: "handshake message after the handshake completed".to_string(),
            }),
        }
    }
}

fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

// ------------------------------------------------------------------ retry

/// Bounded exponential backoff with deterministic jitter for transient
/// connect/handshake failures: attempt `i` (0-based) sleeps
/// `base · 2^i + jitter` where jitter is uniform in `[0, base)` from the
/// vendored seeded `StdRng` — deterministic per (seed, attempt), so test
/// runs are reproducible while a thundering herd still spreads out.
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    base: std::time::Duration,
    rng: rand::rngs::StdRng,
}

impl RetrySchedule {
    /// A schedule starting at `base` delay, jitter-seeded with `seed`.
    pub fn new(base: std::time::Duration, seed: u64) -> RetrySchedule {
        RetrySchedule {
            base,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// The delay before retry number `attempt` (0-based), jitter included.
    pub fn delay(&mut self, attempt: u32) -> std::time::Duration {
        let base_ns = self.base.as_nanos() as u64;
        let backoff = base_ns.saturating_mul(1u64 << attempt.min(16));
        let jitter = if base_ns == 0 {
            0
        } else {
            self.rng.next_u64() % base_ns
        };
        std::time::Duration::from_nanos(backoff.saturating_add(jitter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a real `client_handshake` against a [`ServerHandshake`] state
    /// machine without sockets or threads: the client's writes are parsed
    /// into DBHS frames and fed to the server, whose replies land in the
    /// client's read buffer.
    fn handshake_pair(
        client_id: &NodeIdentity,
        server_id: &NodeIdentity,
        pin: Option<[u8; 32]>,
    ) -> Result<(SecureChannel, SecureChannel), ProtocolError> {
        let mut client_out: Vec<u8> = Vec::new();
        let mut client_in: Vec<u8> = Vec::new();
        struct Shuttle<'a> {
            inbox: &'a mut Vec<u8>,
            outbox: &'a mut Vec<u8>,
            hs: &'a mut ServerHandshake,
            server_channel: &'a mut Option<SecureChannel>,
        }
        impl std::io::Read for Shuttle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.inbox.len());
                if n == 0 {
                    return Ok(0);
                }
                buf[..n].copy_from_slice(&self.inbox[..n]);
                self.inbox.drain(..n);
                Ok(n)
            }
        }
        impl std::io::Write for Shuttle<'_> {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.outbox.extend_from_slice(buf);
                // When a complete DBHS frame lands, feed the server.
                while self.outbox.len() >= 8 {
                    let len = u32::from_be_bytes(self.outbox[4..8].try_into().unwrap()) as usize;
                    if self.outbox.len() < 8 + len {
                        break;
                    }
                    let payload: Vec<u8> = self.outbox[8..8 + len].to_vec();
                    self.outbox.drain(..8 + len);
                    let step = self
                        .hs
                        .on_payload(&payload)
                        .map_err(|e| std::io::Error::other(e.to_string()))?;
                    if let Some(reply) = step.reply {
                        self.inbox.extend_from_slice(&reply);
                    }
                    if let Some(ch) = step.established {
                        *self.server_channel = Some(ch);
                    }
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut server_hs = ServerHandshake::new(server_id.clone());
        let mut server_channel = None;
        let mut shuttle = Shuttle {
            inbox: &mut client_in,
            outbox: &mut client_out,
            hs: &mut server_hs,
            server_channel: &mut server_channel,
        };
        let client_channel = client_handshake(&mut shuttle, client_id, pin, 1 << 20)?;
        let server_channel = server_channel.expect("server established");
        Ok((client_channel, server_channel))
    }

    #[test]
    fn handshake_establishes_matching_channels() {
        let client_id = NodeIdentity::from_seed(1);
        let server_id = NodeIdentity::from_seed(2);
        let (mut client, mut server) =
            handshake_pair(&client_id, &server_id, Some(server_id.public_bytes())).unwrap();

        assert_eq!(client.peer_identity(), server_id.public_bytes());
        assert_eq!(server.peer_identity(), client_id.public_bytes());

        // Both directions seal and open.
        let frame = client.seal_frame(b"up the wire");
        assert_eq!(&frame[..4], &FRAME_MAGIC_SEALED);
        let opened = server.open_payload(&frame[8..]).unwrap();
        assert_eq!(opened, b"up the wire");

        let down = server.seal_frame(b"down the wire");
        assert_eq!(client.open_payload(&down[8..]).unwrap(), b"down the wire");
    }

    #[test]
    fn pinned_server_mismatch_is_refused() {
        let client_id = NodeIdentity::from_seed(1);
        let server_id = NodeIdentity::from_seed(2);
        let wrong_pin = NodeIdentity::from_seed(3).public_bytes();
        let err = handshake_pair(&client_id, &server_id, Some(wrong_pin)).unwrap_err();
        assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");
    }

    #[test]
    fn tampered_frames_and_replays_are_typed_errors() {
        let client_id = NodeIdentity::from_seed(4);
        let server_id = NodeIdentity::from_seed(5);
        let (mut client, mut server) = handshake_pair(&client_id, &server_id, None).unwrap();

        // Bit-flip anywhere in the sealed region fails the tag.
        let frame = client.seal_frame(b"payload");
        let mut tampered = frame.clone();
        let n = tampered.len();
        tampered[n - 1] ^= 0x01;
        let err = server.open_payload(&tampered[8..]).unwrap_err();
        assert!(matches!(err, ProtocolError::AuthFailure { .. }), "{err}");

        // The genuine frame still opens (failed opens do not advance seq).
        assert_eq!(server.open_payload(&frame[8..]).unwrap(), b"payload");

        // Replaying it is now out of sequence.
        let err = server.open_payload(&frame[8..]).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::ReplayDetected {
                expected: 1,
                got: 0
            }
        );

        // A reordered (future) frame is refused the same way.
        let f1 = client.seal_frame(b"one");
        let f2 = client.seal_frame(b"two");
        let err = server.open_payload(&f2[8..]).unwrap_err();
        assert!(matches!(err, ProtocolError::ReplayDetected { .. }), "{err}");
        let _ = f1;
    }

    #[test]
    fn identities_are_deterministic_per_seed() {
        assert_eq!(
            NodeIdentity::from_seed(7).public_bytes(),
            NodeIdentity::from_seed(7).public_bytes()
        );
        assert_ne!(
            NodeIdentity::from_seed(7).public_bytes(),
            NodeIdentity::from_seed(8).public_bytes()
        );
        assert_ne!(
            NodeIdentity::generate().public_bytes(),
            NodeIdentity::generate().public_bytes()
        );
    }

    #[test]
    fn channel_frames_parse_by_magic() {
        // Handshake frame round-trips.
        let mut buf = Vec::new();
        write_handshake_frame(&mut buf, b"hello").unwrap();
        let (frame, n) = read_channel_frame(&mut &buf[..], 1 << 20).unwrap();
        assert_eq!(n, buf.len());
        assert_eq!(frame, ChannelFrame::Handshake(b"hello".to_vec()));

        // Plaintext frames come back whole for policy dispatch.
        let mut buf = Vec::new();
        super::super::wire::write_frame(&mut buf, &super::super::wire::WireMsg::Ack).unwrap();
        let (frame, _) = read_channel_frame(&mut &buf[..], 1 << 20).unwrap();
        match frame {
            ChannelFrame::Plaintext { codec, frame } => {
                assert_eq!(codec, CodecKind::Json);
                assert_eq!(frame, buf);
            }
            other => panic!("expected plaintext, got {other:?}"),
        }

        // Unknown magic is malformed; truncation is typed.
        let err = read_channel_frame(&mut &b"EVIL\x00\x00\x00\x00"[..], 1 << 20).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
        let err = read_channel_frame(&mut &buf[..3], 1 << 20).unwrap_err();
        assert!(matches!(err, ProtocolError::TruncatedFrame { .. }), "{err}");
    }

    #[test]
    fn retry_schedule_is_deterministic_and_bounded() {
        let base = std::time::Duration::from_millis(10);
        let mut a = RetrySchedule::new(base, 42);
        let mut b = RetrySchedule::new(base, 42);
        let mut c = RetrySchedule::new(base, 43);
        let delays_a: Vec<_> = (0..4).map(|i| a.delay(i)).collect();
        let delays_b: Vec<_> = (0..4).map(|i| b.delay(i)).collect();
        assert_eq!(delays_a, delays_b, "same seed, same jitter");
        let delays_c: Vec<_> = (0..4).map(|i| c.delay(i)).collect();
        assert_ne!(delays_a, delays_c, "different seed, different jitter");
        for (i, d) in delays_a.iter().enumerate() {
            let backoff = base * (1 << i as u32);
            assert!(*d >= backoff, "attempt {i}: {d:?} < {backoff:?}");
            assert!(*d < backoff + base, "attempt {i}: {d:?} jitter too big");
        }
    }
}
