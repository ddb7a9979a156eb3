//! The frame layer of the networked transport: the one module that knows
//! the frame format.
//!
//! Every message on a protocol socket is one *frame*:
//!
//! ```text
//! +-----------------+-----------------+----------------------------+
//! | magic           | payload length  | payload                    |
//! | 4 bytes         | u32, big-endian | `length` bytes             |
//! +-----------------+-----------------+----------------------------+
//! ```
//!
//! Four magics exist ([`FrameKind`]):
//!
//! * `DBH1` — a protocol frame whose payload is a [`WireMsg`] as JSON;
//! * `DBH2` — a protocol frame whose payload is the canonical binary
//!   encoding (see [`super::codec`]);
//! * `DBHS` — one message of the authenticated channel's handshake;
//! * `DBHE` — a sealed frame, `seq (u64 BE) ‖ ciphertext ‖ tag`, that opens
//!   to exactly one inner `DBH1`/`DBH2` frame (see [`super::channel`]).
//!
//! A protocol magic names the payload codec ([`CodecKind`]) and a listener
//! replies in the codec a request arrived in, which is the whole
//! per-connection codec negotiation.
//!
//! Every decision about the format is made here, once:
//!
//! * [`check_header`] is the one header check, shared by the blocking
//!   readers below and `dubhe-net`'s incremental `FrameBuffer`. The magic
//!   is checked first: an unknown one is [`ProtocolError::MalformedFrame`]
//!   as soon as its four bytes arrive, before any allocation. Then the
//!   announced length is checked against the caller's ceiling
//!   ([`ProtocolError::FrameTooLarge`]), so garbage or hostile headers
//!   cannot make the receiver allocate unboundedly. A protocol-frame
//!   reader's ceiling is `max_frame_bytes`; a channel-frame reader's is
//!   `max_frame_bytes +` [`SEALED_FRAME_OVERHEAD`], since a seal may exceed
//!   the inner ceiling by exactly itself.
//! * [`decode_lazy`] is the one payload decode, and the home of the `DBH2`
//!   registry-deferral rule ([`LazyMsg`]).
//! * [`append_frame`] is the one encode: bare, or sealed when a channel is
//!   up.
//! * [`ChannelFrame::into_handshake`] and [`ChannelFrame::into_sealed`] are
//!   the phase rules of a channel connection; [`open_reply`] is the
//!   clients' sealed-only receive.
//!
//! The blocking readers are std-only (`std::io::Read` over any byte stream:
//! `std::net::TcpStream` in production, `&[u8]` cursors in tests). A stream
//! that ends mid-frame surfaces [`ProtocolError::TruncatedFrame`]; a stream
//! that ends cleanly *between* frames surfaces
//! [`ProtocolError::Disconnected`]. Callers that expected more exchange
//! treat both as errors, never as silence. With a read timeout set on the
//! stream, a silent peer surfaces as [`ProtocolError::Io`] when it elapses.
//!
//! [`WireMsg`] wraps the protocol-level [`Envelope`] with the small control
//! vocabulary a client ↔ coordinator session needs (try announcements,
//! reply batches, relayed errors, shutdown).

use std::io::{ErrorKind, Read, Write};
use std::ops::Range;

use serde::{Deserialize, Serialize};

use super::channel::{SecureChannel, SEALED_FRAME_OVERHEAD};
use super::codec::{CodecKind, RegistryFrame};
use super::message::Envelope;
use crate::error::ProtocolError;
use crate::selector::ClientId;

/// The 4-byte preamble of a JSON (`DBH1`) frame: protocol name + wire-format
/// version. Equal to [`CodecKind::Json.magic()`](CodecKind::magic).
pub const FRAME_MAGIC: [u8; 4] = *b"DBH1";

/// The 4-byte preamble of a canonical-binary (`DBH2`) frame. Equal to
/// [`CodecKind::Binary.magic()`](CodecKind::magic).
pub const FRAME_MAGIC_V2: [u8; 4] = *b"DBH2";

/// The 4-byte preamble of a handshake (`DBHS`) frame.
pub const FRAME_MAGIC_HANDSHAKE: [u8; 4] = *b"DBHS";

/// The 4-byte preamble of a sealed (`DBHE`) frame.
pub const FRAME_MAGIC_SEALED: [u8; 4] = *b"DBHE";

/// Magic (4) + big-endian payload length (4).
pub const HEADER_BYTES: usize = 8;

/// Upper bound on a frame payload. Generous: the largest legitimate message
/// is a broadcast batch of full-length encrypted registries under 2048-bit
/// keys (tens of KB each); 64 MiB leaves three orders of magnitude headroom
/// while still refusing absurd lengths parsed out of garbage bytes.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// One message of the client ↔ coordinator wire session.
// Envelope wraps ProtocolMsg, whose key-dispatch variant is deliberately
// large (see the note there); the same trade-off applies here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireMsg {
    /// A protocol envelope travelling to the coordinator.
    Envelope {
        /// The addressed protocol message.
        envelope: Envelope,
    },
    /// Control plane: announce the participant set of one tentative try
    /// (§5.3.1) ahead of the encrypted distribution uploads.
    AnnounceTry {
        /// Which of the `H` tries is being announced.
        try_index: usize,
        /// The tentatively selected client ids.
        participants: Vec<ClientId>,
    },
    /// Control plane: open a new key-rotation epoch with a (possibly
    /// resized) cohort. The coordinator resets its per-epoch folds and
    /// refuses frames stamped with older epochs afterwards.
    BeginEpoch {
        /// The new epoch id.
        epoch: u64,
        /// The new cohort size.
        expected_registrations: usize,
    },
    /// Control plane: close the registration phase with whatever registries
    /// arrived — the explicit partial-cohort fold a straggler deadline
    /// triggers. The reply is a [`Batch`](WireMsg::Batch) of the triggered
    /// broadcast envelopes.
    CloseRegistration,
    /// Control plane: close one tentative try with whatever contributions
    /// arrived. The reply is a [`Batch`](WireMsg::Batch) carrying the
    /// partial sum.
    CloseTry {
        /// The try to close.
        try_index: usize,
    },
    /// The coordinator's reply to an [`Envelope`](WireMsg::Envelope): every
    /// message the delivery triggered (possibly empty), in emission order.
    Batch {
        /// The triggered envelopes.
        envelopes: Vec<Envelope>,
    },
    /// The coordinator's acknowledgement of a control message.
    Ack,
    /// The coordinator rejected the message; its [`ProtocolError`] rendered
    /// as text.
    Error {
        /// The rendered coordinator-side error.
        detail: String,
    },
    /// Ends the session: the peer will close the connection after reading
    /// this frame.
    Shutdown,
}

fn io_error(context: &'static str, e: std::io::Error) -> ProtocolError {
    ProtocolError::Io {
        context,
        detail: e.to_string(),
    }
}

// ------------------------------------------------------------------ header

/// What a frame's magic announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A `DBH1`/`DBH2` protocol frame carrying a [`WireMsg`] in this codec.
    Protocol(CodecKind),
    /// A `DBHS` handshake message.
    Handshake,
    /// A `DBHE` sealed frame.
    Sealed,
}

/// Which frames a reader accepts, and so which ceiling it applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// `DBH1`/`DBH2` only, payload at most `max_frame_bytes`.
    Protocol,
    /// All four magics, payload at most `max_frame_bytes +`
    /// [`SEALED_FRAME_OVERHEAD`].
    Channel,
}

/// A frame header that passed [`check_header`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    kind: FrameKind,
    /// The announced payload length, within the reader's ceiling.
    len: usize,
}

impl FrameHeader {
    /// What the magic announces.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// The bytes of the whole frame: header plus payload.
    pub fn total(&self) -> usize {
        HEADER_BYTES + self.len
    }

    /// The payload codec of a protocol frame (the only kind an
    /// [`Accept::Protocol`] reader lets through).
    fn codec(&self) -> CodecKind {
        match self.kind {
            FrameKind::Protocol(codec) => codec,
            _ => unreachable!("protocol readers accept only DBH1/DBH2 headers"),
        }
    }

    /// Where the bytes a [`ChannelFrame`] keeps begin within the frame: a
    /// protocol frame is kept whole, header included, so a plaintext-policy
    /// caller can re-parse it; handshake and sealed frames keep their
    /// payload.
    pub fn kept_from(&self) -> usize {
        match self.kind {
            FrameKind::Protocol(_) => 0,
            FrameKind::Handshake | FrameKind::Sealed => HEADER_BYTES,
        }
    }

    /// Wraps `kept`, the frame's bytes from [`kept_from`](Self::kept_from)
    /// on, as the [`ChannelFrame`] this header announces.
    pub fn channel_frame(&self, kept: Vec<u8>) -> ChannelFrame {
        match self.kind {
            FrameKind::Protocol(codec) => ChannelFrame::Plaintext { codec, frame: kept },
            FrameKind::Handshake => ChannelFrame::Handshake(kept),
            FrameKind::Sealed => ChannelFrame::Sealed(kept),
        }
    }
}

/// The one frame-header check. `bytes` is what has arrived of the frame so
/// far (more is ignored); `Ok(None)` means "too few bytes to decide yet".
///
/// The magic is checked as soon as its four bytes are there, so garbage is
/// refused after 4 bytes rather than held until a phantom length dribbles
/// in. Then the announced length is checked against the reader's ceiling,
/// before any payload is buffered. Both failures are terminal for the
/// connection: framing is lost once a header is bad.
pub fn check_header(
    bytes: &[u8],
    max_frame_bytes: usize,
    accept: Accept,
) -> Result<Option<FrameHeader>, ProtocolError> {
    let Some(magic) = bytes.first_chunk::<4>() else {
        return Ok(None);
    };
    let kind = match (*magic, accept) {
        (FRAME_MAGIC_HANDSHAKE, Accept::Channel) => FrameKind::Handshake,
        (FRAME_MAGIC_SEALED, Accept::Channel) => FrameKind::Sealed,
        _ => match CodecKind::from_magic(*magic) {
            Some(codec) => FrameKind::Protocol(codec),
            None => {
                let expected = match accept {
                    Accept::Protocol => "DBH1 or DBH2",
                    Accept::Channel => "DBH1, DBH2, DBHS or DBHE",
                };
                return Err(ProtocolError::MalformedFrame {
                    detail: format!("bad magic {magic:02x?}, expected {expected}"),
                });
            }
        },
    };
    let Some(len) = bytes.get(4..HEADER_BYTES) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(len.try_into().expect("4-byte length")) as usize;
    let ceiling = match accept {
        Accept::Protocol => max_frame_bytes,
        Accept::Channel => max_frame_bytes.saturating_add(SEALED_FRAME_OVERHEAD),
    };
    if len > ceiling {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: max_frame_bytes,
        });
    }
    Ok(Some(FrameHeader { kind, len }))
}

/// The header of a frame with this magic and a payload of `len` bytes.
pub(crate) fn frame_header(magic: [u8; 4], len: usize) -> [u8; HEADER_BYTES] {
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&magic);
    header[4..].copy_from_slice(&(len as u32).to_be_bytes());
    header
}

// ----------------------------------------------------------------- payload

/// A frame read whose payload decoding may have been *deferred*.
///
/// `DBH2` registry uploads — the coordinator's hot path — are recognised by
/// their constant-size envelope prefix and shipped to the router as raw
/// payload bytes ([`RegistryFrame`]); the router folds their ciphertext
/// block through a borrowed view with zero per-element allocation. Every
/// other frame decodes eagerly. See [`decode_lazy`].
// The size gap between variants is irrelevant: a `LazyMsg` lives for one
// dispatch — decoded off the socket, matched, and consumed — never stored
// in collections, so boxing `WireMsg` would add an allocation to the hot
// path to save stack bytes nobody keeps.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum LazyMsg {
    /// A fully decoded message (everything that is not a `DBH2` registry).
    Eager(WireMsg),
    /// A recognised `DBH2` registry upload, still in frame-payload form.
    DeferredRegistry(RegistryFrame),
}

impl LazyMsg {
    /// Forces the message: deferred registries are materialised through the
    /// eager decoder (same validation, same errors), decoded messages pass
    /// through unchanged.
    pub fn force(self) -> Result<WireMsg, ProtocolError> {
        match self {
            LazyMsg::Eager(msg) => Ok(msg),
            LazyMsg::DeferredRegistry(frame) => Ok(WireMsg::Envelope {
                envelope: frame.materialize()?,
            }),
        }
    }
}

/// The one payload decode: turns `buf[payload]`, the payload of a frame in
/// `codec`, into a [`LazyMsg`].
///
/// This is the home of the registry-deferral rule: a `DBH2` payload whose
/// envelope prefix names an `EncryptedRegistry` comes back undecoded as
/// [`LazyMsg::DeferredRegistry`]; every other payload (and every malformed
/// prefix) goes through the eager decoder with its exact errors. A
/// deferred registry's ciphertext block is validated only when the
/// receiver decodes its view.
///
/// Eager payloads decode in place. A deferred payload takes its bytes: all
/// of `buf` (left empty; no copy) when the payload ends it, a copy
/// otherwise.
pub fn decode_lazy(
    codec: CodecKind,
    buf: &mut Vec<u8>,
    payload: Range<usize>,
) -> Result<LazyMsg, ProtocolError> {
    let bytes = &buf[payload.clone()];
    if codec == CodecKind::Binary && RegistryFrame::matches_prefix(bytes) {
        let owned = if payload.end == buf.len() {
            let mut taken = std::mem::take(buf);
            taken.drain(..payload.start);
            taken
        } else {
            bytes.to_vec()
        };
        let frame =
            RegistryFrame::try_from_payload(owned).expect("matches_prefix accepted this payload");
        return Ok(LazyMsg::DeferredRegistry(frame));
    }
    codec.decode(bytes).map(LazyMsg::Eager)
}

/// Decodes the protocol frame at the front of `frame`, the inner frame of
/// an opened seal, returning the message, the frame's bytes and its codec.
/// Errors are exactly those [`read_frame_lazy`] gives for the same bytes.
pub fn decode_frame(
    mut frame: Vec<u8>,
    max_frame_bytes: usize,
) -> Result<(LazyMsg, usize, CodecKind), ProtocolError> {
    let header = match check_header(&frame, max_frame_bytes, Accept::Protocol)? {
        Some(header) if frame.len() >= header.total() => header,
        Some(_) => return Err(ProtocolError::TruncatedFrame { context: "payload" }),
        None if frame.is_empty() => return Err(ProtocolError::Disconnected),
        None => return Err(ProtocolError::TruncatedFrame { context: "header" }),
    };
    let msg = decode_lazy(header.codec(), &mut frame, HEADER_BYTES..header.total())?;
    Ok((msg, header.total(), header.codec()))
}

// ------------------------------------------------------------------ encode

/// Encodes one payload, refusing it above `max_frame_bytes` before anything
/// is written — an oversized message never leaves a half-frame on a stream.
fn encode_payload(
    msg: &WireMsg,
    codec: CodecKind,
    max_frame_bytes: usize,
) -> Result<Vec<u8>, ProtocolError> {
    let payload = codec.encode(msg)?;
    if payload.len() > max_frame_bytes {
        return Err(ProtocolError::FrameTooLarge {
            len: payload.len(),
            max: max_frame_bytes,
        });
    }
    Ok(payload)
}

/// The one frame encode: appends `msg` to `out` as one frame in `codec`,
/// bare, or sealed into a `DBHE` frame when `channel` is up. Returns the
/// bytes of the inner protocol frame (what the protocol ledger meters) and
/// the bytes appended to `out` (what the wire carries). A payload above
/// `max_frame_bytes` is refused before anything is appended.
pub fn append_frame(
    out: &mut Vec<u8>,
    msg: &WireMsg,
    codec: CodecKind,
    max_frame_bytes: usize,
    channel: Option<&mut SecureChannel>,
) -> Result<(usize, usize), ProtocolError> {
    let payload = encode_payload(msg, codec, max_frame_bytes)?;
    let inner_len = HEADER_BYTES + payload.len();
    let Some(channel) = channel else {
        out.extend_from_slice(&frame_header(codec.magic(), payload.len()));
        out.extend_from_slice(&payload);
        return Ok((inner_len, inner_len));
    };
    let mut inner = Vec::with_capacity(inner_len);
    inner.extend_from_slice(&frame_header(codec.magic(), payload.len()));
    inner.extend_from_slice(&payload);
    let start = out.len();
    channel.seal_into(out, &inner);
    Ok((inner_len, out.len() - start))
}

/// Writes one frame in the given codec, returning the total bytes put on
/// the wire (header included) so callers can meter real frame traffic.
/// Enforces the default [`MAX_FRAME_BYTES`]; use
/// [`write_frame_limited`] to enforce a configured limit.
pub fn write_frame_with<W: Write>(
    w: &mut W,
    msg: &WireMsg,
    codec: CodecKind,
) -> Result<usize, ProtocolError> {
    write_frame_limited(w, msg, codec, MAX_FRAME_BYTES)
}

/// [`write_frame_with`] with a caller-configured payload ceiling (see
/// [`TcpConfig`](super::tcp::TcpConfig)): a payload above `max_frame_bytes`
/// is refused *before* anything is written, so an oversized message never
/// leaves a half-frame on the stream.
pub fn write_frame_limited<W: Write>(
    w: &mut W,
    msg: &WireMsg,
    codec: CodecKind,
    max_frame_bytes: usize,
) -> Result<usize, ProtocolError> {
    let payload = encode_payload(msg, codec, max_frame_bytes)?;
    w.write_all(&frame_header(codec.magic(), payload.len()))
        .map_err(|e| io_error("write frame header", e))?;
    w.write_all(&payload)
        .map_err(|e| io_error("write frame payload", e))?;
    w.flush().map_err(|e| io_error("flush frame", e))?;
    Ok(HEADER_BYTES + payload.len())
}

/// Writes one `DBH1` (JSON) frame — the compatibility default (see
/// [`JsonCodec`](super::codec::JsonCodec) for the exact compatibility
/// scope).
pub fn write_frame<W: Write>(w: &mut W, msg: &WireMsg) -> Result<usize, ProtocolError> {
    write_frame_with(w, msg, CodecKind::Json)
}

// ------------------------------------------------------------ blocking read

/// Reads exactly `buf.len()` bytes. `at_frame_start` distinguishes a clean
/// close (EOF before any byte of this frame → [`ProtocolError::Disconnected`])
/// from a cut-off frame ([`ProtocolError::TruncatedFrame`]).
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    context: &'static str,
    at_frame_start: bool,
) -> Result<(), ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_frame_start && filled == 0 {
                    ProtocolError::Disconnected
                } else {
                    ProtocolError::TruncatedFrame { context }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                return Err(if at_frame_start && filled == 0 {
                    ProtocolError::Disconnected
                } else {
                    ProtocolError::TruncatedFrame { context }
                });
            }
            Err(e) => return Err(io_error("read frame", e)),
        }
    }
    Ok(())
}

/// Reads one frame header off a blocking stream through [`check_header`]:
/// the magic is checked before the length is read.
fn read_header<R: Read>(
    r: &mut R,
    max_frame_bytes: usize,
    accept: Accept,
) -> Result<([u8; HEADER_BYTES], FrameHeader), ProtocolError> {
    let mut head = [0u8; HEADER_BYTES];
    read_exact_or(r, &mut head[..4], "header", true)?;
    check_header(&head[..4], max_frame_bytes, accept)?;
    read_exact_or(r, &mut head[4..], "header", false)?;
    let header = check_header(&head, max_frame_bytes, accept)?.expect("a whole header");
    Ok((head, header))
}

/// Reads one frame in whichever codec its magic announces, returning the
/// message, the total bytes consumed, and the negotiated codec — the
/// listener replies in the same codec, which is the whole per-connection
/// negotiation. The announced length is checked against `max_frame_bytes`
/// (see [`TcpConfig`](super::tcp::TcpConfig)) before the payload buffer is
/// allocated.
///
/// Never panics and never reads past the frame: unknown magics, oversized
/// lengths, truncation, disconnects and undecodable payloads each map to
/// their own [`ProtocolError`] variant.
pub fn read_frame_limited<R: Read>(
    r: &mut R,
    max_frame_bytes: usize,
) -> Result<(WireMsg, usize, CodecKind), ProtocolError> {
    let (msg, bytes, codec) = read_frame_lazy(r, max_frame_bytes)?;
    Ok((msg.force()?, bytes, codec))
}

/// Reads one frame of either codec under the default [`MAX_FRAME_BYTES`],
/// returning the message and the total bytes consumed.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(WireMsg, usize), ProtocolError> {
    read_frame_limited(r, MAX_FRAME_BYTES).map(|(msg, n, _)| (msg, n))
}

/// [`read_frame_limited`], but the payload goes through [`decode_lazy`]:
/// `DBH2` registry payloads come back *undecoded* as
/// [`LazyMsg::DeferredRegistry`] so the receiver can fold them straight out
/// of the payload bytes.
pub fn read_frame_lazy<R: Read>(
    r: &mut R,
    max_frame_bytes: usize,
) -> Result<(LazyMsg, usize, CodecKind), ProtocolError> {
    let (_, header) = read_header(r, max_frame_bytes, Accept::Protocol)?;
    let mut payload = vec![0u8; header.len];
    read_exact_or(r, &mut payload, "payload", false)?;
    let msg = decode_lazy(header.codec(), &mut payload, 0..header.len)?;
    Ok((msg, header.total(), header.codec()))
}

// ---------------------------------------------------------- channel frames

/// One frame pulled off a channel-aware socket, still undecoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelFrame {
    /// A `DBHS` handshake message.
    Handshake(Vec<u8>),
    /// A `DBHE` sealed payload (`seq || ciphertext || tag`).
    Sealed(Vec<u8>),
    /// A plaintext protocol frame (`DBH1`/`DBH2`): the *entire* frame
    /// bytes, header included, so a `Plaintext`-policy caller can re-parse
    /// it with the ordinary wire readers.
    Plaintext {
        /// The plaintext codec the magic announced.
        codec: CodecKind,
        /// The full frame (magic + length + payload).
        frame: Vec<u8>,
    },
}

impl ChannelFrame {
    /// The handshake-phase rule: before the channel is up only `DBHS`
    /// frames are legal. A plaintext protocol frame is a downgrade attempt
    /// ([`ProtocolError::DowngradeRefused`]); a sealed frame is out of phase
    /// ([`ProtocolError::AuthFailure`]).
    pub fn into_handshake(self) -> Result<Vec<u8>, ProtocolError> {
        match self {
            ChannelFrame::Handshake(payload) => Ok(payload),
            ChannelFrame::Plaintext { codec, .. } => Err(ProtocolError::DowngradeRefused {
                magic: codec.magic(),
            }),
            ChannelFrame::Sealed(_) => Err(ProtocolError::AuthFailure {
                detail: "sealed frame before the handshake finished".to_string(),
            }),
        }
    }

    /// The sealed-only rule of an established channel: only `DBHE` frames
    /// are legal. A plaintext protocol frame is a downgrade (or an
    /// unauthenticated splice, [`ProtocolError::DowngradeRefused`]); a
    /// handshake frame is out of phase ([`ProtocolError::AuthFailure`]).
    pub fn into_sealed(self) -> Result<Vec<u8>, ProtocolError> {
        match self {
            ChannelFrame::Sealed(payload) => Ok(payload),
            ChannelFrame::Plaintext { codec, .. } => Err(ProtocolError::DowngradeRefused {
                magic: codec.magic(),
            }),
            ChannelFrame::Handshake(_) => Err(ProtocolError::AuthFailure {
                detail: "handshake frame after the channel was established".to_string(),
            }),
        }
    }
}

/// Reads one frame of *any* known magic — handshake, sealed or plaintext —
/// returning it with the total bytes consumed. This is the read primitive
/// of channel-aware blocking paths: the caller decides which variants its
/// policy and phase accept ([`ChannelFrame::into_handshake`],
/// [`ChannelFrame::into_sealed`]). The header goes through
/// [`check_header`]: bad magic is refused before the length is read, and
/// the length before the payload is allocated.
pub fn read_channel_frame<R: Read>(
    r: &mut R,
    max_frame_bytes: usize,
) -> Result<(ChannelFrame, usize), ProtocolError> {
    let (head, header) = read_header(r, max_frame_bytes, Accept::Channel)?;
    let kept_head = &head[header.kept_from()..];
    let mut kept = vec![0u8; kept_head.len() + header.len];
    kept[..kept_head.len()].copy_from_slice(kept_head);
    read_exact_or(r, &mut kept[kept_head.len()..], "payload", false)?;
    Ok((header.channel_frame(kept), header.total()))
}

/// The clients' receive on an established channel: `frame` must be sealed
/// ([`ChannelFrame::into_sealed`]), must open under `channel` (a tampered,
/// replayed or reordered seal is a typed error), and carries one inner
/// protocol frame. Returns the reply and the inner frame's bytes.
pub fn open_reply(
    channel: &mut SecureChannel,
    frame: ChannelFrame,
    max_frame_bytes: usize,
) -> Result<(WireMsg, usize), ProtocolError> {
    let inner = channel.open_payload(&frame.into_sealed()?)?;
    let (msg, bytes, _) = decode_frame(inner, max_frame_bytes)?;
    Ok((msg.force()?, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::message::{Party, ProtocolMsg};

    fn verdict_envelope() -> Envelope {
        Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 3,
            msg: ProtocolMsg::TryVerdict {
                best_try: 1,
                distance: 0.5,
            },
        }
    }

    #[test]
    fn frames_round_trip() {
        let msgs = vec![
            WireMsg::Envelope {
                envelope: verdict_envelope(),
            },
            WireMsg::AnnounceTry {
                try_index: 2,
                participants: vec![0, 3, 7],
            },
            WireMsg::BeginEpoch {
                epoch: 4,
                expected_registrations: 12,
            },
            WireMsg::CloseRegistration,
            WireMsg::CloseTry { try_index: 5 },
            WireMsg::Batch {
                envelopes: vec![verdict_envelope(), verdict_envelope()],
            },
            WireMsg::Ack,
            WireMsg::Error {
                detail: "nope".to_string(),
            },
            WireMsg::Shutdown,
        ];
        let mut buf = Vec::new();
        let mut written = 0;
        for m in &msgs {
            written += write_frame(&mut buf, m).unwrap();
        }
        assert_eq!(written, buf.len());
        let mut cursor = &buf[..];
        for m in &msgs {
            let (back, _) = read_frame(&mut cursor).unwrap();
            assert_eq!(&back, m);
        }
        // The stream ends cleanly between frames.
        assert_eq!(read_frame(&mut cursor), Err(ProtocolError::Disconnected));
    }

    #[test]
    fn bad_magic_is_malformed_not_a_panic() {
        let garbage = b"HTTP/1.1 200 OK\r\n\r\n";
        let err = read_frame(&mut &garbage[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::FrameTooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_BYTES,
            }
        );
    }

    #[test]
    fn truncation_points_are_distinguished_from_clean_close() {
        let mut full = Vec::new();
        write_frame(&mut full, &WireMsg::Ack).unwrap();
        // Cut inside the magic, inside the length, and inside the payload.
        for cut in [2, 6, full.len() - 1] {
            let err = read_frame(&mut &full[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::TruncatedFrame { .. }),
                "cut at {cut}: {err}"
            );
        }
        // Zero bytes: a clean close.
        assert_eq!(
            read_frame(&mut &full[..0]),
            Err(ProtocolError::Disconnected)
        );
    }

    #[test]
    fn undecodable_payload_is_malformed() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        let payload = b"{\"not\": \"a wire message\"}";
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(payload);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
    }

    #[test]
    fn frames_negotiate_their_codec_from_the_magic() {
        let msg = WireMsg::AnnounceTry {
            try_index: 1,
            participants: vec![2, 4],
        };
        let mut buf = Vec::new();
        let n1 = write_frame_with(&mut buf, &msg, CodecKind::Json).unwrap();
        let n2 = write_frame_with(&mut buf, &msg, CodecKind::Binary).unwrap();
        assert_eq!(buf[..4], FRAME_MAGIC);
        assert_eq!(buf[n1..n1 + 4], FRAME_MAGIC_V2);

        let mut cursor = &buf[..];
        let (m1, r1, c1) = read_frame_limited(&mut cursor, MAX_FRAME_BYTES).unwrap();
        let (m2, r2, c2) = read_frame_limited(&mut cursor, MAX_FRAME_BYTES).unwrap();
        assert_eq!((m1, r1, c1), (msg.clone(), n1, CodecKind::Json));
        assert_eq!((m2, r2, c2), (msg, n2, CodecKind::Binary));
        assert_eq!(
            read_frame_limited(&mut cursor, MAX_FRAME_BYTES),
            Err(ProtocolError::Disconnected)
        );
    }

    #[test]
    fn lazy_reads_defer_binary_registries_and_nothing_else() {
        use dubhe_he::{EncryptedVector, Keypair};
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let kp = Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        let registry = WireMsg::Envelope {
            envelope: Envelope {
                from: Party::Client(2),
                to: Party::Server,
                epoch: 1,
                msg: ProtocolMsg::EncryptedRegistry {
                    client: 2,
                    registry: EncryptedVector::encrypt_u64(&kp.public, &[1, 0, 3], &mut rng),
                },
            },
        };

        // A DBH2 registry comes back deferred, with the same byte count the
        // eager reader charges, and forces to the identical message.
        let mut buf = Vec::new();
        let written = write_frame_with(&mut buf, &registry, CodecKind::Binary).unwrap();
        let (lazy, bytes, codec) = read_frame_lazy(&mut &buf[..], MAX_FRAME_BYTES).unwrap();
        assert_eq!((bytes, codec), (written, CodecKind::Binary));
        assert!(matches!(lazy, LazyMsg::DeferredRegistry(_)));
        assert_eq!(lazy.force().unwrap(), registry);

        // The same message over DBH1 decodes eagerly — deferral is a
        // binary-layout optimisation, never a JSON one.
        let mut buf = Vec::new();
        write_frame_with(&mut buf, &registry, CodecKind::Json).unwrap();
        let (lazy, _, codec) = read_frame_lazy(&mut &buf[..], MAX_FRAME_BYTES).unwrap();
        assert_eq!(codec, CodecKind::Json);
        assert!(matches!(lazy, LazyMsg::Eager(ref m) if *m == registry));

        // Non-registry binary frames decode eagerly too.
        let mut buf = Vec::new();
        write_frame_with(
            &mut buf,
            &WireMsg::Envelope {
                envelope: verdict_envelope(),
            },
            CodecKind::Binary,
        )
        .unwrap();
        let (lazy, _, _) = read_frame_lazy(&mut &buf[..], MAX_FRAME_BYTES).unwrap();
        assert!(matches!(lazy, LazyMsg::Eager(WireMsg::Envelope { .. })));

        // Error paths are byte-for-byte the eager reader's: truncation,
        // oversized lengths, bad magic.
        let mut full = Vec::new();
        write_frame_with(&mut full, &registry, CodecKind::Binary).unwrap();
        for cut in [2, 6, full.len() - 1] {
            let lazy_err = read_frame_lazy(&mut &full[..cut], MAX_FRAME_BYTES).unwrap_err();
            let eager_err = read_frame_limited(&mut &full[..cut], MAX_FRAME_BYTES).unwrap_err();
            assert_eq!(lazy_err, eager_err, "cut at {cut}");
        }
        assert_eq!(
            read_frame_lazy(&mut &full[..], 16).unwrap_err(),
            ProtocolError::FrameTooLarge {
                len: full.len() - 8,
                max: 16
            }
        );
    }

    #[test]
    fn dbh2_error_paths_mirror_the_dbh1_suite() {
        // Oversized length: rejected before allocating.
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC_V2);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            read_frame(&mut &buf[..]).unwrap_err(),
            ProtocolError::FrameTooLarge {
                len: u32::MAX as usize,
                max: MAX_FRAME_BYTES,
            }
        );

        // Truncation inside magic, length, and payload.
        let mut full = Vec::new();
        write_frame_with(&mut full, &WireMsg::Ack, CodecKind::Binary).unwrap();
        for cut in [2, 6, full.len() - 1] {
            let err = read_frame(&mut &full[..cut]).unwrap_err();
            assert!(
                matches!(err, ProtocolError::TruncatedFrame { .. }),
                "cut at {cut}: {err}"
            );
        }

        // A DBH2 magic carrying a JSON payload is malformed, not a panic:
        // the magic commits the decoder to the binary layout.
        let payload = serde_json::to_string(&WireMsg::Ack).unwrap().into_bytes();
        let mut mixed = Vec::new();
        mixed.extend_from_slice(&FRAME_MAGIC_V2);
        mixed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        mixed.extend_from_slice(&payload);
        let err = read_frame(&mut &mixed[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");

        // An unknown magic version is refused by name.
        let err = read_frame(&mut &b"DBH3\x00\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, ProtocolError::MalformedFrame { .. }), "{err}");
    }

    #[test]
    fn configured_frame_limits_bound_both_directions() {
        // A frame that fits the default limit but not a configured one is
        // refused on read, before the payload buffer is allocated…
        let mut full = Vec::new();
        write_frame_with(
            &mut full,
            &WireMsg::Error {
                detail: "x".repeat(100),
            },
            CodecKind::Binary,
        )
        .unwrap();
        let err = read_frame_limited(&mut &full[..], 16).unwrap_err();
        assert!(
            matches!(err, ProtocolError::FrameTooLarge { max: 16, .. }),
            "{err}"
        );

        // …and on write, before anything reaches the stream.
        let mut sink = Vec::new();
        let err = write_frame_limited(
            &mut sink,
            &WireMsg::Error {
                detail: "y".repeat(100),
            },
            CodecKind::Binary,
            16,
        )
        .unwrap_err();
        assert!(
            matches!(err, ProtocolError::FrameTooLarge { max: 16, .. }),
            "{err}"
        );
        assert!(sink.is_empty(), "nothing may be written before the check");

        // A generous configured limit behaves like the default.
        let (msg, _, _) = read_frame_limited(&mut &full[..], MAX_FRAME_BYTES).unwrap();
        assert!(matches!(msg, WireMsg::Error { .. }));
    }
}
