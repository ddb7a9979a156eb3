//! Incremental frame reassembly for non-blocking sockets.
//!
//! A blocking reader can hand `read_frame_limited` the stream and let it
//! block until a whole frame arrives; an event loop cannot — it gets bytes
//! in whatever slices the kernel delivers (a header split across two reads,
//! a byte-at-a-time slow-loris, three pipelined frames in one burst) and
//! must never block. [`FrameBuffer`] bridges the two worlds: feed it raw
//! bytes as they arrive, pull complete [`WireMsg`]s out as they become
//! parseable. Validation order matches the blocking path — magic before
//! length, announced length against the ceiling *before* buffering a
//! payload — so a hostile header is refused after at most 8 bytes, with the
//! same typed [`ProtocolError`]s the blocking reader produces.

use dubhe_select::protocol::channel::{
    ChannelFrame, FRAME_MAGIC_HANDSHAKE, FRAME_MAGIC_SEALED, SEALED_FRAME_OVERHEAD,
};
use dubhe_select::protocol::codec::{CodecKind, RegistryFrame};
use dubhe_select::protocol::wire::{read_frame_limited, LazyMsg};
use dubhe_select::protocol::WireMsg;
use dubhe_select::ProtocolError;

/// Magic (4) + big-endian payload length (4).
pub(crate) const HEADER_BYTES: usize = 8;

/// Bytes of already-parsed prefix tolerated before the buffer compacts.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Reassembles length-prefixed `DBH1`/`DBH2` frames from arbitrary byte
/// slices. One per connection.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Start of the unparsed suffix in `buf`.
    pos: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet consumed by a complete frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if a frame has started arriving but is not complete yet — the
    /// state in which a peer cutting off (or stalling past the read
    /// timeout) means a *truncated* frame rather than a clean close.
    pub fn is_mid_frame(&self) -> bool {
        self.pending_bytes() > 0
    }

    /// Pulls the next complete frame, if one has fully arrived.
    ///
    /// `Ok(None)` means "need more bytes"; errors are terminal for the
    /// connection (framing is lost once a header is bad — same contract as
    /// the blocking reader).
    pub fn next_frame(
        &mut self,
        max_frame_bytes: usize,
    ) -> Result<Option<(WireMsg, usize, CodecKind)>, ProtocolError> {
        let avail = &self.buf[self.pos..];
        // Validate the magic as soon as it is complete: garbage is refused
        // after 4 bytes, not held until a phantom "length" dribbles in.
        if avail.len() >= 4
            && CodecKind::from_magic([avail[0], avail[1], avail[2], avail[3]]).is_none()
        {
            return Err(ProtocolError::MalformedFrame {
                detail: format!(
                    "bad magic {:02x?}, expected DBH1, DBH2 or DBHZ",
                    &avail[..4]
                ),
            });
        }
        if avail.len() < HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
        if len > max_frame_bytes {
            return Err(ProtocolError::FrameTooLarge {
                len,
                max: max_frame_bytes,
            });
        }
        let total = HEADER_BYTES + len;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = read_frame_limited(&mut &avail[..total], max_frame_bytes)?;
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(frame))
    }

    /// [`next_frame`](Self::next_frame), but `DBH2` registry uploads come
    /// back *undecoded* as [`LazyMsg::DeferredRegistry`] — the router folds
    /// their ciphertext block straight out of the payload bytes instead of
    /// materialising per-element bignums on the event loop. Every other
    /// frame decodes eagerly with identical validation and errors.
    ///
    /// The deferral check runs on the borrowed reassembly buffer; only a
    /// recognised registry's payload is copied out (and when the frame is
    /// the buffer's sole content, the buffer itself is taken — no copy).
    pub fn next_frame_lazy(
        &mut self,
        max_frame_bytes: usize,
    ) -> Result<Option<(LazyMsg, usize, CodecKind)>, ProtocolError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_BYTES {
            return self
                .next_frame(max_frame_bytes)
                .map(|f| f.map(|(msg, n, c)| (LazyMsg::Eager(msg), n, c)));
        }
        let len = u32::from_be_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
        let total = HEADER_BYTES + len;
        let is_deferrable = CodecKind::from_magic([avail[0], avail[1], avail[2], avail[3]])
            == Some(CodecKind::Binary)
            && len <= max_frame_bytes
            && avail.len() >= total
            && RegistryFrame::matches_prefix(&avail[HEADER_BYTES..total]);
        if !is_deferrable {
            return self
                .next_frame(max_frame_bytes)
                .map(|f| f.map(|(msg, n, c)| (LazyMsg::Eager(msg), n, c)));
        }
        let payload = if self.pos == 0 && self.buf.len() == total {
            // The frame is the buffer's whole content: take it, shave the
            // header — zero copies of the (dominant) ciphertext block.
            let mut taken = std::mem::take(&mut self.buf);
            taken.drain(..HEADER_BYTES);
            taken
        } else {
            let payload = self.buf[self.pos + HEADER_BYTES..self.pos + total].to_vec();
            self.pos += total;
            if self.pos == self.buf.len() {
                self.buf.clear();
                self.pos = 0;
            } else if self.pos > COMPACT_THRESHOLD {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
            payload
        };
        let frame =
            RegistryFrame::try_from_payload(payload).expect("matches_prefix accepted this payload");
        Ok(Some((
            LazyMsg::DeferredRegistry(frame),
            total,
            CodecKind::Binary,
        )))
    }

    /// Pulls the next frame of *any* known magic — `DBHS` handshake, `DBHE`
    /// sealed or plaintext protocol — still undecoded, as a
    /// [`ChannelFrame`]. The nonblocking twin of
    /// [`read_channel_frame`](dubhe_select::protocol::channel::read_channel_frame):
    /// the reactor's pre-protocol handshake phase and its sealed sessions
    /// pull through this, and the caller decides which variants its policy
    /// and phase accept. Same contract as [`next_frame`](Self::next_frame):
    /// magic validated after 4 bytes, announced length checked against the
    /// ceiling *before* buffering (sealed frames may exceed the inner
    /// ceiling by exactly the seal), `Ok(None)` means "need more bytes".
    pub fn next_channel_frame(
        &mut self,
        max_frame_bytes: usize,
    ) -> Result<Option<(ChannelFrame, usize)>, ProtocolError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let magic = [avail[0], avail[1], avail[2], avail[3]];
        let known = magic == FRAME_MAGIC_HANDSHAKE
            || magic == FRAME_MAGIC_SEALED
            || CodecKind::from_magic(magic).is_some();
        if !known {
            return Err(ProtocolError::MalformedFrame {
                detail: format!("bad magic {magic:02x?}, expected DBH1, DBH2, DBHZ, DBHS or DBHE"),
            });
        }
        if avail.len() < HEADER_BYTES {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[4], avail[5], avail[6], avail[7]]) as usize;
        let ceiling = max_frame_bytes + SEALED_FRAME_OVERHEAD;
        if len > ceiling {
            return Err(ProtocolError::FrameTooLarge {
                len,
                max: max_frame_bytes,
            });
        }
        let total = HEADER_BYTES + len;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = if magic == FRAME_MAGIC_HANDSHAKE {
            ChannelFrame::Handshake(avail[HEADER_BYTES..total].to_vec())
        } else if magic == FRAME_MAGIC_SEALED {
            ChannelFrame::Sealed(avail[HEADER_BYTES..total].to_vec())
        } else {
            ChannelFrame::Plaintext {
                codec: CodecKind::from_magic(magic).expect("validated above"),
                frame: avail[..total].to_vec(),
            }
        };
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some((frame, total)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dubhe_select::protocol::write_frame_with;

    fn encode(msg: &WireMsg, codec: CodecKind) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame_with(&mut out, msg, codec).unwrap();
        out
    }

    #[test]
    fn reassembles_byte_at_a_time_and_pipelined_frames() {
        let a = encode(&WireMsg::Ack, CodecKind::Json);
        let b = encode(&WireMsg::CloseRegistration, CodecKind::Binary);
        let mut fb = FrameBuffer::new();
        // Slow-loris: one byte per feed, frame completes only on the last.
        for &byte in &a {
            assert!(fb.next_frame(1024).is_ok());
            fb.extend(&[byte]);
        }
        let (msg, bytes, codec) = fb.next_frame(1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::Ack));
        assert_eq!(bytes, a.len());
        assert_eq!(codec, CodecKind::Json);
        assert!(!fb.is_mid_frame());
        // Two pipelined frames in one burst, mixed codecs.
        let mut burst = b.clone();
        burst.extend_from_slice(&a);
        fb.extend(&burst);
        let (msg, _, codec) = fb.next_frame(1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::CloseRegistration));
        assert_eq!(codec, CodecKind::Binary);
        assert!(fb.is_mid_frame());
        let (msg, _, _) = fb.next_frame(1024).unwrap().unwrap();
        assert!(matches!(msg, WireMsg::Ack));
        assert_eq!(fb.next_frame(1024).unwrap(), None);
    }

    #[test]
    fn bad_magic_and_oversized_length_fail_fast() {
        let mut fb = FrameBuffer::new();
        fb.extend(b"HTTP");
        assert!(matches!(
            fb.next_frame(1024),
            Err(ProtocolError::MalformedFrame { .. })
        ));
        let mut fb = FrameBuffer::new();
        fb.extend(b"DBH1");
        fb.extend(&u32::MAX.to_be_bytes());
        assert!(matches!(
            fb.next_frame(1024),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn header_split_across_feeds_waits_for_completion() {
        let frame = encode(&WireMsg::Ack, CodecKind::Binary);
        let mut fb = FrameBuffer::new();
        fb.extend(&frame[..3]); // partial magic
        assert_eq!(fb.next_frame(1024).unwrap(), None);
        assert!(fb.is_mid_frame());
        fb.extend(&frame[3..6]); // magic complete, length partial
        assert_eq!(fb.next_frame(1024).unwrap(), None);
        fb.extend(&frame[6..]);
        assert!(fb.next_frame(1024).unwrap().is_some());
    }

    fn registry_msg() -> WireMsg {
        use dubhe_select::protocol::{Envelope, Party, ProtocolMsg};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let kp = dubhe_he::Keypair::generate(dubhe_he::TEST_KEY_BITS, &mut rng);
        WireMsg::Envelope {
            envelope: Envelope {
                from: Party::Client(4),
                to: Party::Server,
                epoch: 2,
                msg: ProtocolMsg::EncryptedRegistry {
                    client: 4,
                    registry: dubhe_he::EncryptedVector::encrypt_u64(
                        &kp.public,
                        &[1, 0, 2],
                        &mut rng,
                    ),
                },
            },
        }
    }

    #[test]
    fn lazy_pull_defers_registries_in_every_buffer_shape() {
        let registry = registry_msg();
        let frame = encode(&registry, CodecKind::Binary);
        let max = frame.len() * 4;

        // Sole content of the buffer: the zero-copy take path.
        let mut fb = FrameBuffer::new();
        fb.extend(&frame);
        let (lazy, bytes, codec) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert_eq!((bytes, codec), (frame.len(), CodecKind::Binary));
        assert!(matches!(lazy, LazyMsg::DeferredRegistry(_)));
        assert_eq!(lazy.force().unwrap(), registry);
        assert!(!fb.is_mid_frame());

        // Byte-at-a-time: defers only once the frame completes.
        let mut fb = FrameBuffer::new();
        for &byte in &frame {
            assert!(fb.next_frame_lazy(max).unwrap().is_none());
            fb.extend(&[byte]);
        }
        let (lazy, _, _) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert_eq!(lazy.force().unwrap(), registry);

        // Pipelined behind and ahead of eager frames: the registry mid-
        // buffer takes the copy path, neighbours stay eager, order holds.
        let ack = encode(&WireMsg::Ack, CodecKind::Binary);
        let mut fb = FrameBuffer::new();
        fb.extend(&ack);
        fb.extend(&frame);
        fb.extend(&ack);
        let (lazy, _, _) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert!(matches!(lazy, LazyMsg::Eager(WireMsg::Ack)));
        let (lazy, _, _) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert!(matches!(lazy, LazyMsg::DeferredRegistry(_)));
        assert_eq!(lazy.force().unwrap(), registry);
        let (lazy, _, _) = fb.next_frame_lazy(max).unwrap().unwrap();
        assert!(matches!(lazy, LazyMsg::Eager(WireMsg::Ack)));
        assert!(fb.next_frame_lazy(max).unwrap().is_none());
    }

    #[test]
    fn channel_pull_classifies_every_magic_and_keeps_the_error_contract() {
        use dubhe_select::protocol::channel::write_handshake_frame;

        // A handshake frame, a sealed frame and a plaintext frame pipelined
        // in one burst classify in order, byte-at-a-time included.
        let mut hs = Vec::new();
        write_handshake_frame(&mut hs, &[7u8; 64]).unwrap();
        let mut sealed = Vec::new();
        sealed.extend_from_slice(&FRAME_MAGIC_SEALED);
        sealed.extend_from_slice(&(24u32).to_be_bytes());
        sealed.extend_from_slice(&[9u8; 24]);
        let plain = encode(&WireMsg::Ack, CodecKind::Binary);
        let mut burst = hs.clone();
        burst.extend_from_slice(&sealed);
        burst.extend_from_slice(&plain);

        let mut fb = FrameBuffer::new();
        for &byte in &burst[..hs.len()] {
            assert!(fb.next_channel_frame(1024).unwrap().is_none());
            fb.extend(&[byte]);
        }
        fb.extend(&burst[hs.len()..]);
        let (frame, n) = fb.next_channel_frame(1024).unwrap().unwrap();
        assert_eq!(frame, ChannelFrame::Handshake(vec![7u8; 64]));
        assert_eq!(n, hs.len());
        let (frame, _) = fb.next_channel_frame(1024).unwrap().unwrap();
        assert_eq!(frame, ChannelFrame::Sealed(vec![9u8; 24]));
        let (frame, _) = fb.next_channel_frame(1024).unwrap().unwrap();
        assert!(
            matches!(frame, ChannelFrame::Plaintext { codec: CodecKind::Binary, ref frame } if *frame == plain)
        );
        assert!(fb.next_channel_frame(1024).unwrap().is_none());
        assert!(!fb.is_mid_frame());

        // Unknown magic refused after 4 bytes; a sealed frame may exceed the
        // inner ceiling by exactly the seal, but no more.
        let mut fb = FrameBuffer::new();
        fb.extend(b"HTTP");
        assert!(matches!(
            fb.next_channel_frame(1024),
            Err(ProtocolError::MalformedFrame { .. })
        ));
        let mut fb = FrameBuffer::new();
        fb.extend(&FRAME_MAGIC_SEALED);
        fb.extend(&((64 + SEALED_FRAME_OVERHEAD) as u32).to_be_bytes());
        assert!(fb.next_channel_frame(64).unwrap().is_none()); // exactly at ceiling: wait
        let mut fb = FrameBuffer::new();
        fb.extend(&FRAME_MAGIC_SEALED);
        fb.extend(&((65 + SEALED_FRAME_OVERHEAD) as u32).to_be_bytes());
        assert!(matches!(
            fb.next_channel_frame(64),
            Err(ProtocolError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn lazy_pull_keeps_the_eager_error_contract() {
        let registry = registry_msg();
        let frame = encode(&registry, CodecKind::Binary);

        // Over the ceiling: refused with the same typed error, even though
        // the payload would have matched the registry prefix.
        let mut fb = FrameBuffer::new();
        fb.extend(&frame);
        assert!(matches!(
            fb.next_frame_lazy(16),
            Err(ProtocolError::FrameTooLarge { max: 16, .. })
        ));

        // Bad magic: refused after four bytes, exactly like next_frame.
        let mut fb = FrameBuffer::new();
        fb.extend(b"HTTPxxxx");
        assert!(matches!(
            fb.next_frame_lazy(1024),
            Err(ProtocolError::MalformedFrame { .. })
        ));

        // A corrupted ciphertext block still defers (the prefix is intact);
        // the typed error surfaces at view time in the router, not here —
        // but a corrupted *prefix* falls back to the eager decoder's error.
        let mut corrupt = frame.clone();
        let len = corrupt.len();
        corrupt[len - 1] ^= 0xFF;
        let mut fb = FrameBuffer::new();
        fb.extend(&corrupt);
        assert!(fb.next_frame_lazy(len * 2).unwrap().is_some());

        let mut bad_prefix = frame;
        bad_prefix[8] = 9; // unknown envelope tag
        let mut fb = FrameBuffer::new();
        fb.extend(&bad_prefix);
        assert!(matches!(
            fb.next_frame_lazy(1024 * 1024),
            Err(ProtocolError::MalformedFrame { .. })
        ));
    }
}
