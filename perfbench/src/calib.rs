//! Isolated per-operation costs of the layers a registry crosses on the
//! wire: encode, seal, open, decode, fold. Each is timed on its own, away
//! from sockets and threads, at the workload's own frame size.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::Instant;

use dubhe_he::{EncryptedVector, RunningFold};
use dubhe_select::protocol::{
    client_handshake, read_channel_frame, write_frame_limited, ChannelFrame, CodecKind, Envelope,
    NodeIdentity, RegistryFrame, SecureChannel, ServerHandshake, WireMsg, MAX_FRAME_BYTES,
};

use crate::stats::median;

/// A connected client/server channel pair over an in-process socket pair.
/// The server side runs the listener's handshake state machine.
pub fn channel_pair(seed: u64) -> (SecureChannel, SecureChannel) {
    let (mut a, mut b) = UnixStream::pair().expect("socket pair");
    let server = NodeIdentity::from_seed(seed ^ 0xCA11_B4A7);
    let pin = server.public_bytes();
    let handle = std::thread::spawn(move || {
        let mut hs = ServerHandshake::new(server);
        loop {
            let (frame, _) = read_channel_frame(&mut b, MAX_FRAME_BYTES).expect("handshake frame");
            let ChannelFrame::Handshake(payload) = frame else {
                panic!("client sent a non-handshake frame");
            };
            let step = hs.on_payload(&payload).expect("server handshake step");
            if let Some(reply) = step.reply {
                b.write_all(&reply).expect("handshake reply");
            }
            if let Some(channel) = step.established {
                return channel;
            }
        }
    });
    let client = client_handshake(
        &mut a,
        &NodeIdentity::from_seed(seed),
        Some(pin),
        MAX_FRAME_BYTES,
    )
    .expect("client handshake");
    let server = handle.join().expect("handshake thread");
    (client, server)
}

/// Median microseconds per call of each stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct Costs {
    pub encode_us: f64,
    pub seal_us: f64,
    pub open_us: f64,
    pub decode_us: f64,
    pub fold_us: f64,
}

impl Costs {
    pub fn total_us(&self) -> f64 {
        self.encode_us + self.seal_us + self.open_us + self.decode_us + self.fold_us
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Times each stage once per upload, over `uploads` (registry envelopes,
/// all under one key), and returns the medians.
pub fn registry_path(uploads: &[Envelope], seed: u64) -> Costs {
    let (mut client, mut server) = channel_pair(seed);
    let (mut enc, mut seal, mut open, mut dec, mut fold) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut acc: Option<RunningFold> = None;
    for envelope in uploads {
        let msg = WireMsg::Envelope {
            envelope: envelope.clone(),
        };
        let t = Instant::now();
        let mut inner = Vec::new();
        write_frame_limited(&mut inner, &msg, CodecKind::Binary, MAX_FRAME_BYTES)
            .expect("registry encodes");
        enc.push(us(t));
        let t = Instant::now();
        let sealed = client.seal_frame(&inner);
        seal.push(us(t));
        let t = Instant::now();
        let opened = server.open_payload(&sealed[8..]).expect("own seal opens");
        open.push(us(t));
        let payload = opened[8..].to_vec();
        let t = Instant::now();
        let frame = RegistryFrame::try_from_payload(payload).expect("registry frame defers");
        let view = frame.view().expect("valid residue block");
        dec.push(us(t));
        let t = Instant::now();
        match &mut acc {
            None => acc = Some(RunningFold::from_view(&view)),
            Some(f) => f.fold_view(&view).expect("same key and length"),
        }
        fold.push(us(t));
    }
    Costs {
        encode_us: median(&enc).unwrap_or(0.0),
        seal_us: median(&seal).unwrap_or(0.0),
        open_us: median(&open).unwrap_or(0.0),
        decode_us: median(&dec).unwrap_or(0.0),
        fold_us: median(&fold[1..]).unwrap_or(0.0),
    }
}

/// Median microseconds to fold one vector into a running sum.
pub fn fold_us(vectors: &[EncryptedVector], reps: usize) -> f64 {
    let mut acc = RunningFold::new(&vectors[0]);
    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        let t = Instant::now();
        acc.fold(&vectors[i % vectors.len()])
            .expect("same key and length");
        samples.push(us(t));
    }
    median(&samples).unwrap_or(0.0)
}
