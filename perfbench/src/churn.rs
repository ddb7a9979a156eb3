//! `checkin_churn`: devices check in one at a time.
//!
//! Each check-in is a fresh connection, the X25519 handshake, one sealed
//! upload of a 256-bit registry (length 56), its reply, then a polite close
//! (a sealed `Shutdown`, after which the listener hangs up first). A cohort
//! of 400 check-ins fills an epoch; the agent then reads the folded total
//! out and dispatches the next epoch's key over its own persistent sealed
//! connection. At most 2 connections are open at any time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dubhe_he::{EncryptedVector, Keypair, PrecomputedEncryptor};
use dubhe_net::{ReactorConfig, ReactorListener};
use dubhe_select::protocol::{
    client_handshake, read_channel_frame, read_frame_limited, write_frame_limited, ChannelFrame,
    ChannelPolicy, CodecKind, Envelope, NodeIdentity, Party, ProtocolMsg, SecureChannel,
    ShardedCoordinator, WireMsg, HANDSHAKE_WIRE_BYTES, MAX_FRAME_BYTES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Measured, Ops, Outcome};
use crate::stats::{median, tail};
use crate::sys::{proc_metrics, thread_cpu, Usage};
use crate::trace::{self_ns_each, Tracer};
use crate::{calib, ms, repeat_set_up, Args};

const KEY_BITS: u64 = 256;
const COHORT: usize = 400;
/// One fold: uploads are small, so a per-check-in shard fan-out would only add
/// thread wake-ups to a workload meant to load the channel set-up.
const SHARDS: usize = 1;
const REGISTRY_LEN: usize = 56;
/// Epoch keys generated in set-up; epochs cycle through them.
const KEY_POOL: usize = 4;
/// Distinct pre-encrypted registries per key; devices cycle through them.
const POOL: usize = 8;
const SALT: u64 = 0x000C_4EC1;

const CONNECT: &str = "net.connect";
const HANDSHAKE: &str = "protocol.handshake";
const ENCODE: &str = "protocol.encode";
const SEAL: &str = "protocol.seal";
const EXCHANGE: &str = "net.exchange";
const OPEN: &str = "protocol.open";
const DECODE: &str = "protocol.decode";
const CLOSE: &str = "net.close";
const EPOCH_CHANGE: &str = "protocol.epoch_change";
const AGENT: &str = "he.agent_decrypt";
const ROUND: &str = "round";

struct EpochKey {
    keypair: Keypair,
    registries: Vec<EncryptedVector>,
    plain: Vec<Vec<u64>>,
}

struct Setup {
    keys: Vec<EpochKey>,
    devices: Vec<NodeIdentity>,
    listener: ReactorListener<ShardedCoordinator>,
    pin: [u8; 32],
    agent: Conn,
    keygen_ms: Vec<f64>,
}

/// One sealed client connection.
struct Conn {
    stream: TcpStream,
    channel: SecureChannel,
}

fn connect(
    addr: SocketAddr,
    identity: &NodeIdentity,
    pin: [u8; 32],
    tr: &mut Tracer,
) -> Result<Conn, String> {
    let mut stream = tr
        .span(CONNECT, || TcpStream::connect(addr))
        .map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let channel = tr
        .span(HANDSHAKE, || {
            client_handshake(&mut stream, identity, Some(pin), MAX_FRAME_BYTES)
        })
        .map_err(|e| e.to_string())?;
    Ok(Conn { stream, channel })
}

impl Conn {
    /// One request → one reply, every stage in its own span.
    fn exchange(&mut self, msg: &WireMsg, tr: &mut Tracer) -> Result<WireMsg, String> {
        let inner = tr.span(ENCODE, || {
            let mut inner = Vec::new();
            write_frame_limited(&mut inner, msg, CodecKind::Binary, MAX_FRAME_BYTES).map(|_| inner)
        });
        let inner = inner.map_err(|e| e.to_string())?;
        let sealed = tr.span(SEAL, || self.channel.seal_frame(&inner));
        let stream = &mut self.stream;
        let frame = tr.span(EXCHANGE, || {
            stream
                .write_all(&sealed)
                .map_err(|e| e.to_string())
                .and_then(|_| {
                    read_channel_frame(stream, MAX_FRAME_BYTES).map_err(|e| e.to_string())
                })
        })?;
        let ChannelFrame::Sealed(payload) = frame.0 else {
            return Err("reply was not sealed".to_string());
        };
        let opened = tr
            .span(OPEN, || self.channel.open_payload(&payload))
            .map_err(|e| e.to_string())?;
        let reply = tr
            .span(DECODE, || {
                read_frame_limited(&mut &opened[..], MAX_FRAME_BYTES)
            })
            .map_err(|e| e.to_string())?;
        Ok(reply.0)
    }

    /// Sends a sealed `Shutdown` and waits for the listener to hang up.
    fn close(mut self, tr: &mut Tracer) -> Result<(), String> {
        tr.span(CLOSE, || {
            let mut inner = Vec::new();
            write_frame_limited(
                &mut inner,
                &WireMsg::Shutdown,
                CodecKind::Binary,
                MAX_FRAME_BYTES,
            )
            .map_err(|e| e.to_string())?;
            let sealed = self.channel.seal_frame(&inner);
            self.stream.write_all(&sealed).map_err(|e| e.to_string())?;
            let mut buf = [0u8; 256];
            loop {
                match self.stream.read(&mut buf) {
                    Ok(0) => return Ok(()),
                    Ok(_) => return Err("data after shutdown".to_string()),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return Ok(()),
                    Err(e) => return Err(e.to_string()),
                }
            }
        })
    }
}

fn set_up(seed: u64, rep: u64) -> Result<Setup, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ (rep << 40) ^ SALT);
    let mut keygen_ms = Vec::new();
    let keys = (0..KEY_POOL)
        .map(|_| {
            let t = Instant::now();
            let keypair = Keypair::generate(KEY_BITS, &mut rng);
            keygen_ms.push(ms(t.elapsed()));
            let enc = PrecomputedEncryptor::new(&keypair.public, &mut rng);
            let plain: Vec<Vec<u64>> = (0..POOL)
                .map(|_| {
                    let mut onehot = vec![0u64; REGISTRY_LEN];
                    onehot[rng.gen_range(0..REGISTRY_LEN)] = 1;
                    onehot
                })
                .collect();
            let registries = plain
                .iter()
                .map(|p| EncryptedVector::encrypt_u64_with(&enc, p, &mut rng))
                .collect();
            EpochKey {
                keypair,
                registries,
                plain,
            }
        })
        .collect();
    let devices = (0..COHORT as u64)
        .map(|d| NodeIdentity::from_seed(seed ^ SALT ^ (d << 20)))
        .collect();
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(COHORT, SHARDS),
        ReactorConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_identity_seed(seed.rotate_left(9) ^ SALT),
    )
    .map_err(|e| e.to_string())?;
    let pin = listener
        .public_identity()
        .ok_or("listener has no identity")?;
    let agent = connect(
        listener.addr(),
        &NodeIdentity::from_seed(seed.rotate_left(3) ^ SALT),
        pin,
        &mut Tracer::new(false),
    )?;
    Ok(Setup {
        keys,
        devices,
        listener,
        pin,
        agent,
        keygen_ms,
    })
}

/// One closed epoch.
struct Epoch {
    round: Duration,
    epoch_change: Duration,
    checkin: Vec<f64>,
    client_cpu: Vec<f64>,
}

fn registry(key: &EpochKey, device: usize, epoch: u64) -> Envelope {
    Envelope {
        from: Party::Client(device),
        to: Party::Server,
        epoch,
        msg: ProtocolMsg::EncryptedRegistry {
            client: device,
            registry: key.registries[device % POOL].clone(),
        },
    }
}

fn epoch_round(
    s: &mut Setup,
    epoch: u64,
    tr: &mut Tracer,
    ops: &mut Ops,
    out: &mut Outcome,
) -> Result<Epoch, String> {
    // Spans of one check-in share a sample id; the epoch's own spans
    // (round, key dispatch, read-out) take the id after its last check-in.
    let sample = |device: usize| epoch * (COHORT as u64 + 1) + device as u64;
    tr.set_sample(sample(COHORT));
    let root = tr.enter(ROUND);
    let t0 = Instant::now();
    let key = &s.keys[epoch as usize % KEY_POOL];
    let addr = s.listener.addr();
    // The agent dispatches this epoch's key over the wire.
    let dispatch = WireMsg::Envelope {
        envelope: Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: key.keypair.public.clone(),
                private_key: None,
            },
        },
    };
    let t = Instant::now();
    let agent = &mut s.agent;
    let reply = tr.span(EPOCH_CHANGE, || {
        agent.exchange(&dispatch, &mut Tracer::new(false))
    });
    let epoch_change = t.elapsed();
    let ok = match &reply {
        Ok(r) => ops.reply(r),
        Err(_) => ops.record(&reply),
    };
    if !ok {
        return Err(format!("key dispatch refused: {reply:?}"));
    }

    let mut checkin = Vec::with_capacity(COHORT);
    let mut client_cpu = Vec::with_capacity(COHORT);
    let mut total = None;
    for device in 0..COHORT {
        tr.set_sample(sample(device));
        let t = Instant::now();
        let cpu = thread_cpu();
        let msg = WireMsg::Envelope {
            envelope: registry(key, device, epoch),
        };
        let result = connect(addr, &s.devices[device], s.pin, tr).and_then(|mut conn| {
            let reply = conn.exchange(&msg, tr)?;
            conn.close(tr)?;
            Ok(reply)
        });
        checkin.push(ms(t.elapsed()));
        client_cpu.push(ms(thread_cpu() - cpu));
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                ops.record(&Err::<(), ()>(()));
                return Err(format!("check-in of device {device} failed: {e}"));
            }
        };
        if !ops.reply(&reply) {
            return Err(format!("check-in of device {device} refused: {reply:?}"));
        }
        if let WireMsg::Batch { envelopes } = reply {
            for e in envelopes {
                if let (Party::Agent, ProtocolMsg::EncryptedTotalBroadcast { total: v }) =
                    (e.to, e.msg)
                {
                    total = Some(v);
                }
            }
        }
    }
    // The agent reads the cohort's folded total out.
    tr.set_sample(sample(COHORT));
    let decrypted = tr.span(AGENT, || {
        total
            .as_ref()
            .and_then(|v| v.decrypt_u64(&key.keypair.private).ok())
    });
    let round = t0.elapsed();
    tr.exit(root);
    let mut plain = vec![0u64; REGISTRY_LEN];
    for device in 0..COHORT {
        for (p, v) in plain.iter_mut().zip(&key.plain[device % POOL]) {
            *p += v;
        }
    }
    out.gate(
        decrypted.as_ref().map(|d| d.iter().sum::<u64>()) == Some(COHORT as u64)
            && decrypted.as_ref() == Some(&plain),
        format!("epoch {epoch}: the cohort total decrypts to its {COHORT} check-ins"),
    );
    Ok(Epoch {
        round,
        epoch_change,
        checkin,
        client_cpu,
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut s, setup_s) = match repeat_set_up(|rep| set_up(args.seed, rep)) {
        Ok(s) => s,
        Err(e) => {
            out.gate(false, format!("set-up failed: {e}"));
            return out;
        }
    };

    let mut tr = Tracer::new(false);
    let mut ops = Ops::default();
    let mut epochs: Vec<(bool, Epoch)> = Vec::new();
    let usage0 = Usage::now();
    let t_window = Instant::now();
    let deadline = t_window + args.seconds;
    while Instant::now() < deadline || epochs.len() < 2 {
        let i = epochs.len();
        let traced = args.trace && i % 2 == 1;
        tr.set_enabled(traced);
        match epoch_round(&mut s, i as u64, &mut tr, &mut ops, &mut out) {
            Ok(e) => epochs.push((traced, e)),
            Err(e) => {
                out.gate(false, format!("epoch {i} failed: {e}"));
                break;
            }
        }
    }
    let wall_s = t_window.elapsed().as_secs_f64();
    let usage = Usage::now();
    let stats = s.listener.stats();
    let uploads: Vec<Envelope> = (0..64).map(|d| registry(&s.keys[0], d, 0)).collect();
    out.ops = ops;
    if epochs.is_empty() {
        out.gate(false, "no epoch completed");
        return out;
    }
    let checkins = epochs.len() * COHORT;

    let untraced: Vec<&Epoch> = epochs.iter().filter(|e| !e.0).map(|e| &e.1).collect();
    let round_ms: Vec<f64> = untraced.iter().map(|e| ms(e.round)).collect();
    let checkin: Vec<f64> = untraced
        .iter()
        .flat_map(|e| e.checkin.iter().copied())
        .collect();
    let client_cpu: Vec<f64> = untraced
        .iter()
        .flat_map(|e| e.client_cpu.iter().copied())
        .collect();
    let socket_bytes =
        stats.bytes_received + stats.bytes_sent + stats.handshakes_completed * HANDSHAKE_WIRE_BYTES;
    let tails = out.record(&Measured {
        round_ms: &round_ms,
        client_cpu_ms: &client_cpu,
        checkin_ms: &checkin,
        registrations: checkins,
        wall_s,
        wire_bytes_per_client: socket_bytes as f64 / checkins as f64,
        setup_s: &setup_s,
        usage,
    });
    out.note(format!(
        "checkin_churn: {} epochs ({} untraced) of {COHORT} check-ins at {KEY_BITS}-bit keys in {wall_s:.2}s; {tails}",
        epochs.len(),
        untraced.len(),
    ));
    // One handshake per check-in, plus the agent's.
    out.listener(&stats, checkins + 1);
    let layers = &mut out.per_layer;
    layers.insert("he.keygen_ms", median(&s.keygen_ms).unwrap_or(0.0));
    let epoch_change: Vec<f64> = epochs.iter().map(|e| ms(e.1.epoch_change)).collect();
    layers.insert(
        "protocol.epoch_change_ms",
        median(&epoch_change).unwrap_or(0.0),
    );
    proc_metrics(&usage0, &usage, wall_s, checkins, layers);
    if args.trace {
        layer_breakdown(&tr, &epochs, &uploads, args.seed, &mut out);
        out.spans = Some(tr);
    }
    out
}

fn layer_breakdown(
    tr: &Tracer,
    epochs: &[(bool, Epoch)],
    uploads: &[Envelope],
    seed: u64,
    out: &mut Outcome,
) {
    let costs = calib::registry_path(uploads, seed);
    // Per check-in span durations (every span of a stage is one call).
    let mut per_call: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for span in tr.spans() {
        per_call
            .entry(span.name)
            .or_default()
            .push(span.dur_ns() as f64 / 1e6);
    }
    let med = |name: &str| per_call.get(name).and_then(|xs| median(xs)).unwrap_or(0.0);
    let (mut traced, mut untraced, mut checkin) = (Vec::new(), Vec::new(), Vec::new());
    for (on, e) in epochs {
        let m = median(&e.checkin).unwrap_or(0.0);
        if *on {
            traced.push(m);
        } else {
            untraced.push(m);
        }
        checkin.extend_from_slice(&e.checkin);
    }
    let checkin_p50 = median(&checkin).unwrap_or(0.0);
    let layers = &mut out.per_layer;
    layers.insert("protocol.encode_us", costs.encode_us);
    layers.insert("protocol.seal_us", costs.seal_us);
    layers.insert("protocol.open_us", costs.open_us);
    layers.insert("protocol.decode_us", costs.decode_us);
    layers.insert("he.fold_us", costs.fold_us);
    layers.insert("protocol.handshake_ms", med(HANDSHAKE));
    layers.insert("net.connect_ms", med(CONNECT));
    layers.insert("he.agent_decrypt_ms", med(AGENT));
    let exchange: Vec<f64> = per_call.get(EXCHANGE).cloned().unwrap_or_default();
    layers.insert(
        "net.exchange_us_p50",
        median(&exchange).unwrap_or(0.0) * 1e3,
    );
    if let Some((v, _)) = tail(&exchange) {
        layers.insert("net.exchange_us_tail", v * 1e3);
    }
    layers.insert(
        "net.residual_us",
        (checkin_p50 - med(CONNECT) - med(HANDSHAKE)) * 1e3 - costs.total_us(),
    );
    let leftover: Vec<f64> = tr
        .spans()
        .iter()
        .zip(self_ns_each(tr.spans()))
        .filter(|(span, _)| span.name == ROUND)
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect();
    layers.insert("trace.leftover_ms", median(&leftover).unwrap_or(0.0));
    if let (Some(t), Some(u)) = (median(&traced), median(&untraced)) {
        layers.insert("trace.overhead_share", (t - u) / u);
    }
    let lines: Vec<String> = per_call
        .iter()
        .map(|(k, xs)| format!("{k}={:.4}", median(xs).unwrap_or(0.0)))
        .collect();
    out.note(format!(
        "checkin_churn per call (ms, median over traced epochs): {}",
        lines.join(" ")
    ));
}
