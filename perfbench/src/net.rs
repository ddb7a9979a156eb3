//! `select_net`: the `select_inproc` session shape served by a
//! `ReactorListener` over loopback.
//!
//! A 4-shard `ShardedCoordinator` behind the listener, `ChannelPolicy::
//! Required`, DBH2 frames, 2 persistent `MuxClient` connections carrying
//! 2000 clients with at most 8 requests in flight, H = 3 tries of K = 10.
//! Set-up pre-encrypts a pool of 2048-bit registries and distributions, so
//! client-side HE is off the path while every coordinator fold is real.
//! Each session is a new epoch: key dispatch → 2000 registrations (the last
//! reply carries the total broadcast) → H tries → verdict.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use dubhe_data::l1_distance;
use dubhe_he::{EncryptedVector, FixedPointCodec, Keypair, PrecomputedEncryptor};
use dubhe_net::{MuxClient, MuxConfig, ReactorConfig, ReactorListener};
use dubhe_select::protocol::{
    ChannelPolicy, CodecKind, Coordinator, Envelope, Party, ProtocolMsg, RegistryFrame,
    ShardedCoordinator, WireMsg, HANDSHAKE_WIRE_BYTES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Measured, Ops, Outcome};
use crate::stats::{median, tail};
use crate::sys::{proc_metrics, Usage};
use crate::trace::Tracer;
use crate::{calib, ms, repeat_set_up, Args};

const KEY_BITS: u64 = 2048;
const CLIENTS: usize = 2000;
const CONNS: usize = 2;
/// Requests in flight across both connections.
const WINDOW: usize = 8;
const SHARDS: usize = 4;
const H: usize = 3;
const K: usize = 10;
const CLASSES: usize = 10;
const REGISTRY_LEN: usize = 56;
/// Distinct pre-encrypted registries and distributions; clients cycle
/// through them.
const POOL: usize = 8;
const SALT: u64 = 0x0005_E1EC_70E7;

const SEND: &str = "net.send";
const COLLECT: &str = "net.collect";
const ROUND: &str = "round";

/// The pre-encrypted inputs of every session, and their plaintexts.
struct Script {
    keypair: Keypair,
    registries: Vec<EncryptedVector>,
    plain_registries: Vec<Vec<u64>>,
    distributions: Vec<EncryptedVector>,
    plain_distributions: Vec<Vec<u64>>,
}

impl Script {
    fn build(rng: &mut StdRng, keygen_ms: &mut Vec<f64>) -> Script {
        let t = Instant::now();
        let keypair = Keypair::generate(KEY_BITS, rng);
        keygen_ms.push(ms(t.elapsed()));
        let enc = PrecomputedEncryptor::new(&keypair.public, rng);
        let codec = FixedPointCodec::default();
        let plain_registries: Vec<Vec<u64>> = (0..POOL)
            .map(|_| {
                let mut onehot = vec![0u64; REGISTRY_LEN];
                onehot[rng.gen_range(0..REGISTRY_LEN)] = 1;
                onehot
            })
            .collect();
        let plain_distributions: Vec<Vec<u64>> = (0..POOL)
            .map(|_| {
                let w: Vec<f64> = (0..CLASSES).map(|_| rng.gen_range(0.05..1.0)).collect();
                let s: f64 = w.iter().sum();
                codec.encode_vec(&w.iter().map(|x| x / s).collect::<Vec<_>>())
            })
            .collect();
        let registries = plain_registries
            .iter()
            .map(|p| EncryptedVector::encrypt_u64_with(&enc, p, rng))
            .collect();
        let distributions = plain_distributions
            .iter()
            .map(|p| EncryptedVector::encrypt_u64_with(&enc, p, rng))
            .collect();
        Script {
            keypair,
            registries,
            plain_registries,
            distributions,
            plain_distributions,
        }
    }

    fn key_dispatch(&self, epoch: u64) -> Envelope {
        Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch,
            msg: ProtocolMsg::PublicKeyDispatch {
                public_key: self.keypair.public.clone(),
                private_key: None,
            },
        }
    }

    fn registry(&self, client: usize, epoch: u64) -> Envelope {
        Envelope {
            from: Party::Client(client),
            to: Party::Server,
            epoch,
            msg: ProtocolMsg::EncryptedRegistry {
                client,
                registry: self.registries[client % POOL].clone(),
            },
        }
    }

    fn dist_index(client: usize, try_index: usize) -> usize {
        (client + 7 * try_index) % POOL
    }

    fn distribution(&self, client: usize, try_index: usize, epoch: u64) -> Envelope {
        Envelope {
            from: Party::Client(client),
            to: Party::Server,
            epoch,
            msg: ProtocolMsg::EncryptedDistribution {
                client,
                try_index,
                distribution: self.distributions[Self::dist_index(client, try_index)].clone(),
            },
        }
    }

    fn verdict(&self, epoch: u64, verdict: (usize, f64)) -> Envelope {
        Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch,
            msg: ProtocolMsg::TryVerdict {
                best_try: verdict.0,
                distance: verdict.1,
            },
        }
    }

    /// The plaintext registry total of a full cohort.
    fn plain_total(&self) -> Vec<u64> {
        let mut total = vec![0u64; REGISTRY_LEN];
        for c in 0..CLIENTS {
            for (t, v) in total.iter_mut().zip(&self.plain_registries[c % POOL]) {
                *t += v;
            }
        }
        total
    }

    /// The plaintext sum of one try's distributions.
    fn plain_sum(&self, try_index: usize, participants: &[usize]) -> Vec<u64> {
        let mut sum = vec![0u64; CLASSES];
        for &c in participants {
            for (s, v) in sum
                .iter_mut()
                .zip(&self.plain_distributions[Self::dist_index(c, try_index)])
            {
                *s += v;
            }
        }
        sum
    }

    /// The verdict the agent reaches from the decrypted try sums.
    fn verdict_from(sums: &[Vec<u64>]) -> (usize, f64) {
        let codec = FixedPointCodec::default();
        let uniform = vec![1.0 / CLASSES as f64; CLASSES];
        sums.iter()
            .map(|s| l1_distance(&codec.decode_average(s, K), &uniform))
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("H > 0")
    }
}

/// K distinct participants per try.
fn tentative(rng: &mut StdRng) -> Vec<Vec<usize>> {
    (0..H)
        .map(|_| {
            let mut picked: Vec<usize> = Vec::with_capacity(K);
            while picked.len() < K {
                let c = rng.gen_range(0..CLIENTS);
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            picked
        })
        .collect()
}

struct Served {
    listener: ReactorListener<ShardedCoordinator>,
    mux: MuxClient,
    connect: Duration,
}

fn serve(seed: u64) -> Result<Served, String> {
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(CLIENTS, SHARDS),
        ReactorConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_identity_seed(seed ^ SALT),
    )
    .map_err(|e| e.to_string())?;
    let pin = listener
        .public_identity()
        .ok_or("listener has no identity")?;
    let t = Instant::now();
    let mux = MuxClient::connect(
        listener.addr(),
        CONNS,
        MuxConfig::default()
            .with_codec(CodecKind::Binary)
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(pin)
            .with_identity_seed(seed.rotate_left(17) ^ SALT)
            .with_exchange_timeout(Duration::from_secs(60)),
    )
    .map_err(|e| e.to_string())?;
    Ok(Served {
        listener,
        mux,
        connect: t.elapsed(),
    })
}

/// What one session cost and returned.
#[derive(Default)]
struct Session {
    round: Duration,
    registration: Duration,
    key_dispatch: Duration,
    /// Per registration: `MuxClient::send` (encode + seal) of the upload.
    client_cpu: Vec<f64>,
    /// Per registration: request queued → reply in hand.
    exchange: Vec<f64>,
    broadcast: Option<EncryptedVector>,
    sums: Vec<Option<EncryptedVector>>,
    tries: Vec<Vec<usize>>,
    verdict: (usize, f64),
}

/// Tracks in-flight requests per connection; replies return in request
/// order on each connection.
struct InFlight {
    sent: Vec<VecDeque<Instant>>,
    count: usize,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            sent: vec![VecDeque::new(); CONNS],
            count: 0,
        }
    }

    fn push(&mut self, conn: usize, at: Instant) {
        self.sent[conn].push_back(at);
        self.count += 1;
    }

    fn pop(&mut self, conn: usize) -> Option<Duration> {
        let at = self.sent[conn].pop_front()?;
        self.count -= 1;
        Some(at.elapsed())
    }
}

/// Queues one request; its reply is counted as an operation when it
/// arrives, a request that cannot be queued is counted failed here.
fn send(
    mux: &mut MuxClient,
    tr: &mut Tracer,
    inflight: &mut InFlight,
    ops: &mut Ops,
    conn: usize,
    msg: &WireMsg,
) -> Result<f64, String> {
    let t = Instant::now();
    let sent = tr.span(SEND, || mux.send(conn, msg));
    if let Err(e) = sent {
        ops.record(&Err::<(), _>(&e));
        return Err(e.to_string());
    }
    inflight.push(conn, t);
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// Collects at least `expected` replies and matches each to its request.
fn collect(
    mux: &mut MuxClient,
    tr: &mut Tracer,
    inflight: &mut InFlight,
    expected: usize,
    ops: &mut Ops,
) -> Result<Vec<(WireMsg, Duration)>, String> {
    let replies = match tr.span(COLLECT, || mux.collect(expected)) {
        Ok(replies) => replies,
        Err(e) => {
            // Every request still in flight is lost.
            for _ in 0..inflight.count {
                ops.record(&Err::<(), _>(&e));
            }
            return Err(e.to_string());
        }
    };
    let mut out = Vec::with_capacity(replies.len());
    for (conn, msg) in replies {
        let latency = inflight.pop(conn).ok_or("reply without a request")?;
        if !ops.reply(&msg) {
            return Err(format!("refused: {msg:?}"));
        }
        out.push((msg, latency));
    }
    Ok(out)
}

fn conn_of(client: usize) -> usize {
    client % CONNS
}

fn session(
    script: &Script,
    mux: &mut MuxClient,
    epoch: u64,
    rng: &mut StdRng,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<Session, String> {
    let root = tr.enter(ROUND);
    let t0 = Instant::now();
    let mut s = Session {
        tries: tentative(rng),
        ..Session::default()
    };
    let mut inflight = InFlight::new();
    let key = WireMsg::Envelope {
        envelope: script.key_dispatch(epoch),
    };
    send(mux, tr, &mut inflight, ops, 0, &key)?;
    collect(mux, tr, &mut inflight, 1, ops)?;
    s.key_dispatch = t0.elapsed();

    let t_reg = Instant::now();
    let mut next = 0;
    let mut done = 0;
    while done < CLIENTS {
        while inflight.count < WINDOW && next < CLIENTS {
            let msg = WireMsg::Envelope {
                envelope: script.registry(next, epoch),
            };
            s.client_cpu
                .push(send(mux, tr, &mut inflight, ops, conn_of(next), &msg)?);
            next += 1;
        }
        for (reply, latency) in collect(mux, tr, &mut inflight, 1, ops)? {
            s.exchange.push(latency.as_secs_f64() * 1e6);
            done += 1;
            if let WireMsg::Batch { envelopes } = reply {
                if envelopes.is_empty() {
                    continue;
                }
                if envelopes.len() != CLIENTS + 1 {
                    return Err(format!("broadcast to {} parties", envelopes.len()));
                }
                for e in envelopes {
                    if let (Party::Agent, ProtocolMsg::EncryptedTotalBroadcast { total }) =
                        (e.to, e.msg)
                    {
                        s.broadcast = Some(total);
                    }
                }
            }
        }
    }
    s.registration = t_reg.elapsed();

    for try_index in 0..H {
        let announce = WireMsg::AnnounceTry {
            try_index,
            participants: s.tries[try_index].clone(),
        };
        send(mux, tr, &mut inflight, ops, 0, &announce)?;
        collect(mux, tr, &mut inflight, 1, ops)?;
        for &c in &s.tries[try_index] {
            let msg = WireMsg::Envelope {
                envelope: script.distribution(c, try_index, epoch),
            };
            send(mux, tr, &mut inflight, ops, conn_of(c), &msg)?;
        }
        let mut sum = None;
        for (reply, _) in collect(mux, tr, &mut inflight, K, ops)? {
            if let WireMsg::Batch { envelopes } = reply {
                for e in envelopes {
                    if let ProtocolMsg::EncryptedDistributionSum { sum: v, .. } = e.msg {
                        sum = Some(v);
                    }
                }
            }
        }
        s.sums.push(sum);
    }
    // The agent's verdict, from the plaintexts the sums decrypt to (the
    // last session's sums are decrypted and checked against it).
    let sums: Vec<Vec<u64>> = (0..H).map(|t| script.plain_sum(t, &s.tries[t])).collect();
    s.verdict = Script::verdict_from(&sums);
    let verdict = WireMsg::Envelope {
        envelope: script.verdict(epoch, s.verdict),
    };
    send(mux, tr, &mut inflight, ops, 0, &verdict)?;
    collect(mux, tr, &mut inflight, 1, ops)?;
    s.round = t0.elapsed();
    tr.exit(root);
    Ok(s)
}

/// Folds the last session's envelopes into an in-process coordinator,
/// through the same deferred-frame path the listener takes. Returns the
/// coordinator, the try sums it forwarded and the time it spent.
fn reference(
    script: &Script,
    s: &Session,
    epoch: u64,
    ops: &mut Ops,
) -> Result<(ShardedCoordinator, Vec<Option<EncryptedVector>>, Duration), String> {
    let frames: Vec<RegistryFrame> = (0..CLIENTS)
        .map(|c| {
            let msg = WireMsg::Envelope {
                envelope: script.registry(c, epoch),
            };
            let payload = CodecKind::Binary.encode(&msg).expect("registry encodes");
            RegistryFrame::try_from_payload(payload).map_err(|_| "registry frame did not defer")
        })
        .collect::<Result<_, _>>()?;
    let mut server = ShardedCoordinator::new(CLIENTS, SHARDS);
    let t = Instant::now();
    let mut check = |r: Result<Vec<Envelope>, dubhe_select::ProtocolError>| {
        ops.record(&r);
        r.map_err(|e| e.to_string())
    };
    check(server.deliver(script.key_dispatch(epoch)))?;
    for frame in frames {
        check(server.deliver_registry_frame(frame))?;
    }
    let mut sums = Vec::new();
    for (try_index, participants) in s.tries.iter().enumerate() {
        Coordinator::announce_try(&mut server, try_index, participants)
            .map_err(|e| e.to_string())?;
        let mut sum = None;
        for &c in participants {
            for e in check(server.deliver(script.distribution(c, try_index, epoch)))? {
                if let ProtocolMsg::EncryptedDistributionSum { sum: v, .. } = e.msg {
                    sum = Some(v);
                }
            }
        }
        sums.push(sum);
    }
    check(server.deliver(script.verdict(epoch, s.verdict)))?;
    Ok((server, sums, t.elapsed()))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut keygen_ms = Vec::new();
    let set_up = repeat_set_up(|rep| {
        let mut rng = StdRng::seed_from_u64(args.seed ^ (rep << 40) ^ SALT);
        let script = Script::build(&mut rng, &mut keygen_ms);
        Ok((script, serve(args.seed)?))
    });
    let ((script, served), setup_s) = match set_up {
        Ok(s) => s,
        Err(e) => {
            out.gate(false, format!("set-up failed: {e}"));
            return out;
        }
    };
    let Served {
        listener,
        mut mux,
        connect,
    } = served;

    let mut tr = Tracer::new(false);
    let mut ops = Ops::default();
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mut sessions: Vec<(bool, Session)> = Vec::new();
    let usage0 = Usage::now();
    let t_window = Instant::now();
    let deadline = t_window + args.seconds;
    while Instant::now() < deadline || sessions.len() < 2 {
        let i = sessions.len();
        let traced = args.trace && i % 2 == 1;
        tr.set_enabled(traced);
        tr.set_sample(i as u64);
        match session(&script, &mut mux, i as u64, &mut rng, &mut tr, &mut ops) {
            Ok(s) => sessions.push((traced, s)),
            Err(e) => {
                out.gate(false, format!("session {i} failed: {e}"));
                break;
            }
        }
    }
    let wall_s = t_window.elapsed().as_secs_f64();
    let usage = Usage::now();
    let stats = listener.stats();
    mux.shutdown();
    let served_state = listener.shutdown();
    if sessions.is_empty() {
        out.ops = ops;
        out.gate(false, "no session completed");
        return out;
    }
    let registrations = sessions.len() * CLIENTS;

    // Gates: the listener's final fold equals an in-process reference fold
    // of the identical envelopes; the auth counters are clean; the folded
    // totals decrypt to the plaintext sums.
    let epoch = (sessions.len() - 1) as u64;
    let last = &sessions.last().expect("non-empty").1;
    let mut ref_time = Duration::ZERO;
    match (served_state, reference(&script, last, epoch, &mut ops)) {
        (Some(state), Ok((refc, ref_sums, t))) => {
            ref_time = t;
            let total = state.encrypted_total();
            out.gate(
                total.is_some() && total == refc.encrypted_total(),
                "listener's registry fold equals the reference fold",
            );
            out.gate(
                last.broadcast == refc.encrypted_total(),
                "broadcast total equals the reference fold",
            );
            out.gate(last.sums == ref_sums, "try sums equal the reference folds");
            out.gate(
                state.messages_received() == sessions.len() * refc.messages_received(),
                "listener message count equals the reference's, session for session",
            );
            out.gate(
                state.last_verdict() == Some(last.verdict)
                    && refc.last_verdict() == Some(last.verdict),
                "listener and reference recorded the verdict",
            );
            if let Some(total) = &total {
                out.note(format!("select_net: fold digest {:016x}", digest(total)));
            }
        }
        (None, _) => out.gate(false, "listener returned no coordinator"),
        (_, Err(e)) => out.gate(false, format!("reference fold failed: {e}")),
    }
    let sk = &script.keypair.private;
    out.gate(
        last.broadcast.as_ref().and_then(|b| b.decrypt_u64(sk).ok()) == Some(script.plain_total()),
        "broadcast total decrypts to the plaintext registry sum",
    );
    let decrypted: Vec<Option<Vec<u64>>> = last
        .sums
        .iter()
        .map(|s| s.as_ref().and_then(|v| v.decrypt_u64(sk).ok()))
        .collect();
    let plain: Vec<Vec<u64>> = (0..H)
        .map(|t| script.plain_sum(t, &last.tries[t]))
        .collect();
    out.gate(
        decrypted
            .iter()
            .zip(&plain)
            .all(|(d, p)| d.as_ref() == Some(p)),
        "try sums decrypt to the plaintext distribution sums",
    );
    out.gate(
        Script::verdict_from(&plain) == last.verdict,
        "verdict is the try closest to uniform",
    );
    out.ops = ops;

    let untraced: Vec<&Session> = sessions.iter().filter(|s| !s.0).map(|s| &s.1).collect();
    let round_ms: Vec<f64> = untraced.iter().map(|s| ms(s.round)).collect();
    let client_cpu: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.client_cpu.iter().copied())
        .collect();
    let checkin: Vec<f64> = untraced
        .iter()
        .flat_map(|s| s.exchange.iter().map(|us| us / 1e3))
        .collect();
    let socket_bytes =
        stats.bytes_received + stats.bytes_sent + stats.handshakes_completed * HANDSHAKE_WIRE_BYTES;
    let tails = out.record(&Measured {
        round_ms: &round_ms,
        client_cpu_ms: &client_cpu,
        checkin_ms: &checkin,
        registrations,
        wall_s,
        wire_bytes_per_client: socket_bytes as f64 / registrations as f64,
        setup_s: &setup_s,
        usage,
    });
    out.note(format!(
        "select_net: {} sessions ({} untraced) of {CLIENTS} clients at {KEY_BITS}-bit keys in {wall_s:.2}s; {tails}",
        sessions.len(),
        untraced.len(),
    ));
    out.listener(&stats, CONNS);
    let layers = &mut out.per_layer;
    layers.insert("he.keygen_ms", median(&keygen_ms).unwrap_or(0.0));
    // The persistent connections' connect + handshake, per registration.
    layers.insert("protocol.handshake_ms", ms(connect) / registrations as f64);
    layers.insert("protocol.coordinator_ms", ms(ref_time));
    proc_metrics(&usage0, &usage, wall_s, registrations, layers);
    if args.trace {
        layer_breakdown(&tr, &sessions, &script, args.seed, &mut out);
        out.spans = Some(tr);
    }
    out
}

/// FNV-1a over the ciphertext residues.
fn digest(v: &EncryptedVector) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for ct in v.elements() {
        for b in ct.raw().to_bytes_be() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn layer_breakdown(
    tr: &Tracer,
    sessions: &[(bool, Session)],
    script: &Script,
    seed: u64,
    out: &mut Outcome,
) {
    let uploads: Vec<Envelope> = (0..64).map(|c| script.registry(c, 0)).collect();
    let costs = calib::registry_path(&uploads, seed);
    let per_sample = tr.self_times();
    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut traced_round, mut untraced_round, mut residual, mut exchange, mut epoch_change) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, (traced, s)) in sessions.iter().enumerate() {
        residual.push(s.registration.as_secs_f64() * 1e6 / CLIENTS as f64 - costs.total_us());
        exchange.extend_from_slice(&s.exchange);
        epoch_change.push(ms(s.key_dispatch));
        if !traced {
            untraced_round.push(ms(s.round));
            continue;
        }
        traced_round.push(ms(s.round));
        if let Some(selfs) = per_sample.get(&(i as u64)) {
            for (name, ns) in selfs {
                series.entry(name).or_default().push(*ns as f64 / 1e6);
            }
        }
    }
    let layers = &mut out.per_layer;
    layers.insert("protocol.encode_us", costs.encode_us);
    layers.insert("protocol.seal_us", costs.seal_us);
    layers.insert("protocol.open_us", costs.open_us);
    layers.insert("protocol.decode_us", costs.decode_us);
    layers.insert("he.fold_us", costs.fold_us);
    layers.insert("net.residual_us", median(&residual).unwrap_or(0.0));
    layers.insert("net.exchange_us_p50", median(&exchange).unwrap_or(0.0));
    if let Some((v, _)) = tail(&exchange) {
        layers.insert("net.exchange_us_tail", v);
    }
    layers.insert(
        "protocol.epoch_change_ms",
        median(&epoch_change).unwrap_or(0.0),
    );
    layers.insert(
        "trace.leftover_ms",
        series.get(ROUND).and_then(|xs| median(xs)).unwrap_or(0.0),
    );
    if let (Some(t), Some(u)) = (median(&traced_round), median(&untraced_round)) {
        layers.insert("trace.overhead_share", (t - u) / u);
    }
    let lines: Vec<String> = series
        .iter()
        .map(|(k, xs)| format!("{k}={:.3}", median(xs).unwrap_or(0.0)))
        .collect();
    out.note(format!(
        "select_net load-thread self time per session (ms, median of {} traced): {}; isolated per registry (us): encode {:.1} seal {:.1} open {:.1} decode {:.1} fold {:.1}",
        traced_round.len(),
        lines.join(" "),
        costs.encode_us,
        costs.seal_us,
        costs.open_us,
        costs.decode_us,
        costs.fold_us,
    ));
}
