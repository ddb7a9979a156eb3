//! `select_inproc`: back-to-back full Dubhe sessions in one process.
//!
//! Shape: 1024-bit keys, 30 clients, group-1 config (registry length 56),
//! K = 10, H = 3, MnistLike partition, 4-shard coordinator. Messages are
//! routed by this module's own loop — the same FIFO order as the library's
//! `pump` — so every role call can be timed. Each session builds fresh role
//! objects around a keypair generated during set-up.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dubhe_data::{ClassDistribution, DatasetFamily, FederatedSpec};
use dubhe_he::{EncryptedVector, FixedPointCodec, Keypair, PrecomputedEncryptor};
use dubhe_select::protocol::{
    run_registration_with, run_try, AgentNode, Coordinator, InMemoryTransport, Party, ProtocolMsg,
    SelectClientNode, ShardedCoordinator, Transport, TransportStats,
};
use dubhe_select::{register, ClientSelector, DubheConfig, DubheSelector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::report::{Measured, Ops, Outcome, PER_LAYER};
use crate::stats::median;
use crate::sys::{proc_metrics, Usage};
use crate::trace::Tracer;
use crate::{calib, ms, repeat_set_up, Args};

const KEY_BITS: u64 = 1024;
const CLIENTS: usize = 30;
const K: usize = 10;
const H: usize = 3;
const SHARDS: usize = 4;
/// Keypairs generated per set-up; sessions cycle through them.
const KEY_POOL: usize = 8;

/// Span names of this workload's layers.
const ENCRYPT_REGISTRY: &str = "he.encrypt_registry";
const DECRYPT_TOTAL: &str = "he.decrypt_total";
const ENCRYPT_DISTRIBUTION: &str = "he.encrypt_distribution";
const AGENT: &str = "he.agent_decrypt";
const COORDINATOR: &str = "protocol.coordinator";
const TENTATIVE: &str = "select.tentative";
const ROUND: &str = "round";

fn config() -> DubheConfig {
    let mut config = DubheConfig::group1();
    config.k = K;
    config.multi_time_h = H;
    config.key_bits = KEY_BITS;
    config
}

fn partition(seed: u64) -> Vec<ClassDistribution> {
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: CLIENTS,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    spec.build_partition(&mut rng).client_distributions()
}

/// A keypair with fresh handles: no cache built for one session leaks
/// into the next, so every session pays its key's one-time tables.
fn thaw(frozen: &serde::Value) -> Keypair {
    Keypair::from_value(frozen).expect("set-up serialized a valid keypair")
}

struct Setup {
    dists: Vec<ClassDistribution>,
    keys: Vec<serde::Value>,
    keygen_ms: Vec<f64>,
}

fn set_up(seed: u64, rep: u64) -> Setup {
    let dists = partition(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ (rep << 32) ^ 0x5E7);
    let mut keygen_ms = Vec::new();
    let keys = (0..KEY_POOL)
        .map(|_| {
            let t = Instant::now();
            let kp = Keypair::generate(KEY_BITS, &mut rng);
            keygen_ms.push(ms(t.elapsed()));
            kp.to_value()
        })
        .collect();
    Setup {
        dists,
        keys,
        keygen_ms,
    }
}

/// What one session cost.
struct Timing {
    round: Duration,
    /// Per client: wall time of its own role calls.
    client_cpu: Vec<Duration>,
    /// Per client: its registration's service time (register + encrypt,
    /// then the coordinator call that accepts it).
    checkin: Vec<Duration>,
    stats: TransportStats,
}

/// The three protocol roles of a session.
struct Roles {
    agent: AgentNode,
    clients: Vec<SelectClientNode>,
    server: ShardedCoordinator,
}

/// The actors one session leaves behind, for the gates.
struct Actors {
    roles: Roles,
    selector: DubheSelector,
    tries: Vec<Vec<usize>>,
}

#[derive(Default)]
struct Clocks {
    client_cpu: Vec<Duration>,
    checkin: Vec<Duration>,
}

/// Delivers queued envelopes until the transport drains — the library's
/// `pump`, with every role call inside a span.
fn route(
    transport: &mut InMemoryTransport,
    roles: &mut Roles,
    rng: &mut StdRng,
    tr: &mut Tracer,
    clocks: &mut Clocks,
    ops: &mut Ops,
) -> Result<(), String> {
    while let Some(envelope) = transport.deliver() {
        let result = match envelope.to {
            Party::Server => {
                let uploader = match (&envelope.from, &envelope.msg) {
                    (Party::Client(id), ProtocolMsg::EncryptedRegistry { .. }) => Some(*id),
                    _ => None,
                };
                let t = Instant::now();
                let server = &mut roles.server;
                let r = tr.span(COORDINATOR, || server.deliver(envelope));
                if let Some(id) = uploader {
                    clocks.checkin[id] += t.elapsed();
                }
                r
            }
            Party::Agent => tr.span(AGENT, || roles.agent.deliver(envelope)),
            Party::Client(id) => {
                let (name, upload) = match envelope.msg {
                    ProtocolMsg::PublicKeyDispatch { .. } => (ENCRYPT_REGISTRY, true),
                    _ => (DECRYPT_TOTAL, false),
                };
                let client = &mut roles.clients[id];
                let t = Instant::now();
                let r = tr.span(name, || client.deliver(envelope, rng));
                let dt = t.elapsed();
                clocks.client_cpu[id] += dt;
                if upload {
                    clocks.checkin[id] += dt;
                }
                r
            }
        };
        if !ops.record(&result) {
            return Err(result.unwrap_err().to_string());
        }
        for e in result.expect("checked") {
            transport.send(e);
        }
    }
    Ok(())
}

/// One full session: key dispatch → registration → H tries → verdict. The
/// RNG is consumed in exactly the order `run_registration_with` followed
/// by `run_try` consume it. Without a `key`, the agent generates one inside
/// the session, exactly as `run_registration` does.
fn session(
    dists: &[ClassDistribution],
    key: Option<Keypair>,
    rng: &mut StdRng,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<(Timing, Actors), String> {
    let n = dists.len();
    let classes = dists[0].classes();
    let config = config();
    let root = tr.enter(ROUND);
    let t0 = Instant::now();
    let _agent_id = rng.gen_range(0..n);
    let agent = match key {
        None => AgentNode::new(KEY_BITS, classes, rng),
        Some(kp) => AgentNode::from_keypair(kp, classes),
    };
    let mut roles = Roles {
        agent,
        clients: dists
            .iter()
            .enumerate()
            .map(|(id, d)| SelectClientNode::new(id, d.clone(), &config))
            .collect(),
        server: ShardedCoordinator::new(n, SHARDS),
    };
    let mut transport = InMemoryTransport::new();
    let mut clocks = Clocks {
        client_cpu: vec![Duration::ZERO; n],
        checkin: vec![Duration::ZERO; n],
    };
    for e in roles.agent.dispatch_keys(n) {
        transport.send(e);
    }
    route(&mut transport, &mut roles, rng, tr, &mut clocks, ops)?;

    let mut selector = tr.span(TENTATIVE, || DubheSelector::new(dists, config.clone()));
    roles.agent.expect_tries(H);
    let mut tries = Vec::with_capacity(H);
    for try_index in 0..H {
        let selected = tr.span(TENTATIVE, || selector.select(rng));
        let announced = tr.span(COORDINATOR, || {
            Coordinator::announce_try(&mut roles.server, try_index, &selected)
        });
        if !ops.record(&announced) {
            return Err(announced.unwrap_err().to_string());
        }
        for &id in &selected {
            let client = &mut roles.clients[id];
            let t = Instant::now();
            let e = tr.span(ENCRYPT_DISTRIBUTION, || {
                client.encrypt_distribution(try_index, rng)
            });
            clocks.client_cpu[id] += t.elapsed();
            if !ops.record(&e) {
                return Err(e.unwrap_err().to_string());
            }
            transport.send(e.expect("checked"));
        }
        route(&mut transport, &mut roles, rng, tr, &mut clocks, ops)?;
        tries.push(selected);
    }
    let round = t0.elapsed();
    tr.exit(root);
    let timing = Timing {
        round,
        client_cpu: clocks.client_cpu,
        checkin: clocks.checkin,
        stats: *transport.stats(),
    };
    Ok((
        timing,
        Actors {
            roles,
            selector,
            tries,
        },
    ))
}

/// The per-session gates: decrypted totals equal the plaintext sums, every
/// party agrees, and the verdict is the closest try.
fn check_session(actors: &Actors, dists: &[ClassDistribution], out: &mut Outcome) {
    let (s, tries) = (&actors.roles, &actors.tries);
    let expected = actors.selector.overall_registry();
    out.gate(
        s.agent.overall_registry() == Some(expected),
        "agent's decrypted overall registry equals the plaintext Algorithm 1 sum",
    );
    out.gate(
        s.clients
            .iter()
            .all(|c| c.overall_registry() == Some(expected)),
        "every client decrypted the plaintext overall registry",
    );
    let codec = FixedPointCodec::default();
    let outcomes = s.agent.try_outcomes();
    out.gate(outcomes.len() == H, "agent scored every try");
    for (o, selected) in outcomes.iter().zip(tries) {
        let mut sum = vec![0u64; dists[0].classes()];
        for &id in selected {
            for (acc, v) in sum
                .iter_mut()
                .zip(codec.encode_vec(&dists[id].proportions()))
            {
                *acc += v;
            }
        }
        out.gate(
            o.population == codec.decode_average(&sum, selected.len()),
            "decrypted try sum equals the plaintext sum of the selected distributions",
        );
    }
    let best = outcomes
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.distance_to_uniform.total_cmp(&b.1.distance_to_uniform))
        .map(|(i, o)| (i, o.distance_to_uniform));
    out.gate(
        s.agent.verdict().is_some() && s.agent.verdict() == best,
        "verdict is the try closest to uniform",
    );
    out.gate(
        s.server.last_verdict() == s.agent.verdict(),
        "coordinator recorded the agent's verdict",
    );
}

/// The routing-loop gate: on one seed, this module's loop reproduces what
/// the library drivers produce — overall registry, try outcomes, verdict
/// and the metered traffic.
fn check_against_drivers(dists: &[ClassDistribution], seed: u64, out: &mut Outcome) {
    let mut ops = Ops::default();
    let mut tr = Tracer::new(false);
    let mut rng = StdRng::seed_from_u64(seed);
    let (timing, ours) = match session(dists, None, &mut rng, &mut tr, &mut ops) {
        Ok(s) => s,
        Err(e) => return out.gate(false, format!("gate session failed: {e}")),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let config = config();
    let mut transport = InMemoryTransport::new();
    let mut run = match run_registration_with(
        dists,
        &config,
        KEY_BITS,
        ShardedCoordinator::new(dists.len(), SHARDS),
        &mut transport,
        &mut rng,
    ) {
        Ok(run) => run,
        Err(e) => return out.gate(false, format!("reference registration failed: {e}")),
    };
    let mut selector = DubheSelector::new(dists, config);
    run.agent.expect_tries(H);
    for try_index in 0..H {
        let selected = selector.select(&mut rng);
        if let Err(e) = run_try(
            try_index,
            &selected,
            &mut run.agent,
            &mut run.clients,
            &mut run.server,
            &mut transport,
            &mut rng,
        ) {
            return out.gate(false, format!("reference try failed: {e}"));
        }
    }
    out.gate(
        ours.roles.agent.overall_registry() == Some(run.overall_registry()),
        "routing loop reproduces the drivers' overall registry",
    );
    let (a, b) = (ours.roles.agent.try_outcomes(), run.agent.try_outcomes());
    out.gate(
        a.len() == b.len()
            && a.iter().zip(&b).all(|(x, y)| {
                x.population == y.population
                    && x.distance_to_uniform == y.distance_to_uniform
                    && x.messages == y.messages
            }),
        "routing loop reproduces the drivers' try outcomes",
    );
    out.gate(
        ours.roles.agent.verdict() == run.agent.verdict(),
        "routing loop reproduces the drivers' verdict",
    );
    out.gate(
        timing.stats == *transport.stats(),
        "routing loop meters the drivers' traffic",
    );
}

/// Isolated cost of Algorithm 1 for one client, in microseconds (median
/// over the population, each timed over many calls).
fn register_us(dists: &[ClassDistribution]) -> f64 {
    let config = config();
    let layout = config.validate();
    let thresholds = config.effective_thresholds();
    const REPS: u32 = 200;
    let per_client: Vec<f64> = dists
        .iter()
        .map(|d| {
            let t = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(register(std::hint::black_box(d), &layout, &thresholds));
            }
            t.elapsed().as_secs_f64() * 1e6 / REPS as f64
        })
        .collect();
    median(&per_client).expect("clients exist")
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (setup, setup_s) = repeat_set_up(|rep| Ok(set_up(args.seed, rep))).expect("infallible");
    let dists = &setup.dists;

    let mut tr = Tracer::new(false);
    let mut ops = Ops::default();
    let mut rng = StdRng::seed_from_u64(args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut sessions: Vec<(bool, Timing)> = Vec::new();
    let usage0 = Usage::now();
    let t_window = Instant::now();
    let deadline = t_window + args.seconds;
    while Instant::now() < deadline || sessions.len() < 2 {
        let i = sessions.len();
        // The traced run alternates traced and untraced sessions, so the
        // tracing overhead is measured on interleaved samples.
        let traced = args.trace && i % 2 == 1;
        tr.set_enabled(traced);
        tr.set_sample(i as u64);
        let kp = thaw(&setup.keys[i % KEY_POOL]);
        // The agent's one-time fixed-base table, as `AgentNode::new` builds
        // it right after key generation.
        let _ = PrecomputedEncryptor::new(&kp.public, &mut rng);
        match session(dists, Some(kp), &mut rng, &mut tr, &mut ops) {
            Ok((timing, actors)) => {
                check_session(&actors, dists, &mut out);
                sessions.push((traced, timing));
            }
            Err(e) => {
                out.gate(false, format!("session {i} failed: {e}"));
                break;
            }
        }
    }
    let wall_s = t_window.elapsed().as_secs_f64();
    let usage = Usage::now();
    check_against_drivers(dists, args.seed ^ 0x00D2_1ED5, &mut out);
    out.ops = ops;
    if sessions.is_empty() {
        out.gate(false, "no session completed");
        return out;
    }

    let untraced: Vec<&Timing> = sessions.iter().filter(|s| !s.0).map(|s| &s.1).collect();
    let per_client = |f: fn(&Timing) -> &[Duration]| -> Vec<f64> {
        untraced
            .iter()
            .flat_map(|s| f(s).iter().map(|d| ms(*d)))
            .collect()
    };
    let client_cpu = per_client(|s| &s.client_cpu);
    let checkin = per_client(|s| &s.checkin);
    let round_ms: Vec<f64> = untraced.iter().map(|s| ms(s.round)).collect();
    let wire: Vec<f64> = sessions
        .iter()
        .map(|s| s.1.stats.total().bytes as f64 / CLIENTS as f64)
        .collect();
    let registrations = sessions.len() * CLIENTS;
    let tails = out.record(&Measured {
        round_ms: &round_ms,
        client_cpu_ms: &client_cpu,
        checkin_ms: &checkin,
        registrations,
        wall_s,
        wire_bytes_per_client: median(&wire).unwrap_or(0.0),
        setup_s: &setup_s,
        usage,
    });
    out.note(format!(
        "select_inproc: {} sessions ({} untraced) of {CLIENTS} clients at {KEY_BITS}-bit keys in {wall_s:.2}s; {tails}",
        sessions.len(),
        untraced.len(),
    ));
    out.per_layer
        .insert("he.keygen_ms", median(&setup.keygen_ms).unwrap_or(0.0));
    proc_metrics(&usage0, &usage, wall_s, registrations, &mut out.per_layer);
    if args.trace {
        layer_breakdown(&tr, &sessions, &setup, &mut rng, &mut out);
        out.spans = Some(tr);
    }
    out
}

/// Per-layer self times per session (median over the traced sessions),
/// the leftover of the round no layer accounts for, and the tracing
/// overhead against the interleaved untraced sessions.
fn layer_breakdown(
    tr: &Tracer,
    sessions: &[(bool, Timing)],
    setup: &Setup,
    rng: &mut StdRng,
    out: &mut Outcome,
) {
    let register_us = register_us(&setup.dists);
    let kp = thaw(&setup.keys[0]);
    let enc = PrecomputedEncryptor::new(&kp.public, rng);
    let registries: Vec<EncryptedVector> = (0..8)
        .map(|i| {
            let mut onehot = vec![0u64; 56];
            onehot[i * 7] = 1;
            EncryptedVector::encrypt_u64_with(&enc, &onehot, rng)
        })
        .collect();
    out.per_layer
        .insert("he.fold_us", calib::fold_us(&registries, 256));
    let per_sample = tr.self_times();
    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut shares = Vec::new();
    let mut traced_round = Vec::new();
    for (i, (traced, s)) in sessions.iter().enumerate() {
        if !traced {
            continue;
        }
        let Some(selfs) = per_sample.get(&(i as u64)) else {
            continue;
        };
        let get = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e6;
        let register_ms = register_us * CLIENTS as f64 / 1e3;
        let round_ms = ms(s.round);
        traced_round.push(round_ms);
        for (metric, v) in [
            (
                "he.encrypt_registry_ms",
                get(ENCRYPT_REGISTRY) - register_ms,
            ),
            ("select.register_ms", register_ms),
            ("he.decrypt_total_ms", get(DECRYPT_TOTAL)),
            ("he.encrypt_distribution_ms", get(ENCRYPT_DISTRIBUTION)),
            ("he.agent_decrypt_ms", get(AGENT)),
            ("protocol.coordinator_ms", get(COORDINATOR)),
            ("select.tentative_ms", get(TENTATIVE)),
            ("trace.leftover_ms", get(ROUND)),
        ] {
            series.entry(metric).or_default().push(v);
        }
        shares.push(get(DECRYPT_TOTAL) / round_ms);
    }
    let layers = &mut out.per_layer;
    for (metric, xs) in &series {
        if let Some(name) = PER_LAYER.iter().map(|m| m.0).find(|m| m == metric) {
            layers.insert(name, median(xs).unwrap_or(0.0));
        }
    }
    layers.insert("select.register_us", register_us);
    layers.insert("he.decrypt_total_share", median(&shares).unwrap_or(0.0));
    let untraced: Vec<f64> = sessions
        .iter()
        .filter(|s| !s.0)
        .map(|s| ms(s.1.round))
        .collect();
    if let (Some(t), Some(u)) = (median(&traced_round), median(&untraced)) {
        layers.insert("trace.overhead_share", (t - u) / u);
    }
    let lines: Vec<String> = series
        .iter()
        .map(|(k, xs)| format!("{k}={:.3}", median(xs).unwrap_or(0.0)))
        .collect();
    out.note(format!(
        "select_inproc layers per session (ms, median of {} traced): {}; round {:.3}; read-out decrypt share {:.3}",
        traced_round.len(),
        lines.join(" "),
        median(&traced_round).unwrap_or(0.0),
        median(&shares).unwrap_or(0.0),
    ));
}
