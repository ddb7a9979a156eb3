//! §6.4: encryption and communication overhead.
//!
//! Measures, on this machine and this Paillier implementation, the same
//! quantities the paper reports:
//!
//! * plaintext and ciphertext sizes of a length-56 registry (group 1) and a
//!   length-53 registry / 52-class distribution (group 2);
//! * encryption and decryption latency per registry;
//! * the communication-count model (K check-ins per round, N registry
//!   transfers per registration, ~H*K multi-time transfers);
//! * the BatchCrypt-style packed alternative, quantifying how much of the
//!   element-wise overhead packing removes;
//! * a full protocol round-trip through the role-separated actor API
//!   (registration + one multi-time round), with per-message-kind transport
//!   metering;
//! * an end-to-end `FlSimulation` in encrypted mode, cross-checked against
//!   the modeled ledger accounting.
//!
//! Uses 2048-bit keys like the paper by default; pass `--key-bits 512` for a
//! quick run.
//!
//! ```text
//! cargo run --release -p dubhe-bench --bin overhead_report [-- --key-bits 512]
//! ```

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_fl::models::small_mlp;
use dubhe_fl::{FlSimulation, SecureMode, SimulationConfig};
use dubhe_he::packing::Packer;
use dubhe_he::transport::{measure_packed, measure_vector, CommunicationCount};
use dubhe_he::{
    CrtEncryptor, EncryptedVector, Encryptor, FixedPointCodec, Keypair, PrecomputedEncryptor,
    PrivateKey, PublicKey, RunningFold,
};
use dubhe_net::{ReactorConfig, ReactorListener};
use dubhe_select::protocol::{
    client_handshake, pump, run_registration, run_registration_with, run_try,
    run_try_with_dropouts, ChannelPolicy, CodecKind, CoordinatorServer, Envelope,
    InMemoryTransport, LinkStats, NodeIdentity, Party, ProtocolMsg, RegistryFrame,
    ShardedCoordinator, TcpConfig, TcpTransport, Transport, WireMsg, HANDSHAKE_WIRE_BYTES,
    MAX_FRAME_BYTES, SEALED_FRAME_OVERHEAD,
};
use dubhe_select::{DubheConfig, DubheSelector};
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

#[derive(Serialize)]
struct OverheadRow {
    object: String,
    length: usize,
    plaintext_bytes: usize,
    ciphertext_bytes: usize,
    expansion: f64,
    encrypt_ms: f64,
    decrypt_ms: f64,
}

/// One registration round of `clients` length-`registry_len` uploads, timed
/// stage by stage along the exact path the binary listeners take.
#[derive(Serialize)]
struct LatencyBudget {
    clients: usize,
    registry_len: usize,
    key_bits: u64,
    /// Client side: fixed-base multi-exp encryption of every registry.
    encrypt_ms: f64,
    /// `DBH2` payload encoding of every upload.
    wire_ms: f64,
    /// Zero-copy deferral: envelope-prefix parse plus in-place residue
    /// validation — no ciphertext bytes are copied or re-allocated.
    decode_ms: f64,
    /// Montgomery running fold straight over the borrowed frame views.
    fold_ms: f64,
    /// CRT batch decryption of the folded total.
    decrypt_ms: f64,
    total_ms: f64,
}

/// The multi-exponentiation acceptance measurement: the interleaved batch
/// walk over a length-56 registry against 56 independent per-element
/// encryptions of the same `CrtEncryptor`, at the paper-scale 1024-bit key.
#[derive(Serialize)]
struct MultiExpRow {
    key_bits: u64,
    registry_len: usize,
    per_element_ms: f64,
    multi_exp_ms: f64,
    speedup: f64,
}

/// What the authenticated channel costs on top of the plaintext protocol:
/// the one-time handshake (latency + its fixed wire bytes) and the 32-byte
/// seal every frame carries afterwards. The report asserts the total stays
/// within a 15% envelope over the inner protocol bytes — in practice the
/// ciphertext-heavy frames dwarf the seal by orders of magnitude.
#[derive(Serialize)]
struct ChannelOverheadRow {
    key_bits: u64,
    /// Mean X25519 handshake latency over loopback (connect excluded).
    handshake_ms: f64,
    /// Fixed handshake wire cost, both directions (`HANDSHAKE_WIRE_BYTES`).
    handshake_wire_bytes: usize,
    /// Sealed protocol frames the measured session exchanged.
    frames: usize,
    /// Inner protocol bytes (identical to the plaintext run by design).
    protocol_bytes: usize,
    /// Handshake + sealing bytes the channel added on top.
    channel_bytes: usize,
    /// Sealing bytes per frame (the constant `SEALED_FRAME_OVERHEAD`).
    sealed_overhead_per_frame: f64,
    /// (protocol + channel) / protocol — asserted ≤ 1.15.
    overhead_ratio: f64,
}

#[derive(Serialize)]
struct OverheadReport {
    sizes: Vec<OverheadRow>,
    latency_budget: LatencyBudget,
    multi_exp: MultiExpRow,
    channel: ChannelOverheadRow,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let key_bits: u64 = args
        .iter()
        .position(|a| a == "--key-bits")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2048);

    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    println!("generating a {key_bits}-bit Paillier keypair ...");
    let t = Instant::now();
    let keypair = Keypair::generate(key_bits, &mut rng);
    println!("keygen: {:.2?}\n", t.elapsed());
    let (pk, sk) = keypair.split();

    let mut rows = Vec::new();
    let mut measure = |object: &str, values: &[u64]| {
        let t = Instant::now();
        let enc = EncryptedVector::encrypt_u64(&pk, values, &mut rng);
        let encrypt_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let dec = enc.decrypt_u64(&sk).expect("registry counters fit in u64");
        let decrypt_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(dec, values, "round trip must be lossless");
        let size = measure_vector(&enc);
        rows.push(OverheadRow {
            object: object.to_string(),
            length: values.len(),
            plaintext_bytes: size.plaintext_bytes,
            ciphertext_bytes: size.ciphertext_bytes,
            expansion: size.expansion_factor(),
            encrypt_ms,
            decrypt_ms,
        });
    };

    // Group-1 registry (length 56) and group-2 registry (length 53), one-hot.
    let mut registry56 = vec![0u64; 56];
    registry56[10] = 1;
    measure("registry G={1,2,10} (l=56)", &registry56);
    let mut registry53 = vec![0u64; 53];
    registry53[17] = 1;
    measure("registry G={1,52} (l=53)", &registry53);

    // Encrypted label distribution p_l over 52 classes (multi-time selection).
    let codec = FixedPointCodec::default();
    let p_l: Vec<f64> = (0..52).map(|i| if i == 3 { 0.49 } else { 0.01 }).collect();
    measure("distribution p_l (C=52)", &codec.encode_vec(&p_l));

    println!(
        "{:<28} {:>4} {:>12} {:>13} {:>9} {:>11} {:>11}",
        "object", "len", "plain (B)", "cipher (B)", "expand", "encrypt ms", "decrypt ms"
    );
    for r in &rows {
        println!(
            "{:<28} {:>4} {:>12} {:>13} {:>8.1}x {:>11.2} {:>11.2}",
            r.object,
            r.length,
            r.plaintext_bytes,
            r.ciphertext_bytes,
            r.expansion,
            r.encrypt_ms,
            r.decrypt_ms
        );
    }
    println!(
        "\nPaper reference (python-paillier, 2048-bit): 0.47-0.49 KB plaintexts expand to \
         29.6-31.28 KB; encryption 6.9 s / decryption 1.9 s per registry. Our native \
         implementation is faster in absolute terms; the expansion factor and the \
         negligible-versus-training conclusion are what must match."
    );

    // Packed (BatchCrypt-style) alternative.
    let packer = Packer::new(32, key_bits);
    let packed = packer
        .encrypt(&pk, &registry56, &mut rng)
        .expect("packing fits");
    let packed_size = measure_packed(&packed);
    println!(
        "\npacked registry (32-bit slots): {} ciphertexts, {} B ({:.1}% of the element-wise payload)",
        packed.ciphertext_count(),
        packed_size.ciphertext_bytes,
        100.0 * packed_size.ciphertext_bytes as f64 / rows[0].ciphertext_bytes as f64
    );

    // Communication-count model (paper §6.4).
    println!("\ncommunication counts per round (K = 20, N = 1000, H = 10):");
    let plain = CommunicationCount::per_round(20, 1000, 1, false);
    let registration = CommunicationCount::per_round(20, 1000, 1, true);
    let multi = CommunicationCount::per_round(20, 1000, 10, false);
    println!("  classic FL round          : {} messages", plain.total());
    println!(
        "  + registration epoch      : {} messages",
        registration.total()
    );
    println!("  + multi-time selection    : {} messages", multi.total());

    let in_memory_stats = protocol_round_trip(key_bits);
    tcp_round_trip(key_bits, &in_memory_stats);
    let channel = channel_overhead(key_bits, &in_memory_stats);
    aggregation_throughput(&pk);
    let latency_budget = latency_budget_round(&pk, &sk);
    let multi_exp = multi_exp_acceptance();
    epoch_lifecycle(key_bits);
    encrypted_simulation(key_bits);

    dubhe_bench::dump_json(
        "overhead_report",
        &OverheadReport {
            sizes: rows,
            latency_budget,
            multi_exp,
            channel,
        },
    );
}

/// Measures what turning the authenticated channel on costs: handshake
/// latency in isolation, then the full TCP session from [`tcp_round_trip`]
/// re-run under `ChannelPolicy::Required` — same canonical traffic, plus a
/// metered handshake and a 32-byte seal per frame. Asserts the channel's
/// total wire cost stays within 15% of the inner protocol bytes.
fn channel_overhead(key_bits: u64, in_memory: &dubhe_select::TransportStats) -> ChannelOverheadRow {
    println!("\nauthenticated channel overhead (DBH2, 4-shard coordinator):");
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(30, 4),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .expect("spawn channel listener");
    let pin = listener.public_identity().expect("identity resolved");

    // Handshake latency in isolation: raw connect first, then time only the
    // three-message exchange.
    let reps = 20;
    let t = Instant::now();
    let mut streams: Vec<std::net::TcpStream> = (0..reps)
        .map(|_| std::net::TcpStream::connect(listener.addr()).expect("connect"))
        .collect();
    let connect_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let t = Instant::now();
    for (i, stream) in streams.iter_mut().enumerate() {
        let identity = NodeIdentity::from_seed(7000 + i as u64);
        client_handshake(stream, &identity, Some(pin), MAX_FRAME_BYTES).expect("handshake");
    }
    let handshake_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
    drop(streams);

    // The full session, sealed end-to-end.
    let mut rng = rand::rngs::StdRng::seed_from_u64(101);
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: 30,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed: 101,
    };
    let dists = spec.build_partition(&mut rng).client_distributions();
    let mut config = DubheConfig::group1();
    config.k = 10;
    let endpoint = TcpTransport::connect_with_config(
        listener.addr(),
        TcpConfig::default()
            .with_codec(CodecKind::Binary)
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(pin),
    )
    .expect("sealed connect");
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration_with(
        &dists,
        &config,
        key_bits,
        endpoint,
        &mut transport,
        &mut rng,
    )
    .expect("registration epoch over the sealed channel");
    let mut selector = DubheSelector::new(&dists, config);
    run.agent.expect_tries(3);
    for try_index in 0..3 {
        let tentative = dubhe_select::ClientSelector::select(&mut selector, &mut rng);
        run_try(
            try_index,
            &tentative,
            &mut run.agent,
            &mut run.clients,
            &mut run.server,
            &mut transport,
            &mut rng,
        )
        .expect("multi-time try over the sealed channel");
    }
    assert_eq!(
        transport.stats(),
        in_memory,
        "the sealed session must meter the identical canonical traffic"
    );
    let wire = *run.server.wire_stats();
    run.server.shutdown().expect("polite shutdown");
    drop(listener);

    let frames = wire.frames_sent + wire.frames_received;
    let protocol_bytes = wire.total_bytes();
    let channel_bytes = wire.channel_overhead_bytes();
    let per_frame = wire.sealed_overhead_bytes as f64 / frames as f64;
    let ratio = (protocol_bytes + channel_bytes) as f64 / protocol_bytes as f64;
    assert_eq!(
        per_frame, SEALED_FRAME_OVERHEAD as f64,
        "every sealed frame carries exactly the constant seal"
    );
    assert_eq!(wire.handshake_bytes, HANDSHAKE_WIRE_BYTES);
    assert!(
        ratio <= 1.15,
        "channel overhead {ratio:.4}x exceeds the 1.15x budget over protocol bytes"
    );
    println!(
        "  handshake: {handshake_ms:.3} ms (TCP connect {connect_ms:.3} ms), \
         {HANDSHAKE_WIRE_BYTES} B on the wire"
    );
    println!(
        "  sealing: {frames} frames x {SEALED_FRAME_OVERHEAD} B seal = {} B on \
         {protocol_bytes} protocol B -> {ratio:.4}x total (budget 1.15x)",
        wire.sealed_overhead_bytes
    );
    ChannelOverheadRow {
        key_bits,
        handshake_ms,
        handshake_wire_bytes: HANDSHAKE_WIRE_BYTES,
        frames,
        protocol_bytes,
        channel_bytes,
        sealed_overhead_per_frame: per_frame,
        overhead_ratio: ratio,
    }
}

/// The end-to-end per-round latency budget: where one registration round of
/// K = 20 clients actually spends its time, stage by stage, along the path
/// the binary (`DBH2`) listeners take — multi-exp encryption on the clients,
/// payload encoding, the zero-copy deferred decode (the envelope prefix is
/// parsed and the residue block validated in place; the fold then reads
/// ciphertext residues straight out of the frame payload), the Montgomery
/// running fold over the borrowed views, and the CRT batch decrypt of the
/// folded total.
fn latency_budget_round(pk: &PublicKey, sk: &PrivateKey) -> LatencyBudget {
    let clients = 20usize;
    let registry_len = 56usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0D6);

    // Client side: the shared fixed-base table is built once per epoch and
    // is not part of the per-round budget.
    let encryptor = PrecomputedEncryptor::new(pk, &mut rng);
    let t = Instant::now();
    let registries: Vec<EncryptedVector> = (0..clients)
        .map(|i| {
            let mut v = vec![0u64; registry_len];
            v[i % registry_len] = 1;
            EncryptedVector::encrypt_u64_with(&encryptor, &v, &mut rng)
        })
        .collect();
    let encrypt_ms = t.elapsed().as_secs_f64() * 1e3;

    let msgs: Vec<WireMsg> = registries
        .into_iter()
        .enumerate()
        .map(|(i, registry)| WireMsg::Envelope {
            envelope: Envelope {
                from: Party::Client(i),
                to: Party::Server,
                epoch: 0,
                msg: ProtocolMsg::EncryptedRegistry {
                    client: i,
                    registry,
                },
            },
        })
        .collect();
    let t = Instant::now();
    let payloads: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            CodecKind::Binary
                .encode(m)
                .expect("DBH2 encodes registries")
        })
        .collect();
    let wire_ms = t.elapsed().as_secs_f64() * 1e3;

    // Server side: the frame payload arrives owned from the socket buffer;
    // deferral consumes it without copying, and `view()` validates the
    // residue block against `n²` in place.
    let t = Instant::now();
    let frames: Vec<RegistryFrame> = payloads
        .into_iter()
        .map(|p| RegistryFrame::try_from_payload(p).expect("registry uploads defer"))
        .collect();
    for frame in &frames {
        black_box(frame.view().expect("well-formed residue block"));
    }
    let decode_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut fold: Option<RunningFold> = None;
    for frame in &frames {
        let view = frame.view().expect("validated above");
        match &mut fold {
            None => fold = Some(RunningFold::from_view(&view)),
            Some(f) => f.fold_view(&view).expect("same key and length"),
        }
    }
    let total = fold.expect("non-empty round").total();
    let fold_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let sums = total.decrypt_u64(sk).expect("counters fit in u64");
    let decrypt_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        sums.iter().sum::<u64>(),
        clients as u64,
        "every one-hot registry must land in the folded total"
    );

    let budget = LatencyBudget {
        clients,
        registry_len,
        key_bits: pk.bits(),
        encrypt_ms,
        wire_ms,
        decode_ms,
        fold_ms,
        decrypt_ms,
        total_ms: encrypt_ms + wire_ms + decode_ms + fold_ms + decrypt_ms,
    };
    println!(
        "\nper-round latency budget ({clients} clients x length {registry_len}, {}-bit key):",
        budget.key_bits
    );
    println!("  {:<10} {:>10} {:>7}", "stage", "ms", "share");
    for (stage, ms) in [
        ("encrypt", budget.encrypt_ms),
        ("wire", budget.wire_ms),
        ("decode", budget.decode_ms),
        ("fold", budget.fold_ms),
        ("decrypt", budget.decrypt_ms),
    ] {
        println!(
            "  {:<10} {:>10.3} {:>6.1}%",
            stage,
            ms,
            100.0 * ms / budget.total_ms
        );
    }
    println!("  {:<10} {:>10.3}", "TOTAL", budget.total_ms);
    budget
}

/// The raw-speed acceptance bar for registry encryption: the simultaneous
/// multi-exponentiation walk must beat 56 independent per-element
/// encryptions of the same `CrtEncryptor` by at least 1.5× at 1024-bit
/// keys, while producing bit-identical ciphertexts on the same randomness
/// stream (batch and per-element draw the identical exponent sequence).
fn multi_exp_acceptance() -> MultiExpRow {
    const KEY_BITS: u64 = 1024;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x517);
    println!("\nmulti-exp acceptance: generating a {KEY_BITS}-bit keypair ...");
    let kp = Keypair::generate(KEY_BITS, &mut rng);
    let crt = CrtEncryptor::new(&kp, &mut rng).expect("valid keypair");
    let mut registry = vec![0u64; 56];
    registry[10] = 1;

    // Bit-identity: same seed, both routes draw the same short exponents.
    let mut rng_a = rand::rngs::StdRng::seed_from_u64(7);
    let mut rng_b = rand::rngs::StdRng::seed_from_u64(7);
    let batch = EncryptedVector::encrypt_u64_with(&crt, &registry, &mut rng_a);
    let per: Vec<_> = registry
        .iter()
        .map(|&m| crt.encrypt_u64(m, &mut rng_b))
        .collect();
    for (a, b) in batch.elements().iter().zip(&per) {
        assert_eq!(
            a.raw(),
            b.raw(),
            "multi-exp and per-element ciphertexts must be bit-identical"
        );
    }

    // Steady state of an epoch encryptor: the batch evaluator upgrades to
    // its 8-bit wide tables once enough cumulative volume justifies the
    // build (~512 elements). Warm past that threshold so the timed loop
    // measures the per-round cost every subsequent batch pays, with the
    // one-off table expansion amortised away — exactly the regime a
    // coordinator-side or long-lived client encryptor runs in.
    for _ in 0..10 {
        black_box(EncryptedVector::encrypt_u64_with(&crt, &registry, &mut rng));
    }

    // Best-of-N timing: the minimum over repeated runs is the standard
    // latency estimator under scheduler noise — both routes get the same
    // treatment, so the ratio is the steady-state one.
    let time_min = |f: &mut dyn FnMut()| -> f64 {
        (0..12)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let multi_exp_ms = time_min(&mut || {
        black_box(EncryptedVector::encrypt_u64_with(&crt, &registry, &mut rng));
    });
    let per_element_ms = time_min(&mut || {
        for &m in &registry {
            black_box(crt.encrypt_u64(m, &mut rng));
        }
    });
    let speedup = per_element_ms / multi_exp_ms;
    println!(
        "  registry56 per-element {per_element_ms:.2} ms, multi-exp {multi_exp_ms:.2} ms \
         ({speedup:.2}x, bit-identical)"
    );
    assert!(
        speedup >= 1.5,
        "simultaneous multi-exp must clear 1.5x over per-element encryption \
         at {KEY_BITS}-bit keys (measured {speedup:.2}x)"
    );
    MultiExpRow {
        key_bits: KEY_BITS,
        registry_len: registry.len(),
        per_element_ms,
        multi_exp_ms,
        speedup,
    }
}

/// Prints the registry-aggregation throughput next to the codec table: how
/// fast the coordinator folds client registries with the reference
/// multiply-and-divide path vs the Montgomery-domain fold (the route
/// `sum_vectors`, `CoordinatorServer` and `ShardedCoordinator` actually
/// take). The full 10²…10⁵ sweep lives in the `registry_agg` bench
/// (`results/BENCH_agg.json`); this is the at-a-glance line for the report's
/// key size.
fn aggregation_throughput(pk: &dubhe_he::PublicKey) {
    use dubhe_he::{sum_vectors, sum_vectors_serial};

    let clients = 2000usize;
    let len = 56usize;
    let registries = dubhe_bench::synthetic_registries(pk, clients, len, 0xA66);

    let t = Instant::now();
    let serial = sum_vectors_serial(&registries)
        .expect("same shape")
        .expect("non-empty");
    let serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mont = sum_vectors(&registries)
        .expect("same shape")
        .expect("non-empty");
    let mont_s = t.elapsed().as_secs_f64();
    assert_eq!(mont, serial, "Montgomery fold must be bit-identical");

    let elems = (clients * len) as f64;
    println!(
        "\nregistry aggregation ({clients} clients x length {len}, {}-bit key):\n  \
         serial fold {:>10.0} elems/s, Montgomery-domain fold {:>10.0} elems/s ({:.2}x)",
        pk.bits(),
        elems / serial_s,
        elems / mont_s,
        serial_s / mont_s,
    );
}

/// Drives one registration epoch plus one H=3 multi-time round through the
/// actor/transport API and prints the per-message-kind metering. Returns the
/// canonical stats so the TCP run can be cross-checked against them.
fn protocol_round_trip(key_bits: u64) -> dubhe_select::TransportStats {
    println!("\nprotocol round-trip through the actor API (N = 30, K = 10, H = 3):");
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: 30,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed: 101,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(101);
    let dists = spec.build_partition(&mut rng).client_distributions();
    let mut config = DubheConfig::group1();
    config.k = 10;

    let t = Instant::now();
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration(&dists, &config, key_bits, &mut transport, &mut rng)
        .expect("registration epoch");
    let registration_time = t.elapsed();

    let mut selector = DubheSelector::new(&dists, config);
    let t = Instant::now();
    run.agent.expect_tries(3);
    for try_index in 0..3 {
        let tentative = dubhe_select::ClientSelector::select(&mut selector, &mut rng);
        run_try(
            try_index,
            &tentative,
            &mut run.agent,
            &mut run.clients,
            &mut run.server,
            &mut transport,
            &mut rng,
        )
        .expect("multi-time try");
    }
    let multi_time = t.elapsed();
    let (best_try, distance) = run.agent.verdict().expect("verdict issued");

    let stats = transport.stats();
    let row = |name: &str, l: &LinkStats| {
        println!(
            "  {name:<22} {:>5} messages {:>12} bytes",
            l.messages, l.bytes
        );
    };
    row("key dispatch", &stats.key_dispatches);
    row("encrypted registries", &stats.registries);
    row("total broadcasts", &stats.total_broadcasts);
    row("distributions", &stats.distributions);
    row("distribution sums", &stats.distribution_sums);
    row("verdicts", &stats.verdicts);
    row("TOTAL", &stats.total());
    println!(
        "  registration {registration_time:.2?}, multi-time {multi_time:.2?}; \
         agent verdict: try {best_try} at L1 distance {distance:.4}"
    );
    *stats
}

/// The identical session over loopback TCP against a 4-shard coordinator,
/// once per payload codec: every server-bound message crosses a real socket
/// as a length-prefixed `DBH1` (JSON), `DBH2` (canonical binary) or `DBHZ`
/// (LZSS-compressed JSON) frame. The canonical byte totals must match the
/// in-memory run exactly for all three; the measured frame bytes show what
/// each codec's framing and encoding add on top. `DBH2` is asserted to stay
/// within 1.10× of the canonical bytes — the paper's communication model —
/// where `DBH1` pays ~2.5× and `DBHZ` sits between them.
fn tcp_round_trip(key_bits: u64, in_memory: &dubhe_select::TransportStats) {
    println!("\nsame session over loopback TCP (4-shard coordinator), per wire codec:");
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: 30,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed: 101,
    };

    println!(
        "  {:<6} {:>8} {:>16} {:>17} {:>10} {:>10}",
        "codec", "frames", "measured (B)", "canonical (B)", "overhead", "time"
    );
    let mut overheads = Vec::new();
    for codec in [CodecKind::Json, CodecKind::Binary, CodecKind::JsonLz] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        let dists = spec.build_partition(&mut rng).client_distributions();
        let mut config = DubheConfig::group1();
        config.k = 10;

        let listener = ReactorListener::spawn(ShardedCoordinator::new(30, 4))
            .expect("spawn loopback listener");
        let endpoint = TcpTransport::connect_with_codec(listener.addr(), codec).expect("connect");

        let t = Instant::now();
        let mut transport = InMemoryTransport::new();
        let mut run = run_registration_with(
            &dists,
            &config,
            key_bits,
            endpoint,
            &mut transport,
            &mut rng,
        )
        .expect("registration epoch over TCP");
        let mut selector = DubheSelector::new(&dists, config);
        run.agent.expect_tries(3);
        for try_index in 0..3 {
            let tentative = dubhe_select::ClientSelector::select(&mut selector, &mut rng);
            run_try(
                try_index,
                &tentative,
                &mut run.agent,
                &mut run.clients,
                &mut run.server,
                &mut transport,
                &mut rng,
            )
            .expect("multi-time try over TCP");
        }
        let elapsed = t.elapsed();

        let canonical = transport.stats();
        assert_eq!(
            canonical,
            in_memory,
            "{} TCP session must meter the identical canonical traffic",
            codec.name()
        );
        let wire = *run.server.wire_stats();
        let canonical_total = canonical.total();
        let overhead = wire.total_bytes() as f64 / canonical_total.bytes as f64;
        println!(
            "  {:<6} {:>8} {:>16} {:>17} {:>9.2}x {:>10.2?}",
            codec.name(),
            wire.frames_sent + wire.frames_received,
            wire.total_bytes(),
            canonical_total.bytes,
            overhead,
            elapsed,
        );
        overheads.push((codec, overhead));
        run.server.shutdown().expect("polite shutdown");
        drop(listener);
    }
    let dbh2 = overheads
        .iter()
        .find(|(c, _)| *c == CodecKind::Binary)
        .map(|(_, o)| *o)
        .expect("DBH2 measured");
    assert!(
        dbh2 <= 1.10,
        "DBH2 framing overhead {dbh2:.3}x exceeds the 1.10x budget over canonical bytes"
    );
    println!(
        "  DBH2 stays within the 1.10x canonical budget (measured {dbh2:.3}x): the binary \
         codec makes measured wire traffic match the paper's communication model."
    );
}

/// Measures the epoch-lifecycle machinery at the report's key size: a
/// mid-simulation key rotation (fresh keypair + full cohort
/// re-registration), coordinator crash recovery from a snapshot, and a
/// multi-time round explicitly closed on a partial cohort after a dropout.
fn epoch_lifecycle(key_bits: u64) {
    println!("\nepoch lifecycle (N = 30, K = 10):");
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: 30,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed: 107,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(107);
    let dists = spec.build_partition(&mut rng).client_distributions();
    let mut config = DubheConfig::group1();
    config.k = 10;

    let mut transport = InMemoryTransport::new();
    let mut run = run_registration(&dists, &config, key_bits, &mut transport, &mut rng)
        .expect("registration epoch");

    // Key rotation: fresh keypair, new epoch, full cohort re-registration.
    let t = Instant::now();
    for e in run.agent.rotate_epoch(30, &mut rng) {
        transport.send(e);
    }
    pump(
        &mut transport,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut rng,
    )
    .expect("re-registration under the rotated key");
    let rotation = t.elapsed();

    // Crash recovery: serialize the live coordinator, rebuild it from the
    // bytes alone, and check the restored fold is bit-identical.
    let t = Instant::now();
    let snapshot = run.server.snapshot().expect("snapshot");
    let restored = CoordinatorServer::restore(&snapshot).expect("restore");
    let recovery = t.elapsed();
    let original = run.server.encrypted_total().expect("epoch complete");
    let recovered = restored.encrypted_total().expect("epoch complete");
    for (a, b) in original.elements().iter().zip(recovered.elements()) {
        assert_eq!(a.raw(), b.raw(), "restored fold must be bit-identical");
    }

    // Partial-cohort round: one tentative participant silently drops, the
    // try is explicitly closed on the survivors.
    let mut selector = DubheSelector::new(&dists, config);
    run.agent.expect_tries(1);
    let tentative = dubhe_select::ClientSelector::select(&mut selector, &mut rng);
    let dropped = vec![tentative[0]];
    let t = Instant::now();
    run_try_with_dropouts(
        0,
        &tentative,
        &dropped,
        &mut run.agent,
        &mut run.clients,
        &mut run.server,
        &mut transport,
        &mut rng,
    )
    .expect("partial-cohort try");
    let partial = t.elapsed();
    let outcome = *run.server.cohort_outcomes().last().expect("recorded");
    assert!(outcome.partial && outcome.contributed == tentative.len() - 1);

    println!(
        "  key rotation + re-registration : {rotation:>10.2?}  (epoch {} live)",
        run.agent.epoch()
    );
    println!(
        "  snapshot + restore             : {recovery:>10.2?}  ({} B snapshot, fold bit-identical)",
        snapshot.len()
    );
    println!(
        "  partial-cohort round (1 drop)  : {partial:>10.2?}  ({}/{} contributed, closed explicitly)",
        outcome.contributed,
        outcome.expected
    );
}

/// Runs a miniature federated training with the real encrypted exchange
/// enabled and verifies the measured ledger equals the modeled accounting.
fn encrypted_simulation(key_bits: u64) {
    println!("\nFlSimulation in encrypted mode (N = 24, 3 rounds, H = 3):");
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: 24,
        samples_per_client: 32,
        test_samples_per_class: 10,
        seed: 103,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(103);
    let data = spec.build_dataset(&mut rng);
    let dists = data.client_distributions();

    let run_mode = |secure: SecureMode| {
        let selector = Box::new(DubheSelector::new(&dists, DubheConfig::group1()));
        let model = small_mlp(data.test.feature_dim(), 10, 9);
        let mut config = SimulationConfig::quick(3, 29);
        config.multi_time_h = 3;
        config.secure = secure;
        let mut sim = FlSimulation::from_datasets(
            data.client_data.clone(),
            data.test.clone(),
            model,
            selector,
            config,
        );
        let t = Instant::now();
        sim.run().expect("simulation");
        (sim.ledger().clone(), t.elapsed())
    };

    let (modeled, modeled_time) = run_mode(SecureMode::Modeled { key_bits });
    let (encrypted, encrypted_time) = run_mode(SecureMode::Encrypted {
        key_bits,
        packing: None,
    });
    let (tcp_json, json_time) = run_mode(SecureMode::EncryptedTcp {
        key_bits,
        shards: 4,
        codec: CodecKind::Json,
        packing: None,
        channel: ChannelPolicy::Plaintext,
    });
    let (tcp_binary, binary_time) = run_mode(SecureMode::EncryptedTcp {
        key_bits,
        shards: 4,
        codec: CodecKind::Binary,
        packing: None,
        channel: ChannelPolicy::Plaintext,
    });
    println!(
        "  modeled   : {:>12} ciphertext bytes, {:>5} overhead messages ({modeled_time:.2?})",
        modeled.total_ciphertext_bytes(),
        modeled.dubhe_overhead_messages(),
    );
    println!(
        "  encrypted : {:>12} ciphertext bytes, {:>5} overhead messages ({encrypted_time:.2?})",
        encrypted.total_ciphertext_bytes(),
        encrypted.dubhe_overhead_messages(),
    );
    for (name, tcp, time) in [
        ("tcp DBH1", &tcp_json, json_time),
        ("tcp DBH2", &tcp_binary, binary_time),
    ] {
        println!(
            "  {name:<9} : {:>12} ciphertext bytes, {:>5} overhead messages, {:>12} framed bytes ({time:.2?})",
            tcp.total_ciphertext_bytes(),
            tcp.dubhe_overhead_messages(),
            tcp.total_wire_frame_bytes(),
        );
    }
    assert_eq!(
        modeled.total_ciphertext_bytes(),
        encrypted.total_ciphertext_bytes(),
        "measured transport bytes must match the modeled ledger"
    );
    assert_eq!(
        modeled.dubhe_overhead_messages(),
        encrypted.dubhe_overhead_messages()
    );
    for tcp in [&tcp_json, &tcp_binary] {
        assert_eq!(
            tcp.total_ciphertext_bytes(),
            modeled.total_ciphertext_bytes(),
            "canonical accounting must be transport- and codec-independent"
        );
        assert_eq!(
            tcp.dubhe_overhead_messages(),
            modeled.dubhe_overhead_messages()
        );
        assert!(
            tcp.total_wire_frame_bytes() > tcp.total_ciphertext_bytes(),
            "real frames include framing and encoding overhead"
        );
    }
    assert!(
        tcp_binary.total_wire_frame_bytes() < tcp_json.total_wire_frame_bytes(),
        "DBH2 must frame the identical run in fewer bytes than DBH1"
    );
    println!(
        "  ledgers match: in-memory and TCP exchanges reproduce the modeled accounting \
         (framing adds {:.2}x under DBH1, {:.2}x under DBH2, on uplink ciphertext bytes).",
        tcp_json.total_wire_frame_bytes() as f64 / tcp_json.total_ciphertext_bytes() as f64,
        tcp_binary.total_wire_frame_bytes() as f64 / tcp_binary.total_ciphertext_bytes() as f64
    );

    // The same runs under 32-bit slot packing: identical decisions, many
    // counters per Paillier plaintext, so every ciphertext-bearing message
    // (and with it the framed wire traffic) shrinks by the lane count.
    let (packed, packed_time) = run_mode(SecureMode::Encrypted {
        key_bits,
        packing: Some(32),
    });
    let (packed_tcp, packed_tcp_time) = run_mode(SecureMode::EncryptedTcp {
        key_bits,
        shards: 4,
        codec: CodecKind::Binary,
        packing: Some(32),
        channel: ChannelPolicy::Plaintext,
    });
    let ct_reduction =
        encrypted.total_ciphertext_bytes() as f64 / packed.total_ciphertext_bytes() as f64;
    let wire_reduction =
        tcp_binary.total_wire_frame_bytes() as f64 / packed_tcp.total_wire_frame_bytes() as f64;
    println!("\npacked (32-bit slots) vs element-wise, same seeds and identical decisions:");
    println!(
        "  {:<22} {:>16} {:>10} {:>16} {:>10} {:>10}",
        "mode", "ciphertext (B)", "reduction", "DBH2 framed (B)", "reduction", "time"
    );
    println!(
        "  {:<22} {:>16} {:>10} {:>16} {:>10} {:>10.2?}",
        "element-wise",
        encrypted.total_ciphertext_bytes(),
        "1.00x",
        tcp_binary.total_wire_frame_bytes(),
        "1.00x",
        binary_time,
    );
    println!(
        "  {:<22} {:>16} {:>9.2}x {:>16} {:>9.2}x {:>10.2?}",
        "packed",
        packed.total_ciphertext_bytes(),
        ct_reduction,
        packed_tcp.total_wire_frame_bytes(),
        wire_reduction,
        packed_time.min(packed_tcp_time),
    );
    assert_eq!(
        packed.total_ciphertext_bytes(),
        packed_tcp.total_ciphertext_bytes(),
        "packed canonical accounting must be transport-independent"
    );
    assert!(
        ct_reduction >= 4.0,
        "32-bit slot packing must shrink uplink ciphertext bytes at least 4x (got {ct_reduction:.2}x)"
    );
    assert!(
        wire_reduction > 1.0,
        "packed frames must shrink the measured wire traffic (got {wire_reduction:.2}x)"
    );
}
