//! Equivalence and robustness pins for the networked/sharded coordinator.
//!
//! The acceptance bar of the transport work: a `ShardedCoordinator` (N ∈
//! {1, 4}) and a TCP-loopback session must be *bit-identical* to the
//! in-memory single-coordinator exchange on the same seed — same decrypted
//! overall registry, same ciphertext residues, same verdict, same canonical
//! byte accounting — and the TCP layer must surface every failure mode as a
//! `ProtocolError`, never a panic or a hang. The server side of every
//! socket here is the coordinator listener, `dubhe-net`'s `ReactorListener`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_net::{ReactorConfig, ReactorListener};
use dubhe_select::protocol::{
    read_frame, run_registration_with, run_try, ChannelPolicy, CodecKind, Coordinator, Envelope,
    InMemoryTransport, ListenerStats, Party, ProtocolMsg, ShardedCoordinator, TcpConfig,
    TcpTransport, TransportStats, WireMsg, FRAME_MAGIC, HANDSHAKE_WIRE_BYTES,
    SEALED_FRAME_OVERHEAD,
};
use dubhe_select::{ClientSelector, DubheConfig, DubheSelector, ProtocolError};
use rand::SeedableRng;

const KEY_BITS: u64 = 256;

fn clients(n: usize, seed: u64) -> Vec<ClassDistribution> {
    let spec = FederatedSpec {
        family: DatasetFamily::MnistLike,
        rho: 10.0,
        emd_avg: 1.5,
        clients: n,
        samples_per_client: 100,
        test_samples_per_class: 1,
        seed,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    spec.build_partition(&mut rng).client_distributions()
}

/// One full session (registration + H=3 multi-time round) against an
/// arbitrary coordinator slot. Returns everything the equivalence pins
/// compare: the decrypted overall registry, the agent's verdict, the
/// canonical transport stats, and the coordinator slot back.
fn drive_session<C: Coordinator>(
    dists: &[ClassDistribution],
    seed: u64,
    server: C,
) -> (Vec<u64>, (usize, f64), TransportStats, C) {
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut transport = InMemoryTransport::new();
    let mut run =
        run_registration_with(dists, &config, KEY_BITS, server, &mut transport, &mut rng).unwrap();

    let mut selector = DubheSelector::new(dists, config);
    run.agent.expect_tries(3);
    for try_index in 0..3 {
        let tentative = selector.select(&mut rng);
        run_try(
            try_index,
            &tentative,
            &mut run.agent,
            &mut run.clients,
            &mut run.server,
            &mut transport,
            &mut rng,
        )
        .unwrap();
    }

    let overall = run.overall_registry().to_vec();
    let verdict = run.agent.verdict().expect("all tries evaluated");
    (overall, verdict, *transport.stats(), run.server)
}

#[test]
fn sharded_coordinator_is_bit_identical_to_single_for_n_1_and_4() {
    let dists = clients(20, 51);

    let (overall_single, verdict_single, stats_single, single) =
        drive_session(&dists, 52, dubhe_select::CoordinatorServer::new(20));
    let total_single = single.encrypted_total().expect("epoch complete");

    for shards in [1usize, 4] {
        let (overall, verdict, stats, sharded) =
            drive_session(&dists, 52, ShardedCoordinator::new(20, shards));
        assert_eq!(overall, overall_single, "shards={shards}");
        assert_eq!(verdict, verdict_single, "shards={shards}");
        assert_eq!(stats, stats_single, "shards={shards}");
        // Bit-identical ciphertext folds, element by element.
        let total = sharded.encrypted_total().expect("epoch complete");
        assert_eq!(total.len(), total_single.len());
        for (a, b) in total.elements().iter().zip(total_single.elements()) {
            assert_eq!(a.raw(), b.raw(), "shards={shards}: fold diverged");
        }
        assert_eq!(sharded.messages_received(), single.messages_received());
        assert_eq!(sharded.bytes_received(), single.bytes_received());
    }
}

#[test]
fn tcp_loopback_session_is_bit_identical_to_in_memory_under_both_codecs() {
    let dists = clients(24, 61);

    let (overall_mem, verdict_mem, stats_mem, server) =
        drive_session(&dists, 62, dubhe_select::CoordinatorServer::new(24));

    // Same exchange, but every server-bound envelope crosses a real socket
    // to a sharded listener — once framed as DBH1 JSON, once as DBH2
    // canonical binary. Decisions and canonical accounting must be
    // identical; only the measured framing differs.
    let mut wire_totals = Vec::new();
    for codec in [CodecKind::Json, CodecKind::Binary, CodecKind::JsonLz] {
        let listener = ReactorListener::spawn(ShardedCoordinator::new(24, 4)).unwrap();
        let endpoint = TcpTransport::connect_with_codec(listener.addr(), codec).unwrap();
        let (overall_tcp, verdict_tcp, stats_tcp, endpoint) = drive_session(&dists, 62, endpoint);

        assert_eq!(overall_tcp, overall_mem, "{}", codec.name());
        assert_eq!(verdict_tcp, verdict_mem, "{}", codec.name());
        // The local transport saw the identical message flow...
        assert_eq!(stats_tcp, stats_mem, "{}", codec.name());
        // ...and the socket actually carried it: framed bytes exceed the
        // canonical ciphertext accounting (framing is not free).
        let wire = *endpoint.wire_stats();
        assert!(wire.frames_sent > 0 && wire.frames_received > 0);
        assert!(
            wire.total_bytes() > stats_mem.total().bytes,
            "{}: framed traffic {} should exceed canonical bytes {}",
            codec.name(),
            wire.total_bytes(),
            stats_mem.total().bytes
        );
        wire_totals.push(wire.total_bytes());
        endpoint.shutdown().unwrap();
        let coordinator = listener.shutdown().expect("listener state");
        // The remote coordinator saw exactly what the in-memory server saw,
        // in canonical units — regardless of the payload format.
        assert_eq!(coordinator.messages_received(), server.messages_received());
        assert_eq!(coordinator.bytes_received(), server.bytes_received());
        assert_eq!(coordinator.last_verdict(), Some(verdict_mem));
    }
    assert!(
        wire_totals[1] < wire_totals[0],
        "DBH2 ({}) must frame the identical session in fewer bytes than DBH1 ({})",
        wire_totals[1],
        wire_totals[0]
    );
}

#[test]
fn remote_coordinator_relays_protocol_errors() {
    // A registry from an unknown client must come back as a typed remote
    // rejection, not a hang or a dropped connection.
    let dists = clients(4, 71);
    let config = DubheConfig::group1();
    let mut rng = rand::rngs::StdRng::seed_from_u64(72);

    let listener = ReactorListener::spawn(ShardedCoordinator::new(4, 2)).unwrap();
    let endpoint = TcpTransport::connect(listener.addr()).unwrap();
    let mut transport = InMemoryTransport::new();
    let mut run = run_registration_with(
        &dists,
        &config,
        KEY_BITS,
        endpoint,
        &mut transport,
        &mut rng,
    )
    .unwrap();

    // Replay client 0's registration after the epoch completed.
    let registry =
        dubhe_he::EncryptedVector::encrypt_u64(run.agent.public_key(), &vec![0u64; 56], &mut rng);
    let err = run
        .server
        .deliver(Envelope {
            from: Party::Client(0),
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::EncryptedRegistry {
                client: 0,
                registry,
            },
        })
        .unwrap_err();
    match err {
        ProtocolError::Remote { detail } => {
            assert!(detail.contains("after the total was broadcast"), "{detail}");
        }
        other => panic!("expected a relayed remote error, got {other}"),
    }
}

#[test]
fn garbage_frames_get_an_error_reply_and_a_hangup() {
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut raw = TcpStream::connect(listener.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\nHost: dubhe\r\n\r\n")
        .unwrap();
    // The listener reports the malformed frame and closes.
    let (reply, _) = read_frame(&mut raw).expect("an error frame before the hangup");
    match reply {
        WireMsg::Error { detail } => assert!(detail.contains("malformed"), "{detail}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(raw.read_to_end(&mut rest).unwrap(), 0, "connection closed");
}

#[test]
fn truncated_frame_surfaces_as_error_reply() {
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut raw = TcpStream::connect(listener.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // A correct magic and a length announcing 100 bytes... of which only 3
    // arrive before the client half-closes.
    raw.write_all(&FRAME_MAGIC).unwrap();
    raw.write_all(&100u32.to_be_bytes()).unwrap();
    raw.write_all(b"abc").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let (reply, _) = read_frame(&mut raw).expect("an error frame before the hangup");
    match reply {
        WireMsg::Error { detail } => assert!(detail.contains("truncated"), "{detail}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn mid_exchange_disconnect_is_an_error_not_a_hang() {
    // The "server" accepts and immediately drops the connection.
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let killer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
    });
    let mut endpoint = TcpTransport::connect_with_timeout(addr, Duration::from_secs(2)).unwrap();
    killer.join().unwrap();
    let err = endpoint
        .deliver(Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::TryVerdict {
                best_try: 0,
                distance: 0.0,
            },
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            ProtocolError::Disconnected
                | ProtocolError::TruncatedFrame { .. }
                | ProtocolError::Io { .. }
        ),
        "unexpected error shape: {err}"
    );
}

#[test]
fn silent_peer_times_out_instead_of_hanging() {
    // The "server" accepts and never replies; the connector's read timeout
    // must bound the wait.
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, released) = mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Hold the socket open, silent, until the test has asserted.
        let _ = released.recv();
        drop(stream);
    });
    let mut endpoint =
        TcpTransport::connect_with_timeout(addr, Duration::from_millis(300)).unwrap();
    let started = std::time::Instant::now();
    let err = endpoint
        .announce_try(0, &[1, 2, 3])
        .expect_err("silent peer must not look like success");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "timed out too slowly: {:?}",
        started.elapsed()
    );
    assert!(matches!(err, ProtocolError::Io { .. }), "{err}");
    release.send(()).unwrap();
    holder.join().unwrap();
}

#[test]
fn connect_to_a_dead_port_fails_cleanly() {
    // Bind-then-drop guarantees the port is closed.
    let addr = {
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap()
    };
    let err = TcpTransport::connect(addr).unwrap_err();
    assert!(matches!(err, ProtocolError::Io { .. }), "{err}");
}

fn verdict(best_try: usize) -> Envelope {
    Envelope {
        from: Party::Agent,
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::TryVerdict {
            best_try,
            distance: 0.1,
        },
    }
}

/// Polls the listener's stats until `done` holds. Replies reach the client
/// a moment before the event loop finishes recording them, so counters are
/// read once they have settled rather than raced.
fn settled<C: Coordinator + Send + 'static>(
    listener: &ReactorListener<C>,
    done: impl Fn(&ListenerStats) -> bool,
) -> ListenerStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = listener.stats();
        if done(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "stats never settled: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn listener_spawns_serves_and_shuts_down() {
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 2)).unwrap();
    let addr = listener.addr();
    let mut client = TcpTransport::connect_with_timeout(addr, Duration::from_secs(5)).unwrap();
    // A verdict is always accepted and triggers nothing.
    let out = client.deliver(verdict(0)).unwrap();
    assert!(out.is_empty());
    assert_eq!(client.wire_stats().frames_sent, 1);
    assert_eq!(client.wire_stats().frames_received, 1);
    assert!(client.wire_stats().total_bytes() > 0);
    assert_eq!(client.stats().verdicts.messages, 1);
    let stats = settled(&listener, |s| s.latency.count == 1);
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.frames_received, 1);
    assert_eq!(stats.frames_sent, 1);
    assert!(stats.bytes_received > 0 && stats.bytes_sent > 0);
    // The socket took the small reply whole: nothing ever waited in the
    // connection's write queue.
    assert_eq!(stats.peak_write_queue, 0);
    client.shutdown().unwrap();
    let coordinator = listener.shutdown().expect("state returned");
    assert_eq!(coordinator.messages_received(), 1);
    assert_eq!(coordinator.last_verdict(), Some((0, 0.1)));
}

#[test]
fn idle_connection_survives_and_shutdown_stays_prompt() {
    let read_timeout = Duration::from_millis(100);
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_read_timeout(read_timeout),
    )
    .unwrap();
    let mut client =
        TcpTransport::connect_with_timeout(listener.addr(), Duration::from_secs(5)).unwrap();
    // Stay silent for several read timeouts, like a client that is busy
    // training between protocol rounds. The timeout bounds stalls *inside*
    // a frame; quiet between frames is healthy and must not be cut.
    std::thread::sleep(read_timeout * 4);
    client
        .deliver(verdict(2))
        .expect("connection still healthy");
    // Drop the listener while the (idle) connection stays open: shutdown
    // must complete via the stop flag, not wait for a client hangup.
    let started = Instant::now();
    drop(listener);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "listener shutdown took {:?}",
        started.elapsed()
    );
}

#[test]
fn both_codecs_interoperate_against_one_listener() {
    // Frame-magic negotiation: a DBH1 peer and a DBH2 peer drive the same
    // listener concurrently, and each gets replies in its own format (the
    // reply decodes on a connector that only speaks that codec's framing —
    // `request` verifies the round trip).
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 2)).unwrap();
    let addr = listener.addr();
    let mut json_client =
        TcpTransport::connect_with(addr, Duration::from_secs(5), CodecKind::Json).unwrap();
    let mut binary_client =
        TcpTransport::connect_with(addr, Duration::from_secs(5), CodecKind::Binary).unwrap();
    assert_eq!(json_client.codec(), CodecKind::Json);
    assert_eq!(binary_client.codec(), CodecKind::Binary);

    json_client.deliver(verdict(1)).unwrap();
    binary_client.deliver(verdict(2)).unwrap();
    json_client.announce_try(0, &[1, 2]).unwrap();
    binary_client.announce_try(1, &[3]).unwrap();

    // The identical verdict costs fewer wire bytes under DBH2.
    assert!(
        binary_client.wire_stats().bytes_sent < json_client.wire_stats().bytes_sent,
        "binary framing ({}) should undercut JSON ({})",
        binary_client.wire_stats().bytes_sent,
        json_client.wire_stats().bytes_sent
    );

    json_client.shutdown().unwrap();
    binary_client.shutdown().unwrap();
    let coordinator = listener.shutdown().expect("state returned");
    assert_eq!(coordinator.messages_received(), 2);
    assert_eq!(coordinator.last_verdict(), Some((2, 0.1)));
}

#[test]
fn required_channel_serves_sealed_sessions() {
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 2),
        ReactorConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_identity_seed(99),
    )
    .unwrap();
    let server_pub = listener
        .public_identity()
        .expect("required listener has identity");
    let config = TcpConfig::default()
        .with_read_timeout(Duration::from_secs(5))
        .with_channel(ChannelPolicy::Required)
        .with_identity_seed(1)
        .with_expected_server(server_pub);
    let mut client = TcpTransport::connect_with_config(listener.addr(), config).unwrap();
    assert_eq!(client.peer_identity(), Some(server_pub));

    let out = client.deliver(verdict(3)).unwrap();
    assert!(out.is_empty());
    client.announce_try(0, &[1, 2]).unwrap();

    // The seal's cost lives in the overhead counters, not the
    // ledger-facing frame bytes.
    let wire = *client.wire_stats();
    assert_eq!(wire.frames_sent, 2);
    assert_eq!(wire.frames_received, 2);
    assert!(wire.handshake_bytes >= HANDSHAKE_WIRE_BYTES);
    assert_eq!(wire.sealed_overhead_bytes, 4 * SEALED_FRAME_OVERHEAD);

    client.shutdown().unwrap();
    let coordinator = listener.shutdown().expect("state returned");
    assert_eq!(coordinator.messages_received(), 1);
    assert_eq!(coordinator.last_verdict(), Some((3, 0.1)));
}

#[test]
fn sealed_and_plaintext_sessions_meter_identical_protocol_bytes() {
    // The FL ledger charges wire bytes off these counters; turning the
    // channel on must not move them by a single byte.
    let run = |policy: ChannelPolicy| {
        let listener = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 2),
            ReactorConfig::default()
                .with_channel(policy)
                .with_identity_seed(7),
        )
        .unwrap();
        let mut config = TcpConfig::default()
            .with_read_timeout(Duration::from_secs(5))
            .with_codec(CodecKind::Binary)
            .with_channel(policy)
            .with_identity_seed(1);
        if let Some(pin) = listener.public_identity() {
            config = config.with_expected_server(pin);
        }
        let mut client = TcpTransport::connect_with_config(listener.addr(), config).unwrap();
        client.deliver(verdict(1)).unwrap();
        client.announce_try(0, &[4, 5, 6]).unwrap();
        let wire = *client.wire_stats();
        client.shutdown().unwrap();
        drop(listener);
        wire
    };
    let sealed = run(ChannelPolicy::Required);
    let plain = run(ChannelPolicy::Plaintext);
    assert_eq!(sealed.frames_sent, plain.frames_sent);
    assert_eq!(sealed.frames_received, plain.frames_received);
    assert_eq!(sealed.bytes_sent, plain.bytes_sent);
    assert_eq!(sealed.bytes_received, plain.bytes_received);
    assert_eq!(sealed.total_bytes(), plain.total_bytes());
    assert_eq!(plain.channel_overhead_bytes(), 0);
    assert!(sealed.channel_overhead_bytes() > 0);
}

#[test]
fn session_hijack_is_refused_and_reconnect_resumes() {
    let listener = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 4),
        ReactorConfig::default()
            .with_channel(ChannelPolicy::Required)
            .with_identity_seed(42),
    )
    .unwrap();
    let pin = listener.public_identity().unwrap();
    let config_for = |seed: u64| {
        TcpConfig::default()
            .with_read_timeout(Duration::from_secs(5))
            .with_channel(ChannelPolicy::Required)
            .with_identity_seed(seed)
            .with_expected_server(pin)
    };
    let client_envelope = Envelope {
        from: Party::Client(7),
        to: Party::Server,
        epoch: 0,
        msg: ProtocolMsg::TryVerdict {
            best_try: 0,
            distance: 0.5,
        },
    };

    // Identity A speaks as ClientId 7 and binds it.
    let mut honest = TcpTransport::connect_with_config(listener.addr(), config_for(1)).unwrap();
    honest.deliver(client_envelope.clone()).unwrap();

    // Identity B replaying ClientId 7 is refused with the typed error.
    let mut hijacker = TcpTransport::connect_with_config(listener.addr(), config_for(2)).unwrap();
    let err = hijacker.deliver(client_envelope.clone()).unwrap_err();
    match err {
        ProtocolError::Remote { detail } => {
            assert!(detail.contains("session hijack refused"), "{detail}")
        }
        other => panic!("expected remote hijack refusal, got {other}"),
    }

    // The honest identity reconnecting resumes its binding untouched.
    honest.reconnect().unwrap();
    honest.deliver(client_envelope).unwrap();
    assert_eq!(honest.wire_stats().reconnects, 1);

    honest.shutdown().unwrap();
    let stats = listener.stats();
    assert_eq!(stats.handshakes_completed, 3);
    assert_eq!(stats.handshakes_failed, 0);
    drop(listener);
}

#[test]
fn concurrent_connections_are_served() {
    let listener = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let addr = listener.addr();
    let threads: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client =
                    TcpTransport::connect_with_timeout(addr, Duration::from_secs(5)).unwrap();
                client.deliver(verdict(i)).unwrap();
                client.shutdown().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let coordinator = listener.shutdown().expect("state returned");
    assert_eq!(coordinator.messages_received(), 4);
}
