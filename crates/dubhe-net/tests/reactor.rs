//! Acceptance pins for the event-driven listener.
//!
//! The bar, mirroring `dubhe-select`'s `networked_protocol.rs`: a full
//! registration + multi-time session served by the [`ReactorListener`] must
//! be *bit-identical* — same decrypted overall registry, same ciphertext
//! residues, same verdict, same canonical accounting — to the in-memory
//! coordinator, on both readiness backends. And every abuse a socket can deliver (garbage, mid-frame
//! stalls, a reader that stops reading) must surface as typed flow control,
//! never a panic or a hang.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dubhe_data::federated::{DatasetFamily, FederatedSpec};
use dubhe_data::ClassDistribution;
use dubhe_net::{MuxClient, MuxConfig, ReactorConfig, ReactorListener};
use dubhe_select::protocol::{
    read_frame, run_registration_with, run_try, ChannelPolicy, CodecKind, Coordinator, Envelope,
    InMemoryTransport, Party, ProtocolMsg, ShardedCoordinator, TcpConfig, TcpTransport,
    TransportStats, WireMsg,
};
use dubhe_select::{ClientSelector, DubheConfig, DubheSelector};
use mini_mio::Backend;
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
/// arbitrary coordinator slot; returns everything the equivalence pins
/// compare.
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

fn verdict_envelope(best_try: usize) -> WireMsg {
    WireMsg::Envelope {
        envelope: Envelope {
            from: Party::Agent,
            to: Party::Server,
            epoch: 0,
            msg: ProtocolMsg::TryVerdict {
                best_try,
                distance: 0.1,
            },
        },
    }
}

#[test]
fn reactor_session_is_bit_identical_to_memory_on_both_backends() {
    let dists = clients(20, 81);

    let (overall_mem, verdict_mem, stats_mem, server) =
        drive_session(&dists, 82, dubhe_select::CoordinatorServer::new(20));
    let total_mem = server.encrypted_total().expect("epoch complete");

    // The reactor must match on both readiness backends.
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(20, 2),
            ReactorConfig::default().with_backend(backend),
        )
        .unwrap();
        let endpoint = TcpTransport::connect_with_codec(reactor.addr(), CodecKind::Binary).unwrap();
        let (overall, verdict, stats, endpoint) = drive_session(&dists, 82, endpoint);
        assert_eq!(overall, overall_mem, "{backend:?}");
        assert_eq!(verdict, verdict_mem, "{backend:?}");
        assert_eq!(stats, stats_mem, "{backend:?}");
        endpoint.shutdown().unwrap();

        // The shutdown frame lands asynchronously; wait for the listener to
        // close the connection before pinning the frame totals.
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.stats().connections_open > 0 {
            assert!(
                Instant::now() < deadline,
                "{backend:?}: connection never drained: {:?}",
                reactor.stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        let listener_stats = reactor.stats();
        assert!(listener_stats.frames_received > 0, "{backend:?}");
        assert_eq!(
            listener_stats.frames_received,
            listener_stats.frames_sent + 1,
            "{backend:?}: one reply per request, plus the replyless shutdown frame"
        );
        assert!(listener_stats.latency.count > 0, "{backend:?}");

        let state = reactor.shutdown().expect("listener state");
        // Bit-identical ciphertext folds, element by element.
        let total = state.encrypted_total().expect("epoch complete");
        assert_eq!(total.len(), total_mem.len());
        for (a, b) in total.elements().iter().zip(total_mem.elements()) {
            assert_eq!(a.raw(), b.raw(), "{backend:?}: fold diverged from memory");
        }
        assert_eq!(state.messages_received(), server.messages_received());
        assert_eq!(state.bytes_received(), server.bytes_received());
        assert_eq!(state.last_verdict(), Some(verdict_mem));
    }
}

#[test]
fn required_channel_session_is_bit_identical_to_plaintext_on_both_backends() {
    let dists = clients(20, 91);
    let (overall_mem, verdict_mem, stats_mem, _server) =
        drive_session(&dists, 92, dubhe_select::CoordinatorServer::new(20));

    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(20, 2),
            ReactorConfig::default()
                .with_backend(backend)
                .with_channel(ChannelPolicy::Required),
        )
        .unwrap();
        let pin = reactor
            .public_identity()
            .expect("required channel resolves an identity");
        let endpoint = TcpTransport::connect_with_config(
            reactor.addr(),
            TcpConfig::default()
                .with_codec(CodecKind::Binary)
                .with_channel(ChannelPolicy::Required)
                .with_expected_server(pin),
        )
        .unwrap();
        let (overall, verdict, stats, endpoint) = drive_session(&dists, 92, endpoint);
        // Every protocol-level ledger — decrypted registry, verdict, per-kind
        // transport accounting — is bit-identical with the channel on.
        assert_eq!(overall, overall_mem, "{backend:?}");
        assert_eq!(verdict, verdict_mem, "{backend:?}");
        assert_eq!(stats, stats_mem, "{backend:?}");
        endpoint.shutdown().unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.stats().connections_open > 0 {
            assert!(Instant::now() < deadline, "connection never drained");
            std::thread::sleep(Duration::from_millis(10));
        }
        let listener_stats = reactor.stats();
        assert_eq!(listener_stats.handshakes_completed, 1, "{backend:?}");
        assert_eq!(listener_stats.handshakes_failed, 0, "{backend:?}");
        assert_eq!(listener_stats.aead_rejections, 0, "{backend:?}");
        assert_eq!(listener_stats.downgrades_refused, 0, "{backend:?}");
        assert_eq!(listener_stats.decode_errors, 0, "{backend:?}");
        assert!(reactor.shutdown().is_some());
    }
}

#[test]
fn mux_client_runs_sealed_sessions_end_to_end() {
    let n = 24;
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_channel(ChannelPolicy::Required),
    )
    .unwrap();
    let pin = reactor.public_identity().expect("identity resolved");
    let mut mux = MuxClient::connect(
        reactor.addr(),
        n,
        MuxConfig::default()
            .with_codec(CodecKind::Binary)
            .with_channel(ChannelPolicy::Required)
            .with_expected_server(pin)
            .with_exchange_timeout(Duration::from_secs(30)),
    )
    .unwrap();

    // Two phases over persistent sealed connections: every request earns
    // its (empty batch) reply through the seal in both directions.
    let requests: Vec<(usize, WireMsg)> = (0..n).map(|i| (i, verdict_envelope(i % 5))).collect();
    let replies = mux.exchange(&requests).unwrap();
    assert_eq!(replies.len(), n);
    assert!(replies
        .iter()
        .all(|(_, msg)| matches!(msg, WireMsg::Batch { envelopes } if envelopes.is_empty())));
    let replies = mux.exchange(&requests[..7]).unwrap();
    assert_eq!(replies.len(), 7);
    mux.shutdown();

    let deadline = Instant::now() + Duration::from_secs(10);
    while reactor.stats().connections_open > 0 {
        assert!(
            Instant::now() < deadline,
            "connections never drained: {:?}",
            reactor.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = reactor.stats();
    assert_eq!(stats.connections_accepted, n);
    assert_eq!(stats.handshakes_completed, n);
    assert_eq!(stats.handshakes_failed, 0);
    assert_eq!(stats.aead_rejections, 0);
    assert_eq!(stats.downgrades_refused, 0);
    assert_eq!(stats.frames_received, n + 7 + n, "requests + shutdowns");
    assert_eq!(stats.frames_sent, n + 7);
    assert_eq!(stats.decode_errors, 0);
    let state = reactor.shutdown().expect("listener state");
    assert_eq!(state.messages_received(), n + 7);
}

#[test]
fn downgrades_and_handshake_stalls_get_typed_refusals_on_both_backends() {
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 1),
            ReactorConfig::default()
                .with_backend(backend)
                .with_channel(ChannelPolicy::Required)
                .with_read_timeout(Duration::from_millis(300)),
        )
        .unwrap();

        // Plaintext protocol traffic at a Required listener: refused as a
        // downgrade attempt, in the codec the client attempted, then cut.
        let mut raw = TcpStream::connect(reactor.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        dubhe_select::protocol::write_frame_with(&mut raw, &verdict_envelope(0), CodecKind::Binary)
            .unwrap();
        let (reply, _) = read_frame(&mut raw).expect("a refusal frame before the hangup");
        match reply {
            WireMsg::Error { detail } => {
                assert!(detail.contains("authenticated channel"), "{detail}")
            }
            other => panic!("expected a downgrade refusal, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(raw.read_to_end(&mut rest).unwrap(), 0, "{backend:?}");

        // Handshake slow-loris: a connection that opens the prelude and
        // stalls is swept at the read timeout, with a courtesy notice.
        let mut loris = TcpStream::connect(reactor.addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loris.write_all(b"DBHS").unwrap(); // valid handshake magic, then silence
        let (reply, _) = read_frame(&mut loris).expect("a stall notice before the hangup");
        match reply {
            WireMsg::Error { detail } => assert!(detail.contains("stalled"), "{detail}"),
            other => panic!("expected a stall notice, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(loris.read_to_end(&mut rest).unwrap(), 0, "{backend:?}");

        // A connection that never sends a byte is swept too — silence is
        // not a way to hold a pre-authentication slot open. Wait for the
        // accept first: `connections_open` can already read 0 before the
        // reactor has seen the silent socket at all.
        let accepted_before = reactor.stats().connections_accepted;
        let silent = TcpStream::connect(reactor.addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.stats().connections_accepted == accepted_before {
            assert!(
                Instant::now() < deadline,
                "{backend:?}: silent connection never accepted: {:?}",
                reactor.stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        while reactor.stats().connections_open > 0 {
            assert!(
                Instant::now() < deadline,
                "{backend:?}: silent pre-auth connection never swept: {:?}",
                reactor.stats()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(silent);

        // The refused and swept peers held nothing: an honest client
        // authenticates and is served.
        let pin = reactor.public_identity().expect("identity resolved");
        let mut honest = TcpTransport::connect_with_config(
            reactor.addr(),
            TcpConfig::default()
                .with_read_timeout(Duration::from_secs(5))
                .with_channel(ChannelPolicy::Required)
                .with_expected_server(pin),
        )
        .unwrap();
        honest
            .announce_try(0, &[1])
            .expect("an honest sealed client is served");

        let stats = reactor.stats();
        assert_eq!(stats.downgrades_refused, 1, "{backend:?}");
        assert_eq!(
            stats.handshakes_failed, 3,
            "{backend:?}: downgrade + loris + silent"
        );
        assert_eq!(
            stats.handshakes_completed, 1,
            "{backend:?}: the honest client"
        );
        assert!(reactor.shutdown().is_some());
    }
}

#[test]
fn mux_client_multiplexes_many_persistent_connections() {
    let n = 128;
    let reactor = ReactorListener::spawn(ShardedCoordinator::new(0, 1)).unwrap();
    let mut mux = MuxClient::connect(
        reactor.addr(),
        n,
        MuxConfig::default()
            .with_codec(CodecKind::Binary)
            .with_exchange_timeout(Duration::from_secs(30)),
    )
    .unwrap();
    assert_eq!(mux.len(), n);

    // Every connection sends a verdict concurrently; every one gets its own
    // (empty batch) reply.
    let requests: Vec<(usize, WireMsg)> = (0..n).map(|i| (i, verdict_envelope(i % 7))).collect();
    let replies = mux.exchange(&requests).unwrap();
    assert_eq!(replies.len(), n);
    assert!(replies
        .iter()
        .all(|(_, msg)| matches!(msg, WireMsg::Batch { envelopes } if envelopes.is_empty())));
    assert_eq!(mux.latency().count(), n as u64);

    // A second phase over the same (persistent) connections still works.
    let replies = mux.exchange(&requests[..16]).unwrap();
    assert_eq!(replies.len(), 16);
    mux.shutdown();

    // Shutdown frames land asynchronously; wait for the listener to close
    // every connection before pinning the totals.
    let deadline = Instant::now() + Duration::from_secs(10);
    while reactor.stats().connections_open > 0 {
        assert!(
            Instant::now() < deadline,
            "connections never drained: {:?}",
            reactor.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = reactor.stats();
    assert_eq!(stats.connections_accepted, n);
    assert_eq!(stats.peak_connections, n);
    assert_eq!(stats.frames_received, n + 16 + n, "requests + shutdowns");
    assert_eq!(stats.frames_sent, n + 16);
    assert_eq!(stats.decode_errors, 0);
    let state = reactor.shutdown().expect("listener state");
    assert_eq!(state.messages_received(), n + 16);
}

#[test]
fn stalled_reader_is_cut_by_backpressure_not_buffered_forever() {
    // Replies must queue: the raw client sends requests but never reads.
    // An unknown request earns an Error reply whose detail echoes the
    // request's debug form — so a bulky request makes a bulky reply, filling
    // the 64 KiB high-water mark long before the kernel buffers absorb it.
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_high_water(64 * 1024),
    )
    .unwrap();
    let mut raw = TcpStream::connect(reactor.addr()).unwrap();
    let bulky = WireMsg::Batch {
        envelopes: (0..200)
            .map(|i| Envelope {
                from: Party::Client(i),
                to: Party::Server,
                epoch: 0,
                msg: ProtocolMsg::TryVerdict {
                    best_try: i,
                    distance: 0.25,
                },
            })
            .collect(),
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut sent = 0usize;
    while reactor.stats().backpressure_disconnects == 0 {
        assert!(
            Instant::now() < deadline,
            "backpressure never tripped after {sent} bulky requests: {:?}",
            reactor.stats()
        );
        // The server may cut us at any moment; write errors are the signal
        // arriving, not a test failure.
        if dubhe_select::protocol::write_frame_with(&mut raw, &bulky, CodecKind::Binary).is_err() {
            std::thread::sleep(Duration::from_millis(20));
        } else {
            sent += 1;
        }
    }
    let stats = reactor.stats();
    assert_eq!(stats.backpressure_disconnects, 1);
    assert!(
        stats.peak_write_queue > 64 * 1024,
        "peak queue {} should exceed the high-water mark",
        stats.peak_write_queue
    );
    // The listener survives and serves the next client normally.
    let mut healthy =
        TcpTransport::connect_with_timeout(reactor.addr(), Duration::from_secs(5)).unwrap();
    healthy
        .announce_try(0, &[1, 2])
        .expect("listener healthy after cutting the stalled reader");
    drop(reactor);
}

#[test]
fn garbage_and_mid_frame_stalls_get_typed_errors_on_both_backends() {
    for backend in [Backend::Epoll, Backend::Portable] {
        let reactor = ReactorListener::spawn_with(
            ShardedCoordinator::new(0, 1),
            ReactorConfig::default()
                .with_backend(backend)
                .with_read_timeout(Duration::from_millis(300)),
        )
        .unwrap();

        // Garbage magic: one typed error reply, then a hangup.
        let mut raw = TcpStream::connect(reactor.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\nHost: dubhe\r\n\r\n")
            .unwrap();
        let (reply, _) = read_frame(&mut raw).expect("an error frame before the hangup");
        match reply {
            WireMsg::Error { detail } => assert!(detail.contains("malformed"), "{detail}"),
            other => panic!("expected an error reply, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(raw.read_to_end(&mut rest).unwrap(), 0, "{backend:?}");

        // Mid-frame stall: header starts, then silence. The reactor must
        // reap the connection after the read timeout — with a courtesy
        // error frame — and count it as truncated.
        let mut loris = TcpStream::connect(reactor.addr()).unwrap();
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loris.write_all(b"DBH2").unwrap(); // valid magic, nothing more
        let (reply, _) = read_frame(&mut loris).expect("a stall notice before the hangup");
        match reply {
            WireMsg::Error { detail } => assert!(detail.contains("stalled"), "{detail}"),
            other => panic!("expected a stall notice, got {other:?}"),
        }
        let mut rest = Vec::new();
        assert_eq!(loris.read_to_end(&mut rest).unwrap(), 0, "{backend:?}");

        let stats = reactor.stats();
        assert_eq!(stats.decode_errors, 1, "{backend:?}");
        assert_eq!(stats.truncated_frames, 1, "{backend:?}");
        assert_eq!(stats.connections_open, 0, "{backend:?}");
        assert!(reactor.shutdown().is_some());
    }
}

#[test]
fn slow_loris_byte_at_a_time_frame_still_decodes() {
    // Trickling a whole valid frame one byte at a time — with pauses well
    // under the read timeout — must decode exactly like a burst: progress
    // resets the stall deadline, only true stalls are cut.
    let reactor = ReactorListener::spawn_with(
        ShardedCoordinator::new(0, 1),
        ReactorConfig::default().with_read_timeout(Duration::from_secs(5)),
    )
    .unwrap();
    let mut raw = TcpStream::connect(reactor.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frame = Vec::new();
    dubhe_select::protocol::write_frame_with(
        &mut frame,
        &WireMsg::AnnounceTry {
            try_index: 0,
            participants: vec![1, 2, 3],
        },
        CodecKind::Binary,
    )
    .unwrap();
    for byte in frame {
        raw.write_all(&[byte]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let (reply, _) = read_frame(&mut raw).expect("the trickled frame decodes");
    assert!(matches!(reply, WireMsg::Ack), "got {reply:?}");
    let stats = reactor.stats();
    assert_eq!(stats.truncated_frames, 0);
    assert_eq!(stats.decode_errors, 0);
    drop(reactor);
}
