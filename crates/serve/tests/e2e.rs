//! End-to-end tests: a real `Server` on a loopback socket, queried with
//! the real `Client`, against a persisted-and-reloaded artifact. The
//! core promise under test: a served score and alarm bit are
//! bit-identical to the interpreted walk of the same artifact's ensemble
//! and its threshold — through the default model, through named
//! `SCORE_AS` models, and across registry hot-swaps.

use cfa_core::{AnomalyDetector, CrossFeatureModel, FittedThreshold, ModelArtifact, ScoreMethod};
use cfa_ml::{AnyLearner, AnyModel, Learner, NaiveBayes, NominalTable, Persist, C45};
use cfa_serve::protocol::{
    f64_le, put_u32, u32_le, DEFAULT_MODEL, OP_PING, OP_SCORE, STATUS_BAD_WIDTH, STATUS_BUSY,
    STATUS_MALFORMED, STATUS_NO_MODEL, STATUS_OK, STATUS_TOO_LARGE,
};
use cfa_serve::server::MIN_PART_ROWS;
use cfa_serve::{Client, ClientError, Server, ServerConfig};
use manet_features::{EqualFrequencyDiscretizer, FeatureMatrix};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A small trained artifact over three correlated continuous features.
fn tiny_artifact() -> ModelArtifact {
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| {
            let a = f64::from(i % 4);
            vec![a * 10.0, a * 10.0 + 1.0, f64::from(i % 2)]
        })
        .collect();
    let matrix = FeatureMatrix {
        names: vec!["a".into(), "b".into(), "c".into()],
        times: (0..80).map(f64::from).collect(),
        rows,
    };
    let disc = EqualFrequencyDiscretizer::fit(&matrix, 4, None, 7);
    let table = disc.transform(&matrix).expect("same schema");
    let model = CrossFeatureModel::train(&AnyLearner::Bayes(NaiveBayes::default()), &table);
    let detector = AnomalyDetector::with_threshold(model, ScoreMethod::AvgProbability, 0.25);
    ModelArtifact {
        spec: None,
        discretizer: disc,
        detector,
        fitted: FittedThreshold {
            threshold: 0.25,
            false_alarm_rate: 0.05,
        },
        smoothing: 1,
    }
}

/// Round-trips the artifact through bytes, returning two independent
/// copies (one to serve, one as the in-process reference).
fn two_copies() -> (ModelArtifact, ModelArtifact) {
    let bytes = {
        let mut buf = Vec::new();
        tiny_artifact().save(&mut buf).expect("save to memory");
        buf
    };
    let a = ModelArtifact::load(&mut bytes.as_slice()).expect("load copy a");
    let b = ModelArtifact::load(&mut bytes.as_slice()).expect("load copy b");
    (a, b)
}

/// Recomputes a CFAM header's payload length (at 6..14) and FNV-1a
/// checksum (at 14..22) after the payload was edited.
fn reseal(bytes: &mut [u8]) {
    let len = (bytes.len() - 22) as u64;
    bytes[6..14].copy_from_slice(&len.to_le_bytes());
    let sum = cfa_ml::persist::fnv1a64(&bytes[22..]);
    bytes[14..22].copy_from_slice(&sum.to_le_bytes());
}

/// `tiny_artifact`'s bytes with sub-model 2's encoding replaced by
/// `model`'s, spliced in place with no detector built on the way (one
/// asserts its ensemble's widths), so the decoder is what must judge it.
/// Sub-model 2 is the last one in the payload.
fn with_sub_model_2(model: &AnyModel) -> Vec<u8> {
    let art = tiny_artifact();
    let mut bytes = Vec::new();
    art.save(&mut bytes).expect("save to memory");
    let old = art.detector.model().sub_models()[2].to_bytes();
    let at = bytes
        .windows(old.len())
        .rposition(|w| w == old)
        .expect("sub-model 2 in the payload");
    bytes.splice(at..at + old.len(), model.to_bytes());
    reseal(&mut bytes);
    bytes
}

/// Artifact bytes whose sub-model 2 is a C4.5 tree declaring a
/// zero-cardinality attribute, which only a crafted file can carry. The
/// card is patched in place and the checksum recomputed, so the model
/// decoder is what must reject it.
fn zero_card_c45_bytes() -> Vec<u8> {
    // A constant class: the tree is one leaf, so no split's branch count
    // contradicts the patched card.
    let table = NominalTable::new(
        (0..3).map(|i| format!("c{i}")).collect(),
        vec![4, 4, 2],
        (0..16u8).map(|i| vec![i % 4, i / 4, 0]).collect(),
    )
    .expect("valid table");
    let model = AnyLearner::C45(C45::default()).fit(&table, 2);
    let mut bytes = with_sub_model_2(&model);
    // C4.5 encoding: tag u8, class count u32, root u32, card count u32,
    // then the cards.
    let encoded = model.to_bytes();
    let at = bytes
        .windows(encoded.len())
        .rposition(|w| w == encoded)
        .expect("sub-model 2 in the payload")
        + 13;
    bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
    reseal(&mut bytes);
    bytes
}

/// The independent reference for one continuous row: the interpreted
/// walk of `reference`'s ensemble and its threshold, called explicitly so
/// that no detector engine takes part. Returns `(score, alarm)`.
fn interpreted(
    reference: &ModelArtifact,
    row: &[f64],
    row_u8: &mut Vec<u8>,
    probs: &mut Vec<f64>,
) -> (f64, bool) {
    reference.discretizer.transform_row_into(row, row_u8);
    let det = &reference.detector;
    let score = det.model().score_with(row_u8, det.method(), probs);
    (score, score < det.threshold())
}

/// The in-process engine's `(score, alarm)` for one continuous row.
fn in_process(
    reference: &ModelArtifact,
    row: &[f64],
    row_u8: &mut Vec<u8>,
    probs: &mut Vec<f64>,
) -> (f64, bool) {
    reference.discretizer.transform_row_into(row, row_u8);
    let snap = reference.detector.score_snapshot_with(row_u8, probs);
    (snap.score, snap.verdict == cfa_core::Verdict::Anomaly)
}

fn start_server(cfg: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<cfa_serve::ServeStats>) {
    let (artifact, _) = two_copies();
    let server = Server::bind(artifact, "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// Sends raw bytes on a new connection and reads one response payload
/// (status byte + body).
fn raw_round_trip(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    raw_request(&mut s, bytes).split_off(4)
}

/// Sends `frame` and returns the raw reply frame, length prefix included.
fn raw_request(s: &mut TcpStream, frame: &[u8]) -> Vec<u8> {
    s.write_all(frame).expect("write");
    let mut reply = vec![0u8; 4];
    s.read_exact(&mut reply).expect("read len");
    let len = u32::from_le_bytes([reply[0], reply[1], reply[2], reply[3]]) as usize;
    reply.resize(4 + len, 0);
    s.read_exact(&mut reply[4..]).expect("read payload");
    reply
}

/// `n_rows` rows of the three test features, mixing in- and
/// out-of-distribution values so that some rows alarm.
fn mixed_rows(n_rows: u32) -> Vec<f64> {
    let mut rows = Vec::new();
    for i in 0..n_rows {
        let a = f64::from(i % 5);
        rows.extend_from_slice(&[a * 10.0, f64::from(i % 7) * 5.0, f64::from(i % 2)]);
    }
    rows
}

/// A complete SCORE request frame (length prefix included).
fn score_frame(rows: &[f64], n_cols: usize) -> Vec<u8> {
    let mut frame = Vec::new();
    put_u32(&mut frame, (9 + rows.len() * 8) as u32);
    frame.push(OP_SCORE);
    put_u32(&mut frame, (rows.len() / n_cols) as u32);
    put_u32(&mut frame, n_cols as u32);
    for v in rows {
        frame.extend_from_slice(&v.to_le_bytes());
    }
    frame
}

/// The `(score, alarm)` rows of a raw OK reply to SCORE.
fn reply_rows(reply: &[u8]) -> Vec<(f64, bool)> {
    assert_eq!(reply[4], STATUS_OK);
    let n_rows = u32_le(&reply[5..]).expect("row count") as usize;
    let rows = &reply[9..];
    assert_eq!(rows.len(), n_rows * 9);
    rows.chunks_exact(9)
        .map(|r| (f64_le(r).expect("score"), r[8] == 1))
        .collect()
}

#[test]
fn served_scores_are_bit_identical_to_in_process_scoring() {
    let (_, reference) = two_copies();
    let (addr, handle) = start_server(ServerConfig::default());

    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    client.ping().expect("ping");

    // Deterministic mix of in-distribution and out-of-distribution rows.
    let n_cols = 3;
    let mut rows = Vec::new();
    for i in 0..50u32 {
        let a = f64::from(i % 5);
        rows.extend_from_slice(&[a * 10.0, f64::from(i % 7) * 5.0, f64::from(i % 2)]);
    }
    let served = client.score_batch(&rows, n_cols).expect("score");
    assert_eq!(served.len(), 50);

    let mut row_u8 = Vec::new();
    let mut probs = Vec::new();
    for (row, s) in rows.chunks_exact(n_cols).zip(&served) {
        let (score, alarm) = interpreted(&reference, row, &mut row_u8, &mut probs);
        assert_eq!(
            score.to_bits(),
            s.score.to_bits(),
            "served score must be bit-identical"
        );
        assert_eq!(alarm, s.alarm, "alarm bit must match the reference");
    }
    // Both anomaly and normal rows should appear in the mix.
    assert!(served.iter().any(|s| s.alarm));
    assert!(served.iter().any(|s| !s.alarm));

    // An empty batch is legal and returns zero rows.
    assert_eq!(
        client.score_batch(&[], n_cols).expect("empty batch").len(),
        0
    );

    client.shutdown_server().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert!(stats.requests_ok >= 4);
    assert_eq!(stats.rejected_busy, 0);
}

#[test]
fn served_bits_match_interpreted_and_compiled_references() {
    // Every row the server puts on the wire must be bit-identical both
    // to the interpreted walk with the threshold applied explicitly and
    // to the engine of an artifact that went CFAM bytes → load in
    // process. One server, two references.
    let (_, reference) = two_copies();

    let n_cols = 3;
    let mut rows = Vec::new();
    for i in 0..40u32 {
        let a = f64::from(i % 6);
        rows.extend_from_slice(&[a * 10.0, f64::from(i % 5) * 8.0, f64::from(i % 2)]);
    }

    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    let served = client.score_batch(&rows, n_cols).expect("score");
    assert_eq!(served.len(), 40);
    let mut row_u8 = Vec::new();
    let mut probs = Vec::new();
    for (row, s) in rows.chunks_exact(n_cols).zip(&served) {
        let references = [
            (
                "interpreted",
                interpreted(&reference, row, &mut row_u8, &mut probs),
            ),
            (
                "in-process",
                in_process(&reference, row, &mut row_u8, &mut probs),
            ),
        ];
        for (name, (score, alarm)) in references {
            assert_eq!(
                score.to_bits(),
                s.score.to_bits(),
                "server diverges from the {name} reference"
            );
            assert_eq!(alarm, s.alarm, "alarm bit diverges from the {name} verdict");
        }
    }
    client.shutdown_server().expect("shutdown");
    handle.join().expect("join server");
}

#[test]
fn split_batches_answer_byte_for_byte_as_one_worker_does() {
    // A one-worker server never splits; a four-worker one splits every
    // batch of at least 2 × MIN_PART_ROWS rows across its idle workers.
    // Replies, scores and pushed alarms must not tell them apart.
    let (_, reference) = two_copies();
    let n_cols = 3;
    let sizes = [1, 2 * MIN_PART_ROWS - 1, 2 * MIN_PART_ROWS, 253, 256];

    let servers: Vec<_> = [1, 4]
        .into_iter()
        .map(|workers| {
            let (addr, handle) = start_server(ServerConfig {
                workers,
                ..ServerConfig::default()
            });
            let mut subscriber = Client::connect(addr, Duration::from_secs(5)).expect("connect");
            subscriber.subscribe(DEFAULT_MODEL).expect("subscribe");
            let scorer = TcpStream::connect(addr).expect("connect scorer");
            scorer
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            (addr, handle, subscriber, scorer)
        })
        .collect();
    let (mut one, mut four) = {
        let mut it = servers.into_iter();
        (it.next().expect("one"), it.next().expect("four"))
    };

    let mut row_u8 = Vec::new();
    let mut probs = Vec::new();
    let mut alarms = Vec::new();
    for &n_rows in &sizes {
        let rows = mixed_rows(n_rows as u32);
        let frame = score_frame(&rows, n_cols);
        let whole = raw_request(&mut one.3, &frame);
        let split = raw_request(&mut four.3, &frame);
        assert_eq!(whole, split, "{n_rows}-row reply frames differ");
        let served = reply_rows(&split);
        assert_eq!(served.len(), n_rows);
        for (i, (row, &(score, alarm))) in rows.chunks_exact(n_cols).zip(&served).enumerate() {
            let references = [
                (
                    "interpreted",
                    interpreted(&reference, row, &mut row_u8, &mut probs),
                ),
                (
                    "in-process",
                    in_process(&reference, row, &mut row_u8, &mut probs),
                ),
            ];
            for (name, (local, local_alarm)) in references {
                assert_eq!(
                    local.to_bits(),
                    score.to_bits(),
                    "row {i} of {n_rows} diverges from the {name} reference"
                );
                assert_eq!(local_alarm, alarm);
            }
            if alarm {
                alarms.push((i as u32, score.to_bits()));
            }
        }
    }
    assert!(!alarms.is_empty(), "the batches must raise alarms");

    for (workers, server) in [(1, &mut one), (4, &mut four)] {
        for (seq, &(row, score_bits)) in (1u64..).zip(&alarms) {
            let evt = server.2.recv_alarm().expect("alarm event");
            assert_eq!(
                (evt.seq, evt.row, evt.score.to_bits()),
                (seq, row, score_bits),
                "alarm {seq} at {workers} workers"
            );
        }
    }

    let split_sized = sizes.iter().filter(|&&n| n >= 2 * MIN_PART_ROWS).count() as u64;
    for (workers, (addr, handle, _, _)) in [(1, one), (4, four)] {
        let mut admin = Client::connect(addr, Duration::from_secs(5)).expect("connect admin");
        admin.shutdown_server().expect("shutdown");
        let stats = handle.join().expect("join server");
        assert_eq!(stats.alarms_pushed, alarms.len() as u64);
        assert_eq!(stats.protocol_errors, 0);
        let expected = if workers == 1 { 0 } else { split_sized };
        assert_eq!(stats.split_requests, expected, "{workers} workers");
    }
}

#[test]
fn a_client_gone_mid_split_leaves_the_next_one_in_its_slot_untouched() {
    let (_, reference) = two_copies();
    let (addr, handle) = start_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let n_cols = 3;
    let rows = mixed_rows(256);
    let frame = score_frame(&rows, n_cols);

    // A split-sized request whose sender hangs up before the reply.
    {
        let mut gone = TcpStream::connect(addr).expect("connect");
        gone.write_all(&frame).expect("write");
    }
    // Wait until the server has dropped it, freeing its slot.
    let mut watcher = Client::connect(addr, Duration::from_secs(5)).expect("connect watcher");
    let mut open = u32::MAX;
    for _ in 0..500 {
        open = watcher.ping().expect("ping").open_conns;
        if open == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(open, 1, "the hung-up connection must be closed");

    // The next connection takes the freed slot: its reply is its own,
    // bit for bit, and nothing stray follows it.
    let mut next = TcpStream::connect(addr).expect("connect next");
    next.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let served = reply_rows(&raw_request(&mut next, &frame));
    let mut row_u8 = Vec::new();
    let mut probs = Vec::new();
    assert_eq!(served.len(), 256);
    for (row, &served_row) in rows.chunks_exact(n_cols).zip(&served) {
        let local = interpreted(&reference, row, &mut row_u8, &mut probs);
        assert_eq!(local.0.to_bits(), served_row.0.to_bits());
        assert_eq!(local.1, served_row.1);
    }
    let ping = raw_request(&mut next, &[1, 0, 0, 0, OP_PING]);
    assert_eq!(ping.len(), 4 + 1 + 64, "a PING reply, nothing else");
    assert_eq!(ping[4], STATUS_OK);

    watcher.shutdown_server().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert!(stats.split_requests >= 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn malformed_and_oversized_frames_get_typed_statuses() {
    let (addr, handle) = start_server(ServerConfig::default());

    // Empty payload → MALFORMED.
    assert_eq!(raw_round_trip(addr, &[0, 0, 0, 0]), vec![STATUS_MALFORMED]);

    // Declared length above the frame cap → TOO_LARGE, body never read.
    let mut oversized = Vec::new();
    put_u32(&mut oversized, u32::MAX);
    assert_eq!(raw_round_trip(addr, &oversized), vec![STATUS_TOO_LARGE]);

    // Unknown opcode → MALFORMED.
    let mut unknown = Vec::new();
    put_u32(&mut unknown, 1);
    unknown.push(99);
    assert_eq!(raw_round_trip(addr, &unknown), vec![STATUS_MALFORMED]);

    // PING with a trailing body → MALFORMED.
    let mut fat_ping = Vec::new();
    put_u32(&mut fat_ping, 2);
    fat_ping.extend_from_slice(&[OP_PING, 0]);
    assert_eq!(raw_round_trip(addr, &fat_ping), vec![STATUS_MALFORMED]);

    // SCORE whose body disagrees with its declared row count → MALFORMED.
    let mut short_score = Vec::new();
    put_u32(&mut short_score, 9);
    short_score.push(OP_SCORE);
    put_u32(&mut short_score, 5); // claims 5 rows
    put_u32(&mut short_score, 3); // of 3 cols, but no row bytes follow
    assert_eq!(raw_round_trip(addr, &short_score), vec![STATUS_MALFORMED]);

    // SCORE with the wrong width → BAD_WIDTH via the typed client error.
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    match client.score_batch(&[1.0, 2.0], 2) {
        Err(ClientError::Status(s)) => assert_eq!(s, STATUS_BAD_WIDTH),
        other => panic!("expected BAD_WIDTH status, got {other:?}"),
    }
    // The connection survives a rejected request.
    client.ping().expect("ping after rejection");

    client.shutdown_server().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert!(stats.protocol_errors >= 5);
}

#[test]
fn connections_beyond_the_cap_get_a_busy_frame() {
    let (addr, handle) = start_server(ServerConfig {
        max_conns: 1,
        ..ServerConfig::default()
    });

    // Occupy the single connection slot; the ping round trip guarantees
    // the reactor has admitted it.
    let mut held = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    let stats = held.ping().expect("ping");
    assert_eq!(stats.open_conns, 1);

    // The next arrival is answered with a connection-level BUSY frame and
    // closed without being admitted.
    let mut rejected = TcpStream::connect(addr).expect("connect rejected");
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut resp = [0u8; 5];
    rejected.read_exact(&mut resp).expect("busy frame");
    assert_eq!(resp, [1, 0, 0, 0, STATUS_BUSY]);
    assert_eq!(rejected.read(&mut resp).expect("eof"), 0, "then closed");

    // The admitted connection keeps working and can still stop the server.
    let after = held.ping().expect("ping after rejection");
    assert_eq!(after.rejected_busy, 1);
    held.shutdown_server().expect("shutdown");
    let stats = handle.join().expect("join server");
    assert_eq!(stats.rejected_busy, 1);
    // `accepted` counts admissions into the table, not BUSY-bounced
    // arrivals.
    assert_eq!(stats.accepted, 1);
}

#[test]
fn registry_lifecycle_load_list_score_as_unload() {
    let (_, reference) = two_copies();
    let artifact_bytes = {
        let mut buf = Vec::new();
        tiny_artifact().save(&mut buf).expect("save to memory");
        buf
    };
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");

    // Boot state: exactly the default model.
    let models = client.list_models().expect("list");
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].name, DEFAULT_MODEL);
    assert_eq!(models[0].n_features, 3);
    assert_eq!(models[0].generation, 1);

    // LOAD a second copy under a new name and score through it.
    client.load_model("v2", &artifact_bytes).expect("load v2");
    let models = client.list_models().expect("list");
    assert_eq!(
        models.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
        vec![DEFAULT_MODEL, "v2"],
        "LIST is name-ordered"
    );

    let n_cols = 3;
    let mut rows = Vec::new();
    for i in 0..20u32 {
        let a = f64::from(i % 5);
        rows.extend_from_slice(&[a * 10.0, f64::from(i % 7) * 5.0, f64::from(i % 2)]);
    }
    let via_default = client.score_batch(&rows, n_cols).expect("score default");
    let via_v2 = client
        .score_batch_as("v2", &rows, n_cols)
        .expect("score v2");
    let mut row_u8 = Vec::new();
    let mut probs = Vec::new();
    for ((row, d), v) in rows.chunks_exact(n_cols).zip(&via_default).zip(&via_v2) {
        let (score, alarm) = interpreted(&reference, row, &mut row_u8, &mut probs);
        assert_eq!(score.to_bits(), d.score.to_bits());
        assert_eq!(score.to_bits(), v.score.to_bits());
        assert_eq!((alarm, alarm), (d.alarm, v.alarm));
    }

    // Re-LOAD bumps the generation (hot swap of the same name).
    client.load_model("v2", &artifact_bytes).expect("reload v2");
    let models = client.list_models().expect("list");
    assert_eq!(models[1].generation, 2);

    // UNLOAD and the name stops resolving, with a typed status.
    client.unload_model("v2").expect("unload");
    match client.score_batch_as("v2", &rows, n_cols) {
        Err(ClientError::Status(s)) => assert_eq!(s, STATUS_NO_MODEL),
        other => panic!("expected NO_MODEL, got {other:?}"),
    }
    match client.unload_model("v2") {
        Err(ClientError::Status(s)) => assert_eq!(s, STATUS_NO_MODEL),
        other => panic!("expected NO_MODEL, got {other:?}"),
    }
    match client.subscribe("v2") {
        Err(ClientError::Status(s)) => assert_eq!(s, STATUS_NO_MODEL),
        other => panic!("expected NO_MODEL, got {other:?}"),
    }

    client.shutdown_server().expect("shutdown");
    handle.join().expect("join server");
}

#[test]
fn wrong_width_sub_model_load_is_malformed_and_serving_continues() {
    let (_, reference) = two_copies();
    // Sub-model 2 retrained on a four-column table: the sub-model count
    // still matches the discretizer, the attribute count does not.
    let wide = NominalTable::new(
        (0..4).map(|i| format!("w{i}")).collect(),
        vec![2; 4],
        (0..8u8).map(|i| vec![i % 2, i / 2 % 2, i / 4, 0]).collect(),
    )
    .expect("valid table");
    let bad_bytes = with_sub_model_2(&AnyLearner::Bayes(NaiveBayes::default()).fit(&wide, 2));

    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    for bytes in [bad_bytes, zero_card_c45_bytes()] {
        for name in [DEFAULT_MODEL, "v2"] {
            match client.load_model(name, &bytes) {
                Err(ClientError::Status(s)) => assert_eq!(s, STATUS_MALFORMED),
                other => panic!("expected MALFORMED for {name}, got {other:?}"),
            }
        }
    }

    // The registry is untouched and the default model still scores.
    let models = client.list_models().expect("list");
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].generation, 1);
    let n_cols = 3;
    let mut rows = Vec::new();
    for i in 0..20u32 {
        let a = f64::from(i % 5);
        rows.extend_from_slice(&[a * 10.0, f64::from(i % 7) * 5.0, f64::from(i % 2)]);
    }
    let served = client.score_batch(&rows, n_cols).expect("score");
    let mut row_u8 = Vec::new();
    let mut probs = Vec::new();
    for (row, s) in rows.chunks_exact(n_cols).zip(&served) {
        let (score, alarm) = interpreted(&reference, row, &mut row_u8, &mut probs);
        assert_eq!(score.to_bits(), s.score.to_bits());
        assert_eq!(alarm, s.alarm);
    }

    client.shutdown_server().expect("shutdown");
    handle.join().expect("join server");
}

#[test]
fn subscribers_receive_every_alarm_in_order() {
    let (addr, handle) = start_server(ServerConfig::default());

    let mut subscriber = Client::connect(addr, Duration::from_secs(5)).expect("connect sub");
    subscriber.subscribe(DEFAULT_MODEL).expect("subscribe");

    // The subscribe OK round trip above guarantees the registration is
    // live before any scoring happens.
    let mut scorer = Client::connect(addr, Duration::from_secs(5)).expect("connect scorer");
    let n_cols = 3;
    let mut rows = Vec::new();
    for i in 0..50u32 {
        let a = f64::from(i % 5);
        rows.extend_from_slice(&[a * 10.0, f64::from(i % 7) * 5.0, f64::from(i % 2)]);
    }
    let served = scorer.score_batch(&rows, n_cols).expect("score");
    let alarmed: Vec<(u32, u64)> = served
        .iter()
        .enumerate()
        .filter(|(_, s)| s.alarm)
        .map(|(i, s)| (i as u32, s.score.to_bits()))
        .collect();
    assert!(!alarmed.is_empty(), "fixture batch must raise alarms");

    for (expected_seq, &(row, score_bits)) in (1u64..).zip(&alarmed) {
        let evt = subscriber.recv_alarm().expect("alarm event");
        assert_eq!(evt.model, DEFAULT_MODEL);
        assert_eq!(evt.seq, expected_seq, "gap-free, strictly increasing");
        assert_eq!(evt.row, row, "alarm rows arrive in batch order");
        assert_eq!(evt.score.to_bits(), score_bits);
    }

    // A second batch continues the sequence instead of restarting it.
    let served2 = scorer.score_batch(&rows, n_cols).expect("score again");
    let alarms2 = served2.iter().filter(|s| s.alarm).count() as u64;
    let first = subscriber.recv_alarm().expect("next event");
    assert_eq!(first.seq, alarmed.len() as u64 + 1);
    for _ in 1..alarms2 {
        subscriber.recv_alarm().expect("drain");
    }

    let stats = scorer.ping().expect("ping");
    assert_eq!(stats.subscribers, 1);
    assert_eq!(stats.alarms_pushed, alarmed.len() as u64 + alarms2);
    assert_eq!(stats.slow_disconnects, 0);

    scorer.shutdown_server().expect("shutdown");
    let final_stats = handle.join().expect("join server");
    assert_eq!(final_stats.alarms_pushed, alarmed.len() as u64 + alarms2);
}

#[test]
fn slow_subscribers_are_disconnected_not_waited_on() {
    // The smallest permitted outbox (the reactor floors the cap at 64
    // bytes) fills within the first fan-out sweep, so a subscriber that
    // never reads is doomed before the batch finishes — the deterministic
    // limit of the slow-consumer policy.
    let (addr, handle) = start_server(ServerConfig {
        sub_outbox_cap: 1,
        ..ServerConfig::default()
    });

    let mut subscriber = Client::connect(addr, Duration::from_secs(5)).expect("connect sub");
    subscriber.subscribe(DEFAULT_MODEL).expect("subscribe");

    let mut scorer = Client::connect(addr, Duration::from_secs(5)).expect("connect scorer");
    let n_cols = 3;
    let mut rows = Vec::new();
    for i in 0..50u32 {
        let a = f64::from(i % 5);
        rows.extend_from_slice(&[a * 10.0, f64::from(i % 7) * 5.0, f64::from(i % 2)]);
    }
    let served = scorer.score_batch(&rows, n_cols).expect("score");
    assert!(served.iter().any(|s| s.alarm), "fixture must raise alarms");

    // The scoring path never blocked; the slow subscriber was dropped
    // partway through the fan-out instead of being buffered for.
    let stats = scorer.ping().expect("ping");
    assert_eq!(stats.slow_disconnects, 1);
    assert_eq!(stats.subscribers, 0);
    let total_alarms = served.iter().filter(|s| s.alarm).count() as u64;
    assert!(
        stats.alarms_pushed < total_alarms,
        "fan-out must stop early: pushed {} of {total_alarms}",
        stats.alarms_pushed
    );
    match subscriber.recv_alarm() {
        Err(ClientError::Disconnected) => {}
        other => panic!("expected Disconnected, got {other:?}"),
    }

    scorer.shutdown_server().expect("shutdown");
    let final_stats = handle.join().expect("join server");
    assert_eq!(final_stats.slow_disconnects, 1);
}

#[test]
fn ping_stats_expose_queue_and_fleet_counters() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");
    let stats = client.ping().expect("ping");
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.open_conns, 1);
    assert_eq!(stats.models, 1);
    assert_eq!(stats.subscribers, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.rejected_busy, 0);
    assert_eq!(stats.requests_ok, 1, "this ping is already counted");
    client.shutdown_server().expect("shutdown");
    handle.join().expect("join server");
}

#[test]
fn artifact_survives_bytes_round_trip_for_serving() {
    let original = tiny_artifact();
    let mut bytes = Vec::new();
    original.save(&mut bytes).expect("save");
    let loaded = ModelArtifact::load(&mut bytes.as_slice()).expect("load");
    assert_eq!(
        original.detector.model().sub_models(),
        loaded.detector.model().sub_models()
    );
    assert_eq!(original.fitted, loaded.fitted);
}
