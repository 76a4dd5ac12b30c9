//! The daemon answers hostile byte streams with typed errors and keeps
//! serving: unbounded JSON nesting, oversized request lines, and
//! thousands of pipelined requests in one write.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use dagsfc_serve::{
    spawn_batched, BatchConfig, Client, ServerHandle, WireResponse, MAX_LINE_BYTES,
};
use dagsfc_sim::runner::instance_network;
use dagsfc_sim::SimConfig;

fn daemon() -> ServerHandle {
    let sim = SimConfig {
        network_size: 12,
        ..SimConfig::default()
    };
    spawn_batched(
        instance_network(&sim),
        1,
        BatchConfig::default(),
        "127.0.0.1:0",
    )
    .expect("spawn")
}

/// Writes `bytes` from a helper thread, so the daemon's replies can be
/// read while a large write is still in flight.
fn send(stream: &TcpStream, bytes: Vec<u8>) -> std::thread::JoinHandle<()> {
    let mut w = stream.try_clone().expect("clone");
    std::thread::spawn(move || w.write_all(&bytes).expect("write"))
}

fn read_reply(reader: &mut impl BufRead) -> WireResponse {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    serde_json::from_str(&line).expect("reply is a wire response")
}

fn assert_still_serving(handle: &ServerHandle) {
    let mut fresh = Client::connect(handle.addr()).expect("connect");
    fresh.ping().expect("daemon still answers");
}

/// One line of 100k nested `[` used to overflow the parser's stack and
/// abort the daemon; it now gets a typed `bad request` error.
#[test]
fn deeply_nested_request_gets_typed_error() {
    let handle = daemon();
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut line = "[".repeat(100_000).into_bytes();
    line.push(b'\n');
    send(&stream, line).join().expect("writer");
    let resp = read_reply(&mut BufReader::new(&stream));
    assert_eq!(resp.status, "error");
    let reason = resp.reason.unwrap_or_default();
    assert!(reason.starts_with("bad request: "), "reason was {reason:?}");

    assert_still_serving(&handle);
    handle.join();
}

/// Pipelined requests in one write are all answered, in request order.
#[test]
fn thousands_of_pipelined_pings_are_answered_in_order() {
    const LINES: u32 = 3000;
    let handle = daemon();
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    // Every 100th line is a `hello` naming an unknown version; its error
    // echoes that version back, which marks the reply's position.
    let mut payload = String::new();
    for i in 0..LINES {
        if i % 100 == 0 {
            payload.push_str(&format!("{{\"cmd\":\"hello\",\"proto\":{}}}\n", 1000 + i));
        } else {
            payload.push_str("{\"cmd\":\"ping\"}\n");
        }
    }
    let writer = send(&stream, payload.into_bytes());
    let mut reader = BufReader::new(&stream);
    for i in 0..LINES {
        let resp = read_reply(&mut reader);
        if i % 100 == 0 {
            let reason = resp.reason.unwrap_or_default();
            assert!(
                reason.contains(&format!("client speaks v{}", 1000 + i)),
                "reply {i} out of order: {reason:?}"
            );
        } else {
            assert_eq!(resp.status, "ok", "reply {i}");
        }
    }
    writer.join().expect("writer");
    handle.join();
}

/// An unterminated line past the limit gets a typed error and its
/// connection is closed; other connections are unaffected.
#[test]
fn oversized_line_is_refused_and_the_daemon_keeps_serving() {
    let handle = daemon();
    let mut bystander = Client::connect(handle.addr()).expect("connect");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    send(&stream, vec![b'x'; MAX_LINE_BYTES + 1])
        .join()
        .expect("writer");
    let mut reader = BufReader::new(&stream);
    let resp = read_reply(&mut reader);
    assert_eq!(resp.status, "error");
    let reason = resp.reason.unwrap_or_default();
    assert!(reason.contains("exceeds"), "reason was {reason:?}");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "the connection must close after the error");

    bystander.ping().expect("open connection still served");
    assert_still_serving(&handle);
    handle.join();
}
