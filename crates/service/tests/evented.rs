//! Wire-level tests against the evented connection front end: raw TCP
//! clients exercising the behaviors the thread-per-connection model never
//! had to define — pipelined requests on one connection, out-of-order
//! completion for worker-pool verbs, non-UTF-8 rejection, oversized-line
//! resync, and push shedding under backpressure.

use kessler_core::ScreeningConfig;
use kessler_service::proto::ElementsSpec;
use kessler_service::{
    Client, Request, Response, Server, ServerHandle, ServerOptions, MAX_LINE_BYTES,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn config() -> ScreeningConfig {
    ScreeningConfig::grid_defaults(5.0, 120.0)
}

fn serve(options: ServerOptions) -> ServerHandle {
    Server::bind_with("127.0.0.1:0", config(), options)
        .expect("bind ephemeral port")
        .spawn()
        .expect("spawn server thread")
}

fn spec_for(id: u64) -> ElementsSpec {
    ElementsSpec {
        a: 7_000.0 + id as f64 * 3.0,
        e: 0.001,
        incl: 0.4 + (id % 7) as f64 * 0.3,
        raan: id as f64 * 0.2,
        argp: 0.1,
        mean_anomaly: id as f64 * 0.37,
    }
}

/// A raw wire client: writes arbitrary bytes, reads JSON lines. The
/// library [`Client`] cannot send invalid UTF-8 or pipelined batches,
/// which is exactly what these tests need.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Raw {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn write_all(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
        self.writer.flush().expect("flush");
    }

    fn read_response(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "server closed the connection");
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad response `{line}`: {e}"))
    }
}

#[test]
fn invalid_utf8_gets_a_protocol_error_not_a_disconnect() {
    let server = serve(ServerOptions::default());
    let mut raw = Raw::connect(server.addr());

    // 0xFF can never appear in UTF-8; 0xC3 0x28 is an overlong-style
    // broken two-byte sequence. Both must be answered, not dropped, and
    // must not be lossily folded into replacement characters.
    for bad in [
        &b"\xff\xfe{\"cmd\":\"STATUS\"}\n"[..],
        &b"{\"cmd\": \xc3\x28}\n"[..],
    ] {
        raw.write_all(bad);
        let response = raw.read_response();
        assert!(!response.ok);
        assert!(
            response.error.as_deref().unwrap_or("").contains("UTF-8"),
            "{:?}",
            response.error
        );
    }

    // The same connection keeps working afterwards.
    raw.write_all(b"{\"cmd\":\"STATUS\"}\n");
    let response = raw.read_response();
    assert!(response.ok, "{:?}", response.error);
    assert!(response.status.is_some());

    server.shutdown();
}

#[test]
fn pipelined_mutations_answer_in_order_on_one_connection() {
    let server = serve(ServerOptions::default());
    let mut raw = Raw::connect(server.addr());

    // Two mutations plus a read, written back-to-back in one segment
    // before reading anything: the evented layer must process all three
    // frames from one read and answer each, in order.
    let batch = concat!(
        "{\"cmd\":\"ADD\",\"id\":1,\"elements\":{\"a\":7000.0,\"e\":0.001,\"incl\":0.5,\"raan\":0.0,\"argp\":0.0,\"mean_anomaly\":0.0}}\n",
        "{\"cmd\":\"ADD\",\"id\":2,\"elements\":{\"a\":7010.0,\"e\":0.001,\"incl\":0.5,\"raan\":0.0,\"argp\":0.0,\"mean_anomaly\":1.0}}\n",
        "{\"cmd\":\"STATUS\"}\n"
    );
    raw.write_all(batch.as_bytes());

    let first = raw.read_response();
    assert!(first.ok, "{:?}", first.error);
    assert_eq!(first.catalog.as_ref().expect("catalog ack").id, 1);
    let second = raw.read_response();
    assert!(second.ok, "{:?}", second.error);
    assert_eq!(second.catalog.as_ref().expect("catalog ack").id, 2);
    let third = raw.read_response();
    assert_eq!(
        third.status.expect("status payload").n_satellites,
        2,
        "STATUS ran after both pipelined ADDs"
    );

    server.shutdown();
}

#[test]
fn worker_pool_verbs_complete_out_of_order_with_inline_verbs() {
    let server = serve(ServerOptions::default());
    let mut seed = Client::connect(server.addr()).expect("connect");
    for id in 0..16u64 {
        assert!(
            seed.send(&Request::Add {
                id,
                elements: spec_for(id),
            })
            .expect("ADD")
            .ok
        );
    }

    // SCREEN goes to the worker pool; STATUS is answered inline by the
    // event loop while the screen is still in flight. Both frames arrive
    // in one segment, so they are processed in one batch and the STATUS
    // response is queued before the worker's completion can be routed:
    // the responses come back in the *reverse* of request order, matched
    // by req_id.
    let mut raw = Raw::connect(server.addr());
    raw.write_all(
        b"{\"cmd\":\"SCREEN\",\"req_id\":\"slow\"}\n{\"cmd\":\"STATUS\",\"req_id\":\"quick\"}\n",
    );
    let first = raw.read_response();
    assert_eq!(first.req_id.as_deref(), Some("quick"));
    assert!(first.status.is_some());
    let second = raw.read_response();
    assert_eq!(second.req_id.as_deref(), Some("slow"));
    assert!(second.ok, "{:?}", second.error);
    assert_eq!(second.screen.expect("screen payload").n_satellites, 16);

    server.shutdown();
}

#[test]
fn oversized_line_is_rejected_once_and_the_stream_resyncs() {
    let server = serve(ServerOptions::default());
    let mut raw = Raw::connect(server.addr());

    // Three caps of garbage with no newline, then the newline, then a
    // valid request: exactly one cap error, then normal service.
    let mut junk = vec![b'x'; 3 * MAX_LINE_BYTES];
    junk.push(b'\n');
    junk.extend_from_slice(b"{\"cmd\":\"STATUS\"}\n");
    raw.write_all(&junk);

    let first = raw.read_response();
    assert!(!first.ok);
    assert!(
        first
            .error
            .as_deref()
            .unwrap_or("")
            .contains(&format!("exceeds the {MAX_LINE_BYTES}-byte cap")),
        "{:?}",
        first.error
    );
    let second = raw.read_response();
    assert!(second.ok, "{:?}", second.error);
    assert!(second.status.is_some());

    // A line just under the cap still goes through (the cap excludes the
    // newline itself): pad a STATUS request with ignored whitespace.
    let mut line = b"{\"cmd\":\"STATUS\"}".to_vec();
    line.resize(MAX_LINE_BYTES - 1, b' ');
    line.push(b'\n');
    raw.write_all(&line);
    assert!(raw.read_response().ok);

    server.shutdown();
}

#[test]
fn pushes_are_shed_at_the_write_buffer_high_water_mark() {
    // A one-byte high-water mark: every push is shed, while request
    // responses still flow (they disconnect only past the hard cap).
    let options = ServerOptions {
        write_highwater: 1,
        ..ServerOptions::default()
    };
    let server = serve(options);

    let mut subscriber = Client::connect(server.addr()).expect("connect subscriber");
    let ack = subscriber
        .send(&Request::Subscribe {
            assets: vec![],
            all: true,
        })
        .expect("SUBSCRIBE")
        .subscription
        .expect("subscription ack");
    assert!(ack.all);

    let mut driver = Client::connect(server.addr()).expect("connect driver");
    // Two satellites on crossing planes that share a node and reach it
    // together about 60 s in — mid-window, so the range has an interior
    // minimum (a co-orbital trailing pair's range is monotone over a short
    // window and yields a candidate but no conjunction). The screen finds
    // their pair and tries to push a `new` event at the subscriber.
    for (id, incl) in [(1u64, 0.5f64), (2, 1.3)] {
        let response = driver
            .send(&Request::Add {
                id,
                elements: ElementsSpec {
                    a: 7_000.0,
                    e: 0.001,
                    incl,
                    raan: 0.3,
                    argp: 0.1,
                    mean_anomaly: 6.1185,
                },
            })
            .expect("ADD");
        assert!(response.ok, "{:?}", response.error);
    }
    let screen = driver
        .send(&Request::Screen)
        .expect("SCREEN")
        .screen
        .expect("screen payload");
    assert!(screen.conjunctions > 0, "pair not found: {screen:?}");

    let metrics = driver
        .send(&Request::Metrics)
        .expect("METRICS")
        .metrics
        .expect("metrics payload");
    assert_eq!(metrics.subscribers, 1);
    assert_eq!(metrics.events_pushed, 0, "{metrics:?}");
    assert!(metrics.events_dropped >= 1, "{metrics:?}");

    // The subscriber connection itself survived the shedding.
    assert!(subscriber.send(&Request::Status).expect("STATUS").ok);

    server.shutdown();
}

#[test]
fn library_client_round_trips_are_not_held_by_nagle() {
    // A request written as two segments (line, then newline) on a socket
    // without TCP_NODELAY waits out the peer's delayed ACK: 40 ms a
    // request on loopback, 2 s for this loop. One segment and NODELAY
    // leave the round trip itself, well under a millisecond each.
    let server = serve(ServerOptions::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let started = std::time::Instant::now();
    for _ in 0..50 {
        assert!(client.send(&Request::Status).expect("STATUS").ok);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 STATUS round trips took {elapsed:?}"
    );
    server.shutdown();
}
