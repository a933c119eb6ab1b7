//! The harness's own client: one blocking socket with `TCP_NODELAY`, one
//! `write` per request line, responses parsed with the service's own
//! `Response` type. It is what an operator pipeline would write; the
//! repository's `kessler_service::Client` is measured separately as a layer
//! (`service.client.*`).

use crate::trace::{SpanId, Tracer};
use kessler_service::{Envelope, PushEvent, Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A line the daemon sent: the answer to a request, or a pushed event.
pub enum Line {
    Response(Box<Response>),
    Push(PushEvent),
}

/// A response with how long it took and the span that waited for it, so
/// stage timings the response reports can be hung under that span.
pub struct RoundTrip {
    pub response: Response,
    pub elapsed: Duration,
    pub wait: SpanId,
}

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Bytes of the line being read. Kept across a timed-out read, so a
    /// line that arrives in two pieces is not lost.
    pending: Vec<u8>,
    /// The socket's current read timeout, so that it is only set (a system
    /// call) when it changes, not on every timed round trip.
    timeout: Duration,
}

/// A daemon that stops answering must fail the run, not hang it.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            pending: Vec::new(),
            timeout: READ_TIMEOUT,
        })
    }

    /// The request as one newline-terminated wire line.
    pub fn encode(request: &Request, req_id: Option<&str>) -> String {
        let mut line = match req_id {
            Some(id) => serde_json::to_string(&Envelope {
                req_id: Some(id.to_string()),
                request: request.clone(),
            }),
            None => serde_json::to_string(request),
        }
        .expect("requests serialize");
        line.push('\n');
        line
    }

    pub fn write_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads until a complete line is buffered; `false` if `wait` passed
    /// first (what arrived so far stays buffered).
    fn fill_line(&mut self, wait: Duration) -> io::Result<bool> {
        let wait = wait.max(Duration::from_micros(1));
        if wait != self.timeout {
            self.writer.set_read_timeout(Some(wait))?;
            self.timeout = wait;
        }
        match self.reader.read_until(b'\n', &mut self.pending) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            Ok(_) if self.pending.ends_with(b"\n") => Ok(true),
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection mid-line",
            )),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Decodes the buffered line.
    fn take_line(&mut self) -> io::Result<Line> {
        let line = parse_line(&self.pending);
        self.pending.clear();
        line
    }

    /// The next line of either kind, or `None` if `wait` passed first.
    pub fn read_line_within(&mut self, wait: Duration) -> io::Result<Option<Line>> {
        if self.fill_line(wait)? {
            self.take_line().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Blocks for the next line of either kind.
    pub fn read_line(&mut self) -> io::Result<Line> {
        self.read_line_within(READ_TIMEOUT)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "daemon did not answer in time"))
    }

    /// Blocks for the next response, discarding pushed events.
    pub fn read_response(&mut self) -> io::Result<Response> {
        loop {
            if let Line::Response(r) = self.read_line()? {
                return Ok(*r);
            }
        }
    }

    /// One closed-loop request: a single write, then the response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.timed_call(request).map(|(response, _)| response)
    }

    /// Like [`Conn::call`], also returning the round-trip time.
    pub fn timed_call(&mut self, request: &Request) -> io::Result<(Response, Duration)> {
        self.timed_line(&Conn::encode(request, None))
    }

    /// One closed-loop round trip of an already encoded line.
    pub fn timed_line(&mut self, line: &str) -> io::Result<(Response, Duration)> {
        let trip = self.round_trip(line, &mut Tracer::new(false), None, 0)?;
        Ok((trip.response, trip.elapsed))
    }

    /// One closed-loop round trip with a span around each thing the client
    /// does: the socket write, the wait for a complete line, its decoding.
    /// With the tracer off this is the plain round trip.
    pub fn round_trip(
        &mut self,
        line: &str,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        request: u64,
    ) -> io::Result<RoundTrip> {
        let started = Instant::now();
        tracer.span("wire.write", parent, request, || {
            self.write_raw(line.as_bytes())
        })?;
        loop {
            let wait = tracer.begin("wire.wait", parent, request);
            let arrived = self.fill_line(READ_TIMEOUT);
            tracer.end(wait);
            if !arrived? {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not answer in time",
                ));
            }
            let decoded = tracer.span("wire.decode", parent, request, || self.take_line())?;
            if let Line::Response(response) = decoded {
                return Ok(RoundTrip {
                    response: *response,
                    elapsed: started.elapsed(),
                    wait,
                });
            }
        }
    }

    /// Sends `lines` keeping at most `depth` requests unanswered, and
    /// returns every response in arrival order. All verbs sent this way are
    /// inline verbs, which the daemon answers in request order. The window
    /// is topped up when it is half empty, one write per top-up.
    pub fn pipeline(&mut self, lines: &[String], depth: usize) -> io::Result<Vec<Response>> {
        let mut responses = Vec::with_capacity(lines.len());
        let mut sent = 0;
        while responses.len() < lines.len() {
            if sent < lines.len() && sent - responses.len() <= depth / 2 {
                let window_end = (responses.len() + depth).min(lines.len());
                let batch: String = lines[sent..window_end].concat();
                self.write_raw(batch.as_bytes())?;
                sent = window_end;
            }
            responses.push(self.read_response()?);
        }
        Ok(responses)
    }
}

fn parse_line(bytes: &[u8]) -> io::Result<Line> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let text = std::str::from_utf8(bytes)
        .map_err(|e| invalid(e.to_string()))?
        .trim_end();
    // Responses never carry a "push" key; events always start with it.
    if text.starts_with("{\"push\"") {
        serde_json::from_str::<PushEvent>(text)
            .map(Line::Push)
            .map_err(|e| invalid(format!("{e}: {text}")))
    } else {
        serde_json::from_str::<Response>(text)
            .map(|r| Line::Response(Box::new(r)))
            .map_err(|e| invalid(format!("{e}: {text}")))
    }
}

#[cfg(test)]
mod tests {
    //! The service's own wire types through the offline `serde` /
    //! `serde_json` stand-ins: the lines the README and the `proto` unit
    //! tests document must come out byte for byte.

    use super::*;
    use kessler_service::proto::CatalogAck;
    use kessler_service::{ElementsSpec, EventKind};

    fn round_trip<T>(line: &str) -> T
    where
        T: serde::Serialize + serde::de::DeserializeOwned,
    {
        let value: T = serde_json::from_str(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(serde_json::to_string(&value).unwrap(), line);
        value
    }

    #[test]
    fn documented_request_lines_round_trip_byte_for_byte() {
        // README.md, "Talking to the daemon".
        let add: Request = round_trip(
            r#"{"cmd":"ADD","id":42,"elements":{"a":7000.0,"e":0.001,"incl":0.9,"raan":1.0,"argp":0.3,"mean_anomaly":0.2}}"#,
        );
        assert_eq!(
            add,
            Request::Add {
                id: 42,
                elements: ElementsSpec {
                    a: 7000.0,
                    e: 0.001,
                    incl: 0.9,
                    raan: 1.0,
                    argp: 0.3,
                    mean_anomaly: 0.2,
                },
            }
        );
        // service/src/proto.rs tests.
        assert_eq!(
            round_trip::<Request>(r#"{"cmd":"SCREEN"}"#),
            Request::Screen
        );
        assert_eq!(
            round_trip::<Request>(r#"{"cmd":"STATUS"}"#),
            Request::Status
        );
        assert_eq!(
            round_trip::<Request>(r#"{"cmd":"ADVANCE","dt":30.0}"#),
            Request::Advance { dt: 30.0 }
        );
        assert_eq!(
            round_trip::<Request>(r#"{"cmd":"SUBSCRIBE","all":true}"#),
            Request::Subscribe {
                assets: vec![],
                all: true
            }
        );
        assert_eq!(
            round_trip::<Request>(r#"{"cmd":"UNSUBSCRIBE"}"#),
            Request::Unsubscribe { sub_id: None }
        );
        let plain: Envelope = round_trip(r#"{"cmd":"SCREEN"}"#);
        assert_eq!(plain.req_id, None);
        let cancel: Envelope =
            serde_json::from_str(r#"{"cmd":"CANCEL","id":"job-1","req_id":"c-9"}"#).unwrap();
        assert_eq!(cancel.req_id.as_deref(), Some("c-9"));
        assert_eq!(
            cancel.request,
            Request::Cancel {
                id: "job-1".to_string()
            }
        );
        for bad in [
            r#"{"id":1}"#,
            r#"{"cmd":"NOPE"}"#,
            r#"{"cmd":"ADD","id":1}"#,
            r#"{"cmd":"ADVANCE"}"#,
            r#"{"cmd":"REMOVE","id":"x"}"#,
        ] {
            assert!(serde_json::from_str::<Request>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn documented_response_and_push_lines_round_trip() {
        round_trip::<Response>(r#"{"ok":true}"#);
        round_trip::<Response>(r#"{"ok":false,"error":"nope"}"#);
        round_trip::<Response>(r#"{"ok":true,"req_id":"job-1"}"#);
        let ack: Response = round_trip(
            r#"{"ok":true,"catalog":{"id":42,"index":5000,"n_satellites":5001,"epoch":5001}}"#,
        );
        assert_eq!(
            ack.catalog,
            Some(CatalogAck {
                id: 42,
                index: 5000,
                n_satellites: 5001,
                epoch: 5001
            })
        );
        assert!(serde_json::to_string(&Response::rejected("disk"))
            .unwrap()
            .contains(r#""not_applied":true"#));

        let push = r#"{"push":"conjunction","sub_id":"sub-1","kind":"new","id_lo":17,"id_hi":42,"tca":12.5,"pca_km":0.75,"conjunctions":1,"epoch":9}"#;
        match parse_line(push.as_bytes()).unwrap() {
            Line::Push(event) => {
                assert_eq!(event.kind, EventKind::New);
                assert_eq!((event.id_lo, event.id_hi, event.epoch), (17, 42, 9));
                assert_eq!(serde_json::to_string(&event).unwrap(), push);
            }
            Line::Response(_) => panic!("a push line was read as a response"),
        }
        assert!(matches!(
            parse_line(b"{\"ok\":true}\n").unwrap(),
            Line::Response(r) if r.ok
        ));
        assert!(parse_line(b"not json\n").is_err());
    }
}
