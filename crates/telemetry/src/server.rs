//! A dependency-free HTTP/1.1 exposition server over a [`MetricsHub`].
//!
//! One thread accepts on a non-blocking `TcpListener`; each connection is
//! answered on its own short-lived thread, at most [`MAX_CONNECTIONS`] at
//! once. Past the cap the accept loop itself answers `503` and spawns
//! nothing. Every response carries `Connection: close`, so the protocol
//! surface stays a single request/response exchange — except
//! `GET /events`, which streams Server-Sent Events until the campaign
//! completes and its tail drains.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use teesec_obs::PROMETHEUS_CONTENT_TYPE;

use crate::hub::MetricsHub;

/// Accept-loop poll interval while waiting for connections.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// How long an SSE subscriber waits per batch before re-checking shutdown.
const SSE_BATCH_WAIT: Duration = Duration::from_millis(250);
/// Largest request head (request line plus headers) the server reads.
/// The read timeout applies per read, so without this cap a client that
/// trickles bytes without a newline would grow a buffer without limit.
const MAX_REQUEST_HEAD: u64 = 8 * 1024;
/// Most connections served at once, SSE subscribers included. Each one
/// holds a thread, so without a cap a burst of clients (or idle sockets
/// held open for the read timeout) grows the thread count without limit.
const MAX_CONNECTIONS: usize = 32;
/// How long the accept loop may block writing a `503` refusal.
const REFUSAL_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// A running telemetry server. Dropping it stops the accept loop; live
/// SSE streams notice the stop flag within one batch wait and close.
#[derive(Debug)]
pub struct TelemetryServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// The bound address — the way a `--serve 127.0.0.1:0` caller learns
    /// the kernel-assigned port.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections and joins the accept thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and serves `hub` until the returned server is dropped.
///
/// # Errors
///
/// Fails when the address cannot be bound.
pub fn serve(hub: MetricsHub, addr: impl ToSocketAddrs) -> std::io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(listener, hub, stop))
    };
    Ok(TelemetryServer {
        local_addr,
        stop,
        accept: Some(accept),
    })
}

/// One live connection's claim on [`MAX_CONNECTIONS`], released when
/// its thread ends. The count publishes no other data, so its atomic
/// operations are `Relaxed`.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn accept_loop(listener: TcpListener, hub: MetricsHub, stop: Arc<AtomicBool>) {
    let live = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            // Only this loop claims slots, so the check cannot race
            // another claim; releases only make room.
            Ok((mut stream, _)) if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS => {
                let _ = stream.set_write_timeout(Some(REFUSAL_WRITE_TIMEOUT));
                let _ = write_response(
                    &mut stream,
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "too many connections\n",
                );
            }
            Ok((stream, _)) => {
                live.fetch_add(1, Ordering::Relaxed);
                let slot = ConnectionSlot(Arc::clone(&live));
                let hub = hub.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let _slot = slot;
                    // A failed or disconnected client is the client's
                    // problem; the server just moves on.
                    let _ = handle_connection(stream, &hub, &stop);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// One parsed request: method, path, query string, and headers.
struct Request {
    method: String,
    path: String,
    query: String,
    headers: Vec<(String, String)>,
}

impl Request {
    /// A header value by case-insensitive name.
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// A query parameter value by name (no percent-decoding; the only
    /// parameter the server defines, `last_id`, is numeric).
    fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

/// Reads the request line and headers, up to the blank line that ends
/// them. Returns `None` when the head does not end within
/// [`MAX_REQUEST_HEAD`] bytes.
fn read_request(reader: impl BufRead) -> std::io::Result<Option<Request>> {
    let mut head = reader.take(MAX_REQUEST_HEAD);
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        head.read_line(&mut line)?;
        if !line.ends_with('\n') && head.limit() == 0 {
            return Ok(None);
        }
        match line.trim_end() {
            "" => break,
            line => lines.push(line.to_string()),
        }
    }
    let mut lines = lines.iter();
    let mut parts = lines.next().map_or("", String::as_str).split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let headers = lines
        .filter_map(|h| h.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
    }))
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn handle_connection(
    stream: TcpStream,
    hub: &MetricsHub,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let request = read_request(BufReader::new(stream.try_clone()?))?;
    let mut stream = stream;
    let Some(request) = request else {
        return write_response(
            &mut stream,
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "request head exceeds 8 KiB\n",
        );
    };
    if request.method != "GET" {
        return write_response(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    match request.path.as_str() {
        "/metrics" => match hub.metrics() {
            Some(body) => write_response(&mut stream, "200 OK", PROMETHEUS_CONTENT_TYPE, &body),
            None => write_response(
                &mut stream,
                "503 Service Unavailable",
                "text/plain; charset=utf-8",
                "no metrics published yet\n",
            ),
        },
        "/status" => match hub.status() {
            Some(body) => write_response(&mut stream, "200 OK", "application/json", &body),
            None => write_response(
                &mut stream,
                "503 Service Unavailable",
                "text/plain; charset=utf-8",
                "no status published yet\n",
            ),
        },
        "/coverage" => match hub.coverage() {
            Some(body) => write_response(&mut stream, "200 OK", "application/json", &body),
            None => write_response(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no coverage report for this run\n",
            ),
        },
        "/trace" => match hub.trace_json() {
            Some(body) => write_response(&mut stream, "200 OK", "application/json", &body),
            None => write_response(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "tracing is not enabled for this run\n",
            ),
        },
        "/health" => {
            let body = format!("{{\"up\":{},\"complete\":{}}}\n", hub.up(), hub.complete());
            write_response(&mut stream, "200 OK", "application/json", &body)
        }
        "/events" => serve_events(stream, hub, &request, stop),
        _ => write_response(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "no such endpoint; try /metrics /events /status /coverage /trace /health\n",
        ),
    }
}

/// Streams the event ring as Server-Sent Events. Resumes after the
/// standard `Last-Event-ID` header (or a `?last_id=` query parameter for
/// curl convenience); evicted events surface as one `event: gap` record
/// carrying the count. When the campaign completes and the tail has
/// drained, an `event: end` record is sent and the stream closes.
fn serve_events(
    mut stream: TcpStream,
    hub: &MetricsHub,
    request: &Request,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    let last_event_id = request
        .header("Last-Event-ID")
        .or_else(|| request.query_param("last_id"))
        .and_then(|v| v.trim().parse::<u64>().ok());
    let mut subscription = hub.subscribe(last_event_id);
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let batch = subscription.next_batch(SSE_BATCH_WAIT);
        if batch.gap > 0 {
            write!(stream, "event: gap\ndata: {}\n\n", batch.gap)?;
        }
        for (id, line) in &batch.events {
            write!(stream, "id: {id}\ndata: {line}\n\n")?;
        }
        if !batch.events.is_empty() || batch.gap > 0 {
            stream.flush()?;
        }
        if batch.complete && batch.events.is_empty() {
            write!(stream, "event: end\ndata: campaign complete\n\n")?;
            return stream.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Read;

    /// A blocking one-shot HTTP GET against the test server.
    fn http_get(addr: SocketAddr, target: &str, extra_headers: &str) -> (String, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: test\r\n{extra_headers}\r\n"
        )
        .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
        let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
        (status.to_string(), headers.to_string(), body.to_string())
    }

    fn started(hub: &MetricsHub) -> TelemetryServer {
        serve(hub.clone(), "127.0.0.1:0").expect("bind test server")
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_content_type() {
        let hub = MetricsHub::default();
        let server = started(&hub);
        let (status, _, _) = http_get(server.local_addr(), "/metrics", "");
        assert!(status.contains("503"), "{status}");
        hub.publish_metrics("teesec_up 1\n".to_string());
        let (status, headers, body) = http_get(server.local_addr(), "/metrics", "");
        assert!(status.contains("200"), "{status}");
        assert!(
            headers.contains(&format!("Content-Type: {PROMETHEUS_CONTENT_TYPE}")),
            "{headers}"
        );
        assert_eq!(body, "teesec_up 1\n");
    }

    #[test]
    fn status_coverage_health_and_unknown_routes() {
        let hub = MetricsHub::default();
        let server = started(&hub);
        let addr = server.local_addr();
        assert!(http_get(addr, "/status", "").0.contains("503"));
        hub.publish_status("{\"cases_done\":1}".to_string());
        let (status, headers, body) = http_get(addr, "/status", "");
        assert!(status.contains("200"));
        assert!(headers.contains("application/json"), "{headers}");
        assert_eq!(body, "{\"cases_done\":1}");
        assert!(http_get(addr, "/coverage", "").0.contains("404"));
        hub.publish_coverage("{}".to_string());
        assert!(http_get(addr, "/coverage", "").0.contains("200"));
        assert!(http_get(addr, "/trace", "").0.contains("404"));
        let (status, _, body) = http_get(addr, "/health", "");
        assert!(status.contains("200"));
        assert_eq!(body, "{\"up\":false,\"complete\":false}\n");
        hub.set_up(true);
        let (_, _, body) = http_get(addr, "/health", "");
        assert_eq!(body, "{\"up\":true,\"complete\":false}\n");
        assert!(http_get(addr, "/nope", "").0.contains("404"));
    }

    #[test]
    fn trace_endpoint_serves_a_chrome_snapshot() {
        let hub = MetricsHub::default();
        let tracer = teesec_trace::Tracer::new(1);
        drop(tracer.span(0, "case", 0));
        hub.set_tracer(tracer);
        let server = started(&hub);
        let (status, _, body) = http_get(server.local_addr(), "/trace", "");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("traceEvents"), "{body}");
    }

    #[test]
    fn oversized_request_head_is_refused_and_the_server_keeps_serving() {
        let hub = MetricsHub::default();
        let server = started(&hub);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Exactly the cap, with no newline anywhere: the server consumes
        // every byte sent before it answers, so it closes cleanly.
        let target = "a".repeat(MAX_REQUEST_HEAD as usize - "GET /".len());
        write!(stream, "GET /{target}").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(
            response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{response}"
        );
        let (status, _, body) = http_get(server.local_addr(), "/health", "");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"up\":false,\"complete\":false}\n");
    }

    #[test]
    fn request_head_at_the_cap_is_served() {
        let hub = MetricsHub::default();
        let server = started(&hub);
        // `http_get` sends the request line, `Host: test`, the extra
        // header and the blank line: exactly MAX_REQUEST_HEAD bytes.
        let fixed = "GET /health HTTP/1.1\r\nHost: test\r\nX: \r\n\r\n".len();
        let pad = "p".repeat(MAX_REQUEST_HEAD as usize - fixed);
        let (status, _, _) = http_get(server.local_addr(), "/health", &format!("X: {pad}\r\n"));
        assert!(status.contains("200"), "{status}");
    }

    #[test]
    fn connections_past_the_cap_are_refused_until_one_closes() {
        let hub = MetricsHub::default();
        let server = started(&hub);
        let addr = server.local_addr();
        // Idle clients: each holds a connection thread that waits for its
        // request head.
        let mut held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        // The accept loop takes connections in arrival order, so this one
        // meets the cap. It sends nothing, so the refusal closes cleanly.
        let mut refused = TcpStream::connect(addr).expect("connect");
        let mut response = String::new();
        refused.read_to_string(&mut response).expect("read refusal");
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{response}"
        );
        assert!(response.contains("Connection: close\r\n"), "{response}");

        // Closing one held connection frees its slot once its thread sees
        // the close.
        drop(held.pop());
        let deadline = std::time::Instant::now() + Duration::from_secs(3);
        loop {
            let mut probe = TcpStream::connect(addr).expect("connect");
            let mut response = String::new();
            // A refused probe may be reset before its request is read.
            let _ = write!(probe, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
            let _ = probe.read_to_string(&mut response);
            if response.starts_with("HTTP/1.1 200 OK\r\n") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no connection was accepted after one closed: {response}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn post_is_rejected() {
        let hub = MetricsHub::default();
        let server = started(&hub);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.contains("405"), "{response}");
    }

    #[test]
    fn sse_streams_events_then_ends_on_completion() {
        let hub = MetricsHub::default();
        hub.push_event("{\"n\":1}");
        hub.push_event("{\"n\":2}");
        let server = started(&hub);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "GET /events HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        hub.set_complete(true);
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.contains("text/event-stream"), "{response}");
        assert!(
            response.contains("id: 1\ndata: {\"n\":1}\n\n"),
            "{response}"
        );
        assert!(
            response.contains("id: 2\ndata: {\"n\":2}\n\n"),
            "{response}"
        );
        assert!(response.contains("event: end"), "{response}");
    }

    #[test]
    fn sse_resumes_after_last_event_id_header() {
        let hub = MetricsHub::default();
        for i in 1..=4 {
            hub.push_event(&format!("{{\"n\":{i}}}"));
        }
        hub.set_complete(true);
        let server = started(&hub);
        let (_, _, body) = {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            write!(
                stream,
                "GET /events HTTP/1.1\r\nHost: t\r\nLast-Event-ID: 2\r\n\r\n"
            )
            .expect("send");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            let (head, body) = response.split_once("\r\n\r\n").expect("terminator");
            (head.to_string(), String::new(), body.to_string())
        };
        assert!(!body.contains("id: 2\n"), "{body}");
        assert!(body.contains("id: 3\n"), "{body}");
        assert!(body.contains("id: 4\n"), "{body}");
    }

    #[test]
    fn sse_reports_a_gap_when_resuming_past_eviction() {
        let hub = MetricsHub::new(2);
        for i in 1..=10 {
            hub.push_event(&format!("{{\"n\":{i}}}"));
        }
        hub.set_complete(true);
        let server = started(&hub);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "GET /events?last_id=2 HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.contains("event: gap\ndata: 6\n\n"), "{response}");
        assert!(response.contains("id: 9\n"), "{response}");
        assert!(response.contains("id: 10\n"), "{response}");
        assert!(hub.events_dropped_total() >= 6);
    }

    proptest! {
        /// The request reader returns a request, `None` or an I/O error
        /// on any input: arbitrary bytes, and a valid request head with
        /// a random run of bytes overwritten. A parsed request's method and
        /// path came from the bytes read.
        #[test]
        fn request_reader_never_panics(
            noise in prop::collection::vec(any::<u8>(), 0..600),
            at in any::<usize>(),
        ) {
            let _ = read_request(noise.as_slice());
            let mut head = b"GET /metrics?last_id=3 HTTP/1.1\r\nHost: t\r\nX: y\r\n\r\n".to_vec();
            let at = at % head.len();
            let end = (at + noise.len()).min(head.len());
            head[at..end].copy_from_slice(&noise[..end - at]);
            if let Ok(Some(request)) = read_request(head.as_slice()) {
                let text = String::from_utf8_lossy(&head);
                prop_assert!(text.contains(request.method.as_str()));
                prop_assert!(text.contains(request.path.as_str()));
            }
        }
    }
}
