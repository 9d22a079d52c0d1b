//! Hand-rolled HTTP/1.1 framing over a blocking [`TcpStream`].
//!
//! The parser is the gateway's outermost trust boundary: everything a
//! peer can put on the wire — truncated heads, oversized headers,
//! absurd content lengths, pipelined requests, bytes that are not HTTP
//! at all — must come back as a typed [`HttpError`], never a panic and
//! never an unbounded allocation. Limits are enforced *while reading*:
//! a head is abandoned the moment it exceeds the configured cap, and a
//! declared body larger than the cap is rejected before a single body
//! byte is buffered.
//!
//! Framing is deliberately minimal HTTP/1.1: request line + headers +
//! `Content-Length` body. `Transfer-Encoding: chunked` is answered
//! `501` — the JSON query protocol never needs it, and refusing it
//! loudly beats smuggling bugs. Keep-alive and pipelining work: bytes
//! read past the current request stay in the connection buffer and
//! seed the next [`Conn::read_request`] call.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Everything that can go wrong between the socket and a parsed
/// [`Request`]. Each variant maps to exactly one HTTP status
/// ([`HttpError::status`]); every one of them closes the connection,
/// because after a framing error the byte stream can no longer be
/// trusted to be request-aligned.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests. Not an
    /// error to report — the keep-alive loop just ends.
    Closed,
    /// The peer closed mid-request (truncated head or body).
    Truncated,
    /// The socket read timed out mid-request (slowloris guard).
    Timeout,
    /// The request head exceeded the configured byte cap.
    HeadTooLarge {
        /// The configured cap the head exceeded.
        limit: usize,
    },
    /// The declared body exceeded the configured byte cap.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
    /// The request line is not `METHOD target HTTP/1.x`.
    BadRequestLine,
    /// A header line has no `:` separator or a non-ASCII name.
    BadHeader,
    /// `Content-Length` is absent on a method that requires it, not a
    /// number, or declared more than once with different values.
    BadContentLength,
    /// `Transfer-Encoding` was declared; the gateway only frames by
    /// `Content-Length`.
    UnsupportedTransferEncoding,
    /// The version token is not `HTTP/1.0` or `HTTP/1.1`.
    UnsupportedVersion,
    /// Any other socket-level failure.
    Io(std::io::Error),
}

impl HttpError {
    /// The HTTP status this error is reported as (0 for [`Closed`],
    /// which sends nothing).
    ///
    /// [`Closed`]: HttpError::Closed
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed => 0,
            HttpError::Truncated => 400,
            HttpError::Timeout => 408,
            HttpError::HeadTooLarge { .. } => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::BadRequestLine => 400,
            HttpError::BadHeader => 400,
            HttpError::BadContentLength => 400,
            HttpError::UnsupportedTransferEncoding => 501,
            HttpError::UnsupportedVersion => 505,
            HttpError::Io(_) => 400,
        }
    }

    /// Stable machine-readable kind, used in JSON error bodies and the
    /// metrics error taxonomy.
    pub fn kind(&self) -> &'static str {
        match self {
            HttpError::Closed => "closed",
            HttpError::Truncated => "truncated",
            HttpError::Timeout => "timeout",
            HttpError::HeadTooLarge { .. } => "head_too_large",
            HttpError::BodyTooLarge { .. } => "body_too_large",
            HttpError::BadRequestLine => "bad_request_line",
            HttpError::BadHeader => "bad_header",
            HttpError::BadContentLength => "bad_content_length",
            HttpError::UnsupportedTransferEncoding => "unsupported_transfer_encoding",
            HttpError::UnsupportedVersion => "unsupported_version",
            HttpError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Truncated => write!(f, "connection closed mid-request"),
            HttpError::Timeout => write!(f, "read timed out mid-request"),
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds {limit}")
            }
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader => write!(f, "malformed header line"),
            HttpError::BadContentLength => write!(f, "missing or malformed content-length"),
            HttpError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding is not supported (use content-length)")
            }
            HttpError::UnsupportedVersion => write!(f, "unsupported HTTP version"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request. Header names are lowercased at parse time;
/// query parameters are split but not percent-decoded (the gateway's
/// targets are plain `key=value` pairs of digits and dotted quads).
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Parsed `key=value` query parameters, last key wins.
    pub query: BTreeMap<String, String>,
    /// Headers, names lowercased. Last occurrence wins except
    /// `content-length`, where a conflicting repeat is an error.
    pub headers: BTreeMap<String, String>,
    /// The request body (empty for bodyless methods).
    pub body: Vec<u8>,
    /// Whether the peer asked to close after this response
    /// (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// A header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }
}

const MAX_HEADER_COUNT: usize = 100;

/// One live connection: the stream plus the buffer of bytes already
/// read from it. Pipelined requests arrive here naturally — whatever
/// the last read pulled in beyond the current request's frame stays in
/// `buf` and is consumed first by the next [`read_request`] call.
///
/// [`read_request`]: Conn::read_request
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Wraps an accepted stream, arming the read timeout.
    pub fn new(stream: TcpStream, read_timeout: Duration) -> std::io::Result<Conn> {
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// The underlying stream (for writing responses and peer lookup).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Pulls more bytes from the socket into the buffer. `Ok(false)`
    /// means clean EOF.
    fn fill(&mut self) -> Result<bool, HttpError> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(HttpError::Timeout)
                }
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    /// Reads and parses the next request off the wire, enforcing the
    /// head and body caps while reading. On any `Err` other than
    /// [`HttpError::Closed`] the caller should write the mapped status
    /// and drop the connection.
    pub fn read_request(&mut self, max_head: usize, max_body: usize) -> Result<Request, HttpError> {
        // Phase 1: accumulate until the blank line ends the head.
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > max_head {
                return Err(HttpError::HeadTooLarge { limit: max_head });
            }
            if !self.fill()? {
                return if self.buf.iter().all(|&b| b == b'\r' || b == b'\n') {
                    // Nothing but optional trailing CRLFs: a clean close
                    // between requests, not a truncation.
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Truncated)
                };
            }
        };
        if head_end > max_head {
            return Err(HttpError::HeadTooLarge { limit: max_head });
        }

        let head_bytes = self.buf[..head_end].to_vec();
        let head = std::str::from_utf8(&head_bytes).map_err(|_| HttpError::BadHeader)?;
        let mut request = parse_head(head)?;

        // Phase 2: frame the body by content-length.
        let declared = match request.headers.get("content-length") {
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::BadContentLength)?,
            None if request.method == "POST" || request.method == "PUT" => {
                return Err(HttpError::BadContentLength)
            }
            None => 0,
        };
        if declared > max_body {
            return Err(HttpError::BodyTooLarge {
                declared,
                limit: max_body,
            });
        }
        let body_start = head_end + head_terminator_len(&self.buf, head_end);
        while self.buf.len() < body_start + declared {
            if !self.fill()? {
                return Err(HttpError::Truncated);
            }
        }
        request.body = self.buf[body_start..body_start + declared].to_vec();
        // Keep whatever the last read pulled in beyond this frame: it is
        // the start of the next pipelined request.
        self.buf.drain(..body_start + declared);
        Ok(request)
    }
}

/// Index of the head terminator in `buf`, if complete. Accepts both
/// `\r\n\r\n` and bare `\n\n` (lenient in what we accept; the response
/// side always emits CRLF).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n");
    let lf = buf.windows(2).position(|w| w == b"\n\n");
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

fn head_terminator_len(buf: &[u8], head_end: usize) -> usize {
    if buf[head_end..].starts_with(b"\r\n\r\n") {
        4
    } else {
        2
    }
}

fn parse_head(head: &str) -> Result<Request, HttpError> {
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(HttpError::BadRequestLine)?;
    let target = parts.next().ok_or(HttpError::BadRequestLine)?;
    let version = parts.next().ok_or(HttpError::BadRequestLine)?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequestLine);
    }
    if !method
        .bytes()
        .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit())
        || method.is_empty()
    {
        return Err(HttpError::BadRequestLine);
    }
    let http10 = match version {
        "HTTP/1.1" => false,
        "HTTP/1.0" => true,
        _ => return Err(HttpError::UnsupportedVersion),
    };
    if !target.starts_with('/') {
        return Err(HttpError::BadRequestLine);
    }

    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query: BTreeMap<String, String> = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let mut headers = BTreeMap::new();
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        header_count += 1;
        if header_count > MAX_HEADER_COUNT {
            return Err(HttpError::BadHeader);
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty() || !name.bytes().all(|b| b.is_ascii_graphic()) {
            return Err(HttpError::BadHeader);
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            if let Some(prev) = headers.get("content-length") {
                if *prev != value {
                    return Err(HttpError::BadContentLength);
                }
            }
        }
        headers.insert(name, value);
    }

    if headers.contains_key("transfer-encoding") {
        return Err(HttpError::UnsupportedTransferEncoding);
    }

    let connection = headers
        .get("connection")
        .map(|v| v.to_ascii_lowercase())
        .unwrap_or_default();
    let close = connection.split(',').any(|t| t.trim() == "close")
        || (http10 && !connection.split(',').any(|t| t.trim() == "keep-alive"));

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body: Vec::new(),
        close,
    })
}

/// The reason phrase for the statuses the gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes one `application/json` response frame. Errors are returned to
/// the caller, which treats any write failure as a dead connection.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A parsed response, as read back by [`ClientConn`].
#[derive(Debug)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Response headers, names lowercased.
    pub headers: BTreeMap<String, String>,
    /// The response body.
    pub body: Vec<u8>,
}

/// Minimal client-side response reader over the same buffered-leftover
/// discipline as [`Conn`], used by the integration tests, the
/// `gateway_smoke` example and perfbench's `wire_read` workload (which
/// keep connections alive across requests).
pub struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ClientConn {
    /// Connects and arms the read timeout.
    pub fn connect(addr: std::net::SocketAddr, timeout: Duration) -> std::io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        Ok(ClientConn {
            stream,
            buf: Vec::new(),
        })
    }

    /// The underlying stream, for sending raw bytes.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Sends one request frame.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<()> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nhost: gateway\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if !body.is_empty() || method == "POST" {
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }

    /// Reads one response frame, leaving any pipelined surplus buffered.
    pub fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed before a full response head",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "malformed status line"))?;
        let mut headers = BTreeMap::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
            }
        }
        let declared = headers
            .get("content-length")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        let body_start = head_end + head_terminator_len(&self.buf, head_end);
        while self.buf.len() < body_start + declared {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[body_start..body_start + declared].to_vec();
        self.buf.drain(..body_start + declared);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(head: &str) -> Result<Request, HttpError> {
        parse_head(head)
    }

    #[test]
    fn request_line_grammar() {
        let r = parse("GET /healthz HTTP/1.1\r\nhost: x").expect("valid");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(!r.close);

        let r = parse("GET /verdict?ixp=3&iface=185.1.2.3 HTTP/1.1").expect("valid");
        assert_eq!(r.path, "/verdict");
        assert_eq!(r.query.get("ixp").map(String::as_str), Some("3"));
        assert_eq!(r.query.get("iface").map(String::as_str), Some("185.1.2.3"));

        assert!(matches!(
            parse("GET /x HTTP/2.0"),
            Err(HttpError::UnsupportedVersion)
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1 extra"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            parse("get /x HTTP/1.1"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(
            parse("GET x HTTP/1.1"),
            Err(HttpError::BadRequestLine)
        ));
        assert!(matches!(parse("GET /x"), Err(HttpError::BadRequestLine)));
    }

    #[test]
    fn header_grammar_and_connection_semantics() {
        let r = parse("GET / HTTP/1.1\r\nX-Api-Key: secret\r\nConnection: close").expect("valid");
        assert_eq!(r.header("x-api-key"), Some("secret"));
        assert!(r.close);

        // HTTP/1.0 defaults to close, keep-alive opts back in.
        assert!(parse("GET / HTTP/1.0").expect("valid").close);
        assert!(
            !parse("GET / HTTP/1.0\r\nConnection: keep-alive")
                .expect("valid")
                .close
        );

        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here"),
            Err(HttpError::BadHeader)
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\n: empty-name"),
            Err(HttpError::BadHeader)
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked"),
            Err(HttpError::UnsupportedTransferEncoding)
        ));
        // Conflicting duplicate content-length is a smuggling vector.
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5"),
            Err(HttpError::BadContentLength)
        ));
        // An agreeing duplicate is tolerated.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4").is_ok());
    }

    #[test]
    fn every_error_maps_to_a_status() {
        let errors = [
            HttpError::Truncated,
            HttpError::Timeout,
            HttpError::HeadTooLarge { limit: 1 },
            HttpError::BodyTooLarge {
                declared: 2,
                limit: 1,
            },
            HttpError::BadRequestLine,
            HttpError::BadHeader,
            HttpError::BadContentLength,
            HttpError::UnsupportedTransferEncoding,
            HttpError::UnsupportedVersion,
            HttpError::Io(std::io::Error::other("x")),
        ];
        for e in errors {
            let status = e.status();
            assert!((400..=599).contains(&status), "{e} -> {status}");
            assert_ne!(reason(status), "Unknown", "{e} -> {status}");
            assert!(!e.kind().is_empty());
        }
        assert_eq!(HttpError::Closed.status(), 0);
    }
}
