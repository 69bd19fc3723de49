//! Line framing and SMTP dot-stuffing.
//!
//! SMTP is a CRLF line protocol; message bodies are transferred between a
//! `DATA` command and a lone `.` terminator, with any body line that starts
//! with a dot escaped by doubling it (RFC 5321 §4.5.2). The attack emails
//! of the paper reach the victim over exactly this wire, so the substrate
//! implements it rather than hand-waving bytes into the filter.
//!
//! [`LineCodec`] is an incremental decoder in the sans-io style: feed it
//! arbitrary byte chunks, pop complete lines. It tolerates bare `LF` line
//! endings (real mail servers do) and rejects lines longer than
//! [`MAX_LINE_LEN`], which is how the server defends against unframed
//! garbage from the fault-injecting transport.

use bytes::BytesMut;

/// Maximum accepted line length in bytes, excluding the terminator
/// (RFC 5321's 998-octet text line limit, rounded up to a power of two to
/// leave room for protocol slack).
pub const MAX_LINE_LEN: usize = 1024;

/// Errors produced while decoding a line stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// A line exceeded [`MAX_LINE_LEN`] before a terminator arrived.
    TooLong {
        /// Bytes accumulated when the limit tripped.
        buffered: usize,
    },
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::TooLong { buffered } => {
                write!(f, "line exceeds {MAX_LINE_LEN} bytes ({buffered} buffered)")
            }
        }
    }
}

impl std::error::Error for LineError {}

/// Incremental CRLF/LF line decoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct LineCodec {
    buf: BytesMut,
    /// Set once a too-long line is detected; the decoder then discards
    /// bytes until the next terminator so the stream can resynchronize.
    skipping: bool,
}

impl LineCodec {
    /// A fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes received from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pop the next complete line, if any. Returns:
    ///
    /// * `Some(Ok(line))` — a complete line (terminator stripped; lossy
    ///   UTF-8 so corrupted bytes from the fault injector stay inspectable);
    /// * `Some(Err(TooLong))` — a line overflowed; the offending bytes are
    ///   discarded and decoding resumes after the next terminator;
    /// * `None` — no complete line buffered yet.
    pub fn next_line(&mut self) -> Option<Result<String, LineError>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line = self.buf.split_to(pos + 1);
                if self.skipping {
                    // The tail of an over-long line: discard, resync.
                    self.skipping = false;
                    continue;
                }
                // Strip "\n" and an optional preceding "\r".
                let mut end = line.len() - 1;
                if end > 0 && line[end - 1] == b'\r' {
                    end -= 1;
                }
                line.truncate(end);
                if line.len() > MAX_LINE_LEN {
                    return Some(Err(LineError::TooLong { buffered: line.len() }));
                }
                return Some(Ok(String::from_utf8_lossy(&line).into_owned()));
            }
            // No terminator in the buffer.
            if self.buf.len() > MAX_LINE_LEN {
                let buffered = self.buf.len();
                self.buf.clear();
                self.skipping = true;
                return Some(Err(LineError::TooLong { buffered }));
            }
            return None;
        }
    }

    /// Discard all buffered bytes (connection reset).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.skipping = false;
    }
}

/// Encode a message body for transmission inside `DATA`: normalize line
/// endings to CRLF, double leading dots, and append the lone-dot
/// terminator.
pub fn dot_stuff(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 16);
    for line in body.split('\n') {
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push_str("\r\n");
    }
    out.push_str(".\r\n");
    out
}

/// Reverse [`dot_stuff`] on the receiving side, given the body lines as
/// framed by [`LineCodec`] (terminator line `"."` excluded). Leading
/// double-dots collapse back to one.
pub fn dot_unstuff(lines: &[String]) -> String {
    let mut out = String::new();
    for (i, line) in lines.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        if let Some(rest) = line.strip_prefix('.') {
            out.push('.');
            out.push_str(rest.strip_prefix('.').unwrap_or(rest));
        } else {
            out.push_str(line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feeds_split_across_chunks() {
        let mut c = LineCodec::new();
        c.feed(b"HELO exa");
        assert!(c.next_line().is_none());
        c.feed(b"mple.org\r\nMAIL");
        assert_eq!(c.next_line(), Some(Ok("HELO example.org".to_owned())));
        assert!(c.next_line().is_none());
        c.feed(b" FROM:<a@b>\r\n");
        assert_eq!(c.next_line(), Some(Ok("MAIL FROM:<a@b>".to_owned())));
    }

    #[test]
    fn tolerates_bare_lf() {
        let mut c = LineCodec::new();
        c.feed(b"NOOP\nQUIT\r\n");
        assert_eq!(c.next_line(), Some(Ok("NOOP".to_owned())));
        assert_eq!(c.next_line(), Some(Ok("QUIT".to_owned())));
    }

    #[test]
    fn empty_lines_are_lines() {
        let mut c = LineCodec::new();
        c.feed(b"\r\n\n");
        assert_eq!(c.next_line(), Some(Ok(String::new())));
        assert_eq!(c.next_line(), Some(Ok(String::new())));
        assert_eq!(c.next_line(), None);
    }

    #[test]
    fn overlong_line_is_rejected_and_stream_resyncs() {
        let mut c = LineCodec::new();
        let long = vec![b'x'; MAX_LINE_LEN + 100];
        c.feed(&long);
        match c.next_line() {
            Some(Err(LineError::TooLong { buffered })) => assert!(buffered > MAX_LINE_LEN),
            other => panic!("expected TooLong, got {other:?}"),
        }
        // Rest of the long line still in flight, then a good line.
        c.feed(b"tail of the monster\r\nRSET\r\n");
        assert_eq!(c.next_line(), Some(Ok("RSET".to_owned())));
    }

    #[test]
    fn overlong_terminated_line_rejected() {
        let mut c = LineCodec::new();
        let mut msg = vec![b'y'; MAX_LINE_LEN + 1];
        msg.extend_from_slice(b"\r\nNOOP\r\n");
        c.feed(&msg);
        assert!(matches!(c.next_line(), Some(Err(LineError::TooLong { .. }))));
        assert_eq!(c.next_line(), Some(Ok("NOOP".to_owned())));
    }

    #[test]
    fn corrupted_bytes_decode_lossily() {
        let mut c = LineCodec::new();
        c.feed(&[b'H', 0xFF, b'I', b'\r', b'\n']);
        let line = c.next_line().unwrap().unwrap();
        assert!(line.starts_with('H') && line.ends_with('I'));
    }

    #[test]
    fn dot_stuffing_roundtrip_simple() {
        let body = "hello\nworld";
        let wire = dot_stuff(body);
        assert_eq!(wire, "hello\r\nworld\r\n.\r\n");
        let lines: Vec<String> = vec!["hello".into(), "world".into()];
        assert_eq!(dot_unstuff(&lines), body);
    }

    #[test]
    fn dot_stuffing_escapes_leading_dots() {
        let body = ".hidden\n..double\ntail";
        let wire = dot_stuff(body);
        assert_eq!(wire, "..hidden\r\n...double\r\ntail\r\n.\r\n");
        let lines: Vec<String> = vec!["..hidden".into(), "...double".into(), "tail".into()];
        assert_eq!(dot_unstuff(&lines), body);
    }

    #[test]
    fn dot_stuff_normalizes_crlf_input() {
        let body = "a\r\nb";
        assert_eq!(dot_stuff(body), "a\r\nb\r\n.\r\n");
    }

    #[test]
    fn reset_clears_state() {
        let mut c = LineCodec::new();
        c.feed(b"partial line without end");
        assert!(c.buffered() > 0);
        c.reset();
        assert_eq!(c.buffered(), 0);
        c.feed(b"OK\r\n");
        assert_eq!(c.next_line(), Some(Ok("OK".to_owned())));
    }
}
