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
//!
//! **Cost model.** The codec's input is untrusted, so its work is linear in
//! the bytes fed, whatever their shape. Each byte is framed once: the
//! terminator search runs eight bytes per step and remembers how far it
//! got, so a partial line is never rescanned, and a line is handed out as a
//! slice of the buffer ([`LineCodec::next_line_bytes`]) at its read offset.
//! Framed bytes are dropped by at most one compaction per
//! [`LineCodec::feed`], and only once they outnumber the bytes still
//! buffered, so each byte is moved at most twice: once in, once down.
//!
//! Dot-stuffing is per line on both ends: the client writes
//! [`stuff_line`]'s output as one transport chunk per line, and the server
//! appends each received line to one body buffer through
//! [`unstuff_line`]. [`dot_stuff`] and [`dot_unstuff`] are the whole-message
//! loops over those helpers.

/// Maximum accepted line length in bytes, excluding the terminator
/// (RFC 5321's 998-octet text line limit, rounded up to a power of two to
/// leave room for protocol slack).
pub const MAX_LINE_LEN: usize = 1024;

/// The lone-dot line that ends a `DATA` phase.
pub const DATA_END: &str = ".\r\n";

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
    buf: Vec<u8>,
    /// Start of the bytes not yet framed; everything before it is spent.
    pos: usize,
    /// How many bytes from `pos` on are known to hold no `\n`.
    scanned: usize,
    /// Set once a too-long line is detected; the decoder then discards
    /// bytes until the next terminator so the stream can resynchronize.
    skipping: bool,
    #[cfg(test)]
    work: Work,
}

/// The codec's work so far, for the linearity tests.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    /// Bytes copied into or within the buffer.
    moved: usize,
    /// Bytes examined by the terminator search.
    scanned: usize,
}

impl LineCodec {
    /// A fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes received from the transport, first dropping the
    /// framed prefix if it is at least as long as what is still buffered.
    pub fn feed(&mut self, bytes: &[u8]) {
        let live = self.buf.len() - self.pos;
        if live == 0 {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= live {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(live);
            self.pos = 0;
            #[cfg(test)]
            {
                self.work.moved += live;
            }
        }
        self.buf.extend_from_slice(bytes);
        #[cfg(test)]
        {
            self.work.moved += bytes.len();
        }
    }

    /// Bytes currently buffered and not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pop the next complete line, if any. Returns:
    ///
    /// * `Some(Ok(line))` — a complete line (terminator stripped; lossy
    ///   UTF-8 so corrupted bytes from the fault injector stay inspectable);
    /// * `Some(Err(TooLong))` — a line overflowed; the offending bytes are
    ///   discarded and decoding resumes after the next terminator;
    /// * `None` — no complete line buffered yet.
    pub fn next_line(&mut self) -> Option<Result<String, LineError>> {
        self.next_line_bytes()
            .map(|item| item.map(|line| String::from_utf8_lossy(line).into_owned()))
    }

    /// [`Self::next_line`] without the copy: the line's raw bytes, borrowed
    /// from the buffer until the next call.
    pub fn next_line_bytes(&mut self) -> Option<Result<&[u8], LineError>> {
        loop {
            let rest = &self.buf[self.pos..];
            let Some(found) = find_lf(&rest[self.scanned..]) else {
                #[cfg(test)]
                {
                    self.work.scanned += rest.len() - self.scanned;
                }
                if rest.len() > MAX_LINE_LEN {
                    // No terminator in sight: discard, and resync after the
                    // next one.
                    let buffered = rest.len();
                    self.pos = self.buf.len();
                    self.scanned = 0;
                    self.skipping = true;
                    return Some(Err(LineError::TooLong { buffered }));
                }
                self.scanned = rest.len();
                return None;
            };
            let lf = self.scanned + found;
            #[cfg(test)]
            {
                self.work.scanned += found + 1;
            }
            let start = self.pos;
            self.pos += lf + 1;
            self.scanned = 0;
            if self.skipping {
                // The tail of an over-long line: discard, resync.
                self.skipping = false;
                continue;
            }
            // Strip "\n" and an optional preceding "\r".
            let line = &self.buf[start..start + lf];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if line.len() > MAX_LINE_LEN {
                return Some(Err(LineError::TooLong {
                    buffered: line.len(),
                }));
            }
            return Some(Ok(line));
        }
    }

    /// Discard all buffered bytes (connection reset).
    pub fn reset(&mut self) {
        self.buf.clear();
        self.pos = 0;
        self.scanned = 0;
        self.skipping = false;
    }
}

/// The index of the first `\n` in `bytes`, testing eight bytes per step.
fn find_lf(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    const LFS: u64 = ONES * b'\n' as u64;
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        // A high bit in every zero byte of `x` (and possibly in bytes after
        // the first): the lowest set bit is exact.
        let x = u64::from_le_bytes(word) ^ LFS;
        let hits = x.wrapping_sub(ONES) & !x & HIGHS;
        if hits != 0 {
            return Some(at + (hits.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == b'\n')
        .map(|k| at + k)
}

/// Append one line of a message to `out` as it travels inside `DATA`: a
/// trailing `\r` dropped, a leading dot doubled, and CRLF appended. `line`
/// holds no `\n`.
pub fn stuff_line(line: &str, out: &mut String) {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line.starts_with('.') {
        out.push('.');
    }
    out.push_str(line);
    out.push_str("\r\n");
}

/// An upper bound on `dot_stuff(body).len()`, found without stuffing:
/// each `\n` becomes CRLF (+1), each of the `newlines + 1` lines may gain
/// a leading dot (+1), the last line gains its CRLF (+2), then the
/// terminator. Equal when every line starts with a dot and holds no `\r`.
pub(crate) fn stuffed_len_bound(body: &str) -> usize {
    let newlines = body.bytes().filter(|&b| b == b'\n').count();
    body.len() + 2 * newlines + 3 + DATA_END.len()
}

/// Encode a message body for transmission inside `DATA`: normalize line
/// endings to CRLF, double leading dots, and append the lone-dot
/// terminator.
pub fn dot_stuff(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 16);
    for line in body.split('\n') {
        stuff_line(line, &mut out);
    }
    out.push_str(DATA_END);
    out
}

/// Append one received `DATA` line (terminator stripped, never the lone
/// dot) to `body`, followed by `\n`: a leading double dot collapses to
/// one. The whole body is the appended lines less the final `\n`.
pub fn unstuff_line(line: &str, body: &mut String) {
    let line = line
        .strip_prefix('.')
        .filter(|rest| rest.starts_with('.'))
        .unwrap_or(line);
    body.push_str(line);
    body.push('\n');
}

/// Reverse [`dot_stuff`] on the receiving side, given the body lines as
/// framed by [`LineCodec`] (terminator line `"."` excluded). Leading
/// double-dots collapse back to one.
pub fn dot_unstuff(lines: &[String]) -> String {
    let mut out = String::new();
    for line in lines {
        unstuff_line(line, &mut out);
    }
    out.pop();
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

    /// A DATA phase of 40-byte lines, 2 MiB in all, framed from a single
    /// `feed`: every line comes back, and the codec moves and scans each
    /// byte a bounded number of times.
    #[test]
    fn framing_a_2_mib_data_phase_is_linear() {
        let line = format!("{}\r\n", "x".repeat(38));
        let n = 2 * 1024 * 1024 / line.len();
        let wire = line.repeat(n);
        let mut c = LineCodec::new();
        c.feed(wire.as_bytes());
        let mut lines = 0;
        while let Some(item) = c.next_line_bytes() {
            assert_eq!(item, Ok(&line.as_bytes()[..38]));
            lines += 1;
        }
        assert_eq!(lines, n);
        let fed = wire.len();
        assert!(c.work.moved <= 2 * fed, "moved {} of {fed}", c.work.moved);
        assert!(c.work.scanned <= fed, "scanned {} of {fed}", c.work.scanned);
        // A second phase in small feeds, each drained before the next, stays
        // linear too: the spent prefix is dropped, not copied per line.
        let before = c.work;
        for chunk in wire.as_bytes().chunks(4096) {
            c.feed(chunk);
            while let Some(item) = c.next_line_bytes() {
                assert!(item.is_ok());
            }
        }
        assert!(c.work.moved - before.moved <= 2 * wire.len());
        assert!(c.work.scanned - before.scanned <= wire.len());
    }

    /// A 10 MB line with no terminator: one `TooLong`, a clean resync on
    /// the next line, and work linear in the bytes fed.
    #[test]
    fn unterminated_10_mb_line_is_rejected_in_linear_work() {
        let monster = vec![b'z'; 10_000_000];
        let mut c = LineCodec::new();
        c.feed(&monster);
        match c.next_line_bytes() {
            Some(Err(LineError::TooLong { buffered })) => assert_eq!(buffered, monster.len()),
            other => panic!("expected TooLong, got {other:?}"),
        }
        assert_eq!(c.buffered(), 0);
        assert_eq!(c.next_line_bytes(), None);
        let resync = b"tail of the monster\r\nRSET\r\n";
        c.feed(resync);
        assert_eq!(c.next_line(), Some(Ok("RSET".to_owned())));
        assert_eq!(c.next_line(), None);
        let fed = monster.len() + resync.len();
        assert!(c.work.moved <= 2 * fed, "moved {} of {fed}", c.work.moved);
        assert!(c.work.scanned <= fed, "scanned {} of {fed}", c.work.scanned);
    }

    #[test]
    fn find_lf_matches_a_bytewise_search() {
        let mut bytes = vec![b'a'; 40];
        assert_eq!(find_lf(&bytes), None);
        for at in 0..40 {
            bytes[at] = b'\n';
            for from in 0..=at {
                let want = Some(at - from);
                assert_eq!(find_lf(&bytes[from..]), want, "lf at {at} from {from}");
            }
            // High bytes and the bytes next to '\n' never alias it.
            bytes[at] = [0x8A, 0x0B, 0x09, 0xFF][at % 4];
        }
        assert_eq!(find_lf(&bytes), None);
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
    fn stuffed_len_bound_holds_and_is_tight() {
        for body in ["", ".", "\n", ".a\n.b", "a\r\nb", "..\n\n.", "plain text"] {
            assert!(dot_stuff(body).len() <= stuffed_len_bound(body), "{body:?}");
        }
        for body in [".", ".\n.", ".a\n..b\n."] {
            assert_eq!(dot_stuff(body).len(), stuffed_len_bound(body), "{body:?}");
        }
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
