//! The receiving SMTP state machine.
//!
//! Sans-io: the server consumes complete lines (framed by
//! [`crate::wire::LineCodec`]) and emits [`Reply`] values plus
//! [`ServerEvent`]s; the caller moves bytes. State follows RFC 5321's
//! minimal session diagram:
//!
//! ```text
//! Connected ──HELO──► Greeted ──MAIL──► InTransaction ──RCPT──► ... ──DATA──► ReceivingData ──"."──► Greeted
//! ```
//!
//! Error paths matter here: the fault-injecting transport turns good
//! commands into garbage, and the organization simulation relies on the
//! server's 5xx replies (and the client's retries) to keep delivery
//! eventually-successful without hiding wire failures.

use crate::smtp::{Command, CommandError, Reply, ReplyCode};
use crate::wire::unstuff_line;
use sb_email::{parse_email, Email};
use serde::{Deserialize, Serialize};

/// Where the session currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum State {
    /// TCP open, no HELO yet.
    Connected,
    /// HELO done; no transaction in progress.
    Greeted,
    /// MAIL FROM accepted; gathering recipients.
    InTransaction,
    /// DATA accepted; accumulating body lines until the lone dot.
    ReceivingData,
    /// QUIT handled; no further commands accepted.
    Closed,
}

/// A fully received message, as the server hands it to delivery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReceivedMessage {
    /// Envelope sender (may be empty: bounce path).
    pub mail_from: String,
    /// Envelope recipients (at least one).
    pub rcpt_to: Vec<String>,
    /// The parsed message.
    pub email: Email,
    /// Size in bytes as transferred: every data line as framed (still
    /// dot-stuffed, lossy-decoded) plus its CRLF.
    pub wire_bytes: usize,
}

/// Observable server events, drained by the caller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerEvent {
    /// A message was fully received and accepted.
    MessageAccepted(ReceivedMessage),
    /// The client said QUIT; the session is over.
    SessionClosed,
}

/// Server limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Maximum accepted message size in bytes (RFC SIZE-style limit).
    pub max_message_bytes: usize,
    /// Maximum recipients per transaction.
    pub max_recipients: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            // Large enough for a 98,568-word dictionary attack email
            // (~900 KB): the paper's attacks must fit through the wire.
            max_message_bytes: 2 * 1024 * 1024,
            max_recipients: 64,
        }
    }
}

/// The SMTP-lite server.
#[derive(Debug)]
pub struct SmtpServer {
    cfg: ServerConfig,
    hostname: String,
    state: State,
    mail_from: Option<String>,
    rcpt_to: Vec<String>,
    /// The message body so far: each received line unstuffed and followed
    /// by `\n` ([`unstuff_line`]).
    body: String,
    data_bytes: usize,
    /// Set while receiving a message that has already blown the size limit:
    /// keep consuming lines until the terminator, then reject once.
    oversized: bool,
    events: Vec<ServerEvent>,
}

impl SmtpServer {
    /// A server for `hostname` with default limits.
    pub fn new(hostname: impl Into<String>) -> Self {
        Self::with_config(hostname, ServerConfig::default())
    }

    /// A server with explicit limits.
    pub fn with_config(hostname: impl Into<String>, cfg: ServerConfig) -> Self {
        Self {
            cfg,
            hostname: hostname.into(),
            state: State::Connected,
            mail_from: None,
            rcpt_to: Vec::new(),
            body: String::new(),
            data_bytes: 0,
            oversized: false,
            events: Vec::new(),
        }
    }

    /// The banner the server sends when the connection opens.
    pub fn greeting(&self) -> Reply {
        Reply::new(ReplyCode::ServiceReady, format!("{} SMTP-lite ready", self.hostname))
    }

    /// Whether the session has ended.
    pub fn is_closed(&self) -> bool {
        self.state == State::Closed
    }

    /// Drain accumulated events.
    pub fn take_events(&mut self) -> Vec<ServerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Feed one complete line; returns the reply to send, if any (data
    /// lines are silent until the terminating dot).
    pub fn handle_line(&mut self, line: &str) -> Option<Reply> {
        if self.state == State::ReceivingData {
            return self.handle_data_line(line);
        }
        Some(match Command::parse(line) {
            Err(CommandError::UnknownVerb(_)) => {
                Reply::new(ReplyCode::SyntaxError, "command not recognized")
            }
            Err(CommandError::BadArgument(what)) => Reply::new(ReplyCode::BadArgument, what),
            Ok(cmd) => self.handle_command(cmd),
        })
    }

    fn handle_command(&mut self, cmd: Command) -> Reply {
        match (cmd, self.state) {
            (_, State::Closed) => Reply::new(ReplyCode::BadSequence, "session closed"),

            (Command::Helo(domain), State::Connected) => {
                self.state = State::Greeted;
                Reply::new(ReplyCode::Ok, format!("{} greets {domain}", self.hostname))
            }
            (Command::Helo(_), _) => {
                // Re-HELO resets any transaction, per RFC.
                self.reset_transaction();
                self.state = State::Greeted;
                Reply::new(ReplyCode::Ok, "reset and greeted again")
            }

            (Command::MailFrom(path), State::Greeted) => {
                self.mail_from = Some(path);
                self.state = State::InTransaction;
                Reply::new(ReplyCode::Ok, "sender ok")
            }
            (Command::MailFrom(_), State::Connected) => {
                Reply::new(ReplyCode::BadSequence, "say HELO first")
            }
            (Command::MailFrom(_), _) => {
                Reply::new(ReplyCode::BadSequence, "nested MAIL command")
            }

            (Command::RcptTo(path), State::InTransaction) => {
                if self.rcpt_to.len() >= self.cfg.max_recipients {
                    Reply::new(ReplyCode::TooManyRecipients, "too many recipients")
                } else {
                    self.rcpt_to.push(path);
                    Reply::new(ReplyCode::Ok, "recipient ok")
                }
            }
            (Command::RcptTo(_), _) => Reply::new(ReplyCode::BadSequence, "need MAIL before RCPT"),

            (Command::Data, State::InTransaction) => {
                if self.rcpt_to.is_empty() {
                    Reply::new(ReplyCode::BadSequence, "need RCPT before DATA")
                } else {
                    self.state = State::ReceivingData;
                    self.body.clear();
                    self.data_bytes = 0;
                    self.oversized = false;
                    Reply::new(ReplyCode::StartMailInput, "end data with <CRLF>.<CRLF>")
                }
            }
            (Command::Data, _) => Reply::new(ReplyCode::BadSequence, "no transaction"),

            (Command::Rset, _) => {
                self.reset_transaction();
                if self.state != State::Connected {
                    self.state = State::Greeted;
                }
                Reply::new(ReplyCode::Ok, "flushed")
            }

            (Command::Noop, _) => Reply::new(ReplyCode::Ok, "ok"),

            (Command::Vrfy(_), _) => {
                Reply::new(ReplyCode::CannotVrfy, "cannot verify, will attempt delivery")
            }

            (Command::Quit, _) => {
                self.state = State::Closed;
                self.events.push(ServerEvent::SessionClosed);
                Reply::new(ReplyCode::Closing, format!("{} closing", self.hostname))
            }
        }
    }

    fn handle_data_line(&mut self, line: &str) -> Option<Reply> {
        if line == "." {
            self.state = State::Greeted;
            if self.oversized {
                self.reset_transaction();
                return Some(Reply::new(ReplyCode::TooMuchData, "message too large"));
            }
            // The body is the lines joined by `\n`: drop the last one's.
            self.body.pop();
            let email = parse_email(&self.body);
            self.body.clear();
            let msg = ReceivedMessage {
                mail_from: self.mail_from.take().unwrap_or_default(),
                rcpt_to: std::mem::take(&mut self.rcpt_to),
                email,
                wire_bytes: self.data_bytes,
            };
            self.data_bytes = 0;
            self.events.push(ServerEvent::MessageAccepted(msg));
            return Some(Reply::new(ReplyCode::Ok, "message accepted"));
        }
        self.data_bytes += line.len() + 2;
        if self.data_bytes > self.cfg.max_message_bytes {
            self.oversized = true;
            self.body.clear();
        } else if !self.oversized {
            unstuff_line(line, &mut self.body);
        }
        None
    }

    fn reset_transaction(&mut self) {
        self.mail_from = None;
        self.rcpt_to.clear();
        self.body.clear();
        self.data_bytes = 0;
        self.oversized = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::LineCodec;
    use proptest::prelude::*;

    /// The line-vector receive path: every data line kept as its own
    /// `String`, then joined with leading double dots collapsed.
    fn joined_lines_body(lines: &[String]) -> String {
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

    /// Frame `wire` as the delivery pump does and feed every line to a
    /// fresh server; returns the accepted message, if any.
    fn receive(wire: &[u8]) -> Option<ReceivedMessage> {
        let mut s = SmtpServer::new("mx");
        let mut codec = LineCodec::new();
        codec.feed(wire);
        while let Some(Ok(line)) = codec.next_line_bytes() {
            s.handle_line(&String::from_utf8_lossy(line));
        }
        s.take_events().into_iter().find_map(|e| match e {
            ServerEvent::MessageAccepted(m) => Some(m),
            ServerEvent::SessionClosed => None,
        })
    }

    proptest! {
        /// The one-buffer body and `wire_bytes` equal the line-vector
        /// path's for arbitrary data lines: dots, bare CRs, bytes flipped
        /// by the fault injector's XOR and invalid UTF-8.
        #[test]
        fn one_buffer_body_equals_joined_lines(
            raw in proptest::collection::vec(
                (proptest::collection::vec(0usize..10, 0..50), any::<u64>()), 0..30),
        ) {
            const BYTES: [u8; 10] = [b'a', b'Z', b'.', b' ', b':', 0xFF, 0xC3, 0xA9, b'\r', b'-'];
            let mut wire = b"HELO x\r\nMAIL FROM:<a@b>\r\nRCPT TO:<c@d>\r\nDATA\r\n".to_vec();
            let mut lines = Vec::new();
            for (picks, flip) in &raw {
                let mut line: Vec<u8> = picks.iter().map(|&k| BYTES[k]).collect();
                if flip & 1 == 1 && !line.is_empty() {
                    let at = (flip >> 1) as usize % line.len();
                    if line[at] != b'\r' {
                        line[at] ^= 0x02;
                    }
                }
                if line == b"." {
                    line.push(b'.');
                }
                wire.extend_from_slice(&line);
                wire.extend_from_slice(b"\r\n");
                lines.push(String::from_utf8_lossy(&line).into_owned());
            }
            wire.extend_from_slice(b".\r\n");
            let got = receive(&wire).expect("the message is accepted");
            prop_assert_eq!(got.email, parse_email(&joined_lines_body(&lines)));
            let wire_bytes: usize = lines.iter().map(|l| l.len() + 2).sum();
            prop_assert_eq!(got.wire_bytes, wire_bytes);
        }
    }

    /// Drive a scripted session; returns replies (None entries for silent
    /// data lines are skipped).
    fn drive(server: &mut SmtpServer, lines: &[&str]) -> Vec<Reply> {
        lines.iter().filter_map(|l| server.handle_line(l)).collect()
    }

    #[test]
    fn happy_path_delivers_message() {
        let mut s = SmtpServer::new("mx.corp.example");
        assert_eq!(s.greeting().code, ReplyCode::ServiceReady);
        let replies = drive(
            &mut s,
            &[
                "HELO sender.example",
                "MAIL FROM:<alice@sender.example>",
                "RCPT TO:<bob@corp.example>",
                "DATA",
                "Subject: hello",
                "",
                "quarterly numbers attached",
                ".",
                "QUIT",
            ],
        );
        let codes: Vec<u16> = replies.iter().map(|r| r.code.code()).collect();
        assert_eq!(codes, vec![250, 250, 250, 354, 250, 221]);
        let events = s.take_events();
        assert_eq!(events.len(), 2);
        match &events[0] {
            ServerEvent::MessageAccepted(m) => {
                assert_eq!(m.mail_from, "alice@sender.example");
                assert_eq!(m.rcpt_to, vec!["bob@corp.example"]);
                assert_eq!(m.email.subject(), Some("hello"));
                assert_eq!(m.email.body().trim(), "quarterly numbers attached");
            }
            other => panic!("expected MessageAccepted, got {other:?}"),
        }
        assert!(s.is_closed());
    }

    #[test]
    fn commands_out_of_sequence_get_503() {
        let mut s = SmtpServer::new("mx");
        let r = s.handle_line("MAIL FROM:<a@b>").unwrap();
        assert_eq!(r.code, ReplyCode::BadSequence);
        let r = s.handle_line("DATA").unwrap();
        assert_eq!(r.code, ReplyCode::BadSequence);
        let r = s.handle_line("RCPT TO:<a@b>").unwrap();
        assert_eq!(r.code, ReplyCode::BadSequence);
    }

    #[test]
    fn data_requires_a_recipient() {
        let mut s = SmtpServer::new("mx");
        drive(&mut s, &["HELO x", "MAIL FROM:<a@b>"]);
        let r = s.handle_line("DATA").unwrap();
        assert_eq!(r.code, ReplyCode::BadSequence);
    }

    #[test]
    fn garbage_gets_500_and_session_continues() {
        let mut s = SmtpServer::new("mx");
        let r = s.handle_line("XYZZY magic").unwrap();
        assert_eq!(r.code, ReplyCode::SyntaxError);
        // Corrupted command (fault injector flipped a byte in HELO).
        let r = s.handle_line("HGLO x").unwrap();
        assert_eq!(r.code, ReplyCode::SyntaxError);
        // Session still usable.
        let r = s.handle_line("HELO x").unwrap();
        assert_eq!(r.code, ReplyCode::Ok);
    }

    #[test]
    fn rset_aborts_transaction() {
        let mut s = SmtpServer::new("mx");
        drive(&mut s, &["HELO x", "MAIL FROM:<a@b>", "RCPT TO:<c@d>"]);
        let r = s.handle_line("RSET").unwrap();
        assert_eq!(r.code, ReplyCode::Ok);
        // MAIL is accepted again (state back to Greeted).
        let r = s.handle_line("MAIL FROM:<e@f>").unwrap();
        assert_eq!(r.code, ReplyCode::Ok);
    }

    #[test]
    fn oversized_message_rejected_with_552() {
        let mut s = SmtpServer::with_config(
            "mx",
            ServerConfig {
                max_message_bytes: 64,
                max_recipients: 4,
            },
        );
        drive(&mut s, &["HELO x", "MAIL FROM:<a@b>", "RCPT TO:<c@d>", "DATA"]);
        for _ in 0..10 {
            assert!(s.handle_line("0123456789abcdef").is_none());
        }
        let r = s.handle_line(".").unwrap();
        assert_eq!(r.code, ReplyCode::TooMuchData);
        assert!(s.take_events().is_empty(), "oversized message must not deliver");
        // Next transaction is clean.
        let r = s.handle_line("MAIL FROM:<a@b>").unwrap();
        assert_eq!(r.code, ReplyCode::Ok);
    }

    #[test]
    fn recipient_limit_enforced() {
        let mut s = SmtpServer::with_config(
            "mx",
            ServerConfig {
                max_message_bytes: 1024,
                max_recipients: 2,
            },
        );
        drive(&mut s, &["HELO x", "MAIL FROM:<a@b>"]);
        assert_eq!(s.handle_line("RCPT TO:<u1@d>").unwrap().code, ReplyCode::Ok);
        assert_eq!(s.handle_line("RCPT TO:<u2@d>").unwrap().code, ReplyCode::Ok);
        assert_eq!(
            s.handle_line("RCPT TO:<u3@d>").unwrap().code,
            ReplyCode::TooManyRecipients
        );
    }

    #[test]
    fn dot_stuffed_body_is_unstuffed() {
        let mut s = SmtpServer::new("mx");
        drive(&mut s, &["HELO x", "MAIL FROM:<a@b>", "RCPT TO:<c@d>", "DATA"]);
        for l in ["..leading dot preserved", "normal", "."] {
            s.handle_line(l);
        }
        match &s.take_events()[0] {
            ServerEvent::MessageAccepted(m) => {
                assert!(m.email.body().contains(".leading dot preserved"));
                assert!(!m.email.body().contains(".."));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rehelo_resets_transaction() {
        let mut s = SmtpServer::new("mx");
        drive(&mut s, &["HELO x", "MAIL FROM:<a@b>"]);
        assert_eq!(s.handle_line("HELO y").unwrap().code, ReplyCode::Ok);
        // RCPT must now fail: the transaction was dropped.
        assert_eq!(
            s.handle_line("RCPT TO:<c@d>").unwrap().code,
            ReplyCode::BadSequence
        );
    }

    #[test]
    fn closed_session_rejects_commands() {
        let mut s = SmtpServer::new("mx");
        drive(&mut s, &["HELO x", "QUIT"]);
        assert!(s.is_closed());
        assert_eq!(s.handle_line("NOOP").unwrap().code, ReplyCode::BadSequence);
    }

    #[test]
    fn multiple_messages_per_session() {
        let mut s = SmtpServer::new("mx");
        drive(&mut s, &["HELO x"]);
        for i in 0..3 {
            drive(
                &mut s,
                &[
                    &format!("MAIL FROM:<sender{i}@x>"),
                    "RCPT TO:<victim@corp>",
                    "DATA",
                    &format!("message number {i}"),
                    ".",
                ],
            );
        }
        let accepted = s
            .take_events()
            .into_iter()
            .filter(|e| matches!(e, ServerEvent::MessageAccepted(_)))
            .count();
        assert_eq!(accepted, 3);
    }
}
