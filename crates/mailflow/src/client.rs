//! The sending SMTP state machine and the synchronous delivery pump.
//!
//! The client renders commands to wire lines, pushes them through the
//! (possibly faulty) transport, pumps the server, and interprets replies.
//! Fault handling is where the substance is:
//!
//! * **dropped command / dropped reply** → no reply arrives; the client
//!   retransmits the line a bounded number of times;
//! * **corrupted command** → the server answers 500/501; the client
//!   retransmits the original line;
//! * **corrupted reply** → unparseable; treated like a drop;
//! * **desynchronization** (e.g. a lost 354 leaves the server in DATA mode
//!   eating commands as body lines) → [`SmtpClient::recover`] force-feeds a
//!   terminating dot and a RSET, the standard blind resync dance;
//! * anything still failing after the per-envelope attempt budget is
//!   reported as a [`ClientError`], never hidden.
//!
//! Every loop is bounded, so delivery terminates for *any* transport
//! behaviour — property-tested in `tests/prop_mailflow.rs`.

use crate::smtp::{Command, Reply, ReplyCode};
use crate::transport::{End, FaultyPipe};
use crate::server::SmtpServer;
use crate::wire::{stuff_line, LineCodec, DATA_END};
use sb_email::Email;
use sb_email::render::render_email;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// An envelope: what SMTP actually routes (independent of header fields).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Envelope sender.
    pub mail_from: String,
    /// Envelope recipients.
    pub rcpt_to: Vec<String>,
    /// The message content.
    pub email: Email,
}

impl Envelope {
    /// Single-recipient convenience constructor.
    pub fn to_one(mail_from: impl Into<String>, rcpt: impl Into<String>, email: Email) -> Self {
        Self {
            mail_from: mail_from.into(),
            rcpt_to: vec![rcpt.into()],
            email,
        }
    }
}

/// Why a delivery failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientError {
    /// The server rejected the transaction with a permanent (5xx) code
    /// repeatedly.
    Rejected {
        /// The last reply code seen.
        code: u16,
        /// Which command drew the rejection.
        during: String,
    },
    /// No usable reply after all retransmissions (dropped lines, corrupted
    /// replies, or a wedged session).
    Stalled {
        /// Which command stalled.
        during: String,
    },
    /// The per-envelope attempt budget ran out.
    AttemptsExhausted,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected { code, during } => {
                write!(f, "rejected with {code} during {during}")
            }
            ClientError::Stalled { during } => write!(f, "no reply during {during}"),
            ClientError::AttemptsExhausted => write!(f, "delivery attempts exhausted"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A virtual-clock exponential backoff schedule: retry `n` (1-based) waits
/// `min(base_ms << (n-1), cap_ms)` before retransmitting.
///
/// The simulation has no wall clock — the wait is *accounted*, not slept,
/// accumulating into [`DeliveryReport::backoff_ms`]. The retry decisions
/// themselves are unchanged by the schedule, so enabling or tuning backoff
/// never moves a delivery outcome (and therefore never moves a golden
/// digest beyond the report's own columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackoffSchedule {
    /// Delay before the first retry, in virtual milliseconds.
    pub base_ms: u64,
    /// Ceiling on any single delay.
    pub cap_ms: u64,
}

impl Default for BackoffSchedule {
    fn default() -> Self {
        Self {
            base_ms: 250,
            cap_ms: 32_000,
        }
    }
}

impl BackoffSchedule {
    /// The virtual delay before retry `retry` (1-based; 0 means the first
    /// transmission, which waits nothing).
    pub fn delay_ms(&self, retry: u32) -> u64 {
        if retry == 0 {
            return 0;
        }
        let shift = (retry - 1).min(63);
        self.base_ms
            .saturating_mul(1u64 << shift)
            .min(self.cap_ms)
    }
}

/// Per-delivery accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeliveryReport {
    /// Envelopes delivered (250 after the data dot).
    pub delivered: usize,
    /// Envelopes abandoned, with their final errors.
    pub failed: Vec<ClientError>,
    /// Total command retransmissions performed.
    pub retransmissions: u64,
    /// Blind resynchronization dances performed.
    pub recoveries: u64,
    /// Virtual milliseconds spent waiting in the backoff schedule across
    /// all retransmissions.
    pub backoff_ms: u64,
}

/// The SMTP-lite client.
#[derive(Debug, Clone)]
pub struct SmtpClient {
    helo_domain: String,
    /// Full restarts allowed per envelope.
    max_attempts: u32,
    /// Retransmissions allowed per command line.
    per_command_retries: u32,
    /// Virtual-clock waits between retransmissions.
    backoff: BackoffSchedule,
}

impl SmtpClient {
    /// A client announcing `helo_domain`, with default retry budgets.
    pub fn new(helo_domain: impl Into<String>) -> Self {
        Self {
            helo_domain: helo_domain.into(),
            max_attempts: 3,
            per_command_retries: 4,
            backoff: BackoffSchedule::default(),
        }
    }

    /// Deliver a batch of envelopes over one SMTP session, pumping `server`
    /// through `pipe`. Returns per-batch accounting; individual failures do
    /// not abort the batch.
    pub fn deliver_all(
        &self,
        pipe: &mut FaultyPipe,
        server: &mut SmtpServer,
        envelopes: &[Envelope],
    ) -> DeliveryReport {
        let mut report = DeliveryReport::default();
        let mut session = Session {
            pipe,
            server,
            client_codec: LineCodec::new(),
            server_codec: LineCodec::new(),
            scratch: String::new(),
            retransmissions: 0,
            recoveries: 0,
            waited_ms: 0,
            per_command_retries: self.per_command_retries,
            backoff: self.backoff,
        };

        // Greeting: the server banner may be dropped; HELO works regardless.
        session.pump_server();
        session.drain_client_replies();
        let _ = session.exchange(&Command::Helo(self.helo_domain.clone()).render(), &[250]);

        for env in envelopes {
            match self.deliver_envelope(&mut session, env) {
                Ok(()) => report.delivered += 1,
                Err(e) => report.failed.push(e),
            }
        }
        let _ = session.exchange(&Command::Quit.render(), &[221]);
        report.retransmissions = session.retransmissions;
        report.recoveries = session.recoveries;
        report.backoff_ms = session.waited_ms;
        report
    }

    fn deliver_envelope(
        &self,
        session: &mut Session<'_>,
        env: &Envelope,
    ) -> Result<(), ClientError> {
        for _attempt in 0..self.max_attempts {
            match self.try_once(session, env) {
                Ok(()) => return Ok(()),
                Err(ClientError::Rejected { code, during }) if code >= 550 => {
                    // Genuine policy rejection (bad mailbox, oversized):
                    // retrying cannot help. RSET keeps the session clean for
                    // the next envelope.
                    session.resync();
                    return Err(ClientError::Rejected { code, during });
                }
                Err(_) => {
                    // Stall or desync: blind resync, then burn an attempt.
                    session.resync();
                }
            }
        }
        Err(ClientError::AttemptsExhausted)
    }

    fn try_once(&self, session: &mut Session<'_>, env: &Envelope) -> Result<(), ClientError> {
        session.exchange_strict(&Command::MailFrom(env.mail_from.clone()).render(), &[250], "MAIL")?;
        for rcpt in &env.rcpt_to {
            session.exchange_strict(&Command::RcptTo(rcpt.clone()).render(), &[250], "RCPT")?;
        }
        session.exchange_strict(&Command::Data.render(), &[354], "DATA")?;
        // Body lines draw no replies; send them in one burst per line so the
        // fault injector sees realistic chunk granularity.
        session.send_data(&render_email(&env.email));
        session.pump_server();
        // The terminating dot was part of the data; wait for the final 250.
        match session.await_reply() {
            Some(r) if r.code == ReplyCode::Ok => Ok(()),
            Some(r) if r.code == ReplyCode::TooMuchData => Err(ClientError::Rejected {
                code: 552,
                during: "DATA-END".into(),
            }),
            Some(r) => Err(ClientError::Rejected {
                code: r.code.code(),
                during: "DATA-END".into(),
            }),
            None => {
                // The dot (or its reply) was lost: retransmit just the dot.
                for retry in 1..=self.per_command_retries {
                    session.waited_ms += session.backoff.delay_ms(retry);
                    session.send_raw(DATA_END.as_bytes());
                    session.pump_server();
                    if let Some(r) = session.await_reply() {
                        return if r.code == ReplyCode::Ok {
                            Ok(())
                        } else {
                            Err(ClientError::Rejected {
                                code: r.code.code(),
                                during: "DATA-END".into(),
                            })
                        };
                    }
                }
                Err(ClientError::Stalled {
                    during: "DATA-END".into(),
                })
            }
        }
    }
}

/// Call `send` with each transport chunk of `message`'s `DATA` phase, in
/// wire order: one dot-stuffed line per chunk, built in `scratch`
/// ([`stuff_line`]), then the lone dot. The chunks are exactly
/// `dot_stuff(message).split_inclusive("\r\n")`.
fn data_chunks(message: &str, scratch: &mut String, mut send: impl FnMut(&[u8])) {
    for line in message.split('\n') {
        scratch.clear();
        stuff_line(line, scratch);
        send(scratch.as_bytes());
    }
    send(DATA_END.as_bytes());
}

/// One live client↔server pumping context.
struct Session<'a> {
    pipe: &'a mut FaultyPipe,
    server: &'a mut SmtpServer,
    client_codec: LineCodec,
    /// The server's framing buffer, reused across pumps.
    server_codec: LineCodec,
    /// The line being written: a command or reply with its CRLF, or one
    /// dot-stuffed data line.
    scratch: String,
    retransmissions: u64,
    recoveries: u64,
    /// Virtual milliseconds spent in backoff waits.
    waited_ms: u64,
    per_command_retries: u32,
    backoff: BackoffSchedule,
}

impl Session<'_> {
    /// Push client bytes through the faulty pipe.
    fn send_raw(&mut self, bytes: &[u8]) {
        self.pipe.write(End::Client, bytes);
    }

    /// Send one command line with its CRLF as one chunk.
    fn send_line(&mut self, line: &str) {
        self.scratch.clear();
        self.scratch.push_str(line);
        self.scratch.push_str("\r\n");
        self.pipe.write(End::Client, self.scratch.as_bytes());
    }

    /// Send a rendered message as the body of a `DATA` phase, terminator
    /// included: one chunk per line ([`data_chunks`]).
    fn send_data(&mut self, message: &str) {
        let pipe = &mut *self.pipe;
        data_chunks(message, &mut self.scratch, |chunk| {
            pipe.write(End::Client, chunk)
        });
    }

    /// Answer the client with `reply` and its CRLF as one chunk.
    fn send_reply(&mut self, reply: &Reply) {
        self.scratch.clear();
        let _ = write!(self.scratch, "{reply}\r\n");
        self.pipe.write(End::Server, self.scratch.as_bytes());
    }

    /// Let the server consume everything in flight and emit replies.
    fn pump_server(&mut self) {
        // The server frames with its own codec, reset on every pump; one
        // carrying state across pumps would be marginally more realistic,
        // but command lines never split across our chunk boundary (one
        // write = one line), so a codec that drains fully is equivalent —
        // except for byte-corruption runs, where a corrupted terminator
        // could leave a partial line stranded. We accept losing that tail:
        // it models a broken line on a real wire, and the client's
        // retransmission path covers it.
        let codec = &mut self.server_codec;
        self.pipe.read(End::Server, |bytes| {
            codec.reset();
            codec.feed(bytes);
        });
        while let Some(item) = self.server_codec.next_line_bytes() {
            let reply = match item {
                Ok(line) => self.server.handle_line(&String::from_utf8_lossy(line)),
                // Oversized garbage: a real server would answer 500; ours
                // does too, so the client can resync.
                Err(_) => Some(Reply::new(ReplyCode::SyntaxError, "line too long")),
            };
            if let Some(reply) = reply {
                self.send_reply(&reply);
            }
        }
    }

    /// Read one parsed reply from the client side, if any arrived.
    fn await_reply(&mut self) -> Option<Reply> {
        let codec = &mut self.client_codec;
        self.pipe.read(End::Client, |bytes| codec.feed(bytes));
        while let Some(item) = self.client_codec.next_line_bytes() {
            if let Ok(line) = item {
                if let Some(r) = Reply::parse(&String::from_utf8_lossy(line)) {
                    return Some(r);
                }
                // Corrupted reply: ignore; caller will retransmit.
            }
        }
        None
    }

    /// Discard any stale replies sitting in the client's direction.
    fn drain_client_replies(&mut self) {
        while self.await_reply().is_some() {}
    }

    /// Send a command line until one of `want` (numeric codes) comes back.
    /// Returns the final reply, or None if the budget ran out.
    ///
    /// Reply-code triage: 500/501 almost certainly mean the command was
    /// corrupted in flight, so the original line is retransmitted; 4xx are
    /// transient and also retransmitted; 503 means client and server have
    /// desynchronized (retransmission cannot fix that — the caller's resync
    /// dance can) and 55x are genuine policy rejections, so both return
    /// immediately.
    fn exchange(&mut self, line: &str, want: &[u16]) -> Option<Reply> {
        for attempt in 0..=self.per_command_retries {
            if attempt > 0 {
                self.retransmissions += 1;
                self.waited_ms += self.backoff.delay_ms(attempt);
            }
            self.send_line(line);
            self.pump_server();
            if let Some(r) = self.await_reply() {
                let code = r.code.code();
                if want.contains(&code) {
                    return Some(r);
                }
                if code == 503 || code >= 550 {
                    return Some(r);
                }
                // 4xx / 500 / 501: retransmit.
            }
        }
        None
    }

    /// Like [`Self::exchange`] but mapping outcomes onto [`ClientError`].
    fn exchange_strict(
        &mut self,
        line: &str,
        want: &[u16],
        during: &str,
    ) -> Result<Reply, ClientError> {
        match self.exchange(line, want) {
            Some(r) if want.contains(&r.code.code()) => Ok(r),
            Some(r) => Err(ClientError::Rejected {
                code: r.code.code(),
                during: during.into(),
            }),
            None => Err(ClientError::Stalled {
                during: during.into(),
            }),
        }
    }

    /// Blind resynchronization: terminate any data mode the server might be
    /// stuck in, then RSET. Ignores outcomes — this is a best-effort dance.
    fn resync(&mut self) {
        self.recoveries += 1;
        self.send_raw(DATA_END.as_bytes());
        self.pump_server();
        self.drain_client_replies();
        let _ = self.exchange(&Command::Rset.render(), &[250]);
        self.drain_client_replies();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FaultConfig;
    use crate::wire::dot_stuff;
    use proptest::prelude::*;

    /// The client's transport writes for one message's `DATA` phase.
    fn client_chunks(email: &Email) -> Vec<Vec<u8>> {
        let mut chunks = Vec::new();
        data_chunks(&render_email(email), &mut String::new(), |c| {
            chunks.push(c.to_vec())
        });
        chunks
    }

    /// The chunks of the whole dot-stuffed rendering, one per CRLF line:
    /// the write sequence the fault injector's RNG stream is keyed to.
    fn stuffed_chunks(email: &Email) -> Vec<Vec<u8>> {
        dot_stuff(&render_email(email))
            .split_inclusive("\r\n")
            .map(|c| c.as_bytes().to_vec())
            .collect()
    }

    #[test]
    fn data_chunks_are_the_dot_stuffed_lines() {
        let with_headers = |body: &str| Email::builder().subject("s").body(body).build();
        let headerless = |body: &str| Email::from_parts(Vec::new(), body.to_owned());
        let bodies = [
            "",
            "\n",
            ".",
            "..",
            ".x\n..y\n",
            "a\r\nb\r\n",
            "a\r\r\n.\r\n",
            "\r",
            "x\ry",
        ];
        for body in bodies {
            for email in [with_headers(body), headerless(body)] {
                assert_eq!(client_chunks(&email), stuffed_chunks(&email), "{email:?}");
            }
        }
        // The last chunk is the lone dot, and no earlier chunk is.
        let chunks = client_chunks(&with_headers(".\n"));
        assert_eq!(chunks.last().map(Vec::as_slice), Some(DATA_END.as_bytes()));
        let dots = chunks.iter().filter(|c| c.as_slice() == DATA_END.as_bytes());
        assert_eq!(dots.count(), 1);
    }

    proptest! {
        /// For arbitrary messages (leading dots, CRLF and bare CR bodies,
        /// empty bodies, no headers) the client writes exactly the chunks
        /// of the whole dot-stuffed rendering, in order.
        #[test]
        fn data_chunks_equal_split_dot_stuffed_rendering(
            headers in proptest::collection::vec(("[A-Za-z-]{1,10}", "[ -~]{0,30}"), 0..4),
            pieces in proptest::collection::vec(0usize..8, 0..80),
        ) {
            const PIECES: [&str; 8] = ["word", ".", "..", "\r\n", "\n", "\r", " ", "Subject: x"];
            let body: String = pieces.iter().map(|&k| PIECES[k]).collect();
            let email = Email::from_parts(headers, body);
            prop_assert_eq!(client_chunks(&email), stuffed_chunks(&email));
        }
    }

    fn envelope(i: usize) -> Envelope {
        Envelope::to_one(
            format!("sender{i}@out.example"),
            "victim@corp.example",
            Email::builder()
                .subject(format!("message {i}"))
                .body(format!("body of message {i}\nwith two lines"))
                .build(),
        )
    }

    #[test]
    fn delivers_over_reliable_pipe() {
        let mut pipe = FaultyPipe::reliable();
        let mut server = SmtpServer::new("mx.corp.example");
        pipe.write(End::Server, format!("{}\r\n", server.greeting().render()).as_bytes());
        let client = SmtpClient::new("out.example");
        let envs: Vec<Envelope> = (0..5).map(envelope).collect();
        let report = client.deliver_all(&mut pipe, &mut server, &envs);
        assert_eq!(report.delivered, 5, "failures: {:?}", report.failed);
        assert!(report.failed.is_empty());
        assert_eq!(report.retransmissions, 0);
        let accepted = server
            .take_events()
            .into_iter()
            .filter(|e| matches!(e, crate::server::ServerEvent::MessageAccepted(_)))
            .count();
        assert_eq!(accepted, 5);
    }

    #[test]
    fn message_content_survives_the_wire() {
        let mut pipe = FaultyPipe::reliable();
        let mut server = SmtpServer::new("mx");
        let client = SmtpClient::new("out");
        let email = Email::builder()
            .subject("dots and lines")
            .body(".leading dot\nmiddle\n..two dots\nlast")
            .build();
        let env = Envelope::to_one("a@b", "c@d", email.clone());
        let report = client.deliver_all(&mut pipe, &mut server, &[env]);
        assert_eq!(report.delivered, 1);
        match &server.take_events()[0] {
            crate::server::ServerEvent::MessageAccepted(m) => {
                assert_eq!(m.email.subject(), email.subject());
                assert_eq!(m.email.body().trim_end(), email.body());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn survives_moderate_faults() {
        // 5% drop + 5% corruption: all messages should still arrive thanks
        // to retransmission, with a nonzero retry count.
        let mut total_delivered = 0;
        let mut total_retx = 0;
        for seed in 0..10 {
            let mut pipe = FaultyPipe::seeded(
                FaultConfig {
                    drop_chance: 0.05,
                    corrupt_chance: 0.05,
                },
                seed,
            );
            let mut server = SmtpServer::new("mx");
            let client = SmtpClient {
                max_attempts: 4,
                per_command_retries: 6,
                ..SmtpClient::new("out")
            };
            let envs: Vec<Envelope> = (0..10).map(envelope).collect();
            let report = client.deliver_all(&mut pipe, &mut server, &envs);
            total_delivered += report.delivered;
            total_retx += report.retransmissions;
        }
        assert!(
            total_delivered >= 95,
            "too many losses at 5% fault rate: {total_delivered}/100"
        );
        assert!(total_retx > 0, "faults injected but nothing retransmitted");
    }

    #[test]
    fn harsh_faults_terminate_and_report() {
        // 15%/15%: deliveries may fail, but the pump must terminate and
        // failures must be reported, not silently dropped.
        let mut pipe = FaultyPipe::seeded(FaultConfig::harsh(), 99);
        let mut server = SmtpServer::new("mx");
        let client = SmtpClient::new("out");
        let envs: Vec<Envelope> = (0..20).map(envelope).collect();
        let report = client.deliver_all(&mut pipe, &mut server, &envs);
        assert_eq!(report.delivered + report.failed.len(), 20);
    }

    #[test]
    fn delivery_is_deterministic_per_seed() {
        let run = |seed| {
            let mut pipe = FaultyPipe::seeded(FaultConfig::harsh(), seed);
            let mut server = SmtpServer::new("mx");
            let client = SmtpClient::new("out");
            let envs: Vec<Envelope> = (0..10).map(envelope).collect();
            let r = client.deliver_all(&mut pipe, &mut server, &envs);
            (r.delivered, r.retransmissions, r.recoveries, r.backoff_ms)
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn backoff_schedule_doubles_up_to_the_cap() {
        let b = BackoffSchedule {
            base_ms: 100,
            cap_ms: 1_000,
        };
        assert_eq!(b.delay_ms(0), 0);
        assert_eq!(b.delay_ms(1), 100);
        assert_eq!(b.delay_ms(2), 200);
        assert_eq!(b.delay_ms(3), 400);
        assert_eq!(b.delay_ms(4), 800);
        assert_eq!(b.delay_ms(5), 1_000, "capped");
        assert_eq!(b.delay_ms(40), 1_000, "stays capped");
        // Huge retry counts must not overflow the shift.
        assert_eq!(BackoffSchedule::default().delay_ms(u32::MAX), 32_000);
    }

    #[test]
    fn backoff_accrues_on_retransmissions_but_never_changes_outcomes() {
        let run = |backoff: BackoffSchedule| {
            let mut pipe = FaultyPipe::seeded(FaultConfig::harsh(), 17);
            let mut server = SmtpServer::new("mx");
            let client = SmtpClient {
                backoff,
                ..SmtpClient::new("out")
            };
            let envs: Vec<Envelope> = (0..10).map(envelope).collect();
            client.deliver_all(&mut pipe, &mut server, &envs)
        };
        let default = run(BackoffSchedule::default());
        assert!(default.retransmissions > 0, "harsh wire must retransmit");
        assert!(default.backoff_ms > 0, "retransmissions must accrue waits");
        // The schedule is pure accounting: a different schedule changes only
        // the virtual wait, never what was delivered or retried.
        let slow = run(BackoffSchedule {
            base_ms: 5_000,
            cap_ms: 60_000,
        });
        assert_eq!(default.delivered, slow.delivered);
        assert_eq!(default.failed, slow.failed);
        assert_eq!(default.retransmissions, slow.retransmissions);
        assert!(slow.backoff_ms > default.backoff_ms);
    }

    #[test]
    fn multi_recipient_envelope() {
        let mut pipe = FaultyPipe::reliable();
        let mut server = SmtpServer::new("mx");
        let client = SmtpClient::new("out");
        let env = Envelope {
            mail_from: "hr@corp".into(),
            rcpt_to: vec!["u1@corp".into(), "u2@corp".into(), "u3@corp".into()],
            email: Email::builder().body("all hands").build(),
        };
        let report = client.deliver_all(&mut pipe, &mut server, &[env]);
        assert_eq!(report.delivered, 1);
        match &server.take_events()[0] {
            crate::server::ServerEvent::MessageAccepted(m) => {
                assert_eq!(m.rcpt_to.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }
}
