//! The SMTP-lite command and reply grammar.
//!
//! A deliberately small dialect — HELO, MAIL, RCPT, DATA, RSET, NOOP, VRFY,
//! QUIT — which is all an attacker needs to inject training data under the
//! paper's contamination assumption, and all the organization simulation
//! needs to move mail. Extensions (pipelining, TLS, AUTH, 8BITMIME) are
//! intentionally omitted; see DESIGN.md for the inventory.

use serde::{Deserialize, Serialize};

/// A client command, parsed from one wire line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// `HELO <domain>` — identify the client.
    Helo(String),
    /// `MAIL FROM:<reverse-path>` — start a transaction.
    MailFrom(String),
    /// `RCPT TO:<forward-path>` — add a recipient.
    RcptTo(String),
    /// `DATA` — begin message transfer.
    Data,
    /// `RSET` — abort the current transaction.
    Rset,
    /// `NOOP` — do nothing.
    Noop,
    /// `VRFY <string>` — verify an address.
    Vrfy(String),
    /// `QUIT` — close the session.
    Quit,
}

/// Why a line failed to parse as a command.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandError {
    /// The verb is not part of the dialect.
    UnknownVerb(String),
    /// The verb is known but its argument is malformed or missing.
    BadArgument(&'static str),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::UnknownVerb(v) => write!(f, "unknown command {v:?}"),
            CommandError::BadArgument(what) => write!(f, "bad argument: {what}"),
        }
    }
}

impl std::error::Error for CommandError {}

/// Extract `local@domain` from an angle-bracketed path, tolerating
/// surrounding whitespace. The empty reverse path `<>` (bounce sender) is
/// accepted for `MAIL FROM`.
fn parse_path(raw: &str, allow_empty: bool) -> Result<String, CommandError> {
    let raw = raw.trim();
    let inner = raw
        .strip_prefix('<')
        .and_then(|r| r.strip_suffix('>'))
        .ok_or(CommandError::BadArgument("path must be angle-bracketed"))?;
    if inner.is_empty() {
        return if allow_empty {
            Ok(String::new())
        } else {
            Err(CommandError::BadArgument("empty forward path"))
        };
    }
    let at = inner
        .find('@')
        .ok_or(CommandError::BadArgument("path missing @"))?;
    if at == 0 || at == inner.len() - 1 {
        return Err(CommandError::BadArgument("path missing local part or domain"));
    }
    if inner.chars().any(|c| c.is_whitespace() || c == '<' || c == '>') {
        return Err(CommandError::BadArgument("path contains whitespace"));
    }
    Ok(inner.to_owned())
}

impl Command {
    /// Parse one wire line (terminator already stripped).
    pub fn parse(line: &str) -> Result<Command, CommandError> {
        let line = line.trim_end();
        let (verb, rest) = match line.find(' ') {
            Some(i) => (&line[..i], line[i + 1..].trim()),
            None => (line, ""),
        };
        match verb.to_ascii_uppercase().as_str() {
            "HELO" | "EHLO" => {
                if rest.is_empty() {
                    Err(CommandError::BadArgument("HELO requires a domain"))
                } else {
                    Ok(Command::Helo(rest.to_owned()))
                }
            }
            "MAIL" => {
                let arg = rest
                    .strip_prefix("FROM:")
                    .or_else(|| rest.strip_prefix("from:"))
                    .or_else(|| rest.strip_prefix("From:"))
                    .ok_or(CommandError::BadArgument("MAIL requires FROM:<path>"))?;
                Ok(Command::MailFrom(parse_path(arg, true)?))
            }
            "RCPT" => {
                let arg = rest
                    .strip_prefix("TO:")
                    .or_else(|| rest.strip_prefix("to:"))
                    .or_else(|| rest.strip_prefix("To:"))
                    .ok_or(CommandError::BadArgument("RCPT requires TO:<path>"))?;
                Ok(Command::RcptTo(parse_path(arg, false)?))
            }
            "DATA" => Ok(Command::Data),
            "RSET" => Ok(Command::Rset),
            "NOOP" => Ok(Command::Noop),
            "VRFY" => {
                if rest.is_empty() {
                    Err(CommandError::BadArgument("VRFY requires an argument"))
                } else {
                    Ok(Command::Vrfy(rest.to_owned()))
                }
            }
            "QUIT" => Ok(Command::Quit),
            other => Err(CommandError::UnknownVerb(other.to_owned())),
        }
    }

    /// Render to a wire line (no terminator).
    pub fn render(&self) -> String {
        match self {
            Command::Helo(d) => format!("HELO {d}"),
            Command::MailFrom(p) => format!("MAIL FROM:<{p}>"),
            Command::RcptTo(p) => format!("RCPT TO:<{p}>"),
            Command::Data => "DATA".to_owned(),
            Command::Rset => "RSET".to_owned(),
            Command::Noop => "NOOP".to_owned(),
            Command::Vrfy(s) => format!("VRFY {s}"),
            Command::Quit => "QUIT".to_owned(),
        }
    }
}

/// SMTP reply codes used by the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplyCode {
    /// 220 — service ready (greeting).
    ServiceReady = 220,
    /// 221 — closing connection.
    Closing = 221,
    /// 250 — requested action completed.
    Ok = 250,
    /// 252 — cannot VRFY but will try delivery.
    CannotVrfy = 252,
    /// 354 — start mail input.
    StartMailInput = 354,
    /// 451 — local error, try again.
    LocalError = 451,
    /// 452 — too many recipients.
    TooManyRecipients = 452,
    /// 500 — syntax error / unknown command.
    SyntaxError = 500,
    /// 501 — bad argument.
    BadArgument = 501,
    /// 503 — bad sequence of commands.
    BadSequence = 503,
    /// 550 — mailbox unavailable.
    MailboxUnavailable = 550,
    /// 552 — message exceeds storage allocation.
    TooMuchData = 552,
}

impl ReplyCode {
    /// The numeric code.
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Whether the code is a positive completion/intermediate reply.
    pub fn is_positive(self) -> bool {
        self.code() < 400
    }
}

/// A server reply: code plus human-readable text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reply {
    /// The reply code.
    pub code: ReplyCode,
    /// Free-text explanation.
    pub text: String,
}

impl Reply {
    /// Build a reply.
    pub fn new(code: ReplyCode, text: impl Into<String>) -> Self {
        Self {
            code,
            text: text.into(),
        }
    }

    /// Render to a wire line (no terminator): the [`Display`] form.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Parse a reply line coming back from the server; unknown codes map to
    /// the closest semantic family so a corrupted digit degrades gracefully.
    pub fn parse(line: &str) -> Option<Reply> {
        let (code_str, text) = match line.find(' ') {
            Some(i) => (&line[..i], line[i + 1..].to_owned()),
            None => (line, String::new()),
        };
        let n: u16 = code_str.parse().ok()?;
        let code = match n {
            220 => ReplyCode::ServiceReady,
            221 => ReplyCode::Closing,
            250 => ReplyCode::Ok,
            252 => ReplyCode::CannotVrfy,
            354 => ReplyCode::StartMailInput,
            451 => ReplyCode::LocalError,
            452 => ReplyCode::TooManyRecipients,
            500 => ReplyCode::SyntaxError,
            501 => ReplyCode::BadArgument,
            503 => ReplyCode::BadSequence,
            550 => ReplyCode::MailboxUnavailable,
            552 => ReplyCode::TooMuchData,
            _ => return None,
        };
        Some(Reply { code, text })
    }
}

/// The wire line: `<code> <text>`.
impl std::fmt::Display for Reply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.code.code(), self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_roundtrip() {
        let cases = [
            Command::Helo("attacker.example".into()),
            Command::MailFrom("a@b.example".into()),
            Command::RcptTo("victim@corp.example".into()),
            Command::Data,
            Command::Rset,
            Command::Noop,
            Command::Vrfy("victim".into()),
            Command::Quit,
        ];
        for cmd in cases {
            let line = cmd.render();
            assert_eq!(Command::parse(&line), Ok(cmd), "line {line:?}");
        }
    }

    #[test]
    fn verbs_are_case_insensitive() {
        assert_eq!(Command::parse("helo x"), Ok(Command::Helo("x".into())));
        assert_eq!(
            Command::parse("mail from:<a@b>"),
            Ok(Command::MailFrom("a@b".into()))
        );
        assert_eq!(Command::parse("QuIt"), Ok(Command::Quit));
    }

    #[test]
    fn ehlo_is_accepted_as_helo() {
        assert_eq!(
            Command::parse("EHLO modern.example"),
            Ok(Command::Helo("modern.example".into()))
        );
    }

    #[test]
    fn empty_reverse_path_allowed_forward_rejected() {
        assert_eq!(Command::parse("MAIL FROM:<>"), Ok(Command::MailFrom(String::new())));
        assert!(matches!(
            Command::parse("RCPT TO:<>"),
            Err(CommandError::BadArgument(_))
        ));
    }

    #[test]
    fn malformed_paths_rejected() {
        for bad in [
            "MAIL FROM:a@b",          // no brackets
            "MAIL FROM:<ab>",         // no @
            "MAIL FROM:<@b>",         // empty local
            "MAIL FROM:<a@>",         // empty domain
            "RCPT TO:<a b@c>",        // whitespace
        ] {
            assert!(
                matches!(Command::parse(bad), Err(CommandError::BadArgument(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn unknown_verb_reported() {
        assert_eq!(
            Command::parse("STARTTLS"),
            Err(CommandError::UnknownVerb("STARTTLS".into()))
        );
    }

    #[test]
    fn reply_roundtrip() {
        for code in [
            ReplyCode::ServiceReady,
            ReplyCode::Ok,
            ReplyCode::StartMailInput,
            ReplyCode::SyntaxError,
            ReplyCode::TooMuchData,
        ] {
            let r = Reply::new(code, "details here");
            assert_eq!(Reply::parse(&r.render()), Some(r));
        }
    }

    #[test]
    fn reply_parse_rejects_garbage() {
        assert_eq!(Reply::parse("banana"), None);
        assert_eq!(Reply::parse("999 weird"), None);
        assert_eq!(Reply::parse(""), None);
    }

    #[test]
    fn positive_codes() {
        assert!(ReplyCode::Ok.is_positive());
        assert!(ReplyCode::StartMailInput.is_positive());
        assert!(!ReplyCode::SyntaxError.is_positive());
        assert!(!ReplyCode::LocalError.is_positive());
    }
}
