//! Header tokenization.
//!
//! SpamBayes mines specific headers with per-header token prefixes so that,
//! e.g., the word "money" in a subject line and in a body are distinct
//! evidence. The paper's attacks deliberately *cannot* exploit most of this:
//! attack emails carry empty headers (dictionary attack) or headers copied
//! from a random spam (focused attack) — see §2.2 / §4.1.

use crate::options::TokenizerOptions;
use crate::pieces::Pieces;
use crate::word::{split_address, tokenize_word, trim_punct};
use sb_email::Email;

/// Headers treated as address lists, lowercased (their token prefix).
const ADDRESS_HEADERS: [&str; 5] = ["from", "to", "cc", "sender", "reply-to"];

/// Emit all header-derived tokens for a message.
pub(crate) fn tokenize_headers(email: &Email, opts: &TokenizerOptions, out: &mut Pieces) {
    for (name, value) in email.headers() {
        let is = |h: &str| name.eq_ignore_ascii_case(h);
        if is("subject") {
            if opts.tokenize_subject {
                for word in value.split_whitespace() {
                    tokenize_word("subject:", word, opts, out);
                }
            }
        } else if is("message-id") {
            if opts.tokenize_message_id {
                match value.trim_matches(['<', '>']).split_once('@') {
                    Some((_, domain)) => {
                        out.put("message-id:@");
                        out.put_folded(domain.trim_matches('>'), opts);
                    }
                    None => out.put("message-id:invalid"),
                }
                out.end();
            }
        } else if is("content-type") {
            if opts.tokenize_mailer_headers {
                let main = value.split(';').next().unwrap_or(value).trim();
                if !main.is_empty() {
                    out.put("content-type:");
                    out.put_folded(main, opts);
                    out.end();
                }
            }
        } else if is("x-mailer") {
            if opts.tokenize_mailer_headers {
                out.put("x-mailer:");
                out.put_folded(value.trim(), opts);
                out.end();
            }
        } else if is("received") {
            if opts.tokenize_received {
                for word in value.split_whitespace() {
                    let w = trim_punct(word);
                    if w.contains('.') && !w.contains('@') && w.len() >= 4 {
                        out.put("received:");
                        out.put_folded(w, opts);
                        out.end();
                    }
                }
            }
        } else if opts.tokenize_address_headers {
            if let Some(lname) = ADDRESS_HEADERS.iter().find(|h| is(h)) {
                tokenize_address_header(lname, value, opts, out);
            }
        }
    }
}

/// `From: "Display Name" <local@domain>` →
/// `from:name:display`, `from:name:name`, `from:addr:domain`.
fn tokenize_address_header(lname: &str, value: &str, opts: &TokenizerOptions, out: &mut Pieces) {
    for part in value.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        // Extract <addr> if present; the rest is display name.
        let (display, addr) = match (part.find('<'), part.rfind('>')) {
            (Some(l), Some(r)) if l < r => (&part[..l], &part[l + 1..r]),
            _ => ("", part),
        };
        if let Some((_local, domain)) = split_address(addr.trim()) {
            out.put(lname);
            out.put(":addr:");
            out.put_folded(domain, opts);
            out.end();
        }
        for word in display.split_whitespace() {
            let w = trim_punct(word);
            if !w.is_empty() {
                out.put(lname);
                out.put(":name:");
                out.put_folded(w, opts);
                out.end();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_email::Email;

    fn tokens_with(email: &Email, opts: &TokenizerOptions) -> Vec<String> {
        let mut out = Pieces::default();
        tokenize_headers(email, opts, &mut out);
        out.iter().map(str::to_owned).collect()
    }

    fn tokens(email: &Email) -> Vec<String> {
        tokens_with(email, &TokenizerOptions::default())
    }

    #[test]
    fn subject_words_prefixed() {
        let e = Email::builder().subject("Cheap Pills Today").build();
        let t = tokens(&e);
        assert!(t.contains(&"subject:cheap".to_owned()));
        assert!(t.contains(&"subject:pills".to_owned()));
        assert!(t.contains(&"subject:today".to_owned()));
    }

    #[test]
    fn subject_word_rules_apply() {
        // Short word dropped, long word becomes skip.
        let e = Email::builder().subject("ab supercalifragilistic").build();
        let t = tokens(&e);
        assert!(!t.iter().any(|x| x.contains(":ab")));
        assert!(t.contains(&"subject:skip:s 20".to_owned()));
    }

    #[test]
    fn from_header_cracked() {
        let e = Email::builder()
            .from_addr("\"Eve Attacker\" <eve@evil.example>")
            .build();
        let t = tokens(&e);
        assert!(t.contains(&"from:addr:evil.example".to_owned()));
        assert!(t.contains(&"from:name:eve".to_owned()));
        assert!(t.contains(&"from:name:attacker".to_owned()));
    }

    #[test]
    fn bare_address_in_to_header() {
        let e = Email::builder().to_addr("victim@corp.example").build();
        let t = tokens(&e);
        assert!(t.contains(&"to:addr:corp.example".to_owned()));
    }

    #[test]
    fn multiple_recipients_split_on_comma() {
        let e = Email::builder()
            .to_addr("a@x.org, b@y.org")
            .build();
        let t = tokens(&e);
        assert!(t.contains(&"to:addr:x.org".to_owned()));
        assert!(t.contains(&"to:addr:y.org".to_owned()));
    }

    #[test]
    fn message_id_domain_token() {
        let e = Email::builder()
            .header("Message-Id", "<abc123@mail.example.org>")
            .build();
        let t = tokens(&e);
        assert!(t.contains(&"message-id:@mail.example.org".to_owned()));
    }

    #[test]
    fn invalid_message_id_noted() {
        let e = Email::builder().header("Message-Id", "garbage").build();
        assert!(tokens(&e).contains(&"message-id:invalid".to_owned()));
    }

    #[test]
    fn content_type_main_value_only() {
        let e = Email::builder()
            .header("Content-Type", "text/HTML; charset=utf-8")
            .build();
        let t = tokens(&e);
        assert!(t.contains(&"content-type:text/html".to_owned()));
        assert!(!t.iter().any(|x| x.contains("charset")));
    }

    #[test]
    fn received_skipped_by_default() {
        let e = Email::builder()
            .header("Received", "from relay.example.org by mx.corp.example")
            .build();
        assert!(tokens(&e).is_empty());
    }

    #[test]
    fn received_hosts_when_enabled() {
        let opts = TokenizerOptions {
            tokenize_received: true,
            ..Default::default()
        };
        let e = Email::builder()
            .header("Received", "from relay.example.org by mx.corp.example")
            .build();
        let out = tokens_with(&e, &opts);
        assert!(out.contains(&"received:relay.example.org".to_owned()));
        assert!(out.contains(&"received:mx.corp.example".to_owned()));
    }

    #[test]
    fn empty_headers_produce_no_tokens() {
        assert!(tokens(&Email::new()).is_empty());
    }

    #[test]
    fn header_tokenization_fully_disableable() {
        let e = Email::builder()
            .subject("Hello World")
            .from_addr("a@b.c")
            .build();
        assert!(tokens_with(&e, &TokenizerOptions::body_only()).is_empty());
    }
}
