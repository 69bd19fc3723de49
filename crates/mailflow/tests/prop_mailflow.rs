//! Property tests for the mailflow substrate: framing, grammar, and the
//! delivery pump must hold their contracts for arbitrary inputs and
//! arbitrary fault behaviour.

use proptest::prelude::*;
use sb_core::{
    AttackKind, CampaignSpec, DictionaryAttack, DictionaryKind, Intensity, MessageRef,
};
use sb_email::Email;
use sb_email::Label;
use sb_mailflow::{
    dot_stuff, dot_unstuff, AttackPlan, Command, DefensePolicy, Envelope, FaultConfig, FaultEvent,
    FaultyPipe, Folder, LineCodec, MailOrg, Mailbox, OrgConfig, OrgReport, Reply, SmtpClient,
    SmtpServer, TrafficMix, UserModel, MAX_LINE_LEN,
};

/// A proptest-sized organization: small enough that a full multi-week
/// simulation (every message over the SMTP wire, weekly retrains) runs in
/// well under a second per shard count.
fn tiny_org(seed: u64, faulty: bool, defense: DefensePolicy, shards: usize) -> OrgConfig {
    let mut cfg = OrgConfig::small(seed);
    cfg.days = 10;
    cfg.retrain_every = 5;
    cfg.bootstrap_size = 120;
    cfg.corpus = sb_corpus::CorpusConfig::with_size(120, 0.5);
    cfg.traffic = TrafficMix {
        ham_per_day: 6,
        spam_per_day: 6,
    };
    if faulty {
        cfg.faults = FaultConfig {
            drop_chance: 0.02,
            corrupt_chance: 0.02,
        };
    }
    cfg.defense = defense;
    cfg.shards = shards;
    cfg
}

fn run_at(seed: u64, faulty: bool, defense: DefensePolicy, shards: usize) -> OrgReport {
    MailOrg::new(tiny_org(seed, faulty, defense, shards)).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The codec never panics, never emits a line longer than the limit,
    /// and never emits a line containing a terminator byte.
    #[test]
    fn line_codec_survives_arbitrary_bytes(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 0..20),
    ) {
        let mut codec = LineCodec::new();
        for chunk in &chunks {
            codec.feed(chunk);
            while let Some(item) = codec.next_line() {
                if let Ok(line) = item {
                    // Lossy UTF-8 expands each invalid byte to U+FFFD
                    // (3 bytes), so the char budget is the byte budget ×3.
                    prop_assert!(line.len() <= 3 * MAX_LINE_LEN);
                    prop_assert!(!line.contains('\n'));
                }
            }
        }
    }

    /// Byte-preserving framing: text split into chunks at arbitrary points
    /// reassembles into exactly the original lines.
    #[test]
    fn line_codec_reassembles_split_streams(
        lines in proptest::collection::vec("[a-zA-Z0-9 .:<>@-]{0,80}", 1..15),
        split in 1usize..7,
    ) {
        let wire: String = lines.iter().map(|l| format!("{l}\r\n")).collect();
        let bytes = wire.as_bytes();
        let mut codec = LineCodec::new();
        let mut got = Vec::new();
        for chunk in bytes.chunks(split) {
            codec.feed(chunk);
            while let Some(item) = codec.next_line() {
                got.push(item.expect("short ASCII lines never overflow"));
            }
        }
        prop_assert_eq!(got, lines);
    }

    /// Dot-stuffing round-trips any body (after newline normalization,
    /// which dot_stuff performs by construction).
    #[test]
    fn dot_stuffing_roundtrips(body in "[ -~\n]{0,500}") {
        let normalized = body.replace("\r\n", "\n");
        let wire = dot_stuff(&normalized);
        // Every wire line is CRLF-terminated; the last is the lone dot.
        let mut lines: Vec<String> = wire
            .split("\r\n")
            .map(str::to_owned)
            .collect();
        let trailing = lines.pop();
        prop_assert_eq!(trailing.as_deref(), Some("")); // trailing CRLF
        let dot = lines.pop();
        prop_assert_eq!(dot.as_deref(), Some("."));
        // No line between DATA and the terminator is a bare dot.
        prop_assert!(lines.iter().all(|l| l != "."));
        prop_assert_eq!(dot_unstuff(&lines), normalized);
    }

    /// The command grammar round-trips every well-formed address.
    #[test]
    fn command_roundtrip_addresses(
        local in "[a-z][a-z0-9._-]{0,15}",
        domain in "[a-z][a-z0-9.-]{0,15}",
    ) {
        let addr = format!("{local}@{domain}");
        let rendered = Command::MailFrom(addr.clone()).render();
        prop_assert_eq!(Command::parse(&rendered), Ok(Command::MailFrom(addr.clone())));
        let rendered = Command::RcptTo(addr.clone()).render();
        prop_assert_eq!(Command::parse(&rendered), Ok(Command::RcptTo(addr)));
    }

    /// The server never panics and always answers commands with *some*
    /// reply, whatever line noise arrives outside DATA mode.
    #[test]
    fn server_total_on_arbitrary_lines(
        lines in proptest::collection::vec("[ -~]{0,120}", 0..40),
    ) {
        let mut server = SmtpServer::new("mx.fuzz");
        let mut saw_reply = false;
        for l in &lines {
            if let Some(r) = server.handle_line(l) {
                saw_reply = true;
                // Reply lines themselves must round-trip the reply grammar.
                prop_assert!(Reply::parse(&r.render()).is_some());
            }
        }
        // Unless every line landed in DATA mode (requires a precise command
        // prefix, which random lines essentially never produce), something
        // replied. Don't assert when `lines` is empty.
        if !lines.is_empty() {
            let _ = saw_reply; // soft property; hard asserts above
        }
        let _ = server.take_events();
    }

    /// Delivery accounting balances for any fault rates: every envelope is
    /// either delivered or reported failed, and the pump terminates.
    #[test]
    fn delivery_accounting_balances(
        drop_pct in 0u32..30,
        corrupt_pct in 0u32..30,
        seed in any::<u64>(),
        n_msgs in 1usize..8,
    ) {
        let mut pipe = FaultyPipe::seeded(
            FaultConfig {
                drop_chance: f64::from(drop_pct) / 100.0,
                corrupt_chance: f64::from(corrupt_pct) / 100.0,
            },
            seed,
        );
        let mut server = SmtpServer::new("mx");
        let client = SmtpClient::new("out");
        let envs: Vec<Envelope> = (0..n_msgs)
            .map(|i| {
                Envelope::to_one(
                    format!("s{i}@a"),
                    "v@corp",
                    Email::builder().body(format!("msg {i}\nsecond line")).build(),
                )
            })
            .collect();
        let report = client.deliver_all(&mut pipe, &mut server, &envs);
        prop_assert_eq!(report.delivered + report.failed.len(), n_msgs);
        // Server-side acceptances can exceed client-side confirmations
        // (lost 250s) but never the number of envelopes times attempts.
        let accepted = server
            .take_events()
            .into_iter()
            .filter(|e| matches!(e, sb_mailflow::ServerEvent::MessageAccepted(_)))
            .count();
        prop_assert!(accepted >= report.delivered);
    }

    /// On a reliable pipe, delivery of a batch is lossless and
    /// content-preserving for arbitrary printable bodies: every envelope
    /// is delivered, and the server accepts each body intact, in order.
    #[test]
    fn reliable_delivery_preserves_content(
        bodies in proptest::collection::vec("[ -~\n]{0,300}", 1..21),
    ) {
        let mut pipe = FaultyPipe::reliable();
        let mut server = SmtpServer::new("mx");
        let client = SmtpClient::new("out");
        let envs: Vec<Envelope> = bodies
            .iter()
            .enumerate()
            .map(|(i, body)| {
                let email = Email::builder().subject("prop").body(body.clone()).build();
                Envelope::to_one(format!("s{i}@b"), "c@d", email)
            })
            .collect();
        let report = client.deliver_all(&mut pipe, &mut server, &envs);
        prop_assert_eq!(report.delivered, envs.len());
        prop_assert!(report.failed.is_empty());
        let got: Vec<_> = server
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                sb_mailflow::ServerEvent::MessageAccepted(m) => Some(m),
                _ => None,
            })
            .collect();
        prop_assert_eq!(got.len(), bodies.len());
        for (i, (got, body)) in got.iter().zip(&bodies).enumerate() {
            prop_assert_eq!(&got.mail_from, &format!("s{i}@b"));
            // Render normalizes trailing whitespace; compare trimmed.
            let expect = body.replace("\r\n", "\n");
            prop_assert_eq!(got.email.body().trim_end(), expect.trim_end());
        }
    }
}

proptest! {
    // Each case runs three full organization simulations; a handful of
    // cases already covers seeds, wire faults, and both defense shapes.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole invariant of the sharded mailflow: for arbitrary
    /// seeds, wire-fault settings, and retrain defenses, the weekly
    /// report is **bit-identical** for shard counts 1, 2, and 4 — every
    /// rate, counter, fault statistic, and RONI screening decision.
    #[test]
    fn weekly_reports_are_bit_identical_across_shard_counts(
        seed in any::<u64>(),
        faulty in any::<bool>(),
        roni in any::<bool>(),
    ) {
        let defense = if roni { DefensePolicy::Roni } else { DefensePolicy::None };
        let baseline = run_at(seed, faulty, defense, 1);
        for shards in [2usize, 4] {
            let sharded = run_at(seed, faulty, defense, shards);
            prop_assert_eq!(
                &baseline,
                &sharded,
                "shards={} diverged from the single-shard report",
                shards
            );
        }
    }

    /// The scenario-engine extension of the invariant: two *overlapping*
    /// campaigns (different dictionaries, staggered windows, one
    /// targeted) over a *skewed* per-user traffic mix still produce
    /// bit-identical weekly reports for shard counts 1, 2, and 4 — with
    /// and without RONI screening the merged pool.
    #[test]
    fn overlapping_campaigns_are_bit_identical_across_shard_counts(
        seed in any::<u64>(),
        roni in any::<bool>(),
        stagger in 1u32..5,
    ) {
        let defense = if roni { DefensePolicy::Roni } else { DefensePolicy::None };
        let build = |shards: usize| {
            let mut cfg = tiny_org(seed, false, defense, shards);
            // Heterogeneous per-user rates (same 12/day organization-wide
            // volume as tiny_org, skewed across the 5 users).
            cfg.user_traffic = vec![
                TrafficMix { ham_per_day: 3, spam_per_day: 0 },
                TrafficMix { ham_per_day: 0, spam_per_day: 3 },
                TrafficMix { ham_per_day: 1, spam_per_day: 1 },
                TrafficMix { ham_per_day: 2, spam_per_day: 1 },
                TrafficMix { ham_per_day: 0, spam_per_day: 1 },
            ];
            // Campaign A: targeted Usenet burst over the first week.
            let mut early = AttackPlan::new(
                1,
                3,
                Box::new(DictionaryAttack::new(DictionaryKind::UsenetTop(1_000))),
            );
            early.end_day = Some(7);
            early.targets = Some(vec![0, 2]);
            // Campaign B: open-ended flood over a different dictionary,
            // starting mid-window, so the two overlap on days
            // `1 + stagger ..= 7`. (A Usenet truncation, not the full
            // Aspell lexicon: 98k-word bodies would dominate the suite's
            // runtime without adding shard-invariance coverage.)
            let late = AttackPlan::new(
                1 + stagger,
                2,
                Box::new(DictionaryAttack::new(DictionaryKind::UsenetTop(2_500))),
            );
            cfg.attacks = vec![early, late];
            MailOrg::new(cfg).run()
        };
        let baseline = build(1);
        for shards in [2usize, 4] {
            let sharded = build(shards);
            prop_assert_eq!(
                &baseline,
                &sharded,
                "overlapping campaigns diverged at shards={}",
                shards
            );
        }
    }

    /// Campaign API v2 extension of the invariant: a *ramped focused*
    /// campaign (declaratively named target, donor headers, linear
    /// intensity) overlapping a *bursty ham-chaff* campaign — built
    /// through the fallible `OrgConfig::build_campaigns` path — still
    /// produces bit-identical weekly reports for shard counts 1, 2, and
    /// 4, with and without RONI.
    #[test]
    fn ramped_and_focused_campaigns_are_bit_identical_across_shard_counts(
        seed in any::<u64>(),
        roni in any::<bool>(),
        ramp_from in 1u32..4,
        ramp_to in 0u32..6,
        // tiny_org: traffic 6/6 over 5 users -> user 0 gets 2 ham/day,
        // so indices 0..20 resolve over the 10 simulated days.
        target_ham in 0u32..20,
    ) {
        let defense = if roni { DefensePolicy::Roni } else { DefensePolicy::None };
        let campaigns = vec![
            CampaignSpec {
                attack: AttackKind::Focused {
                    target: MessageRef { user: 0, nth_ham: target_ham },
                    guess_pct: 50,
                },
                start_day: 1,
                end_day: Some(8),
                intensity: Intensity::LinearRamp { from: ramp_from, to: ramp_to },
                targets: Some(vec![0, 2]),
            },
            CampaignSpec {
                attack: AttackKind::HamChaff { campaign_words: 10 },
                start_day: 2,
                end_day: None,
                intensity: Intensity::Bursts { period: 3, on_days: 1, per_day: 3 },
                targets: None,
            },
        ];
        let build = |shards: usize| {
            let mut cfg = tiny_org(seed, false, defense, shards);
            cfg.attacks = cfg
                .build_campaigns(&campaigns)
                .expect("declarations resolve against tiny_org");
            MailOrg::new(cfg).run()
        };
        let baseline = build(1);
        for shards in [2usize, 4] {
            let sharded = build(shards);
            prop_assert_eq!(
                &baseline,
                &sharded,
                "ramped + focused campaign mix diverged at shards={}",
                shards
            );
        }
    }

    /// The fault-plan tentpole invariant: a full chaos plan — a pipe-fault
    /// ramp feeding the deferred queue, a mid-period node crash, a mailbox
    /// loss, and an injected retrain failure (checkpoint fallback, stale
    /// week) all active at once — still produces bit-identical reports for
    /// shard counts 1, 2, and 4, and the accounting identity
    /// `delivered + failed + bounced + deferred == offered` holds.
    #[test]
    fn chaos_plans_are_bit_identical_across_shard_counts(
        seed in any::<u64>(),
        roni in any::<bool>(),
        crash_day in 2u32..5,
        peak_pct in 20u32..40,
    ) {
        let defense = if roni { DefensePolicy::Roni } else { DefensePolicy::None };
        let build = |shards: usize| {
            let mut cfg = tiny_org(seed, true, defense, shards);
            cfg.fault_plan.events = vec![
                FaultEvent::PipeFaults {
                    start_day: 3,
                    end_day: 7,
                    from: FaultConfig { drop_chance: 0.1, corrupt_chance: 0.05 },
                    to: FaultConfig {
                        drop_chance: f64::from(peak_pct) / 100.0,
                        corrupt_chance: 0.05,
                    },
                },
                FaultEvent::ShardCrash { day: crash_day, user: 1 },
                FaultEvent::MailboxLoss { day: 6, user: 2 },
                FaultEvent::RetrainFailure { week: 1 },
            ];
            MailOrg::new(cfg).run()
        };
        let baseline = build(1);
        let offered: usize = baseline.weeks.iter().map(|w| w.offered).sum();
        prop_assert_eq!(
            baseline.total_delivered
                + baseline.total_failed
                + baseline.total_bounced
                + baseline.total_deferred,
            offered,
            "chaos must never lose a message"
        );
        prop_assert!(
            baseline.weeks[0].recovered_from_checkpoint && baseline.weeks[1].degraded,
            "the injected retrain failure must surface in the report"
        );
        for shards in [2usize, 4] {
            let sharded = build(shards);
            prop_assert_eq!(
                &baseline,
                &sharded,
                "chaos plan diverged at shards={}",
                shards
            );
        }
    }

    /// The week report's §2.1 costs come from counts kept as mail is
    /// classified, never from the mailboxes. Recount each week from the
    /// users' mailboxes instead (messages whose delivery day falls in the
    /// week) and require the same costs, usefulness verdict and verdict
    /// rates, at shard counts 1 and 2, over a harsh wire (redelivered
    /// mail lands on its redelivery day), a mailbox loss (bounces are in
    /// neither) and an attack that misroutes ham after the first retrain.
    #[test]
    fn week_costs_match_the_mailboxes(
        seed in any::<u64>(),
        roni in any::<bool>(),
    ) {
        let defense = if roni { DefensePolicy::Roni } else { DefensePolicy::None };
        let user = UserModel::default();
        for shards in [1usize, 2] {
            let mut cfg = tiny_org(seed, true, defense, shards);
            cfg.faults = FaultConfig::harsh();
            cfg.attacks = vec![AttackPlan::new(
                2,
                4,
                Box::new(DictionaryAttack::new(DictionaryKind::UsenetTop(2_000))),
            )];
            cfg.fault_plan.events = vec![FaultEvent::MailboxLoss { day: 4, user: 2 }];
            let users = cfg.users.clone();
            let (every, days) = (cfg.retrain_every, cfg.days);
            let mut org = MailOrg::new(cfg);
            let mut redelivered = 0;
            while let Some(week) = org.step_week().cloned() {
                redelivered += week.redelivered;
                let in_week = (week.week - 1) * every + 1..=(week.week * every).min(days);
                let mut week_box = Mailbox::new();
                for name in &users {
                    let mbox = org.mailbox(name).expect("mailbox losses bounce, never remove");
                    for folder in [Folder::Inbox, Folder::Unsure, Folder::Spam] {
                        for m in mbox.folder(folder).iter().filter(|m| in_week.contains(&m.day)) {
                            week_box.deliver(m.email.clone(), m.truth, m.verdict, m.day);
                        }
                    }
                }
                prop_assert_eq!(
                    week_box.len(),
                    week.accepted - week.bounced,
                    "week {} at shards={}: every delivered message is in a mailbox",
                    week.week,
                    shards
                );
                let counts = week_box.counts();
                prop_assert_eq!(week.costs, user.costs(&counts), "week {} shards={}", week.week, shards);
                prop_assert_eq!(week.filter_useless, user.filter_useless(&counts, 0.2));
                let ham = week_box.count(Folder::Inbox, Label::Ham)
                    + week_box.count(Folder::Unsure, Label::Ham)
                    + week_box.count(Folder::Spam, Label::Ham);
                let misrouted = week_box.count(Folder::Unsure, Label::Ham)
                    + week_box.count(Folder::Spam, Label::Ham);
                let expect = if ham == 0 { 0.0 } else { misrouted as f64 / ham as f64 };
                prop_assert_eq!(week.ham_misrouted.to_bits(), expect.to_bits());
            }
            prop_assert!(redelivered > 0, "a harsh wire must exercise redelivery");
        }
    }

    /// Checkpointed recovery: running a chaos simulation to a week
    /// boundary, checkpointing, dropping the org, and resuming a fresh one
    /// from the checkpoint finishes with a report byte-identical to the
    /// uninterrupted run — deferred queue, quarantine buffer, mailboxes,
    /// and the serving filter all survive the round trip. Every defense
    /// runs: week 1's retrain installs the first retrained (under the
    /// threshold defenses, recalibrated) filter, week 2's model is
    /// corrupt and week 3's retrain dies, so that filter serves through
    /// both kinds of fallback, and the checkpoint is taken either before
    /// them or in the stale week between them.
    #[test]
    fn checkpoint_resume_matches_uninterrupted_run(
        seed in any::<u64>(),
        at in 1u32..3,
        shards in 1usize..4,
    ) {
        for defense in [
            DefensePolicy::None,
            DefensePolicy::Roni,
            DefensePolicy::DynamicThreshold { strict: false },
            DefensePolicy::DynamicThreshold { strict: true },
            DefensePolicy::RoniPlusThreshold,
        ] {
            let make = || {
                let mut cfg = tiny_org(seed, false, defense, shards);
                cfg.days = 15;
                cfg.faults = FaultConfig::harsh();
                cfg.fault_plan.events = vec![
                    FaultEvent::ShardCrash { day: 2, user: 0 },
                    FaultEvent::ModelCorruption { week: 2 },
                    FaultEvent::RetrainFailure { week: 3 },
                ];
                cfg
            };
            let uninterrupted = MailOrg::new(make()).run();
            let mut org = MailOrg::new(make());
            for _ in 0..at {
                org.step_week().expect("a week before the checkpoint");
            }
            let ckpt = org.checkpoint();
            drop(org);
            let resumed = MailOrg::restore(make(), &ckpt)
                .expect("checkpoint matches the rebuilt config")
                .run();
            prop_assert_eq!(
                &resumed,
                &uninterrupted,
                "resume diverged from straight run under {:?}",
                defense
            );
        }
    }
}
