//! Per-user mailboxes and the §2.1 reading model.
//!
//! The paper's user-cost argument rests on how clients *route* the three
//! verdicts: spam to a "Spam-High" folder the user essentially never reads,
//! unsure to a "Spam-Low" folder the user must grudgingly skim to avoid
//! missing real mail, ham to the inbox. [`Mailbox`] performs the routing;
//! [`UserModel`] turns folder contents — counted into a [`FolderCounts`]
//! matrix — into the costs the paper reasons about (missed ham, spam
//! faced, time wasted in the unsure folder).

use sb_email::{Email, Label};
use sb_filter::Verdict;
use serde::{Deserialize, Serialize};

/// The three folders of the §2.1 client model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Folder {
    /// Delivered normally.
    Inbox,
    /// "Spam-Low": the unsure holding pen.
    Unsure,
    /// "Spam-High": filtered away.
    Spam,
}

impl Folder {
    /// Where a verdict routes a message.
    pub fn for_verdict(v: Verdict) -> Folder {
        match v {
            Verdict::Ham => Folder::Inbox,
            Verdict::Unsure => Folder::Unsure,
            Verdict::Spam => Folder::Spam,
        }
    }
}

/// Message counts by folder × ground truth: everything the §2.1 cost
/// model reads. Counts add, so per-shard matrices merge by summation in
/// any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FolderCounts([[usize; 2]; 3]);

impl FolderCounts {
    fn cell(folder: Folder, truth: Label) -> (usize, usize) {
        let f = match folder {
            Folder::Inbox => 0,
            Folder::Unsure => 1,
            Folder::Spam => 2,
        };
        let t = match truth {
            Label::Ham => 0,
            Label::Spam => 1,
        };
        (f, t)
    }

    /// Count one message of ground truth `truth` routed to `folder`.
    pub fn record(&mut self, folder: Folder, truth: Label) {
        let (f, t) = Self::cell(folder, truth);
        self.0[f][t] += 1;
    }

    /// Messages in `folder` whose ground truth is `truth`.
    pub fn get(&self, folder: Folder, truth: Label) -> usize {
        let (f, t) = Self::cell(folder, truth);
        self.0[f][t]
    }

    /// Messages of ground truth `truth` across all three folders.
    pub fn total(&self, truth: Label) -> usize {
        [Folder::Inbox, Folder::Unsure, Folder::Spam]
            .iter()
            .map(|&f| self.get(f, truth))
            .sum()
    }

    /// Add another matrix's counts into this one.
    pub fn absorb(&mut self, other: FolderCounts) {
        for (row, other_row) in self.0.iter_mut().zip(other.0) {
            for (n, m) in row.iter_mut().zip(other_row) {
                *n += m;
            }
        }
    }
}

/// A delivered message with its routing and ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredMessage {
    /// The message.
    pub email: Email,
    /// Ground-truth label (known to the simulation, not the user).
    pub truth: Label,
    /// The filter's verdict at delivery time.
    pub verdict: Verdict,
    /// Simulation day the message arrived.
    pub day: u32,
}

/// One user's mail store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Mailbox {
    inbox: Vec<StoredMessage>,
    unsure: Vec<StoredMessage>,
    spam: Vec<StoredMessage>,
}

impl Mailbox {
    /// An empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Route a classified message into its folder.
    pub fn deliver(&mut self, email: Email, truth: Label, verdict: Verdict, day: u32) {
        let stored = StoredMessage {
            email,
            truth,
            verdict,
            day,
        };
        match Folder::for_verdict(verdict) {
            Folder::Inbox => self.inbox.push(stored),
            Folder::Unsure => self.unsure.push(stored),
            Folder::Spam => self.spam.push(stored),
        }
    }

    /// Messages in a folder.
    pub fn folder(&self, f: Folder) -> &[StoredMessage] {
        match f {
            Folder::Inbox => &self.inbox,
            Folder::Unsure => &self.unsure,
            Folder::Spam => &self.spam,
        }
    }

    /// Total messages stored.
    pub fn len(&self) -> usize {
        self.inbox.len() + self.unsure.len() + self.spam.len()
    }

    /// True when nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of messages in `folder` whose ground truth is `truth`.
    pub fn count(&self, folder: Folder, truth: Label) -> usize {
        self.folder(folder).iter().filter(|m| m.truth == truth).count()
    }

    /// Remove everything (start of a new evaluation window).
    pub fn clear(&mut self) {
        self.inbox.clear();
        self.unsure.clear();
        self.spam.clear();
    }

    /// The folder × truth count matrix of everything stored.
    pub fn counts(&self) -> FolderCounts {
        let mut counts = FolderCounts::default();
        for folder in [Folder::Inbox, Folder::Unsure, Folder::Spam] {
            for m in self.folder(folder) {
                counts.record(folder, m.truth);
            }
        }
        counts
    }
}

/// How a user reads their folders (§2.1's behavioural assumptions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserModel {
    /// Whether the user skims the unsure folder at all.
    pub reads_unsure: bool,
    /// Whether the user ever checks the spam folder (the paper: "rarely
    /// (if ever)"; default false).
    pub reads_spam: bool,
}

impl Default for UserModel {
    fn default() -> Self {
        Self {
            reads_unsure: true,
            reads_spam: false,
        }
    }
}

/// The user-visible costs of a mailbox state under a reading model. All
/// counts are message counts over whatever window the count matrix covers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserCosts {
    /// Ham the user never sees (in spam always; in unsure too if unread).
    pub ham_lost: usize,
    /// Ham the user only finds by skimming the unsure folder.
    pub ham_delayed: usize,
    /// Spam the user is exposed to (inbox, plus unsure if read).
    pub spam_faced: usize,
    /// Total messages the user must skim in the unsure folder.
    pub unsure_burden: usize,
}

impl UserModel {
    /// Evaluate the §2.1 costs over a folder × truth count matrix
    /// ([`Mailbox::counts`] for one mailbox).
    pub fn costs(&self, counts: &FolderCounts) -> UserCosts {
        let ham_in_spam = counts.get(Folder::Spam, Label::Ham);
        let ham_in_unsure = counts.get(Folder::Unsure, Label::Ham);
        let spam_in_inbox = counts.get(Folder::Inbox, Label::Spam);
        let spam_in_unsure = counts.get(Folder::Unsure, Label::Spam);
        let spam_in_spam = counts.get(Folder::Spam, Label::Spam);

        let mut costs = UserCosts {
            ham_lost: ham_in_spam,
            ham_delayed: 0,
            spam_faced: spam_in_inbox,
            unsure_burden: 0,
        };
        if self.reads_unsure {
            costs.ham_delayed += ham_in_unsure;
            costs.spam_faced += spam_in_unsure;
            costs.unsure_burden = ham_in_unsure + spam_in_unsure;
        } else {
            costs.ham_lost += ham_in_unsure;
        }
        if self.reads_spam {
            // Reading spam-high recovers lost ham but faces all the spam.
            costs.ham_lost -= ham_in_spam;
            costs.ham_delayed += ham_in_spam;
            costs.spam_faced += spam_in_spam;
        }
        costs
    }

    /// The paper's "filter has become useless" predicate: the user gains no
    /// time-saving when the share of incoming mail they still have to look
    /// at (inbox + unsure if read) approaches what no filter would give
    /// them, or when real mail is being lost.
    pub fn filter_useless(&self, counts: &FolderCounts, loss_tolerance: f64) -> bool {
        let total_ham = counts.total(Label::Ham);
        if total_ham == 0 {
            return false;
        }
        let costs = self.costs(counts);
        let misrouted = costs.ham_lost + costs.ham_delayed;
        misrouted as f64 / total_ham as f64 > loss_tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn email(i: usize) -> Email {
        Email::builder().body(format!("message {i}")).build()
    }

    fn mixed_mailbox() -> Mailbox {
        let mut m = Mailbox::new();
        // 4 ham in inbox, 2 ham in unsure, 1 ham in spam,
        // 1 spam in inbox, 3 spam in unsure, 5 spam in spam.
        for i in 0..4 {
            m.deliver(email(i), Label::Ham, Verdict::Ham, 1);
        }
        for i in 4..6 {
            m.deliver(email(i), Label::Ham, Verdict::Unsure, 1);
        }
        m.deliver(email(6), Label::Ham, Verdict::Spam, 1);
        m.deliver(email(7), Label::Spam, Verdict::Ham, 2);
        for i in 8..11 {
            m.deliver(email(i), Label::Spam, Verdict::Unsure, 2);
        }
        for i in 11..16 {
            m.deliver(email(i), Label::Spam, Verdict::Spam, 2);
        }
        m
    }

    #[test]
    fn routing_follows_verdicts() {
        let m = mixed_mailbox();
        assert_eq!(m.folder(Folder::Inbox).len(), 5);
        assert_eq!(m.folder(Folder::Unsure).len(), 5);
        assert_eq!(m.folder(Folder::Spam).len(), 6);
        assert_eq!(m.len(), 16);
    }

    #[test]
    fn counts_by_truth() {
        let m = mixed_mailbox();
        assert_eq!(m.count(Folder::Inbox, Label::Ham), 4);
        assert_eq!(m.count(Folder::Inbox, Label::Spam), 1);
        assert_eq!(m.count(Folder::Unsure, Label::Ham), 2);
        assert_eq!(m.count(Folder::Spam, Label::Ham), 1);
    }

    #[test]
    fn default_user_costs() {
        let m = mixed_mailbox();
        let costs = UserModel::default().costs(&m.counts());
        // Loses the 1 ham in spam; skims unsure so the 2 ham there are
        // delayed, not lost; faces 1 inbox spam + 3 unsure spam.
        assert_eq!(costs.ham_lost, 1);
        assert_eq!(costs.ham_delayed, 2);
        assert_eq!(costs.spam_faced, 4);
        assert_eq!(costs.unsure_burden, 5);
    }

    #[test]
    fn non_unsure_reader_loses_more_ham() {
        let m = mixed_mailbox();
        let user = UserModel {
            reads_unsure: false,
            reads_spam: false,
        };
        let costs = user.costs(&m.counts());
        assert_eq!(costs.ham_lost, 3); // spam-folder ham + unread unsure ham
        assert_eq!(costs.spam_faced, 1); // inbox spam only
        assert_eq!(costs.unsure_burden, 0);
    }

    #[test]
    fn spam_folder_reader_recovers_ham_at_a_price() {
        let m = mixed_mailbox();
        let user = UserModel {
            reads_unsure: true,
            reads_spam: true,
        };
        let costs = user.costs(&m.counts());
        assert_eq!(costs.ham_lost, 0);
        assert_eq!(costs.ham_delayed, 3);
        // Faces every spam in the store.
        assert_eq!(costs.spam_faced, 9);
    }

    #[test]
    fn useless_predicate_tracks_misrouted_ham() {
        let mut m = Mailbox::new();
        for i in 0..10 {
            m.deliver(email(i), Label::Ham, Verdict::Ham, 1);
        }
        let user = UserModel::default();
        assert!(!user.filter_useless(&m.counts(), 0.2));
        // Push 8 more ham into unsure: 8/18 misrouted > 20%.
        for i in 10..18 {
            m.deliver(email(i), Label::Ham, Verdict::Unsure, 1);
        }
        assert!(user.filter_useless(&m.counts(), 0.2));
    }

    #[test]
    fn empty_mailbox_is_never_useless() {
        let m = Mailbox::new();
        assert!(!UserModel::default().filter_useless(&m.counts(), 0.0));
        assert!(m.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut m = mixed_mailbox();
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn counts_absorb_merges_costs() {
        let whole = mixed_mailbox();
        // Split the same deliveries across two boxes, then absorb counts.
        let mut a = Mailbox::new();
        let mut b = Mailbox::new();
        for folder in [Folder::Inbox, Folder::Unsure, Folder::Spam] {
            for (i, msg) in whole.folder(folder).iter().enumerate() {
                let target = if i % 2 == 0 { &mut a } else { &mut b };
                target.deliver(msg.email.clone(), msg.truth, msg.verdict, msg.day);
            }
        }
        let mut merged = a.counts();
        merged.absorb(b.counts());
        assert_eq!(merged, whole.counts());
        assert_eq!(merged.total(Label::Ham) + merged.total(Label::Spam), whole.len());
        let user = UserModel::default();
        assert_eq!(user.costs(&merged), user.costs(&whole.counts()));
    }
}
