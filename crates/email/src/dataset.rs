//! A labelled email collection.

use crate::message::{Label, LabeledEmail};
use serde::{Deserialize, Serialize};

/// An ordered collection of labelled emails with cached class counts.
///
/// This is the unit the corpus generator produces and the experiment harness
/// splits into train/test folds. Splitting here is strictly index-based so
/// that all randomness stays in the caller's seeded RNG.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    emails: Vec<LabeledEmail>,
    n_ham: usize,
    n_spam: usize,
}

impl Dataset {
    /// Empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector of labelled messages.
    pub fn from_vec(emails: Vec<LabeledEmail>) -> Self {
        let n_ham = emails.iter().filter(|m| m.label == Label::Ham).count();
        let n_spam = emails.len() - n_ham;
        Self {
            emails,
            n_ham,
            n_spam,
        }
    }

    /// Append one message.
    pub fn push(&mut self, msg: LabeledEmail) {
        match msg.label {
            Label::Ham => self.n_ham += 1,
            Label::Spam => self.n_spam += 1,
        }
        self.emails.push(msg);
    }

    /// All messages in order.
    pub fn emails(&self) -> &[LabeledEmail] {
        &self.emails
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.emails.len()
    }

    /// True if there are no messages.
    pub fn is_empty(&self) -> bool {
        self.emails.is_empty()
    }

    /// Number of ham messages.
    pub fn n_ham(&self) -> usize {
        self.n_ham
    }

    /// Number of spam messages.
    pub fn n_spam(&self) -> usize {
        self.n_spam
    }

    /// Fraction of spam (0 for an empty dataset).
    pub fn spam_fraction(&self) -> f64 {
        if self.emails.is_empty() {
            0.0
        } else {
            self.n_spam as f64 / self.emails.len() as f64
        }
    }

    /// A new dataset holding the messages at `indices`, in that order.
    ///
    /// Panics if an index is out of bounds (programmer error in fold logic).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset::from_vec(indices.iter().map(|&i| self.emails[i].clone()).collect())
    }

    /// Borrowing variant of [`Dataset::subset`] for hot paths: yields
    /// references without cloning message bodies.
    pub fn select<'a>(&'a self, indices: &'a [usize]) -> impl Iterator<Item = &'a LabeledEmail> + 'a {
        indices.iter().map(move |&i| &self.emails[i])
    }

    /// Indices of all ham messages.
    pub fn ham_indices(&self) -> Vec<usize> {
        self.emails
            .iter()
            .enumerate()
            .filter(|(_, m)| m.label == Label::Ham)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of all spam messages.
    pub fn spam_indices(&self) -> Vec<usize> {
        self.emails
            .iter()
            .enumerate()
            .filter(|(_, m)| m.label == Label::Spam)
            .map(|(i, _)| i)
            .collect()
    }
}

impl FromIterator<LabeledEmail> for Dataset {
    fn from_iter<T: IntoIterator<Item = LabeledEmail>>(iter: T) -> Self {
        Dataset::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Email;

    fn mk(label: Label, tag: &str) -> LabeledEmail {
        LabeledEmail::new(Email::builder().subject(tag).build(), label)
    }

    #[test]
    fn counts_track_pushes() {
        let mut d = Dataset::new();
        d.push(mk(Label::Ham, "a"));
        d.push(mk(Label::Spam, "b"));
        d.push(mk(Label::Spam, "c"));
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_ham(), 1);
        assert_eq!(d.n_spam(), 2);
        assert!((d.spam_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_vec_counts() {
        let d = Dataset::from_vec(vec![mk(Label::Ham, "a"), mk(Label::Ham, "b")]);
        assert_eq!(d.n_ham(), 2);
        assert_eq!(d.n_spam(), 0);
        assert_eq!(d.spam_fraction(), 0.0);
    }

    #[test]
    fn subset_preserves_order_and_counts() {
        let d = Dataset::from_vec(vec![
            mk(Label::Ham, "0"),
            mk(Label::Spam, "1"),
            mk(Label::Ham, "2"),
        ]);
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.n_ham(), 2);
        assert_eq!(s.emails()[0].email.subject(), Some("2"));
    }

    #[test]
    fn class_indices() {
        let d = Dataset::from_vec(vec![
            mk(Label::Ham, "0"),
            mk(Label::Spam, "1"),
            mk(Label::Ham, "2"),
        ]);
        assert_eq!(d.ham_indices(), vec![0, 2]);
        assert_eq!(d.spam_indices(), vec![1]);
    }

    #[test]
    fn empty_dataset_behaviour() {
        let d = Dataset::new();
        assert!(d.is_empty());
        assert_eq!(d.spam_fraction(), 0.0);
        assert!(d.ham_indices().is_empty());
    }

    #[test]
    fn select_borrows() {
        let d = Dataset::from_vec(vec![mk(Label::Ham, "x"), mk(Label::Spam, "y")]);
        let got: Vec<&LabeledEmail> = d.select(&[1]).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].label, Label::Spam);
    }

    #[test]
    fn from_iterator_collects() {
        let d: Dataset = (0..4)
            .map(|i| mk(if i % 2 == 0 { Label::Ham } else { Label::Spam }, "t"))
            .collect();
        assert_eq!(d.n_ham(), 2);
        assert_eq!(d.n_spam(), 2);
    }
}
