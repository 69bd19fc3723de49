//! # sb-corpus — the data substrate
//!
//! Synthetic equivalents of the three data resources the paper uses, built
//! from one shared vocabulary universe so their overlap structure is exact:
//!
//! * **TREC 2005 spam corpus** → [`trec::TrecCorpus`]: generative ham/spam
//!   email pools (topic-mixture Zipfian language models + realistic
//!   headers) at the paper's sizes and prevalences;
//! * **GNU aspell dictionary (98,568 words)** → [`dicts::aspell_dictionary`];
//! * **Usenet corpus top-90,000 word ranking** → [`dicts::usenet_ranked`]
//!   (61,000-word overlap with the Aspell surrogate, both per §3.2/§4.2).
//!
//! Plus the evaluation plumbing of §4.1: K-fold cross-validation splits and
//! sampling utilities ([`inbox`]).
//!
//! ## Why a synthetic corpus is a faithful substitute
//!
//! The SpamBayes learner sees only per-token *presence counts* (Eqs. 1–2).
//! The attack and defense dynamics therefore depend on: (a) the Zipfian
//! head/tail shape of token frequencies, (b) ham/spam vocabulary overlap,
//! (c) the fraction of ham vocabulary covered by each attack lexicon, and
//! (d) per-email token counts. All four are first-class parameters of this
//! substrate (see [`model::LanguageModelConfig`] and the stratum layout in
//! [`vocab`]), calibrated so the paper's qualitative results reproduce.
//! Absolute percentages differ from the paper's TREC numbers; orderings and
//! crossover shapes are preserved — see EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dicts;
pub mod inbox;
pub mod model;
#[cfg(test)]
mod oracle;
pub mod trec;
pub mod vocab;

pub use dicts::{aspell_dictionary, usenet_ranked, usenet_top};
pub use inbox::{fold_datasets, sample_indices, split_half, KFold};
pub use model::{LanguageModel, LanguageModelConfig, StrataMix};
pub use trec::{CorpusConfig, EmailGenerator, TrecCorpus};
pub use vocab::{all_words, push_word, stratum_of, word_for, Stratum, WordId};
