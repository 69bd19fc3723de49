//! # sb-core — the paper's contribution
//!
//! Causative availability attacks on the SpamBayes learner and the two
//! defenses, exactly as described in Nelson et al., *"Exploiting Machine
//! Learning to Subvert Your Spam Filter"*:
//!
//! | Paper | Here |
//! |---|---|
//! | Attack taxonomy (§3.1) | [`taxonomy`] |
//! | Contamination assumption & attack-email rules (§2.2, §4.1) | [`attack`] |
//! | Dictionary attacks: optimal / Aspell / Usenet (§3.2) | [`dictionary`] |
//! | Focused attack with token guessing (§3.3) | [`focused`] |
//! | Optimal attack function, knowledge spectrum (§3.4) | [`optimal`] |
//! | Optimal *constrained* attack (§3.4 future work) | [`constrained`] |
//! | Ham-labeled integrity attack (§2.2 closing remark) | [`ham_attack`] |
//! | Periodic retraining loop (§2.1–§2.2) | `sb_mailflow::org::MailOrg` |
//! | Declarative multi-campaign composition (scenario engine) | [`campaign`] |
//! | RONI defense (§5.1) | [`roni`] |
//! | Dynamic threshold defense (§5.2) | [`threshold`] |
//! | Stacked RONI + threshold defense (future-work config) | [`combined`] |
//!
//! ```
//! use sb_core::dictionary::{DictionaryAttack, DictionaryKind};
//! use sb_core::attack::AttackGenerator;
//! use sb_stats::rng::Xoshiro256pp;
//!
//! // Craft the Usenet dictionary attack at 1% contamination of a
//! // 10,000-message inbox — the paper's headline configuration.
//! let attack = DictionaryAttack::new(DictionaryKind::UsenetTop(90_000));
//! let n = sb_core::dictionary::attack_count_for_fraction(10_000, 0.01);
//! assert_eq!(n, 101);
//! let batch = attack.generate(n, &mut Xoshiro256pp::new(0));
//! assert_eq!(batch.len(), 101);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod campaign;
pub mod combined;
pub mod constrained;
pub mod dictionary;
pub mod focused;
pub mod ham_attack;
pub mod optimal;
pub mod roni;
pub mod taxonomy;
pub mod threshold;

pub use attack::{build_attack_email, AttackBatch, AttackGenerator, HeaderMode};
pub use campaign::{
    validate_campaigns, AttackKind, CampaignEnv, CampaignError, CampaignShape, CampaignSpec,
    Intensity, MessageRef,
};
pub use combined::{defend, CombinedConfig, CombinedOutcome};
pub use constrained::{blend_with_lexicon, estimate_knowledge, AttackContext, ConstrainedAttack};
pub use dictionary::{attack_count_for_fraction, DictionaryAttack, DictionaryKind};
pub use focused::FocusedAttack;
pub use ham_attack::HamLabelAttack;
pub use optimal::WordKnowledge;
pub use roni::{RoniConfig, RoniDefense, RoniError, RoniMeasurement};
pub use taxonomy::{AttackClass, Influence, Specificity, Violation};
pub use threshold::{calibrate, CalibratedFilter, ThresholdConfig, TrainItem};
