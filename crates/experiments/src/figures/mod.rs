//! One module per figure/table of the paper's evaluation. Each is a pure
//! experiment (config in, result value out); the rig (`crate::rig`,
//! `repro run`) runs them, digests the results and renders their tables.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Figure 1 (dictionary attacks) | [`fig1`] |
//! | Figure 2 (focused vs knowledge) | [`focused::run_fig2`] |
//! | Figure 3 (focused vs volume) | [`focused::run_fig3`] |
//! | Figure 4 (token-score shifts) | [`fig4`] |
//! | Figure 5 (dynamic threshold defense) | [`fig5`] |
//! | §5.1 RONI experiment | [`roni_exp`] |
//! | §4.2 token-volume claim | [`tokens`] |
//! | §7 headline numbers | full-tier claims of the `fig1`/`fig2`/`fig3` rig targets |
//! | Table 1 size/prevalence variations | [`variations`] |
//!
//! Extension experiments (systems the paper names or leaves to future
//! work, built and measured):
//!
//! | Extension | Module |
//! |---|---|
//! | Cross-filter attack transfer (§7 claim) | [`transfer`] |
//! | Optimal constrained attack budget sweep (§3.4) | [`constrained_exp`] |
//! | Ham-labeled integrity attack (§2.2 remark) | [`ham_attack_exp`] |
//! | Attack × defense matrix (§5 cross terms) | [`defense_matrix`] |
//! | Week-by-week organization simulation (§2.1) | [`mailflow_weeks`] |

pub mod constrained_exp;
pub mod defense_matrix;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod focused;
pub mod ham_attack_exp;
pub mod mailflow_weeks;
pub mod roni_exp;
pub mod tokens;
pub mod transfer;
pub mod variations;
