//! # achilles-replay — concrete witness replay, minimization, and crash triage
//!
//! The symbolic pipeline ends with Trojan *candidates*: messages a solver
//! model says the server accepts and no correct client generates. This
//! crate closes the loop the paper closed by hand — injecting each
//! candidate into a real deployment and watching what breaks. There is one
//! path for one message or many: a witness is a [`SessionWitness`] of one
//! wire buffer per slot, and a single-message witness is a one-slot
//! session.
//!
//! 1. **Concretize** ([`witness`]): report → per-slot wire bytes, through
//!    the same [`achilles_netsim::bytes`] codec the deployments parse with.
//! 2. **Inject** ([`target`]): boot a fresh concrete deployment — produced
//!    by the protocol's [`TargetSpec::replay_target`](achilles::TargetSpec)
//!    or `session_replay_target` factory — and fire the witness under a
//!    [`FaultSchedule`]: drop, duplicate, benign interleaving or single
//!    bit-flip at any delivery position.
//! 3. **Triage** ([`signature`]): fold the outcome into a slot-aware
//!    structural [`CrashSignature`] so two witnesses of one bug count once.
//! 4. **Minimize** ([`minimize`]): ddmin the witness down to the
//!    `(slot, field)` pairs that actually matter.
//! 5. **Persist** ([`corpus`]): remember confirmed Trojans across runs so
//!    re-analysis skips known bytes and flags genuinely new bug classes.
//!
//! [`validate_session_trojans`] drives 1–5 over the Trojans of an
//! [`AchillesReport`](achilles::AchillesReport) or a
//! [`SessionReport`](achilles::SessionReport), fanning out over
//! [`achilles_symvm::parallel_map`] workers with bit-identical results for
//! every worker count; the [`fork`] server replays many schedules of one
//! witness from shared delivery-prefix snapshots. This crate knows **no
//! protocol by name**: the concrete deployments live with their protocols
//! (`achilles_fsp::FspTarget`, `achilles_pbft::PbftTarget`,
//! `achilles_paxos::PaxosTarget`, …) and reach the harness only through
//! the trait.
//!
//! ```
//! use achilles_fsp::{Command, FspMessage, FspServerConfig, FspTarget};
//! use achilles_replay::{replay_session, FaultSchedule, ReplayVerdict, SessionWitness};
//!
//! // A length-mismatch Trojan: reported path length 3, real length 1.
//! let mut msg = FspMessage::request(Command::Stat, b"a");
//! msg.bb_len = 3;
//! msg.buf = [b'a', 0, 0x77, 0];
//!
//! let target = FspTarget::new(FspServerConfig::default(), false);
//! let witness = SessionWitness {
//!     index: 0,
//!     server_path_id: 0,
//!     fields: vec![msg.field_values()],
//!     wire: vec![msg.to_wire()],
//! };
//! let result = replay_session(&target, &witness, &FaultSchedule::none());
//! assert_eq!(result.verdict, ReplayVerdict::ConfirmedTrojan);
//! assert_eq!(result.trojan_slots, vec![0]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod fork;
pub mod minimize;
pub mod signature;
pub mod target;
pub mod validate;
pub mod witness;

pub use corpus::{CorpusEntry, CorpusParseError, ReplayCorpus};
pub use fork::{replay_session_forked, ForkServer, ForkStats};
pub use minimize::{minimize_session, minimize_session_divergence, MinimizedSessionWitness};
pub use signature::CrashSignature;
pub use target::{
    classify_session, plan_session, replay_session, Delivery, DeliveryFault, FaultSchedule,
    InjectionOutcome, ReplayTarget, ReplayVerdict, SessionPlan, SessionReplayResult,
};
pub use validate::{validate_session_trojans, SessionValidateConfig, SessionValidationSummary};
pub use witness::{session_from_report, SessionWitness};
