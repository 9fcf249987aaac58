//! # achilles-solver — an SMT-lite bitvector solver
//!
//! This crate is the constraint-solving substrate of the Achilles
//! trojan-message finder (ASPLOS'14 reproduction). It plays the role STP and
//! Z3 play in the paper: deciding satisfiability of path constraints gathered
//! by symbolic execution and producing concrete models used to *concretize*
//! symbolic Trojan messages.
//!
//! The term language is fixed-width bitvectors (1–64 bits) with wrapping
//! arithmetic, bitwise operators, comparisons (signed comparisons are
//! lowered at construction time), boolean connectives, and *opaque
//! functions* — registered Rust closures such as CRCs and MACs that stay
//! symbolic until all arguments are concrete.
//!
//! ## Quickstart
//!
//! ```
//! use achilles_solver::{Solver, TermPool, Width};
//!
//! let mut pool = TermPool::new();
//! let mut solver = Solver::new();
//!
//! // msg.address is a 32-bit field that must be below 100 but may be
//! // "negative" (two's complement) — the Trojan window of the paper's
//! // working example.
//! let addr = pool.fresh("msg.address", Width::W32);
//! let hundred = pool.constant(100, Width::W32);
//! let zero = pool.constant(0, Width::W32);
//! let below_max = pool.slt(addr, hundred);
//! let negative = pool.slt(addr, zero);
//!
//! let model = solver
//!     .model(&mut pool, &[below_max, negative])
//!     .expect("negative addresses below 100 exist");
//! let v = model.value(pool.as_var(addr).unwrap()).unwrap();
//! assert!(Width::W32.to_signed(v) < 0);
//! ```
//!
//! ## Certificates and cores
//!
//! `Sat` verdicts have always been verified end-to-end: the model is
//! re-evaluated against every assertion, and witnesses are later replayed
//! concretely. `Unsat` verdicts — every *pruned* branch of the Trojan
//! search — used to be trusted blindly. They no longer are: each
//! [`SatResult::Unsat`] carries a [`Certificate`], a refutation trace
//! (interval restrictions, class merges, clause splits, value
//! enumerations) expressed purely in terms of assertion refs and variable
//! fingerprints, plus the **unsat core**: the subset of input assertions
//! the trace actually references, in assertion order. The independent
//! `achilles-proofcheck` crate re-derives every step from the [`TermPool`]
//! alone — it shares only the term/width definitions with this crate, so a
//! bug in the search cannot validate its own mistake. Install its audit
//! hook (see [`set_proof_audit`]) and every fresh or subsumption-derived
//! `Unsat` is checked on the spot.
//!
//! Cores also pay for themselves as cache keys: a certificate proves its
//! core unsatisfiable, and any *superset* of an unsat set is unsat, so
//! [`SharedCache`] keeps a core-subsumption index — a query whose
//! fingerprint set contains a cached core answers `Unsat` (with the cached
//! certificate) without searching. That turns the dominant `pathS ∧ pathC`
//! drop checks into cache hits even when the exact key was never seen.
//!
//! ## Architecture
//!
//! * [`term`] — hash-consed terms, variables, opaque functions ([`TermPool`]);
//!   cloneable pools with structural fingerprints and cross-pool import for
//!   parallel workers
//! * [`interval`] — interval-set domains ([`IntervalSet`])
//! * [`atom`] — negation normal form and affine views
//! * [`search`] — propagation + DPLL search ([`solve`])
//! * [`certificate`] — checkable unsat certificates ([`Certificate`]) and
//!   the process-wide proof-audit hook
//! * [`model`] — verified satisfying assignments ([`Model`])
//! * [`solver`] — caching facade ([`Solver`]), two-tier: local map +
//!   optional cross-worker [`SharedCache`]
//! * [`scoped`] — incremental push/pop solving over growing path
//!   constraints ([`ScopedSolver`])
//! * [`cache`] — the sharded fingerprint-keyed cache workers share, with
//!   the core-subsumption index
//! * [`pretty`] — human-readable rendering ([`render`])
//! * [`smtlib`] — SMT-LIB 2 export for external cross-checking ([`to_smtlib`])

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atom;
pub mod cache;
pub mod certificate;
pub mod interval;
pub mod model;
pub mod pretty;
pub mod scoped;
pub mod search;
pub mod smtlib;
pub mod solver;
pub mod term;
pub mod width;

pub use atom::{affine_view, affine_view_with, nnf, AffineView, Formula, Literal};
pub use cache::{SharedCache, SharedCacheStats};
pub use certificate::{
    proof_audit, proof_audit_installed, proof_audit_stats, set_proof_audit, Certificate,
    ProofAuditFn, ProofNode, ProofStep,
};
pub use interval::{Interval, IntervalSet};
pub use model::{Model, PortableModel};
pub use pretty::{render, render_conjunction};
pub use scoped::{ScopedSolver, ScopedStats};
pub use search::{solve, SatResult, SearchStats, SolverConfig};
pub use smtlib::to_smtlib;
pub use solver::{Solver, SolverStats};
pub use term::{FunId, Op, TermData, TermId, TermPool, VarId, VarInfo};
pub use width::Width;
