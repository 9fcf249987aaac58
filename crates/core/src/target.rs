//! The protocol-agnostic target description: one [`TargetSpec`] carries
//! everything the pipeline needs to analyze and validate a protocol.
//!
//! The paper's pipeline — client predicate extraction, negation, server
//! Trojan search, concrete witness replay — is protocol-independent, but
//! each phase needs protocol-specific ingredients: the client and server
//! [`NodeProgram`]s, the wire [`MessageLayout`], a field mask, the
//! supported local-state modes, and a concrete deployment to fire
//! witnesses at. [`TargetSpec`] bundles those ingredients behind one
//! trait, so a protocol is onboarded by implementing it in the protocol's
//! own crate and registering the spec in a
//! [`TargetRegistry`](crate::TargetRegistry) — **zero changes to the core
//! pipeline, the replay harness, or the bench drivers**.
//!
//! The concrete half lives here too: [`ReplayTarget`] (a bootable
//! deployment that accepts wire datagrams) and the wire codec helpers
//! ([`fields_to_wire`] / [`wire_to_fields`]) that concretize solver models
//! into injectable bytes through the same
//! [`achilles_netsim::bytes`] framing the deployments parse with. The
//! `achilles-replay` crate drives a [`ReplayTarget`] produced by
//! [`TargetSpec::replay_target`] through fault plans, triage, and corpus
//! persistence.
//!
//! See the crate-level docs ("Porting a protocol") for the step-by-step
//! guide.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

pub use achilles_netsim::bytes::WireError;
use achilles_netsim::bytes::{decode_fields, encode_fields};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::diverge::StateRoot;
use crate::predicate::FieldMask;
use crate::report::TrojanReport;

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

/// Per-field widths (in bits) of a message layout, in declaration order.
pub fn layout_widths(layout: &MessageLayout) -> Vec<u32> {
    layout.fields().iter().map(|f| f.width.bits()).collect()
}

/// Encodes layout-ordered field values to wire bytes (big-endian, the
/// framing every concrete deployment parses with).
///
/// # Errors
///
/// Returns [`WireError::BadWidth`] if the layout has a field narrower than
/// one byte (such layouts cannot travel on the modeled wire).
pub fn fields_to_wire(layout: &MessageLayout, fields: &[u64]) -> Result<Vec<u8>, WireError> {
    let pairs: Vec<(u32, u64)> = layout_widths(layout)
        .into_iter()
        .zip(fields.iter().copied())
        .collect();
    encode_fields(&pairs)
}

/// Decodes wire bytes back to layout-ordered field values.
///
/// # Errors
///
/// Returns a [`WireError`] if the buffer is truncated or the layout has a
/// sub-byte field.
pub fn wire_to_fields(layout: &MessageLayout, wire: &[u8]) -> Result<Vec<u64>, WireError> {
    decode_fields(wire, &layout_widths(layout))
}

// ---------------------------------------------------------------------------
// Concrete deployments
// ---------------------------------------------------------------------------

/// One delivery of an injection plan: wire bytes plus whether this copy is
/// the witness (as opposed to a benign companion).
pub type Delivery = (Vec<u8>, bool);

/// What one injection run did, per delivery and in aggregate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// Per-delivery acceptance, aligned with the delivery plan.
    pub accepted_each: Vec<bool>,
    /// Structural effect notes (unsorted; the replay triage sorts them
    /// into the crash signature).
    pub effects: Vec<String>,
}

/// A concrete deployment a witness can be fired at.
///
/// Implementations must be pure: [`ReplayTarget::inject`] boots fresh
/// state every call and its result is a function of the delivery plan
/// alone. That purity is what makes replay results bit-identical across
/// worker counts, runs, and machines.
///
/// Session targets — deployments that consume a fixed *sequence* of
/// messages per session (see [`TargetSpec::sessions`]) — additionally
/// override the `slot_*` hooks so the replay harness can build per-slot
/// benign companions and judge per-slot generability. The defaults make
/// every single-message target a valid one-slot session target.
pub trait ReplayTarget: Sync {
    /// Short system name used in crash signatures (`"fsp"`, `"pbft"`, …).
    fn name(&self) -> &'static str;

    /// The wire layout witnesses for this target use.
    fn layout(&self) -> Arc<MessageLayout>;

    /// Field values of a benign message a correct client would send
    /// (the ddmin baseline and the reorder-fault companion).
    fn benign_fields(&self) -> Vec<u64>;

    /// Whether a correct client can generate `fields` — the concrete
    /// client-side oracle.
    fn client_generable(&self, fields: &[u64]) -> bool;

    /// Boots a fresh deployment and fires the delivery plan at it.
    ///
    /// For session targets the plan carries one delivery per slot in
    /// session order (plus any fault-injected copies); the deployment
    /// consumes them statefully, exactly like real traffic.
    fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome;

    /// Per-slot wire layouts of a session witness, in slot order.
    ///
    /// Single-message targets keep the default (one slot, the
    /// [`ReplayTarget::layout`]).
    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![self.layout()]
    }

    /// Benign field values for `slot` (the per-slot ddmin baseline and the
    /// benign interleaving companion a fault schedule inserts between
    /// deliveries). Defaults to [`ReplayTarget::benign_fields`].
    fn slot_benign_fields(&self, slot: usize) -> Vec<u64> {
        let _ = slot;
        self.benign_fields()
    }

    /// Whether a correct client can produce `fields` *in `slot`* — the
    /// per-slot concrete oracle. Defaults to
    /// [`ReplayTarget::client_generable`].
    fn slot_generable(&self, slot: usize, fields: &[u64]) -> bool {
        let _ = slot;
        self.client_generable(fields)
    }

    /// Boots a fresh deployment as an incremental *fork session* — the
    /// snapshot/restore capability behind the sweep fork-server.
    ///
    /// Snapshot-capable targets return `Some(session)` where delivering
    /// every plan entry through [`SnapshotReplayTarget::deliver`] and then
    /// calling [`SnapshotReplayTarget::finish`] produces exactly the
    /// [`InjectionOutcome`] that [`ReplayTarget::inject`] would for the
    /// same plan (the *equivalence law*; the fork-server equivalence suite
    /// pins it per target). The default is `None`: drivers fall back
    /// transparently to cold-booting one [`ReplayTarget::inject`] per
    /// cell, so snapshots are a pure speed lever, never a semantic one.
    fn boot_fork(&self) -> Option<Box<dyn SnapshotReplayTarget + '_>> {
        None
    }

    /// Whether this deployment observes per-node state roots and reports
    /// divergence through its effects (see [`crate::diverge`]).
    ///
    /// Multi-node targets that embed a
    /// [`DivergenceProbe`](crate::diverge::DivergenceProbe) return `true`;
    /// the conformance suite then holds them to the divergence contract
    /// (fault-free benign agreement, ≥ 1 diverging schedule, and
    /// drop-the-arming-slot restores agreement). Single-node targets keep
    /// the default.
    fn reports_state_roots(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Snapshot fork sessions
// ---------------------------------------------------------------------------

/// An opaque, clone-able copy of a fork session's mutable engine state.
///
/// Produced by [`SnapshotReplayTarget::snapshot`] and consumed only by the
/// matching target's [`SnapshotReplayTarget::restore`] — the payload type
/// is private to the target implementation. Snapshots are deep copies:
/// restoring one must not alias live state (no shared `Arc<Mutex<…>>`
/// interiors), so a restored session and the session it forked from evolve
/// independently.
pub struct TargetSnapshot(Box<dyn AnyState>);

impl TargetSnapshot {
    /// Wraps a deep copy of a fork session's mutable state.
    pub fn of<T: Clone + Send + 'static>(state: T) -> TargetSnapshot {
        TargetSnapshot(Box::new(state))
    }

    /// Recovers the state payload, if this snapshot holds a `T`.
    ///
    /// Targets call this from [`SnapshotReplayTarget::restore`] and may
    /// `expect` the downcast: the fork-server only ever hands a session
    /// snapshots that same session (or a sibling of the same target)
    /// produced.
    pub fn get<T: Clone + Send + 'static>(&self) -> Option<&T> {
        self.0.as_any().downcast_ref::<T>()
    }
}

impl Clone for TargetSnapshot {
    fn clone(&self) -> TargetSnapshot {
        TargetSnapshot(self.0.clone_box())
    }
}

impl fmt::Debug for TargetSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TargetSnapshot(..)")
    }
}

/// Object-safe `Clone + Any` bridge for snapshot payloads.
trait AnyState: Send {
    fn clone_box(&self) -> Box<dyn AnyState>;
    fn as_any(&self) -> &dyn Any;
}

impl<T: Clone + Send + 'static> AnyState for T {
    fn clone_box(&self) -> Box<dyn AnyState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One booted deployment driven incrementally, with snapshot/restore at
/// arbitrary points — the AFL-style fork-server capability.
///
/// Where [`ReplayTarget::inject`] boots fresh state per call and consumes a
/// whole delivery plan, a fork session is handed deliveries one at a time
/// and can be rewound: the sweep fork-server walks a delivery-prefix trie,
/// snapshotting at branch points and restoring from the deepest shared
/// ancestor instead of cold-booting every cell.
///
/// # Contract
///
/// - [`deliver`](SnapshotReplayTarget::deliver) pushes exactly one entry
///   onto `outcome.accepted_each` and appends any per-delivery effects, in
///   the same order `inject` would.
/// - [`finish`](SnapshotReplayTarget::finish) appends the end-of-plan
///   effects `inject` computes after its delivery loop (filesystem diffs,
///   final decisions). It may leave the engine state unspecified — the
///   fork-server always restores a snapshot before reusing the session.
/// - *Equivalence law*: boot → `deliver` each plan entry → `finish` must
///   produce an [`InjectionOutcome`] equal to `inject` on the same plan,
///   and `snapshot` → any deliveries → `restore` must put the session back
///   bit-exactly (re-delivering yields identical outcomes).
pub trait SnapshotReplayTarget {
    /// Feeds one delivery to the live deployment, recording acceptance and
    /// effects into `outcome`.
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome);

    /// Deep-copies the mutable engine state.
    fn snapshot(&self) -> TargetSnapshot;

    /// Rewinds the session to a previously captured snapshot.
    fn restore(&mut self, snapshot: &TargetSnapshot);

    /// Appends the end-of-plan effects (whatever `inject` computes after
    /// delivering everything). May consume the session state; callers
    /// restore a snapshot before delivering again.
    fn finish(&mut self, outcome: &mut InjectionOutcome);

    /// The current per-node state roots, for deployments that observe
    /// them (`None` — the default — for single-node targets).
    ///
    /// The roots must be a pure function of the deliveries applied since
    /// boot, and snapshot/restore must rewind them with the rest of the
    /// engine state — the probe and the digests belong in the
    /// [`TargetSnapshot`] payload.
    fn state_roots(&self) -> Option<Vec<StateRoot>> {
        None
    }
}

// ---------------------------------------------------------------------------
// Session declarations
// ---------------------------------------------------------------------------

/// One receive slot of a declared session: the wire layout of the message
/// the server consumes in this position, plus which of the spec's
/// [`session client programs`](TargetSpec::session_clients) can legally
/// fill it.
#[derive(Clone, Debug)]
pub struct SessionSlot {
    /// Slot name used in reports and witness provenance (`"login"`,
    /// `"command"`, …).
    pub name: String,
    /// The wire layout of the message received in this slot.
    pub layout: Arc<MessageLayout>,
    /// Indices into [`TargetSpec::session_clients`] whose predicates are
    /// merged (in order) into this slot's client predicate `P_C`.
    pub clients: Vec<usize>,
    /// Field mask for this slot (checksums/digests, §5.2).
    pub mask: FieldMask,
}

impl SessionSlot {
    /// A slot named `name` of `layout`, fed by the given session clients,
    /// with no field mask.
    pub fn new(
        name: impl Into<String>,
        layout: Arc<MessageLayout>,
        clients: Vec<usize>,
    ) -> SessionSlot {
        SessionSlot {
            name: name.into(),
            layout,
            clients,
            mask: FieldMask::none(),
        }
    }
}

/// A multi-message session a [`TargetSpec`] declares: an ordered slot list
/// the server consumes in one activation (handshake → command, VOTE →
/// DECIDE), plus an expected session-Trojan hint.
///
/// A session is Trojan when the server accepts it but at least one slot's
/// message is un-generable by that slot's correct clients —
/// `⋁ₛ ¬genₛ(mₛ)` (the stateful findings single-message analysis is blind
/// to). Declared sessions are driven end-to-end by
/// [`AchillesSession::run_sessions`](crate::AchillesSession::run_sessions)
/// and validated through the spec's session replay target.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Session name, unique within the spec (`"login-command"`, …).
    pub name: String,
    /// The ordered receive slots (must match the session server's `recv`
    /// order). Must be non-empty.
    pub slots: Vec<SessionSlot>,
    /// How many session-Trojan reports the default configuration is
    /// expected to discover, when the bounded model makes that exact.
    pub expected_trojans: Option<usize>,
}

impl SessionSpec {
    /// A session named `name` over `slots` with no expected-count hint.
    pub fn new(name: impl Into<String>, slots: Vec<SessionSlot>) -> SessionSpec {
        SessionSpec {
            name: name.into(),
            slots,
            expected_trojans: None,
        }
    }

    /// Sets the expected session-Trojan count.
    pub fn expecting(mut self, count: usize) -> SessionSpec {
        self.expected_trojans = Some(count);
        self
    }

    /// Per-slot field counts (the shape used to split a flat witness back
    /// into slot messages).
    pub fn slot_field_counts(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.layout.num_fields()).collect()
    }
}

// ---------------------------------------------------------------------------
// The target spec
// ---------------------------------------------------------------------------

/// Which local-state modes (§3.4) a protocol's analysis supports.
///
/// This is declarative metadata mirroring
/// [`LocalState`](crate::LocalState) (which carries the actual seeded
/// constraints): registries and conformance suites use it to know what a
/// spec can be asked to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LocalStateMode {
    /// Run the server from fully concrete local state.
    Concrete,
    /// Constructed Symbolic Local State (constraints seeded from a
    /// previous analysis phase).
    Constructed,
    /// Over-approximate Symbolic Local State (annotated symbolic reads).
    OverApproximate,
}

/// Everything the Achilles pipeline needs from one protocol.
///
/// A `TargetSpec` is the single onboarding point for a protocol: it names
/// the target, supplies the symbolic client and server programs and the
/// wire layout for discovery, the codec for witness concretization, and a
/// factory for the concrete [`ReplayTarget`] used by validation. Drivers —
/// [`AchillesSession`](crate::AchillesSession), the bench bins, the
/// conformance suite — consume specs through a
/// [`TargetRegistry`](crate::TargetRegistry) and never name a protocol in
/// code.
///
/// Specs are `Send + Sync`: a registry is shared across driver threads
/// (the parallel pool, the fleetd campaign executors), so a spec must be
/// plain configuration data, never a handle to thread-local state.
pub trait TargetSpec: Send + Sync {
    /// Registry name of the protocol (`"fsp"`, `"pbft"`, `"paxos"`,
    /// `"twopc"`, …). Must be stable and unique within a registry.
    fn name(&self) -> &'static str;

    /// One-line human description shown by registry-driven tooling.
    fn description(&self) -> &'static str {
        ""
    }

    /// The wire layout of the analyzed message.
    fn layout(&self) -> Arc<MessageLayout>;

    /// The client programs whose sent messages form the client predicate
    /// `P_C` (their predicates are merged in order — e.g. the eight FSP
    /// utilities). Must be non-empty.
    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>>;

    /// The server program analyzed for Trojan acceptance.
    fn server(&self) -> Box<dyn NodeProgram + Sync + '_>;

    /// Field mask (checksums, digests, authenticators — §5.2).
    fn mask(&self) -> FieldMask {
        FieldMask::none()
    }

    /// The local-state modes this spec's analysis supports.
    fn local_state_modes(&self) -> Vec<LocalStateMode> {
        vec![LocalStateMode::Concrete]
    }

    /// How many Trojan reports the default configuration is expected to
    /// discover, when the protocol's bounded model makes that number exact
    /// (the paper's counting arithmetic). `None` when open-ended.
    fn expected_trojans(&self) -> Option<usize> {
        None
    }

    /// Classifies a discovered report into a protocol-level family label
    /// (used for triage summaries; `"trojan"` when the protocol has a
    /// single family).
    fn classify(&self, _report: &TrojanReport) -> String {
        "trojan".to_string()
    }

    /// Builds the concrete deployment used to validate witnesses.
    ///
    /// The factory bundles the boot logic that used to be hand-assembled
    /// per protocol in the replay harness: the returned target boots a
    /// fresh deployment per injection, configured consistently with the
    /// analyzed [`TargetSpec::server`].
    fn replay_target(&self) -> Box<dyn ReplayTarget>;

    /// Concretizes layout-ordered field values into injectable wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the layout cannot travel on the wire.
    fn encode(&self, fields: &[u64]) -> Result<Vec<u8>, WireError> {
        fields_to_wire(&self.layout(), fields)
    }

    /// Decodes wire bytes back into layout-ordered field values.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated buffers or sub-byte layouts.
    fn decode(&self, wire: &[u8]) -> Result<Vec<u64>, WireError> {
        wire_to_fields(&self.layout(), wire)
    }

    /// The multi-message sessions this protocol declares (empty — the
    /// default — for single-message protocols).
    ///
    /// Declared sessions are registry-drivable exactly like the
    /// single-message analysis:
    /// [`AchillesSession::run_sessions`](crate::AchillesSession::run_sessions)
    /// runs `analyze_sequence` per session over the work-stealing pool, and
    /// `achilles_replay::validate_session_trojans` fires the resulting
    /// session witnesses at [`TargetSpec::session_replay_target`].
    fn sessions(&self) -> Vec<SessionSpec> {
        Vec::new()
    }

    /// The client programs session slots select from (referenced by index
    /// in [`SessionSlot::clients`]). Defaults to [`TargetSpec::clients`];
    /// override when sessions need clients beyond the single-message set
    /// (a login utility, a controller, …).
    fn session_clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        self.clients()
    }

    /// The server program analyzed for session `name`: one `recv` per
    /// declared slot, in slot order. Defaults to [`TargetSpec::server`]
    /// (correct only for specs whose server already consumes the session's
    /// message sequence).
    fn session_server(&self, name: &str) -> Box<dyn NodeProgram + Sync + '_> {
        let _ = name;
        self.server()
    }

    /// The concrete deployment session witnesses for `name` are fired at.
    /// Defaults to [`TargetSpec::replay_target`]; session targets override
    /// the [`ReplayTarget`] `slot_*` hooks for per-slot layouts, benign
    /// baselines, and generability.
    fn session_replay_target(&self, name: &str) -> Box<dyn ReplayTarget> {
        let _ = name;
        self.replay_target()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_solver::Width;
    use achilles_symvm::{PathResult, SymEnv, SymMessage};

    fn layout() -> Arc<MessageLayout> {
        MessageLayout::builder("kv")
            .field("op", Width::W8)
            .field("key", Width::W16)
            .build()
    }

    struct KvSpec;

    struct NullTarget;
    impl ReplayTarget for NullTarget {
        fn name(&self) -> &'static str {
            "kv"
        }
        fn layout(&self) -> Arc<MessageLayout> {
            layout()
        }
        fn benign_fields(&self) -> Vec<u64> {
            vec![1, 0]
        }
        fn client_generable(&self, fields: &[u64]) -> bool {
            fields[1] < 1024
        }
        fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
            InjectionOutcome {
                accepted_each: vec![true; deliveries.len()],
                effects: vec![],
            }
        }
    }

    impl TargetSpec for KvSpec {
        fn name(&self) -> &'static str {
            "kv"
        }
        fn layout(&self) -> Arc<MessageLayout> {
            layout()
        }
        fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
            fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
                let key = env.sym("key", Width::W16);
                let op = env.constant(1, Width::W8);
                env.send(SymMessage::new(
                    MessageLayout::builder("kv")
                        .field("op", Width::W8)
                        .field("key", Width::W16)
                        .build(),
                    vec![op, key],
                ));
                Ok(())
            }
            vec![Box::new(client)]
        }
        fn server(&self) -> Box<dyn NodeProgram + Sync + '_> {
            fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
                let _ = env.recv(&layout())?;
                env.mark_accept();
                Ok(())
            }
            Box::new(server)
        }
        fn replay_target(&self) -> Box<dyn ReplayTarget> {
            Box::new(NullTarget)
        }
    }

    #[test]
    fn default_codec_round_trips_through_the_layout() {
        let spec = KvSpec;
        let wire = spec.encode(&[0x41, 0x1234]).unwrap();
        assert_eq!(wire, vec![0x41, 0x12, 0x34]);
        assert_eq!(spec.decode(&wire).unwrap(), vec![0x41, 0x1234]);
    }

    #[test]
    fn defaults_are_sensible() {
        let spec = KvSpec;
        assert_eq!(spec.local_state_modes(), vec![LocalStateMode::Concrete]);
        assert_eq!(spec.expected_trojans(), None);
        assert!(crate::AchillesSession::new(&spec).config().verify_witnesses);
        assert!(spec.description().is_empty());
    }
}
