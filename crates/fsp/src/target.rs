//! The FSP [`TargetSpec`]: one registration point from discovery to replay.
//!
//! [`FspSpec`] names the analyzed utilities and the client and server
//! configurations, and exposes the client programs, the server program,
//! and the concrete deployment factory through the protocol-agnostic
//! trait, so registry-driven tooling (`--target fsp`) runs the §6.2
//! analysis without naming FSP in code.
//! [`FspTarget`] is the concrete deployment the factory boots: a stateful
//! server endpoint over [`Network`]/[`SimFs`], previously hand-assembled
//! inside the replay harness.

use std::sync::Arc;

use achilles::{
    wire_to_fields, Delivery, InjectionOutcome, ReplayTarget, SessionSlot, SessionSpec,
    SnapshotReplayTarget, TargetSnapshot, TargetSpec, TrojanReport,
};
use achilles_netsim::{Addr, Network, SimFs};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::analysis::{classify, expected_length_mismatch_trojans};
use crate::client::{FspClient, FspClientConfig};
use crate::oracle::client_can_generate;
use crate::protocol::{layout, Command, FspMessage};
use crate::runtime::FspServerRuntime;
use crate::server::{FspServer, FspServerConfig};
use crate::session::{
    expected_session_trojans, login_layout, FspLoginClient, FspSessionServer, FspSessionTarget,
    LOGIN_CLIENT_TOKEN_CAP, LOGIN_MAX_USER, LOGIN_SERVER_TOKEN_CAP,
};
use crate::TrojanFamily;

/// The FSP deployment target: a stateful server endpoint over
/// [`Network`]/[`SimFs`].
#[derive(Clone, Debug)]
pub struct FspTarget {
    /// Server configuration (patch toggles must match the analyzed server).
    pub server: FspServerConfig,
    /// Whether client generability models glob expansion.
    pub glob_expansion: bool,
    /// Initial filesystem contents, `(path, data)` pairs.
    pub initial_files: Vec<(String, Vec<u8>)>,
}

impl FspTarget {
    /// A target mirroring an analysis configuration, with a small canned
    /// filesystem so commands have state to act on.
    pub fn new(server: FspServerConfig, glob_expansion: bool) -> FspTarget {
        FspTarget {
            server,
            glob_expansion,
            initial_files: vec![
                ("/f1".to_string(), b"one".to_vec()),
                ("/f2".to_string(), b"two".to_vec()),
            ],
        }
    }

    fn boot(&self) -> (Network, FspServerRuntime, Addr) {
        let mut fs = SimFs::new();
        for (path, data) in &self.initial_files {
            fs.write(path, data).expect("initial file writes succeed");
        }
        let mut net = Network::new();
        let server_addr = Addr::new("fspd");
        let client_addr = Addr::new("replay-cli");
        net.register(server_addr.clone());
        net.register(client_addr.clone());
        let server = FspServerRuntime::new(server_addr, fs, self.server.clone());
        (net, server, client_addr)
    }

    pub(crate) fn family_effect(fields: &[u64]) -> Option<String> {
        let report = TrojanReport {
            server_path_id: 0,
            constraints: vec![],
            witness_fields: fields.to_vec(),
            active_clients: 0,
            verified: false,
            found_at: std::time::Duration::ZERO,
            notes: vec![],
        };
        match classify(&report) {
            TrojanFamily::LengthMismatch {
                cmd,
                reported,
                actual,
            } => Some(format!(
                "family:len-mismatch:{}:{}>{}",
                cmd.utility_name(),
                reported,
                actual
            )),
            TrojanFamily::Wildcard { cmd } => {
                Some(format!("family:wildcard:{}", cmd.utility_name()))
            }
            TrojanFamily::Other => None,
        }
    }
}

impl ReplayTarget for FspTarget {
    fn name(&self) -> &'static str {
        "fsp"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        layout()
    }

    fn benign_fields(&self) -> Vec<u64> {
        let cmd = self
            .server
            .commands
            .first()
            .copied()
            .unwrap_or(Command::GetDir);
        FspMessage::request(cmd, b"f1").field_values()
    }

    fn client_generable(&self, fields: &[u64]) -> bool {
        let msg = FspMessage::from_field_values(fields);
        client_can_generate(&msg, self.glob_expansion)
    }

    fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
        let mut session = FspForkSession::boot(self, false);
        let mut outcome = InjectionOutcome::default();
        for delivery in deliveries {
            session.deliver(delivery, &mut outcome);
        }
        session.finish(&mut outcome);
        outcome
    }

    fn boot_fork(&self) -> Option<Box<dyn SnapshotReplayTarget + '_>> {
        Some(Box::new(FspForkSession::boot(self, false)))
    }
}

/// The incremental FSP deployment behind both FSP targets' `inject` *and*
/// their fork sessions: one booted server endpoint fed deliveries one at a
/// time. `inject` is a boot → deliver-each → finish loop over this very
/// struct, so fork-server replay is equivalent to cold-boot by
/// construction.
pub(crate) struct FspForkSession {
    net: Network,
    server: FspServerRuntime,
    client_addr: Addr,
    /// Root listing at boot, immutable — `finish` diffs against it.
    before: Vec<String>,
    /// `Some(logged_in)` when the login gate is active (the session
    /// target); `None` for the single-message target.
    login: Option<bool>,
}

impl FspForkSession {
    pub(crate) fn boot(target: &FspTarget, login_gate: bool) -> FspForkSession {
        let (net, server, client_addr) = target.boot();
        let before = server.fs().list("/").unwrap_or_default();
        FspForkSession {
            net,
            server,
            client_addr,
            before,
            login: login_gate.then_some(false),
        }
    }
}

impl SnapshotReplayTarget for FspForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, is_witness) = delivery;
        let login_len = 3usize; // user (1 B) + token (2 B)
        if let Some(logged_in) = self.login {
            if wire.len() == login_len {
                let Ok(fields) = wire_to_fields(&login_layout(), wire) else {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("login:malformed".to_string());
                    return;
                };
                let (user, token) = (fields[0], fields[1]);
                let accepted = user < LOGIN_MAX_USER && token < LOGIN_SERVER_TOKEN_CAP;
                outcome.accepted_each.push(accepted);
                if !accepted {
                    outcome.effects.push("login:rejected".to_string());
                    return;
                }
                self.login = Some(true);
                outcome.effects.push("login:ok".to_string());
                if *is_witness && token >= LOGIN_CLIENT_TOKEN_CAP {
                    // Triage family: a session no correct client opened.
                    outcome.effects.push("family:forged-login".to_string());
                }
                return;
            }
            if !logged_in {
                outcome.accepted_each.push(false);
                outcome.effects.push("rejected:no-login".to_string());
                return;
            }
        }
        let accepted_before = self.server.accepted;
        let server_addr = self.server.addr().clone();
        self.net
            .send(self.client_addr.clone(), server_addr, wire.clone());
        self.server.poll(&mut self.net);
        outcome
            .accepted_each
            .push(self.server.accepted > accepted_before);
        while let Some(reply) = self.net.recv(&self.client_addr) {
            let code = if reply.payload.first() == Some(&0) {
                "ok"
            } else {
                "err"
            };
            outcome.effects.push(format!("reply:{code}"));
        }
        if *is_witness {
            if let Ok(msg) = FspMessage::from_wire(wire) {
                if let Some(family) = FspTarget::family_effect(&msg.field_values()) {
                    outcome.effects.push(family);
                }
            }
        }
    }

    fn snapshot(&self) -> TargetSnapshot {
        // `FspServerRuntime::clone` is the deep copy (fresh filesystem and
        // protection-table `Arc`s); `before` is boot-immutable and lives in
        // the session itself.
        TargetSnapshot::of((self.net.clone(), self.server.clone(), self.login))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) {
        let (net, server, login) = snapshot
            .get::<(Network, FspServerRuntime, Option<bool>)>()
            .expect("an FSP fork session restores FSP snapshots");
        self.net = net.clone();
        self.server = server.clone();
        self.login = *login;
    }

    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        let after = self.server.fs().list("/").unwrap_or_default();
        for name in &after {
            if !self.before.contains(name) {
                outcome.effects.push(format!("fs:+{name}"));
            }
        }
        for name in &self.before {
            if !after.contains(name) {
                outcome.effects.push(format!("fs:-{name}"));
            }
        }
    }
}

/// The FSP protocol as a [`TargetSpec`].
///
/// The spec's client programs are the configured utilities, the server
/// carries the configured patch toggles, and the replay factory boots an
/// [`FspTarget`] mirroring both. The default is the §6.2 accuracy setup.
#[derive(Clone, Debug)]
pub struct FspSpec {
    /// Utilities/commands analyzed (default: the paper's eight).
    pub commands: Vec<Command>,
    /// Client-side config (glob expansion on/off).
    pub client: FspClientConfig,
    /// Server-side config (bug patches for control experiments).
    pub server: FspServerConfig,
}

impl Default for FspSpec {
    fn default() -> FspSpec {
        FspSpec {
            commands: Command::ANALYSIS_SET.to_vec(),
            client: FspClientConfig::default(),
            server: FspServerConfig::default(),
        }
    }
}

impl FspSpec {
    /// The §6.2 accuracy setup: eight utilities, no glob modeling (isolates
    /// the 80 mismatched-length classes) — the registry default.
    pub fn accuracy() -> FspSpec {
        FspSpec::default()
    }

    /// The §6.3 wildcard setup: glob expansion modeled, so literal `*`
    /// becomes un-generable and the wildcard family appears.
    pub fn wildcard() -> FspSpec {
        FspSpec {
            client: FspClientConfig {
                glob_expansion: true,
                ..FspClientConfig::default()
            },
            ..FspSpec::default()
        }
    }

    /// Restricts the analysis to `n` commands (smaller, faster runs).
    pub fn with_commands(mut self, n: usize) -> FspSpec {
        self.commands.truncate(n.max(1));
        // The server must dispatch the same subset or client messages for
        // missing commands would all become trivially Trojan.
        self.server.commands = self.commands.clone();
        self
    }

    /// The utilities the login→command session exercises: a two-command
    /// slice of the analysis set keeps the session exploration (login tree
    /// × command tree) proportionate while still covering both Trojan
    /// families.
    pub fn session_commands(&self) -> &[Command] {
        let n = self.commands.len().min(2);
        &self.commands[..n]
    }
}

impl TargetSpec for FspSpec {
    fn name(&self) -> &'static str {
        "fsp"
    }

    fn description(&self) -> &'static str {
        "FSP 2.8.1b26 file transfer: mismatched-length and wildcard Trojans (§6.2–6.3)"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        layout()
    }

    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        self.commands
            .iter()
            .map(|&cmd| {
                Box::new(FspClient::new(cmd, self.client.clone())) as Box<dyn NodeProgram + Sync>
            })
            .collect()
    }

    fn server(&self) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(FspServer::new(self.server.clone()))
    }

    fn expected_trojans(&self) -> Option<usize> {
        // Exact only for the parse-only length-mismatch model; wildcard
        // runs add one report per exact-length accepting path.
        if self.client.glob_expansion {
            None
        } else {
            Some(expected_length_mismatch_trojans(self.commands.len()))
        }
    }

    fn classify(&self, report: &TrojanReport) -> String {
        match classify(report) {
            TrojanFamily::LengthMismatch { .. } => "len-mismatch".to_string(),
            TrojanFamily::Wildcard { .. } => "wildcard".to_string(),
            TrojanFamily::Other => "other".to_string(),
        }
    }

    fn replay_target(&self) -> Box<dyn ReplayTarget> {
        Box::new(FspTarget::new(
            self.server.clone(),
            self.client.glob_expansion,
        ))
    }

    fn sessions(&self) -> Vec<SessionSpec> {
        let commands = self.session_commands();
        // Session clients: index 0 is the login utility, 1.. are the
        // command utilities (see `session_clients`).
        let command_clients = (1..=commands.len()).collect();
        vec![SessionSpec::new(
            "login-command",
            vec![
                SessionSlot::new("login", login_layout(), vec![0]),
                SessionSlot::new("command", layout(), command_clients),
            ],
        )
        // Every accepting session path hosts at least the forged-login
        // Trojan, so the count is the accepting-path census — exact for
        // both the accuracy and the wildcard client models.
        .expecting(expected_session_trojans(commands.len()))]
    }

    fn session_clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        let mut clients: Vec<Box<dyn NodeProgram + Sync + '_>> = vec![Box::new(FspLoginClient)];
        clients.extend(self.session_commands().iter().map(|&cmd| {
            Box::new(FspClient::new(cmd, self.client.clone())) as Box<dyn NodeProgram + Sync>
        }));
        clients
    }

    fn session_server(&self, _name: &str) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(FspSessionServer::new(FspServerConfig {
            commands: self.session_commands().to_vec(),
            ..self.server.clone()
        }))
    }

    fn session_replay_target(&self, _name: &str) -> Box<dyn ReplayTarget> {
        Box::new(FspSessionTarget::new(
            FspServerConfig {
                commands: self.session_commands().to_vec(),
                ..self.server.clone()
            },
            self.client.glob_expansion,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LOGIN_CLIENT_TOKEN_CAP, LOGIN_MAX_USER, LOGIN_SERVER_TOKEN_CAP};
    use achilles::AchillesSession;

    #[test]
    fn spec_session_matches_the_legacy_pipeline() {
        // Pin the session against the original hand-wired pipeline
        // (client predicate → preprocess → server search on a fresh pool
        // and solver), rebuilt inline so a behavioral divergence in
        // `AchillesSession` cannot hide.
        let spec = FspSpec::accuracy().with_commands(2);
        let direct = {
            use crate::client::extract_client_predicate;
            use achilles::{prepare_client_workers, run_trojan_search, FieldMask, Optimizations};
            use achilles_solver::{Solver, TermPool};
            use achilles_symvm::{ExploreConfig, SymMessage};

            let mut pool = TermPool::new();
            let mut solver = Solver::new();
            let client = extract_client_predicate(
                &mut pool,
                &mut solver,
                &spec.commands,
                &spec.client,
                &ExploreConfig::default(),
            );
            let server_msg = SymMessage::fresh(&mut pool, &layout(), "msg");
            let prepared = prepare_client_workers(
                &mut pool,
                &mut solver,
                client,
                server_msg.clone(),
                FieldMask::none(),
                Optimizations::default(),
                1,
            );
            let explore = ExploreConfig {
                recv_script: vec![server_msg],
                ..ExploreConfig::default()
            };
            run_trojan_search(
                &mut pool,
                &mut solver,
                &prepared,
                &FspServer::new(spec.server.clone()),
                explore,
                Optimizations::default(),
                true,
            )
        };
        let report = AchillesSession::new(&spec).run();
        assert_eq!(report.trojans.len(), direct.reports.len());
        let fields = |ts: &[TrojanReport]| {
            ts.iter()
                .map(|t| (t.server_path_id, t.witness_fields.clone(), t.verified))
                .collect::<Vec<_>>()
        };
        assert_eq!(fields(&report.trojans), fields(&direct.reports));
        assert_eq!(report.server_paths, direct.server_paths);
        assert_eq!(spec.expected_trojans(), Some(report.trojans.len()));
    }

    #[test]
    fn declared_session_discovers_forged_logins_and_attributes_slots() {
        let spec = FspSpec::accuracy();
        let mut session = AchillesSession::new(&spec);
        let reports = session.run_sessions();
        assert_eq!(reports.len(), 1, "one declared session");
        let r = &reports[0];
        assert_eq!(r.session, "login-command");
        assert_eq!(r.slot_names, vec!["login", "command"]);
        assert_eq!(Some(r.trojans.len()), r.expected_trojans);
        let mut saw_command_slot = false;
        for (t, slots) in r.trojans.iter().zip(&r.trojan_slots) {
            assert!(
                slots.contains(&0),
                "every accepting session path hosts the forged login"
            );
            saw_command_slot |= slots.contains(&1);
            let parts = r.split_fields(&t.witness_fields);
            let (user, token) = (parts[0][0], parts[0][1]);
            assert!(user < LOGIN_MAX_USER);
            assert!(
                (LOGIN_CLIENT_TOKEN_CAP..LOGIN_SERVER_TOKEN_CAP).contains(&token),
                "login token {token} in the server-only window"
            );
        }
        assert!(
            saw_command_slot,
            "NUL paths additionally host the mismatched-length command Trojan"
        );
    }

    #[test]
    fn replay_factory_mirrors_the_analyzed_server() {
        let mut spec = FspSpec::accuracy().with_commands(1);
        spec.server.check_actual_length = true;
        let target = spec.replay_target();
        assert_eq!(target.name(), "fsp");
        // A benign request is generable; the patched server still boots.
        assert!(target.client_generable(&target.benign_fields()));
    }
}
