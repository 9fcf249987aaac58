//! The PBFT Trojan family (§6.2). The paper reports that "Achilles
//! completed the PBFT analysis in just a few seconds" and discovered "a
//! single type of Trojan message" — a request whose authenticator field
//! cannot come from a correct client, accepted because the primary never
//! checks it. The analysis itself runs through
//! [`AchillesSession`](achilles::AchillesSession) over
//! [`PbftSpec`](crate::PbftSpec).

use achilles::TrojanReport;

use crate::protocol::{PbftRequest, MAC_PLACEHOLDER};

/// Classification of PBFT Trojan reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PbftTrojanFamily {
    /// A request whose authenticator vector no correct client produces —
    /// the MAC attack.
    MacAttack,
    /// Anything else (unexpected).
    Other,
}

/// Classifies a report by its witness.
pub fn classify(report: &TrojanReport) -> PbftTrojanFamily {
    let req = PbftRequest::from_field_values(&report.witness_fields);
    if req.macs.iter().any(|&m| u64::from(m) != MAC_PLACEHOLDER) {
        PbftTrojanFamily::MacAttack
    } else {
        PbftTrojanFamily::Other
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use achilles::{AchillesReport, AchillesSession};

    use super::*;
    use crate::replica::PbftReplicaConfig;
    use crate::PbftSpec;

    fn run(spec: &PbftSpec) -> AchillesReport {
        AchillesSession::new(spec).run()
    }

    #[test]
    fn rediscovers_the_mac_attack() {
        let result = run(&PbftSpec::paper());
        let families: Vec<PbftTrojanFamily> = result.trojans.iter().map(classify).collect();
        // One report per accepting path (read-only + pre_prepare), all of
        // the same single type — the paper: "Achilles discovered a single
        // type of Trojan message … on all execution paths in the server".
        assert_eq!(result.trojans.len(), 2);
        assert_eq!(families, vec![PbftTrojanFamily::MacAttack; 2]);
        assert!(result.trojans.iter().all(|t| t.verified));
    }

    #[test]
    fn witnesses_carry_corrupted_authenticators() {
        let result = run(&PbftSpec::paper());
        for t in &result.trojans {
            let req = PbftRequest::from_field_values(&t.witness_fields);
            assert!(
                req.macs.iter().any(|&m| u64::from(m) != MAC_PLACEHOLDER),
                "the witness must differ from the placeholder authenticator"
            );
            // Everything else about the witness is well-formed.
            assert_eq!(u64::from(req.tag), crate::protocol::REQUEST_TAG);
            assert!(u64::from(req.cid) < crate::mac::N_CLIENTS);
        }
    }

    #[test]
    fn patched_replica_is_trojan_free() {
        let spec = PbftSpec {
            replica: PbftReplicaConfig { verify_macs: true },
            ..PbftSpec::paper()
        };
        let result = run(&spec);
        assert_eq!(
            result.trojans.len(),
            0,
            "MAC verification closes the vulnerability"
        );
    }

    #[test]
    fn analysis_is_fast() {
        // The paper: "Due to the simplicity of checks on the client request
        // fields, Achilles completed the PBFT analysis in just a few
        // seconds." Keep a generous bound for slow CI machines.
        let started = Instant::now();
        run(&PbftSpec::paper());
        assert!(started.elapsed() < Duration::from_secs(30));
    }
}
