//! Trojan families and the §6.2 counting arithmetic.
//!
//! Classifies Trojan reports into the two families of §6.3 (mismatched
//! string lengths, wildcard) and provides the paper's counting arithmetic:
//! with path lengths bounded below 5 there are exactly
//! `(1 + 2 + 3 + 4) × 8 = 80` mismatched-length Trojan classes. The
//! analysis itself runs through
//! [`AchillesSession`](achilles::AchillesSession) over
//! [`FspSpec`](crate::FspSpec).

use achilles::TrojanReport;

use crate::protocol::{Command, FspMessage, MAX_PATH, WILDCARD};

/// Which §6.3 bug a Trojan report exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrojanFamily {
    /// Real path length shorter than `bb_len` (extra-payload smuggling).
    LengthMismatch {
        /// The command of the witness.
        cmd: Command,
        /// Reported length (`bb_len`).
        reported: usize,
        /// True length (position of the first NUL).
        actual: usize,
    },
    /// A literal `*` in the path (correct clients always glob-expand).
    Wildcard {
        /// The command of the witness.
        cmd: Command,
    },
    /// Neither pattern (unexpected for FSP).
    Other,
}

/// Classifies a Trojan report by inspecting its concrete witness.
pub fn classify(report: &TrojanReport) -> TrojanFamily {
    let msg = FspMessage::from_field_values(&report.witness_fields);
    let cmd = match Command::from_code(msg.cmd) {
        Some(c) => c,
        None => return TrojanFamily::Other,
    };
    let reported = (msg.bb_len as usize).min(MAX_PATH);
    let actual = msg.buf[..reported]
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(reported);
    if actual < reported {
        return TrojanFamily::LengthMismatch {
            cmd,
            reported,
            actual,
        };
    }
    if msg.buf[..actual].contains(&WILDCARD) {
        return TrojanFamily::Wildcard { cmd };
    }
    TrojanFamily::Other
}

/// The number of mismatched-length Trojan classes the bounded protocol
/// admits — the paper's §6.2 arithmetic: for each reported length `L` there
/// are `L` possible true lengths, summed over lengths and the eight
/// utilities: `(1+2+3+4) × 8 = 80`.
pub fn expected_length_mismatch_trojans(commands: usize) -> usize {
    commands * (1..=MAX_PATH).sum::<usize>()
}

/// The number of wildcard Trojan *paths* (one per exact-length accepting
/// path) when glob expansion is modeled: `MAX_PATH × commands`.
pub fn expected_wildcard_trojans(commands: usize) -> usize {
    commands * MAX_PATH
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use achilles::{AchillesReport, AchillesSession};

    use super::*;
    use crate::FspSpec;

    fn run(spec: &FspSpec) -> AchillesReport {
        AchillesSession::new(spec).run()
    }

    /// `(length-mismatch, wildcard, other)` report counts.
    fn family_counts(trojans: &[TrojanReport]) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for t in trojans {
            match classify(t) {
                TrojanFamily::LengthMismatch { .. } => counts.0 += 1,
                TrojanFamily::Wildcard { .. } => counts.1 += 1,
                TrojanFamily::Other => counts.2 += 1,
            }
        }
        counts
    }

    #[test]
    fn two_command_accuracy_run_finds_all_length_trojans() {
        // Scaled-down accuracy experiment: 2 commands → 2 × (1+2+3+4) = 20
        // mismatched-length Trojans, zero false positives.
        let result = run(&FspSpec::accuracy().with_commands(2));
        assert_eq!(result.client.len(), 2 * MAX_PATH);
        assert_eq!(result.trojans.len(), expected_length_mismatch_trojans(2));
        assert_eq!(family_counts(&result.trojans), (20, 0, 0));
        assert!(
            result.trojans.iter().all(|t| t.verified),
            "no false positives (Table 1)"
        );
        // Discovery timestamps are monotone: the curve of Figure 10.
        assert!(
            result
                .trojans
                .windows(2)
                .all(|w| w[0].found_at <= w[1].found_at),
            "Trojans are reported in discovery order"
        );
    }

    #[test]
    fn wildcard_mode_discovers_the_glob_bug() {
        let result = run(&FspSpec::wildcard().with_commands(1));
        assert_eq!(
            family_counts(&result.trojans),
            (
                expected_length_mismatch_trojans(1),
                expected_wildcard_trojans(1),
                0
            )
        );
        assert!(result.trojans.iter().all(|t| t.verified));
        // The glob-mode client still yields Figure 11 matching samples.
        assert!(!result.samples.is_empty());
    }

    #[test]
    fn patched_server_has_no_length_trojans() {
        let mut spec = FspSpec::accuracy().with_commands(1);
        spec.server.check_actual_length = true;
        let result = run(&spec);
        assert_eq!(
            family_counts(&result.trojans).0,
            0,
            "patch closes the family"
        );
        assert_eq!(result.trojans.len(), 0);
    }

    #[test]
    fn fully_patched_server_in_wildcard_mode_is_clean() {
        let mut spec = FspSpec::wildcard().with_commands(1);
        spec.server.check_actual_length = true;
        spec.server.reject_wildcards = true;
        let result = run(&spec);
        assert_eq!(result.trojans.len(), 0, "both patches close all Trojans");
    }

    #[test]
    fn samples_show_predicate_narrowing() {
        let result = run(&FspSpec::accuracy().with_commands(2));
        assert!(!result.samples.is_empty());
        let max_match = result.samples.iter().map(|s| s.matching).max().unwrap();
        let min_match = result.samples.iter().map(|s| s.matching).min().unwrap();
        assert_eq!(
            max_match,
            result.client.len(),
            "short paths match everything"
        );
        assert!(min_match < max_match, "long paths match fewer predicates");
        // Deep samples never match more than shallow ones on average
        // (Figure 11's downward trend).
        let shallow: Vec<_> = result
            .samples
            .iter()
            .filter(|s| s.path_len <= 2)
            .map(|s| s.matching)
            .collect();
        let deep: Vec<_> = result
            .samples
            .iter()
            .filter(|s| s.path_len >= 8)
            .map(|s| s.matching)
            .collect();
        let avg = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        assert!(avg(&deep) < avg(&shallow), "matching decreases with depth");
    }

    #[test]
    fn classification_reads_witnesses() {
        let mut msg = FspMessage::request(Command::DelFile, b"ab");
        msg.bb_len = 3;
        msg.buf = [b'a', 0, b'x', 0];
        let report = TrojanReport {
            server_path_id: 0,
            constraints: vec![],
            witness_fields: msg.field_values(),
            active_clients: 0,
            verified: true,
            found_at: Duration::ZERO,
            notes: vec![],
        };
        assert_eq!(
            classify(&report),
            TrojanFamily::LengthMismatch {
                cmd: Command::DelFile,
                reported: 3,
                actual: 1
            }
        );
        let star = FspMessage::request(Command::Stat, b"a*");
        let report2 = TrojanReport {
            witness_fields: star.field_values(),
            ..report
        };
        assert_eq!(
            classify(&report2),
            TrojanFamily::Wildcard { cmd: Command::Stat }
        );
    }
}
