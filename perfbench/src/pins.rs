//! Report digests and the pinned reference digests they are checked
//! against.
//!
//! A digest covers a report's bytes with the backend named in the spec
//! text and in `realized.backend` masked out, so a `cached` run and the
//! `exact` reference run of the same spec digest equally exactly when
//! their decisions agree. The pins in `pins.txt` were generated with
//! `backend=exact` (`perfbench --pin`); they are keyed by workload,
//! input variant and cell.

use std::collections::HashMap;
use std::sync::OnceLock;

const PINS: &str = include_str!("../pins.txt");

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a rendered report whose spec says `backend=spec_backend`,
/// or `None` unless its `realized.backend` is exactly
/// `realized_backend` (a silent fallback to another kernel is a
/// failure, not a different digest).
pub fn report_digest(report: &str, spec_backend: &str, realized_backend: &str) -> Option<u64> {
    let realized = format!("\"backend\":\"{realized_backend}\"");
    if report.matches(&realized).count() != 1 {
        return None;
    }
    // Spec text is embedded as a JSON string, so its newline is `\n`.
    let spec_line = format!("backend={spec_backend}\\n");
    let masked =
        report
            .replacen(&realized, "\"backend\":\"*\"", 1)
            .replacen(&spec_line, "backend=*\\n", 1);
    Some(fnv1a(masked.as_bytes()))
}

/// The pinned digests, parsed once.
fn table() -> &'static HashMap<String, u64> {
    static TABLE: OnceLock<HashMap<String, u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        PINS.lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let (w, v, k, d) = (f.next()?, f.next()?, f.next()?, f.next()?);
                Some((key(w, v.parse().ok()?, k), u64::from_str_radix(d, 16).ok()?))
            })
            .collect()
    })
}

fn key(workload: &str, variant: u64, cell: &str) -> String {
    format!("{workload} {variant} {cell}")
}

/// Whether `digest` equals the pin for (`workload`, `variant`, `cell`);
/// a missing pin or digest never matches.
pub fn matches(workload: &str, variant: u64, cell: &str, digest: Option<u64>) -> bool {
    digest.is_some() && table().get(&key(workload, variant, cell)).copied() == digest
}

/// One line of `pins.txt`.
pub fn line(workload: &str, variant: u64, cell: &str, digest: u64) -> String {
    format!("{} {digest:016x}", key(workload, variant, cell))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "{\"name\":\"x\",\"spec\":\"name=x\\nbackend=cached\\nmac=sinr\\n\",\
                          \"realized\":{\"n\":4,\"backend\":\"cached\"},\"metrics\":{}}";

    #[test]
    fn digest_masks_the_backend_only() {
        let exact = REPORT.replace("cached", "exact");
        assert_eq!(
            report_digest(REPORT, "cached", "cached"),
            report_digest(&exact, "exact", "exact")
        );
        let other = REPORT.replace("\"n\":4", "\"n\":5");
        assert_ne!(
            report_digest(REPORT, "cached", "cached"),
            report_digest(&other, "cached", "cached")
        );
    }

    #[test]
    fn a_fallback_backend_is_refused() {
        let fell_back = REPORT.replace("\"backend\":\"cached\"", "\"backend\":\"hybrid\"");
        assert_eq!(report_digest(&fell_back, "cached", "cached"), None);
        assert!(!matches("mac-cached-n1024", 0, "run", None));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
