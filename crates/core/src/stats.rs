//! Exchange-plan statistics: which methods were selected and how many bytes
//! each carries per exchange.

use std::collections::BTreeMap;
use std::fmt;

use crate::method::Method;

/// Summary of a domain's specialized communication plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Per method: `(transfer count, bytes per exchange)` for transfers this
    /// rank *sends*.
    pub sends: BTreeMap<Method, (usize, u64)>,
}

impl PlanSummary {
    pub(crate) fn record(&mut self, m: Method, bytes: u64) {
        let e = self.sends.entry(m).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes;
    }

    /// Total transfers sent per exchange.
    pub fn total_sends(&self) -> usize {
        self.sends.values().map(|v| v.0).sum()
    }

    /// Transfers using `m`.
    pub fn count(&self, m: Method) -> usize {
        self.sends.get(&m).map(|v| v.0).unwrap_or(0)
    }

    /// Bytes per exchange carried by `m`.
    pub fn bytes(&self, m: Method) -> u64 {
        self.sends.get(&m).map(|v| v.1).unwrap_or(0)
    }
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan[")?;
        let mut first = true;
        for (m, (n, b)) in &self.sends {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{m}: {n}x {:.2} MiB", *b as f64 / (1 << 20) as f64)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = PlanSummary::default();
        s.record(Method::Staged, 100);
        s.record(Method::Staged, 50);
        s.record(Method::Kernel, 10);
        assert_eq!(s.count(Method::Staged), 2);
        assert_eq!(s.bytes(Method::Staged), 150);
        assert_eq!(s.total_sends(), 3);
        assert_eq!(s.bytes(Method::Kernel), 10);
        assert_eq!(s.count(Method::PeerMemcpy), 0);
    }

    #[test]
    fn display_lists_methods() {
        let mut s = PlanSummary::default();
        s.record(Method::PeerMemcpy, 1 << 20);
        let out = s.to_string();
        assert!(out.contains("peer"));
        assert!(out.contains("1.00 MiB"));
    }
}
