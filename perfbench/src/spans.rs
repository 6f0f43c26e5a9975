//! In-memory span recording and the self-time fold.
//!
//! The traced run records one tree per statement from the benchmark's own
//! code: the public call that ran the statement is the root, and the
//! layer-by-layer replay of the same statement supplies its children. A
//! span's self time is its duration minus the part of its interval that
//! its children cover; summing self time by layer gives the share table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same log; `None` for a tree root.
    pub parent: Option<usize>,
    /// The statement this span belongs to.
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store, written out once the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start, end)` as a span; returns its index for children.
    pub fn push(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump: request, index, parent, name, start, end.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("request\tspan\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals` after clipping each to `[lo, hi)`.
/// Overlapping children are counted once.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the time its direct
/// children cover inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Sum self time by the key `key_of` gives each span name.
pub fn fold<F: Fn(&str) -> String>(spans: &[Span], key_of: F) -> BTreeMap<String, u64> {
    let mut by_key = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_key.entry(key_of(&s.name)).or_insert(0) += own;
    }
    by_key
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(spans: &[(Option<usize>, &str, u64, u64)]) -> Vec<Span> {
        spans
            .iter()
            .map(|&(parent, name, start_ns, end_ns)| Span {
                name: name.into(),
                start_ns,
                end_ns,
                parent,
                request: 1,
            })
            .collect()
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = log(&[
            (None, "root", 0, 100),
            (Some(0), "a", 10, 30),
            (Some(0), "b", 50, 90),
            (Some(2), "b.1", 60, 70),
        ]);
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = log(&[
            (None, "root", 0, 100),
            (Some(0), "a", 10, 60),
            (Some(0), "b", 40, 80),
            (Some(0), "c", 45, 50),
        ]);
        // a ∪ b ∪ c = [10, 80): 70 covered, 30 own.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = log(&[
            (None, "root", 100, 200),
            (Some(0), "early", 50, 120),
            (Some(0), "late", 180, 400),
        ]);
        // [100, 120) and [180, 200) are covered: 60 of 100 is own time.
        assert_eq!(self_times(&spans)[0], 60);
        // Children covering the whole parent leave zero, never underflow.
        let spans = log(&[(None, "root", 0, 10), (Some(0), "x", 0, 50)]);
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn fold_sums_self_time_by_layer() {
        let spans = log(&[
            (None, "call", 0, 100),
            (Some(0), "parse", 0, 10),
            (Some(0), "bind", 10, 20),
            (Some(0), "rewrite", 20, 25),
            (None, "call", 200, 250),
            (Some(4), "parse", 200, 205),
        ]);
        let layer = |n: &str| match n {
            "parse" => "parser".to_string(),
            "bind" | "rewrite" => "algebra".to_string(),
            _ => "net".to_string(),
        };
        let f = fold(&spans, layer);
        assert_eq!(f["parser"], 15);
        assert_eq!(f["algebra"], 15);
        assert_eq!(f["net"], 75 + 45);
    }
}
