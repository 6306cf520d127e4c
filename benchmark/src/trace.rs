//! Spans recorded by the traced run, kept in memory and written as JSON
//! lines when the run ends.
//!
//! A span is one call into a layer's public function: its name (the
//! layer's module path), the interval index it belongs to as its id, start
//! and end relative to the run's epoch, and the span that caused it. Every
//! span of the first [`KEEP_INTERVALS`] traced intervals is kept; after
//! that only per-name totals grow, so a long run's memory stays bounded.

use crate::clock::{ns_between, Stamp};
use crate::json::Json;

/// Intervals whose spans are kept individually.
pub const KEEP_INTERVALS: u64 = 10_000;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: usize,
    /// The interval the span belongs to.
    pub id: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The causing span's name index, if any.
    pub parent: Option<usize>,
}

/// Per-name span count and summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans recorded under the name.
    pub count: u64,
    /// Their summed durations in nanoseconds.
    pub ns: u64,
}

/// Collects spans for a fixed table of names.
#[derive(Debug)]
pub struct Recorder {
    epoch: Stamp,
    names: &'static [&'static str],
    spans: Vec<Span>,
    totals: Vec<Total>,
}

impl Recorder {
    /// A recorder for spans named from `names`, timed from `epoch`.
    #[must_use]
    pub fn new(names: &'static [&'static str], epoch: Stamp) -> Self {
        let per_interval = names.len();
        Recorder {
            epoch,
            names,
            // Allocated before timing starts, so keeping spans does not
            // allocate inside a measured interval.
            spans: Vec::with_capacity(per_interval * KEEP_INTERVALS as usize),
            totals: vec![Total::default(); names.len()],
        }
    }

    /// Records span `name` of interval `id` from `start` to `end`.
    ///
    /// # Panics
    ///
    /// Panics if `name` or `parent` is outside the name table.
    pub fn record(
        &mut self,
        name: usize,
        parent: Option<usize>,
        id: u64,
        start: Stamp,
        end: Stamp,
    ) {
        let dur = ns_between(start, end);
        let total = &mut self.totals[name];
        total.count += 1;
        total.ns = total.ns.saturating_add(dur);
        if id < KEEP_INTERVALS {
            self.spans.push(Span {
                name,
                id,
                start_ns: ns_between(self.epoch, start),
                end_ns: ns_between(self.epoch, end),
                parent,
            });
        }
    }

    /// The running per-name totals, indexed like the name table.
    #[must_use]
    pub fn totals(&self) -> &[Total] {
        &self.totals
    }

    /// The kept spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every kept span, then every total, one JSON object per
    /// line.
    ///
    /// # Errors
    ///
    /// Propagates a rendering failure (none occur for integer fields).
    pub fn to_json_lines(&self) -> Result<String, String> {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj([
                ("kind", Json::str("span")),
                ("name", Json::str(self.names[s.name])),
                ("id", Json::Num(s.id as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::str(self.names[p])),
                ),
            ]);
            out.push_str(&line.render()?);
            out.push('\n');
        }
        for (name, t) in self.names.iter().zip(&self.totals) {
            let line = Json::obj([
                ("kind", Json::str("total")),
                ("name", Json::str(*name)),
                ("count", Json::Num(t.count as f64)),
                ("total_ns", Json::Num(t.ns as f64)),
            ]);
            out.push_str(&line.render()?);
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::now;

    #[test]
    fn keeps_early_spans_and_totals_everything() {
        static NAMES: [&str; 2] = ["outer", "inner"];
        let epoch = now();
        let mut rec = Recorder::new(&NAMES, epoch);
        let (a, b) = (now(), now());
        rec.record(1, Some(0), 0, a, b);
        rec.record(0, None, 0, a, b);
        rec.record(1, Some(0), KEEP_INTERVALS, a, b);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.totals()[1].count, 2);
        let text = rec.to_json_lines().unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"parent\":\"outer\""));
    }
}
