//! Harness-side spans: one per public call the benchmark makes into the
//! library, kept in memory and written out as a Chrome trace at exit.
//!
//! Every interval is measured the same way whether or not spans are
//! recorded (`foresight_util::timer::time`), so the traced and untraced
//! rounds differ only by the bookkeeping this module adds.

use foresight_util::timer::{time, Timer};
use std::collections::BTreeMap;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `sz.compress`.
    pub name: &'static str,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round the span belongs to (0 = set-up).
    pub round: u32,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Times calls and, while enabled, records them as spans.
pub struct Recorder {
    origin: Timer,
    enabled: bool,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self { origin: Timer::new(), enabled, round: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Turns span recording on or off; timing is unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Labels the spans that follow with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `f`, returning its result and wall seconds. `f` receives the
    /// recorder so calls made inside it nest under this span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        if !self.enabled {
            return time(|| f(self));
        }
        let id = self.spans.len();
        let start_s = self.origin.elapsed_secs();
        self.spans.push(Span {
            name,
            start_s,
            dur_s: 0.0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        let (out, secs) = time(|| f(self));
        self.open.pop();
        self.spans[id].dur_s = secs;
        (out, secs)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (the subset `trace-check` validates).
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut out = String::from("[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}},\n"
        ));
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"caller\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("none"), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span_id\":\"{id}\",\"parent\":\"{parent}\",\"round\":{}}}}}",
                s.name,
                s.start_s * 1e6,
                s.dur_s * 1e6,
                s.round
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.dur_s).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_s;
        }
    }
    own
}

/// Per-name totals over the spans `keep` selects.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of durations.
    pub busy_s: f64,
    /// Sum of self times.
    pub self_s: f64,
}

/// The layer self-time table: one row per span name.
pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut table: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own_s) in spans.iter().zip(own) {
        if keep(s) {
            let row = table.entry(s.name).or_default();
            row.calls += 1;
            row.busy_s += s.dur_s;
            row.self_s += own_s;
        }
    }
    table
}

/// Durations of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, dur_s: f64, parent: Option<usize>) -> Span {
        Span { name, start_s, dur_s, parent, round: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // pack [0, 10) holds two adjacent children and one grandchild.
        let spans = vec![
            span("store.pack", 0.0, 10.0, None),
            span("store.add_field", 0.0, 4.0, Some(0)),
            span("store.add_field", 4.0, 3.0, Some(0)),
            span("sz.compress", 4.5, 2.0, Some(2)),
            span("store.verify", 10.0, 1.0, None),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 4.0, 1.0, 2.0, 1.0]);
        let table = totals_by_name(&spans, |_| true);
        assert_eq!(table["store.add_field"], NameTotal { calls: 2, busy_s: 7.0, self_s: 5.0 });
        assert_eq!(table["store.pack"].self_s, 3.0);
        let total_self: f64 = table.values().map(|t| t.self_s).sum();
        assert_eq!(total_self, 11.0, "self times partition the top-level time");
        assert_eq!(spans[3].layer(), "sz");
    }

    #[test]
    fn recorder_nests_and_can_be_switched_off() {
        let mut rec = Recorder::new(true);
        rec.set_round(2);
        let ((), outer) = rec.span("store.pack", |r| {
            r.span("store.finish", |_| ());
        });
        rec.set_enabled(false);
        let (v, _) = rec.span("store.verify", |_| 7);
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].round, 2);
        assert_eq!(spans[0].dur_s, outer);
        assert!(spans[1].dur_s <= spans[0].dur_s);
        let json = rec.chrome_trace("bench");
        assert!(json.contains("\"span_id\":\"1\"") && json.contains("\"parent\":\"0\""));
    }
}
