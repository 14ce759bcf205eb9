//! Session timelines in the style of the paper's Fig. 7.

/// What an event represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Cryptographic/computational work on one ECU.
    Compute,
    /// A message crossing the CAN-FD bus.
    Transfer,
}

/// One timeline entry.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Start time, ms from session begin.
    pub at_ms: f64,
    /// Duration in ms.
    pub duration_ms: f64,
    /// Acting party ("BMS", "EVCC", "bus").
    pub actor: String,
    /// Human-readable label (Fig. 7 vocabulary).
    pub label: String,
    /// Compute or transfer.
    pub kind: EventKind,
}

/// An ordered event log for one session establishment.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    events: Vec<TimelineEvent>,
    cursor_ms: f64,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event at the current cursor and advances it.
    pub fn push(&mut self, actor: &str, label: &str, duration_ms: f64, kind: EventKind) {
        self.events.push(TimelineEvent {
            at_ms: self.cursor_ms,
            duration_ms,
            actor: actor.to_string(),
            label: label.to_string(),
            kind,
        });
        self.cursor_ms += duration_ms;
    }

    /// Total elapsed time.
    pub fn total_ms(&self) -> f64 {
        self.cursor_ms
    }

    /// All events in order.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Sum of bus-transfer time.
    pub fn transfer_ms(&self) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Transfer)
            .map(|e| e.duration_ms)
            .sum()
    }

    /// Renders a Fig.-7-style text timeline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>10}  {:>10}  {:<6}  {}\n",
            "t [ms]", "dur [ms]", "actor", "event"
        ));
        for e in &self.events {
            out.push_str(&format!(
                "{:>10.3}  {:>10.3}  {:<6}  {}{}\n",
                e.at_ms,
                e.duration_ms,
                e.actor,
                e.label,
                if e.kind == EventKind::Transfer {
                    "  ⇄"
                } else {
                    ""
                }
            ));
        }
        out.push_str(&format!("{:>10.3}  total\n", self.total_ms()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_advances() {
        let mut t = Timeline::new();
        t.push("BMS", "Request gen.", 7.7, EventKind::Compute);
        t.push("bus", "A1", 0.9, EventKind::Transfer);
        t.push("EVCC", "XG gen.", 323.3, EventKind::Compute);
        assert_eq!(t.events().len(), 3);
        assert!((t.total_ms() - 331.9).abs() < 1e-9);
        assert!((t.events()[1].at_ms - 7.7).abs() < 1e-9);
    }

    #[test]
    fn aggregations() {
        let mut t = Timeline::new();
        t.push("BMS", "a", 10.0, EventKind::Compute);
        t.push("bus", "m", 1.0, EventKind::Transfer);
        t.push("EVCC", "b", 20.0, EventKind::Compute);
        t.push("bus", "m2", 2.0, EventKind::Transfer);
        assert_eq!(t.transfer_ms(), 3.0);
    }

    #[test]
    fn render_contains_rows() {
        let mut t = Timeline::new();
        t.push("BMS", "Request gen.", 7.7, EventKind::Compute);
        let s = t.render();
        assert!(s.contains("Request gen."));
        assert!(s.contains("total"));
    }
}
