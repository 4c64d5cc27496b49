//! Timeline tracing: spans on named tracks, exportable as Chrome trace JSON
//! (load in `chrome://tracing` / Perfetto) or rendered as an ASCII timeline.
//!
//! Used to reproduce the paper's Fig. 9 (overlapped exchange operations).

use std::fmt::Write as _;

use crate::metrics::json_escape;
use crate::name::Name;
use crate::time::SimTime;

/// Identifies a trace track (rendered as one row / thread in the viewer).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TrackId(usize);

/// A completed interval on a track.
#[derive(Clone, Debug)]
pub struct Span {
    /// Track the span belongs to.
    pub track: TrackId,
    /// Display name (e.g. "pack", "Isend").
    pub name: String,
    /// Category; its first letter is used in ASCII rendering.
    pub category: &'static str,
    /// Span start (virtual time).
    pub start: SimTime,
    /// Span end (virtual time).
    pub end: SimTime,
}

/// Trace recorder. Disabled by default — recording costs nothing until
/// [`Trace::enable`] is called.
pub struct Trace {
    enabled: bool,
    tracks: Vec<Name>,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// A disabled trace with no tracks.
    pub fn new() -> Self {
        Trace {
            enabled: false,
            tracks: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Begin recording spans.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register a named track. Call regardless of enablement so ids are
    /// stable whether or not the trace records. A deferred [`Name`] is
    /// formatted when an export or [`Trace::track_name`] first reads it,
    /// whether the track was added before or after [`Trace::enable`].
    pub fn add_track(&mut self, name: impl Into<Name>) -> TrackId {
        self.tracks.push(name.into());
        TrackId(self.tracks.len() - 1)
    }

    /// Record a completed `[start, end]` span. No-op while disabled.
    pub fn record(
        &mut self,
        track: TrackId,
        name: impl Into<String>,
        category: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            track,
            name: name.into(),
            category,
            start,
            end,
        });
    }

    /// All recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Name of track `t`.
    pub fn track_name(&self, t: TrackId) -> &str {
        self.tracks[t.0].get()
    }

    /// Serialize as Chrome trace-event JSON ("X" complete events,
    /// microsecond timestamps). Hand-rolled writer: the format is trivial and
    /// this avoids a JSON dependency.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (i, name) in self.tracks.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("{\"ph\":\"M\",\"pid\":0,\"tid\":");
            let _ = write!(out, "{i}");
            out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
            json_escape(name.get(), &mut out);
            out.push_str("\"}}");
        }
        for s in &self.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("{\"ph\":\"X\",\"pid\":0,\"tid\":");
            let _ = write!(out, "{}", s.track.0);
            out.push_str(",\"name\":\"");
            json_escape(&s.name, &mut out);
            out.push_str("\",\"cat\":\"");
            json_escape(s.category, &mut out);
            let ts = s.start.picos() as f64 / 1e6; // ps -> us
            let dur = (s.end.picos().saturating_sub(s.start.picos())) as f64 / 1e6;
            let _ = write!(out, "\",\"ts\":{ts:.3},\"dur\":{dur:.3}}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Render an ASCII timeline (one row per track), `width` characters wide.
    /// Each span is drawn with the first letter of its category. The window
    /// starts at the earliest recorded span (idle prefix clipped).
    pub fn to_ascii(&self, width: usize) -> String {
        let t_min = self
            .spans
            .iter()
            .map(|s| s.start.picos())
            .min()
            .unwrap_or(0);
        let t_end = self
            .spans
            .iter()
            .map(|s| s.end.picos())
            .max()
            .unwrap_or(0)
            .max(t_min + 1)
            - t_min;
        let label_w = self
            .tracks
            .iter()
            .map(|t| t.get().len())
            .max()
            .unwrap_or(0)
            .min(28);
        let mut out = String::new();
        for (i, tname) in self.tracks.iter().enumerate() {
            let mut row = vec![b'.'; width];
            let mut any = false;
            for s in &self.spans {
                if s.track.0 != i {
                    continue;
                }
                any = true;
                let a =
                    ((s.start.picos() - t_min) as u128 * width as u128 / t_end as u128) as usize;
                let b = ((s.end.picos() - t_min) as u128 * width as u128 / t_end as u128) as usize;
                let b = b.clamp(a + 1, width).max(a + 1).min(width);
                let ch = s.category.bytes().next().unwrap_or(b'#');
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            if !any {
                continue;
            }
            let tname = tname.get();
            let _ = writeln!(
                out,
                "{:>label_w$} |{}|",
                &tname[..tname.len().min(28)],
                String::from_utf8_lossy(&row)
            );
        }
        let _ = writeln!(
            out,
            "{:>label_w$}  {:.3} {:-^w$} {:.3} ms",
            "",
            t_min as f64 / 1e9,
            "time",
            (t_min + t_end) as f64 / 1e9,
            w = width.saturating_sub(16)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::new();
        let track = tr.add_track("gpu0");
        tr.record(track, "pack", "kernel", t(0), t(10));
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn enabled_trace_records_spans() {
        let mut tr = Trace::new();
        tr.enable();
        let track = tr.add_track("gpu0");
        tr.record(track, "pack", "kernel", t(0), t(10));
        tr.record(track, "copy", "memcpy", t(10), t(30));
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.track_name(track), "gpu0");
    }

    #[test]
    fn chrome_json_is_well_formed_ish() {
        let mut tr = Trace::new();
        tr.enable();
        let track = tr.add_track("gpu \"0\"");
        tr.record(track, "pack\n", "kernel", t(5), t(15));
        let json = tr.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\\\"0\\\""), "quotes escaped: {json}");
        assert!(json.contains("\\n"), "newline escaped");
        assert!(json.contains("\"ts\":5.000"));
        assert!(json.contains("\"dur\":10.000"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn deferred_track_names_export_as_formatted_text() {
        let mut tr = Trace::new();
        let early = tr.add_track(Name::deferred(
            |[n, g, ..]| format!("n{n}.g{g} default"),
            &[0, 4],
        ));
        tr.enable();
        let late = tr.add_track(Name::deferred(|[r, ..]| format!("rank{r} mpi"), &[1]));
        tr.record(early, "pack", "kernel", t(0), t(10));
        tr.record(late, "send", "mpi", t(10), t(20));
        let json = tr.to_chrome_json();
        assert!(json
            .contains("\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"n0.g4 default\"}"));
        assert!(json.contains("{\"name\":\"rank1 mpi\"}"));
        let ascii = tr.to_ascii(40);
        assert!(ascii.contains("n0.g4 default |"), "{ascii}");
        assert_eq!(tr.track_name(late), "rank1 mpi");
    }

    #[test]
    fn ascii_render_shows_spans() {
        let mut tr = Trace::new();
        tr.enable();
        let a = tr.add_track("gpu0");
        let b = tr.add_track("gpu1");
        tr.record(a, "pack", "kernel", t(0), t(50));
        tr.record(b, "copy", "memcpy", t(50), t(100));
        let s = tr.to_ascii(40);
        assert!(s.contains("gpu0"));
        assert!(s.contains('k'), "kernel span rendered: {s}");
        assert!(s.contains('m'), "memcpy span rendered: {s}");
    }
}
