//! In-memory spans recorded by the benchmark around its calls into the
//! program, and the arithmetic that turns them into a per-layer table.
//!
//! A span has a name (the layer row it is charged to), a start and end in
//! microseconds since the tracer started, an optional parent, and a group
//! id shared by the spans of one step or one job. Spans are kept in memory
//! and written out once, at the end of a traced run.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer row the span's self time is charged to.
    pub name: &'static str,
    /// Start, µs since the tracer's origin.
    pub start_us: f64,
    /// End, µs since the tracer's origin.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Step or job id shared by the spans of one unit of work.
    pub group: u64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when enabled; every method is a no-op returning `None`
/// otherwise, so untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    /// µs since the tracer's origin.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Converts an instant taken by the caller to tracer time.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, group: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let t = self.now_us();
        self.spans.push(Span { name, start_us: t, end_us: t, parent, group });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Records a finished interval, clipped into its parent's interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        start_us: f64,
        end_us: f64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (mut s, mut e) = (start_us, end_us.max(start_us));
        if let Some(p) = parent {
            let ps = &self.spans[p];
            s = s.clamp(ps.start_us, ps.end_us);
            e = e.clamp(s, ps.end_us);
        }
        self.spans.push(Span { name, start_us: s, end_us: e, parent, group });
        Some(self.spans.len() - 1)
    }

    /// Lays out durations measured inside the program (e.g. kernel
    /// `LaunchStats.wall`) as back-to-back children from the parent's
    /// start. Only their durations are measured, so only self-time
    /// arithmetic, not their placement, is meaningful.
    pub fn record_inner(
        &mut self,
        parent: Option<usize>,
        group: u64,
        parts: &[(&'static str, f64)],
    ) {
        let Some(p) = parent else { return };
        let mut t = self.spans[p].start_us;
        for &(name, dur_us) in parts {
            self.record(name, parent, group, t, t + dur_us);
            t += dur_us;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = ce.max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span in µs: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_us.max(ps.start_us), s.end_us.min(ps.end_us));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans.iter().zip(children).map(|(s, c)| s.dur_us() - union_len(c)).collect()
}

/// Per-layer attribution of a traced region's wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// Wall time covered by the root spans, µs.
    pub wall_us: f64,
    /// µs charged to each layer row, excluding the roots' own time.
    pub rows: BTreeMap<&'static str, f64>,
    /// µs charged to root spans: benchmark time between calls into the
    /// program, which no layer claims.
    pub remainder_us: f64,
}

impl LayerTable {
    /// Rows plus remainder; equals [`LayerTable::wall_us`] up to rounding.
    pub fn total_us(&self) -> f64 {
        self.rows.values().sum::<f64>() + self.remainder_us
    }

    /// Remainder as a share of wall time.
    pub fn remainder_share(&self) -> f64 {
        if self.wall_us > 0.0 {
            self.remainder_us / self.wall_us
        } else {
            0.0
        }
    }

    /// Human-readable table, largest row first.
    pub fn render(&self, title: &str) -> String {
        let mut rows: Vec<(&str, f64)> = self.rows.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let pct = |us: f64| if self.wall_us > 0.0 { 100.0 * us / self.wall_us } else { 0.0 };
        let mut out = format!("layer table ({title}): self time per layer\n");
        out += &format!("  {:<28} {:>12} {:>8}\n", "layer", "ms", "%wall");
        for (name, us) in rows {
            out += &format!("  {:<28} {:>12.3} {:>7.2}%\n", name, us / 1e3, pct(us));
        }
        out += &format!(
            "  {:<28} {:>12.3} {:>7.2}%\n",
            "(unattributed)",
            self.remainder_us / 1e3,
            pct(self.remainder_us)
        );
        out += &format!(
            "  {:<28} {:>12.3} {:>7.2}%\n",
            "= wall",
            self.total_us() / 1e3,
            pct(self.total_us())
        );
        out
    }
}

/// Builds the layer table over the tree under the spans without a parent.
///
/// Time is swept instant by instant: each instant goes to the innermost
/// spans open at it (those with no open child), split equally when several
/// are open at once, as for the overlapping jobs of a batch. On a single
/// thread of calls this equals every span's self time, and the rows always
/// sum to the time the roots cover.
pub fn layer_table(spans: &[Span]) -> LayerTable {
    let mut edges: Vec<(f64, bool, usize)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans.iter().enumerate() {
        if s.end_us > s.start_us {
            edges.push((s.start_us, true, i));
            edges.push((s.end_us, false, i));
        }
    }
    // Closes before opens at equal times, so touching spans never overlap.
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0usize; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut remainder_us = 0.0;
    let mut wall_us = 0.0;
    let mut last = edges.first().map_or(0.0, |e| e.0);
    for (t, opens, i) in edges {
        let dt = t - last;
        if dt > 0.0 && !active.is_empty() {
            wall_us += dt;
            let leaves: Vec<usize> =
                active.iter().copied().filter(|&a| open_children[a] == 0).collect();
            let share = dt / leaves.len() as f64;
            for l in leaves {
                if spans[l].parent.is_none() {
                    remainder_us += share;
                } else {
                    *rows.entry(spans[l].name).or_insert(0.0) += share;
                }
            }
        }
        last = t;
        let parent_open = spans[i].parent.filter(|&p| open[p]);
        if opens {
            open[i] = true;
            active.push(i);
            if let Some(p) = parent_open {
                open_children[p] += 1;
            }
        } else {
            open[i] = false;
            active.retain(|&a| a != i);
            if let Some(p) = parent_open {
                open_children[p] -= 1;
            }
        }
    }
    LayerTable { wall_us, rows, remainder_us }
}

/// The spans as JSON, for the trace file a traced run writes.
pub fn to_json(spans: &[Span]) -> serde_json::Value {
    serde_json::Value::Array(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                serde_json::json!({
                    "id": i,
                    "name": s.name,
                    "start_us": s.start_us,
                    "end_us": s.end_us,
                    "parent": s.parent,
                    "group": s.group,
                })
            })
            .collect(),
    )
}
