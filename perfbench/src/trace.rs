//! In-memory spans around the benchmark's calls into the system, written
//! out when the run ends, plus self time per span name.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start, end)` in seconds since the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Shared by every span of one checkpoint write or restart.
    pub op: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

/// Span store of one client thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// High bits of every span id this tracer hands out (the client).
    id_base: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, client: u64) -> Tracer {
        Tracer {
            origin,
            id_base: client << 40,
            spans: Vec::new(),
        }
    }

    /// `t` in seconds since the run's origin.
    pub fn seconds(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished span and returns its id (for children).
    pub fn push(
        &mut self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id_base | self.spans.len() as u64;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start: self.seconds(start),
            end: self.seconds(end),
        });
        id
    }
}

/// Per-name totals: count, summed duration and summed self time
/// (duration minus the part of it covered by child spans).
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0.0, |kids| union_within(kids, s.start, s.end));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.end - s.start;
        t.self_s += (s.end - s.start - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Writes every span as one JSON line, then one summary line per name.
pub fn write_out(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
            s.op, s.id, parent, s.name, s.start, s.end
        )?;
    }
    for (name, t) in totals(spans) {
        writeln!(
            f,
            "{{\"summary\":\"{name}\",\"count\":{},\"total_s\":{},\"self_s\":{}}}",
            t.count, t.total_s, t.self_s
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            Span {
                op: 1,
                id: 0,
                parent: None,
                name: "p",
                start: 0.0,
                end: 10.0,
            },
            Span {
                op: 1,
                id: 1,
                parent: Some(0),
                name: "c",
                start: 1.0,
                end: 4.0,
            },
            Span {
                op: 1,
                id: 2,
                parent: Some(0),
                name: "c",
                start: 3.0,
                end: 5.0,
            },
        ];
        let t = totals(&spans);
        assert!((t["p"].self_s - 6.0).abs() < 1e-9);
        assert!((t["c"].total_s - 5.0).abs() < 1e-9);
        assert_eq!(t["c"].count, 2);
    }
}
