//! The benchmark's own spans, recorded around its calls into each
//! crate. Kept in memory and written with the results when a run ends.

use serde_json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The workspace crate the spanned call enters, or `bench`.
    pub layer: &'static str,
    /// Which search (or repetition of an isolated call) this belongs to.
    pub iteration: usize,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// A span log. Switched off it reads no clock and records nothing, so
/// the untraced pass runs the same code without the spans.
pub struct Trace {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn on() -> Trace {
        Trace {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Trace {
        Trace {
            enabled: false,
            ..Trace::on()
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Open a span and return its id for [`Trace::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        iteration: usize,
        parent: Option<usize>,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            iteration,
            start,
            end: start,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        self.spans[id].end = self.now();
        self.seconds(id)
    }

    pub fn seconds(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// A span's duration minus the part its children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        self.seconds(id) - children
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::Object(vec![
                        ("id".into(), Value::UInt(id as u64)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("layer".into(), Value::Str(s.layer.into())),
                        ("workload".into(), Value::Str(workload.into())),
                        ("iteration".into(), Value::UInt(s.iteration as u64)),
                        ("start_s".into(), Value::Float(s.start)),
                        ("end_s".into(), Value::Float(s.end)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
