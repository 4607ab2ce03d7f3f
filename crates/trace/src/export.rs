//! Exporters: the JSONL sidecar (one event per line, next to the
//! telemetry sidecar) and the Chrome trace-event format (`chrome://tracing`
//! / Perfetto) for flamegraph viewing of the span tree on the SimClock.
//!
//! Both outputs are pure functions of the report value: section order,
//! canonical event order and insertion-ordered JSON objects make them
//! byte-identical across reruns and shard counts.

use serde::{Serialize, Value};

use crate::event::{TraceEvent, WireFate};
use crate::report::TraceReport;

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn u(n: u64) -> Value {
    Value::UInt(u128::from(n))
}

fn line(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| "{}".to_string())
}

impl TraceReport {
    /// Serialize as JSONL: a header line, then per section a section line
    /// followed by one line per event. Byte-identical across reruns.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&line(&obj(vec![
            ("kind", s("trace")),
            ("enabled", Value::Bool(self.enabled)),
            ("seed", u(self.seed)),
            ("sample_per_mille", u(u64::from(self.sample_per_mille))),
            ("sections", u(self.sections.len() as u64)),
        ])));
        out.push('\n');
        for section in &self.sections {
            out.push_str(&line(&obj(vec![
                ("kind", s("section")),
                ("scope", s(&section.scope)),
                ("events", u(section.events.len() as u64)),
                ("dropped", section.dropped.to_value()),
            ])));
            out.push('\n');
            for event in &section.events {
                out.push_str(&line(&obj(vec![
                    ("kind", s("event")),
                    ("scope", s(&section.scope)),
                    ("event", event.to_value()),
                ])));
                out.push('\n');
            }
        }
        out
    }

    /// Serialize in the Chrome trace-event format. Each section becomes a
    /// process (named by its scope); workers become threads; stage spans
    /// and probe flights become duration events on the SimClock, the rest
    /// become instants.
    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::new();
        for (index, section) in self.sections.iter().enumerate() {
            let pid = index as u64 + 1;
            let name = if section.scope.is_empty() {
                "measurement"
            } else {
                section.scope.as_str()
            };
            events.push(obj(vec![
                ("name", s("process_name")),
                ("ph", s("M")),
                ("pid", u(pid)),
                ("tid", u(0)),
                ("args", obj(vec![("name", s(name))])),
            ]));
            for event in &section.events {
                events.push(chrome_event(pid, event));
            }
        }
        line(&obj(vec![
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", s("ms")),
        ]))
    }
}

/// Timestamps are SimClock milliseconds; Chrome wants microseconds.
fn us(ms: u64) -> Value {
    u(ms.saturating_mul(1000))
}

fn span(
    pid: u64,
    tid: u64,
    name: String,
    cat: &str,
    ts_ms: u64,
    dur_ms: u64,
    ev: &TraceEvent,
) -> Value {
    obj(vec![
        ("name", Value::Str(name)),
        ("cat", s(cat)),
        ("ph", s("X")),
        ("ts", us(ts_ms)),
        ("dur", us(dur_ms)),
        ("pid", u(pid)),
        ("tid", u(tid)),
        ("args", obj(vec![("event", ev.to_value())])),
    ])
}

fn instant(pid: u64, tid: u64, name: String, cat: &str, ts_ms: u64, ev: &TraceEvent) -> Value {
    obj(vec![
        ("name", Value::Str(name)),
        ("cat", s(cat)),
        ("ph", s("i")),
        ("s", s("t")),
        ("ts", us(ts_ms)),
        ("pid", u(pid)),
        ("tid", u(tid)),
        ("args", obj(vec![("event", ev.to_value())])),
    ])
}

fn chrome_event(pid: u64, event: &TraceEvent) -> Value {
    // Thread 0 is the section itself; worker w maps to thread w + 1.
    let wtid = |w: u16| u64::from(w) + 1;
    match event {
        TraceEvent::StageSpan {
            name,
            start_ms,
            sim_ms,
        } => span(pid, 0, name.clone(), "stage", *start_ms, *sim_ms, event),
        TraceEvent::ShardSpan {
            shard,
            start_ms,
            sim_ms,
            ..
        } => span(
            pid,
            0,
            format!("shard.{shard:03}"),
            "stage",
            *start_ms,
            *sim_ms,
            event,
        ),
        TraceEvent::WireOutcome {
            prefix,
            worker,
            tx_time_ms,
            fate: WireFate::Delivered { rx_time_ms, .. },
        } => span(
            pid,
            wtid(*worker),
            format!("flight {prefix}"),
            "wire",
            *tx_time_ms,
            rx_time_ms.saturating_sub(*tx_time_ms),
            event,
        ),
        TraceEvent::WireOutcome {
            prefix,
            worker,
            tx_time_ms,
            fate: WireFate::Unanswered { .. },
        } => instant(
            pid,
            wtid(*worker),
            format!("lost {prefix}"),
            "wire",
            *tx_time_ms,
            event,
        ),
        TraceEvent::OrderIssued {
            prefix,
            worker,
            window_start_ms,
        } => instant(
            pid,
            wtid(*worker),
            format!("order {prefix}"),
            "order",
            *window_start_ms,
            event,
        ),
        TraceEvent::OrderFault { prefix, worker, .. } => instant(
            pid,
            wtid(*worker),
            format!("order-fault {prefix}"),
            "fault",
            0,
            event,
        ),
        TraceEvent::ProbeSent {
            prefix,
            worker,
            tx_time_ms,
        } => instant(
            pid,
            wtid(*worker),
            format!("probe {prefix}"),
            "probe",
            *tx_time_ms,
            event,
        ),
        TraceEvent::FabricFault {
            prefix,
            rx_worker,
            rx_time_ms,
            ..
        } => instant(
            pid,
            wtid(*rx_worker),
            format!("fabric-fault {prefix}"),
            "fault",
            *rx_time_ms,
            event,
        ),
        TraceEvent::Captured {
            prefix,
            rx_worker,
            rx_time_ms,
            ..
        } => instant(
            pid,
            wtid(*rx_worker),
            format!("capture {prefix}"),
            "capture",
            *rx_time_ms,
            event,
        ),
        TraceEvent::WorkerFault { worker, cause, .. } => instant(
            pid,
            wtid(*worker),
            format!("worker-fault: {cause}"),
            "fault",
            0,
            event,
        ),
        TraceEvent::ClassContribution { prefix, .. } => instant(
            pid,
            0,
            format!("contribution {prefix}"),
            "classify",
            0,
            event,
        ),
        TraceEvent::ClassVerdict {
            prefix, verdict, ..
        } => instant(
            pid,
            0,
            format!("verdict {prefix}: {verdict}"),
            "classify",
            0,
            event,
        ),
        TraceEvent::GcdChunk { chunk_index, .. } => {
            instant(pid, 0, format!("gcd-chunk {chunk_index}"), "gcd", 0, event)
        }
        TraceEvent::GcdProbe { prefix, vp, .. } => instant(
            pid,
            wtid(*vp),
            format!("gcd-probe {prefix}"),
            "gcd",
            0,
            event,
        ),
        TraceEvent::GcdOverlap { prefix, .. } => {
            instant(pid, 0, format!("gcd-overlap {prefix}"), "gcd", 0, event)
        }
        TraceEvent::GcdVerdict { prefix, class } => instant(
            pid,
            0,
            format!("gcd-verdict {prefix}: {class}"),
            "gcd",
            0,
            event,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::TraceSection;
    use laces_packet::{Prefix24, PrefixKey};
    use std::collections::BTreeMap;

    fn sample() -> TraceReport {
        let prefix = PrefixKey::V4(Prefix24::from_network(0x0A00_0100));
        TraceReport {
            enabled: true,
            seed: 7,
            sample_per_mille: 1000,
            sections: vec![TraceSection {
                scope: "v4_icmp".into(),
                events: vec![
                    TraceEvent::OrderIssued {
                        prefix,
                        worker: 0,
                        window_start_ms: 0,
                    },
                    TraceEvent::WireOutcome {
                        prefix,
                        worker: 0,
                        tx_time_ms: 0,
                        fate: WireFate::Delivered {
                            rx_worker: 1,
                            rx_time_ms: 30,
                        },
                    },
                    TraceEvent::StageSpan {
                        name: "probe".into(),
                        start_ms: 0,
                        sim_ms: 100,
                    },
                ],
                dropped: BTreeMap::from([("wire".to_string(), 2u64)]),
            }],
        }
    }

    #[test]
    fn jsonl_is_deterministic_and_line_structured() {
        let r = sample();
        let a = r.to_jsonl();
        assert_eq!(a, r.to_jsonl());
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 1 + 1 + 3);
        assert!(lines[0].contains("\"kind\":\"trace\""));
        assert!(lines[1].contains("\"kind\":\"section\""));
        assert!(lines[1].contains("\"dropped\":{\"wire\":2}"));
        assert!(lines[2].contains("\"kind\":\"event\""));
        // Every line parses as standalone JSON.
        for l in lines {
            let v: Value = serde_json::from_str(l).expect("line parses");
            assert!(v.get("kind").is_some());
        }
    }

    #[test]
    fn chrome_export_has_spans_instants_and_metadata() {
        let r = sample();
        let json = r.to_chrome_json();
        assert_eq!(json, r.to_chrome_json());
        let v: Value = serde_json::from_str(&json).expect("chrome json parses");
        let events = v.get("traceEvents").and_then(Value::as_arr).expect("array");
        assert_eq!(events.len(), 1 + 3);
        let phases: Vec<&Value> = events.iter().filter_map(|e| e.get("ph")).collect();
        assert!(phases.contains(&&Value::Str("M".into())));
        assert!(phases.contains(&&Value::Str("X".into())));
        assert!(phases.contains(&&Value::Str("i".into())));
        // The delivered flight spans tx→rx in microseconds.
        let flight = events
            .iter()
            .find(|e| matches!(e.get("cat"), Some(Value::Str(c)) if c == "wire"))
            .expect("flight span");
        assert_eq!(flight.get("dur"), Some(&Value::UInt(30_000)));
    }
}
