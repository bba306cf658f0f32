//! Chrome Trace Event (Perfetto-loadable) JSON export and import.
//!
//! The export writes the object form `{"traceEvents": [...]}` with:
//!
//! * one `"M"` (metadata) event naming each worker's pid;
//! * one `"X"` (complete) event per [`Span`], `ts`/`dur` in µs as the
//!   format requires, with `span_id`/`parent_id` embedded in `args` so
//!   external tools (and [`from_chrome_json`]) can rebuild the span tree;
//! * `"C"` (counter) and `"i"` (instant) events for [`Mark`]s.
//!
//! pid = worker + 1 (pid 0 renders oddly in some viewers), tid = 1.

use serde::Value;

use crate::{ArgValue, Mark, Span, Trace};

fn kv(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

fn vu(n: u64) -> Value {
    Value::UInt(u128::from(n))
}

fn vs(s: &str) -> Value {
    Value::String(s.to_string())
}

pub(crate) fn to_chrome_json(trace: &Trace) -> String {
    let mut events: Vec<Value> = Vec::new();

    let mut workers: Vec<usize> = trace
        .spans
        .iter()
        .map(|s| s.worker)
        .chain(trace.marks.iter().map(|m| m.worker))
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for w in workers {
        events.push(Value::Object(vec![
            kv("name", vs("process_name")),
            kv("ph", vs("M")),
            kv("pid", vu(w as u64 + 1)),
            kv("tid", vu(1)),
            kv(
                "args",
                Value::Object(vec![kv("name", vs(&format!("teesec worker {w}")))]),
            ),
        ]));
    }

    for s in &trace.spans {
        let mut args = vec![kv("span_id", vu(s.id)), kv("parent_id", vu(s.parent))];
        for (k, v) in &s.args {
            let rendered = match v {
                ArgValue::U64(n) => vu(*n),
                ArgValue::Text(t) => vs(t),
            };
            args.push((k.clone(), rendered));
        }
        events.push(Value::Object(vec![
            kv("name", vs(&s.name)),
            kv("cat", vs("teesec")),
            kv("ph", vs("X")),
            kv("ts", vu(s.start_us)),
            kv("dur", vu(s.dur_us)),
            kv("pid", vu(s.worker as u64 + 1)),
            kv("tid", vu(1)),
            kv("args", Value::Object(args)),
        ]));
    }

    for m in &trace.marks {
        match m.value {
            Some(value) => events.push(Value::Object(vec![
                kv("name", vs(&m.name)),
                kv("cat", vs("teesec")),
                kv("ph", vs("C")),
                kv("ts", vu(m.at_us)),
                kv("pid", vu(m.worker as u64 + 1)),
                kv("tid", vu(1)),
                kv("args", Value::Object(vec![kv("value", vu(value))])),
            ])),
            None => events.push(Value::Object(vec![
                kv("name", vs(&m.name)),
                kv("cat", vs("teesec")),
                kv("ph", vs("i")),
                kv("s", vs("t")),
                kv("ts", vu(m.at_us)),
                kv("pid", vu(m.worker as u64 + 1)),
                kv("tid", vu(1)),
                kv("args", Value::Object(vec![kv("parent_id", vu(m.parent))])),
            ])),
        }
    }

    let doc = Value::Object(vec![
        kv("traceEvents", Value::Array(events)),
        kv("displayTimeUnit", vs("ms")),
    ]);
    serde_json::to_string(&doc).expect("render chrome trace")
}

/// A numeric value as `u64` (accepting the float form other tools write).
fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => u64::try_from(*n).ok(),
        Value::Int(n) => u64::try_from(*n).ok(),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    value_u64(v.get(key)?)
}

fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        Value::String(s) => Some(s),
        _ => None,
    }
}

pub(crate) fn from_chrome_json(s: &str) -> Result<Trace, serde::Error> {
    let doc = serde_json::parse_value(s)?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| serde::Error::custom("trace has no traceEvents array"))?;

    let mut trace = Trace::default();
    for ev in events {
        let worker = field_u64(ev, "pid").unwrap_or(1).saturating_sub(1) as usize;
        let name = field_str(ev, "name").unwrap_or("").to_string();
        match field_str(ev, "ph") {
            Some("X") => {
                let mut id = 0;
                let mut parent = 0;
                let mut args = Vec::new();
                if let Some(a) = ev.get("args").and_then(Value::as_object) {
                    for (k, v) in a {
                        match (k.as_str(), v) {
                            ("span_id", v) => id = value_u64(v).unwrap_or(0),
                            ("parent_id", v) => parent = value_u64(v).unwrap_or(0),
                            (_, Value::String(t)) => {
                                args.push((k.clone(), ArgValue::Text(t.clone())))
                            }
                            (_, v) => {
                                if let Some(n) = value_u64(v) {
                                    args.push((k.clone(), ArgValue::U64(n)));
                                }
                            }
                        }
                    }
                }
                trace.spans.push(Span {
                    id,
                    parent,
                    worker,
                    name,
                    start_us: field_u64(ev, "ts").unwrap_or(0),
                    dur_us: field_u64(ev, "dur").unwrap_or(0),
                    args,
                });
            }
            Some("i") | Some("I") => trace.marks.push(Mark {
                worker,
                name,
                at_us: field_u64(ev, "ts").unwrap_or(0),
                parent: ev
                    .get("args")
                    .and_then(|a| field_u64(a, "parent_id"))
                    .unwrap_or(0),
                value: None,
            }),
            Some("C") => trace.marks.push(Mark {
                worker,
                name,
                at_us: field_u64(ev, "ts").unwrap_or(0),
                parent: 0,
                value: Some(
                    ev.get("args")
                        .and_then(|a| field_u64(a, "value"))
                        .unwrap_or(0),
                ),
            }),
            _ => {}
        }
    }
    trace.spans.sort_by_key(|s| (s.start_us, s.id));
    trace.marks.sort_by_key(|m| (m.at_us, m.worker));
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                Span {
                    id: 1,
                    parent: 0,
                    worker: 0,
                    name: "case".into(),
                    start_us: 10,
                    dur_us: 100,
                    args: vec![
                        ("case".into(), ArgValue::Text("exp_l1d".into())),
                        ("seq".into(), ArgValue::U64(3)),
                    ],
                },
                Span {
                    id: 2,
                    parent: 1,
                    worker: 0,
                    name: "simulate".into(),
                    start_us: 20,
                    dur_us: 80,
                    args: vec![],
                },
            ],
            marks: vec![
                Mark {
                    worker: 0,
                    name: "watchdog".into(),
                    at_us: 50,
                    parent: 1,
                    value: None,
                },
                Mark {
                    worker: 0,
                    name: "sim_cycles".into(),
                    at_us: 60,
                    parent: 0,
                    value: Some(4096),
                },
            ],
        }
    }

    #[test]
    fn chrome_json_has_the_event_format_shape() {
        let json = sample_trace().to_chrome_json();
        let doc = serde_json::parse_value(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        // 1 process_name metadata + 2 spans + 1 instant + 1 counter.
        assert_eq!(events.len(), 5);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| field_str(e, "ph") == Some("M"))
            .collect();
        assert_eq!(metas.len(), 1);
        assert_eq!(field_u64(metas[0], "pid"), Some(1), "pid = worker + 1");
        let xs: Vec<_> = events
            .iter()
            .filter(|e| field_str(e, "ph") == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        let case = xs
            .iter()
            .find(|e| field_str(e, "name") == Some("case"))
            .unwrap();
        assert_eq!(field_u64(case, "ts"), Some(10));
        assert_eq!(field_u64(case, "dur"), Some(100));
        let args = case.get("args").unwrap();
        assert_eq!(field_u64(args, "span_id"), Some(1));
        assert_eq!(field_str(args, "case"), Some("exp_l1d"));
    }

    #[test]
    fn chrome_json_round_trips() {
        let trace = sample_trace();
        let back = Trace::from_chrome_json(&trace.to_chrome_json()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn unknown_event_kinds_are_skipped() {
        let json = r#"{"traceEvents":[
            {"name":"flow","ph":"s","ts":1,"pid":1,"tid":1},
            {"name":"b","cat":"teesec","ph":"X","ts":5,"dur":2,"pid":2,"tid":1,
             "args":{"span_id":9,"parent_id":0}}
        ]}"#;
        let trace = Trace::from_chrome_json(json).unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].id, 9);
        assert_eq!(trace.spans[0].worker, 1);
        assert!(trace.marks.is_empty());
    }

    #[test]
    fn missing_trace_events_is_an_error() {
        assert!(Trace::from_chrome_json("{}").is_err());
        assert!(Trace::from_chrome_json("not json").is_err());
    }

    /// A `traceEvents` array nested 100,000 deep is an error, not a stack
    /// overflow that aborts the reader.
    #[test]
    fn deeply_nested_trace_events_are_a_parse_error() {
        let depth = 100_000;
        let doc = format!(
            r#"{{"traceEvents":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let err = from_chrome_json(&doc).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    proptest! {
        /// The reader behind `teesec trace-report` returns a trace or an
        /// error on any input: arbitrary bytes, and a rendered trace with
        /// a random run of bytes overwritten, truncated at a random point.
        #[test]
        fn chrome_reader_never_panics(
            noise in prop::collection::vec(any::<u8>(), 0..512),
            at in any::<usize>(),
            cut in any::<usize>(),
        ) {
            let _ = from_chrome_json(&String::from_utf8_lossy(&noise));
            let mut doc = sample_trace().to_chrome_json().into_bytes();
            let at = at % doc.len();
            let end = (at + noise.len()).min(doc.len());
            doc[at..end].copy_from_slice(&noise[..end - at]);
            doc.truncate(cut % (doc.len() + 1));
            let _ = from_chrome_json(&String::from_utf8_lossy(&doc));
        }
    }
}
