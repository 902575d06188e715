//! Validates a Chrome trace-event JSON file produced by `--trace`.
//!
//! ```text
//! trace-check [--require-flows] <trace.json>
//! ```
//!
//! Checks the subset of the trace-event format our exporter emits — the
//! same subset Perfetto needs to load the file: a `traceEvents` array
//! whose entries are `ph:"M"` metadata, `ph:"X"` complete events with
//! numeric `pid`/`tid`/`ts`/`dur`, or `ph:"s"`/`ph:"f"` flow edges with
//! numeric `id`/`pid`/`tid`/`ts` (`bp:"e"` on the finish). Every
//! (pid, tid) carrying slices must have a `process_name`/`thread_name`
//! pair, every flow id must pair a start with a finish, every
//! `args.span_id` must be defined by one `X` event only (one id space per
//! file), and a flow's `args.span` must reference a defined span id —
//! dangling or ambiguous causal arrows fail the check. CI runs this
//! against a real pipeline trace so exporter regressions fail the build;
//! `--require-flows` additionally fails traces with no flow edges at all
//! (the cluster job uses it so request causality can't silently vanish).
//!
//! Exit codes: 0 valid, 1 invalid or unreadable, 2 usage.

use foresight_util::json::Value;
use std::collections::{BTreeMap, BTreeSet};

fn main() {
    let mut require_flows = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--require-flows" => require_flows = true,
            _ if path.is_some() => usage_exit(),
            _ => path = Some(arg),
        }
    }
    let Some(path) = path else { usage_exit() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read '{path}': {e}");
            std::process::exit(1);
        }
    };
    let doc = match Value::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: '{path}' is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    match check(&doc, require_flows) {
        Ok(summary) => println!("{path}: OK — {summary}"),
        Err(errors) => {
            for e in errors.iter().take(10) {
                eprintln!("error: {e}");
            }
            if errors.len() > 10 {
                eprintln!("... and {} more", errors.len() - 10);
            }
            std::process::exit(1);
        }
    }
}

fn usage_exit() -> ! {
    eprintln!("usage: trace-check [--require-flows] <trace.json>");
    std::process::exit(2);
}

fn num(ev: &Value, key: &str) -> Option<f64> {
    ev.get(key).and_then(Value::as_f64)
}

/// Reads a span id carried in `args.<key>` (our exporter writes them as
/// decimal strings).
fn arg_span(ev: &Value, key: &str) -> Option<u64> {
    ev.get("args")?.get(key)?.as_str()?.parse().ok()
}

fn check(doc: &Value, require_flows: bool) -> Result<String, Vec<String>> {
    let mut errors = Vec::new();
    // Both trace-event container formats are accepted: the bare JSON
    // array our exporter writes, and the `{"traceEvents": [...]}` object.
    let events = match doc {
        Value::Array(events) => events,
        _ => match doc.get("traceEvents").and_then(Value::as_array) {
            Some(events) => events,
            None => {
                return Err(vec![
                    "neither a top-level event array nor a 'traceEvents' object".into(),
                ])
            }
        },
    };
    let mut named_pids = BTreeSet::new();
    let mut named_tracks = BTreeSet::new();
    let mut slice_count = 0usize;
    let mut meta_count = 0usize;
    // Flow bookkeeping, resolved after the scan: span ids may be defined
    // by X events that appear later in the array than the flows that
    // reference them.
    let mut defined_spans: BTreeSet<u64> = BTreeSet::new();
    let mut span_refs: Vec<(usize, u64)> = Vec::new();
    let mut flow_ends: BTreeMap<i64, (usize, usize)> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let Some(ph) = ev.get("ph").and_then(Value::as_str) else {
            errors.push(format!("event {i}: missing 'ph'"));
            continue;
        };
        let pid = num(ev, "pid");
        let name = ev.get("name").and_then(Value::as_str);
        if pid.is_none() {
            errors.push(format!("event {i}: missing numeric 'pid'"));
        }
        if name.is_none() {
            errors.push(format!("event {i}: missing string 'name'"));
        }
        match ph {
            "M" => {
                meta_count += 1;
                let arg_ok = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .is_some();
                if !arg_ok {
                    errors.push(format!("event {i}: metadata without args.name"));
                }
                match (name, pid) {
                    (Some("process_name"), Some(p)) => {
                        named_pids.insert(p as i64);
                    }
                    (Some("thread_name"), Some(p)) => {
                        if let Some(t) = num(ev, "tid") {
                            named_tracks.insert((p as i64, t as i64));
                        } else {
                            errors.push(format!("event {i}: thread_name without 'tid'"));
                        }
                    }
                    (Some(other), _) => {
                        errors.push(format!("event {i}: unknown metadata '{other}'"));
                    }
                    _ => {}
                }
            }
            "X" => {
                slice_count += 1;
                for key in ["tid", "ts", "dur"] {
                    match num(ev, key) {
                        Some(v) if key != "tid" && v < 0.0 => {
                            errors.push(format!("event {i}: negative '{key}'"));
                        }
                        Some(_) => {}
                        None => errors.push(format!("event {i}: missing numeric '{key}'")),
                    }
                }
                if let (Some(p), Some(t)) = (pid, num(ev, "tid")) {
                    if !named_pids.contains(&(p as i64)) {
                        errors.push(format!("event {i}: pid {p} has no process_name"));
                    }
                    if !named_tracks.contains(&(p as i64, t as i64)) {
                        errors.push(format!("event {i}: tid {t} has no thread_name"));
                    }
                }
                if let Some(id) = arg_span(ev, "span_id") {
                    if !defined_spans.insert(id) {
                        errors.push(format!("event {i}: span id {id} defined twice"));
                    }
                }
            }
            "s" | "f" => {
                for key in ["id", "tid", "ts"] {
                    if num(ev, key).is_none() {
                        errors.push(format!("event {i}: flow missing numeric '{key}'"));
                    }
                }
                if ph == "f" && ev.get("bp").and_then(Value::as_str) != Some("e") {
                    errors.push(format!("event {i}: flow finish without bp:\"e\""));
                }
                match arg_span(ev, "span") {
                    Some(span) => span_refs.push((i, span)),
                    None => errors.push(format!("event {i}: flow without args.span")),
                }
                if let Some(id) = num(ev, "id") {
                    let e = flow_ends.entry(id as i64).or_insert((0, 0));
                    if ph == "s" {
                        e.0 += 1;
                    } else {
                        e.1 += 1;
                    }
                }
            }
            other => errors.push(format!("event {i}: unsupported ph '{other}'")),
        }
    }
    if slice_count == 0 {
        errors.push("trace has no ph:\"X\" slices".into());
    }
    // Flows are causal claims: both ends must exist and every referenced
    // span id must have been defined by some exported slice.
    for (i, span) in &span_refs {
        if !defined_spans.contains(span) {
            errors.push(format!("event {i}: flow references unknown span id {span}"));
        }
    }
    for (id, (starts, finishes)) in &flow_ends {
        if starts != finishes {
            errors.push(format!(
                "flow id {id}: {starts} start(s) but {finishes} finish(es)"
            ));
        }
    }
    let flow_count = flow_ends.len();
    if require_flows && flow_count == 0 {
        errors.push("trace has no flow events (--require-flows)".into());
    }
    if errors.is_empty() {
        Ok(format!(
            "{} events ({meta_count} metadata, {slice_count} slices, {flow_count} flows, \
             {} processes, {} tracks)",
            events.len(),
            named_pids.len(),
            named_tracks.len()
        ))
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-process trace: two slices defining `ids`, and one flow
    /// pair from the first id to `flow_to`.
    fn fixture(ids: [u64; 2], flow_to: u64) -> Value {
        let slices = ids.map(|id| {
            format!(
                r#"{{"ph":"X","name":"s{id}","pid":1,"tid":1,"ts":0,"dur":1,"args":{{"span_id":"{id}"}}}}"#
            )
        });
        let flow = |ph: &str, span: u64| {
            format!(
                r#"{{"ph":"{ph}","id":9,"name":"r","pid":1,"tid":1,"ts":0,"bp":"e","args":{{"span":"{span}"}}}}"#
            )
        };
        Value::parse(&format!(
            r#"[{{"ph":"M","name":"process_name","pid":1,"args":{{"name":"p"}}}},
               {{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{{"name":"t"}}}},
               {},{},{},{}]"#,
            slices[0],
            slices[1],
            flow("s", ids[0]),
            flow("f", flow_to)
        ))
        .unwrap()
    }

    #[test]
    fn well_formed_flow_passes() {
        assert!(check(&fixture([1, 2], 2), true).is_ok());
    }

    #[test]
    fn span_id_defined_twice_is_rejected() {
        let errors = check(&fixture([1, 1], 1), true).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("span id 1 defined twice")),
            "{errors:?}"
        );
    }

    #[test]
    fn dangling_flow_is_rejected() {
        let errors = check(&fixture([1, 2], 7), true).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("unknown span id 7")),
            "{errors:?}"
        );
    }
}
