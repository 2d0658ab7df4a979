//! **trace_report** — span-tree reconstruction, critical-path analysis,
//! and a Tab. 3-style phase decomposition from any `--trace-out` file.
//!
//! ```sh
//! cargo run --release -p unidrive-bench --bin fig11_batch_sync -- quick --trace-out /tmp/fig11.trace.json
//! cargo run --release -p unidrive-bench --bin trace_report -- /tmp/fig11.trace.json
//! cargo run --release -p unidrive-bench --bin trace_report -- --validate /tmp/fig11.trace.json
//! ```
//!
//! The report reconstructs the causal span tree (`sync.round` →
//! `lock.*` / `meta.*` → `engine.batch` → `engine.worker` →
//! `engine.block` → `wire.attempt`) and decomposes each sync round's
//! wall time into **lock**, **merge**, and **transfer** phases by
//! interval union (clipped to the round, earlier phases take
//! precedence where they overlap), so the four columns sum to the wall
//! time *exactly*. It also prints per-cloud transfer busy time and the
//! critical path of the slowest round. `--validate` instead checks the
//! Chrome trace-event shape (every record a complete `"X"` span,
//! non-negative `ts`/`dur`, unique span ids, every parent id present
//! when no spans were dropped) and exits non-zero on violations — the
//! ci.sh trace gate.
//!
//! The JSON parser lives in [`unidrive_bench::json`], shared with
//! `obs_report` and `bench_compare`: the workspace builds offline with
//! zero external crates.

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;

use unidrive_bench::json::{parse_json, Json};
use unidrive_workload::TextTable;

// ---------------------------------------------------------------------
// Trace model.
// ---------------------------------------------------------------------

/// One complete-event span out of `traceEvents` (`"ph": "X"`).
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    tid: u32,
    /// Microseconds (Chrome trace units).
    ts: f64,
    dur: f64,
    args: Vec<(String, Json)>,
}

impl Span {
    fn end(&self) -> f64 {
        self.ts + self.dur
    }

    fn arg_str(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
    }
}

struct Trace {
    spans: Vec<Span>,
    dropped_spans: u64,
    /// Shape violations found while loading.
    errors: Vec<String>,
}

fn load_trace(text: &str) -> Result<Trace, String> {
    let root = parse_json(text)?;
    let events = match root.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        _ => return Err("no traceEvents array".into()),
    };
    let dropped_spans = root
        .get("droppedSpans")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    let mut trace = Trace {
        spans: Vec::new(),
        dropped_spans,
        errors: Vec::new(),
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(Json::as_f64);
        match ts {
            Some(t) if t >= 0.0 => {}
            Some(t) => trace.errors.push(format!("event {i}: negative ts {t}")),
            None => trace.errors.push(format!("event {i}: missing ts")),
        }
        if ph != "X" {
            trace.errors.push(format!("event {i}: unknown ph {ph:?}"));
            continue;
        }
        let dur = ev.get("dur").and_then(Json::as_f64);
        match dur {
            Some(d) if d >= 0.0 => {}
            Some(d) => trace.errors.push(format!("event {i}: negative dur {d}")),
            None => trace.errors.push(format!("event {i}: missing dur")),
        }
        let args = match ev.get("args") {
            Some(Json::Obj(fields)) => fields.clone(),
            _ => {
                trace.errors.push(format!("event {i}: missing args"));
                Vec::new()
            }
        };
        let id = args
            .iter()
            .find(|(k, _)| k == "span_id")
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0) as u64;
        if id == 0 {
            trace.errors.push(format!("event {i}: missing span_id"));
        }
        let parent = args
            .iter()
            .find(|(k, _)| k == "parent")
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0) as u64;
        trace.spans.push(Span {
            id,
            parent,
            name: ev
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            tid: ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0) as u32,
            ts: ts.unwrap_or(0.0),
            dur: dur.unwrap_or(0.0),
            args: args
                .into_iter()
                .filter(|(k, _)| k != "span_id" && k != "parent")
                .collect(),
        });
    }
    // Identity checks: unique ids; parents present (only provable when
    // the ring dropped nothing — an evicted ancestor is not an error).
    let mut seen = HashMap::new();
    for s in &trace.spans {
        if let Some(prev) = seen.insert(s.id, s.name.clone()) {
            trace
                .errors
                .push(format!("span id {} used by both {prev} and {}", s.id, s.name));
        }
    }
    if trace.dropped_spans == 0 {
        for s in &trace.spans {
            if s.parent != 0 && !seen.contains_key(&s.parent) {
                trace.errors.push(format!(
                    "span {} ({}) references missing parent {}",
                    s.id, s.name, s.parent
                ));
            }
        }
    }
    Ok(trace)
}

// ---------------------------------------------------------------------
// Phase decomposition + critical path.
// ---------------------------------------------------------------------

/// Phase index for a span name: 0 = lock, 1 = merge, 2 = transfer.
/// Where intervals overlap (a lock refresh racing the transfer), the
/// lower-numbered phase wins the sweep in [`decompose`], so
/// lock + merge + transfer + other always equals the wall time.
fn phase_of(name: &str) -> Option<usize> {
    if name.starts_with("lock.") {
        Some(0)
    } else if name.starts_with("meta.") {
        Some(1)
    } else if name.starts_with("engine.") || name == "wire.attempt" {
        Some(2)
    } else {
        None
    }
}

/// Priority-union sweep: total time in `[lo, hi]` covered by each
/// phase, earlier phases shadowing later ones. Returns per-phase µs.
fn decompose(lo: f64, hi: f64, intervals: &[(usize, f64, f64)]) -> [f64; 3] {
    // Boundary sweep over the clipped interval endpoints.
    let mut cuts: Vec<f64> = vec![lo, hi];
    for &(_, s, e) in intervals {
        cuts.push(s.clamp(lo, hi));
        cuts.push(e.clamp(lo, hi));
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    cuts.dedup();
    let mut out = [0.0; 3];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b <= a {
            continue;
        }
        let mid = (a + b) / 2.0;
        if let Some(p) = intervals
            .iter()
            .filter(|(_, s, e)| *s <= mid && mid < *e)
            .map(|(p, _, _)| *p)
            .min()
        {
            out[p] += b - a;
        }
    }
    out
}

fn fmt_ms(us: f64) -> String {
    format!("{:.1}", us / 1e3)
}

fn report(trace: &Trace) -> ExitCode {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in &trace.spans {
        children.entry(s.parent).or_default().push(s);
    }
    for list in children.values_mut() {
        list.sort_by(|a, b| a.ts.partial_cmp(&b.ts).expect("finite"));
    }

    // Worker lane → cloud name, for the per-cloud breakdown.
    let lane_cloud: HashMap<u32, String> = trace
        .spans
        .iter()
        .filter(|s| s.name == "engine.worker")
        .filter_map(|s| s.arg_str("cloud").map(|c| (s.tid, c.to_owned())))
        .collect();

    let rounds: Vec<&Span> = trace
        .spans
        .iter()
        .filter(|s| s.name == "sync.round")
        .collect();
    if rounds.is_empty() {
        eprintln!("no sync.round spans in this trace (was it produced with --trace-out?)");
        return ExitCode::FAILURE;
    }

    let mut table = TextTable::new(&[
        "round", "device", "outcome", "wall ms", "lock ms", "merge ms", "transfer ms",
        "other ms",
    ]);
    let mut phase_totals = [0.0f64; 3];
    let mut wall_total = 0.0f64;
    let mut slowest: Option<&Span> = None;
    let mut cloud_busy: BTreeMap<String, (f64, u64)> = BTreeMap::new();

    for round in &rounds {
        // Collect the round's descendants (the tree is intra-world, so
        // overlapping timestamps from other sim worlds don't leak in).
        let mut stack = vec![round.id];
        let mut intervals: Vec<(usize, f64, f64)> = Vec::new();
        while let Some(id) = stack.pop() {
            for child in children.get(&id).into_iter().flatten() {
                stack.push(child.id);
                if let Some(p) = phase_of(&child.name) {
                    intervals.push((p, child.ts, child.end()));
                }
                if child.name == "engine.block" {
                    let cloud = lane_cloud
                        .get(&child.tid)
                        .cloned()
                        .unwrap_or_else(|| "?".to_owned());
                    let e = cloud_busy.entry(cloud).or_insert((0.0, 0));
                    e.0 += child.dur;
                    e.1 += 1;
                }
            }
        }
        let phases = decompose(round.ts, round.end(), &intervals);
        let other = (round.dur - phases.iter().sum::<f64>()).max(0.0);
        wall_total += round.dur;
        for (t, p) in phase_totals.iter_mut().zip(phases) {
            *t += p;
        }
        if slowest.is_none_or(|s| round.dur > s.dur) {
            slowest = Some(round);
        }
        table.row(vec![
            format!("{}", round.id),
            round.arg_str("device").unwrap_or("?").to_owned(),
            round.arg_str("outcome").unwrap_or("?").to_owned(),
            fmt_ms(round.dur),
            fmt_ms(phases[0]),
            fmt_ms(phases[1]),
            fmt_ms(phases[2]),
            fmt_ms(other),
        ]);
    }

    println!(
        "trace_report: {} spans ({} dropped), {} sync rounds\n",
        trace.spans.len(),
        trace.dropped_spans,
        rounds.len()
    );
    println!("{}", table.render());

    let other_total = (wall_total - phase_totals.iter().sum::<f64>()).max(0.0);
    let covered = phase_totals.iter().sum::<f64>() + other_total;
    println!(
        "phase totals: lock {} ms, merge {} ms, transfer {} ms, other {} ms \
         (sum {} ms over {} ms wall, {:+.3}%)",
        fmt_ms(phase_totals[0]),
        fmt_ms(phase_totals[1]),
        fmt_ms(phase_totals[2]),
        fmt_ms(other_total),
        fmt_ms(covered),
        fmt_ms(wall_total),
        if wall_total > 0.0 {
            100.0 * (covered - wall_total) / wall_total
        } else {
            0.0
        },
    );

    if !cloud_busy.is_empty() {
        println!("\nper-cloud transfer busy time (engine.block):");
        for (cloud, (busy, count)) in &cloud_busy {
            println!("  {cloud:<16} {:>10} ms over {count} blocks", fmt_ms(*busy));
        }
    }

    // Critical path of the slowest round: walk backwards from the end,
    // always descending into the child whose end time reaches
    // furthest, until no child reaches the current point.
    if let Some(round) = slowest {
        println!(
            "\ncritical path of the slowest round ({} on {}):",
            round.id,
            round.arg_str("device").unwrap_or("?"),
        );
        let mut cur: &Span = round;
        loop {
            let label = match cur.name.as_str() {
                "engine.block" | "engine.worker" | "wire.attempt" => lane_cloud
                    .get(&cur.tid)
                    .map(|c| format!("{} [{}]", cur.name, c))
                    .unwrap_or_else(|| cur.name.clone()),
                _ => cur.name.clone(),
            };
            println!("  {label:<32} {:>10} ms", fmt_ms(cur.dur));
            let next = children
                .get(&cur.id)
                .into_iter()
                .flatten()
                .max_by(|a, b| a.end().partial_cmp(&b.end()).expect("finite"));
            match next {
                Some(c) => cur = *c,
                None => break,
            }
        }
    }
    ExitCode::SUCCESS
}

fn validate(trace: &Trace) -> ExitCode {
    if trace.errors.is_empty() {
        println!(
            "trace OK: {} spans ({} dropped)",
            trace.spans.len(),
            trace.dropped_spans
        );
        ExitCode::SUCCESS
    } else {
        for e in &trace.errors {
            eprintln!("trace error: {e}");
        }
        eprintln!("{} violations", trace.errors.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let validate_mode = args.iter().any(|a| a == "--validate");
    let path = args.iter().find(|a| !a.starts_with("--"));
    let Some(path) = path else {
        eprintln!("usage: trace_report [--validate] <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match load_trace(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if validate_mode {
        validate(&trace)
    } else {
        if !trace.errors.is_empty() {
            eprintln!(
                "warning: {} shape violations (run --validate for details)",
                trace.errors.len()
            );
        }
        report(&trace)
    }
}
