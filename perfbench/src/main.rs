//! The repository benchmark. Run it through `perfbench/run.py`, which
//! builds this package and passes `--work-dir` and `--commit`:
//!
//! ```text
//! perfbench --workload <batch_cold|serve_mix|ingest_follow> --seed <n>
//!           --seconds <s> --trace <0|1> --work-dir <dir> [--commit <id>]
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). A fuller report, stamped with the
//! machine and build fingerprint, goes to `<work-dir>/report-*.json`, and a
//! traced run's spans to `<work-dir>/trace-*.json`.

mod batch_cold;
mod ingest_follow;
mod inputs;
mod serve_mix;
mod util;

use std::collections::BTreeMap;
use std::time::Instant;
use tl_support::json::{obj, Json};
use tl_support::ToJson;
use util::{Args, Outcome};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_bytes",
    "timeline_p50_s",
    "intake_p50_s",
    "rouge2_align_f1",
];

/// Per-layer metrics, reported by every workload with `--trace 1`. Times
/// and counts are per operation of the workload's loop (timeline, request
/// or tick); a layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("temporal.tag_s", "s"),
    ("temporal.sentences", "count"),
    ("nlp.analyze_s", "s"),
    ("nlp.tokens", "count"),
    ("dategraph.build_s", "s"),
    ("dategraph.edges", "count"),
    ("dateselect.select_s", "s"),
    ("textrank.rank_s", "s"),
    ("textrank.days", "count"),
    ("postprocess.vectors_s", "s"),
    ("postprocess.assemble_s", "s"),
    ("batch.unattributed_s", "s"),
    ("ir.search_s", "s"),
    ("ir.hits", "count"),
    ("ir.partial", "count"),
    ("ir.insert_s", "s"),
    ("ir.publish_s", "s"),
    ("storage.sync_s", "s"),
    ("storage.sync_calls", "count"),
    ("storage.append_bytes", "bytes"),
    ("storage.read_bytes", "bytes"),
    ("wal.snapshots_written", "count"),
    ("wal.retries", "count"),
    ("replicate.pull_s", "s"),
    ("replicate.records", "count"),
    ("replicate.retries", "count"),
    ("realtime.timeline_s", "s"),
    ("memo.hit_ratio", "ratio"),
    ("memo.refresh_ratio", "ratio"),
    ("memo.rebuild_ratio", "ratio"),
    ("incremental.days_reused_ratio", "ratio"),
    ("incremental.fallbacks", "count"),
    ("http.handler_search_s", "s"),
    ("http.handler_timeline_s", "s"),
    ("http.handler_ingest_s", "s"),
    ("http.wire_s", "s"),
    ("http.accepted", "count"),
    ("http.shed", "count"),
    ("http.parse_errors", "count"),
    ("http.queued_peak", "count"),
    ("pool.executed_tasks", "count"),
    ("pool.abandoned_tasks", "count"),
    ("loadgen.lag_p99_s", "s"),
    ("timeline_tail_s", "s"),
    ("intake_tail_s", "s"),
    ("search_p50_s", "s"),
    ("search_p99_s", "s"),
    ("visible_p50_s", "s"),
    ("visible_p99_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    util::init_tracer(args.trace);
    std::fs::create_dir_all(&args.work_dir).expect("create work dir");
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    match args.workload.as_str() {
        "batch_cold" => batch_cold::run(&args, &mut out, &mut layers),
        "serve_mix" => serve_mix::run(&args, &mut out, &mut layers),
        "ingest_follow" => ingest_follow::run(&args, &mut out, &mut layers),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            out.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
        }
        for name in layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not declared"
            );
        }
    } else {
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END, "end-to-end metrics out of contract");
    }
    out.correct = out.problems.is_empty();

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let fingerprint = obj(vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_json(),
        ),
        ("pool_threads", tl_support::par::threads().to_json()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_json(),
        ),
        ("commit", args.commit.to_json()),
        ("seed", args.seed.to_json()),
        (
            "TL_POOL_THREADS",
            std::env::var("TL_POOL_THREADS")
                .ok()
                .map_or(Json::Null, |v| v.to_json()),
        ),
    ]);
    let report = obj(vec![
        ("workload", args.workload.to_json()),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("fingerprint", fingerprint),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("problems", out.problems.to_json()),
        ("detail", Json::Obj(out.detail.clone())),
        ("result", out.contract_json()),
    ]);
    let write = |name: String, json: &Json| {
        if let Err(e) = std::fs::write(args.work_dir.join(name), json.to_string_pretty()) {
            eprintln!("perfbench: could not write report: {e}");
        }
    };
    write(format!("report-{tag}.json"), &report);
    if args.trace {
        write(
            format!("trace-{tag}.json"),
            &util::spans_json(&util::stashed_spans()),
        );
    }
    println!("{}", out.contract_json().to_string_compact());
}
