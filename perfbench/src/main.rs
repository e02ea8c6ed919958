//! The repository's benchmark: two workloads run against the public API,
//! every answer checked by an independent checker, end-to-end metrics by
//! default and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <paper-scale-reads|durable-writes>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --quick
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod checker;
mod durable;
mod inputs;
mod layers;
mod observe;
mod reads;
mod trace;
mod util;

use acq_durable::{DurableEngine, DurableOptions};
use acq_metrics::serving::ServerCounters;
use checker::NaiveGraph;
use inputs::{Scale, WriteMix, WriteStream};
use layers::{ProbeInputs, Target};
use observe::{check_run, Observed};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use util::{median, Metrics, Rng};

const WORKLOADS: [&str; 2] = ["paper-scale-reads", "durable-writes"];
/// Requests and write batches the layer probes time.
const PROBE_REQUESTS: usize = 32;
const PROBE_BATCHES: usize = 12;

const USAGE: &str = "usage: perfbench --workload <paper-scale-reads|durable-writes> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --quick";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: None, trace: false, quick: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.quick && (args.workload.is_none() || args.seconds.is_none()) {
        return Err("--workload and --seconds are required".into());
    }
    Ok(args)
}

/// One run's verdict and figures.
struct Outcome {
    errors: Vec<String>,
    observed: Observed,
    metrics: Metrics,
}

/// The workload's live state between set-up and the checks.
enum State {
    Reads(reads::Reads),
    Durable(durable::Durable),
}

impl State {
    fn run(
        &mut self,
        seconds: f64,
        tracer: Option<&Tracer>,
        observed: &mut Observed,
    ) -> std::io::Result<()> {
        match self {
            State::Reads(w) => {
                w.run(seconds, tracer, observed);
                Ok(())
            }
            State::Durable(w) => w.run(seconds, tracer, observed),
        }
    }

    fn graph(&self) -> Arc<acq_graph::AttributedGraph> {
        match self {
            State::Reads(w) => Arc::clone(&w.graph),
            State::Durable(w) => Arc::clone(&w.graph),
        }
    }

    /// The graph the program serves now.
    fn served_graph(&self) -> Arc<acq_graph::AttributedGraph> {
        match self {
            State::Reads(w) => w.engine.graph(),
            State::Durable(w) => w.durable.engine().graph(),
        }
    }

    fn target(&self) -> Target {
        match self {
            State::Reads(_) => Target::Engine,
            State::Durable(_) => Target::Durable,
        }
    }

    /// Stops the server and, on `durable-writes`, checks that reopening the
    /// directory recovers the replayed graph. Returns the workload server's
    /// counters and the client retries, where there are any.
    fn finish(
        self,
        input: &Arc<acq_graph::AttributedGraph>,
        replay: &NaiveGraph,
        errors: &mut Vec<String>,
    ) -> std::io::Result<(Option<ServerCounters>, u64)> {
        Ok(match self {
            State::Reads(_) => (None, 0),
            State::Durable(mut w) => {
                let counters = w.counters();
                w.server.take().expect("server running").shutdown();
                let (dir, retries) = (w.dir.clone(), w.retries);
                drop(w);
                let (reopened, _) =
                    DurableEngine::open_dir(&dir, Arc::clone(input), DurableOptions::default())?;
                if let Err(e) = replay.same_as(&NaiveGraph::copy_from(&reopened.engine().graph())) {
                    errors
                        .push(format!("graph recovered from the log differs from the replay: {e}"));
                }
                (Some(counters), retries)
            }
        })
    }

    /// Times as many set-ups again as at the start of the run.
    fn time_setups(&self, work: &Path) -> std::io::Result<Vec<f64>> {
        match self {
            State::Reads(w) => w.time_setups(),
            State::Durable(w) => w.time_setups(work),
        }
    }

    fn generation(&self) -> u64 {
        match self {
            State::Reads(w) => w.engine.generation(),
            State::Durable(w) => w.durable.engine().generation(),
        }
    }
}

fn setup(
    workload: &str,
    scale: Scale,
    rng: &mut Rng,
    work: &Path,
) -> std::io::Result<(State, Vec<f64>)> {
    Ok(match workload {
        "paper-scale-reads" => {
            let (w, t) = reads::Reads::setup(Arc::new(inputs::paper_graph(scale)), rng)?;
            (State::Reads(w), t)
        }
        _ => {
            let (w, t) =
                durable::Durable::setup(Arc::new(inputs::durable_graph(scale)), rng, work)?;
            (State::Durable(w), t)
        }
    })
}

fn run_workload(
    workload: &str,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> std::io::Result<Outcome> {
    let clock = Instant::now();
    let steal_before = util::steal_ticks();
    let mut rng = Rng::new(seed);
    let (mut state, setup_times) = setup(workload, scale, &mut rng, work)?;
    eprintln!("timing: inputs and set-up {:.1} s", clock.elapsed().as_secs_f64());
    let input = state.graph();
    let first_generation = state.generation();
    let mut observed = Observed::default();
    let mut metrics = Metrics::new();
    let tracer = Tracer::new();
    let mut overhead = None;
    if traced {
        // Untraced, then traced, on the same state: the difference is the
        // cost of recording spans.
        let mut plain = Observed::default();
        state.run(seconds / 2.0, None, &mut plain)?;
        state.run(seconds / 2.0, Some(&tracer), &mut observed)?;
        overhead = Some((plain.queries.p50(), observed.queries.p50()));
        observed.merge(plain);
    } else {
        state.run(seconds, None, &mut observed)?;
    }
    eprintln!("timing: through the timed run {:.1} s", clock.elapsed().as_secs_f64());
    let held = observed.retained_bytes() as f64 / (1024.0 * 1024.0);
    eprintln!(
        "memory: the observations hold {held:.2} MiB, {:.1} % of the peak resident set",
        100.0 * held / observed.peak_rss_mb.max(1e-9)
    );

    let mut errors = Vec::new();
    let target = state.target();
    let replay = check_run(&input, first_generation, &observed, &mut errors);
    println!(
        "check {workload}: {} answers, {} writes",
        observed.answered.len(),
        observed.writes.len()
    );
    if let Err(e) = replay.same_as(&NaiveGraph::copy_from(&state.served_graph())) {
        errors
            .push(format!("served graph differs from the replay of the acknowledged writes: {e}"));
    }
    // Set-ups at both ends of the run: the host's speed drifts over
    // seconds, and `setup_s` is the median over both.
    let mut setup_times = setup_times;
    setup_times.extend(state.time_setups(work)?);
    let ms: Vec<String> = setup_times.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    eprintln!("set-ups (ms): {}", ms.join(" "));
    let (counters, retries) = state.finish(&input, &replay, &mut errors)?;

    eprintln!(
        "timing: through the checks {:.1} s; processor time stolen by the host: {:.1} s",
        clock.elapsed().as_secs_f64(),
        (util::steal_ticks() - steal_before) as f64 / 100.0
    );
    if traced {
        let batch_len = if target == Target::Durable { 4 } else { 1 };
        let mut stream = WriteStream::new(
            rng.fork(99),
            &input,
            WriteMix { edge_share: 0.5, vertex_share: 0.0 },
            |_| true,
        );
        let inputs = ProbeInputs {
            graph: &input,
            requests: observed
                .answered
                .iter()
                .take(PROBE_REQUESTS)
                .map(|(r, _)| r.clone())
                .collect(),
            batches: (0..PROBE_BATCHES).map(|_| stream.batch(batch_len)).collect(),
            target,
            work,
        };
        let (probe_counters, probe_retries) = layers::probe(&inputs, &tracer, &mut metrics)?;
        eprintln!("timing: through the layer probes {:.1} s", clock.elapsed().as_secs_f64());
        let counters = counters.unwrap_or(probe_counters);
        let retries = if target == Target::Engine { probe_retries } else { retries };
        let (hits, lookups) = observed.cache_lookups();
        metrics
            .insert("exec.cache_hit_ratio".into(), (hits as f64 / lookups.max(1) as f64, "ratio"));
        metrics.insert("exec.cache_lookups".into(), (lookups as f64, "count"));
        let batch_mean = counters.queries_served as f64 / counters.batches_executed.max(1) as f64;
        metrics.insert("exec.batch_size_mean".into(), (batch_mean, "count"));
        metrics
            .insert("server.backpressure".into(), (counters.admission_rejections as f64, "count"));
        metrics.insert("client.retries".into(), (retries as f64, "count"));
        metrics.insert("loadgen.late_us_p99".into(), (observed.late.p99(), "us"));
        let self_times = tracer.self_times();
        for layer in LAYERS {
            let ms = self_times.get(layer).map_or(0.0, |&(ms, _)| ms);
            metrics.insert(format!("self.{layer}_ms"), (ms, "ms"));
        }
        for (layer, (ms, count)) in &self_times {
            eprintln!("self time {layer:>8}: {ms:>10.3} ms over {count} spans");
        }
        let (plain, with_spans) = overhead.expect("traced run measured both");
        metrics.insert("trace.overhead_pct".into(), (100.0 * (with_spans - plain) / plain, "%"));
        let spans = tracer.spans().len();
        metrics.insert("trace.spans".into(), (spans as f64, "count"));
        let dir = PathBuf::from(".perfbench/traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
        tracer.write_jsonl(&path)?;
        eprintln!("{spans} spans written to {}", path.display());
    } else {
        let q = &observed.queries;
        let u = &observed.updates;
        let stretches = observed.query_windows.iter().map(|w| ("query stretch", w));
        for (name, samples) in stretches.chain([("update", u)]) {
            if !samples.p99_has_tail() {
                eprintln!(
                    "note: {name} p99 rests on {} samples, fewer than ten beyond it",
                    samples.len()
                );
            }
        }
        let rate = |n: usize, s: f64| n as f64 / s.max(1e-9);
        for (name, value, unit) in [
            ("setup_s", median(&setup_times), "s"),
            ("query_p50_us", q.p50(), "us"),
            ("query_p99_us", observed.query_p99(), "us"),
            ("queries_per_s", rate(q.len(), observed.query_seconds), "1/s"),
            ("update_p50_us", u.p50(), "us"),
            ("update_p99_us", u.p99(), "us"),
            ("updates_per_s", rate(u.len(), observed.update_seconds), "1/s"),
            ("peak_rss_mb", observed.peak_rss_mb, "MiB"),
        ] {
            metrics.insert(name.into(), (value, unit));
        }
    }
    Ok(Outcome { errors, observed, metrics })
}

/// Per-layer self times are reported for these span layers.
const LAYERS: [&str; 11] = [
    "graph", "kcore", "cltree", "fpm", "acq", "exec", "engine", "shard", "durable", "server",
    "harness",
];

fn report(outcome: &Outcome) -> String {
    let (attempted, failed) = outcome.observed.totals();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { format!("{value:?}") } else { "0.0".into() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        metrics.join(", ")
    )
}

fn print_human(workload: &str, outcome: &Outcome) {
    for (kind, (attempted, failed)) in &outcome.observed.counts {
        println!("ops {workload} {kind} attempted={attempted} failed={failed}");
    }
    for (kind, samples) in &outcome.observed.by_kind {
        eprintln!(
            "latency {kind:>16}: n={:>6} p50={:>10.1} us p99={:>10.1} us",
            samples.len(),
            samples.p50(),
            samples.p99()
        );
    }
    for (name, (value, unit)) in &outcome.metrics {
        println!("metric {workload} {name} {value:.4} {unit}");
    }
    for failure in &outcome.observed.failures {
        eprintln!("failed operation: {failure}");
    }
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench/work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let code = if args.quick {
        quick(&work)
    } else {
        let workload = args.workload.as_deref().expect("checked by parse_args");
        match run_workload(
            workload,
            Scale { quick: false },
            args.seed,
            args.seconds.expect("checked by parse_args"),
            args.trace,
            &work,
        ) {
            Ok(outcome) => {
                print_human(workload, &outcome);
                println!("{}", report(&outcome));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                ExitCode::from(1)
            }
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    code
}

/// Every workload on tiny inputs, untraced and traced, with all checks.
fn quick(work: &Path) -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let dir = work.join(format!("{workload}-{traced}"));
            let outcome = std::fs::create_dir_all(&dir)
                .and_then(|()| run_workload(workload, Scale { quick: true }, 1, 1.0, traced, &dir));
            match outcome {
                Ok(outcome) => {
                    print_human(workload, &outcome);
                    let (_, failed) = outcome.observed.totals();
                    let good = outcome.errors.is_empty() && failed == 0;
                    println!(
                        "quick {workload} traced={traced}: {}",
                        if good { "ok" } else { "FAILED" }
                    );
                    ok &= good;
                }
                Err(e) => {
                    println!("quick {workload} traced={traced}: FAILED ({e})");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
