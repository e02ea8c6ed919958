//! What a workload run observed, and the checks made on it after the timed
//! region: every answer against the independent checker on the graph of the
//! generation it names, a sample against the naive solver, the planted
//! wrong answers, and the write path.

use crate::checker::{plant_self_test, Answer, NaiveGraph};
use crate::util::{median, Samples};
use acq_core::{QuerySpec, Request, UpdateReport};
use acq_graph::{AttributedGraph, GraphDelta};
use std::collections::BTreeMap;
use std::time::Duration;

/// Answers checked against the naive solver per run.
const EXACT_SAMPLE: usize = 16;

/// Equal stretches of a query phase. The query p99 is the median of the
/// stretches' p99s, so that a pause of the host that covers one stretch
/// moves one of them, not the figure. Each stretch of either workload holds
/// well over a thousand queries, so each p99 rests on more than ten samples
/// beyond it.
pub const QUERY_WINDOWS: usize = 3;

#[derive(Debug, Default)]
pub struct Observed {
    /// Query latencies in completion order per client thread.
    pub queries: Samples,
    /// The same latencies split by the stretch of the query phase they
    /// started in (see [`QUERY_WINDOWS`]).
    pub query_windows: Vec<Samples>,
    pub updates: Samples,
    /// Per kind: attempted, failed.
    pub counts: BTreeMap<String, (u64, u64)>,
    /// Latency per query kind, for the human-readable report.
    pub by_kind: BTreeMap<String, Samples>,
    pub late: Samples,
    pub answered: Vec<(Request, Answer)>,
    pub writes: Vec<(Vec<GraphDelta>, UpdateReport)>,
    pub query_seconds: f64,
    pub update_seconds: f64,
    pub failures: Vec<String>,
    /// Peak resident set at the end of the timed loops, before the
    /// benchmark decodes or checks anything.
    pub peak_rss_mb: f64,
}

impl Observed {
    pub fn attempt(&mut self, kind: &str, ok: bool) {
        let entry = self.counts.entry(kind.to_string()).or_default();
        entry.0 += 1;
        if !ok {
            entry.1 += 1;
        }
    }

    pub fn fail(&mut self, kind: &str, message: String) {
        self.attempt(kind, false);
        if self.failures.len() < 10 {
            self.failures.push(format!("{kind}: {message}"));
        }
    }

    /// Records an answered query that started `into` the way through a
    /// query phase of length `phase`.
    pub fn answered_query(&mut self, took: Duration, into: Duration, phase: Duration) {
        let window = ((into.as_secs_f64() / phase.as_secs_f64()) * QUERY_WINDOWS as f64) as usize;
        self.query_windows.resize_with(QUERY_WINDOWS, Samples::default);
        self.query_windows[window.min(QUERY_WINDOWS - 1)].push(took);
        self.queries.push(took);
    }

    /// The median of the query windows' p99s.
    pub fn query_p99(&self) -> f64 {
        let p99s: Vec<f64> =
            self.query_windows.iter().filter(|w| w.len() > 0).map(Samples::p99).collect();
        median(&p99s)
    }

    /// Folds one caller's observations into these.
    pub fn merge(&mut self, local: Observed) {
        self.queries.extend(&local.queries);
        let windows = self.query_windows.len().max(local.query_windows.len());
        self.query_windows.resize_with(windows, Samples::default);
        for (all, window) in self.query_windows.iter_mut().zip(&local.query_windows) {
            all.extend(window);
        }
        self.updates.extend(&local.updates);
        self.late.extend(&local.late);
        for (kind, (a, f)) in local.counts {
            let entry = self.counts.entry(kind).or_default();
            entry.0 += a;
            entry.1 += f;
        }
        for (kind, samples) in local.by_kind {
            self.by_kind.entry(kind).or_default().extend(&samples);
        }
        self.answered.extend(local.answered);
        self.writes.extend(local.writes);
        self.peak_rss_mb = self.peak_rss_mb.max(local.peak_rss_mb);
        for failure in local.failures {
            if self.failures.len() < 10 {
                self.failures.push(failure);
            }
        }
    }

    pub fn note_peak_rss(&mut self) {
        self.peak_rss_mb = self.peak_rss_mb.max(crate::util::peak_rss_mb());
    }

    pub fn totals(&self) -> (u64, u64) {
        self.counts.values().fold((0, 0), |(a, f), &(x, y)| (a + x, f + y))
    }

    /// Heap bytes the observations hold: latency samples, kept answers
    /// (each distinct member list once) and acknowledged batches. This is
    /// the benchmark's own share of the peak resident set, and it grows
    /// with the number of operations a run completes.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let samples: usize = [&self.queries, &self.updates, &self.late]
            .into_iter()
            .chain(&self.query_windows)
            .chain(self.by_kind.values())
            .map(|s| s.0.capacity() * size_of::<f64>())
            .sum();
        let mut lists = std::collections::HashSet::new();
        let mut answers = self.answered.capacity() * size_of::<(Request, Answer)>();
        for (request, answer) in &self.answered {
            answers += 4 * match &request.spec {
                QuerySpec::Community { keywords } => keywords.as_ref().map_or(0, Vec::capacity),
                QuerySpec::ExactKeywords { keywords } | QuerySpec::Threshold { keywords, .. } => {
                    keywords.capacity()
                }
            };
            answers += answer.communities.capacity() * size_of::<(Vec<u32>, usize)>();
            for (label, members) in &answer.communities {
                answers += 4 * label.capacity();
                if lists.insert(std::sync::Arc::as_ptr(members)) {
                    answers += size_of::<Vec<u32>>() + 16 + 4 * members.capacity();
                }
            }
        }
        let writes: usize = self
            .writes
            .iter()
            .map(|(batch, _)| {
                size_of::<(Vec<GraphDelta>, UpdateReport)>()
                    + batch.capacity() * size_of::<GraphDelta>()
            })
            .sum();
        samples + answers + writes
    }

    /// Index-cache hits and lookups summed from the answers' metadata.
    pub fn cache_lookups(&self) -> (u64, u64) {
        self.answered
            .iter()
            .fold((0, 0), |(h, l), (_, a)| (h + a.cache_hits, l + a.cache_hits + a.cache_misses))
    }
}

pub fn query_kind(request: &Request) -> String {
    match request.spec {
        QuerySpec::Community { .. } => format!("query.{}", request.algorithm.name()),
        QuerySpec::ExactKeywords { .. } => "query.SW".into(),
        QuerySpec::Threshold { .. } => "query.SWT".into(),
    }
}

/// Replays the acknowledged writes in generation order on the checker's
/// own copy of `input` and checks every answer on the graph of its
/// generation. Returns the replayed final graph; problems go to `errors`.
pub fn check_run(
    input: &AttributedGraph,
    first_generation: u64,
    observed: &Observed,
    errors: &mut Vec<String>,
) -> NaiveGraph {
    let mut graph = NaiveGraph::copy_from(input);
    let mut writes: Vec<&(Vec<GraphDelta>, UpdateReport)> = observed.writes.iter().collect();
    writes.sort_by_key(|(_, report)| report.generation);
    for (i, (_, report)) in writes.iter().enumerate() {
        let expected = first_generation + 1 + i as u64;
        if report.generation != expected {
            errors.push(format!(
                "acknowledged generations are not {}..={}: position {i} holds {}",
                first_generation + 1,
                first_generation + writes.len() as u64,
                report.generation
            ));
            return graph;
        }
    }
    let last_generation = first_generation + writes.len() as u64;
    let mut by_generation: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, (_, response)) in observed.answered.iter().enumerate() {
        let g = response.generation;
        if g < first_generation || g > last_generation {
            errors.push(format!(
                "an answer names generation {g} outside {first_generation}..={last_generation}"
            ));
            return graph;
        }
        by_generation.entry(g).or_default().push(i);
    }
    let stride = (observed.answered.len() / EXACT_SAMPLE).max(1);
    let mut planted = false;
    let mut failures = 0usize;
    for generation in first_generation..=last_generation {
        for &i in by_generation.get(&generation).map_or(&[][..], Vec::as_slice) {
            let (request, response) = &observed.answered[i];
            let verdict = if i % stride == 0 {
                graph.check_full(request, response)
            } else {
                graph.check(request, response)
            };
            if let Err(e) = verdict {
                failures += 1;
                if failures <= 5 {
                    errors.push(format!(
                        "answer {i} ({}, q={}, k={}): {e}",
                        query_kind(request),
                        request.vertex.0,
                        request.k
                    ));
                }
            }
            let labelled =
                matches!(request.spec, QuerySpec::Community { .. }) && response.label_size > 0;
            if !planted && labelled {
                planted = true;
                if let Err(e) = plant_self_test(&graph, request, response) {
                    errors.push(format!("checker self-test: {e}"));
                }
            }
        }
        if generation < last_generation {
            let (batch, _) = writes[(generation - first_generation) as usize];
            if let Err(e) = graph.apply_batch(batch) {
                errors.push(format!("replay of generation {}: {e}", generation + 1));
                return graph;
            }
        }
    }
    if failures > 5 {
        errors.push(format!("{failures} answers failed the checker in all"));
    }
    if !planted {
        errors.push("no answer with a non-empty label to plant wrong answers in".into());
    }
    graph
}
