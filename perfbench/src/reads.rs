//! `paper-scale-reads`: two caller threads in a closed loop on
//! `Executor::execute` of an in-process `Engine` over a DBLP-like graph of
//! about 10^5 vertices, after a phase of one-keyword updates on the same
//! engine, one `apply_updates` call each.

use crate::checker::Interner;
use crate::inputs::{paper_request, Eligible, WriteMix, WriteStream};
use crate::observe::{query_kind, Observed};
use crate::trace::{timed, Tracer};
use crate::util::{repeat_setup, Rng};
use acq_core::{Engine, Executor};
use acq_graph::AttributedGraph;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of a phase spent on reads; the rest is the update phase.
const READ_SHARE: f64 = 0.5;

pub struct Reads {
    pub graph: Arc<AttributedGraph>,
    pub engine: Arc<Engine>,
    eligible: Eligible,
    callers: Vec<Rng>,
    updates: WriteStream,
}

impl Reads {
    /// Builds the engine (the index build is the set-up cost); returns the
    /// set-up times in seconds.
    pub fn setup(graph: Arc<AttributedGraph>, rng: &mut Rng) -> std::io::Result<(Self, Vec<f64>)> {
        let eligible = Eligible::new(&graph, |_| true);
        let callers = (0..2).map(|i| rng.fork(i)).collect();
        let mix = WriteMix { edge_share: 0.0, vertex_share: 0.0 };
        let updates = WriteStream::new(rng.fork(7), &graph, mix, |_| true);
        let (engine, times) = repeat_setup(|_| Ok(build(&graph)))?;
        Ok((Self { graph, engine, eligible, callers, updates }, times))
    }

    /// Times more set-ups of the same kind, each dropped before the next.
    pub fn time_setups(&self) -> std::io::Result<Vec<f64>> {
        Ok(repeat_setup(|_| Ok(build(&self.graph)))?.1)
    }

    /// The update phase first, while the engine's cache is cold, so each
    /// update costs the same whatever the read mix left behind; then the
    /// reads, which see no concurrent update.
    pub fn run(&mut self, seconds: f64, tracer: Option<&Tracer>, observed: &mut Observed) {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds * (1.0 - READ_SHARE));
        let mut n = 0u64;
        while Instant::now() < deadline {
            let batch = self.updates.batch(1);
            n += 1;
            let (outcome, took) = timed(tracer, "engine.apply_updates", None, n, || {
                self.engine.apply_updates(&batch)
            });
            match outcome {
                Ok(report) => {
                    observed.attempt("update", true);
                    observed.updates.push(took);
                    observed.writes.push((batch, report));
                }
                Err(e) => observed.fail("update", e.to_string()),
            }
        }
        observed.update_seconds += started.elapsed().as_secs_f64();

        let read_for = Duration::from_secs_f64(seconds * READ_SHARE);
        let shared = Mutex::new(std::mem::take(observed));
        let started = Instant::now();
        std::thread::scope(|scope| {
            for (t, rng) in self.callers.iter_mut().enumerate() {
                let (engine, graph, eligible, shared) =
                    (&self.engine, &self.graph, &self.eligible, &shared);
                scope.spawn(move || {
                    let mut local = Observed::default();
                    let mut interner = Interner::default();
                    let deadline = started + read_for;
                    let mut due = Instant::now();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let request = paper_request(rng, graph, eligible);
                        let kind = query_kind(&request);
                        let id = ((t as u64) << 40) | n;
                        n += 1;
                        local.late.push(Instant::now() - due);
                        let into = started.elapsed();
                        let (outcome, took) =
                            timed(tracer, "exec.execute", None, id, || engine.execute(&request));
                        due = Instant::now();
                        match outcome {
                            Ok(response) => {
                                local.attempt("query", true);
                                local.answered_query(took, into, read_for);
                                local.by_kind.entry(kind).or_default().push(took);
                                local.answered.push((request, interner.answer(&response)));
                            }
                            Err(e) => local.fail("query", e.to_string()),
                        }
                    }
                    let mut all = shared.lock().expect("observation lock poisoned");
                    all.merge(local);
                });
            }
        });
        *observed = shared.into_inner().expect("observation lock poisoned");
        observed.query_seconds += started.elapsed().as_secs_f64();
        observed.note_peak_rss();
    }
}

/// The set-up: the engine and its index over the input graph.
fn build(graph: &Arc<AttributedGraph>) -> Arc<Engine> {
    Arc::new(Engine::new(Arc::clone(graph)))
}
