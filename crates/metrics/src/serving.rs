//! Operational counters for the serving layer.
//!
//! The quality measures in the crate root describe *communities*; this module
//! describes the *service* returning them. [`MetricsSnapshot`] is the
//! point-in-time shape an `acq-server` answers a `Metrics` frame with: the
//! server's own frame/connection/admission counters, the engine's
//! per-generation index-cache counters, and the last live-update report. It
//! is a plain serde-able value — no atomics, no references — so it crosses
//! the wire as JSON unchanged and renders as a flat plain-text dump
//! ([`MetricsSnapshot::render_text`]) for operators without a JSON tool at
//! hand (see `docs/OPERATIONS.md`, "Reading the metrics dump").

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Frame, connection and admission counters owned by the server itself.
///
/// All counters are cumulative since server start except
/// `connections_open`, which is a gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerCounters {
    /// Connections accepted since start.
    pub connections_accepted: u64,
    /// Connections currently open (gauge).
    pub connections_open: u64,
    /// Frames decoded successfully (any kind).
    pub frames_received: u64,
    /// Frames written back (responses, errors, pongs).
    pub frames_sent: u64,
    /// Query frames answered with a `QueryOk` response.
    pub queries_served: u64,
    /// Query frames answered with an error frame (invalid request).
    pub query_errors: u64,
    /// `execute_batch` calls issued by connection workers — `queries_served /
    /// batches_executed` is the realised per-connection batching factor.
    pub batches_executed: u64,
    /// Largest single batch handed to `execute_batch`.
    pub max_batch: u64,
    /// Update frames applied successfully by the transactor.
    pub updates_applied: u64,
    /// Graph deltas applied across all update frames (no-ops excluded).
    pub deltas_applied: u64,
    /// Update frames rejected with an error frame (invalid delta).
    pub update_errors: u64,
    /// Frames rejected before dispatch: malformed payloads, oversize or
    /// truncated frames, unsupported versions, unknown kinds.
    pub protocol_errors: u64,
    /// Queries rejected with a `backpressure` error because the global
    /// in-flight bound or a per-connection queue bound was hit.
    pub admission_rejections: u64,
    /// Connections reaped by the socket read timeout — idle or slow-loris
    /// peers that held a socket without completing a frame.
    pub timeouts: u64,
    /// Requests shed with `deadline-exceeded` because their `deadline_ms`
    /// budget expired while they waited in a queue.
    pub deadline_shed: u64,
    /// Retried updates whose idempotency token was already applied: the
    /// cached `UpdateOk` was replayed instead of re-applying the batch.
    pub dedup_hits: u64,
}

/// The engine's per-generation index-cache counters, mirrored from
/// `acq_core::exec::CacheStats` so this crate stays dependency-light.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute their result.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries carried over from the previous generation at swap time.
    pub carried: u64,
    /// Entries of the previous generation dropped at swap time.
    pub dropped: u64,
}

impl CacheCounters {
    /// Fraction of lookups answered from the cache (0.0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What the most recent live update did, mirrored from
/// `acq_core::UpdateReport` (the strategy is carried as its name string).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateCounters {
    /// The generation the update published.
    pub generation: u64,
    /// Deltas that actually changed the graph.
    pub deltas_applied: u64,
    /// Maintenance path taken (`IncrementalStableSkeleton`,
    /// `IncrementalRebuiltSkeleton` or `FullRebuild`).
    pub strategy: String,
    /// Subcore vertices the incremental kernels examined.
    pub subcore_touched: u64,
    /// `subcore_touched` over the pre-update vertex count.
    pub touched_fraction: f64,
    /// Cache entries carried into the new generation.
    pub cache_carried: u64,
    /// Cache entries dropped at the swap.
    pub cache_dropped: u64,
}

/// Counters of the durability layer (delta log + snapshot compaction),
/// mirrored from `acq_durable::DurabilityStats` so this crate stays
/// dependency-light. Present only when the server runs a durable engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityCounters {
    /// Record bytes appended (and fsynced) to the delta log since open.
    pub log_bytes_appended: u64,
    /// Records appended to the delta log since open.
    pub log_records_appended: u64,
    /// Log records replayed into the engine at open.
    pub records_replayed: u64,
    /// Trailing log bytes truncated as torn or corrupt at open.
    pub recovery_truncated_bytes: u64,
    /// Recovery actions that discarded data (log truncations plus discarded
    /// snapshots).
    pub recovery_truncations: u64,
    /// Completed snapshot compactions since open.
    pub compactions: u64,
    /// Compaction attempts that failed (the log stays authoritative).
    pub compaction_failures: u64,
    /// Wall-clock duration of the last completed compaction, in µs.
    pub last_compaction_micros: u64,
    /// Size of the current snapshot file in bytes.
    pub snapshot_bytes: u64,
}

/// One shard of a sharded engine, mirrored from `acq_core::ShardStatus` so
/// this crate stays dependency-light. Present only when the server runs a
/// sharded engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// The shard index.
    pub shard: u64,
    /// Vertices owned by the shard.
    pub vertices: u64,
    /// The shard's own generation number (bumped only by updates that
    /// touched this shard; the top-level `generation` is the logical one).
    pub generation: u64,
    /// The shard's index-cache counters.
    pub cache: CacheCounters,
}

/// Everything a `Metrics` frame reports: server counters, engine cache
/// counters, the published generation number, the last update (if any), the
/// durability counters (if the server is durable), and per-shard counters
/// (if the engine is sharded).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Frame/connection/admission counters of the server.
    pub server: ServerCounters,
    /// Index-cache counters of the currently published generation (summed
    /// across shards on a sharded engine).
    pub cache: CacheCounters,
    /// The currently published graph generation number.
    pub generation: u64,
    /// The most recent transactor update, if one has been applied.
    pub last_update: Option<UpdateCounters>,
    /// Delta-log and compaction counters; `None` on a volatile server.
    pub durability: Option<DurabilityCounters>,
    /// Per-shard counters in shard order; empty on an unsharded engine (the
    /// text dump omits shard lines entirely in that case).
    pub shards: Vec<ShardCounters>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a flat `name value` plain-text dump, one
    /// counter per line, in a stable order — the format operators `grep` and
    /// dashboards scrape (see `docs/OPERATIONS.md`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let s = &self.server;
        for (name, value) in [
            ("acq_connections_accepted", s.connections_accepted),
            ("acq_connections_open", s.connections_open),
            ("acq_frames_received", s.frames_received),
            ("acq_frames_sent", s.frames_sent),
            ("acq_queries_served", s.queries_served),
            ("acq_query_errors", s.query_errors),
            ("acq_batches_executed", s.batches_executed),
            ("acq_max_batch", s.max_batch),
            ("acq_updates_applied", s.updates_applied),
            ("acq_deltas_applied", s.deltas_applied),
            ("acq_update_errors", s.update_errors),
            ("acq_protocol_errors", s.protocol_errors),
            ("acq_admission_rejections", s.admission_rejections),
            ("acq_timeouts", s.timeouts),
            ("acq_deadline_shed", s.deadline_shed),
            ("acq_dedup_hits", s.dedup_hits),
            ("acq_cache_hits", self.cache.hits),
            ("acq_cache_misses", self.cache.misses),
            ("acq_cache_evictions", self.cache.evictions),
            ("acq_cache_carried", self.cache.carried),
            ("acq_cache_dropped", self.cache.dropped),
            ("acq_generation", self.generation),
        ] {
            let _ = writeln!(out, "{name} {value}");
        }
        let _ = writeln!(out, "acq_cache_hit_rate {:.4}", self.cache.hit_rate());
        if let Some(u) = &self.last_update {
            let _ = writeln!(out, "acq_last_update_generation {}", u.generation);
            let _ = writeln!(out, "acq_last_update_deltas_applied {}", u.deltas_applied);
            let _ = writeln!(out, "acq_last_update_strategy {}", u.strategy);
            let _ = writeln!(out, "acq_last_update_subcore_touched {}", u.subcore_touched);
            let _ = writeln!(out, "acq_last_update_touched_fraction {:.4}", u.touched_fraction);
            let _ = writeln!(out, "acq_last_update_cache_carried {}", u.cache_carried);
            let _ = writeln!(out, "acq_last_update_cache_dropped {}", u.cache_dropped);
        }
        if let Some(d) = &self.durability {
            for (name, value) in [
                ("acq_log_bytes_appended", d.log_bytes_appended),
                ("acq_log_records_appended", d.log_records_appended),
                ("acq_log_records_replayed", d.records_replayed),
                ("acq_recovery_truncated_bytes", d.recovery_truncated_bytes),
                ("acq_recovery_truncations", d.recovery_truncations),
                ("acq_compactions", d.compactions),
                ("acq_compaction_failures", d.compaction_failures),
                ("acq_last_compaction_micros", d.last_compaction_micros),
                ("acq_snapshot_bytes", d.snapshot_bytes),
            ] {
                let _ = writeln!(out, "{name} {value}");
            }
        }
        if !self.shards.is_empty() {
            let _ = writeln!(out, "acq_shards {}", self.shards.len());
            for sh in &self.shards {
                let i = sh.shard;
                let _ = writeln!(out, "acq_shard_{i}_vertices {}", sh.vertices);
                let _ = writeln!(out, "acq_shard_{i}_generation {}", sh.generation);
                let _ = writeln!(out, "acq_shard_{i}_cache_hits {}", sh.cache.hits);
                let _ = writeln!(out, "acq_shard_{i}_cache_misses {}", sh.cache.misses);
                let _ = writeln!(out, "acq_shard_{i}_cache_evictions {}", sh.cache.evictions);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            server: ServerCounters {
                connections_accepted: 3,
                connections_open: 1,
                frames_received: 40,
                frames_sent: 41,
                queries_served: 30,
                query_errors: 2,
                batches_executed: 10,
                max_batch: 8,
                updates_applied: 4,
                deltas_applied: 9,
                update_errors: 1,
                protocol_errors: 2,
                admission_rejections: 5,
                timeouts: 2,
                deadline_shed: 3,
                dedup_hits: 6,
            },
            cache: CacheCounters { hits: 20, misses: 10, evictions: 0, carried: 4, dropped: 1 },
            generation: 5,
            last_update: Some(UpdateCounters {
                generation: 5,
                deltas_applied: 2,
                strategy: "IncrementalStableSkeleton".to_string(),
                subcore_touched: 7,
                touched_fraction: 0.07,
                cache_carried: 4,
                cache_dropped: 1,
            }),
            durability: Some(DurabilityCounters {
                log_bytes_appended: 4096,
                log_records_appended: 12,
                records_replayed: 3,
                recovery_truncated_bytes: 17,
                recovery_truncations: 1,
                compactions: 2,
                compaction_failures: 0,
                last_compaction_micros: 850,
                snapshot_bytes: 2048,
            }),
            shards: vec![
                ShardCounters {
                    shard: 0,
                    vertices: 7,
                    generation: 2,
                    cache: CacheCounters {
                        hits: 15,
                        misses: 6,
                        evictions: 0,
                        carried: 4,
                        dropped: 1,
                    },
                },
                ShardCounters {
                    shard: 1,
                    vertices: 3,
                    generation: 1,
                    cache: CacheCounters {
                        hits: 5,
                        misses: 4,
                        evictions: 0,
                        carried: 0,
                        dropped: 0,
                    },
                },
            ],
        }
    }

    #[test]
    fn text_dump_is_flat_and_complete() {
        let text = sample().render_text();
        assert!(text.contains("acq_queries_served 30\n"));
        assert!(text.contains("acq_timeouts 2\n"));
        assert!(text.contains("acq_deadline_shed 3\n"));
        assert!(text.contains("acq_dedup_hits 6\n"));
        assert!(text.contains("acq_cache_hit_rate 0.6667\n"));
        assert!(text.contains("acq_last_update_strategy IncrementalStableSkeleton\n"));
        assert!(text.contains("acq_log_bytes_appended 4096\n"));
        assert!(text.contains("acq_log_records_replayed 3\n"));
        assert!(text.contains("acq_recovery_truncations 1\n"));
        assert!(text.contains("acq_last_compaction_micros 850\n"));
        assert!(text.contains("acq_shards 2\n"));
        assert!(text.contains("acq_shard_0_vertices 7\n"));
        assert!(text.contains("acq_shard_1_generation 1\n"));
        assert!(text.contains("acq_shard_1_cache_hits 5\n"));
        // Flat `name value` lines only: every line splits into exactly two
        // whitespace-separated fields.
        for line in text.lines() {
            assert_eq!(line.split_whitespace().count(), 2, "not flat: {line}");
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snapshot = sample();
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);
        // And a default (no update yet) snapshot keeps its None.
        let cold = MetricsSnapshot::default();
        let json = serde_json::to_string(&cold).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cold);
        assert!(back.last_update.is_none());
        assert!(back.durability.is_none());
        assert!(back.shards.is_empty());
        assert!(
            !cold.render_text().contains("acq_log_"),
            "volatile servers must not emit durability lines"
        );
        assert!(
            !cold.render_text().contains("acq_shard"),
            "unsharded servers must not emit shard lines"
        );
    }

    #[test]
    fn hit_rate_handles_unused_cache() {
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }
}
