//! Per-layer metrics, read from outside the program: the public counters
//! (`Cluster::metrics`, `io_stats`, `net_stats`, `travel_metrics`) are
//! snapshotted before and after each operation, and the benchmark times
//! its own calls into the door, parse and cluster layers.

use crate::report::Metric;
use crate::stats::percentile;
use graphtrek::cluster::ClusterState;
use graphtrek::prelude::TravelMetrics;
use gt_kvstore::IoProfile;
use std::path::Path;

/// Cluster-wide sums of the counters the per-layer metrics use.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub requests: u64,
    pub queue_peak: u64,
    pub replica_writes: u64,
    pub views_pinned: u64,
    pub stale_seq_reads: u64,
    pub compactions_deferred: u64,
    pub cold: u64,
    pub sequential: u64,
    pub warm: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub msgs: u64,
    pub net_bytes: u64,
}

impl Counters {
    pub fn read(c: &ClusterState) -> Counters {
        let mut out = Counters::default();
        for m in c.metrics() {
            out.requests += m.requests_received;
            out.queue_peak = out.queue_peak.max(m.queue_peak as u64);
            out.replica_writes += m.replica_writes;
            out.views_pinned += m.views_pinned;
            out.stale_seq_reads += m.stale_seq_reads;
            out.compactions_deferred += m.compactions_deferred;
        }
        for io in c.io_stats() {
            out.cold += io.cold;
            out.sequential += io.sequential;
            out.warm += io.warm;
            out.bytes_read += io.bytes_read;
            out.bytes_written += io.bytes_written;
        }
        let net = c.net_stats();
        out.msgs = net.total_messages();
        out.net_bytes = net.total_bytes();
        out
    }

    /// Counter growth since `before`; the queue peak is kept as a peak.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            requests: self.requests - before.requests,
            queue_peak: self.queue_peak,
            replica_writes: self.replica_writes - before.replica_writes,
            views_pinned: self.views_pinned - before.views_pinned,
            stale_seq_reads: self.stale_seq_reads - before.stale_seq_reads,
            compactions_deferred: self.compactions_deferred - before.compactions_deferred,
            cold: self.cold - before.cold,
            sequential: self.sequential - before.sequential,
            warm: self.warm - before.warm,
            bytes_read: self.bytes_read - before.bytes_read,
            bytes_written: self.bytes_written - before.bytes_written,
            msgs: self.msgs - before.msgs,
            net_bytes: self.net_bytes - before.net_bytes,
        }
    }

    pub fn add(&mut self, d: &Counters) {
        self.requests += d.requests;
        self.queue_peak = self.queue_peak.max(d.queue_peak);
        self.replica_writes += d.replica_writes;
        self.views_pinned += d.views_pinned;
        self.stale_seq_reads += d.stale_seq_reads;
        self.compactions_deferred += d.compactions_deferred;
        self.cold += d.cold;
        self.sequential += d.sequential;
        self.warm += d.warm;
        self.bytes_read += d.bytes_read;
        self.bytes_written += d.bytes_written;
        self.msgs += d.msgs;
        self.net_bytes += d.net_bytes;
    }
}

/// Everything the traced phase of a run accumulates for the per-layer
/// metrics. "Per travel" divides by `travels`: the timed multi-step
/// travels of a traversal workload, or every door read of `door_mixed`.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub travels: u64,
    /// Counter growth attributed to those travels.
    pub per_travel: Counters,
    /// Counter growth over the whole traced phase (writes included).
    pub phase: Counters,
    pub travel: TravelMetrics,
    pub executions: u64,
    pub admit_wait_us: f64,
    pub handoff_us: f64,
    /// Per read: latency seen by the caller minus the engine's elapsed.
    pub overhead_us: Vec<f64>,
    pub frames: u64,
    pub req_bytes: u64,
    pub reply_bytes: u64,
    pub codec_us: f64,
    pub queries_parsed: u64,
    pub parse_us: f64,
    pub plan_bytes: u64,
    pub throttled: u64,
    pub ingests: u64,
    pub user_bytes_written: u64,
    /// (bytes under the data directory, encoded bytes of the graph).
    pub space: (u64, u64),
    pub write_late_ms_max: f64,
    pub io: IoProfile,
    pub failed: u64,
    pub attempted: u64,
    /// Traced-phase median latency minus untraced-phase median, in ms.
    pub trace_overhead_ms: f64,
}

impl LayerTotals {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let t = self.travels as f64;
        let c = &self.per_travel;
        let p = &self.phase;
        let tm = &self.travel;
        let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
        let pt = |num: f64| Metric::ratio(num, t);
        let modeled_ms = (c.cold as f64 * us(self.io.cold_read)
            + c.sequential as f64 * us(self.io.sequential_read))
            / 1e3;
        vec![
            Metric::plain("door.overhead_us_p50", percentile(&self.overhead_us, 500)),
            Metric::plain("door.overhead_us_p99", percentile(&self.overhead_us, 990)),
            Metric::ratio(self.req_bytes as f64, self.frames as f64).named("proto.req_bytes"),
            Metric::ratio(self.reply_bytes as f64, self.frames as f64).named("proto.reply_bytes"),
            Metric::ratio(self.codec_us, self.frames as f64).named("proto.codec_us"),
            Metric::plain("qos.throttled", Some(self.throttled as f64)),
            Metric::ratio(self.parse_us, self.queries_parsed as f64).named("parse.us_per_query"),
            Metric::ratio(self.plan_bytes as f64, self.queries_parsed as f64)
                .named("lang.plan_bytes"),
            pt(self.admit_wait_us).named("cluster.admit_wait_us"),
            pt(self.handoff_us).named("cluster.handoff_us"),
            pt(self.executions as f64).named("coord.executions_per_travel"),
            pt(c.requests as f64).named("server.requests_per_travel"),
            pt(tm.redundant_visits as f64).named("cache.redundant_per_travel"),
            pt(tm.combined_visits as f64).named("queue.combined_per_travel"),
            pt(tm.real_io_visits as f64).named("server.real_io_per_travel"),
            Metric::ratio(tm.real_io_visits as f64, c.requests as f64).named("server.useful_ratio"),
            pt(tm.queue_wait_ns as f64 / 1e3).named("queue.wait_us_per_travel"),
            Metric::ratio(tm.queue_wait_ns as f64 / 1e3, tm.queue_popped as f64)
                .named("queue.wait_us_per_pop"),
            Metric::plain("queue.peak", Some(p.queue_peak.max(c.queue_peak) as f64)),
            pt(c.msgs as f64).named("net.msgs_per_travel"),
            pt(c.net_bytes as f64).named("net.bytes_per_travel"),
            Metric::ratio(c.net_bytes as f64, c.msgs as f64).named("net.bytes_per_msg"),
            pt(c.cold as f64).named("kv.cold_reads_per_travel"),
            pt(c.sequential as f64).named("kv.seq_reads_per_travel"),
            pt(c.warm as f64).named("kv.warm_reads_per_travel"),
            pt(c.bytes_read as f64).named("kv.bytes_read_per_travel"),
            pt(modeled_ms).named("kv.modeled_wait_ms_per_travel"),
            Metric::ratio(p.bytes_written as f64, self.user_bytes_written as f64)
                .named("kv.write_amp"),
            Metric::ratio(self.space.0 as f64, self.space.1 as f64).named("kv.space_amp"),
            Metric::ratio(p.replica_writes as f64, self.ingests as f64)
                .named("repl.replica_writes_per_ingest"),
            Metric::ratio(p.views_pinned as f64, t).named("mvcc.views_pinned_per_travel"),
            Metric::plain("mvcc.stale_seq_reads", Some(p.stale_seq_reads as f64)),
            Metric::plain(
                "mvcc.compactions_deferred",
                Some(p.compactions_deferred as f64),
            ),
            Metric::plain("gen.write_late_ms_max", Some(self.write_late_ms_max)),
            Metric::ratio(self.failed as f64, self.attempted as f64).named("failed_frac"),
            Metric::plain("trace.overhead_ms", Some(self.trace_overhead_ms)),
        ]
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Encoded size of a vertex and its key, as the store holds it.
pub fn vertex_bytes(v: &gt_graph::Vertex) -> u64 {
    (8 + gt_graph::codec::encode_vertex(v).len()) as u64
}

/// Encoded size of an edge and its key, as the store holds it.
pub fn edge_bytes(e: &gt_graph::Edge) -> u64 {
    (gt_graph::codec::edge_key(e.src, &e.label, e.dst).len()
        + gt_graph::codec::encode_props(&e.props).len()) as u64
}

/// Encoded bytes of a whole graph.
pub fn graph_bytes(g: &gt_graph::InMemoryGraph) -> u64 {
    g.iter_vertices().map(vertex_bytes).sum::<u64>()
        + g.iter_edges().map(|e| edge_bytes(&e)).sum::<u64>()
}
