//! `deep_cold`: one client runs one 8-step RMAT travel at a time (a
//! closed loop of 1) on cold stores, each followed by point, 2-hop and
//! write probes so that every end-to-end metric exists on every
//! workload. A round is: drop caches, travel, point and 2-hop probes,
//! drop caches, writes. Only the 8-step travel feeds `travel_*` and the
//! per-travel layer metrics.

use crate::inputs::{travel_rounds, TravelRound};
use crate::layers::{dir_bytes, edge_bytes, graph_bytes, vertex_bytes, Counters, LayerTotals};
use crate::run::{ms, parse_probe, proto_probe, Phase, Samples, OP_TIMEOUT};
use crate::stats::min_samples;
use crate::trace::Tracer;
use graphtrek::oracle;
use graphtrek::prelude::*;
use gt_graph::{Edge, InMemoryGraph, Props, Vertex};
use gt_kvstore::IoProfile;
use gt_net::NetConfig;
use gt_rmat::{RmatConfig, RMAT_ELABEL, RMAT_VTYPE};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// The paper's regime: a cold store behind a modeled disk, so storage
// waits, the merging queue and the affiliate cache decide latency.
const SCALE: u32 = 8;
const SERVERS: usize = 8;
const IO: IoProfile = IoProfile {
    cold_read: Duration::from_millis(2),
    warm_read: Duration::from_micros(1),
    sequential_read: Duration::from_micros(20),
};
/// Small next to the graph, as the paper's block cache was: re-visits
/// across steps mostly miss, which is the I/O execution merging saves.
const BLOCK_CACHE_RUNS: usize = 16;
const STEPS: u16 = 8;

/// Probes after each travel: cheap point reads get enough samples for a
/// steady p99; the costlier 2-hop reads get the 1000 a p99 needs over a
/// run of about 100 travels. The writes follow a second cache drop, and
/// with 90 of them about a quarter find their check read cold: p50 stays
/// in the warm mode and p99 in the cold one.
const POINT_PROBES: usize = 30;
const HOP_PROBES: usize = 10;
const WRITE_PROBES: usize = 90;
/// Ids of probe-written vertices start here, far above the graph's.
const FIRST_NEW_ID: u64 = 1 << 40;

pub struct DeepCold {
    graph: InMemoryGraph,
    cluster: Cluster,
    dir: PathBuf,
    oracle: HashMap<(u64, u16), Vec<VertexId>>,
    rounds: Box<dyn Iterator<Item = TravelRound>>,
    next_new_id: u64,
    next_req: u64,
    /// Every acknowledged write, checked readable after the run.
    acked: Vec<u64>,
    written_bytes: u64,
}

fn chain(source: u64, steps: u16) -> GTravel {
    (0..steps).fold(GTravel::v([source]), |q, _| q.e(RMAT_ELABEL))
}

impl DeepCold {
    /// Generate the graph, build and load the cluster, and warm it up.
    pub fn setup(seed: u64, dir: &Path) -> DeepCold {
        let rmat = RmatConfig {
            avg_out_degree: 16,
            attr_bytes: 64,
            ..RmatConfig::rmat1(SCALE)
        };
        let graph = gt_rmat::generate(&rmat);
        std::fs::remove_dir_all(dir).ok();
        let cluster = Cluster::build(
            &graph,
            ClusterConfig::new(dir, SERVERS)
                .io(IO)
                .block_cache_runs(BLOCK_CACHE_RUNS)
                .seal_cold(true),
            EngineConfig::new(EngineKind::GraphTrek)
                .workers(2)
                .net(NetConfig::cluster()),
        )
        .expect("build cluster");
        for v in 0..3 {
            cluster.submit(&chain(v, STEPS)).expect("warm-up travel");
        }
        DeepCold {
            rounds: Box::new(travel_rounds(
                seed,
                rmat.n_vertices(),
                [POINT_PROBES, HOP_PROBES, WRITE_PROBES],
            )),
            graph,
            cluster,
            dir: dir.to_path_buf(),
            oracle: HashMap::new(),
            next_new_id: FIRST_NEW_ID,
            next_req: 0,
            acked: Vec::new(),
            written_bytes: 0,
        }
    }

    pub fn teardown(self) {
        self.cluster.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }

    fn expected(&mut self, source: u64, steps: u16) -> &[VertexId] {
        let g = &self.graph;
        self.oracle.entry((source, steps)).or_insert_with(|| {
            let plan = chain(source, steps).compile().expect("chain compiles");
            oracle::traverse(g, &plan).all_vertices()
        })
    }

    /// Run one start/wait travel; returns the caller-observed latency,
    /// the result and the ticket, and feeds the traced phase's layer
    /// totals.
    fn read(
        &mut self,
        t: &mut Tracer,
        q: &GTravel,
        acc: &mut LayerTotals,
    ) -> Result<(Duration, TravelResult, Ticket), ClusterError> {
        let req = self.next_req;
        self.next_req += 1;
        let text = t.on().then(|| parse_probe(t, req, q, acc));
        let start = Instant::now();
        let ticket = t.span("Cluster::start", req, |_| self.cluster.start(q))?;
        let res = t.span("Cluster::wait", req, |_| {
            self.cluster.wait(&ticket, OP_TIMEOUT)
        })?;
        let lat = start.elapsed();
        if let Some(text) = text {
            acc.overhead_us
                .push((lat.saturating_sub(res.elapsed)).as_secs_f64() * 1e6);
            let by_depth = res
                .by_depth
                .iter()
                .map(|(d, vs)| (*d, vs.iter().map(|v| v.0).collect()))
                .collect();
            proto_probe(
                t,
                req,
                &text,
                by_depth,
                res.progress.created,
                res.elapsed.as_micros() as u64,
                acc,
            );
        }
        Ok((lat, res, ticket))
    }

    fn travel(&mut self, t: &mut Tracer, source: u64, s: &mut Samples, acc: &mut LayerTotals) {
        let q = chain(source, STEPS);
        t.span("drop_storage_caches", self.next_req, |_| {
            self.cluster.drop_storage_caches()
        });
        let before = t.on().then(|| {
            t.span("counters.before", self.next_req, |_| {
                Counters::read(&self.cluster)
            })
        });
        s.attempted += 1;
        match self.read(t, &q, acc) {
            Ok((lat, res, ticket)) => {
                if let Some(before) = before {
                    t.span("counters.after", self.next_req - 1, |_| {
                        acc.per_travel
                            .add(&Counters::read(&self.cluster).since(&before));
                        acc.travel.merge(&self.cluster.travel_metrics(&ticket));
                    });
                    acc.travels += 1;
                    acc.executions += res.progress.created;
                    acc.admit_wait_us += res.admit_wait.as_secs_f64() * 1e6;
                    acc.handoff_us += lat.saturating_sub(res.elapsed).as_secs_f64() * 1e6;
                }
                s.reads += 1;
                s.travel.push(ms(lat));
                if res.vertices != self.expected(source, STEPS) {
                    s.fail(&format!(
                        "travel from {source}: result differs from the oracle"
                    ));
                }
            }
            Err(e) => s.fail(&format!("travel from {source}: {e}")),
        }
    }

    fn point(&mut self, t: &mut Tracer, v: u64, s: &mut Samples, acc: &mut LayerTotals) {
        s.attempted += 1;
        match self.read(t, &GTravel::v([v]).rtn(), acc) {
            Ok((lat, res, _)) => {
                s.reads += 1;
                s.point.push(ms(lat));
                if res.vertices != [VertexId(v)] {
                    s.fail(&format!("point {v}: got {:?}", res.vertices));
                }
            }
            Err(e) => s.fail(&format!("point {v}: {e}")),
        }
    }

    fn hop(&mut self, t: &mut Tracer, v: u64, s: &mut Samples, acc: &mut LayerTotals) {
        s.attempted += 1;
        match self.read(t, &chain(v, 2), acc) {
            Ok((lat, res, _)) => {
                s.reads += 1;
                s.hop.push(ms(lat));
                if res.vertices != self.expected(v, 2) {
                    s.fail(&format!("2-hop from {v}: result differs from the oracle"));
                }
            }
            Err(e) => s.fail(&format!("2-hop from {v}: {e}")),
        }
    }

    /// A checked insert, as a metadata service makes one: read the
    /// existing vertex the new one will link to, then ingest the new
    /// vertex and its edge. On the freshly dropped caches the read puts
    /// the cold store's 2 ms reads in the write's tail; a bare
    /// sub-millisecond ingest has a p99 that follows the host's CPU steal. No existing vertex gains an
    /// out-edge, so every travel's oracle answer stays valid. A closed
    /// loop's write is due when the loop reaches it; its lateness is the
    /// generator's own delay before the first call.
    fn write(&mut self, t: &mut Tracer, target: u64, s: &mut Samples, acc: &mut LayerTotals) {
        let due = Instant::now();
        let id = self.next_new_id;
        self.next_new_id += 1;
        let v = Vertex::new(id, RMAT_VTYPE, Props::new().with("w", id as i64));
        let e = Edge::new(id, RMAT_ELABEL, target, Props::new());
        let bytes = vertex_bytes(&v) + edge_bytes(&e);
        s.attempted += 1;
        let req = self.next_req;
        self.next_req += 1;
        if t.on() {
            acc.write_late_ms_max = acc.write_late_ms_max.max(ms(due.elapsed()));
        }
        let parent = t.span("Cluster::get_vertex", req, |_| {
            self.cluster.get_vertex(VertexId(target))
        });
        if !matches!(&parent, Ok(Some(p)) if p.vtype == RMAT_VTYPE) {
            s.fail(&format!(
                "write {id}: link target {target} reads as {parent:?}"
            ));
            return;
        }
        let res = t.span("Cluster::ingest", req, |_| {
            self.cluster.ingest(vec![v], vec![e])
        });
        let lat = due.elapsed();
        match res {
            Ok(2) => {
                s.write.push(ms(lat));
                self.acked.push(id);
                self.written_bytes += bytes;
                if t.on() {
                    acc.ingests += 1;
                    acc.user_bytes_written += bytes;
                }
            }
            Ok(n) => s.fail(&format!("write {id}: {n} of 2 entities applied")),
            Err(e) => s.fail(&format!("write {id}: {e}")),
        }
    }

    pub fn measure(&mut self, phase: Phase, t: &mut Tracer, acc: &mut LayerTotals) -> Samples {
        let mut s = Samples::default();
        let phase_before = Counters::read(&self.cluster);
        let start = Instant::now();
        loop {
            let elapsed = start.elapsed();
            let more = s.travel.len() < 20
                || (phase.need_e2e && !(s.reads_complete() && s.write.len() >= min_samples(990)));
            if (elapsed.as_secs_f64() >= phase.seconds && !more) || elapsed >= phase.cap() {
                break;
            }
            let round = self.rounds.next().expect("endless schedule");
            self.travel(t, round.source, &mut s, acc);
            for &v in &round.points {
                self.point(t, v, &mut s, acc);
            }
            for &v in &round.hops {
                self.hop(t, v, &mut s, acc);
            }
            t.span("drop_storage_caches", self.next_req, |_| {
                self.cluster.drop_storage_caches()
            });
            for &v in &round.write_targets {
                self.write(t, v, &mut s, acc);
            }
        }
        s.elapsed_s = start.elapsed().as_secs_f64();
        if phase.traced {
            acc.phase = Counters::read(&self.cluster).since(&phase_before);
            acc.io = IO;
            acc.space = (
                dir_bytes(&self.dir),
                graph_bytes(&self.graph) + self.written_bytes,
            );
        }
        s
    }

    /// After the run: every acknowledged write must be readable.
    pub fn check(&self, s: &mut Samples) {
        for &id in &self.acked {
            match self.cluster.get_vertex(VertexId(id)) {
                Ok(Some(v)) if v.vtype == RMAT_VTYPE => {}
                other => s.fail(&format!("acked write {id} reads back as {other:?}")),
            }
        }
    }
}
