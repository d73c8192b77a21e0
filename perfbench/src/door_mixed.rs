//! `door_mixed`: the metadata-service regime. One `gt-client` connection
//! keeps [`OUTSTANDING`] reads in flight through the front door (a
//! closed loop), while a second thread writes new files through
//! `Cluster::ingest` on a fixed schedule (an open loop). It is the only
//! workload with more than one request in flight.

use crate::inputs::{door_queries, door_writes, DoorQuery, DoorWrite};
use crate::layers::{dir_bytes, edge_bytes, graph_bytes, vertex_bytes, Counters, LayerTotals};
use crate::run::{ms, parse_probe, proto_probe, Phase, Samples};
use crate::stats::min_samples;
use crate::trace::Tracer;
use graphtrek::frontdoor::FrontDoor;
use graphtrek::oracle;
use graphtrek::prelude::*;
use graphtrek::qos::QosConfig;
use graphtrek::TravelId;
use gt_client::{Client, TravelReply};
use gt_darshan::{elabel, vtype, DarshanConfig};
use gt_graph::{Edge, InMemoryGraph, Props, Vertex};
use gt_proto::SubmitOpts;
use gt_transport::SocketAddrSpec;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SERVERS: usize = 4;
const REPLICATION: usize = 2;
/// Reads the client keeps in flight on its one connection. With the
/// writer that makes four concurrent waiters on the cluster's client
/// mailbox. Read latency then has two modes (about 0.6 ms, and 18 to
/// 25 ms when a waiter sleeps through a poll slice) with the knee near
/// p70, so p50 sits in one mode and p90/p99 in the other. At four
/// reads the knee sits at p50 and the median jumps between the modes
/// from run to run.
const OUTSTANDING: usize = 3;
/// Open-loop write rate, per second: 1200 writes in a 30 s run, enough
/// for a p99. Sparse writes leave a stalled waiter nothing to wake it,
/// so stalls run to the full poll slice and p90/p99 sit at about 25 ms.
const WRITE_RATE: f64 = 40.0;
/// Table II's entity counts divided by this.
const DARSHAN_DIVISOR: u64 = 20_000;
/// Acked writes made during set-up, before anything is timed.
const WARM_WRITES: usize = 20;

struct Hop {
    file: u64,
    got: Vec<u64>,
    done: Instant,
}

struct Written {
    w: DoorWrite,
    issued: Instant,
}

pub struct DoorMixed {
    graph: InMemoryGraph,
    cluster: Cluster,
    door: FrontDoor,
    client: Client,
    dir: PathBuf,
    queries: Box<dyn Iterator<Item = DoorQuery> + Send>,
    writes: Box<dyn Iterator<Item = DoorWrite> + Send>,
    /// Writes acknowledged during set-up: already part of `graph`.
    warm: Vec<u64>,
    written: Vec<Written>,
    acked: Vec<u64>,
    written_bytes: u64,
    hops: Vec<Hop>,
    next_req: u64,
}

fn hop_query(file: u64) -> GTravel {
    GTravel::v([file]).e(elabel::READ_BY).e(elabel::WRITE)
}

fn travel_of(q: DoorQuery) -> GTravel {
    match q {
        DoorQuery::Point(exec) => GTravel::v([exec]).rtn(),
        DoorQuery::Hop(file) => hop_query(file),
    }
}

fn write_entities(w: DoorWrite) -> (Vertex, Edge) {
    let v = Vertex::new(
        w.new_id,
        vtype::FILE,
        Props::new()
            .with("name", format!("out-{}", w.new_id))
            .with("size", 4096i64),
    );
    let e = Edge::new(
        w.exec,
        elabel::WRITE,
        w.new_id,
        Props::new().with("ts", 1i64),
    );
    (v, e)
}

impl DoorMixed {
    pub fn setup(seed: u64, dir: &Path) -> DoorMixed {
        let d = gt_darshan::generate(&DarshanConfig::table2_scaled(DARSHAN_DIVISOR));
        let execs = (d.layout.execs_start, d.layout.files_start);
        let files = (d.layout.files_start, d.layout.end);
        let mut graph = d.graph;
        std::fs::remove_dir_all(dir).ok();
        let cluster = Cluster::build(
            &graph,
            ClusterConfig::new(dir, SERVERS).replication(REPLICATION),
            EngineConfig::new(EngineKind::GraphTrek).snapshot_isolation(true),
        )
        .expect("build cluster");
        let door = FrontDoor::serve(
            cluster.handle(),
            SocketAddrSpec::Uds(dir.join("door.sock")),
            QosConfig::enabled(),
        )
        .expect("serve the front door");
        let mut client = Client::connect(door.local_addr(), "bench").expect("connect to the door");
        // Warm-up: let lazy set-up finish on the read and write paths.
        // These writes are acked before timing starts, so they join the
        // base graph the oracle answers from.
        let mut writes = door_writes(seed, execs, files.1 + 1_000_000);
        let mut warm = Vec::new();
        for w in writes.by_ref().take(WARM_WRITES) {
            let (v, e) = write_entities(w);
            cluster
                .ingest(vec![v.clone()], vec![e.clone()])
                .expect("warm-up write");
            graph.add_vertex(v);
            graph.add_edge(e);
            warm.push(w.new_id);
        }
        for q in door_queries(seed ^ 0x5eed, execs, files).take(40) {
            client
                .run(&travel_of(q).render(), SubmitOpts::default())
                .expect("warm-up read");
        }
        DoorMixed {
            graph,
            cluster,
            door,
            client,
            dir: dir.to_path_buf(),
            queries: Box::new(door_queries(seed, execs, files)),
            writes: Box::new(writes),
            warm,
            written: Vec::new(),
            acked: Vec::new(),
            written_bytes: 0,
            hops: Vec::new(),
            next_req: 0,
        }
    }

    pub fn teardown(self) {
        self.client.close();
        self.door.stop();
        self.cluster.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }

    pub fn measure(&mut self, phase: Phase, t: &mut Tracer, acc: &mut LayerTotals) -> Samples {
        let before = Counters::read(&self.cluster);
        let travels_before: BTreeSet<TravelId> =
            self.cluster.all_travel_metrics().into_keys().collect();
        let stop = AtomicBool::new(false);
        let n_writes = AtomicU64::new(0);
        let start = Instant::now();
        let mut wt = t.sibling();
        let (mut s, w) = std::thread::scope(|sc| {
            let (cluster, writes) = (&self.cluster, &mut self.writes);
            let writer = sc.spawn(|| write_loop(cluster, writes, start, &stop, &n_writes, &mut wt));
            let reader = Reader {
                client: &mut self.client,
                queries: &mut self.queries,
                next_req: &mut self.next_req,
                hops: &mut self.hops,
            };
            let s = reader.run(phase, start, t, acc, &stop, &n_writes);
            stop.store(true, Ordering::SeqCst);
            (s, writer.join().expect("writer thread"))
        });
        s.attempted += w.attempted;
        s.failed += w.failed;
        s.write = w.latencies;
        for (wr, acked) in w.log {
            if acked {
                let (v, e) = write_entities(wr.w);
                let bytes = vertex_bytes(&v) + edge_bytes(&e);
                self.acked.push(wr.w.new_id);
                self.written_bytes += bytes;
                if t.on() {
                    acc.ingests += 1;
                    acc.user_bytes_written += bytes;
                }
            }
            self.written.push(wr);
        }
        if t.on() {
            t.absorb(wt);
            acc.write_late_ms_max = w.late_ms_max;
            acc.phase = Counters::read(&self.cluster).since(&before);
            acc.per_travel = acc.phase;
            for (id, m) in self.cluster.all_travel_metrics() {
                if !travels_before.contains(&id) {
                    acc.travel.merge(&m);
                }
            }
            acc.throttled = self
                .door
                .gate()
                .all_counters()
                .values()
                .map(|c| c.throttled)
                .sum();
            acc.space = (
                dir_bytes(&self.dir),
                graph_bytes(&self.graph) + self.written_bytes,
            );
        }
        s
    }

    /// After the run: each 2-hop answer holds the base graph's answer and
    /// lies inside the answer over the base graph plus every write issued
    /// before the answer arrived; every acked write reads back.
    pub fn check(&self, s: &mut Samples) {
        let mut base: HashMap<u64, BTreeSet<u64>> = HashMap::new();
        // Writes by execution, in issue order.
        let mut by_exec: BTreeMap<u64, Vec<&Written>> = BTreeMap::new();
        for w in &self.written {
            by_exec.entry(w.w.exec).or_default().push(w);
        }
        for h in &self.hops {
            let want = base.entry(h.file).or_insert_with(|| {
                let plan = hop_query(h.file).compile().expect("hop query compiles");
                oracle::traverse(&self.graph, &plan)
                    .all_vertices()
                    .into_iter()
                    .map(|v| v.0)
                    .collect()
            });
            let got: BTreeSet<u64> = h.got.iter().copied().collect();
            let allowed: BTreeSet<u64> = self
                .graph
                .edges_from(VertexId(h.file), elabel::READ_BY)
                .iter()
                .flat_map(|(exec, _)| by_exec.get(&exec.0).into_iter().flatten())
                .filter(|w| w.issued < h.done)
                .map(|w| w.w.new_id)
                .collect();
            if !want.is_subset(&got) || !got.iter().all(|v| want.contains(v) || allowed.contains(v))
            {
                s.fail(&format!(
                    "2-hop from {}: {got:?} is not between the oracle bounds",
                    h.file
                ));
            }
        }
        for &id in self.warm.iter().chain(&self.acked) {
            match self.cluster.get_vertex(VertexId(id)) {
                Ok(Some(v)) if v.vtype == vtype::FILE => {}
                other => s.fail(&format!("acked write {id} reads back as {other:?}")),
            }
        }
    }
}

struct Reader<'a> {
    client: &'a mut Client,
    queries: &'a mut Box<dyn Iterator<Item = DoorQuery> + Send>,
    next_req: &'a mut u64,
    hops: &'a mut Vec<Hop>,
}

impl Reader<'_> {
    /// The closed loop: keep `OUTSTANDING` reads in flight, each timed
    /// from its submission to the moment `Client::wait` hands it back.
    fn run(
        mut self,
        phase: Phase,
        start: Instant,
        t: &mut Tracer,
        acc: &mut LayerTotals,
        stop: &AtomicBool,
        n_writes: &AtomicU64,
    ) -> Samples {
        let mut s = Samples::default();
        let mut inflight: VecDeque<(u64, DoorQuery, String, Instant, u64)> = VecDeque::new();
        let mut submitting = true;
        loop {
            while submitting && inflight.len() < OUTSTANDING {
                let q = self.queries.next().expect("endless schedule");
                let req = *self.next_req;
                *self.next_req += 1;
                let gt = travel_of(q);
                let text = if t.on() {
                    parse_probe(t, req, &gt, acc)
                } else {
                    gt.render()
                };
                s.attempted += 1;
                let submitted = Instant::now();
                match t.span("Client::submit", req, |_| {
                    self.client.submit(&text, SubmitOpts::default())
                }) {
                    Ok(id) => inflight.push_back((id, q, text, submitted, req)),
                    Err(e) => s.fail(&format!("submit: {e}")),
                }
            }
            let Some((id, q, text, submitted, req)) = inflight.pop_front() else {
                break;
            };
            let res = t.span("Client::wait", req, |_| self.client.wait(id));
            let done = Instant::now();
            let lat = done - submitted;
            match res {
                Ok(reply) => {
                    s.reads += 1;
                    s.travel.push(ms(lat));
                    if t.on() {
                        acc.travels += 1;
                        acc.executions += reply.progress.created;
                        let engine = Duration::from_micros(reply.elapsed_us);
                        let overhead = lat.saturating_sub(engine).as_secs_f64() * 1e6;
                        acc.overhead_us.push(overhead);
                        acc.handoff_us += overhead;
                        proto_probe(
                            t,
                            req,
                            &text,
                            reply.by_depth.clone(),
                            reply.progress.created,
                            reply.elapsed_us,
                            acc,
                        );
                    }
                    self.record(q, &reply, ms(lat), done, &mut s);
                }
                Err(e) => s.fail(&format!("door read {q:?}: {e}")),
            }
            let elapsed = done - start;
            let enough = !phase.need_e2e
                || (s.reads_complete()
                    && n_writes.load(Ordering::SeqCst) as usize >= min_samples(990));
            if (elapsed.as_secs_f64() >= phase.seconds && enough && s.travel.len() >= 20)
                || elapsed >= phase.cap()
            {
                submitting = false;
                stop.store(true, Ordering::SeqCst);
            }
        }
        s.elapsed_s = start.elapsed().as_secs_f64();
        s
    }

    fn record(
        &mut self,
        q: DoorQuery,
        reply: &TravelReply,
        lat_ms: f64,
        done: Instant,
        s: &mut Samples,
    ) {
        let got = reply.vertices();
        match q {
            DoorQuery::Point(v) => {
                s.point.push(lat_ms);
                if got != [v] {
                    s.fail(&format!("point {v}: got {got:?}"));
                }
            }
            DoorQuery::Hop(file) => {
                s.hop.push(lat_ms);
                self.hops.push(Hop { file, got, done });
            }
        }
    }
}

struct WriterOut {
    latencies: Vec<f64>,
    log: Vec<(Written, bool)>,
    late_ms_max: f64,
    attempted: u64,
    failed: u64,
}

/// The open loop: write `k` is due `k / WRITE_RATE` seconds after the
/// phase starts and is timed from that due time, so a stall charges
/// every write queued behind it.
fn write_loop(
    cluster: &Cluster,
    writes: &mut Box<dyn Iterator<Item = DoorWrite> + Send>,
    start: Instant,
    stop: &AtomicBool,
    n_writes: &AtomicU64,
    t: &mut Tracer,
) -> WriterOut {
    let mut out = WriterOut {
        latencies: Vec::new(),
        log: Vec::new(),
        late_ms_max: 0.0,
        attempted: 0,
        failed: 0,
    };
    for k in 0u64.. {
        let due = start + Duration::from_secs_f64(k as f64 / WRITE_RATE);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let w = writes.next().expect("endless schedule");
        let (v, e) = write_entities(w);
        let issued = Instant::now();
        out.late_ms_max = out.late_ms_max.max(ms(issued - due));
        out.attempted += 1;
        // Write spans carry the new vertex's id: far above the reader's
        // request ids, so the two threads' spans never share one.
        let res = t.span("Cluster::ingest", w.new_id, |_| {
            cluster.ingest(vec![v], vec![e])
        });
        let acked = matches!(res, Ok(2));
        if acked {
            out.latencies.push(ms(due.elapsed()));
            n_writes.fetch_add(1, Ordering::SeqCst);
        } else {
            out.failed += 1;
            eprintln!("perfbench: write {} failed: {res:?}", w.new_id);
        }
        out.log.push((Written { w, issued }, acked));
    }
    out
}
