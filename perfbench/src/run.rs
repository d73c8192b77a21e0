//! What the workloads share: phases, samples, the probes of the parse and
//! proto layers, and the end-to-end metric set.

use crate::layers::LayerTotals;
use crate::report::Metric;
use crate::stats::{min_samples, percentile};
use crate::trace::Tracer;
use graphtrek::prelude::*;
use gt_proto::{ClientMsg, ServerMsg, SubmitOpts, WireProgress};
use std::time::{Duration, Instant};

/// Longest any single operation may take before it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// One measured stretch of a run. An untraced run is one phase; a traced
/// run is an untraced phase then a traced one of the same length, so the
/// difference of their medians is the tracing overhead.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub traced: bool,
    pub seconds: f64,
    /// Keep going past `seconds` until every end-to-end percentile has
    /// the samples it needs (untraced full-length phase only).
    pub need_e2e: bool,
}

impl Phase {
    pub fn plan(seconds: f64, trace: bool) -> Vec<Phase> {
        if trace {
            let half = seconds / 2.0;
            vec![
                Phase {
                    traced: false,
                    seconds: half,
                    need_e2e: false,
                },
                Phase {
                    traced: true,
                    seconds: half,
                    need_e2e: false,
                },
            ]
        } else {
            vec![Phase {
                traced: false,
                seconds,
                need_e2e: true,
            }]
        }
    }

    /// Hard stop: a phase that cannot gather its samples in three times
    /// its length reports the unsupported percentile and fails the run.
    pub fn cap(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 3.0)
    }
}

/// Latency samples (ms) of one phase.
#[derive(Debug, Default)]
pub struct Samples {
    /// The workload's traversals: multi-step travels, or every door read.
    pub travel: Vec<f64>,
    pub point: Vec<f64>,
    pub hop: Vec<f64>,
    pub write: Vec<f64>,
    /// Reads completed and the time they took, for `read_qps`.
    pub reads: u64,
    pub elapsed_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// Whether every read percentile of the end-to-end set is supported.
    pub fn reads_complete(&self) -> bool {
        self.travel.len() >= min_samples(900)
            && self.point.len() >= min_samples(990)
            && self.hop.len() >= min_samples(990)
    }

    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: wrong or failed operation: {what}");
        }
    }
}

pub fn e2e_metrics(setup_s: f64, rss_mb: f64, s: &Samples) -> Vec<Metric> {
    vec![
        Metric::plain("setup_s", Some(setup_s)),
        Metric::plain("rss_mb", Some(rss_mb)),
        Metric::plain("travel_p50_ms", percentile(&s.travel, 500)),
        Metric::plain("travel_p90_ms", percentile(&s.travel, 900)),
        Metric::plain("point_p50_ms", percentile(&s.point, 500)),
        Metric::plain("point_p99_ms", percentile(&s.point, 990)),
        Metric::plain("hop_p50_ms", percentile(&s.hop, 500)),
        Metric::plain("hop_p99_ms", percentile(&s.hop, 990)),
        Metric::ratio(s.reads as f64, s.elapsed_s).named("read_qps"),
        Metric::plain("write_p50_ms", percentile(&s.write, 500)),
        Metric::plain("write_p99_ms", percentile(&s.write, 990)),
    ]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Render `q` to the text grammar and parse it back, timing
/// `parse_gtravel` and sizing the compiled plan.
pub fn parse_probe(t: &mut Tracer, req: u64, q: &GTravel, acc: &mut LayerTotals) -> String {
    let text = t.span("render", req, |_| q.render());
    let start = Instant::now();
    let parsed = t.span("parse_gtravel", req, |_| parse_gtravel(&text));
    acc.parse_us += start.elapsed().as_secs_f64() * 1e6;
    acc.queries_parsed += 1;
    let plan = parsed
        .expect("a rendered query parses")
        .compile()
        .expect("a parsed query compiles");
    acc.plan_bytes += plan.wire_size() as u64;
    text
}

/// Size this request's and reply's proto frames, timing
/// `ClientMsg::encode` plus `ServerMsg::decode` on them.
pub fn proto_probe(
    t: &mut Tracer,
    req: u64,
    text: &str,
    by_depth: Vec<(u16, Vec<u64>)>,
    created: u64,
    elapsed_us: u64,
    acc: &mut LayerTotals,
) {
    let submit = ClientMsg::Submit {
        id: req,
        gtravel: text.to_string(),
        opts: SubmitOpts::default(),
    };
    let reply = ServerMsg::Result {
        id: req,
        by_depth,
        progress: WireProgress {
            created,
            terminated: created,
            outstanding_by_depth: Vec::new(),
        },
        elapsed_us,
    };
    let mut reply_frame = Vec::new();
    reply.encode(&mut reply_frame);
    let mut req_frame = Vec::new();
    let start = Instant::now();
    t.span("proto.codec", req, |_| {
        submit.encode(&mut req_frame);
        std::hint::black_box(ServerMsg::decode(&reply_frame).expect("own frame decodes"));
    });
    acc.codec_us += start.elapsed().as_secs_f64() * 1e6;
    acc.frames += 1;
    acc.req_bytes += req_frame.len() as u64;
    acc.reply_bytes += reply_frame.len() as u64;
}

/// Peak resident memory of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
