//! The `service` workload: an in-process `ssle_server` driven in a closed
//! loop by `nproc` `ssle_client::HttpClient`s. Each client sends `sweep`
//! specs at `Scale::Tiny` in seeded groups of two shapes:
//!
//! - a resubmission: a new spec through `HttpClient::run_job`, then the
//!   identical spec again (a cache miss, then a cache hit: the sequence the
//!   CI server smoke sends);
//! - an in-flight duplicate: a new spec through `HttpClient::submit`, then at
//!   once through `run_job`, which joins the job while it runs.
//!
//! The untraced pass times the client's own `run_job`. The traced pass
//! replays `run_job` call by call so that each submit, poll and fetch is
//! timed.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use analysis::service::SWEEP_EXPERIMENT;
use analysis::{ExperimentService, JobSpec, JobState, LocalService, Scale, ServiceError};
use ppsim::rng::{derive_seed, uniform_below};
use ppsim::{fnv1a_64, SimRng};
use ssle_client::HttpClient;
use ssle_server::{ServerConfig, ServerHandle};

use crate::report::{digest_words, median, Fingerprint, Outcome, Round};
use crate::trace::{close_root, ns_since, CallStats, SpanLog, Trace};
use crate::{nproc, sample_setup, Plan, SETUP_ROUND_BUDGET_S};

/// Groups per client per requested second. Every group waits about one
/// 25 ms poll, so a run takes about `--seconds` on a 2-vCPU host.
const GROUPS_PER_S: f64 = 36.0;
/// `HttpClient::new`'s polling cadence, which the traced replay of
/// `run_job` uses: 25 ms between polls, at most 24 000 polls.
const POLL: Duration = Duration::from_millis(25);
const MAX_POLLS: u64 = 24_000;
/// Parts of the closed loop, with set-up sampled before each.
const CHUNKS: usize = 10;

#[derive(Debug, Clone)]
enum Group {
    /// A new spec, then the identical spec again once it has finished.
    Resubmit(JobSpec),
    /// A new spec submitted, then at once submitted again and awaited.
    InFlight(JobSpec),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Miss,
    Hit,
    Joined,
}

/// One awaited submission's round trip.
#[derive(Debug)]
struct JobRec {
    spec: JobSpec,
    class: Class,
    ms: f64,
    polls: u64,
    document: Result<String, ServiceError>,
}

#[derive(Debug, Default)]
struct ClientOut {
    jobs: Vec<JobRec>,
    submit: CallStats,
    poll: CallStats,
    result: CallStats,
    log: SpanLog,
}

fn sweep_spec(plan: &Plan, client: usize, group: usize) -> JobSpec {
    JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny).seed(derive_seed(
        plan.seed ^ 0x5EED,
        ((client as u64) << 32) | group as u64,
    ))
}

/// The groups of one client: as many resubmissions as in-flight duplicates
/// (a chosen split, not a measured one), each with a new spec, in an order
/// shuffled by the seed.
fn client_groups(plan: &Plan, client: usize) -> Vec<Group> {
    let mut groups: Vec<Group> = (0..plan.units(GROUPS_PER_S, 2))
        .map(|i| {
            let spec = sweep_spec(plan, client, i);
            if i % 2 == 0 {
                Group::Resubmit(spec)
            } else {
                Group::InFlight(spec)
            }
        })
        .collect();
    let mut rng = SimRng::seed_from_u64(derive_seed(plan.seed ^ 0x0C11, client as u64));
    for i in (1..groups.len()).rev() {
        let j = uniform_below(&mut rng, i as u64 + 1) as usize;
        groups.swap(i, j);
    }
    groups
}

fn start_server() -> ServerHandle {
    ssle_server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: nproc(),
        cache_dir: None,
    })
    .expect("the benchmark server binds an ephemeral local port")
}

/// Set-up: server bind and worker start, client construction, and the first
/// successful `/healthz`.
pub fn setup(_plan: &Plan) -> f64 {
    let started = Instant::now();
    let server = start_server();
    let client = HttpClient::new(server.addr().to_string());
    client
        .health()
        .expect("a freshly spawned server answers /healthz");
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown();
    elapsed
}

/// Times one client call into `stats` and, when traced, a span under
/// `parent`.
struct Caller<'a> {
    client: &'a HttpClient,
    origin: Option<Instant>,
    client_id: u64,
}

impl Caller<'_> {
    fn call<R>(
        &self,
        name: &'static str,
        stats: &mut CallStats,
        log: &mut SpanLog,
        parent: Option<usize>,
        f: impl FnOnce(&HttpClient) -> R,
    ) -> R {
        let Some(origin) = self.origin else {
            return f(self.client);
        };
        let start = ns_since(origin);
        let out = f(self.client);
        let end = ns_since(origin);
        stats.record(start, end);
        log.push(name, parent, self.client_id, start, end);
        out
    }

    /// One awaited submission: `HttpClient::run_job`, or in the traced pass
    /// its replay. Returns the document, the polls (traced pass only) and
    /// the round trip in milliseconds.
    fn round_trip(
        &self,
        out: &mut ClientOut,
        parent: Option<usize>,
        spec: &JobSpec,
    ) -> (Result<String, ServiceError>, u64, f64) {
        let started = Instant::now();
        let (document, polls) = match self.origin {
            None => (self.client.run_job(spec), 0),
            Some(_) => self.replay_run_job(out, parent, spec),
        };
        (document, polls, started.elapsed().as_secs_f64() * 1e3)
    }

    /// `HttpClient::run_job` call by call: submit, poll every `POLL` while
    /// the job is queued or running, then fetch the document.
    fn replay_run_job(
        &self,
        out: &mut ClientOut,
        parent: Option<usize>,
        spec: &JobSpec,
    ) -> (Result<String, ServiceError>, u64) {
        let mut polls = 0;
        let log = &mut out.log;
        let mut status = self.call("ssle_client.submit", &mut out.submit, log, parent, |c| {
            c.submit(spec)
        });
        loop {
            let s = match status {
                Ok(s) => s,
                Err(e) => return (Err(e), polls),
            };
            match s.state {
                JobState::Done => {
                    let document =
                        self.call("ssle_client.result", &mut out.result, log, parent, |c| {
                            c.result(&s.job)
                        });
                    return (document, polls);
                }
                JobState::Failed => {
                    let why = s.error.unwrap_or_else(|| "unrecorded failure".to_string());
                    return (Err(ServiceError::JobFailed(why)), polls);
                }
                JobState::Queued | JobState::Running => {
                    if polls >= MAX_POLLS {
                        let why = format!("job `{}` unfinished after {polls} polls", s.job);
                        return (Err(ServiceError::Transport(why)), polls);
                    }
                    polls += 1;
                    std::thread::sleep(POLL);
                    status = self.call("ssle_client.status", &mut out.poll, log, parent, |c| {
                        c.status(&s.job)
                    });
                }
            }
        }
    }
}

fn run_client(
    addr: &str,
    groups: &[Group],
    client_id: usize,
    origin: Option<Instant>,
) -> ClientOut {
    let client = HttpClient::new(addr);
    let caller = Caller {
        client: &client,
        origin,
        client_id: client_id as u64,
    };
    let mut out = ClientOut::default();
    for group in groups {
        let group_start = origin.map(ns_since);
        let parent = origin.map(|_| out.log.push("group", None, client_id as u64, 0, 0));
        match group {
            Group::Resubmit(spec) => {
                for class in [Class::Miss, Class::Hit] {
                    let (document, polls, ms) = caller.round_trip(&mut out, parent, spec);
                    out.jobs.push(JobRec {
                        spec: spec.clone(),
                        class,
                        ms,
                        polls,
                        document,
                    });
                }
            }
            Group::InFlight(spec) => {
                let first = caller.call(
                    "ssle_client.submit",
                    &mut out.submit,
                    &mut out.log,
                    parent,
                    |c| c.submit(spec),
                );
                let (document, polls, ms) = caller.round_trip(&mut out, parent, spec);
                out.jobs.push(JobRec {
                    spec: spec.clone(),
                    class: Class::Joined,
                    ms,
                    polls,
                    // A refused first submission fails the group too.
                    document: first.and(document),
                });
            }
        }
        if let (Some(origin), Some(parent), Some(group_start)) = (origin, parent, group_start) {
            let span = &mut out.log.spans[parent];
            span.start_ns = group_start;
            span.end_ns = ns_since(origin);
            span.busy_ns = span.end_ns - group_start;
        }
    }
    out
}

/// Simulated interactions a sweep document carries: per row, successes ×
/// mean parallel time × n (the mean is printed rounded, so this is the
/// document's own figure, not the engine's exact count).
fn document_interactions(document: &str) -> u64 {
    let Some(rows) = document.split("\"rows\": [").nth(1) else {
        return 0;
    };
    let rows = rows.split("\"notes\"").next().unwrap_or_default();
    rows.split(']')
        .map(|row| {
            let cells: Vec<&str> = row.split('"').skip(1).step_by(2).collect();
            match (cells.first(), cells.get(2), cells.get(3)) {
                (Some(n), Some(successes), Some(mean_pt)) => {
                    let parse = |s: &str| s.parse::<f64>().unwrap_or(0.0);
                    (parse(n) * parse(successes) * parse(mean_pt)).round() as u64
                }
                _ => 0,
            }
        })
        .sum()
}

pub fn run(plan: &Plan, mut trace: Option<&mut Trace>) -> Outcome {
    let origin = trace.as_ref().map(|t| t.origin);
    let clients = nproc();
    let groups: Vec<Vec<Group>> = (0..clients).map(|c| client_groups(plan, c)).collect();
    let root = trace.as_deref_mut().map(|t| t.open_root("run"));
    let server = start_server();
    let addr = server.addr().to_string();
    let probe = HttpClient::new(addr.clone());
    let before = probe
        .health()
        .expect("a freshly spawned server answers /healthz");
    // The closed loop runs in `CHUNKS` parts. Between them, while the
    // server is idle and outside the loop's wall time, set-up is sampled, as
    // the fleet workloads sample it between rounds. Each part's jobs also
    // give a tail of their own: `job_tail_ms` is the median of these, so a
    // few host stalls in one part do not set it.
    let len = groups[0].len();
    let chunk_len = len.div_ceil(CHUNKS);
    let mut outs: Vec<ClientOut> = (0..clients).map(|_| ClientOut::default()).collect();
    let (mut setup_samples, mut wall_s, mut tail_parts) = (Vec::new(), 0.0, Vec::new());
    for start in (0..len).step_by(chunk_len) {
        setup_samples.extend(sample_setup(|| setup(plan), SETUP_ROUND_BUDGET_S));
        let part = start..(start + chunk_len).min(len);
        let started = Instant::now();
        let done: Vec<ClientOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .iter()
                .enumerate()
                .map(|(c, groups)| {
                    let (addr, groups) = (&addr, &groups[part.clone()]);
                    scope.spawn(move || run_client(addr, groups, c, origin))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a benchmark client thread panicked"))
                .collect()
        });
        wall_s += started.elapsed().as_secs_f64();
        tail_parts.push(
            done.iter()
                .flat_map(|o| o.jobs.iter().map(|j| j.ms))
                .collect(),
        );
        for (out, mut part) in outs.iter_mut().zip(done) {
            out.jobs.append(&mut part.jobs);
            out.submit.add(&part.submit);
            out.poll.add(&part.poll);
            out.result.add(&part.result);
            if let (Some(trace), Some(root)) = (trace.as_deref_mut(), root) {
                trace.absorb(root, part.log);
            }
        }
    }
    close_root(&mut trace, root);
    let after = probe.health().expect("the server still answers /healthz");
    server.shutdown();

    // References, outside the timed loop: one `LocalService::run_job` per
    // distinct spec, in first-submission order.
    let mut references: HashMap<String, Result<String, ServiceError>> = HashMap::new();
    let mut run_job_ms = Vec::new();
    for job in outs.iter().flat_map(|o| &o.jobs) {
        let key = job.spec.cache_key();
        if references.contains_key(&key) {
            continue;
        }
        let t = Instant::now();
        let document = LocalService.run_job(&job.spec);
        run_job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        references.insert(key, document);
    }

    let mut outcome = Outcome {
        setup_samples,
        tail_parts,
        ..Outcome::default()
    };
    let mut digests = Vec::new();
    let (mut miss_ms, mut hit_ms) = (Vec::new(), Vec::new());
    let (mut submit, mut poll, mut result, mut polls) = (
        CallStats::default(),
        CallStats::default(),
        CallStats::default(),
        0,
    );
    for out in outs {
        for job in &out.jobs {
            outcome.attempted += 1;
            let reference = &references[&job.spec.cache_key()];
            let ok = matches!((&job.document, reference), (Ok(a), Ok(b)) if a == b);
            outcome.failed += u64::from(!ok);
            outcome.job_ms.push(job.ms);
            polls += job.polls;
            if let Ok(document) = &job.document {
                outcome.interactions += document_interactions(document);
                digests.push(fnv1a_64(document.as_bytes()));
            } else {
                digests.push(u64::MAX);
            }
            match job.class {
                Class::Miss => miss_ms.push(job.ms),
                Class::Hit => hit_ms.push(job.ms),
                Class::Joined => {}
            }
        }
        submit.add(&out.submit);
        poll.add(&out.poll);
        result.add(&out.result);
    }
    outcome.rounds = vec![Round {
        units: outcome.attempted,
        interactions: outcome.interactions,
        wall_s,
    }];
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    // A duplicate whose original finished before the duplicate arrived is
    // served from the finished record and counts as a hit, otherwise it
    // joins the running job and counts as neither: a scheduling race. The
    // hit count is therefore reported beside the fingerprint, and the
    // fingerprint holds the race-free submission and miss counts.
    outcome.fingerprint = Fingerprint {
        fields: vec![
            ("jobs", outcome.attempted),
            ("interactions", outcome.interactions),
            ("document_digest", digest_words(digests)),
            (
                "healthz_submitted",
                after.jobs_submitted - before.jobs_submitted,
            ),
            ("healthz_misses", misses),
        ],
        traced_only: Vec::new(),
    };
    let (miss_p50, hit_p50) = (median(&miss_ms), median(&hit_ms));
    outcome.extras = vec![
        ("miss_p50_ms", miss_p50, "ms"),
        ("hit_p50_ms", hit_p50, "ms"),
        ("healthz_hits", hits as f64, "count"),
    ];
    if trace.is_some() {
        let layers = &mut outcome.layers;
        let ms = |stats: &CallStats| stats.mean_ns() / 1e6;
        layers.insert("ssle_client.submit_ms", ms(&submit));
        layers.insert("ssle_client.poll_ms", ms(&poll));
        layers.insert("ssle_client.result_ms", ms(&result));
        layers.insert(
            "ssle_client.polls_per_job",
            polls as f64 / outcome.attempted.max(1) as f64,
        );
        layers.insert("ssle_client.miss_p50_ms", miss_p50);
        layers.insert("ssle_client.hit_p50_ms", hit_p50);
        layers.insert(
            "ssle_server.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        layers.insert(
            "ssle_server.jobs_completed",
            (after.jobs_completed - before.jobs_completed) as f64,
        );
        let run_job = median(&run_job_ms);
        layers.insert("analysis.service.run_job_ms", run_job);
        layers.insert("analysis.service.overhead_ms", miss_p50 - run_job);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_interactions_reads_the_sweep_rows() {
        let spec = JobSpec::new(SWEEP_EXPERIMENT, Scale::Tiny);
        let document = LocalService.run_job(&spec).expect("tiny sweep runs");
        let interactions = document_interactions(&document);
        // Two cells (n = 10³ and 10⁴), each trial completing in ~2 n ln n.
        assert!(interactions > 100_000, "{interactions}");
        assert!(interactions < 10_000_000, "{interactions}");
    }
}
