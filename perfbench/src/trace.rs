//! The benchmark's own tracing: spans around calls into each layer, and a
//! forwarding `ElectLeader` wrapper that times `interact` and
//! `pair_support`.
//!
//! Spans are kept in memory and written once, when the run ends. Calls that
//! happen once per interaction (`interact`, `pair_support`, the output
//! predicate) would be millions of records, so they are folded into one
//! aggregate span per parent span: its `calls` and `busy_ns` are the count
//! and total time of the folded calls, and its start and end are those of the
//! first and last call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use ppsim::indexer::StateSupport;
use ppsim::{AgentId, CleanInit, InteractionCtx, Protocol, SupportEnumerable};
use ssle_core::{AgentState, ElectLeader, Role};

/// Nanoseconds from `origin` to now.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Count, total time and first/last timestamps of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub first_ns: u64,
    pub last_ns: u64,
}

impl CallStats {
    pub fn record(&mut self, start_ns: u64, end_ns: u64) {
        if self.calls == 0 {
            self.first_ns = start_ns;
        }
        self.calls += 1;
        self.busy_ns += end_ns.saturating_sub(start_ns);
        self.last_ns = end_ns;
    }

    pub fn add(&mut self, other: &CallStats) {
        if other.calls == 0 {
            return;
        }
        if self.calls == 0 {
            *self = *other;
            return;
        }
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.first_ns = self.first_ns.min(other.first_ns);
        self.last_ns = self.last_ns.max(other.last_ns);
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.calls as f64
        }
    }
}

/// The per-call statistics the forwarding wrapper and the timed predicate
/// collect during one trial.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// `interact`, split by the initiator's role: resetting, ranking,
    /// verifying.
    pub interact: [CallStats; 3],
    pub pair_support: CallStats,
    pub predicate: CallStats,
}

impl Probe {
    pub fn interact_total(&self) -> CallStats {
        let mut total = CallStats::default();
        for stats in &self.interact {
            total.add(stats);
        }
        total
    }

    pub fn add(&mut self, other: &Probe) {
        for (mine, theirs) in self.interact.iter_mut().zip(&other.interact) {
            mine.add(theirs);
        }
        self.pair_support.add(&other.pair_support);
        self.predicate.add(&other.predicate);
    }
}

fn role_slot(role: Role) -> usize {
    match role {
        Role::Resetting => 0,
        Role::Ranking => 1,
        Role::Verifying => 2,
    }
}

/// `ElectLeader` behind a forwarding layer that times every `interact` and
/// `pair_support` call. Every other `Protocol`, `CleanInit` and
/// `SupportEnumerable` method forwards unchanged, so a run through the
/// wrapper follows the same trajectory as a run without it.
#[derive(Debug)]
pub struct Timed {
    inner: ElectLeader,
    origin: Instant,
    probe: Rc<RefCell<Probe>>,
}

impl Timed {
    pub fn new(inner: ElectLeader, origin: Instant) -> Self {
        Timed {
            inner,
            origin,
            probe: Rc::new(RefCell::new(Probe::default())),
        }
    }

    /// The shared statistics handle (the predicate records into it too).
    pub fn probe(&self) -> Rc<RefCell<Probe>> {
        Rc::clone(&self.probe)
    }
}

impl Protocol for Timed {
    type State = AgentState;

    fn population_size(&self) -> usize {
        self.inner.population_size()
    }

    fn interact(&self, u: &mut AgentState, v: &mut AgentState, ctx: &mut InteractionCtx<'_>) {
        let slot = role_slot(u.role());
        let start = ns_since(self.origin);
        self.inner.interact(u, v, ctx);
        let end = ns_since(self.origin);
        self.probe.borrow_mut().interact[slot].record(start, end);
    }
}

impl CleanInit for Timed {
    fn clean_state(&self, agent: AgentId) -> AgentState {
        self.inner.clean_state(agent)
    }

    fn clean_runs(&self) -> Box<dyn Iterator<Item = (AgentState, u64)> + '_> {
        self.inner.clean_runs()
    }
}

impl SupportEnumerable for Timed {
    fn silent_pair(&self, u: &AgentState, v: &AgentState) -> bool {
        self.inner.silent_pair(u, v)
    }

    fn pair_support(&self, u: &AgentState, v: &AgentState) -> Option<StateSupport<AgentState>> {
        let start = ns_since(self.origin);
        let support = self.inner.pair_support(u, v);
        let end = ns_since(self.origin);
        self.probe.borrow_mut().pair_support.record(start, end);
        support
    }
}

/// One span record. `calls` is 1 and `busy_ns` the duration for an ordinary
/// span; aggregate spans fold many calls (see the module docs).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub trial: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

/// The spans of one trial (or one client), with indices local to it.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its local index.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trial: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            trial,
            start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns.saturating_sub(start_ns),
        });
        self.spans.len() - 1
    }

    /// Records an aggregate span folding `stats` under `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, trial: u64, stats: &CallStats) {
        if stats.calls == 0 {
            return;
        }
        self.spans.push(Span {
            name,
            parent: Some(parent),
            trial,
            start_ns: stats.first_ns,
            end_ns: stats.last_ns,
            calls: stats.calls,
            busy_ns: stats.busy_ns,
        });
    }

    /// Records one traced stabilization trial: a `trial` span from
    /// `start_ns` to now, its `measure_stabilization` child, and the probe's
    /// per-call layers as aggregate spans under that child.
    pub fn trial(
        &mut self,
        trial: u64,
        start_ns: u64,
        measure_start_ns: u64,
        measure_end_ns: u64,
        probe: &Probe,
        origin: Instant,
    ) {
        let root = self.push("trial", None, trial, start_ns, ns_since(origin));
        let measure = self.push(
            "measure_stabilization",
            Some(root),
            trial,
            measure_start_ns,
            measure_end_ns,
        );
        self.aggregate_probe(measure, trial, probe);
    }

    /// Records the probe's per-call layers as aggregate spans under `parent`.
    fn aggregate_probe(&mut self, parent: usize, trial: u64, probe: &Probe) {
        let names = ["ssle_core.reset", "ssle_core.ranking", "ssle_core.verify"];
        for (name, stats) in names.iter().zip(&probe.interact) {
            self.aggregate(name, parent, trial, stats);
        }
        self.aggregate("ssle_core.pair_support", parent, trial, &probe.pair_support);
        self.aggregate("ssle_core.output", parent, trial, &probe.predicate);
    }
}

/// All spans of the traced pass: one `run` root span, with every trial's or
/// client's spans re-indexed under it.
#[derive(Debug)]
pub struct Trace {
    pub origin: Instant,
    pub workload: &'static str,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(workload: &'static str) -> Self {
        Trace {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    /// Appends `log`, re-parenting its roots under `root`.
    pub fn absorb(&mut self, root: usize, log: SpanLog) {
        let offset = self.spans.len();
        for mut span in log.spans {
            span.parent = Some(span.parent.map_or(root, |p| p + offset));
            self.spans.push(span);
        }
    }

    /// Opens a root span now; close it with [`Trace::close`].
    pub fn open_root(&mut self, name: &'static str) -> usize {
        let now = ns_since(self.origin);
        self.spans.push(Span {
            name,
            parent: None,
            trial: u64::MAX,
            start_ns: now,
            end_ns: now,
            calls: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Ends the root span `index` now.
    pub fn close(&mut self, index: usize) {
        let now = ns_since(self.origin);
        let span = &mut self.spans[index];
        span.end_ns = now;
        span.busy_ns = now.saturating_sub(span.start_ns);
    }

    /// Total busy time and calls of every span named `name`.
    pub fn total(&self, name: &str) -> CallStats {
        let mut total = CallStats::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            total.add(&CallStats {
                calls: span.calls,
                busy_ns: span.busy_ns,
                first_ns: span.start_ns,
                last_ns: span.end_ns,
            });
        }
        total
    }

    /// The spans as JSON lines, one object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let trial = if span.trial == u64::MAX {
                "null".to_string()
            } else {
                span.trial.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{}\",\"trial\":{trial},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                self.workload, span.name, span.start_ns, span.end_ns, span.calls, span.busy_ns
            );
        }
        out
    }
}

/// Ends the run's root span, when tracing.
pub fn close_root(trace: &mut Option<&mut Trace>, root: Option<usize>) {
    if let (Some(trace), Some(root)) = (trace.as_deref_mut(), root) {
        trace.close(root);
    }
}
