//! Dynamic state indexing: running the count tiers on protocols whose
//! state space is too large (or too awkward) to enumerate up front.
//!
//! The count tiers need a bijection between the protocol's state
//! space and `0..|Q|` ([`EnumerableProtocol`]). For the paper's epidemics and
//! the baseline protocols that bijection is a closed-form formula, but for
//! `ElectLeader_r` the reachable state space is huge, `n`-dependent, and only
//! *sparsely* occupied: at any moment a population of `n` agents occupies at
//! most `n` states, discovered one transition at a time. Enumerating all of
//! `Q` — let alone all `|Q|²` ordered pairs — is neither possible nor needed.
//!
//! [`DiscoveredProtocol`] solves this the way the `ppsim` simulator of Doty
//! et al. scales protocols with unbounded state spaces: states are assigned
//! indices **lazily, as they are first reached**. The adapter wraps any
//! protocol whose states are `Hash + Eq + Clone` and implements
//! [`EnumerableProtocol`] over the growing index space; the batched engine
//! tracks the growth (`num_states` is monotone over a run) and never touches
//! pairs of states that are not currently occupied.
//!
//! Two protocol-level questions remain — "is this pair silent?" and "what is
//! the outcome distribution?" — and the wrapped protocol answers them through
//! [`SupportEnumerable`]:
//!
//! * [`SupportEnumerable::silent_pair`] is the state-level silence test
//!   (exactly the [`EnumerableProtocol::is_silent`] contract);
//! * [`SupportEnumerable::pair_support`] enumerates the transition's outcome
//!   distribution where practical, and returns `None` where it is not
//!   (e.g. a transition drawing an identifier from `[n³]`), in which case the
//!   engine samples the outcome blind through [`Protocol::interact`].
//!
//! For transitions that consume no randomness the support is a single
//! outcome, and [`deterministic_support`] computes it generically by probing
//! [`Protocol::interact`] with a draw-counting RNG.

use crate::enumerable::EnumerableProtocol;
use crate::protocol::{InteractionCtx, Protocol};
use crate::telemetry::{Counter, Telemetry};
use rand::RngCore;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

/// An enumerated outcome distribution on state pairs: every entry maps an
/// ordered `(initiator, responder)` outcome to its probability.
pub type StateSupport<S> = Vec<((S, S), f64)>;

/// State-level transition inspection, the protocol-side requirement of
/// [`DiscoveredProtocol`].
///
/// Both methods must be *functions of the two states only* — they may not
/// depend on the interaction index or on external state. `silent_pair` may
/// only return `true` when the transition maps the ordered pair to itself
/// with certainty (the [`EnumerableProtocol::is_silent`] contract);
/// `pair_support`, when it returns `Some`, must list every outcome the
/// transition can produce with strictly positive probabilities summing to 1.
pub trait SupportEnumerable: Protocol {
    /// Whether the ordered state pair is a certain no-op.
    ///
    /// The conservative default claims nothing is silent — always safe, but
    /// it removes the batching advantage; override it with the protocol's
    /// actual null transitions.
    fn silent_pair(&self, initiator: &Self::State, responder: &Self::State) -> bool {
        let _ = (initiator, responder);
        false
    }

    /// The exhaustive outcome distribution of the transition on the ordered
    /// pair, or `None` when enumeration is impractical (the engine then
    /// samples the outcome blind via [`Protocol::interact`]).
    ///
    /// The default enumerates what it can without protocol knowledge: silent
    /// pairs map to themselves, and deterministic transitions (detected by
    /// probing [`Protocol::interact`] with a draw-counting RNG, see
    /// [`deterministic_support`]) have a single outcome.
    fn pair_support(
        &self,
        initiator: &Self::State,
        responder: &Self::State,
    ) -> Option<StateSupport<Self::State>> {
        if self.silent_pair(initiator, responder) {
            return Some(vec![((initiator.clone(), responder.clone()), 1.0)]);
        }
        deterministic_support(self, initiator, responder)
    }
}

/// An RNG wrapper that counts how many draws the wrapped generator served.
///
/// Used to *probe* a transition: if `interact` completes without drawing, its
/// outcome is deterministic and can be cached / enumerated; if it drew, the
/// probe outcome is discarded and the transition is treated as randomized.
struct CountingRng {
    /// SplitMix64 state — cheap, deterministic dummy randomness. The values
    /// only matter on probes that end up discarded.
    state: u64,
    draws: u64,
}

impl CountingRng {
    fn new() -> Self {
        CountingRng {
            state: 0x9E37_79B9_7F4A_7C15,
            draws: 0,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

/// Probes `interact` on clones of the pair: `Some` single-outcome support if
/// the transition consumed no randomness, `None` if it drew (the probe
/// outcome is discarded — it was produced from dummy randomness).
///
/// The probe executes one transition, so it costs as much as the transition
/// itself; callers on a hot path should reach for it only when they are about
/// to execute the pair anyway (as the batched engine does).
pub fn deterministic_support<P: Protocol + ?Sized>(
    protocol: &P,
    initiator: &P::State,
    responder: &P::State,
) -> Option<StateSupport<P::State>> {
    let mut u = initiator.clone();
    let mut v = responder.clone();
    let mut probe = CountingRng::new();
    let draws = {
        let mut ctx = InteractionCtx::new(&mut probe, 0);
        protocol.interact(&mut u, &mut v, &mut ctx);
        probe.draws
    };
    if draws == 0 {
        Some(vec![((u, v), 1.0)])
    } else {
        None
    }
}

/// The growing state ↔ index bijection.
struct Interner<S> {
    states: Vec<S>,
    index_of: HashMap<S, usize>,
}

impl<S: Hash + Eq + Clone> Interner<S> {
    fn new() -> Self {
        Interner {
            states: Vec::new(),
            index_of: HashMap::new(),
        }
    }

    fn intern(&mut self, state: &S) -> usize {
        if let Some(&index) = self.index_of.get(state) {
            return index;
        }
        let index = self.states.len();
        self.states.push(state.clone());
        self.index_of.insert(state.clone(), index);
        index
    }
}

/// Adapter implementing [`EnumerableProtocol`] for any [`SupportEnumerable`]
/// protocol with hashable states, assigning indices lazily as states are
/// first reached.
///
/// Indices are assigned in discovery order and never change; `num_states()`
/// is therefore *monotone over a run* — it reports how many states have been
/// discovered so far, not the size of the full reachable space. The batched
/// engine re-reads it after every transition and grows its count vector
/// accordingly.
///
/// Cloning the adapter is cheap and shares the underlying protocol and
/// index map (via `Rc`), so a stabilization predicate can hold its own handle
/// for decoding while the engine owns the adapter. The shared interior makes
/// the adapter single-threaded (`!Send`); run one adapter per thread.
///
/// # Examples
///
/// ```
/// use ppsim::epidemic::OneWayEpidemic;
/// use ppsim::indexer::DiscoveredProtocol;
/// use ppsim::{CountConfiguration, EngineKind, SimBuilder};
///
/// // Epidemics implement `SupportEnumerable` (silence on the state level),
/// // so they can run under the adapter — no up-front enumeration involved.
/// // Indices follow discovery order, so predicates peek at the states
/// // through a shared handle instead of hard-coding indices.
/// let discovered = DiscoveredProtocol::new(OneWayEpidemic::new(256, 1));
/// let handle = discovered.clone();
/// let mut sim = SimBuilder::new(discovered)
///     .kind(EngineKind::Batched)
///     .seed(7)
///     .build();
/// let mut everyone_informed = |c: &CountConfiguration| {
///     (0..c.num_states()).all(|i| c.count(i) == 0 || handle.peek(i, |s| *s))
/// };
/// let out = sim.run_until(&mut everyone_informed, u64::MAX);
/// assert!(out.satisfied);
/// ```
pub struct DiscoveredProtocol<P: SupportEnumerable>
where
    P::State: Hash + Eq,
{
    inner: Rc<P>,
    interner: Rc<RefCell<Interner<P::State>>>,
    /// Memoized [`EnumerableProtocol::transition_support`] answers per fired
    /// ordered index pair. Sound because supports are functions of the two
    /// states only and indices never change; shared across clones so a
    /// predicate handle warms the same cache as the engine.
    #[allow(clippy::type_complexity)]
    support_cache: Rc<RefCell<HashMap<(usize, usize), Vec<((usize, usize), f64)>>>>,
    /// Observability handle in a shared slot, so attaching telemetry through
    /// any clone (the engine's copy or a predicate handle) makes intern and
    /// memo counters land in one report. Disabled by default: every probe is
    /// then an early-out and discovery behaves identically.
    telemetry: Rc<RefCell<Telemetry>>,
}

impl<P: SupportEnumerable> Clone for DiscoveredProtocol<P>
where
    P::State: Hash + Eq,
{
    fn clone(&self) -> Self {
        DiscoveredProtocol {
            inner: Rc::clone(&self.inner),
            interner: Rc::clone(&self.interner),
            support_cache: Rc::clone(&self.support_cache),
            telemetry: Rc::clone(&self.telemetry),
        }
    }
}

impl<P: SupportEnumerable> fmt::Debug for DiscoveredProtocol<P>
where
    P::State: Hash + Eq,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiscoveredProtocol")
            .field("discovered_states", &self.num_states())
            .finish()
    }
}

impl<P: SupportEnumerable> DiscoveredProtocol<P>
where
    P::State: Hash + Eq,
{
    /// Wraps a protocol; no states are discovered yet.
    pub fn new(inner: P) -> Self {
        DiscoveredProtocol {
            inner: Rc::new(inner),
            interner: Rc::new(RefCell::new(Interner::new())),
            support_cache: Rc::new(RefCell::new(HashMap::new())),
            telemetry: Rc::new(RefCell::new(Telemetry::disabled())),
        }
    }

    /// Attaches a [`Telemetry`] handle to the shared slot — every clone of
    /// this adapter counts interned states and support-memo hits/misses into
    /// that handle's report from now on.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *self.telemetry.borrow_mut() = telemetry;
    }

    /// Counts `minted` freshly interned states, if anyone is listening.
    fn note_interned(&self, minted: u64) {
        if minted > 0 {
            self.telemetry
                .borrow()
                .count(Counter::IndexerInternedStates, minted);
        }
    }

    /// Number of ordered index pairs with a memoized transition support.
    pub fn cached_supports(&self) -> usize {
        self.support_cache.borrow().len()
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Applies `f` to the state at `index` without cloning it.
    ///
    /// This is the cheap way for stabilization predicates to inspect occupied
    /// states ([`EnumerableProtocol::decode`] must clone).
    ///
    /// # Panics
    ///
    /// Panics if `index` has not been discovered.
    pub fn peek<R>(&self, index: usize, f: impl FnOnce(&P::State) -> R) -> R {
        f(&self.interner.borrow().states[index])
    }
}

impl<P: SupportEnumerable + crate::protocol::CleanInit> crate::protocol::CleanInit
    for DiscoveredProtocol<P>
where
    P::State: Hash + Eq,
{
    fn clean_state(&self, agent: crate::protocol::AgentId) -> Self::State {
        self.inner.clean_state(agent)
    }

    fn clean_runs(&self) -> Box<dyn Iterator<Item = (Self::State, u64)> + '_> {
        // Delegating preserves the inner protocol's run collapsing: a
        // uniform clean start interns its state once, not once per agent —
        // the difference between O(1) and 10⁸ hash probes before the first
        // interaction at n = 10⁸.
        self.inner.clean_runs()
    }
}

impl<P: SupportEnumerable> Protocol for DiscoveredProtocol<P>
where
    P::State: Hash + Eq,
{
    type State = P::State;

    fn population_size(&self) -> usize {
        self.inner.population_size()
    }

    fn interact(
        &self,
        initiator: &mut Self::State,
        responder: &mut Self::State,
        ctx: &mut InteractionCtx<'_>,
    ) {
        self.inner.interact(initiator, responder, ctx);
    }
}

impl<P: SupportEnumerable> EnumerableProtocol for DiscoveredProtocol<P>
where
    P::State: Hash + Eq,
{
    /// The number of states discovered *so far* (monotone over a run).
    fn num_states(&self) -> usize {
        self.interner.borrow().states.len()
    }

    /// Interns the state, assigning the next free index on first sight.
    fn encode(&self, state: &Self::State) -> usize {
        let (index, minted) = {
            let mut interner = self.interner.borrow_mut();
            let before = interner.states.len();
            let index = interner.intern(state);
            (index, (interner.states.len() - before) as u64)
        };
        self.note_interned(minted);
        index
    }

    fn decode(&self, index: usize) -> Self::State {
        self.interner.borrow().states[index].clone()
    }

    fn is_silent(&self, initiator: usize, responder: usize) -> bool {
        let interner = self.interner.borrow();
        self.inner
            .silent_pair(&interner.states[initiator], &interner.states[responder])
    }

    fn transition_indices(
        &self,
        initiator: usize,
        responder: usize,
        ctx: &mut InteractionCtx<'_>,
    ) -> (usize, usize) {
        // Clone the endpoint states out before interacting so the interner is
        // free to be re-borrowed for encoding the (possibly new) outcomes.
        let (mut u, mut v) = {
            let interner = self.interner.borrow();
            (
                interner.states[initiator].clone(),
                interner.states[responder].clone(),
            )
        };
        self.inner.interact(&mut u, &mut v, ctx);
        let (pair, minted) = {
            let mut interner = self.interner.borrow_mut();
            let before = interner.states.len();
            let pair = (interner.intern(&u), interner.intern(&v));
            (pair, (interner.states.len() - before) as u64)
        };
        self.note_interned(minted);
        pair
    }

    fn transition_support(&self, initiator: usize, responder: usize) -> Vec<((usize, usize), f64)> {
        // A pair that fired once tends to fire again (the batched engine asks
        // per executed transition, and `ElectLeader_r` runs concentrate their
        // firing on a handful of occupied pairs), so memoize the answer per
        // index pair: `pair_support` probes the transition on clones of the
        // (wide) states, which dwarfs a small-`Vec` clone from the cache.
        if let Some(cached) = self.support_cache.borrow().get(&(initiator, responder)) {
            self.telemetry.borrow().count(Counter::IndexerMemoHits, 1);
            return cached.clone();
        }
        self.telemetry.borrow().count(Counter::IndexerMemoMisses, 1);
        // Hold the immutable borrow only across the (reference-taking)
        // support call — the wrapped protocol cannot touch the interner —
        // then re-borrow mutably to intern the owned outcome states. This
        // avoids deep-cloning the endpoint states on every fired transition.
        let support = {
            let interner = self.interner.borrow();
            self.inner
                .pair_support(&interner.states[initiator], &interner.states[responder])
        };
        let indexed: Vec<((usize, usize), f64)> = match support {
            Some(support) => {
                let (indexed, minted) = {
                    let mut interner = self.interner.borrow_mut();
                    let before = interner.states.len();
                    let indexed: Vec<((usize, usize), f64)> = support
                        .into_iter()
                        .map(|((a, b), p)| ((interner.intern(&a), interner.intern(&b)), p))
                        .collect();
                    (indexed, (interner.states.len() - before) as u64)
                };
                self.note_interned(minted);
                indexed
            }
            None => Vec::new(),
        };
        self.support_cache
            .borrow_mut()
            .insert((initiator, responder), indexed.clone());
        indexed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AgentId, CleanInit};
    use crate::telemetry::{Counter, Telemetry};
    use crate::{Configuration, EngineKind, SimBuilder, SimRng};

    /// Non-silent interactions a batched run executed, from the telemetry
    /// counter.
    fn active(telemetry: &Telemetry) -> u64 {
        telemetry
            .report()
            .expect("enabled handle")
            .counter(Counter::BatchedActiveInteractions)
    }

    /// One-way epidemic on `bool` states, with state-level silence.
    struct Spread(usize);

    impl Protocol for Spread {
        type State = bool;
        fn population_size(&self) -> usize {
            self.0
        }
        fn interact(&self, u: &mut bool, v: &mut bool, _ctx: &mut InteractionCtx<'_>) {
            if *u {
                *v = true;
            }
        }
    }

    impl CleanInit for Spread {
        fn clean_state(&self, agent: AgentId) -> bool {
            agent.index() == 0
        }

        fn clean_runs(&self) -> Box<dyn Iterator<Item = (bool, u64)> + '_> {
            // Collapsed runs in the same agent order as `clean_state`, so
            // the flat-vs-per-agent test below exercises the collapsed
            // interning path.
            Box::new([(true, 1), (false, self.0 as u64 - 1)].into_iter())
        }
    }

    impl SupportEnumerable for Spread {
        fn silent_pair(&self, u: &bool, v: &bool) -> bool {
            !*u || *v
        }
    }

    /// A lazy coin: an excited initiator either calms down or excites the
    /// responder, each with probability 1/2 — a genuinely randomized
    /// transition with a small, enumerable support.
    struct LazyCoin(usize);

    impl Protocol for LazyCoin {
        type State = bool;
        fn population_size(&self) -> usize {
            self.0
        }
        fn interact(&self, u: &mut bool, v: &mut bool, ctx: &mut InteractionCtx<'_>) {
            if *u && !*v {
                if ctx.sample_bool() {
                    *v = true;
                } else {
                    *u = false;
                }
            }
        }
    }

    /// Everyone starts excited: a fully silent configuration.
    impl CleanInit for LazyCoin {
        fn clean_state(&self, _agent: AgentId) -> bool {
            true
        }
    }

    impl SupportEnumerable for LazyCoin {
        fn silent_pair(&self, u: &bool, v: &bool) -> bool {
            !*u || *v
        }
        fn pair_support(&self, u: &bool, v: &bool) -> Option<Vec<((bool, bool), f64)>> {
            if self.silent_pair(u, v) {
                Some(vec![((*u, *v), 1.0)])
            } else {
                Some(vec![((true, true), 0.5), ((false, false), 0.5)])
            }
        }
    }

    #[test]
    fn indices_are_assigned_in_discovery_order() {
        let p = DiscoveredProtocol::new(Spread(4));
        assert_eq!(p.num_states(), 0);
        assert_eq!(p.encode(&true), 0);
        assert_eq!(p.encode(&false), 1);
        assert_eq!(p.encode(&true), 0, "interning is idempotent");
        assert_eq!(p.num_states(), 2);
        assert!(p.decode(0));
        assert!(!p.decode(1));
        p.peek(1, |s| assert!(!*s));
    }

    #[test]
    fn clones_share_the_index_map() {
        let p = DiscoveredProtocol::new(Spread(4));
        let q = p.clone();
        assert_eq!(p.encode(&false), 0);
        assert_eq!(q.num_states(), 1, "discoveries are visible through clones");
        assert_eq!(q.encode(&false), 0);
    }

    #[test]
    fn silence_and_support_delegate_to_state_level_answers() {
        let p = DiscoveredProtocol::new(Spread(4));
        let informed = p.encode(&true);
        let susceptible = p.encode(&false);
        assert!(p.is_silent(susceptible, informed));
        assert!(!p.is_silent(informed, susceptible));
        // The non-silent pair is deterministic, so the default
        // `pair_support` enumerates its single outcome by probing.
        assert_eq!(
            p.transition_support(informed, susceptible),
            vec![((informed, informed), 1.0)]
        );
        assert_eq!(
            p.transition_support(susceptible, informed),
            vec![((susceptible, informed), 1.0)]
        );
    }

    #[test]
    fn randomized_supports_are_interned_with_their_weights() {
        let p = DiscoveredProtocol::new(LazyCoin(4));
        let excited = p.encode(&true);
        let calm = p.encode(&false);
        let support = p.transition_support(excited, calm);
        assert_eq!(
            support,
            vec![((excited, excited), 0.5), ((calm, calm), 0.5)]
        );
    }

    #[test]
    fn deterministic_support_rejects_randomized_transitions() {
        let coin = LazyCoin(4);
        assert!(deterministic_support(&coin, &true, &false).is_none());
        assert_eq!(
            deterministic_support(&coin, &false, &true),
            Some(vec![((false, true), 1.0)])
        );
    }

    #[test]
    fn transition_supports_are_cached_per_index_pair() {
        let p = DiscoveredProtocol::new(LazyCoin(4));
        let excited = p.encode(&true);
        let calm = p.encode(&false);
        assert_eq!(p.cached_supports(), 0);
        let first = p.transition_support(excited, calm);
        assert_eq!(p.cached_supports(), 1);
        // The cached answer is returned verbatim, and clones share the cache.
        assert_eq!(p.clone().transition_support(excited, calm), first);
        assert_eq!(p.cached_supports(), 1);
        // Unknown supports (empty answers) are memoized too — that is what
        // saves the repeated deterministic-support probe per fired pair.
        struct Sampler(usize);
        impl Protocol for Sampler {
            type State = u8;
            fn population_size(&self) -> usize {
                self.0
            }
            fn interact(&self, u: &mut u8, _v: &mut u8, ctx: &mut InteractionCtx<'_>) {
                *u = (ctx.sample_below(3)) as u8;
            }
        }
        impl SupportEnumerable for Sampler {}
        let q = DiscoveredProtocol::new(Sampler(4));
        let a = q.encode(&0);
        let b = q.encode(&1);
        assert!(q.transition_support(a, b).is_empty());
        assert_eq!(q.cached_supports(), 1);
        assert!(q.transition_support(a, b).is_empty());
        assert_eq!(q.cached_supports(), 1);
    }

    #[test]
    fn transition_indices_discovers_new_states() {
        let p = DiscoveredProtocol::new(Spread(4));
        let informed = p.encode(&true);
        let susceptible = p.encode(&false);
        let mut rng = SimRng::seed_from_u64(0);
        let mut ctx = InteractionCtx::new(&mut rng, 0);
        assert_eq!(
            p.transition_indices(informed, susceptible, &mut ctx),
            (informed, informed)
        );
        assert_eq!(p.num_states(), 2);
    }

    #[test]
    fn flat_clean_path_matches_the_per_agent_path() {
        // `CountConfiguration::from_clean_init` must intern states in the
        // same agent-index order as materializing `Configuration::clean` and
        // encoding it agent by agent — otherwise the two construction paths
        // would hand the engines different index assignments for the same
        // protocol and break snapshot reproducibility.
        let flat = DiscoveredProtocol::new(Spread(16));
        let flat_counts = crate::CountConfiguration::from_clean_init(&flat);

        let per_agent = DiscoveredProtocol::new(Spread(16));
        let config = Configuration::clean(&per_agent);
        let per_agent_counts = crate::CountConfiguration::from_configuration(&per_agent, &config);

        assert_eq!(flat.num_states(), per_agent.num_states());
        assert_eq!(flat_counts.num_states(), per_agent_counts.num_states());
        for i in 0..flat.num_states() {
            assert_eq!(
                flat.decode(i),
                per_agent.decode(i),
                "interning order at {i}"
            );
            assert_eq!(
                flat_counts.count(i),
                per_agent_counts.count(i),
                "count at {i}"
            );
        }
        // Agent 0 is the informed source, so `true` is discovered first.
        assert!(flat.decode(0));
        assert_eq!(flat_counts.count(0), 1);
        assert_eq!(flat_counts.count(1), 15);
    }

    #[test]
    fn discovered_epidemic_completes_under_the_batched_engine() {
        let telemetry = Telemetry::enabled();
        let mut sim = SimBuilder::new(DiscoveredProtocol::new(Spread(128)))
            .kind(EngineKind::Batched)
            .seed(11)
            .telemetry(telemetry.clone())
            .build();
        let out = sim.run_until(&mut |c| c.count(0) == c.population(), u64::MAX);
        assert!(out.satisfied);
        // Exactly n - 1 informing interactions, as for the enumerated engine.
        assert_eq!(active(&telemetry), 127);
    }

    #[test]
    fn discovered_randomized_protocol_drains_excitement() {
        // From all-excited, every non-silent interaction either spreads or
        // calms; eventually everyone is excited or calmed in a way that can
        // stall. Just check the engine runs it without blind sampling issues.
        let telemetry = Telemetry::enabled();
        let mut sim = SimBuilder::new(DiscoveredProtocol::new(LazyCoin(64)))
            .kind(EngineKind::Batched)
            .seed(3)
            .telemetry(telemetry.clone())
            .build();
        // All-true is fully silent: every pair maps to itself.
        sim.run(10_000);
        assert_eq!(active(&telemetry), 0);
    }

    #[test]
    fn counting_rng_counts_draws() {
        let mut rng = CountingRng::new();
        let _ = rng.next_u64();
        let _ = rng.next_u32();
        let mut buf = [0u8; 12];
        rng.fill_bytes(&mut buf);
        assert_eq!(rng.draws, 4, "12 bytes need two u64 draws");
    }
}
