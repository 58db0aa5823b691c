//! Seeded workload generation: a deterministic stream of engine requests,
//! optionally **trace-shaped** — phased, timestamped, and drifting.
//!
//! The generator follows the algorithm-engineering playbook for cut
//! benchmarks: a weighted action mix (`WeightedIndex`) decides *what* each
//! operation does, and a Zipf-skewed popularity table decides *which* graph
//! it targets — a few hot graphs absorb most of the traffic (which is what
//! makes the engine's epoch cache earn its keep), while the long tail keeps
//! the registry honest.
//!
//! On top of that sits the **timeline layer**: a [`Timeline`] is a sequence
//! of [`Phase`]s, each with its own arrival process ([`ArrivalProcess`]:
//! steady pacing, Poisson bursts, a diurnal ramp), action mix, Zipf
//! exponent, and popularity drift ([`PopularityDrift`]: hot-set rotation or
//! a flash crowd that yanks the Zipf head onto another graph mid-run).
//! [`Workload::generate_timeline`] emits the concatenated phases as one
//! stream of requests with deterministic arrival timestamps — the open-loop
//! input the stress harness measures latency-under-load against.
//!
//! Determinism is load-bearing everywhere:
//!
//! - Every phase draws from its **own sub-seeded RNG** (derived from the
//!   master seed and the phase *name*), so inserting or removing a phase
//!   never perturbs the random streams of phases around it. (Mutations
//!   still carry state across phases through the shared graph mirrors —
//!   a query-only phase is entirely transparent to its successors.)
//! - The generator mirrors engine state (per-graph vertex counts and the
//!   multiset of present edges) so every emitted mutation is valid by
//!   construction: replaying a workload never produces `Response::Error`,
//!   and identical seeds produce identical request streams, timestamps
//!   included.
//! - A workload round-trips **byte-identically** through the trace format
//!   ([`Workload::to_trace`] / [`Workload::from_trace`]): save a run,
//!   diff it, replay it later — same requests, same timestamps, same
//!   stress digest.

use std::collections::BTreeMap;

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::request::{contract_relabel, GraphSpec, Mutation, Query, Request};

/// Relative weights of the operations in a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionMix {
    /// Insert a random weighted edge.
    pub insert_edge: f64,
    /// Delete a random present edge.
    pub delete_edge: f64,
    /// Contract a random vertex pair.
    pub contract: f64,
    /// `(2+ε)`-approximate min cut (seed drawn from a small pool, so
    /// repeats can hit the cache).
    pub approx_min_cut: f64,
    /// Exact min cut.
    pub exact_min_cut: f64,
    /// Smallest singleton cut.
    pub singleton_cut: f64,
    /// Approximate min k-cut.
    pub kcut: f64,
    /// Connected components.
    pub connectivity: f64,
    /// Exact s-t cut weight.
    pub st_cut: f64,
}

impl Default for ActionMix {
    /// A read-heavy mix: ~70% queries, ~30% mutations — the regime the
    /// epoch cache is designed for.
    fn default() -> Self {
        Self {
            insert_edge: 18.0,
            delete_edge: 8.0,
            contract: 2.0,
            approx_min_cut: 14.0,
            exact_min_cut: 8.0,
            singleton_cut: 10.0,
            kcut: 4.0,
            connectivity: 22.0,
            st_cut: 14.0,
        }
    }
}

impl ActionMix {
    /// A mutation-heavy mix (cache-hostile; useful for stressing rebuild
    /// and invalidation paths).
    pub fn write_heavy() -> Self {
        Self {
            insert_edge: 40.0,
            delete_edge: 25.0,
            contract: 5.0,
            approx_min_cut: 5.0,
            exact_min_cut: 5.0,
            singleton_cut: 5.0,
            kcut: 2.0,
            connectivity: 8.0,
            st_cut: 5.0,
        }
    }

    /// A query-only mix (every op after warm-up should be a cache hit).
    pub fn read_only() -> Self {
        Self {
            insert_edge: 0.0,
            delete_edge: 0.0,
            contract: 0.0,
            approx_min_cut: 20.0,
            exact_min_cut: 15.0,
            singleton_cut: 15.0,
            kcut: 5.0,
            connectivity: 25.0,
            st_cut: 20.0,
        }
    }

    fn weights(&self) -> [f64; 9] {
        [
            self.insert_edge,
            self.delete_edge,
            self.contract,
            self.approx_min_cut,
            self.exact_min_cut,
            self.singleton_cut,
            self.kcut,
            self.connectivity,
            self.st_cut,
        ]
    }
}

/// Parameters of a generated workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of operations after the create prologue.
    pub ops: usize,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of registered graphs.
    pub graphs: usize,
    /// Vertices per graph at creation.
    pub initial_n: usize,
    /// Zipf exponent for graph popularity (0 = uniform; ~1 = classic skew).
    pub zipf_exponent: f64,
    /// Distinct query seeds per graph (smaller pool ⇒ more cache hits).
    pub query_seed_pool: u64,
    /// The action mix.
    pub mix: ActionMix,
    /// When nonzero, graph 0 (`g000`) is created as a *whale*: a sparse
    /// connected G(n, m) with this many vertices instead of the
    /// `initial_n`-sized family member — the one-huge-graph shape the
    /// [`Timeline::whale`] preset pairs with. Zero (the default) leaves
    /// the population unchanged, and the prologue's random draws are
    /// identical either way.
    pub whale_n: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            ops: 1_000,
            seed: 0xC07,
            graphs: 8,
            initial_n: 48,
            zipf_exponent: 1.1,
            query_seed_pool: 4,
            mix: ActionMix::default(),
            whale_n: 0,
        }
    }
}

/// When operations of a phase *arrive* — the open-loop load shape.
///
/// Rates are in operations per second; timestamps are deterministic
/// functions of the phase's sub-seeded RNG, so two generations of the same
/// timeline produce identical schedules. Time-varying processes
/// ([`ArrivalProcess::Bursts`], [`ArrivalProcess::Diurnal`]) evaluate their
/// rate at the phase-relative time, so a phase's shape is self-contained.
///
/// # Examples
///
/// ```
/// use cut_engine::{ArrivalProcess, Timeline, Workload, WorkloadConfig};
///
/// let cfg = WorkloadConfig { graphs: 4, seed: 9, ..WorkloadConfig::default() };
/// let timeline = Timeline::single("paced", 100, ArrivalProcess::Steady { rate: 10_000.0 });
/// let wl = Workload::generate_timeline(&cfg, &timeline);
/// assert_eq!(wl.arrivals.len(), 100);
/// // Steady pacing: op k arrives at (k+1) * 100µs.
/// assert_eq!(wl.arrivals[0], 100_000);
/// assert_eq!(wl.arrivals[99], 10_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Closed loop: no pacing. Operations carry the phase-start timestamp
    /// and the harness issues them as fast as the engine drains them. (A
    /// `Closed` phase inside an otherwise open timeline is a *flash dump*:
    /// its whole batch lands at one instant.)
    Closed,
    /// Fixed inter-arrival gap of `1/rate` seconds — the metronome.
    Steady {
        /// Operations per second.
        rate: f64,
    },
    /// Poisson arrivals: exponential inter-arrival gaps with mean
    /// `1/rate` — memoryless, with the natural short-range clumping of
    /// real traffic.
    Poisson {
        /// Mean operations per second.
        rate: f64,
    },
    /// ON/OFF bursts: Poisson at `base` between bursts; for the first
    /// `burst` seconds of every `period` seconds (phase-relative), Poisson
    /// at `peak`. The flash-sale load shape.
    Bursts {
        /// Quiet-interval mean rate (ops/sec).
        base: f64,
        /// In-burst mean rate (ops/sec).
        peak: f64,
        /// Seconds from one burst start to the next.
        period: f64,
        /// Burst length in seconds (must be < `period`).
        burst: f64,
    },
    /// A sinusoidal ramp between `low` and `high` over `period` seconds —
    /// a compressed diurnal cycle (starts at `low`, peaks at `period/2`).
    Diurnal {
        /// Trough mean rate (ops/sec).
        low: f64,
        /// Peak mean rate (ops/sec).
        high: f64,
        /// Seconds per full cycle.
        period: f64,
    },
}

impl ArrivalProcess {
    /// The next inter-arrival gap in seconds, given the phase-relative
    /// time `t`. Consumes RNG draws only for stochastic processes, so a
    /// `Closed` or `Steady` phase's request stream is independent of its
    /// arrival bookkeeping.
    fn gap_secs(&self, rng: &mut SmallRng, t: f64) -> f64 {
        // Exponential inter-arrival with mean 1/rate; 1 - u is in (0, 1]
        // so ln never sees zero.
        let exp = |rng: &mut SmallRng, rate: f64| -(1.0 - rng.gen::<f64>()).ln() / rate;
        match *self {
            ArrivalProcess::Closed => 0.0,
            ArrivalProcess::Steady { rate } => 1.0 / rate,
            ArrivalProcess::Poisson { rate } => exp(rng, rate),
            ArrivalProcess::Bursts { base, peak, period, burst } => {
                let in_burst = t.rem_euclid(period.max(f64::MIN_POSITIVE)) < burst;
                exp(rng, if in_burst { peak } else { base })
            }
            ArrivalProcess::Diurnal { low, high, period } => {
                let phase =
                    t.rem_euclid(period.max(f64::MIN_POSITIVE)) / period.max(f64::MIN_POSITIVE);
                let rate = low + (high - low) * 0.5 * (1.0 - (std::f64::consts::TAU * phase).cos());
                exp(rng, rate.max(low.min(high)))
            }
        }
    }

    /// True for processes that emit real timestamps (everything but
    /// [`ArrivalProcess::Closed`]).
    fn is_open(&self) -> bool {
        !matches!(self, ArrivalProcess::Closed)
    }

    /// Validate rates/periods; the generator calls this per phase so a bad
    /// timeline fails loudly before any request is emitted.
    fn validate(&self) -> Result<(), String> {
        let pos = |v: f64, what: &str| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{what} must be positive and finite (got {v})"))
            }
        };
        match *self {
            ArrivalProcess::Closed => Ok(()),
            ArrivalProcess::Steady { rate } | ArrivalProcess::Poisson { rate } => {
                pos(rate, "arrival rate")
            }
            ArrivalProcess::Bursts { base, peak, period, burst } => {
                pos(base, "burst base rate")?;
                pos(peak, "burst peak rate")?;
                pos(period, "burst period")?;
                pos(burst, "burst length")?;
                if burst >= period {
                    return Err(format!("burst length {burst} must be < period {period}"));
                }
                Ok(())
            }
            ArrivalProcess::Diurnal { low, high, period } => {
                pos(low, "diurnal low rate")?;
                pos(high, "diurnal high rate")?;
                pos(period, "diurnal period")
            }
        }
    }
}

/// How a phase's popularity ranking maps onto actual graphs — the knob
/// that makes the Zipf *head* move mid-run instead of pinning one graph
/// as eternally hot.
///
/// The Zipf table ranks abstract positions (rank 0 hottest); the drift
/// maps ranks to graph indices. Targets are taken modulo the graph count,
/// so a drift never lands out of range even on small registries.
///
/// # Examples
///
/// ```
/// use cut_engine::{PopularityDrift, Request};
/// use cut_engine::{ArrivalProcess, Phase, Timeline, Workload, WorkloadConfig};
///
/// // A flash crowd: 3/4 of the phase's arrivals pile onto graph 2.
/// let phase = Phase {
///     drift: PopularityDrift::FlashCrowd { target: 2, share: 0.75 },
///     ..Phase::named("flash", 400)
/// };
/// let cfg = WorkloadConfig { graphs: 4, zipf_exponent: 1.2, ..WorkloadConfig::default() };
/// let wl = Workload::generate_timeline(&cfg, &Timeline { phases: vec![phase] });
/// let on = |g: &str| {
///     wl.operations
///         .iter()
///         .filter(|r| {
///             matches!(r, Request::Mutate { name, .. } | Request::Query { name, .. } if name == g)
///         })
///         .count()
/// };
/// assert!(on("g002") > on("g000"), "the flash target must out-draw the usual head");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PopularityDrift {
    /// Rank `i` is graph `i` for the whole phase — the classic static skew.
    None,
    /// Hot-set drift: the rank→graph mapping rotates by one position every
    /// `every` emitted operations, so the Zipf head crawls across the
    /// registry during the phase (`every = 0` behaves as `1`).
    Rotate {
        /// Operations between rotation steps.
        every: usize,
    },
    /// Flash crowd: a `share` fraction of the phase's arrivals *is* the
    /// crowd and rides graph `target` directly; the rest is organic
    /// traffic keeping the phase's unmodified Zipf ranking (the usual
    /// head stays the organic head). This couples popularity to the
    /// arrival surge: a phase arriving at `k×` the baseline rate with
    /// `share = (k-1)/k` means exactly the *extra* arrivals are the
    /// crowd — organic load on every other graph is unchanged, which is
    /// what an engine under a real flash crowd sees. (The old head-swap
    /// formulation re-drew popularity independently of arrivals, so the
    /// "crowd" was just a relabeled static skew.)
    FlashCrowd {
        /// Graph index the crowd lands on (taken modulo the graph count).
        target: usize,
        /// Fraction of arrivals that are crowd traffic (clamped to 0..=1).
        share: f64,
    },
}

impl PopularityDrift {
    /// Map a sampled Zipf rank to a graph index, `emitted` operations into
    /// the phase. Draws the crowd-vs-organic coin from `rng`, so the
    /// mapping stays a pure function of the phase's seeded stream.
    fn graph_for(&self, rank: usize, emitted: usize, graphs: usize, rng: &mut SmallRng) -> usize {
        match *self {
            PopularityDrift::None => rank,
            PopularityDrift::Rotate { every } => (rank + emitted / every.max(1)) % graphs,
            PopularityDrift::FlashCrowd { target, share } => {
                if rng.gen_bool(share.clamp(0.0, 1.0)) {
                    target % graphs
                } else {
                    rank
                }
            }
        }
    }
}

/// One contiguous segment of a [`Timeline`]: how many operations, how they
/// arrive, what they do, and which graphs they favor.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name. Doubles as the phase's RNG identity: the sub-seed is
    /// derived from `(master seed, name)`, so renaming a phase reshuffles
    /// *its* stream only, and phases sharing a name draw identical streams.
    pub name: String,
    /// Operations this phase emits (0 is allowed: an empty phase is
    /// invisible to the request stream *and* to other phases' RNG).
    pub ops: usize,
    /// The arrival process (open-loop timestamps).
    pub arrival: ArrivalProcess,
    /// The action mix for this phase.
    pub mix: ActionMix,
    /// Zipf popularity exponent for this phase (0 = uniform).
    pub zipf_exponent: f64,
    /// How ranks map to graphs over the phase.
    pub drift: PopularityDrift,
}

impl Phase {
    /// A closed-loop phase with the default mix and skew — the base other
    /// phases are built from with struct update syntax.
    pub fn named(name: &str, ops: usize) -> Phase {
        Phase {
            name: name.to_string(),
            ops,
            arrival: ArrivalProcess::Closed,
            mix: ActionMix::default(),
            zipf_exponent: WorkloadConfig::default().zipf_exponent,
            drift: PopularityDrift::None,
        }
    }
}

/// A phased load shape: the phases run back to back, sharing graph state
/// (mutations persist) but each drawing from its own sub-seeded RNG.
///
/// Presets ([`Timeline::bursty`], [`Timeline::diurnal`],
/// [`Timeline::flash`]) build the trace shapes the stress harness exposes
/// as `--phases`; custom timelines compose the same pieces.
///
/// # Examples
///
/// ```
/// use cut_engine::{Timeline, Workload, WorkloadConfig};
///
/// let cfg = WorkloadConfig { seed: 3, graphs: 6, ..WorkloadConfig::default() };
/// let timeline = Timeline::bursty(2_000, 50_000.0, cfg.mix, cfg.zipf_exponent);
/// assert_eq!(timeline.total_ops(), 2_000);
///
/// let wl = Workload::generate_timeline(&cfg, &timeline);
/// assert_eq!(wl.operations.len(), 2_000);
/// assert_eq!(wl.arrivals.len(), 2_000, "open-loop timelines timestamp every op");
/// // Phase boundaries are recorded for per-phase latency reporting.
/// assert_eq!(wl.phases.iter().map(|(_, ops)| ops).sum::<usize>(), 2_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// The phases, in execution order.
    pub phases: Vec<Phase>,
}

impl Timeline {
    /// A one-phase timeline with the default mix and skew.
    pub fn single(name: &str, ops: usize, arrival: ArrivalProcess) -> Timeline {
        Timeline { phases: vec![Phase { arrival, ..Phase::named(name, ops) }] }
    }

    /// The bursty preset: a steady warm-up, an ON/OFF burst phase with
    /// hot-set rotation, a flash-crowd spike on a cold graph, and a slow
    /// cool-down. `rate` is the baseline ops/sec; the burst peaks at 6×
    /// and the flash crowd runs at 3×.
    pub fn bursty(ops: usize, rate: f64, mix: ActionMix, zipf_exponent: f64) -> Timeline {
        let warm = ops / 5;
        let burst = ops * 3 / 10;
        let flash = ops / 4;
        let cool = ops - warm - burst - flash;
        // Aim for ~3 burst cycles across the burst phase (mean rate there
        // is roughly 8/3 the baseline with a 1:2 on:off split at 6×).
        let burst_span = burst as f64 / (rate * 8.0 / 3.0).max(f64::MIN_POSITIVE);
        let period = (burst_span / 3.0).max(1e-6);
        let base = Phase { mix, zipf_exponent, ..Phase::named("", 0) };
        Timeline {
            phases: vec![
                Phase {
                    arrival: ArrivalProcess::Steady { rate },
                    ..Phase { name: "warm".into(), ops: warm, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Bursts {
                        base: rate,
                        peak: 6.0 * rate,
                        period,
                        burst: period / 3.0,
                    },
                    drift: PopularityDrift::Rotate { every: (burst / 6).max(1) },
                    ..Phase { name: "burst".into(), ops: burst, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Poisson { rate: 3.0 * rate },
                    // 3× the baseline rate: the extra 2/3 of arrivals are
                    // the crowd, organic load stays at its usual skew.
                    drift: PopularityDrift::FlashCrowd { target: 3, share: 2.0 / 3.0 },
                    ..Phase { name: "flash".into(), ops: flash, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Poisson { rate: rate / 2.0 },
                    ..Phase { name: "cool".into(), ops: cool, ..base }
                },
            ],
        }
    }

    /// The diurnal preset: two sinusoidal day cycles (trough `rate/4`,
    /// peak `2×rate`), with the Zipf head drifting during the second.
    pub fn diurnal(ops: usize, rate: f64, mix: ActionMix, zipf_exponent: f64) -> Timeline {
        let day1 = ops / 2;
        let day2 = ops - day1;
        // One cycle per phase: the mean of the sinusoid is (low+high)/2.
        let mean = (rate / 4.0 + 2.0 * rate) / 2.0;
        let period = |ops: usize| (ops as f64 / mean.max(f64::MIN_POSITIVE)).max(1e-6);
        let arrival =
            |p: f64| ArrivalProcess::Diurnal { low: rate / 4.0, high: 2.0 * rate, period: p };
        let base = Phase { mix, zipf_exponent, ..Phase::named("", 0) };
        Timeline {
            phases: vec![
                Phase {
                    arrival: arrival(period(day1)),
                    ..Phase { name: "day1".into(), ops: day1, ..base.clone() }
                },
                Phase {
                    arrival: arrival(period(day2)),
                    drift: PopularityDrift::Rotate { every: (day2 / 4).max(1) },
                    ..Phase { name: "day2".into(), ops: day2, ..base }
                },
            ],
        }
    }

    /// The flash preset: steady cruise, a 4× Poisson flash crowd piling
    /// the surge (3/4 of arrivals) onto a normally-cold graph while
    /// organic traffic keeps its skew, then recovery at the old rate.
    pub fn flash(ops: usize, rate: f64, mix: ActionMix, zipf_exponent: f64) -> Timeline {
        let cruise = ops * 2 / 5;
        let crowd = ops * 2 / 5;
        let recover = ops - cruise - crowd;
        let base = Phase { mix, zipf_exponent, ..Phase::named("", 0) };
        Timeline {
            phases: vec![
                Phase {
                    arrival: ArrivalProcess::Steady { rate },
                    ..Phase { name: "cruise".into(), ops: cruise, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Poisson { rate: 4.0 * rate },
                    // 4× the baseline rate: the extra 3/4 of arrivals are
                    // the crowd piling onto the normally-cold target.
                    drift: PopularityDrift::FlashCrowd { target: 5, share: 0.75 },
                    ..Phase { name: "crowd".into(), ops: crowd, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Steady { rate },
                    ..Phase { name: "recover".into(), ops: recover, ..base }
                },
            ],
        }
    }

    /// The write-storm preset: the adversarial shape for the dynamic
    /// index. A steady soak builds up graph state, then a delete-heavy
    /// mutation storm (bursty arrivals at 5× peak, hot-set rotation) keeps
    /// invalidating between reads — the regime where an insert-only
    /// union-find would pay a full rebuild per connectivity read — and a
    /// read-mostly audit
    /// sweep closes over the churned graphs. `mix` shapes the soak and
    /// audit phases; the storm forces its own delete-heavy mix so the
    /// preset is adversarial regardless of the configured mix.
    pub fn write_storm(ops: usize, rate: f64, mix: ActionMix, zipf_exponent: f64) -> Timeline {
        let soak = ops / 5;
        let storm = ops * 3 / 5;
        let audit = ops - soak - storm;
        // Deletes rival inserts (the generator only emits a delete while
        // the mirror has spare edges, so heavier delete weight saturates
        // that bound), and connectivity reads land between invalidations.
        let storm_mix = ActionMix {
            insert_edge: 30.0,
            delete_edge: 32.0,
            contract: 2.0,
            approx_min_cut: 3.0,
            exact_min_cut: 4.0,
            singleton_cut: 2.0,
            kcut: 1.0,
            connectivity: 20.0,
            st_cut: 6.0,
        };
        // ~4 on/off cycles across the storm (mean rate ≈ 7/3 baseline
        // with a 1:2 on:off split at 5×).
        let storm_span = storm as f64 / (rate * 7.0 / 3.0).max(f64::MIN_POSITIVE);
        let period = (storm_span / 4.0).max(1e-6);
        let base = Phase { mix, zipf_exponent, ..Phase::named("", 0) };
        Timeline {
            phases: vec![
                Phase {
                    arrival: ArrivalProcess::Steady { rate },
                    ..Phase { name: "soak".into(), ops: soak, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Bursts {
                        base: rate,
                        peak: 5.0 * rate,
                        period,
                        burst: period / 3.0,
                    },
                    mix: storm_mix,
                    drift: PopularityDrift::Rotate { every: (storm / 8).max(1) },
                    ..Phase { name: "storm".into(), ops: storm, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Poisson { rate },
                    ..Phase { name: "audit".into(), ops: audit, ..base }
                },
            ],
        }
    }

    /// The whale preset: the kernel showcase. Pair it with
    /// [`WorkloadConfig::whale_n`] so `g000` is one huge sparse graph;
    /// the timeline then runs a short warm-up ramp, a long cut-heavy
    /// phase pinned to the whale (Zipf exponent forced to 1.6, so rank 0
    /// — the whale — absorbs most traffic; the mix forces s-t and global
    /// cut reads with a trickle of inserts that exercise kernel patching
    /// and rarer deletes that force rebuilds), and a cool-down at the
    /// configured mix. A sparse whale is exactly the shape the
    /// Padberg–Rinaldi rules eat: most vertices are degree-1/-2 and the
    /// kernel keeps `kernel_vertex_ratio` well under one half.
    pub fn whale(ops: usize, rate: f64, mix: ActionMix, zipf_exponent: f64) -> Timeline {
        let ramp = ops / 8;
        let hunt = ops * 3 / 4;
        let cool = ops - ramp - hunt;
        // Cut-read-heavy and mutation-light: inserts keep the kernel's
        // patch path hot without drowning it, deletes (and no contracts)
        // stay rare so cached kernels actually get reused, and the read
        // mass sits on the queries the kernel accelerates.
        let hunt_mix = ActionMix {
            insert_edge: 8.0,
            delete_edge: 3.0,
            contract: 0.0,
            approx_min_cut: 6.0,
            exact_min_cut: 2.0,
            singleton_cut: 4.0,
            kcut: 0.0,
            connectivity: 15.0,
            st_cut: 62.0,
        };
        let base = Phase { mix, zipf_exponent, ..Phase::named("", 0) };
        Timeline {
            phases: vec![
                Phase {
                    arrival: ArrivalProcess::Steady { rate },
                    ..Phase { name: "ramp".into(), ops: ramp, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Poisson { rate: 2.0 * rate },
                    mix: hunt_mix,
                    zipf_exponent: 1.6,
                    ..Phase { name: "hunt".into(), ops: hunt, ..base.clone() }
                },
                Phase {
                    arrival: ArrivalProcess::Steady { rate },
                    ..Phase { name: "cool".into(), ops: cool, ..base }
                },
            ],
        }
    }

    /// Total operations across all phases.
    pub fn total_ops(&self) -> usize {
        self.phases.iter().map(|p| p.ops).sum()
    }
}

/// Sub-seed for a namespaced random stream: FNV-1a over the master seed,
/// a namespace tag, and a name. Phase streams depend on the phase *name*,
/// not its position, so editing a timeline only reshuffles the phases
/// actually touched.
fn derived_seed(master: u64, tag: &str, name: &str) -> u64 {
    let mut bytes = Vec::with_capacity(8 + tag.len() + name.len());
    bytes.extend_from_slice(&master.to_le_bytes());
    bytes.extend_from_slice(tag.as_bytes());
    bytes.extend_from_slice(name.as_bytes());
    cut_graph::hash::fnv1a(&bytes)
}

/// Per-graph generator mirror: enough engine state to emit only valid
/// mutations. Edges are a **multiset** of normalized endpoint pairs
/// (parallel edges counted), matching the engine's edge-list semantics:
/// inserts increment, deletes decrement, and contraction collapses each
/// surviving pair to multiplicity 1 (the engine merges parallel edges).
struct GraphMirror {
    name: String,
    n: usize,
    /// Normalized `(min, max)` endpoint pair -> multiplicity.
    pairs: BTreeMap<(u32, u32), u32>,
    /// Total edge count (sum of multiplicities).
    m: usize,
}

impl GraphMirror {
    fn insert_pair(&mut self, u: u32, v: u32) {
        *self.pairs.entry((u.min(v), u.max(v))).or_insert(0) += 1;
        self.m += 1;
    }

    /// Remove one copy of the `i`-th distinct pair; returns its endpoints.
    fn delete_nth_pair(&mut self, i: usize) -> (u32, u32) {
        let &(u, v) = self.pairs.keys().nth(i).expect("index in range");
        let count = self.pairs.get_mut(&(u, v)).expect("pair present");
        *count -= 1;
        if *count == 0 {
            self.pairs.remove(&(u, v));
        }
        self.m -= 1;
        (u, v)
    }

    fn relabel_after_contract(&mut self, u: u32, v: u32) {
        let mut next = BTreeMap::new();
        for &(a, b) in self.pairs.keys() {
            let (mut a, mut b) = (contract_relabel(u, v, a), contract_relabel(u, v, b));
            if a == b {
                continue;
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            // The engine merges parallel edges on contraction.
            next.insert((a, b), 1u32);
        }
        self.m = next.len();
        self.pairs = next;
        self.n -= 1;
    }
}

/// A fully materialized, replayable request stream.
///
/// # Examples
///
/// ```
/// use cut_engine::{Engine, Response, Workload, WorkloadConfig};
///
/// let cfg = WorkloadConfig { ops: 50, seed: 11, graphs: 3, ..WorkloadConfig::default() };
/// let workload = Workload::generate(&cfg);
/// assert_eq!(workload.len(), cfg.graphs + cfg.ops);
///
/// // Replaying never errors: every mutation is valid by construction …
/// let mut engine = Engine::new();
/// for request in workload.all_requests() {
///     assert!(!matches!(engine.execute(request.clone()), Response::Error { .. }));
/// }
///
/// // … and the stream is a pure function of the config.
/// let again = Workload::generate(&cfg);
/// assert_eq!(workload.operations, again.operations);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Create requests for every graph (run these first).
    pub prologue: Vec<Request>,
    /// The main-phase requests, phases concatenated in timeline order.
    pub operations: Vec<Request>,
    /// Arrival timestamp per operation, in nanoseconds from the start of
    /// the main phase (monotone non-decreasing). **Empty for fully
    /// closed-loop workloads** — e.g. anything from [`Workload::generate`] —
    /// where pacing is the replayer's business, not the workload's.
    pub arrivals: Vec<u64>,
    /// `(phase name, operation count)` in timeline order; `operations`
    /// concatenates them. Closed-loop workloads carry one `"main"` phase.
    pub phases: Vec<(String, usize)>,
}

impl Workload {
    /// Generate the workload for `cfg` — a single closed-loop phase named
    /// `"main"`. Pure: equal configs yield equal request streams.
    pub fn generate(cfg: &WorkloadConfig) -> Workload {
        let phase = Phase {
            mix: cfg.mix,
            zipf_exponent: cfg.zipf_exponent,
            ..Phase::named("main", cfg.ops)
        };
        Self::generate_timeline(cfg, &Timeline { phases: vec![phase] })
    }

    /// Generate a phased workload. The timeline's per-phase `ops`, `mix`,
    /// and `zipf_exponent` supersede the ones in `cfg` (which still
    /// supplies the master seed, graph population, and query-seed pool).
    /// Pure: equal `(cfg, timeline)` pairs yield equal request streams and
    /// arrival schedules.
    ///
    /// # Panics
    /// Panics if `cfg` is invalid (no graphs, `initial_n < 8`) or a phase's
    /// arrival process has a non-positive rate or period.
    pub fn generate_timeline(cfg: &WorkloadConfig, timeline: &Timeline) -> Workload {
        assert!(cfg.graphs > 0, "workload needs at least one graph");
        assert!(cfg.initial_n >= 8, "workload graphs need initial_n >= 8");
        for phase in &timeline.phases {
            if let Err(e) = phase.arrival.validate() {
                panic!("phase '{}': {e}", phase.name);
            }
        }

        // --- Prologue: register the graph population (its own namespaced
        // stream, so timeline edits never reshuffle the graphs). ---
        let mut rng = SmallRng::seed_from_u64(derived_seed(cfg.seed, "/prologue", ""));
        let mut mirrors: Vec<GraphMirror> = Vec::with_capacity(cfg.graphs);
        let mut prologue = Vec::with_capacity(cfg.graphs);
        for i in 0..cfg.graphs {
            let name = format!("g{i:03}");
            // Each graph consumes exactly one seed draw, whale or not, so
            // flipping `whale_n` never reshuffles the rest of the fleet.
            let spec = if i == 0 && cfg.whale_n > 0 {
                let n = cfg.whale_n;
                GraphSpec::ConnectedGnm { n, m: n + n / 10, w_min: 1, w_max: 12, seed: rng.gen() }
            } else {
                spec_for(i, cfg.initial_n, rng.gen())
            };
            let (n, edges) = spec.materialize().expect("workload specs are valid by construction");
            let mut mirror = GraphMirror { name: name.clone(), n, pairs: BTreeMap::new(), m: 0 };
            for e in &edges {
                mirror.insert_pair(e.u, e.v);
            }
            mirrors.push(mirror);
            prologue.push(Request::Create { name, spec });
        }

        // --- Phases, back to back. ---
        let total_ops = timeline.total_ops();
        let open_loop = timeline.phases.iter().any(|p| p.ops > 0 && p.arrival.is_open());
        let mut operations = Vec::with_capacity(total_ops);
        let mut arrivals: Vec<u64> = Vec::with_capacity(total_ops);
        let mut phases = Vec::with_capacity(timeline.phases.len());
        let seed_pool = cfg.query_seed_pool.max(1);
        let mut t = 0.0f64; // seconds since main-phase start, across phases
        for phase in &timeline.phases {
            phases.push((phase.name.clone(), phase.ops));
            if phase.ops == 0 {
                continue;
            }
            let mut rng = SmallRng::seed_from_u64(derived_seed(cfg.seed, "/phase/", &phase.name));
            let zipf = WeightedIndex::new(
                (0..cfg.graphs).map(|rank| 1.0 / ((rank + 1) as f64).powf(phase.zipf_exponent)),
            )
            .expect("zipf weights are positive");
            let actions =
                WeightedIndex::new(phase.mix.weights()).expect("action mix has a positive weight");
            let phase_start = t;
            let mut emitted = 0usize;
            while emitted < phase.ops {
                let rank = zipf.sample(&mut rng);
                let graph = phase.drift.graph_for(rank, emitted, cfg.graphs, &mut rng);
                let mirror = &mut mirrors[graph];
                let action = actions.sample(&mut rng);
                let n = mirror.n as u32;
                let request = match action {
                    // insert-edge
                    0 => {
                        let u = rng.gen_range(0..n);
                        let v = rng.gen_range(0..n - 1);
                        let v = if v >= u { v + 1 } else { v };
                        let w = rng.gen_range(1..=16u64);
                        mirror.insert_pair(u, v);
                        Request::Mutate {
                            name: mirror.name.clone(),
                            op: Mutation::InsertEdge { u, v, w },
                        }
                    }
                    // delete-edge: only while the graph stays usefully
                    // dense; otherwise resample another (graph, action).
                    1 if mirror.m > mirror.n => {
                        let i = rng.gen_range(0..mirror.pairs.len());
                        let (u, v) = mirror.delete_nth_pair(i);
                        Request::Mutate {
                            name: mirror.name.clone(),
                            op: Mutation::DeleteEdge { u, v },
                        }
                    }
                    1 => continue,
                    // contract: keep graphs from collapsing entirely.
                    2 if mirror.n > 12 => {
                        let u = rng.gen_range(0..n);
                        let v = rng.gen_range(0..n - 1);
                        let v = if v >= u { v + 1 } else { v };
                        mirror.relabel_after_contract(u.min(v), u.max(v));
                        Request::Mutate {
                            name: mirror.name.clone(),
                            op: Mutation::ContractVertices { u: u.min(v), v: u.max(v) },
                        }
                    }
                    2 => continue,
                    3 => Request::Query {
                        name: mirror.name.clone(),
                        query: Query::ApproxMinCut { seed: rng.gen_range(0..seed_pool) },
                    },
                    4 => Request::Query { name: mirror.name.clone(), query: Query::ExactMinCut },
                    5 => Request::Query {
                        name: mirror.name.clone(),
                        query: Query::SingletonCut { seed: rng.gen_range(0..seed_pool) },
                    },
                    6 => {
                        let k = rng.gen_range(2..=4usize.min(mirror.n));
                        Request::Query { name: mirror.name.clone(), query: Query::KCut { k } }
                    }
                    7 => Request::Query { name: mirror.name.clone(), query: Query::Connectivity },
                    _ => {
                        let s = rng.gen_range(0..n);
                        let t = rng.gen_range(0..n - 1);
                        let t = if t >= s { t + 1 } else { t };
                        Request::Query {
                            name: mirror.name.clone(),
                            query: Query::StCutWeight { s, t },
                        }
                    }
                };
                t += phase.arrival.gap_secs(&mut rng, t - phase_start);
                arrivals.push((t * 1e9).round() as u64);
                operations.push(request);
                emitted += 1;
            }
        }
        if !open_loop {
            // Fully closed-loop: the all-zero schedule carries no
            // information — drop it so replayers need no mode flag.
            arrivals.clear();
        }

        Workload { prologue, operations, arrivals, phases }
    }

    /// Prologue followed by the main phase, as one stream.
    pub fn all_requests(&self) -> impl Iterator<Item = &Request> {
        self.prologue.iter().chain(self.operations.iter())
    }

    /// Total number of requests (prologue + operations).
    pub fn len(&self) -> usize {
        self.prologue.len() + self.operations.len()
    }

    /// True when the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the workload carries an open-loop arrival schedule.
    pub fn is_open_loop(&self) -> bool {
        !self.arrivals.is_empty()
    }

    /// The phase index of operation `i` (an index into
    /// [`Workload::phases`]); `None` past the end of the stream.
    pub fn phase_of(&self, i: usize) -> Option<usize> {
        let mut before = 0usize;
        for (idx, (_, ops)) in self.phases.iter().enumerate() {
            before += ops;
            if i < before {
                return Some(idx);
            }
        }
        None
    }

    /// Serialize the whole workload — prologue, phase table, and
    /// timestamped operations — to the compact line-oriented trace format.
    /// [`Workload::from_trace`] inverts it exactly, so a saved run replays
    /// byte-identically (same requests, same schedule, same stress digest).
    ///
    /// # Examples
    ///
    /// ```
    /// use cut_engine::{ArrivalProcess, Timeline, Workload, WorkloadConfig};
    ///
    /// let cfg = WorkloadConfig { graphs: 3, ..WorkloadConfig::default() };
    /// let timeline = Timeline::single("t", 40, ArrivalProcess::Poisson { rate: 10_000.0 });
    /// let wl = Workload::generate_timeline(&cfg, &timeline);
    ///
    /// let trace = wl.to_trace();
    /// assert!(trace.starts_with("cut-trace v1 "));
    /// let back = Workload::from_trace(&trace).unwrap();
    /// assert_eq!(back, wl, "a trace round-trip is lossless");
    /// ```
    pub fn to_trace(&self) -> String {
        let mut out = String::with_capacity(64 * (self.len() + self.phases.len() + 1));
        out.push_str(&format!(
            "cut-trace v1 prologue={} ops={} open={}\n",
            self.prologue.len(),
            self.operations.len(),
            u8::from(self.is_open_loop()),
        ));
        for (name, ops) in &self.phases {
            // Request-name escaping keeps arbitrary phase names safe in
            // the whitespace-delimited format.
            out.push_str(&format!("f {} {ops}\n", crate::request::encode_name(name)));
        }
        for req in &self.prologue {
            out.push_str(&format!("p {}\n", req.to_trace_line()));
        }
        for (i, req) in self.operations.iter().enumerate() {
            let at = self.arrivals.get(i).copied().unwrap_or(0);
            out.push_str(&format!("o {at} {}\n", req.to_trace_line()));
        }
        out
    }

    /// Parse a trace produced by [`Workload::to_trace`]. Strict: version,
    /// counts, and every line must check out, so a corrupted trace fails
    /// loudly instead of replaying a subtly different run.
    pub fn from_trace(trace: &str) -> Result<Workload, String> {
        let mut lines = trace.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty trace")?;
        let mut tokens = header.split_whitespace();
        if tokens.next() != Some("cut-trace") || tokens.next() != Some("v1") {
            return Err("not a cut-trace v1 file".into());
        }
        let mut prologue_n = None;
        let mut ops_n = None;
        let mut open = None;
        for tok in tokens {
            let (key, value) = tok.split_once('=').ok_or(format!("bad header field '{tok}'"))?;
            let parsed: u64 = value.parse().map_err(|_| format!("bad header value '{tok}'"))?;
            match key {
                "prologue" => prologue_n = Some(parsed as usize),
                "ops" => ops_n = Some(parsed as usize),
                "open" => open = Some(parsed != 0),
                other => return Err(format!("unknown header field '{other}'")),
            }
        }
        let prologue_n = prologue_n.ok_or("header missing prologue=")?;
        let ops_n = ops_n.ok_or("header missing ops=")?;
        let open = open.ok_or("header missing open=")?;

        let mut workload = Workload {
            prologue: Vec::with_capacity(prologue_n),
            operations: Vec::with_capacity(ops_n),
            arrivals: Vec::with_capacity(if open { ops_n } else { 0 }),
            phases: Vec::new(),
        };
        for (lineno, line) in lines {
            let context = |e: String| format!("trace line {}: {e}", lineno + 1);
            let (kind, rest) =
                line.split_once(' ').ok_or_else(|| context("missing payload".into()))?;
            match kind {
                "f" => {
                    let (name, ops) =
                        rest.split_once(' ').ok_or_else(|| context("bad phase line".into()))?;
                    let decoded = crate::request::decode_name(name).map_err(context)?;
                    let ops = ops.parse().map_err(|_| context(format!("bad phase ops '{ops}'")))?;
                    workload.phases.push((decoded, ops));
                }
                "p" => workload.prologue.push(Request::from_trace_line(rest).map_err(context)?),
                "o" => {
                    let (at, req) =
                        rest.split_once(' ').ok_or_else(|| context("missing op payload".into()))?;
                    let at: u64 =
                        at.parse().map_err(|_| context(format!("bad timestamp '{at}'")))?;
                    if open {
                        workload.arrivals.push(at);
                    } else if at != 0 {
                        return Err(context("closed-loop trace carries a timestamp".into()));
                    }
                    workload.operations.push(Request::from_trace_line(req).map_err(context)?);
                }
                other => return Err(context(format!("unknown line kind '{other}'"))),
            }
        }
        if workload.prologue.len() != prologue_n {
            return Err(format!(
                "trace header promises {prologue_n} prologue requests, found {}",
                workload.prologue.len()
            ));
        }
        if workload.operations.len() != ops_n {
            return Err(format!(
                "trace header promises {ops_n} operations, found {}",
                workload.operations.len()
            ));
        }
        if workload.phases.is_empty() {
            workload.phases.push(("trace".to_string(), ops_n));
        } else {
            let phase_ops: usize = workload.phases.iter().map(|(_, ops)| ops).sum();
            if phase_ops != ops_n {
                return Err(format!(
                    "trace phase table covers {phase_ops} operations, header promises {ops_n}"
                ));
            }
        }
        Ok(workload)
    }
}

/// Deterministic spec variety: cycle through four graph families.
fn spec_for(index: usize, initial_n: usize, seed: u64) -> GraphSpec {
    let n = initial_n;
    match index % 4 {
        0 => GraphSpec::ConnectedGnm { n, m: 3 * n, w_min: 1, w_max: 12, seed },
        1 => GraphSpec::PlantedCut { half: n / 2, internal_m: 2 * n, cross: 3, seed },
        2 => GraphSpec::Cycle { n },
        _ => GraphSpec::RandomTree { n, seed },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::request::Response;

    #[test]
    fn identical_seeds_give_identical_streams() {
        let cfg = WorkloadConfig { ops: 400, seed: 99, ..WorkloadConfig::default() };
        let a = Workload::generate(&cfg);
        let b = Workload::generate(&cfg);
        assert_eq!(a.prologue, b.prologue);
        assert_eq!(a.operations, b.operations);
    }

    #[test]
    fn different_seeds_differ() {
        let base = WorkloadConfig { ops: 200, ..WorkloadConfig::default() };
        let a = Workload::generate(&WorkloadConfig { seed: 1, ..base.clone() });
        let b = Workload::generate(&WorkloadConfig { seed: 2, ..base });
        assert_ne!(a.operations, b.operations);
    }

    #[test]
    fn generated_mutations_never_fail() {
        let cfg = WorkloadConfig {
            ops: 600,
            seed: 7,
            graphs: 5,
            initial_n: 24,
            mix: ActionMix::write_heavy(),
            ..WorkloadConfig::default()
        };
        let wl = Workload::generate(&cfg);
        let mut engine = Engine::new();
        for req in wl.all_requests() {
            let resp = engine.execute(req.clone());
            assert!(
                !matches!(resp, Response::Error { .. }),
                "valid-by-construction workload hit: {req} -> {resp}"
            );
        }
    }

    #[test]
    fn zipf_skew_concentrates_traffic() {
        let cfg = WorkloadConfig {
            ops: 2_000,
            seed: 5,
            graphs: 10,
            zipf_exponent: 1.2,
            ..WorkloadConfig::default()
        };
        let wl = Workload::generate(&cfg);
        let hot = wl
            .operations
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Request::Mutate { name, .. } | Request::Query { name, .. }
                        if name == "g000"
                )
            })
            .count();
        // Rank-0 gets weight 1 of H(10, 1.2) ≈ 2.92 ⇒ ~34% of traffic.
        assert!(
            hot > wl.operations.len() / 5,
            "expected zipf hot spot, got {hot}/{}",
            wl.operations.len()
        );
    }

    #[test]
    fn read_only_mix_emits_no_mutations() {
        let cfg =
            WorkloadConfig { ops: 300, mix: ActionMix::read_only(), ..WorkloadConfig::default() };
        let wl = Workload::generate(&cfg);
        assert!(wl.operations.iter().all(|r| matches!(r, Request::Query { .. })));
    }

    #[test]
    fn closed_loop_generate_has_no_arrivals_and_one_phase() {
        let cfg = WorkloadConfig { ops: 100, ..WorkloadConfig::default() };
        let wl = Workload::generate(&cfg);
        assert!(!wl.is_open_loop());
        assert!(wl.arrivals.is_empty());
        assert_eq!(wl.phases, vec![("main".to_string(), 100)]);
        assert_eq!(wl.phase_of(0), Some(0));
        assert_eq!(wl.phase_of(99), Some(0));
        assert_eq!(wl.phase_of(100), None);
    }

    #[test]
    fn open_loop_arrivals_are_monotone_and_cover_every_op() {
        let cfg = WorkloadConfig { ops: 0, graphs: 4, seed: 21, ..WorkloadConfig::default() };
        for timeline in [
            Timeline::bursty(500, 100_000.0, ActionMix::default(), 1.1),
            Timeline::diurnal(500, 100_000.0, ActionMix::default(), 1.1),
            Timeline::flash(500, 100_000.0, ActionMix::default(), 1.1),
        ] {
            let wl = Workload::generate_timeline(&cfg, &timeline);
            assert_eq!(wl.operations.len(), 500);
            assert_eq!(wl.arrivals.len(), 500);
            assert!(wl.arrivals.windows(2).all(|w| w[0] <= w[1]), "arrivals must be monotone");
            assert!(*wl.arrivals.last().unwrap() > 0);
        }
    }

    #[test]
    fn phase_streams_are_independent_of_phase_insertion() {
        // The per-phase sub-seed refactor's contract: inserting a
        // query-only phase must not perturb any other phase's stream.
        let cfg = WorkloadConfig { ops: 0, graphs: 5, seed: 77, ..WorkloadConfig::default() };
        let tail = Phase { mix: ActionMix::read_only(), ..Phase::named("tail", 200) };
        let head = Phase { mix: ActionMix::read_only(), ..Phase::named("head", 150) };
        let inserted = Phase { mix: ActionMix::read_only(), ..Phase::named("inserted", 120) };

        let without = Workload::generate_timeline(
            &cfg,
            &Timeline { phases: vec![head.clone(), tail.clone()] },
        );
        let with =
            Workload::generate_timeline(&cfg, &Timeline { phases: vec![head, inserted, tail] });

        assert_eq!(without.prologue, with.prologue, "prologue has its own seed stream");
        // head is a shared prefix; tail is byte-identical after skipping
        // the inserted phase's operations.
        assert_eq!(without.operations[..150], with.operations[..150]);
        assert_eq!(without.operations[150..], with.operations[270..]);
    }

    #[test]
    fn empty_phases_are_invisible() {
        let cfg = WorkloadConfig { ops: 0, graphs: 4, seed: 5, ..WorkloadConfig::default() };
        let solid = Phase { ..Phase::named("solid", 300) };
        let a = Workload::generate_timeline(&cfg, &Timeline { phases: vec![solid.clone()] });
        let b = Workload::generate_timeline(
            &cfg,
            &Timeline {
                phases: vec![
                    Phase::named("empty-before", 0),
                    solid,
                    Phase {
                        arrival: ArrivalProcess::Poisson { rate: 1.0 },
                        ..Phase::named("empty-after", 0)
                    },
                ],
            },
        );
        assert_eq!(a.operations, b.operations);
        // An empty open-loop phase must not flip the workload open.
        assert!(!b.is_open_loop());
        assert_eq!(b.phases.len(), 3, "empty phases still appear in the phase table");
    }

    #[test]
    fn single_op_burst_phase_works() {
        let cfg = WorkloadConfig { ops: 0, graphs: 3, seed: 13, ..WorkloadConfig::default() };
        let timeline = Timeline {
            phases: vec![Phase {
                arrival: ArrivalProcess::Bursts { base: 10.0, peak: 1e6, period: 1.0, burst: 0.5 },
                drift: PopularityDrift::Rotate { every: 1 },
                ..Phase::named("blip", 1)
            }],
        };
        let wl = Workload::generate_timeline(&cfg, &timeline);
        assert_eq!(wl.operations.len(), 1);
        assert_eq!(wl.arrivals.len(), 1);
    }

    #[test]
    fn drift_targets_stay_in_range_on_tiny_registries() {
        // Rotation offsets and flash targets far beyond the graph count
        // must wrap, not panic or emit unknown names.
        let cfg = WorkloadConfig { ops: 0, graphs: 2, seed: 3, ..WorkloadConfig::default() };
        let timeline = Timeline {
            phases: vec![
                Phase {
                    drift: PopularityDrift::Rotate { every: 0 }, // 0 behaves as 1
                    ..Phase::named("spin", 100)
                },
                Phase {
                    drift: PopularityDrift::FlashCrowd { target: 999, share: 0.5 },
                    ..Phase::named("crowd", 100)
                },
            ],
        };
        let wl = Workload::generate_timeline(&cfg, &timeline);
        let mut engine = Engine::new();
        for req in wl.all_requests() {
            let resp = engine.execute(req.clone());
            assert!(!matches!(resp, Response::Error { .. }), "{req} -> {resp}");
        }
    }

    #[test]
    fn rotation_drift_moves_the_hot_set() {
        let cfg = WorkloadConfig { ops: 0, graphs: 8, seed: 11, ..WorkloadConfig::default() };
        let count_on = |wl: &Workload, range: std::ops::Range<usize>, g: &str| {
            wl.operations[range]
                .iter()
                .filter(|r| {
                    matches!(r, Request::Mutate { name, .. } | Request::Query { name, .. }
                        if name == g)
                })
                .count()
        };
        let timeline = Timeline {
            phases: vec![Phase {
                zipf_exponent: 1.4,
                drift: PopularityDrift::Rotate { every: 500 },
                ..Phase::named("drift", 2_000)
            }],
        };
        let wl = Workload::generate_timeline(&cfg, &timeline);
        // In the first rotation step g000 is the head; two steps later the
        // head has moved to g002 and g000 is a tail graph.
        assert!(count_on(&wl, 0..500, "g000") > count_on(&wl, 0..500, "g002"));
        assert!(count_on(&wl, 1000..1500, "g002") > count_on(&wl, 1000..1500, "g000"));
    }

    #[test]
    fn flash_crowd_correlates_surge_with_target_deterministically() {
        let cfg = WorkloadConfig { ops: 0, graphs: 8, seed: 21, ..WorkloadConfig::default() };
        // flash preset: cruise 1600 ops, crowd 1600 (4× rate, share 3/4,
        // target g005), recover 800.
        let timeline = Timeline::flash(4_000, 50_000.0, ActionMix::default(), 1.1);
        let wl = Workload::generate_timeline(&cfg, &timeline);

        // Determinism pin: the crowd-vs-organic coin rides the phase's
        // seeded stream, so regeneration is byte-identical.
        assert_eq!(wl, Workload::generate_timeline(&cfg, &timeline));

        let count_on = |range: std::ops::Range<usize>, g: &str| {
            wl.operations[range]
                .iter()
                .filter(|r| {
                    matches!(r, Request::Mutate { name, .. } | Request::Query { name, .. }
                        if name == g)
                })
                .count()
        };
        // Correlation: the surge share of the crowd phase lands on the
        // target — well over half of its traffic, not just a relabeled
        // Zipf head (which would cap out around the head's ~35% mass).
        let on_target = count_on(1600..3200, "g005");
        assert!(
            on_target * 10 > 1600 * 6,
            "crowd target drew {on_target}/1600 ops; surge share should dominate"
        );
        // Organic traffic keeps its own head during the crowd …
        assert!(count_on(1600..3200, "g000") > count_on(1600..3200, "g003"));
        // … and before the crowd the target is cold.
        assert!(count_on(0..1600, "g000") > count_on(0..1600, "g005"));
    }

    #[test]
    fn write_storm_preset_shape() {
        let timeline = Timeline::write_storm(10_000, 20_000.0, ActionMix::default(), 1.1);
        assert_eq!(timeline.total_ops(), 10_000);
        let names: Vec<&str> = timeline.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["soak", "storm", "audit"]);
        let storm = &timeline.phases[1];
        assert!(storm.ops >= timeline.total_ops() / 2, "the storm dominates the run");
        assert!(
            storm.mix.delete_edge > storm.mix.insert_edge,
            "the storm is delete-heavy regardless of the configured mix"
        );
        assert!(matches!(storm.arrival, ArrivalProcess::Bursts { .. }));
        assert!(matches!(storm.drift, PopularityDrift::Rotate { .. }));
        // Soak/audit keep the caller's mix.
        assert_eq!(timeline.phases[0].mix, ActionMix::default());
        assert_eq!(timeline.phases[2].mix, ActionMix::default());
        // Deterministic generation, like every preset.
        let cfg = WorkloadConfig { ops: 0, graphs: 6, seed: 11, ..WorkloadConfig::default() };
        let small = Timeline::write_storm(600, 20_000.0, ActionMix::default(), 1.1);
        let a = Workload::generate_timeline(&cfg, &small);
        let b = Workload::generate_timeline(&cfg, &small);
        assert_eq!(a, b);
        assert_eq!(a.operations.len(), 600);
    }

    #[test]
    fn whale_preset_shape_and_whale_graph() {
        let timeline = Timeline::whale(2_000, 20_000.0, ActionMix::default(), 1.1);
        assert_eq!(timeline.total_ops(), 2_000);
        let names: Vec<&str> = timeline.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["ramp", "hunt", "cool"]);
        let hunt = &timeline.phases[1];
        assert!(hunt.ops >= timeline.total_ops() / 2, "the hunt dominates the run");
        assert!(
            hunt.mix.st_cut > hunt.mix.connectivity,
            "the hunt is s-t-cut-heavy regardless of the configured mix"
        );
        assert_eq!(hunt.mix.contract, 0.0, "contracts would churn the kernel cache away");
        assert!(hunt.zipf_exponent > timeline.phases[0].zipf_exponent, "traffic pins the whale");
        // Ramp/cool keep the caller's mix.
        assert_eq!(timeline.phases[0].mix, ActionMix::default());
        assert_eq!(timeline.phases[2].mix, ActionMix::default());

        // whale_n swaps g000 for the huge sparse graph — and only g000:
        // the other specs (one seed draw each) are byte-identical.
        let cfg = WorkloadConfig { ops: 0, graphs: 4, seed: 11, ..WorkloadConfig::default() };
        let whale_cfg = WorkloadConfig { whale_n: 300, ..cfg.clone() };
        let small = Timeline::whale(400, 20_000.0, ActionMix::default(), 1.1);
        let plain = Workload::generate_timeline(&cfg, &small);
        let whaled = Workload::generate_timeline(&whale_cfg, &small);
        assert!(matches!(
            &whaled.prologue[0],
            Request::Create { spec: GraphSpec::ConnectedGnm { n: 300, m: 330, .. }, .. }
        ));
        assert_ne!(plain.prologue[0], whaled.prologue[0]);
        assert_eq!(plain.prologue[1..], whaled.prologue[1..]);
        // Deterministic generation, like every preset.
        let again = Workload::generate_timeline(&whale_cfg, &small);
        assert_eq!(whaled, again);
    }

    #[test]
    fn trace_round_trip_is_lossless_for_generated_workloads() {
        let cfg = WorkloadConfig { ops: 0, graphs: 5, seed: 9, ..WorkloadConfig::default() };
        let timeline = Timeline::bursty(400, 50_000.0, ActionMix::write_heavy(), 1.2);
        let wl = Workload::generate_timeline(&cfg, &timeline);
        let back = Workload::from_trace(&wl.to_trace()).expect("trace parses");
        assert_eq!(back, wl);

        // Closed-loop workloads round-trip too (no timestamps).
        let closed = Workload::generate(&WorkloadConfig { ops: 120, ..WorkloadConfig::default() });
        let back = Workload::from_trace(&closed.to_trace()).expect("trace parses");
        assert_eq!(back, closed);
    }

    #[test]
    fn trace_round_trips_drops_odd_names_and_manual_streams() {
        // Traces cover the full request surface — including drops and
        // names with spaces/percents — not just generator output, so a
        // drift landing on a graph the stream later drops replays
        // faithfully.
        let wl = Workload {
            prologue: vec![Request::Create {
                name: "odd name %20".into(),
                spec: GraphSpec::Edges { n: 3, edges: vec![(0, 1, 4), (1, 2, 7)] },
            }],
            operations: vec![
                Request::Query { name: "odd name %20".into(), query: Query::ExactMinCut },
                Request::Drop { name: "odd name %20".into() },
                Request::Query { name: "odd name %20".into(), query: Query::Connectivity },
                Request::ListGraphs,
                Request::Stats,
            ],
            arrivals: vec![10, 20, 30, 40, 50],
            phases: vec![("flash %".to_string(), 5)],
        };
        let back = Workload::from_trace(&wl.to_trace()).expect("trace parses");
        assert_eq!(back, wl);
    }

    #[test]
    fn from_trace_rejects_corruption() {
        let cfg = WorkloadConfig { ops: 30, ..WorkloadConfig::default() };
        let trace = Workload::generate(&cfg).to_trace();
        // Garbage header.
        assert!(Workload::from_trace("not-a-trace v9\n").is_err());
        // Truncation (count mismatch).
        let truncated: String =
            trace.lines().take(trace.lines().count() - 1).map(|l| format!("{l}\n")).collect();
        assert!(Workload::from_trace(&truncated).is_err());
        // A mangled op line.
        let mangled = trace.replace("o 0 ", "o zero ");
        assert!(Workload::from_trace(&mangled).is_err());
        // A phase table that doesn't cover the operations.
        let short_phase = trace.replace("f main 30", "f main 3");
        assert!(Workload::from_trace(&short_phase).is_err());
    }
}
