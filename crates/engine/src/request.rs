//! The engine's wire types: graph specifications, mutations, queries, and
//! responses.
//!
//! Everything is plain data with a deterministic [`std::fmt::Display`] so a
//! sequence of `(Request, Response)` pairs can be logged and byte-compared
//! across runs — the stress harness's determinism check relies on this.

use std::fmt;

use cut_graph::{Edge, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// How to build a named graph.
///
/// Generator variants carry their seed, so a spec is a *value*: the engine
/// and the workload generator materialize identical graphs from equal
/// specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// Explicit weighted edge list on `n` vertices.
    Edges {
        /// Vertex count.
        n: usize,
        /// `(u, v, w)` triples.
        edges: Vec<(u32, u32, u64)>,
    },
    /// Seeded `G(n, m)` with weights in `[w_min, w_max]`.
    Gnm {
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
        /// Minimum edge weight.
        w_min: u64,
        /// Maximum edge weight.
        w_max: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Seeded connected `G(n, m)` (random spanning tree plus extra edges).
    ConnectedGnm {
        /// Vertex count.
        n: usize,
        /// Edge count (at least `n - 1`).
        m: usize,
        /// Minimum edge weight.
        w_min: u64,
        /// Maximum edge weight.
        w_max: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Two dense halves joined by `cross` unit edges — min cut ≤ `cross`.
    PlantedCut {
        /// Vertices per half.
        half: usize,
        /// Random internal edges per half.
        internal_m: usize,
        /// Crossing edges (the planted cut weight).
        cross: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Unit-weight cycle on `n ≥ 3` vertices (min cut 2).
    Cycle {
        /// Vertex count.
        n: usize,
    },
    /// Seeded uniform random labeled tree (every edge is a min cut of 1).
    RandomTree {
        /// Vertex count.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Materialize the spec into `(n, edges)`.
    ///
    /// Deterministic: equal specs produce identical edge lists, whoever
    /// calls (engine or workload generator).
    pub fn materialize(&self) -> Result<(usize, Vec<Edge>), String> {
        match self {
            GraphSpec::Edges { n, edges } => {
                let mut out = Vec::with_capacity(edges.len());
                for &(u, v, w) in edges {
                    validate_edge(*n, u, v, w)?;
                    out.push(Edge::new(u, v, w));
                }
                Ok((*n, out))
            }
            GraphSpec::Gnm { n, m, w_min, w_max, seed } => {
                if *w_min == 0 || w_min > w_max {
                    return Err(format!("bad weight range [{w_min}, {w_max}]"));
                }
                let mut rng = SmallRng::seed_from_u64(*seed);
                let g = cut_graph::gen::gnm(*n, *m, *w_min..=*w_max, &mut rng);
                Ok((g.n(), g.edges().to_vec()))
            }
            GraphSpec::ConnectedGnm { n, m, w_min, w_max, seed } => {
                if *n < 2 {
                    return Err("connected_gnm needs n >= 2".into());
                }
                if *m + 1 < *n {
                    return Err(format!("connected_gnm needs m >= n-1 ({m} < {})", n - 1));
                }
                if *w_min == 0 || w_min > w_max {
                    return Err(format!("bad weight range [{w_min}, {w_max}]"));
                }
                let mut rng = SmallRng::seed_from_u64(*seed);
                let g = cut_graph::gen::connected_gnm(*n, *m, *w_min..=*w_max, &mut rng);
                Ok((g.n(), g.edges().to_vec()))
            }
            GraphSpec::PlantedCut { half, internal_m, cross, seed } => {
                if *half < 2 {
                    return Err("planted_cut needs half >= 2".into());
                }
                let mut rng = SmallRng::seed_from_u64(*seed);
                let g = cut_graph::gen::planted_cut(*half, *internal_m, *cross, &mut rng);
                Ok((g.n(), g.edges().to_vec()))
            }
            GraphSpec::Cycle { n } => {
                if *n < 3 {
                    return Err("cycle needs n >= 3".into());
                }
                let g = cut_graph::gen::cycle(*n);
                Ok((g.n(), g.edges().to_vec()))
            }
            GraphSpec::RandomTree { n, seed } => {
                let mut rng = SmallRng::seed_from_u64(*seed);
                let g = cut_graph::gen::random_tree(*n, &mut rng);
                Ok((g.n(), g.edges().to_vec()))
            }
        }
    }

    /// Materialize straight to a [`Graph`].
    pub fn build(&self) -> Result<Graph, String> {
        let (n, edges) = self.materialize()?;
        Ok(Graph::new_unchecked(n, edges))
    }
}

fn validate_edge(n: usize, u: u32, v: u32, w: u64) -> Result<(), String> {
    if u as usize >= n || v as usize >= n {
        return Err(format!("edge ({u}, {v}) out of range for n = {n}"));
    }
    if u == v {
        return Err(format!("self-loop at vertex {u}"));
    }
    if w == 0 {
        return Err(format!("zero-weight edge ({u}, {v})"));
    }
    Ok(())
}

/// A change to a registered graph. Every applied mutation bumps the
/// graph's epoch, invalidating cached query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Add a weighted edge (parallel edges are allowed).
    InsertEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// Positive weight.
        w: u64,
    },
    /// Remove one edge between `u` and `v` (the first match; fails if no
    /// such edge exists).
    DeleteEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
    /// Merge vertex `v` into vertex `u`: parallel edges between the merged
    /// vertex and any neighbor are combined (weights summed), self-loops
    /// drop, and vertex ids above `v` shift down by one.
    ContractVertices {
        /// Surviving vertex.
        u: u32,
        /// Vertex merged away.
        v: u32,
    },
}

/// New id of vertex `x` after contracting `v` into `u`: `v` maps to `u`,
/// and every id above `v` shifts down by one. The single source of truth
/// for contraction relabeling — the engine and the workload generator's
/// mirror both use it, so they cannot drift.
pub fn contract_relabel(u: u32, v: u32, x: u32) -> u32 {
    let x = if x == v { u } else { x };
    if x > v {
        x - 1
    } else {
        x
    }
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::InsertEdge { u, v, w } => write!(f, "insert({u},{v},w={w})"),
            Mutation::DeleteEdge { u, v } => write!(f, "delete({u},{v})"),
            Mutation::ContractVertices { u, v } => write!(f, "contract({u}<-{v})"),
        }
    }
}

/// A read against a registered graph. `Hash + Eq` so results cache by
/// query value; every parameter is an integer so keys are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// `(2+ε)`-approximate global min cut (the paper's Algorithm 1,
    /// reference engine) under the engine's configured ε.
    ApproxMinCut {
        /// Contraction seed.
        seed: u64,
    },
    /// Exact global min cut (Stoer–Wagner).
    ExactMinCut,
    /// Smallest singleton cut of the contraction process (Algorithm 3).
    SingletonCut {
        /// Priority seed.
        seed: u64,
    },
    /// `(4+ε)`-approximate min k-cut (Algorithm 4).
    KCut {
        /// Number of parts.
        k: usize,
    },
    /// Connected components count.
    Connectivity,
    /// Exact minimum s-t cut weight (Dinic max-flow).
    StCutWeight {
        /// Source.
        s: u32,
        /// Sink.
        t: u32,
    },
}

/// The [`Query::kind`] labels, indexed by [`Query::kind_index`] — the
/// shared axis for per-action counters (e.g. the engine's snapshot
/// build/reuse accounting).
pub const QUERY_KINDS: [&str; 6] =
    ["approx-min-cut", "exact-min-cut", "singleton-cut", "k-cut", "connectivity", "st-cut"];

impl Query {
    /// Short stable label for per-action reporting.
    pub fn kind(&self) -> &'static str {
        QUERY_KINDS[self.kind_index()]
    }

    /// Position of this query's kind in [`QUERY_KINDS`] — the index for
    /// fixed-size per-action counter arrays.
    pub fn kind_index(&self) -> usize {
        match self {
            Query::ApproxMinCut { .. } => 0,
            Query::ExactMinCut => 1,
            Query::SingletonCut { .. } => 2,
            Query::KCut { .. } => 3,
            Query::Connectivity => 4,
            Query::StCutWeight { .. } => 5,
        }
    }

    /// True for the query kinds the engine's certificate gate covers:
    /// expensive cut computations whose stale cached answers can
    /// sometimes be proven still exact (partition unchanged + answer a
    /// pure function of the partition) and carried instead of recomputed.
    /// These are the kinds `cut_recomputes` / `cut_certified_skips`
    /// count.
    pub fn is_certificate_gated(&self) -> bool {
        matches!(self, Query::ExactMinCut | Query::ApproxMinCut { .. } | Query::StCutWeight { .. })
    }

    /// Relative serve-cost weight of this query — the **serve-time proxy**
    /// behind residency heat under [`EngineConfig::resident_cap`]
    /// (`docs/DURABILITY.md`). The scale is arbitrary; only ratios matter.
    /// Deliberately coarse: a cache hit costs far less than these weights
    /// suggest, which the spiller tolerates because it ranks graphs by
    /// *relative* heat, not absolute cost.
    ///
    /// [`EngineConfig::resident_cap`]: crate::EngineConfig::resident_cap
    pub fn cost_weight(&self) -> u64 {
        match self {
            // O(1) dynamic-forest read: near-free.
            Query::Connectivity => 1,
            // One Dinic run / one priority sweep.
            Query::StCutWeight { .. } | Query::SingletonCut { .. } => 6,
            // Contraction engine with repetitions.
            Query::ApproxMinCut { .. } => 8,
            // Stoer–Wagner over the whole graph.
            Query::ExactMinCut => 10,
            // Recursive splitting, the heaviest served query.
            Query::KCut { .. } => 12,
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::ApproxMinCut { seed } => write!(f, "approx-min-cut(seed={seed})"),
            Query::ExactMinCut => write!(f, "exact-min-cut"),
            Query::SingletonCut { seed } => write!(f, "singleton-cut(seed={seed})"),
            Query::KCut { k } => write!(f, "k-cut(k={k})"),
            Query::Connectivity => write!(f, "connectivity"),
            Query::StCutWeight { s, t } => write!(f, "st-cut({s},{t})"),
        }
    }
}

/// Percent-encode the characters that would break the whitespace-delimited
/// trace format: `%` itself, spaces, tabs, newlines. Graph names the
/// workload generator emits (`g000`, …) pass through unchanged. The empty
/// name gets the sentinel `%-` (which no non-empty name can encode to,
/// since a literal `%` always escapes to `%25`).
pub(crate) fn encode_name(name: &str) -> String {
    if name.is_empty() {
        return "%-".to_string();
    }
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            other => out.push(other),
        }
    }
    out
}

/// Invert [`encode_name`].
pub(crate) fn decode_name(token: &str) -> Result<String, String> {
    if token == "%-" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next().ok_or("truncated %-escape in name")?;
        let lo = chars.next().ok_or("truncated %-escape in name")?;
        let byte = u8::from_str_radix(&format!("{hi}{lo}"), 16)
            .map_err(|_| format!("bad %-escape '%{hi}{lo}' in name"))?;
        out.push(byte as char);
    }
    Ok(out)
}

/// Most list items a parser reserves room for up front. Counts come from
/// the line being parsed, that is from a client, so a larger count must
/// not allocate before its items actually arrive.
pub(crate) const MAX_PREALLOC: usize = 1 << 16;

/// Pull the next whitespace token, or error with context.
fn next_tok<'a>(tokens: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, String> {
    tokens.next().ok_or_else(|| format!("trace line ended early: expected {what}"))
}

/// Parse the next token as an integer/float, or error with context.
fn parse_tok<'a, T: std::str::FromStr>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    let tok = next_tok(tokens, what)?;
    tok.parse().map_err(|_| format!("bad {what} '{tok}' in trace line"))
}

impl GraphSpec {
    /// Serialize to the trace token form (see [`Request::to_trace_line`]).
    fn to_trace_tokens(&self) -> String {
        match self {
            GraphSpec::Edges { n, edges } => {
                let mut s = format!("edges {n} {}", edges.len());
                for &(u, v, w) in edges {
                    s.push_str(&format!(" {u}:{v}:{w}"));
                }
                s
            }
            GraphSpec::Gnm { n, m, w_min, w_max, seed } => {
                format!("gnm {n} {m} {w_min} {w_max} {seed}")
            }
            GraphSpec::ConnectedGnm { n, m, w_min, w_max, seed } => {
                format!("cgnm {n} {m} {w_min} {w_max} {seed}")
            }
            GraphSpec::PlantedCut { half, internal_m, cross, seed } => {
                format!("planted {half} {internal_m} {cross} {seed}")
            }
            GraphSpec::Cycle { n } => format!("cycle {n}"),
            GraphSpec::RandomTree { n, seed } => format!("tree {n} {seed}"),
        }
    }

    /// Parse the token form produced by [`GraphSpec::to_trace_tokens`].
    fn from_trace_tokens<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Result<Self, String> {
        match next_tok(tokens, "graph spec kind")? {
            "edges" => {
                let n = parse_tok(tokens, "edges n")?;
                let m: usize = parse_tok(tokens, "edges m")?;
                let mut edges = Vec::with_capacity(m.min(MAX_PREALLOC));
                for _ in 0..m {
                    let triple = next_tok(tokens, "u:v:w edge triple")?;
                    let mut parts = triple.split(':');
                    let mut field = |what: &str| -> Result<&str, String> {
                        parts.next().ok_or_else(|| format!("bad edge triple '{triple}': {what}"))
                    };
                    let u = field("u")?.parse().map_err(|_| format!("bad u in '{triple}'"))?;
                    let v = field("v")?.parse().map_err(|_| format!("bad v in '{triple}'"))?;
                    let w = field("w")?.parse().map_err(|_| format!("bad w in '{triple}'"))?;
                    edges.push((u, v, w));
                }
                Ok(GraphSpec::Edges { n, edges })
            }
            "gnm" => Ok(GraphSpec::Gnm {
                n: parse_tok(tokens, "gnm n")?,
                m: parse_tok(tokens, "gnm m")?,
                w_min: parse_tok(tokens, "gnm w_min")?,
                w_max: parse_tok(tokens, "gnm w_max")?,
                seed: parse_tok(tokens, "gnm seed")?,
            }),
            "cgnm" => Ok(GraphSpec::ConnectedGnm {
                n: parse_tok(tokens, "cgnm n")?,
                m: parse_tok(tokens, "cgnm m")?,
                w_min: parse_tok(tokens, "cgnm w_min")?,
                w_max: parse_tok(tokens, "cgnm w_max")?,
                seed: parse_tok(tokens, "cgnm seed")?,
            }),
            "planted" => Ok(GraphSpec::PlantedCut {
                half: parse_tok(tokens, "planted half")?,
                internal_m: parse_tok(tokens, "planted internal_m")?,
                cross: parse_tok(tokens, "planted cross")?,
                seed: parse_tok(tokens, "planted seed")?,
            }),
            "cycle" => Ok(GraphSpec::Cycle { n: parse_tok(tokens, "cycle n")? }),
            "tree" => Ok(GraphSpec::RandomTree {
                n: parse_tok(tokens, "tree n")?,
                seed: parse_tok(tokens, "tree seed")?,
            }),
            other => Err(format!("unknown graph spec kind '{other}'")),
        }
    }
}

/// One operation against the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a graph under `name` (fails if the name is taken).
    Create {
        /// Registry key.
        name: String,
        /// How to build it.
        spec: GraphSpec,
    },
    /// Remove a graph and its cache.
    Drop {
        /// Registry key.
        name: String,
    },
    /// Mutate a graph.
    Mutate {
        /// Registry key.
        name: String,
        /// The change.
        op: Mutation,
    },
    /// Query a graph (answers are cached per mutation epoch).
    Query {
        /// Registry key.
        name: String,
        /// The question.
        query: Query,
    },
    /// List registered graph names (sorted).
    ListGraphs,
    /// Engine-level counters.
    Stats,
    /// Merged telemetry registry snapshot (`stats metrics` on the wire).
    /// Broadcast with the same barrier semantics as [`Request::Stats`].
    Metrics,
    /// Merged slow-query log (`stats slowlog` on the wire). Broadcast
    /// like [`Request::Stats`].
    Slowlog,
}

impl Request {
    /// Short stable label for per-action reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Create { .. } => "create",
            Request::Drop { .. } => "drop",
            Request::Mutate { op: Mutation::InsertEdge { .. }, .. } => "insert-edge",
            Request::Mutate { op: Mutation::DeleteEdge { .. }, .. } => "delete-edge",
            Request::Mutate { op: Mutation::ContractVertices { .. }, .. } => "contract",
            Request::Query { query, .. } => query.kind(),
            Request::ListGraphs => "list",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Slowlog => "slowlog",
        }
    }

    /// Serialize to one line of the workload trace format — a lossless,
    /// whitespace-delimited encoding (unlike [`std::fmt::Display`], which
    /// abbreviates graph specs for log compactness). Graph names are
    /// percent-encoded, so any name round-trips.
    ///
    /// # Examples
    ///
    /// ```
    /// use cut_engine::{Query, Request};
    ///
    /// let req = Request::Query { name: "g000".into(), query: Query::StCutWeight { s: 2, t: 9 } };
    /// let line = req.to_trace_line();
    /// assert_eq!(line, "stcut g000 2 9");
    /// assert_eq!(Request::from_trace_line(&line), Ok(req));
    /// ```
    pub fn to_trace_line(&self) -> String {
        match self {
            Request::Create { name, spec } => {
                format!("create {} {}", encode_name(name), spec.to_trace_tokens())
            }
            Request::Drop { name } => format!("drop {}", encode_name(name)),
            Request::Mutate { name, op } => {
                let name = encode_name(name);
                match op {
                    Mutation::InsertEdge { u, v, w } => format!("insert {name} {u} {v} {w}"),
                    Mutation::DeleteEdge { u, v } => format!("delete {name} {u} {v}"),
                    Mutation::ContractVertices { u, v } => format!("contract {name} {u} {v}"),
                }
            }
            Request::Query { name, query } => {
                let name = encode_name(name);
                match query {
                    Query::ApproxMinCut { seed } => format!("approx {name} {seed}"),
                    Query::ExactMinCut => format!("exact {name}"),
                    Query::SingletonCut { seed } => format!("singleton {name} {seed}"),
                    Query::KCut { k } => format!("kcut {name} {k}"),
                    Query::Connectivity => format!("conn {name}"),
                    Query::StCutWeight { s, t } => format!("stcut {name} {s} {t}"),
                }
            }
            Request::ListGraphs => "list".to_string(),
            Request::Stats => "stats".to_string(),
            // Sub-commands of `stats`; a tab types the separator as easily
            // as a space, so `stats\tmetrics` on a socket works verbatim.
            Request::Metrics => "stats metrics".to_string(),
            Request::Slowlog => "stats slowlog".to_string(),
        }
    }

    /// Parse one line produced by [`Request::to_trace_line`]. Inverse of
    /// serialization: `from_trace_line(&r.to_trace_line()) == Ok(r)` for
    /// every request.
    pub fn from_trace_line(line: &str) -> Result<Request, String> {
        let mut tokens = line.split_whitespace();
        let kind = next_tok(&mut tokens, "request kind")?;
        let name = |tokens: &mut std::str::SplitWhitespace| -> Result<String, String> {
            decode_name(next_tok(tokens, "graph name")?)
        };
        let request = match kind {
            "create" => {
                let name = name(&mut tokens)?;
                let spec = GraphSpec::from_trace_tokens(&mut tokens)?;
                Request::Create { name, spec }
            }
            "drop" => Request::Drop { name: name(&mut tokens)? },
            "insert" => Request::Mutate {
                name: name(&mut tokens)?,
                op: Mutation::InsertEdge {
                    u: parse_tok(&mut tokens, "insert u")?,
                    v: parse_tok(&mut tokens, "insert v")?,
                    w: parse_tok(&mut tokens, "insert w")?,
                },
            },
            "delete" => Request::Mutate {
                name: name(&mut tokens)?,
                op: Mutation::DeleteEdge {
                    u: parse_tok(&mut tokens, "delete u")?,
                    v: parse_tok(&mut tokens, "delete v")?,
                },
            },
            "contract" => Request::Mutate {
                name: name(&mut tokens)?,
                op: Mutation::ContractVertices {
                    u: parse_tok(&mut tokens, "contract u")?,
                    v: parse_tok(&mut tokens, "contract v")?,
                },
            },
            "approx" => Request::Query {
                name: name(&mut tokens)?,
                query: Query::ApproxMinCut { seed: parse_tok(&mut tokens, "approx seed")? },
            },
            "exact" => Request::Query { name: name(&mut tokens)?, query: Query::ExactMinCut },
            "singleton" => Request::Query {
                name: name(&mut tokens)?,
                query: Query::SingletonCut { seed: parse_tok(&mut tokens, "singleton seed")? },
            },
            "kcut" => Request::Query {
                name: name(&mut tokens)?,
                query: Query::KCut { k: parse_tok(&mut tokens, "kcut k")? },
            },
            "conn" => Request::Query { name: name(&mut tokens)?, query: Query::Connectivity },
            "stcut" => Request::Query {
                name: name(&mut tokens)?,
                query: Query::StCutWeight {
                    s: parse_tok(&mut tokens, "stcut s")?,
                    t: parse_tok(&mut tokens, "stcut t")?,
                },
            },
            "list" => Request::ListGraphs,
            "stats" => {
                // Optional sub-command selects an introspection snapshot;
                // bare `stats` keeps its original meaning. An unknown
                // trailing word falls through to the trailing-token error.
                let mut peek = tokens.clone();
                match peek.next() {
                    Some("metrics") => {
                        tokens.next();
                        Request::Metrics
                    }
                    Some("slowlog") => {
                        tokens.next();
                        Request::Slowlog
                    }
                    _ => Request::Stats,
                }
            }
            other => return Err(format!("unknown request kind '{other}'")),
        };
        if let Some(extra) = tokens.next() {
            return Err(format!("trailing token '{extra}' after {kind} request"));
        }
        Ok(request)
    }

    /// Relative serve-cost weight of this request (see
    /// [`Query::cost_weight`]): what the engine charges a graph's
    /// residency heat per named request.
    pub fn cost_weight(&self) -> u64 {
        match self {
            // Graph materialization plus index construction.
            Request::Create { .. } => 4,
            // Edge-list edit plus index notification.
            Request::Mutate { .. } => 2,
            // Registry removal / registry scans / telemetry snapshots: cheap.
            Request::Drop { .. }
            | Request::ListGraphs
            | Request::Stats
            | Request::Metrics
            | Request::Slowlog => 1,
            Request::Query { query, .. } => query.cost_weight(),
        }
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Create { name, spec } => {
                // Specs log by shape, not full edge lists (logs stay small).
                let shape = match spec {
                    GraphSpec::Edges { n, edges } => format!("edges(n={n},m={})", edges.len()),
                    GraphSpec::Gnm { n, m, seed, .. } => format!("gnm(n={n},m={m},seed={seed})"),
                    GraphSpec::ConnectedGnm { n, m, seed, .. } => {
                        format!("cgnm(n={n},m={m},seed={seed})")
                    }
                    GraphSpec::PlantedCut { half, internal_m, cross, seed } => {
                        format!("planted(half={half},m={internal_m},cross={cross},seed={seed})")
                    }
                    GraphSpec::Cycle { n } => format!("cycle(n={n})"),
                    GraphSpec::RandomTree { n, seed } => format!("tree(n={n},seed={seed})"),
                };
                write!(f, "create {name} {shape}")
            }
            Request::Drop { name } => write!(f, "drop {name}"),
            Request::Mutate { name, op } => write!(f, "mutate {name} {op}"),
            Request::Query { name, query } => write!(f, "query {name} {query}"),
            Request::ListGraphs => write!(f, "list-graphs"),
            Request::Stats => write!(f, "stats"),
            Request::Metrics => write!(f, "stats-metrics"),
            Request::Slowlog => write!(f, "stats-slowlog"),
        }
    }
}

/// The engine's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Graph registered.
    Created {
        /// Registry key.
        name: String,
        /// Vertex count.
        n: usize,
        /// Edge count.
        m: usize,
    },
    /// Graph removed.
    Dropped {
        /// Registry key.
        name: String,
    },
    /// Mutation applied.
    Mutated {
        /// Registry key.
        name: String,
        /// Epoch after the mutation.
        epoch: u64,
        /// Vertex count after the mutation.
        n: usize,
        /// Edge count after the mutation.
        m: usize,
    },
    /// A cut-valued answer (min cut, singleton cut, s-t cut).
    CutValue {
        /// Cut weight.
        weight: u64,
        /// Size of the realizing side (0 when the query reports only a
        /// weight, e.g. s-t cuts).
        side_size: usize,
        /// Served from the epoch cache.
        cached: bool,
    },
    /// A k-cut answer.
    KCutValue {
        /// Total crossing weight.
        weight: u64,
        /// Number of parts.
        parts: usize,
        /// Served from the epoch cache.
        cached: bool,
    },
    /// A connectivity answer.
    ConnectivityValue {
        /// Connected-component count.
        components: usize,
        /// Served from the epoch cache.
        cached: bool,
    },
    /// Registered graph names, sorted.
    Graphs {
        /// Registry keys.
        names: Vec<String>,
    },
    /// Engine-level counters snapshot.
    EngineStats {
        /// Registered graphs.
        graphs: usize,
        /// Queries served.
        queries: u64,
        /// Cache hits.
        cache_hits: u64,
        /// Cache misses.
        cache_misses: u64,
        /// Mutations applied.
        mutations: u64,
    },
    /// Merged telemetry registry snapshot (answer to [`Request::Metrics`]).
    Metrics {
        /// `cut-metrics/1` single-line wire form (see
        /// `cut_obs::Registry::to_wire`); render with
        /// `Registry::from_wire` + `render_text`/`render_json`.
        snapshot: String,
    },
    /// Merged slow-query log (answer to [`Request::Slowlog`]).
    Slowlog {
        /// `cut-slowlog/1` single-line wire form (see
        /// `cut_obs::SlowLog::to_wire`).
        snapshot: String,
    },
    /// The request failed; the engine state is unchanged.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// Parse the next token as a strict `0`/`1` boolean (the trace encoding of
/// `cached` flags). Anything else — including `true`/`false` — is rejected,
/// so a corrupted line cannot silently flip a flag.
fn parse_bool_tok<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<bool, String> {
    match next_tok(tokens, what)? {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad {what} '{other}' in trace line (want 0 or 1)")),
    }
}

impl Response {
    /// Serialize to one line of the wire/trace format — the lossless
    /// counterpart of [`Request::to_trace_line`], and the encoding
    /// `cut-server` puts on the socket. Graph names and error messages are
    /// percent-encoded, so any response round-trips byte-exactly; in
    /// particular `from_trace_line(&r.to_trace_line()) == Ok(r)` and the
    /// decoded response's [`std::fmt::Display`] (the operation-log form the
    /// stress digest hashes) is identical to the original's.
    ///
    /// # Examples
    ///
    /// ```
    /// use cut_engine::Response;
    ///
    /// let resp = Response::CutValue { weight: 7, side_size: 3, cached: true };
    /// let line = resp.to_trace_line();
    /// assert_eq!(line, "cut 7 3 1");
    /// assert_eq!(Response::from_trace_line(&line), Ok(resp));
    /// ```
    pub fn to_trace_line(&self) -> String {
        match self {
            Response::Created { name, n, m } => format!("created {} {n} {m}", encode_name(name)),
            Response::Dropped { name } => format!("dropped {}", encode_name(name)),
            Response::Mutated { name, epoch, n, m } => {
                format!("mutated {} {epoch} {n} {m}", encode_name(name))
            }
            Response::CutValue { weight, side_size, cached } => {
                format!("cut {weight} {side_size} {}", *cached as u8)
            }
            Response::KCutValue { weight, parts, cached } => {
                format!("kcut {weight} {parts} {}", *cached as u8)
            }
            Response::ConnectivityValue { components, cached } => {
                format!("conn {components} {}", *cached as u8)
            }
            Response::Graphs { names } => {
                let mut s = format!("graphs {}", names.len());
                for name in names {
                    s.push(' ');
                    s.push_str(&encode_name(name));
                }
                s
            }
            Response::EngineStats { graphs, queries, cache_hits, cache_misses, mutations } => {
                format!("stats {graphs} {queries} {cache_hits} {cache_misses} {mutations}")
            }
            Response::Metrics { snapshot } => format!("metrics {}", encode_name(snapshot)),
            Response::Slowlog { snapshot } => format!("slowlog {}", encode_name(snapshot)),
            Response::Error { message } => format!("error {}", encode_name(message)),
        }
    }

    /// Parse one line produced by [`Response::to_trace_line`]. Strict, like
    /// the request parser: unknown kinds, truncated headers, missing
    /// fields, malformed booleans, and trailing tokens are all errors —
    /// this is the wire format, so a garbled line must surface as a typed
    /// protocol error, never as a silently wrong answer.
    pub fn from_trace_line(line: &str) -> Result<Response, String> {
        let mut tokens = line.split_whitespace();
        let kind = next_tok(&mut tokens, "response kind")?;
        let name = |tokens: &mut std::str::SplitWhitespace| -> Result<String, String> {
            decode_name(next_tok(tokens, "graph name")?)
        };
        let response = match kind {
            "created" => Response::Created {
                name: name(&mut tokens)?,
                n: parse_tok(&mut tokens, "created n")?,
                m: parse_tok(&mut tokens, "created m")?,
            },
            "dropped" => Response::Dropped { name: name(&mut tokens)? },
            "mutated" => Response::Mutated {
                name: name(&mut tokens)?,
                epoch: parse_tok(&mut tokens, "mutated epoch")?,
                n: parse_tok(&mut tokens, "mutated n")?,
                m: parse_tok(&mut tokens, "mutated m")?,
            },
            "cut" => Response::CutValue {
                weight: parse_tok(&mut tokens, "cut weight")?,
                side_size: parse_tok(&mut tokens, "cut side size")?,
                cached: parse_bool_tok(&mut tokens, "cut cached flag")?,
            },
            "kcut" => Response::KCutValue {
                weight: parse_tok(&mut tokens, "kcut weight")?,
                parts: parse_tok(&mut tokens, "kcut parts")?,
                cached: parse_bool_tok(&mut tokens, "kcut cached flag")?,
            },
            "conn" => Response::ConnectivityValue {
                components: parse_tok(&mut tokens, "connectivity components")?,
                cached: parse_bool_tok(&mut tokens, "connectivity cached flag")?,
            },
            "graphs" => {
                let count: usize = parse_tok(&mut tokens, "graphs count")?;
                let mut names = Vec::with_capacity(count.min(MAX_PREALLOC));
                for _ in 0..count {
                    names.push(name(&mut tokens)?);
                }
                Response::Graphs { names }
            }
            "stats" => Response::EngineStats {
                graphs: parse_tok(&mut tokens, "stats graphs")?,
                queries: parse_tok(&mut tokens, "stats queries")?,
                cache_hits: parse_tok(&mut tokens, "stats cache hits")?,
                cache_misses: parse_tok(&mut tokens, "stats cache misses")?,
                mutations: parse_tok(&mut tokens, "stats mutations")?,
            },
            "metrics" => Response::Metrics { snapshot: name(&mut tokens)? },
            "slowlog" => Response::Slowlog { snapshot: name(&mut tokens)? },
            "error" => Response::Error { message: name(&mut tokens)? },
            other => return Err(format!("unknown response kind '{other}'")),
        };
        if let Some(extra) = tokens.next() {
            return Err(format!("trailing token '{extra}' after {kind} response"));
        }
        Ok(response)
    }

    /// True when this response was served from the query cache.
    pub fn was_cached(&self) -> bool {
        matches!(
            self,
            Response::CutValue { cached: true, .. }
                | Response::KCutValue { cached: true, .. }
                | Response::ConnectivityValue { cached: true, .. }
        )
    }

    /// The same response with its `cached` flag set.
    pub(crate) fn as_cached(&self) -> Response {
        let mut r = self.clone();
        match &mut r {
            Response::CutValue { cached, .. }
            | Response::KCutValue { cached, .. }
            | Response::ConnectivityValue { cached, .. } => *cached = true,
            _ => {}
        }
        r
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Created { name, n, m } => write!(f, "created {name} n={n} m={m}"),
            Response::Dropped { name } => write!(f, "dropped {name}"),
            Response::Mutated { name, epoch, n, m } => {
                write!(f, "mutated {name} epoch={epoch} n={n} m={m}")
            }
            Response::CutValue { weight, side_size, cached } => {
                write!(f, "cut weight={weight} side={side_size} cached={cached}")
            }
            Response::KCutValue { weight, parts, cached } => {
                write!(f, "kcut weight={weight} parts={parts} cached={cached}")
            }
            Response::ConnectivityValue { components, cached } => {
                write!(f, "connectivity components={components} cached={cached}")
            }
            Response::Graphs { names } => write!(f, "graphs [{}]", names.join(", ")),
            Response::EngineStats { graphs, queries, cache_hits, cache_misses, mutations } => {
                write!(
                    f,
                    "stats graphs={graphs} queries={queries} hits={cache_hits} \
                     misses={cache_misses} mutations={mutations}"
                )
            }
            // Telemetry snapshots log whole: they are on-demand diagnostic
            // dumps, never part of a digest-compared stream.
            Response::Metrics { snapshot } => write!(f, "metrics {snapshot}"),
            Response::Slowlog { snapshot } => write!(f, "slowlog {snapshot}"),
            Response::Error { message } => write!(f, "error: {message}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_weights_order_by_algorithmic_heft() {
        // The proxy only needs sane ratios: connectivity (O(1) read)
        // cheapest, k-cut (recursive splitting) dearest, mutations between.
        let connectivity = Request::Query { name: "g".into(), query: Query::Connectivity };
        let kcut = Request::Query { name: "g".into(), query: Query::KCut { k: 3 } };
        let exact = Request::Query { name: "g".into(), query: Query::ExactMinCut };
        let mutate =
            Request::Mutate { name: "g".into(), op: Mutation::InsertEdge { u: 0, v: 1, w: 1 } };
        assert!(connectivity.cost_weight() < mutate.cost_weight());
        assert!(mutate.cost_weight() < exact.cost_weight());
        assert!(exact.cost_weight() < kcut.cost_weight());
        assert_eq!(Request::ListGraphs.cost_weight(), Request::Stats.cost_weight());
        // Every request kind has a positive weight (a zero weight would
        // leave a busy graph cold to the spiller).
        for q in [
            Query::ApproxMinCut { seed: 0 },
            Query::ExactMinCut,
            Query::SingletonCut { seed: 0 },
            Query::KCut { k: 2 },
            Query::Connectivity,
            Query::StCutWeight { s: 0, t: 1 },
        ] {
            assert!(q.cost_weight() > 0, "{q} must cost something");
        }
    }

    #[test]
    fn trace_lines_round_trip_every_request_shape() {
        let requests = vec![
            Request::Create {
                name: "g".into(),
                spec: GraphSpec::Edges { n: 4, edges: vec![(0, 1, 9), (2, 3, 1)] },
            },
            Request::Create { name: "g".into(), spec: GraphSpec::Edges { n: 2, edges: vec![] } },
            Request::Create {
                name: "g".into(),
                spec: GraphSpec::Gnm { n: 10, m: 20, w_min: 1, w_max: 5, seed: 42 },
            },
            Request::Create {
                name: "g".into(),
                spec: GraphSpec::ConnectedGnm { n: 10, m: 20, w_min: 2, w_max: 7, seed: u64::MAX },
            },
            Request::Create {
                name: "g".into(),
                spec: GraphSpec::PlantedCut { half: 8, internal_m: 30, cross: 3, seed: 7 },
            },
            Request::Create { name: "g".into(), spec: GraphSpec::Cycle { n: 9 } },
            Request::Create { name: "g".into(), spec: GraphSpec::RandomTree { n: 12, seed: 3 } },
            Request::Drop { name: "g".into() },
            Request::Mutate { name: "g".into(), op: Mutation::InsertEdge { u: 0, v: 7, w: 16 } },
            Request::Mutate { name: "g".into(), op: Mutation::DeleteEdge { u: 3, v: 1 } },
            Request::Mutate { name: "g".into(), op: Mutation::ContractVertices { u: 2, v: 5 } },
            Request::Query { name: "g".into(), query: Query::ApproxMinCut { seed: 11 } },
            Request::Query { name: "g".into(), query: Query::ExactMinCut },
            Request::Query { name: "g".into(), query: Query::SingletonCut { seed: 0 } },
            Request::Query { name: "g".into(), query: Query::KCut { k: 3 } },
            Request::Query { name: "g".into(), query: Query::Connectivity },
            Request::Query { name: "g".into(), query: Query::StCutWeight { s: 1, t: 8 } },
            Request::ListGraphs,
            Request::Stats,
            Request::Metrics,
            Request::Slowlog,
        ];
        for req in requests {
            let line = req.to_trace_line();
            assert_eq!(Request::from_trace_line(&line), Ok(req.clone()), "line: {line}");
        }
    }

    #[test]
    fn stats_subcommands_parse_with_any_whitespace_separator() {
        // The protocol docs advertise `stats\tmetrics`; the codec
        // tokenizes on any whitespace, so tab and space both work.
        assert_eq!(Request::from_trace_line("stats\tmetrics"), Ok(Request::Metrics));
        assert_eq!(Request::from_trace_line("stats metrics"), Ok(Request::Metrics));
        assert_eq!(Request::from_trace_line("stats\tslowlog"), Ok(Request::Slowlog));
        assert_eq!(Request::from_trace_line("stats"), Ok(Request::Stats));
        assert!(Request::from_trace_line("stats bogus").is_err());
        assert!(Request::from_trace_line("stats metrics extra").is_err());
    }

    #[test]
    fn trace_names_escape_whitespace_and_percent() {
        for name in ["plain", "two words", "tab\there", "line\nbreak", "100%", "%20", "", "%-"] {
            let req = Request::Drop { name: name.to_string() };
            let line = req.to_trace_line();
            assert!(!line.trim_end().contains('\n'), "encoded line must stay one line: {line:?}");
            assert_eq!(Request::from_trace_line(&line), Ok(req), "name: {name:?}");
        }
    }

    #[test]
    fn from_trace_line_rejects_malformed_input() {
        for bad in [
            "",
            "warp g",
            "insert g 0 1",     // missing weight
            "insert g 0 1 2 3", // trailing token
            "kcut g notanumber",
            "create g gnm 1 2 3",    // truncated spec
            "create g blob 1 2 3 4", // unknown spec kind
            // Huge edge count, one triple: must fail on the missing
            // triples, not abort reserving room for them.
            "create x edges 3 1099511627776 0:1:1",
        ] {
            assert!(Request::from_trace_line(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn response_trace_lines_round_trip_every_shape() {
        let responses = vec![
            Response::Created { name: "g000".into(), n: 48, m: 96 },
            Response::Dropped { name: "two words".into() },
            Response::Mutated { name: "g".into(), epoch: 17, n: 10, m: 20 },
            Response::CutValue { weight: 0, side_size: 0, cached: false },
            Response::CutValue { weight: u64::MAX, side_size: 31, cached: true },
            Response::KCutValue { weight: 9, parts: 3, cached: false },
            Response::ConnectivityValue { components: 1, cached: true },
            Response::Graphs { names: vec![] },
            Response::Graphs { names: vec!["a".into(), "".into(), "100%".into()] },
            Response::EngineStats {
                graphs: 8,
                queries: 10_000,
                cache_hits: 7_400,
                cache_misses: 2_600,
                mutations: 1_200,
            },
            Response::Metrics { snapshot: "cut-metrics/1 c 0 g 0 h 0".into() },
            Response::Slowlog { snapshot: "cut-slowlog/1 8 0".into() },
            Response::Error { message: "graph 'g' not found".into() },
            Response::Error { message: String::new() },
        ];
        for resp in responses {
            let line = resp.to_trace_line();
            assert!(!line.contains('\n'), "encoded line must stay one line: {line:?}");
            assert_eq!(Response::from_trace_line(&line), Ok(resp.clone()), "line: {line}");
            // The wire hop must not perturb the operation log the stress
            // digest hashes: Display survives the round trip byte-exactly.
            let back = Response::from_trace_line(&line).unwrap();
            assert_eq!(format!("{back}"), format!("{resp}"));
        }
    }

    #[test]
    fn response_from_trace_line_rejects_malformed_input() {
        for bad in [
            "",
            "warped 1 2",        // unknown kind
            "created g 4",       // truncated header (missing m)
            "created g 4 5 6",   // trailing token
            "cut 7 3",           // missing cached flag
            "cut 7 3 maybe",     // non-0/1 cached flag
            "cut 7 3 true",      // Display form is not the wire form
            "conn x 0",          // non-numeric field
            "graphs 2 only-one", // fewer names than the count promises
            "graphs two a b",    // non-numeric count
            "stats 1 2 3 4",     // truncated stats
            "metrics",           // missing snapshot token
            "slowlog",           // missing snapshot token
            "error",             // missing message token
            "mutated g 1 2",     // truncated mutated
        ] {
            assert!(Response::from_trace_line(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// Names (and error messages) exercising every escape the codec knows.
    fn name_from_seed(seed: u64, len: usize) -> String {
        const PALETTE: [char; 10] = ['g', '0', '%', ' ', '\t', '\n', '\r', '-', 'é', '7'];
        let mut s = String::new();
        let mut x = seed;
        for _ in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push(PALETTE[(x >> 33) as usize % PALETTE.len()]);
        }
        s
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Wire-format pinning: every reachable response round-trips
        /// losslessly, including hostile graph names and messages.
        #[test]
        fn response_trace_round_trip_is_lossless(
            (variant, a, b, flag, nseed) in
                (0u8..11, proptest::any::<u64>(), proptest::any::<u64>(),
                 proptest::any::<bool>(), proptest::any::<u64>())
        ) {
            let name = name_from_seed(nseed, (nseed % 7) as usize);
            let resp = match variant {
                0 => Response::Created { name, n: a as usize, m: b as usize },
                1 => Response::Dropped { name },
                2 => Response::Mutated { name, epoch: a, n: b as usize, m: (a ^ b) as usize },
                3 => Response::CutValue { weight: a, side_size: b as usize, cached: flag },
                4 => Response::KCutValue { weight: a, parts: b as usize, cached: flag },
                5 => Response::ConnectivityValue { components: a as usize, cached: flag },
                6 => Response::Graphs {
                    names: (0..(a % 5))
                        .map(|i| name_from_seed(nseed.wrapping_add(i), (b % 6) as usize))
                        .collect(),
                },
                7 => Response::EngineStats {
                    graphs: a as usize,
                    queries: b,
                    cache_hits: a ^ b,
                    cache_misses: a.wrapping_add(b),
                    mutations: a.rotate_left(17),
                },
                8 => Response::Metrics { snapshot: name },
                9 => Response::Slowlog { snapshot: name },
                _ => Response::Error { message: name },
            };
            let line = resp.to_trace_line();
            proptest::prop_assert!(!line.contains('\n'), "line must stay one line: {:?}", line);
            proptest::prop_assert_eq!(Response::from_trace_line(&line), Ok(resp));
        }

        /// Truncation never parses: chopping any trailing portion off a
        /// valid line (leaving at least the kind token intact) is rejected
        /// rather than decoded as a shorter valid response.
        #[test]
        fn response_trace_rejects_every_truncation(
            (a, b, cut_at) in
                (proptest::any::<u64>(), proptest::any::<u64>(), proptest::any::<u64>())
        ) {
            let resp = Response::Mutated {
                name: "graph name".into(),
                epoch: a,
                n: b as usize,
                m: (a ^ b) as usize,
            };
            let line = resp.to_trace_line();
            // Truncate at a boundary strictly inside the token stream:
            // keep the kind, drop at least one later token.
            let cuts: Vec<usize> = (0..line.len())
                .filter(|&i| i > "mutated".len() && line.as_bytes()[i] == b' ')
                .collect();
            let cut = cuts[(cut_at % cuts.len() as u64) as usize];
            proptest::prop_assert!(
                Response::from_trace_line(&line[..cut]).is_err(),
                "truncated line must not parse: {:?}",
                &line[..cut]
            );
        }
    }
}
