(** The pass-pipeline synthesis engine.

    The paper's Figure-6 flow is a fixed sequence of stages: allocate
    the most reliable versions, downgrade critical-path victims until
    the latency bound holds, exploit leftover latency slack for
    sharing, downgrade area victims until the area bound holds, and
    (our documented extensions) recover via slower-but-smaller moves
    and refine reliability back wherever slack remains.

    This module makes each stage an explicit {!pass} over a shared
    mutable {!ctx}, so that:

    - {!Reliability_centric.synthesize} is a thin driver composing
      {!default_pipeline} — stages can be reordered, dropped or
      instrumented without touching the stage bodies;
    - every [Design.realize] inside the stage loops goes through a
      {e memoized evaluation cache} keyed by the assignment
      fingerprint and scheduling latency (the latency/area loops and
      the [`Best] strategy's two directions repeatedly re-realize
      identical assignments), and a miss takes its schedule from a
      {e schedule memo} keyed by the exact delay vector and latency
      (versions of equal delay schedule alike);
    - the critical-path latency of the current assignment is
      maintained {e incrementally} (topological worklist from the
      changed node) instead of recomputed from scratch after every
      single-victim move;
    - the work done is observable through [Rchls_util.Telemetry]
      counters ([cache.hits], [cache.misses], [cache.schedule.hits],
      [cache.schedule.misses], [engine.realize],
      [downgrade.steps], [refine.upgrades], [latency.sparse_updates])
      and per-pass timers ([pass.meet_latency], ...).

    Results are bit-identical to the historical monolithic
    implementation: the passes preserve its exact decision order, and
    the cache only short-circuits recomputation of a deterministic
    function. *)

open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library

type failure =
  | Latency_infeasible of { best_achievable : int }
  | Area_infeasible of { best_achieved : int }
  | Scheduling_error of string

val pp_failure : Format.formatter -> failure -> unit

type trace_event =
  | Initial of { latency : int }
  | Latency_downgrade of {
      node : string;
      from_version : string;
      to_version : string;
      latency : int;
    }
  | Slack_exploited of { latency : int; area : int }
  | Area_downgrade of {
      nodes : string list;
      from_version : string;
      to_version : string;
      area : int;
    }
  | Refinement_upgrade of {
      node : string;
      from_version : string;
      to_version : string;
      reliability : float;
    }

(** {1 Engine context} *)

type cache
(** The evaluation cache of one (graph, library, scheduler)
    combination: two sharded {!Rchls_util.Memo}s, so one cache may be
    shared across domains — the [`Best] strategy's two pipeline runs,
    the worker domains of a parallel refine round, and every cell of a
    design-space sweep all share one.

    The design memo maps the int64 fingerprint of (interned version
    codes, latency) to the realized design and counts [cache.hits],
    [cache.misses] and [cache.evictions].  The schedule memo maps the
    exact (scheduler, latency, per-node delay vector) to the
    first-stage scheduler's result, errors included; the scheduler
    reads nothing else, so assignments that differ only in versions of
    equal delay share one entry.  It counts [cache.schedule.hits],
    [cache.schedule.misses] and [cache.schedule.evictions].  Values
    are deterministic functions of the key's preimage, so sharing and
    eviction never change results.  Both memos are bounded in entries
    and bytes (DESIGN.md, the memo table). *)

val create_cache : unit -> cache

type ctx
(** Shared state the passes operate on: the graph, library and bounds,
    the current version assignment, the incremental ASAP table, the
    scheduling latency, the best realized design so far, the
    evaluation cache and the trace sink. *)

val create :
  ?scheduler:Design.scheduler ->
  ?cache:cache ->
  ?use_cache:bool ->
  ?domains:int ->
  ?trace:(trace_event -> unit) ->
  Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  initial:(Dfg.node -> Resource.t) ->
  ctx
(** Build a context with every operation on its [initial] version.
    Every version handled by the context (initial or moved-to) must
    belong to the library — versions are interned to small codes for
    fingerprinting.  [use_cache:false] (default [true]) makes
    {!realize} bypass the memoization table and the schedule memo —
    every evaluation reruns the scheduler and binder; results must be
    unchanged (tested).
    [domains] (default 1) fans the {!refine} and {!recovery} move
    evaluations over that many worker domains; results are identical
    for every value (tested). *)

val graph : ctx -> Dfg.t
val version_of : ctx -> Dfg.node_id -> Resource.t

val set_version : ctx -> Dfg.node_id -> Resource.t -> unit
(** Reassign one operation, updating the ASAP table incrementally
    (worklist over successors in topological id order). *)

val current_latency : ctx -> int
(** Critical-path latency of the current assignment, from the
    incrementally maintained ASAP table — O(nodes), no graph walk. *)

val full_latency : ctx -> int
(** The same quantity recomputed from scratch via
    [Analysis.asap_latency]; exposed so tests can assert it always
    equals {!current_latency}. *)

val fingerprint : ctx -> latency:int -> int64
(** The evaluation-cache key of the current assignment at [latency]:
    FNV-1a over the interned version codes and the latency.  Exposed
    for the collision-safety tests. *)

val realize : ctx -> latency:int -> (Design.t, string) result
(** Schedule + bind the current assignment at [latency], memoized; on
    an evaluation-cache miss the schedule comes from the schedule
    memo. *)

val set_design_checker : (Design.t -> unit) option -> unit
(** Install (or with [None] remove) a validity checker called on every
    freshly computed design before it enters the evaluation cache.
    The checker signals an invalid design by raising.  Installed by
    [Rchls_check.Check.enable] — kept as a hook because that library
    depends on this one. *)

val design_checker_installed : unit -> bool

val design : ctx -> Design.t option
(** The design realized by the passes run so far. *)

(** {1 Passes} *)

type pass = { name : string; run : ctx -> (unit, failure) result }
(** A pipeline stage.  [run] mutates the context; [Error] aborts the
    pipeline.  Each pass's wall-clock time accumulates in the
    [pass.<name>] telemetry timer. *)

val initial_alloc : pass
(** Traces the initial allocation (Figure 6 line 3). *)

val meet_latency : pass
(** Lines 7-12: repeatedly move the slowest critical-path victim to a
    faster version until the latency bound holds. *)

val exploit_slack : pass
(** Lines 4-5 and 15-21: realize at the achieved latency, then spend
    leftover latency slack on re-schedules that share more. *)

val meet_area : pass
(** Lines 23-28: move the biggest-area victims (with their sharing
    partners) to smaller not-slower versions until the area bound
    holds. *)

val recovery : pass
(** Extension (DESIGN.md par. 8): when not-slower downgrades are
    exhausted, move mobile subsets to smaller {e slower} versions as
    long as the latency bound survives and realized area shrinks. *)

val refine : pass
(** Extension: with both bounds met, steepest-ascent subset upgrades
    back to more reliable versions wherever slack allows. *)

val check : pass
(** Re-validate the pipeline's final design with the installed design
    checker (a no-op when none is installed).  Appended by
    {!default_pipeline} when a checker is installed, covering designs
    served from the evaluation cache. *)

val default_pipeline : refine:bool -> pass list
(** [initial_alloc; meet_latency; exploit_slack; meet_area; recovery]
    plus {!refine} when [refine] is true — the Figure-6 flow — plus
    {!check} when a design checker is installed. *)

val run_pipeline : pass list -> ctx -> (Design.t, failure) result
(** Run the passes in order, then check both bounds on the final
    design (lines 29-30). *)

(** {1 Driver} *)

type strategy = [ `Figure6 | `Bottom_up | `Best ]

val synthesize :
  ?scheduler:Design.scheduler ->
  ?refine:bool ->
  ?strategy:strategy ->
  ?trace:(trace_event -> unit) ->
  ?use_cache:bool ->
  ?cache:cache ->
  ?domains:int ->
  ?certificate:(int * int) ref ->
  Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  (Design.t, failure) result
(** The full algorithm: run {!default_pipeline} from the
    strategy-dependent initial allocation(s); [`Best] runs both
    directions over one shared evaluation cache and keeps the more
    reliable feasible design.  [cache] substitutes a caller-owned
    (shareable) evaluation cache; [domains] (default
    [Rchls_util.Pool.num_domains ()]) fans refine/recovery move
    evaluation over worker domains — results are independent of it.
    {!Reliability_centric.synthesize} is this function with
    [use_cache] defaulted.

    [certificate], when supplied, receives the {e certified area-bound
    interval} [(lo, hi)] of the run: every decision the pipeline takes
    that depends on [ad] is an integer comparison [a <= ad], and the
    interval is the exact set of area bounds for which every such
    comparison (across all directions run) resolves as it did — so for
    every [ad'] in [lo <= ad' <= hi], [synthesize ... ~ad:ad'] returns
    the {e identical} result (same design or same failure).  Always
    contains [ad] itself ([1 <= lo <= ad <= hi]); [hi = max_int] means
    unbounded above (e.g. a latency-infeasible run never consulted the
    area bound at all).  The interval is identical for every [domains]
    value (all move candidates are evaluated in both the sequential
    and the parallel branches, and interval merging is order-free).
    The design-space explorer derives whole grid rows from single
    synthesis calls on the strength of this. *)

val synthesize_improved :
  improve:(Design.t -> Design.t option) ->
  ?scheduler:Design.scheduler ->
  ?refine:bool ->
  ?strategy:strategy ->
  ?trace:(trace_event -> unit) ->
  ?use_cache:bool ->
  ?cache:cache ->
  ?domains:int ->
  ?certificate:(int * int) ref ->
  Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  (Design.t, failure) result
(** The move-based-optimizer entry: run {!synthesize} (the greedy
    pipeline) and hand a feasible result to [improve] — the annealer,
    installed from above because [Rchls_anneal] depends on this
    library.  The improved design replaces the greedy one only when it
    is {e strictly more reliable}, so the entry's result is never
    worse than the greedy seed by construction.  Greedy failures pass
    through untouched ([improve] is not called).  When the improver
    does replace the result, a supplied [certificate] collapses to the
    exact bound [(ad, ad)]: the greedy pipeline's certified interval
    speaks for the greedy decision path only, not for the stochastic
    improvement on top of it. *)
