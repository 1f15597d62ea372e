(** The paper's reliability-centric synthesis algorithm (Figure 6), as
    a pass pipeline.

    Starting from the most reliable version for every operation, the
    algorithm:

    + meets the latency bound by repeatedly picking the
      highest-delay victim on the current critical path and moving it
      to a faster (usually less reliable) version (lines 7–12);
    + updates resource sharing and, when the area bound is still
      violated but latency slack remains, re-schedules at larger
      latencies up to the bound so more operations can share instances
      (lines 15–21);
    + meets the area bound by repeatedly picking the biggest-area
      victim version and moving it — together with every operation
      sharing its instance — to a smaller version that is not slower
      (lines 23–28);
    + reports the design and its total reliability, or that no
      solution exists under the given bounds (lines 29–30).

    Our documented extensions (DESIGN.md par. 8) add a recovery stage
    via slower-but-smaller moves and a refinement pass that moves
    operations back to more reliable versions wherever slack remains.

    Each stage is an explicit {!pass} over a shared mutable {!ctx},
    so that:

    - {!synthesize}, the one entry point, is a driver composing
      {!default_pipeline} — stages can be reordered, dropped or
      instrumented without touching the stage bodies;
    - every [Design.realize] inside the stage loops goes through a
      {e memoized evaluation cache} keyed by the assignment
      fingerprint and scheduling latency (the latency/area loops and
      the [Best] strategy's two directions repeatedly re-realize
      identical assignments), and a miss takes its schedule from a
      {e schedule memo} keyed by the exact delay vector and latency
      (versions of equal delay schedule alike);
    - the critical-path latency of the current assignment is
      maintained {e incrementally} (one topological sweep per move,
      from the earliest node its delay changes reach) instead of
      recomputed from scratch after every move;
    - the work done is observable through [Rchls_util.Telemetry]
      counters ([cache.hits], [cache.misses], [cache.schedule.hits],
      [cache.schedule.misses], [engine.realize],
      [downgrade.steps], [refine.upgrades], [latency.sparse_updates])
      and per-pass span histograms ([pass.meet_latency], ...);
    - every algorithm decision is an [Rchls_util.Trace] instant event:
      [engine.initial] (attribute [latency]),
      [engine.latency_downgrade] ([node], [from], [to], [latency]),
      [engine.slack_exploited] ([latency], [area]),
      [engine.area_downgrade] ([nodes], [from], [to], [area]; [from]
      is ["mixed"] for a recovery move) and [engine.refine_upgrade]
      ([node], [from], [to], [reliability]).  Nothing is built for
      them unless a trace sink is installed.

    Results are bit-identical to the historical monolithic
    implementation: the passes preserve its exact decision order, and
    the cache only short-circuits recomputation of a deterministic
    function. *)

open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library

type failure = Rchls_api.Response.failure =
  | Latency_infeasible of { best_achievable : int }
  | Area_infeasible of { best_achieved : int }
  | Scheduling_error of string
(** The wire's failure ([Rchls_api.Response.failure]). *)

val pp_failure : Format.formatter -> failure -> unit

(** {1 Engine context} *)

type cache
(** The evaluation cache of one (graph, library, scheduler)
    combination: two sharded {!Rchls_util.Memo}s, so one cache may be
    shared across domains — the [Best] strategy's two pipeline runs
    and every cell of a design-space sweep, whose rows run on worker
    domains, all share one.

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
    evaluation cache and the certified area-bound interval. *)

val create :
  ?scheduler:Design.scheduler ->
  ?cache:cache ->
  ?use_cache:bool ->
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
    unchanged (tested).  A context is used by one domain at a time:
    every pass runs on the domain that calls it. *)

val graph : ctx -> Dfg.t
val version_of : ctx -> Dfg.node_id -> Resource.t

val assign : ctx -> (Dfg.node_id * Resource.t) list -> unit
(** Reassign operations, in list order, then update the ASAP table
    incrementally: one sweep in topological order from the earliest
    successor of an operation whose delay changed, visiting only the
    nodes a change reaches.  Bumps [latency.sparse_updates] by the
    number of writes that changed a delay. *)

val set_version : ctx -> Dfg.node_id -> Resource.t -> unit
(** [assign] of one operation. *)

val asap_of : ctx -> Dfg.node_id -> int
(** The incrementally maintained ASAP start of an operation; equals
    [Analysis.asap] under the current assignment (tested). *)

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
    pipeline.  Each pass runs in a [pass.<name>] trace span, whose
    durations feed the telemetry histogram of that name. *)

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

type strategy = Rchls_api.Request.strategy = Best | Figure6 | Bottom_up
(** The wire's strategy ([Rchls_api.Request.strategy]), spelled by
    [Request.strategies]; the [engine.synthesize] span's [strategy]
    attribute is that name.  [Figure6]: the paper's top-down greedy
    (start most-reliable, downgrade victims).  [Bottom_up]: start from
    the fastest versions and upgrade reliability under the bounds.
    [Best] (default): run both and keep the more reliable feasible
    design. *)

val synthesize :
  ?scheduler:Design.scheduler ->
  ?refine:bool ->
  ?strategy:strategy ->
  ?use_cache:bool ->
  ?cache:cache ->
  ?certificate:(int * int) ref ->
  Dfg.t ->
  Library.t ->
  ld:int ->
  ad:int ->
  (Design.t, failure) result
(** The full algorithm: run {!default_pipeline} from the
    strategy-dependent initial allocation(s); [Best] runs both
    directions over one shared evaluation cache and keeps the more
    reliable feasible design.  [cache] substitutes a caller-owned
    (shareable) evaluation cache.  The whole call runs on the calling
    domain; parallelism lives one level up, across independent jobs
    (sweep and explore rows, served batches).
    Raises [Invalid_argument] on non-positive bounds or if the library
    lacks versions for a class used by the graph.

    [certificate], when supplied, receives the {e certified area-bound
    interval} [(lo, hi)] of the run: every decision the pipeline takes
    that depends on [ad] is an integer comparison [a <= ad], and the
    interval is the exact set of area bounds for which every such
    comparison (across all directions run) resolves as it did — so for
    every [ad'] in [lo <= ad' <= hi], [synthesize ... ~ad:ad'] returns
    the {e identical} result (same design or same failure).  Always
    contains [ad] itself ([1 <= lo <= ad <= hi]); [hi = max_int] means
    unbounded above (e.g. a latency-infeasible run never consulted the
    area bound at all).  {!refine} evaluates every move candidate of a
    round, so each candidate's area comparison narrows the interval
    whether or not it wins.  The design-space explorer derives whole grid rows from single
    synthesis calls on the strength of this. *)
