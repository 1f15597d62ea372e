(** The in-process job executor behind the {!Rchls_api} surface.

    Every entry point that accepts an API job runs it through this
    module: the CLI subcommands construct {!Rchls_api.Request}
    records and execute them here directly, and the serve daemon
    ([Rchls_serve.Server]) calls the same executors from its batch
    scheduler — one implementation, two transports.

    A {!t} is a registry of long-lived engine evaluation caches, one
    per (graph fingerprint, library fingerprint, scheduler): every
    synth/sweep/check job over the same inputs shares one sharded
    cache, so repeated traffic in a daemon stays warm across requests.
    The registry is bounded and safe to share across domains; results
    are independent of it — caches only memoize a deterministic
    function. *)

module Request = Rchls_api.Request
module Response = Rchls_api.Response
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Fuzz = Rchls_check.Fuzz
module Anneal = Rchls_anneal.Anneal

(** {1 One vocabulary}

    Strategies, approaches, failures and sweep cells are the core's
    own types, so they cross the API unconverted; only the scheduler
    is converted, as the core's has an oracle-only variant. *)

val approach_of_api : Request.approach -> Sweep.approach
(** [Fun.id]; the benchmark's explore workload still calls it. *)

val summary_of_design : Design.t -> Response.design_summary

(** {1 Engine-cache registry} *)

type t
(** At most {!registry_max_entries} engine caches, in one
    {!Rchls_util.Memo} named [service.registry] (counters
    [service.registry.hits]/[.misses]/[.evictions], gauge
    [service.registry.entries]); an insert past the bound drops every
    cache held, which only costs recomputation. *)

val create : unit -> t

val registry_max_entries : int

(** {1 Input resolution} *)

type resolved = {
  graph : Rchls_dfg.Dfg.t;
  library : Rchls_charlib.Library.t;
  graph_digest : int64;  (** FNV-1a of the canonical [.dfg] text of [graph] *)
  library_digest : int64;  (** FNV-1a of the canonical text of [library] *)
}

val resolve :
  Request.source -> Request.library_source -> (resolved, string) result
(** Load both inputs ({!Loader}) and digest their canonical texts —
    the digests feed {!Request.cache_key} and the registry key, so a
    benchmark requested by name and the same graph sent inline hash
    identically.  Always loads afresh; the served path goes through
    the memo below. *)

val cache_key : Request.job -> (int64 option, string) result
(** The job's response-cache key: resolve its sources through the
    resolve memo, then {!Request.cache_key} over the carried digests.
    [Ok None] for jobs that are never cached ({!Request.Ping}); [Error]
    when a source fails to load. *)

(** {2 The resolve memo}

    {!cache_key}, and every executor called without [?resolved], look
    a source pair up in one process-wide memo before loading it; only
    {!cache_key} stores what it loaded, so a served miss resolves once
    while one-shot executor calls leave the memo as it was.  The
    key is the exact source texts, compared as strings: a built-in
    benchmark's (or [Lib_default]'s) name, otherwise the inline text or
    the file's contents, read again on every call so an edited file is
    a new key.  A hit skips parsing and canonical rendering; the key
    and every payload are those of {!resolve}.  Failed loads are never
    stored.  The memo is a {!Rchls_util.Memo} named [service.resolve]:
    each lookup counts [service.resolve.hits] or
    [service.resolve.misses] (a source that cannot be read at all is no
    lookup), and it is emptied whole when an insert would pass either
    bound. *)

val memo_max_entries : int
(** Source pairs held at most. *)

val memo_max_bytes : int
(** Total bytes held at most: the source texts and names of the keys,
    and the graphs and libraries parsed from inline or file texts (a
    built-in's value is shared, not held).  A pair larger than this is
    never stored. *)

(** {1 Executors}

    Each executor returns the raw domain result (so the CLI can keep
    its human rendering and exit codes byte-identical) with load
    errors, and a library that lacks a class the graph uses
    ({!Loader.covers}), as [Error message].  [resolved] skips re-loading when the
    caller already resolved the sources; [service] shares engine
    caches across jobs.  A synth, check or anneal job runs on the
    calling domain; [domains] caps the worker domains of a sweep or
    explore job's latency rows (the daemon passes [~domains:1] — jobs
    are already fanned across the batch pool). *)

val run_synth :
  ?service:t ->
  ?resolved:resolved ->
  Request.synth ->
  ((Design.t, Engine.failure) result, string) result

val run_anneal :
  ?service:t ->
  ?resolved:resolved ->
  ?domains:int ->
  Request.anneal ->
  ((Design.t * Design.t * Anneal.stats, Engine.failure) result, string) result
(** Greedy synthesis seeded into the parallel-tempering annealer
    ([Rchls_anneal.Anneal.synthesize]): [Ok (greedy, annealed, stats)],
    with the annealed design never less reliable than the greedy seed.
    Deterministic in the request (the annealer seed is a parameter), so
    the response cache may serve it like a synth.  [domains] is
    accepted and ignored: the annealer runs on the calling domain. *)

val run_sweep :
  ?service:t ->
  ?resolved:resolved ->
  ?domains:int ->
  Request.sweep ->
  (Sweep.cell list, string) result

val run_explore :
  ?service:t ->
  ?resolved:resolved ->
  ?domains:int ->
  Request.sweep ->
  (Explore.point list * Explore.stats, string) result
(** The frontier-guided explorer over the request's bound plane —
    empty [lds]/[ads] are planned automatically ({!Explore.plan}).
    Returns the Pareto frontier and the evaluated/derived cell
    counts. *)

val run_fuzz : Request.fuzz -> (Fuzz.outcome list, string) result
(** Unknown property names come back as [Error] (the executor never
    raises). *)

(** {1 Payload assembly} *)

val payload_of_anneal :
  (Design.t * Design.t * Anneal.stats, Engine.failure) result -> Response.payload
val payload_of_sweep : Sweep.cell list -> Response.payload
val payload_of_explore :
  Explore.point list * Explore.stats -> Response.payload
val payload_of_fuzz : Fuzz.outcome list -> Response.payload

val stats_payload : unit -> Response.payload
(** A {!Response.Stats_snapshot} of this process's live metrics
    ([Rchls_util.Telemetry.snapshot]: counters, gauges,
    rolling-window latency percentiles) plus process uptime — the
    answer to the [stats] admin kind, shared by the daemon and
    in-process execution. *)

val health_payload :
  healthy:bool ->
  queue_depth:int ->
  queue_max:int ->
  in_flight:int ->
  Response.payload
(** A {!Response.Health_report}; the caller supplies the saturation
    figures (the daemon knows its queue, in-process execution has
    none). *)

val run_job :
  ?service:t ->
  ?domains:int ->
  Request.job ->
  (Response.payload, Response.error) result
(** The complete executor the daemon dispatches to: load failures map
    to [Bad_request], unexpected exceptions to [Internal], and the
    inline kinds answer without touching any cache ({!Request.Ping} →
    [Pong], {!Request.Stats} → a live metrics snapshot,
    {!Request.Health} → a liveness report with zero queue figures). *)
