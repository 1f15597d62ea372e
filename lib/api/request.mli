(** Versioned job requests — schema ["rchls.api/1"].

    One request describes one synthesis-as-a-service job.  The same
    typed record is the single public surface for every entry point:
    the [rchls serve] wire format carries its JSON encoding (one
    compact object per line), the CLI subcommands construct the very
    same records and execute them in-process
    ([Rchls_experiments.Service]), and the benchmark load generator
    replays lists of them.

    Wire form:

    {v
    {"api":"rchls.api/1","id":"j1","job":"synth","params":{
       "graph":{"name":"ewf"},"library":{"default":true},
       "ld":14,"ad":9,"strategy":"best","scheduler":"density"}}
    v}

    Decoding is {e total} and {e strict}: it never raises, unknown
    fields and unsupported ["api"] versions are errors, and optional
    fields decode to the documented defaults.  [decode (encode r) = r]
    for every value of {!t} (QCheck-tested). *)

module Json = Rchls_util.Json

type source =
  | Named of string
      (** a built-in benchmark name, or a server-side [.dfg] path —
          resolved by [Rchls_experiments.Loader.load_graph], exactly as
          the CLI resolves its [GRAPH] argument *)
  | Inline of string  (** literal [.dfg] text carried in the request *)

type library_source =
  | Lib_default  (** the paper's Table-1 library *)
  | Lib_file of string  (** server-side library file path *)
  | Lib_inline of string  (** literal library text *)

type strategy = Best | Figure6 | Bottom_up
type scheduler = Density | Force_directed
type approach = Ours | Baseline | Combined

type synth = {
  graph : source;
  library : library_source;
  ld : int;
  ad : int;
  strategy : strategy;  (** default [Best] *)
  scheduler : scheduler;  (** default [Density] *)
}

type anneal = {
  graph : source;
  library : library_source;
  ld : int;
  ad : int;
  strategy : strategy;  (** greedy seed strategy; default [Best] *)
  scheduler : scheduler;  (** default [Density] *)
  seed : int;  (** annealer RNG seed; default 1 *)
  moves : int;  (** moves per chain; default 2000 *)
  chains : int;  (** replica chains; default 4 *)
  exchange : int;  (** moves between temperature exchanges; default 50 *)
}

type sweep = {
  graph : source;
  library : library_source;
  lds : int list;
  ads : int list;
  approach : approach;  (** default [Ours] *)
  scheduler : scheduler;  (** default [Density] *)
}

type fuzz = {
  seed : int;  (** default 42 *)
  cases : int;  (** default 100 *)
  max_nodes : int;  (** default 12 *)
  properties : string list option;  (** default: all properties *)
}

type job =
  | Synth of synth
  | Anneal of anneal
      (** greedy synthesis, then parallel-tempering annealing seeded
          from the greedy result ([Rchls_anneal]); the response reports
          both designs plus the move statistics.  Deterministic in the
          request parameters, so cacheable like {!Synth} *)
  | Sweep of sweep
  | Explore of sweep
      (** frontier-guided exploration: sweep the bound plane with the
          dominance-pruned explorer and answer with the 3-D (latency,
          area, reliability) Pareto frontier.  Reuses the {!sweep}
          parameter record; empty [lds]/[ads] (the decode default when
          the fields are omitted) mean "plan the plane from the graph
          and library" ([Rchls_experiments.Explore.plan]) *)
  | Check of synth
      (** synthesize like {!Synth}, then re-validate the result with
          the independent checker ([Rchls_check]) and report the
          violations *)
  | Fuzz of fuzz
  | Ping  (** health check; never queued, never cached *)
  | Stats
      (** admin: a live metrics snapshot (counters, gauges,
          rolling-window latency percentiles); answered inline by the
          daemon — never queued, never cached *)
  | Health
      (** admin: liveness + saturation summary (queue depth vs. limit,
          in-flight jobs); answered inline like {!Stats} *)

type t = {
  id : string option;
      (** client-chosen correlation id, echoed verbatim in the
          response *)
  job : job;
}

(** The wire name of every value, in documentation order.  The codec
    reads these tables; the CLI builds its flag values, help text and
    report arguments from them, and the engine-cache registry its
    labels, so each name is spelled once. *)

val strategies : (string * strategy) list
val schedulers : (string * scheduler) list
val approaches : (string * approach) list

val name_of : (string * 'a) list -> 'a -> string
(** [name_of table v] is [v]'s name in [table]. *)

val validate : job -> (unit, string * string) result
(** The parameter domains: latency and area bounds, and every entry of
    a sweep's or an explore's bound lists, at least 1; annealer
    [chains] and [exchange] at least 1 and [moves] at least 0.
    [Error (field, problem)] names the first parameter outside its
    domain, e.g. [("ld", "must be at least 1 (got 0)")].  {!decode}
    rejects such a job with ["<kind>.params: field \"ld\" must be at
    least 1 (got 0)"]; the CLI rejects its flags through the same
    check. *)

val job_kind : job -> string
(** ["synth" | "anneal" | "sweep" | "explore" | "check" | "fuzz" |
    "ping" | "stats" | "health"]. *)

val encode : t -> Json.t
(** Canonical encoding: every parameter is emitted explicitly (no
    defaults are elided) except [id] and absent [properties]. *)

val to_string : t -> string
(** [encode] rendered compactly — one line, the serve wire form. *)

val decode : Json.t -> (t, string) result

val of_string : string -> (t, string) result
(** Parse + {!decode}. *)

val cache_key :
  ?graph_text:string -> ?library_text:string -> job -> int64 option
(** The two-tier response-cache key: a 64-bit FNV-1a digest over the
    schema version, the job kind and the job's canonical parameter
    encoding, with the [graph]/[library] sources replaced by FNV-1a
    fingerprints of their {e resolved} canonical texts — so ["ewf"]
    requested by name and the same graph sent inline share one cache
    entry, and a changed library file changes the key.  [graph_text] /
    [library_text] are the resolved texts (required for jobs that
    carry sources; ignored by {!Fuzz}).  [None] for {!Ping}, {!Stats}
    and {!Health}, which are never cached, and for source-carrying
    jobs whose resolved texts were not supplied.  The key doubles as
    the on-disk cache file name (16 hex digits; see DESIGN.md §12). *)
