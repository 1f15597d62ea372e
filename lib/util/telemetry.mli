(** Observability: named counters, log-scale latency histograms, gauges
    and rolling-window histograms, plus their Prometheus and JSON
    exposition.

    The synthesis layers (scheduling, binding, the pass-pipeline
    engine, the redundancy baseline) report how much work they do
    through a process-global registry of named counters
    (["sched.runs"], ["cache.hits"], ["downgrade.steps"], ...) and
    duration histograms fed by {!Trace.with_span}
    (["pass.meet_latency"], ...), whose [sum_ns] is the cumulative
    wall-clock time of the span.  A long-running
    daemon adds {b gauges} (queue depth, in-flight jobs) and {b rolling
    windows}: duration histograms over a sliding time window, so
    p50/p90/p99 reflect {e recent} traffic and old load spikes age out.

    Counter cells are {e sharded per domain} (one atomic per
    shard, aggregated on read) so parallel sweep and fault-campaign
    workers bump them without cache-line contention.  Cumulative and
    rolling histograms share one log2-bucket core and one quantile
    estimator.  Reads are snapshots, exact once the domains have been
    joined.

    Recording is free of observable side effects on synthesis results:
    layers must never branch on telemetry state. *)

val incr : string -> unit
(** [incr name] adds 1 to counter [name], creating it at 0 first. *)

val add : string -> int -> unit
(** [add name n] adds [n] to counter [name]. *)

val counter : string -> int
(** Current value; 0 for a counter never bumped. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val now_ns : unit -> int64
(** The monotonic clock backing {!Rolling} and {!Trace.with_span}. *)

val uptime_ns : unit -> int64
(** Monotonic nanoseconds since this module was initialized (process
    start, for practical purposes). *)

(** {1 Histograms} *)

type hist = {
  count : int;
  sum_ns : int64;
  p50_ns : float;  (** estimated from log2 buckets, linear in-bucket *)
  p90_ns : float;
  p99_ns : float;
  max_ns : int64;  (** exact *)
}
(** A histogram read out: cumulative ({!histogram}) or over a window
    ({!Rolling.stat}).  Observations land in [2^i, 2^(i+1)) ns
    buckets; a quantile is the bucket where the cumulative rank
    crosses it, interpolated linearly and capped by the exact max.
    An empty histogram reads all zeros. *)

val observe : string -> int64 -> unit
(** Record one duration (ns) into cumulative histogram [name].  Span
    completions feed these automatically via {!Trace.with_span}. *)

val histogram : string -> hist option
(** Snapshot with quantile estimates; [None] for an unknown or empty
    histogram. *)

val histograms : unit -> (string * hist) list
(** All non-empty histograms, sorted by name. *)

val hist_to_json : ?window_ns:int64 -> hist -> Json.t
(** [{"count":..,"sum_ns":..,"p50_ns":..,"p90_ns":..,"p99_ns":..,
    "max_ns":..}], with ["window_ns"] appended when given. *)

(** {1 Gauges} *)

val gauge_set : string -> int -> unit
(** [gauge_set name v] sets gauge [name] to [v], creating it first. *)

val gauge_add : string -> int -> unit
(** Adjust a gauge by a (possibly negative) delta. *)

val gauge : string -> int
(** Current value; 0 for a gauge never set. *)

val gauges : unit -> (string * int) list
(** All gauges, sorted by name. *)

(** {1 Rolling windows} *)

module Rolling : sig
  type t
  (** A sliding-window histogram: the window is divided into equal time
      slices, each its own histogram tagged with the slice period it
      holds; an observation lands in the slice covering its timestamp
      and a slice is lazily cleared when the window slides past it.
      Writers are lock-free on the hot path (atomic bumps; a mutex is
      taken only to rotate a stale slice, once per slice period). *)

  val create : ?window_ns:int64 -> ?slices:int -> unit -> t
  (** Default: a 60 s window in 12 slices of 5 s.  [slices] min 2,
      [window_ns] must exceed [slices] (one ns per slice). *)

  val window_ns : t -> int64

  val observe : ?now_ns:int64 -> t -> int64 -> unit
  (** Record one duration at time [now_ns] (default: {!now_ns}).
      Observations older than the slice currently covering their slot
      are dropped — they are outside the window. *)

  val stat : ?now_ns:int64 -> t -> hist
  (** The merged slices alive at [now_ns]. *)
end

val window : string -> Rolling.t
(** Get-or-create the registry's rolling window [name], with the
    default window length. *)

val observe_window : string -> int64 -> unit
(** [observe_window name ns] = [Rolling.observe (window name) ns]. *)

val windows : unit -> (string * hist) list
(** Stats for every registered window, sorted by name. *)

(** {1 Reset} *)

val reset : unit -> unit
(** Zero every counter, histogram and gauge and clear every window
    (the registry keys survive). *)

(** {1 Snapshot and exposition} *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  windows : (string * hist) list;
  window_ns : int64;  (** the length of every registry window *)
}

val snapshot : unit -> snapshot

val prometheus_name : string -> string
(** Sanitize a dotted metric name for Prometheus: [a-zA-Z0-9_] with
    every other byte mapped to ['_'], prefixed ["rchls_"]. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition (format 0.0.4): counters as
    [# TYPE ... counter] series suffixed [_total], gauges as gauges,
    rolling windows as summaries in {e seconds} ([_seconds] suffix,
    [quantile] labels 0.5/0.9/0.99, plus [_sum]/[_count]).  Ends with
    a newline; deterministic order. *)

val to_json : snapshot -> Json.t
(** The same snapshot as one JSON object:
    [{"counters":{...},"gauges":{...},"windows":{"name":{"count":...,
    "p50_ns":...,"window_ns":...},...}}]. *)

(** {1 Rendering} *)

val format_ns : int64 -> string
(** Human units: ["870 ns"], ["12.40 us"], ["3.25 ms"], ["1.200 s"]. *)

val format_ns_f : float -> string
(** {!format_ns} for estimated (fractional) durations — histogram
    quantiles. *)

val render : unit -> string
(** Counters, cumulative span times (each histogram's [sum_ns], human
    units) and histogram quantile rows as an aligned two-column table,
    empty string when nothing was recorded — the [--stats] output of
    the CLI. *)
