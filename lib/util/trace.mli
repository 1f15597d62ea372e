(** Structured tracing: hierarchical spans, instant events, and export
    to Chrome trace-event JSON / JSONL.

    A {e span} is a named, timed region of work opened by
    {!with_span}.  Spans nest: each domain keeps its own span stack
    (via [Domain.DLS]), so parallel sweep/campaign workers trace
    independently and the export shows one track per domain.  Every
    span completion also feeds the [Telemetry] registry — a log-scale
    latency histogram under the span's name, whose [sum_ns] is the
    span's cumulative time — so
    [--stats] shows per-span totals and p50/p90/p99 even without a
    sink installed.

    Recording is free of observable side effects: no layer may branch
    on tracing state, and synthesis results are bit-identical with
    tracing on or off (tested).

    When no sink is installed, the per-span overhead is two clock
    reads plus the telemetry accumulation — cheap enough to leave the
    instrumentation on unconditionally. *)

(** {1 Events} *)

type attr_value = Str of string | Int of int | Float of float | Bool of bool

type attrs = (string * attr_value) list

type kind =
  | Begin  (** span opened *)
  | End  (** span closed; [dur_ns] is its duration *)
  | Instant  (** point event (algorithm decisions, CI convergence) *)

type event = {
  kind : kind;
  name : string;
  domain : int;  (** the numeric id of the recording domain *)
  ts_ns : int64;  (** monotonic-clock timestamp *)
  dur_ns : int64;  (** [End] events: span duration; otherwise 0 *)
  depth : int;  (** span-stack depth on this domain when recorded *)
  attrs : attrs;
}

(** {1 Recording} *)

val with_span : ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span: emits [Begin]/[End]
    events to the installed sinks (the [End] is emitted even when [f]
    raises), pushes the span on the current domain's stack while [f]
    runs, and records the duration in the [name] telemetry
    histogram. *)

val instant : ?attrs:attrs -> string -> unit
(** Emit a point event at the current time and span depth.  A no-op
    when no sink is installed. *)

val enabled : unit -> bool
(** Whether at least one sink is installed.  Use to skip building
    expensive attribute lists. *)

val current_depth : unit -> int
(** Nesting depth of the calling domain's span stack. *)

(** {1 Sinks} *)

type sink = event -> unit
(** Sinks run on the domain that recorded the event and must be
    thread-safe when parallel work is active. *)

val set_sinks : sink list -> unit
(** Replace the installed sinks ([[]] disables tracing). *)

val with_sinks : sink list -> (unit -> 'a) -> 'a
(** Install sinks for the duration of a call, restoring the previous
    set afterwards (also on exceptions). *)

(** {1 Collection and export} *)

type collector
(** A thread-safe in-memory event buffer. *)

val collector : unit -> collector

val collector_sink : collector -> sink

val events : collector -> event list
(** Collected events in arrival order (per-domain subsequences are in
    emission order, so per-track timestamps are monotone). *)

val event_json : event -> Json.t
(** One event as a structured JSON object ([kind]/[name]/[domain]/
    [ts_ns]/[dur_ns]/[depth]/[attrs]) — the JSONL record format. *)

val jsonl_sink : out_channel -> sink
(** Stream each event to [oc] as one compact JSON object per line
    (mutex-protected; flushed per event). *)

val chrome_json : event list -> Json.t
(** Chrome trace-event JSON (the [{"traceEvents": [...]}] envelope):
    [B]/[E]/[i] phases, [pid] 1, one [tid] — and one named track —
    per domain.  Loadable in Perfetto / chrome://tracing. *)

val write_chrome_file : collector -> string -> unit
(** Render {!chrome_json} of the collected events to a file. *)

(** {1 Attribute helpers} *)

val attr_string : attrs -> string -> string option
val attr_int : attrs -> string -> int option
val attr_float : attrs -> string -> float option
