(** Per-request JSONL access log for the serve daemon.

    One compact JSON object per completed request, appended to a
    single file with size-based rotation: when the next record would
    push the file past [max_bytes], the file is renamed to
    [FILE.1] (replacing any previous [FILE.1]) and a fresh [FILE] is
    started — bounded disk use with one generation of history, like
    classic [logrotate] with [rotate 1].

    Record schema (field order fixed; [id] omitted when the request
    carried none, [tier] is [null] for computed responses):

    {v
    {"ts_ns":1754650000123456789,"id":"j1","kind":"synth",
     "tier":"memory","queue_ns":0,"exec_ns":8120,"total_ns":10250,
     "bytes":312,"status":"ok"}
    v}

    [ts_ns] is wall-clock (Unix epoch) nanoseconds — the one place the
    observability layer uses wall time, because log records are
    correlated with the outside world; every duration field is
    monotonic-clock based like the rest of the metrics.

    Writes are buffered (the daemon flushes on [stats] requests,
    metrics scrapes and shutdown, so an observer comparing a scrape
    against the log always sees complete records) and mutex-protected;
    any thread may log.  Each write bumps the
    [serve.access_log.records] Telemetry counter, each rotation
    [serve.access_log.rotations]. *)

type t

type record = {
  id : string option;  (** client correlation id *)
  kind : string;  (** request job kind ([synth], [sweep], ...) *)
  tier : string option;  (** [memory]/[disk] for cache hits, else [None] *)
  queue_ns : int;
  exec_ns : int;
  total_ns : int;
  bytes : int;  (** response line length on the wire *)
  status : string;
      (** ["ok"], the response error code, or ["disconnected"] when the
          client hung up before the response was written ([bytes] 0) *)
}

val open_log : ?max_bytes:int -> string -> (t, string) result
(** Open (appending) or create [path].  [max_bytes] defaults to 64
    MiB; the minimum honored is one record (a record larger than the
    limit still rotates first, then writes). *)

val write : t -> record -> unit
(** Append one record (buffered; rotates first when over the size
    limit).  Never raises — a log that cannot be written to drops the
    record rather than killing the serving thread. *)

val flush : t -> unit

val close : t -> unit
(** Flush and close.  Idempotent; [write] after [close] is a no-op. *)
