(** The [rchls serve] daemon: synthesis as a service.

    A server listens on a Unix-domain or loopback TCP socket and
    speaks newline-delimited {!Rchls_api} JSON — one request object
    per line in, one response object per line out, correlated by the
    client-chosen [id] (responses are {e not} ordered: cache hits are
    answered immediately while older misses are still computing).

    {2 Request lifecycle}

    Each connection gets a reader thread.  Per line it decodes the
    request (malformed lines answer [bad_request], foreign ["api"]
    tags [unsupported_version]), answers [ping] inline, and otherwise
    consults the two-tier response cache:

    - {b memory tier}: a {!Rchls_util.Memo} of serialized payloads
      keyed by {!Rchls_api.Request.cache_key}, at most [cache_entries]
      of them — hits answer immediately with [cache.tier = "memory"];
    - {b disk tier} (when [cache_dir] is set): a
      {!Rchls_util.Diskcache} of version-tagged entries surviving
      restarts — hits are promoted to the memory tier and answer with
      [cache.tier = "disk"];
    - {b miss}: the job joins the global queue.  A full queue is
      backpressure: the request answers [overloaded] immediately
      rather than queueing unboundedly.

    A single scheduler thread drains the queue in batches of at most
    [batch_max] and fans each batch across the domain pool
    ({!Rchls_util.Pool.map}, [domains] workers); every job inside a
    batch runs with [~domains:1] so the pool is never oversubscribed.
    Computed payloads enter both cache tiers before the response is
    written.  All synthesis is deterministic, so a payload is
    byte-identical whether computed fresh (in any batch, under any
    domain count) or served from either tier — only the [cache] field
    of the envelope differs.

    Engine evaluation caches live in a bounded
    {!Rchls_experiments.Service.t} registry keyed per (graph, library,
    scheduler) and stay warm across requests, so even non-identical
    jobs over the same inputs (a bounds sweep after a synth, say)
    reuse realized designs.

    {2 Observability}

    The daemon is instrumented end to end through
    [Rchls_util.Telemetry]:

    - {b counters} — [serve.requests], [serve.hits.memory]/[.disk],
      [serve.misses], [serve.overloaded], [serve.batches],
      [serve.responses], [serve.response_bytes] (lines actually
      written), [serve.disconnects] (connections whose peer hung up
      before a response was written; counted once each, at the first
      failed write), [serve.undelivered] (accounted requests whose
      response was never written, logged with status [disconnected];
      a queued job whose client is already gone is not computed),
      plus admin traffic
      ([serve.pings], [serve.admin.stats]/[.health], [serve.scrapes],
      [serve.malformed]) — all pre-registered at {!start} so a scrape
      before any traffic already carries every series at zero;
    - {b gauges} — [serve.queue_depth], [serve.inflight],
      [serve.connections], [serve.pool_domains], and the entry counts
      [serve.memory.entries] and [service.registry.entries] of the
      memory tier and the engine-cache registry (whose bound-triggered
      clears count [serve.memory.evictions] and
      [service.registry.evictions]);
    - {b rolling windows} (60 s) — [serve.request] (receipt to
      response write), [serve.queue_wait] and [serve.exec] for
      computed jobs;
    - {b per-response timing} — every response envelope carries a
      [timing] field ([queue_ns]/[exec_ns]/[total_ns]);
    - {b trace spans} — each computed job runs inside a [serve.job]
      span with [kind]/[id] attributes, so [--trace-out] correlates
      daemon work by request id;
    - {b admin kinds} — [stats] (a full metrics snapshot) and
      [health] (queue depth vs. limit, in-flight jobs) are answered
      inline from the reader thread, never queued — they work exactly
      when the queue is saturated;
    - {b scrape endpoint} ([config.metrics]) — a minimal HTTP/1.0
      listener: any path serves the Prometheus text exposition,
      [/json] the JSON snapshot.  One thread serves scrapes in turn,
      and each scrape socket times out a read after 2 s, so a client
      that connects and stays silent delays other scrapes and {!stop}
      by at most that long;
    - {b access log} ([config.access_log]) — one JSONL record per
      decoded non-admin request ({!Rchls_serve.Access_log}), so
      [serve.requests] equals the record count over the same
      interval (flushed before every [stats] answer and scrape).

    {!stop} is graceful: queued jobs are answered before the scheduler
    exits, then connections are shut down and all threads joined.  The
    server is in-process-embeddable — the socket tests and the
    benchmark harness start one inside the test process. *)

type addr =
  | Unix_socket of string  (** path; replaced if it already exists *)
  | Tcp of string * int  (** host, port; port [0] binds an ephemeral port *)

type config = {
  addr : addr;
  cache_dir : string option;
      (** enables the persistent disk tier rooted at this directory *)
  cache_entries : int;  (** bound on each tier (memory and disk) *)
  domains : int option;
      (** batch fan-out width; [None] = [Pool.num_domains ()] *)
  batch_max : int;  (** jobs computed per scheduler round *)
  queue_max : int;  (** queued jobs beyond which requests are refused *)
  metrics : addr option;
      (** enables the HTTP scrape endpoint on this address *)
  access_log : (string * int) option;
      (** path and rotation size for the per-request JSONL log *)
}

val default_config : addr -> config
(** No disk tier, 4096 cached entries, default domains, [batch_max =
    8], [queue_max = 64], no metrics endpoint, no access log. *)

type t

val start : config -> (t, string) result
(** Bind, listen and spawn the accept + scheduler threads.  [Error]
    on an unbindable socket or unusable cache directory.

    Sets [SIGPIPE] to be ignored for the whole process (and leaves it
    so after {!stop}): a client that hangs up before its response is
    written must cost one counted disconnect, not the process, and the
    default action of [SIGPIPE] is to end it. *)

val port : t -> int option
(** The actually bound TCP port ([Some] even when the config said
    port [0]); [None] for Unix-domain sockets. *)

val metrics_port : t -> int option
(** The scrape endpoint's bound TCP port; [None] when [config.metrics]
    is unset or a Unix-domain socket. *)

val stop : t -> unit
(** Drain the queue, close every connection, join all threads and
    unlink a Unix-domain socket path.  Idempotent. *)
