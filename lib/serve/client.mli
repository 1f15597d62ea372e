(** A minimal client for the {!Server} NDJSON protocol, used by the
    [rchls request] subcommand, the socket tests and the [bench serve]
    load generator.

    {!send} and {!recv} are independent so callers can pipeline: write
    a whole batch of requests, then collect the responses.  Responses
    are correlated by [id], {e not} by order — the server answers
    cache hits immediately while older misses are still computing. *)

type t

val connect_unix : string -> (t, string) result
val connect_tcp : host:string -> port:int -> (t, string) result

val set_receive_timeout : t -> float -> unit
(** Arm a socket receive timeout (seconds; non-positive values are
    ignored): a {!recv} that waits longer fails with
    ["recv: timed out waiting for a response"] instead of blocking
    forever on a stuck daemon.  Backs [rchls request --timeout]. *)

val send : t -> Rchls_api.Request.t -> (unit, string) result

val send_raw : t -> string -> (unit, string) result
(** Write one raw line (no trailing newline) — lets tests exercise the
    server's malformed-input paths. *)

val recv : t -> (Rchls_api.Response.t, string) result
(** Block for the next response line and decode it. *)

val recv_raw : t -> (string, string) result

val call : t -> Rchls_api.Request.t -> (Rchls_api.Response.t, string) result
(** [send] then [recv] — only safe when no other response is in
    flight on this connection. *)

val close : t -> unit
(** Flush pending output and close the socket descriptor, exactly once:
    a second [close] is a no-op, and {!send}/{!recv} then return an
    error instead of touching a descriptor number that may since have
    been reused. *)
