(** Versioned job responses — schema ["rchls.api/1"].

    The response payload encodings here are {e the} result vocabulary
    of the system: the serve daemon's wire responses, the CLI's
    [--report json] run reports ([Rchls_experiments.Report] builds its
    [result] field with these encoders) and the persisted
    response-cache entries all share them, so a design summary looks
    the same everywhere it appears.

    Wire form:

    {v
    {"api":"rchls.api/1","id":"j1","status":"ok",
     "result":{"kind":"design","status":"ok","latency":14,...},
     "cache":{"tier":"disk","key":"64c5f1a2b3e4d5c6"}}
    v}

    [decode (encode r) = r] for every value of {!t} (QCheck-tested);
    decoding is strict about unknown fields and the ["api"] tag,
    exactly like {!Request}, and the ["passed"] flags the encoder
    derives (check payloads, fuzz outcomes) must be present and agree
    with the decoded record. *)

module Json = Rchls_util.Json

type design_summary = {
  latency : int;
  area : int;
  reliability : float;
  instances : (string * int) list;  (** resource id, instance count *)
}

type failure =
  | Latency_infeasible of { best_achievable : int }
  | Area_infeasible of { best_achieved : int }
  | Scheduling_error of string

type cell = {
  ld : int;
  ad : int;
  reliability : float option;  (** [None] = infeasible *)
  area : int option;
}

type frontier_point = {
  f_ld : int;  (** the latency bound that admits this point *)
  f_ad : int;  (** the area bound that admits this point *)
  f_reliability : float;
  f_area : int;  (** achieved area (≤ [f_ad]) *)
}
(** One non-dominated point of a 3-D (latency, area, reliability)
    Pareto frontier. *)

type explore_summary = {
  points : frontier_point list;
      (** the frontier, sorted by [(ld, ad)] ascending *)
  cells : int;  (** bound-plane size swept *)
  evaluated : int;  (** cells that ran the synthesis engine *)
  derived : int;
      (** cells filled from certified ad-intervals without a synthesis
          call ([cells = evaluated + derived]) *)
}

type fuzz_failure = {
  case : int;
  message : string;
  shrink_steps : int;
  counterexample : string;  (** the shrunk blueprint, replayable [.dfg] text *)
}

type fuzz_outcome = {
  property : string;
  cases : int;
  failure : fuzz_failure option;
}

type window_stat = {
  count : int;  (** observations inside the sliding window *)
  sum_ns : int;
  p50_ns : float;  (** log2-bucket estimates (see Rchls_util.Telemetry) *)
  p90_ns : float;
  p99_ns : float;
  max_ns : int;  (** exact *)
  window_ns : int;  (** the window the stat covers *)
}

type stats = {
  uptime_ns : int;
  counters : (string * int) list;  (** cumulative Telemetry counters *)
  gauges : (string * int) list;  (** instantaneous values *)
  windows : (string * window_stat) list;
      (** rolling-window latency percentiles *)
}

type health = {
  healthy : bool;
  uptime_ns : int;
  queue_depth : int;  (** jobs waiting for the scheduler *)
  queue_max : int;  (** admission limit ([Overloaded] beyond it) *)
  in_flight : int;  (** jobs currently executing on the pool *)
}

type anneal_report = {
  greedy : (design_summary, failure) result;
      (** the greedy engine's seed design *)
  annealed : (design_summary, failure) result;
      (** the annealed design — equal to [greedy] when no strict
          improvement was found; reliability never below the greedy's *)
  a_moves : int;  (** moves attempted, summed over chains *)
  a_accepted : int;
  a_pruned : int;  (** moves skipped by the occupancy lower bound *)
  a_exchanges : int;  (** accepted temperature swaps *)
  a_chains : int;
  a_improved : bool;
}
(** Answer to the [anneal] kind: both designs plus move statistics.
    Wire fields drop the [a_] prefix (["moves"], ["accepted"], ...). *)

type payload =
  | Design of (design_summary, failure) result
      (** a synthesis result: achieved design or structured
          infeasibility *)
  | Anneal_result of anneal_report
  | Sweep_cells of cell list
  | Explore_frontier of explore_summary
      (** answer to the [explore] kind: the Pareto frontier plus
          pruning statistics *)
  | Check_report of {
      result : (design_summary, failure) result;
      violations : string list;
          (** rendered checker violations; empty = the design passed
              independent validation *)
    }
  | Fuzz_report of fuzz_outcome list
  | Pong
  | Stats_snapshot of stats  (** answer to the [stats] admin kind *)
  | Health_report of health  (** answer to the [health] admin kind *)

type error_code = Bad_request | Unsupported_version | Overloaded | Internal

type error = { code : error_code; message : string }

type tier = Memory | Disk

type cache_info = {
  tier : tier;  (** which tier served this response *)
  key : string;  (** the 16-hex-digit response-cache key *)
}

type timing = {
  queue_ns : int;  (** admission-queue wait (0 for inline answers) *)
  exec_ns : int;  (** job execution on the pool (or cache lookup) *)
  total_ns : int;  (** receipt of the request line to response write *)
}

type t = {
  id : string option;  (** echo of the request id *)
  result : (payload, error) result;
  cache : cache_info option;
      (** present iff the payload was served from a warm tier *)
  timing : timing option;
      (** server-side latency breakdown; the daemon stamps it on every
          response, in-process execution leaves it [None] *)
}

val payload_to_json : payload -> Json.t
(** The [result] field alone — also the form persisted by the disk
    tier and embedded by run reports. *)

val payload_of_json : Json.t -> (payload, string) result

val design_result_to_json : (design_summary, failure) result -> Json.t
(** The design-or-infeasible sub-encoding ([{"kind":"design",...}]),
    shared by {!Design} and {!Check_report} and reused directly by
    [Rchls_experiments.Report]. *)

val error_code_name : error_code -> string

val encode : t -> Json.t

val to_string : t -> string
(** Compact one-line rendering — the serve wire form. *)

val assemble_raw :
  id:string option -> cache:cache_info option -> ?timing:timing -> string -> string
(** [assemble_raw ~id ~cache ?timing payload_json] builds the same
    wire line as [to_string] for a successful response whose payload
    is already serialized (a cache-tier hit) — the envelope logic
    stays in this module so cached and computed responses are
    byte-compatible. *)

val decode : Json.t -> (t, string) result

val of_string : string -> (t, string) result
