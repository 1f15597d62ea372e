module Json = Rchls_util.Json

type design_summary = {
  latency : int;
  area : int;
  reliability : float;
  instances : (string * int) list;
}

type failure =
  | Latency_infeasible of { best_achievable : int }
  | Area_infeasible of { best_achieved : int }
  | Scheduling_error of string

type cell = {
  ld : int;
  ad : int;
  reliability : float option;
  area : int option;
}

type frontier_point = {
  f_ld : int;
  f_ad : int;
  f_reliability : float;
  f_area : int;
}

type explore_summary = {
  points : frontier_point list;
  cells : int;
  evaluated : int;
  derived : int;
}

type fuzz_failure = {
  case : int;
  message : string;
  shrink_steps : int;
  counterexample : string;
}

type fuzz_outcome = {
  property : string;
  cases : int;
  failure : fuzz_failure option;
}

type window_stat = {
  count : int;
  sum_ns : int;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : int;
  window_ns : int;
}

type stats = {
  uptime_ns : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  windows : (string * window_stat) list;
}

type health = {
  healthy : bool;
  uptime_ns : int;
  queue_depth : int;
  queue_max : int;
  in_flight : int;
}

type anneal_report = {
  greedy : (design_summary, failure) result;
  annealed : (design_summary, failure) result;
  a_moves : int;
  a_accepted : int;
  a_pruned : int;
  a_exchanges : int;
  a_chains : int;
  a_improved : bool;
}

type payload =
  | Design of (design_summary, failure) result
  | Anneal_result of anneal_report
  | Sweep_cells of cell list
  | Explore_frontier of explore_summary
  | Check_report of {
      result : (design_summary, failure) result;
      violations : string list;
    }
  | Fuzz_report of fuzz_outcome list
  | Pong
  | Stats_snapshot of stats
  | Health_report of health

type error_code = Bad_request | Unsupported_version | Overloaded | Internal
type error = { code : error_code; message : string }
type tier = Memory | Disk
type cache_info = { tier : tier; key : string }
type timing = { queue_ns : int; exec_ns : int; total_ns : int }

type t = {
  id : string option;
  result : (payload, error) result;
  cache : cache_info option;
  timing : timing option;
}

let error_codes =
  [
    ("bad_request", Bad_request);
    ("unsupported_version", Unsupported_version);
    ("overloaded", Overloaded);
    ("internal", Internal);
  ]

let error_code_name = Request.name_of error_codes
let tiers = [ ("memory", Memory); ("disk", Disk) ]
let tier_name = Request.name_of tiers

(* --- field descriptors (one list per record; both directions derive
   from it) ---------------------------------------------------------- *)

(* An object holding exactly one field: the value itself. *)
let one name c = Schema.(record Fun.id |+ req name c Fun.id |> seal)
let no_fields = Schema.(seal (record ()))

(* The design-summary / failure shapes extend the historical run-report
   [design_json]/[failure_json] forms with a "kind" discriminator;
   Rchls_experiments.Report delegates here, so reports and serve
   responses stay field-compatible. *)
let summary =
  let instance =
    Schema.(
      record (fun resource count -> (resource, count))
      |+ req "resource" string fst
      |+ req "count" int snd
      |> seal |> obj)
  in
  Schema.(
    record (fun latency area reliability instances ->
        { latency; area; reliability; instances })
    |+ req "latency" int (fun (s : design_summary) -> s.latency)
    |+ req "area" int (fun (s : design_summary) -> s.area)
    |+ req "reliability" float (fun (s : design_summary) -> s.reliability)
    |+ req "instances" (list instance) (fun (s : design_summary) -> s.instances)
    |> seal)

let failure =
  Schema.(
    variant ~tag:"reason" ~noun:"failure reason"
      [
        case "latency_infeasible"
          (one "best_achievable_latency" int)
          (fun n -> Latency_infeasible { best_achievable = n })
          (function Latency_infeasible { best_achievable } -> Some best_achievable | _ -> None);
        case "area_infeasible"
          (one "best_achieved_area" int)
          (fun n -> Area_infeasible { best_achieved = n })
          (function Area_infeasible { best_achieved } -> Some best_achieved | _ -> None);
        case "scheduling_error" (one "message" string)
          (fun m -> Scheduling_error m)
          (function Scheduling_error m -> Some m | _ -> None);
      ])

(* A design result without its "kind" tag (which the payload union and
   {!design} add). *)
let design_result =
  Schema.(
    variant ~tag:"status" ~noun:"design status"
      [
        case "ok" summary Result.ok Result.to_option;
        case "infeasible" failure Result.error (function Error f -> Some f | Ok _ -> None);
      ])

let design = Schema.(obj (const "kind" "design" design_result))

let cell =
  Schema.(
    record (fun ld ad reliability area -> { ld; ad; reliability; area })
    |+ req "ld" int (fun (c : cell) -> c.ld)
    |+ req "ad" int (fun (c : cell) -> c.ad)
    |+ dflt "reliability" (nullable float) None (fun (c : cell) -> c.reliability)
    |+ dflt "area" (nullable int) None (fun (c : cell) -> c.area)
    |> seal |> obj)

let frontier_point =
  Schema.(
    record (fun f_ld f_ad f_reliability f_area -> { f_ld; f_ad; f_reliability; f_area })
    |+ req "ld" int (fun p -> p.f_ld)
    |+ req "ad" int (fun p -> p.f_ad)
    |+ req "reliability" float (fun p -> p.f_reliability)
    |+ req "area" int (fun p -> p.f_area)
    |> seal |> obj)

let explore =
  let counts =
    Schema.(
      record (fun cells evaluated derived -> { points = []; cells; evaluated; derived })
      |+ req "cells" int (fun (e : explore_summary) -> e.cells)
      |+ req "evaluated" int (fun (e : explore_summary) -> e.evaluated)
      |+ req "derived" int (fun (e : explore_summary) -> e.derived)
      |> seal |> obj)
  in
  Schema.(
    record (fun points (counts : explore_summary) -> { counts with points })
    |+ req "frontier" (list frontier_point) (fun e -> e.points)
    |+ req "stats" counts Fun.id
    |> seal)

let check =
  Schema.(
    record (fun result violations -> (result, violations))
    |+ req "design" design fst
    |> derived "passed" bool (fun (_, violations) -> violations = [])
    |+ req "violations" strings snd
    |> seal)

let fuzz_outcome =
  let fuzz_failure =
    Schema.(
      record (fun case message shrink_steps counterexample ->
          { case; message; shrink_steps; counterexample })
      |+ req "case" int (fun (f : fuzz_failure) -> f.case)
      |+ req "message" string (fun (f : fuzz_failure) -> f.message)
      |+ req "shrink_steps" int (fun (f : fuzz_failure) -> f.shrink_steps)
      |+ req "counterexample" string (fun (f : fuzz_failure) -> f.counterexample)
      |> seal |> obj)
  in
  Schema.(
    record (fun property cases failure -> { property; cases; failure })
    |+ req "property" string (fun (o : fuzz_outcome) -> o.property)
    |+ req "cases" int (fun (o : fuzz_outcome) -> o.cases)
    |> derived "passed" bool (fun (o : fuzz_outcome) -> o.failure = None)
    |+ opt "failure" fuzz_failure (fun (o : fuzz_outcome) -> o.failure)
    |> seal |> obj)

let window_stat =
  Schema.(
    record (fun count sum_ns p50_ns p90_ns p99_ns max_ns window_ns ->
        { count; sum_ns; p50_ns; p90_ns; p99_ns; max_ns; window_ns })
    |+ req "count" int (fun (w : window_stat) -> w.count)
    |+ req "sum_ns" int (fun w -> w.sum_ns)
    |+ req "p50_ns" float (fun w -> w.p50_ns)
    |+ req "p90_ns" float (fun w -> w.p90_ns)
    |+ req "p99_ns" float (fun w -> w.p99_ns)
    |+ req "max_ns" int (fun w -> w.max_ns)
    |+ req "window_ns" int (fun w -> w.window_ns)
    |> seal |> obj)

let stats =
  Schema.(
    record (fun uptime_ns counters gauges windows -> { uptime_ns; counters; gauges; windows })
    |+ req "uptime_ns" int (fun (s : stats) -> s.uptime_ns)
    |+ req "counters" (assoc int) (fun s -> s.counters)
    |+ req "gauges" (assoc int) (fun s -> s.gauges)
    |+ req "windows" (assoc window_stat) (fun s -> s.windows)
    |> seal)

let health =
  Schema.(
    record (fun healthy uptime_ns queue_depth queue_max in_flight ->
        { healthy; uptime_ns; queue_depth; queue_max; in_flight })
    |+ req "healthy" bool (fun h -> h.healthy)
    |+ req "uptime_ns" int (fun (h : health) -> h.uptime_ns)
    |+ req "queue_depth" int (fun h -> h.queue_depth)
    |+ req "queue_max" int (fun h -> h.queue_max)
    |+ req "in_flight" int (fun h -> h.in_flight)
    |> seal)

(* Wire fields drop the record's [a_] prefix. *)
let anneal_report =
  Schema.(
    record (fun greedy annealed a_moves a_accepted a_pruned a_exchanges a_chains a_improved ->
        { greedy; annealed; a_moves; a_accepted; a_pruned; a_exchanges; a_chains; a_improved })
    |+ req "greedy" design (fun a -> a.greedy)
    |+ req "annealed" design (fun a -> a.annealed)
    |+ req "moves" int (fun a -> a.a_moves)
    |+ req "accepted" int (fun a -> a.a_accepted)
    |+ req "pruned" int (fun a -> a.a_pruned)
    |+ req "exchanges" int (fun a -> a.a_exchanges)
    |+ req "chains" int (fun a -> a.a_chains)
    |+ req "improved" bool (fun a -> a.a_improved)
    |> seal)

let payload =
  Schema.(
    union ~tag:"kind" ~noun:"payload kind"
      [
        case "design" design_result (fun r -> Design r) (function Design r -> Some r | _ -> None);
        case "anneal" anneal_report
          (fun a -> Anneal_result a)
          (function Anneal_result a -> Some a | _ -> None);
        case "sweep" (one "cells" (list cell))
          (fun cells -> Sweep_cells cells)
          (function Sweep_cells cells -> Some cells | _ -> None);
        case "explore" explore
          (fun e -> Explore_frontier e)
          (function Explore_frontier e -> Some e | _ -> None);
        case "check" check
          (fun (result, violations) -> Check_report { result; violations })
          (function Check_report { result; violations } -> Some (result, violations) | _ -> None);
        case "fuzz" (one "outcomes" (list fuzz_outcome))
          (fun os -> Fuzz_report os)
          (function Fuzz_report os -> Some os | _ -> None);
        case "pong" no_fields (fun () -> Pong) (function Pong -> Some () | _ -> None);
        case "stats" stats (fun s -> Stats_snapshot s) (function Stats_snapshot s -> Some s | _ -> None);
        case "health" health (fun h -> Health_report h) (function Health_report h -> Some h | _ -> None);
      ])

let error =
  Schema.(
    record (fun code message -> { code; message })
    |+ req "code" (enum ~noun:"error code" error_codes) (fun (e : error) -> e.code)
    |+ req "message" string (fun (e : error) -> e.message)
    |> seal |> obj)

let cache_info =
  Schema.(
    record (fun tier key -> { tier; key })
    |+ req "tier" (enum ~noun:"cache tier" tiers) (fun (c : cache_info) -> c.tier)
    |+ req "key" string (fun (c : cache_info) -> c.key)
    |> seal |> obj)

let timing =
  Schema.(
    record (fun queue_ns exec_ns total_ns -> { queue_ns; exec_ns; total_ns })
    |+ req "queue_ns" int (fun (t : timing) -> t.queue_ns)
    |+ req "exec_ns" int (fun t -> t.exec_ns)
    |+ req "total_ns" int (fun t -> t.total_ns)
    |> seal |> obj)

(* The payload reports its errors under "result" wherever it sits, as
   when a disk-cache entry is decoded alone. *)
let outcome =
  Schema.(
    variant ~tag:"status" ~noun:"status"
      [
        case "ok" (one "result" (rooted payload)) Result.ok Result.to_option;
        case "error" (one "error" error) Result.error (function Error e -> Some e | Ok _ -> None);
      ])

let envelope =
  Schema.(
    record (fun id result cache timing -> { id; result; cache; timing })
    |+ opt "id" string (fun (t : t) -> t.id)
    |+ group outcome (fun (t : t) -> t.result)
    |+ opt "cache" cache_info (fun (t : t) -> t.cache)
    |+ opt "timing" timing (fun (t : t) -> t.timing)
    |> seal |> versioned |> obj)

let design_result_to_json r = Schema.encode design r
let payload_to_json p = Schema.encode payload p
let payload_of_json j = Schema.decode payload ~what:"result" j
let encode t = Schema.encode envelope t
let to_string t = Json.to_string (encode t)
let decode j = Schema.decode envelope ~what:"response" j

let of_string line =
  match Json.of_string line with
  | Error e -> Error ("response: " ^ e)
  | Ok j -> decode j

(* Disk entries are version-tagged so a future payload format reads as
   a miss, never as a wrong answer. *)
let disk_entry payload_json =
  Printf.sprintf "{\"schema\":%s,\"payload\":%s}"
    (Json.to_string (Json.Str Schema.cache_entry))
    payload_json

let payload_of_disk_entry text =
  match Json.of_string text with
  | Error _ -> None
  | Ok j -> (
    match (Json.member "schema" j, Json.member "payload" j) with
    | Some (Json.Str tag), Some payload when tag = Schema.cache_entry -> (
      (* Re-validate before trusting a file another process may have
         written; the canonical printer makes the re-rendering
         byte-identical to the originally stored payload. *)
      match payload_of_json payload with
      | Ok _ -> Some (Json.to_string payload)
      | Error _ -> None)
    | _ -> None)

(* A cache hit's payload is already serialized: render the envelope
   around a stand-in payload and splice the stored bytes in its place,
   so cached and computed responses share every envelope byte.  The
   stand-in cannot occur earlier in the line — only the "api" tag and
   the id string precede it, and a rendered string holds no bare
   quote. *)
let stand_in = Json.to_string (payload_to_json Pong)

let assemble_raw ~id ~cache ?timing payload_json =
  let line = to_string { id; result = Ok Pong; cache; timing } in
  let n = String.length stand_in and p = String.length payload_json in
  let rec at i k = k = n || (line.[i + k] = stand_in.[k] && at i (k + 1)) in
  let rec find i =
    let i = String.index_from line i stand_in.[0] in
    if at i 0 then i else find (i + 1)
  in
  let i = find 1 in
  let rest = String.length line - i - n in
  let b = Bytes.create (i + p + rest) in
  Bytes.blit_string line 0 b 0 i;
  Bytes.blit_string payload_json 0 b i p;
  Bytes.blit_string line (i + n) b (i + p) rest;
  Bytes.unsafe_to_string b
