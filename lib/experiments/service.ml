module Request = Rchls_api.Request
module Response = Rchls_api.Response
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Check = Rchls_check.Check
module Fuzz = Rchls_check.Fuzz
module Anneal = Rchls_anneal.Anneal
module Fnv = Rchls_util.Fnv
module Memo = Rchls_util.Memo
module Telemetry = Rchls_util.Telemetry

(* --- API -> core ------------------------------------------------------ *)

(* The core's scheduler keeps the oracle-only [`Density_reference],
   which the wire does not carry, so it is not the wire's type; every
   other request value is the core's own. *)
let scheduler_of_api : Request.scheduler -> Design.scheduler = function
  | Request.Density -> `Density
  | Request.Force_directed -> `Force_directed

let approach_of_api : Request.approach -> Sweep.approach = Fun.id

let summary_of_design d =
  {
    Response.latency = Design.latency d;
    area = Design.area d;
    reliability = Design.reliability d;
    instances =
      List.map
        (fun ((r : Rchls_charlib.Resource.t), n) -> (r.id, n))
        (Design.instance_histogram d);
  }

let outcome_of_fuzz (o : Fuzz.outcome) =
  {
    Response.property = o.property;
    cases = o.cases_run;
    failure =
      Option.map
        (fun (f : Fuzz.failure) ->
          {
            Response.case = f.case;
            message = f.message;
            shrink_steps = f.shrink_steps;
            counterexample = Rchls_check.Gen.spec_to_text f.spec;
          })
        o.failure;
  }

(* --- input resolution ---------------------------------------------- *)

type resolved = {
  graph : Rchls_dfg.Dfg.t;
  library : Rchls_charlib.Library.t;
  graph_digest : int64;
  library_digest : int64;
}

let ( let* ) = Result.bind

(* Parse and render in the order the sources are named, so the first
   failing source names the error. *)
let resolve_inputs graph_input library_input =
  let* graph = Result.bind graph_input (Loader.value_of Rchls_dfg.Parse.of_text) in
  let* library =
    Result.bind library_input (Loader.value_of Rchls_charlib.Library.of_text)
  in
  Ok
    {
      graph;
      library;
      graph_digest = Fnv.hash_string (Rchls_dfg.Parse.to_text graph);
      library_digest = Fnv.hash_string (Rchls_charlib.Library.to_text library);
    }

let resolve graph_src library_src =
  resolve_inputs (Loader.graph_input graph_src) (Loader.library_input library_src)

(* --- engine-cache registry ----------------------------------------- *)

(* One engine evaluation cache per (graph, library, scheduler): the
   cache key preimage ([Engine.fingerprint]) covers version codes and
   latency only, so sharing a cache across different inputs would be
   unsound — the registry key carries everything else that shapes a
   realized design.  Each cache is bounded by its own memos, so the
   registry's entry bound bounds the whole. *)
type t = (int64 * int64 * Request.scheduler, Engine.cache) Memo.t

let registry_max_entries = 48

let create () =
  Memo.create ~name:"service.registry" ~gauge:true ~max_entries:registry_max_entries ()

let engine_cache t r scheduler =
  Memo.find_or_add t (r.graph_digest, r.library_digest, scheduler) Engine.create_cache

(* --- the resolve memo ------------------------------------------------ *)

(* Process-wide, like [Fault_sim]'s report memo: {!cache_key} takes no
   [t].  Keyed on the exact source texts (a built-in's name, otherwise
   the inline text or the file's contents as read by this call), never
   on a digest, so no collision can hand one graph another's
   resolution, and an edited file is a new key.  Errors are never
   stored: a failing source fails the same way on every call.  The
   shared graph and library values are only read after construction. *)
let memo_max_entries = 256
let memo_max_bytes = 4 lsl 20

let input_key : _ Loader.input -> unit Loader.input = function
  | Loader.Builtin (name, _) -> Loader.Builtin (name, ())
  | Loader.Text text -> Loader.Text text

(* An entry's cost is its key's texts plus the values parsed from
   them.  A parsed graph holds 84 words, 16 per node and 6 per edge, and
   a parsed library 32 words and 22 per version: within 5% of
   [Obj.reachable_words] on chains and fan-outs of 4 to 20000 nodes and
   on Table 1.  A built-in's value is shared with its table and costs
   the entry nothing; the record and its digests are 16 words. *)
let word = Sys.word_size / 8

let input_bytes (input : unit Loader.input) ~parsed_words =
  match input with
  | Loader.Builtin (name, ()) -> String.length name
  | Loader.Text text -> String.length text + (word * parsed_words)

let resolved_bytes (g, l) r =
  let module Dfg = Rchls_dfg.Dfg in
  (16 * word)
  + input_bytes g
      ~parsed_words:(84 + (16 * Dfg.node_count r.graph) + (6 * Dfg.edge_count r.graph))
  + input_bytes l ~parsed_words:(32 + (22 * Rchls_charlib.Library.size r.library))

let memo : (unit Loader.input * unit Loader.input, resolved) Memo.t =
  Memo.create ~name:"service.resolve" ~gauge:true ~max_entries:memo_max_entries
    ~max_bytes:memo_max_bytes ~cost:resolved_bytes ()

(* [store] keeps a miss's resolution.  Only {!cache_key} stores: the
   executors look up (a served miss finds what its key stored) but a
   one-shot caller, such as an explore over a corpus, never fills the
   memo with inputs no request will repeat. *)
let resolve_memo ~store graph_src library_src =
  match (Loader.graph_input graph_src, Loader.library_input library_src) with
  | Ok gi, Ok li -> (
    let key = (input_key gi, input_key li) in
    match Memo.find memo key with
    | Some r -> Ok r
    | None ->
      let result = resolve_inputs (Ok gi) (Ok li) in
      if store then Result.iter (Memo.add memo key) result;
      result)
  | graph_input, library_input -> resolve_inputs graph_input library_input

let cache_key job =
  match (job : Request.job) with
  | Request.Ping | Request.Stats | Request.Health -> Ok None
  | Request.Fuzz _ -> Ok (Request.cache_key job)
  | Request.Synth { graph; library; _ }
  | Request.Anneal { graph; library; _ }
  | Request.Check { graph; library; _ }
  | Request.Sweep { graph; library; _ }
  | Request.Explore { graph; library; _ } ->
    let* r = resolve_memo ~store:true graph library in
    Ok
      (Request.cache_key ~graph_digest:r.graph_digest ~library_digest:r.library_digest
         job)

(* --- executors ------------------------------------------------------ *)

(* Every executor checks that the library has a version for each
   operation class the graph uses; {!cache_key} does not, so a served
   hit pays nothing for it. *)
let resolved_or ?resolved graph library =
  let* r =
    match resolved with
    | Some r -> Ok r
    | None -> resolve_memo ~store:false graph library
  in
  let* () = Loader.covers r.graph r.library in
  Ok r

let shared_cache ?service ~resolved scheduler =
  Option.map (fun t -> engine_cache t resolved scheduler) service

let run_synth ?service ?resolved (s : Request.synth) =
  let* r = resolved_or ?resolved s.graph s.library in
  let scheduler = scheduler_of_api s.scheduler in
  let cache = shared_cache ?service ~resolved:r s.scheduler in
  Ok
    (Engine.synthesize ~scheduler ~strategy:s.strategy ?cache r.graph r.library ~ld:s.ld
       ~ad:s.ad)

let run_anneal ?service ?resolved ?domains:_ (a : Request.anneal) =
  let* r = resolved_or ?resolved a.graph a.library in
  let scheduler = scheduler_of_api a.scheduler in
  let cache = shared_cache ?service ~resolved:r a.scheduler in
  let params =
    {
      Anneal.default_params with
      seed = a.seed;
      moves = a.moves;
      chains = a.chains;
      exchange = a.exchange;
    }
  in
  Ok
    (Anneal.synthesize ~scheduler ~strategy:a.strategy ?cache ~params r.graph r.library
       ~ld:a.ld ~ad:a.ad)

let render_violation v = Format.asprintf "%a" Check.pp_violation v

(* The checker's direct entry point, not its global [enable] hook, so
   concurrent daemon jobs cannot race on checker state. *)
let run_check ?service ?resolved (s : Request.synth) =
  let* result = run_synth ?service ?resolved s in
  Ok
    (Result.map
       (fun d -> (d, List.map render_violation (Check.design_violations d)))
       result)

let run_sweep ?service ?resolved ?domains (s : Request.sweep) =
  let* r = resolved_or ?resolved s.graph s.library in
  let scheduler = scheduler_of_api s.scheduler in
  let cache = shared_cache ?service ~resolved:r s.scheduler in
  Ok
    (Sweep.run ~scheduler ?domains ?cache s.approach r.graph r.library ~lds:s.lds
       ~ads:s.ads)

(* Empty bound lists mean "plan the plane from the inputs" — the API
   decode default when the explore request omits lds/ads. *)
let run_explore ?service ?resolved ?domains (s : Request.sweep) =
  let* r = resolved_or ?resolved s.graph s.library in
  let scheduler = scheduler_of_api s.scheduler in
  let cache = shared_cache ?service ~resolved:r s.scheduler in
  let planned = lazy (Explore.plan r.graph r.library) in
  let lds = match s.lds with [] -> fst (Lazy.force planned) | lds -> lds in
  let ads = match s.ads with [] -> snd (Lazy.force planned) | ads -> ads in
  let cells, stats =
    Sweep.run_with_stats ~scheduler ?domains ?cache s.approach r.graph r.library ~lds
      ~ads
  in
  Ok (Explore.frontier cells, stats)

let run_fuzz (f : Request.fuzz) =
  match
    Fuzz.run ~max_nodes:f.max_nodes ?properties:f.properties ~seed:f.seed
      ~cases:f.cases ()
  with
  | outcomes -> Ok outcomes
  | exception Invalid_argument msg -> Error msg

(* --- payload assembly ----------------------------------------------- *)

let payload_of_synth result = Response.Design (Result.map summary_of_design result)

let payload_of_anneal result =
  match result with
  | Ok (greedy, annealed, (s : Anneal.stats)) ->
    Response.Anneal_result
      {
        Response.greedy = Ok (summary_of_design greedy);
        annealed = Ok (summary_of_design annealed);
        a_moves = s.attempted;
        a_accepted = s.accepted;
        a_pruned = s.pruned;
        a_exchanges = s.exchanges;
        a_chains = s.chain_count;
        a_improved = s.improved;
      }
  | Error f ->
    let failure = Error f in
    Response.Anneal_result
      {
        Response.greedy = failure;
        annealed = failure;
        a_moves = 0;
        a_accepted = 0;
        a_pruned = 0;
        a_exchanges = 0;
        a_chains = 0;
        a_improved = false;
      }

let payload_of_check result =
  match result with
  | Ok (d, violations) ->
    Response.Check_report { result = Ok (summary_of_design d); violations }
  | Error f ->
    Response.Check_report { result = Error f; violations = [] }

let payload_of_sweep cells = Response.Sweep_cells cells

let payload_of_explore (points, (stats : Explore.stats)) =
  Response.Explore_frontier
    {
      Response.points =
        List.map
          (fun (p : Explore.point) ->
            {
              Response.f_ld = p.p_ld;
              f_ad = p.p_ad;
              f_reliability = p.p_reliability;
              f_area = p.p_area;
            })
          points;
      cells = stats.cells;
      evaluated = stats.evaluated;
      derived = stats.derived;
    }

let payload_of_fuzz outcomes =
  Response.Fuzz_report (List.map outcome_of_fuzz outcomes)

let window_stat ~window_ns (h : Telemetry.hist) =
  {
    Response.count = h.count;
    sum_ns = Int64.to_int h.sum_ns;
    p50_ns = h.p50_ns;
    p90_ns = h.p90_ns;
    p99_ns = h.p99_ns;
    max_ns = Int64.to_int h.max_ns;
    window_ns = Int64.to_int window_ns;
  }

let stats_payload () =
  let snap = Telemetry.snapshot () in
  Response.Stats_snapshot
    {
      Response.uptime_ns = Int64.to_int (Telemetry.uptime_ns ());
      counters = snap.counters;
      gauges = snap.gauges;
      windows =
        List.map (fun (n, h) -> (n, window_stat ~window_ns:snap.window_ns h)) snap.windows;
    }

let health_payload ~healthy ~queue_depth ~queue_max ~in_flight =
  Response.Health_report
    {
      Response.healthy;
      uptime_ns = Int64.to_int (Telemetry.uptime_ns ());
      queue_depth;
      queue_max;
      in_flight;
    }

let run_job ?service ?domains job =
  let bad msg = Error { Response.code = Response.Bad_request; message = msg } in
  match
    match (job : Request.job) with
    | Request.Ping -> Ok Response.Pong
    | Request.Stats -> Ok (stats_payload ())
    | Request.Health ->
      (* In-process execution has no admission queue or pool of its
         own; the daemon overrides all four fields with live values. *)
      Ok (health_payload ~healthy:true ~queue_depth:0 ~queue_max:0 ~in_flight:0)
    | Request.Synth s -> (
      match run_synth ?service s with
      | Ok r -> Ok (payload_of_synth r)
      | Error msg -> bad msg)
    | Request.Anneal a -> (
      match run_anneal ?service a with
      | Ok r -> Ok (payload_of_anneal r)
      | Error msg -> bad msg)
    | Request.Check s -> (
      match run_check ?service s with
      | Ok r -> Ok (payload_of_check r)
      | Error msg -> bad msg)
    | Request.Sweep s -> (
      match run_sweep ?service ?domains s with
      | Ok cells -> Ok (payload_of_sweep cells)
      | Error msg -> bad msg)
    | Request.Explore s -> (
      match run_explore ?service ?domains s with
      | Ok r -> Ok (payload_of_explore r)
      | Error msg -> bad msg)
    | Request.Fuzz f -> (
      match run_fuzz f with
      | Ok outcomes -> Ok (payload_of_fuzz outcomes)
      | Error msg -> bad msg)
  with
  | result -> result
  | exception exn ->
    Error
      {
        Response.code = Response.Internal;
        message = Printexc.to_string exn;
      }
