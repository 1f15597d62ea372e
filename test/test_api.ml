(* The Rchls_api surface and the serve daemon.

   - QCheck round-trips: [decode (encode r) = Ok r] for every request
     and response value the generators can build — the property the
     .mli files promise.
   - Strict decoding: unknown fields, duplicate keys and foreign
     ["api"] versions are rejected, never defaulted.
   - Response-cache keys: form-independence (a benchmark by name and
     the same graph inline share a key) and parameter sensitivity.
   - Diskcache: round-trip, overwrite, approximate-LRU eviction.
   - Socket tests: a live in-process daemon serving mixed concurrent
     jobs, with payloads asserted byte-identical across worker-domain
     counts, batch sizes and cache tiers, plus the backpressure and
     malformed-input answers. *)

module Request = Rchls_api.Request
module Response = Rchls_api.Response
module Service = Rchls_experiments.Service
module Server = Rchls_serve.Server
module Client = Rchls_serve.Client
module Diskcache = Rchls_util.Diskcache
module Json = Rchls_util.Json
module Telemetry = Rchls_util.Telemetry
module Benchmarks = Rchls_dfg.Benchmarks
module Parse = Rchls_dfg.Parse
module Gen = QCheck2.Gen

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* --- generators ------------------------------------------------------ *)

let gen_name = Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
let gen_text = Gen.(string_size ~gen:printable (int_range 0 20))
let gen_opt_id = Gen.(opt gen_name)

let gen_source =
  Gen.(
    oneof
      [
        map (fun s -> Request.Named s) gen_name;
        map (fun s -> Request.Inline s) gen_text;
      ])

let gen_library_source =
  Gen.(
    oneof
      [
        return Request.Lib_default;
        map (fun s -> Request.Lib_file s) gen_name;
        map (fun s -> Request.Lib_inline s) gen_text;
      ])

let gen_strategy =
  Gen.oneofl [ Request.Best; Request.Figure6; Request.Bottom_up ]

let gen_scheduler = Gen.oneofl [ Request.Density; Request.Force_directed ]

let gen_approach = Gen.oneofl [ Request.Ours; Request.Baseline; Request.Combined ]
let gen_bound = Gen.int_range 0 1000

(* A request's latency and area bounds start at 1 ([Request.validate]). *)
let gen_request_bound = Gen.int_range 1 1000

let gen_synth =
  Gen.(
    map
      (fun (graph, library, ld, ad, strategy, scheduler) ->
        { Request.graph; library; ld; ad; strategy; scheduler })
      (tup6 gen_source gen_library_source gen_request_bound gen_request_bound
         gen_strategy gen_scheduler))

let gen_sweep =
  Gen.(
    map
      (fun (graph, library, lds, ads, approach, scheduler) ->
        { Request.graph; library; lds; ads; approach; scheduler })
      (tup6 gen_source gen_library_source
         (list_size (int_range 0 5) gen_request_bound)
         (list_size (int_range 0 5) gen_request_bound)
         gen_approach gen_scheduler))

let gen_fuzz =
  Gen.(
    map
      (fun (seed, cases, max_nodes, properties) ->
        { Request.seed; cases; max_nodes; properties })
      (tup4 (int_range 0 10_000) (int_range 1 1000) (int_range 2 20)
         (opt (list_size (int_range 0 3) gen_name))))

let gen_anneal =
  Gen.(
    map
      (fun ((graph, library, ld, ad, strategy, scheduler), (seed, moves, chains, exchange)) ->
        {
          Request.graph;
          library;
          ld;
          ad;
          strategy;
          scheduler;
          seed;
          moves;
          chains;
          exchange;
        })
      (tup2
         (tup6 gen_source gen_library_source gen_request_bound gen_request_bound
            gen_strategy gen_scheduler)
         (tup4 (int_range 0 10_000) (int_range 0 10_000) (int_range 1 16)
            (int_range 1 500))))

let gen_job =
  Gen.(
    oneof
      [
        map (fun s -> Request.Synth s) gen_synth;
        map (fun a -> Request.Anneal a) gen_anneal;
        map (fun s -> Request.Sweep s) gen_sweep;
        map (fun s -> Request.Explore s) gen_sweep;
        map (fun s -> Request.Check s) gen_synth;
        map (fun f -> Request.Fuzz f) gen_fuzz;
        return Request.Ping;
        return Request.Stats;
        return Request.Health;
      ])

let gen_request =
  Gen.(map (fun (id, job) -> { Request.id; job }) (tup2 gen_opt_id gen_job))

let gen_summary =
  Gen.(
    map
      (fun (latency, area, reliability, instances) ->
        { Response.latency; area; reliability; instances })
      (tup4 gen_bound gen_bound (float_bound_inclusive 1.)
         (list_size (int_range 0 4) (tup2 gen_name (int_range 1 9)))))

let gen_failure =
  Gen.(
    oneof
      [
        map
          (fun n -> Response.Latency_infeasible { best_achievable = n })
          gen_bound;
        map (fun n -> Response.Area_infeasible { best_achieved = n }) gen_bound;
        map (fun m -> Response.Scheduling_error m) gen_text;
      ])

let gen_design_result =
  Gen.(
    oneof
      [ map Result.ok gen_summary; map Result.error gen_failure ])

let gen_cell =
  Gen.(
    map
      (fun (ld, ad, reliability, area) -> { Response.ld; ad; reliability; area })
      (tup4 gen_bound gen_bound
         (opt (float_bound_inclusive 1.))
         (opt gen_bound)))

let gen_frontier_point =
  Gen.(
    map
      (fun (f_ld, f_ad, f_reliability, f_area) ->
        { Response.f_ld; f_ad; f_reliability; f_area })
      (tup4 gen_bound gen_bound (float_bound_inclusive 1.) gen_bound))

let gen_explore_summary =
  Gen.(
    map
      (fun (points, cells, evaluated, derived) ->
        { Response.points; cells; evaluated; derived })
      (tup4
         (list_size (int_range 0 5) gen_frontier_point)
         gen_bound gen_bound gen_bound))

let gen_fuzz_outcome =
  Gen.(
    map
      (fun (property, cases, failure) -> { Response.property; cases; failure })
      (tup3 gen_name (int_range 0 1000)
         (opt
            (map
               (fun (case, message, shrink_steps, counterexample) ->
                 { Response.case; message; shrink_steps; counterexample })
               (tup4 (int_range 0 100) gen_text (int_range 0 50) gen_text)))))

(* Metric maps round-trip as JSON objects, so the generated names must
   be distinct (the decoder rejects duplicate keys). *)
let gen_metric_map gen_v =
  Gen.(
    map
      (fun pairs ->
        List.mapi (fun i (n, v) -> (Printf.sprintf "%s.%d" n i, v)) pairs)
      (list_size (int_range 0 4) (tup2 gen_name gen_v)))

(* Integral and half-integral floats survive the JSON text form
   exactly, so structural equality is a valid round-trip check. *)
let gen_quantile = Gen.(map (fun n -> float_of_int n /. 2.) gen_bound)

let gen_window_stat =
  Gen.(
    map
      (fun ((count, sum_ns, p50_ns, p90_ns, p99_ns), (max_ns, window_ns)) ->
        { Response.count; sum_ns; p50_ns; p90_ns; p99_ns; max_ns; window_ns })
      (tup2
         (tup5 gen_bound gen_bound gen_quantile gen_quantile gen_quantile)
         (tup2 gen_bound gen_bound)))

let gen_stats =
  Gen.(
    map
      (fun (uptime_ns, counters, gauges, windows) ->
        { Response.uptime_ns; counters; gauges; windows })
      (tup4 gen_bound (gen_metric_map gen_bound) (gen_metric_map gen_bound)
         (gen_metric_map gen_window_stat)))

let gen_health =
  Gen.(
    map
      (fun (healthy, uptime_ns, queue_depth, queue_max, in_flight) ->
        { Response.healthy; uptime_ns; queue_depth; queue_max; in_flight })
      (tup5 bool gen_bound gen_bound gen_bound gen_bound))

let gen_timing =
  Gen.(
    map
      (fun (queue_ns, exec_ns, total_ns) ->
        { Response.queue_ns; exec_ns; total_ns })
      (tup3 gen_bound gen_bound gen_bound))

let gen_payload =
  Gen.(
    oneof
      [
        map (fun r -> Response.Design r) gen_design_result;
        map
          (fun ((greedy, annealed), (a_moves, a_accepted, a_pruned, a_exchanges, a_chains, a_improved)) ->
            Response.Anneal_result
              {
                Response.greedy;
                annealed;
                a_moves;
                a_accepted;
                a_pruned;
                a_exchanges;
                a_chains;
                a_improved;
              })
          (tup2
             (tup2 gen_design_result gen_design_result)
             (tup6 gen_bound gen_bound gen_bound gen_bound (int_range 1 16) bool));
        map
          (fun cells -> Response.Sweep_cells cells)
          (list_size (int_range 0 6) gen_cell);
        map
          (fun (result, violations) -> Response.Check_report { result; violations })
          (tup2 gen_design_result (list_size (int_range 0 3) gen_text));
        map (fun e -> Response.Explore_frontier e) gen_explore_summary;
        map
          (fun os -> Response.Fuzz_report os)
          (list_size (int_range 0 3) gen_fuzz_outcome);
        return Response.Pong;
        map (fun s -> Response.Stats_snapshot s) gen_stats;
        map (fun h -> Response.Health_report h) gen_health;
      ])

let gen_error =
  Gen.(
    map
      (fun (code, message) -> { Response.code; message })
      (tup2
         (oneofl
            [
              Response.Bad_request;
              Response.Unsupported_version;
              Response.Overloaded;
              Response.Internal;
            ])
         gen_text))

let gen_cache_info =
  Gen.(
    map
      (fun (tier, key) -> { Response.tier; key })
      (tup2 (oneofl [ Response.Memory; Response.Disk ]) gen_name))

let gen_response =
  Gen.(
    map
      (fun (id, result, cache, timing) -> { Response.id; result; cache; timing })
      (tup4 gen_opt_id
         (oneof [ map Result.ok gen_payload; map Result.error gen_error ])
         (opt gen_cache_info) (opt gen_timing)))

(* --- codec round-trips ----------------------------------------------- *)

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request decode (encode r) = r" ~count:500 gen_request
    (fun r -> Request.of_string (Request.to_string r) = Ok r)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"response decode (encode r) = r" ~count:500
    gen_response (fun r -> Response.of_string (Response.to_string r) = Ok r)

let prop_assemble_raw_matches_encode =
  (* A cache hit splices the stored payload into the envelope by hand;
     the bytes must equal the structured encoder's. *)
  QCheck2.Test.make ~name:"assemble_raw = to_string on ok responses" ~count:300
    Gen.(tup4 gen_opt_id gen_payload (opt gen_cache_info) (opt gen_timing))
    (fun (id, payload, cache, timing) ->
      let structured =
        Response.to_string { Response.id; result = Ok payload; cache; timing }
      in
      let raw =
        Response.assemble_raw ~id ~cache ?timing
          (Json.to_string (Response.payload_to_json payload))
      in
      structured = raw)

(* --- strict decoding -------------------------------------------------- *)

let req_line fields = Printf.sprintf {|{"api":"rchls.api/1",%s}|} fields

let expect_error what line =
  match Request.of_string line with
  | Error e -> e
  | Ok _ -> Alcotest.failf "%s: accepted %s" what line

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let test_unknown_field_rejected () =
  let e =
    expect_error "typo'd param"
      (req_line
         {|"job":"synth","params":{"graph":{"name":"ewf"},"ld":1,"ad":1,"strateggy":"best"}|})
  in
  Alcotest.(check bool) "names the field" true (contains ~affix:"strateggy" e)

let test_duplicate_key_rejected () =
  let e =
    expect_error "duplicate key"
      {|{"api":"rchls.api/1","job":"ping","job":"ping"}|}
  in
  Alcotest.(check bool) "mentions duplicate" true (contains ~affix:"duplicate" e)

let test_version_mismatch_rejected () =
  let e = expect_error "foreign version" {|{"api":"rchls.api/2","job":"ping"}|} in
  Alcotest.(check bool) "canonical message" true
    (contains ~affix:"unsupported schema version" e)

let test_missing_required_rejected () =
  ignore
    (expect_error "missing ld"
       (req_line {|"job":"synth","params":{"graph":{"name":"ewf"},"ad":1}|}));
  ignore (expect_error "missing job" (req_line {|"id":"x"|}))

let test_defaults_applied () =
  let r =
    check_ok "minimal synth"
      (Request.of_string
         (req_line {|"job":"synth","params":{"graph":{"name":"ewf"},"ld":1,"ad":2}|}))
  in
  match r.Request.job with
  | Request.Synth s ->
    Alcotest.(check bool) "defaults" true
      (s.Request.strategy = Request.Best
      && s.Request.scheduler = Request.Density
      && s.Request.library = Request.Lib_default)
  | _ -> Alcotest.fail "decoded to the wrong job"

let test_anneal_decode () =
  (* Annealer knobs default to the annealer's own defaults (the API
     library cannot link it, so the codec spells them again and this
     pins the two copies together); unknown keys are rejected like any
     job. *)
  let r =
    check_ok "minimal anneal"
      (Request.of_string
         (req_line {|"job":"anneal","params":{"graph":{"name":"ewf"},"ld":19,"ad":18}|}))
  in
  let p = Rchls_anneal.Anneal.default_params in
  (match r.Request.job with
  | Request.Anneal a ->
    Alcotest.(check (list int)) "knob defaults = Anneal.default_params"
      [ p.seed; p.moves; p.chains; p.exchange ]
      [ a.Request.seed; a.Request.moves; a.Request.chains; a.Request.exchange ];
    Alcotest.(check bool) "synth defaults" true
      (a.Request.strategy = Request.Best
      && a.Request.scheduler = Request.Density)
  | _ -> Alcotest.fail "decoded to the wrong job");
  let e =
    expect_error "typo'd anneal knob"
      (req_line
         {|"job":"anneal","params":{"graph":{"name":"ewf"},"ld":19,"ad":18,"movess":9}|})
  in
  Alcotest.(check bool) "names the field" true (contains ~affix:"movess" e);
  ignore
    (expect_error "anneal requires bounds"
       (req_line {|"job":"anneal","params":{"graph":{"name":"ewf"},"ld":19}|}))

(* Each bound and annealer knob is checked against its lower limit,
   inclusive, by [Request.validate] and by the decoder alike. *)
let test_parameter_domains () =
  let anneal ?(ld = 8) ?(ad = 300) ?(moves = 2000) ?(chains = 4) ?(exchange = 50) () =
    Request.Anneal
      {
        Request.graph = Request.Named "fig4";
        library = Request.Lib_default;
        ld;
        ad;
        strategy = Request.Best;
        scheduler = Request.Density;
        seed = 1;
        moves;
        chains;
        exchange;
      }
  in
  let sweep lds ads =
    Request.Sweep
      {
        Request.graph = Request.Named "fig4";
        library = Request.Lib_default;
        lds;
        ads;
        approach = Request.Ours;
        scheduler = Request.Density;
      }
  in
  let verdict job =
    match Request.validate job with Ok () -> "ok" | Error (field, _) -> field
  in
  List.iter
    (fun (what, job, expected) ->
      Alcotest.(check string) what expected (verdict job);
      let decoded = Request.of_string (Request.to_string { Request.id = None; job }) in
      Alcotest.(check bool)
        (what ^ ": decode agrees")
        (expected = "ok")
        (Result.is_ok decoded))
    [
      ("lowest bounds", anneal ~ld:1 ~ad:1 (), "ok");
      ("no moves", anneal ~moves:0 (), "ok");
      ("one chain, exchange every move", anneal ~chains:1 ~exchange:1 (), "ok");
      ("ld 0", anneal ~ld:0 (), "ld");
      ("ad -2", anneal ~ad:(-2) (), "ad");
      ("moves -5", anneal ~moves:(-5) (), "moves");
      ("chains 0", anneal ~chains:0 (), "chains");
      ("exchange -1", anneal ~exchange:(-1) (), "exchange");
      ("empty lists", sweep [] [], "ok");
      ("lds entry 0", sweep [ 5; 0 ] [ 3 ], "lds");
      ("ads entry 0", sweep [ 5 ] [ 0 ], "ads");
    ]

let test_explore_bounds_optional () =
  (* An explore job is a sweep whose bound lists may be omitted — the
     executor then plans the plane itself. *)
  let r =
    check_ok "minimal explore"
      (Request.of_string
         (req_line {|"job":"explore","params":{"graph":{"name":"fig4"}}|}))
  in
  (match r.Request.job with
  | Request.Explore s ->
    Alcotest.(check bool) "bounds empty" true
      (s.Request.lds = [] && s.Request.ads = [])
  | _ -> Alcotest.fail "decoded to the wrong job");
  ignore
    (expect_error "sweep still requires bounds"
       (req_line {|"job":"sweep","params":{"graph":{"name":"fig4"}}|}))

let test_explore_job_executes () =
  let r =
    check_ok "explore request"
      (Request.of_string
         (req_line {|"job":"explore","params":{"graph":{"name":"fig4"}}|}))
  in
  match Service.run_job r.Request.job with
  | Ok (Response.Explore_frontier s) ->
    Alcotest.(check bool) "frontier non-empty" true (s.Response.points <> []);
    Alcotest.(check int) "cells = evaluated + derived" s.Response.cells
      (s.Response.evaluated + s.Response.derived);
    Alcotest.(check bool) "pruning derived cells" true (s.Response.derived > 0);
    List.iter
      (fun (p : Response.frontier_point) ->
        Alcotest.(check bool) "reliability in (0,1]" true
          (p.Response.f_reliability > 0. && p.Response.f_reliability <= 1.))
      s.Response.points
  | Ok _ -> Alcotest.fail "explore returned the wrong payload kind"
  | Error e -> Alcotest.fail e.Response.message

let test_response_unknown_field_rejected () =
  match
    Response.of_string
      {|{"api":"rchls.api/1","status":"ok","result":{"kind":"pong"},"extra":1}|}
  with
  | Error e -> Alcotest.(check bool) "names field" true (contains ~affix:"extra" e)
  | Ok _ -> Alcotest.fail "extra envelope field accepted"

(* --- cache keys ------------------------------------------------------- *)


let synth_job ?(library = Request.Lib_default) ?(ld = 14) ?(ad = 9) graph =
  Request.Synth
    {
      Request.graph;
      library;
      ld;
      ad;
      strategy = Request.Best;
      scheduler = Request.Density;
    }

(* Fields the encoder derives from the record are checked on decode, and
   every field the encoder always writes is required: a document the
   encoder could never emit (say, a corrupt disk-cache entry) is an
   error, not a silently repaired payload. *)
let test_response_derived_fields_checked () =
  let rejects what doc =
    match Response.payload_of_json (check_ok "parse" (Json.of_string doc)) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted %s" what doc
  in
  let design = {|{"kind":"design","status":"infeasible","reason":"scheduling_error","message":"m"}|} in
  rejects "non-boolean passed"
    (Printf.sprintf {|{"kind":"check","design":%s,"passed":"nope","violations":[]}|} design);
  rejects "passed disagrees with violations"
    (Printf.sprintf {|{"kind":"check","design":%s,"passed":true,"violations":["v"]}|} design);
  rejects "passed missing"
    (Printf.sprintf {|{"kind":"check","design":%s,"violations":[]}|} design);
  rejects "passed next to a failure"
    {|{"kind":"fuzz","outcomes":[{"property":"p","cases":1,"passed":true,"failure":{"case":0,"message":"m","shrink_steps":0,"counterexample":""}}]}|};
  rejects "healthy missing"
    {|{"kind":"health","uptime_ns":1,"queue_depth":0,"queue_max":1,"in_flight":0}|}

(* Only the version check's own message classifies as a version error;
   a field or job kind that merely spells the phrase does not. *)
let test_version_error_classified_exactly () =
  let classify line =
    match Request.of_string line with
    | Ok _ -> Alcotest.failf "accepted %s" line
    | Error e -> Rchls_api.Schema.is_version_error e
  in
  Alcotest.(check bool) "foreign api" true
    (classify {|{"api":"rchls.api/2","job":"ping"}|});
  Alcotest.(check bool) "field named like it" false
    (classify (req_line {|"job":"ping","unsupported schema version":1}|}));
  Alcotest.(check bool) "job kind named like it" false
    (classify
       (req_line
          {|"job":"unsupported schema version \"x\" (this build speaks \"y\")"|}))

let test_unreadable_graph_is_bad_request () =
  (* An existing path that is not a readable file (a directory). *)
  match Service.run_job (synth_job (Request.Named Filename.current_dir_name)) with
  | Error { Response.code = Response.Bad_request; message } ->
    Alcotest.(check bool) "names the path" true (contains ~affix:"cannot read" message)
  | Error e ->
    Alcotest.failf "expected bad_request, got %s: %s"
      (Response.error_code_name e.Response.code) e.Response.message
  | Ok _ -> Alcotest.fail "a directory loaded as a graph"

let test_cache_key_form_independent () =
  let named =
    check_ok "named" (Service.cache_key (synth_job (Request.Named "ewf")))
  in
  let inline =
    check_ok "inline"
      (Service.cache_key
         (synth_job (Request.Inline (Parse.to_text Benchmarks.ewf))))
  in
  Alcotest.(check bool) "key exists" true (named <> None);
  Alcotest.(check bool) "named = inline" true (named = inline)

let test_cache_key_param_sensitive () =
  let k ld = check_ok "key" (Service.cache_key (synth_job ~ld (Request.Named "ewf"))) in
  Alcotest.(check bool) "ld changes the key" true (k 14 <> k 15);
  let sweep =
    check_ok "sweep key"
      (Service.cache_key
         (Request.Sweep
            {
              Request.graph = Request.Named "ewf";
              library = Request.Lib_default;
              lds = [ 14 ];
              ads = [ 9 ];
              approach = Request.Ours;
              scheduler = Request.Density;
            }))
  in
  Alcotest.(check bool) "job kind changes the key" true
    (sweep <> k 14 && sweep <> None);
  Alcotest.(check (option int)) "ping is never cached" None
    (Option.map (fun _ -> 0) (check_ok "ping" (Service.cache_key Request.Ping)))

(* --- disk cache ------------------------------------------------------- *)

let temp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o700;
  d

let test_diskcache_roundtrip () =
  let d = check_ok "open" (Diskcache.open_dir (temp_dir "rchls-dc")) in
  Alcotest.(check (option string)) "miss" None (Diskcache.find d 42L);
  Diskcache.add d 42L "payload-a";
  Alcotest.(check (option string)) "hit" (Some "payload-a") (Diskcache.find d 42L);
  Diskcache.add d 42L "payload-b";
  Alcotest.(check (option string)) "overwrite" (Some "payload-b")
    (Diskcache.find d 42L);
  Alcotest.(check int) "one file" 1 (Diskcache.entries d);
  Alcotest.(check string) "file name" "000000000000002a.json"
    (Diskcache.key_name 42L)

let test_diskcache_evicts_oldest () =
  let d =
    check_ok "open" (Diskcache.open_dir ~max_entries:2 (temp_dir "rchls-dc"))
  in
  Diskcache.add d 1L "one";
  Unix.sleepf 0.02;
  Diskcache.add d 2L "two";
  Unix.sleepf 0.02;
  Diskcache.add d 3L "three";
  Alcotest.(check bool) "bounded" true (Diskcache.entries d <= 2);
  Alcotest.(check (option string)) "newest survives" (Some "three")
    (Diskcache.find d 3L);
  Alcotest.(check (option string)) "oldest evicted" None (Diskcache.find d 1L)

let test_diskcache_survives_reopen () =
  let dir = temp_dir "rchls-dc" in
  let d = check_ok "open" (Diskcache.open_dir dir) in
  Diskcache.add d 7L "persisted";
  let d' = check_ok "reopen" (Diskcache.open_dir dir) in
  Alcotest.(check (option string)) "found after reopen" (Some "persisted")
    (Diskcache.find d' 7L)

(* --- the resolve memo --------------------------------------------------- *)

(* The key {!Service.cache_key} would give without its memo. *)
let fresh_key = function
  | Request.Synth { Request.graph; library; _ } as job ->
    let r = check_ok "resolve" (Service.resolve graph library) in
    Request.cache_key ~graph_digest:r.Service.graph_digest
      ~library_digest:r.Service.library_digest job
  | _ -> Alcotest.fail "fresh_key takes a synth job"

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let memo_dir = lazy (temp_dir "rchls-memo")

(* Generated graphs sent inline, as a file path, or replaced by a
   built-in name; with the default or an inline library; each keyed
   twice, so the second call is served by the memo. *)
let prop_memo_key_matches_fresh =
  QCheck2.Test.make ~name:"memoized cache_key = fresh Request.cache_key" ~count:200
    Gen.(
      quad
        (Rchls_check.Gen.qcheck_dag ~max_nodes:16 ())
        (int_range 0 2)
        (int_range 0 (List.length Benchmarks.all - 1))
        bool)
    (fun (g, form, builtin, inline_lib) ->
      let text = Parse.to_text g in
      let graph =
        match form with
        | 0 -> Request.Inline text
        | 1 ->
          let path =
            Filename.concat (Lazy.force memo_dir)
              (Printf.sprintf "g%d.dfg" (Random.bits ()))
          in
          write_file path text;
          Request.Named path
        | _ -> Request.Named (fst (List.nth Benchmarks.all builtin))
      in
      let library =
        if inline_lib then
          Request.Lib_inline (Rchls_charlib.Library.to_text Rchls_charlib.Library.table1)
        else Request.Lib_default
      in
      let job = synth_job ~library graph in
      let want = fresh_key job in
      want <> None
      && check_ok "first" (Service.cache_key job) = want
      && check_ok "second" (Service.cache_key job) = want)

let test_memo_file_rewritten () =
  let path = Filename.concat (Lazy.force memo_dir) "rewritten.dfg" in
  let key () = check_ok "key" (Service.cache_key (synth_job (Request.Named path))) in
  write_file path (Parse.to_text Benchmarks.example_fig4);
  let before = key () in
  write_file path (Parse.to_text Benchmarks.diffeq);
  let after = key () in
  Alcotest.(check bool) "an edited file is a new key" true (before <> after);
  Alcotest.(check bool) "keyed as the new contents" true
    (after = fresh_key (synth_job (Request.Named "diffeq")))

let test_memo_errors_not_stored () =
  let error job =
    match Service.cache_key job with
    | Error e -> e
    | Ok _ -> Alcotest.fail "a bad source produced a key"
  in
  let unknown = synth_job (Request.Named "nosuch") in
  let first = error unknown in
  Alcotest.(check bool) "names the benchmark" true
    (contains ~affix:"unknown benchmark \"nosuch\"" first);
  Alcotest.(check string) "same error twice" first (error unknown);
  let garbled = synth_job (Request.Inline "node\n") in
  Alcotest.(check string) "same parse error twice" (error garbled) (error garbled)

let test_memo_counters () =
  let hits () = Telemetry.counter "service.resolve.hits" in
  let misses () = Telemetry.counter "service.resolve.misses" in
  let moved what ~h ~m f =
    let h0 = hits () and m0 = misses () in
    f ();
    Alcotest.(check (pair int int)) what (h, m) (hits () - h0, misses () - m0)
  in
  (* a text no other test sends *)
  let text = Parse.to_text Benchmarks.fir16 ^ "# counted\n" in
  let job = synth_job ~ld:12 ~ad:40 (Request.Inline text) in
  let key () = ignore (check_ok "key" (Service.cache_key job)) in
  moved "first key misses" ~h:0 ~m:1 key;
  moved "second key hits" ~h:1 ~m:0 key;
  moved "the executor reuses the entry" ~h:1 ~m:0 (fun () ->
      ignore (Service.run_job ~domains:1 job));
  moved "resolve bypasses the memo" ~h:0 ~m:0 (fun () ->
      ignore (Service.resolve (Request.Inline text) Request.Lib_default));
  let unkeyed = synth_job ~ld:12 ~ad:40 (Request.Inline (text ^ "# unkeyed\n")) in
  moved "an executor's miss is not stored" ~h:0 ~m:2 (fun () ->
      ignore (Service.run_job ~domains:1 unkeyed);
      ignore (Service.cache_key unkeyed));
  let garbled = synth_job (Request.Inline "node\n") in
  moved "a failed parse misses every time" ~h:0 ~m:2 (fun () ->
      ignore (Service.cache_key garbled);
      ignore (Service.cache_key garbled));
  moved "an unreadable source is no lookup" ~h:0 ~m:0 (fun () ->
      ignore (Service.cache_key (synth_job (Request.Named "nosuch"))))

let test_memo_bounded () =
  let misses () = Telemetry.counter "service.resolve.misses" in
  let want = fresh_key (synth_job (Request.Named "fig4")) in
  let base = Parse.to_text Benchmarks.example_fig4 in
  (* distinct raw texts of one graph: one entry each, one cache key *)
  let variant i = synth_job (Request.Inline (Printf.sprintf "%s# bound %d\n" base i)) in
  for i = 0 to Service.memo_max_entries do
    Alcotest.(check bool) "key while filling" true
      (check_ok "key" (Service.cache_key (variant i)) = want)
  done;
  let m0 = misses () in
  Alcotest.(check bool) "evicted entry keys the same" true
    (check_ok "key" (Service.cache_key (variant 0)) = want);
  Alcotest.(check int) "the first entry was evicted" 1 (misses () - m0);
  let huge =
    synth_job
      (Request.Inline (base ^ "# " ^ String.make Service.memo_max_bytes 'x' ^ "\n"))
  in
  let m0 = misses () in
  Alcotest.(check bool) "oversized text keys the same" true
    (check_ok "key" (Service.cache_key huge) = want
    && check_ok "key" (Service.cache_key huge) = want);
  Alcotest.(check int) "an oversized text is never stored" 2 (misses () - m0)

(* The byte bound charges what an entry holds, not only its key: inline
   graphs whose texts total under a quarter of the bound, but whose
   parsed values pass it, must evict well inside the entry bound. *)
let test_memo_charges_parsed_values () =
  let count = 24 and nodes = 1200 in
  let text i =
    let b = Buffer.create (32 * nodes) in
    Printf.bprintf b "dfg heavy%d\n" i;
    for k = 0 to nodes - 1 do
      Printf.bprintf b "node n%d add\n" k
    done;
    for k = 1 to nodes - 1 do
      Printf.bprintf b "edge n%d n%d\n" (k - 1) k
    done;
    Buffer.contents b
  in
  let texts = List.init count text in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 texts in
  let parsed_bytes t =
    (Sys.word_size / 8) * Obj.reachable_words (Obj.repr (Parse.of_text_exn t))
  in
  Alcotest.(check bool) "texts total under a quarter of the bound" true
    (sum String.length < Service.memo_max_bytes / 4);
  Alcotest.(check bool) "parsed graphs total over the bound" true
    (sum parsed_bytes > Service.memo_max_bytes);
  Alcotest.(check bool) "room below the entry bound" true
    (Telemetry.gauge "service.resolve.entries" + count <= Service.memo_max_entries);
  let evictions () = Telemetry.counter "service.resolve.evictions" in
  let e0 = evictions () in
  List.iter
    (fun t -> ignore (check_ok "key" (Service.cache_key (synth_job (Request.Inline t)))))
    texts;
  Alcotest.(check bool) "parsed values evict" true (evictions () > e0)

(* Keys of three fixed jobs, as computed before the resolved sources
   carried their digests: a named graph, an inline graph and an inline
   library.  The response cache and the disk tier are keyed by these,
   so they must not move. *)
let test_pinned_keys () =
  let inline_graph =
    "dfg pinned\nnode a add\nnode b mul\nnode c add\nedge a b\nedge b c\nedge a c\n"
  in
  let jobs =
    [
      ( "named graph",
        "40d6c5f34951aa2a",
        synth_job ~ld:14 ~ad:9 (Request.Named "ewf") );
      ( "inline graph",
        "3f629a9cd7668db2",
        Request.Explore
          {
            Request.graph = Request.Inline inline_graph;
            library = Request.Lib_default;
            lds = [ 4; 5 ];
            ads = [ 6; 9 ];
            approach = Request.Ours;
            scheduler = Request.Density;
          } );
      ( "inline library",
        "8fd01ea1456f8e4c",
        Request.Synth
          {
            Request.graph = Request.Named "fig4";
            library =
              Request.Lib_inline (Rchls_charlib.Library.to_text Rchls_charlib.Library.table1);
            ld = 6;
            ad = 4;
            strategy = Request.Figure6;
            scheduler = Request.Force_directed;
          } );
    ]
  in
  List.iter
    (fun (what, want, job) ->
      Alcotest.(check (option string)) what (Some want)
        (Option.map Rchls_util.Fnv.to_hex (check_ok "key" (Service.cache_key job))))
    jobs

(* One registry, one graph and two libraries whose versions share ids
   (so the engine interns them to the same codes): every job must
   answer what it answers without a registry, so the registry must key
   its caches by library as well as by graph. *)
let test_registry_keys_library () =
  let swapped =
    String.concat "\n"
      [
        "add1 \"Adder 1\" add rca 1 2 0.95";
        "add2 \"Adder 2\" add bk 2 1 0.999";
        "add3 \"Adder 3\" add ks 4 1 0.987";
        "mul1 \"Multiplier 1\" mul csmul 2 2 0.97";
        "mul2 \"Multiplier 2\" mul lfmul 4 1 0.999";
        "";
      ]
  in
  let jobs =
    List.concat_map
      (fun library ->
        [ synth_job ~library ~ld:14 ~ad:9 (Request.Named "ewf");
          synth_job ~library ~ld:6 ~ad:4 (Request.Named "fig4") ])
      [ Request.Lib_default; Request.Lib_inline swapped ]
  in
  let service = Service.create () in
  List.iter
    (fun job ->
      let alone = Service.run_job ~domains:1 job in
      Alcotest.(check bool) "the job runs" true (Result.is_ok alone);
      Alcotest.(check bool) "same answer through the registry" true
        (Service.run_job ~service ~domains:1 job = alone))
    (jobs @ jobs)

(* A long-lived registry serving one job per distinct graph keeps at
   most its bound of engine caches: the entries gauge never passes the
   bound, caches are evicted, and the live heap grows by far less than
   one cache per graph would take. *)
let test_registry_bounded () =
  let service = Service.create () in
  let graphs = 1200 in
  let gauge () = Telemetry.gauge "service.registry.entries" in
  let evictions () = Telemetry.counter "service.registry.evictions" in
  let e0 = evictions () in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let rng = Rchls_util.Rng.create 2718 in
  for i = 1 to graphs do
    let spec = Rchls_check.Gen.random_spec ~max_nodes:12 rng in
    let text = Rchls_check.Gen.spec_to_text ~name:(Printf.sprintf "leak%d" i) spec in
    let job = synth_job ~ld:20 ~ad:60 (Request.Inline text) in
    (match Service.run_job ~service ~domains:1 job with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "graph %d: %s" i e.Response.message);
    if gauge () > Service.registry_max_entries then
      Alcotest.failf "after graph %d the registry holds %d caches (bound %d)" i (gauge ())
        Service.registry_max_entries
  done;
  Alcotest.(check bool) "caches were evicted" true (evictions () > e0);
  Gc.full_major ();
  let grown = ((Gc.stat ()).Gc.live_words - live0) * (Sys.word_size / 8) in
  (* the registry is still in use: its caches are live *)
  ignore (Sys.opaque_identity service);
  (* 1200 caches kept forever grew it by 34 MB *)
  if grown > 4 lsl 20 then
    Alcotest.failf "the live heap grew by %d bytes over %d graphs" grown graphs

(* --- the live daemon -------------------------------------------------- *)

let with_server ?cache_dir ?(domains = 2) ?(batch_max = 4) ?(queue_max = 256) f =
  let socket = Filename.concat (temp_dir "rchls-serve") "s.sock" in
  let config =
    {
      (Server.default_config (Server.Unix_socket socket)) with
      Server.cache_dir;
      domains = Some domains;
      batch_max;
      queue_max;
    }
  in
  let server = check_ok "server start" (Server.start config) in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f socket)

let with_client socket f =
  let c = check_ok "connect" (Client.connect_unix socket) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* A mixed workload: synthesis (feasible and infeasible), a sweep, a
   checked synthesis and a ping, all with distinct ids. *)
let workload =
  let synth id name ld ad =
    { Request.id = Some id; job = synth_job ~ld ~ad (Request.Named name) }
  in
  [
    synth "s1" "ewf" 14 9;
    synth "s2" "fig4" 6 4;
    synth "s3" "fig4" 1 1;
    (* infeasible *)
    {
      Request.id = Some "sw";
      job =
        Request.Sweep
          {
            Request.graph = Request.Named "fig4";
            library = Request.Lib_default;
            lds = [ 5; 6 ];
            ads = [ 3; 4 ];
            approach = Request.Ours;
            scheduler = Request.Density;
          };
    };
    {
      Request.id = Some "ck";
      job =
        Request.Check
          {
            Request.graph = Request.Named "fig4";
            library = Request.Lib_default;
            ld = 6;
            ad = 4;
            strategy = Request.Best;
            scheduler = Request.Density;
          };
    };
    { Request.id = Some "pg"; job = Request.Ping };
  ]

(* Pipelined exchange: send everything, then read one response per
   request; responses correlate by id.  Returns (id -> raw result
   JSON) sorted, plus the raw lines for cache-field inspection. *)
let exchange client reqs =
  List.iter (fun r -> check_ok "send" (Client.send client r)) reqs;
  let lines =
    List.map (fun _ -> check_ok "recv" (Client.recv_raw client)) reqs
  in
  let results =
    List.sort compare
      (List.map
         (fun line ->
           let j = check_ok "parse" (Json.of_string line) in
           let id =
             match Json.member "id" j with
             | Some (Json.Str s) -> s
             | _ -> Alcotest.failf "response without id: %s" line
           in
           match Json.member "result" j with
           | Some r -> (id, Json.to_string r)
           | None -> Alcotest.failf "response without result: %s" line)
         lines)
  in
  (results, lines)

let cache_tier line =
  Option.bind
    (Json.member "cache" (check_ok "parse" (Json.of_string line)))
    (fun c ->
      match Json.member "tier" c with Some (Json.Str t) -> Some t | _ -> None)

let test_serve_mixed_workload () =
  with_server (fun socket ->
      with_client socket (fun c ->
          let results, _ = exchange c workload in
          Alcotest.(check int) "one response per request" (List.length workload)
            (List.length results);
          Alcotest.(check bool) "infeasible is a payload, not an error" true
            (contains ~affix:"infeasible" (List.assoc "s3" results));
          Alcotest.(check bool) "check passed" true
            (contains ~affix:{|"passed":true|} (List.assoc "ck" results));
          Alcotest.(check string) "pong" {|{"kind":"pong"}|}
            (List.assoc "pg" results)))

let test_serve_deterministic_across_configs () =
  (* The same workload against a sequential singleton-batch daemon and
     a parallel batching one — and against the latter's warm cache —
     must produce byte-identical result payloads. *)
  let run ?cache_dir ~domains ~batch_max passes =
    with_server ?cache_dir ~domains ~batch_max (fun socket ->
        with_client socket (fun c ->
            List.init passes (fun _ -> fst (exchange c workload))))
  in
  let seq = run ~domains:1 ~batch_max:1 1 in
  let par = run ~domains:4 ~batch_max:8 2 in
  let baseline = List.hd seq in
  List.iter
    (fun results ->
      Alcotest.(check bool) "payloads independent of config and cache" true
        (results = baseline))
    par

let test_serve_concurrent_connections () =
  with_server (fun socket ->
      let out = Array.make 4 [] in
      let threads =
        Array.init 4 (fun i ->
            Thread.create
              (fun () ->
                with_client socket (fun c -> out.(i) <- fst (exchange c workload)))
              ())
      in
      Array.iter Thread.join threads;
      Array.iter
        (fun results ->
          Alcotest.(check bool) "all connections agree" true (results = out.(0)))
        out)

let test_serve_cache_tiers () =
  let cache_dir = Filename.concat (temp_dir "rchls-serve-cache") "cache" in
  let req = List.hd workload in
  let first, second =
    with_server ~cache_dir (fun socket ->
        with_client socket (fun c ->
            let _, l1 = exchange c [ req ] in
            let _, l2 = exchange c [ req ] in
            (List.hd l1, List.hd l2)))
  in
  Alcotest.(check (option string)) "first computes" None (cache_tier first);
  Alcotest.(check (option string)) "second hits memory" (Some "memory")
    (cache_tier second);
  (* a fresh daemon on the same directory answers from disk *)
  let third, fourth =
    with_server ~cache_dir (fun socket ->
        with_client socket (fun c ->
            let _, l3 = exchange c [ req ] in
            let _, l4 = exchange c [ req ] in
            (List.hd l3, List.hd l4)))
  in
  Alcotest.(check (option string)) "restart hits disk" (Some "disk")
    (cache_tier third);
  Alcotest.(check (option string)) "then memory again" (Some "memory")
    (cache_tier fourth);
  let strip line =
    Json.to_string
      (Option.get (Json.member "result" (check_ok "parse" (Json.of_string line))))
  in
  Alcotest.(check string) "disk payload byte-identical" (strip first) (strip third)

let test_serve_backpressure () =
  (* queue_max = 0: every miss is refused with the overloaded code. *)
  with_server ~queue_max:0 (fun socket ->
      with_client socket (fun c ->
          let resp = check_ok "call" (Client.call c (List.hd workload)) in
          (match resp.Response.result with
          | Error { code = Response.Overloaded; _ } -> ()
          | _ -> Alcotest.fail "expected the overloaded error");
          (* ping bypasses the queue entirely *)
          let pong =
            check_ok "ping"
              (Client.call c { Request.id = None; job = Request.Ping })
          in
          Alcotest.(check bool) "ping still answers" true
            (pong.Response.result = Ok Response.Pong)))

let test_serve_rejects_malformed () =
  with_server (fun socket ->
      with_client socket (fun c ->
          check_ok "send" (Client.send_raw c "not json");
          (match check_ok "recv" (Client.recv c) with
          | { Response.result = Error { code = Response.Bad_request; _ }; _ } -> ()
          | _ -> Alcotest.fail "expected bad_request");
          check_ok "send"
            (Client.send_raw c
               {|{"api":"rchls.api/1","job":"ping","unsupported schema version":1}|});
          (match check_ok "recv" (Client.recv c) with
          | { Response.result = Error { code = Response.Bad_request; _ }; _ } -> ()
          | _ -> Alcotest.fail "a field spelling the version phrase is bad_request");
          check_ok "send" (Client.send_raw c {|{"api":"rchls.api/9","job":"ping"}|});
          (match check_ok "recv" (Client.recv c) with
          | { Response.result = Error { code = Response.Unsupported_version; _ }; _ }
            -> ()
          | _ -> Alcotest.fail "expected unsupported_version");
          (* A library without multipliers, for a graph that multiplies:
             every executing kind answers bad_request naming the class
             and a node that needs it. *)
          let addonly = {|{"text":"add1 \"Adder 1\" add rca 1 2 0.999\n"}|} in
          List.iter
            (fun (job, params) ->
              check_ok "send"
                (Client.send_raw c
                   (req_line
                      (Printf.sprintf
                         {|"job":"%s","params":{"graph":{"name":"fir16"},"library":%s,%s}|}
                         job addonly params)));
              match check_ok "recv" (Client.recv c) with
              | { Response.result = Error { code = Response.Bad_request; message }; _ } ->
                Alcotest.(check bool)
                  (job ^ " names the class and a node") true
                  (contains ~affix:"no mul version" message
                  && contains ~affix:"node m1" message)
              | { Response.result = Error e; _ } ->
                Alcotest.failf "%s: expected bad_request, got %s: %s" job
                  (Response.error_code_name e.Response.code) e.Response.message
              | _ -> Alcotest.failf "%s: an incomplete library synthesized" job)
            [
              ("synth", {|"ld":12,"ad":10|});
              ("anneal", {|"ld":12,"ad":10|});
              ("check", {|"ld":12,"ad":10|});
              ("sweep", {|"lds":[12],"ads":[10]|});
              ("explore", {|"lds":[12],"ads":[10]|});
            ];
          (* A parameter outside its domain is bad_request naming the
             field, never internal. *)
          List.iter
            (fun (job, params, field) ->
              check_ok "send"
                (Client.send_raw c
                   (req_line
                      (Printf.sprintf {|"job":"%s","params":{"graph":{"name":"fig4"},%s}|}
                         job params)));
              match check_ok "recv" (Client.recv c) with
              | { Response.result = Error { code = Response.Bad_request; message }; _ } ->
                Alcotest.(check bool)
                  (job ^ " names " ^ field) true
                  (contains ~affix:(Printf.sprintf "field %S must be at least" field) message
                  || contains ~affix:(Printf.sprintf "field %S entries" field) message)
              | _ -> Alcotest.failf "%s with a bad %s: expected bad_request" job field)
            [
              ("synth", {|"ld":0,"ad":10|}, "ld");
              ("check", {|"ld":5,"ad":0|}, "ad");
              ("sweep", {|"lds":[0,5],"ads":[3]|}, "lds");
              ("explore", {|"ads":[4,-1]|}, "ads");
              ("anneal", {|"ld":8,"ad":300,"chains":-3|}, "chains");
              ("anneal", {|"ld":8,"ad":300,"exchange":-1|}, "exchange");
              ("anneal", {|"ld":8,"ad":300,"moves":-5|}, "moves");
            ]))

(* Connection teardown must close each socket descriptor exactly once.
   A second close of the same number lands on whatever another thread
   opened in between, so a domain that keeps opening and reading a file
   while connections open and close (client and daemon side both) must
   never see a bad descriptor, and neither must the clients. *)
let test_serve_close_owns_descriptor () =
  let path = Filename.concat (temp_dir "rchls-fd") "data" in
  let content = String.make 4096 'x' in
  Out_channel.with_open_bin path (fun oc -> output_string oc content);
  let bad_fd msg = contains ~affix:"Bad file descriptor" msg in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let errors = ref [] in
        let attempt f = try f () with Sys_error e -> errors := e :: !errors in
        while not (Atomic.get stop) do
          attempt (fun () ->
              let ic = open_in_bin path in
              attempt (fun () ->
                  if really_input_string ic (in_channel_length ic) <> content then
                    errors := "wrong content" :: !errors);
              close_in ic)
        done;
        !errors)
  in
  let client_errors = ref [] in
  Fun.protect
    ~finally:(fun () -> Atomic.set stop true)
    (fun () ->
      with_server (fun socket ->
          for _ = 1 to 300 do
            match Client.connect_unix socket with
            | Error e -> client_errors := e :: !client_errors
            | Ok c ->
              (match Client.call c { Request.id = None; job = Request.Ping } with
              | Ok _ -> ()
              | Error e -> client_errors := e :: !client_errors);
              Client.close c;
              Client.close c
          done));
  let reader_errors = Domain.join reader in
  Alcotest.(check (list string)) "no bad descriptor in the file reader" []
    (List.filter bad_fd reader_errors);
  Alcotest.(check (list string)) "no client error" [] !client_errors;
  Alcotest.(check (list string)) "no other file-reader error" [] reader_errors

(* --- observability ----------------------------------------------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      let s = Buffer.contents buf in
      let rec body_at i =
        if i + 4 > String.length s then Alcotest.failf "no header end in %S" s
        else if String.sub s i 4 = "\r\n\r\n" then i + 4
        else body_at (i + 1)
      in
      (String.sub s 0 (body_at 0), String.sub s (body_at 0) (String.length s - body_at 0)))

(* A client that connects to the scrape endpoint and sends nothing
   holds the one metrics thread only until its read times out: a
   second scrape still answers, and [Server.stop] returns while another
   silent client is connected.  Every wait here is bounded, so a wedged
   endpoint fails the test instead of hanging the suite. *)
let test_silent_scrape_client () =
  let config =
    {
      (Server.default_config (Server.Tcp ("127.0.0.1", 0))) with
      Server.metrics = Some (Server.Tcp ("127.0.0.1", 0));
    }
  in
  let server = check_ok "server start" (Server.start config) in
  let stopped = Atomic.make false in
  let stop_server () = if not (Atomic.get stopped) then Server.stop server in
  Fun.protect ~finally:stop_server @@ fun () ->
  let mport = Option.get (Server.metrics_port server) in
  let silent () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, mport));
    fd
  in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let first = silent () in
  Fun.protect ~finally:(fun () -> close first) (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> close fd) (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 8.0;
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, mport));
          let req = "GET / HTTP/1.0\r\n\r\n" in
          ignore (Unix.write_substring fd req 0 (String.length req));
          let chunk = Bytes.create 64 in
          let n =
            try Unix.read fd chunk 0 (Bytes.length chunk)
            with Unix.Unix_error (e, _, _) ->
              Alcotest.failf "scrape behind a silent client: %s" (Unix.error_message e)
          in
          Alcotest.(check string) "scrape answers behind a silent client" "HTTP/1.0 200"
            (Bytes.sub_string chunk 0 (min n 12))));
  let second = silent () in
  Fun.protect ~finally:(fun () -> close second) (fun () ->
      let t0 = Unix.gettimeofday () in
      let stopper =
        Thread.create (fun () -> Server.stop server; Atomic.set stopped true) ()
      in
      while (not (Atomic.get stopped)) && Unix.gettimeofday () -. t0 < 8. do
        Thread.delay 0.05
      done;
      let returned = Atomic.get stopped in
      if returned then Thread.join stopper;
      Alcotest.(check bool) "stop returns with a silent client connected" true returned)

(* The value of one Prometheus sample line, e.g.
   [scrape_value body "rchls_serve_requests_total"] *)
let scrape_value body series =
  let lines = String.split_on_char '\n' body in
  match
    List.find_opt
      (fun l -> String.length l > String.length series
               && String.sub l 0 (String.length series + 1) = series ^ " ")
      lines
  with
  | None -> Alcotest.failf "series %s missing from scrape" series
  | Some l ->
    (match
       int_of_string_opt
         (String.trim
            (String.sub l (String.length series)
               (String.length l - String.length series)))
     with
    | Some v -> v
    | None -> Alcotest.failf "unparseable sample %S" l)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_serve_observability_consistency () =
  (* One daemon with every observability surface on; the counters in
     the [stats] answer, the Prometheus scrape and the access log must
     tell the same story. *)
  Telemetry.reset ();
  let dir = temp_dir "rchls-obs" in
  let socket = Filename.concat dir "s.sock" in
  let log_path = Filename.concat dir "access.log" in
  let config =
    {
      (Server.default_config (Server.Unix_socket socket)) with
      Server.cache_dir = Some (Filename.concat dir "cache");
      domains = Some 2;
      batch_max = 4;
      metrics = Some (Server.Tcp ("127.0.0.1", 0));
      access_log = Some (log_path, 1 lsl 20);
    }
  in
  let server = check_ok "server start" (Server.start config) in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let mport =
    match Server.metrics_port server with
    | Some p -> p
    | None -> Alcotest.fail "metrics endpoint did not bind"
  in
  with_client socket (fun c ->
      (* two passes: 5 non-admin requests each, second pass all memory
         hits; plus a ping and a malformed line, neither accounted *)
      ignore (exchange c workload);
      ignore (exchange c workload);
      check_ok "send" (Client.send_raw c "not json");
      (match check_ok "recv" (Client.recv c) with
      | { Response.result = Error { code = Response.Bad_request; _ }; _ } -> ()
      | _ -> Alcotest.fail "expected bad_request");
      let stats =
        match
          check_ok "stats"
            (Client.call c { Request.id = Some "st"; job = Request.Stats })
        with
        | { Response.result = Ok (Response.Stats_snapshot s); _ } -> s
        | _ -> Alcotest.fail "expected a stats snapshot"
      in
      let counter name =
        Option.value ~default:0 (List.assoc_opt name stats.Response.counters)
      in
      Alcotest.(check int) "accounted requests" 10 (counter "serve.requests");
      Alcotest.(check int) "memory hits" 5 (counter "serve.hits.memory");
      Alcotest.(check int) "misses" 5 (counter "serve.misses");
      Alcotest.(check int) "pings excluded" 2 (counter "serve.pings");
      Alcotest.(check int) "malformed tallied" 1 (counter "serve.malformed");
      Alcotest.(check int) "disk tier counters live" 5
        (counter "diskcache.misses");
      (* the access log was flushed before the stats answer *)
      let records = List.map (fun l -> check_ok "log json" (Json.of_string l))
          (read_lines log_path)
      in
      Alcotest.(check int) "one log record per accounted request"
        (counter "serve.requests") (List.length records);
      Alcotest.(check int) "log agrees on records written"
        (counter "serve.access_log.records") (List.length records);
      let tier_count want =
        List.length
          (List.filter
             (fun r ->
               match Json.member "tier" r with
               | Some (Json.Str t) -> Some t = want
               | Some Json.Null | None -> want = None
               | _ -> false)
             records)
      in
      Alcotest.(check int) "log memory tiers" 5 (tier_count (Some "memory"));
      Alcotest.(check int) "log computed tiers" 5 (tier_count None);
      List.iter
        (fun r ->
          let field name =
            match Option.bind (Json.member name r) Json.to_int_opt with
            | Some v -> v
            | None -> Alcotest.failf "log record lacks %s" name
          in
          Alcotest.(check bool) "timing sane" true
            (field "exec_ns" >= 0
            && field "queue_ns" >= 0
            && field "total_ns" >= field "exec_ns"
            && field "bytes" > 0);
          match Json.member "status" r with
          | Some (Json.Str "ok") -> ()
          | _ -> Alcotest.fail "log status not ok")
        records;
      (* the window saw exactly the accounted requests; the queue/exec
         windows only the computed jobs *)
      let window name =
        match List.assoc_opt name stats.Response.windows with
        | Some w -> w
        | None -> Alcotest.failf "window %s missing from stats" name
      in
      Alcotest.(check int) "request window count" 10
        (window "serve.request").Response.count;
      Alcotest.(check int) "exec window count" 5
        (window "serve.exec").Response.count;
      (* the Prometheus scrape tells the same story *)
      let head, body = http_get mport "/" in
      Alcotest.(check bool) "scrape is 200 text/plain" true
        (contains ~affix:"200" head && contains ~affix:"text/plain" head);
      Alcotest.(check int) "scrape requests = log records"
        (List.length records)
        (scrape_value body "rchls_serve_requests_total");
      Alcotest.(check int) "scrape memory hits" 5
        (scrape_value body "rchls_serve_hits_memory_total");
      Alcotest.(check int) "scrape misses" 5
        (scrape_value body "rchls_serve_misses_total");
      Alcotest.(check int) "scrape count matches window"
        (window "serve.request").Response.count
        (scrape_value body "rchls_serve_request_seconds_count");
      Alcotest.(check bool) "summary quantiles exposed" true
        (contains ~affix:{|rchls_serve_request_seconds{quantile="0.99"}|} body);
      (* the JSON endpoint parses and the health kind answers inline *)
      let _, jbody = http_get mport "/json" in
      (match Json.of_string jbody with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "/json unparseable: %s" e);
      match
        check_ok "health"
          (Client.call c { Request.id = Some "h"; job = Request.Health })
      with
      | { Response.result = Ok (Response.Health_report h); _ } ->
        Alcotest.(check bool) "healthy" true h.Response.healthy;
        Alcotest.(check int) "queue bound echoed" config.Server.queue_max
          h.Response.queue_max
      | _ -> Alcotest.fail "expected a health report")

(* Poll [ok] for up to a minute. *)
let until what ok =
  let deadline = Unix.gettimeofday () +. 60. in
  while (not (ok ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  if not (ok ()) then Alcotest.failf "timed out waiting for %s" what

(* A client that hangs up before its replies are written must cost the
   daemon one counted disconnect, not its life: a write to the dead
   socket raises SIGPIPE, whose default action ends the process.  The
   client pipelines an explore job, a run of pings and a second explore
   job, then closes; the reader answers the pings while the line buffer
   still holds them, and the first failed write marks the connection
   closed before the second job is even read.  With one job per batch
   the scheduler reaches that job only after the first is done, so it
   must not compute it.  Neither answer is delivered, so both are
   logged as [disconnected] with zero bytes, and the counter, the
   scrape and the access log still agree. *)
let test_serve_survives_client_hangup () =
  Telemetry.reset ();
  let dir = temp_dir "rchls-hangup" in
  let socket = Filename.concat dir "s.sock" in
  let log_path = Filename.concat dir "access.log" in
  let config =
    {
      (Server.default_config (Server.Unix_socket socket)) with
      Server.domains = Some 1;
      batch_max = 1;
      metrics = Some (Server.Tcp ("127.0.0.1", 0));
      access_log = Some (log_path, 1 lsl 20);
    }
  in
  let server = check_ok "server start" (Server.start config) in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let explore =
    req_line
      {|"id":"x","job":"explore","params":{"graph":{"name":"ewf"},"lds":[14,16,18,20],"ads":[4,6,8,10,12,14]}|}
  in
  let late = req_line {|"id":"y","job":"explore","params":{"graph":{"name":"fig4"}}|} in
  let ping = req_line {|"job":"ping"|} in
  let c = check_ok "connect" (Client.connect_unix socket) in
  check_ok "send"
    (Client.send_raw c
       (String.concat "\n" ((explore :: List.init 200 (fun _ -> ping)) @ [ late ])));
  Client.close c;
  with_client socket (fun c ->
      match
        check_ok "health"
          (Client.call c { Request.id = Some "h"; job = Request.Health })
      with
      | { Response.result = Ok (Response.Health_report h); _ } ->
        Alcotest.(check bool) "healthy" true h.Response.healthy
      | _ -> Alcotest.fail "expected a health report");
  (* [stats] flushes the access log; each explore job is logged once
     the scheduler has reached it and failed to deliver its answer. *)
  let log_records () =
    with_client socket (fun c ->
        ignore (check_ok "stats" (Client.call c { Request.id = None; job = Request.Stats })));
    List.map (fun l -> check_ok "log json" (Json.of_string l)) (read_lines log_path)
  in
  until "both explore jobs' log records" (fun () -> List.length (log_records ()) = 2);
  let records = log_records () in
  let field name r =
    match Option.bind (Json.member name r) Json.to_int_opt with
    | Some v -> v
    | None -> Alcotest.failf "log record lacks %s" name
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "logged as disconnected" true
        (Json.member "status" r = Some (Json.Str "disconnected"));
      Alcotest.(check int) "no bytes delivered" 0 (field "bytes" r))
    records;
  (match List.find_opt (fun r -> Json.member "id" r = Some (Json.Str "y")) records with
  | Some r -> Alcotest.(check int) "late job not computed" 0 (field "exec_ns" r)
  | None -> Alcotest.fail "no log record for the late job");
  Alcotest.(check int) "one disconnect counted" 1
    (Telemetry.counter "serve.disconnects");
  Alcotest.(check int) "counter = log records" 2 (Telemetry.counter "serve.requests");
  Alcotest.(check int) "undelivered = log records" 2
    (Telemetry.counter "serve.undelivered");
  let _, body = http_get (Option.get (Server.metrics_port server)) "/" in
  Alcotest.(check int) "scrape = log records" 2
    (scrape_value body "rchls_serve_requests_total");
  Alcotest.(check int) "scrape counts the undelivered" 2
    (scrape_value body "rchls_serve_undelivered_total");
  Alcotest.(check int) "scrape counts the disconnect" 1
    (scrape_value body "rchls_serve_disconnects_total")

(* A client that sends one job and hangs up without reading: while a
   slower job of another client holds the scheduler, its reader sees
   the end of input, so no write to it is ever tried, yet the answer
   it drops still counts the connection's one disconnect. *)
let test_serve_counts_eof_disconnect () =
  Telemetry.reset ();
  let dir = temp_dir "rchls-eof" in
  let socket = Filename.concat dir "s.sock" in
  let log_path = Filename.concat dir "access.log" in
  let config =
    {
      (Server.default_config (Server.Unix_socket socket)) with
      Server.domains = Some 1;
      batch_max = 1;
      access_log = Some (log_path, 1 lsl 20);
    }
  in
  let server = check_ok "server start" (Server.start config) in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  with_client socket (fun slow ->
      check_ok "send"
        (Client.send_raw slow (req_line {|"id":"f","job":"fuzz","params":{"cases":300}|}));
      until "the slow job to start" (fun () -> Telemetry.gauge "serve.inflight" = 1);
      let c = check_ok "connect" (Client.connect_unix socket) in
      check_ok "send"
        (Client.send_raw c
           (req_line {|"id":"x","job":"explore","params":{"graph":{"name":"ewf"}}|}));
      Client.close c;
      until "the hung-up reader to close" (fun () -> Telemetry.gauge "serve.connections" = 1);
      ignore (check_ok "slow job" (Client.recv slow)));
  let log_records () =
    with_client socket (fun c ->
        ignore (check_ok "stats" (Client.call c { Request.id = None; job = Request.Stats })));
    List.map (fun l -> check_ok "log json" (Json.of_string l)) (read_lines log_path)
  in
  let hung_up () =
    List.find_opt (fun r -> Json.member "id" r = Some (Json.Str "x")) (log_records ())
  in
  until "the hung-up job's log record" (fun () -> hung_up () <> None);
  match hung_up () with
  | Some r ->
    Alcotest.(check bool) "logged as disconnected" true
      (Json.member "status" r = Some (Json.Str "disconnected"));
    Alcotest.(check int) "one disconnect counted" 1 (Telemetry.counter "serve.disconnects");
    Alcotest.(check int) "one answer undelivered" 1 (Telemetry.counter "serve.undelivered")
  | None -> Alcotest.fail "no log record for the hung-up job"

let () =
  Alcotest.run "api"
    [
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_request_roundtrip;
            prop_response_roundtrip;
            prop_assemble_raw_matches_encode;
          ] );
      ( "strictness",
        [
          Alcotest.test_case "unknown field rejected" `Quick
            test_unknown_field_rejected;
          Alcotest.test_case "duplicate key rejected" `Quick
            test_duplicate_key_rejected;
          Alcotest.test_case "version mismatch rejected" `Quick
            test_version_mismatch_rejected;
          Alcotest.test_case "missing fields rejected" `Quick
            test_missing_required_rejected;
          Alcotest.test_case "defaults applied" `Quick test_defaults_applied;
          Alcotest.test_case "anneal decode" `Quick test_anneal_decode;
          Alcotest.test_case "parameter domains" `Quick test_parameter_domains;
          Alcotest.test_case "explore bounds optional" `Quick
            test_explore_bounds_optional;
          Alcotest.test_case "explore job executes" `Slow
            test_explore_job_executes;
          Alcotest.test_case "response strictness" `Quick
            test_response_unknown_field_rejected;
          Alcotest.test_case "derived fields checked" `Quick
            test_response_derived_fields_checked;
          Alcotest.test_case "version error classified exactly" `Quick
            test_version_error_classified_exactly;
          Alcotest.test_case "unreadable graph is bad_request" `Quick
            test_unreadable_graph_is_bad_request;
        ] );
      ( "cache-key",
        [
          Alcotest.test_case "form independent" `Quick
            test_cache_key_form_independent;
          Alcotest.test_case "parameter sensitive" `Quick
            test_cache_key_param_sensitive;
          QCheck_alcotest.to_alcotest prop_memo_key_matches_fresh;
          Alcotest.test_case "memo: rewritten file" `Quick test_memo_file_rewritten;
          Alcotest.test_case "memo: errors not stored" `Quick
            test_memo_errors_not_stored;
          Alcotest.test_case "memo: counters" `Quick test_memo_counters;
          Alcotest.test_case "memo: bounded" `Quick test_memo_bounded;
          Alcotest.test_case "memo: charges parsed values" `Quick
            test_memo_charges_parsed_values;
          Alcotest.test_case "pinned keys" `Quick test_pinned_keys;
          Alcotest.test_case "registry keys the library" `Quick
            test_registry_keys_library;
          Alcotest.test_case "registry bounded" `Slow test_registry_bounded;
        ] );
      ( "diskcache",
        [
          Alcotest.test_case "round-trip" `Quick test_diskcache_roundtrip;
          Alcotest.test_case "evicts oldest" `Quick test_diskcache_evicts_oldest;
          Alcotest.test_case "survives reopen" `Quick
            test_diskcache_survives_reopen;
        ] );
      ( "serve",
        [
          Alcotest.test_case "mixed workload" `Quick test_serve_mixed_workload;
          Alcotest.test_case "deterministic across configs" `Quick
            test_serve_deterministic_across_configs;
          Alcotest.test_case "concurrent connections" `Quick
            test_serve_concurrent_connections;
          Alcotest.test_case "cache tiers" `Quick test_serve_cache_tiers;
          Alcotest.test_case "backpressure" `Quick test_serve_backpressure;
          Alcotest.test_case "malformed input" `Quick test_serve_rejects_malformed;
          Alcotest.test_case "close owns the descriptor" `Quick
            test_serve_close_owns_descriptor;
          Alcotest.test_case "observability consistency" `Quick
            test_serve_observability_consistency;
          Alcotest.test_case "survives a client hang-up" `Quick
            test_serve_survives_client_hangup;
          Alcotest.test_case "hang-up seen as EOF counts a disconnect" `Quick
            test_serve_counts_eof_disconnect;
          Alcotest.test_case "silent scrape client" `Quick test_silent_scrape_client;
        ] );
    ]
