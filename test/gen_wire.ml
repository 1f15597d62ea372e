(* Golden wire corpus for rchls.api/1: the encoded bytes of one request
   per job kind (with its response-cache key), one response per payload
   kind, the error and cache/timing envelopes, one spliced cache-hit
   line, and the exact decode verdict of malformed documents.  Every
   value is a fixed record, so the output is deterministic; the dune
   rule diffs it against golden/wire.expected. *)

module Request = Rchls_api.Request
module Response = Rchls_api.Response
module Fnv = Rchls_util.Fnv

let failures = ref 0

let roundtrip what ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "gen_wire: %s does not round-trip\n" what
  end

(* --- requests -------------------------------------------------------- *)

let synth =
  {
    Request.graph = Request.Named "ewf";
    library = Request.Lib_default;
    ld = 14;
    ad = 9;
    strategy = Request.Best;
    scheduler = Request.Density;
  }

let requests =
  [
    Request.Synth synth;
    Request.Anneal
      {
        Request.graph = Request.Inline "ewf text";
        library = Request.Lib_file "lib/table1.lib";
        ld = 19;
        ad = 18;
        strategy = Request.Figure6;
        scheduler = Request.Force_directed;
        seed = 7;
        moves = 500;
        chains = 2;
        exchange = 25;
      };
    Request.Sweep
      {
        Request.graph = Request.Named "fig4";
        library = Request.Lib_inline "add 1 1 0.999";
        lds = [ 5; 6 ];
        ads = [ 3; 4 ];
        approach = Request.Combined;
        scheduler = Request.Force_directed;
      };
    Request.Explore
      {
        Request.graph = Request.Named "fir16";
        library = Request.Lib_default;
        lds = [];
        ads = [];
        approach = Request.Baseline;
        scheduler = Request.Density;
      };
    Request.Check { synth with Request.strategy = Request.Bottom_up };
    Request.Fuzz { Request.seed = 42; cases = 100; max_nodes = 12; properties = None };
    Request.Ping;
    Request.Stats;
    Request.Health;
  ]

let print_request i job =
  let r = { Request.id = (if i mod 2 = 0 then Some (Printf.sprintf "r%d" i) else None); job } in
  let line = Request.to_string r in
  roundtrip line (Request.of_string line = Ok r);
  Printf.printf "request %s\n%s\n" (Request.job_kind job) line;
  let key =
    Request.cache_key ~graph_text:"graph text" ~library_text:"library text" job
  in
  Printf.printf "key %s\n"
    (match key with None -> "none" | Some k -> Fnv.to_hex k)

(* --- responses ------------------------------------------------------- *)

let summary =
  {
    Response.latency = 14;
    area = 9;
    reliability = 0.8125;
    instances = [ ("add1", 2); ("mul2", 1) ];
  }

let payloads =
  [
    Response.Design (Ok summary);
    Response.Anneal_result
      {
        Response.greedy = Error (Response.Latency_infeasible { best_achievable = 16 });
        annealed = Error (Response.Area_infeasible { best_achieved = 12 });
        a_moves = 4000;
        a_accepted = 123;
        a_pruned = 45;
        a_exchanges = 6;
        a_chains = 2;
        a_improved = false;
      };
    Response.Sweep_cells
      [
        { Response.ld = 5; ad = 3; reliability = None; area = None };
        { Response.ld = 6; ad = 4; reliability = Some 0.5; area = Some 4 };
      ];
    Response.Explore_frontier
      {
        Response.points =
          [ { Response.f_ld = 6; f_ad = 4; f_reliability = 0.75; f_area = 4 } ];
        cells = 12;
        evaluated = 5;
        derived = 7;
      };
    Response.Check_report
      {
        result = Error (Response.Scheduling_error "no \"slot\"");
        violations = [ "node 3: late" ];
      };
    Response.Fuzz_report
      [
        { Response.property = "bind"; cases = 100; failure = None };
        {
          Response.property = "sched";
          cases = 7;
          failure =
            Some
              {
                Response.case = 6;
                message = "overlap";
                shrink_steps = 3;
                counterexample = "node a add\n";
              };
        };
      ];
    Response.Pong;
    Response.Stats_snapshot
      {
        Response.uptime_ns = 1000;
        counters = [ ("serve.requests", 3) ];
        gauges = [ ("serve.queue_depth", 0) ];
        windows =
          [
            ( "serve.request",
              {
                Response.count = 3;
                sum_ns = 300;
                p50_ns = 64.;
                p90_ns = 128.;
                p99_ns = 128.5;
                max_ns = 130;
                window_ns = 60_000_000_000;
              } );
          ];
      };
    Response.Health_report
      {
        Response.healthy = true;
        uptime_ns = 1000;
        queue_depth = 1;
        queue_max = 64;
        in_flight = 2;
      };
  ]

let print_response what r =
  let line = Response.to_string r in
  roundtrip line (Response.of_string line = Ok r);
  Printf.printf "response %s\n%s\n" what line

let payload_kind = function
  | Response.Design _ -> "design"
  | Anneal_result _ -> "anneal"
  | Sweep_cells _ -> "sweep"
  | Explore_frontier _ -> "explore"
  | Check_report _ -> "check"
  | Fuzz_report _ -> "fuzz"
  | Pong -> "pong"
  | Stats_snapshot _ -> "stats"
  | Health_report _ -> "health"

(* --- malformed documents --------------------------------------------- *)

let req = Printf.sprintf {|{"api":"rchls.api/1",%s}|}

let bad_requests =
  [
    {|{"api":"rchls.api/1","job":|};
    {|[1,2]|};
    {|{"api":"rchls.api/2","job":"ping"}|};
    {|{"job":"ping"}|};
    req {|"job":"ping","unsupported schema version":1|};
    req {|"job":"ping","job":"ping"|};
    req {|"job":"synthesize"|};
    req {|"job":"synth","params":{"graph":{"name":"ewf"},"ld":1,"ad":1,"strateggy":"best"}|};
    req {|"job":"synth","params":{"graph":{"name":"ewf"},"ad":1}|};
    req {|"job":"synth","params":{"graph":{"name":"ewf"},"ld":"14","ad":1}|};
    req {|"job":"check","params":{"graph":{"name":"ewf"},"ld":1,"ad":1,"strategy":"fastest"}|};
    req {|"job":"synth","params":{"graph":{"name":"ewf"},"ld":1,"ad":1,"scheduler":"density-reference"}|};
    req {|"job":"anneal","params":{"graph":{"name":"ewf","text":"x"},"ld":1,"ad":1}|};
    req {|"job":"synth","params":{"graph":{"name":"ewf"},"library":{"default":true,"file":"a"},"ld":1,"ad":1}|};
    req {|"job":"sweep","params":{"graph":{"name":"ewf"},"lds":[1,"2"],"ads":[1]}|};
    req {|"job":"ping","params":{"x":1}|};
    req {|"job":"fuzz","params":{"properties":"bind"}|};
    (* parameters below their lower limits *)
    req {|"job":"synth","params":{"graph":{"name":"fir16"},"ld":0,"ad":10}|};
    req {|"job":"check","params":{"graph":{"name":"fig4"},"ld":5,"ad":0}|};
    req {|"job":"sweep","params":{"graph":{"name":"fig4"},"lds":[0,5],"ads":[3]}|};
    req {|"job":"explore","params":{"graph":{"name":"fig4"},"ads":[4,-1]}|};
    req {|"job":"anneal","params":{"graph":{"name":"fir16"},"ld":12,"ad":10,"chains":-3}|};
    req {|"job":"anneal","params":{"graph":{"name":"fir16"},"ld":12,"ad":10,"exchange":-1}|};
    req {|"job":"anneal","params":{"graph":{"name":"fir16"},"ld":12,"ad":10,"moves":-5}|};
  ]

let resp = Printf.sprintf {|{"api":"rchls.api/1","status":"ok","result":%s}|}

let bad_responses =
  [
    resp {|{"kind":"synth"}|};
    {|{"api":"rchls.api/1","status":"maybe"}|};
    {|{"api":"rchls.api/1","status":"error","error":{"code":"teapot","message":"x"}}|};
    {|{"api":"rchls.api/1","status":"ok","result":{"kind":"pong"},"cache":{"tier":"tape","key":"0"}}|};
    resp {|{"kind":"design","status":"infeasible","reason":"bored"}|};
    resp {|{"kind":"check","design":{"kind":"pong"},"passed":true,"violations":[]}|};
    resp {|{"kind":"sweep","cells":[{"ld":1,"ad":1,"reliability":"high","area":null}]}|};
    resp {|{"kind":"stats","uptime_ns":1,"counters":{"a":"x"},"gauges":{},"windows":{}}|};
    resp {|{"kind":"explore","frontier":[]}|};
    (* The three documents below are outside what the encoder can emit. *)
    resp {|{"kind":"check","design":{"kind":"design","status":"infeasible","reason":"scheduling_error","message":"m"},"passed":"nope","violations":[]}|};
    resp {|{"kind":"fuzz","outcomes":[{"property":"p","cases":1,"passed":true,"failure":{"case":0,"message":"m","shrink_steps":0,"counterexample":""}}]}|};
    resp {|{"kind":"health","uptime_ns":1,"queue_depth":0,"queue_max":1,"in_flight":0}|};
    (* A variant's case rejects the fields of its other cases. *)
    {|{"api":"rchls.api/1","status":"ok","result":{"kind":"pong"},"error":{"code":"internal","message":"x"}}|};
    {|{"api":"rchls.api/1","status":"error","error":{"code":"internal","message":"x"},"result":{"kind":"pong"}}|};
    resp {|{"kind":"design","status":"ok","latency":1,"area":1,"reliability":0.5,"instances":[],"reason":"scheduling_error"}|};
  ]

let print_verdict what line = function
  | Ok encoded -> Printf.printf "%s\n%s\n=> accepted: %s\n" what line encoded
  | Error e -> Printf.printf "%s\n%s\n=> %s\n" what line e

let () =
  List.iteri print_request requests;
  List.iteri
    (fun i p ->
      print_response (payload_kind p)
        {
          Response.id = (if i mod 2 = 0 then Some (Printf.sprintf "r%d" i) else None);
          result = Ok p;
          cache = None;
          timing = None;
        })
    payloads;
  print_response "error"
    {
      Response.id = Some "e1";
      result = Error { Response.code = Response.Unsupported_version; message = "no" };
      cache = None;
      timing = None;
    };
  let cache = Some { Response.tier = Response.Disk; key = "64c5f1a2b3e4d5c6" } in
  let timing = { Response.queue_ns = 10; exec_ns = 20; total_ns = 40 } in
  print_response "cached"
    { Response.id = Some "c1"; result = Ok Response.Pong; cache; timing = Some timing };
  Printf.printf "assemble_raw\n%s\n"
    (Response.assemble_raw ~id:(Some "h1") ~cache ~timing
       (Rchls_util.Json.to_string (Response.payload_to_json (List.hd payloads))));
  List.iter
    (fun line ->
      print_verdict "bad-request" line
        (Result.map Request.to_string (Request.of_string line)))
    bad_requests;
  List.iter
    (fun line ->
      print_verdict "bad-response" line
        (Result.map Response.to_string (Response.of_string line)))
    bad_responses;
  if !failures > 0 then exit 1
