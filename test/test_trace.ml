(* Tests for the structured tracing layer: span nesting and
   attribution, exception safety, the dependency-free JSON
   printer/parser, Chrome trace-event export well-formedness (including
   from parallel sweeps), domain-count invariance of the span stream,
   fault-campaign spans, and run-report schema round-trips. *)

open Rchls_util
module Sweep = Rchls_experiments.Sweep
module Report = Rchls_experiments.Report
module Benchmarks = Rchls_dfg.Benchmarks
module Library = Rchls_charlib.Library
module Engine = Rchls_core.Engine
module Fault_sim = Rchls_soft_error.Fault_sim
module Catalog = Rchls_circuits.Catalog

let collect f =
  let c = Trace.collector () in
  let v = Trace.with_sinks [ Trace.collector_sink c ] f in
  (v, Trace.events c)

(* --- spans ---------------------------------------------------------- *)

let test_span_nesting () =
  Telemetry.reset ();
  let (), evs =
    collect (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner"
              ~attrs:[ ("k", Trace.Int 1) ]
              (fun () -> ());
            Trace.instant "mark"))
  in
  let shape =
    List.map (fun (e : Trace.event) -> (e.kind, e.name, e.depth)) evs
  in
  Alcotest.(check bool) "event shape" true
    (shape
    = [
        (Trace.Begin, "outer", 0);
        (Trace.Begin, "inner", 1);
        (Trace.End, "inner", 1);
        (Trace.Instant, "mark", 1);
        (Trace.End, "outer", 0);
      ]);
  let inner_begin =
    List.find (fun (e : Trace.event) -> e.kind = Trace.Begin && e.name = "inner") evs
  in
  Alcotest.(check (option int)) "attrs preserved" (Some 1)
    (Trace.attr_int inner_begin.Trace.attrs "k");
  (* Span completions feed the telemetry histogram; its sum is the
     span's cumulative time. *)
  Alcotest.(check bool) "span time fed" true
    (match Telemetry.histogram "outer" with
    | Some h -> h.Telemetry.sum_ns > 0L
    | None -> false);
  Alcotest.(check bool) "histogram fed" true
    (match Telemetry.histogram "inner" with Some h -> h.Telemetry.count = 1 | None -> false)

let test_span_exception_safety () =
  let exception Boom in
  let (), evs =
    collect (fun () ->
        try Trace.with_span "failing" (fun () -> raise Boom)
        with Boom -> ())
  in
  let kinds = List.map (fun (e : Trace.event) -> e.Trace.kind) evs in
  Alcotest.(check bool) "End emitted on raise" true
    (kinds = [ Trace.Begin; Trace.End ]);
  Alcotest.(check int) "stack restored" 0 (Trace.current_depth ())

let test_disabled_is_silent () =
  Trace.set_sinks [];
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  (* Spans still run their body and instants are no-ops. *)
  let v = Trace.with_span "quiet" (fun () -> 41 + 1) in
  Trace.instant "quiet.instant";
  Alcotest.(check int) "body result" 42 v

(* --- Json ----------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  (match Json.of_string (Json.to_string ~pretty:true j) with
  | Ok j' -> Alcotest.(check bool) "round trip" true (j = j')
  | Error e -> Alcotest.fail e);
  (* Every escape class, between unescaped runs. *)
  let s = "ab\"\\\n\r\t\b\012\001\031cd" in
  Alcotest.(check string) "escapes" {|"ab\"\\\n\r\t\b\f\u0001\u001fcd"|}
    (Json.to_string (Json.Str s));
  Alcotest.(check bool) "escapes round trip" true
    (Json.of_string (Json.to_string (Json.Str s)) = Ok (Json.Str s))

let test_json_parser_basics () =
  (match Json.of_string {| [1, 2.5, "AA", true, null, {"k": []}] |} with
  | Ok (Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "AA"; Json.Bool true;
                    Json.Null; Json.Obj [ ("k", Json.List []) ] ]) -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (match Json.of_string "1 garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.of_string "{\"k\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed object accepted"

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_json_depth_limit () =
  (* Deep nesting must be an explicit error, never a Stack_overflow
     escaping the result contract. *)
  let deep k = String.make k '[' ^ "1" ^ String.make k ']' in
  (match Json.of_string (deep 1_000_000) with
  | Error e ->
    Alcotest.(check bool) "mentions nesting" true (contains ~sub:"nesting" e)
  | Ok _ -> Alcotest.fail "million-deep nesting accepted");
  (match Json.of_string (deep 513) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "default limit not enforced");
  (match Json.of_string (deep 512) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("512 levels rejected: " ^ e));
  (* The limit is per nesting level, not per value: a wide flat list
     is fine. *)
  (match
     Json.of_string ("[" ^ String.concat "," (List.init 10_000 string_of_int) ^ "]")
   with
  | Ok (Json.List l) -> Alcotest.(check int) "wide list" 10_000 (List.length l)
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (match Json.of_string ~max_depth:2 "[[[1]]]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "custom limit not enforced");
  match Json.of_string ~max_depth:2 "[[1]]" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("custom limit too eager: " ^ e)

let test_json_trailing_and_escapes () =
  List.iter
    (fun (input, what) ->
      match Json.of_string input with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " accepted"))
    [
      ("[1] [2]", "second top-level value");
      ("{} x", "trailing word after object");
      ("1,", "trailing comma after number");
      ({|"a\u12_4"|}, "underscore in \\u escape");
      ({|"a\u0x12"|}, "0x prefix in \\u escape");
      ({|"a\uzzzz"|}, "non-hex \\u escape");
      ({|"a\u00"|}, "truncated \\u escape");
    ];
  (* Whitespace after the value is not garbage; a valid escape parses. *)
  (match Json.of_string "[1]  \n\t " with
  | Ok (Json.List [ Json.Int 1 ]) -> ()
  | _ -> Alcotest.fail "trailing whitespace rejected");
  match Json.of_string {|"A\u00e9"|} with
  | Ok (Json.Str s) -> Alcotest.(check string) "utf8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "valid \\u escapes rejected"

let test_json_members () =
  let j = Json.Obj [ ("a", Json.Int 7); ("b", Json.Str "x") ] in
  Alcotest.(check (option int)) "member int" (Some 7)
    (Option.bind (Json.member "a" j) Json.to_int_opt);
  Alcotest.(check (option string)) "member str" (Some "x")
    (Option.bind (Json.member "b" j) Json.to_string_opt);
  Alcotest.(check bool) "missing" true (Json.member "c" j = None)

(* --- Chrome export -------------------------------------------------- *)

(* Well-formedness of a Chrome trace: it parses, every track's B/E
   events balance stack-wise (matching names, LIFO), and timestamps
   are monotone per track. *)
let check_chrome_well_formed evs =
  let doc = Trace.chrome_json evs in
  let reparsed =
    match Json.of_string (Json.to_string ~pretty:true doc) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e)
  in
  let events =
    match Option.bind (Json.member "traceEvents" reparsed) Json.to_list_opt with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.fail ("event missing field " ^ name)
  in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match Json.to_string_opt (field "ph" ev) with
      | Some "M" -> ()
      | Some _ ->
        let tid = Option.get (Json.to_int_opt (field "tid" ev)) in
        let prev = try Hashtbl.find by_tid tid with Not_found -> [] in
        Hashtbl.replace by_tid tid (ev :: prev)
      | None -> Alcotest.fail "event missing ph")
    events;
  Hashtbl.iter
    (fun _tid revd ->
      let track = List.rev revd in
      let stack = ref [] in
      let last_ts = ref neg_infinity in
      List.iter
        (fun ev ->
          let ts = Option.get (Json.to_float_opt (field "ts" ev)) in
          Alcotest.(check bool) "monotone ts per track" true (ts >= !last_ts);
          last_ts := ts;
          let name = Option.get (Json.to_string_opt (field "name" ev)) in
          match Json.to_string_opt (field "ph" ev) with
          | Some "B" -> stack := name :: !stack
          | Some "E" -> (
            match !stack with
            | top :: rest ->
              Alcotest.(check string) "E matches open B" top name;
              stack := rest
            | [] -> Alcotest.fail ("E without B: " ^ name))
          | Some "i" -> ()
          | _ -> Alcotest.fail "unexpected phase")
        track;
      Alcotest.(check (list string)) "track closes all spans" [] !stack)
    by_tid;
  events

let run_sweep_collecting ~domains ~lds ~ads =
  Telemetry.reset ();
  collect (fun () ->
      Sweep.run ~domains Sweep.Ours Benchmarks.example_fig4 Library.table1 ~lds ~ads)

let test_chrome_parallel_sweep () =
  let cells, evs = run_sweep_collecting ~domains:2 ~lds:[ 5; 6 ] ~ads:[ 4; 8 ] in
  Alcotest.(check int) "cells" 4 (List.length cells);
  let events = check_chrome_well_formed evs in
  let begin_names =
    List.filter_map
      (fun ev ->
        match Option.bind (Json.member "ph" ev) Json.to_string_opt with
        | Some "B" -> Option.bind (Json.member "name" ev) Json.to_string_opt
        | _ -> None)
      events
  in
  Alcotest.(check bool) "sweep.cell spans present" true
    (List.mem "sweep.cell" begin_names);
  Alcotest.(check bool) "pass spans present" true
    (List.exists (fun n -> String.length n > 5 && String.sub n 0 5 = "pass.") begin_names)

let prop_chrome_well_formed =
  QCheck2.Test.make ~name:"chrome export well-formed over grids/domains" ~count:20
    QCheck2.Gen.(
      triple (int_range 1 3)
        (list_size (int_range 1 2) (int_range 4 8))
        (list_size (int_range 1 2) (int_range 2 10)))
    (fun (domains, lds, ads) ->
      let _, evs = run_sweep_collecting ~domains ~lds ~ads in
      ignore (check_chrome_well_formed evs);
      true)

let span_names evs =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.kind = Trace.Begin then Some e.Trace.name else None)
    evs

(* Evaluation-cache-shaded spans: two workers may race to evaluate the
   same assignment fingerprint — both miss and both trace the
   evaluation (one insert wins, results are unaffected) — so the
   *count* of these spans is legitimately scheduling-dependent.  Only
   their presence is invariant. *)
let cache_shaded name =
  name = "engine.design_eval"
  || String.length name >= 6
     && (String.sub name 0 6 = "sched." || String.sub name 0 5 = "bind.")

let span_multiset evs =
  List.sort compare (List.filter (fun n -> not (cache_shaded n)) (span_names evs))

let span_set evs = List.sort_uniq compare (span_names evs)

let test_domain_count_invariance () =
  let lds = [ 5; 6 ] and ads = [ 4; 8 ] in
  let run d =
    let cells, evs = run_sweep_collecting ~domains:d ~lds ~ads in
    (cells, span_multiset evs, span_set evs)
  in
  let c1, s1, n1 = run 1 in
  let c2, s2, n2 = run 2 in
  let c4, s4, n4 = run 4 in
  Alcotest.(check bool) "cells identical 1 vs 2" true (c1 = c2);
  Alcotest.(check bool) "cells identical 1 vs 4" true (c1 = c4);
  Alcotest.(check (list string)) "span names 1 vs 2" s1 s2;
  Alcotest.(check (list string)) "span names 1 vs 4" s1 s4;
  Alcotest.(check (list string)) "distinct names 1 vs 2" n1 n2;
  Alcotest.(check (list string)) "distinct names 1 vs 4" n1 n4

(* --- fault campaign ------------------------------------------------- *)

(* --- one vocabulary ---------------------------------------------------- *)

module Request = Rchls_api.Request

(* The [name] attribute of the one [Begin] event of span [span]. *)
let span_attr evs span name =
  match List.filter (fun (e : Trace.event) -> e.kind = Trace.Begin && e.name = span) evs with
  | [ e ] -> Trace.attr_string e.attrs name
  | es -> Alcotest.failf "%d %s spans, expected 1" (List.length es) span

let test_strategy_attr_is_wire_name () =
  List.iter
    (fun (name, strategy) ->
      let _, evs =
        collect (fun () ->
            Engine.synthesize ~strategy Benchmarks.example_fig4 Library.table1 ~ld:8 ~ad:300)
      in
      Alcotest.(check (option string)) name (Some name)
        (span_attr evs "engine.synthesize" "strategy"))
    Request.strategies

let test_approach_attr_is_wire_name () =
  List.iter
    (fun (name, approach) ->
      let _, evs =
        collect (fun () ->
            Sweep.run ~domains:1 approach Benchmarks.example_fig4 Library.table1 ~lds:[ 8 ]
              ~ads:[ 300 ])
      in
      Alcotest.(check (option string)) name (Some name) (span_attr evs "sweep.run" "approach"))
    Request.approaches

let test_tables_round_trip () =
  let round_trip what table =
    List.iter
      (fun (name, v) ->
        Alcotest.(check string) what name (Request.name_of table v);
        Alcotest.(check int) (what ^ " value named once") 1
          (List.length (List.filter (fun (_, v') -> v' = v) table)))
      table
  in
  round_trip "strategy" Request.strategies;
  round_trip "scheduler" Request.schedulers;
  round_trip "approach" Request.approaches

let test_fault_campaign_spans () =
  Fault_sim.Campaign.cache_clear ();
  let nl = (Option.get (Catalog.find "rca")).Catalog.build ~width:4 in
  let config =
    { Fault_sim.Campaign.default with vectors = 1024; ci_target = Some 0.1 }
  in
  let report, evs = collect (fun () -> Fault_sim.Campaign.run ~config nl) in
  let begins name =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.Trace.kind = Trace.Begin && e.Trace.name = name)
         evs)
  in
  Alcotest.(check int) "one campaign span" 1 (begins "fault.campaign");
  Alcotest.(check int) "one span per node" (List.length report.Fault_sim.nodes)
    (begins "fault.node");
  let converged =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.kind = Trace.Instant && e.Trace.name = "fault.ci_converged")
      evs
  in
  Alcotest.(check bool) "ci convergence instants" true (converged <> []);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) "instant carries counts" true
        (Trace.attr_int e.Trace.attrs "observed" <> None
        && Trace.attr_int e.Trace.attrs "injected" <> None))
    converged;
  (* A cached rerun re-traces nothing but returns the same report. *)
  let report', evs' = collect (fun () -> Fault_sim.Campaign.run ~config nl) in
  Alcotest.(check bool) "cached report equal" true (report == report');
  Alcotest.(check int) "cached rerun traces no campaign" 0
    (List.length
       (List.filter (fun (e : Trace.event) -> e.Trace.name = "fault.campaign") evs'))

(* --- JSONL sink ----------------------------------------------------- *)

let test_jsonl_sink () =
  let path = Filename.temp_file "rchls_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  Trace.with_sinks [ Trace.jsonl_sink oc ] (fun () ->
      Trace.with_span "a" (fun () -> Trace.instant "b" ~attrs:[ ("x", Trace.Int 3) ]));
  close_out oc;
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let lines = List.rev !lines in
  Alcotest.(check int) "three events" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok j ->
        Alcotest.(check bool) "has kind and name" true
          (Json.member "kind" j <> None && Json.member "name" j <> None)
      | Error e -> Alcotest.fail ("line does not parse: " ^ e))
    lines

(* --- run reports ---------------------------------------------------- *)

let test_report_roundtrip () =
  Telemetry.reset ();
  let g = Benchmarks.example_fig4 in
  let lib = Library.table1 in
  match Engine.synthesize g lib ~ld:6 ~ad:4 with
  | Error _ -> Alcotest.fail "fig4 synthesis failed"
  | Ok d ->
    let report =
      Report.make ~command:"synth"
        ~args:[ ("ld", Json.Int 6); ("ad", Json.Int 4) ]
        ~graph:g ~library:lib ~result:(Report.design_json d) ()
    in
    (match Report.validate report with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("fresh report invalid: " ^ e));
    (match Json.of_string (Json.to_string ~pretty:true report) with
    | Error e -> Alcotest.fail ("report does not parse: " ^ e)
    | Ok reparsed ->
      (match Report.validate reparsed with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("reparsed report invalid: " ^ e));
      let reliability =
        Option.bind (Json.member "result" reparsed) (fun r ->
            Option.bind (Json.member "reliability" r) Json.to_float_opt)
      in
      Alcotest.(check bool) "reliability preserved" true
        (reliability = Some (Rchls_core.Design.reliability d));
      (* The synthesis above ran spans, so the snapshot has content. *)
      let counters =
        Option.bind (Json.member "telemetry" reparsed) (Json.member "counters")
      in
      (match counters with
      | Some (Json.Obj fields) ->
        Alcotest.(check bool) "counters non-empty" true (fields <> [])
      | _ -> Alcotest.fail "missing telemetry.counters"))

let test_report_failure_and_validate_rejects () =
  let f = Engine.Latency_infeasible { best_achievable = 9 } in
  let j = Report.failure_json f in
  Alcotest.(check (option string)) "status" (Some "infeasible")
    (Option.bind (Json.member "status" j) Json.to_string_opt);
  Alcotest.(check (option int)) "bound diagnostic" (Some 9)
    (Option.bind (Json.member "best_achievable_latency" j) Json.to_int_opt);
  match Report.validate (Json.Obj [ ("schema", Json.Str "bogus/9") ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bogus schema accepted"

let test_fingerprint_stability () =
  let fp = Report.fingerprint_hex (Rchls_dfg.Parse.to_text Benchmarks.example_fig4) in
  let fp' = Report.fingerprint_hex (Rchls_dfg.Parse.to_text Benchmarks.example_fig4) in
  Alcotest.(check string) "deterministic" fp fp';
  Alcotest.(check int) "16 hex chars" 16 (String.length fp);
  let other = Report.fingerprint_hex (Rchls_dfg.Parse.to_text Benchmarks.fir16) in
  Alcotest.(check bool) "distinguishes graphs" true (fp <> other)

let () =
  Alcotest.run "trace"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and attribution" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "disabled is silent" `Quick test_disabled_is_silent;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser basics" `Quick test_json_parser_basics;
          Alcotest.test_case "depth limit" `Quick test_json_depth_limit;
          Alcotest.test_case "trailing + escapes" `Quick test_json_trailing_and_escapes;
          Alcotest.test_case "members" `Quick test_json_members;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "parallel sweep well-formed" `Quick
            test_chrome_parallel_sweep;
          Alcotest.test_case "domain-count invariance" `Quick
            test_domain_count_invariance;
        ] );
      ( "vocabulary",
        [
          Alcotest.test_case "strategy attribute is the wire name" `Quick
            test_strategy_attr_is_wire_name;
          Alcotest.test_case "approach attribute is the wire name" `Quick
            test_approach_attr_is_wire_name;
          Alcotest.test_case "name tables round-trip" `Quick test_tables_round_trip;
        ] );
      ( "campaign",
        [ Alcotest.test_case "fault spans and instants" `Quick test_fault_campaign_spans ] );
      ("jsonl", [ Alcotest.test_case "sink lines parse" `Quick test_jsonl_sink ]);
      ( "report",
        [
          Alcotest.test_case "schema round trip" `Quick test_report_roundtrip;
          Alcotest.test_case "failure json + validate" `Quick
            test_report_failure_and_validate_rejects;
          Alcotest.test_case "fingerprints" `Quick test_fingerprint_stability;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_chrome_well_formed ] );
    ]
