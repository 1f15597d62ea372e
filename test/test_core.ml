(* Tests for the core synthesis engine: design realization and the
   reliability-centric algorithm, anchored on the values the paper
   publishes and the invariants the algorithm must keep. *)

open Rchls_dfg
module Library = Rchls_charlib.Library
module Resource = Rchls_charlib.Resource
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Trace = Rchls_util.Trace
module Telemetry = Rchls_util.Telemetry

let lib = Library.table1
let checkf5 = Alcotest.(check (float 5e-6))

(* --- Design --- *)

let most_reliable (nd : Dfg.node) = Library.most_reliable lib (Op.resource_class nd.op)
let fastest (nd : Dfg.node) = Library.fastest lib (Op.resource_class nd.op)

let test_realize_basic () =
  let g = Benchmarks.example_fig4 in
  let d = Design.realize_exn g lib ~assignment:most_reliable ~latency:12 in
  Alcotest.(check bool) "latency within bound" true (Design.latency d <= 12);
  Alcotest.(check bool) "area positive" true (Design.area d > 0);
  checkf5 "reliability = 0.999^6" (0.999 ** 6.) (Design.reliability d)

let test_realize_rejects_wrong_class () =
  let g = Benchmarks.example_fig4 in
  let mul1 = Library.find_exn lib "mul1" in
  Alcotest.(check bool) "rejects" true
    (Result.is_error (Design.realize g lib ~assignment:(fun _ -> mul1) ~latency:20))

let test_realize_rejects_tight_latency () =
  let g = Benchmarks.example_fig4 in
  Alcotest.(check bool) "rejects" true
    (Result.is_error (Design.realize g lib ~assignment:most_reliable ~latency:3))

let test_realize_min_area_packing () =
  (* 6 sequentially-dependent adds on fast adders fit one instance. *)
  let g = Benchmarks.example_fig4 in
  let add2 = Library.find_exn lib "add2" in
  let d = Design.realize_exn g lib ~assignment:(fun _ -> add2) ~latency:6 in
  Alcotest.(check int) "single shared adder" add2.Resource.area (Design.area d)

let test_version_histograms () =
  let g = Benchmarks.example_fig4 in
  let d = Design.realize_exn g lib ~assignment:most_reliable ~latency:12 in
  let add1 = Library.find_exn lib "add1" in
  Alcotest.(check int) "6 nodes on add1" 6 (List.assoc add1 (Design.version_histogram d));
  Alcotest.(check bool) "instances fewer than nodes" true
    (List.assoc add1 (Design.instance_histogram d) <= 6)

let test_min_feasible_latency () =
  let g = Benchmarks.fir16 in
  let d = Design.realize_exn g lib ~assignment:fastest ~latency:20 in
  Alcotest.(check int) "fir16 fastest = 9" 9 (Design.min_feasible_latency d)

(* --- synthesize: paper anchor points --- *)

let synth ?strategy ?refine g ld ad = Engine.synthesize ?strategy ?refine g lib ~ld ~ad

let reliability_of = function
  | Ok d -> Design.reliability d
  | Error f -> Alcotest.failf "unexpected failure: %a" Engine.pp_failure f

let test_fig5a_all_type2 () =
  (* The paper's Figure 5(a): Ld=5 Ad=4 forces two type-2 adders,
     R = 0.969^6 = 0.82783. *)
  let r = reliability_of (synth Benchmarks.example_fig4 5 4) in
  checkf5 "0.82783" 0.82783 r

let test_fig5b_beats_paper () =
  (* At the 6-completion-cycle reading of Figure 5(b) our search finds
     at least the paper's 0.90713 (it actually finds 0.92449 via a
     fully-shared Kogge-Stone adder). *)
  let r = reliability_of (synth Benchmarks.example_fig4 6 4) in
  Alcotest.(check bool) "at least the paper's mix" true (r >= 0.90713 -. 1e-9)

let test_fir_10_9_exact () =
  (* Table 2(a) first row: our value equals the published 0.59998. *)
  let r = reliability_of (synth Benchmarks.fir16 10 9) in
  checkf5 "0.59998" 0.59998 r

let test_fir_12_9_exact () =
  let r = reliability_of (synth Benchmarks.fir16 12 9) in
  checkf5 "0.81387" 0.81387 r

let test_diffeq_7_7_exact () =
  let r = reliability_of (synth Benchmarks.diffeq 7 7) in
  checkf5 "0.77497" 0.77497 r

let test_ewf_baseline_product () =
  (* All-fastest EWF = 0.969^25 = 0.45509, the paper's Ref[3] anchor. *)
  match Rchls_redundancy.Orailoglu.base_design Benchmarks.ewf lib ~ld:13 with
  | Ok d -> checkf5 "0.45509" 0.45509 (Design.reliability d)
  | Error f -> Alcotest.failf "baseline failed: %a" Engine.pp_failure f

(* --- synthesize: invariants --- *)

let all_cases =
  [
    (Benchmarks.example_fig4, 5, 4); (Benchmarks.example_fig4, 6, 4);
    (Benchmarks.fir16, 10, 9); (Benchmarks.fir16, 11, 11); (Benchmarks.fir16, 12, 13);
    (Benchmarks.ewf, 13, 9); (Benchmarks.ewf, 14, 11);
    (Benchmarks.diffeq, 5, 11); (Benchmarks.diffeq, 7, 7);
    (Benchmarks.iir_biquad, 6, 10); (Benchmarks.ar_lattice, 10, 12);
  ]

let test_bounds_respected () =
  List.iter
    (fun (g, ld, ad) ->
      match synth g ld ad with
      | Error _ -> ()
      | Ok d ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (%d,%d) latency" (Dfg.name g) ld ad)
          true
          (Design.latency d <= ld);
        Alcotest.(check bool)
          (Printf.sprintf "%s (%d,%d) area" (Dfg.name g) ld ad)
          true
          (Design.area d <= ad))
    all_cases

let test_reliability_is_version_product () =
  List.iter
    (fun (g, ld, ad) ->
      match synth g ld ad with
      | Error _ -> ()
      | Ok d ->
        let product =
          List.fold_left
            (fun acc (nd : Dfg.node) ->
              acc *. (Design.version_of d nd.id).Resource.reliability)
            1. (Dfg.nodes g)
        in
        checkf5 (Dfg.name g) product (Design.reliability d))
    all_cases

let test_infeasible_latency () =
  match synth Benchmarks.fir16 5 100 with
  | Error (Engine.Latency_infeasible { best_achievable }) ->
    Alcotest.(check int) "best is fastest asap" 9 best_achievable
  | Error f -> Alcotest.failf "wrong failure: %a" Engine.pp_failure f
  | Ok _ -> Alcotest.fail "should be infeasible"

let test_infeasible_area () =
  (* fir16 needs at least an adder and a multiplier: area >= 3. *)
  match synth Benchmarks.fir16 30 2 with
  | Error (Engine.Area_infeasible _) -> ()
  | Error f -> Alcotest.failf "wrong failure: %a" Engine.pp_failure f
  | Ok _ -> Alcotest.fail "should be infeasible"

let test_invalid_bounds_rejected () =
  Alcotest.(check bool) "ld=0" true
    (try ignore (synth Benchmarks.fir16 0 8); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "ad=0" true
    (try ignore (synth Benchmarks.fir16 10 0); false with Invalid_argument _ -> true)

let test_strategies_all_feasible_agree_on_bounds () =
  List.iter
    (fun strategy ->
      match synth ~strategy Benchmarks.diffeq 6 13 with
      | Ok d ->
        Alcotest.(check bool) "bounds" true (Design.latency d <= 6 && Design.area d <= 13)
      | Error _ -> ())
    [ `Figure6; `Bottom_up; `Best ]

let test_best_not_worse_than_components () =
  List.iter
    (fun (g, ld, ad) ->
      let get s = match synth ~strategy:s g ld ad with Ok d -> Some (Design.reliability d) | Error _ -> None in
      let best = get `Best and f6 = get `Figure6 and bu = get `Bottom_up in
      let ge a b = match (a, b) with
        | Some x, Some y -> x >= y -. 1e-12
        | Some _, None -> true
        | None, None -> true
        | None, Some _ -> false
      in
      Alcotest.(check bool) "best >= figure6" true (ge best f6);
      Alcotest.(check bool) "best >= bottom-up" true (ge best bu))
    all_cases

let test_refine_never_hurts () =
  List.iter
    (fun (g, ld, ad) ->
      match (synth ~refine:false g ld ad, synth ~refine:true g ld ad) with
      | Ok base, Ok refined ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (%d,%d)" (Dfg.name g) ld ad)
          true
          (Design.reliability refined >= Design.reliability base -. 1e-12)
      | _ -> ())
    all_cases

(* Every algorithm decision reaches the Trace layer as an [engine.*]
   instant.  On fig4 at (8, 300) the stream is the one [rchls synth
   --trace] prints (test/golden/cli.expected); on fir16 at (11, 9) it
   opens with [engine.initial] and agrees with the work counters. *)
let decisions g ~ld ~ad =
  let c = Trace.collector () in
  ignore
    (Trace.with_sinks [ Trace.collector_sink c ] (fun () -> Engine.synthesize g lib ~ld ~ad));
  List.filter_map
    (fun (ev : Trace.event) ->
      match ev.kind with
      | Trace.Instant when String.starts_with ~prefix:"engine." ev.name -> Some ev
      | _ -> None)
    (Trace.events c)

let test_decision_instants () =
  let show (ev : Trace.event) =
    let s k = Option.value ~default:"" (Trace.attr_string ev.attrs k) in
    let i k = Option.value ~default:0 (Trace.attr_int ev.attrs k) in
    match ev.name with
    | "engine.initial" -> Printf.sprintf "initial latency %d" (i "latency")
    | "engine.refine_upgrade" ->
      Printf.sprintf "refine: [%s] %s -> %s (R=%.5f)" (s "node") (s "from") (s "to")
        (Option.value ~default:0. (Trace.attr_float ev.attrs "reliability"))
    | name -> name
  in
  Alcotest.(check (list string))
    "fig4 (8, 300) decisions"
    [
      "initial latency 8";
      "initial latency 4";
      "refine: [A,B,C,D,E,F] add3 -> add1 (R=0.99401)";
    ]
    (List.map show (decisions Benchmarks.example_fig4 ~ld:8 ~ad:300));
  Telemetry.reset ();
  let evs = decisions Benchmarks.fir16 ~ld:11 ~ad:9 in
  let count name =
    List.length (List.filter (fun (ev : Trace.event) -> ev.name = name) evs)
  in
  Alcotest.(check string)
    "first decision" "engine.initial"
    (match evs with ev :: _ -> ev.name | [] -> "none");
  Alcotest.(check int) "one initial per run" (Telemetry.counter "engine.runs")
    (count "engine.initial");
  Alcotest.(check int) "downgrades" (Telemetry.counter "downgrade.steps")
    (count "engine.latency_downgrade" + count "engine.area_downgrade");
  Alcotest.(check int) "upgrades" (Telemetry.counter "refine.upgrades")
    (count "engine.refine_upgrade");
  Alcotest.(check bool) "fir16 (11, 9) downgrades" true
    (count "engine.latency_downgrade" > 0)

(* --- properties --- *)

let gen_bounds =
  QCheck2.Gen.(pair (int_range 5 14) (int_range 3 16))

let prop_feasible_designs_meet_bounds =
  QCheck2.Test.make ~name:"feasible designs meet both bounds" ~count:60 gen_bounds
    (fun (ld, ad) ->
      match Engine.synthesize Benchmarks.diffeq lib ~ld ~ad with
      | Error _ -> true
      | Ok d -> Design.latency d <= ld && Design.area d <= ad)

let prop_reliability_in_unit_interval =
  QCheck2.Test.make ~name:"reliability in (0,1]" ~count:60 gen_bounds (fun (ld, ad) ->
      match Engine.synthesize Benchmarks.iir_biquad lib ~ld ~ad with
      | Error _ -> true
      | Ok d ->
        let r = Design.reliability d in
        r > 0. && r <= 1.)

let () =
  Alcotest.run "core"
    [
      ( "design",
        [
          Alcotest.test_case "realize basic" `Quick test_realize_basic;
          Alcotest.test_case "rejects wrong class" `Quick test_realize_rejects_wrong_class;
          Alcotest.test_case "rejects tight latency" `Quick
            test_realize_rejects_tight_latency;
          Alcotest.test_case "min-area packing" `Quick test_realize_min_area_packing;
          Alcotest.test_case "histograms" `Quick test_version_histograms;
          Alcotest.test_case "min feasible latency" `Quick test_min_feasible_latency;
        ] );
      ( "paper anchors",
        [
          Alcotest.test_case "fig5a 0.82783" `Quick test_fig5a_all_type2;
          Alcotest.test_case "fig5b >= 0.90713" `Quick test_fig5b_beats_paper;
          Alcotest.test_case "fir (10,9) = 0.59998" `Quick test_fir_10_9_exact;
          Alcotest.test_case "fir (12,9) = 0.81387" `Quick test_fir_12_9_exact;
          Alcotest.test_case "diffeq (7,7) = 0.77497" `Quick test_diffeq_7_7_exact;
          Alcotest.test_case "ewf baseline 0.45509" `Quick test_ewf_baseline_product;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "bounds respected" `Quick test_bounds_respected;
          Alcotest.test_case "reliability = product" `Quick
            test_reliability_is_version_product;
          Alcotest.test_case "latency infeasible" `Quick test_infeasible_latency;
          Alcotest.test_case "area infeasible" `Quick test_infeasible_area;
          Alcotest.test_case "invalid bounds" `Quick test_invalid_bounds_rejected;
          Alcotest.test_case "strategies meet bounds" `Quick
            test_strategies_all_feasible_agree_on_bounds;
          Alcotest.test_case "best dominates" `Quick test_best_not_worse_than_components;
          Alcotest.test_case "refine never hurts" `Quick test_refine_never_hurts;
          Alcotest.test_case "trace events" `Quick test_decision_instants;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_feasible_designs_meet_bounds; prop_reliability_in_unit_interval ] );
    ]
