(* Tests for the redundancy baseline (ref [3]) and the combined
   approach. *)

open Rchls_dfg
module Library = Rchls_charlib.Library
module Resource = Rchls_charlib.Resource
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Nmr_design = Rchls_redundancy.Nmr_design
module Orailoglu = Rchls_redundancy.Orailoglu
module Combined = Rchls_redundancy.Combined

let lib = Library.table1
let checkf5 = Alcotest.(check (float 5e-6))

(* --- Nmr_design --- *)

let small_design () =
  let add2 = Library.find_exn lib "add2" in
  Design.realize_exn Benchmarks.example_fig4 lib ~assignment:(fun _ -> add2) ~latency:6

let test_levels_and_boost () =
  Alcotest.(check int) "simplex" 1 (Nmr_design.level_copies Nmr_design.Simplex);
  Alcotest.(check int) "duplex" 2 (Nmr_design.level_copies Nmr_design.Duplex);
  Alcotest.(check int) "tmr" 3 (Nmr_design.level_copies Nmr_design.Tmr);
  checkf5 "duplex boost" (1. -. (0.031 *. 0.031))
    (Nmr_design.boosted Nmr_design.Duplex 0.969);
  Alcotest.(check bool) "tmr boost above simplex" true
    (Nmr_design.boosted Nmr_design.Tmr 0.969 > 0.969)

let test_of_design_simplex () =
  let t = Nmr_design.of_design (small_design ()) in
  Alcotest.(check int) "no extra area" 0 (Nmr_design.redundancy_area t);
  checkf5 "same reliability" (0.969 ** 6.) (Nmr_design.reliability t)

let test_protect_accounting () =
  let t = Nmr_design.of_design (small_design ()) in
  let t' = Nmr_design.protect t ~instance_index:0 Nmr_design.Duplex in
  Alcotest.(check int) "one add2 copy" 2 (Nmr_design.redundancy_area t');
  Alcotest.(check bool) "reliability improved" true
    (Nmr_design.reliability t' > Nmr_design.reliability t);
  (* All six operations share that single adder, so every operation is
     protected. *)
  checkf5 "all duplexed"
    (Nmr_design.boosted Nmr_design.Duplex 0.969 ** 6.)
    (Nmr_design.reliability t')

let test_protect_rejects_lowering () =
  let t = Nmr_design.of_design (small_design ()) in
  let t' = Nmr_design.protect t ~instance_index:0 Nmr_design.Tmr in
  Alcotest.(check bool) "cannot lower" true
    (try
       ignore (Nmr_design.protect t' ~instance_index:0 Nmr_design.Duplex);
       false
     with Invalid_argument _ -> true)

let test_protect_rejects_bad_index () =
  let t = Nmr_design.of_design (small_design ()) in
  Alcotest.(check bool) "bad index" true
    (try
       ignore (Nmr_design.protect t ~instance_index:99 Nmr_design.Duplex);
       false
     with Invalid_argument _ -> true)

(* --- Orailoglu baseline --- *)

let test_fixed_version_is_fast_small () =
  match Orailoglu.base_design Benchmarks.fir16 lib ~ld:10 with
  | Error f -> Alcotest.failf "baseline failed: %a" Engine.pp_failure f
  | Ok d ->
    List.iter
      (fun (nd : Dfg.node) ->
        let v = Design.version_of d nd.id in
        let expect =
          match Op.resource_class nd.op with Resource.Add -> "add2" | Resource.Mul -> "mul2"
        in
        Alcotest.(check string) nd.name expect v.Resource.id)
      (Dfg.nodes Benchmarks.fir16)

let test_fir_baseline_exact () =
  (* 0.969^23 = 0.48467, the paper's Ref[3] FIR anchor. *)
  match Orailoglu.base_design Benchmarks.fir16 lib ~ld:10 with
  | Error f -> Alcotest.failf "baseline failed: %a" Engine.pp_failure f
  | Ok d ->
    checkf5 "0.48467" 0.48467 (Design.reliability d);
    Alcotest.(check int) "area 8" 8 (Design.area d)

let test_baseline_latency_infeasible () =
  Alcotest.(check bool) "fir16 below 9 cycles" true
    (Result.is_error (Orailoglu.base_design Benchmarks.fir16 lib ~ld:8))

let test_redundancy_within_budget () =
  List.iter
    (fun ad ->
      match Orailoglu.synthesize Benchmarks.fir16 lib ~ld:10 ~ad with
      | Error _ -> Alcotest.failf "should be feasible at ad=%d" ad
      | Ok t ->
        Alcotest.(check bool)
          (Printf.sprintf "area %d within %d" (Nmr_design.area t) ad)
          true
          (Nmr_design.area t <= ad))
    [ 9; 11; 13; 16; 20 ]

let test_redundancy_monotone_in_budget () =
  let r ad =
    match Orailoglu.synthesize Benchmarks.fir16 lib ~ld:10 ~ad with
    | Ok t -> Nmr_design.reliability t
    | Error _ -> 0.
  in
  Alcotest.(check bool) "9 <= 11" true (r 9 <= r 11 +. 1e-12);
  Alcotest.(check bool) "11 <= 13" true (r 11 <= r 13 +. 1e-12);
  Alcotest.(check bool) "13 <= 20" true (r 13 <= r 20 +. 1e-12)

let test_no_budget_no_redundancy () =
  match Orailoglu.synthesize Benchmarks.fir16 lib ~ld:10 ~ad:9 with
  | Ok t ->
    (* Base area is 8, slack 1, cheapest copy costs 2: nothing fits. *)
    Alcotest.(check int) "no copies" 0 (Nmr_design.redundancy_area t)
  | Error f -> Alcotest.failf "baseline failed: %a" Engine.pp_failure f

let test_area_infeasible () =
  Alcotest.(check bool) "rejects" true
    (Result.is_error (Orailoglu.synthesize Benchmarks.fir16 lib ~ld:10 ~ad:5))

(* --- Combined --- *)

let test_combined_dominates_ours () =
  List.iter
    (fun (g, ld, ad) ->
      match (Engine.synthesize g lib ~ld ~ad, Combined.synthesize g lib ~ld ~ad) with
      | Ok ours, Ok comb ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (%d,%d)" (Dfg.name g) ld ad)
          true
          (Nmr_design.reliability comb >= Design.reliability ours -. 1e-12)
      | Error _, Error _ -> ()
      | Ok _, Error f ->
        Alcotest.failf "combined failed where ours worked: %a" Engine.pp_failure f
      | Error _, Ok _ -> Alcotest.fail "combined feasible where ours failed (impossible)")
    [
      (Benchmarks.fir16, 11, 11); (Benchmarks.fir16, 12, 13); (Benchmarks.ewf, 14, 11);
      (Benchmarks.diffeq, 6, 15); (Benchmarks.diffeq, 7, 11);
    ]

let test_combined_duplicates_selected_version () =
  (* The copies must use the version our approach selected: redundancy
     area is a sum of selected-version areas. *)
  match Combined.synthesize Benchmarks.diffeq lib ~ld:6 ~ad:15 with
  | Error f -> Alcotest.failf "combined failed: %a" Engine.pp_failure f
  | Ok t ->
    let extra = Nmr_design.redundancy_area t in
    let level_area =
      List.fold_left
        (fun acc ((inst : Rchls_binding.Binding.instance), level) ->
          acc + ((Nmr_design.level_copies level - 1) * inst.resource.Resource.area))
        0 (Nmr_design.levels t)
    in
    Alcotest.(check int) "accounting consistent" level_area extra

(* --- properties --- *)

let prop_nmr_area_conserves =
  QCheck2.Test.make ~name:"area = design area + redundancy area" ~count:50
    QCheck2.Gen.(pair (int_range 5 8) (int_range 6 20))
    (fun (ld, ad) ->
      match Combined.synthesize Benchmarks.diffeq lib ~ld ~ad with
      | Error _ -> true
      | Ok t ->
        Nmr_design.area t
        = Design.area (Nmr_design.design t) + Nmr_design.redundancy_area t)

let prop_baseline_obeys_budget =
  QCheck2.Test.make ~name:"baseline never exceeds the area budget" ~count:50
    QCheck2.Gen.(pair (int_range 9 14) (int_range 6 24))
    (fun (ld, ad) ->
      match Orailoglu.synthesize Benchmarks.fir16 lib ~ld ~ad with
      | Error _ -> true
      | Ok t -> Nmr_design.area t <= ad)

let () =
  Alcotest.run "redundancy"
    [
      ( "nmr design",
        [
          Alcotest.test_case "levels and boost" `Quick test_levels_and_boost;
          Alcotest.test_case "of_design simplex" `Quick test_of_design_simplex;
          Alcotest.test_case "protect accounting" `Quick test_protect_accounting;
          Alcotest.test_case "rejects lowering" `Quick test_protect_rejects_lowering;
          Alcotest.test_case "rejects bad index" `Quick test_protect_rejects_bad_index;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "fixed version" `Quick test_fixed_version_is_fast_small;
          Alcotest.test_case "fir anchor 0.48467" `Quick test_fir_baseline_exact;
          Alcotest.test_case "latency infeasible" `Quick test_baseline_latency_infeasible;
          Alcotest.test_case "within budget" `Quick test_redundancy_within_budget;
          Alcotest.test_case "monotone in budget" `Quick test_redundancy_monotone_in_budget;
          Alcotest.test_case "no budget no copies" `Quick test_no_budget_no_redundancy;
          Alcotest.test_case "area infeasible" `Quick test_area_infeasible;
        ] );
      ( "combined",
        [
          Alcotest.test_case "dominates ours" `Quick test_combined_dominates_ours;
          Alcotest.test_case "duplicates selected version" `Quick
            test_combined_duplicates_selected_version;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_nmr_area_conserves; prop_baseline_obeys_budget ] );
    ]
