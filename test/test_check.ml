(* Tests for the correctness layer (lib/check): the independent
   design-validity checker against known-good and deliberately
   corrupted designs, the shared generators and the structural
   shrinker, the engine checker hook, and a smoke run of the fuzzing
   harness (whose full campaigns run via the CLI's `rchls fuzz`). *)

open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library
module Binding = Rchls_binding.Binding
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Nmr_design = Rchls_redundancy.Nmr_design
module Orailoglu = Rchls_redundancy.Orailoglu
module Rng = Rchls_util.Rng
module Check = Rchls_check.Check
module Gen = Rchls_check.Gen
module Fuzz = Rchls_check.Fuzz

let lib = Library.table1

(* Most-reliable assignment, latency = ASAP plus a little slack. *)
let design_of ?latency g =
  let assignment (nd : Dfg.node) =
    Library.most_reliable lib (Op.resource_class nd.op)
  in
  let latency =
    match latency with
    | Some l -> l
    | None ->
      Analysis.asap_latency g ~delay:(fun nd -> (assignment nd).Resource.delay) + 2
  in
  Design.realize_exn g lib ~assignment ~latency

let invariants vs = List.sort_uniq compare (List.map (fun v -> v.Check.invariant) vs)

(* --- the checker on legal designs ----------------------------------- *)

let test_valid_designs_pass () =
  List.iter
    (fun (name, g) ->
      let d = design_of g in
      Alcotest.(check (list string))
        (name ^ " legal") [] (invariants (Check.design_violations d)))
    Benchmarks.all

let test_synthesized_designs_pass () =
  match Engine.synthesize Benchmarks.diffeq lib ~ld:6 ~ad:13 with
  | Error _ -> Alcotest.fail "diffeq synthesis failed"
  | Ok d ->
    Alcotest.(check (list string))
      "engine output legal" [] (invariants (Check.design_violations d))

let test_nmr_designs_pass () =
  let d = design_of Benchmarks.diffeq in
  let t = Nmr_design.of_design d in
  Alcotest.(check (list string)) "simplex" [] (invariants (Check.nmr_violations t));
  let t = Nmr_design.protect t ~instance_index:0 Nmr_design.Duplex in
  let t = Nmr_design.protect t ~instance_index:1 Nmr_design.Tmr in
  Alcotest.(check (list string)) "protected" [] (invariants (Check.nmr_violations t));
  match Orailoglu.synthesize Benchmarks.diffeq lib ~ld:8 ~ad:200 with
  | Ok t ->
    Alcotest.(check (list string)) "baseline" [] (invariants (Check.nmr_violations t))
  | Error _ -> Alcotest.fail "baseline synthesis failed"

(* --- the checker on corrupted parts --------------------------------- *)

(* Rerun the checker on a design's own parts with one ingredient
   tampered; each tamper must trip the expected invariant. *)
let parts_with ?reported ?version_of ?library d =
  let r =
    Option.value reported
      ~default:
        {
          Check.latency = Design.latency d;
          area = Design.area d;
          reliability = Design.reliability d;
        }
  in
  Check.parts_violations ~graph:(Design.graph d)
    ~library:(Option.value library ~default:(Design.library d))
    ~version_of:(Option.value version_of ~default:(Design.version_of d))
    ~schedule:(Design.schedule d) ~binding:(Design.binding d) ~reported:r ()

let test_detects_wrong_totals () =
  let d = design_of Benchmarks.example_fig4 in
  let r =
    {
      Check.latency = Design.latency d;
      area = Design.area d;
      reliability = Design.reliability d;
    }
  in
  Alcotest.(check (list string))
    "latency lie" [ "latency-total" ]
    (invariants (parts_with ~reported:{ r with Check.latency = r.Check.latency + 1 } d));
  Alcotest.(check (list string))
    "area lie" [ "area-total" ]
    (invariants (parts_with ~reported:{ r with Check.area = r.Check.area - 1 } d));
  Alcotest.(check (list string))
    "reliability lie" [ "reliability-total" ]
    (invariants
       (parts_with ~reported:{ r with Check.reliability = r.Check.reliability *. 0.999 } d));
  Alcotest.(check (list string))
    "nan reliability" [ "reliability-total" ]
    (invariants (parts_with ~reported:{ r with Check.reliability = Float.nan } d))

let test_detects_tampered_assignment () =
  let d = design_of Benchmarks.example_fig4 in
  (* Claim node 0 runs on a different version of its class than the
     one it was scheduled and bound with: the binding's instance
     version — and usually the recorded delay and the recomputed
     reliability too — disagree with the tampered assignment. *)
  let real = Design.version_of d 0 in
  let other =
    match
      List.find_opt
        (fun (v : Resource.t) -> v.id <> real.Resource.id)
        (Library.versions lib real.Resource.op_class)
    with
    | Some v -> v
    | None -> Alcotest.fail "table1 has a single version per class?"
  in
  let version_of id = if id = 0 then other else Design.version_of d id in
  let vs = invariants (parts_with ~version_of d) in
  Alcotest.(check bool) "tamper caught" true (vs <> []);
  Alcotest.(check bool) "blames plausible layers" true
    (List.for_all
       (fun i ->
         List.mem i
           [
             "schedule-delay"; "binding-version"; "reliability-total"; "precedence";
             "latency-total"; "area-total";
           ])
       vs)

let test_detects_foreign_library () =
  let d = design_of Benchmarks.example_fig4 in
  (* A library that lacks the bound versions entirely. *)
  let foreign =
    Library.of_resources_exn
      [
        {
          Resource.id = "only-add";
          display = "Only Adder";
          op_class = Resource.Add;
          architecture = "rand";
          area = 1;
          delay = 1;
          reliability = 0.99;
        };
        {
          Resource.id = "only-mul";
          display = "Only Multiplier";
          op_class = Resource.Mul;
          architecture = "rand";
          area = 1;
          delay = 1;
          reliability = 0.99;
        };
      ]
  in
  Alcotest.(check bool) "missing versions caught" true
    (List.mem "assignment-library" (invariants (parts_with ~library:foreign d)))

(* A binding whose records double-book one functional unit: two
   instance records claiming the same (resource, index) identity.
   [Binding.of_instances] deliberately accepts it (the node partition
   is still total) — catching it is the checker's job. *)
let test_detects_double_booked_instance () =
  let d = design_of Benchmarks.diffeq in
  let split_done = ref false in
  let instances =
    List.concat_map
      (fun (inst : Binding.instance) ->
        match inst.ops with
        | a :: (_ :: _ as rest) when not !split_done ->
          split_done := true;
          [ { inst with Binding.ops = [ a ] }; { inst with Binding.ops = rest } ]
        | _ -> [ inst ])
      (Binding.instances (Design.binding d))
  in
  if not !split_done then Alcotest.fail "no shared instance to split";
  let binding =
    match
      Binding.of_instances ~node_count:(Dfg.node_count (Design.graph d)) instances
    with
    | Ok b -> b
    | Error e -> Alcotest.failf "of_instances rejected a total partition: %s" e
  in
  let vs =
    invariants
      (Check.parts_violations ~graph:(Design.graph d) ~library:(Design.library d)
         ~version_of:(Design.version_of d) ~schedule:(Design.schedule d) ~binding
         ~reported:
           {
             Check.latency = Design.latency d;
             area = Design.area d;
             reliability = Design.reliability d;
           }
         ())
  in
  Alcotest.(check bool) "double booking caught" true (List.mem "binding-duplicate" vs)

let test_check_exn_and_counters () =
  Check.reset_stats ();
  let d = design_of Benchmarks.example_fig4 in
  Check.check_design_exn d;
  Check.check_nmr_exn (Nmr_design.of_design d);
  Alcotest.(check int) "two checked" 2 (Check.designs_checked ());
  Alcotest.(check int) "no violations" 0 (Check.violations_found ());
  Check.reset_stats ();
  Alcotest.(check int) "reset" 0 (Check.designs_checked ())

(* --- the engine hook ------------------------------------------------ *)

let test_engine_hook_sees_designs () =
  let seen = ref 0 in
  Engine.set_design_checker (Some (fun _ -> incr seen));
  Fun.protect ~finally:(fun () -> Engine.set_design_checker None) @@ fun () ->
  Alcotest.(check bool) "installed" true (Engine.design_checker_installed ());
  (match Engine.synthesize Benchmarks.diffeq lib ~ld:6 ~ad:13 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "synthesis failed");
  Alcotest.(check bool) "hook saw realized designs" true (!seen > 0);
  (* With a checker installed the default pipeline gains the check
     pass; without one it does not. *)
  let names () =
    List.map (fun (p : Engine.pass) -> p.name) (Engine.default_pipeline ~refine:true)
  in
  Alcotest.(check bool) "check pass appended" true (List.mem "check" (names ()));
  Engine.set_design_checker None;
  Alcotest.(check bool) "uninstalled" false (Engine.design_checker_installed ());
  Alcotest.(check bool) "check pass gone" false (List.mem "check" (names ()))

let test_enable_disable () =
  Check.enable ();
  Alcotest.(check bool) "enabled" true
    (Check.enabled () && Engine.design_checker_installed ());
  Check.disable ();
  Alcotest.(check bool) "disabled" false
    (Check.enabled () || Engine.design_checker_installed ())

let test_checked_synthesis_agrees_with_unchecked () =
  (* Installing the checker must not change results. *)
  let run () = Engine.synthesize Benchmarks.ewf lib ~ld:14 ~ad:9 in
  let plain = run () in
  Check.enable ();
  let checked = Fun.protect ~finally:Check.disable run in
  match (plain, checked) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "identical objectives" true
      (Design.reliability a = Design.reliability b
      && Design.area a = Design.area b
      && Design.latency a = Design.latency b)
  | Error _, Error _ -> Alcotest.fail "ewf synthesis failed"
  | _ -> Alcotest.fail "checker changed the feasibility verdict"

(* --- generators and shrinking --------------------------------------- *)

let well_formed (spec : Gen.spec) =
  let n = Array.length spec.Gen.ops in
  n > 0
  && List.for_all (fun (a, b) -> 0 <= a && a < b && b < n) spec.Gen.edges
  && spec.Gen.edges = List.sort_uniq compare spec.Gen.edges

let test_random_specs_well_formed () =
  let rng = Rng.create 11 in
  for _ = 1 to 500 do
    let spec = Gen.random_spec rng in
    Alcotest.(check bool) "well-formed" true (well_formed spec);
    (* Materialization is total on well-formed specs. *)
    let g = Gen.graph_of_spec spec in
    Alcotest.(check int) "node count" (Array.length spec.Gen.ops) (Dfg.node_count g)
  done

let test_spec_text_roundtrip () =
  let rng = Rng.create 23 in
  for _ = 1 to 50 do
    let spec = Gen.random_spec rng in
    match Parse.of_text (Gen.spec_to_text spec) with
    | Ok g ->
      Alcotest.(check int) "nodes survive" (Array.length spec.Gen.ops) (Dfg.node_count g);
      Alcotest.(check int) "edges survive" (List.length spec.Gen.edges) (Dfg.edge_count g)
    | Error e -> Alcotest.fail ("counterexample text does not parse: " ^ e)
  done

let test_shrink_candidates_well_formed () =
  let rng = Rng.create 37 in
  for _ = 1 to 200 do
    let spec = Gen.random_spec rng in
    Seq.iter
      (fun cand ->
        Alcotest.(check bool) "candidate well-formed" true (well_formed cand);
        ignore (Gen.graph_of_spec cand))
      (Gen.shrink_spec spec)
  done

let test_greedy_shrink_minimizes () =
  (* Minimizing "at least 5 nodes" must land exactly on 5 nodes with
     no edges and all-Add ops — the canonical smallest witness. *)
  let fails (spec : Gen.spec) = Array.length spec.Gen.ops >= 5 in
  let start = Gen.random_spec ~max_nodes:12 (Rng.create 99) in
  let start = if fails start then start else { start with Gen.ops = Array.make 9 Op.Mul } in
  let rec minimize spec budget =
    if budget = 0 then spec
    else
      match
        Seq.find_map (fun c -> if fails c then Some c else None) (Gen.shrink_spec spec)
      with
      | Some smaller -> minimize smaller (budget - 1)
      | None -> spec
  in
  let final = minimize start 200 in
  Alcotest.(check int) "five nodes" 5 (Array.length final.Gen.ops);
  Alcotest.(check int) "no edges" 0 (List.length final.Gen.edges);
  Alcotest.(check bool) "all adds" true
    (Array.for_all (fun op -> op = Op.Add) final.Gen.ops)

let test_random_library_valid () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let l = Gen.random_library rng in
    List.iter
      (fun cls ->
        let vs = Library.versions l cls in
        Alcotest.(check bool) "has versions" true (vs <> []);
        List.iter
          (fun (v : Resource.t) ->
            Alcotest.(check bool) "valid row" true (Result.is_ok (Resource.validate v)))
          vs)
      [ Resource.Add; Resource.Mul ]
  done

let test_random_assignment_class_correct () =
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    let g = Gen.graph_of_spec (Gen.random_spec rng) in
    let l = Gen.random_library rng in
    let a = Gen.random_assignment rng l g in
    Dfg.iter_nodes g (fun (nd : Dfg.node) ->
        Alcotest.(check bool) "class correct" true
          (a.(nd.id).Resource.op_class = Op.resource_class nd.op))
  done

(* --- fuzz harness smoke --------------------------------------------- *)

let test_fuzz_smoke_passes () =
  let outcomes = Fuzz.run ~seed:2026 ~cases:60 () in
  Alcotest.(check int) "all properties ran"
    (List.length (Fuzz.property_names ()))
    (List.length outcomes);
  Alcotest.(check (list string)) "in declared order" (Fuzz.property_names ())
    (List.map (fun (o : Fuzz.outcome) -> o.Fuzz.property) outcomes);
  List.iter
    (fun (o : Fuzz.outcome) ->
      match o.Fuzz.failure with
      | None -> Alcotest.(check int) (o.Fuzz.property ^ " cases") 60 o.Fuzz.cases_run
      | Some _ -> Alcotest.fail (Format.asprintf "%a" Fuzz.pp_outcome o))
    outcomes;
  Alcotest.(check bool) "all_passed" true (Fuzz.all_passed outcomes)

let test_fuzz_deterministic () =
  let strip (o : Fuzz.outcome) = (o.Fuzz.property, o.Fuzz.cases_run, o.Fuzz.failure = None) in
  let a = List.map strip (Fuzz.run ~seed:3 ~cases:25 ()) in
  let b = List.map strip (Fuzz.run ~seed:3 ~cases:25 ()) in
  Alcotest.(check bool) "same outcomes" true (a = b)

let test_fuzz_property_filter () =
  let outcomes = Fuzz.run ~properties:[ "design-validity" ] ~seed:7 ~cases:10 () in
  Alcotest.(check (list string)) "only the selected property" [ "design-validity" ]
    (List.map (fun (o : Fuzz.outcome) -> o.Fuzz.property) outcomes);
  Alcotest.(check bool) "raises on unknown" true
    (match Fuzz.run ~properties:[ "no-such-property" ] ~seed:1 ~cases:1 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- qcheck front end ------------------------------------------------ *)

let prop_qcheck_dag_realizable =
  QCheck2.Test.make ~name:"generated DAGs realize into legal designs" ~count:100
    (Gen.qcheck_dag ())
    (fun g ->
      let assignment (nd : Dfg.node) =
        Library.most_reliable lib (Op.resource_class nd.op)
      in
      let delay (nd : Dfg.node) = (assignment nd).Resource.delay in
      let latency = Analysis.asap_latency g ~delay + 2 in
      match Design.realize g lib ~assignment ~latency with
      | Error _ -> false
      | Ok d -> Check.design_violations d = [])

let () =
  Alcotest.run "check"
    [
      ( "checker",
        [
          Alcotest.test_case "benchmarks legal" `Quick test_valid_designs_pass;
          Alcotest.test_case "synthesized legal" `Quick test_synthesized_designs_pass;
          Alcotest.test_case "nmr legal" `Quick test_nmr_designs_pass;
          Alcotest.test_case "wrong totals" `Quick test_detects_wrong_totals;
          Alcotest.test_case "tampered assignment" `Quick test_detects_tampered_assignment;
          Alcotest.test_case "foreign library" `Quick test_detects_foreign_library;
          Alcotest.test_case "double-booked instance" `Quick
            test_detects_double_booked_instance;
          Alcotest.test_case "exn + counters" `Quick test_check_exn_and_counters;
        ] );
      ( "engine-hook",
        [
          Alcotest.test_case "hook sees designs" `Quick test_engine_hook_sees_designs;
          Alcotest.test_case "enable/disable" `Quick test_enable_disable;
          Alcotest.test_case "checking changes nothing" `Quick
            test_checked_synthesis_agrees_with_unchecked;
        ] );
      ( "generators",
        [
          Alcotest.test_case "specs well-formed" `Quick test_random_specs_well_formed;
          Alcotest.test_case "spec text round-trips" `Quick test_spec_text_roundtrip;
          Alcotest.test_case "shrinks well-formed" `Quick test_shrink_candidates_well_formed;
          Alcotest.test_case "greedy shrink minimizes" `Quick test_greedy_shrink_minimizes;
          Alcotest.test_case "random libraries valid" `Quick test_random_library_valid;
          Alcotest.test_case "assignments class-correct" `Quick
            test_random_assignment_class_correct;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "smoke run passes" `Quick test_fuzz_smoke_passes;
          Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
          Alcotest.test_case "property filter" `Quick test_fuzz_property_filter;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_qcheck_dag_realizable ]);
    ]
