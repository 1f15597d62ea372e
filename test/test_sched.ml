(* Tests for the schedulers: schedule validation, partition densities,
   the paper's density scheduler, list scheduling, min-area packing and
   force-directed scheduling. *)

open Rchls_dfg
module Schedule = Rchls_sched.Schedule
module Density = Rchls_sched.Density
module Density_sched = Rchls_sched.Density_sched
module List_sched = Rchls_sched.List_sched
module Min_area = Rchls_sched.Min_area
module Force_directed = Rchls_sched.Force_directed
module Resource = Rchls_charlib.Resource

let unit_delay (_ : Dfg.node) = 1
let delay_by_op (nd : Dfg.node) = match nd.op with Op.Mul -> 2 | _ -> 1

let chain3 () =
  Dfg.create_exn ~name:"chain3"
    ~nodes:[ ("a", Op.Add); ("b", Op.Add); ("c", Op.Add) ]
    ~edges:[ ("a", "b"); ("b", "c") ]

let parallel4 () =
  Dfg.create_exn ~name:"par4"
    ~nodes:[ ("a", Op.Add); ("b", Op.Add); ("c", Op.Add); ("d", Op.Add) ]
    ~edges:[]

(* --- Schedule --- *)

let test_schedule_make_valid () =
  let g = chain3 () in
  let s = Schedule.make_exn g ~delay:unit_delay ~starts:[| 0; 1; 2 |] in
  Alcotest.(check int) "latency" 3 (Schedule.latency s);
  Alcotest.(check int) "start b" 1 (Schedule.start s 1);
  Alcotest.(check int) "finish b" 2 (Schedule.finish s 1)

let test_schedule_rejects_violation () =
  let g = chain3 () in
  match Schedule.make g ~delay:unit_delay ~starts:[| 0; 0; 2 |] with
  | Ok _ -> Alcotest.fail "should reject"
  | Error e -> Alcotest.(check bool) "mentions predecessor" true
      (String.length e > 0)

let test_schedule_rejects_negative () =
  let g = chain3 () in
  Alcotest.(check bool) "rejects" true
    (Result.is_error (Schedule.make g ~delay:unit_delay ~starts:[| -1; 1; 2 |]))

let test_schedule_rejects_width () =
  let g = chain3 () in
  Alcotest.(check bool) "rejects" true
    (Result.is_error (Schedule.make g ~delay:unit_delay ~starts:[| 0; 1 |]))

let test_running_at () =
  let g = chain3 () in
  let s = Schedule.make_exn g ~delay:(fun _ -> 2) ~starts:[| 0; 2; 4 |] in
  Alcotest.(check (list string)) "step 1" [ "a" ]
    (List.map (fun n -> n.Dfg.name) (Schedule.running_at s 1));
  Alcotest.(check (list string)) "step 2" [ "b" ]
    (List.map (fun n -> n.Dfg.name) (Schedule.running_at s 2))

let test_max_concurrency () =
  let g = parallel4 () in
  let s = Schedule.make_exn g ~delay:unit_delay ~starts:[| 0; 0; 1; 1 |] in
  let counts = Schedule.max_concurrency s ~key:(fun (nd : Dfg.node) -> nd.op) in
  Alcotest.(check int) "2 at once" 2 (List.assoc Op.Add counts)

(* --- Density --- *)

let test_density_fixed_contribution () =
  let g = chain3 () in
  let ranges = Analysis.ranges g ~delay:unit_delay ~latency:3 in
  let d =
    Density.build g ~delay:unit_delay ~ranges ~fixed:(fun id -> Some id)
  in
  (* With every node pinned at its id step, each step has density 1. *)
  Alcotest.(check (float 1e-9)) "step 0" 1. (Density.get d Resource.Add 0);
  Alcotest.(check (float 1e-9)) "step 2" 1. (Density.get d Resource.Add 2)

let test_density_probabilistic () =
  let g = parallel4 () in
  let ranges = Analysis.ranges g ~delay:unit_delay ~latency:2 in
  let d = Density.build g ~delay:unit_delay ~ranges ~fixed:(fun _ -> None) in
  (* 4 nodes, each with 2 candidate steps: density 2.0 per step. *)
  Alcotest.(check (float 1e-9)) "step 0" 2. (Density.get d Resource.Add 0);
  Alcotest.(check (float 1e-9)) "step 1" 2. (Density.get d Resource.Add 1)

let test_density_exclude () =
  let g = parallel4 () in
  let ranges = Analysis.ranges g ~delay:unit_delay ~latency:2 in
  let d = Density.build ~exclude:0 g ~delay:unit_delay ~ranges ~fixed:(fun _ -> None) in
  Alcotest.(check (float 1e-9)) "3 nodes remain" 1.5 (Density.get d Resource.Add 0)

let test_density_out_of_range () =
  let g = chain3 () in
  let ranges = Analysis.ranges g ~delay:unit_delay ~latency:3 in
  let d = Density.build g ~delay:unit_delay ~ranges ~fixed:(fun _ -> None) in
  Alcotest.(check (float 1e-9)) "before" 0. (Density.get d Resource.Add (-1));
  Alcotest.(check (float 1e-9)) "after" 0. (Density.get d Resource.Add 99)

let check_valid_schedule g delay (s : Schedule.t) =
  (* Re-validating through make ensures dependence correctness. *)
  let starts =
    Array.of_list (List.map (fun (nd : Dfg.node) -> Schedule.start s nd.id) (Dfg.nodes g))
  in
  match Schedule.make g ~delay ~starts with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("invalid schedule: " ^ e)

(* --- Density_sched --- *)

let test_density_sched_meets_latency () =
  List.iter
    (fun (name, g) ->
      let min_latency = Analysis.asap_latency g ~delay:delay_by_op in
      List.iter
        (fun slack ->
          let latency = min_latency + slack in
          match Density_sched.run g ~delay:delay_by_op ~latency with
          | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" name e)
          | Ok s ->
            Alcotest.(check bool)
              (Printf.sprintf "%s fits %d" name latency)
              true
              (Schedule.latency s <= latency);
            check_valid_schedule g delay_by_op s)
        [ 0; 1; 3 ])
    Benchmarks.all

let test_density_sched_rejects_tight () =
  let g = chain3 () in
  Alcotest.(check bool) "rejects" true
    (Result.is_error (Density_sched.run g ~delay:unit_delay ~latency:2))

let test_density_sched_balances () =
  (* 4 independent adds over 4 steps should use 1 adder, not 4. *)
  let g = parallel4 () in
  let s = Density_sched.run_exn g ~delay:unit_delay ~latency:4 in
  let counts = Schedule.max_concurrency s ~key:(fun (nd : Dfg.node) -> nd.op) in
  Alcotest.(check int) "1 at a time" 1 (List.assoc Op.Add counts)

(* --- List_sched --- *)

let test_list_sched_respects_limits () =
  let g = Benchmarks.fir16 in
  let group (nd : Dfg.node) = Op.resource_class nd.op in
  let limit = function Resource.Add -> 2 | Resource.Mul -> 1 in
  let s = List_sched.run_exn g ~delay:unit_delay ~group ~limit in
  check_valid_schedule g unit_delay s;
  List.iter
    (fun (k, c) ->
      Alcotest.(check bool) "within limit" true (c <= limit k))
    (Schedule.max_concurrency s ~key:group)

let test_list_sched_rejects_zero_limit () =
  let g = chain3 () in
  Alcotest.(check bool) "rejects" true
    (Result.is_error
       (List_sched.run g ~delay:unit_delay ~group:(fun _ -> ()) ~limit:(fun _ -> 0)))

let test_list_sched_unlimited_equals_asap () =
  List.iter
    (fun (_, g) ->
      let s =
        List_sched.run_exn g ~delay:delay_by_op ~group:(fun _ -> ()) ~limit:(fun _ -> 999)
      in
      Alcotest.(check int) "asap latency"
        (Analysis.asap_latency g ~delay:delay_by_op)
        (Schedule.latency s))
    Benchmarks.all

let test_list_sched_serializes () =
  let g = parallel4 () in
  let s =
    List_sched.run_exn g ~delay:unit_delay ~group:(fun _ -> ()) ~limit:(fun _ -> 1)
  in
  Alcotest.(check int) "latency 4" 4 (Schedule.latency s)

(* --- Min_area --- *)

let test_min_area_meets_latency () =
  let g = Benchmarks.fir16 in
  let group (nd : Dfg.node) = Op.resource_class nd.op in
  let s =
    Min_area.run g ~delay:unit_delay ~group
      ~group_area:(function Resource.Add -> 2 | Resource.Mul -> 4)
      ~latency:11
  in
  match s with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "fits" true (Schedule.latency s <= 11);
    check_valid_schedule g unit_delay s

let test_min_area_uses_few_instances () =
  (* 4 independent unit ops over 4 steps: one instance suffices. *)
  let g = parallel4 () in
  let s =
    Min_area.run g ~delay:unit_delay ~group:(fun _ -> ()) ~group_area:(fun _ -> 1)
      ~latency:4
  in
  match s with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "1 instance" 1
      (List.assoc () (Schedule.max_concurrency s ~key:(fun _ -> ())))

let test_min_area_rejects_infeasible () =
  let g = chain3 () in
  Alcotest.(check bool) "rejects" true
    (Result.is_error
       (Min_area.run g ~delay:unit_delay ~group:(fun _ -> ()) ~group_area:(fun _ -> 1)
          ~latency:2))

let test_min_area_mixed_groups_terminates () =
  (* Regression: zero-gain bumps must raise every group, not spin on
     the first one (found on fir16 with mixed version groups). *)
  let g = Benchmarks.fir16 in
  let lib = Rchls_charlib.Library.table1 in
  let version (nd : Dfg.node) =
    match (nd.op, nd.Dfg.id mod 2) with
    | Op.Mul, 0 -> Rchls_charlib.Library.find_exn lib "mul1"
    | Op.Mul, _ -> Rchls_charlib.Library.find_exn lib "mul2"
    | _, 0 -> Rchls_charlib.Library.find_exn lib "add1"
    | _, _ -> Rchls_charlib.Library.find_exn lib "add3"
  in
  let delay nd = (version nd).Resource.delay in
  let latency = Analysis.asap_latency g ~delay + 2 in
  match
    Min_area.run g ~delay
      ~group:(fun nd -> (version nd).Resource.id)
      ~group_area:(fun id -> (Rchls_charlib.Library.find_exn lib id).Resource.area)
      ~latency
  with
  | Ok s -> Alcotest.(check bool) "fits" true (Schedule.latency s <= latency)
  | Error e -> Alcotest.fail e

(* --- Force_directed --- *)

let test_force_directed_meets_latency () =
  List.iter
    (fun name ->
      let g = Option.get (Benchmarks.find name) in
      let min_latency = Analysis.asap_latency g ~delay:delay_by_op in
      match Force_directed.run g ~delay:delay_by_op ~latency:(min_latency + 2) with
      | Error e -> Alcotest.fail e
      | Ok s ->
        Alcotest.(check bool) "fits" true (Schedule.latency s <= min_latency + 2);
        check_valid_schedule g delay_by_op s)
    [ "fig4"; "diffeq"; "iir" ]

let test_force_directed_balances () =
  let g = parallel4 () in
  let s = Force_directed.run_exn g ~delay:unit_delay ~latency:4 in
  Alcotest.(check int) "1 at a time" 1
    (List.assoc Op.Add (Schedule.max_concurrency s ~key:(fun (nd : Dfg.node) -> nd.op)))

(* --- properties --- *)

let gen_dag = Rchls_check.Gen.qcheck_dag ~max_nodes:10 ~edge_factor:1 ()

let prop_density_sched_valid =
  QCheck2.Test.make ~name:"density scheduler yields valid schedules" ~count:150 gen_dag
    (fun g ->
      let latency = Analysis.asap_latency g ~delay:delay_by_op + 2 in
      match Density_sched.run g ~delay:delay_by_op ~latency with
      | Error _ -> false
      | Ok s ->
        Schedule.latency s <= latency
        && List.for_all
             (fun (nd : Dfg.node) ->
               List.for_all
                 (fun p -> Schedule.start s nd.id >= Schedule.finish s p)
                 (Dfg.preds g nd.id))
             (Dfg.nodes g))

let prop_list_sched_limit_respected =
  QCheck2.Test.make ~name:"list scheduler respects limits" ~count:150
    QCheck2.Gen.(pair gen_dag (int_range 1 3))
    (fun (g, k) ->
      let s =
        List_sched.run_exn g ~delay:delay_by_op ~group:(fun _ -> ()) ~limit:(fun _ -> k)
      in
      List.for_all (fun (_, c) -> c <= k) (Schedule.max_concurrency s ~key:(fun _ -> ())))

(* The incremental density scheduler must reproduce the full-recompute
   reference start-for-start: same least-dense tie handling, same
   constrained-range fixpoint.  Randomized over graph shape, delay
   model and latency slack. *)
let delay_variants =
  [|
    unit_delay;
    delay_by_op;
    (fun (nd : Dfg.node) -> 1 + (nd.id mod 3));
  |]

let prop_incremental_density_equals_reference =
  QCheck2.Test.make
    ~name:"incremental density scheduler = full-recompute reference" ~count:300
    QCheck2.Gen.(triple gen_dag (int_range 0 2) (int_range 0 4))
    (fun (g, di, slack) ->
      let delay = delay_variants.(di) in
      let latency = Analysis.asap_latency g ~delay + slack in
      match
        ( Density_sched.run g ~delay ~latency,
          Density_sched.run_reference g ~delay ~latency )
      with
      | Ok a, Ok b ->
        List.for_all
          (fun (nd : Dfg.node) -> Schedule.start a nd.id = Schedule.start b nd.id)
          (Dfg.nodes g)
      | Error _, Error _ -> true
      | _ -> false)

let prop_list_dispatch_equals_reference =
  QCheck2.Test.make ~name:"list dispatch = historical reference" ~count:200
    QCheck2.Gen.(triple gen_dag (int_range 1 3) bool)
    (fun (g, k, use_alap) ->
      let delay = delay_by_op in
      let group (nd : Dfg.node) = Op.resource_class nd.op in
      let limit (_ : Resource.op_class) = k in
      let priority_latency =
        if use_alap then Some (Analysis.asap_latency g ~delay + 1) else None
      in
      match
        ( List_sched.run ?priority_latency g ~delay ~group ~limit,
          List_sched.run_reference ?priority_latency g ~delay ~group ~limit )
      with
      | Ok a, Ok b ->
        List.for_all
          (fun (nd : Dfg.node) -> Schedule.start a nd.id = Schedule.start b nd.id)
          (Dfg.nodes g)
      | Error _, Error _ -> true
      | _ -> false)

let prop_min_area_equals_reference =
  QCheck2.Test.make ~name:"min-area packer = historical reference" ~count:200
    QCheck2.Gen.(triple gen_dag (int_range 0 2) (int_range 0 3))
    (fun (g, di, slack) ->
      let delay = delay_variants.(di) in
      let group (nd : Dfg.node) = Op.resource_class nd.op in
      let group_area = function Resource.Add -> 2 | Resource.Mul -> 4 in
      let latency = Analysis.asap_latency g ~delay + slack in
      match
        ( Min_area.run g ~delay ~group ~group_area ~latency,
          Min_area.run_reference g ~delay ~group ~group_area ~latency )
      with
      | Ok a, Ok b ->
        List.for_all
          (fun (nd : Dfg.node) -> Schedule.start a nd.id = Schedule.start b nd.id)
          (Dfg.nodes g)
      | Error _, Error _ -> true
      | _ -> false)

(* Per-node versions for the multi-group packer properties, as
   (delay, area): three adders, then three multipliers, chosen per node
   by [picks]; a node's group is its version's index.  Versions 0/1 and
   3/4 share class, delay and area, so gain ties between groups are
   common and the first-group tie-break decides them; grouping by
   version gives up to six groups, enough for probes of groups that
   were never blocked. *)
let versions = [| (1, 2); (1, 2); (2, 1); (2, 4); (2, 4); (3, 3) |]

let gen_picks = QCheck2.Gen.(list_size (int_range 1 12) (int_bound 2))

let version_of picks (nd : Dfg.node) =
  let pick = List.nth picks (nd.id mod List.length picks) in
  match Op.resource_class nd.op with Resource.Add -> pick | Resource.Mul -> 3 + pick

let gen_dag_wide = Rchls_check.Gen.qcheck_dag ~max_nodes:30 ~edge_factor:1 ()

let min_area_by_version g picks ~slack =
  let group = version_of picks in
  let delay nd = fst versions.(group nd) in
  let group_area v = snd versions.(v) in
  let latency = Analysis.asap_latency g ~delay + slack in
  ( Min_area.run g ~delay ~group ~group_area ~latency,
    Min_area.run_reference g ~delay ~group ~group_area ~latency )

let prop_min_area_versions_equal_reference =
  QCheck2.Test.make ~name:"min-area packer by version = historical reference"
    ~count:1000
    QCheck2.Gen.(triple gen_dag_wide gen_picks (int_range 0 3))
    (fun (g, picks, slack) ->
      match min_area_by_version g picks ~slack with
      | Ok a, Ok b ->
        List.for_all
          (fun (nd : Dfg.node) -> Schedule.start a nd.id = Schedule.start b nd.id)
          (Dfg.nodes g)
      | Error _, Error _ -> true
      | _ -> false)

(* Two fixed cases of the version grouping, checked start for start:
   on ewf with all six versions at its ASAP latency some fit round meets
   a group that was never blocked, so the skipped probe is reached; on
   ar with picks [1;2;0;0;1] two groups tie on a positive gain, so
   probing the groups in any order but the reference's changes the
   result. *)
let test_min_area_versions_on_benchmarks () =
  let check name picks ~slack =
    let g = Option.get (Benchmarks.find name) in
    match min_area_by_version g picks ~slack with
    | Ok a, Ok b ->
      List.iter
        (fun (nd : Dfg.node) ->
          Alcotest.(check int)
            (Printf.sprintf "%s+%d %s" name slack nd.name)
            (Schedule.start b nd.id) (Schedule.start a nd.id))
        (Dfg.nodes g)
    | _ -> Alcotest.failf "%s: packer failed at a feasible latency" name
  in
  Rchls_util.Telemetry.reset ();
  check "ewf" [ 0; 1; 2 ] ~slack:0;
  Alcotest.(check bool) "some probe skipped" true
    (Rchls_util.Telemetry.counter "sched.probes_skipped" > 0);
  check "ar" [ 1; 2; 0; 0; 1 ] ~slack:0;
  check "ar" [ 1; 2; 0; 0; 1 ] ~slack:1

(* The lemma the packer's skip rests on: when [dispatch] reports a group
   as never blocked, raising that group's limit alone reproduces the
   dispatch start for start. *)
let prop_unblocked_raise_changes_nothing =
  QCheck2.Test.make ~name:"raising a never-blocked group's limit changes nothing"
    ~count:300
    QCheck2.Gen.(
      quad gen_dag_wide gen_picks
        (list_size (return 6) (int_range 1 3))
        (list_size (return 16) (int_bound 3)))
    (fun (g, picks, lims, prios) ->
      let group = version_of picks in
      let delay nd = fst versions.(group nd) in
      let prio = Array.init (Dfg.node_count g) (fun id -> List.nth prios (id mod 16)) in
      let disp = List_sched.dispatcher g ~delay ~group ~prio in
      let limits = List_sched.limits_of disp ~limit:(List.nth lims) in
      let starts, lat = List_sched.dispatch disp ~limits in
      let starts = Array.copy starts in
      let blocked = Array.copy (List_sched.blocked disp) in
      let same = ref true in
      Array.iteri
        (fun c was_blocked ->
          if not was_blocked then begin
            let raised = Array.copy limits in
            raised.(c) <- raised.(c) + 1;
            let starts', lat' = List_sched.dispatch disp ~limits:raised in
            if lat' <> lat || starts' <> starts then same := false
          end)
        blocked;
      !same)

let prop_min_area_never_beats_lower_bound =
  QCheck2.Test.make ~name:"min-area concurrency >= occupancy lower bound" ~count:100
    gen_dag (fun g ->
      let latency = Analysis.asap_latency g ~delay:unit_delay + 1 in
      match
        Min_area.run g ~delay:unit_delay ~group:(fun _ -> ()) ~group_area:(fun _ -> 1)
          ~latency
      with
      | Error _ -> false
      | Ok s ->
        let used = List.assoc () (Schedule.max_concurrency s ~key:(fun _ -> ())) in
        let lb = (Dfg.node_count g + latency - 1) / latency in
        used >= lb)

let () =
  Alcotest.run "sched"
    [
      ( "schedule",
        [
          Alcotest.test_case "make valid" `Quick test_schedule_make_valid;
          Alcotest.test_case "rejects violation" `Quick test_schedule_rejects_violation;
          Alcotest.test_case "rejects negative" `Quick test_schedule_rejects_negative;
          Alcotest.test_case "rejects width" `Quick test_schedule_rejects_width;
          Alcotest.test_case "running_at" `Quick test_running_at;
          Alcotest.test_case "max concurrency" `Quick test_max_concurrency;
        ] );
      ( "density",
        [
          Alcotest.test_case "fixed" `Quick test_density_fixed_contribution;
          Alcotest.test_case "probabilistic" `Quick test_density_probabilistic;
          Alcotest.test_case "exclude" `Quick test_density_exclude;
          Alcotest.test_case "out of range" `Quick test_density_out_of_range;
        ] );
      ( "density scheduler",
        [
          Alcotest.test_case "meets latency on benchmarks" `Quick
            test_density_sched_meets_latency;
          Alcotest.test_case "rejects tight" `Quick test_density_sched_rejects_tight;
          Alcotest.test_case "balances" `Quick test_density_sched_balances;
        ] );
      ( "list scheduler",
        [
          Alcotest.test_case "respects limits" `Quick test_list_sched_respects_limits;
          Alcotest.test_case "rejects zero limit" `Quick test_list_sched_rejects_zero_limit;
          Alcotest.test_case "unlimited = ASAP" `Quick test_list_sched_unlimited_equals_asap;
          Alcotest.test_case "serializes" `Quick test_list_sched_serializes;
        ] );
      ( "min-area",
        [
          Alcotest.test_case "meets latency" `Quick test_min_area_meets_latency;
          Alcotest.test_case "few instances" `Quick test_min_area_uses_few_instances;
          Alcotest.test_case "rejects infeasible" `Quick test_min_area_rejects_infeasible;
          Alcotest.test_case "mixed groups terminate" `Quick
            test_min_area_mixed_groups_terminates;
          Alcotest.test_case "version groups on benchmarks" `Quick
            test_min_area_versions_on_benchmarks;
        ] );
      ( "force-directed",
        [
          Alcotest.test_case "meets latency" `Quick test_force_directed_meets_latency;
          Alcotest.test_case "balances" `Quick test_force_directed_balances;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_density_sched_valid; prop_list_sched_limit_respected;
            prop_min_area_never_beats_lower_bound;
            prop_incremental_density_equals_reference;
            prop_list_dispatch_equals_reference; prop_min_area_equals_reference;
            prop_min_area_versions_equal_reference;
            prop_unblocked_raise_changes_nothing;
          ] );
    ]
