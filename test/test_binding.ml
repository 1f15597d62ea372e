(* Tests for interval assignment (left-edge) and resource binding. *)

open Rchls_dfg
module Left_edge = Rchls_binding.Left_edge
module Binding = Rchls_binding.Binding
module Schedule = Rchls_sched.Schedule
module Library = Rchls_charlib.Library
module Resource = Rchls_charlib.Resource
module Gen = Rchls_check.Gen

let iv key start stop = { Left_edge.key; start; stop }

(* --- Left_edge --- *)

let test_left_edge_disjoint_share () =
  let tracks = Left_edge.assign [ iv 0 0 1; iv 1 1 2; iv 2 2 3 ] in
  Alcotest.(check int) "one track" 1 (List.length tracks)

let test_left_edge_overlap_split () =
  let tracks = Left_edge.assign [ iv 0 0 2; iv 1 1 3 ] in
  Alcotest.(check int) "two tracks" 2 (List.length tracks)

let test_left_edge_half_open () =
  (* [0,2) and [2,4) do not overlap. *)
  Alcotest.(check int) "share" 1 (Left_edge.track_count [ iv 0 0 2; iv 1 2 4 ])

let test_left_edge_empty_interval () =
  Alcotest.(check bool) "rejects" true
    (try
       ignore (Left_edge.assign [ iv 0 3 3 ]);
       false
     with Invalid_argument _ -> true)

let test_left_edge_track_order () =
  let tracks = Left_edge.assign [ iv 0 0 1; iv 1 0 1; iv 2 1 2 ] in
  (* Track 0 gets interval 0 then reuses for interval 2. *)
  let track0 = List.assoc 0 tracks in
  Alcotest.(check (list int)) "track 0 keys" [ 0; 2 ]
    (List.map (fun i -> i.Left_edge.key) track0)

let test_max_overlap () =
  Alcotest.(check int) "triple overlap" 3
    (Left_edge.max_overlap [ iv 0 0 3; iv 1 1 4; iv 2 2 5 ]);
  Alcotest.(check int) "empty" 0 (Left_edge.max_overlap [])

(* --- Binding --- *)

let lib = Library.table1

let realize name nodes edges assignment latency =
  let g = Dfg.create_exn ~name ~nodes ~edges in
  let delay (nd : Dfg.node) = (assignment nd).Resource.delay in
  let starts = Rchls_sched.Density_sched.run_exn g ~delay ~latency in
  let starts_arr =
    Array.of_list
      (List.map (fun (nd : Dfg.node) -> Schedule.start starts nd.id) (Dfg.nodes g))
  in
  let sched = Schedule.make_exn g ~delay ~starts:starts_arr in
  (g, Binding.bind sched ~assignment)

let add2 = Library.find_exn lib "add2"
let add1 = Library.find_exn lib "add1"

let test_binding_shares_chain () =
  (* A 3-add chain on one version needs exactly one instance. *)
  let _, b =
    realize "chain"
      [ ("a", Op.Add); ("b", Op.Add); ("c", Op.Add) ]
      [ ("a", "b"); ("b", "c") ]
      (fun _ -> add2)
      3
  in
  Alcotest.(check int) "one instance" 1 (Binding.instance_count b);
  Alcotest.(check int) "area" add2.Resource.area (Binding.area b)

let test_binding_splits_parallel () =
  let _, b =
    realize "par"
      [ ("a", Op.Add); ("b", Op.Add) ]
      []
      (fun _ -> add2)
      1
  in
  Alcotest.(check int) "two instances" 2 (Binding.instance_count b);
  Alcotest.(check int) "area" (2 * add2.Resource.area) (Binding.area b)

let test_binding_groups_by_version () =
  (* Same class, different versions never share. *)
  let assignment (nd : Dfg.node) = if nd.name = "a" then add1 else add2 in
  let g, b =
    realize "mix" [ ("a", Op.Add); ("b", Op.Add) ] [ ("a", "b") ] assignment 3
  in
  Alcotest.(check int) "two instances" 2 (Binding.instance_count b);
  let inst_a = Binding.instance_of_node b (Dfg.find_exn g "a").id in
  let inst_b = Binding.instance_of_node b (Dfg.find_exn g "b").id in
  Alcotest.(check string) "a on add1" "add1" inst_a.Binding.resource.Resource.id;
  Alcotest.(check string) "b on add2" "add2" inst_b.Binding.resource.Resource.id

let test_sharing_partners () =
  let g, b =
    realize "chain"
      [ ("a", Op.Add); ("b", Op.Add); ("c", Op.Add) ]
      [ ("a", "b"); ("b", "c") ]
      (fun _ -> add2)
      3
  in
  let a = (Dfg.find_exn g "a").id in
  let partners = Binding.sharing_partners b a in
  Alcotest.(check int) "two partners" 2 (List.length partners);
  Alcotest.(check bool) "not self" true (not (List.mem a partners))

let test_binding_rejects_delay_mismatch () =
  let g =
    Dfg.create_exn ~name:"one" ~nodes:[ ("a", Op.Add) ] ~edges:[]
  in
  (* Schedule with delay 1 but bind claiming a 2-cycle version. *)
  let sched = Schedule.make_exn g ~delay:(fun _ -> 1) ~starts:[| 0 |] in
  Alcotest.(check bool) "rejects" true
    (try
       ignore (Binding.bind sched ~assignment:(fun _ -> add1));
       false
     with Invalid_argument _ -> true)

let test_count_by_resource () =
  let _, b =
    realize "par3"
      [ ("a", Op.Add); ("b", Op.Add); ("c", Op.Add) ]
      []
      (fun _ -> add2)
      1
  in
  Alcotest.(check int) "3 instances of add2" 3
    (List.assoc add2 (Binding.count_by_resource b))

(* --- properties --- *)

let gen_intervals =
  QCheck2.Gen.(
    list_size (int_range 1 30)
      (bind (pair (int_bound 20) (int_range 1 5)) (fun (s, d) -> return (s, s + d))))

let with_keys ivs = List.mapi (fun i (s, e) -> iv i s e) ivs

let prop_left_edge_optimal =
  QCheck2.Test.make ~name:"left-edge track count = max overlap" ~count:300 gen_intervals
    (fun raw ->
      let ivs = with_keys raw in
      Left_edge.track_count ivs = Left_edge.max_overlap ivs)

let prop_left_edge_no_overlap_within_track =
  QCheck2.Test.make ~name:"no overlap within a track" ~count:300 gen_intervals (fun raw ->
      let ivs = with_keys raw in
      List.for_all
        (fun (_, track) ->
          let rec ok = function
            | a :: (b :: _ as rest) -> a.Left_edge.stop <= b.Left_edge.start && ok rest
            | _ -> true
          in
          ok track)
        (Left_edge.assign ivs))

let prop_left_edge_covers_all =
  QCheck2.Test.make ~name:"every interval assigned exactly once" ~count:300 gen_intervals
    (fun raw ->
      let ivs = with_keys raw in
      let assigned =
        List.concat_map (fun (_, t) -> List.map (fun i -> i.Left_edge.key) t)
          (Left_edge.assign ivs)
      in
      List.sort compare assigned = List.init (List.length ivs) Fun.id)

(* [Binding.area_of_schedule] stands in for a full binding when the
   realize path compares the packer's schedule with the first one, so
   it must equal the bound area exactly: random graphs, libraries and
   assignments, schedules from both the packer and the density
   scheduler, latencies from the assignment's ASAP length to four steps
   beyond. *)
let prop_area_of_schedule =
  QCheck2.Test.make ~name:"counted area = area of the left-edge binding" ~count:100
    QCheck2.Gen.int
    (fun seed ->
      let rng = Rchls_util.Rng.create seed in
      let g = Gen.graph_of_spec (Gen.random_spec rng) in
      let lib = Gen.random_library rng in
      let chosen = Gen.random_assignment rng lib g in
      let assignment (nd : Dfg.node) = chosen.(nd.id) in
      let delay nd = (assignment nd).Resource.delay in
      let asap = Analysis.asap_latency g ~delay in
      for latency = asap to asap + 4 do
        let schedules =
          [
            ( "min-area",
              Rchls_sched.Min_area.run g ~delay
                ~group:(fun nd -> (assignment nd).Resource.id)
                ~group_area:(fun id -> (Library.find_exn lib id).Resource.area)
                ~latency );
            ("density", Rchls_sched.Density_sched.run g ~delay ~latency);
          ]
        in
        List.iter
          (fun (name, s) ->
            match s with
            | Error e -> Alcotest.failf "seed %d, %s at %d: %s" seed name latency e
            | Ok s ->
              let bound = Binding.area (Binding.bind s ~assignment) in
              let counted = Binding.area_of_schedule s ~assignment in
              if counted <> bound then
                Alcotest.failf "seed %d, %s at %d: counted %d, bound %d" seed name
                  latency counted bound)
          schedules
      done;
      true)

let () =
  Alcotest.run "binding"
    [
      ( "left-edge",
        [
          Alcotest.test_case "disjoint share" `Quick test_left_edge_disjoint_share;
          Alcotest.test_case "overlap split" `Quick test_left_edge_overlap_split;
          Alcotest.test_case "half open" `Quick test_left_edge_half_open;
          Alcotest.test_case "empty interval" `Quick test_left_edge_empty_interval;
          Alcotest.test_case "track order" `Quick test_left_edge_track_order;
          Alcotest.test_case "max overlap" `Quick test_max_overlap;
        ] );
      ( "binding",
        [
          Alcotest.test_case "shares chain" `Quick test_binding_shares_chain;
          Alcotest.test_case "splits parallel" `Quick test_binding_splits_parallel;
          Alcotest.test_case "groups by version" `Quick test_binding_groups_by_version;
          Alcotest.test_case "sharing partners" `Quick test_sharing_partners;
          Alcotest.test_case "rejects delay mismatch" `Quick
            test_binding_rejects_delay_mismatch;
          Alcotest.test_case "count by resource" `Quick test_count_by_resource;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_left_edge_optimal; prop_left_edge_no_overlap_within_track;
            prop_left_edge_covers_all; prop_area_of_schedule;
          ] );
    ]
