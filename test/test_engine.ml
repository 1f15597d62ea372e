(* Engine refactor invariants: the memoized evaluation cache, the
   schedule memo beside it, the incremental critical-path maintenance
   and the Domain-parallel sweep driver must all be invisible —
   identical results to the naive sequential, cache-free computation. *)

open Rchls_dfg
module Engine = Rchls_core.Engine
module Design = Rchls_core.Design
module Library = Rchls_charlib.Library
module Resource = Rchls_charlib.Resource
module Sweep = Rchls_experiments.Sweep
module Telemetry = Rchls_util.Telemetry
module Schedule = Rchls_sched.Schedule
module Binding = Rchls_binding.Binding
module Gen = Rchls_check.Gen
module Rng = Rchls_util.Rng

let lib = Library.table1

(* Figure 6's initial allocation (line 3). *)
let most_reliable (nd : Dfg.node) = Library.most_reliable lib (Op.resource_class nd.op)

(* --- parallel sweep == sequential sweep ----------------------------- *)

let check_cells name seq par =
  Alcotest.(check int) (name ^ ": cell count") (List.length seq) (List.length par);
  List.iter2
    (fun (a : Sweep.cell) (b : Sweep.cell) ->
      Alcotest.(check (pair int int)) (name ^ ": coords") (a.ld, a.ad) (b.ld, b.ad);
      Alcotest.(check (option (float 0.))) (name ^ ": reliability") a.reliability
        b.reliability;
      Alcotest.(check (option int)) (name ^ ": area") a.area b.area)
    seq par

let sweep_grids =
  [
    ("fir16", Benchmarks.fir16, [ 9; 10; 12 ], [ 7; 9; 11 ]);
    ("ewf", Benchmarks.ewf, [ 14; 17 ], [ 5; 7; 9 ]);
    ("diffeq", Benchmarks.diffeq, [ 5; 6; 8 ], [ 5; 7 ]);
  ]

let test_parallel_matches_sequential () =
  List.iter
    (fun (name, g, lds, ads) ->
      List.iter
        (fun approach ->
          let seq = Sweep.run ~domains:1 approach g lib ~lds ~ads in
          let par = Sweep.run ~domains:4 approach g lib ~lds ~ads in
          check_cells name seq par)
        [ Sweep.Ours; Sweep.Baseline; Sweep.Combined ])
    sweep_grids

(* --- cached synthesis == uncached synthesis ------------------------- *)

let result_testable =
  let pp ppf = function
    | Ok d ->
      Format.fprintf ppf "Ok (R=%.12f, area=%d, latency=%d)" (Design.reliability d)
        (Design.area d) (Design.latency d)
    | Error f -> Engine.pp_failure ppf f
  in
  let eq a b =
    match (a, b) with
    | Ok x, Ok y ->
      Design.reliability x = Design.reliability y
      && Design.area x = Design.area y
      && Design.latency x = Design.latency y
    | Error x, Error y -> x = y
    | _ -> false
  in
  Alcotest.testable pp eq

let gen_bounds = QCheck2.Gen.(pair (int_range 5 14) (int_range 3 16))

let prop_cache_transparent g_name g =
  QCheck2.Test.make
    ~name:(Printf.sprintf "cache transparent on %s" g_name)
    ~count:40 gen_bounds
    (fun (ld, ad) ->
      let cached = Engine.synthesize ~use_cache:true g lib ~ld ~ad in
      let raw = Engine.synthesize ~use_cache:false g lib ~ld ~ad in
      Alcotest.check result_testable
        (Printf.sprintf "%s ld=%d ad=%d" g_name ld ad)
        raw cached;
      true)

(* --- schedule memo ---------------------------------------------------- *)

let starts d = Schedule.starts (Design.schedule d)

(* Node-by-node hosting: the version and instance index of each
   operation's unit. *)
let hosting d =
  List.map
    (fun (nd : Dfg.node) ->
      let i = Binding.instance_of_node (Design.binding d) nd.id in
      (i.Binding.resource.Resource.id, i.Binding.index))
    (Dfg.nodes (Design.graph d))

let same_design a b =
  starts a = starts b
  && Design.latency a = Design.latency b
  && Design.area a = Design.area b
  && Design.reliability a = Design.reliability b

(* Random graphs and libraries under every scheduler: [use_cache:false]
   runs every scheduler call, [use_cache:true] answers repeated delay
   vectors from the memo, and the two must agree design for design.
   Bounds follow the fuzz harness's engine differential: the
   fastest-version ASAP latency plus slack, and an area budget that
   covers feasible and infeasible runs. *)
let prop_memo_transparent =
  QCheck2.Test.make ~name:"memo transparent on random inputs, every scheduler" ~count:60
    QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.graph_of_spec (Gen.random_spec rng) in
      let lib = Gen.random_library rng in
      let versions (nd : Dfg.node) = Library.versions lib (Op.resource_class nd.op) in
      let fastest nd =
        List.fold_left (fun acc (v : Resource.t) -> min acc v.delay) max_int (versions nd)
      in
      let ld = Analysis.asap_latency g ~delay:fastest + Rng.int rng 4 in
      let max_area =
        Dfg.fold_nodes g ~init:0 (fun acc nd ->
            acc + List.fold_left (fun m (v : Resource.t) -> max m v.area) 0 (versions nd))
      in
      let ad = 1 + Rng.int rng max_area in
      List.iter
        (fun (name, scheduler) ->
          let run use_cache = Engine.synthesize ~scheduler ~use_cache g lib ~ld ~ad in
          match (run true, run false) with
          | Ok a, Ok b ->
            if not (same_design a b) then
              Alcotest.failf "seed %d, %s (ld=%d, ad=%d): memoized design differs" seed
                name ld ad
          | Error a, Error b when a = b -> ()
          | _ ->
            Alcotest.failf "seed %d, %s (ld=%d, ad=%d): outcomes differ" seed name ld ad)
        [
          ("density", `Density);
          ("density-reference", `Density_reference);
          ("force-directed", `Force_directed);
        ];
      true)

(* On fig4 (adders only) add2 and add3 both take one cycle, so the
   all-add2 and all-add3 assignments have one delay vector: the second
   realization must reuse the first one's schedule, and each must still
   bind and cost exactly what a fresh [Design.realize] gives. *)
let test_memo_shared_by_equal_delays () =
  let g = Benchmarks.example_fig4 in
  let add2 = Library.find_exn lib "add2" and add3 = Library.find_exn lib "add3" in
  Alcotest.(check int) "add2 and add3 share a delay" add2.Resource.delay add3.Resource.delay;
  let latency = 6 in
  let cache = Engine.create_cache () in
  let ctx = Engine.create ~cache g lib ~ld:latency ~ad:1000 ~initial:(fun _ -> add2) in
  let realize v =
    Dfg.iter_nodes g (fun (nd : Dfg.node) -> Engine.set_version ctx nd.id v);
    let hits = Telemetry.counter "cache.schedule.hits" in
    let memo = Result.get_ok (Engine.realize ctx ~latency) in
    let fresh = Design.realize_exn g lib ~assignment:(fun _ -> v) ~latency in
    Alcotest.(check (list (pair string int)))
      (v.Resource.id ^ ": binding") (hosting fresh) (hosting memo);
    Alcotest.(check int) (v.Resource.id ^ ": area") (Design.area fresh) (Design.area memo);
    Alcotest.(check bool) (v.Resource.id ^ ": design") true (same_design fresh memo);
    Telemetry.counter "cache.schedule.hits" - hits
  in
  let design_lookups f =
    let h0 = Telemetry.counter "cache.hits" and m0 = Telemetry.counter "cache.misses" in
    let r = f () in
    (r, (Telemetry.counter "cache.hits" - h0, Telemetry.counter "cache.misses" - m0))
  in
  Alcotest.(check (pair int (pair int int))) "first delay vector is computed" (0, (0, 1))
    (design_lookups (fun () -> realize add2));
  Alcotest.(check (pair int (pair int int))) "equal delay vector hits the memo" (1, (0, 1))
    (design_lookups (fun () -> realize add3));
  (* both designs were stored: asking for either again is a design hit *)
  Alcotest.(check (pair int (pair int int))) "two designs cached" (0, (1, 0))
    (design_lookups (fun () -> realize add2))

(* The memo is shared by every domain working on one cache: a sweep at
   2 domains fills it concurrently, a 1-domain sweep then reads it, and
   both must equal a sweep on a cache of its own. *)
let test_memo_shared_across_domains () =
  List.iter
    (fun (name, g, lds, ads) ->
      let cache = Engine.create_cache () in
      let par = Sweep.run ~domains:2 ~cache Sweep.Ours g lib ~lds ~ads in
      let seq = Sweep.run ~domains:1 ~cache Sweep.Ours g lib ~lds ~ads in
      let own = Sweep.run ~domains:1 Sweep.Ours g lib ~lds ~ads in
      check_cells (name ^ " shared 2 vs 1") par seq;
      check_cells (name ^ " shared vs own cache") own seq)
    sweep_grids

(* --- the occupancy lower bound and the recovery guard ----------------- *)

(* [Design.area_lower_bound] is what recovery rejects candidates on
   without realizing them, so it must never exceed the area of a design
   [Design.realize] returns: random graphs, libraries and assignments,
   every scheduler, latencies from the assignment's ASAP length to four
   steps beyond. *)
let prop_area_lower_bound =
  QCheck2.Test.make ~name:"area lower bound <= realized area, every scheduler" ~count:60
    QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.graph_of_spec (Gen.random_spec rng) in
      let lib = Gen.random_library rng in
      let chosen =
        Array.of_list
          (List.map
             (fun (nd : Dfg.node) ->
               let vs = Library.versions lib (Op.resource_class nd.op) in
               List.nth vs (Rng.int rng (List.length vs)))
             (Dfg.nodes g))
      in
      let assignment (nd : Dfg.node) = chosen.(nd.id) in
      let asap =
        Analysis.asap_latency g ~delay:(fun nd -> (assignment nd).Resource.delay)
      in
      for latency = asap to asap + 4 do
        let bound = Design.area_lower_bound g ~assignment ~latency in
        List.iter
          (fun scheduler ->
            match Design.realize ~scheduler g lib ~assignment ~latency with
            | Error _ -> ()
            | Ok d ->
              if Design.area d < bound then
                Alcotest.failf "seed %d, latency %d: area %d below the bound %d" seed
                  latency (Design.area d) bound)
          [ `Density; `Density_reference; `Force_directed ]
      done;
      true)

(* fir16 at (12, 7) leaves the line-26 downgrades over the bound, so
   recovery runs and rejects some candidates on the bound alone; the
   design must be the one an uncached run, which realizes every
   candidate it tries, returns. *)
let test_recovery_bound_skips () =
  let g = Benchmarks.fir16 and ld = 12 and ad = 7 in
  let skips = Telemetry.counter "recovery.bound_skips" in
  let cached = Engine.synthesize g lib ~ld ~ad in
  Alcotest.(check bool) "recovery.bound_skips > 0" true
    (Telemetry.counter "recovery.bound_skips" > skips);
  match (cached, Engine.synthesize ~use_cache:false g lib ~ld ~ad) with
  | Ok a, Ok b ->
    Alcotest.(check string) "reliability" "0.56449"
      (Printf.sprintf "%.5f" (Design.reliability a));
    Alcotest.(check bool) "same design" true (same_design a b);
    Alcotest.(check (list (pair string int))) "same binding" (hosting b) (hosting a)
  | _ -> Alcotest.fail "fir16 (12, 7) must be feasible"

(* --- incremental latency == from-scratch latency -------------------- *)

(* Random version flips, including on EWF whose node ids are NOT in
   topological order — the case that forces the worklist to follow
   Dfg.topological rather than raw ids. *)
let prop_incremental_latency g_name g =
  QCheck2.Test.make
    ~name:(Printf.sprintf "incremental latency on %s" g_name)
    ~count:30
    QCheck2.Gen.(list_size (int_range 1 40) (pair nat nat))
    (fun flips ->
      let ctx = Engine.create g lib ~ld:1000 ~ad:1000 ~initial:most_reliable in
      let nodes = Array.of_list (Dfg.nodes g) in
      List.iter
        (fun (ni, vi) ->
          let nd = nodes.(ni mod Array.length nodes) in
          let versions = Library.versions lib (Op.resource_class nd.Dfg.op) in
          let v = List.nth versions (vi mod List.length versions) in
          Engine.set_version ctx nd.Dfg.id v;
          let inc = Engine.current_latency ctx in
          let full = Engine.full_latency ctx in
          if inc <> full then
            Alcotest.failf "%s: incremental latency %d <> full %d after flipping %s to %s"
              g_name inc full nd.Dfg.name v.Resource.id)
        flips;
      true)

(* Batched moves: [Engine.assign] writes several versions and then
   makes one sweep from the earliest successor it marked.  Random
   multi-node moves, each kept or reverted in one further call, on EWF
   (ids not in topological order) and on random graphs and libraries.
   After every call each node's ASAP must equal a from-scratch
   [Analysis.asap], the latency a from-scratch one, and
   [latency.sparse_updates] must have grown by exactly the number of
   nodes whose delay changed. *)
let prop_batched_moves name draw =
  QCheck2.Test.make ~name:(Printf.sprintf "batched moves on %s" name) ~count:40
    QCheck2.Gen.int
    (fun seed ->
      let rng = Rng.create seed in
      let g, lib = draw rng in
      let versions (nd : Dfg.node) = Library.versions lib (Op.resource_class nd.op) in
      let initial nd = List.hd (versions nd) in
      let ctx = Engine.create g lib ~ld:1000 ~ad:1000 ~initial in
      let n = Dfg.node_count g in
      let apply what moves =
        let changed =
          List.length
            (List.filter
               (fun (id, (v : Resource.t)) ->
                 (Engine.version_of ctx id).Resource.delay <> v.Resource.delay)
               moves)
        in
        let before = Telemetry.counter "latency.sparse_updates" in
        Engine.assign ctx moves;
        let delay (nd : Dfg.node) = (Engine.version_of ctx nd.id).Resource.delay in
        let asap = Analysis.asap g ~delay in
        Array.iteri
          (fun id a ->
            if Engine.asap_of ctx id <> a then
              Alcotest.failf "%s seed %d, %s: node %d ASAP %d, from scratch %d" name seed
                what id (Engine.asap_of ctx id) a)
          asap;
        if Engine.current_latency ctx <> Engine.full_latency ctx then
          Alcotest.failf "%s seed %d, %s: latency %d, from scratch %d" name seed what
            (Engine.current_latency ctx) (Engine.full_latency ctx);
        let updates = Telemetry.counter "latency.sparse_updates" - before in
        if updates <> changed then
          Alcotest.failf "%s seed %d, %s: %d sparse updates for %d delay changes" name
            seed what updates changed
      in
      for _ = 1 to 20 do
        (* 1 to 4 distinct nodes, each to a random version of its class *)
        let ids =
          List.sort_uniq compare (List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n))
        in
        let moves =
          List.map
            (fun id ->
              let vs = versions (Dfg.node g id) in
              (id, List.nth vs (Rng.int rng (List.length vs))))
            ids
        in
        let olds = List.map (fun id -> (id, Engine.version_of ctx id)) ids in
        apply "move" moves;
        if Rng.int rng 2 = 0 then apply "revert" olds
      done;
      true)

(* --- fingerprint collision safety ----------------------------------- *)

(* The packed cache key must distinguish every assignment: enumerate the
   full version cross product on fig4 (all-adder graph, 3 versions per
   node) at several latencies and require all fingerprints distinct. *)
let test_fingerprint_collision_free () =
  let g = Benchmarks.example_fig4 in
  let n = Dfg.node_count g in
  let versions = Array.of_list (Library.versions lib Resource.Add) in
  let ctx = Engine.create g lib ~ld:1000 ~ad:1000 ~initial:most_reliable in
  let cur = Array.make n "" in
  let seen = Hashtbl.create 4096 in
  let latencies = [ 6; 8; 12 ] in
  let rec enum id =
    if id = n then
      List.iter
        (fun latency ->
          let fp = Engine.fingerprint ctx ~latency in
          let preimage =
            String.concat "," (Array.to_list cur) ^ ";" ^ string_of_int latency
          in
          match Hashtbl.find_opt seen fp with
          | Some other when other <> preimage ->
            Alcotest.failf "fingerprint collision: %s and %s share %Ld" other
              preimage fp
          | Some _ -> ()
          | None -> Hashtbl.add seen fp preimage)
        latencies
    else
      Array.iter
        (fun (v : Resource.t) ->
          Engine.set_version ctx id v;
          cur.(id) <- v.Resource.id;
          enum (id + 1))
        versions
  in
  enum 0;
  Alcotest.(check int) "distinct keys"
    (List.length latencies * int_of_float (float_of_int (Array.length versions) ** float_of_int n))
    (Hashtbl.length seen)

(* --- telemetry ------------------------------------------------------ *)

let test_counters_monotone_and_cache_hit () =
  Telemetry.reset ();
  let watched = [ "cache.hits"; "cache.misses"; "engine.runs"; "sched.runs"; "bind.runs" ] in
  let snapshot () = List.map (fun c -> Telemetry.counter c) watched in
  let run () =
    match Engine.synthesize ~strategy:Engine.Best Benchmarks.fir16 lib ~ld:11 ~ad:8 with
    | Ok _ -> ()
    | Error f -> Alcotest.failf "fir16 (11,8) unexpectedly failed: %a" Engine.pp_failure f
  in
  run ();
  let s1 = snapshot () in
  Alcotest.(check bool) "cache.hits > 0 after a Best run" true
    (Telemetry.counter "cache.hits" > 0);
  run ();
  let s2 = snapshot () in
  List.iter2
    (fun (name, a) b ->
      if b < a then Alcotest.failf "counter %s decreased: %d -> %d" name a b)
    (List.combine watched s1) s2;
  Telemetry.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Telemetry.counter "cache.hits")

(* --- pipeline surface ----------------------------------------------- *)

let test_pipeline_matches_driver () =
  let g = Benchmarks.diffeq in
  let via_driver = Engine.synthesize ~strategy:Engine.Figure6 g lib ~ld:7 ~ad:7 in
  let ctx = Engine.create g lib ~ld:7 ~ad:7 ~initial:most_reliable in
  let via_pipeline = Engine.run_pipeline (Engine.default_pipeline ~refine:true) ctx in
  Alcotest.check result_testable "explicit pipeline = Figure6 driver" via_driver
    via_pipeline

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "parallel sweep",
        [ Alcotest.test_case "1 domain = 4 domains" `Quick test_parallel_matches_sequential ]
      );
      ( "cache",
        [
          qt (prop_cache_transparent "fir16" Benchmarks.fir16);
          qt (prop_cache_transparent "diffeq" Benchmarks.diffeq);
          qt (prop_cache_transparent "ewf" Benchmarks.ewf);
        ] );
      ( "schedule memo",
        [
          qt prop_memo_transparent;
          Alcotest.test_case "equal delays share one entry" `Quick
            test_memo_shared_by_equal_delays;
          Alcotest.test_case "one cache, 1 and 2 domains" `Quick
            test_memo_shared_across_domains;
        ] );
      ( "recovery guard",
        [
          qt prop_area_lower_bound;
          Alcotest.test_case "fir16 (12, 7) skips, same design" `Quick
            test_recovery_bound_skips;
        ] );
      ( "incremental latency",
        [
          qt (prop_incremental_latency "fir16" Benchmarks.fir16);
          qt (prop_incremental_latency "ewf" Benchmarks.ewf);
          qt (prop_incremental_latency "diffeq" Benchmarks.diffeq);
          qt (prop_batched_moves "ewf" (fun _ -> (Benchmarks.ewf, lib)));
          qt
            (prop_batched_moves "random graphs" (fun rng ->
                 let g = Gen.graph_of_spec (Gen.random_spec rng) in
                 (g, Gen.random_library rng)));
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "collision-free on fig4 cross product" `Quick
            test_fingerprint_collision_free;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters monotone, cache hits on Best" `Quick
            test_counters_monotone_and_cache_hit;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "explicit pipeline = driver" `Quick test_pipeline_matches_driver ]
      );
    ]
