(* Tests for the parallel-tempering annealer (lib/anneal): move-set
   legality via the independent checker on every visited state, the
   Metropolis acceptance rule under an injected RNG, determinism in
   the seed and across domain counts, pinned end-to-end regressions on
   the paper benchmarks, and a differential oracle on exhaustively
   enumerable graphs. *)

open Rchls_dfg
module Resource = Rchls_charlib.Resource
module Library = Rchls_charlib.Library
module Design = Rchls_core.Design
module Engine = Rchls_core.Engine
module Rng = Rchls_util.Rng
module Check = Rchls_check.Check
module Gen = Rchls_check.Gen
module Anneal = Rchls_anneal.Anneal

let lib = Library.table1

let synth_exn g ~ld ~ad =
  match Engine.synthesize g lib ~ld ~ad with
  | Ok d -> d
  | Error _ ->
    Alcotest.failf "greedy synthesis of %s failed (ld=%d ad=%d)" (Dfg.name g) ld ad

let anneal_exn ?params g ~ld ~ad =
  match Anneal.synthesize ?params g lib ~ld ~ad with
  | Ok r -> r
  | Error _ ->
    Alcotest.failf "anneal synthesis of %s failed (ld=%d ad=%d)" (Dfg.name g) ld ad

(* --- move-generator legality ----------------------------------------- *)

(* Every state a chain visits must package into a design the
   independent checker accepts, inside both bounds: the move set never
   constructs an illegal intermediate, even transiently at a hot
   temperature. *)
let test_moves_stay_legal () =
  List.iter
    (fun (g, ld, ad) ->
      let seed = synth_exn g ~ld ~ad in
      let visited =
        Anneal.run_chain_for_test ~seed:3 ~temp:0.08 ~moves:400 ~ld ~ad seed
      in
      Alcotest.(check bool)
        (Dfg.name g ^ " accepted at least one move")
        true
        (List.length visited > 0);
      List.iter
        (fun d ->
          Alcotest.(check (list string))
            (Dfg.name g ^ " visited state legal")
            []
            (List.map (fun v -> v.Check.invariant) (Check.design_violations d));
          Alcotest.(check bool)
            (Dfg.name g ^ " latency bound")
            true
            (Design.latency d <= ld);
          Alcotest.(check bool) (Dfg.name g ^ " area bound") true (Design.area d <= ad))
        visited)
    [ (Benchmarks.ewf, 19, 18); (Benchmarks.diffeq, 7, 12) ]

(* A freezing chain (temp 0) only ever accepts downhill or plateau
   moves, so every visited state is at least as reliable as the
   seed. *)
let test_cold_chain_never_regresses () =
  let g = Benchmarks.diffeq in
  let seed = synth_exn g ~ld:7 ~ad:12 in
  let visited = Anneal.run_chain_for_test ~seed:5 ~temp:0.0 ~moves:400 ~ld:7 ~ad:12 seed in
  List.iter
    (fun d ->
      Alcotest.(check bool) "cold chain monotone" true
        (Design.reliability d >= Design.reliability seed -. 1e-12))
    visited

(* --- the Metropolis rule under an injected RNG ------------------------ *)

let test_accept_downhill_always () =
  let rng = Rng.create 11 in
  List.iter
    (fun (temp, delta) ->
      Alcotest.(check bool)
        (Printf.sprintf "delta=%g temp=%g" delta temp)
        true
        (Anneal.accept ~rng ~temp ~delta))
    [ (0.5, 0.0); (0.5, -1.0); (0.0, 0.0); (0.0, -0.5); (1e-9, -1e-9) ]

(* With a copied RNG we can predict the single uniform draw, so the
   uphill branch is checked against exp(-delta/temp) exactly. *)
let test_accept_matches_boltzmann () =
  let rng = Rng.create 23 in
  for i = 1 to 200 do
    let delta = 0.001 *. float_of_int i in
    let temp = 0.02 +. (0.001 *. float_of_int (i mod 7)) in
    let probe = Rng.copy rng in
    let u = Rng.float probe 1.0 in
    let expected = u < exp (-.delta /. temp) in
    Alcotest.(check bool)
      (Printf.sprintf "case %d" i)
      expected
      (Anneal.accept ~rng ~temp ~delta)
  done

let test_accept_zero_temp_rejects_uphill () =
  let rng = Rng.create 7 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "uphill at T=0" false
      (Anneal.accept ~rng ~temp:0.0 ~delta:1e-6)
  done

(* Acceptance frequency of a fixed uphill delta grows with
   temperature. *)
let test_accept_monotone_in_temperature () =
  let frequency temp =
    let rng = Rng.create 99 in
    let n = ref 0 in
    for _ = 1 to 2000 do
      if Anneal.accept ~rng ~temp ~delta:0.05 then incr n
    done;
    !n
  in
  let cold = frequency 0.02 and warm = frequency 0.08 and hot = frequency 0.5 in
  Alcotest.(check bool) "cold < warm" true (cold < warm);
  Alcotest.(check bool) "warm < hot" true (warm < hot)

(* --- the temperature ladder ------------------------------------------- *)

let test_ladder_geometric () =
  let p = { Anneal.default_params with Anneal.chains = 5; t0 = 0.08; ratio = 0.5 } in
  let l = Anneal.ladder p in
  Alcotest.(check int) "length" 5 (Array.length l);
  Array.iteri
    (fun k t ->
      Alcotest.(check (float 1e-12)) (Printf.sprintf "rung %d" k) (0.08 *. (0.5 ** float_of_int k)) t)
    l

(* --- determinism ------------------------------------------------------ *)

let render (greedy, annealed, (s : Anneal.stats)) =
  Printf.sprintf "%.17g,%d,%d|%.17g,%d,%d|%d,%d,%d,%d,%b"
    (Design.reliability greedy) (Design.area greedy) (Design.latency greedy)
    (Design.reliability annealed) (Design.area annealed) (Design.latency annealed)
    s.Anneal.attempted s.Anneal.accepted s.Anneal.pruned s.Anneal.exchanges
    s.Anneal.improved

let test_same_seed_same_result () =
  let g = Benchmarks.diffeq in
  let params = { Anneal.default_params with Anneal.moves = 600; chains = 3 } in
  let a = render (anneal_exn ~params g ~ld:7 ~ad:12) in
  let b = render (anneal_exn ~params g ~ld:7 ~ad:12) in
  Alcotest.(check string) "two runs agree" a b;
  let c =
    render (anneal_exn ~params:{ params with Anneal.seed = params.Anneal.seed + 1 } g ~ld:7 ~ad:12)
  in
  (* different seeds explore differently: the stats fingerprint (which
     includes the acceptance counter) must move even when the winning
     design happens to coincide *)
  Alcotest.(check bool) "different seed explores differently" true (a <> c)

(* --- pinned end-to-end regressions ------------------------------------ *)

(* Exact reliability pins on the paper benchmarks (full float
   precision, default parameters).  ewf/diffeq knees are cells where
   greedy is already optimal — the annealer must keep the seed — while
   fir16 and the AR lattice are cells where the greedy sacrifice order
   goes wrong and annealing must find the known better design. *)
let test_pinned_benchmarks () =
  List.iter
    (fun (g, ld, ad, expect_improved, pin_greedy, pin_annealed) ->
      let greedy, annealed, stats = anneal_exn g ~ld ~ad in
      Alcotest.(check string)
        (Dfg.name g ^ " greedy reliability")
        pin_greedy
        (Printf.sprintf "%.17g" (Design.reliability greedy));
      Alcotest.(check string)
        (Dfg.name g ^ " annealed reliability")
        pin_annealed
        (Printf.sprintf "%.17g" (Design.reliability annealed));
      Alcotest.(check bool) (Dfg.name g ^ " improved flag") expect_improved stats.Anneal.improved;
      Alcotest.(check (list string))
        (Dfg.name g ^ " annealed legal")
        []
        (List.map (fun v -> v.Check.invariant) (Check.design_violations annealed)))
    [
      (Benchmarks.ewf, 19, 18, false, "0.97529771259704667", "0.97529771259704667");
      (Benchmarks.diffeq, 7, 12, false, "0.90259980832971087", "0.90259980832971087");
      (Benchmarks.fir16, 12, 10, true, "0.72999677609710145", "0.77143807314073964");
      (Benchmarks.ar_lattice, 10, 12, true, "0.74406497229783741", "0.76226772399677467");
    ]

(* --- the frozen-state replay ------------------------------------------ *)

(* The fuzz property over seeded cases: wherever the proof calls the
   greedy seed frozen, replaying a chain must agree draw for draw with
   running it move by move.  Enough cases are run that some reach a
   frozen state, so the agreement is checked, not assumed. *)
let test_frozen_replay_fuzz_cases () =
  let frozen = ref 0 in
  for seed = 1 to 300 do
    let spec = Gen.random_spec (Rng.create seed) in
    match Anneal.frozen_replay_case ~aux:(Rng.create (1000 + seed)) spec with
    | Ok true -> incr frozen
    | Ok false -> ()
    | Error e -> Alcotest.failf "case %d: %s" seed e
  done;
  Alcotest.(check bool) (Printf.sprintf "%d frozen cases reached" !frozen) true (!frozen >= 1)

(* A hand-placed design over [Library.table1]: per node its operation,
   version id and start step, the graph's edges, and the instances as
   (version id, hosted nodes), indexed per version in list order. *)
let placed_design ~name nodes ~edges instances =
  let ops = Array.of_list (List.map (fun (op, _, _) -> op) nodes) in
  let version = Array.of_list (List.map (fun (_, v, _) -> Library.find_exn lib v) nodes) in
  let starts = Array.of_list (List.map (fun (_, _, s) -> s) nodes) in
  let g = Gen.graph_of_spec ~name { Gen.ops; edges } in
  let ( let* ) = Result.bind in
  let design =
    let* schedule =
      Rchls_sched.Schedule.make g ~delay:(fun nd -> version.(nd.Dfg.id).Resource.delay) ~starts
    in
    let counts = Hashtbl.create 4 in
    let* binding =
      Rchls_binding.Binding.of_instances ~node_count:(Array.length ops)
        (List.map
           (fun (v, hosted) ->
             let index = Option.value ~default:0 (Hashtbl.find_opt counts v) in
             Hashtbl.replace counts v (index + 1);
             { Rchls_binding.Binding.resource = Library.find_exn lib v; index; ops = hosted })
           instances)
    in
    Design.of_parts g lib ~assignment:(fun nd -> version.(nd.Dfg.id)) ~schedule ~binding
  in
  match design with
  | Error e -> Alcotest.failf "%s does not build: %s" name e
  | Ok d ->
    Alcotest.(check (list string)) (name ^ " legal") []
      (List.map (fun v -> v.Check.invariant) (Check.design_violations d));
    d

(* A frozen state whose nodes have swap partners, which no greedy seed
   of the benchmarks or the fuzz cases has: at ld 4 every start is
   pinned by its neighbours; the adders n [0,2) and a [2,4) share one
   add1 and b [1,3) has the other, so neither a rebind nor a swap
   fits; the multipliers p [0,1) and s [3,4) share one mul2; every
   faster adder is pruned at ad 6 and the slower multiplier overruns
   a successor. *)
let test_frozen_replay_with_partners () =
  let d =
    placed_design ~name:"partners"
      [
        (Op.Add, "add1", 0); (Op.Add, "add1", 2); (Op.Mul, "mul2", 0); (Op.Add, "add1", 1);
        (Op.Mul, "mul2", 3);
      ]
      ~edges:[ (0, 1); (2, 3); (3, 4) ]
      [ ("add1", [ 0; 1 ]); ("add1", [ 3 ]); ("mul2", [ 2; 4 ]) ]
  in
  List.iter
    (fun seed ->
      match Anneal.frozen_replay_check ~seed ~ld:4 ~ad:6 d with
      | Ok frozen -> Alcotest.(check bool) (Printf.sprintf "seed %d frozen" seed) true frozen
      | Error e -> Alcotest.failf "seed %d: %s" seed e)
    [ 1; 2; 3 ];
  (* one more area unit lets b onto a faster adder: no longer frozen *)
  Alcotest.(check (result bool string)) "ad 7 is live" (Ok false)
    (Anneal.frozen_replay_check ~ld:4 ~ad:7 d)

(* The proof must see a live rebind on its own: the adder chain
   x [0,2), y [2,4), z [4,6) shares one add1 and m [3,5) has the
   other, pinned by a multiplier chain p1 p2 p3 -> m -> q.  x fits
   m's instance, so it can move there, while every swap and every
   other rebind collides, every start is pinned and every faster adder
   is pruned at ad 6.  A proof that missed the rebind would call the
   state frozen, and the chain run move by move would then accept it. *)
let test_frozen_proof_sees_lone_rebind () =
  let d =
    placed_design ~name:"lone-rebind"
      [
        (Op.Add, "add1", 0); (Op.Add, "add1", 2); (Op.Add, "add1", 4); (Op.Mul, "mul2", 0);
        (Op.Mul, "mul2", 1); (Op.Mul, "mul2", 2); (Op.Add, "add1", 3); (Op.Mul, "mul2", 5);
      ]
      ~edges:[ (0, 1); (1, 2); (3, 4); (4, 5); (5, 6); (6, 7) ]
      [ ("add1", [ 0; 1; 2 ]); ("add1", [ 6 ]); ("mul2", [ 3; 4; 5; 7 ]) ]
  in
  Alcotest.(check (result bool string)) "not frozen" (Ok false)
    (Anneal.frozen_replay_check ~ld:6 ~ad:6 d)

(* --- the exhaustive oracle -------------------------------------------- *)

(* Bounds that exercise the knee of a small graph: latency one step
   above the fastest-version ASAP, area swept upward from 2 until the
   oracle finds the bounds feasible. *)
let oracle_bounds g =
  let fast (nd : Dfg.node) = (Library.fastest lib (Op.resource_class nd.op)).Resource.delay in
  let ld = Analysis.asap_latency g ~delay:fast + 1 in
  let rec first_ad ad =
    if ad > 40 then None
    else
      match Anneal.optimum g lib ~ld ~ad with
      | Some _ -> Some ad
      | None -> first_ad (ad + 1)
  in
  Option.map (fun ad -> (ld, ad)) (first_ad 2)

(* The annealer never exceeds the true optimum, and reaches it on at
   least one case (fig4 plus a seeded family of <=6-node graphs). *)
let test_oracle_bounds_annealer () =
  let cases =
    Benchmarks.example_fig4
    :: List.filter_map
         (fun seed ->
           let spec = Gen.random_spec ~max_nodes:6 (Rng.create seed) in
           let g = Gen.graph_of_spec ~name:(Printf.sprintf "oracle-%d" seed) spec in
           if Dfg.node_count g <= 6 then Some g else None)
         [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let reached = ref 0 and checked = ref 0 in
  List.iter
    (fun g ->
      match oracle_bounds g with
      | None -> ()
      | Some (ld, ad) -> (
        match (Anneal.optimum g lib ~ld ~ad, Engine.synthesize g lib ~ld ~ad) with
        | Some opt, Ok _ ->
          incr checked;
          let _, annealed, _ =
            anneal_exn ~params:{ Anneal.default_params with Anneal.moves = 800 } g ~ld ~ad
          in
          let r = Design.reliability annealed in
          Alcotest.(check bool)
            (Dfg.name g ^ " never beats the oracle")
            true
            (r <= opt +. 1e-9);
          if r >= opt -. 1e-9 then incr reached
        | Some _, Error _ | None, _ -> ()))
    cases;
  Alcotest.(check bool) "oracle compared on some cases" true (!checked >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "optimum reached on >=1 case (%d/%d)" !reached !checked)
    true (!reached >= 1)

(* The oracle agrees with greedy's feasibility verdict on small
   graphs: whenever greedy finds a design, the oracle's optimum is at
   least as reliable. *)
let test_oracle_dominates_greedy () =
  List.iter
    (fun seed ->
      let spec = Gen.random_spec ~max_nodes:5 (Rng.create (100 + seed)) in
      let g = Gen.graph_of_spec ~name:"oracle-vs-greedy" spec in
      match oracle_bounds g with
      | None -> ()
      | Some (ld, ad) -> (
        match Engine.synthesize g lib ~ld ~ad with
        | Error _ -> ()
        | Ok d -> (
          match Anneal.optimum g lib ~ld ~ad with
          | None -> Alcotest.fail "greedy feasible but oracle says infeasible"
          | Some opt ->
            Alcotest.(check bool) "oracle >= greedy" true
              (opt >= Design.reliability d -. 1e-9))))
    [ 1; 2; 3; 4; 5; 6 ]

let test_oracle_guards_large_graphs () =
  let n = Dfg.node_count Benchmarks.ewf in
  Alcotest.check_raises "guarded"
    (Invalid_argument
       (Printf.sprintf "Anneal.optimum: %d nodes exceed the exhaustive bound 6" n))
    (fun () -> ignore (Anneal.optimum Benchmarks.ewf lib ~ld:20 ~ad:50))

let () =
  Alcotest.run "anneal"
    [
      ( "moves",
        [
          Alcotest.test_case "visited states legal" `Quick test_moves_stay_legal;
          Alcotest.test_case "cold chain monotone" `Quick test_cold_chain_never_regresses;
        ] );
      ( "metropolis",
        [
          Alcotest.test_case "downhill always" `Quick test_accept_downhill_always;
          Alcotest.test_case "boltzmann exact" `Quick test_accept_matches_boltzmann;
          Alcotest.test_case "T=0 rejects uphill" `Quick test_accept_zero_temp_rejects_uphill;
          Alcotest.test_case "monotone in T" `Quick test_accept_monotone_in_temperature;
          Alcotest.test_case "geometric ladder" `Quick test_ladder_geometric;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seed-deterministic" `Quick test_same_seed_same_result;
        ] );
      ("pinned", [ Alcotest.test_case "paper benchmarks" `Quick test_pinned_benchmarks ]);
      ( "frozen",
        [
          Alcotest.test_case "fuzz cases replay" `Quick test_frozen_replay_fuzz_cases;
          Alcotest.test_case "swap partners replay" `Quick test_frozen_replay_with_partners;
          Alcotest.test_case "lone rebind is live" `Quick test_frozen_proof_sees_lone_rebind;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "annealer bounded by optimum" `Quick test_oracle_bounds_annealer;
          Alcotest.test_case "optimum dominates greedy" `Quick test_oracle_dominates_greedy;
          Alcotest.test_case "large graphs guarded" `Quick test_oracle_guards_large_graphs;
        ] );
    ]
