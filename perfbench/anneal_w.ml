(* anneal_knee: the annealer and the checker with little engine work.
   Two knee cells per corpus graph — the tightest planned latency at
   the smallest feasible area bound plus two and plus three — each run
   through [Service.run_anneal] with the default parameters.  Chain
   and FIR graphs give cells where the annealer accepts no move,
   fan-out graphs cells where it improves the greedy design. *)

open Harness
module Req = Rchls_api.Request
module Service = Rchls_experiments.Service
module Explore = Rchls_experiments.Explore
module Sweep = Rchls_experiments.Sweep
module Library = Rchls_charlib.Library
module Parse = Rchls_dfg.Parse
module Design = Rchls_core.Design
module Anneal = Rchls_anneal.Anneal
module Check = Rchls_check.Check

(* 70 cells, and the two cells of a graph cost about the same: with
   whole passes, the median and the 90th percentile then fall between
   the two cells of one graph rather than between two graphs. *)
let graphs = 35
let min_nodes = 12
let max_nodes = 36

type cell = { graph : Inputs.graph; ld : int; ad : int }
type state = { dir : string; cells : cell array }

(* The smallest area bound the greedy engine meets at latency [ld]: the
   first feasible cell of the enveloped sweep along that row, which is
   the first feasible raw cell (the envelope of a single row is
   feasible exactly from there on).  The row starts at the plan's
   smallest area bound, one smallest instance per class, below which
   no design fits. *)
let knee_cells lib (g : Inputs.graph) =
  let dfg = Parse.of_text_exn g.text in
  let lds, ads = Explore.plan dfg lib in
  let ld = List.hd lds in
  let lo = List.hd ads and hi = List.fold_left max 1 ads in
  let ads = List.init (hi - lo + 1) (( + ) lo) in
  let row = Sweep.run ~domains:1 Sweep.Ours dfg lib ~lds:[ ld ] ~ads in
  match List.find_opt (fun (c : Sweep.cell) -> c.reliability <> None) row with
  | None -> []
  | Some c -> [ { graph = g; ld; ad = c.ad + 2 }; { graph = g; ld; ad = c.ad + 3 } ]

let op st ~pass:_ k =
  let c = st.cells.(k) in
  let p = Anneal.default_params in
  try
    Service.run_anneal ~service:(Service.create ()) ~domains:1
      {
        Req.graph = Req.Inline c.graph.text;
        library = Req.Lib_default;
        ld = c.ld;
        ad = c.ad;
        strategy = Req.Best;
        scheduler = Req.Density;
        seed = p.seed;
        moves = p.moves;
        chains = p.chains;
        exchange = p.exchange;
      }
  with e -> Error (Printexc.to_string e)

let digest = function
  | Ok (Ok (greedy, annealed, (s : Anneal.stats))) ->
    Printf.sprintf "%h,%d,%d|%h,%d,%d|%d,%d,%d,%d,%b" (Design.reliability greedy)
      (Design.area greedy) (Design.latency greedy) (Design.reliability annealed)
      (Design.area annealed) (Design.latency annealed) s.attempted s.accepted s.pruned
      s.exchanges s.improved
  | Ok (Error _) -> "infeasible"
  | Error e -> "error: " ^ e

let setup ~seed =
  let dir = fresh_dir "anneal" in
  let _, graphs = Inputs.corpus ~dir ~seed ~count:graphs ~lo:min_nodes ~hi:max_nodes in
  let lib = Library.table1 in
  let st = { dir; cells = Array.of_list (List.concat_map (knee_cells lib) graphs) } in
  Array.iteri (fun k _ -> ignore (op st ~pass:0 k)) st.cells;
  st

(* The output check: the annealed design passes the independent
   checker and is at least as reliable as its greedy seed. *)
let valid _ = function
  | Ok (Ok (greedy, annealed, _)) ->
    Check.design_violations annealed = []
    && Design.reliability annealed >= Design.reliability greedy
  | Ok (Error _) -> true
  | Error _ -> false

let annealed results =
  Array.to_list results
  |> List.filter_map (function Ok (Ok (_, a, s)) -> Some (a, s) | _ -> None)

let cell_counts results =
  let designs = annealed results in
  let count f = List.length (List.filter (fun (_, s) -> f s) designs) in
  [
    ("anneal.zero_accept_cells", count (fun (s : Anneal.stats) -> s.accepted = 0));
    ("anneal.improved_cells", count (fun (s : Anneal.stats) -> s.improved));
  ]

let layers _ (phase : _ phase) spans ~per_op =
  let ops = float_of_int (Array.length phase.latencies_ms) in
  let first = phase.first in
  [
    ("engine.runs", per_op "engine.runs");
    ("sched.runs", per_op "sched.runs");
    ("bind.runs", per_op "bind.runs");
    ("anneal.seed_ms", span_total_ms spans "engine.synthesize" /. ops);
    ("anneal.improve_ms", span_total_ms spans "anneal.improve" /. ops);
    ("anneal.moves", per_op "anneal.moves");
    ("anneal.accepted_ratio", per_op "anneal.accepted" /. per_op "anneal.moves");
    ("anneal.pruned_ratio", per_op "anneal.pruned" /. per_op "anneal.moves");
    ("anneal.exchanges", per_op "anneal.exchanges");
    ("check.design_violations_us",
      replay_us (List.map fst (annealed first)) (fun d -> Check.design_violations d));
  ]
  @ List.map (fun (n, c) -> (n, float_of_int c)) (cell_counts first)
  @ Explore_w.self_times spans ~ops

let workload =
  {
    name = "anneal_knee";
    setup;
    teardown = (fun st -> remove_dir st.dir);
    ops = (fun st -> Array.length st.cells);
    op;
    guarded =
      [ "anneal.moves"; "anneal.accepted"; "anneal.pruned"; "anneal.exchanges"; "engine.runs" ];
    result_counts = cell_counts;
    on_pass_end = ignore;
    digest;
    valid = (fun _ -> valid);
    quality =
      (fun _ phase ->
        geomean (List.map (fun (d, _) -> Design.reliability d) (annealed phase.first)));
    summary =
      (fun st phase ->
        let counts = cell_counts phase.first in
        Printf.sprintf "anneal_knee: %d cells, %d accept no move, %d improve"
          (Array.length st.cells)
          (List.assoc "anneal.zero_accept_cells" counts)
          (List.assoc "anneal.improved_cells" counts));
    layers;
  }
