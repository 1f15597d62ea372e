(* explore_corpus: engine-heavy synthesis with cold caches, the
   [rchls explore] use case.  One operation explores one corpus graph's
   planned bound plane through [Service.run_explore] with a fresh
   [Service.t]; the approach alternates between Ours and Combined in
   groups of four graphs, so every family runs under both and the
   redundancy layer is measured. *)

open Harness
module Req = Rchls_api.Request
module Service = Rchls_experiments.Service
module Explore = Rchls_experiments.Explore
module Sweep = Rchls_experiments.Sweep
module Corpus = Rchls_experiments.Corpus
module Library = Rchls_charlib.Library
module Parse = Rchls_dfg.Parse

(* An odd multiple of five: with whole passes, the median and the 90th
   percentile then fall in the middle of one operation's samples rather
   than between two operations. *)
let graphs = 35
let min_nodes = 12
let max_nodes = 36

let approach k = if k / 4 mod 2 = 0 then Req.Ours else Req.Combined

type state = { dir : string; corpus : Corpus.t; graphs : Inputs.graph array }

let op st ~pass:_ k =
  let g = st.graphs.(k) in
  try
    Service.run_explore ~service:(Service.create ()) ~domains:1
      {
        Req.graph = Req.Inline g.text;
        library = Req.Lib_default;
        lds = [];
        ads = [];
        approach = approach k;
        scheduler = Req.Density;
      }
  with e -> Error (Printexc.to_string e)

let points_bytes points =
  String.concat ";"
    (List.map
       (fun (p : Explore.point) ->
         Printf.sprintf "%d,%d,%h,%d" p.p_ld p.p_ad p.p_reliability p.p_area)
       points)

let digest = function
  | Ok (points, (s : Explore.stats)) ->
    Printf.sprintf "%s|%d,%d,%d" (points_bytes points) s.cells s.evaluated s.derived
  | Error e -> "error: " ^ e

let setup ~seed =
  let dir = fresh_dir "explore" in
  let corpus, graphs =
    Inputs.corpus ~dir ~seed ~count:graphs ~lo:min_nodes ~hi:max_nodes
  in
  let st = { dir; corpus; graphs = Array.of_list graphs } in
  (* warm-up: one untimed pass pays for heap growth *)
  Array.iteri (fun k _ -> ignore (op st ~pass:0 k)) st.graphs;
  st

(* The output check: each frontier equals the one the exhaustive
   reference sweep gives on the same plane. *)
let matches_reference st k = function
  | Error _ -> false
  | Ok (points, _) ->
    let lib = Library.table1 in
    let g = Parse.of_text_exn st.graphs.(k).Inputs.text in
    let lds, ads = Explore.plan g lib in
    let approach = Service.approach_of_api (approach k) in
    let cells = Sweep.run_reference ~domains:1 approach g lib ~lds ~ads in
    points_bytes (Explore.frontier cells) = points_bytes points

let self_names =
  [
    "engine.synthesize"; "engine.pipeline"; "engine.design_eval";
    "pass.initial_alloc"; "pass.meet_latency"; "pass.exploit_slack";
    "pass.meet_area"; "pass.recovery"; "pass.refine"; "sched.density";
    "sched.min_area"; "bind.left_edge"; "redundancy.combined";
    "redundancy.orailoglu"; "sweep.run"; "sweep.cell";
  ]

let self_times spans ~ops =
  List.map (fun n -> (n ^ "_self_ms", span_self_ms spans n /. ops)) self_names

let stats_of results =
  Array.to_list results |> List.filter_map (function Ok (_, s) -> Some s | Error _ -> None)

let layers st (phase : _ phase) spans ~per_op =
  (* every pass repeats the first, so its counts stand for all *)
  let per_pass = float_of_int (Array.length phase.first) in
  let stats = stats_of phase.first in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  let cells = sum (fun (s : Explore.stats) -> s.cells) in
  let hits = per_op "cache.hits" and misses = per_op "cache.misses" in
  let lib = Library.table1 in
  let graphs = Array.to_list st.graphs in
  let parsed = List.map (fun (g : Inputs.graph) -> Parse.of_text_exn g.text) graphs in
  [
    ("explore.cells", cells /. per_pass);
    ("explore.evaluated", sum (fun (s : Explore.stats) -> s.evaluated) /. per_pass);
    ("explore.derived_ratio", sum (fun (s : Explore.stats) -> s.derived) /. cells);
    ("explore.plan_ms", replay_us parsed (fun g -> Explore.plan g lib) /. 1e3);
    ("dfg.parse_ms", replay_us graphs (fun (g : Inputs.graph) -> Parse.of_text g.text) /. 1e3);
    ("corpus.load_graph_ms", replay_us st.corpus.entries (Corpus.load_graph st.corpus) /. 1e3);
    ("engine.runs", per_op "engine.runs");
    ("redundancy.runs", per_op "redundancy.runs");
    ("engine.cache_hit_ratio", hits /. (hits +. misses));
    ("sched.runs", per_op "sched.runs");
    ("bind.runs", per_op "bind.runs");
  ]
  @ self_times spans ~ops:(float_of_int (Array.length phase.latencies_ms))

let workload =
  {
    name = "explore_corpus";
    setup;
    teardown = (fun st -> remove_dir st.dir);
    ops = (fun st -> Array.length st.graphs);
    op;
    guarded = [ "engine.runs"; "redundancy.runs"; "sweep.cells"; "sched.runs" ];
    result_counts =
      (fun rs ->
        let evaluated = List.map (fun (s : Explore.stats) -> s.evaluated) (stats_of rs) in
        [ ("explore.evaluated", List.fold_left ( + ) 0 evaluated) ]);
    on_pass_end = ignore;
    digest;
    valid = matches_reference;
    quality =
      (fun _ phase ->
        geomean
          (Array.to_list phase.first
          |> List.concat_map (function
               | Ok (points, _) -> List.map (fun (p : Explore.point) -> p.p_reliability) points
               | Error _ -> [])));
    summary =
      (fun st _ ->
        Printf.sprintf "explore_corpus: %d graphs of %d-%d nodes" (Array.length st.graphs)
          min_nodes max_nodes);
    layers;
  }
