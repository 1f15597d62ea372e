(* Benchmark harness: the paper reproduction and the repository's gates.

   Reproduction:  dune exec bench/main.exe [-- repro [ID]]
     Regenerates every table and figure of the paper's evaluation
     (Table 1, Figure 2, Figures 5/7/8/9, Tables 2a-2c) side by side
     with the published numbers, plus an ablation table for the design
     choices called out in DESIGN.md.  ID selects one experiment.

   Gates:         dune exec bench/main.exe -- gates [ID]   (make gates)
     Runs every gate, or the one named ID, printing one
     `gate ID pass|FAIL <work figures>` line each, and exits 1 if any
     gate fails:
       sweep      the Fig-8/Table-2 sweeps give the same cells on 1
                  domain and on the pool
       synth      the reference scheduler and the incremental one
                  give identical designs
       fault      scalar, packed, parallel and cached fault campaigns
                  give equal reports
       telemetry  sharded counters stay exact under contention and
                  every span is observed
       serve      a live daemon answers cold, warm and after a restart
                  with identical payloads from the expected cache
                  tiers, warm throughput is at least 5x cold, and the
                  metrics endpoint plus access log cost under 5%
       explore    the pruned sweep of a fixed corpus matches the
                  exhaustive one with at least 5x fewer synthesis calls
       anneal     annealed knee cells are valid, never below greedy,
                  repeat on a warm engine cache, and at least 25%
                  improve

   Every input is a constant; the only variable is the pool size
   (RCHLS_DOMAINS).  Timings are perfbench/'s job. *)

module Experiments = Rchls_experiments.Experiments
module Engine = Rchls_core.Engine
module Design = Rchls_core.Design
module Benchmarks = Rchls_dfg.Benchmarks
module Library = Rchls_charlib.Library
module Tablefmt = Rchls_util.Tablefmt
module Pool = Rchls_util.Pool
module Telemetry = Rchls_util.Telemetry

(* --- ablation: the documented algorithm variants ------------------- *)

let ablation () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "\n=== Ablation: algorithm variants (DESIGN.md par. 8) ===\n";
  let cases =
    [
      ("fir16", Benchmarks.fir16, 11, 9);
      ("fir16", Benchmarks.fir16, 12, 13);
      ("ewf", Benchmarks.ewf, 14, 9);
      ("diffeq", Benchmarks.diffeq, 6, 13);
      ("diffeq", Benchmarks.diffeq, 7, 7);
    ]
  in
  let variants =
    [
      ( "fig6/no-refine",
        fun g ld ad ->
          Engine.synthesize ~strategy:Engine.Figure6 ~refine:false g Library.table1 ~ld ~ad );
      ( "fig6+refine",
        fun g ld ad -> Engine.synthesize ~strategy:Engine.Figure6 g Library.table1 ~ld ~ad );
      ( "bottom-up",
        fun g ld ad -> Engine.synthesize ~strategy:Engine.Bottom_up g Library.table1 ~ld ~ad );
      ("best(default)", fun g ld ad -> Engine.synthesize g Library.table1 ~ld ~ad);
      ( "force-directed",
        fun g ld ad ->
          Engine.synthesize ~scheduler:`Force_directed g Library.table1 ~ld ~ad );
    ]
  in
  let t = Tablefmt.create ([ "Benchmark"; "Ld"; "Ad" ] @ List.map fst variants) in
  List.iter
    (fun (name, g, ld, ad) ->
      let cells =
        List.map
          (fun (_, f) ->
            match f g ld ad with
            | Ok d -> Tablefmt.float_cell (Design.reliability d)
            | Error _ -> "-")
          variants
      in
      Tablefmt.add_row t ([ name; string_of_int ld; string_of_int ad ] @ cells))
    cases;
  Buffer.add_string buf (Tablefmt.render t);
  Buffer.contents buf

let experiments =
  Experiments.all
  @ [
      ("table1-measured", fun () -> Experiments.table1_measured ());
      ("ablation", ablation);
    ]

(* The whole [table], or the one entry named [id] (exit 1 if none is). *)
let select what table = function
  | None -> table
  | Some id -> (
    match List.assoc_opt id table with
    | Some x -> [ (id, x) ]
    | None ->
      Printf.eprintf "unknown %s %S; available: %s\n" what id
        (String.concat ", " (List.map fst table));
      exit 1)

let reproduction which =
  List.iter (fun (_, f) -> print_string (f ())) (select "experiment" experiments which);
  if which = None then print_newline ()

(* --- gates ---------------------------------------------------------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A gate's outcome: pass or not, and the work figures it printed. *)
type verdict = { pass : bool; figures : string }

(* Passes iff no failure reason was collected; the reasons follow the
   figures on a failing line. *)
let verdict figures = function
  | [] -> { pass = true; figures }
  | reasons -> { pass = false; figures = figures ^ "; " ^ String.concat "; " reasons }

module Sweep = Rchls_experiments.Sweep
module Paper_data = Rchls_experiments.Paper_data

let cells_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Sweep.cell) (y : Sweep.cell) ->
         x.ld = y.ld && x.ad = y.ad && x.reliability = y.reliability && x.area = y.area)
       a b

(* The sweep workloads behind Figure 8 and Tables 2(a,b,c). *)
let sweep_suite =
  let grid rows =
    ( List.sort_uniq compare (List.map (fun r -> r.Paper_data.ld) rows),
      List.sort_uniq compare (List.map (fun r -> r.Paper_data.ad) rows) )
  in
  let t2a = grid Paper_data.table2a_fir in
  let t2b = grid Paper_data.table2b_ewf in
  let t2c = grid Paper_data.table2c_diffeq in
  [
    ("fig8a/fir16-ours", Sweep.Ours, Benchmarks.fir16,
     List.map fst Paper_data.fig8a_latency, [ 8 ]);
    ("fig8b/fir16-ours", Sweep.Ours, Benchmarks.fir16, [ 10 ],
     List.map fst Paper_data.fig8b_area);
    ("table2a/fir16-baseline", Sweep.Baseline, Benchmarks.fir16, fst t2a, snd t2a);
    ("table2a/fir16-ours", Sweep.Ours, Benchmarks.fir16, fst t2a, snd t2a);
    ("table2a/fir16-combined", Sweep.Combined, Benchmarks.fir16, fst t2a, snd t2a);
    ("table2b/ewf-baseline", Sweep.Baseline, Benchmarks.ewf, fst t2b, snd t2b);
    ("table2b/ewf-ours", Sweep.Ours, Benchmarks.ewf, fst t2b, snd t2b);
    ("table2b/ewf-combined", Sweep.Combined, Benchmarks.ewf, fst t2b, snd t2b);
    ("table2c/diffeq-baseline", Sweep.Baseline, Benchmarks.diffeq, fst t2c, snd t2c);
    ("table2c/diffeq-ours", Sweep.Ours, Benchmarks.diffeq, fst t2c, snd t2c);
    ("table2c/diffeq-combined", Sweep.Combined, Benchmarks.diffeq, fst t2c, snd t2c);
  ]

let sweep_gate () =
  let domains = Pool.num_domains () in
  let cells = ref 0 in
  let failed =
    List.filter_map
      (fun (name, approach, g, lds, ads) ->
        let seq = Sweep.run ~domains:1 approach g Library.table1 ~lds ~ads in
        let par = Sweep.run ~domains approach g Library.table1 ~lds ~ads in
        cells := !cells + List.length seq;
        if cells_equal seq par then None else Some (name ^ " cells differ"))
      sweep_suite
  in
  verdict
    (Printf.sprintf "%d sweeps, %d cells identical on 1 and %d domains"
       (List.length sweep_suite) !cells domains)
    failed

(* The incremental-density scheduler promises designs bit-equal to the
   retained old-equivalent reference ([`Density_reference]: a full
   constrained-range recompute and distribution rebuild per placed
   node). *)
let synth_suite =
  [
    ("fig4", Benchmarks.example_fig4, 6, 4);
    ("fir16", Benchmarks.fir16, 11, 8);
    ("ewf", Benchmarks.ewf, 14, 9);
    ("diffeq", Benchmarks.diffeq, 6, 13);
  ]

let synth_gate () =
  let failed =
    List.filter_map
      (fun (name, g, ld, ad) ->
        let synth scheduler = Engine.synthesize ~scheduler g Library.table1 ~ld ~ad in
        let identical =
          match (synth `Density_reference, synth `Density) with
          | Ok a, Ok b ->
            Design.reliability a = Design.reliability b
            && Design.area a = Design.area b
            && Design.latency a = Design.latency b
          | Error _, Error _ -> true
          | _ -> false
        in
        if identical then None else Some (name ^ " designs differ"))
      synth_suite
  in
  verdict
    (Printf.sprintf "%d designs identical: reference and incremental scheduler"
       (List.length synth_suite))
    failed

module Fault_sim = Rchls_soft_error.Fault_sim
module Catalog = Rchls_circuits.Catalog

let fault_reports_equal (a : Fault_sim.report) (b : Fault_sim.report) =
  List.length a.Fault_sim.nodes = List.length b.Fault_sim.nodes
  && List.for_all2
       (fun (x : Fault_sim.node_result) (y : Fault_sim.node_result) ->
         x.net = y.net && x.kind = y.kind && x.observed = y.observed
         && x.injected = y.injected
         && x.logical_derating = y.logical_derating
         && x.ci_low = y.ci_low && x.ci_high = y.ci_high)
       a.Fault_sim.nodes b.Fault_sim.nodes

(* The three characterization shapes: a small adder, a prefix adder,
   and the 16-bit Wallace multiplier (sampled like the library
   characterization samples multipliers). *)
let fault_gate () =
  let vectors = 64 and width = 16 in
  let domains = Pool.num_domains () in
  Fault_sim.Campaign.cache_clear ();
  let nodes = ref 0 and injections = ref 0 in
  let failed =
    List.filter_map
      (fun (id, sampling) ->
        let nl = (Option.get (Catalog.find id)).Catalog.build ~width in
        let config =
          { Fault_sim.Campaign.default with vectors; sampling; domains = Some 1 }
        in
        let scalar = Fault_sim.Campaign.run_scalar ~config nl in
        let packed = Fault_sim.Campaign.run ~config nl in
        Fault_sim.Campaign.cache_clear ();
        let par_config = { config with domains = None } in
        let par = Fault_sim.Campaign.run ~config:par_config nl in
        let cached = Fault_sim.Campaign.run ~config:par_config nl in
        nodes := !nodes + List.length scalar.Fault_sim.nodes;
        injections :=
          List.fold_left
            (fun acc (n : Fault_sim.node_result) -> acc + n.injected)
            !injections scalar.Fault_sim.nodes;
        if List.for_all (fault_reports_equal scalar) [ packed; par; cached ] then None
        else Some (Printf.sprintf "%s%d reports differ" id width))
      [
        ("rca", Fault_sim.Sampling.All);
        ("bk", Fault_sim.Sampling.All);
        ("wmul", Fault_sim.Sampling.Strided 256);
      ]
  in
  verdict
    (Printf.sprintf
       "rca/bk/wmul width %d, %d vectors: %d nodes, %d injections, scalar = packed = %d \
        domains = cached"
       width vectors !nodes !injections domains)
    failed

module Trace = Rchls_util.Trace

(* The observability layer itself: sharded counters stay exact alone
   and under all-domain contention, and [Trace.with_span] with no sink
   installed (the always-on configuration) observes every span. *)
let telemetry_gate () =
  let domains = Pool.num_domains () in
  let ops = 2_000_000 and spans = 200_000 in
  let bump () =
    for _ = 1 to ops do
      Telemetry.incr "bench.counter"
    done
  in
  Telemetry.reset ();
  bump ();
  let seq = Telemetry.counter "bench.counter" in
  Telemetry.reset ();
  List.iter Domain.join (List.init domains (fun _ -> Domain.spawn bump));
  let par = Telemetry.counter "bench.counter" in
  Telemetry.reset ();
  for _ = 1 to spans do
    Trace.with_span "bench.span" ignore
  done;
  let observed =
    match Telemetry.histogram "bench.span" with Some h -> h.Telemetry.count | None -> 0
  in
  verdict
    (Printf.sprintf "counter %d/%d on 1 domain, %d/%d on %d; %d/%d spans observed" seq ops
       par (domains * ops) domains observed spans)
    (List.concat
       [
         (if seq = ops && par = domains * ops then [] else [ "lost counter updates" ]);
         (if observed = spans then [] else [ "dropped span observations" ]);
       ])

module Server = Rchls_serve.Server
module Sclient = Rchls_serve.Client
module Api_req = Rchls_api.Request
module Json = Rchls_util.Json

let seconds_since t0 = Int64.to_float (Int64.sub (Telemetry.now_ns ()) t0) /. 1e9

(* Load-tests an in-process [rchls serve] daemon over a Unix socket: a
   cold pass (every request computes), a warm pass (every request must
   hit the memory tier), and a daemon restart onto the same cache
   directory (a repeat must hit the disk tier), with payloads
   byte-identical across all three.  The two throughput checks are the
   only wall-clock gates.  The private directory (sockets, disk cache,
   access log) is removed however the gate ends. *)
let serve_gate () =
  let dir = Filename.temp_dir "rchls-serve-gate-" "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  let ok = function Ok v -> v | Error e -> failwith e in
  (* Runs [f] against a fresh daemon on [socket] sharing the one disk
     cache; daemon and client are closed however [f] ends.  [observed]
     turns on the metrics endpoint and the access log. *)
  let with_daemon ?(observed = false) socket f =
    let socket = Filename.concat dir socket in
    let config =
      {
        (Server.default_config (Server.Unix_socket socket)) with
        Server.cache_dir = Some (Filename.concat dir "cache");
        queue_max = 4096;
      }
    in
    let config =
      if not observed then config
      else
        {
          config with
          Server.metrics = Some (Server.Tcp ("127.0.0.1", 0));
          access_log = Some (Filename.concat dir "access.log", 1 lsl 26);
        }
    in
    let server = ok (Server.start config) in
    Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
    let client = ok (Sclient.connect_unix socket) in
    Fun.protect ~finally:(fun () -> Sclient.close client) (fun () -> f client)
  in
  let workload =
    List.concat_map
      (fun (name, lds, ads) ->
        List.concat_map
          (fun ld ->
            List.map
              (fun ad ->
                {
                  Api_req.id = Some (Printf.sprintf "%s-%d-%d" name ld ad);
                  job =
                    Api_req.Synth
                      {
                        graph = Api_req.Named name;
                        library = Api_req.Lib_default;
                        ld;
                        ad;
                        strategy = Api_req.Best;
                        scheduler = Api_req.Density;
                      };
                })
              ads)
          lds)
      [
        ("fig4", [ 5; 6; 7 ], [ 3; 4; 5 ]);
        ("diffeq", [ 6; 7 ], [ 7; 10; 13 ]);
        ("ewf", [ 14; 15 ], [ 9; 11 ]);
        ("fir16", [ 11; 12 ], [ 9; 11 ]);
      ]
  in
  let n = List.length workload in
  (* Pipelined: write the whole workload, then collect [n] responses
     (they correlate by id, not order). *)
  let run_pass client =
    let t0 = Telemetry.now_ns () in
    List.iter (fun r -> ok (Sclient.send client r)) workload;
    let responses = List.init n (fun _ -> ok (Sclient.recv_raw client)) in
    (List.map (fun line -> ok (Json.of_string line)) responses, seconds_since t0)
  in
  (* id -> serialized result payload, the [cache] envelope field
     excluded: the bytes that must not depend on where a response came
     from. *)
  let results_by_id responses =
    List.sort compare
      (List.map
         (fun j ->
           match (Json.member "id" j, Json.member "result" j) with
           | Some (Json.Str id), Some r -> (id, Json.to_string r)
           | _ -> failwith ("response without id/result: " ^ Json.to_string j))
         responses)
  in
  let tier_count tier responses =
    List.length
      (List.filter
         (fun j ->
           match Json.member "cache" j with
           | Some c -> Json.member "tier" c = Some (Json.Str tier)
           | None -> false)
         responses)
  in
  let (cold, cold_s), (warm, warm_s) =
    with_daemon "rchls.sock" (fun c ->
        let cold = run_pass c in
        (cold, run_pass c))
  in
  let restart, _ = with_daemon "rchls.sock" run_pass in
  let cold_results = results_by_id cold in
  let warm_mem = tier_count "memory" warm and disk_hits = tier_count "disk" restart in
  let speedup = cold_s /. warm_s in
  (* Instrumentation overhead: a warm daemon with every observability
     surface off against one with the metrics endpoint and access log
     on.  Both are alive at once; one measurement is a [burst_k]-fold
     repetition of the workload, long enough (tens of ms) that
     per-pass scheduler noise stops dominating.  Reps are paired, each
     yielding one overhead ratio, and the minimum is the gate: a
     scheduler hiccup inflates one rep, only a real per-request cost
     inflates every rep. *)
  let burst_k = 40 in
  let burst client =
    (* one workload outstanding at a time: pipelining the whole burst
       would deadlock once the responses overflow the socket buffer *)
    let t0 = Telemetry.now_ns () in
    for _ = 1 to burst_k do
      List.iter (fun r -> ok (Sclient.send client r)) workload;
      for _ = 1 to n do
        ignore (ok (Sclient.recv_raw client))
      done
    done;
    seconds_since t0
  in
  let overhead =
    with_daemon "bare.sock" @@ fun bare ->
    with_daemon ~observed:true "obs.sock" @@ fun obs ->
    ignore (run_pass bare);
    ignore (run_pass obs);
    List.fold_left Float.min infinity
      (List.init 7 (fun _ ->
           let a = burst bare in
           (burst obs /. a) -. 1.))
  in
  verdict
    (Printf.sprintf
       "%d jobs: warm %d/%d memory tier, restart %d/%d disk tier; warm x%.1f cold; \
        metrics+access log %+.1f%%"
       n warm_mem n disk_hits n speedup (100. *. overhead))
    (List.concat
       [
         (if results_by_id warm = cold_results then [] else [ "warm payloads differ" ]);
         (if results_by_id restart = cold_results then []
          else [ "restart payloads differ" ]);
         (if warm_mem = n then [] else [ "warm pass missed the memory tier" ]);
         (if disk_hits > 0 then [] else [ "no disk-tier hit after restart" ]);
         (if speedup >= 5.0 then [] else [ "warm speedup below the 5x floor" ]);
         (if overhead < 0.05 then []
          else [ "instrumentation overhead over the 5% budget" ]);
       ])

module Explore = Rchls_experiments.Explore
module Corpus = Rchls_experiments.Corpus

(* The fixed-seed 20-graph corpus both search gates run on, written to
   a private directory that is gone once the graphs are loaded. *)
let corpus_graphs =
  lazy
    (let dir = Filename.temp_dir "rchls-corpus-" "" in
     Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
     let corpus = Corpus.generate ~dir ~seed:1 ~count:20 in
     List.map
       (fun (e : Corpus.entry) ->
         match Corpus.load_graph corpus e with
         | Ok g -> (e.Corpus.graph_name, g)
         | Error m -> failwith m)
       corpus.Corpus.entries)

(* Every synthesis call in every approach bumps exactly one of these
   two counters (the engine per greedy direction, the redundancy layer
   per NMR pass), so their sum is the evaluation-cost currency the
   pruning gate is stated in. *)
let synth_calls () = Telemetry.counter "engine.runs" + Telemetry.counter "redundancy.runs"

(* A canonical rendering of the Pareto frontier (full float precision)
   so "frontiers byte-identical" is a string comparison, not a float
   tolerance. *)
let frontier_bytes cells =
  String.concat ";"
    (List.map
       (fun (p : Explore.point) ->
         Printf.sprintf "%d,%d,%.17g,%d" p.p_ld p.p_ad p.p_reliability p.p_area)
       (Explore.frontier cells))

let explore_gate () =
  let domains = Pool.num_domains () in
  let lib = Library.table1 in
  let graphs = Lazy.force corpus_graphs in
  let ref_calls = ref 0 and pruned_calls = ref 0 in
  let counted calls f =
    let c0 = synth_calls () in
    let r = f () in
    calls := !calls + synth_calls () - c0;
    r
  in
  let failed =
    List.filter_map
      (fun (name, g) ->
        let lds, ads = Explore.plan g lib in
        let reference =
          counted ref_calls (fun () ->
              Sweep.run_reference ~domains Sweep.Ours g lib ~lds ~ads)
        in
        let pruned =
          counted pruned_calls (fun () -> Sweep.run ~domains Sweep.Ours g lib ~lds ~ads)
        in
        if cells_equal pruned reference && frontier_bytes pruned = frontier_bytes reference
        then None
        else Some (name ^ " frontier differs"))
      graphs
  in
  let ratio = float_of_int !ref_calls /. float_of_int (max 1 !pruned_calls) in
  verdict
    (Printf.sprintf
       "%d graphs: %d -> %d engine+redundancy calls (x%.2f), cells and frontiers identical"
       (List.length graphs) !ref_calls !pruned_calls ratio)
    (failed @ if ratio >= 5.0 then [] else [ "call ratio below the 5x floor" ])

module Anneal = Rchls_anneal.Anneal
module Check = Rchls_check.Check

(* A canonical full-precision rendering of one anneal outcome, so
   "identical on a warm engine cache" is a string comparison. *)
let anneal_bytes (greedy, annealed, (s : Anneal.stats)) =
  Printf.sprintf "%.17g,%d,%d|%.17g,%d,%d|%d,%d,%d,%d,%b"
    (Design.reliability greedy) (Design.area greedy) (Design.latency greedy)
    (Design.reliability annealed) (Design.area annealed)
    (Design.latency annealed) s.Anneal.attempted s.Anneal.accepted
    s.Anneal.pruned s.Anneal.exchanges s.Anneal.improved

(* Two knee cells per graph: the plan's tightest latency bound at two
   and three area units above the smallest bound greedy can still meet.
   A full (ld, ad) scan over this corpus shows greedy is optimal almost
   everywhere else — generous areas leave it at the reliability
   ceiling, minimal areas leave no version to trade — while at a tight
   schedule with just enough slack for one or two upgrades the greedy
   sacrifice order goes measurably wrong on binding-contended (wide)
   graphs. *)
let knee_cells g lib =
  let lds, ads = Explore.plan g lib in
  let cap = List.fold_left max 1 ads in
  let ld = List.hd lds in
  let rec min_feasible ad =
    if ad > cap then None
    else if Result.is_ok (Engine.synthesize g lib ~ld ~ad) then Some ad
    else min_feasible (ad + 1)
  in
  match min_feasible 1 with None -> [] | Some ad -> [ (ld, ad + 2); (ld, ad + 3) ]

let anneal_gate () =
  let lib = Library.table1 in
  let params = { Anneal.default_params with Anneal.moves = 2000 } in
  let cells = ref 0 and improved = ref 0 in
  let failed =
    List.concat_map
      (fun (name, g) ->
        List.concat_map
          (fun (ld, ad) ->
            (* the second run reads the engine cache the first one filled *)
            let cache = Engine.create_cache () in
            let run () = Anneal.synthesize ~cache ~params g lib ~ld ~ad in
            match (run (), run ()) with
            | Ok r1, Ok r2 ->
              let greedy, annealed, stats = r1 in
              incr cells;
              if stats.Anneal.improved then incr improved;
              let cell = Printf.sprintf "%s ld=%d ad=%d" name ld ad in
              List.concat
                [
                  (if Check.design_violations annealed = [] then []
                   else [ cell ^ " invalid" ]);
                  (if Design.reliability annealed >= Design.reliability greedy then []
                   else [ cell ^ " below greedy" ]);
                  (if anneal_bytes r1 = anneal_bytes r2 then []
                   else [ cell ^ " differs on a warm engine cache" ]);
                ]
            (* Greedy found no design inside these bounds; the cell
               carries no annealing signal, so it is not gated on. *)
            | _ -> [])
          (knee_cells g lib))
      (Lazy.force corpus_graphs)
  in
  let frac = float_of_int !improved /. float_of_int (max 1 !cells) in
  verdict
    (Printf.sprintf
       "%d cells, %d improved (%.0f%%), all valid, >= greedy and identical on a warm cache"
       !cells !improved (100. *. frac))
    (List.concat
       [
         failed;
         (if !cells > 0 then [] else [ "no feasible cells" ]);
         (if frac >= 0.25 then [] else [ "fewer than 25% of cells improved" ]);
       ])

let gate_table =
  [
    ("sweep", sweep_gate);
    ("synth", synth_gate);
    ("fault", fault_gate);
    ("telemetry", telemetry_gate);
    ("serve", serve_gate);
    ("explore", explore_gate);
    ("anneal", anneal_gate);
  ]

let gates which =
  let passed =
    List.map
      (fun (name, gate) ->
        let { pass; figures } =
          try gate () with Failure msg -> { pass = false; figures = msg }
        in
        Printf.printf "gate %s %s %s\n%!" name (if pass then "pass" else "FAIL") figures;
        pass)
      (select "gate" gate_table which)
  in
  if not (List.for_all Fun.id passed) then exit 1

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] | [ _; "repro" ] -> reproduction None
  | [ _; "repro"; id ] -> reproduction (Some id)
  | [ _; "gates" ] -> gates None
  | [ _; "gates"; id ] -> gates (Some id)
  | _ ->
    prerr_endline "usage: main.exe [repro [EXPERIMENT] | gates [GATE]]";
    exit 2
