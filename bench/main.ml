(* Benchmark harness.

   Reproduction: regenerate every table and figure of the paper's
   evaluation (Table 1, Figure 2, Figures 5/7/8/9, Tables 2a-2c) side by
   side with the published numbers, plus an ablation table for the
   design choices called out in DESIGN.md.  The other modes are
   gated benchmarks of individual layers, each writing a JSON record.

   Reproduction:        dune exec bench/main.exe [-- repro]
   One experiment:      dune exec bench/main.exe -- repro table2a
   Sweep scaling:       dune exec bench/main.exe -- sweep [BENCH_sweep.json]
     (times the Fig-8/Table-2 sweep suite sequentially vs on the
      domain pool, checks cell-for-cell equality, and writes a
      machine-readable JSON record with the cache counters)
   Synthesis hot path:  dune exec bench/main.exe -- synth [BENCH_synth.json] [--reps N]
     (times one realize and the full synthesis pipeline on each paper
      benchmark, old-equivalent reference scheduler + sequential moves
      vs incremental scheduler + parallel refine, asserts the designs
      are identical, and writes a machine-readable record)
   Telemetry overhead:  dune exec bench/main.exe -- telemetry [BENCH_telemetry.json]
     (sharded-counter throughput alone and under all-domain
      contention with an exactness check, and the per-span cost of
      Trace.with_span with no sink installed)
   Fault campaigns:     dune exec bench/main.exe -- fault [BENCH_fault.json]
                          [--vectors N] [--width W]
     (times scalar vs bit-parallel vs domain-parallel fault-injection
      campaigns on the characterization circuits, verifies the reports
      are identical node for node, and records the result)
   Serve daemon:        dune exec bench/main.exe -- serve [BENCH_serve.json]
     (starts an in-process rchls serve daemon on a Unix socket, load
      tests it cold / warm / after a restart onto the same cache
      directory, asserts payloads byte-identical across all three and
      that the warm memory tier and the post-restart disk tier answer,
      and fails unless the warm pass is at least 5x cold throughput)
   Fuzz smoke:          dune exec bench/main.exe -- fuzz [BENCH_fuzz.json]
                          [--cases N] [--seed S]
     (runs every differential/metamorphic fuzzing property at a fixed
      seed, times the throughput per property, measures the validity
      checker's overhead on a full synthesis, and fails on any
      counterexample)
   Explore pruning:     dune exec bench/main.exe -- explore [BENCH_explore.json]
                          [--count N]
     (generates a fixed-seed benchmark corpus, sweeps every graph's
      planned bound plane exhaustively and with the frontier-guided
      explorer, asserts the grids and Pareto frontiers byte-identical,
      reports the wall-clock speedup, and fails unless pruning saves
      at least 5x the engine synthesis calls across the corpus)
   Annealing:           dune exec bench/main.exe -- anneal [BENCH_anneal.json]
                          [--count N] [--moves M]
     (generates the same fixed-seed corpus, anneals two knee cells per
      graph from the greedy seed, validates every annealed design with
      the independent checker, asserts results identical across domain
      counts 1/2/4, and fails unless every cell is at least as reliable
      as greedy and at least 25% of cells strictly improve)

   --vectors / --width are shared with `bin/main.exe characterize
   --measured` and apply to the fault mode; there are no buried
   vector-count literals. *)

module Experiments = Rchls_experiments.Experiments
module Rc = Rchls_core.Reliability_centric
module Design = Rchls_core.Design
module Benchmarks = Rchls_dfg.Benchmarks
module Library = Rchls_charlib.Library
module Tablefmt = Rchls_util.Tablefmt

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
          Rc.synthesize ~strategy:`Figure6 ~refine:false g Library.table1 ~ld ~ad );
      ("fig6+refine", fun g ld ad -> Rc.synthesize ~strategy:`Figure6 g Library.table1 ~ld ~ad);
      ("bottom-up", fun g ld ad -> Rc.synthesize ~strategy:`Bottom_up g Library.table1 ~ld ~ad);
      ("best(default)", fun g ld ad -> Rc.synthesize g Library.table1 ~ld ~ad);
      ( "force-directed",
        fun g ld ad -> Rc.synthesize ~scheduler:`Force_directed g Library.table1 ~ld ~ad );
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

let reproduction which =
  let experiments =
    Experiments.all
    @ [
        ("table1-measured", fun () -> Experiments.table1_measured ());
        ("ablation", ablation);
      ]
  in
  match which with
  | None ->
    List.iter (fun (_, f) -> print_string (f ())) experiments;
    print_newline ()
  | Some id -> (
    match List.assoc_opt id experiments with
    | Some f -> print_string (f ())
    | None ->
      Printf.eprintf "unknown experiment %S; available: %s\n" id
        (String.concat ", " (List.map fst experiments));
      exit 1)

(* --- sweep scaling benchmark ---------------------------------------- *)

module Sweep = Rchls_experiments.Sweep
module Paper_data = Rchls_experiments.Paper_data
module Pool = Rchls_util.Pool
module Telemetry = Rchls_util.Telemetry

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

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

let cells_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Sweep.cell) (y : Sweep.cell) ->
         x.ld = y.ld && x.ad = y.ad && x.reliability = y.reliability && x.area = y.area)
       a b

let sweep_bench out_path =
  let domains = Pool.num_domains () in
  Printf.printf "=== Sweep scaling: sequential vs %d domains ===\n%!" domains;
  Telemetry.reset ();
  let results =
    List.map
      (fun (name, approach, g, lds, ads) ->
        let t0 = now_s () in
        let seq = Sweep.run ~domains:1 approach g Library.table1 ~lds ~ads in
        let t1 = now_s () in
        let par = Sweep.run ~domains approach g Library.table1 ~lds ~ads in
        let t2 = now_s () in
        let seq_s = t1 -. t0 and par_s = t2 -. t1 in
        let identical = cells_equal seq par in
        Printf.printf "%-26s %3d cells  seq %7.3fs  par %7.3fs  x%.2f  %s\n%!" name
          (List.length seq) seq_s par_s (seq_s /. par_s)
          (if identical then "identical" else "MISMATCH");
        (name, List.length seq, seq_s, par_s, identical))
      sweep_suite
  in
  let total_seq = List.fold_left (fun a (_, _, s, _, _) -> a +. s) 0. results in
  let total_par = List.fold_left (fun a (_, _, _, p, _) -> a +. p) 0. results in
  let all_identical = List.for_all (fun (_, _, _, _, i) -> i) results in
  Printf.printf "total: seq %.3fs  par %.3fs  speedup x%.2f  (%s)\n%!" total_seq
    total_par (total_seq /. total_par)
    (if all_identical then "all cells identical" else "CELL MISMATCH");
  (* Machine-readable record, consumed by the Makefile's bench-json
     target and CI trend tracking. *)
  let buf = Buffer.create 2048 in
  let counters = [ "cache.hits"; "cache.misses"; "sched.runs"; "bind.runs"; "sweep.cells" ] in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" domains);
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf (Printf.sprintf "  \"all_cells_identical\": %b,\n" all_identical);
  Buffer.add_string buf
    (Printf.sprintf "  \"total\": { \"seq_s\": %.6f, \"par_s\": %.6f, \"speedup\": %.3f },\n"
       total_seq total_par (total_seq /. total_par));
  Buffer.add_string buf "  \"counters\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "\"%s\": %d" c (Telemetry.counter c)) counters));
  Buffer.add_string buf " },\n";
  Buffer.add_string buf "  \"suites\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (name, cells, seq_s, par_s, identical) ->
            Printf.sprintf
              "    { \"name\": \"%s\", \"cells\": %d, \"seq_s\": %.6f, \"par_s\": %.6f, \
               \"speedup\": %.3f, \"identical\": %b }"
              name cells seq_s par_s (seq_s /. par_s) identical)
          results));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out out_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if not all_identical then exit 1

(* --- synthesis hot-path benchmark ------------------------------------ *)

(* Times the scheduler/engine optimizations of the incremental-density
   work against the retained old-equivalent paths:

   - ns/realize: one schedule+bind evaluation, [`Density_reference]
     (full constrained-range recompute and distribution rebuild per
     placed node — the historical algorithm) vs [`Density] (incremental
     propagation over one persistent distribution);
   - full synthesis wall: the complete Figure-6 pipeline, reference
     scheduler + sequential move evaluation vs incremental scheduler +
     parallel refine/recovery over the domain pool.

   Both arms must produce identical designs (checked; exit 1 on any
   mismatch — the incremental scheduler promises bit-equal results). *)
let synth_suite =
  [
    ("fig4", Benchmarks.example_fig4, 6, 4);
    ("fir16", Benchmarks.fir16, 11, 8);
    ("ewf", Benchmarks.ewf, 14, 9);
    ("diffeq", Benchmarks.diffeq, 6, 13);
  ]

let synth_bench ~reps out_path =
  let domains = Pool.num_domains () in
  Printf.printf
    "=== Synthesis hot path: reference vs incremental+parallel (%d domains, %d reps) \
     ===\n%!"
    domains reps;
  Telemetry.reset ();
  let lib = Library.table1 in
  let results =
    List.map
      (fun (name, g, ld, ad) ->
        let assignment (nd : Rchls_dfg.Dfg.node) =
          Library.most_reliable lib (Rchls_dfg.Op.resource_class nd.op)
        in
        let delay nd = (assignment nd).Rchls_charlib.Resource.delay in
        (* Slack above the ASAP latency gives every node mobility — the
           regime where the per-placement rebuilds actually hurt. *)
        let latency = Rchls_dfg.Analysis.asap_latency g ~delay + 2 in
        (* Interleaved best-of-reps: each repetition times both arms
           back to back and the minimum per arm is kept, so an OS
           scheduling or GC noise burst — which on a shared box easily
           exceeds the measured effect for millisecond-scale runs —
           cannot hit one arm only. *)
        let time_realize_once scheduler =
          let n = 10 in
          let t0 = now_s () in
          for _ = 1 to n do
            match Design.realize ~scheduler g lib ~assignment ~latency with
            | Ok _ -> ()
            | Error e -> failwith ("synth bench: realize failed: " ^ e)
          done;
          (now_s () -. t0) /. float_of_int n
        in
        let realize_ref = ref infinity and realize_inc = ref infinity in
        for _ = 1 to max 3 reps do
          realize_ref := Float.min !realize_ref (time_realize_once `Density_reference);
          realize_inc := Float.min !realize_inc (time_realize_once `Density)
        done;
        let realize_ref_ns = !realize_ref *. 1e9 in
        let realize_inc_ns = !realize_inc *. 1e9 in
        let time_synth_once ~scheduler ~domains =
          let t0 = now_s () in
          let r = Rc.synthesize ~scheduler ~domains g lib ~ld ~ad in
          (now_s () -. t0, r)
        in
        let synth_ref = ref infinity and synth_opt = ref infinity in
        let ref_design = ref None and opt_design = ref None in
        for _ = 1 to max 1 reps do
          let t, r = time_synth_once ~scheduler:`Density_reference ~domains:1 in
          synth_ref := Float.min !synth_ref t;
          ref_design := Some r;
          let t, r = time_synth_once ~scheduler:`Density ~domains in
          synth_opt := Float.min !synth_opt t;
          opt_design := Some r
        done;
        let synth_ref_s = !synth_ref and synth_opt_s = !synth_opt in
        let ref_design = Option.get !ref_design and opt_design = Option.get !opt_design in
        let identical =
          match (ref_design, opt_design) with
          | Ok a, Ok b ->
            Design.reliability a = Design.reliability b
            && Design.area a = Design.area b
            && Design.latency a = Design.latency b
          | Error _, Error _ -> true
          | _ -> false
        in
        Printf.printf
          "%-8s realize %9.0f -> %9.0f ns (x%.2f)   synth %8.4f -> %8.4f s (x%.2f)  %s\n%!"
          name realize_ref_ns realize_inc_ns
          (realize_ref_ns /. realize_inc_ns)
          synth_ref_s synth_opt_s
          (synth_ref_s /. synth_opt_s)
          (if identical then "identical" else "MISMATCH");
        ( name,
          Rchls_dfg.Dfg.node_count g,
          ld,
          ad,
          realize_ref_ns,
          realize_inc_ns,
          synth_ref_s,
          synth_opt_s,
          identical ))
      synth_suite
  in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, _, _, i) -> i) results
  in
  Printf.printf "(%s)\n%!"
    (if all_identical then "all designs identical" else "DESIGN MISMATCH");
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" domains);
  Buffer.add_string buf (Printf.sprintf "  \"reps\": %d,\n" reps);
  Buffer.add_string buf (Printf.sprintf "  \"all_identical\": %b,\n" all_identical);
  Buffer.add_string buf "  \"benchmarks\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (name, nodes, ld, ad, rref, rinc, sref, sopt, identical) ->
            Printf.sprintf
              "    { \"name\": \"%s\", \"nodes\": %d, \"ld\": %d, \"ad\": %d, \
               \"realize_ref_ns\": %.1f, \"realize_inc_ns\": %.1f, \
               \"realize_speedup\": %.3f, \"synth_ref_s\": %.6f, \"synth_opt_s\": \
               %.6f, \"synth_speedup\": %.3f, \"identical\": %b }"
              name nodes ld ad rref rinc (rref /. rinc) sref sopt (sref /. sopt)
              identical)
          results));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out out_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if not all_identical then exit 1

(* --- fault-injection campaign benchmark ----------------------------- *)

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

let fault_bench ~vectors ~width out_path =
  let domains = Pool.num_domains () in
  Printf.printf
    "=== Fault campaigns: scalar vs packed vs %d domains (%d vectors, width %d) ===\n%!"
    domains vectors width;
  Telemetry.reset ();
  Fault_sim.Campaign.cache_clear ();
  (* The three characterization shapes: a small adder, a prefix adder,
     and the 16-bit Wallace multiplier (sampled like the library
     characterization samples multipliers). *)
  let suite =
    [
      ("rca", Fault_sim.Sampling.All);
      ("bk", Fault_sim.Sampling.All);
      ("wmul", Fault_sim.Sampling.Strided 256);
    ]
  in
  let results =
    List.map
      (fun (id, sampling) ->
        let nl = (Option.get (Catalog.find id)).Catalog.build ~width in
        let config =
          { Fault_sim.Campaign.default with vectors; sampling; domains = Some 1 }
        in
        let t0 = now_s () in
        let scalar = Fault_sim.Campaign.run_scalar ~config nl in
        let t1 = now_s () in
        let packed = Fault_sim.Campaign.run ~config nl in
        let t2 = now_s () in
        Fault_sim.Campaign.cache_clear ();
        let par_config = { config with domains = None } in
        let par = Fault_sim.Campaign.run ~config:par_config nl in
        let t3 = now_s () in
        let cached = Fault_sim.Campaign.run ~config:par_config nl in
        let t4 = now_s () in
        let scalar_s = t1 -. t0
        and packed_s = t2 -. t1
        and par_s = t3 -. t2
        and cached_s = t4 -. t3 in
        let identical =
          fault_reports_equal scalar packed
          && fault_reports_equal scalar par
          && fault_reports_equal scalar cached
        in
        let injections =
          List.fold_left
            (fun acc (n : Fault_sim.node_result) -> acc + n.injected)
            0 scalar.Fault_sim.nodes
        in
        Printf.printf
          "%-10s %4d nodes  scalar %7.3fs  packed %7.3fs (x%.1f)  par %7.3fs (x%.1f)  \
           cached %.6fs  %s\n%!"
          (Printf.sprintf "%s%d" id width)
          (List.length scalar.Fault_sim.nodes)
          scalar_s packed_s (scalar_s /. packed_s) par_s (scalar_s /. par_s) cached_s
          (if identical then "identical" else "MISMATCH");
        ( Printf.sprintf "%s%d" id width,
          List.length scalar.Fault_sim.nodes,
          injections, scalar_s, packed_s, par_s, cached_s, identical ))
      suite
  in
  let all_identical = List.for_all (fun (_, _, _, _, _, _, _, i) -> i) results in
  let total_scalar = List.fold_left (fun a (_, _, _, s, _, _, _, _) -> a +. s) 0. results in
  let total_packed = List.fold_left (fun a (_, _, _, _, p, _, _, _) -> a +. p) 0. results in
  let total_par = List.fold_left (fun a (_, _, _, _, _, p, _, _) -> a +. p) 0. results in
  Printf.printf
    "total: scalar %.3fs  packed %.3fs (x%.1f)  par %.3fs (x%.1f)  (%s)\n%!" total_scalar
    total_packed (total_scalar /. total_packed) total_par (total_scalar /. total_par)
    (if all_identical then "all reports identical" else "REPORT MISMATCH");
  let buf = Buffer.create 2048 in
  let counters =
    [ "fault.nodes"; "fault.injections"; "fault.batches"; "fault.cache.hits";
      "fault.cache.misses" ]
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" domains);
  Buffer.add_string buf (Printf.sprintf "  \"vectors\": %d,\n" vectors);
  Buffer.add_string buf (Printf.sprintf "  \"width\": %d,\n" width);
  Buffer.add_string buf (Printf.sprintf "  \"all_identical\": %b,\n" all_identical);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"total\": { \"scalar_s\": %.6f, \"packed_s\": %.6f, \"par_s\": %.6f, \
        \"speedup_packed\": %.3f, \"speedup_par\": %.3f },\n"
       total_scalar total_packed total_par (total_scalar /. total_packed)
       (total_scalar /. total_par));
  Buffer.add_string buf "  \"counters\": {";
  Buffer.add_string buf
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "\"%s\": %d" c (Telemetry.counter c)) counters));
  Buffer.add_string buf " },\n";
  Buffer.add_string buf "  \"suites\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (name, nodes, injections, scalar_s, packed_s, par_s, cached_s, identical) ->
            Printf.sprintf
              "    { \"name\": \"%s\", \"nodes\": %d, \"injections\": %d, \"scalar_s\": \
               %.6f, \"packed_s\": %.6f, \"par_s\": %.6f, \"cached_s\": %.6f, \
               \"speedup_packed\": %.3f, \"speedup_par\": %.3f, \"identical\": %b }"
              name nodes injections scalar_s packed_s par_s cached_s
              (scalar_s /. packed_s) (scalar_s /. par_s) identical)
          results));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out out_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if not all_identical then exit 1

(* --- fuzz smoke benchmark -------------------------------------------- *)

module Check = Rchls_check.Check
module Fuzz = Rchls_check.Fuzz
module Json = Rchls_util.Json

(* Deterministic fuzzing as a benchmark arm: every property must hold
   at the fixed seed (exit 1 with the shrunk counterexample otherwise),
   and the record tracks cases/second per property plus the overhead
   the installed validity checker adds to a full synthesis. *)
let fuzz_bench ~seed ~cases out_path =
  Printf.printf "=== Fuzz smoke: %d cases/property, seed %d ===\n%!" cases seed;
  Telemetry.reset ();
  let results =
    List.map
      (fun name ->
        let t0 = now_s () in
        let outcome =
          List.hd (Fuzz.run ~properties:[ name ] ~seed ~cases ())
        in
        let dt = now_s () -. t0 in
        Printf.printf "%-24s %5d cases  %7.3fs  %9.0f cases/s  %s\n%!" name
          outcome.Fuzz.cases_run dt
          (float_of_int outcome.Fuzz.cases_run /. dt)
          (match outcome.Fuzz.failure with
          | None -> "pass"
          | Some _ -> "FAIL");
        (match outcome.Fuzz.failure with
        | None -> ()
        | Some _ -> Format.printf "%a@." Fuzz.pp_outcome outcome);
        (name, outcome.Fuzz.cases_run, dt, outcome.Fuzz.failure = None))
      (Fuzz.property_names ())
  in
  let all_passed = List.for_all (fun (_, _, _, ok) -> ok) results in
  (* Checker overhead: the same synthesis with and without the
     validity checker validating every realized design. *)
  let g = Benchmarks.diffeq in
  let time_synth () =
    let t0 = now_s () in
    (match Rc.synthesize g Library.table1 ~ld:6 ~ad:13 with
    | Ok _ -> ()
    | Error _ -> failwith "fuzz bench: diffeq synthesis failed");
    now_s () -. t0
  in
  let plain = ref infinity and checked = ref infinity in
  for _ = 1 to 5 do
    plain := Float.min !plain (time_synth ());
    Check.enable ();
    Fun.protect ~finally:Check.disable (fun () ->
        checked := Float.min !checked (time_synth ()))
  done;
  Printf.printf "checker overhead on diffeq synth: %.4fs -> %.4fs (x%.2f)  (%s)\n%!"
    !plain !checked (!checked /. !plain)
    (if all_passed then "all properties passed" else "PROPERTY FAILED");
  let record =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("cases_per_property", Json.Int cases);
        ("all_passed", Json.Bool all_passed);
        ("fuzz_cases", Json.Int (Telemetry.counter "fuzz.cases"));
        ("synth_plain_s", Json.Float !plain);
        ("synth_checked_s", Json.Float !checked);
        ("checker_overhead", Json.Float (!checked /. !plain));
        ( "properties",
          Json.List
            (List.map
               (fun (name, run, dt, ok) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("cases", Json.Int run);
                     ("seconds", Json.Float dt);
                     ("passed", Json.Bool ok);
                   ])
               results) );
      ]
  in
  let oc = open_out out_path in
  output_string oc (Json.to_string ~pretty:true record);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if not all_passed then exit 1

(* --- telemetry micro-benchmark --------------------------------------- *)

module Trace = Rchls_util.Trace

(* Exercises the observability layer itself: sharded-counter
   throughput alone and under all-domain contention (checking the
   aggregate stays exact), and the per-span cost of [Trace.with_span]
   with no sink installed (the always-on configuration). *)
let telemetry_bench out_path =
  let domains = Pool.num_domains () in
  Printf.printf "=== Telemetry: sharded counters, span overhead (%d domains) ===\n%!"
    domains;
  let iters = 2_000_000 in
  Telemetry.reset ();
  let t0 = now_s () in
  for _ = 1 to iters do
    Telemetry.incr "bench.counter"
  done;
  let t1 = now_s () in
  let seq_s = t1 -. t0 in
  let seq_exact = Telemetry.counter "bench.counter" = iters in
  Printf.printf "counter 1 domain:   %8.1f ns/op  (%d ops, %s)\n%!"
    (seq_s /. float_of_int iters *. 1e9)
    iters
    (if seq_exact then "exact" else "LOST UPDATES");
  Telemetry.reset ();
  let t2 = now_s () in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to iters do
              Telemetry.incr "bench.counter"
            done))
  in
  List.iter Domain.join workers;
  let t3 = now_s () in
  let par_s = t3 -. t2 in
  let par_total = Telemetry.counter "bench.counter" in
  let par_exact = par_total = domains * iters in
  Printf.printf "counter %d domains:  %8.1f ns/op  (%d ops, %s)\n%!" domains
    (par_s /. float_of_int (domains * iters) *. 1e9)
    (domains * iters)
    (if par_exact then "exact" else "LOST UPDATES");
  Telemetry.reset ();
  let spans = 200_000 in
  let t4 = now_s () in
  for _ = 1 to spans do
    Trace.with_span "bench.span" (fun () -> ())
  done;
  let t5 = now_s () in
  let span_ns = (t5 -. t4) /. float_of_int spans *. 1e9 in
  let span_exact =
    match Telemetry.histogram "bench.span" with
    | Some h -> h.Telemetry.count = spans
    | None -> false
  in
  Printf.printf "with_span (no sink): %7.1f ns/span  (%d spans, %s)\n%!" span_ns spans
    (if span_exact then "all observed" else "DROPPED OBSERVATIONS");
  let all_exact = seq_exact && par_exact && span_exact in
  let record =
    Json.Obj
      [
        ("domains", Json.Int domains);
        ("counter_ops", Json.Int iters);
        ("counter_seq_ns_per_op", Json.Float (seq_s /. float_of_int iters *. 1e9));
        ( "counter_par_ns_per_op",
          Json.Float (par_s /. float_of_int (domains * iters) *. 1e9) );
        ("counter_par_total", Json.Int par_total);
        ("counter_exact", Json.Bool (seq_exact && par_exact));
        ("spans", Json.Int spans);
        ("span_ns", Json.Float span_ns);
        ("span_exact", Json.Bool span_exact);
      ]
  in
  let oc = open_out out_path in
  output_string oc (Json.to_string ~pretty:true record);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if not all_exact then exit 1

(* --- serve: daemon throughput and the response cache ----------------- *)

module Server = Rchls_serve.Server
module Sclient = Rchls_serve.Client
module Api_req = Rchls_api.Request

(* Load-tests an in-process [rchls serve] daemon over a Unix socket:
   a cold pass (every request computes), a warm pass (every request
   must hit the memory tier), and a daemon restart onto the same cache
   directory (the first repeat must hit the disk tier).  Payloads are
   asserted byte-identical across all three, and the warm/cold
   throughput ratio is the headline number. *)
let serve_bench out_path =
  Printf.printf "=== Serve: daemon throughput, two-tier response cache ===\n%!";
  Telemetry.reset ();
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rchls-serve-bench-%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let socket = Filename.concat dir "rchls.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let config =
    {
      (Server.default_config (Server.Unix_socket socket)) with
      Server.cache_dir = Some cache_dir;
      queue_max = 4096;
    }
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
  let die msg =
    Printf.eprintf "serve bench: %s\n%!" msg;
    exit 1
  in
  let ok = function Ok v -> v | Error e -> die e in
  (* Pipelined: write the whole workload, then collect [n] responses,
     stamping each arrival (responses correlate by id, not order). *)
  let run_pass client =
    let t0 = now_s () in
    List.iter (fun r -> ok (Sclient.send client r)) workload;
    let responses =
      List.init n (fun _ ->
          let line = ok (Sclient.recv_raw client) in
          (line, (now_s () -. t0) *. 1e3))
    in
    (responses, now_s () -. t0)
  in
  let parse line =
    match Json.of_string line with
    | Error e -> die ("unparseable response: " ^ e)
    | Ok j -> j
  in
  (* id -> serialized result payload, the [cache] envelope field
     excluded: the bytes that must not depend on where a response came
     from. *)
  let results_by_id responses =
    List.sort compare
      (List.map
         (fun (line, _) ->
           let j = parse line in
           match (Json.member "id" j, Json.member "result" j) with
           | Some (Json.Str id), Some r -> (id, Json.to_string r)
           | _ -> die ("response without id/result: " ^ line))
         responses)
  in
  let tier_count tier responses =
    List.length
      (List.filter
         (fun (line, _) ->
           match Json.member "cache" (parse line) with
           | Some c -> Json.member "tier" c = Some (Json.Str tier)
           | None -> false)
         responses)
  in
  let quantile q latencies =
    let a = Array.of_list latencies in
    Array.sort compare a;
    a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))
  in
  (* cold + warm passes against one daemon *)
  let server = ok (Server.start config) in
  let client = ok (Sclient.connect_unix socket) in
  let cold, cold_s = run_pass client in
  let warm, warm_s = run_pass client in
  Sclient.close client;
  Server.stop server;
  let cold_results = results_by_id cold and warm_results = results_by_id warm in
  if cold_results <> warm_results then
    die "warm-pass payloads differ from cold-pass payloads";
  let warm_mem = tier_count "memory" warm in
  if warm_mem <> n then
    die (Printf.sprintf "only %d/%d warm responses hit the memory tier" warm_mem n);
  (* restart onto the same cache directory: the disk tier must answer *)
  let server = ok (Server.start config) in
  let client = ok (Sclient.connect_unix socket) in
  let restart, _ = run_pass client in
  Sclient.close client;
  Server.stop server;
  if results_by_id restart <> cold_results then
    die "post-restart payloads differ from cold-pass payloads";
  let disk_hits = tier_count "disk" restart in
  if disk_hits = 0 then die "no disk-tier hit after daemon restart";
  (* instrumentation overhead: a warm-tier arm with every
     observability surface off vs one with the metrics endpoint and
     access log on.  Both daemons are alive at once and the passes
     alternate between them (best of 5 each), so clock-frequency and
     scheduler drift hits both arms equally instead of biasing
     whichever ran second. *)
  let bare_socket = Filename.concat dir "bare.sock" in
  let obs_socket = Filename.concat dir "obs.sock" in
  let bare_config =
    { config with Server.addr = Server.Unix_socket bare_socket }
  in
  let obs_config =
    {
      config with
      Server.addr = Server.Unix_socket obs_socket;
      metrics = Some (Server.Tcp ("127.0.0.1", 0));
      access_log = Some (Filename.concat dir "access.log", 1 lsl 26);
    }
  in
  let bare_server = ok (Server.start bare_config) in
  let obs_server = ok (Server.start obs_config) in
  let bare_client = ok (Sclient.connect_unix bare_socket) in
  let obs_client = ok (Sclient.connect_unix obs_socket) in
  ignore (run_pass bare_client);
  ignore (run_pass obs_client);
  (* both memory tiers warmed; one measurement is a [burst_k]-fold
     pipelined repetition of the workload, long enough (tens of ms)
     that per-pass scheduler noise stops dominating the comparison *)
  let burst_k = 40 in
  let burst client =
    (* one workload outstanding at a time: pipelining the whole burst
       would deadlock once the responses overflow the socket buffer *)
    let t0 = now_s () in
    for _ = 1 to burst_k do
      List.iter (fun r -> ok (Sclient.send client r)) workload;
      for _ = 1 to n do
        ignore (ok (Sclient.recv_raw client))
      done
    done;
    now_s () -. t0
  in
  (* Reps are paired: each rep measures both arms back to back and
     yields one overhead ratio; the minimum over reps is the gate.  A
     scheduler hiccup inflates a single rep's instrumented burst, but
     only a real per-request cost can inflate every rep. *)
  let bare_best = ref infinity and obs_best = ref infinity in
  let overhead = ref infinity in
  for _ = 1 to 7 do
    let a = burst bare_client in
    if a < !bare_best then bare_best := a;
    let b = burst obs_client in
    if b < !obs_best then obs_best := b;
    overhead := Float.min !overhead ((b /. a) -. 1.)
  done;
  Sclient.close bare_client;
  Sclient.close obs_client;
  Server.stop bare_server;
  Server.stop obs_server;
  let base_warm_rps = float_of_int (burst_k * n) /. !bare_best
  and instr_warm_rps = float_of_int (burst_k * n) /. !obs_best in
  let overhead = !overhead in
  let cold_rps = float_of_int n /. cold_s
  and warm_rps = float_of_int n /. warm_s in
  let speedup = warm_rps /. cold_rps in
  let lat = List.map snd in
  Printf.printf "%d requests (%d distinct synth jobs)\n" (3 * n) n;
  Printf.printf "cold:    %8.1f req/s  (p50 %6.2f ms, p99 %6.2f ms)\n"
    cold_rps (quantile 0.5 (lat cold)) (quantile 0.99 (lat cold));
  Printf.printf "warm:    %8.1f req/s  (p50 %6.2f ms, p99 %6.2f ms)  %.0fx cold\n"
    warm_rps (quantile 0.5 (lat warm)) (quantile 0.99 (lat warm)) speedup;
  Printf.printf "restart: %d/%d disk-tier hits, payloads byte-identical\n"
    disk_hits n;
  Printf.printf
    "instrumentation: %8.1f req/s bare, %8.1f req/s with metrics+access log \
     (%+.1f%% overhead)\n%!"
    base_warm_rps instr_warm_rps (100. *. overhead);
  let record =
    Json.Obj
      [
        ("requests", Json.Int n);
        ("domains", Json.Int (Pool.num_domains ()));
        ("batch_max", Json.Int config.Server.batch_max);
        ("cold_s", Json.Float cold_s);
        ("warm_s", Json.Float warm_s);
        ("cold_rps", Json.Float cold_rps);
        ("warm_rps", Json.Float warm_rps);
        ("warm_speedup", Json.Float speedup);
        ("cold_p50_ms", Json.Float (quantile 0.5 (lat cold)));
        ("cold_p99_ms", Json.Float (quantile 0.99 (lat cold)));
        ("warm_p50_ms", Json.Float (quantile 0.5 (lat warm)));
        ("warm_p99_ms", Json.Float (quantile 0.99 (lat warm)));
        ("warm_memory_hits", Json.Int warm_mem);
        ("restart_disk_hits", Json.Int disk_hits);
        ("payloads_identical", Json.Bool true);
        ("baseline_warm_rps", Json.Float base_warm_rps);
        ("instrumented_warm_rps", Json.Float instr_warm_rps);
        ("instrumentation_overhead", Json.Float overhead);
      ]
  in
  let oc = open_out out_path in
  output_string oc (Json.to_string ~pretty:true record);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if speedup < 5.0 then
    die (Printf.sprintf "warm cache speedup %.1fx below the 5x floor" speedup);
  if overhead >= 0.05 then
    die
      (Printf.sprintf
         "metrics + access-log overhead %.1f%% breaches the 5%% budget"
         (100. *. overhead))

(* --- explore pruning benchmark --------------------------------------- *)

module Explore = Rchls_experiments.Explore
module Corpus = Rchls_experiments.Corpus

(* Every synthesis call in every approach bumps exactly one of these
   two counters (the engine per greedy direction, the redundancy layer
   per NMR pass), so their sum is the evaluation-cost currency the
   pruning gate is stated in. *)
let synth_calls () =
  Telemetry.counter "engine.runs" + Telemetry.counter "redundancy.runs"

(* A canonical rendering of the Pareto frontier (full float precision)
   so "frontiers byte-identical" is a string comparison, not a float
   tolerance. *)
let frontier_bytes cells =
  String.concat ";"
    (List.map
       (fun (p : Explore.point) ->
         Printf.sprintf "%d,%d,%.17g,%d" p.p_ld p.p_ad p.p_reliability p.p_area)
       (Explore.frontier cells))

let explore_bench ~count out_path =
  let domains = Pool.num_domains () in
  let dir = "_bench_corpus" in
  let corpus = Corpus.generate ~dir ~seed:1 ~count in
  Printf.printf
    "=== Explore: frontier-guided pruning vs exhaustive (%d graphs, %d domains) ===\n%!"
    count domains;
  Telemetry.reset ();
  let lib = Library.table1 in
  let results =
    List.map
      (fun (e : Corpus.entry) ->
        let g =
          match Corpus.load_graph corpus e with
          | Ok g -> g
          | Error m -> failwith m
        in
        let lds, ads = Explore.plan g lib in
        let c0 = synth_calls () in
        let t0 = now_s () in
        let reference = Sweep.run_reference ~domains Sweep.Ours g lib ~lds ~ads in
        let t1 = now_s () in
        let c1 = synth_calls () in
        let pruned, stats = Sweep.run_with_stats ~domains Sweep.Ours g lib ~lds ~ads in
        let t2 = now_s () in
        let c2 = synth_calls () in
        let identical =
          cells_equal pruned reference
          && frontier_bytes pruned = frontier_bytes reference
        in
        let ref_calls = c1 - c0 and pruned_calls = c2 - c1 in
        Printf.printf
          "%-12s %3d cells  ref %4d calls %6.3fs   pruned %4d calls %6.3fs  %s\n%!"
          e.Corpus.graph_name stats.Explore.cells ref_calls (t1 -. t0)
          pruned_calls (t2 -. t1)
          (if identical then "identical" else "MISMATCH");
        (e, stats, ref_calls, pruned_calls, t1 -. t0, t2 -. t1, identical))
      corpus.Corpus.entries
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0. results in
  let ref_calls = sum (fun (_, _, rc, _, _, _, _) -> rc) in
  let pruned_calls = sum (fun (_, _, _, pc, _, _, _) -> pc) in
  let ref_s = sumf (fun (_, _, _, _, rs, _, _) -> rs) in
  let pruned_s = sumf (fun (_, _, _, _, _, ps, _) -> ps) in
  let all_identical = List.for_all (fun (_, _, _, _, _, _, i) -> i) results in
  let call_ratio = float_of_int ref_calls /. float_of_int (max 1 pruned_calls) in
  let gate = all_identical && call_ratio >= 5.0 in
  Printf.printf
    "total: ref %d calls %.3fs   pruned %d calls %.3fs   call ratio x%.2f  speedup x%.2f  (%s)\n%!"
    ref_calls ref_s pruned_calls pruned_s call_ratio
    (ref_s /. pruned_s)
    (if all_identical then "all frontiers identical" else "FRONTIER MISMATCH");
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" domains);
  Buffer.add_string buf (Printf.sprintf "  \"graphs\": %d,\n" count);
  Buffer.add_string buf (Printf.sprintf "  \"all_identical\": %b,\n" all_identical);
  Buffer.add_string buf
    (Printf.sprintf
       "  \"total\": { \"ref_calls\": %d, \"pruned_calls\": %d, \"call_ratio\": %.3f, \"ref_s\": %.6f, \"pruned_s\": %.6f, \"speedup\": %.3f },\n"
       ref_calls pruned_calls call_ratio ref_s pruned_s (ref_s /. pruned_s));
  Buffer.add_string buf (Printf.sprintf "  \"gate_5x_fewer_calls\": %b,\n" gate);
  Buffer.add_string buf "  \"suites\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun ((e : Corpus.entry), (s : Explore.stats), rc, pc, rs, ps, identical) ->
            Printf.sprintf
              "    { \"name\": \"%s\", \"family\": \"%s\", \"cells\": %d, \"evaluated\": %d, \"derived\": %d, \"ref_calls\": %d, \"pruned_calls\": %d, \"ref_s\": %.6f, \"pruned_s\": %.6f, \"identical\": %b }"
              e.Corpus.graph_name e.Corpus.family s.Explore.cells
              s.Explore.evaluated s.Explore.derived rc pc rs ps identical)
          results));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out out_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if not gate then begin
    if not all_identical then
      prerr_endline "explore bench: pruned frontier diverges from the reference"
    else
      Printf.eprintf "explore bench: call ratio x%.2f below the 5x pruning gate\n%!"
        call_ratio;
    exit 1
  end

(* --- annealing benchmark ---------------------------------------------- *)

module Anneal = Rchls_anneal.Anneal
module Bench_check = Rchls_check.Check

(* A canonical full-precision rendering of one anneal outcome, so
   "identical across domain counts" is a string comparison. *)
let anneal_bytes (greedy, annealed, (s : Anneal.stats)) =
  Printf.sprintf "%.17g,%d,%d|%.17g,%d,%d|%d,%d,%d,%d,%b"
    (Design.reliability greedy) (Design.area greedy) (Design.latency greedy)
    (Design.reliability annealed) (Design.area annealed)
    (Design.latency annealed) s.Anneal.attempted s.Anneal.accepted
    s.Anneal.pruned s.Anneal.exchanges s.Anneal.improved

let anneal_bench ~count ~moves out_path =
  let domains = Pool.num_domains () in
  let dir = "_bench_corpus" in
  let corpus = Corpus.generate ~dir ~seed:1 ~count in
  Printf.printf
    "=== Anneal: parallel tempering vs greedy seed (%d graphs, %d moves/chain, %d domains) ===\n%!"
    count moves domains;
  Telemetry.reset ();
  let lib = Library.table1 in
  let params = { Anneal.default_params with Anneal.moves } in
  (* Two knee cells per graph: the plan's tightest latency bound at
     two and three area units above the smallest bound greedy can
     still meet.  A full (ld, ad) scan over this corpus shows greedy
     is optimal almost everywhere else — generous areas leave it at
     the reliability ceiling, minimal areas leave no version to trade
     — while at a tight schedule with just enough slack for one or
     two upgrades the greedy sacrifice order goes measurably wrong on
     binding-contended (wide) graphs. *)
  let cells_of g =
    let lds, ads = Explore.plan g lib in
    let cap = List.fold_left max 1 ads in
    let ld = List.hd lds in
    let rec min_feasible ad =
      if ad > cap then None
      else if Result.is_ok (Rc.synthesize g lib ~ld ~ad) then Some ad
      else min_feasible (ad + 1)
    in
    match min_feasible 1 with
    | None -> []
    | Some ad -> [ (ld, ad + 2); (ld, ad + 3) ]
  in
  let results =
    List.concat_map
      (fun (e : Corpus.entry) ->
        let g =
          match Corpus.load_graph corpus e with
          | Ok g -> g
          | Error m -> failwith m
        in
        List.filter_map
          (fun (ld, ad) ->
            let t0 = now_s () in
            let run d = Anneal.synthesize ~domains:d ~params g lib ~ld ~ad in
            match (run 1, run 2, run 4) with
            | Ok r1, Ok r2, Ok r4 ->
              let t1 = now_s () in
              let greedy, annealed, stats = r1 in
              let same =
                anneal_bytes r1 = anneal_bytes r2
                && anneal_bytes r1 = anneal_bytes r4
              in
              let valid = Bench_check.design_violations annealed = [] in
              let gr = Design.reliability greedy
              and ar = Design.reliability annealed in
              Printf.printf
                "%-12s ld=%3d ad=%3d  greedy %.9f  annealed %.9f  %-8s %s%s %6.3fs\n%!"
                e.Corpus.graph_name ld ad gr ar
                (if stats.Anneal.improved then "improved" else "kept")
                (if valid then "valid" else "INVALID")
                (if same then "" else " DOMAIN-MISMATCH")
                (t1 -. t0);
              Some (e, ld, ad, gr, ar, Design.area greedy,
                    Design.area annealed, stats, valid, same, t1 -. t0)
            | _ ->
              (* Greedy found no design inside these bounds; the cell
                 carries no annealing signal, so it is skipped (and
                 printed) rather than gated on. *)
              Printf.printf "%-12s ld=%3d ad=%3d  infeasible (skipped)\n%!"
                e.Corpus.graph_name ld ad;
              None)
          (cells_of g))
      corpus.Corpus.entries
  in
  let cells = List.length results in
  let improved =
    List.length
      (List.filter (fun (_, _, _, _, _, _, _, s, _, _, _) -> s.Anneal.improved)
         results)
  in
  let all_valid =
    List.for_all (fun (_, _, _, _, _, _, _, _, v, _, _) -> v) results
  in
  let all_dominate =
    List.for_all (fun (_, _, _, gr, ar, _, _, _, _, _, _) -> ar >= gr) results
  in
  let all_domains_identical =
    List.for_all (fun (_, _, _, _, _, _, _, _, _, same, _) -> same) results
  in
  let improved_frac = float_of_int improved /. float_of_int (max 1 cells) in
  let total_s =
    List.fold_left (fun acc (_, _, _, _, _, _, _, _, _, _, s) -> acc +. s) 0.
      results
  in
  let gate =
    cells > 0 && all_valid && all_dominate && all_domains_identical
    && improved_frac >= 0.25
  in
  Printf.printf
    "total: %d cells %.3fs  improved %d (%.0f%%)  %s, %s, %s  (gate %s)\n%!"
    cells total_s improved (100. *. improved_frac)
    (if all_valid then "all valid" else "INVALID DESIGNS")
    (if all_dominate then "all >= greedy" else "REGRESSION")
    (if all_domains_identical then "domain-independent" else "DOMAIN-MISMATCH")
    (if gate then "pass" else "FAIL");
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" domains);
  Buffer.add_string buf (Printf.sprintf "  \"graphs\": %d,\n" count);
  Buffer.add_string buf (Printf.sprintf "  \"moves\": %d,\n" moves);
  Buffer.add_string buf (Printf.sprintf "  \"cells\": %d,\n" cells);
  Buffer.add_string buf (Printf.sprintf "  \"improved\": %d,\n" improved);
  Buffer.add_string buf
    (Printf.sprintf "  \"improved_frac\": %.3f,\n" improved_frac);
  Buffer.add_string buf (Printf.sprintf "  \"all_valid\": %b,\n" all_valid);
  Buffer.add_string buf
    (Printf.sprintf "  \"all_dominate_greedy\": %b,\n" all_dominate);
  Buffer.add_string buf
    (Printf.sprintf "  \"domains_identical\": %b,\n" all_domains_identical);
  Buffer.add_string buf (Printf.sprintf "  \"total_s\": %.6f,\n" total_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"gate_quarter_improved\": %b,\n" gate);
  Buffer.add_string buf "  \"suites\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun ((e : Corpus.entry), ld, ad, gr, ar, ga, aa,
                (s : Anneal.stats), valid, same, secs) ->
            Printf.sprintf
              "    { \"name\": \"%s\", \"family\": \"%s\", \"ld\": %d, \"ad\": %d, \"greedy_r\": %.17g, \"annealed_r\": %.17g, \"greedy_area\": %d, \"annealed_area\": %d, \"moves\": %d, \"accepted\": %d, \"pruned\": %d, \"exchanges\": %d, \"improved\": %b, \"valid\": %b, \"domains_identical\": %b, \"seconds\": %.6f }"
              e.Corpus.graph_name e.Corpus.family ld ad gr ar ga aa
              s.Anneal.attempted s.Anneal.accepted s.Anneal.pruned
              s.Anneal.exchanges s.Anneal.improved valid same secs)
          results));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out out_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" out_path;
  if not gate then begin
    if cells = 0 then prerr_endline "anneal bench: no feasible cells"
    else if not all_valid then
      prerr_endline "anneal bench: an annealed design failed validation"
    else if not all_dominate then
      prerr_endline "anneal bench: an annealed design regressed below greedy"
    else if not all_domains_identical then
      prerr_endline "anneal bench: results differ across domain counts"
    else
      Printf.eprintf
        "anneal bench: improved only %.0f%% of cells, below the 25%% gate\n%!"
        (100. *. improved_frac);
    exit 1
  end

(* Extract the --vectors / --width flags (shared with bin/main.exe's
   measured characterization) from a mode's trailing arguments. *)
let parse_flags ~vectors ~width rest =
  let usage name = failwith (Printf.sprintf "%s expects an integer argument" name) in
  let rec go positional vectors width = function
    | [] -> (List.rev positional, vectors, width)
    | "--vectors" :: v :: tl -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> go positional n width tl
      | _ -> usage "--vectors")
    | [ "--vectors" ] -> usage "--vectors"
    | "--width" :: v :: tl -> (
      match int_of_string_opt v with
      | Some n when n > 0 -> go positional vectors n tl
      | _ -> usage "--width")
    | [ "--width" ] -> usage "--width"
    | x :: tl -> go (x :: positional) vectors width tl
  in
  go [] vectors width rest

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "repro" :: rest -> reproduction (match rest with [] -> None | id :: _ -> Some id)
  | _ :: "sweep" :: rest ->
    sweep_bench (match rest with path :: _ -> path | [] -> "BENCH_sweep.json")
  | _ :: "synth" :: rest ->
    let rec split reps positional = function
      | [] -> (reps, List.rev positional)
      | "--reps" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> split n positional tl
        | _ -> failwith "--reps expects a positive integer")
      | [ "--reps" ] -> failwith "--reps expects a positive integer"
      | x :: tl -> split reps (x :: positional) tl
    in
    let reps, positional = split 5 [] rest in
    synth_bench ~reps
      (match positional with path :: _ -> path | [] -> "BENCH_synth.json")
  | _ :: "telemetry" :: rest ->
    telemetry_bench (match rest with path :: _ -> path | [] -> "BENCH_telemetry.json")
  | _ :: "serve" :: rest ->
    serve_bench (match rest with path :: _ -> path | [] -> "BENCH_serve.json")
  | _ :: "fault" :: rest ->
    let positional, vectors, width = parse_flags ~vectors:64 ~width:16 rest in
    fault_bench ~vectors ~width
      (match positional with path :: _ -> path | [] -> "BENCH_fault.json")
  | _ :: "fuzz" :: rest ->
    let rec split seed cases positional = function
      | [] -> (seed, cases, List.rev positional)
      | "--seed" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n -> split n cases positional tl
        | None -> failwith "--seed expects an integer")
      | [ "--seed" ] -> failwith "--seed expects an integer"
      | "--cases" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> split seed n positional tl
        | _ -> failwith "--cases expects a positive integer")
      | [ "--cases" ] -> failwith "--cases expects a positive integer"
      | x :: tl -> split seed cases (x :: positional) tl
    in
    let seed, cases, positional = split 42 1000 [] rest in
    fuzz_bench ~seed ~cases
      (match positional with path :: _ -> path | [] -> "BENCH_fuzz.json")
  | _ :: "explore" :: rest ->
    let rec split count positional = function
      | [] -> (count, List.rev positional)
      | "--count" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> split n positional tl
        | _ -> failwith "--count expects a positive integer")
      | [ "--count" ] -> failwith "--count expects a positive integer"
      | x :: tl -> split count (x :: positional) tl
    in
    let count, positional = split 20 [] rest in
    explore_bench ~count
      (match positional with path :: _ -> path | [] -> "BENCH_explore.json")
  | _ :: "anneal" :: rest ->
    let rec split count moves positional = function
      | [] -> (count, moves, List.rev positional)
      | "--count" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> split n moves positional tl
        | _ -> failwith "--count expects a positive integer")
      | [ "--count" ] -> failwith "--count expects a positive integer"
      | "--moves" :: v :: tl -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> split count n positional tl
        | _ -> failwith "--moves expects a positive integer")
      | [ "--moves" ] -> failwith "--moves expects a positive integer"
      | x :: tl -> split count moves (x :: positional) tl
    in
    let count, moves, positional = split 20 2000 [] rest in
    anneal_bench ~count ~moves
      (match positional with path :: _ -> path | [] -> "BENCH_anneal.json")
  | [] | [ _ ] -> reproduction None
  | _ :: mode :: _ ->
    Printf.eprintf "bench: unknown mode %S\n" mode;
    exit 2
