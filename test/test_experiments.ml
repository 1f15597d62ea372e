(* Integration tests: the sweep driver and the experiment generators.
   These exercise the whole stack (library -> DFG -> scheduling ->
   binding -> synthesis -> redundancy -> reporting) and pin down the
   qualitative claims the reproduction must preserve. *)

module Sweep = Rchls_experiments.Sweep
module Experiments = Rchls_experiments.Experiments
module Paper_data = Rchls_experiments.Paper_data
module Benchmarks = Rchls_dfg.Benchmarks
module Library = Rchls_charlib.Library

let lib = Library.table1

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- Sweep --- *)

let test_sweep_grid_shape () =
  let cells = Sweep.run Sweep.Ours Benchmarks.diffeq lib ~lds:[ 5; 6 ] ~ads:[ 11; 13 ] in
  Alcotest.(check int) "4 cells" 4 (List.length cells);
  ignore (Sweep.cell_at_exn cells ~ld:5 ~ad:11);
  Alcotest.(check bool) "missing cell is None" true
    (Sweep.cell_at cells ~ld:9 ~ad:9 = None);
  Alcotest.(check bool) "missing cell raises with coordinates" true
    (try
       ignore (Sweep.cell_at_exn cells ~ld:9 ~ad:9);
       false
     with Invalid_argument msg -> contains msg "ld=9" && contains msg "ad=9")

let monotone cells lds ads =
  List.for_all
    (fun ld ->
      List.for_all
        (fun ad ->
          List.for_all
            (fun ld' ->
              List.for_all
                (fun ad' ->
                  if ld' <= ld && ad' <= ad then
                    match
                      ( (Sweep.cell_at_exn cells ~ld ~ad).Sweep.reliability,
                        (Sweep.cell_at_exn cells ~ld:ld' ~ad:ad').Sweep.reliability )
                    with
                    | Some r, Some r' -> r >= r' -. 1e-12
                    | Some _, None -> true
                    | None, None -> true
                    | None, Some _ -> false
                  else true)
                ads)
            lds)
        ads)
    lds

let test_sweep_envelope_monotone () =
  List.iter
    (fun (g, lds, ads) ->
      List.iter
        (fun approach ->
          let cells = Sweep.run approach g lib ~lds ~ads in
          Alcotest.(check bool) "monotone" true (monotone cells lds ads))
        [ Sweep.Baseline; Sweep.Ours; Sweep.Combined ])
    [
      (Benchmarks.fir16, [ 10; 11; 12 ], [ 9; 11; 13 ]);
      (Benchmarks.diffeq, [ 5; 6; 7 ], [ 7; 11; 15 ]);
    ]

let test_improvement_pct () =
  Alcotest.(check (float 1e-9)) "+50%" 50. (Sweep.improvement_pct 0.5 0.75);
  Alcotest.(check (float 1e-9)) "-20%" (-20.) (Sweep.improvement_pct 0.5 0.4)

(* --- the paper's qualitative claims --- *)

let test_ours_beats_baseline_at_tight_bounds () =
  (* Table 2's headline: at the tightest (Ld, Ad) corner of each grid
     our approach beats the redundancy baseline. *)
  List.iter
    (fun (g, ld, ad) ->
      let ours = Sweep.run Sweep.Ours g lib ~lds:[ ld ] ~ads:[ ad ] in
      let base = Sweep.run Sweep.Baseline g lib ~lds:[ ld ] ~ads:[ ad ] in
      match
        ( (Sweep.cell_at_exn ours ~ld ~ad).Sweep.reliability,
          (Sweep.cell_at_exn base ~ld ~ad).Sweep.reliability )
      with
      | Some o, Some b ->
        Alcotest.(check bool)
          (Printf.sprintf "%s (%d,%d): %.5f > %.5f" (Rchls_dfg.Dfg.name g) ld ad o b)
          true (o > b)
      | Some _, None -> () (* baseline infeasible: ours wins by default *)
      | None, _ -> Alcotest.fail "ours infeasible at a published tight cell")
    [ (Benchmarks.fir16, 10, 9); (Benchmarks.ewf, 13, 9); (Benchmarks.diffeq, 5, 11) ]

let test_baseline_catches_up_at_loose_area () =
  (* The crossover: with a loose enough area bound the duplication
     baseline closes the gap (negative cells appear in the paper too).
     Check the gap shrinks between the tightest and loosest area. *)
  let gap ad =
    let ours = Sweep.run Sweep.Ours Benchmarks.fir16 lib ~lds:[ 10 ] ~ads:[ ad ] in
    let base = Sweep.run Sweep.Baseline Benchmarks.fir16 lib ~lds:[ 10 ] ~ads:[ ad ] in
    match
      ( (Sweep.cell_at_exn ours ~ld:10 ~ad).Sweep.reliability,
        (Sweep.cell_at_exn base ~ld:10 ~ad).Sweep.reliability )
    with
    | Some o, Some b -> o -. b
    | Some o, None -> o
    | _ -> Alcotest.fail "ours infeasible"
  in
  Alcotest.(check bool) "gap shrinks with looser area" true (gap 13 < gap 9)

let test_combined_dominates_ours_on_average () =
  let avg approach g rows =
    let lds = List.sort_uniq compare (List.map (fun r -> r.Paper_data.ld) rows) in
    let ads = List.sort_uniq compare (List.map (fun r -> r.Paper_data.ad) rows) in
    let cells = Sweep.run approach g lib ~lds ~ads in
    let vals =
      List.filter_map
        (fun (r : Paper_data.table2_row) ->
          (Sweep.cell_at_exn cells ~ld:r.ld ~ad:r.ad).Sweep.reliability)
        rows
    in
    Rchls_util.Stats.mean vals
  in
  List.iter
    (fun (g, rows) ->
      Alcotest.(check bool) "combined >= ours" true
        (avg Sweep.Combined g rows >= avg Sweep.Ours g rows -. 1e-12))
    [ (Benchmarks.fir16, Paper_data.table2a_fir); (Benchmarks.diffeq, Paper_data.table2c_diffeq) ]

let test_fig8_series_monotone () =
  (* Figure 8: reliability rises with either bound. *)
  let lds = List.map fst Paper_data.fig8a_latency in
  let cells = Sweep.run Sweep.Ours Benchmarks.fir16 lib ~lds ~ads:[ 8 ] in
  let series =
    List.filter_map (fun ld -> (Sweep.cell_at_exn cells ~ld ~ad:8).Sweep.reliability) lds
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone in latency" true (increasing series)

(* --- paper data self-checks --- *)

let test_paper_data_shape () =
  Alcotest.(check int) "9 FIR rows" 9 (List.length Paper_data.table2a_fir);
  Alcotest.(check int) "9 EWF rows" 9 (List.length Paper_data.table2b_ewf);
  Alcotest.(check int) "9 DiffEq rows" 9 (List.length Paper_data.table2c_diffeq);
  List.iter
    (fun (r : Paper_data.table2_row) ->
      Alcotest.(check bool) "values in (0,1)" true
        (r.ref3 > 0. && r.ref3 < 1. && r.ours > 0. && r.ours < 1. && r.combined > 0.
        && r.combined < 1.))
    (Paper_data.table2a_fir @ Paper_data.table2b_ewf @ Paper_data.table2c_diffeq)

let test_paper_internal_consistency () =
  (* The published FIR anchors decompose exactly over the Table-1
     reliabilities — the checks that validated our model reverse-
     engineering. *)
  Alcotest.(check (float 5e-6)) "0.48467 = 0.969^23" 0.48467 (0.969 ** 23.);
  Alcotest.(check (float 5e-6)) "0.82783 = 0.969^6" 0.82783 (0.969 ** 6.);
  Alcotest.(check (float 5e-6)) "0.90713 = 0.999^3*0.969^3" 0.90713
    ((0.999 ** 3.) *. (0.969 ** 3.));
  Alcotest.(check (float 5e-6)) "0.78943 = 0.999^16*0.969^7" 0.78943
    ((0.999 ** 16.) *. (0.969 ** 7.));
  Alcotest.(check (float 5e-6)) "0.45509 = 0.969^25" 0.45509 (0.969 ** 25.)

(* --- indexed grid --- *)

let test_grid_matches_cell_at () =
  let lds = [ 5; 6; 7 ] and ads = [ 7; 11; 15 ] in
  let cells = Sweep.run Sweep.Ours Benchmarks.diffeq lib ~lds ~ads in
  let grid = Sweep.Grid.of_cells cells in
  Alcotest.(check int) "size" (List.length cells) (Sweep.Grid.size grid);
  Alcotest.(check bool) "cells round-trip" true (Sweep.Grid.cells grid = cells);
  List.iter
    (fun ld ->
      List.iter
        (fun ad ->
          Alcotest.(check bool) "find = cell_at" true
            (Sweep.Grid.find grid ~ld ~ad = Sweep.cell_at cells ~ld ~ad);
          Alcotest.(check bool) "find_exn = cell_at_exn" true
            (Sweep.Grid.find_exn grid ~ld ~ad = Sweep.cell_at_exn cells ~ld ~ad))
        ads)
    lds;
  Alcotest.(check bool) "missing is None" true
    (Sweep.Grid.find grid ~ld:99 ~ad:99 = None);
  Alcotest.(check bool) "missing raises with coordinates" true
    (try
       ignore (Sweep.Grid.find_exn grid ~ld:99 ~ad:98);
       false
     with Invalid_argument msg -> contains msg "ld=99" && contains msg "ad=98")

(* --- frontier-guided exploration --- *)

module Explore = Rchls_experiments.Explore

let test_pruned_equals_reference () =
  (* The tentpole invariant on real benchmarks: the pruned sweep is
     cell-for-cell identical to the exhaustive one, for every
     approach, and actually derives cells. *)
  let derived = ref 0 in
  List.iter
    (fun (g, lds, ads) ->
      List.iter
        (fun approach ->
          let reference = Sweep.run_reference approach g lib ~lds ~ads in
          let pruned, stats = Sweep.run_with_stats approach g lib ~lds ~ads in
          Alcotest.(check bool) "cell-for-cell identical" true
            (pruned = reference);
          Alcotest.(check int) "stats add up" stats.Explore.cells
            (stats.Explore.evaluated + stats.Explore.derived);
          derived := !derived + stats.Explore.derived)
        [ Sweep.Baseline; Sweep.Ours; Sweep.Combined ])
    [
      (Benchmarks.diffeq, [ 5; 6; 7 ], [ 5; 7; 9; 11; 13; 15 ]);
      (Benchmarks.fir16, [ 10; 12 ], [ 9; 10; 11; 12; 13 ]);
    ];
  (* A dense-enough plane must actually save work somewhere (a single
     combination may legitimately evaluate every cell). *)
  Alcotest.(check bool) "cells derived overall" true (!derived > 0)

(* An oracle that shares no cache code with what it checks: every cell
   of the plane synthesized by [Engine.synthesize ~use_cache:false]
   (what [Reliability_centric.synthesize] runs, caches bypassed),
   enveloped.  The pruned sweep at 1 and then 2 domains over one
   shared cache must equal it cell for cell. *)
let test_pruned_equals_uncached_grid () =
  let module Engine = Rchls_core.Engine in
  let uncached g ~lds ~ads =
    let lds = List.sort_uniq compare lds and ads = List.sort_uniq compare ads in
    Explore.envelope ~n_ads:(List.length ads)
      (List.concat_map
         (fun ld ->
           List.map
             (fun ad ->
               ( (ld, ad),
                 match Engine.synthesize ~use_cache:false ~domains:1 g lib ~ld ~ad with
                 | Ok d ->
                   (Some (Rchls_core.Design.reliability d), Some (Rchls_core.Design.area d))
                 | Error _ -> (None, None) ))
             ads)
         lds)
  in
  let rng = Rchls_util.Rng.create 31 in
  let corpus =
    List.init 6 (fun i ->
        Rchls_check.Gen.graph_of_spec ~name:(Printf.sprintf "gen%d" i)
          (Rchls_check.Gen.random_spec ~max_nodes:10 rng))
  in
  List.iter
    (fun g ->
      let lds, ads = Explore.plan g lib in
      let want = uncached g ~lds ~ads in
      let cache = Engine.create_cache () in
      List.iter
        (fun domains ->
          if Sweep.run ~domains ~cache Sweep.Ours g lib ~lds ~ads <> want then
            Alcotest.failf "%s: the sweep at %d domains differs from the uncached grid"
              (Rchls_dfg.Dfg.name g) domains)
        [ 1; 2 ])
    (List.map snd Benchmarks.all @ corpus)

let test_certificate_replays_identically () =
  (* A certified interval's promise, checked directly: re-synthesizing
     at any ad' inside the reported interval returns the identical raw
     cell. *)
  let g = Benchmarks.diffeq in
  List.iter
    (fun ad ->
      let raw, (lo, hi) =
        Explore.raw_cell_certified Explore.Ours g lib ~ld:6 ~ad
      in
      Alcotest.(check bool) "interval contains ad" true (lo <= ad && ad <= hi);
      List.iter
        (fun ad' ->
          if ad' >= lo && ad' <= hi then
            Alcotest.(check bool)
              (Printf.sprintf "ad'=%d replays ad=%d" ad' ad)
              true
              (Explore.raw_cell Explore.Ours g lib ~ld:6 ~ad:ad' = raw))
        (List.init 20 succ))
    [ 3; 8; 12; 16 ]

let test_frontier_dominance () =
  let cell ld ad r a =
    { Sweep.ld; ad; reliability = Some r; area = Some a }
  in
  let infeasible ld ad = { Sweep.ld; ad; reliability = None; area = None } in
  (* (6,10) dominates (7,12) (faster, smaller, more reliable); (5,8)
     and (6,10) are incomparable; infeasible cells never appear. *)
  let pts =
    Explore.frontier
      [ cell 5 8 0.90 8; cell 6 10 0.95 9; cell 7 12 0.94 11; infeasible 4 6 ]
  in
  Alcotest.(check (list (pair int int)))
    "frontier coordinates" [ (5, 8); (6, 10) ]
    (List.map (fun (p : Explore.point) -> (p.Explore.p_ld, p.Explore.p_ad)) pts);
  Alcotest.(check (list int)) "empty grid" []
    (List.map (fun (p : Explore.point) -> p.Explore.p_ld) (Explore.frontier []))

let test_min_area_query () =
  (* "Least area with latency <= ld and R >= rmin", read off the
     frontier of a plane spanning latency 1..ld and area 1..20 past the
     planned bounds. *)
  List.iter
    (fun (name, g, ld, rmin, expected) ->
      let ads = List.init (List.fold_left max 0 (snd (Explore.plan g lib)) + 20) succ in
      let cells = Sweep.run Sweep.Ours g lib ~lds:(List.init ld succ) ~ads in
      let areas =
        List.filter_map
          (fun (p : Explore.point) ->
            if p.p_ld <= ld && p.p_reliability >= rmin -. 1e-12 then Some p.p_area
            else None)
          (Explore.frontier cells)
      in
      Alcotest.(check (option int))
        (Printf.sprintf "%s ld=%d rmin=%.2f" name ld rmin)
        (Some expected)
        (match List.sort compare areas with a :: _ -> Some a | [] -> None))
    [
      ("diffeq", Benchmarks.diffeq, 7, 0.75, 7);
      ("diffeq", Benchmarks.diffeq, 6, 0.90, 13);
      ("diffeq", Benchmarks.diffeq, 9, 0.60, 6);
      ("fir16", Benchmarks.fir16, 12, 0.80, 9);
      ("ewf", Benchmarks.ewf, 15, 0.70, 8);
    ]

(* --- generated corpus --- *)

module Corpus = Rchls_experiments.Corpus

let temp_dir prefix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))

let test_corpus_roundtrip_and_determinism () =
  let d1 = temp_dir "rchls-corpus" and d2 = temp_dir "rchls-corpus" in
  let c1 = Corpus.generate ~dir:d1 ~seed:7 ~count:8 in
  let c2 = Corpus.generate ~dir:d2 ~seed:7 ~count:8 in
  Alcotest.(check int) "count" 8 (List.length c1.Corpus.entries);
  Alcotest.(check bool) "same seed, same manifest entries" true
    (c1.Corpus.entries = c2.Corpus.entries);
  let loaded =
    match Corpus.load ~dir:d1 with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "load round-trips the manifest" true
    (loaded.Corpus.entries = c1.Corpus.entries
    && loaded.Corpus.seed = c1.Corpus.seed);
  List.iter2
    (fun e1 e2 ->
      let g1 =
        match Corpus.load_graph c1 e1 with Ok g -> g | Error m -> Alcotest.fail m
      in
      let g2 =
        match Corpus.load_graph c2 e2 with Ok g -> g | Error m -> Alcotest.fail m
      in
      Alcotest.(check string) "graph text identical across runs"
        (Rchls_dfg.Parse.to_text g1) (Rchls_dfg.Parse.to_text g2))
    c1.Corpus.entries c2.Corpus.entries;
  let c3 = Corpus.generate ~dir:(temp_dir "rchls-corpus") ~seed:8 ~count:8 in
  Alcotest.(check bool) "seed changes the corpus" true
    (c3.Corpus.entries <> c1.Corpus.entries)

let test_corpus_load_rejects_corruption () =
  let dir = temp_dir "rchls-corpus" in
  let c = Corpus.generate ~dir ~seed:1 ~count:2 in
  (match Corpus.load ~dir:(temp_dir "rchls-missing") with
  | Ok _ -> Alcotest.fail "missing manifest accepted"
  | Error _ -> ());
  let manifest = Filename.concat dir Corpus.manifest_file in
  let oc = open_out manifest in
  output_string oc {|{"version":"rchls.corpus/9","seed":1,"entries":[]}|};
  close_out oc;
  (match Corpus.load ~dir with
  | Ok _ -> Alcotest.fail "foreign version accepted"
  | Error m ->
    Alcotest.(check bool) "names the version" true (contains m "rchls.corpus"));
  Sys.remove (Filename.concat dir (List.hd c.Corpus.entries).Corpus.file);
  match Corpus.load_graph c (List.hd c.Corpus.entries) with
  | Ok _ -> Alcotest.fail "missing member accepted"
  | Error _ -> ()

(* --- experiment generators --- *)

let test_generators_produce_tables () =
  (* The quick generators must run and mention their own captions; the
     heavyweight sweeps are covered by the bench run. *)
  let quick = [ "table1"; "fig2"; "fig5"; "fig7" ] in
  List.iter
    (fun id ->
      let f = List.assoc id Experiments.all in
      let out = f () in
      Alcotest.(check bool) (id ^ " non-empty") true (String.length out > 100))
    quick

let test_table1_generator_exact () =
  let out = Experiments.table1 () in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains out needle))
    [ "0.99900"; "0.96900"; "0.98702"; "Adder 3"; "Multiplier 2"; "59.460e-21" ]

let test_fig5_reports_paper_value () =
  let out = Experiments.fig5 () in
  Alcotest.(check bool) "0.82783 present" true (contains out "0.82783")

let () =
  Alcotest.run "experiments"
    [
      ( "sweep",
        [
          Alcotest.test_case "grid shape" `Quick test_sweep_grid_shape;
          Alcotest.test_case "envelope monotone" `Slow test_sweep_envelope_monotone;
          Alcotest.test_case "improvement pct" `Quick test_improvement_pct;
        ] );
      ( "grid",
        [ Alcotest.test_case "matches cell_at" `Quick test_grid_matches_cell_at ] );
      ( "explore",
        [
          Alcotest.test_case "pruned = reference" `Slow
            test_pruned_equals_reference;
          Alcotest.test_case "pruned = uncached grid" `Slow
            test_pruned_equals_uncached_grid;
          Alcotest.test_case "certificate replays" `Slow
            test_certificate_replays_identically;
          Alcotest.test_case "frontier dominance" `Quick test_frontier_dominance;
          Alcotest.test_case "min-area query" `Slow test_min_area_query;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "round-trip + determinism" `Quick
            test_corpus_roundtrip_and_determinism;
          Alcotest.test_case "rejects corruption" `Quick
            test_corpus_load_rejects_corruption;
        ] );
      ( "paper claims",
        [
          Alcotest.test_case "ours wins at tight bounds" `Slow
            test_ours_beats_baseline_at_tight_bounds;
          Alcotest.test_case "baseline catches up" `Slow
            test_baseline_catches_up_at_loose_area;
          Alcotest.test_case "combined dominates" `Slow
            test_combined_dominates_ours_on_average;
          Alcotest.test_case "fig8 monotone" `Slow test_fig8_series_monotone;
        ] );
      ( "paper data",
        [
          Alcotest.test_case "shape" `Quick test_paper_data_shape;
          Alcotest.test_case "internal consistency" `Quick test_paper_internal_consistency;
        ] );
      ( "generators",
        [
          Alcotest.test_case "produce tables" `Slow test_generators_produce_tables;
          Alcotest.test_case "table1 exact" `Quick test_table1_generator_exact;
          Alcotest.test_case "fig5 paper value" `Slow test_fig5_reports_paper_value;
        ] );
    ]
