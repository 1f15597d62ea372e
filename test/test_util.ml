(* Unit and property tests for Rchls_util: PRNG, statistics, tables. *)

open Rchls_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_invalid () =
  let r = Rng.create 0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 3.5)
  done

let test_rng_uniformity () =
  (* Chi-square-ish sanity: 8 buckets over 80k draws should each hold
     close to 10k. *)
  let r = Rng.create 123 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 80_000 do
    let v = Rng.int r 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket near 10k" true (c > 9_000 && c < 11_000))
    buckets

let test_rng_bool_balance () =
  let r = Rng.create 5 in
  let trues = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 4_500 && !trues < 5_500)

let test_rng_split_independent () =
  let r = Rng.create 11 in
  let s = Rng.split r in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 r = Rng.int64 s then incr same
  done;
  Alcotest.(check bool) "split independent" true (!same < 4)

let test_rng_copy () =
  let r = Rng.create 3 in
  ignore (Rng.int64 r);
  let c = Rng.copy r in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 r) (Rng.int64 c)

(* --- Stats --- *)

let test_mean () = check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_mean_empty () =
  Alcotest.(check bool) "nan" true (Float.is_nan (Stats.mean []))

let test_variance () =
  check_float "variance" 2.5 (Stats.variance [ 1.; 2.; 3.; 4.; 5. ])

let test_variance_singleton () = check_float "variance" 0. (Stats.variance [ 42. ])

let test_stddev () = check_float "stddev" (sqrt 2.5) (Stats.stddev [ 1.; 2.; 3.; 4.; 5. ])

let test_geometric_mean () =
  check_float "geomean" 4. (Stats.geometric_mean [ 2.; 8. ])

let test_geometric_mean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive sample") (fun () ->
      ignore (Stats.geometric_mean [ 1.; 0. ]))

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.; -1.; 7.; 2. ] in
  check_float "min" (-1.) lo;
  check_float "max" 7. hi

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50. (Stats.percentile 50. xs);
  check_float "p100" 100. (Stats.percentile 100. xs);
  check_float "p1" 1. (Stats.percentile 1. xs)

let test_confidence_interval () =
  let xs = List.init 100 (fun _ -> 5.) in
  check_float "zero spread" 0. (Stats.confidence_95 xs)

let test_wilson_known_value () =
  (* 50/100 at z=1.96: the textbook Wilson interval is approximately
     [0.4038, 0.5962]. *)
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 () in
  Alcotest.(check (float 1e-3)) "low" 0.4038 lo;
  Alcotest.(check (float 1e-3)) "high" 0.5962 hi

let test_wilson_bounds_clamped () =
  (* Extreme proportions stay inside [0,1] and never collapse to a
     zero-width interval (unlike the Wald approximation). *)
  let lo0, hi0 = Stats.wilson_interval ~successes:0 ~trials:20 () in
  check_float "zero successes low" 0. lo0;
  Alcotest.(check bool) "zero successes high > 0" true (hi0 > 0. && hi0 < 1.);
  let lo1, hi1 = Stats.wilson_interval ~successes:20 ~trials:20 () in
  check_float "all successes high" 1. hi1;
  Alcotest.(check bool) "all successes low < 1" true (lo1 > 0. && lo1 < 1.)

let test_wilson_half_width_shrinks () =
  (* At a fixed proportion the interval tightens as trials grow. *)
  let w n = Stats.wilson_half_width ~successes:(n / 2) ~trials:n () in
  Alcotest.(check bool) "63 > 630" true (w 63 > w 630);
  Alcotest.(check bool) "630 > 6300" true (w 630 > w 6300)

let test_wilson_rejects () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero trials" true
    (bad (fun () -> Stats.wilson_interval ~successes:0 ~trials:0 ()));
  Alcotest.(check bool) "successes > trials" true
    (bad (fun () -> Stats.wilson_interval ~successes:5 ~trials:4 ()));
  Alcotest.(check bool) "negative successes" true
    (bad (fun () -> Stats.wilson_interval ~successes:(-1) ~trials:4 ()));
  Alcotest.(check bool) "non-positive z" true
    (bad (fun () -> Stats.wilson_interval ~z:0. ~successes:2 ~trials:4 ()))

(* --- Tablefmt --- *)

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_table_basic () =
  let t = Tablefmt.create [ "x"; "y" ] in
  Tablefmt.add_row t [ "1"; "22" ];
  Tablefmt.add_row t [ "333"; "4" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "header present" true (contains_substring s "| x   | y  |");
  Alcotest.(check bool) "row present" true (contains_substring s "| 333 | 4  |")

let test_table_rows_align () =
  let t = Tablefmt.create [ "col" ] in
  Tablefmt.add_row t [ "wide-cell" ];
  Tablefmt.add_row t [ "x" ];
  let lines = String.split_on_char '\n' (Tablefmt.render t) in
  let widths = List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines in
  match widths with
  | [] -> Alcotest.fail "no lines"
  | w :: ws -> List.iter (fun w' -> Alcotest.(check int) "equal line widths" w w') ws

let test_table_width_mismatch () =
  let t = Tablefmt.create [ "a"; "b" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Tablefmt.add_row: row width mismatch")
    (fun () -> Tablefmt.add_row t [ "only-one" ])

let test_table_aligns_mismatch () =
  Alcotest.check_raises "aligns width"
    (Invalid_argument "Tablefmt.create: aligns/header width mismatch") (fun () ->
      ignore (Tablefmt.create ~aligns:[ Tablefmt.Left ] [ "a"; "b" ]))

let test_float_cell () =
  Alcotest.(check string) "5 digits" "0.48467" (Tablefmt.float_cell 0.48467);
  Alcotest.(check string) "2 digits" "1.50" (Tablefmt.float_cell ~digits:2 1.5)

let test_pct_cell () =
  Alcotest.(check string) "positive" "+23.79%" (Tablefmt.pct_cell 23.79);
  Alcotest.(check string) "negative" "-9.22%" (Tablefmt.pct_cell (-9.22))

(* --- Telemetry --- *)

let test_telemetry_counter_basics () =
  Telemetry.reset ();
  Telemetry.incr "t.a";
  Telemetry.add "t.a" 4;
  Alcotest.(check int) "accumulated" 5 (Telemetry.counter "t.a");
  Alcotest.(check int) "unknown is 0" 0 (Telemetry.counter "t.never")

let test_telemetry_sharding_exact () =
  (* Four domains hammer one counter; the sharded cells must aggregate
     to the exact total on read. *)
  Telemetry.reset ();
  let per = 25_000 and workers = 4 in
  let ds =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Telemetry.incr "t.shard"
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" (per * workers) (Telemetry.counter "t.shard")

let test_format_ns () =
  Alcotest.(check string) "ns" "870 ns" (Telemetry.format_ns 870L);
  Alcotest.(check string) "us" "12.40 us" (Telemetry.format_ns 12_400L);
  Alcotest.(check string) "ms" "3.25 ms" (Telemetry.format_ns 3_250_000L);
  Alcotest.(check string) "s" "1.200 s" (Telemetry.format_ns 1_200_000_000L);
  (* edge cases: zero, the whole int64 range, unit boundaries *)
  Alcotest.(check string) "zero" "0 ns" (Telemetry.format_ns 0L);
  Alcotest.(check string) "boundary stays in ns" "999 ns"
    (Telemetry.format_ns 999L);
  Alcotest.(check string) "boundary promotes to us" "1.00 us"
    (Telemetry.format_ns 1_000L);
  Alcotest.(check string) "max_int64 renders in seconds"
    "9223372036.855 s"
    (Telemetry.format_ns Int64.max_int);
  Alcotest.(check string) "float variant, zero" "0 ns"
    (Telemetry.format_ns_f 0.);
  Alcotest.(check string) "float variant, fractional" "1.50 us"
    (Telemetry.format_ns_f 1_500.);
  Alcotest.(check string) "float variant agrees with int64"
    (Telemetry.format_ns 3_250_000L)
    (Telemetry.format_ns_f 3_250_000.)

let test_histogram_quantiles () =
  Telemetry.reset ();
  for i = 1 to 1000 do
    Telemetry.observe "t.h" (Int64.of_int i)
  done;
  match Telemetry.histogram "t.h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 1000 h.Telemetry.count;
    Alcotest.(check int64) "sum exact" 500_500L h.Telemetry.sum_ns;
    Alcotest.(check int64) "max exact" 1000L h.Telemetry.max_ns;
    (* Quantiles are log2-bucket estimates: within a bucket of truth. *)
    Alcotest.(check bool) "p50 near 500" true (h.p50_ns >= 250. && h.p50_ns <= 1000.);
    Alcotest.(check bool) "quantiles monotone" true
      (h.p50_ns <= h.p90_ns && h.p90_ns <= h.p99_ns
      && h.p99_ns <= Int64.to_float h.max_ns +. 1e-9)

let test_histogram_empty () =
  Telemetry.reset ();
  Alcotest.(check bool) "unknown histogram" true (Telemetry.histogram "t.none" = None)

let test_render_units_and_histograms () =
  Telemetry.reset ();
  Telemetry.incr "t.c";
  Telemetry.add_timer_ns "t.timer" 12_400L;
  Telemetry.observe "t.h" 100L;
  let s = Telemetry.render () in
  Alcotest.(check bool) "counter row" true (contains_substring s "t.c");
  Alcotest.(check bool) "timer in human units" true (contains_substring s "12.40 us");
  Alcotest.(check bool) "histogram row" true (contains_substring s "t.h [hist]");
  Alcotest.(check bool) "quantile fields" true
    (contains_substring s "p50=" && contains_substring s "p99=");
  Telemetry.reset ();
  Alcotest.(check string) "empty registry renders empty" "" (Telemetry.render ());
  (* The reset histogram's registry key survives with zero
     observations; it must not produce a row (checked above via the
     empty render).  Extreme observations must render without
     overflow artifacts. *)
  Telemetry.observe "t.extreme" 0L;
  Telemetry.observe "t.extreme" Int64.max_int;
  (* Int64.max_int clamps to the native-int ceiling instead of
     wrapping to a tiny value. *)
  let s = Telemetry.render () in
  Alcotest.(check bool) "extreme histogram renders" true
    (contains_substring s "t.extreme [hist]"
    && contains_substring s
         (Printf.sprintf "max=%s" (Telemetry.format_ns (Int64.of_int max_int))));
  Telemetry.reset ()

(* --- properties --- *)

let prop_percentile_member =
  QCheck2.Test.make ~name:"percentile returns a sample"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 100.))
    (fun xs -> List.mem (Rchls_util.Stats.percentile 50. xs) xs)

let prop_mean_between_min_max =
  QCheck2.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 100.))
    (fun xs ->
      let lo, hi = Stats.min_max xs in
      let m = Stats.mean xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_rng_int_range =
  QCheck2.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 1_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* A campaign's draw: batches of up to 63 lanes over [n_in] words, the
   last one possibly short.  Each batch must equal the same draws made
   one [Rng.bool] at a time (vector-major, then input) on a copy, and
   the two generators must end in the same state. *)
let prop_fill_lanes_matches_bool =
  QCheck2.Test.make ~name:"Rng.fill_lanes = Rng.bool loop" ~count:300
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 0 40)
        (list_size (int_range 1 4) (int_range 1 63)))
    (fun (seed, n_in, batches) ->
      let packed = Rng.create seed in
      let scalar = Rng.copy packed in
      (* Stale bits from a previous batch must be cleared. *)
      let words = Array.make n_in (-1) in
      List.for_all
        (fun lanes ->
          Rng.fill_lanes packed words ~lanes;
          let expect = Array.make n_in 0 in
          for lane = 0 to lanes - 1 do
            for i = 0 to n_in - 1 do
              if Rng.bool scalar then expect.(i) <- expect.(i) lor (1 lsl lane)
            done
          done;
          words = expect)
        batches
      && Rng.int64 packed = Rng.int64 scalar)

let prop_fnv_fold_string_matches_fold_byte =
  QCheck2.Test.make ~name:"Fnv.fold_string = fold_byte fold" ~count:500
    QCheck2.Gen.(pair int64 (string_size ~gen:char (int_range 0 300)))
    (fun (h, s) ->
      Fnv.fold_string h s
      = String.fold_left (fun h c -> Fnv.fold_byte h (Char.code c)) h s)

let test_rng_fill_lanes_bounds () =
  let r = Rng.create 4 in
  let before = Rng.copy r in
  let words = [| 5; 6 |] in
  Rng.fill_lanes r words ~lanes:0;
  Alcotest.(check (array int)) "zero lanes clears" [| 0; 0 |] words;
  Alcotest.(check int64) "zero lanes draws nothing" (Rng.int64 before) (Rng.int64 r);
  List.iter
    (fun lanes ->
      Alcotest.check_raises
        (Printf.sprintf "%d lanes" lanes)
        (Invalid_argument "Rng.fill_lanes: lanes out of range")
        (fun () -> Rng.fill_lanes r words ~lanes))
    [ -1; Sys.int_size + 1 ]

let prop_wilson_brackets_proportion =
  QCheck2.Test.make ~name:"wilson interval brackets the sample proportion"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 10_000) (float_bound_inclusive 1.))
    (fun (trials, frac) ->
      let successes = int_of_float (frac *. float_of_int trials) in
      let successes = min trials (max 0 successes) in
      let lo, hi = Stats.wilson_interval ~successes ~trials () in
      let p = float_of_int successes /. float_of_int trials in
      0. <= lo && lo <= p +. 1e-12 && p <= hi +. 1e-12 && hi <= 1.)

(* --- Pool --- *)

let test_pool_map_order () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "map order (%d domains)" domains)
        (List.map (fun x -> x * x) xs)
        (Pool.map ~domains (fun x -> x * x) xs))
    [ 1; 2; 4 ]

let test_pool_map_array_order () =
  let xs = Array.init 100 Fun.id in
  List.iter
    (fun domains ->
      let got = Pool.map_array ~domains (fun x -> x * x) xs in
      Alcotest.(check (array int))
        (Printf.sprintf "map_array order (%d domains)" domains)
        (Array.map (fun x -> x * x) xs)
        got;
      Alcotest.(check (array int)) "input not mutated" (Array.init 100 Fun.id) xs)
    [ 1; 2; 4 ]

let test_pool_map_array_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map_array succ [||]);
  Alcotest.(check (array int)) "singleton" [| 2 |] (Pool.map_array succ [| 1 |])

let test_pool_map_array_first_exception () =
  (* The contract picks the first failing item in input order, however
     the domains interleave. *)
  List.iter
    (fun domains ->
      match
        Pool.map_array ~domains
          (fun x -> if x mod 10 = 3 then failwith (string_of_int x) else x)
          (Array.init 64 Fun.id)
      with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "first failure (%d domains)" domains)
          "3" msg)
    [ 1; 4 ]


(* --- Memo --- *)

(* One memo operation: look a key up, store a value, or both. *)
type memo_op = Find of int | Add of int * int | Find_or_add of int * int

let memo_op_gen =
  QCheck2.Gen.(
    let key = int_range 0 15 and v = int_range 0 3 in
    oneof
      [
        map (fun k -> Find k) key;
        map2 (fun k n -> Add (k, n)) key v;
        map2 (fun k n -> Find_or_add (k, n)) key v;
      ])

(* Values carry their key, so a value returned for another key shows;
   each entry costs its key plus one byte. *)
let memo_cost k _ = k + 1

let memo_names = ref 0

let fresh_memo ~shards ~max_entries ~max_bytes =
  incr memo_names;
  let name = Printf.sprintf "test.memo%d" !memo_names in
  (name, Memo.create ~shards ~name ~max_entries ~max_bytes ~cost:memo_cost ())

let counter name suffix = Telemetry.counter (name ^ suffix)

(* Against an unbounded model of every value stored per key: a find
   answers one of the key's values or nothing, an add stores exactly
   when the key is absent and its shard's share admits it, the
   evictions counter moves by the entries an add dropped, and neither
   bound is ever passed. *)
let prop_memo_model =
  QCheck2.Test.make ~name:"Memo agrees with an unbounded model" ~count:300
    QCheck2.Gen.(
      quad (oneofl [ 1; 2; 4 ]) (int_range 0 12) (int_range 0 60)
        (list_size (int_range 0 200) memo_op_gen))
    (fun (shards, max_entries, max_bytes, ops) ->
      let name, m = fresh_memo ~shards ~max_entries ~max_bytes in
      let model = Hashtbl.create 16 in
      let finds = ref 0 in
      let find k =
        incr finds;
        let r = Memo.find m k in
        (match r with
        | None -> ()
        | Some (k', n) ->
          if k' <> k || not (List.mem n (Hashtbl.find_all model k)) then
            QCheck2.Test.fail_reportf "key %d answered (%d, %d)" k k' n);
        r
      in
      let add k n ~via_find_or_add =
        let held = find k <> None in
        let storable =
          (not held) && memo_cost k () <= max_bytes / shards && max_entries / shards > 0
        in
        let l0 = Memo.length m and e0 = counter name ".evictions" in
        Hashtbl.add model k n;
        let got =
          if via_find_or_add then (
            incr finds;
            Memo.find_or_add m k (fun () -> (k, n)))
          else (
            Memo.add m k (k, n);
            (k, n))
        in
        let dropped = counter name ".evictions" - e0 in
        if Memo.length m - l0 <> (if storable then 1 else 0) - dropped then
          QCheck2.Test.fail_reportf "add %d: length %d -> %d, %d evicted" k l0
            (Memo.length m) dropped;
        if dropped > 0 && not storable then
          QCheck2.Test.fail_reportf "add %d evicted without storing" k;
        if storable && find k <> Some (k, n) then
          QCheck2.Test.fail_reportf "add %d: stored value not found" k;
        if via_find_or_add && fst got <> k then
          QCheck2.Test.fail_reportf "find_or_add %d answered key %d" k (fst got)
      in
      let h0 = counter name ".hits" and m0 = counter name ".misses" in
      List.iter
        (fun op ->
          (match op with
          | Find k -> ignore (find k)
          | Add (k, n) -> add k n ~via_find_or_add:false
          | Find_or_add (k, n) -> add k n ~via_find_or_add:true);
          if Memo.length m > max_entries || Memo.bytes m > max_bytes then
            QCheck2.Test.fail_reportf "bounds passed: %d entries, %d bytes"
              (Memo.length m) (Memo.bytes m))
        ops;
      counter name ".hits" - h0 + (counter name ".misses" - m0) = !finds)

(* The same kind of sequence from two domains on one memo, with one
   value per key: every find answers that value or nothing, every
   lookup is counted once, the bounds hold and the byte count is the
   cost of what is held. *)
let prop_memo_two_domains =
  QCheck2.Test.make ~name:"Memo shared by two domains" ~count:50
    QCheck2.Gen.(
      triple (oneofl [ 1; 2; 4 ]) (int_range 1 12)
        (pair (list_size (int_range 0 400) memo_op_gen)
           (list_size (int_range 0 400) memo_op_gen)))
    (fun (shards, max_entries, (ops_a, ops_b)) ->
      let max_bytes = 40 in
      let name, m = fresh_memo ~shards ~max_entries ~max_bytes in
      let h0 = counter name ".hits" and m0 = counter name ".misses" in
      let run ops =
        List.fold_left
          (fun (finds, ok) op ->
            let good k = function None -> true | Some v -> v = (k, k) in
            match op with
            | Find k -> (finds + 1, ok && good k (Memo.find m k))
            | Add (k, _) ->
              Memo.add m k (k, k);
              (finds, ok)
            | Find_or_add (k, _) ->
              (finds + 1, ok && Memo.find_or_add m k (fun () -> (k, k)) = (k, k)))
          (0, true) ops
      in
      let other = Domain.spawn (fun () -> run ops_b) in
      let finds_a, ok_a = run ops_a in
      let finds_b, ok_b = Domain.join other in
      let lookups = counter name ".hits" - h0 + (counter name ".misses" - m0) in
      let held =
        List.filter (fun k -> Memo.find m k <> None) (List.init 16 Fun.id)
      in
      ok_a && ok_b
      && lookups = finds_a + finds_b
      && Memo.length m = List.length held
      && Memo.length m <= max_entries
      && Memo.bytes m = List.fold_left (fun acc k -> acc + memo_cost k ()) 0 held
      && Memo.bytes m <= max_bytes)

(* The engine's design-memo cost must track what a cached design really
   holds: within 2x of its reachable heap words, minus the graph and
   library it shares with every other design of the cache. *)
let test_design_cost_calibrated () =
  let module Design = Rchls_core.Design in
  let module Library = Rchls_charlib.Library in
  let module Dfg = Rchls_dfg.Dfg in
  let lib = Library.table1 in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (pick, slack) ->
          let assignment (nd : Dfg.node) = pick lib (Rchls_dfg.Op.resource_class nd.op) in
          let latency =
            slack
            * Rchls_dfg.Analysis.asap_latency g ~delay:(fun nd ->
                  (assignment nd).Rchls_charlib.Resource.delay)
          in
          let d = Design.realize_exn g lib ~assignment ~latency in
          let words x = Obj.reachable_words (Obj.repr x) in
          let own = words d - words (Design.graph d, Design.library d) + 3 in
          let estimate = Design.footprint_bytes d / (Sys.word_size / 8) in
          if estimate > 2 * own || own > 2 * estimate then
            Alcotest.failf "%s at latency %d: estimate %d words, design holds %d" name
              latency estimate own)
        [ (Library.most_reliable, 1); (Library.smallest, 2) ])
    Rchls_dfg.Benchmarks.all

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "bool balance" `Quick test_rng_bool_balance;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "fill_lanes bounds" `Quick test_rng_fill_lanes_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "variance singleton" `Quick test_variance_singleton;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "geometric mean rejects" `Quick
            test_geometric_mean_rejects_nonpositive;
          Alcotest.test_case "min max" `Quick test_min_max;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "confidence" `Quick test_confidence_interval;
          Alcotest.test_case "wilson known value" `Quick test_wilson_known_value;
          Alcotest.test_case "wilson clamped" `Quick test_wilson_bounds_clamped;
          Alcotest.test_case "wilson half-width shrinks" `Quick
            test_wilson_half_width_shrinks;
          Alcotest.test_case "wilson rejects" `Quick test_wilson_rejects;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "basic render" `Quick test_table_basic;
          Alcotest.test_case "line widths equal" `Quick test_table_rows_align;
          Alcotest.test_case "row width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "aligns mismatch" `Quick test_table_aligns_mismatch;
          Alcotest.test_case "float cell" `Quick test_float_cell;
          Alcotest.test_case "pct cell" `Quick test_pct_cell;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counter basics" `Quick test_telemetry_counter_basics;
          Alcotest.test_case "sharded counters exact" `Quick
            test_telemetry_sharding_exact;
          Alcotest.test_case "format_ns units" `Quick test_format_ns;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
          Alcotest.test_case "render units + histograms" `Quick
            test_render_units_and_histograms;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "map_array order" `Quick test_pool_map_array_order;
          Alcotest.test_case "map_array empty/singleton" `Quick
            test_pool_map_array_empty_and_singleton;
          Alcotest.test_case "map_array first exception" `Quick
            test_pool_map_array_first_exception;
        ] );
      ( "memo",
        Alcotest.test_case "design cost calibrated" `Quick test_design_cost_calibrated
        :: List.map QCheck_alcotest.to_alcotest [ prop_memo_model; prop_memo_two_domains ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_percentile_member;
            prop_mean_between_min_max;
            prop_rng_int_range;
            prop_fill_lanes_matches_bool;
            prop_fnv_fold_string_matches_fold_byte;
            prop_wilson_brackets_proportion;
          ] );
    ]
