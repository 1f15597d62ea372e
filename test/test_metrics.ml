(* The live half of Rchls_util.Telemetry: gauges, rolling-window
   histograms, the single reset and the two exposition encoders.

   - Gauges: exactness under concurrent adjustment from domains.
   - Rolling windows: deterministic via the [?now_ns] injection point —
     exact count/sum/max, log2-bucket quantile estimates checked
     against a scalar oracle (QCheck, concurrent writers included),
     slice rotation, expiry and late-observation drop.
   - One core: a cumulative histogram and a rolling window fed the
     same samples read the same stat.
   - Exposition: the Prometheus text form and the JSON snapshot carry
     every registered series with the right names, types and units. *)

module Telemetry = Rchls_util.Telemetry
module Rolling = Telemetry.Rolling
module Json = Rchls_util.Json
module Gen = QCheck2.Gen

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- gauges ----------------------------------------------------------- *)

let test_gauge_basics () =
  Telemetry.reset ();
  Alcotest.(check int) "never set" 0 (Telemetry.gauge "m.g0");
  Telemetry.gauge_set "m.g" 7;
  Alcotest.(check int) "set" 7 (Telemetry.gauge "m.g");
  Telemetry.gauge_add "m.g" (-3);
  Alcotest.(check int) "add" 4 (Telemetry.gauge "m.g");
  Telemetry.gauge_set "m.g" 0;
  Alcotest.(check bool) "listed, sorted" true
    (List.mem_assoc "m.g" (Telemetry.gauges ()))

let test_gauge_concurrent_adds () =
  Telemetry.reset ();
  let per = 20_000 and workers = 4 in
  let ds =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Telemetry.gauge_add "m.busy" 1;
              Telemetry.gauge_add "m.busy" (-1)
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "balanced adds cancel" 0 (Telemetry.gauge "m.busy")

(* --- rolling windows --------------------------------------------------- *)

let ms = 1_000_000L
let window_ns = 1_000L |> Int64.mul ms (* 1 s *)
let mk () = Rolling.create ~window_ns ~slices:10 ()

let test_rolling_exact_aggregates () =
  let w = mk () in
  let now = 5_000_000_000L in
  List.iter
    (fun v -> Rolling.observe ~now_ns:now w (Int64.of_int v))
    [ 100; 200; 300; 400 ];
  let s = Rolling.stat ~now_ns:now w in
  Alcotest.(check int) "count" 4 s.Telemetry.count;
  Alcotest.(check int64) "sum" 1000L s.Telemetry.sum_ns;
  Alcotest.(check int64) "max" 400L s.Telemetry.max_ns;
  Alcotest.(check int64) "window" window_ns (Rolling.window_ns w);
  Alcotest.(check bool) "quantiles monotone" true
    (s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns
    && s.p99_ns <= Int64.to_float s.max_ns +. 1e-9)

let test_rolling_expiry () =
  let w = mk () in
  let t0 = 1_000_000_000L in
  Rolling.observe ~now_ns:t0 w 500L;
  let inside = Int64.add t0 (Int64.div window_ns 2L) in
  Alcotest.(check int) "still inside the window" 1
    (Rolling.stat ~now_ns:inside w).Telemetry.count;
  let beyond = Int64.add t0 (Int64.mul window_ns 2L) in
  let s = Rolling.stat ~now_ns:beyond w in
  Alcotest.(check int) "expired" 0 s.Telemetry.count;
  Alcotest.(check int64) "expired sum" 0L s.Telemetry.sum_ns;
  Alcotest.(check (float 1e-9)) "expired quantile" 0. s.Telemetry.p99_ns

let test_rolling_partial_expiry () =
  (* Two observations one window apart never coexist; two observations
     one slice apart do, until the window slides past the older one. *)
  let w = mk () in
  let slice = Int64.div window_ns 10L in
  let t0 = 3_000_000_000L in
  let t1 = Int64.add t0 slice in
  Rolling.observe ~now_ns:t0 w 111L;
  Rolling.observe ~now_ns:t1 w 222L;
  Alcotest.(check int) "both alive" 2
    (Rolling.stat ~now_ns:t1 w).Telemetry.count;
  (* advance so t0's slice has left the window but t1's has not *)
  let later = Int64.add t0 window_ns in
  let s = Rolling.stat ~now_ns:later w in
  Alcotest.(check int) "older slice aged out" 1 s.Telemetry.count;
  Alcotest.(check int64) "survivor is the newer" 222L s.Telemetry.max_ns

let test_rolling_late_observation_dropped () =
  let w = mk () in
  let t0 = 2_000_000_000L in
  (* an observation timestamped a full window before current traffic *)
  Rolling.observe ~now_ns:(Int64.add t0 window_ns) w 999L;
  Rolling.observe ~now_ns:t0 w 111L;
  let s = Rolling.stat ~now_ns:(Int64.add t0 window_ns) w in
  Alcotest.(check int) "late write dropped" 1 s.Telemetry.count;
  Alcotest.(check int64) "only the live slice counts" 999L
    s.Telemetry.max_ns

let empty =
  { Telemetry.count = 0; sum_ns = 0L; p50_ns = 0.; p90_ns = 0.; p99_ns = 0.; max_ns = 0L }

let test_rolling_empty_stat () =
  let s = Rolling.stat ~now_ns:1L (mk ()) in
  Alcotest.(check int) "count" 0 s.Telemetry.count;
  Alcotest.(check int64) "max" 0L s.Telemetry.max_ns;
  Alcotest.(check bool) "fresh window reads empty" true (s = empty)

(* Scalar oracle: the q-quantile of the raw samples.  A log2-bucket
   estimate with linear interpolation lands in the bucket holding the
   true quantile (or a boundary neighbor), so it is within a factor of
   4 — the property that matters is that the estimate tracks the data,
   not digit-exact agreement. *)
let oracle_quantile q samples =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  float_of_int (List.nth sorted (rank - 1))

let close_to_oracle est truth =
  est >= (truth /. 4.) -. 2. && est <= (truth *. 4.) +. 2.

let prop_rolling_concurrent_oracle =
  QCheck2.Test.make
    ~name:"rolling quantiles track a scalar oracle under concurrent writers"
    ~count:30
    Gen.(list_size (int_range 4 200) (int_range 1 1_000_000))
    (fun samples ->
      let w = Rolling.create ~window_ns ~slices:4 () in
      let now = 7_000_000_000L in
      (* Four domains split the samples; a fixed [now_ns] makes the
         merge exact, so only estimation error is tolerated. *)
      let arr = Array.of_list samples in
      let workers = 4 in
      let ds =
        List.init workers (fun k ->
            Domain.spawn (fun () ->
                Array.iteri
                  (fun i v ->
                    if i mod workers = k then
                      Rolling.observe ~now_ns:now w (Int64.of_int v))
                  arr))
      in
      List.iter Domain.join ds;
      let s = Rolling.stat ~now_ns:now w in
      let truth = List.fold_left ( + ) 0 samples in
      s.Telemetry.count = List.length samples
      && s.Telemetry.sum_ns = Int64.of_int truth
      && s.Telemetry.max_ns
         = Int64.of_int (List.fold_left max 0 samples)
      && s.p50_ns <= s.p90_ns +. 1e-9
      && s.p90_ns <= s.p99_ns +. 1e-9
      && s.p99_ns <= Int64.to_float s.Telemetry.max_ns +. 1e-9
      && close_to_oracle s.p50_ns (oracle_quantile 0.5 samples)
      && close_to_oracle s.p90_ns (oracle_quantile 0.9 samples)
      && close_to_oracle s.p99_ns (oracle_quantile 0.99 samples))

(* Both views share one histogram core: with every sample inside the
   window, a cumulative histogram and a rolling window must agree on
   every field, quantile estimates included. *)
let prop_cumulative_equals_rolling =
  QCheck2.Test.make ~name:"cumulative and rolling views of one sample set agree"
    ~count:100
    Gen.(list_size (int_range 1 200) (int_range 0 1_000_000_000))
    (fun samples ->
      let name = "prop.same" in
      Telemetry.reset ();
      let w = mk () in
      let now = 9_000_000_000L in
      List.iter
        (fun v ->
          Telemetry.observe name (Int64.of_int v);
          Rolling.observe ~now_ns:now w (Int64.of_int v))
        samples;
      match Telemetry.histogram name with
      | None -> false
      | Some h ->
        let r = Rolling.stat ~now_ns:now w in
        h.count = r.count && h.sum_ns = r.sum_ns && h.max_ns = r.max_ns
        && h.p50_ns = r.p50_ns && h.p90_ns = r.p90_ns && h.p99_ns = r.p99_ns)

(* --- registry + exposition -------------------------------------------- *)

let test_prometheus_name () =
  Alcotest.(check string) "dots to underscores" "rchls_serve_hits_memory"
    (Telemetry.prometheus_name "serve.hits.memory");
  Alcotest.(check string) "every foreign byte mapped" "rchls_a_b_c_1"
    (Telemetry.prometheus_name "a-b c/1")

let test_exposition () =
  Telemetry.reset ();
  Telemetry.incr "expo.count";
  Telemetry.incr "expo.count";
  Telemetry.gauge_set "expo.gauge" 42;
  Telemetry.observe_window "expo.lat" 1_500L;
  let snap = Telemetry.snapshot () in
  Alcotest.(check (option int)) "counter folded in" (Some 2)
    (List.assoc_opt "expo.count" snap.Telemetry.counters);
  Alcotest.(check (option int)) "gauge present" (Some 42)
    (List.assoc_opt "expo.gauge" snap.Telemetry.gauges);
  Alcotest.(check bool) "window present" true
    (List.mem_assoc "expo.lat" snap.Telemetry.windows);
  let text = Telemetry.to_prometheus snap in
  List.iter
    (fun affix ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" affix) true
        (contains ~affix text))
    [
      "# TYPE rchls_uptime_seconds gauge";
      "# TYPE rchls_expo_count_total counter";
      "rchls_expo_count_total 2";
      "# TYPE rchls_expo_gauge gauge";
      "rchls_expo_gauge 42";
      "# TYPE rchls_expo_lat_seconds summary";
      "rchls_expo_lat_seconds{quantile=\"0.5\"}";
      "rchls_expo_lat_seconds{quantile=\"0.99\"}";
      "rchls_expo_lat_seconds_sum 1.5e-06";
      "rchls_expo_lat_seconds_count 1";
    ];
  Alcotest.(check bool) "ends with a newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  (* the JSON snapshot carries the same series and survives a parse *)
  let j =
    match Json.of_string (Json.to_string (Telemetry.to_json snap)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "snapshot json: %s" e
  in
  let member path =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  in
  Alcotest.(check (option int)) "json counter" (Some 2)
    (Option.bind (member [ "counters"; "expo.count" ]) Json.to_int_opt);
  Alcotest.(check (option int)) "json gauge" (Some 42)
    (Option.bind (member [ "gauges"; "expo.gauge" ]) Json.to_int_opt);
  Alcotest.(check (option int)) "json window count" (Some 1)
    (Option.bind (member [ "windows"; "expo.lat"; "count" ]) Json.to_int_opt);
  Alcotest.(check (option int)) "json window length" (Some 60_000_000_000)
    (Option.bind (member [ "windows"; "expo.lat"; "window_ns" ]) Json.to_int_opt);
  Telemetry.reset ();
  Alcotest.(check int) "reset zeroes gauges" 0 (Telemetry.gauge "expo.gauge");
  Alcotest.(check bool) "reset clears windows" true
    ((List.assoc "expo.lat" (Telemetry.windows ())).Telemetry.count = 0);
  Alcotest.(check int) "the same reset zeroes counters" 0
    (Telemetry.counter "expo.count")

let test_reset_all_families () =
  Telemetry.incr "r.counter";
  Telemetry.observe "r.hist" 10L;
  Telemetry.gauge_set "r.gauge" 3;
  Telemetry.observe_window "r.window" 10L;
  Telemetry.reset ();
  Alcotest.(check int) "counter" 0 (Telemetry.counter "r.counter");
  Alcotest.(check bool) "histogram" true (Telemetry.histogram "r.hist" = None);
  Alcotest.(check int) "gauge" 0 (Telemetry.gauge "r.gauge");
  Alcotest.(check bool) "window" true
    (List.assoc_opt "r.window" (Telemetry.windows ()) = Some empty)

let test_uptime_monotone () =
  let a = Telemetry.uptime_ns () in
  let b = Telemetry.uptime_ns () in
  Alcotest.(check bool) "positive and monotone" true
    (Int64.compare a 0L > 0 && Int64.compare b a >= 0)

let () =
  Alcotest.run "metrics"
    [
      ( "gauges",
        [
          Alcotest.test_case "basics" `Quick test_gauge_basics;
          Alcotest.test_case "concurrent adds" `Quick test_gauge_concurrent_adds;
        ] );
      ( "rolling",
        [
          Alcotest.test_case "exact aggregates" `Quick
            test_rolling_exact_aggregates;
          Alcotest.test_case "expiry" `Quick test_rolling_expiry;
          Alcotest.test_case "partial expiry" `Quick test_rolling_partial_expiry;
          Alcotest.test_case "late observation dropped" `Quick
            test_rolling_late_observation_dropped;
          Alcotest.test_case "empty stat" `Quick test_rolling_empty_stat;
          QCheck_alcotest.to_alcotest prop_rolling_concurrent_oracle;
          QCheck_alcotest.to_alcotest prop_cumulative_equals_rolling;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus names" `Quick test_prometheus_name;
          Alcotest.test_case "prometheus + json exposition" `Quick
            test_exposition;
          Alcotest.test_case "uptime" `Quick test_uptime_monotone;
          Alcotest.test_case "one reset zeroes all four families" `Quick
            test_reset_all_families;
        ] );
    ]
