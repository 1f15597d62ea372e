(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload from a seed and prints, as its last line, one
   JSON object with the correctness verdict, the operation counts and
   the metrics: the end-to-end set with [--trace 0], the per-layer set
   with [--trace 1].  See NOTES.md for why each workload exists. *)

open Harness

module Json = Rchls_util.Json

(* The metric names and units come from BENCHMARK.json at the root of
   the checkout, so the list lives in one place.  Every workload
   reports every metric of the requested set; a layer a workload does
   not exercise reads 0 there. *)
let metric_units set =
  let fail m = failwith ("BENCHMARK.json: " ^ m) in
  let doc =
    match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> fail e
  in
  match Option.bind (Json.member set doc) Json.to_list_opt with
  | None -> fail ("no " ^ set ^ " list")
  | Some ms ->
    List.map
      (fun m ->
        match
          ( Option.bind (Json.member "name" m) Json.to_string_opt,
            Option.bind (Json.member "unit" m) Json.to_string_opt )
        with
        | Some n, Some u -> (n, u)
        | _ -> fail ("malformed entry in " ^ set))
      ms

let workloads =
  [
    ("explore_corpus", run_pass_workload Explore_w.workload);
    ("anneal_knee", run_pass_workload Anneal_w.workload);
    ("characterize", run_pass_workload Characterize_w.workload);
    ("serve_mixed", Serve_w.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; one of: "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  let units = metric_units (if !trace = 1 then "per_layer" else "end_to_end") in
  let o = run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  let values = if !trace = 1 then o.per_layer else o.end_to_end in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n units) then failwith ("metric missing from BENCHMARK.json: " ^ n))
    values;
  let metrics =
    List.map (fun (n, u) -> (n, u, Option.value ~default:0. (List.assoc_opt n values))) units
  in
  print_endline
    (result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed metrics)
