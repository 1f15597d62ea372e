(* rchls — reliability-centric high-level synthesis CLI.

   Subcommands:
     synth        synthesize a benchmark or .dfg file under bounds
     anneal       synthesize, then improve by parallel-tempering annealing
     sweep        explore a bounds grid for one approach
     characterize run the component characterization (Table 1)
     library      print or validate a resource library
     bench        list / dump the built-in benchmark DFGs
     experiment   regenerate one of the paper's tables/figures
     fuzz         run the generative differential fuzzing properties
     corpus       generate a versioned benchmark-corpus directory
     explore      frontier-guided Pareto exploration of bound planes
     serve        run the synthesis daemon (NDJSON over a socket)
     request      send API request lines to a running daemon
     top          live dashboard for a running daemon

   The synth/anneal/sweep/fuzz subcommands are thin clients of the
   [Rchls_api] job schema: they construct the same typed requests the
   serve wire format carries and execute them in-process through
   [Rchls_experiments.Service] — one public surface, two transports.
   Flag values, help text and report arguments for the API enums come
   from the [Rchls_api.Request] name tables.

   Cross-cutting flags are built once as composable groups and installed
   by one [run] envelope: --stats (telemetry table), --trace-out FILE
   (Chrome trace-event JSON, or JSONL when FILE ends in .jsonl),
   --report json (machine-readable run report on stdout, human output
   on stderr) and --check (independent design-validity checking of
   every realized design).  Each subcommand takes only the groups it
   documents. *)

open Cmdliner
module Library = Rchls_charlib.Library
module Benchmarks = Rchls_dfg.Benchmarks
module Dfg = Rchls_dfg.Dfg
module Parse = Rchls_dfg.Parse
module Engine = Rchls_core.Engine
module Design = Rchls_core.Design
module Anneal = Rchls_anneal.Anneal
module Experiments = Rchls_experiments.Experiments
module Sweep = Rchls_experiments.Sweep
module Explore = Rchls_experiments.Explore
module Corpus = Rchls_experiments.Corpus
module Diskcache = Rchls_util.Diskcache
module Report = Rchls_experiments.Report
module Loader = Rchls_experiments.Loader
module Service = Rchls_experiments.Service
module Telemetry = Rchls_util.Telemetry
module Tablefmt = Rchls_util.Tablefmt
module Trace = Rchls_util.Trace
module Json = Rchls_util.Json
module Check = Rchls_check.Check
module Fuzz = Rchls_check.Fuzz
module Request = Rchls_api.Request
module Response = Rchls_api.Response
module Server = Rchls_serve.Server
module Client = Rchls_serve.Client
module Dashboard = Rchls_serve.Dashboard

let or_die = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "rchls: %s\n" e;
    exit 1

(* Every file the CLI opens by name goes through [on_file]: a system
   error on it ends the run with "rchls: cannot VERB PATH: REASON" and
   exit 1. *)
let on_file verb path f =
  try f ()
  with Sys_error m ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix m then
        String.sub m (String.length prefix) (String.length m - String.length prefix)
      else m
    in
    Printf.eprintf "rchls: cannot %s %s: %s\n%!" verb path reason;
    exit 1

let print_report report = print_endline (Json.to_string ~pretty:true report)

(* --- common args --- *)

let graph_arg =
  let doc = "Benchmark name (fig4, fir16, ewf, diffeq, iir, ar) or path to a .dfg file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)

let library_arg =
  let doc = "Resource library file (defaults to the paper's Table 1)." in
  Arg.(value & opt (some string) None & info [ "library"; "L" ] ~docv:"FILE" ~doc)

let library_source = function
  | None -> Request.Lib_default
  | Some path -> Request.Lib_file path

let ld_arg =
  let doc = "Latency bound in clock cycles." in
  Arg.(required & opt (some int) None & info [ "ld" ] ~docv:"CYCLES" ~doc)

let ad_arg =
  let doc = "Area bound in library units." in
  Arg.(required & opt (some int) None & info [ "ad" ] ~docv:"UNITS" ~doc)

let domains_arg ?(sequential = true) what note =
  let doc =
    Printf.sprintf
      "Worker domains %s (default: $(b,RCHLS_DOMAINS) or the recommended domain \
       count%s).%s"
      what
      (if sequential then "; 1 = sequential" else "")
      (if note = "" then "" else "  " ^ note)
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* An API enum flag: its values are the [Request] name table, and its
   doc lists them in table order, "name (note)" where [notes] has one
   and [last] before the final name. *)
let enum_arg name ~docv ~default table ?(last = ", ") ~notes what =
  let item (n, v) =
    match List.assoc_opt v notes with Some note -> n ^ " (" ^ note ^ ")" | None -> n
  in
  let doc =
    match List.rev_map item table with
    | final :: rest ->
      Printf.sprintf "%s: %s%s%s." what (String.concat ", " (List.rev rest)) last final
    | [] -> what
  in
  Arg.(value & opt (enum table) default & info [ name ] ~docv ~doc)

(* --- observability flag groups and the run envelope --- *)

type envelope = {
  stats : bool;
  trace_out : string option;
  report : bool;  (** [--report json]: stdout carries the run report *)
  check : bool;
}

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print engine telemetry (scheduler/binder runs, evaluation-cache \
               hits, per-pass timings, span latency quantiles) after the run. \
               Goes to stderr under $(b,--report).")

let trace_out_arg =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
         ~doc:"Write the run's span/instant trace to $(docv) as Chrome \
               trace-event JSON (load in Perfetto or chrome://tracing; one \
               track per worker domain) — or, when $(docv) ends in \
               $(b,.jsonl), stream one structured JSON event per line.")

let report_arg =
  Arg.(value & opt (some (Arg.enum [ ("json", `Json) ])) None
       & info [ "report" ] ~docv:"FMT"
           ~doc:"Emit a machine-readable run report (schema \
                 rchls.run_report/1: result, counters, timers, histogram \
                 quantiles, input fingerprints) on stdout.  $(docv) must be \
                 $(b,json).  Human-readable output moves to stderr.")

let check_arg =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Re-validate every design the engine realizes (and every \
               redundancy-protected design a sweep produces) with the \
               independent design-validity checker: precedence edges, \
               conflict-free binding, library membership and recomputed \
               objective totals.  A violation aborts the run with a \
               diagnostic; a summary count goes to stderr.")

(* The groups: [--stats] alone, [observe] (= [--stats] and
   [--trace-out]), and [reporting]/[checking], which extend a group
   with [--report]/[--check]. *)
let quiet = { stats = false; trace_out = None; report = false; check = false }
let stats_only = Term.(const (fun stats -> { quiet with stats }) $ stats_arg)

let observe =
  Term.(const (fun stats trace_out -> { quiet with stats; trace_out }) $ stats_arg
        $ trace_out_arg)

let reporting group =
  Term.(const (fun e r -> { e with report = r <> None }) $ group $ report_arg)

let checking group = Term.(const (fun e check -> { e with check }) $ group $ check_arg)

(* The --stats table, on stderr when stdout carries machine output;
   [label] heads the block. *)
let print_stats ?label ~err () =
  let rendered = Telemetry.render () in
  if rendered <> "" then begin
    let head = match label with Some id -> Printf.sprintf "[%s]\n" id | None -> "" in
    if err then Printf.eprintf "\n%s%s\n%!" head rendered
    else Printf.printf "\n%s%s\n" head rendered
  end

(* Run [f ()] with the design checker installed; the summary goes to
   stderr so checked runs keep byte-identical stdout. *)
let with_check check f =
  if not check then f ()
  else begin
    Check.reset_stats ();
    Check.enable ();
    Fun.protect ~finally:Check.disable @@ fun () ->
    match f () with
    | v ->
      Printf.eprintf "rchls: check: %d designs validated, %d violations\n%!"
        (Check.designs_checked ())
        (Check.violations_found ());
      v
    | exception Failure msg ->
      Printf.eprintf "rchls: %s\n%!" msg;
      exit 3
  end

(* Run [f ()] with [sinks] and the --trace-out sink installed; the
   Chrome file is rendered after [f] returns (also on a failed
   synthesis, whose exit code [f] returns rather than exiting). *)
let with_tracing ?(sinks = []) trace_out f =
  match trace_out with
  | None -> ( match sinks with [] -> f () | sinks -> Trace.with_sinks sinks f)
  | Some path when Filename.check_suffix path ".jsonl" ->
    let oc = on_file "write" path (fun () -> open_out path) in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Trace.with_sinks (sinks @ [ Trace.jsonl_sink oc ]) f)
  | Some path ->
    let c = Trace.collector () in
    let v = Trace.with_sinks (sinks @ [ Trace.collector_sink c ]) f in
    on_file "write" path (fun () -> Trace.write_chrome_file c path);
    Printf.eprintf "rchls: wrote %s\n%!" path;
    v

(* The run envelope: [f] runs on fresh telemetry, under the checker
   and the trace sinks its flags ask for; then the --stats table
   (on stderr when [stats_err] or a report owns stdout), and [f]'s
   exit code. *)
let run ?sinks ?(stats_err = false) env f =
  Telemetry.reset ();
  let code = with_check env.check (fun () -> with_tracing ?sinks env.trace_out f) in
  if env.stats then print_stats ~err:(stats_err || env.report) ();
  if code <> 0 then exit code

(* A job with a parameter outside its domain ([Request.validate]) is
   refused before anything runs, as cmdliner refuses a malformed flag:
   the message and the usage line on stderr, exit 124.  Otherwise [k]
   runs. *)
let validated job k =
  match Request.validate job with
  | Ok () -> `Ok (k ())
  | Error (field, problem) -> `Error (true, Printf.sprintf "option '--%s': %s" field problem)

(* --- synth and anneal --- *)

(* The synthesis parameters synth and anneal share: the request fields
   and the run-report arguments naming them. *)
let synth_params =
  let strategy_arg =
    enum_arg "strategy" ~docv:"STRATEGY" ~default:Request.Best Request.strategies
      ~notes:[ (Request.Best, "default") ]
      "Search strategy"
  in
  let scheduler_arg =
    enum_arg "scheduler" ~docv:"SCHED" ~default:Request.Density Request.schedulers
      ~last:" or "
      ~notes:[ (Request.Density, "the paper's, incremental") ]
      "Scheduler"
  in
  let make graph lib ld ad strategy scheduler =
    ( { Request.graph = Request.Named graph; library = library_source lib; ld; ad;
        strategy; scheduler },
      [
        ("graph", Json.Str graph);
        ("ld", Json.Int ld);
        ("ad", Json.Int ad);
        ("strategy", Json.Str (Request.name_of Request.strategies strategy));
        ("scheduler", Json.Str (Request.name_of Request.schedulers scheduler));
      ] )
  in
  Term.(const make $ graph_arg $ library_arg $ ld_arg $ ad_arg $ strategy_arg
        $ scheduler_arg)

(* Resolve [s]'s inputs, run [exec] on them and print the outcome: the
   run report under --report json, otherwise [human] or the failure
   diagnostic; [after] then sees a success.  An engine failure is exit
   code 2. *)
let synthesize_and_print ~command ~args ~report (s : Request.synth) exec ~json ~human
    ?(after = ignore) () =
  let r = or_die (Service.resolve s.graph s.library) in
  let print result =
    print_report
      (Report.make ~command ~args ~graph:r.Service.graph ~library:r.Service.library
         ~result ())
  in
  match or_die (exec r) with
  | Error f ->
    if report then print (Report.failure_json f)
    else Format.printf "%a@." Engine.pp_failure f;
    2
  | Ok v ->
    if report then print (json v) else human v;
    after v;
    0

(* The historical [--trace] decision printer, reimplemented as a sink
   over the engine's structured instant events (the typed callback
   path it replaces printed byte-identical lines). *)
let decision_printer (ev : Trace.event) =
  match ev.kind with
  | Trace.Instant ->
    let s k = Option.value ~default:"" (Trace.attr_string ev.attrs k) in
    let i k = Option.value ~default:0 (Trace.attr_int ev.attrs k) in
    (match ev.name with
    | "engine.initial" -> Printf.printf "* initial latency %d\n" (i "latency")
    | "engine.latency_downgrade" ->
      Printf.printf "* latency: %s %s -> %s (L=%d)\n" (s "node") (s "from") (s "to")
        (i "latency")
    | "engine.slack_exploited" ->
      Printf.printf "* slack: reschedule at L=%d (area %d)\n" (i "latency") (i "area")
    | "engine.area_downgrade" ->
      Printf.printf "* area: [%s] %s -> %s (area %d)\n" (s "nodes") (s "from") (s "to")
        (i "area")
    | "engine.refine_upgrade" ->
      Printf.printf "* refine: [%s] %s -> %s (R=%.5f)\n" (s "node") (s "from") (s "to")
        (Option.value ~default:0. (Trace.attr_float ev.attrs "reliability"))
    | _ -> ())
  | Trace.Begin | Trace.End -> ()

let synth_cmd =
  let go (job, args) dot trace env =
    let write_dot d path =
      let sched = Design.schedule d in
      on_file "write" path (fun () ->
          Rchls_dfg.Dot.write_file
            ~step:(fun nd -> Some (Rchls_sched.Schedule.start sched nd.Dfg.id))
            (Design.graph d) path);
      if env.report then Printf.eprintf "rchls: wrote %s\n%!" path
      else Printf.printf "wrote %s\n" path
    in
    validated (Request.Synth job) @@ fun () ->
    run ~sinks:(if trace then [ decision_printer ] else []) env @@ fun () ->
    synthesize_and_print ~command:"synth" ~args ~report:env.report job
      (fun resolved -> Service.run_synth ~resolved job)
      ~json:Report.design_json ~human:(Format.printf "%a" Design.pp_report)
      ~after:(fun d -> Option.iter (write_dot d) dot)
      ()
  in
  let dot =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
           ~doc:"Write the scheduled data-flow graph as Graphviz to $(docv).")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the algorithm's decisions.")
  in
  let doc = "Synthesize a data-flow graph under latency and area bounds." in
  Cmd.v (Cmd.info "synth" ~doc)
    Term.(ret (const go $ synth_params $ dot $ trace $ checking (reporting observe)))

let anneal_cmd =
  let go ((s : Request.synth), args) seed moves chains exchange env =
    let job =
      { Request.graph = s.graph; library = s.library; ld = s.ld; ad = s.ad;
        strategy = s.strategy; scheduler = s.scheduler; seed; moves; chains; exchange }
    in
    let args =
      args
      @ [
          ("seed", Json.Int seed);
          ("moves", Json.Int moves);
          ("chains", Json.Int chains);
          ("exchange", Json.Int exchange);
        ]
    in
    validated (Request.Anneal job) @@ fun () ->
    run env @@ fun () ->
    synthesize_and_print ~command:"anneal" ~args ~report:env.report s
      (fun resolved -> Service.run_anneal ~resolved job)
      ~json:(fun r -> Response.payload_to_json (Service.payload_of_anneal (Ok r)))
      ~human:(fun (greedy, annealed, (st : Anneal.stats)) ->
        Printf.printf "greedy:   latency=%d area=%d R=%.12g\n" (Design.latency greedy)
          (Design.area greedy) (Design.reliability greedy);
        Printf.printf "annealed: latency=%d area=%d R=%.12g%s\n"
          (Design.latency annealed) (Design.area annealed)
          (Design.reliability annealed)
          (if st.improved then "  (improved)" else "  (greedy kept)");
        Printf.printf "anneal:   moves=%d accepted=%d pruned=%d exchanges=%d chains=%d\n"
          st.attempted st.accepted st.pruned st.exchanges st.chain_count;
        Format.printf "%a" Design.pp_report annealed)
      ()
  in
  let knob name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let p = Anneal.default_params in
  let doc =
    "Synthesize greedily, then improve the design with parallel-tempering \
     simulated annealing over version/schedule/binding moves."
  in
  Cmd.v (Cmd.info "anneal" ~doc)
    Term.(
      ret
        (const go $ synth_params
        $ knob "seed" p.seed "Annealer RNG seed."
        $ knob "moves" p.moves "Moves attempted per chain."
        $ knob "chains" p.chains "Replica chains on the temperature ladder."
        $ knob "exchange" p.exchange "Moves between temperature-exchange attempts."
        $ checking (reporting observe)))

(* --- sweep --- *)

let approach_arg =
  enum_arg "approach" ~docv:"A" ~default:Request.Ours Request.approaches
    ~notes:[ (Request.Ours, "default"); (Request.Baseline, "ref [3] NMR") ]
    "Approach"

let sweep_cmd =
  let go graph lib_file lds ads approach domains env =
    let job =
      { Request.graph = Request.Named graph; library = library_source lib_file; lds;
        ads; approach; scheduler = Request.Density }
    in
    validated (Request.Sweep job) @@ fun () ->
    run env @@ fun () ->
    let r = or_die (Service.resolve job.graph job.library) in
    let cells = or_die (Service.run_sweep ~resolved:r ?domains job) in
    (if env.report then
       let ints ns = Json.List (List.map (fun i -> Json.Int i) ns) in
       print_report
         (Report.make ~command:"sweep"
            ~args:
              [
                ("graph", Json.Str graph);
                ("approach", Json.Str (Request.name_of Request.approaches approach));
                ("lds", ints lds);
                ("ads", ints ads);
              ]
            ~graph:r.graph ~library:r.library ~result:(Report.sweep_json cells) ())
     else
       (* Render through the indexed grid view: same cells, but the
          order is pinned to (ld, ad) regardless of how the sweep
          produced them. *)
       let t = Tablefmt.create [ "Ld"; "Ad"; "Reliability"; "Area" ] in
       List.iter
         (fun (c : Sweep.cell) ->
           Tablefmt.add_row t
             [
               string_of_int c.ld;
               string_of_int c.ad;
               Option.fold ~none:"-" ~some:Tablefmt.float_cell c.reliability;
               Option.fold ~none:"-" ~some:string_of_int c.area;
             ])
         (Sweep.Grid.cells (Sweep.Grid.of_cells cells));
       Tablefmt.print t);
    0
  in
  let bounds name docv doc =
    Arg.(required & opt (some (list int)) None & info [ name ] ~docv ~doc)
  in
  let doc = "Sweep a latency x area bounds grid." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const go $ graph_arg $ library_arg
        $ bounds "lds" "L1,L2,..." "Latency bounds to sweep."
        $ bounds "ads" "A1,A2,..." "Area bounds to sweep."
        $ approach_arg
        $ domains_arg "for the grid" ""
        $ checking (reporting observe)))

(* --- characterize --- *)

let characterize_cmd =
  let go measured width vectors seed ci_target domains env =
    run env @@ fun () ->
    if measured then
      print_string
        (Experiments.table1_measured ~width
           ~fault_config:
             { Rchls_soft_error.Fault_sim.Campaign.default with vectors; seed; ci_target;
               domains }
           ())
    else begin
      print_string (Experiments.table1 ());
      print_string (Experiments.fig2 ())
    end;
    0
  in
  let measured =
    Arg.(value & flag & info [ "measured" ]
           ~doc:"Run the full substitute pipeline (netlist generation + \
                 fault-injection campaigns) instead of the published Qcritical \
                 inputs.")
  in
  let width =
    Arg.(value & opt int 12 & info [ "width" ] ~docv:"BITS" ~doc:"Adder bit width.")
  in
  let vectors =
    Arg.(value & opt int 48 & info [ "vectors" ] ~docv:"N"
           ~doc:"Vectors per node (the cap when $(b,--ci-target) is set).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Campaign PRNG seed; results are deterministic per seed, \
                 independent of the domain count.")
  in
  let ci_target =
    Arg.(value & opt (some float) None & info [ "ci-target" ] ~docv:"H"
           ~doc:"Stop a node early once the 95% Wilson-interval half-width of \
                 its logical derating reaches $(docv) (checked every 63 \
                 vectors).  Off by default, which keeps the output exactly \
                 reproducible at a given vector count.")
  in
  let doc = "Regenerate the component characterization (Table 1 / Figure 2)." in
  Cmd.v (Cmd.info "characterize" ~doc)
    Term.(
      const go $ measured $ width $ vectors $ seed $ ci_target
      $ domains_arg "for the campaign node fan-out"
          "Never changes results, only wall-clock."
      $ observe)

(* --- library --- *)

let library_cmd =
  let go lib_file env =
    run env @@ fun () ->
    print_string (Library.to_text (or_die (Loader.load_library lib_file)));
    0
  in
  let doc = "Print (and thereby validate) a resource library." in
  Cmd.v (Cmd.info "library" ~doc) Term.(const go $ library_arg $ stats_only)

(* --- bench --- *)

let bench_cmd =
  let go which env =
    run env @@ fun () ->
    (match which with
    | None ->
      List.iter
        (fun (name, g) -> Format.printf "%-8s %a@." name Dfg.pp_summary g)
        Benchmarks.all
    | Some name -> (
      match Benchmarks.find name with
      | Some g -> print_string (Parse.to_text g)
      | None ->
        Printf.eprintf "unknown benchmark %S\n" name;
        exit 1));
    0
  in
  let which =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Benchmark to dump in .dfg form; omit to list all.")
  in
  let doc = "List the built-in benchmarks or dump one as .dfg text." in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const go $ which $ stats_only)

(* --- experiment --- *)

let experiment_cmd =
  let go ids env =
    let ids = if ids = [ "all" ] then List.map fst Experiments.all else ids in
    List.iter
      (fun id ->
        if not (List.mem_assoc id Experiments.all) then begin
          Printf.eprintf "unknown experiment %S; available: %s\n" id
            (String.concat ", " (List.map fst Experiments.all @ [ "all" ]));
          exit 1
        end)
      ids;
    (* Telemetry is reset between experiments so each report (and each
       [--stats] block) covers exactly one table/figure. *)
    run { env with stats = false } @@ fun () ->
    let reports =
      List.filter_map
        (fun id ->
          Telemetry.reset ();
          let text = (List.assoc id Experiments.all) () in
          let r =
            if env.report then
              Some
                (Report.make ~command:"experiment"
                   ~args:[ ("id", Json.Str id) ]
                   ~result:
                     (Json.Obj [ ("experiment", Json.Str id); ("output", Json.Str text) ])
                   ())
            else begin
              print_string text;
              None
            end
          in
          if env.stats then print_stats ~label:id ~err:env.report ();
          r)
        ids
    in
    (match reports with
    | [ r ] -> print_report r
    | rs ->
      (* Several experiments: one compact report per line (JSONL). *)
      List.iter (fun r -> print_endline (Json.to_string r)) rs);
    0
  in
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids: table1, fig2, fig5, fig7, fig8a, fig8b, table2a, \
                 table2b, table2c, fig9 — or $(b,all).  Telemetry resets between \
                 ids, so $(b,--stats) and $(b,--report) cover each in isolation.")
  in
  let doc = "Regenerate the paper's tables or figures." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const go $ ids $ checking (reporting observe))

(* --- fuzz --- *)

let fuzz_cmd =
  let go seed cases max_nodes properties env =
    run env @@ fun () ->
    let job = { Request.seed; cases; max_nodes; properties } in
    let outcomes = or_die (Service.run_fuzz job) in
    if env.report then
      print_report
        (Report.make ~command:"fuzz"
           ~args:
             [
               ("seed", Json.Int seed);
               ("cases", Json.Int cases);
               ("max_nodes", Json.Int max_nodes);
             ]
           ~result:(Response.payload_to_json (Service.payload_of_fuzz outcomes))
           ())
    else List.iter (fun o -> Format.printf "%a@." Fuzz.pp_outcome o) outcomes;
    if Fuzz.all_passed outcomes then 0 else 2
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Fuzzing PRNG seed.  Every case is reproducible from (seed, \
                 property, case index) alone.")
  in
  let cases =
    Arg.(value & opt int 250 & info [ "cases" ] ~docv:"N"
           ~doc:"Cases per property.")
  in
  let max_nodes =
    Arg.(value & opt int 12 & info [ "max-nodes" ] ~docv:"N"
           ~doc:"Largest generated graph.")
  in
  let props =
    Arg.(value & opt (some (list string)) None & info [ "properties" ] ~docv:"P1,P2,..."
           ~doc:(Printf.sprintf "Properties to run (default: all): %s."
                   (String.concat ", " (Fuzz.property_names ()))))
  in
  let doc =
    "Fuzz the synthesis stack: random designs, differential scheduler oracles, \
     metamorphic reliability properties, independent validity checking."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const go $ seed $ cases $ max_nodes $ props $ reporting observe)

(* --- corpus --- *)

let corpus_cmd =
  let go dir seed count =
    let t =
      try Corpus.generate ~dir ~seed ~count
      with Invalid_argument m | Sys_error m -> or_die (Error m)
    in
    let tbl = Tablefmt.create [ "File"; "Family"; "Nodes"; "Edges" ] in
    List.iter
      (fun (e : Corpus.entry) ->
        Tablefmt.add_row tbl
          [ e.file; e.family; string_of_int e.nodes; string_of_int e.edges ])
      t.Corpus.entries;
    Tablefmt.print tbl;
    Printf.printf "wrote %d graphs + %s to %s (seed %d)\n"
      (List.length t.Corpus.entries)
      Corpus.manifest_file dir seed
  in
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Corpus directory (created as needed).  Each graph lands as a \
                 .dfg file next to a versioned $(b,MANIFEST.json).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
           ~doc:"Generation seed.  Graph $(i,i) draws from a private stream \
                 keyed (seed, i), so regenerating with a larger $(b,--count) \
                 extends the corpus in place.")
  in
  let count =
    Arg.(value & opt int 20 & info [ "count" ] ~docv:"N"
           ~doc:"Number of graphs; structured families (chain, fanout, fir, \
                 diffeq) round-robin.")
  in
  let doc = "Generate a versioned benchmark-corpus directory of .dfg graphs." in
  Cmd.v (Cmd.info "corpus" ~doc) Term.(const go $ dir $ seed $ count)

(* --- explore --- *)

(* One explore target: either a corpus directory (every member graph)
   or a single benchmark name / .dfg path. *)
let explore_targets spec =
  if Sys.file_exists (Filename.concat spec Corpus.manifest_file) then begin
    let corpus = or_die (Corpus.load ~dir:spec) in
    List.map
      (fun (e : Corpus.entry) -> (e.graph_name, or_die (Corpus.load_graph corpus e)))
      corpus.Corpus.entries
  end
  else
    let name = Filename.remove_extension (Filename.basename spec) in
    [ (name, or_die (Loader.load_graph spec)) ]

let explore_cmd =
  let go target lib_file lds ads approach domains verify cache_dir env =
    let lds = Option.value ~default:[] lds and ads = Option.value ~default:[] ads in
    validated
      (Request.Explore
         { Request.graph = Request.Named target; library = library_source lib_file; lds;
           ads; approach; scheduler = Request.Density })
    @@ fun () ->
    run ~stats_err:true env @@ fun () ->
    let lib = or_die (Loader.load_library lib_file) in
    let library_text = Library.to_text lib in
    let disk = Option.map (fun dir -> or_die (Diskcache.open_dir dir)) cache_dir in
    let run_and_emit name g ~lds ~ads appr ~key =
      let cache = Rchls_core.Engine.create_cache () in
      let cells, exp_stats = Sweep.run_with_stats ?domains ~cache appr g lib ~lds ~ads in
      if verify && cells <> Sweep.run_reference ?domains ~cache appr g lib ~lds ~ads
      then begin
        Printf.eprintf "rchls: %s: pruned sweep diverges from the exhaustive reference\n"
          name;
        exit 3
      end;
      let points = Explore.frontier cells in
      let payload_json =
        Json.to_string
          (Response.payload_to_json (Service.payload_of_explore (points, exp_stats)))
      in
      (match (disk, key) with Some d, Some k -> Diskcache.add d k payload_json | _ -> ());
      print_endline (Response.assemble_raw ~id:(Some name) ~cache:None payload_json);
      Printf.eprintf
        "rchls: %s: %d frontier points, evaluated %d of %d cells (%d derived)\n%!" name
        (List.length points) exp_stats.Explore.evaluated exp_stats.Explore.cells
        exp_stats.Explore.derived
    in
    let explore_one (name, g) =
      or_die (Loader.covers g lib);
      let graph_text = Parse.to_text g in
      let planned = lazy (Explore.plan g lib) in
      let lds = match lds with [] -> fst (Lazy.force planned) | l -> l in
      let ads = match ads with [] -> snd (Lazy.force planned) | l -> l in
      let appr = Service.approach_of_api approach in
      let job =
        Request.Explore
          {
            Request.graph = Request.Inline graph_text;
            library = Request.Lib_inline library_text;
            lds;
            ads;
            approach;
            scheduler = Request.Density;
          }
      in
      let key =
        Request.cache_key ~graph_digest:(Rchls_util.Fnv.hash_string graph_text)
          ~library_digest:(Rchls_util.Fnv.hash_string library_text) job
      in
      let cached =
        match (disk, key) with
        | Some d, Some k -> Option.map (fun v -> (k, v)) (Diskcache.find d k)
        | _ -> None
      in
      match cached with
      | Some (k, payload_json) -> (
        (* Resumable runs revalidate disk entries through the strict
           decoder; a stale or foreign file is recomputed, not
           trusted. *)
        match Result.bind (Json.of_string payload_json) Response.payload_of_json with
        | Ok _ ->
          print_endline
            (Response.assemble_raw ~id:(Some name)
               ~cache:
                 (Some { Response.tier = Response.Disk; key = Rchls_util.Fnv.to_hex k })
               payload_json);
          Printf.eprintf "rchls: %s: cached (%d-cell plane)\n%!" name
            (List.length lds * List.length ads)
        | Error _ -> run_and_emit name g ~lds ~ads appr ~key)
      | None -> run_and_emit name g ~lds ~ads appr ~key
    in
    List.iter explore_one (explore_targets target);
    0
  in
  let target =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET"
           ~doc:"A corpus directory (from $(b,rchls corpus) — every member \
                 graph is explored), a benchmark name or a .dfg file.")
  in
  let lds =
    Arg.(value & opt (some (list int)) None & info [ "lds" ] ~docv:"L1,L2,..."
           ~doc:"Latency bounds (default: planned automatically from the \
                 graph and library).")
  in
  let ads =
    Arg.(value & opt (some (list int)) None & info [ "ads" ] ~docv:"A1,A2,..."
           ~doc:"Area bounds (default: planned automatically).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Run both the pruned explorer and the exhaustive reference \
                 and abort (exit 3) unless their grids agree cell-for-cell.  \
                 Output is the pruned run's.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Persist each graph's frontier payload under its response \
                 cache key in $(docv); re-running skips graphs already \
                 explored (resumable corpus sweeps).")
  in
  let doc =
    "Frontier-guided Pareto exploration: sweep bound planes with \
     dominance-pruned synthesis and print each graph's (latency, area, \
     reliability) frontier as rchls.api/1 NDJSON."
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      ret
        (const go $ target $ library_arg $ lds $ ads $ approach_arg
        $ domains_arg "for the latency-row fan-out" "Never changes output."
        $ verify $ cache_dir $ checking observe))

(* --- serve, request, top --- *)

let socket_arg =
  Arg.(value & opt string "rchls.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path (ignored under $(b,--tcp)).")

let tcp_arg =
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
         ~doc:"Listen on 127.0.0.1:$(docv) instead of a Unix socket \
               (0 = ephemeral; the bound port is printed on stderr).")

(* An address: a loopback TCP port, else a Unix-domain socket path. *)
let address socket tcp =
  match tcp with
  | Some port -> Server.Tcp ("127.0.0.1", port)
  | None -> Server.Unix_socket socket

let connect socket tcp =
  or_die
    (match address socket tcp with
    | Server.Tcp (host, port) -> Client.connect_tcp ~host ~port
    | Server.Unix_socket path -> Client.connect_unix path)

let serve_cmd =
  let go socket tcp cache_dir cache_entries domains batch_max queue_max metrics
      access_log access_log_max_bytes env =
    Telemetry.reset ();
    with_tracing env.trace_out @@ fun () ->
    let config =
      {
        Server.addr = address socket tcp;
        cache_dir;
        cache_entries;
        domains;
        batch_max;
        queue_max;
        (* [--metrics ADDR] uses the listener's address vocabulary. *)
        metrics =
          Option.map (fun spec -> address spec (int_of_string_opt spec)) metrics;
        access_log = Option.map (fun p -> (p, access_log_max_bytes)) access_log;
      }
    in
    let server = or_die (Server.start config) in
    (match config.Server.addr with
    | Server.Tcp (host, _) ->
      Printf.eprintf "rchls: serving on %s:%d\n%!" host
        (Option.value ~default:0 (Server.port server))
    | Server.Unix_socket path -> Printf.eprintf "rchls: serving on %s\n%!" path);
    (match (config.Server.metrics, Server.metrics_port server) with
    | Some (Server.Tcp (host, _)), Some port ->
      Printf.eprintf "rchls: metrics on http://%s:%d/\n%!" host port
    | Some (Server.Unix_socket path), _ -> Printf.eprintf "rchls: metrics on %s\n%!" path
    | _ -> ());
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not (Atomic.get stop) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Printf.eprintf "rchls: shutting down\n%!";
    Server.stop server;
    if env.stats then print_stats ~err:true ()
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Enable the persistent response-cache tier rooted at $(docv) \
                 (entries survive daemon restarts; see DESIGN.md par. 12).")
  in
  let cache_entries =
    Arg.(value & opt int 4096 & info [ "cache-entries" ] ~docv:"N"
           ~doc:"Entry bound for each response-cache tier.")
  in
  let batch_max =
    Arg.(value & opt int 8 & info [ "batch-max" ] ~docv:"N"
           ~doc:"Jobs computed per scheduler round.")
  in
  let queue_max =
    Arg.(value & opt int 64 & info [ "queue-max" ] ~docv:"N"
           ~doc:"Queued-job bound; further requests answer the \
                 $(b,overloaded) error until the queue drains.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"ADDR"
           ~doc:"Serve a Prometheus text scrape endpoint on $(docv): a port \
                 number binds 127.0.0.1:$(docv) (0 = ephemeral, printed on \
                 stderr), anything else is a Unix-socket path.  Any request \
                 path answers the exposition; $(b,/json) answers the JSON \
                 snapshot.")
  in
  let access_log =
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE"
           ~doc:"Append one JSON line per request to $(docv) (id, kind, cache \
                 tier, queue/exec/total ns, bytes, status).  Admin kinds \
                 (ping, stats, health) are not logged.")
  in
  let access_log_max_bytes =
    Arg.(value & opt int (64 * 1024 * 1024)
         & info [ "access-log-max-bytes" ] ~docv:"N"
             ~doc:"Rotate the access log ($(b,FILE) to $(b,FILE.1)) before it \
                   would exceed $(docv) bytes.")
  in
  let doc = "Run the synthesis daemon (rchls.api/1 NDJSON over a socket)." in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const go $ socket_arg $ tcp_arg $ cache_dir $ cache_entries
      $ domains_arg ~sequential:false "per batch" "Responses are independent of it."
      $ batch_max $ queue_max $ metrics $ access_log $ access_log_max_bytes $ observe)

let request_cmd =
  let go socket tcp verbose timeout file =
    let client = connect socket tcp in
    Option.iter (Client.set_receive_timeout client) timeout;
    let name, ic =
      match file with
      | None | Some "-" -> ("standard input", stdin)
      | Some path ->
        if not (Sys.file_exists path) then begin
          Printf.eprintf "rchls: no such file %S\n" path;
          exit 1
        end;
        (path, on_file "read" path (fun () -> open_in path))
    in
    (* One call per input line, in order; the exit code reflects the
       worst response seen. *)
    let code = ref 0 in
    (try
       while true do
         let line = on_file "read" name (fun () -> input_line ic) in
         if String.trim line <> "" then begin
           or_die (Client.send_raw client line);
           let reply = or_die (Client.recv_raw client) in
           print_endline reply;
           match Response.of_string reply with
           | Ok ({ Response.result; _ } as r) ->
             if verbose then begin
               let tier =
                 match r.Response.cache with
                 | Some { Response.tier = Response.Memory; _ } -> "memory"
                 | Some { Response.tier = Response.Disk; _ } -> "disk"
                 | None -> "computed"
               in
               let timing =
                 match r.Response.timing with
                 | Some t ->
                   let ns n = Telemetry.format_ns (Int64.of_int n) in
                   Printf.sprintf " total=%s queue=%s exec=%s" (ns t.Response.total_ns)
                     (ns t.Response.queue_ns) (ns t.Response.exec_ns)
                 | None -> ""
               in
               Printf.eprintf "rchls: id=%s status=%s tier=%s%s\n%!"
                 (Option.value ~default:"-" r.Response.id)
                 (match result with
                 | Ok _ -> "ok"
                 | Error e -> Response.error_code_name e.Response.code)
                 tier timing
             end;
             if Result.is_error result then code := 2
           | Error _ -> code := max !code 1
         end
       done
     with End_of_file -> ());
    Client.close client;
    if !code <> 0 then exit !code
  in
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"File of request lines (rchls.api/1 NDJSON); omit or use \
                 $(b,-) for stdin.  Responses print to stdout, one line per \
                 request.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ]
           ~doc:"Print per-response metadata to stderr: request id, status, \
                 cache tier (memory/disk/computed) and the server-side \
                 latency breakdown from the response envelope.")
  in
  let timeout =
    Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Fail (exit 1) if the daemon does not answer a request \
                 within $(docv) seconds, instead of blocking forever.")
  in
  let doc = "Send API request lines to a running rchls serve daemon." in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(const go $ socket_arg $ tcp_arg $ verbose $ timeout $ file)

let top_cmd =
  let go socket tcp interval iterations =
    let client = connect socket tcp in
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "rchls: %s\n" m;
          exit 2)
        fmt
    in
    let call job =
      let req = { Request.id = Some (Request.job_kind job); job } in
      match or_die (Client.call client req) with
      | { Response.result = Error e; _ } -> fail "server error: %s" e.Response.message
      | { Response.result = Ok payload; _ } -> payload
    in
    let poll () =
      let stats =
        match call Request.Stats with
        | Response.Stats_snapshot s -> s
        | _ -> fail "unexpected payload for stats"
      in
      let health =
        match call Request.Health with Response.Health_report h -> Some h | _ -> None
      in
      (stats, health)
    in
    let clear = Unix.isatty Unix.stdout in
    let stop = Atomic.make false in
    let request_stop _ = Atomic.set stop true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    let prev = ref None in
    let prev_at = ref (Unix.gettimeofday ()) in
    let frames = ref 0 in
    (try
       while (not (Atomic.get stop)) && (iterations = 0 || !frames < iterations) do
         let stats, health = poll () in
         let now = Unix.gettimeofday () in
         let frame = Dashboard.render ?prev:!prev ?health ~dt_s:(now -. !prev_at) stats in
         if clear then print_string "\x1b[2J\x1b[H";
         print_string frame;
         flush stdout;
         prev := Some stats;
         prev_at := now;
         incr frames;
         if iterations = 0 || !frames < iterations then
           try Unix.sleepf interval with Unix.Unix_error (Unix.EINTR, _, _) -> ()
       done
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Client.close client
  in
  let interval =
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS"
           ~doc:"Seconds between polls of the daemon's $(b,stats) kind.")
  in
  let iterations =
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N"
           ~doc:"Render $(docv) frames and exit (0 = run until interrupted).  \
                 The first frame shows cumulative totals, later frames \
                 interval rates.")
  in
  let doc = "Live dashboard for a running rchls serve daemon." in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const go $ socket_arg $ tcp_arg $ interval $ iterations)

let () =
  let doc = "reliability-centric high-level synthesis (DATE 2005 reproduction)" in
  let info = Cmd.info "rchls" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            synth_cmd;
            anneal_cmd;
            sweep_cmd;
            characterize_cmd;
            library_cmd;
            bench_cmd;
            experiment_cmd;
            fuzz_cmd;
            corpus_cmd;
            explore_cmd;
            serve_cmd;
            request_cmd;
            top_cmd;
          ]))
