(* Shared machinery of the benchmark: the clock, the timed pass loop,
   percentiles, the determinism guard, span self-time aggregation and
   the one-line JSON result. *)

module Telemetry = Rchls_util.Telemetry
module Trace = Rchls_util.Trace
module Rng = Rchls_util.Rng

let now_ns () = Telemetry.now_ns ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* --- statistics ------------------------------------------------------ *)

(* Linear interpolation between closest ranks (the "inclusive" method
   of Python's [statistics.quantiles]). *)
let percentile q xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let a = Array.copy xs in
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

(* Peak resident set size (VmHWM) in MiB. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Some l
          | Some _ -> scan ()
        in
        scan ())
  in
  match line with
  | None -> nan
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
        float_of_int kb /. 1024.)

(* --- work directory -------------------------------------------------- *)

(* Everything a run writes lives under one directory of the checkout,
   removed when the run ends. *)
let work_root = ".perfbench_work"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Remove a run's directory, and the work root once it is empty. *)
let remove_dir d =
  rm_rf d;
  try Unix.rmdir work_root with Unix.Unix_error _ -> ()

let fresh_dir name =
  (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d =
    Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* --- machine speed ---------------------------------------------------- *)

(* The speed of the host drifts by up to 30% over minutes and can jump
   by 1.6x: one fault campaign ran at 27 and at 44 per second a few
   minutes apart.  That is beyond any bound a regression could be
   judged by, so every timing is also taken against a fixed reference
   kernel, run right before and right after the work it scales: about
   3 ms of sorting and hashing that allocates nothing, so no collection
   (which would stop every domain) ever times it.  A time [t] measured
   while the kernel took [k] ms is reported as [t *. kernel_ref_ms /. k]:
   milliseconds of a machine on which the kernel takes [kernel_ref_ms].
   The raw figures are printed beside the reported ones. *)
let kernel =
  let keys = Array.make 8192 0 and table = Array.make 16384 0 in
  fun () ->
    let x = ref 12345 in
    Array.iteri
      (fun i _ ->
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        keys.(i) <- !x)
      keys;
    Array.sort Int.compare keys;
    Array.fill table 0 (Array.length table) (-1);
    let mask = Array.length table - 1 in
    Array.iter
      (fun k ->
        let j = ref (k land mask) in
        while table.(!j) >= 0 && table.(!j) <> k do
          j := (!j + 1) land mask
        done;
        table.(!j) <- k)
      keys;
    Array.fold_left (fun acc k -> acc + table.(k land mask)) 0 keys

let kernel_ref_ms = 3.0

(* The median of three kernel timings, in milliseconds. *)
let kernel_ms () =
  let once () =
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    ms_since t0
  in
  let a = [| once (); once (); once () |] in
  Array.sort compare a;
  a.(1)

(* The factor that scales work timed between kernel timings [k0] and
   [k1] to the reference machine. *)
let speed_factor k0 k1 = kernel_ref_ms /. ((k0 +. k1) /. 2.)

(* --- counters -------------------------------------------------------- *)

let counter_snapshot () = Telemetry.counters ()

let counter_delta before after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  get after - get before

(* --- the timed pass loop --------------------------------------------- *)

(* A pass-based workload runs [ops] operations per pass, in a fixed
   order, and repeats whole passes until [seconds] have elapsed.  Whole
   passes keep the latency population an exact multiple of one pass,
   so a percentile never straddles an operation class by accident, and
   make per-pass work counts comparable. *)
type 'r phase = {
  latencies_ms : float array;  (** scaled to the reference machine *)
  raw_latencies_ms : float array;
  elapsed_s : float;  (** raw, inside the passes, hooks and counter reads excluded *)
  pass_ms : float array;  (** scaled *)
  raw_pass_ms : float array;
  factors : float array;  (** per pass, its {!speed_factor} *)
  passes : int;
  first : 'r array;  (** the first pass's results *)
  digests : string array list;
      (** per pass, an MD5 of each result's digest: later passes keep
          only these, so memory does not grow with the passes a run
          has time for and the peak RSS stays comparable *)
  deltas : (string * int) list list;  (** guarded counter deltas per pass *)
}

let run_passes ?(on_pass_start = fun () -> ()) ?(on_pass_end = fun () -> ())
    ?(result_counts = fun _ -> []) ~digest ~seconds ~guarded ~ops (op : pass:int -> int -> 'r) =
  let lat = ref [] and first = ref [||] and digests = ref [] and deltas = ref [] in
  let t0 = now_ns () in
  let busy_ms = ref 0. and pass_ms = ref [] and factors = ref [] in
  let k = ref (kernel_ms ()) in
  let pass = ref 0 in
  while !pass = 0 || ms_since t0 < 1000. *. seconds do
    on_pass_start ();
    let before = counter_snapshot () in
    let p0 = now_ns () in
    let pass_lat = Array.make ops 0. in
    let r =
      Array.init ops (fun i ->
          let s = now_ns () in
          let v = op ~pass:!pass i in
          pass_lat.(i) <- ms_since s;
          v)
    in
    let ms = ms_since p0 in
    busy_ms := !busy_ms +. ms;
    pass_ms := ms :: !pass_ms;
    lat := pass_lat :: !lat;
    let after = counter_snapshot () in
    on_pass_end ();
    let k' = kernel_ms () in
    factors := speed_factor !k k' :: !factors;
    k := k';
    deltas :=
      (List.map (fun n -> (n, counter_delta before after n)) guarded @ result_counts r)
      :: !deltas;
    if !pass = 0 then first := r;
    digests := Array.map (fun v -> Digest.string (digest v)) r :: !digests;
    incr pass
  done;
  let factors = Array.of_list (List.rev !factors) in
  let lat = Array.of_list (List.rev !lat) and raw_pass_ms = Array.of_list (List.rev !pass_ms) in
  {
    latencies_ms =
      Array.concat (Array.to_list (Array.mapi (fun p l -> Array.map (( *. ) factors.(p)) l) lat));
    raw_latencies_ms = Array.concat (Array.to_list lat);
    elapsed_s = !busy_ms /. 1000.;
    pass_ms = Array.mapi (fun p ms -> ms *. factors.(p)) raw_pass_ms;
    raw_pass_ms;
    factors;
    passes = !pass;
    first = !first;
    digests = List.rev !digests;
    deltas = List.rev !deltas;
  }

(* Throughput over the median pass: a burst of load from elsewhere on
   the machine slows a few passes, not the reported figure. *)
let ops_per_s ?(raw = false) p =
  float_of_int (Array.length p.latencies_ms / p.passes)
  /. (median (if raw then p.raw_pass_ms else p.pass_ms) /. 1000.)

(* The determinism guard: every pass performs identical work, so its
   guarded counts must repeat exactly, across phases too. *)
let deltas_repeat phases =
  match List.concat_map (fun p -> p.deltas) phases with
  | [] -> true
  | d :: rest -> List.for_all (( = ) d) rest

let guard_line name p =
  Printf.sprintf "determinism %s: %s per pass (%d passes of %.1f-%.1f ms, %s)" name
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
          (match p.deltas with d :: _ -> d | [] -> [])))
    p.passes
    (Array.fold_left min infinity p.pass_ms)
    (Array.fold_left max 0. p.pass_ms)
    (if deltas_repeat [ p ] then "repeat exactly" else "DIFFER")

(* --- span self time ---------------------------------------------------- *)

(* Total and self time per span name over a collector's events.  A
   span's self time is its duration minus the durations of the spans
   directly nested in it on the same domain. *)
type span_time = { mutable total_ns : float; mutable self_ns : float }

let span_times (events : Trace.event list) =
  let table = Hashtbl.create 64 in
  let stacks = Hashtbl.create 4 in
  let entry name =
    match Hashtbl.find_opt table name with
    | Some e -> e
    | None ->
      let e = { total_ns = 0.; self_ns = 0. } in
      Hashtbl.replace table name e;
      e
  in
  List.iter
    (fun (ev : Trace.event) ->
      let stack =
        match Hashtbl.find_opt stacks ev.domain with
        | Some s -> s
        | None ->
          let s = ref [] in
          Hashtbl.replace stacks ev.domain s;
          s
      in
      match ev.kind with
      | Trace.Begin -> stack := (ev.name, ref 0.) :: !stack
      | Trace.End -> (
        let dur = Int64.to_float ev.dur_ns in
        match !stack with
        | (name, children) :: rest ->
          let e = entry name in
          e.total_ns <- e.total_ns +. dur;
          e.self_ns <- e.self_ns +. dur -. !children;
          stack := rest;
          (match rest with (_, parent) :: _ -> parent := !parent +. dur | [] -> ())
        | [] -> ())
      | Trace.Instant -> ())
    events;
  table

let merge_span_times into from =
  Hashtbl.iter
    (fun name (s : span_time) ->
      match Hashtbl.find_opt into name with
      | Some e ->
        e.total_ns <- e.total_ns +. s.total_ns;
        e.self_ns <- e.self_ns +. s.self_ns
      | None -> Hashtbl.replace into name s)
    from

(* A traced pass loop: each pass records into its own collector, which
   is folded into the returned table and dropped, so memory stays
   bounded by one pass of events. *)
let run_traced_passes ?(on_pass_end = fun () -> ()) ?result_counts ~digest ~seconds ~guarded
    ~ops op =
  let spans = Hashtbl.create 64 in
  let current = ref None in
  let phase =
    run_passes ?result_counts ~digest ~seconds ~guarded ~ops
      ~on_pass_start:(fun () ->
        let c = Trace.collector () in
        current := Some c;
        Trace.set_sinks [ Trace.collector_sink c ])
      ~on_pass_end:(fun () ->
        Trace.set_sinks [];
        Option.iter (fun c -> merge_span_times spans (span_times (Trace.events c))) !current;
        current := None;
        on_pass_end ())
      op
  in
  (phase, spans)

let span_self_ms spans name =
  match Hashtbl.find_opt spans name with Some s -> s.self_ns /. 1e6 | None -> 0.

let span_total_ms spans name =
  match Hashtbl.find_opt spans name with Some s -> s.total_ns /. 1e6 | None -> 0.

(* Median wall time in microseconds of [reps] calls of [f] per item,
   each item timed separately: the replay timing for stages that emit
   no span of their own. *)
let replay_us ?(reps = 3) items f =
  let samples =
    List.concat_map
      (fun x ->
        List.init reps (fun _ ->
            let t0 = now_ns () in
            ignore (Sys.opaque_identity (f x));
            Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e3))
      items
  in
  median (Array.of_list samples)

(* --- the result line ----------------------------------------------- *)

(* [metrics] are (name, unit, value) triples. *)
let result_line ~correct ~attempted ~failed metrics =
  let number v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else if Float.is_finite v then Printf.sprintf "%.17g" v
    else "null"
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit_)
          metrics))

(* --- what a workload reports ----------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;
}

(* Print an informational line (never the last line of the output). *)
let say fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* Run [setup] [n] times, each from scratch, and keep the last state:
   the median of the [n] scaled wall times is the reported set-up time
   (the raw median is printed). *)
let repeated_setup ?(n = 3) ~teardown setup =
  let times = ref [] and raw = ref [] and last = ref None in
  let k = ref (kernel_ms ()) in
  for i = 1 to n do
    Option.iter teardown !last;
    let t0 = now_ns () in
    let s = setup () in
    let secs = ms_since t0 /. 1000. in
    let k' = kernel_ms () in
    let f = speed_factor !k k' in
    k := k';
    say "setup %d/%d: %.3f s (raw %.3f s)" i n (secs *. f) secs;
    times := (secs *. f) :: !times;
    raw := secs :: !raw;
    last := Some s
  done;
  (Option.get !last, median (Array.of_list !times), median (Array.of_list !raw))

(* The raw counterparts of the scaled time metrics, for people. *)
let raw_line name ~setup_s ~ops_per_s ~lat ~factors =
  say
    "%s raw: setup_s %.4f, ops_per_s %.4f, latency_p50_ms %.4f, latency_p90_ms %.4f; \
     speed factor %.3f (%.3f-%.3f)"
    name setup_s ops_per_s (percentile 0.5 lat) (percentile 0.9 lat) (median factors)
    (Array.fold_left min infinity factors) (Array.fold_left max 0. factors)

(* --- pass-based workloads -------------------------------------------- *)

(* Failed operations over all phases: an operation fails when its
   first-pass result is not [valid] (an output check against an
   oracle) or when any pass's digest differs from the first pass's. *)
let failed_against_first phases ~valid =
  let p0 = List.hd phases in
  let ok = Array.mapi valid p0.first in
  let expected = List.hd p0.digests in
  List.fold_left
    (fun failed p ->
      List.fold_left
        (fun failed ds ->
          let bad = ref 0 in
          Array.iteri (fun k d -> if (not ok.(k)) || d <> expected.(k) then incr bad) ds;
          failed + !bad)
        failed p.digests)
    0 phases

type ('st, 'r) pass_workload = {
  name : string;
  setup : seed:int -> 'st;  (** writes the inputs and warms up *)
  teardown : 'st -> unit;
  ops : 'st -> int;  (** operations per pass *)
  op : 'st -> pass:int -> int -> 'r;
  digest : 'r -> string;  (** what later passes must repeat *)
  guarded : string list;  (** telemetry counters that must repeat per pass *)
  result_counts : 'r array -> (string * int) list;
      (** counts read off a pass's results, guarded the same way *)
  on_pass_end : unit -> unit;
  valid : 'st -> int -> 'r -> bool;
      (** the output check of operation [k]'s first-pass result *)
  quality : 'st -> 'r phase -> float;  (** reliability_geomean *)
  summary : 'st -> 'r phase -> string;
  layers :
    'st -> 'r phase -> (string, span_time) Hashtbl.t -> per_op:(string -> float) ->
    (string * float) list;
      (** per-layer metrics of a traced phase; [per_op] is a telemetry
          counter's delta over the phase per operation *)
}

(* Set up (three times), time whole passes for [seconds], read the
   peak RSS, and check every output afterwards.  With [trace] the
   seconds are split between an untraced and a traced phase: the
   per-layer numbers come from the traced one, and the ratio of the
   two throughputs is the tracing overhead. *)
let run_pass_workload w ~seed ~seconds ~trace =
  let st, setup_s, raw_setup_s = repeated_setup ~teardown:w.teardown (fun () -> w.setup ~seed) in
  let ops = w.ops st in
  let seconds = if trace then seconds /. 2. else seconds in
  let phase =
    run_passes ~on_pass_end:w.on_pass_end ~result_counts:w.result_counts ~digest:w.digest ~seconds
      ~guarded:w.guarded ~ops (w.op st)
  in
  let rss = peak_rss_mb () in
  say "%s" (guard_line w.name phase);
  raw_line w.name ~setup_s:raw_setup_s ~ops_per_s:(ops_per_s ~raw:true phase)
    ~lat:phase.raw_latencies_ms ~factors:phase.factors;
  let traced =
    if trace then begin
      let before = counter_snapshot () in
      let tp, spans =
        run_traced_passes ~on_pass_end:w.on_pass_end ~result_counts:w.result_counts
          ~digest:w.digest ~seconds ~guarded:w.guarded ~ops (w.op st)
      in
      let after = counter_snapshot () in
      say "%s" (guard_line (w.name ^ " (traced)") tp);
      Some (tp, spans, before, after)
    end
    else None
  in
  let phases = phase :: Option.fold ~none:[] ~some:(fun (tp, _, _, _) -> [ tp ]) traced in
  let failed = failed_against_first phases ~valid:(w.valid st) in
  let attempted = List.fold_left (fun a p -> a + Array.length p.latencies_ms) 0 phases in
  say "%s" (w.summary st phase);
  say "%s: %d ops per pass, %d timed ops in %d passes, %d attempted, %d failed" w.name ops
    (Array.length phase.latencies_ms) phase.passes attempted failed;
  let per_layer =
    match traced with
    | None -> []
    | Some (tp, spans, before, after) ->
      let n = float_of_int (Array.length tp.latencies_ms) in
      ("ops", n)
      :: ("trace.overhead_ratio", ops_per_s phase /. ops_per_s tp)
      :: w.layers st tp spans ~per_op:(fun c ->
             float_of_int (counter_delta before after c) /. n)
  in
  let quality = w.quality st phase in
  w.teardown st;
  {
    correct = failed = 0 && deltas_repeat phases;
    attempted;
    failed;
    end_to_end =
      [
        ("setup_s", setup_s);
        ("ops_per_s", ops_per_s phase);
        ("latency_p50_ms", percentile 0.5 phase.latencies_ms);
        ("latency_p90_ms", percentile 0.9 phase.latencies_ms);
        ("peak_rss_mb", rss);
        ("reliability_geomean", quality);
      ];
    per_layer;
  }


