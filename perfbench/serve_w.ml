(* serve_mixed: the served path, where the cost is in decode,
   resolve/fingerprint, the cache tiers and encode rather than in
   synthesis.  The daemon runs in this process with the disk tier and
   the access log on and one pool domain.  The load generator is a
   closed loop on one connection with one request in flight, on the
   main thread: it sleeps in [recv] while the daemon works, so the two
   never compete for the core.  (With a single pool domain the daemon
   computes a miss on its scheduler thread, which shares the domain's
   runtime lock with the connection's reader thread: a second request
   in flight would time that lock hand-off, not the served path.  A
   generator in a second domain was noisier: every minor collection
   stops both domains.)

   Every block of twenty requests holds, in a seeded order, sixteen
   memory-tier hits, one disk-tier hit and three misses that write both
   tiers.  No key repeats except memory hits, so every request's tier is
   a function of the seed; the median falls inside the memory hits, the
   90th and 99th percentiles inside the misses. *)

open Harness
module Req = Rchls_api.Request
module Resp = Rchls_api.Response
module Json = Rchls_util.Json
module Diskcache = Rchls_util.Diskcache
module Service = Rchls_experiments.Service
module Explore = Rchls_experiments.Explore
module Library = Rchls_charlib.Library
module Benchmarks = Rchls_dfg.Benchmarks
module Parse = Rchls_dfg.Parse
module Server = Rchls_serve.Server
module Client = Rchls_serve.Client

type cls = Memory | Disk | Miss

let block = [ (Memory, 16); (Disk, 1); (Miss, 3) ]
let block_size = List.fold_left (fun a (_, n) -> a + n) 0 block
let per_block c = List.assoc c block

(* memory-tier working set *)
let working_set = 200

(* blocks per throughput sample and per reference-kernel timing *)
let group_blocks = 100

(* A timed phase is a fixed number of groups of blocks, the number a
   2-vCPU Intel Xeon container serves in the phase's seconds (a group
   takes 0.75-0.85 s there, scaled).  A phase bounded by time instead
   would reach further into the stream on a faster run, and the
   daemon's engine caches make later misses cheaper as they fill: its
   latencies would depend on its own speed. *)
let groups_per_second = 1.2

let phase_blocks ~seconds =
  group_blocks * max 1 (int_of_float (Float.round (seconds *. groups_per_second)))

(* The peak RSS is read once this many blocks of a phase have run: the
   daemon's tiers and engine caches grow with every miss, so a reading
   at the end of the phase would grow with the requests a faster
   program has time for. *)
let rss_blocks = 250

let ld_span = 8
let ad_span = 64

type graph = { source : Req.source; ld0 : int; ad0 : int }

(* Eight generated graphs of [lo]-[hi] nodes, sent inline, and with
   [named] the built-in benchmarks too; the bound grid of each starts at
   its planned plane's tightest corner. *)
let graphs ~dir ~seed ~lo ~hi ~named =
  Unix.mkdir dir 0o755;
  let _, generated = Inputs.corpus ~dir ~seed ~count:8 ~lo ~hi in
  let lib = Library.table1 in
  let plan source g =
    let lds, ads = Explore.plan g lib in
    { source; ld0 = List.hd lds; ad0 = List.hd ads }
  in
  List.map (fun (g : Inputs.graph) -> plan (Req.Inline g.text) (Parse.of_text_exn g.text)) generated
  @ if named then List.map (fun (name, g) -> plan (Req.Named name) g) Benchmarks.all else []

let synth g ~strategy ld ad =
  { Req.graph = g.source; library = Req.Lib_default; ld; ad; strategy; scheduler = Req.Density }

let shuffled rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let grid graphs f =
  List.concat_map
    (fun g ->
      List.concat
        (List.init ld_span (fun i ->
             List.concat (List.init ad_span (fun j -> f g (g.ld0 + i) (g.ad0 + j))))))
    graphs

(* The main pool (synth, check and explore jobs over graphs of 24-48
   nodes and the named benchmarks) feeds the working set and the misses.
   A miss then costs about a millisecond of synthesis, which the
   reference kernel scales, against a few hundred microseconds of file
   system work (the disk-tier write), which it does not: with lighter
   misses that file system work set the 90th percentile, and it doubled
   from one minute to the next.  The disk supply is computed during
   set-up only, so it uses cheap Figure-6 synth jobs over graphs of
   6-12 nodes; its keys never meet the main pool's. *)
let pools rng ~dir ~seed =
  let main_graphs = graphs ~dir:(Filename.concat dir "main") ~seed ~lo:24 ~hi:48 ~named:true in
  let disk_graphs = graphs ~dir:(Filename.concat dir "disk") ~seed ~lo:6 ~hi:12 ~named:false in
  let main =
    grid main_graphs (fun g ld ad ->
        [
          Req.Synth (synth g ~strategy:Req.Best ld ad);
          Req.Check (synth g ~strategy:Req.Best ld ad);
          Req.Explore
            {
              Req.graph = g.source;
              library = Req.Lib_default;
              lds = [ ld; ld + 2; ld + 4 ];
              ads = List.init 8 (fun i -> ad + (4 * i));
              approach = Req.Ours;
              scheduler = Req.Density;
            };
        ])
  in
  let disk =
    grid disk_graphs (fun g ld ad -> [ Req.Synth (synth g ~strategy:Req.Figure6 ld ad) ])
  in
  (shuffled rng (Array.of_list main), shuffled rng (Array.of_list disk))

type sample = {
  cls : cls;
  job : Req.job;
  line : string;
  latency_ns : float;  (** raw *)
  factor : float;  (** the {!Harness.speed_factor} of its group of blocks *)
}

type state = {
  dir : string;
  server : Server.t;
  client : Client.t;
      (** the one connection to [server], open until [server] stops:
          both ends close a socket through two channels on one
          descriptor, so a connection closed while another thread opens
          a file can take that file's descriptor with it *)
  stream : (cls * Req.job) array;  (** every block that can run, in order *)
  mutable next : int;  (** requests of [stream] already sent *)
  working : (Req.job * string) list;  (** the working set and its responses *)
}

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Send requests one at a time and collect the raw response lines. *)
let replay client jobs =
  List.map
    (fun job ->
      ok "send" (Client.send client { Req.id = None; job });
      ok "recv" (Client.recv_raw client))
    jobs

let teardown st =
  Server.stop st.server;
  Client.close st.client;
  remove_dir st.dir

(* A phase: the next [blocks] blocks of the stream.  The reference
   kernel runs between groups of blocks, whose times and latencies it
   scales.  Response lines go to a file and latencies to a
   preallocated array, so the phase's memory does not grow with the
   requests it has time for; the peak RSS is read before they are
   loaded back for the checks. *)
let drive st ~blocks =
  let stream = st.stream and start = st.next in
  let group = group_blocks * block_size in
  let stop = start + (blocks * block_size) in
  if stop > Array.length stream then invalid_arg "Serve_w.drive: stream exhausted";
  let latency = Float.Array.make (stop - start) 0. in
  let path = Filename.concat st.dir (Printf.sprintf "responses-%d" start) in
  let generator () =
    let client = st.client in
    let oc = open_out_bin path in
    let groups = ref [] and kernels = ref [ kernel_ms () ] and rss = ref None in
    let t0 = now_ns () in
    let g0 = ref t0 in
    let pos = ref start in
    while !pos < stop do
      for i = !pos to !pos + block_size - 1 do
        let line = Req.to_string { Req.id = Some (string_of_int i); job = snd stream.(i) } in
        let s = now_ns () in
        ok "send" (Client.send_raw client line);
        let resp = ok "recv" (Client.recv_raw client) in
        Float.Array.set latency (i - start) (Int64.to_float (Int64.sub (now_ns ()) s));
        output_string oc resp;
        output_char oc '\n'
      done;
      pos := !pos + block_size;
      if !pos - start = rss_blocks * block_size then rss := Some (peak_rss_mb ());
      if (!pos - start) mod group = 0 then begin
        groups := ms_since !g0 :: !groups;
        kernels := kernel_ms () :: !kernels;
        g0 := now_ns ()
      end
    done;
    if (!pos - start) mod group <> 0 then kernels := kernel_ms () :: !kernels;
    let elapsed = ms_since t0 /. 1000. in
    close_out oc;
    let rss = match !rss with Some r -> r | None -> peak_rss_mb () in
    (elapsed, Array.of_list (List.rev !groups), Array.of_list (List.rev !kernels), !pos, rss)
  in
  let elapsed, groups, kernels, pos, rss = generator () in
  st.next <- pos;
  let factors =
    Array.init (Array.length kernels - 1) (fun g -> speed_factor kernels.(g) kernels.(g + 1))
  in
  let samples =
    In_channel.with_open_bin path (fun ic ->
        Array.init (pos - start) (fun j ->
            let cls, job = stream.(start + j) in
            let line = Option.get (In_channel.input_line ic) in
            let latency_ns = Float.Array.get latency j in
            { cls; job; line; latency_ns; factor = factors.(j / group) }))
  in
  Sys.remove path;
  (* throughput over the median group of blocks, as for the pass-based
     workloads; a phase too short for a group falls back to its mean *)
  let ops_per_s ~raw =
    if groups = [||] then float_of_int (Array.length samples) /. elapsed
    else
      float_of_int group
      /. (median (Array.mapi (fun g ms -> if raw then ms else ms *. factors.(g)) groups) /. 1000.)
  in
  (samples, ops_per_s ~raw:false, ops_per_s ~raw:true, rss, factors)

(* [blocks] is the number of blocks the phases will run, besides the
   warm-up block. *)
let setup ~seed ~blocks =
  let dir = fresh_dir "serve" in
  let rng = Rng.create seed in
  let main, disk = pools rng ~dir ~seed in
  let w = Array.sub main 0 working_set in
  let misses = Array.sub main working_set (Array.length main - working_set) in
  let blocks = blocks + 1 in
  if blocks * per_block Miss > Array.length misses || blocks > Array.length disk then
    invalid_arg "Serve_w.setup: too few jobs for the phase";
  let slots = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) block) in
  let stream =
    Array.concat
      (List.init blocks (fun b ->
           let next_miss = ref (b * per_block Miss) in
           Array.map
             (fun c ->
               match c with
               | Memory -> (c, w.(Rng.int rng working_set))
               | Disk -> (c, disk.(b))
               | Miss ->
                 incr next_miss;
                 (c, misses.(!next_miss - 1)))
             (shuffled rng slots)))
  in
  let socket = Filename.concat dir "rchls.sock" in
  let config =
    {
      (Server.default_config (Server.Unix_socket socket)) with
      Server.cache_dir = Some (Filename.concat dir "cache");
      cache_entries = 1 lsl 20;
      domains = Some 1;
      queue_max = 1024;
      access_log = Some (Filename.concat dir "access.log", 1 lsl 26);
    }
  in
  (* the first daemon computes the working set and the disk supply ... *)
  let first = ok "start" (Server.start config) in
  let client = ok "connect" (Client.connect_unix socket) in
  ignore (replay client (Array.to_list w @ Array.to_list (Array.sub disk 0 blocks)));
  Server.stop first;
  Client.close client;
  (* ... and the second, restarted onto the same cache directory, pulls
     the working set into its memory tier; one block warms it up *)
  let server = ok "restart" (Server.start config) in
  let client = ok "connect" (Client.connect_unix socket) in
  let working = replay client (Array.to_list w) in
  let working = List.combine (Array.to_list w) working in
  let st = { dir; server; client; stream; next = 0; working } in
  ignore (drive st ~blocks:1);
  st

let lat_ms ?(raw = false) samples =
  Array.map (fun s -> s.latency_ns *. (if raw then 1. else s.factor) /. 1e6) samples
let of_cls c samples = Array.of_list (List.filter (fun s -> s.cls = c) (Array.to_list samples))

(* The serve-only latency metrics (per-layer; NOTES.md says why). *)
let class_latencies samples =
  let lat c = lat_ms (of_cls c samples) in
  [
    ("serve.latency_p99_ms", percentile 0.99 (lat_ms samples));
    ("serve.hit_latency_p50_ms", median (Array.append (lat Memory) (lat Disk)));
    ("serve.miss_latency_p50_ms", median (lat Miss));
  ]

(* The output check: every response decodes, is served by the tier its
   class names, and carries the payload the in-process executor
   computes for the same job, byte for byte.  Returns the failed count
   and the decoded responses. *)
let check samples =
  let expected = Hashtbl.create 1024 in
  let service = Service.create () in
  let payload job =
    match Hashtbl.find_opt expected job with
    | Some p -> p
    | None ->
      let p =
        match Service.run_job ~service ~domains:1 job with
        | Ok p -> Some (Json.to_string (Resp.payload_to_json p))
        | Error _ -> None
      in
      Hashtbl.replace expected job p;
      p
  in
  let failed = ref 0 in
  let decoded =
    Array.map
      (fun s ->
        match Resp.of_string s.line with
        | Error _ ->
          incr failed;
          None
        | Ok r ->
          let tier_ok =
            match (s.cls, r.cache) with
            | Memory, Some { tier = Resp.Memory; _ }
            | Disk, Some { tier = Resp.Disk; _ }
            | Miss, None ->
              true
            | _ -> false
          in
          let payload_ok =
            match r.result with
            | Ok p -> payload s.job = Some (Json.to_string (Resp.payload_to_json p))
            | Error _ -> false
          in
          if not (tier_ok && payload_ok) then incr failed;
          Some r)
      samples
  in
  (!failed, decoded)

let reliabilities (r : Resp.t option) =
  let design = function Ok (d : Resp.design_summary) -> [ d.reliability ] | Error _ -> [] in
  match r with
  | Some { result = Ok (Resp.Design d); _ } -> design d
  | Some { result = Ok (Resp.Check_report c); _ } -> design c.result
  | Some { result = Ok (Resp.Explore_frontier f); _ } ->
    List.map (fun (p : Resp.frontier_point) -> p.f_reliability) f.points
  | _ -> []

let p50_us xs = median (Array.of_list xs) /. 1e3

let layers st samples decoded spans ~before ~after =
  let n = float_of_int (Array.length samples) in
  let blocks = n /. float_of_int block_size in
  let per_block c = float_of_int (counter_delta before after c) /. blocks in
  let per_request c = float_of_int (counter_delta before after c) /. n in
  let miss_timings =
    List.concat
      (List.mapi
         (fun i s ->
           match (s.cls, decoded.(i)) with
           | Miss, Some { Resp.timing = Some t; _ } -> [ t ]
           | _ -> [])
         (Array.to_list samples))
  in
  let miss_p50_us field = p50_us (List.map (fun t -> float_of_int (field t)) miss_timings) in
  let transport =
    List.concat
      (List.mapi
         (fun i s ->
           match decoded.(i) with
           | Some { Resp.timing = Some t; _ } -> [ s.latency_ns -. float_of_int t.total_ns ]
           | _ -> [])
         (Array.to_list samples))
  in
  let first = Array.to_list (Array.sub samples 0 (min 200 (Array.length samples))) in
  let lines = List.map (fun s -> Req.to_string { Req.id = Some "r"; job = s.job }) first in
  let responses =
    List.filter_map Fun.id (Array.to_list (Array.sub decoded 0 (List.length first)))
  in
  let store =
    ok "diskcache" (Diskcache.open_dir ~max_entries:(1 lsl 20) (Filename.concat st.dir "replay"))
  in
  let entries =
    List.filter_map
      (fun (r : Resp.t) ->
        match r.result with
        | Ok p -> Some (Json.to_string (Resp.payload_to_json p))
        | Error _ -> None)
      responses
    |> List.mapi (fun i v -> (Int64.of_int (i + 1), v))
  in
  let mem = per_block "serve.hits.memory" and disk = per_block "serve.hits.disk" in
  [
    ("serve.hits.memory", mem);
    ("serve.hits.disk", disk);
    ("serve.misses", per_block "serve.misses");
    ("serve.hit_ratio", (mem +. disk) /. float_of_int block_size);
    ("serve.batches", per_block "serve.batches");
    ("serve.queue_us_p50", miss_p50_us (fun t -> t.Resp.queue_ns));
    ("serve.exec_ms_p50", miss_p50_us (fun t -> t.Resp.exec_ns) /. 1e3);
    ("serve.transport_us_p50", p50_us transport);
    ("serve.response_bytes", per_block "serve.response_bytes" /. float_of_int block_size);
    ("access_log.records", per_block "serve.access_log.records");
    ("api.decode_us", replay_us lines Req.of_string);
    ("service.cache_key_us", replay_us first (fun s -> Service.cache_key s.job));
    ("api.encode_us", replay_us responses Resp.to_string);
    ("diskcache.add_us", replay_us ~reps:1 entries (fun (k, v) -> Diskcache.add store k v));
    ("diskcache.find_us", replay_us entries (fun (k, _) -> Diskcache.find store k));
    ("engine.runs", per_request "engine.runs");
    ("redundancy.runs", per_request "redundancy.runs");
    ("sched.runs", per_request "sched.runs");
    ("bind.runs", per_request "bind.runs");
  ]
  @ Explore_w.self_times spans ~ops:n

let run ~seed ~seconds ~trace =
  let blocks = phase_blocks ~seconds:(if trace then seconds /. 2. else seconds) in
  let st, setup_s, raw_setup_s =
    repeated_setup ~teardown (fun () -> setup ~seed ~blocks:(if trace then 2 * blocks else blocks))
  in
  let before = counter_snapshot () in
  let samples, ops_per_s, raw_ops_per_s, rss, factors = drive st ~blocks in
  let after = counter_snapshot () in
  let traced =
    if trace then begin
      let c = Trace.collector () in
      let tb = counter_snapshot () in
      Trace.set_sinks [ Trace.collector_sink c ];
      let ts, tops, _, _, _ = drive st ~blocks in
      Trace.set_sinks [];
      let ta = counter_snapshot () in
      Some (ts, tops, span_times (Trace.events c), tb, ta)
    end
    else None
  in
  (* the determinism guard: each phase's tier counters are exactly its
     blocks times the block's shares *)
  let guard name samples before after =
    let blocks = Array.length samples / block_size in
    let counts =
      [
        ("serve.hits.memory", per_block Memory);
        ("serve.hits.disk", per_block Disk);
        ("serve.misses", per_block Miss);
      ]
    in
    let ok = List.for_all (fun (c, k) -> counter_delta before after c = blocks * k) counts in
    say "determinism %s: %s per block (%d blocks, %s)" name
      (String.concat ", " (List.map (fun (c, k) -> Printf.sprintf "%s=%d" c k) counts))
      blocks
      (if ok then "repeat exactly" else "DIFFER");
    ok
  in
  let guarded = guard "serve_mixed" samples before after in
  let traced_guarded =
    Option.fold ~none:true
      ~some:(fun (ts, _, _, tb, ta) -> guard "serve_mixed (traced)" ts tb ta)
      traced
  in
  (* the working set's responses, read from the disk tier right after
     the restart, are checked too: they carry the reported quality *)
  let working =
    Array.of_list
      (List.map
         (fun (job, line) -> { cls = Disk; job; line; latency_ns = 0.; factor = 1. })
         st.working)
  in
  let traced_samples = Option.fold ~none:[||] ~some:(fun (ts, _, _, _, _) -> ts) traced in
  let all = Array.concat [ working; samples; traced_samples ] in
  let failed, decoded = check all in
  let decoded_from offset n = Array.sub decoded offset n in
  let share c = float_of_int (per_block c) /. float_of_int block_size in
  let lat = lat_ms samples in
  say
    "serve_mixed: tiers memory %.0f%%, disk %.0f%%, miss %.0f%%; p50 %.4f ms (memory hits %.4f ms)"
    (100. *. share Memory) (100. *. share Disk) (100. *. share Miss) (percentile 0.5 lat)
    (median (lat_ms (of_cls Memory samples)));
  say "serve_mixed: ops %d, %s" (Array.length samples)
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf "%s %.4f" n v) (class_latencies samples)));
  raw_line "serve_mixed" ~setup_s:raw_setup_s ~ops_per_s:raw_ops_per_s
    ~lat:(lat_ms ~raw:true samples)
    ~factors;
  say "serve_mixed: %d attempted, %d failed" (Array.length all) failed;
  let per_layer =
    match traced with
    | None -> []
    | Some (ts, tops, spans, tb, ta) ->
      ("ops", float_of_int (Array.length ts))
      :: ("trace.overhead_ratio", ops_per_s /. tops)
      :: class_latencies samples
      @ layers st ts
          (decoded_from (Array.length working + Array.length samples) (Array.length ts))
          spans ~before:tb ~after:ta
  in
  let quality =
    geomean (List.concat_map reliabilities (Array.to_list (decoded_from 0 (Array.length working))))
  in
  teardown st;
  {
    correct = failed = 0 && guarded && traced_guarded;
    attempted = Array.length all;
    failed;
    end_to_end =
      [
        ("setup_s", setup_s);
        ("ops_per_s", ops_per_s);
        ("latency_p50_ms", percentile 0.5 lat);
        ("latency_p90_ms", percentile 0.9 lat);
        ("peak_rss_mb", rss);
        ("reliability_geomean", quality);
      ];
    per_layer;
  }
