(* Process-global registry of four metric families: counters,
   cumulative histograms, gauges and rolling windows.  Hashtables are
   only mutated under [registry_lock] (cell creation is rare, bumps are
   hot); recording never takes a lock.  Counter cells are sharded
   arrays of Atomic ints so domains bump them without contending on one
   cache line; reads aggregate across the shards, which is exact once
   the writing domains have been joined. *)

let now_ns () = Monotonic_clock.now ()

let start_ns = now_ns ()

let uptime_ns () = Int64.sub (now_ns ()) start_ns

(* --- sharded cells (counters) ---------------------------------------- *)

(* Power of two so the shard pick is one mask of the domain id.  8
   shards already separates the handful of worker domains the pool
   spawns at a time. *)
let shards = 8

type cell = int Atomic.t array

(* Atomics allocated back to back share cache lines; interleaving a
   dead 7-word block between them spaces the mutable words ~64 bytes
   apart (best effort — the GC may compact, but allocation order is
   usually preserved). *)
let make_cell () : cell =
  Array.init shards (fun _ ->
      let a = Atomic.make 0 in
      ignore (Sys.opaque_identity (Array.make 7 0));
      a)

let shard_of_domain () = (Domain.self () :> int) land (shards - 1)

let cell_add (c : cell) n = ignore (Atomic.fetch_and_add c.(shard_of_domain ()) n)

let cell_value (c : cell) = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c

let cell_reset (c : cell) = Array.iter (fun a -> Atomic.set a 0) c

(* --- the log2 histogram core --------------------------------------- *)

(* Bucket [i] counts observations in [2^i, 2^(i+1)) ns (bucket 0 holds
   everything below 2 ns).  Both the cumulative histograms and every
   slice of a rolling window are one [core].  Count and sum are plain
   atomics: each observation already bumps a shared bucket, so sharding
   them would remove no shared write. *)
let hist_buckets = 63

type hist = {
  count : int;
  sum_ns : int64;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : int64;
}

type core = {
  buckets : int Atomic.t array;
  total : int Atomic.t;
  sum : int Atomic.t;
  max : int Atomic.t;
}

let make_core () =
  {
    buckets = Array.init hist_buckets (fun _ -> Atomic.make 0);
    total = Atomic.make 0;
    sum = Atomic.make 0;
    max = Atomic.make 0;
  }

let clear_core c =
  Array.iter (fun a -> Atomic.set a 0) c.buckets;
  Atomic.set c.total 0;
  Atomic.set c.sum 0;
  Atomic.set c.max 0

let bucket_of ns =
  if ns <= 1 then 0
  else begin
    let i = ref 0 and v = ref ns in
    while !v > 1 do
      incr i;
      v := !v lsr 1
    done;
    min !i (hist_buckets - 1)
  end

(* Monotone max via CAS retry. *)
let rec bump_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then bump_max a v

let observe_core c ns =
  (* Clamp into native-int range before converting: [Int64.to_int]
     wraps 2^63-1 to -1 on 63-bit ints, turning the largest duration
     into the smallest. *)
  let v =
    if Int64.compare ns 0L < 0 then 0
    else if Int64.compare ns (Int64.of_int max_int) > 0 then max_int
    else Int64.to_int ns
  in
  ignore (Atomic.fetch_and_add c.buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add c.total 1);
  ignore (Atomic.fetch_and_add c.sum v);
  bump_max c.max v

let merge_into acc c =
  Array.iteri (fun i b -> ignore (Atomic.fetch_and_add acc.buckets.(i) (Atomic.get b))) c.buckets;
  ignore (Atomic.fetch_and_add acc.total (Atomic.get c.total));
  ignore (Atomic.fetch_and_add acc.sum (Atomic.get c.sum));
  bump_max acc.max (Atomic.get c.max)

(* Quantile estimate: find the bucket where the cumulative count
   crosses [q * total] and interpolate linearly inside its
   [2^i, 2^(i+1)) range. *)
let quantile c q =
  let total = Atomic.get c.total in
  if total = 0 then 0.
  else begin
    let rank = q *. float_of_int total in
    let acc = ref 0. and result = ref None in
    (try
       for i = 0 to hist_buckets - 1 do
         let n = float_of_int (Atomic.get c.buckets.(i)) in
         if n > 0. then begin
           let next = !acc +. n in
           if next >= rank then begin
             let lo = if i = 0 then 0. else float_of_int (1 lsl i) in
             let hi = float_of_int (1 lsl (i + 1)) in
             result := Some (lo +. ((hi -. lo) *. ((rank -. !acc) /. n)));
             raise Exit
           end;
           acc := next
         end
       done
     with Exit -> ());
    (* The in-bucket interpolation can overshoot the bucket's actual
       occupants; the exact max is a tighter bound. *)
    let cap = float_of_int (Atomic.get c.max) in
    match !result with Some v -> Float.min v cap | None -> cap
  end

let hist_of_core c =
  {
    count = Atomic.get c.total;
    sum_ns = Int64.of_int (Atomic.get c.sum);
    p50_ns = quantile c 0.5;
    p90_ns = quantile c 0.9;
    p99_ns = quantile c 0.99;
    max_ns = Int64.of_int (Atomic.get c.max);
  }

let hist_to_json ?window_ns h =
  Json.Obj
    ([
       ("count", Json.Int h.count);
       ("sum_ns", Json.Int (Int64.to_int h.sum_ns));
       ("p50_ns", Json.Float h.p50_ns);
       ("p90_ns", Json.Float h.p90_ns);
       ("p99_ns", Json.Float h.p99_ns);
       ("max_ns", Json.Int (Int64.to_int h.max_ns));
     ]
    @ match window_ns with None -> [] | Some w -> [ ("window_ns", Json.Int (Int64.to_int w)) ])

(* --- rolling windows ----------------------------------------------- *)

module Rolling = struct
  (* One slice of the window.  [epoch] is the absolute slice index
     (now / slice_ns) whose observations the slice currently holds;
     a slice is reused for epoch e+n, e+2n, ... and lazily zeroed the
     first time a writer touches it in its new epoch.  [min_int] marks
     "never written". *)
  type slice = { epoch : int Atomic.t; core : core; lock : Mutex.t }

  type t = { slice_ns : int64; window_ns : int64; slices : slice array }

  let default_window_ns = 60_000_000_000L

  let create ?(window_ns = default_window_ns) ?(slices = 12) () =
    let slices = max 2 slices in
    if Int64.compare window_ns (Int64.of_int slices) < 0 then
      invalid_arg "Telemetry.Rolling.create: window shorter than one ns per slice";
    {
      slice_ns = Int64.div window_ns (Int64.of_int slices);
      window_ns;
      slices =
        Array.init slices (fun _ ->
            { epoch = Atomic.make min_int; core = make_core (); lock = Mutex.create () });
    }

  let window_ns t = t.window_ns

  let epoch_of t now =
    Int64.to_int (Int64.div (if Int64.compare now 0L < 0 then 0L else now) t.slice_ns)

  (* Rotate [s] forward to [idx] if it still holds an older epoch.
     Under the mutex so concurrent rotators reset at most once; the
     double-check makes late arrivals a no-op. *)
  let rotate_to s idx =
    if Atomic.get s.epoch <> idx then begin
      Mutex.lock s.lock;
      if Atomic.get s.epoch < idx then begin
        clear_core s.core;
        Atomic.set s.epoch idx
      end;
      Mutex.unlock s.lock
    end

  let observe ?(now_ns = now_ns ()) t v =
    let idx = epoch_of t now_ns in
    let s = t.slices.(idx mod Array.length t.slices) in
    rotate_to s idx;
    (* If another writer already rotated the slot past [idx] this
       observation fell out of the window between the clock read and
       here; dropping it is the correct accounting. *)
    if Atomic.get s.epoch = idx then observe_core s.core v

  let stat ?(now_ns = now_ns ()) t =
    let idx = epoch_of t now_ns in
    let min_epoch = idx - Array.length t.slices + 1 in
    let merged = make_core () in
    (* Concurrent writers may land between these reads; the slices stay
       internally consistent enough for a snapshot (counts never
       decrease within an epoch). *)
    Array.iter
      (fun s ->
        let e = Atomic.get s.epoch in
        if e >= min_epoch && e <= idx then merge_into merged s.core)
      t.slices;
    hist_of_core merged

  let clear t =
    Array.iter
      (fun s ->
        Mutex.lock s.lock;
        clear_core s.core;
        Atomic.set s.epoch min_int;
        Mutex.unlock s.lock)
      t.slices
end

(* --- the registry -------------------------------------------------- *)

let registry_lock = Mutex.create ()
let counters_tbl : (string, cell) Hashtbl.t = Hashtbl.create 32
let hists_tbl : (string, core) Hashtbl.t = Hashtbl.create 16

(* Gauges are read as often as they are written (queue depth moves on
   every enqueue/dequeue) and never aggregated, so a single Atomic per
   gauge beats a sharded cell: [set] must be a plain store, and
   sharding would make it a read-modify-write over 8 slots. *)
let gauges_tbl : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16
let windows_tbl : (string, Rolling.t) Hashtbl.t = Hashtbl.create 16

let find_or_create tbl make name =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
    Mutex.lock registry_lock;
    let c =
      match Hashtbl.find_opt tbl name with
      | Some c -> c
      | None ->
        let c = make () in
        Hashtbl.add tbl name c;
        c
    in
    Mutex.unlock registry_lock;
    c

let sorted tbl value =
  Mutex.lock registry_lock;
  let xs = Hashtbl.fold (fun name c acc -> (name, value c) :: acc) tbl [] in
  Mutex.unlock registry_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) xs

let read tbl value ~default name =
  match Hashtbl.find_opt tbl name with None -> default | Some c -> value c

(* Per-shard [Atomic.fetch_and_add]s have no observable intermediate
   states we rely on; sums are exact after domains join. *)
let add name n = cell_add (find_or_create counters_tbl make_cell name) n

let incr name = add name 1

let counter = read counters_tbl cell_value ~default:0

let counters () = sorted counters_tbl cell_value

let observe name ns = observe_core (find_or_create hists_tbl make_core name) ns

let histogram =
  read hists_tbl ~default:None (fun c ->
      if Atomic.get c.total = 0 then None else Some (hist_of_core c))

let histograms () = List.filter (fun (_, h) -> h.count > 0) (sorted hists_tbl hist_of_core)

let gauge_cell = find_or_create gauges_tbl (fun () -> Atomic.make 0)

let gauge_set name v = Atomic.set (gauge_cell name) v

let gauge_add name d = ignore (Atomic.fetch_and_add (gauge_cell name) d)

let gauge = read gauges_tbl Atomic.get ~default:0

let gauges () = sorted gauges_tbl Atomic.get

let window = find_or_create windows_tbl (fun () -> Rolling.create ())

let observe_window name ns = Rolling.observe (window name) ns

let windows () = sorted windows_tbl (fun w -> Rolling.stat w)

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter (fun _ c -> cell_reset c) counters_tbl;
  Hashtbl.iter (fun _ c -> clear_core c) hists_tbl;
  Hashtbl.iter (fun _ g -> Atomic.set g 0) gauges_tbl;
  Hashtbl.iter (fun _ w -> Rolling.clear w) windows_tbl;
  Mutex.unlock registry_lock

(* --- snapshot and exposition --------------------------------------- *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  windows : (string * hist) list;
  window_ns : int64;
}

let snapshot () =
  {
    counters = counters ();
    gauges = gauges ();
    windows = windows ();
    window_ns = Rolling.default_window_ns;
  }

let prometheus_name name =
  let b = Buffer.create (String.length name + 6) in
  Buffer.add_string b "rchls_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let seconds_of_ns ns = Int64.to_float ns /. 1e9

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let to_prometheus snap =
  let b = Buffer.create 2048 in
  let series name typ rows =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    List.iter
      (fun (labels, v) ->
        Buffer.add_string b (Printf.sprintf "%s%s %s\n" name labels v))
      rows
  in
  series "rchls_uptime_seconds" "gauge"
    [ ("", prom_float (seconds_of_ns (uptime_ns ()))) ];
  List.iter
    (fun (name, v) ->
      series (prometheus_name name ^ "_total") "counter"
        [ ("", string_of_int v) ])
    snap.counters;
  List.iter
    (fun (name, v) ->
      series (prometheus_name name) "gauge" [ ("", string_of_int v) ])
    snap.gauges;
  List.iter
    (fun (name, h) ->
      let m = prometheus_name name ^ "_seconds" in
      series m "summary"
        [
          ("{quantile=\"0.5\"}", prom_float (h.p50_ns /. 1e9));
          ("{quantile=\"0.9\"}", prom_float (h.p90_ns /. 1e9));
          ("{quantile=\"0.99\"}", prom_float (h.p99_ns /. 1e9));
        ];
      Buffer.add_string b
        (Printf.sprintf "%s_sum %s\n" m (prom_float (seconds_of_ns h.sum_ns)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" m h.count))
    snap.windows;
  Buffer.contents b

let to_json snap =
  let fields value xs = Json.Obj (List.map (fun (n, v) -> (n, value v)) xs) in
  Json.Obj
    [
      ("counters", fields (fun v -> Json.Int v) snap.counters);
      ("gauges", fields (fun v -> Json.Int v) snap.gauges);
      ("windows", fields (hist_to_json ~window_ns:snap.window_ns) snap.windows);
    ]

(* --- rendering ----------------------------------------------------- *)

let format_ns ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Printf.sprintf "%Ld ns" ns
  else if f < 1e6 then Printf.sprintf "%.2f us" (f /. 1e3)
  else if f < 1e9 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else Printf.sprintf "%.3f s" (f /. 1e9)

let format_ns_f f =
  if f < 1e3 then Printf.sprintf "%.0f ns" f
  else if f < 1e6 then Printf.sprintf "%.2f us" (f /. 1e3)
  else if f < 1e9 then Printf.sprintf "%.2f ms" (f /. 1e6)
  else Printf.sprintf "%.3f s" (f /. 1e9)

let render () =
  let cs = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  let hs = histograms () in
  let ts =
    List.filter (fun (_, v) -> v <> 0L) (List.map (fun (n, h) -> (n, h.sum_ns)) hs)
  in
  if cs = [] && ts = [] && hs = [] then ""
  else begin
    let t = Tablefmt.create ~aligns:[ Tablefmt.Left; Right ] [ "metric"; "value" ] in
    List.iter (fun (name, v) -> Tablefmt.add_row t [ name; string_of_int v ]) cs;
    if cs <> [] && ts <> [] then Tablefmt.add_sep t;
    List.iter (fun (name, ns) -> Tablefmt.add_row t [ name; format_ns ns ]) ts;
    if (cs <> [] || ts <> []) && hs <> [] then Tablefmt.add_sep t;
    List.iter
      (fun (name, h) ->
        Tablefmt.add_row t
          [
            name ^ " [hist]";
            Printf.sprintf "n=%d p50=%s p90=%s p99=%s max=%s" h.count
              (format_ns_f h.p50_ns) (format_ns_f h.p90_ns) (format_ns_f h.p99_ns)
              (format_ns h.max_ns);
          ])
      hs;
    Tablefmt.render t
  end
