type ('k, 'v) shard = {
  lock : Mutex.t;
  table : ('k, 'v) Hashtbl.t;
  mutable bytes : int;
}

type ('k, 'v) t = {
  shards : ('k, 'v) shard array;
  max_entries : int;  (* per shard *)
  max_bytes : int;  (* per shard *)
  cost : 'k -> 'v -> int;
  lookups : bool;
  hits : string;
  misses : string;
  evictions : string;
  gauge : string option;
  entries : int Atomic.t;
}

let create ?(shards = 1) ?(lookups = true) ?(gauge = false) ?(max_bytes = max_int)
    ?(cost = fun _ _ -> 0) ~name ~max_entries () =
  if shards < 1 || shards land (shards - 1) <> 0 then
    invalid_arg "Memo.create: shards must be a power of two";
  if max_entries < 0 || max_bytes < 0 then invalid_arg "Memo.create: negative bound";
  {
    shards =
      Array.init shards (fun _ ->
          { lock = Mutex.create (); table = Hashtbl.create 16; bytes = 0 });
    max_entries = max_entries / shards;
    max_bytes = max_bytes / shards;
    cost;
    lookups;
    hits = name ^ ".hits";
    misses = name ^ ".misses";
    evictions = name ^ ".evictions";
    gauge = (if gauge then Some (name ^ ".entries") else None);
    entries = Atomic.make 0;
  }

(* The shard index takes hash bits above the ones a shard's own table
   uses for its buckets, so the keys of one shard still spread over
   all of its buckets. *)
let shard t k =
  let n = Array.length t.shards in
  t.shards.(if n = 1 then 0 else (Hashtbl.hash k lsr 16) land (n - 1))

(* Called with the shard's lock held. *)
let moved t delta =
  let n = Atomic.fetch_and_add t.entries delta + delta in
  Option.iter (fun g -> Telemetry.gauge_set g n) t.gauge

let drop t s =
  let n = Hashtbl.length s.table in
  Hashtbl.reset s.table;
  s.bytes <- 0;
  if n > 0 then moved t (-n);
  n

let find t k =
  let s = shard t k in
  let r = Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.table k) in
  if t.lookups then Telemetry.incr (match r with Some _ -> t.hits | None -> t.misses);
  r

let store t k v =
  let s = shard t k in
  Mutex.protect s.lock (fun () ->
      match Hashtbl.find_opt s.table k with
      | Some held -> held
      | None ->
        let c = t.cost k v in
        if c <= t.max_bytes && t.max_entries > 0 then begin
          if Hashtbl.length s.table >= t.max_entries || s.bytes > t.max_bytes - c then
            Telemetry.add t.evictions (drop t s);
          Hashtbl.add s.table k v;
          s.bytes <- s.bytes + c;
          moved t 1
        end;
        v)

let add t k v = ignore (store t k v)
let find_or_add t k compute = match find t k with Some v -> v | None -> store t k (compute ())
let clear t = Array.iter (fun s -> Mutex.protect s.lock (fun () -> ignore (drop t s))) t.shards
let length t = Atomic.get t.entries
let bytes t = Array.fold_left (fun acc s -> acc + Mutex.protect s.lock (fun () -> s.bytes)) 0 t.shards
