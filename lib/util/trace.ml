type attr_value = Str of string | Int of int | Float of float | Bool of bool

type attrs = (string * attr_value) list

type kind = Begin | End | Instant

type event = {
  kind : kind;
  name : string;
  domain : int;
  ts_ns : int64;
  dur_ns : int64;
  depth : int;
  attrs : attrs;
}

type sink = event -> unit

(* The sink set is an immutable array swapped atomically: emission
   never locks, and [enabled] is one load + length test on the hot
   path. *)
let sinks : sink array Atomic.t = Atomic.make [||]

let set_sinks ss = Atomic.set sinks (Array.of_list ss)

let enabled () = Array.length (Atomic.get sinks) > 0

let emit ev = Array.iter (fun s -> s ev) (Atomic.get sinks)

let with_sinks ss f =
  let prev = Atomic.get sinks in
  Atomic.set sinks (Array.of_list ss);
  Fun.protect ~finally:(fun () -> Atomic.set sinks prev) f

(* Per-domain span stacks: spans on worker domains nest independently
   of the spawning domain's stack. *)
let stack_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let current_depth () = !(Domain.DLS.get stack_key)

let domain_id () = (Domain.self () :> int)

let with_span ?(attrs = []) name f =
  let depth_ref = Domain.DLS.get stack_key in
  let dom = domain_id () in
  let t0 = Telemetry.now_ns () in
  if enabled () then
    emit
      { kind = Begin; name; domain = dom; ts_ns = t0; dur_ns = 0L;
        depth = !depth_ref; attrs };
  incr depth_ref;
  Fun.protect
    ~finally:(fun () ->
      decr depth_ref;
      let t1 = Telemetry.now_ns () in
      let dur = Int64.sub t1 t0 in
      Telemetry.observe name dur;
      if enabled () then
        emit
          { kind = End; name; domain = dom; ts_ns = t1; dur_ns = dur;
            depth = !depth_ref; attrs = [] })
    f

let instant ?(attrs = []) name =
  if enabled () then
    emit
      {
        kind = Instant;
        name;
        domain = domain_id ();
        ts_ns = Telemetry.now_ns ();
        dur_ns = 0L;
        depth = current_depth ();
        attrs;
      }

(* --- collection ---------------------------------------------------- *)

type collector = { lock : Mutex.t; mutable acc : event list (* reversed *) }

let collector () = { lock = Mutex.create (); acc = [] }

let collector_sink c ev = Mutex.protect c.lock (fun () -> c.acc <- ev :: c.acc)

let events c = Mutex.protect c.lock (fun () -> List.rev c.acc)

(* --- export -------------------------------------------------------- *)

let kind_name = function Begin -> "B" | End -> "E" | Instant -> "i"

let attr_json = function
  | Str s -> Json.Str s
  | Int n -> Json.Int n
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let attrs_json attrs = Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) attrs)

let event_json e =
  Json.Obj
    ([
       ("kind", Json.Str (kind_name e.kind));
       ("name", Json.Str e.name);
       ("domain", Json.Int e.domain);
       ("ts_ns", Json.Int (Int64.to_int e.ts_ns));
       ("depth", Json.Int e.depth);
     ]
    @ (if e.kind = End then [ ("dur_ns", Json.Int (Int64.to_int e.dur_ns)) ] else [])
    @ if e.attrs = [] then [] else [ ("attrs", attrs_json e.attrs) ])

let jsonl_sink oc =
  let lock = Mutex.create () in
  fun ev ->
    let line = Json.to_string (event_json ev) in
    Mutex.protect lock (fun () ->
        output_string oc line;
        output_char oc '\n')

let us_of_ns ns = Int64.to_float ns /. 1e3

let chrome_event e =
  let common =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str "rchls");
      ("ph", Json.Str (kind_name e.kind));
      ("pid", Json.Int 1);
      ("tid", Json.Int e.domain);
      ("ts", Json.Float (us_of_ns e.ts_ns));
    ]
  in
  let scope = if e.kind = Instant then [ ("s", Json.Str "t") ] else [] in
  let args = if e.attrs = [] then [] else [ ("args", attrs_json e.attrs) ] in
  Json.Obj (common @ scope @ args)

let chrome_json evs =
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.domain) evs)
  in
  let track_names =
    List.map
      (fun tid ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str (Printf.sprintf "domain-%d" tid)) ]);
          ])
      tids
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.List (track_names @ List.map chrome_event evs));
    ]

let write_chrome_file c path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true (chrome_json (events c)));
      output_char oc '\n')

(* --- attribute helpers --------------------------------------------- *)

let attr_string attrs k =
  match List.assoc_opt k attrs with Some (Str s) -> Some s | _ -> None

let attr_int attrs k =
  match List.assoc_opt k attrs with Some (Int n) -> Some n | _ -> None

let attr_float attrs k =
  match List.assoc_opt k attrs with
  | Some (Float f) -> Some f
  | Some (Int n) -> Some (float_of_int n)
  | _ -> None
