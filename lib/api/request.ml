module Json = Rchls_util.Json
module Fnv = Rchls_util.Fnv

type source = Named of string | Inline of string
type library_source = Lib_default | Lib_file of string | Lib_inline of string
type strategy = Best | Figure6 | Bottom_up
type scheduler = Density | Force_directed
type approach = Ours | Baseline | Combined

type synth = {
  graph : source;
  library : library_source;
  ld : int;
  ad : int;
  strategy : strategy;
  scheduler : scheduler;
}

type anneal = {
  graph : source;
  library : library_source;
  ld : int;
  ad : int;
  strategy : strategy;
  scheduler : scheduler;
  seed : int;
  moves : int;
  chains : int;
  exchange : int;
}

type sweep = {
  graph : source;
  library : library_source;
  lds : int list;
  ads : int list;
  approach : approach;
  scheduler : scheduler;
}

type fuzz = {
  seed : int;
  cases : int;
  max_nodes : int;
  properties : string list option;
}

type job =
  | Synth of synth
  | Anneal of anneal
  | Sweep of sweep
  | Explore of sweep
  | Check of synth
  | Fuzz of fuzz
  | Ping
  | Stats
  | Health

type t = { id : string option; job : job }

(* --- parameter domains ------------------------------------------------ *)

(* Each bound and annealer knob has a lower limit; the first parameter
   below its limit is reported as (field, problem).  The decoder and the
   CLI both check through here. *)
let at_least lo name v =
  if v >= lo then Ok () else Error (name, Printf.sprintf "must be at least %d (got %d)" lo v)

let all_at_least lo name vs =
  match List.find_opt (fun v -> v < lo) vs with
  | None -> Ok ()
  | Some v -> Error (name, Printf.sprintf "entries must be at least %d (got %d)" lo v)

let ( let* ) = Result.bind

let bounds_valid ~ld ~ad =
  let* () = at_least 1 "ld" ld in
  at_least 1 "ad" ad

let synth_valid (s : synth) = bounds_valid ~ld:s.ld ~ad:s.ad

let anneal_valid (a : anneal) =
  let* () = bounds_valid ~ld:a.ld ~ad:a.ad in
  let* () = at_least 0 "moves" a.moves in
  let* () = at_least 1 "chains" a.chains in
  at_least 1 "exchange" a.exchange

let sweep_valid (w : sweep) =
  let* () = all_at_least 1 "lds" w.lds in
  all_at_least 1 "ads" w.ads

let validate = function
  | Synth s | Check s -> synth_valid s
  | Anneal a -> anneal_valid a
  | Sweep w | Explore w -> sweep_valid w
  | Fuzz _ | Ping | Stats | Health -> Ok ()

(* Seal a job record whose decoded values must pass [valid]. *)
let seal_valid valid r =
  Schema.seal_with
    (fun what v ->
      match valid v with
      | Ok () -> Ok v
      | Error (name, problem) -> Error (Printf.sprintf "%s: field %S %s" what name problem))
    r

(* --- field descriptors (one list per record; both directions derive
   from it) ---------------------------------------------------------- *)

let source =
  Schema.(
    record (fun name text -> (name, text))
    |+ opt "name" string (function Named n -> Some n | Inline _ -> None)
    |+ opt "text" string (function Inline t -> Some t | Named _ -> None)
    |> seal_with (fun what -> function
         | Some n, None -> Ok (Named n)
         | None, Some t -> Ok (Inline t)
         | _ -> Error (what ^ ": exactly one of \"name\" or \"text\" required"))
    |> obj)

let library_source =
  Schema.(
    record (fun dflt file text -> (dflt, file, text))
    |+ opt "default" bool (function Lib_default -> Some true | _ -> None)
    |+ opt "file" string (function Lib_file p -> Some p | _ -> None)
    |+ opt "text" string (function Lib_inline t -> Some t | _ -> None)
    |> seal_with (fun what -> function
         | Some true, None, None -> Ok Lib_default
         | (None | Some false), Some p, None -> Ok (Lib_file p)
         | (None | Some false), None, Some t -> Ok (Lib_inline t)
         | (None | Some false), None, None ->
           Error (what ^ ": one of \"default\", \"file\" or \"text\" required")
         | _ -> Error (what ^ ": \"default\", \"file\" and \"text\" are exclusive"))
    |> obj)

(* The two source fields, which {!cache_key} replaces by fingerprints. *)
let graph_field = "graph"
let library_field = "library"

(* Fields shared by several job records, each given its getter. *)
let graph get = Schema.req graph_field source get
let library get = Schema.dflt library_field library_source Lib_default get
let ld get = Schema.req "ld" Schema.int get
let ad get = Schema.req "ad" Schema.int get

let strategies = [ ("best", Best); ("figure6", Figure6); ("bottom-up", Bottom_up) ]

let schedulers = [ ("density", Density); ("force-directed", Force_directed) ]

let approaches = [ ("ours", Ours); ("baseline", Baseline); ("combined", Combined) ]
let name_of table v = fst (List.find (fun (_, x) -> x = v) table)
let strategy get = Schema.(dflt "strategy" (enum strategies) Best get)
let scheduler get = Schema.(dflt "scheduler" (enum schedulers) Density get)

let synth =
  Schema.(
    record (fun graph library ld ad strategy scheduler ->
        { graph; library; ld; ad; strategy; scheduler })
    |+ graph (fun (s : synth) -> s.graph)
    |+ library (fun (s : synth) -> s.library)
    |+ ld (fun (s : synth) -> s.ld)
    |+ ad (fun (s : synth) -> s.ad)
    |+ strategy (fun (s : synth) -> s.strategy)
    |+ scheduler (fun (s : synth) -> s.scheduler)
    |> seal_valid synth_valid)

(* The synth fields plus the annealer's knobs, every knob defaulted to
   [Rchls_anneal.Anneal.default_params]'s value — a bare synth request
   with the job kind flipped to "anneal" is valid. *)
let anneal =
  Schema.(
    record (fun graph library ld ad strategy scheduler seed moves chains exchange ->
        { graph; library; ld; ad; strategy; scheduler; seed; moves; chains; exchange })
    |+ graph (fun (a : anneal) -> a.graph)
    |+ library (fun (a : anneal) -> a.library)
    |+ ld (fun (a : anneal) -> a.ld)
    |+ ad (fun (a : anneal) -> a.ad)
    |+ strategy (fun (a : anneal) -> a.strategy)
    |+ scheduler (fun (a : anneal) -> a.scheduler)
    |+ dflt "seed" int 1 (fun (a : anneal) -> a.seed)
    |+ dflt "moves" int 2000 (fun (a : anneal) -> a.moves)
    |+ dflt "chains" int 4 (fun (a : anneal) -> a.chains)
    |+ dflt "exchange" int 50 (fun (a : anneal) -> a.exchange)
    |> seal_valid anneal_valid)

(* An explore job has the shape of a sweep, but its bound lists may be
   omitted (or empty): the explorer then plans the plane itself from
   the graph and library (see [Rchls_experiments.Explore.plan]). *)
let sweep ~planned =
  let bounds name get =
    if planned then Schema.(dflt name ints [] get) else Schema.(req name ints get)
  in
  Schema.(
    record (fun graph library lds ads approach scheduler ->
        { graph; library; lds; ads; approach; scheduler })
    |+ graph (fun (w : sweep) -> w.graph)
    |+ library (fun (w : sweep) -> w.library)
    |+ bounds "lds" (fun (w : sweep) -> w.lds)
    |+ bounds "ads" (fun (w : sweep) -> w.ads)
    |+ dflt "approach" (enum approaches) Ours (fun (w : sweep) -> w.approach)
    |+ scheduler (fun (w : sweep) -> w.scheduler)
    |> seal_valid sweep_valid)

let fuzz =
  Schema.(
    record (fun seed cases max_nodes properties -> { seed; cases; max_nodes; properties })
    |+ dflt "seed" int 42 (fun (f : fuzz) -> f.seed)
    |+ dflt "cases" int 100 (fun (f : fuzz) -> f.cases)
    |+ dflt "max_nodes" int 12 (fun (f : fuzz) -> f.max_nodes)
    |+ opt "properties" strings (fun (f : fuzz) -> f.properties)
    |> seal)

let no_params = Schema.(seal (record ()))

let jobs =
  Schema.
    [
      case "synth" synth (fun s -> Synth s) (function Synth s -> Some s | _ -> None);
      case "anneal" anneal (fun a -> Anneal a) (function Anneal a -> Some a | _ -> None);
      case "sweep" (sweep ~planned:false)
        (fun w -> Sweep w)
        (function Sweep w -> Some w | _ -> None);
      case "explore" (sweep ~planned:true)
        (fun w -> Explore w)
        (function Explore w -> Some w | _ -> None);
      case "check" synth (fun s -> Check s) (function Check s -> Some s | _ -> None);
      case "fuzz" fuzz (fun f -> Fuzz f) (function Fuzz f -> Some f | _ -> None);
      case "ping" no_params (fun () -> Ping) (function Ping -> Some () | _ -> None);
      case "stats" no_params (fun () -> Stats) (function Stats -> Some () | _ -> None);
      case "health" no_params (fun () -> Health) (function Health -> Some () | _ -> None);
    ]

let job_fields = Schema.nested ~tag:"job" ~body:"params" ~noun:"job kind" jobs

let envelope =
  Schema.(
    record (fun id job -> { id; job })
    |+ opt "id" string (fun t -> t.id)
    |+ group job_fields (fun t -> t.job)
    |> seal |> versioned |> obj)

let job_kind job = Schema.case_name jobs job
let encode t = Schema.encode envelope t
let to_string t = Json.to_string (encode t)
let decode j = Schema.decode envelope ~what:"request" j

let of_string line =
  match Json.of_string line with Error e -> Error ("request: " ^ e) | Ok j -> decode j

(* --- cache key ----------------------------------------------------- *)

(* The canonical request without its id, with the graph/library sources
   replaced by fingerprints of their resolved texts; hashing this
   rendering keys the response cache on what the job will actually
   compute on, not on how the inputs were referenced. *)
let cache_key ?graph_digest ?library_digest job =
  let fp digest = Json.Obj [ ("fp", Json.Str (Fnv.to_hex digest)) ] in
  let keyed sources =
    let replace = function
      | Json.Obj ps ->
        Json.Obj
          (List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k sources) ~default:v)) ps)
      | j -> j
    in
    match encode { id = None; job } with
    | Json.Obj bs ->
      let doc = Json.Obj (List.map (fun (k, v) -> (k, replace v)) bs) in
      Some (Fnv.hash_string (Json.to_string doc))
    | _ -> None
  in
  match (job, graph_digest, library_digest) with
  | (Ping | Stats | Health), _, _ -> None
  | Fuzz _, _, _ -> keyed []
  | _, Some g, Some l -> keyed [ (graph_field, fp g); (library_field, fp l) ]
  | _, _, _ -> None
