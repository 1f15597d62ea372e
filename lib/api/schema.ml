module Json = Rchls_util.Json

let api = "rchls.api/1"
let run_report = "rchls.run_report/1"
let cache_entry = "rchls.cache_entry/1"

type bindings = (string * Json.t) list

(* --- error messages ----------------------------------------------------

   Decoding raises [Invalid] internally and {!decode} turns it into
   [Error]; no other function lets it escape.  A value sits either
   under field [Some key] of the object at path [what], or at path
   [what] itself ([None]: a map entry, a document root). *)

exception Invalid of string

let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let subject what = function
  | Some k -> Printf.sprintf "%s: field %S" what k
  | None -> what ^ ":"

let path what = function Some k -> what ^ "." ^ k | None -> what
let mismatch what key ty = fail "%s must be %s" (subject what key) ty
let missing what k = fail "%s: missing field %S" what k

let version_error ~what ~expect ~got =
  Printf.sprintf "%s: unsupported schema version %S (this build speaks %S)" what got
    expect

(* Exactly the shape [version_error] renders, so a field or job kind
   that merely names the phrase is not mistaken for one. *)
let is_version_error msg =
  match
    Scanf.sscanf msg "%s@: unsupported schema version %S (this build speaks %S)%!"
      (fun what got expect -> version_error ~what ~expect ~got)
  with
  | rendered -> rendered = msg
  | exception _ -> false

(* --- value codecs ----------------------------------------------------- *)

type 'a codec = {
  ty : string;  (** what a mismatch says the value "must be" *)
  enc : 'a -> Json.t;
  dec : string -> string option -> Json.t -> 'a;
}

let scalar ty prj enc =
  {
    ty;
    enc;
    dec = (fun what key j -> match prj j with Some v -> v | None -> mismatch what key ty);
  }

let all prj = function
  | Json.List xs ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | x :: tl -> ( match prj x with Some v -> go (v :: acc) tl | None -> None)
    in
    go [] xs
  | _ -> None

let int = scalar "an integer" Json.to_int_opt (fun n -> Json.Int n)
let float = scalar "a number" Json.to_float_opt (fun x -> Json.Float x)
let bool = scalar "a boolean" (function Json.Bool b -> Some b | _ -> None) (fun b -> Json.Bool b)
let string = scalar "a string" Json.to_string_opt (fun s -> Json.Str s)

let ints =
  scalar "a list of integers" (all Json.to_int_opt) (fun ns ->
      Json.List (List.map int.enc ns))

let strings =
  scalar "a list of strings" (all Json.to_string_opt) (fun ss ->
      Json.List (List.map string.enc ss))

let nullable c =
  let ty = c.ty ^ " or null" in
  {
    ty;
    enc = (function None -> Json.Null | Some v -> c.enc v);
    dec =
      (fun what key -> function
        | Json.Null -> None
        | j -> ( try Some (c.dec what key j) with Invalid _ -> mismatch what key ty));
  }

let enum ?noun table =
  let names = String.concat ", " (List.map fst table) in
  let tags = List.map (fun (name, v) -> (v, Json.Str name)) table in
  {
    ty = "a string";
    enc = (fun v -> List.assoc v tags);
    dec =
      (fun what key -> function
        | Json.Str s -> (
          match (List.assoc_opt s table, noun) with
          | Some v, _ -> v
          | None, Some n -> fail "%s: unknown %s %S" what n s
          | None, None -> fail "%s: unknown value %S (one of: %s)" (subject what key) s names)
        | _ -> mismatch what key "a string");
  }

let list c =
  {
    ty = "a list";
    enc = (fun xs -> Json.List (List.map c.enc xs));
    dec =
      (fun what key -> function
        | Json.List xs -> List.map (c.dec what key) xs
        | _ -> mismatch what key "a list");
  }

(* Metric maps carry arbitrary names as keys, so no closed field list
   applies; the no-duplicates rule still does. *)
let assoc c =
  {
    ty = "an object";
    enc = (fun kvs -> Json.Obj (List.map (fun (k, v) -> (k, c.enc v)) kvs));
    dec =
      (fun what key -> function
        | Json.Obj kvs ->
          let w = path what key in
          let rec go seen = function
            | [] -> []
            | (k, _) :: _ when List.mem k seen -> fail "%s: duplicate key %S" w k
            | (k, j) :: tl ->
              let v = c.dec (Printf.sprintf "%s[%s]" w k) None j in
              (k, v) :: go (k :: seen) tl
          in
          go [] kvs
        | _ -> mismatch what key "an object");
  }

let rooted c = { c with dec = (fun what key -> c.dec (Option.value key ~default:what) None) }

(* --- objects ---------------------------------------------------------- *)

(* The field set of one object: every key must be declared, none may
   repeat. *)
let bindings ~what ~allowed = function
  | Json.Obj bs ->
    let rec scan seen = function
      | [] -> bs
      | (k, _) :: _ when List.mem k seen -> fail "%s: duplicate field %S" what k
      | (k, _) :: _ when not (List.mem k allowed) ->
        fail "%s: unknown field %S (allowed: %s)" what k (String.concat ", " allowed)
      | (k, _) :: tl -> scan (k :: seen) tl
    in
    scan [] bs
  | _ -> fail "%s: expected a JSON object" what

(* A group of fields inside one object: their names, how a value
   prepends its bindings to the ones after it, and how it is read back
   from the object's (already validated) bindings. *)
type 'a obj = {
  names : string list;
  emit : 'a -> bindings -> bindings;
  read : string -> bindings -> 'a;
}

let read_obj o ~what j = o.read what (bindings ~what ~allowed:o.names j)

let obj o =
  {
    ty = "an object";
    enc = (fun v -> Json.Obj (o.emit v []));
    dec = (fun what key -> read_obj o ~what:(path what key));
  }

let encode c v = c.enc v
let decode c ~what j = try Ok (c.dec what None j) with Invalid e -> Error e

type ('r, 'a) field = { group : 'a obj; get : 'r -> 'a }

(* One named field; [absent] is its presence rule on decode. *)
let slot name dec ~absent ~emit =
  let key = Some name in
  {
    names = [ name ];
    emit;
    read =
      (fun what bs ->
        match List.assoc_opt name bs with Some j -> dec what key j | None -> absent what);
  }

let always name c v acc = (name, c.enc v) :: acc

let req name c get =
  { group = slot name c.dec ~absent:(fun what -> missing what name) ~emit:(always name c); get }

let dflt name c default get =
  { group = slot name c.dec ~absent:(fun _ -> default) ~emit:(always name c); get }

let opt name c get =
  let emit v acc = match v with None -> acc | Some x -> (name, c.enc x) :: acc in
  let dec what key j = Some (c.dec what key j) in
  { group = slot name dec ~absent:(fun _ -> None) ~emit; get }

let group o get = { group = o; get }

type ('r, 'k) open_record = {
  rev_names : string list;
  emit_all : 'r -> bindings -> bindings;
  read_all : string -> bindings -> 'k;
  checks : (string -> bindings -> 'r -> unit) list;
}

let record k =
  { rev_names = []; emit_all = (fun _ acc -> acc); read_all = (fun _ _ -> k); checks = [] }

let ( |+ ) r f =
  {
    rev_names = List.rev_append f.group.names r.rev_names;
    emit_all = (fun v acc -> r.emit_all v (f.group.emit (f.get v) acc));
    read_all =
      (fun what bs ->
        let k = r.read_all what bs in
        k (f.group.read what bs));
    checks = r.checks;
  }

(* Read like a required field, but checked against the finished record
   instead of passed to the constructor. *)
let derived name c get r =
  let f = req name c get in
  let check what bs v =
    let want = get v in
    if f.group.read what bs <> want then
      fail "%s: field %S must be %s to match the record" what name
        (Json.to_string (c.enc want))
  in
  {
    rev_names = name :: r.rev_names;
    emit_all = (fun v acc -> r.emit_all v (f.group.emit (get v) acc));
    read_all = r.read_all;
    checks = check :: r.checks;
  }

let seal_with finish r =
  let checks = List.rev r.checks in
  {
    names = List.rev r.rev_names;
    emit = r.emit_all;
    read =
      (fun what bs ->
        match finish what (r.read_all what bs) with
        | Error e -> raise (Invalid e)
        | Ok v ->
          List.iter (fun check -> check what bs v) checks;
          v);
  }

let seal r = seal_with (fun _ v -> Ok v) r

(* A fixed string field; [differs what got] renders a mismatch. *)
let fixed name value ~differs o =
  let f = req name string Fun.id in
  let binding = (name, Json.Str value) in
  {
    names = name :: o.names;
    emit = (fun v acc -> binding :: o.emit v acc);
    read =
      (fun what bs ->
        let got = f.group.read what bs in
        if got = value then o.read what bs else raise (Invalid (differs what got)));
  }

let const name value o =
  fixed name value o ~differs:(fun what got ->
      Printf.sprintf "%s: expected %s %S, got %S" what name value got)

let versioned o =
  fixed "api" api o ~differs:(fun what got -> version_error ~what ~expect:api ~got)

(* --- variants --------------------------------------------------------- *)

type 'v case = Case : string * 'a obj * ('a -> 'v) * ('v -> 'a option) -> 'v case

let case name o inj prj = Case (name, o, inj, prj)

(* The tag of the case a value belongs to, and how it emits its fields. *)
let rec which v = function
  | [] -> invalid_arg "Rchls_api.Schema: value matches no variant case"
  | Case (name, o, _, prj) :: tl -> (
    match prj v with Some a -> (name, o.emit a) | None -> which v tl)

let case_name cases v = fst (which v cases)
let find_case name cases = List.find_opt (fun (Case (n, _, _, _)) -> n = name) cases
let read_tag tag = (req tag string Fun.id).group.read

(* The enclosing object accepts every case's fields, so once the tag
   picks a case, a field that only other cases declare is rejected. *)
let variant ~tag ~noun cases =
  let read_tag = read_tag tag in
  let all = List.concat_map (fun (Case (_, o, _, _)) -> o.names) cases in
  {
    names = tag :: all;
    emit = (fun v acc -> let name, emit = which v cases in (tag, Json.Str name) :: emit acc);
    read =
      (fun what bs ->
        let name = read_tag what bs in
        match find_case name cases with
        | Some (Case (_, o, inj, _)) ->
          List.iter
            (fun (k, _) ->
              if List.mem k all && not (List.mem k o.names) then
                fail "%s: field %S is not allowed when %s is %S" what k tag name)
            bs;
          inj (o.read what bs)
        | None -> fail "%s: unknown %s %S" what noun name);
  }

let union ~tag ~noun cases =
  let tagged = List.map (fun (Case (n, o, inj, prj)) -> Case (n, const tag n o, inj, prj)) cases in
  {
    ty = "an object";
    enc = (fun v -> Json.Obj ((snd (which v tagged)) []));
    dec =
      (fun what key j ->
        let what = path what key in
        match j with
        | Json.Obj bs -> (
          match List.assoc_opt tag bs with
          | Some (Json.Str name) -> (
            match find_case name tagged with
            | Some (Case (_, o, inj, _)) -> inj (read_obj o ~what j)
            | None -> fail "%s: unknown %s %S" what noun name)
          | _ -> fail "%s: missing or non-string %S field" what tag)
        | _ -> fail "%s: expected a JSON object" what);
  }

let nested ~tag ~body ~noun cases =
  let read_tag = read_tag tag in
  let all = String.concat ", " (List.map (fun (Case (n, _, _, _)) -> n) cases) in
  let empty = Json.Obj [] in
  {
    names = [ tag; body ];
    emit =
      (fun v acc ->
        let name, emit = which v cases in
        (tag, Json.Str name)
        :: (match emit [] with [] -> acc | fields -> (body, Json.Obj fields) :: acc));
    read =
      (fun what bs ->
        let name = read_tag what bs in
        match find_case name cases with
        | Some (Case (_, o, inj, _)) ->
          let j = Option.value (List.assoc_opt body bs) ~default:empty in
          inj (read_obj o ~what:(name ^ "." ^ body) j)
        | None -> fail "%s: unknown %s %S (one of: %s)" what noun name all);
  }
