type op_class = Add | Mul

type t = {
  id : string;
  display : string;
  op_class : op_class;
  architecture : string;
  area : int;
  delay : int;
  reliability : float;
}

let class_name = function Add -> "add" | Mul -> "mul"

let class_of_name s =
  match String.lowercase_ascii s with
  | "add" | "adder" -> Some Add
  | "mul" | "mult" | "multiplier" -> Some Mul
  | _ -> None

let validate r =
  if r.id = "" then Error "resource id must be non-empty"
  else if r.area <= 0 then Error (r.id ^ ": area must be positive")
  else if r.delay <= 0 then Error (r.id ^ ": delay must be positive")
  (* Written so that [nan] fails too: every comparison with it is false. *)
  else if not (r.reliability > 0. && r.reliability <= 1.) then
    Error (r.id ^ ": reliability must lie in (0,1]")
  else Ok ()

let pp ppf r =
  Format.fprintf ppf "%s (%s): class=%s area=%d delay=%d R=%.5f" r.id r.display
    (class_name r.op_class) r.area r.delay r.reliability

let compare_by_reliability a b =
  let c = compare b.reliability a.reliability in
  if c <> 0 then c
  else
    let c = compare a.area b.area in
    if c <> 0 then c
    else
      let c = compare a.delay b.delay in
      if c <> 0 then c else compare a.id b.id
