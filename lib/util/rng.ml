type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 finalizer: scramble a state that has just advanced by
   the golden gamma. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = s }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = bits t in
    let v = r mod n in
    if r - v > (max_int - n) + 1 then go () else v
  in
  go ()

let float t x =
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 significant bits, uniform in [0,1). *)
  r /. 9007199254740992.0 *. x

let bool t = Int64.logand (int64 t) 1L = 1L

(* The state lives in a local ref, which ocamlopt keeps unboxed, and is
   written back once; each bit is ORed in without a branch.  Same draws,
   in the same order, as [lanes * Array.length words] calls to [bool]. *)
let fill_lanes t words ~lanes =
  if lanes < 0 || lanes > Sys.int_size then
    invalid_arg "Rng.fill_lanes: lanes out of range";
  let n = Array.length words in
  Array.fill words 0 n 0;
  let s = ref t.state in
  for lane = 0 to lanes - 1 do
    for i = 0 to n - 1 do
      s := Int64.add !s golden_gamma;
      let bit = Int64.to_int (mix !s) land 1 in
      words.(i) <- words.(i) lor (bit lsl lane)
    done
  done;
  t.state <- !s
