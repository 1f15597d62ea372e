(* [Empty]: nothing simulated yet; [Good]: the values are a fault-free
   [run]; [Upset]: one net has since been complemented and the gates
   after it re-evaluated. *)
type phase = Empty | Good | Upset

type state = {
  nl : Netlist.t;
  values : int array;
  mutable phase : phase;
}

(* A native OCaml int has 63 usable bits on 64-bit platforms; every
   bitwise operator (including lnot) is closed over them, so no masking
   is needed between gates. *)
let lanes = 63

let lane_mask n =
  if n < 0 || n > lanes then invalid_arg "Eval_packed.lane_mask: lane count out of range";
  if n = lanes then -1 else (1 lsl n) - 1

let popcount x =
  let n = ref 0 and v = ref x in
  while !v <> 0 do
    v := !v land (!v - 1);
    incr n
  done;
  !n

let create nl = { nl; values = Array.make (Netlist.net_count nl) 0; phase = Empty }

let load_inputs st ins =
  let inputs = Netlist.inputs st.nl in
  if Array.length ins <> Array.length inputs then
    invalid_arg
      (Printf.sprintf "Eval_packed.run: expected %d inputs, got %d" (Array.length inputs)
         (Array.length ins));
  Array.iteri (fun i (_, net) -> st.values.(net) <- ins.(i)) inputs;
  (* A constant holds its value in every lane. *)
  List.iter (fun (net, v) -> st.values.(net) <- if v then -1 else 0) (Netlist.constants st.nl)

let read_outputs st =
  Array.map (fun (_, net) -> st.values.(net)) (Netlist.outputs st.nl)

(* The inner loop of every campaign: no allocation, direct bitwise
   combination of the fanin words. *)
let eval_gate st (g : Netlist.instance) =
  let v = st.values and f = g.fanins in
  v.(g.out) <-
    (match g.kind with
    | Gate.Inv -> lnot v.(f.(0))
    | Gate.Buf -> v.(f.(0))
    | Gate.And2 -> v.(f.(0)) land v.(f.(1))
    | Gate.Nand2 -> lnot (v.(f.(0)) land v.(f.(1)))
    | Gate.Or2 -> v.(f.(0)) lor v.(f.(1))
    | Gate.Nor2 -> lnot (v.(f.(0)) lor v.(f.(1)))
    | Gate.Xor2 -> v.(f.(0)) lxor v.(f.(1))
    | Gate.Xnor2 -> lnot (v.(f.(0)) lxor v.(f.(1)))
    | Gate.And3 -> v.(f.(0)) land v.(f.(1)) land v.(f.(2))
    | Gate.Nand3 -> lnot (v.(f.(0)) land v.(f.(1)) land v.(f.(2)))
    | Gate.Or3 -> v.(f.(0)) lor v.(f.(1)) lor v.(f.(2))
    | Gate.Nor3 -> lnot (v.(f.(0)) lor v.(f.(1)) lor v.(f.(2)))
    | Gate.Mux2 ->
      let s = v.(f.(0)) in
      (s land v.(f.(2))) lor (lnot s land v.(f.(1)))
    | Gate.Maj3 ->
      let a = v.(f.(0)) and b = v.(f.(1)) and c = v.(f.(2)) in
      (a land b) lor (b land c) lor (a land c))

let run st ins =
  load_inputs st ins;
  Array.iter (eval_gate st) (Netlist.gates st.nl);
  st.phase <- Good;
  read_outputs st

let upset st ~flip_net =
  if st.phase <> Good then
    invalid_arg "Eval_packed.upset: the state holds no fault-free run";
  (* Gates before the upset net's driver in topological order cannot
     read it, so their good values stand; [finalize] keeps insertion
     order, so the driver's [gate_id] is its index in [gates].  Inputs
     and constants are upset before the first gate.  [Netlist.driver]
     rejects an unknown net before anything is written. *)
  let first =
    match Netlist.driver st.nl flip_net with
    | Some g -> g.gate_id + 1
    | None -> 0
  in
  st.values.(flip_net) <- lnot st.values.(flip_net);
  let gates = Netlist.gates st.nl in
  for k = first to Array.length gates - 1 do
    eval_gate st gates.(k)
  done;
  st.phase <- Upset;
  read_outputs st

let net_value st n =
  if st.phase = Empty then invalid_arg "Eval_packed.net_value: no simulation run yet";
  if n < 0 || n >= Array.length st.values then
    invalid_arg "Eval_packed.net_value: unknown net";
  st.values.(n)
