(* Tests for the gate-level netlist substrate: gate semantics, builder
   invariants, simulation, fault flips, timing and Verilog emission. *)

open Rchls_netlist

(* --- Gate --- *)

let bools_of_int arity v = Array.init arity (fun i -> (v lsr i) land 1 = 1)

let reference_eval (k : Gate.kind) (ins : bool array) =
  match k with
  | Inv -> not ins.(0)
  | Buf -> ins.(0)
  | And2 -> ins.(0) && ins.(1)
  | Nand2 -> not (ins.(0) && ins.(1))
  | Or2 -> ins.(0) || ins.(1)
  | Nor2 -> not (ins.(0) || ins.(1))
  | Xor2 -> ins.(0) <> ins.(1)
  | Xnor2 -> ins.(0) = ins.(1)
  | And3 -> ins.(0) && ins.(1) && ins.(2)
  | Nand3 -> not (ins.(0) && ins.(1) && ins.(2))
  | Or3 -> ins.(0) || ins.(1) || ins.(2)
  | Nor3 -> not (ins.(0) || ins.(1) || ins.(2))
  | Mux2 -> if ins.(0) then ins.(2) else ins.(1)
  | Maj3 ->
    let n = List.length (List.filter Fun.id (Array.to_list ins)) in
    n >= 2

let test_gate_truth_tables () =
  List.iter
    (fun k ->
      let a = Gate.arity k in
      for v = 0 to (1 lsl a) - 1 do
        let ins = bools_of_int a v in
        Alcotest.(check bool)
          (Printf.sprintf "%s(%d)" (Gate.name k) v)
          (reference_eval k ins) (Gate.eval k ins)
      done)
    Gate.all

let test_gate_arity_check () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Gate.eval Gate.And2 [| true |]);
       false
     with Invalid_argument _ -> true)

let test_gate_names_roundtrip () =
  List.iter
    (fun k ->
      match Gate.of_name (Gate.name k) with
      | Some k' -> Alcotest.(check bool) (Gate.name k) true (k = k')
      | None -> Alcotest.fail ("of_name failed for " ^ Gate.name k))
    Gate.all;
  Alcotest.(check bool) "unknown" true (Gate.of_name "FROB" = None)

let test_gate_parameters_positive () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "area > 0" true (Gate.area k > 0.);
      Alcotest.(check bool) "cap > 0" true (Gate.input_capacitance k > 0.);
      Alcotest.(check bool) "ocap > 0" true (Gate.output_capacitance k > 0.);
      Alcotest.(check bool) "delay > 0" true (Gate.intrinsic_delay k > 0.);
      Alcotest.(check bool) "load factor > 0" true (Gate.load_delay_factor k > 0.))
    Gate.all

(* --- Netlist builder --- *)

let tiny_and () =
  let b = Netlist.builder "tiny_and" in
  let x = Netlist.input b "x" in
  let y = Netlist.input b "y" in
  let z = Netlist.add_gate b Gate.And2 [ x; y ] in
  Netlist.output b "z" z;
  Netlist.finalize b

let test_builder_basic () =
  let nl = tiny_and () in
  Alcotest.(check int) "gates" 1 (Netlist.gate_count nl);
  Alcotest.(check int) "nets" 3 (Netlist.net_count nl);
  Alcotest.(check string) "name" "tiny_and" (Netlist.name nl)

let test_builder_no_outputs () =
  let b = Netlist.builder "empty" in
  ignore (Netlist.input b "x");
  Alcotest.(check bool) "raises" true
    (try
       ignore (Netlist.finalize b);
       false
     with Failure _ -> true)

let test_builder_duplicate_output_names () =
  let b = Netlist.builder "dup" in
  let x = Netlist.input b "x" in
  Netlist.output b "o" x;
  Netlist.output b "o" x;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Netlist.finalize b);
       false
     with Failure _ -> true)

let test_builder_arity_mismatch () =
  let b = Netlist.builder "bad" in
  let x = Netlist.input b "x" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Netlist.add_gate b Gate.And2 [ x ]);
       false
     with Invalid_argument _ -> true)

let test_builder_unknown_net () =
  let b = Netlist.builder "bad" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Netlist.add_gate b Gate.Inv [ 99 ]);
       false
     with Invalid_argument _ -> true)

let test_constants_dedup () =
  let b = Netlist.builder "c" in
  let t1 = Netlist.constant b true in
  let t2 = Netlist.constant b true in
  let f1 = Netlist.constant b false in
  Alcotest.(check int) "true dedup" t1 t2;
  Alcotest.(check bool) "true <> false" true (t1 <> f1);
  let g = Netlist.add_gate b Gate.And2 [ t1; f1 ] in
  Netlist.output b "o" g;
  let nl = Netlist.finalize b in
  Alcotest.(check int) "two constants" 2 (List.length (Netlist.constants nl))

let test_driver_fanout () =
  let nl = tiny_and () in
  let x = Netlist.find_input nl "x" in
  let z = Netlist.find_output nl "z" in
  Alcotest.(check bool) "input has no driver" true (Netlist.driver nl x = None);
  (match Netlist.driver nl z with
  | Some g -> Alcotest.(check bool) "AND drives z" true (g.kind = Gate.And2)
  | None -> Alcotest.fail "z should be driven");
  Alcotest.(check int) "x read by one gate" 1 (List.length (Netlist.fanout nl x));
  Alcotest.(check int) "z fanout counts output pin" 1 (Netlist.fanout_count nl z)

let test_area_depth () =
  let nl = tiny_and () in
  Alcotest.(check (float 1e-9)) "area" (Gate.area Gate.And2) (Netlist.area nl);
  Alcotest.(check int) "depth" 1 (Netlist.logic_depth nl)

let test_topological_order () =
  (* A 4-stage inverter chain must appear in dependency order. *)
  let b = Netlist.builder "chain" in
  let x = Netlist.input b "x" in
  let n1 = Netlist.add_gate b Gate.Inv [ x ] in
  let n2 = Netlist.add_gate b Gate.Inv [ n1 ] in
  let n3 = Netlist.add_gate b Gate.Inv [ n2 ] in
  Netlist.output b "o" n3;
  let nl = Netlist.finalize b in
  let seen = Hashtbl.create 8 in
  Hashtbl.add seen x ();
  Array.iter
    (fun (g : Netlist.instance) ->
      Array.iter
        (fun n ->
          Alcotest.(check bool) "fanin already defined" true (Hashtbl.mem seen n))
        g.fanins;
      Hashtbl.add seen g.out ())
    (Netlist.gates nl);
  Alcotest.(check int) "depth 3" 3 (Netlist.logic_depth nl)

(* --- Eval --- *)

let test_eval_and () =
  let nl = tiny_and () in
  let cases = [ (false, false, false); (true, false, false); (false, true, false); (true, true, true) ] in
  List.iter
    (fun (x, y, expect) ->
      let out = Eval.eval nl [| x; y |] in
      Alcotest.(check bool) "and" expect out.(0))
    cases

let test_eval_input_mismatch () =
  let nl = tiny_and () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.eval nl [| true |]);
       false
     with Invalid_argument _ -> true)

let test_eval_with_flip_gate_output () =
  (* Flipping the AND output inverts the result seen at the output. *)
  let nl = tiny_and () in
  let st = Eval.create nl in
  let z = Netlist.find_output nl "z" in
  let normal = Eval.run st [| true; true |] in
  let flipped = Eval.run_with_flip st [| true; true |] ~flip_net:z in
  Alcotest.(check bool) "normal true" true normal.(0);
  Alcotest.(check bool) "flip observed" false flipped.(0)

let test_eval_with_flip_masked () =
  (* out = (x AND y) OR y : with y=1 a flip on the AND output is
     logically masked. *)
  let b = Netlist.builder "masked" in
  let x = Netlist.input b "x" in
  let y = Netlist.input b "y" in
  let a = Netlist.add_gate b Gate.And2 [ x; y ] in
  let o = Netlist.add_gate b Gate.Or2 [ a; y ] in
  Netlist.output b "o" o;
  let nl = Netlist.finalize b in
  let st = Eval.create nl in
  let flipped = Eval.run_with_flip st [| true; true |] ~flip_net:a in
  Alcotest.(check bool) "masked" true flipped.(0)

let test_eval_with_flip_input () =
  let nl = tiny_and () in
  let st = Eval.create nl in
  let x = Netlist.find_input nl "x" in
  let flipped = Eval.run_with_flip st [| true; true |] ~flip_net:x in
  Alcotest.(check bool) "input flip propagates" false flipped.(0)

let test_net_value () =
  let nl = tiny_and () in
  let st = Eval.create nl in
  ignore (Eval.run st [| true; false |]);
  let x = Netlist.find_input nl "x" in
  Alcotest.(check bool) "x seen" true (Eval.net_value st x)

let test_net_value_before_run () =
  let nl = tiny_and () in
  let st = Eval.create nl in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.net_value st 0);
       false
     with Invalid_argument _ -> true)

(* --- Eval_packed --- *)

let test_lane_mask () =
  Alcotest.(check int) "0 lanes" 0 (Eval_packed.lane_mask 0);
  Alcotest.(check int) "1 lane" 1 (Eval_packed.lane_mask 1);
  Alcotest.(check int) "2 lanes" 3 (Eval_packed.lane_mask 2);
  Alcotest.(check int) "full" (-1) (Eval_packed.lane_mask Eval_packed.lanes)

let test_popcount () =
  Alcotest.(check int) "zero" 0 (Eval_packed.popcount 0);
  Alcotest.(check int) "one" 1 (Eval_packed.popcount 1);
  Alcotest.(check int) "0b1011" 3 (Eval_packed.popcount 0b1011);
  Alcotest.(check int) "all lanes" Eval_packed.lanes (Eval_packed.popcount (-1));
  Alcotest.(check int) "mask n" 17 (Eval_packed.popcount (Eval_packed.lane_mask 17))

let test_packed_and () =
  (* Four lanes covering the AND truth table in one sweep. *)
  let nl = tiny_and () in
  let st = Eval_packed.create nl in
  (* lane: 0 -> (0,0), 1 -> (1,0), 2 -> (0,1), 3 -> (1,1) *)
  let out = Eval_packed.run st [| 0b1010; 0b1100 |] in
  Alcotest.(check int) "only lane 3 true" 0b1000 (out.(0) land Eval_packed.lane_mask 4)

let test_packed_input_mismatch () =
  let nl = tiny_and () in
  let st = Eval_packed.create nl in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval_packed.run st [| 0 |]);
       false
     with Invalid_argument _ -> true)

let test_packed_net_value_before_run () =
  let nl = tiny_and () in
  let st = Eval_packed.create nl in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval_packed.net_value st 0);
       false
     with Invalid_argument _ -> true)

(* Random netlists for differential testing: a spec is a number of
   inputs plus a list of (kind, fanin picks); fanins index into the
   nets defined so far, so any spec builds a valid topological DAG. *)
let gen_netlist_spec =
  QCheck2.Gen.(
    pair (int_range 1 4)
      (list_size (int_range 1 24)
         (pair (oneofl Gate.all) (triple nat nat nat))))

let build_random (n_inputs, specs) =
  let b = Netlist.builder "rand" in
  let nets = ref [] in
  for i = 0 to n_inputs - 1 do
    nets := Netlist.input b (Printf.sprintf "i%d" i) :: !nets
  done;
  List.iter
    (fun (k, (f1, f2, f3)) ->
      let arr = Array.of_list !nets in
      let pick f = arr.(f mod Array.length arr) in
      let ins =
        match Gate.arity k with
        | 1 -> [ pick f1 ]
        | 2 -> [ pick f1; pick f2 ]
        | _ -> [ pick f1; pick f2; pick f3 ]
      in
      nets := Netlist.add_gate b k ins :: !nets)
    specs;
  (* Expose the three most recent nets so the deepest cones are
     observable. *)
  List.iteri
    (fun i n -> if i < 3 then Netlist.output b (Printf.sprintf "o%d" i) n)
    !nets;
  Netlist.finalize b

(* Lane l of packed input i = vectors.(l).(i). *)
let pack_vectors ~n_in vectors =
  Array.init n_in (fun i ->
      let w = ref 0 in
      Array.iteri (fun l v -> if v.(i) then w := !w lor (1 lsl l)) vectors;
      !w)

let lanes_agree ~n_vec packed_out scalar_outs =
  let ok = ref true in
  for l = 0 to n_vec - 1 do
    Array.iteri
      (fun o w -> if (w lsr l) land 1 = 1 <> scalar_outs.(l).(o) then ok := false)
      packed_out
  done;
  !ok

let prop_packed_matches_scalar =
  QCheck2.Test.make ~name:"packed eval = scalar eval (random netlists)" ~count:60
    QCheck2.Gen.(pair gen_netlist_spec (int_bound 1_000_000))
    (fun (spec, seed) ->
      let nl = build_random spec in
      let n_in = Array.length (Netlist.inputs nl) in
      let rng = Random.State.make [| seed |] in
      let n_vec = 1 + Random.State.int rng Eval_packed.lanes in
      let vectors =
        Array.init n_vec (fun _ -> Array.init n_in (fun _ -> Random.State.bool rng))
      in
      let packed_out = Eval_packed.run (Eval_packed.create nl) (pack_vectors ~n_in vectors) in
      let sst = Eval.create nl in
      let scalar_outs = Array.map (fun v -> Array.copy (Eval.run sst v)) vectors in
      lanes_agree ~n_vec packed_out scalar_outs)

(* [run] then [upset] is lane-equivalent to the scalar oracle, at the
   outputs and at every net. *)
let prop_packed_flip_matches_scalar =
  QCheck2.Test.make ~name:"packed flip = scalar flip (random netlists)" ~count:60
    QCheck2.Gen.(pair gen_netlist_spec (int_bound 1_000_000))
    (fun (spec, seed) ->
      let nl = build_random spec in
      let n_in = Array.length (Netlist.inputs nl) in
      let rng = Random.State.make [| seed |] in
      let flip_net = Random.State.int rng (Netlist.net_count nl) in
      let n_vec = 1 + Random.State.int rng Eval_packed.lanes in
      let vectors =
        Array.init n_vec (fun _ -> Array.init n_in (fun _ -> Random.State.bool rng))
      in
      let pst = Eval_packed.create nl in
      ignore (Eval_packed.run pst (pack_vectors ~n_in vectors));
      let packed_out = Eval_packed.upset pst ~flip_net in
      let sst = Eval.create nl in
      let nets_agree = ref true in
      let scalar_outs =
        Array.mapi
          (fun l v ->
            let out = Array.copy (Eval.run_with_flip sst v ~flip_net) in
            for n = 0 to Netlist.net_count nl - 1 do
              if (Eval_packed.net_value pst n lsr l) land 1 = 1 <> Eval.net_value sst n
              then nets_agree := false
            done;
            out)
          vectors
      in
      lanes_agree ~n_vec packed_out scalar_outs && !nets_agree)

(* Lanes 0..3 of two packed inputs cover the truth table:
   (0,0) (1,0) (0,1) (1,1). *)
let truth_x = 0b1010
let truth_y = 0b1100

let upset_outputs nl ins ~flip_net =
  let st = Eval_packed.create nl in
  ignore (Eval_packed.run st ins);
  Array.map (fun w -> w land Eval_packed.lane_mask 4) (Eval_packed.upset st ~flip_net)

let test_upset_input () =
  (* z = (not x) and y once x is upset. *)
  let nl = tiny_and () in
  let out = upset_outputs nl [| truth_x; truth_y |] ~flip_net:(Netlist.find_input nl "x") in
  Alcotest.(check int) "only lane 2 true" 0b0100 out.(0)

let test_upset_constant () =
  let b = Netlist.builder "const_and" in
  let x = Netlist.input b "x" in
  let one = Netlist.constant b true in
  Netlist.output b "z" (Netlist.add_gate b Gate.And2 [ x; one ]);
  let nl = Netlist.finalize b in
  let st = Eval_packed.create nl in
  let good = Eval_packed.run st [| truth_x |] in
  Alcotest.(check int) "good z = x" truth_x (good.(0) land Eval_packed.lane_mask 4);
  let bad = Eval_packed.upset st ~flip_net:one in
  Alcotest.(check int) "upset constant forces z low" 0 bad.(0);
  Alcotest.(check int) "constant complemented in every lane" 0 (Eval_packed.net_value st one)

let test_upset_output_net () =
  (* The upset net is itself an output and also feeds an inverter that
     drives a second output: both outputs see the flip. *)
  let b = Netlist.builder "and_inv" in
  let x = Netlist.input b "x" in
  let y = Netlist.input b "y" in
  let a = Netlist.add_gate b Gate.And2 [ x; y ] in
  Netlist.output b "a" a;
  Netlist.output b "na" (Netlist.add_gate b Gate.Inv [ a ]);
  let nl = Netlist.finalize b in
  let out = upset_outputs nl [| truth_x; truth_y |] ~flip_net:a in
  Alcotest.(check int) "a = nand" 0b0111 out.(0);
  Alcotest.(check int) "na = and" 0b1000 out.(1)

let test_upset_last_gate () =
  (* No gate follows the driver: only the upset output changes, and
     the nets before it keep their good values. *)
  let b = Netlist.builder "chain" in
  let x = Netlist.input b "x" in
  let y = Netlist.input b "y" in
  let a = Netlist.add_gate b Gate.And2 [ x; y ] in
  Netlist.output b "a" a;
  let o = Netlist.add_gate b Gate.Or2 [ a; x ] in
  Netlist.output b "o" o;
  let nl = Netlist.finalize b in
  let st = Eval_packed.create nl in
  let good = Eval_packed.run st [| truth_x; truth_y |] in
  let bad = Eval_packed.upset st ~flip_net:o in
  Alcotest.(check int) "a untouched" good.(0) bad.(0);
  Alcotest.(check int) "o complemented" (lnot good.(1)) bad.(1);
  Alcotest.(check int) "a's net keeps its good value" good.(0) (Eval_packed.net_value st a)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_upset_needs_good_run () =
  let nl = tiny_and () in
  let z = Netlist.find_output nl "z" in
  let st = Eval_packed.create nl in
  Alcotest.(check bool) "before any run" true
    (raises_invalid (fun () -> Eval_packed.upset st ~flip_net:z));
  ignore (Eval_packed.run st [| truth_x; truth_y |]);
  Alcotest.(check bool) "unknown net" true
    (raises_invalid (fun () -> Eval_packed.upset st ~flip_net:(Netlist.net_count nl)));
  ignore (Eval_packed.upset st ~flip_net:z);
  Alcotest.(check bool) "second upset without a run" true
    (raises_invalid (fun () -> Eval_packed.upset st ~flip_net:z));
  ignore (Eval_packed.run st [| truth_x; truth_y |]);
  Alcotest.(check int) "a fresh run re-arms it" 0b0111
    ((Eval_packed.upset st ~flip_net:z).(0) land Eval_packed.lane_mask 4)

(* --- fingerprint --- *)

let test_fingerprint_deterministic () =
  let a = tiny_and () and b = tiny_and () in
  Alcotest.(check bool) "same structure, same fingerprint" true
    (Int64.equal (Netlist.fingerprint a) (Netlist.fingerprint b))

let test_fingerprint_distinguishes () =
  let base = tiny_and () in
  let renamed =
    let b = Netlist.builder "tiny_or" in
    let x = Netlist.input b "x" in
    let y = Netlist.input b "y" in
    Netlist.output b "z" (Netlist.add_gate b Gate.And2 [ x; y ]);
    Netlist.finalize b
  in
  let other_gate =
    let b = Netlist.builder "tiny_and" in
    let x = Netlist.input b "x" in
    let y = Netlist.input b "y" in
    Netlist.output b "z" (Netlist.add_gate b Gate.Or2 [ x; y ]);
    Netlist.finalize b
  in
  Alcotest.(check bool) "name matters" false
    (Int64.equal (Netlist.fingerprint base) (Netlist.fingerprint renamed));
  Alcotest.(check bool) "gate kind matters" false
    (Int64.equal (Netlist.fingerprint base) (Netlist.fingerprint other_gate))

(* --- Delay --- *)

let test_delay_monotone_in_depth () =
  let chain n =
    let b = Netlist.builder "chain" in
    let x = Netlist.input b "x" in
    let rec go net i = if i = 0 then net else go (Netlist.add_gate b Gate.Inv [ net ]) (i - 1) in
    Netlist.output b "o" (go x n);
    Netlist.finalize b
  in
  let d2 = Delay.critical_path_ps (chain 2) in
  let d8 = Delay.critical_path_ps (chain 8) in
  Alcotest.(check bool) "longer chain is slower" true (d8 > d2);
  Alcotest.(check bool) "positive" true (d2 > 0.)

let test_delay_fanout_load () =
  (* The same inverter driving 8 loads must be slower than driving 1. *)
  let fan n =
    let b = Netlist.builder "fan" in
    let x = Netlist.input b "x" in
    let inv = Netlist.add_gate b Gate.Inv [ x ] in
    for i = 0 to n - 1 do
      let g = Netlist.add_gate b Gate.Buf [ inv ] in
      Netlist.output b (Printf.sprintf "o%d" i) g
    done;
    Netlist.finalize b
  in
  let nl1 = fan 1 and nl8 = fan 8 in
  let inv_out nl = (Array.get (Netlist.gates nl) 0).Netlist.out in
  let a1 = (Delay.analyze nl1).arrival.(inv_out nl1) in
  let a8 = (Delay.analyze nl8).arrival.(inv_out nl8) in
  Alcotest.(check bool) "loaded inverter slower" true (a8 > a1)

let test_load_capacitance_positive () =
  let nl = tiny_and () in
  for n = 0 to Netlist.net_count nl - 1 do
    Alcotest.(check bool) "positive cap" true (Delay.load_capacitance nl n > 0.)
  done

let test_critical_path_nets () =
  let b = Netlist.builder "cp" in
  let x = Netlist.input b "x" in
  let n1 = Netlist.add_gate b Gate.Inv [ x ] in
  let n2 = Netlist.add_gate b Gate.Inv [ n1 ] in
  Netlist.output b "o" n2;
  let nl = Netlist.finalize b in
  let path = Delay.critical_path_nets nl in
  Alcotest.(check (list int)) "path" [ x; n1; n2 ] path

(* --- Verilog --- *)

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_verilog_structure () =
  let nl = tiny_and () in
  let v = Verilog.to_string nl in
  Alcotest.(check bool) "module" true (contains_substring v "module tiny_and(");
  Alcotest.(check bool) "input" true (contains_substring v "input x;");
  Alcotest.(check bool) "output" true (contains_substring v "output z;");
  Alcotest.(check bool) "endmodule" true (contains_substring v "endmodule")

let test_verilog_all_kinds_emit () =
  (* One gate of every kind; emission must mention every gate id. *)
  let b = Netlist.builder "all_kinds" in
  let x = Netlist.input b "x" in
  let y = Netlist.input b "y" in
  let z = Netlist.input b "z" in
  List.iteri
    (fun i k ->
      let ins =
        match Gate.arity k with 1 -> [ x ] | 2 -> [ x; y ] | _ -> [ x; y; z ]
      in
      let o = Netlist.add_gate b k ins in
      Netlist.output b (Printf.sprintf "o%d" i) o)
    Gate.all;
  let nl = Netlist.finalize b in
  let v = Verilog.to_string nl in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Gate.name k) true (contains_substring v (Gate.name k)))
    Gate.all

(* --- properties --- *)

let gen_kind = QCheck2.Gen.oneofl Gate.all

let prop_demorgan =
  QCheck2.Test.make ~name:"NAND = INV of AND (semantics)" ~count:100
    QCheck2.Gen.(pair bool bool)
    (fun (a, b) ->
      Gate.eval Gate.Nand2 [| a; b |] = not (Gate.eval Gate.And2 [| a; b |]))

let prop_double_flip_identity =
  (* Flipping the same net during two separate runs yields the same
     outputs both times (determinism of the flip machinery). *)
  QCheck2.Test.make ~name:"flip determinism" ~count:100
    QCheck2.Gen.(pair bool bool)
    (fun (x, y) ->
      let nl = tiny_and () in
      let st = Eval.create nl in
      let z = Netlist.find_output nl "z" in
      let a = Eval.run_with_flip st [| x; y |] ~flip_net:z in
      let b = Eval.run_with_flip st [| x; y |] ~flip_net:z in
      a = b)

let prop_gate_eval_total =
  QCheck2.Test.make ~name:"gate eval total over truth table" ~count:200
    QCheck2.Gen.(pair gen_kind (int_bound 7))
    (fun (k, v) ->
      let ins = bools_of_int (Gate.arity k) (v land ((1 lsl Gate.arity k) - 1)) in
      let r = Gate.eval k ins in
      r || not r)

let () =
  Alcotest.run "netlist"
    [
      ( "gate",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_truth_tables;
          Alcotest.test_case "arity check" `Quick test_gate_arity_check;
          Alcotest.test_case "name roundtrip" `Quick test_gate_names_roundtrip;
          Alcotest.test_case "parameters positive" `Quick test_gate_parameters_positive;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "no outputs" `Quick test_builder_no_outputs;
          Alcotest.test_case "duplicate outputs" `Quick test_builder_duplicate_output_names;
          Alcotest.test_case "arity mismatch" `Quick test_builder_arity_mismatch;
          Alcotest.test_case "unknown net" `Quick test_builder_unknown_net;
          Alcotest.test_case "constant dedup" `Quick test_constants_dedup;
          Alcotest.test_case "driver/fanout" `Quick test_driver_fanout;
          Alcotest.test_case "area/depth" `Quick test_area_depth;
          Alcotest.test_case "topological order" `Quick test_topological_order;
        ] );
      ( "eval",
        [
          Alcotest.test_case "and table" `Quick test_eval_and;
          Alcotest.test_case "input mismatch" `Quick test_eval_input_mismatch;
          Alcotest.test_case "flip gate output" `Quick test_eval_with_flip_gate_output;
          Alcotest.test_case "flip masked" `Quick test_eval_with_flip_masked;
          Alcotest.test_case "flip input" `Quick test_eval_with_flip_input;
          Alcotest.test_case "net value" `Quick test_net_value;
          Alcotest.test_case "net value before run" `Quick test_net_value_before_run;
        ] );
      ( "packed",
        [
          Alcotest.test_case "lane mask" `Quick test_lane_mask;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "and truth table" `Quick test_packed_and;
          Alcotest.test_case "input mismatch" `Quick test_packed_input_mismatch;
          Alcotest.test_case "net value before run" `Quick
            test_packed_net_value_before_run;
          Alcotest.test_case "upset input" `Quick test_upset_input;
          Alcotest.test_case "upset constant" `Quick test_upset_constant;
          Alcotest.test_case "upset output net" `Quick test_upset_output_net;
          Alcotest.test_case "upset last gate" `Quick test_upset_last_gate;
          Alcotest.test_case "upset needs a good run" `Quick test_upset_needs_good_run;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "deterministic" `Quick test_fingerprint_deterministic;
          Alcotest.test_case "distinguishes" `Quick test_fingerprint_distinguishes;
        ] );
      ( "delay",
        [
          Alcotest.test_case "monotone in depth" `Quick test_delay_monotone_in_depth;
          Alcotest.test_case "fanout load" `Quick test_delay_fanout_load;
          Alcotest.test_case "positive caps" `Quick test_load_capacitance_positive;
          Alcotest.test_case "critical path nets" `Quick test_critical_path_nets;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "all kinds" `Quick test_verilog_all_kinds_emit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_demorgan;
            prop_double_flip_identity;
            prop_gate_eval_total;
            prop_packed_matches_scalar;
            prop_packed_flip_matches_scalar;
          ] );
    ]
