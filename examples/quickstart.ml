(* Quickstart: synthesize a small data-flow graph with the paper's
   Table-1 library and print the resulting design.

   Run with: dune exec examples/quickstart.exe *)

module Dfg = Rchls_dfg.Dfg
module Op = Rchls_dfg.Op
module Library = Rchls_charlib.Library
module Engine = Rchls_core.Engine
module Design = Rchls_core.Design

let () =
  (* 1. Describe the behaviour: a 4-tap dot product
        y = x0*c0 + x1*c1 + x2*c2 + x3*c3. *)
  let graph =
    Dfg.create_exn ~name:"dot4"
      ~nodes:
        [
          ("m0", Op.Mul); ("m1", Op.Mul); ("m2", Op.Mul); ("m3", Op.Mul);
          ("s0", Op.Add); ("s1", Op.Add); ("s2", Op.Add);
        ]
      ~edges:
        [
          ("m0", "s0"); ("m1", "s0"); ("s0", "s1"); ("m2", "s1"); ("s1", "s2");
          ("m3", "s2");
        ]
  in
  Format.printf "behaviour: %a@.@." Dfg.pp_summary graph;

  (* 2. Pick the component library (the paper's Table 1). *)
  let library = Library.table1 in
  Format.printf "library:@.%a@." Library.pp library;

  (* 3. Synthesize under a latency bound of 7 cycles and an area bound
        of 8 units, maximizing reliability. *)
  match Engine.synthesize graph library ~ld:7 ~ad:8 with
  | Error f -> Format.printf "%a@." Engine.pp_failure f
  | Ok design ->
    Format.printf "%a@." Design.pp_report design;
    (* 4. Compare against a single-version design. *)
    (match Rchls_redundancy.Orailoglu.base_design graph library ~ld:7 with
    | Ok fixed ->
      Format.printf "single fastest version everywhere: R=%.5f@."
        (Design.reliability fixed);
      Format.printf "reliability-centric improvement:   %+.2f%%@."
        ((Design.reliability design -. Design.reliability fixed)
        /. Design.reliability fixed *. 100.)
    | Error f -> Format.printf "%a@." Engine.pp_failure f)
