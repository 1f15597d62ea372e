(* From behaviour to RTL: synthesize the HAL differential-equation
   solver, derive the register/mux-level datapath, print the
   register-aware area breakdown (extension beyond the paper's
   FU-only area metric) and emit Verilog.

   Run with: dune exec examples/diffeq_rtl.exe *)

module Benchmarks = Rchls_dfg.Benchmarks
module Library = Rchls_charlib.Library
module Engine = Rchls_core.Engine
module Design = Rchls_core.Design
module Datapath = Rchls_rtl.Datapath
module Cost = Rchls_rtl.Cost
module Emit = Rchls_rtl.Emit

let () =
  let g = Benchmarks.diffeq in
  let lib = Library.table1 in
  match Engine.synthesize g lib ~ld:7 ~ad:11 with
  | Error f -> Format.printf "%a@." Engine.pp_failure f
  | Ok d ->
    Format.printf "%a@." Design.pp_report d;
    let dp = Datapath.build d in
    Printf.printf "datapath: %d shared registers (max %d live values), %d mux inputs\n"
      dp.Datapath.register_count (Datapath.max_live dp) dp.Datapath.mux_inputs;
    Format.printf "%a@.@." Cost.pp (Cost.evaluate dp);
    print_endline "--- generated Verilog ---";
    print_string (Emit.to_string dp)
