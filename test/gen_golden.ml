(* Golden-output generator for the RTL back-end: prints the emitted
   Verilog (or the cost-model breakdown) for a fixed benchmark design
   to stdout.  Paired with `(diff golden/... ...)` runtest rules so any
   drift in the datapath, the emitter or the cost weights shows up as a
   reviewable diff; refresh intentionally with `dune promote`.

   [force] prints the force-directed scheduler's start steps for every
   paper benchmark under two delay models at two latency bounds; its
   golden pins the scheduler's (node, step) tie-break. *)

open Rchls_dfg
module Library = Rchls_charlib.Library
module Design = Rchls_core.Design
module Datapath = Rchls_rtl.Datapath
module Cost = Rchls_rtl.Cost
module Emit = Rchls_rtl.Emit
module Resource = Rchls_charlib.Resource
module Schedule = Rchls_sched.Schedule
module Force_directed = Rchls_sched.Force_directed

let lib = Library.table1

let design_of ~latency g =
  let assignment (nd : Dfg.node) =
    Library.most_reliable lib (Op.resource_class nd.op)
  in
  Design.realize_exn g lib ~assignment ~latency

let datapath_of = function
  | "diffeq" -> Datapath.build (design_of ~latency:10 Benchmarks.diffeq)
  | "ewf" -> Datapath.build (design_of ~latency:28 Benchmarks.ewf)
  | name -> failwith ("unknown benchmark " ^ name)

(* Delay models: Table 1's most reliable versions (2 steps each) and
   its fastest (1 step each); latency bounds: ASAP and ASAP + 2. *)
let force_directed () =
  let models =
    [ ("reliable", Library.most_reliable lib); ("fastest", Library.fastest lib) ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (model, version) ->
          let delay (nd : Dfg.node) = (version (Op.resource_class nd.op)).Resource.delay in
          let asap = Analysis.asap_latency g ~delay in
          List.iter
            (fun latency ->
              let s = Force_directed.run_exn g ~delay ~latency in
              Printf.printf "%s %s L=%d:" name model latency;
              for id = 0 to Dfg.node_count g - 1 do
                Printf.printf " %d" (Schedule.start s id)
              done;
              print_newline ())
            [ asap; asap + 2 ])
        models)
    Benchmarks.all

let () =
  match Sys.argv with
  | [| _; "force" |] -> force_directed ()
  | [| _; "verilog"; bench |] -> print_string (Emit.to_string (datapath_of bench))
  | [| _; "cost"; bench |] ->
    let dp = datapath_of bench in
    Format.printf "%s: %a@." bench Cost.pp (Cost.evaluate dp);
    Format.printf "%s: registers %d, mux inputs %d, max live %d@." bench
      dp.Datapath.register_count dp.Datapath.mux_inputs (Datapath.max_live dp)
  | _ ->
    prerr_endline "usage: gen_golden ((verilog|cost) (diffeq|ewf) | force)";
    exit 2
