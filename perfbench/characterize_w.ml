(* characterize: the paper's component characterization.  One
   operation is one bit-parallel fault-injection campaign
   ([Fault_sim.Campaign.run]) on a catalog adder or multiplier at width
   8 or 16, with a seed of its own so the report memo never answers.
   Without this workload the netlist, circuits, soft-error and charlib
   layers would go unmeasured. *)

open Harness
module Catalog = Rchls_circuits.Catalog
module Netlist = Rchls_netlist.Netlist
module Eval_packed = Rchls_netlist.Eval_packed
module Fault_sim = Rchls_soft_error.Fault_sim

let widths = [ 8; 16 ]

(* Reports checked against the scalar reference engine: the first
   pass's campaigns on netlists of at most this many gates (the scalar
   engine costs about a hundred times the bit-parallel one). *)
let scalar_check_gates = 256

type component = { entry : Catalog.entry; width : int; netlist : Netlist.t }
type state = { seed : int; components : component array }

let components () =
  Array.of_list
    (List.concat_map
       (fun (e : Catalog.entry) ->
         if e.family = Catalog.Adder || e.family = Catalog.Multiplier then
           List.map (fun width -> { entry = e; width; netlist = e.build ~width }) widths
         else [])
       Catalog.all)

let config st ~pass k =
  {
    Fault_sim.Campaign.default with
    seed = 1 + (((st.seed * 7919) + (pass * Array.length st.components) + k) land 0x3fffffff);
    domains = Some 1;
  }

let op st ~pass k =
  try Ok (Fault_sim.Campaign.run ~config:(config st ~pass k) st.components.(k).netlist)
  with e -> Error (Printexc.to_string e)

let setup ~seed =
  let st = { seed; components = components () } in
  Array.iteri (fun k _ -> ignore (op st ~pass:(-1) k)) st.components;
  Fault_sim.Campaign.cache_clear ();
  st

let same_report (a : Fault_sim.report) (b : Fault_sim.report) =
  a.nodes = b.nodes && a.sampled_fraction = b.sampled_fraction

(* Every campaign must complete; the first pass's campaigns on small
   netlists must equal the scalar reference engine's reports.  Later
   passes run other seeds, so they repeat only the completion. *)
let valid st k = function
  | Error _ -> false
  | Ok report ->
    let c = st.components.(k) in
    Netlist.gate_count c.netlist > scalar_check_gates
    || same_report report (Fault_sim.Campaign.run_scalar ~config:(config st ~pass:0 k) c.netlist)

let digest = function Ok _ -> "ok" | Error e -> "error: " ^ e

let reports results =
  Array.to_list results |> List.filter_map (function Ok r -> Some r | Error _ -> None)

let layers st (phase : _ phase) spans ~per_op =
  let ops = float_of_int (Array.length phase.latencies_ms) in
  let comps = Array.to_list st.components in
  let hits = per_op "fault.cache.hits" and misses = per_op "fault.cache.misses" in
  let rng = Rng.create st.seed in
  let packed =
    List.map
      (fun c ->
        let state = Eval_packed.create c.netlist in
        let inputs = Array.map (fun _ -> Rng.bits rng) (Netlist.inputs c.netlist) in
        (state, inputs))
      comps
  in
  [
    ("circuits.build_ms", replay_us comps (fun c -> c.entry.build ~width:c.width) /. 1e3);
    ("netlist.eval_packed_us", replay_us packed (fun (s, i) -> Eval_packed.run s i));
    ("fault.campaign_ms", span_total_ms spans "fault.campaign" /. ops);
    ("fault.node_self_ms", span_self_ms spans "fault.node" /. ops);
    ("fault.nodes", per_op "fault.nodes");
    ("fault.injections", per_op "fault.injections");
    ("fault.batches", per_op "fault.batches");
    ("fault.injections_per_s", per_op "fault.injections" *. ops /. phase.elapsed_s);
    ("fault.cache_hit_ratio", hits /. (hits +. misses));
  ]

let workload =
  {
    name = "characterize";
    setup;
    teardown = ignore;
    ops = (fun st -> Array.length st.components);
    op;
    guarded = [ "fault.injections"; "fault.nodes"; "fault.batches"; "fault.cache.misses" ];
    result_counts = (fun _ -> []);
    (* each campaign has its own seed, so memoized reports are never
       read again; dropping them keeps memory flat across passes *)
    on_pass_end = Fault_sim.Campaign.cache_clear;
    digest;
    valid;
    quality =
      (fun _ phase -> geomean (List.map Fault_sim.average_derating (reports phase.first)));
    summary =
      (fun st _ ->
        Printf.sprintf "characterize: %d components (adders and multipliers at widths %s)"
          (Array.length st.components)
          (String.concat ", " (List.map string_of_int widths)));
    layers;
  }
