module Design = Rchls_core.Design
module Library = Rchls_charlib.Library
module Resource = Rchls_charlib.Resource
module Engine = Rchls_core.Engine
module Binding = Rchls_binding.Binding
open Rchls_dfg

(* Ref [3] predates reliability-characterized libraries: its single
   version per class is the fastest one, with ties broken by area (the
   cost the methodology optimizes), not by reliability — with Table 1
   that selects Adder 2 / Multiplier 2, matching the published
   baseline reliabilities (0.969 per operation). *)
let fixed_version lib cls =
  match Library.versions lib cls with
  | [] -> raise Not_found
  | v :: rest ->
    List.fold_left
      (fun (best : Resource.t) (x : Resource.t) ->
        if
          x.delay < best.delay
          || (x.delay = best.delay && x.area < best.area)
          || (x.delay = best.delay && x.area = best.area && x.id < best.id)
        then x
        else best)
      v rest

let base_design ?(scheduler = `Density) g lib ~ld =
  let assignment (nd : Dfg.node) = fixed_version lib (Op.resource_class nd.op) in
  let delay (nd : Dfg.node) = (assignment nd).Resource.delay in
  let min_latency = Analysis.asap_latency g ~delay in
  if min_latency > ld then
    Error (Engine.Latency_infeasible { best_achievable = min_latency })
  else
    match Design.realize ~scheduler g lib ~assignment ~latency:ld with
    | Ok d -> Ok d
    | Error e -> Error (Engine.Scheduling_error e)

(* One protection upgrade: (instance index, new level, copy cost,
   log-reliability gain). *)
let upgrade_candidates t =
  List.concat
    (List.mapi
       (fun i ((inst : Binding.instance), level) ->
         let r = inst.resource.Resource.reliability in
         let ops = float_of_int (List.length inst.ops) in
         let cost = inst.resource.Resource.area in
         let gain_to lvl' =
           ops *. (log (Nmr_design.boosted lvl' r) -. log (Nmr_design.boosted level r))
         in
         match level with
         | Nmr_design.Simplex ->
           [ (i, Nmr_design.Duplex, cost, gain_to Nmr_design.Duplex);
             (i, Nmr_design.Tmr, 2 * cost, gain_to Nmr_design.Tmr) ]
         | Nmr_design.Duplex -> [ (i, Nmr_design.Tmr, cost, gain_to Nmr_design.Tmr) ]
         | Nmr_design.Tmr -> [])
       (Nmr_design.levels t))

let add_redundancy ?certificate t ~ad =
  (* The greedy trajectory depends on [ad] only through each step's
     affordable set: a positive-gain candidate is in it iff
     [area t + cost <= ad].  Recording those comparisons confines [ad]
     to the interval of bounds replaying the identical step sequence —
     the certificate the design-space explorer derives cells from.
     Zero-gain candidates are excluded for every bound, so their cost
     comparison constrains nothing. *)
  let lo = ref 1 and hi = ref max_int in
  let fits a =
    if a <= ad then begin
      if a > !lo then lo := a;
      true
    end
    else begin
      if a - 1 < !hi then hi := a - 1;
      false
    end
  in
  let rec go t =
    let area = Nmr_design.area t in
    let affordable =
      List.filter
        (fun (_, _, cost, gain) -> gain > 0. && fits (area + cost))
        (upgrade_candidates t)
    in
    match affordable with
    | [] -> t
    | _ ->
      let best =
        List.fold_left
          (fun (bi, bl, bc, bg) (i, l, c, g) ->
            if g /. float_of_int c > bg /. float_of_int bc then (i, l, c, g)
            else (bi, bl, bc, bg))
          (List.hd affordable) (List.tl affordable)
      in
      let i, l, _, _ = best in
      go (Nmr_design.protect t ~instance_index:i l)
  in
  let t' = go t in
  (match certificate with Some c -> c := (!lo, !hi) | None -> ());
  t'

let synthesize ?(scheduler = `Density) ?certificate g lib ~ld ~ad =
  Rchls_util.Trace.with_span "redundancy.orailoglu" @@ fun () ->
  Rchls_util.Telemetry.incr "redundancy.runs";
  let set c = match certificate with Some r -> r := c | None -> () in
  match base_design ~scheduler g lib ~ld with
  | Error e ->
    (* The base design never consults the area bound. *)
    set (1, max_int);
    Error e
  | Ok d ->
    let t = Nmr_design.of_design d in
    let a = Nmr_design.area t in
    if a > ad then begin
      set (1, a - 1);
      Error (Engine.Area_infeasible { best_achieved = a })
    end
    else begin
      let inner = ref (1, max_int) in
      let t' = add_redundancy ~certificate:inner t ~ad in
      let ilo, ihi = !inner in
      set (Int.max a ilo, ihi);
      Ok t'
    end
