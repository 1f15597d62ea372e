open Rchls_dfg
module Analysis = Rchls_dfg.Analysis
module Resource = Rchls_charlib.Resource

let constrained_ranges = Density.constrained_ranges

let check_latency g ~delay ~latency =
  let min_latency = Analysis.asap_latency g ~delay in
  if latency < min_latency then
    Error
      (Printf.sprintf "latency bound %d below ASAP latency %d" latency min_latency)
  else Ok ()

(* Mobility from the unconstrained ranges drives the placement order:
   tightest operations first. *)
let placement_order g r0 =
  List.sort
    (fun (a : Dfg.node) (b : Dfg.node) ->
      let ma = Analysis.mobility r0 a.id and mb = Analysis.mobility r0 b.id in
      let c = compare ma mb in
      if c <> 0 then c else compare a.id b.id)
    (Dfg.nodes g)

(* Least-dense start in [lo..hi].  Shared by the incremental and
   reference paths so tie handling (strict 1e-12 improvement, lowest
   step wins) is identical. *)
let least_dense ~lo ~hi cost =
  let best = ref lo and best_cost = ref infinity in
  for s = lo to hi do
    let c = cost s in
    if c < !best_cost -. 1e-12 then begin
      best := s;
      best_cost := c
    end
  done;
  !best

let run g ~delay ~latency =
  Rchls_util.Trace.with_span "sched.density" @@ fun () ->
  Rchls_util.Telemetry.incr "sched.runs";
  let n = Dfg.node_count g in
  let delays = Array.make n 0 in
  let cls = Array.make n Resource.Add in
  Dfg.iter_nodes g (fun (nd : Dfg.node) ->
      delays.(nd.id) <- delay nd;
      cls.(nd.id) <- Op.resource_class nd.op);
  (* One ASAP pass serves both the feasibility check and the initial
     ranges (the [check_latency] + [Analysis.ranges] split recomputed
     it). *)
  let asap = Analysis.asap g ~delay in
  let min_latency = ref 0 in
  for id = 0 to n - 1 do
    min_latency := max !min_latency (asap.(id) + delays.(id))
  done;
  if latency < !min_latency then
    Error
      (Printf.sprintf "latency bound %d below ASAP latency %d" latency !min_latency)
  else begin
    let chosen = Array.make n (-1) in
    let alap = Analysis.alap g ~delay ~latency in
    (* [placement_order] consumes the ranges eagerly, before [asap] and
       [alap] are mutated by placements, so no defensive copy. *)
    let order = placement_order g { Analysis.asap; alap; latency } in
    let kmax = ref 1 in
    for id = 0 to n - 1 do
      kmax := max !kmax (alap.(id) - asap.(id) + 1)
    done;
    let dist = Density.Dist.create ~latency ~kmax:!kmax in
    for id = 0 to n - 1 do
      Density.Dist.add dist cls.(id) ~lo:asap.(id) ~hi:alap.(id) ~d:delays.(id)
    done;
    let topo = Array.of_list (Dfg.topological g) in
    let rank = Array.make n 0 in
    Array.iteri (fun i (nd : Dfg.node) -> rank.(nd.id) <- i) topo;
    let pending = Array.make n false in
    (* Move one node's mass to its new range. *)
    let retighten j ~asap' ~alap' =
      if asap' <> asap.(j) || alap' <> alap.(j) then begin
        Density.Dist.remove dist cls.(j) ~lo:asap.(j) ~hi:alap.(j) ~d:delays.(j);
        asap.(j) <- asap';
        alap.(j) <- alap';
        Density.Dist.add dist cls.(j) ~lo:asap.(j) ~hi:alap.(j) ~d:delays.(j);
        true
      end
      else false
    in
    (* Re-tighten ranges around the just-fixed node.  Processing in
       topological rank order reaches the same fixpoint as the full
       [constrained_ranges] recompute: every recomputation reads final
       predecessor (resp. successor) values, and fixing a node only
       raises downstream ASAPs and lowers upstream ALAPs, leaving the
       rest of the recurrence untouched. *)
    let propagate_asap id =
      List.iter (fun s -> pending.(s) <- true) (Dfg.succs g id);
      for i = rank.(id) + 1 to n - 1 do
        let j = topo.(i).Dfg.id in
        if pending.(j) then begin
          pending.(j) <- false;
          if chosen.(j) < 0 then begin
            let earliest =
              List.fold_left
                (fun acc p -> max acc (asap.(p) + delays.(p)))
                0 (Dfg.preds g j)
            in
            if retighten j ~asap':earliest ~alap':alap.(j) then
              List.iter (fun s -> pending.(s) <- true) (Dfg.succs g j)
          end
        end
      done
    in
    let propagate_alap id =
      List.iter (fun p -> pending.(p) <- true) (Dfg.preds g id);
      for i = rank.(id) - 1 downto 0 do
        let j = topo.(i).Dfg.id in
        if pending.(j) then begin
          pending.(j) <- false;
          if chosen.(j) < 0 then begin
            let latest =
              List.fold_left
                (fun acc s -> min acc (alap.(s) - delays.(j)))
                (latency - delays.(j))
                (Dfg.succs g j)
            in
            if retighten j ~asap':asap.(j) ~alap':latest then
              List.iter (fun p -> pending.(p) <- true) (Dfg.preds g j)
          end
        end
      done
    in
    let place (nd : Dfg.node) =
      let id = nd.id in
      let lo = asap.(id) and hi = alap.(id) in
      if lo > hi then Error (Printf.sprintf "no feasible step for node %s" nd.name)
      else begin
        let d = delays.(id) and c = cls.(id) in
        (* Exclude the node's own mass while scanning, exactly as
           [Density.build ~exclude] did. *)
        Density.Dist.remove dist c ~lo ~hi ~d;
        let s =
          least_dense ~lo ~hi (fun s -> Density.Dist.cost dist c ~start:s ~delay:d)
        in
        chosen.(id) <- s;
        asap.(id) <- s;
        alap.(id) <- s;
        Density.Dist.add dist c ~lo:s ~hi:s ~d;
        propagate_asap id;
        propagate_alap id;
        Ok ()
      end
    in
    let rec go = function
      | [] -> Ok ()
      | nd :: rest -> ( match place nd with Ok () -> go rest | Error _ as e -> e)
    in
    match go order with
    | Error e -> Error e
    | Ok () -> Schedule.make g ~delay ~starts:chosen
  end

(* The historical algorithm: a fresh constrained-range pass and a fresh
   distribution per placed node.  Kept as the oracle for the
   incremental path (QCheck equivalence) and as the reference arm of
   the [synth] gate of [bench gates].  It shares [Density.Dist]'s cost
   rendering and [least_dense], so any divergence from [run] isolates a
   propagation bug rather than float noise. *)
let run_reference g ~delay ~latency =
  Rchls_util.Trace.with_span "sched.density_reference" @@ fun () ->
  Rchls_util.Telemetry.incr "sched.reference_runs";
  match check_latency g ~delay ~latency with
  | Error _ as e -> e
  | Ok () ->
    let n = Dfg.node_count g in
    let chosen = Array.make n (-1) in
    let fixed id = if chosen.(id) >= 0 then Some chosen.(id) else None in
    let r0 = Analysis.ranges g ~delay ~latency in
    let order = placement_order g r0 in
    let place (nd : Dfg.node) =
      let asap, alap = constrained_ranges g ~delay ~latency ~fixed in
      let kmax = ref 1 in
      Array.iteri (fun id lo -> kmax := max !kmax (alap.(id) - lo + 1)) asap;
      let dist = Density.Dist.create ~latency ~kmax:!kmax in
      Dfg.iter_nodes g (fun (other : Dfg.node) ->
          if other.id <> nd.id then
            Density.Dist.add dist
              (Op.resource_class other.op)
              ~lo:asap.(other.id) ~hi:alap.(other.id) ~d:(delay other));
      let d = delay nd and c = Op.resource_class nd.op in
      let lo = asap.(nd.id) and hi = alap.(nd.id) in
      if lo > hi then Error (Printf.sprintf "no feasible step for node %s" nd.name)
      else begin
        chosen.(nd.id) <-
          least_dense ~lo ~hi (fun s -> Density.Dist.cost dist c ~start:s ~delay:d);
        Ok ()
      end
    in
    let rec go = function
      | [] -> Ok ()
      | nd :: rest -> ( match place nd with Ok () -> go rest | Error _ as e -> e)
    in
    (match go order with
    | Error e -> Error e
    | Ok () -> Schedule.make g ~delay ~starts:chosen)

let run_exn g ~delay ~latency =
  match run g ~delay ~latency with
  | Ok s -> s
  | Error e -> failwith ("Density_sched.run: " ^ e)
