open Rchls_dfg
module Analysis = Rchls_dfg.Analysis

let mean_cost dens cls d lo hi =
  if lo > hi then 0.
  else begin
    let total = ref 0. in
    for s = lo to hi do
      total := !total +. Density.placement_cost dens cls ~start:s ~delay:d
    done;
    !total /. float_of_int (hi - lo + 1)
  end

let run g ~delay ~latency =
  Rchls_util.Trace.with_span "sched.force_directed" @@ fun () ->
  Rchls_util.Telemetry.incr "sched.runs";
  let min_latency = Analysis.asap_latency g ~delay in
  if latency < min_latency then
    Error (Printf.sprintf "latency bound %d below ASAP latency %d" latency min_latency)
  else begin
    let n = Dfg.node_count g in
    let chosen = Array.make n (-1) in
    let fixed id = if chosen.(id) >= 0 then Some chosen.(id) else None in
    let remaining = ref (List.map (fun (nd : Dfg.node) -> nd) (Dfg.nodes g)) in
    let error = ref None in
    while !remaining <> [] && !error = None do
      let asap, alap = Density.constrained_ranges g ~delay ~latency ~fixed in
      let ranges = { Analysis.asap; alap; latency } in
      let dens = Density.build g ~delay ~ranges ~fixed in
      (* Evaluate the force of every feasible placement of every
         unscheduled node and commit the global minimum. *)
      let best = ref None in
      List.iter
        (fun (nd : Dfg.node) ->
          let d = delay nd in
          let cls = Op.resource_class nd.op in
          let lo = asap.(nd.id) and hi = alap.(nd.id) in
          if lo > hi then error := Some (Printf.sprintf "no feasible step for %s" nd.name)
          else
            for s = lo to hi do
              (* Self force: this placement's cost against the mean of
                 the node's current candidates. *)
              let self =
                Density.placement_cost dens cls ~start:s ~delay:d
                -. mean_cost dens cls d lo hi
              in
              (* Neighbor forces: tightening induced on the other
                 unscheduled nodes. *)
              let fixed_with_candidate id = if id = nd.id then Some s else fixed id in
              let asap', alap' =
                Density.constrained_ranges g ~delay ~latency ~fixed:fixed_with_candidate
              in
              let neighbor = ref 0. in
              List.iter
                (fun (m : Dfg.node) ->
                  if m.id <> nd.id && chosen.(m.id) < 0 then begin
                    let dm = delay m in
                    let cm = Op.resource_class m.op in
                    if asap'.(m.id) <> asap.(m.id) || alap'.(m.id) <> alap.(m.id) then
                      neighbor :=
                        !neighbor
                        +. mean_cost dens cm dm asap'.(m.id) alap'.(m.id)
                        -. mean_cost dens cm dm asap.(m.id) alap.(m.id)
                  end)
                (Dfg.nodes g);
              let force = self +. !neighbor in
              match !best with
              | Some (_, _, f) when f <= force -. 1e-12 -> ()
              | Some (bn, bs, f)
                when Float.abs (f -. force) <= 1e-12
                     && (bn < nd.id || (bn = nd.id && bs <= s)) ->
                ()
              | _ -> best := Some (nd.id, s, force)
            done)
        !remaining;
      (match (!error, !best) with
      | Some _, _ -> ()
      | None, None -> error := Some "no candidate placement (bug)"
      | None, Some (id, s, _) ->
        chosen.(id) <- s;
        remaining := List.filter (fun (m : Dfg.node) -> m.id <> id) !remaining)
    done;
    match !error with
    | Some e -> Error e
    | None -> Schedule.make g ~delay ~starts:chosen
  end

let run_exn g ~delay ~latency =
  match run g ~delay ~latency with
  | Ok s -> s
  | Error e -> failwith ("Force_directed.run: " ^ e)
