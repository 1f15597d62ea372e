open Rchls_dfg

let run g ~delay ~group ~group_area ~latency =
  Rchls_util.Trace.with_span "sched.min_area" @@ fun () ->
  Rchls_util.Telemetry.incr "sched.runs";
  (* One ASAP pass for both the feasibility check and, below, the ALAP
     horizon validity. *)
  let asap0 = Analysis.asap g ~delay in
  let min_latency =
    List.fold_left
      (fun acc (nd : Dfg.node) -> Int.max acc (asap0.(nd.id) + delay nd))
      0 (Dfg.nodes g)
  in
  if latency < min_latency then
    Error (Printf.sprintf "latency bound %d below ASAP latency %d" latency min_latency)
  else begin
    (* ALAP urgency against the target horizon — feasible here (the
       bound was just checked), and identical for every limit vector
       probed below, so it is computed once instead of per probe, and
       the dispatcher ranks the nodes by it once.  Probes call
       [List_sched.dispatch] on raw start arrays; only the winning
       schedule is materialized and validated. *)
    let priority =
      Array.map (fun latest -> -latest) (Analysis.alap g ~delay ~latency)
    in
    let disp = List_sched.dispatcher g ~delay ~group ~prio:priority in
    let reps = List_sched.groups disp in
    let ngroups = Array.length reps in
    (* Per dense group code: op population and last position in
       [Dfg.nodes].  Probes run in descending last position — the
       order the reference's assoc list ends up in — because the
       first group wins gain ties. *)
    let busy = Array.make ngroups 0 and last = Array.make ngroups 0 in
    List.iteri
      (fun i (nd : Dfg.node) ->
        let c = List_sched.group_code disp nd.id in
        busy.(c) <- busy.(c) + delay nd;
        last.(c) <- i)
      (Dfg.nodes g);
    let order = Array.init ngroups Fun.id in
    Array.sort (fun a b -> Int.compare last.(b) last.(a)) order;
    let limits =
      Array.map (fun b -> Int.max 1 ((b + latency - 1) / latency)) busy
    in
    (* Limits are [max 1 ...] by construction, so the positivity check
       [List_sched.run] does is vacuous here.  A candidate carries its
       starts, latency and blocked-group flags, copied out of the
       dispatcher's scratch because the fit loop keeps candidates
       across probes. *)
    let probes = ref 0 and skipped = ref 0 in
    let schedule () =
      incr probes;
      let starts, lat = List_sched.dispatch disp ~limits in
      (Array.copy starts, lat, Array.copy (List_sched.blocked disp))
    in
    let rec fit ((starts, lat, blocked) as current) =
      if lat <= latency then Schedule.make g ~delay ~starts
      else begin
        (* Tentatively raise each group's limit by one; commit the one
           with the best latency reduction per unit area (ties: first
           group).  A group none of whose operations was refused a
           slot cannot move the dispatch when its limit rises (see
           [List_sched.blocked]), so its probe would return [current]
           exactly, at gain 0: skip the dispatch and use that. *)
        let best = ref None in
        Array.iter
          (fun c ->
            let ((_, lat', _) as s) =
              if blocked.(c) then begin
                limits.(c) <- limits.(c) + 1;
                let s = schedule () in
                limits.(c) <- limits.(c) - 1;
                s
              end
              else begin
                incr skipped;
                current
              end
            in
            let gain =
              float_of_int (lat - lat') /. float_of_int (Int.max 1 (group_area reps.(c)))
            in
            match !best with
            | Some (_, _, bg) when bg >= gain -> ()
            | _ -> best := Some (c, s, gain))
          order;
        match !best with
        | None -> Error "min_area: no groups (bug)"
        | Some (c, s, gain) ->
          if gain > 0. then begin
            limits.(c) <- limits.(c) + 1;
            fit s
          end
          else begin
            (* No single bump helps (the bottleneck needs several
               groups relaxed together): raise every group.  Once all
               limits saturate, the list schedule equals ASAP, which
               fits — so this terminates. *)
            Array.iteri (fun c l -> limits.(c) <- l + 1) limits;
            fit (schedule ())
          end
      end
    in
    let result = fit (schedule ()) in
    Rchls_util.Telemetry.add "sched.probes" !probes;
    Rchls_util.Telemetry.add "sched.probes_skipped" !skipped;
    result
  end

(* Old-equivalent shape: per-probe ALAP-priority recompute and a
   validated [Schedule.t] per probe, on the historical whole-graph
   dispatch loop.  Same results as [run]; kept for the benchmark's
   reference arm and as the oracle for the property tests. *)
let run_reference g ~delay ~group ~group_area ~latency =
  Rchls_util.Trace.with_span "sched.min_area_reference" @@ fun () ->
  Rchls_util.Telemetry.incr "sched.reference_runs";
  let min_latency = Analysis.asap_latency g ~delay in
  if latency < min_latency then
    Error (Printf.sprintf "latency bound %d below ASAP latency %d" latency min_latency)
  else begin
    let groups = ref [] in
    List.iter
      (fun (nd : Dfg.node) ->
        let k = group nd in
        match List.assoc_opt k !groups with
        | Some c -> groups := (k, c + delay nd) :: List.remove_assoc k !groups
        | None -> groups := (k, delay nd) :: !groups)
      (Dfg.nodes g);
    let limits = Hashtbl.create 8 in
    List.iter
      (fun (k, busy) ->
        Hashtbl.replace limits k (Int.max 1 ((busy + latency - 1) / latency)))
      !groups;
    let schedule_with limit_fn =
      match
        List_sched.run_reference ~priority_latency:latency g ~delay ~group
          ~limit:limit_fn
      with
      | Ok s -> s
      | Error e -> failwith ("List_sched.run: " ^ e)
    in
    let current () = schedule_with (fun k -> Hashtbl.find limits k) in
    let rec fit sched =
      if Schedule.latency sched <= latency then Ok sched
      else begin
        let best = ref None in
        List.iter
          (fun (k, _) ->
            let bump k' = if k' = k then Hashtbl.find limits k + 1 else Hashtbl.find limits k' in
            let s = schedule_with bump in
            let gain =
              float_of_int (Schedule.latency sched - Schedule.latency s)
              /. float_of_int (Int.max 1 (group_area k))
            in
            match !best with
            | Some (_, _, bg) when bg >= gain -> ()
            | _ -> best := Some (k, s, gain))
          !groups;
        match !best with
        | None -> Error "min_area: no groups (bug)"
        | Some (k, s, gain) ->
          if gain > 0. then begin
            Hashtbl.replace limits k (Hashtbl.find limits k + 1);
            fit s
          end
          else begin
            List.iter
              (fun (k', _) -> Hashtbl.replace limits k' (Hashtbl.find limits k' + 1))
              !groups;
            fit (current ())
          end
      end
    in
    fit (current ())
  end
