open Rchls_dfg
module Resource = Rchls_charlib.Resource

type t = { latency : int; add : float array; mul : float array }

let row t cls = match cls with Resource.Add -> t.add | Resource.Mul -> t.mul

let build ?(exclude = -1) g ~delay ~ranges ~fixed =
  let latency = ranges.Analysis.latency in
  let t = { latency; add = Array.make latency 0.; mul = Array.make latency 0. } in
  List.iter
    (fun (nd : Dfg.node) ->
      if nd.id = exclude then ()
      else
      let d = delay nd in
      let cls = Op.resource_class nd.op in
      let arr = row t cls in
      let deposit p s =
        for step = s to Int.min (latency - 1) (s + d - 1) do
          arr.(step) <- arr.(step) +. p
        done
      in
      match fixed nd.id with
      | Some s -> deposit 1. s
      | None ->
        let lo = ranges.Analysis.asap.(nd.id) and hi = ranges.Analysis.alap.(nd.id) in
        let p = 1. /. float_of_int (hi - lo + 1) in
        for s = lo to hi do
          deposit p s
        done)
    (Dfg.nodes g);
  t

let get t cls step = if step < 0 || step >= t.latency then 0. else (row t cls).(step)

let placement_cost t cls ~start ~delay =
  let total = ref 0. in
  for step = start to start + delay - 1 do
    total := !total +. get t cls step
  done;
  !total

let pp ppf t =
  for step = 0 to t.latency - 1 do
    Format.fprintf ppf "step %2d: add %.3f mul %.3f@." (step + 1) t.add.(step) t.mul.(step)
  done

(* --- incremental distribution ---------------------------------------

   The scheduler's hot path cannot afford a fresh [build] per placed
   node.  [Dist] keeps the same distribution as integer counts: for
   each (class, step, denominator k) it stores how many candidate
   start positions of mobility-(k-1) operations cover that step.  A
   node with range [lo..hi] and delay d contributes, at step t, the
   count of starts s in [lo..hi] whose execution [s..s+d-1] covers t,
   all with denominator k = hi-lo+1 (fixed nodes are the k = 1 case).

   Because the stored state is integral, additions and removals are
   exact: the counts after any sequence of range updates equal the
   counts built fresh from the final ranges.  The float density of a
   step is rendered from its counts on demand, always in ascending-k
   order, so equal counts produce bit-equal floats no matter the
   update history.  This is the exactness argument that lets the
   incremental scheduler promise schedules identical to a full
   per-placement recompute (see [Density_sched.run_reference] and the
   QCheck equivalence property). *)

module Dist = struct
  type t = {
    latency : int;
    kmax : int;  (* largest live denominator; counts are (step, k-1) *)
    inv : float array;  (* inv.(k-1) = 1/k *)
    add_counts : int array;
    mul_counts : int array;
    add_dens : float array;  (* cached render, invalidated per step *)
    mul_dens : float array;
    add_dirty : bool array;
    mul_dirty : bool array;
  }

  let create ~latency ~kmax =
    let kmax = Int.max 1 kmax in
    {
      latency;
      kmax;
      inv = Array.init kmax (fun i -> 1. /. float_of_int (i + 1));
      add_counts = Array.make (latency * kmax) 0;
      mul_counts = Array.make (latency * kmax) 0;
      add_dens = Array.make latency 0.;
      mul_dens = Array.make latency 0.;
      add_dirty = Array.make latency false;
      mul_dirty = Array.make latency false;
    }

  let counts t cls =
    match cls with Resource.Add -> t.add_counts | Resource.Mul -> t.mul_counts

  let dirty t cls =
    match cls with Resource.Add -> t.add_dirty | Resource.Mul -> t.mul_dirty

  let dens t cls =
    match cls with Resource.Add -> t.add_dens | Resource.Mul -> t.mul_dens

  (* [update ~sign] adds or removes the contribution of one node with
     start range [lo..hi] and delay [d].  Empty ranges contribute
     nothing (matching [build], whose deposit loop never runs). *)
  let update t cls ~lo ~hi ~d ~sign =
    if hi >= lo then begin
      let k = hi - lo + 1 in
      if k > t.kmax then
        invalid_arg
          (Printf.sprintf "Density.Dist: denominator %d exceeds capacity %d" k t.kmax);
      let counts = counts t cls and dirty = dirty t cls in
      let t_hi = Int.min (t.latency - 1) (hi + d - 1) in
      for step = lo to t_hi do
        (* Number of starts in [lo..hi] whose execution covers [step]. *)
        let w = Int.min hi step - Int.max lo (step - d + 1) + 1 in
        counts.((step * t.kmax) + k - 1) <- counts.((step * t.kmax) + k - 1) + (sign * w);
        dirty.(step) <- true
      done
    end

  let add t cls ~lo ~hi ~d = update t cls ~lo ~hi ~d ~sign:1
  let remove t cls ~lo ~hi ~d = update t cls ~lo ~hi ~d ~sign:(-1)

  (* Deterministic render: ascending k, zero counts skipped (adding an
     exact 0.0 would not change the sum, so skipping is equivalent and
     capacity-independent). *)
  let density t cls step =
    if step < 0 || step >= t.latency then 0.
    else begin
      let dens = dens t cls and dirty = dirty t cls in
      if dirty.(step) then begin
        let counts = counts t cls in
        let acc = ref 0. in
        let base = step * t.kmax in
        for ki = 0 to t.kmax - 1 do
          let c = counts.(base + ki) in
          if c <> 0 then acc := !acc +. (float_of_int c *. t.inv.(ki))
        done;
        dens.(step) <- !acc;
        dirty.(step) <- false
      end;
      dens.(step)
    end

  let cost t cls ~start ~delay =
    let total = ref 0. in
    for step = start to start + delay - 1 do
      total := !total +. density t cls step
    done;
    !total
end

let constrained_ranges g ~delay ~latency ~fixed =
  let n = Dfg.node_count g in
  let asap = Array.make n 0 in
  List.iter
    (fun (nd : Dfg.node) ->
      let earliest =
        List.fold_left
          (fun acc p -> Int.max acc (asap.(p) + delay (Dfg.node g p)))
          0 (Dfg.preds g nd.id)
      in
      asap.(nd.id) <- (match fixed nd.id with Some s -> s | None -> earliest))
    (Dfg.topological g);
  let alap = Array.make n 0 in
  List.iter
    (fun (nd : Dfg.node) ->
      let d = delay nd in
      let latest =
        List.fold_left (fun acc s -> Int.min acc (alap.(s) - d)) (latency - d)
          (Dfg.succs g nd.id)
      in
      alap.(nd.id) <- (match fixed nd.id with Some s -> s | None -> latest))
    (List.rev (Dfg.topological g));
  (asap, alap)
