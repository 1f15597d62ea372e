module Library = Rchls_charlib.Library
module Resource = Rchls_charlib.Resource
module Engine = Rchls_core.Engine
module Design = Rchls_core.Design
module Dfg = Rchls_dfg.Dfg
module Analysis = Rchls_dfg.Analysis
module Op = Rchls_dfg.Op
module Pool = Rchls_util.Pool

type approach = Rchls_api.Request.approach = Ours | Baseline | Combined

type cell = Rchls_api.Response.cell = {
  ld : int;
  ad : int;
  reliability : float option;
  area : int option;
}

type stats = { cells : int; evaluated : int; derived : int }

type point = { p_ld : int; p_ad : int; p_reliability : float; p_area : int }

(* NMR designs never pass through the engine's realize path, so the
   [--check] hook cannot see their redundancy layer; validate them
   here when the checker is on. *)
let checked_nmr t =
  if Rchls_check.Check.enabled () then Rchls_check.Check.check_nmr_exn t;
  ( Some (Rchls_redundancy.Nmr_design.reliability t),
    Some (Rchls_redundancy.Nmr_design.area t) )

(* One raw grid cell, plus the synthesis layer's certified area-bound
   interval: every ad' in it provably produces the identical raw
   result (see [Engine.synthesize]'s certificate contract).  [cache]
   is one sharded evaluation cache shared by every cell (cells with nearby bounds realize many identical
   assignments). *)
let raw_cell_certified ?scheduler ?cache approach g lib ~ld ~ad =
  let cert = ref (1, max_int) in
  let raw =
    match approach with
    | Baseline -> (
      match
        Rchls_redundancy.Orailoglu.synthesize ?scheduler ~certificate:cert g
          lib ~ld ~ad
      with
      | Ok t -> checked_nmr t
      | Error _ -> (None, None))
    | Ours -> (
      match
        Engine.synthesize ?scheduler ?cache ~certificate:cert g lib ~ld ~ad
      with
      | Ok d -> (Some (Design.reliability d), Some (Design.area d))
      | Error _ -> (None, None))
    | Combined -> (
      match
        Rchls_redundancy.Combined.synthesize ?scheduler ?cache ~certificate:cert g lib
          ~ld ~ad
      with
      | Ok t -> checked_nmr t
      | Error _ -> (None, None))
  in
  (raw, !cert)

let raw_cell ?scheduler ?cache approach g lib ~ld ~ad =
  fst (raw_cell_certified ?scheduler ?cache approach g lib ~ld ~ad)

(* Monotone envelope: a cell inherits any dominated cell's better
   result.  The winner of cell (ld, ad) is its own raw result when
   nothing dominated beats it, otherwise the first cell in row-major
   grid order achieving the maximum reliability over all dominated
   cells — exactly the fixpoint of the historical O(cells^2) fold,
   computed in one dynamic-programming pass: the dominated set of grid
   cell (i, j) is the union of those of (i-1, j) and (i, j-1) plus the
   cell itself. *)
let envelope ~n_ads raw =
  let cells = Array.of_list raw in
  let n = Array.length cells in
  (* Per cell: the max reliability over its dominated set, and the
     row-major index of the first cell attaining it. *)
  let best = Array.make n (None, 0) in
  let better a b =
    (* is [a] strictly better than [b]? (None = infeasible = bottom) *)
    match (a, b) with
    | Some x, Some y -> x > y
    | Some _, None -> true
    | None, _ -> false
  in
  List.mapi
    (fun k ((ld, ad), ((r0, _) as own)) ->
      let i = k / n_ads and j = k mod n_ads in
      let candidates =
        (if i > 0 then [ best.(k - n_ads) ] else [])
        @ (if j > 0 then [ best.(k - 1) ] else [])
        @ [ (r0, k) ]
      in
      let winner =
        List.fold_left
          (fun (br, bk) (r, k') ->
            if better r br then (r, k')
            else if better br r then (br, bk)
            else (br, min bk k'))
          (List.hd candidates) (List.tl candidates)
      in
      best.(k) <- winner;
      let max_r, first_k = winner in
      let r, a =
        (* The fold this replaces started from the cell's own value and
           only replaced it on a strict improvement: ties keep the
           cell's own result. *)
        if not (better max_r r0) then own
        else snd cells.(first_k)
      in
      { ld; ad; reliability = r; area = a })
    raw

(* The frontier-guided raw grid.  Rows (fixed latency bound) are
   independent synthesis problems and fan out over the domain pool;
   within a row, columns are filled from certified intervals:
   repeatedly synthesize the largest still-unfilled area bound and
   copy its result into every grid column inside the returned
   interval.  Each evaluation discovers one complete decision-path
   plateau, so the number of synthesis calls per row equals the number
   of distinct trajectories the grid's columns intersect — and a
   latency-infeasible row (which never consults the area bound at all)
   costs exactly one call.  Latency rows are NOT derived from each
   other: the greedy is bound-path-dependent in the latency direction
   (documented in sweep.mli), so no analogous certificate exists
   there.

   Because every filled cell carries the result synthesis at its exact
   bounds would have produced, the output is cell-for-cell identical
   to the exhaustive grid — before and therefore after the envelope.
   The differential fuzz property [explore-differential] checks
   exactly this against [Sweep.run_reference]. *)
let pruned_raw ?domains ~evaluate ~lds ~ads () =
  let ads_arr = Array.of_list ads in
  let n_ads = Array.length ads_arr in
  let row ld =
    let filled = Array.make n_ads None in
    let evals = ref 0 in
    let rec largest_unfilled i =
      if i < 0 then None
      else if filled.(i) = None then Some i
      else largest_unfilled (i - 1)
    in
    let rec loop () =
      match largest_unfilled (n_ads - 1) with
      | None -> ()
      | Some j ->
        let raw, (lo, hi) = evaluate ~ld ~ad:ads_arr.(j) in
        incr evals;
        for i = 0 to n_ads - 1 do
          if filled.(i) = None && ads_arr.(i) >= lo && ads_arr.(i) <= hi then
            filled.(i) <- Some raw
        done;
        (* A certificate always contains its own query point when the
           bound is positive; a non-positive [ad] (below any certified
           interval) still fills its own cell directly. *)
        if filled.(j) = None then filled.(j) <- Some raw;
        loop ()
    in
    loop ();
    (Array.map Option.get filled, !evals)
  in
  let rows = Pool.map_array ?domains row (Array.of_list lds) in
  let raw =
    List.concat
      (List.mapi
         (fun i ld ->
           let cells, _ = rows.(i) in
           List.mapi (fun j r -> ((ld, ads_arr.(j)), r)) (Array.to_list cells))
         lds)
  in
  let evaluated = Array.fold_left (fun acc (_, e) -> acc + e) 0 rows in
  let cells = List.length lds * n_ads in
  (raw, { cells; evaluated; derived = cells - evaluated })

(* --- Pareto frontier ------------------------------------------------ *)

let frontier cells =
  let feasible =
    List.filter_map
      (fun c ->
        match (c.reliability, c.area) with
        | Some r, Some a ->
          Some { p_ld = c.ld; p_ad = c.ad; p_reliability = r; p_area = a }
        | _ -> None)
      cells
  in
  let dominates p q =
    p.p_ld <= q.p_ld && p.p_ad <= q.p_ad
    && p.p_reliability >= q.p_reliability
    && (p.p_ld < q.p_ld || p.p_ad < q.p_ad || p.p_reliability > q.p_reliability)
  in
  List.filter (fun q -> not (List.exists (fun p -> dominates p q) feasible))
    feasible
  |> List.sort_uniq compare

(* --- bound-plane planning ------------------------------------------- *)

let span lo hi n =
  let lo = min lo hi and hi = max lo hi in
  if n <= 1 || hi <= lo then [ lo ]
  else
    List.sort_uniq compare
      (List.init n (fun i -> lo + ((hi - lo) * i / (n - 1))))

let plan ?(rows = 6) ?(cols = 16) g lib =
  let versions_of (nd : Dfg.node) = Library.versions lib (Op.resource_class nd.op) in
  let fold_versions f init nd = List.fold_left f init (versions_of nd) in
  let delay_min nd =
    fold_versions (fun m (v : Resource.t) -> min m v.delay) max_int nd
  in
  let delay_max nd =
    fold_versions (fun m (v : Resource.t) -> max m v.delay) 1 nd
  in
  let ld_lo = Analysis.asap_latency g ~delay:delay_min in
  let ld_hi = max ld_lo (Analysis.asap_latency g ~delay:delay_max) in
  (* Lower corner: one shared instance of the smallest version per
     class present; upper corner: every operation on its own largest
     version, with TMR headroom (3x) so redundancy approaches can
     saturate. *)
  let ad_lo =
    List.fold_left
      (fun acc (cls, _) ->
        acc
        + List.fold_left
            (fun m (v : Resource.t) -> min m v.area)
            max_int (Library.versions lib cls))
      0 (Dfg.count_by_class g)
  in
  let ad_hi =
    3
    * Dfg.fold_nodes g ~init:0 (fun acc nd ->
          acc + fold_versions (fun m (v : Resource.t) -> max m v.area) 0 nd)
  in
  (span (max 1 ld_lo) ld_hi rows, span (max 1 ad_lo) (max 1 ad_hi) cols)
